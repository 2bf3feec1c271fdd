//! The deterministic content of a workload unit, and the checks that
//! keep it exact: repeat equality inside a run, traced-versus-untraced
//! equality, and the pinned values per workload and seed.

use ecripse_core::observe::RunReport;
use serde_json::Value;
use std::collections::BTreeMap;

/// Everything a unit computes that must repeat bit for bit: the P_fail
/// (and CI) bits, the exact work counters, and a digest of the stripped
/// run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answer {
    /// `f64::to_bits` of every estimate and CI half-width, in order.
    pub bits: Vec<u64>,
    /// Exact counters by name (`simulations`, `spice.newton_iters`, …).
    pub counts: BTreeMap<String, u64>,
    /// FNV-1a digest of the timing-stripped reports.
    pub digest: u64,
}

impl Answer {
    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &str, value: u64) {
        *self.counts.entry(name.to_string()).or_default() += value;
    }

    /// The counter `name`, or 0.
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Folds a report into the digest with its wall-clock fields zeroed.
    /// `strip_effort` also zeroes the solver-effort counters, for reports
    /// whose per-run effort is legitimately schedule- or cache-dependent
    /// (sweep points sharing one bench's counters, verdict-cache hits).
    pub fn digest_report(&mut self, report: &RunReport, strip_effort: bool) {
        let json = serde_json::to_string(&comparable(report, strip_effort))
            .expect("a run report always serialises");
        self.digest = fnv1a(self.digest ^ 0x9e37_79b9_7f4a_7c15, json.as_bytes());
    }

    /// Names of the fields that differ from `other` (empty when equal).
    pub fn differences(&self, other: &Answer) -> Vec<String> {
        let mut out = Vec::new();
        if self.bits != other.bits {
            out.push("p_fail bits".to_string());
        }
        if self.digest != other.digest {
            out.push("stripped reports".to_string());
        }
        let names: std::collections::BTreeSet<&String> =
            self.counts.keys().chain(other.counts.keys()).collect();
        for name in names {
            if self.get(name) != other.get(name) {
                out.push(format!(
                    "{name} ({} vs {})",
                    self.get(name),
                    other.get(name)
                ));
            }
        }
        out
    }

    /// The pin-file form.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "bits".to_string(),
                Value::Array(
                    self.bits
                        .iter()
                        .map(|b| Value::String(format!("{b:016x}")))
                        .collect(),
                ),
            ),
            (
                "counts".to_string(),
                Value::Object(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Number(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "digest".to_string(),
                Value::String(format!("{:016x}", self.digest)),
            ),
        ])
    }

    /// Parses the pin-file form.
    pub fn from_value(value: &Value) -> Option<Answer> {
        let bits = value
            .get("bits")?
            .as_array()?
            .iter()
            .map(|b| u64::from_str_radix(b.as_str()?, 16).ok())
            .collect::<Option<Vec<u64>>>()?;
        let counts = value
            .get("counts")?
            .as_object()?
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect::<Option<BTreeMap<String, u64>>>()?;
        let digest = u64::from_str_radix(value.get("digest")?.as_str()?, 16).ok()?;
        Some(Answer {
            bits,
            counts,
            digest,
        })
    }
}

/// A copy of `report` holding only its deterministic content: wall
/// clock zeroed, and the configured thread count (which the answer
/// never depends on) cleared.
pub fn comparable(report: &RunReport, strip_effort: bool) -> RunReport {
    let mut report = report.clone();
    report.strip_timings();
    report.threads = 0;
    if strip_effort {
        report.oracle.newton_iters = 0;
        report.oracle.factorisations = 0;
        report.oracle.warm_start_seeds = 0;
    }
    report
}

/// 64-bit FNV-1a.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The pinned answers compiled into the benchmark
/// (`perfbench/pins.json`, refreshed with `--write-pin`).
const PINS: &str = include_str!("../pins.json");

/// The pinned answer of `workload` at `seed`, if one was recorded.
pub fn pinned(workload: &str, seed: u64) -> Option<Answer> {
    let pins = serde_json::from_str_value(PINS).expect("pins.json is valid JSON");
    Answer::from_value(pins.get(workload)?.get(&seed.to_string())?)
}

/// Records `answer` as the pin of `workload` at `seed` in the pin file
/// at `path` (run from the repository root: `perfbench/pins.json`).
pub fn write_pin(path: &str, workload: &str, seed: u64, answer: &Answer) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|_| "{}".to_string());
    let mut pins = match serde_json::from_str_value(&text) {
        Ok(Value::Object(entries)) => entries,
        _ => Vec::new(),
    };
    let slot = match pins.iter().position(|(k, _)| k == workload) {
        Some(i) => i,
        None => {
            pins.push((workload.to_string(), Value::Object(Vec::new())));
            pins.len() - 1
        }
    };
    if let Value::Object(seeds) = &mut pins[slot].1 {
        seeds.retain(|(k, _)| k != &seed.to_string());
        seeds.push((seed.to_string(), answer.to_value()));
        seeds.sort_by_key(|(k, _)| k.parse::<u64>().unwrap_or(u64::MAX));
    }
    pins.sort_by(|a, b| a.0.cmp(&b.0));
    let json = serde_json::to_string_pretty(&Value::Object(pins))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Answer {
        let mut a = Answer {
            bits: vec![1.25e-4f64.to_bits(), 7.5e-6f64.to_bits()],
            ..Answer::default()
        };
        a.count("simulations", 4008);
        a.count("spice.newton_iters", 123_456_789);
        a.digest_report(&RunReport::default(), false);
        a
    }

    #[test]
    fn a_flipped_p_fail_bit_is_a_difference() {
        let pin = sample();
        let mut run = pin.clone();
        assert!(run.differences(&pin).is_empty());
        run.bits[0] ^= 1;
        assert_eq!(run.differences(&pin), vec!["p_fail bits".to_string()]);
    }

    #[test]
    fn drifting_counts_and_reports_are_named() {
        let pin = sample();
        let mut run = pin.clone();
        run.count("spice.newton_iters", 1);
        let report = RunReport {
            simulations: 1,
            ..RunReport::default()
        };
        run.digest_report(&report, false);
        let diffs = run.differences(&pin);
        assert!(diffs.iter().any(|d| d.starts_with("spice.newton_iters")));
        assert!(diffs.iter().any(|d| d == "stripped reports"));
    }

    #[test]
    fn stripping_ignores_wall_clock_and_optionally_effort() {
        let mut a = RunReport::default();
        a.stages.push(ecripse_core::observe::StageReport {
            stage: ecripse_core::observe::Stage::ParticleFilter,
            wall_seconds: 1.5,
            simulations: 10,
        });
        let mut b = a.clone();
        b.stages[0].wall_seconds = 2.5;
        assert_eq!(comparable(&a, false), comparable(&b, false));
        b.oracle.newton_iters = 99;
        assert_ne!(comparable(&a, false), comparable(&b, false));
        assert_eq!(comparable(&a, true), comparable(&b, true));
    }

    #[test]
    fn pin_form_round_trips() {
        let a = sample();
        let back = Answer::from_value(&a.to_value()).expect("parses");
        assert_eq!(back, a);
    }
}
