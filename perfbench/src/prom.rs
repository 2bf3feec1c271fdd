//! A reader for the histogram series of a Prometheus text exposition,
//! as `GET /metrics` with `Accept: text/plain` serves them.

use std::collections::BTreeMap;

/// One histogram: per-bucket (not cumulative) counts keyed by the
/// bucket's upper bound, plus the `_sum` and `_count` series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromHistogram {
    /// Upper bound (`le`, as f64 bits so the map orders and merges
    /// exactly) → observations in that bucket alone.
    buckets: BTreeMap<OrderedBound, u64>,
    /// The `_sum` series.
    pub sum: f64,
    /// The `_count` series.
    pub count: u64,
}

/// An `le` bound that sorts numerically (`+Inf` last).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedBound(f64);

impl Eq for OrderedBound {}

impl PartialOrd for OrderedBound {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedBound {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PromHistogram {
    /// Adds another histogram's observations (bucket layouts may differ:
    /// an exposition skips empty buckets).
    pub fn merge(&mut self, other: &PromHistogram) {
        for (bound, n) in &other.buckets {
            *self.buckets.entry(*bound).or_default() += n;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The `q`-quantile, interpolated linearly inside the bucket that
    /// holds it (between the previous listed bound, or 0, and this
    /// bound), as Prometheus' `histogram_quantile` does. A quantile in
    /// the `+Inf` bucket reports the largest finite bound. `None` when
    /// the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total: u64 = self.buckets.values().sum();
        if total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cumulative = 0u64;
        let mut lower = 0.0;
        for (bound, n) in &self.buckets {
            let before = cumulative;
            cumulative += n;
            if *n > 0 && cumulative as f64 >= rank {
                if bound.0.is_infinite() {
                    return Some(lower);
                }
                let within = ((rank - before as f64) / *n as f64).clamp(0.0, 1.0);
                return Some(lower + (bound.0 - lower) * within);
            }
            if bound.0.is_finite() {
                lower = bound.0;
            }
        }
        Some(lower)
    }
}

/// Every histogram in `text`, keyed by its base name (the series name
/// without `_bucket`/`_sum`/`_count`). Series that differ only in
/// labels other than `le` are summed into one histogram.
pub fn parse_histograms(text: &str) -> BTreeMap<String, PromHistogram> {
    // Cumulative bucket counts per (base name, other labels) series.
    let mut cumulative: BTreeMap<(String, String), Vec<(f64, u64)>> = BTreeMap::new();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (name, rest.trim_end_matches('}')),
            None => (series, ""),
        };
        if let Some(base) = name.strip_suffix("_bucket") {
            let mut le = None;
            let mut others = Vec::new();
            for label in split_labels(labels) {
                match label.split_once('=') {
                    Some(("le", v)) => le = parse_bound(v.trim_matches('"')),
                    _ => others.push(label),
                }
            }
            if let (Some(le), Ok(n)) = (le, value.parse::<f64>()) {
                cumulative
                    .entry((base.to_string(), others.join(",")))
                    .or_default()
                    .push((le, n as u64));
            }
        } else if let Some(base) = name.strip_suffix("_sum") {
            if let Ok(v) = value.parse::<f64>() {
                *sums.entry(base.to_string()).or_default() += v;
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            if let Ok(v) = value.parse::<f64>() {
                *counts.entry(base.to_string()).or_default() += v as u64;
            }
        }
    }
    let mut out: BTreeMap<String, PromHistogram> = BTreeMap::new();
    for ((base, _), mut points) in cumulative {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut hist = PromHistogram::default();
        let mut previous = 0u64;
        for (le, running) in points {
            hist.buckets
                .insert(OrderedBound(le), running.saturating_sub(previous));
            previous = previous.max(running);
        }
        out.entry(base).or_default().merge(&hist);
    }
    for (base, hist) in &mut out {
        hist.sum = sums.get(base).copied().unwrap_or(0.0);
        hist.count = counts.get(base).copied().unwrap_or(0);
    }
    out
}

/// Splits a label set on the commas between `name="value"` pairs,
/// honouring escaped quotes inside values.
fn split_labels(labels: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in labels.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(labels[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = labels[start..].trim();
    if !last.is_empty() {
        out.push(last);
    }
    out
}

fn parse_bound(text: &str) -> Option<f64> {
    match text {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        other => other.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP ecripse_serve_job_seconds Wall-clock duration of one job's execution
# TYPE ecripse_serve_job_seconds histogram
ecripse_serve_job_seconds_bucket{le=\"0.125\"} 2
ecripse_serve_job_seconds_bucket{le=\"0.25\"} 6
ecripse_serve_job_seconds_bucket{le=\"+Inf\"} 8
ecripse_serve_job_seconds_sum 2.5
ecripse_serve_job_seconds_count 8
ecripse_serve_queue_depth 0
";

    #[test]
    fn parses_a_serve_histogram() {
        let hists = parse_histograms(SAMPLE);
        let h = &hists["ecripse_serve_job_seconds"];
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 2.5);
        // 8 observations: 2 in (0, 0.125], 4 in (0.125, 0.25], 2 above.
        // The median (rank 4) sits halfway through the second bucket.
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 0.1875).abs() < 1e-12, "{p50}");
        // Rank 1 of 2 in the first bucket: halfway from 0 to 0.125.
        assert!((h.quantile(0.125).unwrap() - 0.0625).abs() < 1e-12);
        // A quantile in the +Inf bucket reports the largest finite bound.
        assert_eq!(h.quantile(0.99), Some(0.25));
        assert!(!hists.contains_key("ecripse_serve_queue_depth"));
    }

    #[test]
    fn merging_rounds_adds_buckets_with_different_layouts() {
        let a = parse_histograms(SAMPLE);
        let b = parse_histograms(
            "x_bucket{le=\"0.5\"} 4\nx_bucket{le=\"+Inf\"} 4\nx_sum 1.6\nx_count 4\n",
        );
        let mut merged = a["ecripse_serve_job_seconds"].clone();
        merged.merge(&b["x"]);
        assert_eq!(merged.count, 12);
        assert!((merged.sum - 4.1).abs() < 1e-12);
        // Ranks 7–10 of 12 now sit in the (0.25, 0.5] bucket.
        let p75 = merged.quantile(0.75).unwrap();
        assert!(p75 > 0.25 && p75 <= 0.5, "{p75}");
    }

    #[test]
    fn labelled_series_are_summed_and_escapes_respected() {
        let text = "\
h_bucket{worker=\"a,\\\"b\",le=\"1\"} 1
h_bucket{worker=\"a,\\\"b\",le=\"+Inf\"} 1
h_bucket{worker=\"c\",le=\"1\"} 0
h_bucket{worker=\"c\",le=\"2\"} 3
h_bucket{worker=\"c\",le=\"+Inf\"} 3
h_count{worker=\"a,\\\"b\"} 1
h_count{worker=\"c\"} 3
";
        let h = &parse_histograms(text)["h"];
        assert_eq!(h.count, 4);
        assert_eq!(h.quantile(0.25), Some(1.0));
        assert!(h.quantile(1.0).unwrap() <= 2.0);
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        assert_eq!(PromHistogram::default().quantile(0.5), None);
    }
}
