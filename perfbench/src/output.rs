//! The result document: named metrics with units, and the final
//! one-line JSON object the benchmark prints.

use serde_json::Value;

/// Named metrics in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, String)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value). Non-finite values are
    /// recorded as 0 so the document stays valid JSON.
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit.to_string();
            }
            None => self
                .entries
                .push((name.to_string(), value, unit.to_string())),
        }
    }

    /// The value of `name`, or 0.
    pub fn value(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    /// Copies every metric of `other` in (later values win).
    pub fn extend(&mut self, other: &Metrics) {
        for (name, value, unit) in &other.entries {
            self.set(name, *value, unit);
        }
    }

    /// The metrics as one `name value unit` line each.
    pub fn lines(&self) -> String {
        self.entries
            .iter()
            .map(|(name, value, unit)| format!("{name:<32} {value:>16.6} {unit}\n"))
            .collect()
    }

    fn to_value(&self) -> Value {
        Value::Object(
            self.entries
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("value".to_string(), Value::Number(*value)),
                            ("unit".to_string(), Value::String(unit.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Number(attempted as f64)),
        ("failed".to_string(), Value::Number(failed as f64)),
        ("metrics".to_string(), metrics.to_value()),
    ]);
    serde_json::to_string(&doc).expect("a JSON value always serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.25, "s");
        m.set("wall_s", 1.5, "s");
        m.set("bad", f64::NAN, "s");
        let line = result_line(true, 3, 0, &m);
        let v = serde_json::from_str_value(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("bad")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
