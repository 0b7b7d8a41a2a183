//! The result of one benchmark run and its two renderings: a human-readable
//! block and the single JSON line that ends standard output.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (listed in `BENCHMARK.json`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`, `ratio`.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed, were rejected or produced a wrong output.
    pub failed: u64,
    /// Human-readable notes on output checks that did not pass.
    pub check_failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (context, reconciliation table).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records one failed output check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.check_failures.push(message);
    }

    /// Whether every job succeeded and every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Rust's shortest round-trip float formatting keeps every digit
            // of the measured value; non-finite values are not JSON.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The human-readable block printed before the JSON line.
    #[must_use]
    pub fn render_text(&self, title: &str) -> String {
        let mut out = format!("== {title}\n");
        for note in &self.notes {
            let _ = writeln!(out, "   {note}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "   {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "   {:<32} {:>16.6} ratio  ({} failed of {} attempted)",
            "failed_ratio",
            self.failed_ratio(),
            self.failed,
            self.attempted
        );
        for failure in self.check_failures.iter().take(20) {
            let _ = writeln!(out, "   CHECK FAILED: {failure}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("setup_s", 0.25, "s");
        o.push("graphs_per_s", 1234.5, "1/s");
        let line = o.to_json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"graphs_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
        o.fail("x".into());
        assert!(!o.correct());
        assert!(o.to_json_line().starts_with("{\"correct\": false"));
    }
}
