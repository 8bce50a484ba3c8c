//! Metric output: one `name value unit` line per metric, a parser for those
//! lines, and the JSON result line that ends every run.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`is_valid_name`]).
    pub name: String,
    /// The value as measured, printed with every digit.
    pub value: f64,
    /// Unit, e.g. `ms`, `kreq/s`, `ratio`, `count`.
    pub unit: String,
}

impl Metric {
    /// A metric with the given name, value and unit.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }

    /// The `name value unit` line. `f64`'s `Display` prints the shortest
    /// decimal that reads back as the same value, never in exponent form.
    pub fn line(&self) -> String {
        format!("{} {} {}", self.name, self.value, self.unit)
    }

    /// Parses a line written by [`Metric::line`]. Returns `None` for any
    /// other line (headers, notes, the JSON result).
    pub fn parse_line(line: &str) -> Option<Metric> {
        let mut parts = line.split_whitespace();
        let (name, value, unit) = (parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() || !is_valid_name(name) || !is_valid_unit(unit) {
            return None;
        }
        Some(Metric::new(name, value.parse().ok()?, unit))
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn is_valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn is_valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Checks and timed runs attempted.
    pub attempted: u64,
    /// Checks and timed runs that failed.
    pub failed: u64,
    /// The metrics measured.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one attempted check; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The JSON result line: `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value": v, "unit": u}`. A non-finite
    /// value, which JSON cannot hold, is written as `null`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            // Names and units are restricted to characters JSON strings
            // need no escapes for.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Reads an integer field such as `"attempted": 12` out of a result line
/// written by [`Outcome::json`].
pub fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        for m in [
            Metric::new("sim_kreq_per_s", 6.123456789012345, "kreq/s"),
            Metric::new("model.cycles", 1025397.0, "cycles"),
            Metric::new("setup_s", 0.000123, "s"),
        ] {
            assert_eq!(Metric::parse_line(&m.line()), Some(m));
        }
        assert_eq!(Metric::parse_line("# workload ring_mcf"), None);
        assert_eq!(Metric::parse_line("a 1 ms extra"), None);
        assert_eq!(Metric::parse_line("{\"correct\": true}"), None);
    }

    #[test]
    fn json_line_carries_counts_and_metrics() {
        let mut o = Outcome::default();
        o.check(true);
        o.check(true);
        o.metrics.push(Metric::new("run_ms_p90", 12.5, "ms"));
        let json = o.json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"run_ms_p90\": {\"value\": 12.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_u64_field(&json, "attempted"), Some(2));
        assert_eq!(json_u64_field(&json, "failed"), Some(0));
        o.check(false);
        assert!(!o.correct());
        o.metrics.push(Metric::new("x", f64::NAN, "ms"));
        assert!(o.json().contains("\"x\": {\"value\": null"));
    }

    #[test]
    fn names_and_units_are_restricted() {
        assert!(is_valid_name("controller.tick_ns"));
        assert!(!is_valid_name("_hidden"));
        assert!(!is_valid_name("a b"));
        assert!(!is_valid_name(&"x".repeat(65)));
        assert!(is_valid_unit("kreq/s"));
        assert!(!is_valid_unit(""));
        assert!(!is_valid_unit("\"q\""));
    }
}
