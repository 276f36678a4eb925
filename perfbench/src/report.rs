//! Named metrics with units, output checks, and the result line.

use crate::trace::json_string;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was taken over (1 for a single reading or an
    /// exact count).
    pub samples: usize,
}

/// Metrics in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics {
    list: Vec<Metric>,
}

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.list.push(Metric { name, value, unit, samples });
    }

    /// Median of `values` as `name`.
    pub fn median(&mut self, name: &'static str, values: &[f64], unit: &'static str) {
        self.push(name, crate::stats::median(values), unit, values.len());
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.list.iter()
    }
}

/// Output checks and serving failures, counted against operations
/// attempted (`fail_frac = failed / attempted`).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// One checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 20 {
            self.notes.push(what());
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, on one line.
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".to_string() };
        let _ = write!(
            body,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(m.name),
            json_string(m.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed
    )
}
