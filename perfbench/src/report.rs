//! Named metrics and how a run prints them: a human-readable table
//! first, then the one-line JSON result the benchmark contract reads.

use crate::json::Json;
use crate::workloads::Window;

/// A share above this is flagged as unreconciled: the layers measured
/// do not add up to the call they decompose.
pub const UNRECONCILED: f64 = 0.10;

/// One measured value with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
    /// Printed in the table and the result file but left out of the
    /// result line (a figure too unsteady run to run to gate on).
    pub table_only: bool,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
            table_only: false,
        }
    }

    pub fn table_only(mut self) -> Self {
        self.table_only = true;
        self
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
            ("samples", Json::Int(self.samples as u64)),
            ("note", Json::str(&self.note)),
        ])
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers (the command then exits non-zero).
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    /// Conditions a reader must not miss, such as unreconciled layers.
    pub flags: Vec<String>,
    /// Checks on the program's exact counts that failed (a broken
    /// identity, a count that did not repeat); like a wrong answer, any
    /// of them makes the run incorrect.
    pub failed_checks: Vec<String>,
    /// Context lines (input pools, schedule) printed before the table.
    pub notes: Vec<String>,
    /// The windows of the measured run, written to the result file.
    pub windows: Vec<Window>,
}

impl Report {
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Records a failed count check.
    pub fn fail_check(&mut self, what: impl Into<String>) {
        self.failed_checks.push(what.into());
    }

    /// No wrong answer and no failed check.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.failed_checks.is_empty()
    }

    /// Pushes an `*.unattributed_share`, flagging it when above
    /// [`UNRECONCILED`].
    pub fn push_share(&mut self, name: &'static str, value: f64, samples: usize) {
        let mut m = Metric::new(name, value, "share", samples);
        if value > UNRECONCILED {
            m.note = format!("UNRECONCILED (> {UNRECONCILED})");
            self.flags.push(format!(
                "{name} = {value:.3}: layers do not reconcile within 10%"
            ));
        }
        self.push(m);
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<38} {:>16} {:<6} {:>8}  note\n",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<38} {:>16.6} {:<6} {:>8}  {}\n",
                m.name, m.value, m.unit, m.samples, m.note
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric not marked table-only as `{value, unit}`. A latency that landed on a failed
    /// request (`+∞`) is written as [`MISS_MS`].
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().filter(|m| !m.table_only).map(|m| {
            let value = if m.value.is_finite() {
                m.value
            } else {
                MISS_MS
            };
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

/// The value a missed latency percentile reads in the result line
/// (JSON has no infinity).
pub const MISS_MS: f64 = 1e12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.push(Metric::new("latency_p99_ms", f64::INFINITY, "ms", 10));
        r.push_share("crt.unattributed_share", 0.2, 7);
        r.push(Metric::new("shown_only", 1.0, "ms", 1).table_only());
        assert_eq!(
            r.result_line(),
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":{\
             \"latency_p99_ms\":{\"value\":1000000000000,\"unit\":\"ms\"},\
             \"crt.unattributed_share\":{\"value\":0.2,\"unit\":\"share\"}}}"
        );
        assert_eq!(r.flags.len(), 1, "a share above 10% is flagged");
        assert!(r.correct(), "a flag alone does not fail the run");
        r.fail_check("scan count identity violated");
        assert!(!r.correct());
        assert!(r.result_line().starts_with("{\"correct\":false,"));
    }
}
