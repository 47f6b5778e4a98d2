//! Operation accounting and the result the benchmark prints.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// What the value summarizes, e.g. `median of 9 passes`.
    pub basis: String,
}

impl Metric {
    /// A metric with its unit and the basis it was computed on.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        basis: impl Into<String>,
    ) -> Self {
        Self {
            name,
            value,
            unit,
            basis: basis.into(),
        }
    }

    /// `name value unit basis`, aligned.
    pub fn line(&self) -> String {
        format!(
            "{:<28} {:>18} {:<6} {}",
            self.name,
            fmt_value(self.value),
            self.unit,
            self.basis
        )
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Fits and requests attempted, measured or verifying.
    pub attempted: u64,
    /// Operations that errored, went unanswered, or failed a check.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    /// Counts a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operation accounting.
    pub checks: Checks,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (accounting, trace file, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    /// Human-readable lines: every metric by name with unit and basis.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&m.line());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out.push_str(&format!(
            "operations: {} attempted, {} failed\n",
            self.checks.attempted, self.checks.failed
        ));
        for f in self.checks.failures.iter().take(10) {
            out.push_str(&format!("FAILED: {f}\n"));
        }
        out
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e7) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// Shortest round-trip decimal of `v`; JSON has no NaN or infinity, so
/// those become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut checks = Checks::default();
        checks.attempt(3);
        let out = Outcome {
            checks,
            metrics: vec![Metric::new("setup_s", 0.125, "s", "median of 5")],
            notes: vec![],
        };
        assert_eq!(
            out.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut checks = Checks::default();
        checks.attempt(2);
        checks.check(false, || "digest changed".into());
        let out = Outcome {
            checks,
            metrics: vec![],
            notes: vec![],
        };
        assert!(!out.correct());
        assert!(out
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
