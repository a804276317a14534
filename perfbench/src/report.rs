//! Order statistics and the result line the run ends with.

/// Value at quantile `q` (0..=1) of `values`, by linear interpolation
/// between the closest ranks. `values` must not be empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The quantile the end-to-end op times are read at. On a shared host op
/// times are bimodal: a fast mode, and a slow mode while other load shares
/// the cores. The median lands on whichever mode held more of the run and
/// jumps between them from run to run; the p10 stays in the fast mode,
/// which is what a code change moves.
pub const FAST: f64 = 0.1;

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What one run reports: operation counts, whether every output checked
/// out, and the metrics of the requested kind.
#[derive(Debug)]
pub struct Report {
    attempted: u64,
    failed: u64,
    /// Every checked output matched its reference.
    correct: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Default for Report {
    fn default() -> Self {
        Report { attempted: 0, failed: 0, correct: true, metrics: Vec::new() }
    }
}

impl Report {
    /// Counts one operation; `ok` is false when it errored, was shed, or
    /// produced output that failed its check.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another report's operation counts.
    pub fn merge(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
    }

    /// Records a failed output check (the run is then not correct).
    pub fn mismatch(&mut self, what: &str) {
        if self.correct {
            eprintln!("perfbench: output check failed: {what}");
        }
        self.correct = false;
    }

    /// Counts one checked operation: `Ok(same)` says whether its output
    /// matched the reference, `Err` is a failed call.
    pub fn check(&mut self, what: &str, outcome: Result<bool, String>) {
        match outcome {
            Ok(same) => {
                if !same {
                    self.mismatch(what);
                }
                self.op(same);
            }
            Err(e) => {
                eprintln!("perfbench: {what}: {e}");
                self.op(false);
            }
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.metrics.iter().all(|(n, _, _)| n != name), "metric {name} reported twice");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The single JSON line the run ends with.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One human-readable line per metric.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|(name, value, unit)| format!("  {name:<34} {value:>14.4} {unit}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut r = Report::default();
        r.op(true);
        r.op(false);
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
