//! What one benchmark run prints: notes and model outputs as text lines,
//! then one JSON object as the last line of standard output.

use std::fmt::Write as _;

use crate::stats::{self, Tail};

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Counts operations and the reasons the failed ones failed.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that returned an error or broke an invariant.
    pub failed: u64,
    /// The first few failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Gate {
    /// Records one operation: `Ok` passes, `Err(reason)` fails it.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.ops += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }
}

/// One untraced pass: its wall time, simulated events and the latency of
/// each of its operations, scaled to nominal host speed (see
/// the `calib` module).
#[derive(Debug, Default)]
pub struct PassTiming {
    /// Scaled host seconds of every timed call of the pass.
    pub wall_s: f64,
    /// The same, unscaled.
    pub raw_wall_s: f64,
    /// Simulated events of the pass.
    pub events: f64,
    /// Scaled host milliseconds of each operation.
    pub op_ms: Vec<f64>,
}

impl PassTiming {
    /// From the `(scaled, raw)` seconds of every timed call of a pass, in
    /// order (a slice of what `calib::Meter::finish` returns); `is_op` picks
    /// the calls that are operations.
    pub fn new(events: f64, timed: &[(f64, f64)], is_op: impl Fn(usize) -> bool) -> Self {
        PassTiming {
            wall_s: timed.iter().map(|t| t.0).sum(),
            raw_wall_s: timed.iter().map(|t| t.1).sum(),
            events,
            op_ms: timed
                .iter()
                .enumerate()
                .filter(|(i, _)| is_op(*i))
                .map(|(_, t)| t.0 * 1e3)
                .collect(),
        }
    }
}

/// Host timings shared by every workload.
#[derive(Debug, Default)]
pub struct Timings {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The untraced passes.
    pub passes: Vec<PassTiming>,
}

impl Timings {
    /// The end-to-end metrics, in `BENCHMARK.json` order, and the tail
    /// the `op_tail_ms` value was read at.
    ///
    /// # Errors
    ///
    /// Forwards a failure to read peak memory.
    pub fn end_to_end(&self) -> Result<(Vec<Metric>, Tail), String> {
        let wall: Vec<f64> = self.passes.iter().map(|p| p.wall_s).collect();
        let eps: Vec<f64> = self
            .passes
            .iter()
            .map(|p| stats::ratio(p.events, p.wall_s))
            .collect();
        // Every pass runs the same operations in the same order; each
        // operation's latency is its median over the passes, which keeps
        // the host's sub-second bursts out of the percentiles.
        let n = self.passes.iter().map(|p| p.op_ms.len()).min().unwrap_or(0);
        let ops: Vec<f64> = (0..n)
            .map(|i| stats::median(&self.passes.iter().map(|p| p.op_ms[i]).collect::<Vec<_>>()))
            .collect();
        let tail = stats::tail(&ops);
        let metrics = vec![
            metric("setup_s", stats::median(&self.setup_s), "s"),
            metric("wall_s", stats::median(&wall), "s"),
            metric("events_per_s", stats::median(&eps), "1/s"),
            metric("op_p50_ms", stats::median(&ops), "ms"),
            metric("op_tail_ms", tail.value, "ms"),
            metric("peak_rss_mb", stats::peak_rss_mb()?, "MiB"),
        ];
        Ok((metrics, tail))
    }

    /// One log line: pass count, each pass's scaled and unscaled
    /// seconds, what an operation is and the tail rule.
    pub fn summary(&self, tail: &Tail, op: &str) -> String {
        let walls: Vec<String> = self
            .passes
            .iter()
            .map(|p| format!("{:.3} ({:.3} unscaled)", p.wall_s, p.raw_wall_s))
            .collect();
        format!(
            "{} passes of [{}] s; an operation is {op}; op_tail_ms is p{} of {} operations, \
             each the median of its {} runs",
            self.passes.len(),
            walls.join(", "),
            tail.percentile,
            tail.samples,
            self.passes.len()
        )
    }
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Free-form lines: seed use, pass counts, tail rule, references.
    pub notes: Vec<String>,
    /// Model outputs (simulated results), reported but never scored.
    pub model: Vec<String>,
    /// Digest of every model output of one pass.
    pub digest: String,
    /// The correctness gate.
    pub gate: Gate,
    /// The metrics of this run: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every operation cleared the correctness gate.
    pub fn correct(&self) -> bool {
        self.gate.ops > 0 && self.gate.failed == 0
    }

    /// The printed form: text lines, then the JSON result line.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for m in &self.model {
            let _ = writeln!(out, "model {m}");
        }
        let _ = writeln!(out, "model digest {}", self.digest);
        let _ = writeln!(
            out,
            "gate {workload}: ops {} ops_failed {}",
            self.gate.ops, self.gate.failed
        );
        for r in &self.gate.reasons {
            let _ = writeln!(out, "gate failure: {r}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "metric {} = {} {}", m.name, m.value, m.unit);
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// The JSON result object (one line).
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.gate.ops,
            self.gate.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.gate.op(Ok(()));
        r.gate.op(Err("boom".into()));
        r.metrics.push(metric("wall_s", 1.5, "s"));
        r.metrics.push(metric("count", 3.0, "count"));
        let j = r.json();
        assert_eq!(
            j,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
