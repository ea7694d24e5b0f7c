//! The SDDS reproduction's benchmark: four workloads, end-to-end host
//! metrics from untraced runs and per-layer host time from traced runs.
//!
//! Every workload runs on one thread. A run sets its inputs up several
//! times (`setup_s` is the median), then repeats whole passes for
//! `--seconds` (at least two, so a pass's model outputs can be compared
//! with the next), scaling host times to nominal host speed with the
//! `calib` kernel. A traced run instead makes one untraced pass, one
//! pass with every layer call timed, and one with the program's telemetry
//! on; it reports the per-layer metrics. `BENCHMARK.json` at the
//! repository root names the workloads and metrics; `README.md` beside
//! this crate maps each layer metric to the end-to-end metric it should
//! move.

use std::time::Instant;

mod calendar;
mod calib;
pub mod matrix;
mod objstore;
pub mod report;
mod scene;
mod stats;

use report::{metric, Metric, Report};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "paper-matrix",
    "sensitivity-sweep",
    "datacenter-scene",
    "objstore-rebuild",
];

/// The end-to-end metrics of an untraced run, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run, with units. A layer that a
/// workload does not reach reads 0 there.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("workloads.program_s", "s"),
    ("workloads.objstore_gen_s", "s"),
    ("compiler.trace_s", "s"),
    ("compiler.trace_calls", "count"),
    ("compiler.slack_s", "s"),
    ("compiler.slack_accesses", "count"),
    ("compiler.schedule_s", "s"),
    ("compiler.schedule_calls", "count"),
    ("compiler.schedule_ns_per_access", "ns"),
    ("compiler.schedule_moved_earlier", "count"),
    ("core.cache.trace_hits", "count"),
    ("core.cache.trace_misses", "count"),
    ("core.cache.schedule_hits", "count"),
    ("core.cache.schedule_misses", "count"),
    ("runtime.engine.new_s", "s"),
    ("runtime.engine.plain_s", "s"),
    ("runtime.engine.scheme_s", "s"),
    ("runtime.engine.events", "count"),
    ("runtime.engine.plain_ns_per_event", "ns"),
    ("runtime.engine.scheme_ns_per_event", "ns"),
    ("runtime.buffer.hits", "count"),
    ("runtime.buffer.misses", "count"),
    ("runtime.buffer.rejected_full", "count"),
    ("runtime.scheduler.issued", "count"),
    ("runtime.scheduler.became_sync", "count"),
    ("runtime.scheduler.timed_out", "count"),
    ("runtime.scheduler.useful_ratio", "ratio"),
    ("storage.cache.read_hits", "count"),
    ("storage.cache.read_misses", "count"),
    ("storage.cache.hit_ratio", "ratio"),
    ("disk.requests_served", "count"),
    ("disk.spin_ups", "count"),
    ("disk.spin_downs", "count"),
    ("disk.rpm_changes", "count"),
    ("power.policy_decisions", "count"),
    ("simkit.kernel.engine_pop_ns", "ns"),
    ("simkit.kernel.scene_pop_ns", "ns"),
    ("runtime.scene.single_shard_s", "s"),
    ("runtime.scene.sharded_s", "s"),
    ("runtime.scene.events", "count"),
    ("runtime.scene.epochs", "count"),
    ("runtime.scene.messages", "count"),
    ("runtime.scene.shards", "count"),
    ("simkit.shard.barrier_stall_ratio", "ratio"),
    ("simkit.shard.epoch_imbalance", "ratio"),
    ("power.scene.spin_ups", "count"),
    ("power.scene.spin_downs", "count"),
    ("power.scene.disk_requests", "count"),
    ("runtime.rebuild.routed_s", "s"),
    ("runtime.rebuild.unrouted_s", "s"),
    ("runtime.rebuild.fault_free_s", "s"),
    ("runtime.rebuild.requests", "count"),
    ("runtime.rebuild.routed_skips", "count"),
    ("runtime.rebuild.transient_retries", "count"),
    ("runtime.rebuild.deferred", "count"),
    ("runtime.rebuild.chunks", "count"),
    ("runtime.rebuild.skipped_ticks", "count"),
    ("storage.placement.build_s", "s"),
    ("simkit.fault.plan_s", "s"),
    ("trace.span_overhead_ratio", "ratio"),
    ("trace.telemetry_overhead_ratio", "ratio"),
];

/// Input size: the benchmark's own, or a tiny one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Test-scale inputs that finish in about a second.
    Tiny,
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed (only `objstore-rebuild` uses it).
    pub seed: u64,
    /// Seconds to keep repeating passes for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

impl Opts {
    /// Builds a workload's inputs with `build` several times, recording
    /// each time in `setup_s`, and returns the last result. At full size
    /// it repeats at least five times and until half a second has passed,
    /// so the median of a microsecond set-up is steady and spans more than
    /// one of the host's bursts. Untraced, each time is scaled to nominal
    /// host speed like an operation's (see the `calib` module).
    pub fn setup<T>(&self, setup_s: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
        let (min_reps, budget) = match self.size {
            Size::Full => (5, 0.5),
            Size::Tiny => (2, 0.0),
        };
        let mut meter = calib::Meter::new(!self.trace, calib::Profile::Mixed);
        let started = Instant::now();
        let out = loop {
            let out = meter.op(&mut build);
            if meter.mark() >= min_reps && started.elapsed().as_secs_f64() >= budget {
                break out;
            }
        };
        setup_s.extend(meter.finish().into_iter().map(|(scaled, _)| scaled));
        out
    }

    /// Runs whole passes for `seconds`, at least two: another pass starts
    /// only while it is expected to end within `seconds`, judging by the
    /// mean pass so far.
    pub fn passes<T>(&self, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
        let started = Instant::now();
        let mut out = Vec::new();
        loop {
            let n = out.len() as f64;
            let elapsed = started.elapsed().as_secs_f64();
            if out.len() >= 2 && elapsed * (n + 1.0) / n > self.seconds {
                return out;
            }
            out.push(pass(out.len()));
        }
    }
}

/// Runs `workload` and returns its report, metrics in `BENCHMARK.json`
/// order.
///
/// # Errors
///
/// Returns a message for an unknown workload or when a measurement the
/// report needs cannot be made.
pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    let mut rep = match workload {
        "paper-matrix" => matrix::run(matrix::Kind::PaperMatrix, opts),
        "sensitivity-sweep" => matrix::run(matrix::Kind::SensitivitySweep, opts),
        "datacenter-scene" => scene::run(opts),
        "objstore-rebuild" => objstore::run(opts),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            WORKLOADS.join(", ")
        )),
    }?;
    if opts.trace {
        rep.metrics.extend(calendar::metrics());
        rep.metrics = complete(&rep.metrics, &PER_LAYER)?;
    } else {
        rep.metrics = complete(&rep.metrics, &END_TO_END)?;
    }
    Ok(rep)
}

/// Orders `measured` as `names`, filling a metric the workload does not
/// reach with 0.
fn complete(
    measured: &[Metric],
    names: &[(&'static str, &'static str)],
) -> Result<Vec<Metric>, String> {
    if let Some(m) = measured
        .iter()
        .find(|m| !names.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric `{}` is not listed", m.name));
    }
    Ok(names
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0, unit))
        })
        .collect())
}
