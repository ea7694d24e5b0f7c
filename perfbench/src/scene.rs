//! The `datacenter-scene` workload: the scale-100 scene run in a single
//! time domain, then auto-sharded on one worker as its partition check.

use std::ops::Range;

use sdds::ScaleSceneConfig;
use sdds_runtime::{run_scene, run_scene_observed, SceneResult, ShardPolicy};
use sdds_workloads::SceneSpec;
use simkit::shard::epoch_imbalance;
use simkit::SimDuration;

use crate::calib::{Meter, Profile};
use crate::report::{metric, Metric, PassTiming, Report, Timings};
use crate::stats::{self, clock, ratio};
use crate::{Opts, Size};

/// One pass: the single-domain run (the operation) and the sharded run
/// that checks it.
#[derive(Debug)]
struct Pass {
    single: Result<SceneResult, String>,
    sharded: Result<SceneResult, String>,
    single_s: f64,
    sharded_s: f64,
    /// This pass's two runs among the meter's operations.
    ops: Range<usize>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.single_s + self.sharded_s
    }

    fn events(&self) -> u64 {
        [&self.single, &self.sharded]
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|r| r.events)
            .sum()
    }

    /// Both digests, or the error of the failed run.
    fn digests(&self) -> Result<(String, String), String> {
        match (&self.single, &self.sharded) {
            (Ok(a), Ok(b)) => Ok((a.digest(), b.digest())),
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
        }
    }
}

fn pass(spec: &SceneSpec, window: SimDuration, meter: &mut Meter) -> Pass {
    let go = |policy| clock(|| run_scene(spec, policy, window, 1).map_err(|e| e.to_string()));
    let first_op = meter.mark();
    let (single, single_s) = meter.op(|| go(ShardPolicy::Fixed(1)));
    let (sharded, sharded_s) = meter.op(|| go(ShardPolicy::Auto));
    Pass {
        single,
        sharded,
        single_s,
        sharded_s,
        ops: first_op..meter.mark(),
    }
}

/// The digest without its partition-dependent fields (`shards`,
/// `trace_hash`), for comparing runs on different shard counts.
pub(crate) fn partition_free(digest: &str) -> String {
    let Some(shards) = digest.find(",\"shards\":") else {
        return digest.to_owned();
    };
    let after = digest[shards + 1..]
        .find(',')
        .map_or(digest.len(), |i| shards + 1 + i);
    let hash = digest.find(",\"trace_hash\"").unwrap_or(digest.len());
    format!("{}{}}}", &digest[..shards], &digest[after..hash.max(after)])
}

/// The scene configuration at `size`.
pub(crate) fn config(size: Size) -> ScaleSceneConfig {
    ScaleSceneConfig {
        factor: match size {
            Size::Full => 100.0,
            Size::Tiny => 0.5,
        },
        shards: ShardPolicy::Auto,
        epoch: None,
    }
}

/// Runs the workload and reports its metrics.
///
/// # Errors
///
/// Returns a message when the scene configuration is rejected or peak
/// memory cannot be read.
pub(crate) fn run(opts: &Opts) -> Result<Report, String> {
    let cfg = config(opts.size);
    cfg.validate().map_err(|e| e.to_string())?;
    let mut t = Timings::default();
    let spec = opts.setup(&mut t.setup_s, || cfg.spec());
    let window = cfg.epoch_for(&spec);
    let mut rep = Report::default();
    rep.notes.push(format!(
        "seed {} ignored: the scale-{} scene is a fixed, seedless spec ({} components)",
        opts.seed,
        cfg.factor,
        spec.component_count()
    ));
    let mut meter = Meter::new(!opts.trace, Profile::Scan);
    let passes: Vec<Pass> = if opts.trace {
        vec![
            pass(&spec, window, &mut meter),
            pass(&spec, window, &mut meter),
        ]
    } else {
        opts.passes(|_| pass(&spec, window, &mut meter))
    };
    let first = passes[0].digests();
    for p in &passes {
        rep.gate.op(p.digests().and_then(|(single, sharded)| {
            if partition_free(&single) != partition_free(&sharded) {
                return Err(format!(
                    "single-domain and sharded digests differ:\n{single}\n{sharded}"
                ));
            }
            if first.as_ref().ok() != Some(&(single, sharded)) {
                return Err("scene digests differ between passes".into());
            }
            Ok(())
        }));
    }
    if let Ok((single, sharded)) = &first {
        rep.digest = stats::digest_of([single, sharded]);
        rep.model.push(format!("scene single-domain {single}"));
        rep.model.push(format!("scene sharded {sharded}"));
    }
    rep.notes
        .push("no reference held for the scene: the model is unvalidated here".into());
    if opts.trace {
        rep.metrics = traced(&cfg, &spec, window, &passes, &mut rep)?;
        return Ok(rep);
    }
    let timed = meter.finish();
    t.passes = passes
        .iter()
        .map(|p| PassTiming::new(p.events() as f64, &timed[p.ops.clone()], |i| i == 0))
        .collect();
    let (metrics, tail) = t.end_to_end()?;
    rep.notes.push(t.summary(
        &tail,
        "one single-domain run (its sharded twin is the check)",
    ));
    rep.metrics = metrics;
    Ok(rep)
}

/// The traced run: the first pass is untraced, the second timed; an
/// observed sharded run (`run_scene_observed`, the call behind
/// `sdds::run_scale_observed`, on the spec set-up built) gives the shard
/// counts.
fn traced(
    cfg: &ScaleSceneConfig,
    spec: &SceneSpec,
    window: SimDuration,
    passes: &[Pass],
    rep: &mut Report,
) -> Result<Vec<Metric>, String> {
    let (plain, timed) = (&passes[0], &passes[1]);
    let (observed, observed_s) = clock(|| run_scene_observed(spec, cfg.shards, window, 1));
    let (result, obs) = observed.map_err(|e| e.to_string())?;
    rep.gate.op(match &timed.sharded {
        Ok(r) if r.digest() == result.digest() => Ok(()),
        _ => Err("observed sharded run differs from the unobserved one".into()),
    });
    let epochs = epoch_imbalance(&obs);
    let shards = obs.len() as f64;
    let stall: u64 = epochs.iter().map(|e| e.stall_events).sum();
    let capacity: f64 = epochs.iter().map(|e| e.max_events as f64 * shards).sum();
    let imbalance = epochs
        .iter()
        .filter(|e| e.total_events > 0)
        .map(|e| e.max_events as f64 * shards / e.total_events as f64)
        .collect::<Vec<_>>();
    let single = timed.single.as_ref().map_err(Clone::clone)?;
    Ok(vec![
        metric("runtime.scene.single_shard_s", timed.single_s, "s"),
        metric("runtime.scene.sharded_s", timed.sharded_s, "s"),
        metric("runtime.scene.events", single.events as f64, "count"),
        metric("runtime.scene.epochs", result.epochs as f64, "count"),
        metric("runtime.scene.messages", result.messages as f64, "count"),
        metric("runtime.scene.shards", result.shards as f64, "count"),
        metric(
            "simkit.shard.barrier_stall_ratio",
            ratio(stall as f64, capacity),
            "ratio",
        ),
        metric(
            "simkit.shard.epoch_imbalance",
            ratio(imbalance.iter().sum(), imbalance.len() as f64),
            "ratio",
        ),
        metric("power.scene.spin_ups", single.spin_ups as f64, "count"),
        metric("power.scene.spin_downs", single.spin_downs as f64, "count"),
        metric(
            "power.scene.disk_requests",
            single.disk_requests as f64,
            "count",
        ),
        metric(
            "trace.span_overhead_ratio",
            ratio(timed.wall_s(), plain.wall_s()),
            "ratio",
        ),
        metric(
            "trace.telemetry_overhead_ratio",
            ratio(observed_s, timed.sharded_s),
            "ratio",
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::partition_free;

    #[test]
    fn partition_free_drops_shards_and_hash() {
        let d =
            "{\"scale\":1.000,\"components\":9,\"shards\":3,\"epoch_us\":4,\"trace_hash\":\"ab\"}";
        assert_eq!(
            partition_free(d),
            "{\"scale\":1.000,\"components\":9,\"epoch_us\":4}"
        );
    }
}
