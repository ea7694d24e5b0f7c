//! The `objstore-rebuild` workload: the `heavy` fault scenario of the
//! replicated object store, run as routed, unrouted and fault-free twins
//! over a range of seeds starting at `--seed`.

use std::ops::Range;

use sdds_runtime::{run_rebuild, RebuildParams, RebuildResult};
use sdds_storage::Placement;
use simkit::fault::{FaultPlan, FaultSpec};
use simkit::telemetry::TraceSink;

use crate::calib::{Meter, Profile};
use crate::report::{metric, Metric, PassTiming, Report, Timings};
use crate::stats::{self, clock, ratio};
use crate::{Opts, Size};

/// Seeds per pass at full size: enough that the pass time barely depends
/// on which seeds they are.
const SEEDS: u64 = 400;

/// The three twins of one seed, in report order.
pub(crate) const TWINS: [&str; 3] = ["routed", "unrouted", "fault_free"];

/// The twin parameters of one seed: routed, unrouted, fault-free.
pub(crate) fn twins(seed: u64, size: Size) -> Result<[RebuildParams; 3], String> {
    let spec = FaultSpec::scenario("heavy", seed).ok_or("no `heavy` fault scenario")?;
    let routed = match size {
        Size::Full => RebuildParams::paper_default(seed, Some(spec)),
        Size::Tiny => RebuildParams::small(seed, Some(spec)),
    };
    let mut unrouted = routed.clone();
    unrouted.routing = false;
    let mut clean = routed.clone();
    clean.scenario = None;
    clean.inject_failure = false;
    Ok([routed, unrouted, clean])
}

/// One seed's inputs: its twins and the request count its stream holds.
struct Seed {
    twins: [RebuildParams; 3],
    requests: u64,
}

/// One pass over every seed: three twin runs each.
struct Pass {
    /// Per seed, its three twins; emptied once an untraced pass is gated,
    /// so memory stays flat however many passes run.
    results: Vec<[Result<RebuildResult, String>; 3]>,
    twin_s: [f64; 3],
    /// Served requests plus rebuild chunks.
    events: u64,
    /// This pass's twin runs among the meter's operations.
    ops: Range<usize>,
    wall_s: f64,
}

fn pass(seeds: &[Seed], telemetry: bool, meter: &mut Meter) -> Pass {
    let mut twin_s = [0.0; 3];
    let first_op = meter.mark();
    let (results, wall_s) = clock(|| {
        seeds
            .iter()
            .map(|s| {
                std::array::from_fn(|k| {
                    let mut sink = TraceSink::new();
                    let (r, secs) = meter
                        .op(|| clock(|| run_rebuild(&s.twins[k], telemetry.then_some(&mut sink))));
                    twin_s[k] += secs;
                    r.map_err(|e| e.to_string())
                })
            })
            .collect::<Vec<_>>()
    });
    Pass {
        events: results.iter().flatten().flatten().map(work).sum(),
        results,
        twin_s,
        ops: first_op..meter.mark(),
        wall_s,
    }
}

/// Served requests plus rebuild chunks: the work `events_per_s` counts.
fn work(r: &RebuildResult) -> u64 {
    r.reads + r.writes + r.rebuild_chunks
}

/// Checks one seed's twins; returns one outcome per twin.
fn check(seed: &Seed, results: &[Result<RebuildResult, String>; 3]) -> [Result<(), String>; 3] {
    let clean = results[2].as_ref().ok();
    std::array::from_fn(|k| {
        let r = results[k].as_ref().map_err(Clone::clone)?;
        let name = TWINS[k];
        if r.foreground_active_j + r.rebuild_active_j != r.energy.active_j {
            return Err(format!(
                "{name}: foreground + rebuild active joules != active joules"
            ));
        }
        if r.reads + r.writes != seed.requests {
            return Err(format!(
                "{name}: served {} of {} requests",
                r.reads + r.writes,
                seed.requests
            ));
        }
        if k < 2 {
            let Some(c) = clean else {
                return Err(format!("{name}: fault-free twin failed"));
            };
            let same = (r.reads, r.writes, r.bytes_read, r.bytes_written)
                == (c.reads, c.writes, c.bytes_read, c.bytes_written);
            if !same || r.rebuild_done_us.is_none() {
                return Err(format!("{name}: bytes differ from the fault-free twin"));
            }
        }
        Ok(())
    })
}

fn lines(p: &Pass) -> Vec<String> {
    p.results
        .iter()
        .flatten()
        .map(|r| {
            r.as_ref()
                .map_or_else(|e| format!("error {e}"), |r| format!("{r:?}"))
        })
        .collect()
}

/// Runs the workload and reports its metrics.
///
/// # Errors
///
/// Returns a message when the fault scenario is missing, a traced-only
/// call fails, or peak memory cannot be read.
pub(crate) fn run(opts: &Opts) -> Result<Report, String> {
    let n = match opts.size {
        Size::Full => SEEDS,
        Size::Tiny => 3,
    };
    let mut t = Timings::default();
    let seeds = opts.setup(&mut t.setup_s, || {
        (opts.seed..opts.seed.saturating_add(n))
            .map(|seed| {
                let twins = twins(seed, opts.size)?;
                let w = &twins[0].workload;
                std::hint::black_box(w.object_table());
                let requests = w.requests().len() as u64;
                Ok(Seed { twins, requests })
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut rep = Report::default();
    rep.notes.push(format!(
        "seeds {}..{} ({} seeds x 3 twins per pass), heavy fault scenario",
        opts.seed,
        opts.seed.saturating_add(n),
        seeds.len()
    ));
    let mut meter = Meter::new(!opts.trace, Profile::Mixed);
    let mut first: Option<Vec<String>> = None;
    let mut gate = |rep: &mut Report, p: &Pass| {
        let now = lines(p);
        let reference = first.get_or_insert_with(|| {
            model(rep, p);
            rep.digest = stats::digest_of(&now);
            now.clone()
        });
        for (i, (seed, results)) in seeds.iter().zip(&p.results).enumerate() {
            for (k, outcome) in check(seed, results).into_iter().enumerate() {
                let j = 3 * i + k;
                rep.gate.op(outcome.and_then(|()| {
                    if now[j] == reference[j] {
                        Ok(())
                    } else {
                        Err(format!(
                            "seed {} {}: outputs differ between passes",
                            opts.seed + i as u64,
                            TWINS[k]
                        ))
                    }
                }));
            }
        }
    };
    if opts.trace {
        // The first pass warms caches and the allocator up; the next
        // three are the untraced, timed and trace-sink passes.
        let passes: Vec<Pass> = [false, false, false, true]
            .into_iter()
            .map(|telemetry| pass(&seeds, telemetry, &mut meter))
            .collect();
        for p in &passes {
            gate(&mut rep, p);
        }
        rep.metrics = traced(&t, &seeds, &passes)?;
        return Ok(rep);
    }
    let passes = opts.passes(|_| {
        let mut p = pass(&seeds, false, &mut meter);
        gate(&mut rep, &p);
        p.results = Vec::new();
        p
    });
    let timed = meter.finish();
    t.passes = passes
        .iter()
        .map(|p| PassTiming::new(p.events as f64, &timed[p.ops.clone()], |_| true))
        .collect();
    let (metrics, tail) = t.end_to_end()?;
    rep.notes.push(t.summary(
        &tail,
        "one twin run; events are served requests plus rebuild chunks",
    ));
    rep.metrics = metrics;
    Ok(rep)
}

/// Model outputs: read tails of the routed and unrouted twins, the share
/// of seeds where routing wins, and energy.
fn model(rep: &mut Report, p: &Pass) {
    let ok: Vec<[&RebuildResult; 3]> = p
        .results
        .iter()
        .filter_map(|[a, b, c]| Some([a.as_ref().ok()?, b.as_ref().ok()?, c.as_ref().ok()?]))
        .collect();
    let p99 = |k: usize| {
        stats::median(
            &ok.iter()
                .map(|r| r[k].read_p99_us as f64)
                .collect::<Vec<_>>(),
        )
    };
    let wins = ok
        .iter()
        .filter(|r| r[0].read_p99_us < r[1].read_p99_us)
        .count();
    let energy: f64 = ok.iter().flatten().map(|r| r.energy.total()).sum();
    rep.model.push(format!(
        "objstore median read p99 routed={:.0}us unrouted={:.0}us fault_free={:.0}us",
        p99(0),
        p99(1),
        p99(2)
    ));
    rep.model.push(format!(
        "objstore routing-win share={:.4} ({wins} of {} seeds); total energy_j={energy:.3}",
        ratio(wins as f64, ok.len() as f64),
        ok.len()
    ));
    rep.notes.push(
        "no reference held for the object store: the model is unvalidated here; routing wins \
         are a model output, not a gate"
            .into(),
    );
}

/// Per-layer metrics from a traced run: passes are untraced, timed, and
/// with a trace sink attached.
fn traced(t: &Timings, seeds: &[Seed], passes: &[Pass]) -> Result<Vec<Metric>, String> {
    let (plain, timed, sink) = (&passes[1], &passes[2], &passes[3]);
    let (mut placement_s, mut plan_s) = (0.0, 0.0);
    for s in seeds {
        let p = &s.twins[0];
        let objects = p.workload.object_table();
        let (placement, secs) = clock(|| Placement::build(&p.placement, &objects));
        placement_s += secs;
        let disks = placement.map_err(|e| e.to_string())?.disk_count();
        let spec = p
            .scenario
            .as_ref()
            .ok_or("routed twin has no fault scenario")?;
        let sectors = p.placement.disk_capacity / 512;
        let (plan, secs) = clock(|| FaultPlan::generate(spec, 1, disks, sectors));
        plan_s += secs;
        std::hint::black_box(plan);
    }
    let all: Vec<&RebuildResult> = timed.results.iter().flatten().flatten().collect();
    let sum = |f: fn(&RebuildResult) -> u64| all.iter().map(|r| f(r)).sum::<u64>() as f64;
    let total = |p: &Pass| p.twin_s.iter().sum::<f64>();
    Ok(vec![
        metric("workloads.objstore_gen_s", stats::median(&t.setup_s), "s"),
        metric("power.scene.spin_ups", sum(|r| r.spin_ups), "count"),
        metric("power.scene.spin_downs", sum(|r| r.spin_downs), "count"),
        metric("power.scene.disk_requests", sum(work), "count"),
        metric("runtime.rebuild.routed_s", timed.twin_s[0], "s"),
        metric("runtime.rebuild.unrouted_s", timed.twin_s[1], "s"),
        metric("runtime.rebuild.fault_free_s", timed.twin_s[2], "s"),
        metric(
            "runtime.rebuild.requests",
            sum(|r| r.reads + r.writes),
            "count",
        ),
        metric(
            "runtime.rebuild.routed_skips",
            sum(|r| r.routed_skips),
            "count",
        ),
        metric(
            "runtime.rebuild.transient_retries",
            sum(|r| r.transient_retries),
            "count",
        ),
        metric("runtime.rebuild.deferred", sum(|r| r.deferred), "count"),
        metric("runtime.rebuild.chunks", sum(|r| r.rebuild_chunks), "count"),
        metric(
            "runtime.rebuild.skipped_ticks",
            sum(|r| r.rebuild_skipped_ticks),
            "count",
        ),
        metric("storage.placement.build_s", placement_s, "s"),
        metric("simkit.fault.plan_s", plan_s, "s"),
        metric(
            "trace.span_overhead_ratio",
            ratio(timed.wall_s, plain.wall_s),
            "ratio",
        ),
        metric(
            "trace.telemetry_overhead_ratio",
            ratio(total(sink), total(timed)),
            "ratio",
        ),
    ])
}
