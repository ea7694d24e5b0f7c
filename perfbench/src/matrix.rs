//! The compile-and-simulate workloads: `paper-matrix` and
//! `sensitivity-sweep`.
//!
//! An untraced pass runs every cell through the program's own entry
//! point, `sdds::run_with`, behind a fresh `CompileCache`. A traced pass
//! needs a timer around each layer, so it makes the same calls itself:
//! `App::program` and trace extraction on a trace miss, the compiler pass
//! (`analyze_slacks`, `SchedulerConfig::schedule`) on a schedule miss,
//! then `Engine::new` and `Engine::run`. The test suite checks that the
//! traced pipeline's outcomes equal `sdds::run_with`'s.

use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

use sdds::cache::{CacheStats, CompileCache, CompiledSchedule, ScheduleKey, TraceKey};
use sdds::metrics::{additional_energy_reduction, energy_savings};
use sdds::{Outcome, SystemConfig};
use sdds_compiler::analyze_slacks;
use sdds_power::PolicyKind;
use sdds_runtime::{CompiledPlan, Engine};
use sdds_workloads::{App, WorkloadScale};

use crate::calib::{Meter, Profile};
use crate::report::{metric, Metric, PassTiming, Report, Timings};
use crate::stats::{self, ratio, timed};
use crate::{Opts, Size};

/// The paper's headline average savings in percent, per strategy (simple,
/// prediction, history, staggered), without and with the scheme.
pub const PAPER_HEADLINE: [[f64; 4]; 2] = [[4.7, 6.3, 15.6, 9.8], [9.4, 14.2, 29.2, 25.9]];

/// δ points of Fig. 13(d).
pub const DELTAS: [u32; 5] = [5, 10, 20, 40, 80];
/// θ points of Fig. 14.
pub const THETAS: [u16; 4] = [2, 4, 6, 8];

/// Phase factor of the sensitivity sweep: small enough for several
/// passes per run, large enough that scheduling dominates host time.
const SWEEP_FACTOR: f64 = 0.25;

/// Which of the two matrix workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 6 apps × (Default + 4 strategies × scheme off/on), paper scale.
    PaperMatrix,
    /// History-based δ and θ points plus one reference per app.
    SensitivitySweep,
}

/// How a pass runs its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `sdds::run_with`, telemetry off: the end-to-end pass.
    Plain,
    /// Every layer call timed, telemetry off.
    Timed,
    /// Every layer call timed, telemetry on (registry counts).
    Telemetry,
}

/// One experiment cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Unique label, e.g. `hf/history-based/on`.
    pub label: String,
    /// The application.
    pub app: App,
    /// The full configuration.
    pub cfg: SystemConfig,
}

/// The workload scale of `kind` at `size`.
pub(crate) fn scale(kind: Kind, size: Size) -> WorkloadScale {
    match (kind, size) {
        (_, Size::Tiny) => WorkloadScale::test(),
        (Kind::PaperMatrix, Size::Full) => WorkloadScale::paper(),
        (Kind::SensitivitySweep, Size::Full) => WorkloadScale {
            factor: SWEEP_FACTOR,
            ..WorkloadScale::paper()
        },
    }
}

/// The cells of `kind` at `scale`, app-major.
pub fn cells(kind: Kind, scale: WorkloadScale) -> Vec<Cell> {
    let mut base = SystemConfig::paper_defaults();
    base.scale = scale;
    let mut out = Vec::new();
    let mut push = |app: App, label: String, cfg: SystemConfig| {
        out.push(Cell {
            label: format!("{}/{label}", app.name()),
            app,
            cfg,
        });
    };
    for app in App::all() {
        match kind {
            Kind::PaperMatrix => {
                push(app, "default".into(), base.with_scheme(false));
                for scheme in [false, true] {
                    for policy in PolicyKind::paper_strategies() {
                        let label = format!("{}/{}", policy.name(), on_off(scheme));
                        push(app, label, base.with_policy(policy).with_scheme(scheme));
                    }
                }
            }
            Kind::SensitivitySweep => {
                let history = base.with_policy(PolicyKind::history_based_default());
                push(app, "history".into(), history.with_scheme(false));
                for d in DELTAS {
                    push(
                        app,
                        format!("delta={d}"),
                        history.with_scheme(true).with_delta(d),
                    );
                }
                for t in THETAS {
                    let cfg = history.with_scheme(true).with_theta(Some(t));
                    push(app, format!("theta={t}"), cfg);
                }
            }
        }
    }
    out
}

fn on_off(scheme: bool) -> &'static str {
    if scheme {
        "on"
    } else {
        "off"
    }
}

/// Host time and counts per layer over one pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Seconds in `App::program` (trace-cache misses only).
    pub program_s: f64,
    /// Seconds in `Program::trace` (trace-cache misses only).
    pub trace_s: f64,
    /// Trace extractions run.
    pub trace_calls: u64,
    /// Seconds in `analyze_slacks`.
    pub slack_s: f64,
    /// Accesses `analyze_slacks` returned.
    pub slack_accesses: u64,
    /// Seconds in `SchedulerConfig::schedule`.
    pub schedule_s: f64,
    /// Scheduling passes run.
    pub schedule_calls: u64,
    /// Accesses the scheduler moved earlier.
    pub moved_earlier: u64,
    /// Seconds in `Engine::new`.
    pub engine_new_s: f64,
    /// Seconds in `Engine::run` without a plan.
    pub plain_s: f64,
    /// Events of those runs.
    pub plain_events: u64,
    /// Seconds in `Engine::run` with a compiled plan.
    pub scheme_s: f64,
    /// Events of those runs.
    pub scheme_events: u64,
}

/// What the registry and the telemetry report of a telemetry pass hold.
#[derive(Debug, Default, Clone, Copy)]
struct Registry {
    read_hits: u64,
    read_misses: u64,
    requests_served: u64,
    spin_ups: u64,
    spin_downs: u64,
    rpm_changes: u64,
    policy_decisions: u64,
}

/// One pass over every cell.
#[derive(Debug)]
struct Pass {
    outcomes: Vec<Result<Outcome, String>>,
    /// One canonical line of model outputs per cell (empty on error).
    lines: Vec<String>,
    /// This pass's cells among the meter's operations.
    ops: Range<usize>,
    events: u64,
    wall_s: f64,
    layers: Layers,
    cache: CacheStats,
    registry: Registry,
}

/// Runs one cell through every layer with a timer around each call,
/// mirroring `sdds::run_with`; `telemetry` switches the engine's registry
/// on.
fn run_cell(
    cell: &Cell,
    cache: &CompileCache,
    telemetry: bool,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    let cfg = &cell.cfg;
    cfg.validate().map_err(|e| e.to_string())?;
    let key = TraceKey {
        app: cell.app,
        scale: cfg.scale,
        granularity: cfg.granularity,
    };
    let trace = cache
        .trace_or_insert(&key, || {
            layers.trace_calls += 1;
            let program = timed(&mut layers.program_s, || cell.app.program(&cfg.scale));
            timed(&mut layers.trace_s, || program.trace(cfg.granularity))
        })
        .map_err(|e| format!("trace: {e}"))?;
    let storage = cfg.storage_config().map_err(|e| e.to_string())?;
    let mut engine = timed(&mut layers.engine_new_s, || {
        Engine::new(cfg.engine.clone(), storage.clone())
    })
    .map_err(|e| e.to_string())?;
    if telemetry {
        engine.enable_telemetry();
    }
    if !cfg.scheme_enabled {
        let result =
            timed(&mut layers.plain_s, || engine.run(&trace, None)).map_err(|e| e.to_string())?;
        layers.plain_events += result.events;
        return Ok(Outcome {
            result,
            analyzed_accesses: 0,
            moved_earlier: 0,
            mean_advance: 0.0,
            compile_seconds: 0.0,
        });
    }
    let schedule_key = ScheduleKey {
        trace: key,
        io_nodes: cfg.io_nodes,
        stripe_bytes: cfg.stripe_bytes,
        scheduler: cfg.scheduler.clone(),
    };
    let compiled = cache.schedule_or_insert(&schedule_key, || {
        let started = Instant::now();
        let accesses = timed(&mut layers.slack_s, || {
            analyze_slacks(&trace, &storage.layout)
        })
        .map_err(|e| format!("slack analysis: {e}"))?;
        let table = timed(&mut layers.schedule_s, || {
            cfg.scheduler.schedule(&accesses, &trace)
        })
        .map_err(|e| format!("schedule: {e}"))?;
        layers.slack_accesses += accesses.len() as u64;
        layers.schedule_calls += 1;
        layers.moved_earlier += table.moved_earlier() as u64;
        Ok::<_, String>(CompiledSchedule {
            compile_seconds: started.elapsed().as_secs_f64(),
            moved_earlier: table.moved_earlier(),
            mean_advance: table.mean_advance(),
            accesses,
            table,
        })
    })?;
    let plan = CompiledPlan::new(&compiled.accesses, &compiled.table);
    let result = timed(&mut layers.scheme_s, || engine.run(&trace, Some(plan)))
        .map_err(|e| e.to_string())?;
    layers.scheme_events += result.events;
    Ok(Outcome {
        result,
        analyzed_accesses: compiled.accesses.len(),
        moved_earlier: compiled.moved_earlier,
        mean_advance: compiled.mean_advance,
        compile_seconds: compiled.compile_seconds,
    })
}

/// The canonical model-output line of one cell: every simulated
/// statistic, floats by their bits.
pub fn model_line(label: &str, o: &Outcome) -> String {
    let r = &o.result;
    let mut s = format!(
        "{label} exec_us={} energy={:016x} events={} bytes={}/{} resp={:016x} moved={} analyzed={} \
         advance={:016x}",
        r.exec_time.as_micros(),
        r.energy_joules.to_bits(),
        r.events,
        r.bytes_moved.0,
        r.bytes_moved.1,
        r.mean_read_response.to_bits(),
        o.moved_earlier,
        o.analyzed_accesses,
        o.mean_advance.to_bits(),
    );
    let b = &r.buffer;
    let p = &r.prefetch;
    let _ = write!(
        s,
        " buffer={},{},{},{},{},{} prefetch={},{},{},{},{}",
        b.admitted,
        b.rejected_full,
        b.hits,
        b.hits_in_flight,
        b.misses,
        b.peak_used,
        p.issued,
        p.deferred_producer,
        p.deferred_full,
        p.became_sync,
        p.timed_out
    );
    for (state, e) in r.energy.iter() {
        let _ = write!(
            s,
            " {state}={:016x}/{}",
            e.joules.to_bits(),
            e.residency.as_micros()
        );
    }
    let _ = write!(s, " idle={:?} finish=", r.idle_histogram.counts());
    for f in &r.per_proc_finish {
        let _ = write!(s, "{},", f.as_micros());
    }
    s
}

/// Invariants every cell outcome must keep.
fn check_cell(o: &Outcome) -> Result<(), String> {
    let r = &o.result;
    if !(r.energy_joules.is_finite() && r.energy_joules > 0.0) {
        return Err(format!("energy {} J is not positive", r.energy_joules));
    }
    let by_state = r.energy.total_joules();
    if (by_state - r.energy_joules).abs() > 1e-9 * r.energy_joules.max(1.0) {
        return Err(format!(
            "per-state energy {by_state} J does not reconcile with {} J",
            r.energy_joules
        ));
    }
    Ok(())
}

fn pass(cells: &[Cell], mode: Mode, meter: &mut Meter) -> Pass {
    let cache = CompileCache::new();
    let mut layers = Layers::default();
    let mut registry = Registry::default();
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut lines = Vec::with_capacity(cells.len());
    let first_op = meter.mark();
    let mut events = 0;
    let started = Instant::now();
    for cell in cells {
        let outcome = meter.op(|| match mode {
            Mode::Plain => sdds::run_with(cell.app, &cell.cfg, &cache).map_err(|e| e.to_string()),
            Mode::Timed => run_cell(cell, &cache, false, &mut layers),
            Mode::Telemetry => run_cell(cell, &cache, true, &mut layers),
        });
        let outcome = outcome.and_then(|mut o| {
            if let Some(t) = o.result.telemetry.take() {
                harvest(&mut registry, &t, o.result.energy_joules, cell.cfg.io_nodes)?;
            }
            check_cell(&o)?;
            Ok(o)
        });
        match &outcome {
            Ok(o) => {
                events += o.result.events;
                lines.push(model_line(&cell.label, o));
            }
            Err(_) => lines.push(String::new()),
        }
        outcomes.push(outcome.map_err(|e| format!("{}: {e}", cell.label)));
    }
    let wall_s = started.elapsed().as_secs_f64();
    Pass {
        outcomes,
        lines,
        ops: first_op..meter.mark(),
        events,
        wall_s,
        layers,
        cache: cache.stats(),
        registry,
    }
}

/// Adds one telemetry report's counts to `reg`, checking that the
/// per-disk energy reconciles with the run's headline joules.
fn harvest(
    reg: &mut Registry,
    t: &sdds::TelemetryReport,
    energy_joules: f64,
    io_nodes: usize,
) -> Result<(), String> {
    let per_disk = t.summary_joules();
    if (per_disk - energy_joules).abs() >= 1e-9 {
        return Err(format!(
            "per-disk telemetry energy {per_disk} J does not reconcile with {energy_joules} J"
        ));
    }
    for n in 0..io_nodes {
        let get = |what: &str| t.metrics.get_counter(&format!("storage.n{n}.cache.{what}"));
        reg.read_hits += get("read_hits").unwrap_or(0);
        reg.read_misses += get("read_misses").unwrap_or(0);
    }
    for d in &t.disks {
        reg.requests_served += d.counters.requests_served;
        reg.spin_ups += d.counters.spin_ups;
        reg.spin_downs += d.counters.spin_downs;
        reg.rpm_changes += d.counters.rpm_changes;
    }
    reg.policy_decisions += t.events.iter().filter(|e| e.kind_tag() == "policy").count() as u64;
    Ok(())
}

/// Runs `kind` and reports its metrics.
///
/// # Errors
///
/// Returns a message when peak memory cannot be read.
pub fn run(kind: Kind, opts: &Opts) -> Result<Report, String> {
    let scale = scale(kind, opts.size);
    let cells = cells(kind, scale);
    let mut t = Timings::default();
    // `run_with` generates each program again on its trace-cache miss, so
    // set-up times the generator alone and each pass pays for it once more.
    opts.setup(&mut t.setup_s, || {
        let programs: Vec<_> = App::all()
            .into_iter()
            .map(|app| app.program(&scale))
            .collect();
        std::hint::black_box(programs);
    });
    let mut rep = Report::default();
    rep.notes.push(format!(
        "seed {} ignored: this workload runs the paper's fixed, seedless programs",
        opts.seed
    ));
    rep.notes.push(format!(
        "{} cells per pass at {} procs, phase factor {}; fresh compile cache each pass",
        cells.len(),
        scale.procs,
        scale.factor
    ));
    if opts.trace {
        let mut meter = Meter::new(false, Profile::Mixed);
        let plain = pass(&cells, Mode::Plain, &mut meter);
        let timed = pass(&cells, Mode::Timed, &mut meter);
        let tele = pass(&cells, Mode::Telemetry, &mut meter);
        gate(&mut rep, &[&plain, &timed, &tele]);
        model(&mut rep, kind, &cells, &plain);
        rep.notes.push(format!(
            "traced run: untraced pass {:.3} s, traced pass {:.3} s, telemetry pass {:.3} s",
            plain.wall_s, timed.wall_s, tele.wall_s
        ));
        rep.metrics = per_layer(&plain, &timed, &tele);
    } else {
        let mut meter = Meter::new(true, Profile::Mixed);
        let passes = opts.passes(|_| pass(&cells, Mode::Plain, &mut meter));
        let refs: Vec<&Pass> = passes.iter().collect();
        gate(&mut rep, &refs);
        model(&mut rep, kind, &cells, &passes[0]);
        let timed = meter.finish();
        t.passes = passes
            .iter()
            .map(|p| PassTiming::new(p.events as f64, &timed[p.ops.clone()], |_| true))
            .collect();
        let (metrics, tail) = t.end_to_end()?;
        rep.notes.push(t.summary(&tail, "one cell"));
        rep.metrics = metrics;
    }
    Ok(rep)
}

/// Counts every cell of every pass as an operation; a cell fails on an
/// error, a broken invariant, or model outputs that differ from the first
/// pass's.
fn gate(rep: &mut Report, passes: &[&Pass]) {
    let first = passes[0];
    for p in passes {
        for (i, outcome) in p.outcomes.iter().enumerate() {
            rep.gate.op(match outcome {
                Err(e) => Err(e.clone()),
                Ok(_) if p.lines[i] != first.lines[i] => {
                    Err(format!("cell {i}: model outputs differ between passes"))
                }
                Ok(_) => Ok(()),
            });
        }
    }
    rep.digest = stats::digest_of(&first.lines);
}

/// Model outputs: every cell's energy and simulated time, the headline
/// or sweep points, and the error against the references the repository
/// holds.
fn model(rep: &mut Report, kind: Kind, cells: &[Cell], p: &Pass) {
    let ok: Vec<Option<&Outcome>> = p.outcomes.iter().map(|o| o.as_ref().ok()).collect();
    for (c, o) in cells.iter().zip(&ok) {
        if let Some(o) = o {
            rep.model.push(format!(
                "cell {} energy_j={:.3} exec_s={:.3}",
                c.label,
                o.result.energy_joules,
                o.result.exec_time.as_secs_f64()
            ));
        }
    }
    if ok.iter().any(Option::is_none) {
        return;
    }
    let outs: Vec<&Outcome> = ok.into_iter().flatten().collect();
    match kind {
        Kind::PaperMatrix => paper_model(rep, cells, &outs),
        Kind::SensitivitySweep => sweep_model(rep, &outs),
    }
}

fn paper_model(rep: &mut Report, cells: &[Cell], outs: &[&Outcome]) {
    let paper_scale = cells
        .first()
        .is_some_and(|c| c.cfg.scale == WorkloadScale::paper());
    // Per app: default, 4 strategies off, 4 strategies on.
    let apps = (outs.len() / 9) as f64;
    let mut savings = [[0.0f64; 4]; 2];
    for (group, cell) in outs.chunks(9).zip(cells.chunks(9)) {
        let default = group[0];
        for s in 0..2 {
            for k in 0..4 {
                savings[s][k] += energy_savings(default, group[1 + 4 * s + k]) / apps;
            }
        }
        let (paper_min, paper_j) = cell[0].app.table3_reference();
        let minutes = default.result.exec_time.as_secs_f64() / 60.0;
        let joules = default.result.energy_joules;
        rep.model.push(format!(
            "table3 {} exec_min={minutes:.3} (paper {paper_min}, error {:+.1}%) energy_j={joules:.1} \
             (paper {paper_j}, error {:+.1}%)",
            cell[0].app.name(),
            (minutes / paper_min - 1.0) * 100.0,
            (joules / paper_j - 1.0) * 100.0
        ));
    }
    let names = ["simple", "prediction", "history", "staggered"];
    for (s, scheme) in ["without", "with"].iter().enumerate() {
        for k in 0..4 {
            rep.model.push(format!(
                "headline {} {scheme}-scheme savings={:.3}% (paper {}%, error {:+.2} points)",
                names[k],
                savings[s][k],
                PAPER_HEADLINE[s][k],
                savings[s][k] - PAPER_HEADLINE[s][k]
            ));
        }
    }
    if !paper_scale {
        rep.notes
            .push("references are paper-scale numbers; this run is not at paper scale".into());
    }
}

fn sweep_model(rep: &mut Report, outs: &[&Outcome]) {
    let per_app = 1 + DELTAS.len() + THETAS.len();
    let apps = outs.len() / per_app;
    let point = |offset: usize| {
        outs.chunks(per_app)
            .map(|g| additional_energy_reduction(g[0], g[offset]))
            .sum::<f64>()
            / apps as f64
    };
    for (i, d) in DELTAS.iter().enumerate() {
        rep.model.push(format!(
            "fig13d delta={d} additional_reduction={:.4}%",
            point(1 + i)
        ));
    }
    for (i, t) in THETAS.iter().enumerate() {
        rep.model.push(format!(
            "fig14 theta={t} additional_reduction={:.4}%",
            point(1 + DELTAS.len() + i)
        ));
    }
    rep.notes.push(
        "no reference held for the sweep points at this phase factor: the model is unvalidated here"
            .into(),
    );
}

fn per_layer(plain: &Pass, timed: &Pass, tele: &Pass) -> Vec<Metric> {
    let l = &timed.layers;
    let c = &timed.cache;
    let r = &tele.registry;
    let sum = |f: fn(&Outcome) -> u64| -> f64 {
        timed.outcomes.iter().flatten().map(f).sum::<u64>() as f64
    };
    let buffer_hits = sum(|o| o.result.buffer.hits);
    let issued = sum(|o| o.result.prefetch.issued);
    let engine_s = |p: &Pass| p.layers.plain_s + p.layers.scheme_s;
    vec![
        metric("workloads.program_s", l.program_s, "s"),
        metric("compiler.trace_s", l.trace_s, "s"),
        metric("compiler.trace_calls", l.trace_calls as f64, "count"),
        metric("compiler.slack_s", l.slack_s, "s"),
        metric("compiler.slack_accesses", l.slack_accesses as f64, "count"),
        metric("compiler.schedule_s", l.schedule_s, "s"),
        metric("compiler.schedule_calls", l.schedule_calls as f64, "count"),
        metric(
            "compiler.schedule_ns_per_access",
            ratio(l.schedule_s * 1e9, l.slack_accesses as f64),
            "ns",
        ),
        metric(
            "compiler.schedule_moved_earlier",
            l.moved_earlier as f64,
            "count",
        ),
        metric("core.cache.trace_hits", c.trace_hits as f64, "count"),
        metric("core.cache.trace_misses", c.trace_misses as f64, "count"),
        metric("core.cache.schedule_hits", c.schedule_hits as f64, "count"),
        metric(
            "core.cache.schedule_misses",
            c.schedule_misses as f64,
            "count",
        ),
        metric("runtime.engine.new_s", l.engine_new_s, "s"),
        metric("runtime.engine.plain_s", l.plain_s, "s"),
        metric("runtime.engine.scheme_s", l.scheme_s, "s"),
        metric("runtime.engine.events", timed.events as f64, "count"),
        metric(
            "runtime.engine.plain_ns_per_event",
            ratio(l.plain_s * 1e9, l.plain_events as f64),
            "ns",
        ),
        metric(
            "runtime.engine.scheme_ns_per_event",
            ratio(l.scheme_s * 1e9, l.scheme_events as f64),
            "ns",
        ),
        metric("runtime.buffer.hits", buffer_hits, "count"),
        metric(
            "runtime.buffer.misses",
            sum(|o| o.result.buffer.misses),
            "count",
        ),
        metric(
            "runtime.buffer.rejected_full",
            sum(|o| o.result.buffer.rejected_full),
            "count",
        ),
        metric("runtime.scheduler.issued", issued, "count"),
        metric(
            "runtime.scheduler.became_sync",
            sum(|o| o.result.prefetch.became_sync),
            "count",
        ),
        metric(
            "runtime.scheduler.timed_out",
            sum(|o| o.result.prefetch.timed_out),
            "count",
        ),
        metric(
            "runtime.scheduler.useful_ratio",
            ratio(buffer_hits, issued),
            "ratio",
        ),
        metric("storage.cache.read_hits", r.read_hits as f64, "count"),
        metric("storage.cache.read_misses", r.read_misses as f64, "count"),
        metric(
            "storage.cache.hit_ratio",
            ratio(r.read_hits as f64, (r.read_hits + r.read_misses) as f64),
            "ratio",
        ),
        metric("disk.requests_served", r.requests_served as f64, "count"),
        metric("disk.spin_ups", r.spin_ups as f64, "count"),
        metric("disk.spin_downs", r.spin_downs as f64, "count"),
        metric("disk.rpm_changes", r.rpm_changes as f64, "count"),
        metric("power.policy_decisions", r.policy_decisions as f64, "count"),
        metric(
            "trace.span_overhead_ratio",
            ratio(timed.wall_s, plain.wall_s),
            "ratio",
        ),
        metric(
            "trace.telemetry_overhead_ratio",
            ratio(engine_s(tele), engine_s(timed)),
            "ratio",
        ),
    ]
}

/// Checks that the traced pipeline gives the same outcome as
/// `sdds::run_with` for `cell`; used by the test suite.
///
/// # Errors
///
/// Returns a message naming the first difference.
pub fn matches_library(cell: &Cell) -> Result<(), String> {
    let ours = run_cell(cell, &CompileCache::new(), false, &mut Layers::default())?;
    let lib =
        sdds::run_with(cell.app, &cell.cfg, &CompileCache::new()).map_err(|e| e.to_string())?;
    let (a, b) = (
        model_line(&cell.label, &ours),
        model_line(&cell.label, &lib),
    );
    if a == b {
        Ok(())
    } else {
        Err(format!("benchmark {a}\nlibrary   {b}"))
    }
}
