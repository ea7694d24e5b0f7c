//! Prefetch parity: the scheduler threads' deferral paths, pinned
//! bit-for-bit against a committed fixture.
//!
//! `golden_parity` runs with the paper's 128 MiB buffer, where no
//! prefetch is ever deferred. This fixture starves the buffer instead, so
//! the walk over deferred prefetches (buffer-full retries, producer-gated
//! retries, ranges another scheduler thread already fetched) decides
//! every cell:
//!
//! * every app × paper strategy with the scheme on, at test scale, with a
//!   1 MiB or 4 MiB buffer and a minimum prefetch advance of 1 or 12;
//! * engine-level programs whose reads wait on a remote producer, or that
//!   read one range shared by every process, on 2- and 3-stripe buffers.
//!
//! The fixture was captured from the engine that walks every deferred
//! prefetch at every slot start. Regenerate deliberately with:
//!
//! ```text
//! SDDS_REGEN_GOLDEN=1 cargo test -p sdds --test prefetch_parity
//! ```

mod common;

use std::path::PathBuf;

use sdds::{run, SystemConfig};
use sdds_compiler::ir::{ExprBuilder, IoDirection, Program};
use sdds_compiler::{analyze_slacks, SchedulerConfig, SlotGranularity};
use sdds_power::PolicyKind;
use sdds_runtime::{CompiledPlan, Engine, EngineConfig, RunResult};
use sdds_storage::{FileId, StorageConfig};
use sdds_workloads::{App, WorkloadScale};
use simkit::SimDuration;

const MIB: u64 = 1024 * 1024;
const STRIPE: u64 = 64 * 1024;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("prefetch_parity.txt")
}

/// One cell: its identifying tokens, then every simulated metric.
fn cell_line(app: &str, policy: &str, buffer: u64, advance: u32, r: &RunResult) -> String {
    format!(
        "app={app} policy={policy} scheme=1 buffer={buffer} advance={advance} {}",
        common::result_tokens(r)
    )
}

fn app_lines(lines: &mut Vec<String>) {
    for app in App::all() {
        for policy in PolicyKind::paper_strategies() {
            for buffer in [MIB, 4 * MIB] {
                for advance in [1, 12] {
                    let mut cfg = SystemConfig {
                        scale: WorkloadScale::test(),
                        ..SystemConfig::paper_defaults()
                    }
                    .with_policy(policy.clone())
                    .with_scheme(true);
                    cfg.engine.buffer_capacity = buffer;
                    cfg.engine.min_prefetch_advance = advance;
                    let o = run(app, &cfg)
                        .unwrap_or_else(|e| panic!("{} under {}: {e}", app.name(), policy.name()));
                    lines.push(cell_line(
                        app.name(),
                        policy.name(),
                        buffer,
                        advance,
                        &o.result,
                    ));
                }
            }
        }
    }
}

/// Each process writes its own blocks, then reads the blocks of the
/// process after it. Process `p` first spends `p · lead` slots of compute,
/// so a consumer reaches the start of a read's slack (one slot after the
/// producing write, counted in the producer's slots) long before its
/// producer has written: the prefetch waits on the producer.
fn producer_program(nprocs: usize, blocks: i64, lead: i64) -> Program {
    let span = blocks * STRIPE as i64;
    let mut p = Program::new("producer", nprocs);
    let f = p.add_file(FileId(0), STRIPE * (nprocs as u64 + 1) * blocks as u64);
    p.push_loop("s", 0, 0, move |b| {
        b.loop_expr(
            "w",
            ExprBuilder::new().build(),
            ExprBuilder::new().term("p", lead).plus(-1).build(),
            |b| b.compute(SimDuration::from_millis(20)),
        );
    });
    p.push_loop("i", 0, blocks - 1, move |b| {
        b.io(
            IoDirection::Write,
            f,
            |e| e.term("i", STRIPE as i64).term("p", span),
            STRIPE,
        );
        b.compute(SimDuration::from_millis(1));
    });
    p.push_skip(blocks as u32, SimDuration::from_millis(5));
    // Process p reads process p + 1's blocks; the last process reads a
    // region nobody writes (input data, no producer).
    p.push_loop("j", 0, blocks - 1, move |b| {
        b.io(
            IoDirection::Read,
            f,
            |e| e.term("j", STRIPE as i64).term("p", span).plus(span),
            STRIPE,
        );
        b.compute(SimDuration::from_millis(1));
    });
    p
}

/// Every process reads the same blocks after an I/O-free warm-up, so
/// the scheduler threads race to fetch one range each slot.
fn shared_program(nprocs: usize, blocks: i64) -> Program {
    let mut p = Program::new("shared", nprocs);
    let f = p.add_file(FileId(0), STRIPE * blocks as u64);
    p.push_skip(blocks as u32, SimDuration::from_millis(5));
    p.push_loop("i", 0, blocks - 1, move |b| {
        b.io(IoDirection::Read, f, |e| e.term("i", STRIPE as i64), STRIPE);
        b.compute(SimDuration::from_millis(5));
    });
    p
}

fn engine_lines(lines: &mut Vec<String>) {
    let programs = [
        producer_program(2, 12, 8),
        producer_program(3, 12, 8),
        shared_program(3, 16),
        shared_program(4, 16),
    ];
    let policies = [PolicyKind::NoPm, PolicyKind::staggered_default()];
    for program in &programs {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        for policy in &policies {
            let storage = StorageConfig::paper_defaults(policy.clone());
            let accesses = analyze_slacks(&trace, &storage.layout).unwrap();
            let table = SchedulerConfig::paper_defaults()
                .schedule(&accesses, &trace)
                .unwrap();
            for buffer in [2 * STRIPE, 3 * STRIPE] {
                for advance in [1, 12] {
                    let mut cfg = EngineConfig::paper_defaults();
                    cfg.buffer_capacity = buffer;
                    cfg.min_prefetch_advance = advance;
                    let r = Engine::new(cfg, storage.clone())
                        .unwrap()
                        .run(&trace, Some(CompiledPlan::new(&accesses, &table)))
                        .unwrap();
                    let name = format!("{}-p{}", program.name(), trace.processes.len());
                    lines.push(cell_line(&name, policy.name(), buffer, advance, &r));
                }
            }
        }
    }
}

fn current_cells() -> Vec<String> {
    let mut lines = Vec::new();
    app_lines(&mut lines);
    engine_lines(&mut lines);
    lines
}

#[test]
fn deferral_paths_match_committed_fixture() {
    let Some(expected) = common::check_fixture(
        &fixture_path(),
        "# Prefetch parity fixture: buffer-starved scheme-on cells.\n\
         # Regenerate with SDDS_REGEN_GOLDEN=1 cargo test -p sdds --test prefetch_parity\n",
        &current_cells(),
        &["app", "policy", "buffer", "advance"],
    ) else {
        return;
    };
    // The fixture must reach both deferral paths, or it pins nothing.
    for counter in ["deferred_full", "deferred_producer"] {
        assert!(
            expected.values().any(|m| m[counter] != "0"),
            "no fixture cell has {counter}>0"
        );
    }
}
