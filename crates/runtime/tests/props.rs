//! Property tests for the execution engine: random programs must run to
//! completion correctly with and without the software scheme.

use proptest::prelude::*;
use sdds_compiler::ir::{ExprBuilder, IoDirection, Program};
use sdds_compiler::{analyze_slacks, SchedulerConfig, SlotGranularity};
use sdds_power::PolicyKind;
use sdds_runtime::{CompiledPlan, Engine, EngineConfig};
use sdds_storage::{FileId, StorageConfig};
use simkit::SimDuration;

const STRIPE: i64 = 64 * 1024;

/// Random phased program: writes, a gap, reads of a shifted region, with
/// arbitrary interleaved compute.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        1usize..4, // procs
        1i64..8,   // blocks
        0u32..4,   // gap slots
        0i64..2,   // read shift
        1u64..40,  // compute ms
    )
        .prop_map(|(procs, blocks, gap, shift, compute)| {
            let blk = 2 * STRIPE;
            let span = blocks * blk + STRIPE;
            let mut p = Program::new("prop-engine", procs);
            let f = p.add_file(
                FileId(0),
                ((procs as i64) * span + (blocks + shift) * blk + blk) as u64,
            );
            p.push_loop("i", 0, blocks - 1, move |b| {
                b.io(
                    IoDirection::Write,
                    f,
                    |e| e.term("p", span).term("i", blk),
                    blk as u64,
                );
                b.compute(SimDuration::from_millis(compute));
            });
            if gap > 0 {
                p.push_skip(gap, SimDuration::from_millis(100));
            }
            p.push_loop("j", 0, blocks - 1, move |b| {
                b.io(
                    IoDirection::Read,
                    f,
                    |e| e.term("p", span).term("j", blk).plus(shift * blk),
                    blk as u64,
                );
                b.compute(SimDuration::from_millis(compute));
            });
            p
        })
}

/// Random contended program for the scheduler threads: process `p`
/// first computes for `p · lead` slots, writes its own blocks, idles
/// `gap` slots, then reads the blocks of process `p + 1` (producer-gated
/// while that process lags; the last process reads unwritten input) and,
/// when `shared`, one block of an input region that every process reads.
fn arb_contended() -> impl Strategy<Value = Program> {
    (
        1usize..7, // procs
        2i64..10,  // blocks
        0i64..4,   // lead slots per process index
        0u32..12,  // gap slots
        any::<bool>(),
        1u64..20, // compute ms
    )
        .prop_map(|(procs, blocks, lead, gap, shared, compute)| {
            let blk = STRIPE;
            let span = blocks * blk;
            let mut p = Program::new("prop-contended", procs);
            // Per-process regions, one spare region for the last
            // process's reads, then the shared input region.
            let input = (procs as i64 + 1) * span;
            let f = p.add_file(FileId(0), (input + span) as u64);
            if lead > 0 {
                p.push_loop("s", 0, 0, move |b| {
                    b.loop_expr(
                        "w",
                        ExprBuilder::new().build(),
                        ExprBuilder::new().term("p", lead).plus(-1).build(),
                        |b| b.compute(SimDuration::from_millis(compute)),
                    );
                });
            }
            p.push_loop("i", 0, blocks - 1, move |b| {
                b.io(
                    IoDirection::Write,
                    f,
                    |e| e.term("p", span).term("i", blk),
                    blk as u64,
                );
                b.compute(SimDuration::from_millis(compute));
            });
            if gap > 0 {
                p.push_skip(gap, SimDuration::from_millis(compute));
            }
            p.push_loop("j", 0, blocks - 1, move |b| {
                b.io(
                    IoDirection::Read,
                    f,
                    |e| e.term("p", span).term("j", blk).plus(span),
                    blk as u64,
                );
                if shared {
                    b.io(
                        IoDirection::Read,
                        f,
                        |e| e.term("j", blk).plus(input),
                        blk as u64,
                    );
                }
                b.compute(SimDuration::from_millis(compute));
            });
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scheduler threads on a 1–4-stripe buffer, racing for shared ranges
    /// and waiting on lagging producers, still move exactly the
    /// program's bytes. In debug builds every skip over settled deferred
    /// prefetches also re-checks that each skipped entry could only have
    /// waited for room.
    #[test]
    fn starved_buffer_conserves_bytes(
        program in arb_contended(),
        stripes in 1u64..5,
        advance in prop_oneof![Just(1u32), Just(12u32)],
    ) {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let (reads, writes) = trace.bytes_moved();
        let storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
        let accesses = analyze_slacks(&trace, &storage.layout).unwrap();
        let table = SchedulerConfig::paper_defaults().schedule(&accesses, &trace).unwrap();
        let mut cfg = EngineConfig::paper_defaults();
        cfg.buffer_capacity = stripes * STRIPE as u64;
        cfg.min_prefetch_advance = advance;
        let run = || {
            Engine::new(cfg.clone(), storage.clone())
                .unwrap()
                .run(&trace, Some(CompiledPlan::new(&accesses, &table)))
                .unwrap()
        };
        let r = run();
        prop_assert_eq!(r.bytes_moved, (reads, writes));
        prop_assert_eq!(r.per_proc_finish.len(), trace.processes.len());
        prop_assert!(r.buffer.peak_used <= cfg.buffer_capacity);
        prop_assert_eq!(r.prefetch, run().prefetch);
    }

    /// The engine terminates, moves exactly the program's bytes, finishes
    /// every process, and the scheme preserves the application-visible I/O
    /// volume.
    #[test]
    fn engine_terminates_and_conserves(program in arb_program(), buffer_kb in 64u64..4_096) {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let (reads, writes) = trace.bytes_moved();

        let storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
        let plain = Engine::new(EngineConfig::paper_defaults(), storage.clone()).unwrap().run(&trace, None).unwrap();
        prop_assert_eq!(plain.bytes_moved, (reads, writes));
        prop_assert_eq!(plain.per_proc_finish.len(), trace.processes.len());

        let accesses = analyze_slacks(&trace, &storage.layout).unwrap();
        let table = SchedulerConfig::paper_defaults().schedule(&accesses, &trace).unwrap();
        let mut cfg = EngineConfig::paper_defaults();
        cfg.buffer_capacity = buffer_kb * 1024;
        cfg.min_prefetch_advance = 1;
        let schemed = Engine::new(cfg.clone(), storage).unwrap().run(&trace, Some(CompiledPlan::new(&accesses, &table))).unwrap();
        prop_assert_eq!(schemed.bytes_moved, (reads, writes));
        prop_assert!(schemed.buffer.peak_used <= cfg.buffer_capacity);
        // Prefetch bookkeeping is consistent: every admitted entry is
        // eventually hit, missed (became sync), or still resident.
        prop_assert!(schemed.buffer.hits + schemed.buffer.hits_in_flight <= schemed.prefetch.issued + schemed.buffer.misses);
    }

    /// Engine runs are reproducible bit-for-bit.
    #[test]
    fn engine_is_deterministic(program in arb_program()) {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let run = || {
            let storage = StorageConfig::paper_defaults(PolicyKind::staggered_default());
            let accesses = analyze_slacks(&trace, &storage.layout).unwrap();
            let table = SchedulerConfig::paper_defaults().schedule(&accesses, &trace).unwrap();
            let r = Engine::new(EngineConfig::paper_defaults(), storage)
                .unwrap()
                .run(&trace, Some(CompiledPlan::new(&accesses, &table)))
                .unwrap();
            (r.exec_time, r.energy_joules.to_bits(), r.buffer.hits)
        };
        prop_assert_eq!(run(), run());
    }

    /// Execution time with the scheme never regresses catastrophically:
    /// prefetching may add queueing, but the run must stay within a small
    /// factor of the unscheduled run (liveness against pathological
    /// schedules).
    #[test]
    fn scheme_execution_stays_bounded(program in arb_program()) {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let storage = StorageConfig::paper_defaults(PolicyKind::NoPm);
        let plain = Engine::new(EngineConfig::paper_defaults(), storage.clone()).unwrap().run(&trace, None).unwrap();
        let accesses = analyze_slacks(&trace, &storage.layout).unwrap();
        let table = SchedulerConfig::paper_defaults().schedule(&accesses, &trace).unwrap();
        let schemed = Engine::new(EngineConfig::paper_defaults(), storage)
            .unwrap()
            .run(&trace, Some(CompiledPlan::new(&accesses, &table)))
            .unwrap();
        let a = plain.exec_time.as_secs_f64();
        let b = schemed.exec_time.as_secs_f64();
        prop_assert!(b <= a * 3.0 + 1.0, "scheme blew up execution: {a} -> {b}");
    }
}
