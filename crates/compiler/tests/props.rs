//! Property tests for the compiler: signature metric laws, slack analysis
//! against brute force, scheduling invariants on random programs, and the
//! scheduler against a naive Fig. 11 oracle on hand-built access sets.

use proptest::prelude::*;
use sdds_compiler::ir::{IoCallId, IoDirection, Program};
use sdds_compiler::reuse::{GroupState, WeightFn};
use sdds_compiler::{
    analyze_slacks, IoInstance, ProcessTrace, ProgramTrace, SchedulableAccess, ScheduleTable,
    ScheduledIo, SchedulerConfig, Signature, SlotGranularity,
};
use sdds_storage::{FileId, NodeSet, StripingLayout};
use simkit::{DetRng, SimDuration};

const STRIPE: i64 = 64 * 1024;

/// A random two-phase program: a write pass over per-process blocks, an
/// optional compute gap, then a read pass over a (possibly shifted) region.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        1usize..5, // procs
        1i64..12,  // blocks per proc
        0u32..6,   // gap slots
        0i64..3,   // read shift (blocks), may create partial overlap
        1i64..4,   // block size in stripes
    )
        .prop_map(|(procs, blocks, gap, shift, stripes)| {
            let blk = stripes * STRIPE;
            let span = blocks * blk + STRIPE;
            let mut p = Program::new("prop", procs);
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
                b.compute(SimDuration::from_millis(5));
            });
            if gap > 0 {
                p.push_skip(gap, SimDuration::from_millis(20));
            }
            p.push_loop("j", 0, blocks - 1, move |b| {
                b.io(
                    IoDirection::Read,
                    f,
                    |e| e.term("p", span).term("j", blk).plus(shift * blk),
                    blk as u64,
                );
                b.compute(SimDuration::from_millis(5));
            });
            p
        })
}

proptest! {
    /// The paper's distance metric: bounds, symmetry, and the identity
    /// distance(g, g) = n − |g|.
    #[test]
    fn distance_metric_laws(
        xs in prop::collection::btree_set(0usize..16, 0..10),
        ys in prop::collection::btree_set(0usize..16, 0..10),
    ) {
        let a = Signature::new(NodeSet::from_nodes(xs.iter().copied()), 16);
        let b = Signature::new(NodeSet::from_nodes(ys.iter().copied()), 16);
        prop_assert_eq!(a.distance(&b), b.distance(&a));
        prop_assert_eq!(a.distance(&a), 16 - xs.len());
        // distance = n − similarity + difference, with the components
        // recomputed from raw sets.
        let sim = xs.intersection(&ys).count();
        let diff = xs.symmetric_difference(&ys).count();
        prop_assert_eq!(a.distance(&b), 16 - sim + diff);
        // Bounds: [n − min(|a|,|b|), n + |a| + |b|].
        let d = a.distance(&b);
        prop_assert!(d >= 16 - xs.len().min(ys.len()));
        prop_assert!(d <= 16 + xs.len() + ys.len());
    }

    /// Slack analysis agrees with a brute-force scan over all writes.
    #[test]
    fn slack_matches_brute_force(program in arb_program()) {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let layout = StripingLayout::paper_defaults();
        let accesses = analyze_slacks(&trace, &layout).unwrap();
        let all: Vec<_> = trace.all_ios().collect();
        for a in &accesses {
            if !a.is_read() {
                prop_assert_eq!(a.begin, a.io.slot);
                prop_assert_eq!(a.end, a.io.slot);
                continue;
            }
            // Brute force: last overlapping write strictly before the read.
            let brute = all
                .iter()
                .filter(|w| {
                    w.direction == IoDirection::Write
                        && w.overlaps(&a.io)
                        && w.slot < a.io.slot
                })
                .map(|w| w.slot)
                .max();
            match brute {
                Some(w) => {
                    prop_assert_eq!(
                        a.producer.map(|p| p.1), Some(w),
                        "producer mismatch for read at slot {}", a.io.slot
                    );
                    prop_assert_eq!(a.begin, (w + 1).min(trace.total_slots - 1));
                    prop_assert_eq!(a.end, a.io.slot.max(a.begin));
                }
                None => {
                    // Either unproduced (prefix slack) or a future writer
                    // (negative slack).
                    if a.producer.is_none() {
                        prop_assert_eq!(a.begin, 0);
                        prop_assert_eq!(a.end, a.io.slot);
                    } else {
                        let (_, w) = a.producer.unwrap();
                        prop_assert!(w >= a.io.slot, "future producer expected");
                        prop_assert_eq!(a.begin, a.end);
                    }
                }
            }
        }
    }

    /// Scheduling invariants hold for every random program under both the
    /// unconstrained and the θ-bounded algorithms.
    #[test]
    fn schedule_invariants(program in arb_program(), theta in 1u16..5) {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let layout = StripingLayout::paper_defaults();
        let accesses = analyze_slacks(&trace, &layout).unwrap();
        for config in [
            SchedulerConfig::without_theta(),
            SchedulerConfig {
                theta: Some(theta),
                ..SchedulerConfig::paper_defaults()
            },
        ] {
            let table = config.schedule(&accesses, &trace).unwrap();
            prop_assert_eq!(table.scheduled_count(), accesses.len());
            for a in &accesses {
                let slot = table.point_of(a.index);
                prop_assert!(
                    slot >= a.begin && slot <= a.end,
                    "access {} at {} outside slack [{}, {}]",
                    a.index, slot, a.begin, a.end
                );
                if !a.movable {
                    prop_assert_eq!(slot, a.io.slot);
                }
            }
            // One movable access per slot per process (fixed accesses and
            // the saturation fallback may legitimately collide).
            for proc in 0..trace.processes.len() {
                let mut seen = std::collections::HashSet::new();
                for e in table.for_process(proc) {
                    if accesses[e.access_index].movable {
                        prop_assert!(
                            seen.insert(e.slot),
                            "process {proc} has two movable accesses at slot {}",
                            e.slot
                        );
                    }
                }
            }
        }
    }

    /// The same seed yields the same schedule; the scheduler is a pure
    /// function of (accesses, trace, config).
    #[test]
    fn schedule_deterministic(program in arb_program()) {
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let layout = StripingLayout::paper_defaults();
        let accesses = analyze_slacks(&trace, &layout).unwrap();
        let config = SchedulerConfig::paper_defaults();
        let a = config.schedule(&accesses, &trace).unwrap();
        let b = config.schedule(&accesses, &trace).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Traces are invariant to the interpreter pass count and respect the
    /// declared granularity: grouped slots never exceed unit slots.
    #[test]
    fn granularity_coarsens_monotonically(program in arb_program(), d in 2u32..5) {
        let unit = program.trace(SlotGranularity::unit()).unwrap();
        let grouped = program.trace(SlotGranularity::grouped(d)).unwrap();
        prop_assert!(grouped.total_slots <= unit.total_slots);
        prop_assert_eq!(grouped.io_count(), unit.io_count());
        // Grouped slots map each instance to slot/d.
        for (u, g) in unit.all_ios().zip(grouped.all_ios()) {
            prop_assert_eq!(g.slot, u.slot / d);
        }
    }
}

proptest! {
    /// The symbolic (Omega-path) producer analysis agrees with the
    /// trace-based profiling path on every supported random program.
    #[test]
    fn symbolic_matches_profiling(program in arb_program()) {
        use sdds_compiler::symbolic::SymbolicAnalysis;
        use sdds_compiler::polyhedral::ProducerIndex;
        // arb_program produces flat two-phase loops: always supported.
        let sym = SymbolicAnalysis::try_new(&program).expect("supported shape");
        let trace = program.trace(SlotGranularity::unit()).unwrap();
        let idx = ProducerIndex::build(&trace);
        for io in trace.all_ios() {
            if io.direction != IoDirection::Read {
                continue;
            }
            prop_assert_eq!(
                sym.last_writer_before(io),
                idx.last_exact_writer_before(io).map(|(s, q)| (q, s)),
                "last-writer mismatch at slot {}", io.slot
            );
            prop_assert_eq!(
                sym.first_writer_at_or_after(io),
                idx.first_exact_writer_at_or_after(io).map(|(s, q)| (q, s)),
                "first-writer mismatch at slot {}", io.slot
            );
        }
    }
}

/// Fig. 11 written out naively: every candidate slot is scored from
/// scratch with the public [`GroupState::reuse_factor`], θ is checked in
/// a stable descending sort of the scores, and ties are broken with the
/// scheduler's `DetRng` stream. Returns the chosen slot per access index.
fn oracle_points(
    cfg: &SchedulerConfig,
    accesses: &[SchedulableAccess],
    total_slots: u32,
    nprocs: usize,
) -> Vec<u32> {
    /// A uniformly random slot among those with the maximum score.
    fn choose_max(candidates: &[(u32, f64)], rng: &mut DetRng) -> u32 {
        let best = candidates
            .iter()
            .map(|&(_, r)| r)
            .fold(f64::NEG_INFINITY, f64::max);
        let ties: Vec<u32> = candidates
            .iter()
            .filter(|&&(_, r)| r == best)
            .map(|&(t, _)| t)
            .collect();
        *rng.choose(&ties).expect("a candidate")
    }

    let mut points = vec![0; accesses.len()];
    let Some(first) = accesses.first() else {
        return points;
    };
    let mut state = GroupState::new(first.signature.width(), total_slots, nprocs);
    let mut rng = DetRng::new(cfg.seed);
    for a in accesses.iter().filter(|a| !a.movable) {
        state.place(a.io.proc, a.begin, a.io.length, &a.signature);
        points[a.index] = a.begin;
    }
    let mut order: Vec<&SchedulableAccess> = accesses.iter().filter(|a| a.movable).collect();
    order.sort_by_key(|a| (a.slack_len(), a.index));
    for a in order {
        let (sig, len) = (&a.signature, a.io.length);
        let last_start = total_slots.saturating_sub(len).min(a.end);
        let hi = last_start.max(a.begin);
        let span = (hi - a.begin + 1) as usize;
        let mut slots: Vec<u32> = match cfg.max_candidates {
            Some(cap) if span > cap => {
                let step = (span - 1) as f64 / (cap - 1) as f64;
                (0..cap)
                    .map(|k| (a.begin + (k as f64 * step).round() as u32).min(hi))
                    .collect()
            }
            _ => (a.begin..=hi).collect(),
        };
        slots.dedup();
        let candidates: Vec<(u32, f64)> = slots
            .into_iter()
            .filter(|&t| !state.occupied(a.io.proc, t, len))
            .map(|t| (t, state.reuse_factor(sig, t, len, cfg.delta, &cfg.weights)))
            .collect();
        let slot = if candidates.is_empty() {
            a.io.slot.min(hi)
        } else if let Some(theta) = cfg.theta {
            let mut sorted = candidates.clone();
            sorted.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite scores"));
            let eligible = |t: u32| state.theta_ok(sig, t, len, theta);
            match sorted.iter().find(|&&(t, _)| eligible(t)) {
                Some(&(_, best)) => {
                    let ties: Vec<(u32, f64)> = sorted
                        .iter()
                        .filter(|&&(t, r)| r == best && eligible(t))
                        .copied()
                        .collect();
                    choose_max(&ties, &mut rng)
                }
                None => {
                    let costed: Vec<(u32, f64)> = candidates
                        .iter()
                        .map(|&(t, _)| (t, -state.overflow_cost(sig, t, len, theta)))
                        .collect();
                    choose_max(&costed, &mut rng)
                }
            }
        } else {
            choose_max(&candidates, &mut rng)
        };
        state.place(a.io.proc, slot, len, sig);
        points[a.index] = slot;
    }
    points
}

/// A seed-determined set of hand-built accesses over `width` I/O nodes.
/// With `palette == 0` every access draws a fresh random node set (so a
/// large set has many distinct signatures); otherwise signatures come from
/// `palette` fixed node sets, so scores are shared and invalidated often.
/// About one access in eight is fixed (a write, or a one-slot slack).
fn arb_accesses(
    seed: u64,
    count: usize,
    nprocs: usize,
    total_slots: u32,
    width: usize,
    palette: usize,
    max_length: u32,
) -> Vec<SchedulableAccess> {
    let mut rng = DetRng::new(seed);
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    let random_set = |rng: &mut DetRng| {
        let bits = rng.next_u64() & mask;
        NodeSet::from_nodes((0..width).filter(|n| (bits >> n) & 1 == 1))
    };
    let sets: Vec<NodeSet> = (0..palette).map(|_| random_set(&mut rng)).collect();
    (0..count)
        .map(|index| {
            let nodes = match sets.len() {
                0 => random_set(&mut rng),
                n => sets[rng.index(n)],
            };
            let proc = rng.index(nprocs);
            let begin = rng.index(total_slots as usize) as u32;
            let fixed = rng.index(8) == 0;
            let end = if fixed {
                begin
            } else {
                let room = (total_slots - begin) as usize;
                begin + rng.index(room) as u32
            };
            let direction = if fixed && rng.index(2) == 0 {
                IoDirection::Write
            } else {
                IoDirection::Read
            };
            SchedulableAccess {
                index,
                io: IoInstance {
                    call: IoCallId(index as u32),
                    file: FileId(0),
                    offset: index as u64 * STRIPE as u64,
                    len: STRIPE as u64,
                    direction,
                    proc,
                    slot: end,
                    length: 1 + rng.index(max_length as usize) as u32,
                },
                begin,
                end,
                signature: Signature::new(nodes, width),
                producer: None,
                movable: end > begin,
            }
        })
        .collect()
}

/// An I/O-free trace skeleton of `nprocs` processes over `total_slots`.
fn skeleton_trace(nprocs: usize, total_slots: u32) -> ProgramTrace {
    ProgramTrace {
        name: "oracle".into(),
        processes: (0..nprocs)
            .map(|proc| ProcessTrace {
                proc,
                slots: total_slots,
                compute: vec![SimDuration::ZERO; total_slots as usize],
                ios: Vec::new(),
            })
            .collect(),
        total_slots,
    }
}

/// σ for `delta`: the paper's linear decay, a seeded table in which about
/// one weight in three is zero, or all zeros (every score ties).
fn weights_for(mode: u8, seed: u64, delta: u32) -> WeightFn {
    let mut rng = DetRng::new(seed ^ 0x5EED);
    match mode {
        0 => WeightFn::Linear,
        1 => WeightFn::Table(
            (0..=delta)
                .map(|_| match rng.index(3) {
                    0 => 0.0,
                    _ => rng.next_u64() as f64 / u64::MAX as f64,
                })
                .collect(),
        ),
        _ => WeightFn::Table(vec![0.0; delta as usize + 1]),
    }
}

/// Asserts that the scheduler and the oracle build the same table.
fn assert_matches_oracle(
    cfg: &SchedulerConfig,
    accesses: &[SchedulableAccess],
    nprocs: usize,
    total_slots: u32,
) {
    let trace = skeleton_trace(nprocs, total_slots);
    let table = cfg.schedule(accesses, &trace).expect("valid accesses");
    let points = oracle_points(cfg, accesses, total_slots, nprocs);
    let entries = accesses
        .iter()
        .map(|a| ScheduledIo {
            access_index: a.index,
            io: a.io,
            slot: points[a.index],
        })
        .collect();
    let oracle = ScheduleTable::from_entries(nprocs, total_slots, entries).expect("valid oracle");
    assert_eq!(
        table, oracle,
        "scheduler differs from the oracle under {cfg:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The incremental scheduler (cached reuse factors, single-pass θ
    /// selection) builds exactly the table of the naive Fig. 11 oracle
    /// across δ, θ, candidate caps, access lengths, zero weights and
    /// signature counts on both sides of the score cache's key bound.
    #[test]
    fn schedule_matches_naive_oracle(
        (delta, theta, max_candidates) in (
            0u32..81,
            prop_oneof![Just(None), (1u16..6).prop_map(Some)],
            prop_oneof![Just(None), (2usize..17).prop_map(Some)],
        ),
        (weight_mode, seed) in (0u8..3, any::<u64>()),
        (count, nprocs, total_slots) in (0usize..300, 1usize..6, 1u32..200),
        (width, palette, max_length) in (
            prop_oneof![Just(4usize), Just(16), Just(64)],
            prop_oneof![Just(0usize), 1usize..9],
            prop_oneof![Just(1u32), 2u32..5],
        ),
    ) {
        let cfg = SchedulerConfig {
            delta,
            theta,
            weights: weights_for(weight_mode, seed, delta),
            seed,
            max_candidates,
        };
        let accesses =
            arb_accesses(seed, count, nprocs, total_slots, width, palette, max_length);
        assert_matches_oracle(&cfg, &accesses, nprocs, total_slots);
    }
}

/// One large case that is sure to exceed the score cache's bound of 32
/// `(signature, length)` keys, so uncached and cached keys interleave.
#[test]
fn schedule_matches_naive_oracle_past_the_key_bound() {
    let (nprocs, total_slots) = (4, 96);
    let accesses = arb_accesses(7, 400, nprocs, total_slots, 64, 0, 2);
    let keys: std::collections::HashSet<(Signature, u32)> = accesses
        .iter()
        .filter(|a| a.movable)
        .map(|a| (a.signature, a.io.length))
        .collect();
    assert!(keys.len() > 100, "only {} distinct keys", keys.len());
    for (theta, max_candidates) in [(None, None), (Some(2), Some(8)), (Some(4), None)] {
        let cfg = SchedulerConfig {
            delta: 20,
            theta,
            max_candidates,
            ..SchedulerConfig::paper_defaults()
        };
        assert_matches_oracle(&cfg, &accesses, nprocs, total_slots);
    }
}
