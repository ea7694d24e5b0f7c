//! The `simkit::kernel::Calendar` driven directly: a hold loop (pop the
//! earliest slot, retarget it later) at the two populations the program
//! runs it at.

use std::time::Instant;

use simkit::kernel::{ArbitrationPolicy, Calendar};
use simkit::SimTime;

use crate::report::{metric, Metric};

/// Slots of the engine's calendar at paper scale: 32 processes plus the
/// submission, storage and timeout slots.
pub const ENGINE_SLOTS: usize = 35;
/// Slots of the single-domain scale-100 scene: one per component.
pub const SCENE_SLOTS: usize = 4821;

/// Host nanoseconds per hold (one `pop` plus one `retarget`) on a
/// calendar of `slots` slots, over `ops` holds.
pub fn hold_ns(slots: usize, ops: u64) -> f64 {
    let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        1 + rng % 1000
    };
    for _ in 0..slots {
        let slot = cal.register();
        cal.retarget(slot, Some(SimTime::from_micros(next())));
    }
    let started = Instant::now();
    let mut sink = 0u64;
    for _ in 0..ops {
        let Some((at, slot)) = cal.pop() else { break };
        sink = sink.wrapping_add(at.as_micros() ^ slot.index() as u64);
        cal.retarget(slot, Some(SimTime::from_micros(at.as_micros() + next())));
    }
    let ns = started.elapsed().as_secs_f64() * 1e9 / ops as f64;
    std::hint::black_box(sink);
    ns
}

/// Both calendar metrics, each over about a tenth of a second of holds.
pub fn metrics() -> Vec<Metric> {
    vec![
        metric(
            "simkit.kernel.engine_pop_ns",
            hold_ns(ENGINE_SLOTS, 2_000_000),
            "ns",
        ),
        metric(
            "simkit.kernel.scene_pop_ns",
            hold_ns(SCENE_SLOTS, 20_000),
            "ns",
        ),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn hold_cost_is_positive() {
        assert!(super::hold_ns(8, 1000) > 0.0);
    }
}
