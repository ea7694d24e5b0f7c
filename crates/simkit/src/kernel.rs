//! The unified event kernel: one calendar queue for every event source.
//!
//! Historically each layer of the simulator kept its own heap (the power
//! driver's lazy disk calendar, the engine's ready-heap, the storage
//! system's cached next-event scan). This module replaces all of them
//! with a single abstraction:
//!
//! * [`Calendar`] — a slot-based calendar queue. Every event source
//!   registers once and receives a [`SlotId`]; thereafter it only
//!   *retargets* its next due time. The calendar orders due slots by
//!   `(time, arbitration key)` in an indexed 4-ary min-heap: every slot
//!   records its heap position, so a retarget sifts just that entry
//!   (`O(log n)`), a retarget to the due time a slot already has is an
//!   `O(1)` no-op (hot loops refresh their sources every iteration), and
//!   peek is `O(1)`. A pop leaves the root in place until the next call;
//!   when that call retargets the popped slot — the pattern every caller
//!   follows: pop, handle, reschedule the same source — the root is
//!   re-keyed by one sift-down instead of a remove plus an insert.
//!   Calendars of at most twelve slots (the power driver's, the I/O
//!   node's and the rebuild loop's, and the storage system's at the
//!   paper's eight nodes) skip the heap and scan the slot table instead,
//!   which is cheaper at that size.
//! * [`ArbitrationPolicy`] — how slots due at the *same* instant are
//!   ordered: [`ArbitrationPolicy::Deterministic`] (registration order,
//!   the default and the basis of the bitwise-reproducibility contract)
//!   or [`ArbitrationPolicy::SeededShuffle`] (a seeded hash permutes
//!   same-time slots — determinism fuzzing).
//!
//! # Determinism contract
//!
//! Under [`ArbitrationPolicy::Deterministic`] a calendar pops due slots in
//! `(time, registration index)` order — a stable total order for any
//! multiset of due times, with no dependence on insertion history or on
//! whether the calendar scans or heaps. Every simulated metric produced
//! by a `Deterministic` run is reproducible bit-for-bit. Under
//! [`ArbitrationPolicy::SeededShuffle`] same-time ordering varies with the
//! seed while *invariant* metrics (bytes moved, request counts) must not —
//! a divergence across seeds is an ordering bug in the layer above, which
//! is exactly what the arbitration-fuzz CI job hunts for.
//!
//! # Example
//!
//! ```
//! use simkit::kernel::{ArbitrationPolicy, Calendar};
//! use simkit::SimTime;
//!
//! let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
//! let a = cal.register();
//! let b = cal.register();
//! cal.retarget(b, Some(SimTime::from_micros(5)));
//! cal.retarget(a, Some(SimTime::from_micros(5)));
//! // Same instant: registration order wins, regardless of insert order.
//! assert_eq!(cal.pop(), Some((SimTime::from_micros(5), a)));
//! assert_eq!(cal.pop(), Some((SimTime::from_micros(5), b)));
//! assert_eq!(cal.pop(), None);
//! ```

use std::hint::select_unpredictable;

use crate::SimTime;

/// How slots due at the same instant are ordered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ArbitrationPolicy {
    /// Registration order (first registered fires first). The default;
    /// the bitwise determinism contract holds under this policy.
    #[default]
    Deterministic,
    /// Same-time order is a seed-keyed pseudo-random permutation of the
    /// due slots, stable for a given `(seed, time, slot)` triple. Used by
    /// determinism fuzzing: invariant metrics must not depend on the
    /// seed.
    SeededShuffle(u64),
}

/// Calendars with at most this many slots scan the slot table instead of
/// keeping a heap. Measured with a pop-then-retarget hold loop on random
/// due times (EXPERIMENTS.md): the scan wins up to 12 slots, the two tie
/// at 14, and the heap wins from 16 slots up.
const SCAN_SLOTS: usize = 12;

/// Handle to a registered event source within a [`Calendar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(u32);

impl SlotId {
    /// The slot's registration index (0 for the first registration).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// SplitMix64 finalizer: decorrelates `(seed, slot, time)` into a tie key.
///
/// For a fixed `(seed, time)` the map from slot to key is injective (an
/// odd multiplier, then a chain of bijective mixing steps), so same-time
/// slots never share a key and `(time, key)` alone is a total order.
fn shuffle_key(seed: u64, slot: u32, time: SimTime) -> u64 {
    let mut z = seed
        .wrapping_add(u64::from(slot).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(time.as_micros().wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Heap fan-out: a 4-ary heap is half as deep as a binary one, and the
/// four children of a node share a cache line.
const ARITY: usize = 4;
/// `Calendar::pos` value of a slot that is not in the heap.
const NOT_QUEUED: u32 = u32::MAX;

/// One due slot, ordered by `(time, tie)`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    tie: u64,
    slot: u32,
}

impl Entry {
    /// `(time, tie)` as one integer, so comparisons compile branch-free.
    fn key(&self) -> u128 {
        (u128::from(self.time.as_micros()) << 64) | u128::from(self.tie)
    }

    fn before(&self, other: &Entry) -> bool {
        self.key() < other.key()
    }
}

/// A slot-based calendar queue with pluggable same-time arbitration.
///
/// Each event source holds one slot whose due time it retargets as its
/// schedule changes; the calendar hands back the minimum
/// `(time, arbitration key)`. Calendars of up to twelve slots scan their
/// slot table; larger ones keep an indexed heap. Either way a retarget
/// to an unchanged due time is free, so sources may refresh their due
/// time every iteration.
#[derive(Debug, Default)]
pub struct Calendar {
    policy: ArbitrationPolicy,
    /// Each slot's due time (`None` once popped or parked).
    due: Vec<Option<SimTime>>,
    /// Heap mode only: each slot's position in `heap`, or [`NOT_QUEUED`].
    pos: Vec<u32>,
    /// Heap mode only: the due slots, a 4-ary min-heap on `(time, tie)`.
    heap: Vec<Entry>,
    /// The root of `heap` was popped and awaits a retarget or removal.
    held: bool,
}

impl Calendar {
    /// An empty calendar under the given arbitration policy.
    pub fn new(policy: ArbitrationPolicy) -> Self {
        Calendar {
            policy,
            ..Calendar::default()
        }
    }

    /// The active arbitration policy.
    pub fn policy(&self) -> ArbitrationPolicy {
        self.policy
    }

    /// Replaces the arbitration policy. Switch only while no slot is due
    /// (typically right after construction), so one policy never orders
    /// events scheduled under another.
    pub fn set_policy(&mut self, policy: ArbitrationPolicy) {
        debug_assert!(
            self.due.iter().all(Option::is_none),
            "arbitration policy changed with pending entries"
        );
        self.policy = policy;
        if self.heaped() {
            self.rebuild();
        }
    }

    /// Registers a new event source and returns its slot.
    pub fn register(&mut self) -> SlotId {
        let id = SlotId(self.due.len() as u32);
        let was_heaped = self.heaped();
        self.due.push(None);
        if was_heaped {
            self.pos.push(NOT_QUEUED);
        } else if self.heaped() {
            self.rebuild();
        }
        id
    }

    /// Number of registered slots.
    pub fn slot_count(&self) -> usize {
        self.due.len()
    }

    /// The slot's current due time.
    pub fn due(&self, slot: SlotId) -> Option<SimTime> {
        self.due.get(slot.index()).copied().flatten()
    }

    /// Points `slot` at a new due time (or parks it with `None`): `O(1)`
    /// when the due time is unchanged or the calendar scans, otherwise one
    /// `O(log n)` sift.
    pub fn retarget(&mut self, slot: SlotId, due: Option<SimTime>) {
        let i = slot.index();
        debug_assert!(i < self.due.len(), "retarget of an unregistered slot");
        let heaped = self.heaped();
        let Some(cur) = self.due.get_mut(i) else {
            return;
        };
        if !heaped || *cur == due {
            *cur = due;
            return;
        }
        *cur = due;
        self.heap_retarget(slot.0, due);
    }

    /// The earliest due `(time, slot)` without popping it.
    pub fn peek(&mut self) -> Option<(SimTime, SlotId)> {
        if self.heaped() {
            self.heap_peek()
        } else {
            self.scan()
        }
    }

    /// The earliest due time across all slots.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// Pops the earliest due slot, clearing its due time. The popped
    /// source is expected to handle the event and retarget itself.
    pub fn pop(&mut self) -> Option<(SimTime, SlotId)> {
        let (at, slot) = self.peek()?;
        self.take(slot);
        Some((at, slot))
    }

    /// Pops the earliest due slot only if it is due at or before `t`.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, SlotId)> {
        let (at, slot) = self.peek()?;
        if at > t {
            return None;
        }
        self.take(slot);
        Some((at, slot))
    }

    /// True when no slot is due.
    pub fn is_empty(&mut self) -> bool {
        if self.heaped() {
            self.heap.len() == usize::from(self.held)
        } else {
            self.due.iter().all(Option::is_none)
        }
    }

    /// Whether this calendar keeps a heap rather than scanning.
    fn heaped(&self) -> bool {
        self.due.len() > SCAN_SLOTS
    }

    /// The arbitration tie key for `slot` firing at `time`.
    fn tie(&self, slot: u32, time: SimTime) -> u64 {
        match self.policy {
            ArbitrationPolicy::Deterministic => u64::from(slot),
            ArbitrationPolicy::SeededShuffle(seed) => shuffle_key(seed, slot, time),
        }
    }

    /// Scan mode's peek: the minimum `(time, tie)` over the slot table.
    fn scan(&self) -> Option<(SimTime, SlotId)> {
        if self.policy == ArbitrationPolicy::Deterministic {
            // Scanning in registration order with strict `<`, the first
            // slot at the minimum time wins — exactly the Deterministic
            // tie rule.
            let mut best: Option<(SimTime, u32)> = None;
            for (i, due) in self.due.iter().enumerate() {
                let Some(at) = *due else { continue };
                if best.is_none_or(|(bt, _)| at < bt) {
                    best = Some((at, i as u32));
                }
            }
            return best.map(|(at, slot)| (at, SlotId(slot)));
        }
        self.scan_shuffled()
    }

    /// [`Calendar::scan`] under `SeededShuffle`, out of line so the
    /// Deterministic scan stays a small leaf.
    #[inline(never)]
    fn scan_shuffled(&self) -> Option<(SimTime, SlotId)> {
        // Tie keys are only computed for candidates that match the running
        // minimum time, so a distinct-time scan costs one comparison per
        // slot.
        let mut best: Option<(SimTime, u64, u32)> = None;
        for (i, due) in self.due.iter().enumerate() {
            let Some(at) = *due else { continue };
            if best.is_some_and(|(bt, _, _)| at > bt) {
                continue;
            }
            let tie = self.tie(i as u32, at);
            if best.is_none_or(|(bt, bk, _)| (at, tie) < (bt, bk)) {
                best = Some((at, tie, i as u32));
            }
        }
        best.map(|(at, _, slot)| (at, SlotId(slot)))
    }

    /// Marks the just-peeked minimum `slot` as popped. In heap mode its
    /// entry stays at the root until the next call.
    fn take(&mut self, slot: SlotId) {
        self.due[slot.index()] = None;
        self.held = self.heaped();
    }

    /// Heap mode's retarget of a slot whose due time changed. Kept out of
    /// line (like [`Calendar::heap_peek`]) so the scan-mode fast paths
    /// stay small leaf calls.
    #[inline(never)]
    fn heap_retarget(&mut self, slot: u32, due: Option<SimTime>) {
        if self.held && self.heap[0].slot == slot {
            // Replace-top: the popped root takes its new due time in place.
            self.held = false;
            match due {
                Some(at) => self.rekey(0, at),
                None => self.remove(0),
            }
            return;
        }
        self.settle();
        match (self.pos[slot as usize], due) {
            (NOT_QUEUED, Some(at)) => {
                let tie = self.tie(slot, at);
                self.heap.push(Entry {
                    time: at,
                    tie,
                    slot,
                });
                self.sift_up(self.heap.len() - 1);
            }
            (NOT_QUEUED, None) => {}
            (p, Some(at)) => self.rekey(p as usize, at),
            (p, None) => self.remove(p as usize),
        }
    }

    /// Heap mode's peek: the root, once a held root is settled.
    #[inline(never)]
    fn heap_peek(&mut self) -> Option<(SimTime, SlotId)> {
        self.settle();
        self.heap.first().map(|e| (e.time, SlotId(e.slot)))
    }

    /// Removes a held root, making the heap hold exactly the due slots.
    fn settle(&mut self) {
        if self.held {
            self.held = false;
            self.remove(0);
        }
    }

    /// Rebuilds the heap from the slot table (on switching to heap mode
    /// or changing the policy).
    fn rebuild(&mut self) {
        self.held = false;
        self.pos = vec![NOT_QUEUED; self.due.len()];
        self.heap = Vec::with_capacity(self.due.len());
        for (i, due) in self.due.iter().enumerate() {
            if let Some(at) = *due {
                let tie = self.tie(i as u32, at);
                self.heap.push(Entry {
                    time: at,
                    tie,
                    slot: i as u32,
                });
            }
        }
        for p in (0..self.heap.len()).rev() {
            self.sift_down(p);
        }
    }

    /// Gives the entry at `p` a new due time and restores heap order.
    fn rekey(&mut self, p: usize, at: SimTime) {
        let old = self.heap[p];
        let e = Entry {
            time: at,
            tie: self.tie(old.slot, at),
            slot: old.slot,
        };
        self.heap[p] = e;
        if e.before(&old) {
            self.sift_up(p);
        } else {
            self.sift_down(p);
        }
    }

    /// Removes the entry at `p`, filling the hole with the last entry.
    fn remove(&mut self, p: usize) {
        self.pos[self.heap[p].slot as usize] = NOT_QUEUED;
        let Some(last) = self.heap.pop() else {
            return;
        };
        if p == self.heap.len() {
            return;
        }
        self.heap[p] = last;
        if p > 0 && last.before(&self.heap[(p - 1) / ARITY]) {
            self.sift_up(p);
        } else {
            self.sift_down(p);
        }
    }

    fn sift_up(&mut self, mut p: usize) {
        let e = self.heap[p];
        while p > 0 {
            let parent = (p - 1) / ARITY;
            let up = self.heap[parent];
            if !e.before(&up) {
                break;
            }
            self.heap[p] = up;
            self.pos[up.slot as usize] = p as u32;
            p = parent;
        }
        self.heap[p] = e;
        self.pos[e.slot as usize] = p as u32;
    }

    fn sift_down(&mut self, mut p: usize) {
        let e = self.heap[p];
        let n = self.heap.len();
        loop {
            let first = p * ARITY + 1;
            if first >= n {
                break;
            }
            // The smallest child. Which child wins is unpredictable, so a
            // full family is settled by a branch-free tournament.
            let (best, key) = if let Some(kids) = self.heap.get(first..first + ARITY) {
                let pick =
                    |a: (usize, u128), b: (usize, u128)| select_unpredictable(b.1 < a.1, b, a);
                let left = pick((first, kids[0].key()), (first + 1, kids[1].key()));
                let right = pick((first + 2, kids[2].key()), (first + 3, kids[3].key()));
                pick(left, right)
            } else {
                (first..n)
                    .map(|c| (c, self.heap[c].key()))
                    .fold((first, u128::MAX), |a, b| if b.1 < a.1 { b } else { a })
            };
            if key >= e.key() {
                break;
            }
            let child = self.heap[best];
            self.heap[p] = child;
            self.pos[child.slot as usize] = p as u32;
            p = best;
        }
        self.heap[p] = e;
        self.pos[e.slot as usize] = p as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn deterministic_orders_by_registration_at_ties() {
        for n in [5, 3 * SCAN_SLOTS] {
            let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
            let slots: Vec<SlotId> = (0..n).map(|_| cal.register()).collect();
            // Insert in reverse registration order at one instant.
            for s in slots.iter().rev() {
                cal.retarget(*s, Some(t(7)));
            }
            let popped: Vec<SlotId> = std::iter::from_fn(|| cal.pop().map(|(_, s)| s)).collect();
            assert_eq!(popped, slots);
        }
    }

    #[test]
    fn retarget_supersedes_lazily() {
        let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
        let a = cal.register();
        cal.retarget(a, Some(t(10)));
        cal.retarget(a, Some(t(3)));
        assert_eq!(cal.pop(), Some((t(3), a)));
        // The stale t=10 entry is discarded, not replayed.
        assert_eq!(cal.pop(), None);
        // Parking clears the pending entry too.
        cal.retarget(a, Some(t(20)));
        cal.retarget(a, None);
        assert_eq!(cal.peek_time(), None);
    }

    #[test]
    fn pop_clears_due_and_pop_due_respects_bound() {
        let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
        let a = cal.register();
        cal.retarget(a, Some(t(5)));
        assert_eq!(cal.pop_due(t(4)), None);
        assert_eq!(cal.pop_due(t(5)), Some((t(5), a)));
        assert_eq!(cal.due(a), None);
    }

    #[test]
    fn crossing_the_scan_threshold_keeps_pending_slots() {
        let mut cal = Calendar::new(ArbitrationPolicy::Deterministic);
        let first: Vec<SlotId> = (0..SCAN_SLOTS).map(|_| cal.register()).collect();
        for (i, s) in first.iter().enumerate() {
            cal.retarget(*s, Some(t(100 - i as u64)));
        }
        let late = cal.register();
        cal.retarget(late, Some(t(1)));
        assert_eq!(cal.pop(), Some((t(1), late)));
        for s in first.iter().rev() {
            assert_eq!(cal.pop().map(|(_, s)| s), Some(*s));
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn shuffle_is_seed_deterministic_and_varies() {
        let order = |seed: u64| {
            let mut cal = Calendar::new(ArbitrationPolicy::SeededShuffle(seed));
            let slots: Vec<SlotId> = (0..16).map(|_| cal.register()).collect();
            for s in &slots {
                cal.retarget(*s, Some(t(42)));
            }
            std::iter::from_fn(|| cal.pop().map(|(_, s)| s.index())).collect::<Vec<_>>()
        };
        assert_eq!(order(1), order(1));
        // 16 slots: two seeds agreeing on the full permutation is
        // astronomically unlikely with a working hash.
        assert_ne!(order(1), order(2));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn time_order_holds_under_every_policy() {
        for policy in [
            ArbitrationPolicy::Deterministic,
            ArbitrationPolicy::SeededShuffle(99),
        ] {
            let mut cal = Calendar::new(policy);
            let slots: Vec<SlotId> = (0..8).map(|_| cal.register()).collect();
            for (i, s) in slots.iter().enumerate() {
                cal.retarget(*s, Some(t(((i as u64) * 13) % 5)));
            }
            let mut last = SimTime::ZERO;
            while let Some((at, _)) = cal.pop() {
                assert!(at >= last, "{policy:?} violated time order");
                last = at;
            }
        }
    }
}
