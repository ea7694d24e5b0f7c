//! Sharded time-domain event kernel.
//!
//! [`ShardedKernel`] partitions a scene's components across *shards*, each
//! owning a private [`Calendar`] and message inbox, and runs the shards in
//! lock-step *epochs* of a fixed time window on the calling thread. Within
//! an epoch every shard advances independently; at the end of the epoch
//! every message produced during it is routed to its destination inbox and
//! the next epoch window is derived from the global minimum next-event
//! time (empty windows are skipped, so sparse scenes do not pay
//! per-window cost).
//!
//! # Determinism
//!
//! The simulated outcome is **bitwise identical for any shard partition**
//! (up to the partition-dependent [`ShardRunStats::trace_hash`]):
//!
//! * Every message — even one whose destination lives on the same shard —
//!   travels through the epoch outbox and is delivered from the
//!   destination inbox, a [`std::collections::BinaryHeap`] ordered by the
//!   globally unique key `(deliver_at, dst, src, seq)` where `seq` is a
//!   per-sender monotone counter. Delivery order therefore never depends
//!   on which shard produced the message.
//! * Epoch boundaries are aligned to a fixed grid of `window`-sized cells
//!   and chosen from the *global* minimum next-event time, which is a
//!   partition-independent quantity.
//! * Within a shard, same-time ties are resolved messages-first, then by
//!   the canonical message key, then by calendar registration order —
//!   all partition-independent for components that only interact through
//!   messages.
//!
//! # Lookahead
//!
//! Conservative epoch synchronization is only correct when a message sent
//! at time `t` inside a window `[s, s + w)` is delivered at or after
//! `s + w`. Components guarantee this by using a hop latency `≥ w` for
//! every send; the kernel verifies the invariant at each epoch end and
//! returns [`ShardError::LookaheadViolation`] instead of silently
//! reordering history.
//!
//! # Example
//!
//! ```
//! use simkit::shard::{GlobalSlot, ShardComponent, ShardCtx, ShardedKernel};
//! use simkit::{SimDuration, SimTime};
//!
//! /// Sends one message to a peer, counts what it receives.
//! struct Node { peer: Option<GlobalSlot>, start: Option<SimTime>, received: u32 }
//!
//! impl ShardComponent<u32> for Node {
//!     fn next_tick(&self) -> Option<SimTime> { self.start }
//!     fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, u32>) {
//!         self.start = None;
//!         if let Some(peer) = self.peer {
//!             ctx.send(peer, now + SimDuration::from_millis(1), 7);
//!         }
//!     }
//!     fn on_message(&mut self, _now: SimTime, msg: u32, _ctx: &mut ShardCtx<'_, u32>) {
//!         self.received += msg;
//!     }
//! }
//!
//! let mut k = ShardedKernel::new(2, SimDuration::from_millis(1)).unwrap();
//! let a = k.add(0, Node { peer: None, start: None, received: 0 }).unwrap();
//! let _b = k.add(1, Node { peer: Some(a), start: Some(SimTime::ZERO), received: 0 }).unwrap();
//! let stats = k.run().unwrap();
//! assert_eq!(stats.events, 2);
//! assert_eq!(k.components().next().unwrap().received, 7);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::kernel::{ArbitrationPolicy, Calendar, SlotId};
use crate::{SimDuration, SimTime};

/// Identifies a component across every shard of a [`ShardedKernel`].
///
/// Slots are handed out by [`ShardedKernel::add`] in registration order
/// and are the addresses used by [`ShardCtx::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalSlot(u32);

impl GlobalSlot {
    /// The slot's position in global registration order.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The slot that will be (or was) handed out `index`-th by
    /// [`ShardedKernel::add`]. Lets scene builders precompute a layout;
    /// a message to a slot that never registers fails the run with
    /// [`ShardError::UnknownSlot`].
    #[inline]
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        GlobalSlot(index as u32)
    }
}

/// A component that lives on a shard and interacts with the rest of the
/// scene exclusively through timestamped messages.
///
/// Each component owns one slot of its shard's
/// [`Calendar`](crate::kernel::Calendar), retargeted from
/// [`Self::next_tick`] after every callback. All interaction between
/// components must go through [`ShardCtx::send`] with a delivery latency
/// of at least the kernel's epoch window.
pub trait ShardComponent<M> {
    /// The next time this component wants [`Self::tick`] to run, if any.
    ///
    /// Re-read after every `tick`/`on_message`; returning a time earlier
    /// than the event just processed is clamped up to it.
    fn next_tick(&self) -> Option<SimTime>;

    /// Called when simulated time reaches [`Self::next_tick`].
    fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, M>);

    /// Called when a message addressed to this component is delivered.
    fn on_message(&mut self, now: SimTime, msg: M, ctx: &mut ShardCtx<'_, M>);
}

/// Per-event context handed to [`ShardComponent`] callbacks; collects
/// outgoing messages into the shard's epoch outbox.
pub struct ShardCtx<'a, M> {
    now: SimTime,
    self_slot: GlobalSlot,
    outbox: &'a mut Vec<Envelope<M>>,
    seq: &'a mut u64,
}

impl<M> ShardCtx<'_, M> {
    /// The timestamp of the event being processed.
    #[inline]
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The global slot of the component being called.
    #[inline]
    #[must_use]
    pub fn self_slot(&self) -> GlobalSlot {
        self.self_slot
    }

    /// Sends `msg` to `dst` for delivery at simulated time `at`.
    ///
    /// `at` must satisfy the kernel's lookahead contract: it has to fall
    /// at or after the end of the epoch window the send happens in (any
    /// fixed latency `≥` the epoch window does, because windows are
    /// grid-aligned). Violations are detected at the end of the epoch and
    /// reported as [`ShardError::LookaheadViolation`].
    #[inline]
    pub fn send(&mut self, dst: GlobalSlot, at: SimTime, msg: M) {
        let seq = *self.seq;
        *self.seq = seq.wrapping_add(1);
        self.outbox.push(Envelope {
            at,
            dst: dst.0,
            src: self.self_slot.0,
            seq,
            dst_local: 0,
            msg,
        });
    }
}

impl<M> fmt::Debug for ShardCtx<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardCtx")
            .field("now", &self.now)
            .field("self_slot", &self.self_slot)
            .finish_non_exhaustive()
    }
}

/// A message in flight. Ordered by the globally unique canonical key
/// `(at, dst, src, seq)`; the payload never participates in ordering.
struct Envelope<M> {
    at: SimTime,
    dst: u32,
    src: u32,
    seq: u64,
    /// The destination's index on its shard, filled in when the kernel
    /// routes the envelope.
    dst_local: u32,
    msg: M,
}

impl<M> Envelope<M> {
    #[inline]
    fn key(&self) -> (SimTime, u32, u32, u64) {
        (self.at, self.dst, self.src, self.seq)
    }
}

impl<M> PartialEq for Envelope<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Envelope<M> {}
impl<M> PartialOrd for Envelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Envelope<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Errors from building or running a [`ShardedKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShardError {
    /// The kernel was asked for zero shards.
    NoShards,
    /// The epoch window must be a positive duration.
    ZeroWindow,
    /// `add` named a shard index outside `0..shard_count`.
    UnknownShard {
        /// The out-of-range shard index.
        shard: usize,
        /// The number of shards the kernel was built with.
        shards: usize,
    },
    /// A message was addressed to a slot that was never registered.
    UnknownSlot {
        /// The sender's global slot index.
        src: u32,
        /// The unregistered destination index.
        dst: u32,
    },
    /// A message's delivery time fell inside the epoch window it was
    /// sent in, breaking conservative synchronization.
    LookaheadViolation {
        /// The sender's global slot index.
        src: u32,
        /// The offending delivery time.
        at: SimTime,
        /// The end of the epoch window the send happened in.
        epoch_end: SimTime,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "sharded kernel needs at least one shard"),
            ShardError::ZeroWindow => write!(f, "epoch window must be positive"),
            ShardError::UnknownShard { shard, shards } => {
                write!(
                    f,
                    "shard index {shard} out of range (kernel has {shards} shards)"
                )
            }
            ShardError::UnknownSlot { src, dst } => {
                write!(
                    f,
                    "component {src} sent a message to unregistered slot {dst}"
                )
            }
            ShardError::LookaheadViolation { src, at, epoch_end } => write!(
                f,
                "component {src} sent a message for t={}us inside its own epoch window \
                 (epoch ends at t={}us); sends must use a latency >= the epoch window",
                at.as_micros(),
                epoch_end.as_micros()
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// One observed event from a shard's log, in the canonical
/// partition-invariant order.
///
/// The derived `Ord` is the canonical key: message deliveries sort as
/// `(at, 0, dst, src, seq)` and calendar ticks as `(at, 1, slot, 0, 0)`,
/// mirroring the kernel's messages-first tie rule. Because the *set* of
/// processed events is partition-invariant, sorting the concatenated
/// per-shard logs (see [`merge_events`]) yields a stream that is byte
/// identical for every shard partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// `0` for a message delivery, `1` for a calendar tick.
    pub kind: u8,
    /// Destination slot for messages; the ticking slot for ticks.
    pub slot: u32,
    /// Sender slot for messages; `0` for ticks.
    pub src: u32,
    /// Sender sequence number for messages; `0` for ticks.
    pub seq: u64,
}

/// Per-epoch delta counters from one shard.
///
/// Every shard records exactly one entry per global epoch (a shard with
/// no work in the window records zeros), so the epoch logs of all shards
/// align by index and can be compared side by side for load-imbalance
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochObs {
    /// End of the epoch window (exclusive).
    pub end: SimTime,
    /// Events this shard processed inside the window.
    pub events: u64,
    /// Message deliveries among those events.
    pub messages: u64,
}

/// Everything one shard observed during a run: its event log in local
/// processing order and its per-epoch delta log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardObs {
    /// Events in the order this shard processed them.
    pub events: Vec<ShardEvent>,
    /// One delta entry per epoch, aligned across shards by index.
    pub epochs: Vec<EpochObs>,
}

/// Merges per-shard event logs into the canonical partition-invariant
/// stream (sorted by the [`ShardEvent`] key). The result is identical
/// for every shard partition of the same scene.
#[must_use]
pub fn merge_events(obs: &[ShardObs]) -> Vec<ShardEvent> {
    let mut all: Vec<ShardEvent> = obs.iter().flat_map(|o| o.events.iter().copied()).collect();
    all.sort_unstable();
    all
}

/// Load-imbalance summary for one epoch, derived from the aligned
/// per-shard epoch logs by [`epoch_imbalance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochImbalance {
    /// End of the epoch window (exclusive).
    pub end: SimTime,
    /// Events processed by the busiest shard this epoch.
    pub max_events: u64,
    /// Events processed by all shards this epoch.
    pub total_events: u64,
    /// `Σ (max_events − shard events)`: the events' worth of capacity
    /// the other shards would spend waiting at the epoch end if every
    /// shard ran on its own worker — the partition's barrier-stall proxy.
    pub stall_events: u64,
}

/// Folds aligned per-shard epoch logs into per-epoch load-imbalance
/// accounting. Epochs are aligned by index; a shard whose log is shorter
/// (possible only after a mid-run error) simply contributes zeros to the
/// trailing epochs.
#[must_use]
pub fn epoch_imbalance(obs: &[ShardObs]) -> Vec<EpochImbalance> {
    let epochs = obs.iter().map(|o| o.epochs.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(epochs);
    for e in 0..epochs {
        let mut end = SimTime::ZERO;
        let mut max_events = 0u64;
        let mut total = 0u64;
        for o in obs {
            if let Some(d) = o.epochs.get(e) {
                end = end.max(d.end);
                max_events = max_events.max(d.events);
                total += d.events;
            }
        }
        let stall = obs
            .iter()
            .map(|o| max_events - o.epochs.get(e).map_or(0, |d| d.events))
            .sum();
        out.push(EpochImbalance {
            end,
            max_events,
            total_events: total,
            stall_events: stall,
        });
    }
    out
}

/// Aggregate counters from one [`ShardedKernel::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardRunStats {
    /// Total events processed (calendar ticks + message deliveries).
    pub events: u64,
    /// Message deliveries alone (a subset of `events`).
    pub messages: u64,
    /// Number of non-empty epoch windows executed.
    pub epochs: u64,
    /// Timestamp of the latest event processed (`SimTime::ZERO` if none).
    pub end: SimTime,
    /// Order-sensitive digest of every `(time, slot, kind)` processed,
    /// folded per shard then combined in shard order. Unlike every other
    /// counter here, it depends on the shard partition.
    pub trace_hash: u64,
}

/// One shard: a calendar of local components plus its message inbox,
/// epoch outbox and per-sender sequence counters.
struct Shard<M, C> {
    cal: Calendar,
    slots: Vec<SlotId>,
    globals: Vec<u32>,
    comps: Vec<C>,
    seqs: Vec<u64>,
    inbox: BinaryHeap<Reverse<Envelope<M>>>,
    outbox: Vec<Envelope<M>>,
    events: u64,
    messages: u64,
    last: SimTime,
    trace_hash: u64,
    /// Opt-in observability log; `None` (the default) records nothing.
    obs: Option<ShardObs>,
}

/// FxHash-style one-word fold used for the trace digest.
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

impl<M, C: ShardComponent<M>> Shard<M, C> {
    fn new() -> Self {
        Shard {
            cal: Calendar::new(ArbitrationPolicy::Deterministic),
            slots: Vec::new(),
            globals: Vec::new(),
            comps: Vec::new(),
            seqs: Vec::new(),
            inbox: BinaryHeap::new(),
            outbox: Vec::new(),
            events: 0,
            messages: 0,
            last: SimTime::ZERO,
            trace_hash: 0,
            obs: None,
        }
    }

    /// Earliest pending work on this shard (tick or queued delivery).
    fn next_time(&mut self) -> Option<SimTime> {
        let msg = self.inbox.peek().map(|Reverse(e)| e.at);
        let tick = self.cal.peek_time();
        match (msg, tick) {
            (Some(m), Some(t)) => Some(m.min(t)),
            (m, t) => m.or(t),
        }
    }

    /// Runs every event strictly before `end`, messages first on ties.
    fn run_epoch(&mut self, end: SimTime) {
        let (events_at_start, messages_at_start) = (self.events, self.messages);
        loop {
            let msg = self.inbox.peek().map(|Reverse(e)| e.at);
            let tick = self.cal.peek_time();
            let deliver = match (msg, tick) {
                (None, None) => break,
                (Some(m), None) => {
                    if m >= end {
                        break;
                    }
                    true
                }
                (None, Some(t)) => {
                    if t >= end {
                        break;
                    }
                    false
                }
                (Some(m), Some(t)) => {
                    let earliest = m.min(t);
                    if earliest >= end {
                        break;
                    }
                    m <= t
                }
            };
            if deliver {
                let Some(Reverse(env)) = self.inbox.pop() else {
                    break;
                };
                if let Some(obs) = self.obs.as_mut() {
                    obs.events.push(ShardEvent {
                        at: env.at,
                        kind: 0,
                        slot: env.dst,
                        src: env.src,
                        seq: env.seq,
                    });
                }
                let li = env.dst_local as usize;
                let mut ctx = ShardCtx {
                    now: env.at,
                    self_slot: GlobalSlot(env.dst),
                    outbox: &mut self.outbox,
                    seq: &mut self.seqs[li],
                };
                self.comps[li].on_message(env.at, env.msg, &mut ctx);
                let next = self.comps[li].next_tick().map(|t| t.max(env.at));
                self.cal.retarget(self.slots[li], next);
                self.events += 1;
                self.messages += 1;
                self.last = self.last.max(env.at);
                self.trace_hash = mix(
                    mix(self.trace_hash, env.at.as_micros()),
                    (u64::from(env.dst) << 1) | 1,
                );
            } else {
                let Some((t, slot)) = self.cal.pop() else {
                    break;
                };
                let li = slot.index();
                if let Some(obs) = self.obs.as_mut() {
                    obs.events.push(ShardEvent {
                        at: t,
                        kind: 1,
                        slot: self.globals[li],
                        src: 0,
                        seq: 0,
                    });
                }
                let mut ctx = ShardCtx {
                    now: t,
                    self_slot: GlobalSlot(self.globals[li]),
                    outbox: &mut self.outbox,
                    seq: &mut self.seqs[li],
                };
                self.comps[li].tick(t, &mut ctx);
                let next = self.comps[li].next_tick().map(|n| n.max(t));
                self.cal.retarget(slot, next);
                self.events += 1;
                self.last = self.last.max(t);
                self.trace_hash = mix(
                    mix(self.trace_hash, t.as_micros()),
                    u64::from(self.globals[li]) << 1,
                );
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.epochs.push(EpochObs {
                end,
                events: self.events - events_at_start,
                messages: self.messages - messages_at_start,
            });
        }
    }
}

/// The sharded epoch kernel. See the [module docs](self) for the
/// execution model and determinism argument.
pub struct ShardedKernel<M, C> {
    shards: Vec<Shard<M, C>>,
    /// Global slot index → `(shard, local index)`.
    index: Vec<(u32, u32)>,
    window: SimDuration,
}

impl<M, C> fmt::Debug for ShardedKernel<M, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedKernel")
            .field("shards", &self.shards.len())
            .field("components", &self.index.len())
            .field("window", &self.window)
            .finish()
    }
}

impl<M, C: ShardComponent<M>> ShardedKernel<M, C> {
    /// Creates a kernel with `shards` empty shards and the given epoch
    /// window. Fails on zero shards or a zero window.
    pub fn new(shards: usize, window: SimDuration) -> Result<Self, ShardError> {
        if shards == 0 {
            return Err(ShardError::NoShards);
        }
        if window.is_zero() {
            return Err(ShardError::ZeroWindow);
        }
        let mut v = Vec::with_capacity(shards);
        for _ in 0..shards {
            v.push(Shard::new());
        }
        Ok(ShardedKernel {
            shards: v,
            index: Vec::new(),
            window,
        })
    }

    /// Registers `component` on shard `shard`, returning its global slot.
    ///
    /// The component's initial [`ShardComponent::next_tick`] is targeted
    /// immediately.
    pub fn add(&mut self, shard: usize, component: C) -> Result<GlobalSlot, ShardError> {
        let Some(s) = self.shards.get_mut(shard) else {
            return Err(ShardError::UnknownShard {
                shard,
                shards: self.shards.len(),
            });
        };
        let global = GlobalSlot(self.index.len() as u32);
        let slot = s.cal.register();
        s.cal.retarget(slot, component.next_tick());
        s.slots.push(slot);
        s.globals.push(global.0);
        s.comps.push(component);
        s.seqs.push(0);
        self.index.push((shard as u32, (s.comps.len() - 1) as u32));
        Ok(global)
    }

    /// The epoch window.
    #[must_use]
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Turns on per-shard observability: every shard starts recording
    /// its event log and per-epoch deltas (see [`ShardObs`]). Purely
    /// additive — the simulated outcome is bitwise identical with the
    /// observer on or off. Call before [`Self::run`].
    pub fn enable_observer(&mut self) {
        for s in &mut self.shards {
            if s.obs.is_none() {
                s.obs = Some(ShardObs::default());
            }
        }
    }

    /// Drains the per-shard observations, one entry per shard in shard
    /// order. Shards that never had the observer enabled yield empty
    /// logs. Recording continues on subsequent runs.
    pub fn take_observations(&mut self) -> Vec<ShardObs> {
        self.shards
            .iter_mut()
            .map(|s| match s.obs.as_mut() {
                Some(obs) => std::mem::take(obs),
                None => ShardObs::default(),
            })
            .collect()
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of registered components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.index.len()
    }

    /// Iterates components in global registration order.
    pub fn components(&self) -> impl Iterator<Item = &C> {
        self.index
            .iter()
            .map(|&(s, l)| &self.shards[s as usize].comps[l as usize])
    }

    /// Consumes the kernel, returning components in global registration
    /// order.
    #[must_use]
    pub fn into_components(self) -> Vec<C> {
        let mut pools: Vec<Vec<Option<C>>> = self
            .shards
            .into_iter()
            .map(|s| s.comps.into_iter().map(Some).collect())
            .collect();
        self.index
            .iter()
            .filter_map(|&(s, l)| pools[s as usize][l as usize].take())
            .collect()
    }

    /// End of the grid-aligned epoch cell containing `t`.
    fn cell_end(&self, t: SimTime) -> SimTime {
        let w = self.window.as_micros().max(1);
        let cell = t.as_micros() / w;
        SimTime::from_micros(cell.saturating_add(1).saturating_mul(w))
    }

    /// Routes every envelope sent during the epoch ending at `epoch_end`
    /// straight into its destination inbox, verifying the lookahead
    /// contract and resolving the destination's local index on the way.
    fn route(&mut self, epoch_end: SimTime) -> Result<(), ShardError> {
        for i in 0..self.shards.len() {
            let mut outbox = std::mem::take(&mut self.shards[i].outbox);
            for mut env in outbox.drain(..) {
                if env.at < epoch_end {
                    return Err(ShardError::LookaheadViolation {
                        src: env.src,
                        at: env.at,
                        epoch_end,
                    });
                }
                let Some(&(s, l)) = self.index.get(env.dst as usize) else {
                    return Err(ShardError::UnknownSlot {
                        src: env.src,
                        dst: env.dst,
                    });
                };
                env.dst_local = l;
                self.shards[s as usize].inbox.push(Reverse(env));
            }
            self.shards[i].outbox = outbox;
        }
        Ok(())
    }

    /// Runs the scene until it is quiescent: epoch after epoch, every
    /// shard runs the grid cell holding the earliest pending event, then
    /// the epoch's messages are routed.
    pub fn run(&mut self) -> Result<ShardRunStats, ShardError> {
        let mut stats = ShardRunStats::default();
        while let Some(t) = self.shards.iter_mut().filter_map(Shard::next_time).min() {
            let end = self.cell_end(t);
            for s in &mut self.shards {
                s.run_epoch(end);
            }
            stats.epochs += 1;
            self.route(end)?;
        }
        for s in &self.shards {
            stats.events += s.events;
            stats.messages += s.messages;
            stats.end = stats.end.max(s.last);
            stats.trace_hash = mix(stats.trace_hash, s.trace_hash);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOP: SimDuration = SimDuration::from_millis(1);

    /// A chatty node: ticks once at `start`, then ping-pongs with `peer`
    /// until `rounds` messages have been received, logging every receipt.
    struct Chatty {
        peer: GlobalSlot,
        start: Option<SimTime>,
        rounds: u32,
        received: u32,
        log: Vec<(u64, u32)>,
    }

    impl Chatty {
        fn new(peer: GlobalSlot, start_us: u64, rounds: u32) -> Self {
            Chatty {
                peer,
                start: Some(SimTime::from_micros(start_us)),
                rounds,
                received: 0,
                log: Vec::new(),
            }
        }
    }

    impl ShardComponent<u32> for Chatty {
        fn next_tick(&self) -> Option<SimTime> {
            self.start
        }
        fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, u32>) {
            self.start = None;
            ctx.send(self.peer, now + HOP, 0);
        }
        fn on_message(&mut self, now: SimTime, msg: u32, ctx: &mut ShardCtx<'_, u32>) {
            self.received += 1;
            self.log.push((now.as_micros(), msg));
            if self.received < self.rounds {
                ctx.send(self.peer, now + HOP, msg + 1);
            }
        }
    }

    /// Builds a ring of `n` chatty pairs spread over `shards` shards.
    fn build_ring(shards: usize, n: usize, rounds: u32) -> ShardedKernel<u32, Chatty> {
        let mut k = ShardedKernel::new(shards, HOP).unwrap();
        // Slot ids are allocated in registration order, so peers can be
        // computed up front: component i talks to i^1 (its pair).
        for i in 0..n {
            let peer = GlobalSlot((i ^ 1) as u32);
            let c = Chatty::new(peer, (i as u64 * 37) % 500, rounds);
            k.add(i % shards, c).unwrap();
        }
        k
    }

    fn fingerprint(k: &ShardedKernel<u32, Chatty>) -> Vec<(u32, Vec<(u64, u32)>)> {
        k.components()
            .map(|c| (c.received, c.log.clone()))
            .collect()
    }

    #[test]
    fn ping_pong_terminates_with_expected_counts() {
        let mut k = build_ring(2, 2, 4);
        let stats = k.run().unwrap();
        // 2 ticks + messages until both sides have received 4.
        let comps: Vec<_> = k.components().collect();
        assert_eq!(comps[0].received, 4);
        assert_eq!(comps[1].received, 4);
        assert_eq!(stats.messages, 8);
        assert_eq!(stats.events, 10);
        assert!(stats.end > SimTime::ZERO);
    }

    #[test]
    fn partition_invariance_of_component_state() {
        let mut one = build_ring(1, 16, 8);
        let s_one = one.run().unwrap();
        let f_one = fingerprint(&one);
        for shards in [2usize, 3, 5, 16] {
            let mut k = build_ring(shards, 16, 8);
            let s = k.run().unwrap();
            assert_eq!(s.events, s_one.events, "events diverged at shards={shards}");
            assert_eq!(s.messages, s_one.messages);
            assert_eq!(s.end, s_one.end);
            assert_eq!(fingerprint(&k), f_one, "state diverged at shards={shards}");
        }
    }

    #[test]
    fn skip_ahead_keeps_epoch_count_low() {
        // Two components exchanging sparse messages 100 windows apart:
        // the kernel must skip empty windows rather than step each one.
        struct Sparse {
            peer: GlobalSlot,
            start: Option<SimTime>,
            left: u32,
        }
        impl ShardComponent<u32> for Sparse {
            fn next_tick(&self) -> Option<SimTime> {
                self.start
            }
            fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, u32>) {
                self.start = None;
                ctx.send(self.peer, now + HOP.mul_f64(100.0), 0);
            }
            fn on_message(&mut self, now: SimTime, _m: u32, ctx: &mut ShardCtx<'_, u32>) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send(self.peer, now + HOP.mul_f64(100.0), 0);
                }
            }
        }
        let mut k = ShardedKernel::new(2, HOP).unwrap();
        let a = k
            .add(
                0,
                Sparse {
                    peer: GlobalSlot(1),
                    start: Some(SimTime::ZERO),
                    left: 10,
                },
            )
            .unwrap();
        assert_eq!(a.index(), 0);
        k.add(
            1,
            Sparse {
                peer: a,
                start: None,
                left: 10,
            },
        )
        .unwrap();
        let stats = k.run().unwrap();
        assert!(
            stats.epochs <= stats.events + 1,
            "epochs {} not sparse",
            stats.epochs
        );
        assert!(stats.end >= SimTime::from_micros(100_000 * 11));
    }

    #[test]
    fn lookahead_violation_is_reported() {
        struct Rude {
            peer: GlobalSlot,
            start: Option<SimTime>,
        }
        impl ShardComponent<u32> for Rude {
            fn next_tick(&self) -> Option<SimTime> {
                self.start
            }
            fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, u32>) {
                self.start = None;
                // Latency shorter than the epoch window: must be caught.
                ctx.send(self.peer, now + SimDuration::from_micros(1), 0);
            }
            fn on_message(&mut self, _n: SimTime, _m: u32, _c: &mut ShardCtx<'_, u32>) {}
        }
        let mut k = ShardedKernel::new(2, HOP).unwrap();
        let a = k
            .add(
                0,
                Rude {
                    peer: GlobalSlot(1),
                    start: Some(SimTime::ZERO),
                },
            )
            .unwrap();
        k.add(
            1,
            Rude {
                peer: a,
                start: None,
            },
        )
        .unwrap();
        match k.run() {
            Err(ShardError::LookaheadViolation { src, .. }) => assert_eq!(src, 0),
            other => panic!("expected lookahead violation, got {other:?}"),
        }
    }

    #[test]
    fn unknown_destination_is_reported() {
        struct Wild {
            start: Option<SimTime>,
        }
        impl ShardComponent<u32> for Wild {
            fn next_tick(&self) -> Option<SimTime> {
                self.start
            }
            fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, u32>) {
                self.start = None;
                ctx.send(GlobalSlot(999), now + HOP, 0);
            }
            fn on_message(&mut self, _n: SimTime, _m: u32, _c: &mut ShardCtx<'_, u32>) {}
        }
        let mut k = ShardedKernel::new(1, HOP).unwrap();
        k.add(
            0,
            Wild {
                start: Some(SimTime::ZERO),
            },
        )
        .unwrap();
        match k.run() {
            Err(ShardError::UnknownSlot { dst, .. }) => assert_eq!(dst, 999),
            other => panic!("expected unknown slot, got {other:?}"),
        }
    }

    #[test]
    fn builder_errors() {
        assert_eq!(
            ShardedKernel::<u32, Chatty>::new(0, HOP).err(),
            Some(ShardError::NoShards)
        );
        assert_eq!(
            ShardedKernel::<u32, Chatty>::new(1, SimDuration::from_micros(0)).err(),
            Some(ShardError::ZeroWindow)
        );
        let mut k = ShardedKernel::<u32, Chatty>::new(2, HOP).unwrap();
        let c = Chatty::new(GlobalSlot(0), 0, 1);
        assert!(matches!(
            k.add(5, c),
            Err(ShardError::UnknownShard {
                shard: 5,
                shards: 2
            })
        ));
    }

    #[test]
    fn observer_event_stream_is_partition_invariant() {
        // Reference: single shard.
        let mut one = build_ring(1, 16, 8);
        one.enable_observer();
        let s_one = one.run().unwrap();
        let obs_one = one.take_observations();
        let merged_one = merge_events(&obs_one);
        assert_eq!(merged_one.len() as u64, s_one.events);
        // The merged stream is sorted by the canonical key.
        assert!(merged_one.windows(2).all(|w| w[0] <= w[1]));

        for shards in [2usize, 4, 16] {
            let mut k = build_ring(shards, 16, 8);
            k.enable_observer();
            let s = k.run().unwrap();
            let obs = k.take_observations();
            assert_eq!(obs.len(), shards);
            assert_eq!(
                merge_events(&obs),
                merged_one,
                "merged stream diverged at shards={shards}"
            );
            // Epoch deltas reconcile with the run totals.
            let events: u64 = obs.iter().flat_map(|o| &o.epochs).map(|d| d.events).sum();
            let messages: u64 = obs.iter().flat_map(|o| &o.epochs).map(|d| d.messages).sum();
            assert_eq!(events, s.events);
            assert_eq!(messages, s.messages);
            // Every shard logs every epoch, so the logs align by index.
            for o in &obs {
                assert_eq!(o.epochs.len() as u64, s.epochs);
            }
            let imbalance = epoch_imbalance(&obs);
            assert_eq!(imbalance.len() as u64, s.epochs);
            for epoch in &imbalance {
                assert!(epoch.max_events * (shards as u64) >= epoch.total_events);
                assert_eq!(
                    epoch.stall_events,
                    epoch.max_events * (shards as u64) - epoch.total_events
                );
            }
        }
    }

    #[test]
    fn observer_is_off_by_default_and_does_not_perturb_the_run() {
        let mut plain = build_ring(4, 16, 8);
        let s_plain = plain.run().unwrap();
        let f_plain = fingerprint(&plain);
        assert!(plain
            .take_observations()
            .iter()
            .all(|o| o.events.is_empty() && o.epochs.is_empty()));

        let mut observed = build_ring(4, 16, 8);
        observed.enable_observer();
        let s_obs = observed.run().unwrap();
        assert_eq!(s_obs, s_plain, "observer changed the simulated outcome");
        assert_eq!(fingerprint(&observed), f_plain);
    }

    #[test]
    fn into_components_preserves_global_order() {
        let mut k = build_ring(3, 8, 2);
        k.run().unwrap();
        let peers: Vec<usize> = k.into_components().iter().map(|c| c.peer.index()).collect();
        let expect: Vec<usize> = (0..8).map(|i| i ^ 1).collect();
        assert_eq!(peers, expect);
    }
}
