//! Datacenter-scale scene execution on the sharded kernel.
//!
//! Turns a [`SceneSpec`] (from `sdds-workloads`) into shard components —
//! [`ClientProc`]s behind `sdds-storage`'s shared links and burst-buffer
//! groups, plus one [`GlobalScheduler`] arbitrating the periodic global
//! I/O schedule — and drives them on a [`ShardedKernel`]. Every metric
//! except the trace hash is identical for any shard partition;
//! [`SceneResult::digest`] renders them as a canonical JSON line so tests
//! and CI can `cmp` runs byte for byte.
//!
//! Every send uses the scene's hop latency, and the kernel's epoch
//! window must not exceed it — [`build_scene`] enforces that lookahead
//! contract up front instead of failing mid-run.

use std::fmt;
use std::sync::Arc;

use sdds_power::scene::{SceneEnergy, ScenePower, ScenePowerParams};
use sdds_storage::scene::{BurstBufferGroup, GroupParams, SceneMsg, SceneRequest, SharedLink};
use sdds_workloads::{SceneClientSpec, SceneSpec};
use simkit::shard::{
    GlobalSlot, ShardComponent, ShardCtx, ShardError, ShardObs, ShardRunStats, ShardedKernel,
};
use simkit::{SimDuration, SimTime};

/// How many shards a scene runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// One shard per ~32 components (clamped to `1..=4096`).
    Auto,
    /// Exactly this many shards.
    Fixed(usize),
}

impl ShardPolicy {
    /// Resolves the policy for a scene with `components` components.
    #[must_use]
    pub fn resolve(self, components: usize) -> usize {
        match self {
            ShardPolicy::Auto => components.div_ceil(32).clamp(1, 4096),
            ShardPolicy::Fixed(n) => n.max(1),
        }
    }
}

/// Errors from building or running a scene.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SceneError {
    /// The epoch window is zero or exceeds the scene's hop latency, so
    /// the conservative lookahead contract cannot hold.
    BadEpoch {
        /// Requested epoch window in microseconds.
        window_us: u64,
        /// The scene's hop latency in microseconds.
        hop_us: u64,
    },
    /// The spec is internally inconsistent.
    BadSpec {
        /// What was wrong.
        what: &'static str,
    },
    /// The sharded kernel failed.
    Kernel(ShardError),
    /// Clients were still unfinished when the scene went quiescent.
    Stalled {
        /// Number of clients without a finish time.
        unfinished: usize,
    },
}

impl fmt::Display for SceneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SceneError::BadEpoch { window_us, hop_us } => write!(
                f,
                "epoch window {window_us}us must be positive and no longer than \
                 the scene hop latency {hop_us}us"
            ),
            SceneError::BadSpec { what } => write!(f, "invalid scene spec: {what}"),
            SceneError::Kernel(e) => write!(f, "sharded kernel failed: {e}"),
            SceneError::Stalled { unfinished } => {
                write!(
                    f,
                    "scene went quiescent with {unfinished} unfinished clients"
                )
            }
        }
    }
}

impl std::error::Error for SceneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SceneError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

/// A client process: alternating compute phases and I/O bursts, gated by
/// the global I/O schedule when the scene has one.
#[derive(Debug, Clone)]
pub struct ClientProc {
    spec: SceneClientSpec,
    hop: SimDuration,
    link: GlobalSlot,
    groups: Arc<[GlobalSlot]>,
    scheduler: Option<GlobalSlot>,
    /// Next tick time (end of the current compute phase).
    next: Option<SimTime>,
    iter: u32,
    outstanding: u32,
    window_until: SimTime,
    req_seq: u64,
    /// Completion time of the last iteration.
    pub finished: Option<SimTime>,
    /// Requests issued.
    pub issued: u64,
    /// Replies received.
    pub replies: u64,
}

impl ClientProc {
    fn new(
        spec: SceneClientSpec,
        hop: SimDuration,
        link: GlobalSlot,
        groups: Arc<[GlobalSlot]>,
        scheduler: Option<GlobalSlot>,
    ) -> Self {
        let first = SimTime::ZERO + spec.start_offset + spec.compute;
        ClientProc {
            spec,
            hop,
            link,
            groups,
            scheduler,
            next: Some(first),
            iter: 0,
            outstanding: 0,
            window_until: SimTime::ZERO,
            req_seq: 0,
            finished: None,
            issued: 0,
            replies: 0,
        }
    }

    /// Fires the current iteration's burst of requests at the link.
    fn issue_burst(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, SceneMsg>) {
        let n = self.groups.len().max(1);
        for k in 0..self.spec.burst {
            let idx = (self.spec.group_base + (self.iter * self.spec.burst + k) as usize) % n;
            let write = self.spec.write_period > 0
                && self
                    .req_seq
                    .is_multiple_of(u64::from(self.spec.write_period));
            let req = SceneRequest {
                id: self.req_seq,
                client: ctx.self_slot(),
                group: self.groups[idx],
                bytes: self.spec.req_bytes,
                write,
            };
            self.req_seq += 1;
            ctx.send(self.link, now + self.hop, SceneMsg::Request(req));
        }
        self.outstanding = self.spec.burst;
        self.issued += u64::from(self.spec.burst);
    }
}

impl ShardComponent<SceneMsg> for ClientProc {
    fn next_tick(&self) -> Option<SimTime> {
        self.next
    }

    fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, SceneMsg>) {
        // Compute phase over; burst if the window allows, else ask the
        // global scheduler when this class may do I/O.
        self.next = None;
        match self.scheduler {
            Some(sched) if now >= self.window_until => {
                ctx.send(
                    sched,
                    now + self.hop,
                    SceneMsg::WindowRequest {
                        client: ctx.self_slot(),
                        class: self.spec.class,
                    },
                );
            }
            _ => self.issue_burst(now, ctx),
        }
    }

    fn on_message(&mut self, now: SimTime, msg: SceneMsg, ctx: &mut ShardCtx<'_, SceneMsg>) {
        match msg {
            SceneMsg::Grant { until } => {
                self.window_until = until;
                if self.outstanding == 0 && self.finished.is_none() {
                    self.issue_burst(now, ctx);
                }
            }
            SceneMsg::Reply { .. } => {
                self.replies += 1;
                self.outstanding = self.outstanding.saturating_sub(1);
                if self.outstanding == 0 {
                    self.iter += 1;
                    if self.iter >= self.spec.iters {
                        self.finished = Some(now);
                    } else {
                        self.next = Some(now + self.spec.compute);
                    }
                }
            }
            _ => {}
        }
    }
}

/// The periodic global I/O scheduler: purely reactive window arithmetic.
///
/// Time is divided into repeating cycles of `classes` slices; a
/// [`SceneMsg::WindowRequest`] is answered with a [`SceneMsg::Grant`]
/// delivered exactly when the asking class's slice next opens (or
/// immediately, if it is already open), carrying the slice's end time.
#[derive(Debug, Clone)]
pub struct GlobalScheduler {
    classes: u64,
    slice_us: u64,
    hop: SimDuration,
    /// Grants issued.
    pub grants: u64,
}

impl GlobalScheduler {
    /// A scheduler with `classes` slices of `slice` each per cycle.
    #[must_use]
    pub fn new(classes: u32, slice: SimDuration, hop: SimDuration) -> Self {
        GlobalScheduler {
            classes: u64::from(classes.max(1)),
            slice_us: slice.as_micros().max(1),
            hop,
            grants: 0,
        }
    }
}

impl ShardComponent<SceneMsg> for GlobalScheduler {
    fn next_tick(&self) -> Option<SimTime> {
        None
    }

    fn tick(&mut self, _now: SimTime, _ctx: &mut ShardCtx<'_, SceneMsg>) {}

    fn on_message(&mut self, now: SimTime, msg: SceneMsg, ctx: &mut ShardCtx<'_, SceneMsg>) {
        let SceneMsg::WindowRequest { client, class } = msg else {
            return;
        };
        let cycle = self.slice_us * self.classes;
        let c = u64::from(class) % self.classes;
        // Earliest instant the grant could reach the client.
        let t = (now + self.hop).as_micros();
        let k = t / cycle;
        let open = k * cycle + c * self.slice_us;
        let (grant_at, until) = if t < open {
            (open, open + self.slice_us)
        } else if t < open + self.slice_us {
            (t, open + self.slice_us)
        } else {
            let open = (k + 1) * cycle + c * self.slice_us;
            (open, open + self.slice_us)
        };
        self.grants += 1;
        ctx.send(
            client,
            SimTime::from_micros(grant_at),
            SceneMsg::Grant {
                until: SimTime::from_micros(until),
            },
        );
    }
}

/// The concrete component type scenes run on the sharded kernel.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum SceneComponent {
    /// A burst-buffer I/O group.
    Group(BurstBufferGroup),
    /// A congestion-limited shared link.
    Link(SharedLink),
    /// A client process.
    Client(ClientProc),
    /// The global I/O schedule arbiter.
    Scheduler(GlobalScheduler),
}

impl ShardComponent<SceneMsg> for SceneComponent {
    fn next_tick(&self) -> Option<SimTime> {
        match self {
            SceneComponent::Group(c) => c.next_tick(),
            SceneComponent::Link(c) => c.next_tick(),
            SceneComponent::Client(c) => c.next_tick(),
            SceneComponent::Scheduler(c) => c.next_tick(),
        }
    }

    fn tick(&mut self, now: SimTime, ctx: &mut ShardCtx<'_, SceneMsg>) {
        match self {
            SceneComponent::Group(c) => c.tick(now, ctx),
            SceneComponent::Link(c) => c.tick(now, ctx),
            SceneComponent::Client(c) => c.tick(now, ctx),
            SceneComponent::Scheduler(c) => c.tick(now, ctx),
        }
    }

    fn on_message(&mut self, now: SimTime, msg: SceneMsg, ctx: &mut ShardCtx<'_, SceneMsg>) {
        match self {
            SceneComponent::Group(c) => c.on_message(now, msg, ctx),
            SceneComponent::Link(c) => c.on_message(now, msg, ctx),
            SceneComponent::Client(c) => c.on_message(now, msg, ctx),
            SceneComponent::Scheduler(c) => c.on_message(now, msg, ctx),
        }
    }
}

/// Builds the sharded kernel for `spec`: groups first, then links, then
/// clients, then the scheduler, all assigned to shards round-robin.
///
/// `window` is the epoch length; it must be positive and no longer than
/// `spec.hop_latency` (the scene's lookahead).
pub fn build_scene(
    spec: &SceneSpec,
    shards: usize,
    window: SimDuration,
) -> Result<ShardedKernel<SceneMsg, SceneComponent>, SceneError> {
    if window.is_zero() || window > spec.hop_latency {
        return Err(SceneError::BadEpoch {
            window_us: window.as_micros(),
            hop_us: spec.hop_latency.as_micros(),
        });
    }
    if spec.groups == 0 {
        return Err(SceneError::BadSpec {
            what: "zero I/O groups",
        });
    }
    if spec.links == 0 {
        return Err(SceneError::BadSpec {
            what: "zero shared links",
        });
    }
    for c in &spec.clients {
        if c.link >= spec.links {
            return Err(SceneError::BadSpec {
                what: "client references unknown link",
            });
        }
        if c.group_base >= spec.groups {
            return Err(SceneError::BadSpec {
                what: "client references unknown group",
            });
        }
        if c.burst == 0 || c.iters == 0 {
            return Err(SceneError::BadSpec {
                what: "client with empty burst or zero iters",
            });
        }
    }

    let mut kernel = ShardedKernel::new(shards, window).map_err(SceneError::Kernel)?;

    // Slots are handed out in registration order, so the layout is known
    // up front: groups, links, clients, scheduler.
    let group_slots: Arc<[GlobalSlot]> = (0..spec.groups).map(GlobalSlot::from_index).collect();
    let link_base = spec.groups;
    let client_base = link_base + spec.links;
    let scheduler_slot = spec
        .schedule
        .map(|_| GlobalSlot::from_index(client_base + spec.clients.len()));

    let mut at = 0usize;
    let mut place = |kernel: &mut ShardedKernel<SceneMsg, SceneComponent>,
                     c: SceneComponent|
     -> Result<GlobalSlot, SceneError> {
        let slot = kernel.add(at % shards, c).map_err(SceneError::Kernel)?;
        at += 1;
        Ok(slot)
    };

    let group_params = GroupParams {
        disks: spec.disks_per_group,
        disk_overhead: spec.disk_overhead,
        disk_bytes_per_sec: spec.disk_bytes_per_sec,
        bb_capacity: spec.bb_capacity,
        bb_bytes_per_sec: spec.bb_bytes_per_sec,
        bb_drain_chunk: spec.bb_drain_chunk,
        bb_drain_period: spec.bb_drain_period,
        hop: spec.hop_latency,
    };
    let power_params = ScenePowerParams::paper_scene(spec.idle_timeout);
    for _ in 0..spec.groups {
        let power = ScenePower::new(power_params, spec.disks_per_group);
        place(
            &mut kernel,
            SceneComponent::Group(BurstBufferGroup::new(group_params, power)),
        )?;
    }
    for _ in 0..spec.links {
        place(
            &mut kernel,
            SceneComponent::Link(SharedLink::new(spec.link_bytes_per_sec, spec.hop_latency)),
        )?;
    }
    for c in &spec.clients {
        let link = GlobalSlot::from_index(link_base + c.link);
        place(
            &mut kernel,
            SceneComponent::Client(ClientProc::new(
                *c,
                spec.hop_latency,
                link,
                Arc::clone(&group_slots),
                scheduler_slot,
            )),
        )?;
    }
    if let Some(sched) = spec.schedule {
        place(
            &mut kernel,
            SceneComponent::Scheduler(GlobalScheduler::new(
                sched.classes,
                sched.slice,
                spec.hop_latency,
            )),
        )?;
    }
    Ok(kernel)
}

/// Jobs-invariant metrics of one scene run.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneResult {
    /// Scale factor of the spec.
    pub scale: f64,
    /// Component count.
    pub components: usize,
    /// Shard count the run used.
    pub shards: usize,
    /// Epoch window in microseconds.
    pub epoch_us: u64,
    /// Total kernel events (ticks + message deliveries).
    pub events: u64,
    /// Message deliveries.
    pub messages: u64,
    /// Non-empty epochs executed.
    pub epochs: u64,
    /// Timestamp of the last event.
    pub end: SimTime,
    /// Latest client completion time.
    pub makespan: SimTime,
    /// Number of clients (all finished, or the run errors).
    pub clients: usize,
    /// Client requests issued.
    pub requests: u64,
    /// Grants issued by the global scheduler.
    pub grants: u64,
    /// Reads served from disk banks.
    pub reads: u64,
    /// Writes absorbed by burst buffers.
    pub buffered_writes: u64,
    /// Writes that bypassed a full buffer.
    pub direct_writes: u64,
    /// Bytes read from disks.
    pub bytes_read: u64,
    /// Bytes written (buffered + direct).
    pub bytes_written: u64,
    /// Bytes drained from burst buffers to disks.
    pub bb_drained: u64,
    /// Requests forwarded by shared links.
    pub link_forwarded: u64,
    /// Total link busy time in microseconds.
    pub link_busy_us: u64,
    /// Worst queueing backlog seen at any link, in microseconds.
    pub link_peak_backlog_us: u64,
    /// Disk energy split by residency.
    pub energy: SceneEnergy,
    /// Disk spin-ups across all banks.
    pub spin_ups: u64,
    /// Disk spin-downs across all banks.
    pub spin_downs: u64,
    /// Requests served by disk banks (incl. drain chunks).
    pub disk_requests: u64,
    /// Order-sensitive event digest (depends on the shard partition).
    pub trace_hash: u64,
}

impl SceneResult {
    /// Canonical one-line JSON digest (`sdds-scale-digest-v1`) of every
    /// field; byte-identical across runs of the same scene and partition.
    #[must_use]
    pub fn digest(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":\"sdds-scale-digest-v1\",\"scale\":{:.3},",
                "\"components\":{},\"shards\":{},\"epoch_us\":{},",
                "\"events\":{},\"messages\":{},\"epochs\":{},\"end_us\":{},",
                "\"makespan_us\":{},\"clients\":{},\"requests\":{},",
                "\"grants\":{},\"reads\":{},\"buffered_writes\":{},",
                "\"direct_writes\":{},\"bytes_read\":{},\"bytes_written\":{},",
                "\"bb_drained\":{},\"link_forwarded\":{},\"link_busy_us\":{},",
                "\"link_peak_backlog_us\":{},\"energy_j\":{:.6},",
                "\"active_j\":{:.6},\"idle_j\":{:.6},\"standby_j\":{:.6},",
                "\"spin_up_j\":{:.6},\"spin_ups\":{},\"spin_downs\":{},",
                "\"disk_requests\":{},\"trace_hash\":\"{:016x}\"}}"
            ),
            self.scale,
            self.components,
            self.shards,
            self.epoch_us,
            self.events,
            self.messages,
            self.epochs,
            self.end.as_micros(),
            self.makespan.as_micros(),
            self.clients,
            self.requests,
            self.grants,
            self.reads,
            self.buffered_writes,
            self.direct_writes,
            self.bytes_read,
            self.bytes_written,
            self.bb_drained,
            self.link_forwarded,
            self.link_busy_us,
            self.link_peak_backlog_us,
            self.energy.total(),
            self.energy.active_j,
            self.energy.idle_j,
            self.energy.standby_j,
            self.energy.spin_up_j,
            self.spin_ups,
            self.spin_downs,
            self.disk_requests,
            self.trace_hash,
        )
    }
}

/// Builds and runs `spec` on the shards `policy` resolves to, collecting
/// the [`SceneResult`]. The shards run on the calling thread; `_jobs` is
/// ignored.
pub fn run_scene(
    spec: &SceneSpec,
    policy: ShardPolicy,
    window: SimDuration,
    _jobs: usize,
) -> Result<SceneResult, SceneError> {
    let shards = policy.resolve(spec.component_count());
    let mut kernel = build_scene(spec, shards, window)?;
    let stats = kernel.run().map_err(SceneError::Kernel)?;
    collect_scene_result(kernel, spec, shards, window, stats)
}

/// Like [`run_scene`], but with the kernel's per-shard observer enabled:
/// additionally returns one [`ShardObs`] per shard (event logs in the
/// canonical partition-invariant key space plus aligned per-epoch
/// deltas) for load-imbalance accounting. The [`SceneResult`] is bitwise
/// identical to the unobserved run; `_jobs` is ignored.
pub fn run_scene_observed(
    spec: &SceneSpec,
    policy: ShardPolicy,
    window: SimDuration,
    _jobs: usize,
) -> Result<(SceneResult, Vec<ShardObs>), SceneError> {
    let shards = policy.resolve(spec.component_count());
    let mut kernel = build_scene(spec, shards, window)?;
    kernel.enable_observer();
    let stats = kernel.run().map_err(SceneError::Kernel)?;
    let obs = kernel.take_observations();
    let result = collect_scene_result(kernel, spec, shards, window, stats)?;
    Ok((result, obs))
}

/// Folds a finished kernel into its [`SceneResult`].
fn collect_scene_result(
    kernel: ShardedKernel<SceneMsg, SceneComponent>,
    spec: &SceneSpec,
    shards: usize,
    window: SimDuration,
    stats: ShardRunStats,
) -> Result<SceneResult, SceneError> {
    let mut r = SceneResult {
        scale: spec.scale,
        components: kernel.component_count(),
        shards,
        epoch_us: window.as_micros(),
        events: stats.events,
        messages: stats.messages,
        epochs: stats.epochs,
        end: stats.end,
        makespan: SimTime::ZERO,
        clients: 0,
        requests: 0,
        grants: 0,
        reads: 0,
        buffered_writes: 0,
        direct_writes: 0,
        bytes_read: 0,
        bytes_written: 0,
        bb_drained: 0,
        link_forwarded: 0,
        link_busy_us: 0,
        link_peak_backlog_us: 0,
        energy: SceneEnergy::default(),
        spin_ups: 0,
        spin_downs: 0,
        disk_requests: 0,
        trace_hash: stats.trace_hash,
    };

    let mut unfinished = 0usize;
    // Global registration order keeps every floating-point accumulation
    // sequence fixed, independent of the shard partition.
    for comp in kernel.into_components() {
        match comp {
            SceneComponent::Group(mut g) => {
                g.finish(stats.end);
                let e = g.power().energy();
                r.energy.active_j += e.active_j;
                r.energy.idle_j += e.idle_j;
                r.energy.standby_j += e.standby_j;
                r.energy.spin_up_j += e.spin_up_j;
                r.spin_ups += g.power().spin_ups;
                r.spin_downs += g.power().spin_downs;
                r.disk_requests += g.power().requests;
                r.reads += g.stats.reads;
                r.buffered_writes += g.stats.buffered_writes;
                r.direct_writes += g.stats.direct_writes;
                r.bytes_read += g.stats.bytes_read;
                r.bytes_written += g.stats.bytes_written;
                r.bb_drained += g.stats.bb_drained;
            }
            SceneComponent::Link(l) => {
                r.link_forwarded += l.stats.forwarded;
                r.link_busy_us += l.stats.busy_us;
                r.link_peak_backlog_us = r.link_peak_backlog_us.max(l.stats.peak_backlog_us);
            }
            SceneComponent::Client(c) => {
                r.clients += 1;
                r.requests += c.issued;
                match c.finished {
                    Some(t) => r.makespan = r.makespan.max(t),
                    None => unfinished += 1,
                }
            }
            SceneComponent::Scheduler(s) => {
                r.grants += s.grants;
            }
        }
    }
    if unfinished > 0 {
        return Err(SceneError::Stalled { unfinished });
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_workloads::scaled_scene;

    fn small_spec() -> SceneSpec {
        scaled_scene(0.25)
    }

    #[test]
    fn small_scene_runs_to_completion() {
        let spec = small_spec();
        let r = run_scene(&spec, ShardPolicy::Auto, spec.hop_latency, 1).unwrap();
        assert_eq!(r.clients, spec.clients.len());
        assert!(r.makespan > SimTime::ZERO);
        assert_eq!(r.requests, r.reads + r.buffered_writes + r.direct_writes);
        assert!(
            r.grants >= spec.clients.len() as u64,
            "schedule not exercised"
        );
        assert!(r.link_peak_backlog_us > 0, "no congestion at the links");
        assert!(r.bb_drained > 0, "burst buffer never drained");
        assert!(r.energy.total() > 0.0);
    }

    #[test]
    fn metrics_are_partition_invariant() {
        let spec = small_spec();
        let one = run_scene(&spec, ShardPolicy::Fixed(1), spec.hop_latency, 1).unwrap();
        let many = run_scene(&spec, ShardPolicy::Fixed(7), spec.hop_latency, 1).unwrap();
        // Everything except the shard count and the partition-sensitive
        // trace hash must agree with the single-shard run.
        assert_eq!(one.events, many.events);
        assert_eq!(one.makespan, many.makespan);
        assert_eq!(one.end, many.end);
        assert_eq!(one.requests, many.requests);
        assert_eq!(one.grants, many.grants);
        assert_eq!(one.bytes_read, many.bytes_read);
        assert_eq!(one.bytes_written, many.bytes_written);
        assert_eq!(one.energy, many.energy);
    }

    #[test]
    fn observed_run_matches_unobserved_and_reconciles() {
        let spec = small_spec();
        let plain = run_scene(&spec, ShardPolicy::Fixed(5), spec.hop_latency, 1).unwrap();
        let (observed, obs) =
            run_scene_observed(&spec, ShardPolicy::Fixed(5), spec.hop_latency, 1).unwrap();
        assert_eq!(
            observed.digest(),
            plain.digest(),
            "observer perturbed the run"
        );
        assert_eq!(obs.len(), 5);
        let events: u64 = obs.iter().map(|o| o.events.len() as u64).sum();
        assert_eq!(events, observed.events);
        let epoch_events: u64 = obs.iter().flat_map(|o| &o.epochs).map(|d| d.events).sum();
        assert_eq!(epoch_events, observed.events);
        // The merged stream is partition-invariant: a 1-shard run yields
        // the identical canonical event sequence.
        let (_, obs_one) =
            run_scene_observed(&spec, ShardPolicy::Fixed(1), spec.hop_latency, 1).unwrap();
        assert_eq!(
            simkit::shard::merge_events(&obs),
            simkit::shard::merge_events(&obs_one)
        );
    }

    #[test]
    fn epoch_longer_than_hop_is_rejected() {
        let spec = small_spec();
        let window = spec.hop_latency + SimDuration::from_micros(1);
        match build_scene(&spec, 2, window) {
            Err(SceneError::BadEpoch { .. }) => {}
            other => panic!("expected BadEpoch, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn schedule_gates_bursts_into_slices() {
        // With the schedule on, grants equal client iterations; without
        // it, no grants exist and the makespan shrinks.
        let spec = small_spec();
        let gated = run_scene(&spec, ShardPolicy::Auto, spec.hop_latency, 1).unwrap();
        let mut free = spec.clone();
        free.schedule = None;
        let open = run_scene(&free, ShardPolicy::Auto, free.hop_latency, 1).unwrap();
        assert_eq!(open.grants, 0);
        assert!(gated.grants > 0);
        assert!(
            gated.makespan >= open.makespan,
            "schedule cannot speed clients up"
        );
    }
}
