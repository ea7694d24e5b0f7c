//! Differential test for quiet-node coasting: a `StorageSystem` must match
//! a reference array that runs the full `IoNode::advance_to` on every node
//! at every event and drains every node afterwards, bit for bit.

use std::collections::{HashMap, HashSet};

use sdds_power::PolicyKind;
use sdds_storage::{
    AccessKind, FileAccess, FileId, IoNode, NodeOp, StorageConfig, StorageSystem, StripingLayout,
};
use simkit::fault::{FaultPlan, FaultSpec};
use simkit::{DetRng, SimDuration, SimTime};

/// The array as driven before coasting: every node advances eagerly, and
/// every node is drained after each submit and advance.
struct EagerArray {
    layout: StripingLayout,
    nodes: Vec<IoNode>,
    next_access: u64,
    /// access -> (outstanding node ops, latest completion seen so far).
    pending: HashMap<u64, (usize, SimTime)>,
    /// (node index, node op id) -> access.
    op_owner: HashMap<(usize, u64), u64>,
    completions: Vec<(u64, SimTime)>,
}

impl EagerArray {
    fn new(config: &StorageConfig) -> Self {
        let nodes = (0..config.layout.io_nodes())
            .map(|i| IoNode::new(i, &config.node).unwrap())
            .collect();
        EagerArray {
            layout: config.layout.clone(),
            nodes,
            next_access: 0,
            pending: HashMap::new(),
            op_owner: HashMap::new(),
            completions: Vec::new(),
        }
    }

    fn submit(&mut self, access: FileAccess, t: SimTime) -> u64 {
        let id = self.next_access;
        self.next_access += 1;
        let mut outstanding = 0;
        let mut hit_latest = t;
        let mut seen = HashSet::new();
        for (node, block, _, _) in self
            .layout
            .split_range(access.file, access.offset, access.len)
        {
            if !seen.insert((node, block)) {
                continue;
            }
            let key = (access.file, block);
            let op = match access.kind {
                AccessKind::Read => self.nodes[node].submit_read_for(key, t, Some(id)),
                AccessKind::Write => self.nodes[node].submit_write_for(key, t, Some(id)),
            };
            match op {
                NodeOp::Hit(done) => hit_latest = hit_latest.max(done),
                NodeOp::Pending(op) => {
                    outstanding += 1;
                    self.op_owner.insert((node, op), id);
                }
            }
        }
        if outstanding == 0 {
            self.completions.push((id, hit_latest));
        } else {
            self.pending.insert(id, (outstanding, hit_latest));
        }
        self.collect();
        id
    }

    fn advance_to(&mut self, t: SimTime) {
        for node in &mut self.nodes {
            node.advance_to(t);
        }
        self.collect();
    }

    fn finish(&mut self, t: SimTime) {
        for node in &mut self.nodes {
            node.finish(t);
        }
        self.collect();
    }

    fn next_event_time(&self) -> Option<SimTime> {
        self.nodes.iter().filter_map(IoNode::next_event_time).min()
    }

    fn collect(&mut self) {
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            for (op, time) in node.drain_completions() {
                let access = self.op_owner.remove(&(idx, op)).unwrap();
                let entry = self.pending.get_mut(&access).unwrap();
                entry.0 -= 1;
                entry.1 = entry.1.max(time);
                if entry.0 == 0 {
                    let (_, done) = self.pending.remove(&access).unwrap();
                    self.completions.push((access, done));
                }
            }
        }
    }
}

/// A random access: a few files, reads and writes, one byte to 600 KiB.
fn random_access(rng: &mut DetRng) -> FileAccess {
    let file = FileId(rng.range_u64(0, 3) as u32);
    let offset = rng.range_u64(0, 64 << 20);
    let len = rng.range_u64(1, 600 << 10);
    if rng.chance(0.7) {
        FileAccess::read(file, offset, len)
    } else {
        FileAccess::write(file, offset, len)
    }
}

/// Bursts of closely spaced accesses separated by gaps long enough for
/// every policy to act (spin-down timeouts, speed steps, spin-ups).
fn random_gap(rng: &mut DetRng) -> SimDuration {
    let us = match rng.range_u64(0, 10) {
        0 | 1 => rng.range_u64(10_000_000, 90_000_000),
        2 => rng.range_u64(200_000, 5_000_000),
        _ => rng.range_u64(0, 40_000),
    };
    SimDuration::from_micros(us)
}

/// Drives both arrays through the same submit/advance stream, asserts
/// they stay identical, and returns the coasting array.
fn assert_parity(config: StorageConfig, seed: u64, accesses: usize) -> StorageSystem {
    let mut sys = StorageSystem::new(config.clone()).unwrap();
    let mut eager = EagerArray::new(&config);
    let mut rng = DetRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut done = Vec::new();
    let mut expected = Vec::new();
    let drive_to = |sys: &mut StorageSystem, eager: &mut EagerArray, until: SimTime| {
        // Fire every event due by `until`, in time order, like the engine.
        loop {
            let next = sys.next_event_time();
            assert_eq!(next, eager.next_event_time(), "next event time diverged");
            match next {
                Some(at) if at <= until => {
                    sys.advance_to(at);
                    eager.advance_to(at);
                }
                _ => break,
            }
        }
    };
    for _ in 0..accesses {
        let at = now + random_gap(&mut rng);
        drive_to(&mut sys, &mut eager, at);
        // Sometimes cut the array at an instant no event asked for.
        if rng.chance(0.2) {
            sys.advance_to(at);
            eager.advance_to(at);
        }
        let access = random_access(&mut rng);
        let id = sys.submit(access, at);
        assert_eq!(id.0, eager.submit(access, at));
        sys.drain_completions_into(&mut done);
        expected.append(&mut eager.completions);
        now = at;
    }
    let horizon = now + SimDuration::from_secs(120);
    drive_to(&mut sys, &mut eager, horizon);
    sys.finish(horizon);
    eager.finish(horizon);
    sys.drain_completions_into(&mut done);
    expected.append(&mut eager.completions);

    let done: Vec<(u64, SimTime)> = done.iter().map(|c| (c.access.0, c.time)).collect();
    assert_eq!(done.len(), accesses, "every access completes");
    assert_eq!(done, expected, "completion sequences diverged");
    for (a, b) in sys.nodes().iter().zip(&eager.nodes) {
        assert_eq!(a.idle_histogram(), b.idle_histogram());
        assert_eq!(a.idle_time_histogram(), b.idle_time_histogram());
        assert_eq!(a.fault_counters(), b.fault_counters());
        for (da, db) in a.disks().iter().zip(b.disks()) {
            let ledger = |d: &sdds_disk::Disk| {
                d.energy()
                    .iter()
                    .map(|(state, e)| (state, e.joules.to_bits(), e.residency))
                    .collect::<Vec<_>>()
            };
            assert_eq!(ledger(da), ledger(db), "node {} ledger", a.id());
            assert_eq!(
                da.energy().total_joules().to_bits(),
                db.energy().total_joules().to_bits()
            );
            assert_eq!(da.advance_calls(), db.advance_calls());
            assert_eq!(da.counters(), db.counters());
        }
    }
    let eager_total: f64 = eager.nodes.iter().map(IoNode::total_joules).sum();
    assert_eq!(sys.total_joules().to_bits(), eager_total.to_bits());
    sys
}

fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::NoPm,
        PolicyKind::simple_spin_down_default(),
        PolicyKind::predictive_spin_down_default(),
        PolicyKind::history_based_default(),
        PolicyKind::staggered_default(),
        PolicyKind::online_spin_down_default(3),
        PolicyKind::online_multi_speed_default(5),
    ]
}

#[test]
fn coasting_matches_eager_advance_under_every_policy() {
    for (i, policy) in policies().into_iter().enumerate() {
        for seed in 0..2 {
            let sys = assert_parity(
                StorageConfig::paper_defaults(policy.clone()),
                100 * i as u64 + seed,
                150,
            );
            let actions: u64 = sys
                .nodes()
                .iter()
                .flat_map(IoNode::disks)
                .map(|d| d.counters().spin_downs + d.counters().rpm_changes)
                .sum();
            // The stream's long gaps must make every power-managing
            // policy act, or the comparison never reaches its timers.
            assert_eq!(actions == 0, policy == PolicyKind::NoPm, "{policy:?}");
        }
    }
}

#[test]
fn coasting_matches_eager_advance_with_faults() {
    for policy in [PolicyKind::NoPm, PolicyKind::history_based_default()] {
        let mut config = StorageConfig::paper_defaults(policy);
        // Faults on the first half of the nodes only: faulty nodes always
        // take the full path while their fault-free peers may coast.
        config.node.faults = Some(FaultPlan::generate(
            &FaultSpec::heavy(11),
            config.layout.io_nodes() / 2,
            config.node.raid.disks(),
            config.node.disk.total_sectors(),
        ));
        let sys = assert_parity(config, 7, 150);
        assert!(sys.fault_counters().total_injected() > 0);
    }
}
