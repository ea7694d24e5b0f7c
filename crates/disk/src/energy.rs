//! Per-state energy accounting.

use simkit::SimDuration;

use crate::state::DiskState;

/// Bucket labels, one per [`DiskState`] kind, in sorted order so that
/// iteration (and every float sum over the buckets) runs in label order.
const LABELS: [&str; 7] = [
    "idle",
    "seek",
    "speed-change",
    "spin-down",
    "spin-up",
    "standby",
    "transfer",
];

/// The bucket of `state`: its label's position in [`LABELS`].
fn bucket(state: &DiskState) -> usize {
    match state {
        DiskState::Idle { .. } => 0,
        DiskState::Seeking { .. } => 1,
        DiskState::ChangingSpeed { .. } => 2,
        DiskState::SpinningDown => 3,
        DiskState::SpinningUp => 4,
        DiskState::Standby => 5,
        DiskState::Transferring { .. } => 6,
    }
}

/// Accumulates energy (joules) and residency (time) per disk-state kind.
///
/// The ledger is a fixed array with one bucket per [`DiskState`] kind,
/// so accrual is an index, not a lookup. A bucket counts as visited once
/// it holds nonzero residency (zero-length accruals are dropped); only
/// visited buckets are iterated, summed and merged, in label order.
///
/// # Example
///
/// ```
/// use sdds_disk::{DiskState, EnergyAccount, Rpm};
/// use simkit::SimDuration;
///
/// let mut acct = EnergyAccount::new();
/// let idle = DiskState::Idle { rpm: Rpm::new(12_000) };
/// acct.accrue(&idle, 17.1, SimDuration::from_secs(10));
/// assert!((acct.total_joules() - 171.0).abs() < 1e-9);
/// assert_eq!(acct.residency("idle"), SimDuration::from_secs(10));
/// ```
// The derived equality compares every bucket; unvisited buckets are all
// zero on both sides, so it agrees with comparing the visited ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyAccount {
    buckets: [StateEnergy; LABELS.len()],
}

/// Energy and residency of one state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StateEnergy {
    /// Joules consumed while in this state.
    pub joules: f64,
    /// Total time spent in this state.
    pub residency: SimDuration,
}

impl EnergyAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `duration` at `watts` to the bucket for `state`'s kind.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    pub fn accrue(&mut self, state: &DiskState, watts: f64, duration: SimDuration) {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "power must be non-negative and finite, got {watts}"
        );
        if duration.is_zero() {
            return;
        }
        let entry = &mut self.buckets[bucket(state)];
        entry.joules += watts * duration.as_secs_f64();
        entry.residency += duration;
    }

    /// Total energy across all states, in joules.
    pub fn total_joules(&self) -> f64 {
        self.iter().map(|(_, s)| s.joules).sum()
    }

    /// Total accounted time across all states.
    pub fn total_time(&self) -> SimDuration {
        self.buckets.iter().map(|s| s.residency).sum()
    }

    /// Energy for one state label, in joules (zero if never visited or
    /// not a state label).
    pub fn joules(&self, state: &str) -> f64 {
        self.get(state).map_or(0.0, |s| s.joules)
    }

    /// Residency for one state label (zero if never visited or not a
    /// state label).
    pub fn residency(&self, state: &str) -> SimDuration {
        self.get(state).map_or(SimDuration::ZERO, |s| s.residency)
    }

    /// Iterates `(state, energy)` pairs over the visited states in
    /// deterministic (sorted label) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &StateEnergy)> {
        LABELS
            .iter()
            .zip(&self.buckets)
            .filter(|(_, s)| !s.residency.is_zero())
            .map(|(label, s)| (*label, s))
    }

    /// Merges another account into this one.
    pub fn merge(&mut self, other: &EnergyAccount) {
        for (entry, e) in self.buckets.iter_mut().zip(&other.buckets) {
            if !e.residency.is_zero() {
                entry.joules += e.joules;
                entry.residency += e.residency;
            }
        }
    }

    fn get(&self, state: &str) -> Option<&StateEnergy> {
        let i = LABELS.iter().position(|l| *l == state)?;
        Some(&self.buckets[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Rpm;

    const IDLE: DiskState = DiskState::Idle {
        rpm: Rpm::new(12_000),
    };
    const SEEK: DiskState = DiskState::Seeking {
        rpm: Rpm::new(12_000),
    };

    #[test]
    fn accrue_and_query() {
        let mut a = EnergyAccount::new();
        a.accrue(&IDLE, 10.0, SimDuration::from_secs(2));
        a.accrue(&SEEK, 30.0, SimDuration::from_millis(500));
        a.accrue(&IDLE, 10.0, SimDuration::from_secs(1));
        assert!((a.joules("idle") - 30.0).abs() < 1e-9);
        assert!((a.joules("seek") - 15.0).abs() < 1e-9);
        assert_eq!(a.joules("standby"), 0.0);
        assert_eq!(a.joules("no-such-state"), 0.0);
        assert!((a.total_joules() - 45.0).abs() < 1e-9);
        assert_eq!(a.residency("idle"), SimDuration::from_secs(3));
        assert_eq!(a.total_time(), SimDuration::from_micros(3_500_000));
    }

    #[test]
    fn zero_duration_is_noop() {
        let mut a = EnergyAccount::new();
        a.accrue(&IDLE, 100.0, SimDuration::ZERO);
        assert_eq!(a.total_joules(), 0.0);
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = EnergyAccount::new();
        a.accrue(&IDLE, 10.0, SimDuration::from_secs(1));
        let mut b = EnergyAccount::new();
        b.accrue(&IDLE, 10.0, SimDuration::from_secs(2));
        b.accrue(&DiskState::Standby, 5.0, SimDuration::from_secs(4));
        a.merge(&b);
        assert!((a.joules("idle") - 30.0).abs() < 1e-9);
        assert!((a.joules("standby") - 20.0).abs() < 1e-9);
    }

    #[test]
    fn energy_equals_power_times_residency_per_state() {
        // Invariant the property tests also exercise at the Disk level.
        let mut a = EnergyAccount::new();
        let transfer = DiskState::Transferring {
            rpm: Rpm::new(12_000),
        };
        a.accrue(&transfer, 36.6, SimDuration::from_millis(1_234));
        let e = a.joules("transfer");
        let t = a.residency("transfer").as_secs_f64();
        assert!((e - 36.6 * t).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_watts_panics() {
        EnergyAccount::new().accrue(&IDLE, -1.0, SimDuration::from_secs(1));
    }

    #[test]
    fn iter_sorted() {
        let mut a = EnergyAccount::new();
        a.accrue(&DiskState::Standby, 1.0, SimDuration::from_secs(1));
        a.accrue(&IDLE, 1.0, SimDuration::from_secs(1));
        let keys: Vec<_> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["idle", "standby"]);
    }

    #[test]
    fn buckets_follow_sorted_state_labels() {
        let rpm = Rpm::new(12_000);
        let states = [
            DiskState::Idle { rpm },
            DiskState::Seeking { rpm },
            DiskState::Transferring { rpm },
            DiskState::SpinningDown,
            DiskState::Standby,
            DiskState::SpinningUp,
            DiskState::ChangingSpeed { from: rpm, to: rpm },
        ];
        for s in &states {
            assert_eq!(LABELS[bucket(s)], s.label());
        }
        assert!(LABELS.windows(2).all(|w| w[0] < w[1]));
    }
}
