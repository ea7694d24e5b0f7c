//! Property tests for the disk model: conservation laws over arbitrary
//! request streams and power-state command sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sdds_disk::{
    Disk, DiskParams, DiskRequest, DiskState, EnergyAccount, RequestKind, Rpm, RpmChangePriority,
};
use simkit::{SimDuration, SimTime};

/// An arbitrary workload step.
#[derive(Debug, Clone)]
enum Step {
    Submit {
        gap_us: u64,
        lba: u64,
        sectors: u32,
        write: bool,
    },
    SpinDown {
        gap_us: u64,
    },
    SpinUp {
        gap_us: u64,
    },
    Rpm {
        gap_us: u64,
        level: usize,
        immediate: bool,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..2_000_000, 0u64..1_000_000, 1u32..600, any::<bool>()).prop_map(
            |(gap_us, lba, sectors, write)| Step::Submit {
                gap_us,
                lba,
                sectors,
                write
            }
        ),
        (0u64..30_000_000).prop_map(|gap_us| Step::SpinDown { gap_us }),
        (0u64..30_000_000).prop_map(|gap_us| Step::SpinUp { gap_us }),
        (0u64..10_000_000, 0usize..8, any::<bool>()).prop_map(|(gap_us, level, immediate)| {
            Step::Rpm {
                gap_us,
                level,
                immediate,
            }
        }),
    ]
}

/// One state of each kind the ledger keeps a bucket for.
fn ledger_states() -> [DiskState; 7] {
    let rpm = Rpm::new(12_000);
    [
        DiskState::Transferring { rpm },
        DiskState::Standby,
        DiskState::Idle { rpm },
        DiskState::SpinningUp,
        DiskState::ChangingSpeed {
            from: rpm,
            to: Rpm::new(3_600),
        },
        DiskState::Seeking { rpm },
        DiskState::SpinningDown,
    ]
}

/// Reference ledger: the string-keyed map the flat account replaced.
#[derive(Debug, Default)]
struct MapLedger(BTreeMap<&'static str, (f64, SimDuration)>);

impl MapLedger {
    fn accrue(&mut self, state: &DiskState, watts: f64, duration: SimDuration) {
        if duration.is_zero() {
            return;
        }
        let e = self
            .0
            .entry(state.label())
            .or_insert((0.0, SimDuration::ZERO));
        e.0 += watts * duration.as_secs_f64();
        e.1 += duration;
    }

    fn merge(&mut self, other: &MapLedger) {
        for (state, (joules, residency)) in &other.0 {
            let e = self.0.entry(state).or_insert((0.0, SimDuration::ZERO));
            e.0 += joules;
            e.1 += *residency;
        }
    }

    fn total_joules(&self) -> f64 {
        self.0.values().map(|e| e.0).sum()
    }
}

/// An accrual `(state index, watts, microseconds)`; a quarter are empty.
fn arb_accrual() -> impl Strategy<Value = (usize, f64, u64)> {
    (0usize..7, 0.0f64..45.0, 0u64..4, 1u64..5_000_000)
        .prop_map(|(state, watts, empty, us)| (state, watts, if empty == 0 { 0 } else { us }))
}

/// Asserts the flat ledger equals the reference bit for bit.
fn assert_same_ledger(acct: &EnergyAccount, reference: &MapLedger) {
    let got: Vec<_> = acct
        .iter()
        .map(|(state, e)| (state, e.joules.to_bits(), e.residency))
        .collect();
    let want: Vec<_> = reference
        .0
        .iter()
        .map(|(state, (joules, residency))| (*state, joules.to_bits(), *residency))
        .collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(
        acct.total_joules().to_bits(),
        reference.total_joules().to_bits()
    );
    for state in ledger_states() {
        let (joules, residency) = reference
            .0
            .get(state.label())
            .copied()
            .unwrap_or((0.0, SimDuration::ZERO));
        prop_assert_eq!(acct.joules(state.label()).to_bits(), joules.to_bits());
        prop_assert_eq!(acct.residency(state.label()), residency);
    }
}

proptest! {
    /// The flat per-state ledger matches a sorted string-keyed map over
    /// any accrue/merge sequence: same visited states in the same order,
    /// same residencies, and bitwise-equal joules and totals.
    #[test]
    fn ledger_matches_map_reference(
        steps in prop::collection::vec(
            (arb_accrual(), prop::collection::vec(arb_accrual(), 0..6)),
            1..40,
        ),
    ) {
        let states = ledger_states();
        let mut acct = EnergyAccount::new();
        let mut reference = MapLedger::default();
        for ((state, watts, us), merged) in steps {
            let d = SimDuration::from_micros(us);
            acct.accrue(&states[state], watts, d);
            reference.accrue(&states[state], watts, d);
            // Merge a freshly accrued account (empty when `merged` is).
            let mut other = EnergyAccount::new();
            let mut other_ref = MapLedger::default();
            for (state, watts, us) in merged {
                let d = SimDuration::from_micros(us);
                other.accrue(&states[state], watts, d);
                other_ref.accrue(&states[state], watts, d);
            }
            assert_same_ledger(&other, &other_ref);
            acct.merge(&other);
            reference.merge(&other_ref);
            assert_same_ledger(&acct, &reference);
        }
        let total: SimDuration = reference.0.values().map(|e| e.1).sum();
        prop_assert_eq!(acct.total_time(), total);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any interleaving of requests and power commands:
    /// * every submitted request is eventually completed,
    /// * accounted residency equals elapsed simulated time,
    /// * energy equals the sum of the per-state buckets,
    /// * completions are causally ordered (completion >= arrival).
    #[test]
    fn disk_conservation_laws(steps in prop::collection::vec(arb_step(), 1..60)) {
        let params = DiskParams::paper_defaults();
        let levels = params.rpm_levels();
        let mut disk = Disk::new(params.clone()).unwrap();
        let mut now = SimTime::ZERO;
        let mut submitted = 0u64;
        let mut id = 0u64;
        for step in steps {
            match step {
                Step::Submit { gap_us, lba, sectors, write } => {
                    now += simkit::SimDuration::from_micros(gap_us);
                    let kind = if write { RequestKind::Write } else { RequestKind::Read };
                    let lba = lba % (params.total_sectors() - 1_000);
                    disk.submit(DiskRequest::new(id, kind, lba, sectors), now);
                    id += 1;
                    submitted += 1;
                }
                Step::SpinDown { gap_us } => {
                    now += simkit::SimDuration::from_micros(gap_us);
                    let _ = disk.start_spin_down(now);
                }
                Step::SpinUp { gap_us } => {
                    now += simkit::SimDuration::from_micros(gap_us);
                    let _ = disk.start_spin_up(now);
                }
                Step::Rpm { gap_us, level, immediate } => {
                    now += simkit::SimDuration::from_micros(gap_us);
                    let target = levels[level % levels.len()];
                    let priority = if immediate {
                        RpmChangePriority::Immediate
                    } else {
                        RpmChangePriority::WhenIdle
                    };
                    let _ = disk.request_rpm_change(now, target, priority);
                }
            }
        }
        // Let everything drain: generous horizon (every request takes far
        // less than a minute even through spin cycles).
        let horizon = now + simkit::SimDuration::from_secs(120 + 40 * submitted);
        disk.finish(horizon);
        let done = disk.drain_completions();
        prop_assert_eq!(done.len() as u64, submitted, "requests lost");
        prop_assert_eq!(disk.outstanding(), 0);
        for c in &done {
            prop_assert!(c.completion >= c.arrival);
            prop_assert!(c.service_start >= c.arrival);
            prop_assert!(c.completion >= c.service_start);
        }
        // Time conservation.
        let accounted = disk.energy().total_time().as_micros();
        prop_assert_eq!(accounted, horizon.as_micros(), "unaccounted time");
        // Energy closure.
        let total = disk.energy().total_joules();
        let by_state: f64 = disk.energy().iter().map(|(_, e)| e.joules).sum();
        prop_assert!((total - by_state).abs() < 1e-6);
        // Energy is bounded by the envelope of max and min powers.
        let hours = horizon.as_micros() as f64 / 1e6;
        prop_assert!(total <= 44.8 * hours + 1e-6);
        prop_assert!(total >= 3.0 * hours - 1e-6); // > electronics floor
    }

    /// A disk left alone at any reachable state stays consistent: finishing
    /// twice at increasing times accrues idle-family energy only.
    #[test]
    fn idle_disk_energy_is_linear(secs_a in 1u64..100, secs_b in 1u64..100) {
        let mut d1 = Disk::new(DiskParams::paper_defaults()).unwrap();
        d1.finish(SimTime::ZERO + simkit::SimDuration::from_secs(secs_a));
        let mut d2 = Disk::new(DiskParams::paper_defaults()).unwrap();
        d2.finish(SimTime::ZERO + simkit::SimDuration::from_secs(secs_a + secs_b));
        let rate1 = d1.energy().total_joules() / secs_a as f64;
        let rate2 = d2.energy().total_joules() / (secs_a + secs_b) as f64;
        prop_assert!((rate1 - 17.1).abs() < 1e-6);
        prop_assert!((rate2 - 17.1).abs() < 1e-6);
    }

    /// Service time is monotone in request size at any speed.
    #[test]
    fn bigger_requests_take_longer(sectors_small in 1u32..200, extra in 1u32..400, level in 0usize..8) {
        use sdds_disk::service::service_timing;
        let params = DiskParams::paper_defaults();
        let levels = params.rpm_levels();
        let rpm: Rpm = levels[level % levels.len()];
        let small = DiskRequest::new(0, RequestKind::Read, 0, sectors_small);
        let large = DiskRequest::new(1, RequestKind::Read, 0, sectors_small + extra);
        let ts = service_timing(&params, &small, 0, rpm);
        let tl = service_timing(&params, &large, 0, rpm);
        prop_assert!(tl.total() >= ts.total());
    }
}
