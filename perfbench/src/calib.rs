//! Host-speed calibration: a fixed kernel that shares no code with the
//! program, timed between operations.
//!
//! The benchmark runs on shared hosts whose speed drifts by 10% or more
//! over tens of seconds as neighbours load the machine. The kernel is
//! slowed by the same contention, so each operation's host time is scaled
//! by the kernel's nominal time over the median kernel time of the
//! samples around it (three before, three after): the result is the time
//! the operation would take at the kernel's nominal speed. Each sample is
//! the second of two back-to-back kernel runs, so the kernel's caches are
//! its own and its time does not depend on what the program's operation
//! left in them: a change to the program cannot change the kernel, and a
//! faster program still shows in full. Contention slows a scan of a small
//! array and memory-heavy code by different amounts, so a workload times
//! the kernel profile that tracks its own operations best.

use std::collections::HashMap;
use std::time::Instant;

use crate::stats::clock;

/// The work the kernel does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Scans of an L2-sized array only, like the scene's calendar scan.
    Scan,
    /// A third as many scans, then a sort, binary searches, hashed-map
    /// lookups and a dependent walk over a 1 MiB random cycle, like the
    /// engine, the compiler and the object store.
    Mixed,
}

impl Profile {
    fn scans(self) -> u64 {
        match self {
            Profile::Scan => 360,
            Profile::Mixed => 100,
        }
    }

    /// A warm sample's host seconds at nominal speed, as measured on the
    /// 2-core x86-64 container the benchmark was sized on during a quiet
    /// phase (Mixed: median) and a busy one (Scan: tenth percentile).
    pub fn nominal_s(self) -> f64 {
        match self {
            Profile::Scan => NOMINAL_SCAN_S,
            Profile::Mixed => NOMINAL_MIXED_S,
        }
    }
}

const NOMINAL_SCAN_S: f64 = 0.0053;
const NOMINAL_MIXED_S: f64 = 0.0029;

/// Host seconds of operations between two calibration samples.
const INTERVAL_S: f64 = 0.1;

/// The kernel with its working memory, allocated once so that the timed
/// part allocates nothing and does not depend on the allocator's state.
#[derive(Debug)]
pub struct Kernel {
    profile: Profile,
    data: Vec<u64>,
    sorted: Vec<u64>,
    hashed: HashMap<u64, u32>,
    cycle: Vec<u32>,
    rng: u64,
}

impl Kernel {
    /// Builds the working memory.
    pub fn new(profile: Profile) -> Self {
        let mut rng = 0x2545_f491_4f6c_dd1d;
        let data: Vec<u64> = (0..1 << 14).map(|_| xorshift(&mut rng)).collect();
        // A random cyclic permutation, walked by dependent loads.
        let n = 1 << 18;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, (xorshift(&mut rng) % i as u64) as usize);
        }
        let mut cycle = vec![0u32; n];
        for w in 0..n {
            cycle[perm[w] as usize] = perm[(w + 1) % n];
        }
        Kernel {
            profile,
            sorted: data.clone(),
            data,
            hashed: HashMap::with_capacity(1 << 12),
            cycle,
            rng,
        }
    }

    /// Runs the kernel twice back to back and returns the second run's
    /// host seconds.
    pub fn sample(&mut self) -> f64 {
        self.run();
        self.run()
    }

    fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut sink = 0u64;
        for r in 0..self.profile.scans() {
            let best = self.data.iter().enumerate().min_by_key(|(_, &x)| x ^ r);
            sink = sink.wrapping_add(best.map_or(0, |(i, _)| i as u64));
        }
        if self.profile == Profile::Scan {
            std::hint::black_box(sink);
            return started.elapsed().as_secs_f64();
        }
        self.sorted.copy_from_slice(&self.data);
        self.sorted.sort_unstable();
        self.hashed.clear();
        for (i, k) in self.data.iter().take(1 << 12).enumerate() {
            self.hashed.insert(*k, i as u32);
        }
        for _ in 0..1 << 13 {
            let k = xorshift(&mut self.rng);
            sink = sink.wrapping_add(self.sorted.partition_point(|&x| x < k) as u64);
            sink = sink.wrapping_add(u64::from(self.hashed.get(&k).copied().unwrap_or(1)));
        }
        let mut at = 0u32;
        for _ in 0..self.cycle.len() {
            at = self.cycle[at as usize];
        }
        std::hint::black_box((sink, at));
        started.elapsed().as_secs_f64()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Times the operations of a run, sampling the kernel before the first,
/// after every `INTERVAL_S` of operations and after the last.
#[derive(Debug)]
pub struct Meter {
    on: bool,
    kernel: Kernel,
    samples: Vec<f64>,
    since: f64,
    /// Raw host seconds of each operation and the sample taken before it.
    ops: Vec<(usize, f64)>,
}

impl Meter {
    /// A meter that calibrates with `profile` when `on`; off, it only
    /// times.
    pub fn new(on: bool, profile: Profile) -> Self {
        Meter {
            on,
            kernel: Kernel::new(profile),
            samples: Vec::new(),
            since: 0.0,
            ops: Vec::new(),
        }
    }

    /// Runs `f` as one operation and records its host seconds.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.on && (self.samples.is_empty() || self.since >= INTERVAL_S) {
            self.samples.push(self.kernel.sample());
            self.since = 0.0;
        }
        let (out, secs) = clock(f);
        self.since += secs;
        self.ops.push((self.samples.len().saturating_sub(1), secs));
        out
    }

    /// Operations timed so far; pass boundaries for [`Meter::finish`].
    pub fn mark(&self) -> usize {
        self.ops.len()
    }

    /// Ends the run: every operation's scaled and raw host seconds, in
    /// order. Unscaled when the meter is off.
    pub fn finish(mut self) -> Vec<(f64, f64)> {
        if !self.on {
            return self.ops.iter().map(|&(_, secs)| (secs, secs)).collect();
        }
        self.samples.push(self.kernel.sample());
        let last = self.samples.len() - 1;
        let nominal = self.kernel.profile.nominal_s();
        self.ops
            .iter()
            .map(|&(k, secs)| {
                let around = &self.samples[k.saturating_sub(2)..=(k + 3).min(last)];
                (secs * nominal / crate::stats::median(around), secs)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_meter_leaves_times_unscaled() {
        let mut m = Meter::new(false, Profile::Mixed);
        m.op(|| std::hint::black_box(3));
        let ops = m.finish();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, ops[0].1);
    }

    #[test]
    fn a_calibrating_meter_scales_by_the_samples() {
        let mut m = Meter::new(true, Profile::Scan);
        m.op(|| std::hint::black_box(3));
        let (scaled, raw) = m.finish()[0];
        assert!(scaled > 0.0 && raw > 0.0);
    }
}
