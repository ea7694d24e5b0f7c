//! Small measurement helpers: medians, the tail percentile rule, timed
//! calls, peak memory and a stable digest.

use std::time::Instant;

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail latency: the value, the nearest-rank percentile it sits at, and
/// the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at `percentile`.
    pub value: f64,
    /// Nearest-rank percentile, 1..=100.
    pub percentile: u32,
    /// Samples the tail was read from.
    pub samples: usize,
}

/// The highest whole percentile with at least ten samples beyond it.
///
/// With fewer than 20 samples no percentile above the median has ten
/// samples beyond it; the maximum is returned instead (percentile 100),
/// and the caller prints the sample count beside it.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100,
            samples: 0,
        };
    }
    if n < 20 {
        return Tail {
            value: v[n - 1],
            percentile: 100,
            samples: n,
        };
    }
    // Nearest rank r = ceil(p·n/100) leaves n − r samples beyond it.
    let p = (100 * (n - 10) / n) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    Tail {
        value: v[rank - 1],
        percentile: p,
        samples: n,
    }
}

/// Runs `f`, adding its host seconds to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *acc += started.elapsed().as_secs_f64();
    out
}

/// Runs `f` and returns its result with its host seconds.
pub fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or carries no
/// `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// 64-bit FNV-1a over `lines`, each followed by a line break, as 16 hex
/// digits: the digest of model outputs.
pub fn digest_of<'a>(lines: impl IntoIterator<Item = &'a String>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in lines {
        for b in l.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=108).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 90);
        assert_eq!(t.samples, 108);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert!(beyond >= 10, "{beyond} samples beyond p{}", t.percentile);
        let few = tail(&[1.0, 5.0, 3.0]);
        assert_eq!((few.value, few.percentile, few.samples), (5.0, 100, 3));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = digest_of(&["x".to_owned(), "y".to_owned()]);
        let b = digest_of(&["y".to_owned(), "x".to_owned()]);
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
    }
}
