//! Sample statistics, seeded input generation and process memory.

use std::time::Duration;

/// `q`-quantile (0..=1) of `samples`, linearly interpolated between the
/// two nearest ranks, as `statistics.quantiles(method="inclusive")`.
/// Returns 0 for an empty slice.
#[must_use]
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile_sorted(&sorted, q)
}

/// [`quantile`] of an already sorted slice.
#[must_use]
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let (a, b) = (sorted[lo] as f64, sorted[hi] as f64);
    a + (b - a) * (pos - pos.floor())
}

/// Median of a small set of durations, in seconds.
#[must_use]
pub fn median_secs(samples: &[Duration]) -> f64 {
    let ns: Vec<u64> = samples.iter().map(|d| nanos(*d)).collect();
    quantile(&ns, 0.5) / 1e9
}

/// A duration in whole nanoseconds, saturating.
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Resident set size of this process in KiB (`VmRSS` of
/// `/proc/self/status`), or 0 where that file is unavailable.
#[must_use]
pub fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// CPU time this process has used (all threads, user and system), from
/// `/proc/self/stat` in clock ticks of 10 ms; zero where unavailable.
#[must_use]
pub fn cpu_time() -> Duration {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// SplitMix64: a tiny seeded generator, so the same `--seed` always
/// yields the same inputs without depending on any random-number crate.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    #[must_use]
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A vector of `len` copies of `fill` whose pages are already resident,
/// so writing samples into it later does not show up as RSS growth.
#[must_use]
pub fn resident_vec<T: Copy>(len: usize, fill: T) -> Vec<T> {
    // `vec![x; n]` writes every element (unlike a zeroed allocation,
    // which the kernel maps lazily).
    vec![fill; len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert!((quantile(&v, 0.5) - 5.5).abs() < 1e-9);
        assert!((quantile(&v, 0.25) - 3.25).abs() < 1e-9);
        assert!((quantile(&v, 1.0) - 10.0).abs() < 1e-9);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn splitmix_is_seed_deterministic() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7);
                move |_| g.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix::new(7);
                move |_| g.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(SplitMix::new(7).next_u64(), SplitMix::new(8).next_u64());
    }

    #[test]
    fn rss_is_readable() {
        assert!(rss_kb() > 0);
    }
}
