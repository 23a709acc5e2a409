//! Exact-sample statistics: every latency is kept as a raw `u64` of
//! nanoseconds, merged across generator threads, sorted once, and read by
//! nearest rank. `StreamingHistogram`'s log buckets are ~25 % wide, which
//! is wider than every regression bound this benchmark fixes.

/// Latency of an operation that failed or was shed: it sorts after every
/// real sample, so it counts as missing any latency limit.
pub const FAILED_NS: u64 = u64::MAX;

/// The samples in ascending order, ready for [`quantile`]. Generator
/// threads keep their own vectors; the caller concatenates them first.
pub fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`quantile`] in milliseconds; 0 when there are no samples.
pub fn quantile_ms(sorted: &[u64], q: f64) -> f64 {
    quantile(sorted, q).map_or(0.0, |ns| ns as f64 / 1e6)
}

/// Median of a list of floats (mean of the middle pair when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Throughput as the median over `parts` equal sub-windows of
/// `[start_ns, start_ns + len_ns)`. `work` is `(from, to, units)`: units
/// finished between two instants — an op is one unit at its completion
/// time, a batch spreads its op count evenly over the time it took, so a
/// batch that straddles a boundary is shared, not dropped on one side.
/// The median discards the sub-window a background stall or a scheduler
/// hiccup landed in.
pub fn subwindow_rate(work: &[(u64, u64, u64)], start_ns: u64, len_ns: u64, parts: usize) -> f64 {
    let parts = parts.max(1);
    let sub_ns = (len_ns / parts as u64).max(1);
    let mut sums = vec![0.0f64; parts];
    for &(from, to, units) in work {
        for (slot, sum) in sums.iter_mut().enumerate() {
            let lo = start_ns + slot as u64 * sub_ns;
            let hi = lo + sub_ns;
            if to <= from {
                *sum += if (lo..hi).contains(&to) {
                    units as f64
                } else {
                    0.0
                };
            } else {
                let overlap = to.min(hi).saturating_sub(from.max(lo));
                *sum += units as f64 * overlap as f64 / (to - from) as f64;
            }
        }
    }
    let rates: Vec<f64> = sums.iter().map(|s| s / (sub_ns as f64 / 1e9)).collect();
    median(&rates)
}

/// A latency quantile as the median over `parts` equal sub-windows of
/// `[start_ns, start_ns + len_ns)`: each sub-window's nearest-rank
/// quantile of the `(time, latency)` samples timed inside it, then the
/// median of those, in milliseconds. One sub-window that a compaction or
/// a host hiccup landed in moves a whole-window p99; it does not move the
/// median of five. Sub-windows without samples are left out.
pub fn subwindow_quantile_ms(
    samples: &[(u64, u64)],
    start_ns: u64,
    len_ns: u64,
    parts: usize,
    q: f64,
) -> f64 {
    let parts = parts.max(1);
    let sub_ns = (len_ns / parts as u64).max(1);
    let mut slots: Vec<Vec<u64>> = vec![Vec::new(); parts];
    for &(t, lat) in samples {
        if t >= start_ns {
            if let Some(slot) = slots.get_mut(((t - start_ns) / sub_ns) as usize) {
                slot.push(lat);
            }
        }
    }
    let per_slot: Vec<f64> = slots
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|s| quantile_ms(&sorted(s), q))
        .collect();
    median(&per_slot)
}

/// FNV-1a over a stream of `u64`s: the op-sequence fingerprint that shows
/// the same `--seed` generates the same inputs.
#[derive(Clone, Copy)]
pub struct SeqHash(u64);

impl Default for SeqHash {
    fn default() -> Self {
        SeqHash(0xcbf2_9ce4_8422_2325)
    }
}

impl SeqHash {
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.50), Some(50));
        assert_eq!(quantile(&s, 0.99), Some(99));
        assert_eq!(quantile(&s, 1.0), Some(100));
        assert_eq!(quantile(&s, 0.0), Some(1));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
        // 10 samples: p99 is the largest, p90 the ninth.
        let t: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&t, 0.99), Some(10));
        assert_eq!(quantile(&t, 0.90), Some(9));
    }

    #[test]
    fn failed_ops_sort_past_every_limit() {
        let merged = sorted([vec![3, 1, FAILED_NS], vec![2]].concat());
        assert_eq!(merged, vec![1, 2, 3, FAILED_NS]);
        assert_eq!(quantile(&merged, 0.99), Some(FAILED_NS));
        assert_eq!(quantile(&merged, 0.5), Some(2));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn subwindow_median_ignores_one_stalled_window() {
        // Five 1-s sub-windows at 100 units/s, the third one stalled.
        let mut c = Vec::new();
        for sub in 0..5u64 {
            let n = if sub == 2 { 10 } else { 100 };
            for i in 0..n {
                let t = 1_000 + sub * 1_000_000_000 + i;
                c.push((t, t, 1));
            }
        }
        let rate = subwindow_rate(&c, 1_000, 5_000_000_000, 5);
        assert!((rate - 100.0).abs() < 1e-6, "rate {rate}");
        // Completions before the window or after it are not counted.
        let outside = [(0, 0, 50), (9_000_000_000, 9_000_000_000, 50)];
        assert_eq!(subwindow_rate(&outside, 1_000, 5_000_000_000, 5), 0.0);
    }

    #[test]
    fn a_batch_is_shared_between_the_sub_windows_it_spans() {
        // 100 units over [0.5 s, 1.5 s): half in each of two 1-s windows.
        let work = [(500_000_000, 1_500_000_000, 100)];
        let rate = subwindow_rate(&work, 0, 2_000_000_000, 2);
        assert!((rate - 50.0).abs() < 1e-6, "rate {rate}");
    }

    #[test]
    fn subwindow_quantile_shrugs_off_one_bad_sub_window() {
        // Five sub-windows of 100 samples at 1 ms; the second one has a
        // 50 ms stall in a tenth of its samples.
        let mut s = Vec::new();
        for sub in 0..5u64 {
            for i in 0..100u64 {
                let lat = if sub == 1 && i % 10 == 0 {
                    50_000_000
                } else {
                    1_000_000
                };
                s.push((sub * 1_000 + i, lat));
            }
        }
        assert_eq!(subwindow_quantile_ms(&s, 0, 5_000, 5, 0.99), 1.0);
        // The whole-window p99 would have read the stall.
        let all = sorted(s.iter().map(|x| x.1).collect());
        assert_eq!(quantile_ms(&all, 0.99), 50.0);
        assert_eq!(subwindow_quantile_ms(&[], 0, 5_000, 5, 0.5), 0.0);
    }

    #[test]
    fn seq_hash_depends_on_order_and_content() {
        let mut a = SeqHash::default();
        let mut b = SeqHash::default();
        let mut c = SeqHash::default();
        for v in [1u64, 2, 3] {
            a.push(v);
            b.push(v);
        }
        for v in [1u64, 3, 2] {
            c.push(v);
        }
        assert_eq!(a.value(), b.value());
        assert_ne!(a.value(), c.value());
    }
}
