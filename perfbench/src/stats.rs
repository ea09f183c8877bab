//! Order statistics over latency samples.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of ascending `sorted` (mean of the middle pair for even
/// lengths).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n - (p as usize * n).div_ceil(100)
}

/// The highest percentile the tail rule may pick. The rule's classic
/// cap is p99, but on a shared 2-CPU host p99 of a fast read is set by
/// whether scheduler preemptions reach 1 % of the reads: across five
/// `warm-serving` runs it read 4.5 or 9 ms (IQR / median 0.45), while
/// p95 moved by 3 %.
pub const TAIL_CAP: u32 = 95;

/// The tail rule: the highest whole percentile, at most [`TAIL_CAP`],
/// that leaves at least ten of `n` samples beyond it. `None` when `n` is
/// too small for any percentile above the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=TAIL_CAP).rev().find(|&p| beyond(n, p) >= 10)
}

/// Ascending copy.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Workload;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(5_000), Some(95));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(199), Some(94));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(89));
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3_000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
            if p < TAIL_CAP {
                assert!(beyond(n, p + 1) < 10, "n={n}: p{} also leaves ten", p + 1);
            }
        }
    }

    /// Each workload's fixed tail percentile is what the rule gives at
    /// the smallest read count a full-scale run collects.
    #[test]
    fn fixed_tails_follow_the_rule() {
        for (w, min_reads) in [
            (Workload::WarmServing, 200),
            (Workload::WriteMix, 200),
            (Workload::PaperMix, 50),
            (Workload::ReplanRescue, 200),
        ] {
            assert_eq!(tail_percentile(min_reads), Some(w.tail_percentile()), "{}", w.name());
        }
        assert_eq!(tail_percentile(200), Some(crate::run::WRITE_TAIL_PERCENTILE));
    }
}
