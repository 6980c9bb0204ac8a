//! Order statistics, the outcome digest and the process's peak memory.
//!
//! Every statistic of an empty sample is 0: a layer a workload never
//! calls reports 0 rather than a non-number.

/// The median of `xs` (the mean of the two middle values for an even
/// count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The first and third quartiles of `xs`, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive" method),
/// so spreads printed here match the ones the acceptance rule computes.
/// A single value is its own quartiles; `None` for an empty slice.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    match xs.len() {
        0 => None,
        1 => Some((xs[0], xs[0])),
        ld => {
            let s = sorted(xs);
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                // Negative when the clamp raised `j`, as in Python.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// The interquartile range of `xs` as a share of its median.
pub fn relative_iqr(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) => ratio(q3 - q1, median(xs).abs()),
        None => 0.0,
    }
}

/// The percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] with at least ten of `n` samples
/// beyond it (50 when even the median has fewer).
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        // `100 - p` is inexact for 99.9, hence the tolerance.
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// The nearest-rank `p`-th percentile of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// "p50 X ms, pT Y ms (n = N)": a latency sample of `n` values as its
/// median and the highest percentile with ten samples beyond it, if there
/// is one, reading each percentile from `at`.
pub fn describe_ms(n: usize, at: impl Fn(f64) -> f64) -> String {
    let p50 = format!("p50 {:.3} ms", at(50.0));
    match tail_percentile(n) {
        tail if tail > 50.0 => format!("{p50}, p{tail} {:.3} ms (n = {n})", at(tail)),
        _ => format!("{p50} (n = {n}, too few for a tail)"),
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over the given byte strings in order: the digest of a
/// workload's outcome JSON, compared across passes, traced runs and
/// commits.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = FNV64_OFFSET;
    for part in parts {
        for &b in part {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV64_PRIME);
        }
    }
    h
}

/// This process's peak resident set (`VmHWM`) in MiB, or 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let read = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    read().map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        let xs = [7.0, 1.0, 3.0, 5.0, 9.0, 11.0, 2.0, 4.0, 6.0, 8.0];
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([1..9, 11], n=4) == [2.75, 8.25]
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert!((relative_iqr(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(relative_iqr(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn described_samples_state_their_tail_and_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            describe_ms(xs.len(), |p| percentile(&xs, p)),
            "p50 500.000 ms, p99 990.000 ms (n = 1000)"
        );
        assert_eq!(
            describe_ms(1, |p| percentile(&[2.0], p)),
            "p50 2.000 ms (n = 1, too few for a tail)"
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.9), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn digest_is_fnv1a_over_the_concatenation() {
        // The FNV-1a-64 test vector for "a".
        assert_eq!(digest([b"a".as_slice()]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            digest([b"ab".as_slice()]),
            digest([b"a".as_slice(), b"b".as_slice()])
        );
    }
}
