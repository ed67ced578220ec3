//! Summary statistics for timing samples.

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the benchmark's own spread figures match the ones its acceptance
/// check computes. With a single sample all three are that sample.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    // Python's exclusive method in its own integer arithmetic: cut i of
    // 4 sits at 1-based position i·(len+1)/4, interpolated between the
    // neighbouring order statistics (`j` clamped to 1..len−1).
    let len = s.len();
    let at = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median (0 when the median is
/// 0, which no timing ever is).
pub fn relative_spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// The tail of a latency distribution: the highest percentile that
/// still has at least [`TAIL_BEYOND`] samples strictly after it in
/// rank order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile this is (nearest-rank: the value at 1-based rank
    /// `r` of `n` samples is the `100·r/n`-th percentile).
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Most samples a tail is taken over. A timed run collects as many
/// samples as it has time for, so a faster program would otherwise
/// report a higher percentile; capping the count keeps the percentile
/// (p95 at the cap) the same on every run that reaches it, and keeps it
/// below the rate of the host's rare multi-millisecond stalls.
pub const TAIL_SAMPLES: usize = 200;

/// At most `n` of `xs`, evenly spaced over the sequence (all of them
/// when there are no more than `n`), so a capped sample still spans the
/// whole run.
pub fn spaced(xs: &[f64], n: usize) -> Vec<f64> {
    if xs.len() <= n {
        return xs.to_vec();
    }
    (0..n).map(|i| xs[i * xs.len() / n]).collect()
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, or `None` with too few samples to have one (`n ≤ TAIL_BEYOND`).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    // 1-based rank r has n − r samples after it; the largest r with
    // n − r ≥ TAIL_BEYOND is n − TAIL_BEYOND.
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        samples: n,
    })
}
