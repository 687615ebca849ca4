//! Order statistics: nearest-rank percentiles with the "ten samples
//! beyond" rule, block-wise reduction of a phase's samples, and the
//! quartile spread the calibration reports.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n)
}

/// A tail percentile is reported only where at least ten samples lie
/// beyond it; with fewer, two runs of the same code disagree on it.
pub fn tail_supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// Latency samples (µs) with the second, from the phase's origin, each was
/// sent at and the pass of its client's loop it belongs to.
#[derive(Default, Clone)]
pub struct Samples {
    pub at_s: Vec<f64>,
    pub value: Vec<f64>,
    pub pass: Vec<u32>,
}

impl Samples {
    pub fn push(&mut self, at_s: f64, value: f64, pass: u32) {
        self.at_s.push(at_s);
        self.value.push(value);
        self.pass.push(pass);
    }

    pub fn len(&self) -> usize {
        self.value.len()
    }

    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    pub fn extend(&mut self, other: Samples) {
        self.at_s.extend(other.at_s);
        self.value.extend(other.value);
        self.pass.extend(other.pass);
    }
}

/// Length of a time block, the mean samples a block must hold for a phase
/// to be cut into time blocks, and the fewest blocks a quartile is taken
/// over.
pub const BLOCK_S: f64 = 0.1;
pub const MIN_PER_BLOCK: usize = 50;
pub const MIN_BLOCKS: usize = 8;

/// A phase cut into blocks of sample indices.
enum Blocks {
    /// Whole `BLOCK_S` blocks of a dense phase (µs-scale ops); the ragged
    /// tail past the last whole block is left out. A block in which no
    /// request was sent is empty: it has a reply rate, 0, and no percentile.
    Timed(Vec<Vec<usize>>),
    /// One block per pass over the query mix (ms-scale ops, one client),
    /// or the whole phase as one block when it has too few of either.
    Spanned(Vec<Vec<usize>>),
}

fn blocks(samples: &Samples) -> Blocks {
    let first = samples.at_s.iter().copied().fold(f64::INFINITY, f64::min);
    let last = samples
        .at_s
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let timed = ((last - first) / BLOCK_S).floor() as usize;
    if timed >= MIN_BLOCKS && samples.len() >= timed * MIN_PER_BLOCK {
        let mut out = vec![Vec::new(); timed];
        for (i, at) in samples.at_s.iter().enumerate() {
            if let Some(b) = out.get_mut(((at - first) / BLOCK_S) as usize) {
                b.push(i);
            }
        }
        return Blocks::Timed(out);
    }
    let mut by_pass: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    for (i, pass) in samples.pass.iter().enumerate() {
        by_pass.entry(*pass).or_default().push(i);
    }
    if by_pass.len() >= MIN_BLOCKS {
        Blocks::Spanned(by_pass.into_values().collect())
    } else {
        Blocks::Spanned(vec![(0..samples.len()).collect()])
    }
}

/// The `p` percentile a client sees at a typical moment of the phase: the
/// percentile within each block, reduced over blocks.
///
/// A plain percentile over all samples of a closed loop over-weights fast
/// stretches, because more requests are sent while replies come fast, and
/// on a shared host the stretches are the host's doing. How blocks are
/// reduced follows what was measured of the two kinds of phase:
///
/// * A dense phase (at least `MIN_PER_BLOCK` samples per `BLOCK_S` on
///   average: µs-scale ops) is cut into time blocks and the **median** over
///   blocks is reported. Such a phase has a fast mode besides its usual one
///   (two clients keep both vCPUs from halting: 30 µs against 60 µs) that
///   holds for 0-30 % of a run's blocks, so a lower quartile flips between
///   the modes from run to run (34-62 µs over six runs) where the median
///   stays in the usual one (60-67 µs).
/// * A sparse phase (ms-scale ops, one client) is cut into the passes of
///   the client's loop, each of which holds the same queries, and the
///   **lower quartile** over passes is reported. Such a phase has no fast
///   mode; the host only ever adds time to it, in episodes of seconds to
///   minutes, and over six runs across such an episode the lower quartile
///   moved 9-15 % where the median over passes moved 17-25 %. A change to
///   the program that slows an op slows it in every pass, so it moves the
///   lower quartile as far as it moves the median.
///
/// With fewer than `MIN_BLOCKS` blocks of either kind it is the plain
/// nearest-rank percentile.
pub fn typical_percentile(samples: &Samples, p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let (blocks, quiet) = match blocks(samples) {
        Blocks::Timed(b) => (b, 0.5),
        Blocks::Spanned(b) => (b, 0.25),
    };
    let mut per_block: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| {
            let mut v: Vec<f64> = b.iter().map(|&i| samples.value[i]).collect();
            v.sort_by(f64::total_cmp);
            percentile(&v, p)
        })
        .collect();
    per_block.sort_by(f64::total_cmp);
    percentile(&per_block, quiet)
}

/// Replies per second at a typical moment of the phase: the reply rate of
/// each block, reduced over blocks as [`typical_percentile`] reduces (the
/// median over time blocks, the upper quartile over passes). A time
/// block's rate is its reply count over `BLOCK_S`; a pass's is its reply
/// count over the time from its first request to its last reply, which
/// leaves out the untimed reset before it.
pub fn typical_rate(samples: &Samples) -> f64 {
    assert!(!samples.is_empty(), "rate of no samples");
    let (mut per_block, quiet): (Vec<f64>, f64) = match blocks(samples) {
        Blocks::Timed(blocks) => (
            blocks.iter().map(|b| b.len() as f64 / BLOCK_S).collect(),
            0.5,
        ),
        Blocks::Spanned(blocks) => (
            blocks
                .iter()
                .map(|b| {
                    let sent = b.iter().map(|&i| samples.at_s[i]);
                    let done = b.iter().map(|&i| samples.at_s[i] + samples.value[i] / 1e6);
                    let span =
                        done.fold(f64::NEG_INFINITY, f64::max) - sent.fold(f64::INFINITY, f64::min);
                    b.len() as f64 / span
                })
                .collect(),
            0.75,
        ),
    };
    per_block.sort_by(f64::total_cmp);
    percentile(&per_block, quiet)
}

/// Median (mean of the two middle elements for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the calibration here and the
/// acceptance check elsewhere compute the same spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // cut point i of 4 at position i * (n + 1) / 4, 1-based
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 needs 100 samples, p99 needs 1000.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(150, 0.99));
        assert_eq!(beyond(1, 0.5), 0);
    }

    #[test]
    fn typical_values_weight_time_not_samples() {
        // Dense: 1 s at 10 µs (1000 samples per block), then 3 s at 60 µs
        // (170 per block). Most samples are fast, most of the time is slow.
        let mut s = Samples::default();
        for i in 0..10_000 {
            s.push(i as f64 * 1e-4, 10.0, 0);
        }
        for i in 0..5_100 {
            s.push(1.0 + i as f64 * 3.0 / 5_100.0, 60.0, 0);
        }
        let mut plain = s.value.clone();
        plain.sort_by(f64::total_cmp);
        assert_eq!(percentile(&plain, 0.5), 10.0);
        assert_eq!(typical_percentile(&s, 0.5), 60.0);
        // 15 100 replies in 4 s, but 170 per 100 ms most of the time.
        assert_eq!(typical_rate(&s), 1700.0);

        // Sparse: 8 passes of 5 ops of 10..50 ms; passes 2 and 5 run 3x
        // slower and do not show. A pass's p50 is its 3rd op, its p90 its
        // slowest.
        let mut sparse = Samples::default();
        let mut at = 0.0;
        for pass in 0..8u32 {
            at += 0.5; // the untimed reset
            let slow = if pass == 2 || pass == 5 { 3.0 } else { 1.0 };
            for op in 1..=5 {
                let us = f64::from(op) * 10_000.0 * slow;
                sparse.push(at, us, pass);
                at += us / 1e6;
            }
        }
        assert_eq!(typical_percentile(&sparse, 0.5), 30_000.0);
        assert_eq!(typical_percentile(&sparse, 0.9), 50_000.0);
        // 5 replies in 150 ms of timed time; the resets do not count.
        assert!((typical_rate(&sparse) - 5.0 / 0.15).abs() < 1e-6);

        // Too few blocks of either kind: the plain percentile, and replies
        // over the span from the first request to the last reply.
        let mut few = Samples::default();
        for i in 0..100 {
            few.push(f64::from(i) * 0.1, 100_000.0, 0);
        }
        few.value[99] = 50_000.0;
        assert_eq!(typical_percentile(&few, 0.9), 100_000.0);
        assert!((typical_rate(&few) - 100.0 / 9.95).abs() < 1e-9);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }
}
