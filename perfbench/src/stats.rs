//! Order statistics for the benchmark's reports.
//!
//! A latency percentile is reported only when at least [`TAIL_SAMPLES`]
//! samples lie beyond it, so a p99 needs 1000 samples; quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
//! method), the definition the run-to-run spread is judged by.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (nearest rank) of `samples`, or `None` when fewer
/// than [`TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let beyond = n as f64 * (1.0 - p / 100.0);
    if n == 0 || beyond < TAIL_SAMPLES as f64 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The median (mean of the two middle values for an even count), or `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The three cut points `(q1, q2, q3)` of `statistics.quantiles(values,
/// n=4)`, or `None` for fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let len = samples.len();
    if len < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Latency samples in fixed memory, so a faster run does not grow the
/// benchmark's own footprint (which `peak_rss_mib` would report): log-linear
/// buckets, exact below 1024 ns and 1/1024 relative width above.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 10;
const SUB_MASK: u64 = (1 << SUB_BITS) - 1;
/// Largest recordable value, about 4.9 hours in ns; larger ones saturate.
const MAX_NS: u64 = (1 << 44) - 1;

fn bucket_of(ns: u64) -> usize {
    let ns = ns.min(MAX_NS);
    if ns <= SUB_MASK {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    (((u64::from(shift) + 1) << SUB_BITS) + ((ns >> shift) & SUB_MASK)) as usize
}

/// The `[low, high)` ns range of bucket `index`.
fn bucket_range(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index <= SUB_MASK {
        return (index, index + 1);
    }
    let shift = (index >> SUB_BITS) - 1;
    let low = ((1 << SUB_BITS) + (index & SUB_MASK)) << shift;
    (low, low + (1 << shift))
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; bucket_of(MAX_NS) + 1],
            total: 0,
        }
    }

    pub fn record(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(MAX_NS);
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (nearest rank) in µs, as the midpoint of its
    /// bucket, or `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond
    /// it.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        let n = self.total;
        if n == 0 || (n as f64) * (1.0 - p / 100.0) < TAIL_SAMPLES as f64 {
            return None;
        }
        let rank = (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let (low, high) = bucket_range(index);
                return Some((low + high - 1) as f64 / 2.0 / 1000.0);
            }
        }
        None
    }
}

/// Latency samples per block of [`BlockedPercentile`]: a block's p90 has 20
/// samples beyond it.
pub const BLOCK_SAMPLES: usize = 20 * TAIL_SAMPLES;

/// A percentile taken block by block: the samples, in the order they were
/// recorded, are cut into consecutive blocks of [`BLOCK_SAMPLES`], the
/// percentile is taken in each full block, and the median of those is
/// reported. A burst of host stalls that fills more than the tail's share
/// of a run moves a whole-run tail percentile but only the few blocks it
/// falls in, so the median of the blocks measures the program rather than
/// the burst. It suits a tail, not the median: where the work per update
/// changes over a run (the adaptive population of `fused_adaptive`), the
/// blocks' medians swing with it. Memory is one block plus one value per
/// block.
pub struct BlockedPercentile {
    p: f64,
    block: Vec<f64>,
    values: Vec<f64>,
}

impl BlockedPercentile {
    pub fn new(p: f64) -> Self {
        BlockedPercentile {
            p,
            block: Vec::with_capacity(BLOCK_SAMPLES),
            values: Vec::new(),
        }
    }

    pub fn record(&mut self, us: f64) {
        self.block.push(us);
        if self.block.len() == BLOCK_SAMPLES {
            self.values.extend(percentile(&self.block, self.p));
            self.block.clear();
        }
    }

    /// Each full block's percentile, in recording order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The median over full blocks of each block's percentile, or `None`
    /// before the first full block (a partial last block is left out).
    pub fn median(&self) -> Option<f64> {
        median(&self.values)
    }
}

/// Latencies, completed operations and busy time of a stretch of a run.
pub struct Tally {
    pub latency: Histogram,
    /// The p90 block by block, the gated tail.
    pub p90: BlockedPercentile,
    /// Sum of the latencies, for their mean.
    pub latency_sum: Duration,
    pub operations: u64,
    pub time: Duration,
}

impl Tally {
    fn new() -> Self {
        Tally {
            latency: Histogram::new(),
            p90: BlockedPercentile::new(90.0),
            latency_sum: Duration::ZERO,
            operations: 0,
            time: Duration::ZERO,
        }
    }

    fn record(&mut self, latency: Duration) {
        self.latency.record(latency);
        self.p90.record(latency.as_secs_f64() * 1e6);
        self.latency_sum += latency;
    }

    /// The mean latency in µs, or `None` for no samples.
    pub fn mean_us(&self) -> Option<f64> {
        let n = self.latency.len();
        (n > 0).then(|| self.latency_sum.as_secs_f64() * 1e6 / n as f64)
    }

    /// Operations per second of `time`.
    pub fn rate(&self) -> f64 {
        self.operations as f64 / self.time.as_secs_f64().max(1e-9)
    }
}

/// Length of one steal-accounting window.
const WINDOW: Duration = Duration::from_millis(50);

/// A run measured in short windows, tallied twice: over every window, and
/// over the windows during which the hypervisor stole no CPU time from this
/// machine (`steal` in `/proc/stat`). A stolen 10 ms tick stalls whatever
/// runs then; on a shared host such stalls come in bursts that have nothing
/// to do with the program, and the clean windows measure the program.
/// Windows are short so that dropping one does not skew which inputs are
/// timed.
pub struct Windows {
    pub all: Tally,
    pub clean: Tally,
    pub disturbed: u64,
    pub count: u64,
    /// Latencies, operations and start of the open window.
    samples: Vec<Duration>,
    operations: u64,
    opened: Option<(Instant, Option<u64>)>,
}

impl Windows {
    pub fn new() -> Self {
        Windows {
            all: Tally::new(),
            clean: Tally::new(),
            disturbed: 0,
            count: 0,
            samples: Vec::new(),
            operations: 0,
            opened: None,
        }
    }

    /// Opens a window.
    pub fn start(&mut self) {
        self.opened = Some((Instant::now(), steal_ticks()));
    }

    pub fn record(&mut self, latency: Duration) {
        self.samples.push(latency);
    }

    pub fn operation(&mut self) {
        self.operations += 1;
    }

    /// Closes the open window and opens the next once it has lasted
    /// [`WINDOW`].
    pub fn tick(&mut self) {
        if let Some((opened, _)) = self.opened {
            if opened.elapsed() >= WINDOW {
                self.stop();
                self.start();
            }
        }
    }

    /// Closes the open window and tallies it.
    pub fn stop(&mut self) {
        let Some((opened, steal_before)) = self.opened.take() else {
            return;
        };
        let time = opened.elapsed();
        let stolen = match (steal_before, steal_ticks()) {
            (Some(before), Some(after)) => after > before,
            _ => false,
        };
        let mut tallies = vec![&mut self.all];
        if stolen {
            self.disturbed += 1;
        } else {
            tallies.push(&mut self.clean);
        }
        for tally in tallies {
            for &latency in &self.samples {
                tally.record(latency);
            }
            tally.operations += self.operations;
            tally.time += time;
        }
        self.count += 1;
        self.samples.clear();
        self.operations = 0;
    }

    /// The clean windows when they hold at least one full block of latency
    /// samples (`true`), otherwise every window (`false`). The bar is low on
    /// purpose: when the host steals in most windows, falling back times
    /// the stolen time too, and a run that does reads far slower than one
    /// that does not.
    pub fn measured(&self) -> (&Tally, bool) {
        if self.clean.latency.len() >= BLOCK_SAMPLES as u64 {
            (&self.clean, true)
        } else {
            (&self.all, false)
        }
    }
}

/// Total steal ticks of all CPUs, or `None` where `/proc/stat` has none.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), None, "9.99 samples beyond p99");
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        assert_eq!(percentile(&samples, 50.0), Some(500.0));
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let sorted_p99 = {
            let mut s = samples.clone();
            s.sort_by(f64::total_cmp);
            percentile(&s, 99.0)
        };
        samples.reverse();
        assert_eq!(percentile(&samples, 99.0), sorted_p99);
        assert_eq!(sorted_p99, Some(1979.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0] (extrapolated ends)
        assert_eq!(quartiles(&[5.0, 1.0]), Some((0.0, 3.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        let mut expected_low = 0;
        for index in 0..bucket_of(MAX_NS) + 1 {
            let (low, high) = bucket_range(index);
            assert_eq!(
                low, expected_low,
                "bucket {index} starts where the last ended"
            );
            assert_eq!(bucket_of(low), index);
            assert_eq!(bucket_of(high - 1), index);
            assert!((high - low) as f64 <= (low as f64 / 1024.0).max(1.0));
            expected_low = high;
        }
        assert_eq!(expected_low, MAX_NS + 1);
    }

    #[test]
    fn histogram_percentile_follows_the_tail_rule() {
        let mut histogram = Histogram::new();
        for us in 1..=999u64 {
            histogram.record(Duration::from_micros(us));
        }
        assert_eq!(
            histogram.percentile_us(99.0),
            None,
            "9.99 samples beyond p99"
        );
        histogram.record(Duration::from_micros(1000));
        assert_eq!(histogram.len(), 1000);
        // Nearest rank 990 and 500, within the 1/1024 bucket width.
        let p99 = histogram.percentile_us(99.0).unwrap();
        assert!((p99 - 990.0).abs() <= 990.0 / 1024.0, "{p99}");
        let p50 = histogram.percentile_us(50.0).unwrap();
        assert!((p50 - 500.0).abs() <= 500.0 / 1024.0, "{p50}");
        assert_eq!(Histogram::new().percentile_us(50.0), None);
    }

    #[test]
    fn blocked_percentile_is_the_median_of_block_percentiles() {
        let mut p90 = BlockedPercentile::new(90.0);
        assert_eq!(p90.median(), None);
        // Three blocks of 1..=200 scaled by 1, 3 and 2: block p90s are 180,
        // 540 and 360; a partial fourth block is left out.
        for scale in [1.0, 3.0, 2.0] {
            for i in 1..=BLOCK_SAMPLES {
                p90.record(i as f64 * scale);
            }
        }
        p90.record(1e9);
        assert_eq!(p90.values(), &[180.0, 540.0, 360.0]);
        assert_eq!(p90.median(), Some(360.0));
    }

    #[test]
    fn blocked_percentile_ignores_a_burst_in_one_block() {
        let mut p90 = BlockedPercentile::new(90.0);
        let mut whole = Vec::new();
        for block in 0..5 {
            for i in 0..BLOCK_SAMPLES {
                // Block 2 has a 60 % burst of 100x stalls, 12 % of the run.
                let us = if block == 2 && i % 5 < 3 { 1e5 } else { 1e3 };
                p90.record(us);
                whole.push(us);
            }
        }
        assert_eq!(percentile(&whole, 90.0), Some(1e5));
        assert_eq!(p90.median(), Some(1e3));
    }

    #[test]
    fn tally_mean_is_exact() {
        let mut tally = Tally::new();
        assert_eq!(tally.mean_us(), None);
        for us in [100, 200, 1200] {
            tally.record(Duration::from_micros(us));
        }
        assert_eq!(tally.mean_us(), Some(500.0));
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
