//! Small numeric helpers shared by the workloads: medians, the tail
//! percentile rule, due-time latency, the ladder stop rule, the seeded
//! subset draw and an FNV-1a digest for the deterministic `work` record.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of `values` after dropping the lowest and highest `trim` share
/// (rounded down) of them: steadier than the median over many unequal
/// sessions, yet not moved by one stray outlier.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let k = (sorted.len() as f64 * trim) as usize;
    let kept = &sorted[k..sorted.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// 1-based nearest rank of percentile `p` among `n` samples (the tiny
/// offset keeps `0.9999 * 100000` from rounding up past 99990).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice
/// (NaN for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[rank(p, n).clamp(1, n) - 1],
    }
}

/// The percentiles a tail may be reported at, lowest first.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten
/// samples above its nearest rank among `n` samples, so a reported tail
/// never rests on a handful of outliers. `None` below eleven samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= rank(p, n) + 10)
}

/// When line `i` of an open-loop phase starting at `start_ns` and sent at
/// `rate` lines per second was due.
pub fn due_ns(start_ns: u64, rate: f64, i: usize) -> u64 {
    start_ns + (i as f64 * 1e9 / rate) as u64
}

/// Per-line latency in milliseconds, measured from each line's due time
/// rather than from when it was sent: a stall that holds back the
/// generator still counts against every line it delays. `recv_ns[i]`
/// is when the answer to line `i` arrived; unanswered lines (`None`)
/// are left out and must be counted as failures by the caller.
pub fn due_latencies_ms(start_ns: u64, rate: f64, recv_ns: &[Option<u64>]) -> Vec<f64> {
    recv_ns
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.map(|r| r.saturating_sub(due_ns(start_ns, rate, i)) as f64 / 1e6))
        .collect()
}

/// Outcome of one rung of the rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate in lines per second.
    pub rate: f64,
    /// 99th-percentile due-time latency of the rung's answered lines.
    pub p99_ms: f64,
    /// Lines outstanding when the rung's last line was due, beyond the
    /// `rate x limit` that may legitimately still be in flight: a queue
    /// the server is not draining.
    pub backlog: usize,
}

impl Rung {
    /// A rung holds when its tail meets the limit and it left no backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.backlog == 0 && self.p99_ms <= limit_ms
    }
}

/// The highest rate of the ladder reached before the first failing rung
/// (the ladder stops there, so later rungs never count).
pub fn max_passing_rate(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .take_while(|r| r.passes(limit_ms))
        .last()
        .map(|r| r.rate)
}

/// Draws `count` subsets of `size` distinct ids from `0..strata.len()`,
/// each sorted ascending and stratified by `strata[id]`, the id's class.
/// Each seeded permutation shuffles the order of the classes and the ids
/// inside each class and lays the classes end to end; that list is cut
/// into `size` runs of equal length, and subset `c` of the permutation's
/// `strata.len() / size` takes the `c`-th id of every run. So every
/// subset holds each class's share of its size to within one id, and the
/// ids left over are spread over all classes: subsets differ in which
/// ids they hold far more than in how their classes mix. Subsets are
/// disjoint while one permutation lasts.
///
/// # Panics
///
/// Panics if `size` is 0 or larger than the universe.
pub fn draw_subsets(strata: &[u32], count: usize, size: usize, seed: u64) -> Vec<Vec<u32>> {
    let universe = strata.len();
    assert!(
        size > 0 && size <= universe,
        "cannot draw {size} of {universe}"
    );
    let per_permutation = universe / size;
    let mut classes: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for (id, &class) in strata.iter().enumerate() {
        classes.entry(class).or_default().push(id as u32);
    }
    let mut classes: Vec<Vec<u32>> = classes.into_values().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dealt = Vec::with_capacity(universe);
    (0..count)
        .map(|i| {
            let chunk = i % per_permutation;
            if chunk == 0 {
                shuffle(&mut classes, &mut rng);
                classes.iter_mut().for_each(|ids| shuffle(ids, &mut rng));
                dealt = classes.concat();
            }
            let mut subset: Vec<u32> = (0..size)
                .map(|j| dealt[j * universe / size + chunk])
                .collect();
            subset.sort_unstable();
            subset
        })
        .collect()
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for j in (1..items.len()).rev() {
        items.swap(j, rng.gen_range(0..=j));
    }
}

/// Derives an independent 64-bit seed from a base seed and a stream
/// index (SplitMix64 finalizer).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental form of the workspace checksum
/// (`pmevo::core::binfmt::fnv1a`), for digests built one item at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a float's exact bits into the digest.
    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        let ten: Vec<f64> = vec![100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0];
        assert_eq!(trimmed_mean(&ten, 0.1), 4.5);
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_every_delayed_line() {
        // 50 lines due 1 ms apart; the server stalls until 60 ms and then
        // answers everything at once. The generator, blocked by the same
        // stall, sent each line only at 60 ms, so latency measured from
        // the send time would read ~0 and hide the stall entirely.
        let rate = 1000.0;
        let stall_end = 60_000_000;
        let recv: Vec<Option<u64>> = (0..50).map(|_| Some(stall_end)).collect();
        let lat = due_latencies_ms(0, rate, &recv);
        assert_eq!(lat.len(), 50);
        assert_eq!(lat[0], 60.0);
        assert_eq!(lat[49], 11.0);
        assert!(median(&lat) > 30.0);
        // Unanswered lines are left for the caller to count as failed.
        assert_eq!(
            due_latencies_ms(0, rate, &[None, Some(2_000_000)]),
            vec![1.0]
        );
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let rung = |rate, p99_ms, backlog| Rung {
            rate,
            p99_ms,
            backlog,
        };
        let rungs = [
            rung(1e3, 1.0, 0),
            rung(2e3, 4.9, 0),
            rung(4e3, 7.0, 0),
            // Passes again, but the ladder already stopped.
            rung(8e3, 1.0, 0),
        ];
        assert_eq!(max_passing_rate(&rungs, 5.0), Some(2e3));
        // A backlog fails a rung even with a good tail.
        assert_eq!(
            max_passing_rate(&[rung(1e3, 1.0, 0), rung(2e3, 1.0, 3)], 5.0),
            Some(1e3)
        );
        assert_eq!(max_passing_rate(&[rung(1e3, 9.0, 0)], 5.0), None);
    }

    #[test]
    fn incremental_digest_matches_the_workspace_checksum() {
        let mut fnv = Fnv::default();
        fnv.bytes(b"pm");
        fnv.bytes(b"evo");
        assert_eq!(fnv.0, pmevo::core::binfmt::fnv1a(b"pmevo"));
    }

    #[test]
    fn subset_draw_is_seeded_disjoint_and_sorted() {
        let one_class = vec![0; 390];
        let a = draw_subsets(&one_class, 4, 48, 7);
        assert_eq!(a, draw_subsets(&one_class, 4, 48, 7));
        assert_ne!(a, draw_subsets(&one_class, 4, 48, 8));
        assert_eq!(a.len(), 4);
        let mut all: Vec<u32> = a.concat();
        assert!(a
            .iter()
            .all(|s| s.len() == 48 && s.windows(2).all(|w| w[0] < w[1])));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4 * 48);
        assert!(all.iter().all(|&id| id < 390));
        // Past one permutation, subsets repeat ids across permutations
        // but never within a subset.
        let many = draw_subsets(&[0; 30], 7, 8, 1);
        assert_eq!(many.len(), 7);
        assert!(many
            .iter()
            .all(|s| s.len() == 8 && s.windows(2).all(|w| w[0] < w[1])));
        let first: Vec<u32> = many[..3].concat();
        assert_eq!(
            first
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            24
        );
    }

    #[test]
    fn subset_draw_gives_every_subset_its_share_of_each_class() {
        // Classes of 20, 10 and 6 ids, interleaved; six subsets of six
        // take the whole universe, so each holds 3-4, 1-2 and exactly 1.
        let strata: Vec<u32> = (0..36u32)
            .map(|id| match id % 6 {
                0 => 2,
                1 | 4 if id < 30 => 1,
                _ => 0,
            })
            .collect();
        let size = |c: u32| strata.iter().filter(|&&s| s == c).count();
        assert_eq!((size(0), size(1), size(2)), (20, 10, 6));
        for seed in 0..20 {
            let subsets = draw_subsets(&strata, 6, 6, seed);
            for subset in &subsets {
                for (class, lo, hi) in [(0, 3, 4), (1, 1, 2), (2, 1, 1)] {
                    let n = subset
                        .iter()
                        .filter(|&&id| strata[id as usize] == class)
                        .count();
                    assert!((lo..=hi).contains(&n), "seed {seed}: class {class} has {n}");
                }
            }
            let mut all = subsets.concat();
            all.sort_unstable();
            assert_eq!(all, (0..36).collect::<Vec<u32>>());
        }
    }
}
