//! Seeded pseudo-random number generation.
//!
//! The simulation deliberately avoids the `rand` crate: reproducibility of
//! every experiment requires a single, fully specified generator. [`Rng`]
//! implements **xoshiro256++** (Blackman & Vigna) seeded through SplitMix64,
//! plus the handful of distributions the network and workload models need.

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// Not cryptographically secure — the cryptographic substrate lives in
/// `duc-crypto`. This generator drives workload generation, latency jitter
/// and fault injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The full 256-bit internal state is expanded from the seed with
    /// SplitMix64, as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child generator (for per-actor streams).
    ///
    /// Mixing in a caller-chosen `stream` id keeps child streams disjoint
    /// even when forked from identical parent states.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let mixed = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::seed_from_u64(mixed)
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_range(hi - lo + 1)
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub(crate) fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub(crate) fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// An exponentially distributed sample with the given mean.
    pub fn gen_exponential(&mut self, mean: f64) -> f64 {
        // Inverse-CDF; guard the log argument away from zero.
        let u = 1.0 - self.gen_f64();
        -mean * u.ln()
    }

    /// A normally distributed sample (Box–Muller transform).
    pub(crate) fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = (1.0 - self.gen_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.gen_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A uniformly chosen reference into a non-empty slice.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose on empty slice");
        &items[self.gen_range(items.len() as u64) as usize]
    }

    /// Samples an index according to non-negative `weights` (Zipf-like
    /// workloads are expressed through this).
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut target = self.gen_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= *w;
        }
        weights.len() - 1
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s`: the one-shot
    /// form, by definition [`Rng::choose_weighted`] over [`zipf_weights`].
    /// It pays `n` `powf`s per draw; a loop builds the table once and draws
    /// from it — the ranks are the same.
    pub fn gen_zipf(&mut self, n: usize, s: f64) -> usize {
        self.choose_weighted(&zipf_weights(n, s))
    }
}

/// The Zipf weight table over ranks `[0, n)` with exponent `s` (rank 0 is
/// the hottest): `1 / (rank + 1)^s`. Models skewed resource popularity in
/// the data-market workloads; draw from it with [`Rng::choose_weighted`].
///
/// # Panics
/// Panics if `n` is zero.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0, "zipf requires n > 0");
    (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit in 1000 draws");
    }

    #[test]
    fn gen_range_inclusive_hits_endpoints() {
        let mut rng = Rng::seed_from_u64(4);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            match rng.gen_range_inclusive(5, 8) {
                5 => lo_seen = true,
                8 => hi_seen = true,
                v => assert!((5..=8).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn float_sampling_within_unit_interval() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = Rng::seed_from_u64(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen_exponential(10.0)).sum::<f64>() / n as f64;
        assert!(
            (mean - 10.0).abs() < 0.5,
            "sample mean {mean} too far from 10"
        );
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = Rng::seed_from_u64(8);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut rng = Rng::seed_from_u64(9);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(10);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffled order changed");
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = Rng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        for _ in 0..9000 {
            counts[rng.choose_weighted(&[1.0, 2.0, 6.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
    }

    #[test]
    fn zipf_is_skewed_to_low_ranks() {
        let mut rng = Rng::seed_from_u64(12);
        let mut counts = [0usize; 20];
        for _ in 0..5000 {
            counts[rng.gen_zipf(20, 1.0)] += 1;
        }
        assert!(counts[0] > counts[10] * 3, "rank 0 dominates rank 10");
    }

    #[test]
    fn hoisted_zipf_table_draws_what_gen_zipf_draws() {
        for n in [1usize, 7, 1_000] {
            for s in [0.0, 1.1] {
                let mut one_shot = Rng::seed_from_u64(n as u64 ^ 0x21bf);
                let mut hoisted = one_shot.clone();
                let table = zipf_weights(n, s);
                for draw in 0..1_000 {
                    assert_eq!(
                        one_shot.gen_zipf(n, s),
                        hoisted.choose_weighted(&table),
                        "n={n} s={s} draw {draw}"
                    );
                }
                assert_eq!(one_shot, hoisted, "both consumed the same stream");
            }
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::seed_from_u64(13);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let equal = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(equal, 0);
    }
}
