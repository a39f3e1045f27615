//! Deterministic, forkable random-number streams.
//!
//! Every stochastic component of the simulation (defect sampling, testcase
//! inputs, interleavings, trigger draws) pulls from a [`DetRng`]. Streams
//! are derived hierarchically with [`DetRng::fork`], so adding draws in one
//! component never perturbs another — a requirement for regenerating the
//! paper's tables and figures bit-identically across runs.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic RNG with hierarchical stream forking.
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: SmallRng,
    /// Owed `below(1)` picks (see [`DetRng::skip_forced`]), drawn before
    /// the stream is next used.
    forced: u64,
}

impl DetRng {
    /// Creates a stream from a root seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: SmallRng::seed_from_u64(seed),
            forced: 0,
        }
    }

    /// The generator, after drawing any owed forced picks.
    #[inline]
    fn stream(&mut self) -> &mut SmallRng {
        if self.forced != 0 {
            self.draw_forced();
        }
        &mut self.inner
    }

    #[cold]
    #[inline(never)]
    fn draw_forced(&mut self) {
        // `below(1)` accepts a raw draw iff it is at most its zone
        // `(1 << 63) - 1`, i.e. iff its top bit is clear.
        let mut left = std::mem::take(&mut self.forced);
        while left > 0 {
            left -= u64::from(self.inner.next_u64() >> 63 == 0);
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// Forking is a pure function of `(self.seed, label)` — it does not
    /// consume state from the parent stream.
    pub fn fork(&self, label: u64) -> DetRng {
        DetRng::new(splitmix64(self.seed ^ splitmix64(label)))
    }

    /// Derives an independent child stream from a string label.
    pub fn fork_str(&self, label: &str) -> DetRng {
        self.fork(fnv1a(label.as_bytes()))
    }

    /// Draws a uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.stream().gen::<f64>()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.stream().gen::<f64>() < p
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.stream().gen_range(0..n)
    }

    /// Fills `out` with uniform integers in `[0, n)`: the values of
    /// `out.len()` successive [`DetRng::below`] calls, leaving the stream
    /// where those calls leave it.
    ///
    /// Mirrors rand 0.8.5 `gen_range(0..n)` bit for bit: Lemire's widening
    /// multiply, rejecting a raw draw whose low product word exceeds the
    /// zone `(n << n.leading_zeros()) - 1`. Rejected draws are compacted
    /// away by not advancing the write index instead of by a branch, so a
    /// schedule whose live-core count is a power of two (half the raw
    /// draws rejected) pays no mispredictions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn fill_below(&mut self, n: u64, out: &mut [u64]) {
        assert!(n > 0, "fill_below(0)");
        let zone = (n << n.leading_zeros()).wrapping_sub(1);
        let rng = self.stream();
        let mut k = 0;
        while k < out.len() {
            let wide = u128::from(rng.next_u64()) * u128::from(n);
            out[k] = (wide >> 64) as u64;
            k += usize::from(wide as u64 <= zone);
        }
    }

    /// Advances the stream past `count` calls to `below(1)`, the picks of
    /// a schedule with a single candidate. The raw draws are made when the
    /// stream is next used, so a stream dropped afterwards (as interleave
    /// streams are) pays nothing for them.
    pub fn skip_forced(&mut self, count: u64) {
        self.forced += count;
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.stream().gen_range(lo..hi)
    }

    /// Standard-normal draw (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1: f64 = self.stream().gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.stream().gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Samples an index according to non-negative `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted() needs a positive total weight");
        let mut x = self.stream().gen::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Samples from a Poisson distribution with mean `lambda`.
    ///
    /// Knuth's multiplication method for small means, normal approximation
    /// for large ones; used by the accelerated executor to draw SDC event
    /// counts per time chunk.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 64.0 {
            let draw = lambda + lambda.sqrt() * self.normal();
            return draw.round().max(0.0) as u64;
        }
        let l = (-lambda).exp();
        self.poisson_knuth(l)
    }

    /// [`Self::poisson`] with the caller supplying a precomputed
    /// `exp(-lambda)` for the small-mean branch.
    ///
    /// The executor's steady-state fast path draws the same `lambda`
    /// for hundreds of consecutive chunks; memoizing `exp(-lambda)`
    /// removes the transcendental from the per-chunk cost. Draws are
    /// bit-identical to `poisson(lambda)` whenever `exp_neg_lambda ==
    /// (-lambda).exp()`: the zero and large-mean branches ignore the
    /// hint, and the Knuth loop consumes the identical uniform stream.
    pub fn poisson_with_exp(&mut self, lambda: f64, exp_neg_lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 64.0 {
            let draw = lambda + lambda.sqrt() * self.normal();
            return draw.round().max(0.0) as u64;
        }
        self.poisson_knuth(exp_neg_lambda)
    }

    /// Knuth's multiplication loop given `l = exp(-lambda)`.
    fn poisson_knuth(&mut self, l: f64) -> u64 {
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.stream().gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Samples `k` draws from a binomial(n, p) distribution.
    ///
    /// Uses the normal approximation when `n·p·(1−p)` is large, exact
    /// Bernoulli summation otherwise; adequate for fleet-scale population
    /// sampling.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        if p <= 0.0 || n == 0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let mean = n as f64 * p;
        let var = mean * (1.0 - p);
        if var > 100.0 {
            let draw = mean + var.sqrt() * self.normal();
            draw.round().clamp(0.0, n as f64) as u64
        } else if mean < 50.0 && n > 1000 {
            // Poisson-style thinning for rare events over huge n.
            let mut count = 0u64;
            let lambda = mean;
            // Knuth's algorithm on expected count; exact enough for rates
            // of a few per ten thousand.
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut prod = 1.0;
            loop {
                prod *= self.stream().gen::<f64>();
                if prod <= l {
                    break;
                }
                k += 1;
                if k >= n {
                    break;
                }
            }
            count += k;
            count.min(n)
        } else {
            (0..n).filter(|_| self.stream().gen::<f64>() < p).count() as u64
        }
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.stream().next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.stream().next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.stream().fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.stream().try_fill_bytes(dest)
    }
}

/// SplitMix64 finalizer; decorrelates fork labels.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over bytes, for string fork labels.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let a = DetRng::new(7);
        let mut a2 = DetRng::new(7);
        let _ = a2.next_u64(); // consume from one parent
        let mut f1 = a.fork(3);
        let mut f2 = a2.fork(3);
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn distinct_labels_give_distinct_streams() {
        let root = DetRng::new(1);
        let mut xs = std::collections::HashSet::new();
        for label in 0..64u64 {
            xs.insert(root.fork(label).next_u64());
        }
        assert_eq!(xs.len(), 64);
    }

    #[test]
    fn fork_str_stable() {
        let root = DetRng::new(9);
        let x = root.fork_str("thermal").next_u64();
        let y = root.fork_str("thermal").next_u64();
        let z = root.fork_str("silicon").next_u64();
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn unit_in_range() {
        let mut r = DetRng::new(11);
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn weighted_prefers_heavy_bucket() {
        let mut r = DetRng::new(13);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[r.weighted(&[0.1, 0.1, 0.8])] += 1;
        }
        assert!(counts[2] > counts[0] + counts[1]);
    }

    #[test]
    fn binomial_mean_is_sane() {
        let mut r = DetRng::new(17);
        let n = 100_000u64;
        let p = 3.61e-4;
        let mut total = 0u64;
        let rounds = 200;
        for _ in 0..rounds {
            total += r.binomial(n, p);
        }
        let mean = total as f64 / rounds as f64;
        let expect = n as f64 * p;
        assert!(
            (mean - expect).abs() < expect * 0.25,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn binomial_extremes() {
        let mut r = DetRng::new(19);
        assert_eq!(r.binomial(10, 0.0), 0);
        assert_eq!(r.binomial(10, 1.0), 10);
        assert_eq!(r.binomial(0, 0.5), 0);
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut r = DetRng::new(29);
        for lambda in [0.5f64, 5.0, 200.0] {
            let n = 4000;
            let total: u64 = (0..n).map(|_| r.poisson(lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "lambda {lambda}: mean {mean}"
            );
        }
        assert_eq!(r.poisson(0.0), 0);
        assert_eq!(r.poisson(-3.0), 0);
    }

    /// `poisson_with_exp` must return the same value AND leave the
    /// stream in the same state as `poisson` for every branch (zero,
    /// Knuth, normal approximation) — the executor fast path depends
    /// on this for bit-identity with the reference chunk loop.
    #[test]
    fn poisson_with_exp_is_draw_equivalent() {
        for seed in [1u64, 29, 0xfeed] {
            for lambda in [-1.0f64, 0.0, 1e-9, 0.01, 0.7, 5.0, 63.9, 64.0, 64.1, 500.0] {
                let mut a = DetRng::new(seed);
                let mut b = DetRng::new(seed);
                for _ in 0..64 {
                    assert_eq!(
                        a.poisson(lambda),
                        b.poisson_with_exp(lambda, (-lambda).exp()),
                        "lambda {lambda} seed {seed}"
                    );
                }
                // Streams advanced identically.
                assert_eq!(a.next_u64(), b.next_u64(), "lambda {lambda} seed {seed}");
            }
        }
    }

    /// `fill_below` must equal repeated `below` in its values and in the
    /// stream position it leaves, including at power-of-two bounds (half
    /// the raw draws rejected) and at the extremes of `u64`.
    #[test]
    fn fill_below_matches_repeated_below() {
        let bounds = [1u64, 2, 3, 16, 24, 48, 64, 1 << 63, u64::MAX];
        for seed in [1u64, 0x5150] {
            for n in bounds {
                for len in [0usize, 1, 257] {
                    let mut a = DetRng::new(seed);
                    let mut b = DetRng::new(seed);
                    let expect: Vec<u64> = (0..len).map(|_| a.below(n)).collect();
                    let mut got = vec![0; len];
                    b.fill_below(n, &mut got);
                    assert_eq!(got, expect, "n {n} len {len} seed {seed}");
                    assert_eq!(a.next_u64(), b.next_u64(), "n {n} len {len} seed {seed}");
                }
            }
        }
    }

    /// Skipped forced picks land the stream where `below(1)` calls would,
    /// whichever method uses it next.
    #[test]
    fn skip_forced_matches_below_one() {
        for count in [0u64, 1, 2, 100] {
            let mut a = DetRng::new(31);
            let mut b = DetRng::new(31);
            for _ in 0..count {
                assert_eq!(a.below(1), 0);
            }
            b.skip_forced(count);
            assert_eq!(a.below(7), b.below(7), "count {count}");
            a.skip_forced(3);
            b.skip_forced(1);
            b.skip_forced(2);
            let mut out = [0; 5];
            b.fill_below(24, &mut out);
            let expect: Vec<u64> = (0..5).map(|_| a.below(24)).collect();
            assert_eq!(out.to_vec(), expect, "count {count}");
            assert_eq!(a.next_u64(), b.next_u64(), "count {count}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = DetRng::new(23);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
