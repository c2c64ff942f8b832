//! # dfm-rand — dependency-free deterministic random numbers
//!
//! Every stochastic experiment in this workspace (Monte-Carlo critical
//! area, defect sampling, synthetic layout/netlist generation, CD
//! variation) must be **bit-reproducible from a named seed** with zero
//! registry dependencies — the hermetic-build policy in `DESIGN.md`.
//! This crate is the single source of randomness: a xoshiro256++ core
//! seeded through SplitMix64, plus the small distribution surface the
//! codebase actually uses.
//!
//! Policy: **seed everywhere, no ambient entropy.** There is no
//! `from_entropy`/OS-seeded constructor on purpose; every generator is
//! built from an explicit [`Seed`] (or `u64`), so two runs of any
//! experiment produce identical bits on every platform.
//!
//! ```
//! use dfm_rand::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let x = rng.range(0i64..100);
//! assert!((0..100).contains(&x));
//! assert_eq!(Rng::seed_from_u64(42).range(0i64..100), x);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// An explicit random seed.
///
/// A thin wrapper that makes seeds visible in APIs: functions that
/// consume randomness should take a `Seed` (or a `u64` documented as
/// one), never construct ambient entropy internally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Seed(pub u64);

impl Seed {
    /// Derives a stream-independent child seed, e.g. one per test case
    /// or per Monte-Carlo stratum. Mixing is SplitMix64-strength, so
    /// nearby indices give uncorrelated streams.
    pub fn derive(self, index: u64) -> Seed {
        // Jump the SplitMix64 stream by `index` golden-ratio steps: the
        // state map is injective in `index`, so children never collide.
        let mut s = SplitMix64::new(
            self.0
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index)),
        );
        s.next();
        Seed(s.next())
    }
}

impl From<u64> for Seed {
    fn from(v: u64) -> Seed {
        Seed(v)
    }
}

/// SplitMix64: the canonical seed expander (Steele, Lea, Flood 2014).
/// Used to turn one `u64` into the 256-bit xoshiro state; also usable
/// directly as a tiny standalone generator for seed derivation.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the expander from a raw seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    // Not an Iterator: the expander is infinite and `next` never ends.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The workspace PRNG: xoshiro256++ (Blackman & Vigna 2019).
///
/// 256-bit state, period 2²⁵⁶−1, passes BigCrush, and is trivially
/// portable — no platform-dependent behaviour anywhere in this crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second Box-Muller variate (see [`Rng::normal`]).
    spare_normal: Option<u64>,
}

impl Rng {
    /// Builds a generator from an explicit seed.
    pub fn from_seed(seed: Seed) -> Rng {
        Rng::seed_from_u64(seed.0)
    }

    /// Builds a generator from a raw `u64` seed (SplitMix64-expanded,
    /// so even seeds 0, 1, 2… give well-mixed, uncorrelated states).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next(), sm.next(), sm.next(), sm.next()],
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output (the xoshiro256++ scrambler).
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

    /// Uniform `f64` in `[0, 1)` with full 53-bit mantissa resolution.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from a half-open range.
    ///
    /// Implemented for the integer types the workspace uses and `f64`;
    /// integer sampling is unbiased (Lemire rejection).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range<T: UniformSample>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Unbiased uniform `u64` in `[0, bound)` by widening-multiply
    /// rejection (Lemire 2019).
    fn u64_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform random `bool`.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Standard normal variate via Box-Muller (the cached second
    /// variate is stored bit-exactly so streams stay reproducible).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(bits) = self.spare_normal.take() {
            return f64::from_bits(bits);
        }
        // u1 bounded away from 0 so ln() is finite.
        let u1 = self.f64().max(1e-300);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let z0 = r * theta.cos();
        let z1 = r * theta.sin();
        self.spare_normal = Some(z1.to_bits());
        z0
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Uniform in-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.u64_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Splits off an independent child generator (keyed off this
    /// stream), advancing this generator by one output.
    pub fn fork(&mut self) -> Rng {
        let seed = self.next_u64();
        Rng::seed_from_u64(seed)
    }
}

/// Types that [`Rng::range`] can sample uniformly from a half-open
/// range. Sealed in practice: implemented for the workspace's needs.
pub trait UniformSample: Copy {
    /// Samples uniformly from `range`.
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformSample for $t {
            fn sample(rng: &mut Rng, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "empty range in Rng::range");
                let span = (range.end as $u).wrapping_sub(range.start as $u) as u64;
                let off = rng.u64_below(span);
                ((range.start as $u).wrapping_add(off as $u)) as $t
            }
        }
    )*};
}

impl_uniform_int!(i64 => u64, u64 => u64, i32 => u32, u32 => u32, u16 => u16, u8 => u8, usize => usize);

impl UniformSample for f64 {
    fn sample(rng: &mut Rng, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range in Rng::range");
        let v = range.start + rng.f64() * (range.end - range.start);
        // Guard against rounding up to the excluded endpoint.
        if v >= range.end {
            range.start
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden pinning: the exact first outputs for seed 1. Any change
    /// to seeding or the core breaks bit-reproducibility of every
    /// recorded experiment, so this must fail loudly.
    #[test]
    fn golden_stream_seed_1() {
        let mut rng = Rng::seed_from_u64(1);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        // Cross-checked against the reference xoshiro256++ C code with
        // SplitMix64(1) state expansion.
        let mut sm = SplitMix64::new(1);
        let state = [sm.next(), sm.next(), sm.next(), sm.next()];
        let mut reference = ReferenceXoshiro { s: state };
        let expect: Vec<u64> = (0..4).map(|_| reference.next()).collect();
        assert_eq!(first, expect);
        // And pin the absolute values so the reference itself can't
        // drift silently.
        assert_eq!(state[0], 0x910a_2dec_8902_5cc1);
    }

    /// Reference implementation transcribed independently from the
    /// published algorithm (prng.di.unimi.it/xoshiro256plusplus.c).
    struct ReferenceXoshiro {
        s: [u64; 4],
    }

    impl ReferenceXoshiro {
        fn next(&mut self) -> u64 {
            // Literal transcription of the reference C, rotl included.
            #[allow(clippy::manual_rotate)]
            fn rotl(x: u64, k: u32) -> u64 {
                (x << k) | (x >> (64 - k))
            }
            let result = rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = rotl(self.s[3], 45);
            result
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(Rng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds_and_coverage() {
        let mut rng = Rng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.range(0i64..10);
            assert!((0..10).contains(&v));
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 10 values should appear");
        // usize / u32 / f64 variants respect bounds too.
        for _ in 0..1_000 {
            assert!(rng.range(3usize..7) < 7);
            assert!(rng.range(0u32..4) < 4);
            let f = rng.range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
        // Negative integer ranges.
        for _ in 0..1_000 {
            let v = rng.range(-50i64..-10);
            assert!((-50..-10).contains(&v));
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 100_000;
        let k = 8u64;
        let mut counts = [0usize; 8];
        for _ in 0..n {
            counts[rng.range(0u64..k) as usize] += 1;
        }
        let expect = n as f64 / k as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expect).abs() < 5.0 * expect.sqrt(),
                "bucket count {c} vs expected {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(0).range(5i64..5);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 50_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count() as f64 / n as f64;
        assert!((hits - 0.3).abs() < 0.01, "empirical p {hits}");
        assert!((0..1000).all(|_| !rng.bernoulli(0.0)));
        assert!((0..1000).all(|_| rng.bernoulli(1.0)));
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(17);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(19);
        let mut v: Vec<i64> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // Shuffling actually moves things (astronomically unlikely not to).
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut a = Rng::seed_from_u64(23);
        let mut b = Rng::seed_from_u64(23);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..50 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
        // Parent and child streams differ.
        assert_ne!(a.next_u64(), fa.next_u64());
    }

    #[test]
    fn seed_derive_varies_with_index() {
        let base = Seed(42);
        let children: Vec<u64> = (0..16).map(|i| base.derive(i).0).collect();
        let mut unique = children.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), children.len());
        assert_eq!(base.derive(3), Seed(42).derive(3));
    }
}
