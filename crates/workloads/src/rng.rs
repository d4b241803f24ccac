//! Self-contained deterministic PRNG (SplitMix64 seeding + xoshiro256**).
//!
//! The reproduction's workload streams must be bit-identical across
//! platforms and releases — experiment tables are diffed against recorded
//! results — so we implement the generator rather than depend on an
//! external crate whose stream could change.

/// xoshiro256** by Blackman & Vigna, seeded via SplitMix64.
///
/// # Examples
///
/// ```
/// use mot3d_workloads::rng::Xoshiro256;
/// let mut a = Xoshiro256::seeded(42);
/// let mut b = Xoshiro256::seeded(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed ⇒ same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed (expanded with SplitMix64 so
    /// nearby seeds give unrelated streams).
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        // All-zero state is invalid; SplitMix64 cannot produce it from the
        // four calls above, but guard anyway.
        let s = if s == [0; 4] { [1, 2, 3, 4] } else { s };
        Xoshiro256 { s }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift; bias is negligible for the bounds used here
        // (≪ 2^32) and determinism is what matters.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::seeded(123);
        let mut b = Xoshiro256::seeded(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seeded(1);
        let mut b = Xoshiro256::seeded(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be unrelated");
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut r = Xoshiro256::seeded(7);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bounded_draws_stay_in_bounds_and_cover() {
        let mut r = Xoshiro256::seeded(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_below(10) as usize;
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = Xoshiro256::seeded(11);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn mean_is_centred() {
        let mut r = Xoshiro256::seeded(13);
        let mean: f64 = (0..50_000).map(|_| r.next_f64()).sum::<f64>() / 50_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
