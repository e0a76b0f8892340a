//! SplitMix64 (Steele, Lea & Flood, OOPSLA'14 variant as published by
//! Vigna) — the standard seed-expansion generator. One 64-bit state, one
//! output per step; primarily used here to derive keys and sub-seeds for
//! the other generators so user-facing seeds can be small integers.

/// The golden-ratio increment SplitMix64 adds to its state per step.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output of state `z`: add the golden-ratio increment,
/// then mix. Also a stateless 64-bit hash: QAP's synthetic matrix entries
/// and the random-search floor both draw from it.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        z
    }

    /// Next `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derive `n` independent sub-seeds from one master seed.
    pub fn derive(seed: u64, n: usize) -> Vec<u64> {
        let mut g = SplitMix64::new(seed);
        (0..n).map(|_| g.next_u64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values for seed 1234567 from Vigna's splitmix64.c.
    #[test]
    fn known_answer_seed_1234567() {
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
        assert_eq!(g.next_u64(), 9817491932198370423);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut g = SplitMix64::new(0);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn derive_produces_distinct_seeds() {
        let seeds = SplitMix64::derive(42, 100);
        let set: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
