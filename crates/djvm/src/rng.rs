//! Deterministic pseudo-randomness: SplitMix64.
//!
//! The VM's non-determinism *sources* (timer jitter, clock noise) are
//! modeled with a seeded PRNG so the experiment harness can enumerate
//! distinct "runs of the machine" reproducibly (§2.3). SplitMix64 (Steele,
//! Lea & Flood, OOPSLA 2014) is tiny, fast, passes BigCrush, and — unlike
//! an external `rand` crate — is fully under the platform's control, which
//! is the same discipline the paper applies to its own side effects.

/// A SplitMix64 generator. Equal seeds yield equal streams, forever.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from the inclusive range `lo..=hi`.
    ///
    /// Uses Lemire-style rejection so the draw is unbiased; the loop
    /// terminates quickly (expected < 2 iterations) and deterministically
    /// for a given seed.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let n = span + 1;
        // Rejection zone: values >= threshold map uniformly onto 0..n.
        let threshold = 0u64.wrapping_sub(n) % n;
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return lo + (r % n);
            }
        }
    }

    /// Uniform draw from the inclusive signed range `lo..=hi`.
    pub fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi as u64).wrapping_sub(lo as u64);
        if span == u64::MAX {
            return self.next_u64() as i64;
        }
        lo.wrapping_add(self.gen_range_u64(0, span) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vector() {
        // Reference values for seed 1234567 from the SplitMix64 paper's
        // public-domain reference implementation.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn range_draws_stay_in_band() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.gen_range_u64(700, 1300);
            assert!((700..=1300).contains(&v));
        }
        for _ in 0..1000 {
            let v = r.gen_range_i64(-50, 50);
            assert!((-50..=50).contains(&v));
        }
    }

    #[test]
    fn range_covers_extremes() {
        let mut r = SplitMix64::new(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..200 {
            match r.gen_range_u64(0, 3) {
                0 => seen_lo = true,
                3 => seen_hi = true,
                _ => {}
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn degenerate_and_full_ranges() {
        let mut r = SplitMix64::new(3);
        assert_eq!(r.gen_range_u64(5, 5), 5);
        assert_eq!(r.gen_range_i64(-9, -9), -9);
        let _ = r.gen_range_u64(0, u64::MAX);
        let _ = r.gen_range_i64(i64::MIN, i64::MAX);
    }
}
