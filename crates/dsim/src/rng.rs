//! Deterministic random numbers for simulations.
//!
//! Everything in a simulation must be reproducible from a single seed, so
//! we never touch OS entropy. `SimRng` wraps a counter-seeded `StdRng` and
//! adds the small helpers the workload generators need.

// sovia-lint: allow(R4) -- this IS the sanctioned wrapper: StdRng is always counter-seeded from the run seed (seed_from below), never from OS entropy
use rand::rngs::StdRng;
// sovia-lint: allow(R4) -- trait imports for the seeded StdRng above; no entropy source is reachable through them
use rand::{Rng, RngExt, SeedableRng};

/// A seeded deterministic RNG.
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn seed_from(seed: u64) -> SimRng {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream (for giving each simulated entity
    /// its own RNG without correlating their draws).
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.inner.next_u64())
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.inner.random_range(0..n)
    }

    /// Uniform in `[lo, hi]` (inclusive).
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        self.inner.random_range(lo..=hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Fill a buffer with deterministic pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// A deterministic pseudo-random payload of `len` bytes.
    pub fn payload(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill_bytes(&mut v);
        v
    }

    /// Raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// A cheap deterministic byte pattern for message payloads whose content
/// must be verifiable at the receiver without carrying the whole expected
/// buffer around: `pattern_byte(tag, i)` for position `i` of stream `tag`.
#[inline]
pub fn pattern_byte(tag: u64, i: u64) -> u8 {
    // SplitMix64-style mix; good dispersion, fully deterministic.
    let mut z = tag
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 30;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 27;
    z as u8
}

/// Fill `buf` with the verification pattern for stream `tag` starting at
/// stream offset `start`.
pub fn fill_pattern(tag: u64, start: u64, buf: &mut [u8]) {
    for (k, b) in buf.iter_mut().enumerate() {
        *b = pattern_byte(tag, start + k as u64);
    }
}

/// Check `buf` against the verification pattern; returns the index of the
/// first mismatch, if any.
pub fn check_pattern(tag: u64, start: u64, buf: &[u8]) -> Option<usize> {
    buf.iter()
        .enumerate()
        .find(|(k, b)| **b != pattern_byte(tag, start + *k as u64))
        .map(|(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_streams_differ() {
        let mut a = SimRng::seed_from(7);
        let mut c1 = a.fork();
        let mut c2 = a.fork();
        let v1: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let v2: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn below_bounds() {
        let mut r = SimRng::seed_from(1);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
            let x = r.range_inclusive(5, 9);
            assert!((5..=9).contains(&x));
        }
    }

    #[test]
    fn pattern_roundtrip() {
        let mut buf = vec![0u8; 300];
        fill_pattern(99, 1234, &mut buf);
        assert_eq!(check_pattern(99, 1234, &buf), None);
        buf[250] ^= 0xFF;
        assert_eq!(check_pattern(99, 1234, &buf), Some(250));
    }

    #[test]
    fn pattern_is_offset_consistent() {
        let mut whole = vec![0u8; 64];
        fill_pattern(5, 0, &mut whole);
        let mut tail = vec![0u8; 32];
        fill_pattern(5, 32, &mut tail);
        assert_eq!(&whole[32..], &tail[..]);
    }
}
