//! Deterministic RNG, run configuration, and case-failure plumbing.

use std::fmt;

/// SplitMix64 — tiny, fast, and deterministic across platforms.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG whose whole stream is a pure function of `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            // Avoid the all-zeros fixed point without disturbing other seeds.
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a over the test's full path: stable across runs and platforms,
/// distinct per test.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run configuration; only `cases` is meaningful in this shim.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` generated inputs.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Why a single generated case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// An assertion failed; the run aborts with this message.
    Fail(String),
}

impl TestCaseError {
    /// A failing case carrying `message`.
    pub fn fail(message: String) -> Self {
        TestCaseError::Fail(message)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let TestCaseError::Fail(m) = self;
        f.write_str(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = TestRng::from_seed(42);
        let mut b = TestRng::from_seed(42);
        let mut c = TestRng::from_seed(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn seeds_differ_by_name() {
        assert_ne!(seed_from_name("a::b"), seed_from_name("a::c"));
    }
}
