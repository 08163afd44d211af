//! Key distributions: uniform, Zipfian, scrambled Zipfian (YCSB core).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Zipfian generator over `0..n`, exponent `theta` (YCSB default 0.99),
/// using the rejection-free method of Gray et al. ("Quickly generating
/// billion-record synthetic databases") as in YCSB's `ZipfianGenerator`.
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        let zeta2theta = Self::zeta(2, theta);
        let zetan = Self::zeta(n, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum; called once per distribution. For very large n this is
        // the cost YCSB pays too (it caches the constant, as do we).
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Next sample in `0..n` (rank 0 is the hottest key).
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// FNV-scrambled sample, spreading hot keys across the key space
    /// (YCSB's `ScrambledZipfianGenerator`).
    pub fn sample_scrambled(&self, rng: &mut SmallRng) -> u64 {
        fnv1a64(self.sample(rng)) % self.n
    }
}

fn fnv1a64(v: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// A key distribution over `1..=max_key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyDist {
    Uniform,
    Zipfian,
}

/// A per-thread sampler combining the distribution and its RNG.
pub struct KeySampler {
    dist: KeyDist,
    zipf: Option<Zipfian>,
    max_key: u64,
    rng: SmallRng,
}

impl KeySampler {
    pub fn new(dist: KeyDist, max_key: u64, seed: u64) -> Self {
        KeySampler {
            dist,
            zipf: matches!(dist, KeyDist::Zipfian).then(|| Zipfian::new(max_key, 0.99)),
            max_key,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A key in `1..=max_key`.
    pub fn next_key(&mut self) -> u64 {
        match self.dist {
            KeyDist::Uniform => self.rng.gen_range(1..=self.max_key),
            KeyDist::Zipfian => 1 + self.zipf.as_ref().unwrap().sample_scrambled(&mut self.rng),
        }
    }

    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_samples_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
            assert!(z.sample_scrambled(&mut rng) < 1000);
        }
    }

    #[test]
    fn zipfian_is_skewed() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[100] * 5, "rank 0 must dominate rank 100");
        assert!(
            counts[0] as f64 > 100_000.0 * 0.05,
            "hot key ≥ 5% of traffic"
        );
    }

    #[test]
    fn scrambling_spreads_hot_keys() {
        let z = Zipfian::new(1_000_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let a = z.sample_scrambled(&mut rng);
        // Hot ranks map to arbitrary (not small) key values.
        let mut any_large = false;
        for _ in 0..100 {
            if z.sample_scrambled(&mut rng) > 1000 {
                any_large = true;
            }
        }
        let _ = a;
        assert!(any_large);
    }

    #[test]
    fn uniform_sampler_covers_range() {
        let mut s = KeySampler::new(KeyDist::Uniform, 100, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let k = s.next_key();
            assert!((1..=100).contains(&k));
            seen.insert(k);
        }
        assert!(seen.len() > 95, "uniform sampling should cover the range");
    }

    #[test]
    fn samplers_are_deterministic_by_seed() {
        let mut a = KeySampler::new(KeyDist::Zipfian, 1000, 42);
        let mut b = KeySampler::new(KeyDist::Zipfian, 1000, 42);
        for _ in 0..100 {
            assert_eq!(a.next_key(), b.next_key());
        }
    }
}
