//! Zipfian key chooser, following the YCSB `ZipfianGenerator` /
//! `ScrambledZipfianGenerator` construction (Gray et al.'s rejection-free
//! method), used by the YCSB workloads in §5.7 of the paper.

use rand::Rng;

/// Default YCSB skew ("zipfian constant").
pub const YCSB_ZIPFIAN_CONSTANT: f64 = 0.99;

/// A Zipfian distribution over `0..n` where item rank 0 is the most popular.
///
/// With the optional *scrambling* (as in YCSB's `ScrambledZipfianGenerator`),
/// the popular items are spread over the whole key space instead of being the
/// numerically smallest keys, which is what YCSB feeds to the database.
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scrambled: bool,
}

impl Zipfian {
    /// Creates a Zipfian distribution over `items` elements with the default
    /// YCSB skew, without scrambling (rank 0 = key 0).
    pub fn new(items: u64) -> Self {
        Self::with_theta(items, YCSB_ZIPFIAN_CONSTANT)
    }

    /// Creates a scrambled Zipfian distribution (YCSB's default request
    /// distribution): popular ranks are hashed across the whole key space.
    pub fn scrambled(items: u64) -> Self {
        let mut zipf = Self::with_theta(items, YCSB_ZIPFIAN_CONSTANT);
        zipf.scrambled = true;
        zipf
    }

    /// Creates a Zipfian distribution with an explicit skew parameter
    /// `theta ∈ (0, 1)`.
    pub fn with_theta(items: u64, theta: f64) -> Self {
        assert!(items > 0, "a Zipfian distribution needs at least one item");
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in (0, 1), got {theta}"
        );
        let zetan = Self::zeta(items, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Self {
            items,
            theta,
            alpha,
            zetan,
            eta,
            scrambled: false,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation; only done at construction time. For the paper's
        // 10^6 records this costs a millisecond.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of items.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws the *rank* of the next item (0 = most popular).
    pub fn next_rank(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }

    /// Draws the next key. With scrambling enabled the rank is hashed over
    /// the key space (YCSB's FNV hash), otherwise the key equals the rank.
    pub fn next_key(&self, rng: &mut impl Rng) -> u64 {
        let rank = self.next_rank(rng);
        if self.scrambled {
            fnv1a_64(rank) % self.items
        } else {
            rank
        }
    }
}

/// 64-bit FNV-1a hash, as used by YCSB to scramble Zipfian ranks.
pub fn fnv1a_64(value: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in value.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn ranks_are_in_range() {
        let zipf = Zipfian::new(1_000);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(zipf.next_rank(&mut rng) < 1_000);
        }
    }

    #[test]
    fn scrambled_keys_are_in_range() {
        let zipf = Zipfian::scrambled(1_000_000);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(zipf.next_key(&mut rng) < 1_000_000);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let zipf = Zipfian::new(1_000_000);
        let mut rng = SmallRng::seed_from_u64(42);
        let samples = 100_000;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..samples {
            *counts.entry(zipf.next_rank(&mut rng)).or_insert(0) += 1;
        }
        let rank0 = *counts.get(&0).unwrap_or(&0) as f64 / samples as f64;
        // With theta = 0.99 over 10^6 items, rank 0 gets ≈ 6% of accesses.
        assert!(rank0 > 0.03, "rank-0 frequency {rank0} unexpectedly low");
        assert!(rank0 < 0.15, "rank-0 frequency {rank0} unexpectedly high");
        // The paper notes the first 12 records take ~20% of accesses (§5.7).
        let top12: u64 = (0..12).map(|r| *counts.get(&r).unwrap_or(&0)).sum();
        let top12 = top12 as f64 / samples as f64;
        assert!(
            top12 > 0.12 && top12 < 0.35,
            "top-12 mass {top12} out of range"
        );
    }

    #[test]
    fn rank_frequencies_are_monotonically_decreasing_overall() {
        let zipf = Zipfian::new(100);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = vec![0u64; 100];
        for _ in 0..200_000 {
            counts[zipf.next_rank(&mut rng) as usize] += 1;
        }
        // Compare coarse buckets to avoid sampling noise.
        let first = counts[..10].iter().sum::<u64>();
        let middle = counts[10..50].iter().sum::<u64>();
        let last = counts[50..].iter().sum::<u64>();
        assert!(first > middle);
        assert!(middle > last);
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let mild = Zipfian::with_theta(10_000, 0.5);
        let strong = Zipfian::with_theta(10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(11);
        let sample = |z: &Zipfian, rng: &mut SmallRng| {
            let mut zero = 0u64;
            for _ in 0..50_000 {
                if z.next_rank(rng) == 0 {
                    zero += 1;
                }
            }
            zero
        };
        let mild_zero = sample(&mild, &mut rng);
        let strong_zero = sample(&strong, &mut rng);
        assert!(strong_zero > mild_zero * 2);
    }

    #[test]
    fn scrambling_spreads_popular_keys() {
        // The most popular plain key is 0; after scrambling, the most popular
        // key is fnv(0) % n instead, so hot keys are spread over the space.
        let scrambled = Zipfian::scrambled(1_000_000);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(scrambled.next_key(&mut rng)).or_insert(0) += 1;
        }
        let most_popular = counts
            .iter()
            .max_by_key(|(_, c)| **c)
            .map(|(k, _)| *k)
            .unwrap();
        assert_eq!(most_popular, fnv1a_64(0) % 1_000_000);
        assert_ne!(most_popular, 0);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_is_rejected() {
        let _ = Zipfian::new(0);
    }

    #[test]
    fn deterministic_given_seed() {
        let zipf = Zipfian::scrambled(1_000);
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        let seq_a: Vec<u64> = (0..100).map(|_| zipf.next_key(&mut a)).collect();
        let seq_b: Vec<u64> = (0..100).map(|_| zipf.next_key(&mut b)).collect();
        assert_eq!(seq_a, seq_b);
    }
}
