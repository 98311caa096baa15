//! Zipf-distributed key sampling (the YCSB "zipfian" generator).
//!
//! Implements the Gray et al. / Jain quick method used by the reference
//! YCSB implementation, with exponent θ = 0.99 by default.

use std::cell::RefCell;
use std::collections::BTreeMap;

use mr_sim::SimRng;

/// A Zipf(θ) sampler over `{0, .., n-1}` (rank 0 is the hottest key).
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^θ`: a draw whose `u · ζ(n)` falls below it is rank 1.
    rank1_bound: f64,
}

impl Zipf {
    pub const YCSB_THETA: f64 = 0.99;

    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 1);
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            rank1_bound: 1.0 + 0.5f64.powf(theta),
        }
    }

    pub fn ycsb(n: u64) -> Zipf {
        Zipf::new(n, Self::YCSB_THETA)
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw a rank in `[0, n)`; rank 0 is most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let u = rng.unit_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Probability mass of rank `k` (for tests).
    pub fn pmf(&self, k: u64) -> f64 {
        1.0 / ((k + 1) as f64).powf(self.theta) / self.zetan
    }
}

thread_local! {
    /// ζ(n, θ) by `(n, θ's bits)`: every `Zipf` of one key space shares one
    /// n-term sum. Bounded by the distinct `(n, θ)` pairs a thread builds.
    static ZETA: RefCell<BTreeMap<(u64, u64), f64>> = const { RefCell::new(BTreeMap::new()) };
}

/// ζ(n, θ) = Σ_{i=1..n} i^-θ, summed left to right on a thread's first ask
/// for `(n, θ)` and looked up after that, so the result never depends on
/// whether it was cached.
fn zeta(n: u64, theta: f64) -> f64 {
    ZETA.with_borrow_mut(|memo| {
        *memo
            .entry((n, theta.to_bits()))
            .or_insert_with(|| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_in_bounds() {
        let z = Zipf::ycsb(1000);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn hottest_key_dominates() {
        let z = Zipf::ycsb(10_000);
        let mut rng = SimRng::seed_from_u64(2);
        let mut counts = [0u64; 4];
        let trials = 200_000;
        for _ in 0..trials {
            let r = z.sample(&mut rng);
            if r < 4 {
                counts[r as usize] += 1;
            }
        }
        // Empirical frequencies roughly match the pmf (within 20%).
        for k in 0..4 {
            let expected = z.pmf(k) * trials as f64;
            let got = counts[k as usize] as f64;
            assert!(
                (got - expected).abs() / expected < 0.2,
                "rank {k}: got {got}, expected {expected}"
            );
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
    }

    #[test]
    fn uniform_theta_zero() {
        let z = Zipf::new(100, 0.0);
        let mut rng = SimRng::seed_from_u64(3);
        let mut hits = vec![0u64; 100];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        let min = *hits.iter().min().unwrap() as f64;
        let max = *hits.iter().max().unwrap() as f64;
        assert!(max / min < 1.5, "min={min} max={max}");
    }

    /// ζ without the memo: one left fold over all n terms.
    fn direct_zeta(n: u64, theta: f64) -> f64 {
        (1..=n).fold(0.0, |s, i| s + 1.0 / (i as f64).powf(theta))
    }

    #[test]
    fn memoised_zeta_has_the_direct_sums_bits() {
        for n in [1, 2, 1_000, 50_000] {
            for theta in [0.0, 0.5, 0.99] {
                let want = direct_zeta(n, theta).to_bits();
                // The first build fills the memo, the second reads it.
                for _ in 0..2 {
                    assert_eq!(
                        Zipf::new(n, theta).zetan.to_bits(),
                        want,
                        "n={n} theta={theta}"
                    );
                }
            }
        }
    }

    #[test]
    fn generators_sharing_a_zeta_draw_the_same_ranks() {
        let (a, b) = (Zipf::ycsb(5_000), Zipf::ycsb(5_000));
        let (mut ra, mut rb) = (SimRng::seed_from_u64(7), SimRng::seed_from_u64(7));
        for _ in 0..10_000 {
            assert_eq!(a.sample(&mut ra), b.sample(&mut rb));
        }
    }

    #[test]
    fn another_theta_gets_its_own_zeta() {
        let ycsb = Zipf::ycsb(3_000);
        let half = Zipf::new(3_000, 0.5);
        assert_eq!(half.zetan.to_bits(), direct_zeta(3_000, 0.5).to_bits());
        assert_ne!(half.zetan.to_bits(), ycsb.zetan.to_bits());
    }

    #[test]
    fn single_key() {
        let z = Zipf::ycsb(1);
        let mut rng = SimRng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
    }
}
