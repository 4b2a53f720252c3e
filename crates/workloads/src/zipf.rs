//! Zipfian sampling (the paper generates `ll`/`ht`/`tree` data and
//! queries following a Zipfian distribution [91]).
//!
//! Implements the classic Gray et al. / YCSB rejection-free inverse-CDF
//! approximation, deterministic given the [`SimRng`] stream.

use ndpb_sim::SimRng;

/// A Zipfian generator over `[0, n)` with skew parameter `theta`
/// (0 ⇒ uniform; YCSB's default 0.99 ⇒ heavily skewed).
///
/// # Example
///
/// ```
/// use ndpb_workloads::Zipfian;
/// use ndpb_sim::SimRng;
/// let z = Zipfian::new(1000, 0.99);
/// let mut rng = SimRng::new(7);
/// let x = z.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    /// `1 + 0.5^theta`: a scaled draw `u * zetan` below this (and at
    /// or above 1) is rank 1.
    rank1_cut: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct sum for small n; integral approximation beyond.
    const EXACT: u64 = 100_000;
    let exact_n = n.min(EXACT);
    let mut sum = 0.0;
    for i in 1..=exact_n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    if n > EXACT {
        // ∫ x^-theta dx from EXACT to n.
        let a = 1.0 - theta;
        sum += ((n as f64).powf(a) - (EXACT as f64).powf(a)) / a;
    }
    sum
}

impl Zipfian {
    /// Creates a generator over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is not in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "population must be positive");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            zeta2,
            rank1_cut: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// The population size.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Draws one sample; rank 0 is the hottest item.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.theta == 0.0 {
            return rng.next_below(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_cut && self.n >= 2 {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// `zeta(2)` (exposed for tests of the approximation).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_range() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn zero_theta_is_uniform() {
        let z = Zipfian::new(10, 0.0);
        let mut rng = SimRng::new(2);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "{c}");
        }
    }

    #[test]
    fn high_theta_is_skewed() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = SimRng::new(3);
        let mut head = 0u32;
        const N: u32 = 100_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With theta=0.99 the top-10 of 10k items draw a large share.
        assert!(head > N / 5, "top-10 items got only {head} of {N} samples");
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = Zipfian::new(1000, 0.9);
        let mut rng = SimRng::new(4);
        let mut c0 = 0u32;
        let mut c500 = 0u32;
        for _ in 0..100_000 {
            match z.sample(&mut rng) {
                0 => c0 += 1,
                500 => c500 += 1,
                _ => {}
            }
        }
        assert!(c0 > 10 * c500.max(1), "c0={c0} c500={c500}");
    }

    #[test]
    fn deterministic() {
        let z = Zipfian::new(100, 0.5);
        let mut a = SimRng::new(5);
        let mut b = SimRng::new(5);
        for _ in 0..1000 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn large_population_zeta_approximation() {
        // The approximate zeta must stay close to the true direct sum.
        let direct = zeta(100_000, 0.99);
        let z = Zipfian::new(10_000_000, 0.99);
        assert!(z.zetan > direct, "zeta must grow with n");
        assert!(z.zetan < direct * 3.0, "approximation blew up");
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_panics() {
        Zipfian::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn bad_theta_panics() {
        Zipfian::new(10, 1.0);
    }
}
