//! Seeded measurement-noise model.
//!
//! The paper's Fig. 5c observes that the pyGinkgo-minus-Ginkgo time
//! difference occasionally dips below zero because system noise exceeds the
//! sub-microsecond binding overhead. To reproduce that qualitative effect
//! deterministically, the Fig. 5 harness perturbs each virtual measurement
//! with Gaussian noise from this seeded generator. Nothing else in the
//! workspace uses noise.

use crate::rng::Xoshiro256pp;

/// Deterministic Gaussian noise source (Box–Muller over xoshiro256++).
#[derive(Clone, Debug)]
pub struct Noise {
    rng: Xoshiro256pp,
    spare: Option<f64>,
}

impl Noise {
    /// Creates a noise source from a seed. The same seed always yields the
    /// same sequence.
    pub fn new(seed: u64) -> Self {
        Noise {
            rng: Xoshiro256pp::seed_from_u64(seed),
            spare: None,
        }
    }

    /// One standard normal sample.
    pub(crate) fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: two uniforms -> two normals.
        let u1 = self.rng.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Perturbs a measured duration: `t * (1 + rel_sigma*z1) + abs_sigma*z2`,
    /// clamped at zero (a measurement cannot be negative, though a
    /// *difference* of two perturbed measurements can).
    pub fn perturb_ns(&mut self, t_ns: f64, rel_sigma: f64, abs_sigma_ns: f64) -> f64 {
        let z1 = self.standard_normal();
        let z2 = self.standard_normal();
        (t_ns * (1.0 + rel_sigma * z1) + abs_sigma_ns * z2).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Noise::new(42);
        let mut b = Noise::new(42);
        for _ in 0..100 {
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Noise::new(1);
        let mut b = Noise::new(2);
        let same = (0..32)
            .filter(|_| a.standard_normal() == b.standard_normal())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn standard_normal_has_plausible_moments() {
        let mut n = Noise::new(7);
        let samples: Vec<f64> = (0..20_000).map(|_| n.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn perturb_never_negative_but_differences_can_be() {
        let mut n = Noise::new(9);
        let mut saw_negative_diff = false;
        for _ in 0..1000 {
            let a = n.perturb_ns(1000.0, 0.02, 500.0);
            let b = n.perturb_ns(1050.0, 0.02, 500.0);
            assert!(a >= 0.0 && b >= 0.0);
            if b - a < 0.0 {
                saw_negative_diff = true;
            }
        }
        assert!(
            saw_negative_diff,
            "noise should occasionally flip the sign of small differences"
        );
    }
}
