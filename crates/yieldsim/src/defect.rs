//! The random-defect model: size distribution and density.

use dfm_rand::Rng;

/// Square nanometres per square centimetre.
pub const NM2_PER_CM2: f64 = 1e14;

/// The classic particulate defect model: defect diameters follow the
/// density `f(x) = 2·x₀² / x³` for `x ≥ x₀` (normalised), with a total
/// areal density of `d0_per_cm2` defects per cm².
///
/// The `1/x³` tail is the universal fab observation the critical-area
/// literature builds on: most defects are near the minimum observable
/// size, and the expected count above size `x` falls as `(x₀/x)²`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DefectModel {
    /// Minimum (modal) defect diameter in nm.
    pub x0: i64,
    /// Total defect density in defects per cm².
    pub d0_per_cm2: f64,
}

impl DefectModel {
    /// Creates a defect model.
    ///
    /// # Panics
    ///
    /// Panics if `x0 <= 0` or `d0_per_cm2 < 0`.
    pub fn new(x0: i64, d0_per_cm2: f64) -> Self {
        assert!(x0 > 0, "minimum defect size must be positive");
        assert!(d0_per_cm2 >= 0.0, "defect density must be non-negative");
        DefectModel { x0, d0_per_cm2 }
    }

    /// Probability that a defect's diameter exceeds `x`:
    /// `(x₀/x)²` for `x ≥ x₀`, else 1.
    pub fn survival(&self, x: i64) -> f64 {
        if x <= self.x0 {
            1.0
        } else {
            let r = self.x0 as f64 / x as f64;
            r * r
        }
    }

    /// Samples a defect diameter by inverse-CDF: `x = x₀ / √(1−u)`.
    pub fn sample_diameter(&self, rng: &mut Rng) -> i64 {
        let u: f64 = rng.f64().min(1.0 - 1e-12);
        (self.x0 as f64 / (1.0 - u).sqrt()).round() as i64
    }

    /// Expected number of defects landing on `area_nm2` of chip.
    pub fn expected_defects(&self, area_nm2: f64) -> f64 {
        self.d0_per_cm2 * area_nm2 / NM2_PER_CM2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_function() {
        let m = DefectModel::new(50, 1.0);
        assert_eq!(m.survival(25), 1.0);
        assert_eq!(m.survival(50), 1.0);
        assert!((m.survival(100) - 0.25).abs() < 1e-12);
        assert!((m.survival(500) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn sampled_sizes_match_distribution() {
        let m = DefectModel::new(50, 1.0);
        let mut rng = Rng::seed_from_u64(1);
        let n = 50_000;
        let samples: Vec<i64> = (0..n).map(|_| m.sample_diameter(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x >= m.x0));
        // Empirical survival at 2·x₀ should be ≈ 0.25.
        let over = samples.iter().filter(|&&x| x > 100).count() as f64 / n as f64;
        assert!((over - 0.25).abs() < 0.02, "empirical survival {over}");
        // ... and ≈ 0.01 at 10·x₀.
        let over10 = samples.iter().filter(|&&x| x > 500).count() as f64 / n as f64;
        assert!((over10 - 0.01).abs() < 0.005, "empirical survival {over10}");
    }

    #[test]
    fn expected_defect_counts() {
        let m = DefectModel::new(50, 100.0); // 100 defects / cm²
                                             // A 1 mm² block = 0.01 cm² → 1 defect expected.
        let area_nm2 = 1e6 * 1e6;
        assert!((m.expected_defects(area_nm2) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_x0_panics() {
        let _ = DefectModel::new(0, 1.0);
    }
}
