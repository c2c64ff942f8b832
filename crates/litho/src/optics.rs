//! The optical model: PSF width from imaging parameters and defocus.

use std::fmt;

/// A simplified projection-optics model.
///
/// The point-spread function is approximated by an isotropic Gaussian
/// whose standard deviation at best focus is `blur_k · λ / NA`; defocus
/// widens it in quadrature. This captures the first-order behaviour of a
/// partially coherent imaging system well enough for the comparative DFM
/// experiments in this workspace (who wins, where the cliffs are), while
/// remaining fast and fully deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpticalModel {
    /// Exposure wavelength in nm (193 for ArF).
    pub wavelength_nm: f64,
    /// Numerical aperture of the projection lens.
    pub na: f64,
    /// Gaussian blur factor: `σ₀ = blur_k · λ / NA`.
    pub blur_k: f64,
    /// Defocus-to-blur coupling: `σ_d = defocus_k · defocus`.
    pub defocus_k: f64,
    /// Weight of the negative ring in the difference-of-Gaussians PSF
    /// (0 = plain Gaussian). A small positive weight models the side
    /// lobes of partially-coherent imaging, producing real proximity
    /// physics — notably **forbidden pitches**.
    pub ring_weight: f64,
    /// The ring Gaussian's σ as a multiple of σ₀.
    pub ring_sigma_factor: f64,
}

impl OpticalModel {
    /// Dry ArF scanner (193 nm, NA 0.93) — 65 nm-node class imaging.
    pub fn argon_fluoride_dry() -> Self {
        OpticalModel {
            wavelength_nm: 193.0,
            na: 0.93,
            blur_k: 0.20,
            defocus_k: 0.25,
            ring_weight: 0.0,
            ring_sigma_factor: 2.5,
        }
    }

    /// Immersion ArF scanner (193 nm, NA 1.35) — 45/32 nm-node class.
    pub fn argon_fluoride_immersion() -> Self {
        OpticalModel {
            wavelength_nm: 193.0,
            na: 1.35,
            blur_k: 0.20,
            defocus_k: 0.25,
            ring_weight: 0.0,
            ring_sigma_factor: 2.5,
        }
    }

    /// Best-focus PSF standard deviation in nm.
    pub fn sigma0_nm(&self) -> f64 {
        self.blur_k * self.wavelength_nm / self.na
    }

    /// Effective PSF standard deviation at `defocus_nm` of defocus.
    pub fn sigma_nm(&self, defocus_nm: f64) -> f64 {
        let s0 = self.sigma0_nm();
        let sd = self.defocus_k * defocus_nm;
        (s0 * s0 + sd * sd).sqrt()
    }

    /// Rayleigh resolution estimate `0.61 λ / NA` in nm.
    pub fn rayleigh_nm(&self) -> f64 {
        0.61 * self.wavelength_nm / self.na
    }

    /// Returns this model with a difference-of-Gaussians ring added
    /// (side-lobe physics; see [`OpticalModel::ring_weight`]).
    pub fn with_ring(mut self, weight: f64, sigma_factor: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&weight),
            "ring weight must be in [0, 0.5)"
        );
        assert!(sigma_factor > 1.0, "ring must be wider than the core");
        self.ring_weight = weight;
        self.ring_sigma_factor = sigma_factor;
        self
    }
}

impl fmt::Display for OpticalModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "λ={}nm NA={} (σ₀={:.1}nm)",
            self.wavelength_nm,
            self.na,
            self.sigma0_nm()
        )
    }
}

/// One exposure condition: dose (relative to nominal) and defocus.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Condition {
    /// Relative dose; 1.0 is nominal, >1 prints bright features larger.
    pub dose: f64,
    /// Defocus in nm (absolute value matters; sign is symmetric in this
    /// model).
    pub defocus_nm: f64,
}

impl Condition {
    /// Nominal exposure: dose 1.0, best focus.
    pub fn nominal() -> Self {
        Condition {
            dose: 1.0,
            defocus_nm: 0.0,
        }
    }

    /// A condition with the given dose at best focus.
    pub fn with_dose(dose: f64) -> Self {
        Condition {
            dose,
            defocus_nm: 0.0,
        }
    }

    /// A condition with nominal dose at the given defocus.
    pub fn with_defocus(defocus_nm: f64) -> Self {
        Condition {
            dose: 1.0,
            defocus_nm,
        }
    }

    /// The standard process-corner set used for PV-bands: nominal, dose
    /// ±`dose_pct`, and ±`defocus_nm` defocus (cross combinations).
    pub fn corners(dose_pct: f64, defocus_nm: f64) -> Vec<Condition> {
        let d = dose_pct;
        vec![
            Condition::nominal(),
            Condition {
                dose: 1.0 + d,
                defocus_nm: 0.0,
            },
            Condition {
                dose: 1.0 - d,
                defocus_nm: 0.0,
            },
            Condition {
                dose: 1.0,
                defocus_nm,
            },
            Condition {
                dose: 1.0 + d,
                defocus_nm,
            },
            Condition {
                dose: 1.0 - d,
                defocus_nm,
            },
        ]
    }
}

impl Default for Condition {
    fn default() -> Self {
        Condition::nominal()
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dose={:.3} defocus={:.0}nm", self.dose, self.defocus_nm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_grows_with_defocus() {
        let m = OpticalModel::argon_fluoride_immersion();
        let s0 = m.sigma_nm(0.0);
        let s100 = m.sigma_nm(100.0);
        assert!(s100 > s0);
        assert!((m.sigma_nm(0.0) - m.sigma0_nm()).abs() < 1e-12);
        // Quadrature: never more than the sum.
        assert!(s100 < s0 + m.defocus_k * 100.0 + 1e-9);
    }

    #[test]
    fn immersion_beats_dry() {
        let dry = OpticalModel::argon_fluoride_dry();
        let wet = OpticalModel::argon_fluoride_immersion();
        assert!(wet.sigma0_nm() < dry.sigma0_nm());
        assert!(wet.rayleigh_nm() < dry.rayleigh_nm());
    }

    #[test]
    fn corner_set_contains_nominal() {
        let corners = Condition::corners(0.05, 80.0);
        assert_eq!(corners.len(), 6);
        assert_eq!(corners[0], Condition::nominal());
    }
}
