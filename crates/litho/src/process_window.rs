//! Bossung curves, process-window analysis, and PV-bands.

use crate::metrics::{cd_horizontal, cd_vertical};
use crate::{Condition, LithoSimulator};
use dfm_geom::{Coord, Point, Region};

/// Orientation of a CD cutline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutAxis {
    /// Measure extent along x (for vertical lines).
    Horizontal,
    /// Measure extent along y (for horizontal lines).
    Vertical,
}

/// Where and how a CD is measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutSpec {
    /// Point the cutline passes through (should be inside the feature).
    pub at: Point,
    /// Measurement axis.
    pub axis: CutAxis,
}

impl CutSpec {
    /// Measures the CD of `region` at this cut.
    pub fn measure(&self, region: &Region) -> Option<Coord> {
        match self.axis {
            CutAxis::Horizontal => cd_horizontal(region, self.at),
            CutAxis::Vertical => cd_vertical(region, self.at),
        }
    }
}

/// One point of a Bossung family: CD at a (dose, defocus) condition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BossungPoint {
    /// Exposure condition.
    pub condition: Condition,
    /// Measured CD, `None` if the feature vanished.
    pub cd: Option<Coord>,
}

/// Simulates the full dose × defocus matrix and measures the CD at `cut`
/// for each condition. This is the data behind a Bossung plot.
pub fn bossung(
    sim: &LithoSimulator,
    mask: &Region,
    cut: CutSpec,
    doses: &[f64],
    defoci: &[f64],
) -> Vec<BossungPoint> {
    let mut out = Vec::with_capacity(doses.len() * defoci.len());
    // One aerial image per defocus; dose only moves the threshold.
    let window = mask.bbox();
    for &defocus in defoci {
        let raster = sim.aerial_image(mask, window, Condition::with_defocus(defocus));
        for &dose in doses {
            let threshold = sim.resist_threshold / dose.max(1e-12);
            let printed = raster.threshold_region(threshold).clipped(window);
            out.push(BossungPoint {
                condition: Condition {
                    dose,
                    defocus_nm: defocus,
                },
                cd: cut.measure(&printed),
            });
        }
    }
    out
}

/// Fraction of conditions whose CD is within `tol_frac` of `target`
/// (a vanished feature counts as out of spec). This is the discrete
/// process-window area in (dose × focus) space.
pub fn process_window_fraction(points: &[BossungPoint], target: Coord, tol_frac: f64) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let tol = (target as f64 * tol_frac).abs();
    let ok = points
        .iter()
        .filter(|p| {
            p.cd.map(|cd| ((cd - target) as f64).abs() <= tol)
                .unwrap_or(false)
        })
        .count();
    ok as f64 / points.len() as f64
}

/// Depth of focus at nominal dose: the widest contiguous defocus range
/// (in the sampled grid) keeping CD within `tol_frac` of `target`.
/// Returns the range width in nm.
pub fn depth_of_focus(points: &[BossungPoint], target: Coord, tol_frac: f64) -> f64 {
    let tol = (target as f64 * tol_frac).abs();
    let mut in_spec: Vec<(f64, bool)> = points
        .iter()
        .filter(|p| (p.condition.dose - 1.0).abs() < 1e-9)
        .map(|p| {
            let ok =
                p.cd.map(|cd| ((cd - target) as f64).abs() <= tol)
                    .unwrap_or(false);
            (p.condition.defocus_nm, ok)
        })
        .collect();
    in_spec.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut best = 0.0f64;
    let mut run_start: Option<f64> = None;
    let mut last;
    for (f, ok) in in_spec {
        if ok {
            if run_start.is_none() {
                run_start = Some(f);
            }
            last = f;
            if let Some(s) = run_start {
                best = best.max(last - s);
            }
        } else {
            run_start = None;
        }
    }
    best
}

/// The process-variability band of `mask` over `conditions`: the region
/// printed under *some* but not *all* conditions. Thin PV-bands mean a
/// robust layout; wide bands mark variability-prone geometry.
pub fn pv_band(sim: &LithoSimulator, mask: &Region, conditions: &[Condition]) -> Region {
    let mut any: Option<Region> = None;
    let mut all: Option<Region> = None;
    for &cond in conditions {
        let printed = sim.printed(mask, cond);
        any = Some(match any {
            None => printed.clone(),
            Some(u) => u.union(&printed),
        });
        all = Some(match all {
            None => printed,
            Some(i) => i.intersection(&printed),
        });
    }
    match (any, all) {
        (Some(u), Some(i)) => u.difference(&i),
        _ => Region::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_geom::Rect;

    fn sim() -> LithoSimulator {
        LithoSimulator::for_feature_size(90)
    }

    fn line_mask() -> Region {
        Region::from_rect(Rect::new(0, 0, 2000, 120))
    }

    fn cut() -> CutSpec {
        CutSpec {
            at: Point::new(1000, 60),
            axis: CutAxis::Vertical,
        }
    }

    #[test]
    fn bossung_matrix_is_complete() {
        let points = bossung(
            &sim(),
            &line_mask(),
            cut(),
            &[0.95, 1.0, 1.05],
            &[0.0, 60.0, 120.0],
        );
        assert_eq!(points.len(), 9);
        // Nominal point prints near target.
        let nominal = points
            .iter()
            .find(|p| p.condition == Condition::nominal())
            .expect("nominal present");
        let cd = nominal.cd.expect("prints at nominal");
        assert!((90..=150).contains(&cd), "cd {cd}");
    }

    #[test]
    fn dose_monotonicity_in_bossung() {
        let points = bossung(&sim(), &line_mask(), cut(), &[0.9, 1.0, 1.1], &[0.0]);
        let cds: Vec<i64> = points.iter().map(|p| p.cd.unwrap_or(0)).collect();
        assert!(cds[0] <= cds[1] && cds[1] <= cds[2], "{cds:?}");
    }

    #[test]
    fn window_fraction_and_dof() {
        let points = bossung(
            &sim(),
            &line_mask(),
            cut(),
            &[0.9, 1.0, 1.1],
            &[0.0, 50.0, 100.0, 150.0, 200.0],
        );
        let target = points
            .iter()
            .find(|p| p.condition == Condition::nominal())
            .and_then(|p| p.cd)
            .expect("nominal prints");
        let frac = process_window_fraction(&points, target, 0.10);
        assert!(frac > 0.0 && frac <= 1.0);
        // Extreme defocus must fall out of spec for a near-minimum line.
        assert!(frac < 1.0, "fraction {frac}");
        let dof = depth_of_focus(&points, target, 0.10);
        assert!(dof >= 0.0);
    }

    #[test]
    fn pv_band_grows_with_variation() {
        let s = sim();
        let mask = line_mask();
        let tight = pv_band(&s, &mask, &Condition::corners(0.02, 40.0));
        let loose = pv_band(&s, &mask, &Condition::corners(0.10, 150.0));
        assert!(loose.area() > tight.area());
        // The band hugs the feature boundary: it must not cover the
        // feature centre.
        assert!(!loose.contains_point(Point::new(1000, 60)));
    }

    #[test]
    fn empty_points_fraction_zero() {
        assert_eq!(process_window_fraction(&[], 100, 0.1), 0.0);
    }
}
