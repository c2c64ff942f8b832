//! Image-quality analysis: NILS and MEEF.
//!
//! Two classic lithography robustness metrics:
//!
//! * **NILS** (normalised image log slope): `w · |dI/dx| / I` at the
//!   feature edge — the higher, the more dose latitude the edge has.
//! * **MEEF** (mask error enhancement factor): `ΔCD_wafer / ΔCD_mask` —
//!   how much a mask-making error is amplified on the wafer. MEEF ≈ 1 in
//!   the linear regime and blows up near the resolution limit, which is
//!   one of the panel's cost arguments (mask spec tightening).

use crate::process_window::CutSpec;
use crate::{Condition, LithoSimulator};
use dfm_geom::{Coord, Point, Region};

/// Measures the normalised image log slope at a feature's edge.
///
/// `edge` is a point on the drawn feature edge and `inward` a unit-ish
/// vector pointing into the feature; the slope is sampled one pixel
/// either side of the edge. Returns `None` when the image carries no
/// gradient there (feature vanished).
pub fn nils(
    sim: &LithoSimulator,
    mask: &Region,
    edge: Point,
    inward: dfm_geom::Vector,
    feature_width: Coord,
    cond: Condition,
) -> Option<f64> {
    let window = dfm_geom::Rect::centered_at(edge, 40 * sim.pixel_nm, 40 * sim.pixel_nm);
    let raster = sim.aerial_image(mask, window, cond);
    let step = sim.pixel_nm;
    let p_in = edge + inward * (2 * step);
    let p_out = edge - inward * (2 * step);
    let i_in = raster.sample_at(p_in.x, p_in.y);
    let i_out = raster.sample_at(p_out.x, p_out.y);
    let i_edge = raster.sample_at(edge.x, edge.y);
    if i_edge <= 1e-6 || (i_in - i_out).abs() < 1e-9 {
        return None;
    }
    let slope = (i_in - i_out).abs() / (4 * step) as f64;
    Some(feature_width as f64 * slope / i_edge)
}

/// Measures the mask error enhancement factor at a CD cut.
///
/// The mask is biased by ±`delta` per edge (a mask CD error of
/// `2·delta`) and the printed CD change is divided by the mask CD
/// change. Returns `None` if any variant fails to print at the cut.
pub fn meef(
    sim: &LithoSimulator,
    mask: &Region,
    cut: CutSpec,
    delta: Coord,
    cond: Condition,
) -> Option<f64> {
    let plus = mask.bloated(delta);
    let minus = mask.shrunk(delta);
    let cd_plus = cut.measure(&sim.printed(&plus, cond))?;
    let cd_minus = cut.measure(&sim.printed(&minus, cond))?;
    Some((cd_plus - cd_minus) as f64 / (4 * delta) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process_window::CutAxis;
    use dfm_geom::{Rect, Vector};

    fn sim() -> LithoSimulator {
        LithoSimulator::for_feature_size(90)
    }

    #[test]
    fn nils_positive_on_printing_edge() {
        let mask = Region::from_rect(Rect::new(0, 0, 3000, 200));
        let v = nils(
            &sim(),
            &mask,
            Point::new(1500, 0),
            Vector::new(0, 1),
            200,
            Condition::nominal(),
        )
        .expect("edge has slope");
        assert!(v > 0.5, "NILS {v}");
    }

    #[test]
    fn nils_drops_with_defocus() {
        let mask = Region::from_rect(Rect::new(0, 0, 3000, 120));
        let focus = nils(
            &sim(),
            &mask,
            Point::new(1500, 0),
            Vector::new(0, 1),
            120,
            Condition::nominal(),
        )
        .expect("prints at focus");
        let blur = nils(
            &sim(),
            &mask,
            Point::new(1500, 0),
            Vector::new(0, 1),
            120,
            Condition::with_defocus(150.0),
        )
        .expect("still has slope");
        assert!(blur < focus, "NILS {focus} -> {blur}");
    }

    #[test]
    fn dense_line_has_lower_nils_than_wide() {
        let s = sim();
        let narrow = Region::from_rect(Rect::new(0, 0, 3000, 90));
        let wide = Region::from_rect(Rect::new(0, 0, 3000, 400));
        let n_narrow = nils(
            &s,
            &narrow,
            Point::new(1500, 0),
            Vector::new(0, 1),
            90,
            Condition::nominal(),
        )
        .expect("narrow prints");
        let n_wide = nils(
            &s,
            &wide,
            Point::new(1500, 0),
            Vector::new(0, 1),
            400,
            Condition::nominal(),
        )
        .expect("wide prints");
        // Note both measure *their own* width; normalise per nm to compare
        // raw slopes instead.
        assert!(
            n_narrow / 90.0 <= n_wide / 400.0 + 1e-3,
            "{n_narrow} vs {n_wide}"
        );
    }

    #[test]
    fn meef_near_one_for_large_features() {
        let s = sim();
        let mask = Region::from_rect(Rect::new(0, 0, 3000, 400));
        let cut = CutSpec {
            at: Point::new(1500, 200),
            axis: CutAxis::Vertical,
        };
        let m = meef(&s, &mask, cut, 8, Condition::nominal()).expect("prints");
        assert!((0.5..1.6).contains(&m), "MEEF {m}");
    }

    #[test]
    fn meef_amplifies_near_resolution_limit() {
        let s = sim();
        let big = Region::from_rect(Rect::new(0, 0, 3000, 400));
        let small = Region::from_rect(Rect::new(0, 0, 3000, 80));
        let cut_big = CutSpec {
            at: Point::new(1500, 200),
            axis: CutAxis::Vertical,
        };
        let cut_small = CutSpec {
            at: Point::new(1500, 40),
            axis: CutAxis::Vertical,
        };
        let m_big = meef(&s, &big, cut_big, 8, Condition::nominal()).expect("big prints");
        let m_small = meef(&s, &small, cut_small, 8, Condition::nominal()).expect("small prints");
        assert!(
            m_small > m_big,
            "MEEF should grow near the limit: {m_big} vs {m_small}"
        );
    }
}
