//! Property-based tests on the lithography simulator's physics
//! invariants (dfm-check harness).

use dfm_check::{check, prop_assert, prop_assert_eq, Config, Gen};
use dfm_geom::{Rect, Region};
use dfm_litho::{Condition, LithoSimulator};

fn cfg() -> Config {
    Config::with_cases(24)
}

fn arb_mask() -> impl Gen<Value = Region> {
    dfm_check::vec((0i64..8, 0i64..8, 1i64..6, 1i64..6), 1..6).prop_map(|specs| {
        Region::from_rects(
            specs.into_iter().map(|(x, y, w, h)| {
                Rect::new(x * 200, y * 200, x * 200 + w * 80, y * 200 + h * 80)
            }),
        )
    })
}

/// Printed area is monotone non-decreasing in dose.
#[test]
fn dose_monotonicity() {
    check("dose_monotonicity", &cfg(), &arb_mask(), |mask| {
        let sim = LithoSimulator::for_feature_size(90);
        let lo = sim.printed(mask, Condition::with_dose(0.9)).area();
        let mid = sim.printed(mask, Condition::nominal()).area();
        let hi = sim.printed(mask, Condition::with_dose(1.1)).area();
        prop_assert!(lo <= mid, "{lo} > {mid}");
        prop_assert!(mid <= hi, "{mid} > {hi}");
        Ok(())
    });
}

/// The printed image stays within the optical halo of the mask.
#[test]
fn printed_stays_within_halo() {
    check(
        "printed_stays_within_halo",
        &cfg(),
        &(arb_mask(), 0.0f64..150.0),
        |v| {
            let (mask, defocus) = v;
            let sim = LithoSimulator::for_feature_size(90);
            let cond = Condition::with_defocus(*defocus);
            let printed = sim.printed(mask, cond);
            let halo = sim.halo_nm(cond);
            prop_assert!(printed.difference(&mask.bloated(halo)).is_empty());
            Ok(())
        },
    );
}

/// Mask monotonicity: more mask never prints less.
#[test]
fn mask_monotonicity() {
    check(
        "mask_monotonicity",
        &cfg(),
        &(arb_mask(), (0i64..8, 0i64..8)),
        |v| {
            let (mask, extra) = v;
            let sim = LithoSimulator::for_feature_size(90);
            let bigger = mask.union(&Region::from_rect(Rect::new(
                extra.0 * 200,
                extra.1 * 200,
                extra.0 * 200 + 400,
                extra.1 * 200 + 400,
            )));
            let a = sim.printed(mask, Condition::nominal());
            let b = sim.printed(&bigger, Condition::nominal());
            // Intensity is additive in mask, so printed(mask) ⊆ printed(bigger).
            prop_assert!(a.difference(&b).is_empty());
            Ok(())
        },
    );
}

/// Translation equivariance (within one pixel of raster phase).
#[test]
fn translation_equivariance() {
    check(
        "translation_equivariance",
        &cfg(),
        &(arb_mask(), -3i64..4, -3i64..4),
        |v| {
            let (mask, dx, dy) = v;
            let sim = LithoSimulator::for_feature_size(90);
            let px = sim.pixel_nm;
            let shift = dfm_geom::Vector::new(dx * px, dy * px);
            let a = sim.printed(mask, Condition::nominal());
            let b = sim.printed(&mask.translated(shift), Condition::nominal());
            // Pixel-aligned shifts commute exactly with printing.
            prop_assert_eq!(a.translated(shift).area(), b.area());
            Ok(())
        },
    );
}
