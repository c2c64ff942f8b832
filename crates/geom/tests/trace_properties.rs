//! Property-based tests for boundary-loop tracing (dfm-check harness).

use dfm_check::{check, prop_assert, prop_assert_eq, Config, Gen};
use dfm_geom::trace::{boundary_loops, signed_area};
use dfm_geom::{Rect, Region};

fn cfg() -> Config {
    Config::with_cases(96)
}

fn arb_region() -> impl Gen<Value = Region> {
    dfm_check::vec((-5i64..5, -5i64..5, 1i64..5, 1i64..5), 1..10).prop_map(|specs| {
        Region::from_rects(
            specs
                .into_iter()
                .map(|(x, y, w, h)| Rect::new(x * 40, y * 40, x * 40 + w * 40, y * 40 + h * 40)),
        )
    })
}

/// The signed areas of all traced loops sum to the region area
/// (outer CCW loops positive, holes negative).
#[test]
fn loop_areas_reconstruct_region() {
    check(
        "loop_areas_reconstruct_region",
        &cfg(),
        &arb_region(),
        |r| {
            let loops = boundary_loops(r);
            let total: i128 = loops.iter().map(signed_area).sum();
            prop_assert_eq!(total, r.area());
            Ok(())
        },
    );
}

/// Loop perimeters sum to the region perimeter.
#[test]
fn loop_perimeters_reconstruct() {
    check("loop_perimeters_reconstruct", &cfg(), &arb_region(), |r| {
        let loops = boundary_loops(r);
        let total: i64 = loops.iter().map(|l| l.perimeter()).sum();
        prop_assert_eq!(total, r.perimeter());
        Ok(())
    });
}

/// Every traced loop is a valid rectilinear polygon whose region
/// decomposition is consistent with its own area.
#[test]
fn loops_are_valid_polygons() {
    check("loops_are_valid_polygons", &cfg(), &arb_region(), |r| {
        for l in boundary_loops(r) {
            prop_assert!(l.vertex_count() >= 4);
            prop_assert_eq!(l.to_region().area(), l.area());
        }
        Ok(())
    });
}

/// Converting the loops back through even-odd fill reproduces the
/// region exactly (XOR of all loop fills).
#[test]
fn even_odd_reconstruction() {
    check("even_odd_reconstruction", &cfg(), &arb_region(), |r| {
        let mut acc = Region::new();
        for l in boundary_loops(r) {
            acc = acc.xor(&l.to_region());
        }
        prop_assert_eq!(acc, *r);
        Ok(())
    });
}
