//! Property-based tests for the DRC engine: detection must agree with
//! construction (dfm-check harness).
//!
//! The seed corpus in `engine_properties.seeds` is replayed before any
//! random cases — it carries the regression cases inherited from the
//! old proptest suite.

use dfm_check::{check, prop_assert, prop_assert_eq, Config};
use dfm_drc::{
    exterior_facing_pairs, interior_facing_pairs, spacing_violations, width_violations,
    FacingPair, PairFragment,
};
use dfm_geom::{Rect, Region};

fn cfg() -> Config {
    Config::with_cases(64)
        .corpus(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/engine_properties.seeds"))
}

/// A lone rectangle's width violations fire exactly when either side
/// is below the rule.
#[test]
fn width_detection_matches_construction() {
    check(
        "width_detection_matches_construction",
        &cfg(),
        &(10i64..400, 10i64..400, 10i64..400),
        |v| {
            let (w, h, rule) = (v.0, v.1, v.2);
            let region = Region::from_rect(Rect::new(0, 0, w, h));
            let viols = width_violations(&region, rule);
            let expect = w < rule || h < rule;
            prop_assert_eq!(!viols.is_empty(), expect, "w={} h={} rule={}", w, h, rule);
            // Measured value equals the true dimension.
            if expect {
                let min_dim = w.min(h);
                prop_assert!(viols.iter().any(|&(_, v)| v == min_dim));
            }
            Ok(())
        },
    );
}

/// Two parallel bars' spacing violations fire exactly when the gap is
/// below the rule.
#[test]
fn spacing_detection_matches_construction() {
    check(
        "spacing_detection_matches_construction",
        &cfg(),
        &(1i64..400, 1i64..400, 100i64..3000),
        |v| {
            let (gap, rule, len) = (v.0, v.1, v.2);
            let region = Region::from_rects([
                Rect::new(0, 0, len, 100),
                Rect::new(0, 100 + gap, len, 200 + gap),
            ]);
            let viols = spacing_violations(&region, rule);
            prop_assert_eq!(!viols.is_empty(), gap < rule, "gap={} rule={}", gap, rule);
            if gap < rule {
                prop_assert!(viols.iter().all(|&(_, v)| v == gap));
            }
            Ok(())
        },
    );
}

/// Facing-pair extraction reports every parallel-bar gap below the
/// range, with its exact length.
#[test]
fn facing_pairs_exact() {
    check(
        "facing_pairs_exact",
        &cfg(),
        &dfm_check::vec(20i64..300, 1..6),
        |gaps| {
            let mut rects = Vec::new();
            let mut y = 0i64;
            for &g in gaps {
                rects.push(Rect::new(0, y, 2000, y + 100));
                y += 100 + g;
            }
            rects.push(Rect::new(0, y, 2000, y + 100));
            let region = Region::from_rects(rects);
            let pairs = exterior_facing_pairs(&region, 400);
            // Every adjacent gap is reported with full overlap length. (The
            // midpoint heuristic may additionally report a "through" pair
            // when the midpoint between non-adjacent bars lands on empty
            // space — a documented over-count the critical-area union bound
            // absorbs.)
            let seen: Vec<i64> = pairs.iter().map(|p| p.distance).collect();
            for &g in gaps {
                prop_assert!(seen.contains(&g), "gap {} missing from {:?}", g, seen);
            }
            let n = gaps.len() + 1;
            prop_assert!(pairs.len() <= n * (n - 1) / 2);
            prop_assert!(pairs.iter().all(|p| p.length == 2000));
            Ok(())
        },
    );
}

/// Violation positions always lie within the layout bounding box
/// (nothing is reported out of thin air).
#[test]
fn violations_are_localised() {
    check(
        "violations_are_localised",
        &cfg(),
        &dfm_check::vec((0i64..20, 0i64..20, 1i64..8, 1i64..8), 1..10),
        |specs| {
            let rects: Vec<Rect> = specs
                .iter()
                .map(|&(x, y, w, h)| Rect::new(x * 50, y * 50, x * 50 + w * 25, y * 50 + h * 25))
                .collect();
            let region = Region::from_rects(rects);
            let bbox = region.bbox();
            for (loc, _) in spacing_violations(&region, 60) {
                prop_assert!(bbox.expanded(60).contains_rect(&loc), "{:?} outside {:?}", loc, bbox);
            }
            for (loc, _) in width_violations(&region, 60) {
                prop_assert!(bbox.contains_rect(&loc));
            }
            Ok(())
        },
    );
}

/// The brute-force facing-pair oracle, on a unit grid with no spatial
/// index and no boundary-edge extraction: in every row (column), every
/// pair of opposite-facing unit boundary segments closer than `value`
/// whose gap's middle cell is covered (`interior`, widths) or empty
/// (spacings) contributes that one unit of span. Coalescing the units
/// per gap gives the canonical pair list.
fn brute_facing_pairs(region: &Region, value: i64, interior: bool) -> Vec<FacingPair> {
    let b = region.bbox();
    let (w, h) = (b.x1 - b.x0 + 2, b.y1 - b.y0 + 2);
    let mut grid = vec![false; (w * h) as usize];
    for r in region.rects() {
        for y in r.y0..r.y1 {
            for x in r.x0..r.x1 {
                grid[((y - b.y0 + 1) * w + (x - b.x0 + 1)) as usize] = true;
            }
        }
    }
    let covered = |x: i64, y: i64| {
        let (gx, gy) = (x - b.x0 + 1, y - b.y0 + 1);
        (0..w).contains(&gx) && (0..h).contains(&gy) && grid[(gy * w + gx) as usize]
    };
    let mut units: Vec<PairFragment> = Vec::new();
    for vertical in [true, false] {
        // `across` runs along the gap, `along` along the span.
        let (across, along) =
            if vertical { (b.x0..=b.x1, b.y0..b.y1) } else { (b.y0..=b.y1, b.x0..b.x1) };
        let cell = |a: i64, s: i64| if vertical { covered(a, s) } else { covered(s, a) };
        for s in along {
            // Boundary positions in this row, with "interior on the far
            // side" (right, or up).
            let bounds: Vec<(i64, bool)> = across
                .clone()
                .filter(|&a| cell(a - 1, s) != cell(a, s))
                .map(|a| (a, cell(a, s)))
                .collect();
            for &(lo, lo_far) in &bounds {
                for &(hi, hi_far) in &bounds {
                    if lo_far != interior || hi_far == lo_far || hi <= lo || hi - lo >= value {
                        continue;
                    }
                    if cell(lo + (hi - lo) / 2, s) == interior {
                        let (gap_lo, gap_hi, span_lo, span_hi) = (lo, hi, s, s + 1);
                        units.push(PairFragment { vertical, gap_lo, gap_hi, span_lo, span_hi });
                    }
                }
            }
        }
    }
    units.sort_unstable();
    let mut runs: Vec<PairFragment> = Vec::new();
    for u in units {
        match runs.last_mut() {
            Some(last)
                if (last.vertical, last.gap_lo, last.gap_hi) == (u.vertical, u.gap_lo, u.gap_hi)
                    && u.span_lo <= last.span_hi =>
            {
                last.span_hi = last.span_hi.max(u.span_hi);
            }
            _ => runs.push(u),
        }
    }
    runs.into_iter().map(PairFragment::to_pair).collect()
}

/// The swept facing-pair extraction every width, spacing and CA
/// consumer shares equals the brute-force oracle on random Manhattan
/// soups, interior and exterior.
#[test]
fn facing_pairs_match_the_brute_force_oracle() {
    check(
        "facing_pairs_match_the_brute_force_oracle",
        &cfg(),
        &(dfm_check::vec((0i64..12, 0i64..12, 1i64..9, 1i64..9), 1..10), 1i64..30),
        |case| {
            let (specs, value) = (&case.0, case.1);
            let region = Region::from_rects(specs.iter().map(|&(x, y, w, h)| {
                Rect::new(x * 3, y * 3, x * 3 + w * 2, y * 3 + h * 2)
            }));
            prop_assert_eq!(
                interior_facing_pairs(&region, value),
                brute_facing_pairs(&region, value, true),
                "interior, value {}",
                value
            );
            prop_assert_eq!(
                exterior_facing_pairs(&region, value),
                brute_facing_pairs(&region, value, false),
                "exterior, value {}",
                value
            );
            Ok(())
        },
    );
}
