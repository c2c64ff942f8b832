//! Property-based tests for the DRC engine: detection must agree with
//! construction (dfm-check harness).
//!
//! The seed corpus in `engine_properties.seeds` is replayed before any
//! random cases — it carries the regression cases inherited from the
//! old proptest suite.

use dfm_check::{check, prop_assert, prop_assert_eq, Config};
use dfm_drc::{
    facing_pairs, min_space_to_violations, spacing_violations, width_violations, FacingPair,
    PairFragment,
};
use dfm_geom::{Rect, Region};

fn cfg() -> Config {
    Config::with_cases(64).corpus(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/engine_properties.seeds"
    ))
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
            let pairs = facing_pairs(&region, 400).0;
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
                prop_assert!(
                    bbox.expanded(60).contains_rect(&loc),
                    "{:?} outside {:?}",
                    loc,
                    bbox
                );
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
        let (across, along) = if vertical {
            (b.x0..=b.x1, b.y0..b.y1)
        } else {
            (b.y0..=b.y1, b.x0..b.x1)
        };
        let cell = |a: i64, s: i64| {
            if vertical {
                covered(a, s)
            } else {
                covered(s, a)
            }
        };
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
                        units.push(PairFragment {
                            vertical,
                            gap_lo,
                            gap_hi,
                            span_lo,
                            span_hi,
                        });
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
                if (last.vertical, last.gap_lo, last.gap_hi)
                    == (u.vertical, u.gap_lo, u.gap_hi)
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
        &(
            dfm_check::vec((0i64..12, 0i64..12, 1i64..9, 1i64..9), 1..10),
            1i64..30,
        ),
        |case| {
            let (specs, value) = (&case.0, case.1);
            let region = Region::from_rects(
                specs
                    .iter()
                    .map(|&(x, y, w, h)| Rect::new(x * 3, y * 3, x * 3 + w * 2, y * 3 + h * 2)),
            );
            let (exterior, interior) = facing_pairs(&region, value);
            prop_assert_eq!(
                interior,
                brute_facing_pairs(&region, value, true),
                "interior, value {}",
                value
            );
            prop_assert_eq!(
                exterior,
                brute_facing_pairs(&region, value, false),
                "exterior, value {}",
                value
            );
            Ok(())
        },
    );
}

/// The brute-force corner-gap oracle, on a unit grid with no spatial
/// index and no boundary-edge extraction: a lattice point is a corner
/// when one or three of its four adjacent unit cells are covered, or two
/// diagonal ones. Every left-to-right pair of corners with `0 < dx <
/// value`, `0 < |dy| < value` and `dx² + dy² < value²` whose corners
/// open towards each other (empty on the facing side, covered behind)
/// is one gap, measured as the floor of its Euclidean length.
fn brute_corner_gaps(region: &Region, value: i64) -> Vec<(Rect, i64)> {
    if region.is_empty() {
        return Vec::new();
    }
    let b = region.bbox();
    let covered = |x: i64, y: i64| {
        region
            .rects()
            .iter()
            .any(|r| r.x0 <= x && x < r.x1 && r.y0 <= y && y < r.y1)
    };
    // (point, [ne, nw, sw, se]) for every geometric corner.
    let mut corners = Vec::new();
    for x in b.x0..=b.x1 {
        for y in b.y0..=b.y1 {
            let c = [
                covered(x, y),
                covered(x - 1, y),
                covered(x - 1, y - 1),
                covered(x, y - 1),
            ];
            let n = c.iter().filter(|&&k| k).count();
            if n == 1 || n == 3 || (n == 2 && c[0] == c[2]) {
                corners.push((x, y, c));
            }
        }
    }
    let isqrt = |d2: i64| (0..).take_while(|k: &i64| k * k <= d2).last().unwrap_or(0);
    let mut out = Vec::new();
    for &(px, py, [p_ne, p_nw, p_sw, p_se]) in &corners {
        for &(qx, qy, [q_ne, q_nw, q_sw, q_se]) in &corners {
            let (dx, dy) = (qx - px, qy - py);
            if dx <= 0 || dy == 0 || dx >= value || dy.abs() >= value {
                continue;
            }
            let d2 = dx * dx + dy * dy;
            if d2 >= value * value {
                continue;
            }
            if dy > 0 && p_sw && !p_ne && q_ne && !q_sw {
                out.push((Rect::new(px, py, qx, qy), isqrt(d2)));
            }
            if dy < 0 && p_nw && !p_se && q_se && !q_nw {
                out.push((Rect::new(px, qy, qx, py), isqrt(d2)));
            }
        }
    }
    out.sort_unstable_by_key(|&(r, d)| (r.x0, r.y0, r.x1, r.y1, d));
    out
}

/// The corner part of `spacing_violations` — everything after its
/// exterior facing pairs — equals the brute-force corner oracle as a
/// sorted list, on soups with touching, diagonal and checkerboard
/// placements.
#[test]
fn corner_gaps_match_the_brute_force_oracle() {
    check(
        "corner_gaps_match_the_brute_force_oracle",
        &cfg(),
        &(
            dfm_check::vec((0i64..20, 0i64..20, 1i64..8, 1i64..8), 0..8),
            dfm_check::vec((0i64..8, 0i64..8), 0..12),
            1i64..4,
            1i64..14,
        ),
        |case| {
            let (soup, cells, side, value) = (&case.0, &case.1, case.2, case.3);
            // Soup rects anywhere on the unit grid, plus cells of one
            // lattice, which touch edge to edge or corner to corner.
            let rects = soup
                .iter()
                .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h))
                .chain(cells.iter().map(|&(i, j)| {
                    Rect::new(
                        3 + i * side,
                        3 + j * side,
                        3 + (i + 1) * side,
                        3 + (j + 1) * side,
                    )
                }));
            let region = Region::from_rects(rects);
            let spacing = spacing_violations(&region, value);
            let facing = facing_pairs(&region, value).0;
            let (edges, corners) = spacing.split_at(facing.len());
            let facing: Vec<(Rect, i64)> =
                facing.iter().map(|p| (p.location, p.distance)).collect();
            prop_assert_eq!(edges, &facing[..], "facing part, value {}", value);
            let mut corners = corners.to_vec();
            corners.sort_unstable_by_key(|&(r, d)| (r.x0, r.y0, r.x1, r.y1, d));
            prop_assert_eq!(
                corners,
                brute_corner_gaps(&region, value),
                "value {}",
                value
            );
            Ok(())
        },
    );
}

/// The brute-force `MinSpaceTo` oracle, on unit cells with no `Region`
/// operation: the near set is every `to` cell within Chebyshev cell
/// distance `value` of some `from` cell; each 8-connected component of
/// it reports its bbox and `max(d − 1, 0)`, where `d` is its least
/// Chebyshev cell distance to `from`.
fn brute_min_space_to(from: &[Rect], to: &[Rect], value: i64) -> Vec<(Rect, i64)> {
    let cells = |rects: &[Rect]| {
        let mut cells: Vec<(i64, i64)> = rects
            .iter()
            .flat_map(|r| (r.x0..r.x1).flat_map(move |x| (r.y0..r.y1).map(move |y| (x, y))))
            .collect();
        cells.sort_unstable();
        cells.dedup();
        cells
    };
    let (from, to) = (cells(from), cells(to));
    let dist = |(x, y): (i64, i64)| {
        from.iter()
            .map(|&(fx, fy)| (x - fx).abs().max((y - fy).abs()))
            .min()
            .unwrap_or(i64::MAX)
    };
    let near: Vec<(i64, i64)> = to.into_iter().filter(|&c| dist(c) <= value).collect();
    let mut seen = vec![false; near.len()];
    let mut out = Vec::new();
    for start in 0..near.len() {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut stack = vec![start];
        let (x, y) = near[start];
        let (mut bbox, mut d) = (Rect::new(x, y, x + 1, y + 1), i64::MAX);
        while let Some(i) = stack.pop() {
            let (x, y) = near[i];
            bbox = Rect::new(
                bbox.x0.min(x),
                bbox.y0.min(y),
                bbox.x1.max(x + 1),
                bbox.y1.max(y + 1),
            );
            d = d.min(dist((x, y)));
            for (j, &(u, v)) in near.iter().enumerate() {
                if !seen[j] && (u - x).abs() <= 1 && (v - y).abs() <= 1 {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        out.push((bbox, (d - 1).max(0)));
    }
    out.sort_unstable_by_key(|&(r, d)| (r.x0, r.y0, r.x1, r.y1, d));
    out
}

/// `min_space_to_violations` equals the brute-force near-set oracle as
/// a sorted list, on small-grid `from`/`to` soups that overlap, touch
/// and sit apart.
#[test]
fn min_space_to_matches_the_brute_force_oracle() {
    check(
        "min_space_to_matches_the_brute_force_oracle",
        &cfg(),
        &(
            dfm_check::vec((0i64..16, 0i64..16, 1i64..6, 1i64..6), 0..6),
            dfm_check::vec((0i64..16, 0i64..16, 1i64..6, 1i64..6), 0..6),
            0i64..8,
        ),
        |case| {
            let rects = |soup: &[(i64, i64, i64, i64)]| -> Vec<Rect> {
                soup.iter()
                    .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h))
                    .collect()
            };
            let (from, to, value) = (rects(&case.0), rects(&case.1), case.2);
            let mut got = min_space_to_violations(
                &Region::from_rects(from.iter().copied()),
                &Region::from_rects(to.iter().copied()),
                value,
            );
            got.sort_unstable_by_key(|&(r, d)| (r.x0, r.y0, r.x1, r.y1, d));
            prop_assert_eq!(
                got,
                brute_min_space_to(&from, &to, value),
                "value {}",
                value
            );
            Ok(())
        },
    );
}
