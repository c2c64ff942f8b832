//! Property-based tests for the geometry kernel invariants
//! (dfm-check harness; hermetic, seed-deterministic).

use dfm_check::{bools, check, prop_assert, prop_assert_eq, Config, Gen};
use dfm_geom::{Point, Rect, Region, Rotation, Transform, Vector};

fn cfg() -> Config {
    Config::with_cases(256)
}

fn arb_rect() -> impl Gen<Value = Rect> {
    (-200i64..200, -200i64..200, 1i64..80, 1i64..80)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn arb_region() -> impl Gen<Value = Region> {
    dfm_check::vec(arb_rect(), 0..12).prop_map(Region::from_rects)
}

fn arb_transform() -> impl Gen<Value = Transform> {
    (-100i64..100, -100i64..100, 0u8..4, bools()).prop_map(|(x, y, r, m)| {
        Transform::new(Vector::new(x, y), Rotation::from_quarter_turns(r), m)
    })
}

/// Canonical regions consist of pairwise non-overlapping rectangles.
#[test]
fn region_rects_are_disjoint() {
    check("region_rects_are_disjoint", &cfg(), &arb_region(), |r| {
        let rects = r.rects();
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                prop_assert!(
                    !rects[i].overlaps(&rects[j]),
                    "rects {i} and {j} overlap: {:?} {:?}",
                    rects[i],
                    rects[j]
                );
            }
        }
        Ok(())
    });
}

/// Inclusion–exclusion: |A ∪ B| = |A| + |B| − |A ∩ B|.
#[test]
fn inclusion_exclusion() {
    check(
        "inclusion_exclusion",
        &cfg(),
        &(arb_region(), arb_region()),
        |v| {
            let (a, b) = v;
            let u = a.union(b).area();
            let i = a.intersection(b).area();
            prop_assert_eq!(u + i, a.area() + b.area());
            Ok(())
        },
    );
}

/// Difference partitions the union: |A∖B| + |B∖A| + |A∩B| = |A∪B|.
#[test]
fn boolean_partition() {
    check(
        "boolean_partition",
        &cfg(),
        &(arb_region(), arb_region()),
        |v| {
            let (a, b) = v;
            let ab = a.difference(b).area();
            let ba = b.difference(a).area();
            let i = a.intersection(b).area();
            let u = a.union(b).area();
            prop_assert_eq!(ab + ba + i, u);
            prop_assert_eq!(a.xor(b).area(), ab + ba);
            Ok(())
        },
    );
}

/// Union is commutative and idempotent in area and membership.
#[test]
fn union_commutes() {
    check(
        "union_commutes",
        &cfg(),
        &(arb_region(), arb_region()),
        |v| {
            let (a, b) = v;
            prop_assert_eq!(a.union(b).area(), b.union(a).area());
            prop_assert_eq!(a.union(a).area(), a.area());
            Ok(())
        },
    );
}

/// Intersection with a clip window equals `clipped`.
#[test]
fn clip_matches_intersection() {
    check(
        "clip_matches_intersection",
        &cfg(),
        &(arb_region(), arb_rect()),
        |v| {
            let (a, w) = v;
            let clipped = a.clipped(*w);
            let inter = a.intersection(&Region::from_rect(*w));
            prop_assert_eq!(clipped.area(), inter.area());
            Ok(())
        },
    );
}

/// Dilation then erosion by the same amount restores any region that
/// was already "open" (e.g. a single rectangle).
#[test]
fn bloat_shrink_roundtrip_single_rect() {
    check(
        "bloat_shrink_roundtrip_single_rect",
        &cfg(),
        &(arb_rect(), 0i64..20),
        |v| {
            let (r, d) = v;
            let region = Region::from_rect(*r);
            prop_assert_eq!(region.bloated(*d).shrunk(*d), region);
            Ok(())
        },
    );
}

/// Opening is idempotent: open(open(R)) == open(R).
#[test]
fn opening_idempotent() {
    check(
        "opening_idempotent",
        &cfg(),
        &(arb_region(), 1i64..8),
        |v| {
            let (r, d) = v;
            let once = r.opened(*d);
            let twice = once.opened(*d);
            prop_assert_eq!(once.area(), twice.area());
            Ok(())
        },
    );
}

/// Erosion shrinks area; dilation grows it.
#[test]
fn morphology_monotone() {
    check(
        "morphology_monotone",
        &cfg(),
        &(arb_region(), 1i64..10),
        |v| {
            let (r, d) = v;
            prop_assert!(r.shrunk(*d).area() <= r.area());
            prop_assert!(r.bloated(*d).area() >= r.area());
            Ok(())
        },
    );
}

/// The bounding box contains every rect of the region.
#[test]
fn bbox_contains_all() {
    check("bbox_contains_all", &cfg(), &arb_region(), |r| {
        let b = r.bbox();
        for rect in r.rects() {
            prop_assert!(b.contains_rect(rect));
        }
        Ok(())
    });
}

/// Transforms are area-preserving bijections on regions.
#[test]
fn transform_preserves_area() {
    check(
        "transform_preserves_area",
        &cfg(),
        &(arb_rect(), arb_transform()),
        |v| {
            let (r, t) = v;
            let moved = t.apply_rect(*r);
            prop_assert_eq!(moved.area(), r.area());
            let back = t.inverse().apply_rect(moved);
            prop_assert_eq!(back, *r);
            Ok(())
        },
    );
}

/// Transform composition agrees with sequential application on points.
#[test]
fn transform_composition() {
    check(
        "transform_composition",
        &cfg(),
        &((-50i64..50, -50i64..50), arb_transform(), arb_transform()),
        |v| {
            let (p, t1, t2) = v;
            let p = Point::new(p.0, p.1);
            prop_assert_eq!(t1.then(t2).apply(p), t2.apply(t1.apply(p)));
            Ok(())
        },
    );
}

/// Sum of connected-component areas equals the region area.
#[test]
fn components_partition_area() {
    check("components_partition_area", &cfg(), &arb_region(), |r| {
        let total: i128 = r.connected_components().iter().map(|c| c.area()).sum();
        prop_assert_eq!(total, r.area());
        Ok(())
    });
}

/// Perimeter of the union never exceeds the sum of perimeters.
#[test]
fn union_perimeter_subadditive() {
    check(
        "union_perimeter_subadditive",
        &cfg(),
        &(arb_region(), arb_region()),
        |v| {
            let (a, b) = v;
            prop_assert!(a.union(b).perimeter() <= a.perimeter() + b.perimeter());
            Ok(())
        },
    );
}

/// `connected_components` equals an O(n²) union-find over
/// `Rect::touches` on the region's own rects — group for group, rect
/// for rect, in the same order (groups in first-rect order, then a
/// stable sort by bbox low corner). Shapes sit on a 5-unit lattice, so
/// rects meet edge to edge and corner to corner often.
#[test]
fn components_match_the_pairwise_union_find() {
    let lattice = (0i64..10, 0i64..10, 1i64..4, 1i64..4)
        .prop_map(|(x, y, w, h)| Rect::new(x * 5, y * 5, (x + w) * 5, (y + h) * 5));
    let gen = dfm_check::vec(lattice, 0..16).prop_map(Region::from_rects);
    check(
        "components_match_the_pairwise_union_find",
        &cfg(),
        &gen,
        |region| {
            let rects = region.rects();
            let mut parent: Vec<usize> = (0..rects.len()).collect();
            fn find(parent: &[usize], mut i: usize) -> usize {
                while parent[i] != i {
                    i = parent[i];
                }
                i
            }
            for i in 0..rects.len() {
                for j in (i + 1)..rects.len() {
                    if rects[i].touches(&rects[j]) {
                        let (a, b) = (find(&parent, i), find(&parent, j));
                        parent[a] = b;
                    }
                }
            }
            let mut groups: Vec<(usize, Vec<Rect>)> = Vec::new();
            for (i, r) in rects.iter().enumerate() {
                let root = find(&parent, i);
                match groups.iter_mut().find(|(g, _)| *g == root) {
                    Some((_, members)) => members.push(*r),
                    None => groups.push((root, vec![*r])),
                }
            }
            let mut want: Vec<Vec<Rect>> = groups.into_iter().map(|(_, members)| members).collect();
            want.sort_by_key(|g| g.iter().fold(g[0], |b, r| b.bounding_union(r)).lo());
            let got: Vec<Vec<Rect>> = region
                .connected_components()
                .iter()
                .map(|c| c.rects().to_vec())
                .collect();
            prop_assert_eq!(got, want);
            Ok(())
        },
    );
}
