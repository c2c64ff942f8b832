//! Property-based tests for the geometry kernel invariants
//! (dfm-check harness; hermetic, seed-deterministic).

use dfm_check::{bools, check, prop_assert, prop_assert_eq, Config, Gen};
use dfm_geom::{group_within, near_pairs, Point, Rect, Region, Rotation, Transform, Vector};

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

/// Every region's rects are pairwise non-overlapping: the canonical
/// output of `from_rects`, and the decompositions that are disjoint
/// without being canonical — `clipped`, `difference` (whose rects outside
/// the other operand's bbox pass through) and each of
/// `connected_components`.
#[test]
fn region_rects_are_disjoint() {
    fn disjoint(rects: &[Rect]) -> Result<(), String> {
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
    }
    check(
        "region_rects_are_disjoint",
        &cfg(),
        &(arb_region(), arb_region(), arb_rect()),
        |v| {
            let (a, b, w) = v;
            disjoint(a.rects())?;
            disjoint(a.clipped(*w).rects())?;
            disjoint(a.difference(b).rects())?;
            for c in a.connected_components() {
                disjoint(c.rects())?;
            }
            Ok(())
        },
    );
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

/// The O(n²) reference for item grouping: items `a` and `b` share a
/// group when a rect of `a` and a rect of `b` have Chebyshev gap at
/// most `d`, transitively. Each item's group is numbered by the group's
/// first item.
fn pairwise_groups(items: usize, rects: &[(Rect, usize)], d: i64) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..items).collect();
    fn find(parent: &[usize], mut i: usize) -> usize {
        while parent[i] != i {
            i = parent[i];
        }
        i
    }
    for i in 0..rects.len() {
        for j in (i + 1)..rects.len() {
            let (dx, dy) = rects[i].0.gap(&rects[j].0);
            if dx.max(dy) <= d {
                let (a, b) = (find(&parent, rects[i].1), find(&parent, rects[j].1));
                parent[a] = b;
            }
        }
    }
    let mut first = vec![usize::MAX; items];
    (0..items)
        .map(|i| {
            let root = find(&parent, i);
            if first[root] == usize::MAX {
                first[root] = i;
            }
            first[root]
        })
        .collect()
}

/// `group_within` equals the pairwise reference on items owning one to
/// three rects at `d` ∈ {0, 1, 5, 12}, and `connected_components`
/// equals it on the region's own rects at `d = 0` (`Rect::touches`) —
/// group for group, rect for rect, in the same order (groups in
/// first-rect order, then a stable sort by bbox low corner). Shapes sit
/// on a 5-unit lattice, so rects meet edge to edge and corner to corner
/// often, and gaps of 5 and 10 fall either side of `d`.
#[test]
fn components_match_the_pairwise_union_find() {
    let lattice = (0i64..10, 0i64..10, 1i64..4, 1i64..4)
        .prop_map(|(x, y, w, h)| Rect::new(x * 5, y * 5, (x + w) * 5, (y + h) * 5));
    let items = dfm_check::vec(dfm_check::vec(lattice, 1..4), 0..8);
    check(
        "components_match_the_pairwise_union_find",
        &cfg(),
        &(items, 0usize..4),
        |v| {
            let (items, pick) = v;
            let d = [0, 1, 5, 12][*pick];
            let owned: Vec<(Rect, usize)> = (0..items.len())
                .flat_map(|i| items[i].iter().map(move |r| (*r, i)))
                .collect();
            prop_assert_eq!(
                group_within(items.len(), &owned, d),
                pairwise_groups(items.len(), &owned, d)
            );

            let region = Region::from_rects(owned.iter().map(|(r, _)| *r));
            let rects: Vec<(Rect, usize)> = region.rects().iter().copied().zip(0..).collect();
            let group = pairwise_groups(rects.len(), &rects, 0);
            let mut want: Vec<Vec<Rect>> = Vec::new();
            let mut slot = vec![0; rects.len()];
            for &(r, i) in &rects {
                if group[i] == i {
                    slot[i] = want.len();
                    want.push(Vec::new());
                }
                want[slot[group[i]]].push(r);
            }
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

/// Every pair at most `d` apart, brute force: `(i, j, gap)` sorted, within
/// `a` (each unordered pair once, `i < j`) or across `a` and `b`.
fn all_near_pairs(a: &[Rect], b: Option<&[Rect]>, d: i64) -> Vec<(usize, usize, i64)> {
    let mut out = Vec::new();
    for (i, ra) in a.iter().enumerate() {
        let others = b.unwrap_or(a);
        for (j, rb) in others.iter().enumerate() {
            let (dx, dy) = ra.gap(rb);
            if (b.is_some() || i < j) && dx.max(dy) <= d {
                out.push((i, j, dx.max(dy)));
            }
        }
    }
    out
}

/// `near_pairs` visits exactly the brute-force pairs, each once, within
/// one set and across two, at `d` ∈ {−1, 0, 1, 5, 12}. Shapes sit on a
/// 5-unit lattice, and a soup may stack many rects at one `x0` (the
/// seam case: many pieces start at one tile edge), so ties in the sweep
/// order, touching pairs and gaps either side of `d` all occur.
#[test]
fn near_pairs_match_all_pairs() {
    let lattice = (0i64..10, 0i64..10, 1i64..4, 1i64..4)
        .prop_map(|(x, y, w, h)| Rect::new(x * 5, y * 5, (x + w) * 5, (y + h) * 5));
    let stack = (0i64..10, 0i64..20, 1i64..6)
        .prop_map(|(x, y, w)| Rect::new(x * 5, y * 5, (x + w) * 5, y * 5 + 5));
    let soup = (
        dfm_check::vec(lattice, 0..12),
        dfm_check::vec(stack, 0..12),
        bools(),
    )
        .prop_map(|(mut rects, stacked, at_one_x)| {
            rects.extend(stacked.into_iter().map(|r| {
                if at_one_x {
                    Rect::new(20, r.y0, 20 + r.width(), r.y1)
                } else {
                    r
                }
            }));
            rects
        });
    check(
        "near_pairs_match_all_pairs",
        &cfg(),
        &(soup.clone(), soup, 0usize..5),
        |v| {
            let (a, b, pick) = v;
            let d = [-1, 0, 1, 5, 12][*pick];
            let mut within = Vec::new();
            near_pairs(a, None, d, |i, j, gap| {
                within.push((i.min(j), i.max(j), gap))
            });
            within.sort_unstable();
            prop_assert_eq!(within, all_near_pairs(a, None, d), "within, d {}", d);
            let mut across = Vec::new();
            near_pairs(a, Some(b), d, |i, j, gap| across.push((i, j, gap)));
            across.sort_unstable();
            prop_assert_eq!(across, all_near_pairs(a, Some(b), d), "across, d {}", d);
            Ok(())
        },
    );
}

/// `boundary_edges` lists vertical edges in ascending `(x, y0)` and
/// horizontal edges in ascending `(y, x0)`, as `BoundaryEdges`
/// documents: the DRC facing sweep reads an edge's partners as one run
/// of that order. Shapes sit on a 5-unit lattice, so rects overlap,
/// meet edge to edge and meet corner to corner often.
#[test]
fn boundary_edges_come_sorted_along_their_axis() {
    let lattice = (0i64..10, 0i64..10, 1i64..4, 1i64..4)
        .prop_map(|(x, y, w, h)| Rect::new(x * 5, y * 5, (x + w) * 5, (y + h) * 5));
    let gen = dfm_check::vec(lattice, 0..16).prop_map(Region::from_rects);
    check(
        "boundary_edges_come_sorted_along_their_axis",
        &cfg(),
        &gen,
        |region| {
            let edges = region.boundary_edges();
            let vertical: Vec<(i64, i64)> = edges.vertical.iter().map(|e| (e.x, e.y0)).collect();
            let horizontal: Vec<(i64, i64)> =
                edges.horizontal.iter().map(|e| (e.y, e.x0)).collect();
            for keys in [&vertical, &horizontal] {
                prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{:?}", keys);
            }
            Ok(())
        },
    );
}
