//! Property tests: the per-tile DRC halves the signoff service runs
//! (`rule_tile_partial` with `merge_rule_partials`, and
//! `facing_pair_partial` with `merge_facing_pair_partials`), here in a
//! plain loop over tiles, are bit-identical to the flat engine on
//! random layouts, at random tile sizes (divisor and non-divisor
//! alike) and random halos — plus the pinned seam regressions the
//! tiling design calls out. The deck suite also tiles each soup placed
//! as a leaf cell under SREF/AREF placements, the hierarchical library
//! a signoff job streams its tiles from.

use dfm_check::{check, prop_assert_eq, Config};
use dfm_drc::{
    enclosure_violations, facing_pair_partial, merge_facing_pair_partials, merge_rule_partials,
    rule_tile_partial, DrcEngine, DrcReport, FacingPair, Rule, RuleDeck, TiledDrcError, Violation,
};
use dfm_geom::{Rect, Region, Rotation, Transform, Vector};
use dfm_layout::{
    layers, ArrayParams, Cell, CellRef, FlatLayout, Layer, Library, TiledLayout, TilingConfig,
};

fn cfg() -> Config {
    Config::with_cases(48).corpus(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/tiled_equivalence.seeds"
    ))
}

/// Rect soup on a coarse lattice: adjacent and overlapping shapes merge
/// into multi-rect components, so seams cut through real geometry.
fn soup(specs: &[(i64, i64, i64, i64)]) -> Region {
    Region::from_rects(
        specs.iter().map(|&(x, y, w, h)| {
            Rect::new(x * 60, y * 60, x * 60 + 40 + w * 55, y * 60 + 40 + h * 55)
        }),
    )
}

fn flat_of(region: &Region) -> FlatLayout {
    let mut flat = FlatLayout::default();
    flat.set_region(layers::METAL1, region.clone());
    flat
}

fn tiling(tile: i64, halo: i64) -> TilingConfig {
    TilingConfig::builder()
        .tile(tile)
        .halo(halo)
        .build()
        .expect("valid tiling")
}

fn shard(flat: &FlatLayout, tile: i64, halo: i64) -> TiledLayout {
    TiledLayout::from_flat(flat.clone(), tiling(tile, halo))
}

/// `region` as the METAL1 of a leaf cell, placed under a top cell by
/// SREFs (`(x, y, quarter turns, mirrored)` on a 300 nm lattice) and an
/// AREF (`(cols, rows, quarter turns)`, mirrored on odd turns).
fn placed_soup(region: &Region, srefs: &[(i64, i64, u8, bool)], aref: (u16, u16, u8)) -> Library {
    let mut lib = Library::new("SOUP");
    let mut leaf = Cell::new("LEAF");
    for &r in region.rects() {
        leaf.add_rect(layers::METAL1, r);
    }
    lib.add_cell(leaf).expect("leaf");
    let mut top = Cell::new("TOP");
    for &(x, y, turns, mirror) in srefs {
        let t = Transform::new(
            Vector::new(x * 300, y * 300),
            Rotation::from_quarter_turns(turns),
            mirror,
        );
        top.add_ref(CellRef::new("LEAF", t));
    }
    let (cols, rows, turns) = aref;
    let t = Transform::new(
        Vector::new(-3_000, 2_500),
        Rotation::from_quarter_turns(turns),
        turns % 2 == 1,
    );
    let params = ArrayParams {
        cols,
        rows,
        col_pitch: 1_150,
        row_pitch: 1_230,
    };
    top.add_ref(CellRef::array("LEAF", t, params));
    let id = lib.add_cell(top).expect("top");
    lib.set_top(id).expect("top id");
    lib
}

/// One rule over every tile, partials computed in `order`, merged in
/// tile order.
fn check_tiles_in(
    rule: &Rule,
    layout: &TiledLayout,
    order: impl Iterator<Item = usize>,
) -> Result<Vec<Violation>, TiledDrcError> {
    let mut partials: Vec<_> = order
        .map(|i| (i, rule_tile_partial(rule, layout, i)))
        .collect();
    partials.sort_by_key(|(i, _)| *i);
    merge_rule_partials(rule, layout, partials.into_iter().map(|(_, p)| p).collect())
}

fn check_tiles(rule: &Rule, layout: &TiledLayout) -> Result<Vec<Violation>, TiledDrcError> {
    check_tiles_in(rule, layout, 0..layout.tile_count())
}

/// Every rule of `deck` tile by tile, merged in deck order.
fn deck_by_tile(deck: &RuleDeck, layout: &TiledLayout) -> Result<DrcReport, TiledDrcError> {
    let mut report = DrcReport::new();
    for rule in deck.rules() {
        report.extend(check_tiles(rule, layout)?);
    }
    Ok(report)
}

fn facing_pairs_by_tile(
    layout: &TiledLayout,
    layer: Layer,
    max: i64,
    interior: bool,
) -> Vec<FacingPair> {
    merge_facing_pair_partials(
        (0..layout.tile_count()).map(|i| facing_pair_partial(layout, layer, max, interior, i).0),
    )
}

/// Full deck of every decomposable rule kind over random soups: the
/// merged tiled report equals the flat report exactly, for divisor and
/// non-divisor tile sizes and random extra halo — on the soup itself and
/// on a library that places it by rotated and mirrored SREFs and an
/// AREF, tiled from the library and judged against the flat engine on
/// its flattening.
#[test]
fn tiled_report_matches_flat_on_random_soups() {
    let deck = RuleDeck::new()
        .with(Rule::MinWidth {
            layer: layers::METAL1,
            value: 90,
        })
        .with(Rule::MinSpace {
            layer: layers::METAL1,
            value: 100,
        })
        .with(Rule::MinArea {
            layer: layers::METAL1,
            value: 30_000,
        })
        .with(Rule::Density {
            layer: layers::METAL1,
            window: 400,
            min: 0.15,
            max: 0.80,
        });
    check(
        "tiled_report_matches_flat_on_random_soups",
        &cfg(),
        &(
            dfm_check::vec((0i64..14, 0i64..14, 0i64..5, 0i64..5), 2..18),
            70i64..900,
            0i64..120,
            dfm_check::vec((-4i64..4, -4i64..4, 0u8..4, dfm_check::bools()), 1..4),
            (1u16..3, 1u16..3, 0u8..4),
        ),
        |case| {
            let (specs, tile, halo) = (&case.0, case.1, case.2);
            let region = soup(specs);
            let flat = flat_of(&region);
            let reference = DrcEngine::new(&deck).run(&flat);
            let lib = placed_soup(&region, &case.3, case.4);
            let hier_reference =
                DrcEngine::new(&deck).run(&lib.flatten_top().expect("placements flatten"));
            for t in [tile, tile + 13] {
                let tiled = shard(&flat, t, halo);
                let report =
                    deck_by_tile(&deck, &tiled).expect("decomposable rules always certify");
                prop_assert_eq!(
                    &report,
                    &reference,
                    "tile {} halo {} diverged ({} tiles)",
                    t,
                    halo,
                    tiled.tile_count()
                );
                let tiled = TiledLayout::from_library(lib.clone(), tiling(t, halo))
                    .expect("placements tile");
                let report =
                    deck_by_tile(&deck, &tiled).expect("decomposable rules always certify");
                prop_assert_eq!(
                    &report,
                    &hier_reference,
                    "placed: tile {} halo {} diverged ({} tiles)",
                    t,
                    halo,
                    tiled.tile_count()
                );
            }
            Ok(())
        },
    );
}

/// Facing-pair extraction (the critical-area substrate) merges to the
/// flat pair lists exactly — same pairs, same canonical order — for
/// both exterior (short) and interior (open) pairs.
#[test]
fn tiled_facing_pairs_match_flat_on_random_soups() {
    check(
        "tiled_facing_pairs_match_flat_on_random_soups",
        &cfg(),
        &(
            dfm_check::vec((0i64..14, 0i64..14, 0i64..5, 0i64..5), 2..16),
            80i64..700,
        ),
        |case| {
            let (specs, tile) = (&case.0, case.1);
            let region = soup(specs);
            let flat = flat_of(&region);
            let max_range = 450;
            for interior in [false, true] {
                let reference = if interior {
                    dfm_drc::interior_facing_pairs(&region, max_range)
                } else {
                    dfm_drc::exterior_facing_pairs(&region, max_range)
                };
                for t in [tile, tile + 29] {
                    let tiled = shard(&flat, t, 0);
                    let pairs = facing_pairs_by_tile(&tiled, layers::METAL1, max_range, interior);
                    prop_assert_eq!(&pairs, &reference, "interior={} tile {}", interior, t);
                }
            }
            Ok(())
        },
    );
}

/// Tile-accumulated total area equals the flat accounting for any tile
/// size, including sizes that do not divide the extent.
#[test]
fn tiled_total_area_matches_flat() {
    check(
        "tiled_total_area_matches_flat",
        &cfg(),
        &(
            dfm_check::vec((0i64..14, 0i64..14, 0i64..5, 0i64..5), 1..16),
            40i64..900,
        ),
        |case| {
            let (specs, tile) = (&case.0, case.1);
            let region = soup(specs);
            let flat = flat_of(&region);
            let tiled = shard(&flat, tile, 64);
            prop_assert_eq!(tiled.total_area(), flat.total_area(), "tile {}", tile);
            Ok(())
        },
    );
}

/// Pinned seam regression: one violating component straddling exactly
/// four tiles. The plus-shape is centred on the 2×2 grid's four-corner
/// point, every arm crosses into a different tile, and its area is
/// below the limit — the merged report must carry it exactly once,
/// with the flat bbox and area.
#[test]
fn four_tile_straddle_dedups_to_one_violation() {
    // Extent [0,400)²; tile 200 → cores meet at (200, 200).
    let plus = Region::from_rects([Rect::new(180, 120, 220, 280), Rect::new(120, 180, 280, 220)]);
    let anchor = Region::from_rects([Rect::new(0, 0, 30, 30), Rect::new(370, 370, 400, 400)]);
    let region = plus.union(&anchor);
    let flat = flat_of(&region);
    let rule = Rule::MinArea {
        layer: layers::METAL1,
        value: 50_000,
    };
    let reference = dfm_drc::check_rule(&rule, &flat);
    assert_eq!(reference.len(), 3, "plus and both anchors violate");
    for tile in [200, 137] {
        let tiled = shard(&flat, tile, 0);
        let violations = check_tiles(&rule, &tiled).expect("min-area certifies");
        assert_eq!(violations, reference, "tile {tile}");
    }
    // The same straddle for corner-to-corner spacing: a gap box whose
    // diagonal crosses the four-corner point.
    let corners =
        Region::from_rects([Rect::new(100, 100, 195, 195), Rect::new(205, 205, 300, 300)]);
    let flat = flat_of(&corners);
    let rule = Rule::MinSpace {
        layer: layers::METAL1,
        value: 40,
    };
    let reference = dfm_drc::check_rule(&rule, &flat);
    assert!(!reference.is_empty(), "diagonal gap 10 must violate");
    for tile in [200, 151] {
        let tiled = shard(&flat, tile, 0);
        let violations = check_tiles(&rule, &tiled).expect("spacing certifies");
        assert_eq!(violations, reference, "tile {tile}");
    }
}

/// Partials are pure functions of `(rule, layout, tile)`: computing
/// them in reverse tile order and merging in tile order gives the flat
/// report.
#[test]
fn tile_partials_merge_independently_of_compute_order() {
    let specs: Vec<(i64, i64, i64, i64)> = (0..12)
        .map(|i| (i % 5, (i * 7) % 11, i % 4, (i + 2) % 4))
        .collect();
    let region = soup(&specs);
    let flat = flat_of(&region);
    let deck = RuleDeck::new()
        .with(Rule::MinWidth {
            layer: layers::METAL1,
            value: 95,
        })
        .with(Rule::MinSpace {
            layer: layers::METAL1,
            value: 110,
        })
        .with(Rule::MinArea {
            layer: layers::METAL1,
            value: 25_000,
        });
    let tiled = shard(&flat, 310, 16);
    assert!(tiled.tile_count() > 1);
    let mut reversed = DrcReport::new();
    for rule in deck.rules() {
        let backwards = (0..tiled.tile_count()).rev();
        reversed.extend(check_tiles_in(rule, &tiled, backwards).expect("certified"));
    }
    assert_eq!(reversed, deck_by_tile(&deck, &tiled).expect("certified"));
    assert_eq!(reversed, DrcEngine::new(&deck).run(&flat));
}

/// Enclosure on the unit-cell lattice, by brute force: a cell of
/// `inner` is bad iff the square of cells within `value` of it (its
/// `value`-square) leaves `outer`. Bad cells group by 8-connectivity
/// (the touch rule of `Region::connected_components`); each group is
/// reported with its bbox and the enclosure margin of the inner
/// components it lies in — the largest `k < value` whose `k`-square
/// stays in `outer` around every one of their cells, 0 when a cell
/// lies outside `outer`. Sorted as reports are.
fn brute_enclosure(inner: &Region, outer: &Region, value: i64) -> Vec<(Rect, i64)> {
    if inner.is_empty() {
        return Vec::new();
    }
    let b = inner.bbox().expanded(value + 1);
    let (w, h) = (b.width(), b.height());
    let at = |x: i64, y: i64| ((y - b.y0) * w + (x - b.x0)) as usize;
    let grid = |region: &Region| {
        let mut g = vec![false; (w * h) as usize];
        for r in region.clipped(b).rects() {
            for y in r.y0..r.y1 {
                for x in r.x0..r.x1 {
                    g[at(x, y)] = true;
                }
            }
        }
        g
    };
    let (ins, outs) = (grid(inner), grid(outer));
    let cells: Vec<(i64, i64)> = (b.y0..b.y1)
        .flat_map(|y| (b.x0..b.x1).map(move |x| (x, y)))
        .filter(|&(x, y)| ins[at(x, y)])
        .collect();
    // Largest k ≤ value whose k-square around the cell is all outer; -1
    // when the cell itself is not.
    let reach = |(x, y): (i64, i64)| -> i64 {
        let mut k = -1;
        while k < value {
            let n = k + 1;
            let square = (y - n..=y + n).all(|sy| (x - n..=x + n).all(|sx| outs[at(sx, sy)]));
            if !square {
                break;
            }
            k = n;
        }
        k
    };
    // 8-connected labels of a cell set.
    let label = |keep: &dyn Fn(i64, i64) -> bool| {
        let mut lab = vec![usize::MAX; (w * h) as usize];
        let mut next = 0;
        for &(x, y) in &cells {
            if !keep(x, y) || lab[at(x, y)] != usize::MAX {
                continue;
            }
            let mut stack = vec![(x, y)];
            lab[at(x, y)] = next;
            while let Some((cx, cy)) = stack.pop() {
                for (nx, ny) in
                    (cy - 1..=cy + 1).flat_map(|ny| (cx - 1..=cx + 1).map(move |nx| (nx, ny)))
                {
                    if b.x0 <= nx && nx < b.x1 && b.y0 <= ny && ny < b.y1 {
                        let i = at(nx, ny);
                        if ins[i] && keep(nx, ny) && lab[i] == usize::MAX {
                            lab[i] = next;
                            stack.push((nx, ny));
                        }
                    }
                }
            }
            next += 1;
        }
        (lab, next)
    };
    let (inner_lab, inner_n) = label(&|_, _| true);
    let (bad_lab, bad_n) = label(&|x, y| reach((x, y)) < value);
    let mut inner_margin = vec![value; inner_n];
    for &c in &cells {
        let m = &mut inner_margin[inner_lab[at(c.0, c.1)]];
        *m = (*m).min(reach(c).max(0));
    }
    let mut groups: Vec<(Rect, i64)> = vec![(Rect::empty(), value); bad_n];
    for &(x, y) in &cells {
        let g = bad_lab[at(x, y)];
        if g == usize::MAX {
            continue;
        }
        let cell = Rect::new(x, y, x + 1, y + 1);
        let (bbox, margin) = &mut groups[g];
        *bbox = if bbox.is_empty() {
            cell
        } else {
            bbox.bounding_union(&cell)
        };
        *margin = (*margin).min(inner_margin[inner_lab[at(x, y)]]);
    }
    groups.sort_by_key(|(r, m)| (r.x0, r.y0, r.x1, r.y1, *m));
    groups
}

/// The flat enclosure and the tiled one (every tile's partial, then the
/// merge) both equal the brute-force unit-cell walk on small random
/// via-over-metal soups. The tiled run may refuse a tile it cannot
/// certify; most cases must certify, or the comparison proves nothing.
#[test]
fn enclosure_matches_the_unit_cell_oracle() {
    let certified = std::sync::atomic::AtomicUsize::new(0);
    let runs = std::sync::atomic::AtomicUsize::new(0);
    let cfg = Config::with_cases(256).corpus(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/tiled_equivalence.seeds"
    ));
    check(
        "enclosure_matches_the_unit_cell_oracle",
        &cfg,
        &(
            dfm_check::vec((0i64..12, 0i64..12, 1i64..7, 1i64..7), 1..8),
            dfm_check::vec((0usize..8, 0i64..28, 0i64..28, 1i64..4), 1..10),
            1i64..7,
            6i64..48,
            0i64..16,
        ),
        |case| {
            let (metal, vias, value, tile, halo) = (&case.0, &case.1, case.2, case.3, case.4);
            let outer = Region::from_rects(
                metal
                    .iter()
                    .map(|&(x, y, w, h)| Rect::new(x * 4, y * 4, (x + w) * 4, (y + h) * 4)),
            );
            // Each via sits at an offset inside one metal rect, so most are
            // enclosed by some margin and some overhang its far side.
            let inner = Region::from_rects(vias.iter().map(|&(k, dx, dy, side)| {
                let (x, y, w, h) = metal[k % metal.len()];
                let (x0, y0) = (x * 4 + dx % (w * 4), y * 4 + dy % (h * 4));
                Rect::new(x0, y0, x0 + side, y0 + side)
            }));
            let want = brute_enclosure(&inner, &outer, value);
            let mut flat_v = enclosure_violations(&inner, &outer, value);
            flat_v.sort_by_key(|(r, m)| (r.x0, r.y0, r.x1, r.y1, *m));
            prop_assert_eq!(&flat_v, &want, "flat, value {}", value);

            let mut flat = FlatLayout::default();
            flat.set_region(layers::VIA1, inner.clone());
            flat.set_region(layers::METAL1, outer.clone());
            let rule = Rule::Enclosure {
                inner: layers::VIA1,
                outer: layers::METAL1,
                value,
            };
            runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if let Ok(v) = check_tiles(&rule, &shard(&flat, tile, halo)) {
                certified.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let got: Vec<(Rect, i64)> = v.iter().map(|v| (v.location, v.actual)).collect();
                prop_assert_eq!(&got, &want, "tile {} halo {} value {}", tile, halo, value);
            }
            Ok(())
        },
    );
    let (certified, runs) = (certified.into_inner(), runs.into_inner());
    assert!(
        2 * certified >= runs,
        "only {certified} of {runs} tiled runs certified"
    );
}
