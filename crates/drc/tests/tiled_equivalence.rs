//! Property tests: the per-tile DRC halves the signoff service runs
//! (`rule_tile_partial` with `merge_rule_partials`, and
//! `facing_pair_partial` with `merge_facing_pair_partials`), here in a
//! plain loop over tiles, are bit-identical to the flat engine on
//! random layouts, at random tile sizes (divisor and non-divisor
//! alike) and random halos — plus the pinned seam regressions the
//! tiling design calls out.

use dfm_check::{check, prop_assert_eq, Config};
use dfm_drc::{
    facing_pair_partial, merge_facing_pair_partials, merge_rule_partials, rule_tile_partial,
    DrcEngine, DrcReport, FacingPair, Rule, RuleDeck, TiledDrcError, Violation,
};
use dfm_geom::{Rect, Region};
use dfm_layout::{layers, FlatLayout, Layer, TiledLayout, TilingConfig};

fn cfg() -> Config {
    Config::with_cases(48)
        .corpus(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/tiled_equivalence.seeds"))
}

/// Rect soup on a coarse lattice: adjacent and overlapping shapes merge
/// into multi-rect components, so seams cut through real geometry.
fn soup(specs: &[(i64, i64, i64, i64)]) -> Region {
    Region::from_rects(specs.iter().map(|&(x, y, w, h)| {
        Rect::new(x * 60, y * 60, x * 60 + 40 + w * 55, y * 60 + 40 + h * 55)
    }))
}

fn flat_of(region: &Region) -> FlatLayout {
    let mut flat = FlatLayout::default();
    flat.set_region(layers::METAL1, region.clone());
    flat
}

fn shard(flat: &FlatLayout, tile: i64, halo: i64) -> TiledLayout {
    let cfg = TilingConfig::builder()
        .tile(tile)
        .halo(halo)
        .build()
        .expect("valid tiling");
    TiledLayout::from_flat(flat.clone(), cfg)
}

/// One rule over every tile, partials computed in `order`, merged in
/// tile order.
fn check_tiles_in(
    rule: &Rule,
    layout: &TiledLayout,
    order: impl Iterator<Item = usize>,
) -> Result<Vec<Violation>, TiledDrcError> {
    let mut partials: Vec<_> = order.map(|i| (i, rule_tile_partial(rule, layout, i))).collect();
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
/// non-divisor tile sizes and random extra halo.
#[test]
fn tiled_report_matches_flat_on_random_soups() {
    let deck = RuleDeck::new()
        .with(Rule::MinWidth { layer: layers::METAL1, value: 90 })
        .with(Rule::MinSpace { layer: layers::METAL1, value: 100 })
        .with(Rule::MinArea { layer: layers::METAL1, value: 30_000 })
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
        ),
        |case| {
            let (specs, tile, halo) = (&case.0, case.1, case.2);
            let region = soup(specs);
            let flat = flat_of(&region);
            let reference = DrcEngine::new(&deck).run(&flat);
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
                    prop_assert_eq!(
                        &pairs,
                        &reference,
                        "interior={} tile {}",
                        interior,
                        t
                    );
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
    let plus = Region::from_rects([
        Rect::new(180, 120, 220, 280),
        Rect::new(120, 180, 280, 220),
    ]);
    let anchor = Region::from_rects([
        Rect::new(0, 0, 30, 30),
        Rect::new(370, 370, 400, 400),
    ]);
    let region = plus.union(&anchor);
    let flat = flat_of(&region);
    let rule = Rule::MinArea { layer: layers::METAL1, value: 50_000 };
    let reference = dfm_drc::check_rule(&rule, &flat);
    assert_eq!(reference.len(), 3, "plus and both anchors violate");
    for tile in [200, 137] {
        let tiled = shard(&flat, tile, 0);
        let violations = check_tiles(&rule, &tiled).expect("min-area certifies");
        assert_eq!(violations, reference, "tile {tile}");
    }
    // The same straddle for corner-to-corner spacing: a gap box whose
    // diagonal crosses the four-corner point.
    let corners = Region::from_rects([
        Rect::new(100, 100, 195, 195),
        Rect::new(205, 205, 300, 300),
    ]);
    let flat = flat_of(&corners);
    let rule = Rule::MinSpace { layer: layers::METAL1, value: 40 };
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
        .with(Rule::MinWidth { layer: layers::METAL1, value: 95 })
        .with(Rule::MinSpace { layer: layers::METAL1, value: 110 })
        .with(Rule::MinArea { layer: layers::METAL1, value: 25_000 });
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
