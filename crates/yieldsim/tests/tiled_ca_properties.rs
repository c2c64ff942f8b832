//! Property test: the per-tile critical-area halves the signoff service
//! runs (`ca_tile_partial` + `merge_ca_partials`, here in a plain loop
//! over tiles) are bit-identical to the flat analysis — same pairs,
//! same order, same f64 bits — on random layouts and tile sizes, each
//! also placed as a leaf cell under SREF/AREF placements and tiled from
//! that library, as a signoff job tiles its GDS.

use dfm_check::{check, prop_assert, prop_assert_eq, Config};
use dfm_geom::{Rect, Region, Rotation, Transform, Vector};
use dfm_layout::{
    layers, ArrayParams, Cell, CellRef, FlatLayout, Library, TiledLayout, TilingConfig,
};
use dfm_yield::{critical_area, DefectModel};

/// `region` as the METAL1 of a leaf cell, placed under a top cell by
/// SREFs (`(x, y, quarter turns, mirrored)` on a 300 nm lattice) and a
/// 2 × 1 AREF turned by `aref_turns`.
fn placed_soup(region: &Region, srefs: &[(i64, i64, u8, bool)], aref_turns: u8) -> Library {
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
    let t = Transform::new(
        Vector::new(-2_500, 2_000),
        Rotation::from_quarter_turns(aref_turns),
        false,
    );
    let params = ArrayParams {
        cols: 2,
        rows: 1,
        col_pitch: 1_100,
        row_pitch: 1_100,
    };
    top.add_ref(CellRef::array("LEAF", t, params));
    let id = lib.add_cell(top).expect("top");
    lib.set_top(id).expect("top id");
    lib
}

#[test]
fn ca_tile_partials_match_flat_on_random_layouts() {
    let cfg = Config::with_cases(48);
    check(
        "ca_tile_partials_match_flat_on_random_layouts",
        &cfg,
        &(
            dfm_check::vec((0i64..14, 0i64..14, 0i64..5, 0i64..5), 2..16),
            90i64..800,
            0i64..90,
            dfm_check::vec((-4i64..4, -4i64..4, 0u8..4, dfm_check::bools()), 1..4),
            0u8..4,
        ),
        |case| {
            let (specs, tile, halo) = (&case.0, case.1, case.2);
            let region = Region::from_rects(specs.iter().map(|&(x, y, w, h)| {
                Rect::new(x * 60, y * 60, x * 60 + 40 + w * 55, y * 60 + 40 + h * 55)
            }));
            let defects = DefectModel::new(50, 1.0);
            let max_range = 10 * defects.x0;
            let reference = critical_area::analyze(&region, &defects);
            let mut flat = FlatLayout::default();
            flat.set_region(layers::METAL1, region.clone());
            let lib = placed_soup(&region, &case.3, case.4);
            let placed = lib.flatten_top().expect("placements flatten");
            let placed_reference = critical_area::analyze(&placed.region(layers::METAL1), &defects);
            for t in [tile, tile + 31] {
                let shard_cfg = TilingConfig::builder()
                    .tile(t)
                    .halo(halo)
                    .build()
                    .expect("valid tiling");
                let inputs = [
                    (
                        "soup",
                        TiledLayout::from_flat(flat.clone(), shard_cfg.clone()),
                        &reference,
                    ),
                    (
                        "placed",
                        TiledLayout::from_library(lib.clone(), shard_cfg).expect("tiles"),
                        &placed_reference,
                    ),
                ];
                for (input, tiled, reference) in inputs {
                    let ca = critical_area::merge_ca_partials(
                        (0..tiled.tile_count()).map(|i| {
                            critical_area::ca_tile_partial(&tiled, layers::METAL1, max_range, i)
                        }),
                        &defects,
                    );
                    prop_assert_eq!(&ca, reference, "{}: tile {} halo {}", input, t, halo);
                    prop_assert!(
                        ca.short_ca_nm2.to_bits() == reference.short_ca_nm2.to_bits()
                            && ca.open_ca_nm2.to_bits() == reference.open_ca_nm2.to_bits(),
                        "{}: CA sums must match to the bit",
                        input
                    );
                }
            }
            Ok(())
        },
    );
}
