//! Property test: the per-tile critical-area halves the signoff service
//! runs (`ca_tile_partial` + `merge_ca_partials`, here in a plain loop
//! over tiles) are bit-identical to the flat analysis — same pairs,
//! same order, same f64 bits — on random layouts and tile sizes.

use dfm_check::{check, prop_assert, prop_assert_eq, Config};
use dfm_geom::{Rect, Region};
use dfm_layout::{layers, FlatLayout, TiledLayout, TilingConfig};
use dfm_yield::{critical_area, DefectModel};

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
            for t in [tile, tile + 31] {
                let shard_cfg = TilingConfig::builder()
                    .tile(t)
                    .halo(halo)
                    .build()
                    .expect("valid tiling");
                let tiled = TiledLayout::from_flat(flat.clone(), shard_cfg);
                let ca = critical_area::merge_ca_partials(
                    (0..tiled.tile_count()).map(|i| {
                        critical_area::ca_tile_partial(&tiled, layers::METAL1, max_range, i)
                    }),
                    &defects,
                );
                prop_assert_eq!(&ca, &reference, "tile {} halo {}", t, halo);
                prop_assert!(
                    ca.short_ca_nm2.to_bits() == reference.short_ca_nm2.to_bits()
                        && ca.open_ca_nm2.to_bits() == reference.open_ca_nm2.to_bits(),
                    "CA sums must match to the bit"
                );
            }
            Ok(())
        },
    );
}
