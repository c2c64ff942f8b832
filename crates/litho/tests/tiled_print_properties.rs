//! Property test: the per-tile print halves the signoff service runs
//! (`printed_tile_piece` + `merge_printed_pieces`, here in a plain loop
//! over tiles) reproduce the flat printed geometry bit-for-bit on
//! random masks and random (divisor and non-divisor) tile sizes. This
//! is the litho face of the tiled-engine equivalence contract — the
//! lattice-aligned simulation windows make every window extraction a
//! pure function of the nearby mask point set.

use dfm_check::{check, prop_assert_eq, Config};
use dfm_geom::{Rect, Region};
use dfm_layout::{layers, FlatLayout, TiledLayout, TilingConfig};
use dfm_litho::{merge_printed_pieces, Condition, LithoSimulator};

#[test]
fn tile_pieces_match_flat_on_random_masks() {
    let sim = LithoSimulator::for_feature_size(90);
    // Simulation is the expensive part: fewer cases, denser assertions.
    let cfg = Config::with_cases(10);
    check(
        "tile_pieces_match_flat_on_random_masks",
        &cfg,
        &(
            dfm_check::vec((0i64..10, 0i64..10, 1i64..4, 1i64..4), 2..8),
            300i64..1100,
        ),
        |case| {
            let (specs, tile) = (&case.0, case.1);
            let mask = Region::from_rects(specs.iter().map(|&(x, y, w, h)| {
                Rect::new(x * 170, y * 170, x * 170 + w * 90, y * 170 + h * 90)
            }));
            let cond = Condition::nominal();
            let reference = sim.printed(&mask, cond);
            let mut flat = FlatLayout::default();
            flat.set_region(layers::METAL1, mask.clone());
            for t in [tile, tile + 37] {
                let shard_cfg = TilingConfig::builder()
                    .tile(t)
                    .halo(0)
                    .build()
                    .expect("valid tiling");
                let tiled = TiledLayout::from_flat(flat.clone(), shard_cfg);
                let printed = merge_printed_pieces(
                    (0..tiled.tile_count())
                        .map(|i| sim.printed_tile_piece(&tiled, layers::METAL1, cond, i)),
                );
                prop_assert_eq!(
                    printed.rects(),
                    reference.rects(),
                    "tile {} diverged from flat print",
                    t
                );
            }
            Ok(())
        },
    );
}
