//! Full-layout OPC: tiled model-based correction of an entire layer.
//!
//! Production OPC runs on whole chips by partitioning into tiles with
//! optical halos; corrections inside a tile only depend on geometry
//! within the halo, so tiles are independent (and, in production,
//! massively parallel — the "farm" cost the panel debated). This module
//! applies [`ModelOpc`] tile by tile and stitches the corrected mask
//! back together.

use crate::ModelOpc;
use dfm_geom::{Coord, Rect, Region, TileGrid};

/// Tiling configuration.
#[derive(Clone, Copy, Debug)]
pub struct TileParams {
    /// Core tile edge length.
    pub tile: Coord,
    /// Extra context beyond the optical halo (fragments near the core
    /// boundary see their true environment).
    pub margin: Coord,
}

impl TileParams {
    /// A reasonable default: 4 µm tiles with one-σ extra margin.
    pub fn for_engine(engine: &ModelOpc) -> Self {
        TileParams {
            tile: 4_000,
            margin: engine.sim.optics.sigma0_nm() as Coord,
        }
    }
}

/// Statistics from a full-layout correction.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayoutOpcStats {
    /// Tiles processed (tiles with no geometry are skipped).
    pub tiles: usize,
    /// Total drawn area before.
    pub area_before: i128,
    /// Total mask area after correction.
    pub area_after: i128,
}

/// Corrects an entire layer tile by tile, returning the corrected mask
/// and the run statistics.
pub fn correct_layout(
    engine: &ModelOpc,
    drawn: &Region,
    params: TileParams,
) -> (Region, LayoutOpcStats) {
    let bbox = drawn.bbox();
    if bbox.is_empty() {
        return (Region::new(), LayoutOpcStats::default());
    }
    let halo = engine.sim.halo_nm(engine.condition) + params.margin;
    let mut stats = LayoutOpcStats {
        tiles: 0,
        area_before: drawn.area(),
        area_after: 0,
    };
    let grid = TileGrid::new(bbox, params.tile);
    let mut pieces: Vec<Rect> = Vec::new();
    for core in (0..grid.len()).map(|i| grid.core(i)) {
        let context = drawn.clipped(core.expanded(halo));
        if !context.is_empty() {
            stats.tiles += 1;
            let corrected = engine.correct(&context).mask;
            // Keep only the core's share of the corrected mask, with
            // a small apron so fragment jogs at the boundary survive;
            // overlaps between neighbouring tiles union out.
            pieces.extend(corrected.clipped(core.expanded(params.margin)).into_rects());
        }
    }
    let mask = Region::from_rects(pieces);
    stats.area_after = mask.area();
    (mask, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_litho::{Condition, LithoSimulator};

    fn engine() -> ModelOpc {
        ModelOpc::new(LithoSimulator::for_feature_size(90))
    }

    fn sample_layer() -> Region {
        // Several wires spread over multiple tiles.
        Region::from_rects([
            Rect::new(0, 0, 9_000, 90),
            Rect::new(0, 270, 9_000, 360),
            Rect::new(0, 2_000, 3_000, 2_090),
            Rect::new(6_000, 2_000, 9_000, 2_090),
            Rect::new(4_000, 4_000, 4_090, 9_000),
        ])
    }

    #[test]
    fn tiled_correction_improves_epe() {
        let eng = engine();
        let drawn = sample_layer();
        let (mask, stats) = correct_layout(
            &eng,
            &drawn,
            TileParams {
                tile: 3_000,
                margin: 40,
            },
        );
        assert!(stats.tiles > 1, "should use several tiles");
        assert!(
            stats.area_after > stats.area_before,
            "correction grows narrow wires"
        );
        let before = eng.verify(&drawn, &drawn);
        let after = eng.verify(&drawn, &mask);
        assert!(
            after.rms < before.rms,
            "EPE rms {} -> {}",
            before.rms,
            after.rms
        );
    }

    #[test]
    fn tiled_matches_untiled_closely() {
        let eng = engine();
        let drawn = Region::from_rects([Rect::new(0, 0, 5_000, 90), Rect::new(0, 270, 5_000, 360)]);
        let (tiled, _) = correct_layout(
            &eng,
            &drawn,
            TileParams {
                tile: 2_000,
                margin: 60,
            },
        );
        let untiled = eng.correct(&drawn).mask;
        // The two masks agree outside a small boundary-effect area.
        let diff = tiled.xor(&untiled).area();
        assert!(
            (diff as f64) < 0.02 * untiled.area() as f64,
            "tiled differs by {diff} of {}",
            untiled.area()
        );
        // And both print with comparable fidelity.
        let t = eng.verify(&drawn, &tiled);
        let u = eng.verify(&drawn, &untiled);
        assert!((t.rms - u.rms).abs() < 2.0, "{} vs {}", t.rms, u.rms);
    }

    #[test]
    fn empty_layer_is_trivial() {
        let eng = engine();
        let (mask, stats) = correct_layout(&eng, &Region::new(), TileParams::for_engine(&eng));
        assert!(mask.is_empty());
        assert_eq!(stats.tiles, 0);
    }

    #[test]
    fn deterministic() {
        let eng = engine();
        let drawn = sample_layer();
        let p = TileParams {
            tile: 3_000,
            margin: 40,
        };
        let (a, _) = correct_layout(&eng, &drawn, p);
        let (b, _) = correct_layout(&eng, &drawn, p);
        assert_eq!(a, b);
    }

    #[test]
    fn condition_is_respected() {
        let mut eng = engine();
        eng.condition = Condition::nominal();
        let drawn = Region::from_rect(Rect::new(0, 0, 4_000, 90));
        let (mask, _) = correct_layout(&eng, &drawn, TileParams::for_engine(&eng));
        assert!(!mask.is_empty());
    }
}
