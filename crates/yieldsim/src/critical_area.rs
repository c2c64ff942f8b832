//! Critical-area extraction and the closed-form average critical area.

use crate::DefectModel;
use dfm_drc::{
    facing_pairs, merge_facing_pair_partials, FacingPair, PairFragment, PreparedView, Sweep,
};
use dfm_geom::Region;
use dfm_layout::{Layer, TiledLayout};

/// The result of a critical-area analysis of one layer.
#[derive(Clone, Debug, PartialEq)]
pub struct CaResult {
    /// Average critical area for shorts (defects bridging a spacing), nm².
    pub short_ca_nm2: f64,
    /// Average critical area for opens (defects severing a width), nm².
    pub open_ca_nm2: f64,
    /// The facing spacing pairs that contributed (distance, length).
    pub short_pairs: Vec<FacingPair>,
    /// The facing width pairs that contributed.
    pub open_pairs: Vec<FacingPair>,
}

impl CaResult {
    /// Combined average critical area, nm².
    pub fn total_ca_nm2(&self) -> f64 {
        self.short_ca_nm2 + self.open_ca_nm2
    }
}

/// Closed-form average critical area of one facing pair under the
/// `2·x₀²/x³` size distribution:
///
/// * distance `s ≥ x₀`:  `L · x₀² / s`
/// * distance `s < x₀`:  `L · (2·x₀ − s)`
pub fn pair_average_ca(distance: i64, length: i64, x0: i64) -> f64 {
    let (s, l, x0f) = (distance as f64, length as f64, x0 as f64);
    if distance >= x0 {
        l * x0f * x0f / s
    } else {
        l * (2.0 * x0f - s)
    }
}

/// Analyses a layer with the default extraction range of `10·x₀`
/// (pairs farther apart contribute under 1% each and are truncated).
pub fn analyze(region: &Region, defects: &DefectModel) -> CaResult {
    analyze_with_range(region, defects, 10 * defects.x0)
}

/// Analyses a layer considering facing pairs up to `max_range` apart.
pub fn analyze_with_range(region: &Region, defects: &DefectModel, max_range: i64) -> CaResult {
    let (short_pairs, open_pairs) = facing_pairs(region, max_range);
    from_pairs(short_pairs, open_pairs, defects)
}

/// One tile's mergeable critical-area partial: the core-owned facing
/// fragment strips of both senses (exterior gaps for shorts, interior
/// runs for opens), plus the tile's canonical rect count.
#[derive(Clone, Debug, PartialEq)]
pub struct CaTilePartial {
    /// Owned exterior (spacing) fragment strips — the short candidates.
    pub short: Vec<PairFragment>,
    /// Owned interior (width) fragment strips — the open candidates.
    pub open: Vec<PairFragment>,
    /// Canonical rect count of the materialised tile view.
    pub rects: usize,
}

/// Computes one tile's [`CaTilePartial`] — a pure function of
/// `(layout, layer, max_range, tile index)` a job scheduler can run as
/// an independent task and persist across restarts. Merging every
/// tile's partial in tile order with [`merge_ca_partials`] reproduces
/// [`analyze_with_range`] on the flat layer bit-for-bit. The one-shot
/// form of [`ca_view_partial`]: it materialises CA's own view.
pub fn ca_tile_partial(
    layout: &TiledLayout,
    layer: Layer,
    max_range: i64,
    tile: usize,
) -> CaTilePartial {
    let view = layout.view_layers(tile, ca_tile_halo(max_range), &[layer]);
    ca_view_partial(
        &PreparedView::new(view, &ca_sweeps(layer, max_range)),
        layer,
        max_range,
    )
}

/// The tile halo CA reads at: the facing-pair window `max_range + 2`.
pub fn ca_tile_halo(max_range: i64) -> i64 {
    max_range + 2
}

/// The two sweeps [`ca_view_partial`] reads: exterior gaps (shorts) and
/// interior runs (opens) of `layer`, both closer than `max_range`.
pub fn ca_sweeps(layer: Layer, max_range: i64) -> [Sweep; 2] {
    [
        Sweep {
            layer,
            interior: false,
            value: max_range,
        },
        Sweep {
            layer,
            interior: true,
            value: max_range,
        },
    ]
}

/// The kernel of [`ca_tile_partial`]: the tile's CA partial read off a
/// view materialised at [`ca_tile_halo`] (floored by the tiling's halo)
/// and prepared with [`ca_sweeps`] — possibly shared with DRC rules of
/// the same window, whose smaller width and spacing sweeps this one
/// serves.
pub fn ca_view_partial(prep: &PreparedView, layer: Layer, max_range: i64) -> CaTilePartial {
    CaTilePartial {
        short: prep.fragments(layer, false, max_range),
        open: prep.fragments(layer, true, max_range),
        rects: prep.rect_count_of(&[layer]),
    }
}

/// Merges per-tile partials (given in tile order) into the exact flat
/// [`CaResult`]: fragments re-coalesce into the canonical flat pair
/// order, so the f64 accumulation — and therefore every CA figure's
/// bits — match [`analyze_with_range`].
pub fn merge_ca_partials(
    partials: impl IntoIterator<Item = CaTilePartial>,
    defects: &DefectModel,
) -> CaResult {
    let mut short = Vec::new();
    let mut open = Vec::new();
    for p in partials {
        short.push(p.short);
        open.push(p.open);
    }
    from_pairs(
        merge_facing_pair_partials(short),
        merge_facing_pair_partials(open),
        defects,
    )
}

/// Sums the closed-form contributions. Both extraction paths hand this
/// the pairs in the same canonical (coalesced-fragment) order, so the
/// f64 accumulation order — and therefore the sum's bits — match.
///
/// The sums fold from `+0.0`: `Iterator::sum::<f64>` of nothing is
/// `-0.0` on current toolchains (and `+0.0` on older ones), which would
/// make a pair-free layer's report bytes depend on the compiler.
fn from_pairs(
    short_pairs: Vec<FacingPair>,
    open_pairs: Vec<FacingPair>,
    defects: &DefectModel,
) -> CaResult {
    let total = |pairs: &[FacingPair]| {
        pairs
            .iter()
            .map(|p| pair_average_ca(p.distance, p.length, defects.x0))
            .fold(0.0, |acc, ca| acc + ca)
    };
    CaResult {
        short_ca_nm2: total(&short_pairs),
        open_ca_nm2: total(&open_pairs),
        short_pairs,
        open_pairs,
    }
}

/// Critical area for a *specific* defect diameter `x` (not averaged):
/// `Σ L · max(0, x − distance)` over the given pairs. Used by the
/// Monte-Carlo validation.
pub fn ca_at_diameter(pairs: &[FacingPair], x: i64) -> f64 {
    pairs
        .iter()
        .map(|p| (p.length * (x - p.distance).max(0)) as f64)
        .fold(0.0, |acc, ca| acc + ca)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_geom::Rect;

    fn two_wires(spacing: i64, width: i64, len: i64) -> Region {
        Region::from_rects([
            Rect::new(0, 0, len, width),
            Rect::new(0, width + spacing, len, 2 * width + spacing),
        ])
    }

    #[test]
    fn closed_form_matches_hand_calculation() {
        // Two 100k-long wires, 100 apart, x0=50:
        // short CA = L · x0²/s = 1e5 · 2500/100 = 2.5e6.
        let region = two_wires(100, 200, 100_000);
        let defects = DefectModel::new(50, 1.0);
        let ca = analyze(&region, &defects);
        assert!(
            (ca.short_ca_nm2 - 2.5e6).abs() < 1e-6,
            "short CA {}",
            ca.short_ca_nm2
        );
        // Open CA: two widths of 200: 2 · 1e5 · 2500/200 = 2.5e6.
        assert!(
            (ca.open_ca_nm2 - 2.5e6).abs() < 1e-6,
            "open CA {}",
            ca.open_ca_nm2
        );
    }

    #[test]
    fn closer_wires_have_more_short_ca() {
        let defects = DefectModel::new(50, 1.0);
        let close = analyze(&two_wires(100, 200, 100_000), &defects);
        let far = analyze(&two_wires(400, 200, 100_000), &defects);
        assert!(close.short_ca_nm2 > far.short_ca_nm2);
        // Open CA identical (same widths).
        assert!((close.open_ca_nm2 - far.open_ca_nm2).abs() < 1e-9);
    }

    #[test]
    fn wider_wires_have_less_open_ca() {
        let defects = DefectModel::new(50, 1.0);
        let narrow = analyze(&two_wires(200, 100, 100_000), &defects);
        let wide = analyze(&two_wires(200, 300, 100_000), &defects);
        assert!(wide.open_ca_nm2 < narrow.open_ca_nm2);
    }

    #[test]
    fn sub_x0_distance_uses_linear_form() {
        // s < x0: contribution L(2·x0 − s).
        assert_eq!(pair_average_ca(30, 1000, 50), 1000.0 * 70.0);
        // Continuity at s = x0: both forms give L·x0.
        assert_eq!(pair_average_ca(50, 1000, 50), 1000.0 * 50.0);
    }

    #[test]
    fn ca_at_diameter_is_piecewise_linear() {
        let region = two_wires(100, 200, 100_000);
        let defects = DefectModel::new(50, 1.0);
        let ca = analyze(&region, &defects);
        assert_eq!(ca_at_diameter(&ca.short_pairs, 100), 0.0);
        assert_eq!(ca_at_diameter(&ca.short_pairs, 150), 100_000.0 * 50.0);
    }

    #[test]
    fn empty_region_zero_ca() {
        let defects = DefectModel::new(50, 1.0);
        let ca = analyze(&Region::new(), &defects);
        assert!(ca.short_pairs.is_empty());
        // Positive zero, bit for bit: the report prints the bits.
        assert_eq!(ca.short_ca_nm2.to_bits(), 0);
        assert_eq!(ca.open_ca_nm2.to_bits(), 0);
        assert_eq!(merge_ca_partials([], &defects).short_ca_nm2.to_bits(), 0);
        assert_eq!(ca_at_diameter(&[], 100).to_bits(), 0);
    }

    #[test]
    fn isolated_wire_has_open_ca_only() {
        let region = Region::from_rect(Rect::new(0, 0, 100_000, 100));
        let defects = DefectModel::new(50, 1.0);
        let ca = analyze(&region, &defects);
        assert_eq!(ca.short_ca_nm2, 0.0);
        assert!(ca.open_ca_nm2 > 0.0);
    }

    #[test]
    fn tiled_analysis_is_bit_identical_to_flat() {
        let region = Region::from_rects([
            Rect::new(0, 0, 900, 100),
            Rect::new(0, 250, 900, 350),
            Rect::new(400, 500, 520, 900),
            Rect::new(700, 500, 820, 900),
        ]);
        let mut flat_layout = dfm_layout::FlatLayout::default();
        flat_layout.set_region(dfm_layout::layers::METAL1, region.clone());
        let defects = DefectModel::new(50, 1.0);
        let max_range = 10 * defects.x0;
        let reference = analyze(&region, &defects);
        for tile in [300, 177] {
            let cfg = dfm_layout::TilingConfig::builder()
                .tile(tile)
                .halo(8)
                .build()
                .expect("config");
            let tiled = TiledLayout::from_flat(flat_layout.clone(), cfg);
            let ca = merge_ca_partials(
                (0..tiled.tile_count())
                    .map(|i| ca_tile_partial(&tiled, dfm_layout::layers::METAL1, max_range, i)),
                &defects,
            );
            assert_eq!(ca, reference, "tile {tile}");
            assert!(ca.short_ca_nm2 > 0.0 && ca.open_ca_nm2 > 0.0);
        }
    }

    #[test]
    fn per_tile_partials_merge_to_flat_result() {
        // The scheduler-facing path: compute each tile's partial
        // independently (any order), merge in tile order, and land on
        // the exact flat analysis.
        let region = two_wires(120, 200, 2_000);
        let mut flat_layout = dfm_layout::FlatLayout::default();
        flat_layout.set_region(dfm_layout::layers::METAL1, region.clone());
        let defects = DefectModel::new(50, 1.0);
        let max_range = 10 * defects.x0;
        let reference = analyze_with_range(&region, &defects, max_range);
        let cfg = dfm_layout::TilingConfig::builder()
            .tile(700)
            .halo(8)
            .build()
            .expect("config");
        let tiled = TiledLayout::from_flat(flat_layout, cfg);
        // Deliberately compute partials in reverse tile order, then
        // merge in tile order.
        let mut partials: Vec<CaTilePartial> = (0..tiled.tile_count())
            .rev()
            .map(|i| ca_tile_partial(&tiled, dfm_layout::layers::METAL1, max_range, i))
            .collect();
        partials.reverse();
        let merged = merge_ca_partials(partials, &defects);
        assert_eq!(merged, reference);
    }
}
