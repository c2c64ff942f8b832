//! The lithography simulator: rasterise → blur → threshold → extract.

use crate::{Condition, OpticalModel, Raster};
use dfm_geom::{Coord, Rect, Region, TileGrid};
use dfm_layout::{Layer, TileView, TiledLayout};

/// End-to-end aerial-image simulator with a constant-threshold resist.
///
/// The resist prints wherever `dose · intensity ≥ threshold`. With the
/// default threshold of 0.5 and nominal dose, long straight edges print
/// exactly on the drawn edge (a blurred step function crosses ½ at the
/// step), so all proximity effects appear as *deviations* from drawn —
/// which is the quantity OPC corrects.
#[derive(Clone, Debug, PartialEq)]
pub struct LithoSimulator {
    /// Optics (PSF) model.
    pub optics: OpticalModel,
    /// Constant resist threshold (relative to clear-field intensity 1.0).
    pub resist_threshold: f64,
    /// Simulation pixel in nm.
    pub pixel_nm: Coord,
}

impl LithoSimulator {
    /// Creates a simulator from explicit parts.
    pub fn new(optics: OpticalModel, resist_threshold: f64, pixel_nm: Coord) -> Self {
        LithoSimulator {
            optics,
            resist_threshold,
            pixel_nm,
        }
    }

    /// A simulator tuned so that features of `min_feature_nm` are near the
    /// printability cliff — the regime every advanced node lives in. The
    /// PSF σ₀ is set to 0.45·`min_feature_nm` and the pixel to ~σ/4.
    pub fn for_feature_size(min_feature_nm: Coord) -> Self {
        let sigma0 = 0.45 * min_feature_nm as f64;
        // Keep physical λ/NA, adjust blur_k to hit the target σ₀.
        let mut optics = OpticalModel::argon_fluoride_immersion();
        optics.blur_k = sigma0 / (optics.wavelength_nm / optics.na);
        LithoSimulator {
            optics,
            resist_threshold: 0.5,
            pixel_nm: (min_feature_nm / 9).max(2),
        }
    }

    /// The PSF halo: geometry within this distance of a window influences
    /// the image inside it.
    pub fn halo_nm(&self, cond: Condition) -> Coord {
        let sigma = self.optics.sigma_nm(cond.defocus_nm);
        let reach = if self.optics.ring_weight > 0.0 {
            sigma * self.optics.ring_sigma_factor
        } else {
            sigma
        };
        (4.0 * reach).ceil() as Coord + 2 * self.pixel_nm
    }

    /// Simulates the aerial image of `mask` within `window` (geometry in
    /// the halo around the window is included automatically).
    ///
    /// With a ringed optical model ([`OpticalModel::ring_weight`] > 0)
    /// the PSF is a normalised difference of Gaussians: long straight
    /// edges still cross 0.5 exactly on the drawn edge, but side lobes
    /// create genuine pitch-dependent proximity (forbidden pitches).
    pub fn aerial_image(&self, mask: &Region, window: Rect, cond: Condition) -> Raster {
        self.simulate(mask, window.expanded(self.halo_nm(cond)), cond)
    }

    /// Rasterise-and-blur over an exact, pre-expanded simulation window.
    fn simulate(&self, mask: &Region, sim_window: Rect, cond: Condition) -> Raster {
        let mut raster = Raster::rasterize(mask, sim_window, self.pixel_nm);
        let sigma = self.optics.sigma_nm(cond.defocus_nm);
        let w = self.optics.ring_weight;
        if w > 0.0 {
            let mut ring = raster.clone();
            raster.gaussian_blur(sigma);
            ring.gaussian_blur(sigma * self.optics.ring_sigma_factor);
            raster.subtract_scaled(&ring, w);
            raster.rescale(1.0 - w);
        } else {
            raster.gaussian_blur(sigma);
        }
        raster
    }

    /// `window` expanded by the PSF halo and snapped *outward* onto the
    /// global pixel lattice anchored at the layout origin. Every printed
    /// extraction simulates over such a window, so any two windows place
    /// their pixels on the same lattice: a pixel near (or inside) both
    /// windows has its full blur-kernel support inside both rasters and
    /// evaluates to bit-identical intensity in each. That invariant is
    /// what makes windowed printing composable — see
    /// [`printed_in_window`](LithoSimulator::printed_in_window).
    fn lattice_sim_window(&self, window: Rect, cond: Condition) -> Rect {
        let p = self.pixel_nm;
        let w = window.expanded(self.halo_nm(cond));
        Rect::new(
            w.x0.div_euclid(p) * p,
            w.y0.div_euclid(p) * p,
            -((-w.x1).div_euclid(p)) * p,
            -((-w.y1).div_euclid(p)) * p,
        )
    }

    /// The printed geometry inside `window` under `cond`, clipped to the
    /// window.
    ///
    /// The simulation runs on the halo-expanded window snapped outward to
    /// the global pixel lattice, so the result is a pure function of the
    /// mask's covered point set near the window: for any two windows
    /// `W₁`, `W₂` the extractions agree exactly on `W₁ ∩ W₂`, and a
    /// partition of a window reassembles its printed geometry
    /// bit-for-bit. (The halo already clears the blur-kernel support of
    /// every pixel touching the window, so lattice snapping only ever
    /// *adds* margin.)
    pub fn printed_in_window(&self, mask: &Region, window: Rect, cond: Condition) -> Region {
        let raster = self.simulate(mask, self.lattice_sim_window(window, cond), cond);
        // dose · I ≥ th  ⇔  I ≥ th / dose
        let threshold = self.resist_threshold / cond.dose.max(1e-12);
        raster.threshold_region(threshold).clipped(window)
    }

    /// The printed geometry of the whole mask under `cond`, simulated in
    /// tiles so arbitrarily large layouts stay within memory bounds.
    pub fn printed(&self, mask: &Region, cond: Condition) -> Region {
        let bbox = mask.bbox();
        if bbox.is_empty() {
            return Region::new();
        }
        let halo = self.halo_nm(cond);
        let full = bbox.expanded(halo);
        let tile: Coord = (self.pixel_nm * 384).max(2 * halo);
        let grid = TileGrid::new(full, tile);
        let mut pieces: Vec<Rect> = Vec::new();
        for window in (0..grid.len()).map(|i| grid.core(i)) {
            // Skip tiles with no geometry in reach.
            if reaches(mask, window.expanded(halo)) {
                pieces.extend(self.printed_in_window(mask, window, cond).into_rects());
            }
        }
        Region::from_rects(pieces)
    }

    /// One tile's share of the tile-streamed print of `layer`: the
    /// printed rects of the tile's own print window, materialising only
    /// O(tile + halo) geometry. A pure function of `(simulator, layout,
    /// layer, condition, tile index)` — computable in any order, on any
    /// thread or process. Merging every tile's piece in tile order with
    /// [`merge_printed_pieces`] is bit-identical to
    /// [`printed`](LithoSimulator::printed) on the flat layer.
    ///
    /// The print window is the ownership core, extended outward by the
    /// PSF halo on sides that lie on the layout-extent boundary — so the
    /// windows partition the same halo-expanded extent the flat path
    /// prints into, and geometry that prints slightly outside the drawn
    /// extent is not lost. The tile view carries `2·halo + 2·pixel` of
    /// mask margin, which clears the blur-kernel support of every pixel
    /// touching the print window; the lattice-aligned simulation then
    /// guarantees each window reproduces the flat intensities exactly.
    /// The one-shot form of
    /// [`printed_view_piece`](LithoSimulator::printed_view_piece).
    pub fn printed_tile_piece(
        &self,
        layout: &TiledLayout,
        layer: Layer,
        cond: Condition,
        tile: usize,
    ) -> Vec<Rect> {
        let view = layout.view_layers(tile, self.tile_view_halo(cond), &[layer]);
        self.printed_view_piece(&view, layout.bbox(), layer, cond)
    }

    /// The tile halo a printed tile piece reads at: `2·halo + 2·pixel`.
    pub fn tile_view_halo(&self, cond: Condition) -> Coord {
        2 * self.halo_nm(cond) + 2 * self.pixel_nm
    }

    /// The kernel of
    /// [`printed_tile_piece`](LithoSimulator::printed_tile_piece): the
    /// tile's printed piece read off a view materialised at
    /// [`tile_view_halo`](LithoSimulator::tile_view_halo) (floored by
    /// the tiling's halo), which may carry other consumers' layers too.
    /// `extent` is the whole layout's bbox.
    pub fn printed_view_piece(
        &self,
        view: &TileView,
        extent: Rect,
        layer: Layer,
        cond: Condition,
    ) -> Vec<Rect> {
        if extent.is_empty() {
            return Vec::new();
        }
        let halo = self.halo_nm(cond);
        let core = view.core();
        let window = Rect::new(
            if core.x0 == extent.x0 {
                core.x0 - halo
            } else {
                core.x0
            },
            if core.y0 == extent.y0 {
                core.y0 - halo
            } else {
                core.y0
            },
            if core.x1 == extent.x1 {
                core.x1 + halo
            } else {
                core.x1
            },
            if core.y1 == extent.y1 {
                core.y1 + halo
            } else {
                core.y1
            },
        );
        let Some(mask) = view.region_ref(layer) else {
            return Vec::new();
        };
        if !reaches(mask, window.expanded(halo)) {
            return Vec::new();
        }
        self.printed_in_window(mask, window, cond).into_rects()
    }
}

/// True if some rect of `mask` shares area with `window`: the test
/// `!mask.clipped(window).is_empty()`, without building the clip.
fn reaches(mask: &Region, window: Rect) -> bool {
    mask.rects()
        .iter()
        .any(|r| r.intersection(&window).is_some())
}

/// Merges per-tile printed pieces (given in tile order) into the
/// canonical printed region — the merge half of
/// [`LithoSimulator::printed_tile_piece`]. Because the print windows
/// partition the halo-expanded extent, canonicalisation through
/// [`Region::from_rects`] reproduces the flat printed region exactly.
pub fn merge_printed_pieces(pieces: impl IntoIterator<Item = Vec<Rect>>) -> Region {
    Region::from_rects(pieces.into_iter().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_geom::Point;

    fn sim() -> LithoSimulator {
        LithoSimulator::for_feature_size(90)
    }

    #[test]
    fn wide_feature_prints_near_drawn() {
        let sim = sim();
        let mask = Region::from_rect(Rect::new(0, 0, 2000, 400));
        let printed = sim.printed(&mask, Condition::nominal());
        // Area within a few percent of drawn for a feature ≫ σ.
        let ratio = printed.area() as f64 / mask.area() as f64;
        assert!((0.93..1.07).contains(&ratio), "area ratio {ratio}");
        assert!(printed.contains_point(Point::new(1000, 200)));
    }

    #[test]
    fn min_width_line_prints_at_nominal() {
        let sim = sim();
        let mask = Region::from_rect(Rect::new(0, 0, 2000, 90));
        let printed = sim.printed(&mask, Condition::nominal());
        assert!(printed.contains_point(Point::new(1000, 45)));
    }

    #[test]
    fn sub_resolution_line_pinches() {
        let sim = sim();
        // Well below the cliff: a 30 nm line with σ ≈ 40 nm.
        let mask = Region::from_rect(Rect::new(0, 0, 2000, 30));
        let printed = sim.printed(&mask, Condition::nominal());
        assert!(
            printed.area() < mask.area() / 4,
            "expected heavy pinching, got {} of {}",
            printed.area(),
            mask.area()
        );
    }

    #[test]
    fn sub_resolution_gap_bridges() {
        let sim = sim();
        // Two wide pads separated by a 30 nm slot: the slot fills in.
        let mask = Region::from_rects([Rect::new(0, 0, 2000, 400), Rect::new(0, 430, 2000, 830)]);
        let printed = sim.printed(&mask, Condition::nominal());
        assert!(
            printed.contains_point(Point::new(1000, 415)),
            "gap should bridge"
        );
    }

    #[test]
    fn higher_dose_prints_larger() {
        let sim = sim();
        let mask = Region::from_rect(Rect::new(0, 0, 2000, 120));
        let lo = sim.printed(&mask, Condition::with_dose(0.9));
        let nom = sim.printed(&mask, Condition::nominal());
        let hi = sim.printed(&mask, Condition::with_dose(1.1));
        assert!(lo.area() < nom.area());
        assert!(nom.area() < hi.area());
    }

    #[test]
    fn defocus_shrinks_narrow_lines() {
        let sim = sim();
        let mask = Region::from_rect(Rect::new(0, 0, 2000, 100));
        let focused = sim.printed(&mask, Condition::nominal());
        let defocused = sim.printed(&mask, Condition::with_defocus(150.0));
        assert!(defocused.area() < focused.area());
    }

    #[test]
    fn corner_rounding_cuts_outside_corner() {
        let sim = sim();
        // L-shape: the convex corner region prints rounded (missing).
        let mask = Region::from_rects([Rect::new(0, 0, 1000, 200), Rect::new(0, 0, 200, 1000)]);
        let printed = sim.printed(&mask, Condition::nominal());
        // Far interior prints.
        assert!(printed.contains_point(Point::new(500, 100)));
        // The very corner tip of the drawn L's convex outer corner at
        // (1000, 200)-ish erodes: the drawn point just inside that corner.
        let drawn_corner = Point::new(990, 190);
        let interior = Point::new(900, 100);
        assert!(printed.contains_point(interior));
        // Corner pullback: corner point may or may not survive exactly,
        // but printed area must be below drawn area (rounding loses area
        // at two convex corners faster than the concave corner gains).
        assert!(printed.area() < mask.area() + mask.area() / 20);
        let _ = drawn_corner;
    }

    #[test]
    fn tiled_equals_single_window() {
        let sim = LithoSimulator::for_feature_size(90);
        let mask = Region::from_rects([
            Rect::new(0, 0, 1500, 90),
            Rect::new(0, 270, 1500, 360),
            Rect::new(600, -400, 690, 500),
        ]);
        let cond = Condition::nominal();
        let tiled = sim.printed(&mask, cond);
        let window = mask.bbox().expanded(sim.halo_nm(cond));
        let single = sim.printed_in_window(&mask, window, cond);
        // Lattice-aligned simulation makes internal tiling exact: the
        // reassembled geometry is bit-identical, not merely equal-area.
        assert_eq!(tiled.rects(), single.rects());
    }

    #[test]
    fn window_partition_reassembles_exactly() {
        // Split one window into four unequal quadrants: the union of the
        // per-quadrant extractions must equal the whole-window result
        // rect-for-rect (the seam crosses partially-covered pixels).
        let sim = sim();
        let mask = Region::from_rects([
            Rect::new(0, 0, 1200, 95),
            Rect::new(0, 250, 1200, 345),
            Rect::new(500, -300, 595, 600),
        ]);
        let cond = Condition::nominal();
        let window = mask.bbox().expanded(sim.halo_nm(cond));
        let whole = sim.printed_in_window(&mask, window, cond);
        let (sx, sy) = (
            window.x0 + 7 * window.width() / 16,
            window.y0 + window.height() / 3,
        );
        let quads = [
            Rect::new(window.x0, window.y0, sx, sy),
            Rect::new(sx, window.y0, window.x1, sy),
            Rect::new(window.x0, sy, sx, window.y1),
            Rect::new(sx, sy, window.x1, window.y1),
        ];
        let mut pieces = Vec::new();
        for q in quads {
            pieces.extend(sim.printed_in_window(&mask, q, cond).into_rects());
        }
        let reassembled = Region::from_rects(pieces);
        assert_eq!(reassembled.rects(), whole.rects());
    }

    /// The service's per-tile halves in a plain loop over tiles.
    fn print_tiles(sim: &LithoSimulator, layout: &TiledLayout, cond: Condition) -> Region {
        merge_printed_pieces(
            (0..layout.tile_count())
                .map(|i| sim.printed_tile_piece(layout, dfm_layout::layers::METAL1, cond, i)),
        )
    }

    #[test]
    fn tile_pieces_merge_bit_identical_to_flat() {
        let sim = sim();
        let mask = Region::from_rects([
            Rect::new(0, 0, 1500, 90),
            Rect::new(0, 270, 1500, 360),
            Rect::new(600, -400, 690, 500),
            Rect::new(1100, -350, 1460, -80),
        ]);
        let mut flat = dfm_layout::FlatLayout::default();
        flat.set_region(dfm_layout::layers::METAL1, mask.clone());
        for cond in [Condition::nominal(), Condition::with_dose(1.1)] {
            let reference = sim.printed(&mask, cond);
            // Non-divisor tile sizes included: seams cross pixels.
            for tile in [700, 433] {
                let cfg = dfm_layout::TilingConfig::builder()
                    .tile(tile)
                    .halo(0)
                    .build()
                    .expect("config");
                let tiled = TiledLayout::from_flat(flat.clone(), cfg);
                let printed = print_tiles(&sim, &tiled, cond);
                assert_eq!(printed.rects(), reference.rects(), "tile {tile}");
            }
        }
    }

    #[test]
    fn tiled_print_hotspot_set_matches_flat() {
        use crate::hotspots::{classify_deviations, find_hotspots, HotspotParams};
        let sim = sim();
        // A breaking neck and a bridging slot, placed so tile seams at
        // size 600 cut through both deviations.
        let mask = Region::from_rects([
            Rect::new(0, 0, 500, 600),
            Rect::new(500, 280, 1300, 320),
            Rect::new(1300, 0, 1800, 600),
            Rect::new(0, 800, 1800, 1300),
            Rect::new(0, 1335, 1800, 1800),
        ]);
        let cond = Condition::nominal();
        let params = HotspotParams::for_min_width(90);
        let reference = find_hotspots(&sim, &mask, cond, params);
        assert!(!reference.is_empty(), "fixture should produce hotspots");
        let mut flat = dfm_layout::FlatLayout::default();
        flat.set_region(dfm_layout::layers::METAL1, mask.clone());
        for tile in [600, 377] {
            let cfg = dfm_layout::TilingConfig::builder()
                .tile(tile)
                .halo(0)
                .build()
                .expect("config");
            let tiled = TiledLayout::from_flat(flat.clone(), cfg);
            let printed = print_tiles(&sim, &tiled, cond);
            let hotspots = classify_deviations(&mask, &printed, params);
            assert_eq!(hotspots, reference, "tile {tile}");
        }
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;
    use crate::metrics::cd_vertical;
    use dfm_geom::Point;

    fn cd_at_pitch(sim: &LithoSimulator, w: i64, pitch: i64) -> Option<i64> {
        let mask = Region::from_rects((0..7).map(|i| Rect::new(0, i * pitch, 4000, i * pitch + w)));
        let printed = sim.printed(&mask, Condition::nominal());
        cd_vertical(&printed, Point::new(2000, 3 * pitch + w / 2))
    }

    #[test]
    fn ring_model_exhibits_forbidden_pitch() {
        let w = 90i64;
        let mut plain = LithoSimulator::for_feature_size(90);
        plain.pixel_nm = 5;
        let ringed = LithoSimulator {
            optics: plain.optics.with_ring(0.3, 2.0),
            ..plain.clone()
        };
        // Sample densely through the crossover between constructive
        // core coupling (tight pitch) and destructive ring coupling.
        let pitches: Vec<i64> = vec![140, 150, 200, 280, 360, 440, 500];
        let plain_cds: Vec<i64> = pitches
            .iter()
            .map(|&p| cd_at_pitch(&plain, w, p).unwrap_or(0))
            .collect();
        let ring_cds: Vec<i64> = pitches
            .iter()
            .map(|&p| cd_at_pitch(&ringed, w, p).unwrap_or(0))
            .collect();
        // Plain Gaussian: CD varies monotonically (no interior dip).
        let plain_dip = (1..plain_cds.len() - 1)
            .any(|i| plain_cds[i] + 2 < plain_cds[i - 1] && plain_cds[i] + 2 < plain_cds[i + 1]);
        assert!(!plain_dip, "plain model dips: {plain_cds:?}");
        // Ringed: some interior pitch prints measurably worse than both
        // neighbours — the forbidden pitch.
        let ring_dip = (1..ring_cds.len() - 1)
            .any(|i| ring_cds[i] + 2 < ring_cds[i - 1] && ring_cds[i] + 2 < ring_cds[i + 1]);
        assert!(ring_dip, "no forbidden pitch in {ring_cds:?}");
        // Edge calibration survives the ring: an isolated wide feature
        // still prints at size.
        let wide = Region::from_rect(Rect::new(0, 0, 4000, 600));
        let printed = ringed.printed(&wide, Condition::nominal());
        let cd = cd_vertical(&printed, Point::new(2000, 300)).expect("prints");
        assert!((cd - 600).abs() <= 3 * ringed.pixel_nm, "wide CD {cd}");
    }
}
