//! Tile-sharded layout store: spatial partitioning with halos.
//!
//! [`TiledLayout`] shards a hierarchical [`Library`] into fixed-size
//! square tiles (see [`TileGrid`]) and materialises one [`TileView`] at
//! a time, so interaction-limited engines can stream over a full-chip
//! design while holding only O(tile + halo) geometry in memory. Each
//! view is collected *directly from the hierarchy* (transform-pruned by
//! memoized cell bounding boxes) and normalised with
//! [`Region::from_rects`]; a full-chip flat region is never built. An
//! already-flat layout is tiled as its one-cell library, so every view
//! is streamed and normalised the same way
//! (`tests::flat_and_hier_views_carry_identical_point_sets`).
//!
//! A window visits only the shapes and instances that reach it. The
//! tiling holds one [`dfm_geom::GridIndex`] per cell and drawn layer of
//! 32 shapes or more over the shapes' local bboxes, its grid cell the
//! tile side (or coarser, when the shapes lie far apart: an index's
//! buckets are bounded by its entries); the walk maps the window into
//! each cell's frame and visits what the index returns, in no order,
//! since a view is normalised. An array reference is entered only at the column and row
//! ranges whose placements overlap the window: a Manhattan transform
//! maps the lattice axes to ±x and ±y, so each range is an integer
//! division per axis.
//!
//! Each view carries, per layer, a region whose point set is exactly
//! `layer ∩ window`. Engines that only depend on the covered point set
//! (all of ours, by construction) therefore merge to results
//! bit-identical to the flat path: the engines' tiled suites
//! (`dfm-drc`'s `tests/tiled_equivalence.rs`, `dfm-yieldsim`'s
//! `tests/tiled_ca_properties.rs`, `dfm-litho`'s
//! `tests/tiled_print_properties.rs`) compare every merged result with
//! the flat engine's.

use crate::library::{collect_used_layers, compute_subtree_bboxes, ShapeIndex, Visits, WindowWalk};
use crate::{CellId, FlatLayout, Layer, LayoutError, Library};
use dfm_geom::{Coord, Rect, Region, TileGrid, Transform};
use std::collections::BTreeMap;

/// Configuration of a tile shard: square tile side and halo margin.
///
/// Built via [`TilingConfig::builder`]; validation happens in
/// [`TilingConfigBuilder::build`].
///
/// ```
/// use dfm_layout::TilingConfig;
/// let cfg = TilingConfig::builder().tile(4096).halo(600).build()?;
/// assert_eq!(cfg.halo(), 600);
/// # Ok::<(), dfm_layout::LayoutError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TilingConfig {
    tile: Coord,
    halo: Coord,
}

impl TilingConfig {
    /// Starts a builder with the defaults (8192 × 8192 tiles, 512 halo).
    pub fn builder() -> TilingConfigBuilder {
        TilingConfigBuilder::default()
    }

    /// Baseline halo margin in dbu. Engines may request larger halos
    /// per rule; this is the floor carried by the config.
    pub fn halo(&self) -> Coord {
        self.halo
    }
}

impl Default for TilingConfig {
    fn default() -> Self {
        TilingConfig {
            tile: 8192,
            halo: 512,
        }
    }
}

/// Builder for [`TilingConfig`].
#[derive(Clone, Debug, Default)]
pub struct TilingConfigBuilder {
    cfg: TilingConfig,
}

impl TilingConfigBuilder {
    /// Sets the tile side in dbu.
    pub fn tile(mut self, side: Coord) -> Self {
        self.cfg.tile = side;
        self
    }

    /// Sets the baseline halo margin in dbu.
    pub fn halo(mut self, halo: Coord) -> Self {
        self.cfg.halo = halo;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// [`LayoutError::InvalidTiling`] on a non-positive tile side or a
    /// negative halo.
    pub fn build(self) -> Result<TilingConfig, LayoutError> {
        let c = &self.cfg;
        if c.tile <= 0 {
            return Err(LayoutError::InvalidTiling(format!(
                "tile size {} must be positive",
                c.tile
            )));
        }
        if c.halo < 0 {
            return Err(LayoutError::InvalidTiling(format!(
                "halo {} must be non-negative",
                c.halo
            )));
        }
        Ok(self.cfg)
    }
}

/// One materialised tile: per-layer geometry of `layer ∩ window`.
///
/// The *core* is the tile's half-open ownership rectangle (cores
/// partition the layout extent); the *window* is the core expanded by
/// the halo the engine asked for. Result ownership rules ("a violation
/// belongs to the tile whose core contains its canonical anchor point")
/// are what make the per-tile results merge without seam duplicates.
#[derive(Clone, Debug)]
pub struct TileView {
    index: usize,
    core: Rect,
    window: Rect,
    layers: BTreeMap<Layer, Region>,
}

impl TileView {
    /// Row-major tile index in the owning grid.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The tile's half-open ownership rectangle.
    pub fn core(&self) -> Rect {
        self.core
    }

    /// The clip window (`core` expanded by the requested halo).
    pub fn window(&self) -> Rect {
        self.window
    }

    /// Borrows a layer's `layer ∩ window` geometry, if the view carries
    /// the layer.
    pub fn region_ref(&self, layer: Layer) -> Option<&Region> {
        self.layers.get(&layer)
    }

    /// FNV-1a 64 digest of the view's canonical content: core, window,
    /// and every carried layer's canonical rect decomposition (sorted
    /// layer order). Two views digest equal iff they clip the same
    /// core/window to the same per-layer point sets — the property a
    /// content-addressed result cache keys on. The tile *index* is
    /// deliberately excluded: position is already pinned by the core
    /// coordinates, so an identical tile at the same place in an
    /// edited layout keeps its digest.
    pub fn content_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for r in [self.core, self.window] {
            h = fnv_rect(h, r);
        }
        for (layer, region) in &self.layers {
            h = fnv_u64(h, 0x004c_4159_4552_u64); // "LAYER" marker
            h = fnv_u64(h, layer.layer as u64);
            h = fnv_u64(h, layer.datatype as u64);
            let rects = region.rects();
            h = fnv_u64(h, rects.len() as u64);
            for &r in rects {
                h = fnv_rect(h, r);
            }
        }
        h
    }
}

/// A spatially sharded layout: a [`TileGrid`] over the layout extent
/// plus the library its [`TileView`]s are streamed from on demand.
pub struct TiledLayout {
    config: TilingConfig,
    grid: TileGrid,
    layers: Vec<Layer>,
    lib: Library,
    top: CellId,
    /// Local-frame bbox of every cell's full subtree, indexed by
    /// `CellId`; used to prune the hierarchy walk per window.
    subtree_bboxes: Vec<Rect>,
    /// Every cell's shapes, indexed per layer over their local bboxes
    /// with a grid of the tile side; a window visits only the shapes
    /// the index returns for it.
    shape_index: ShapeIndex,
}

impl TiledLayout {
    /// Shards an already-flattened layout as its one-cell library
    /// ([`FlatLayout::to_library`]). The extent is the geometry's bbox,
    /// and a layer whose region is empty drops out, as on a GDS round
    /// trip.
    pub fn from_flat(flat: FlatLayout, config: TilingConfig) -> TiledLayout {
        TiledLayout::from_library(flat.to_library("FLAT", "TOP"), config)
            .expect("a one-cell library validates and has a top cell")
    }

    /// Shards a hierarchical library at its top cell **without
    /// flattening it**: tile views are collected straight from the
    /// hierarchy.
    ///
    /// # Errors
    ///
    /// [`LayoutError::NoTopCell`] when no top cell is set or inferable,
    /// plus any [`Library::validate`] failure.
    pub fn from_library(lib: Library, config: TilingConfig) -> Result<TiledLayout, LayoutError> {
        lib.validate()?;
        let top = lib.top().ok_or(LayoutError::NoTopCell)?;
        let subtree_bboxes = compute_subtree_bboxes(&lib);
        let layers = collect_used_layers(&lib, top);
        let grid = TileGrid::new(subtree_bboxes[top.index()], config.tile);
        let shape_index = ShapeIndex::new(&lib, config.tile);
        Ok(TiledLayout {
            config,
            grid,
            layers,
            lib,
            top,
            subtree_bboxes,
            shape_index,
        })
    }

    /// The shard configuration.
    pub fn config(&self) -> &TilingConfig {
        &self.config
    }

    /// The tile grid over the layout extent.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Bounding box of the layout (the grid extent).
    pub fn bbox(&self) -> Rect {
        self.grid.extent()
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.grid.len()
    }

    /// Layers drawn anywhere in the layout.
    pub fn used_layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Materialises the view of tile `i` with the given halo, carrying
    /// every used layer. The effective halo is
    /// `max(halo, config.halo())`.
    pub fn view(&self, i: usize, halo: Coord) -> TileView {
        self.view_layers(i, halo, &self.layers)
    }

    /// Materialises the view of tile `i` restricted to `layers`
    /// (layers the layout does not use are skipped).
    pub fn view_layers(&self, i: usize, halo: Coord, layers: &[Layer]) -> TileView {
        let core = self.grid.core(i);
        let window = self.grid.window(i, halo.max(self.config.halo));
        let layers: Vec<Layer> = layers
            .iter()
            .copied()
            .filter(|l| self.layers.contains(l))
            .collect();
        let (rects, _) = self.walk_window(window, &layers);
        let out: BTreeMap<Layer, Region> = layers
            .into_iter()
            .zip(rects.into_iter().map(Region::from_rects))
            .collect();
        TileView {
            index: i,
            core,
            window,
            layers: out,
        }
    }

    /// The rects of each of `layers` clipped to `window`, one list per
    /// layer in no particular order, and the work the walk did to find
    /// them.
    pub(crate) fn walk_window(&self, window: Rect, layers: &[Layer]) -> (Vec<Vec<Rect>>, Visits) {
        let mut rects = vec![Vec::new(); layers.len()];
        let visits = WindowWalk {
            lib: &self.lib,
            subtree_bboxes: &self.subtree_bboxes,
            shape_index: Some(&self.shape_index),
            layers,
            window,
        }
        .collect(self.top, &Transform::identity(), &mut rects);
        (rects, visits)
    }

    /// Canonical content digest of tile `i` at the given halo —
    /// [`TileView::content_digest`] of the view carrying every used
    /// layer. A cache keyed on this digest (plus whatever
    /// digests of its *other* inputs the caller adds) is sound for any
    /// computation that reads at most this halo: an edit anywhere
    /// outside the window leaves the digest unchanged, an edit inside
    /// it changes the rect decomposition and therefore the digest.
    pub fn tile_content_digest(&self, i: usize, halo: Coord) -> u64 {
        self.view(i, halo).content_digest()
    }

    /// Total drawn area across all layers, accumulated tile-by-tile
    /// over the (disjoint) cores. Because cores partition the extent
    /// exactly, this equals [`FlatLayout::total_area`] of the flattened
    /// layout.
    pub fn total_area(&self) -> i128 {
        let mut sum = 0i128;
        for i in 0..self.tile_count() {
            let v = self.view(i, 0);
            for &l in &self.layers {
                if let Some(r) = v.region_ref(l) {
                    sum += r.clipped(v.core()).area();
                }
            }
        }
        sum
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn fnv_rect(mut h: u64, r: Rect) -> u64 {
    for c in [r.x0, r.y0, r.x1, r.y1] {
        h = fnv_u64(h, c as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{routed_block, RoutedBlockParams};
    use crate::{layers, ArrayParams, Cell, CellRef, Technology};
    use dfm_check::{check, prop_assert, prop_assert_eq, Config};
    use dfm_geom::{Point, Rotation, Vector};

    fn sample_library() -> Library {
        let mut lib = Library::new("L");
        let mut leaf = Cell::new("LEAF");
        leaf.add_rect(layers::METAL1, Rect::new(0, 0, 60, 60));
        leaf.add_rect(layers::METAL2, Rect::new(10, 10, 50, 50));
        lib.add_cell(leaf).expect("leaf");
        let mut top = Cell::new("TOP");
        for k in 0..8 {
            top.add_ref(CellRef::new(
                "LEAF",
                Transform::translate(Vector::new(k * 100, (k % 3) * 90)),
            ));
        }
        top.add_rect(layers::METAL1, Rect::new(-40, -40, 900, -20));
        let id = lib.add_cell(top).expect("top");
        lib.set_top(id).expect("top id");
        lib
    }

    /// The 12 µm routed block, seed 12: one cell of about a thousand
    /// wire rects, where a tile's rects come from many overlapping
    /// shapes.
    fn routed_library() -> Library {
        let params = RoutedBlockParams {
            width: 12_000,
            height: 12_000,
            ..Default::default()
        };
        routed_block(&Technology::n65(), params, 12)
    }

    #[test]
    fn builder_validates() {
        assert!(TilingConfig::builder().tile(0).build().is_err());
        assert!(TilingConfig::builder().halo(-1).build().is_err());
        let cfg = TilingConfig::builder()
            .tile(100)
            .halo(7)
            .build()
            .expect("valid");
        assert_eq!(cfg.halo(), 7);
    }

    /// Rects on a coarse lattice on METAL1 and METAL2, so neighbours
    /// touch and overlap and every layer merges into multi-rect shapes.
    fn soup_cell(name: &str, specs: &[(i64, i64, i64, i64)]) -> Cell {
        let mut cell = Cell::new(name);
        for (k, &(x, y, w, h)) in specs.iter().enumerate() {
            let layer = if k % 3 == 2 {
                layers::METAL2
            } else {
                layers::METAL1
            };
            let (x0, y0) = (x * 50, y * 50);
            cell.add_rect(layer, Rect::new(x0, y0, x0 + 30 + w * 45, y0 + 30 + h * 45));
        }
        cell
    }

    /// A soup leaf placed by SREFs (any rotation, mirrored or not) and an
    /// optional AREF under a top cell that holds a soup of its own. Every
    /// other SREF and the AREF place it through `MID`, which holds it
    /// rotated and mirrored, so placements compose two levels deep. With
    /// no placement the library is a plain rect soup.
    fn soup_library(
        top_specs: &[(i64, i64, i64, i64)],
        leaf_specs: &[(i64, i64, i64, i64)],
        srefs: &[(i64, i64, u8, bool)],
        aref: (u16, u16, u8),
    ) -> Library {
        let mut lib = Library::new("SOUP");
        lib.add_cell(soup_cell("LEAF", leaf_specs)).expect("leaf");
        let mut mid = Cell::new("MID");
        mid.add_ref(CellRef::new(
            "LEAF",
            Transform::new(Vector::new(130, -90), Rotation::from_quarter_turns(1), true),
        ));
        lib.add_cell(mid).expect("mid");
        let mut top = soup_cell("TOP", top_specs);
        for (k, &(x, y, quarter_turns, mirror)) in srefs.iter().enumerate() {
            let t = Transform::new(
                Vector::new(x * 70, y * 70),
                Rotation::from_quarter_turns(quarter_turns),
                mirror,
            );
            top.add_ref(CellRef::new(if k % 2 == 1 { "MID" } else { "LEAF" }, t));
        }
        let (cols, rows, quarter_turns) = aref;
        if cols > 0 && rows > 0 {
            top.add_ref(CellRef::array(
                "MID",
                Transform::new(
                    Vector::new(-400, 300),
                    Rotation::from_quarter_turns(quarter_turns),
                    quarter_turns % 2 == 1,
                ),
                ArrayParams {
                    cols,
                    rows,
                    col_pitch: 560,
                    row_pitch: 490,
                },
            ));
        }
        let id = lib.add_cell(top).expect("top");
        lib.set_top(id).expect("top id");
        lib
    }

    /// Expands the top cell of `lib` by brute force: every instance of
    /// every reference, no pruning, no clipping, each shape moved through
    /// its placement chain innermost first, one [`Region::from_rects`]
    /// per layer at the end. It shares no code with the window walker,
    /// so it checks the flattening the tilings are compared against.
    fn brute_force_expand(lib: &Library) -> BTreeMap<Layer, Region> {
        fn walk(
            lib: &Library,
            id: CellId,
            chain: &mut Vec<Transform>,
            acc: &mut BTreeMap<Layer, Vec<Rect>>,
        ) {
            let cell = lib.cell(id);
            for (layer, shape) in cell.iter_shapes() {
                let placed = chain
                    .iter()
                    .rev()
                    .fold(shape.clone(), |s, t| s.transformed(t));
                acc.entry(layer).or_default().extend(placed.to_rects());
            }
            for r in &cell.refs {
                let child = lib.cell_id(&r.cell).expect("reference resolves");
                for inst in r.instance_transforms() {
                    chain.push(inst);
                    walk(lib, child, chain, acc);
                    chain.pop();
                }
            }
        }
        let mut acc = BTreeMap::new();
        let top = lib.top().expect("top");
        walk(lib, top, &mut Vec::new(), &mut acc);
        acc.into_iter()
            .map(|(l, rects)| (l, Region::from_rects(rects)))
            .collect()
    }

    /// Checks `lib`'s flattening against [`brute_force_expand`] point
    /// set by point set, then tiles `lib` both ways, from its flattening
    /// and from the library itself, and compares every view's per-layer
    /// rect lists and every tile digest at `halo`.
    fn check_sources_agree(lib: &Library, cfg: &TilingConfig, halo: Coord) -> Result<(), String> {
        let flat = lib.flatten_top().expect("flatten");
        let brute = brute_force_expand(lib);
        prop_assert_eq!(
            flat.used_layers().collect::<Vec<_>>(),
            brute.keys().copied().collect::<Vec<_>>()
        );
        for (&l, region) in &brute {
            prop_assert!(
                flat.region(l).xor(region).is_empty(),
                "flatten differs from the brute-force expansion on layer {}",
                l
            );
        }
        let from_flat = TiledLayout::from_flat(flat, cfg.clone());
        let from_lib = TiledLayout::from_library(lib.clone(), cfg.clone()).expect("library");
        prop_assert_eq!(from_flat.bbox(), from_lib.bbox());
        prop_assert_eq!(from_flat.tile_count(), from_lib.tile_count());
        prop_assert_eq!(from_flat.used_layers(), from_lib.used_layers());
        for i in 0..from_flat.tile_count() {
            let (a, b) = (from_flat.view(i, halo), from_lib.view(i, halo));
            prop_assert_eq!(a.window(), b.window(), "tile {}", i);
            for &l in from_flat.used_layers() {
                prop_assert_eq!(
                    a.region_ref(l).map(Region::rects),
                    b.region_ref(l).map(Region::rects),
                    "tile {} layer {}",
                    i,
                    l
                );
            }
            prop_assert_eq!(a.content_digest(), b.content_digest(), "tile {}", i);
        }
        Ok(())
    }

    /// The tile source never shows: a layout tiled from its flattening
    /// and from its hierarchy gives equal rect lists and digests, on
    /// rect soups and on SREF/AREF hierarchies with rotations and
    /// mirrors; and the flattening covers the points a brute-force
    /// expansion of the hierarchy does.
    #[test]
    fn flat_and_hier_views_carry_identical_point_sets() {
        check_sources_agree(
            &sample_library(),
            &TilingConfig::builder()
                .tile(150)
                .halo(25)
                .build()
                .expect("cfg"),
            30,
        )
        .expect("fixture");
        let spec = (0i64..16, 0i64..16, 0i64..6, 0i64..6);
        check(
            "flat_and_hier_views_carry_identical_point_sets",
            &Config::with_cases(48),
            &(
                dfm_check::vec(spec.clone(), 1..14),
                dfm_check::vec(spec, 1..8),
                dfm_check::vec((-8i64..8, -8i64..8, 0u8..4, dfm_check::bools()), 0..4),
                (0u16..3, 0u16..3, 0u8..4),
                (60i64..700, 0i64..80, 0i64..120),
            ),
            |(top, leaf, srefs, aref, (tile, cfg_halo, halo))| {
                let lib = soup_library(top, leaf, srefs, *aref);
                let cfg = TilingConfig::builder()
                    .tile(*tile)
                    .halo(*cfg_halo)
                    .build()
                    .expect("cfg");
                check_sources_agree(&lib, &cfg, *halo)
            },
        );
    }

    /// GDSII array semantics written out, independent of the walker's
    /// lattice: instance (c, r) is the reference's transform moved by its
    /// linear part applied to (c · column pitch, r · row pitch).
    fn brute_instances(r: &CellRef) -> Vec<Transform> {
        let a = r.array.unwrap_or(ArrayParams {
            cols: 1,
            rows: 1,
            col_pitch: 0,
            row_pitch: 0,
        });
        let mut out = Vec::new();
        for row in 0..a.rows as i64 {
            for col in 0..a.cols as i64 {
                let mut t = r.transform;
                t.offset = t.offset
                    + r.transform
                        .linear_apply(Vector::new(col * a.col_pitch, row * a.row_pitch));
                out.push(t);
            }
        }
        out
    }

    /// Bounding box of every shape under `id`, every instance expanded.
    fn brute_bbox(lib: &Library, id: CellId) -> Rect {
        let cell = lib.cell(id);
        let mut b = cell.local_bbox();
        for r in &cell.refs {
            let child = brute_bbox(lib, lib.cell_id(&r.cell).expect("reference resolves"));
            for t in brute_instances(r) {
                b = b.bounding_union(&t.apply_rect(child));
            }
        }
        b
    }

    /// `layer ∩ window` for every layer of `lib`'s top cell, by brute
    /// force: every instance of every reference is tried, one whose
    /// placed subtree bbox misses the window is skipped, and every shape
    /// of the rest is moved and clipped. Also returns how many instances
    /// were entered, which is what the windowed walk must enter too.
    fn brute_window(lib: &Library, window: Rect) -> (BTreeMap<Layer, Region>, u64) {
        fn walk(
            lib: &Library,
            bboxes: &BTreeMap<CellId, Rect>,
            id: CellId,
            t: Transform,
            window: Rect,
            acc: &mut BTreeMap<Layer, Vec<Rect>>,
            entered: &mut u64,
        ) {
            let cell = lib.cell(id);
            for (layer, shape) in cell.iter_shapes() {
                let clipped = shape
                    .transformed(&t)
                    .to_rects()
                    .into_iter()
                    .filter_map(|r| r.intersection(&window));
                acc.entry(layer).or_default().extend(clipped);
            }
            for r in &cell.refs {
                let child = lib.cell_id(&r.cell).expect("reference resolves");
                for inst in brute_instances(r) {
                    let placed = inst.then(&t);
                    if placed.apply_rect(bboxes[&child]).overlaps(&window) {
                        *entered += 1;
                        walk(lib, bboxes, child, placed, window, acc, entered);
                    }
                }
            }
        }
        let bboxes = (0..lib.cell_count())
            .map(|i| {
                let id = lib.cell_id(&lib.cells()[i].name).expect("cell");
                (id, brute_bbox(lib, id))
            })
            .collect();
        let (mut acc, mut entered) = (BTreeMap::new(), 0);
        let top = lib.top().expect("top");
        walk(
            lib,
            &bboxes,
            top,
            Transform::identity(),
            window,
            &mut acc,
            &mut entered,
        );
        let regions = acc
            .into_iter()
            .map(|(l, rects)| (l, Region::from_rects(rects)))
            .collect();
        (regions, entered)
    }

    /// One rect of [`soup_cell`]: lattice position and size steps.
    type SoupSpec = (i64, i64, i64, i64);

    /// A soup leaf arrayed `cols × rows` at the given pitches under any
    /// rotation and mirror, next to a stack of `stack` instances at
    /// pitch 0 in both axes, all inside `MID`, which `TOP` places
    /// rotated, mirrored and moved when `nest` holds. `TOP` holds a soup
    /// of its own, large enough in some cases to be indexed.
    fn array_library(
        (leaf, top_soup): (&[SoupSpec], &[SoupSpec]),
        (cols, rows, col_pitch, row_pitch): (u16, u16, i64, i64),
        (x, y, quarter_turns, mirror): (i64, i64, u8, bool),
        (stack_cols, stack_rows): (u16, u16),
        nest: bool,
    ) -> Library {
        let mut lib = Library::new("ARRAYS");
        lib.add_cell(soup_cell("LEAF", leaf)).expect("leaf");
        let mut mid = Cell::new("MID");
        let placement = |offset: Vector| {
            Transform::new(offset, Rotation::from_quarter_turns(quarter_turns), mirror)
        };
        mid.add_ref(CellRef::array(
            "LEAF",
            placement(Vector::new(x, y)),
            ArrayParams {
                cols,
                rows,
                col_pitch,
                row_pitch,
            },
        ));
        mid.add_ref(CellRef::array(
            "LEAF",
            placement(Vector::new(-x / 3, y / 2)),
            ArrayParams {
                cols: stack_cols,
                rows: stack_rows,
                col_pitch: 0,
                row_pitch: 0,
            },
        ));
        lib.add_cell(mid).expect("mid");
        let mut top = soup_cell("TOP", top_soup);
        top.add_ref(CellRef::new(
            "MID",
            if nest {
                Transform::new(
                    Vector::new(y / 2 + 1, 7 - x),
                    Rotation::from_quarter_turns(quarter_turns + 1),
                    !mirror,
                )
            } else {
                Transform::identity()
            },
        ));
        let id = lib.add_cell(top).expect("top");
        lib.set_top(id).expect("top id");
        lib
    }

    /// The windowed walk against [`brute_window`] on large arrays at odd
    /// offsets, under every rotation and mirror, with negative and zero
    /// pitches and a stack of instances at pitch 0: random windows that
    /// cut the lattice anywhere, and every tile view of a tiling, carry
    /// the brute-force point sets, and each walk enters exactly the
    /// instances whose placement overlaps its window, no column or row
    /// more or less.
    #[test]
    fn windowed_walks_match_the_brute_force_expansion() {
        let spec = (0i64..8, 0i64..8, 0i64..4, 0i64..4);
        check(
            "windowed_walks_match_the_brute_force_expansion",
            &Config::with_cases(48),
            &(
                (
                    dfm_check::vec(spec, 1..5),
                    dfm_check::vec((0i64..40, 0i64..40, 0i64..6, 0i64..6), 0..70),
                ),
                (1u16..90, 1u16..90, -700i64..700, -700i64..700, 0u8..6),
                (-3001i64..3001, -3001i64..3001, 0u8..4, dfm_check::bools()),
                (1u16..4, 1u16..4, dfm_check::bools()),
                dfm_check::vec((0i64..1000, 0i64..1000, 1i64..400, 1i64..400), 1..6),
                (1i64..6, 0i64..300),
            ),
            |(
                (leaf, top),
                (cols, rows, cp, rp, zero),
                placement,
                (sc, sr, nest),
                windows,
                tiling,
            )| {
                // Pitch 0 on one axis, the other, or both, in half the cases.
                let cp = if zero % 2 == 1 { 0 } else { *cp };
                let rp = if matches!(zero, 2 | 3) { 0 } else { *rp };
                let lib = array_library(
                    (leaf, top),
                    (*cols, *rows, cp, rp),
                    *placement,
                    (*sc, *sr),
                    *nest,
                );
                let (across, halo) = *tiling;
                let bbox = brute_bbox(&lib, lib.top().expect("top"));
                let side = bbox.width().max(bbox.height()) / across + 1;
                let cfg = TilingConfig::builder()
                    .tile(side)
                    .halo(0)
                    .build()
                    .expect("cfg");
                let tiled = TiledLayout::from_library(lib.clone(), cfg).expect("library");
                let per_mille = |v: i64, span: i64| v * span / 1000;
                let random = windows.iter().map(|&(x, y, w, h)| {
                    let (x0, y0) = (
                        bbox.x0 + per_mille(x, bbox.width()),
                        bbox.y0 + per_mille(y, bbox.height()),
                    );
                    Rect::new(
                        x0,
                        y0,
                        x0 + 1 + per_mille(w, bbox.width()),
                        y0 + 1 + per_mille(h, bbox.height()),
                    )
                });
                // Windows that only abut the first instance of each array
                // on one side: such an instance is not entered.
                let leaf_bbox = lib.cell(lib.cell_id("LEAF").expect("leaf")).local_bbox();
                let mid_ref = &lib.cell(lib.top().expect("top")).refs[0];
                let mid = lib.cell(lib.cell_id("MID").expect("mid"));
                let abutting = mid.refs.iter().flat_map(|r| {
                    let b = brute_instances(r)[0]
                        .then(&mid_ref.transform)
                        .apply_rect(leaf_bbox);
                    [
                        Rect::new(b.x1, b.y0, b.x1 + 40, b.y1),
                        Rect::new(b.x0 - 40, b.y0, b.x0, b.y1),
                        Rect::new(b.x0, b.y1, b.x1, b.y1 + 40),
                        Rect::new(b.x0, b.y0 - 40, b.x1, b.y0),
                    ]
                });
                let views = (0..tiled.tile_count()).map(|i| tiled.grid().window(i, halo));
                for window in random.chain(abutting).chain(views) {
                    let (rects, visits) = tiled.walk_window(window, tiled.used_layers());
                    let (want, entered) = brute_window(&lib, window);
                    for (&l, rects) in tiled.used_layers().iter().zip(rects) {
                        let got = Region::from_rects(rects);
                        prop_assert_eq!(
                            got.rects(),
                            want.get(&l).map_or(&[][..], Region::rects),
                            "window {:?} layer {}",
                            window,
                            l
                        );
                    }
                    prop_assert_eq!(visits.instances, entered, "window {:?}", window);
                }
                Ok(())
            },
        );
    }

    /// Exact work of the 100-window pass over the 40 µm seed-11 block,
    /// one cell of 9 149 shapes, at tile 4096 and halo 512: the walk
    /// visits the 16 563 shapes whose bbox meets a window, where a walk
    /// through every shape of the cell visited 914 900.
    #[test]
    fn a_window_visits_only_the_shapes_that_reach_it() {
        let params = RoutedBlockParams {
            width: 40_000,
            height: 40_000,
            ..Default::default()
        };
        let lib = routed_block(&Technology::n65(), params, 11);
        let cell = lib.cell(lib.top().expect("top"));
        assert_eq!((lib.cell_count(), cell.shape_count()), (1, 9_149));
        let cfg = TilingConfig::builder()
            .tile(4096)
            .halo(512)
            .build()
            .expect("cfg");
        let tiled = TiledLayout::from_library(lib.clone(), cfg).expect("hier");
        assert_eq!(tiled.tile_count(), 100);
        let (mut visited, mut meeting) = (0, 0);
        for i in 0..tiled.tile_count() {
            let window = tiled.grid().window(i, 512);
            visited += tiled.walk_window(window, tiled.used_layers()).1.shapes;
            meeting += cell
                .iter_shapes()
                .filter(|(_, s)| s.bbox().overlaps(&window))
                .count();
        }
        assert_eq!((visited, meeting), (16_563, 16_563));
    }

    /// A window of a 256 × 256 SRAM array (tile 2048, halo 512) enters
    /// exactly the bitcells whose placement overlaps it, where the array
    /// walk entered all 65 536; and a window inside a 16 × 16 array does
    /// the same work as the same window of the 256 × 256 one.
    #[test]
    fn a_window_enters_only_the_array_instances_that_reach_it() {
        let tech = Technology::n65();
        let cfg = TilingConfig::builder()
            .tile(2048)
            .halo(512)
            .build()
            .expect("cfg");
        let big = crate::generate::sram_array(&tech, 256, 256);
        let aref = big.cell(big.top().expect("top")).refs[0].clone();
        let bitcell = big
            .cell(big.cell_id(&aref.cell).expect("bitcell"))
            .local_bbox();
        let big = TiledLayout::from_library(big, cfg.clone()).expect("hier");
        let small = TiledLayout::from_library(crate::generate::sram_array(&tech, 16, 16), cfg)
            .expect("hier");
        let placed: Vec<Rect> = aref
            .instance_transforms()
            .map(|t| t.apply_rect(bitcell))
            .collect();
        assert_eq!(placed.len(), 65_536);
        for i in (0..big.tile_count()).step_by(97) {
            let window = big.grid().window(i, 512);
            let meeting = placed.iter().filter(|b| b.overlaps(&window)).count() as u64;
            let visits = big.walk_window(window, big.used_layers()).1;
            assert_eq!(visits.instances, meeting, "tile {i}");
            assert!((1..=36).contains(&meeting), "tile {i}: {meeting}");
        }
        let inside = small.bbox().expanded(-1024);
        for i in 0..small.tile_count() {
            let window = small.grid().window(i, 512);
            if inside.contains_rect(&window) {
                assert_eq!(
                    small.walk_window(window, small.used_layers()).1,
                    big.walk_window(window, big.used_layers()).1,
                    "window {window:?}"
                );
            }
        }
    }

    /// A 32 767 × 32 767 AREF, the GDSII maximum of 1.07e9 instances, is
    /// tiled and walked in bounded memory: its bbox comes from two corner
    /// instances, a window far from it enters none, and a window on its
    /// corner enters only the instances there.
    #[test]
    fn a_maximal_array_is_walked_by_its_lattice_ranges() {
        let mut lib = Library::new("HUGE");
        let mut leaf = Cell::new("LEAF");
        leaf.add_rect(layers::METAL1, Rect::new(0, 0, 60, 60));
        lib.add_cell(leaf).expect("leaf");
        let mut top = Cell::new("TOP");
        top.add_ref(CellRef::array(
            "LEAF",
            Transform::new(Vector::new(-5, 3), Rotation::R90, true),
            ArrayParams {
                cols: 32_767,
                rows: 32_767,
                col_pitch: 100,
                row_pitch: -100,
            },
        ));
        top.add_rect(
            layers::METAL2,
            Rect::new(-9_000_000, -9_000_000, -8_999_000, -8_999_000),
        );
        let id = lib.add_cell(top).expect("top");
        lib.set_top(id).expect("top id");
        let cfg = TilingConfig::builder().tile(4096).build().expect("cfg");
        let tiled = TiledLayout::from_library(lib, cfg).expect("hier");
        // The mirror and R90 swap the axes: column k sits 100·k above,
        // row k 100·k left of the first instance, (-5, 3, 55, 63).
        assert_eq!(
            tiled.bbox(),
            Rect::new(-9_000_000, -9_000_000, 55, 3_276_663)
        );
        let far = Rect::new(-9_000_500, -9_000_500, -8_990_000, -8_990_000);
        let (rects, visits) = tiled.walk_window(far, tiled.used_layers());
        assert_eq!(visits.instances, 0);
        assert_eq!(
            rects[1],
            [Rect::new(-9_000_000, -9_000_000, -8_999_000, -8_999_000)]
        );
        let corner = Rect::new(-1_000, -1_000, 1_000, 1_000);
        let (rects, visits) = tiled.walk_window(corner, tiled.used_layers());
        // Columns 0..=9 and rows 0..=10 reach it.
        assert_eq!(visits.instances, 110);
        assert_eq!(rects[0].len(), 110);
    }

    #[test]
    fn views_window_clip_matches_flat_clip() {
        let lib = sample_library();
        let flat = lib.flatten_top().expect("flatten");
        let cfg = TilingConfig::builder()
            .tile(170)
            .halo(40)
            .build()
            .expect("cfg");
        let tiled = TiledLayout::from_flat(flat.clone(), cfg);
        for i in 0..tiled.tile_count() {
            let v = tiled.view(i, 40);
            for &l in tiled.used_layers() {
                let direct = flat.region(l).clipped(v.window());
                let got = v.region_ref(l).cloned().unwrap_or_default();
                assert!(got.xor(&direct).is_empty());
            }
        }
    }

    #[test]
    fn total_area_matches_flat_exactly() {
        let lib = sample_library();
        let flat = lib.flatten_top().expect("flatten");
        for tile in [64, 97, 150, 1000] {
            let cfg = TilingConfig::builder().tile(tile).build().expect("cfg");
            let tiled = TiledLayout::from_library(sample_library(), cfg).expect("hier");
            assert_eq!(tiled.total_area(), flat.total_area(), "tile {tile}");
        }
    }

    #[test]
    fn view_layers_carries_only_the_asked_layers() {
        let cfg = TilingConfig::builder().tile(500).build().expect("cfg");
        let tiled = TiledLayout::from_library(sample_library(), cfg).expect("hier");
        assert_eq!(tiled.used_layers(), &[layers::METAL1, layers::METAL2]);
        let v = tiled.view_layers(0, 0, &[layers::METAL2, layers::VIA1]);
        assert!(v.region_ref(layers::METAL1).is_none());
        assert!(v.region_ref(layers::METAL2).is_some());
        assert!(v.region_ref(layers::VIA1).is_none(), "unused layer");
    }

    #[test]
    fn ownership_anchor_is_unique() {
        let lib = sample_library();
        let flat = lib.flatten_top().expect("flatten");
        let cfg = TilingConfig::builder().tile(123).build().expect("cfg");
        let tiled = TiledLayout::from_flat(flat, cfg);
        let g = *tiled.grid();
        // Every interior point is owned by exactly one core.
        for p in [Point::new(0, 0), Point::new(122, 90), Point::new(123, 0)] {
            let owner = g.tile_of(p).expect("inside");
            let mut owners = 0;
            for i in 0..g.len() {
                let c = g.core(i);
                if c.x0 <= p.x && p.x < c.x1 && c.y0 <= p.y && p.y < c.y1 {
                    owners += 1;
                    assert_eq!(i, owner);
                }
            }
            assert_eq!(owners, 1);
        }
    }

    /// Digests of `lib` tiled by `cfg` at `halo`: equal from either
    /// source, changed by an `edit` square on METAL1 exactly in the
    /// tiles whose window it reaches, and changed by a wider halo.
    fn check_digest_tracks_window_content(
        lib: Library,
        cfg: TilingConfig,
        halo: Coord,
        edit: Rect,
    ) {
        let flat = lib.flatten_top().expect("flatten");
        let tiled = TiledLayout::from_library(lib, cfg.clone()).expect("hier");
        assert!(tiled.tile_count() > 2, "fixture must be multi-tile");
        let from_flat = TiledLayout::from_flat(flat.clone(), cfg.clone());
        for i in 0..tiled.tile_count() {
            assert_eq!(
                tiled.tile_content_digest(i, halo),
                from_flat.tile_content_digest(i, halo),
                "tile {i}: source must not leak into the digest"
            );
        }
        let mut edited = flat.clone();
        edited.set_region(
            layers::METAL1,
            flat.region(layers::METAL1)
                .union(&Region::from_rects([edit])),
        );
        let edited = TiledLayout::from_flat(edited, cfg);
        assert_eq!(
            edited.bbox(),
            tiled.bbox(),
            "the edit must not move the grid"
        );
        let (mut dirty, mut clean) = (0, 0);
        for i in 0..tiled.tile_count() {
            let before = tiled.tile_content_digest(i, halo);
            let after = edited.tile_content_digest(i, halo);
            if tiled.view(i, halo).window().intersection(&edit).is_some() {
                assert_ne!(before, after, "tile {i} is dirty, digest must change");
                dirty += 1;
            } else {
                assert_eq!(before, after, "tile {i} is clean, digest must hold");
                clean += 1;
            }
        }
        assert!(
            dirty > 0 && clean > 0,
            "edit must be tile-local in this fixture"
        );
        // The requested halo participates: a wider window is a
        // different content claim.
        assert_ne!(
            tiled.tile_content_digest(0, halo),
            tiled.tile_content_digest(0, 2 * halo)
        );
    }

    #[test]
    fn content_digest_tracks_window_content_only() {
        let cfg = TilingConfig::builder()
            .tile(150)
            .halo(25)
            .build()
            .expect("cfg");
        check_digest_tracks_window_content(sample_library(), cfg, 30, Rect::new(5, 70, 15, 80));
        // A region no METAL1 covers, found on the 12 µm block.
        let lib = routed_library();
        let m1 = lib.flatten_top().expect("flatten").region(layers::METAL1);
        let edit = (0..)
            .map(|k| {
                let (x, y) = (3_000 + 97 * k, 5_000 + 61 * k);
                Rect::new(x, y, x + 150, y + 150)
            })
            .find(|&r| m1.clipped(r).area() < r.area())
            .expect("open metal");
        let cfg = TilingConfig::builder()
            .tile(2048)
            .halo(64)
            .build()
            .expect("cfg");
        check_digest_tracks_window_content(lib, cfg, 512, edit);
    }

    /// FNV-1a 64 over every [`TiledLayout::tile_content_digest`] of
    /// `lib` tiled at `tile` with the job default halo of 512, in tile
    /// order.
    fn digest_of_all_tiles(lib: Library, tile: Coord) -> u64 {
        let cfg = TilingConfig::builder()
            .tile(tile)
            .halo(512)
            .build()
            .expect("cfg");
        let tiled = TiledLayout::from_library(lib, cfg).expect("hier");
        (0..tiled.tile_count()).fold(FNV_OFFSET, |h, i| {
            fnv_u64(h, tiled.tile_content_digest(i, 512))
        })
    }

    /// The cache keys' content digests, pinned: every tile of the 40 µm
    /// routed block (tile 4096, seeds 11–13) and of the 12 × 12 SRAM
    /// array (tile 2048). However the walk finds a window's shapes, these
    /// values may not move.
    #[test]
    fn tile_content_digests_are_pinned() {
        let tech = Technology::n65();
        let params = RoutedBlockParams {
            width: 40_000,
            height: 40_000,
            ..Default::default()
        };
        let got: Vec<u64> = [11, 12, 13]
            .into_iter()
            .map(|seed| digest_of_all_tiles(routed_block(&tech, params, seed), 4096))
            .chain([digest_of_all_tiles(
                crate::generate::sram_array(&tech, 12, 12),
                2048,
            )])
            .collect();
        assert_eq!(
            got,
            [
                0x2dd4_8e5b_879f_2b19,
                0xcbe4_b2ef_b98b_9eda,
                0xb451_f697_8b69_31e0,
                0xd0cd_70a5_6239_6409
            ],
            "{got:#018x?}"
        );
    }

    #[test]
    fn from_library_requires_top() {
        let mut lib = Library::new("L");
        lib.add_cell(Cell::new("A")).expect("a");
        lib.add_cell(Cell::new("B")).expect("b");
        let cfg = TilingConfig::builder().build().expect("cfg");
        assert!(matches!(
            TiledLayout::from_library(lib, cfg),
            Err(LayoutError::NoTopCell)
        ));
    }
}
