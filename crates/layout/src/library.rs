//! Libraries: collections of cells with hierarchy flattening.

use crate::cell::check_refs;
use crate::{Cell, Layer, LayoutError, Shape};
use dfm_geom::{Coord, GridIndex, Rect, Region, Transform};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Stable identifier of a cell within one [`Library`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CellId(pub(crate) usize);

/// A flattened view of one cell: per-layer merged geometry.
///
/// Produced by [`Library::flatten`]; every downstream engine (DRC, litho,
/// yield, patterns) consumes this form.
#[derive(Clone, Debug, Default)]
pub struct FlatLayout {
    layers: BTreeMap<Layer, Region>,
    bbox: Rect,
}

impl FlatLayout {
    /// The merged geometry of a layer (the empty region if absent).
    pub fn region(&self, layer: Layer) -> Region {
        self.layers.get(&layer).cloned().unwrap_or_default()
    }

    /// Borrows the merged geometry of a layer, if present.
    pub fn region_ref(&self, layer: Layer) -> Option<&Region> {
        self.layers.get(&layer)
    }

    /// Layers present in the flattened layout.
    pub fn used_layers(&self) -> impl Iterator<Item = Layer> + '_ {
        self.layers.keys().copied()
    }

    /// Bounding box over all layers.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Inserts or replaces a layer's geometry. The bounding box is
    /// derived from the layers again, so a replaced layer leaves no
    /// trace of its old extent.
    pub fn set_region(&mut self, layer: Layer, region: Region) {
        self.layers.insert(layer, region);
        self.bbox = self
            .layers
            .values()
            .fold(Rect::empty(), |b, r| b.bounding_union(&r.bbox()));
    }

    /// Total shape count (canonical rectangles across layers).
    pub fn rect_count(&self) -> usize {
        self.layers.values().map(|r| r.rect_count()).sum()
    }

    /// Total drawn area across all layers.
    pub fn total_area(&self) -> i128 {
        self.layers.values().map(|r| r.area()).sum()
    }

    /// Converts the flattened layout back into a single-cell [`Library`]
    /// (e.g. to write a processed layout to GDSII).
    ///
    /// Components whose outline is a single hole-free loop are emitted as
    /// polygons (compact); components with holes fall back to their
    /// rectangle decomposition, which GDSII can always represent.
    pub fn to_library(&self, name: impl Into<String>, cell_name: impl Into<String>) -> Library {
        let mut lib = Library::new(name);
        let mut cell = Cell::new(cell_name);
        for (&layer, region) in &self.layers {
            for comp in region.connected_components() {
                let loops = dfm_geom::boundary_loops(&comp);
                if loops.len() == 1 && comp.rect_count() > 1 {
                    cell.add_shape(layer, loops.into_iter().next().expect("one loop"));
                } else if comp.rect_count() == 1 {
                    cell.add_rect(layer, comp.rects()[0]);
                } else {
                    for &r in comp.rects() {
                        cell.add_rect(layer, r);
                    }
                }
            }
        }
        let id = lib.add_cell(cell).expect("fresh library has no duplicates");
        lib.set_top(id).expect("cell id is valid");
        lib
    }
}

/// A library of layout cells sharing a unit system, with an optional
/// designated top cell.
///
/// The database-unit convention in this workspace is 1 dbu = 1 nm
/// (`dbu_in_meters = 1e-9`), matching the integer-nanometre geometry
/// kernel.
#[derive(Clone, Debug)]
pub struct Library {
    /// Library name (GDSII `LIBNAME`).
    pub name: String,
    /// Size of one database unit in user units (GDSII convention; the
    /// default of `1e-3` means 1 dbu = 0.001 µm = 1 nm).
    pub dbu_in_user_units: f64,
    /// Size of one database unit in meters (default `1e-9`).
    pub dbu_in_meters: f64,
    cells: Vec<Cell>,
    by_name: HashMap<String, CellId>,
    top: Option<CellId>,
}

impl Library {
    /// Creates an empty library with the workspace unit convention.
    pub fn new(name: impl Into<String>) -> Self {
        Library {
            name: name.into(),
            dbu_in_user_units: 1e-3,
            dbu_in_meters: 1e-9,
            cells: Vec::new(),
            by_name: HashMap::new(),
            top: None,
        }
    }

    /// Adds a cell, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::DuplicateCell`] if the name is taken.
    pub fn add_cell(&mut self, cell: Cell) -> Result<CellId, LayoutError> {
        if self.by_name.contains_key(&cell.name) {
            return Err(LayoutError::DuplicateCell(cell.name.clone()));
        }
        let id = CellId(self.cells.len());
        self.by_name.insert(cell.name.clone(), id);
        self.cells.push(cell);
        Ok(id)
    }

    /// Looks up a cell id by name.
    pub fn cell_id(&self, name: &str) -> Option<CellId> {
        self.by_name.get(name).copied()
    }

    /// Borrows a cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0]
    }

    /// Mutably borrows a cell by id.
    pub fn cell_mut(&mut self, id: CellId) -> &mut Cell {
        &mut self.cells[id.0]
    }

    /// All cells in insertion order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Designates the top cell.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownCell`] for an out-of-range id.
    pub fn set_top(&mut self, id: CellId) -> Result<(), LayoutError> {
        if id.0 >= self.cells.len() {
            return Err(LayoutError::UnknownCell(format!("#{}", id.0)));
        }
        self.top = Some(id);
        Ok(())
    }

    /// The designated top cell, or the unique unreferenced cell, if any.
    pub fn top(&self) -> Option<CellId> {
        if self.top.is_some() {
            return self.top;
        }
        // Infer: cells never referenced by any other cell.
        let mut referenced: Vec<bool> = vec![false; self.cells.len()];
        for c in &self.cells {
            for r in &c.refs {
                if let Some(id) = self.cell_id(&r.cell) {
                    referenced[id.0] = true;
                }
            }
        }
        let tops: Vec<CellId> = (0..self.cells.len())
            .filter(|&i| !referenced[i])
            .map(CellId)
            .collect();
        if tops.len() == 1 {
            Some(tops[0])
        } else {
            None
        }
    }

    /// Validates that every reference resolves and the hierarchy is
    /// acyclic.
    ///
    /// # Errors
    ///
    /// [`LayoutError::UnknownCell`] or [`LayoutError::RecursiveHierarchy`].
    pub fn validate(&self) -> Result<(), LayoutError> {
        for c in &self.cells {
            check_refs(c, |name| self.by_name.contains_key(name))?;
        }
        // Cycle detection via DFS colouring.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.cells.len()];
        fn dfs(lib: &Library, id: CellId, marks: &mut Vec<Mark>) -> Result<(), LayoutError> {
            match marks[id.0] {
                Mark::Black => return Ok(()),
                Mark::Grey => {
                    return Err(LayoutError::RecursiveHierarchy(
                        lib.cells[id.0].name.clone(),
                    ))
                }
                Mark::White => {}
            }
            marks[id.0] = Mark::Grey;
            let refs: Vec<CellId> = lib.cells[id.0]
                .refs
                .iter()
                .filter_map(|r| lib.cell_id(&r.cell))
                .collect();
            for child in refs {
                dfs(lib, child, marks)?;
            }
            marks[id.0] = Mark::Black;
            Ok(())
        }
        for i in 0..self.cells.len() {
            dfs(self, CellId(i), &mut marks)?;
        }
        Ok(())
    }

    /// Flattens a cell: expands the full reference tree and merges each
    /// layer into a canonical [`Region`].
    ///
    /// # Errors
    ///
    /// Propagates [`Library::validate`] failures.
    pub fn flatten(&self, id: CellId) -> Result<FlatLayout, LayoutError> {
        self.validate()?;
        let subtree_bboxes = compute_subtree_bboxes(self);
        let layers = collect_used_layers(self, id);
        let mut rects = vec![Vec::new(); layers.len()];
        WindowWalk {
            lib: self,
            subtree_bboxes: &subtree_bboxes,
            shape_index: None,
            layers: &layers,
            window: subtree_bboxes[id.0],
        }
        .collect(id, &Transform::identity(), &mut rects);
        let mut flat = FlatLayout::default();
        for (layer, rects) in layers.into_iter().zip(rects) {
            flat.set_region(layer, Region::from_rects(rects));
        }
        Ok(flat)
    }

    /// Flattens the top cell ([`Library::top`]).
    ///
    /// # Errors
    ///
    /// [`LayoutError::NoTopCell`] if no top cell is set or inferable;
    /// otherwise propagates [`Library::flatten`] failures.
    pub fn flatten_top(&self) -> Result<FlatLayout, LayoutError> {
        let top = self.top().ok_or(LayoutError::NoTopCell)?;
        self.flatten(top)
    }
}

impl CellId {
    /// Position of the cell in [`Library::cells`] order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Local-frame bounding box of each cell's fully expanded subtree,
/// indexed by [`CellId::index`]. The library must be acyclic.
pub(crate) fn compute_subtree_bboxes(lib: &Library) -> Vec<Rect> {
    fn bbox_of(lib: &Library, id: CellId, memo: &mut Vec<Option<Rect>>) -> Rect {
        if let Some(b) = memo[id.0] {
            return b;
        }
        let cell = lib.cell(id);
        let mut b = cell.local_bbox();
        for r in &cell.refs {
            if let Some(child) = lib.cell_id(&r.cell) {
                let cb = bbox_of(lib, child, memo);
                b = b.bounding_union(&r.placed_bbox(cb));
            }
        }
        memo[id.0] = Some(b);
        b
    }
    let mut memo = vec![None; lib.cell_count()];
    for i in 0..lib.cell_count() {
        bbox_of(lib, CellId(i), &mut memo);
    }
    memo.into_iter()
        .map(|b| b.unwrap_or_else(Rect::empty))
        .collect()
}

/// Every layer drawn anywhere in the subtree at `top`, sorted.
pub(crate) fn collect_used_layers(lib: &Library, top: CellId) -> Vec<Layer> {
    fn walk(lib: &Library, id: CellId, seen: &mut Vec<bool>, out: &mut Vec<Layer>) {
        if seen[id.0] {
            return;
        }
        seen[id.0] = true;
        let cell = lib.cell(id);
        out.extend(cell.used_layers());
        for r in &cell.refs {
            if let Some(child) = lib.cell_id(&r.cell) {
                walk(lib, child, seen, out);
            }
        }
    }
    let mut seen = vec![false; lib.cell_count()];
    let mut out = Vec::new();
    walk(lib, top, &mut seen, &mut out);
    out.sort();
    out.dedup();
    out
}

/// One spatial index per cell and per drawn layer over the local
/// bounding boxes of the cell's shapes, each shape keyed by its position
/// in [`Cell::shapes`]. Built once per tiling; its grid cell is the tile
/// side, so a window meets a handful of buckets. A layer with fewer than
/// [`SCAN_BELOW`] shapes, such as a bitcell's, has no index: scanning it
/// costs less than the bucket lookups.
pub(crate) struct ShapeIndex(Vec<Vec<(Layer, GridIndex<usize>)>>);

/// The shape count from which a cell's layer is indexed.
const SCAN_BELOW: usize = 32;

impl ShapeIndex {
    pub(crate) fn new(lib: &Library, grid: Coord) -> ShapeIndex {
        ShapeIndex(
            lib.cells()
                .iter()
                .map(|cell| {
                    cell.used_layers()
                        .filter(|&layer| cell.shapes(layer).len() >= SCAN_BELOW)
                        .map(|layer| {
                            let mut index = GridIndex::new(grid);
                            for (k, shape) in cell.shapes(layer).iter().enumerate() {
                                index.insert(shape.bbox(), k);
                            }
                            (layer, index)
                        })
                        .collect()
                })
                .collect(),
        )
    }

    fn layer(&self, id: CellId, layer: Layer) -> Option<&GridIndex<usize>> {
        let cell = &self.0[id.0];
        cell.binary_search_by_key(&layer, |(l, _)| *l)
            .ok()
            .map(|k| &cell[k].1)
    }
}

/// Work a [`WindowWalk`] did: shapes it tested against the window (all
/// of a subtree that lies inside it) and array or plain instances it
/// entered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Visits {
    pub(crate) shapes: u64,
    pub(crate) instances: u64,
}

/// The one hierarchy expansion: streams the geometry of each of
/// `layers` in a subtree into the matching output list, clipped to
/// `window`. One traversal serves every layer. [`Library::flatten`]
/// walks with the cell's whole subtree bbox as the window and no shape
/// index; a tile view walks with its window and the tiling's index.
///
/// At each cell the window is mapped into the cell's frame. A subtree
/// that misses it is pruned, one inside it is copied unclipped, and
/// otherwise only the shapes the index returns and the array columns
/// and rows whose placements overlap the window are visited.
pub(crate) struct WindowWalk<'a> {
    pub(crate) lib: &'a Library,
    pub(crate) subtree_bboxes: &'a [Rect],
    pub(crate) shape_index: Option<&'a ShapeIndex>,
    pub(crate) layers: &'a [Layer],
    pub(crate) window: Rect,
}

impl WindowWalk<'_> {
    /// Walks the subtree at `id`, placed by `t`, into `out` (one list
    /// per layer).
    pub(crate) fn collect(&self, id: CellId, t: &Transform, out: &mut [Vec<Rect>]) -> Visits {
        let mut visits = Visits::default();
        self.walk(id, t, out, &mut visits);
        visits
    }

    fn walk(&self, id: CellId, t: &Transform, out: &mut [Vec<Rect>], visits: &mut Visits) {
        let sub = self.subtree_bboxes[id.0];
        let local = t.inverse().apply_rect(self.window);
        if sub.is_empty() || sub.intersection(&local).is_none() {
            return;
        }
        // A subtree inside the window needs no clipping.
        let inside = local.contains_rect(&sub);
        let cell = self.lib.cell(id);
        for (&layer, out) in self.layers.iter().zip(out.iter_mut()) {
            let shapes = cell.shapes(layer);
            if inside {
                visits.shapes += shapes.len() as u64;
                for shape in shapes {
                    out.extend(shape.transformed(t).to_rects());
                }
                continue;
            }
            let mut clip = |bbox: Rect, shape: &Shape| {
                visits.shapes += 1;
                if !bbox.overlaps(&local) {
                    return;
                }
                for r in shape.transformed(t).to_rects() {
                    if let Some(clipped) = r.intersection(&self.window) {
                        out.push(clipped);
                    }
                }
            };
            match self.shape_index.and_then(|ix| ix.layer(id, layer)) {
                Some(index) => index.for_each_touching(local, |bbox, &k| clip(bbox, &shapes[k])),
                None => shapes.iter().for_each(|s| clip(s.bbox(), s)),
            }
        }
        for r in &cell.refs {
            let Some(child) = self.lib.cell_id(&r.cell) else {
                continue;
            };
            let child_bbox = self.subtree_bboxes[child.0];
            if child_bbox.is_empty() {
                continue;
            }
            for inst in r.instances_meeting(child_bbox, local) {
                visits.instances += 1;
                self.walk(child, &inst.then(t), out, visits);
            }
        }
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "library {} ({} cells)", self.name, self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layers, ArrayParams, CellRef};
    use dfm_geom::{Rotation, Vector};

    fn unit_cell(name: &str) -> Cell {
        let mut c = Cell::new(name);
        c.add_rect(layers::METAL1, Rect::new(0, 0, 10, 10));
        c
    }

    #[test]
    fn duplicate_cell_rejected() {
        let mut lib = Library::new("L");
        lib.add_cell(unit_cell("A")).expect("first add");
        assert!(matches!(
            lib.add_cell(unit_cell("A")),
            Err(LayoutError::DuplicateCell(_))
        ));
    }

    #[test]
    fn flatten_simple_hierarchy() {
        let mut lib = Library::new("L");
        lib.add_cell(unit_cell("LEAF")).expect("add leaf");
        let mut top = Cell::new("TOP");
        top.add_ref(CellRef::new(
            "LEAF",
            Transform::translate(Vector::new(0, 0)),
        ));
        top.add_ref(CellRef::new(
            "LEAF",
            Transform::translate(Vector::new(100, 0)),
        ));
        let top_id = lib.add_cell(top).expect("add top");
        let flat = lib.flatten(top_id).expect("flatten");
        assert_eq!(flat.region(layers::METAL1).area(), 200);
        assert_eq!(flat.bbox(), Rect::new(0, 0, 110, 10));
    }

    #[test]
    fn flatten_nested_with_rotation() {
        let mut lib = Library::new("L");
        let mut leaf = Cell::new("LEAF");
        leaf.add_rect(layers::METAL1, Rect::new(0, 0, 20, 10));
        lib.add_cell(leaf).expect("add leaf");
        let mut mid = Cell::new("MID");
        mid.add_ref(CellRef::new(
            "LEAF",
            Transform::new(Vector::new(0, 0), Rotation::R90, false),
        ));
        lib.add_cell(mid).expect("add mid");
        let mut top = Cell::new("TOP");
        top.add_ref(CellRef::new(
            "MID",
            Transform::translate(Vector::new(50, 50)),
        ));
        let top_id = lib.add_cell(top).expect("add top");
        let flat = lib.flatten(top_id).expect("flatten");
        // (0,0,20,10) rotated 90° -> (-10,0,0,20), then +(50,50).
        assert_eq!(
            flat.region(layers::METAL1).bbox(),
            Rect::new(40, 50, 50, 70)
        );
    }

    #[test]
    fn flatten_array() {
        let mut lib = Library::new("L");
        lib.add_cell(unit_cell("LEAF")).expect("add leaf");
        let mut top = Cell::new("TOP");
        top.add_ref(CellRef::array(
            "LEAF",
            Transform::identity(),
            ArrayParams {
                cols: 4,
                rows: 3,
                col_pitch: 20,
                row_pitch: 20,
            },
        ));
        let top_id = lib.add_cell(top).expect("add top");
        let flat = lib.flatten(top_id).expect("flatten");
        assert_eq!(flat.region(layers::METAL1).area(), 12 * 100);
    }

    #[test]
    fn recursive_hierarchy_detected() {
        let mut lib = Library::new("L");
        let mut a = Cell::new("A");
        a.add_ref(CellRef::new("B", Transform::identity()));
        let mut b = Cell::new("B");
        b.add_ref(CellRef::new("A", Transform::identity()));
        let a_id = lib.add_cell(a).expect("add a");
        lib.add_cell(b).expect("add b");
        assert!(matches!(
            lib.flatten(a_id),
            Err(LayoutError::RecursiveHierarchy(_))
        ));
    }

    #[test]
    fn unknown_ref_detected() {
        let mut lib = Library::new("L");
        let mut a = Cell::new("A");
        a.add_ref(CellRef::new("MISSING", Transform::identity()));
        let a_id = lib.add_cell(a).expect("add");
        assert!(matches!(
            lib.flatten(a_id),
            Err(LayoutError::UnknownCell(_))
        ));
    }

    #[test]
    fn top_inference() {
        let mut lib = Library::new("L");
        lib.add_cell(unit_cell("LEAF")).expect("add leaf");
        let mut top = Cell::new("TOP");
        top.add_ref(CellRef::new("LEAF", Transform::identity()));
        let top_id = lib.add_cell(top).expect("add top");
        assert_eq!(lib.top(), Some(top_id));
    }

    #[test]
    fn flat_layout_roundtrips_to_library() {
        let mut lib = Library::new("L");
        let mut c = Cell::new("TOP");
        // An L-shape (traced as one polygon) and an isolated square.
        c.add_rect(layers::METAL1, Rect::new(0, 0, 300, 100));
        c.add_rect(layers::METAL1, Rect::new(0, 100, 100, 300));
        c.add_rect(layers::METAL2, Rect::new(1000, 1000, 1100, 1100));
        let id = lib.add_cell(c).expect("add");
        let flat = lib.flatten(id).expect("flatten");
        let back = flat.to_library("out", "FLAT");
        let reflat = back
            .flatten(back.top().expect("top"))
            .expect("flatten writeback");
        for layer in [layers::METAL1, layers::METAL2] {
            assert_eq!(flat.region(layer), reflat.region(layer), "{layer}");
        }
        // The L went out as one polygon shape, not two rects.
        let cell = back.cell(back.cell_id("FLAT").expect("cell"));
        assert_eq!(cell.shapes(layers::METAL1).len(), 1);
    }
}
