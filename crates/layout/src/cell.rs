//! Cells: named containers of shapes, labels and hierarchical references.

use crate::{Layer, LayoutError};
use dfm_geom::{Coord, Point, Polygon, Rect, Region, Transform, Vector};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// A geometric shape on a layer: either a rectangle (the common case,
/// stored compactly) or a general rectilinear polygon.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Shape {
    /// An axis-aligned rectangle.
    Rect(Rect),
    /// A rectilinear polygon.
    Polygon(Polygon),
}

impl Shape {
    /// Bounding box of the shape.
    pub fn bbox(&self) -> Rect {
        match self {
            Shape::Rect(r) => *r,
            Shape::Polygon(p) => p.bbox(),
        }
    }

    /// Area of the shape.
    pub fn area(&self) -> i128 {
        match self {
            Shape::Rect(r) => r.area(),
            Shape::Polygon(p) => p.area(),
        }
    }

    /// Decomposes the shape into disjoint rectangles.
    pub fn to_rects(&self) -> Vec<Rect> {
        match self {
            Shape::Rect(r) => vec![*r],
            Shape::Polygon(p) => p.to_rects(),
        }
    }

    /// Applies a placement transform.
    pub fn transformed(&self, t: &Transform) -> Shape {
        match self {
            Shape::Rect(r) => Shape::Rect(t.apply_rect(*r)),
            Shape::Polygon(p) => Shape::Polygon(p.transformed(t)),
        }
    }
}

impl From<Rect> for Shape {
    fn from(r: Rect) -> Self {
        Shape::Rect(r)
    }
}

impl From<Polygon> for Shape {
    fn from(p: Polygon) -> Self {
        Shape::Polygon(p)
    }
}

/// Array replication parameters for an [`CellRef`] (GDSII `AREF`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArrayParams {
    /// Number of columns (placements along the column vector).
    pub cols: u16,
    /// Number of rows.
    pub rows: u16,
    /// Step between columns, in dbu (applied in the referenced frame
    /// *after* the transform's linear part).
    pub col_pitch: i64,
    /// Step between rows, in dbu.
    pub row_pitch: i64,
}

/// A placement of another cell, with optional array replication.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellRef {
    /// Name of the referenced cell (resolved inside a [`crate::Library`]).
    pub cell: String,
    /// Placement transform of the (first) instance.
    pub transform: Transform,
    /// Array replication (GDSII `AREF`), if any.
    pub array: Option<ArrayParams>,
}

impl CellRef {
    /// A single placement of `cell` under `transform`.
    pub fn new(cell: impl Into<String>, transform: Transform) -> Self {
        CellRef {
            cell: cell.into(),
            transform,
            array: None,
        }
    }

    /// An arrayed placement.
    pub fn array(cell: impl Into<String>, transform: Transform, array: ArrayParams) -> Self {
        CellRef {
            cell: cell.into(),
            transform,
            array: Some(array),
        }
    }

    /// Iterates over the effective transforms of every instance in the
    /// (possibly arrayed) reference, row by row. Lazy: nothing is
    /// allocated, however many instances the array holds.
    pub fn instance_transforms(&self) -> impl Iterator<Item = Transform> {
        let (cols, rows, ..) = self.lattice();
        self.lattice_instances(0..cols, 0..rows)
    }

    /// Bounding box, in the parent frame, of every instance of a child
    /// whose local bounding box is `child`. Each lattice step moves
    /// instances along one axis, so the first and the last instance
    /// reach every extreme the four corner instances do.
    pub(crate) fn placed_bbox(&self, child: Rect) -> Rect {
        let (cols, rows, col_step, row_step) = self.lattice();
        if cols == 0 || rows == 0 || child.is_empty() {
            return Rect::empty();
        }
        let first = self.transform.apply_rect(child);
        first.bounding_union(&first.translated(col_step * (cols - 1) + row_step * (rows - 1)))
    }

    /// The instances, row by row, whose placement of a child with local
    /// bounding box `child` overlaps `window` (both in the parent frame).
    /// A Manhattan transform maps the column axis to ±x or ±y and the
    /// row axis to the other one, so the columns that reach the window
    /// are one index range along one axis, the rows one along the other:
    /// two integer divisions each, whatever the pitch's sign. At pitch 0
    /// an axis takes all of its instances or none.
    pub(crate) fn instances_meeting(
        &self,
        child: Rect,
        window: Rect,
    ) -> impl Iterator<Item = Transform> {
        let (cols, rows, col_step, row_step) = self.lattice();
        let first = self.transform.apply_rect(child);
        let x_axis = |step: Vector, n| {
            steps_meeting((first.x0, first.x1), step.x, (window.x0, window.x1), n)
        };
        let y_axis = |step: Vector, n| {
            steps_meeting((first.y0, first.y1), step.y, (window.y0, window.y1), n)
        };
        let (col_range, row_range) = if self.transform.linear_apply(Vector::new(1, 0)).x != 0 {
            (x_axis(col_step, cols), y_axis(row_step, rows))
        } else {
            (y_axis(col_step, cols), x_axis(row_step, rows))
        };
        self.lattice_instances(col_range, row_range)
    }

    /// Column count, row count and the parent-frame steps between
    /// columns and between rows. A plain reference is a 1 × 1 array.
    fn lattice(&self) -> (i64, i64, Vector, Vector) {
        let a = self.array.unwrap_or(ArrayParams {
            cols: 1,
            rows: 1,
            col_pitch: 0,
            row_pitch: 0,
        });
        // Array displacement happens in the parent frame along the
        // transformed axes (GDSII semantics).
        (
            a.cols as i64,
            a.rows as i64,
            self.transform.linear_apply(Vector::new(a.col_pitch, 0)),
            self.transform.linear_apply(Vector::new(0, a.row_pitch)),
        )
    }

    /// The instances in `cols` × `rows` of the lattice, row by row.
    fn lattice_instances(
        &self,
        cols: Range<i64>,
        rows: Range<i64>,
    ) -> impl Iterator<Item = Transform> {
        let (_, _, col_step, row_step) = self.lattice();
        let first = self.transform;
        rows.flat_map(move |row| {
            cols.clone().map(move |col| {
                let mut t = first;
                t.offset = t.offset + col_step * col + row_step * row;
                t
            })
        })
    }
}

/// The indices `k` in `0..n` for which the interval `first` moved by
/// `k · step` overlaps `window` with positive length.
fn steps_meeting(first: (Coord, Coord), step: Coord, window: (Coord, Coord), n: i64) -> Range<i64> {
    let ((a0, a1), (w0, w1)) = (first, window);
    // a0 + k·step < w1 and a1 + k·step > w0, solved for k.
    let (lo, hi) = match step.cmp(&0) {
        Ordering::Equal if a0 < w1 && a1 > w0 => (0, n),
        Ordering::Equal => (0, 0),
        Ordering::Greater => ((w0 - a1).div_euclid(step) + 1, ceil_div(w1 - a0, step)),
        Ordering::Less => ((a0 - w1).div_euclid(-step) + 1, ceil_div(a1 - w0, -step)),
    };
    let lo = lo.max(0);
    lo..hi.min(n).max(lo)
}

/// `⌈a / b⌉` for `b > 0`.
fn ceil_div(a: Coord, b: Coord) -> Coord {
    -(-a).div_euclid(b)
}

/// A text label (GDSII `TEXT`), used for net names and markers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Label {
    /// Layer carrying the label.
    pub layer: Layer,
    /// Anchor position.
    pub position: Point,
    /// Label text.
    pub text: String,
}

/// A named layout cell: per-layer shapes, labels, and references to other
/// cells.
///
/// ```
/// use dfm_layout::{layers, Cell};
/// use dfm_geom::Rect;
/// let mut c = Cell::new("INV");
/// c.add_rect(layers::POLY, Rect::new(0, 0, 60, 400));
/// assert_eq!(c.shape_count(), 1);
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Cell {
    /// Cell name (unique within a library).
    pub name: String,
    shapes: BTreeMap<Layer, Vec<Shape>>,
    /// Hierarchical references placed in this cell.
    pub refs: Vec<CellRef>,
    /// Text labels in this cell.
    pub labels: Vec<Label>,
}

impl Cell {
    /// Creates an empty cell with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Cell {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a shape on a layer.
    pub fn add_shape(&mut self, layer: Layer, shape: impl Into<Shape>) {
        self.shapes.entry(layer).or_default().push(shape.into());
    }

    /// Adds a rectangle on a layer (convenience for the common case).
    pub fn add_rect(&mut self, layer: Layer, rect: Rect) {
        self.add_shape(layer, Shape::Rect(rect));
    }

    /// Adds a hierarchical reference.
    pub fn add_ref(&mut self, r: CellRef) {
        self.refs.push(r);
    }

    /// Adds a text label.
    pub fn add_label(&mut self, label: Label) {
        self.labels.push(label);
    }

    /// The layers that carry shapes in this cell, in sorted order.
    pub fn used_layers(&self) -> impl Iterator<Item = Layer> + '_ {
        self.shapes.keys().copied()
    }

    /// Shapes on a given layer (empty slice if none).
    pub fn shapes(&self, layer: Layer) -> &[Shape] {
        self.shapes.get(&layer).map_or(&[], |v| v.as_slice())
    }

    /// Iterates over `(layer, shape)` for all shapes.
    pub fn iter_shapes(&self) -> impl Iterator<Item = (Layer, &Shape)> + '_ {
        self.shapes
            .iter()
            .flat_map(|(l, v)| v.iter().map(move |s| (*l, s)))
    }

    /// Total number of local shapes (references not expanded).
    pub fn shape_count(&self) -> usize {
        self.shapes.values().map(|v| v.len()).sum()
    }

    /// Local geometry of one layer as a [`Region`] (references not
    /// expanded; see [`crate::Library::flatten`] for the hierarchy).
    pub fn layer_region(&self, layer: Layer) -> Region {
        Region::from_rects(self.shapes(layer).iter().flat_map(|s| s.to_rects()))
    }

    /// Bounding box of the local shapes only.
    pub fn local_bbox(&self) -> Rect {
        let mut b = Rect::empty();
        for (_, s) in self.iter_shapes() {
            b = b.bounding_union(&s.bbox());
        }
        b
    }

    /// Replaces all shapes on `layer` with the rectangles of `region`.
    pub fn set_layer_region(&mut self, layer: Layer, region: &Region) {
        let v = self.shapes.entry(layer).or_default();
        v.clear();
        v.extend(region.rects().iter().map(|&r| Shape::Rect(r)));
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} ({} shapes, {} refs)",
            self.name,
            self.shape_count(),
            self.refs.len()
        )
    }
}

/// Validation helper shared with [`crate::Library`]: checks a cell's refs
/// against a name-resolution function.
pub(crate) fn check_refs(
    cell: &Cell,
    mut resolve: impl FnMut(&str) -> bool,
) -> Result<(), LayoutError> {
    for r in &cell.refs {
        if !resolve(&r.cell) {
            return Err(LayoutError::UnknownCell(r.cell.clone()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use dfm_geom::{Rotation, Vector};

    #[test]
    fn add_and_query_shapes() {
        let mut c = Cell::new("X");
        c.add_rect(layers::METAL1, Rect::new(0, 0, 10, 10));
        c.add_rect(layers::METAL1, Rect::new(20, 0, 30, 10));
        c.add_rect(layers::METAL2, Rect::new(0, 0, 5, 5));
        assert_eq!(c.shape_count(), 3);
        assert_eq!(c.shapes(layers::METAL1).len(), 2);
        assert_eq!(c.shapes(layers::VIA1).len(), 0);
        assert_eq!(c.layer_region(layers::METAL1).area(), 200);
        assert_eq!(c.used_layers().count(), 2);
        assert_eq!(c.local_bbox(), Rect::new(0, 0, 30, 10));
    }

    #[test]
    fn array_instance_transforms() {
        let r = CellRef::array(
            "A",
            Transform::translate(Vector::new(100, 200)),
            ArrayParams {
                cols: 3,
                rows: 2,
                col_pitch: 10,
                row_pitch: 20,
            },
        );
        let ts: Vec<Transform> = r.instance_transforms().collect();
        assert_eq!(ts.len(), 6);
        assert_eq!(ts[0].offset, Vector::new(100, 200));
        assert_eq!(ts[1].offset, Vector::new(110, 200));
        assert_eq!(ts[3].offset, Vector::new(100, 220));
    }

    #[test]
    fn rotated_array_steps_along_rotated_axes() {
        let r = CellRef::array(
            "A",
            Transform::new(Vector::zero(), Rotation::R90, false),
            ArrayParams {
                cols: 2,
                rows: 1,
                col_pitch: 10,
                row_pitch: 0,
            },
        );
        let ts: Vec<Transform> = r.instance_transforms().collect();
        // Column axis rotated 90°: step (10,0) becomes (0,10).
        assert_eq!(ts[1].offset, Vector::new(0, 10));
    }

    #[test]
    fn set_layer_region_replaces() {
        let mut c = Cell::new("X");
        c.add_rect(layers::METAL1, Rect::new(0, 0, 10, 10));
        c.set_layer_region(layers::METAL1, &Region::from_rect(Rect::new(5, 5, 6, 6)));
        assert_eq!(c.layer_region(layers::METAL1).area(), 1);
    }
}
