//! Cells: named containers of shapes, labels and hierarchical references.

use crate::{Layer, LayoutError};
use dfm_geom::{Point, Polygon, Rect, Region, Transform};
use std::collections::BTreeMap;
use std::fmt;

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
    /// (possibly arrayed) reference.
    pub fn instance_transforms(&self) -> Vec<Transform> {
        match self.array {
            None => vec![self.transform],
            Some(a) => {
                let mut out = Vec::with_capacity(a.cols as usize * a.rows as usize);
                for row in 0..a.rows as i64 {
                    for col in 0..a.cols as i64 {
                        // Array displacement happens in the parent frame
                        // along the transformed axes (GDSII semantics).
                        let step = self.transform.linear_apply(dfm_geom::Vector::new(
                            col * a.col_pitch,
                            row * a.row_pitch,
                        ));
                        let mut t = self.transform;
                        t.offset = t.offset + step;
                        out.push(t);
                    }
                }
                out
            }
        }
    }
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
        let ts = r.instance_transforms();
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
        let ts = r.instance_transforms();
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
