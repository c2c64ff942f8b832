//! # dfm-geom — integer Manhattan geometry kernel for IC layout
//!
//! This crate is the geometric substrate of the `dfm-practice` workspace: a
//! from-scratch, dependency-free kernel for the rectilinear ("Manhattan")
//! geometry that dominates IC physical design. All coordinates are integers
//! in database units (1 dbu = 1 nanometre throughout the workspace), which
//! makes every operation exact — there is no floating-point robustness
//! problem anywhere in the boolean engine.
//!
//! The main types are:
//!
//! * [`Point`] / [`Vector`] — positions and displacements,
//! * [`Rect`] — axis-aligned rectangles (the workhorse),
//! * [`Polygon`] — rectilinear polygons with slab decomposition into rects,
//! * [`Region`] — a canonical set of disjoint rectangles supporting exact
//!   boolean operations (union / intersection / difference / xor),
//!   Minkowski bloat/shrink, area, and boundary-edge extraction,
//! * [`Transform`] — GDSII-style placement transforms (translate, rotate by
//!   multiples of 90°, mirror),
//! * [`GridIndex`] — an immutable uniform-grid spatial index for neighbour
//!   queries, built once from its items into one dense bucket array.
//!
//! # Example
//!
//! ```
//! use dfm_geom::{Rect, Region};
//!
//! let a = Region::from_rect(Rect::new(0, 0, 100, 100));
//! let b = Region::from_rect(Rect::new(50, 50, 150, 150));
//! let u = a.union(&b);
//! assert_eq!(u.area(), 100 * 100 + 100 * 100 - 50 * 50);
//! let i = a.intersection(&b);
//! assert_eq!(i.area(), 50 * 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod edge;
mod index;
mod interval;
mod point;
mod polygon;
mod rect;
mod region;
mod tilegrid;
pub mod trace;
mod transform;

pub use edge::{BoundaryEdges, HEdge, VEdge};
pub use index::GridIndex;
pub use interval::{Interval, IntervalSet};
pub use point::{Point, Vector};
pub use polygon::{Polygon, ValidatePolygonError};
pub use rect::Rect;
pub use region::{group_within, BoolOp, Region};
pub use tilegrid::TileGrid;
pub use trace::boundary_loops;
pub use transform::{Rotation, Transform};

/// Coordinate type used throughout the workspace.
///
/// One unit is one database unit; the workspace convention is 1 dbu = 1 nm.
pub type Coord = i64;

/// Squared Euclidean distance helper used by corner-to-corner checks.
///
/// Returns `dx*dx + dy*dy` as an `i128` so it cannot overflow for any pair
/// of in-range coordinates.
pub fn dist2(a: Point, b: Point) -> i128 {
    let dx = (a.x - b.x) as i128;
    let dy = (a.y - b.y) as i128;
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist2_basics() {
        assert_eq!(dist2(Point::new(0, 0), Point::new(3, 4)), 25);
        assert_eq!(dist2(Point::new(-3, 0), Point::new(0, -4)), 25);
        assert_eq!(dist2(Point::new(7, 7), Point::new(7, 7)), 0);
    }
}
