//! Rectilinear (Manhattan) polygons.

use crate::{Coord, Interval, IntervalSet, Point, Rect, Region, Transform};
use std::error::Error;
use std::fmt;

/// Error returned when a point list does not form a valid rectilinear
/// polygon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidatePolygonError {
    /// Fewer than four vertices were supplied.
    TooFewPoints(usize),
    /// Two consecutive vertices are identical or not axis-aligned.
    NonManhattanEdge {
        /// Index of the edge's first vertex.
        index: usize,
    },
    /// Consecutive edges are parallel (the vertex between them is
    /// redundant or the polygon doubles back on itself).
    CollinearVertex {
        /// Index of the offending vertex.
        index: usize,
    },
}

impl fmt::Display for ValidatePolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidatePolygonError::TooFewPoints(n) => {
                write!(f, "rectilinear polygon needs at least 4 vertices, got {n}")
            }
            ValidatePolygonError::NonManhattanEdge { index } => {
                write!(f, "edge starting at vertex {index} is not axis-parallel")
            }
            ValidatePolygonError::CollinearVertex { index } => {
                write!(f, "vertex {index} joins two parallel edges")
            }
        }
    }
}

impl Error for ValidatePolygonError {}

/// A rectilinear polygon given by its vertex loop.
///
/// Vertices may wind in either direction; the polygon is interpreted with
/// even-odd fill. Self-touching outlines (as produced by cutting a hole
/// with a zero-width slit, the GDSII idiom) decompose correctly.
///
/// ```
/// use dfm_geom::{Point, Polygon};
/// let l = Polygon::new([
///     Point::new(0, 0), Point::new(30, 0), Point::new(30, 10),
///     Point::new(10, 10), Point::new(10, 30), Point::new(0, 30),
/// ])?;
/// assert_eq!(l.area(), 500);
/// # Ok::<(), dfm_geom::ValidatePolygonError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Polygon {
    points: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from a vertex loop, validating rectilinearity.
    ///
    /// # Errors
    ///
    /// Returns [`ValidatePolygonError`] if fewer than four vertices are
    /// given, if any edge is not axis-parallel, or if consecutive edges
    /// are parallel.
    pub fn new<I: IntoIterator<Item = Point>>(points: I) -> Result<Self, ValidatePolygonError> {
        let points: Vec<Point> = points.into_iter().collect();
        if points.len() < 4 {
            return Err(ValidatePolygonError::TooFewPoints(points.len()));
        }
        let n = points.len();
        for i in 0..n {
            let a = points[i];
            let b = points[(i + 1) % n];
            if !(b - a).is_manhattan() {
                return Err(ValidatePolygonError::NonManhattanEdge { index: i });
            }
        }
        for i in 0..n {
            let prev = points[(i + n - 1) % n];
            let cur = points[i];
            let next = points[(i + 1) % n];
            let e1 = cur - prev;
            let e2 = next - cur;
            if (e1.x == 0) == (e2.x == 0) {
                return Err(ValidatePolygonError::CollinearVertex { index: i });
            }
        }
        Ok(Polygon { points })
    }

    /// Creates a rectangle polygon.
    pub fn from_rect(r: Rect) -> Self {
        Polygon {
            points: vec![
                Point::new(r.x0, r.y0),
                Point::new(r.x1, r.y0),
                Point::new(r.x1, r.y1),
                Point::new(r.x0, r.y1),
            ],
        }
    }

    /// The vertex loop.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.points.len()
    }

    /// Bounding box of the polygon.
    pub fn bbox(&self) -> Rect {
        let mut x0 = Coord::MAX;
        let mut y0 = Coord::MAX;
        let mut x1 = Coord::MIN;
        let mut y1 = Coord::MIN;
        for p in &self.points {
            x0 = x0.min(p.x);
            y0 = y0.min(p.y);
            x1 = x1.max(p.x);
            y1 = y1.max(p.y);
        }
        Rect { x0, y0, x1, y1 }
    }

    /// Unsigned area (even-odd fill; the shoelace absolute value).
    pub fn area(&self) -> i128 {
        let n = self.points.len();
        let mut acc: i128 = 0;
        for i in 0..n {
            let a = self.points[i];
            let b = self.points[(i + 1) % n];
            acc += (a.x as i128) * (b.y as i128) - (b.x as i128) * (a.y as i128);
        }
        (acc / 2).abs()
    }

    /// Perimeter length of the vertex loop.
    pub fn perimeter(&self) -> Coord {
        let n = self.points.len();
        (0..n)
            .map(|i| self.points[i].manhattan_distance(self.points[(i + 1) % n]))
            .sum()
    }

    /// Decomposes the polygon into disjoint rectangles (even-odd fill)
    /// using a horizontal slab sweep over its vertical edges.
    pub fn to_rects(&self) -> Vec<Rect> {
        // Collect vertical edges (x, ylo, yhi).
        let n = self.points.len();
        let mut vedges: Vec<(Coord, Coord, Coord)> = Vec::new();
        let mut ys: Vec<Coord> = Vec::new();
        for i in 0..n {
            let a = self.points[i];
            let b = self.points[(i + 1) % n];
            if a.x == b.x && a.y != b.y {
                vedges.push((a.x, a.y.min(b.y), a.y.max(b.y)));
                ys.push(a.y);
                ys.push(b.y);
            }
        }
        ys.sort_unstable();
        ys.dedup();
        let mut rects = Vec::new();
        for w in ys.windows(2) {
            let (ylo, yhi) = (w[0], w[1]);
            // Vertical edges crossing this slab, sorted by x; even-odd
            // pairing gives the covered x-intervals.
            let mut xs: Vec<Coord> = vedges
                .iter()
                .filter(|&&(_, e0, e1)| e0 <= ylo && yhi <= e1)
                .map(|&(x, _, _)| x)
                .collect();
            xs.sort_unstable();
            let ivs =
                IntervalSet::from_intervals(xs.chunks_exact(2).map(|c| Interval::new(c[0], c[1])));
            for iv in ivs.iter() {
                rects.push(Rect {
                    x0: iv.lo,
                    y0: ylo,
                    x1: iv.hi,
                    y1: yhi,
                });
            }
        }
        rects
    }

    /// Converts the polygon to a [`Region`].
    pub fn to_region(&self) -> Region {
        Region::from_rects(self.to_rects())
    }

    /// Applies a placement transform to every vertex.
    pub fn transformed(&self, t: &Transform) -> Polygon {
        Polygon {
            points: self.points.iter().map(|&p| t.apply(p)).collect(),
        }
    }

    /// True if the polygon is exactly an axis-aligned rectangle.
    pub fn as_rect(&self) -> Option<Rect> {
        if self.points.len() != 4 {
            return None;
        }
        let b = self.bbox();
        let want = [
            Point::new(b.x0, b.y0),
            Point::new(b.x1, b.y0),
            Point::new(b.x1, b.y1),
            Point::new(b.x0, b.y1),
        ];
        let all_corners = self.points.iter().all(|p| want.contains(p));
        if all_corners {
            Some(b)
        } else {
            None
        }
    }
}

impl fmt::Debug for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polygon{:?}", self.points)
    }
}

impl From<Rect> for Polygon {
    fn from(r: Rect) -> Self {
        Polygon::from_rect(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polygon {
        Polygon::new([
            Point::new(0, 0),
            Point::new(30, 0),
            Point::new(30, 10),
            Point::new(10, 10),
            Point::new(10, 30),
            Point::new(0, 30),
        ])
        .expect("valid L")
    }

    #[test]
    fn validation() {
        assert!(matches!(
            Polygon::new([Point::new(0, 0), Point::new(1, 0), Point::new(1, 1)]),
            Err(ValidatePolygonError::TooFewPoints(3))
        ));
        assert!(matches!(
            Polygon::new([
                Point::new(0, 0),
                Point::new(10, 10),
                Point::new(10, 0),
                Point::new(0, 10),
            ]),
            Err(ValidatePolygonError::NonManhattanEdge { .. })
        ));
        assert!(matches!(
            Polygon::new([
                Point::new(0, 0),
                Point::new(5, 0),
                Point::new(10, 0),
                Point::new(10, 10),
                Point::new(0, 10),
            ]),
            Err(ValidatePolygonError::NonManhattanEdge { .. }
                | ValidatePolygonError::CollinearVertex { .. })
        ));
    }

    #[test]
    fn l_shape_area_and_decomposition() {
        let l = l_shape();
        assert_eq!(l.area(), 500);
        assert_eq!(l.perimeter(), 120);
        let region = l.to_region();
        assert_eq!(region.area(), 500);
        assert_eq!(region.bbox(), Rect::new(0, 0, 30, 30));
    }

    #[test]
    fn winding_direction_irrelevant() {
        let mut pts: Vec<Point> = l_shape().points().to_vec();
        pts.reverse();
        let l = Polygon::new(pts).expect("reversed L is valid");
        assert_eq!(l.area(), 500);
        assert_eq!(l.to_region().area(), 500);
    }

    #[test]
    fn rect_roundtrip() {
        let r = Rect::new(5, 7, 20, 30);
        let p = Polygon::from_rect(r);
        assert_eq!(p.as_rect(), Some(r));
        assert_eq!(p.area(), r.area());
        assert_eq!(p.to_rects(), vec![r]);
    }

    #[test]
    fn u_shape_decomposes_into_three_slabs() {
        let u = Polygon::new([
            Point::new(0, 0),
            Point::new(30, 0),
            Point::new(30, 30),
            Point::new(20, 30),
            Point::new(20, 10),
            Point::new(10, 10),
            Point::new(10, 30),
            Point::new(0, 30),
        ])
        .expect("valid U");
        assert_eq!(u.area(), 30 * 10 + 2 * 10 * 20);
        let region = u.to_region();
        assert_eq!(region.area(), u.area());
        assert!(!region.contains_point(Point::new(15, 20)));
        assert!(region.contains_point(Point::new(5, 20)));
    }

    #[test]
    fn transformed_polygon() {
        use crate::{Rotation, Vector};
        let l = l_shape();
        let t = Transform::new(Vector::new(100, 0), Rotation::R90, false);
        let moved = l.transformed(&t);
        assert_eq!(moved.area(), 500);
        assert_eq!(moved.bbox(), Rect::new(70, 0, 100, 30));
    }

    #[test]
    fn as_rect_rejects_l() {
        assert_eq!(l_shape().as_rect(), None);
    }
}
