//! Axis-aligned rectangles.

use crate::{Coord, Point, Vector};
use std::fmt;

/// An axis-aligned rectangle with integer corners.
///
/// A `Rect` is always stored in canonical form: `x0 <= x1` and `y0 <= y1`.
/// Rectangles are treated as *closed* regions of the plane; a rectangle with
/// `x0 == x1` or `y0 == y1` is degenerate (zero area) and is considered
/// [empty](Rect::is_empty) by the boolean engine.
///
/// ```
/// use dfm_geom::Rect;
/// let r = Rect::new(30, 40, 10, 20); // corners in any order
/// assert_eq!((r.x0, r.y0, r.x1, r.y1), (10, 20, 30, 40));
/// assert_eq!(r.area(), 400);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rect {
    /// Left edge coordinate.
    pub x0: Coord,
    /// Bottom edge coordinate.
    pub y0: Coord,
    /// Right edge coordinate.
    pub x1: Coord,
    /// Top edge coordinate.
    pub y1: Coord,
}

impl Rect {
    /// Creates a rectangle from two opposite corners given in any order.
    pub fn new(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Self {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Creates a rectangle from two corner points given in any order.
    pub fn from_points(a: Point, b: Point) -> Self {
        Rect::new(a.x, a.y, b.x, b.y)
    }

    /// Creates a `w × h` rectangle whose centre is `c`.
    ///
    /// For odd `w`/`h` the extra unit goes to the high side.
    pub fn centered_at(c: Point, w: Coord, h: Coord) -> Self {
        let hw = w / 2;
        let hh = h / 2;
        Rect::new(c.x - hw, c.y - hh, c.x - hw + w, c.y - hh + h)
    }

    /// The degenerate empty rectangle at the origin.
    pub const fn empty() -> Self {
        Rect {
            x0: 0,
            y0: 0,
            x1: 0,
            y1: 0,
        }
    }

    /// Width of the rectangle (`x1 - x0`).
    pub fn width(&self) -> Coord {
        self.x1 - self.x0
    }

    /// Height of the rectangle (`y1 - y0`).
    pub fn height(&self) -> Coord {
        self.y1 - self.y0
    }

    /// Area of the rectangle. Widened to `i128` to avoid overflow on
    /// full-chip extents.
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// True if the rectangle has zero area.
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// Centre point (rounded towards negative infinity).
    pub fn center(&self) -> Point {
        Point::new(
            self.x0 + (self.x1 - self.x0) / 2,
            self.y0 + (self.y1 - self.y0) / 2,
        )
    }

    /// Bottom-left corner.
    pub fn lo(&self) -> Point {
        Point::new(self.x0, self.y0)
    }

    /// Top-right corner.
    pub fn hi(&self) -> Point {
        Point::new(self.x1, self.y1)
    }

    /// True if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        self.x0 <= p.x && p.x <= self.x1 && self.y0 <= p.y && p.y <= self.y1
    }

    /// True if `other` lies entirely inside or on the boundary of `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.x0 <= other.x0 && other.x1 <= self.x1 && self.y0 <= other.y0 && other.y1 <= self.y1
    }

    /// True if the two rectangles share interior area (touching edges do
    /// not count).
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// True if the two closed rectangles share at least a boundary point.
    pub fn touches(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// Intersection with another rectangle, if non-degenerate.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let r = Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        };
        if r.is_empty() {
            None
        } else {
            Some(r)
        }
    }

    /// Smallest rectangle containing both operands.
    pub fn bounding_union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// The rectangle grown by `d` on all four sides (negative `d` shrinks;
    /// the result is canonicalised, so over-shrinking yields an empty rect).
    pub fn expanded(&self, d: Coord) -> Rect {
        let r = Rect {
            x0: self.x0 - d,
            y0: self.y0 - d,
            x1: self.x1 + d,
            y1: self.y1 + d,
        };
        if r.x0 > r.x1 || r.y0 > r.y1 {
            Rect::empty()
        } else {
            r
        }
    }

    /// The rectangle translated by `v`.
    pub fn translated(&self, v: Vector) -> Rect {
        Rect {
            x0: self.x0 + v.x,
            y0: self.y0 + v.y,
            x1: self.x1 + v.x,
            y1: self.y1 + v.y,
        }
    }

    /// Axis-wise gap to another rectangle: `(dx, dy)` where each component
    /// is the empty distance along that axis (0 when the projections
    /// overlap or touch).
    ///
    /// The Euclidean separation between the two closed rectangles is
    /// `sqrt(dx² + dy²)`; the Manhattan-projected separation used by most
    /// spacing rules is `max(dx, dy)` when exactly one of them is zero.
    pub fn gap(&self, other: &Rect) -> (Coord, Coord) {
        let dx = if self.x1 < other.x0 {
            other.x0 - self.x1
        } else if other.x1 < self.x0 {
            self.x0 - other.x1
        } else {
            0
        };
        let dy = if self.y1 < other.y0 {
            other.y0 - self.y1
        } else if other.y1 < self.y0 {
            self.y0 - other.y1
        } else {
            0
        };
        (dx, dy)
    }

    /// Squared Euclidean distance between the two closed rectangles
    /// (0 when they touch or overlap).
    pub fn dist2(&self, other: &Rect) -> i128 {
        let (dx, dy) = self.gap(other);
        dx as i128 * dx as i128 + dy as i128 * dy as i128
    }
}

impl Default for Rect {
    /// The [empty](Rect::empty) rectangle.
    fn default() -> Self {
        Rect::empty()
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{} .. {},{}]", self.x0, self.y0, self.x1, self.y1)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{} .. {},{}]", self.x0, self.y0, self.x1, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalisation() {
        let r = Rect::new(10, 10, 0, 0);
        assert_eq!(r, Rect::new(0, 0, 10, 10));
        assert!(!r.is_empty());
        assert!(Rect::new(5, 5, 5, 9).is_empty());
    }

    #[test]
    fn containment_and_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(2, 2, 8, 8);
        let c = Rect::new(10, 0, 20, 10);
        assert!(a.contains_rect(&b));
        assert!(!b.contains_rect(&a));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // share an edge only
        assert!(a.touches(&c));
        assert!(a.contains(Point::new(10, 10)));
        assert!(!a.contains(Point::new(11, 10)));
    }

    #[test]
    fn intersection_union() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
        assert_eq!(a.intersection(&Rect::new(20, 20, 30, 30)), None);
        assert_eq!(a.bounding_union(&b), Rect::new(0, 0, 15, 15));
    }

    #[test]
    fn expansion() {
        let r = Rect::new(10, 10, 20, 20);
        assert_eq!(r.expanded(5), Rect::new(5, 5, 25, 25));
        assert_eq!(r.expanded(-4), Rect::new(14, 14, 16, 16));
        assert!(r.expanded(-6).is_empty());
    }

    #[test]
    fn gaps() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(15, 0, 25, 10);
        assert_eq!(a.gap(&b), (5, 0));
        let c = Rect::new(15, 20, 25, 30);
        assert_eq!(a.gap(&c), (5, 10));
        assert_eq!(a.dist2(&c), 125);
        assert_eq!(a.gap(&Rect::new(5, 5, 6, 6)), (0, 0));
    }

    #[test]
    fn centered() {
        let r = Rect::centered_at(Point::new(100, 100), 10, 20);
        assert_eq!(r, Rect::new(95, 90, 105, 110));
        assert_eq!(r.center(), Point::new(100, 100));
    }
}
