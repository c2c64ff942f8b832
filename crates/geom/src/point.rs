//! Points and vectors in the integer layout plane.

use crate::Coord;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A position in the layout plane, in database units.
///
/// ```
/// use dfm_geom::{Point, Vector};
/// let p = Point::new(10, 20) + Vector::new(5, -5);
/// assert_eq!(p, Point::new(15, 15));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Coord,
    /// Vertical coordinate.
    pub y: Coord,
}

/// A displacement in the layout plane, in database units.
///
/// Distinguished from [`Point`] so that positions and offsets cannot be
/// accidentally mixed (a point plus a vector is a point; a point minus a
/// point is a vector).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vector {
    /// Horizontal component.
    pub x: Coord,
    /// Vertical component.
    pub y: Coord,
}

impl Point {
    /// Creates a point from its coordinates.
    pub const fn new(x: Coord, y: Coord) -> Self {
        Point { x, y }
    }

    /// The origin, `(0, 0)`.
    pub const fn origin() -> Self {
        Point { x: 0, y: 0 }
    }

    /// Manhattan (L1) distance to another point.
    ///
    /// ```
    /// use dfm_geom::Point;
    /// assert_eq!(Point::new(0, 0).manhattan_distance(Point::new(3, -4)), 7);
    /// ```
    pub fn manhattan_distance(self, other: Point) -> Coord {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Chebyshev (L∞) distance to another point.
    pub fn chebyshev_distance(self, other: Point) -> Coord {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }

    /// Returns this point as a vector from the origin.
    pub fn to_vector(self) -> Vector {
        Vector {
            x: self.x,
            y: self.y,
        }
    }
}

impl Vector {
    /// Creates a vector from its components.
    pub const fn new(x: Coord, y: Coord) -> Self {
        Vector { x, y }
    }

    /// The zero vector.
    pub const fn zero() -> Self {
        Vector { x: 0, y: 0 }
    }

    /// Cross product z-component (`self.x * other.y - self.y * other.x`).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    pub fn cross(self, other: Vector) -> i128 {
        self.x as i128 * other.y as i128 - self.y as i128 * other.x as i128
    }

    /// Dot product, widened to `i128` to avoid overflow.
    pub fn dot(self, other: Vector) -> i128 {
        self.x as i128 * other.x as i128 + self.y as i128 * other.y as i128
    }

    /// True if the vector is axis-parallel (one component zero) and nonzero.
    pub fn is_manhattan(self) -> bool {
        (self.x == 0) != (self.y == 0)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.x, self.y)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.x, self.y)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vector> for Point {
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sub<Point> for Point {
    type Output = Vector;
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vector> for Vector {
    type Output = Vector;
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vector> for Vector {
    type Output = Vector;
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

impl Mul<Coord> for Vector {
    type Output = Vector;
    fn mul(self, rhs: Coord) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl From<(Coord, Coord)> for Point {
    fn from((x, y): (Coord, Coord)) -> Self {
        Point::new(x, y)
    }
}

impl From<(Coord, Coord)> for Vector {
    fn from((x, y): (Coord, Coord)) -> Self {
        Vector::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_vector_arithmetic() {
        let p = Point::new(1, 2);
        let v = Vector::new(10, -10);
        assert_eq!(p + v, Point::new(11, -8));
        assert_eq!(p - v, Point::new(-9, 12));
        assert_eq!(Point::new(5, 5) - Point::new(2, 1), Vector::new(3, 4));
        assert_eq!(-v, Vector::new(-10, 10));
        assert_eq!(v * 3, Vector::new(30, -30));
    }

    #[test]
    fn distances() {
        let a = Point::new(0, 0);
        let b = Point::new(3, -4);
        assert_eq!(a.manhattan_distance(b), 7);
        assert_eq!(a.chebyshev_distance(b), 4);
    }

    #[test]
    fn cross_and_dot() {
        let x = Vector::new(1, 0);
        let y = Vector::new(0, 1);
        assert_eq!(x.cross(y), 1);
        assert_eq!(y.cross(x), -1);
        assert_eq!(x.dot(y), 0);
        assert_eq!(x.dot(x), 1);
    }

    #[test]
    fn is_manhattan() {
        assert!(Vector::new(5, 0).is_manhattan());
        assert!(Vector::new(0, -5).is_manhattan());
        assert!(!Vector::new(0, 0).is_manhattan());
        assert!(!Vector::new(1, 1).is_manhattan());
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Point::new(0, 100) < Point::new(1, -100));
        assert!(Point::new(1, 0) < Point::new(1, 1));
    }
}
