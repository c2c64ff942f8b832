//! GDSII-style placement transforms.

use crate::{Point, Rect, Vector};
use std::fmt;

/// A rotation by a multiple of 90 degrees, counter-clockwise.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Rotation {
    /// No rotation.
    #[default]
    R0,
    /// 90° counter-clockwise.
    R90,
    /// 180°.
    R180,
    /// 270° counter-clockwise.
    R270,
}

impl Rotation {
    /// Composition of two rotations.
    pub fn compose(self, other: Rotation) -> Rotation {
        Rotation::from_quarter_turns(self.quarter_turns() + other.quarter_turns())
    }

    /// Number of quarter turns (0–3).
    pub fn quarter_turns(self) -> u8 {
        match self {
            Rotation::R0 => 0,
            Rotation::R90 => 1,
            Rotation::R180 => 2,
            Rotation::R270 => 3,
        }
    }

    /// Rotation from a quarter-turn count (taken mod 4).
    pub fn from_quarter_turns(n: u8) -> Rotation {
        match n % 4 {
            0 => Rotation::R0,
            1 => Rotation::R90,
            2 => Rotation::R180,
            _ => Rotation::R270,
        }
    }

    /// The inverse rotation.
    pub fn inverse(self) -> Rotation {
        Rotation::from_quarter_turns(4 - self.quarter_turns())
    }

    fn apply(self, v: Vector) -> Vector {
        match self {
            Rotation::R0 => v,
            Rotation::R90 => Vector::new(-v.y, v.x),
            Rotation::R180 => Vector::new(-v.x, -v.y),
            Rotation::R270 => Vector::new(v.y, -v.x),
        }
    }
}

/// A GDSII placement transform: optional mirror about the x-axis, then a
/// counter-clockwise rotation, then a translation.
///
/// This matches the `STRANS`/`ANGLE` semantics of GDSII structure
/// references restricted to the Manhattan subgroup (the only one legal in
/// this workspace).
///
/// ```
/// use dfm_geom::{Point, Rotation, Transform, Vector};
/// let t = Transform::new(Vector::new(100, 0), Rotation::R90, false);
/// assert_eq!(t.apply(Point::new(10, 0)), Point::new(100, 10));
/// let inv = t.inverse();
/// assert_eq!(inv.apply(t.apply(Point::new(3, 4))), Point::new(3, 4));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Transform {
    /// Translation applied last.
    pub offset: Vector,
    /// Counter-clockwise rotation applied after mirroring.
    pub rotation: Rotation,
    /// Mirror about the x-axis (y → −y), applied first.
    pub mirror_x: bool,
}

impl Transform {
    /// Creates a transform from its parts.
    pub fn new(offset: Vector, rotation: Rotation, mirror_x: bool) -> Self {
        Transform {
            offset,
            rotation,
            mirror_x,
        }
    }

    /// The identity transform.
    pub fn identity() -> Self {
        Transform::default()
    }

    /// A pure translation.
    pub fn translate(offset: Vector) -> Self {
        Transform {
            offset,
            ..Default::default()
        }
    }

    /// Applies the transform to a point.
    pub fn apply(&self, p: Point) -> Point {
        let mut v = p.to_vector();
        if self.mirror_x {
            v = Vector::new(v.x, -v.y);
        }
        v = self.rotation.apply(v);
        Point::origin() + v + self.offset
    }

    /// Applies the transform to a rectangle (result re-canonicalised).
    pub fn apply_rect(&self, r: Rect) -> Rect {
        Rect::from_points(self.apply(r.lo()), self.apply(r.hi()))
    }

    /// Composition: `self.then(outer)` applies `self` first, then `outer`.
    pub fn then(&self, outer: &Transform) -> Transform {
        // Compose linear parts. Linear part L = R ∘ M (mirror first).
        // (L2 ∘ T1)(p) = L2(L1 p + t1) + t2 = (L2∘L1) p + L2 t1 + t2.
        let lin_offset = outer.linear_apply(self.offset);
        let (rotation, mirror_x) = compose_linear(
            (self.rotation, self.mirror_x),
            (outer.rotation, outer.mirror_x),
        );
        Transform {
            offset: lin_offset + outer.offset,
            rotation,
            mirror_x,
        }
    }

    /// The inverse transform.
    pub fn inverse(&self) -> Transform {
        // p' = R(M p) + t  =>  p = M⁻¹(R⁻¹(p' - t)) = M(R⁻¹ p') - M(R⁻¹ t)
        // Express inverse in (mirror-then-rotate) canonical form:
        // M ∘ R⁻¹ = R ∘ M where R = conjugated rotation.
        let inv_rot = self.rotation.inverse();
        let (rotation, mirror_x) = if self.mirror_x {
            // M ∘ R(-θ) = R(θ) ∘ M
            (self.rotation, true)
        } else {
            (inv_rot, false)
        };
        let lin = Transform {
            offset: Vector::zero(),
            rotation,
            mirror_x,
        };
        let offset = -lin.linear_apply(self.offset);
        Transform {
            offset,
            rotation,
            mirror_x,
        }
    }

    /// Applies only the linear (mirror+rotation) part to a vector.
    pub fn linear_apply(&self, v: Vector) -> Vector {
        let v = if self.mirror_x {
            Vector::new(v.x, -v.y)
        } else {
            v
        };
        self.rotation.apply(v)
    }
}

/// Composes two linear parts given as (rotation, mirror) pairs in
/// mirror-first canonical form.
fn compose_linear(inner: (Rotation, bool), outer: (Rotation, bool)) -> (Rotation, bool) {
    let (r1, m1) = inner;
    let (r2, m2) = outer;
    // Group law in the dihedral group D4 with canonical form R^a M^b:
    // (R^a2 M^b2)(R^a1 M^b1) = R^(a2 + s*a1) M^(b2+b1), where s = -1 if b2.
    let a1 = r1.quarter_turns() as i8;
    let a2 = r2.quarter_turns() as i8;
    let signed = if m2 { a2 - a1 } else { a2 + a1 };
    let a = signed.rem_euclid(4) as u8;
    (Rotation::from_quarter_turns(a), m1 != m2)
}

impl fmt::Debug for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Transform(t={:?}, {:?}{})",
            self.offset,
            self.rotation,
            if self.mirror_x { ", mirrored" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotations() {
        let p = Point::new(10, 0);
        let r90 = Transform::new(Vector::zero(), Rotation::R90, false);
        assert_eq!(r90.apply(p), Point::new(0, 10));
        let r180 = Transform::new(Vector::zero(), Rotation::R180, false);
        assert_eq!(r180.apply(p), Point::new(-10, 0));
        let r270 = Transform::new(Vector::zero(), Rotation::R270, false);
        assert_eq!(r270.apply(p), Point::new(0, -10));
    }

    #[test]
    fn mirror_then_rotate() {
        // GDS semantics: mirror about x first, then rotate.
        let t = Transform::new(Vector::zero(), Rotation::R90, true);
        // (10, 5) -mirror-> (10, -5) -rot90-> (5, 10)
        assert_eq!(t.apply(Point::new(10, 5)), Point::new(5, 10));
    }

    #[test]
    fn rect_transform_is_canonical() {
        let t = Transform::new(Vector::new(0, 0), Rotation::R180, false);
        let r = t.apply_rect(Rect::new(0, 0, 10, 20));
        assert_eq!(r, Rect::new(-10, -20, 0, 0));
    }

    #[test]
    fn inverse_roundtrip_all_cases() {
        let pts = [Point::new(3, 7), Point::new(-5, 11), Point::new(0, 0)];
        for mirror in [false, true] {
            for rot in [Rotation::R0, Rotation::R90, Rotation::R180, Rotation::R270] {
                let t = Transform::new(Vector::new(13, -4), rot, mirror);
                let inv = t.inverse();
                for &p in &pts {
                    assert_eq!(inv.apply(t.apply(p)), p, "t={t:?}");
                    assert_eq!(t.apply(inv.apply(p)), p, "t={t:?}");
                }
            }
        }
    }

    #[test]
    fn composition_matches_sequential_application() {
        let pts = [Point::new(1, 2), Point::new(-3, 5)];
        for m1 in [false, true] {
            for m2 in [false, true] {
                for r1 in [Rotation::R0, Rotation::R90, Rotation::R180, Rotation::R270] {
                    for r2 in [Rotation::R0, Rotation::R90, Rotation::R270] {
                        let t1 = Transform::new(Vector::new(10, 20), r1, m1);
                        let t2 = Transform::new(Vector::new(-7, 3), r2, m2);
                        let c = t1.then(&t2);
                        for &p in &pts {
                            assert_eq!(
                                c.apply(p),
                                t2.apply(t1.apply(p)),
                                "m1={m1} m2={m2} r1={r1:?} r2={r2:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rotation_group_laws() {
        assert_eq!(Rotation::R90.compose(Rotation::R90), Rotation::R180);
        assert_eq!(Rotation::R270.compose(Rotation::R90), Rotation::R0);
        assert_eq!(Rotation::R90.inverse(), Rotation::R270);
        assert_eq!(Rotation::R0.inverse(), Rotation::R0);
    }
}
