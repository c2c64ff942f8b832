//! Boundary-edge extraction from regions.
//!
//! DRC width/spacing checks are *edge-based*: they reason about pairs of
//! region boundary edges and which side of each edge is region interior.
//! [`BoundaryEdges`] is produced by [`Region::boundary_edges`](crate::Region::boundary_edges).

use crate::region::Slab;
use crate::{Coord, IntervalSet};
use std::collections::HashMap;

/// A vertical boundary edge at `x`, spanning `[y0, y1)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct VEdge {
    /// X position of the edge.
    pub x: Coord,
    /// Lower end of the span.
    pub y0: Coord,
    /// Upper end of the span.
    pub y1: Coord,
    /// True if the region interior lies on the +x side of the edge.
    pub interior_right: bool,
}

/// A horizontal boundary edge at `y`, spanning `[x0, x1)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct HEdge {
    /// Y position of the edge.
    pub y: Coord,
    /// Left end of the span.
    pub x0: Coord,
    /// Right end of the span.
    pub x1: Coord,
    /// True if the region interior lies on the +y side of the edge.
    pub interior_up: bool,
}

impl VEdge {
    /// Length of the edge.
    pub fn len(&self) -> Coord {
        self.y1 - self.y0
    }

    /// True for a degenerate zero-length edge.
    pub fn is_empty(&self) -> bool {
        self.y0 >= self.y1
    }
}

impl HEdge {
    /// Length of the edge.
    pub fn len(&self) -> Coord {
        self.x1 - self.x0
    }

    /// True for a degenerate zero-length edge.
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1
    }
}

/// The complete boundary of a region as axis-separated edge lists.
///
/// Each edge records which side is region interior, enabling the classic
/// edge-pair formulation of width (interior between the edges) and spacing
/// (exterior between the edges) checks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BoundaryEdges {
    /// Vertical edges, sorted by `(x, y0)`.
    pub vertical: Vec<VEdge>,
    /// Horizontal edges, sorted by `(y, x0)`.
    pub horizontal: Vec<HEdge>,
}

impl BoundaryEdges {
    /// Builds boundary edges from a slab decomposition (crate-internal).
    pub(crate) fn of_slabs(slabs: Vec<Slab>) -> BoundaryEdges {
        let empty = IntervalSet::new();
        let mut horizontal: Vec<HEdge> = Vec::new();
        // Vertical edge fragments keyed by (x, interior_right).
        let mut vfrag: HashMap<(Coord, bool), Vec<(Coord, Coord)>> = HashMap::new();

        // Walk boundaries between consecutive slabs (plus sentinels).
        let n = slabs.len();
        for i in 0..=n {
            let below: &IntervalSet = if i > 0 { &slabs[i - 1].xs } else { &empty };
            let below_y1 = if i > 0 { Some(slabs[i - 1].y1) } else { None };
            let (above, y): (&IntervalSet, Option<Coord>) = if i < n {
                (&slabs[i].xs, Some(slabs[i].y0))
            } else {
                (&empty, None)
            };

            // Determine the y of this boundary and whether below/above are
            // actually adjacent to it (slabs may be separated by gaps).
            // We process two potential boundaries: the top of the slab
            // below (if not contiguous with the slab above) and the bottom
            // of the slab above.
            let contiguous = match (below_y1, y) {
                (Some(b), Some(a)) => b == a,
                _ => false,
            };
            if contiguous {
                let yb = below_y1.expect("contiguous implies below exists");
                // Top edges: covered below, uncovered above.
                for iv in below.difference(above).iter() {
                    horizontal.push(HEdge {
                        y: yb,
                        x0: iv.lo,
                        x1: iv.hi,
                        interior_up: false,
                    });
                }
                // Bottom edges: covered above, uncovered below.
                for iv in above.difference(below).iter() {
                    horizontal.push(HEdge {
                        y: yb,
                        x0: iv.lo,
                        x1: iv.hi,
                        interior_up: true,
                    });
                }
            } else {
                if let Some(yb) = below_y1 {
                    for iv in below.iter() {
                        horizontal.push(HEdge {
                            y: yb,
                            x0: iv.lo,
                            x1: iv.hi,
                            interior_up: false,
                        });
                    }
                }
                if let Some(ya) = y {
                    for iv in above.iter() {
                        horizontal.push(HEdge {
                            y: ya,
                            x0: iv.lo,
                            x1: iv.hi,
                            interior_up: true,
                        });
                    }
                }
            }

            // Vertical fragments for the slab above this boundary.
            if i < n {
                let s = &slabs[i];
                for iv in s.xs.iter() {
                    vfrag.entry((iv.lo, true)).or_default().push((s.y0, s.y1));
                    vfrag.entry((iv.hi, false)).or_default().push((s.y0, s.y1));
                }
            }
        }

        // Merge vertical fragments that abut.
        let mut vertical: Vec<VEdge> = Vec::new();
        for ((x, interior_right), mut spans) in vfrag {
            spans.sort_unstable();
            let mut cur: Option<(Coord, Coord)> = None;
            for (y0, y1) in spans {
                match cur.as_mut() {
                    Some(c) if c.1 == y0 => c.1 = y1,
                    _ => {
                        if let Some((a, b)) = cur.take() {
                            vertical.push(VEdge {
                                x,
                                y0: a,
                                y1: b,
                                interior_right,
                            });
                        }
                        cur = Some((y0, y1));
                    }
                }
            }
            if let Some((a, b)) = cur {
                vertical.push(VEdge {
                    x,
                    y0: a,
                    y1: b,
                    interior_right,
                });
            }
        }

        vertical.sort_unstable_by_key(|e| (e.x, e.y0, e.interior_right));
        horizontal.sort_unstable_by_key(|e| (e.y, e.x0, e.interior_up));
        BoundaryEdges {
            vertical,
            horizontal,
        }
    }

    /// Total number of edges.
    pub fn len(&self) -> usize {
        self.vertical.len() + self.horizontal.len()
    }

    /// True if there are no edges.
    pub fn is_empty(&self) -> bool {
        self.vertical.is_empty() && self.horizontal.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Rect, Region};

    #[test]
    fn square_edges() {
        let r = Region::from_rect(Rect::new(0, 0, 10, 10));
        let e = r.boundary_edges();
        assert_eq!(e.vertical.len(), 2);
        assert_eq!(e.horizontal.len(), 2);
        let left = e.vertical.iter().find(|v| v.x == 0).expect("left edge");
        assert!(left.interior_right);
        assert_eq!((left.y0, left.y1), (0, 10));
        let right = e.vertical.iter().find(|v| v.x == 10).expect("right edge");
        assert!(!right.interior_right);
        let bottom = e.horizontal.iter().find(|h| h.y == 0).expect("bottom edge");
        assert!(bottom.interior_up);
        let top = e.horizontal.iter().find(|h| h.y == 10).expect("top edge");
        assert!(!top.interior_up);
    }

    #[test]
    fn stacked_rects_merge_vertical_edges() {
        // Two stacked rects (same x-span): side edges must merge into one
        // edge spanning the full height, and the internal boundary must
        // produce no horizontal edges.
        let r = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(0, 10, 10, 20)]);
        let e = r.boundary_edges();
        assert_eq!(e.vertical.len(), 2);
        assert_eq!(e.vertical[0].len(), 20);
        assert_eq!(e.horizontal.len(), 2);
    }

    #[test]
    fn l_shape_edges() {
        let r = Region::from_rects([Rect::new(0, 0, 30, 10), Rect::new(0, 10, 10, 30)]);
        let e = r.boundary_edges();
        // L-shape: 6 boundary segments total (3 vertical, 3 horizontal).
        assert_eq!(e.vertical.len(), 3);
        assert_eq!(e.horizontal.len(), 3);
        let step = e
            .horizontal
            .iter()
            .find(|h| h.y == 10 && h.x0 == 10)
            .expect("step edge at y=10");
        assert!(!step.interior_up);
        assert_eq!(step.x1, 30);
    }

    #[test]
    fn hole_produces_inner_boundary() {
        let donut = Region::from_rect(Rect::new(0, 0, 100, 100))
            .difference(&Region::from_rect(Rect::new(40, 40, 60, 60)));
        let e = donut.boundary_edges();
        // Outer square: 4 edges; inner square hole: 4 edges.
        assert_eq!(e.len(), 8);
        // Inner-left edge of the hole has interior on its *left* (-x).
        let hole_left = e
            .vertical
            .iter()
            .find(|v| v.x == 40 && v.y0 == 40)
            .expect("hole left edge");
        assert!(!hole_left.interior_right);
        assert_eq!(hole_left.y1, 60);
    }

    #[test]
    fn perimeter_matches_edge_sum() {
        let r = Region::from_rects([
            Rect::new(0, 0, 50, 20),
            Rect::new(20, 20, 50, 60),
            Rect::new(100, 0, 120, 20),
        ]);
        let e = r.boundary_edges();
        let total: i64 = e.vertical.iter().map(|v| v.len()).sum::<i64>()
            + e.horizontal.iter().map(|h| h.len()).sum::<i64>();
        assert_eq!(total, r.perimeter());
    }

    #[test]
    fn separated_slabs_get_full_edges() {
        // Two rects separated vertically: each gets its own top and bottom.
        let r = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(0, 20, 10, 30)]);
        let e = r.boundary_edges();
        assert_eq!(e.horizontal.len(), 4);
        assert_eq!(e.vertical.len(), 4);
    }
}
