//! Boundary-loop tracing: region → closed polygon outlines.
//!
//! Converts a region's boundary edges into closed rectilinear vertex
//! loops. Outer boundaries come out **counter-clockwise**, hole
//! boundaries **clockwise** (the interior is always on the left of the
//! travel direction). Self-touching corners (four edges meeting at a
//! point, as in a checkerboard) are resolved by always taking the
//! left-most turn, which keeps every loop simple (non-self-crossing).

use crate::{Point, Polygon, Region, Vector};
use std::collections::HashMap;

/// One directed boundary segment.
#[derive(Clone, Copy, Debug)]
struct DirEdge {
    from: Point,
    to: Point,
}

impl DirEdge {
    fn dir(&self) -> Vector {
        let d = self.to - self.from;
        Vector::new(d.x.signum(), d.y.signum())
    }
}

/// Traces the boundary loops of a region.
///
/// Returns every closed loop as a [`Polygon`]; outer loops wind
/// counter-clockwise (positive shoelace), holes clockwise. The union of
/// the loops under even-odd fill reproduces the region exactly.
pub fn boundary_loops(region: &Region) -> Vec<Polygon> {
    let edges = region.boundary_edges();
    // Orient every edge so the interior is on its left.
    let mut directed: Vec<DirEdge> = Vec::with_capacity(edges.len());
    for v in &edges.vertical {
        if v.interior_right {
            // Interior at +x: travel downward.
            directed.push(DirEdge {
                from: Point::new(v.x, v.y1),
                to: Point::new(v.x, v.y0),
            });
        } else {
            directed.push(DirEdge {
                from: Point::new(v.x, v.y0),
                to: Point::new(v.x, v.y1),
            });
        }
    }
    for h in &edges.horizontal {
        if h.interior_up {
            // Interior at +y: travel rightward.
            directed.push(DirEdge {
                from: Point::new(h.x0, h.y),
                to: Point::new(h.x1, h.y),
            });
        } else {
            directed.push(DirEdge {
                from: Point::new(h.x1, h.y),
                to: Point::new(h.x0, h.y),
            });
        }
    }

    // Index edges by start point.
    let mut by_start: HashMap<Point, Vec<usize>> = HashMap::new();
    for (i, e) in directed.iter().enumerate() {
        by_start.entry(e.from).or_default().push(i);
    }
    let mut used = vec![false; directed.len()];

    let mut loops = Vec::new();
    for start in 0..directed.len() {
        if used[start] {
            continue;
        }
        // Trace one loop.
        let mut points: Vec<Point> = Vec::new();
        let mut cur = start;
        loop {
            used[cur] = true;
            points.push(directed[cur].from);
            let at = directed[cur].to;
            let incoming = directed[cur].dir();
            // Candidates leaving `at`; prefer the left-most turn so
            // self-touching corners don't cross loops.
            let next = by_start
                .get(&at)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&i| !used[i])
                .min_by_key(|&i| turn_rank(incoming, directed[i].dir()));
            match next {
                Some(n) => cur = n,
                None => break, // returned to the loop start
            }
        }
        // Drop collinear midpoints (consecutive edges may be split).
        let cleaned = remove_collinear(points);
        if cleaned.len() >= 4 {
            loops.push(Polygon::new(cleaned).expect("traced loop is rectilinear"));
        }
    }
    loops
}

/// Ranks the turn from `incoming` to `outgoing`: left turn best, then
/// straight, then right turn. A U-turn never occurs on region boundaries.
fn turn_rank(incoming: Vector, outgoing: Vector) -> u8 {
    let cross = incoming.cross(outgoing);
    if cross > 0 {
        0 // left
    } else if cross == 0 {
        1 // straight
    } else {
        2 // right
    }
}

fn remove_collinear(points: Vec<Point>) -> Vec<Point> {
    let n = points.len();
    if n < 3 {
        return points;
    }
    let mut out: Vec<Point> = Vec::with_capacity(n);
    for i in 0..n {
        let prev = points[(i + n - 1) % n];
        let cur = points[i];
        let next = points[(i + 1) % n];
        let d1 = cur - prev;
        let d2 = next - cur;
        // Keep only true corners.
        if d1.cross(d2) != 0 {
            out.push(cur);
        }
    }
    out
}

/// Signed area of a polygon loop (positive = counter-clockwise).
pub fn signed_area(poly: &Polygon) -> i128 {
    let pts = poly.points();
    let n = pts.len();
    let mut acc: i128 = 0;
    for i in 0..n {
        let a = pts[i];
        let b = pts[(i + 1) % n];
        acc += a.x as i128 * b.y as i128 - b.x as i128 * a.y as i128;
    }
    acc / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    #[test]
    fn square_traces_one_ccw_loop() {
        let r = Region::from_rect(Rect::new(0, 0, 100, 50));
        let loops = boundary_loops(&r);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].vertex_count(), 4);
        assert_eq!(signed_area(&loops[0]), 100 * 50);
        assert_eq!(loops[0].area(), r.area());
    }

    #[test]
    fn l_shape_traces_six_corners() {
        let r = Region::from_rects([Rect::new(0, 0, 30, 10), Rect::new(0, 10, 10, 30)]);
        let loops = boundary_loops(&r);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].vertex_count(), 6);
        assert_eq!(signed_area(&loops[0]), r.area());
    }

    #[test]
    fn donut_traces_outer_ccw_and_hole_cw() {
        let donut = Region::from_rect(Rect::new(0, 0, 100, 100))
            .difference(&Region::from_rect(Rect::new(40, 40, 60, 60)));
        let mut loops = boundary_loops(&donut);
        assert_eq!(loops.len(), 2);
        loops.sort_by_key(|l| -l.area());
        assert!(signed_area(&loops[0]) > 0, "outer is CCW");
        assert!(signed_area(&loops[1]) < 0, "hole is CW");
        // Even-odd reconstruction: outer − hole = donut.
        assert_eq!(
            signed_area(&loops[0]) + signed_area(&loops[1]),
            donut.area()
        );
    }

    #[test]
    fn separate_islands_trace_separately() {
        let r = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(100, 100, 120, 130)]);
        let loops = boundary_loops(&r);
        assert_eq!(loops.len(), 2);
        let total: i128 = loops.iter().map(signed_area).sum();
        assert_eq!(total, r.area());
    }

    #[test]
    fn corner_touching_squares_stay_simple() {
        // Two squares sharing only a corner: left-most-turn tracing must
        // produce two simple loops (not one figure-eight).
        let r = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(10, 10, 20, 20)]);
        let loops = boundary_loops(&r);
        assert_eq!(loops.len(), 2);
        for l in &loops {
            assert_eq!(l.vertex_count(), 4);
            assert!(signed_area(l) > 0);
        }
    }

    #[test]
    fn loops_reconstruct_region_area_on_complex_shape() {
        let r = Region::from_rects([
            Rect::new(0, 0, 100, 20),
            Rect::new(0, 20, 20, 100),
            Rect::new(80, 20, 100, 100),
            Rect::new(0, 100, 100, 120),
            // This makes a ring with a rectangular hole 20..80 x 20..100.
        ]);
        let loops = boundary_loops(&r);
        let total: i128 = loops.iter().map(signed_area).sum();
        assert_eq!(total, r.area());
        assert_eq!(loops.len(), 2);
    }

    #[test]
    fn empty_region_no_loops() {
        assert!(boundary_loops(&Region::new()).is_empty());
    }
}
