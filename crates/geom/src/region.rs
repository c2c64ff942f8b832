//! Disjoint rectangle-set regions with exact boolean operations.

use crate::edge::BoundaryEdges;
use crate::{Coord, Interval, IntervalSet, Point, Rect, Vector};
use std::fmt;

/// A boolean operation on regions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BoolOp {
    /// Points in either operand.
    Union,
    /// Points in both operands.
    Intersection,
    /// Points in the first operand but not the second.
    Difference,
    /// Points in exactly one operand.
    Xor,
}

/// A region of the plane represented as a set of pairwise disjoint
/// rectangles.
///
/// The rects are canonical (maximal slabs, merged vertically) only where
/// a method normalises: `from_rects`, the booleans and the morphology.
/// `clipped`, `difference`'s pass-through rects, `inside`,
/// `connected_components` and `from_disjoint_rects` keep the disjoint
/// rects they are given, so equal regions may differ in their rects.
///
/// `Region` is the workhorse of every physical-verification algorithm in
/// the workspace: DRC checks, lithography rasterisation, critical-area
/// extraction and fill generation all operate on regions. All operations
/// are exact over integer coordinates.
///
/// Internally rectangles behave as half-open boxes `[x0, x1) × [y0, y1)`,
/// so regions that merely share an edge merge seamlessly under
/// [`union`](Region::union) and have zero-area intersection.
///
/// ```
/// use dfm_geom::{Rect, Region};
/// let l_shape = Region::from_rects([
///     Rect::new(0, 0, 30, 10),
///     Rect::new(0, 10, 10, 30),
/// ]);
/// assert_eq!(l_shape.area(), 300 + 200);
/// assert_eq!(l_shape.bbox(), Rect::new(0, 0, 30, 30));
/// ```
#[derive(Clone, Default)]
pub struct Region {
    rects: Vec<Rect>,
}

impl PartialEq for Region {
    /// Semantic equality: two regions are equal when they cover exactly
    /// the same points, regardless of how the covering is decomposed into
    /// rectangles.
    fn eq(&self, other: &Self) -> bool {
        self.area() == other.area() && self.xor(other).is_empty()
    }
}

impl Eq for Region {}

/// One horizontal slab of a region decomposition: the y-range and the
/// x-interval coverage within it.
pub(crate) struct Slab {
    pub y0: Coord,
    pub y1: Coord,
    pub xs: IntervalSet,
}

/// Decomposes a set of (possibly overlapping) rectangles into maximal
/// horizontal slabs with canonical x-interval coverage. Empty slabs are
/// omitted.
pub(crate) fn slab_decompose(rects: &[Rect]) -> Vec<Slab> {
    if rects.is_empty() {
        return Vec::new();
    }
    let mut ys: Vec<Coord> = Vec::with_capacity(rects.len() * 2);
    for r in rects {
        if !r.is_empty() {
            ys.push(r.y0);
            ys.push(r.y1);
        }
    }
    ys.sort_unstable();
    ys.dedup();

    // Event lists: rects starting / ending at each y.
    let mut by_start: Vec<usize> = (0..rects.len()).filter(|&i| !rects[i].is_empty()).collect();
    by_start.sort_unstable_by_key(|&i| rects[i].y0);
    let mut by_end: Vec<usize> = by_start.clone();
    by_end.sort_unstable_by_key(|&i| rects[i].y1);

    let mut active: Vec<usize> = Vec::new();
    let mut si = 0usize;
    let mut ei = 0usize;
    let mut out = Vec::new();
    for w in ys.windows(2) {
        let (ylo, yhi) = (w[0], w[1]);
        while si < by_start.len() && rects[by_start[si]].y0 <= ylo {
            active.push(by_start[si]);
            si += 1;
        }
        while ei < by_end.len() && rects[by_end[ei]].y1 <= ylo {
            let gone = by_end[ei];
            active.retain(|&i| i != gone);
            ei += 1;
        }
        if active.is_empty() {
            continue;
        }
        let xs = IntervalSet::from_intervals(
            active
                .iter()
                .map(|&i| Interval::new(rects[i].x0, rects[i].x1)),
        );
        if !xs.is_empty() {
            out.push(Slab {
                y0: ylo,
                y1: yhi,
                xs,
            });
        }
    }
    out
}

/// Converts slabs back to rectangles, merging vertically-adjacent rects
/// that share an identical x-interval.
fn slabs_to_rects(slabs: Vec<Slab>) -> Vec<Rect> {
    // Collect per-slab rects, then coalesce runs with identical x-span.
    let mut open: Vec<Rect> = Vec::new(); // rects whose top edge is the previous slab top
    let mut done: Vec<Rect> = Vec::new();
    let mut prev_y1: Option<Coord> = None;
    for slab in slabs {
        let mut next_open: Vec<Rect> = Vec::with_capacity(slab.xs.as_slice().len());
        let contiguous = prev_y1 == Some(slab.y0);
        for iv in slab.xs.iter() {
            let mut r = Rect {
                x0: iv.lo,
                y0: slab.y0,
                x1: iv.hi,
                y1: slab.y1,
            };
            if contiguous {
                // Try to extend an open rect with the same x-span.
                if let Some(pos) = open.iter().position(|o| o.x0 == r.x0 && o.x1 == r.x1) {
                    let o = open.swap_remove(pos);
                    r.y0 = o.y0;
                }
            }
            next_open.push(r);
        }
        done.append(&mut open);
        open = next_open;
        prev_y1 = Some(slab.y1);
    }
    done.append(&mut open);
    done
}

/// Core boolean sweep: joint y-slab decomposition of both operand rect
/// sets with 1-D interval combination per slab.
fn boolean_raw(a_rects: &[Rect], b_rects: &[Rect], op: BoolOp) -> Region {
    let mut ys: Vec<Coord> = Vec::with_capacity(2 * (a_rects.len() + b_rects.len()));
    for r in a_rects.iter().chain(b_rects.iter()) {
        ys.push(r.y0);
        ys.push(r.y1);
    }
    ys.sort_unstable();
    ys.dedup();
    if ys.len() < 2 {
        return Region::new();
    }

    let slabs_a = slab_decompose(a_rects);
    let slabs_b = slab_decompose(b_rects);
    let empty = IntervalSet::new();
    let mut ai = 0usize;
    let mut bi = 0usize;
    let mut out_slabs = Vec::new();
    for w in ys.windows(2) {
        let (ylo, yhi) = (w[0], w[1]);
        while ai < slabs_a.len() && slabs_a[ai].y1 <= ylo {
            ai += 1;
        }
        while bi < slabs_b.len() && slabs_b[bi].y1 <= ylo {
            bi += 1;
        }
        let xa = if ai < slabs_a.len() && slabs_a[ai].y0 <= ylo && ylo < slabs_a[ai].y1 {
            &slabs_a[ai].xs
        } else {
            &empty
        };
        let xb = if bi < slabs_b.len() && slabs_b[bi].y0 <= ylo && ylo < slabs_b[bi].y1 {
            &slabs_b[bi].xs
        } else {
            &empty
        };
        let combined = match op {
            BoolOp::Union => xa.union(xb),
            BoolOp::Intersection => xa.intersection(xb),
            BoolOp::Difference => xa.difference(xb),
            BoolOp::Xor => xa.xor(xb),
        };
        if !combined.is_empty() {
            out_slabs.push(Slab {
                y0: ylo,
                y1: yhi,
                xs: combined,
            });
        }
    }
    Region {
        rects: slabs_to_rects(out_slabs),
    }
}

impl Region {
    /// Creates an empty region.
    pub const fn new() -> Self {
        Region { rects: Vec::new() }
    }

    /// Creates a region covering a single rectangle.
    pub fn from_rect(r: Rect) -> Self {
        if r.is_empty() {
            Region::new()
        } else {
            Region { rects: vec![r] }
        }
    }

    /// Creates a region from arbitrary (possibly overlapping) rectangles,
    /// normalised to the canonical decomposition.
    pub fn from_rects<I: IntoIterator<Item = Rect>>(rects: I) -> Self {
        let raw: Vec<Rect> = rects.into_iter().filter(|r| !r.is_empty()).collect();
        Region {
            rects: slabs_to_rects(slab_decompose(&raw)),
        }
    }

    /// Wraps non-empty, pairwise disjoint rects as given, without
    /// normalising them (checked in debug builds only).
    pub fn from_disjoint_rects(rects: Vec<Rect>) -> Self {
        let region = Region { rects };
        debug_assert!(region.rects.iter().all(|r| !r.is_empty()));
        debug_assert_eq!(
            region.area(),
            Region::from_rects(region.rects.clone()).area()
        );
        region
    }

    /// The disjoint rectangles making up the region.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Consumes the region, returning its rectangles.
    pub fn into_rects(self) -> Vec<Rect> {
        self.rects
    }

    /// True if the region covers no area.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Number of rectangles in the decomposition (see [`Region`]).
    pub fn rect_count(&self) -> usize {
        self.rects.len()
    }

    /// Total covered area.
    pub fn area(&self) -> i128 {
        self.rects.iter().map(|r| r.area()).sum()
    }

    /// Bounding box of the region (the empty rect for an empty region).
    pub fn bbox(&self) -> Rect {
        let mut it = self.rects.iter();
        match it.next() {
            None => Rect::empty(),
            Some(first) => it.fold(*first, |acc, r| acc.bounding_union(r)),
        }
    }

    /// True if point `p` is covered (using half-open box semantics).
    pub fn contains_point(&self, p: Point) -> bool {
        self.rects
            .iter()
            .any(|r| r.x0 <= p.x && p.x < r.x1 && r.y0 <= p.y && p.y < r.y1)
    }

    /// Applies a boolean operation against another region.
    ///
    /// Intersection and difference prefilter by bounding boxes, so
    /// operations between a huge region and a small one cost only the
    /// overlapping neighbourhood.
    pub fn boolean(&self, other: &Region, op: BoolOp) -> Region {
        match op {
            BoolOp::Intersection => {
                let Some(w) = self.bbox().intersection(&other.bbox()) else {
                    return Region::new();
                };
                boolean_raw(&self.clipped(w).rects, &other.clipped(w).rects, op)
            }
            BoolOp::Difference => {
                if other.is_empty() {
                    return self.clone();
                }
                let bb = other.bbox();
                let (work, pass): (Vec<Rect>, Vec<Rect>) =
                    self.rects.iter().partition(|r| r.overlaps(&bb));
                if work.is_empty() {
                    return Region { rects: pass };
                }
                let wb = work
                    .iter()
                    .fold(Rect::empty(), |acc, r| acc.bounding_union(r));
                let b: Vec<Rect> = other
                    .rects
                    .iter()
                    .filter(|r| r.overlaps(&wb))
                    .copied()
                    .collect();
                let mut res = boolean_raw(&work, &b, op);
                // `pass` rects are disjoint from `work` (and hence from the
                // result), so appending keeps the representation disjoint.
                res.rects.extend(pass);
                res
            }
            BoolOp::Union | BoolOp::Xor => boolean_raw(&self.rects, &other.rects, op),
        }
    }

    /// Set union with another region.
    pub fn union(&self, other: &Region) -> Region {
        self.boolean(other, BoolOp::Union)
    }

    /// Set intersection with another region.
    pub fn intersection(&self, other: &Region) -> Region {
        self.boolean(other, BoolOp::Intersection)
    }

    /// Set difference (`self - other`).
    pub fn difference(&self, other: &Region) -> Region {
        self.boolean(other, BoolOp::Difference)
    }

    /// Symmetric difference with another region.
    pub fn xor(&self, other: &Region) -> Region {
        self.boolean(other, BoolOp::Xor)
    }

    /// The region translated by `v`.
    pub fn translated(&self, v: Vector) -> Region {
        Region {
            rects: self.rects.iter().map(|r| r.translated(v)).collect(),
        }
    }

    /// Clips the region to a window rectangle.
    pub fn clipped(&self, window: Rect) -> Region {
        let rects: Vec<Rect> = self
            .rects
            .iter()
            .filter_map(|r| r.intersection(&window))
            .collect();
        // Clipping disjoint rects keeps them disjoint; the result is not
        // re-normalised, so it need not be canonical.
        Region { rects }
    }

    /// Morphological dilation: every point within Chebyshev distance `d`
    /// of the region is added (Minkowski sum with a `2d` square).
    ///
    /// # Panics
    ///
    /// Panics if `d < 0`; use [`Region::shrunk`] to erode.
    pub fn bloated(&self, d: Coord) -> Region {
        assert!(d >= 0, "bloat distance must be non-negative");
        if d == 0 {
            return self.clone();
        }
        Region::from_rects(self.rects.iter().map(|r| r.expanded(d)))
    }

    /// Morphological erosion: every point within Chebyshev distance `d` of
    /// the complement is removed.
    ///
    /// # Panics
    ///
    /// Panics if `d < 0`.
    pub fn shrunk(&self, d: Coord) -> Region {
        assert!(d >= 0, "shrink distance must be non-negative");
        if d == 0 || self.is_empty() {
            return self.clone();
        }
        // erode(R, d) = R \ dilate(frame \ R, d), with the frame extending
        // past the bbox so the outer boundary erodes correctly.
        let frame = Region::from_rect(self.bbox().expanded(d + 1));
        let complement = frame.difference(self);
        self.difference(&complement.bloated(d))
    }

    /// Morphological opening (erode then dilate): removes features narrower
    /// than `2d` without moving the remaining boundary.
    pub fn opened(&self, d: Coord) -> Region {
        self.shrunk(d).bloated(d)
    }

    /// Morphological closing (dilate then erode): fills gaps and notches
    /// narrower than `2d`.
    pub fn closed(&self, d: Coord) -> Region {
        self.bloated(d).shrunk(d)
    }

    /// The connected components of `self` lying entirely inside `other`.
    pub fn inside(&self, other: &Region) -> Region {
        let mut keep: Vec<Rect> = Vec::new();
        for comp in self.connected_components() {
            if comp.difference(other).is_empty() {
                keep.extend(comp.rects().iter().copied());
            }
        }
        Region { rects: keep }
    }

    /// Extracts the boundary edges of the region.
    ///
    /// See [`BoundaryEdges`] for the result structure; edges carry which
    /// side is region interior, which the DRC engine relies on.
    pub fn boundary_edges(&self) -> BoundaryEdges {
        BoundaryEdges::of_slabs(slab_decompose(&self.rects))
    }

    /// Total boundary length (perimeter) of the region.
    pub fn perimeter(&self) -> Coord {
        let e = self.boundary_edges();
        e.horizontal.iter().map(|h| h.x1 - h.x0).sum::<Coord>()
            + e.vertical.iter().map(|v| v.y1 - v.y0).sum::<Coord>()
    }

    /// Splits the region into its connected components (8-connectivity on
    /// touching rects: rects sharing an edge *or a corner* are connected).
    pub fn connected_components(&self) -> Vec<Region> {
        let rects: Vec<(Rect, usize)> = self.rects.iter().copied().zip(0..).collect();
        let group = group_within(rects.len(), &rects, 0);
        // Groups come out in first-rect order, so the stable sort below
        // breaks bbox-corner ties the same way on every call.
        let mut slot = vec![usize::MAX; rects.len()];
        let mut comps: Vec<Region> = Vec::new();
        for (i, r) in self.rects.iter().enumerate() {
            if group[i] == i {
                slot[i] = comps.len();
                comps.push(Region::new());
            }
            comps[slot[group[i]]].rects.push(*r);
        }
        comps.sort_by_key(|c| c.bbox().lo());
        comps
    }
}

/// The workspace's one near-pair sweep: calls `visit(i, j, gap)` once
/// per pair of rects at most `d` apart in Chebyshev gap, `gap = max(dx,
/// dy)` ([`Rect::gap`]; at `d = 0` a shared edge or corner, at `d < 0`
/// nothing). With `b = None` the pairs lie within `a`, each unordered
/// pair once; with `Some(b)` they are the cross pairs, `i` into `a` and
/// `j` into `b`. The rects are swept in `x0` order, and a rect stays
/// active while the sweep is within `d` of its `x1`, so each rect is
/// compared only with the active rects of the set it pairs with.
///
/// ```
/// use dfm_geom::{near_pairs, Rect};
/// let a = [Rect::new(0, 0, 10, 10), Rect::new(14, 0, 20, 10)];
/// let b = [Rect::new(100, 0, 110, 10), Rect::new(22, 0, 30, 10)];
/// let mut pairs = Vec::new();
/// near_pairs(&a, None, 4, |i, j, gap| pairs.push((i.min(j), i.max(j), gap)));
/// near_pairs(&a, Some(&b), 4, |i, j, gap| pairs.push((i, j, gap)));
/// assert_eq!(pairs, [(0, 1, 4), (1, 1, 2)]);
/// ```
pub fn near_pairs(
    a: &[Rect],
    b: Option<&[Rect]>,
    d: Coord,
    mut visit: impl FnMut(usize, usize, Coord),
) {
    let sets = [a, b.unwrap_or_default()];
    let mut order: Vec<(usize, usize)> = (0..2)
        .flat_map(|s| (0..sets[s].len()).map(move |i| (s, i)))
        .collect();
    order.sort_unstable_by_key(|&(s, i)| sets[s][i].x0);
    let mut active: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (s, i) in order {
        let r = sets[s][i];
        let t = if b.is_some() { 1 - s } else { s };
        active[t].retain(|&j| sets[t][j].x1 + d >= r.x0);
        for &j in &active[t] {
            let (dx, dy) = r.gap(&sets[t][j]);
            let gap = dx.max(dy);
            if gap <= d {
                let (ia, jb) = if s == 0 { (i, j) } else { (j, i) };
                visit(ia, jb, gap);
            }
        }
        active[s].push(i);
    }
}

/// Groups items whose rects lie within `d` of each other: item `a` joins
/// item `b`, transitively, when a rect of `a` and a rect of `b` are at
/// most `d` apart in Chebyshev gap ([`near_pairs`] within one set). At
/// `d = 0` a shared edge or corner joins. `rects` pairs each rect with
/// its item, `0..items`; an item may own any number of rects, none
/// included. Returns each item's group, numbered by the group's first
/// (lowest) item, so `group[i] == i` marks the first item of each group.
/// A path-compressing union-find whose root is always the group's
/// lowest item joins the pairs.
///
/// ```
/// use dfm_geom::{group_within, Rect};
/// let rects = [
///     (Rect::new(0, 0, 10, 10), 0),
///     (Rect::new(100, 0, 110, 10), 1),
///     (Rect::new(14, 0, 20, 10), 2),
/// ];
/// assert_eq!(group_within(3, &rects, 0), [0, 1, 2]);
/// assert_eq!(group_within(3, &rects, 4), [0, 1, 0]);
/// ```
///
/// # Panics
///
/// Panics if a rect's item is not below `items`.
pub fn group_within(items: usize, rects: &[(Rect, usize)], d: Coord) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..items).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let plain: Vec<Rect> = rects.iter().map(|&(r, _)| r).collect();
    near_pairs(&plain, None, d, |i, j, _| {
        let (ra, rb) = (find(&mut parent, rects[i].1), find(&mut parent, rects[j].1));
        parent[ra.max(rb)] = ra.min(rb);
    });
    (0..items).map(|i| find(&mut parent, i)).collect()
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Region({} rects, area {})",
            self.rects.len(),
            self.area()
        )
    }
}

impl FromIterator<Rect> for Region {
    fn from_iter<I: IntoIterator<Item = Rect>>(iter: I) -> Self {
        Region::from_rects(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_rects() {
        let a = Region::from_rect(Rect::new(0, 0, 10, 10));
        let b = Region::from_rect(Rect::new(5, 0, 15, 10));
        let u = a.union(&b);
        assert_eq!(u.area(), 150);
        assert_eq!(u.rect_count(), 1);
        assert_eq!(u.bbox(), Rect::new(0, 0, 15, 10));
    }

    #[test]
    fn union_of_touching_rects_merges() {
        let a = Region::from_rect(Rect::new(0, 0, 10, 10));
        let b = Region::from_rect(Rect::new(10, 0, 20, 10));
        let u = a.union(&b);
        assert_eq!(u.rect_count(), 1);
        assert_eq!(u.rects()[0], Rect::new(0, 0, 20, 10));
    }

    #[test]
    fn vertical_merge() {
        let u = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(0, 10, 10, 20)]);
        assert_eq!(u.rect_count(), 1);
        assert_eq!(u.rects()[0], Rect::new(0, 0, 10, 20));
    }

    #[test]
    fn intersection_and_difference() {
        let a = Region::from_rect(Rect::new(0, 0, 100, 100));
        let b = Region::from_rect(Rect::new(50, 50, 150, 150));
        assert_eq!(a.intersection(&b).area(), 2500);
        assert_eq!(a.difference(&b).area(), 7500);
        assert_eq!(b.difference(&a).area(), 7500);
        assert_eq!(a.xor(&b).area(), 15000);
    }

    #[test]
    fn difference_punches_hole() {
        let outer = Region::from_rect(Rect::new(0, 0, 100, 100));
        let hole = Region::from_rect(Rect::new(40, 40, 60, 60));
        let donut = outer.difference(&hole);
        assert_eq!(donut.area(), 10000 - 400);
        assert!(!donut.contains_point(Point::new(50, 50)));
        assert!(donut.contains_point(Point::new(10, 10)));
    }

    #[test]
    fn bloat_and_shrink_roundtrip() {
        let r = Region::from_rect(Rect::new(100, 100, 200, 200));
        let b = r.bloated(10);
        assert_eq!(b.bbox(), Rect::new(90, 90, 210, 210));
        assert_eq!(b.area(), 120 * 120);
        let s = b.shrunk(10);
        assert_eq!(s, r);
    }

    #[test]
    fn shrink_destroys_thin_features() {
        // 10-wide strip disappears when eroded by 5.
        let r = Region::from_rect(Rect::new(0, 0, 1000, 10));
        assert!(r.shrunk(5).is_empty());
        // ...but survives erosion by 4 (2 units remain).
        assert_eq!(r.shrunk(4).rects()[0], Rect::new(4, 4, 996, 6));
    }

    #[test]
    fn opening_removes_spur() {
        // Fat body with a thin spur: opening removes the spur only.
        let body = Rect::new(0, 0, 100, 100);
        let spur = Rect::new(100, 45, 200, 55); // 10 wide
        let r = Region::from_rects([body, spur]);
        let o = r.opened(10);
        assert_eq!(o.area(), 100 * 100);
        assert_eq!(o.bbox(), body);
    }

    #[test]
    fn closing_fills_gap() {
        let a = Rect::new(0, 0, 100, 100);
        let b = Rect::new(110, 0, 210, 100); // 10 gap
        let r = Region::from_rects([a, b]);
        let c = r.closed(10);
        assert_eq!(c.area(), 210 * 100);
    }

    #[test]
    fn clipping() {
        let r = Region::from_rects([Rect::new(0, 0, 100, 100), Rect::new(200, 0, 300, 100)]);
        let c = r.clipped(Rect::new(50, 50, 250, 80));
        assert_eq!(c.area(), 50 * 30 + 50 * 30);
    }

    #[test]
    fn perimeter_of_square_and_l() {
        let sq = Region::from_rect(Rect::new(0, 0, 10, 10));
        assert_eq!(sq.perimeter(), 40);
        let l = Region::from_rects([Rect::new(0, 0, 30, 10), Rect::new(0, 10, 10, 30)]);
        // L-shape perimeter: 30+10+20+20+10+30 = 120
        assert_eq!(l.perimeter(), 120);
    }

    #[test]
    fn connected_components() {
        let r = Region::from_rects([
            Rect::new(0, 0, 10, 10),
            Rect::new(10, 10, 20, 20), // touches first at a corner
            Rect::new(100, 100, 110, 110),
        ]);
        let comps = r.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].area(), 200);
        assert_eq!(comps[1].area(), 100);
    }

    #[test]
    fn selection_operations() {
        let wires = Region::from_rects([
            Rect::new(0, 0, 100, 10),
            Rect::new(0, 50, 100, 60),
            Rect::new(0, 100, 100, 110),
        ]);
        // inside: only components fully covered.
        let cover = Region::from_rect(Rect::new(-5, 40, 105, 70));
        let inside = wires.inside(&cover);
        assert_eq!(inside.area(), 100 * 10);
        assert!(wires.inside(&Region::new()).is_empty());
    }

    #[test]
    fn empty_behaviour() {
        let e = Region::new();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0);
        assert!(e.bbox().is_empty());
        let r = Region::from_rect(Rect::new(0, 0, 10, 10));
        assert_eq!(e.union(&r), r);
        assert!(e.intersection(&r).is_empty());
        assert!(r.difference(&r).is_empty());
    }

    #[test]
    fn from_rects_filters_degenerate() {
        let r = Region::from_rects([Rect::new(0, 0, 0, 100), Rect::new(0, 0, 10, 10)]);
        assert_eq!(r.area(), 100);
    }

    #[test]
    fn checkerboard_union() {
        let mut rects = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                if (i + j) % 2 == 0 {
                    rects.push(Rect::new(i * 10, j * 10, i * 10 + 10, j * 10 + 10));
                }
            }
        }
        let r = Region::from_rects(rects);
        assert_eq!(r.area(), 32 * 100);
        // 8-connectivity makes the whole checkerboard one component.
        assert_eq!(r.connected_components().len(), 1);
    }

    #[test]
    fn components_sharing_a_bbox_corner_keep_one_order() {
        // A hook and a corner, disjoint, both with bbox low corner (0, 0):
        // the bbox sort alone cannot order them.
        let r = Region::from_rects([
            Rect::new(0, 10, 2, 20),
            Rect::new(0, 18, 20, 20),
            Rect::new(18, 0, 20, 20),
            Rect::new(0, 0, 2, 8),
            Rect::new(0, 0, 16, 2),
        ]);
        let order = |r: &Region| -> Vec<Vec<Rect>> {
            r.connected_components()
                .iter()
                .map(|c| c.rects().to_vec())
                .collect()
        };
        let first = order(&r);
        assert_eq!(first.len(), 2);
        for _ in 0..32 {
            assert_eq!(order(&r), first);
        }
    }
}
