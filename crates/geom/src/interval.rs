//! One-dimensional intervals and canonical interval sets.
//!
//! The [`Region`](crate::Region) boolean engine reduces every 2-D operation
//! to boolean operations on sets of 1-D intervals within horizontal slabs,
//! implemented here exactly over integer coordinates.

use crate::Coord;
use std::fmt;

/// A closed-open 1-D interval `[lo, hi)` over integer coordinates.
///
/// Empty when `lo >= hi`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: Coord,
    /// Exclusive upper bound.
    pub hi: Coord,
}

impl Interval {
    /// Creates an interval; operands may be given in either order.
    pub fn new(a: Coord, b: Coord) -> Self {
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Length of the interval (`hi - lo`, never negative).
    pub fn len(&self) -> Coord {
        (self.hi - self.lo).max(0)
    }

    /// True if the interval contains no coordinates.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// True if `x` lies in `[lo, hi)`.
    pub fn contains(&self, x: Coord) -> bool {
        self.lo <= x && x < self.hi
    }

    /// True if the half-open intervals share any coordinates.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// A canonical set of disjoint, non-touching, sorted intervals.
///
/// Canonical form: intervals are non-empty, sorted by `lo`, and separated
/// by at least one unit of empty space (touching intervals are merged).
///
/// ```
/// use dfm_geom::{Interval, IntervalSet};
/// let mut s = IntervalSet::new();
/// s.insert(Interval::new(0, 10));
/// s.insert(Interval::new(10, 20)); // touches: merged
/// s.insert(Interval::new(30, 40));
/// assert_eq!(s.iter().count(), 2);
/// assert_eq!(s.total_len(), 30);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct IntervalSet {
    ivs: Vec<Interval>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IntervalSet { ivs: Vec::new() }
    }

    /// Builds a canonical set from arbitrary (possibly overlapping)
    /// intervals.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut ivs: Vec<Interval> = iter.into_iter().filter(|i| !i.is_empty()).collect();
        ivs.sort_unstable();
        let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
        for iv in ivs {
            match out.last_mut() {
                Some(last) if iv.lo <= last.hi => last.hi = last.hi.max(iv.hi),
                _ => out.push(iv),
            }
        }
        IntervalSet { ivs: out }
    }

    /// Inserts one interval, merging as needed.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // Fast path: append at the end.
        if self.ivs.last().is_none_or(|l| l.hi < iv.lo) {
            self.ivs.push(iv);
            return;
        }
        let mut all = std::mem::take(&mut self.ivs);
        all.push(iv);
        *self = IntervalSet::from_intervals(all);
    }

    /// True if no intervals are present.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Iterates over the canonical intervals in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Interval> {
        self.ivs.iter()
    }

    /// Borrow the canonical intervals as a slice.
    pub fn as_slice(&self) -> &[Interval] {
        &self.ivs
    }

    /// Sum of interval lengths.
    pub fn total_len(&self) -> Coord {
        self.ivs.iter().map(|i| i.len()).sum()
    }

    /// True if `x` is covered by some interval.
    pub fn contains(&self, x: Coord) -> bool {
        // Binary search on lo.
        match self.ivs.binary_search_by(|iv| iv.lo.cmp(&x)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.ivs[i - 1].contains(x),
        }
    }

    /// Boolean combination of two canonical sets.
    ///
    /// `keep` decides, for each elementary segment, whether it belongs to
    /// the result given (inside-a, inside-b).
    fn combine(&self, other: &IntervalSet, keep: fn(bool, bool) -> bool) -> IntervalSet {
        // Merge sweep over all endpoints.
        let mut events: Vec<Coord> = Vec::with_capacity(2 * (self.ivs.len() + other.ivs.len()));
        for iv in &self.ivs {
            events.push(iv.lo);
            events.push(iv.hi);
        }
        for iv in &other.ivs {
            events.push(iv.lo);
            events.push(iv.hi);
        }
        events.sort_unstable();
        events.dedup();

        let mut out = Vec::new();
        let mut ai = 0usize;
        let mut bi = 0usize;
        let mut cur: Option<Interval> = None;
        for w in events.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mid = lo; // segment [lo, hi): membership decided at lo
            while ai < self.ivs.len() && self.ivs[ai].hi <= mid {
                ai += 1;
            }
            while bi < other.ivs.len() && other.ivs[bi].hi <= mid {
                bi += 1;
            }
            let in_a = ai < self.ivs.len() && self.ivs[ai].lo <= mid;
            let in_b = bi < other.ivs.len() && other.ivs[bi].lo <= mid;
            if keep(in_a, in_b) {
                match cur.as_mut() {
                    Some(c) if c.hi == lo => c.hi = hi,
                    _ => {
                        if let Some(c) = cur.take() {
                            out.push(c);
                        }
                        cur = Some(Interval { lo, hi });
                    }
                }
            }
        }
        if let Some(c) = cur {
            out.push(c);
        }
        IntervalSet { ivs: out }
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        self.combine(other, |a, b| a || b)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &IntervalSet) -> IntervalSet {
        self.combine(other, |a, b| a && b)
    }

    /// Set difference (`self - other`).
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        self.combine(other, |a, b| a && !b)
    }

    /// Symmetric difference.
    pub fn xor(&self, other: &IntervalSet) -> IntervalSet {
        self.combine(other, |a, b| a != b)
    }
}

impl fmt::Debug for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.ivs.iter()).finish()
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalSet::from_intervals(iter)
    }
}

impl Extend<Interval> for IntervalSet {
    fn extend<I: IntoIterator<Item = Interval>>(&mut self, iter: I) {
        let mut all = std::mem::take(&mut self.ivs);
        all.extend(iter.into_iter().filter(|i| !i.is_empty()));
        *self = IntervalSet::from_intervals(all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(Coord, Coord)]) -> IntervalSet {
        IntervalSet::from_intervals(pairs.iter().map(|&(a, b)| Interval::new(a, b)))
    }

    #[test]
    fn canonicalisation_merges_overlaps_and_touching() {
        let s = set(&[(0, 10), (5, 15), (15, 20), (30, 40)]);
        assert_eq!(s.as_slice(), &[Interval::new(0, 20), Interval::new(30, 40)]);
        assert_eq!(s.total_len(), 30);
    }

    #[test]
    fn empty_intervals_dropped() {
        let s = set(&[(5, 5), (7, 7)]);
        assert!(s.is_empty());
    }

    #[test]
    fn union() {
        let a = set(&[(0, 10), (20, 30)]);
        let b = set(&[(5, 25), (40, 50)]);
        assert_eq!(
            a.union(&b).as_slice(),
            &[Interval::new(0, 30), Interval::new(40, 50)]
        );
    }

    #[test]
    fn intersection() {
        let a = set(&[(0, 10), (20, 30)]);
        let b = set(&[(5, 25)]);
        assert_eq!(
            a.intersection(&b).as_slice(),
            &[Interval::new(5, 10), Interval::new(20, 25)]
        );
    }

    #[test]
    fn difference() {
        let a = set(&[(0, 30)]);
        let b = set(&[(10, 20)]);
        assert_eq!(
            a.difference(&b).as_slice(),
            &[Interval::new(0, 10), Interval::new(20, 30)]
        );
        assert!(b.difference(&a).is_empty());
    }

    #[test]
    fn xor() {
        let a = set(&[(0, 20)]);
        let b = set(&[(10, 30)]);
        assert_eq!(
            a.xor(&b).as_slice(),
            &[Interval::new(0, 10), Interval::new(20, 30)]
        );
    }

    #[test]
    fn contains() {
        let s = set(&[(0, 10), (20, 30)]);
        assert!(s.contains(0));
        assert!(s.contains(9));
        assert!(!s.contains(10));
        assert!(s.contains(25));
        assert!(!s.contains(-1));
        assert!(!s.contains(30));
    }

    #[test]
    fn insert_fast_path_and_slow_path() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(0, 10));
        s.insert(Interval::new(20, 30)); // fast append
        s.insert(Interval::new(5, 25)); // must merge everything
        assert_eq!(s.as_slice(), &[Interval::new(0, 30)]);
    }
}
