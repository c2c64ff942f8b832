//! Fast pattern matching against a library (DRC-Plus-style screening).

use crate::TopoPattern;
use dfm_geom::{Coord, Point, Rect, Region};
use std::collections::HashMap;
use std::fmt;

/// A library of target patterns with payloads, indexed by topology
/// digest for full-chip-speed scanning.
///
/// The payload type `T` typically carries the failure mechanism, a fixing
/// hint, or a severity weight for each pattern.
#[derive(Clone, Debug)]
pub struct PatternLibrary<T> {
    radius: Coord,
    snap: Coord,
    eps: Coord,
    by_digest: HashMap<u64, Vec<usize>>,
    entries: Vec<(TopoPattern, T)>,
}

/// One match reported by [`PatternLibrary::scan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Match {
    /// Anchor at which the library pattern matched.
    pub at: Point,
    /// Index of the matching library entry.
    pub entry: usize,
}

impl<T> PatternLibrary<T> {
    /// Creates an empty library.
    ///
    /// * `radius` — half-size of the context window around each anchor,
    /// * `snap` — dimension quantisation used at both learn and scan time,
    /// * `eps` — dimension tolerance for a match.
    ///
    /// # Panics
    ///
    /// Panics if `radius <= 0` or `snap < 1`.
    pub fn new(radius: Coord, snap: Coord, eps: Coord) -> Self {
        assert!(radius > 0, "radius must be positive");
        assert!(snap >= 1, "snap must be at least 1");
        PatternLibrary {
            radius,
            snap,
            eps,
            by_digest: HashMap::new(),
            entries: Vec::new(),
        }
    }

    /// Context window radius.
    pub fn radius(&self) -> Coord {
        self.radius
    }

    /// Number of library patterns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the library holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in insertion order.
    pub fn entries(&self) -> &[(TopoPattern, T)] {
        &self.entries
    }

    /// Learns the pattern at `anchor` from the given layers and stores it
    /// with `payload`. Duplicate patterns (within tolerance) are merged —
    /// the first payload wins — and `false` is returned.
    pub fn learn(&mut self, layers: &[&Region], anchor: Point, payload: T) -> bool {
        let window = Rect::centered_at(anchor, 2 * self.radius, 2 * self.radius);
        let pattern = TopoPattern::encode_quantized(layers, window, self.snap).canonical();
        self.insert(pattern, payload)
    }

    /// Inserts an already-encoded canonical pattern; returns `false` if an
    /// equivalent pattern was already present.
    pub fn insert(&mut self, pattern: TopoPattern, payload: T) -> bool {
        let digest = pattern.topology_digest();
        if let Some(bucket) = self.by_digest.get(&digest) {
            for &i in bucket {
                if self.entries[i].0.matches(&pattern, self.eps) {
                    return false;
                }
            }
        }
        let idx = self.entries.len();
        self.entries.push((pattern, payload));
        self.by_digest.entry(digest).or_default().push(idx);
        true
    }

    /// Scans `layers` at every anchor, reporting all matches.
    ///
    /// Matching cost per anchor is one window encode plus a hash-bucket
    /// probe, independent of library size — the property that makes
    /// pattern decks full-chip capable. Anchors are scanned in parallel
    /// (`DFM_THREADS`) over fixed-size chunks whose results concatenate
    /// in input order, so the match list is identical at any thread
    /// count.
    pub fn scan(&self, layers: &[&Region], anchor_points: &[Point]) -> Vec<Match>
    where
        T: Sync,
    {
        const ANCHOR_CHUNK: usize = 64;
        let chunks: Vec<&[Point]> = anchor_points.chunks(ANCHOR_CHUNK).collect();
        let per_chunk = dfm_par::par_map(&chunks, |_, anchors| {
            let mut hits = Vec::new();
            for &a in *anchors {
                let window = Rect::centered_at(a, 2 * self.radius, 2 * self.radius);
                let pattern = TopoPattern::encode_quantized(layers, window, self.snap).canonical();
                if let Some(bucket) = self.by_digest.get(&pattern.topology_digest()) {
                    for &i in bucket {
                        if self.entries[i].0.matches(&pattern, self.eps) {
                            hits.push(Match { at: a, entry: i });
                        }
                    }
                }
            }
            hits
        });
        per_chunk.into_iter().flatten().collect()
    }
}

impl<T> fmt::Display for PatternLibrary<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pattern library: {} patterns, radius {} nm, tolerance {} nm",
            self.len(),
            self.radius,
            self.eps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cross_at(c: Point, arm: Coord, w: Coord) -> Region {
        Region::from_rects([
            Rect::new(c.x - arm, c.y - w / 2, c.x + arm, c.y + w / 2),
            Rect::new(c.x - w / 2, c.y - arm, c.x + w / 2, c.y + arm),
        ])
    }

    #[test]
    fn learn_and_rescan_finds_pattern() {
        let c = Point::new(1000, 1000);
        let layout = cross_at(c, 200, 60);
        let mut lib = PatternLibrary::new(300, 1, 2);
        assert!(lib.learn(&[&layout], c, "cross"));
        let matches = lib.scan(&[&layout], &[c]);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].entry, 0);
    }

    #[test]
    fn duplicate_learn_merges() {
        let c1 = Point::new(0, 0);
        let c2 = Point::new(10_000, 0);
        let layout = cross_at(c1, 200, 60).union(&cross_at(c2, 200, 60));
        let mut lib = PatternLibrary::new(300, 1, 2);
        assert!(lib.learn(&[&layout], c1, ()));
        assert!(!lib.learn(&[&layout], c2, ()));
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn scan_matches_rotated_occurrence() {
        // An L learned in one orientation matches its rotation elsewhere.
        let a1 = Point::new(0, 0);
        let l1 = Region::from_rects([
            Rect::new(-200, -30, 200, 30),
            Rect::new(140, 30, 200, 260),
        ]);
        // Rotated-90 version at a different location.
        let a2 = Point::new(10_000, 0);
        let l2 = Region::from_rects([
            Rect::new(9_970, -200, 10_030, 200),
            Rect::new(9_740, 140, 9_970, 200),
        ]);
        let layout = l1.union(&l2);
        let mut lib = PatternLibrary::new(300, 1, 2);
        lib.learn(&[&layout], a1, ());
        let matches = lib.scan(&[&layout], &[a1, a2]);
        assert_eq!(matches.len(), 2, "{matches:?}");
    }

    #[test]
    fn near_miss_dimensions_respect_tolerance() {
        let c = Point::new(0, 0);
        let layout = cross_at(c, 200, 60);
        let mut lib = PatternLibrary::new(300, 1, 2);
        lib.learn(&[&layout], c, ());
        // Slightly different arm width (62 vs 60): the centre row's
        // dimension changes by 2, within tolerance.
        let other = cross_at(Point::new(0, 0), 200, 62);
        let hit = lib.scan(&[&other], &[c]);
        assert_eq!(hit.len(), 1, "within tolerance");
        let other_far = cross_at(Point::new(0, 0), 200, 80);
        let miss = lib.scan(&[&other_far], &[c]);
        assert!(miss.is_empty());
    }

    #[test]
    fn unrelated_geometry_does_not_match() {
        let c = Point::new(0, 0);
        let layout = cross_at(c, 200, 60);
        let mut lib = PatternLibrary::new(300, 1, 2);
        lib.learn(&[&layout], c, ());
        let bar = Region::from_rect(Rect::new(-200, -30, 200, 30));
        assert!(lib.scan(&[&bar], &[c]).is_empty());
    }

    #[test]
    fn payloads_accessible_via_entries() {
        let c = Point::new(0, 0);
        let layout = cross_at(c, 200, 60);
        let mut lib = PatternLibrary::new(300, 1, 2);
        lib.learn(&[&layout], c, "fix: widen arms");
        let m = lib.scan(&[&layout], &[c]);
        assert_eq!(lib.entries()[m[0].entry].1, "fix: widen arms");
    }
}
