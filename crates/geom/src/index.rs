//! A uniform-grid spatial index for rectangle neighbour queries.

use crate::{Coord, Rect};
use std::collections::HashMap;

/// A uniform-grid spatial index mapping rectangles to payload values.
///
/// Items are bucketed by the grid cells their bounding rectangle overlaps;
/// [`query`](GridIndex::query) returns the payloads of every item whose
/// rectangle *touches* the query window (deduplicated). The index favours
/// the dense, locally-uniform geometry of IC layouts, where a well-chosen
/// cell size makes neighbour queries effectively O(1).
///
/// ```
/// use dfm_geom::{GridIndex, Rect};
/// let mut ix = GridIndex::new(100);
/// ix.insert(Rect::new(0, 0, 50, 50), "a");
/// ix.insert(Rect::new(500, 500, 600, 600), "b");
/// let near_origin = ix.query(Rect::new(0, 0, 10, 10));
/// assert_eq!(near_origin, vec![&"a"]);
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex<T> {
    cell: Coord,
    items: Vec<(Rect, T)>,
    buckets: HashMap<(Coord, Coord), Vec<usize>>,
}

impl<T> GridIndex<T> {
    /// Creates an index with the given grid cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell <= 0`.
    pub fn new(cell: Coord) -> Self {
        assert!(cell > 0, "grid cell size must be positive");
        GridIndex {
            cell,
            items: Vec::new(),
            buckets: HashMap::new(),
        }
    }

    /// Number of items in the index.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items have been inserted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn cell_range(&self, r: Rect) -> (Coord, Coord, Coord, Coord) {
        (
            r.x0.div_euclid(self.cell),
            r.y0.div_euclid(self.cell),
            r.x1.div_euclid(self.cell),
            r.y1.div_euclid(self.cell),
        )
    }

    /// Inserts a rectangle with its payload.
    pub fn insert(&mut self, rect: Rect, value: T) {
        let id = self.items.len();
        let (cx0, cy0, cx1, cy1) = self.cell_range(rect);
        self.items.push((rect, value));
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                self.buckets.entry((cx, cy)).or_default().push(id);
            }
        }
    }

    /// Returns payload references for every item whose rectangle touches
    /// `window` (shared boundary counts), in insertion order.
    ///
    /// Cold-path convenience: allocates a fresh [`Searcher`] per call.
    /// Loops issuing many queries should hold a reusable searcher
    /// instead ([`searcher`](GridIndex::searcher)).
    pub fn query(&self, window: Rect) -> Vec<&T> {
        self.searcher().query(window)
    }

    /// Like [`query`](GridIndex::query) but also returns the stored rects.
    pub fn query_with_rects(&self, window: Rect) -> Vec<(Rect, &T)> {
        self.searcher().query_with_rects(window)
    }

    /// Creates a reusable query handle whose generation-stamp visited
    /// array amortises candidate deduplication to O(k) per query — the
    /// hot path for DRC sweeps and Monte-Carlo inner loops. Each thread
    /// gets its own searcher; the index itself stays shared and
    /// immutable.
    pub fn searcher(&self) -> Searcher<'_, T> {
        Searcher {
            index: self,
            stamps: vec![0; self.items.len()],
            generation: 0,
            ids: Vec::new(),
        }
    }

    /// Iterates over all `(rect, value)` items in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, (Rect, T)> {
        self.items.iter()
    }
}

/// Reusable query handle for a [`GridIndex`].
///
/// Deduplicates candidate ids with a generation-stamped visited array
/// instead of the sort+dedup the index used to perform on every query:
/// an id is a duplicate iff its stamp equals the current query
/// generation, so dedup costs one array probe per candidate. Results
/// are still returned in insertion order — bucket lists are ascending
/// by construction, so a single-bucket query needs no ordering work at
/// all, and a multi-bucket query sorts only the already-unique
/// survivors. The candidate buffer is kept across queries, so
/// [`for_each`](Searcher::for_each) allocates nothing once it has grown.
pub struct Searcher<'a, T> {
    index: &'a GridIndex<T>,
    stamps: Vec<u32>,
    generation: u32,
    ids: Vec<usize>,
}

impl<'a, T> Searcher<'a, T> {
    /// Payloads of every item touching `window`, insertion order.
    pub fn query(&mut self, window: Rect) -> Vec<&'a T> {
        let mut out = Vec::new();
        self.for_each(window, |_, v| out.push(v));
        out
    }

    /// Like [`query`](Searcher::query) but also returns the stored rects.
    pub fn query_with_rects(&mut self, window: Rect) -> Vec<(Rect, &'a T)> {
        let mut out = Vec::new();
        self.for_each(window, |r, v| out.push((r, v)));
        out
    }

    /// Calls `f` with the rect and payload of every item touching
    /// `window`, in insertion order — [`query_with_rects`](Searcher::query_with_rects)
    /// without the result vector.
    pub fn for_each(&mut self, window: Rect, mut f: impl FnMut(Rect, &'a T)) {
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                // Wraparound: clear stale stamps so generation 1 is fresh.
                self.stamps.fill(0);
                1
            }
        };
        let generation = self.generation;
        let index = self.index;
        let (cx0, cy0, cx1, cy1) = index.cell_range(window);
        self.ids.clear();
        let mut buckets_hit = 0usize;
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                if let Some(bucket) = index.buckets.get(&(cx, cy)) {
                    buckets_hit += 1;
                    for &id in bucket {
                        if self.stamps[id] != generation {
                            self.stamps[id] = generation;
                            self.ids.push(id);
                        }
                    }
                }
            }
        }
        // Each bucket is ascending, so one bucket is already insertion
        // order; only a multi-bucket merge needs sorting (of unique ids).
        if buckets_hit > 1 {
            self.ids.sort_unstable();
        }
        for &id in &self.ids {
            let (r, v) = &index.items[id];
            if r.touches(&window) {
                f(*r, v);
            }
        }
    }
}

impl<T> Extend<(Rect, T)> for GridIndex<T> {
    fn extend<I: IntoIterator<Item = (Rect, T)>>(&mut self, iter: I) {
        for (r, v) in iter {
            self.insert(r, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_finds_touching_items() {
        let mut ix = GridIndex::new(10);
        ix.insert(Rect::new(0, 0, 10, 10), 1);
        ix.insert(Rect::new(10, 10, 20, 20), 2); // corner-touches query below
        ix.insert(Rect::new(100, 100, 110, 110), 3);
        let hits = ix.query(Rect::new(5, 5, 10, 10));
        assert_eq!(hits, vec![&1, &2]);
    }

    #[test]
    fn query_deduplicates_across_cells() {
        let mut ix = GridIndex::new(10);
        ix.insert(Rect::new(0, 0, 100, 100), 42); // spans many cells
        let hits = ix.query(Rect::new(0, 0, 100, 100));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn negative_coordinates() {
        let mut ix = GridIndex::new(10);
        ix.insert(Rect::new(-25, -25, -15, -15), "neg");
        assert_eq!(ix.query(Rect::new(-20, -20, -18, -18)).len(), 1);
        assert!(ix.query(Rect::new(0, 0, 5, 5)).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_panics() {
        let _ = GridIndex::<()>::new(0);
    }

    #[test]
    fn extend_and_iter() {
        let mut ix = GridIndex::new(50);
        ix.extend([
            (Rect::new(0, 0, 10, 10), 'a'),
            (Rect::new(20, 0, 30, 10), 'b'),
        ]);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.iter().count(), 2);
    }
}
