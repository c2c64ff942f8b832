//! A uniform-grid spatial index for rectangle neighbour queries.

use crate::{Coord, Rect};

/// An immutable uniform-grid spatial index mapping rectangles to payload
/// values.
///
/// Built once from its complete item list, it buckets each item by the
/// grid cells its rectangle overlaps, in one dense row-major array over
/// the items' extent: bucket `b` holds the item ids
/// `ids[starts[b]..starts[b + 1]]`, so no bucket is hashed or grown.
/// [`for_each_touching`](GridIndex::for_each_touching) is its one query.
///
/// The cell is a lower bound, not a promise: the index doubles it until
/// there are at most `4·items + 64` buckets, so its memory follows its
/// entries and not the span of their coordinates. Answers do not depend
/// on the cell; only their cost and order do.
///
/// ```
/// use dfm_geom::{GridIndex, Rect};
/// let ix = GridIndex::new(
///     100,
///     [(Rect::new(0, 0, 50, 50), "a"), (Rect::new(500, 500, 600, 600), "b")],
/// );
/// let mut near_origin = Vec::new();
/// ix.for_each_touching(Rect::new(0, 0, 10, 10), |_, v| near_origin.push(*v));
/// assert_eq!(near_origin, ["a"]);
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex<T> {
    grid: Grid,
    starts: Vec<u32>,
    ids: Vec<u32>,
    items: Vec<(Rect, T)>,
}

/// The bucket geometry: cell side, and the cell coordinates of the first
/// and the last bucket in x and in y (`lo > hi` when there are none).
#[derive(Clone, Copy, Debug)]
struct Grid {
    cell: Coord,
    lo: (Coord, Coord),
    hi: (Coord, Coord),
    cols: usize,
}

impl Grid {
    /// Calls `f(b, cx, cy)` for every bucket `b` that `r` overlaps,
    /// `(cx, cy)` its cell coordinates.
    fn for_each_bucket(&self, r: Rect, mut f: impl FnMut(usize, Coord, Coord)) {
        let cx0 = r.x0.div_euclid(self.cell).max(self.lo.0);
        let cy0 = r.y0.div_euclid(self.cell).max(self.lo.1);
        let cx1 = r.x1.div_euclid(self.cell).min(self.hi.0);
        let cy1 = r.y1.div_euclid(self.cell).min(self.hi.1);
        for cy in cy0..=cy1 {
            let row = (cy - self.lo.1) as usize * self.cols;
            for cx in cx0..=cx1 {
                f(row + (cx - self.lo.0) as usize, cx, cy);
            }
        }
    }
}

impl<T> GridIndex<T> {
    /// Indexes `items` on a grid of cell `cell` or coarser.
    ///
    /// # Panics
    ///
    /// Panics if `cell <= 0`, or if the items, or their bucket entries,
    /// number more than `u32::MAX`.
    pub fn new(cell: Coord, items: impl IntoIterator<Item = (Rect, T)>) -> Self {
        assert!(cell > 0, "grid cell size must be positive");
        let items: Vec<(Rect, T)> = items.into_iter().collect();
        assert!(
            u32::try_from(items.len()).is_ok(),
            "a grid index holds at most u32::MAX items"
        );
        let (lo, hi) = items.iter().fold(
            ((Coord::MAX, Coord::MAX), (Coord::MIN, Coord::MIN)),
            |(lo, hi), (r, _)| {
                (
                    (lo.0.min(r.x0), lo.1.min(r.y0)),
                    (hi.0.max(r.x1), hi.1.max(r.y1)),
                )
            },
        );
        let mut cell = cell;
        let span = |lo: Coord, hi: Coord, cell: Coord| {
            (hi.div_euclid(cell) as i128 - lo.div_euclid(cell) as i128 + 1).max(0) as u128
        };
        let limit = 4 * items.len() as u128 + 64;
        while span(lo.0, hi.0, cell).saturating_mul(span(lo.1, hi.1, cell)) > limit {
            cell = cell.saturating_mul(2);
        }
        let (cols, rows) = (span(lo.0, hi.0, cell), span(lo.1, hi.1, cell));
        let grid = Grid {
            cell,
            lo: (lo.0.div_euclid(cell), lo.1.div_euclid(cell)),
            hi: (hi.0.div_euclid(cell), hi.1.div_euclid(cell)),
            cols: cols as usize,
        };
        // Count each bucket's entries into `starts[b]`, turn the counts
        // into bucket ends, then place ids back to front: each id goes
        // one below its bucket's end, which leaves `starts[b]` at the
        // bucket's start and every bucket ascending.
        let mut starts = vec![0u32; (cols * rows) as usize + 1];
        for (r, _) in &items {
            grid.for_each_bucket(*r, |b, _, _| starts[b] += 1);
        }
        let mut total = 0u32;
        for s in &mut starts {
            total = total
                .checked_add(*s)
                .expect("a grid index holds at most u32::MAX bucket entries");
            *s = total;
        }
        let mut ids = vec![0; total as usize];
        for (k, (r, _)) in items.iter().enumerate().rev() {
            grid.for_each_bucket(*r, |b, _, _| {
                starts[b] -= 1;
                ids[starts[b] as usize] = k as u32;
            });
        }
        GridIndex {
            grid,
            starts,
            ids,
            items,
        }
    }

    /// Calls `f` with the rect and payload of every item touching
    /// `window` (a shared boundary counts), each once, in no promised
    /// order: a caller whose output order matters sorts what it
    /// collects. It allocates nothing: an item spanning several buckets
    /// is reported only from the bucket holding the low corner of its
    /// overlap with `window`, so no visited set is kept.
    pub fn for_each_touching<'a>(&'a self, window: Rect, mut f: impl FnMut(Rect, &'a T)) {
        let cell = self.grid.cell;
        self.grid.for_each_bucket(window, |b, cx, cy| {
            for &id in &self.ids[self.starts[b] as usize..self.starts[b + 1] as usize] {
                let (r, v) = &self.items[id as usize];
                if r.touches(&window)
                    && r.x0.max(window.x0).div_euclid(cell) == cx
                    && r.y0.max(window.y0).div_euclid(cell) == cy
                {
                    f(*r, v);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of buckets in the grid.
    fn buckets<T>(ix: &GridIndex<T>) -> usize {
        ix.starts.len() - 1
    }

    fn touching<T: Copy>(ix: &GridIndex<T>, window: Rect) -> Vec<T> {
        let mut out = Vec::new();
        ix.for_each_touching(window, |_, &v| out.push(v));
        out
    }

    #[test]
    fn reports_touching_items() {
        let ix = GridIndex::new(
            10,
            [
                (Rect::new(0, 0, 10, 10), 1),
                (Rect::new(10, 10, 20, 20), 2), // corner-touches the window
                (Rect::new(100, 100, 110, 110), 3),
            ],
        );
        let mut hits = touching(&ix, Rect::new(5, 5, 10, 10));
        hits.sort_unstable();
        assert_eq!(hits, [1, 2]);
    }

    #[test]
    fn an_item_spanning_many_buckets_is_reported_once() {
        let ix = GridIndex::new(10, [(Rect::new(0, 0, 100, 100), 42)]);
        assert_eq!(touching(&ix, Rect::new(0, 0, 100, 100)), [42]);
        assert_eq!(touching(&ix, Rect::new(-50, 30, 500, 31)), [42]);
    }

    #[test]
    fn negative_coordinates() {
        let ix = GridIndex::new(10, [(Rect::new(-25, -25, -15, -15), "neg")]);
        assert_eq!(touching(&ix, Rect::new(-20, -20, -18, -18)), ["neg"]);
        assert!(touching(&ix, Rect::new(0, 0, 5, 5)).is_empty());
    }

    #[test]
    fn an_empty_index_reports_nothing() {
        let ix = GridIndex::<()>::new(10, []);
        assert_eq!(buckets(&ix), 0);
        assert!(touching(&ix, Rect::new(-5, -5, 5, 5)).is_empty());
    }

    /// Two items 2⁴⁰ apart on a unit cell would ask for 2⁸⁰ buckets; the
    /// index coarsens its cell until the buckets number at most
    /// `4·items + 64`, and still finds each item.
    #[test]
    fn far_apart_items_build_within_the_bucket_bound() {
        let far = 1 << 40;
        let items = [
            (Rect::new(0, 0, 1, 1), 0),
            (Rect::new(far, far, far + 1, far + 1), 1),
            (Rect::new(-far, far, -far, far), 2),
        ];
        let ix = GridIndex::new(1, items);
        assert!(
            buckets(&ix) <= 4 * items.len() + 64,
            "{} buckets",
            buckets(&ix)
        );
        for (r, v) in items {
            assert_eq!(touching(&ix, r), [v]);
        }
        let extreme = GridIndex::new(
            1,
            [
                (Rect::new(Coord::MIN, Coord::MIN, Coord::MIN, Coord::MIN), 0),
                (Rect::new(Coord::MAX, 0, Coord::MAX, 0), 1),
            ],
        );
        assert!(buckets(&extreme) <= 4 * 2 + 64);
        assert_eq!(
            touching(&extreme, Rect::new(Coord::MAX - 1, -1, Coord::MAX, 1)),
            [1]
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_panics() {
        let _ = GridIndex::<()>::new(0, []);
    }
}
