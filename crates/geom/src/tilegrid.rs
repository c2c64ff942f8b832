//! Fixed-pitch tile grids over a layout extent.
//!
//! A [`TileGrid`] partitions a rectangular extent into half-open *cores*
//! of a fixed nominal side (the last row/column is clamped to the
//! extent, so non-divisor tile sizes are fine). Cores are disjoint and
//! cover the extent exactly, which is what makes tile-owned result
//! merging deterministic: every point of the extent belongs to exactly
//! one core, so an anchor-point ownership rule assigns every violation
//! to exactly one tile.
//!
//! The *window* of a tile is its core expanded by a halo margin; it is
//! deliberately **not** clamped to the extent, so window geometry near
//! the layout border behaves identically to interior tiles.

use crate::{Coord, Point, Rect};

/// A fixed-pitch partition of an extent into half-open square cores.
///
/// Tiles are indexed row-major: `i = iy * nx + ix`.
///
/// ```
/// use dfm_geom::{Rect, TileGrid};
/// let g = TileGrid::new(Rect::new(0, 0, 250, 100), 100);
/// assert_eq!((g.nx(), g.ny()), (3, 1));
/// assert_eq!(g.core(2), Rect::new(200, 0, 250, 100)); // clamped last column
/// assert_eq!(g.tile_of(dfm_geom::Point::new(200, 0)), Some(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TileGrid {
    extent: Rect,
    side: Coord,
    nx: usize,
    ny: usize,
}

impl TileGrid {
    /// Builds a grid of `side` × `side` cores over `extent`.
    ///
    /// An empty extent yields a grid with zero tiles.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not positive.
    pub fn new(extent: Rect, side: Coord) -> Self {
        assert!(side > 0, "tile side must be positive");
        let (nx, ny) = if extent.is_empty() {
            (0, 0)
        } else {
            (
                (extent.width() + side - 1) / side,
                (extent.height() + side - 1) / side,
            )
        };
        TileGrid {
            extent,
            side,
            nx: nx as usize,
            ny: ny as usize,
        }
    }

    /// The partitioned extent.
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// Number of tile columns.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of tile rows.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// True if the grid has no tiles (empty extent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Core rectangle of tile `i` (half-open; the last row/column is
    /// clamped to the extent).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn core(&self, i: usize) -> Rect {
        assert!(i < self.len(), "tile index {i} out of range {}", self.len());
        let ix = (i % self.nx) as Coord;
        let iy = (i / self.nx) as Coord;
        let x0 = self.extent.x0 + ix * self.side;
        let y0 = self.extent.y0 + iy * self.side;
        Rect::new(
            x0,
            y0,
            (x0 + self.side).min(self.extent.x1),
            (y0 + self.side).min(self.extent.y1),
        )
    }

    /// Window of tile `i`: the core expanded by `halo` on all sides,
    /// **not** clamped to the extent.
    pub fn window(&self, i: usize, halo: Coord) -> Rect {
        self.core(i).expanded(halo)
    }

    /// Index of the tile whose (half-open) core contains `p`, or `None`
    /// if `p` lies outside the extent.
    pub fn tile_of(&self, p: Point) -> Option<usize> {
        if self.is_empty()
            || p.x < self.extent.x0
            || p.x >= self.extent.x1
            || p.y < self.extent.y0
            || p.y >= self.extent.y1
        {
            return None;
        }
        let ix = ((p.x - self.extent.x0) / self.side) as usize;
        let iy = ((p.y - self.extent.y0) / self.side) as usize;
        // Width/height not divisible by the pitch put the clamp inside
        // the last regular column, never beyond it.
        let ix = ix.min(self.nx - 1);
        let iy = iy.min(self.ny - 1);
        Some(iy * self.nx + ix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_partition_extent() {
        let ext = Rect::new(-30, 10, 250, 215);
        let g = TileGrid::new(ext, 100);
        assert_eq!((g.nx(), g.ny()), (3, 3));
        let mut area = 0i128;
        for i in 0..g.len() {
            let c = g.core(i);
            assert!(ext.contains_rect(&c));
            area += c.area();
            for j in 0..i {
                assert!(!g.core(j).overlaps(&c), "cores {j} and {i} overlap");
            }
        }
        assert_eq!(area, ext.area());
    }

    #[test]
    fn tile_of_matches_cores() {
        let g = TileGrid::new(Rect::new(0, 0, 250, 100), 100);
        for &(p, want) in &[
            (Point::new(0, 0), Some(0)),
            (Point::new(99, 99), Some(0)),
            (Point::new(100, 0), Some(1)),
            (Point::new(249, 99), Some(2)),
            (Point::new(250, 0), None),
            (Point::new(-1, 50), None),
            (Point::new(50, 100), None),
        ] {
            assert_eq!(g.tile_of(p), want, "{p:?}");
        }
    }

    #[test]
    fn window_is_unclamped() {
        let g = TileGrid::new(Rect::new(0, 0, 100, 100), 100);
        assert_eq!(g.window(0, 25), Rect::new(-25, -25, 125, 125));
    }

    #[test]
    fn empty_extent_has_no_tiles() {
        let g = TileGrid::new(Rect::empty(), 100);
        assert!(g.is_empty());
        assert_eq!(g.tile_of(Point::new(0, 0)), None);
    }
}
