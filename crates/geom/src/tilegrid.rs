//! Fixed-pitch tile grids over a layout extent.
//!
//! A [`TileGrid`] partitions a rectangular extent into half-open *cores*
//! of a fixed nominal size (the last row/column is clamped to the
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

/// A fixed-pitch partition of an extent into half-open core rectangles.
///
/// Tiles are indexed row-major: `i = iy * nx + ix`.
///
/// ```
/// use dfm_geom::{Rect, TileGrid};
/// let g = TileGrid::new(Rect::new(0, 0, 250, 100), 100, 100);
/// assert_eq!((g.nx(), g.ny()), (3, 1));
/// assert_eq!(g.core(2), Rect::new(200, 0, 250, 100)); // clamped last column
/// assert_eq!(g.tile_of(dfm_geom::Point::new(200, 0)), Some(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TileGrid {
    extent: Rect,
    tile_w: Coord,
    tile_h: Coord,
    nx: usize,
    ny: usize,
}

impl TileGrid {
    /// Builds a grid of `tile_w` × `tile_h` cores over `extent`.
    ///
    /// An empty extent yields a grid with zero tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tile_w` or `tile_h` is not positive.
    pub fn new(extent: Rect, tile_w: Coord, tile_h: Coord) -> Self {
        assert!(tile_w > 0 && tile_h > 0, "tile size must be positive");
        let (nx, ny) = if extent.is_empty() {
            (0, 0)
        } else {
            (
                (extent.width() + tile_w - 1) / tile_w,
                (extent.height() + tile_h - 1) / tile_h,
            )
        };
        TileGrid {
            extent,
            tile_w,
            tile_h,
            nx: nx as usize,
            ny: ny as usize,
        }
    }

    /// The partitioned extent.
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// Nominal tile size `(w, h)`.
    pub fn tile_size(&self) -> (Coord, Coord) {
        (self.tile_w, self.tile_h)
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
        let x0 = self.extent.x0 + ix * self.tile_w;
        let y0 = self.extent.y0 + iy * self.tile_h;
        Rect::new(
            x0,
            y0,
            (x0 + self.tile_w).min(self.extent.x1),
            (y0 + self.tile_h).min(self.extent.y1),
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
        let ix = ((p.x - self.extent.x0) / self.tile_w) as usize;
        let iy = ((p.y - self.extent.y0) / self.tile_h) as usize;
        // Width/height not divisible by the pitch put the clamp inside
        // the last regular column, never beyond it.
        let ix = ix.min(self.nx - 1);
        let iy = iy.min(self.ny - 1);
        Some(iy * self.nx + ix)
    }

    /// Indices of all tiles whose core touches the closed rectangle `r`,
    /// in ascending (row-major) order.
    pub fn tiles_touching(&self, r: &Rect) -> Vec<usize> {
        if self.is_empty() || r.is_empty() {
            return Vec::new();
        }
        let ix0 = (((r.x0 - self.extent.x0) / self.tile_w).max(0) as usize).min(self.nx - 1);
        let ix1 = (((r.x1 - self.extent.x0) / self.tile_w).max(0) as usize).min(self.nx - 1);
        let iy0 = (((r.y0 - self.extent.y0) / self.tile_h).max(0) as usize).min(self.ny - 1);
        let iy1 = (((r.y1 - self.extent.y0) / self.tile_h).max(0) as usize).min(self.ny - 1);
        let mut out = Vec::with_capacity((ix1 - ix0 + 1) * (iy1 - iy0 + 1));
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                let i = iy * self.nx + ix;
                if self.core(i).touches(r) {
                    out.push(i);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_partition_extent() {
        let ext = Rect::new(-30, 10, 250, 215);
        let g = TileGrid::new(ext, 100, 70);
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
        let g = TileGrid::new(Rect::new(0, 0, 250, 100), 100, 100);
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
        let g = TileGrid::new(Rect::new(0, 0, 100, 100), 100, 100);
        assert_eq!(g.window(0, 25), Rect::new(-25, -25, 125, 125));
    }

    #[test]
    fn tiles_touching_includes_seam_neighbours() {
        let g = TileGrid::new(Rect::new(0, 0, 200, 200), 100, 100);
        // A rect ending exactly on the seam still touches both sides.
        assert_eq!(g.tiles_touching(&Rect::new(40, 40, 100, 60)), vec![0, 1]);
        assert_eq!(
            g.tiles_touching(&Rect::new(90, 90, 110, 110)),
            vec![0, 1, 2, 3]
        );
        assert!(g.tiles_touching(&Rect::new(300, 300, 310, 310)).is_empty());
    }

    #[test]
    fn empty_extent_has_no_tiles() {
        let g = TileGrid::new(Rect::empty(), 100, 100);
        assert!(g.is_empty());
        assert_eq!(g.tile_of(Point::new(0, 0)), None);
    }
}
