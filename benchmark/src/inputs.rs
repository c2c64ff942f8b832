//! Seeded workload inputs. Everything is generated here, in setup, by
//! `dfm_layout::generate`; the service sees only GDS bytes.

use dfm_geom::{Rect, Region};
use dfm_layout::{gds, generate, layers, Library, Technology};
use dfm_rand::{Rng, Seed};

/// Side of the edit square dropped onto METAL1 by [`edit_rect`], in nm.
pub const EDIT_SIDE: i64 = 150;

/// A `side × side` nm routed block at the default fill, and its GDS
/// bytes.
///
/// Blocks of one side differ by several percent in shape count from seed
/// to seed (sd 1.5 % of the bytes at 40 000 nm, 6 % at 12 000 nm), and
/// what the service does with them is at best linear in that count —
/// `parse_json` of the submit frame is far worse. So sub-seeds of `seed`
/// are drawn until the GDS is within 0.25 % of `nominal_bytes`, the mean
/// size for that side: seeds then vary the geometry, not the amount of it.
pub fn routed_block(side: i64, nominal_bytes: usize, seed: u64) -> (Library, Vec<u8>) {
    let params = generate::RoutedBlockParams {
        width: side,
        height: side,
        ..Default::default()
    };
    for draw in 0..100_000 {
        let lib = generate::routed_block(&Technology::n65(), params, Seed(seed).derive(draw).0);
        let gds = encode(&lib);
        if gds.len().abs_diff(nominal_bytes) <= nominal_bytes / 400 {
            return (lib, gds);
        }
    }
    panic!("no {side} nm routed block near {nominal_bytes} bytes from seed {seed}");
}

/// The hierarchical SRAM array of `shard_2x1`: one bitcell, one AREF.
/// It has no seed: the generator is fully regular, so every seed gives
/// the same bytes.
pub fn sram_array(rows: u16, cols: u16) -> Library {
    generate::sram_array(&Technology::n65(), rows, cols)
}

pub fn encode(lib: &Library) -> Vec<u8> {
    gds::to_bytes(lib).expect("generated layouts serialise")
}

/// A seeded series of one-rectangle edits of a routed block.
pub struct Edits {
    base: Library,
    /// Merged METAL1 of `base`, to tell whether a square adds metal.
    m1: Region,
    side: i64,
    seed: u64,
}

impl Edits {
    pub fn new(base: &Library, side: i64, seed: u64) -> Edits {
        let m1 = base
            .flatten_top()
            .expect("generated layouts flatten")
            .region(layers::METAL1);
        Edits {
            base: base.clone(),
            m1,
            side,
            seed,
        }
    }

    /// The `k`-th edit: an [`EDIT_SIDE`] square strictly inside the block,
    /// so the layout bbox (and with it the tile grid) never moves and only
    /// the tiles whose window the square touches change content. A square
    /// that existing metal covers completely would change nothing, so such
    /// a draw is repeated. Each index has its own stream: edit `k` does not
    /// depend on how many edits were drawn before it.
    pub fn rect(&self, k: u64) -> Rect {
        let mut rng = Rng::from_seed(Seed(self.seed ^ 0xED17_0000_0000_0000).derive(k));
        let margin = 2 * EDIT_SIDE;
        loop {
            let x = rng.range(margin..self.side - margin - EDIT_SIDE);
            let y = rng.range(margin..self.side - margin - EDIT_SIDE);
            let rect = Rect::new(x, y, x + EDIT_SIDE, y + EDIT_SIDE);
            if self.m1.clipped(rect).area() < rect.area() {
                return rect;
            }
        }
    }

    /// GDS bytes of the base plus `rect` on METAL1 in its top cell.
    pub fn gds_with(&self, rect: Rect) -> Vec<u8> {
        let mut lib = self.base.clone();
        let top = lib.top().expect("generated layouts have a top cell");
        lib.cell_mut(top).add_rect(layers::METAL1, rect);
        encode(&lib)
    }

    /// GDS bytes of the `k`-th edit.
    pub fn gds(&self, k: u64) -> Vec<u8> {
        self.gds_with(self.rect(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_signoff::{JobContext, JobSpec};

    #[test]
    fn same_seed_same_bytes_and_seeds_differ() {
        let (base, a) = routed_block(8_000, 22_000, 11);
        assert_eq!(a, routed_block(8_000, 22_000, 11).1);
        assert_ne!(a, routed_block(8_000, 22_000, 12).1);
        assert!(
            a.len().abs_diff(22_000) <= 55,
            "sized to the nominal bytes: {}",
            a.len()
        );
        let edits = Edits::new(&base, 8_000, 11);
        let e0 = edits.gds(0);
        assert_eq!(e0, Edits::new(&base, 8_000, 11).gds(0));
        assert_ne!(e0, edits.gds(1));
        assert_ne!(e0, Edits::new(&base, 8_000, 12).gds(0));
        assert_ne!(e0, a);
    }

    #[test]
    fn each_edit_dirties_one_to_four_tiles_of_a_hundred() {
        // The edit_resubmit geometry at a fifth of the linear size: the
        // same 10 x 10 grid and the same tile : content-halo ratio regime
        // (tile several halos wide), so a 150 nm square can straddle at
        // most one tile corner.
        let (side, spec) = (
            20_000,
            JobSpec {
                tile: 2048,
                halo: 512,
                ..JobSpec::default()
            },
        );
        let (base, gds) = routed_block(side, 146_000, 11);
        let ctx = JobContext::build(&spec, &gds).expect("base context");
        assert_eq!(ctx.tile_count(), 100);
        let digests: Vec<u64> = (0..100).map(|t| ctx.tile_content_digest(t)).collect();
        let edits = Edits::new(&base, side, 11);
        for k in 0..12 {
            let gds = edits.gds(k);
            let edited = JobContext::build(&spec, &gds).expect("edited context");
            assert_eq!(edited.tile_count(), 100, "edit {k} moved the tile grid");
            let dirty = (0..100)
                .filter(|&t| edited.tile_content_digest(t) != digests[t])
                .count();
            assert!((1..=4).contains(&dirty), "edit {k} dirtied {dirty} tiles");
        }
    }
}
