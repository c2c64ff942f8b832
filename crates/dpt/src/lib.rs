//! # dfm-dpt — double-patterning decomposition and manufacturability
//! scoring
//!
//! Double patterning (DPT) splits one drawn layer onto two exposure
//! masks so that same-mask spacings relax to what single exposure can
//! resolve. Decomposition is graph 2-colouring: features closer than the
//! same-mask minimum conflict and must take different colours; odd cycles
//! are uncolourable and need either a **stitch** (splitting a feature so
//! its halves take different colours) or a layout change.
//!
//! This crate provides:
//!
//! * [`conflict_graph`] / [`two_color`] — exact conflict extraction and
//!   BFS 2-colouring with odd-cycle witnesses,
//! * [`decompose`] — full decomposition with automatic stitch insertion
//!   on odd cycles,
//! * [`score`] — the composite DPT manufacturability score (mask density
//!   balance, stitch count and overlap, residual conflicts) used by
//!   experiment E6.
//!
//! ```
//! use dfm_geom::{Rect, Region};
//! use dfm_dpt::{decompose, DptParams};
//!
//! // Three dense lines: 2-colourable (A, B, A).
//! let layer = Region::from_rects([
//!     Rect::new(0, 0, 5000, 90),
//!     Rect::new(0, 180, 5000, 270),
//!     Rect::new(0, 360, 5000, 450),
//! ]);
//! let d = decompose(&layer, DptParams::default());
//! assert!(d.conflicts.is_empty());
//! assert_eq!(d.stitches.len(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dfm_geom::{Coord, Rect, Region};

/// Decomposition parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DptParams {
    /// Minimum spacing two features need to share a mask.
    pub min_same_mask_space: Coord,
    /// Overlap length built into every stitch (misalignment margin).
    pub stitch_overlap: Coord,
}

impl Default for DptParams {
    fn default() -> Self {
        DptParams { min_same_mask_space: 130, stitch_overlap: 40 }
    }
}

impl DptParams {
    /// Parameters scaled from the drawn minimum spacing: same-mask
    /// spacing ≈ 1.4× drawn, stitch overlap ≈ half the minimum width.
    pub fn for_min_space(s: Coord) -> Self {
        DptParams {
            min_same_mask_space: s * 14 / 10,
            stitch_overlap: s / 2,
        }
    }
}

/// The outcome of a decomposition.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// First exposure mask.
    pub mask_a: Region,
    /// Second exposure mask.
    pub mask_b: Region,
    /// Stitch regions (overlap areas where a feature changes masks).
    pub stitches: Vec<Rect>,
    /// Bounding boxes of features left in unresolved odd cycles.
    pub conflicts: Vec<Rect>,
}

/// Builds the conflict graph over `components`: an edge joins two
/// components whose separation is below `min_space` (Chebyshev).
pub fn conflict_graph(components: &[Region], min_space: Coord) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    let bboxes: Vec<Rect> = components.iter().map(|c| c.bbox()).collect();
    for i in 0..components.len() {
        for j in (i + 1)..components.len() {
            // Bounding-box prefilter.
            let (dx, dy) = bboxes[i].gap(&bboxes[j]);
            if dx.max(dy) >= min_space {
                continue;
            }
            // Exact: does bloating one by `min_space` reach the other?
            // (Half-open semantics make "overlap after bloat s" ⇔
            // separation < s.)
            let near = components[i].bloated(min_space).intersection(&components[j]);
            if !near.is_empty() {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// BFS 2-colouring.
///
/// Returns the colour vector, or an odd cycle witness (a list of node
/// indices involved) if the graph is not bipartite.
pub fn two_color(n: usize, edges: &[(usize, usize)]) -> Result<Vec<bool>, Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut color: Vec<Option<bool>> = vec![None; n];
    let mut parent: Vec<usize> = (0..n).collect();
    for start in 0..n {
        if color[start].is_some() {
            continue;
        }
        color[start] = Some(false);
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            let cu = color[u].expect("queued nodes are coloured");
            for &v in &adj[u] {
                match color[v] {
                    None => {
                        color[v] = Some(!cu);
                        parent[v] = u;
                        queue.push_back(v);
                    }
                    Some(cv) if cv == cu => {
                        // Odd cycle: collect the tree paths of both ends.
                        let mut members = vec![u, v];
                        let mut x = u;
                        while parent[x] != x {
                            x = parent[x];
                            members.push(x);
                        }
                        let mut y = v;
                        while parent[y] != y {
                            y = parent[y];
                            members.push(y);
                        }
                        members.sort_unstable();
                        members.dedup();
                        return Err(members);
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(color.into_iter().map(|c| c.unwrap_or(false)).collect())
}

/// Splits a component into two overlapping pieces at the midpoint of its
/// largest rectangle. Returns `(piece_low, piece_high, stitch_rect)`, or
/// `None` if the component is too small to stitch.
fn split_component(comp: &Region, overlap: Coord) -> Option<(Region, Region, Rect)> {
    let r = comp.rects().iter().max_by_key(|r| r.area())?;
    let horizontal = r.width() >= r.height();
    let bbox = comp.bbox();
    if horizontal {
        if r.width() < 3 * overlap {
            return None;
        }
        let mid = r.x0 + r.width() / 2;
        let low = comp.clipped(Rect::new(bbox.x0, bbox.y0, mid + overlap / 2, bbox.y1));
        let high = comp.clipped(Rect::new(mid - overlap / 2, bbox.y0, bbox.x1, bbox.y1));
        let stitch = Rect::new(mid - overlap / 2, r.y0, mid + overlap / 2, r.y1);
        Some((low, high, stitch))
    } else {
        if r.height() < 3 * overlap {
            return None;
        }
        let mid = r.y0 + r.height() / 2;
        let low = comp.clipped(Rect::new(bbox.x0, bbox.y0, bbox.x1, mid + overlap / 2));
        let high = comp.clipped(Rect::new(bbox.x0, mid - overlap / 2, bbox.x1, bbox.y1));
        let stitch = Rect::new(r.x0, mid - overlap / 2, r.x1, mid + overlap / 2);
        Some((low, high, stitch))
    }
}

/// Decomposes a layer onto two masks, inserting stitches to break odd
/// cycles where possible.
pub fn decompose(layer: &Region, params: DptParams) -> Decomposition {
    let mut pieces: Vec<Region> = layer.connected_components();
    let mut stitches: Vec<Rect> = Vec::new();
    let mut conflicts: Vec<Rect> = Vec::new();
    let mut attempts = pieces.len() + 8;

    loop {
        let edges = conflict_graph(&pieces, params.min_same_mask_space);
        match two_color(pieces.len(), &edges) {
            Ok(colors) => {
                let mut a = Vec::new();
                let mut b = Vec::new();
                for (piece, color) in pieces.iter().zip(colors) {
                    let rects = piece.rects().to_vec();
                    if color {
                        b.extend(rects);
                    } else {
                        a.extend(rects);
                    }
                }
                return Decomposition {
                    mask_a: Region::from_rects(a),
                    mask_b: Region::from_rects(b),
                    stitches,
                    conflicts,
                };
            }
            Err(cycle) => {
                if attempts == 0 {
                    // Give up on the remaining cycles: report and drop
                    // the smallest member to restore colourability.
                    let worst = cycle
                        .iter()
                        .copied()
                        .min_by_key(|&i| pieces[i].area())
                        .expect("cycle is non-empty");
                    conflicts.push(pieces[worst].bbox());
                    pieces.remove(worst);
                    continue;
                }
                attempts -= 1;
                // Stitch the largest member of the cycle.
                let candidate = cycle
                    .iter()
                    .copied()
                    .max_by_key(|&i| pieces[i].area())
                    .expect("cycle is non-empty");
                match split_component(&pieces[candidate], params.stitch_overlap) {
                    Some((low, high, stitch)) => {
                        pieces.swap_remove(candidate);
                        pieces.push(low);
                        pieces.push(high);
                        stitches.push(stitch);
                    }
                    None => {
                        conflicts.push(pieces[candidate].bbox());
                        pieces.swap_remove(candidate);
                    }
                }
            }
        }
    }
}

/// The composite DPT manufacturability score.
pub mod score {
    use super::{Decomposition, DptParams};
    use dfm_geom::Region;
    use std::fmt;

    /// Component scores, each in `[0, 1]`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct DptScore {
        /// Mask area balance: 1 when both masks carry equal density.
        pub density_balance: f64,
        /// Stitch economy: 1 with no stitches, decaying with stitch
        /// density per feature.
        pub stitch_economy: f64,
        /// Stitch robustness: fraction of stitches meeting the required
        /// overlap.
        pub stitch_robustness: f64,
        /// Conflict cleanliness: 1 with no unresolved odd cycles.
        pub conflict_cleanliness: f64,
    }

    impl DptScore {
        /// Weighted composite score in `[0, 1]` (balance 0.25, economy
        /// 0.25, robustness 0.2, cleanliness 0.3).
        pub fn composite(&self) -> f64 {
            0.25 * self.density_balance
                + 0.25 * self.stitch_economy
                + 0.20 * self.stitch_robustness
                + 0.30 * self.conflict_cleanliness
        }
    }

    impl fmt::Display for DptScore {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "DPT score {:.2} (balance {:.2}, stitches {:.2}/{:.2}, conflicts {:.2})",
                self.composite(),
                self.density_balance,
                self.stitch_economy,
                self.stitch_robustness,
                self.conflict_cleanliness
            )
        }
    }

    /// Scores a decomposition of `layer`.
    pub fn evaluate(decomp: &Decomposition, layer: &Region, params: DptParams) -> DptScore {
        let a = decomp.mask_a.area() as f64;
        let b = decomp.mask_b.area() as f64;
        let density_balance = if a + b > 0.0 { 1.0 - (a - b).abs() / (a + b) } else { 1.0 };

        let features = layer.connected_components().len().max(1) as f64;
        let stitch_density = decomp.stitches.len() as f64 / features;
        let stitch_economy = 1.0 / (1.0 + 4.0 * stitch_density);

        let stitch_robustness = if decomp.stitches.is_empty() {
            1.0
        } else {
            let ok = decomp
                .stitches
                .iter()
                .filter(|s| s.width().min(s.height()) >= params.stitch_overlap)
                .count();
            ok as f64 / decomp.stitches.len() as f64
        };

        let conflict_cleanliness = 1.0 / (1.0 + decomp.conflicts.len() as f64);

        DptScore {
            density_balance,
            stitch_economy,
            stitch_robustness,
            conflict_cleanliness,
        }
    }
}


/// Multi-patterning (k ≥ 2 masks) via greedy DSATUR colouring.
///
/// Double patterning's odd cycles vanish with a third mask — at triple
/// the mask cost. This module quantifies that trade (the "LELE vs LELELE"
/// debate that followed the panel).
pub mod multi {
    use super::{conflict_graph, DptParams};
    use dfm_geom::{Rect, Region};

    /// A k-mask decomposition.
    #[derive(Clone, Debug)]
    pub struct MultiDecomposition {
        /// One region per mask, in mask order.
        pub masks: Vec<Region>,
        /// Features that could not be coloured with k masks.
        pub conflicts: Vec<Rect>,
    }

    /// Greedy DSATUR k-colouring.
    ///
    /// Returns one colour per node, `None` marking nodes that could not
    /// be coloured within `k` colours.
    pub fn color_k(n: usize, edges: &[(usize, usize)], k: usize) -> Vec<Option<u8>> {
        assert!((1..=8).contains(&k), "1..=8 masks supported");
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut color: Vec<Option<u8>> = vec![None; n];
        let mut uncolorable: Vec<bool> = vec![false; n];
        for _ in 0..n {
            // DSATUR: pick the uncoloured node with the most distinctly-
            // coloured neighbours (ties by degree, then index).
            let mut best: Option<(usize, usize, usize)> = None; // (sat, deg, idx)
            for v in 0..n {
                if color[v].is_some() || uncolorable[v] {
                    continue;
                }
                let mut seen = [false; 8];
                for &u in &adj[v] {
                    if let Some(c) = color[u] {
                        seen[c as usize] = true;
                    }
                }
                let sat = seen.iter().filter(|&&s| s).count();
                let key = (sat, adj[v].len(), usize::MAX - v);
                if best.is_none_or(|(s, d, i)| key > (s, d, i)) {
                    best = Some(key);
                }
            }
            let Some((_, _, inv_idx)) = best else { break };
            let v = usize::MAX - inv_idx;
            let mut used = [false; 8];
            for &u in &adj[v] {
                if let Some(c) = color[u] {
                    used[c as usize] = true;
                }
            }
            match (0..k).find(|&c| !used[c]) {
                Some(c) => color[v] = Some(c as u8),
                None => uncolorable[v] = true,
            }
        }
        color
    }

    /// Decomposes a layer onto `k` masks (no stitching — the extra mask
    /// replaces it).
    pub fn decompose_k(layer: &Region, params: DptParams, k: usize) -> MultiDecomposition {
        let pieces = layer.connected_components();
        let edges = conflict_graph(&pieces, params.min_same_mask_space);
        let colors = color_k(pieces.len(), &edges, k);
        let mut masks: Vec<Vec<Rect>> = vec![Vec::new(); k];
        let mut conflicts = Vec::new();
        for (piece, color) in pieces.iter().zip(&colors) {
            match color {
                Some(c) => masks[*c as usize].extend(piece.rects().iter().copied()),
                None => conflicts.push(piece.bbox()),
            }
        }
        MultiDecomposition {
            masks: masks.into_iter().map(Region::from_rects).collect(),
            conflicts,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use dfm_geom::Rect;

        #[test]
        fn triangle_needs_three_masks() {
            let edges = [(0, 1), (1, 2), (2, 0)];
            let two = color_k(3, &edges, 2);
            assert!(two.iter().any(|c| c.is_none()));
            let three = color_k(3, &edges, 3);
            assert!(three.iter().all(|c| c.is_some()));
            // Proper colouring.
            for &(a, b) in &edges {
                assert_ne!(three[a], three[b]);
            }
        }

        #[test]
        fn k4_defeats_three_masks() {
            let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
            let three = color_k(4, &edges, 3);
            assert_eq!(three.iter().filter(|c| c.is_none()).count(), 1);
            let four = color_k(4, &edges, 4);
            assert!(four.iter().all(|c| c.is_some()));
        }

        #[test]
        fn native_dpt_conflict_resolves_with_triple() {
            // The compact triangle that double patterning cannot fix.
            let layer = Region::from_rects([
                Rect::new(0, 0, 2000, 90),
                Rect::new(0, 180, 2000, 270),
                Rect::new(2090, -200, 2180, 500),
            ]);
            let params = DptParams::default();
            let double = super::super::decompose(&layer, params);
            assert!(!double.conflicts.is_empty(), "DPT must fail on this");
            let triple = decompose_k(&layer, params, 3);
            assert!(triple.conflicts.is_empty(), "TPT must succeed");
            let union = triple
                .masks
                .iter()
                .fold(Region::new(), |acc, m| acc.union(m));
            assert_eq!(union, layer);
        }

        #[test]
        fn masks_are_mutually_clear() {
            let layer = Region::from_rects(
                (0..9).map(|i| Rect::new(0, i * 180, 4000, i * 180 + 90)),
            );
            let d = decompose_k(&layer, DptParams::default(), 3);
            assert!(d.conflicts.is_empty());
            // Within each mask, separation is at least the same-mask rule.
            for m in &d.masks {
                for pair in dfm_drc_probe(m) {
                    assert!(pair >= DptParams::default().min_same_mask_space);
                }
            }
        }

        fn dfm_drc_probe(mask: &Region) -> Vec<i64> {
            let rects = mask.rects();
            let mut gaps = Vec::new();
            for i in 0..rects.len() {
                for j in (i + 1)..rects.len() {
                    let (dx, dy) = rects[i].gap(&rects[j]);
                    gaps.push(dx.max(dy));
                }
            }
            gaps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grating(n: i64, pitch: Coord, w: Coord) -> Region {
        Region::from_rects((0..n).map(|i| Rect::new(0, i * pitch, 4000, i * pitch + w)))
    }

    /// Smallest vertical gap between rects of a region (for tests).
    fn min_vertical_gap(mask: &Region) -> Coord {
        let rects = mask.rects();
        let mut best = Coord::MAX;
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                let (dx, dy) = rects[i].gap(&rects[j]);
                if dx == 0 && dy > 0 {
                    best = best.min(dy);
                }
            }
        }
        best
    }

    #[test]
    fn dense_grating_alternates() {
        // 90/90: drawn spacing 90 < same-mask minimum 130.
        let layer = grating(6, 180, 90);
        let d = decompose(&layer, DptParams::default());
        assert!(d.conflicts.is_empty());
        assert!(d.stitches.is_empty());
        assert_eq!(d.mask_a.rect_count() + d.mask_b.rect_count(), 6);
        assert_eq!(d.mask_a.rect_count(), 3);
        // Same-mask spacing is now a full pitch: 270 ≥ 130.
        assert!(min_vertical_gap(&d.mask_a) >= 270);
    }

    #[test]
    fn sparse_layer_needs_no_splitting() {
        let layer = grating(4, 600, 90);
        let d = decompose(&layer, DptParams::default());
        assert!(d.conflicts.is_empty());
        assert_eq!(d.mask_a.rect_count() + d.mask_b.rect_count(), 4);
    }

    #[test]
    fn ring_odd_cycle_gets_stitched() {
        // A three-piece ring: bottom bar, right bar, and an L (top bar +
        // left arm). Pairwise conflicts sit at three *different* corners,
        // so splitting the L between its two conflict zones turns the odd
        // cycle into an even one — the textbook stitchable case.
        let p1 = Rect::new(0, 0, 1000, 90); // bottom
        let p2 = Rect::new(1090, 0, 1180, 1000); // right
        let p3_bar = Rect::new(0, 1090, 1090, 1180); // top (L part)
        let p3_arm = Rect::new(0, 180, 90, 1180); // left arm (L part)
        let layer = Region::from_rects([p1, p2, p3_bar, p3_arm]);
        let params = DptParams::default();
        let comps = layer.connected_components();
        assert_eq!(comps.len(), 3);
        let edges = conflict_graph(&comps, params.min_same_mask_space);
        assert_eq!(edges.len(), 3, "ring expected: {edges:?}");
        assert!(two_color(3, &edges).is_err());

        let d = decompose(&layer, params);
        assert!(d.conflicts.is_empty(), "conflicts: {:?}", d.conflicts);
        assert!(!d.stitches.is_empty());
        // Decomposition preserves the drawn geometry.
        assert_eq!(d.mask_a.union(&d.mask_b), layer);
    }

    #[test]
    fn compact_triangle_is_a_native_conflict() {
        // Two long parallel bars plus a vertical bar near their right
        // ends: the three features are mutually close *in one compact
        // neighbourhood*, which no stitching can fix — a native DPT
        // conflict that requires a layout change.
        let layer = Region::from_rects([
            Rect::new(0, 0, 2000, 90),
            Rect::new(0, 180, 2000, 270),
            Rect::new(2090, -200, 2180, 500),
        ]);
        let d = decompose(&layer, DptParams::default());
        assert!(!d.conflicts.is_empty());
    }

    #[test]
    fn unstitchable_conflict_reported() {
        // Three tiny squares in mutual conflict: too small to stitch.
        let layer = Region::from_rects([
            Rect::new(0, 0, 60, 60),
            Rect::new(120, 0, 180, 60),
            Rect::new(60, 100, 120, 160),
        ]);
        let d = decompose(&layer, DptParams::default());
        assert!(!d.conflicts.is_empty());
    }

    #[test]
    fn two_color_simple_graphs() {
        assert!(two_color(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).is_ok());
        let cycle = two_color(3, &[(0, 1), (1, 2), (2, 0)]).expect_err("triangle is odd");
        assert!(!cycle.is_empty());
        assert!(two_color(5, &[(0, 1), (3, 4)]).is_ok());
    }

    #[test]
    fn scores_in_range_and_ordered() {
        let params = DptParams::default();
        let clean_layer = grating(6, 180, 90);
        let clean = decompose(&clean_layer, params);
        let clean_score = score::evaluate(&clean, &clean_layer, params);
        assert!(clean_score.composite() > 0.9, "{clean_score}");

        let messy_layer = Region::from_rects([
            Rect::new(0, 0, 2000, 90),
            Rect::new(0, 180, 2000, 270),
            Rect::new(2090, -200, 2180, 500),
        ]);
        let messy = decompose(&messy_layer, params);
        let messy_score = score::evaluate(&messy, &messy_layer, params);
        assert!(messy_score.composite() < clean_score.composite());
        for s in [
            messy_score.density_balance,
            messy_score.stitch_economy,
            messy_score.stitch_robustness,
            messy_score.conflict_cleanliness,
        ] {
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    #[test]
    fn decomposition_preserves_geometry() {
        let layer = grating(8, 180, 90);
        let d = decompose(&layer, DptParams::default());
        assert_eq!(d.mask_a.union(&d.mask_b), layer);
        assert!(d.mask_a.intersection(&d.mask_b).is_empty());
    }
}
