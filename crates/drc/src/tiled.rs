//! Tile-streaming DRC execution: bit-identical to the flat engine.
//!
//! [`TiledDrcEngine`] runs a [`RuleDeck`] over a [`TiledLayout`],
//! materialising one tile window per task (`dfm_par::par_map_range`
//! over tile indices, partials returned in tile order) and merging
//! per-tile partial results into exactly the report the flat
//! [`crate::DrcEngine`] produces — same violations, same order, same
//! bits, at any thread count and tile size.
//!
//! # Seam dedup: the ownership rule
//!
//! Tile *cores* partition the layout extent (half-open), so every
//! point belongs to exactly one core. Each partial result carries a
//! canonical anchor point and is kept only by the tile whose core
//! contains it:
//!
//! * edge-pair fragments — owned per span column: a tile keeps the
//!   fragment strip whose gap coordinate and span columns lie in its
//!   core; strips re-coalesce across tiles into the flat measurement,
//! * corner gaps — owned by the gap box's low corner,
//! * connected components (min-area) — complete components are judged
//!   in-tile; seam-touching pieces ship `(area, bbox, seam rects)` and
//!   are unioned across tiles before judging,
//! * component rules (enclosure, cross-layer spacing, wide-space) —
//!   owned by the component's anchor (the leftmost covered cell of its
//!   bottom row), **certified or refused**: when a tile cannot prove
//!   its window contains everything the measurement depends on, the
//!   run returns [`TiledDrcError`] instead of a silently different
//!   report,
//! * density — exact per-window partial area sums over `region ∩ core`,
//!   merged by window index; the single f64 division per window happens
//!   once, after the merge, exactly as in the flat path.
//!
//! The "tiled path never materialises a full-layer region" claim is
//! observable: [`TileStats::peak_tile_rects`] records the largest
//! per-tile rect count seen, and the benches publish it.

use crate::check::{
    coalesce_fragments, corner_gap_pairs, density_ppm, density_windows, enclosure_margin,
    min_separation, raw_pair_fragments, sort_violations, PairFragment,
};
use crate::{DrcReport, FacingPair, Rule, RuleDeck, Violation};
use dfm_geom::{Point, Rect, Region};
use dfm_layout::{Layer, LayoutView, TileView, TiledLayout};
use std::collections::BTreeMap;
use std::fmt;

/// Memory-proxy statistics of a tiled run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Number of tiles in the grid.
    pub tiles: usize,
    /// Largest canonical rect count of any materialised tile view —
    /// the peak working-set proxy (the flat path would hold whole
    /// layers instead).
    pub peak_tile_rects: usize,
}

impl TileStats {
    fn absorb(&mut self, other: TileStats) {
        self.tiles = self.tiles.max(other.tiles);
        self.peak_tile_rects = self.peak_tile_rects.max(other.peak_tile_rects);
    }
}

/// A tiled run that could not be certified bit-identical to flat.
///
/// Raised when a rule's interaction range exceeds what the tile halo
/// can prove local (e.g. a cross-layer near-region or an
/// under-enclosed component reaching from a tile's core to its window
/// boundary). The fix is a larger halo or tile size; the engine never
/// silently degrades.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TiledDrcError {
    /// Rule id that failed certification.
    pub rule: String,
    /// Tile index where certification failed.
    pub tile: usize,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for TiledDrcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tiled drc cannot certify rule {} at tile {}: {} (increase the tile halo or size)",
            self.rule, self.tile, self.message
        )
    }
}

impl std::error::Error for TiledDrcError {}

/// Result of a certified tiled run.
#[derive(Clone, Debug)]
pub struct TiledDrcRun {
    /// The merged report — bit-identical to the flat engine's.
    pub report: DrcReport,
    /// Peak working-set statistics.
    pub stats: TileStats,
}

/// Runs a [`RuleDeck`] against a [`TiledLayout`], tile by tile.
#[derive(Clone, Copy, Debug)]
pub struct TiledDrcEngine<'a> {
    deck: &'a RuleDeck,
}

impl<'a> TiledDrcEngine<'a> {
    /// Creates an engine for a deck.
    pub fn new(deck: &'a RuleDeck) -> Self {
        TiledDrcEngine { deck }
    }

    /// Runs every rule, streaming tiles, merging per-rule results in
    /// deck order.
    ///
    /// # Errors
    ///
    /// [`TiledDrcError`] when a rule cannot be certified bit-identical
    /// at this tile/halo configuration.
    pub fn run(&self, layout: &TiledLayout) -> Result<TiledDrcRun, TiledDrcError> {
        let mut report = DrcReport::new();
        let mut stats = TileStats { tiles: layout.tile_count(), peak_tile_rects: 0 };
        for rule in self.deck.rules() {
            let (violations, rule_stats) = check_rule_tiled(rule, layout)?;
            stats.absorb(rule_stats);
            report.extend(violations);
        }
        Ok(TiledDrcRun { report, stats })
    }
}

/// The mergeable per-tile partial result of one rule on one tile — a
/// pure function of `(rule, layout, tile index)` computed by
/// [`rule_tile_partial`].
///
/// Partials may be computed in any order, on any thread, in any
/// process (they round-trip through a checkpoint codec in the signoff
/// service); [`merge_rule_partials`] folds them **in tile order** into
/// exactly the violations the flat engine produces.
#[derive(Clone, Debug, PartialEq)]
pub enum RulePartial {
    /// Core-owned edge-pair fragment strips (MinWidth): re-coalesced
    /// into flat measurements at merge.
    Fragments {
        /// Owned fragment strips of this tile.
        frags: Vec<PairFragment>,
        /// Canonical rect count of the materialised tile view.
        rects: usize,
    },
    /// Fragment strips plus low-corner-owned corner gaps (MinSpace).
    Spacing {
        /// Owned fragment strips of this tile.
        frags: Vec<PairFragment>,
        /// Corner-to-corner gap boxes owned by this tile, with their
        /// diagonal distances.
        corners: Vec<(Rect, i64)>,
        /// Canonical rect count of the materialised tile view.
        rects: usize,
    },
    /// Min-area connected components: complete ones are judged at
    /// merge from `(bbox, area)`, seam-touching pieces are unioned
    /// across tiles first.
    Area {
        /// Components wholly inside this tile's core.
        complete: Vec<(Rect, i128)>,
        /// Seam-touching component pieces shipped to the union-find.
        pieces: Vec<AreaPiece>,
        /// Canonical rect count of the materialised tile view.
        rects: usize,
    },
    /// Exact per-density-window covered-area partial sums over
    /// `region ∩ core ∩ window`.
    Density {
        /// `(window index, covered area)` pairs, zero entries omitted.
        partials: Vec<(usize, i128)>,
        /// Canonical rect count of the materialised tile view.
        rects: usize,
    },
    /// A certified component rule's finished in-tile violations, or a
    /// refusal when the tile could not prove the measurement local.
    Certified {
        /// Violations owned (and fully measured) by this tile.
        violations: Vec<Violation>,
        /// Canonical rect count of the materialised tile view.
        rects: usize,
        /// The tile's own index when it refused certification.
        refused: Option<usize>,
    },
}

impl RulePartial {
    /// Canonical rect count of the tile view the partial came from —
    /// the per-tile working-set proxy folded into [`TileStats`].
    pub fn rect_count(&self) -> usize {
        match self {
            RulePartial::Fragments { rects, .. }
            | RulePartial::Spacing { rects, .. }
            | RulePartial::Area { rects, .. }
            | RulePartial::Density { rects, .. }
            | RulePartial::Certified { rects, .. } => *rects,
        }
    }
}

/// The tile halo [`rule_tile_partial`] materialises its view with —
/// the rule's interaction range plus its certification margin. A
/// caller that needs a window provably covering *everything* a rule
/// reads (e.g. a content-addressed result cache keying on tile bytes)
/// takes the max of this over the deck.
pub fn rule_tile_halo(rule: &Rule) -> i64 {
    match rule {
        Rule::MinWidth { value, .. } | Rule::MinSpace { value, .. } => value + 2,
        Rule::MinArea { .. } | Rule::Density { .. } => 0,
        Rule::MinSpaceTo { value, .. } => 2 * value + 4,
        Rule::Enclosure { value, .. } => 2 * value + 6,
        Rule::WideSpace { wide_width, space, .. } => wide_width + space + 8,
    }
}

/// Computes one rule's partial result on one tile. Pure: the output
/// depends only on the arguments, never on thread count or execution
/// order — the property that lets a job scheduler recompute, reorder,
/// or checkpoint tile tasks freely.
pub fn rule_tile_partial(rule: &Rule, layout: &TiledLayout, tile: usize) -> RulePartial {
    let id = rule.id();
    let make = |location: Rect, actual: i64, limit: i64| Violation {
        rule: id.clone(),
        location,
        actual,
        limit,
    };
    match rule {
        Rule::MinWidth { layer, value } => {
            let (frags, rects) = facing_pair_partial(layout, *layer, *value, true, tile);
            RulePartial::Fragments { frags, rects }
        }
        Rule::MinSpace { layer, value } => {
            let view = layout.view_layers(tile, rule_tile_halo(rule), &[*layer]);
            let region = view.region(*layer);
            let core = view.core();
            let frags = own_fragments(raw_pair_fragments(&region, *value, false), core);
            let corners: Vec<(Rect, i64)> = corner_gap_pairs(&region, *value)
                .into_iter()
                .filter(|(r, _)| owns(core, Point::new(r.x0, r.y0)))
                .collect();
            RulePartial::Spacing { frags, corners, rects: view.rect_count() }
        }
        Rule::MinArea { layer, .. } => min_area_tile(layout, *layer, tile),
        Rule::Density { layer, window, .. } => density_tile(layout, *layer, *window, tile),
        Rule::MinSpaceTo { from, to, value } => {
            let view = layout.view_layers(tile, rule_tile_halo(rule), &[*from, *to]);
            min_space_to_tile(&view, *from, *to, *value, &make)
        }
        Rule::Enclosure { inner, outer, value } => {
            let view = layout.view_layers(tile, rule_tile_halo(rule), &[*inner, *outer]);
            enclosure_tile(&view, *inner, *outer, *value, &make)
        }
        Rule::WideSpace { layer, wide_width, space } => {
            let view = layout.view_layers(tile, rule_tile_halo(rule), &[*layer]);
            wide_space_tile(&view, *layer, *wide_width, *space, &make)
        }
    }
}

/// Merges one rule's per-tile partials (given **in tile order**, one
/// per tile) into the rule's canonical-order violations and the pass's
/// tile statistics — exactly what [`check_rule_tiled`] returns.
///
/// # Errors
///
/// [`TiledDrcError`] when a certified rule refused a tile, or when a
/// partial's kind does not match the rule (a corrupt or mismatched
/// checkpoint — never a panic).
pub fn merge_rule_partials(
    rule: &Rule,
    layout: &TiledLayout,
    partials: Vec<RulePartial>,
) -> Result<(Vec<Violation>, TileStats), TiledDrcError> {
    let id = rule.id();
    let make = |location: Rect, actual: i64, limit: i64| Violation {
        rule: id.clone(),
        location,
        actual,
        limit,
    };
    let mut stats = TileStats::default();
    for p in &partials {
        stats.peak_tile_rects = stats.peak_tile_rects.max(p.rect_count());
    }
    let mismatch = |tile: usize| TiledDrcError {
        rule: id.clone(),
        tile,
        message: "partial result kind does not match the rule".to_string(),
    };
    let mut out = match rule {
        Rule::MinWidth { value, .. } => {
            let mut frags = Vec::new();
            for (tile, p) in partials.into_iter().enumerate() {
                let RulePartial::Fragments { frags: f, .. } = p else {
                    return Err(mismatch(tile));
                };
                frags.extend(f);
            }
            coalesce_fragments(frags)
                .into_iter()
                .map(PairFragment::to_pair)
                .map(|p| make(p.location, p.distance, *value))
                .collect()
        }
        Rule::MinSpace { value, .. } => {
            let mut frags = Vec::new();
            let mut corners = Vec::new();
            for (tile, p) in partials.into_iter().enumerate() {
                let RulePartial::Spacing { frags: f, corners: c, .. } = p else {
                    return Err(mismatch(tile));
                };
                frags.extend(f);
                corners.extend(c);
            }
            let mut v: Vec<Violation> = coalesce_fragments(frags)
                .into_iter()
                .map(PairFragment::to_pair)
                .map(|p| make(p.location, p.distance, *value))
                .collect();
            v.extend(corners.into_iter().map(|(r, d)| make(r, d, *value)));
            v
        }
        Rule::MinArea { value, .. } => {
            let mut complete = Vec::new();
            let mut pieces = Vec::new();
            for (tile, p) in partials.into_iter().enumerate() {
                let RulePartial::Area { complete: c, pieces: pc, .. } = p else {
                    return Err(mismatch(tile));
                };
                complete.extend(c);
                pieces.extend(pc);
            }
            min_area_merge(complete, pieces, *value, &make)
        }
        Rule::Density { window, min, max, .. } => {
            let windows = density_windows(layout.bbox(), *window);
            let mut totals = vec![0i128; windows.len()];
            for (tile, p) in partials.into_iter().enumerate() {
                let RulePartial::Density { partials: ps, .. } = p else {
                    return Err(mismatch(tile));
                };
                for (idx, a) in ps {
                    if idx >= totals.len() {
                        return Err(TiledDrcError {
                            rule: id.clone(),
                            tile,
                            message: format!("density window index {idx} out of range"),
                        });
                    }
                    totals[idx] += a;
                }
            }
            density_merge(&windows, &totals, *min, *max, &make)
        }
        Rule::MinSpaceTo { value, .. } => collect_certified(partials, &id, || {
            format!("a near-component's interaction range (value {value}) crosses the tile window")
        })?,
        Rule::Enclosure { value, .. } => collect_certified(partials, &id, || {
            format!(
                "an under-enclosed component's interaction range (value {value}) crosses the tile window"
            )
        })?,
        Rule::WideSpace { wide_width, space, .. } => collect_certified(partials, &id, || {
            format!(
                "a component near the core (wide {wide_width}, space {space}) crosses the tile window"
            )
        })?,
    };
    sort_violations(&mut out);
    stats.tiles = layout.tile_count();
    Ok((out, stats))
}

/// Streams one rule over the tiles; returns its canonical-order
/// violations and the tile statistics of the pass. Equivalent to
/// computing every [`rule_tile_partial`] and merging — which is
/// literally what it does, tiles being the parallel unit.
pub fn check_rule_tiled(
    rule: &Rule,
    layout: &TiledLayout,
) -> Result<(Vec<Violation>, TileStats), TiledDrcError> {
    let partials =
        dfm_par::par_map_range(layout.tile_count(), |i| rule_tile_partial(rule, layout, i));
    merge_rule_partials(rule, layout, partials)
}

/// One tile's owned fragment strips for a facing-pair sweep of `layer`
/// at interaction range `max` — the per-tile half of
/// [`tiled_facing_pairs`], exposed so a job scheduler can compute it
/// as an independent task. Returns the strips and the tile's canonical
/// rect count.
pub fn facing_pair_partial(
    layout: &TiledLayout,
    layer: Layer,
    max: i64,
    interior_between: bool,
    tile: usize,
) -> (Vec<PairFragment>, usize) {
    let view = layout.view_layers(tile, max + 2, &[layer]);
    let frags =
        own_fragments(raw_pair_fragments(&view.region(layer), max, interior_between), view.core());
    (frags, view.rect_count())
}

/// Merges per-tile fragment strips (in tile order) into the exact flat
/// facing-pair list — the merge half of [`tiled_facing_pairs`].
pub fn merge_facing_pair_partials(
    partials: impl IntoIterator<Item = Vec<PairFragment>>,
) -> Vec<FacingPair> {
    let mut frags = Vec::new();
    for p in partials {
        frags.extend(p);
    }
    coalesce_fragments(frags)
        .into_iter()
        .map(PairFragment::to_pair)
        .collect()
}

/// Facing pairs of one layer computed tile-by-tile — the exact pair
/// list [`crate::interior_facing_pairs`] / [`crate::exterior_facing_pairs`]
/// produce on the flat region, without ever materialising it. This is
/// the input the tiled critical-area path in `dfm-yield` consumes.
pub fn tiled_facing_pairs(
    layout: &TiledLayout,
    layer: Layer,
    max: i64,
    interior_between: bool,
) -> Vec<FacingPair> {
    let partials = dfm_par::par_map_range(layout.tile_count(), |i| {
        facing_pair_partial(layout, layer, max, interior_between, i).0
    });
    merge_facing_pair_partials(partials)
}

/// Collects a certified-rule fold: the first refusing tile (in tile
/// order) wins deterministically; otherwise violations concatenate in
/// tile order.
fn collect_certified(
    partials: Vec<RulePartial>,
    id: &str,
    message: impl Fn() -> String,
) -> Result<Vec<Violation>, TiledDrcError> {
    let mut violations = Vec::new();
    for (i, p) in partials.into_iter().enumerate() {
        let RulePartial::Certified { violations: v, refused, .. } = p else {
            return Err(TiledDrcError {
                rule: id.to_string(),
                tile: i,
                message: "partial result kind does not match the rule".to_string(),
            });
        };
        if let Some(tile) = refused {
            return Err(TiledDrcError { rule: id.to_string(), tile, message: message() });
        }
        violations.extend(v);
    }
    Ok(violations)
}

/// True if the half-open `core` owns point `p`.
fn owns(core: Rect, p: Point) -> bool {
    core.x0 <= p.x && p.x < core.x1 && core.y0 <= p.y && p.y < core.y1
}

/// Canonical component anchor: the leftmost covered cell of the
/// component's bottom row. A pure function of the covered point set
/// (never of its rectangle decomposition), always a covered cell of
/// the component — so every tile that sees the component computes the
/// same anchor, and the anchor's owner tile is guaranteed to have the
/// component's material in its window.
fn region_anchor(c: &Region) -> Point {
    let b = c.bbox();
    let mut x = i64::MAX;
    for r in c.rects() {
        if r.y0 == b.y0 {
            x = x.min(r.x0);
        }
    }
    Point::new(x, b.y0)
}

/// Keeps the core-owned strips of raw fragments: gap coordinate owned
/// by the core on the gap axis, span clipped to the core's span range.
///
/// Owned strips partition every flat fragment's cells across tiles
/// (cores partition the extent), and a fragment whose gap start lies
/// in the core sits deep enough inside the window (halo ≥ value + 2)
/// that its edges and its mid-column coverage are the flat layout's —
/// so merging all owned strips and re-coalescing reproduces the flat
/// coalesced fragment list exactly.
fn own_fragments(frags: Vec<PairFragment>, core: Rect) -> Vec<PairFragment> {
    let mut out = Vec::with_capacity(frags.len());
    for f in frags {
        let (gap_axis_lo, gap_axis_hi, span_axis_lo, span_axis_hi) = if f.vertical {
            (core.x0, core.x1, core.y0, core.y1)
        } else {
            (core.y0, core.y1, core.x0, core.x1)
        };
        if f.gap_lo < gap_axis_lo || f.gap_lo >= gap_axis_hi {
            continue;
        }
        let span_lo = f.span_lo.max(span_axis_lo);
        let span_hi = f.span_hi.min(span_axis_hi);
        if span_lo < span_hi {
            out.push(PairFragment { span_lo, span_hi, ..f });
        }
    }
    out
}

/// A seam-touching min-area component piece shipped to the merge.
#[derive(Clone, Debug, PartialEq)]
pub struct AreaPiece {
    /// Exact covered area of the piece (clipped to its tile's core).
    pub area: i128,
    /// Bounding box of the piece.
    pub bbox: Rect,
    /// The piece's rects flush against a core seam — the touch
    /// candidates the cross-tile union-find connects on.
    pub seam_rects: Vec<Rect>,
}

/// Min-area per-tile half: judges nothing, just splits the tile-core
/// components into complete ones and seam-touching pieces. Exact at
/// any tile size — no halo and no certification needed.
fn min_area_tile(layout: &TiledLayout, layer: Layer, tile: usize) -> RulePartial {
    let extent = layout.bbox();
    let view = layout.view_layers(tile, 0, &[layer]);
    let core = view.core();
    let region = view.region(layer).clipped(core);
    // Seam sides: core edges strictly inside the extent. A
    // component piece whose closure reaches a seam may continue in
    // the neighbour tile; every other piece is a complete
    // component.
    let seam_left = core.x0 > extent.x0;
    let seam_right = core.x1 < extent.x1;
    let seam_bottom = core.y0 > extent.y0;
    let seam_top = core.y1 < extent.y1;
    let mut complete: Vec<(Rect, i128)> = Vec::new();
    let mut pieces: Vec<AreaPiece> = Vec::new();
    for comp in region.connected_components() {
        let seam_rects: Vec<Rect> = comp
            .rects()
            .iter()
            .copied()
            .filter(|r| {
                (seam_left && r.x0 == core.x0)
                    || (seam_right && r.x1 == core.x1)
                    || (seam_bottom && r.y0 == core.y0)
                    || (seam_top && r.y1 == core.y1)
            })
            .collect();
        if seam_rects.is_empty() {
            complete.push((comp.bbox(), comp.area()));
        } else {
            pieces.push(AreaPiece { area: comp.area(), bbox: comp.bbox(), seam_rects });
        }
    }
    RulePartial::Area { complete, pieces, rects: view.rect_count() }
}

/// Min-area merge half: judges complete components directly, then
/// reassembles seam-crossing components with a union-find over closed
/// seam-rect touches (the same 8-connectivity the flat component pass
/// uses) and judges the unions.
fn min_area_merge(
    complete: Vec<(Rect, i128)>,
    pieces: Vec<AreaPiece>,
    value: i64,
    make: &impl Fn(Rect, i64, i64) -> Violation,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (bbox, area) in complete {
        if area < value as i128 {
            violations.push(make(bbox, area as i64, value));
        }
    }

    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..pieces.len()).collect();
    for i in 0..pieces.len() {
        for j in (i + 1)..pieces.len() {
            if !pieces[i].bbox.touches(&pieces[j].bbox) {
                continue;
            }
            let touch = pieces[i]
                .seam_rects
                .iter()
                .any(|a| pieces[j].seam_rects.iter().any(|b| a.touches(b)));
            if touch {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                parent[ri] = rj;
            }
        }
    }
    let mut groups: BTreeMap<usize, (Rect, i128)> = BTreeMap::new();
    for (i, piece) in pieces.iter().enumerate() {
        let root = find(&mut parent, i);
        groups
            .entry(root)
            .and_modify(|(bbox, area)| {
                *bbox = bbox.bounding_union(&piece.bbox);
                *area += piece.area;
            })
            .or_insert((piece.bbox, piece.area));
    }
    for (bbox, area) in groups.into_values() {
        if area < value as i128 {
            violations.push(make(bbox, area as i64, value));
        }
    }
    violations
}

/// Density per-tile half: exact distributed partial sums — the i128
/// covered area of `region ∩ core ∩ window` for every canonical
/// density window the tile's core touches. Exact at any tile size, no
/// halo needed.
fn density_tile(layout: &TiledLayout, layer: Layer, window: i64, tile: usize) -> RulePartial {
    let windows = density_windows(layout.bbox(), window);
    let view = layout.view_layers(tile, 0, &[layer]);
    let core = view.core();
    let region = view.region(layer);
    let mut partials: Vec<(usize, i128)> = Vec::new();
    for (idx, w) in windows.iter().enumerate() {
        let Some(wc) = w.intersection(&core) else { continue };
        let covered = region.clipped(wc).area();
        if covered != 0 {
            partials.push((idx, covered));
        }
    }
    RulePartial::Density { partials, rects: view.rect_count() }
}

/// Density merge half: the one f64 division + ppm rounding per window
/// happens here, after the exact integer sums — identical arithmetic
/// to the flat path.
fn density_merge(
    windows: &[Rect],
    totals: &[i128],
    min: f64,
    max: f64,
    make: &impl Fn(Rect, i64, i64) -> Violation,
) -> Vec<Violation> {
    let (min_ppm, max_ppm) = (density_ppm(min), density_ppm(max));
    windows
        .iter()
        .zip(totals)
        .filter_map(|(w, &covered)| {
            let d = covered as f64 / w.area() as f64;
            let ppm = density_ppm(d);
            if ppm < min_ppm || ppm > max_ppm {
                let limit = if ppm < min_ppm { min } else { max };
                Some(make(*w, ppm, density_ppm(limit)))
            } else {
                None
            }
        })
        .collect()
}

/// Cross-layer spacing, certified per candidate: the tile that owns a
/// near-component's anchor re-runs the flat measurement (same clip
/// window, same binary search) after proving the candidate plus its
/// interaction margin sit strictly inside the tile window.
fn min_space_to_tile(
    view: &TileView,
    from: Layer,
    to: Layer,
    value: i64,
    make: &impl Fn(Rect, i64, i64) -> Violation,
) -> RulePartial {
    let core = view.core();
    let window = view.window();
    let from_w = view.region(from);
    let to_w = view.region(to);
    let near = from_w.bloated(value).intersection(&to_w);
    let mut out = Vec::new();
    for c in near.connected_components() {
        let certified = window.contains_rect(&c.bbox().expanded(value + 2));
        if owns(core, region_anchor(&c)) && certified {
            let from_local = from_w.clipped(c.bbox().expanded(value + 1));
            out.push(make(c.bbox(), min_separation(&from_local, &c, value), value));
        } else if !certified && c.bbox().touches(&core) {
            return RulePartial::Certified {
                violations: out,
                rects: view.rect_count(),
                refused: Some(view.index()),
            };
        }
    }
    RulePartial::Certified { violations: out, rects: view.rect_count(), refused: None }
}

/// Enclosure, certified per candidate: the owner tile proves both the
/// under-enclosed candidate and every inner component it touches sit
/// strictly inside the window (with the measurement margin to spare),
/// then re-runs the flat measurement verbatim.
fn enclosure_tile(
    view: &TileView,
    inner: Layer,
    outer: Layer,
    value: i64,
    make: &impl Fn(Rect, i64, i64) -> Violation,
) -> RulePartial {
    let core = view.core();
    let window = view.window();
    let inner_w = view.region(inner);
    let outer_w = view.region(outer);
    let mut out = Vec::new();
    if inner_w.is_empty() {
        return RulePartial::Certified {
            violations: out,
            rects: view.rect_count(),
            refused: None,
        };
    }
    let bad = inner_w.difference(&outer_w.shrunk(value));
    for c in bad.connected_components() {
        let inner_local = inner_w.interacting(&c);
        let certified = window.contains_rect(&c.bbox().expanded(value + 2))
            && window.contains_rect(&inner_local.bbox().expanded(value + 2));
        if owns(core, region_anchor(&c)) && certified {
            let outer_local = outer_w.clipped(inner_local.bbox().expanded(value + 1));
            out.push(make(c.bbox(), enclosure_margin(&inner_local, &outer_local, value), value));
        } else if !certified && c.bbox().touches(&core) {
            return RulePartial::Certified {
                violations: out,
                rects: view.rect_count(),
                refused: Some(view.index()),
            };
        }
    }
    RulePartial::Certified { violations: out, rects: view.rect_count(), refused: None }
}

/// Wide-class spacing, certified per tile *and* per candidate.
///
/// Wide-space is the one rule whose verdict depends on whole-component
/// identity (the wide feature's own component is exempt from the
/// spacing), so before measuring anything the tile proves every
/// component near its core is complete — strictly inside the window.
/// A long wire crossing the window refuses the run rather than risk a
/// wrong wide mask or exemption.
fn wide_space_tile(
    view: &TileView,
    layer: Layer,
    wide_width: i64,
    space: i64,
    make: &impl Fn(Rect, i64, i64) -> Violation,
) -> RulePartial {
    let reach = wide_width + space + 4;
    let refuse = |out: Vec<Violation>| RulePartial::Certified {
        violations: out,
        rects: view.rect_count(),
        refused: Some(view.index()),
    };
    let core = view.core();
    let window = view.window();
    let region = view.region(layer);
    let zone = core.expanded(reach);
    let comps = region.connected_components();
    for comp in &comps {
        if comp.bbox().touches(&zone) && !window.contains_rect(&comp.bbox().expanded(1)) {
            return refuse(Vec::new());
        }
    }
    let wide = region.opened(wide_width / 2);
    let mut out = Vec::new();
    if wide.is_empty() {
        return RulePartial::Certified {
            violations: out,
            rects: view.rect_count(),
            refused: None,
        };
    }
    for comp in &comps {
        let wide_part = comp.intersection(&wide);
        if wide_part.is_empty() {
            continue;
        }
        let others = region.difference(comp);
        let near = wide_part.bloated(space).intersection(&others);
        for c in near.connected_components() {
            let certified = window.contains_rect(&c.bbox().expanded(reach));
            if owns(core, region_anchor(&c)) && certified {
                let wide_local = wide_part.clipped(c.bbox().expanded(space + 1));
                out.push(make(c.bbox(), min_separation(&wide_local, &c, space), space));
            } else if !certified && c.bbox().touches(&core) {
                return refuse(out);
            }
        }
    }
    RulePartial::Certified { violations: out, rects: view.rect_count(), refused: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DrcEngine;
    use dfm_layout::{layers, Cell, FlatLayout, Library, Technology, TilingConfig};

    fn flat_with(layer: Layer, rects: &[Rect]) -> FlatLayout {
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        for &r in rects {
            c.add_rect(layer, r);
        }
        let id = lib.add_cell(c).expect("add");
        lib.flatten(id).expect("flatten")
    }

    fn tiling(side: i64, halo: i64) -> TilingConfig {
        TilingConfig::builder().tile(side).halo(halo).build().expect("config")
    }

    #[test]
    fn full_deck_matches_flat_on_routed_block() {
        let tech = Technology::n65();
        let lib = dfm_layout::generate::routed_block(
            &tech,
            dfm_layout::generate::RoutedBlockParams::default(),
            7,
        );
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let deck = RuleDeck::for_technology(&tech);
        let reference = DrcEngine::new(&deck).run(&flat);
        let extent = dfm_layout::LayoutView::bbox(&flat);
        let side = ((extent.x1 - extent.x0) / 3).max(1);
        // One divisor-ish and one deliberately awkward tile size.
        for tile in [side, side * 2 / 3 + 7] {
            let tiled =
                TiledLayout::from_flat(flat.clone(), tiling(tile, tech.via_enclosure * 2 + 6));
            for threads in [1usize, 2, 8] {
                let run = dfm_par::with_threads(threads, || {
                    TiledDrcEngine::new(&deck).run(&tiled).expect("certified")
                });
                assert_eq!(
                    run.report, reference,
                    "tile {tile} threads {threads} diverged from flat"
                );
                assert_eq!(run.stats.tiles, tiled.tile_count());
                assert!(run.stats.peak_tile_rects > 0);
            }
        }
    }

    #[test]
    fn min_area_component_straddling_four_tiles_dedups() {
        // A plus-shaped component centred on the four-corner point of a
        // 2x2 tile grid: every tile sees a piece, the merge must count
        // it once with the exact flat area and bbox.
        let rects = [
            Rect::new(90, 98, 110, 102), // horizontal bar across x=100
            Rect::new(98, 90, 102, 110), // vertical bar across y=100
            Rect::new(0, 0, 4, 4),       // small complete comp, tile 0 only
        ];
        let flat = flat_with(layers::METAL1, &rects);
        // Extent is (0,0)-(110,110); tile 100 gives a 2x2 grid.
        let tiled = TiledLayout::from_flat(flat.clone(), tiling(100, 8));
        let rule = Rule::MinArea { layer: layers::METAL1, value: 1000 };
        let reference = crate::check::check_rule(&rule, &flat);
        let (tiled_v, _) = check_rule_tiled(&rule, &tiled).expect("exact");
        assert_eq!(tiled_v, reference);
        // The plus (area 144) and the dot (area 16) both violate.
        assert_eq!(reference.len(), 2);
        assert!(reference.iter().any(|v| v.actual == 144));
    }

    #[test]
    fn density_partials_merge_exactly() {
        let tech = Technology::n65();
        let lib = dfm_layout::generate::routed_block(
            &tech,
            dfm_layout::generate::RoutedBlockParams::default(),
            11,
        );
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let rule = Rule::Density {
            layer: layers::METAL1,
            window: tech.density_window,
            min: 0.25,
            max: 0.65,
        };
        let reference = crate::check::check_rule(&rule, &flat);
        let extent = dfm_layout::LayoutView::bbox(&flat);
        let side = ((extent.x1 - extent.x0) / 4).max(1) + 13;
        let tiled = TiledLayout::from_flat(flat, tiling(side, 4));
        let (tiled_v, _) = check_rule_tiled(&rule, &tiled).expect("exact");
        assert_eq!(tiled_v, reference);
    }

    #[test]
    fn spacing_corner_pairs_own_by_low_corner() {
        // Two squares meeting corner-to-corner across a tile seam.
        let rects = [Rect::new(60, 60, 100, 100), Rect::new(120, 120, 160, 160)];
        let flat = flat_with(layers::METAL1, &rects);
        let rule = Rule::MinSpace { layer: layers::METAL1, value: 40 };
        let reference = crate::check::check_rule(&rule, &flat);
        assert!(!reference.is_empty());
        for tile in [110, 73] {
            let tiled = TiledLayout::from_flat(flat.clone(), tiling(tile, 48));
            let (tiled_v, _) = check_rule_tiled(&rule, &tiled).expect("exact");
            assert_eq!(tiled_v, reference, "tile {tile}");
        }
    }

    #[test]
    fn uncertifiable_enclosure_refuses_instead_of_degrading() {
        // An inner wire far longer than any window at this tile size:
        // the owner tile cannot prove the measurement local.
        let inner = Rect::new(0, 0, 5000, 10);
        let flat = {
            let mut lib = Library::new("t");
            let mut c = Cell::new("TOP");
            c.add_rect(layers::VIA1, inner);
            // No METAL1 at all: everything is under-enclosed.
            let id = lib.add_cell(c).expect("add");
            lib.flatten(id).expect("flatten")
        };
        let tiled = TiledLayout::from_flat(flat, tiling(100, 8));
        let rule = Rule::Enclosure { inner: layers::VIA1, outer: layers::METAL1, value: 10 };
        let err = check_rule_tiled(&rule, &tiled).expect_err("must refuse");
        assert_eq!(err.rule, rule.id());
        let shown = err.to_string();
        assert!(shown.contains("cannot certify"), "{shown}");
    }

    #[test]
    fn tiled_facing_pairs_match_flat() {
        let tech = Technology::n65();
        let lib = dfm_layout::generate::routed_block(
            &tech,
            dfm_layout::generate::RoutedBlockParams::default(),
            3,
        );
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let max = tech.rules(layers::METAL2).min_space * 3;
        let region = flat.region(layers::METAL2);
        let flat_int = crate::interior_facing_pairs(&region, max);
        let flat_ext = crate::exterior_facing_pairs(&region, max);
        let extent = dfm_layout::LayoutView::bbox(&flat);
        let side = ((extent.x1 - extent.x0) / 3).max(1) + 11;
        let tiled = TiledLayout::from_flat(flat, tiling(side, max + 2));
        assert_eq!(tiled_facing_pairs(&tiled, layers::METAL2, max, true), flat_int);
        assert_eq!(tiled_facing_pairs(&tiled, layers::METAL2, max, false), flat_ext);
    }
}
