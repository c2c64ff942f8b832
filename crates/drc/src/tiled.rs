//! Tile-streaming DRC: per-tile halves bit-identical to the flat engine.
//!
//! [`rule_view_partial`] checks one rule on a [`PreparedView`] — one
//! tile window plus the per-layer boundary edges, rect indexes and
//! facing-pair sweeps its consumers share — so a job that checks a
//! whole deck on a tile materialises the window once, not once per
//! rule. It is a pure function of its arguments, so a job scheduler
//! runs it as an independent task (the signoff service's worker pool
//! is the one thing that runs tiles). [`rule_tile_partial`] is the
//! one-shot form: it prepares the rule's own view and calls the kernel.
//! [`merge_rule_partials`] folds the partials, given in tile order,
//! into exactly the violations the flat [`crate::DrcEngine`] produces —
//! same violations, same order, same bits, at any tile size.
//! [`merge_facing_pair_partials`] does the same for the facing-pair
//! strips critical area reads off a prepared view.
//!
//! # One kernel per rule
//!
//! The certified rules and density have one kernel each, which takes
//! regions, a core and a window, never a view. The flat engine runs the
//! same kernels over the one-tile frame: the core is the inputs' bbox
//! (the layout's, for density) and the window is that core expanded by
//! [`rule_tile_halo`], exactly what a one-tile grid gives. There every
//! candidate is owned and certified, so the flat check and a tile agree
//! by construction, not by keeping two copies in step.
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
//! observable: [`RulePartial::rect_count`] is the canonical rect count
//! of the rule's own layers in the tile view, which the signoff job
//! folds into `TilePartial::rects_peak`.

use crate::check::{
    coalesced_pairs, density_ppm, density_windows, enclosure_margin, min_separation, or_empty,
    sort_violations, PairFragment, PreparedLayer,
};
use crate::{FacingPair, Rule, Violation};
use dfm_geom::{group_within, Point, Rect, Region};
use dfm_layout::{Layer, TileView, TiledLayout};
use std::collections::BTreeMap;
use std::fmt;

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
        /// Seam-touching component pieces shipped to the merge, which groups them.
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
    /// Canonical rect count of the rule's own layers in the tile view
    /// the partial came from — the per-tile working-set proxy (the flat
    /// path would hold whole layers instead).
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
        Rule::WideSpace {
            wide_width, space, ..
        } => wide_width + space + 8,
    }
}

/// The layers `rule` reads, sorted and without repeats.
pub fn rule_layers(rule: &Rule) -> Vec<Layer> {
    let mut layers = match *rule {
        Rule::MinWidth { layer, .. }
        | Rule::MinSpace { layer, .. }
        | Rule::MinArea { layer, .. }
        | Rule::WideSpace { layer, .. }
        | Rule::Density { layer, .. } => vec![layer],
        Rule::MinSpaceTo { from, to, .. } => vec![from, to],
        Rule::Enclosure { inner, outer, .. } => vec![inner, outer],
    };
    layers.sort();
    layers.dedup();
    layers
}

/// One facing-pair sweep a consumer reads off a [`PreparedView`]: the
/// core-owned fragment strips of `layer` closer than `value`, interior
/// runs (widths) or exterior gaps (spacings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sweep {
    /// Swept layer.
    pub layer: Layer,
    /// True for interior runs (widths), false for exterior gaps.
    pub interior: bool,
    /// Exclusive upper bound on the pair distance.
    pub value: i64,
}

/// The sweeps [`rule_view_partial`] reads for `rule`: one for
/// `MinWidth` and `MinSpace`, none for every other rule.
pub fn rule_sweeps(rule: &Rule) -> Vec<Sweep> {
    match *rule {
        Rule::MinWidth { layer, value } => vec![Sweep {
            layer,
            interior: true,
            value,
        }],
        Rule::MinSpace { layer, value } => vec![Sweep {
            layer,
            interior: false,
            value,
        }],
        _ => Vec::new(),
    }
}

/// One materialised tile window plus the facts its consumers share:
/// each non-empty swept layer prepared once (its boundary edges and one
/// rect index, whatever values its consumers ask for), and one
/// facing-pair sweep per `(layer, interior)` at the largest value any
/// consumer asks for, already cut to the core's owned strips. A consumer
/// with a smaller value keeps the strips closer than its own (exact: see
/// `PreparedLayer::fragments`).
#[derive(Clone, Debug)]
pub struct PreparedView {
    view: TileView,
    layers: BTreeMap<Layer, PreparedLayer>,
    sweeps: BTreeMap<(Layer, bool), (i64, Vec<PairFragment>)>,
}

impl PreparedView {
    /// Prepares `view` for consumers reading `sweeps` off it.
    pub fn new(view: TileView, sweeps: &[Sweep]) -> PreparedView {
        let mut widest: BTreeMap<(Layer, bool), i64> = BTreeMap::new();
        for s in sweeps {
            let value = widest.entry((s.layer, s.interior)).or_insert(s.value);
            *value = (*value).max(s.value);
        }
        let mut swept: Vec<Layer> = widest.keys().map(|&(layer, _)| layer).collect();
        swept.dedup();
        let layers: BTreeMap<Layer, PreparedLayer> = swept
            .into_iter()
            .filter_map(|layer| {
                let region = layer_region(&view, layer);
                (!region.is_empty()).then(|| (layer, PreparedLayer::new(region)))
            })
            .collect();
        let sweeps = widest
            .into_iter()
            .map(|((layer, interior), value)| {
                let raw = layers
                    .get(&layer)
                    .map_or_else(Vec::new, |l| l.fragments(value, interior));
                ((layer, interior), (value, own_fragments(raw, view.core())))
            })
            .collect();
        PreparedView {
            view,
            layers,
            sweeps,
        }
    }

    /// The materialised tile view.
    pub fn view(&self) -> &TileView {
        &self.view
    }

    /// The owned fragment strips of `layer` closer than `value`, in the
    /// order a direct sweep at `value` emits them.
    ///
    /// # Panics
    ///
    /// When the view was not prepared with a sweep of `(layer,
    /// interior)` at `value` or more.
    pub fn fragments(&self, layer: Layer, interior: bool, value: i64) -> Vec<PairFragment> {
        let (widest, frags) = match self.sweeps.get(&(layer, interior)) {
            Some((widest, frags)) if *widest >= value => (*widest, frags),
            _ => panic!("no {layer} sweep (interior {interior}) prepared at {value} or more"),
        };
        if value == widest {
            return frags.clone();
        }
        frags
            .iter()
            .copied()
            .filter(|f| f.gap_hi - f.gap_lo < value)
            .collect()
    }

    /// Canonical rect count of `layers` in the view.
    pub fn rect_count_of(&self, layers: &[Layer]) -> usize {
        layers
            .iter()
            .map(|&l| layer_region(&self.view, l).rects().len())
            .sum()
    }
}

/// A view's region of `layer`, borrowed (the empty region when the view
/// carries none).
fn layer_region(view: &TileView, layer: Layer) -> &Region {
    or_empty(view.region_ref(layer))
}

/// Computes one rule's partial result on one tile. Pure: the output
/// depends only on the arguments, never on thread count or execution
/// order — the property that lets a job scheduler recompute, reorder,
/// or checkpoint tile tasks freely. The one-shot form of
/// [`rule_view_partial`]: it materialises the rule's own view.
pub fn rule_tile_partial(rule: &Rule, layout: &TiledLayout, tile: usize) -> RulePartial {
    let view = layout.view_layers(tile, rule_tile_halo(rule), &rule_layers(rule));
    rule_view_partial(
        rule,
        &PreparedView::new(view, &rule_sweeps(rule)),
        layout.bbox(),
    )
}

/// The kernel of [`rule_tile_partial`]: one rule's partial on a tile
/// view already materialised at the rule's window (its halo
/// [`rule_tile_halo`], floored by the tiling's) and prepared with its
/// [`rule_sweeps`]. `extent` is the whole layout's bbox. Any number of
/// rules with the same window can share one prepared view; each reads
/// only its own layers, so the partial — `rects` included — is the one
/// the rule's own view gives.
pub fn rule_view_partial(rule: &Rule, prep: &PreparedView, extent: Rect) -> RulePartial {
    let view = prep.view();
    let rects = prep.rect_count_of(&rule_layers(rule));
    let id = rule.id();
    let make = |location: Rect, actual: i64, limit: i64| Violation {
        rule: id.clone(),
        location,
        actual,
        limit,
    };
    let (core, window) = (view.core(), view.window());
    let region = |layer: &Layer| layer_region(view, *layer);
    let certified =
        |(found, refused): (Vec<(Rect, i64)>, bool), limit: i64| RulePartial::Certified {
            violations: found
                .into_iter()
                .map(|(location, actual)| make(location, actual, limit))
                .collect(),
            rects,
            refused: refused.then(|| view.index()),
        };
    match rule {
        Rule::MinWidth { layer, value } => RulePartial::Fragments {
            frags: prep.fragments(*layer, true, *value),
            rects,
        },
        Rule::MinSpace { layer, value } => {
            let corners: Vec<(Rect, i64)> = prep
                .layers
                .get(layer)
                .map_or_else(Vec::new, |l| l.corner_gaps(*value))
                .into_iter()
                .filter(|(r, _)| owns(core, Point::new(r.x0, r.y0)))
                .collect();
            RulePartial::Spacing {
                frags: prep.fragments(*layer, false, *value),
                corners,
                rects,
            }
        }
        Rule::MinArea { layer, .. } => {
            let (complete, pieces) = min_area_tile(view, extent, *layer);
            RulePartial::Area {
                complete,
                pieces,
                rects,
            }
        }
        Rule::Density {
            layer,
            window: density_window,
            ..
        } => RulePartial::Density {
            partials: density_tile(region(layer), core, extent, *density_window),
            rects,
        },
        Rule::MinSpaceTo { from, to, value } => certified(
            min_space_to_tile(region(from), region(to), *value, core, window),
            *value,
        ),
        Rule::Enclosure {
            inner,
            outer,
            value,
        } => certified(
            enclosure_tile(region(inner), region(outer), *value, core, window),
            *value,
        ),
        Rule::WideSpace {
            layer,
            wide_width,
            space,
        } => certified(
            wide_space_tile(region(layer), *wide_width, *space, core, window),
            *space,
        ),
    }
}

/// Merges one rule's per-tile partials (given **in tile order**, one
/// per tile) into the rule's canonical-order violations — exactly what
/// [`crate::check_rule`] returns on the flat layout.
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
) -> Result<Vec<Violation>, TiledDrcError> {
    let id = rule.id();
    let make = |location: Rect, actual: i64, limit: i64| Violation {
        rule: id.clone(),
        location,
        actual,
        limit,
    };
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
            coalesced_pairs(frags)
                .into_iter()
                .map(|p| make(p.location, p.distance, *value))
                .collect()
        }
        Rule::MinSpace { value, .. } => {
            let mut frags = Vec::new();
            let mut corners = Vec::new();
            for (tile, p) in partials.into_iter().enumerate() {
                let RulePartial::Spacing {
                    frags: f,
                    corners: c,
                    ..
                } = p
                else {
                    return Err(mismatch(tile));
                };
                frags.extend(f);
                corners.extend(c);
            }
            let mut v: Vec<Violation> = coalesced_pairs(frags)
                .into_iter()
                .map(|p| make(p.location, p.distance, *value))
                .collect();
            v.extend(corners.into_iter().map(|(r, d)| make(r, d, *value)));
            v
        }
        Rule::MinArea { value, .. } => {
            let mut complete = Vec::new();
            let mut pieces = Vec::new();
            for (tile, p) in partials.into_iter().enumerate() {
                let RulePartial::Area {
                    complete: c,
                    pieces: pc,
                    ..
                } = p
                else {
                    return Err(mismatch(tile));
                };
                complete.extend(c);
                pieces.extend(pc);
            }
            min_area_merge(complete, pieces, *value, &make)
        }
        Rule::Density {
            window, min, max, ..
        } => {
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
        Rule::WideSpace {
            wide_width, space, ..
        } => collect_certified(partials, &id, || {
            format!(
                "a component near the core (wide {wide_width}, space {space}) crosses the tile window"
            )
        })?,
    };
    sort_violations(&mut out);
    Ok(out)
}

/// Merges per-tile fragment strips (in tile order, each read off a
/// [`PreparedView`] with [`PreparedView::fragments`]) into the exact
/// flat facing-pair list of [`crate::facing_pairs`].
pub fn merge_facing_pair_partials(
    partials: impl IntoIterator<Item = Vec<PairFragment>>,
) -> Vec<FacingPair> {
    coalesced_pairs(partials.into_iter().flatten().collect())
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
        let RulePartial::Certified {
            violations: v,
            refused,
            ..
        } = p
        else {
            return Err(TiledDrcError {
                rule: id.to_string(),
                tile: i,
                message: "partial result kind does not match the rule".to_string(),
            });
        };
        if let Some(tile) = refused {
            return Err(TiledDrcError {
                rule: id.to_string(),
                tile,
                message: message(),
            });
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
            out.push(PairFragment {
                span_lo,
                span_hi,
                ..f
            });
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
    /// candidates the cross-tile grouping connects on.
    pub seam_rects: Vec<Rect>,
}

/// Min-area per-tile half: judges nothing, just splits the tile-core
/// components into complete ones and seam-touching pieces. Exact at
/// any tile size — no halo and no certification needed.
fn min_area_tile(
    view: &TileView,
    extent: Rect,
    layer: Layer,
) -> (Vec<(Rect, i128)>, Vec<AreaPiece>) {
    let core = view.core();
    let region = layer_region(view, layer).clipped(core);
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
            pieces.push(AreaPiece {
                area: comp.area(),
                bbox: comp.bbox(),
                seam_rects,
            });
        }
    }
    (complete, pieces)
}

/// Min-area merge half: judges complete components directly, then
/// reassembles seam-crossing components as one grouping of the pieces
/// by touching seam rects ([`group_within`] at `d = 0`, the same
/// 8-connectivity the flat component pass uses) and judges the unions.
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

    let seams: Vec<(Rect, usize)> = pieces
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.seam_rects.iter().map(move |r| (*r, i)))
        .collect();
    let group = group_within(pieces.len(), &seams, 0);
    let mut merged: Vec<(Rect, i128)> = pieces.iter().map(|p| (p.bbox, p.area)).collect();
    for (i, piece) in pieces.iter().enumerate() {
        let g = group[i];
        if g != i {
            merged[g].0 = merged[g].0.bounding_union(&piece.bbox);
            merged[g].1 += piece.area;
        }
    }
    for (i, (bbox, area)) in merged.into_iter().enumerate() {
        if group[i] == i && area < value as i128 {
            violations.push(make(bbox, area as i64, value));
        }
    }
    violations
}

/// Density per-tile half: exact distributed partial sums — the i128
/// covered area of `region ∩ core ∩ window` for every canonical
/// density window of `extent` the core touches. Exact at any tile
/// size, no halo needed.
pub(crate) fn density_tile(
    region: &Region,
    core: Rect,
    extent: Rect,
    window: i64,
) -> Vec<(usize, i128)> {
    let windows = density_windows(extent, window);
    let mut partials: Vec<(usize, i128)> = Vec::new();
    for (idx, w) in windows.iter().enumerate() {
        let Some(wc) = w.intersection(&core) else {
            continue;
        };
        let covered = region.clipped(wc).area();
        if covered != 0 {
            partials.push((idx, covered));
        }
    }
    partials
}

/// Density merge half: the one f64 division + ppm rounding per window
/// happens here, after the exact integer sums. The flat check runs it
/// too, over its one whole-layout partial.
pub(crate) fn density_merge(
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
/// near-component's anchor measures it (the `from` material clipped to
/// the candidate's bbox plus `value + 1`, which bounds every gap below
/// `value`) after proving the candidate plus its interaction margin sit
/// strictly inside the window. Returns the owned candidates and whether
/// the tile refused.
pub(crate) fn min_space_to_tile(
    from: &Region,
    to: &Region,
    value: i64,
    core: Rect,
    window: Rect,
) -> (Vec<(Rect, i64)>, bool) {
    let near = from.bloated(value).intersection(to);
    let mut out = Vec::new();
    for c in near.connected_components() {
        let certified = window.contains_rect(&c.bbox().expanded(value + 2));
        if owns(core, region_anchor(&c)) && certified {
            let from_local = from.clipped(c.bbox().expanded(value + 1));
            out.push((c.bbox(), min_separation(&from_local, &c, value)));
        } else if !certified && c.bbox().touches(&core) {
            return (out, true);
        }
    }
    (out, false)
}

/// Enclosure, certified per candidate: the owner tile proves both the
/// under-enclosed candidate and every inner component it touches sit
/// strictly inside the window (with the measurement margin to spare),
/// then measures the margin of those inner components against the outer
/// material clipped to their bbox plus `value + 1`. Returns the owned
/// candidates and whether the tile refused.
///
/// The candidates are `inner \ outer.shrunk(value)`, found one inner
/// rect `r` at a time: only the outer material clipped to
/// `r.expanded(value + 1)` is eroded. A cell of `r` survives erosion by
/// `value` iff the `value`-square around it lies in `outer`, and that
/// square lies inside `r.expanded(value)`, so the clipped erosion
/// decides every cell of `r` exactly as the whole layer's does — and
/// the work is per via, not per layer.
pub(crate) fn enclosure_tile(
    inner: &Region,
    outer: &Region,
    value: i64,
    core: Rect,
    window: Rect,
) -> (Vec<(Rect, i64)>, bool) {
    let mut out = Vec::new();
    if inner.is_empty() {
        return (out, false);
    }
    let mut bad = Vec::new();
    for r in inner.rects() {
        let safe = outer.clipped(r.expanded(value + 1)).shrunk(value);
        bad.extend(Region::from_rect(*r).difference(&safe).into_rects());
    }
    let bad = Region::from_rects(bad);
    if bad.is_empty() {
        return (out, false);
    }
    // The inner components that touch `c`, selected from one component
    // list: a bad component lies in exactly one inner component.
    let inner_comps = inner.connected_components();
    for c in bad.connected_components() {
        let cb = c.bbox();
        let touches_c = |k: &&Region| {
            k.bbox().touches(&cb)
                && k.rects()
                    .iter()
                    .any(|a| c.rects().iter().any(|b| a.touches(b)))
        };
        let inner_local = Region::from_rects(
            inner_comps
                .iter()
                .filter(touches_c)
                .flat_map(|k| k.rects().iter().copied()),
        );
        let certified = window.contains_rect(&cb.expanded(value + 2))
            && window.contains_rect(&inner_local.bbox().expanded(value + 2));
        if owns(core, region_anchor(&c)) && certified {
            let outer_local = outer.clipped(inner_local.bbox().expanded(value + 1));
            out.push((cb, enclosure_margin(&inner_local, &outer_local, value)));
        } else if !certified && cb.touches(&core) {
            return (out, true);
        }
    }
    (out, false)
}

/// Wide-class spacing, certified per tile *and* per candidate: each
/// component's wide part is `region.opened(wide_width / 2)`, and the
/// other components' material within `space` of it is measured against
/// the wide part clipped to the candidate's bbox plus `space + 1`.
/// Returns the owned candidates and whether the tile refused.
///
/// Wide-space is the one rule whose verdict depends on whole-component
/// identity (the wide feature's own component is exempt from the
/// spacing), so before measuring anything the tile proves every
/// component near its core is complete — strictly inside the window.
/// A long wire crossing the window refuses the run rather than risk a
/// wrong wide mask or exemption.
pub(crate) fn wide_space_tile(
    region: &Region,
    wide_width: i64,
    space: i64,
    core: Rect,
    window: Rect,
) -> (Vec<(Rect, i64)>, bool) {
    let reach = wide_width + space + 4;
    let zone = core.expanded(reach);
    let comps = region.connected_components();
    for comp in &comps {
        if comp.bbox().touches(&zone) && !window.contains_rect(&comp.bbox().expanded(1)) {
            return (Vec::new(), true);
        }
    }
    let wide = region.opened(wide_width / 2);
    let mut out = Vec::new();
    if wide.is_empty() {
        return (out, false);
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
                out.push((c.bbox(), min_separation(&wide_local, &c, space)));
            } else if !certified && c.bbox().touches(&core) {
                return (out, true);
            }
        }
    }
    (out, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DrcEngine, DrcReport, RuleDeck};
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
        TilingConfig::builder()
            .tile(side)
            .halo(halo)
            .build()
            .expect("config")
    }

    /// One rule over every tile in a plain loop: the per-tile half, then
    /// the merge, as the signoff service runs them.
    fn check_tiles(rule: &Rule, layout: &TiledLayout) -> Result<Vec<Violation>, TiledDrcError> {
        let partials = (0..layout.tile_count())
            .map(|i| rule_tile_partial(rule, layout, i))
            .collect();
        merge_rule_partials(rule, layout, partials)
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
        let extent = flat.bbox();
        let side = ((extent.x1 - extent.x0) / 3).max(1);
        // One divisor-ish and one deliberately awkward tile size.
        for tile in [side, side * 2 / 3 + 7] {
            let tiled =
                TiledLayout::from_flat(flat.clone(), tiling(tile, tech.via_enclosure * 2 + 6));
            let mut report = DrcReport::new();
            for rule in deck.rules() {
                report.extend(check_tiles(rule, &tiled).expect("certified"));
            }
            assert_eq!(report, reference, "tile {tile} diverged from flat");
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
        let rule = Rule::MinArea {
            layer: layers::METAL1,
            value: 1000,
        };
        let reference = crate::check::check_rule(&rule, &flat);
        let tiled_v = check_tiles(&rule, &tiled).expect("exact");
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
        let extent = flat.bbox();
        let side = ((extent.x1 - extent.x0) / 4).max(1) + 13;
        let tiled = TiledLayout::from_flat(flat, tiling(side, 4));
        let tiled_v = check_tiles(&rule, &tiled).expect("exact");
        assert_eq!(tiled_v, reference);
    }

    #[test]
    fn spacing_corner_pairs_own_by_low_corner() {
        // Two squares meeting corner-to-corner across a tile seam.
        let rects = [Rect::new(60, 60, 100, 100), Rect::new(120, 120, 160, 160)];
        let flat = flat_with(layers::METAL1, &rects);
        let rule = Rule::MinSpace {
            layer: layers::METAL1,
            value: 40,
        };
        let reference = crate::check::check_rule(&rule, &flat);
        assert!(!reference.is_empty());
        for tile in [110, 73] {
            let tiled = TiledLayout::from_flat(flat.clone(), tiling(tile, 48));
            let tiled_v = check_tiles(&rule, &tiled).expect("exact");
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
        let rule = Rule::Enclosure {
            inner: layers::VIA1,
            outer: layers::METAL1,
            value: 10,
        };
        let err = check_tiles(&rule, &tiled).expect_err("must refuse");
        assert_eq!(err.rule, rule.id());
        let shown = err.to_string();
        assert!(shown.contains("cannot certify"), "{shown}");
    }

    #[test]
    fn facing_pair_partials_merge_to_flat() {
        let tech = Technology::n65();
        let lib = dfm_layout::generate::routed_block(
            &tech,
            dfm_layout::generate::RoutedBlockParams::default(),
            3,
        );
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let max = tech.rules(layers::METAL2).min_space * 3;
        let region = flat.region(layers::METAL2);
        let (flat_ext, flat_int) = crate::facing_pairs(&region, max);
        let extent = flat.bbox();
        let side = ((extent.x1 - extent.x0) / 3).max(1) + 11;
        let tiled = TiledLayout::from_flat(flat, tiling(side, max + 2));
        let by_tile = |interior| {
            let sweep = Sweep {
                layer: layers::METAL2,
                interior,
                value: max,
            };
            merge_facing_pair_partials((0..tiled.tile_count()).map(|i| {
                let view = tiled.view_layers(i, max + 2, &[layers::METAL2]);
                PreparedView::new(view, &[sweep]).fragments(layers::METAL2, interior, max)
            }))
        };
        assert_eq!(by_tile(true), flat_int);
        assert_eq!(by_tile(false), flat_ext);
    }
}
