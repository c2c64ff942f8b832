//! The DRC checking engine.

use crate::{DrcReport, Rule, RuleDeck, Violation};
use dfm_geom::{BoundaryEdges, GridIndex, Point, Rect, Region};
use dfm_layout::{FlatLayout, Layer};

/// Runs a [`RuleDeck`] against a flat layout.
///
/// See the crate docs for an end-to-end example.
#[derive(Clone, Copy, Debug)]
pub struct DrcEngine<'a> {
    deck: &'a RuleDeck,
}

impl<'a> DrcEngine<'a> {
    /// Creates an engine for a deck.
    pub fn new(deck: &'a RuleDeck) -> Self {
        DrcEngine { deck }
    }

    /// Runs every rule in the deck, returning the combined report.
    ///
    /// Rules are checked in parallel (`DFM_THREADS`) and the per-rule
    /// results merged in deck order, so the report is bit-identical at
    /// any thread count.
    pub fn run(&self, layout: &FlatLayout) -> DrcReport {
        let per_rule = dfm_par::par_map(self.deck.rules(), |_, rule| check_rule(rule, layout));
        let mut report = DrcReport::new();
        for violations in per_rule {
            report.extend(violations);
        }
        report
    }
}

/// Sorts violations into the workspace's canonical report order
/// (location, then measured value). Both the flat and the tiled
/// execution paths finish with this sort, which is what turns
/// "same multiset of violations" into "bit-identical report".
pub(crate) fn sort_violations(v: &mut [Violation]) {
    v.sort_by_key(|x| {
        (
            x.location.x0,
            x.location.y0,
            x.location.x1,
            x.location.y1,
            x.actual,
            x.limit,
        )
    });
}

/// A borrowed layer region, or the empty region when there is none.
pub(crate) fn or_empty(region: Option<&Region>) -> &Region {
    static EMPTY: Region = Region::new();
    region.unwrap_or(&EMPTY)
}

/// Checks a single rule against a flat layout.
///
/// The returned violations are in canonical (location-sorted) order.
pub fn check_rule(rule: &Rule, layout: &FlatLayout) -> Vec<Violation> {
    let id = rule.id();
    let region = |layer: &Layer| or_empty(layout.region_ref(*layer));
    let against = |found: Vec<(Rect, i64)>, limit: i64| -> Vec<Violation> {
        found
            .into_iter()
            .map(|(location, actual)| Violation {
                rule: id.clone(),
                location,
                actual,
                limit,
            })
            .collect()
    };
    let mut out = match rule {
        Rule::MinWidth { layer, value } => against(width_violations(region(layer), *value), *value),
        Rule::MinSpace { layer, value } => {
            against(spacing_violations(region(layer), *value), *value)
        }
        Rule::MinSpaceTo { from, to, value } => against(
            min_space_to_violations(region(from), region(to), *value),
            *value,
        ),
        Rule::Enclosure {
            inner,
            outer,
            value,
        } => against(
            enclosure_violations(region(inner), region(outer), *value),
            *value,
        ),
        Rule::MinArea { layer, value } => against(
            region(layer)
                .connected_components()
                .into_iter()
                .filter(|c| c.area() < *value as i128)
                .map(|c| (c.bbox(), c.area() as i64))
                .collect(),
            *value,
        ),
        Rule::WideSpace {
            layer,
            wide_width,
            space,
        } => against(
            wide_space_violations(region(layer), *wide_width, *space),
            *space,
        ),
        Rule::Density {
            layer,
            window,
            min,
            max,
        } => density_violations(region(layer), layout.bbox(), *window, *min, *max)
            .into_iter()
            .map(|(location, density)| {
                let limit = if density_ppm(density) < density_ppm(*min) {
                    *min
                } else {
                    *max
                };
                Violation {
                    rule: id.clone(),
                    location,
                    actual: density_ppm(density),
                    limit: density_ppm(limit),
                }
            })
            .collect(),
    };
    sort_violations(&mut out);
    out
}

/// Cross-layer spacing: components of `to` closer than `value` to
/// `from`, with the measured worst separation.
///
/// Returns `(violation_box, measured_separation)` pairs.
pub fn min_space_to_violations(from: &Region, to: &Region, value: i64) -> Vec<(Rect, i64)> {
    let near = from.bloated(value).intersection(to);
    near.connected_components()
        .into_iter()
        .map(|c| {
            // Clip (not `interacting`) keeps the measurement local:
            // `min_separation` is capped at `value`, and a rect beyond
            // `value + 1` of the candidate's bbox is more than `value`
            // away, so it can never change the answer — and a clip
            // window is something a tile halo can reproduce exactly.
            let from_local = from.clipped(c.bbox().expanded(value + 1));
            (c.bbox(), min_separation(&from_local, &c, value))
        })
        .collect()
}

/// Smallest Chebyshev (per-axis) separation between `a` and `b`, capped
/// at `cap`: 0 when the regions overlap or touch, `cap` when either is
/// empty or they are at least `cap` apart.
///
/// For `k ≥ 1`, `a.bloated(k)` overlaps `b` exactly when some rect pair
/// has `k > max(dx, dy)`, its larger per-axis gap ([`Rect::gap`], 0 when
/// the pair touches or overlaps), so the separation is the least such
/// gap over all rect pairs.
pub(crate) fn min_separation(a: &Region, b: &Region, cap: i64) -> i64 {
    let gaps = a.rects().iter().flat_map(|ra| {
        b.rects().iter().map(|rb| {
            let (dx, dy) = ra.gap(rb);
            dx.max(dy)
        })
    });
    gaps.fold(cap, i64::min).max(0)
}

/// A pair of facing boundary edges: the measured distance between them
/// and the length over which they face each other.
///
/// Produced by [`facing_pairs`] (spacings and feature widths); this is
/// also the raw input to critical-area analysis in `dfm-yield`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FacingPair {
    /// Distance between the two edges.
    pub distance: i64,
    /// Overlap length along the edges.
    pub length: i64,
    /// The box spanned between the facing edge segments.
    pub location: Rect,
}

/// Every facing edge pair closer than `max`, both senses read off one
/// preparation of the region: `(exterior, interior)`, the local
/// *spacings* (notches included, corner-to-corner excluded) and the
/// local feature *widths*.
pub fn facing_pairs(region: &Region, max: i64) -> (Vec<FacingPair>, Vec<FacingPair>) {
    let layer = PreparedLayer::new(region);
    (
        coalesced_pairs(layer.fragments(max, false)),
        coalesced_pairs(layer.fragments(max, true)),
    )
}

/// Facing-interior edge pairs closer than `value`: the min-width check.
///
/// Returns `(violation_box, measured_width)` pairs.
pub fn width_violations(region: &Region, value: i64) -> Vec<(Rect, i64)> {
    coalesced_pairs(PreparedLayer::new(region).fragments(value, true))
        .into_iter()
        .map(|p| (p.location, p.distance))
        .collect()
}

/// Exterior-facing edge pairs (including notches) plus corner-to-corner
/// gaps closer than `value`: the min-spacing check.
///
/// Returns `(violation_box, measured_spacing)` pairs.
pub fn spacing_violations(region: &Region, value: i64) -> Vec<(Rect, i64)> {
    let layer = PreparedLayer::new(region);
    let mut out: Vec<(Rect, i64)> = coalesced_pairs(layer.fragments(value, false))
        .into_iter()
        .map(|p| (p.location, p.distance))
        .collect();
    out.extend(layer.corner_gaps(value));
    out
}

/// The canonical pair list of raw fragments: coalesced, then measured.
pub(crate) fn coalesced_pairs(frags: Vec<PairFragment>) -> Vec<FacingPair> {
    coalesce_fragments(frags)
        .into_iter()
        .map(PairFragment::to_pair)
        .collect()
}

/// A facing-run fragment: the exact, locally decidable unit of an
/// edge-pair measurement.
///
/// For a vertical pair the gap runs along x (`gap_lo..gap_hi` are the
/// two edge x-coordinates) and the span along y; for a horizontal pair
/// the axes swap. A fragment asserts: *every* unit column of the span
/// range, measured at the gap's middle column, is covered (width mode)
/// or empty (spacing mode). Fragments with the same orientation and gap
/// coordinates whose spans touch coalesce into one measurement — that
/// coalescing (see `coalesce_fragments`) is the canonical form shared
/// by the flat sweep and the tiled merge, which is what makes the two
/// paths bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PairFragment {
    /// True for a vertical edge pair (gap along x).
    pub vertical: bool,
    /// Gap start (left edge x, or bottom edge y).
    pub gap_lo: i64,
    /// Gap end (right edge x, or top edge y).
    pub gap_hi: i64,
    /// Span-range start (the facing run's low coordinate).
    pub span_lo: i64,
    /// Span-range end.
    pub span_hi: i64,
}

impl PairFragment {
    /// The [`FacingPair`] this (coalesced) fragment measures.
    pub fn to_pair(self) -> FacingPair {
        let location = if self.vertical {
            Rect::new(self.gap_lo, self.span_lo, self.gap_hi, self.span_hi)
        } else {
            Rect::new(self.span_lo, self.gap_lo, self.span_hi, self.gap_hi)
        };
        FacingPair {
            distance: self.gap_hi - self.gap_lo,
            length: self.span_hi - self.span_lo,
            location,
        }
    }
}

/// Canonicalises raw fragments: sorts, then merges fragments with equal
/// orientation + gap coordinates whose span ranges overlap or touch.
fn coalesce_fragments(mut frags: Vec<PairFragment>) -> Vec<PairFragment> {
    frags.sort_unstable();
    let mut out: Vec<PairFragment> = Vec::new();
    for f in frags {
        if let Some(last) = out.last_mut() {
            if last.vertical == f.vertical
                && last.gap_lo == f.gap_lo
                && last.gap_hi == f.gap_hi
                && f.span_lo <= last.span_hi
            {
                last.span_hi = last.span_hi.max(f.span_hi);
                continue;
            }
        }
        out.push(f);
    }
    out
}

/// One region's boundary edges and rect index, built once and read by
/// every facing-pair sweep and corner scan of the layer: the layer's two
/// queries, [`fragments`](PreparedLayer::fragments) and
/// [`corner_gaps`](PreparedLayer::corner_gaps), at any value.
///
/// The edge lists come sorted along the axis a sweep walks (vertical
/// edges by `(x, y0)`, horizontal ones by `(y, x0)`), so the partners of
/// an edge are one run of its own list, in list order, and no edge is
/// indexed. The rect index answers coverage probes only: coverage runs
/// are sorted before use and a cell's coverage is a yes-or-no, so the
/// index's cell sets the cost and never the output.
#[derive(Clone, Debug)]
pub(crate) struct PreparedLayer {
    edges: BoundaryEdges,
    rects: GridIndex<()>,
}

impl PreparedLayer {
    /// Prepares `region`: its boundary edges, and its rects indexed on
    /// the finest grid the index's bucket bound allows.
    pub(crate) fn new(region: &Region) -> PreparedLayer {
        PreparedLayer {
            edges: region.boundary_edges(),
            rects: GridIndex::new(1, region.rects().iter().map(|r| (*r, ()))),
        }
    }

    /// Emits one raw [`PairFragment`] per maximal covered (width mode,
    /// `interior_between`) or empty (spacing mode) run of the gap's
    /// middle column, for every pair of opposite-facing boundary edges
    /// closer than `value`.
    ///
    /// Unlike a single midpoint probe, run detection is decidable from
    /// any window that contains the gap box plus one unit of margin —
    /// the property the tiled path relies on.
    ///
    /// # One sweep serves every smaller value
    ///
    /// `value` enters the sweep only through the cutoff `b − a < value`:
    /// the edge order, the candidate test and the fragments a pair emits
    /// (its mid-column runs) do not depend on it, and the run of partners
    /// within `v < value` of `a` is a prefix of the run within `value`.
    /// So keeping the
    /// fragments with `gap_hi − gap_lo < v` of a sweep at `value` yields
    /// exactly the sequence a sweep at `v` emits, in the same order —
    /// what lets a prepared tile run one sweep per layer and sense at the
    /// largest value any consumer asks for.
    pub(crate) fn fragments(&self, value: i64, interior_between: bool) -> Vec<PairFragment> {
        let mut out = Vec::new();
        // A gap is at least one unit wide, so `value <= 1` finds none.
        if self.edges.vertical.is_empty() || value <= 1 {
            return out;
        }
        let mut runs = Vec::new();
        // Coverage runs of one unit column (`vertical`: x = coord) or row
        // over the half-open span range, as maximal sorted intervals, into
        // `runs` (one buffer reused by every probe of a sweep).
        let covered_runs =
            |runs: &mut Vec<(i64, i64)>, vertical: bool, coord: i64, lo: i64, hi: i64| {
                let probe = if vertical {
                    Rect::new(coord, lo, coord + 1, hi)
                } else {
                    Rect::new(lo, coord, hi, coord + 1)
                };
                runs.clear();
                self.rects.for_each_touching(probe, |r, _| {
                    let (c0, c1, s0, s1) = if vertical {
                        (r.x0, r.x1, r.y0, r.y1)
                    } else {
                        (r.y0, r.y1, r.x0, r.x1)
                    };
                    if c0 <= coord && coord < c1 {
                        let (a, b) = (s0.max(lo), s1.min(hi));
                        if a < b {
                            runs.push((a, b));
                        }
                    }
                });
                runs.sort_unstable();
                let mut merged = 0;
                for i in 0..runs.len() {
                    let (a, b) = runs[i];
                    if merged > 0 && a <= runs[merged - 1].1 {
                        runs[merged - 1].1 = runs[merged - 1].1.max(b);
                    } else {
                        runs[merged] = (a, b);
                        merged += 1;
                    }
                }
                runs.truncate(merged);
            };

        // Turns covered runs into the mode's facing runs (covered for
        // width, complement for spacing) and emits fragments.
        let emit = |frags: &mut Vec<PairFragment>,
                    covered: &[(i64, i64)],
                    vertical: bool,
                    gap_lo: i64,
                    gap_hi: i64,
                    lo: i64,
                    hi: i64| {
            let mut push = |a: i64, b: i64| {
                if a < b {
                    frags.push(PairFragment {
                        vertical,
                        gap_lo,
                        gap_hi,
                        span_lo: a,
                        span_hi: b,
                    });
                }
            };
            if interior_between {
                for &(a, b) in covered {
                    push(a, b);
                }
            } else {
                let mut cursor = lo;
                for &(a, b) in covered {
                    push(cursor, a);
                    cursor = b;
                }
                push(cursor, hi);
            }
        };

        // Vertical edge pairs (gap along x). The partners of `a` are the
        // run of edges with `a.x < b.x < a.x + value`, in list order: the
        // fragments' order reaches the tile partials' bytes.
        let edges = &self.edges.vertical;
        for a in edges {
            // Left edge of the pair: interior to the right for width,
            // interior to the left (exterior to the right) for spacing.
            if a.interior_right != interior_between {
                continue;
            }
            let run = &edges[edges.partition_point(|b| b.x <= a.x)..];
            for b in run.iter().take_while(|b| b.x < a.x + value) {
                if b.interior_right == a.interior_right {
                    continue;
                }
                let ylo = a.y0.max(b.y0);
                let yhi = a.y1.min(b.y1);
                if ylo >= yhi {
                    continue;
                }
                let midx = a.x + (b.x - a.x) / 2;
                covered_runs(&mut runs, true, midx, ylo, yhi);
                emit(&mut out, &runs, true, a.x, b.x, ylo, yhi);
            }
        }

        // Horizontal edge pairs (gap along y), the same run along y.
        let edges = &self.edges.horizontal;
        for a in edges {
            if a.interior_up != interior_between {
                continue;
            }
            let run = &edges[edges.partition_point(|b| b.y <= a.y)..];
            for b in run.iter().take_while(|b| b.y < a.y + value) {
                if b.interior_up == a.interior_up {
                    continue;
                }
                let xlo = a.x0.max(b.x0);
                let xhi = a.x1.min(b.x1);
                if xlo >= xhi {
                    continue;
                }
                let midy = a.y + (b.y - a.y) / 2;
                covered_runs(&mut runs, false, midy, xlo, xhi);
                emit(&mut out, &runs, false, a.y, b.y, xlo, xhi);
            }
        }
        out
    }

    /// Corner-to-corner (Euclidean) gaps between diagonally facing
    /// region corners closer than `value`, as `(gap_box, distance)`
    /// pairs.
    ///
    /// Corners are *geometric*: a boundary vertex qualifies through the
    /// coverage pattern of its four adjacent unit cells (convex, concave
    /// or checkerboard), never through the region's internal rectangle
    /// decomposition — so the result is a function of the covered point
    /// set alone, and a tile window computes the same pairs as the flat
    /// region.
    pub(crate) fn corner_gaps(&self, value: i64) -> Vec<(Rect, i64)> {
        let edges = &self.edges.vertical;
        if edges.is_empty() || value <= 1 {
            return Vec::new();
        }
        let mut vertices: Vec<Point> = Vec::with_capacity(edges.len() * 2);
        for e in edges {
            vertices.push(Point::new(e.x, e.y0));
            vertices.push(Point::new(e.x, e.y1));
        }
        vertices.sort_unstable_by_key(|p| (p.x, p.y));
        vertices.dedup();

        let covered = |x: i64, y: i64| -> bool {
            let mut hit = false;
            self.rects
                .for_each_touching(Rect::new(x, y, x + 1, y + 1), |r, _| {
                    hit |= r.x0 <= x && x < r.x1 && r.y0 <= y && y < r.y1
                });
            hit
        };
        // The coverage pattern (NE, NW, SW, SE cells) around a vertex.
        let pattern = |p: Point| {
            [
                covered(p.x, p.y),
                covered(p.x - 1, p.y),
                covered(p.x - 1, p.y - 1),
                covered(p.x, p.y - 1),
            ]
        };
        // True corners turn: one cell (convex), three (concave), or two
        // diagonal (checkerboard). Two adjacent cells are a straight edge
        // point (possible with a split edge list), zero/four no boundary.
        let is_corner = |[ne, nw, sw, se]: [bool; 4]| -> bool {
            match [ne, nw, sw, se].iter().filter(|&&b| b).count() {
                1 | 3 => true,
                2 => ne == sw, // diagonal pairs only
                _ => false,
            }
        };
        // The true corners in corner order, each with its pattern.
        let corners: Vec<(Point, [bool; 4])> = vertices
            .into_iter()
            .map(|p| (p, pattern(p)))
            .filter(|&(_, cells)| is_corner(cells))
            .collect();

        let v2 = value as i128 * value as i128;
        let mut hits = Vec::new();
        for (i, &(p, [p_ne, p_nw, p_sw, p_se])) in corners.iter().enumerate() {
            // The partners of `p`: the later corners with `q.x < p.x +
            // value`, in corner order (the hits' order reaches the bytes).
            let run = corners[i + 1..]
                .iter()
                .take_while(|(q, _)| q.x < p.x + value);
            for &(q, [q_ne, q_nw, q_sw, q_se]) in run {
                let (dx, dy) = (q.x - p.x, q.y - p.y);
                let d2 = dx as i128 * dx as i128 + dy as i128 * dy as i128;
                if dx == 0 || dy == 0 || d2 >= v2 {
                    continue;
                }
                let dist = (d2 as f64).sqrt().floor() as i64;
                if dy > 0 {
                    // q is up-right of p: p must open to the NE, q to
                    // the SW, with material behind each corner.
                    if p_sw && !p_ne && q_ne && !q_sw {
                        hits.push((Rect::new(p.x, p.y, q.x, q.y), dist));
                    }
                } else {
                    // q is down-right of p: p opens SE, q opens NW.
                    if p_nw && !p_se && q_se && !q_nw {
                        hits.push((Rect::new(p.x, q.y, q.x, p.y), dist));
                    }
                }
            }
        }
        hits
    }
}

/// Width-dependent ("fat wire") spacing: regions of the layer closer
/// than `space` to a feature that is at least `wide_width` across in
/// both axes (excluding the wide feature's own connected component).
///
/// Returns `(violation_box, measured_separation)` pairs: the real worst
/// separation between the wide feature and the offending neighbour.
pub fn wide_space_violations(region: &Region, wide_width: i64, space: i64) -> Vec<(Rect, i64)> {
    let wide = region.opened(wide_width / 2);
    if wide.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for comp in region.connected_components() {
        let wide_part = comp.intersection(&wide);
        if wide_part.is_empty() {
            continue;
        }
        let others = region.difference(&comp);
        let near = wide_part.bloated(space).intersection(&others);
        out.extend(near.connected_components().into_iter().map(|c| {
            // Clip, not `interacting`: the measurement only sees wide
            // material within `space` of the candidate, so the clip
            // window bounds it exactly (and a tile halo can reproduce
            // the same window).
            let wide_local = wide_part.clipped(c.bbox().expanded(space + 1));
            (c.bbox(), min_separation(&wide_local, &c, space))
        }));
    }
    out
}

/// Regions where `inner` is not enclosed by `outer` with margin `value`.
///
/// Returns `(violation_box, measured_margin)` pairs: the real worst
/// enclosure margin of the offending inner shapes (0 when the inner
/// shape pokes out of `outer` entirely).
pub fn enclosure_violations(inner: &Region, outer: &Region, value: i64) -> Vec<(Rect, i64)> {
    if inner.is_empty() {
        return Vec::new();
    }
    let safe = outer.shrunk(value);
    inner
        .difference(&safe)
        .connected_components()
        .into_iter()
        .map(|c| {
            let inner_local = inner.interacting(&c);
            // Clip, not `interacting`: a point is enclosed with margin
            // `k ≤ value` iff its `k`-ball lies in `outer`, so outer
            // material beyond `value + 1` of the inner bbox can never
            // change the measured margin. A clip window is what a tile
            // halo reproduces exactly; whole-component selection is not.
            let outer_local = outer.clipped(inner_local.bbox().expanded(value + 1));
            (
                c.bbox(),
                enclosure_margin(&inner_local, &outer_local, value),
            )
        })
        .collect()
}

/// Largest margin `k < value` such that `inner` stays inside
/// `outer.shrunk(k)` — the measured enclosure at a violation site, 0
/// when `inner` pokes out of `outer`.
///
/// `shrunk(k)` removes every point within `k` of the complement, so the
/// margin is `inner`'s separation from the complement of `outer`. Only
/// complement within `value + 1` of `inner` can come within `value` of
/// it, so a frame of that size bounds the complement exactly.
pub(crate) fn enclosure_margin(inner: &Region, outer: &Region, value: i64) -> i64 {
    let frame = Region::from_rect(inner.bbox().expanded(value + 1));
    min_separation(inner, &frame.difference(outer), value - 1)
}

/// Rounds a density fraction to parts-per-million, half to even.
///
/// Every density *decision* in the workspace (rule filtering, fill
/// targeting, tiled merges) goes through this one rounding, so flat and
/// tiled runs can never disagree by an ulp at a threshold.
pub fn density_ppm(d: f64) -> i64 {
    (d * 1e6).round_ties_even() as i64
}

/// Stepped-window density analysis: windows whose metal density falls
/// outside `[min, max]` after ppm rounding ([`density_ppm`]), with the
/// measured density.
pub fn density_violations(
    region: &Region,
    extent: Rect,
    window: i64,
    min: f64,
    max: f64,
) -> Vec<(Rect, f64)> {
    let (min_ppm, max_ppm) = (density_ppm(min), density_ppm(max));
    density_map(region, extent, window)
        .into_iter()
        .filter(|&(_, d)| {
            let ppm = density_ppm(d);
            ppm < min_ppm || ppm > max_ppm
        })
        .collect()
}

/// The canonical density-window enumeration: `window`-sized rects
/// stepping by half a window across `extent`, clamped inside it.
///
/// If `extent` is smaller than the window, a single window covering
/// `extent` is used. Both the flat density map and the tiled per-window
/// partial sums iterate exactly this list (in this order), so window
/// indices line up between the two paths.
pub fn density_windows(extent: Rect, window: i64) -> Vec<Rect> {
    let mut out = Vec::new();
    if extent.is_empty() || window <= 0 {
        return out;
    }
    let step = (window / 2).max(1);
    let mut y = extent.y0;
    loop {
        let mut x = extent.x0;
        let y1 = (y + window).min(extent.y1);
        let y0 = (y1 - window).max(extent.y0);
        loop {
            let x1 = (x + window).min(extent.x1);
            let x0 = (x1 - window).max(extent.x0);
            let w = Rect::new(x0, y0, x1, y1);
            if !w.is_empty() {
                out.push(w);
            }
            if x1 >= extent.x1 {
                break;
            }
            x += step;
        }
        if y1 >= extent.y1 {
            break;
        }
        y += step;
    }
    out
}

/// Computes the density of `region` in every [`density_windows`] window.
pub fn density_map(region: &Region, extent: Rect, window: i64) -> Vec<(Rect, f64)> {
    density_windows(extent, window)
        .into_iter()
        .map(|w| {
            let covered = region.clipped(w).area();
            (w, covered as f64 / w.area() as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_layout::{layers, Cell, FlatLayout, Library, Technology};

    fn flat_with(layer: dfm_layout::Layer, rects: &[Rect]) -> FlatLayout {
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        for &r in rects {
            c.add_rect(layer, r);
        }
        let id = lib.add_cell(c).expect("add");
        lib.flatten(id).expect("flatten")
    }

    #[test]
    fn width_violation_detected() {
        let region = Region::from_rect(Rect::new(0, 0, 50, 1000));
        let v = width_violations(&region, 90);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 50);
        assert!(width_violations(&region, 50).is_empty());
        assert!(width_violations(&region, 40).is_empty());
    }

    #[test]
    fn width_ok_for_wide_shape() {
        let region = Region::from_rect(Rect::new(0, 0, 200, 200));
        assert!(width_violations(&region, 90).is_empty());
    }

    #[test]
    fn width_violation_in_neck() {
        // Dumbbell: two fat pads joined by a thin neck.
        let region = Region::from_rects([
            Rect::new(0, 0, 200, 200),
            Rect::new(200, 80, 400, 120), // 40 tall neck
            Rect::new(400, 0, 600, 200),
        ]);
        let v = width_violations(&region, 90);
        assert!(!v.is_empty());
        // All violations are in the neck's y-band.
        for (r, w) in &v {
            assert!(*w == 40, "unexpected width {w}");
            assert!(r.y0 >= 80 && r.y1 <= 120);
        }
    }

    #[test]
    fn spacing_violation_detected() {
        let region = Region::from_rects([
            Rect::new(0, 0, 100, 100),
            Rect::new(150, 0, 250, 100), // 50 gap
        ]);
        let v = spacing_violations(&region, 90);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 50);
        assert_eq!(v[0].0, Rect::new(100, 0, 150, 100));
        assert!(spacing_violations(&region, 50).is_empty());
    }

    #[test]
    fn notch_is_a_spacing_violation() {
        // U-shape: the inner notch is 40 wide.
        let region = Region::from_rects([
            Rect::new(0, 0, 300, 100),
            Rect::new(0, 100, 130, 300),
            Rect::new(170, 100, 300, 300),
        ]);
        let v = spacing_violations(&region, 90);
        assert!(!v.is_empty());
        assert!(v
            .iter()
            .any(|(r, s)| *s == 40 && r.x0 == 130 && r.x1 == 170));
    }

    #[test]
    fn corner_to_corner_spacing() {
        let region = Region::from_rects([
            Rect::new(0, 0, 100, 100),
            Rect::new(120, 120, 200, 200), // diagonal gap ~28.3
        ]);
        let v = spacing_violations(&region, 40);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 28); // floor(sqrt(800))
        assert!(spacing_violations(&region, 28).is_empty());
    }

    #[test]
    fn wide_space_rule() {
        // A fat plate (400 wide) next to a thin wire at 120: legal for
        // the base 90 rule but violates the wide rule (270/135).
        let region = Region::from_rects([Rect::new(0, 0, 3000, 400), Rect::new(0, 520, 3000, 610)]);
        assert!(spacing_violations(&region, 90).is_empty());
        let v = wide_space_violations(&region, 270, 135);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].1, 120, "measured wide-space separation");
        // Narrow-only layout never fires the wide rule.
        let thin = Region::from_rects([Rect::new(0, 0, 3000, 90), Rect::new(0, 180, 3000, 270)]);
        assert!(wide_space_violations(&thin, 270, 135).is_empty());
        // Enough spacing satisfies the rule.
        let ok = Region::from_rects([Rect::new(0, 0, 3000, 400), Rect::new(0, 540, 3000, 630)]);
        assert!(wide_space_violations(&ok, 270, 135).is_empty());
    }

    #[test]
    fn wide_space_in_deck() {
        let flat = flat_with(
            layers::METAL1,
            &[Rect::new(0, 0, 3000, 400), Rect::new(0, 520, 3000, 610)],
        );
        let deck = RuleDeck::new().with(Rule::WideSpace {
            layer: layers::METAL1,
            wide_width: 270,
            space: 135,
        });
        let report = DrcEngine::new(&deck).run(&flat);
        assert_eq!(report.by_rule("METAL1.WS").count(), 1);
    }

    #[test]
    fn enclosure_violations_detected() {
        let via = Region::from_rect(Rect::new(100, 100, 190, 190));
        let metal_good = Region::from_rect(Rect::new(60, 60, 230, 230)); // 40 enclosure
        assert!(enclosure_violations(&via, &metal_good, 40).is_empty());
        let metal_bad = Region::from_rect(Rect::new(80, 60, 230, 230)); // 20 on left
        let v = enclosure_violations(&via, &metal_bad, 40);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 20, "measured enclosure margin");
        // Inner poking fully outside the outer: zero margin.
        let outside = Region::from_rect(Rect::new(500, 500, 590, 590));
        let v = enclosure_violations(&outside, &metal_bad, 40);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 0);
    }

    #[test]
    fn min_space_to_measures_real_separation() {
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        c.add_rect(layers::METAL1, Rect::new(0, 0, 100, 100));
        c.add_rect(layers::METAL2, Rect::new(130, 0, 230, 100)); // 30 gap
        let id = lib.add_cell(c).expect("add");
        let flat = lib.flatten(id).expect("flatten");
        let deck = RuleDeck::new().with(Rule::MinSpaceTo {
            from: layers::METAL1,
            to: layers::METAL2,
            value: 50,
        });
        let report = DrcEngine::new(&deck).run(&flat);
        assert_eq!(report.violation_count(), 1);
        let v = &report.violations()[0];
        assert_eq!(v.actual, 30, "measured cross-layer separation");
        assert_eq!(v.limit, 50);
    }

    #[test]
    fn density_ppm_rounds_half_to_even() {
        // 0.3 × 1e6 lands just below 300000.0 in f64; truncation used
        // to report the limit as 299999 ppm. The far sliver stretches
        // the extent so the single window covers [0,1000]².
        let flat = flat_with(
            layers::METAL1,
            &[Rect::new(0, 0, 250, 1000), Rect::new(999, 999, 1000, 1000)],
        );
        let deck = RuleDeck::new().with(Rule::Density {
            layer: layers::METAL1,
            window: 1000,
            min: 0.3,
            max: 0.9,
        });
        let report = DrcEngine::new(&deck).run(&flat);
        assert_eq!(report.violation_count(), 1);
        let v = &report.violations()[0];
        assert_eq!(v.limit, 300_000, "ppm limit must round, not truncate");
        assert_eq!(v.actual, 250_001, "measured ppm density");
    }

    #[test]
    fn engine_report_identical_across_thread_counts() {
        let tech = Technology::n65();
        let lib = dfm_layout::generate::routed_block(
            &tech,
            dfm_layout::generate::RoutedBlockParams::default(),
            7,
        );
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let deck = RuleDeck::for_technology(&tech);
        let run = || DrcEngine::new(&deck).run(&flat);
        let seq = dfm_par::with_threads(1, run);
        let two = dfm_par::with_threads(2, run);
        let eight = dfm_par::with_threads(8, run);
        assert_eq!(seq, two);
        assert_eq!(seq, eight);
    }

    #[test]
    fn density_windows() {
        // Half-covered extent.
        let region = Region::from_rect(Rect::new(0, 0, 500, 1000));
        let extent = Rect::new(0, 0, 1000, 1000);
        let map = density_map(&region, extent, 1000);
        assert_eq!(map.len(), 1);
        assert!((map[0].1 - 0.5).abs() < 1e-9);
        let v = density_violations(&region, extent, 1000, 0.6, 0.9);
        assert_eq!(v.len(), 1);
        let v = density_violations(&region, extent, 1000, 0.2, 0.9);
        assert!(v.is_empty());
    }

    #[test]
    fn engine_runs_technology_deck() {
        let tech = Technology::n65();
        let deck = RuleDeck::for_technology(&tech);
        // A clean min-size wire pair.
        let w = tech.rules(layers::METAL1).min_width;
        let s = tech.rules(layers::METAL1).min_space;
        let flat = flat_with(
            layers::METAL1,
            &[
                Rect::new(0, 0, 4000, w),
                Rect::new(0, w + s, 4000, 2 * w + s),
            ],
        );
        let report = DrcEngine::new(&deck).run(&flat);
        // Only density can fire on such a tiny extent; width/space/area clean.
        for v in report.violations() {
            assert!(v.rule.ends_with(".DEN"), "unexpected violation {v}");
        }
    }

    #[test]
    fn engine_flags_narrow_wire() {
        let tech = Technology::n65();
        let deck = RuleDeck::for_technology(&tech);
        let w = tech.rules(layers::METAL1).min_width;
        let flat = flat_with(layers::METAL1, &[Rect::new(0, 0, 4000, w - 10)]);
        let report = DrcEngine::new(&deck).run(&flat);
        assert!(report.by_rule("METAL1.W").count() >= 1);
    }

    #[test]
    fn engine_flags_via_enclosure() {
        let tech = Technology::n65();
        let deck = RuleDeck::for_technology(&tech);
        let mut lib = Library::new("t");
        let mut c = Cell::new("TOP");
        let via = Rect::new(0, 0, tech.via_size, tech.via_size);
        c.add_rect(layers::VIA1, via);
        // Metal-1 pad exactly flush (zero enclosure): violation.
        c.add_rect(layers::METAL1, via);
        c.add_rect(layers::METAL2, via.expanded(tech.via_enclosure));
        let id = lib.add_cell(c).expect("add");
        let flat = lib.flatten(id).expect("flatten");
        let report = DrcEngine::new(&deck).run(&flat);
        assert!(report.by_rule("VIA1.EN.METAL1").count() == 1);
        assert!(report.by_rule("VIA1.EN.METAL2").count() == 0);
    }

    #[test]
    fn min_area_flags_small_islands() {
        let tech = Technology::n65();
        let deck = RuleDeck::for_technology(&tech);
        let a = tech.rules(layers::METAL1).min_area;
        let side = ((a as f64).sqrt() as i64) / 2; // well below min area
        let flat = flat_with(layers::METAL1, &[Rect::new(0, 0, side, side)]);
        let report = DrcEngine::new(&deck).run(&flat);
        assert_eq!(report.by_rule("METAL1.A").count(), 1);
    }

    #[test]
    fn generated_routed_block_is_mostly_clean() {
        // The generator is correct-by-construction for width/space/enclosure.
        let tech = Technology::n65();
        let lib = dfm_layout::generate::routed_block(
            &tech,
            dfm_layout::generate::RoutedBlockParams::default(),
            42,
        );
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let deck = RuleDeck::new()
            .with(Rule::MinWidth {
                layer: layers::METAL1,
                value: tech.rules(layers::METAL1).min_width,
            })
            .with(Rule::MinSpace {
                layer: layers::METAL2,
                value: tech.rules(layers::METAL2).min_space,
            })
            .with(Rule::Enclosure {
                inner: layers::VIA1,
                outer: layers::METAL1,
                value: tech.via_enclosure,
            });
        let report = DrcEngine::new(&deck).run(&flat);
        assert!(
            report.violation_count() == 0,
            "expected clean-by-construction block, got:\n{report}"
        );
    }

    #[test]
    fn replacing_a_layer_with_a_smaller_region_shrinks_the_extent() {
        // The flat Density check windows over `layout.bbox()`, so a
        // replaced layer must not leave its old extent behind: the flat
        // report equals the report on the same geometry written out and
        // flattened again.
        let mut flat = FlatLayout::default();
        flat.set_region(
            layers::METAL1,
            Region::from_rect(Rect::new(0, 0, 40_000, 40_000)),
        );
        flat.set_region(
            layers::METAL1,
            Region::from_rect(Rect::new(0, 0, 10_000, 10_000)),
        );
        let back = flat.to_library("t", "TOP").flatten_top().expect("flatten");
        assert_eq!(flat.bbox(), Rect::new(0, 0, 10_000, 10_000));
        assert_eq!(flat.bbox(), back.bbox());
        let deck = RuleDeck::for_technology(&Technology::n65());
        let report = DrcEngine::new(&deck).run(&flat);
        assert_eq!(report, DrcEngine::new(&deck).run(&back));
    }

    /// A corner's gaps come in corner order, as the tile partials store
    /// them: the partner `(1050, 1560)` lies below `(1030, 1650)` but
    /// comes later in corner order, so its gap comes later.
    #[test]
    fn corner_gaps_come_in_corner_order() {
        let region = Region::from_rects([
            Rect::new(900, 1450, 1000, 1550),
            Rect::new(1030, 1650, 1130, 1750),
            Rect::new(1050, 1560, 1150, 1600),
        ]);
        let from_p: Vec<Rect> = PreparedLayer::new(&region)
            .corner_gaps(200)
            .into_iter()
            .map(|(r, _)| r)
            .filter(|r| (r.x0, r.y0) == (1000, 1550))
            .collect();
        assert_eq!(
            from_p,
            [
                Rect::new(1000, 1550, 1030, 1650),
                Rect::new(1000, 1550, 1050, 1560)
            ]
        );
    }

    #[test]
    fn one_sweep_at_the_widest_value_serves_every_smaller_one() {
        // The prepared-layer contract: filtering a layer's sweep at `R`
        // to gaps below a value is its sweep at that value (fragments in
        // both modes, in order), and filtering its corner scan at `R` to
        // distances below a value is its corner scan at that value.
        use dfm_check::{check, prop_assert_eq, Config};
        check(
            "one_sweep_at_the_widest_value_serves_every_smaller_one",
            &Config::with_cases(64),
            &(
                dfm_check::vec((0i64..40, 0i64..40, 1i64..16, 1i64..16), 1..14),
                0i64..100,
            ),
            |case| {
                let (specs, reach) = (&case.0, case.1);
                let region =
                    Region::from_rects(specs.iter().map(|&(x, y, w, h)| {
                        Rect::new(x * 7, y * 7, x * 7 + w * 5, y * 7 + h * 5)
                    }));
                let layer = PreparedLayer::new(&region);
                for value in 0..=reach {
                    for interior in [true, false] {
                        let filtered: Vec<PairFragment> = layer
                            .fragments(reach, interior)
                            .into_iter()
                            .filter(|f| f.gap_hi - f.gap_lo < value)
                            .collect();
                        prop_assert_eq!(
                            &filtered,
                            &layer.fragments(value, interior),
                            "interior {} {} < {}",
                            interior,
                            value,
                            reach
                        );
                    }
                    let filtered: Vec<(Rect, i64)> = layer
                        .corner_gaps(reach)
                        .into_iter()
                        .filter(|&(_, d)| d < value)
                        .collect();
                    prop_assert_eq!(
                        filtered,
                        layer.corner_gaps(value),
                        "corners {} < {}",
                        value,
                        reach
                    );
                }
                Ok(())
            },
        );
    }
}
