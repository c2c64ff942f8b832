//! The per-tile task a scheduler runs and the ordered merge that turns
//! a set of per-tile results back into the flat report.
//!
//! [`JobContext::compute_tile`] is a **pure** function of the context
//! (spec + layout) and the tile index: no clocks, no RNG, no shared
//! mutable state. That purity is what lets the service compute tiles
//! in any order, on any number of workers, kill the process between
//! any two tiles, and still merge to the exact flat bytes.

use crate::report::{CaSummary, LithoSummary, SignoffReport, CA_D0_PER_CM2};
use crate::spec::JobSpec;
use dfm_drc::{
    merge_rule_partials, rule_layers, rule_sweeps, rule_tile_halo, rule_view_partial, DrcReport,
    PreparedView, RuleDeck, RulePartial, Sweep,
};
use dfm_geom::{Rect, Region};
use dfm_layout::{Layer, Technology, TiledLayout, TilingConfig};
use dfm_litho::{merge_printed_pieces, Condition, LithoSimulator};
use dfm_yield::critical_area::{
    ca_sweeps, ca_tile_halo, ca_view_partial, merge_ca_partials, CaTilePartial,
};
use dfm_yield::DefectModel;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Version salt folded into every cache key. Bump on any change to the
/// digest inputs, the tile-partial codec, or engine semantics that is
/// not already visible in the digested bytes.
pub const CACHE_KEY_VERSION: u64 = 1;

/// Everything one tile contributes to the job: one mergeable partial
/// per enabled engine. Stored (and checkpointed) per tile index.
#[derive(Clone, Debug, PartialEq)]
pub struct TilePartial {
    /// Tile index this partial was computed for.
    pub tile: usize,
    /// One [`RulePartial`] per deck rule, in deck order (empty when
    /// DRC is disabled).
    pub drc: Vec<RulePartial>,
    /// Critical-area fragments (when a CA layer is configured).
    pub ca: Option<CaTilePartial>,
    /// Printed rects of the tile core (when a litho layer is
    /// configured).
    pub litho: Option<Vec<Rect>>,
    /// Largest rect count one engine read in the tile: the canonical
    /// rects of a rule's own layers (or of the CA layer) in its window —
    /// the job-level memory gauge.
    pub rects_peak: usize,
}

/// One distinct tile window of a job and every consumer that reads in
/// it: [`JobContext::compute_tile`] materialises and prepares it once
/// per tile, then runs each consumer off it.
#[derive(Default)]
struct ViewPlan {
    /// Halo of the window (already floored by the tiling's halo).
    halo: i64,
    /// Union of the consumers' layers, sorted.
    layers: Vec<Layer>,
    /// Every consumer's facing-pair sweeps.
    sweeps: Vec<Sweep>,
    /// Deck indices of the rules read in this window.
    rules: Vec<usize>,
    /// The CA layer, when CA reads in this window.
    ca: Option<Layer>,
    /// The litho layer, when litho prints from this window.
    litho: Option<Layer>,
}

/// The immutable, shareable half of a job: spec, resolved technology,
/// rule deck, and the tile-sharded layout. Built once per job (and
/// once more on resume), then shared read-only by every tile task.
pub struct JobContext {
    /// The spec the job was submitted with.
    pub spec: JobSpec,
    /// Resolved technology preset.
    pub tech: Technology,
    /// DRC deck (empty when the spec disables DRC).
    pub deck: RuleDeck,
    /// Tile-sharded layout; hierarchy is kept, tiles materialise on
    /// demand.
    pub layout: TiledLayout,
    /// Parsed score spec (when the job requests scoring).
    pub score_spec: Option<dfm_score::ScoreSpec>,
    /// Flat-layout score metrics (via redundancy, pattern statistics,
    /// drawn area), computed once at submit time. Empty when scoring
    /// is off. These feed [`crate::scoring::job_metrics`] at
    /// finalisation; they never influence tile computation, so the
    /// cache key ignores the score field entirely.
    pub layout_metrics: Vec<(String, f64)>,
    defects: DefectModel,
    sim: LithoSimulator,
    cond: Condition,
    /// One plan per distinct window, in ascending halo order.
    views: Vec<ViewPlan>,
    spec_digest: u64,
    deck_digest: u64,
    /// Memoised [`JobContext::tile_content_digest`], one slot per tile.
    tile_digests: Vec<OnceLock<u64>>,
}

impl JobContext {
    /// Builds a context from a spec and raw GDS bytes.
    ///
    /// # Errors
    ///
    /// Spec validation failures and GDS parse diagnostics (malformed
    /// records are reported with their byte offset, not defaulted).
    pub fn build(spec: &JobSpec, gds: &[u8]) -> Result<JobContext, String> {
        spec.validate()?;
        let tech = spec.technology()?;
        let config = TilingConfig::builder()
            .tile(spec.tile)
            .halo(spec.halo)
            .build()
            .map_err(|e| format!("bad tiling config: {e}"))?;
        let score_spec = spec.score_spec()?;
        // Scoring needs flat-layout statistics (via census, pattern
        // catalog, drawn area). Parse the GDS once and take both the
        // flat view (scoring only) and the tiled layout from it.
        let lib = dfm_layout::gds::from_bytes(gds).map_err(|e| format!("layout rejected: {e}"))?;
        let layout_metrics = if score_spec.is_some() {
            let flat = lib
                .flatten_top()
                .map_err(|e| format!("layout rejected: {e}"))?;
            crate::scoring::layout_metrics(&flat, &tech, spec)
        } else {
            Vec::new()
        };
        let layout =
            TiledLayout::from_library(lib, config).map_err(|e| format!("layout rejected: {e}"))?;
        let deck = if spec.drc {
            RuleDeck::for_technology(&tech)
        } else {
            RuleDeck::new()
        };
        let sim = LithoSimulator::for_feature_size(spec.litho_feature);
        let cond = Condition::nominal();
        let views = plan_views(spec, &deck, &sim, cond, layout.config().halo());
        let tile_digests = (0..layout.tile_count()).map(|_| OnceLock::new()).collect();
        Ok(JobContext {
            defects: DefectModel::new(spec.ca_x0.max(1), CA_D0_PER_CM2),
            spec_digest: spec_digest(spec),
            deck_digest: deck_digest(&deck),
            sim,
            cond,
            spec: spec.clone(),
            tech,
            deck,
            layout,
            score_spec,
            layout_metrics,
            views,
            tile_digests,
        })
    }

    /// Scores a merged report against the job's score spec, folding in
    /// the submit-time layout metrics. `None` when scoring is off.
    pub fn score(&self, report: &SignoffReport) -> Option<dfm_score::ScoreReport> {
        let spec = self.score_spec.as_ref()?;
        let metrics = crate::scoring::job_metrics(report, &self.layout_metrics);
        Some(dfm_score::score(&metrics, spec))
    }

    /// Number of tiles the job decomposes into.
    pub fn tile_count(&self) -> usize {
        self.layout.tile_count()
    }

    /// Digest of the spec's **analysis** fields — everything that can
    /// change a tile's result, nothing that can't. The client label
    /// `name` is deliberately excluded (it only appears in the report
    /// header, never in tile computation), so renaming a job still
    /// hits. Salted with [`CACHE_KEY_VERSION`] so a codec or keying
    /// change turns old stores into misses instead of misdecodes.
    /// Computed once, at build.
    pub fn cache_spec_digest(&self) -> u64 {
        self.spec_digest
    }

    /// Digest of the rule deck, over the canonical text rendering of
    /// every rule in deck order (the same rendering the deck DSL
    /// round-trips through, so every parameter participates). An empty
    /// deck digests the empty string. Computed once, at build.
    pub fn cache_deck_digest(&self) -> u64 {
        self.deck_digest
    }

    /// The conservative tile halo the cache key must cover: the
    /// maximum window any enabled engine reads for any tile. A tile
    /// whose content digest at this halo is unchanged is **provably**
    /// unchanged as an input to [`JobContext::compute_tile`] —
    /// overestimating the halo only costs spurious misses, never wrong
    /// hits, so every per-engine bound here errs wide.
    pub fn content_halo(&self) -> i64 {
        let mut halo = self.spec.halo;
        for rule in self.deck.rules() {
            halo = halo.max(dfm_drc::rule_tile_halo(rule));
        }
        if self.spec.ca_layer.is_some() {
            // CA extracts facing pairs at ca_range; the pair sweep
            // views tiles at range + 2 like MinWidth/MinSpace.
            halo = halo.max(ca_tile_halo(self.spec.ca_range()));
        }
        if self.spec.litho_layer.is_some() {
            halo = halo.max(self.sim.halo_nm(self.cond));
        }
        halo
    }

    /// Canonical content digest of one tile at [`content_halo`] — the
    /// third component of the tile's cache key. Memoised: a tile's
    /// window is digested once per context, so a miss that probes and
    /// then stores pays for one digest.
    ///
    /// [`content_halo`]: JobContext::content_halo
    pub fn tile_content_digest(&self, tile: usize) -> u64 {
        *self.tile_digests[tile]
            .get_or_init(|| self.layout.tile_content_digest(tile, self.content_halo()))
    }

    /// The full content address of one tile's result.
    pub fn cache_key(&self, tile: usize) -> dfm_cache::CacheKey {
        dfm_cache::CacheKey {
            spec: self.cache_spec_digest(),
            deck: self.cache_deck_digest(),
            tile: self.tile_content_digest(tile),
        }
    }

    /// Computes one tile's partial. Pure: equal `(context, tile)` in,
    /// equal partial out, regardless of thread, order, or retry count.
    ///
    /// Each distinct window of the job is materialised and prepared
    /// once — under the default spec that is one view for the whole
    /// deck and CA — and every consumer reads its own layers off it.
    /// The partial is byte-identical to running each engine's one-shot
    /// form (`rule_tile_partial`, `ca_tile_partial`,
    /// `printed_tile_piece`) on its own view.
    pub fn compute_tile(&self, tile: usize) -> TilePartial {
        let rules = self.deck.rules();
        let mut drc: Vec<Option<RulePartial>> = vec![None; rules.len()];
        let (mut ca, mut litho) = (None, None);
        let extent = self.layout.bbox();
        for plan in &self.views {
            let view = self.layout.view_layers(tile, plan.halo, &plan.layers);
            let prep = PreparedView::new(view, &plan.sweeps);
            for &r in &plan.rules {
                drc[r] = Some(rule_view_partial(&rules[r], &prep, extent));
            }
            if let Some(layer) = plan.ca {
                ca = Some(ca_view_partial(&prep, layer, self.spec.ca_range()));
            }
            if let Some(layer) = plan.litho {
                litho = Some(
                    self.sim
                        .printed_view_piece(prep.view(), extent, layer, self.cond),
                );
            }
        }
        let drc: Vec<RulePartial> = drc
            .into_iter()
            .map(|p| p.expect("every rule is planned"))
            .collect();
        let mut rects_peak = drc.iter().map(RulePartial::rect_count).max().unwrap_or(0);
        if let Some(ca) = &ca {
            rects_peak = rects_peak.max(ca.rects);
        }
        TilePartial {
            tile,
            drc,
            ca,
            litho,
            rects_peak,
        }
    }

    /// Merges tile partials — **which must be sorted by tile index** —
    /// into a report. Passing all `tile_count()` partials yields the
    /// final report, bit-identical to [`crate::flat_report`]; passing a
    /// prefix yields the incremental view of the completed region.
    ///
    /// # Errors
    ///
    /// Tiled-DRC certification refusals and partial/rule mismatches.
    pub fn merge(&self, partials: &[TilePartial]) -> Result<SignoffReport, String> {
        debug_assert!(partials.windows(2).all(|w| w[0].tile < w[1].tile));
        let mut report = SignoffReport::default();
        if self.spec.drc {
            let mut drc = DrcReport::new();
            for (r, rule) in self.deck.rules().iter().enumerate() {
                let per_rule: Vec<RulePartial> = partials
                    .iter()
                    .map(|p| {
                        p.drc
                            .get(r)
                            .cloned()
                            .ok_or_else(|| format!("tile {} partial is missing rule #{r}", p.tile))
                    })
                    .collect::<Result<_, String>>()?;
                let violations =
                    merge_rule_partials(rule, &self.layout, per_rule).map_err(|e| e.to_string())?;
                drc.extend(violations);
            }
            report.drc = Some(drc);
        }
        if self.spec.ca_layer.is_some() {
            let ca_parts: Vec<CaTilePartial> = partials
                .iter()
                .map(|p| {
                    p.ca.clone()
                        .ok_or_else(|| format!("tile {} partial is missing CA data", p.tile))
                })
                .collect::<Result<_, String>>()?;
            let result = merge_ca_partials(ca_parts, &self.defects);
            report.ca = Some(CaSummary::from_result(&result));
        }
        if self.spec.litho_layer.is_some() {
            let pieces: Vec<Vec<Rect>> = partials
                .iter()
                .map(|p| {
                    p.litho
                        .clone()
                        .ok_or_else(|| format!("tile {} partial is missing litho data", p.tile))
                })
                .collect::<Result<_, String>>()?;
            let printed: Region = merge_printed_pieces(pieces);
            report.litho = Some(LithoSummary::from_region(&printed));
        }
        Ok(report)
    }
}

/// Groups the job's consumers — deck rules, CA, litho — by the window
/// each one reads, `max(consumer halo, tiling halo)`. A consumer is
/// never moved to a wider window to share a view: a wider window can
/// change certification (refusals) and min-area's core decomposition.
fn plan_views(
    spec: &JobSpec,
    deck: &RuleDeck,
    sim: &LithoSimulator,
    cond: Condition,
    tiling_halo: i64,
) -> Vec<ViewPlan> {
    fn plan<'a>(
        plans: &'a mut BTreeMap<i64, ViewPlan>,
        halo: i64,
        layers: &[Layer],
        sweeps: &[Sweep],
    ) -> &'a mut ViewPlan {
        let p = plans.entry(halo).or_insert_with(|| ViewPlan {
            halo,
            ..ViewPlan::default()
        });
        p.layers.extend_from_slice(layers);
        p.layers.sort();
        p.layers.dedup();
        p.sweeps.extend_from_slice(sweeps);
        p
    }
    let mut plans = BTreeMap::new();
    let window = |halo: i64| halo.max(tiling_halo);
    for (r, rule) in deck.rules().iter().enumerate() {
        let halo = window(rule_tile_halo(rule));
        plan(&mut plans, halo, &rule_layers(rule), &rule_sweeps(rule))
            .rules
            .push(r);
    }
    if let Some(layer) = spec.ca_layer {
        let range = spec.ca_range();
        let halo = window(ca_tile_halo(range));
        plan(&mut plans, halo, &[layer], &ca_sweeps(layer, range)).ca = Some(layer);
    }
    if let Some(layer) = spec.litho_layer {
        plan(&mut plans, window(sim.tile_view_halo(cond)), &[layer], &[]).litho = Some(layer);
    }
    plans.into_values().collect()
}

/// See [`JobContext::cache_spec_digest`].
fn spec_digest(s: &JobSpec) -> u64 {
    use std::fmt::Write as _;
    let layer = |l: &Option<Layer>| match l {
        Some(l) => format!("{}/{}", l.layer, l.datatype),
        None => "none".to_string(),
    };
    let mut text = format!("cache-key-v{CACHE_KEY_VERSION};");
    let _ = write!(
        text,
        "tech={};tile={};halo={};drc={};ca_layer={};ca_x0={};litho_layer={};litho_feature={}",
        s.tech,
        s.tile,
        s.halo,
        s.drc,
        layer(&s.ca_layer),
        s.ca_x0,
        layer(&s.litho_layer),
        s.litho_feature,
    );
    crate::codec::fnv1a_64(text.as_bytes())
}

/// See [`JobContext::cache_deck_digest`].
fn deck_digest(deck: &RuleDeck) -> u64 {
    let mut text = String::new();
    for rule in deck.rules() {
        text.push_str(&rule.to_string());
        text.push('\n');
    }
    crate::codec::fnv1a_64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::flat_report;
    use dfm_layout::{gds, generate, Layer};

    fn small_gds() -> Vec<u8> {
        let tech = Technology::n65();
        let params = generate::RoutedBlockParams {
            width: 6_000,
            height: 6_000,
            ..Default::default()
        };
        gds::to_bytes(&generate::routed_block(&tech, params, 11)).expect("serialise")
    }

    fn spec() -> JobSpec {
        JobSpec {
            tile: 1700,
            halo: 64,
            litho_layer: Some(dfm_layout::layers::METAL1),
            ..JobSpec::default()
        }
    }

    #[test]
    fn all_tiles_merge_to_the_flat_report_bytes() {
        let gds = small_gds();
        let spec = spec();
        let ctx = JobContext::build(&spec, &gds).expect("context");
        assert!(ctx.tile_count() >= 9, "want a 3x3 grid or finer");
        // Compute in reverse order to prove order independence.
        let mut partials: Vec<TilePartial> = (0..ctx.tile_count())
            .rev()
            .map(|i| ctx.compute_tile(i))
            .collect();
        partials.sort_by_key(|p| p.tile);
        let merged = ctx.merge(&partials).expect("merge");
        let lib = gds::from_bytes(&gds).expect("parse");
        let flat = flat_report(&spec, &lib).expect("flat");
        assert_eq!(
            merged.render_text(&spec),
            flat.render_text(&spec),
            "tiled merge must be bit-identical to the flat run"
        );
        // The tiled path never materialises a full layer: every tile's
        // working set stays below the densest layer the job reads.
        let mut read: Vec<Layer> = spec.ca_layer.into_iter().chain(spec.litho_layer).collect();
        for rule in ctx.deck.rules() {
            read.extend(dfm_drc::rule_layers(rule));
        }
        let layout = lib.flatten_top().expect("flatten");
        let densest = read
            .iter()
            .map(|&l| layout.region(l).rect_count())
            .max()
            .expect("layers");
        for p in &partials {
            assert!(
                p.rects_peak < densest,
                "tile {}: {} rects of {densest}",
                p.tile,
                p.rects_peak
            );
        }
    }

    #[test]
    fn a_pair_free_ca_layer_reports_positive_zero_flat_and_tiled() {
        // Nothing is drawn on the CA layer, so it has no facing pairs:
        // the flat run, the all-tile merge and the empty prefix merge
        // all report +0, whatever the toolchain's empty f64 sum is.
        let gds = small_gds();
        let spec = JobSpec {
            tile: 1700,
            halo: 64,
            drc: false,
            ca_layer: Some(dfm_layout::layers::MARKER),
            ..JobSpec::default()
        };
        let ctx = JobContext::build(&spec, &gds).expect("context");
        let partials: Vec<TilePartial> =
            (0..ctx.tile_count()).map(|i| ctx.compute_tile(i)).collect();
        let lib = gds::from_bytes(&gds).expect("parse");
        let flat = flat_report(&spec, &lib).expect("flat").render_text(&spec);
        assert_eq!(
            ctx.merge(&partials).expect("merge").render_text(&spec),
            flat
        );
        for zero in [
            "ca.short: 0 nm2 [0x0000000000000000] over 0 pairs",
            "ca.open: 0 nm2 [0x0000000000000000] over 0 pairs",
        ] {
            assert!(flat.contains(zero), "{flat}");
            let prefix = ctx.merge(&[]).expect("empty prefix").render_text(&spec);
            assert!(prefix.contains(zero), "{prefix}");
        }
    }

    #[test]
    fn prefix_merge_gives_an_incremental_view() {
        let gds = small_gds();
        let spec = spec();
        let ctx = JobContext::build(&spec, &gds).expect("context");
        let partials: Vec<TilePartial> = (0..2.min(ctx.tile_count()))
            .map(|i| ctx.compute_tile(i))
            .collect();
        let partial_report = ctx.merge(&partials).expect("merge prefix");
        assert!(partial_report.ca.is_some());
    }

    #[test]
    fn cache_keys_ignore_the_label_and_track_analysis_inputs() {
        let gds = small_gds();
        let spec = spec();
        let ctx = JobContext::build(&spec, &gds).expect("context");
        let renamed = JobContext::build(
            &JobSpec {
                name: "renamed".to_string(),
                ..spec.clone()
            },
            &gds,
        )
        .expect("context");
        assert_eq!(
            ctx.cache_key(0),
            renamed.cache_key(0),
            "the client label must not poison the cache key"
        );
        let retiled = JobContext::build(
            &JobSpec {
                tile: 2000,
                ..spec.clone()
            },
            &gds,
        )
        .expect("context");
        assert_ne!(ctx.cache_spec_digest(), retiled.cache_spec_digest());
        let no_drc = JobContext::build(
            &JobSpec {
                drc: false,
                ..spec.clone()
            },
            &gds,
        )
        .expect("context");
        assert_ne!(ctx.cache_deck_digest(), no_drc.cache_deck_digest());
        // The content halo must cover every engine's read range; for
        // this spec the CA extraction range dominates.
        assert!(ctx.content_halo() >= ctx.spec.ca_range() + 2);
        assert!(ctx.content_halo() >= ctx.spec.halo);
    }

    #[test]
    fn score_spec_never_dirties_the_cache_key() {
        // Scoring is a report post-process: toggling or editing the
        // score spec must hit every cached tile, or the fix loop's
        // "recompute only dirty tiles" promise breaks.
        let gds = small_gds();
        let spec = spec();
        let ctx = JobContext::build(&spec, &gds).expect("context");
        let scored = JobContext::build(
            &JobSpec {
                score: Some("default".to_string()),
                ..spec.clone()
            },
            &gds,
        )
        .expect("context");
        let rescored = JobContext::build(
            &JobSpec {
                score: Some("pass 0.9\nmetric drc.violations weight 1 scorer step 0\n".into()),
                ..spec.clone()
            },
            &gds,
        )
        .expect("context");
        for tile in 0..ctx.tile_count() {
            assert_eq!(ctx.cache_key(tile), scored.cache_key(tile));
            assert_eq!(ctx.cache_key(tile), rescored.cache_key(tile));
        }
        // And the scored context actually carries layout metrics.
        assert!(ctx.layout_metrics.is_empty());
        assert!(!scored.layout_metrics.is_empty());
        assert!(scored.score_spec.is_some());
    }

    #[test]
    fn corrupt_gds_is_a_diagnostic_not_a_panic() {
        let err = match JobContext::build(&spec(), b"not gds at all") {
            Ok(_) => panic!("corrupt GDS must not build a context"),
            Err(e) => e,
        };
        assert!(err.contains("layout rejected"), "{err}");
    }

    /// The per-rule oracle: every consumer's one-shot form on its own
    /// view, composed the way `compute_tile` composed them before views
    /// were shared.
    fn per_rule_partial(ctx: &JobContext, tile: usize) -> TilePartial {
        let drc: Vec<RulePartial> = ctx
            .deck
            .rules()
            .iter()
            .map(|rule| dfm_drc::rule_tile_partial(rule, &ctx.layout, tile))
            .collect();
        let ca = ctx.spec.ca_layer.map(|layer| {
            dfm_yield::critical_area::ca_tile_partial(&ctx.layout, layer, ctx.spec.ca_range(), tile)
        });
        let litho = ctx.spec.litho_layer.map(|layer| {
            ctx.sim
                .printed_tile_piece(&ctx.layout, layer, ctx.cond, tile)
        });
        let mut rects_peak = drc.iter().map(RulePartial::rect_count).max().unwrap_or(0);
        if let Some(ca) = &ca {
            rects_peak = rects_peak.max(ca.rects);
        }
        TilePartial {
            tile,
            drc,
            ca,
            litho,
            rects_peak,
        }
    }

    fn assert_matches_oracle(ctx: &JobContext, case: &str) {
        use crate::checkpoint::encode_tile_partial;
        for tile in 0..ctx.tile_count() {
            let prepared = ctx.compute_tile(tile);
            let oracle = per_rule_partial(ctx, tile);
            assert_eq!(prepared, oracle, "{case}: tile {tile}");
            assert_eq!(
                encode_tile_partial(&prepared),
                encode_tile_partial(&oracle),
                "{case}: tile {tile} bytes"
            );
        }
    }

    fn block_gds(side: i64, seed: u64) -> Vec<u8> {
        let params = generate::RoutedBlockParams {
            width: side,
            height: side,
            ..Default::default()
        };
        gds::to_bytes(&generate::routed_block(&Technology::n65(), params, seed)).expect("serialise")
    }

    #[test]
    fn prepared_tiles_equal_the_per_rule_oracle() {
        // The default spec: deck and CA share one 512 nm window.
        let default = JobSpec {
            tile: 4096,
            ..JobSpec::default()
        };
        let ctx = JobContext::build(&default, &block_gds(12_000, 11)).expect("context");
        assert_eq!(ctx.views.len(), 1, "default spec: one view per tile");
        assert_matches_oracle(&ctx, "default spec");
        // Tiling halo 64: the rules, CA and litho read at different
        // windows, so several views are built per tile.
        let ctx = JobContext::build(&spec(), &small_gds()).expect("context");
        assert!(ctx.views.len() > 2, "{} views", ctx.views.len());
        assert_matches_oracle(&ctx, "tile 1700 / halo 64, litho on");
        // Litho on under the default halo.
        let litho = JobSpec {
            litho_layer: Some(dfm_layout::layers::METAL1),
            ..default.clone()
        };
        let ctx = JobContext::build(&litho, &block_gds(8_000, 5)).expect("context");
        assert_eq!(
            ctx.views.len(),
            1,
            "litho's window floors to the tiling halo too"
        );
        assert_matches_oracle(&ctx, "litho, halo 512");
        // The hierarchical SRAM array the sharded workload submits.
        let sram = generate::sram_array(&Technology::n65(), 12, 12);
        let sram = gds::to_bytes(&sram).expect("serialise");
        let ctx = JobContext::build(
            &JobSpec {
                tile: 2048,
                ..default
            },
            &sram,
        )
        .expect("context");
        assert_matches_oracle(&ctx, "sram 12x12");
    }

    #[test]
    fn a_parsed_deck_with_certified_rules_matches_the_oracle_and_refuses() {
        let mut ctx = JobContext::build(&spec(), &small_gds()).expect("context");
        ctx.deck = RuleDeck::parse(
            "min_width METAL1 90\n\
             min_space METAL1 120\n\
             min_area METAL1 32400\n\
             space_to METAL1 METAL2 60\n\
             wide_space METAL1 270 135\n\
             enclosure METAL1 METAL2 60\n\
             density METAL1 2000 0.2 0.8\n",
        )
        .expect("deck");
        let tiling_halo = ctx.layout.config().halo();
        ctx.views = plan_views(&ctx.spec, &ctx.deck, &ctx.sim, ctx.cond, tiling_halo);
        assert_matches_oracle(&ctx, "parsed deck");
        let partials: Vec<TilePartial> =
            (0..ctx.tile_count()).map(|t| ctx.compute_tile(t)).collect();
        let refused = partials.iter().any(|p| {
            p.drc.iter().any(|r| {
                matches!(
                    r,
                    RulePartial::Certified {
                        refused: Some(_),
                        ..
                    }
                )
            })
        });
        assert!(
            refused,
            "a long METAL1 wire cannot be certified enclosed at this tile size"
        );
        let err = ctx.merge(&partials).expect_err("refusal reaches the merge");
        assert!(err.contains("cannot certify"), "{err}");
    }

    #[test]
    fn tile_partials_encode_identically_on_every_computation() {
        // Components that share a bbox low corner used to come out of
        // `connected_components` in hash order, so min-area pieces and
        // certified-rule violations changed order between calls.
        use crate::checkpoint::encode_tile_partial;
        let spec = JobSpec {
            tile: 4096,
            ..JobSpec::default()
        };
        let ctx = JobContext::build(&spec, &block_gds(40_000, 11)).expect("context");
        assert_eq!(ctx.tile_count(), 100);
        for tile in 0..ctx.tile_count() {
            let first = encode_tile_partial(&ctx.compute_tile(tile));
            assert_eq!(
                encode_tile_partial(&ctx.compute_tile(tile)),
                first,
                "tile {tile}"
            );
        }
    }

    #[test]
    fn memoised_cache_keys_equal_a_fresh_contexts() {
        let gds = small_gds();
        let ctx = JobContext::build(&spec(), &gds).expect("context");
        let keys: Vec<dfm_cache::CacheKey> =
            (0..ctx.tile_count()).map(|t| ctx.cache_key(t)).collect();
        for (tile, key) in keys.iter().enumerate() {
            // The second call reads the memo; a fresh context digests anew.
            assert_eq!(&ctx.cache_key(tile), key);
            let fresh = JobContext::build(&spec(), &gds).expect("context");
            assert_eq!(&fresh.cache_key(tile), key, "tile {tile}");
            assert_eq!(
                key.tile,
                ctx.layout.tile_content_digest(tile, ctx.content_halo())
            );
        }
    }
}
