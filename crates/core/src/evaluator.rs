//! The hit-or-hype evaluator (experiment E8).

use crate::DfmTechnique;
use dfm_layout::{layers, FlatLayout, Technology};
use dfm_yield::{critical_area, model, via_model, DefectModel};
use std::fmt;
use std::time::Instant;

/// Everything the evaluator needs to price a technique.
#[derive(Clone, Debug)]
pub struct EvaluationContext {
    /// Ground rules.
    pub tech: Technology,
    /// Random-defect model.
    pub defects: DefectModel,
    /// Per-cut via failure probability.
    pub via_fail_prob: f64,
    /// Negative-binomial clustering parameter (`None` = Poisson).
    pub cluster_alpha: Option<f64>,
    /// Distance below which via cuts count as redundant partners.
    pub via_pair_distance: i64,
}

impl EvaluationContext {
    /// Starts a builder seeded with the defaults for a technology (see
    /// [`EvaluationContextBuilder`]).
    pub fn builder(tech: Technology) -> EvaluationContextBuilder {
        EvaluationContextBuilder::new(tech)
    }

    /// Defaults for a technology: defects at half the minimum width with
    /// a production-like density, 0.1 ppm via failures, Poisson yield.
    /// Equivalent to `EvaluationContext::builder(tech).build()`.
    pub fn for_technology(tech: Technology) -> Self {
        EvaluationContextBuilder::new(tech).build()
    }

    /// Predicted functional yield of a layout: metal critical-area yield
    /// (shorts + opens on M1/M2) times via-connection yield.
    pub fn predicted_yield(&self, layout: &FlatLayout) -> YieldBreakdown {
        let empty = dfm_geom::Region::new();
        let region = |layer| layout.region_ref(layer).unwrap_or(&empty);
        let mut metal_ca = 0.0;
        // Fill shapes count for shorts against functional metal, so
        // include the fill datatype in the short analysis.
        for (metal, fill) in [
            (layers::METAL1, layers::FILL_M1),
            (layers::METAL2, layers::FILL_M2),
        ] {
            let combined = region(metal).union(region(fill));
            let ca = critical_area::analyze(&combined, &self.defects);
            metal_ca += ca.total_ca_nm2();
        }
        let metal_yield = match self.cluster_alpha {
            None => model::poisson_yield(metal_ca, self.defects.d0_per_cm2),
            Some(alpha) => model::negative_binomial_yield(metal_ca, self.defects.d0_per_cm2, alpha),
        };
        let stats = via_model::classify(region(layers::VIA1), self.via_pair_distance);
        let via_yield = via_model::via_yield(stats, self.via_fail_prob);
        YieldBreakdown {
            metal_ca_nm2: metal_ca,
            metal_yield,
            via_stats: stats,
            via_yield,
        }
    }
}

/// Builder for [`EvaluationContext`]: starts from the technology
/// defaults and overrides piecemeal.
///
/// ```
/// use dfm_core::EvaluationContext;
/// use dfm_layout::Technology;
/// let ctx = EvaluationContext::builder(Technology::n65())
///     .via_fail_prob(1e-5)
///     .cluster_alpha(2.0)
///     .build();
/// assert_eq!(ctx.cluster_alpha, Some(2.0));
/// ```
#[derive(Clone, Debug)]
pub struct EvaluationContextBuilder {
    ctx: EvaluationContext,
}

impl EvaluationContextBuilder {
    fn new(tech: Technology) -> Self {
        let x0 = tech.rules(layers::METAL1).min_width / 2;
        EvaluationContextBuilder {
            ctx: EvaluationContext {
                via_pair_distance: tech.via_space * 2,
                tech,
                defects: DefectModel::new(x0, 2000.0),
                via_fail_prob: 1e-7,
                cluster_alpha: None,
            },
        }
    }

    /// Replaces the random-defect model.
    pub fn defects(mut self, defects: DefectModel) -> Self {
        self.ctx.defects = defects;
        self
    }

    /// Sets the per-cut via failure probability.
    pub fn via_fail_prob(mut self, p: f64) -> Self {
        self.ctx.via_fail_prob = p;
        self
    }

    /// Switches the metal yield model to negative-binomial clustering.
    pub fn cluster_alpha(mut self, alpha: f64) -> Self {
        self.ctx.cluster_alpha = Some(alpha);
        self
    }

    /// Sets the distance below which via cuts count as redundant
    /// partners.
    pub fn via_pair_distance(mut self, d: i64) -> Self {
        self.ctx.via_pair_distance = d;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> EvaluationContext {
        self.ctx
    }
}

/// The components of a yield prediction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct YieldBreakdown {
    /// Total metal critical area, nm².
    pub metal_ca_nm2: f64,
    /// Metal random-defect yield.
    pub metal_yield: f64,
    /// Via redundancy census.
    pub via_stats: via_model::ViaStats,
    /// Via-connection yield.
    pub via_yield: f64,
}

impl YieldBreakdown {
    /// Combined yield.
    pub fn total(&self) -> f64 {
        self.metal_yield * self.via_yield
    }
}

/// The panel's answer for one technique.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitOrHype {
    /// Measurable yield gain at acceptable cost.
    Hit,
    /// Real but small benefit, or benefit with a heavy price.
    Marginal,
    /// No measurable benefit.
    Hype,
}

impl fmt::Display for HitOrHype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HitOrHype::Hit => write!(f, "HIT"),
            HitOrHype::Marginal => write!(f, "MARGINAL"),
            HitOrHype::Hype => write!(f, "HYPE"),
        }
    }
}

/// The full evaluation record of one technique on one design.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Technique name.
    pub technique: String,
    /// Yield before.
    pub yield_before: f64,
    /// Yield after.
    pub yield_after: f64,
    /// Drawn area before (all layers), nm².
    pub area_before: i128,
    /// Drawn area after, nm².
    pub area_after: i128,
    /// Shape count before (mask-complexity proxy).
    pub shapes_before: usize,
    /// Shape count after.
    pub shapes_after: usize,
    /// Edits the technique reported.
    pub edits: usize,
    /// Wall-clock runtime of the technique, milliseconds.
    pub runtime_ms: f64,
    /// Technique notes.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Absolute yield gain in percentage points.
    pub fn yield_gain_pp(&self) -> f64 {
        (self.yield_after - self.yield_before) * 100.0
    }

    /// Area cost in percent.
    pub fn area_cost_percent(&self) -> f64 {
        if self.area_before == 0 {
            return 0.0;
        }
        (self.area_after - self.area_before) as f64 / self.area_before as f64 * 100.0
    }

    /// Return on investment: yield points gained per percent of area
    /// added (∞-safe: area-free gains return the plain gain × 10).
    pub fn roi(&self) -> f64 {
        let gain = self.yield_gain_pp();
        let cost = self.area_cost_percent();
        if cost.abs() < 1e-6 {
            gain * 10.0
        } else {
            gain / cost
        }
    }

    /// The panel verdict: a **hit** needs ≥ 0.1 yield points at positive
    /// ROI; ≥ 0.01 points is **marginal**; anything less is **hype**.
    pub fn hit_or_hype(&self) -> HitOrHype {
        let gain = self.yield_gain_pp();
        if gain >= 0.1 && self.roi() > 0.0 {
            HitOrHype::Hit
        } else if gain >= 0.01 {
            HitOrHype::Marginal
        } else {
            HitOrHype::Hype
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} yield {:.4} -> {:.4} (+{:.3}pp)  area {:+.2}%  edits {:<6} {:>8.1} ms  {}",
            self.technique,
            self.yield_before,
            self.yield_after,
            self.yield_gain_pp(),
            self.area_cost_percent(),
            self.edits,
            self.runtime_ms,
            self.hit_or_hype()
        )
    }
}

fn total_area(flat: &FlatLayout) -> i128 {
    flat.total_area()
}

fn total_shapes(flat: &FlatLayout) -> usize {
    flat.rect_count()
}

/// Applies `technique` to `flat` and measures benefit and cost.
pub fn evaluate(
    technique: &dyn DfmTechnique,
    flat: &FlatLayout,
    ctx: &EvaluationContext,
) -> Verdict {
    let before = ctx.predicted_yield(flat);
    let start = Instant::now();
    let applied = technique.apply(flat, &ctx.tech);
    let runtime_ms = start.elapsed().as_secs_f64() * 1e3;
    let after = ctx.predicted_yield(&applied.layout);
    Verdict {
        technique: technique.name().to_string(),
        yield_before: before.total(),
        yield_after: after.total(),
        area_before: total_area(flat),
        area_after: total_area(&applied.layout),
        shapes_before: total_shapes(flat),
        shapes_after: total_shapes(&applied.layout),
        edits: applied.edits,
        runtime_ms,
        notes: applied.notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RedundantViaInsertion, WireWidening};
    use dfm_layout::generate;

    fn setup() -> (EvaluationContext, FlatLayout) {
        let tech = Technology::n65();
        let lib = generate::routed_block(&tech, generate::RoutedBlockParams::default(), 31);
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let mut ctx = EvaluationContext::for_technology(tech);
        // A harsher environment so yield deltas are visible on a small
        // test block.
        ctx.defects = DefectModel::new(ctx.defects.x0, 50_000.0);
        ctx.via_fail_prob = 1e-4;
        (ctx, flat)
    }

    #[test]
    fn yield_breakdown_is_sane() {
        let (ctx, flat) = setup();
        let y = ctx.predicted_yield(&flat);
        assert!(y.total() > 0.0 && y.total() < 1.0);
        assert!(y.metal_ca_nm2 > 0.0);
        assert!(y.via_stats.connections() > 0);
    }

    #[test]
    fn builder_matches_for_technology_and_overrides() {
        let tech = Technology::n65();
        let a = EvaluationContext::for_technology(tech.clone());
        let b = EvaluationContext::builder(tech.clone()).build();
        assert_eq!(a.defects, b.defects);
        assert_eq!(a.via_fail_prob, b.via_fail_prob);
        assert_eq!(a.cluster_alpha, b.cluster_alpha);
        assert_eq!(a.via_pair_distance, b.via_pair_distance);
        let c = EvaluationContext::builder(tech)
            .defects(DefectModel::new(40, 9000.0))
            .via_fail_prob(1e-5)
            .cluster_alpha(2.0)
            .via_pair_distance(77)
            .build();
        assert_eq!(c.defects, DefectModel::new(40, 9000.0));
        assert_eq!(c.via_fail_prob, 1e-5);
        assert_eq!(c.cluster_alpha, Some(2.0));
        assert_eq!(c.via_pair_distance, 77);
    }

    #[test]
    fn redundant_via_is_a_hit_at_high_fail_rates() {
        let (ctx, flat) = setup();
        let rvi = RedundantViaInsertion::for_technology(&ctx.tech);
        let verdict = evaluate(&rvi, &flat, &ctx);
        assert!(verdict.yield_after > verdict.yield_before, "{verdict}");
        assert!(verdict.edits > 0);
        assert_ne!(verdict.hit_or_hype(), HitOrHype::Hype);
    }

    #[test]
    fn widening_trades_area_for_yield() {
        let (ctx, flat) = setup();
        let w = WireWidening::from_context(&ctx);
        let verdict = evaluate(&w, &flat, &ctx);
        assert!(verdict.area_after > verdict.area_before);
        // Open CA falls; short CA may rise a little — net must not be
        // catastrophic.
        assert!(
            verdict.yield_after > verdict.yield_before - 0.05,
            "{verdict}"
        );
    }

    #[test]
    fn verdict_arithmetic() {
        let v = Verdict {
            technique: "x".into(),
            yield_before: 0.90,
            yield_after: 0.95,
            area_before: 100,
            area_after: 102,
            shapes_before: 10,
            shapes_after: 12,
            edits: 5,
            runtime_ms: 1.0,
            notes: vec![],
        };
        assert!((v.yield_gain_pp() - 5.0).abs() < 1e-9);
        assert!((v.area_cost_percent() - 2.0).abs() < 1e-9);
        assert!((v.roi() - 2.5).abs() < 1e-9);
        assert_eq!(v.hit_or_hype(), HitOrHype::Hit);

        let hype = Verdict {
            yield_after: 0.90,
            ..v.clone()
        };
        assert_eq!(hype.hit_or_hype(), HitOrHype::Hype);
    }

    #[test]
    fn verdict_display_contains_verdict() {
        let (ctx, flat) = setup();
        let rvi = RedundantViaInsertion::for_technology(&ctx.tech);
        let verdict = evaluate(&rvi, &flat, &ctx);
        let text = verdict.to_string();
        assert!(text.contains("redundant-via"));
        assert!(text.contains("yield"));
    }
}
