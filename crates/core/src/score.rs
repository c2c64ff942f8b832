//! The composite DFM scorecard.
//!
//! The companion 2012 publication proposed scoring layouts on a 0–1
//! manufacturability scale so design teams can compare variants without
//! reading raw violation lists (the "0.66 → 0.78" improvement motif).
//! This module aggregates the workspace's analyses into one card:
//! hard-rule cleanliness, recommended-rule compliance, density
//! uniformity, critical-area yield, and via redundancy.

use crate::EvaluationContext;
use dfm_drc::{recommended::RecommendedDeck, DrcEngine, RuleDeck};
use dfm_layout::{layers, FlatLayout};
use dfm_yield::{critical_area, model, via_model};
use std::fmt;

/// Component scores, each in `[0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DfmScorecard {
    /// Hard-rule cleanliness: `1/(1 + violations)`.
    pub drc_cleanliness: f64,
    /// Recommended-rule compliance (weighted mean over the deck).
    pub recommended_compliance: f64,
    /// Density uniformity: `1 − mean(max − min window density)` over the
    /// metal layers.
    pub density_uniformity: f64,
    /// Random-defect robustness: the predicted metal yield under the
    /// context's defect model.
    pub defect_robustness: f64,
    /// Fraction of via connections with redundancy.
    pub via_redundancy: f64,
}

impl DfmScorecard {
    /// The weighted composite (cleanliness 0.3, compliance 0.2,
    /// uniformity 0.1, robustness 0.3, redundancy 0.1).
    pub fn composite(&self) -> f64 {
        0.30 * self.drc_cleanliness
            + 0.20 * self.recommended_compliance
            + 0.10 * self.density_uniformity
            + 0.30 * self.defect_robustness
            + 0.10 * self.via_redundancy
    }
}

impl fmt::Display for DfmScorecard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DFM scorecard: {:.3}", self.composite())?;
        writeln!(f, "  hard-rule cleanliness   {:.3}", self.drc_cleanliness)?;
        writeln!(
            f,
            "  recommended compliance  {:.3}",
            self.recommended_compliance
        )?;
        writeln!(
            f,
            "  density uniformity      {:.3}",
            self.density_uniformity
        )?;
        writeln!(f, "  defect robustness       {:.3}", self.defect_robustness)?;
        write!(f, "  via redundancy          {:.3}", self.via_redundancy)
    }
}

/// Scores a layout under the evaluation context.
pub fn scorecard(flat: &FlatLayout, ctx: &EvaluationContext) -> DfmScorecard {
    let tech = &ctx.tech;

    // Hard rules (density windows excluded here — scored separately).
    let deck: RuleDeck = RuleDeck::for_technology(tech)
        .rules()
        .iter()
        .filter(|r| !matches!(r, dfm_drc::Rule::Density { .. }))
        .cloned()
        .collect();
    let violations = DrcEngine::new(&deck).run(flat).violation_count();
    let drc_cleanliness = 1.0 / (1.0 + violations as f64);

    let recommended_compliance = RecommendedDeck::for_technology(tech)
        .compliance(flat)
        .composite();

    // Density uniformity over the metal layers (fill counts).
    let mut spread_sum = 0.0;
    let mut spread_n = 0usize;
    for (metal, fill) in [
        (layers::METAL1, layers::FILL_M1),
        (layers::METAL2, layers::FILL_M2),
    ] {
        if flat.region(metal).is_empty() {
            continue;
        }
        let (min, max) = crate::fill_density_extremes(flat, metal, fill, tech.density_window);
        spread_sum += (max - min).clamp(0.0, 1.0);
        spread_n += 1;
    }
    let density_uniformity = if spread_n == 0 {
        1.0
    } else {
        1.0 - spread_sum / spread_n as f64
    };

    // Defect robustness: metal CA yield under the context's model.
    let mut ca = 0.0;
    for metal in [layers::METAL1, layers::METAL2] {
        ca += critical_area::analyze(&flat.region(metal), &ctx.defects).total_ca_nm2();
    }
    let defect_robustness = model::poisson_yield(ca, ctx.defects.d0_per_cm2);

    let stats = via_model::classify(&flat.region(layers::VIA1), ctx.via_pair_distance);
    let via_redundancy = stats.redundancy_rate();

    DfmScorecard {
        drc_cleanliness,
        recommended_compliance,
        density_uniformity,
        defect_robustness,
        via_redundancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfmTechnique, RedundantViaInsertion, WireWidening};
    use dfm_layout::{generate, Technology};
    use dfm_yield::DefectModel;

    fn setup() -> (EvaluationContext, FlatLayout) {
        let tech = Technology::n65();
        let lib = generate::routed_block(
            &tech,
            generate::RoutedBlockParams {
                width: 15_000,
                height: 15_000,
                ..Default::default()
            },
            61,
        );
        let flat = lib.flatten(lib.top().expect("top")).expect("flatten");
        let mut ctx = EvaluationContext::for_technology(tech);
        ctx.defects = DefectModel::new(ctx.defects.x0, 50_000.0);
        (ctx, flat)
    }

    #[test]
    fn scores_are_in_range() {
        let (ctx, flat) = setup();
        let card = scorecard(&flat, &ctx);
        for s in [
            card.drc_cleanliness,
            card.recommended_compliance,
            card.density_uniformity,
            card.defect_robustness,
            card.via_redundancy,
            card.composite(),
        ] {
            assert!((0.0..=1.0).contains(&s), "{card}");
        }
        // The generated block is hard-rule clean.
        assert_eq!(card.drc_cleanliness, 1.0);
    }

    #[test]
    fn dfm_techniques_raise_the_composite() {
        let (ctx, flat) = setup();
        let before = scorecard(&flat, &ctx);
        let improved = WireWidening::from_context(&ctx)
            .apply(
                &RedundantViaInsertion::for_technology(&ctx.tech)
                    .apply(&flat, &ctx.tech)
                    .layout,
                &ctx.tech,
            )
            .layout;
        let after = scorecard(&improved, &ctx);
        assert!(
            after.composite() > before.composite(),
            "{:.4} -> {:.4}",
            before.composite(),
            after.composite()
        );
        assert!(after.via_redundancy > before.via_redundancy);
        assert!(after.defect_robustness >= before.defect_robustness - 0.02);
    }

    #[test]
    fn display_lists_components() {
        let (ctx, flat) = setup();
        let text = scorecard(&flat, &ctx).to_string();
        assert!(text.contains("scorecard"));
        assert!(text.contains("via redundancy"));
    }
}
