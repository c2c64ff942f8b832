//! Property-based tests for the OPC engines (dfm-check harness).

use dfm_check::{check, prop_assert, prop_assert_eq, Config, Gen};
use dfm_geom::{Rect, Region};
use dfm_opc::{apply_offsets, Fragmenter, RuleOpc, RuleOpcParams};

fn cfg() -> Config {
    Config::with_cases(48)
}

fn arb_wires() -> impl Gen<Value = Region> {
    dfm_check::vec((0i64..8, 0i64..4, 4i64..20), 1..6).prop_map(|specs| {
        Region::from_rects(specs.into_iter().map(|(start, track, len)| {
            Rect::new(
                start * 100,
                track * 300,
                start * 100 + len * 100,
                track * 300 + 90,
            )
        }))
    })
}

/// Outward-only offsets always produce a superset; inward-only a
/// subset.
#[test]
fn offset_direction_containment() {
    check(
        "offset_direction_containment",
        &cfg(),
        &(arb_wires(), 1i64..30),
        |v| {
            let (region, d) = v;
            let frags = Fragmenter::new(120).fragment(region);
            let grown = apply_offsets(region, &frags, &vec![*d; frags.len()]);
            prop_assert!(
                region.difference(&grown).is_empty(),
                "outward must contain drawn"
            );
            let shrunk = apply_offsets(region, &frags, &vec![-*d; frags.len()]);
            prop_assert!(
                shrunk.difference(region).is_empty(),
                "inward must stay inside drawn"
            );
            Ok(())
        },
    );
}

/// Fragmentation covers the boundary exactly: fragment lengths sum to
/// the region perimeter.
#[test]
fn fragments_cover_perimeter() {
    check(
        "fragments_cover_perimeter",
        &cfg(),
        &(arb_wires(), 30i64..500),
        |v| {
            let (region, max_len) = v;
            let frags = Fragmenter::new(*max_len).fragment(region);
            let total: i64 = frags.iter().map(|f| f.len()).sum();
            prop_assert_eq!(total, region.perimeter());
            prop_assert!(frags.iter().all(|f| f.len() <= *max_len));
            Ok(())
        },
    );
}

/// Rule-based OPC never merges components and never shrinks the
/// drawn geometry.
#[test]
fn rule_opc_is_safe() {
    check("rule_opc_is_safe", &cfg(), &arb_wires(), |region| {
        let opc = RuleOpc::new(RuleOpcParams::for_feature_size(90));
        let corrected = opc.correct(region);
        prop_assert!(
            region.difference(&corrected).is_empty(),
            "bias is outward-only"
        );
        prop_assert_eq!(
            corrected.connected_components().len(),
            region.connected_components().len(),
            "bias must not bridge or split"
        );
        Ok(())
    });
}

/// Rule-based OPC is deterministic and translation-equivariant.
#[test]
fn rule_opc_translation_equivariant() {
    check(
        "rule_opc_translation_equivariant",
        &cfg(),
        &(arb_wires(), -3000i64..3000),
        |v| {
            let (region, dx) = v;
            let opc = RuleOpc::new(RuleOpcParams::for_feature_size(90));
            let shift = dfm_geom::Vector::new(*dx, 0);
            let a = opc.correct(region).translated(shift);
            let b = opc.correct(&region.translated(shift));
            prop_assert_eq!(a, b);
            Ok(())
        },
    );
}
