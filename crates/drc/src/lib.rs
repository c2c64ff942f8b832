//! # dfm-drc — design-rule checking for the `dfm-practice` workspace
//!
//! An edge- and morphology-based DRC engine over the flattened layouts of
//! [`dfm_layout`]:
//!
//! * [`Rule`] — the rule vocabulary: minimum width, spacing (same-layer,
//!   including notches and corner-to-corner), inter-layer spacing,
//!   enclosure, minimum area, and windowed density,
//! * [`RuleDeck`] — an ordered rule collection, buildable programmatically,
//!   from a [`Technology`](dfm_layout::Technology) preset, or parsed from
//!   the tiny deck DSL ([`RuleDeck::parse`]),
//! * [`DrcEngine`] — runs a deck against a [`FlatLayout`](dfm_layout::FlatLayout)
//!   producing a [`DrcReport`] of located [`Violation`]s,
//! * [`tiled`] — the per-tile half of every rule ([`rule_view_partial`]
//!   on a [`PreparedView`] shared by every rule with the same window, or
//!   the one-shot [`rule_tile_partial`]) and its in-order merge
//!   ([`merge_rule_partials`]), bit-identical to the flat engine; the
//!   signoff service runs the tiles,
//! * [`recommended`] — *recommended* (soft) rules with compliance scoring,
//!   the substrate for experiment E10 (do recommended rules correlate
//!   with yield?).
//!
//! Width and same-layer spacing use the classic facing-edge-pair
//! formulation on extracted boundary edges; enclosure and inter-layer
//! spacing use exact morphological set algebra; area uses connected
//! components; density uses stepped windows.
//!
//! ```
//! use dfm_drc::{DrcEngine, RuleDeck};
//! use dfm_layout::{layers, Technology, Cell, Library};
//! use dfm_geom::Rect;
//!
//! let tech = Technology::n65();
//! let mut lib = Library::new("t");
//! let mut c = Cell::new("TOP");
//! c.add_rect(layers::METAL1, Rect::new(0, 0, 50, 50)); // 50 < min width 90
//! let id = lib.add_cell(c)?;
//! let flat = lib.flatten(id)?;
//! let deck = RuleDeck::for_technology(&tech);
//! let report = DrcEngine::new(&deck).run(&flat);
//! assert!(report.violation_count() > 0);
//! # Ok::<(), dfm_layout::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod recommended;
mod rule;
pub mod tiled;
mod violation;

pub use check::{
    check_rule, density_map, density_ppm, density_windows, enclosure_violations, facing_pairs,
    min_space_to_violations, spacing_violations, wide_space_violations, width_violations,
    DrcEngine, FacingPair, PairFragment,
};
pub use rule::{ParseDeckError, Rule, RuleDeck};
pub use tiled::{
    merge_facing_pair_partials, merge_rule_partials, rule_layers, rule_sweeps, rule_tile_halo,
    rule_tile_partial, rule_view_partial, AreaPiece, PreparedView, RulePartial, Sweep,
    TiledDrcError,
};
pub use violation::{DrcReport, Violation};
