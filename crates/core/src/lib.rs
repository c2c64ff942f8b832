//! # dfm-core — DFM techniques and the hit-or-hype evaluator
//!
//! The reproduction frame for *"DFM in practice: hit or hype?"*
//! (DAC 2008). The panel's question is operationalised as: for each DFM
//! technique, apply it to a design, measure the **benefit** (predicted
//! yield gain from the `dfm-yield` models) against the **cost** (area,
//! shape-count/mask complexity, runtime), and pronounce a verdict.
//!
//! * [`DfmTechnique`] — the common interface every technique implements,
//! * [`RedundantViaInsertion`] — doubles single vias where landing pads
//!   fit (experiment E2),
//! * [`WireWidening`] — widens wires where spacing headroom exists,
//!   cutting open-circuit critical area (experiment E1),
//! * [`WireSpreading`] — nudges via-free wires to equalise spacings,
//!   cutting short-circuit critical area (experiment E1),
//! * [`MetalFill`] — dummy fill to close density windows (experiment E9),
//! * [`PatternFixing`] — DRC-Plus-style library-driven local fixes
//!   (experiments E4/E11 use the same library machinery),
//! * [`evaluate`] / [`Verdict`] — the hit-or-hype judgement
//!   (experiment E8).
//!
//! ```
//! use dfm_core::{evaluate, EvaluationContext, WireWidening};
//! use dfm_layout::{generate, Technology};
//!
//! let tech = Technology::n65();
//! let lib = generate::routed_block(&tech, generate::RoutedBlockParams::default(), 1);
//! let flat = lib.flatten(lib.top().expect("top"))?;
//! let ctx = EvaluationContext::for_technology(tech);
//! let verdict = evaluate(&WireWidening::from_context(&ctx), &flat, &ctx);
//! assert!(verdict.yield_after >= verdict.yield_before - 1e-9);
//! # Ok::<(), dfm_layout::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evaluator;
mod fill;
mod pattern_fix;
mod redundant_via;
pub mod score;
mod technique;
mod wire_spread;
mod wire_widen;

pub use evaluator::{evaluate, EvaluationContext, HitOrHype, Verdict};
pub use fill::{density_extremes as fill_density_extremes, MetalFill};
pub use pattern_fix::{FixAction, PatternFixing};
pub use redundant_via::RedundantViaInsertion;
pub use score::{scorecard, DfmScorecard};
pub use technique::{AppliedResult, DfmTechnique};
pub use wire_spread::WireSpreading;
pub use wire_widen::WireWidening;
