//! # dfm-layout — layout database, GDSII I/O, and synthetic layout generators
//!
//! The layout substrate of the `dfm-practice` workspace. It provides:
//!
//! * [`Layer`] — GDSII layer/datatype pairs plus the workspace's standard
//!   layer assignments ([`layers`]),
//! * [`Cell`], [`CellRef`], [`Library`] — a hierarchical layout database
//!   with exact flattening through GDS-style transforms,
//! * [`FlatLayout`] — one merged region per layer, the input of every
//!   engine's flat entry point, and [`TiledLayout`] — the same layout cut
//!   into [`TileView`]s (core, halo'd window, clipped layers) for the
//!   engines' tile kernels,
//! * [`gds`] — a from-scratch reader/writer for **binary GDSII** stream
//!   format (records, excess-64 reals, `BOUNDARY`/`SREF`/`AREF`/`PATH`),
//! * [`Technology`] — ground-rule presets (65/45/28 nm-class) that drive
//!   both the generators and the DRC decks,
//! * [`generate`] — deterministic synthetic layout generators (standard-
//!   cell blocks, routed metal, via chains, SRAM-like arrays) standing in
//!   for the production designs used by the paper (see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use dfm_layout::{layers, Cell, Library};
//! use dfm_geom::Rect;
//!
//! let mut lib = Library::new("demo");
//! let mut top = Cell::new("TOP");
//! top.add_rect(layers::METAL1, Rect::new(0, 0, 1000, 100));
//! let top_id = lib.add_cell(top)?;
//! lib.set_top(top_id)?;
//! let flat = lib.flatten(top_id)?;
//! assert_eq!(flat.region(layers::METAL1).area(), 100_000);
//! # Ok::<(), dfm_layout::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod error;
pub mod gds;
pub mod generate;
mod layer;
mod library;
mod tech;
mod tile;

pub use cell::{ArrayParams, Cell, CellRef, Label, Shape};
pub use error::LayoutError;
pub use layer::{layers, Layer};
pub use library::{CellId, FlatLayout, Library};
pub use tech::Technology;
pub use tile::{DigestMemo, TileView, TiledLayout, TilingConfig, TilingConfigBuilder};
