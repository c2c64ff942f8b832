//! Error type for the layout database and GDSII codec.

use std::error::Error;
use std::fmt;

/// Errors produced by the layout database and GDSII reader/writer.
#[derive(Debug)]
pub enum LayoutError {
    /// A cell name was added twice to one library.
    DuplicateCell(String),
    /// A cell id or name does not exist in the library.
    UnknownCell(String),
    /// The reference graph contains a cycle through the named cell.
    RecursiveHierarchy(String),
    /// The GDSII byte stream is malformed.
    GdsParse {
        /// Byte offset of the offending record.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// A GDSII construct that the workspace does not model (e.g. non-
    /// Manhattan angles).
    GdsUnsupported(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A tiling configuration is unusable (non-positive tile size or
    /// negative halo).
    InvalidTiling(String),
    /// An operation needed a top cell but none is set and none can be
    /// inferred.
    NoTopCell,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::DuplicateCell(name) => write!(f, "duplicate cell name {name:?}"),
            LayoutError::UnknownCell(name) => write!(f, "unknown cell {name:?}"),
            LayoutError::RecursiveHierarchy(name) => {
                write!(f, "recursive hierarchy through cell {name:?}")
            }
            LayoutError::GdsParse { offset, message } => {
                write!(f, "malformed GDSII at byte {offset}: {message}")
            }
            LayoutError::GdsUnsupported(what) => write!(f, "unsupported GDSII construct: {what}"),
            LayoutError::Io(e) => write!(f, "i/o error: {e}"),
            LayoutError::InvalidTiling(why) => write!(f, "invalid tiling: {why}"),
            LayoutError::NoTopCell => write!(f, "no top cell set or inferable"),
        }
    }
}

impl Error for LayoutError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LayoutError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LayoutError {
    fn from(e: std::io::Error) -> Self {
        LayoutError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = LayoutError::DuplicateCell("TOP".into());
        assert_eq!(e.to_string(), "duplicate cell name \"TOP\"");
        let e = LayoutError::GdsParse {
            offset: 12,
            message: "truncated record".into(),
        };
        assert!(e.to_string().contains("byte 12"));
    }
}
