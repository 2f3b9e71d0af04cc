//! XPath parse errors.

use std::fmt;

/// What a [`ParseError`] rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The text is not a well-formed expression.
    Syntax,
    /// The expression nests deeper than [`crate::parser::MAX_NESTING`].
    TooDeep,
}

/// A lexing or parsing failure with its character position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What was rejected.
    pub kind: ParseErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the expression text.
    pub offset: usize,
}

impl ParseError {
    /// Creates a syntax error at `offset`.
    pub fn new(message: impl Into<String>, offset: usize) -> Self {
        ParseError {
            kind: ParseErrorKind::Syntax,
            message: message.into(),
            offset,
        }
    }

    /// The nesting limit was broken at `offset`.
    pub fn too_deep(offset: usize) -> Self {
        ParseError {
            kind: ParseErrorKind::TooDeep,
            message: format!(
                "expression nests deeper than {} levels",
                crate::parser::MAX_NESTING
            ),
            offset,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XPath parse error at offset {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset_and_message() {
        let e = ParseError::new("unexpected token", 7);
        let s = e.to_string();
        assert!(s.contains("offset 7"));
        assert!(s.contains("unexpected token"));
    }
}
