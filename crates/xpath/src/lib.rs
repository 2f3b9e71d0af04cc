//! # vamana-xpath
//!
//! An XPath 1.0 front end: [`lexer`], [`ast`], and a recursive-descent
//! [`parser`] covering the full location-path language the paper's engine
//! supports — all 13 axes (explicit and abbreviated syntax), name and
//! kind node tests, nested predicates with value / range / position
//! conditions, unions, arithmetic, and the core function library.
//!
//! The output is a pure syntax tree ([`ast::Expr`]); compilation into the
//! VAMANA physical algebra happens in `vamana-core`.
//!
//! ```
//! use vamana_xpath::parse;
//!
//! let expr = parse("//name[text() = 'Yung Flach']/following-sibling::emailaddress").unwrap();
//! println!("{expr}");
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;

pub use ast::{ArithOp, EqOp, Expr, LocationPath, NodeTest, RelOp, Step};
pub use error::{ParseError, ParseErrorKind};
pub use parser::{parse, MAX_NESTING};
