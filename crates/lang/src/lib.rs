//! # vulnman-lang
//!
//! Program-analysis substrate for the `vulnman` workspace: a mini-C dialect
//! with a lexer, parser, pretty-printer, control-flow graphs, abstract
//! interpretation, and an interprocedural taint engine.
//!
//! The dialect is intentionally small (functions, `int`/`char`/pointers/
//! arrays, structured control flow) but expressive enough to encode every
//! vulnerability pattern exercised by the corpus generator in
//! `vulnman-synth`, and analyzable enough to support the rule-based
//! detectors and expert ML features the paper's gap studies require.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), vulnman_lang::error::ParseError> {
//! use vulnman_lang::{parser::parse, taint::{TaintAnalysis, TaintConfig}};
//!
//! let program = parse(r#"
//!     void handler() {
//!         char* id = http_param("user_id");
//!         exec_query(id); // SQL injection
//!     }
//! "#)?;
//!
//! let taint = TaintAnalysis::run(&program, &TaintConfig::default_config());
//! assert_eq!(taint.findings.len(), 1);
//! assert_eq!(taint.findings[0].sink_kind, "sql");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod absint;
pub mod ast;
pub mod cache;
pub mod cfg;
pub mod clone;
pub mod error;
pub mod incremental;
pub mod intern;
pub mod interp;
pub mod lexer;
pub mod metrics;
pub mod par;
pub mod parser;
pub mod printer;
pub mod span;
pub mod taint;
pub mod token;

pub use ast::{Expr, Function, Program, Stmt, Type};
pub use cache::{AnalysisCache, CacheFaultHook, CacheOp, CacheStats, Stage, STAGE_TABLE_FANOUT};
pub use clone::{CloneConfig, CloneIndex, MinHasher, TokenAlignment, UnionFind};
pub use error::{ParseError, ParseResult};
pub use incremental::{fingerprint_function, IncrementalTrace};
pub use intern::{Interner, Symbol};
pub use parser::parse;
pub use printer::print_program;
pub use span::Span;
