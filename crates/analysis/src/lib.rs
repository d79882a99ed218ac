//! # vulnman-analysis
//!
//! The traditional, rule-based side of industry vulnerability management
//! (Figure 1 of the paper): specialized static detectors per CWE family,
//! CVSS-like severity scoring, call-graph reachability / attack-surface
//! classification, and rule-based auto-fix.
//!
//! These tools are the *baseline* the paper's AI models are compared
//! against, and also the ecosystem any adopted academic model must
//! integrate with (Gap Observation 2).
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), vulnman_lang::ParseError> {
//! use vulnman_analysis::detectors::RuleEngine;
//!
//! let engine = RuleEngine::default_suite();
//! let findings = engine.scan_source(
//!     r#"void f() { char* id = http_param("id"); exec_query(id); }"#,
//! )?;
//! assert_eq!(findings.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod autofix;
pub mod checkers;
pub mod corpusgraph;
pub mod detectors;
pub mod dynamic;
pub mod finding;
pub mod fuzz;
pub mod oracle;
pub mod reachability;
pub mod severity;
mod views;

pub use audit::{register_audit_instruments, AuditConfig, AuditEngine, AuditReport, MlVerdict};
pub use autofix::AutoFixer;
pub use checkers::{
    register_absint_instruments, AbsintBaseline, BaselineEntry, SemanticEngine, SemanticScan,
};
pub use corpusgraph::{
    register_graph_instruments, CorpusGraph, CorpusGraphReport, LinkUnit, UnitLinks, UnitRef,
};
pub use detectors::{RuleEngine, StaticDetector};
pub use dynamic::DynamicSanitizer;
pub use finding::{dedupe_findings, Confidence, Finding};
pub use oracle::{
    DifferentialOracle, Disagreement, DisagreementKind, OracleConfig, OracleReport, View,
};
pub use reachability::{CallGraph, Surface};
pub use severity::{score, ScoredFinding};
