//! # vulnman-core
//!
//! The industry AI-based vulnerability-management platform described by
//! *"Bridging the Gap: A Study of AI-based Vulnerability Management between
//! Industry and Academia"* (DSN 2024), plus one module per gap study the
//! paper develops.
//!
//! * [`workflow`] — the Figure-1 pipeline: automated detection →
//!   threat-model gating → manual review → repair (auto-fix / AI suggestion
//!   / expert) → training feedback; one sharded per-sample pass with a
//!   priority-ordered review-budget post-pass.
//! * [`detector`] — one interface over rule-based tools and ML models, with
//!   per-CWE scoping and combination policies.
//! * [`costmodel`] — the financial model Gap Observation 3 asks for
//!   (compute vs analyst hours vs breach risk; break-even analysis).
//! * [`agreement`] — multi-model agreement studies (Gap Observation 1).
//! * [`customize`] — team security standards + fine-tuning orchestration
//!   (Gap Observation 2).
//! * [`anonymize`] — privacy/utility-tunable code anonymization (Future
//!   Direction Proposal 4).
//! * [`sft`] — SFT dataset construction from workflow traces (§II-B).
//! * [`artifacts`] — research-artifact release process model (the 25.5% /
//!   54.5% / 27.3% survey, Gap Observation 2).
//! * [`repair`] — repair engines + verification harness (the SWE-bench-gap
//!   experiment, Gap Observation 3).
//! * [`training`] — security-training program simulation (§II-A/B).
//! * [`report`] — uniform text tables for the experiments.
//!
//! ## Quick start
//!
//! ```
//! use vulnman_core::detector::{DetectorRegistry, RuleBasedDetector};
//! use vulnman_core::workflow::{WorkflowConfig, WorkflowEngine};
//! use vulnman_synth::dataset::DatasetBuilder;
//!
//! let corpus = DatasetBuilder::new(1).vulnerable_count(10).build();
//! let mut registry = DetectorRegistry::new();
//! registry.register(Box::new(RuleBasedDetector::standard()));
//! let engine = WorkflowEngine::new(registry, WorkflowConfig::default());
//! let report = engine.process(corpus.samples());
//! assert!(report.detection_metrics().recall() > 0.5);
//! ```

#![warn(missing_docs)]

pub mod agreement;
pub mod anonymize;
pub mod artifacts;
pub mod costmodel;
pub mod customize;
pub mod detector;
pub mod feedback;
pub mod repair;
pub mod report;
mod resilience;
pub mod sft;
pub mod training;
pub mod triage;
pub mod workflow;

pub use costmodel::{price_deployment, CostParams, CostReport};
pub use detector::{
    audit_ml_verdict, AssessError, Assessment, CombinePolicy, Detector, DetectorRegistry,
    SemanticDetector,
};
pub use workflow::{DegradationSummary, WorkflowConfig, WorkflowEngine, WorkflowReport};
