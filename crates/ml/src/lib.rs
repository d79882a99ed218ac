//! # vulnman-ml
//!
//! From-scratch machine learning for vulnerability detection: feature
//! extraction over mini-C samples, five classifier families, evaluation
//! metrics, agreement statistics, and dataset splitting.
//!
//! The [`pipeline::model_zoo`] assembles five heterogeneous detection models
//! that stand in for the deep-learning families the paper surveys
//! (transformer / RNN / GNN / shallow / clone-similarity), per the
//! substitution policy in `DESIGN.md`: every gap-study claim concerns the
//! *relative* behaviour of heterogeneous models under controlled data
//! pathologies, which these families reproduce at laptop scale.
//!
//! ## Quick start
//!
//! ```
//! use vulnman_ml::{pipeline::model_zoo, split::stratified_split};
//! use vulnman_synth::dataset::DatasetBuilder;
//!
//! let corpus = DatasetBuilder::new(42).vulnerable_count(80).build();
//! let split = stratified_split(&corpus, 0.3, 7);
//! let mut model = model_zoo(1).remove(2); // graph-rf
//! model.train(&split.train);
//! let metrics = model.evaluate(&split.test);
//! assert!(metrics.f1() > 0.6);
//! ```

#![warn(missing_docs)]

pub mod ensemble;
pub mod eval;
pub mod features;
pub mod knn;
pub mod linear;
pub mod mlp;
pub mod model;
pub mod naive_bayes;
pub mod operating_point;
pub mod pipeline;
pub mod split;
pub mod tree;

pub use eval::{agreement, roc_auc, AgreementReport, Metrics};
pub use features::FeatureExtractor;
pub use model::Classifier;
pub use pipeline::{model_zoo, DetectionModel};
pub use split::{kfold, split_by_project, stratified_split, Split};
