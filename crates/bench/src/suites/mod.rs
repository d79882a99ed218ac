//! The suites `bench <suite>` runs. Each keeps only its corpus, its
//! configs and its gates; everything else is [`crate::harness`].

use crate::harness::Suite;

pub mod components;
pub mod graph;
pub mod lsh;
pub mod pipeline;
pub mod serve;

/// Every suite, in command-line order.
pub const ALL: &[Suite] =
    &[pipeline::SUITE, serve::SUITE, lsh::SUITE, graph::SUITE, components::SUITE];
