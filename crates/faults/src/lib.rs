//! # vulnman-faults
//!
//! Deterministic, seeded fault injection for the vulnerability-management
//! pipeline — the substrate of its graceful-degradation guarantees.
//!
//! Industrial vulnerability management keeps shipping verdicts even when
//! individual components are unreliable: partial rule suites, flaky
//! analyzers, and capacity limits are the norm (Gap Observations 1 and 4 of
//! the source paper). This crate supplies the machinery to *prove* that
//! property instead of hoping for it:
//!
//! * [`FaultPlan`] — a pure, seeded function from `(site, key, attempt)` to
//!   an optional [`FaultKind`]. No clocks, no global state, no call-order
//!   dependence: the same plan degrades a run identically on one worker or
//!   eight. Decisions are monotone in the rate (raising the rate only adds
//!   faults, never moves or re-kinds existing ones), so "degradation grows
//!   with the fault rate" is a testable property.
//! * [`FaultInjector`] — bounded retry with deterministic exponential
//!   [`Backoff`] on a **virtual clock** (delays are charged to an observer,
//!   never slept), per-attempt fault consultation, and the [`FaultError`]
//!   taxonomy callers degrade on.
//! * [`Site`] — the named injection sites: detector calls, cache get/put,
//!   shard workers, ML predictions, semantic checker calls, serve requests
//!   and clone-index decisions.
//! * [`FaultObserver`] — the bridge to a metrics registry, kept as a trait
//!   so this crate stays dependency-free.
//!
//! ```
//! use vulnman_faults::{FaultConfig, FaultInjector, Site};
//!
//! let cfg = FaultConfig { seed: 7, rate: 0.2, ..Default::default() };
//! let injector = FaultInjector::new(&cfg);
//! match injector.run(Site::DetectorCall, 42, || "scanned") {
//!     Ok(done) => assert_eq!(done.value, "scanned"),
//!     Err(e) => println!("degrade: {e}"),
//! }
//! ```

#![warn(missing_docs)]

mod plan;
mod retry;

pub use plan::{site_key, FaultConfig, FaultKind, FaultMix, FaultPlan, Site};
pub use retry::{
    Attempted, Backoff, FaultError, FaultInjector, FaultObserver, FaultTally, NoopObserver,
};
