//! Bounded retry with deterministic, virtual-clock exponential backoff.
//!
//! Nothing here sleeps or reads a wall clock: backoff delays are *charged*
//! to an observer (which typically feeds a histogram and a virtual-time
//! counter), so retry decisions are reproducible and free. The injector is
//! the single shared accounting path for every resilience loop in the
//! workspace — the workflow engine's walks over each detector's
//! `detector_call`, `checker_call` and `ml_predict` sites, and the chaos
//! tests, all run through it.

use crate::plan::{FaultConfig, FaultKind, FaultPlan, Site};

/// Deterministic exponential backoff schedule on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base_micros: u64,
    max_micros: u64,
}

impl Backoff {
    /// A schedule doubling from `base_micros` up to `max_micros`.
    pub fn new(base_micros: u64, max_micros: u64) -> Self {
        Backoff { base_micros, max_micros: max_micros.max(base_micros) }
    }

    /// The delay charged before retry number `attempt + 1`: `base <<
    /// attempt`, saturating, capped at the ceiling. Non-decreasing in
    /// `attempt` by construction.
    pub fn delay_micros(&self, attempt: u32) -> u64 {
        let shifted =
            if attempt >= 63 { u64::MAX } else { self.base_micros.saturating_mul(1u64 << attempt) };
        shifted.min(self.max_micros)
    }
}

/// Per-kind injected-fault counts. Plain data, deterministically mergeable
/// in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTally {
    /// Injected [`FaultKind::Transient`] faults.
    pub transient: u64,
    /// Injected [`FaultKind::Timeout`] faults.
    pub timeout: u64,
    /// Injected [`FaultKind::Corrupt`] faults.
    pub corrupt: u64,
    /// Injected [`FaultKind::Crash`] faults.
    pub crash: u64,
}

impl FaultTally {
    /// Counts one injected fault.
    pub fn record(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Transient => self.transient += 1,
            FaultKind::Timeout => self.timeout += 1,
            FaultKind::Corrupt => self.corrupt += 1,
            FaultKind::Crash => self.crash += 1,
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &FaultTally) {
        self.transient += other.transient;
        self.timeout += other.timeout;
        self.corrupt += other.corrupt;
        self.crash += other.crash;
    }

    /// Total injected faults across kinds.
    pub fn total(&self) -> u64 {
        self.transient + self.timeout + self.corrupt + self.crash
    }
}

/// Why a fault-injected operation did not produce a value: the error
/// taxonomy of graceful degradation. Both variants carry the faults
/// injected along the way, so callers account a failed operation exactly
/// like a recovered one ([`Attempted::faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// Every attempt in the retry budget faulted.
    Exhausted {
        /// Site of the operation.
        site: Site,
        /// Attempts consumed (always `max_retries + 1`).
        attempts: u32,
        /// Kind injected on the final attempt.
        last: FaultKind,
        /// Faults injected across the attempts.
        faults: FaultTally,
    },
    /// A [`FaultKind::Crash`] fired; retrying is pointless.
    Crashed {
        /// Site of the operation.
        site: Site,
        /// Attempt at which the crash fired.
        attempt: u32,
        /// Faults injected up to and including the crash.
        faults: FaultTally,
    },
}

impl FaultError {
    /// Site the failure happened at.
    pub fn site(&self) -> Site {
        match self {
            FaultError::Exhausted { site, .. } | FaultError::Crashed { site, .. } => *site,
        }
    }

    /// Faults injected before the operation gave up.
    pub fn faults(&self) -> FaultTally {
        match self {
            FaultError::Exhausted { faults, .. } | FaultError::Crashed { faults, .. } => *faults,
        }
    }

    /// Retries consumed before giving up: every attempt but the first.
    pub fn retries(&self) -> u32 {
        match self {
            FaultError::Exhausted { attempts, .. } => attempts - 1,
            FaultError::Crashed { attempt, .. } => *attempt,
        }
    }
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Exhausted { site, attempts, last, .. } => {
                write!(f, "{site} exhausted {attempts} attempts (last fault: {last})")
            }
            FaultError::Crashed { site, attempt, .. } => {
                write!(f, "{site} crashed at attempt {attempt}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// A successful (possibly retried) operation, with its resilience
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempted<T> {
    /// The operation's value.
    pub value: T,
    /// Retries consumed before success (0 = first attempt succeeded).
    pub retries: u32,
    /// Faults injected along the way.
    pub faults: FaultTally,
}

/// Receives resilience events as they happen. Implementations bridge to a
/// metrics registry; the default methods make observation optional.
pub trait FaultObserver: Send + Sync {
    /// A fault was injected at `site` on attempt `attempt`.
    fn on_fault(&self, site: Site, kind: FaultKind, attempt: u32) {
        let _ = (site, kind, attempt);
    }

    /// `micros` of virtual backoff (or timeout budget) were charged before a
    /// retry at `site`.
    fn on_backoff(&self, site: Site, micros: u64) {
        let _ = (site, micros);
    }

    /// An operation at `site` succeeded after `retries` retries.
    fn on_recovered(&self, site: Site, retries: u32) {
        let _ = (site, retries);
    }

    /// An operation at `site` gave up (crash or exhausted budget).
    fn on_exhausted(&self, site: Site) {
        let _ = site;
    }
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl FaultObserver for NoopObserver {}

/// Runs operations under a fault plan with bounded retry and deterministic
/// backoff.
pub struct FaultInjector {
    plan: FaultPlan,
    max_retries: u32,
    backoff: Backoff,
    timeout_budget_micros: u64,
    observer: std::sync::Arc<dyn FaultObserver>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("max_retries", &self.max_retries)
            .field("backoff", &self.backoff)
            .finish()
    }
}

impl FaultInjector {
    /// Builds an injector with a no-op observer.
    pub fn new(config: &FaultConfig) -> Self {
        FaultInjector::with_observer(config, std::sync::Arc::new(NoopObserver))
    }

    /// Builds an injector reporting every event to `observer`.
    pub fn with_observer(
        config: &FaultConfig,
        observer: std::sync::Arc<dyn FaultObserver>,
    ) -> Self {
        FaultInjector {
            plan: FaultPlan::new(config),
            max_retries: config.max_retries,
            backoff: Backoff::new(config.base_backoff_micros, config.max_backoff_micros),
            timeout_budget_micros: config.timeout_budget_micros,
            observer,
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The retry budget (retries after the first attempt).
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The backoff schedule.
    pub fn backoff(&self) -> Backoff {
        self.backoff
    }

    /// Consults the plan for one attempt and, when a fault fires, performs
    /// the bookkeeping (`on_fault`, plus the backoff/timeout charge for
    /// retryable kinds). Single-shot sites that never retry (cache get/put,
    /// shard workers, clone-index decisions) call this directly.
    pub fn attempt(&self, site: Site, key: u64, attempt: u32) -> Option<FaultKind> {
        let kind = self.plan.decide(site, key, attempt)?;
        self.observer.on_fault(site, kind, attempt);
        if kind.is_retryable() {
            let micros = if kind == FaultKind::Timeout {
                self.timeout_budget_micros
            } else {
                self.backoff.delay_micros(attempt)
            };
            self.observer.on_backoff(site, micros);
        }
        Some(kind)
    }

    /// Reports a success after `retries` retries (see [`FaultObserver`]).
    pub fn note_recovered(&self, site: Site, retries: u32) {
        self.observer.on_recovered(site, retries);
    }

    /// Runs `op` under the plan: attempts are consumed by injected faults
    /// until one attempt is fault-free (then `op` runs exactly once), the
    /// budget is exhausted, or a crash fires. `op` itself is never invoked
    /// on a faulted attempt — an injected fault stands for the operation
    /// failing.
    pub fn run<T>(
        &self,
        site: Site,
        key: u64,
        op: impl FnOnce() -> T,
    ) -> Result<Attempted<T>, FaultError> {
        let mut faults = FaultTally::default();
        for attempt in 0..=self.max_retries {
            match self.attempt(site, key, attempt) {
                None => {
                    let value = op();
                    self.note_recovered(site, attempt);
                    return Ok(Attempted { value, retries: attempt, faults });
                }
                Some(FaultKind::Crash) => {
                    faults.record(FaultKind::Crash);
                    self.observer.on_exhausted(site);
                    return Err(FaultError::Crashed { site, attempt, faults });
                }
                Some(kind) => faults.record(kind),
            }
        }
        self.observer.on_exhausted(site);
        let last = self
            .plan
            .decide(site, key, self.max_retries)
            .expect("exhausted loops end on a faulted attempt");
        Err(FaultError::Exhausted { site, attempts: self.max_retries + 1, last, faults })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn backoff_doubles_and_caps() {
        let b = Backoff::new(100, 1_000);
        assert_eq!(b.delay_micros(0), 100);
        assert_eq!(b.delay_micros(1), 200);
        assert_eq!(b.delay_micros(2), 400);
        assert_eq!(b.delay_micros(3), 800);
        assert_eq!(b.delay_micros(4), 1_000);
        assert_eq!(b.delay_micros(63), 1_000);
        assert_eq!(b.delay_micros(64), 1_000, "shift overflow saturates, then caps");
    }

    #[test]
    fn zero_rate_runs_op_once_first_try() {
        let inj = FaultInjector::new(&FaultConfig::with_rate(1, 0.0));
        let calls = AtomicU32::new(0);
        let out = inj
            .run(Site::DetectorCall, 42, || {
                calls.fetch_add(1, Ordering::Relaxed);
                "ok"
            })
            .unwrap();
        assert_eq!(out.value, "ok");
        assert_eq!(out.retries, 0);
        assert_eq!(out.faults.total(), 0);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn full_rate_never_runs_op() {
        let inj = FaultInjector::new(&FaultConfig { rate: 1.0, ..Default::default() });
        let err = inj.run(Site::DetectorCall, 42, || panic!("must not run")).unwrap_err();
        assert_eq!(err.site(), Site::DetectorCall);
    }

    #[test]
    fn crash_short_circuits_retries() {
        let cfg = FaultConfig {
            rate: 1.0,
            mix: crate::FaultMix::crash_only(),
            max_retries: 5,
            ..Default::default()
        };
        let inj = FaultInjector::new(&cfg);
        match inj.run(Site::ShardWorker, 0, || ()) {
            Err(FaultError::Crashed { attempt, .. }) => assert_eq!(attempt, 0),
            other => panic!("expected crash, got {other:?}"),
        }
    }

    #[test]
    fn run_agrees_with_plan_exhausts() {
        let cfg = FaultConfig { seed: 9, rate: 0.6, max_retries: 2, ..Default::default() };
        let inj = FaultInjector::new(&cfg);
        let plan = FaultPlan::new(&cfg);
        for key in 0..500 {
            let predicted = plan.exhausts(Site::DetectorCall, key, cfg.max_retries);
            let actual = inj.run(Site::DetectorCall, key, || ()).is_err();
            assert_eq!(predicted, actual, "key {key}");
        }
    }

    #[test]
    fn observer_sees_faults_backoffs_and_outcomes() {
        #[derive(Default)]
        struct Counting {
            faults: AtomicU64,
            backoff_micros: AtomicU64,
            recovered: AtomicU64,
            exhausted: AtomicU64,
        }
        impl FaultObserver for Counting {
            fn on_fault(&self, _: Site, _: FaultKind, _: u32) {
                self.faults.fetch_add(1, Ordering::Relaxed);
            }
            fn on_backoff(&self, _: Site, micros: u64) {
                self.backoff_micros.fetch_add(micros, Ordering::Relaxed);
            }
            fn on_recovered(&self, _: Site, _: u32) {
                self.recovered.fetch_add(1, Ordering::Relaxed);
            }
            fn on_exhausted(&self, _: Site) {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
            }
        }
        let obs = Arc::new(Counting::default());
        let cfg = FaultConfig {
            seed: 4,
            rate: 0.5,
            mix: crate::FaultMix::transient_only(),
            max_retries: 3,
            ..Default::default()
        };
        let inj = FaultInjector::with_observer(&cfg, obs.clone());
        let mut oks = 0u64;
        let mut errs = 0u64;
        for key in 0..200 {
            match inj.run(Site::MlPredict, key, || ()) {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
        assert_eq!(obs.recovered.load(Ordering::Relaxed), oks);
        assert_eq!(obs.exhausted.load(Ordering::Relaxed), errs);
        assert!(obs.faults.load(Ordering::Relaxed) > 0);
        assert!(obs.backoff_micros.load(Ordering::Relaxed) > 0);
        assert!(errs > 0, "rate 0.5 with 4 attempts should exhaust sometimes");
    }

    #[test]
    fn retries_never_exceed_budget() {
        for max_retries in [0u32, 1, 3, 7] {
            let cfg = FaultConfig { seed: 2, rate: 0.7, max_retries, ..Default::default() };
            let inj = FaultInjector::new(&cfg);
            for key in 0..300 {
                match inj.run(Site::DetectorCall, key, || ()) {
                    Ok(a) => {
                        assert!(a.retries <= max_retries);
                        assert_eq!(u64::from(a.retries), a.faults.total());
                    }
                    Err(e) => {
                        match e {
                            FaultError::Exhausted { attempts, .. } => {
                                assert_eq!(attempts, max_retries + 1)
                            }
                            FaultError::Crashed { attempt, .. } => assert!(attempt <= max_retries),
                        }
                        // Every attempt faulted; all but the first were retries.
                        assert_eq!(u64::from(e.retries()) + 1, e.faults().total());
                    }
                }
            }
        }
    }

    #[test]
    fn fault_error_displays() {
        let e = FaultError::Exhausted {
            site: Site::DetectorCall,
            attempts: 4,
            last: FaultKind::Transient,
            faults: FaultTally { transient: 4, ..Default::default() },
        };
        assert!(e.to_string().contains("detector_call"));
        let c = FaultError::Crashed {
            site: Site::ShardWorker,
            attempt: 1,
            faults: FaultTally { transient: 1, crash: 1, ..Default::default() },
        };
        assert!(c.to_string().contains("crashed"));
    }

    #[test]
    fn tally_merges() {
        let mut a = FaultTally { transient: 1, timeout: 2, corrupt: 3, crash: 4 };
        let b = FaultTally { transient: 10, timeout: 20, corrupt: 30, crash: 40 };
        a.merge(&b);
        assert_eq!(a, FaultTally { transient: 11, timeout: 22, corrupt: 33, crash: 44 });
        assert_eq!(a.total(), 110);
    }
}
