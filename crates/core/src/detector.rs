//! Unified detector abstraction over rule-based tools and ML models.
//!
//! Gap Observation 2 stresses that adopted models must "integrate seamlessly
//! with existing tools": this module gives the workflow engine one interface
//! over both worlds, with per-CWE scoping so specialized tools can be
//! composed the way industry actually deploys them ("each tool selected is
//! often specialized to address certain vulnerabilities").

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vulnman_analysis::checkers::SemanticEngine;
use vulnman_analysis::detectors::RuleEngine;
use vulnman_analysis::finding::Finding;
use vulnman_faults::{FaultInjector, Site};
use vulnman_lang::AnalysisCache;
use vulnman_ml::pipeline::DetectionModel;
use vulnman_obs::{Counter, Histogram, Registry};
use vulnman_synth::cwe::Cwe;
use vulnman_synth::sample::Sample;

/// Verdict of one detector on one sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assessment {
    /// Whether the detector believes the sample is vulnerable.
    pub vulnerable: bool,
    /// Confidence score in `[0, 1]` when available.
    pub score: f64,
    /// Structured findings (rule-based detectors only).
    pub findings: Vec<Finding>,
    /// Name of the detector that produced this assessment.
    pub detector: String,
}

/// A detector invocation that produced no assessment — the failure surface
/// of fallible backends (ML prediction under fault injection). The engine
/// degrades by omitting the assessment, never by panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssessError {
    /// Name of the detector that failed.
    pub detector: String,
    /// Human-readable failure reason.
    pub reason: String,
}

impl std::fmt::Display for AssessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "detector {} failed: {}", self.detector, self.reason)
    }
}

impl std::error::Error for AssessError {}

/// A vulnerability detector usable by the workflow engine.
pub trait Detector: Send + Sync {
    /// Display name.
    fn name(&self) -> &str;

    /// CWE classes this detector is scoped to (`None` = general-purpose).
    fn scope(&self) -> Option<Vec<Cwe>> {
        None
    }

    /// Assesses one sample.
    fn assess(&self, sample: &Sample) -> Assessment;

    /// Assesses one sample through a shared content-addressed analysis
    /// cache, under `content_key`: the sample source's
    /// [`vulnman_lang::AnalysisCache::content_key`], hashed once per sample
    /// by the caller no matter how many cache-aware detectors run.
    /// Detectors whose work is source-derived (parse, CFG, dataflow, taint,
    /// ML features) override this to memoize per unique content; the
    /// default ignores the cache. Must return exactly what
    /// [`Detector::assess`] returns.
    fn assess_cached_keyed(
        &self,
        sample: &Sample,
        _cache: &vulnman_lang::AnalysisCache,
        _content_key: u64,
    ) -> Assessment {
        self.assess(sample)
    }

    /// Fallible [`Detector::assess_cached_keyed`]: detectors with fallible
    /// backends (e.g. ML prediction under fault injection) override this to
    /// surface failures the engine degrades on. The default never fails.
    fn try_assess_cached_keyed(
        &self,
        sample: &Sample,
        cache: &vulnman_lang::AnalysisCache,
        content_key: u64,
    ) -> Result<Assessment, AssessError> {
        Ok(self.assess_cached_keyed(sample, cache, content_key))
    }

    /// Whether this detector's assessment is invariant under the clone
    /// equivalence the workflow's dedup stage proves: identical token
    /// streams modulo one injective identifier renaming (comments and
    /// whitespace already erased by lexing). Only invariant detectors may
    /// have their results propagated from a clone representative to the
    /// other class members; everything else (e.g. ML models reading raw
    /// token text and source length) runs directly on every member. The
    /// conservative default is `false`.
    fn clone_invariant(&self) -> bool {
        false
    }

    /// Receives the engine's fault injector at construction. Detectors
    /// whose backends consult a fault plan (ML prediction) forward it; the
    /// default ignores it.
    fn attach_faults(&mut self, _injector: Arc<FaultInjector>) {}

    /// Receives the engine's metrics registry when one is attached.
    /// Detectors with their own instrument families (the semantic suite's
    /// `absint.*` solver telemetry) store it; the default ignores it.
    fn attach_metrics(&mut self, _metrics: &Registry) {}
}

/// Adapter: the rule-based suite as a [`Detector`].
#[derive(Debug)]
pub struct RuleBasedDetector {
    engine: RuleEngine,
    name: String,
}

impl RuleBasedDetector {
    /// Wraps the default industry rule suite.
    pub fn standard() -> Self {
        RuleBasedDetector { engine: RuleEngine::default_suite(), name: "rule-suite".into() }
    }

    /// Wraps a custom engine under a display name.
    pub fn new(name: impl Into<String>, engine: RuleEngine) -> Self {
        RuleBasedDetector { engine, name: name.into() }
    }
}

impl Detector for RuleBasedDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn assess(&self, sample: &Sample) -> Assessment {
        let findings = self.engine.scan_source(&sample.source).unwrap_or_default();
        self.to_assessment(findings)
    }

    fn assess_cached_keyed(
        &self,
        sample: &Sample,
        cache: &vulnman_lang::AnalysisCache,
        content_key: u64,
    ) -> Assessment {
        let findings = self
            .engine
            .scan_source_cached_keyed(content_key, &sample.source, cache)
            .unwrap_or_default();
        self.to_assessment(findings)
    }

    /// Rule findings are derived from the lexed/parsed program, where
    /// identifier spelling only flows into messages — which the dedup
    /// stage remaps alongside the rename.
    fn clone_invariant(&self) -> bool {
        true
    }
}

impl RuleBasedDetector {
    /// The unit is flagged when any rule fires; findings in shared helpers
    /// count too if nothing is in the target.
    fn to_assessment(&self, findings: Vec<Finding>) -> Assessment {
        let vulnerable = !findings.is_empty();
        Assessment {
            vulnerable,
            score: if vulnerable { 1.0 } else { 0.0 },
            findings,
            detector: self.name.clone(),
        }
    }
}

/// Adapter: the abstract-interpretation checker suite as a [`Detector`].
///
/// Cache-aware (the engine's findings entry, shared with the differential
/// oracle's absint view) and fault-aware: when the engine attaches an
/// injector, every invocation consults the
/// [`checker_call`](vulnman_faults::Site::CheckerCall) site keyed by sample
/// id, so checker failures are deterministic per sample regardless of
/// sharding, and the engine degrades by omitting the assessment.
#[derive(Debug)]
pub struct SemanticDetector {
    engine: SemanticEngine,
    faults: Option<Arc<FaultInjector>>,
    metrics: Registry,
}

impl SemanticDetector {
    /// Wraps the default semantic checker suite.
    pub fn standard() -> Self {
        SemanticDetector::new(SemanticEngine::new())
    }

    /// Wraps a custom-configured engine.
    pub fn new(engine: SemanticEngine) -> Self {
        SemanticDetector { engine, faults: None, metrics: Registry::noop() }
    }

    fn to_assessment(&self, findings: Vec<Finding>) -> Assessment {
        let vulnerable = !findings.is_empty();
        Assessment {
            vulnerable,
            score: if vulnerable { 1.0 } else { 0.0 },
            findings,
            detector: "semantic-suite".into(),
        }
    }
}

impl Detector for SemanticDetector {
    fn name(&self) -> &str {
        "semantic-suite"
    }

    fn assess(&self, sample: &Sample) -> Assessment {
        let findings = self.engine.scan_source(&sample.source).unwrap_or_default();
        self.to_assessment(findings)
    }

    /// The engine's cached findings entry
    /// ([`SemanticEngine::findings_cached`]); cold scans feed the `absint.*`
    /// instruments, warm hits skip the fixpoint and leave them untouched,
    /// which is exactly what they measure.
    fn assess_cached_keyed(
        &self,
        sample: &Sample,
        cache: &vulnman_lang::AnalysisCache,
        content_key: u64,
    ) -> Assessment {
        let program = match cache.parse_keyed(content_key, &sample.source) {
            Ok(p) => p,
            Err(_) => return self.to_assessment(Vec::new()),
        };
        let findings = self.engine.findings_cached(
            content_key,
            &sample.source,
            &program,
            cache,
            &self.metrics,
        );
        self.to_assessment((*findings).clone())
    }

    fn try_assess_cached_keyed(
        &self,
        sample: &Sample,
        cache: &vulnman_lang::AnalysisCache,
        content_key: u64,
    ) -> Result<Assessment, AssessError> {
        match &self.faults {
            Some(inj) => inj
                .run(Site::CheckerCall, sample.id, || {
                    self.assess_cached_keyed(sample, cache, content_key)
                })
                .map(|attempted| attempted.value)
                .map_err(|e| AssessError {
                    detector: "semantic-suite".into(),
                    reason: e.to_string(),
                }),
            None => Ok(self.assess_cached_keyed(sample, cache, content_key)),
        }
    }

    fn attach_faults(&mut self, injector: Arc<FaultInjector>) {
        self.faults = Some(injector);
    }

    fn attach_metrics(&mut self, metrics: &Registry) {
        self.metrics = metrics.clone();
    }

    /// The abstract-interpretation checkers work over the parsed AST;
    /// identifier spelling only reaches evidence text, which the dedup
    /// stage remaps alongside the rename.
    fn clone_invariant(&self) -> bool {
        true
    }
}

/// A trained [`DetectionModel`] as the audit matrix's `ml` column (see
/// [`vulnman_analysis::audit`]).
struct TrainedModelVerdict {
    model: DetectionModel,
}

impl vulnman_analysis::audit::MlVerdict for TrainedModelVerdict {
    fn name(&self) -> String {
        self.model.name().to_string()
    }

    fn flags(&self, sample: &Sample, cache: &AnalysisCache, content_key: u64) -> bool {
        self.model.predict_proba_cached(sample, cache, content_key) >= 0.5
    }
}

/// Builds the audit matrix's `ml` scorer: the tool-augmented model trained
/// on a seeded, class-balanced vulnerable/fixed corpus. Deterministic for a
/// given seed, so the committed audit baseline stays byte-stable. The
/// training stream is salted away from the audit's evaluation stream — the
/// column measures generalization to fresh instantiations, not replay.
pub fn audit_ml_verdict(seed: u64) -> Box<dyn vulnman_analysis::audit::MlVerdict> {
    use vulnman_synth::dataset::Dataset;
    use vulnman_synth::generator::SampleGenerator;
    use vulnman_synth::style::StyleProfile;
    use vulnman_synth::tier::Tier;
    let mut corpus = Dataset::new();
    for cwe in Cwe::ALL {
        let class_seed = (seed ^ 0x7A1B) ^ ((cwe.id() as u64) << 5);
        let mut generator = SampleGenerator::new(class_seed, StyleProfile::mainstream());
        for _ in 0..6 {
            let (vuln, fixed) = generator.vulnerable_pair(cwe, Tier::Curated, "audit-train");
            corpus.push(vuln);
            corpus.push(fixed);
        }
    }
    let mut model = tool_augmented_model(seed);
    model.train(&corpus);
    Box::new(TrainedModelVerdict { model })
}

/// A ready-made tool-augmented detection model: code tokens + the rule
/// suite's verdicts feeding one classifier.
pub fn tool_augmented_model(seed: u64) -> vulnman_ml::pipeline::DetectionModel {
    use vulnman_ml::features::{ComposedFeatures, TokenNgramFeatures, ToolAugmentedFeatures};
    let features = ComposedFeatures::new(vec![
        Box::new(TokenNgramFeatures::new(256)),
        Box::new(ToolAugmentedFeatures::new(RuleEngine::default_suite())),
    ]);
    let dim = vulnman_ml::features::FeatureExtractor::dim(&features);
    vulnman_ml::pipeline::DetectionModel::new(
        "token+tools-lr",
        Box::new(features),
        Box::new(vulnman_ml::linear::LogisticRegression::new(dim, seed ^ 0x55)),
    )
}

/// Adapter: a trained ML model as a [`Detector`].
pub struct MlDetector {
    model: DetectionModel,
    scope: Option<Vec<Cwe>>,
}

impl std::fmt::Debug for MlDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MlDetector")
            .field("model", &self.model.name())
            .field("scope", &self.scope)
            .finish()
    }
}

impl MlDetector {
    /// Wraps a trained model as a general-purpose detector.
    ///
    /// # Panics
    ///
    /// Panics if the model has not been trained.
    pub fn new(model: DetectionModel) -> Self {
        assert!(model.is_trained(), "MlDetector requires a trained model");
        MlDetector { model, scope: None }
    }

    /// Wraps a trained model scoped to specific CWE classes (a *specialized*
    /// model in the sense of Future Direction Proposal 1).
    ///
    /// # Panics
    ///
    /// Panics if the model has not been trained.
    pub fn specialized(model: DetectionModel, scope: Vec<Cwe>) -> Self {
        assert!(model.is_trained(), "MlDetector requires a trained model");
        MlDetector { model, scope: Some(scope) }
    }

    /// The wrapped model.
    pub fn model(&self) -> &DetectionModel {
        &self.model
    }

    fn to_assessment(&self, score: f64) -> Assessment {
        Assessment {
            vulnerable: score >= 0.5,
            score,
            findings: Vec::new(),
            detector: self.model.name().to_string(),
        }
    }
}

impl Detector for MlDetector {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn scope(&self) -> Option<Vec<Cwe>> {
        self.scope.clone()
    }

    fn assess(&self, sample: &Sample) -> Assessment {
        self.to_assessment(self.model.predict_proba(sample))
    }

    /// Features read the parse and rule findings the detectors before the
    /// model stored under `content_key`.
    fn assess_cached_keyed(
        &self,
        sample: &Sample,
        cache: &vulnman_lang::AnalysisCache,
        content_key: u64,
    ) -> Assessment {
        self.to_assessment(self.model.predict_proba_cached(sample, cache, content_key))
    }

    fn try_assess_cached_keyed(
        &self,
        sample: &Sample,
        cache: &vulnman_lang::AnalysisCache,
        content_key: u64,
    ) -> Result<Assessment, AssessError> {
        match self.model.try_predict_proba_cached(sample, cache, content_key) {
            Ok(score) => Ok(self.to_assessment(score)),
            Err(e) => {
                Err(AssessError { detector: self.model.name().to_string(), reason: e.to_string() })
            }
        }
    }

    fn attach_faults(&mut self, injector: Arc<FaultInjector>) {
        self.model.attach_faults(injector);
    }
}

/// How a registry combines multiple detector verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CombinePolicy {
    /// Flag when any detector flags (maximum recall, industry default for
    /// high-severity classes).
    #[default]
    Any,
    /// Flag when a strict majority flags (suppresses disagreement noise).
    Majority,
}

/// Pre-resolved observability handles for one registered detector, so the
/// hot path never formats instrument names.
struct DetectorInstruments {
    calls: Counter,
    micros: Histogram,
}

/// A registry of detectors the assessment stage runs.
///
/// When a metrics [`Registry`] is attached (the workflow engine does this
/// at construction), every detector invocation is counted and timed under
/// `detector.<name>.calls` / `detector.<name>.micros`. Without one, the
/// default no-op recorder makes instrumentation cost a predicted branch.
#[derive(Default)]
pub struct DetectorRegistry {
    detectors: Vec<Box<dyn Detector>>,
    policy: CombinePolicy,
    metrics: Registry,
    instruments: Vec<DetectorInstruments>,
}

impl std::fmt::Debug for DetectorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectorRegistry")
            .field(
                "detectors",
                &self.detectors.iter().map(|d| d.name().to_string()).collect::<Vec<_>>(),
            )
            .field("policy", &self.policy)
            .finish()
    }
}

impl DetectorRegistry {
    /// Creates an empty registry with the [`CombinePolicy::Any`] policy.
    pub fn new() -> Self {
        DetectorRegistry::default()
    }

    /// Sets the combination policy.
    pub fn with_policy(mut self, policy: CombinePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Registers a detector.
    pub fn register(&mut self, d: Box<dyn Detector>) -> &mut Self {
        self.instruments.push(self.make_instruments(d.name()));
        self.detectors.push(d);
        self
    }

    /// Attaches a metrics registry: per-detector invocation counters and
    /// latency histograms are (re-)registered for every detector, present
    /// and future, so the exported schema is fixed at attach time.
    pub fn attach_metrics(&mut self, metrics: Registry) {
        self.metrics = metrics;
        self.instruments = self.detectors.iter().map(|d| self.make_instruments(d.name())).collect();
        for d in &mut self.detectors {
            d.attach_metrics(&self.metrics);
        }
    }

    /// The attached metrics registry (no-op unless
    /// [`DetectorRegistry::attach_metrics`] was called).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    fn make_instruments(&self, name: &str) -> DetectorInstruments {
        DetectorInstruments {
            calls: self.metrics.counter(&format!("detector.{name}.calls")),
            micros: self.metrics.histogram(&format!("detector.{name}.micros")),
        }
    }

    /// Runs `assess` for the detector at `idx`, counted and timed.
    fn observed<T>(&self, idx: usize, assess: impl FnOnce() -> T) -> T {
        let ins = &self.instruments[idx];
        ins.calls.inc();
        if ins.micros.is_enabled() {
            let t0 = std::time::Instant::now();
            let a = assess();
            ins.micros.observe_duration(t0.elapsed());
            a
        } else {
            assess()
        }
    }

    /// Propagates the engine's fault injector to every registered detector
    /// (see [`Detector::attach_faults`]).
    pub fn attach_faults(&mut self, injector: &Arc<FaultInjector>) {
        for d in &mut self.detectors {
            d.attach_faults(Arc::clone(injector));
        }
    }

    /// Registration indices of the detectors applicable to `sample`, in
    /// registration order (the engine's resilient path drives detectors
    /// individually through these).
    pub(crate) fn applicable_indices(&self, sample: &Sample) -> Vec<usize> {
        self.applicable(sample).map(|(i, _)| i).collect()
    }

    /// Whether the detector at `idx` declares its assessment invariant
    /// under the dedup stage's clone equivalence (see
    /// [`Detector::clone_invariant`]).
    pub(crate) fn clone_invariant_at(&self, idx: usize) -> bool {
        self.detectors[idx].clone_invariant()
    }

    /// Runs the detector at `idx` through the cache on the infallible
    /// path, counted and timed — the per-detector unit of
    /// [`DetectorRegistry::assess_all_cached_keyed`], used by the dedup
    /// stage to assess clone representatives detector by detector.
    pub(crate) fn assess_cached_keyed_at(
        &self,
        idx: usize,
        sample: &Sample,
        cache: &vulnman_lang::AnalysisCache,
        content_key: u64,
    ) -> Assessment {
        self.observed(idx, || self.detectors[idx].assess_cached_keyed(sample, cache, content_key))
    }

    /// Runs the detector at `idx` through the cache, counted and timed,
    /// surfacing fallible-backend errors instead of panicking.
    pub(crate) fn try_assess_cached_at(
        &self,
        idx: usize,
        sample: &Sample,
        cache: &vulnman_lang::AnalysisCache,
        content_key: u64,
    ) -> Result<Assessment, AssessError> {
        self.observed(idx, || {
            self.detectors[idx].try_assess_cached_keyed(sample, cache, content_key)
        })
    }

    /// Number of registered detectors.
    pub fn len(&self) -> usize {
        self.detectors.len()
    }

    /// Returns `true` if no detectors are registered.
    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }

    /// Names of registered detectors.
    pub fn names(&self) -> Vec<String> {
        self.detectors.iter().map(|d| d.name().to_string()).collect()
    }

    /// Detectors applicable to a sample (scope matching the sample's CWE
    /// when the sample declares one; unscoped detectors always run), with
    /// their registration index for instrument lookup.
    fn applicable<'a>(
        &'a self,
        sample: &'a Sample,
    ) -> impl Iterator<Item = (usize, &'a dyn Detector)> {
        self.detectors
            .iter()
            .enumerate()
            .filter(|(_, d)| match (d.scope(), sample.cwe) {
                (Some(scope), Some(cwe)) => scope.contains(&cwe),
                (Some(_), None) => true, // scoped tools still scan unknown code
                (None, _) => true,
            })
            .map(|(i, d)| (i, d.as_ref()))
    }

    /// Runs every applicable detector.
    pub fn assess_all(&self, sample: &Sample) -> Vec<Assessment> {
        self.applicable(sample).map(|(i, d)| self.observed(i, || d.assess(sample))).collect()
    }

    /// Runs every applicable detector through a shared analysis cache,
    /// with the sample source hashed once by the caller (`content_key`).
    /// Assessments are identical to [`DetectorRegistry::assess_all`].
    pub fn assess_all_cached_keyed(
        &self,
        sample: &Sample,
        cache: &vulnman_lang::AnalysisCache,
        content_key: u64,
    ) -> Vec<Assessment> {
        self.applicable(sample)
            .map(|(i, d)| self.observed(i, || d.assess_cached_keyed(sample, cache, content_key)))
            .collect()
    }

    /// Combined verdict under the registry policy, along with the individual
    /// assessments.
    pub fn verdict(&self, sample: &Sample) -> (bool, Vec<Assessment>) {
        self.combine(self.assess_all(sample))
    }

    /// Cache-assisted [`DetectorRegistry::verdict`]: the verdict and the
    /// assessments are identical, only repeated work is skipped.
    pub fn verdict_cached_keyed(
        &self,
        sample: &Sample,
        cache: &vulnman_lang::AnalysisCache,
        content_key: u64,
    ) -> (bool, Vec<Assessment>) {
        self.combine(self.assess_all_cached_keyed(sample, cache, content_key))
    }

    pub(crate) fn combine(&self, assessments: Vec<Assessment>) -> (bool, Vec<Assessment>) {
        let positive = assessments.iter().filter(|a| a.vulnerable).count();
        let flagged = match self.policy {
            CombinePolicy::Any => positive > 0,
            CombinePolicy::Majority => positive * 2 > assessments.len(),
        };
        (flagged, assessments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnman_ml::pipeline::model_zoo;
    use vulnman_ml::split::stratified_split;
    use vulnman_synth::dataset::DatasetBuilder;
    use vulnman_synth::generator::SampleGenerator;
    use vulnman_synth::style::StyleProfile;
    use vulnman_synth::tier::Tier;

    #[test]
    fn rule_detector_flags_vulnerable_sample() {
        let mut g = SampleGenerator::new(1, StyleProfile::mainstream());
        let (v, f) = g.vulnerable_pair(Cwe::SqlInjection, Tier::Simple, "p");
        let d = RuleBasedDetector::standard();
        assert!(d.assess(&v).vulnerable);
        assert!(!d.assess(&f).vulnerable);
        assert!(!d.assess(&v).findings.is_empty());
    }

    #[test]
    fn ml_detector_requires_training() {
        let result = std::panic::catch_unwind(|| {
            let model = model_zoo(1).remove(0);
            MlDetector::new(model)
        });
        assert!(result.is_err());
    }

    #[test]
    fn attached_metrics_count_and_time_detectors() {
        let metrics = Registry::new();
        let mut r = DetectorRegistry::new();
        r.register(Box::new(RuleBasedDetector::standard()));
        r.attach_metrics(metrics.clone());
        let mut g = SampleGenerator::new(9, StyleProfile::mainstream());
        let (v, _) = g.vulnerable_pair(Cwe::SqlInjection, Tier::Simple, "p");
        r.verdict(&v);
        r.verdict(&v);
        assert_eq!(metrics.counter("detector.rule-suite.calls").get(), 2);
        let snap = metrics.snapshot();
        assert_eq!(snap.histograms["detector.rule-suite.micros"].count, 2);
        // Instruments exist in the schema even before the first call.
        let mut r2 = DetectorRegistry::new();
        r2.register(Box::new(RuleBasedDetector::standard()));
        let m2 = Registry::new();
        r2.attach_metrics(m2.clone());
        assert!(m2.snapshot().counters.contains_key("detector.rule-suite.calls"));
    }

    #[test]
    fn registry_policies_differ() {
        struct Fixed(bool, &'static str);
        impl Detector for Fixed {
            fn name(&self) -> &str {
                self.1
            }
            fn assess(&self, _: &Sample) -> Assessment {
                Assessment {
                    vulnerable: self.0,
                    score: if self.0 { 1.0 } else { 0.0 },
                    findings: vec![],
                    detector: self.1.into(),
                }
            }
        }
        let mut g = SampleGenerator::new(2, StyleProfile::mainstream());
        let sample = g.benign(Tier::Simple, "p");

        let mut any = DetectorRegistry::new();
        any.register(Box::new(Fixed(true, "a")));
        any.register(Box::new(Fixed(false, "b")));
        any.register(Box::new(Fixed(false, "c")));
        assert!(any.verdict(&sample).0);

        let mut majority = DetectorRegistry::new().with_policy(CombinePolicy::Majority);
        majority.register(Box::new(Fixed(true, "a")));
        majority.register(Box::new(Fixed(false, "b")));
        majority.register(Box::new(Fixed(false, "c")));
        assert!(!majority.verdict(&sample).0);
    }

    #[test]
    fn scoped_detector_skipped_for_other_classes() {
        struct AlwaysYes;
        impl Detector for AlwaysYes {
            fn name(&self) -> &str {
                "yes"
            }
            fn scope(&self) -> Option<Vec<Cwe>> {
                Some(vec![Cwe::SqlInjection])
            }
            fn assess(&self, _: &Sample) -> Assessment {
                Assessment {
                    vulnerable: true,
                    score: 1.0,
                    findings: vec![],
                    detector: "yes".into(),
                }
            }
        }
        let mut g = SampleGenerator::new(3, StyleProfile::mainstream());
        let (uaf, _) = g.vulnerable_pair(Cwe::UseAfterFree, Tier::Simple, "p");
        let (sql, _) = g.vulnerable_pair(Cwe::SqlInjection, Tier::Simple, "p");
        let mut r = DetectorRegistry::new();
        r.register(Box::new(AlwaysYes));
        assert!(r.assess_all(&uaf).is_empty(), "UAF sample is out of scope");
        assert_eq!(r.assess_all(&sql).len(), 1);
    }

    #[test]
    fn tool_augmented_model_beats_code_only_on_hard_data() {
        use vulnman_synth::tier::Tier;
        let ds = DatasetBuilder::new(41)
            .teams(vec![StyleProfile::mainstream()])
            .vulnerable_count(120)
            .vulnerable_fraction(0.4)
            .tier_mix(vec![(Tier::RealWorld, 1.0)])
            .build();
        let split = stratified_split(&ds, 0.35, 3);
        let mut code_only = model_zoo(21).remove(0);
        let mut augmented = tool_augmented_model(21);
        code_only.train(&split.train);
        augmented.train(&split.train);
        let f_code = code_only.evaluate(&split.test).f1();
        let f_aug = augmented.evaluate(&split.test).f1();
        assert!(
            f_aug > f_code,
            "tool ecosystem knowledge should lift the model: {f_aug} vs {f_code}"
        );
    }

    #[test]
    fn trained_ml_detector_integrates() {
        let ds = DatasetBuilder::new(4).vulnerable_count(40).build();
        let split = stratified_split(&ds, 0.3, 1);
        let mut model = model_zoo(2).remove(2); // graph-rf
        model.train(&split.train);
        let d = MlDetector::new(model);
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(d));
        registry.register(Box::new(RuleBasedDetector::standard()));
        assert_eq!(registry.len(), 2);
        let hits = split.test.iter().filter(|s| s.label).filter(|s| registry.verdict(s).0).count();
        let total = split.test.iter().filter(|s| s.label).count();
        assert!(hits * 10 >= total * 8, "combined registry should catch most: {hits}/{total}");
    }
}
