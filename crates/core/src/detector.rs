//! Unified detector abstraction over rule-based tools and ML models.
//!
//! Gap Observation 2 stresses that adopted models must "integrate seamlessly
//! with existing tools": this module gives the workflow engine one interface
//! over both worlds, with per-CWE scoping so specialized tools can be
//! composed the way industry actually deploys them ("each tool selected is
//! often specialized to address certain vulnerabilities").

use serde::{Deserialize, Serialize};
use vulnman_analysis::checkers::SemanticEngine;
use vulnman_analysis::detectors::RuleEngine;
use vulnman_analysis::finding::Finding;
use vulnman_faults::Site;
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
/// of fallible backends (an ML model emitting a non-finite score). The
/// engine degrades by omitting the assessment, never by panicking.
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
///
/// Detectors are pure: [`Detector::assess`] depends only on the sample
/// (and on work memoized under its content key), and no detector holds a
/// fault injector, a retry loop or quarantine state. The workflow engine
/// walks every fault site of a `(detector, sample)` pair — its own
/// `detector_call` coordinate, then the site the detector names through
/// [`Detector::fault_site`] — once, before it asks for the value, for
/// directly analyzed samples and propagated clone members alike.
pub trait Detector: Send + Sync {
    /// Display name.
    fn name(&self) -> &str;

    /// CWE classes this detector is scoped to (`None` = general-purpose).
    fn scope(&self) -> Option<Vec<Cwe>> {
        None
    }

    /// Assesses one sample through a shared content-addressed analysis
    /// cache, under `content_key`: the sample source's
    /// [`AnalysisCache::content_key`], hashed once per sample by the caller
    /// no matter how many detectors run. Detectors whose work is
    /// source-derived (parse, CFG, dataflow, taint, ML features) memoize it
    /// per unique content; the result never depends on the cache's state.
    /// An `Err` is a backend failure the engine degrades on (the assessment
    /// is lost and counted), never a panic.
    fn assess(
        &self,
        sample: &Sample,
        cache: &AnalysisCache,
        content_key: u64,
    ) -> Result<Assessment, AssessError>;

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

    /// The injection site standing for this detector's backend, walked by
    /// the engine keyed by sample id (so a backend failure is a property of
    /// the sample, identical at any worker count and for every clone
    /// member): [`Site::CheckerCall`] for the semantic suite,
    /// [`Site::MlPredict`] for ML models. `None` (the default) means the
    /// detector has no backend site beyond its `detector_call` coordinate.
    fn fault_site(&self) -> Option<Site> {
        None
    }

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

    fn assess(
        &self,
        sample: &Sample,
        cache: &AnalysisCache,
        content_key: u64,
    ) -> Result<Assessment, AssessError> {
        let findings = self
            .engine
            .scan_source_cached_keyed(content_key, &sample.source, cache)
            .unwrap_or_default();
        Ok(self.to_assessment(findings))
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
/// Cache-aware: it reads the engine's findings entry, shared with the
/// differential oracle's absint view. Its backend site is
/// [`checker_call`](Site::CheckerCall), which the workflow engine walks.
#[derive(Debug)]
pub struct SemanticDetector {
    engine: SemanticEngine,
    metrics: Registry,
}

impl SemanticDetector {
    /// Wraps the default semantic checker suite.
    pub fn standard() -> Self {
        SemanticDetector::new(SemanticEngine::new())
    }

    /// Wraps a custom-configured engine.
    pub fn new(engine: SemanticEngine) -> Self {
        SemanticDetector { engine, metrics: Registry::noop() }
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

    /// The engine's cached findings entry
    /// ([`SemanticEngine::findings_cached`]); cold scans feed the `absint.*`
    /// instruments, warm hits skip the fixpoint and leave them untouched,
    /// which is exactly what they measure.
    fn assess(
        &self,
        sample: &Sample,
        cache: &AnalysisCache,
        content_key: u64,
    ) -> Result<Assessment, AssessError> {
        let program = match cache.parse_keyed(content_key, &sample.source) {
            Ok(p) => p,
            Err(_) => return Ok(self.to_assessment(Vec::new())),
        };
        let findings = self.engine.findings_cached(
            content_key,
            &sample.source,
            &program,
            cache,
            &self.metrics,
        );
        Ok(self.to_assessment((*findings).clone()))
    }

    fn fault_site(&self) -> Option<Site> {
        Some(Site::CheckerCall)
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

    /// Features read the parse and rule findings the detectors before the
    /// model stored under `content_key`. A non-finite score is a model
    /// failure: the engine degrades instead of propagating NaN into
    /// reports.
    fn assess(
        &self,
        sample: &Sample,
        cache: &AnalysisCache,
        content_key: u64,
    ) -> Result<Assessment, AssessError> {
        let score = self.model.predict_proba_cached(sample, cache, content_key);
        if score.is_finite() {
            Ok(self.to_assessment(score))
        } else {
            Err(AssessError {
                detector: self.model.name().to_string(),
                reason: format!("non-finite score {score}"),
            })
        }
    }

    fn fault_site(&self) -> Option<Site> {
        Some(Site::MlPredict)
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

    /// Registration indices of the detectors applicable to `sample` (scope
    /// matching the sample's CWE when the sample declares one; unscoped
    /// detectors always run), in registration order.
    pub(crate) fn applicable_indices(&self, sample: &Sample) -> Vec<usize> {
        self.detectors
            .iter()
            .enumerate()
            .filter(|(_, d)| match (d.scope(), sample.cwe) {
                (Some(scope), Some(cwe)) => scope.contains(&cwe),
                (Some(_), None) => true, // scoped tools still scan unknown code
                (None, _) => true,
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether the detector at `idx` declares its assessment invariant
    /// under the dedup stage's clone equivalence (see
    /// [`Detector::clone_invariant`]).
    pub(crate) fn clone_invariant_at(&self, idx: usize) -> bool {
        self.detectors[idx].clone_invariant()
    }

    /// The backend fault site the detector at `idx` declares (see
    /// [`Detector::fault_site`]).
    pub(crate) fn fault_site_at(&self, idx: usize) -> Option<Site> {
        self.detectors[idx].fault_site()
    }

    /// Runs the detector at `idx` through the cache, counted and timed:
    /// the one place a registered detector is called.
    pub(crate) fn assess_at(
        &self,
        idx: usize,
        sample: &Sample,
        cache: &AnalysisCache,
        content_key: u64,
    ) -> Result<Assessment, AssessError> {
        let ins = &self.instruments[idx];
        ins.calls.inc();
        let assess = || self.detectors[idx].assess(sample, cache, content_key);
        if ins.micros.is_enabled() {
            let t0 = std::time::Instant::now();
            let a = assess();
            ins.micros.observe_duration(t0.elapsed());
            a
        } else {
            assess()
        }
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

    /// Combined verdict of every applicable detector under the registry
    /// policy, along with the individual assessments, with analyses shared
    /// through `cache`. A detector whose assessment fails is left out, as
    /// the workflow engine degrades. No fault plan applies here; the
    /// engine's assessment stage is where fault sites are walked.
    pub fn verdict(&self, sample: &Sample, cache: &AnalysisCache) -> (bool, Vec<Assessment>) {
        let key = AnalysisCache::content_key(&sample.source);
        let assessments = self
            .applicable_indices(sample)
            .into_iter()
            .filter_map(|d| self.assess_at(d, sample, cache, key).ok())
            .collect();
        self.combine(assessments)
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

    /// One assessment through a fresh cache.
    fn assess(d: &dyn Detector, sample: &Sample) -> Assessment {
        let key = AnalysisCache::content_key(&sample.source);
        d.assess(sample, &AnalysisCache::new(), key).expect("assessment")
    }

    #[test]
    fn rule_detector_flags_vulnerable_sample() {
        let mut g = SampleGenerator::new(1, StyleProfile::mainstream());
        let (v, f) = g.vulnerable_pair(Cwe::SqlInjection, Tier::Simple, "p");
        let d = RuleBasedDetector::standard();
        assert!(assess(&d, &v).vulnerable);
        assert!(!assess(&d, &f).vulnerable);
        assert!(!assess(&d, &v).findings.is_empty());
        assert_eq!(d.fault_site(), None);
        assert_eq!(SemanticDetector::standard().fault_site(), Some(Site::CheckerCall));
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
        let cache = AnalysisCache::new();
        r.verdict(&v, &cache);
        r.verdict(&v, &cache);
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
            fn assess(
                &self,
                _: &Sample,
                _: &AnalysisCache,
                _: u64,
            ) -> Result<Assessment, AssessError> {
                Ok(Assessment {
                    vulnerable: self.0,
                    score: if self.0 { 1.0 } else { 0.0 },
                    findings: vec![],
                    detector: self.1.into(),
                })
            }
        }
        let mut g = SampleGenerator::new(2, StyleProfile::mainstream());
        let sample = g.benign(Tier::Simple, "p");

        let mut any = DetectorRegistry::new();
        any.register(Box::new(Fixed(true, "a")));
        any.register(Box::new(Fixed(false, "b")));
        any.register(Box::new(Fixed(false, "c")));
        let cache = AnalysisCache::new();
        assert!(any.verdict(&sample, &cache).0);

        let mut majority = DetectorRegistry::new().with_policy(CombinePolicy::Majority);
        majority.register(Box::new(Fixed(true, "a")));
        majority.register(Box::new(Fixed(false, "b")));
        majority.register(Box::new(Fixed(false, "c")));
        assert!(!majority.verdict(&sample, &cache).0);
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
            fn assess(
                &self,
                _: &Sample,
                _: &AnalysisCache,
                _: u64,
            ) -> Result<Assessment, AssessError> {
                Ok(Assessment {
                    vulnerable: true,
                    score: 1.0,
                    findings: vec![],
                    detector: "yes".into(),
                })
            }
        }
        let mut g = SampleGenerator::new(3, StyleProfile::mainstream());
        let (uaf, _) = g.vulnerable_pair(Cwe::UseAfterFree, Tier::Simple, "p");
        let (sql, _) = g.vulnerable_pair(Cwe::SqlInjection, Tier::Simple, "p");
        let mut r = DetectorRegistry::new();
        r.register(Box::new(AlwaysYes));
        let cache = AnalysisCache::new();
        assert!(r.verdict(&uaf, &cache).1.is_empty(), "UAF sample is out of scope");
        assert_eq!(r.verdict(&sql, &cache).1.len(), 1);
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
        assert_eq!(d.fault_site(), Some(Site::MlPredict));
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(d));
        registry.register(Box::new(RuleBasedDetector::standard()));
        assert_eq!(registry.len(), 2);
        let cache = AnalysisCache::new();
        let hits =
            split.test.iter().filter(|s| s.label).filter(|s| registry.verdict(s, &cache).0).count();
        let total = split.test.iter().filter(|s| s.label).count();
        assert!(hits * 10 >= total * 8, "combined registry should catch most: {hits}/{total}");
    }
}
