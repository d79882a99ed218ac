//! End-to-end detection models: feature extractor + classifier, plus the
//! heterogeneous "model zoo" used throughout the experiments.

use crate::eval::Metrics;
use crate::features::{
    uncached, ArtifactTextFeatures, AstStatFeatures, ComposedFeatures, ExpertFlowFeatures,
    FeatureExtractor, NormalizedTokenFeatures, TokenNgramFeatures,
};
use crate::knn::Knn;
use crate::linear::LogisticRegression;
use crate::mlp::Mlp;
use crate::model::Classifier;
use crate::naive_bayes::GaussianNb;
use crate::tree::RandomForest;
use vulnman_lang::AnalysisCache;
use vulnman_synth::dataset::Dataset;
use vulnman_synth::sample::Sample;

/// A trainable vulnerability-detection model.
pub struct DetectionModel {
    name: String,
    features: Box<dyn FeatureExtractor>,
    classifier: Box<dyn Classifier>,
    trained: bool,
    // Replay cache of everything the model has been trained on, so
    // fine-tuning continues training instead of forgetting (see
    // `fine_tune`).
    seen_x: Vec<Vec<f64>>,
    seen_y: Vec<bool>,
    // Observability handles (no-op unless `attach_metrics` was called):
    // train/predict wall-clock and prediction volume under
    // `ml.<name>.{train_micros, predict_micros, predictions}`.
    train_micros: vulnman_obs::Histogram,
    predict_micros: vulnman_obs::Histogram,
    predictions: vulnman_obs::Counter,
}

impl std::fmt::Debug for DetectionModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectionModel")
            .field("name", &self.name)
            .field("features", &self.features.name())
            .field("classifier", &self.classifier.name())
            .field("trained", &self.trained)
            .finish()
    }
}

impl DetectionModel {
    /// Bundles an extractor and a classifier under a display name.
    pub fn new(
        name: impl Into<String>,
        features: Box<dyn FeatureExtractor>,
        classifier: Box<dyn Classifier>,
    ) -> Self {
        DetectionModel {
            name: name.into(),
            features,
            classifier,
            trained: false,
            seen_x: Vec::new(),
            seen_y: Vec::new(),
            train_micros: vulnman_obs::Histogram::default(),
            predict_micros: vulnman_obs::Histogram::default(),
            predictions: vulnman_obs::Counter::default(),
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches a metrics registry: training and prediction wall-clock land
    /// in `ml.<name>.train_micros` / `ml.<name>.predict_micros` histograms
    /// and prediction volume on the `ml.<name>.predictions` counter.
    pub fn attach_metrics(&mut self, metrics: &vulnman_obs::Registry) {
        self.train_micros = metrics.histogram(&format!("ml.{}.train_micros", self.name));
        self.predict_micros = metrics.histogram(&format!("ml.{}.predict_micros", self.name));
        self.predictions = metrics.counter(&format!("ml.{}.predictions", self.name));
    }

    /// Returns `true` once the model has been trained.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Trains on a dataset using its *observed* labels (models in the wild
    /// never see ground truth — that is exactly Gap Observation 4).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train(&mut self, data: &Dataset) {
        let t0 = self.train_micros.is_enabled().then(std::time::Instant::now);
        let (x, y) = self.matrix(data);
        self.classifier.fit(&x, &y);
        self.seen_x = x;
        self.seen_y = y;
        self.trained = true;
        if let Some(t0) = t0 {
            self.train_micros.observe_duration(t0.elapsed());
        }
    }

    /// Continues training on new data (fine-tuning / customization,
    /// Gap Observation 2).
    ///
    /// Fine-tuning uses *replay*: the new samples are appended to everything
    /// the model has already seen and the classifier is retrained on the
    /// union. This keeps the semantics uniform across model families
    /// (gradient models could warm-start, but instance/tree models would
    /// otherwise catastrophically forget the generic corpus).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fine_tune(&mut self, data: &Dataset) {
        let t0 = self.train_micros.is_enabled().then(std::time::Instant::now);
        let (x, y) = self.matrix(data);
        self.seen_x.extend(x);
        self.seen_y.extend(y);
        self.classifier.fit(&self.seen_x.clone(), &self.seen_y.clone());
        self.trained = true;
        if let Some(t0) = t0 {
            self.train_micros.observe_duration(t0.elapsed());
        }
    }

    fn matrix(&self, data: &Dataset) -> (Vec<Vec<f64>>, Vec<bool>) {
        let x: Vec<Vec<f64>> = data.iter().map(|s| self.features.extract(s)).collect();
        let y: Vec<bool> = data.iter().map(|s| s.observed_label).collect();
        (x, y)
    }

    /// Probability the sample is vulnerable:
    /// [`DetectionModel::predict_proba_cached`] over a pass-through cache.
    pub fn predict_proba(&self, sample: &Sample) -> f64 {
        let key = AnalysisCache::content_key(&sample.source);
        self.predict_proba_cached(sample, uncached(), key)
    }

    /// Probability the sample is vulnerable, with features extracted
    /// through `cache` under `content_key` (see
    /// [`FeatureExtractor::extract_cached`]). The score does not depend on
    /// the cache's state.
    pub fn predict_proba_cached(
        &self,
        sample: &Sample,
        cache: &AnalysisCache,
        content_key: u64,
    ) -> f64 {
        self.predictions.inc();
        let t0 = self.predict_micros.is_enabled().then(std::time::Instant::now);
        let x = self.features.extract_cached(sample, cache, content_key);
        let p = self.classifier.predict_proba(&x);
        if let Some(t0) = t0 {
            self.predict_micros.observe_duration(t0.elapsed());
        }
        p
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, sample: &Sample) -> bool {
        self.predict_proba(sample) >= 0.5
    }

    /// Predictions over a whole dataset, via one batched scoring pass.
    pub fn predict_all(&self, data: &Dataset) -> Vec<bool> {
        self.scores(data).iter().map(|&p| p >= 0.5).collect()
    }

    /// Scores over a whole dataset in one batch: every sample's features
    /// are extracted first, then the classifier scores the matrix in a
    /// single [`Classifier::predict_proba_batch`] pass. Bit-identical to
    /// mapping [`DetectionModel::predict_proba`] over the dataset.
    pub fn scores(&self, data: &Dataset) -> Vec<f64> {
        self.predictions.add(data.len() as u64);
        let t0 = self.predict_micros.is_enabled().then(std::time::Instant::now);
        let xs: Vec<Vec<f64>> = data.iter().map(|s| self.features.extract(s)).collect();
        let p = self.classifier.predict_proba_batch(&xs);
        if let Some(t0) = t0 {
            self.predict_micros.observe_duration(t0.elapsed());
        }
        p
    }

    /// Evaluates against *ground-truth* labels.
    pub fn evaluate(&self, data: &Dataset) -> Metrics {
        let pred = self.predict_all(data);
        let truth: Vec<bool> = data.iter().map(|s| s.label).collect();
        Metrics::from_predictions(&pred, &truth)
    }
}

/// The five heterogeneous model families used across the experiments,
/// standing in for the DL families the paper surveys:
///
/// | name         | features     | classifier     | stands in for            |
/// |--------------|--------------|----------------|---------------------------|
/// | `token-lr`   | token n-gram | logistic reg.  | transformer (LineVul-ish) |
/// | `token-mlp`  | token n-gram | MLP            | RNN (VulDeePecker-ish)    |
/// | `graph-rf`   | expert flow  | random forest  | GNN (Devign/VulChecker)   |
/// | `stat-nb`    | AST stats    | naive Bayes    | classic shallow models    |
/// | `clone-knn`  | normalized n-gram | k-NN      | clone/similarity methods  |
pub fn model_zoo(seed: u64) -> Vec<DetectionModel> {
    let token_dim = 512;
    vec![
        DetectionModel::new(
            "token-lr",
            Box::new(TokenNgramFeatures::new(token_dim)),
            Box::new(LogisticRegression::new(token_dim, seed ^ 0x11)),
        ),
        DetectionModel::new("token-mlp", Box::new(TokenNgramFeatures::new(token_dim)), {
            // Normalized token vectors carry small per-feature signal; the
            // MLP needs a hotter learning rate than its generic default.
            let mut mlp = Mlp::new(token_dim, 16, seed ^ 0x22);
            mlp.learning_rate = 0.8;
            Box::new(mlp)
        }),
        DetectionModel::new(
            "graph-rf",
            Box::new(ExpertFlowFeatures::new()),
            Box::new(RandomForest::new(15, 6, seed ^ 0x33)),
        ),
        DetectionModel::new("stat-nb", Box::new(AstStatFeatures), Box::new(GaussianNb::new())),
        DetectionModel::new(
            "clone-knn",
            // Clone detectors normalize identifiers before matching.
            Box::new(NormalizedTokenFeatures::new(token_dim)),
            Box::new(Knn::new(5)),
        ),
    ]
}

/// A multimodal variant of the token model: code tokens + artifact text
/// (experiment E11).
pub fn multimodal_model(seed: u64) -> DetectionModel {
    let features = ComposedFeatures::new(vec![
        Box::new(TokenNgramFeatures::new(256)),
        Box::new(ArtifactTextFeatures::new(64)),
    ]);
    let dim = features.dim();
    DetectionModel::new(
        "token+artifacts-lr",
        Box::new(features),
        Box::new(LogisticRegression::new(dim, seed ^ 0x44)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::stratified_split;
    use vulnman_synth::dataset::DatasetBuilder;

    fn corpus(seed: u64) -> Dataset {
        DatasetBuilder::new(seed).vulnerable_count(200).vulnerable_fraction(0.5).build()
    }

    #[test]
    fn every_zoo_model_learns_the_balanced_task() {
        let ds = corpus(1);
        let split = stratified_split(&ds, 0.3, 2);
        for mut model in model_zoo(7) {
            model.train(&split.train);
            let m = model.evaluate(&split.test);
            // Shallow structural stats are the weakest family (the paper
            // cites exactly this: "shallow or deep?"). At this small test
            // size every family clears 0.7; the experiment-scale corpora in
            // `vulnman-bench` reach the high-80s/low-90s the paper reports.
            let floor = if model.name() == "stat-nb" { 0.55 } else { 0.68 };
            assert!(
                m.f1() > floor,
                "{} should learn the curated task, got F1={:.2}",
                model.name(),
                m.f1()
            );
        }
    }

    #[test]
    fn zoo_models_disagree_somewhere() {
        let ds = corpus(3);
        let split = stratified_split(&ds, 0.3, 4);
        let preds: Vec<Vec<bool>> = model_zoo(9)
            .into_iter()
            .map(|mut m| {
                m.train(&split.train);
                m.predict_all(&split.test)
            })
            .collect();
        let n = split.test.len();
        let unanimous = (0..n).filter(|&i| preds.iter().all(|p| p[i] == preds[0][i])).count();
        assert!(unanimous < n, "heterogeneous families should not be identical");
    }

    #[test]
    fn multimodal_model_trains() {
        let ds = corpus(5);
        let split = stratified_split(&ds, 0.3, 6);
        let mut m = multimodal_model(1);
        m.train(&split.train);
        assert!(m.is_trained());
        assert!(m.evaluate(&split.test).f1() > 0.7);
    }

    #[test]
    fn batched_scores_bit_identical_to_per_sample() {
        let ds = corpus(15);
        let split = stratified_split(&ds, 0.3, 8);
        for mut m in model_zoo(17) {
            m.train(&split.train);
            let batched = m.scores(&split.test);
            let single: Vec<f64> = split.test.iter().map(|s| m.predict_proba(s)).collect();
            assert_eq!(batched.len(), single.len());
            for (i, (a, b)) in batched.iter().zip(&single).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} row {i}: batch {a} vs single {b}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn proba_and_hard_predictions_consistent() {
        let ds = corpus(7);
        let mut m = model_zoo(1).remove(0);
        m.train(&ds);
        for s in ds.iter().take(10) {
            assert_eq!(m.predict(s), m.predict_proba(s) >= 0.5);
        }
    }

    #[test]
    fn attached_metrics_record_training_and_predictions() {
        let ds = corpus(9);
        let metrics = vulnman_obs::Registry::new();
        let mut m = model_zoo(1).remove(0);
        m.attach_metrics(&metrics);
        m.train(&ds);
        let n_pred = 10;
        for s in ds.iter().take(n_pred) {
            m.predict(s);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.histograms["ml.token-lr.train_micros"].count, 1);
        assert_eq!(snap.histograms["ml.token-lr.predict_micros"].count, n_pred as u64);
        assert_eq!(snap.counters["ml.token-lr.predictions"], n_pred as u64);
        // Fine-tuning lands in the same training histogram.
        m.fine_tune(&ds);
        let snap = metrics.snapshot();
        assert_eq!(snap.histograms["ml.token-lr.train_micros"].count, 2);
    }

    #[test]
    fn debug_format_names_parts() {
        let m = model_zoo(1).remove(2);
        let s = format!("{m:?}");
        assert!(s.contains("graph-rf"));
        assert!(s.contains("expert-flow"));
        assert!(s.contains("random-forest"));
    }
}
