//! E19 — ablations of the design choices `DESIGN.md` calls out.
//!
//! Three levers, each isolated: (a) interprocedural summaries in the taint
//! engine, (b) hard (patched-twin) negatives in training corpora, and
//! (c) the registry's verdict-combination policy.

use vulnman_core::detector::{DetectorRegistry, MlDetector, RuleBasedDetector};
use vulnman_core::report::{fmt3, Table};
use vulnman_lang::taint::{TaintAnalysis, TaintConfig};
use vulnman_lang::AnalysisCache;
use vulnman_ml::eval::Metrics;
use vulnman_ml::pipeline::model_zoo;
use vulnman_ml::split::stratified_split;
use vulnman_synth::cwe::{Cwe, CweDistribution};
use vulnman_synth::dataset::DatasetBuilder;
use vulnman_synth::style::StyleProfile;
use vulnman_synth::tier::Tier;

/// Result bundle for assertions.
#[derive(Debug)]
pub struct AblationResult {
    /// `(intra recall, inter recall)` on wrapped real-world flows.
    pub taint: (f64, f64),
    /// `(hard-negative fraction, precision on hard negatives)` rows.
    pub hard_negatives: Vec<(f64, f64)>,
    /// `(policy, precision, recall)` rows.
    pub policies: Vec<(String, f64, f64)>,
}

/// Runs the experiment.
pub fn run(quick: bool) -> AblationResult {
    crate::banner(
        "E19",
        "ablations: interprocedural taint, hard negatives, verdict policy",
        "design-choice ablations promised in DESIGN.md §4",
    );

    // (a) Interprocedural summaries. Real-world tier wraps sources/sinks in
    // team helpers; intraprocedural analysis goes blind.
    let n = if quick { 60 } else { 200 };
    let taint_corpus = DatasetBuilder::new(1901)
        .vulnerable_count(n)
        .vulnerable_fraction(0.5)
        .cwe_distribution(CweDistribution::new(vec![
            (Cwe::SqlInjection, 2.0),
            (Cwe::CommandInjection, 1.0),
            (Cwe::CrossSiteScripting, 1.0),
            (Cwe::PathTraversal, 1.0),
        ]))
        .teams(vec![StyleProfile {
            helper_wrap_prob: 0.9, // force interprocedural distance
            ..StyleProfile::mainstream()
        }])
        .tier_mix(vec![(Tier::RealWorld, 1.0)])
        .build();
    let config = TaintConfig::default_config();
    let mut intra_hits = 0usize;
    let mut inter_hits = 0usize;
    let mut total = 0usize;
    for s in taint_corpus.iter().filter(|s| s.label) {
        let Ok(p) = vulnman_lang::parse(&s.source) else { continue };
        total += 1;
        if TaintAnalysis::run_intraprocedural(&p, &config).function_has_finding(&s.target_fn) {
            intra_hits += 1;
        }
        if TaintAnalysis::run(&p, &config).function_has_finding(&s.target_fn) {
            inter_hits += 1;
        }
    }
    let taint = (intra_hits as f64 / total as f64, inter_hits as f64 / total as f64);
    let mut t = Table::new(vec!["taint analysis", "recall on wrapped real-world flows"]);
    t.row(vec!["intraprocedural (no summaries)".into(), fmt3(taint.0)]);
    t.row(vec!["interprocedural (summaries)".into(), fmt3(taint.1)]);
    t.print("E19.a  what function summaries buy");

    // (b) Hard negatives in training.
    let hard_eval = DatasetBuilder::new(1902)
        .vulnerable_count(if quick { 60 } else { 150 })
        .vulnerable_fraction(0.5)
        .hard_negative_fraction(1.0)
        .build();
    let mut hard_rows = Vec::new();
    let mut t2 = Table::new(vec![
        "hard-negative fraction in training",
        "precision on patched-twin negatives",
        "recall",
    ]);
    for frac in [0.0, 0.5, 1.0] {
        let train = DatasetBuilder::new(1903)
            .vulnerable_count(if quick { 100 } else { 250 })
            .vulnerable_fraction(0.5)
            .hard_negative_fraction(frac)
            .build();
        let mut model = model_zoo(67).remove(0);
        model.train(&train);
        let m = model.evaluate(&hard_eval);
        t2.row(vec![fmt3(frac), fmt3(m.precision()), fmt3(m.recall())]);
        hard_rows.push((frac, m.precision()));
    }
    t2.print("E19.b  hard negatives teach the difference between flaw and fix");

    // (c) Verdict combination policy across a heterogeneous registry.
    let train = DatasetBuilder::new(1904).vulnerable_count(if quick { 100 } else { 250 }).build();
    let split = stratified_split(
        &DatasetBuilder::new(1905)
            .vulnerable_count(if quick { 60 } else { 150 })
            .vulnerable_fraction(0.3)
            .build(),
        0.99,
        1,
    );
    let mut policies = Vec::new();
    let mut t3 = Table::new(vec!["combine policy", "precision", "recall", "F1"]);
    for (name, policy) in [
        ("Any (union)", vulnman_core::CombinePolicy::Any),
        ("Majority", vulnman_core::CombinePolicy::Majority),
    ] {
        let mut registry = DetectorRegistry::new().with_policy(policy);
        registry.register(Box::new(RuleBasedDetector::standard()));
        for mut m in model_zoo(69).into_iter().take(2) {
            m.train(&train);
            registry.register(Box::new(MlDetector::new(m)));
        }
        let cache = AnalysisCache::new();
        let pred: Vec<bool> = split.test.iter().map(|s| registry.verdict(s, &cache).0).collect();
        let truth: Vec<bool> = split.test.iter().map(|s| s.label).collect();
        let m = Metrics::from_predictions(&pred, &truth);
        t3.row(vec![name.into(), fmt3(m.precision()), fmt3(m.recall()), fmt3(m.f1())]);
        policies.push((name.to_string(), m.precision(), m.recall()));
    }
    t3.print("E19.c  verdict combination across the detector registry");
    println!(
        "shape check: summaries recover the wrapped flows intra-analysis misses; \
         hard negatives buy precision on patched twins; union maximizes recall \
         while majority trades it for precision."
    );
    AblationResult { taint, hard_negatives: hard_rows, policies }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e19_shape() {
        let r = super::run(true);
        // (a) Summaries strictly add recall on wrapped flows.
        assert!(r.taint.1 > r.taint.0 + 0.2, "{:?}", r.taint);
        assert!(r.taint.1 > 0.95, "interprocedural should be near-complete: {:?}", r.taint);
        // (b) Hard negatives improve precision on patched twins.
        let first = r.hard_negatives.first().unwrap().1;
        let last = r.hard_negatives.last().unwrap().1;
        assert!(last > first, "{:?}", r.hard_negatives);
        // (c) Union recall ≥ majority recall; majority precision ≥ union.
        let any = &r.policies[0];
        let maj = &r.policies[1];
        assert!(any.2 >= maj.2 - 1e-9, "{:?}", r.policies);
        assert!(maj.1 >= any.1 - 1e-9, "{:?}", r.policies);
    }
}
