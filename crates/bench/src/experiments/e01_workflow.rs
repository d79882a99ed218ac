//! E01 — Figure 1: the end-to-end industry vulnerability-management
//! workflow.
//!
//! Runs a realistic (imbalanced, multi-team) change stream through the
//! full pipeline — automated detection, threat-model gating, manual
//! security review, and the three repair channels — and prints per-stage
//! counts that mirror the boxes of the paper's Figure 1.

use vulnman_analysis::detectors::{
    BoundsDetector, CredentialDetector, NullDerefDetector, OverflowDetector, RuleEngine,
    TaintDetector,
};
use vulnman_core::costmodel::CostParams;
use vulnman_core::detector::{DetectorRegistry, MlDetector, RuleBasedDetector};
use vulnman_core::report::{fmt3, pct, usd, Table};
use vulnman_core::workflow::{RepairChannel, WorkflowConfig, WorkflowEngine};
use vulnman_ml::pipeline::model_zoo;
use vulnman_synth::dataset::DatasetBuilder;
use vulnman_synth::style::StyleProfile;
use vulnman_synth::tier::Tier;

/// Runs the experiment and returns the workflow report for assertions.
pub fn run(quick: bool) -> vulnman_core::workflow::WorkflowReport {
    crate::banner(
        "E01",
        "Figure 1 — industry security vulnerability management workflow",
        "\"Two main stages … Vulnerability Assessment and Vulnerability Repair\", with \
         manual review gated on zero/one-click surfaces",
    );
    let n_vuln = if quick { 25 } else { 120 };

    // Training corpus for the ML detector that augments the rule suite.
    let train = DatasetBuilder::new(101).vulnerable_count(n_vuln * 2).build();
    let mut model = model_zoo(7).remove(2); // graph-rf
    model.train(&train);

    // The incoming change stream: imbalanced, all teams, all tiers.
    let stream = DatasetBuilder::new(102)
        .teams({
            let mut t = vec![StyleProfile::mainstream()];
            t.extend(StyleProfile::internal_teams());
            t
        })
        .vulnerable_count(n_vuln)
        .vulnerable_fraction(0.15)
        .tier_mix(vec![(Tier::Simple, 1.0), (Tier::Curated, 2.0), (Tier::RealWorld, 2.0)])
        .build();

    // A deliberately *partial* rule suite: like any real deployment, the
    // installed tools do not cover every class (no UAF or TOCTOU analyzer
    // here) — those classes can only be caught by the manual-review gate.
    let mut partial = RuleEngine::new();
    partial.register(Box::new(TaintDetector::default_config()));
    partial.register(Box::new(BoundsDetector));
    partial.register(Box::new(OverflowDetector));
    partial.register(Box::new(NullDerefDetector));
    partial.register(Box::new(CredentialDetector));
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::new("partial-rule-suite", partial)));
    registry.register(Box::new(MlDetector::new(model)));
    let engine = WorkflowEngine::new(registry, WorkflowConfig::default());

    let t0 = std::time::Instant::now();
    let report = engine.process(stream.samples());
    let seq_ms = t0.elapsed().as_millis();

    let total = report.cases.len();
    let vulnerable = report.cases.iter().filter(|c| c.truly_vulnerable).count();
    let flagged = report.cases.iter().filter(|c| c.auto_flagged).count();
    let reviewed = report.cases.iter().filter(|c| c.manually_reviewed).count();
    let review_catches = report.cases.iter().filter(|c| c.review_catch && !c.auto_flagged).count();
    let detected = report.cases.iter().filter(|c| c.detected() && c.truly_vulnerable).count();

    let mut t = Table::new(vec!["Figure-1 stage", "count", "notes"]);
    t.row(vec![
        "changes submitted".into(),
        total.to_string(),
        format!("{vulnerable} truly vulnerable"),
    ]);
    t.row(vec![
        "automated detection flags".into(),
        flagged.to_string(),
        "rule suite + graph-rf model".into(),
    ]);
    t.row(vec![
        "manual security reviews".into(),
        reviewed.to_string(),
        format!("{} of surface gate", pct(report.review_rate())),
    ]);
    t.row(vec![
        "  caught only by review".into(),
        review_catches.to_string(),
        "zero/one-click gate at work".into(),
    ]);
    t.row(vec![
        "vulnerabilities detected".into(),
        detected.to_string(),
        format!("recall {}", fmt3(report.detection_metrics().recall())),
    ]);
    t.row(vec![
        "repaired via auto-fix".into(),
        report.auto_fixed.to_string(),
        "verified by re-scan".into(),
    ]);
    t.row(vec![
        "repaired via AI suggestion".into(),
        report.ai_fixed.to_string(),
        "human-verified".into(),
    ]);
    t.row(vec![
        "repaired via expert".into(),
        report.expert_fixed.to_string(),
        format!("{:.1} expert hours", report.expert_hours),
    ]);
    t.row(vec!["escaped all stages".into(), report.escaped.to_string(), "shipped risk".into()]);
    t.print("E01.a  workflow stage counts (Figure 1)");

    let repaired: usize = report.auto_fixed + report.ai_fixed + report.expert_fixed;
    let mut t2 = Table::new(vec!["repair channel", "share", "paper framing"]);
    for (ch, n, note) in [
        (RepairChannel::AutoFix, report.auto_fixed, "\"unified approach … framework\""),
        (RepairChannel::AiSuggestion, report.ai_fixed, "\"real-time repair … LLMs\""),
        (RepairChannel::Expert, report.expert_fixed, "\"expert recommendations\""),
    ] {
        t2.row(vec![format!("{ch:?}"), pct(n as f64 / repaired.max(1) as f64), note.into()]);
    }
    t2.print("E01.b  repair-channel mix");

    let cost = report.price(&CostParams::default());
    let mut t3 = Table::new(vec!["economics", "value"]);
    t3.row(vec!["analyst minutes".into(), format!("{:.0}", report.analyst_minutes)]);
    t3.row(vec!["triage + labour cost".into(), usd(cost.triage_cost)]);
    t3.row(vec!["prevented breach loss".into(), usd(cost.prevented_loss)]);
    t3.row(vec!["net value".into(), usd(cost.net_value)]);
    t3.row(vec!["sequential wall-time".into(), format!("{seq_ms} ms")]);
    t3.print("E01.c  run economics");

    // E01.d: finite review capacity — the "scalability and prioritization"
    // requirement. Reviews are allocated to the most exposed surfaces first.
    let full_minutes = report.analyst_minutes;
    let mut t4 = Table::new(vec![
        "review budget",
        "reviews done",
        "reviews skipped",
        "escaped",
        "zero-click reviewed",
    ]);
    for (label, budget) in [
        ("unlimited", f64::INFINITY),
        ("50% of demand", full_minutes * 0.5),
        ("20% of demand", full_minutes * 0.2),
        ("none", 0.0),
    ] {
        let r = engine.process_with_capacity(stream.samples(), budget);
        let reviewed = r.cases.iter().filter(|c| c.manually_reviewed).count();
        let zc_total =
            r.cases.iter().filter(|c| c.surface == vulnman_analysis::Surface::ZeroClick).count();
        let zc_reviewed = r
            .cases
            .iter()
            .filter(|c| c.surface == vulnman_analysis::Surface::ZeroClick && c.manually_reviewed)
            .count();
        t4.row(vec![
            label.into(),
            reviewed.to_string(),
            r.reviews_skipped.to_string(),
            r.escaped.to_string(),
            format!("{zc_reviewed}/{zc_total}"),
        ]);
    }
    t4.print("E01.d  review capacity: prioritized allocation under scarcity");
    println!(
        "shape check: as capacity shrinks, zero-click surfaces keep their reviews \
         longest and escapes grow — prioritization, not uniform sampling."
    );
    crate::dump_metrics(&engine.metrics_snapshot());
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn e01_shape() {
        let report = super::run(true);
        // Every Figure-1 stage must be exercised.
        assert!(report.cases.iter().any(|c| c.auto_flagged));
        assert!(report.cases.iter().any(|c| c.manually_reviewed));
        assert!(report.auto_fixed > 0);
        assert!(report.expert_fixed + report.ai_fixed > 0);
        assert!(report.detection_metrics().recall() > 0.7);
        // Escapes, if any, are local-surface logic classes the automation
        // and the surface gate both miss.
        for c in &report.cases {
            if c.truly_vulnerable && !c.detected() {
                assert_eq!(c.surface, vulnman_analysis::Surface::Local, "{c:?}");
            }
        }
    }
}
