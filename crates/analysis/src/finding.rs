//! Findings reported by static detectors.

use serde::{Deserialize, Serialize};
use std::fmt;
use vulnman_lang::Span;
use vulnman_synth::cwe::Cwe;

/// Confidence a detector attaches to a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Confidence {
    /// Heuristic match; expect false positives.
    Low,
    /// Pattern match with supporting context.
    Medium,
    /// Data-flow-confirmed or structurally certain.
    High,
}

impl Confidence {
    /// How much one finding at this confidence counts when tool verdicts
    /// become ML features: 1.0 for high, 0.7 for medium, 0.4 for low.
    pub fn weight(self) -> f64 {
        match self {
            Confidence::High => 1.0,
            Confidence::Medium => 0.7,
            Confidence::Low => 0.4,
        }
    }
}

/// One abstract fact backing a semantic finding: a variable and its
/// abstract value at the report point, rendered by the domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvidenceFact {
    /// Variable the fact is about.
    pub var: String,
    /// The domain's rendering of the abstract value (e.g. `[33, 33]`,
    /// `maybe-null`).
    pub value: String,
}

/// Machine-checkable evidence for a semantic (abstract-interpretation)
/// finding: the abstract state at the report point plus the claim the
/// checker derived from it. Re-running the named domain to the same program
/// point must reproduce every fact — that is what "machine-checkable"
/// means here, and what the differential oracle exploits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evidence {
    /// Name of the abstract domain that proved the claim.
    pub domain: String,
    /// The abstract facts (variable states) at the report point.
    pub facts: Vec<EvidenceFact>,
    /// The checker's conclusion drawn from the facts.
    pub claim: String,
}

impl fmt::Display for Evidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} domain: {}", self.domain, self.claim)?;
        for fact in &self.facts {
            write!(f, "; {} = {}", fact.var, fact.value)?;
        }
        Ok(())
    }
}

/// A single static-analysis finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Vulnerability class.
    pub cwe: Cwe,
    /// Function the finding is located in.
    pub function: String,
    /// Source location of the flagged construct.
    pub span: Span,
    /// Name of the detector that produced this finding.
    pub detector: String,
    /// Human-readable explanation.
    pub message: String,
    /// Detector confidence.
    pub confidence: Confidence,
    /// Abstract-state evidence, present on semantic-checker findings
    /// (serialized as `null` elsewhere; absent keys also read as `None`).
    pub evidence: Option<Evidence>,
}

impl Finding {
    /// 1-based source line of the finding (0 when synthesized).
    pub fn line(&self) -> u32 {
        self.span.line
    }

    /// Identity of the underlying defect, independent of which detector
    /// family reported it: class, containing function, and exact source
    /// span. A rule detector and a semantic checker converging on the same
    /// construct collide here; distinct defects of one class never do.
    pub fn dedupe_key(&self) -> (u32, &str, usize, usize) {
        (self.cwe.id(), &self.function, self.span.start, self.span.end)
    }
}

/// Collapses detector-family double-reports: findings sharing a
/// [`Finding::dedupe_key`] are merged down to the single best report. The
/// evidence-bearing (semantic) finding wins over an evidence-free rule
/// match; among equals, higher confidence wins, then first-reported. The
/// survivor keeps the position of the key's first occurrence, so output
/// order is a pure function of the input — byte-identical across worker
/// counts and cache states.
pub fn dedupe_findings(findings: Vec<Finding>) -> Vec<Finding> {
    let mut first_slot: std::collections::BTreeMap<(u32, String, usize, usize), usize> =
        std::collections::BTreeMap::new();
    let mut slots: Vec<Option<Finding>> = Vec::with_capacity(findings.len());
    for f in findings {
        let (id, func, start, end) = f.dedupe_key();
        let key = (id, func.to_string(), start, end);
        match first_slot.get(&key) {
            None => {
                first_slot.insert(key, slots.len());
                slots.push(Some(f));
            }
            Some(&i) => {
                let held = slots[i].as_ref().expect("slot holds the current best");
                let wins = (f.evidence.is_some(), f.confidence)
                    > (held.evidence.is_some(), held.confidence);
                if wins {
                    slots[i] = Some(f);
                }
            }
        }
    }
    slots.into_iter().flatten().collect()
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?}] {} in `{}` at {}: {} ({})",
            self.confidence, self.cwe, self.function, self.span, self.message, self.detector
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_orders() {
        assert!(Confidence::Low < Confidence::Medium);
        assert!(Confidence::Medium < Confidence::High);
    }

    fn finding(detector: &str, confidence: Confidence, evidence: Option<Evidence>) -> Finding {
        Finding {
            cwe: Cwe::UseAfterFree,
            function: "handle".into(),
            span: Span::new(10, 24, 3, 5),
            detector: detector.into(),
            message: "use after free".into(),
            confidence,
            evidence,
        }
    }

    #[test]
    fn dedupe_keeps_the_evidence_bearing_report() {
        let rule = finding("lifetime-order", Confidence::High, None);
        let semantic = finding(
            "absint-ownership",
            Confidence::High,
            Some(Evidence { domain: "ownership".into(), facts: vec![], claim: "freed".into() }),
        );
        // Same defect from two families: the proof survives, either order.
        let out = dedupe_findings(vec![rule.clone(), semantic.clone()]);
        assert_eq!(out, vec![semantic.clone()]);
        let out = dedupe_findings(vec![semantic.clone(), rule.clone()]);
        assert_eq!(out, vec![semantic.clone()]);
        // Distinct spans are distinct defects.
        let mut elsewhere = rule.clone();
        elsewhere.span = Span::new(40, 52, 7, 1);
        let out = dedupe_findings(vec![rule.clone(), elsewhere.clone()]);
        assert_eq!(out, vec![rule.clone(), elsewhere]);
        // Among evidence-free reports, higher confidence wins; position is
        // the first occurrence's.
        let low = finding("heuristic", Confidence::Low, None);
        let mut other = low.clone();
        other.span = Span::new(1, 2, 1, 1);
        let out = dedupe_findings(vec![other.clone(), low, rule.clone()]);
        assert_eq!(out, vec![other, rule]);
    }

    #[test]
    fn display_is_informative() {
        let f = Finding {
            cwe: Cwe::SqlInjection,
            function: "handle".into(),
            span: Span::new(0, 4, 3, 5),
            detector: "taint".into(),
            message: "tainted query".into(),
            confidence: Confidence::High,
            evidence: None,
        };
        let s = f.to_string();
        assert!(s.contains("CWE-89"));
        assert!(s.contains("handle"));
        assert!(s.contains("3:5"));
        assert_eq!(f.line(), 3);
    }
}
