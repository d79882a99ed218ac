//! Cross-crate property tests: invariants that must hold for *any* seed,
//! knob setting, or generated program.

use proptest::prelude::*;
use vulnman::core::anonymize::{identifier_leakage, Anonymizer, Strength};
use vulnman::lang::clone::{
    estimated_jaccard, exact_jaccard, CloneConfig, CloneIndex, MinHasher, UnionFind,
};
use vulnman::lang::interp::{run_program, InterpConfig};
use vulnman::ml::eval::{roc_auc, Metrics};
use vulnman::prelude::*;
use vulnman::synth::emit::EmitCtx;
use vulnman::synth::templates;

fn all_styles() -> Vec<StyleProfile> {
    let mut v = vec![StyleProfile::mainstream()];
    v.extend(StyleProfile::internal_teams());
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every template under every style/tier parses, round-trips through
    /// the printer, and interprets without panicking.
    #[test]
    fn template_parse_print_interp_roundtrip(
        seed in any::<u64>(),
        cwe_idx in 0usize..14,
        style_idx in 0usize..4,
        tier_idx in 0usize..3,
    ) {
        use rand::SeedableRng;
        let styles = all_styles();
        let tier = Tier::ALL[tier_idx];
        let cwe = Cwe::ALL[cwe_idx];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ctx = EmitCtx::new(&styles[style_idx], tier, &mut rng);
        let pair = templates::generate(cwe, &mut ctx);
        for source in [&pair.vulnerable, &pair.fixed] {
            // Parse.
            let program = parse(source).expect("template parses");
            // Print → parse → print is a fixpoint.
            let printed = print_program(&program);
            let reparsed = parse(&printed).expect("printed source reparses");
            prop_assert_eq!(&printed, &print_program(&reparsed));
            // Interpretation terminates within budget (no panic, no hang).
            let _ = run_program(&program, &InterpConfig::default());
        }
    }

    /// Dataset builders respect their knobs for arbitrary settings.
    #[test]
    fn dataset_knobs_respected(
        seed in any::<u64>(),
        n in 4usize..24,
        frac_pct in 10u32..=100,
        noise_pct in 0u32..=50,
        dup in 1usize..4,
    ) {
        let frac = frac_pct as f64 / 100.0;
        let noise = noise_pct as f64 / 100.0;
        let ds = DatasetBuilder::new(seed)
            .vulnerable_count(n)
            .vulnerable_fraction(frac)
            .label_noise(noise)
            .duplication_factor(dup)
            .build();
        prop_assert_eq!(ds.vulnerable_count(), n * dup);
        // Total ≈ dup × round(n / frac).
        let expected_base = (n as f64 / frac).round() as usize;
        prop_assert_eq!(ds.len(), expected_base * dup);
        // Noise stays plausible (binomial bound, generous).
        if noise == 0.0 {
            prop_assert_eq!(ds.mislabel_rate(), 0.0);
        } else {
            prop_assert!(ds.mislabel_rate() < noise + 0.35);
        }
        // Everything parses.
        for s in ds.iter() {
            prop_assert!(parse(&s.source).is_ok());
        }
    }

    /// Anonymization never breaks parseability and leakage is monotone
    /// non-increasing in strength.
    #[test]
    fn anonymization_monotone_and_parseable(seed in any::<u64>(), cwe_idx in 0usize..14) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let style = StyleProfile::mainstream();
        let mut ctx = EmitCtx::new(&style, Tier::Curated, &mut rng);
        let pair = templates::generate(Cwe::ALL[cwe_idx], &mut ctx);
        let mut sample = DatasetBuilder::new(1).vulnerable_count(1).build().samples()[0].clone();
        sample.source = pair.vulnerable;
        sample.target_fn = pair.target_fn;

        let mut last = f64::INFINITY;
        for strength in [Strength::Light, Strength::Standard, Strength::Aggressive] {
            let anon = Anonymizer::new(strength).anonymize(&sample).expect("anonymizes");
            prop_assert!(parse(&anon.sample.source).is_ok());
            let leak = identifier_leakage(&sample, &anon.sample);
            prop_assert!(leak <= last + 1e-9, "{:?} leaked {} > {}", strength, leak, last);
            last = leak;
        }
    }

    /// Confusion-matrix metrics satisfy their algebraic invariants.
    #[test]
    fn metrics_invariants(tp in 0usize..500, fp in 0usize..500, tn in 0usize..500, fn_ in 0usize..500) {
        let m = Metrics { tp, fp, tn, fn_ };
        let (p, r, f1, acc) = (m.precision(), m.recall(), m.f1(), m.accuracy());
        for v in [p, r, f1, acc] {
            prop_assert!((0.0..=1.0).contains(&v), "{v}");
        }
        if p > 0.0 && r > 0.0 {
            // F1 is the harmonic mean: between min and max of (p, r).
            prop_assert!(f1 <= p.max(r) + 1e-12);
            prop_assert!(f1 >= p.min(r) - 1e-12);
        }
        prop_assert_eq!(m.total(), tp + fp + tn + fn_);
    }

    /// ROC-AUC is bounded and anti-symmetric under label flip.
    #[test]
    fn auc_bounds_and_flip(scores in prop::collection::vec(0.0f64..1.0, 4..40), flip_at in 1usize..3) {
        let truth: Vec<bool> = scores.iter().enumerate().map(|(i, _)| i % (flip_at + 1) == 0).collect();
        let auc = roc_auc(&scores, &truth);
        prop_assert!((0.0..=1.0).contains(&auc));
        let flipped: Vec<bool> = truth.iter().map(|t| !t).collect();
        let auc_flipped = roc_auc(&scores, &flipped);
        // Both classes present on both sides => anti-symmetry holds.
        if truth.iter().any(|&t| t) && truth.iter().any(|&t| !t) {
            prop_assert!((auc + auc_flipped - 1.0).abs() < 1e-9, "{auc} + {auc_flipped}");
        }
    }

    /// The cost model is monotone: more false positives never increase net
    /// value; more true positives never decrease it.
    #[test]
    fn cost_model_monotone(tp in 1usize..200, fp in 0usize..200, extra in 1usize..50) {
        let params = CostParams::default();
        let base = Metrics { tp, fp, tn: 1000, fn_: 10 };
        let more_fp = Metrics { fp: fp + extra, ..base };
        let more_tp = Metrics { tp: tp + extra, fn_: 10usize.saturating_sub(extra), ..base };
        let v0 = price_deployment(&base, &params).net_value;
        prop_assert!(price_deployment(&more_fp, &params).net_value <= v0);
        prop_assert!(price_deployment(&more_tp, &params).net_value >= v0);
    }

    /// `parse` is total on arbitrary damage to well-formed sources: any
    /// truncation or byte mutation yields `Ok` or `ParseError`, never a
    /// panic or stack overflow.
    #[test]
    fn parse_never_panics_on_truncated_or_mutated_source(
        seed in any::<u64>(),
        cwe_idx in 0usize..14,
        cut_pct in 0u32..100,
        mutations in prop::collection::vec((any::<u16>(), any::<u8>()), 0..8),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let style = StyleProfile::mainstream();
        let mut ctx = EmitCtx::new(&style, Tier::Curated, &mut rng);
        let source = templates::generate(Cwe::ALL[cwe_idx], &mut ctx).vulnerable;

        // Truncate at an arbitrary char boundary (a partial upload).
        let cut = source.len() * cut_pct as usize / 100;
        let cut = (0..=cut).rev().find(|&i| source.is_char_boundary(i)).unwrap_or(0);
        let mut damaged: Vec<u8> = source.as_bytes()[..cut].to_vec();
        // Then flip some bytes (bit rot, merge damage). Keep them ASCII so
        // the result stays a valid str; non-UTF-8 can't reach parse(&str).
        for &(at, with) in &mutations {
            if !damaged.is_empty() {
                let i = at as usize % damaged.len();
                damaged[i] = with % 0x80;
            }
        }
        let damaged = String::from_utf8(damaged).expect("ascii mutations");
        let _ = parse(&damaged); // must return, not panic
    }

    /// Pathological nesting is rejected with an error, not a stack
    /// overflow, whichever bracket is abused.
    #[test]
    fn parse_rejects_arbitrary_deep_nesting(depth in 300usize..3000, which in 0usize..3) {
        let src = match which {
            0 => format!("int f() {{ return {}1{}; }}", "(".repeat(depth), ")".repeat(depth)),
            1 => format!("int f(int x) {{ return {}x; }}", "!".repeat(depth)),
            _ => format!("void f() {{ {} x = 1; {} }}", "while (1) {".repeat(depth), "}".repeat(depth)),
        };
        prop_assert!(parse(&src).is_err());
    }

    /// The workflow engine is a pure function of (samples, config): same
    /// inputs, same report — and a sharded run serializes to the same bytes.
    #[test]
    fn workflow_deterministic_and_identical_across_jobs(seed in any::<u64>()) {
        let ds = DatasetBuilder::new(seed).vulnerable_count(6).vulnerable_fraction(0.3).build();
        let mk = |jobs| {
            let mut registry = DetectorRegistry::new();
            registry.register(Box::new(RuleBasedDetector::standard()));
            WorkflowEngine::new(registry, WorkflowConfig { jobs, ..Default::default() })
        };
        let a = mk(1).process(ds.samples());
        let b = mk(1).process(ds.samples());
        prop_assert_eq!(&a, &b);
        let c = mk(3).process(ds.samples());
        prop_assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&c).unwrap());
    }

    /// The abstract-interpretation solver terminates (converges within its
    /// iteration backstop) on arbitrarily shaped deep-loop / nested-branch
    /// programs, and stays within the widening budget: each block can be
    /// widened at most once per tracked variable per domain, so widenings
    /// are linearly bounded by program size.
    #[test]
    fn absint_solver_terminates_on_deep_loops_and_branches(
        loop_depth in 1usize..6,
        branch_depth in 0usize..5,
        stride in 1i64..1000,
        bound in 1i64..1_000_000,
        descending in any::<bool>(),
    ) {
        let source = synthetic_loop_nest(loop_depth, branch_depth, stride, bound, descending);
        let program = parse(&source).expect("synthetic program parses");
        let scan = vulnman::analysis::checkers::SemanticEngine::new().analyze(&program);
        prop_assert!(
            scan.stats.converged,
            "solver hit the iteration backstop on:\n{source}"
        );
        // Generous linear budget: blocks × (loop_depth + vars) per domain.
        let blocks: usize = source.matches('{').count() * 4 + 16;
        let budget = (blocks * (loop_depth + branch_depth + 8) * 3) as u64;
        prop_assert!(
            scan.stats.widenings <= budget,
            "{} widenings exceeds the {} budget for:\n{source}",
            scan.stats.widenings,
            budget
        );
    }

    /// MinHash positional agreement is an unbiased Jaccard estimator with
    /// standard error `sqrt(J(1-J)/width)`: at width 256 the estimate must
    /// land within 0.2 (> 6 sigma) of the exact similarity for any pair of
    /// sets with arbitrary size and overlap.
    #[test]
    fn minhash_estimate_tracks_exact_jaccard(
        seed in any::<u64>(),
        shared in 0usize..200,
        a_extra in 0usize..200,
        b_extra in 0usize..200,
    ) {
        // Controlled overlap: `shared` common elements, then disjoint
        // tails. Element values are arbitrary (the hasher mixes them).
        let salt = seed | 1;
        let elem = |i: usize| (i as u64).wrapping_mul(salt);
        let a: Vec<u64> = (0..shared + a_extra).map(elem).collect();
        let b: Vec<u64> =
            (0..shared).chain(shared + a_extra..shared + a_extra + b_extra).map(elem).collect();
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        let exact = exact_jaccard(&a, &b);
        let hasher = MinHasher::new(seed, 256);
        let est = estimated_jaccard(&hasher.signature(&a), &hasher.signature(&b));
        prop_assert!((0.0..=1.0).contains(&est));
        prop_assert!(
            (est - exact).abs() <= 0.2,
            "estimate {est} strayed from exact {exact} (shared={shared}, extras={a_extra}/{b_extra})"
        );
    }

    /// MinHash signatures are a pure function of `(seed, width, set)`:
    /// rebuilding the hasher changes nothing, input order changes nothing,
    /// and a different seed yields a different hash family.
    #[test]
    fn minhash_signature_deterministic_and_order_invariant(
        seed in any::<u64>(),
        elems in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let sig = MinHasher::new(seed, 64).signature(&elems);
        prop_assert_eq!(&sig, &MinHasher::new(seed, 64).signature(&elems));
        let mut reversed = elems.clone();
        reversed.reverse();
        prop_assert_eq!(&sig, &MinHasher::new(seed, 64).signature(&reversed));
        // A distinct seed derives a distinct family; 64 independent
        // min-collisions at once is astronomically unlikely.
        prop_assert_ne!(&sig, &MinHasher::new(seed ^ 0xDEAD_BEEF, 64).signature(&elems));
    }

    /// Union-find invariants under arbitrary union sequences: `find` is
    /// idempotent, unioned elements land in one class, and `classes()` is
    /// a partition — every element in exactly one sorted class.
    #[test]
    fn union_find_partitions_under_arbitrary_unions(
        n in 1usize..60,
        unions in prop::collection::vec((any::<u16>(), any::<u16>()), 0..80),
    ) {
        let mut uf = UnionFind::new(n);
        let pairs: Vec<(usize, usize)> =
            unions.iter().map(|&(a, b)| (a as usize % n, b as usize % n)).collect();
        for &(a, b) in &pairs {
            uf.union(a, b);
            prop_assert!(uf.same(a, b));
        }
        for x in 0..n {
            let root = uf.find(x);
            prop_assert_eq!(root, uf.find(root), "find must be idempotent");
        }
        // Unions persist: recheck the full history after all merges.
        for &(a, b) in &pairs {
            prop_assert!(uf.same(a, b));
        }
        let classes = uf.classes();
        let mut seen = vec![false; n];
        for class in &classes {
            prop_assert!(!class.is_empty());
            prop_assert!(class.windows(2).all(|w| w[0] < w[1]), "classes are sorted");
            for &m in class {
                prop_assert!(!seen[m], "element {} appears in two classes", m);
                seen[m] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every element belongs to a class");
    }

    /// The clone index is byte-deterministic at any worker count: entries,
    /// signatures, and classes agree between sequential and sharded builds
    /// on arbitrary generated corpora.
    #[test]
    fn clone_index_identical_across_jobs(seed in any::<u64>(), dup in 1usize..4) {
        let ds = DatasetBuilder::new(seed)
            .vulnerable_count(4)
            .vulnerable_fraction(0.5)
            .duplication_factor(dup)
            .build();
        let sources: Vec<(u64, &str)> =
            ds.samples().iter().map(|s| (s.id, s.source.as_str())).collect();
        let a = CloneIndex::build(&sources, CloneConfig { jobs: 1, ..CloneConfig::default() });
        let b = CloneIndex::build(&sources, CloneConfig { jobs: 4, ..CloneConfig::default() });
        prop_assert_eq!(a.len(), b.len());
        for (ea, eb) in a.entries().iter().zip(b.entries()) {
            prop_assert_eq!(ea.id, eb.id);
            prop_assert_eq!(&ea.shingles, &eb.shingles);
            prop_assert_eq!(&ea.signature, &eb.signature);
        }
        prop_assert_eq!(a.classes(), b.classes());
        // Exact duplicates always verify into one class.
        if dup > 1 {
            prop_assert!(a.classes().iter().any(|c| c.len() >= dup));
        }
    }

    /// Reports from a workflow with the semantic detector registered are
    /// byte-identical across worker counts and cache settings — the
    /// fixpoint solver introduces no scheduling or memoization sensitivity.
    #[test]
    fn semantic_workflow_identical_across_jobs_and_cache(seed in any::<u64>()) {
        let ds = DatasetBuilder::new(seed).vulnerable_count(5).vulnerable_fraction(0.4).build();
        let run = |jobs: usize, cache: bool| {
            let mut registry = DetectorRegistry::new();
            registry.register(Box::new(SemanticDetector::standard()));
            registry.register(Box::new(RuleBasedDetector::standard()));
            let config = WorkflowConfig { jobs, cache, ..Default::default() };
            let report = WorkflowEngine::new(registry, config).process(ds.samples());
            serde_json::to_string(&report).expect("report serializes")
        };
        let baseline = run(1, true);
        for (jobs, cache) in [(1, false), (4, true), (4, false)] {
            prop_assert_eq!(
                &baseline,
                &run(jobs, cache),
                "report diverged at jobs={} cache={}",
                jobs,
                cache
            );
        }
    }
}

/// Emits a parseable mini-C program with `loop_depth` nested `while` loops
/// around `branch_depth` nested `if/else` ladders, ascending or descending
/// counters, and an accumulator the interval domain must widen to cover.
fn synthetic_loop_nest(
    loop_depth: usize,
    branch_depth: usize,
    stride: i64,
    bound: i64,
    descending: bool,
) -> String {
    let mut body = String::new();
    let indent = |n: usize| "    ".repeat(n + 1);
    for d in 0..loop_depth {
        if descending {
            body.push_str(&format!("{0}int i{1} = {2};\n", indent(d), d, bound));
            body.push_str(&format!("{0}while (i{1} > 0) {{\n", indent(d), d));
        } else {
            body.push_str(&format!("{0}int i{1} = 0;\n", indent(d), d));
            body.push_str(&format!("{0}while (i{1} < {2}) {{\n", indent(d), d, bound));
        }
    }
    // Innermost: a branch ladder mutating the accumulator both ways, so
    // the join keeps both outcomes live and widening has real work.
    for b in 0..branch_depth {
        body.push_str(&format!(
            "{0}if (acc < {1}) {{\n{0}    acc = acc + {2};\n{0}}} else {{\n{0}    acc = acc - {3};\n{0}}}\n",
            indent(loop_depth + b),
            bound / (b as i64 + 1),
            stride,
            stride + b as i64,
        ));
    }
    body.push_str(&format!("{}acc = acc + {stride};\n", indent(loop_depth + branch_depth)));
    for d in (0..loop_depth).rev() {
        let step = if descending {
            format!("i{d} = i{d} - {stride};")
        } else {
            format!("i{d} = i{d} + {stride};")
        };
        body.push_str(&format!("{0}{1}\n{2}}}\n", indent(d + 1), step, indent(d)));
    }
    format!("int f(int n) {{\n    int acc = 0;\n{body}    return acc;\n}}\n\nint main() {{\n    int r = f(7);\n    return r;\n}}\n")
}
