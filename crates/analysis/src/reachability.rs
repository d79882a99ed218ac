//! Attack-surface classification over the call graph.
//!
//! Figure 1 of the paper gates *manual security review* on threat modeling:
//! "surfaces with zero-click or one-click surfaces trigger an additional
//! phase of manual security review". This module derives that classification
//! from which input sources a function's call subtree touches: each
//! function's own surface comes from the external calls it makes, and
//! [`fold_surfaces`] carries the most exposed one up the call graph, one
//! bottom-up pass over its strongly connected components. [`CallGraph`]
//! runs that fold over the program's one call graph,
//! [`vulnman_lang::absint::CallGraph`]; the corpus graph runs it over
//! unit-qualified function nodes.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vulnman_lang::absint;
use vulnman_lang::Program;

/// How much attacker interaction is needed to reach a code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Surface {
    /// Reached by remote data with no user interaction (network/request
    /// sources such as `http_param`, `recv`).
    ZeroClick,
    /// Requires a local user action (`read_input`, `getenv`).
    OneClick,
    /// No external input reaches it.
    Local,
}

/// Sources classified as zero-click (remote, unauthenticated-style).
const ZERO_CLICK_SOURCES: [&str; 4] = ["http_param", "recv", "get_request_field", "deserialize"];
/// Sources classified as one-click (local interaction).
const ONE_CLICK_SOURCES: [&str; 3] = ["read_input", "getenv", "read_file"];

/// Per-function attack surfaces of one program.
///
/// A function's surface is the most exposed input source anywhere in its
/// call subtree. Calls resolve as in [`absint::CallGraph`]: to the first
/// definition of a name, so a later duplicate definition is unreachable.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    surfaces: BTreeMap<String, Surface>,
}

impl CallGraph {
    /// Classifies every function of `program`.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), vulnman_lang::ParseError> {
    /// use vulnman_analysis::reachability::{CallGraph, Surface};
    /// let p = vulnman_lang::parse("void a() { b(); }\nvoid b() { recv(); }\nvoid c() { }")?;
    /// let g = CallGraph::build(&p);
    /// assert_eq!(g.surface("a"), Surface::ZeroClick);
    /// assert_eq!(g.surface("c"), Surface::Local);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(program: &Program) -> CallGraph {
        let graph = absint::CallGraph::build(program);
        let mut surface: Vec<Surface> = program
            .functions
            .iter()
            .map(|f| {
                let external_sources = f
                    .callees()
                    .into_iter()
                    .filter(|c| graph.resolve(c).is_none())
                    .filter_map(|c| Surface::of_source(&c));
                external_sources.min().unwrap_or(Surface::Local)
            })
            .collect();
        fold_surfaces(&graph.sccs(), graph.callees(), &mut surface);
        let mut surfaces = BTreeMap::new();
        for (i, s) in surface.into_iter().enumerate() {
            surfaces.entry(graph.name(i).to_string()).or_insert(s);
        }
        CallGraph { surfaces }
    }

    /// Classifies the attack surface of `function` by the most exposed input
    /// source its call subtree touches ([`Surface::Local`] for a name the
    /// program does not define).
    pub fn surface(&self, function: &str) -> Surface {
        self.surfaces.get(function).copied().unwrap_or(Surface::Local)
    }

    /// Surface classification for every function, keyed in name order so
    /// iterating callers (report renderers) stay deterministic.
    pub fn surfaces(&self) -> BTreeMap<String, Surface> {
        self.surfaces.clone()
    }
}

/// Carries surfaces up a call graph: on entry `surface[i]` is node `i`'s
/// own surface (its most exposed external call), on return the most
/// exposed surface in its call subtree. `sccs` must be the strongly
/// connected components of `callees` in bottom-up order, as
/// [`absint::callgraph::strongly_connected`] returns them, so every callee
/// component is final when its callers fold; the members of a cycle share
/// one surface.
pub fn fold_surfaces(sccs: &[Vec<usize>], callees: &[Vec<usize>], surface: &mut [Surface]) {
    for comp in sccs {
        // A callee inside the component still holds its own surface, which
        // the component's minimum includes anyway.
        let folded = comp
            .iter()
            .flat_map(|&m| std::iter::once(m).chain(callees[m].iter().copied()))
            .map(|m| surface[m])
            .min()
            .unwrap_or(Surface::Local);
        for &m in comp {
            surface[m] = folded;
        }
    }
}

impl Surface {
    /// Classifies a single external (library) call name as an input source,
    /// or `None` if it is not one. Shared with the corpus graph so per-sample
    /// and cross-sample surface classification agree.
    pub fn of_source(name: &str) -> Option<Surface> {
        if ZERO_CLICK_SOURCES.contains(&name) {
            Some(Surface::ZeroClick)
        } else if ONE_CLICK_SOURCES.contains(&name) {
            Some(Surface::OneClick)
        } else {
            None
        }
    }

    /// Severity multiplier applied during prioritization.
    pub fn severity_multiplier(&self) -> f64 {
        match self {
            Surface::ZeroClick => 1.0,
            Surface::OneClick => 0.85,
            Surface::Local => 0.6,
        }
    }

    /// Whether Figure 1's workflow routes this surface to manual review.
    pub fn requires_manual_review(&self) -> bool {
        matches!(self, Surface::ZeroClick | Surface::OneClick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnman_lang::parse;
    use vulnman_lang::taint::{TaintAnalysis, TaintConfig};

    fn graph(src: &str) -> CallGraph {
        CallGraph::build(&parse(src).unwrap())
    }

    #[test]
    fn zero_click_via_transitive_source() {
        let g = graph(
            "void api() { helper(); }\nvoid helper() { char* x = http_param(\"q\"); use(x); }\nvoid tool() { char* x = getenv(\"HOME\"); use(x); }\nvoid pure() { compute(); }",
        );
        assert_eq!(g.surface("api"), Surface::ZeroClick);
        assert_eq!(g.surface("helper"), Surface::ZeroClick);
        assert_eq!(g.surface("tool"), Surface::OneClick);
        assert_eq!(g.surface("pure"), Surface::Local);
        assert_eq!(g.surface("undefined"), Surface::Local);
    }

    #[test]
    fn surfaces_come_back_in_name_order() {
        let g = graph("void zeta() { recv(); }\nvoid alpha() { }\nvoid mid() { zeta(); }");
        let got: Vec<(String, Surface)> = g.surfaces().into_iter().collect();
        assert_eq!(
            got,
            vec![
                ("alpha".to_string(), Surface::Local),
                ("mid".to_string(), Surface::ZeroClick),
                ("zeta".to_string(), Surface::ZeroClick),
            ]
        );
    }

    #[test]
    fn zero_click_dominates_one_click() {
        let g = graph("void f() { char* a = getenv(\"X\"); char* b = recv(); use(a, b); }");
        assert_eq!(g.surface("f"), Surface::ZeroClick);
    }

    #[test]
    fn cycle_members_share_their_subtree_surface() {
        let g = graph("void a() { b(); }\nvoid b() { a(); read_input(); }\nvoid c() { a(); }");
        assert_eq!(g.surface("a"), Surface::OneClick);
        assert_eq!(g.surface("b"), Surface::OneClick);
        assert_eq!(g.surface("c"), Surface::OneClick);
    }

    #[test]
    fn duplicate_definitions_resolve_to_the_first() {
        // The first `f` forwards its parameter into a sink and reads no
        // input; the second reads a zero-click source and sinks nothing.
        let p = parse(
            "void f(char* p) { system(p); }\n\
             void g() { f(read_input()); }\n\
             void f(char* p) { char* x = recv(); use(x); }",
        )
        .unwrap();
        let cg = absint::CallGraph::build(&p);
        assert_eq!(cg.resolve("f"), Some(0));
        assert_eq!(cg.callees()[1], vec![0]);
        let taint = TaintAnalysis::run(&p, &TaintConfig::default_config());
        assert!(!taint.summaries["f"].param_to_sink.is_empty(), "first `f` is a derived sink");
        assert!(taint.function_has_finding("g"));
        let g = CallGraph::build(&p);
        assert_eq!(g.surface("f"), Surface::Local);
        assert_eq!(g.surface("g"), Surface::OneClick);
    }

    #[test]
    fn review_gate_matches_figure1() {
        assert!(Surface::ZeroClick.requires_manual_review());
        assert!(Surface::OneClick.requires_manual_review());
        assert!(!Surface::Local.requires_manual_review());
    }

    #[test]
    fn multipliers_order() {
        assert!(Surface::ZeroClick.severity_multiplier() > Surface::OneClick.severity_multiplier());
        assert!(Surface::OneClick.severity_multiplier() > Surface::Local.severity_multiplier());
    }
}
