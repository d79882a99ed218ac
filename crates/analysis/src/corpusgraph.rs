//! Whole-corpus call graph and blast-radius analytics.
//!
//! Per-sample analysis stops at a translation-unit boundary, so the triage
//! queue ranks findings by severity alone. The paper's threat-modeling stage
//! (Figure 1) instead ranks by reachability and exposure *across* the
//! program. This module promotes the corpus to a program: every sample (or
//! project unit) contributes its functions as nodes, calls are resolved
//! first within the unit and then against sibling units of the same project
//! (a project is the linkage domain), and everything downstream — cross-
//! sample reachability, centrality, communities, blast radius — is computed
//! over the merged graph.
//!
//! Building is two steps. Parsing a unit yields its [`UnitLinks`] — each
//! function's name and the distinct names it calls — and
//! [`CorpusGraph::link`] turns any sequence of link summaries into the
//! graph. A long-lived store of units (the `serve` crate's `graph` request)
//! keeps the summaries and relinks without reparsing.
//!
//! Everything here is dependency-free and byte-deterministic at any
//! `--jobs`: parallel stages work on fixed-size chunks whose partial results
//! are merged in chunk order, so float accumulation order never depends on
//! the worker count.

use crate::reachability::{fold_surfaces, Surface};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use vulnman_lang::absint::callgraph::strongly_connected;
use vulnman_lang::cache::AnalysisCache;
use vulnman_lang::par;
use vulnman_lang::{ParseError, Program, Symbol};
use vulnman_obs::Registry;
use vulnman_synth::sample::Sample;

/// One translation unit contributed to the corpus graph.
#[derive(Debug, Clone, Copy)]
pub struct UnitRef<'a> {
    /// Stable unit identifier (sample id).
    pub id: u64,
    /// Linkage domain: calls resolve only within a project.
    pub project: &'a str,
    /// Source text of the unit.
    pub source: &'a str,
}

/// Everything linking needs from one parsed unit: each function definition's
/// name with the distinct names it calls, in definition order. The symbols
/// are the parse's own interned names, so extraction copies no string
/// bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitLinks {
    functions: Vec<(Symbol, Vec<Symbol>)>,
}

impl UnitLinks {
    /// Extracts the link summary of a parsed unit.
    pub fn of(program: &Program) -> UnitLinks {
        let functions = program
            .functions
            .iter()
            .map(|f| {
                let mut callees = f.callees();
                callees.sort_unstable();
                callees.dedup();
                (f.name.clone(), callees)
            })
            .collect();
        UnitLinks { functions }
    }
}

/// One unit as [`CorpusGraph::link`] sees it.
#[derive(Debug, Clone, Copy)]
pub struct LinkUnit<'a> {
    /// Stable unit identifier (sample id).
    pub id: u64,
    /// Linkage domain: calls resolve only within a project.
    pub project: &'a str,
    /// The unit's extracted link summary.
    pub links: &'a UnitLinks,
}

/// A function node of the corpus graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnNode {
    /// Defining unit id.
    pub unit: u64,
    /// Project of the defining unit.
    pub project: Symbol,
    /// Unqualified function name.
    pub name: Symbol,
}

impl FnNode {
    /// Unit-qualified node name, unique across the corpus:
    /// `u{unit:06}::{name}`. Written digit by digit, since a relink
    /// formats one per node.
    pub fn qualified(&self) -> String {
        let mut digits = [b'0'; 20];
        let mut start = digits.len();
        let mut rest = self.unit;
        while rest > 0 || start > digits.len() - 6 {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        let mut out = String::with_capacity(digits.len() - start + 3 + self.name.len());
        out.push('u');
        out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
        out.push_str("::");
        out.push_str(&self.name);
        out
    }
}

/// Per-function analytics in the corpus graph report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FnReport {
    /// Defining unit id.
    pub unit: u64,
    /// Project of the defining unit.
    pub project: String,
    /// Callers within the corpus graph.
    pub in_degree: usize,
    /// Resolved callees within the corpus graph.
    pub out_degree: usize,
    /// Brandes betweenness centrality, normalized to `[0, 1]`.
    pub betweenness: f64,
    /// Label-propagation community id (dense, in node order).
    pub community: usize,
    /// Functions transitively reachable from this one (excluding itself).
    pub downstream: usize,
    /// Functions that can transitively reach this one (excluding itself).
    pub upstream: usize,
    /// Blast-radius score in `[0, 1]`, normalized by the linkage domain
    /// (calls cannot resolve across projects, so the project is the
    /// function's reachable universe):
    /// `(downstream + upstream) / (2 * (project nodes - 1))`.
    pub blast: f64,
    /// Cross-sample attack surface: the most exposed input source reachable
    /// anywhere in this function's corpus-wide call subtree.
    pub surface: Surface,
}

/// Deterministic, serializable summary of a corpus graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusGraphReport {
    /// Function nodes.
    pub nodes: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Edges whose caller and callee live in different units.
    pub cross_unit_edges: usize,
    /// Distinct (function, external callee) pairs.
    pub externals: usize,
    /// Strongly connected components.
    pub sccs: usize,
    /// Label-propagation communities.
    pub communities: usize,
    /// Per-function analytics keyed by unit-qualified name.
    pub functions: BTreeMap<String, FnReport>,
}

/// The assembled cross-sample call graph.
#[derive(Debug)]
pub struct CorpusGraph {
    nodes: Vec<FnNode>,
    /// [`FnNode::qualified`] per node, formatted once.
    qualified: Vec<String>,
    /// `(unit, name) -> node index`, built on the first lookup by name.
    index: OnceLock<HashMap<(u64, String), usize>>,
    /// Sorted, deduped adjacency.
    callees: Vec<Vec<usize>>,
    callers: Vec<Vec<usize>>,
    /// Distinct (function, external callee) pairs.
    externals: usize,
    cross_unit_edges: usize,
    sccs: usize,
    // Derived analytics, computed once at link time.
    downstream: Vec<usize>,
    upstream: Vec<usize>,
    blast: Vec<f64>,
    surface: Vec<Surface>,
    community: Vec<usize>,
    n_communities: usize,
    /// Betweenness is read only by [`CorpusGraph::report`], so it is
    /// computed on the first report, over `jobs` workers.
    betweenness: OnceLock<Vec<f64>>,
    jobs: usize,
}

/// Pre-registers every `graph.*` instrument so the metrics schema is
/// identical whether or not a corpus graph is ever built (the same
/// discipline as `register_absint_instruments`).
pub fn register_graph_instruments(metrics: &Registry) {
    metrics.counter("graph.builds");
    metrics.counter("graph.nodes");
    metrics.counter("graph.edges");
    metrics.counter("graph.cross_unit_edges");
    metrics.counter("graph.externals");
    metrics.counter("graph.sccs");
    metrics.counter("graph.communities");
    metrics.histogram("graph.blast_per_mille");
    metrics.histogram("span.graph.build");
}

/// Fixed chunk size for parallel betweenness accumulation. Chunk boundaries
/// are a function of the node count alone — never of `jobs` — so partial
/// sums merge in the same order at any worker count.
const BETWEENNESS_CHUNK: usize = 64;

/// Sweep cap for label propagation (async updates in fixed node order
/// terminate in practice long before this; the cap makes the worst case
/// finite without changing any converged result).
const MAX_LPA_SWEEPS: usize = 64;

impl CorpusGraph {
    /// Builds the corpus graph sequentially without caching or metrics.
    ///
    /// # Errors
    ///
    /// Returns the first parse error among the units.
    pub fn build(units: &[UnitRef<'_>]) -> Result<CorpusGraph, ParseError> {
        Self::build_with(units, &AnalysisCache::disabled(), 1, &Registry::noop())
    }

    /// Builds the corpus graph from dataset samples (each sample is one
    /// unit; its `project` field is the linkage domain).
    ///
    /// # Errors
    ///
    /// Returns the first parse error among the samples.
    pub fn from_samples(
        samples: &[Sample],
        cache: &AnalysisCache,
        jobs: usize,
        metrics: &Registry,
    ) -> Result<CorpusGraph, ParseError> {
        let units: Vec<UnitRef<'_>> = samples
            .iter()
            .map(|s| UnitRef { id: s.id, project: &s.project, source: &s.source })
            .collect();
        Self::build_with(&units, cache, jobs, metrics)
    }

    /// Parses every unit (`jobs`-way sharded, optionally through `cache`),
    /// extracts its [`UnitLinks`] and [`link`](Self::link)s the result.
    /// Output is byte-identical at any `jobs` and with the cache on or off.
    ///
    /// # Errors
    ///
    /// Returns the first parse error among the units (in unit order).
    pub fn build_with(
        units: &[UnitRef<'_>],
        cache: &AnalysisCache,
        jobs: usize,
        metrics: &Registry,
    ) -> Result<CorpusGraph, ParseError> {
        let links: Vec<UnitLinks> =
            parse_units(units, cache, jobs)?.iter().map(|p| UnitLinks::of(p)).collect();
        let linked: Vec<LinkUnit<'_>> = units
            .iter()
            .zip(&links)
            .map(|(u, links)| LinkUnit { id: u.id, project: u.project, links })
            .collect();
        Ok(Self::link(&linked, jobs, metrics))
    }

    /// Links pre-extracted units into the corpus graph: resolves calls
    /// (local first, then sibling units of the same project, first-defining
    /// unit wins; a name defined twice under one unit id keeps its first
    /// definition) and computes reachability closures, surfaces,
    /// communities, and blast radii. Betweenness waits for the first
    /// [`report`](Self::report), which computes it over `jobs` workers.
    /// The `span.graph.build` histogram times the link.
    pub fn link(units: &[LinkUnit<'_>], jobs: usize, metrics: &Registry) -> CorpusGraph {
        let span = metrics.span("graph.build");
        let total: usize = units.iter().map(|u| u.links.functions.len()).sum();

        // Nodes, in (unit order, definition order), each with the unit it
        // came from and its callee names.
        let mut nodes: Vec<FnNode> = Vec::with_capacity(total);
        let mut sites: Vec<(&LinkUnit<'_>, &[Symbol])> = Vec::with_capacity(total);
        // Keys borrow the summaries' names, so lookups allocate nothing.
        // `vulnman serve` links names its clients chose, so the maps keep
        // std's randomly keyed hasher: a crafted set of colliding names
        // cannot make a relink quadratic.
        let mut defs: HashMap<(u64, &str), usize> = HashMap::with_capacity(total);
        // First defining node per (project, name): the linkage winner.
        let mut project_defs: HashMap<(&str, &str), usize> = HashMap::with_capacity(total);
        let mut project = Symbol::new("");
        for u in units {
            if project != u.project {
                project = Symbol::new(u.project);
            }
            for (name, calls) in &u.links.functions {
                let idx = nodes.len();
                if *defs.entry((u.id, name.as_str())).or_insert(idx) != idx {
                    continue; // duplicate definition under this unit id
                }
                project_defs.entry((u.project, name.as_str())).or_insert(idx);
                nodes.push(FnNode { unit: u.id, project: project.clone(), name: name.clone() });
                sites.push((u, calls));
            }
        }

        // Resolve calls: local definition first, then the project-wide
        // first definition; anything else is an external, and the most
        // exposed external input source is the node's own surface.
        let n = nodes.len();
        let mut callees: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut surface: Vec<Surface> = Vec::with_capacity(n);
        let mut externals = 0usize;
        let mut cross_unit_edges = 0usize;
        for (i, (u, calls)) in sites.iter().enumerate() {
            let mut edges: Vec<usize> = Vec::with_capacity(calls.len());
            let mut surf = Surface::Local;
            for name in *calls {
                let key = name.as_str();
                match defs.get(&(u.id, key)).or_else(|| project_defs.get(&(u.project, key))) {
                    Some(&j) if j != i => edges.push(j),
                    Some(_) => {} // self-recursion: not an edge for metrics
                    None => {
                        externals += 1;
                        surf = surf.min(Surface::of_source(key).unwrap_or(Surface::Local));
                    }
                }
            }
            // Distinct names resolve to distinct nodes, so `edges` is
            // already deduped; callers fill in ascending caller order.
            edges.sort_unstable();
            cross_unit_edges += edges.iter().filter(|&&j| nodes[j].unit != u.id).count();
            for &j in &edges {
                callers[j].push(i);
            }
            callees.push(edges);
            surface.push(surf);
        }

        // Surfaces and reachability closures (bitset rows), summarized
        // bottom-up over the SCC condensation exactly like absint return
        // summaries: a component's closure is the union of its members and
        // all callee closures, and every member of a cycle shares it.
        let comps = strongly_connected(&callees);
        fold_surfaces(&comps, &callees, &mut surface);
        let words = n.div_ceil(64).max(1);
        let mut closure = vec![0u64; n * words];
        let mut bits = vec![0u64; words];
        for comp in &comps {
            bits.fill(0);
            for &m in comp {
                bits[m / 64] |= 1 << (m % 64);
                // A callee in this component has no row yet (all zeros).
                for &callee in &callees[m] {
                    let row = &closure[callee * words..(callee + 1) * words];
                    for (w, &cw) in bits.iter_mut().zip(row) {
                        *w |= cw;
                    }
                }
            }
            for &m in comp {
                closure[m * words..(m + 1) * words].copy_from_slice(&bits);
            }
        }
        let rows = || closure.chunks_exact(words);
        let downstream: Vec<usize> = rows()
            .map(|row| row.iter().map(|w| w.count_ones() as usize).sum::<usize>() - 1)
            .collect();
        let mut upstream = vec![0usize; n];
        for (i, row) in rows().enumerate() {
            for (w, &word) in row.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    let j = w * 64 + b;
                    if j != i {
                        upstream[j] += 1;
                    }
                }
            }
        }
        // Blast normalizes by the *linkage domain*, not the corpus: calls
        // cannot resolve across projects, so a function's reachable
        // universe is its project and corpus-wide normalization would cap
        // every score at (project size / corpus size) — near zero for any
        // real fleet of projects.
        let mut project_size: HashMap<&str, usize> = HashMap::default();
        for (u, _) in &sites {
            *project_size.entry(u.project).or_insert(0) += 1;
        }
        let blast: Vec<f64> = (0..n)
            .map(|i| {
                let size = project_size[sites[i].0.project];
                if size < 2 {
                    0.0
                } else {
                    (downstream[i] + upstream[i]) as f64 / (2.0 * (size - 1) as f64)
                }
            })
            .collect();

        let (community, n_communities) = label_propagation(&callees, &callers);
        let qualified = nodes.iter().map(FnNode::qualified).collect();
        let g = CorpusGraph {
            nodes,
            qualified,
            index: OnceLock::new(),
            callees,
            callers,
            externals,
            cross_unit_edges,
            sccs: comps.len(),
            downstream,
            upstream,
            blast,
            surface,
            community,
            n_communities,
            betweenness: OnceLock::new(),
            jobs,
        };
        g.record(metrics);
        span.stop();
        g
    }

    fn record(&self, metrics: &Registry) {
        metrics.counter("graph.builds").add(1);
        metrics.counter("graph.nodes").add(self.nodes.len() as u64);
        metrics.counter("graph.edges").add(self.edge_count() as u64);
        metrics.counter("graph.cross_unit_edges").add(self.cross_unit_edges as u64);
        metrics.counter("graph.externals").add(self.externals as u64);
        metrics.counter("graph.sccs").add(self.sccs as u64);
        metrics.counter("graph.communities").add(self.n_communities as u64);
        let hist = metrics.histogram("graph.blast_per_mille");
        for &b in &self.blast {
            hist.observe((b * 1000.0).round() as u64);
        }
    }

    /// Node index of `function` defined in `unit`, if present.
    fn node(&self, unit: u64, function: &str) -> Option<usize> {
        let index = self.index.get_or_init(|| {
            self.nodes.iter().enumerate().map(|(i, f)| ((f.unit, f.name.to_string()), i)).collect()
        });
        index.get(&(unit, function.to_string())).copied()
    }

    /// Function nodes in corpus order.
    pub fn nodes(&self) -> &[FnNode] {
        &self.nodes
    }

    /// Total resolved call edges.
    pub fn edge_count(&self) -> usize {
        self.callees.iter().map(Vec::len).sum()
    }

    /// Edges whose endpoints live in different units.
    pub fn cross_unit_edge_count(&self) -> usize {
        self.cross_unit_edges
    }

    /// Distinct (function, external callee) pairs.
    pub fn external_count(&self) -> usize {
        self.externals
    }

    /// Blast-radius score of `function` defined in `unit`, if present.
    pub fn blast_of(&self, unit: u64, function: &str) -> Option<f64> {
        self.node(unit, function).map(|i| self.blast[i])
    }

    /// Cross-sample surface of `function` defined in `unit`, if present.
    pub fn surface_of(&self, unit: u64, function: &str) -> Option<Surface> {
        self.node(unit, function).map(|i| self.surface[i])
    }

    /// Whether `caller` (in `caller_unit`) resolves a call to `callee` (in
    /// `callee_unit`).
    pub fn calls(&self, caller_unit: u64, caller: &str, callee_unit: u64, callee: &str) -> bool {
        let (Some(i), Some(j)) = (self.node(caller_unit, caller), self.node(callee_unit, callee))
        else {
            return false;
        };
        self.callees[i].binary_search(&j).is_ok()
    }

    /// Qualified names ranked by blast radius (descending), ties broken by
    /// qualified name so the ranking is a pure function of the corpus.
    pub fn blast_ranked(&self) -> Vec<(String, f64)> {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            self.blast[b]
                .total_cmp(&self.blast[a])
                .then_with(|| self.qualified[a].cmp(&self.qualified[b]))
        });
        order.into_iter().map(|i| (self.qualified[i].clone(), self.blast[i])).collect()
    }

    /// The full deterministic report. The first call computes betweenness.
    pub fn report(&self) -> CorpusGraphReport {
        let betweenness =
            self.betweenness.get_or_init(|| betweenness_centrality(&self.callees, self.jobs));
        let functions: BTreeMap<String, FnReport> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, f)| {
                (
                    self.qualified[i].clone(),
                    FnReport {
                        unit: f.unit,
                        project: f.project.to_string(),
                        in_degree: self.callers[i].len(),
                        out_degree: self.callees[i].len(),
                        betweenness: betweenness[i],
                        community: self.community[i],
                        downstream: self.downstream[i],
                        upstream: self.upstream[i],
                        blast: self.blast[i],
                        surface: self.surface[i],
                    },
                )
            })
            .collect();
        CorpusGraphReport {
            nodes: self.nodes.len(),
            edges: self.edge_count(),
            cross_unit_edges: self.cross_unit_edges,
            externals: self.externals,
            sccs: self.sccs,
            communities: self.n_communities,
            functions,
        }
    }
}

/// Parses all units on the [`par`](vulnman_lang::par) work queue with
/// `jobs` threads. Results come back in unit order, so output is
/// independent of the worker count; the first error in unit order wins.
fn parse_units(
    units: &[UnitRef<'_>],
    cache: &AnalysisCache,
    jobs: usize,
) -> Result<Vec<Arc<Program>>, ParseError> {
    par::map_ordered(units, jobs, |u| cache.parse(u.source)).into_iter().collect()
}

/// Brandes betweenness centrality over the directed graph, normalized by
/// `(n-1)(n-2)`. Source contributions are accumulated per fixed-size chunk
/// and the chunk partials summed in chunk order, so the floating-point
/// accumulation order — hence the bytes — are identical at any `jobs`.
fn betweenness_centrality(callees: &[Vec<usize>], jobs: usize) -> Vec<f64> {
    let n = callees.len();
    if n < 3 {
        return vec![0.0; n];
    }
    let chunks: Vec<usize> = (0..n.div_ceil(BETWEENNESS_CHUNK)).collect();
    let partials = par::map_ordered(&chunks, jobs, |&chunk| {
        let lo = chunk * BETWEENNESS_CHUNK;
        let mut acc = vec![0.0f64; n];
        for s in lo..(lo + BETWEENNESS_CHUNK).min(n) {
            brandes_from(s, callees, &mut acc);
        }
        acc
    });
    let mut bc = vec![0.0f64; n];
    for part in partials {
        for (b, p) in bc.iter_mut().zip(&part) {
            *b += p;
        }
    }
    let norm = ((n - 1) * (n - 2)) as f64;
    for b in &mut bc {
        *b /= norm;
    }
    bc
}

/// One Brandes source iteration: BFS shortest-path counting plus the
/// dependency back-propagation, accumulated into `acc`.
fn brandes_from(s: usize, callees: &[Vec<usize>], acc: &mut [f64]) {
    let n = callees.len();
    let mut dist = vec![usize::MAX; n];
    let mut sigma = vec![0.0f64; n];
    let mut order: Vec<usize> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    dist[s] = 0;
    sigma[s] = 1.0;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in &callees[v] {
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                queue.push_back(w);
            }
            if dist[w] == dist[v] + 1 {
                sigma[w] += sigma[v];
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    for &v in order.iter().rev() {
        for &w in &callees[v] {
            if dist[w] == dist[v] + 1 {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
        }
        if v != s {
            acc[v] += delta[v];
        }
    }
}

/// Deterministic label propagation over the undirected view: labels start
/// as node indices and each sweep visits nodes in ascending index order,
/// adopting the most frequent neighbor label (ties broken toward the
/// smallest label). Updates are applied in place, so within a sweep later
/// nodes see earlier adoptions — a fixed visit order makes that sequential
/// semantics reproducible at any `--jobs` (the propagation is cheap enough
/// that it is never sharded). Converged labels are then densified in node
/// order. Returns `(community per node, community count)`.
fn label_propagation(callees: &[Vec<usize>], callers: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let n = callees.len();
    let neighbors: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let mut adj: Vec<usize> = callees[i].iter().chain(&callers[i]).copied().collect();
            adj.sort_unstable();
            adj.dedup();
            adj
        })
        .collect();
    let mut labels: Vec<usize> = (0..n).collect();
    let mut around: Vec<usize> = Vec::new();
    for _ in 0..MAX_LPA_SWEEPS {
        let mut changed = false;
        for i in 0..n {
            if neighbors[i].is_empty() {
                continue;
            }
            around.clear();
            around.extend(neighbors[i].iter().map(|&j| labels[j]));
            around.sort_unstable();
            // Max count, smallest label on ties: runs come in ascending
            // label order and only a strictly longer run replaces the best.
            let mut best = (around[0], 0);
            for run in around.chunk_by(|a, b| a == b) {
                if run.len() > best.1 {
                    best = (run[0], run.len());
                }
            }
            if best.0 != labels[i] {
                labels[i] = best.0;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Densify labels (node indices) in node order.
    let mut dense = vec![usize::MAX; n];
    let mut count = 0;
    let out = labels
        .iter()
        .map(|&l| {
            if dense[l] == usize::MAX {
                dense[l] = count;
                count += 1;
            }
            dense[l]
        })
        .collect();
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(id: u64, project: &'static str, source: &'static str) -> UnitRef<'static> {
        UnitRef { id, project, source }
    }

    const HUB: &str = "void hub() { spoke_a(); spoke_b(); }\nvoid spoke_a() { }";
    const SPOKES: &str = "void spoke_b() { leaf(); }\nvoid leaf() { }";

    #[test]
    fn cross_unit_calls_resolve_within_project() {
        let g = CorpusGraph::build(&[unit(1, "p", HUB), unit(2, "p", SPOKES)]).unwrap();
        assert_eq!(g.nodes().len(), 4);
        assert!(g.calls(1, "hub", 2, "spoke_b"), "cross-unit edge resolved");
        assert!(g.calls(1, "hub", 1, "spoke_a"), "local edge resolved");
        assert_eq!(g.cross_unit_edge_count(), 1);
    }

    #[test]
    fn projects_are_linkage_domains() {
        // Same source in a different project: the call must NOT link.
        let g = CorpusGraph::build(&[unit(1, "p", HUB), unit(2, "q", SPOKES)]).unwrap();
        assert!(!g.calls(1, "hub", 2, "spoke_b"));
        assert_eq!(g.cross_unit_edge_count(), 0);
        // spoke_b becomes an external callee of hub instead.
        assert_eq!(g.external_count(), 1);
    }

    #[test]
    fn local_definition_shadows_sibling() {
        let a = "void go() { helper(); }\nvoid helper() { }";
        let b = "void helper() { recv(); }";
        let g = CorpusGraph::build(&[unit(1, "p", a), unit(2, "p", b)]).unwrap();
        assert!(g.calls(1, "go", 1, "helper"));
        assert!(!g.calls(1, "go", 2, "helper"));
        // And the local helper is clean, so go's surface stays Local.
        assert_eq!(g.surface_of(1, "go"), Some(Surface::Local));
    }

    #[test]
    fn surface_propagates_across_units() {
        let caller = "void api() { fetch_it(); }";
        let callee = "char* fetch_it() { return http_param(\"q\"); }";
        let g = CorpusGraph::build(&[unit(1, "p", caller), unit(2, "p", callee)]).unwrap();
        assert_eq!(g.surface_of(1, "api"), Some(Surface::ZeroClick));
        assert_eq!(g.surface_of(2, "fetch_it"), Some(Surface::ZeroClick));
    }

    #[test]
    fn blast_reflects_reachable_surface() {
        let g = CorpusGraph::build(&[unit(1, "p", HUB), unit(2, "p", SPOKES)]).unwrap();
        // hub reaches everything (downstream 3, upstream 0); leaf reaches
        // nothing but is reached by hub and spoke_b (downstream 0, up 2).
        let hub = g.blast_of(1, "hub").unwrap();
        let leaf = g.blast_of(2, "leaf").unwrap();
        let spoke_a = g.blast_of(1, "spoke_a").unwrap();
        assert!(hub > leaf, "hub {hub} vs leaf {leaf}");
        assert!(leaf > spoke_a, "leaf {leaf} vs spoke_a {spoke_a}");
        let ranked = g.blast_ranked();
        assert_eq!(ranked[0].0, "u000001::hub");
    }

    #[test]
    fn recursion_forms_scc_and_terminates() {
        let src = "void a() { b(); }\nvoid b() { a(); recv(); }";
        let g = CorpusGraph::build(&[unit(1, "p", src)]).unwrap();
        assert_eq!(g.report().sccs, 1);
        assert_eq!(g.surface_of(1, "a"), Some(Surface::ZeroClick));
        assert_eq!(g.blast_of(1, "a"), g.blast_of(1, "b"));
    }

    #[test]
    fn communities_split_disconnected_projects() {
        let g = CorpusGraph::build(&[
            unit(1, "p", HUB),
            unit(2, "p", SPOKES),
            unit(3, "q", "void isolated() { solo(); }\nvoid solo() { }"),
        ])
        .unwrap();
        let report = g.report();
        assert!(report.communities >= 2, "report: {report:?}");
        let hub_comm = report.functions["u000001::hub"].community;
        let iso_comm = report.functions["u000003::isolated"].community;
        assert_ne!(hub_comm, iso_comm);
    }

    #[test]
    fn byte_identical_across_jobs_and_cache() {
        let units: Vec<String> = (0..12)
            .map(|i| {
                let next = (i + 1) % 12;
                format!("void f{i}() {{ f{next}(); lib{i}(); }}\nvoid g{i}() {{ f{i}(); }}")
            })
            .collect();
        let refs: Vec<UnitRef<'_>> = units
            .iter()
            .enumerate()
            .map(|(i, s)| UnitRef { id: i as u64 + 1, project: "p", source: s })
            .collect();
        let base = serde_json::to_string(
            &CorpusGraph::build_with(&refs, &AnalysisCache::disabled(), 1, &Registry::noop())
                .unwrap()
                .report(),
        )
        .unwrap();
        for jobs in [2usize, 4] {
            for cached in [false, true] {
                let cache = if cached { AnalysisCache::new() } else { AnalysisCache::disabled() };
                let report = serde_json::to_string(
                    &CorpusGraph::build_with(&refs, &cache, jobs, &Registry::noop())
                        .unwrap()
                        .report(),
                )
                .unwrap();
                assert_eq!(report, base, "jobs={jobs} cached={cached}");
            }
        }
    }

    #[test]
    fn betweenness_peaks_on_the_bridge() {
        // a -> bridge -> c; bridge carries the only a->c path.
        let src = "void a() { bridge(); }\nvoid bridge() { c(); }\nvoid c() { }";
        let g = CorpusGraph::build(&[unit(1, "p", src)]).unwrap();
        let r = g.report();
        let bridge = r.functions["u000001::bridge"].betweenness;
        assert!(bridge > 0.0);
        assert!(bridge > r.functions["u000001::a"].betweenness);
        assert!(bridge > r.functions["u000001::c"].betweenness);
    }

    #[test]
    fn metrics_are_recorded() {
        let registry = Registry::new();
        register_graph_instruments(&registry);
        CorpusGraph::build_with(
            &[unit(1, "p", HUB), unit(2, "p", SPOKES)],
            &AnalysisCache::disabled(),
            1,
            &registry,
        )
        .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["graph.builds"], 1);
        assert_eq!(snap.counters["graph.nodes"], 4);
        assert_eq!(snap.counters["graph.cross_unit_edges"], 1);
        assert!(snap.counters["graph.communities"] >= 1);
    }

    #[test]
    fn qualified_names_are_zero_padded_unit_ids() {
        for unit in [0, 7, 999_999, 1_000_000, 1 << 40, u64::MAX] {
            let node = FnNode { unit, project: "p".into(), name: "f".into() };
            assert_eq!(node.qualified(), format!("u{unit:06}::f"));
        }
    }

    #[test]
    fn reused_unit_id_keeps_the_first_definition() {
        // Two units under one id: the second's `helper` is shadowed, its
        // new `extra` joins the id, and local resolution spans both.
        let first = "void helper() { }";
        let second = "void helper() { recv(); }\nvoid extra() { helper(); }";
        let g = CorpusGraph::build(&[unit(1, "p", first), unit(1, "p", second)]).unwrap();
        assert_eq!(g.nodes().len(), 2);
        assert!(g.calls(1, "extra", 1, "helper"));
        assert_eq!(g.surface_of(1, "helper"), Some(Surface::Local));
    }

    #[test]
    fn empty_corpus_is_fine() {
        let g = CorpusGraph::build(&[]).unwrap();
        assert_eq!(g.nodes().len(), 0);
        assert_eq!(g.report().communities, 0);
        assert!(g.blast_ranked().is_empty());
    }
}
