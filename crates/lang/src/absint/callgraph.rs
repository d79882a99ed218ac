//! The one per-program call graph and its strongly connected components.
//! The absint driver ([`super::substrate`]) walks the components bottom-up,
//! the taint engine ([`crate::taint`]) walks the post-order, and the attack
//! surfaces of `vulnman-analysis` fold over the components. The corpus
//! graph (`vulnman-analysis`) reuses [`strongly_connected`] over
//! unit-qualified function nodes.
//!
//! A call resolves to the first definition of its name, as every other
//! lookup by name does ([`Program::function`], the absint summaries, the
//! corpus graph).

use crate::ast::{ExprKind, Program};
use crate::intern::Symbol;
use std::collections::BTreeMap;

/// A directed call graph over the functions defined in a [`Program`]. Node
/// `i` is `program.functions[i]`. Edges to undefined (external) callees are
/// not represented; externals are handled by each consumer's fallback.
#[derive(Debug, Clone)]
pub struct CallGraph {
    names: Vec<Symbol>,
    /// Name → first defining node.
    index: BTreeMap<Symbol, usize>,
    callees: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the call graph of all defined functions.
    pub fn build(program: &Program) -> CallGraph {
        let names: Vec<Symbol> = program.functions.iter().map(|f| f.name.clone()).collect();
        let mut index: BTreeMap<Symbol, usize> = BTreeMap::new();
        for (i, n) in names.iter().enumerate() {
            index.entry(n.clone()).or_insert(i);
        }
        let callees = program
            .functions
            .iter()
            .map(|f| {
                let mut out: Vec<usize> = Vec::new();
                f.walk_exprs(&mut |e| {
                    if let ExprKind::Call(name, _) = &e.kind {
                        if let Some(&j) = index.get(name.as_str()) {
                            if !out.contains(&j) {
                                out.push(j);
                            }
                        }
                    }
                });
                out
            })
            .collect();
        CallGraph { names, index, callees }
    }

    /// Number of defined functions.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the graph has no functions.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The node a call to `name` resolves to: its first definition, or
    /// `None` for an external.
    pub fn resolve(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The name of node `i`.
    pub fn name(&self, i: usize) -> &Symbol {
        &self.names[i]
    }

    /// Adjacency lists: the defined callees of each node, in first-call
    /// order.
    pub fn callees(&self) -> &[Vec<usize>] {
        &self.callees
    }

    /// Nodes in bottom-up order — every callee before each of its callers
    /// wherever the graph is acyclic; cycles are broken at the DFS back
    /// edge — and whether the walk met a back edge, i.e. whether the
    /// program has a call cycle (self-recursion included). Roots are tried
    /// in program order and callees in first-call order. Iterative, so deep
    /// call chains cannot blow the stack.
    pub fn post_order(&self) -> (Vec<usize>, bool) {
        let n = self.names.len();
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
        let mut order = Vec::with_capacity(n);
        let mut cyclic = false;
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if state[root] != 0 {
                continue;
            }
            state[root] = 1;
            stack.push((root, 0));
            while let Some(frame) = stack.last_mut() {
                let node = frame.0;
                if let Some(&next) = self.callees[node].get(frame.1) {
                    frame.1 += 1;
                    match state[next] {
                        0 => {
                            state[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => cyclic = true,
                        _ => {}
                    }
                } else {
                    state[node] = 2;
                    order.push(node);
                    stack.pop();
                }
            }
        }
        (order, cyclic)
    }

    /// Strongly connected components of the call graph; see
    /// [`strongly_connected`].
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        strongly_connected(&self.callees)
    }
}

/// Strongly connected components of the graph with adjacency lists
/// `callees`, in bottom-up topological order of the condensation: every
/// callee of a component's members lies in the same or an earlier
/// component. Members within a component are listed in ascending index
/// order. Iterative Tarjan, so deeply nested call chains cannot blow the
/// stack, and the output is a pure function of the graph. The corpus graph
/// (`vulnman-analysis`) runs it over unit-qualified function nodes that no
/// single [`Program`] contains.
///
/// # Panics
///
/// Panics if an adjacency entry is not below `callees.len()`.
pub fn strongly_connected(callees: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNVISITED: usize = usize::MAX;
    let n = callees.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next-callee position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if let Some(&w) = callees[v].get(*ci) {
                *ci += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn post_order_puts_callees_first() {
        let p = parse(
            "int leaf() { return 1; }\n\
             int mid() { return leaf() + 1; }\n\
             int top_fn() { return mid() + leaf(); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let (order, cyclic) = cg.post_order();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(!cyclic);
        assert_eq!(cg.callees()[2], vec![1, 0], "first-call order");
        assert_eq!(cg.resolve("lib"), None);
    }

    #[test]
    fn recursion_is_detected() {
        for src in [
            "int r(int n) { if (n) { return r(n - 1); } return 0; }",
            "int a(int n) { return b(n); }\nint b(int n) { if (n) { return a(n - 1); } return 0; }",
        ] {
            assert!(CallGraph::build(&parse(src).unwrap()).post_order().1, "{src}");
        }
    }

    #[test]
    fn sccs_condense_cycles_bottom_up() {
        let p = parse(
            "int leaf() { return 1; }\n\
             int even(int n) { if (n) { return odd(n - 1); } return leaf(); }\n\
             int odd(int n) { if (n) { return even(n - 1); } return 0; }\n\
             int top_fn(int x) { return even(x); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let sccs = cg.sccs();
        // Every function appears exactly once.
        let mut all: Vec<usize> = sccs.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..cg.len()).collect::<Vec<_>>());
        // even/odd share a component; the order is bottom-up: every callee
        // component precedes its callers.
        let comp_idx = |name: &str| sccs.iter().position(|c| c.contains(&cg.index[name])).unwrap();
        assert_eq!(comp_idx("even"), comp_idx("odd"));
        assert!(comp_idx("leaf") < comp_idx("even"));
        assert!(comp_idx("even") < comp_idx("top_fn"));
    }
}
