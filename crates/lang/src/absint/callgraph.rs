//! Program call graph and its strongly connected components. The absint
//! driver ([`super::substrate`]) walks the components bottom-up; the corpus
//! graph (`vulnman-analysis`) reuses [`strongly_connected`] over
//! unit-qualified function nodes.

use crate::ast::Program;
use crate::intern::Symbol;
use std::collections::{BTreeMap, BTreeSet};
/// A directed call graph over the functions defined in a [`Program`].
/// Edges to undefined (external) callees are not represented; externals are
/// handled by the domains' top fallback.
#[derive(Debug, Clone)]
pub struct CallGraph {
    names: Vec<Symbol>,
    index: BTreeMap<Symbol, usize>,
    callees: Vec<Vec<usize>>,
    callers: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the call graph of all defined functions.
    pub fn build(program: &Program) -> CallGraph {
        let names: Vec<Symbol> = program.functions.iter().map(|f| f.name.clone()).collect();
        let index: BTreeMap<Symbol, usize> =
            names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
        for (i, f) in program.functions.iter().enumerate() {
            let mut seen = BTreeSet::new();
            for callee in f.callees() {
                if let Some(&j) = index.get(callee.as_str()) {
                    if seen.insert(j) {
                        callees[i].push(j);
                        callers[j].push(i);
                    }
                }
            }
        }
        CallGraph { names, index, callees, callers }
    }

    /// Number of defined functions.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the graph has no functions.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Defined callees of `name`, in first-call order.
    pub fn callees_of(&self, name: &str) -> Vec<&str> {
        match self.index.get(name) {
            Some(&i) => self.callees[i].iter().map(|&j| self.names[j].as_str()).collect(),
            None => Vec::new(),
        }
    }

    /// Defined callers of `name`.
    pub fn callers_of(&self, name: &str) -> Vec<&str> {
        match self.index.get(name) {
            Some(&i) => self.callers[i].iter().map(|&j| self.names[j].as_str()).collect(),
            None => Vec::new(),
        }
    }

    /// Function names in bottom-up order: every callee appears before each
    /// of its callers wherever the graph is acyclic; cycles are broken at
    /// the deterministic DFS back-edge (members keep their post-order).
    pub fn bottom_up(&self) -> Vec<&str> {
        self.post_order_ids().into_iter().map(|i| self.names[i].as_str()).collect()
    }

    /// Node ids in the [`CallGraph::bottom_up`] order.
    pub(crate) fn post_order_ids(&self) -> Vec<usize> {
        let mut state = vec![0u8; self.names.len()]; // 0 new, 1 visiting, 2 done
        let mut order = Vec::with_capacity(self.names.len());
        for start in 0..self.names.len() {
            self.post_order(start, &mut state, &mut order);
        }
        order
    }

    /// The name of node `i` (node ids are indices into
    /// [`Program::functions`]).
    pub(crate) fn name(&self, i: usize) -> &Symbol {
        &self.names[i]
    }

    /// Defined callees of node `i`, in first-call order. A call resolves to
    /// the last definition of its name.
    pub(crate) fn callee_ids(&self, i: usize) -> &[usize] {
        &self.callees[i]
    }

    fn post_order(&self, node: usize, state: &mut [u8], order: &mut Vec<usize>) {
        if state[node] != 0 {
            return;
        }
        state[node] = 1;
        for &c in &self.callees[node] {
            if state[c] == 0 {
                self.post_order(c, state, order);
            }
        }
        state[node] = 2;
        order.push(node);
    }

    /// Strongly connected components of the call graph; see
    /// [`strongly_connected`].
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        strongly_connected(&self.callees)
    }

    /// Whether `name` participates in a call cycle (including self-recursion).
    pub fn in_cycle(&self, name: &str) -> bool {
        let Some(&start) = self.index.get(name) else {
            return false;
        };
        // DFS from the node's callees back to itself.
        let mut stack: Vec<usize> = self.callees[start].clone();
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == start {
                return true;
            }
            if seen.insert(n) {
                stack.extend(self.callees[n].iter().copied());
            }
        }
        false
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
    fn bottom_up_orders_callees_first() {
        let p = parse(
            "int leaf() { return 1; }\n\
             int mid() { return leaf() + 1; }\n\
             int top_fn() { return mid() + leaf(); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let order = cg.bottom_up();
        let pos = |n: &str| order.iter().position(|&x| x == n).unwrap();
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("top_fn"));
        assert_eq!(cg.callees_of("top_fn"), vec!["mid", "leaf"]);
        assert_eq!(cg.callers_of("leaf"), vec!["mid", "top_fn"]);
        assert!(!cg.in_cycle("leaf"));
    }

    #[test]
    fn recursion_is_detected() {
        let p = parse("int r(int n) { if (n) { return r(n - 1); } return 0; }").unwrap();
        assert!(CallGraph::build(&p).in_cycle("r"));
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
