//! The workspace call graph and the reachability queries behind the
//! call-graph rules (DESIGN.md §9: R1 `no-unbatched-get`, R8
//! `query-budget`).
//!
//! Nodes are [`crate::symbols`] function ids; edges are resolved call
//! sites. Calls on the DHT machine handle (`…handle.get(…)`,
//! `…handle.get_many_with(…)`, and friends, plus calls through a parameter
//! whose type names `MachineHandle`) are **primitives**, not edges:
//! they are what reachability terminates on. Every query answers with
//! a *witness chain* — the `a -> b -> handle.get` path, each step
//! carrying a `file:line` span — because a finding a maintainer cannot
//! retrace is a finding that gets suppressed instead of fixed.

use crate::parser::CallSite;
use crate::symbols::{FnId, SymbolTable};
use std::collections::VecDeque;

/// The per-key handle lookups R1 polices.
pub const PER_KEY_GETS: &[&str] = &["get", "try_get"];

/// The batched-request handle methods R8 counts: each call site is
/// one accounted round trip per machine per round (DESIGN.md §5.3).
pub const BATCHED_REQUESTS: &[&str] = &[
    "get_many_with",
    "get_many_into",
    "get_many_through_with",
    "put_many",
];

/// One step of a witness chain: a function entered (located at its
/// declaration) or, as the final step, the primitive call site itself.
/// An R1 chain starts at the loop: its first step is the function that
/// holds the loop, located at the in-loop call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainStep {
    /// Function name, or `handle.<method>` for the terminal primitive.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line (declaration line for functions entered, call-site
    /// line for the terminal primitive and for an R1 chain's loop).
    pub line: u32,
}

/// Renders a chain as `a (f:1) -> b (g:2)`.
pub fn render_chain(steps: &[ChainStep]) -> String {
    steps
        .iter()
        .map(|s| format!("{} ({}:{})", s.name, s.file, s.line))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// True when `call` inside `owner` is a DHT handle primitive: receiver
/// is literally `handle` (the `ctx.handle.…` idiom) or a parameter of
/// `owner` whose declared type names `MachineHandle`.
pub fn is_handle_call(sym: &SymbolTable, owner: FnId, call: &CallSite) -> bool {
    match &call.receiver {
        Some(r) if r == "handle" => true,
        Some(r) => sym.fns[owner]
            .item
            .params
            .iter()
            .any(|(name, ty)| name == r && ty.contains("MachineHandle")),
        None => false,
    }
}

/// The resolved call graph.
pub struct CallGraph<'a> {
    sym: &'a SymbolTable,
    /// Per function: `(call index, resolved callee)` for every call
    /// that resolved to a workspace function.
    edges: Vec<Vec<(usize, FnId)>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph by resolving every non-primitive call.
    pub fn build(sym: &'a SymbolTable) -> CallGraph<'a> {
        let mut edges = vec![Vec::new(); sym.fns.len()];
        for (id, f) in sym.fns.iter().enumerate() {
            for (ci, call) in f.item.calls.iter().enumerate() {
                if is_handle_call(sym, id, call) {
                    continue;
                }
                // A plain call whose name is one of the caller's own
                // parameters invokes a function *value* (`body(&mut
                // ctx)` where `body: &F`): the static callee is
                // unknowable, so no edge — same ambiguity-over-
                // false-witness policy as name resolution.
                if call.receiver.is_none()
                    && call.path.is_empty()
                    && f.item.params.iter().any(|(name, _)| name == &call.callee)
                {
                    continue;
                }
                if let Some(callee) = sym.resolve(id, &call.callee) {
                    if callee != id {
                        edges[id].push((ci, callee));
                    }
                }
            }
        }
        CallGraph { sym, edges }
    }

    /// The per-key `handle.get`/`try_get` sites that run once per loop
    /// iteration, as `(owner, get, witness chain)`. `loop_site` decides
    /// which calls count as loop sites. A get is reported when it is a
    /// loop site itself (empty chain), or when a forward BFS over the
    /// edges of every loop site reaches its function. The chain is then
    /// the shortest one: the loop's function (at the in-loop call),
    /// each function entered (at its declaration), and the get.
    /// Deterministic: functions, calls and edges are visited in order.
    pub(crate) fn gets_under_loops(
        &self,
        loop_site: impl Fn(FnId, &CallSite) -> bool,
    ) -> Vec<(FnId, &'a CallSite, Vec<ChainStep>)> {
        let sym = self.sym;
        let mut witness: Vec<Option<Vec<ChainStep>>> = vec![None; sym.fns.len()];
        let mut queue = VecDeque::new();
        for (id, es) in self.edges.iter().enumerate() {
            for &(ci, callee) in es {
                let call = &sym.fns[id].item.calls[ci];
                if witness[callee].is_none() && loop_site(id, call) {
                    let at_loop = ChainStep {
                        line: call.line,
                        ..fn_step(sym, id)
                    };
                    witness[callee] = Some(vec![at_loop, fn_step(sym, callee)]);
                    queue.push_back(callee);
                }
            }
        }
        while let Some(id) = queue.pop_front() {
            for &(_, callee) in &self.edges[id] {
                if witness[callee].is_none() {
                    let mut chain = witness[id].clone().unwrap_or_default();
                    chain.push(fn_step(sym, callee));
                    witness[callee] = Some(chain);
                    queue.push_back(callee);
                }
            }
        }
        let mut out = Vec::new();
        for (id, f) in sym.fns.iter().enumerate() {
            for call in &f.item.calls {
                if !PER_KEY_GETS.contains(&call.callee.as_str()) || !is_handle_call(sym, id, call) {
                    continue;
                }
                let chain = if loop_site(id, call) {
                    Vec::new()
                } else if let Some(w) = &witness[id] {
                    let mut chain = w.clone();
                    chain.push(handle_step(sym, id, call));
                    chain
                } else {
                    continue;
                };
                out.push((id, call, chain));
            }
        }
        out
    }

    /// Enumerates the batched-request sites reachable from `from`
    /// (itself included), each with one witness chain from `from` to
    /// the site. Sites are deduplicated by span; a function's sites are
    /// counted once no matter how many paths reach it. Deterministic:
    /// depth-first in call-site order.
    pub fn reachable_batched_sites(&self, from: FnId) -> Vec<Vec<ChainStep>> {
        let sym = self.sym;
        let mut out = Vec::new();
        let mut visited = vec![false; sym.fns.len()];
        let mut stack_path = vec![fn_step(sym, from)];
        self.batched_dfs(from, &mut visited, &mut stack_path, &mut out);
        out
    }

    fn batched_dfs(
        &self,
        id: FnId,
        visited: &mut [bool],
        path: &mut Vec<ChainStep>,
        out: &mut Vec<Vec<ChainStep>>,
    ) {
        if visited[id] {
            return;
        }
        visited[id] = true;
        let sym = self.sym;
        let f = &sym.fns[id];
        let mut edge_iter = self.edges[id].iter().peekable();
        for (ci, call) in f.item.calls.iter().enumerate() {
            if BATCHED_REQUESTS.contains(&call.callee.as_str()) && is_handle_call(sym, id, call) {
                let mut chain = path.clone();
                chain.push(handle_step(sym, id, call));
                out.push(chain);
            }
            while let Some(&&(eci, callee)) = edge_iter.peek() {
                if eci > ci {
                    break;
                }
                edge_iter.next();
                if eci == ci {
                    path.push(fn_step(sym, callee));
                    self.batched_dfs(callee, visited, path, out);
                    path.pop();
                }
            }
        }
    }
}

fn fn_step(sym: &SymbolTable, id: FnId) -> ChainStep {
    ChainStep {
        name: sym.fns[id].item.name.clone(),
        file: sym.rel_of(id).to_string(),
        line: sym.fns[id].item.line,
    }
}

/// The terminal `handle.<method>` step for a primitive call in `owner`.
fn handle_step(sym: &SymbolTable, owner: FnId, call: &CallSite) -> ChainStep {
    ChainStep {
        name: format!("handle.{}", call.callee),
        file: sym.rel_of(owner).to_string(),
        line: call.line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;
    use crate::symbols::SymbolTable;

    fn graph_of(files: &[(&str, &str)]) -> SymbolTable {
        SymbolTable::build(
            files
                .iter()
                .map(|(rel, src)| parse_source(rel, src))
                .collect(),
        )
    }

    /// Every in-loop call is a loop site.
    fn in_loop(_: FnId, call: &CallSite) -> bool {
        call.in_loop
    }

    #[test]
    fn transitive_get_witness_spans_files() {
        let sym = graph_of(&[
            (
                "crates/core/src/a.rs",
                "pub fn kernel(ctx: &mut Ctx) {\n for v in 0..2 { helper(ctx); }\n}",
            ),
            (
                "crates/core/src/b.rs",
                "pub fn helper(ctx: &mut Ctx) { ctx.handle.get(1); }",
            ),
        ]);
        let cg = CallGraph::build(&sym);
        let gets = cg.gets_under_loops(in_loop);
        assert_eq!(gets.len(), 1, "one get, reported once");
        let (owner, _, chain) = &gets[0];
        assert_eq!(sym.fns[*owner].item.name, "helper", "reported at the get");
        let names: Vec<&str> = chain.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["kernel", "helper", "handle.get"]);
        assert_eq!(
            (chain[0].file.as_str(), chain[0].line),
            ("crates/core/src/a.rs", 2),
            "the chain starts at the loop's call"
        );
        assert_eq!(chain[2].file, "crates/core/src/b.rs");
    }

    #[test]
    fn handle_param_type_counts_as_primitive_receiver() {
        let sym = graph_of(&[(
            "crates/core/src/a.rs",
            "fn probe(h: &mut MachineHandle<V>) { loop { h.try_get(9); } }",
        )]);
        let cg = CallGraph::build(&sym);
        let gets = cg.gets_under_loops(in_loop);
        assert_eq!(gets.len(), 1);
        assert_eq!(gets[0].1.callee, "try_get");
        assert!(gets[0].2.is_empty(), "a get in its own loop needs no chain");
    }

    #[test]
    fn batched_sites_dedupe_across_paths_and_terminate_on_cycles() {
        let sym = graph_of(&[(
            "crates/core/src/a.rs",
            r#"
            fn kernel(ctx: &mut Ctx) { one(ctx); two(ctx); }
            fn one(ctx: &mut Ctx) { shared(ctx); ctx.handle.put_many(x); }
            fn two(ctx: &mut Ctx) { shared(ctx); }
            fn shared(ctx: &mut Ctx) { ctx.handle.get_many_with(&k, f); recur(ctx); }
            fn recur(ctx: &mut Ctx) { shared(ctx); }
            "#,
        )]);
        let cg = CallGraph::build(&sym);
        let kernel = sym
            .fns
            .iter()
            .position(|f| f.item.name == "kernel")
            .unwrap();
        let sites = cg.reachable_batched_sites(kernel);
        let names: Vec<&str> = sites
            .iter()
            .map(|c| c.last().unwrap().name.as_str())
            .collect();
        assert_eq!(names, vec!["handle.get_many_with", "handle.put_many"]);
        // The get_many_with chain goes kernel -> one -> shared.
        let chain: Vec<&str> = sites[0].iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            chain,
            vec!["kernel", "one", "shared", "handle.get_many_with"]
        );
    }

    #[test]
    fn unresolved_and_ambiguous_calls_make_no_edges() {
        let sym = graph_of(&[
            ("crates/a/src/x.rs", "fn go() { loop { mystery(); } }"),
            ("crates/b/src/y.rs", "fn mystery() { handle.get(1); }"),
            ("crates/c/src/z.rs", "fn mystery() {}"),
        ]);
        let cg = CallGraph::build(&sym);
        assert!(cg.gets_under_loops(in_loop).is_empty());
    }
}
