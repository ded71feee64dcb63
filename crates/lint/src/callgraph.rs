//! The workspace call graph and the reachability queries behind the
//! interprocedural rules (DESIGN.md §9, R8/R10).
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

/// The per-key handle lookups R1/R8 police.
pub const PER_KEY_GETS: &[&str] = &["get", "try_get"];

/// The batched-request handle methods R10 counts: each call site is
/// one accounted round trip per machine per round (DESIGN.md §5.3).
pub const BATCHED_REQUESTS: &[&str] = &[
    "get_many_with",
    "get_many_into",
    "get_many_through_with",
    "put_many",
];

/// One step of a witness chain: a function entered (located at its
/// declaration) or, as the final step, the primitive call site itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainStep {
    /// Function name, or `handle.<method>` for the terminal primitive.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line (declaration line for functions, call-site line
    /// for the terminal primitive).
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

    /// For every function, the shortest witness chain from its body to
    /// a per-key `handle.get`/`try_get`, or `None` when it cannot reach
    /// one. The chain starts with the function itself and ends at the
    /// primitive call site.
    pub fn per_key_get_witnesses(&self) -> Vec<Option<Vec<ChainStep>>> {
        let sym = self.sym;
        let mut witness: Vec<Option<Vec<ChainStep>>> = vec![None; sym.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        for (id, f) in sym.fns.iter().enumerate() {
            if let Some(call) =
                f.item.calls.iter().find(|c| {
                    PER_KEY_GETS.contains(&c.callee.as_str()) && is_handle_call(sym, id, c)
                })
            {
                witness[id] = Some(vec![
                    fn_step(sym, id),
                    ChainStep {
                        name: format!("handle.{}", call.callee),
                        file: sym.rel_of(id).to_string(),
                        line: call.line,
                    },
                ]);
                queue.push_back(id);
            }
        }
        // Reverse-BFS: shortest chains, deterministic because fns and
        // their edges are visited in id order.
        let mut callers: Vec<Vec<FnId>> = vec![Vec::new(); sym.fns.len()];
        for (id, es) in self.edges.iter().enumerate() {
            for &(_, callee) in es {
                callers[callee].push(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            let w = witness[id].clone().unwrap();
            for &caller in &callers[id] {
                if witness[caller].is_none() {
                    let mut chain = vec![fn_step(sym, caller)];
                    chain.extend(w.iter().cloned());
                    witness[caller] = Some(chain);
                    queue.push_back(caller);
                }
            }
        }
        witness
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
                chain.push(ChainStep {
                    name: format!("handle.{}", call.callee),
                    file: sym.rel_of(id).to_string(),
                    line: call.line,
                });
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

    #[test]
    fn transitive_get_witness_spans_files() {
        let sym = graph_of(&[
            (
                "crates/core/src/a.rs",
                "pub fn kernel(ctx: &mut Ctx) { helper(ctx); }",
            ),
            (
                "crates/core/src/b.rs",
                "pub fn helper(ctx: &mut Ctx) { ctx.handle.get(1); }",
            ),
        ]);
        let cg = CallGraph::build(&sym);
        let w = cg.per_key_get_witnesses();
        let kernel = sym
            .fns
            .iter()
            .position(|f| f.item.name == "kernel")
            .unwrap();
        let chain = w[kernel].as_ref().expect("kernel reaches handle.get");
        let names: Vec<&str> = chain.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["kernel", "helper", "handle.get"]);
        assert_eq!(chain[2].file, "crates/core/src/b.rs");
    }

    #[test]
    fn handle_param_type_counts_as_primitive_receiver() {
        let sym = graph_of(&[(
            "crates/core/src/a.rs",
            "fn probe(h: &mut MachineHandle<V>) { h.try_get(9); }",
        )]);
        let cg = CallGraph::build(&sym);
        let w = cg.per_key_get_witnesses();
        assert!(w[0].is_some());
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
            ("crates/a/src/x.rs", "fn go() { mystery(); }"),
            ("crates/b/src/y.rs", "fn mystery() { h.get(1); }"),
            ("crates/c/src/z.rs", "fn mystery() {}"),
        ]);
        let cg = CallGraph::build(&sym);
        let go = sym.fns.iter().position(|f| f.item.name == "go").unwrap();
        assert!(cg.per_key_get_witnesses()[go].is_none());
    }
}
