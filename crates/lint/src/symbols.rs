//! The workspace symbol table: every function-like item from every
//! parsed file, addressable by a global id, with the name-resolution
//! policy the interprocedural rules share.
//!
//! Resolution is heuristic (the linter has no type information): a call
//! to `f` resolves to items named `f`, preferring the **same file**,
//! then the **same crate**, then a **globally unique** match — and to
//! nothing at all when the name is ambiguous across crates, which
//! keeps false call-graph edges (and thus false findings) out at the
//! cost of missing some true ones. Method calls resolve by the method
//! name under the same policy; [`crate::callgraph`] special-cases the
//! `MachineHandle` primitives (`handle.get`, `handle.get_many_with`, …)
//! before resolution is consulted.

use crate::parser::{FnItem, ParsedFile};
use std::collections::BTreeMap;

/// Globally-unique function id: index into [`SymbolTable::fns`].
pub type FnId = usize;

/// One symbol: a function item plus where it lives.
#[derive(Clone, Debug)]
pub struct Symbol {
    /// Index of the owning file in [`SymbolTable::files`].
    pub file: usize,
    /// The parsed item.
    pub item: FnItem,
}

/// The workspace-wide symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Parsed files, in scan order.
    pub files: Vec<ParsedFile>,
    /// All function items, flattened; `FnId` indexes this.
    pub fns: Vec<Symbol>,
    by_name: BTreeMap<String, Vec<FnId>>,
}

/// The "crate" a workspace-relative path belongs to for resolution
/// purposes: `crates/<name>` keeps two components, everything else
/// (`src/…`, `tests/…`, `examples/…`) its first.
pub fn crate_of(rel: &str) -> &str {
    let mut slashes = rel.char_indices().filter(|&(_, c)| c == '/');
    if rel.starts_with("crates/") {
        slashes.next();
    }
    match slashes.next() {
        Some((i, _)) => &rel[..i],
        None => rel,
    }
}

impl SymbolTable {
    /// Builds the table from parsed files. Item order (file scan order,
    /// then body order within a file) fixes `FnId`s deterministically.
    pub fn build(files: Vec<ParsedFile>) -> SymbolTable {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (fi, pf) in files.iter().enumerate() {
            for item in &pf.fns {
                let id = fns.len();
                by_name.entry(item.name.clone()).or_default().push(id);
                fns.push(Symbol {
                    file: fi,
                    item: item.clone(),
                });
            }
        }
        SymbolTable {
            files,
            fns,
            by_name,
        }
    }

    /// The workspace-relative path of the file owning `id`.
    pub fn rel_of(&self, id: FnId) -> &str {
        &self.files[self.fns[id].file].rel
    }

    /// Resolves a call by name from the context of `caller`: same file,
    /// else same crate, else a globally unique match, else nothing.
    pub fn resolve(&self, caller: FnId, name: &str) -> Option<FnId> {
        let candidates = self.by_name.get(name)?;
        let caller_file = self.fns[caller].file;
        let same_file: Vec<FnId> = candidates
            .iter()
            .copied()
            .filter(|&id| self.fns[id].file == caller_file)
            .collect();
        if let [only] = same_file[..] {
            return Some(only);
        }
        if same_file.len() > 1 {
            // Several same-file items share the name (e.g. a method on
            // two impls): take the first in body order — they live in
            // the same file, so any witness chain stays honest.
            return Some(same_file[0]);
        }
        let caller_crate = crate_of(&self.files[caller_file].rel);
        let same_crate: Vec<FnId> = candidates
            .iter()
            .copied()
            .filter(|&id| crate_of(self.rel_of(id)) == caller_crate)
            .collect();
        if let [only] = same_crate[..] {
            return Some(only);
        }
        if same_crate.len() > 1 {
            return None; // ambiguous within the crate
        }
        if let [only] = candidates[..] {
            return Some(only);
        }
        None // ambiguous across crates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        SymbolTable::build(
            files
                .iter()
                .map(|(rel, src)| parse_source(rel, src))
                .collect(),
        )
    }

    #[test]
    fn crate_of_paths() {
        assert_eq!(crate_of("crates/core/src/mis/ampc.rs"), "crates/core");
        assert_eq!(crate_of("src/lib.rs"), "src");
        assert_eq!(crate_of("examples/quickstart.rs"), "examples");
        assert_eq!(crate_of("tests/smoke.rs"), "tests");
    }

    #[test]
    fn resolution_prefers_same_file_then_crate_then_unique() {
        let t = table(&[
            ("crates/a/src/x.rs", "fn go() { helper(); } fn helper() {}"),
            ("crates/a/src/y.rs", "fn helper() {}"),
            ("crates/b/src/z.rs", "fn helper() {} fn lonely() {}"),
        ]);
        let go = t.fns.iter().position(|s| s.item.name == "go").unwrap();
        let resolved = t.resolve(go, "helper").unwrap();
        assert_eq!(t.rel_of(resolved), "crates/a/src/x.rs", "same file wins");
        // `lonely` is globally unique → resolvable from anywhere.
        assert!(t.resolve(go, "lonely").is_some());
    }

    #[test]
    fn cross_crate_ambiguity_resolves_to_nothing() {
        let t = table(&[
            ("crates/a/src/x.rs", "fn go() { dup(); }"),
            ("crates/b/src/y.rs", "fn dup() {}"),
            ("crates/c/src/z.rs", "fn dup() {}"),
        ]);
        let go = t.fns.iter().position(|s| s.item.name == "go").unwrap();
        assert_eq!(t.resolve(go, "dup"), None);
    }
}
