// Positive fixture for R2 (no-unordered-iteration): iterating a std
// HashMap in two unordered ways, a hash-ordered Vec built for a digest,
// and a helper returning a HashSet's visit order. Scanned as if in
// crates/core/src.
use std::collections::HashMap;

pub fn leak_order(m: &HashMap<u64, u64>) -> Vec<u64> {
    let mut out = Vec::new();
    for (k, v) in m.iter() {
        out.push(*k + *v);
    }
    let built: HashMap<u64, u64> = HashMap::new();
    built.keys().for_each(|k| out.push(*k));
    out
}

pub fn emit(acc: &mut Digest) {
    let mut m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    m.insert(1, 2);
    let order: Vec<u64> = m.keys().copied().collect();
    acc.digest(&order);
}

fn scramble() -> Vec<u64> {
    let mut s: std::collections::HashSet<u64> = std::collections::HashSet::new();
    s.insert(9);
    s.iter().copied().collect()
}
