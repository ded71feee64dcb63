// Negative fixture for R2: every observation of a std hash collection
// is order-insensitive or sorted before use, Fx maps are exempt by
// fixed-seed design (even when another function binds the same name to
// a std HashSet), and test-only iteration is out of scope.
use std::collections::HashMap;

pub fn sorted_first(m: &HashMap<u64, u64>) -> Vec<u64> {
    let mut keys: Vec<u64> = m.keys().copied().collect();
    keys.sort_unstable();
    keys
}

pub fn order_insensitive(m: &HashMap<u64, u64>) -> usize {
    m.len()
}

pub fn max_key(m: &HashMap<u64, u64>) -> Option<u64> {
    m.keys().copied().max()
}

pub fn fixed_seed(fx: &FxHashMap<u64, u64>) -> Vec<u64> {
    fx.keys().copied().collect()
}

pub fn canonical(acc: &mut Digest) {
    let mut m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    m.insert(1, 2);
    let mut order: Vec<u64> = m.keys().copied().collect();
    order.sort_unstable();
    acc.digest(&order);
}

pub fn counted(acc: &mut Digest) {
    let m: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let n = m.len();
    acc.digest(&n);
}

pub fn fx_is_exempt(acc: &mut Digest) {
    let m: FxHashMap<u64, u64> = FxHashMap::default();
    let vals: Vec<u64> = m.values().copied().collect();
    acc.digest(&vals);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_in_tests_is_out_of_scope() {
        let m: HashMap<u64, u64> = HashMap::new();
        for (k, v) in m.iter() {
            assert!(k >= v);
        }
    }
}
