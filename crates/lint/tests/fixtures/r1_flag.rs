// Positive fixture for R1 (no-unbatched-get): a per-key handle.get in a
// loop body, one in an iterator-adapter callback, one split from its
// receiver by a comment, and one wrapped in a helper the loop calls —
// reported at the helper's get, with the loop in the witness chain.
// Scanned as if it lived in crates/core/src.
pub fn chase(ctx: &mut Ctx, keys: &[u64]) -> u64 {
    let mut acc = 0;
    for &k in keys {
        acc += *ctx.handle.get(k).unwrap();
    }
    let more: Vec<u64> = keys.iter().map(|&k| *ctx.handle.try_get(k).unwrap()).collect();
    for &k in keys {
        acc += *ctx.handle /* a comment between receiver and method */ .get(k).unwrap();
    }
    for &k in keys {
        acc += helper(ctx, k);
    }
    acc + more.len() as u64
}

fn helper(ctx: &mut MachineCtx<'_, u64>, k: u64) -> u64 {
    *ctx.handle.get(k).unwrap()
}
