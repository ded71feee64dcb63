// Negative fixture for R1: batched lookups inside the loop, a single
// per-key fetch outside any loop, a helper that batches, and a
// get-reaching helper called outside loop context — all conforming.
pub fn batched(ctx: &mut Ctx, rounds: &[Vec<u64>]) -> u64 {
    let mut acc = 0;
    for keys in rounds {
        ctx.handle.get_many_with(keys, |_, v| {
            acc += *v.unwrap();
        });
    }
    acc += *ctx.handle.get(7).unwrap();
    acc
}

pub fn kernel(ctx: &mut MachineCtx<'_, u64>, items: &[u64]) -> Vec<u64> {
    let mut out = helper_batched(ctx, items);
    out.push(helper_single(ctx, 3));
    out
}

fn helper_batched(ctx: &mut MachineCtx<'_, u64>, items: &[u64]) -> Vec<u64> {
    let keys: Vec<u64> = items.to_vec();
    let mut out = Vec::new();
    ctx.handle
        .get_many_with(&keys, |_, v| out.push(*v.unwrap()));
    out
}

fn helper_single(ctx: &mut MachineCtx<'_, u64>, k: u64) -> u64 {
    *ctx.handle.get(k).unwrap()
}
