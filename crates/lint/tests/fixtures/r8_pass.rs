//! R8 must-pass fixture: helpers that batch, helpers that get outside
//! any loop, and a get-reaching helper called outside loop context.

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
