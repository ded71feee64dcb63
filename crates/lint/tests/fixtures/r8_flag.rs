//! R8 (query-budget) must-flag fixture: a kernel with no budget
//! annotation, and one whose declared budget undercounts the sites
//! reachable via a helper.

pub fn alpha_in_job(ctx: &mut MachineCtx<'_, u64>) {
    let keys: Vec<u64> = Vec::new();
    ctx.handle.get_many_with(&keys, |_, _| ());
}

// ampc-lint: budget(batched-requests = 1)
pub fn beta_in_job(ctx: &mut MachineCtx<'_, u64>) {
    let keys: Vec<u64> = Vec::new();
    ctx.handle.get_many_with(&keys, |_, _| ());
    helper(ctx);
}

fn helper(ctx: &mut MachineCtx<'_, u64>) {
    ctx.handle.put_many(Vec::new());
}
