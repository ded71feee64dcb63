//! R8 (query-budget) must-pass fixture: declared budgets matching the
//! statically reachable batched-request sites, including a zero-budget
//! baseline.

// ampc-lint: budget(batched-requests = 2)
pub fn gamma_in_job(ctx: &mut MachineCtx<'_, u64>) {
    let keys: Vec<u64> = Vec::new();
    ctx.handle.get_many_with(&keys, |_, _| ());
    helper(ctx);
}

fn helper(ctx: &mut MachineCtx<'_, u64>) {
    ctx.handle.put_many(Vec::new());
}

// ampc-lint: budget(batched-requests = 0)
pub fn delta_in_job(job: &mut Job) {
    let x = job.rounds();
    let _ = x;
}
