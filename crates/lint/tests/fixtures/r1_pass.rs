// Negative fixture for R1: batched lookups inside the loop, and a
// single per-key fetch outside any loop — both conforming.
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
