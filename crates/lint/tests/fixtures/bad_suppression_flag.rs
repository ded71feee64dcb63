// Fixture for the bad-suppression meta-rule: a marker without a
// justification, one naming an unknown rule, and a justified one that
// silences nothing. All three must flag, and neither of the first two
// silences the violation it decorates.
use std::time::Instant;

pub fn unjustified(f: impl FnOnce()) -> u128 {
    // ampc-lint: allow(no-wall-clock-or-ambient-rng)
    let t = Instant::now();
    f();
    t.elapsed().as_nanos()
}

pub fn unknown_rule() {
    // ampc-lint: allow(no-such-rule) -- confidently wrong.
    std::thread::spawn(|| {});
}

pub fn stale() -> u64 {
    // ampc-lint: allow(no-raw-spawn) -- the spawn this justified is gone.
    40 + 2
}
