//! A socket generation whose shard servers restarted stays lost, loudly
//! (DESIGN.md §12).
//!
//! A respawned server holds nothing, so a read of a generation sealed
//! before the crash must panic rather than be retried forever or served
//! as an absence — the §3 contract forbids schedule-dependent answers.
//! This is its own test binary because it kills the process-global
//! shard fleet, which no other test may share.

use ampc_dht::socket::cluster;
use ampc_dht::store::{Generation, GenerationWriter, StoreKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A socket generation holding `k ↦ 3k` for `k < n`.
fn seal(n: u64) -> Generation<u64> {
    let w = GenerationWriter::new();
    for k in 0..n {
        w.put(k, 3 * k);
    }
    let g = w.seal_on(StoreKind::Socket, 1);
    assert_eq!(g.backend(), StoreKind::Socket);
    g
}

#[test]
fn a_generation_lost_to_a_respawn_panics_and_later_ones_read_back() {
    let lost = seal(64);
    assert_eq!(lost.get(5), Some(&15), "read back before the crash");
    cluster().kill_servers_for_test();
    let panic = catch_unwind(AssertUnwindSafe(|| lost.get(6).copied()))
        .expect_err("a lost generation must not read back");
    let message = panic.downcast_ref::<String>().map_or("", String::as_str);
    assert!(
        message.contains("generation") && message.contains("lost key 6"),
        "unexpected panic: {message:?}"
    );
    let fresh = seal(64);
    let mut got = Vec::new();
    fresh.get_many_with(&(0..64).collect::<Vec<u64>>(), |_, v| got.push(*v.unwrap()));
    assert_eq!(got, (0..64).map(|k| 3 * k).collect::<Vec<u64>>());
}
