//! Hostile frames against the shard server (DESIGN.md §12).
//!
//! `ShardServer::handle_request` is the whole server: the accept loop
//! only moves frames. Every frame here is built by hand, so the suite
//! also pins the wire layout. Whatever arrives — arbitrary bytes, or a
//! valid `LOAD` / `GET` with one byte changed, cut short or extended —
//! the server must not panic, a rejected frame (the empty reply) or a
//! lost-generation answer (`[0]`) must leave every stored generation as
//! it was, and a `GET` reply must be exactly what its header asked for.

use ampc_dht::socket::{op, ShardServer};
use proptest::collection::vec;
use proptest::prelude::*;

/// `[op][generation][count]`.
fn header(opcode: u8, generation: u64, count: usize) -> Vec<u8> {
    let mut frame = vec![opcode];
    frame.extend(generation.to_le_bytes());
    frame.extend((count as u32).to_le_bytes());
    frame
}

/// A `LOAD` of `values` at positions `first..`.
fn load(generation: u64, first: u32, values: &[Vec<u8>]) -> Vec<u8> {
    let mut frame = header(op::LOAD, generation, values.len());
    frame.extend(first.to_le_bytes());
    let mut end = 0u32;
    for v in values {
        end += v.len() as u32;
        frame.extend(end.to_le_bytes());
    }
    frame.extend(values.concat());
    frame
}

/// A `GET` of `positions`.
fn get(generation: u64, positions: &[u32]) -> Vec<u8> {
    let mut frame = header(op::GET, generation, positions.len());
    positions.iter().for_each(|p| frame.extend(p.to_le_bytes()));
    frame
}

/// A server holding generation 9 (`"", "a", "bcd"`) and generation 10
/// (`"x"`).
fn seeded() -> ShardServer {
    let mut server = ShardServer::default();
    let nine = [vec![], b"a".to_vec(), b"bcd".to_vec()];
    assert_eq!(server.handle_request(&load(9, 0, &nine)), (vec![1], false));
    assert_eq!(
        server.handle_request(&load(10, 0, &[b"x".to_vec()])),
        (vec![1], false)
    );
    server
}

/// Feeds `frame` to a seeded server and checks the properties every
/// frame must keep; returns the reply and the server after it.
fn feed(frame: &[u8]) -> (Vec<u8>, ShardServer) {
    let mut server = seeded();
    let before = server.clone();
    let (reply, _) = server.handle_request(frame);
    if reply.is_empty() || reply == [0] || frame.first() == Some(&op::GET) {
        assert_eq!(
            server, before,
            "a rejected or read-only frame changed state"
        );
    }
    if frame.first() == Some(&op::GET) && reply.first() == Some(&1) {
        let count = u32::from_le_bytes(frame[9..13].try_into().unwrap());
        let mut rest = &reply[1..];
        for _ in 0..count {
            let (len, tail) = rest.split_at_checked(4).expect("a length per position");
            let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
            rest = tail.get(len..).expect("the value the length promises");
        }
        assert!(rest.is_empty(), "a GET reply with trailing bytes");
    }
    (reply, server)
}

fn byte() -> impl Strategy<Value = u8> {
    (0u64..256).prop_map(|b| b as u8)
}

/// Arbitrary bytes, half of them behind a plausible header.
fn junk_frame() -> impl Strategy<Value = Vec<u8>> {
    let plausible = (1u64..7, 8u64..12, 0usize..6);
    ((0u64..2), plausible, vec(byte(), 0..48)).prop_map(|(raw, (opcode, g, count), body)| {
        let mut frame = if raw == 0 {
            Vec::new()
        } else {
            header(opcode as u8, g, count)
        };
        frame.extend(body);
        frame
    })
}

/// One change to a frame: `(kind, index, byte)` — set the byte at
/// `index`, cut the frame at `index`, or append the byte.
fn mutation() -> impl Strategy<Value = (u64, usize, u8)> {
    (0u64..3, 0usize..64, byte())
}

fn mutate(mut frame: Vec<u8>, (kind, index, b): (u64, usize, u8)) -> Vec<u8> {
    let at = index % frame.len();
    match kind {
        0 => frame[at] = b,
        1 => frame.truncate(at),
        _ => frame.push(b),
    }
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_or_change_state_when_rejected(frame in junk_frame()) {
        feed(&frame);
    }

    #[test]
    fn mutated_loads_never_panic_or_change_state_when_rejected(
        values in vec(vec(byte(), 0..6), 1..5),
        first in 0u32..4,
        m in mutation(),
    ) {
        let frame = mutate(load(9, first, &values), m);
        let (reply, mut server) = feed(&frame);
        if frame.first() == Some(&op::LOAD) && reply == [1] {
            // An accepted LOAD (one whose mutation kept it valid) is
            // readable at its last position.
            let g = u64::from_le_bytes(frame[1..9].try_into().unwrap());
            let count = u32::from_le_bytes(frame[9..13].try_into().unwrap());
            let first = u32::from_le_bytes(frame[13..17].try_into().unwrap());
            let (read, _) = server.handle_request(&get(g, &[first + count - 1]));
            prop_assert_eq!(read.first(), Some(&1));
        }
    }

    #[test]
    fn mutated_gets_never_panic_or_change_state(
        positions in vec(0u32..3, 0..6),
        m in mutation(),
    ) {
        let frame = get(9, &positions);
        let (reply, _) = feed(&frame);
        let mut want = vec![1];
        let nine: [&[u8]; 3] = [b"", b"a", b"bcd"];
        for &p in &positions {
            want.extend((nine[p as usize].len() as u32).to_le_bytes());
            want.extend(nine[p as usize]);
        }
        prop_assert_eq!(&reply, &want);
        prop_assert_eq!(feed(&frame).0, reply, "equal requests, byte-identical replies");
        feed(&mutate(frame, m));
    }
}

#[test]
fn named_hostile_frames_are_rejected_without_a_trace() {
    let rejected = |frame: &[u8]| {
        let (reply, _) = feed(frame);
        assert!(reply.is_empty(), "{frame:?} drew {reply:?}");
    };
    // Offsets that decrease.
    let mut frame = load(11, 0, &[b"ab".to_vec(), b"c".to_vec()]);
    frame[17..21].copy_from_slice(&4u32.to_le_bytes());
    rejected(&frame);
    // A last offset that is not the region's length, either way.
    let mut short = load(11, 0, &[b"abc".to_vec()]);
    short.pop();
    rejected(&short);
    let mut long = load(11, 0, &[b"abc".to_vec()]);
    long.push(b'd');
    rejected(&long);
    // A LOAD of no positions.
    rejected(&load(11, 0, &[]));
    // A GET position at, and past, the stored count.
    rejected(&get(9, &[3]));
    rejected(&get(9, &[0, u32::MAX]));
    // A GET on an unknown generation is answered, not rejected: `[0]`.
    assert_eq!(feed(&get(12, &[0])).0, [0]);
    // A LOAD continuing a generation the server does not hold, or at the
    // wrong position of one it does.
    assert_eq!(feed(&load(12, 1, &[b"a".to_vec()])).0, [0]);
    assert_eq!(feed(&load(9, 2, &[b"a".to_vec()])).0, [0]);
    assert_eq!(feed(&load(9, 3, &[b"a".to_vec()])).0, [1]);
}
