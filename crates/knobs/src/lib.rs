//! The `AMPC_*` environment-knob registry.
//!
//! Every runtime read of the process environment in this workspace goes
//! through this crate — the root `clippy.toml` (DESIGN.md §9) rejects
//! `std::env::var` anywhere else. Centralizing the reads buys three things:
//!
//! * **discoverability** — [`all`] enumerates every knob with its
//!   accepted values and default, so docs, `--help` text and the CI
//!   smoke matrix can never silently drift from the code;
//! * **one parse** — each knob has exactly one parser, so `AMPC_STORE=Socket`
//!   cannot mean "socket" to one crate and "malformed, use default" to
//!   another;
//! * **determinism auditing** — the environment is ambient mutable
//!   state; keeping all reads in one dependency-free leaf crate makes
//!   the audit surface for schedule-independent outputs (DESIGN.md §3)
//!   a single file.
//!
//! The crate is a dependency-free leaf so that every other workspace
//! crate (`graph` and `dht` included, which sit below `runtime` in the
//! dependency order) can use it. `ampc_runtime::config` re-exports it
//! as `knobs` for the runtime-facing entry point.

#![deny(missing_docs)]
#![deny(unsafe_code)]

/// A registered environment knob: its name, what it accepts, and what
/// happens when it is unset or malformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnobSpec {
    /// The environment variable name (`AMPC_*`).
    pub name: &'static str,
    /// Accepted values, human-readable.
    pub accepts: &'static str,
    /// Behavior when unset or malformed.
    pub default: &'static str,
    /// What the knob controls.
    pub doc: &'static str,
}

/// Every knob the workspace reads, in alphabetical order. Tests pin
/// this table against the accessor set below so the registry cannot
/// rot.
pub const KNOBS: &[KnobSpec] = &[
    KnobSpec {
        name: "AMPC_CHAOS",
        accepts: "a chaos spec string (`chaos:seed=S[:rate=R][:drop=D]\
                  [:retries=C][:stripe=K][:kill=a.b+c.d][:ekill=e.m]`) \
                  or a bare integer seed",
        default: "unset or malformed: chaos disabled",
        doc: "Seeded chaos schedule: multi-fault machine kills and DHT \
              batch drops with capped-backoff retries. Outputs stay \
              byte-identical to a fault-free run; only simulated time \
              and the retry/replay counters change.",
    },
    KnobSpec {
        name: "AMPC_SCALE",
        accepts: "test | mid | bench (case-insensitive)",
        default: "mid",
        doc: "How large a dataset analogue the harnesses generate \
              (DESIGN.md §5). Purely an input-size knob.",
    },
    KnobSpec {
        name: "AMPC_SOCKET_SHARDS",
        accepts: "a positive integer",
        default: "4",
        doc: "How many shard-server processes the socket substrate \
              spawns (DESIGN.md §12). Only read when `AMPC_STORE=socket` \
              brings the substrate up; a layout knob only — outputs and \
              CommStats are identical for every value.",
    },
    KnobSpec {
        name: "AMPC_STORE",
        accepts: "flat | socket",
        default: "flat",
        doc: "Sealed-generation storage substrate (DESIGN.md §5.4, §12): \
              the flat dense/open-addressed in-memory layout, or the \
              same layout with its values served by shard-server \
              processes behind Unix-domain sockets. Observationally \
              identical outputs in both modes.",
    },
    KnobSpec {
        name: "AMPC_THREADS",
        accepts: "a positive integer",
        default: "the machine's available parallelism",
        doc: "Executor concurrency: how many machine bodies may run at \
              once (1 = fully inline). A wall-clock knob only — \
              outputs, round counts and CommStats are identical for \
              every value.",
    },
];

/// The registry table.
pub fn all() -> &'static [KnobSpec] {
    KNOBS
}

/// Raw (unparsed) read of a registered knob. Panics in debug builds if
/// `name` is not in [`KNOBS`] — unregistered reads are exactly what the
/// registry exists to prevent.
#[expect(
    clippy::disallowed_methods,
    reason = "the registry is the one reader of the environment"
)]
pub fn raw(name: &str) -> Option<String> {
    debug_assert!(
        KNOBS.iter().any(|k| k.name == name),
        "read of unregistered environment knob {name:?}; add it to ampc_knobs::KNOBS"
    );
    std::env::var(name).ok()
}

/// `AMPC_CHAOS`: the raw chaos spec string, if set and non-empty. The
/// grammar is owned by `ampc_runtime::chaos::ChaosSpec::parse` (this
/// crate stays dependency-free and does not parse it); unset or empty
/// means chaos disabled. Read per call (cheap, and lets tests flip it
/// between jobs); the resolved value is captured into `AmpcConfig` at
/// construction, so a running job never re-reads the environment.
pub fn ampc_chaos() -> Option<String> {
    raw("AMPC_CHAOS").filter(|v| !v.trim().is_empty())
}

/// `AMPC_SCALE`: normalized to `"test"`, `"mid"` or `"bench"`
/// (case-insensitive; unset or unrecognized values default to `"mid"`).
/// Callers map the token onto their own enum so this crate stays
/// dependency-free.
pub fn ampc_scale() -> &'static str {
    scale_token(raw("AMPC_SCALE").as_deref())
}

fn scale_token(value: Option<&str>) -> &'static str {
    match value.map(str::to_ascii_lowercase).as_deref() {
        Some("test") => "test",
        Some("bench") => "bench",
        _ => "mid",
    }
}

/// `AMPC_STORE`: the requested storage substrate, normalized to
/// `"flat"` or `"socket"` (unset or unrecognized values default to
/// `"flat"`). The store module caches the resolved mode in
/// an atomic (and offers a runtime override); this is only the
/// environment half. Callers map the token onto their own enum so this
/// crate stays dependency-free.
pub fn ampc_store() -> &'static str {
    match raw("AMPC_STORE").map(|v| v.to_ascii_lowercase()).as_deref() {
        Some("socket") => "socket",
        _ => "flat",
    }
}

/// `AMPC_SOCKET_SHARDS`: how many shard-server processes the socket
/// substrate spawns. Unset, malformed or zero falls back to 4. Read
/// once when the process-global cluster comes up (the fleet cannot be
/// resized afterwards).
pub fn ampc_socket_shards() -> usize {
    raw("AMPC_SOCKET_SHARDS")
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// `AMPC_THREADS`: the worker count used by parallel seals and the
/// runtime's persistent executor pool, cached after the first read (the
/// pool is process-global, so later changes could not take effect
/// anyway). Unset or malformed values fall back to the machine's
/// available parallelism; `1` disables worker threads entirely.
pub fn ampc_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        let fallback = || std::thread::available_parallelism().map_or(1, |p| p.get());
        match raw("AMPC_THREADS") {
            Some(v) => v
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&t| t >= 1)
                .unwrap_or_else(fallback),
            None => fallback(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_prefixed() {
        for pair in KNOBS.windows(2) {
            assert!(pair[0].name < pair[1].name, "KNOBS must stay sorted");
        }
        for k in KNOBS {
            assert!(k.name.starts_with("AMPC_"), "{} lacks the prefix", k.name);
            assert!(!k.doc.is_empty() && !k.accepts.is_empty());
        }
    }

    #[test]
    fn scale_ignores_case_like_batch_and_store() {
        assert_eq!(scale_token(Some("TEST")), "test");
        assert_eq!(scale_token(Some("Bench")), "bench");
        assert_eq!(scale_token(Some("test")), "test");
        assert_eq!(scale_token(Some("MID")), "mid");
        assert_eq!(scale_token(Some("huge")), "mid");
        assert_eq!(scale_token(None), "mid");
    }

    #[test]
    fn defaults_are_sane_when_unset() {
        // CI may set these; only assert the unset-or-valid contract.
        assert!(ampc_threads() >= 1);
        assert!(matches!(ampc_scale(), "test" | "mid" | "bench"));
        assert!(matches!(ampc_store(), "flat" | "socket"));
        assert!(ampc_socket_shards() >= 1);
        // Chaos is never silently on: only a set, non-empty value
        // yields a spec string for the runtime to parse.
        if let Some(v) = ampc_chaos() {
            assert!(!v.trim().is_empty());
        }
    }
}
