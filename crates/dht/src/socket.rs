//! The socket-backed shard transport (DESIGN.md §12).
//!
//! Under `AMPC_STORE=socket`, sealed generations offload their values to
//! **shard servers in separate OS processes**, reached over Unix-domain
//! sockets with a length-prefixed deterministic wire format. This module
//! owns the transport half of the substrate: the frame codec, the shard
//! server loop (run by the `ampc-shardd` binary, or by an in-process
//! listener thread when the binary is not on disk), and the client-side
//! [`SocketCluster`] that spawns, supervises and reconnects to the
//! servers.
//!
//! # Wire format
//!
//! Every message is one **frame**: a little-endian `u32` byte length
//! followed by that many payload bytes. A request payload is
//! `[op: u8][generation: u64][count: u32][entries…]` with the entry
//! layout per opcode:
//!
//! * `LOAD` — `count × (key: u64, len: u32, bytes)`; response `[1]`.
//! * `GET` — `count × key: u64`; response `count × (present: u8,
//!   [len: u32, bytes] if present)`, **in request order** (that order
//!   is what makes the format deterministic: equal batches produce
//!   byte-identical frames in both directions).
//! * `DROP_GEN` — no entries; the server frees the generation.
//! * `PING` / `SHUTDOWN` — health check / orderly exit; response `[1]`.
//!
//! A frame whose body is not exactly the entries its `count` promises is
//! answered with an empty reply and changes nothing on the server. The
//! client checks replies the same way — `[1]` for `LOAD` and `PING`,
//! exactly `count` entries and nothing after them for `GET` — and
//! retries a rejected one like an I/O error.
//!
//! Integers are little-endian throughout (the same [`crate::wire`]
//! codec values use). Blobs are opaque to the server: it never decodes
//! a value, so one server binary serves every value type.
//!
//! # Supervision and retry
//!
//! The cluster spawns one server per shard (`AMPC_SOCKET_SHARDS`) with
//! its stdin piped — the server exits when the pipe closes, so a
//! crashed or killed client never leaks orphan processes. A failed
//! request reconnects under the same capped exponential backoff shape
//! as the chaos engine's drop retries (`2^k − 1` backoff units,
//! [`crate::fault::DropPlan::backoff_units`]), respawning the server
//! process if it died. Transport retries are **real** and therefore
//! live in the process-global [`WireMetrics`], never in `CommStats` —
//! the model's accounting stays byte-identical to the in-memory
//! substrate by construction.

use crate::fault::DropPlan;
use crate::hasher::{mix64, FxHashMap};
use crate::wire::Wire;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Request opcodes (one byte on the wire).
pub mod op {
    /// Store a batch of `(key, blob)` pairs for a generation.
    pub const LOAD: u8 = 1;
    /// Fetch a batch of keys from a generation, responses in request order.
    pub const GET: u8 = 2;
    /// Free everything stored for a generation.
    pub const DROP_GEN: u8 = 3;
    /// Health check.
    pub const PING: u8 = 4;
    /// Orderly server exit (used by standalone clusters in tests).
    pub const SHUTDOWN: u8 = 5;
}

/// Upper bound on a single frame: corrupt length prefixes fail fast
/// instead of attempting a gigabyte allocation.
const MAX_FRAME: usize = 1 << 30;

/// `LOAD` batches are split so no single frame exceeds this many bytes
/// of payload (plus one entry): bounded buffering on both sides.
const LOAD_CHUNK_BYTES: usize = 4 << 20;

/// Reconnect attempts before a transport error is fatal. The sleep
/// before attempt `k` is `DropPlan::backoff_units(k)` backoff units —
/// the same capped exponential shape `CommStats::backoff_units`
/// charges for simulated drop retries (DESIGN.md §10).
const RECONNECT_CAP: u32 = 6;

/// One real-time backoff unit for transport retries.
const BACKOFF_UNIT: std::time::Duration = std::time::Duration::from_millis(2);

/// The shard-server binary name the cluster looks for next to the
/// current executable (`target/<profile>/ampc-shardd`).
pub const SHARDD_BIN: &str = "ampc-shardd";

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
fn write_frame(stream: &mut UnixStream, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Reads one length-prefixed frame.
fn read_frame(stream: &mut UnixStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame length exceeds sanity bound",
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

/// Starts a request payload: `[op][generation][count]`.
fn request_header(opcode: u8, generation: u64, count: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(13);
    out.push(opcode);
    generation.wire_encode(&mut out);
    count.wire_encode(&mut out);
    out
}

/// Accepts the one-byte acknowledgement `LOAD` and `PING` answer with.
fn ack(reply: &[u8]) -> Option<()> {
    (reply == [1]).then_some(())
}

/// Parses a `GET` reply for `count` keys: exactly `count` entries, each
/// `0` (absent) or `1, len: u32, bytes`, then the end of the buffer.
/// `None` for anything else — truncated, a bad tag, an extra entry or
/// trailing bytes.
fn parse_get_reply(reply: &[u8], count: usize) -> Option<Vec<Option<Vec<u8>>>> {
    let mut buf = reply;
    let blobs = (0..count)
        .map(|_| match u8::wire_decode(&mut buf)? {
            0 => Some(None),
            1 => split_blob(&mut buf).map(|blob| Some(blob.to_vec())),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    buf.is_empty().then_some(blobs)
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Binds `path` and serves shard requests until `SHUTDOWN` (the
/// `ampc-shardd` binary's whole job). A stale socket file at `path` is
/// removed first.
pub fn run_server(path: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    serve_listener(listener)
}

/// The shard-server accept loop: one client connection at a time (each
/// client process holds exactly one connection per shard), requests
/// answered in arrival order. Returns after a `SHUTDOWN` request.
///
/// The blob store is type-agnostic — `generation → key → bytes` — so
/// one server serves every value type; ordering-sensitive iteration
/// never happens (all responses follow request order).
pub fn serve_listener(listener: UnixListener) -> std::io::Result<()> {
    let mut generations: FxHashMap<u64, FxHashMap<u64, Box<[u8]>>> = FxHashMap::default();
    loop {
        let (mut stream, _) = listener.accept()?;
        // Client closed or reconnecting ends the inner loop: accept anew.
        while let Ok(frame) = read_frame(&mut stream) {
            let (reply, shutdown) = handle_request(&frame, &mut generations);
            if write_frame(&mut stream, &reply).is_err() {
                break;
            }
            if shutdown {
                return Ok(());
            }
        }
    }
}

/// Decodes and executes one request, returning `(reply, shutdown)`.
/// A frame whose body is not exactly what its header's `count` promises
/// — truncated, with trailing bytes, or a `count` on an opcode that
/// takes no entries — gets an empty reply and changes no state (the
/// client treats a bad reply as a transport error and retries).
fn handle_request(
    frame: &[u8],
    generations: &mut FxHashMap<u64, FxHashMap<u64, Box<[u8]>>>,
) -> (Vec<u8>, bool) {
    let mut buf = frame;
    let parsed = (|| {
        let opcode = u8::wire_decode(&mut buf)?;
        let generation = u64::wire_decode(&mut buf)?;
        let count = u32::wire_decode(&mut buf)?;
        Some((opcode, generation, count as usize))
    })();
    let Some((opcode, generation, count)) = parsed else {
        return (Vec::new(), false);
    };
    let bare = count == 0 && buf.is_empty();
    match opcode {
        op::LOAD if is_load_body(buf, count) => {
            let store = generations.entry(generation).or_default();
            while let Some((key, blob)) = split_load_entry(&mut buf) {
                store.insert(key, blob.into());
            }
            (vec![1], false)
        }
        op::GET if count.checked_mul(8) == Some(buf.len()) => {
            let store = generations.get(&generation);
            let mut reply = Vec::new();
            while let Some(key) = u64::wire_decode(&mut buf) {
                match store.and_then(|s| s.get(&key)) {
                    Some(blob) => {
                        reply.push(1);
                        (blob.len() as u32).wire_encode(&mut reply);
                        reply.extend_from_slice(blob);
                    }
                    None => reply.push(0),
                }
            }
            (reply, false)
        }
        op::DROP_GEN if bare => {
            generations.remove(&generation);
            (vec![1], false)
        }
        op::PING if bare => (vec![1], false),
        op::SHUTDOWN if bare => (vec![1], true),
        _ => (Vec::new(), false),
    }
}

/// Whether `body` is exactly `count` `LOAD` entries: walks the entry
/// lengths to the end of the frame without copying a blob.
fn is_load_body(mut body: &[u8], count: usize) -> bool {
    (0..count).all(|_| split_load_entry(&mut body).is_some()) && body.is_empty()
}

/// Splits one `LOAD` entry — `key u64, len u32, bytes` — off `buf`.
fn split_load_entry<'a>(buf: &mut &'a [u8]) -> Option<(u64, &'a [u8])> {
    Some((u64::wire_decode(buf)?, split_blob(buf)?))
}

/// Splits one length-prefixed blob — `len u32, bytes` — off `buf`.
fn split_blob<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = u32::wire_decode(buf)? as usize;
    let (blob, rest) = buf.split_at_checked(len)?;
    *buf = rest;
    Some(blob)
}

// ---------------------------------------------------------------------
// Wire metrics
// ---------------------------------------------------------------------

static WIRE_REQUESTS: AtomicU64 = AtomicU64::new(0);
static WIRE_BYTES_SENT: AtomicU64 = AtomicU64::new(0);
static WIRE_BYTES_RECEIVED: AtomicU64 = AtomicU64::new(0);
static WIRE_RECONNECTS: AtomicU64 = AtomicU64::new(0);
static WIRE_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Process-global transport counters, for the repo benchmark's `wire.*`
/// rows and the engagement assertions in the equivalence tests. These
/// are *host-side* measurements of the real transport; the model's
/// [`crate::metrics::CommStats`] never reads them (and must not — the
/// §3 contract pins CommStats byte-identical across substrates).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Request frames sent (one per shard per batch).
    pub requests: u64,
    /// Request payload bytes written.
    pub bytes_sent: u64,
    /// Response payload bytes read.
    pub bytes_received: u64,
    /// Reconnect attempts after a transport error.
    pub reconnects: u64,
    /// Shard servers spawned (initial spawns and respawns).
    pub spawns: u64,
}

/// Snapshot of the process-global wire counters.
pub fn wire_metrics() -> WireMetrics {
    WireMetrics {
        requests: WIRE_REQUESTS.load(Ordering::Relaxed),
        bytes_sent: WIRE_BYTES_SENT.load(Ordering::Relaxed),
        bytes_received: WIRE_BYTES_RECEIVED.load(Ordering::Relaxed),
        reconnects: WIRE_RECONNECTS.load(Ordering::Relaxed),
        spawns: WIRE_SPAWNS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Client: shards and the cluster
// ---------------------------------------------------------------------

/// How a shard server is being run.
enum ServerHandle {
    /// A separate OS process (the intended mode), held with its stdin
    /// pipe: dropping the child (or this process dying) closes the
    /// pipe and the server exits.
    Process(std::process::Child),
    /// In-process listener thread fallback, used when the
    /// `ampc-shardd` binary is not next to the current executable
    /// (e.g. a downstream crate's test run that never built it). Same
    /// listener loop, same wire protocol, still real socket traffic.
    Thread,
}

/// One shard: its socket path, the supervised server, and the single
/// client connection (requests from concurrent machine threads are
/// serialized per shard — the server answers in request order).
struct Shard {
    path: PathBuf,
    server: Mutex<Option<ServerHandle>>,
    conn: Mutex<Option<UnixStream>>,
}

impl Shard {
    fn new(path: PathBuf) -> Shard {
        Shard {
            path,
            server: Mutex::new(None),
            conn: Mutex::new(None),
        }
    }

    /// Spawns (or respawns) this shard's server, preferring a separate
    /// OS process and falling back to an in-process listener thread.
    fn spawn_server(&self) {
        let mut server = self.server.lock();
        // Reap a dead child before respawning over it.
        if let Some(ServerHandle::Process(child)) = server.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.path);
        WIRE_SPAWNS.fetch_add(1, Ordering::Relaxed);
        if let Some(bin) = find_shardd_binary() {
            let spawned = std::process::Command::new(&bin)
                .arg(&self.path)
                .stdin(std::process::Stdio::piped())
                .spawn();
            if let Ok(child) = spawned {
                // Wait for the server to bind before first use.
                for _ in 0..500 {
                    if self.path.exists() {
                        *server = Some(ServerHandle::Process(child));
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                // Never bound: fall through to the thread fallback.
            }
        }
        let listener =
            UnixListener::bind(&self.path).expect("socket substrate: cannot bind shard listener");
        // ampc-lint: allow(no-raw-spawn) -- shard-server fallback when the
        // ampc-shardd binary is absent: a detached listener thread speaking
        // the same wire protocol; it must outlive any one job, so it cannot
        // run on the executor pool.
        std::thread::spawn(move || {
            let _ = serve_listener(listener);
        });
        *server = Some(ServerHandle::Thread);
    }

    /// One request/response exchange over the cached connection.
    fn try_request_once(&self, payload: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut conn = self.conn.lock();
        if conn.is_none() {
            *conn = Some(UnixStream::connect(&self.path)?);
        }
        let stream = conn.as_mut().expect("connection just established");
        let result = write_frame(stream, payload).and_then(|()| read_frame(stream));
        if result.is_err() {
            *conn = None; // poisoned: reconnect on the next attempt
        }
        result
    }

    /// Sends one request and returns `accept`'s parse of the reply,
    /// reconnecting (and respawning a dead server) under the capped
    /// exponential backoff described in the module docs. A reply
    /// `accept` rejects — the server's empty malformed-frame reply, a
    /// truncated or garbled one — is retried like an I/O error. Panics
    /// after `RECONNECT_CAP` failed attempts: a shard that stays
    /// unreachable is a deployment failure, and limping on would
    /// silently break the determinism contract.
    fn request<T>(&self, payload: &[u8], accept: impl Fn(&[u8]) -> Option<T>) -> T {
        WIRE_REQUESTS.fetch_add(1, Ordering::Relaxed);
        WIRE_BYTES_SENT.fetch_add(payload.len() as u64, Ordering::Relaxed);
        for attempt in 0..=RECONNECT_CAP {
            if let Ok(reply) = self.try_request_once(payload) {
                if let Some(parsed) = accept(&reply) {
                    WIRE_BYTES_RECEIVED.fetch_add(reply.len() as u64, Ordering::Relaxed);
                    return parsed;
                }
                // The stream may be out of step with the server.
                *self.conn.lock() = None;
            }
            WIRE_RECONNECTS.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(BACKOFF_UNIT * DropPlan::backoff_units(attempt + 1) as u32);
            self.respawn_if_unreachable();
        }
        panic!(
            "socket substrate: shard at {} unreachable after {} attempts",
            self.path.display(),
            RECONNECT_CAP + 1
        );
    }

    /// Respawns the server if a fresh probe connection cannot be made
    /// (dead process, dropped listener, or stale socket file).
    fn respawn_if_unreachable(&self) {
        let dead_child = {
            let mut server = self.server.lock();
            match server.as_mut() {
                Some(ServerHandle::Process(child)) => {
                    matches!(child.try_wait(), Ok(Some(_)) | Err(_))
                }
                _ => false,
            }
        };
        if dead_child || UnixStream::connect(&self.path).is_err() {
            self.spawn_server();
        }
    }

    /// Health check; respawns on failure so the next round starts with
    /// a live server.
    fn ensure_healthy(&self) {
        let ping = request_header(op::PING, 0, 0);
        // `request` already retries + respawns; a healthy shard answers
        // on the first attempt.
        self.request(&ping, ack);
    }
}

/// The client-side view of the shard-server fleet: one shard handle per
/// server process. Keys map to shards by `mix64(key) % shards`, the
/// same splitting rule the lock-striped writer uses.
pub struct SocketCluster {
    shards: Vec<Shard>,
    /// True for the process-global cluster (never torn down; servers
    /// exit via the stdin pipe). Standalone clusters shut their
    /// servers down on drop.
    global: bool,
}

impl SocketCluster {
    /// Spawns a standalone cluster of `n` shard servers with fresh
    /// socket paths. Production code uses the process-global
    /// [`cluster`]; standalone clusters exist so supervision tests can
    /// kill and respawn servers without disturbing concurrent tests.
    pub fn spawn(n: usize) -> SocketCluster {
        static NEXT_PATH: AtomicU64 = AtomicU64::new(0);
        let n = n.max(1);
        let shards = (0..n)
            .map(|_| {
                let seq = NEXT_PATH.fetch_add(1, Ordering::Relaxed);
                let path = std::env::temp_dir().join(format!(
                    "ampc-shardd-{}-{}.sock",
                    std::process::id(),
                    seq
                ));
                let shard = Shard::new(path);
                shard.spawn_server();
                shard
            })
            .collect();
        SocketCluster {
            shards,
            global: false,
        }
    }

    /// Number of shard servers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard holds `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        (mix64(key) % self.shards.len() as u64) as usize
    }

    /// Pings every shard, respawning any that died — the runtime calls
    /// this at job start and round boundaries when the socket substrate
    /// is active, so a crashed server is replaced before it is needed.
    pub fn ensure_healthy(&self) {
        for shard in &self.shards {
            shard.ensure_healthy();
        }
    }

    /// Offloads encoded `(key, blob)` pairs of one generation to the
    /// shard that owns them, in bounded-size `LOAD` frames.
    pub(crate) fn load(&self, generation: u64, shard: usize, entries: &[(u64, Vec<u8>)]) {
        let mut i = 0;
        while i < entries.len() {
            let mut payload = request_header(op::LOAD, generation, 0);
            let mut count = 0u32;
            while i < entries.len() && (count == 0 || payload.len() < LOAD_CHUNK_BYTES) {
                let (key, blob) = &entries[i];
                key.wire_encode(&mut payload);
                (blob.len() as u32).wire_encode(&mut payload);
                payload.extend_from_slice(blob);
                count += 1;
                i += 1;
            }
            payload[9..13].copy_from_slice(&count.to_le_bytes());
            self.shards[shard].request(&payload, ack);
        }
    }

    /// Fetches a batch of keys from one shard, blobs returned in
    /// request order (`None` = the server does not hold the key).
    pub(crate) fn get_batch(
        &self,
        generation: u64,
        shard: usize,
        keys: &[u64],
    ) -> Vec<Option<Vec<u8>>> {
        let mut payload = request_header(op::GET, generation, keys.len() as u32);
        for key in keys {
            key.wire_encode(&mut payload);
        }
        self.shards[shard].request(&payload, |reply| parse_get_reply(reply, keys.len()))
    }

    /// Frees a generation on every shard (best-effort; called from the
    /// sealed generation's drop).
    pub(crate) fn drop_gen(&self, generation: u64) {
        let payload = request_header(op::DROP_GEN, generation, 0);
        for shard in &self.shards {
            // Best-effort: a dead shard has already lost the data.
            let _ = shard.try_request_once(&payload);
        }
    }

    /// Sends `SHUTDOWN` to every shard server (standalone clusters and
    /// supervision tests; the global cluster's servers exit with the
    /// process via their stdin pipe).
    pub fn shutdown(&self) {
        let payload = request_header(op::SHUTDOWN, 0, 0);
        for shard in &self.shards {
            let _ = shard.try_request_once(&payload);
            *shard.conn.lock() = None;
            let mut server = shard.server.lock();
            if let Some(ServerHandle::Process(child)) = server.as_mut() {
                let _ = child.wait();
            }
            *server = None;
        }
    }

    /// Kills the shard servers *without* cleanup — simulating a crash
    /// so supervision tests can exercise respawn. Connections are left
    /// in place so the next request fails like a real partition.
    pub fn kill_servers_for_test(&self) {
        for shard in &self.shards {
            let mut server = shard.server.lock();
            match server.take() {
                Some(ServerHandle::Process(mut child)) => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Some(ServerHandle::Thread) => {
                    // No process to kill: shut the loop down and drop
                    // the listener by removing its socket file.
                    let payload = request_header(op::SHUTDOWN, 0, 0);
                    let _ = shard.try_request_once(&payload);
                    *shard.conn.lock() = None;
                }
                None => {}
            }
            let _ = std::fs::remove_file(&shard.path);
        }
    }
}

impl Drop for SocketCluster {
    fn drop(&mut self) {
        if !self.global {
            self.shutdown();
            for shard in &self.shards {
                let _ = std::fs::remove_file(&shard.path);
            }
        }
    }
}

/// Locates the `ampc-shardd` binary next to the current executable
/// (tests run from `target/<profile>/deps/…`, the binary lives one
/// directory up; binaries run from `target/<profile>/` directly).
fn find_shardd_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .skip(1)
        .take(3)
        .map(|dir| dir.join(SHARDD_BIN))
        .find(|candidate| candidate.is_file())
}

/// The process-global cluster serving every socket-sealed generation,
/// spawned lazily on first use (`D0` loads can precede any runtime
/// involvement) and sized by `AMPC_SOCKET_SHARDS`.
pub fn cluster() -> &'static SocketCluster {
    static CLUSTER: OnceLock<SocketCluster> = OnceLock::new();
    CLUSTER.get_or_init(|| {
        let mut c = SocketCluster::spawn(ampc_knobs::ampc_socket_shards());
        c.global = true;
        c
    })
}

/// Runtime lifecycle hook: when the socket substrate is the active
/// store, make sure every shard server is alive (respawning crashed
/// ones). A no-op under the in-memory substrates, so the executor can
/// call it unconditionally at round boundaries.
pub fn ensure_if_active() {
    if crate::store::store_kind() == crate::store::StoreKind::Socket {
        cluster().ensure_healthy();
    }
}

/// Allocates a process-unique generation id for a socket-sealed
/// generation (ids key the blob namespace on the shard servers).
pub(crate) fn next_gen_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(bytes: &[u8]) -> Vec<u8> {
        bytes.to_vec()
    }

    #[test]
    fn load_get_drop_round_trip() {
        let c = SocketCluster::spawn(2);
        let generation = next_gen_id();
        for shard in 0..2 {
            let entries: Vec<(u64, Vec<u8>)> = (0..50u64)
                .map(|k| (k * 2 + shard as u64, blob(&k.to_le_bytes())))
                .collect();
            c.load(generation, shard, &entries);
        }
        let got = c.get_batch(generation, 0, &[0, 2, 4, 999]);
        assert_eq!(got[0], Some(blob(&0u64.to_le_bytes())));
        assert_eq!(got[1], Some(blob(&1u64.to_le_bytes())));
        assert_eq!(got[2], Some(blob(&2u64.to_le_bytes())));
        assert_eq!(got[3], None);
        c.drop_gen(generation);
        let gone = c.get_batch(generation, 0, &[0]);
        assert_eq!(gone, vec![None]);
    }

    #[test]
    fn generations_are_isolated_namespaces() {
        let c = SocketCluster::spawn(1);
        let g1 = next_gen_id();
        let g2 = next_gen_id();
        c.load(g1, 0, &[(7, blob(b"one"))]);
        c.load(g2, 0, &[(7, blob(b"two"))]);
        assert_eq!(c.get_batch(g1, 0, &[7]), vec![Some(blob(b"one"))]);
        assert_eq!(c.get_batch(g2, 0, &[7]), vec![Some(blob(b"two"))]);
        c.drop_gen(g1);
        assert_eq!(c.get_batch(g1, 0, &[7]), vec![None]);
        assert_eq!(c.get_batch(g2, 0, &[7]), vec![Some(blob(b"two"))]);
    }

    #[test]
    fn get_replies_follow_request_order() {
        let c = SocketCluster::spawn(1);
        let generation = next_gen_id();
        c.load(generation, 0, &[(1, blob(b"a")), (2, blob(b"bb"))]);
        let got = c.get_batch(generation, 0, &[2, 99, 1, 2]);
        assert_eq!(
            got,
            vec![Some(blob(b"bb")), None, Some(blob(b"a")), Some(blob(b"bb"))]
        );
    }

    #[test]
    fn large_loads_chunk_into_multiple_frames() {
        let c = SocketCluster::spawn(1);
        let generation = next_gen_id();
        // ~9 MB of blobs: must split into ≥ 3 LOAD frames.
        let entries: Vec<(u64, Vec<u8>)> = (0..9u64).map(|k| (k, vec![k as u8; 1 << 20])).collect();
        let before = wire_metrics().requests;
        c.load(generation, 0, &entries);
        assert!(wire_metrics().requests - before >= 3);
        let got = c.get_batch(generation, 0, &[8]);
        assert_eq!(got[0].as_deref(), Some(&vec![8u8; 1 << 20][..]));
    }

    #[test]
    fn killed_server_is_respawned_and_new_loads_work() {
        let c = SocketCluster::spawn(1);
        let g1 = next_gen_id();
        c.load(g1, 0, &[(1, blob(b"x"))]);
        let before = wire_metrics();
        c.kill_servers_for_test();
        // The next request rides the reconnect/respawn path…
        let g2 = next_gen_id();
        c.load(g2, 0, &[(2, blob(b"y"))]);
        assert_eq!(c.get_batch(g2, 0, &[2]), vec![Some(blob(b"y"))]);
        let after = wire_metrics();
        assert!(after.reconnects > before.reconnects, "reconnects counted");
        assert!(after.spawns > before.spawns, "server respawned");
        // …but the crashed server's data is gone, loudly absent.
        assert_eq!(c.get_batch(g1, 0, &[1]), vec![None]);
    }

    /// A `LOAD` frame holding `entries`.
    fn load_frame(generation: u64, entries: &[(u64, &[u8])]) -> Vec<u8> {
        let mut frame = request_header(op::LOAD, generation, entries.len() as u32);
        for (key, blob) in entries {
            key.wire_encode(&mut frame);
            (blob.len() as u32).wire_encode(&mut frame);
            frame.extend_from_slice(blob);
        }
        frame
    }

    const REJECTED: (Vec<u8>, bool) = (Vec::new(), false);

    #[test]
    fn a_load_that_is_not_exactly_count_entries_stores_nothing() {
        let mut gens = FxHashMap::default();
        let frame = load_frame(7, &[(1, b"one"), (2, b"two")]);
        let mut trailing = frame.clone();
        trailing.push(0);
        for bad in [&frame[..frame.len() - 1], &trailing] {
            assert_eq!(handle_request(bad, &mut gens), REJECTED);
            assert!(!gens.contains_key(&7), "a rejected LOAD left keys behind");
        }
        assert_eq!(handle_request(&frame, &mut gens), (vec![1], false));
        assert_eq!(gens[&7].len(), 2);
    }

    #[test]
    fn a_get_must_carry_exactly_count_keys() {
        let mut gens = FxHashMap::default();
        handle_request(&load_frame(3, &[(5, b"v")]), &mut gens);
        let mut get = request_header(op::GET, 3, 1);
        5u64.wire_encode(&mut get);
        let mut junk = get.clone();
        junk.extend([0; 4]);
        assert_eq!(handle_request(&junk, &mut gens), REJECTED);
        assert_eq!(handle_request(&get[..get.len() - 1], &mut gens), REJECTED);
        let answer = (vec![1, 1, 0, 0, 0, b'v'], false);
        assert_eq!(handle_request(&get, &mut gens), answer);
    }

    #[test]
    fn entry_free_ops_take_no_count_and_no_body() {
        let mut gens = FxHashMap::default();
        handle_request(&load_frame(4, &[(1, b"x")]), &mut gens);
        for opcode in [op::DROP_GEN, op::PING, op::SHUTDOWN] {
            let mut trailing = request_header(opcode, 4, 0);
            trailing.push(0);
            for bad in [request_header(opcode, 4, 1), trailing] {
                assert_eq!(handle_request(&bad, &mut gens), REJECTED);
            }
        }
        assert!(
            gens.contains_key(&4),
            "a rejected DROP_GEN dropped the generation"
        );
        let drop = request_header(op::DROP_GEN, 4, 0);
        assert_eq!(handle_request(&drop, &mut gens), (vec![1], false));
        assert!(!gens.contains_key(&4));
        let shutdown = request_header(op::SHUTDOWN, 0, 0);
        assert_eq!(handle_request(&shutdown, &mut gens), (vec![1], true));
    }

    #[test]
    fn a_get_reply_must_be_exactly_count_entries() {
        // Two entries: a present "ab", then an absent key.
        let reply = [1, 2, 0, 0, 0, b'a', b'b', 0];
        let parsed = vec![Some(blob(b"ab")), None];
        assert_eq!(parse_get_reply(&reply, 2), Some(parsed));
        assert_eq!(parse_get_reply(&[], 0), Some(vec![]));
        let mut trailing = reply.to_vec();
        trailing.push(7);
        let bad_tag = [2, 0];
        for (bad, count) in [
            (&reply[..reply.len() - 1], 2), // truncated: the second entry is missing
            (&reply[..4], 1),               // truncated inside the length prefix
            (&reply[..6], 1),               // truncated inside the blob
            (&reply[..], 1),                // an extra entry
            (&trailing[..], 2),             // trailing bytes
            (&bad_tag[..], 2),              // a tag that is neither 0 nor 1
        ] {
            assert_eq!(parse_get_reply(bad, count), None, "{bad:?} for {count}");
        }
    }

    #[test]
    fn ping_health_check_succeeds() {
        let c = SocketCluster::spawn(3);
        c.ensure_healthy();
        assert_eq!(c.shard_count(), 3);
    }
}
