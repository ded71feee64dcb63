//! The socket-backed shard transport (DESIGN.md §12).
//!
//! Under `AMPC_STORE=socket`, sealed generations offload their values to
//! **shard servers in separate OS processes** (`ampc-shardd`, or an
//! in-process listener thread when the binary is not on disk), reached
//! over Unix-domain sockets. This module owns the frame codec, the
//! server ([`ShardServer`]) and the client [`SocketCluster`], which
//! spawns, supervises and reconnects to the servers.
//!
//! # Wire format
//!
//! A shard holds each generation as **one region**: its positions'
//! values back to back and where each ends. The client numbers the
//! positions (DESIGN.md §12), so the server never sees a key. A frame is
//! a little-endian `u32` length and that many bytes; a request is
//! `[op: u8][generation: u64][count: u32][body]`:
//!
//! * `LOAD` — `[first: u32][count × end: u32][bytes]`: positions
//!   `first..first + count`, each `end` one past its value in `bytes`,
//!   appended to the generation. Reply `[1]`, or `[0]` unless the server
//!   holds exactly `first` positions of it.
//! * `GET` — `count × position: u32`; reply `[1]` and, in request order,
//!   `count × (len: u32, bytes)`, or `[0]` for an unknown generation.
//! * `DROP_GEN` (frees the region), `PING`, `SHUTDOWN` — no body; `[1]`.
//!
//! `[0]` means the server lost the generation (it restarted), and the
//! caller panics rather than serve an absence. Equal batches make
//! byte-identical frames both ways. The server checks every count,
//! offset and position before it allocates or indexes: a frame that is
//! not exactly what its header promises gets an empty reply and changes
//! nothing. The client checks replies the same way and resends a
//! rejected one like a failed one.
//!
//! # Supervision and retry
//!
//! Each server exits when its piped stdin closes, so a crashed client
//! leaks no processes. A batch writes every shard's request before it
//! reads any reply, so the servers work in parallel. A failed request is
//! resent after `2^k − 1` backoff units ([`DropPlan::backoff_units`], the
//! chaos engine's drop-retry shape), respawning a dead server. Transport
//! retries are real, so they live in the process-global [`WireMetrics`],
//! never in `CommStats`.

use crate::fault::DropPlan;
use crate::hasher::FxHashMap;
use crate::wire::Wire;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// Request opcodes (one byte on the wire).
pub mod op {
    /// Append a run of positions to a generation's region.
    pub const LOAD: u8 = 1;
    /// Fetch positions of a generation, responses in request order.
    pub const GET: u8 = 2;
    /// Free everything stored for a generation.
    pub const DROP_GEN: u8 = 3;
    /// Health check.
    pub const PING: u8 = 4;
    /// Orderly server exit (used by standalone clusters in tests).
    pub const SHUTDOWN: u8 = 5;
}

/// A `LOAD` frame is closed once its offsets and values reach this many
/// bytes: bounded buffering on both sides.
const LOAD_CHUNK_BYTES: usize = 4 << 20;

/// Resends before a transport error is fatal.
const RECONNECT_CAP: u32 = 6;

/// One real-time backoff unit for transport retries.
const BACKOFF_UNIT: std::time::Duration = std::time::Duration::from_millis(2);

/// Writes one length-prefixed frame.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame into `buf`, replacing its contents.
/// The buffer grows only with the bytes that actually arrive: a peer
/// that announces a huge frame and stops costs no more than it sent.
fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u64::from(u32::from_le_bytes(len));
    buf.clear();
    if r.take(len).read_to_end(buf)? as u64 != len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// Starts a request payload: `[op][generation][count]`.
fn request_header(opcode: u8, generation: u64, count: u32) -> Vec<u8> {
    let mut out = vec![opcode];
    generation.wire_encode(&mut out);
    count.wire_encode(&mut out);
    out
}

/// The values of a `GET` reply for `count` positions: `[1]`, then
/// exactly `count` length-prefixed values and nothing after them.
fn split_get_reply(reply: &[u8], count: usize) -> Option<&[u8]> {
    let values = reply.strip_prefix(&[1])?;
    let mut rest = values;
    let exact = (0..count).all(|_| split_blob(&mut rest).is_some()) && rest.is_empty();
    exact.then_some(values)
}

/// Splits one length-prefixed blob — `len u32, bytes` — off `buf`.
fn split_blob<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = u32::wire_decode(buf)? as usize;
    let (blob, rest) = buf.split_at_checked(len)?;
    *buf = rest;
    Some(blob)
}

/// Splits `count` little-endian `u32`s off `buf`.
fn split_u32s<'a>(
    buf: &mut &'a [u8],
    count: usize,
) -> Option<impl Iterator<Item = usize> + Clone + 'a> {
    let (raw, rest) = buf.split_at_checked(count.checked_mul(4)?)?;
    *buf = rest;
    Some(
        raw.chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize),
    )
}

/// One shard's part of one generation: every value back to back in one
/// region, `ends[i]` the offset one past value `i`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Region {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Region {
    /// The value at `position` (in bounds: the caller checked).
    fn value(&self, position: usize) -> &[u8] {
        let start = position.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.bytes[start..self.ends[position]]
    }
}

/// A shard server's state — one region per generation it holds — and
/// the handler the accept loop runs on every request. It never decodes
/// a value, so one server serves every value type.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardServer {
    generations: FxHashMap<u64, Region>,
}

impl ShardServer {
    /// Executes one request, returning `(reply, shutdown)`. A malformed
    /// frame (see the module docs) gets an empty reply and changes no
    /// state.
    pub fn handle_request(&mut self, frame: &[u8]) -> (Vec<u8>, bool) {
        let mut buf = frame;
        let parsed = (|| {
            let opcode = u8::wire_decode(&mut buf)?;
            let generation = u64::wire_decode(&mut buf)?;
            Some((opcode, generation, u32::wire_decode(&mut buf)? as usize))
        })();
        let Some((opcode, generation, count)) = parsed else {
            return (Vec::new(), false);
        };
        let bare = count == 0 && buf.is_empty();
        let reply = match opcode {
            op::LOAD => self.load(generation, count, buf),
            op::GET => self.get(generation, count, buf),
            op::DROP_GEN if bare => {
                self.generations.remove(&generation);
                Some(vec![1])
            }
            op::PING if bare => Some(vec![1]),
            op::SHUTDOWN if bare => return (vec![1], true),
            _ => None,
        };
        (reply.unwrap_or_default(), false)
    }

    /// `LOAD`: validates the whole body, then appends it in one copy.
    fn load(&mut self, generation: u64, count: usize, mut body: &[u8]) -> Option<Vec<u8>> {
        let first = u32::wire_decode(&mut body)? as usize;
        let ends = split_u32s(&mut body, count)?;
        let last = ends.clone().try_fold(0, |a, b| (b >= a).then_some(b));
        if count == 0 || last != Some(body.len()) {
            return None;
        }
        let held = self.generations.get(&generation).map(|r| r.ends.len());
        if first != held.unwrap_or(0) {
            return Some(vec![0]);
        }
        let region = self.generations.entry(generation).or_default();
        let base = region.bytes.len();
        region.bytes.extend_from_slice(body);
        region.ends.extend(ends.map(|end| base + end));
        Some(vec![1])
    }

    /// `GET`: the values at the requested positions, in request order.
    fn get(&self, generation: u64, count: usize, mut body: &[u8]) -> Option<Vec<u8>> {
        let positions = split_u32s(&mut body, count).filter(|_| body.is_empty())?;
        let Some(region) = self.generations.get(&generation) else {
            return Some(vec![0]);
        };
        if positions.clone().any(|p| p >= region.ends.len()) {
            return None;
        }
        let len: usize = positions.clone().map(|p| 4 + region.value(p).len()).sum();
        u32::try_from(1 + len).ok()?; // a reply too long to frame is refused
        let mut reply = Vec::with_capacity(1 + len);
        reply.push(1);
        for value in positions.map(|p| region.value(p)) {
            (value.len() as u32).wire_encode(&mut reply);
            reply.extend_from_slice(value);
        }
        Some(reply)
    }
}

/// The shard-server accept loop (the `ampc-shardd` binary's whole job):
/// one client connection at a time — each client process holds one per
/// shard — and requests answered in arrival order, until `SHUTDOWN`.
pub fn serve_listener(listener: UnixListener) -> std::io::Result<()> {
    let (mut server, mut frame) = (ShardServer::default(), Vec::new());
    loop {
        let (mut stream, _) = listener.accept()?;
        // Client closed or reconnecting ends the inner loop: accept anew.
        while read_frame(&mut stream, &mut frame).is_ok() {
            let (reply, shutdown) = server.handle_request(&frame);
            if write_frame(&mut stream, &reply).is_err() {
                break;
            }
            if shutdown {
                return Ok(());
            }
        }
    }
}

static WIRE_REQUESTS: AtomicU64 = AtomicU64::new(0);
static WIRE_BYTES_SENT: AtomicU64 = AtomicU64::new(0);
static WIRE_BYTES_RECEIVED: AtomicU64 = AtomicU64::new(0);
static WIRE_RECONNECTS: AtomicU64 = AtomicU64::new(0);
static WIRE_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Process-global counters of the real transport, for the benchmark's
/// `wire.*` rows and the equivalence tests. [`crate::metrics::CommStats`]
/// never reads them: §3 pins it byte-identical across substrates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Request frames sent, resends included.
    pub requests: u64,
    /// Request payload bytes written.
    pub bytes_sent: u64,
    /// Response payload bytes read.
    pub bytes_received: u64,
    /// Requests resent after a transport error.
    pub reconnects: u64,
    /// Shard servers spawned (initial spawns and respawns).
    pub spawns: u64,
}

/// Snapshot of the process-global wire counters.
pub fn wire_metrics() -> WireMetrics {
    WireMetrics {
        requests: WIRE_REQUESTS.load(Relaxed),
        bytes_sent: WIRE_BYTES_SENT.load(Relaxed),
        bytes_received: WIRE_BYTES_RECEIVED.load(Relaxed),
        reconnects: WIRE_RECONNECTS.load(Relaxed),
        spawns: WIRE_SPAWNS.load(Relaxed),
    }
}

/// One request frame and the shard it is bound for.
type Request = (usize, Vec<u8>);

/// How a shard server is being run.
enum ServerHandle {
    /// A separate OS process (the intended mode), held with its stdin
    /// pipe: when the child handle or this process goes, the server exits.
    Process(std::process::Child),
    /// The in-process listener thread fallback, when no `ampc-shardd`
    /// binary lies next to the current executable: same loop and wire.
    Thread,
}

/// One shard: its socket path, the supervised server, and the one client
/// connection, with the buffer its replies are read into.
struct Shard {
    path: PathBuf,
    server: Mutex<Option<ServerHandle>>,
    conn: Mutex<(Option<UnixStream>, Vec<u8>)>,
}

impl Shard {
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
        WIRE_SPAWNS.fetch_add(1, Relaxed);
        if let Some(bin) = find_shardd_binary() {
            let spawned = std::process::Command::new(&bin)
                .arg(&self.path)
                .stdin(std::process::Stdio::piped())
                .spawn();
            if let Ok(child) = spawned {
                // Wait (up to 1 s) for the server to bind before first use.
                for _ in 0..5000 {
                    if self.path.exists() {
                        *server = Some(ServerHandle::Process(child));
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                // Never bound: fall through to the thread fallback.
            }
        }
        let listener =
            UnixListener::bind(&self.path).expect("socket substrate: cannot bind shard listener");
        #[expect(
            clippy::disallowed_methods,
            reason = "shard-server fallback when the ampc-shardd binary is absent: a \
                      detached listener thread speaking the same wire protocol; it must \
                      outlive any one job, so it cannot run on the executor pool"
        )]
        std::thread::spawn(move || {
            let _ = serve_listener(listener);
        });
        *server = Some(ServerHandle::Thread);
    }

    /// Respawns the server if a fresh probe connection cannot be made
    /// (dead process, dropped listener, or stale socket file).
    fn respawn_if_unreachable(&self) {
        let dead_child = match self.server.lock().as_mut() {
            Some(ServerHandle::Process(child)) => matches!(child.try_wait(), Ok(Some(_)) | Err(_)),
            _ => false,
        };
        if dead_child || UnixStream::connect(&self.path).is_err() {
            self.spawn_server();
        }
    }
}

/// The client side of the shard-server fleet, one handle per server.
/// Which positions a shard holds is the caller's choice.
pub struct SocketCluster {
    shards: Vec<Shard>,
    /// True for the process-global cluster, whose servers exit with the
    /// process; standalone clusters shut theirs down on drop.
    global: bool,
}

impl SocketCluster {
    /// Spawns a standalone cluster of `n` shard servers with fresh
    /// socket paths, for tests that must not disturb the process-global
    /// [`cluster`] (supervision tests kill and respawn servers).
    pub fn spawn(n: usize) -> SocketCluster {
        static NEXT_PATH: AtomicU64 = AtomicU64::new(0);
        let shards = (0..n.max(1))
            .map(|_| {
                let seq = NEXT_PATH.fetch_add(1, Relaxed);
                let name = format!("ampc-shardd-{}-{seq}.sock", std::process::id());
                let shard = Shard {
                    path: std::env::temp_dir().join(name),
                    server: Mutex::new(None),
                    conn: Mutex::default(),
                };
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

    /// Sends every request once — all written before any reply is read,
    /// so the servers work in parallel — and returns `accept(i, reply)`
    /// for each request `i`; `None` from a shard's first failure on.
    fn send_all<T>(
        &self,
        requests: &[Request],
        accept: &mut impl FnMut(usize, &[u8]) -> Option<T>,
    ) -> Vec<Option<T>> {
        // Locked in ascending shard order, so concurrent batches never
        // deadlock.
        let mut conns: Vec<_> = (self.shards.iter().enumerate())
            .map(|(s, shard)| requests.iter().any(|r| r.0 == s).then(|| shard.conn.lock()))
            .collect();
        let mut ok = vec![true; self.shards.len()];
        for (s, frame) in requests {
            WIRE_REQUESTS.fetch_add(1, Relaxed);
            WIRE_BYTES_SENT.fetch_add(frame.len() as u64, Relaxed);
            let (stream, _) = &mut **conns[*s].as_mut().expect("locked above");
            if stream.is_none() {
                *stream = UnixStream::connect(&self.shards[*s].path).ok();
            }
            if ok[*s] {
                let sent = stream.as_mut().map(|w| write_frame(w, frame));
                ok[*s] = matches!(sent, Some(Ok(())));
            }
        }
        (requests.iter().enumerate())
            .map(|(i, &(s, _))| {
                let (stream, reply) = &mut **conns[s].as_mut().expect("locked above");
                let read = stream
                    .as_mut()
                    .map(|r| ok[s] && read_frame(r, reply).is_ok());
                let got = (read == Some(true)).then(|| accept(i, reply)).flatten();
                if got.is_some() {
                    WIRE_BYTES_RECEIVED.fetch_add(reply.len() as u64, Relaxed);
                } else {
                    // The stream may be out of step with the server.
                    (ok[s], *stream) = (false, None);
                }
                got
            })
            .collect()
    }

    /// [`Self::send_all`], resending the failed requests — in order, after
    /// a backoff, with dead servers respawned — until each is accepted.
    /// `Err(shard)` names the first shard that answered `[0]`.
    ///
    /// # Panics
    /// After `RECONNECT_CAP` resends: limping on past a shard that stays
    /// unreachable would silently break the determinism contract.
    fn exchange<T>(
        &self,
        requests: &[Request],
        mut accept: impl FnMut(usize, &[u8]) -> Option<T>,
    ) -> Result<Vec<T>, usize> {
        let mut accept = |i, reply: &[u8]| match reply {
            [0] => Some(None),
            _ => accept(i, reply).map(Some),
        };
        let mut got = self.send_all(requests, &mut accept);
        for attempt in 1..=RECONNECT_CAP {
            let failed: Vec<usize> = (0..got.len()).filter(|&i| got[i].is_none()).collect();
            if failed.is_empty() {
                break;
            }
            WIRE_RECONNECTS.fetch_add(failed.len() as u64, Relaxed);
            std::thread::sleep(BACKOFF_UNIT * DropPlan::backoff_units(attempt) as u32);
            let resend: Vec<Request> = failed.iter().map(|&i| requests[i].clone()).collect();
            for (s, _) in &resend {
                self.shards[*s].respawn_if_unreachable();
            }
            let again = self.send_all(&resend, &mut |j, reply| accept(failed[j], reply));
            failed.iter().zip(again).for_each(|(&i, r)| got[i] = r);
        }
        (got.into_iter().zip(requests))
            .map(|(got, &(s, _))| {
                let path = self.shards[s].path.display();
                let got =
                    got.unwrap_or_else(|| panic!("socket substrate: shard at {path} unreachable"));
                got.ok_or(s)
            })
            .collect()
    }

    /// One `frame` to every shard.
    fn to_every_shard(&self, frame: Vec<u8>) -> Vec<Request> {
        (0..self.shards.len()).map(|s| (s, frame.clone())).collect()
    }

    /// Pings every shard, respawning any that died — the runtime calls
    /// this at job start and round boundaries when the socket substrate
    /// is active, so a crashed server is replaced before it is needed.
    pub fn ensure_healthy(&self) {
        let ping = self.to_every_shard(request_header(op::PING, 0, 0));
        let pinged = self.exchange(&ping, |_, r| (r == [1]).then_some(()));
        pinged.expect("a PING is answered with [1]");
    }

    /// Offloads one generation: `regions[s]` holds shard `s`'s values
    /// back to back and the offset one past each, shipped in `LOAD`
    /// frames of about [`LOAD_CHUNK_BYTES`]. `Err(shard)` names a shard
    /// that lost the generation between two of its frames.
    pub(crate) fn load(
        &self,
        generation: u64,
        regions: &[(Vec<u8>, Vec<usize>)],
    ) -> Result<(), usize> {
        let mut frames = Vec::new();
        for (s, (bytes, ends)) in regions.iter().enumerate() {
            u32::try_from(ends.len()).expect("under 2^32 positions a shard");
            let (mut first, mut start) = (0, 0);
            while first < ends.len() {
                let mut last = first + 1;
                while last < ends.len()
                    && 4 * (last - first) + ends[last - 1] - start < LOAD_CHUNK_BYTES
                {
                    last += 1;
                }
                // Offsets fit a `u32`: a longer frame fails to send.
                let mut frame = request_header(op::LOAD, generation, (last - first) as u32);
                (first as u32).wire_encode(&mut frame);
                for end in &ends[first..last] {
                    ((end - start) as u32).wire_encode(&mut frame);
                }
                frame.extend_from_slice(&bytes[start..ends[last - 1]]);
                frames.push((s, frame));
                (first, start) = (last, ends[last - 1]);
            }
        }
        self.exchange(&frames, |_, r| (r == [1]).then_some(()))?;
        Ok(())
    }

    /// Fetches `positions[s]` from every shard `s` whose list is not
    /// empty and hands each value's bytes to `f(shard, position, bytes)`
    /// in request order. `Err(shard)` names a shard that lost the
    /// generation (its server restarted).
    pub(crate) fn get(
        &self,
        generation: u64,
        positions: &[Vec<u32>],
        mut f: impl FnMut(usize, u32, &[u8]),
    ) -> Result<(), usize> {
        let requests: Vec<Request> = (positions.iter().enumerate())
            .filter(|(_, wanted)| !wanted.is_empty())
            .map(|(s, wanted)| {
                let mut frame = request_header(op::GET, generation, wanted.len() as u32);
                wanted.iter().for_each(|p| p.wire_encode(&mut frame));
                (s, frame)
            })
            .collect();
        self.exchange(&requests, |i, reply| {
            let s = requests[i].0;
            let mut values = split_get_reply(reply, positions[s].len())?;
            for &p in &positions[s] {
                let value = split_blob(&mut values).expect("checked by split_get_reply");
                f(s, p, value);
            }
            Some(())
        })?;
        Ok(())
    }

    /// Frees a generation on every shard (best-effort: a dead shard has
    /// already lost it; called from the sealed generation's drop).
    pub(crate) fn drop_gen(&self, generation: u64) {
        let frames = self.to_every_shard(request_header(op::DROP_GEN, generation, 0));
        self.send_all(&frames, &mut |_, _| Some(()));
    }

    /// Sends `SHUTDOWN` to every shard server (standalone clusters and
    /// supervision tests; the global cluster's servers exit with the
    /// process via their stdin pipe).
    pub fn shutdown(&self) {
        let frames = self.to_every_shard(request_header(op::SHUTDOWN, 0, 0));
        self.send_all(&frames, &mut |_, _| Some(()));
        for shard in &self.shards {
            shard.conn.lock().0 = None;
            if let Some(ServerHandle::Process(mut child)) = shard.server.lock().take() {
                let _ = child.wait();
            }
        }
    }

    /// Kills the shard servers *without* cleanup — simulating a crash
    /// so supervision tests can exercise respawn. Connections are left
    /// in place so the next request fails like a real partition.
    pub fn kill_servers_for_test(&self) {
        let shutdown = request_header(op::SHUTDOWN, 0, 0);
        for (s, shard) in self.shards.iter().enumerate() {
            match shard.server.lock().take() {
                Some(ServerHandle::Process(mut child)) => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Some(ServerHandle::Thread) => {
                    // No process to kill: shut the loop down instead.
                    self.send_all(&[(s, shutdown.clone())], &mut |_, _| Some(()));
                    shard.conn.lock().0 = None;
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
        .map(|dir| dir.join("ampc-shardd"))
        .find(|candidate| candidate.is_file())
}

/// The process-global cluster serving every socket-sealed generation,
/// spawned lazily on first use (`D0` loads can precede any runtime
/// involvement) and sized by `AMPC_SOCKET_SHARDS`.
pub fn cluster() -> &'static Arc<SocketCluster> {
    static CLUSTER: OnceLock<Arc<SocketCluster>> = OnceLock::new();
    CLUSTER.get_or_init(|| {
        let mut c = SocketCluster::spawn(ampc_knobs::ampc_socket_shards());
        c.global = true;
        Arc::new(c)
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
/// generation (ids key the region namespace on the shard servers).
pub(crate) fn next_gen_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loads `values` as `shard`'s positions of `generation`.
    fn load(c: &SocketCluster, generation: u64, shard: usize, values: &[&[u8]]) {
        let mut regions = vec![(Vec::new(), Vec::new()); c.shard_count()];
        let (bytes, ends) = &mut regions[shard];
        for value in values {
            bytes.extend_from_slice(value);
            ends.push(bytes.len());
        }
        assert_eq!(c.load(generation, &regions), Ok(()));
    }

    /// The values at `positions` of `shard`, in reply order; `Err` for a
    /// lost generation.
    fn fetch(c: &SocketCluster, g: u64, shard: usize, at: &[u32]) -> Result<Vec<Vec<u8>>, usize> {
        let mut positions = vec![Vec::new(); c.shard_count()];
        positions[shard] = at.to_vec();
        let mut got = Vec::new();
        c.get(g, &positions, |_, _, value| got.push(value.to_vec()))?;
        Ok(got)
    }

    #[test]
    fn load_get_drop_round_trip() {
        let c = SocketCluster::spawn(2);
        let generation = next_gen_id();
        let bytes: Vec<u8> = (0..50).collect();
        let values: Vec<&[u8]> = bytes.chunks(1).collect();
        (0..2).for_each(|shard| load(&c, generation, shard, &values));
        assert_eq!(
            fetch(&c, generation, 1, &[0, 49]),
            Ok(vec![vec![0], vec![49]])
        );
        c.drop_gen(generation);
        assert_eq!(fetch(&c, generation, 1, &[0]), Err(1), "gone, loudly");
    }

    #[test]
    fn generations_are_isolated_namespaces() {
        let c = SocketCluster::spawn(1);
        let (g1, g2) = (next_gen_id(), next_gen_id());
        load(&c, g1, 0, &[b"one"]);
        load(&c, g2, 0, &[b"two"]);
        assert_eq!(fetch(&c, g1, 0, &[0]), Ok(vec![b"one".to_vec()]));
        c.drop_gen(g1);
        assert_eq!(fetch(&c, g1, 0, &[0]), Err(0));
        assert_eq!(fetch(&c, g2, 0, &[0]), Ok(vec![b"two".to_vec()]));
    }

    #[test]
    fn get_replies_follow_request_order() {
        let c = SocketCluster::spawn(1);
        let generation = next_gen_id();
        load(&c, generation, 0, &[b"a", b"", b"bb"]);
        let got = fetch(&c, generation, 0, &[2, 1, 0, 2]).expect("held");
        assert_eq!(got, [&b"bb"[..], b"", b"a", b"bb"]);
    }

    #[test]
    fn large_loads_chunk_into_multiple_frames() {
        let c = SocketCluster::spawn(1);
        let generation = next_gen_id();
        // ~9 MB of values: must split into ≥ 3 LOAD frames.
        let values: Vec<Vec<u8>> = (0..9u8).map(|k| vec![k; 1 << 20]).collect();
        let before = wire_metrics().requests;
        load(
            &c,
            generation,
            0,
            &values.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        assert!(wire_metrics().requests - before >= 3);
        let got = fetch(&c, generation, 0, &[8, 0]);
        assert_eq!(got, Ok(vec![values[8].clone(), values[0].clone()]));
    }

    #[test]
    fn killed_server_is_respawned_and_new_loads_work() {
        let c = SocketCluster::spawn(1);
        let (g1, g2) = (next_gen_id(), next_gen_id());
        load(&c, g1, 0, &[b"x"]);
        let before = wire_metrics();
        c.kill_servers_for_test();
        // The next request rides the reconnect/respawn path…
        load(&c, g2, 0, &[b"y"]);
        assert_eq!(fetch(&c, g2, 0, &[0]), Ok(vec![b"y".to_vec()]));
        let after = wire_metrics();
        assert!(after.reconnects > before.reconnects, "reconnects counted");
        assert!(after.spawns > before.spawns, "server respawned");
        // …but the crashed server's data is gone, loudly.
        assert_eq!(fetch(&c, g1, 0, &[0]), Err(0));
    }

    /// A frame: `header` then every `u32` of `words`, then `bytes`.
    fn frame(header: Vec<u8>, words: &[u32], bytes: &[u8]) -> Vec<u8> {
        let words = words.iter().flat_map(|w| w.to_le_bytes());
        header
            .into_iter()
            .chain(words)
            .chain(bytes.iter().copied())
            .collect()
    }

    const REJECTED: (Vec<u8>, bool) = (Vec::new(), false);

    #[test]
    fn a_load_that_is_not_exactly_count_entries_stores_nothing() {
        let mut server = ShardServer::default();
        // Positions 0 and 1 of generation 7: "one", "two".
        let load = frame(request_header(op::LOAD, 7, 2), &[0, 3, 6], b"onetwo");
        let trailing = [&load[..], &[0]].concat();
        for bad in [&load[..load.len() - 1], &trailing] {
            assert_eq!(server.handle_request(bad), REJECTED);
            assert_eq!(server, ShardServer::default(), "a rejected LOAD left state");
        }
        assert_eq!(server.handle_request(&load), (vec![1], false));
        assert_eq!(server.generations[&7].ends, [3, 6]);
    }

    #[test]
    fn a_get_must_carry_exactly_count_keys() {
        let mut server = ShardServer::default();
        server.handle_request(&frame(request_header(op::LOAD, 3, 2), &[0, 1, 1], b"v"));
        let get = frame(request_header(op::GET, 3, 2), &[0, 1], b"");
        let held = server.clone();
        for bad in [&get[..get.len() - 1], &[&get[..], &[0; 4]].concat()] {
            assert_eq!(server.handle_request(bad), REJECTED);
        }
        assert_eq!(server, held, "a rejected GET changed state");
        let answer = (vec![1, 1, 0, 0, 0, b'v', 0, 0, 0, 0], false);
        assert_eq!(server.handle_request(&get), answer);
    }

    #[test]
    fn entry_free_ops_take_no_count_and_no_body() {
        let mut server = ShardServer::default();
        server.handle_request(&frame(request_header(op::LOAD, 4, 1), &[0, 1], b"x"));
        let held = server.clone();
        for opcode in [op::DROP_GEN, op::PING, op::SHUTDOWN] {
            let trailing = frame(request_header(opcode, 4, 0), &[], &[0]);
            for bad in [request_header(opcode, 4, 1), trailing] {
                assert_eq!(server.handle_request(&bad), REJECTED);
            }
        }
        assert_eq!(server, held, "a rejected DROP_GEN dropped the generation");
        let drop = request_header(op::DROP_GEN, 4, 0);
        assert_eq!(server.handle_request(&drop), (vec![1], false));
        assert_eq!(server, ShardServer::default());
        let shutdown = request_header(op::SHUTDOWN, 0, 0);
        assert_eq!(server.handle_request(&shutdown), (vec![1], true));
    }

    #[test]
    fn a_get_reply_must_be_exactly_count_entries() {
        // Two values: "ab", then an empty one.
        let reply = [1, 2, 0, 0, 0, b'a', b'b', 0, 0, 0, 0];
        assert_eq!(split_get_reply(&reply, 2), Some(&reply[1..]));
        assert_eq!(split_get_reply(&[1], 0), Some(&[][..]));
        let trailing = [&reply[..], &[7]].concat();
        for (bad, count) in [
            (&reply[..reply.len() - 1], 2), // truncated inside the second length
            (&reply[..6], 1),               // truncated inside the value
            (&reply[..], 1),                // an extra value
            (&trailing[..], 2),             // trailing bytes
            (&[2][..], 0),                  // a tag that is not 1
            (&[][..], 0),                   // the empty malformed-frame reply
        ] {
            assert_eq!(split_get_reply(bad, count), None, "{bad:?} for {count}");
        }
    }

    #[test]
    fn read_frame_grows_only_with_the_bytes_that_arrive() {
        let lying = frame(vec![], &[1 << 30], &[1, 2, 3]);
        let mut buf = Vec::new();
        let err = read_frame(&mut &lying[..], &mut buf).expect_err("3 of 2^30 bytes");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(buf.capacity() < 1 << 20, "capacity {}", buf.capacity());
    }

    #[test]
    fn ping_health_check_succeeds() {
        let c = SocketCluster::spawn(3);
        c.ensure_healthy();
        assert_eq!(c.shard_count(), 3);
    }
}
