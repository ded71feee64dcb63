//! `ampc-shardd` — one socket-substrate shard server (DESIGN.md §12).
//!
//! Usage: `ampc-shardd <socket-path>`. Binds a Unix-domain listener at
//! the given path and serves the shard protocol
//! ([`ampc_dht::socket::serve_listener`]) until it receives `SHUTDOWN`
//! or its stdin closes. The supervising client spawns it with stdin
//! piped: if the client crashes, the pipe closes and the watchdog below
//! exits the process, so no orphan servers outlive their job.

use std::io::Read;
use std::os::unix::net::UnixListener;

fn main() {
    let mut args = std::env::args_os().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("usage: ampc-shardd <socket-path>");
        std::process::exit(2);
    };
    let path = std::path::PathBuf::from(path);

    // Orphan watchdog: the supervisor holds our stdin pipe open for as
    // long as it lives. EOF means the supervising process is gone, so
    // the accept loop (blocked in `accept`/`read`) must not linger.
    #[expect(
        clippy::disallowed_methods,
        reason = "a standalone server binary, not runtime machine work; the executor \
                  pool does not exist in this process"
    )]
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin().lock();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });

    // A stale socket file at `path` is removed first.
    let _ = std::fs::remove_file(&path);
    let served = UnixListener::bind(&path).and_then(ampc_dht::socket::serve_listener);
    if let Err(e) = served {
        eprintln!("ampc-shardd: {}: {e}", path.display());
        std::process::exit(1);
    }
    // Orderly SHUTDOWN: remove the socket file so a stale path never
    // masquerades as a live server.
    let _ = std::fs::remove_file(&path);
}
