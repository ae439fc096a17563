//! `fedval_serve`: the valuation service binary.
//!
//! ```text
//! fedval_serve [--addr 127.0.0.1:7878] [--grace-ms 30000]
//! ```
//!
//! Serves the job API (see `fedval_service`'s crate docs for the routes
//! and a curl walkthrough) on the global worker pool, which schedules
//! fair share. Its width comes from the usual `FEDVAL_THREADS` knob.
//!
//! # Shutdown
//!
//! `SIGTERM` or `SIGINT` triggers a graceful drain: the server stops
//! accepting connections, new submissions are shed with 503, running
//! jobs get half of `--grace-ms` to finish before being
//! checkpoint-cancelled at their next round/permutation boundary, the
//! shared cell cache is flushed to disk, and the process exits 0. A
//! second signal during the drain is ignored (the drain is already as
//! fast as the checkpoints allow).

use fedval_service::http::Server;
use fedval_service::job::JobManager;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; polled by the main thread.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    /// POSIX `signal(2)`. Installing a plain function pointer keeps the
    /// workspace dependency-free; the handler below only touches an
    /// atomic, which is async-signal-safe.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::Release);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: fedval_serve [--addr HOST:PORT] [--grace-ms MILLIS]");
        return;
    }
    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let grace_ms: u64 = match flag_value(&args, "--grace-ms") {
        Some(raw) => match raw.parse() {
            Ok(ms) => ms,
            Err(_) => {
                eprintln!("--grace-ms {raw:?} is not a millisecond count");
                std::process::exit(2);
            }
        },
        None => 30_000,
    };
    let manager = JobManager::new();
    let server = match Server::bind(&addr, manager.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    println!(
        "fedval_serve listening on {} ({} methods, {} scenarios)",
        server.local_addr(),
        JobManager::method_names().len(),
        JobManager::scenario_names().len()
    );
    let handle = server.start();
    while !SHUTDOWN.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("fedval_serve: shutdown signal received, draining");
    // Shed new submissions first, then stop the acceptor, then drain.
    manager.begin_shutdown();
    handle.stop();
    let summary = manager.shutdown(Duration::from_millis(grace_ms));
    eprintln!(
        "fedval_serve: drained={} jobs_cancelled={} cells_flushed={}",
        summary.drained, summary.jobs_cancelled, summary.cells_flushed
    );
    std::process::exit(if summary.drained { 0 } else { 1 });
}
