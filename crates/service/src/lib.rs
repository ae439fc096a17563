//! Multi-tenant valuation-as-a-service over the ComFedSV stack.
//!
//! This crate turns the library's [`ValuationSession`] methods into a
//! small job service: clients `POST` a method + scenario spec, the
//! [`JobManager`] runs each job on its own thread with
//! an isolated [`UtilityOracle`](fedval_fl::UtilityOracle), and all
//! jobs share one worker pool whose fair-share scheduler (see
//! `fedval_runtime`) arbitrates compute between priority classes — an
//! interactive probe stays responsive while a batch sweep saturates the
//! machine.
//!
//! Three layers, one module each:
//!
//! * [`job`] — specs, lifecycle, the manager. Usable directly
//!   (in-process) by benchmarks and tests; the HTTP layer is a thin
//!   shell over it.
//! * [`wire`] — JSON request parsing and response rendering on
//!   `fedval_jsonio` (no JSON dependency).
//! * [`http`] — a hand-rolled HTTP/1.1 server on
//!   `std::net::TcpListener`: blocking acceptor, a thread per
//!   connection, chunked ndjson event streaming.
//!
//! # Correctness contract
//!
//! Job results are **bit-identical to solo runs**: the scheduler only
//! decides *when* queued work runs, never *where results land*
//! (`fedval_runtime`'s determinism contract), and each job's oracle,
//! RNG seeding, and cancel token are private to it. Submitting the same
//! spec against an idle service, a saturated one, a FIFO pool, or
//! `FEDVAL_THREADS=1` produces the same `values` bytes — asserted by
//! this crate's `concurrency` integration test.
//!
//! # Operational contract
//!
//! The service is built to run supervised and be killed without
//! ceremony:
//!
//! * **Graceful drain** — [`JobManager::begin_shutdown`] sheds new
//!   submissions ([`SubmitError::ShuttingDown`] → 503 over HTTP) and
//!   [`JobManager::shutdown`] drains running jobs for half the grace
//!   budget, checkpoint-cancels stragglers at their next round or
//!   permutation boundary, and flushes the cell cache. The
//!   `fedval_serve` binary wires this to `SIGTERM`/`SIGINT` behind a
//!   `--grace-ms` flag.
//! * **Overload shedding** — the manager admits a bounded number of
//!   concurrent jobs; beyond it, submission fails with
//!   [`SubmitError::AtCapacity`] (503 + `Retry-After` over HTTP)
//!   instead of queueing without bound.
//! * **Deadlines** — a spec's `deadline_ms` arms a watcher that
//!   checkpoint-cancels the job when the wall-clock budget expires;
//!   the job fails with `deadline exceeded after N ms`.
//! * **Bounded input** — the HTTP reader caps request heads at 16 KiB
//!   and bodies at 256 KiB (413), and answers malformed framing with
//!   400; no request can buffer unboundedly or panic a connection
//!   thread.
//! * **Readiness** — `GET /healthz` reports draining state, active
//!   jobs vs capacity, pool queue depth, and cache health (including
//!   disk degradation) for supervisor probes.
//!
//! # Quick start
//!
//! ```no_run
//! use fedval_service::http::Server;
//! use fedval_service::job::JobManager;
//!
//! let server = Server::bind("127.0.0.1:7878", JobManager::new()).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.run(); // blocks; Ctrl-C to stop
//! ```
//!
//! Then, from a shell:
//!
//! ```text
//! curl -s -X POST localhost:7878/jobs \
//!   -d '{"method": "comfedsv", "scenario": "free_riders", "class": "interactive"}'
//! curl -s localhost:7878/jobs/1
//! curl -sN localhost:7878/jobs/1/events
//! curl -s -X DELETE localhost:7878/jobs/1
//! ```
//!
//! [`ValuationSession`]: fedval_shapley::ValuationSession

pub mod http;
pub mod job;
pub mod wire;

pub use http::{Server, ServerHandle};
pub use job::{Job, JobCacheInfo, JobManager, JobSpec, JobStatus, SubmitError};
