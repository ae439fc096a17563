//! A minimal HTTP/1.1 front end over the [`JobManager`].
//!
//! Hand-rolled on `std::net::TcpListener` — no async runtime, no HTTP
//! dependency — because the service's concurrency lives in the worker
//! pool, not the socket layer: a blocking acceptor and one short-lived
//! thread per connection are plenty for a valuation control plane, and
//! keeping the wire layer in `std` preserves the workspace's
//! zero-dependency footprint.
//!
//! # Routes
//!
//! | Method & path          | Meaning                                        |
//! |------------------------|------------------------------------------------|
//! | `GET /healthz`         | Liveness + method/scenario catalog             |
//! | `POST /jobs`           | Submit a [`JobSpec`](crate::job::JobSpec) body |
//! | `GET /jobs/{id}`       | Status, timings, and (when done) the report    |
//! | `GET /jobs/{id}/events`| Chunked stream of line-delimited JSON events   |
//! | `DELETE /jobs/{id}`    | Cancel the job                                 |
//!
//! Every response body is JSON (`render_*` in [`crate::wire`]); the
//! event stream is `application/x-ndjson` over chunked transfer
//! encoding, one event per line, closed when the job reaches a terminal
//! state. Connections are `Connection: close` — one request each.

use crate::job::{JobManager, SubmitError};
use crate::wire;
use fedval_runtime::{Pool, PoolHandle};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest accepted request body.
const MAX_BODY_BYTES: usize = 256 * 1024;

/// How long an event streamer blocks per poll before re-checking the
/// job and the server shutdown flag.
const EVENT_POLL: Duration = Duration::from_millis(100);

/// A parsed request: just the parts the router needs.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// The blocking HTTP server. Construct with [`Server::bind`], then
/// either [`run`](Server::run) on the current thread (the
/// `fedval_serve` binary) or [`start`](Server::start) a background
/// acceptor and keep the [`ServerHandle`] (tests, benchmarks).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    manager: JobManager,
    shutdown: Arc<AtomicBool>,
}

/// Controls a [`Server`] running on a background thread; dropping the
/// handle does *not* stop the server — call [`stop`](ServerHandle::stop).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, or port 0 for an
    /// ephemeral port) and serves jobs through `manager`.
    pub fn bind(addr: &str, manager: JobManager) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            manager,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The manager requests are served through.
    pub fn manager(&self) -> &JobManager {
        &self.manager
    }

    /// Accepts connections until [`ServerHandle::stop`] (or an accept
    /// error after shutdown). Each connection is handled on its own
    /// thread; the acceptor never blocks on request processing.
    pub fn run(self) {
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let manager = self.manager.clone();
            let shutdown = Arc::clone(&self.shutdown);
            let _ = std::thread::Builder::new()
                .name("fedval-http".into())
                .spawn(move || handle_connection(stream, &manager, &shutdown));
        }
    }

    /// Moves the acceptor to a background thread and returns its
    /// control handle.
    pub fn start(self) -> ServerHandle {
        let addr = self.addr;
        let shutdown = Arc::clone(&self.shutdown);
        let acceptor = std::thread::Builder::new()
            .name("fedval-accept".into())
            .spawn(move || self.run())
            .expect("spawn acceptor");
        ServerHandle {
            addr,
            shutdown,
            acceptor: Some(acceptor),
        }
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown, unblocks the acceptor with a self-connection,
    /// and joins it. In-flight connection threads finish on their own
    /// (event streamers observe the flag within one poll interval).
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Release);
        // accept() only returns when a connection arrives; give it one.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn handle_connection(stream: TcpStream, manager: &JobManager, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream);
    let request = match read_request(&mut reader) {
        Ok(request) => request,
        Err((status, message)) => {
            let mut stream = reader.into_inner();
            let _ = respond(&mut stream, status, &wire::render_error(&message));
            return;
        }
    };
    let mut stream = reader.into_inner();
    route(&mut stream, manager, shutdown, &request);
}

/// Reads one line (through `\n`, or to EOF), refusing to buffer more
/// than `max` bytes — a client streaming an endless line must cost
/// bounded memory, not an OOM. Returns `(status, message)` pairs ready
/// for [`respond`].
fn read_line_limited(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> Result<String, (u16, String)> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = reader
            .fill_buf()
            .map_err(|e| (400, format!("read error: {e}")))?;
        if available.is_empty() {
            break; // EOF mid-line; the caller decides if that is fatal.
        }
        let (used, found) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (available.len(), false),
        };
        if buf.len() + used > max {
            return Err((413, "request head too large".into()));
        }
        buf.extend_from_slice(&available[..used]);
        reader.consume(used);
        if found {
            break;
        }
    }
    String::from_utf8(buf).map_err(|_| (400, "request head is not UTF-8".into()))
}

/// Reads one request head + body. Returns `(status, message)` for
/// anything malformed (400) or over limits (413); never panics and
/// never buffers unbounded input.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, (u16, String)> {
    let line = read_line_limited(reader, MAX_HEAD_BYTES)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| (400, "empty request line".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| (400, "request line missing path".to_string()))?
        .to_string();
    let mut content_length = 0usize;
    let mut head_bytes = line.len();
    loop {
        let header = read_line_limited(reader, MAX_HEAD_BYTES)?;
        if header.is_empty() || header == "\r\n" || header == "\n" {
            break;
        }
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err((413, "request head too large".into()));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let length: u64 = value
                    .trim()
                    .parse()
                    .map_err(|_| (400, "invalid Content-Length".to_string()))?;
                if length > MAX_BODY_BYTES as u64 {
                    return Err((413, "request body too large".into()));
                }
                content_length = length as usize;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| (400, format!("short body: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| (400, "body is not UTF-8".to_string()))?;
    Ok(Request { method, path, body })
}

fn route(stream: &mut TcpStream, manager: &JobManager, shutdown: &AtomicBool, request: &Request) {
    let path = request.path.split('?').next().unwrap_or("");
    let result = match (request.method.as_str(), path) {
        ("GET", "/healthz") => handle_health(stream, manager),
        ("POST", "/jobs") => handle_submit(stream, manager, &request.body),
        ("GET", path) => match parse_job_path(path) {
            Some((id, false)) => handle_status(stream, manager, id),
            Some((id, true)) => handle_events(stream, manager, shutdown, id),
            None => respond(stream, 404, &wire::render_error("no such route")),
        },
        ("DELETE", path) => match parse_job_path(path) {
            Some((id, false)) => handle_cancel(stream, manager, id),
            _ => respond(stream, 404, &wire::render_error("no such route")),
        },
        _ => respond(stream, 405, &wire::render_error("method not allowed")),
    };
    // A client that hung up mid-response is its own problem.
    let _ = result;
}

/// `/jobs/{id}` → `(id, false)`; `/jobs/{id}/events` → `(id, true)`.
fn parse_job_path(path: &str) -> Option<(u64, bool)> {
    let rest = path.strip_prefix("/jobs/")?;
    if let Some(id) = rest.strip_suffix("/events") {
        Some((id.parse().ok()?, true))
    } else {
        Some((rest.parse().ok()?, false))
    }
}

fn handle_health(stream: &mut TcpStream, manager: &JobManager) -> io::Result<()> {
    let (threads, queue_depth, policy) = pool_info(manager.pool());
    let snapshot = wire::HealthSnapshot {
        draining: manager.is_draining(),
        active_jobs: manager.active_jobs(),
        capacity: manager.capacity(),
        pool_threads: threads,
        pool_queue_depth: queue_depth,
        policy,
        cache: manager.cache_stats(),
    };
    let body = wire::render_health(
        &snapshot,
        JobManager::method_names(),
        &JobManager::scenario_names(),
    );
    respond(stream, 200, &body)
}

fn pool_info(pool: &PoolHandle) -> (usize, usize, &'static str) {
    match pool {
        PoolHandle::Global => {
            let pool = Pool::global();
            (
                Pool::global_width(),
                pool.queued_jobs(),
                pool.policy().name(),
            )
        }
        PoolHandle::Owned(pool) => (pool.threads(), pool.queued_jobs(), pool.policy().name()),
    }
}

fn handle_submit(stream: &mut TcpStream, manager: &JobManager, body: &str) -> io::Result<()> {
    let spec = match wire::parse_job_spec(body) {
        Ok(spec) => spec,
        Err(message) => return respond(stream, 400, &wire::render_error(&message)),
    };
    match manager.submit(spec) {
        Ok(job) => respond(stream, 202, &wire::render_accepted(&job)),
        Err(e @ (SubmitError::AtCapacity(_) | SubmitError::ShuttingDown)) => {
            // Overload and drain are both "come back later": shed with
            // 503 + Retry-After instead of queueing unboundedly.
            respond(stream, 503, &wire::render_error(&e.to_string()))
        }
        Err(e) => respond(stream, 400, &wire::render_error(&e.to_string())),
    }
}

fn handle_status(stream: &mut TcpStream, manager: &JobManager, id: u64) -> io::Result<()> {
    match manager.get(id) {
        Some(job) => respond(stream, 200, &wire::render_job(&job)),
        None => respond(stream, 404, &wire::render_error("no such job")),
    }
}

fn handle_cancel(stream: &mut TcpStream, manager: &JobManager, id: u64) -> io::Result<()> {
    match manager.cancel(id) {
        Some(job) => respond(stream, 200, &wire::render_job(&job)),
        None => respond(stream, 404, &wire::render_error("no such job")),
    }
}

/// Streams the job's event log as chunked ndjson: everything logged so
/// far immediately, then live events as they arrive, closing once the
/// job is terminal and the log is drained (or the server shuts down).
fn handle_events(
    stream: &mut TcpStream,
    manager: &JobManager,
    shutdown: &AtomicBool,
    id: u64,
) -> io::Result<()> {
    let Some(job) = manager.get(id) else {
        return respond(stream, 404, &wire::render_error("no such job"));
    };
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    let mut cursor = 0usize;
    loop {
        let (fresh, more) = job.events_since(cursor, EVENT_POLL);
        cursor += fresh.len();
        for line in &fresh {
            write_chunk(stream, line)?;
        }
        if !more || shutdown.load(Ordering::Acquire) {
            break;
        }
    }
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// One chunked-encoding chunk holding `line` plus its newline.
fn write_chunk(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    write!(stream, "{:x}\r\n{line}\n\r\n", line.len() + 1)?;
    stream.flush()
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete JSON response with `Content-Length` framing.
/// 503s carry `Retry-After` so load-shedding reads as backpressure,
/// not failure.
fn respond(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    let retry_after = if status == 503 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\n{retry_after}\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        status_text(status),
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_paths_parse() {
        assert_eq!(parse_job_path("/jobs/7"), Some((7, false)));
        assert_eq!(parse_job_path("/jobs/7/events"), Some((7, true)));
        assert_eq!(parse_job_path("/jobs/x"), None);
        assert_eq!(parse_job_path("/jobs/"), None);
        assert_eq!(parse_job_path("/nope"), None);
        assert_eq!(parse_job_path("/jobs/7/eventss"), None);
    }

    #[test]
    fn status_texts_cover_used_codes() {
        for code in [200, 202, 400, 404, 405, 413, 503] {
            assert_ne!(status_text(code), "Internal Server Error");
        }
    }
}
