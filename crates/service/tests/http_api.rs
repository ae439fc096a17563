//! End-to-end exercise of the HTTP API over a real socket: a raw
//! `TcpStream` client (no HTTP dependency on either side) drives
//! submit → poll → stream → cancel against a server on an ephemeral
//! port, and the returned values are checked bit-for-bit against a
//! solo in-process session run of the same spec.

use comfedsv::experiments::Scenario;
use fedval_runtime::{Pool, PoolHandle, SchedPolicy};
use fedval_service::http::Server;
use fedval_service::job::JobManager;
use fedval_shapley::ValuationSession;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Starts a server on an ephemeral port over an owned fair-share pool.
fn start_server() -> fedval_service::http::ServerHandle {
    let pool = PoolHandle::owned(Pool::with_policy(2, SchedPolicy::FairShare));
    let manager = JobManager::with_pool(pool);
    Server::bind("127.0.0.1:0", manager)
        .expect("bind ephemeral port")
        .start()
}

/// Sends one request and returns `(status, body)`. The body is raw —
/// chunked responses keep their framing (use [`read_event_lines`]).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// GETs `/jobs/{id}/events` and de-chunks the ndjson stream into lines.
fn read_event_lines(addr: SocketAddr, id: u64) -> Vec<String> {
    let (status, raw) = request(addr, "GET", &format!("/jobs/{id}/events"), "");
    assert_eq!(status, 200);
    // De-chunk: alternating "<hex-len>\r\n" and "<payload>\r\n" frames.
    let mut payload = String::new();
    let mut rest = raw.as_str();
    while let Some((len_line, after)) = rest.split_once("\r\n") {
        let len = usize::from_str_radix(len_line.trim(), 16).expect("chunk length");
        if len == 0 {
            break;
        }
        payload.push_str(&after[..len]);
        rest = after[len..].strip_prefix("\r\n").expect("chunk terminator");
    }
    payload.lines().map(str::to_string).collect()
}

/// Extracts the compact `"values": [...]` array from a job body.
fn parse_values(body: &str) -> Vec<f64> {
    let start = body.find("\"values\": [").expect("values field") + "\"values\": [".len();
    let end = body[start..].find(']').expect("values close") + start;
    body[start..end]
        .split(", ")
        .map(|v| v.parse().expect("value"))
        .collect()
}

fn poll_until_terminal(addr: SocketAddr, id: u64) -> (String, String) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        let status_value = scan_status(&body);
        if ["done", "cancelled", "failed"].contains(&status_value.as_str()) {
            return (status_value, body);
        }
        assert!(Instant::now() < deadline, "job {id} did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn scan_status(body: &str) -> String {
    fedval_jsonio::scan_str(body, "status")
        .expect("status field")
        .to_string()
}

fn scan_job_id(body: &str) -> u64 {
    fedval_jsonio::scan_num(body, "job").expect("job id") as u64
}

const SPEC: &str = r#"{"method": "comfedsv", "scenario": "free_riders", "seed": 9,
    "num_clients": 5, "samples_per_client": 12, "rounds": 3, "clients_per_round": 3}"#;

#[test]
fn healthz_reports_catalogs() {
    let server = start_server();
    let (status, body) = request(server.local_addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(scan_status(&body), "ok");
    assert!(body.contains("\"comfedsv\""));
    assert!(body.contains("\"free_riders\""));
    assert!(body.contains("\"policy\": \"fair\""));
    server.stop();
}

#[test]
fn submitted_job_matches_a_solo_session_bit_for_bit() {
    let server = start_server();
    let addr = server.local_addr();
    let (status, body) = request(addr, "POST", "/jobs", SPEC);
    assert_eq!(status, 202, "{body}");
    let id = scan_job_id(&body);
    let (final_status, body) = poll_until_terminal(addr, id);
    assert_eq!(final_status, "done", "{body}");
    let served = parse_values(&body);

    // The same spec run solo, in process, against its own oracle.
    let mut scenario = Scenario::by_name("free_riders").unwrap();
    scenario.num_clients = 5;
    scenario
        .behaviors
        .resize(5, fedval_fl::ClientBehavior::Honest);
    scenario.samples_per_client = 12;
    scenario.rounds = 3;
    scenario.clients_per_round = 3;
    let world = scenario.build(9);
    let trace = world.train(&scenario.fl_config(9));
    let oracle = world.oracle(&trace);
    let mut session = ValuationSession::builder()
        .rank(4)
        .permutations(80)
        .samples(200)
        .seed(9)
        .build();
    let solo = session.run("comfedsv", &oracle).unwrap();

    assert_eq!(served.len(), solo.values.len());
    for (a, b) in served.iter().zip(&solo.values) {
        assert_eq!(a.to_bits(), b.to_bits(), "served {a} != solo {b}");
    }
    server.stop();
}

#[test]
fn events_stream_carries_progress_to_termination() {
    let server = start_server();
    let addr = server.local_addr();
    let body = r#"{"method": "tmc", "num_clients": 5, "samples_per_client": 12,
        "rounds": 3, "clients_per_round": 3, "permutations": 40}"#;
    let (status, body) = request(addr, "POST", "/jobs", body);
    assert_eq!(status, 202, "{body}");
    let id = scan_job_id(&body);
    let lines = read_event_lines(addr, id);
    assert!(lines.len() >= 3, "expected a real stream, got {lines:?}");
    assert!(lines[0].contains("\"submitted\""));
    assert!(
        lines.iter().any(|l| l.contains("\"permutation\"")),
        "no permutation progress in {lines:?}"
    );
    assert!(lines.last().unwrap().contains("\"done\""));
    // Every line is flat JSON that scans.
    for line in &lines {
        assert_eq!(fedval_jsonio::scan_num(line, "job"), Some(id as f64));
    }
    server.stop();
}

#[test]
fn delete_cancels_a_running_job() {
    let server = start_server();
    let addr = server.local_addr();
    let body = r#"{"method": "tmc", "permutations": 500000, "seed": 3}"#;
    let (status, body) = request(addr, "POST", "/jobs", body);
    assert_eq!(status, 202, "{body}");
    let id = scan_job_id(&body);
    // Let it start working, then cancel over the wire.
    std::thread::sleep(Duration::from_millis(50));
    let (status, _) = request(addr, "DELETE", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200);
    let (final_status, body) = poll_until_terminal(addr, id);
    assert_eq!(final_status, "cancelled", "{body}");
    assert!(!body.contains("\"report\""));
    server.stop();
}

/// Writes `raw` bytes verbatim and returns the status code (0 when the
/// server just closed the connection without a response).
fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // The server may reject (and close) before the whole payload is
    // written — a short write is part of what's under test.
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, response)
}

#[test]
fn malformed_requests_get_clean_errors_not_hangs() {
    let server = start_server();
    let addr = server.local_addr();

    // Bad Content-Length values: not a number, negative.
    for cl in ["banana", "-5"] {
        let raw = format!("POST /jobs HTTP/1.1\r\nContent-Length: {cl}\r\n\r\n{{}}");
        let (status, body) = raw_request(addr, raw.as_bytes());
        assert_eq!(status, 400, "Content-Length {cl:?}: {body}");
        assert!(body.contains("\"error\""), "{body}");
    }

    // Declared body larger than the server accepts: shed before reading.
    let raw = "POST /jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
    let (status, body) = raw_request(addr, raw.as_bytes());
    assert_eq!(status, 413, "{body}");

    // Truncated body: Content-Length promises more than arrives.
    let raw = "POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"method\"";
    let (status, body) = raw_request(addr, raw.as_bytes());
    assert_eq!(status, 400, "{body}");

    // Oversized request line: rejected at the limit, not buffered.
    let mut raw = b"GET /".to_vec();
    raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
    let (status, body) = raw_request(addr, &raw);
    assert_eq!(status, 413, "{body}");

    // Oversized headers: many lines, bounded in total.
    let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..2000 {
        raw.extend_from_slice(format!("X-Padding-{i}: {}\r\n", "b".repeat(64)).as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    let (status, body) = raw_request(addr, &raw);
    assert_eq!(status, 413, "{body}");

    // Non-UTF-8 body.
    let mut raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n".to_vec();
    raw.extend_from_slice(&[0xff, 0xfe]);
    let (status, body) = raw_request(addr, &raw);
    assert_eq!(status, 400, "{body}");

    // Empty request: connection opened and closed without a full line.
    let (status, _) = raw_request(addr, b"");
    assert_eq!(status, 400);

    // The server is still healthy after all of that.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    server.stop();
}

#[test]
fn error_paths_return_structured_errors() {
    let server = start_server();
    let addr = server.local_addr();
    // No method.
    let (status, body) = request(addr, "POST", "/jobs", r#"{"scenario": "mixed"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""));
    // Unknown method.
    let (status, _) = request(addr, "POST", "/jobs", r#"{"method": "alchemy"}"#);
    assert_eq!(status, 400);
    // More clients than a subset mask holds.
    let (status, body) = request(
        addr,
        "POST",
        "/jobs",
        r#"{"method": "fedsv", "num_clients": 64}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("num_clients"), "{body}");
    // Unknown job / route / verb.
    assert_eq!(request(addr, "GET", "/jobs/999", "").0, 404);
    assert_eq!(request(addr, "DELETE", "/jobs/999", "").0, 404);
    assert_eq!(request(addr, "GET", "/nope", "").0, 404);
    assert_eq!(request(addr, "PUT", "/jobs", "").0, 405);
    server.stop();
}
