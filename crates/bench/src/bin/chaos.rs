//! Fault-injection (chaos) harness for the valuation service's
//! crash-safe cache coordination.
//!
//! The cache tier claims that everything under `FEDVAL_CACHE_DIR` —
//! cell segments, the persisted training trace, the manifest — is
//! *disposable acceleration state*: pure functions of fingerprinted
//! inputs, written with temp+rename+checksum discipline, verified on
//! read, and recomputed when missing. If that holds, no crash, kill,
//! concurrent writer, or corruption can ever change a valuation — only
//! make it slower. This binary injects exactly those faults against
//! real child processes and asserts, after every scenario, that the
//! recovered valuations are **bit-identical** to a clean baseline and
//! that corrupt artifacts were counted (`corrupt_events`), never
//! trusted.
//!
//! Scenarios:
//!
//! * `kill_mid_spill` — SIGKILL a worker partway through a spill-heavy
//!   run (1 MB cell budget forces mid-run segment writes); a recovery
//!   worker over the same dir must finish with baseline-identical
//!   values, absorbing any torn segment.
//! * `kill_mid_training` — SIGKILL early, before/around trace
//!   persistence; recovery retrains (or rehydrates) and matches.
//! * `concurrent_writers` — two workers race on one directory; both
//!   must agree with the baseline and **exactly one** may train the
//!   world (the per-world training election).
//! * `poisoned_segments` — truncate one segment, bit-flip another and
//!   the persisted trace, plant a stale orphan tmp file; recovery
//!   counts the corruption, retrains, sweeps the orphan, and matches.
//! * `unwritable_dir` — the cache path can never exist (its parent is
//!   a regular file); the worker serves memory-only, reports
//!   `degraded`, and matches.
//! * `sigterm_drain` — the real `fedval_serve` binary gets a job over
//!   HTTP, then SIGTERM; it must drain, flush, and exit 0, and a
//!   follow-up worker must be disk-warm (`world_reused` across
//!   processes — no retraining after a clean restart).
//!
//! `--smoke` runs `kill_mid_spill` + `concurrent_writers` (the CI
//! gate); the default runs everything. Exit status is non-zero on any
//! failed assertion. `--serve-bin PATH` points at `fedval_serve` when
//! it is not a sibling of this binary.

use fedval_bench::smoke::{self, flag_value, has_flag, value_checksum};
use fedval_cache::CellCache;
use fedval_jsonio::{scan_num, scan_str, JsonWriter};
use fedval_runtime::{Pool, PoolHandle, SchedPolicy};
use fedval_service::job::{JobManager, JobSpec, JobStatus};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

extern "C" {
    /// POSIX `kill(2)` — the workspace stays dependency-free.
    fn kill(pid: i32, sig: i32) -> i32;
}

/// The spill-heavy job: `exact` over 12 clients × 4 rounds is 16 384
/// utility cells, which a 1 MB cell budget cannot hold — the worker
/// spills segments *during* the run, giving SIGKILL a torn-write
/// window.
fn spill_spec() -> JobSpec {
    let mut spec = JobSpec::new("exact");
    spec.num_clients = Some(12);
    spec.samples_per_client = Some(24);
    spec.rounds = Some(4);
    spec.clients_per_round = Some(6);
    spec.seed = 33;
    spec
}

/// The training-heavy job: few subsets (2^5), many rounds — wall clock
/// is dominated by FedAvg itself, so an early kill lands before the
/// trace is persisted.
fn train_spec() -> JobSpec {
    let mut spec = JobSpec::new("exact");
    spec.num_clients = Some(5);
    spec.samples_per_client = Some(200);
    spec.rounds = Some(60);
    spec.clients_per_round = Some(3);
    spec.seed = 7;
    spec
}

fn spec_by_name(name: &str) -> JobSpec {
    match name {
        "spill" => spill_spec(),
        "train" => train_spec(),
        other => panic!("unknown spec {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Worker mode: one job through a real JobManager over --dir.
// ---------------------------------------------------------------------------

/// Child mode: runs one job over the given cache dir and prints a flat
/// JSON result line the parent scans. This is the same manager/cache
/// path `fedval_serve` uses — only the HTTP layer is skipped.
fn run_worker(dir: &Path, spec_name: &str, mem_mb: usize) -> ! {
    let cache = CellCache::with_dir(mem_mb * 1024 * 1024, dir);
    let manager = JobManager::with_pool_and_cache(
        PoolHandle::owned(Pool::with_policy(2, SchedPolicy::FairShare)),
        cache,
    );
    let job = manager.submit(spec_by_name(spec_name)).expect("submit");
    assert_eq!(
        job.wait(),
        JobStatus::Done,
        "worker job failed: {:?}",
        job.error()
    );
    let cache_info = job.cache_info().expect("cache info");
    let stats = manager.cache_stats();
    let values = job.report().expect("report").values;
    let mut w = JsonWriter::new();
    w.begin_object_compact();
    w.num_field("run_ms", job.run_ms());
    w.bool_field("world_reused", cache_info.world_reused);
    w.u64_field("cells_computed", cache_info.cells_computed);
    w.u64_field("cell_hits", cache_info.cell_hits);
    w.u64_field("disk_warm_cells", cache_info.disk_warm_cells);
    w.u64_field("corrupt_events", stats.corrupt_events);
    w.u64_field("write_errors", stats.write_errors);
    w.bool_field("degraded", stats.disk_degraded);
    w.str_field("checksum", &format!("{:016x}", value_checksum(&values)));
    w.end_object();
    println!("{}", w.finish_inline());
    std::process::exit(0);
}

/// A parsed worker result line.
#[derive(Debug, Clone)]
struct WorkerResult {
    run_ms: f64,
    world_reused: bool,
    cells_computed: u64,
    disk_warm_cells: u64,
    corrupt_events: u64,
    degraded: bool,
    checksum: String,
}

fn parse_worker_line(stdout: &str) -> WorkerResult {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.contains("\"checksum\""))
        .unwrap_or_else(|| panic!("no result line in worker output: {stdout}"));
    // JsonWriter bools are bare `true`/`false` literals.
    let flag = |key: &str| line.contains(&format!("\"{key}\": true"));
    WorkerResult {
        run_ms: scan_num(line, "run_ms").expect("run_ms"),
        world_reused: flag("world_reused"),
        cells_computed: scan_num(line, "cells_computed").expect("cells_computed") as u64,
        disk_warm_cells: scan_num(line, "disk_warm_cells").expect("disk_warm_cells") as u64,
        corrupt_events: scan_num(line, "corrupt_events").expect("corrupt_events") as u64,
        degraded: flag("degraded"),
        checksum: scan_str(line, "checksum").expect("checksum").to_string(),
    }
}

fn worker_command(dir: &Path, spec_name: &str, mem_mb: usize) -> Command {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.arg("--worker")
        .arg("--dir")
        .arg(dir)
        .arg("--spec")
        .arg(spec_name)
        .arg("--mem-mb")
        .arg(mem_mb.to_string())
        // Workers get their cache config from flags, never the parent env.
        .env_remove("FEDVAL_CACHE_DIR")
        .env_remove("FEDVAL_CACHE_MEM_MB")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Runs a worker to completion and parses its result.
fn run_worker_to_end(dir: &Path, spec_name: &str, mem_mb: usize) -> WorkerResult {
    let output = worker_command(dir, spec_name, mem_mb)
        .output()
        .expect("spawn worker");
    assert!(
        output.status.success(),
        "worker failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    parse_worker_line(&String::from_utf8_lossy(&output.stdout))
}

/// Spawns a worker and SIGKILLs it after `delay`. Returns `true` if the
/// kill landed while the worker was still running (`false` = it won the
/// race and finished first — the scenario degenerates to a warm
/// restart, which is still checked).
fn spawn_and_kill(dir: &Path, spec_name: &str, mem_mb: usize, delay: Duration) -> bool {
    let mut child = worker_command(dir, spec_name, mem_mb)
        .spawn()
        .expect("spawn victim worker");
    std::thread::sleep(delay);
    let still_running = child.try_wait().expect("try_wait").is_none();
    if still_running {
        unsafe {
            kill(child.id() as i32, SIGKILL);
        }
    }
    let _ = child.wait();
    still_running
}

// ---------------------------------------------------------------------------
// Scenarios. Each returns an error string on failed assertions.
// ---------------------------------------------------------------------------

struct Baseline {
    checksum: String,
    clean_ms: f64,
}

/// One clean run per spec in a throwaway dir: the bit-identity
/// reference and the wall-clock yardstick kill delays scale from.
fn baseline(spec_name: &str) -> Baseline {
    let dir = smoke::tmpdir("chaos", &format!("baseline-{spec_name}"));
    let t0 = Instant::now();
    let clean = run_worker_to_end(&dir, spec_name, 1);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!clean.world_reused, "baseline must train");
    assert!(clean.cells_computed > 0, "baseline must compute cells");
    assert_eq!(clean.corrupt_events, 0, "clean run saw corruption");
    println!(
        "  baseline[{spec_name}]: checksum {} run {:.0} ms (wall {:.0} ms)",
        clean.checksum, clean.run_ms, wall_ms
    );
    Baseline {
        checksum: clean.checksum,
        // Spawn overhead included on purpose: kill delays are measured
        // from spawn time too.
        clean_ms: wall_ms,
    }
}

fn kill_scenario(
    name: &str,
    spec_name: &str,
    base: &Baseline,
    kill_fraction: f64,
    kills: usize,
) -> Result<(), String> {
    let dir = smoke::tmpdir("chaos", name);
    let delay = Duration::from_secs_f64(base.clean_ms * kill_fraction / 1e3);
    let mut landed = 0;
    for _ in 0..kills {
        if spawn_and_kill(&dir, spec_name, 1, delay) {
            landed += 1;
        }
    }
    let recovered = run_worker_to_end(&dir, spec_name, 1);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "  {name}: {landed}/{kills} kills landed at ~{:.0} ms; recovery reused_world={} \
         corrupt_events={} checksum {}",
        delay.as_secs_f64() * 1e3,
        recovered.world_reused,
        recovered.corrupt_events,
        recovered.checksum
    );
    if recovered.checksum != base.checksum {
        return Err(format!(
            "{name}: recovered checksum {} != baseline {}",
            recovered.checksum, base.checksum
        ));
    }
    Ok(())
}

fn concurrent_writers(base: &Baseline) -> Result<(), String> {
    let dir = smoke::tmpdir("chaos", "concurrent");
    let children: Vec<Child> = (0..2)
        .map(|_| {
            worker_command(&dir, "spill", 1)
                .spawn()
                .expect("spawn racer")
        })
        .collect();
    let mut results = Vec::new();
    for child in children {
        let output = child.wait_with_output().expect("racer output");
        if !output.status.success() {
            return Err(format!(
                "concurrent_writers: racer failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        results.push(parse_worker_line(&String::from_utf8_lossy(&output.stdout)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let trainers = results.iter().filter(|r| !r.world_reused).count();
    println!(
        "  concurrent_writers: trainers={trainers} checksums [{}, {}]",
        results[0].checksum, results[1].checksum
    );
    for r in &results {
        if r.checksum != base.checksum {
            return Err(format!(
                "concurrent_writers: checksum {} != baseline {}",
                r.checksum, base.checksum
            ));
        }
    }
    if trainers != 1 {
        return Err(format!(
            "concurrent_writers: {trainers} processes trained the same world \
             (the training election must elect exactly one)"
        ));
    }
    Ok(())
}

fn poisoned_segments(base: &Baseline) -> Result<(), String> {
    let dir = smoke::tmpdir("chaos", "poison");
    let clean = run_worker_to_end(&dir, "spill", 1);
    if clean.checksum != base.checksum {
        return Err("poisoned_segments: seeding run diverged from baseline".into());
    }
    // Layout sanity: the clean run left the documented artifacts.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cells"))
        .collect();
    segments.sort();
    let trace = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "trace"));
    if segments.len() < 2 {
        return Err(format!(
            "poisoned_segments: expected several spill segments, found {}",
            segments.len()
        ));
    }
    let Some(trace) = trace else {
        return Err("poisoned_segments: no persisted trace file".into());
    };
    if !dir.join("manifest.json").exists() {
        return Err("poisoned_segments: no manifest.json".into());
    }

    // Injection 1: torn segment (truncated to half).
    let len = std::fs::metadata(&segments[0]).expect("seg meta").len();
    let bytes = std::fs::read(&segments[0]).expect("read seg");
    std::fs::write(&segments[0], &bytes[..(len / 2) as usize]).expect("truncate seg");
    // Injection 2: bit-flipped segment record.
    let mut bytes = std::fs::read(&segments[1]).expect("read seg");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&segments[1], &bytes).expect("poison seg");
    // Injection 3: bit-flipped trace payload.
    let mut bytes = std::fs::read(&trace).expect("read trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&trace, &bytes).expect("poison trace");
    // Injection 4: a stale writer's orphan tmp, old enough to sweep.
    let orphan = dir.join("seg-deadbeef.p1.tmp");
    std::fs::write(&orphan, b"torn half-write").expect("plant orphan");
    let old = SystemTime::now() - Duration::from_secs(600);
    let file = std::fs::File::options()
        .write(true)
        .open(&orphan)
        .expect("open orphan");
    file.set_times(std::fs::FileTimes::new().set_modified(old))
        .expect("backdate orphan");

    let recovered = run_worker_to_end(&dir, "spill", 1);
    let orphan_swept = !orphan.exists();
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "  poisoned_segments: corrupt_events={} world_reused={} orphan_swept={orphan_swept} \
         checksum {}",
        recovered.corrupt_events, recovered.world_reused, recovered.checksum
    );
    if recovered.checksum != base.checksum {
        return Err(format!(
            "poisoned_segments: recovered checksum {} != baseline {}",
            recovered.checksum, base.checksum
        ));
    }
    if recovered.corrupt_events < 2 {
        return Err(format!(
            "poisoned_segments: only {} corrupt_events counted for 3 poisoned files",
            recovered.corrupt_events
        ));
    }
    if recovered.world_reused {
        return Err("poisoned_segments: a corrupt trace must be retrained, not trusted".into());
    }
    if !orphan_swept {
        return Err("poisoned_segments: stale orphan tmp survived recovery".into());
    }
    Ok(())
}

fn unwritable_dir(base: &Baseline) -> Result<(), String> {
    // The configured path's parent is a regular file — mkdir can never
    // succeed, which also models a full disk at directory creation.
    let parent = smoke::tmpdir("chaos", "unwritable");
    std::fs::write(&parent, b"not a directory").expect("plant file");
    let dir = parent.join("cache");
    let result = run_worker_to_end(&dir, "spill", 1);
    let _ = std::fs::remove_file(&parent);
    println!(
        "  unwritable_dir: degraded={} checksum {}",
        result.degraded, result.checksum
    );
    if !result.degraded {
        return Err("unwritable_dir: cache did not report degraded mode".into());
    }
    if result.checksum != base.checksum {
        return Err(format!(
            "unwritable_dir: memory-only checksum {} != baseline {}",
            result.checksum, base.checksum
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// sigterm_drain: the real fedval_serve binary over HTTP.
// ---------------------------------------------------------------------------

fn http_request(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in {response:?}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn sigterm_drain(base: &Baseline, serve_bin: &Path) -> Result<(), String> {
    if !serve_bin.exists() {
        return Err(format!(
            "sigterm_drain: {} not found — build fedval_serve first or pass --serve-bin",
            serve_bin.display()
        ));
    }
    let dir = smoke::tmpdir("chaos", "sigterm");
    let mut child = Command::new(serve_bin)
        .args(["--addr", "127.0.0.1:0", "--grace-ms", "120000"])
        .env("FEDVAL_CACHE_DIR", &dir)
        .env("FEDVAL_CACHE_MEM_MB", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn fedval_serve: {e}"))?;
    // First stdout line announces the resolved ephemeral address.
    let mut stdout = BufReader::new(child.stdout.take().expect("serve stdout"));
    let mut banner = String::new();
    stdout
        .read_line(&mut banner)
        .map_err(|e| format!("read banner: {e}"))?;
    let addr = banner
        .split_whitespace()
        .find(|w| w.contains(':') && w.starts_with("127."))
        .ok_or_else(|| format!("no address in banner {banner:?}"))?
        .to_string();

    // Readiness doc answers before the drain.
    let (status, health) = http_request(&addr, "GET", "/healthz", "")?;
    if status != 200 || !health.contains("\"status\": \"ok\"") {
        let _ = child.kill();
        return Err(format!("sigterm_drain: healthz {status}: {health}"));
    }
    // Submit the baseline job, then SIGTERM while it runs.
    // Must mirror `spill_spec()` exactly — the served job's checksum is
    // compared against the spill baseline.
    let body = r#"{"method": "exact", "num_clients": 12, "samples_per_client": 24,
        "rounds": 4, "clients_per_round": 6, "seed": 33}"#;
    let (status, accepted) = http_request(&addr, "POST", "/jobs", body)?;
    if status != 202 {
        let _ = child.kill();
        return Err(format!("sigterm_drain: submit got {status}: {accepted}"));
    }
    unsafe {
        kill(child.id() as i32, SIGTERM);
    }
    // The drain must finish the job, flush the cache, and exit 0.
    let deadline = Instant::now() + Duration::from_secs(180);
    let exit = loop {
        if let Some(code) = child.try_wait().map_err(|e| format!("try_wait: {e}"))? {
            break code;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            return Err("sigterm_drain: fedval_serve did not exit within 180 s of SIGTERM".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr_text = String::new();
    if let Some(mut e) = child.stderr.take() {
        let _ = e.read_to_string(&mut stderr_text);
    }
    if !exit.success() {
        return Err(format!(
            "sigterm_drain: fedval_serve exited {exit:?}; stderr:\n{stderr_text}"
        ));
    }
    if !stderr_text.contains("drained=true") {
        return Err(format!(
            "sigterm_drain: no drained summary on stderr:\n{stderr_text}"
        ));
    }
    // A fresh process over the flushed dir must skip training and load
    // cells from disk — the warm-restart acceptance gate.
    let warm = run_worker_to_end(&dir, "spill", 1);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "  sigterm_drain: exit 0, warm restart world_reused={} disk_warm_cells={} checksum {}",
        warm.world_reused, warm.disk_warm_cells, warm.checksum
    );
    if warm.checksum != base.checksum {
        return Err(format!(
            "sigterm_drain: warm checksum {} != baseline {}",
            warm.checksum, base.checksum
        ));
    }
    if !warm.world_reused {
        return Err(
            "sigterm_drain: warm restart retrained instead of rehydrating the trace".into(),
        );
    }
    if warm.disk_warm_cells == 0 {
        return Err("sigterm_drain: no cells loaded from the flushed cache".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if has_flag(&args, "--help") || has_flag(&args, "-h") {
        println!("usage: chaos [--smoke | --sigterm-smoke] [--serve-bin PATH]");
        return;
    }
    if has_flag(&args, "--worker") {
        let dir = flag_value(&args, "--dir").expect("--worker requires --dir");
        let spec = flag_value(&args, "--spec").unwrap_or_else(|| "spill".into());
        let mem_mb: usize = flag_value(&args, "--mem-mb")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        run_worker(Path::new(&dir), &spec, mem_mb);
    }
    let smoke = has_flag(&args, "--smoke");
    let sigterm_smoke = has_flag(&args, "--sigterm-smoke");
    let serve_bin = flag_value(&args, "--serve-bin")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            let mut path = std::env::current_exe().expect("current_exe");
            path.set_file_name("fedval_serve");
            path
        });

    let mode = if smoke {
        "smoke"
    } else if sigterm_smoke {
        "sigterm-smoke"
    } else {
        "full"
    };
    println!("== chaos ({mode}) : injected faults vs bit-identical recovery ==");
    let spill_base = baseline("spill");

    let mut failures: Vec<String> = Vec::new();
    let mut run = |name: &str, result: Result<(), String>| match result {
        Ok(()) => println!("  PASS {name}"),
        Err(e) => {
            println!("  FAIL {name}: {e}");
            failures.push(e);
        }
    };

    if !sigterm_smoke {
        run(
            "kill_mid_spill",
            kill_scenario("kill_mid_spill", "spill", &spill_base, 0.6, 2),
        );
        run("concurrent_writers", concurrent_writers(&spill_base));
    }
    if !smoke && !sigterm_smoke {
        let train_base = baseline("train");
        run(
            "kill_mid_training",
            kill_scenario("kill_mid_training", "train", &train_base, 0.2, 2),
        );
        run("poisoned_segments", poisoned_segments(&spill_base));
        run("unwritable_dir", unwritable_dir(&spill_base));
    }
    if !smoke {
        run("sigterm_drain", sigterm_drain(&spill_base, &serve_bin));
    }

    if failures.is_empty() {
        println!("all chaos scenarios passed");
    } else {
        eprintln!("{} chaos scenario(s) failed", failures.len());
        std::process::exit(1);
    }
}
