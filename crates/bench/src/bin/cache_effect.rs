//! Repeat-valuation latency with the shared utility-cell cache: cold
//! vs warm, in-process and across a process restart.
//!
//! The cache tier's whole point is that the expensive parts of a
//! valuation job — training the trace and evaluating utility cells —
//! are pure functions of the spec, so a repeat job should be near-free.
//! This binary measures exactly that through the real [`JobManager`]:
//!
//! * **in-process** — one manager with a disk-backed cell cache runs
//!   the same spec twice. The first (cold) job trains and evaluates
//!   everything; the warm repeats hit the manager's world memo (no
//!   training) and the shared cache (no cell computes).
//! * **cross-process** — the binary re-spawns itself (`--child`) twice
//!   against one cache directory. The second child starts with empty
//!   process state but rehydrates the first child's persisted training
//!   trace (no retraining) and loads every cell from its disk spill.
//!
//! Values are asserted bit-identical between every leg before any
//! number is reported — the speedup is pure caching, never a numerical
//! shortcut.
//!
//! Output: an aligned table on stdout and JSON written to
//! `target/BENCH_cache.json` (schema in the `fedval_bench` crate docs,
//! `src/lib.rs`). A reference run is committed at the repo root as
//! `BENCH_cache.json`; refresh it deliberately with
//! `--out BENCH_cache.json`. `--smoke` shrinks repetitions and fails
//! (exit ≠ 0) if the in-process warm speedup falls below
//! [`MIN_WARM_SPEEDUP`] — the acceptance gate for the cache tier.

use fedval_bench::smoke::{self, value_checksum, SmokeArgs};
use fedval_cache::CellCache;
use fedval_jsonio::{scan_num, scan_str, JsonWriter};
use fedval_runtime::{Pool, PoolHandle, SchedPolicy};
use fedval_service::job::{JobManager, JobSpec, JobStatus};
use std::path::Path;
use std::time::Instant;

/// Required cold ÷ warm ratio of in-process repeat-job latency.
const MIN_WARM_SPEEDUP: f64 = 10.0;

/// The measured job: big enough that a cold run spends real time in
/// training + cell evaluation, small enough for CI. The gated leg uses
/// `exact` (4096 utility cells; run time is almost entirely cell
/// evaluation, so caching shows its full effect); a secondary ungated
/// leg runs `comfedsv`, whose warm floor is its matrix-completion
/// solve — work the cache legitimately cannot remove.
fn bench_spec(method: &str) -> JobSpec {
    let mut spec = JobSpec::new(method);
    spec.num_clients = Some(12);
    spec.samples_per_client = Some(60);
    spec.rounds = Some(10);
    spec.clients_per_round = Some(6);
    spec.rank = 4;
    spec.seed = 33;
    spec
}

fn manager_with_dir(dir: &Path) -> JobManager {
    JobManager::with_pool_and_cache(
        PoolHandle::owned(Pool::with_policy(2, SchedPolicy::FairShare)),
        CellCache::with_dir(fedval_cache::DEFAULT_MEM_BUDGET_BYTES, dir),
    )
}

struct RunOutcome {
    run_ms: f64,
    cells_computed: u64,
    cell_hits: u64,
    disk_warm_cells: u64,
    world_reused: bool,
    values: Vec<f64>,
}

fn run_once(manager: &JobManager, method: &str) -> RunOutcome {
    let job = manager.submit(bench_spec(method)).expect("submit");
    assert_eq!(
        job.wait(),
        JobStatus::Done,
        "bench job failed: {:?}",
        job.error()
    );
    let cache = job.cache_info().expect("cache info");
    RunOutcome {
        run_ms: job.run_ms(),
        cells_computed: cache.cells_computed,
        cell_hits: cache.cell_hits,
        disk_warm_cells: cache.disk_warm_cells,
        world_reused: cache.world_reused,
        values: job.report().expect("report").values,
    }
}

/// Child mode: one fresh manager over `dir`, one job, one flat-JSON
/// result line on stdout (parsed by the parent with `scan_num`).
fn run_child(dir: &Path) -> ! {
    let manager = manager_with_dir(dir);
    let out = run_once(&manager, "exact");
    let mut w = JsonWriter::new();
    w.begin_object_compact();
    w.num_field("run_ms", out.run_ms);
    w.u64_field("cells_computed", out.cells_computed);
    w.u64_field("cell_hits", out.cell_hits);
    w.u64_field("disk_warm_cells", out.disk_warm_cells);
    w.str_field("checksum", &format!("{:016x}", value_checksum(&out.values)));
    w.end_object();
    println!("{}", w.finish_inline());
    std::process::exit(0);
}

/// Spawns this binary in `--child` mode against `dir` and parses its
/// result line.
fn spawn_child(dir: &Path) -> (f64, u64, u64, u64, String) {
    let exe = std::env::current_exe().expect("current_exe");
    let output = std::process::Command::new(exe)
        .arg("--child")
        .arg("--dir")
        .arg(dir)
        .output()
        .expect("spawn child");
    assert!(
        output.status.success(),
        "child failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.contains("\"run_ms\""))
        .unwrap_or_else(|| panic!("no result line in child output: {stdout}"));
    (
        scan_num(line, "run_ms").expect("run_ms"),
        scan_num(line, "cells_computed").expect("cells_computed") as u64,
        scan_num(line, "cell_hits").expect("cell_hits") as u64,
        scan_num(line, "disk_warm_cells").expect("disk_warm_cells") as u64,
        scan_str(line, "checksum").expect("checksum").to_string(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if smoke::has_flag(&args, "--child") {
        let dir = smoke::flag_value(&args, "--dir").expect("--child requires --dir");
        run_child(Path::new(&dir));
    }
    let SmokeArgs {
        smoke,
        mode,
        out_path,
    } = SmokeArgs::parse(&args, "target/BENCH_cache.json");
    let (cold_reps, warm_reps) = if smoke { (1, 3) } else { (3, 5) };

    println!("== cache_effect ({mode}): repeat-valuation latency, cold vs warm ==");

    // In-process legs: per repetition, a fresh manager + cache
    // directory gives one cold run, then `warm_reps` warm repeats.
    let measure = |method: &str| {
        smoke::min_of(cold_reps, |rep| {
            let dir = smoke::tmpdir("cache-effect", &format!("inproc-{method}-{rep}"));
            let manager = manager_with_dir(&dir);
            let cold = run_once(&manager, method);
            assert!(!cold.world_reused, "first job must train");
            assert!(cold.cells_computed > 0, "cold run must compute cells");
            let ([warm_ms], warm_hits) = smoke::min_of(warm_reps, |_| {
                let warm = run_once(&manager, method);
                assert!(warm.world_reused, "repeat job must reuse the world memo");
                assert_eq!(warm.cells_computed, 0, "repeat job must recompute nothing");
                assert_eq!(
                    value_checksum(&warm.values),
                    value_checksum(&cold.values),
                    "warm values diverged from cold"
                );
                ([warm.run_ms], warm.cell_hits)
            });
            let _ = std::fs::remove_dir_all(&dir);
            ([cold.run_ms, warm_ms], (warm_hits, cold.cells_computed))
        })
    };
    let ([cold_ms, warm_ms], (warm_hits, cold_cells)) = measure("exact");
    let speedup = cold_ms / warm_ms;
    let ([cfsv_cold_ms, cfsv_warm_ms], _) = measure("comfedsv");
    let cfsv_speedup = cfsv_cold_ms / cfsv_warm_ms;
    println!(
        "{:>22}  {:>10}  {:>10}  {:>9}",
        "leg", "cold ms", "warm ms", "speedup"
    );
    println!(
        "{:>22}  {:>10.1}  {:>10.2}  {:>8.1}x   (gated: >= {MIN_WARM_SPEEDUP}x)",
        "in-process exact", cold_ms, warm_ms, speedup
    );
    println!(
        "{:>22}  {:>10.1}  {:>10.2}  {:>8.1}x   (warm floor = completion solve; not gated)",
        "in-process comfedsv", cfsv_cold_ms, cfsv_warm_ms, cfsv_speedup
    );

    // Cross-process leg: two fresh processes over one cache directory.
    // The warm child rehydrates the cold child's persisted trace (the
    // in-process memo dies, the trace file doesn't) and loads every
    // cell from its spill.
    let dir = smoke::tmpdir("cache-effect", "crossproc");
    let t0 = Instant::now();
    let (cross_cold_ms, cross_cold_cells, _, cross_cold_warm, cold_sum) = spawn_child(&dir);
    let (cross_warm_ms, cross_warm_cells, _, disk_warm_cells, warm_sum) = spawn_child(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cross_cold_warm, 0, "first child found a stale cache dir");
    assert!(cross_cold_cells > 0);
    assert_eq!(
        cross_warm_cells, 0,
        "disk-warm child recomputed {cross_warm_cells} cells"
    );
    assert!(disk_warm_cells > 0, "no cells loaded from disk");
    assert_eq!(cold_sum, warm_sum, "cross-process values diverged");
    let cross_speedup = cross_cold_ms / cross_warm_ms;
    println!(
        "{:>22}  {:>10.1}  {:>10.2}  {:>8.1}x   (children: {:.1}s; warm child trace-rehydrated, cells all disk-warm)",
        "cross-process exact",
        cross_cold_ms,
        cross_warm_ms,
        cross_speedup,
        t0.elapsed().as_secs_f64()
    );

    let mut w = JsonWriter::new();
    w.begin_object();
    w.str_field("bench", "cache_effect");
    w.str_field("mode", mode);
    w.u64_field("pool_threads", 2);
    w.str_field("method", "exact");
    w.u64_field("cells_cold", cold_cells);
    w.begin_object_field_compact("in_process");
    w.num_field("cold_ms", cold_ms);
    w.num_field("warm_ms", warm_ms);
    w.num_field("speedup", speedup);
    w.u64_field("warm_cell_hits", warm_hits);
    w.end_object();
    w.begin_object_field_compact("in_process_comfedsv");
    w.num_field("cold_ms", cfsv_cold_ms);
    w.num_field("warm_ms", cfsv_warm_ms);
    w.num_field("speedup", cfsv_speedup);
    w.end_object();
    w.begin_object_field_compact("cross_process");
    w.num_field("cold_ms", cross_cold_ms);
    w.num_field("warm_ms", cross_warm_ms);
    w.num_field("speedup", cross_speedup);
    w.u64_field("disk_warm_cells", disk_warm_cells);
    w.end_object();
    w.num_field("warm_speedup", speedup);
    w.end_object();
    match std::fs::write(&out_path, w.finish()) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("json write failed: {e}"),
    }

    if smoke && speedup < MIN_WARM_SPEEDUP {
        eprintln!("FAIL: in-process warm speedup {speedup:.1}x < required {MIN_WARM_SPEEDUP}x");
        std::process::exit(1);
    }
    println!("all cache_effect gates passed");
}
