//! End-to-end benchmark of ComFedSV valuation jobs on one worker.
//!
//! Drives the real `fedval_service::JobManager` in process from one
//! closed-loop client (one job in flight at a time), checks every job's
//! output, and prints one JSON result line last on stdout:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_value --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays every
//! job layer by layer through the public functions of each crate and
//! reports per-layer metrics instead. See `perfbench/README.md` for the
//! workloads, the metrics and why they were chosen.

mod expected;
mod replay;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: workloads::Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch directory for the run's cache directories, under the working
/// directory (the checkout), removed when the run ends.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    fn new(tag: &str) -> std::io::Result<Self> {
        let root = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    /// An empty directory `name` under the work dir (emptied if it
    /// already exists).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind when this was the only run.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Restricts this thread, and so every thread it spawns later, to the
/// highest-numbered CPU it may run on. Returns that CPU and how many CPUs
/// were allowed, or `None` when the affinity calls fail (the run then
/// uses every allowed CPU and is reported as not correct).
fn pin_to_one_cpu() -> Option<(usize, u32)> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16;
    let mut allowed = [0u64; WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `size`
    // bytes, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return None;
    }
    Some((cpu, allowed.iter().map(|w| w.count_ones()).sum()))
}

fn main() -> ExitCode {
    // One CPU for the whole process, before any thread exists. One pool
    // worker is not enough on its own: a thread that submits a parallel
    // batch helps run it, so batches would still use two CPUs and wait
    // for the slower one.
    let cpu = pin_to_one_cpu();
    // One pool worker: the job manager uses the global pool, and the
    // completion solvers fan out on it too. Set before anything touches
    // the pool. BitExact is pinned by clearing the tier override.
    std::env::set_var("FEDVAL_THREADS", "1");
    std::env::remove_var("FEDVAL_TIER");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_value|warm_revalue> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::new(args.workload.name()) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: cannot create the work dir: {e}");
            return ExitCode::from(1);
        }
    };
    let outcome = workloads::run(&args, &work);
    drop(work);
    match cpu {
        Some((cpu, allowed)) => println!("# pinned to CPU {cpu} of {allowed} allowed"),
        None => eprintln!(
            "perfbench: FAILED CHECK: could not pin to one CPU; figures are not comparable"
        ),
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in outcome.problems.iter().take(10) {
        eprintln!("perfbench: FAILED CHECK: {problem}");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && cpu.is_some();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                stats::json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
