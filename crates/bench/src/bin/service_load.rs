//! Service latency under multi-tenant load: fair-share vs FIFO.
//!
//! The scenario the fair-share scheduler exists for: a large batch
//! valuation saturates the worker pool while small interactive jobs
//! arrive. For each scheduling policy this binary builds an owned
//! two-worker pool, keeps a batch *flood* job running through a
//! [`JobManager`], then submits a stream of small probe jobs — first
//! interactive-class, then batch-class — and records each probe's
//! end-to-end latency (submit → terminal). Per (policy, class) it
//! reports p50/p99/mean latency; the headline number is
//! `interactive_p99_speedup` = FIFO p99 ÷ fair-share p99 for the
//! interactive class.
//!
//! Results are identical across policies by construction (the
//! scheduler only reorders work; see `fedval_runtime`); this bench
//! measures the *latency* difference that reordering buys.
//!
//! Output: an aligned table on stdout and JSON written to
//! `target/BENCH_service_latency.json` (schema in the `fedval_bench`
//! crate docs, `src/lib.rs`). A reference run is committed at the repo
//! root as `BENCH_service_latency.json`; refresh it deliberately with
//! `--out BENCH_service_latency.json`. `--smoke` shrinks the probe
//! count and fails (exit ≠ 0) if the interactive p99 speedup falls
//! below [`MIN_INTERACTIVE_SPEEDUP`] — the acceptance gate for this
//! PR's scheduler.

use fedval_bench::smoke::SmokeArgs;
use fedval_jsonio::JsonWriter;
use fedval_runtime::{JobClass, Pool, PoolHandle, SchedPolicy};
use fedval_service::job::{Job, JobManager, JobSpec, JobStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Required FIFO ÷ fair-share ratio of interactive p99 latency.
const MIN_INTERACTIVE_SPEEDUP: f64 = 5.0;

/// Probes per (policy, class): smoke / full.
const SMOKE_PROBES: usize = 5;
const FULL_PROBES: usize = 12;

/// Queued chunk jobs required on the pool before a probe is measured —
/// the "large batch in flight" precondition.
const MIN_BACKLOG_JOBS: usize = 200;

/// The saturating batch job: full participation (every permutation
/// prefix lands in every round's cohort) and a deep Monte-Carlo
/// budget, so its one mega-plan of distinct prefixes chunks into
/// thousands of queued pool jobs.
fn flood_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new("comfedsv-mc");
    spec.num_clients = Some(14);
    spec.samples_per_client = Some(16);
    spec.rounds = Some(6);
    spec.clients_per_round = Some(14);
    spec.permutations = 6_000;
    spec.class = JobClass::Batch;
    spec.seed = seed;
    spec
}

/// The small job whose latency is being measured. Sized so its cell
/// batches *do* fan out through the pool (≈ 93 cells per plan — above
/// the oracle's inline threshold), because an inline probe would never
/// wait on the queue under either policy.
fn probe_spec(class: JobClass, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new("fedsv");
    spec.num_clients = Some(8);
    spec.samples_per_client = Some(12);
    spec.rounds = Some(3);
    spec.clients_per_round = Some(5);
    spec.class = class;
    spec.seed = seed;
    spec
}

/// Keeps the pool saturated: submits a fresh flood whenever the current
/// one went terminal, and blocks until the queue actually holds a deep
/// backlog of the flood's chunk jobs (a flood spends part of its life
/// in build/train/completion phases where the queue is shallow; probes
/// must not be measured against an accidentally idle pool).
fn ensure_flood(manager: &JobManager, flood: &mut Option<Arc<Job>>, next_seed: &mut u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let needs_new = match flood {
            Some(job) => job.status().is_terminal(),
            None => true,
        };
        if needs_new {
            if let Some(job) = flood {
                assert_ne!(
                    job.status(),
                    JobStatus::Failed,
                    "flood job failed: {:?} — probes would measure an idle pool",
                    job.error()
                );
            }
            *next_seed += 1;
            *flood = Some(
                manager
                    .submit(flood_spec(*next_seed))
                    .expect("submit flood"),
            );
        }
        if manager.pool().get().queued_jobs() >= MIN_BACKLOG_JOBS {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "flood never built a backlog of {MIN_BACKLOG_JOBS} queued jobs"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Latency percentiles over one (policy, class) probe series.
struct ClassStats {
    class: JobClass,
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
}

/// Nearest-rank percentile of an unsorted sample.
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn measure_policy(policy: SchedPolicy, probes: usize) -> Vec<ClassStats> {
    let pool = PoolHandle::owned(Pool::with_policy(2, policy));
    let manager = JobManager::with_pool(pool);
    let mut flood: Option<Arc<Job>> = None;
    let mut flood_seed = 1_000;
    // One discarded warmup probe so neither policy's series pays the
    // process-wide one-time costs (lazy statics, page faults).
    ensure_flood(&manager, &mut flood, &mut flood_seed);
    manager
        .submit(probe_spec(JobClass::Interactive, 10_000))
        .expect("warmup probe")
        .wait();
    let mut stats = Vec::new();
    for class in [JobClass::Interactive, JobClass::Batch] {
        let mut latencies = Vec::with_capacity(probes);
        for i in 0..probes {
            ensure_flood(&manager, &mut flood, &mut flood_seed);
            let job = manager
                .submit(probe_spec(class, i as u64))
                .expect("submit probe");
            let status = job.wait();
            assert_eq!(status, JobStatus::Done, "probe failed: {:?}", job.error());
            latencies.push(job.total_ms());
        }
        stats.push(ClassStats {
            class,
            p50_ms: percentile(&latencies, 0.50),
            p99_ms: percentile(&latencies, 0.99),
            mean_ms: latencies.iter().sum::<f64>() / latencies.len() as f64,
        });
    }
    if let Some(job) = flood {
        job.cancel();
        job.wait();
    }
    stats
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let SmokeArgs {
        smoke,
        mode,
        out_path,
    } = SmokeArgs::parse(&args, "target/BENCH_service_latency.json");
    let probes = if smoke { SMOKE_PROBES } else { FULL_PROBES };

    println!("== service_load ({mode}): probe latency behind a batch flood, fifo vs fair ==");
    let mut results: Vec<(SchedPolicy, Vec<ClassStats>)> = Vec::new();
    for policy in [SchedPolicy::Fifo, SchedPolicy::FairShare] {
        let t0 = Instant::now();
        let stats = measure_policy(policy, probes);
        println!(
            "measured {policy} in {:.1}s ({probes} probes/class)",
            t0.elapsed().as_secs_f64()
        );
        results.push((policy, stats));
    }

    println!(
        "{:>6}  {:>12}  {:>10}  {:>10}  {:>10}",
        "policy", "class", "p50 ms", "p99 ms", "mean ms"
    );
    for (policy, stats) in &results {
        for s in stats {
            println!(
                "{:>6}  {:>12}  {:>10.1}  {:>10.1}  {:>10.1}",
                policy.name(),
                s.class.name(),
                s.p50_ms,
                s.p99_ms,
                s.mean_ms
            );
        }
    }

    let p99 = |policy: SchedPolicy, class: JobClass| -> f64 {
        results
            .iter()
            .find(|(p, _)| *p == policy)
            .and_then(|(_, stats)| stats.iter().find(|s| s.class == class))
            .map(|s| s.p99_ms)
            .expect("measured")
    };
    let speedup = p99(SchedPolicy::Fifo, JobClass::Interactive)
        / p99(SchedPolicy::FairShare, JobClass::Interactive);
    println!("interactive p99 speedup (fifo ÷ fair): {speedup:.1}x");

    let mut w = JsonWriter::new();
    w.begin_object();
    w.str_field("bench", "service_latency");
    w.str_field("mode", mode);
    w.u64_field("pool_threads", 2);
    w.u64_field("probes_per_class", probes as u64);
    w.begin_array_field("rows");
    for (policy, stats) in &results {
        for s in stats {
            w.begin_object_compact();
            w.str_field("policy", policy.name());
            w.str_field("class", s.class.name());
            w.num_field("p50_ms", s.p50_ms);
            w.num_field("p99_ms", s.p99_ms);
            w.num_field("mean_ms", s.mean_ms);
            w.end_object();
        }
    }
    w.end_array();
    w.num_field("interactive_p99_speedup", speedup);
    w.end_object();
    match std::fs::write(&out_path, w.finish()) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("json write failed: {e}"),
    }

    if smoke && speedup < MIN_INTERACTIVE_SPEEDUP {
        eprintln!(
            "FAIL: interactive p99 speedup {speedup:.1}x < required {MIN_INTERACTIVE_SPEEDUP}x"
        );
        std::process::exit(1);
    }
    println!("all service_load gates passed");
}
