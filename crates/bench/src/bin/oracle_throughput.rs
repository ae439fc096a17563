//! Oracle-throughput benchmark: serial vs. parallel batch evaluation.
//!
//! Runs the Fig.-8-style workload — the Monte-Carlo ComFedSV pipeline,
//! whose cost is dominated by test-loss evaluations of `U_t(S)` — once
//! per requested oracle thread count (the oracle's parallelism, which
//! caps the workers a batch fans out to on the global pool), and
//! reports wall time, loss-evaluation counts, and the speedup over the
//! first count. It also *asserts* that the valuations are bit-identical
//! across thread counts: parallelism must never change the numbers.
//! At 1 the pool runs each batch inline on the calling thread, which is
//! the oracle's only serial path.
//!
//! Thread counts default to `1,2,4` and the host parallelism; override
//! with `--threads 1,4,8`. The global pool's width is the hardware
//! parallelism, or `FEDVAL_THREADS` when that is one positive integer;
//! counts above it queue. On a single-hardware-thread host the speedup
//! is necessarily ~1× — the point of the benchmark is to show the ≥2×
//! scaling at 4 threads on real multi-core hardware and to guard the
//! determinism contract everywhere.

use comfedsv::experiments::ExperimentBuilder;
use fedval_bench::smoke::flag_value;
use fedval_bench::{profile, write_csv};
use fedval_fl::FlConfig;
use fedval_shapley::{ComFedSv, EstimatorKind};
use std::time::Instant;

fn thread_counts() -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(spec) = flag_value(&args, "--threads") {
        let parsed: Vec<usize> = spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
        eprintln!(
            "oracle_throughput: --threads {spec:?} lists no positive count; using the defaults"
        );
    }
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, 4, host];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn main() {
    let prof = profile();
    // Fig.-8 shape: MLP on simulated MNIST (loss evaluation is the
    // dominant cost), 30% participation, Monte-Carlo estimator.
    let n = 20;
    let rounds = prof.short_rounds;
    let k = (n * 3 / 10).max(2);
    let world = ExperimentBuilder::sim_mnist(false)
        .num_clients(n)
        .samples_per_client(prof.samples_per_client.min(50))
        .test_samples(prof.test_samples.max(150))
        .seed(9)
        .build();
    let trace = world.train(&FlConfig::new(rounds, k, 0.2, 9));
    let m = ((n as f64) * (n as f64).ln()).ceil() as usize / 2 + 1;
    let config = ComFedSv {
        rank: 6,
        lambda: 0.01,
        estimator: EstimatorKind::MonteCarlo {
            num_permutations: m,
        },
        als_max_iters: 30,
        solver: Default::default(),
        seed: 2,
    };

    println!(
        "== oracle throughput: MC ComFedSV pipeline, N={n}, T={rounds}, K={k}, M={m}, \
         global pool {} threads ==",
        fedval_runtime::Pool::global_width()
    );
    println!(
        "{:>8}  {:>12}  {:>10}  {:>12}",
        "threads", "seconds", "speedup", "loss evals"
    );

    let mut baseline: Option<(f64, Vec<f64>)> = None;
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for threads in thread_counts() {
        let oracle = world.oracle(&trace).with_parallelism(threads);
        oracle.reset_counter();
        let t0 = Instant::now();
        let out = config.run(&oracle).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        let calls = oracle.loss_evaluations();

        let speedup = match &baseline {
            None => {
                baseline = Some((secs, out.values.clone()));
                1.0
            }
            Some((serial_secs, serial_values)) => {
                for (i, (a, b)) in serial_values.iter().zip(&out.values).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "client {i}: valuation diverged at {threads} threads ({a} vs {b})"
                    );
                }
                serial_secs / secs.max(1e-12)
            }
        };
        println!("{threads:>8}  {secs:>12.3}  {speedup:>9.2}x  {calls:>12}");
        csv_rows.push(vec![
            threads.to_string(),
            format!("{secs}"),
            format!("{speedup}"),
            calls.to_string(),
        ]);
    }
    println!("(valuations verified bit-identical across all thread counts)");
    match write_csv(
        "oracle_throughput",
        &["threads", "seconds", "speedup", "loss_evaluations"],
        &csv_rows,
    ) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
