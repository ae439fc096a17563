//! Cell-throughput benchmark: per-sample vs. batched numeric kernels,
//! at both determinism tiers.
//!
//! PRs 1 and 4 parallelized *dispatch*; PR 5 batched the compute inside
//! one utility cell; PR 6 added the [`DeterminismTier::Fast`] kernels.
//! For each model family this benchmark times the same workload three
//! ways:
//!
//! * **per_sample** — the retained pre-refactor reference loops
//!   (`loss_per_sample`/`grad_per_sample`: one example at a time, fresh
//!   `Vec` buffers per call);
//! * **batched / bit_exact** — the cache-blocked minibatch GEMM kernels
//!   with a reused [`fedval_models::Workspace`] pinned to
//!   [`DeterminismTier::BitExact`]. Results are asserted bit-identical
//!   to the per-sample path (the determinism contract, not a
//!   tolerance);
//! * **batched / fast** — the same kernels with the workspace pinned to
//!   [`DeterminismTier::Fast`]: FMA-fused, reduction-reordered GEMM
//!   microkernels and (for the CNN) im2col convolution. Results are
//!   asserted within a composite tolerance of the per-sample reference
//!   (per-op bounds: `fedval_linalg::gemm::fast_epsilon`).
//!
//! Workloads:
//!
//! * `*_train` — full-batch gradient-descent passes (the trainer's local
//!   update), samples/sec = `samples × passes / seconds`;
//! * `mlp_cell_loss` — repeated test-set loss evaluations (exactly what
//!   a utility-oracle cell costs), samples/sec likewise;
//! * `logistic_cell_loss` — the same for perfbench's cell (a logistic
//!   model, d=60, C=10, 160 test rows): the cold job's hot loop;
//! * `logistic_epilogue` — the row reductions over that cell's 160 × 10
//!   logits: the per-row `vector::log_sum_exp` loop against
//!   `vector::cross_entropy_rows` (one row per `f64` lane), asserted
//!   bit-identical. `cross_entropy_rows` is still the epilogue of the
//!   MLP and CNN losses and of every gradient, but the BitExact logistic
//!   cell no longer calls it (see `logistic_fused`). Reported, not
//!   gated. The epilogue is the same in both tiers, so it has no `fast`
//!   row;
//! * `logistic_fused` — that cell's whole BitExact loss after the
//!   parameters: its `per_sample` row times the three steps
//!   `gemm::gemm_nt_into`, `gemm::add_bias_rows` and
//!   `vector::cross_entropy_rows`, its `batched` row the one-pass
//!   `vector::linear_cross_entropy` the cell runs, asserted
//!   bit-identical. Reported, not gated; BitExact only.
//!
//! Output: an aligned table on stdout and machine-readable JSON written
//! to `target/BENCH_cell_throughput.json` (schema documented in the
//! `fedval_bench` crate docs, `src/lib.rs`). A reference smoke run is
//! committed at the repo root as `BENCH_cell_throughput.json` so future
//! PRs have a perf trajectory to regress against — update it
//! deliberately with `--out BENCH_cell_throughput.json`, not as a side
//! effect of every run. `--smoke` shrinks every workload for CI and
//! fails (exit ≠ 0) when a gated case's batched BitExact ÷ per-sample
//! `speedup`, measured within the same run, falls below
//! [`MIN_BATCHED_SPEEDUP`]. A smoke run also prints current-vs-committed
//! throughput ratios when the committed baseline is readable; those
//! compare runs on different hosts and host phases, so they are
//! informational and never fail.

use fedval_bench::smoke::{committed_rows, min_of, value_checksum, SmokeArgs};
use fedval_data::Dataset;
use fedval_jsonio::{scan_num, scan_str, JsonWriter};
use fedval_linalg::{gemm, vector, Matrix};
use fedval_models::{
    optim::SgdScratch, Activation, Cnn, CnnConfig, DeterminismTier, LogisticRegression, Mlp, Model,
};
use fedval_runtime::CancelToken;
use std::time::Instant;

/// `--smoke` fails when a [`GATED_CASES`] case's batched BitExact path
/// is less than this many times faster than its per-sample reference
/// in the same run. Both sides share the host and the moment, so the
/// ratio measures the kernels, not the machine.
const MIN_BATCHED_SPEEDUP: f64 = 1.2;

/// The cases the speed gate covers. `cnn_train` is reported but not
/// gated: its batched path runs at about the per-sample speed.
/// `logistic_epilogue` and `logistic_fused` are reported only: they
/// time kernels, not a model.
const GATED_CASES: [&str; 4] = [
    "mlp_train",
    "logistic_train",
    "mlp_cell_loss",
    "logistic_cell_loss",
];

/// One timed measurement.
struct Measurement {
    case: &'static str,
    path: &'static str,
    /// Tier label: the per-sample loops are inherently bit-exact, so
    /// their rows carry "bit_exact" too.
    tier: &'static str,
    samples: usize,
    passes: usize,
    seconds: f64,
    /// Bitwise checksum of the resulting parameters/losses. Equal
    /// between per_sample and batched/bit_exact; recorded (but
    /// tier-specific) for batched/fast.
    checksum: u64,
}

impl Measurement {
    fn samples_per_sec(&self) -> f64 {
        (self.samples * self.passes) as f64 / self.seconds.max(1e-12)
    }
}

fn synthetic(n: usize, dim: usize, classes: usize, seed: u64) -> Dataset {
    let f = Matrix::from_fn(n, dim, |r, c| {
        (((r + 1) * (c + 2) + seed as usize * 3) % 17) as f64 / 8.0 - 1.0
    });
    let labels: Vec<usize> = (0..n).map(|r| (r * 7 + seed as usize) % classes).collect();
    Dataset::new(f, labels, classes).unwrap()
}

/// Composite model-level tolerance for the Fast tier vs. the bit-exact
/// reference; the per-op GEMM ε (`fedval_linalg::gemm::fast_epsilon`)
/// is orders of magnitude tighter, but training compounds it over
/// passes. A genuine kernel bug shows up at ~1e-2.
fn assert_fast_close(case: &str, fast: &[f64], reference: &[f64]) {
    assert_eq!(fast.len(), reference.len());
    for (i, (a, b)) in fast.iter().zip(reference).enumerate() {
        assert!(
            (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
            "{case}: fast tier diverged at [{i}]: {a} vs {b}"
        );
    }
}

/// Times `passes` full-batch gradient steps with per-sample gradients.
fn train_per_sample<M: Model>(
    model: &mut M,
    grad_ref: impl Fn(&M, &Dataset, &mut [f64]) -> f64,
    data: &Dataset,
    eta: f64,
    passes: usize,
) -> f64 {
    let mut grad = vec![0.0; model.num_params()];
    let t0 = Instant::now();
    for _ in 0..passes {
        grad_ref(model, data, &mut grad);
        vector::axpy(-eta, &grad, model.params_mut());
    }
    t0.elapsed().as_secs_f64()
}

/// Times `passes` full-batch gradient steps through the batched kernels
/// with a reused workspace pinned to `tier`.
fn train_batched(
    model: &mut dyn Model,
    data: &Dataset,
    eta: f64,
    passes: usize,
    tier: DeterminismTier,
) -> f64 {
    let mut scratch = SgdScratch::new();
    scratch.ws.set_tier(tier);
    let mut grad = vec![0.0; model.num_params()];
    let t0 = Instant::now();
    for _ in 0..passes {
        model.grad_with(data, &mut grad, &mut scratch.ws);
        vector::axpy(-eta, &grad, model.params_mut());
    }
    t0.elapsed().as_secs_f64()
}

/// Timing repetitions per path; the fastest is reported, which screens
/// out scheduler noise on busy hosts (results are asserted identical
/// across repetitions anyway — training is deterministic per tier).
const REPS: usize = 3;

/// Times `reps` calls of `eval` and returns the seconds with the calls'
/// sum, accumulated from `0.0` in call order.
fn time_sum(reps: usize, mut eval: impl FnMut() -> f64) -> (f64, f64) {
    let t0 = Instant::now();
    let mut acc = 0.0;
    for _ in 0..reps {
        acc += eval();
    }
    (t0.elapsed().as_secs_f64(), acc)
}

fn push_train_case<M: Model + Clone>(
    out: &mut Vec<Measurement>,
    case: &'static str,
    proto: &M,
    grad_ref: impl Fn(&M, &Dataset, &mut [f64]) -> f64,
    data: &Dataset,
    passes: usize,
) {
    let eta = 0.05;
    let ([secs_ref, secs_exact, secs_fast], [reference, exact, fast]) = min_of(REPS, |_| {
        let mut reference = proto.clone();
        let secs_ref = train_per_sample(&mut reference, &grad_ref, data, eta, passes);
        let mut exact = proto.clone();
        let secs_exact = train_batched(&mut exact, data, eta, passes, DeterminismTier::BitExact);
        let mut fast = proto.clone();
        let secs_fast = train_batched(&mut fast, data, eta, passes, DeterminismTier::Fast);
        ([secs_ref, secs_exact, secs_fast], [reference, exact, fast])
    });
    let (ck_ref, ck_exact) = (
        value_checksum(reference.params()),
        value_checksum(exact.params()),
    );
    assert_eq!(
        ck_ref, ck_exact,
        "{case}: bit-exact batched training diverged from the per-sample reference"
    );
    assert_fast_close(case, fast.params(), reference.params());
    out.push(Measurement {
        case,
        path: "per_sample",
        tier: "bit_exact",
        samples: data.len(),
        passes,
        seconds: secs_ref,
        checksum: ck_ref,
    });
    out.push(Measurement {
        case,
        path: "batched",
        tier: "bit_exact",
        samples: data.len(),
        passes,
        seconds: secs_exact,
        checksum: ck_exact,
    });
    out.push(Measurement {
        case,
        path: "batched",
        tier: "fast",
        samples: data.len(),
        passes,
        seconds: secs_fast,
        checksum: value_checksum(fast.params()),
    });
}

/// Prints current-vs-committed samples/sec ratios for every `(case,
/// path, tier)` the committed smoke baseline also measured. Baselines
/// predating the `tier` field match their rows as `bit_exact`. The
/// ratios are informational: the committed run was made on another
/// host or in another host phase, so they never fail the run.
fn compare_against_committed(measurements: &[Measurement], baseline_path: &str) {
    let Some(rows) = committed_rows(baseline_path, "case") else {
        return;
    };
    println!(
        "\n== vs committed {baseline_path} (current ÷ committed samples/sec; informational, not gated) =="
    );
    let mut matched = Vec::new();
    for row in &rows {
        let (Some(case), Some(path)) = (scan_str(row, "case"), scan_str(row, "path")) else {
            continue;
        };
        let tier = scan_str(row, "tier").unwrap_or("bit_exact");
        let Some(committed) = scan_num(row, "samples_per_sec") else {
            continue;
        };
        if let Some(m) = measurements
            .iter()
            .find(|m| m.case == case && m.path == path && m.tier == tier)
        {
            matched.push((m.case, m.path, m.tier));
            println!(
                "{:>18}  {:>12}  {:>9}  {:>6.2}x  ({:.0} vs {:.0})",
                case,
                path,
                tier,
                m.samples_per_sec() / committed.max(1e-12),
                m.samples_per_sec(),
                committed
            );
        }
    }
    if matched.is_empty() {
        println!("(no comparable rows found in the committed baseline)");
    }
    for m in measurements {
        if !matched.contains(&(m.case, m.path, m.tier)) {
            println!(
                "{:>18}  {:>12}  {:>9}  (no committed row)",
                m.case, m.path, m.tier
            );
        }
    }
}

/// Times `reps` test-set loss evaluations on a fixed model three ways
/// (per-sample reference, batched BitExact, batched Fast); asserts the
/// BitExact sum bit-identical to the reference and Fast within tolerance.
fn push_loss_case<M: Model>(
    out: &mut Vec<Measurement>,
    case: &'static str,
    model: &M,
    loss_ref: impl Fn(&M, &Dataset) -> f64,
    data: &Dataset,
    reps: usize,
) {
    let mut ws_exact = fedval_models::Workspace::bit_exact();
    let mut ws_fast = fedval_models::Workspace::new().with_tier(DeterminismTier::Fast);
    let never = CancelToken::new();
    let loss_with = |ws: &mut fedval_models::Workspace| {
        model
            .loss_with(data, ws, &never)
            .expect("a fresh token is never cancelled")
    };
    let ([secs_exact, secs_fast, secs_ref], [acc_exact, acc_fast, acc_ref]) = min_of(REPS, |_| {
        let (secs_exact, acc_exact) = time_sum(reps, || loss_with(&mut ws_exact));
        let (secs_fast, acc_fast) = time_sum(reps, || loss_with(&mut ws_fast));
        let (secs_ref, acc_ref) = time_sum(reps, || loss_ref(model, data));
        (
            [secs_exact, secs_fast, secs_ref],
            [acc_exact, acc_fast, acc_ref],
        )
    });
    assert_eq!(
        acc_ref.to_bits(),
        acc_exact.to_bits(),
        "{case}: bit-exact batched loss diverged from the per-sample reference"
    );
    assert_fast_close(case, &[acc_fast], &[acc_ref]);
    for (path, tier, seconds, acc) in [
        ("per_sample", "bit_exact", secs_ref, acc_ref),
        ("batched", "bit_exact", secs_exact, acc_exact),
        ("batched", "fast", secs_fast, acc_fast),
    ] {
        out.push(Measurement {
            case,
            path,
            tier,
            samples: data.len(),
            passes: reps,
            seconds,
            checksum: acc.to_bits(),
        });
    }
}

/// Times `reps` evaluations of one cell's loss epilogue over row-major
/// `logits` two ways: the per-row loop of the per-sample path and the
/// row-per-lane [`vector::cross_entropy_rows`] of the batched one.
/// Asserts the sums bit-identical.
fn push_epilogue_case(
    out: &mut Vec<Measurement>,
    case: &'static str,
    logits: &[f64],
    labels: &[usize],
    reps: usize,
) {
    let classes = logits.len() / labels.len();
    let ([secs_rows, secs_lanes], [acc_rows, acc_lanes]) = min_of(REPS, |_| {
        let (secs_rows, acc_rows) = time_sum(reps, || {
            let logits = std::hint::black_box(logits);
            let mut total = 0.0;
            for (row, &y) in logits.chunks_exact(classes).zip(labels) {
                total += vector::log_sum_exp(row) - row[y];
            }
            total
        });
        let (secs_lanes, acc_lanes) = time_sum(reps, || {
            let logits = std::hint::black_box(logits);
            vector::cross_entropy_rows(logits, classes, labels, 0.0)
        });
        ([secs_rows, secs_lanes], [acc_rows, acc_lanes])
    });
    assert_eq!(
        acc_rows.to_bits(),
        acc_lanes.to_bits(),
        "{case}: the row-per-lane epilogue diverged from the per-row loop"
    );
    push_kernel_rows(
        out,
        case,
        labels.len(),
        reps,
        [(secs_rows, acc_rows), (secs_lanes, acc_lanes)],
    );
}

/// Records a kernel case's two BitExact rows: its reference as
/// `per_sample`, the kernel under test as `batched`, each as
/// `(seconds, summed result)`.
fn push_kernel_rows(
    out: &mut Vec<Measurement>,
    case: &'static str,
    samples: usize,
    passes: usize,
    [reference, kernel]: [(f64, f64); 2],
) {
    for (path, (seconds, acc)) in [("per_sample", reference), ("batched", kernel)] {
        out.push(Measurement {
            case,
            path,
            tier: "bit_exact",
            samples,
            passes,
            seconds,
            checksum: acc.to_bits(),
        });
    }
}

/// Times `reps` evaluations of a logistic cell's loss sum after its
/// parameters two ways: the three steps (logits GEMM, bias, row-per-lane
/// epilogue) against the one-pass [`vector::linear_cross_entropy`] on
/// the dataset's lane-packed rows, packed once as the cell packs them.
/// Asserts the sums bit-identical.
fn push_fused_case(
    out: &mut Vec<Measurement>,
    case: &'static str,
    model: &LogisticRegression,
    data: &Dataset,
    reps: usize,
) {
    let (classes, dim) = (model.num_classes(), model.dim());
    let (w, b) = model.params().split_at(classes * dim);
    let (x, labels) = (data.features().as_slice(), data.labels());
    let packed = data.packed_features();
    let mut logits = vec![0.0; labels.len() * classes];
    let mut scratch = gemm::Scratch::new();
    let ([secs_steps, secs_fused], [acc_steps, acc_fused]) = min_of(REPS, |_| {
        let (secs_steps, acc_steps) = time_sum(reps, || {
            let x = std::hint::black_box(x);
            gemm::gemm_nt_into(x, w, &mut logits, labels.len(), dim, classes, &mut scratch);
            gemm::add_bias_rows(&mut logits, classes, b);
            vector::cross_entropy_rows(&logits, classes, labels, 0.0)
        });
        let (secs_fused, acc_fused) = time_sum(reps, || {
            let packed = std::hint::black_box(packed);
            vector::linear_cross_entropy(packed, w, b, labels, 0.0)
        });
        ([secs_steps, secs_fused], [acc_steps, acc_fused])
    });
    assert_eq!(
        acc_steps.to_bits(),
        acc_fused.to_bits(),
        "{case}: the one-pass loss diverged from the three steps"
    );
    push_kernel_rows(
        out,
        case,
        labels.len(),
        reps,
        [(secs_steps, acc_steps), (secs_fused, acc_fused)],
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let SmokeArgs {
        smoke,
        mode,
        out_path,
    } = SmokeArgs::parse(&args, "target/BENCH_cell_throughput.json");

    // The MLP problem is MNIST-shaped ([784, 64, 10] — the paper's
    // "simple fully connected network"), so the wide input layer that
    // dominates a real cell evaluation dominates here too. Smoke sizes
    // keep CI under a minute.
    let (n, dim, hidden, classes, passes) = if smoke {
        (320, 784, 64, 10, 6)
    } else {
        (1024, 784, 64, 10, 10)
    };

    let mut measurements: Vec<Measurement> = Vec::new();

    // MLP training (the acceptance workload).
    let data = synthetic(n, dim, classes, 1);
    let mlp = Mlp::new(&[dim, hidden, classes], Activation::Relu, 0.01, 7);
    push_train_case(
        &mut measurements,
        "mlp_train",
        &mlp,
        |m: &Mlp, d, g| m.grad_per_sample(d, g),
        &data,
        passes,
    );

    // Logistic-regression training.
    let logreg = LogisticRegression::new(dim, classes, 0.01, 7);
    push_train_case(
        &mut measurements,
        "logistic_train",
        &logreg,
        |m: &LogisticRegression, d, g| m.grad_per_sample(d, g),
        &data,
        passes,
    );

    // CNN training. Sized so every timed path runs ≥50 ms on a 1-core
    // container — the pre-PR-6 smoke case (96 samples × 2 passes) ran
    // in ~0.5 ms, pure timer noise.
    let (img, cnn_n, cnn_passes) = if smoke { (8, 2048, 50) } else { (12, 2048, 50) };
    let cnn_data = synthetic(cnn_n, img * img, 4, 2);
    let cnn = Cnn::new(CnnConfig::small(img, img, 4), 7);
    push_train_case(
        &mut measurements,
        "cnn_train",
        &cnn,
        |m: &Cnn, d, g| m.grad_per_sample(d, g),
        &cnn_data,
        cnn_passes,
    );

    // Oracle-cell loss: repeated test-set evaluations on a fixed model.
    push_loss_case(
        &mut measurements,
        "mlp_cell_loss",
        &mlp,
        Mlp::loss_per_sample,
        &data,
        passes * 4,
    );

    // The benchmark's cell: a logistic model over perfbench's world
    // (d=60, C=10, 160 test rows), so every cell's logits are one narrow
    // 160×60×10 BitExact GEMM.
    let cell_test = synthetic(160, 60, 10, 3);
    let cell_model = LogisticRegression::new(60, 10, 0.01, 7);
    push_loss_case(
        &mut measurements,
        "logistic_cell_loss",
        &cell_model,
        LogisticRegression::loss_per_sample,
        &cell_test,
        passes * 100,
    );

    // That cell's loss epilogue alone, on the model's 160 × 10 logits
    // (`W x + b` per row, from the parameter layout `[W; b]`).
    let (w, b) = cell_model.params().split_at(10 * 60);
    let cell_logits: Vec<f64> = (0..cell_test.len())
        .flat_map(|r| {
            let x = cell_test.example(r).0;
            (0..10).map(move |k| vector::dot(x, &w[k * 60..(k + 1) * 60]) + b[k])
        })
        .collect();
    push_epilogue_case(
        &mut measurements,
        "logistic_epilogue",
        &cell_logits,
        cell_test.labels(),
        passes * 100,
    );
    push_fused_case(
        &mut measurements,
        "logistic_fused",
        &cell_model,
        &cell_test,
        passes * 100,
    );

    // Report.
    println!(
        "== cell throughput ({mode}): per-sample vs batched kernels (pool width {}) ==",
        fedval_runtime::Pool::global_width()
    );
    println!(
        "kernel dispatch: bit_exact -> {}, fast -> {}, fused loss -> {}",
        fedval_linalg::cpu::kernel_isa(DeterminismTier::BitExact),
        fedval_linalg::cpu::kernel_isa(DeterminismTier::Fast),
        fedval_linalg::cpu::fused_isa()
    );
    println!(
        "{:>18}  {:>12}  {:>9}  {:>10}  {:>10}  {:>14}",
        "case", "path", "tier", "samples", "seconds", "samples/sec"
    );
    for m in &measurements {
        println!(
            "{:>18}  {:>12}  {:>9}  {:>10}  {:>10.4}  {:>14.0}",
            m.case,
            m.path,
            m.tier,
            m.samples * m.passes,
            m.seconds,
            m.samples_per_sec()
        );
    }

    let cases: Vec<&'static str> = {
        let mut seen = Vec::new();
        for m in &measurements {
            if !seen.contains(&m.case) {
                seen.push(m.case);
            }
        }
        seen
    };
    let find = |case: &str, path: &str, tier: &str| {
        measurements
            .iter()
            .find(|m| m.case == case && m.path == path && m.tier == tier)
    };
    let mut speedups: Vec<(String, f64, Option<f64>)> = Vec::new();
    println!();
    for case in &cases {
        let per_sample = find(case, "per_sample", "bit_exact").expect("every case has both");
        let exact = find(case, "batched", "bit_exact").expect("every case has both");
        let speedup = exact.samples_per_sec() / per_sample.samples_per_sec().max(1e-12);
        let speedup_fast = find(case, "batched", "fast")
            .map(|fast| fast.samples_per_sec() / per_sample.samples_per_sec().max(1e-12));
        let gate = if GATED_CASES.contains(case) {
            format!("gated: >= {MIN_BATCHED_SPEEDUP}x")
        } else {
            "not gated".to_string()
        };
        let fast = speedup_fast.map_or(String::new(), |x| format!(", fast {x:.2}x (within ε)"));
        println!(
            "{case}: batched bit_exact {speedup:.2}x (bit-identical; {gate}){fast} the \
             per-sample path"
        );
        speedups.push((case.to_string(), speedup, speedup_fast));
    }

    if smoke {
        compare_against_committed(&measurements, "BENCH_cell_throughput.json");
    }

    // Machine-readable JSON (schema: fedval_bench crate docs).
    let mut w = JsonWriter::new();
    w.begin_object();
    w.str_field("bench", "cell_throughput");
    w.str_field("mode", mode);
    w.u64_field("pool_threads", fedval_runtime::Pool::global_width() as u64);
    w.str_field("fused_isa", fedval_linalg::cpu::fused_isa().name());
    w.begin_array_field("cases");
    for m in &measurements {
        w.begin_object_compact();
        w.str_field("case", m.case);
        w.str_field("path", m.path);
        w.str_field("tier", m.tier);
        w.u64_field("samples", m.samples as u64);
        w.u64_field("passes", m.passes as u64);
        w.num_field("seconds", m.seconds);
        w.num_field("samples_per_sec", m.samples_per_sec());
        w.str_field("checksum", &format!("{:016x}", m.checksum));
        w.end_object();
    }
    w.end_array();
    w.begin_object_field_compact("speedup");
    for (case, speedup, _) in &speedups {
        w.num_field(case, *speedup);
    }
    w.end_object();
    w.begin_object_field_compact("speedup_fast");
    for (case, _, speedup_fast) in &speedups {
        if let Some(speedup_fast) = speedup_fast {
            w.num_field(case, *speedup_fast);
        }
    }
    w.end_object();
    w.end_object();
    match std::fs::write(&out_path, w.finish()) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\njson write failed: {e}"),
    }

    if smoke {
        let slow: Vec<String> = speedups
            .iter()
            .filter(|(case, speedup, _)| {
                GATED_CASES.contains(&case.as_str()) && *speedup < MIN_BATCHED_SPEEDUP
            })
            .map(|(case, speedup, _)| format!("{case} {speedup:.2}x"))
            .collect();
        if !slow.is_empty() {
            eprintln!(
                "FAIL: batched bit_exact speedup below {MIN_BATCHED_SPEEDUP}x: {}",
                slow.join(", ")
            );
            std::process::exit(1);
        }
        println!("all cell_throughput gates passed");
    }
}
