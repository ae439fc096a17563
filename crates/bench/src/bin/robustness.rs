//! Robustness harness: every valuation method against every
//! adversarial-client scenario, scored as a bad-client detector.
//!
//! For each [`Scenario`] in the catalog (see `comfedsv::experiments`)
//! this binary builds the world at a fixed seed, trains FedAvg with the
//! scenario's behaviors, runs every registered valuation method over the
//! recorded trace, and scores the resulting per-client values against
//! the scenario's ground-truth bad-client labels with
//! [`detection_auc`] and [`precision_at_k`] (k = number of injected bad
//! clients). Scenarios without bad clients (`iid_baseline`,
//! `dirichlet_skew`) still run — their rows carry `null` detection
//! fields and exist to track how the methods behave on benign worlds.
//!
//! Output: an aligned table on stdout and machine-readable JSON written
//! to `target/BENCH_robustness.json` (schema in the `fedval_bench` crate
//! docs, `src/lib.rs`). A reference run is committed at the repo root as
//! `BENCH_robustness.json` so future PRs have a detection-quality
//! trajectory to regress against — refresh it deliberately with
//! `--out BENCH_robustness.json`. `--smoke` runs the CI subset
//! (free_riders + noisy_labels × comfedsv/fedsv/tmc) and fails if any
//! AUC drops more than [`SMOKE_TOLERANCE`] below the committed baseline;
//! because everything here is seeded and deterministic, the smoke rows
//! are bit-for-bit the corresponding full-run rows.
//!
//! Independent of mode, the run fails (exit ≠ 0) if ComFedSV's AUC falls
//! below [`COMFEDSV_AUC_FLOOR`] on the `free_riders` or `noisy_labels`
//! scenarios — the acceptance gate for the method the paper proposes.

use comfedsv::experiments::Scenario;
use fedval_bench::smoke::{committed_rows, SmokeArgs};
use fedval_jsonio::{scan_num, scan_str, JsonWriter};
use fedval_metrics::{detection_auc, precision_at_k};
use fedval_shapley::ValuationSession;
use std::time::Instant;

/// Seed for every world build and training run.
const SEED: u64 = 17;

/// Minimum ComFedSV detection AUC on the headline adversarial scenarios.
const COMFEDSV_AUC_FLOOR: f64 = 0.9;

/// How far below the committed baseline a smoke-run AUC may fall before
/// the run fails (one-sided: improvements always pass).
const SMOKE_TOLERANCE: f64 = 0.05;

/// Scenario subset exercised by `--smoke`.
const SMOKE_SCENARIOS: [&str; 2] = ["free_riders", "noisy_labels"];

/// Method subset exercised by `--smoke`.
const SMOKE_METHODS: [&str; 3] = ["comfedsv", "fedsv", "tmc"];

/// One (scenario, method) measurement.
struct Row {
    scenario: String,
    method: String,
    bad_clients: usize,
    /// `None` for scenarios without bad clients, where detection is
    /// undefined.
    auc: Option<f64>,
    precision: Option<f64>,
    cells_evaluated: u64,
    seconds: f64,
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let SmokeArgs {
        smoke,
        mode,
        out_path,
    } = SmokeArgs::parse(&args, "target/BENCH_robustness.json");

    let scenarios: Vec<Scenario> = Scenario::catalog()
        .into_iter()
        .filter(|s| !smoke || SMOKE_SCENARIOS.contains(&s.name))
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    println!("== robustness ({mode}): valuation methods as bad-client detectors (seed {SEED}) ==");
    for scenario in &scenarios {
        let world = scenario.build(SEED);
        let trace = world.train(&scenario.fl_config(SEED));
        let oracle = world.oracle(&trace);
        let bad = scenario.bad_clients();
        let k = scenario.num_bad();

        // Fresh session per scenario; isolated runs give every method a
        // fresh oracle cache, so `cells_evaluated` is its standalone cost.
        let mut session = ValuationSession::builder()
            .rank(4)
            .permutations(80)
            .samples(200)
            .seed(SEED)
            .isolated_runs(true)
            .build();
        let methods: Vec<String> = session
            .method_names()
            .into_iter()
            .filter(|m| !smoke || SMOKE_METHODS.contains(&m.as_str()))
            .collect();

        for method in &methods {
            let t0 = Instant::now();
            let report = match session.run(method, &oracle) {
                Ok(r) => r,
                Err(e) => {
                    // No built-in method should reject an 8-client
                    // oracle; surface it loudly rather than skipping.
                    eprintln!("{}/{method}: {e}", scenario.name);
                    std::process::exit(1);
                }
            };
            let seconds = t0.elapsed().as_secs_f64();
            let (auc, precision) = if k > 0 {
                let auc = detection_auc(&report.values, &bad)
                    .unwrap_or_else(|e| panic!("{}/{method}: {e}", scenario.name));
                let precision = precision_at_k(&report.values, &bad, k)
                    .unwrap_or_else(|e| panic!("{}/{method}: {e}", scenario.name));
                (Some(auc), Some(precision))
            } else {
                (None, None)
            };
            rows.push(Row {
                scenario: scenario.name.to_string(),
                method: method.clone(),
                bad_clients: k,
                auc,
                precision,
                cells_evaluated: report.diagnostics.cells_evaluated,
                seconds,
            });
        }
    }

    println!(
        "{:>16}  {:>14}  {:>4}  {:>7}  {:>7}  {:>8}  {:>8}",
        "scenario", "method", "bad", "auc", "prec@k", "cells", "seconds"
    );
    for r in &rows {
        println!(
            "{:>16}  {:>14}  {:>4}  {:>7}  {:>7}  {:>8}  {:>8.3}",
            r.scenario,
            r.method,
            r.bad_clients,
            fmt_opt(r.auc),
            fmt_opt(r.precision),
            r.cells_evaluated,
            r.seconds
        );
    }

    // Acceptance gate: the paper's method must detect the headline
    // adversaries.
    let mut failures: Vec<String> = Vec::new();
    for scenario in SMOKE_SCENARIOS {
        if let Some(r) = rows
            .iter()
            .find(|r| r.scenario == scenario && r.method == "comfedsv")
        {
            let auc = r.auc.expect("adversarial scenarios have bad clients");
            if auc < COMFEDSV_AUC_FLOOR {
                failures.push(format!(
                    "comfedsv AUC {auc:.3} < {COMFEDSV_AUC_FLOOR} on {scenario}"
                ));
            }
        }
    }

    if smoke {
        failures.extend(compare_against_committed(&rows, "BENCH_robustness.json"));
    }

    write_json(&rows, mode, &out_path);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("all robustness gates passed");
}

/// Compares smoke AUCs against the committed baseline; returns failure
/// messages for any (scenario, method) whose AUC regressed by more than
/// [`SMOKE_TOLERANCE`].
fn compare_against_committed(rows: &[Row], baseline_path: &str) -> Vec<String> {
    let Some(lines) = committed_rows(baseline_path, "scenario") else {
        return Vec::new();
    };
    println!("\n== vs committed {baseline_path} (AUC, current vs committed) ==");
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for line in &lines {
        let (Some(scenario), Some(method)) = (scan_str(line, "scenario"), scan_str(line, "method"))
        else {
            continue;
        };
        // `null` AUCs (benign scenarios) scan as None and are skipped.
        let Some(committed) = scan_num(line, "auc") else {
            continue;
        };
        let Some(current) = rows
            .iter()
            .find(|r| r.scenario == scenario && r.method == method)
            .and_then(|r| r.auc)
        else {
            continue;
        };
        matched += 1;
        let status = if current + SMOKE_TOLERANCE < committed {
            failures.push(format!(
                "{scenario}/{method}: AUC {current:.3} dropped more than {SMOKE_TOLERANCE} \
                 below committed {committed:.3}"
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        println!("{scenario:>16}  {method:>14}  {current:.3} vs {committed:.3}  {status}");
    }
    if matched == 0 {
        println!("(no comparable rows found in the committed baseline)");
    }
    failures
}

fn write_json(rows: &[Row], mode: &str, out_path: &str) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.str_field("bench", "robustness");
    w.str_field("mode", mode);
    w.u64_field("seed", SEED);
    w.begin_array_field("rows");
    for r in rows {
        w.begin_object_compact();
        w.str_field("scenario", &r.scenario);
        w.str_field("method", &r.method);
        w.u64_field("bad_clients", r.bad_clients as u64);
        w.opt_num_field("auc", r.auc);
        w.opt_num_field("precision_at_k", r.precision);
        w.u64_field("cells_evaluated", r.cells_evaluated);
        w.num_field("seconds", r.seconds);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    match std::fs::write(out_path, w.finish()) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => eprintln!("\njson write failed: {e}"),
    }
}
