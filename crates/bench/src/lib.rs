//! Benchmark and figure-regeneration harnesses for the ComFedSV paper.
//!
//! Every figure in the paper's evaluation has a binary here (`fig1` …
//! `fig8`, `example1`) that prints the corresponding series as aligned
//! text and CSV. The gated smoke binaries (`cell_throughput`,
//! `robustness`, `service_load`, `cache_effect`, `chaos`) measure the
//! kernels, detection quality, scheduling, caching and crash safety
//! behind each experiment; their shared command-line and checksum
//! helpers live in [`mod@smoke`].
//!
//! Set `FEDVAL_PROFILE=quick|default|paper` to trade fidelity for runtime;
//! see [`mod@profile`].
//!
//! # `BENCH_cell_throughput.json` schema
//!
//! The `cell_throughput` binary (per-sample vs. batched kernel
//! throughput at both determinism tiers; `--smoke` for the CI-sized
//! run) writes a JSON object to `target/BENCH_cell_throughput.json` by
//! default; the committed repo-root `BENCH_cell_throughput.json` is the
//! reference smoke run for perf-trajectory tracking, refreshed
//! deliberately via `--out BENCH_cell_throughput.json`. A `--smoke` run
//! fails (exit ≠ 0) if the same-run `speedup` of `mlp_train`,
//! `logistic_train`, `mlp_cell_loss` or `logistic_cell_loss` falls
//! below 1.2× (`cnn_train` is reported, not gated), and prints current ÷
//! committed throughput ratios per row for information only:
//!
//! ```json
//! {
//!   "bench": "cell_throughput",
//!   "mode": "smoke" | "full",
//!   "pool_threads": 1,
//!   "fused_isa": "scalar" | "avx2+fma" | "avx512+fma", // the loss kernels'
//!                              // instantiation (fedval_linalg::cpu::fused_isa)
//!   "cases": [
//!     {
//!       "case": "mlp_train" | "logistic_train" | "cnn_train" | "mlp_cell_loss"
//!             | "logistic_cell_loss",
//!       "path": "per_sample" | "batched",
//!       "tier": "bit_exact" | "fast", // per_sample rows are always "bit_exact"
//!       "samples": 320,            // examples per pass
//!       "passes": 6,               // training passes / loss repetitions
//!       "seconds": 0.0123,         // wall-clock for samples × passes
//!       "samples_per_sec": 156097.5,
//!       "checksum": "1a2b…"        // bitwise result checksum; equal between
//!                                  // per_sample and batched bit_exact rows
//!     }
//!   ],
//!   "speedup":      { "<case>": 2.1, … },  // batched bit_exact ÷ per_sample samples/sec
//!   "speedup_fast": { "<case>": 4.2, … }   // batched fast ÷ per_sample samples/sec
//! }
//! ```
//!
//! Per case, the batched bit_exact path is asserted bit-identical to the
//! per-sample path before the file is written (so `speedup` is pure
//! kernel speed — allocation + cache + SIMD, not a numerical
//! trade-off), and the batched fast path is asserted within the
//! documented tolerance of the reference (so `speedup_fast` additionally
//! buys FMA fusion and reduction reordering at bounded ε — see
//! `fedval_linalg::DeterminismTier`).
//!
//! # `BENCH_robustness.json` schema
//!
//! The `robustness` binary runs every valuation method over every
//! adversarial-client [`Scenario`](comfedsv::experiments::Scenario) and
//! scores the per-client values as a bad-client detector. It writes
//! `target/BENCH_robustness.json` by default; the committed repo-root
//! `BENCH_robustness.json` is the reference full run (everything is
//! seeded, so smoke rows are bit-identical to the corresponding full
//! rows), refreshed deliberately via `--out BENCH_robustness.json`. A
//! `--smoke` run covers the CI subset (free_riders + noisy_labels ×
//! comfedsv/fedsv/tmc) and fails on AUC regressions beyond a 0.05
//! one-sided tolerance; every run fails if ComFedSV's AUC drops below
//! 0.9 on `free_riders` or `noisy_labels`:
//!
//! ```json
//! {
//!   "bench": "robustness",
//!   "mode": "smoke" | "full",
//!   "seed": 17,
//!   "rows": [
//!     {
//!       "scenario": "iid_baseline" | "dirichlet_skew" | "noisy_labels"
//!                 | "free_riders" | "stragglers" | "churn" | "mixed",
//!       "method": "exact" | "fedsv" | "fedsv-mc" | "comfedsv"
//!               | "comfedsv-mc" | "tmc" | "group-testing",
//!       "bad_clients": 2,          // injected bad clients (k)
//!       "auc": 1.0,                // detection ROC-AUC; null when k = 0
//!       "precision_at_k": 1.0,     // bottom-k hit rate; null when k = 0
//!       "cells_evaluated": 472,    // standalone oracle cost (isolated runs)
//!       "seconds": 0.02            // wall-clock for the valuation
//!     }
//!   ]
//! }
//! ```
//!
//! # `BENCH_service_latency.json` schema
//!
//! The `service_load` binary measures multi-tenant probe latency through
//! `fedval_service`: per scheduling policy it keeps a saturating batch
//! flood running on an owned two-worker pool, submits a series of small
//! probe jobs per class, and records submit → terminal latency. It
//! writes `target/BENCH_service_latency.json` by default; the committed
//! repo-root `BENCH_service_latency.json` is the reference full run,
//! refreshed deliberately via `--out BENCH_service_latency.json`. A
//! `--smoke` run shrinks the probe count and fails (exit ≠ 0) if the
//! interactive p99 speedup falls below 5×:
//!
//! ```json
//! {
//!   "bench": "service_latency",
//!   "mode": "smoke" | "full",
//!   "pool_threads": 2,
//!   "probes_per_class": 12,
//!   "rows": [
//!     {
//!       "policy": "fifo" | "fair",
//!       "class": "interactive" | "batch",
//!       "p50_ms": 32.8,            // nearest-rank percentiles of
//!       "p99_ms": 56.0,            // submit → terminal latency
//!       "mean_ms": 36.8
//!     }
//!   ],
//!   "interactive_p99_speedup": 68.8  // fifo p99 ÷ fair p99, interactive class
//! }
//! ```
//!
//! Probe results are bit-identical across policies (the scheduler only
//! reorders work); the related `pool_overhead` binary reports the
//! scheduler's own cost — queue-wait mean/p99 per policy on an idle
//! pool — as `target/figures/pool_queue_wait.csv`.
//!
//! # `BENCH_cache.json` schema
//!
//! The `cache_effect` binary measures repeat-valuation latency through
//! the real `fedval_service::JobManager` with a disk-backed
//! `fedval_cache::CellCache`: one cold run (train + evaluate every
//! cell) versus warm repeats served by the world memo and the shared
//! cache, both in-process and across a process restart (the binary
//! re-spawns itself twice against one cache directory for the
//! cross-process leg). It writes `target/BENCH_cache.json` by default;
//! the committed repo-root `BENCH_cache.json` is the reference full
//! run, refreshed deliberately via `--out BENCH_cache.json`. A
//! `--smoke` run shrinks repetitions and fails (exit ≠ 0) if the
//! in-process warm speedup falls below 10×:
//!
//! ```json
//! {
//!   "bench": "cache_effect",
//!   "mode": "smoke" | "full",
//!   "pool_threads": 2,
//!   "method": "exact",            // gated leg: run time ≈ pure cell work
//!   "cells_cold": 40950,          // cells the cold run computed
//!   "in_process": {
//!     "cold_ms": 1590.3,          // first job: trains + computes all cells
//!     "warm_ms": 15.0,            // min over repeats: memoized world, all hits
//!     "speedup": 106.1,           // the gated number (≥10× in --smoke)
//!     "warm_cell_hits": 40950
//!   },
//!   "in_process_comfedsv": {      // informational, not gated: comfedsv's
//!     "cold_ms": 253.3,           // warm floor is its matrix-completion
//!     "warm_ms": 69.4,            // solve, which caching cannot remove
//!     "speedup": 3.7
//!   },
//!   "cross_process": {
//!     "cold_ms": 1724.2,          // child 1: empty cache directory
//!     "warm_ms": 45.6,            // child 2: rehydrates the persisted trace,
//!     "speedup": 37.8,            //          loads all cells from disk
//!     "disk_warm_cells": 40950
//!   },
//!   "warm_speedup": 106.1         // = in_process.speedup (the CI gate)
//! }
//! ```
//!
//! Values are asserted bit-identical between every cold/warm pair
//! before any number is written (in-process directly, cross-process via
//! an order-sensitive checksum of the value bits), so every speedup is
//! pure caching — never a numerical shortcut.
//!
//! # The `chaos` binary
//!
//! `chaos` emits no JSON baseline — it is a pass/fail fault-injection
//! harness for the crash-safety contract. Each scenario computes a
//! clean-run value checksum, injects a fault (SIGKILL mid-spill or
//! mid-training, two same-directory writer processes, truncated and
//! bit-flipped segments/traces, a planted stale temp file, an unusable
//! cache directory, a SIGTERM drain of the real `fedval_serve`
//! binary), then asserts the recovered valuation is bit-identical to
//! the baseline, corruption is counted in `corrupt_events` rather than
//! trusted, and exactly one process trains a shared world. `--smoke`
//! runs the kill + writer-race scenarios; `--sigterm-smoke` runs the
//! serve drain; no flags runs everything. Exit ≠ 0 on any violation.

pub mod fairness_trials;
pub mod profile;
pub mod report;
pub mod smoke;

pub use fairness_trials::{run_fairness_trials, FairnessTrialResult};
pub use profile::{profile, Profile};
pub use report::{print_series, write_csv};
