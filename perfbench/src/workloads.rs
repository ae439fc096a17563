//! The workloads, their output checks, and the metrics they
//! report.
//!
//! Every workload is one closed-loop client with one job in flight on a
//! `JobManager` over the process's single global pool (one worker; see
//! `main`). A workload uses one job kind, so its latency percentiles are
//! percentiles of one distribution.

use crate::expected;
use crate::replay::{Layers, Shadow};
use crate::stats::{self, median, quantile, value_checksum};
use crate::{Args, WorkDir};
use fedval_cache::CellCache;
use fedval_runtime::PoolHandle;
use fedval_service::{JobCacheInfo, JobManager, JobSpec, JobStatus};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// "comfedsv-mc" on worlds no cache has seen: build, train, compute
    /// every cell, spill, solve, estimate.
    ColdValue,
    /// The same jobs again on one manager: world memo and every cell hit.
    WarmRevalue,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cold_value" => Some(Workload::ColdValue),
            "warm_revalue" => Some(Workload::WarmRevalue),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdValue => "cold_value",
            Workload::WarmRevalue => "warm_revalue",
        }
    }
}

/// Worlds `cold_value` cycles through per pass.
const COLD_WORLDS: u64 = 3;
/// Measured passes of `cold_value` after each setup.
const COLD_PASSES_PER_SETUP: usize = 3;
/// Worlds `warm_revalue` fills and then re-values.
const WARM_WORLDS: u64 = 2;
/// Measured jobs on each filled `warm_revalue` manager. A manager keeps
/// every finished job, so a fixed count bounds its memory whatever the
/// throughput.
const WARM_JOBS_PER_SETUP: usize = 60;

/// The `i`-th world seed derived from the run's `--seed`.
pub fn world_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(10).wrapping_add(i)
}

/// The job of both workloads: ComFedSV-MC at N=40, T=10,
/// 20 clients per round, 40 samples per client, 80 permutations, rank 4.
pub fn mc_spec(world_seed: u64) -> JobSpec {
    let mut spec = JobSpec::new("comfedsv-mc");
    spec.num_clients = Some(40);
    spec.samples_per_client = Some(40);
    spec.rounds = Some(10);
    spec.clients_per_round = Some(20);
    spec.permutations = 80;
    spec.rank = 4;
    spec.seed = world_seed;
    spec
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Failed checks (also counted in `failed` when tied to a job).
    pub problems: Vec<String>,
}

/// What a job's cache counters must show.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Trained here, every planned cell computed, nothing hit.
    Cold,
    /// World memo reused, every planned cell hit, nothing computed.
    Warm,
}

/// A checked, completed job as the client saw it.
struct Finished {
    latency_ms: f64,
    queued_ms: f64,
    run_ms: f64,
    values: Vec<f64>,
    info: JobCacheInfo,
}

/// What every later job of a spec is checked against: the value
/// checksum and the planned cell count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Reference {
    checksum: u64,
    cells: u64,
}

/// One traced job: the client's view plus the replay's layers.
struct Sample {
    latency_ms: f64,
    queued_ms: f64,
    run_ms: f64,
    disk_warm_cells: u64,
    layers: Layers,
}

struct Bench<'a> {
    args: &'a Args,
    work: &'a WorkDir,
    specs: Vec<JobSpec>,
    refs: Vec<Option<Reference>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    setup_s: Vec<f64>,
    latencies: Vec<f64>,
    /// Traced runs: samples per spec index.
    samples: Vec<Vec<Sample>>,
    /// Wall time of the measured phase's finished stretches, and the
    /// start of the current one.
    measured_s: f64,
    stretch_start: Instant,
}

/// Whether any of this process's threads is a manager job thread
/// (named `fedval-job-<id>`).
fn job_threads_alive() -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    tasks.filter_map(|t| t.ok()).any(|t| {
        std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with("fedval-job"))
    })
}

fn manager_over(dir: &Path) -> JobManager {
    JobManager::with_pool_and_cache(
        PoolHandle::Global,
        CellCache::with_dir(fedval_cache::DEFAULT_MEM_BUDGET_BYTES, dir),
    )
}

impl<'a> Bench<'a> {
    fn new(args: &'a Args, work: &'a WorkDir, specs: Vec<JobSpec>) -> Self {
        let refs = specs
            .iter()
            .map(|spec| {
                if args.seed != expected::DEFAULT_SEED {
                    return None;
                }
                expected::pinned(&spec.method, spec.seed)
                    .map(|(checksum, cells)| Reference { checksum, cells })
            })
            .collect();
        let samples = specs.iter().map(|_| Vec::new()).collect();
        Bench {
            args,
            work,
            specs,
            refs,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            setup_s: Vec::new(),
            latencies: Vec::new(),
            samples,
            measured_s: 0.0,
            stretch_start: Instant::now(),
        }
    }

    /// Starts a stretch of the measured phase. Setups run between
    /// stretches, so that `setup_s` samples the host over the whole run
    /// as the measured jobs do.
    fn start_measuring(&mut self) {
        self.stretch_start = Instant::now();
    }

    fn stop_measuring(&mut self) {
        self.measured_s += self.stretch_start.elapsed().as_secs_f64();
    }

    /// Whether the measured phase, counting the current stretch, has run
    /// for `--seconds`.
    fn time_is_up(&self) -> bool {
        self.measured_s + self.stretch_start.elapsed().as_secs_f64() >= self.args.seconds
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Submits spec `idx`, waits for it and for its job thread to exit,
    /// and checks its values and cache counters. Returns the job only
    /// when every check passed.
    fn run_job(&mut self, manager: &JobManager, idx: usize, expect: Expect) -> Option<Finished> {
        let spec = self.specs[idx].clone();
        let label = format!("{} seed {}", spec.method, spec.seed);
        self.attempted += 1;
        let start = Instant::now();
        let job = match manager.submit(spec) {
            Ok(job) => job,
            Err(e) => {
                self.fail(format!("{label}: submit refused: {e}"));
                return None;
            }
        };
        let status = job.wait();
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        self.settle(manager);
        let (Some(report), Some(info)) = (job.report(), job.cache_info()) else {
            self.fail(format!("{label}: ended {status:?}: {:?}", job.error()));
            return None;
        };
        if status != JobStatus::Done {
            self.fail(format!("{label}: ended {status:?}"));
            return None;
        }
        let got = Reference {
            checksum: value_checksum(&report.values),
            cells: info.cells_computed + info.cell_hits,
        };
        let reference = match self.refs[idx] {
            Some(r) => r,
            None if expect == Expect::Cold && self.args.seed != expected::DEFAULT_SEED => {
                self.refs[idx] = Some(got);
                got
            }
            None => {
                self.fail(format!(
                    "{label}: no reference to check against (measured checksum {:#018x}, {} cells)",
                    got.checksum, got.cells
                ));
                return None;
            }
        };
        let counters_ok = match expect {
            Expect::Cold => {
                !info.world_reused
                    && info.cell_hits == 0
                    && info.disk_warm_cells == 0
                    && info.cells_computed == reference.cells
            }
            Expect::Warm => {
                info.world_reused && info.cells_computed == 0 && info.cell_hits == reference.cells
            }
        };
        let stats = manager.cache_stats();
        if got.checksum != reference.checksum {
            self.fail(format!(
                "{label}: value checksum {:#018x}, expected {:#018x}",
                got.checksum, reference.checksum
            ));
            return None;
        }
        if !counters_ok || info.cache_degraded || stats.corrupt_events != 0 {
            self.fail(format!(
                "{label}: cache counters {info:?} (corrupt events {}) do not fit the workload \
                 ({} planned cells)",
                stats.corrupt_events, reference.cells
            ));
            return None;
        }
        Some(Finished {
            latency_ms,
            queued_ms: job.queued_ms(),
            run_ms: job.run_ms(),
            values: report.values,
            info,
        })
    }

    /// Waits until the manager's job threads have exited, so the next
    /// job never overlaps the previous job's tail.
    /// The manager's active count drops just before a job thread
    /// returns, so this also waits for the threads themselves to be gone.
    fn settle(&mut self, manager: &JobManager) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while manager.active_jobs() > 0 || job_threads_alive() {
            if Instant::now() > deadline {
                self.problems.push("a job thread did not exit".into());
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Records a measured job; in a traced run, replays it on `shadow`
    /// and checks the replay against the job.
    fn record(&mut self, idx: usize, job: Option<Finished>, shadow: Option<&mut Shadow>) {
        let Some(job) = job else { return };
        self.latencies.push(job.latency_ms);
        let Some(shadow) = shadow else { return };
        let spec = self.specs[idx].clone();
        match shadow.replay(&spec) {
            Ok(replay) => {
                let l = &replay.layers;
                if value_checksum(&replay.values) != value_checksum(&job.values)
                    || replay.world_reused != job.info.world_reused
                    || l.cells_computed != job.info.cells_computed
                    || l.cell_hits != job.info.cell_hits
                    || l.attach_cells != job.info.disk_warm_cells
                {
                    self.problems.push(format!(
                        "{} seed {}: the replay disagrees with the job (replay reused {}, {} \
                         computed, {} hits, {} attached; job {:?})",
                        spec.method,
                        spec.seed,
                        replay.world_reused,
                        l.cells_computed,
                        l.cell_hits,
                        l.attach_cells,
                        job.info
                    ));
                    return;
                }
                self.samples[idx].push(Sample {
                    latency_ms: job.latency_ms,
                    queued_ms: job.queued_ms,
                    run_ms: job.run_ms,
                    disk_warm_cells: job.info.disk_warm_cells,
                    layers: replay.layers,
                });
            }
            Err(e) => self.problems.push(format!(
                "{} seed {}: replay failed: {e}",
                spec.method, spec.seed
            )),
        }
    }

    /// Fills `shadow` the way the setup filled the job's manager.
    fn warm_shadow(&mut self, shadow: &mut Shadow) {
        for idx in 0..self.specs.len() {
            let spec = self.specs[idx].clone();
            let reference = self.refs[idx];
            match shadow.replay(&spec) {
                Ok(replay) => {
                    if reference.map(|r| r.checksum) != Some(value_checksum(&replay.values)) {
                        self.problems.push(format!(
                            "{} seed {}: replayed fill diverged",
                            spec.method, spec.seed
                        ));
                    }
                }
                Err(e) => self.problems.push(format!("shadow fill failed: {e}")),
            }
        }
    }

    /// `cold_value`: passes over the world list, each on a fresh manager
    /// over an emptied cache directory. A setup (a fresh manager and one
    /// warm-up job) comes before every `COLD_PASSES_PER_SETUP` passes.
    fn cold_value(&mut self) {
        loop {
            let start = Instant::now();
            let manager = manager_over(&self.work.fresh("jobs"));
            let warmup = self.run_job(&manager, 0, Expect::Cold);
            drop((manager, warmup));
            self.setup_s.push(start.elapsed().as_secs_f64());
            self.start_measuring();
            for _ in 0..COLD_PASSES_PER_SETUP {
                let manager = manager_over(&self.work.fresh("jobs"));
                let mut shadow = self
                    .args
                    .trace
                    .then(|| Shadow::open(self.work.fresh("shadow")));
                for idx in 0..self.specs.len() {
                    let job = self.run_job(&manager, idx, Expect::Cold);
                    self.record(idx, job, shadow.as_mut());
                    if self.time_is_up() {
                        self.stop_measuring();
                        return;
                    }
                }
            }
            self.stop_measuring();
        }
    }

    /// `warm_revalue`: a setup fills a fresh manager with the specs'
    /// worlds, then `WARM_JOBS_PER_SETUP` measured jobs re-value them on
    /// it; repeated until the measured phase has run its time.
    fn warm_revalue(&mut self) {
        loop {
            let start = Instant::now();
            let manager = manager_over(&self.work.fresh("jobs"));
            for idx in 0..self.specs.len() {
                self.run_job(&manager, idx, Expect::Cold);
            }
            self.setup_s.push(start.elapsed().as_secs_f64());
            let mut shadow = self.args.trace.then(|| {
                let mut shadow = Shadow::open(self.work.fresh("shadow"));
                self.warm_shadow(&mut shadow);
                shadow
            });
            self.start_measuring();
            for idx in (0..self.specs.len()).cycle().take(WARM_JOBS_PER_SETUP) {
                let job = self.run_job(&manager, idx, Expect::Warm);
                self.record(idx, job, shadow.as_mut());
                if self.time_is_up() {
                    self.stop_measuring();
                    return;
                }
            }
            self.stop_measuring();
        }
    }

    fn end_to_end(&mut self) -> Vec<Metric> {
        let jobs = self.latencies.len();
        let beyond_p90 = jobs - (jobs as f64 * 0.9).ceil() as usize;
        let rss = stats::peak_rss_mb().unwrap_or_else(|| {
            self.problems.push("VmHWM is not readable".into());
            0.0
        });
        let mut metrics = vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(&self.setup_s),
            },
            Metric {
                name: "jobs_per_s",
                unit: "1/s",
                value: jobs as f64 / self.measured_s,
            },
            Metric {
                name: "job_ms_p50",
                unit: "ms",
                value: median(&self.latencies),
            },
            Metric {
                name: "job_ms_p90",
                unit: "ms",
                value: quantile(&self.latencies, 0.9),
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MB",
                value: rss,
            },
            Metric {
                name: "ok_ratio",
                unit: "ratio",
                value: (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64,
            },
        ];
        if jobs == 0 {
            self.problems
                .push("no job completed in the measured phase".into());
            metrics.retain(|m| m.name == "setup_s");
        }
        if beyond_p90 < 10 {
            eprintln!("perfbench: only {beyond_p90} jobs beyond p90 (of {jobs}); run longer");
        }
        metrics
    }

    fn per_layer(&mut self) -> (Vec<Metric>, Vec<String>) {
        // Per spec: the median of each metric over that spec's jobs; then
        // the mean over specs, so a count that repeats per spec repeats
        // exactly however many jobs of each spec ran.
        let mut per_spec: Vec<Vec<Metric>> = Vec::new();
        for (idx, samples) in self.samples.iter().enumerate() {
            if samples.is_empty() {
                self.problems
                    .push(format!("spec {idx} has no traced job; run longer"));
                continue;
            }
            let rows: Vec<Vec<Metric>> = samples.iter().map(layer_row).collect();
            let mut merged = Vec::new();
            for k in 0..rows[0].len() {
                let column: Vec<f64> = rows.iter().map(|r| r[k].value).collect();
                if matches!(rows[0][k].unit, "count" | "bytes")
                    && column.iter().any(|&v| v != column[0])
                {
                    self.problems.push(format!(
                        "{} did not repeat across jobs of spec {idx}: {column:?}",
                        rows[0][k].name
                    ));
                }
                merged.push(Metric {
                    name: rows[0][k].name,
                    unit: rows[0][k].unit,
                    value: median(&column),
                });
            }
            per_spec.push(merged);
        }
        let Some(first) = per_spec.first() else {
            return (Vec::new(), Vec::new());
        };
        let metrics: Vec<Metric> = (0..first.len())
            .map(|k| Metric {
                name: first[k].name,
                unit: first[k].unit,
                value: per_spec.iter().map(|m| m[k].value).sum::<f64>() / per_spec.len() as f64,
            })
            .collect();

        // Where the traced job's time went, largest layer first.
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        // Same aggregation as the metrics: per-spec medians, mean over specs.
        let spec_mean = |f: fn(&Sample) -> f64| {
            let medians: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| median(&s.iter().map(f).collect::<Vec<_>>()))
                .collect();
            medians.iter().sum::<f64>() / medians.len() as f64
        };
        let traced_ms = spec_mean(|s| s.layers.total_ms);
        let client_ms = spec_mean(|s| s.latency_ms);
        let mut split: Vec<(&str, f64)> = TIMED_LAYERS
            .iter()
            .map(|&name| (name, value(name)))
            .filter(|&(_, ms)| ms > 0.0)
            .collect();
        split.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut notes = vec![format!(
            "traced job {traced_ms:.2} ms, untraced job {client_ms:.2} ms (client latency); \
             layer split of the traced job:"
        )];
        for (name, ms) in &split {
            notes.push(format!(
                "  {name:<22} {ms:>10.3} ms  {:>5.1}%",
                100.0 * ms / traced_ms.max(f64::MIN_POSITIVE)
            ));
        }
        notes.push(format!(
            "  {:<22} {:>10}     {:>5.1}%",
            "unattributed",
            "",
            100.0 * value("trace.unattributed_share")
        ));
        if let Some((name, ms)) = split.first() {
            notes.push(format!(
                "floor: {name} holds {:.1}% of the traced {} job",
                100.0 * ms / traced_ms.max(f64::MIN_POSITIVE),
                self.args.workload.name()
            ));
        }
        (metrics, notes)
    }
}

/// The metrics that time one call each; the rest of a replay's wall
/// time is unattributed.
const TIMED_LAYERS: [&str; 12] = [
    "data.world_build_ms",
    "fl.train_ms",
    "fl.base_losses_ms",
    "fl.eval_plan_ms",
    "mc.solve_ms",
    "shapley.observe_ms",
    "shapley.estimate_ms",
    "cache.open_ms",
    "cache.attach_ms",
    "cache.load_trace_ms",
    "cache.store_trace_ms",
    "cache.flush_ms",
];

fn layer_row(s: &Sample) -> Vec<Metric> {
    let l = &s.layers;
    let per = |num: f64, den: u64, scale: f64| {
        if den == 0 {
            0.0
        } else {
            num * scale / den as f64
        }
    };
    let m = |name, unit, value| Metric { name, unit, value };
    let mut row = vec![
        m("data.world_build_ms", "ms", l.world_build_ms),
        m("fl.train_ms", "ms", l.train_ms),
        m("fl.base_losses_ms", "ms", l.base_losses_ms),
        m("fl.eval_plan_ms", "ms", l.eval_plan_ms),
        m("fl.cells_planned", "count", l.cells_planned as f64),
        m("fl.cells_computed", "count", l.cells_computed as f64),
        m("fl.cell_hits", "count", l.cell_hits as f64),
        m("fl.disk_warm_cells", "count", s.disk_warm_cells as f64),
        m(
            "fl.hit_ratio",
            "ratio",
            per(l.cell_hits as f64, l.cells_planned, 1.0),
        ),
        m(
            "fl.us_per_cell_computed",
            "us",
            per(l.eval_plan_ms, l.cells_computed, 1e3),
        ),
        m(
            "fl.ns_per_cell_hit",
            "ns",
            if l.cells_computed == 0 {
                per(l.eval_plan_ms, l.cell_hits, 1e6)
            } else {
                0.0
            },
        ),
        m("mc.solve_ms", "ms", l.solve_ms),
        m("mc.sweeps", "count", l.sweeps as f64),
        m("mc.ms_per_sweep", "ms", per(l.solve_ms, l.sweeps, 1.0)),
        m("mc.columns", "count", l.columns as f64),
        m("mc.observations", "count", l.observations as f64),
        m("shapley.observe_ms", "ms", l.observe_ms),
        m("shapley.estimate_ms", "ms", l.estimate_ms),
        m("cache.open_ms", "ms", l.open_ms),
        m("cache.attach_ms", "ms", l.attach_ms),
        m("cache.attach_cells", "count", l.attach_cells as f64),
        m("cache.load_trace_ms", "ms", l.load_trace_ms),
        m("cache.store_trace_ms", "ms", l.store_trace_ms),
        m("cache.flush_ms", "ms", l.flush_ms),
        m("cache.spilled_cells", "count", l.spilled_cells as f64),
        m("cache.resident_bytes", "bytes", l.resident_bytes as f64),
        m("cache.corrupt_events", "count", l.corrupt_events as f64),
        m("cache.disk_bytes", "bytes", l.disk_bytes as f64),
        m("service.queue_wait_ms", "ms", s.queued_ms),
        m("service.run_ms", "ms", s.run_ms),
        m("service.overhead_ms", "ms", s.latency_ms - s.run_ms),
    ];
    let attributed_ms: f64 = row
        .iter()
        .filter(|r| TIMED_LAYERS.contains(&r.name))
        .map(|r| r.value)
        .sum();
    row.push(m(
        "trace.unattributed_share",
        "ratio",
        1.0 - attributed_ms / l.total_ms,
    ));
    row.push(m(
        "trace.overhead_ratio",
        "ratio",
        l.total_ms / s.latency_ms,
    ));
    row
}

pub fn run(args: &Args, work: &WorkDir) -> Outcome {
    let worlds = match args.workload {
        Workload::ColdValue => COLD_WORLDS,
        Workload::WarmRevalue => WARM_WORLDS,
    };
    let specs = (0..worlds)
        .map(|i| mc_spec(world_seed(args.seed, i)))
        .collect();
    let mut bench = Bench::new(args, work, specs);
    match args.workload {
        Workload::ColdValue => bench.cold_value(),
        Workload::WarmRevalue => bench.warm_revalue(),
    }
    let jobs = bench.latencies.len();
    let mut notes = vec![format!(
        "{}: {jobs} measured jobs in {:.2} s, {} beyond p90; {} jobs attempted in all, {} failed; \
         setups {:?} s",
        args.workload.name(),
        bench.measured_s,
        jobs - (jobs as f64 * 0.9).ceil() as usize,
        bench.attempted,
        bench.failed,
        bench
            .setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    )];
    let metrics = if args.trace {
        let (metrics, split) = bench.per_layer();
        notes.extend(split);
        metrics
    } else {
        bench.end_to_end()
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        bench.problems.push("a metric is not finite".into());
    }
    Outcome {
        attempted: bench.attempted.max(1),
        failed: bench.failed,
        metrics,
        notes,
        problems: bench.problems,
    }
}
