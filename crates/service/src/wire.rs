//! Wire formats: parsing [`JobSpec`] request bodies and rendering job
//! status, reports, and progress events as JSON.
//!
//! Everything here rides on `fedval_jsonio` — the same flat scanner and
//! writer the benchmark binaries use — so the service adds no JSON
//! dependency and its output style (compact rows, `": "` separators)
//! matches the committed `BENCH_*.json` artifacts.
//!
//! Parsing only checks a field's type. [`JobManager::submit`] then
//! bounds what a job may allocate and answers 400 beyond it: `"rank"`
//! must lie in 1..=[`JobSpec::MAX_RANK`] (64), and `"permutations"` and
//! `"samples"` may not exceed [`JobSpec::MAX_DRAWS`] (1,000,000).
//!
//! [`JobManager::submit`]: crate::JobManager::submit

use crate::job::{Job, JobSpec};
use fedval_cache::CacheStats;
use fedval_jsonio::{escaped, scan_num, scan_str, JsonWriter};
use fedval_linalg::DeterminismTier;
use fedval_runtime::JobClass;
use fedval_shapley::{Progress, ProgressEvent, ValuationReport};

/// Parses a `POST /jobs` body into a [`JobSpec`].
///
/// Required: `"method"`. Optional: `"scenario"`, `"seed"`, `"tier"`
/// (`"fast"` / `"bit_exact"`), `"class"` (`"interactive"` / `"batch"`),
/// `"rank"`, `"permutations"`, `"samples"`, `"deadline_ms"` (wall-clock
/// budget; the job fails with a deadline error past it), and the world
/// overrides `"num_clients"` / `"samples_per_client"` / `"rounds"` /
/// `"clients_per_round"`. Unknown keys are ignored; recognized keys
/// with malformed values are errors, not silent defaults.
pub fn parse_job_spec(body: &str) -> Result<JobSpec, String> {
    let method = scan_str(body, "method").ok_or("missing required field \"method\"")?;
    let mut spec = JobSpec::new(method);
    if let Some(scenario) = scan_str(body, "scenario") {
        spec.scenario = scenario.to_string();
    }
    if let Some(tier) = scan_str(body, "tier") {
        spec.tier =
            Some(DeterminismTier::parse(tier).ok_or_else(|| format!("unknown tier {tier:?}"))?);
    }
    if let Some(class) = scan_str(body, "class") {
        spec.class = JobClass::parse(class).ok_or_else(|| format!("unknown class {class:?}"))?;
    }
    spec.seed = match scan_whole(body, "seed")? {
        Some(seed) => seed,
        None => spec.seed,
    };
    if let Some(rank) = scan_whole(body, "rank")? {
        spec.rank = rank as usize;
    }
    if let Some(permutations) = scan_whole(body, "permutations")? {
        spec.permutations = permutations as usize;
    }
    if let Some(samples) = scan_whole(body, "samples")? {
        spec.samples = samples as usize;
    }
    spec.deadline_ms = scan_whole(body, "deadline_ms")?;
    spec.num_clients = scan_whole(body, "num_clients")?.map(|v| v as usize);
    spec.samples_per_client = scan_whole(body, "samples_per_client")?.map(|v| v as usize);
    spec.rounds = scan_whole(body, "rounds")?.map(|v| v as usize);
    spec.clients_per_round = scan_whole(body, "clients_per_round")?.map(|v| v as usize);
    Ok(spec)
}

/// Scans `key` as a non-negative integer; a present-but-fractional or
/// negative value is an error (silently truncating a user's `"seed":
/// 1.5` would run the wrong job).
fn scan_whole(body: &str, key: &str) -> Result<Option<u64>, String> {
    match scan_num(body, key) {
        None => Ok(None),
        Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Ok(Some(v as u64)),
        Some(v) => Err(format!(
            "field {key:?} must be a non-negative integer, got {v}"
        )),
    }
}

/// One line-delimited JSON event for a session [`ProgressEvent`],
/// tagged with the emitting job's id.
pub fn render_progress(job_id: u64, event: &ProgressEvent<'_>) -> String {
    let mut line = format!(
        "{{\"job\": {job_id}, \"method\": \"{}\", \"stage\": \"{}\"",
        escaped(event.method),
        escaped(event.stage)
    );
    match event.progress {
        Progress::Stage => {}
        Progress::Permutation { index, total } => {
            line.push_str(&format!(", \"permutation\": {index}, \"total\": {total}"));
        }
        Progress::Sweep { index, objective } => {
            line.push_str(&format!(", \"sweep\": {index}, \"objective\": {objective}"));
        }
        Progress::Method { index, total, name } => {
            line.push_str(&format!(
                ", \"method_index\": {index}, \"method_total\": {total}, \"starting\": \"{}\"",
                escaped(name)
            ));
        }
    }
    line.push('}');
    line
}

/// The `GET /jobs/{id}` body: identity, spec echo, lifecycle timings,
/// and — once terminal — the report or error.
pub fn render_job(job: &Job) -> String {
    let status = job.status();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.u64_field("job", job.id());
    w.str_field("status", status.name());
    w.str_field("method", &job.spec().method);
    w.str_field("scenario", &job.spec().scenario);
    w.u64_field("seed", job.spec().seed);
    w.str_field("class", job.spec().class.name());
    if let Some(tier) = job.spec().tier {
        w.str_field("tier", tier.name());
    }
    w.num_field("queued_ms", job.queued_ms());
    w.num_field("run_ms", job.run_ms());
    if let Some(report) = job.report() {
        write_report(&mut w, "report", &report);
    }
    if let Some(cache) = job.cache_info() {
        w.begin_object_field_compact("cache");
        w.bool_field("world_reused", cache.world_reused);
        w.u64_field("cell_hits", cache.cell_hits);
        w.u64_field("cells_computed", cache.cells_computed);
        w.u64_field("disk_warm_cells", cache.disk_warm_cells);
        w.bool_field("degraded", cache.cache_degraded);
        w.end_object();
    }
    if let Some(error) = job.error() {
        w.str_field("error", &error);
    }
    w.end_object();
    w.finish_inline()
}

/// Renders a [`ValuationReport`] as the `key` field of the currently
/// open object (used for the `"report"` field of [`render_job`]).
fn write_report(w: &mut JsonWriter, key: &str, report: &ValuationReport) {
    w.begin_object_field(key);
    w.str_field("method", report.method);
    w.begin_array_field_compact("values");
    for v in &report.values {
        w.num_elem(*v);
    }
    w.end_array();
    w.begin_object_field_compact("diagnostics");
    w.u64_field("cells_evaluated", report.diagnostics.cells_evaluated);
    w.u64_field("cell_hits", report.diagnostics.cell_hits);
    w.u64_field(
        "permutations_used",
        report.diagnostics.permutations_used as u64,
    );
    w.opt_num_field("truncated_fraction", report.diagnostics.truncated_fraction);
    w.u64_field(
        "objective_sweeps",
        report.diagnostics.objective_trace.len() as u64,
    );
    w.end_object();
    w.end_object();
}

/// The `POST /jobs` acceptance body.
pub fn render_accepted(job: &Job) -> String {
    let mut w = JsonWriter::new();
    w.begin_object_compact();
    w.u64_field("job", job.id());
    w.str_field("status", job.status().name());
    w.str_field("class", job.spec().class.name());
    w.end_object();
    w.finish_inline()
}

/// A `{"error": ...}` body for 4xx/5xx responses.
pub fn render_error(message: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object_compact();
    w.str_field("error", message);
    w.end_object();
    w.finish_inline()
}

/// Everything the `/healthz` readiness document reports about the
/// process, gathered by the HTTP layer at request time.
pub struct HealthSnapshot<'a> {
    /// `true` once shutdown has begun — new submissions are shed.
    pub draining: bool,
    /// Jobs currently queued or running.
    pub active_jobs: usize,
    /// Job slots before submissions are shed with 503.
    pub capacity: usize,
    /// Worker threads in the compute pool.
    pub pool_threads: usize,
    /// Compute-pool jobs waiting for a worker (queue pressure).
    pub pool_queue_depth: usize,
    /// Scheduling policy name ("fair" / "fifo").
    pub policy: &'a str,
    /// Shared utility-cell cache counters, including degraded mode.
    pub cache: CacheStats,
}

/// The `GET /healthz` body: a readiness document — load (`active_jobs`
/// vs `capacity`, `pool_queue_depth`), drain state (`status` is
/// `"draining"` once shutdown began), cache health (counters plus the
/// `degraded` flag), and the catalog of what can be submitted.
pub fn render_health(
    health: &HealthSnapshot<'_>,
    methods: &[&str],
    scenarios: &[String],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.str_field("status", if health.draining { "draining" } else { "ok" });
    w.u64_field("active_jobs", health.active_jobs as u64);
    w.u64_field("capacity", health.capacity as u64);
    w.u64_field("pool_threads", health.pool_threads as u64);
    w.u64_field("pool_queue_depth", health.pool_queue_depth as u64);
    w.str_field("policy", health.policy);
    w.begin_object_field_compact("cache");
    w.u64_field("resident_cells", health.cache.resident_cells as u64);
    w.u64_field("capacity_bytes", health.cache.capacity_bytes as u64);
    w.u64_field("spilled_cells", health.cache.spilled_cells);
    w.u64_field("disk_cells_loaded", health.cache.disk_cells_loaded);
    w.u64_field("corrupt_events", health.cache.corrupt_events);
    w.u64_field("write_errors", health.cache.write_errors);
    w.bool_field("degraded", health.cache.disk_degraded);
    w.end_object();
    w.begin_array_field_compact("methods");
    for m in methods {
        w.str_elem(m);
    }
    w.end_array();
    w.begin_array_field_compact("scenarios");
    for s in scenarios {
        w.str_elem(s);
    }
    w.end_array();
    w.end_object();
    w.finish_inline()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_spec_uses_defaults() {
        let spec = parse_job_spec(r#"{"method": "comfedsv"}"#).unwrap();
        assert_eq!(spec.method, "comfedsv");
        assert_eq!(spec.scenario, "iid_baseline");
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.class, JobClass::Batch);
        assert!(spec.tier.is_none());
        assert!(spec.num_clients.is_none());
    }

    #[test]
    fn parse_full_spec() {
        let body = r#"{
            "method": "tmc",
            "scenario": "free_riders",
            "seed": 42,
            "tier": "fast",
            "class": "interactive",
            "rank": 6,
            "permutations": 120,
            "samples": 300,
            "num_clients": 10,
            "samples_per_client": 20,
            "rounds": 4,
            "clients_per_round": 5
        }"#;
        let spec = parse_job_spec(body).unwrap();
        assert_eq!(spec.method, "tmc");
        assert_eq!(spec.scenario, "free_riders");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.tier, Some(DeterminismTier::Fast));
        assert_eq!(spec.class, JobClass::Interactive);
        assert_eq!(spec.rank, 6);
        assert_eq!(spec.permutations, 120);
        assert_eq!(spec.samples, 300);
        assert_eq!(spec.num_clients, Some(10));
        assert_eq!(spec.samples_per_client, Some(20));
        assert_eq!(spec.rounds, Some(4));
        assert_eq!(spec.clients_per_round, Some(5));
    }

    #[test]
    fn parse_rejects_bad_fields() {
        assert!(parse_job_spec(r#"{"scenario": "iid_baseline"}"#).is_err());
        assert!(parse_job_spec(r#"{"method": "tmc", "tier": "warp"}"#).is_err());
        assert!(parse_job_spec(r#"{"method": "tmc", "class": "vip"}"#).is_err());
        assert!(parse_job_spec(r#"{"method": "tmc", "seed": 1.5}"#).is_err());
        assert!(parse_job_spec(r#"{"method": "tmc", "rounds": -3}"#).is_err());
    }

    #[test]
    fn progress_events_render_each_variant() {
        let ev = ProgressEvent {
            method: "tmc",
            stage: "walk",
            progress: Progress::Permutation {
                index: 3,
                total: 80,
            },
        };
        assert_eq!(
            render_progress(7, &ev),
            r#"{"job": 7, "method": "tmc", "stage": "walk", "permutation": 3, "total": 80}"#
        );
        let ev = ProgressEvent {
            method: "comfedsv",
            stage: "complete",
            progress: Progress::Sweep {
                index: 2,
                objective: 1.25,
            },
        };
        assert_eq!(
            render_progress(1, &ev),
            r#"{"job": 1, "method": "comfedsv", "stage": "complete", "sweep": 2, "objective": 1.25}"#
        );
        let ev = ProgressEvent {
            method: "exact",
            stage: "plan",
            progress: Progress::Stage,
        };
        assert_eq!(
            render_progress(2, &ev),
            r#"{"job": 2, "method": "exact", "stage": "plan"}"#
        );
    }

    #[test]
    fn error_bodies_escape_messages() {
        assert_eq!(
            render_error("bad \"quote\""),
            "{\"error\": \"bad \\\"quote\\\"\"}"
        );
    }

    #[test]
    fn health_lists_catalogs_and_readiness() {
        let snapshot = HealthSnapshot {
            draining: false,
            active_jobs: 2,
            capacity: 32,
            pool_threads: 4,
            pool_queue_depth: 7,
            policy: "fair",
            cache: CacheStats::default(),
        };
        let body = render_health(&snapshot, &["comfedsv"], &["iid_baseline".into()]);
        assert!(body.contains("\"status\": \"ok\""));
        assert!(body.contains("\"active_jobs\": 2"));
        assert!(body.contains("\"capacity\": 32"));
        assert!(body.contains("\"pool_queue_depth\": 7"));
        assert!(body.contains("\"degraded\": false"));
        assert!(body.contains("\"methods\": [\"comfedsv\"]"));
        assert!(body.contains("\"scenarios\": [\"iid_baseline\"]"));
        let draining = HealthSnapshot {
            draining: true,
            ..snapshot
        };
        assert!(render_health(&draining, &[], &[]).contains("\"status\": \"draining\""));
    }

    #[test]
    fn parse_deadline_ms() {
        let spec = parse_job_spec(r#"{"method": "tmc", "deadline_ms": 2500}"#).unwrap();
        assert_eq!(spec.deadline_ms, Some(2500));
        assert!(parse_job_spec(r#"{"method": "tmc", "deadline_ms": -1}"#).is_err());
    }
}
