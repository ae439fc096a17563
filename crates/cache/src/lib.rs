//! `fedval_cache` — the system's shared utility-cell cache tier.
//!
//! ComFedSV's round-utility cells `U_t(S)` are pure functions of
//! `(training trace, determinism tier, round, subset)`. This crate
//! turns that purity into a cache hierarchy the rest of the workspace
//! shares:
//!
//! * [`CellStore`] — an in-process bounded store of completed cells
//!   with second-chance (clock-LRU) eviction and per-cell memory
//!   accounting ([`CELL_COST_BYTES`]);
//! * [`DiskCache`] — checksummed, versioned on-disk segments under a
//!   configurable directory, so repeat valuations of the same trace
//!   hit warm cells across processes; corrupt or stale files degrade
//!   to recompute, never to wrong values;
//! * [`CellCache`] — the façade gluing the two together: dirty cells
//!   evicted under memory pressure spill to disk, [`CellCache::flush`]
//!   persists whatever remains, and [`CellCache::attach`] pre-loads a
//!   trace's persisted cells once per process.
//!
//! Every oracle in `fedval_fl` keeps its cells in a [`CellCache`]: a
//! private unbounded one by default, or a shared one keyed by a
//! [`Fingerprint`] that covers everything a cell's value depends on
//! (trace parameters, test set, model, base losses), so a shared cache
//! can serve many tenants' oracles concurrently while staying
//! bit-identical to solo recomputation.
//!
//! # Crash safety and multi-process sharing
//!
//! Several processes may point at one cache directory concurrently:
//!
//! * segment and trace writes are temp + rename under unique names, so
//!   readers never observe a partial file and a `SIGKILL` mid-write
//!   leaves only a `*.tmp` orphan (swept by the maintenance janitor);
//! * the mutating maintenance operations (manifest rewrite, segment
//!   compaction, orphan GC) run under a single-writer advisory file
//!   lock ([`DirLock`] on `writer.lock`) that the kernel releases on
//!   process death — no stale-lock limbo, ever;
//! * trained traces persist as `trace-<world>.trace`
//!   ([`CellCache::store_trace`]) so a restarted process skips FedAvg
//!   training, and [`CellCache::try_train_lock`] elects one trainer per
//!   world across processes;
//! * an unusable or failing directory *degrades* the cache to
//!   memory-only ([`CacheStats::disk_degraded`]) instead of failing
//!   jobs or buffering dirty cells without bound.
//!
//! # Configuration
//!
//! [`CacheConfig::from_env`] reads:
//!
//! * `FEDVAL_CACHE_DIR` — cache directory; unset disables disk spill
//!   and persistence (in-memory sharing still applies);
//! * `FEDVAL_CACHE_MEM_MB` — in-process budget in MiB (default 64;
//!   minimum one cell). An unparseable value logs one warning and
//!   falls back to the default.

mod coord;
mod disk;
mod hash;
mod store;
mod trace;

pub use coord::DirLock;
pub use disk::{
    DiskCache, DiskCell, LoadOutcome, MaintainOutcome, COMPACT_MIN_SEGMENTS, FORMAT_VERSION, MAGIC,
    WRITER_LOCK_FILE,
};
pub use hash::{Fingerprint, FingerprintHasher};
pub use store::{CellKey, CellSlot, CellStore, SlotState, CELL_COST_BYTES};
pub use trace::{
    trace_file_name, TraceLoad, TraceRecord, TraceRound, TRACE_FORMAT_VERSION, TRACE_MAGIC,
};

use parking_lot::Mutex;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default in-process budget when `FEDVAL_CACHE_MEM_MB` is unset.
pub const DEFAULT_MEM_BUDGET_BYTES: usize = 64 * 1024 * 1024;

/// How a [`CellCache`] is provisioned.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// In-process budget in bytes (see [`CELL_COST_BYTES`] accounting).
    pub memory_budget_bytes: usize,
    /// Segment directory; `None` disables spill/persistence.
    pub disk_dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            memory_budget_bytes: DEFAULT_MEM_BUDGET_BYTES,
            disk_dir: None,
        }
    }
}

impl CacheConfig {
    /// Reads `FEDVAL_CACHE_DIR` / `FEDVAL_CACHE_MEM_MB` (an unparseable
    /// budget value logs one warning and falls back to the default — a
    /// bad env var must never take the service down).
    pub fn from_env() -> Self {
        let memory_budget_bytes = match std::env::var("FEDVAL_CACHE_MEM_MB") {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(mb) => mb.saturating_mul(1024 * 1024),
                Err(_) => {
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "fedval_cache: FEDVAL_CACHE_MEM_MB={raw:?} is not a MiB count; \
                             using default {} MiB",
                            DEFAULT_MEM_BUDGET_BYTES / (1024 * 1024)
                        );
                    });
                    DEFAULT_MEM_BUDGET_BYTES
                }
            },
            Err(_) => DEFAULT_MEM_BUDGET_BYTES,
        };
        let disk_dir = std::env::var("FEDVAL_CACHE_DIR")
            .ok()
            .filter(|v| !v.trim().is_empty())
            .map(PathBuf::from);
        CacheConfig {
            memory_budget_bytes,
            disk_dir,
        }
    }
}

/// Point-in-time counters for observability and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Resident entries (completed cells + in-flight reservations).
    pub resident_cells: usize,
    /// [`CELL_COST_BYTES`] × resident entries.
    pub resident_bytes: usize,
    /// Configured budget in bytes.
    pub capacity_bytes: usize,
    /// Completed cells evicted under memory pressure.
    pub evictions: u64,
    /// Dirty cells written to disk (spill + flush).
    pub spilled_cells: u64,
    /// Cells loaded from disk segments over this cache's lifetime.
    pub disk_cells_loaded: u64,
    /// Disk anomalies absorbed (each logged, each degraded to
    /// recompute).
    pub corrupt_events: u64,
    /// Failed segment/trace writes (each logged; cells stayed buffered
    /// until the degradation threshold).
    pub write_errors: u64,
    /// Whether a configured disk directory has been abandoned — it was
    /// unusable at startup or accumulated too many write failures — and
    /// the cache is serving memory-only.
    pub disk_degraded: bool,
}

/// The shared cache tier: bounded in-process store + optional disk
/// spill. Cheap to share via `Arc`; all methods take `&self`.
pub struct CellCache {
    store: CellStore,
    disk: Option<DiskCache>,
    /// `(trace, tier)` pairs already loaded from disk — attach is
    /// once-per-process per trace.
    attached: Mutex<HashSet<(Fingerprint, u8)>>,
    /// Dirty cells evicted from memory, awaiting a segment write.
    spill_buf: Mutex<Vec<(CellKey, f64)>>,
    spilled_cells: AtomicU64,
    disk_cells_loaded: AtomicU64,
    corrupt_events: AtomicU64,
    write_errors: AtomicU64,
    /// Set when the disk directory is unusable (at startup or after
    /// [`WRITE_ERROR_LIMIT`] failed writes): the cache stops touching
    /// it and serves memory-only.
    degraded: AtomicBool,
}

/// Spill-buffer high-water mark: exceeding it writes a segment eagerly
/// so unbounded eviction pressure cannot re-grow memory in the buffer.
const SPILL_FLUSH_CELLS: usize = 8192;

/// Segment-write failures tolerated before the disk tier is declared
/// degraded. Cells re-buffer (and retry on the next flush) until then;
/// at the limit the buffer is dropped — recompute covers dropped cells,
/// whereas an unwritable directory retained forever is a memory leak.
const WRITE_ERROR_LIMIT: u64 = 3;

impl CellCache {
    /// Builds a cache from `config`. An unusable disk directory is a
    /// logged degradation (cache runs memory-only), not an error. A
    /// usable one gets a startup maintenance turn (orphan sweep,
    /// compaction) — skipped without fuss if another process holds the
    /// writer lock.
    pub fn new(config: CacheConfig) -> Arc<Self> {
        let mut degraded = false;
        let disk = config.disk_dir.and_then(|dir| match DiskCache::open(&dir) {
            Ok(disk) => Some(disk),
            Err(e) => {
                eprintln!(
                    "fedval_cache: cache dir {} unusable: {e} (running memory-only)",
                    dir.display()
                );
                degraded = true;
                None
            }
        });
        let cache = Arc::new(CellCache {
            store: CellStore::with_budget_bytes(config.memory_budget_bytes),
            disk,
            attached: Mutex::new(HashSet::new()),
            spill_buf: Mutex::new(Vec::new()),
            spilled_cells: AtomicU64::new(0),
            disk_cells_loaded: AtomicU64::new(0),
            corrupt_events: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            degraded: AtomicBool::new(degraded),
        });
        if let Some(disk) = cache.disk_ok() {
            let outcome = disk.maintain();
            cache
                .corrupt_events
                .fetch_add(outcome.corrupt_events, Ordering::Relaxed);
        }
        cache
    }

    /// Environment-configured cache ([`CacheConfig::from_env`]).
    pub fn from_env() -> Arc<Self> {
        Self::new(CacheConfig::from_env())
    }

    /// Memory-only cache with an explicit byte budget (tests, benches).
    pub fn in_memory(budget_bytes: usize) -> Arc<Self> {
        Self::new(CacheConfig {
            memory_budget_bytes: budget_bytes,
            disk_dir: None,
        })
    }

    /// Disk-backed cache with an explicit budget and directory.
    pub fn with_dir(budget_bytes: usize, dir: impl Into<PathBuf>) -> Arc<Self> {
        Self::new(CacheConfig {
            memory_budget_bytes: budget_bytes,
            disk_dir: Some(dir.into()),
        })
    }

    /// Whether a disk directory is configured and still usable (a
    /// degraded directory reports `false`).
    pub fn has_disk(&self) -> bool {
        self.disk_ok().is_some()
    }

    /// Whether a configured disk directory has been abandoned.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The disk tier, unless absent or degraded.
    fn disk_ok(&self) -> Option<&DiskCache> {
        match &self.disk {
            Some(disk) if !self.degraded.load(Ordering::Relaxed) => Some(disk),
            _ => None,
        }
    }

    /// Records one failed disk write; at [`WRITE_ERROR_LIMIT`] the disk
    /// tier is abandoned and the spill buffer dropped (recompute covers
    /// the dropped cells). Returns whether the cache just degraded.
    fn note_write_error(&self, what: &str, e: &std::io::Error) -> bool {
        let errors = self.write_errors.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("fedval_cache: {what} write failed: {e} ({errors}/{WRITE_ERROR_LIMIT})");
        if errors >= WRITE_ERROR_LIMIT && !self.degraded.swap(true, Ordering::Relaxed) {
            let dropped = std::mem::take(&mut *self.spill_buf.lock()).len();
            eprintln!(
                "fedval_cache: disk tier degraded after {errors} write failures; \
                 serving memory-only ({dropped} buffered cells dropped — recompute covers them)"
            );
            return true;
        }
        false
    }

    /// Loads `(trace, tier)`'s persisted cells into the store, once per
    /// process; later calls (and disk-less caches) return 0. The count
    /// is the number of verified cells loaded *now* — an oracle seeing
    /// a positive count knows its trace is disk-warm.
    pub fn attach(&self, trace: Fingerprint, tier: u8) -> u64 {
        let Some(disk) = self.disk_ok() else { return 0 };
        {
            let mut attached = self.attached.lock();
            if !attached.insert((trace, tier)) {
                return 0;
            }
        }
        let outcome = disk.load(trace, tier);
        self.corrupt_events
            .fetch_add(outcome.corrupt_events, Ordering::Relaxed);
        let mut loaded = 0u64;
        for (round, subset, value) in outcome.cells {
            let key = CellKey {
                trace,
                tier,
                round,
                subset,
            };
            let spill = self.store.insert_clean(key, value);
            self.queue_spill(spill);
            loaded += 1;
        }
        self.disk_cells_loaded.fetch_add(loaded, Ordering::Relaxed);
        loaded
    }

    /// The slot for `key`, reserving an empty one if absent; a
    /// complete cell's slot already holds its value.
    pub fn slot(&self, key: CellKey) -> CellSlot {
        let (slot, _, spill) = self.store.slot(key);
        self.queue_spill(spill);
        slot
    }

    /// Records a freshly computed cell value (making it a dirty,
    /// evictable resident).
    pub fn complete(&self, key: CellKey, value: f64) {
        let spill = self.store.mark_complete(key, value);
        self.queue_spill(spill);
    }

    /// Persists all dirty cells (evicted spill buffer + still-resident),
    /// then runs one maintenance turn (orphan sweep, compaction and one
    /// manifest rewrite, skipped if another process is the writer).
    /// Returns cells written. No-op without a usable disk directory.
    /// I/O errors are logged degradations — dirty cells stay buffered
    /// for the next flush attempt until the write-error limit trips
    /// degraded mode.
    ///
    /// A flush with nothing to write returns 0 without touching the
    /// directory, not even the writer lock: compaction only has work
    /// after a write, and an orphan left by a dead writer is swept at
    /// the next startup or the next flush that writes.
    pub fn flush(&self) -> u64 {
        if self.disk_ok().is_none() {
            return 0;
        }
        let mut pending = std::mem::take(&mut *self.spill_buf.lock());
        pending.extend(self.store.drain_dirty());
        if pending.is_empty() {
            return 0;
        }
        let written = self.write_segments(pending);
        if let Some(disk) = self.disk_ok() {
            let outcome = disk.maintain();
            self.corrupt_events
                .fetch_add(outcome.corrupt_events, Ordering::Relaxed);
        }
        written
    }

    /// Buffers evicted dirty cells for persistence (dropping them when
    /// no usable disk is configured — recompute covers them) and writes
    /// a segment eagerly past the high-water mark.
    fn queue_spill(&self, spill: Vec<(CellKey, f64)>) {
        if spill.is_empty() || self.disk_ok().is_none() {
            return;
        }
        let flush_now = {
            let mut buf = self.spill_buf.lock();
            buf.extend(spill);
            buf.len() >= SPILL_FLUSH_CELLS
        };
        if flush_now {
            let pending = std::mem::take(&mut *self.spill_buf.lock());
            if self.write_segments(pending) > 0 {
                if let Some(disk) = self.disk_ok() {
                    if let Err(e) = disk.write_manifest() {
                        eprintln!("fedval_cache: manifest write failed: {e}");
                    }
                }
            }
        }
    }

    /// Groups `cells` by `(trace, tier)` and writes one segment per
    /// group; returns cells durably written. Failed groups re-buffer
    /// for retry — unless the failure pushed the cache over
    /// [`WRITE_ERROR_LIMIT`], which degrades to memory-only. The
    /// manifest is left to the caller, so a flush rewrites it once.
    fn write_segments(&self, cells: Vec<(CellKey, f64)>) -> u64 {
        let Some(disk) = self.disk_ok() else { return 0 };
        if cells.is_empty() {
            return 0;
        }
        let mut groups: Vec<((Fingerprint, u8), Vec<DiskCell>)> = Vec::new();
        for (key, value) in cells {
            let group = (key.trace, key.tier);
            match groups.iter_mut().find(|(g, _)| *g == group) {
                Some((_, rows)) => rows.push((key.round, key.subset, value)),
                None => groups.push((group, vec![(key.round, key.subset, value)])),
            }
        }
        let mut written = 0u64;
        for ((trace, tier), rows) in groups {
            match disk.append(trace, tier, &rows) {
                Ok(_) => written += rows.len() as u64,
                Err(e) => {
                    if self.note_write_error("segment", &e) {
                        break;
                    }
                    let mut buf = self.spill_buf.lock();
                    buf.extend(rows.iter().map(|&(round, subset, v)| {
                        (
                            CellKey {
                                trace,
                                tier,
                                round,
                                subset,
                            },
                            v,
                        )
                    }));
                }
            }
        }
        self.spilled_cells.fetch_add(written, Ordering::Relaxed);
        written
    }

    /// Loads the persisted trained trace for `world`, if any. A corrupt
    /// file counts one corrupt event and reads as [`TraceLoad::Absent`]
    /// would — the caller retrains. Always `Absent` without a usable
    /// disk directory.
    pub fn load_trace(&self, world: Fingerprint) -> TraceLoad {
        let Some(disk) = self.disk_ok() else {
            return TraceLoad::Absent;
        };
        let loaded = trace::load_trace(disk.dir(), world);
        if matches!(loaded, TraceLoad::Corrupt) {
            self.corrupt_events.fetch_add(1, Ordering::Relaxed);
        }
        loaded
    }

    /// Persists a trained trace for `world` so later (or concurrent)
    /// processes skip training. Returns whether the file was durably
    /// written; failures count as write errors and degrade like
    /// segment-write failures.
    pub fn store_trace(&self, world: Fingerprint, record: &TraceRecord) -> bool {
        let Some(disk) = self.disk_ok() else {
            return false;
        };
        match trace::store_trace(disk.dir(), world, record) {
            Ok(_) => true,
            Err(e) => {
                self.note_write_error("trace", &e);
                false
            }
        }
    }

    /// Elects this process as `world`'s trainer. `None` means another
    /// live process holds the election lock (poll [`Self::load_trace`]
    /// for its result); `Some` grants training. Memory-only and
    /// degraded caches always win a no-op grant — there is nobody to
    /// coordinate with. If the lock file itself is unusable, training
    /// proceeds uncoordinated: duplicated work is safe (cells and
    /// traces are pure), a stalled job is not.
    pub fn try_train_lock(&self, world: Fingerprint) -> Option<TrainLock> {
        let Some(disk) = self.disk_ok() else {
            return Some(TrainLock { _lock: None });
        };
        let path = disk.dir().join(format!("train-{}.lock", world.to_hex()));
        match DirLock::try_acquire(path, "training election") {
            Ok(Some(lock)) => Some(TrainLock { _lock: Some(lock) }),
            Ok(None) => None,
            Err(e) => {
                eprintln!("fedval_cache: train lock unavailable: {e} (training uncoordinated)");
                Some(TrainLock { _lock: None })
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            resident_cells: self.store.len(),
            resident_bytes: self.store.resident_bytes(),
            capacity_bytes: self.store.capacity_cells() * CELL_COST_BYTES,
            evictions: self.store.evictions(),
            spilled_cells: self.spilled_cells.load(Ordering::Relaxed),
            disk_cells_loaded: self.disk_cells_loaded.load(Ordering::Relaxed),
            corrupt_events: self.corrupt_events.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            disk_degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// Proof that this process won (or runs without) a world's training
/// election. Dropping it releases the election lock; a process killed
/// while holding one releases it via the kernel.
#[derive(Debug)]
pub struct TrainLock {
    _lock: Option<DirLock>,
}

impl Drop for CellCache {
    /// Best-effort persistence of whatever is still dirty when the last
    /// owner lets go (jobs also flush explicitly at their boundaries).
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fedval-cellcache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(round: u32, subset: u64) -> CellKey {
        CellKey {
            trace: Fingerprint::from_bits(99),
            tier: 0,
            round,
            subset,
        }
    }

    #[test]
    fn memory_only_cache_shares_and_evicts() {
        let cache = CellCache::in_memory(2 * CELL_COST_BYTES);
        for i in 0..5 {
            let slot = cache.slot(key(i, 1));
            assert_eq!(*slot.read(), None, "a fresh reservation is empty");
            *slot.write() = Some(i as f64);
            drop(slot);
            cache.complete(key(i, 1), i as f64);
        }
        let stats = cache.stats();
        assert!(stats.resident_cells <= 2);
        assert!(stats.evictions >= 3);
        assert_eq!(stats.spilled_cells, 0, "no disk, nothing spilled");
    }

    /// Completes `key` with `value` in `cache`, as an evaluator would.
    fn complete_cell(cache: &CellCache, key: CellKey, value: f64) {
        let slot = cache.slot(key);
        *slot.write() = Some(value);
        drop(slot);
        cache.complete(key, value);
    }

    /// Sets the modification time of every file in `dir` an hour back,
    /// so any rewrite shows as a moved mtime.
    fn backdate_all(dir: &std::path::Path) {
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        for entry in fs::read_dir(dir).unwrap() {
            fs::File::options()
                .write(true)
                .open(entry.unwrap().path())
                .unwrap()
                .set_times(fs::FileTimes::new().set_modified(old))
                .unwrap();
        }
    }

    /// Every file in `dir`: name, contents and modification time.
    fn snapshot(dir: &std::path::Path) -> Vec<(String, Vec<u8>, std::time::SystemTime)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let modified = fs::metadata(&path).unwrap().modified().unwrap();
                (name, fs::read(&path).unwrap(), modified)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn empty_flush_leaves_the_directory_untouched() {
        let dir = tmpdir("emptyflush");
        let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
        complete_cell(&cache, key(0, 0b1), 0.5);
        assert_eq!(cache.flush(), 1);
        assert!(dir.join("manifest.json").exists());
        assert!(dir.join(WRITER_LOCK_FILE).exists());
        backdate_all(&dir);
        let before = snapshot(&dir);

        assert_eq!(cache.flush(), 0);
        // A flush after a job that only read cells has nothing to write.
        let slot = cache.slot(key(0, 0b1));
        assert_eq!(*slot.read(), Some(0.5));
        drop(slot);
        assert_eq!(cache.flush(), 0);
        assert_eq!(snapshot(&dir), before, "no file written, touched or added");
        drop(cache);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writing_flush_sweeps_a_stale_orphan_tmp() {
        let dir = tmpdir("flushsweep");
        let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
        // A dead writer's half-written segment, planted after the
        // startup turn and old enough to sweep.
        let orphan = dir.join("seg-dead.cells.tmp");
        fs::write(&orphan, b"torn").unwrap();
        backdate_all(&dir);
        assert_eq!(cache.flush(), 0);
        assert!(
            orphan.exists(),
            "an empty flush leaves the sweep to a writing one"
        );

        complete_cell(&cache, key(0, 0b1), 0.5);
        assert_eq!(cache.flush(), 1);
        assert!(!orphan.exists(), "the writing flush's turn swept it");
        drop(cache);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_then_attach_round_trips_across_cache_instances() {
        let dir = tmpdir("roundtrip");
        let values = [(0u32, 0b1u64, 0.125), (1, 0b11, -7.5)];
        {
            let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
            for &(round, subset, v) in &values {
                let k = CellKey {
                    round,
                    subset,
                    ..key(0, 0)
                };
                let slot = cache.slot(k);
                *slot.write() = Some(v);
                drop(slot);
                cache.complete(k, v);
            }
            assert_eq!(cache.flush(), 2);
        }
        // Fresh cache instance = simulated process restart.
        let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
        let loaded = cache.attach(Fingerprint::from_bits(99), 0);
        assert_eq!(loaded, 2);
        for &(round, subset, v) in &values {
            let k = CellKey {
                round,
                subset,
                ..key(0, 0)
            };
            assert_eq!(*cache.slot(k).read(), Some(v));
        }
        // Second attach is a no-op.
        assert_eq!(cache.attach(Fingerprint::from_bits(99), 0), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_pressure_spills_dirty_cells_to_disk() {
        let dir = tmpdir("spill");
        {
            let cache = CellCache::with_dir(CELL_COST_BYTES, &dir);
            for i in 0..10 {
                let k = key(i, 1);
                let slot = cache.slot(k);
                *slot.write() = Some(i as f64);
                drop(slot);
                cache.complete(k, i as f64);
            }
            cache.flush();
            assert!(cache.stats().spilled_cells == 10, "all 10 must persist");
        }
        let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
        assert_eq!(cache.attach(Fingerprint::from_bits(99), 0), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_flushes_dirty_cells() {
        let dir = tmpdir("dropflush");
        {
            let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
            let slot = cache.slot(key(0, 1));
            *slot.write() = Some(2.5);
            drop(slot);
            cache.complete(key(0, 1), 2.5);
            // No explicit flush: Drop must persist.
        }
        let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
        assert_eq!(cache.attach(Fingerprint::from_bits(99), 0), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_from_env_defaults() {
        let config = CacheConfig::default();
        assert_eq!(config.memory_budget_bytes, DEFAULT_MEM_BUDGET_BYTES);
        assert!(config.disk_dir.is_none());
    }

    #[test]
    fn unusable_dir_degrades_to_memory_only() {
        // The "directory" path runs through a regular file, so
        // create_dir_all must fail — even as root (chmod tricks don't
        // bind root).
        let blocker = tmpdir("blocker");
        fs::create_dir_all(&blocker).unwrap();
        let file = blocker.join("not-a-dir");
        fs::write(&file, b"x").unwrap();
        let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, file.join("cache"));
        assert!(!cache.has_disk());
        assert!(cache.is_degraded());
        assert!(cache.stats().disk_degraded);
        // Jobs still work from memory.
        let k = key(0, 1);
        let slot = cache.slot(k);
        assert_eq!(*slot.read(), None, "a fresh reservation is empty");
        *slot.write() = Some(1.5);
        drop(slot);
        cache.complete(k, 1.5);
        assert_eq!(*cache.slot(k).read(), Some(1.5));
        assert_eq!(cache.flush(), 0);
        assert_eq!(cache.attach(Fingerprint::from_bits(99), 0), 0);
        assert!(matches!(
            cache.load_trace(Fingerprint::from_bits(1)),
            TraceLoad::Absent
        ));
        assert!(
            cache.try_train_lock(Fingerprint::from_bits(1)).is_some(),
            "degraded cache self-elects (nobody to coordinate with)"
        );
        fs::remove_dir_all(&blocker).unwrap();
    }

    #[test]
    fn repeated_write_failures_degrade_instead_of_buffering_forever() {
        let dir = tmpdir("writefail");
        let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
        assert!(cache.has_disk());
        // Yank the directory out from under the cache: every segment
        // write now fails.
        fs::remove_dir_all(&dir).unwrap();
        for i in 0..(WRITE_ERROR_LIMIT + 2) {
            let k = key(i as u32, 1);
            let slot = cache.slot(k);
            *slot.write() = Some(i as f64);
            drop(slot);
            cache.complete(k, i as f64);
            cache.flush();
        }
        let stats = cache.stats();
        assert!(stats.disk_degraded, "must give up, not retry forever");
        assert!(stats.write_errors >= WRITE_ERROR_LIMIT);
        assert_eq!(stats.spilled_cells, 0);
        assert!(!cache.has_disk());
        // Values remain served from memory, bit-exact.
        assert_eq!(*cache.slot(key(0, 1)).read(), Some(0.0));
    }

    #[test]
    fn trace_round_trips_through_the_cache_facade() {
        let dir = tmpdir("facadetrace");
        let world = Fingerprint::from_bits(7777);
        let record = TraceRecord {
            num_clients: 1,
            rounds: vec![TraceRound {
                global: vec![0.5],
                locals: vec![vec![-0.5]],
                selected: 0b1,
                eta: 0.25,
            }],
            final_params: vec![0.125],
            base_losses: vec![0.75],
        };
        {
            let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
            assert!(matches!(cache.load_trace(world), TraceLoad::Absent));
            assert!(cache.store_trace(world, &record));
        }
        // Fresh instance = restarted process: the trace is there.
        let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
        match cache.load_trace(world) {
            TraceLoad::Ready(loaded) => assert_eq!(loaded, record),
            _ => panic!("restarted process must find the persisted trace"),
        }
        // Corruption is counted and degrades to retrain.
        let path = dir.join(trace_file_name(world));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.load_trace(world), TraceLoad::Corrupt));
        assert_eq!(cache.stats().corrupt_events, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn train_lock_elects_a_single_trainer_per_world() {
        let dir = tmpdir("trainlock");
        let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, &dir);
        let world = Fingerprint::from_bits(11);
        let other_world = Fingerprint::from_bits(22);
        let won = cache.try_train_lock(world).expect("uncontended election");
        assert!(
            cache.try_train_lock(world).is_none(),
            "second contender for the same world must lose"
        );
        assert!(
            cache.try_train_lock(other_world).is_some(),
            "elections are per-world"
        );
        drop(won);
        assert!(
            cache.try_train_lock(world).is_some(),
            "release re-opens the election"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_only_cache_always_wins_its_own_election() {
        let cache = CellCache::in_memory(DEFAULT_MEM_BUDGET_BYTES);
        assert!(cache.try_train_lock(Fingerprint::from_bits(1)).is_some());
        assert!(!cache.store_trace(
            Fingerprint::from_bits(1),
            &TraceRecord {
                num_clients: 0,
                rounds: Vec::new(),
                final_params: Vec::new(),
                base_losses: Vec::new(),
            }
        ));
    }
}
