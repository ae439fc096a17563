//! The in-process shared cell store: a bounded map from [`CellKey`] to
//! write-once value slots, with second-chance (clock-LRU) eviction.
//!
//! # Correctness model
//!
//! Utility cells are *pure*: `U_t(S)` is fully determined by the trace
//! fingerprint, determinism tier, round, and subset. That makes
//! recompute-on-miss free-correct — eviction can cost time, never
//! accuracy — and it is what licenses the store's one relaxation of the
//! oracle's historical "exactly-once" guarantee: if a cell is evicted
//! while an evaluator still intends to use its key (but no longer holds
//! its slot), a later lookup reserves a *fresh* slot and recomputes the
//! same bits.
//!
//! The store is the oracle's only cell store: a fresh oracle keeps its
//! cells in a private, unbounded store, and attaching a shared cache
//! swaps in a bounded one. Each cell is a [`CellSlot`]: the first
//! evaluator to take the write lock computes, everyone else reads. The
//! store only decides *which* slot a key currently maps to.
//!
//! # Eviction
//!
//! Entries are swept with a second-chance queue: each lookup sets a
//! `referenced` bit; the sweep clears it and re-queues, evicting an
//! entry only when it comes around unreferenced. Two kinds of entries
//! are never evicted:
//!
//! * **pinned** entries — someone outside the store holds the slot
//!   `Arc` (an in-flight evaluator), detected by `Arc::strong_count`.
//!   This both protects in-progress computes and guarantees the sweep
//!   never blocks on a slot lock: with a strong count of 1 nobody can
//!   hold the `RwLock`.
//! * nothing else — *completed* and *abandoned* (reserved then dropped
//!   without completing, e.g. a cancelled job) entries are both fair
//!   game; abandoned ones are simply dropped since they hold no value.
//!
//! Because plan evaluation pins every slot it batches, a plan larger
//! than the budget transiently overshoots it; the store shrinks back as
//! the evaluator releases its pins. The budget therefore bounds
//! *resident completed* cells, not instantaneous reservations.

use crate::hash::Fingerprint;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A write-once utility-cell slot: `None` until the first evaluator
/// computes under the write lock.
pub type CellSlot = Arc<RwLock<Option<f64>>>;

/// Identity of one utility cell across processes and sessions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CellKey {
    /// Fingerprint of the training trace + test set + model + base
    /// losses (see `fedval_fl`'s oracle fingerprinting).
    pub trace: Fingerprint,
    /// [`fedval_linalg::DeterminismTier::id`] — tiers never share cells.
    pub tier: u8,
    /// Training round `t` of `U_t(S)`.
    pub round: u32,
    /// Client-subset bitmask `S`.
    pub subset: u64,
}

/// Estimated resident bytes per cached cell, the unit of the store's
/// memory accounting: 32-byte key + second-chance queue entry, ~56
/// bytes of `Arc<RwLock<Option<f64>>>` allocation, entry flags, and
/// hash-map load-factor slack. Deliberately a small over-estimate — the
/// budget should err toward evicting early.
pub const CELL_COST_BYTES: usize = 176;

struct Entry {
    slot: CellSlot,
    /// Second-chance bit, set on every lookup.
    referenced: bool,
    /// Completed in this process and not yet persisted (spill / flush
    /// candidates). Disk-loaded cells are clean and drop silently.
    dirty: bool,
    /// Whether `mark_complete` ran for this entry (the slot holds a
    /// value that is safe to read without blocking once unpinned).
    complete: bool,
}

struct StoreInner {
    map: HashMap<CellKey, Entry>,
    /// Second-chance sweep order; stale keys (already evicted) are
    /// dropped lazily as the hand reaches them.
    queue: VecDeque<CellKey>,
    /// How many entries are `dirty`, so a drain with nothing to write
    /// returns without a scan.
    dirty_cells: usize,
    evictions: u64,
    abandoned: u64,
}

/// Bounded shared store of completed utility cells.
pub struct CellStore {
    inner: Mutex<StoreInner>,
    capacity_cells: usize,
}

/// What a [`CellStore::slot`] lookup found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotState {
    /// Key already mapped to a completed cell.
    Complete,
    /// Key mapped to a slot still being (or waiting to be) computed.
    Pending,
    /// Key was absent; a fresh slot was reserved.
    Reserved,
}

impl CellStore {
    /// A store holding at most `capacity` cells (minimum 1).
    pub fn with_capacity_cells(capacity: usize) -> Self {
        CellStore {
            inner: Mutex::new(StoreInner {
                map: HashMap::new(),
                queue: VecDeque::new(),
                dirty_cells: 0,
                evictions: 0,
                abandoned: 0,
            }),
            capacity_cells: capacity.max(1),
        }
    }

    /// A store budgeted in bytes via [`CELL_COST_BYTES`] accounting.
    pub fn with_budget_bytes(bytes: usize) -> Self {
        Self::with_capacity_cells(bytes / CELL_COST_BYTES)
    }

    /// Cell capacity (the byte budget divided by [`CELL_COST_BYTES`]).
    pub fn capacity_cells(&self) -> usize {
        self.capacity_cells
    }

    /// The slot for `key`, reserving a fresh one if absent, plus what
    /// was found. Marks the entry referenced. May evict (returning
    /// spill candidates) if the reservation pushed the store over
    /// budget.
    pub fn slot(&self, key: CellKey) -> (CellSlot, SlotState, Vec<(CellKey, f64)>) {
        let mut inner = self.inner.lock();
        let (slot, state) = match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.referenced = true;
                let state = if entry.complete {
                    SlotState::Complete
                } else {
                    SlotState::Pending
                };
                (Arc::clone(&entry.slot), state)
            }
            None => {
                let slot: CellSlot = Arc::new(RwLock::new(None));
                inner.map.insert(
                    key,
                    Entry {
                        slot: Arc::clone(&slot),
                        referenced: true,
                        dirty: false,
                        complete: false,
                    },
                );
                inner.queue.push_back(key);
                (slot, SlotState::Reserved)
            }
        };
        let spill = self.enforce_budget(&mut inner);
        (slot, state, spill)
    }

    /// Records that `key`'s cell now holds `value`. If the entry was
    /// evicted between reservation and completion (possible only after
    /// the computing evaluator dropped its slot clone), the completed
    /// value is re-inserted so the work is not lost. Returns dirty
    /// cells evicted by the post-completion budget check.
    pub fn mark_complete(&self, key: CellKey, value: f64) -> Vec<(CellKey, f64)> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.complete = true;
                inner.dirty_cells += usize::from(!entry.dirty);
                entry.dirty = true;
            }
            None => {
                inner.map.insert(
                    key,
                    Entry {
                        slot: Arc::new(RwLock::new(Some(value))),
                        referenced: true,
                        dirty: true,
                        complete: true,
                    },
                );
                inner.queue.push_back(key);
                inner.dirty_cells += 1;
            }
        }
        self.enforce_budget(inner)
    }

    /// Inserts a cell loaded from disk (clean: never re-spilled). An
    /// existing entry for the key is left untouched — a pending compute
    /// will arrive at the same bits. Returns spill candidates from the
    /// budget check.
    pub fn insert_clean(&self, key: CellKey, value: f64) -> Vec<(CellKey, f64)> {
        let mut inner = self.inner.lock();
        if let std::collections::hash_map::Entry::Vacant(e) = inner.map.entry(key) {
            e.insert(Entry {
                slot: Arc::new(RwLock::new(Some(value))),
                referenced: false,
                dirty: false,
                complete: true,
            });
            inner.queue.push_back(key);
        }
        self.enforce_budget(&mut inner)
    }

    /// Drains every dirty completed cell (marking it clean) for
    /// persistence. Cells whose slots are pinned by an evaluator are
    /// still drained — completed slots are only ever read-locked, and
    /// any write-lock holder is a raced evaluator about to observe
    /// `Some` and release, so the read below blocks at most briefly.
    /// With no dirty cell, as after a job that only hit, it returns
    /// without scanning the store.
    pub fn drain_dirty(&self) -> Vec<(CellKey, f64)> {
        let mut inner = self.inner.lock();
        let mut out = Vec::new();
        if inner.dirty_cells == 0 {
            return out;
        }
        let keys: Vec<CellKey> = inner
            .map
            .iter()
            .filter(|(_, e)| e.complete && e.dirty)
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            let entry = inner.map.get_mut(&key).expect("key collected above");
            if let Some(value) = *entry.slot.read() {
                entry.dirty = false;
                out.push((key, value));
            }
        }
        inner.dirty_cells -= out.len();
        out
    }

    /// Number of resident entries (completed + in-flight reservations).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated resident bytes ([`CELL_COST_BYTES`] × entries).
    pub fn resident_bytes(&self) -> usize {
        self.len() * CELL_COST_BYTES
    }

    /// Completed cells evicted so far (abandoned reservations excluded).
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Abandoned (never-completed, unpinned) reservations dropped.
    pub fn abandoned(&self) -> u64 {
        self.inner.lock().abandoned
    }

    /// Evicts second-chance victims until the store fits its budget or
    /// no victim is available (everything pinned/referenced), returning
    /// the dirty completed cells evicted so the caller can spill them.
    /// The sweep is bounded at two passes over the queue so a fully
    /// pinned store cannot loop forever — it simply stays over budget
    /// until pins are released.
    fn enforce_budget(&self, inner: &mut StoreInner) -> Vec<(CellKey, f64)> {
        let mut spill = Vec::new();
        if inner.map.len() <= self.capacity_cells {
            return spill;
        }
        let mut steps = inner.queue.len().saturating_mul(2);
        while inner.map.len() > self.capacity_cells && steps > 0 {
            steps -= 1;
            let Some(key) = inner.queue.pop_front() else {
                break;
            };
            let Some(entry) = inner.map.get_mut(&key) else {
                continue; // stale queue entry; already gone
            };
            // Pinned: an evaluator holds the slot. Skip without
            // clearing the referenced bit — pins are short-lived and
            // shouldn't also cost the entry its second chance.
            if Arc::strong_count(&entry.slot) > 1 {
                inner.queue.push_back(key);
                continue;
            }
            if entry.referenced {
                entry.referenced = false;
                inner.queue.push_back(key);
                continue;
            }
            // Unpinned and unreferenced: evict. strong_count == 1 means
            // nobody can hold the lock, so this read never blocks.
            let entry = inner.map.remove(&key).expect("entry checked above");
            inner.dirty_cells -= usize::from(entry.dirty);
            let value = *entry.slot.read();
            match value {
                Some(value) => {
                    inner.evictions += 1;
                    if entry.dirty {
                        spill.push((key, value));
                    }
                }
                None => inner.abandoned += 1,
            }
        }
        spill
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(round: u32, subset: u64) -> CellKey {
        CellKey {
            trace: Fingerprint::from_bits(7),
            tier: 0,
            round,
            subset,
        }
    }

    fn complete(store: &CellStore, k: CellKey, v: f64) -> Vec<(CellKey, f64)> {
        let (slot, _, mut spill) = store.slot(k);
        *slot.write() = Some(v);
        drop(slot);
        spill.extend(store.mark_complete(k, v));
        spill
    }

    #[test]
    fn reserve_then_complete_round_trips() {
        let store = CellStore::with_capacity_cells(8);
        let (slot, state, _) = store.slot(key(0, 0b11));
        assert_eq!(state, SlotState::Reserved);
        assert!(slot.read().is_none());
        *slot.write() = Some(1.5);
        drop(slot);
        store.mark_complete(key(0, 0b11), 1.5);
        let (slot, state, _) = store.slot(key(0, 0b11));
        assert_eq!(state, SlotState::Complete);
        assert_eq!(*slot.read(), Some(1.5));
    }

    #[test]
    fn eviction_respects_budget_and_spills_dirty() {
        let store = CellStore::with_capacity_cells(2);
        let mut spilled = Vec::new();
        for i in 0..6 {
            spilled.extend(complete(&store, key(i, 1), i as f64));
        }
        assert!(store.len() <= 2, "len {} over budget", store.len());
        assert!(store.evictions() >= 4);
        // Everything evicted was dirty (computed here, never persisted).
        assert_eq!(spilled.len() as u64, store.evictions());
    }

    #[test]
    fn pinned_slots_are_never_evicted() {
        let store = CellStore::with_capacity_cells(1);
        let (pinned, _, _) = store.slot(key(0, 1));
        for i in 1..5 {
            complete(&store, key(i, 1), i as f64);
        }
        // The pinned reservation must survive the pressure.
        let (again, state, _) = store.slot(key(0, 1));
        assert_eq!(state, SlotState::Pending);
        assert!(Arc::ptr_eq(&pinned, &again));
    }

    #[test]
    fn clean_inserts_do_not_spill() {
        let store = CellStore::with_capacity_cells(2);
        let mut spilled = Vec::new();
        for i in 0..6 {
            spilled.extend(store.insert_clean(key(i, 1), i as f64));
        }
        assert!(spilled.is_empty());
        assert!(store.len() <= 2);
    }

    #[test]
    fn drain_dirty_marks_clean() {
        let store = CellStore::with_capacity_cells(8);
        complete(&store, key(0, 1), 0.25);
        complete(&store, key(1, 1), 0.5);
        let drained = store.drain_dirty();
        assert_eq!(drained.len(), 2);
        assert!(store.drain_dirty().is_empty(), "second drain must be empty");
    }

    /// What the drain found before it kept a count: every resident
    /// complete, dirty entry holding a value, by a scan of the store.
    fn scanned_dirty(store: &CellStore) -> Vec<(CellKey, f64)> {
        let inner = store.inner.lock();
        let mut out: Vec<(CellKey, f64)> = inner
            .map
            .iter()
            .filter(|(_, e)| e.complete && e.dirty)
            .filter_map(|(k, e)| e.slot.read().map(|v| (*k, v)))
            .collect();
        assert_eq!(
            inner.dirty_cells,
            inner.map.values().filter(|e| e.dirty).count(),
            "the dirty count must match the entries"
        );
        out.sort_by_key(|(k, _)| (k.round, k.subset));
        out
    }

    fn sorted(mut cells: Vec<(CellKey, f64)>) -> Vec<(CellKey, f64)> {
        cells.sort_by_key(|(k, _)| (k.round, k.subset));
        cells
    }

    #[test]
    fn a_drain_after_a_fully_warm_job_is_empty() {
        let store = CellStore::with_capacity_cells(4096);
        let keys: Vec<CellKey> = (0..3510).map(|i| key(i / 90, i as u64 % 90)).collect();
        for (i, &k) in keys.iter().enumerate() {
            complete(&store, k, i as f64);
        }
        assert_eq!(
            store.drain_dirty().len(),
            keys.len(),
            "the cold job's flush"
        );
        // The warm job: every cell hits.
        for &k in &keys {
            let (_slot, state, spill) = store.slot(k);
            assert_eq!(state, SlotState::Complete);
            assert!(spill.is_empty());
        }
        assert!(store.drain_dirty().is_empty());
        assert_eq!(store.inner.lock().dirty_cells, 0);
    }

    #[test]
    fn mixed_puts_hits_and_evictions_drain_what_a_scan_finds() {
        let store = CellStore::with_capacity_cells(16);
        let mut pinned = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut drained_cells = 0;
        for step in 0..4000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let k = key((state >> 40) as u32 % 3, (state >> 20) % 20);
            let value = f64::from(k.round) * 100.0 + k.subset as f64;
            match (state >> 60) % 8 {
                0..=2 => {
                    complete(&store, k, value);
                }
                3 | 4 => {
                    store.slot(k);
                }
                5 => {
                    store.insert_clean(k, value);
                }
                6 => {
                    // An in-flight reservation, held for a while.
                    pinned.push(store.slot(k).0);
                    if pinned.len() > 3 {
                        pinned.remove(0);
                    }
                }
                _ => {
                    let want = scanned_dirty(&store);
                    let got = sorted(store.drain_dirty());
                    assert_eq!(got, want, "step {step}");
                    drained_cells += got.len();
                    assert!(store.drain_dirty().is_empty(), "step {step}: drained twice");
                }
            }
            scanned_dirty(&store);
        }
        assert!(drained_cells > 100, "the sequence must drain cells");
        assert!(store.evictions() > 100, "the sequence must evict");
    }

    #[test]
    fn abandoned_reservations_are_dropped_not_counted_as_evictions() {
        let store = CellStore::with_capacity_cells(1);
        for i in 0..4 {
            let (_slot, _, _) = store.slot(key(i, 1));
            // slot dropped immediately: abandoned
        }
        complete(&store, key(9, 1), 1.0);
        complete(&store, key(10, 1), 2.0);
        assert!(store.abandoned() >= 1);
    }

    #[test]
    fn late_completion_after_eviction_reinserts() {
        let store = CellStore::with_capacity_cells(1);
        let (slot, _, _) = store.slot(key(0, 1));
        *slot.write() = Some(3.0);
        drop(slot); // unpinned, not yet complete
        for i in 1..4 {
            complete(&store, key(i, 1), i as f64);
        }
        // key(0,1) may have been dropped as abandoned; completion must
        // still land the value.
        store.mark_complete(key(0, 1), 3.0);
        let (slot, state, _) = store.slot(key(0, 1));
        assert_eq!(state, SlotState::Complete);
        assert_eq!(*slot.read(), Some(3.0));
        // The re-inserted cell is dirty, and the drain finds it.
        let want = scanned_dirty(&store);
        assert!(want.contains(&(key(0, 1), 3.0)));
        assert_eq!(sorted(store.drain_dirty()), want);
    }
}
