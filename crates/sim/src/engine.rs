//! The production event loop: calendar-queue core, struct-of-arrays
//! hot state, batched same-timestamp scheduling, and precomputed
//! per-scenario dispatch tables.
//!
//! This is the next-generation rewrite of the PR 3 heap engine (since
//! deleted). Its one differential reference is the quadratic loop in
//! [`crate::naive`], which shares [`run_tagged`]'s signature. The four
//! structural changes, each preserving the event order bit-for-bit:
//!
//! * **Calendar-queue completion list** — the `BinaryHeap` completion
//!   calendar becomes a bucketed [`CalendarQueue`](crate::calendar):
//!   O(1) amortized insert, drains that scan only the occupied-bucket
//!   bitmask, and a per-cohort unstable sort under the same total
//!   `(t, key, sensor_frame, token)` tie-break the PR 3 heap popped in.
//! * **Struct-of-arrays slot state** — the `ready` and `waiting`
//!   queues are flat per-field arrays over the dense
//!   `user * NUM_MODELS + model` key, pre-sized at setup, so
//!   supersession, requeue, and dependency resolution touch cache
//!   lines instead of allocating or chasing options.
//! * **Batched cohort scheduling** — removals from the scheduler's
//!   [`PendingView`] buffer during a same-timestamp cohort (steps 1–3)
//!   are tombstones compacted once before dispatch, amortizing the
//!   buffer memmoves over the cohort instead of paying them per event.
//!   On top of that, schedulers that declare a closed-form
//!   [`DispatchKernel`] are driven through an indexed fast path — a
//!   segment-tree argmin over the scheduler's own total request order
//!   plus a bitmask free-engine set — that reproduces their `select`
//!   picks exactly while skipping the per-pick linear scans entirely.
//! * **Precomputed dispatch tables** — per-*scenario* dependency and
//!   reverse-dependency lists are deduplicated and flattened into CSR
//!   tables once per run ([`Tables`]), so the per-user setup cost and
//!   footprint collapse from `users × models` heap vectors to one
//!   shared table plus a `user → scenario` index.
//!
//! Output is **bit-identical** to [`crate::naive`]; the differential
//! property tests in `tests/runtime_properties.rs` and the golden
//! fixtures enforce it across all schedulers, record modes, and fault
//! policies. The fault-injection semantics (revocation, recovery
//! policies, deferred emission) are unchanged since PR 7 — faulted
//! runs always take the generic `select` path, since kernels cannot
//! observe mid-run outages.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use xrbench_models::ModelId;
use xrbench_workload::ScenarioSpec;

use crate::calendar::{CalendarQueue, CompletionEv};
use crate::fault::{FaultAction, FaultKind, FaultTimeline, RecoveryPolicy};
use crate::provider::{CostProvider, DenseCostCache, NUM_MODELS};
use crate::result::{DropReason, ExecRecord, ModelStats, SimResult};
use crate::scheduler::{DispatchKernel, PendingView, Scheduler};
use crate::simulator::{trigger_draw, Pending, Resolution, SimConfig, EPS};

/// Sentinel for "slot empty" in the SoA queues (a real sequence number
/// never reaches it: sequence numbers count queue insertions).
const EMPTY_SEQ: u64 = u64::MAX;

/// Maps an `f64` to a `u64` whose unsigned order equals
/// `f64::total_cmp` order — the standard sign-flip trick, letting the
/// pick tree compare times as plain integers.
#[inline]
fn time_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The two total request orders every kernel-declaring scheduler uses
/// (see [`DispatchKernel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum PickOrder {
    /// `(t_deadline, t_req, model, user)` under `total_cmp`.
    Edf,
    /// `(t_req, model, user)` under `total_cmp`.
    Fifo,
}

/// A pick-tree key: three `u64` words compared lexicographically.
type PickKey = [u64; 3];

/// The "no entry" key. No real key can collide: the third word of an
/// EDF key (and second of a FIFO key) packs `(model, user)` below
/// `2^63`, and a FIFO key's third word is zero.
const EMPTY_PICK: PickKey = [u64::MAX; 3];

/// Encodes a ready entry under `order` so that unsigned lexicographic
/// comparison of the words reproduces the scheduler's request order.
/// Keys are unique: the ready queue holds at most one entry per
/// `(user, model)` and the `(model, user)` word totalizes the order.
#[inline]
fn pick_key(order: PickOrder, model: usize, user: u32, t_req: f64, t_deadline: f64) -> PickKey {
    let mu = ((model as u64) << 32) | u64::from(user);
    match order {
        PickOrder::Edf => [time_bits(t_deadline), time_bits(t_req), mu],
        PickOrder::Fifo => [time_bits(t_req), mu, 0],
    }
}

/// An iterative segment tree over the dense key space computing the
/// argmin of [`PickKey`]s — the kernel path's replacement for the
/// per-pick linear `min_by` scan. `set`/`clear` climb one root path
/// (O(log keys)); the minimum is read at the root in O(1). Because
/// keys are unique, the tie direction of `<=` is never exercised and
/// the argmin equals the first minimal element a linear scan returns.
struct PickTree {
    size: usize,
    key: Vec<PickKey>,
    arg: Vec<u32>,
}

impl PickTree {
    fn new(num_keys: usize) -> Self {
        let size = num_keys.next_power_of_two().max(2);
        Self {
            size,
            key: vec![EMPTY_PICK; 2 * size],
            arg: vec![0; 2 * size],
        }
    }

    fn set(&mut self, slot: usize, k: PickKey) {
        let mut i = self.size + slot;
        self.key[i] = k;
        self.arg[i] = slot as u32;
        while i > 1 {
            i >>= 1;
            let (l, r) = (2 * i, 2 * i + 1);
            if self.key[l] <= self.key[r] {
                self.key[i] = self.key[l];
                self.arg[i] = self.arg[l];
            } else {
                self.key[i] = self.key[r];
                self.arg[i] = self.arg[r];
            }
        }
    }

    fn clear(&mut self, slot: usize) {
        self.set(slot, EMPTY_PICK);
    }

    /// The dense key holding the minimal pick key, if any entry is
    /// queued.
    fn min_slot(&self) -> Option<usize> {
        if self.key[1] == EMPTY_PICK {
            None
        } else {
            Some(self.arg[1] as usize)
        }
    }
}

/// Per-entry metadata parallel to the scheduler-facing view buffer.
/// `seq` is strictly increasing across entries (position lookup by
/// binary search — dead entries stay in place until compaction so the
/// search invariant holds mid-cohort).
#[derive(Debug, Clone, Copy)]
struct BufMeta {
    seq: u64,
    key: u32,
    dead: bool,
}

/// How the ready queue indexes its entries for dispatch.
enum ReadyIndex {
    /// The generic path: an insertion-ordered [`PendingView`] buffer
    /// handed to `Scheduler::select`, with tombstoned removals
    /// compacted once per cohort.
    Buffer {
        views: Vec<PendingView>,
        meta: Vec<BufMeta>,
        dead: usize,
    },
    /// The kernel path: a [`PickTree`] argmin over the scheduler's
    /// declared request order. No view buffer is maintained at all.
    Tree { tree: PickTree, order: PickOrder },
}

/// The dispatchable-request queue in struct-of-arrays layout: one slot
/// per dense `(user, model)` key (`seq == EMPTY_SEQ` marks empty),
/// pre-sized at setup, plus the dispatch index.
struct Ready {
    seq: Vec<u64>,
    frame_id: Vec<u64>,
    sensor_frame: Vec<u64>,
    t_req: Vec<f64>,
    t_deadline: Vec<f64>,
    /// Remaining-work fraction: 1.0 for fresh frames, smaller for
    /// checkpointed work migrating off a lost engine.
    frac: Vec<f64>,
    count: usize,
    index: ReadyIndex,
}

impl Ready {
    fn new(num_keys: usize, kernel_order: Option<PickOrder>) -> Self {
        let index = match kernel_order {
            Some(order) => ReadyIndex::Tree {
                tree: PickTree::new(num_keys),
                order,
            },
            None => ReadyIndex::Buffer {
                views: Vec::with_capacity(num_keys),
                meta: Vec::with_capacity(num_keys),
                dead: 0,
            },
        };
        Self {
            seq: vec![EMPTY_SEQ; num_keys],
            frame_id: vec![0; num_keys],
            sensor_frame: vec![0; num_keys],
            t_req: vec![0.0; num_keys],
            t_deadline: vec![0.0; num_keys],
            frac: vec![1.0; num_keys],
            count: 0,
            index,
        }
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    fn occupied(&self, key: usize) -> bool {
        self.seq[key] != EMPTY_SEQ
    }

    /// Detaches `key`'s queued entry from the dispatch index (tombstone
    /// in buffer mode, O(log keys) clear in tree mode).
    fn detach(&mut self, key: usize) {
        match &mut self.index {
            ReadyIndex::Buffer { meta, dead, .. } => {
                let pos = meta
                    .binary_search_by_key(&self.seq[key], |m| m.seq)
                    .expect("slot seq is queued");
                meta[pos].dead = true;
                *dead += 1;
            }
            ReadyIndex::Tree { tree, .. } => tree.clear(key),
        }
    }

    /// Attaches `key`'s (freshly written) slot to the dispatch index.
    fn attach(&mut self, key: usize, user: u32, model: ModelId) {
        match &mut self.index {
            ReadyIndex::Buffer { views, meta, .. } => {
                views.push(PendingView {
                    user,
                    model,
                    frame_id: self.frame_id[key],
                    t_req: self.t_req[key],
                    t_deadline: self.t_deadline[key],
                });
                meta.push(BufMeta {
                    seq: self.seq[key],
                    key: key as u32,
                    dead: false,
                });
            }
            ReadyIndex::Tree { tree, order } => {
                tree.set(
                    key,
                    pick_key(
                        *order,
                        key % NUM_MODELS,
                        user,
                        self.t_req[key],
                        self.t_deadline[key],
                    ),
                );
            }
        }
    }

    /// Pushes a new entry for `key`, dropping (freshness policy) the
    /// key's older queued frame if one exists.
    #[allow(clippy::too_many_arguments)]
    fn supersede_push(
        &mut self,
        key: usize,
        user: u32,
        model: ModelId,
        frame_id: u64,
        sensor_frame: u64,
        t_req: f64,
        t_deadline: f64,
        seq: u64,
        stats: &mut [ModelStats],
    ) {
        if self.occupied(key) {
            assert!(
                self.frame_id[key] < frame_id,
                "ready queue requires strictly increasing frame ids per (user, model)"
            );
            stats[key].record_drop(DropReason::Superseded);
            self.detach(key);
            self.count -= 1;
        }
        self.seq[key] = seq;
        self.frame_id[key] = frame_id;
        self.sensor_frame[key] = sensor_frame;
        self.t_req[key] = t_req;
        self.t_deadline[key] = t_deadline;
        self.frac[key] = 1.0;
        self.count += 1;
        self.attach(key, user, model);
    }

    /// Re-queues a revoked in-flight frame (requeue/migrate recovery)
    /// carrying its remaining-work fraction. The key's slot must be
    /// empty — if a newer frame is queued, freshness drops the revoked
    /// one instead of calling this.
    #[allow(clippy::too_many_arguments)]
    fn requeue_push(
        &mut self,
        key: usize,
        user: u32,
        model: ModelId,
        frame_id: u64,
        sensor_frame: u64,
        t_req: f64,
        t_deadline: f64,
        seq: u64,
        frac: f64,
    ) {
        assert!(!self.occupied(key), "requeue into an occupied slot");
        self.seq[key] = seq;
        self.frame_id[key] = frame_id;
        self.sensor_frame[key] = sensor_frame;
        self.t_req[key] = t_req;
        self.t_deadline[key] = t_deadline;
        self.frac[key] = frac;
        self.count += 1;
        self.attach(key, user, model);
    }

    /// Compacts tombstoned buffer entries (order-preserving, so the
    /// surviving views sit exactly where a sequence of immediate
    /// removals would have left them). Called once per cohort, before
    /// the dispatch loop hands `views` to the scheduler.
    fn compact(&mut self) {
        if let ReadyIndex::Buffer { views, meta, dead } = &mut self.index {
            if *dead == 0 {
                return;
            }
            let mut w = 0;
            for r in 0..meta.len() {
                if !meta[r].dead {
                    if w != r {
                        meta[w] = meta[r];
                        views[w] = views[r];
                    }
                    w += 1;
                }
            }
            meta.truncate(w);
            views.truncate(w);
            *dead = 0;
        }
    }

    /// The scheduler-facing view slice (buffer mode only; must be
    /// compacted).
    fn views(&self) -> &[PendingView] {
        match &self.index {
            ReadyIndex::Buffer { views, .. } => views,
            ReadyIndex::Tree { .. } => unreachable!("kernel path never calls select"),
        }
    }

    /// Removes the (live) buffer entry at position `pos` for dispatch,
    /// clearing its slot. Buffer mode only.
    fn remove_pos(&mut self, pos: usize) -> (usize, PendingView, u64, f64) {
        let ReadyIndex::Buffer { views, meta, .. } = &mut self.index else {
            unreachable!("kernel path dispatches by key")
        };
        let view = views.remove(pos);
        let m = meta.remove(pos);
        let key = m.key as usize;
        self.seq[key] = EMPTY_SEQ;
        self.count -= 1;
        (key, view, self.sensor_frame[key], self.frac[key])
    }

    /// The dense key the kernel should dispatch next (tree mode only).
    fn min_key(&self) -> Option<usize> {
        match &self.index {
            ReadyIndex::Tree { tree, .. } => tree.min_slot(),
            ReadyIndex::Buffer { .. } => unreachable!("generic path dispatches via select"),
        }
    }

    /// Removes `key`'s entry for kernel dispatch, returning
    /// `(frame_id, sensor_frame, t_req, t_deadline, frac)`.
    fn take_key(&mut self, key: usize) -> (u64, u64, f64, f64, f64) {
        let ReadyIndex::Tree { tree, .. } = &mut self.index else {
            unreachable!("generic path dispatches via select")
        };
        tree.clear(key);
        self.seq[key] = EMPTY_SEQ;
        self.count -= 1;
        (
            self.frame_id[key],
            self.sensor_frame[key],
            self.t_req[key],
            self.t_deadline[key],
            self.frac[key],
        )
    }
}

/// The free-engine set: a bitmask (O(1) membership, word-scan
/// iteration) plus — on the generic path only — the sorted `Vec`
/// mirror `Scheduler::select` receives as its `free_engines` slice.
struct FreeSet {
    list: Vec<usize>,
    words: Vec<u64>,
    count: usize,
    with_list: bool,
}

impl FreeSet {
    fn all(num_engines: usize, with_list: bool) -> Self {
        let mut words = vec![0u64; num_engines.div_ceil(64)];
        for e in 0..num_engines {
            words[e / 64] |= 1 << (e % 64);
        }
        Self {
            list: if with_list {
                (0..num_engines).collect()
            } else {
                Vec::new()
            },
            words,
            count: num_engines,
            with_list,
        }
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    fn contains(&self, e: usize) -> bool {
        self.words[e / 64] >> (e % 64) & 1 == 1
    }

    /// Inserts `e` (no-op if present).
    fn insert(&mut self, e: usize) {
        if !self.contains(e) {
            self.words[e / 64] |= 1 << (e % 64);
            self.count += 1;
            if self.with_list {
                if let Err(pos) = self.list.binary_search(&e) {
                    self.list.insert(pos, e);
                }
            }
        }
    }

    /// Removes `e` (no-op if absent).
    fn remove(&mut self, e: usize) {
        if self.contains(e) {
            self.words[e / 64] &= !(1 << (e % 64));
            self.count -= 1;
            if self.with_list {
                if let Ok(pos) = self.list.binary_search(&e) {
                    self.list.remove(pos);
                }
            }
        }
    }

    /// The lowest free engine id `>= e`, if any.
    fn first_at_or_above(&self, e: usize) -> Option<usize> {
        let mut w = e / 64;
        if w >= self.words.len() {
            return None;
        }
        let mut word = self.words[w] & (u64::MAX << (e % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            word = self.words[w];
        }
    }

    /// The lowest free engine id (the set must be non-empty).
    fn lowest(&self) -> usize {
        self.first_at_or_above(0).expect("free set is non-empty")
    }

    /// Visits every free engine in ascending id order.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.words.iter().enumerate() {
            let mut m = w;
            while m != 0 {
                f(wi * 64 + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
    }
}

/// Lazily-filled per-model engine preference rows for the EDF kernels:
/// `rows[model]` lists every engine id sorted by the kernel's engine
/// rule, so a dispatch walks the row and takes the first free one —
/// the same engine `min_by` over the free slice returns. Rows are
/// pre-allocated flat at setup and *filled* on a model's first
/// dispatch (an in-place `sort_unstable`, so no mid-loop allocation).
struct PrefTable {
    rows: Vec<u32>,
    built: Vec<bool>,
    num_engines: usize,
}

impl PrefTable {
    fn new(num_engines: usize) -> Self {
        Self {
            rows: vec![0; NUM_MODELS * num_engines],
            built: vec![false; NUM_MODELS],
            num_engines,
        }
    }

    /// The preference row for model index `mi`, building it with
    /// `fill` on first use.
    fn row(&mut self, mi: usize, fill: impl FnOnce(&mut [u32])) -> &[u32] {
        let start = mi * self.num_engines;
        let row = &mut self.rows[start..start + self.num_engines];
        if !self.built[mi] {
            for (i, r) in row.iter_mut().enumerate() {
                *r = i as u32;
            }
            fill(row);
            self.built[mi] = true;
        }
        &self.rows[start..start + self.num_engines]
    }
}

/// Precomputed per-scenario dispatch tables: scenario specs are
/// deduplicated (sessions typically share a handful of scenarios
/// across all users) and their dependency / reverse-dependency lists
/// flattened into CSR arrays indexed by `scenario * NUM_MODELS +
/// model`. Per-user state shrinks to one `u32` scenario index, and
/// the hot loop reads contiguous slices instead of per-key `Vec`s.
struct Tables {
    /// Dense user index → deduplicated scenario index.
    spec_of_user: Vec<u32>,
    /// CSR offsets/payloads for each model's upstream dependencies.
    dep_off: Vec<u32>,
    dep_up: Vec<u8>,
    dep_prob: Vec<f64>,
    /// CSR offsets/payloads for each model's dependents (reverse
    /// dependencies), in per-scenario declaration order.
    down_off: Vec<u32>,
    down: Vec<u8>,
}

impl Tables {
    fn build(specs: &[(u32, &ScenarioSpec)]) -> Self {
        let nm = NUM_MODELS;
        let mut uniq: Vec<&ScenarioSpec> = Vec::new();
        let mut spec_of_user = Vec::with_capacity(specs.len());
        for &(_, spec) in specs {
            let idx = uniq
                .iter()
                .position(|&u| std::ptr::eq(u, spec) || u == spec)
                .unwrap_or_else(|| {
                    uniq.push(spec);
                    uniq.len() - 1
                });
            spec_of_user.push(idx as u32);
        }

        let mut deps: Vec<Vec<(u8, f64)>> = vec![Vec::new(); uniq.len() * nm];
        let mut downstream: Vec<Vec<u8>> = vec![Vec::new(); uniq.len() * nm];
        for (si, spec) in uniq.iter().enumerate() {
            for m in &spec.models {
                let row = si * nm + m.model as usize;
                deps[row] = m
                    .deps
                    .iter()
                    .map(|d| (d.upstream as u8, d.trigger_probability))
                    .collect();
                for d in &m.deps {
                    downstream[si * nm + d.upstream as usize].push(m.model as u8);
                }
            }
        }

        let mut dep_off = Vec::with_capacity(deps.len() + 1);
        let mut dep_up = Vec::new();
        let mut dep_prob = Vec::new();
        dep_off.push(0u32);
        for row in &deps {
            for &(up, prob) in row {
                dep_up.push(up);
                dep_prob.push(prob);
            }
            dep_off.push(dep_up.len() as u32);
        }
        let mut down_off = Vec::with_capacity(downstream.len() + 1);
        let mut down = Vec::new();
        down_off.push(0u32);
        for row in &downstream {
            down.extend_from_slice(row);
            down_off.push(down.len() as u32);
        }

        Self {
            spec_of_user,
            dep_off,
            dep_up,
            dep_prob,
            down_off,
            down,
        }
    }

    #[inline]
    fn row(&self, key: usize) -> usize {
        self.spec_of_user[key / NUM_MODELS] as usize * NUM_MODELS + key % NUM_MODELS
    }

    #[inline]
    fn deps(&self, key: usize) -> (&[u8], &[f64]) {
        let r = self.row(key);
        let (a, b) = (self.dep_off[r] as usize, self.dep_off[r + 1] as usize);
        (&self.dep_up[a..b], &self.dep_prob[a..b])
    }

    #[inline]
    fn has_deps(&self, key: usize) -> bool {
        let r = self.row(key);
        self.dep_off[r] != self.dep_off[r + 1]
    }

    #[inline]
    fn downstream(&self, key: usize) -> &[u8] {
        let r = self.row(key);
        &self.down[self.down_off[r] as usize..self.down_off[r + 1] as usize]
    }
}

/// Per-key upstream resolution windows: a flat-array replacement for
/// a `BTreeMap<u64, Resolution>` per key. Each window
/// is a sorted `(sensor_frame, resolution)` run with a retired-prefix
/// head index — retirement advances the head (O(1) per entry, exactly
/// the `BTreeMap` pop loop), lookups binary-search the live suffix,
/// and inserts append in the common in-order case. Retired prefixes
/// are physically dropped when the window refills, so capacity stays
/// proportional to the in-flight frame window.
struct ResolutionStore {
    wins: Vec<Window>,
}

#[derive(Default, Clone)]
struct Window {
    buf: Vec<(u64, Resolution)>,
    head: usize,
}

impl ResolutionStore {
    fn new(num_keys: usize) -> Self {
        Self {
            wins: vec![Window::default(); num_keys],
        }
    }

    fn insert(&mut self, key: usize, sf: u64, res: Resolution) {
        let win = &mut self.wins[key];
        if win.head == win.buf.len() {
            win.buf.clear();
            win.head = 0;
        } else if win.head > 0 && win.buf.len() == win.buf.capacity() {
            win.buf.drain(..win.head);
            win.head = 0;
        }
        match win.buf[win.head..].binary_search_by_key(&sf, |e| e.0) {
            Ok(i) => win.buf[win.head + i].1 = res,
            Err(i) => win.buf.insert(win.head + i, (sf, res)),
        }
    }

    fn get(&self, key: usize, sf: u64) -> Option<Resolution> {
        let win = &self.wins[key];
        win.buf[win.head..]
            .binary_search_by_key(&sf, |e| e.0)
            .ok()
            .map(|i| win.buf[win.head + i].1)
    }

    /// Retires every resolution with `sensor_frame < threshold`.
    fn retire_below(&mut self, key: usize, threshold: u64) {
        let win = &mut self.wins[key];
        while win.head < win.buf.len() && win.buf[win.head].0 < threshold {
            win.head += 1;
        }
        if win.head == win.buf.len() {
            win.buf.clear();
            win.head = 0;
        }
    }
}

/// Dependent frames parked until their upstreams resolve, in
/// struct-of-arrays layout (`seq == EMPTY_SEQ` marks empty).
struct Waiting {
    seq: Vec<u64>,
    frame_id: Vec<u64>,
    sensor_frame: Vec<u64>,
    t_req: Vec<f64>,
    t_deadline: Vec<f64>,
}

impl Waiting {
    fn new(num_keys: usize) -> Self {
        Self {
            seq: vec![EMPTY_SEQ; num_keys],
            frame_id: vec![0; num_keys],
            sensor_frame: vec![0; num_keys],
            t_req: vec![0.0; num_keys],
            t_deadline: vec![0.0; num_keys],
        }
    }

    #[inline]
    fn occupied(&self, key: usize) -> bool {
        self.seq[key] != EMPTY_SEQ
    }
}

/// Raw user id → dense user index. Dense ids (the common case: session
/// builders assign 0..n) get a direct lookup table; sparse ids fall
/// back to binary search.
enum UserIndex {
    /// `table[id] == idx + 1`, 0 marks an unknown id.
    Dense(Vec<u32>),
    /// Sorted `(id, idx)` pairs.
    Sparse(Vec<(u32, u32)>),
}

impl UserIndex {
    fn build(users: &[u32]) -> Self {
        let max = users.iter().copied().max().unwrap_or(0) as usize;
        if max < users.len() * 4 + 64 {
            let mut table = vec![0u32; max + 1];
            for (idx, &u) in users.iter().enumerate() {
                assert!(table[u as usize] == 0, "duplicate session user id {u}");
                table[u as usize] = idx as u32 + 1;
            }
            UserIndex::Dense(table)
        } else {
            let mut pairs: Vec<(u32, u32)> = users
                .iter()
                .enumerate()
                .map(|(idx, &u)| (u, idx as u32))
                .collect();
            pairs.sort_unstable();
            assert!(
                pairs.windows(2).all(|w| w[0].0 != w[1].0),
                "duplicate session user ids"
            );
            UserIndex::Sparse(pairs)
        }
    }

    #[inline]
    fn get(&self, user: u32) -> usize {
        match self {
            UserIndex::Dense(table) => {
                let v = table.get(user as usize).copied().unwrap_or(0);
                assert!(v != 0, "request for unknown user {user}");
                (v - 1) as usize
            }
            UserIndex::Sparse(pairs) => {
                let i = pairs
                    .binary_search_by_key(&user, |e| e.0)
                    .unwrap_or_else(|_| panic!("request for unknown user {user}"));
                pairs[i].1 as usize
            }
        }
    }
}

/// The smallest sensor frame any dependent of `key` may still look
/// up — resolutions of `key` below this watermark are unreachable.
fn retire_threshold(key: usize, nm: usize, tables: &Tables, floor: &[u64]) -> u64 {
    let user_base = key - key % nm;
    tables
        .downstream(key)
        .iter()
        .map(|&d| floor[user_base + d as usize])
        .min()
        .unwrap_or(u64::MAX)
}

/// After `key`'s watermark advanced: retire upstream resolutions no
/// dependent can reference anymore. Each resolution is retired at most
/// once, so the cost amortizes to a constant per completion.
fn retire_upstreams(
    key: usize,
    nm: usize,
    tables: &Tables,
    floor: &[u64],
    resolved: &mut ResolutionStore,
) {
    let user_base = key - key % nm;
    let (ups, _) = tables.deps(key);
    for &up in ups {
        let upkey = user_base + up as usize;
        let threshold = retire_threshold(upkey, nm, tables, floor);
        resolved.retire_below(upkey, threshold);
    }
}

/// Applies one due completion: records the resolution (unless already
/// unreachable), queues pass candidates for the waiting dependents it
/// may unblock, and frees its engine.
#[allow(clippy::too_many_arguments)]
fn process_completion(
    ev: CompletionEv,
    nm: usize,
    tables: &Tables,
    floor: &[u64],
    resolved: &mut ResolutionStore,
    waiting: &Waiting,
    pass: &mut BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    engine_token: &mut [Option<u64>],
    free: &mut FreeSet,
) {
    let key = ev.key as usize;
    if !tables.downstream(key).is_empty() {
        if ev.sensor_frame >= retire_threshold(key, nm, tables, floor) {
            resolved.insert(key, ev.sensor_frame, Resolution::Completed);
        }
        let user_base = key - key % nm;
        for &d in tables.downstream(key) {
            let dkey = user_base + d as usize;
            if waiting.occupied(dkey) && waiting.sensor_frame[dkey] == ev.sensor_frame {
                pass.push(std::cmp::Reverse((waiting.seq[dkey], dkey as u32)));
            }
        }
    }
    let engine = ev.engine as usize;
    if engine_token[engine] == Some(ev.token) {
        engine_token[engine] = None;
        free.insert(engine);
    }
}

/// Fault-injection inputs for one run: the expanded event schedule and
/// the recovery policy for revoked in-flight work.
pub(crate) struct FaultCtx<'a> {
    /// The expanded, time-sorted fault schedule.
    pub timeline: &'a FaultTimeline,
    /// What to do with in-flight work on a lost engine.
    pub policy: RecoveryPolicy,
}

/// One dispatched inference that may still be revoked by a fault.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    key: u32,
    view: PendingView,
    sensor_frame: u64,
    t_start: f64,
    t_end: f64,
    /// Remaining-work fraction this dispatch carried.
    frac: f64,
    energy_j: f64,
}

/// Live fault-injection state for one run.
struct FaultState<'a> {
    events: &'a [crate::fault::FaultEvent],
    cursor: usize,
    policy: RecoveryPolicy,
    engine_up: Vec<bool>,
    /// Current capacity multiplier per engine, sampled at dispatch
    /// time (a throttle landing mid-flight does not stretch work
    /// already on the engine).
    capacity: Vec<f64>,
    /// In-flight dispatches by token, for revocation and for the
    /// deferred stats/record emission at completion.
    open: BTreeMap<u64, InFlight>,
    /// Tokens whose dispatch was revoked; their stale calendar
    /// completions are skipped.
    revoked: BTreeSet<u64>,
}

/// Emits the deferred stats and execution record for a completion that
/// survived to its scheduled end (faulted mode only; the fault-free
/// path emits at dispatch).
fn emit_completion(
    inf: &InFlight,
    ev: &CompletionEv,
    nm: usize,
    users_raw: &[u32],
    stats: &mut [ModelStats],
    records: &mut [Vec<ExecRecord>],
    mode: &mut RecordMode<'_>,
) {
    let key = ev.key as usize;
    stats[key].executed_frames += 1;
    if ev.t > inf.view.t_deadline {
        stats[key].missed_deadlines += 1;
    }
    let record = ExecRecord {
        model: inf.view.model,
        frame_id: inf.view.frame_id,
        sensor_frame: ev.sensor_frame,
        engine: ev.engine as usize,
        t_req: inf.view.t_req,
        t_deadline: inf.view.t_deadline,
        t_start: inf.t_start,
        t_end: ev.t,
        energy_j: inf.energy_j,
    };
    match mode {
        RecordMode::Collect => records[key / nm].push(record),
        RecordMode::Fold(sink) => sink(users_raw[key / nm], &record),
    }
}

/// Where completed inferences go: materialized per-user vectors (the
/// classic path), or streamed into a fold callback so the run's memory
/// stays proportional to the in-flight window instead of the request
/// count (the fleet path).
///
/// Records reach the sink in dispatch order, which is nondecreasing in
/// `t_start` — exactly the order `SimResult::records` lists them (the
/// fault-free path emits pre-sorted and skips the final sort
/// entirely). The two modes are otherwise bit-identical: same events,
/// same stats, same tie-breaks.
pub(crate) enum RecordMode<'a> {
    /// Retain every [`ExecRecord`] in per-user vectors.
    Collect,
    /// Stream each record to the callback as `(user, record)` and
    /// retain nothing.
    Fold(&'a mut dyn FnMut(u32, &ExecRecord)),
}

/// The evolving state of a kernel-driven dispatch run (see
/// [`DispatchKernel`]): exported back to the scheduler through
/// [`Scheduler::absorb_kernel`] at run end.
enum KernelState {
    EdfFastest,
    FifoRotate { next_engine: usize },
    FifoLeastLoaded { loads: Vec<f64> },
    EdfOutages { outages: Vec<u64> },
}

/// Splits a declared kernel into the request order and the engine-rule
/// state, pre-sizing carried vectors to the engine count so the hot
/// loop never resizes them (reads beyond the declared length are 0 by
/// the kernel contract, so this is semantics-preserving).
fn kernel_setup(kernel: DispatchKernel, num_engines: usize) -> (PickOrder, KernelState) {
    match kernel {
        DispatchKernel::EdfFastestEngine => (PickOrder::Edf, KernelState::EdfFastest),
        DispatchKernel::FifoRotatingEngine { next_engine } => {
            (PickOrder::Fifo, KernelState::FifoRotate { next_engine })
        }
        DispatchKernel::FifoLeastLoadedEngine { mut loads } => {
            if loads.len() < num_engines {
                loads.resize(num_engines, 0.0);
            }
            (PickOrder::Fifo, KernelState::FifoLeastLoaded { loads })
        }
        DispatchKernel::EdfFewestOutagesEngine { mut outages } => {
            if outages.len() < num_engines {
                outages.resize(num_engines, 0);
            }
            (PickOrder::Edf, KernelState::EdfOutages { outages })
        }
    }
}

/// Packages the evolved kernel state for [`Scheduler::absorb_kernel`].
fn kernel_export(state: KernelState) -> DispatchKernel {
    match state {
        KernelState::EdfFastest => DispatchKernel::EdfFastestEngine,
        KernelState::FifoRotate { next_engine } => {
            DispatchKernel::FifoRotatingEngine { next_engine }
        }
        KernelState::FifoLeastLoaded { loads } => DispatchKernel::FifoLeastLoadedEngine { loads },
        KernelState::EdfOutages { outages } => DispatchKernel::EdfFewestOutagesEngine { outages },
    }
}

/// The production event loop over user-tagged requests (`requests`
/// must be sorted by `t_req`, and strictly frame-monotone per
/// `(user, model)`). Returns one [`SimResult`] per user, bit-identical
/// to [`crate::naive::run_tagged_naive`]. In `Fold` mode the returned
/// [`SimResult`]s carry empty `records` vectors (stats are still
/// complete). With `faults: None` this *is* the fault-free loop — no
/// fault state is allocated and every fault branch is behind an
/// `Option` check.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tagged(
    config: SimConfig,
    specs: &[(u32, &ScenarioSpec)],
    requests: Vec<Pending>,
    provider: &dyn CostProvider,
    scheduler: &mut dyn Scheduler,
    duration_s: f64,
    mut mode: RecordMode<'_>,
    faults: Option<FaultCtx<'_>>,
) -> BTreeMap<u32, SimResult> {
    assert!(provider.num_engines() > 0, "provider must expose engines");

    let nm = NUM_MODELS;
    let users_raw: Vec<u32> = specs.iter().map(|&(u, _)| u).collect();
    let uidx = UserIndex::build(&users_raw);
    let num_users = users_raw.len();
    let num_keys = num_users * nm;

    // Precomputed per-scenario dispatch tables (deduplicated CSR).
    let tables = Tables::build(specs);
    // Keys that must appear in the output stats (spec members), plus
    // any key a request actually touched.
    let mut touched = vec![false; num_keys];
    for (ui, &(_, spec)) in specs.iter().enumerate() {
        for m in &spec.models {
            touched[ui * nm + m.model as usize] = true;
        }
    }

    // The kernel fast path runs only fault-free (kernels cannot
    // observe mid-run outages) and only for schedulers that declare
    // one; everything else takes the generic `select` path.
    let num_engines = provider.num_engines();
    let kernel = if faults.is_none() {
        scheduler
            .dispatch_kernel()
            .map(|k| kernel_setup(k, num_engines))
    } else {
        None
    };
    let (kernel_order, mut kstate) = match kernel {
        Some((o, s)) => (Some(o), Some(s)),
        None => (None, None),
    };
    let mut prefs = PrefTable::new(num_engines);

    // Runtime state, pre-sized from spec-derived bounds: the calendar
    // and free set from the engine count, the queues and tables from
    // the dense key count.
    let cache = DenseCostCache::new(provider);
    let mut free = FreeSet::all(num_engines, kernel_order.is_none());
    let mut engine_token: Vec<Option<u64>> = vec![None; num_engines];
    let mut next_token = 0u64;
    let mut next_seq = 0u64;
    let mut calendar = CalendarQueue::with_capacity(num_engines);
    // Due-but-stashed events: calendar entries discovered at or before
    // `now + EPS` while looking for the next event time (possible only
    // for degenerate sub-epsilon latencies); the reference loop
    // processes them at the *next* event time, so we do too.
    let mut due: Vec<CompletionEv> = Vec::with_capacity(num_engines * 2 + 8);
    let mut ready = Ready::new(num_keys, kernel_order);
    let mut waiting = Waiting::new(num_keys);
    let mut pass: BinaryHeap<std::cmp::Reverse<(u64, u32)>> =
        BinaryHeap::with_capacity(num_keys + 16);
    let mut deferred: Vec<(u64, u32)> = Vec::with_capacity(32);
    let mut resolved = ResolutionStore::new(num_keys);
    let mut floor = vec![0u64; num_keys];
    let mut stats: Vec<ModelStats> = vec![ModelStats::default(); num_keys];
    let mut last_frame: Vec<Option<(u64, u64)>> = vec![None; num_keys];
    let mut records: Vec<Vec<ExecRecord>> = vec![Vec::new(); num_users];

    let mut fstate = faults.map(|f| FaultState {
        events: f.timeline.events(),
        cursor: 0,
        policy: f.policy,
        engine_up: vec![true; num_engines],
        capacity: vec![1.0; num_engines],
        open: BTreeMap::new(),
        revoked: BTreeSet::new(),
    });

    let mut arrivals = requests.into_iter().peekable();
    let mut now = 0.0_f64;

    loop {
        // 1. Process completions due now (stashed first, then the
        //    calendar drain — sorted per cohort under the total
        //    `(t, key, sensor_frame, token)` order) and re-queue
        //    cascade candidates deferred from the previous pass.
        let fresh = due.len();
        calendar.drain_due(now + EPS, &mut due);
        due[fresh..].sort_unstable();
        for ev in due.drain(..) {
            if let Some(f) = fstate.as_mut() {
                if f.revoked.remove(&ev.token) {
                    // The dispatch was revoked by a fault; this is its
                    // stale completion.
                    continue;
                }
                if let Some(inf) = f.open.remove(&ev.token) {
                    emit_completion(
                        &inf,
                        &ev,
                        nm,
                        &users_raw,
                        &mut stats,
                        &mut records,
                        &mut mode,
                    );
                }
            }
            process_completion(
                ev,
                nm,
                &tables,
                &floor,
                &mut resolved,
                &waiting,
                &mut pass,
                &mut engine_token,
                &mut free,
            );
        }
        for c in deferred.drain(..) {
            pass.push(std::cmp::Reverse(c));
        }

        // 1b. Apply fault events due now: engines leave/rejoin the
        //     free set, in-flight work on a lost engine is revoked and
        //     recovered per policy, and capacity multipliers update.
        if let Some(f) = fstate.as_mut() {
            while f.cursor < f.events.len() && f.events[f.cursor].t <= now + EPS {
                let fev = f.events[f.cursor];
                f.cursor += 1;
                let engine = fev.engine as usize;
                if engine >= num_engines {
                    continue;
                }
                match fev.action {
                    FaultAction::Down(kind) => {
                        if !f.engine_up[engine] {
                            continue;
                        }
                        f.engine_up[engine] = false;
                        free.remove(engine);
                        scheduler.on_engine_down(engine, now);
                        let Some(token) = engine_token[engine].take() else {
                            continue;
                        };
                        f.revoked.insert(token);
                        let inf = f.open.remove(&token).expect("busy engine has open entry");
                        let key = inf.key as usize;
                        match f.policy {
                            RecoveryPolicy::Drop => {
                                let reason = match kind {
                                    FaultKind::Failure => DropReason::DeviceLost,
                                    FaultKind::Preemption => DropReason::Preempted,
                                };
                                stats[key].record_drop(reason);
                                if !tables.downstream(key).is_empty() {
                                    // Dependents see the same Dropped
                                    // resolution an untriggered frame
                                    // would leave behind.
                                    if inf.sensor_frame
                                        >= retire_threshold(key, nm, &tables, &floor)
                                    {
                                        resolved.insert(key, inf.sensor_frame, Resolution::Dropped);
                                    }
                                    let user_base = key - key % nm;
                                    for &d in tables.downstream(key) {
                                        let dkey = user_base + d as usize;
                                        if waiting.occupied(dkey)
                                            && waiting.sensor_frame[dkey] == inf.sensor_frame
                                        {
                                            pass.push(std::cmp::Reverse((
                                                waiting.seq[dkey],
                                                dkey as u32,
                                            )));
                                        }
                                    }
                                }
                            }
                            RecoveryPolicy::Requeue | RecoveryPolicy::Migrate => {
                                if ready.occupied(key) {
                                    // A newer frame is already queued:
                                    // freshness drops the revoked one.
                                    stats[key].record_drop(DropReason::Superseded);
                                } else {
                                    // In-flight implies a super-epsilon
                                    // span, so the fraction is well
                                    // defined and positive.
                                    let frac = if f.policy == RecoveryPolicy::Migrate {
                                        ((inf.t_end - now) / (inf.t_end - inf.t_start))
                                            .clamp(0.0, 1.0)
                                            * inf.frac
                                    } else {
                                        1.0
                                    };
                                    let seq = next_seq;
                                    next_seq += 1;
                                    ready.requeue_push(
                                        key,
                                        inf.view.user,
                                        inf.view.model,
                                        inf.view.frame_id,
                                        inf.sensor_frame,
                                        inf.view.t_req,
                                        inf.view.t_deadline,
                                        seq,
                                        frac,
                                    );
                                }
                            }
                        }
                    }
                    FaultAction::Up => {
                        if f.engine_up[engine] {
                            continue;
                        }
                        f.engine_up[engine] = true;
                        free.insert(engine);
                    }
                    FaultAction::Capacity(c) => {
                        f.capacity[engine] = c;
                    }
                }
            }
        }

        // 2. Ingest arrivals due now.
        while arrivals.peek().is_some_and(|p| p.req.t_req <= now + EPS) {
            let p = arrivals.next().expect("peeked");
            let ui = uidx.get(p.user);
            let key = ui * nm + p.req.model as usize;
            if let Some((lf, lsf)) = last_frame[key] {
                assert!(
                    p.req.frame_id > lf && p.req.sensor_frame > lsf,
                    "requests for {} (user {}) must have strictly increasing \
                     frame_id and sensor_frame",
                    p.req.model,
                    p.user
                );
            }
            last_frame[key] = Some((p.req.frame_id, p.req.sensor_frame));
            touched[key] = true;
            stats[key].total_frames += 1;
            if tables.has_deps(key) {
                // Freshness: a newer dependent frame supersedes an
                // older one still waiting for its upstream.
                if waiting.occupied(key) {
                    stats[key].record_drop(DropReason::Superseded);
                }
                let seq = next_seq;
                next_seq += 1;
                waiting.seq[key] = seq;
                waiting.frame_id[key] = p.req.frame_id;
                waiting.sensor_frame[key] = p.req.sensor_frame;
                waiting.t_req[key] = p.req.t_req;
                waiting.t_deadline[key] = p.req.t_deadline;
                // Lookups now target this frame and nothing older.
                if p.req.sensor_frame > floor[key] {
                    floor[key] = p.req.sensor_frame;
                    retire_upstreams(key, nm, &tables, &floor, &mut resolved);
                }
                pass.push(std::cmp::Reverse((seq, key as u32)));
            } else {
                let seq = next_seq;
                next_seq += 1;
                ready.supersede_push(
                    key,
                    p.user,
                    p.req.model,
                    p.req.frame_id,
                    p.req.sensor_frame,
                    p.req.t_req,
                    p.req.t_deadline,
                    seq,
                    &mut stats,
                );
            }
        }

        // 3. Resolve waiting dependents whose upstream is decided —
        //    candidates only, in waiting-queue (seq) order, exactly
        //    mirroring the reference loop's linear scan.
        while let Some(std::cmp::Reverse((seq, key32))) = pass.pop() {
            let key = key32 as usize;
            if !waiting.occupied(key) || waiting.seq[key] != seq {
                continue; // superseded since candidacy
            }
            let user_base = key - key % nm;
            let w_sf = waiting.sensor_frame[key];
            // Are all upstream resolutions decided?
            let (ups, probs) = tables.deps(key);
            let mut any_dropped = Some(false);
            for &up in ups {
                match resolved.get(user_base + up as usize, w_sf) {
                    None => {
                        any_dropped = None;
                        break;
                    }
                    Some(Resolution::Dropped) => any_dropped = any_dropped.map(|_| true),
                    Some(Resolution::Completed) => {}
                }
            }
            let Some(any_dropped) = any_dropped else {
                continue; // upstream still in flight; stays waiting
            };
            let w_frame = waiting.frame_id[key];
            let w_t_req = waiting.t_req[key];
            let w_deadline = waiting.t_deadline[key];
            waiting.seq[key] = EMPTY_SEQ;
            floor[key] = w_sf + 1;
            retire_upstreams(key, nm, &tables, &floor, &mut resolved);
            let model = ModelId::ALL[key % nm];
            let user = users_raw[key / nm];
            if any_dropped {
                stats[key].record_drop(DropReason::UpstreamDropped);
            } else if ups.iter().zip(probs).all(|(&up, &prob)| {
                // Exactly one seeded draw per (user, model, upstream,
                // frame) decision: the waiting slot holds one frame
                // per key and is cleared before this branch runs, and
                // frame ids are strictly increasing, so no decision
                // can ever be re-evaluated — no memo table needed.
                trigger_draw(
                    config.seed,
                    user,
                    model,
                    ModelId::ALL[up as usize],
                    w_frame,
                    prob,
                )
            }) {
                let seq = next_seq;
                next_seq += 1;
                ready.supersede_push(
                    key, user, model, w_frame, w_sf, w_t_req, w_deadline, seq, &mut stats,
                );
            } else {
                // Legitimately deactivated: not streamed work for QoE
                // purposes.
                stats[key].untriggered_frames += 1;
                stats[key].total_frames -= 1;
                if !tables.downstream(key).is_empty() {
                    if w_sf >= retire_threshold(key, nm, &tables, &floor) {
                        resolved.insert(key, w_sf, Resolution::Dropped);
                    }
                    // Cascade: this may unblock further dependents.
                    // Forward (later-queued) ones join this pass, as
                    // the reference scan would reach them; backward
                    // ones wait for the next event time, as the
                    // reference scan already passed them.
                    for &d in tables.downstream(key) {
                        let dkey = user_base + d as usize;
                        if waiting.occupied(dkey) && waiting.sensor_frame[dkey] == w_sf {
                            if waiting.seq[dkey] > seq {
                                pass.push(std::cmp::Reverse((waiting.seq[dkey], dkey as u32)));
                            } else {
                                deferred.push((waiting.seq[dkey], dkey as u32));
                            }
                        }
                    }
                }
            }
        }

        // 4. Dispatch ready requests onto free engines.
        match &mut kstate {
            None => {
                // Generic path: compact the cohort's tombstones once,
                // then drive the scheduler's own `select`.
                ready.compact();
                while !free.is_empty() && !ready.is_empty() {
                    let Some((ri, engine)) =
                        scheduler.select(ready.views(), &free.list, &cache, now)
                    else {
                        break;
                    };
                    assert!(
                        ri < ready.views().len(),
                        "scheduler returned bad request index"
                    );
                    assert!(
                        free.contains(engine),
                        "scheduler returned busy engine {engine}"
                    );
                    let (key, view, sensor_frame, frac) = ready.remove_pos(ri);
                    let cost = cache.cost(view.model, engine);
                    let t_end;
                    if let Some(f) = fstate.as_ref() {
                        // Faulted dispatches pay only the remaining-work
                        // fraction, stretched by the engine's current
                        // thermal capacity; stats and records wait for
                        // completion because the dispatch may yet be
                        // revoked.
                        t_end = now + cost.latency_s * frac / f.capacity[engine];
                    } else {
                        t_end = now + cost.latency_s;
                        stats[key].executed_frames += 1;
                        if t_end > view.t_deadline {
                            stats[key].missed_deadlines += 1;
                        }
                        let record = ExecRecord {
                            model: view.model,
                            frame_id: view.frame_id,
                            sensor_frame,
                            engine,
                            t_req: view.t_req,
                            t_deadline: view.t_deadline,
                            t_start: now,
                            t_end,
                            energy_j: cost.energy_j,
                        };
                        match &mut mode {
                            RecordMode::Collect => records[key / nm].push(record),
                            RecordMode::Fold(sink) => sink(users_raw[key / nm], &record),
                        }
                    }
                    let token = next_token;
                    next_token += 1;
                    if let Some(f) = fstate.as_mut() {
                        f.open.insert(
                            token,
                            InFlight {
                                key: key as u32,
                                view,
                                sensor_frame,
                                t_start: now,
                                t_end,
                                frac,
                                energy_j: cost.energy_j * frac,
                            },
                        );
                    }
                    if t_end > now + EPS {
                        engine_token[engine] = Some(token);
                        free.remove(engine);
                    }
                    // Degenerate sub-epsilon latencies leave the engine
                    // free, matching the reference loop's fresh free-set
                    // rescan; the stale token then never matches at
                    // completion time.
                    calendar.push(CompletionEv {
                        t: t_end,
                        key: key as u32,
                        sensor_frame,
                        engine: engine as u32,
                        token,
                    });
                }
            }
            Some(kstate) => {
                // Kernel path (always fault-free): indexed argmin over
                // the declared request order, engine rule replayed
                // exactly.
                while !free.is_empty() {
                    let Some(key) = ready.min_key() else { break };
                    let mi = key % nm;
                    let model = ModelId::ALL[mi];
                    let engine =
                        match kstate {
                            KernelState::EdfFastest => {
                                let row = prefs.row(mi, |row| {
                                    row.sort_unstable_by(|&a, &b| {
                                        cache
                                            .cost(model, a as usize)
                                            .latency_s
                                            .total_cmp(&cache.cost(model, b as usize).latency_s)
                                            .then(a.cmp(&b))
                                    });
                                });
                                *row.iter().find(|&&e| free.contains(e as usize)).expect(
                                    "free set is non-empty, so some preferred engine is free",
                                ) as usize
                            }
                            KernelState::EdfOutages { outages } => {
                                let row = prefs.row(mi, |row| {
                                    row.sort_unstable_by(|&a, &b| {
                                        outages[a as usize]
                                            .cmp(&outages[b as usize])
                                            .then(
                                                cache.cost(model, a as usize).latency_s.total_cmp(
                                                    &cache.cost(model, b as usize).latency_s,
                                                ),
                                            )
                                            .then(a.cmp(&b))
                                    });
                                });
                                *row.iter().find(|&&e| free.contains(e as usize)).expect(
                                    "free set is non-empty, so some preferred engine is free",
                                ) as usize
                            }
                            KernelState::FifoRotate { next_engine } => {
                                let e = free
                                    .first_at_or_above(*next_engine)
                                    .unwrap_or_else(|| free.lowest());
                                // Mirrors RoundRobin::select's cursor
                                // update, including reading the free count
                                // *before* this dispatch occupies `e`.
                                *next_engine = (e + 1) % usize::max(1, e + 1).max(free.count);
                                e
                            }
                            KernelState::FifoLeastLoaded { loads } => {
                                let mut best = usize::MAX;
                                let mut best_load = f64::INFINITY;
                                free.for_each(|e| {
                                    // Strictly-less keeps the lowest id on
                                    // ties, matching `min_by`'s first-min.
                                    if loads[e].total_cmp(&best_load).is_lt() {
                                        best_load = loads[e];
                                        best = e;
                                    }
                                });
                                loads[best] += cache.cost(model, best).latency_s;
                                best
                            }
                        };
                    let (frame_id, sensor_frame, t_req, t_deadline, _frac) = ready.take_key(key);
                    let cost = cache.cost(model, engine);
                    let t_end = now + cost.latency_s;
                    stats[key].executed_frames += 1;
                    if t_end > t_deadline {
                        stats[key].missed_deadlines += 1;
                    }
                    let record = ExecRecord {
                        model,
                        frame_id,
                        sensor_frame,
                        engine,
                        t_req,
                        t_deadline,
                        t_start: now,
                        t_end,
                        energy_j: cost.energy_j,
                    };
                    match &mut mode {
                        RecordMode::Collect => records[key / nm].push(record),
                        RecordMode::Fold(sink) => sink(users_raw[key / nm], &record),
                    }
                    let token = next_token;
                    next_token += 1;
                    if t_end > now + EPS {
                        engine_token[engine] = Some(token);
                        free.remove(engine);
                    }
                    calendar.push(CompletionEv {
                        t: t_end,
                        key: key as u32,
                        sensor_frame,
                        engine: engine as u32,
                        token,
                    });
                }
            }
        }

        // 5. Advance to the next event strictly after `now`, stashing
        //    degenerate sub-epsilon completions for the next pass.
        let mut next = f64::INFINITY;
        if let Some(p) = arrivals.peek() {
            next = next.min(p.req.t_req);
        }
        let fresh = due.len();
        calendar.drain_due(now + EPS, &mut due);
        due[fresh..].sort_unstable();
        if let Some(t) = calendar.next_time() {
            next = next.min(t);
        }
        if let Some(f) = &fstate {
            // Fault events only matter while some work can still use
            // the engines they toggle: with nothing queued, in flight,
            // or arriving, the remaining toggles are no-ops (waiting
            // frames can never resolve without completions).
            let work_pending = arrivals.peek().is_some()
                || !calendar.is_empty()
                || !due.is_empty()
                || !ready.is_empty();
            if work_pending {
                if let Some(fev) = f.events.get(f.cursor) {
                    next = next.min(fev.t);
                }
            }
        }
        if next.is_infinite() {
            break;
        }
        now = next;
    }

    // Hand the evolved kernel state back so back-to-back runs on one
    // scheduler instance behave as if `select` had been called.
    if let Some(kstate) = kstate {
        scheduler.absorb_kernel(kernel_export(kstate));
    }

    // Completions stashed as due when the loop ended (possible only
    // with sub-epsilon latencies) did execute; surface their deferred
    // records in faulted mode (the clean path emitted at dispatch).
    if let Some(f) = fstate.as_mut() {
        for ev in due.drain(..) {
            if f.revoked.remove(&ev.token) {
                continue;
            }
            if let Some(inf) = f.open.remove(&ev.token) {
                emit_completion(
                    &inf,
                    &ev,
                    nm,
                    &users_raw,
                    &mut stats,
                    &mut records,
                    &mut mode,
                );
            }
        }
    }

    // Anything still queued at drain time never got to run within the
    // run's horizon; count as dropped.
    for (key, st) in stats.iter_mut().enumerate() {
        if waiting.occupied(key) {
            st.record_drop(DropReason::Starved);
        }
        if ready.occupied(key) {
            st.record_drop(DropReason::Starved);
        }
    }

    // Assemble one SimResult per user. Fault-free records were emitted
    // in dispatch order — already nondecreasing in `t_start` — so the
    // final re-sort is skipped (a stable sort on sorted input is the
    // identity); faulted records were emitted at
    // completion and still need the stable start-time sort.
    let emit_at_completion = fstate.is_some();
    let mut out = BTreeMap::new();
    for (ui, &(user, _)) in specs.iter().enumerate() {
        let mut recs = std::mem::take(&mut records[ui]);
        if emit_at_completion {
            recs.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        } else {
            debug_assert!(
                recs.windows(2).all(|w| w[0].t_start <= w[1].t_start),
                "fault-free dispatch order must be nondecreasing in t_start"
            );
        }
        let mut user_stats: BTreeMap<ModelId, ModelStats> = BTreeMap::new();
        for (mi, &m) in ModelId::ALL.iter().enumerate() {
            let key = ui * nm + mi;
            if touched[key] {
                user_stats.insert(m, stats[key].clone());
            }
        }
        out.insert(
            user,
            SimResult {
                records: recs,
                stats: user_stats,
                num_engines,
                duration_s,
            },
        );
    }
    out
}
