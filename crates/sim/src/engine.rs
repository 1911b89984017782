//! The production event loop: a binary-heap completion calendar,
//! struct-of-arrays hot state, batched same-timestamp scheduling, and
//! precomputed per-scenario dispatch tables.
//!
//! This is the next-generation rewrite of the PR 3 heap engine (since
//! deleted). Its one differential reference is the quadratic loop in
//! [`crate::naive`], which shares [`run_tagged`]'s signature. The four
//! structural choices, each preserving the event order bit-for-bit:
//!
//! * **Completion heap** — in-flight completions sit in a binary
//!   min-heap ([`crate::calendar`]) under the total
//!   `(t, key, sensor_frame, token)` order: `O(log engines)` push and
//!   pop, a peek for the next completion time, and drains that pop
//!   each same-timestamp cohort already in processing order.
//! * **Struct-of-arrays slot state** — the `ready` and `waiting`
//!   queues are flat per-field arrays over the dense
//!   `user * NUM_MODELS + model` key, pre-sized at setup, so
//!   supersession, requeue, and dependency resolution touch cache
//!   lines instead of allocating or chasing options.
//! * **Batched cohort scheduling** — the dispatch path is picked by
//!   one thing only: whether the scheduler lends a [`DispatchKernel`]
//!   ([`Scheduler::kernel`]). A kernel is driven through an indexed
//!   form of its own policy — an indexed binary min-heap of the queued
//!   requests under its request order, a bitmask free-engine set, and
//!   per-model engine preference rows — that reproduces its `select`
//!   picks exactly, on fault-free and faulted runs alike, and updates
//!   the kernel's carried state in place. The heap holds only queued
//!   entries, so an insert, a dispatch or a supersession (which
//!   re-keys its key's entry in place) sifts over O(log queued)
//!   levels. Every other scheduler gets a [`PendingView`] buffer
//!   whose removals during a same-timestamp cohort (steps 1–3) are
//!   tombstones compacted once before dispatch, amortizing the buffer
//!   memmoves over the cohort. Both paths share one dispatch step.
//! * **Precomputed dispatch tables** — per-*scenario* dependency and
//!   reverse-dependency lists are deduplicated and flattened into CSR
//!   tables once per run ([`Tables`]), so the per-user setup cost and
//!   footprint collapse from `users × models` heap vectors to one
//!   shared table plus a `user → scenario` index.
//!
//! Output is **bit-identical** to [`crate::naive`]; the differential
//! property tests in `tests/runtime_properties.rs` and the golden
//! fixtures enforce it across all schedulers, both dispatch paths,
//! record modes, and fault policies. The fault-injection semantics
//! (revocation, recovery policies, deferred emission) are unchanged
//! since PR 7.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use xrbench_models::ModelId;
use xrbench_workload::loadgen::time_bits;
use xrbench_workload::{ScenarioSpec, SessionRequest};

use crate::calendar::{drain_due, Calendar, CompletionEv};
use crate::fault::{FaultAction, FaultKind, FaultTimeline, RecoveryPolicy};
use crate::provider::{CostProvider, DenseCostCache, NUM_MODELS};
use crate::result::{DropReason, ExecRecord, ModelStats, SimResult};
use crate::scheduler::{DispatchKernel, PendingView, RequestOrder, Scheduler};
use crate::simulator::{trigger_draw, Resolution, SimConfig, EPS};

/// Sentinel for "slot empty" in the SoA queues (a real sequence number
/// never reaches it: sequence numbers count queue insertions).
const EMPTY_SEQ: u64 = u64::MAX;

/// A pick key: three `u64` words compared lexicographically.
type PickKey = [u64; 3];

/// Encodes a ready entry under `order` so that unsigned lexicographic
/// comparison of the words reproduces the scheduler's request order.
/// Keys are unique: the ready queue holds at most one entry per
/// `(user, model)` and the `(model, user)` word totalizes the order.
#[inline]
fn pick_key(order: RequestOrder, model: usize, user: u32, t_req: f64, t_deadline: f64) -> PickKey {
    let mu = ((model as u64) << 32) | u64::from(user);
    match order {
        RequestOrder::Edf => [time_bits(t_deadline), time_bits(t_req), mu],
        RequestOrder::Fifo => [time_bits(t_req), mu, 0],
    }
}

/// [`PickHeap`]'s position of a slot that is not queued.
const NO_POS: u32 = u32::MAX;

/// One queued request in a [`PickHeap`]: its key and its dense slot.
#[derive(Clone, Copy)]
struct PickEntry {
    key: PickKey,
    slot: u32,
}

/// An indexed binary min-heap of the queued requests' [`PickKey`]s —
/// the kernel path's replacement for the per-pick linear `min_by`
/// scan. It holds only queued slots, so `set`/`clear` sift over
/// O(log queued) levels, and the minimum is read at the root in O(1).
/// `pos[slot]` locates a queued slot's entry for re-keying and
/// removal. Both arrays are sized to the key count at setup, so no
/// operation allocates. Because keys are unique among queued entries,
/// the root is the first minimal element a linear scan returns.
struct PickHeap {
    heap: Vec<PickEntry>,
    pos: Vec<u32>,
}

impl PickHeap {
    fn new(num_keys: usize) -> Self {
        Self {
            heap: Vec::with_capacity(num_keys),
            pos: vec![NO_POS; num_keys],
        }
    }

    /// Queues `slot` under key `k`, or, if it is already queued,
    /// re-keys its entry in place and sifts it the way its key moved.
    fn set(&mut self, slot: usize, k: PickKey) {
        let e = PickEntry {
            key: k,
            slot: slot as u32,
        };
        match self.pos[slot] {
            NO_POS => {
                self.heap.push(e);
                self.sift_up(self.heap.len() - 1, e);
            }
            i => self.refill(i as usize, e),
        }
    }

    /// Removes `slot`'s entry if it is queued: the last entry fills the
    /// hole and sifts toward its place. Removing the root, as a kernel
    /// dispatch does, always sifts down.
    fn clear(&mut self, slot: usize) {
        let i = std::mem::replace(&mut self.pos[slot], NO_POS);
        if i == NO_POS {
            return;
        }
        let i = i as usize;
        let last = self.heap.pop().expect("a queued slot has an entry");
        if i < self.heap.len() {
            self.refill(i, last);
        }
    }

    /// The dense key holding the minimal pick key, if any entry is
    /// queued.
    fn min_slot(&self) -> Option<usize> {
        self.heap.first().map(|e| e.slot as usize)
    }

    /// Places `e` over the entry at `i` and sifts it the way its key
    /// moved from that entry's key.
    fn refill(&mut self, i: usize, e: PickEntry) {
        if e.key < self.heap[i].key {
            self.sift_up(i, e);
        } else {
            self.sift_down(i, e);
        }
    }

    /// Places `e` at or above the hole at `i`, moving the larger
    /// ancestors down into the hole as it climbs.
    fn sift_up(&mut self, mut i: usize, e: PickEntry) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key < e.key {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, e);
    }

    /// Places `e` at or below the hole at `i`, moving the smaller child
    /// up into the hole as it descends.
    fn sift_down(&mut self, mut i: usize, e: PickEntry) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let c = if right < n && self.heap[right].key < self.heap[left].key {
                right
            } else {
                left
            };
            if e.key < self.heap[c].key {
                break;
            }
            self.place(i, self.heap[c]);
            i = c;
        }
        self.place(i, e);
    }

    #[inline]
    fn place(&mut self, i: usize, e: PickEntry) {
        self.heap[i] = e;
        self.pos[e.slot as usize] = i as u32;
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
    /// The kernel path: a [`PickHeap`] of the queued requests under the
    /// scheduler's declared request order. No view buffer is
    /// maintained at all.
    Heap { heap: PickHeap, order: RequestOrder },
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
    fn new(num_keys: usize, kernel_order: Option<RequestOrder>) -> Self {
        let index = match kernel_order {
            Some(order) => ReadyIndex::Heap {
                heap: PickHeap::new(num_keys),
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

    /// Tombstones `key`'s queued buffer entry ahead of a supersession.
    /// Heap mode has nothing to detach: the `attach` that follows
    /// re-keys the key's queued entry in place, which leaves the heap
    /// ordered just as a removal and a fresh insert would.
    fn detach(&mut self, key: usize) {
        if let ReadyIndex::Buffer { meta, dead, .. } = &mut self.index {
            let pos = meta
                .binary_search_by_key(&self.seq[key], |m| m.seq)
                .expect("slot seq is queued");
            meta[pos].dead = true;
            *dead += 1;
        }
    }

    /// Attaches `key`'s (freshly written) slot to the dispatch index:
    /// a new buffer entry, or a heap insert or in-place re-key.
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
            ReadyIndex::Heap { heap, order } => {
                heap.set(
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
    fn requeue_push(&mut self, job: Queued, seq: u64) {
        let key = job.key as usize;
        assert!(!self.occupied(key), "requeue into an occupied slot");
        self.seq[key] = seq;
        self.frame_id[key] = job.view.frame_id;
        self.sensor_frame[key] = job.sensor_frame;
        self.t_req[key] = job.view.t_req;
        self.t_deadline[key] = job.view.t_deadline;
        self.frac[key] = job.frac;
        self.count += 1;
        self.attach(key, job.view.user, job.view.model);
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
            ReadyIndex::Heap { .. } => unreachable!("kernel path never calls select"),
        }
    }

    /// Removes the (live) buffer entry at position `pos` for dispatch.
    /// Buffer mode only.
    fn remove_pos(&mut self, pos: usize) -> Queued {
        let ReadyIndex::Buffer { views, meta, .. } = &mut self.index else {
            unreachable!("kernel path dispatches by key")
        };
        let user = views.remove(pos).user;
        let key = meta.remove(pos).key as usize;
        self.take(key, user)
    }

    /// The dense key the kernel should dispatch next (heap mode only).
    fn min_key(&self) -> Option<usize> {
        match &self.index {
            ReadyIndex::Heap { heap, .. } => heap.min_slot(),
            ReadyIndex::Buffer { .. } => unreachable!("generic path dispatches via select"),
        }
    }

    /// Removes `key`'s entry, the heap's root as [`Self::min_key`]
    /// returned it, for kernel dispatch. Heap mode only.
    fn take_key(&mut self, key: usize, user: u32) -> Queued {
        let ReadyIndex::Heap { heap, .. } = &mut self.index else {
            unreachable!("generic path dispatches via select")
        };
        heap.clear(key);
        self.take(key, user)
    }

    /// Clears `key`'s slot and returns its frame. A live buffer entry
    /// always views its key's current slot, so both paths read the
    /// frame from the slot.
    fn take(&mut self, key: usize, user: u32) -> Queued {
        self.seq[key] = EMPTY_SEQ;
        self.count -= 1;
        Queued {
            key: key as u32,
            view: PendingView {
                user,
                model: ModelId::ALL[key % NUM_MODELS],
                frame_id: self.frame_id[key],
                t_req: self.t_req[key],
                t_deadline: self.t_deadline[key],
            },
            sensor_frame: self.sensor_frame[key],
            frac: self.frac[key],
        }
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
/// a model's row lists every engine id sorted by the kernel's engine
/// rule, so a dispatch walks the row and takes the first free one —
/// the same engine `min_by` over the free slice returns. Rows are
/// pre-allocated flat at setup and *filled* on a model's first
/// dispatch after setup or after [`PrefTable::invalidate`] (an
/// in-place `sort_unstable`, so no mid-loop allocation).
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

    /// The first free engine in model index `mi`'s row, filling the row
    /// by `rule`, then engine id, if it is not built.
    fn first_free(
        &mut self,
        mi: usize,
        free: &FreeSet,
        rule: impl Fn(u32, u32) -> Ordering,
    ) -> usize {
        let row = &mut self.rows[mi * self.num_engines..(mi + 1) * self.num_engines];
        if !self.built[mi] {
            for (i, r) in row.iter_mut().enumerate() {
                *r = i as u32;
            }
            row.sort_unstable_by(|&a, &b| rule(a, b).then(a.cmp(&b)));
            self.built[mi] = true;
        }
        *row.iter()
            .find(|&&e| free.contains(e as usize))
            .expect("free set is non-empty, so some preferred engine is free") as usize
    }

    /// Drops every row: an outage may have reordered a rule's engines.
    fn invalidate(&mut self) {
        self.built.fill(false);
    }
}

/// The engine `kernel`'s rule picks for model index `mi` among the free
/// engines — the engine [`DispatchKernel::select`] returns over the
/// sorted free slice — updating the rule's carried state in place.
fn kernel_engine(
    kernel: &mut DispatchKernel,
    mi: usize,
    free: &FreeSet,
    cache: &DenseCostCache<'_>,
    prefs: &mut PrefTable,
) -> usize {
    let model = ModelId::ALL[mi];
    let latency = |e: u32| cache.cost(model, e as usize).latency_s;
    match kernel {
        DispatchKernel::EdfFastestEngine => {
            prefs.first_free(mi, free, |a, b| latency(a).total_cmp(&latency(b)))
        }
        DispatchKernel::EdfFewestOutagesEngine { outages } => prefs.first_free(mi, free, |a, b| {
            outages[a as usize]
                .cmp(&outages[b as usize])
                .then(latency(a).total_cmp(&latency(b)))
        }),
        DispatchKernel::FifoRotatingEngine { next_engine } => {
            let e = free
                .first_at_or_above(*next_engine)
                .unwrap_or_else(|| free.lowest());
            // The free count is read before the dispatch occupies `e`,
            // as `select` reads its free slice.
            *next_engine = (e + 1) % usize::max(1, e + 1).max(free.count);
            e
        }
        DispatchKernel::FifoLeastLoadedEngine { loads } => {
            let mut best = usize::MAX;
            let mut best_load = f64::INFINITY;
            free.for_each(|e| {
                // Strictly-less keeps the lowest id on ties, matching
                // `min_by`'s first minimum.
                if loads[e].total_cmp(&best_load).is_lt() {
                    best_load = loads[e];
                    best = e;
                }
            });
            loads[best] += cache.cost(model, best).latency_s;
            best
        }
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

/// A frame taken off the ready queue for dispatch.
#[derive(Debug, Clone, Copy)]
struct Queued {
    key: u32,
    view: PendingView,
    sensor_frame: u64,
    /// Remaining-work fraction: 1.0 for fresh frames, smaller for
    /// checkpointed work migrating off a lost engine.
    frac: f64,
}

impl Queued {
    /// The execution record of this frame run on `engine`.
    fn record(&self, engine: usize, t_start: f64, t_end: f64, energy_j: f64) -> ExecRecord {
        ExecRecord {
            model: self.view.model,
            frame_id: self.view.frame_id,
            sensor_frame: self.sensor_frame,
            engine,
            t_req: self.view.t_req,
            t_deadline: self.view.t_deadline,
            t_start,
            t_end,
            energy_j,
        }
    }
}

/// One dispatched inference that may still be revoked by a fault.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    job: Queued,
    t_start: f64,
    t_end: f64,
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

/// A run's per-key stats and where its records go.
struct Output<'m> {
    stats: Vec<ModelStats>,
    /// Per-user records, filled in `Collect` mode only.
    records: Vec<Vec<ExecRecord>>,
    mode: RecordMode<'m>,
}

impl Output<'_> {
    /// Counts one execution of `key` and emits its record as `user`'s.
    fn emit(&mut self, key: usize, user: u32, record: ExecRecord) {
        let st = &mut self.stats[key];
        st.executed_frames += 1;
        if record.t_end > record.t_deadline {
            st.missed_deadlines += 1;
        }
        match &mut self.mode {
            RecordMode::Collect => self.records[key / NUM_MODELS].push(record),
            RecordMode::Fold(sink) => sink(user, &record),
        }
    }
}

/// Emits the deferred stats and record of a faulted dispatch that
/// survived to its scheduled end.
fn emit_completion(inf: &InFlight, ev: &CompletionEv, out: &mut Output<'_>) {
    let record = inf
        .job
        .record(ev.engine as usize, inf.t_start, ev.t, inf.energy_j);
    out.emit(ev.key as usize, inf.job.view.user, record);
}

/// The engines' side of a run: which are free, the token of the
/// dispatch each busy engine runs, and the completion calendar.
struct Engines {
    free: FreeSet,
    token: Vec<Option<u64>>,
    next_token: u64,
    calendar: Calendar,
}

impl Engines {
    /// Starts `job` on `engine` at `now`: the step both dispatch paths
    /// share. A fault-free dispatch runs the full latency and emits its
    /// stats and record at once, in dispatch order. A faulted one runs
    /// only its remaining-work fraction, stretched by the engine's
    /// current capacity, and waits in `open` to emit at completion,
    /// because a fault may yet revoke it.
    fn dispatch(
        &mut self,
        job: Queued,
        engine: usize,
        now: f64,
        cache: &DenseCostCache<'_>,
        fstate: Option<&mut FaultState<'_>>,
        out: &mut Output<'_>,
    ) {
        let cost = cache.cost(job.view.model, engine);
        let token = self.next_token;
        self.next_token += 1;
        let t_end = match fstate {
            Some(f) => {
                let t_end = now + cost.latency_s * job.frac / f.capacity[engine];
                let inf = InFlight {
                    job,
                    t_start: now,
                    t_end,
                    energy_j: cost.energy_j * job.frac,
                };
                f.open.insert(token, inf);
                t_end
            }
            None => {
                let t_end = now + cost.latency_s;
                let record = job.record(engine, now, t_end, cost.energy_j);
                out.emit(job.key as usize, job.view.user, record);
                t_end
            }
        };
        // Degenerate sub-epsilon latencies leave the engine free,
        // matching the reference loop's fresh free-set rescan; the stale
        // token then never matches at completion time.
        if t_end > now + EPS {
            self.token[engine] = Some(token);
            self.free.remove(engine);
        }
        self.calendar.push(std::cmp::Reverse(CompletionEv {
            t: t_end,
            key: job.key,
            sensor_frame: job.sensor_frame,
            engine: engine as u32,
            token,
        }));
    }
}

/// The production event loop over user-tagged requests, consumed
/// lazily as the clock reaches them (`requests` must be sorted by
/// `t_req`, and strictly frame-monotone per `(user, model)`). Returns
/// one [`SimResult`] per user, bit-identical to
/// [`crate::naive::run_tagged_naive`]. In `Fold` mode the returned
/// [`SimResult`]s carry empty `records` vectors (stats are still
/// complete). With `faults: None` this *is* the fault-free loop — no
/// fault state is allocated and every fault branch is behind an
/// `Option` check.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tagged(
    config: SimConfig,
    specs: &[(u32, &ScenarioSpec)],
    requests: &mut dyn Iterator<Item = SessionRequest>,
    provider: &dyn CostProvider,
    scheduler: &mut dyn Scheduler,
    duration_s: f64,
    mode: RecordMode<'_>,
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

    // A scheduler that lends a kernel is dispatched through the
    // indexed path for the whole run, faulted or not: its request
    // order keys the pick heap. Everything else takes `select`.
    let num_engines = provider.num_engines();
    let kernel_order = scheduler.kernel().map(|k| {
        k.reserve_engines(num_engines);
        k.order()
    });
    let mut prefs = PrefTable::new(num_engines);

    // Runtime state, pre-sized from spec-derived bounds: the calendar
    // and free set from the engine count, the queues and tables from
    // the dense key count.
    let cache = DenseCostCache::new(provider);
    let mut engines = Engines {
        free: FreeSet::all(num_engines, kernel_order.is_none()),
        token: vec![None; num_engines],
        next_token: 0,
        // Revoked completions stay queued in faulted runs while their
        // engine takes new work, so the calendar can outgrow the
        // engine count.
        calendar: Calendar::with_capacity(num_engines * 2 + 8),
    };
    let mut next_seq = 0u64;
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
    let mut out = Output {
        stats: vec![ModelStats::default(); num_keys],
        records: vec![Vec::new(); num_users],
        mode,
    };
    let mut last_frame: Vec<Option<(u64, u64)>> = vec![None; num_keys];

    let mut fstate = faults.map(|f| FaultState {
        events: f.timeline.events(),
        cursor: 0,
        policy: f.policy,
        engine_up: vec![true; num_engines],
        capacity: vec![1.0; num_engines],
        open: BTreeMap::new(),
        revoked: BTreeSet::new(),
    });

    let mut arrivals = requests.peekable();
    let mut now = 0.0_f64;

    loop {
        // 1. Process completions due now (stashed first, then the
        //    calendar drain, which pops each cohort in the total
        //    `(t, key, sensor_frame, token)` order) and re-queue
        //    cascade candidates deferred from the previous pass.
        drain_due(&mut engines.calendar, now + EPS, &mut due);
        for ev in due.drain(..) {
            if let Some(f) = fstate.as_mut() {
                if f.revoked.remove(&ev.token) {
                    // The dispatch was revoked by a fault; this is its
                    // stale completion.
                    continue;
                }
                if let Some(inf) = f.open.remove(&ev.token) {
                    emit_completion(&inf, &ev, &mut out);
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
                &mut engines.token,
                &mut engines.free,
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
                        engines.free.remove(engine);
                        scheduler.on_engine_down(engine, now);
                        // The outage may reorder a kernel's engine
                        // preferences (`FailoverAware`'s do).
                        prefs.invalidate();
                        let Some(token) = engines.token[engine].take() else {
                            continue;
                        };
                        f.revoked.insert(token);
                        let inf = f.open.remove(&token).expect("busy engine has open entry");
                        let key = inf.job.key as usize;
                        let sensor_frame = inf.job.sensor_frame;
                        match f.policy {
                            RecoveryPolicy::Drop => {
                                let reason = match kind {
                                    FaultKind::Failure => DropReason::DeviceLost,
                                    FaultKind::Preemption => DropReason::Preempted,
                                };
                                out.stats[key].record_drop(reason);
                                if !tables.downstream(key).is_empty() {
                                    // Dependents see the same Dropped
                                    // resolution an untriggered frame
                                    // would leave behind.
                                    if sensor_frame >= retire_threshold(key, nm, &tables, &floor) {
                                        resolved.insert(key, sensor_frame, Resolution::Dropped);
                                    }
                                    let user_base = key - key % nm;
                                    for &d in tables.downstream(key) {
                                        let dkey = user_base + d as usize;
                                        if waiting.occupied(dkey)
                                            && waiting.sensor_frame[dkey] == sensor_frame
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
                                    out.stats[key].record_drop(DropReason::Superseded);
                                } else {
                                    // In-flight implies a super-epsilon
                                    // span, so the fraction is well
                                    // defined and positive.
                                    let frac = if f.policy == RecoveryPolicy::Migrate {
                                        ((inf.t_end - now) / (inf.t_end - inf.t_start))
                                            .clamp(0.0, 1.0)
                                            * inf.job.frac
                                    } else {
                                        1.0
                                    };
                                    let seq = next_seq;
                                    next_seq += 1;
                                    ready.requeue_push(Queued { frac, ..inf.job }, seq);
                                }
                            }
                        }
                    }
                    FaultAction::Up => {
                        if f.engine_up[engine] {
                            continue;
                        }
                        f.engine_up[engine] = true;
                        engines.free.insert(engine);
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
            out.stats[key].total_frames += 1;
            if tables.has_deps(key) {
                // Freshness: a newer dependent frame supersedes an
                // older one still waiting for its upstream.
                if waiting.occupied(key) {
                    out.stats[key].record_drop(DropReason::Superseded);
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
                    &mut out.stats,
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
                out.stats[key].record_drop(DropReason::UpstreamDropped);
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
                    key,
                    user,
                    model,
                    w_frame,
                    w_sf,
                    w_t_req,
                    w_deadline,
                    seq,
                    &mut out.stats,
                );
            } else {
                // Legitimately deactivated: not streamed work for QoE
                // purposes.
                out.stats[key].untriggered_frames += 1;
                out.stats[key].total_frames -= 1;
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

        // 4. Dispatch ready requests onto free engines: through the
        //    indexed kernel when the scheduler lends one (the pick
        //    heap's root under its request order, its engine rule
        //    replayed exactly), else through its `select` over the
        //    view buffer, compacted once per cohort.
        if let Some(kernel) = scheduler.kernel() {
            while !engines.free.is_empty() {
                let Some(key) = ready.min_key() else { break };
                let engine = kernel_engine(kernel, key % nm, &engines.free, &cache, &mut prefs);
                let job = ready.take_key(key, users_raw[key / nm]);
                engines.dispatch(job, engine, now, &cache, fstate.as_mut(), &mut out);
            }
        } else {
            ready.compact();
            while !engines.free.is_empty() && !ready.is_empty() {
                let Some((ri, engine)) =
                    scheduler.select(ready.views(), &engines.free.list, &cache, now)
                else {
                    break;
                };
                assert!(
                    ri < ready.views().len(),
                    "scheduler returned bad request index"
                );
                assert!(
                    engines.free.contains(engine),
                    "scheduler returned busy engine {engine}"
                );
                let job = ready.remove_pos(ri);
                engines.dispatch(job, engine, now, &cache, fstate.as_mut(), &mut out);
            }
        }

        // 5. Advance to the next event strictly after `now`, stashing
        //    degenerate sub-epsilon completions for the next pass.
        let mut next = f64::INFINITY;
        if let Some(p) = arrivals.peek() {
            next = next.min(p.req.t_req);
        }
        drain_due(&mut engines.calendar, now + EPS, &mut due);
        if let Some(std::cmp::Reverse(ev)) = engines.calendar.peek() {
            next = next.min(ev.t);
        }
        if let Some(f) = &fstate {
            // Fault events only matter while some work can still use
            // the engines they toggle: with nothing queued, in flight,
            // or arriving, the remaining toggles are no-ops (waiting
            // frames can never resolve without completions).
            let work_pending = arrivals.peek().is_some()
                || !engines.calendar.is_empty()
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

    // Completions stashed as due when the loop ended (possible only
    // with sub-epsilon latencies) did execute; surface their deferred
    // records in faulted mode (the clean path emitted at dispatch).
    if let Some(f) = fstate.as_mut() {
        for ev in due.drain(..) {
            if f.revoked.remove(&ev.token) {
                continue;
            }
            if let Some(inf) = f.open.remove(&ev.token) {
                emit_completion(&inf, &ev, &mut out);
            }
        }
    }

    // Anything still queued at drain time never got to run within the
    // run's horizon; count as dropped.
    for (key, st) in out.stats.iter_mut().enumerate() {
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
    let mut result = BTreeMap::new();
    for (ui, &(user, _)) in specs.iter().enumerate() {
        let mut recs = std::mem::take(&mut out.records[ui]);
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
                user_stats.insert(m, out.stats[key].clone());
            }
        }
        result.insert(
            user,
            SimResult {
                records: recs,
                stats: user_stats,
                num_engines,
                duration_s,
            },
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The heap must be min-ordered and agree with the position
    /// array; every queued slot must hold its live key, and unqueued
    /// slots must have no position.
    fn assert_consistent(heap: &PickHeap, live: &[Option<PickKey>], ctx: &str) {
        for (i, e) in heap.heap.iter().enumerate() {
            if i > 0 {
                assert!(
                    heap.heap[(i - 1) / 2].key < e.key,
                    "{ctx}: entry {i} is not above its parent"
                );
            }
            assert_eq!(
                heap.pos[e.slot as usize], i as u32,
                "{ctx}: position of slot {}",
                e.slot
            );
        }
        for (slot, k) in live.iter().enumerate() {
            match k {
                Some(k) => {
                    let i = heap.pos[slot];
                    assert_ne!(i, NO_POS, "{ctx}: queued slot {slot} has no position");
                    assert_eq!(heap.heap[i as usize].key, *k, "{ctx}: key of slot {slot}");
                }
                None => assert_eq!(heap.pos[slot], NO_POS, "{ctx}: unqueued slot {slot}"),
            }
        }
    }

    #[test]
    fn pick_tree_matches_brute_force_argmin_after_every_operation() {
        // 11,264 = 1024 users x NUM_MODELS, the 1024-user session's key
        // space. Sets re-key queued slots to larger and smaller keys
        // alike, and clears hit non-minimum and never-set slots, though
        // the engine only raises queued keys and only removes the
        // minimum: this test is the one guard on those heap branches.
        for num_keys in [1usize, 2, 3, 66, 1_000, 1024 * NUM_MODELS] {
            for order in [RequestOrder::Edf, RequestOrder::Fifo] {
                let mut rng = StdRng::seed_from_u64(num_keys as u64 * 31 + order as u64);
                let mut heap = PickHeap::new(num_keys);
                let mut live: Vec<Option<PickKey>> = vec![None; num_keys];
                let mut occupied: Vec<usize> = Vec::new();
                // Coarse millisecond times make time-word ties common,
                // so the `(model, user)` word decides many comparisons.
                let draw_key = |rng: &mut StdRng, slot: usize| {
                    let t_req = rng.gen_range(0u32..40) as f64 * 1e-3;
                    let t_deadline = t_req + rng.gen_range(1u32..4) as f64 * 1e-3;
                    let user = (slot / NUM_MODELS) as u32;
                    pick_key(order, slot % NUM_MODELS, user, t_req, t_deadline)
                };
                for op in 0..600 {
                    let ctx = format!("{num_keys} keys, {order:?}, op {op}");
                    match rng.gen_range(0u32..9) {
                        // Set a random key, queued or not.
                        0..=2 => {
                            let slot = rng.gen_range(0..num_keys);
                            if live[slot].is_none() {
                                occupied.push(slot);
                            }
                            let k = draw_key(&mut rng, slot);
                            heap.set(slot, k);
                            live[slot] = Some(k);
                        }
                        // Overwrite a queued key (a supersession).
                        3 | 4 if !occupied.is_empty() => {
                            let slot = occupied[rng.gen_range(0..occupied.len())];
                            let k = draw_key(&mut rng, slot);
                            heap.set(slot, k);
                            live[slot] = Some(k);
                        }
                        // Clear a queued key.
                        5 if !occupied.is_empty() => {
                            let i = rng.gen_range(0..occupied.len());
                            let slot = occupied.swap_remove(i);
                            heap.clear(slot);
                            live[slot] = None;
                        }
                        // Clear any key, queued or not (clearing a key
                        // that was never set is a no-op), or take the
                        // minimum, as a kernel dispatch does.
                        op => {
                            let slot = if op == 6 {
                                Some(rng.gen_range(0..num_keys))
                            } else {
                                heap.min_slot()
                            };
                            if let Some(slot) = slot {
                                heap.clear(slot);
                                if live[slot].take().is_some() {
                                    let i = occupied
                                        .iter()
                                        .position(|&s| s == slot)
                                        .expect("a live key is listed");
                                    occupied.swap_remove(i);
                                }
                            }
                        }
                    }
                    let brute = occupied.iter().map(|&s| (live[s], s)).min().map(|(_, s)| s);
                    assert_eq!(heap.min_slot(), brute, "{ctx}: min_slot");
                    assert_consistent(&heap, &live, &ctx);
                }
            }
        }
    }
}
