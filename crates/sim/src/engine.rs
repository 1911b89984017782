//! The production event loop: a binary-heap completion calendar,
//! struct-of-arrays hot state, batched same-timestamp scheduling, and
//! precomputed per-scenario dispatch tables.
//!
//! This is the next-generation rewrite of the PR 3 heap engine (since
//! deleted). Its one differential reference is the quadratic loop in
//! [`crate::naive`], which shares [`run_tagged`]'s signature: both
//! loops stream every execution record to a sink and return per-user
//! stats, and the simulator's one assembly step builds results from
//! that. A run is one [`Run`] state whose methods are the phases of an
//! instant, in the reference loop's order. The four structural choices,
//! each preserving the event order bit-for-bit:
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
//!   whose removals during a same-timestamp cohort (phases 1–4) are
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
//! collected and streamed records, and fault policies. The
//! fault-injection semantics (revocation, recovery policies, deferred
//! emission) are unchanged since PR 7. A faulted run holds each busy
//! engine's dispatch in a per-engine slot, so it allocates no more per
//! dispatch than a fault-free one.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::iter::Peekable;

use xrbench_models::ModelId;
use xrbench_workload::loadgen::time_bits;
use xrbench_workload::{ScenarioSpec, SessionRequest};

use crate::calendar::{drain_due, Calendar, CompletionEv};
use crate::fault::{FaultAction, FaultEvent, FaultKind, FaultTimeline, RecoveryPolicy};
use crate::provider::{CostProvider, DenseCostCache, NUM_MODELS};
use crate::result::{DropReason, ExecRecord, ModelStats};
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

/// One frame slot per dense `(user, model)` key in struct-of-arrays
/// layout (`seq == EMPTY_SEQ` marks an empty slot), pre-sized at
/// setup: the storage of both the ready and the waiting queue.
struct Slots {
    seq: Vec<u64>,
    frame_id: Vec<u64>,
    sensor_frame: Vec<u64>,
    t_req: Vec<f64>,
    t_deadline: Vec<f64>,
    /// Remaining-work fraction: 1.0 for fresh frames, smaller for
    /// checkpointed work migrating off a lost engine.
    frac: Vec<f64>,
}

impl Slots {
    fn new(num_keys: usize) -> Self {
        Self {
            seq: vec![EMPTY_SEQ; num_keys],
            frame_id: vec![0; num_keys],
            sensor_frame: vec![0; num_keys],
            t_req: vec![0.0; num_keys],
            t_deadline: vec![0.0; num_keys],
            frac: vec![1.0; num_keys],
        }
    }

    #[inline]
    fn occupied(&self, key: usize) -> bool {
        self.seq[key] != EMPTY_SEQ
    }

    /// Writes `job` into its key's slot under queue sequence number
    /// `seq`.
    fn put(&mut self, job: &Queued, seq: u64) {
        let key = job.key as usize;
        self.seq[key] = seq;
        self.frame_id[key] = job.view.frame_id;
        self.sensor_frame[key] = job.sensor_frame;
        self.t_req[key] = job.view.t_req;
        self.t_deadline[key] = job.view.t_deadline;
        self.frac[key] = job.frac;
    }

    /// Empties `key`'s slot and returns its frame as `user`'s.
    fn take(&mut self, key: usize, user: u32) -> Queued {
        self.seq[key] = EMPTY_SEQ;
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

/// The dispatchable-request queue: its [`Slots`] plus the dispatch
/// index.
struct Ready {
    slots: Slots,
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
            slots: Slots::new(num_keys),
            count: 0,
            index,
        }
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    fn occupied(&self, key: usize) -> bool {
        self.slots.occupied(key)
    }

    /// Queues `job` under `seq`, dropping (freshness policy) its key's
    /// older queued frame, if one exists, into `stats`. Heap mode needs
    /// no removal for the drop: the push re-keys the key's queued entry
    /// in place, which leaves the heap ordered just as a removal and a
    /// fresh insert would.
    fn supersede_push(&mut self, job: Queued, seq: u64, stats: &mut ModelStats) {
        let key = job.key as usize;
        if self.occupied(key) {
            assert!(
                self.slots.frame_id[key] < job.view.frame_id,
                "ready queue requires strictly increasing frame ids per (user, model)"
            );
            stats.record_drop(DropReason::Superseded);
            if let ReadyIndex::Buffer { meta, dead, .. } = &mut self.index {
                let pos = meta
                    .binary_search_by_key(&self.slots.seq[key], |m| m.seq)
                    .expect("slot seq is queued");
                meta[pos].dead = true;
                *dead += 1;
            }
            self.count -= 1;
        }
        self.push(job, seq);
    }

    /// Re-queues a revoked in-flight frame (requeue/migrate recovery)
    /// carrying its remaining-work fraction. The key's slot must be
    /// empty — if a newer frame is queued, freshness drops the revoked
    /// one instead of calling this.
    fn requeue_push(&mut self, job: Queued, seq: u64) {
        assert!(
            !self.occupied(job.key as usize),
            "requeue into an occupied slot"
        );
        self.push(job, seq);
    }

    /// Writes `job` into its key's slot and attaches it to the dispatch
    /// index: a new buffer entry, or a heap insert or in-place re-key.
    fn push(&mut self, job: Queued, seq: u64) {
        let key = job.key as usize;
        self.slots.put(&job, seq);
        self.count += 1;
        match &mut self.index {
            ReadyIndex::Buffer { views, meta, .. } => {
                views.push(job.view);
                meta.push(BufMeta {
                    seq,
                    key: job.key,
                    dead: false,
                });
            }
            ReadyIndex::Heap { heap, order } => {
                let v = &job.view;
                heap.set(
                    key,
                    pick_key(*order, key % NUM_MODELS, v.user, v.t_req, v.t_deadline),
                );
            }
        }
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
        self.count -= 1;
        self.slots.take(key, user)
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

struct Window {
    buf: Vec<(u64, Resolution)>,
    head: usize,
}

impl ResolutionStore {
    /// One window per key. A key with dependents starts with room for a
    /// few resolutions, so a key first resolved late in a run (say, by
    /// a revocation's Dropped resolution) does not allocate mid-run.
    fn new(tables: &Tables, num_keys: usize) -> Self {
        let window = |key| Window {
            buf: Vec::with_capacity(if tables.downstream(key).is_empty() {
                0
            } else {
                4
            }),
            head: 0,
        };
        Self {
            wins: (0..num_keys).map(window).collect(),
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

/// Raw user id → dense user index. Dense ids (the common case: session
/// builders assign 0..n) get a direct lookup table; sparse ids fall
/// back to binary search.
pub(crate) enum UserIndex {
    /// `table[id] == idx + 1`, 0 marks an unknown id.
    Dense(Vec<u32>),
    /// Sorted `(id, idx)` pairs.
    Sparse(Vec<(u32, u32)>),
}

impl UserIndex {
    pub(crate) fn build(users: &[u32]) -> Self {
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
    pub(crate) fn get(&self, user: u32) -> usize {
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

/// Fault-injection inputs for one run: the expanded event schedule and
/// the recovery policy for revoked in-flight work.
pub(crate) struct FaultCtx<'a> {
    /// The expanded, time-sorted fault schedule.
    pub timeline: &'a FaultTimeline,
    /// What to do with in-flight work on a lost engine.
    pub policy: RecoveryPolicy,
}

/// Where an event loop streams its records: each executed inference is
/// handed over as `(user, record)`.
pub(crate) type Sink<'a> = &'a mut dyn FnMut(u32, &ExecRecord);

/// One user's per-model accounting, as an event loop returns it.
pub(crate) type UserStats = BTreeMap<ModelId, ModelStats>;

/// A frame taken off the ready or the waiting queue.
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
    /// The arriving frame `p`, under its dense key `key`.
    fn fresh(key: usize, p: &SessionRequest) -> Self {
        Self {
            key: key as u32,
            view: PendingView {
                user: p.user,
                model: p.req.model,
                frame_id: p.req.frame_id,
                t_req: p.req.t_req,
                t_deadline: p.req.t_deadline,
            },
            sensor_frame: p.req.sensor_frame,
            frac: 1.0,
        }
    }

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
    events: &'a [FaultEvent],
    cursor: usize,
    policy: RecoveryPolicy,
    engine_up: Vec<bool>,
    /// Current capacity multiplier per engine, sampled at dispatch
    /// time (a throttle landing mid-flight does not stretch work
    /// already on the engine).
    capacity: Vec<f64>,
    /// The dispatch each busy engine runs, held for revocation and for
    /// its deferred stats and record at completion. A slot is valid
    /// while `Engines::token[engine]` names its dispatch, so a
    /// completion whose token its engine no longer names was revoked.
    running: Vec<Option<InFlight>>,
    /// Sub-epsilon dispatches by token. They leave their engine free,
    /// so they hold no slot, and no fault can revoke them.
    instant: Vec<(u64, InFlight)>,
}

impl FaultState<'_> {
    /// The next fault event due by `now`, if any, consumed.
    fn pop_due(&mut self, now: f64) -> Option<FaultEvent> {
        let ev = *self
            .events
            .get(self.cursor)
            .filter(|ev| ev.t <= now + EPS)?;
        self.cursor += 1;
        Some(ev)
    }
}

/// A run's per-key stats and the sink its records stream to.
struct Output<'a> {
    stats: Vec<ModelStats>,
    sink: Sink<'a>,
}

impl Output<'_> {
    /// Counts one execution of `key` and streams its record as `user`'s.
    fn emit(&mut self, key: usize, user: u32, record: ExecRecord) {
        let st = &mut self.stats[key];
        st.executed_frames += 1;
        if record.t_end > record.t_deadline {
            st.missed_deadlines += 1;
        }
        (self.sink)(user, &record);
    }
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
    /// current capacity, and is held in `faults` to emit at completion,
    /// because a fault may yet revoke it.
    fn dispatch(
        &mut self,
        job: Queued,
        engine: usize,
        now: f64,
        cache: &DenseCostCache<'_>,
        faults: Option<&mut FaultState<'_>>,
        out: &mut Output<'_>,
    ) {
        let cost = cache.cost(job.view.model, engine);
        let token = self.next_token;
        self.next_token += 1;
        let t_end = match &faults {
            Some(f) => now + cost.latency_s * job.frac / f.capacity[engine],
            None => now + cost.latency_s,
        };
        // Degenerate sub-epsilon latencies leave the engine free,
        // matching the reference loop's fresh free-set rescan; the stale
        // token then never matches at completion time.
        let occupies = t_end > now + EPS;
        if occupies {
            self.token[engine] = Some(token);
            self.free.remove(engine);
        }
        match faults {
            Some(f) => {
                let inf = InFlight {
                    job,
                    t_start: now,
                    t_end,
                    energy_j: cost.energy_j * job.frac,
                };
                if occupies {
                    f.running[engine] = Some(inf);
                } else {
                    f.instant.push((token, inf));
                }
            }
            None => {
                let record = job.record(engine, now, t_end, cost.energy_j);
                out.emit(job.key as usize, job.view.user, record);
            }
        }
        self.calendar.push(Reverse(CompletionEv {
            t: t_end,
            key: job.key,
            sensor_frame: job.sensor_frame,
            engine: engine as u32,
            token,
        }));
    }
}

/// The state of one run of the production loop. Each phase of an
/// instant is one method, called in the reference loop's order: due
/// completions, due fault events, due arrivals, the waiting pass and
/// dispatch; then [`Run::advance`] moves the clock, and
/// [`Run::finish`] drains what is left when no event is.
struct Run<'a> {
    seed: u64,
    /// Raw user id by dense user index.
    users: Vec<u32>,
    uidx: UserIndex,
    tables: Tables,
    /// Keys that must appear in the output stats: spec members, plus
    /// any key a request touched.
    touched: Vec<bool>,
    cache: DenseCostCache<'a>,
    scheduler: &'a mut dyn Scheduler,
    prefs: PrefTable,
    engines: Engines,
    /// Due completions: calendar entries discovered at or before
    /// `now + EPS` while looking for the next event time (possible only
    /// for degenerate sub-epsilon latencies) are stashed here, and the
    /// reference loop processes them at the *next* event time, so we do
    /// too.
    due: Vec<CompletionEv>,
    next_seq: u64,
    ready: Ready,
    /// Dependent frames parked until their upstreams resolve.
    waiting: Slots,
    /// Waiting frames to look at in this instant's pass, as
    /// `(seq, key)`: popped in waiting-queue order.
    pass: BinaryHeap<Reverse<(u64, u32)>>,
    /// Candidates the pass under way had already gone by: they join
    /// the next instant's pass.
    deferred: Vec<(u64, u32)>,
    resolved: ResolutionStore,
    /// Per key, the oldest sensor frame its dependent frames may still
    /// look up upstream.
    floor: Vec<u64>,
    last_frame: Vec<Option<(u64, u64)>>,
    out: Output<'a>,
    faults: Option<FaultState<'a>>,
    arrivals: Peekable<&'a mut dyn Iterator<Item = SessionRequest>>,
    now: f64,
}

impl<'a> Run<'a> {
    /// Sets up a run, pre-sized from spec-derived bounds: the calendar,
    /// the due stash and the free set from the engine count, the queues
    /// and tables from the dense key count.
    fn new(
        config: SimConfig,
        specs: &[(u32, &ScenarioSpec)],
        requests: &'a mut dyn Iterator<Item = SessionRequest>,
        provider: &'a dyn CostProvider,
        scheduler: &'a mut dyn Scheduler,
        faults: Option<FaultCtx<'a>>,
        sink: Sink<'a>,
    ) -> Self {
        assert!(provider.num_engines() > 0, "provider must expose engines");
        let users: Vec<u32> = specs.iter().map(|&(u, _)| u).collect();
        let num_keys = users.len() * NUM_MODELS;
        let mut touched = vec![false; num_keys];
        for (ui, &(_, spec)) in specs.iter().enumerate() {
            for m in &spec.models {
                touched[ui * NUM_MODELS + m.model as usize] = true;
            }
        }
        // A scheduler that lends a kernel is dispatched through the
        // indexed path for the whole run, faulted or not: its request
        // order keys the pick heap. Everything else takes `select`.
        let tables = Tables::build(specs);
        let resolved = ResolutionStore::new(&tables, num_keys);
        let num_engines = provider.num_engines();
        let kernel_order = scheduler.kernel().map(|k| {
            k.reserve_engines(num_engines);
            k.order()
        });
        Self {
            seed: config.seed,
            uidx: UserIndex::build(&users),
            users,
            tables,
            touched,
            cache: DenseCostCache::new(provider),
            scheduler,
            prefs: PrefTable::new(num_engines),
            engines: Engines {
                free: FreeSet::all(num_engines, kernel_order.is_none()),
                token: vec![None; num_engines],
                next_token: 0,
                // Revoked completions stay queued in faulted runs while
                // their engine takes new work, so the calendar can
                // outgrow the engine count.
                calendar: Calendar::with_capacity(num_engines * 2 + 8),
            },
            due: Vec::with_capacity(num_engines * 2 + 8),
            next_seq: 0,
            ready: Ready::new(num_keys, kernel_order),
            waiting: Slots::new(num_keys),
            pass: BinaryHeap::with_capacity(num_keys + 16),
            deferred: Vec::with_capacity(32),
            resolved,
            floor: vec![0; num_keys],
            last_frame: vec![None; num_keys],
            out: Output {
                stats: vec![ModelStats::default(); num_keys],
                sink,
            },
            faults: faults.map(|f| FaultState {
                events: f.timeline.events(),
                cursor: 0,
                policy: f.policy,
                engine_up: vec![true; num_engines],
                capacity: vec![1.0; num_engines],
                running: vec![None; num_engines],
                instant: Vec::with_capacity(num_engines * 2 + 8),
            }),
            arrivals: requests.peekable(),
            now: 0.0,
        }
    }

    /// Phase 1: completions due now (stashed first, then the calendar
    /// drain, which pops each cohort in the total
    /// `(t, key, sensor_frame, token)` order), then the candidates the
    /// last pass deferred.
    fn complete_due(&mut self) {
        drain_due(&mut self.engines.calendar, self.now + EPS, &mut self.due);
        let mut due = std::mem::take(&mut self.due);
        for ev in due.drain(..) {
            self.process_completion(ev);
        }
        self.due = due;
        for c in self.deferred.drain(..) {
            self.pass.push(Reverse(c));
        }
    }

    /// Applies one due completion: a faulted run first emits its
    /// deferred record, and skips it altogether if a fault revoked the
    /// dispatch. A live one resolves its frame as completed and frees
    /// its engine.
    fn process_completion(&mut self, ev: CompletionEv) {
        if self.faults.is_some() && !self.emit_completion(&ev) {
            return;
        }
        let (key, engine) = (ev.key as usize, ev.engine as usize);
        self.resolve(key, ev.sensor_frame, Resolution::Completed, None);
        if self.engines.token[engine] == Some(ev.token) {
            self.engines.token[engine] = None;
            self.engines.free.insert(engine);
        }
    }

    /// Emits the deferred stats and record of the faulted dispatch that
    /// `ev` completes. Returns false, emitting nothing, if a fault
    /// revoked the dispatch.
    fn emit_completion(&mut self, ev: &CompletionEv) -> bool {
        let f = self.faults.as_mut().expect("a faulted run");
        let engine = ev.engine as usize;
        let inf = if self.engines.token[engine] == Some(ev.token) {
            f.running[engine].take()
        } else {
            let i = f.instant.iter().position(|&(token, _)| token == ev.token);
            i.map(|i| f.instant.swap_remove(i).1)
        };
        let Some(inf) = inf else {
            return false;
        };
        let record = inf.job.record(engine, inf.t_start, ev.t, inf.energy_j);
        self.out.emit(ev.key as usize, inf.job.view.user, record);
        true
    }

    /// Phase 2: fault events due now. Engines leave or rejoin the free
    /// set, capacity multipliers update, and in-flight work on a lost
    /// engine is revoked and recovered per policy.
    fn apply_faults(&mut self) {
        let now = self.now;
        while let Some(fev) = self.faults.as_mut().and_then(|f| f.pop_due(now)) {
            let engine = fev.engine as usize;
            let f = self.faults.as_mut().expect("a faulted run");
            if engine >= f.engine_up.len() {
                continue;
            }
            match fev.action {
                FaultAction::Down(kind) => {
                    if std::mem::replace(&mut f.engine_up[engine], false) {
                        self.take_down(engine, kind);
                    }
                }
                FaultAction::Up => {
                    if !std::mem::replace(&mut f.engine_up[engine], true) {
                        self.engines.free.insert(engine);
                    }
                }
                FaultAction::Capacity(c) => f.capacity[engine] = c,
            }
        }
    }

    /// Takes a running engine down: it leaves the free set, and the
    /// dispatch it runs, if any, is revoked and recovered per policy.
    fn take_down(&mut self, engine: usize, kind: FaultKind) {
        self.engines.free.remove(engine);
        self.scheduler.on_engine_down(engine, self.now);
        // The outage may reorder a kernel's engine preferences
        // (`FailoverAware`'s do).
        self.prefs.invalidate();
        if self.engines.token[engine].take().is_none() {
            return;
        }
        let f = self.faults.as_mut().expect("a faulted run");
        let policy = f.policy;
        let inf = f.running[engine]
            .take()
            .expect("a busy engine runs a dispatch");
        let key = inf.job.key as usize;
        match policy {
            RecoveryPolicy::Drop => {
                let reason = match kind {
                    FaultKind::Failure => DropReason::DeviceLost,
                    FaultKind::Preemption => DropReason::Preempted,
                };
                self.out.stats[key].record_drop(reason);
                // Dependents see the same Dropped resolution an
                // untriggered frame would leave behind.
                self.resolve(key, inf.job.sensor_frame, Resolution::Dropped, None);
            }
            RecoveryPolicy::Requeue | RecoveryPolicy::Migrate => {
                if self.ready.occupied(key) {
                    // A newer frame is already queued: freshness drops
                    // the revoked one.
                    self.out.stats[key].record_drop(DropReason::Superseded);
                } else {
                    // In-flight implies a super-epsilon span, so the
                    // fraction is well defined and positive.
                    let frac = if policy == RecoveryPolicy::Migrate {
                        ((inf.t_end - self.now) / (inf.t_end - inf.t_start)).clamp(0.0, 1.0)
                            * inf.job.frac
                    } else {
                        1.0
                    };
                    let seq = self.take_seq();
                    self.ready.requeue_push(Queued { frac, ..inf.job }, seq);
                }
            }
        }
    }

    /// Phase 3: arrivals due now. A dependent frame parks in the
    /// waiting queue as a candidate for this instant's pass; any other
    /// joins the ready queue.
    fn ingest_arrivals(&mut self) {
        let bound = self.now + EPS;
        while let Some(p) = self.arrivals.next_if(|p| p.req.t_req <= bound) {
            let key = self.uidx.get(p.user) * NUM_MODELS + p.req.model as usize;
            if let Some((lf, lsf)) = self.last_frame[key] {
                assert!(
                    p.req.frame_id > lf && p.req.sensor_frame > lsf,
                    "requests for {} (user {}) must have strictly increasing \
                     frame_id and sensor_frame",
                    p.req.model,
                    p.user
                );
            }
            self.last_frame[key] = Some((p.req.frame_id, p.req.sensor_frame));
            self.touched[key] = true;
            self.out.stats[key].total_frames += 1;
            let job = Queued::fresh(key, &p);
            if !self.tables.has_deps(key) {
                self.enqueue(job);
                continue;
            }
            // Freshness: a newer dependent frame supersedes an older
            // one still waiting for its upstream.
            if self.waiting.occupied(key) {
                self.out.stats[key].record_drop(DropReason::Superseded);
            }
            let seq = self.take_seq();
            self.waiting.put(&job, seq);
            // Lookups now target this frame and nothing older.
            if job.sensor_frame > self.floor[key] {
                self.floor[key] = job.sensor_frame;
                self.retire_upstreams(key);
            }
            self.pass.push(Reverse((seq, job.key)));
        }
    }

    /// Phase 4: the waiting pass. Candidates pop in waiting-queue (seq)
    /// order, exactly mirroring the reference loop's linear scan. A
    /// frame whose upstreams are all decided leaves the queue: dropped
    /// if one of them dropped, else ready if every trigger draw fires,
    /// else untriggered.
    fn resolve_waiting(&mut self) {
        'pass: while let Some(Reverse((seq, key32))) = self.pass.pop() {
            let key = key32 as usize;
            if self.waiting.seq[key] != seq {
                continue; // superseded since candidacy
            }
            let user_base = key - key % NUM_MODELS;
            let sensor_frame = self.waiting.sensor_frame[key];
            let (ups, probs) = self.tables.deps(key);
            let mut any_dropped = false;
            for &up in ups {
                match self.resolved.get(user_base + up as usize, sensor_frame) {
                    None => continue 'pass, // upstream still in flight
                    Some(Resolution::Dropped) => any_dropped = true,
                    Some(Resolution::Completed) => {}
                }
            }
            let user = self.users[key / NUM_MODELS];
            let job = self.waiting.take(key, user);
            // Exactly one seeded draw per (user, model, upstream, frame)
            // decision: the waiting slot holds one frame per key and is
            // emptied here, and frame ids are strictly increasing, so no
            // decision can ever be re-evaluated — no memo table needed.
            let fires = !any_dropped
                && ups.iter().zip(probs).all(|(&up, &prob)| {
                    let upstream = ModelId::ALL[up as usize];
                    let model = job.view.model;
                    trigger_draw(self.seed, user, model, upstream, job.view.frame_id, prob)
                });
            self.floor[key] = sensor_frame + 1;
            self.retire_upstreams(key);
            if any_dropped {
                self.out.stats[key].record_drop(DropReason::UpstreamDropped);
            } else if fires {
                self.enqueue(job);
            } else {
                // Legitimately deactivated: not streamed work for QoE
                // purposes. This may unblock further dependents.
                let st = &mut self.out.stats[key];
                st.untriggered_frames += 1;
                st.total_frames -= 1;
                self.resolve(key, sensor_frame, Resolution::Dropped, Some(seq));
            }
        }
    }

    /// Phase 5: ready requests go onto free engines — through the
    /// indexed kernel when the scheduler lends one (the pick heap's
    /// root under its request order, its engine rule replayed exactly),
    /// else through its `select` over the view buffer, compacted once
    /// per instant.
    fn dispatch(&mut self) {
        if let Some(kernel) = self.scheduler.kernel() {
            while !self.engines.free.is_empty() {
                let Some(key) = self.ready.min_key() else {
                    break;
                };
                let free = &self.engines.free;
                let engine =
                    kernel_engine(kernel, key % NUM_MODELS, free, &self.cache, &mut self.prefs);
                let job = self.ready.take_key(key, self.users[key / NUM_MODELS]);
                let faults = self.faults.as_mut();
                self.engines
                    .dispatch(job, engine, self.now, &self.cache, faults, &mut self.out);
            }
        } else {
            self.ready.compact();
            while !self.engines.free.is_empty() && !self.ready.is_empty() {
                let views = self.ready.views();
                let free = &self.engines.free;
                let Some((ri, engine)) =
                    self.scheduler
                        .select(views, &free.list, &self.cache, self.now)
                else {
                    break;
                };
                assert!(ri < views.len(), "scheduler returned bad request index");
                assert!(
                    free.contains(engine),
                    "scheduler returned busy engine {engine}"
                );
                let job = self.ready.remove_pos(ri);
                let faults = self.faults.as_mut();
                self.engines
                    .dispatch(job, engine, self.now, &self.cache, faults, &mut self.out);
            }
        }
    }

    /// Phase 6: moves the clock to the next event strictly after `now`,
    /// stashing degenerate sub-epsilon completions for the next instant.
    /// Returns false when no event is left.
    fn advance(&mut self) -> bool {
        let arrival = self.arrivals.peek().map(|p| p.req.t_req);
        drain_due(&mut self.engines.calendar, self.now + EPS, &mut self.due);
        let completion = self.engines.calendar.peek().map(|Reverse(ev)| ev.t);
        // Fault events only matter while some work can still use the
        // engines they toggle: with nothing queued, in flight, or
        // arriving, the remaining toggles are no-ops (waiting frames can
        // never resolve without completions).
        let work_pending = arrival.is_some()
            || completion.is_some()
            || !self.due.is_empty()
            || !self.ready.is_empty();
        let fault = (self.faults.as_ref())
            .and_then(|f| f.events.get(f.cursor))
            .filter(|_| work_pending)
            .map(|ev| ev.t);
        let next = [arrival, completion, fault]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if next.is_infinite() {
            return false;
        }
        self.now = next;
        true
    }

    /// Phase 7, once no event is left: a faulted run emits the
    /// completions still stashed as due (possible only with sub-epsilon
    /// latencies; they did execute), every frame still queued counts as
    /// starved, and each user's stats are returned for the keys its spec
    /// or its requests touched.
    fn finish(&mut self) -> BTreeMap<u32, UserStats> {
        if self.faults.is_some() {
            for ev in std::mem::take(&mut self.due) {
                self.emit_completion(&ev);
            }
        }
        for (key, st) in self.out.stats.iter_mut().enumerate() {
            if self.waiting.occupied(key) {
                st.record_drop(DropReason::Starved);
            }
            if self.ready.occupied(key) {
                st.record_drop(DropReason::Starved);
            }
        }
        let stats = &self.out.stats;
        (self.users.iter().enumerate())
            .map(|(ui, &user)| {
                let user_stats = (ModelId::ALL.iter().zip(ui * NUM_MODELS..))
                    .filter(|&(_, key)| self.touched[key])
                    .map(|(&model, key)| (model, stats[key].clone()))
                    .collect();
                (user, user_stats)
            })
            .collect()
    }

    /// The next waiting- or ready-queue sequence number.
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Queues `job` for dispatch; freshness drops its key's older queued
    /// frame.
    fn enqueue(&mut self, job: Queued) {
        let seq = self.take_seq();
        let stats = &mut self.out.stats[job.key as usize];
        self.ready.supersede_push(job, seq, stats);
    }

    /// The one resolution step: records how `key`'s frame of
    /// `sensor_frame` ended (unless no dependent can still look it up)
    /// and wakes the waiting dependents of the same sensor frame. They
    /// join the current pass, except the ones queued at or before
    /// `passed`, the candidate a pass under way is resolving: the
    /// reference scan has gone by those, so they wait for the next
    /// instant.
    fn resolve(&mut self, key: usize, sensor_frame: u64, res: Resolution, passed: Option<u64>) {
        let downstream = self.tables.downstream(key);
        if downstream.is_empty() {
            return;
        }
        if sensor_frame >= self.retire_threshold(key) {
            self.resolved.insert(key, sensor_frame, res);
        }
        let user_base = key - key % NUM_MODELS;
        for &d in downstream {
            let dkey = user_base + d as usize;
            if self.waiting.occupied(dkey) && self.waiting.sensor_frame[dkey] == sensor_frame {
                let candidate = (self.waiting.seq[dkey], dkey as u32);
                if passed.is_some_and(|seq| candidate.0 <= seq) {
                    self.deferred.push(candidate);
                } else {
                    self.pass.push(Reverse(candidate));
                }
            }
        }
    }

    /// The smallest sensor frame any dependent of `key` may still look
    /// up — resolutions of `key` below this watermark are unreachable.
    fn retire_threshold(&self, key: usize) -> u64 {
        let user_base = key - key % NUM_MODELS;
        (self.tables.downstream(key).iter())
            .map(|&d| self.floor[user_base + d as usize])
            .min()
            .unwrap_or(u64::MAX)
    }

    /// After `key`'s watermark advanced: retire upstream resolutions no
    /// dependent can reference anymore. Each resolution is retired at
    /// most once, so the cost amortizes to a constant per completion.
    fn retire_upstreams(&mut self, key: usize) {
        let user_base = key - key % NUM_MODELS;
        let (ups, _) = self.tables.deps(key);
        for &up in ups {
            let upkey = user_base + up as usize;
            let threshold = self.retire_threshold(upkey);
            self.resolved.retire_below(upkey, threshold);
        }
    }
}

/// The production event loop over user-tagged requests, consumed
/// lazily as the clock reaches them (`requests` must be sorted by
/// `t_req`, and strictly frame-monotone per `(user, model)`). It
/// streams every execution record to `sink` and returns each user's
/// per-model stats, both bit-identical to
/// [`crate::naive::run_tagged_naive`]. With `faults: None` this *is*
/// the fault-free loop — no fault state is allocated and every fault
/// branch is behind an `Option` check.
pub(crate) fn run_tagged(
    config: SimConfig,
    specs: &[(u32, &ScenarioSpec)],
    requests: &mut dyn Iterator<Item = SessionRequest>,
    provider: &dyn CostProvider,
    scheduler: &mut dyn Scheduler,
    faults: Option<FaultCtx<'_>>,
    sink: Sink<'_>,
) -> BTreeMap<u32, UserStats> {
    let mut run = Run::new(config, specs, requests, provider, scheduler, faults, sink);
    loop {
        run.complete_due();
        run.apply_faults();
        run.ingest_arrivals();
        run.resolve_waiting();
        run.dispatch();
        if !run.advance() {
            return run.finish();
        }
    }
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
