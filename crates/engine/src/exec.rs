//! The shared physical-plan executor: sequential by default, and a
//! dependency-counted DAG walk over the persistent worker pool
//! ([`crate::pool`]) when parallelism is configured.
//!
//! One operator set executes any [`PhysPlan`] (see [`crate::physical`]
//! for the operator ↔ paper-section map); all three engines —
//! relational, holistic twig, TwigStack — funnel through
//! [`execute_with`] and differ only in how they *lower*.
//!
//! # The two execution modes
//!
//! * **Sequential** (`shards == 1`, the default): operators run in
//!   arena order on the calling thread, each result parks in its slot
//!   until its last consumer has read it, and buffers recycle through
//!   the pooled [`ExecBuffers`]. No pool job is ever submitted — this
//!   is the degenerate case the parallel path must match
//!   byte-for-byte.
//! * **Pooled DAG walk** (`shards > 1`): operators run as jobs on
//!   [`ExecConfig::pool`] — a persistent pool shared across scans
//!   *and* queries (`blas::BlasDb` keeps one for its lifetime; there
//!   are **no per-scan thread spawns anywhere**). Scheduling is
//!   dependency-counted: each operator starts with one credit per
//!   input edge ([`PhysPlan::input_counts`]), a finishing job
//!   decrements its consumers' credits ([`PhysPlan::consumers`]) and
//!   schedules whichever dependents just reached zero. Independent
//!   subtrees — the two sides of a [`PhysOp::StructuralJoin`], every
//!   [`PhysOp::Union`] arm, every twig branch feeding
//!   [`PhysOp::TwigStackMatch`] — therefore execute concurrently,
//!   not just the scans.
//!
//! # Amortizing per-operator overhead (chain collapsing + scratch)
//!
//! Making *every* operator a queue job is wasteful exactly where BLAS
//! shines — µs-scale point queries, whose plans are mostly **linear
//! chains** (scan → filter → materialize). Two mechanisms bound the
//! pooled path's fixed costs so it stays within a constant factor of
//! sequential even with no parallelism available:
//!
//! * **Chain collapsing.** When a finishing producer releases
//!   **exactly one** now-ready consumer, the consumer runs *inline*
//!   as a continuation of the producer's job — no queue round-trip,
//!   recorded as [`ProbeEvent::Inlined`]. Only genuine forks (a
//!   release of two or more ready dependents, and the plan's roots)
//!   pay the queue, so a linear pipeline is exactly **one** pool job
//!   end to end, while join sides, union arms and twig branches still
//!   fan out. [`ExecConfig::collapse_chains`] (default on) gates the
//!   rule; the scheduling test suite runs both settings.
//! * **Per-worker scratch caches.** Each operator job checks its
//!   [`ExecBuffers`] out of the executing thread's lock-free scratch
//!   cache ([`crate::pool::take_scratch`]) instead of allocating
//!   fresh, and checks it back in when the job (including everything
//!   it ran inline) finishes — the sequential path's one-pool
//!   recycling, generalized per worker. [`ExecStats`] counts
//!   checkouts and cache hits so reuse is observable.
//!
//! # Sharded scans
//!
//! Inside the pooled walk, every [`PhysOp::ClusteredScan`] large
//! enough to be worth it (`min_shard_elems`) additionally fans out
//! *within* its job:
//!
//! 1. storage partitions the scan's clustered runs into balanced
//!    groups of zero-copy pieces (`blas_storage::shard_runs`,
//!    splitting oversized runs);
//! 2. the scan job submits groups 1… as pool sub-jobs and scans group
//!    0 itself, **helping the pool while it waits** (so even a
//!    zero-worker pool cannot deadlock); each sub-job filters its
//!    pieces into a private buffer, restores start order among *its
//!    own* pieces with the k-way ordering kernel
//!    ([`crate::stream::merge_sorted`]), and tallies tuples into a
//!    private per-shard [`ExecStats`] accumulator — no shared
//!    counters, so no double-count risk;
//! 3. the scan job merges the per-shard accumulators **once**, asserts
//!    every tuple was counted exactly once, and restores global start
//!    order across shard outputs with the same kernel (shards whose
//!    start spans do not overlap, the common case for single-run
//!    scans, are copied whole).
//!
//! Because starts are unique within a document and every operator is
//! deterministic in its inputs, the pooled path is byte-identical to
//! the sequential one — same labels, same order, same counters —
//! which the equivalence property suite checks across {1, 2, 4, 7}
//! pool threads on all three engines.

use crate::physical::{OpId, PhysOp, PhysPlan};
use crate::pool::{self, PoolHandle, Scope};
use crate::stats::ExecStats;
use crate::stjoin::{filter_flagged_into, structural_match_into};
use crate::stream::{
    materialize, merge_scan_runs, merge_sorted, resolve_filter, ExecBuffers, Filter, Labels,
    MergeScratch,
};
use crate::twigstack;
use blas_labeling::DLabel;
use blas_storage::{NodeStore, ScanRun, NO_VALUE};
use blas_translate::{BoundSource, Side};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Tuples a shard must at least receive before a scan is parallelized;
/// below `2 ×` this, job fan-out costs more than it saves.
pub const DEFAULT_MIN_SHARD_ELEMS: usize = 4096;

/// Executor configuration: how many ways to split clustered scans, and
/// which persistent worker pool runs the operator jobs.
///
/// `shards == 1` (the default) is the **sequential fallback**: every
/// operator runs on the calling thread, nothing is ever submitted to
/// the pool, and the carried pool is the zero-worker
/// [`PoolHandle::inline`]. With `shards > 1` the whole plan executes
/// as dependency-counted jobs on [`ExecConfig::pool`] — which should
/// be a long-lived pool shared across queries (see
/// [`ExecConfig::on_pool`]); [`ExecConfig::sharded`] spins up a
/// private pool for one-off use. Pool sizing guidance lives on
/// [`PoolHandle`]: `available_parallelism() − 1` workers is the
/// default, because the thread that submits a plan helps execute it.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker count sharded scans split into, and the parallel/
    /// sequential switch: `1` executes every operator sequentially on
    /// the calling thread.
    pub shards: usize,
    /// Minimum tuples per shard before a scan fans out; tests force
    /// the parallel path on tiny stores by setting this to 1.
    pub min_shard_elems: usize,
    /// The persistent pool operator jobs and scan shards run on.
    /// Ignored when `shards == 1`.
    pub pool: PoolHandle,
    /// Chain collapsing (default `true`): a finishing producer that
    /// releases exactly one now-ready consumer runs it inline as a
    /// continuation of its own job instead of re-enqueueing it, so
    /// only genuine forks — union arms, join sides, twig branches —
    /// pay a queue round-trip. Semantics are unaffected either way
    /// (the equivalence suite runs both settings); turning it off
    /// restores the one-job-per-operator schedule of the plain DAG
    /// walk, which the scheduling tests use as a reference.
    pub collapse_chains: bool,
    /// Test-only scheduling instrumentation: when set, the pooled DAG
    /// walk records a [`ProbeEvent`] stream (submission or inlining,
    /// start and finish of every operator) the concurrency test suite
    /// asserts ordering invariants on. Leave `None` outside tests.
    pub probe: Option<ExecProbe>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ExecConfig {
    /// Sequential execution (the default): `shards == 1`, a
    /// zero-worker inline pool, no jobs submitted. The inline pool is
    /// one process-wide shared handle (it owns no threads and is never
    /// pushed to on this path), so constructing a sequential config
    /// per query costs one `Arc` clone.
    pub fn sequential() -> Self {
        static INLINE: OnceLock<PoolHandle> = OnceLock::new();
        Self {
            shards: 1,
            min_shard_elems: DEFAULT_MIN_SHARD_ELEMS,
            pool: INLINE.get_or_init(PoolHandle::inline).clone(),
            collapse_chains: true,
            probe: None,
        }
    }

    /// Parallel execution on an existing (typically long-lived,
    /// query-spanning) pool, splitting scans `shards` ways.
    /// `shards <= 1` degenerates to [`ExecConfig::sequential`].
    pub fn on_pool(pool: PoolHandle, shards: usize) -> Self {
        if shards <= 1 {
            return Self::sequential();
        }
        Self {
            shards,
            min_shard_elems: DEFAULT_MIN_SHARD_ELEMS,
            pool,
            collapse_chains: true,
            probe: None,
        }
    }

    /// Parallel execution on a **private** pool with `shards − 1`
    /// workers (the calling thread is the remaining worker). This is a
    /// pure value constructor — the pool's OS threads spawn lazily on
    /// the first job submission. Handy for tests and one-shot tools;
    /// long-lived callers should share one pool across queries via
    /// [`ExecConfig::on_pool`], since a private pool's spawn cost
    /// recurs per configuration rather than per database.
    pub fn sharded(shards: usize) -> Self {
        if shards <= 1 {
            return Self::sequential();
        }
        Self::on_pool(PoolHandle::new(shards - 1), shards)
    }

    /// Replace the pool.
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = pool;
        self
    }

    /// Override the per-shard minimum (tests set 1 to force fan-out on
    /// tiny stores).
    pub fn with_min_shard_elems(mut self, min_shard_elems: usize) -> Self {
        self.min_shard_elems = min_shard_elems;
        self
    }

    /// Attach scheduling instrumentation (test support).
    pub fn with_probe(mut self, probe: ExecProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Enable or disable chain collapsing (see
    /// [`ExecConfig::collapse_chains`]; default enabled). Test
    /// support: with collapsing off, every operator is its own queue
    /// job, the pre-amortization reference schedule.
    pub fn with_collapse_chains(mut self, collapse_chains: bool) -> Self {
        self.collapse_chains = collapse_chains;
        self
    }

    /// Whether this configuration takes the pooled DAG path.
    pub fn is_parallel(&self) -> bool {
        self.shards > 1
    }
}

/// One observed scheduling event of the pooled DAG walk (see
/// [`ExecProbe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// The operator's dependency count reached zero and its job was
    /// pushed to the pool queue. Under chain collapsing this happens
    /// for the plan's roots, and whenever a finishing producer
    /// releases **two or more** ready dependents at once (a genuine
    /// fork); with [`ExecConfig::collapse_chains`] off, for every
    /// operator.
    Submitted(OpId),
    /// The operator's dependency count reached zero as the *only*
    /// dependent its producer released, and chain collapsing ran it
    /// inline as a continuation of the producer's job — no queue
    /// round-trip. Every operator gets exactly one scheduling event:
    /// `Submitted` or `Inlined`, never both, never twice.
    Inlined(OpId),
    /// The operator began executing (as its own pool job or as an
    /// inline continuation).
    Started(OpId),
    /// The operator's result was published (recorded *before* any
    /// dependent is released, so in the event log every consumer's
    /// `Started` strictly follows all of its inputs' `Finished`).
    Finished(OpId),
}

/// Test-only scheduling observer: a shared, ordered log of
/// [`ProbeEvent`]s the concurrency suite asserts invariants on —
/// every operator is scheduled exactly once (queued at a fork,
/// inlined along a chain), and no join/union/twig-match starts before
/// all of its inputs finished.
#[derive(Debug, Clone, Default)]
pub struct ExecProbe {
    events: Arc<Mutex<Vec<ProbeEvent>>>,
}

impl ExecProbe {
    /// New empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the event log, in global order.
    pub fn events(&self) -> Vec<ProbeEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Clear the log (between executions sharing one probe).
    pub fn clear(&self) {
        self.events.lock().unwrap().clear();
    }

    fn record(&self, event: ProbeEvent) {
        self.events.lock().unwrap().push(event);
    }
}

/// Execute a physical plan, returning the root's output (start-sorted,
/// owned) and filling `stats` (counters, `result_count`, `elapsed`).
pub fn execute(
    plan: &PhysPlan,
    store: &NodeStore,
    config: &ExecConfig,
    stats: &mut ExecStats,
) -> Vec<DLabel> {
    let mut bufs = ExecBuffers::default();
    execute_with(plan, store, config, stats, &mut bufs)
}

/// Like [`execute`], reusing caller-held scratch buffers across
/// executions (batch drivers, benches). The caller-held set feeds the
/// sequential path; the pooled path recycles through the per-worker
/// scratch caches instead (`pool::take_scratch`).
pub fn execute_with(
    plan: &PhysPlan,
    store: &NodeStore,
    config: &ExecConfig,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Vec<DLabel> {
    let t0 = Instant::now();
    let result = if config.is_parallel() {
        execute_pooled(plan, store, config, stats)
    } else {
        execute_sequential(plan, store, stats, bufs)
    };
    stats.result_count = result.len();
    stats.elapsed = t0.elapsed();
    result
}

// ---------------------------------------------------------------------
// Operator kernels, shared verbatim by both execution modes (this is
// what guarantees pooled ≡ sequential: scheduling changes, math does
// not).
// ---------------------------------------------------------------------

/// Standalone filter over a non-scan stream, run as a chunked
/// pushdown: the value predicate resolves to one interned id up front
/// (an un-interned value admits nothing without touching the rows);
/// each fixed-width block gathers its value ids through the start
/// rank, then compacts with a predicated-advance cursor — no
/// per-element branch in the compaction loop, so the common level-only
/// case autovectorizes and the value case keeps the gather and the
/// compare in separate tight loops.
fn eval_value_filter(
    input: &[DLabel],
    value_eq: Option<&str>,
    level_eq: Option<u16>,
    store: &NodeStore,
    out: &mut Vec<DLabel>,
) {
    const ZERO: DLabel = DLabel { start: 0, end: 0, level: 0 };
    const CHUNK: usize = 64;
    let filter = resolve_filter(value_eq, level_eq, store);
    if filter.is_pass_through() {
        out.extend_from_slice(input);
        return;
    }
    if filter.value_id == Some(NO_VALUE) {
        return; // queried value occurs nowhere in the document
    }
    let base = out.len();
    out.resize(base + input.len(), ZERO);
    let mut k = base;
    let mut vids = [NO_VALUE; CHUNK];
    for chunk in input.chunks(CHUNK) {
        if filter.value_id.is_some() {
            for (i, l) in chunk.iter().enumerate() {
                vids[i] = store
                    .row_of_start(l.start)
                    .map(|row| store.value_id_of_row(row))
                    .unwrap_or(NO_VALUE);
            }
        }
        match (filter.value_id, filter.level_eq) {
            (Some(want), None) => {
                for (i, l) in chunk.iter().enumerate() {
                    out[k] = *l;
                    k += (vids[i] == want) as usize;
                }
            }
            (None, Some(lv)) => {
                for l in chunk {
                    out[k] = *l;
                    k += (l.level == lv) as usize;
                }
            }
            (Some(want), Some(lv)) => {
                for (i, l) in chunk.iter().enumerate() {
                    out[k] = *l;
                    k += (vids[i] == want && l.level == lv) as usize;
                }
            }
            (None, None) => unreachable!("pass-through handled above"),
        }
    }
    out.truncate(k);
}

/// The configuration half of a [`PhysOp::StructuralJoin`].
#[derive(Clone, Copy)]
struct JoinSpec {
    level_diff: Option<u16>,
    keep: Side,
    tally: bool,
}

/// Structural semi-join: flag participants, keep one side.
fn eval_structural_join(
    anc: &[DLabel],
    desc: &[DLabel],
    spec: JoinSpec,
    stats: &mut ExecStats,
    join: &mut crate::stjoin::JoinScratch,
    out: &mut Vec<DLabel>,
) {
    if spec.tally {
        stats.d_joins += 1;
        stats.join_input_tuples += (anc.len() + desc.len()) as u64;
    }
    structural_match_into(anc, desc, spec.level_diff, join);
    match spec.keep {
        Side::Anc => filter_flagged_into(anc, &join.anc, out),
        Side::Desc => filter_flagged_into(desc, &join.desc, out),
    }
}

/// Union of start-sorted streams in document order, dropping
/// duplicates (same start ⇒ same node).
fn eval_union<'i>(
    inputs: impl Iterator<Item = &'i [DLabel]>,
    scratch: &mut MergeScratch,
    out: &mut Vec<DLabel>,
) {
    let inputs: Vec<&[DLabel]> = inputs.collect();
    merge_sorted(&inputs, scratch, out);
}

// ---------------------------------------------------------------------
// Sequential mode (`shards == 1`)
// ---------------------------------------------------------------------

fn execute_sequential(
    plan: &PhysPlan,
    store: &NodeStore,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Vec<DLabel> {
    let n = plan.ops().len();
    // Remaining-consumer counts: a slot recycles the moment its last
    // consumer has read it (+1 on the root so it survives the loop).
    // Seeded from the plan's memoized dependency metadata, so repeated
    // executions skip the dependency walk.
    let mut uses: Vec<usize> = plan.consumer_counts().to_vec();
    uses[plan.root()] += 1;
    let mut results: Vec<Option<Labels<'_>>> = (0..n).map(|_| None).collect();
    for id in 0..n {
        let out = exec_op(plan.op(id), &mut results, &mut uses, store, stats, bufs);
        results[id] = Some(out);
        plan.op(id).for_each_input(|i| release(&mut results, &mut uses, i, bufs));
    }
    let result = results[plan.root()]
        .take()
        .expect("root result present")
        .into_vec(bufs);
    for r in results.into_iter().flatten() {
        bufs.recycle(r);
    }
    result
}

fn release<'a>(
    results: &mut [Option<Labels<'a>>],
    uses: &mut [usize],
    id: usize,
    bufs: &mut ExecBuffers,
) {
    uses[id] = uses[id].saturating_sub(1);
    if uses[id] == 0 {
        if let Some(l) = results[id].take() {
            bufs.recycle(l);
        }
    }
}

/// The parked result of an earlier operator.
fn input<'s, 'a>(results: &'s [Option<Labels<'a>>], id: usize) -> &'s [DLabel] {
    results[id].as_ref().expect("inputs precede consumers")
}

fn exec_op<'a>(
    op: &PhysOp,
    results: &mut [Option<Labels<'a>>],
    uses: &mut [usize],
    store: &'a NodeStore,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Labels<'a> {
    match op {
        PhysOp::ClusteredScan { source, value_eq, level_eq } => {
            materialize(source, value_eq.as_deref(), *level_eq, store, stats, bufs)
        }
        PhysOp::ValueFilter { input: inp, value_eq, level_eq } => {
            // Scans carry their value filters fused (pushdown), so this
            // operator usually sees only a level predicate.
            let mut out = bufs.take();
            eval_value_filter(input(results, *inp), value_eq.as_deref(), *level_eq, store, &mut out);
            Labels::Owned(out)
        }
        PhysOp::StructuralJoin { anc, desc, level_diff, keep, tally } => {
            let a = input(results, *anc);
            let d = input(results, *desc);
            let spec = JoinSpec { level_diff: *level_diff, keep: *keep, tally: *tally };
            let mut join = std::mem::take(&mut bufs.join);
            let mut out = bufs.take();
            eval_structural_join(a, d, spec, stats, &mut join, &mut out);
            bufs.join = join;
            Labels::Owned(out)
        }
        PhysOp::Union { inputs } => {
            let mut all = bufs.take();
            eval_union(inputs.iter().map(|&i| input(results, i)), &mut bufs.merge, &mut all);
            Labels::Owned(all)
        }
        PhysOp::TwigStackMatch { streams, pattern } => {
            let stream_slices: Vec<&[DLabel]> =
                streams.iter().map(|&s| input(results, s)).collect();
            Labels::Owned(twigstack::run_match(pattern, &stream_slices, stats))
        }
        PhysOp::Materialize { input: inp } => {
            // Move the input when this is its last consumer; copy when
            // it is shared.
            if uses[*inp] == 1 {
                let l = results[*inp].take().expect("input present");
                Labels::Owned(l.into_vec(bufs))
            } else {
                let mut v = bufs.take();
                v.extend_from_slice(input(results, *inp));
                Labels::Owned(v)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pooled mode (`shards > 1`): dependency-counted DAG walk
// ---------------------------------------------------------------------

/// One operator's published output in the pooled walk.
struct OpOutput<'a> {
    labels: Labels<'a>,
    stats: ExecStats,
}

/// A checked-out scratch set that trims itself on the way back to the
/// per-worker cache — **including during unwinds**, so a panicking
/// continuation cannot re-shelve oversized buffers (drop order runs
/// this trim before the inner [`pool::Scratch`] re-shelves the set).
struct TrimmedScratch(pool::Scratch<ExecBuffers>);

impl Drop for TrimmedScratch {
    fn drop(&mut self) {
        self.0.trim();
    }
}

/// Remove and return the handed-over value if it belongs to `input`.
fn take_inherited<'a>(
    inherited: &mut Option<(OpId, Labels<'a>)>,
    input: OpId,
) -> Option<Labels<'a>> {
    match inherited {
        Some((id, _)) if *id == input => inherited.take().map(|(_, labels)| labels),
        _ => None,
    }
}

/// Per-operator scheduling state: the unfinished-input credits and the
/// write-once result slot, fused so one pooled execution makes a
/// single state allocation however many operators the plan has.
struct OpState<'a> {
    /// Unfinished-input credits; the operator is scheduled exactly
    /// when this reaches zero, so a join can never start before both
    /// of its inputs completed.
    pending: AtomicUsize,
    /// Write-once result; readable by consumers only after the
    /// producing job has published (enforced by `pending`).
    slot: OnceLock<OpOutput<'a>>,
}

/// Shared scheduling state of one pooled execution. Borrowed by every
/// operator job; the [`pool::scope`] barrier guarantees the borrows
/// end before the state is torn down.
struct Sched<'a> {
    plan: &'a PhysPlan,
    store: &'a NodeStore,
    config: &'a ExecConfig,
    /// Who reads each operator's output (one entry per input edge);
    /// borrowed from the plan's memoized dependency metadata.
    consumers: &'a [Vec<OpId>],
    /// One [`OpState`] per operator, in arena order.
    states: Vec<OpState<'a>>,
}

impl<'a> Sched<'a> {
    fn probe(&self, event: ProbeEvent) {
        if let Some(probe) = &self.config.probe {
            probe.record(event);
        }
    }

    fn input(&self, id: OpId) -> &[DLabel] {
        &self.states[id]
            .slot
            .get()
            .expect("dependency counting released a consumer before its input")
            .labels
    }

    fn submit<'s, 'e>(&'s self, scope: &'s Scope<'s, 'e>, id: OpId) {
        self.probe(ProbeEvent::Submitted(id));
        scope.spawn(move || self.run_op(scope, id));
    }

    /// Queue a root job without waking a worker ([`Scope::spawn_deferred`]):
    /// used for the first root of every plan, which the coordinating
    /// thread — about to block on the scope barrier and help — will
    /// almost always execute itself. A single-root (linear) plan thus
    /// runs end to end on the submitting thread with zero futex
    /// traffic, while still being one observable queue job.
    fn submit_deferred<'s, 'e>(&'s self, scope: &'s Scope<'s, 'e>, id: OpId) {
        self.probe(ProbeEvent::Submitted(id));
        scope.spawn_deferred(move || self.run_op(scope, id));
    }

    /// One pool job: check an [`ExecBuffers`] set out of this worker's
    /// scratch cache, run the operator — and, with chain collapsing,
    /// every sole just-released consumer after it, reusing the same
    /// scratch — then check the scratch back in for the worker's next
    /// job. The checkout (and whether it was a cache hit) is tallied
    /// once per job into the first operator's accumulator.
    fn run_op<'s, 'e>(&'s self, scope: &'s Scope<'s, 'e>, id: OpId) {
        // The scratch returns to this thread's cache bounded (trimmed
        // on drop, panic or not): a worker must not pin the high-water
        // buffer capacity of the largest query it ever ran.
        let mut bufs = TrimmedScratch(pool::take_scratch::<ExecBuffers>());
        let mut checkout = Some(bufs.0.reused());
        let mut current = id;
        let mut inherited: Option<(OpId, Labels<'a>)> = None;
        while let Some(next) =
            self.step(scope, current, &mut bufs.0, &mut inherited, checkout.take())
        {
            current = next;
        }
        debug_assert!(inherited.is_none(), "a handover must be consumed by the next step");
    }

    /// Resolve operator `input` for the step running `inherited`'s
    /// receiving end: the handed-over value if this is the chain-link
    /// input, the published slot otherwise.
    fn input_from<'s>(
        &'s self,
        inherited: &'s Option<(OpId, Labels<'a>)>,
        input: OpId,
    ) -> &'s [DLabel] {
        match inherited {
            Some((id, labels)) if *id == input => labels,
            _ => self.input(input),
        }
    }

    /// Execute operator `id`, publish its result, and release its
    /// consumers. Returns the next operator to run **inline** on this
    /// job (chain collapsing: `id` released exactly one now-ready
    /// consumer), or `None` after submitting any genuine fork's
    /// dependents to the queue.
    fn step<'s, 'e>(
        &'s self,
        scope: &'s Scope<'s, 'e>,
        id: OpId,
        bufs: &mut ExecBuffers,
        inherited: &mut Option<(OpId, Labels<'a>)>,
        checkout: Option<bool>,
    ) -> Option<OpId> {
        self.probe(ProbeEvent::Started(id));
        let mut stats = ExecStats::default();
        if let Some(hit) = checkout {
            stats.scratch_checkouts = 1;
            stats.scratch_hits = u64::from(hit);
        }
        let labels: Labels<'a> = match self.plan.op(id) {
            PhysOp::ClusteredScan { source, value_eq, level_eq } => self.scan_clustered(
                scope,
                source,
                value_eq.as_deref(),
                *level_eq,
                &mut stats,
                bufs,
            ),
            PhysOp::ValueFilter { input, value_eq, level_eq } => {
                let mut out = bufs.take();
                eval_value_filter(
                    self.input_from(inherited, *input),
                    value_eq.as_deref(),
                    *level_eq,
                    self.store,
                    &mut out,
                );
                Labels::Owned(out)
            }
            PhysOp::StructuralJoin { anc, desc, level_diff, keep, tally } => {
                let spec = JoinSpec { level_diff: *level_diff, keep: *keep, tally: *tally };
                let mut out = bufs.take();
                eval_structural_join(
                    self.input_from(inherited, *anc),
                    self.input_from(inherited, *desc),
                    spec,
                    &mut stats,
                    &mut bufs.join,
                    &mut out,
                );
                Labels::Owned(out)
            }
            PhysOp::Union { inputs } => {
                let mut out = bufs.take();
                eval_union(
                    inputs.iter().map(|&i| self.input_from(inherited, i)),
                    &mut bufs.merge,
                    &mut out,
                );
                Labels::Owned(out)
            }
            PhysOp::TwigStackMatch { streams, pattern } => {
                let stream_slices: Vec<&[DLabel]> =
                    streams.iter().map(|&s| self.input_from(inherited, s)).collect();
                Labels::Owned(twigstack::run_match(pattern, &stream_slices, &mut stats))
            }
            PhysOp::Materialize { input } => {
                match take_inherited(inherited, *input) {
                    // The chain-link case: the producer handed its
                    // output over in-memory, so materializing is a
                    // move — the same optimization the sequential
                    // path's last-consumer rule performs.
                    Some(labels) => labels,
                    None => {
                        // Slots are shared read-only across jobs, so
                        // a parked input must be copied.
                        let mut out = bufs.take();
                        out.extend_from_slice(self.input(*input));
                        Labels::Owned(out)
                    }
                }
            }
        };
        // A handed-over input this operator consumed by reference is
        // spent now: reclaim its buffer for this job's later links.
        if let Some((_, spent)) = inherited.take() {
            bufs.recycle(spent);
        }

        // The linear-chain fast path: this operator's one consumer has
        // this operator as its *only* input, so (a) it is statically
        // guaranteed to become ready on this release — no other
        // producer races us for it — and (b) nobody else will ever
        // read this slot: the sole consumer takes the handover, and
        // the root exclusion below keeps `execute_pooled`'s
        // result-extraction read off this path (a root with a
        // consumer never comes out of the lowerings, but
        // `PhysPlan::from_ops` permits one). Publish an empty
        // placeholder (keeping the stats) and hand the real output to
        // the continuation in-memory; `Materialize` above then moves
        // it instead of copying.
        if self.config.collapse_chains
            && id != self.plan.root()
            && self.consumers[id].len() == 1
        {
            let next = self.consumers[id][0];
            if self.plan.input_counts()[next] == 1 {
                self.states[id]
                    .slot
                    .set(OpOutput { labels: Labels::Borrowed(&[]), stats })
                    .unwrap_or_else(|_| panic!("operator {id} scheduled twice"));
                self.probe(ProbeEvent::Finished(id));
                let released = self.states[next].pending.fetch_sub(1, Ordering::AcqRel);
                debug_assert_eq!(released, 1, "a chain link is its consumer's only input");
                self.probe(ProbeEvent::Inlined(next));
                *inherited = Some((id, labels));
                return Some(next);
            }
        }

        self.states[id]
            .slot
            .set(OpOutput { labels, stats })
            .unwrap_or_else(|_| panic!("operator {id} scheduled twice"));
        // Publish before releasing dependents: every consumer observes
        // a fully written slot, and the probe log shows Finished(input)
        // strictly before Started(consumer).
        self.probe(ProbeEvent::Finished(id));
        // Release consumers, collecting those whose last input this
        // was. Exactly one ready dependent ⇒ collapse the chain: run
        // it inline on this job, no queue round-trip. Two or more (or
        // collapsing disabled) ⇒ a genuine fork: each becomes its own
        // pool job, restoring real parallelism exactly where the plan
        // has it.
        let mut first_ready: Option<OpId> = None;
        let mut forked: Vec<OpId> = Vec::new();
        for &consumer in &self.consumers[id] {
            if self.states[consumer].pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                match first_ready {
                    None => first_ready = Some(consumer),
                    Some(_) => forked.push(consumer),
                }
            }
        }
        let first = first_ready?;
        if forked.is_empty() && self.config.collapse_chains {
            self.probe(ProbeEvent::Inlined(first));
            return Some(first);
        }
        self.submit(scope, first);
        for consumer in forked {
            self.submit(scope, consumer);
        }
        None
    }

    /// The clustered-scan operator inside a pool job: sequential
    /// (zero-copy where possible) when too small to pay for fan-out,
    /// otherwise sharded across pool sub-jobs.
    fn scan_clustered<'s, 'e>(
        &'s self,
        scope: &'s Scope<'s, 'e>,
        source: &BoundSource,
        value_eq: Option<&str>,
        level_eq: Option<u16>,
        stats: &mut ExecStats,
        bufs: &mut ExecBuffers,
    ) -> Labels<'a> {
        if let Some(out) = self.scan_sharded(scope, source, value_eq, level_eq, stats, bufs) {
            return out;
        }
        materialize(source, value_eq, level_eq, self.store, stats, bufs)
    }

    /// Parallel scan path; `None` when the scan is too small to shard
    /// (the caller falls back to the sequential kernel).
    fn scan_sharded<'s, 'e>(
        &'s self,
        scope: &'s Scope<'s, 'e>,
        source: &BoundSource,
        value_eq: Option<&str>,
        level_eq: Option<u16>,
        stats: &mut ExecStats,
        bufs: &mut ExecBuffers,
    ) -> Option<Labels<'a>> {
        let config = self.config;
        let store = self.store;
        // Size the scan from the run directory first (two binary
        // searches): point queries fall back to the sequential kernel
        // without ever materializing shard groups — at µs scale that
        // preparation would be a measurable fraction of the query.
        let total = match source {
            BoundSource::PLabelEq(p) => store.plabel_eq_size(*p),
            BoundSource::Tag(t) => store.tag_size(*t),
            BoundSource::All => store.live_len(),
            BoundSource::PLabelRange(p1, p2) => store.plabel_range_size(*p1, *p2),
            BoundSource::Empty => return Some(Labels::Borrowed(&[])),
        };
        // Respect the per-shard minimum by coalescing adjacent groups
        // (each group holds consecutive pieces, so merging neighbours
        // keeps the partition order-preserving and balanced).
        let desired = config.shards.min(total / config.min_shard_elems.max(1));
        if desired < 2 {
            return None;
        }
        // Storage owns shard-aware run iteration: one balanced group of
        // zero-copy run pieces per prospective worker.
        let groups: Vec<Vec<ScanRun<'a>>> = match source {
            BoundSource::PLabelEq(p) => store.shard_plabel_eq(*p, config.shards),
            BoundSource::Tag(t) => store.shard_tag(*t, config.shards),
            BoundSource::All => store.shard_doc(config.shards),
            BoundSource::PLabelRange(p1, p2) => store.shard_plabel_range(*p1, *p2, config.shards),
            BoundSource::Empty => unreachable!("handled above"),
        };
        debug_assert_eq!(
            groups.iter().flatten().map(ScanRun::len).sum::<usize>(),
            total,
            "directory size must agree with the materialized runs"
        );
        if groups.len() < 2 {
            return None;
        }
        let groups = coalesce_groups(groups, desired);
        let filter = resolve_filter(value_eq, level_eq, store);

        // Fan out: sub-jobs take groups 1…, this job scans group 0
        // itself and then joins the sub-jobs, helping the pool while
        // it waits. Each sub-job owns its output buffer and its
        // ExecStats accumulator.
        let mut groups = groups.into_iter();
        let first = groups.next().expect("at least two groups");
        let handles: Vec<_> = groups
            .map(|group| scope.spawn_job(move || scan_shard(&group, filter)))
            .collect();
        let mut shard_out = Vec::with_capacity(handles.len() + 1);
        shard_out.push(scan_shard(&first, filter));
        for handle in handles {
            match handle.join() {
                Ok(out) => shard_out.push(out),
                // A shard panic (a bug, not a data condition) unwinds
                // this operator job; the scope catches it and the pool
                // survives.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }

        // Merge the per-shard accumulators exactly once, and check that
        // the partition counted every tuple of the scan exactly once.
        let mut shard_total = ExecStats::default();
        for (_, s) in &shard_out {
            shard_total.absorb(s);
        }
        debug_assert_eq!(
            shard_total.elements_visited, total as u64,
            "sharded scan must count each tuple exactly once"
        );
        stats.absorb(&shard_total);

        // Restore global start order across the per-shard outputs
        // (each already sorted). Shards of a single-run scan hold
        // consecutive pieces, so their spans do not overlap and the
        // kernel copies each whole.
        let mut out = bufs.take();
        let shards: Vec<&[DLabel]> = shard_out.iter().map(|(shard, _)| shard.as_slice()).collect();
        merge_sorted(&shards, &mut bufs.merge, &mut out);
        Some(Labels::Owned(out))
    }
}

fn execute_pooled(
    plan: &PhysPlan,
    store: &NodeStore,
    config: &ExecConfig,
    stats: &mut ExecStats,
) -> Vec<DLabel> {
    let sched = Sched {
        plan,
        store,
        config,
        consumers: plan.consumers(),
        states: plan
            .input_counts()
            .iter()
            .map(|&c| OpState { pending: AtomicUsize::new(c), slot: OnceLock::new() })
            .collect(),
    };
    pool::scope(&config.pool, |scope| {
        // Roots (no inputs) are ready immediately. Identified from the
        // plan's immutable metadata, NOT the live credit atomics: an
        // already-submitted root may finish and drive a consumer's
        // credits to zero while this loop still runs, and that
        // consumer is the finisher's to schedule, not ours. The first
        // root goes to the queue *unnotified* — this thread is about
        // to hit the scope barrier and will execute it itself, so
        // waking a worker for it would be pure overhead (measurable: a
        // spurious futex wake per µs-scale query). Remaining roots are
        // genuine parallelism and wake workers as usual.
        let mut first = true;
        for (id, &count) in plan.input_counts().iter().enumerate() {
            if count == 0 {
                if std::mem::take(&mut first) {
                    sched.submit_deferred(scope, id);
                } else {
                    sched.submit(scope, id);
                }
            }
        }
    });
    // Barrier passed: every job completed. Merge the per-operator
    // accumulators exactly once, in arena order (addition commutes,
    // but determinism keeps the logs comparable), and take the root's
    // labels. Intermediate output buffers go back into *this* thread's
    // scratch cache — the coordinator helps execute jobs, so the next
    // query's operators check these buffers out again instead of
    // growing fresh ones.
    let root = plan.root();
    let mut result = Vec::new();
    let mut cache: Option<TrimmedScratch> = None;
    for (id, state) in sched.states.into_iter().enumerate() {
        let out = state.slot.into_inner().expect("every operator executed");
        stats.absorb(&out.stats);
        if id == root {
            result = match out.labels {
                Labels::Borrowed(s) => s.to_vec(),
                Labels::Owned(v) => v,
            };
        } else if let Labels::Owned(v) = out.labels {
            if v.capacity() > 0 {
                cache
                    .get_or_insert_with(|| TrimmedScratch(pool::take_scratch()))
                    .0
                    .recycle_vec(v);
            }
        }
    }
    result
}

/// Merge adjacent shard groups until at most `desired` remain (the
/// per-shard minimum asked for fewer workers than storage prepared).
fn coalesce_groups<'a>(groups: Vec<Vec<ScanRun<'a>>>, desired: usize) -> Vec<Vec<ScanRun<'a>>> {
    if groups.len() <= desired {
        return groups;
    }
    let per_bucket = groups.len().div_ceil(desired);
    let mut out: Vec<Vec<ScanRun<'a>>> = Vec::with_capacity(desired);
    for (i, group) in groups.into_iter().enumerate() {
        if i % per_bucket == 0 {
            out.push(group);
        } else {
            out.last_mut().expect("bucket opened").extend(group);
        }
    }
    out
}

/// One sub-job's share of a sharded scan: filter its run pieces and
/// restore start order among them, tallying into a private
/// accumulator.
fn scan_shard(runs: &[ScanRun<'_>], filter: Filter) -> (Vec<DLabel>, ExecStats) {
    let mut stats = ExecStats::default();
    let mut out = Vec::new();
    merge_scan_runs(
        runs.iter().cloned(),
        filter,
        &mut stats,
        &mut Vec::new(),
        &mut MergeScratch::default(),
        &mut out,
    );
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{lower_plan, lower_twig, lower_twigstack};
    use crate::twig::TwigQuery;
    use blas_labeling::label_document;
    use blas_translate::{bind, translate_pushup, translate_split, BoundPlan};
    use blas_xml::Document;
    use blas_xpath::parse;

    const SAMPLE: &str = concat!(
        "<db>",
        "<e><p><c><s>cyt</s></c></p><r><f><a>Evans</a><y>2001</y><t>T1</t></f></r></e>",
        "<e><p><c><s>hb</s></c></p><r><f><a>Smith</a><y>1999</y><t>T2</t></f></r></e>",
        "<e><p><c><s>cyt</s></c></p><r><f><a>Evans</a><y>1999</y><t>T3</t></f></r></e>",
        "</db>"
    );

    fn fixture(src: &str) -> (Document, NodeStore, blas_labeling::PLabelDomain) {
        let doc = Document::parse(src).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        (doc, store, labels.domain)
    }

    fn bound(doc: &Document, dom: &blas_labeling::PLabelDomain, xpath: &str) -> BoundPlan {
        let q = parse(xpath).unwrap();
        bind(&translate_pushup(&q).unwrap(), doc.tags(), dom)
    }

    fn forced_parallel(shards: usize) -> ExecConfig {
        ExecConfig::sharded(shards).with_min_shard_elems(1)
    }

    #[test]
    fn pooled_execution_equals_sequential() {
        let (doc, store, dom) = fixture(SAMPLE);
        for xpath in ["/db/e/r/f/t", "//f", "/db/e[p//s='cyt']/r/f[y='2001']/t", "//s='cyt'"] {
            let b = bound(&doc, &dom, xpath);
            let plan = lower_plan(&b);
            let mut seq_stats = ExecStats::default();
            let seq = execute(&plan, &store, &ExecConfig::default(), &mut seq_stats);
            for shards in [2, 3, 7] {
                let mut par_stats = ExecStats::default();
                let par = execute(&plan, &store, &forced_parallel(shards), &mut par_stats);
                assert_eq!(par, seq, "{xpath} @ {shards}");
                assert_eq!(
                    par_stats.elements_visited, seq_stats.elements_visited,
                    "{xpath} @ {shards}"
                );
                assert_eq!(par_stats.d_joins, seq_stats.d_joins);
                assert_eq!(par_stats.join_input_tuples, seq_stats.join_input_tuples);
            }
        }
    }

    #[test]
    fn one_pool_serves_repeated_queries() {
        let (doc, store, dom) = fixture(SAMPLE);
        let pool = PoolHandle::new(2);
        let config = ExecConfig::on_pool(pool.clone(), 4).with_min_shard_elems(1);
        let b = bound(&doc, &dom, "/db/e[p//s='cyt']/r/f/t");
        let plan = lower_plan(&b);
        let mut first: Option<Vec<DLabel>> = None;
        for _ in 0..5 {
            let mut stats = ExecStats::default();
            let out = execute(&plan, &store, &config, &mut stats);
            match &first {
                None => first = Some(out),
                Some(expect) => assert_eq!(&out, expect),
            }
        }
        // Every execution submitted its root jobs to the same
        // persistent pool — no per-query or per-scan thread spawns.
        // Chain collapsing means non-root operators ride along inside
        // those jobs, so the floor is jobs-per-query = scan count, not
        // operator count.
        let scans = plan
            .ops()
            .iter()
            .filter(|op| matches!(op, PhysOp::ClusteredScan { .. }))
            .count() as u64;
        assert!(pool.jobs_submitted() >= 5 * scans);
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn all_lowerings_agree_on_one_executor() {
        let (doc, store, dom) = fixture(SAMPLE);
        let b = bound(&doc, &dom, "/db/e[p/c/s]/r/f/t");
        let twig = TwigQuery::from_plan(&b).unwrap();
        let mut s1 = ExecStats::default();
        let rdbms = execute(&lower_plan(&b), &store, &ExecConfig::default(), &mut s1);
        let mut s2 = ExecStats::default();
        let semi = execute(&lower_twig(&twig), &store, &ExecConfig::default(), &mut s2);
        let mut s3 = ExecStats::default();
        let holistic = execute(&lower_twigstack(&twig), &store, &ExecConfig::default(), &mut s3);
        assert_eq!(rdbms, semi);
        assert_eq!(rdbms, holistic);
        assert_eq!(s2.elements_visited, s3.elements_visited);
    }

    #[test]
    fn small_scans_fall_back_to_sequential() {
        let (doc, store, dom) = fixture(SAMPLE);
        let b = bound(&doc, &dom, "//f");
        let plan = lower_plan(&b);
        let mut stats = ExecStats::default();
        // Default min_shard_elems (4096) far exceeds this store's size,
        // so the parallel config must not fan any scan out (operators
        // still run as pool jobs, scans just stay whole).
        let out = execute(&plan, &store, &ExecConfig::sharded(4), &mut stats);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn standalone_value_filter_executes_over_shared_scan() {
        use crate::physical::PhysOp;
        use blas_translate::BoundSource;
        // Hand-build the DAG pushdown refuses to fuse: one scan feeding
        // both a ValueFilter and a join, so the filter runs standalone.
        let (_, store, _) = fixture(SAMPLE);
        let ops = vec![
            PhysOp::ClusteredScan {
                source: BoundSource::All,
                value_eq: None,
                level_eq: None,
            },
            PhysOp::ValueFilter { input: 0, value_eq: Some("cyt".into()), level_eq: None },
            PhysOp::StructuralJoin {
                anc: 0,
                desc: 1,
                level_diff: None,
                keep: blas_translate::Side::Desc,
                tally: true,
            },
            PhysOp::Materialize { input: 2 },
        ];
        let plan = plan_from(ops, 3);
        let mut stats = ExecStats::default();
        let out = execute(&plan, &store, &ExecConfig::default(), &mut stats);
        assert_eq!(out.len(), 2, "two s-nodes carry 'cyt'");
        // Level-only standalone filter.
        let ops = vec![
            PhysOp::ClusteredScan {
                source: BoundSource::All,
                value_eq: None,
                level_eq: None,
            },
            PhysOp::ValueFilter { input: 0, value_eq: None, level_eq: Some(1) },
            PhysOp::StructuralJoin {
                anc: 0,
                desc: 1,
                level_diff: None,
                keep: blas_translate::Side::Desc,
                tally: false,
            },
            PhysOp::Materialize { input: 2 },
        ];
        let plan = plan_from(ops, 3);
        let mut stats = ExecStats::default();
        let out = execute(&plan, &store, &ExecConfig::default(), &mut stats);
        assert!(out.is_empty(), "the root has no ancestor to join with");
    }

    fn plan_from(ops: Vec<crate::physical::PhysOp>, root: usize) -> crate::physical::PhysPlan {
        // These hand-built DAGs are already fusion-free, so no
        // pushdown pass is wanted.
        crate::physical::PhysPlan::from_ops(ops, root)
    }

    #[test]
    fn sharded_union_plan_stays_duplicate_free() {
        let (doc, store, dom) = fixture(SAMPLE);
        let q = parse("//s").unwrap();
        let b = bind(&translate_split(&q).unwrap(), doc.tags(), &dom);
        let plan = lower_plan(&b);
        let mut stats = ExecStats::default();
        let out = execute(&plan, &store, &forced_parallel(4), &mut stats);
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0].start < w[1].start));
    }

    // --- DAG-scheduling observability ---------------------------------

    /// Index of the first matching event, panicking with context when
    /// absent.
    fn pos(events: &[ProbeEvent], want: ProbeEvent) -> usize {
        events
            .iter()
            .position(|e| *e == want)
            .unwrap_or_else(|| panic!("{want:?} missing from {events:?}"))
    }

    /// Number of input edges of one operator.
    fn input_edges(op: &PhysOp) -> usize {
        let mut n = 0;
        op.for_each_input(|_| n += 1);
        n
    }

    /// The race-robust scheduling invariants of the pooled DAG walk,
    /// valid under **any** thread interleaving:
    ///
    /// 1. every operator records exactly one scheduling event —
    ///    `Submitted` (queued: a plan root or one side of a genuine
    ///    fork) or `Inlined` (chain-collapsed continuation);
    /// 2. plan roots (no inputs) are always `Submitted` — there is no
    ///    producer to inline them into;
    /// 3. every operator starts exactly once, after its scheduling
    ///    event;
    /// 4. no operator starts before every one of its inputs finished.
    fn assert_scheduling_invariants(plan: &PhysPlan, events: &[ProbeEvent], ctx: &str) {
        for (id, op) in plan.ops().iter().enumerate() {
            let submitted =
                events.iter().filter(|e| **e == ProbeEvent::Submitted(id)).count();
            let inlined = events.iter().filter(|e| **e == ProbeEvent::Inlined(id)).count();
            assert_eq!(
                submitted + inlined,
                1,
                "{ctx}: op {id} needs exactly one scheduling event \
                 ({submitted} Submitted, {inlined} Inlined): {events:?}"
            );
            if input_edges(op) == 0 {
                assert_eq!(submitted, 1, "{ctx}: root {id} must be queued: {events:?}");
            }
            assert_eq!(
                events.iter().filter(|e| **e == ProbeEvent::Started(id)).count(),
                1,
                "{ctx}: op {id} must start exactly once: {events:?}"
            );
            let scheduled = events
                .iter()
                .position(|e| {
                    matches!(e, ProbeEvent::Submitted(i) | ProbeEvent::Inlined(i) if *i == id)
                })
                .expect("scheduling event present");
            let started = pos(events, ProbeEvent::Started(id));
            assert!(scheduled < started, "{ctx}: op {id} scheduled before start: {events:?}");
            op.for_each_input(|i| {
                assert!(
                    pos(events, ProbeEvent::Finished(i)) < started,
                    "{ctx}: op {id} started before input {i} finished: {events:?}"
                );
            });
        }
    }

    #[test]
    fn union_arms_fork_and_the_union_runs_inline() {
        // Unfolding /a//c over a schema with two c-paths produces a
        // Union over one scan per unfolded alternative.
        let (doc, store, dom) = fixture("<a><b><c>x</c></b><d><c>y</c></d></a>");
        let schema = blas_xml::SchemaGraph::infer(&doc);
        let q = parse("/a//c").unwrap();
        let b = bind(
            &blas_translate::translate_unfold(&q, &schema).unwrap(),
            doc.tags(),
            &dom,
        );
        let plan = lower_plan(&b);
        let (union_id, arms) = plan
            .ops()
            .iter()
            .enumerate()
            .find_map(|(id, op)| match op {
                PhysOp::Union { inputs } => Some((id, inputs.clone())),
                _ => None,
            })
            .expect("unfolding /a//c lowers to a union");
        assert!(arms.len() >= 2, "need at least two arms: {plan:?}");

        let probe = ExecProbe::new();
        let pool = PoolHandle::new(2);
        let config =
            ExecConfig::on_pool(pool.clone(), 2).with_min_shard_elems(1).with_probe(probe.clone());
        let mut stats = ExecStats::default();
        execute(&plan, &store, &config, &mut stats);
        let events = probe.events();
        assert_scheduling_invariants(&plan, &events, "union");

        // The arms are genuine forks: each one is its own queue job.
        // The union is the sole consumer its last-finishing arm
        // releases, so it runs inline — and so does the materialize
        // above it. Exactly `arms` queue jobs for the whole plan.
        for &arm in &arms {
            assert_eq!(
                events.iter().filter(|e| **e == ProbeEvent::Submitted(arm)).count(),
                1,
                "arm {arm} must be its own queue job: {events:?}"
            );
            assert!(
                pos(&events, ProbeEvent::Finished(arm)) < pos(&events, ProbeEvent::Started(union_id)),
                "arm {arm} must finish before the union starts: {events:?}"
            );
        }
        assert!(
            events.contains(&ProbeEvent::Inlined(union_id)),
            "the union must be chain-collapsed into its last arm's job: {events:?}"
        );
        assert!(
            events.contains(&ProbeEvent::Inlined(plan.root())),
            "the materialize must be chain-collapsed after the union: {events:?}"
        );
        // And the pool really carried the forks.
        assert!(pool.jobs_submitted() >= arms.len() as u64);
    }

    #[test]
    fn forks_are_separate_jobs_and_no_consumer_outruns_its_inputs() {
        let (doc, store, dom) = fixture(SAMPLE);
        let b = bound(&doc, &dom, "/db/e[p//s='cyt']/r/f[y='2001']/t");
        let twig = TwigQuery::from_plan(&b).unwrap();
        let pool = PoolHandle::new(3);
        for (name, plan) in [
            ("rdbms", lower_plan(&b)),
            ("twig", lower_twig(&twig)),
            ("twigstack", lower_twigstack(&twig)),
        ] {
            let probe = ExecProbe::new();
            // Repeat to give racy schedules a chance to surface.
            for round in 0..25 {
                probe.clear();
                let config = ExecConfig::on_pool(pool.clone(), 4)
                    .with_min_shard_elems(1)
                    .with_probe(probe.clone());
                let mut stats = ExecStats::default();
                execute(&plan, &store, &config, &mut stats);
                let events = probe.events();
                assert_scheduling_invariants(
                    &plan,
                    &events,
                    &format!("{name} round {round}"),
                );
            }
        }
    }

    #[test]
    fn linear_pipeline_collapses_to_one_queue_job() {
        use blas_translate::BoundSource;
        // The acceptance pipeline: scan → standalone filter →
        // materialize, hand-built so pushdown cannot fuse the filter.
        let (_, store, _) = fixture(SAMPLE);
        let ops = vec![
            PhysOp::ClusteredScan { source: BoundSource::All, value_eq: None, level_eq: None },
            PhysOp::ValueFilter { input: 0, value_eq: Some("cyt".into()), level_eq: None },
            PhysOp::Materialize { input: 1 },
        ];
        let plan = plan_from(ops, 2);
        let mut seq_stats = ExecStats::default();
        let seq = execute(&plan, &store, &ExecConfig::default(), &mut seq_stats);

        let probe = ExecProbe::new();
        let pool = PoolHandle::new(1);
        // Default min_shard_elems: the tiny scan must not fan out, so
        // the whole chain is exactly one queue job.
        let config = ExecConfig::on_pool(pool.clone(), 4).with_probe(probe.clone());
        let before = pool.jobs_submitted();
        let mut stats = ExecStats::default();
        let out = execute(&plan, &store, &config, &mut stats);
        assert_eq!(out, seq);
        assert_eq!(
            pool.jobs_submitted() - before,
            1,
            "a linear pipeline pays exactly one queue round-trip"
        );
        let events = probe.events();
        assert_scheduling_invariants(&plan, &events, "linear pipeline");
        assert_eq!(
            events.iter().filter(|e| matches!(e, ProbeEvent::Submitted(_))).count(),
            1,
            "only the scan is queued: {events:?}"
        );
        assert!(events.contains(&ProbeEvent::Inlined(1)), "{events:?}");
        assert!(events.contains(&ProbeEvent::Inlined(2)), "{events:?}");
        // The single job checked scratch out exactly once for the
        // whole chain.
        assert_eq!(stats.scratch_checkouts, 1);
    }

    #[test]
    fn root_with_a_consumer_is_never_handed_over() {
        use blas_translate::BoundSource;
        // No lowering emits a root that something else consumes, but
        // PhysPlan::from_ops permits it — and execute_pooled reads the
        // root's slot for the query result, so the chain-link handover
        // (which parks only a placeholder) must exclude the root.
        let (_, store, _) = fixture(SAMPLE);
        let ops = vec![
            PhysOp::ClusteredScan { source: BoundSource::All, value_eq: None, level_eq: None },
            PhysOp::ValueFilter { input: 0, value_eq: Some("cyt".into()), level_eq: None },
        ];
        let plan = plan_from(ops, 0);
        let mut seq_stats = ExecStats::default();
        let seq = execute(&plan, &store, &ExecConfig::default(), &mut seq_stats);
        assert!(!seq.is_empty(), "the root scan has results");
        let mut stats = ExecStats::default();
        let par = execute(&plan, &store, &ExecConfig::sharded(2), &mut stats);
        assert_eq!(par, seq, "the root's slot must hold its real output");
    }

    #[test]
    fn collapse_disabled_restores_one_job_per_operator() {
        let (doc, store, dom) = fixture(SAMPLE);
        let b = bound(&doc, &dom, "/db/e[p//s='cyt']/r/f/t");
        let plan = lower_plan(&b);
        let probe = ExecProbe::new();
        let config = ExecConfig::sharded(2)
            .with_min_shard_elems(1)
            .with_collapse_chains(false)
            .with_probe(probe.clone());
        let mut stats = ExecStats::default();
        let out = execute(&plan, &store, &config, &mut stats);
        let mut seq_stats = ExecStats::default();
        let seq = execute(&plan, &store, &ExecConfig::default(), &mut seq_stats);
        assert_eq!(out, seq, "collapsing is a scheduling detail, not a semantic one");
        let events = probe.events();
        assert_scheduling_invariants(&plan, &events, "collapse off");
        for (id, _) in plan.ops().iter().enumerate() {
            assert!(
                events.contains(&ProbeEvent::Submitted(id)),
                "with collapsing off every op is queued: {events:?}"
            );
            assert!(!events.contains(&ProbeEvent::Inlined(id)), "{events:?}");
        }
    }

    /// Reference model of the scheduler for a **serial** executor (a
    /// zero-worker pool: every job runs on the coordinating thread,
    /// FIFO): predicts the exact probe event stream, including which
    /// operators are queued and which are chain-collapsed.
    fn simulate_serial_schedule(plan: &PhysPlan) -> Vec<ProbeEvent> {
        use std::collections::VecDeque;
        let mut events = Vec::new();
        let mut credits: Vec<usize> = plan.input_counts().to_vec();
        let mut queue: VecDeque<OpId> = VecDeque::new();
        for (id, &c) in credits.iter().enumerate() {
            if c == 0 {
                events.push(ProbeEvent::Submitted(id));
                queue.push_back(id);
            }
        }
        while let Some(job) = queue.pop_front() {
            let mut current = job;
            loop {
                events.push(ProbeEvent::Started(current));
                events.push(ProbeEvent::Finished(current));
                let mut ready = Vec::new();
                for &consumer in &plan.consumers()[current] {
                    credits[consumer] -= 1;
                    if credits[consumer] == 0 {
                        ready.push(consumer);
                    }
                }
                if ready.len() == 1 {
                    events.push(ProbeEvent::Inlined(ready[0]));
                    current = ready[0];
                } else {
                    for consumer in ready {
                        events.push(ProbeEvent::Submitted(consumer));
                        queue.push_back(consumer);
                    }
                    break;
                }
            }
        }
        events
    }

    #[test]
    fn serial_schedule_matches_the_reference_simulation() {
        // On a zero-worker pool the DAG walk is deterministic, so the
        // probe log must equal the reference model event for event —
        // in particular, every sole just-released consumer is Inlined
        // and every fork is Submitted, across all three lowerings.
        let (doc, store, dom) = fixture(SAMPLE);
        let b = bound(&doc, &dom, "/db/e[p//s='cyt']/r/f[y='2001']/t");
        let twig = TwigQuery::from_plan(&b).unwrap();
        for (name, plan) in [
            ("rdbms", lower_plan(&b)),
            ("twig", lower_twig(&twig)),
            ("twigstack", lower_twigstack(&twig)),
        ] {
            let probe = ExecProbe::new();
            // Default min_shard_elems: scan fan-out would run nested
            // helper jobs and reorder the serial schedule.
            let config = ExecConfig::on_pool(PoolHandle::inline(), 2).with_probe(probe.clone());
            let mut stats = ExecStats::default();
            execute(&plan, &store, &config, &mut stats);
            assert_eq!(
                probe.events(),
                simulate_serial_schedule(&plan),
                "{name}: serial schedule must match the reference model"
            );
        }
    }
}
