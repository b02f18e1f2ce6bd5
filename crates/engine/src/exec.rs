//! The physical-plan executor: one dependency-counted DAG walk that
//! runs every plan, on whatever [`PoolHandle`] the configuration
//! carries.
//!
//! One operator set executes any [`PhysPlan`] (see [`crate::physical`]
//! for the operator ↔ paper-section map); all three engines —
//! relational, holistic twig, TwigStack — funnel through [`execute`]
//! and differ only in how they *lower*.
//!
//! # The DAG walk
//!
//! Scheduling is dependency-counted: each operator starts with one
//! credit per input edge ([`PhysPlan::input_counts`]), a finishing
//! operator decrements its consumers' credits
//! ([`PhysPlan::consumers`]) and schedules whichever dependents just
//! reached zero; the plan's roots ([`PhysPlan::roots`]) are ready at
//! the start. Where a ready operator runs depends only on the pool:
//!
//! * **A pool with workers** ([`ExecConfig::pool`], typically
//!   `blas::BlasDb`'s persistent pool shared across scans *and*
//!   queries — there are no per-scan thread spawns anywhere): roots
//!   and genuine forks become pool jobs, so independent subtrees — the
//!   two sides of a [`PhysOp::StructuralJoin`], every
//!   [`PhysOp::Union`] arm, every twig branch feeding
//!   [`PhysOp::TwigStackMatch`] — execute concurrently, not just the
//!   scans.
//! * **The zero-worker pool** ([`PoolHandle::inline`], which
//!   [`ExecConfig::sequential`] carries): no worker could ever steal a
//!   queued job, so roots and forks never go to the queue. They run
//!   inline from the job's local LIFO ready stack, and with
//!   `shards < 2` — where no scan can fan out either — the walk runs
//!   without a [`pool::scope`] barrier at all: the whole plan is one
//!   job on the calling thread, with no job submitted anywhere.
//!
//! # Amortizing per-operator overhead (chain collapsing + scratch)
//!
//! Making *every* operator a queue job is wasteful exactly where BLAS
//! shines — µs-scale point queries, whose plans are mostly **linear
//! chains** (scan → filter → materialize). Two mechanisms bound the
//! walk's fixed costs:
//!
//! * **Chain collapsing.** When a finishing producer releases
//!   **exactly one** now-ready consumer, the consumer runs *inline*
//!   as a continuation of the producer's job — no queue round-trip,
//!   recorded as [`ProbeEvent::Inlined`]. On a pool with workers only
//!   genuine forks (a release of two or more ready dependents, and
//!   the plan's roots) pay the queue, so a linear pipeline is exactly
//!   **one** pool job end to end, while join sides, union arms and
//!   twig branches still fan out. Along a link that is its consumer's
//!   only input, the producer hands its output over in memory, so a
//!   final [`PhysOp::Materialize`] moves instead of copying.
//!   [`ExecConfig::collapse_chains`] (default on) gates the rule; the
//!   scheduling test suite runs both settings.
//! * **Per-thread scratch.** Each job checks its [`ExecBuffers`] out
//!   of the executing thread's scratch slot instead of allocating
//!   fresh, and checks it back in when the job (including everything
//!   it ran inline) finishes. [`ExecStats`] counts checkouts and cache
//!   hits so reuse is observable. The one exception is the buffer
//!   that becomes the caller's result: it is allocated fresh
//!   ([`ExecBuffers::output`]), so a caller never receives a recycled
//!   buffer with an earlier query's high-water capacity.
//!
//! # Sharded scans
//!
//! With `shards ≥ 2`, every [`PhysOp::ClusteredScan`] large enough to
//! be worth it (`min_shard_elems`) additionally fans out *within* its
//! job:
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
//! deterministic in its inputs, the result does not depend on the
//! pool or the shard count — same labels, same order, same counters —
//! which the equivalence property suite checks across pools of
//! {0, 1, 2, 4, 7} workers on all three engines.

use crate::physical::{OpId, PhysOp, PhysPlan};
use crate::pool::{self, PoolHandle, Scope};
use crate::stats::ExecStats;
use crate::stjoin::{filter_flagged_into, structural_match_into};
use crate::stream::{
    materialize, merge_scan_runs, merge_sorted, resolve_filter, ExecBuffers, Filter, Labels,
    MergeScratch, MAX_RETAINED_ELEMS,
};
use crate::twigstack;
use blas_labeling::DLabel;
use blas_storage::{NodeStore, ScanRun, NO_VALUE};
use blas_translate::{BoundSource, Side};
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Tuples a shard must at least receive before a scan is parallelized;
/// below `2 ×` this, job fan-out costs more than it saves.
pub const DEFAULT_MIN_SHARD_ELEMS: usize = 4096;

/// Executor configuration: how many ways to split clustered scans, and
/// which worker pool runs the plan's forks.
///
/// [`ExecConfig::sequential`] (the default) carries the zero-worker
/// [`PoolHandle::inline`] and `shards == 1`: the plan runs as one job
/// on the calling thread and nothing is submitted to any pool.
/// [`ExecConfig::on_pool`] runs forks and scan shards on a long-lived
/// pool shared across queries; [`ExecConfig::sharded`] spins up a
/// private pool for one-off use. Pool sizing guidance lives on
/// [`PoolHandle`]: `available_parallelism() − 1` workers is the
/// default, because the thread that submits a plan helps execute it.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Ways a large clustered scan splits into pool sub-jobs; below 2
    /// no scan fans out.
    pub shards: usize,
    /// Minimum tuples per shard before a scan fans out; tests force
    /// fan-out on tiny stores by setting this to 1.
    pub min_shard_elems: usize,
    /// The pool that runs the plan's roots and forks as jobs (when it
    /// has workers) and every scan's shard sub-jobs.
    pub pool: PoolHandle,
    /// Chain collapsing (default `true`): a finishing producer that
    /// releases exactly one now-ready consumer runs it inline as a
    /// continuation of its own job and hands its output over in
    /// memory, so only genuine forks — union arms, join sides, twig
    /// branches — pay a queue round-trip. Semantics are unaffected
    /// either way (the equivalence suite runs both settings); turning
    /// it off restores the one-job-per-operator schedule of the plain
    /// DAG walk on a pool with workers, which the scheduling tests use
    /// as a reference.
    pub collapse_chains: bool,
    /// Test-only scheduling instrumentation: when set, the DAG walk
    /// records a [`ProbeEvent`] stream (submission or inlining, start
    /// and finish of every operator) the concurrency test suite
    /// asserts ordering invariants on. Leave `None` outside tests.
    pub probe: Option<ExecProbe>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ExecConfig {
    /// Single-threaded execution (the default): `shards == 1` on a
    /// zero-worker inline pool, so the whole plan runs on the calling
    /// thread and no job is submitted. The inline pool is one
    /// process-wide shared handle (it owns no threads), so constructing
    /// a sequential config per query costs one `Arc` clone.
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
    /// tiny stores; `blas::BlasDb` passes the cost model's threshold).
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
    /// job on a pool with workers, the pre-amortization reference
    /// schedule.
    pub fn with_collapse_chains(mut self, collapse_chains: bool) -> Self {
        self.collapse_chains = collapse_chains;
        self
    }
}

/// One observed scheduling event of the DAG walk (see [`ExecProbe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// The operator became ready and its job was pushed to the pool
    /// queue. Only on a pool with workers: for the plan's roots, and
    /// whenever a finishing producer releases **two or more** ready
    /// dependents at once (a genuine fork); with
    /// [`ExecConfig::collapse_chains`] off, for every operator.
    Submitted(OpId),
    /// The operator became ready and runs on the current job with no
    /// queue round-trip: as the *only* dependent its producer released
    /// (chain collapsing), or — on a zero-worker pool, where no worker
    /// could steal a queued job — as any root or fork, taken from the
    /// job's local LIFO ready stack. Every operator gets exactly one
    /// scheduling event: `Submitted` or `Inlined`, never both, never
    /// twice.
    Inlined(OpId),
    /// The operator began executing.
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
    let t0 = Instant::now();
    let result = Sched::new(plan, store, config).run(stats);
    stats.result_count = result.len();
    stats.elapsed = t0.elapsed();
    result
}

// ---------------------------------------------------------------------
// Operator kernels
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
    join.trim(MAX_RETAINED_ELEMS);
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
// The DAG walk
// ---------------------------------------------------------------------

/// The scratch one executing job checks out of its thread's cache: the
/// operators' buffers, and the job's local ready stack.
#[derive(Default)]
struct JobScratch {
    bufs: ExecBuffers,
    /// Operators ready to run on this job, popped last-in first-out.
    ready: Vec<OpId>,
}

thread_local! {
    /// This thread's spare [`JobScratch`]: per-thread ≡ per-worker for
    /// the resident pool threads, and the same for helping and calling
    /// threads. One slot suffices: only a job nested inside another on
    /// the same thread (helping the pool while a sharded scan waits)
    /// finds it empty, and it then starts from a fresh set.
    static JOB_SCRATCH: Cell<Option<Box<JobScratch>>> = const { Cell::new(None) };
}

/// A job's scratch, checked out of this thread's slot — a pointer move,
/// no lock and no allocation on a hit — and checked back in on drop.
/// What it may retain is bounded where buffers grow
/// ([`ExecBuffers`]); a job that unwinds mid-operator trims the whole
/// set before shelving it.
struct CheckedOut {
    scratch: Option<Box<JobScratch>>,
    /// Whether the checkout recycled an earlier job's set.
    reused: bool,
}

impl CheckedOut {
    fn take() -> Self {
        let cached = JOB_SCRATCH.with(Cell::take);
        CheckedOut { reused: cached.is_some(), scratch: Some(cached.unwrap_or_default()) }
    }

    fn get(&mut self) -> &mut JobScratch {
        self.scratch.as_mut().expect("present until drop")
    }
}

impl Drop for CheckedOut {
    fn drop(&mut self) {
        let Some(mut scratch) = self.scratch.take() else { return };
        if std::thread::panicking() {
            scratch.bufs.trim();
        }
        // try_with: during thread teardown the slot may be gone; the
        // set is then simply dropped.
        let _ = JOB_SCRATCH.try_with(|slot| slot.set(Some(scratch)));
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
/// write-once result slot, fused so one execution makes a single state
/// allocation however many operators the plan has.
struct OpState<'a> {
    /// Unfinished-input credits; the operator is scheduled exactly
    /// when this reaches zero, so a join can never start before both
    /// of its inputs completed.
    pending: AtomicUsize,
    /// Write-once result; readable by consumers only after the
    /// producing job has published (enforced by `pending`).
    slot: Slot<'a>,
}

/// An operator's write-once output, shared across jobs without a lock
/// or a `OnceLock` (whose `set` costs tens of ns — a measurable share
/// of a µs-scale point query): the DAG walk itself orders every access.
struct Slot<'a>(UnsafeCell<Option<Labels<'a>>>);

// SAFETY: a slot is written exactly once, by the one job that runs its
// operator (dependency counting makes each operator ready exactly
// once), and that write precedes every release of the operator's
// consumers. It is read only (a) by consumers, each released either by
// an AcqRel credit decrement that follows the write in the writer's
// release sequence or, along a chain link, by the writing job itself,
// so the write happens-before the read, and (b) by the thread that owns
// the `Sched`, after every job has finished (past the scope barrier, or
// on the thread that ran the whole walk). No read can therefore race
// the write, and reads only share.
unsafe impl Sync for Slot<'_> {}

impl<'a> Slot<'a> {
    fn new() -> Self {
        Slot(UnsafeCell::new(None))
    }

    /// Publish the operator's output. Called once, before any consumer
    /// is released.
    fn publish(&self, labels: Labels<'a>) {
        // SAFETY: no reader exists before the consumers are released,
        // and only this operator's one job writes (see `Sync` above).
        let slot = unsafe { &mut *self.0.get() };
        debug_assert!(slot.is_none(), "operator scheduled twice");
        *slot = Some(labels);
    }

    /// The published output of a finished input.
    fn get(&self) -> &[DLabel] {
        // SAFETY: called only by a released consumer, after the write
        // (see `Sync` above).
        let slot = unsafe { &*self.0.get() };
        slot.as_deref().expect("dependency counting released a consumer before its input")
    }
}

/// Shared scheduling state of one execution. Borrowed by every job;
/// when jobs run on other threads, the [`pool::scope`] barrier
/// guarantees the borrows end before the state is torn down.
struct Sched<'a> {
    plan: &'a PhysPlan,
    store: &'a NodeStore,
    config: &'a ExecConfig,
    /// Who reads each operator's output (one entry per input edge) and
    /// how many inputs each operator has; borrowed from the plan's
    /// memoized dependency metadata.
    consumers: &'a [Vec<OpId>],
    input_counts: &'a [usize],
    root: OpId,
    /// Whether ready roots and forks go to the pool queue: only when
    /// the pool has a worker to steal them.
    queued: bool,
    /// The operator a root [`PhysOp::Materialize`] may take its output
    /// over from (the root itself otherwise): with the root, the
    /// operators whose output buffer can become the caller's result.
    result_input: OpId,
    /// One [`OpState`] per operator, in arena order.
    states: Vec<OpState<'a>>,
    /// Counters of the jobs that ran off the calling thread's own walk,
    /// each absorbed once when its job finishes.
    job_stats: Mutex<ExecStats>,
}

impl<'a> Sched<'a> {
    fn new(plan: &'a PhysPlan, store: &'a NodeStore, config: &'a ExecConfig) -> Self {
        let root = plan.root();
        let result_input =
            if let PhysOp::Materialize { input } = plan.op(root) { *input } else { root };
        Sched {
            plan,
            store,
            config,
            consumers: plan.consumers(),
            input_counts: plan.input_counts(),
            root,
            queued: config.pool.threads() > 0,
            result_input,
            states: plan
                .input_counts()
                .iter()
                .map(|&c| OpState { pending: AtomicUsize::new(c), slot: Slot::new() })
                .collect(),
            job_stats: Mutex::new(ExecStats::default()),
        }
    }

    /// Walk the whole plan, then merge the job counters into `stats`
    /// and take the root's output.
    fn run(self, stats: &mut ExecStats) -> Vec<DLabel> {
        let roots = self.plan.roots();
        let mut scratch = None;
        if self.queued {
            // The first root goes to the queue *unnotified* — this
            // thread is about to hit the scope barrier and will execute
            // it itself, so waking a worker for it would be pure
            // overhead (a spurious futex wake per µs-scale query).
            // Remaining roots are genuine parallelism and wake workers
            // as usual.
            pool::scope(&self.config.pool, |scope| {
                for (i, &root) in roots.iter().enumerate() {
                    self.submit(scope, root, i == 0);
                }
            });
        } else {
            for &root in roots {
                self.probe(ProbeEvent::Inlined(root));
            }
            let mut own = CheckedOut::take();
            let job = if self.config.shards < 2 {
                // Nothing can be spawned: no barrier needed.
                self.run_job(None, roots, &mut own)
            } else {
                pool::scope(&self.config.pool, |scope| self.run_job(Some(scope), roots, &mut own))
            };
            stats.absorb(&job);
            scratch = Some(own);
        }
        let Sched { root, states, job_stats, .. } = self;
        stats.absorb(&job_stats.into_inner().unwrap());
        // Every operator completed. Take the root's labels; the other
        // operators' output buffers go back into *this* thread's
        // scratch, so the next query's operators check them out again
        // instead of growing fresh ones.
        let mut result = Vec::new();
        for (id, state) in states.into_iter().enumerate() {
            match state.slot.0.into_inner().expect("every operator executed") {
                Labels::Borrowed(s) if id == root => result = s.to_vec(),
                Labels::Owned(v) if id == root => result = v,
                Labels::Owned(v) if v.capacity() > 0 => {
                    scratch.get_or_insert_with(CheckedOut::take).get().bufs.recycle_vec(v);
                }
                Labels::Borrowed(_) | Labels::Owned(_) => {}
            }
        }
        result
    }

    fn probe(&self, event: ProbeEvent) {
        if let Some(probe) = &self.config.probe {
            probe.record(event);
        }
    }

    fn input(&self, id: OpId) -> &[DLabel] {
        self.states[id].slot.get()
    }

    /// Queue operator `id` as a pool job of its own. `deferred` skips
    /// the worker wakeup ([`Scope::spawn_deferred`]).
    fn submit<'s, 'e>(&'s self, scope: &'s Scope<'s, 'e>, id: OpId, deferred: bool) {
        self.probe(ProbeEvent::Submitted(id));
        let job = move || {
            let mut scratch = CheckedOut::take();
            let stats = self.run_job(Some(scope), &[id], &mut scratch);
            self.job_stats.lock().unwrap().absorb(&stats);
        };
        if deferred {
            scope.spawn_deferred(job);
        } else {
            scope.spawn(job);
        }
    }

    /// One job: run `first` — and every operator it makes ready on this
    /// job — with one checked-out scratch set, returning the job's
    /// counters (the checkout, and whether it was a cache hit, included).
    fn run_job<'s, 'e>(
        &'s self,
        scope: Option<&'s Scope<'s, 'e>>,
        first: &[OpId],
        scratch: &mut CheckedOut,
    ) -> ExecStats {
        let mut stats = ExecStats {
            scratch_checkouts: 1,
            scratch_hits: u64::from(scratch.reused),
            ..ExecStats::default()
        };
        let JobScratch { bufs, ready } = scratch.get();
        ready.clear();
        ready.extend(first.iter().rev());
        let mut inherited: Option<(OpId, Labels<'a>)> = None;
        while let Some(id) = ready.pop() {
            self.step(scope, id, bufs, ready, &mut inherited, &mut stats);
        }
        debug_assert!(inherited.is_none(), "a handover must be consumed by the next step");
        stats
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
    /// consumers: onto this job's `ready` stack when they run here, to
    /// the pool queue when they are a fork on a pool with workers.
    fn step<'s, 'e>(
        &'s self,
        scope: Option<&'s Scope<'s, 'e>>,
        id: OpId,
        bufs: &mut ExecBuffers,
        ready: &mut Vec<OpId>,
        inherited: &mut Option<(OpId, Labels<'a>)>,
        stats: &mut ExecStats,
    ) {
        self.probe(ProbeEvent::Started(id));
        let result = id == self.root || id == self.result_input;
        let labels: Labels<'a> = match self.plan.op(id) {
            PhysOp::ClusteredScan { source, value_eq, level_eq } => {
                let (value_eq, level_eq) = (value_eq.as_deref(), *level_eq);
                let sharded = match scope {
                    Some(scope) if self.config.shards >= 2 => {
                        self.scan_sharded(scope, source, value_eq, level_eq, stats, bufs, result)
                    }
                    _ => None,
                };
                match sharded {
                    Some(out) => out,
                    None => materialize(source, value_eq, level_eq, self.store, stats, bufs, result),
                }
            }
            PhysOp::ValueFilter { input, value_eq, level_eq } => {
                let mut out = bufs.output(result);
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
                let mut out = bufs.output(result);
                eval_structural_join(
                    self.input_from(inherited, *anc),
                    self.input_from(inherited, *desc),
                    spec,
                    stats,
                    &mut bufs.join,
                    &mut out,
                );
                Labels::Owned(out)
            }
            PhysOp::Union { inputs } => {
                let mut out = bufs.output(result);
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
                Labels::Owned(twigstack::run_match(pattern, &stream_slices, stats))
            }
            PhysOp::Materialize { input } => match take_inherited(inherited, *input) {
                // The chain-link case: the producer handed its output
                // over in memory, so materializing is a move.
                Some(labels) => labels,
                None => {
                    // Slots are shared read-only across jobs, so a
                    // parked input must be copied.
                    let mut out = bufs.output(result);
                    out.extend_from_slice(self.input(*input));
                    Labels::Owned(out)
                }
            },
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
        // the root exclusion keeps the result extraction in `run` off
        // this path (a root with a consumer never comes out of the
        // lowerings, but `PhysPlan::from_ops` permits one). Publish an
        // empty placeholder and hand the real output to the
        // continuation in memory; `Materialize` above then moves it
        // instead of copying.
        if self.config.collapse_chains
            && id != self.root
            && self.consumers[id].len() == 1
        {
            let next = self.consumers[id][0];
            if self.input_counts[next] == 1 {
                self.states[id].slot.publish(Labels::Borrowed(&[]));
                self.probe(ProbeEvent::Finished(id));
                // The consumer's one credit is this edge, which nobody
                // else reads: releasing it needs no atomic decrement.
                debug_assert_eq!(self.states[next].pending.load(Ordering::Relaxed), 1);
                self.probe(ProbeEvent::Inlined(next));
                *inherited = Some((id, labels));
                ready.push(next);
                return;
            }
        }

        self.states[id].slot.publish(labels);
        // Publish before releasing dependents: every consumer observes
        // a fully written slot, and the probe log shows Finished(input)
        // strictly before Started(consumer).
        self.probe(ProbeEvent::Finished(id));
        // Release consumers, collecting those whose last input this
        // was. On a pool with workers, two or more ready dependents (or
        // any, with collapsing disabled) are a genuine fork: each
        // becomes its own pool job, restoring real parallelism exactly
        // where the plan has it. Otherwise they run on this job, the
        // first released first.
        let base = ready.len();
        for &consumer in &self.consumers[id] {
            if self.states[consumer].pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                ready.push(consumer);
            }
        }
        let released = ready.len() - base;
        if self.queued && (released > 1 || !self.config.collapse_chains) {
            let scope = scope.expect("a pool with workers runs the walk inside a scope");
            for consumer in ready.drain(base..) {
                self.submit(scope, consumer, false);
            }
        } else {
            for &consumer in &ready[base..] {
                self.probe(ProbeEvent::Inlined(consumer));
            }
            ready[base..].reverse();
        }
    }

    /// Parallel scan path, taken only with `shards ≥ 2` (which always
    /// runs the walk inside a scope); `None` when the scan is too small
    /// to shard (the caller falls back to the single-job kernel).
    #[allow(clippy::too_many_arguments)]
    fn scan_sharded<'s, 'e>(
        &'s self,
        scope: &'s Scope<'s, 'e>,
        source: &BoundSource,
        value_eq: Option<&str>,
        level_eq: Option<u16>,
        stats: &mut ExecStats,
        bufs: &mut ExecBuffers,
        result: bool,
    ) -> Option<Labels<'a>> {
        let config = self.config;
        let store = self.store;
        // Size the scan from the run directory first (two binary
        // searches): point queries fall back to the single-job kernel
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
        let mut out = bufs.output(result);
        let shards: Vec<&[DLabel]> = shard_out.iter().map(|(shard, _)| shard.as_slice()).collect();
        merge_sorted(&shards, &mut bufs.merge, &mut out);
        Some(Labels::Owned(out))
    }
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

    #[test]
    fn job_scratch_misses_then_hits_on_one_thread() {
        // A dedicated thread guarantees an empty slot regardless of
        // what other tests ran on this thread before.
        std::thread::spawn(|| {
            let (doc, store, dom) = fixture(SAMPLE);
            let plan = lower_plan(&bound(&doc, &dom, "/db/e[p//s='cyt']/r/f/t"));
            let mut hits = Vec::new();
            for _ in 0..3 {
                let mut stats = ExecStats::default();
                execute(&plan, &store, &ExecConfig::default(), &mut stats);
                assert_eq!(stats.scratch_checkouts, 1, "one job per inline execution");
                hits.push(stats.scratch_hits);
            }
            assert_eq!(hits, [0, 1, 1], "a cold slot misses once, then recycles");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn job_scratch_is_per_thread() {
        std::thread::spawn(|| {
            drop(CheckedOut::take()); // warm this thread
            assert!(CheckedOut::take().reused);
            std::thread::spawn(|| {
                assert!(!CheckedOut::take().reused, "another thread's scratch must not be visible");
            })
            .join()
            .unwrap();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nested_checkouts_keep_one_set_and_bound_its_buffers() {
        std::thread::spawn(|| {
            let mut outer = CheckedOut::take();
            let inner = CheckedOut::take();
            assert!(!outer.reused && !inner.reused, "a nested checkout starts fresh");
            // Oversized and excess buffers are not retained.
            let bufs = &mut outer.get().bufs;
            bufs.recycle_vec(Vec::with_capacity(MAX_RETAINED_ELEMS + 1));
            for _ in 0..20 {
                bufs.recycle_vec(Vec::with_capacity(4));
            }
            drop(inner);
            drop(outer);
            let mut kept = CheckedOut::take();
            assert!(kept.reused);
            assert!(!CheckedOut::take().reused, "the slot keeps one set");
            let bufs = &mut kept.get().bufs;
            let mut spares = 0;
            while bufs.take().capacity() > 0 {
                spares += 1;
            }
            assert_eq!(spares, 8, "only a few small spares survive");
        })
        .join()
        .unwrap();
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
    /// 2. on a pool with workers (every caller's), plan roots (no
    ///    inputs) are always `Submitted` — there is no producer to
    ///    inline them into;
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
            .find_map(|(id, op)| {
                if let PhysOp::Union { inputs } = op {
                    Some((id, inputs.clone()))
                } else {
                    None
                }
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

    /// Reference model of the walk on a **zero-worker** pool: nothing
    /// is ever queued — roots and forks alike run on the calling
    /// thread's one job, taken from a LIFO ready stack in release
    /// order — so it predicts the exact probe event stream.
    fn simulate_serial_schedule(plan: &PhysPlan) -> Vec<ProbeEvent> {
        let mut events = Vec::new();
        let mut credits: Vec<usize> = plan.input_counts().to_vec();
        let mut ready: Vec<OpId> = plan.roots().iter().rev().copied().collect();
        events.extend(plan.roots().iter().map(|&r| ProbeEvent::Inlined(r)));
        while let Some(current) = ready.pop() {
            events.push(ProbeEvent::Started(current));
            events.push(ProbeEvent::Finished(current));
            let mut released = Vec::new();
            for &consumer in &plan.consumers()[current] {
                credits[consumer] -= 1;
                if credits[consumer] == 0 {
                    events.push(ProbeEvent::Inlined(consumer));
                    released.push(consumer);
                }
            }
            ready.extend(released.into_iter().rev());
        }
        events
    }

    #[test]
    fn serial_schedule_matches_the_reference_simulation() {
        // On a zero-worker pool the DAG walk is deterministic, so the
        // probe log must equal the reference model event for event —
        // in particular, every root and fork is Inlined from the LIFO
        // stack and nothing is Submitted, across all three lowerings,
        // with and without the scope barrier (shards 1 vs 2).
        let (doc, store, dom) = fixture(SAMPLE);
        let b = bound(&doc, &dom, "/db/e[p//s='cyt']/r/f[y='2001']/t");
        let twig = TwigQuery::from_plan(&b).unwrap();
        for (name, plan) in [
            ("rdbms", lower_plan(&b)),
            ("twig", lower_twig(&twig)),
            ("twigstack", lower_twigstack(&twig)),
        ] {
            // Default min_shard_elems: scan fan-out would run nested
            // helper jobs and reorder the serial schedule.
            for base in [ExecConfig::sequential(), ExecConfig::on_pool(PoolHandle::inline(), 2)] {
                let probe = ExecProbe::new();
                let config = base.with_probe(probe.clone());
                let mut stats = ExecStats::default();
                execute(&plan, &store, &config, &mut stats);
                assert_eq!(
                    probe.events(),
                    simulate_serial_schedule(&plan),
                    "{name} @ {} shards: serial schedule must match the reference model",
                    config.shards
                );
                assert_eq!(config.pool.jobs_submitted(), 0, "{name}: nothing is queued");
                assert_eq!(stats.scratch_checkouts, 1, "{name}: one job per execution");
            }
        }
    }
}
