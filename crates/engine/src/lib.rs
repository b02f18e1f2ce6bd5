//! # blas-engine — the query engines of the BLAS system (§4, §5)
//!
//! Every engine is a **lowering strategy plus an operator
//! configuration** over one shared physical-plan executor:
//!
//! * [`physical`] — the physical-plan IR: explicit operators
//!   (`ClusteredScan{SP|SD}`, `ValueFilter`, `StructuralJoin`,
//!   `Union`, `Materialize`, `TwigStackMatch`) in a flat arena DAG,
//!   plus the three lowering strategies and the filter-pushdown pass.
//! * [`exec`] — the one executor: runs any physical plan with pooled
//!   buffers. Under a parallel [`ExecConfig`] the whole operator DAG
//!   executes as dependency-counted jobs on the persistent worker
//!   pool — join sides, union arms and twig branches concurrently,
//!   with clustered scans additionally sharded into pool sub-jobs —
//!   while `shards == 1` is the zero-copy sequential path. Linear
//!   stretches **chain-collapse**: a sole just-released consumer runs
//!   inline as a continuation of its producer's job, so only genuine
//!   forks pay a queue round-trip and a µs-scale point query stays
//!   within a constant factor of sequential even on one core.
//! * [`opt`] — the cost-based optimizer behind `EngineChoice::Auto`:
//!   O(log n) cardinalities from the SP/SD run directories, per-operator
//!   ns/elem rates calibrated against the measured kernels, and the
//!   engine/join-order/filter-placement/shard decisions derived from
//!   them.
//! * [`pool`] — the persistent work-stealing-lite worker pool those
//!   jobs run on: fixed threads, one injector queue, scoped
//!   submission, helping joins, panic propagation, and lock-free
//!   per-worker scratch caches ([`pool::take_scratch`]) that recycle
//!   operator scratch across jobs. One pool (typically owned by
//!   `blas::BlasDb`) serves every scan, join, union and twig branch
//!   across repeated queries.
//! * [`rdbms`] — the relational engine (§5.2): lowers a [`BoundPlan`]
//!   into the Fig. 11 operator shape (selections, semi-join D-joins,
//!   unions).
//! * [`twig`] — the file-system engine (§5.3): lowers a plan into a
//!   twig query over label *streams* and expresses the holistic
//!   bottom-up/top-down stack passes as a semi-join DAG. Following
//!   §5.3.1, it rejects plans with unions (Unfold) — the paper excluded
//!   Unfold from the twig experiments for the same reason.
//! * [`twigstack`] — the literal TwigStack algorithm (Bruno et al.,
//!   SIGMOD'02) packaged as the executor's holistic match operator.
//! * [`stjoin`] — the structural-join kernel: one merge pass with an
//!   ancestor stack decides, for two start-sorted label lists, which
//!   ancestors/descendants participate in a containment (or
//!   exact-level) pair.
//! * [`stream`] — zero-copy label streams over the columnar store's
//!   clustered runs, the pooled scratch buffers ([`ExecBuffers`])
//!   every operator of one execution shares, and the one k-way
//!   ordering kernel ([`stream::merge_sorted`]) that range scans,
//!   sharded scans and unions restore document order with.
//!
//! Every tuple pulled from storage increments
//! [`ExecStats::elements_visited`]; this is the deterministic
//! "Number of elements read" metric of Figs. 14–18. Sharded scans
//! tally into per-shard accumulators merged once, so the counts are
//! identical to sequential execution.
//!
//! [`BoundPlan`]: blas_translate::BoundPlan
//! [`ExecConfig::shards`]: exec::ExecConfig

pub mod exec;
pub mod naive;
pub mod opt;
pub mod physical;
pub mod pool;
pub mod rdbms;
pub mod stats;
pub mod stjoin;
pub mod stream;
pub mod twig;
pub mod twigstack;

pub use exec::{ExecConfig, ExecProbe, ProbeEvent, DEFAULT_MIN_SHARD_ELEMS};
pub use opt::{
    choose_shards, estimate_plan, lower_plan_costed, order_twig_joins, source_cardinality,
    CostModel, PlanEstimate,
};
pub use pool::{take_scratch, JobHandle, PoolHandle, Scope, Scratch, TaskHandle};
pub use physical::{
    lower_plan, lower_plan_raw, lower_twig, lower_twigstack, PhysOp, PhysPlan, TwigPattern,
};
pub use rdbms::{execute_plan, execute_plan_config, execute_plan_with};
pub use stats::ExecStats;
pub use stream::{ExecBuffers, Labels};
pub use twig::{TwigError, TwigQuery};
pub use twigstack::{execute_twigstack, execute_twigstack_config};
