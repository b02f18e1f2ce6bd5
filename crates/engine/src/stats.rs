//! Per-query execution statistics.
//!
//! The counters follow an **accumulator-per-job** discipline: no
//! `&mut ExecStats` is ever shared between jobs. Every job of the DAG
//! walk — and every scan shard sub-job — tallies into its own private
//! `ExecStats`; the scan job [`absorb`]s its shards once at its join
//! point (asserting the absorbed `elements_visited` equals the scan's
//! total tuple count), and every job's accumulator is absorbed exactly
//! once into the query's totals when the job finishes, so a tuple can
//! never be counted twice no matter how the DAG was scheduled. The
//! equivalence property suite checks that the counts are the same
//! plan-for-plan on pools of {0, 1, 2, 4, 7} workers.
//!
//! Two counters are deliberately **outside** that contract:
//! [`ExecStats::scratch_checkouts`] / [`ExecStats::scratch_hits`]
//! observe the per-thread scratch and depend on which thread
//! ran which job — scheduling facts, not query semantics.
//!
//! [`absorb`]: ExecStats::absorb

use std::time::Duration;

/// Counters reported for every executed query; the evaluation figures
/// plot `elements_visited` (Figs. 14–18 b) and wall-clock time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tuples pulled from storage (selections and stream scans). The
    /// paper's "number of elements read".
    pub elements_visited: u64,
    /// Structural D-joins executed.
    pub d_joins: u32,
    /// Total tuples entering join operators (intermediate-result size).
    pub join_input_tuples: u64,
    /// Tuples produced by the final plan operator.
    pub result_count: usize,
    /// Wall-clock execution time (selections + joins, excluding
    /// index-build time, matching §5.2.3's measurement scope).
    pub elapsed: Duration,
    /// Scheduling observability: **jobs** that checked a
    /// scratch-buffer set ([`ExecBuffers`]) out of the executing
    /// thread's scratch slot. One per job, however many
    /// operators the job ran inline — so exactly one for an execution
    /// on the zero-worker inline pool, which runs the whole plan as one
    /// job.
    ///
    /// Unlike every counter above, this and [`scratch_hits`] describe
    /// *scheduling*, not query semantics: they are excluded from the
    /// equivalence contract across pool sizes.
    ///
    /// [`ExecBuffers`]: crate::stream::ExecBuffers
    /// [`scratch_hits`]: ExecStats::scratch_hits
    pub scratch_checkouts: u64,
    /// The subset of [`scratch_checkouts`] satisfied by a recycled set
    /// — the thread had already finished an earlier job, so
    /// its join flags, merge scratch and spare buffers (capacity
    /// included) were reused instead of reallocated. The scratch-cache
    /// test suite asserts this becomes non-zero as soon as a pool
    /// executes more jobs than it has executing threads.
    ///
    /// [`scratch_checkouts`]: ExecStats::scratch_checkouts
    pub scratch_hits: u64,
}

impl ExecStats {
    /// Merge counters from a sub-execution: staged plans, or one
    /// shard's private accumulator at the parallel-scan join point
    /// (call it exactly once per shard).
    pub fn absorb(&mut self, other: &ExecStats) {
        self.elements_visited += other.elements_visited;
        self.d_joins += other.d_joins;
        self.join_input_tuples += other.join_input_tuples;
        self.elapsed += other.elapsed;
        self.scratch_checkouts += other.scratch_checkouts;
        self.scratch_hits += other.scratch_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters() {
        let mut a = ExecStats {
            elements_visited: 10,
            d_joins: 1,
            join_input_tuples: 5,
            result_count: 3,
            elapsed: Duration::from_millis(2),
            scratch_checkouts: 2,
            scratch_hits: 1,
        };
        let b = ExecStats {
            elements_visited: 7,
            d_joins: 2,
            join_input_tuples: 1,
            result_count: 9,
            elapsed: Duration::from_millis(1),
            scratch_checkouts: 3,
            scratch_hits: 2,
        };
        a.absorb(&b);
        assert_eq!(a.elements_visited, 17);
        assert_eq!(a.d_joins, 3);
        assert_eq!(a.join_input_tuples, 6);
        assert_eq!(a.result_count, 3, "result_count is not merged");
        assert_eq!(a.elapsed, Duration::from_millis(3));
        assert_eq!(a.scratch_checkouts, 5);
        assert_eq!(a.scratch_hits, 3);
    }
}
