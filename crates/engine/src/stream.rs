//! Zero-copy label streams, the scratch buffers the operators share,
//! and the one routine that restores document order.
//!
//! The columnar store returns clustered scans as [`ScanRun`]s — either
//! borrowed `&[DLabel]` extents (owned or raw-mapped stores) or packed
//! v3 column runs that decode on the fly (see `blas_storage::scan`).
//! [`Labels`] lets an operator pass raw slices through *without
//! copying* when no filter or reordering applies, and fall back to a
//! pooled owned buffer when one does (packed runs always land in a
//! buffer — one chunked block decode, not a per-element loop).
//! [`ExecBuffers`] owns every scratch allocation of one executing job
//! — operator output buffers are recycled through a pool, the join
//! kernel's flag vectors are reused across joins, and order
//! restoration reuses one [`MergeScratch`] — and stays with the
//! executing thread between jobs, so a warm thread executes a plan
//! without allocating intermediate buffers.
//!
//! # Restoring document order
//!
//! Three places hold several start-sorted streams whose union must come
//! out in document order: a P-label range scan (one run per distinct
//! P-label in the range), a sharded scan (one output per shard) and a
//! `Union` operator (one stream per arm; arms may share nodes). All three call
//! [`merge_sorted`]. It groups the inputs by start span: an input
//! whose span overlaps no other is copied whole with one `memcpy`, and
//! only inputs that interleave are merged, pairwise in ⌈log2 k⌉
//! rounds, each two-way merge copying every stretch that lies between
//! the other side's elements in one block. The optimizer prices it the
//! same way for scans and unions (`CostModel::order_ns_per_elem`, per
//! element and round).

use crate::stats::ExecStats;
use crate::stjoin::JoinScratch;
use blas_labeling::DLabel;
use blas_storage::{NodeStore, ScanFilter, ScanRun, NO_VALUE};
use blas_translate::BoundSource;
use std::ops::{Deref, Range};

/// A start-sorted label stream: borrowed straight from the store's
/// clustered columns, or owned (filtered / merged / joined) in a
/// pooled buffer.
#[derive(Debug)]
pub enum Labels<'a> {
    /// Zero-copy slice of a clustered run.
    Borrowed(&'a [DLabel]),
    /// Materialized stream in a pooled buffer.
    Owned(Vec<DLabel>),
}

impl Deref for Labels<'_> {
    type Target = [DLabel];
    #[inline]
    fn deref(&self) -> &[DLabel] {
        match self {
            Labels::Borrowed(s) => s,
            Labels::Owned(v) => v,
        }
    }
}

/// Scratch state of one executing job, checked out of the executing
/// thread's scratch slot and threaded through every operator the job
/// runs.
#[derive(Debug, Default)]
pub struct ExecBuffers {
    pool: Vec<Vec<DLabel>>,
    /// Reused flag/stack storage for the structural-join kernel.
    pub join: JoinScratch,
    /// Reused state of [`merge_sorted`] (range scans and unions).
    pub merge: MergeScratch,
}

impl ExecBuffers {
    /// Take a cleared buffer from the pool (or allocate the first
    /// time).
    pub fn take(&mut self) -> Vec<DLabel> {
        match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// An operator's output buffer: a pooled one, or — for the operator
    /// whose output becomes the caller's result — a fresh one, so the
    /// caller never receives a recycled buffer and the high-water
    /// capacity an earlier query gave it.
    pub fn output(&mut self, result: bool) -> Vec<DLabel> {
        if result {
            Vec::new()
        } else {
            self.take()
        }
    }

    /// Return a stream's buffer to the pool, if it owned one.
    pub fn recycle(&mut self, labels: Labels<'_>) {
        if let Labels::Owned(v) = labels {
            self.recycle_vec(v);
        }
    }

    /// Return a raw buffer to the pool — unless it is oversized or the
    /// pool is full. A scratch set outlives its job (each thread keeps
    /// one), so what it retains is bounded where buffers come back: a
    /// thread does not pin the high-water capacity of the largest query
    /// it ever ran.
    pub fn recycle_vec(&mut self, v: Vec<DLabel>) {
        if v.capacity() <= MAX_RETAINED_ELEMS && self.pool.len() < MAX_SPARES {
            self.pool.push(v);
        }
    }

    /// Drop everything beyond the retention bounds at once: for a job
    /// that unwinds mid-operator, before its scratch is shelved.
    pub fn trim(&mut self) {
        self.pool.retain(|v| v.capacity() <= MAX_RETAINED_ELEMS);
        self.pool.truncate(MAX_SPARES);
        self.join.trim(MAX_RETAINED_ELEMS);
        self.merge.trim(MAX_RETAINED_ELEMS);
    }
}

/// Spare output buffers an [`ExecBuffers`] keeps.
const MAX_SPARES: usize = 8;

/// Largest scratch buffer, in elements, kept once its operator is done
/// (64 Ki entries; ≤ 1 MiB for the label buffers).
pub(crate) const MAX_RETAINED_ELEMS: usize = 1 << 16;

/// The stream filter of a selection (`data = 'v'`, `level = k`) is the
/// storage crate's [`ScanFilter`], whose chunked kernels run directly
/// over raw or packed runs.
pub(crate) type Filter = ScanFilter;

/// Resolve textual predicates against the store's intern table: an
/// un-interned value becomes `Some(NO_VALUE)`, which admits nothing.
pub(crate) fn resolve_filter(
    value_eq: Option<&str>,
    level_eq: Option<u16>,
    store: &NodeStore,
) -> Filter {
    ScanFilter {
        value_id: value_eq.map(|v| store.value_id(v).unwrap_or(NO_VALUE)),
        level_eq,
    }
}

/// Materialize the stream of one bound selection / twig node: count
/// every scanned tuple in `stats` (the paper's "elements read" — the
/// whole clustered run is read, filters apply after), return the
/// stream start-sorted, borrowing the store's columns whenever no
/// filter or merge forces a copy. A copy lands in
/// [`ExecBuffers::output`]`(result)`.
pub fn materialize<'a>(
    source: &BoundSource,
    value_eq: Option<&str>,
    level_eq: Option<u16>,
    store: &'a NodeStore,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
    result: bool,
) -> Labels<'a> {
    let filter = resolve_filter(value_eq, level_eq, store);
    match source {
        BoundSource::PLabelEq(p) => {
            single_run(store.scan_plabel_eq(*p), filter, stats, bufs, result)
        }
        BoundSource::Tag(t) => single_run(store.scan_tag(*t), filter, stats, bufs, result),
        BoundSource::All => single_run(store.scan_doc(), filter, stats, bufs, result),
        BoundSource::PLabelRange(p1, p2) => {
            multi_run(store.scan_plabel_range(*p1, *p2), filter, stats, bufs, result)
        }
        BoundSource::Empty => Labels::Borrowed(&[]),
    }
}

/// Equality/tag/full scans yield one start-sorted run: zero-copy when
/// the run is a raw extent and no filter applies; otherwise one pass
/// of the chunked filter/decode kernel into a pooled buffer.
fn single_run<'a>(
    run: ScanRun<'a>,
    filter: Filter,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
    result: bool,
) -> Labels<'a> {
    stats.elements_visited += run.len() as u64;
    if filter.is_pass_through() {
        if let Some(labels) = run.raw_labels() {
            return Labels::Borrowed(labels);
        }
    }
    let mut out = bufs.output(result);
    run.filter_into(filter, &mut out);
    Labels::Owned(out)
}

/// A P-label range scan yields one start-sorted run per distinct
/// P-label in the range; [`merge_sorted`] restores document order.
fn multi_run<'a>(
    mut runs: impl Iterator<Item = ScanRun<'a>>,
    filter: Filter,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
    result: bool,
) -> Labels<'a> {
    let Some(head) = runs.next() else {
        return Labels::Borrowed(&[]);
    };
    let Some(second) = runs.next() else {
        // A range selecting a single P-label stays zero-copy.
        return single_run(head, filter, stats, bufs, result);
    };
    let mut out = bufs.output(result);
    let mut stage = bufs.take();
    let runs = [head, second].into_iter().chain(runs);
    merge_scan_runs(runs, filter, stats, &mut stage, &mut bufs.merge, &mut out);
    bufs.recycle_vec(stage);
    Labels::Owned(out)
}

/// Filter the start-sorted `runs` of one scan and append their union,
/// in document order, to `out`. Raw runs under a pass-through filter
/// are merged in place; every other run is filtered or decoded into
/// `stage` first. Counts every scanned tuple in `stats`.
pub(crate) fn merge_scan_runs<'a>(
    runs: impl Iterator<Item = ScanRun<'a>>,
    filter: Filter,
    stats: &mut ExecStats,
    stage: &mut Vec<DLabel>,
    scratch: &mut MergeScratch,
    out: &mut Vec<DLabel>,
) {
    let pieces: Vec<Result<&'a [DLabel], Range<usize>>> = runs
        .map(|run| {
            stats.elements_visited += run.len() as u64;
            match run.raw_labels().filter(|_| filter.is_pass_through()) {
                Some(labels) => Ok(labels),
                None => {
                    let before = stage.len();
                    run.filter_into(filter, stage);
                    Err(before..stage.len())
                }
            }
        })
        .collect();
    let inputs: Vec<&[DLabel]> =
        pieces.into_iter().map(|p| p.unwrap_or_else(|r| &stage[r])).collect();
    merge_sorted(&inputs, scratch, out);
}

/// Reusable state of [`merge_sorted`]: the inputs' start spans and the
/// two staging buffers of the pairwise rounds, so restoring order
/// allocates nothing once they reach steady-state capacity.
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// `(first start, last start, input index)` per non-empty input.
    spans: Vec<(u32, u32, usize)>,
    stage: [Vec<DLabel>; 2],
    ends: [Vec<usize>; 2],
}

impl MergeScratch {
    /// Release any staging buffer whose capacity exceeds `max_elems`,
    /// so a long-lived holder (the per-thread scratch) does not pin the
    /// footprint of the largest merge it ever ran. The span and segment
    /// lists hold one entry per input and stay small.
    pub fn trim(&mut self, max_elems: usize) {
        for buf in &mut self.stage {
            if buf.capacity() > max_elems {
                *buf = Vec::new();
            }
        }
    }
}

/// The k-way ordering kernel: append the union of the start-sorted
/// `inputs` to `out` in start (document) order. A start present in
/// several inputs is the same node and is emitted once — union arms
/// may share nodes; the runs of one scan and the outputs of its shards
/// never do.
///
/// Inputs are grouped by start span. A group of one input is copied
/// whole; a group of interleaving inputs is merged pairwise in
/// ⌈log2 k⌉ rounds through two staging buffers, the last round writing
/// `out`. Each two-way merge moves single elements branch-free and
/// gallops over stretches of one side that precede the other's head,
/// copying each stretch as one block.
pub fn merge_sorted(inputs: &[&[DLabel]], scratch: &mut MergeScratch, out: &mut Vec<DLabel>) {
    let MergeScratch { spans, stage, ends } = scratch;
    spans.clear();
    let mut total = 0;
    for (i, input) in inputs.iter().enumerate() {
        debug_assert!(input.windows(2).all(|w| w[0].start < w[1].start));
        if let (Some(first), Some(last)) = (input.first(), input.last()) {
            spans.push((first.start, last.start, i));
            total += input.len();
        }
    }
    spans.sort_unstable();
    out.reserve(total);
    for group in overlap_groups(spans, |&(first, last, _)| (first, last)) {
        match &spans[group] {
            [(_, _, only)] => out.extend_from_slice(inputs[*only]),
            [(_, _, a), (_, _, b)] => merge_two(inputs[*a], inputs[*b], out),
            group => merge_group(inputs, group, stage, ends, out),
        }
    }
    scratch.trim(MAX_RETAINED_ELEMS);
}

/// Split `sorted` — inputs ordered by first start, each with a start
/// span `(first, last)` — into maximal groups whose spans overlap one
/// another transitively. These are the groups [`merge_sorted`] copies
/// whole (a group of one) or merges; the optimizer prices the kernel
/// over the same groups (`CostModel::order_cost_ns`).
pub(crate) fn overlap_groups<'a, T>(
    sorted: &'a [T],
    span: impl Fn(&T) -> (u32, u32) + 'a,
) -> impl Iterator<Item = Range<usize>> + 'a {
    let mut begin = 0;
    std::iter::from_fn(move || {
        let first = sorted.get(begin)?;
        let mut reach = span(first).1;
        let mut end = begin + 1;
        while let Some(next) = sorted.get(end) {
            let (lo, hi) = span(next);
            if lo > reach {
                break;
            }
            reach = reach.max(hi);
            end += 1;
        }
        let group = begin..end;
        begin = end;
        Some(group)
    })
}

/// Merge three or more interleaving inputs (`group`, indices into
/// `inputs`) pairwise, round by round, into `out`.
fn merge_group(
    inputs: &[&[DLabel]],
    group: &[(u32, u32, usize)],
    stage: &mut [Vec<DLabel>; 2],
    ends: &mut [Vec<usize>; 2],
    out: &mut Vec<DLabel>,
) {
    let [mut src, mut dst] = stage.each_mut();
    let [mut src_ends, mut dst_ends] = ends.each_mut();
    src.clear();
    src_ends.clear();
    for pair in group.chunks(2) {
        match pair {
            [(_, _, a), (_, _, b)] => merge_two(inputs[*a], inputs[*b], src),
            [(_, _, a)] => src.extend_from_slice(inputs[*a]),
            _ => unreachable!("chunks of two"),
        }
        src_ends.push(src.len());
    }
    while src_ends.len() > 2 {
        dst.clear();
        dst_ends.clear();
        let mut begin = 0;
        for pair in src_ends.chunks(2) {
            match *pair {
                [mid, end] => merge_two(&src[begin..mid], &src[mid..end], dst),
                [end] => dst.extend_from_slice(&src[begin..end]),
                _ => unreachable!("chunks of two"),
            }
            begin = pair[pair.len() - 1];
            dst_ends.push(dst.len());
        }
        std::mem::swap(&mut src, &mut dst);
        std::mem::swap(&mut src_ends, &mut dst_ends);
    }
    match src_ends[..] {
        [mid, end] => merge_two(&src[..mid], &src[mid..end], out),
        _ => unreachable!("a group of three or more leaves two segments"),
    }
}

/// Two-way merge of start-sorted `a` and `b` into `out`, emitting a
/// start both hold once.
fn merge_two(a: &[DLabel], b: &[DLabel], out: &mut Vec<DLabel>) {
    /// A side whose next `GALLOP` elements all precede the other's head
    /// is copied as a block instead of element by element.
    const GALLOP: usize = 8;
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if a.get(i + GALLOP - 1).is_some_and(|l| l.start < y.start) {
            i = copy_below(a, i, i + GALLOP - 1, y.start, out);
        } else if b.get(j + GALLOP - 1).is_some_and(|l| l.start < x.start) {
            j = copy_below(b, j, j + GALLOP - 1, x.start, out);
        } else {
            let (a_first, b_first) = (x.start < y.start, y.start < x.start);
            out.push(if a_first { x } else { y });
            i += usize::from(!b_first);
            j += usize::from(!a_first);
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Copy `s[from..end]` to `out`, where `end` is the first position
/// whose start is `>= bound`, known to lie past `below` (whose start is
/// `< bound`); returns `end`. Gallops from `below`, so a stretch of
/// length `m` costs O(log m) compares.
fn copy_below(s: &[DLabel], from: usize, below: usize, bound: u32, out: &mut Vec<DLabel>) -> usize {
    let mut lo = below;
    let mut step = 1;
    let hi = loop {
        let probe = lo + step;
        if probe >= s.len() {
            break s.len();
        }
        if s[probe].start >= bound {
            break probe;
        }
        lo = probe;
        step *= 2;
    };
    let end = lo + 1 + s[lo + 1..hi].partition_point(|l| l.start < bound);
    out.extend_from_slice(&s[from..end]);
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas_labeling::label_document;
    use blas_xml::Document;

    const SAMPLE: &str = "<db><e><n>a</n></e><x><e><n>b</n></e></x><n>c</n></db>";

    fn fixture() -> (Document, NodeStore, blas_labeling::PLabelDomain) {
        let doc = Document::parse(SAMPLE).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        (doc, store, labels.domain)
    }

    #[test]
    fn tag_scan_is_zero_copy() {
        let (doc, store, _) = fixture();
        let n = doc.tags().get("n").unwrap();
        let mut stats = ExecStats::default();
        let mut bufs = ExecBuffers::default();
        let out = materialize(
            &BoundSource::Tag(n),
            None,
            None,
            &store,
            &mut stats,
            &mut bufs,
            false,
        );
        assert!(matches!(out, Labels::Borrowed(_)), "unfiltered tag scan must not copy");
        assert_eq!(out.len(), 3);
        assert_eq!(stats.elements_visited, 3);
    }

    #[test]
    fn value_filter_materializes_and_counts_whole_run() {
        let (doc, store, _) = fixture();
        let n = doc.tags().get("n").unwrap();
        let mut stats = ExecStats::default();
        let mut bufs = ExecBuffers::default();
        let out = materialize(
            &BoundSource::Tag(n),
            Some("b"),
            None,
            &store,
            &mut stats,
            &mut bufs,
            false,
        );
        assert!(matches!(out, Labels::Owned(_)));
        assert_eq!(out.len(), 1);
        assert_eq!(stats.elements_visited, 3, "filters do not reduce elements read");
    }

    #[test]
    fn absent_value_passes_nothing() {
        let (doc, store, _) = fixture();
        let n = doc.tags().get("n").unwrap();
        let mut stats = ExecStats::default();
        let mut bufs = ExecBuffers::default();
        let out = materialize(
            &BoundSource::Tag(n),
            Some("no-such-value"),
            None,
            &store,
            &mut stats,
            &mut bufs,
            false,
        );
        assert!(out.is_empty());
        assert_eq!(stats.elements_visited, 3);
    }

    #[test]
    fn range_scan_merges_runs_to_start_order() {
        let (_, store, dom) = fixture();
        let _ = dom;
        let mut stats = ExecStats::default();
        let mut bufs = ExecBuffers::default();
        let out = materialize(
            &BoundSource::PLabelRange(0, u128::MAX),
            None,
            None,
            &store,
            &mut stats,
            &mut bufs,
            false,
        );
        assert_eq!(out.len(), store.len());
        assert!(out.windows(2).all(|w| w[0].start < w[1].start));
        assert_eq!(stats.elements_visited, store.len() as u64);
    }

    #[test]
    fn single_run_range_is_zero_copy() {
        let (doc, store, dom) = fixture();
        let db = doc.tags().get("db").unwrap();
        let q = dom.path_interval(true, &[db]).unwrap();
        let mut stats = ExecStats::default();
        let mut bufs = ExecBuffers::default();
        let out = materialize(
            &BoundSource::PLabelRange(q.p1, q.p2),
            None,
            None,
            &store,
            &mut stats,
            &mut bufs,
            false,
        );
        assert!(matches!(out, Labels::Borrowed(_)));
        assert_eq!(out.len(), 1);
    }

    fn l(start: u32) -> DLabel {
        DLabel { start, end: start + 1, level: 1 }
    }

    fn merged(inputs: &[Vec<DLabel>], scratch: &mut MergeScratch) -> Vec<u32> {
        let slices: Vec<&[DLabel]> = inputs.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        merge_sorted(&slices, scratch, &mut out);
        out.iter().map(|x| x.start).collect()
    }

    #[test]
    fn merge_sorted_interleaves_any_input_count_with_scratch_reuse() {
        let mut scratch = MergeScratch::default();
        for k in 0..=9u32 {
            // `k` element-interleaved inputs of unequal lengths.
            let inputs: Vec<Vec<DLabel>> =
                (0..k).map(|r| (0..10 + r).map(|i| l(i * k + r)).collect()).collect();
            let mut expected: Vec<u32> = inputs.iter().flatten().map(|x| x.start).collect();
            expected.sort_unstable();
            assert_eq!(merged(&inputs, &mut scratch), expected, "{k} inputs");
        }
    }

    #[test]
    fn merge_sorted_copies_disjoint_inputs_in_span_order() {
        // Inputs given out of document order, with an empty one and a
        // stretch that lies between two elements of another input.
        let inputs = vec![
            vec![l(40), l(41), l(42)],
            Vec::new(),
            vec![l(0), l(1), l(30)],
            vec![l(2), l(3), l(4), l(5)],
            vec![l(50)],
        ];
        let got = merged(&inputs, &mut MergeScratch::default());
        assert_eq!(got, [0, 1, 2, 3, 4, 5, 30, 40, 41, 42, 50]);
    }

    #[test]
    fn merge_sorted_emits_shared_nodes_once() {
        let inputs = vec![vec![l(1), l(3), l(5)], vec![l(3), l(4), l(5)], vec![l(5), l(9)]];
        let mut scratch = MergeScratch::default();
        assert_eq!(merged(&inputs, &mut scratch), [1, 3, 4, 5, 9]);
        // Identical arms collapse to one.
        let same = vec![inputs[0].clone(), inputs[0].clone(), inputs[0].clone()];
        assert_eq!(merged(&same, &mut scratch), [1, 3, 5]);
        // Long stretches shared by both sides, interleaved with singles.
        let a: Vec<DLabel> = (0..40).chain(50..60).map(l).collect();
        let b: Vec<DLabel> = (20..45).chain([47]).chain(55..70).map(l).collect();
        let mut expected: Vec<u32> = (0..45).chain([47]).chain(50..70).collect();
        expected.dedup();
        assert_eq!(merged(&[a, b], &mut scratch), expected);
    }

    #[test]
    fn overlap_groups_chain_transitively() {
        let spans = [(0, 5), (3, 8), (8, 9), (10, 12), (13, 20), (14, 15)];
        let groups: Vec<Range<usize>> = overlap_groups(&spans, |&s| s).collect();
        assert_eq!(groups, [0..3, 3..4, 4..6]);
        assert_eq!(overlap_groups(&[] as &[(u32, u32)], |&s| s).count(), 0);
    }
}
