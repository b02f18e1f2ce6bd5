//! The cost-based optimizer behind `EngineChoice::Auto`.
//!
//! BLAS's Fig. 11 story is plan *selection*: the same query admits
//! several compositions of selections, structural joins and unions,
//! and the measured spread between them is enormous — on the Fig. 10
//! suite the TwigStack engine is 25–180× slower than the relational
//! lowering of the very same bound plan. This module closes the loop
//! the paper leaves to the reader: it prices each candidate lowering
//! and lets the system pick.
//!
//! Three ingredients, all deliberately tiny:
//!
//! 1. **Cardinalities in O(log n)** — every leaf of a physical plan is
//!    a clustered scan whose extent the store's SP/SD run directories
//!    answer with two binary searches ([`source_cardinality`]:
//!    `plabel_eq_size` / `plabel_range_size` / `tag_size` / `len`).
//!    No histograms, no sampling: the clustering *is* the statistic.
//!    A P-label range scan's runs come out of the same directory with
//!    their sizes and start spans, which is what restoring their
//!    document order costs.
//! 2. **A per-operator cost model** ([`CostModel`]) — ns/element rates
//!    calibrated against the measured kernel rows of
//!    `BENCH_storage.json` (Auction ×10): clustered scans stream at
//!    ~0.3–0.6 ns/elem, the structural-join merge at ~1.6 ns/elem,
//!    and the literal TwigStack match at ~300+ ns/elem (its O(depth)
//!    stack work per element is why the paper's own engines beat it).
//!    Estimated selectivities propagate cardinalities up the DAG.
//! 3. **A plan walk** ([`estimate_plan`]) — one pass over the operator
//!    arena in execution order, producing total estimated cost, the
//!    result cardinality, and the largest single scan (the input to
//!    the shard decision).
//!
//! On top of the estimates sit the three decisions `EngineChoice::Auto`
//! delegates here:
//!
//! * **engine/lowering** — `blas::BlasDb` lowers every applicable
//!   candidate (rdbms over Unfold and Push-up, twig and twigstack over
//!   Push-up) and keeps the cheapest estimate;
//! * **join order and filter placement** — [`order_twig_joins`] sorts
//!   each twig node's child joins by ascending stream cardinality (the
//!   bottom-up semi-joins against one parent commute, so smallest
//!   stream first shrinks the ancestor side soonest), and
//!   [`lower_plan_costed`] places each pushable filter by comparing
//!   the fused and standalone costs per site;
//! * **shard count** — [`choose_shards`] only parallelizes when the
//!   largest scan that does per-element work clears a per-shard
//!   element threshold ([`CostModel::min_shard_elems`]: enough work to
//!   pay for the fork), so point queries — and scans borrowed
//!   zero-copy, which have no work to divide — never pay pool
//!   overhead.

use crate::exec::DEFAULT_MIN_SHARD_ELEMS;
use crate::physical::{lower_plan_raw, PhysOp, PhysPlan};
use crate::stream::overlap_groups;
use crate::twig::TwigQuery;
use blas_storage::{NodeStore, ScanRun};
use blas_translate::{BoundPlan, BoundSource, Side};

/// Exact cardinality of a clustered scan, answered in O(log n) from
/// the SP/SD run directories (two binary searches per probe). This is
/// the optimizer's only statistics source — the physical clustering
/// the paper builds for scan speed doubles as a perfect leaf-level
/// histogram.
pub fn source_cardinality(store: &NodeStore, source: &BoundSource) -> usize {
    match source {
        BoundSource::PLabelEq(p) => store.plabel_eq_size(*p),
        BoundSource::PLabelRange(p1, p2) => store.plabel_range_size(*p1, *p2),
        BoundSource::Tag(t) => store.tag_size(*t),
        BoundSource::All => store.live_len(),
        BoundSource::Empty => 0,
    }
}

/// Per-operator cost rates (ns/element) and selectivity guesses.
///
/// The rates come from the measured kernel and engine rows of
/// `BENCH_storage.json` at Auction ×10 (see each field); they only
/// need to *rank* plans, not predict wall-clock, so rough blends are
/// fine — the decisive gaps (twigstack vs everything else, pool
/// overhead vs point queries) are orders of magnitude wide. The three
/// terms that decide Push-up against Unfold — ordering, kept-side
/// compaction and per-operator overhead — were fitted to sequential
/// execution times of ~60 Push-up and Unfold plans of Auction ×1 and
/// ×10 queries on a 2-vCPU host, the point lookups of `perfbench`'s
/// lookup-mix among them.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Clustered-scan streaming rate. Measured: raw columns ~0.27
    /// ns/elem, packed v3 ~0.55 ns/elem; we blend since the optimizer
    /// does not know the encoding per run.
    pub scan_ns_per_elem: f64,
    /// `data = 'v'` filtering during a scan or over a buffer
    /// (value-id resolution amortizes; the per-element compare
    /// dominates).
    pub value_filter_ns_per_elem: f64,
    /// `level = k` filtering (one integer compare).
    pub level_filter_ns_per_elem: f64,
    /// Copying labels into an owned buffer (standalone filters and
    /// materialization pay this; fused filters skip the unfiltered
    /// copy).
    pub copy_ns_per_elem: f64,
    /// The structural-join merge over both inputs. Measured:
    /// 66 µs / 40 800 elements ≈ 1.6 ns/elem.
    pub join_ns_per_elem: f64,
    /// Compacting the kept side of a semi-join: each of its elements
    /// is tested against its participation flag and the survivors are
    /// written to a fresh buffer. Fitted: ~4 ns per kept-side element.
    /// Without it a Push-up chain of joins over large tag runs prices
    /// below an Unfold union of narrow anchored paths while measuring
    /// 2× slower.
    pub join_keep_ns_per_elem: f64,
    /// One round of the k-way ordering kernel
    /// (`stream::merge_sorted`), per element: restoring document order
    /// over `n` elements in `k` interleaving start-sorted inputs costs
    /// `n·⌈log2 k⌉` of these on top of one copy per element
    /// ([`CostModel::order_cost_ns`]). Fitted: ~1.5 ns per element and
    /// round on the runs and arms of real plans, which interleave in
    /// stretches; element-by-element interleaving, the worst case,
    /// measures ~4.5 ns on the same host.
    pub order_ns_per_elem: f64,
    /// The literal TwigStack match, per stream element. Measured
    /// 300–600 ns/elem on the Fig. 10 suite (O(depth) stack work per
    /// element) — the constant that makes guessing wrong cost 180×.
    pub twigstack_ns_per_elem: f64,
    /// Fixed per-operator overhead (buffer checkout, dispatch).
    /// Fitted: ~100 ns on the sequential path.
    pub op_overhead_ns: f64,
    /// Fanning a scan out to one more pool shard: waking a worker,
    /// handing it a group of runs and copying its output back into
    /// the merged result, plus the pooled walk's job hand-offs. Fitted:
    /// ~25 µs on a 2-vCPU host, where 2-way sharding of 8–10k-element
    /// scans measured 1.6–2× slower than sequential execution.
    pub shard_fork_ns: f64,
    /// Fraction of a stream surviving a `data = 'v'` filter.
    pub value_selectivity: f64,
    /// Fraction surviving an exact-level filter.
    pub level_selectivity: f64,
    /// Fraction of the kept side surviving a structural semi-join.
    pub join_selectivity: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scan_ns_per_elem: 0.45,
            value_filter_ns_per_elem: 4.0,
            level_filter_ns_per_elem: 0.6,
            copy_ns_per_elem: 0.6,
            join_ns_per_elem: 1.7,
            join_keep_ns_per_elem: 4.0,
            order_ns_per_elem: 1.5,
            twigstack_ns_per_elem: 400.0,
            op_overhead_ns: 100.0,
            shard_fork_ns: 25_000.0,
            value_selectivity: 0.1,
            level_selectivity: 0.3,
            join_selectivity: 0.6,
        }
    }
}

impl CostModel {
    /// Cost of the k-way ordering kernel over `inputs`, each given as
    /// `(first start, last start, estimated elements)`. The kernel
    /// writes every element once, copies an input whose span overlaps
    /// no other whole, and merges each group of `k` overlapping inputs
    /// holding `n` elements in `⌈log2 k⌉` rounds — so a group costs
    /// `n·⌈log2 k⌉` rounds at [`CostModel::order_ns_per_elem`]. Range
    /// scans (inputs = the runs of the P-label range) and unions
    /// (inputs = the arms) are charged through this one function, so
    /// Auto weighs a Push-up range against an Unfold union on the same
    /// terms.
    pub fn order_cost_ns(&self, inputs: &mut [(u32, u32, f64)]) -> f64 {
        inputs.sort_unstable_by_key(|&(first, last, _)| (first, last));
        overlap_groups(inputs, |&(first, last, _)| (first, last))
            .map(|group| {
                let group = &inputs[group];
                let n: f64 = group.iter().map(|&(_, _, n)| n).sum();
                let rounds = f64::from(group.len().next_power_of_two().trailing_zeros());
                n * (self.copy_ns_per_elem + rounds * self.order_ns_per_elem)
            })
            .sum()
    }

    /// Fewest elements a shard must scan for fanning it out to pay:
    /// the streaming and copying it takes off the calling thread must
    /// outweigh [`CostModel::shard_fork_ns`]. Never below
    /// [`DEFAULT_MIN_SHARD_ELEMS`].
    pub fn min_shard_elems(&self) -> usize {
        let per_elem = self.scan_ns_per_elem + self.copy_ns_per_elem;
        ((self.shard_fork_ns / per_elem) as usize).max(DEFAULT_MIN_SHARD_ELEMS)
    }

    /// Estimated cost of filtering `n` elements with the given
    /// predicates, and the estimated surviving fraction.
    fn filter_cost_and_sel(&self, n: f64, value: bool, level: bool) -> (f64, f64) {
        let mut cost = 0.0;
        let mut sel = 1.0;
        if value {
            cost += n * self.value_filter_ns_per_elem;
            sel *= self.value_selectivity;
        }
        if level {
            cost += n * self.level_filter_ns_per_elem;
            sel *= self.level_selectivity;
        }
        (cost, sel)
    }

    /// Should a pushable filter fuse into its scan? Fused, the
    /// predicate runs during the run traversal; standalone, the scan
    /// first materializes an unfiltered copy (`copy_ns_per_elem` per
    /// element) and pays one extra operator dispatch. Under any
    /// physically sensible rates fusion wins — the comparison exists
    /// so the placement is *derived* per site rather than hard-coded,
    /// and flips automatically should a future encoding make fused
    /// filtering more expensive than a copy.
    pub fn fused_filter_is_cheaper(&self, scan_elems: usize, value: bool, level: bool) -> bool {
        let n = scan_elems as f64;
        let (filter, _) = self.filter_cost_and_sel(n, value, level);
        let fused = n * self.scan_ns_per_elem + filter;
        let standalone =
            n * self.scan_ns_per_elem + n * self.copy_ns_per_elem + self.op_overhead_ns + filter;
        fused <= standalone
    }
}

/// What [`estimate_plan`] computes for a candidate plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// Total estimated execution cost (ns).
    pub cost_ns: f64,
    /// Estimated result cardinality.
    pub result_card: f64,
    /// Largest single clustered scan (elements).
    pub max_scan_card: usize,
    /// Largest single clustered scan that does per-element work — a
    /// filter, a packed decode or an order restore — the shard
    /// decision's input: only this much work is divisible. A raw
    /// single-run scan with no filter is borrowed zero-copy and does
    /// not count.
    pub max_divisible_scan_card: usize,
    /// Sum of all clustered-scan extents (elements).
    pub total_scan_card: usize,
}

/// Start span `(first start, last start)` of a stream; `None` when it
/// is empty. Every operator's output lies within the span of the
/// stream it keeps, so spans propagate up the plan like cardinalities.
type Span = Option<(u32, u32)>;

/// Size and start span of one clustered run, read from its two ends.
fn run_span(run: &ScanRun<'_>) -> (usize, Span) {
    let n = run.len();
    let span = (n > 0).then(|| (run.label_at(0).start, run.label_at(n - 1).start));
    (n, span)
}

/// Smallest span covering both.
fn hull(a: Span, b: Span) -> Span {
    match (a, b) {
        (Some((a0, a1)), Some((b0, b1))) => Some((a0.min(b0), a1.max(b1))),
        (a, None) => a,
        (None, b) => b,
    }
}

/// Walk a physical plan once, in execution order, pricing every
/// operator with [`CostModel`] rates over cardinalities estimated from
/// the run directories and propagated selectivities.
pub fn estimate_plan(plan: &PhysPlan, store: &NodeStore, model: &CostModel) -> PlanEstimate {
    let ops = plan.ops();
    let mut card = vec![0.0f64; ops.len()];
    let mut span: Vec<Span> = vec![None; ops.len()];
    let mut cost = 0.0f64;
    let mut max_scan = 0usize;
    let mut max_divisible = 0usize;
    let mut total_scan = 0usize;
    for (id, op) in ops.iter().enumerate() {
        cost += model.op_overhead_ns;
        card[id] = match op {
            PhysOp::ClusteredScan { source, value_eq, level_eq } => {
                let (fcost_per_elem, sel) =
                    model.filter_cost_and_sel(1.0, value_eq.is_some(), level_eq.is_some());
                // The runs the scan yields: one, or one per P-label of a
                // range, which the ordering kernel then merges.
                let scan_runs: Vec<ScanRun<'_>> = match source {
                    BoundSource::PLabelRange(p1, p2) => store.scan_plabel_range(*p1, *p2).collect(),
                    BoundSource::PLabelEq(p) => vec![store.scan_plabel_eq(*p)],
                    BoundSource::Tag(t) => vec![store.scan_tag(*t)],
                    BoundSource::All => vec![store.scan_doc()],
                    BoundSource::Empty => Vec::new(),
                };
                let mut runs: Vec<(u32, u32, f64)> = Vec::with_capacity(scan_runs.len());
                let mut n = 0;
                for run in &scan_runs {
                    let (len, run_span) = run_span(run);
                    n += len;
                    span[id] = hull(span[id], run_span);
                    if let Some((first, last)) = run_span {
                        runs.push((first, last, len as f64 * sel));
                    }
                }
                // One raw run under no filter is borrowed as is: there is
                // no per-element work for shards to divide.
                let zero_copy = value_eq.is_none()
                    && level_eq.is_none()
                    && matches!(&scan_runs[..], [run] if run.raw_labels().is_some());
                if !zero_copy {
                    max_divisible = max_divisible.max(n);
                }
                max_scan = max_scan.max(n);
                total_scan += n;
                let nf = n as f64;
                cost += nf * (model.scan_ns_per_elem + fcost_per_elem);
                if runs.len() > 1 {
                    cost += model.order_cost_ns(&mut runs);
                }
                nf * sel
            }
            PhysOp::ValueFilter { input, value_eq, level_eq } => {
                span[id] = span[*input];
                let n = card[*input];
                // A standalone filter reads a materialized copy of its
                // input and writes the survivors.
                cost += n * model.copy_ns_per_elem;
                let (fcost, sel) =
                    model.filter_cost_and_sel(n, value_eq.is_some(), level_eq.is_some());
                cost += fcost;
                n * sel
            }
            PhysOp::StructuralJoin { anc, desc, keep, .. } => {
                let (a, d) = (card[*anc], card[*desc]);
                let (kept, kept_span) = match keep {
                    Side::Anc => (a, span[*anc]),
                    Side::Desc => (d, span[*desc]),
                };
                cost += (a + d) * model.join_ns_per_elem + kept * model.join_keep_ns_per_elem;
                span[id] = kept_span;
                kept * model.join_selectivity
            }
            PhysOp::Union { inputs } => {
                // Unfolded paths are disjoint (§4.1.3): the output is
                // the sum of the arms, put in document order by the
                // same kernel a multi-run range scan uses.
                let mut arms: Vec<(u32, u32, f64)> = inputs
                    .iter()
                    .filter_map(|&i| span[i].map(|(first, last)| (first, last, card[i])))
                    .collect();
                cost += model.order_cost_ns(&mut arms);
                span[id] = inputs.iter().fold(None, |acc, &i| hull(acc, span[i]));
                inputs.iter().map(|i| card[*i]).sum()
            }
            PhysOp::TwigStackMatch { streams, pattern } => {
                let total: f64 = streams.iter().map(|i| card[*i]).sum();
                cost += total * model.twigstack_ns_per_elem;
                span[id] = span[streams[pattern.output]];
                card[streams[pattern.output]] * model.join_selectivity
            }
            PhysOp::Materialize { input } => {
                span[id] = span[*input];
                cost += card[*input] * model.copy_ns_per_elem;
                card[*input]
            }
        };
    }
    PlanEstimate {
        cost_ns: cost,
        result_card: card[plan.root()],
        max_scan_card: max_scan,
        max_divisible_scan_card: max_divisible,
        total_scan_card: total_scan,
    }
}

/// Lower a bound plan for the relational engine with **cost-decided
/// filter placement**: the raw lowering keeps scans and filters
/// separate, then every fuseable (scan, filter) pair is fused exactly
/// when [`CostModel::fused_filter_is_cheaper`] says so for that scan's
/// directory-probed cardinality.
pub fn lower_plan_costed(bound: &BoundPlan, store: &NodeStore, model: &CostModel) -> PhysPlan {
    lower_plan_raw(bound).pushdown_filters_if(|scan, filter| {
        let (PhysOp::ClusteredScan { source, .. }, PhysOp::ValueFilter { value_eq, level_eq, .. }) =
            (scan, filter)
        else {
            return true;
        };
        model.fused_filter_is_cheaper(
            source_cardinality(store, source),
            value_eq.is_some(),
            level_eq.is_some(),
        )
    })
}

/// Reorder each twig node's child joins by ascending stream
/// cardinality. The bottom-up pass of the twig lowering semi-joins a
/// parent's satisfaction stream against each child in children order;
/// those joins commute (each keeps the parents satisfying one more
/// child), so running the smallest — most selective — stream first
/// shrinks the ancestor side before the expensive children are merged.
pub fn order_twig_joins(q: &TwigQuery, store: &NodeStore) -> TwigQuery {
    let mut q = q.clone();
    let cards: Vec<usize> =
        q.nodes.iter().map(|n| source_cardinality(store, &n.source)).collect();
    for node in &mut q.nodes {
        node.children.sort_by_key(|&c| cards[c]);
    }
    q
}

/// Pick the shard count for a plan: stay sequential unless the
/// largest scan has at least `min_shard_elems` elements *per
/// prospective shard*, so point queries never pay pool scheduling
/// overhead, and never exceed the worker budget.
pub fn choose_shards(max_scan_card: usize, workers: usize, min_shard_elems: usize) -> usize {
    if workers < 2 {
        return 1;
    }
    let by_size = max_scan_card / min_shard_elems.max(1);
    by_size.min(workers).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{lower_plan, lower_twig, lower_twigstack};
    use blas_labeling::label_document;
    use blas_storage::NodeStore;
    use blas_translate::bind;
    use blas_xml::Document;
    use blas_xpath::parse;

    fn fixture(xml: &str) -> (Document, NodeStore) {
        let doc = Document::parse(xml).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        (doc, store)
    }

    fn bound_for(doc: &Document, xpath: &str) -> BoundPlan {
        let labels = label_document(doc).unwrap();
        let q = parse(xpath).unwrap();
        let plan = blas_translate::translate_pushup(&q).unwrap();
        bind(&plan, doc.tags(), &labels.domain)
    }

    const SAMPLE: &str = concat!(
        "<db>",
        "<e><p><n>alpha</n></p><r><y>2001</y></r></e>",
        "<e><p><n>beta</n></p><r><y>1999</y></r></e>",
        "<e><p><n>gamma</n></p><r><y>2001</y></r></e>",
        "</db>"
    );

    #[test]
    fn source_cardinality_matches_store_directories() {
        let (doc, store) = fixture(SAMPLE);
        let b = bound_for(&doc, "/db/e/p/n");
        // The bound plan's leaf scan must report exactly the matching
        // nodes (three <n> elements down one path).
        let plan = lower_plan(&b);
        let scan_cards: Vec<usize> = plan
            .ops()
            .iter()
            .filter_map(|op| match op {
                PhysOp::ClusteredScan { source, .. } => {
                    Some(source_cardinality(&store, source))
                }
                _ => None,
            })
            .collect();
        assert!(!scan_cards.is_empty());
        assert!(scan_cards.iter().all(|&c| c == 3), "{scan_cards:?}");
        assert_eq!(source_cardinality(&store, &BoundSource::All), store.live_len());
        assert_eq!(source_cardinality(&store, &BoundSource::Empty), 0);
    }

    #[test]
    fn twigstack_estimates_worse_than_rdbms_and_twig() {
        let (doc, store) = fixture(SAMPLE);
        let model = CostModel::default();
        let b = bound_for(&doc, "/db/e[r/y]/p/n");
        let twigq = TwigQuery::from_plan(&b).unwrap();
        let rdbms = estimate_plan(&lower_plan(&b), &store, &model);
        let twig = estimate_plan(&lower_twig(&twigq), &store, &model);
        let ts = estimate_plan(&lower_twigstack(&twigq), &store, &model);
        assert!(
            rdbms.cost_ns < ts.cost_ns && twig.cost_ns < ts.cost_ns,
            "twigstack must price worst: rdbms={} twig={} twigstack={}",
            rdbms.cost_ns,
            twig.cost_ns,
            ts.cost_ns
        );
    }

    #[test]
    fn estimate_tracks_scan_extents() {
        let (doc, store) = fixture(SAMPLE);
        let b = bound_for(&doc, "/db/e[r/y]/p/n");
        let est = estimate_plan(&lower_plan(&b), &store, &CostModel::default());
        assert!(est.max_scan_card >= 3);
        assert!(est.total_scan_card >= est.max_scan_card);
        assert!(est.cost_ns > 0.0);
        assert!(est.result_card > 0.0);
    }

    #[test]
    fn costed_lowering_fuses_filters_under_calibrated_model() {
        // With the calibrated rates a fused filter always beats a
        // standalone one (the standalone path adds a full unfiltered
        // copy plus an operator dispatch), so the cost-decided plan
        // equals the unconditional-pushdown plan.
        let (doc, store) = fixture(SAMPLE);
        let model = CostModel::default();
        let b = bound_for(&doc, "/db/e[r/y='2001']/p/n");
        let costed = lower_plan_costed(&b, &store, &model);
        let unconditional = lower_plan(&b);
        assert_eq!(costed, unconditional);
        assert!(costed.ops().iter().any(
            |op| matches!(op, PhysOp::ClusteredScan { value_eq: Some(_), .. })
        ));
    }

    #[test]
    fn filter_placement_is_per_site_decidable() {
        // The same lowering keeps filters standalone when the
        // placement predicate declines, proving placement is a real
        // decision point, not a hard-coded pass.
        let (doc, _) = fixture(SAMPLE);
        let b = bound_for(&doc, "/db/e[r/y='2001']/p/n");
        let unfused = lower_plan_raw(&b).pushdown_filters_if(|_, _| false);
        assert!(unfused.ops().iter().any(|op| matches!(op, PhysOp::ValueFilter { .. })));
        assert!(!unfused.ops().iter().any(
            |op| matches!(op, PhysOp::ClusteredScan { value_eq: Some(_), .. })
        ));
    }

    #[test]
    fn twig_children_ordered_by_ascending_stream_size() {
        // /db/e has two child branches: [p/n] (narrow) and [r] plus
        // the output path. Build a twig with differently sized child
        // streams and check the smallest joins first.
        let xml = concat!(
            "<db>",
            "<e><p/><r/><r/><r/></e>",
            "<e><p/><r/><r/><r/></e>",
            "</db>"
        );
        let (doc, store) = fixture(xml);
        let b = bound_for(&doc, "/db/e[p][r]");
        let q = TwigQuery::from_plan(&b).unwrap();
        let ordered = order_twig_joins(&q, &store);
        for node in &ordered.nodes {
            let sizes: Vec<usize> = node
                .children
                .iter()
                .map(|&c| source_cardinality(&store, &ordered.nodes[c].source))
                .collect();
            assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
        }
        // Reordering must not lose or duplicate children.
        let mut orig: Vec<usize> = q.nodes.iter().flat_map(|n| n.children.clone()).collect();
        let mut reord: Vec<usize> =
            ordered.nodes.iter().flat_map(|n| n.children.clone()).collect();
        orig.sort_unstable();
        reord.sort_unstable();
        assert_eq!(orig, reord);
    }

    #[test]
    fn order_cost_charges_rounds_only_where_inputs_interleave() {
        let model = CostModel::default();
        let copy = 300.0 * model.copy_ns_per_elem;
        // Three inputs with disjoint spans: one copy per element.
        let disjoint =
            model.order_cost_ns(&mut [(20, 29, 100.0), (0, 9, 100.0), (10, 19, 100.0)]);
        assert!((disjoint - copy).abs() < 1e-9, "{disjoint}");
        // Three interleaving inputs: ⌈log2 3⌉ = 2 rounds on top.
        let interleaved =
            model.order_cost_ns(&mut [(0, 29, 100.0), (1, 28, 100.0), (2, 27, 100.0)]);
        let expect = copy + 300.0 * 2.0 * model.order_ns_per_elem;
        assert!((interleaved - expect).abs() < 1e-9, "{interleaved}");
        // A disjoint input beside an interleaving pair: one round, for
        // the pair only.
        let mixed = model.order_cost_ns(&mut [(0, 9, 100.0), (1, 8, 100.0), (50, 60, 100.0)]);
        let expect = copy + 200.0 * model.order_ns_per_elem;
        assert!((mixed - expect).abs() < 1e-9, "{mixed}");
    }

    #[test]
    fn unions_and_ranges_are_priced_alike() {
        // `//n` unfolds into a union of three anchored paths whose runs
        // interleave in document order; `//p/n` is the matching SP range
        // over the same three runs. The order restore is charged the
        // same for both, so the union differs only by its extra scans'
        // dispatch.
        let xml = "<db><n/><e><n/><p><n/></p></e><n/><e><p><n/></p><n/></e></db>";
        let (doc, store) = fixture(xml);
        let labels = label_document(&doc).unwrap();
        let tags = doc.tags();
        let id = |t: &str| tags.get(t).unwrap();
        let select = |source| {
            BoundPlan::Select(blas_translate::BoundSelection {
                source,
                value_eq: None,
                level_eq: None,
            })
        };
        let arms: Vec<BoundPlan> = [&["db", "n"][..], &["db", "e", "n"], &["db", "e", "p", "n"]]
            .iter()
            .map(|path| {
                let ids: Vec<_> = path.iter().map(|t| id(t)).collect();
                select(BoundSource::PLabelEq(labels.domain.path_interval(true, &ids).unwrap().p1))
            })
            .collect();
        let q = labels.domain.path_interval(false, &[id("n")]).unwrap();
        let model = CostModel::default();
        let union = estimate_plan(&lower_plan(&BoundPlan::Union(arms)), &store, &model);
        let range = lower_plan(&select(BoundSource::PLabelRange(q.p1, q.p2)));
        let range = estimate_plan(&range, &store, &model);
        assert_eq!(union.result_card, range.result_card);
        // Two more scans and the union operator itself.
        let extra_ops = 3.0 * model.op_overhead_ns;
        assert!((union.cost_ns - range.cost_ns - extra_ops).abs() < 1e-6, "{union:?} vs {range:?}");
    }

    #[test]
    fn shard_choice_gated_on_scan_size_and_workers() {
        // One worker: never shard, whatever the scan size.
        assert_eq!(choose_shards(1 << 20, 1, 4096), 1);
        // Point query: never shard, whatever the worker count.
        assert_eq!(choose_shards(3, 8, 4096), 1);
        // Below one full shard of work beyond the first: stay whole.
        assert_eq!(choose_shards(4095, 8, 4096), 1);
        // Large scan: one shard per min_shard_elems, capped by workers.
        assert_eq!(choose_shards(3 * 4096, 8, 4096), 3);
        assert_eq!(choose_shards(100 * 4096, 8, 4096), 8);
    }
}
