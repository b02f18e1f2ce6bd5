//! The one-step suffix path `//t` binds to the SD tag run of `t`
//! instead of the SP range of its P-label interval. The two access
//! paths must be interchangeable: for every tag, the tag run equals the
//! range scan merged back into document order — same labels, same
//! order, same `elements_visited` — on owned stores, mapped v3 stores
//! and stores carrying a delta after inserts, retags and deletes,
//! under sequential and pooled execution. A second suite pins the
//! elements read by every Fig. 10 and query-mix query per manual
//! engine, so the rebinding provably reads exactly what the range did.

use blas::{BlasDb, EngineChoice, Translator};
use blas_datagen::DatasetId::{self, Auction, Protein, Shakespeare};
use blas_engine::{exec, lower_plan, ExecConfig, ExecStats};
use blas_labeling::DLabel;
use blas_storage::NodeStore;
use blas_translate::{BoundPlan, BoundSelection, BoundSource};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Execute one unfiltered clustered scan of `source`.
fn scan(store: &NodeStore, source: BoundSource, config: &ExecConfig) -> (Vec<DLabel>, u64) {
    let plan = lower_plan(&BoundPlan::Select(BoundSelection {
        source,
        value_eq: None,
        level_eq: None,
    }));
    let mut stats = ExecStats::default();
    let nodes = exec::execute(&plan, store, config, &mut stats);
    (nodes, stats.elements_visited)
}

/// For every tag of `db`'s table, at the current generation: the SD
/// run equals the merged P-label range of `//t`, sequential and pooled
/// (every scan sharded four ways).
fn assert_tag_runs_equal_ranges(db: &BlasDb, pooled: &ExecConfig, ctx: &str) {
    let snap = db.snapshot();
    let store = snap.store();
    for (tag, name) in db.tags().iter() {
        let q = db.domain().path_interval(false, &[tag]).unwrap();
        for config in [&ExecConfig::sequential(), pooled] {
            let by_tag = scan(store, BoundSource::Tag(tag), config);
            let by_range = scan(store, BoundSource::PLabelRange(q.p1, q.p2), config);
            assert!(
                by_tag.0.windows(2).all(|w| w[0].start < w[1].start),
                "{ctx}: //{name} tag run out of document order"
            );
            assert_eq!(by_tag, by_range, "{ctx}: //{name} with {} shards", config.shards);
        }
    }
}

fn pooled() -> ExecConfig {
    ExecConfig::sharded(4).with_min_shard_elems(1)
}

/// Snapshot `db` to a unique temp file and reopen it mapped (v3:
/// packed columns served from the mapping).
fn mapped_twin(db: &BlasDb) -> (BlasDb, std::path::PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "blas_tag_binding_{}_{}.snap",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, db.to_snapshot()).unwrap();
    let mapped = BlasDb::open_mapped(&path).unwrap();
    assert!(mapped.store().is_mapped());
    (mapped, path)
}

/// Live `(start, tag name)` of every node, in document order.
fn live(db: &BlasDb) -> Vec<(u32, String)> {
    let snap = db.snapshot();
    let rows = snap
        .store()
        .scan_all()
        .map(|(_, r)| (r.start, db.tags().name(r.tag).to_string()))
        .collect();
    rows
}

/// One insert under the root (always on the rightmost spine), one
/// retag and one delete, at positions picked by `picks`. Each must
/// publish a generation, so the store ends up carrying a delta with
/// inserted, retagged and tombstoned rows.
fn mutate(db: &BlasDb, picks: (usize, usize, usize), fragment: &str) {
    let root = live(db)[0].0;
    db.insert_subtree(root, fragment).unwrap();
    let nodes = live(db);
    let (start, tag) = &nodes[1 + picks.0 % (nodes.len() - 1)];
    let other = nodes.iter().map(|(_, t)| t).find(|t| *t != tag).unwrap();
    db.retag(*start, other).unwrap();
    let nodes = live(db);
    db.delete(nodes[1 + picks.1 % (nodes.len() - 1)].0).unwrap();
    let nodes = live(db);
    if nodes.len() > 1 {
        db.delete(nodes[1 + picks.2 % (nodes.len() - 1)].0).unwrap();
    }
    assert!(db.snapshot().store().delta().is_some());
}

const TAGS: &[&str] = &["a", "b", "c", "d"];

/// Random document over a tiny tag alphabet, rooted at `<a>` with at
/// least two children so every mutation has a non-root target.
fn xml_doc() -> impl Strategy<Value = String> {
    let leaf = (0usize..TAGS.len(), prop::option::of("[xyz]")).prop_map(|(t, txt)| match txt {
        Some(s) => format!("<{0}>{s}</{0}>", TAGS[t]),
        None => format!("<{}/>", TAGS[t]),
    });
    let tree = leaf.prop_recursive(4, 60, 4, |inner| {
        (0usize..TAGS.len(), prop::collection::vec(inner, 1..4))
            .prop_map(|(t, kids)| format!("<{0}>{1}</{0}>", TAGS[t], kids.concat()))
    });
    prop::collection::vec(tree, 2..4)
        .prop_map(|kids| format!("<a>{}<b/><c/><d/></a>", kids.concat()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tag run ≡ merged range on random documents: owned, mapped, and
    /// both again after the same mutations.
    #[test]
    fn tag_runs_equal_one_step_suffix_ranges(
        src in xml_doc(),
        picks in (0usize..64, 0usize..64, 0usize..64),
        fragment in prop::sample::select(vec!["<b/>", "<c><d>y</d></c>", "<a><b/><c>z</c></a>"]),
    ) {
        let pooled = pooled();
        let owned = BlasDb::load(&src).unwrap();
        let (mapped, path) = mapped_twin(&owned);
        assert_tag_runs_equal_ranges(&owned, &pooled, "owned");
        assert_tag_runs_equal_ranges(&mapped, &pooled, "mapped");
        mutate(&owned, picks, fragment);
        mutate(&mapped, picks, fragment);
        assert_tag_runs_equal_ranges(&owned, &pooled, "owned + delta");
        assert_tag_runs_equal_ranges(&mapped, &pooled, "mapped + delta");
        std::fs::remove_file(&path).unwrap();
    }
}

/// The same equivalence on Auction ×1 (77 tags, up to 38 runs per
/// one-step suffix path): owned, mapped, and with a delta.
#[test]
fn auction_tag_runs_equal_one_step_suffix_ranges() {
    let pooled = pooled();
    let owned = BlasDb::load(&Auction.generate(1)).unwrap();
    let (mapped, path) = mapped_twin(&owned);
    assert_tag_runs_equal_ranges(&owned, &pooled, "auction owned");
    assert_tag_runs_equal_ranges(&mapped, &pooled, "auction mapped");
    let fragment = "<regions><europe><item><name>n</name><description><text>t</text>\
                    </description></item></europe></regions>";
    for db in [&owned, &mapped] {
        mutate(db, (17, 4242, 999), fragment);
    }
    assert_tag_runs_equal_ranges(&owned, &pooled, "auction owned + delta");
    assert_tag_runs_equal_ranges(&mapped, &pooled, "auction mapped + delta");
    std::fs::remove_file(&path).unwrap();
}

/// `(dataset, query, result nodes, elements_visited under rdbms/Push-up,
/// rdbms/Unfold, twig/Push-up, twigstack/Push-up)` at scale 1, as
/// measured before `//t` moved to the tag run. Fig. 10 plus the
/// query-mix workload (XMark Q1, Q2, Q4–Q6, `//listitem`, `//text`).
const PINNED: &[(DatasetId, &str, usize, [u64; 4])] = &[
    (Shakespeare, "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE", 14634, [14634, 14634, 14634, 14634]),
    (Shakespeare, "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR", 11, [901, 11, 901, 901]),
    (Shakespeare, "/PLAYS/PLAY/ACT/SCENE[TITLE='SCENE III. A public place.']//LINE", 397, [15851, 15804, 15851, 15851]),
    (Protein, "/ProteinDatabase/ProteinEntry/protein/name", 3700, [3700, 3700, 3700, 3700]),
    (Protein, "/ProteinDatabase/ProteinEntry//authors/author='Daniel, M.'", 40, [14892, 11192, 14892, 14892]),
    (Protein, "/ProteinDatabase/ProteinEntry[reference/refinfo[citation and year]]/protein/name", 2987, [22418, 22418, 22418, 22418]),
    (Auction, "//category/description/parlist/listitem", 168, [168, 168, 168, 168]),
    (Auction, "/site/regions//item/description", 1320, [1321, 1320, 1321, 1321]),
    (Auction, "/site/regions/asia/item[shipping]/description", 133, [573, 573, 573, 573]),
    (Auction, "/site/people/person/name", 850, [850, 850, 850, 850]),
    (Auction, "/site/open_auctions/open_auction/bidder/increase", 1120, [1120, 1120, 1120, 1120]),
    (Auction, "/site/open_auctions/open_auction[bidder/personref]/reserve", 275, [2205, 2205, 2205, 2205]),
    (Auction, "/site/closed_auctions/closed_auction/price", 480, [480, 480, 480, 480]),
    (Auction, "/site/regions//item", 1320, [1321, 1320, 1321, 1321]),
    (Auction, "//listitem", 4073, [4073, 4073, 4073, 4073]),
    (Auction, "//text", 4489, [4489, 4489, 4489, 4489]),
];

#[test]
fn elements_visited_are_pinned_for_fig10_and_query_mix() {
    let choices = [
        EngineChoice::rdbms().with_translator(Translator::PushUp),
        EngineChoice::rdbms().with_translator(Translator::Unfold),
        EngineChoice::twig().with_translator(Translator::PushUp),
        EngineChoice::twigstack().with_translator(Translator::PushUp),
    ];
    for dataset in [Shakespeare, Protein, Auction] {
        let db = BlasDb::load(&dataset.generate(1)).unwrap();
        for &(_, xpath, nodes, visited) in PINNED.iter().filter(|row| row.0 == dataset) {
            for (choice, want) in choices.iter().zip(visited) {
                let r = db.query(xpath, *choice).unwrap();
                assert_eq!(r.nodes.len(), nodes, "{xpath} under {choice:?}");
                assert_eq!(r.stats.elements_visited, want, "{xpath} under {choice:?}");
            }
        }
    }
}
