//! Per-layer decomposition for traced runs. Every probe runs after the
//! timed loop — on the workload's own database and server, or on a
//! freshly built twin — so it never changes the loop's cache state.
//! Each call into a layer is timed from outside, through that layer's
//! public function, and recorded as a span.

use crate::check::{self, Answer};
use crate::ops::{self, Script};
use crate::stats::{mean, median, median_secs, percentile, ratio, timed};
use crate::trace::Tracer;
use crate::workloads::{server_config, server_metrics, CLIENT_TIMEOUT};
use crate::{program, BenchError, Config};
use blas::{BlasDb, EngineChoice, ExecStats, NodeStore, Translator};
use blas_engine::stjoin::{structural_match_into, JoinScratch};
use blas_server::wire::{decode_response, encode_response};
use blas_server::{json, Client, Json, MuxClient, Proto, Request, Server};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything measured in a run, by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Repetitions of the kernel and round-trip timings (medians).
const REPS: usize = 21;
/// Round trips per `stats`/envelope sample set.
const RTT_REPS: usize = 200;
/// Distinct op strings the planning probe visits at most.
const PLAN_SAMPLE: usize = 512;
/// Writes the write probe issues (insert, retag, delete in turn).
const PROBE_WRITES: usize = 12;
/// Reads the JSON replay issues, within at most `JSON_REPLAY_MAX`
/// (query-mix's heavy replies take milliseconds each as JSON text).
const JSON_REPLAY: usize = 1000;
/// See [`JSON_REPLAY`].
const JSON_REPLAY_MAX: Duration = Duration::from_secs(5);

/// What the probes need from a workload.
pub struct ProbeInput<'a> {
    /// The run's settings.
    pub cfg: &'a Config,
    /// The generated document.
    pub xml: &'a str,
    /// The workload's database.
    pub db: &'a Arc<BlasDb>,
    /// The workload's server, if it has one.
    pub server: Option<&'a Server>,
    /// The workload's op table (distinct read strings; the hot queries
    /// first).
    pub ops: &'a [String],
    /// A prefix of the workload's read stream, as op-table indices.
    pub replay: Vec<usize>,
    /// Profile the engine by replaying `replay` in-process (the loop
    /// ran over the wire).
    pub engine_replay: bool,
    /// Take `write_*` from the write probe (the loop had no writes).
    pub write_latency: bool,
}

/// Run every probe and add its metrics to `m`.
pub fn run(p: &ProbeInput, m: &mut Metrics, tr: &mut Tracer) -> Result<(), BenchError> {
    let mut refs = References {
        db: p.db,
        answers: HashMap::new(),
    };
    server_probe(p, &mut refs, m, tr)?;
    if p.engine_replay {
        let samples = engine_replay(p, &mut refs, tr)?;
        engine_profile(m, &samples);
    }
    planning(p, m, tr)?;
    let fresh = setup_layers(p, m, tr)?;
    write_probe(p, &fresh, m, tr)
}

/// Reference answers on the workload's database, computed on first
/// use, for checking probe replies.
struct References<'a> {
    db: &'a BlasDb,
    answers: HashMap<usize, Answer>,
}

impl References<'_> {
    fn check(&mut self, qi: usize, query: &str, got: Answer) -> Result<(), BenchError> {
        let expected = match self.answers.get(&qi) {
            Some(&a) => a,
            None => {
                let a = check::reference(self.db, query)?;
                self.answers.insert(qi, a);
                a
            }
        };
        check::verify(query, self.db.generation(), expected, got)
    }
}

/// `engine.*` and `core.query_overhead_us` from in-process reads:
/// `(wall µs, execution counters)` per read.
pub fn engine_profile(m: &mut Metrics, samples: &[(f64, ExecStats)]) {
    let exec: Vec<f64> = samples
        .iter()
        .map(|(_, s)| s.elapsed.as_secs_f64() * 1e6)
        .collect();
    let overhead: Vec<f64> = samples
        .iter()
        .zip(&exec)
        .map(|((wall, _), e)| wall - e)
        .collect();
    let wall: f64 = samples.iter().map(|(w, _)| w).sum();
    let per_op =
        |f: fn(&ExecStats) -> f64| mean(&samples.iter().map(|(_, s)| f(s)).collect::<Vec<_>>());
    let (hits, checkouts) = samples.iter().fold((0, 0), |(h, c), (_, s)| {
        (h + s.scratch_hits, c + s.scratch_checkouts)
    });
    m.insert("engine.exec_p50_us", percentile(&exec, 50.0));
    m.insert("engine.exec_p99_us", percentile(&exec, 99.0));
    m.insert("engine.exec_share", ratio(exec.iter().sum(), wall));
    m.insert(
        "engine.elements_visited_per_op",
        per_op(|s| s.elements_visited as f64),
    );
    m.insert(
        "engine.join_input_tuples_per_op",
        per_op(|s| s.join_input_tuples as f64),
    );
    m.insert("engine.d_joins_per_op", per_op(|s| f64::from(s.d_joins)));
    m.insert(
        "engine.scratch_hit_rate",
        ratio(hits as f64, checkouts as f64),
    );
    m.insert("core.query_overhead_us", median(&overhead));
}

/// The wire workloads' reads, replayed in-process on the same database.
fn engine_replay(
    p: &ProbeInput,
    refs: &mut References,
    tr: &mut Tracer,
) -> Result<Vec<(f64, ExecStats)>, BenchError> {
    let mut samples = Vec::with_capacity(p.replay.len());
    for &qi in &p.replay {
        let q = &p.ops[qi];
        let (r, secs) = timed(|| tr.span("core.query", 0, || p.db.query(q, EngineChoice::auto())));
        let r = r.map_err(program(q))?;
        refs.check(qi, q, Answer::of_labels(&r.nodes))?;
        samples.push((secs * 1e6, r.stats));
    }
    Ok(samples)
}

/// Round trips, the envelope around an in-process query, the codecs,
/// and JSON reads (a replay of the op stream; no loop has a JSON
/// client). Query-mix has no server, so one is bound here and its
/// cache counters come from this probe.
fn server_probe(
    p: &ProbeInput,
    refs: &mut References,
    m: &mut Metrics,
    tr: &mut Tracer,
) -> Result<(), BenchError> {
    let bound;
    let server = match p.server {
        Some(s) => s,
        None => {
            bound = Server::bind(Arc::clone(p.db), "127.0.0.1:0", server_config(p.cfg))
                .map_err(program("bind"))?;
            &bound
        }
    };
    let before = server.stats();
    let addr = server.local_addr();
    let mux = MuxClient::connect(addr, Some(CLIENT_TIMEOUT)).map_err(program("connect"))?;
    let mut js = Client::connect_with(addr, Some(CLIENT_TIMEOUT), Proto::Json)
        .map_err(program("connect"))?;

    mux.stats().map_err(program("stats"))?;
    js.stats().map_err(program("stats"))?;
    let bin_rtt = median_secs(RTT_REPS, || tr.span("server.stats", 0, || mux.stats()));
    let json_rtt = median_secs(RTT_REPS, || tr.span("server.stats", 0, || js.stats()));
    m.insert("server.stats_rtt_bin_us", bin_rtt * 1e6);
    m.insert("server.stats_rtt_json_us", json_rtt * 1e6);

    let hot = &p.ops[0];
    let auto = EngineChoice::auto();
    let reply = mux.query(hot, "auto").map_err(program(hot))?;
    refs.check(0, hot, Answer::of_triples(&reply.nodes))?;
    let wire = median_secs(RTT_REPS, || {
        tr.span("server.query", 0, || mux.query(hot, "auto"))
    });
    let local = median_secs(RTT_REPS, || {
        tr.span("core.query", 0, || p.db.query(hot, auto))
    });
    m.insert("server.envelope_us", (wire - local) * 1e6);

    let codec_q = &p.ops[ops::CODEC_QUERY];
    let req = Request::Query {
        db: String::new(),
        xpath: codec_q.clone(),
        engine: "auto".into(),
        labels: true,
        cache: true,
        hold_ms: None,
    };
    let resp = mux.conn().call(&req).map_err(program(codec_q))?;
    let bin_codec = median_secs(REPS, || {
        tr.span("server.bin_codec", 0, || {
            let mut out = Vec::new();
            encode_response(1, &resp, &mut out);
            decode_response(&out).map(|(sid, _)| sid)
        })
    });
    let json_codec = median_secs(REPS, || {
        tr.span("server.json_codec", 0, || {
            json::parse(&resp.to_json(&Json::uint(1)).to_string()).is_ok()
        })
    });
    m.insert("server.bin_codec_us", bin_codec * 1e6);
    m.insert("server.json_codec_us", json_codec * 1e6);

    let mut lat = Vec::with_capacity(JSON_REPLAY);
    let start = Instant::now();
    for &qi in p.replay.iter().take(JSON_REPLAY) {
        if start.elapsed() > JSON_REPLAY_MAX {
            break;
        }
        let q = &p.ops[qi];
        let (r, secs) = timed(|| tr.span("server.query", 0, || js.query(q, "auto")));
        let r = r.map_err(program(q))?;
        refs.check(qi, q, Answer::of_triples(&r.nodes))?;
        lat.push(secs * 1e6);
    }
    m.insert("json_query_p50_us", percentile(&lat, 50.0));
    m.insert("json_query_p99_us", percentile(&lat, 99.0));
    m.insert("json_query_samples", lat.len() as f64);
    if p.server.is_none() {
        server_metrics(m, before, server.stats());
    }
    drop(mux);
    drop(js);
    Ok(())
}

/// Parse, plan (Unfold) and prepare (`auto`, cold plan cache) over the
/// workload's distinct op strings, each net of the stages before it.
fn planning(p: &ProbeInput, m: &mut Metrics, tr: &mut Tracer) -> Result<(), BenchError> {
    let mut sample: Vec<&str> = p.ops.iter().map(String::as_str).collect();
    if sample.len() > PLAN_SAMPLE {
        let hot = ops::hot_queries().len();
        ops::Rng::new(p.cfg.op_seed, 0x200).shuffle(&mut sample[hot..]);
        sample.truncate(PLAN_SAMPLE);
    }
    let db = p.db;
    let auto = EngineChoice::auto();
    let (mut parse_us, mut plan_us, mut prep_us) = (Vec::new(), Vec::new(), Vec::new());
    for q in sample {
        db.plan(q, Translator::Unfold).map_err(program(q))?;
        let parse = median_secs(3, || tr.span("xpath.parse", 0, || blas_xpath::parse(q)));
        let plan = median_secs(3, || {
            tr.span("core.plan", 0, || db.plan(q, Translator::Unfold))
        });
        let prepare = median_secs(3, || {
            db.clear_plan_cache();
            tr.span("core.plan_info", 0, || db.plan_info(q, auto))
        });
        parse_us.push(parse * 1e6);
        plan_us.push((plan - parse) * 1e6);
        prep_us.push((prepare - plan) * 1e6);
    }
    m.insert("xpath.parse_us", mean(&parse_us));
    m.insert("translate.plan_us", mean(&plan_us));
    m.insert("engine.prepare_us", mean(&prep_us));
    Ok(())
}

/// Median ns per element of a P-label range scan and a tag scan.
fn scan_ns(store: &NodeStore, p1: u128, p2: u128, tag: blas_xml::TagId) -> (f64, f64) {
    let range_elems: usize = store.scan_plabel_range(p1, p2).map(|r| r.len()).sum();
    let range = median_secs(REPS, || {
        store
            .scan_plabel_range(p1, p2)
            .fold(0u64, |acc, run| acc.wrapping_add(run.sum_starts()))
    });
    let tag_elems = store.scan_tag(tag).len();
    let tag_scan = median_secs(REPS, || store.scan_tag(tag).sum_starts());
    (
        range * 1e9 / range_elems.max(1) as f64,
        tag_scan * 1e9 / tag_elems.max(1) as f64,
    )
}

/// Load decomposed into parse, label and build; snapshot and mapped
/// open; scans on owned and packed columns; the structural-join
/// kernel. Returns a freshly built database for the write probe.
fn setup_layers(p: &ProbeInput, m: &mut Metrics, tr: &mut Tracer) -> Result<BlasDb, BenchError> {
    let (doc, s) = timed(|| tr.span("xml.parse", 0, || blas_xml::Document::parse(p.xml)));
    let doc = doc.map_err(program("parse"))?;
    m.insert("xml.parse_s", s);
    let (labels, s) =
        timed(|| tr.span("labeling.label", 0, || blas_labeling::label_document(&doc)));
    let labels = labels.map_err(program("label"))?;
    m.insert("labeling.label_s", s);
    let (owned, s) = timed(|| tr.span("storage.build", 0, || NodeStore::build(&doc, &labels)));
    m.insert("storage.build_s", s);
    drop(labels);
    let fresh = BlasDb::from_document(doc).map_err(program("from_document"))?;

    let (bytes, s) = timed(|| tr.span("core.to_snapshot", 0, || fresh.to_snapshot()));
    m.insert("storage.snapshot_s", s);
    let path = p
        .cfg
        .out_dir
        .join(format!("probe-{}.snap", std::process::id()));
    std::fs::write(&path, &bytes)?;
    drop(bytes);
    BlasDb::open_mapped(&path).map_err(program("open_mapped"))?;
    let open = median_secs(5, || {
        tr.span("core.open_mapped", 0, || BlasDb::open_mapped(&path))
    });
    m.insert("storage.open_mapped_ms", open * 1e3);
    let mapped = BlasDb::open_mapped(&path).map_err(program("open_mapped"))?;

    let tags = fresh.tags();
    let tag = |name: &str| {
        tags.get(name)
            .ok_or_else(|| BenchError::Program(format!("no tag {name}")))
    };
    let (listitem, item, description) = (tag("listitem")?, tag("item")?, tag("description")?);
    let iv = fresh
        .domain()
        .path_interval(false, &[listitem])
        .map_err(program("interval"))?;
    let (range, tag_scan) = tr.span("storage.scan", 0, || scan_ns(&owned, iv.p1, iv.p2, item));
    m.insert("storage.range_scan_ns_per_elem", range);
    m.insert("storage.tag_scan_ns_per_elem", tag_scan);
    let (range, tag_scan) = tr.span("storage.scan", 0, || {
        scan_ns(mapped.store(), iv.p1, iv.p2, item)
    });
    m.insert("storage.packed_range_scan_ns_per_elem", range);
    m.insert("storage.packed_tag_scan_ns_per_elem", tag_scan);
    drop(mapped);
    let _ = std::fs::remove_file(&path);

    let (mut anc, mut desc) = (Vec::new(), Vec::new());
    owned.scan_tag(item).decode_labels_into(&mut anc);
    owned.scan_tag(description).decode_labels_into(&mut desc);
    let mut scratch = JoinScratch::default();
    let join = median_secs(REPS, || {
        tr.span("engine.structural_match", 0, || {
            structural_match_into(&anc, &desc, None, &mut scratch);
            scratch.pairs
        })
    });
    m.insert(
        "engine.stjoin_ns_per_elem",
        join * 1e9 / (anc.len() + desc.len()).max(1) as f64,
    );
    Ok(fresh)
}

/// The write script on a freshly built database: per-kind write
/// latency, the first Unfold plan after a publish, the scan cost of the
/// resulting delta, and compaction.
fn write_probe(
    p: &ProbeInput,
    fresh: &BlasDb,
    m: &mut Metrics,
    tr: &mut Tracer,
) -> Result<(), BenchError> {
    let probe_q = ops::hot_queries()[3];
    fresh
        .plan(probe_q, Translator::Unfold)
        .map_err(program(probe_q))?;
    let mut script = Script::new(fresh)?;
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut all, mut first_plan) = (Vec::new(), Vec::new());
    for i in 0..PROBE_WRITES {
        let w = script.next_op();
        let span = match w.kind() {
            "insert" => "core.insert_subtree",
            "retag" => "core.retag",
            _ => "core.delete",
        };
        let (r, s) = timed(|| tr.span(span, 0, || w.apply(fresh)));
        r.map_err(program("probe write"))?;
        by_kind.entry(w.kind()).or_default().push(s * 1e3);
        all.push(s * 1e3);
        if i < 3 {
            let (r, s) =
                timed(|| tr.span("core.plan", 0, || fresh.plan(probe_q, Translator::Unfold)));
            r.map_err(program(probe_q))?;
            first_plan.push(s * 1e3);
        }
        script.applied(&w, fresh)?;
    }
    let kind = |k: &str| by_kind.get(k).map_or(0.0, |v| median(v));
    m.insert("core.insert_ms", kind("insert"));
    m.insert("core.retag_ms", kind("retag"));
    m.insert("core.delete_ms", kind("delete"));
    m.insert("core.first_plan_after_publish_ms", median(&first_plan));
    if p.write_latency {
        m.insert("write_p50_ms", percentile(&all, 50.0));
        m.insert("write_p95_ms", percentile(&all, 95.0));
    }

    let tags = fresh.tags();
    let listitem = tags
        .get("listitem")
        .ok_or_else(|| BenchError::Program("no tag listitem".into()))?;
    let iv = fresh
        .domain()
        .path_interval(false, &[listitem])
        .map_err(program("interval"))?;
    let pinned = fresh.snapshot();
    let layered = pinned.store();
    let plain = layered.without_delta();
    let scan = |st: &NodeStore| {
        median_secs(REPS, || {
            st.scan_plabel_range(iv.p1, iv.p2)
                .fold(0u64, |a, r| a.wrapping_add(r.sum_starts()))
        })
    };
    let (with_delta, without) = tr.span("storage.scan", 0, || (scan(layered), scan(&plain)));
    m.insert("storage.delta_scan_ratio", ratio(with_delta, without));
    drop(plain);
    drop(pinned);

    let (_, s) = timed(|| tr.span("core.compact", 0, || fresh.compact()));
    m.insert("core.compact_ms", s * 1e3);
    Ok(())
}
