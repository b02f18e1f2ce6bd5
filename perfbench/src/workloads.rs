//! The workloads: set-up, the timed closed loop with answer checks,
//! and the end-to-end metrics. Traced runs hand over to
//! [`probes`] for the per-layer decomposition once the loop is over.

use crate::check::{self, Answer};
use crate::ops::{self, LookupStream, Rng, Script, ShuffleStream, WriteOp};
use crate::probes::{self, Metrics, ProbeInput};
use crate::stats::{self, median, percentile, ratio, Mark, Sampler};
use crate::trace::Tracer;
use crate::{program, BenchError, Config, Report};
use blas::{BlasDb, EngineChoice, ExecStats, PlanCacheStats, QueryResult};
use blas_server::{MuxClient, QueryReply, Server, ServerConfig, ServerStats};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket timeout of every benchmark client; a timed-out op counts as
/// failed.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Traced runs alternate blocks of this many ops with tracing on and
/// off, so one run measures what tracing costs.
const AB_BLOCK: u64 = 64;

/// Distinct lookup-mix and serve-mix lookups: well above the
/// plan-cache (1024) and result-cache (4096) caps, so a lookup has left
/// both caches before it recurs.
const LOOKUP_POOL: usize = 6144;

/// Class of an op for the tracing A/B: its op-table index for the
/// fixed queries, `LOOKUP_CLASS + template` for lookups.
const LOOKUP_CLASS: u16 = 100;

/// The server configuration every workload binds.
pub fn server_config(cfg: &Config) -> ServerConfig {
    let mut sc = ServerConfig::default();
    if let Some(n) = cfg.max_inflight {
        sc.max_inflight = n;
    }
    sc
}

fn traced_op(cfg: &Config, op: u64) -> bool {
    cfg.trace && (op / AB_BLOCK).is_multiple_of(2)
}

/// What the timed loop's client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Latency of each completed read, µs.
    pub lat_us: Vec<f64>,
    /// Each completed read's class.
    pub class: Vec<u16>,
    /// Whether each completed read was traced.
    pub traced: Vec<bool>,
    /// Latency of each acknowledged write, ms.
    pub write_ms: Vec<f64>,
    /// In-process reads: wall µs and execution counters (traced runs).
    pub exec: Vec<(f64, ExecStats)>,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// When each completed read finished, seconds into the loop.
    pub done_s: Vec<f64>,
    /// When each acknowledged write finished, seconds into the loop.
    pub write_done_s: Vec<f64>,
    /// The benchmark's own checks and twin replay: `(seconds into the
    /// loop, seconds spent)`.
    pub harness: Vec<(f64, f64)>,
}

impl ClientLog {
    fn read(&mut self, t0: Instant, lat: Duration, class: u16, traced: bool) {
        self.lat_us.push(lat.as_secs_f64() * 1e6);
        self.class.push(class);
        self.traced.push(traced);
        self.done_s.push(t0.elapsed().as_secs_f64());
    }

    /// Book the benchmark's own work that started at `since`.
    fn harness_since(&mut self, t0: Instant, since: Instant) {
        self.harness
            .push(((since - t0).as_secs_f64(), since.elapsed().as_secs_f64()));
    }
}

/// Set-up repeats at least `SETUP_MIN_REPS` times and for at least
/// `SETUP_MIN_S`, at most `SETUP_MAX_REPS` times, so `setup_s` is a
/// median of enough samples even when one set-up is quick.
const SETUP_MIN_REPS: usize = 5;
/// See [`SETUP_MIN_REPS`].
const SETUP_MIN_S: f64 = 2.0;
/// See [`SETUP_MIN_REPS`].
const SETUP_MAX_REPS: usize = 25;

/// Run `f` repeatedly (see [`SETUP_MIN_S`]), tearing the previous
/// set-up down before the next; returns the last set-up, every
/// duration, and the peak resident memory (MB) once the first set-up
/// is done — the memory the workload's databases and server need,
/// before repeated set-ups and the loop leave allocator growth behind.
fn set_up<S>(
    tracer: &mut Tracer,
    mut f: impl FnMut(&mut Tracer) -> Result<S, BenchError>,
) -> Result<(S, Vec<f64>, f64), BenchError> {
    let mut secs = Vec::with_capacity(SETUP_MIN_REPS);
    let mut state = None;
    let mut rss_mb = 0.0;
    while secs.len() < SETUP_MIN_REPS
        || (secs.iter().sum::<f64>() < SETUP_MIN_S && secs.len() < SETUP_MAX_REPS)
    {
        drop(state.take());
        let open = tracer.open("bench.setup", 0);
        let t0 = Instant::now();
        let s = f(tracer)?;
        secs.push(t0.elapsed().as_secs_f64());
        tracer.close(open);
        if secs.len() == 1 {
            rss_mb = peak_rss()?;
        }
        state = Some(s);
    }
    let state = state.ok_or_else(|| BenchError::Program("set-up never ran".into()))?;
    Ok((state, secs, rss_mb))
}

/// A reply before it is reduced for the check.
enum Raw {
    InProcess(QueryResult),
    Wire(QueryReply),
}

/// The closed loop of one caller issuing reads from `ops` until the
/// run's time is up, checking each answer against `expected`.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    cfg: &Config,
    epoch: Instant,
    t0: Instant,
    span: &'static str,
    ops: impl Iterator<Item = usize>,
    table: &[String],
    class: &[u16],
    expected: &[Answer],
    mut call: impl FnMut(&str) -> Result<Raw, String>,
) -> Result<(ClientLog, Tracer), BenchError> {
    let mut tracer = Tracer::new(false, epoch);
    let mut log = ClientLog::default();
    let limit = Duration::from_secs_f64(cfg.seconds);
    for (op, qi) in (0u64..).zip(ops) {
        if t0.elapsed() >= limit {
            break;
        }
        let traced = traced_op(cfg, op);
        tracer.set_on(traced);
        let open = tracer.open(span, op);
        let start = Instant::now();
        let raw = call(&table[qi]);
        let lat = start.elapsed();
        tracer.close(open);
        log.attempted += 1;
        let Ok(raw) = raw else {
            log.failed += 1;
            continue;
        };
        let h = Instant::now();
        let (got, generation) = match &raw {
            Raw::InProcess(r) => (Answer::of_labels(&r.nodes), "current".to_string()),
            Raw::Wire(r) => (Answer::of_triples(&r.nodes), r.generation.to_string()),
        };
        check::verify(&table[qi], generation, expected[qi], got)?;
        log.harness_since(t0, h);
        log.read(t0, lat, class[qi], traced);
        if let (true, Raw::InProcess(r)) = (cfg.trace, raw) {
            log.exec.push((lat.as_secs_f64() * 1e6, r.stats));
        }
    }
    Ok((log, tracer))
}

/// Median latency of traced minus untraced reads, per op class,
/// weighted by the smaller side's sample count.
fn trace_overhead_us(log: &ClientLog) -> f64 {
    let mut by_class: HashMap<u16, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for ((&lat, &c), &t) in log.lat_us.iter().zip(&log.class).zip(&log.traced) {
        let e = by_class.entry(c).or_default();
        if t {
            e.0.push(lat)
        } else {
            e.1.push(lat)
        }
    }
    let (mut sum, mut weight) = (0.0, 0.0);
    for (on, off) in by_class.values() {
        let w = on.len().min(off.len()) as f64;
        if w > 0.0 {
            sum += w * (median(on) - median(off));
            weight += w;
        }
    }
    ratio(sum, weight)
}

/// Peak resident memory so far, MB.
fn peak_rss() -> Result<f64, BenchError> {
    stats::peak_rss_mb()
        .ok_or_else(|| BenchError::Program("peak RSS unavailable (no /proc/self/status)".into()))
}

/// The metrics of set-up and of the stored data.
fn footprint(
    m: &mut Metrics,
    setup_secs: &[f64],
    rss_mb: f64,
    snapshot_bytes: usize,
    xml_bytes: usize,
) {
    m.insert("setup_s", median(setup_secs));
    m.insert(
        "bytes_per_xml_byte",
        snapshot_bytes as f64 / xml_bytes as f64,
    );
    m.insert("peak_rss_mb", rss_mb);
}

/// Loop windows are this long.
pub const WINDOW: Duration = Duration::from_secs(1);

/// The windowed metrics pool the samples of the loop's quiet windows:
/// every window in which the host stole at most `QUIET_STEAL` of the
/// machine's CPU time, and at least the `QUIET_SHARE` of windows with
/// the least stolen time. On a shared host, stolen time only ever slows
/// the program down, and it comes in bursts of seconds to minutes; the
/// quiet windows are the closest estimate of the program's own speed.
const QUIET_SHARE: f64 = 1.0 / 3.0;
/// See [`QUIET_SHARE`].
const QUIET_STEAL: f64 = 0.05;

/// The metrics of the timed loop, given the loop clock's readings.
/// Returns the windows' stolen share and the ones kept, as JSON for the
/// info line.
fn loop_metrics(m: &mut Metrics, marks: &[Mark], log: &ClientLog) -> String {
    // (start s, end s, share of the machine stolen, process CPU s) per
    // window; stolen time is counted in ticks, 100 per CPU-second.
    let capacity = 100.0 * stats::nproc() as f64;
    let windows: Vec<(f64, f64, f64, f64)> = marks
        .windows(2)
        .map(|w| {
            let stolen = ratio(w[1].steal - w[0].steal, capacity * (w[1].at_s - w[0].at_s));
            (w[0].at_s, w[1].at_s, stolen, w[1].cpu_s - w[0].cpu_s)
        })
        .collect();
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| windows[a].2.total_cmp(&windows[b].2).then(a.cmp(&b)));
    let calm = windows.iter().filter(|w| w.2 <= QUIET_STEAL).count();
    let keep = ((windows.len() as f64 * QUIET_SHARE).ceil() as usize)
        .max(calm)
        .clamp(1, windows.len().max(1));
    let mut quiet = order[..keep.min(order.len())].to_vec();
    quiet.sort_unstable();
    let inside = |t: f64| quiet.iter().any(|&i| windows[i].0 <= t && t < windows[i].1);
    let lat: Vec<f64> = log
        .lat_us
        .iter()
        .zip(&log.done_s)
        .filter(|&(_, &t)| inside(t))
        .map(|(&l, _)| l)
        .collect();
    let span: f64 = quiet.iter().map(|&i| windows[i].1 - windows[i].0).sum();
    let own: f64 = log
        .harness
        .iter()
        .filter(|&&(t, _)| inside(t))
        .map(|&(_, s)| s)
        .sum();
    let qps = ratio(lat.len() as f64, span - own);
    let ops = lat.len() + log.write_done_s.iter().filter(|&&t| inside(t)).count();
    let cpu_s: f64 = quiet.iter().map(|&i| windows[i].3).sum();
    m.insert("query_p50_us", percentile(&lat, 50.0));
    m.insert("query_p99_us", percentile(&lat, 99.0));
    m.insert("query_qps", qps);
    m.insert("cpu_us_per_op", ratio(cpu_s * 1e6, ops as f64));
    m.insert(
        "failed_frac",
        ratio(log.failed as f64, log.attempted as f64),
    );
    m.insert("bench.trace_overhead_us", trace_overhead_us(log));
    let list = |v: Vec<String>| v.join(", ");
    format!(
        "{{\"stolen_share\": [{}], \"quiet\": [{}], \"quiet_primary_reads\": {}}}",
        list(windows.iter().map(|w| crate::json_num(w.2)).collect()),
        list(quiet.iter().map(|i| i.to_string()).collect()),
        lat.len()
    )
}

fn plan_cache_metrics(m: &mut Metrics, before: PlanCacheStats, after: PlanCacheStats) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    m.insert("core.plan_cache_hit_rate", ratio(hits, hits + misses));
    m.insert(
        "core.plan_cache_evictions",
        (after.evictions - before.evictions) as f64,
    );
}

/// Result-cache and admission counters over an interval.
pub fn server_metrics(m: &mut Metrics, before: ServerStats, after: ServerStats) {
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    m.insert("server.result_cache_hit_rate", ratio(hits, hits + misses));
    m.insert(
        "server.result_cache_invalidated",
        (after.cache_invalidated - before.cache_invalidated) as f64,
    );
    m.insert(
        "server.overloaded",
        (after.overloaded - before.overloaded) as f64,
    );
}

/// A finished loop, ready for the report.
struct Outcome<'a> {
    m: Metrics,
    log: &'a ClientLog,
    setup_secs: Vec<f64>,
    /// The loop windows' stolen share and the quiet ones, as JSON.
    windows: String,
}

/// Assemble the report; traced runs also dump their spans.
fn finish(
    cfg: &Config,
    xml: &str,
    db: &BlasDb,
    out: Outcome,
    mut tracer: Tracer,
    loop_tracer: Tracer,
) -> Result<Report, BenchError> {
    let Outcome {
        m,
        log,
        setup_secs,
        windows,
    } = out;
    let mut report = Report {
        attempted: log.attempted,
        failed: log.failed,
        metrics: Report::select(cfg.trace, &m)?,
        info: Vec::new(),
    };
    let quote = |s: &str| format!("\"{s}\"");
    let json_reads = m.get("json_query_samples").copied().unwrap_or(0.0);
    let info = &mut report.info;
    info.push(("workload", quote(cfg.workload.name())));
    info.push(("data_seed", cfg.data_seed.to_string()));
    info.push(("op_seed", cfg.op_seed.to_string()));
    info.push(("seconds", crate::json_num(cfg.seconds)));
    info.push(("trace", cfg.trace.to_string()));
    info.push(("scale", cfg.scale().to_string()));
    info.push(("nodes", db.store().len().to_string()));
    info.push(("xml_bytes", xml.len().to_string()));
    info.push(("nproc", stats::nproc().to_string()));
    info.push(("pool_threads", db.pool().threads().to_string()));
    info.push((
        "final_peak_rss_mb",
        crate::json_num(stats::peak_rss_mb().unwrap_or(0.0)),
    ));
    info.push((
        "samples",
        format!(
            "{{\"query\": {}, \"json_query\": {json_reads}, \"write\": {}, \"setup\": {}}}",
            log.lat_us.len(),
            log.write_ms.len(),
            setup_secs.len()
        ),
    ));
    let mut by_class: std::collections::BTreeMap<u16, Vec<f64>> = std::collections::BTreeMap::new();
    for (&lat, &c) in log.lat_us.iter().zip(&log.class) {
        by_class.entry(c).or_default().push(lat);
    }
    let class_p50: Vec<String> = by_class
        .iter()
        .map(|(c, v)| format!("\"{c}\": [{}, {}]", crate::json_num(median(v)), v.len()))
        .collect();
    info.push(("class_p50_us", format!("{{{}}}", class_p50.join(", "))));
    let e2e: Vec<String> = crate::END_TO_END
        .iter()
        .filter_map(|&(name, _)| {
            m.get(name)
                .map(|v| format!("\"{name}\": {}", crate::json_num(*v)))
        })
        .collect();
    info.push(("loop", format!("{{{}}}", e2e.join(", "))));
    info.push(("windows", windows));
    if cfg.trace {
        tracer.absorb(loop_tracer);
        let path = cfg.out_dir.join(format!(
            "spans-{}-seed{}.tsv",
            cfg.workload.name(),
            cfg.op_seed
        ));
        tracer.write_tsv(&path)?;
        info.push(("spans", quote(&path.display().to_string())));
        let layers: Vec<String> = tracer
            .self_ms_by_layer()
            .into_iter()
            .map(|(layer, ms)| format!("\"{layer}\": {}", crate::json_num(ms)))
            .collect();
        info.push(("self_ms", format!("{{{}}}", layers.join(", "))));
    }
    Ok(report)
}

/// query-mix: the in-process library, one caller, ten queries.
pub fn query_mix(cfg: &Config, xml: &str) -> Result<Report, BenchError> {
    let queries: Vec<String> = ops::query_mix_queries()
        .into_iter()
        .map(String::from)
        .collect();
    let classes: Vec<u16> = (0..queries.len() as u16).collect();
    let auto = EngineChoice::auto();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, epoch);
    let (db, setup_secs, rss_mb) = set_up(&mut tracer, |tr| {
        let db = tr
            .span("core.load", 0, || BlasDb::load(xml))
            .map_err(program("load"))?;
        for q in &queries {
            tr.span("core.query", 0, || db.query(q, auto))
                .map_err(program(q))?;
        }
        Ok(Arc::new(db))
    })?;
    let mut expected = check::references(&db, &queries)?;
    if cfg.corrupt_expectation {
        expected[0] = expected[0].corrupted();
    }
    let snapshot_bytes = db.to_snapshot().len();

    let plan0 = db.plan_cache_stats();
    let stream = ShuffleStream::new(cfg.op_seed, queries.len());
    let t0 = Instant::now();
    let sampler = Sampler::start(t0, WINDOW);
    let (log, loop_tracer) = read_loop(
        cfg,
        epoch,
        t0,
        "core.query",
        stream,
        &queries,
        &classes,
        &expected,
        |q| {
            db.query(q, auto)
                .map(Raw::InProcess)
                .map_err(|e| e.to_string())
        },
    )?;
    let (plan1, marks) = (db.plan_cache_stats(), sampler.finish());

    let mut m = Metrics::new();
    footprint(&mut m, &setup_secs, rss_mb, snapshot_bytes, xml.len());
    let windows = loop_metrics(&mut m, &marks, &log);
    if cfg.trace {
        plan_cache_metrics(&mut m, plan0, plan1);
        probes::engine_profile(&mut m, &log.exec);
        let replay: Vec<usize> = ShuffleStream::new(cfg.op_seed, queries.len())
            .take(1000)
            .collect();
        let input = ProbeInput {
            cfg,
            xml,
            db: &db,
            server: None,
            ops: &queries,
            replay,
            engine_replay: false,
            write_latency: true,
        };
        probes::run(&input, &mut m, &mut tracer)?;
    }
    let out = Outcome {
        m,
        log: &log,
        setup_secs,
        windows,
    };
    finish(cfg, xml, &db, out, tracer, loop_tracer)
}

/// lookup-mix and serve-mix: a mapped snapshot of Auction ×10 asked
/// hot queries plus cache-missing point lookups by one caller —
/// in-process (lookup-mix) or through `blas-server` and a binary
/// `MuxClient` (serve-mix, `over_wire`).
pub fn lookup_mix(cfg: &Config, xml: &str, over_wire: bool) -> Result<Report, BenchError> {
    let hot = ops::hot_queries();
    let pool = ops::lookup_pool(cfg.scale(), cfg.op_seed, LOOKUP_POOL);
    let mut table: Vec<String> = hot.iter().map(|q| q.to_string()).collect();
    let mut classes: Vec<u16> = (0..hot.len() as u16).collect();
    for (template, q) in pool {
        table.push(q);
        classes.push(LOOKUP_CLASS + template as u16);
    }
    let auto = EngineChoice::auto();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, epoch);
    let mut owned: Option<BlasDb> = None;
    let mut snapshot_bytes = 0;
    let mut snap_files = Vec::new();
    let (served, setup_secs, rss_mb) = set_up(&mut tracer, |tr| {
        owned = None;
        // A fresh file per set-up: the previous mapping may not be
        // gone yet, and a mapped file must not change under it.
        let path = cfg.out_dir.join(format!(
            "{}-{}-{}.snap",
            cfg.workload.name(),
            std::process::id(),
            snap_files.len()
        ));
        snap_files.push(path.clone());
        let db = tr
            .span("core.load", 0, || BlasDb::load(xml))
            .map_err(program("load"))?;
        let bytes = tr.span("core.to_snapshot", 0, || db.to_snapshot());
        tr.span("bench.write_snapshot", 0, || std::fs::write(&path, &bytes))?;
        let mapped = tr
            .span("core.open_mapped", 0, || BlasDb::open_mapped(&path))
            .map_err(program("open_mapped"))?;
        let mapped = Arc::new(mapped);
        let wire = if over_wire {
            let server = tr
                .span("server.bind", 0, || {
                    Server::bind(Arc::clone(&mapped), "127.0.0.1:0", server_config(cfg))
                })
                .map_err(program("bind"))?;
            let mux = MuxClient::connect(server.local_addr(), Some(CLIENT_TIMEOUT))
                .map_err(program("connect"))?;
            Some((mux, server))
        } else {
            None
        };
        // The warm pass fills the caches; a refused wire op here is not
        // fatal (the loop counts refusals).
        for q in &hot {
            match &wire {
                Some((mux, _)) => {
                    let _ = tr.span("server.query", 0, || mux.query(q, "auto"));
                }
                None => {
                    tr.span("core.query", 0, || mapped.query(q, auto))
                        .map_err(program(q))?;
                }
            }
        }
        snapshot_bytes = bytes.len();
        owned = Some(db);
        // The client and server come first so they drop before the
        // database.
        Ok((wire, mapped))
    })?;
    let owned = owned.ok_or_else(|| BenchError::Program("set-up left no database".into()))?;
    let mut expected = check::references(&owned, &table)?;
    drop(owned);
    if cfg.corrupt_expectation {
        expected[0] = expected[0].corrupted();
    }

    let (wire, db) = served;
    let lookups: Vec<usize> = (hot.len()..table.len()).collect();
    let stream = LookupStream::new(cfg.op_seed, hot.len(), lookups.clone());
    let (server0, plan0) = (wire.as_ref().map(|(_, s)| s.stats()), db.plan_cache_stats());
    let t0 = Instant::now();
    let sampler = Sampler::start(t0, WINDOW);
    let (log, loop_tracer) = match &wire {
        Some((mux, _)) => read_loop(
            cfg,
            epoch,
            t0,
            "server.query",
            stream,
            &table,
            &classes,
            &expected,
            |q| {
                mux.query(q, "auto")
                    .map(Raw::Wire)
                    .map_err(|e| e.to_string())
            },
        )?,
        None => read_loop(
            cfg,
            epoch,
            t0,
            "core.query",
            stream,
            &table,
            &classes,
            &expected,
            |q| {
                db.query(q, auto)
                    .map(Raw::InProcess)
                    .map_err(|e| e.to_string())
            },
        )?,
    };
    let (plan1, marks) = (db.plan_cache_stats(), sampler.finish());

    let mut m = Metrics::new();
    footprint(&mut m, &setup_secs, rss_mb, snapshot_bytes, xml.len());
    let windows = loop_metrics(&mut m, &marks, &log);
    if cfg.trace {
        plan_cache_metrics(&mut m, plan0, plan1);
        if let (Some((_, server)), Some(before)) = (&wire, server0) {
            server_metrics(&mut m, before, server.stats());
        } else {
            probes::engine_profile(&mut m, &log.exec);
        }
        let input = ProbeInput {
            cfg,
            xml,
            db: &db,
            server: wire.as_ref().map(|(_, s)| s),
            ops: &table,
            replay: LookupStream::new(cfg.op_seed, hot.len(), lookups)
                .take(2000)
                .collect(),
            engine_replay: over_wire,
            write_latency: true,
        };
        probes::run(&input, &mut m, &mut tracer)?;
    }
    if let Some((mux, server)) = wire {
        drop(mux);
        server.shutdown();
    }
    let out = Outcome {
        m,
        log: &log,
        setup_secs,
        windows,
    };
    let report = finish(cfg, xml, &db, out, tracer, loop_tracer);
    drop(db);
    for f in snap_files {
        let _ = std::fs::remove_file(f);
    }
    report
}

/// The twin database: replays every acknowledged write and answers
/// what each read should have returned.
struct Twin {
    db: BlasDb,
    script: Script,
    /// Writes applied so far.
    writes: u64,
    /// `(generation the write published, writes applied)` per write.
    acks: Vec<(u64, u64)>,
    /// Reference answers at the current state, per hot query.
    answers: HashMap<usize, Answer>,
    /// Self-test hook: falsify the next reference answer.
    corrupt_next: bool,
}

impl Twin {
    /// Check a read stamped with `generation` against the twin's state
    /// after the writes acknowledged up to that generation.
    fn check(
        &mut self,
        qi: usize,
        query: &str,
        generation: u64,
        got: Answer,
    ) -> Result<(), BenchError> {
        let seen = self.acks.partition_point(|&(g, _)| g <= generation);
        let seen_writes = if seen == 0 { 0 } else { self.acks[seen - 1].1 };
        let stamp = format!("{generation} (twin generation {})", self.db.generation());
        if seen_writes != self.writes {
            return Err(BenchError::Program(format!(
                "read of {query:?} stamped generation {stamp}, before the last acknowledged write"
            )));
        }
        let expected = match self.answers.get(&qi) {
            Some(&a) => a,
            None => {
                let mut a = check::reference(&self.db, query)?;
                if std::mem::take(&mut self.corrupt_next) {
                    a = a.corrupted();
                }
                self.answers.insert(qi, a);
                a
            }
        };
        check::verify(query, stamp, expected, got)
    }

    /// Replay an acknowledged write.
    fn apply(
        &mut self,
        op: &WriteOp,
        generation: u64,
        tracer: &mut Tracer,
        id: u64,
    ) -> Result<(), BenchError> {
        tracer
            .span("core.twin_write", id, || op.apply(&self.db))
            .map_err(program("twin write"))?;
        self.script.applied(op, &self.db)?;
        self.writes += 1;
        self.acks.push((generation, self.writes));
        self.answers.clear();
        Ok(())
    }
}

/// read-write: the in-process library on Auction ×2, as an embedding
/// application uses it: one caller, one write in twenty ops, background
/// compaction every fifty writes.
pub fn read_write(cfg: &Config, xml: &str) -> Result<Report, BenchError> {
    let hot: Vec<String> = ops::hot_queries().into_iter().map(String::from).collect();
    let auto = EngineChoice::auto();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, epoch);
    let (db, setup_secs, rss_mb) = set_up(&mut tracer, |tr| {
        let db = tr
            .span("core.load", 0, || BlasDb::load(xml))
            .map_err(program("load"))?;
        for q in &hot {
            tr.span("core.query", 0, || db.query(q, auto))
                .map_err(program(q))?;
        }
        Ok(Arc::new(db))
    })?;
    let snapshot_bytes = db.to_snapshot().len();
    let twin_db = BlasDb::load(xml).map_err(program("twin load"))?;
    let script = Script::new(&twin_db)?;
    let mut twin = Twin {
        db: twin_db,
        script,
        writes: 0,
        acks: Vec::new(),
        answers: HashMap::new(),
        corrupt_next: cfg.corrupt_expectation,
    };

    let plan0 = db.plan_cache_stats();
    let mut log = ClientLog::default();
    let mut rng = Rng::new(cfg.op_seed, 7);
    let mut loop_tracer = Tracer::new(false, epoch);
    let limit = Duration::from_secs_f64(cfg.seconds);
    let t0 = Instant::now();
    let sampler = Sampler::start(t0, WINDOW);
    for op in 0u64.. {
        if t0.elapsed() >= limit {
            break;
        }
        let traced = traced_op(cfg, op);
        loop_tracer.set_on(traced);
        log.attempted += 1;
        if op % ops::WRITE_EVERY == ops::WRITE_EVERY - 1 {
            let w = twin.script.next_op();
            let span = match w.kind() {
                "insert" => "core.insert_subtree",
                "retag" => "core.retag",
                _ => "core.delete",
            };
            let open = loop_tracer.open(span, op);
            let start = Instant::now();
            let r = w.apply(&db);
            let lat = start.elapsed();
            loop_tracer.close(open);
            let Ok(generation) = r else {
                log.failed += 1;
                continue;
            };
            log.write_ms.push(lat.as_secs_f64() * 1e3);
            log.write_done_s.push(t0.elapsed().as_secs_f64());
            let h = Instant::now();
            twin.apply(&w, generation, &mut loop_tracer, op)?;
            if twin.writes.is_multiple_of(ops::COMPACT_EVERY) {
                // The embedding application compacts; the twin follows
                // so its own delta stays small.
                loop_tracer.span("core.compact_in_background", op, || {
                    db.compact_in_background()
                });
                loop_tracer.span("core.twin_compact", op, || twin.db.compact());
            }
            log.harness_since(t0, h);
        } else {
            let qi = rng.below(hot.len());
            let open = loop_tracer.open("core.query", op);
            let start = Instant::now();
            // A pinned snapshot stamps the read with its generation.
            let pinned = db.snapshot();
            let r = pinned.query(&hot[qi], auto);
            let lat = start.elapsed();
            loop_tracer.close(open);
            let Ok(result) = r else {
                log.failed += 1;
                continue;
            };
            let h = Instant::now();
            twin.check(
                qi,
                &hot[qi],
                pinned.generation(),
                Answer::of_labels(&result.nodes),
            )?;
            log.harness_since(t0, h);
            log.read(t0, lat, qi as u16, traced);
            if cfg.trace {
                log.exec.push((lat.as_secs_f64() * 1e6, result.stats));
            }
        }
    }
    let (plan1, marks) = (db.plan_cache_stats(), sampler.finish());

    let mut m = Metrics::new();
    footprint(&mut m, &setup_secs, rss_mb, snapshot_bytes, xml.len());
    let windows = loop_metrics(&mut m, &marks, &log);
    if cfg.trace {
        plan_cache_metrics(&mut m, plan0, plan1);
        probes::engine_profile(&mut m, &log.exec);
        m.insert("write_p50_ms", percentile(&log.write_ms, 50.0));
        m.insert("write_p95_ms", percentile(&log.write_ms, 95.0));
        let mut replay_rng = Rng::new(cfg.op_seed, 7);
        let input = ProbeInput {
            cfg,
            xml,
            db: &db,
            server: None,
            ops: &hot,
            replay: (0..2000).map(|_| replay_rng.below(hot.len())).collect(),
            engine_replay: false,
            write_latency: false,
        };
        probes::run(&input, &mut m, &mut tracer)?;
    }
    let out = Outcome {
        m,
        log: &log,
        setup_secs,
        windows,
    };
    finish(cfg, xml, &db, out, tracer, loop_tracer)
}
