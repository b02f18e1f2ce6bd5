//! # perfbench — the BLAS workspace's end-to-end and per-layer benchmark
//!
//! One command runs one workload against the public API of the
//! workspace crates, checks every answer, and prints one JSON result
//! line (see `main.rs` for the command line). Closed-loop workloads
//! with one caller over the XMark-shaped Auction data of
//! `blas-datagen`:
//!
//! * [`Workload::QueryMix`] — the in-process library on Auction ×10:
//!   ten Fig. 10 / XMark / heavy suffix-path queries under
//!   `EngineChoice::auto()`, warm plan cache.
//! * [`Workload::LookupMix`] — the in-process library on a mapped v3
//!   snapshot of Auction ×10: 80% hot queries, 20% distinct point
//!   lookups that miss the plan cache.
//! * [`Workload::ReadWrite`] — the in-process library on Auction ×2:
//!   one write in twenty ops, background compaction every 50 writes,
//!   every read checked against a twin database.
//! * [`Workload::ServeMix`] — lookup-mix through `blas-server` over
//!   loopback TCP and a binary `MuxClient`.
//!
//! `BENCHMARK.json` gates query-mix and lookup-mix; read-write and
//! serve-mix run the same way but spread too far from run to run on a
//! shared 2-vCPU host to gate on (see `GLOSSARY.md`).
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics of
//! [`END_TO_END`]; traced runs (`--trace 1`) record spans around every
//! call the benchmark makes into a layer and report [`PER_LAYER`]. The
//! glossary (`perfbench/GLOSSARY.md`) defines every metric.

pub mod check;
pub mod ops;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt;
use std::path::PathBuf;

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process library, Auction ×10, one caller.
    QueryMix,
    /// In-process library on a mapped snapshot, Auction ×10, one
    /// caller, hot queries plus cache-missing lookups.
    LookupMix,
    /// Server over a mapped snapshot, Auction ×10, one binary client.
    ServeMix,
    /// In-process library, Auction ×2, one caller, 5% writes.
    ReadWrite,
}

impl Workload {
    /// Every workload perfbench runs.
    pub const ALL: [Workload; 4] = [
        Workload::QueryMix,
        Workload::LookupMix,
        Workload::ReadWrite,
        Workload::ServeMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryMix => "query-mix",
            Workload::LookupMix => "lookup-mix",
            Workload::ServeMix => "serve-mix",
            Workload::ReadWrite => "read-write",
        }
    }

    /// Auction scale factor the workload is defined at.
    pub fn default_scale(self) -> u32 {
        match self {
            Workload::QueryMix | Workload::LookupMix | Workload::ServeMix => 10,
            Workload::ReadWrite => 2,
        }
    }
}

impl std::str::FromStr for Workload {
    type Err = BenchError;

    fn from_str(s: &str) -> Result<Self, BenchError> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| BenchError::Usage(format!("unknown workload {s:?}")))
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of the generated Auction document.
    pub data_seed: u64,
    /// Seed of the op stream (query order, lookups, writes).
    pub op_seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Auction scale; `None` takes the workload's own.
    pub scale: Option<u32>,
    /// Directory for the snapshot file and the span dump.
    pub out_dir: PathBuf,
    /// Self-test hook: falsify one expected answer, which must abort
    /// the run.
    pub corrupt_expectation: bool,
    /// Self-test hook: the server's admission bound (`None` keeps the
    /// `ServerConfig` default).
    pub max_inflight: Option<usize>,
}

impl Config {
    /// Defaults for `workload` with one seed for data and ops.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            data_seed: seed,
            op_seed: seed,
            seconds,
            trace,
            scale: None,
            out_dir: PathBuf::from(".bench_out"),
            corrupt_expectation: false,
            max_inflight: None,
        }
    }

    /// The Auction scale this run uses.
    pub fn scale(&self) -> u32 {
        self.scale.unwrap_or(self.workload.default_scale())
    }
}

/// Why a run stopped without a result.
#[derive(Debug)]
pub enum BenchError {
    /// A reply disagreed with its expected answer.
    Mismatch {
        /// The query text.
        query: String,
        /// The generation the answer was computed against.
        generation: String,
        /// The reference answer.
        expected: check::Answer,
        /// The program's answer.
        got: check::Answer,
    },
    /// The program failed where the benchmark cannot continue
    /// (set-up, the reference engine, the twin database).
    Program(String),
    /// File-system trouble writing the snapshot or the span dump.
    Io(std::io::Error),
    /// A bad command line.
    Usage(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Mismatch { query, generation, expected, got } => write!(
                f,
                "wrong answer for {query:?} at generation {generation}: expected {expected}, got {got}"
            ),
            BenchError::Program(m) => write!(f, "program error: {m}"),
            BenchError::Io(e) => write!(f, "i/o: {e}"),
            BenchError::Usage(m) => write!(f, "usage: {m}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// Wrap a program error that stops the run.
pub fn program<E: fmt::Display>(what: &str) -> impl FnOnce(E) -> BenchError + '_ {
    move |e| BenchError::Program(format!("{what}: {e}"))
}

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("query_qps", "1/s"),
    ("cpu_us_per_op", "us"),
    ("bytes_per_xml_byte", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("xml.parse_s", "s"),
    ("labeling.label_s", "s"),
    ("storage.build_s", "s"),
    ("storage.snapshot_s", "s"),
    ("storage.open_mapped_ms", "ms"),
    ("storage.range_scan_ns_per_elem", "ns"),
    ("storage.tag_scan_ns_per_elem", "ns"),
    ("storage.packed_range_scan_ns_per_elem", "ns"),
    ("storage.packed_tag_scan_ns_per_elem", "ns"),
    ("storage.delta_scan_ratio", "ratio"),
    ("xpath.parse_us", "us"),
    ("translate.plan_us", "us"),
    ("engine.prepare_us", "us"),
    ("engine.exec_p50_us", "us"),
    ("engine.exec_p99_us", "us"),
    ("engine.exec_share", "ratio"),
    ("engine.elements_visited_per_op", "count"),
    ("engine.join_input_tuples_per_op", "count"),
    ("engine.d_joins_per_op", "count"),
    ("engine.scratch_hit_rate", "ratio"),
    ("engine.stjoin_ns_per_elem", "ns"),
    ("core.query_overhead_us", "us"),
    ("core.plan_cache_hit_rate", "ratio"),
    ("core.plan_cache_evictions", "count"),
    ("core.first_plan_after_publish_ms", "ms"),
    ("core.insert_ms", "ms"),
    ("core.retag_ms", "ms"),
    ("core.delete_ms", "ms"),
    ("core.compact_ms", "ms"),
    ("server.stats_rtt_bin_us", "us"),
    ("server.stats_rtt_json_us", "us"),
    ("server.envelope_us", "us"),
    ("server.bin_codec_us", "us"),
    ("server.json_codec_us", "us"),
    ("server.result_cache_hit_rate", "ratio"),
    ("server.result_cache_invalidated", "count"),
    ("server.overloaded", "count"),
    ("json_query_p50_us", "us"),
    ("json_query_p99_us", "us"),
    ("write_p50_ms", "ms"),
    ("write_p95_ms", "ms"),
    ("failed_frac", "ratio"),
    ("bench.trace_overhead_us", "us"),
];

/// A finished run: the result line's fields plus the facts echoed on
/// the line before it.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops the timed loop issued.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// `(name, value)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Seeds, host facts and sample counts.
    pub info: Vec<(&'static str, String)>,
}

impl Report {
    /// Pick the metrics a run of this kind prints out of everything
    /// measured, in spec order; a missing one is a benchmark bug.
    pub fn select(
        trace: bool,
        measured: &std::collections::BTreeMap<&'static str, f64>,
    ) -> Result<Vec<(&'static str, f64)>, BenchError> {
        let spec: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        spec.iter()
            .map(|&(name, _)| {
                measured
                    .get(name)
                    .map(|&v| (name, v))
                    .ok_or_else(|| BenchError::Program(format!("metric {name} was not measured")))
            })
            .collect()
    }

    /// The unit a metric is declared with.
    pub fn unit(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map_or("", |&(_, u)| u)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(v),
                    Self::unit(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The facts line printed before the result line.
    pub fn info_line(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"perfbench\": {{{}}}}}", fields.join(", "))
    }
}

/// A JSON number with all its digits (non-finite values print as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Report, BenchError> {
    if cfg.seconds <= 0.0 || !cfg.seconds.is_finite() {
        return Err(BenchError::Usage("--seconds must be positive".into()));
    }
    std::fs::create_dir_all(&cfg.out_dir)?;
    let xml = blas_datagen::auction(cfg.scale(), cfg.data_seed);
    match cfg.workload {
        Workload::QueryMix => workloads::query_mix(cfg, &xml),
        Workload::LookupMix => workloads::lookup_mix(cfg, &xml, false),
        Workload::ServeMix => workloads::lookup_mix(cfg, &xml, true),
        Workload::ReadWrite => workloads::read_write(cfg, &xml),
    }
}
