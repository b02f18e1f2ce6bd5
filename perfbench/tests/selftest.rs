//! Tiny-scale self-test of the benchmark itself: every metric is
//! emitted with the unit `BENCHMARK.json` declares, a falsified
//! expectation aborts the run, and a refused op is counted instead of
//! aborting.

use blas_server::json::{self, Json};
use perfbench::{run, BenchError, Config, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 7, 0.3, trace);
    cfg.scale = Some(1);
    cfg.out_dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    cfg
}

fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
    let list = spec
        .get(key)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists metrics");
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(spec: &[(&str, &str)]) -> Vec<(String, String)> {
    spec.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_metric_is_emitted_with_its_declared_unit() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(declared(&spec, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<Workload> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .map(|name| name.parse().expect("a workload perfbench runs"))
        .collect();
    assert_eq!(workloads, [Workload::QueryMix, Workload::LookupMix]);

    for workload in Workload::ALL {
        for trace in [false, true] {
            let report =
                run(&tiny(workload, trace)).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
            let line = json::parse(&report.result_line()).expect("result line is JSON");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert!(line.get("attempted").and_then(Json::as_u64) >= Some(1));
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = line.get("metrics").expect("metrics");
            let spec = if trace {
                owned(&PER_LAYER)
            } else {
                owned(&END_TO_END)
            };
            let Json::Obj(fields) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(fields.len(), spec.len(), "{workload:?} trace={trace}");
            for (name, unit) in spec {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload:?} lacks {name}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{name}");
            }
        }
    }
}

#[test]
fn a_corrupted_expectation_aborts_the_run() {
    for workload in Workload::ALL {
        let mut cfg = tiny(workload, false);
        cfg.corrupt_expectation = true;
        match run(&cfg) {
            Err(BenchError::Mismatch {
                query,
                generation,
                expected,
                got,
            }) => {
                assert_ne!(expected, got);
                assert!(query.starts_with('/'), "{query}");
                assert!(!generation.is_empty());
            }
            other => panic!("{workload:?}: expected a mismatch, got {other:?}"),
        }
    }
}

#[test]
fn overloaded_replies_count_as_failures() {
    let mut cfg = tiny(Workload::ServeMix, false);
    // No admission permits: the server answers every query with a
    // typed `overloaded` error.
    cfg.max_inflight = Some(0);
    let report = run(&cfg).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.attempted > 0);
    assert_eq!(report.failed, report.attempted);
}
