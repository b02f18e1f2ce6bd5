//! `perfbench --workload <query-mix|lookup-mix|read-write|serve-mix>
//! --seed <n> --seconds <s> --trace <0|1>` — run one workload and print, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The line
//! before it echoes seeds, host facts and sample counts.
//!
//! Optional: `--data-seed <n>` and `--op-seed <n>` override `--seed`
//! for the document and the op stream; `--out-dir <dir>` (default
//! `.bench_out`) holds snapshot files and the span dump.
//!
//! A wrong answer, a program error or a bad command line prints a
//! diagnostic to standard error and exits with status 1 (2 for usage)
//! without a result line.

use perfbench::{run, BenchError, Config, Workload};
use std::path::PathBuf;

fn parse_args(args: &[String]) -> Result<Config, BenchError> {
    let mut workload = None;
    let (mut seed, mut data_seed, mut op_seed) = (1u64, None, None);
    let (mut seconds, mut trace) = (30.0f64, false);
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| BenchError::Usage(format!("{flag} needs a value")))?;
        let bad = || BenchError::Usage(format!("bad value {value:?} for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--data-seed" => data_seed = Some(value.parse().map_err(|_| bad())?),
            "--op-seed" => op_seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(BenchError::Usage(format!("unknown flag {flag}"))),
        }
    }
    let workload = workload.ok_or_else(|| BenchError::Usage("--workload is required".into()))?;
    let mut cfg = Config::new(workload, seed, seconds, trace);
    cfg.data_seed = data_seed.unwrap_or(seed);
    cfg.op_seed = op_seed.unwrap_or(seed);
    if let Some(dir) = out_dir {
        cfg.out_dir = dir;
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|cfg| run(&cfg));
    match outcome {
        Ok(report) => {
            for (name, value) in &report.metrics {
                eprintln!(
                    "  {name:<40} {value:>14.4} {}",
                    perfbench::Report::unit(name)
                );
            }
            println!("{}", report.info_line());
            println!("{}", report.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(if matches!(e, BenchError::Usage(_)) {
                2
            } else {
                1
            });
        }
    }
}
