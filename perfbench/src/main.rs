//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload <ldd-trials|batch-cold|daemon-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a run-record line, then, last, one JSON result line. A traced
//! run also writes its span log and `dapc-obs` snapshot under
//! `.perfbench-out/`. Run it from the repository root.

use perfbench::{record, run_workload, RunConfig, Scale, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|s| cfg.seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|s| cfg.seconds = s)
                .is_ok_and(|()| cfg.seconds > 0.0 && cfg.seconds.is_finite()),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    cfg.trace = true;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let Some(out) = run_workload(&workload, &cfg) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    if cfg.trace {
        if let Err(e) = write_trace(&workload, &cfg, &out) {
            eprintln!("perfbench: cannot write the trace: {e}");
            return ExitCode::FAILURE;
        }
    }
    let metrics = out.metrics(cfg.trace);
    println!("{}", record::run_record(&workload, &cfg, &out, &metrics));
    println!("{}", record::result_line(&out, &metrics));
    ExitCode::SUCCESS
}

/// Writes the run's span log and final `dapc-obs` snapshot.
fn write_trace(workload: &str, cfg: &RunConfig, out: &perfbench::Outcome) -> std::io::Result<()> {
    let dir = std::path::Path::new(".perfbench-out");
    std::fs::create_dir_all(dir)?;
    let stem = format!("{workload}-seed{}", cfg.seed);
    std::fs::write(
        dir.join(format!("{stem}.spans.jsonl")),
        out.spans.to_jsonl(),
    )?;
    dapc_obs::write_snapshot(&dir.join(format!("{stem}.obs.jsonl")))
}
