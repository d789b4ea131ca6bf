//! Tiny-size smoke runs of every workload, untraced and traced, plus the
//! metric-name rules: every name is well formed, emitted with its unit,
//! and declared in `BENCHMARK.json` with the same unit and direction.

use perfbench::measure::{valid_name, valid_unit};
use perfbench::{record, run_workload, RunConfig, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
    }
}

/// Runs `workload` at tiny size and checks its result line.
fn smoke(workload: &str, seed: u64, trace: bool) {
    let cfg = tiny(seed, trace);
    let out = run_workload(workload, &cfg).expect("known workload");
    assert!(out.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.failures);
    let metrics = out.metrics(trace);
    let catalogue: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(metrics.len(), catalogue.len());
    let line = record::result_line(&out, &metrics);
    assert!(line.starts_with("{\"correct\":true,"), "{workload}: {line}");
    for m in &metrics {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
        let emitted = format!(
            "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
        assert!(line.contains(&emitted), "{workload}: {emitted} missing");
    }
    if !trace {
        for m in &metrics {
            assert!(m.value > 0.0, "{workload}: end-to-end {} is 0", m.name);
        }
    }
    let rec = record::run_record(workload, &cfg, &out, &metrics);
    assert!(rec.starts_with("{\"run_record\":{"), "{rec}");
    let mut keys = vec!["nproc", "seed", "holdout_seed", "source_digest"];
    if !trace {
        keys.extend([
            "quality_items",
            "latency_samples",
            "p90_samples_beyond",
            "block_items_per_s",
        ]);
    }
    for key in keys {
        let key = format!("\"{key}\":");
        assert!(rec.contains(&key), "{workload}: run record lacks {key}");
    }
}

#[test]
fn ldd_trials_smoke() {
    smoke("ldd-trials", 3, false);
    smoke("ldd-trials", 3, true);
}

#[test]
fn batch_cold_smoke() {
    smoke("batch-cold", 4, false);
    smoke("batch-cold", 4, true);
}

#[test]
fn daemon_mixed_smoke() {
    smoke("daemon-mixed", 5, false);
    smoke("daemon-mixed", 6, true);
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run_workload("no-such-workload", &tiny(1, false)).is_none());
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(*name), "{name} declared twice");
    }
    assert!(!valid_name("core cache"));
    assert!(!valid_name(".hidden"));
    assert!(!valid_unit("per second"));
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "workload {w} missing"
        );
    }
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(
            "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
            better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
