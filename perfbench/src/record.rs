//! The two output lines of a run: the run record (host, revision, seed,
//! item counts, every metric's unit and better direction, absent layers)
//! and, last, the result object a reader of the benchmark parses.

use crate::measure::{valid_name, valid_unit, Metric};
use crate::{Outcome, RunConfig, DEFAULT_SEED, HOLDOUT_SEED};
use dapc_ilp::hash::{fnv1a, FNV_OFFSET};
use std::path::Path;

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number with every digit Rust keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The git revision of the checkout, when its root is a git work tree
/// (a checkout nested in some other repository reports none).
fn git_revision() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a digest of the workspace sources the benchmark builds (the
/// root manifests, `crates/` and `vendor/`), in sorted path order — the
/// revision stand-in for checkouts that are not git work trees.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut h = FNV_OFFSET;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h = fnv1a(
                h,
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h = fnv1a(h, &bytes);
        }
    }
    format!("{h:016x}")
}

/// The run record line: everything needed to interpret and reproduce
/// the result line that follows it.
pub fn run_record(workload: &str, cfg: &RunConfig, out: &Outcome, metrics: &[Metric]) -> String {
    let mut fields: Vec<(String, String)> = vec![
        ("workload".into(), json_str(workload)),
        ("seed".into(), cfg.seed.to_string()),
        ("default_seed".into(), DEFAULT_SEED.to_string()),
        ("holdout_seed".into(), HOLDOUT_SEED.to_string()),
        ("seconds".into(), json_num(cfg.seconds)),
        ("trace".into(), cfg.trace.to_string()),
        ("nproc".into(), nproc().to_string()),
        (
            "git_revision".into(),
            git_revision().map_or("null".into(), |r| json_str(&r)),
        ),
        (
            "source_digest".into(),
            json_str(&source_digest(Path::new("."))),
        ),
        ("attempted".into(), out.attempted.to_string()),
        ("failed".into(), out.failed.to_string()),
        (
            "failed_frac".into(),
            json_num(out.failed as f64 / out.attempted.max(1) as f64),
        ),
    ];
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    fields.push(("failures".into(), format!("[{}]", failures.join(","))));
    let units: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"unit\":{},\"better\":{}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    fields.push(("metrics".into(), format!("{{{}}}", units.join(","))));
    let absent: Vec<String> = out
        .absent
        .iter()
        .filter(|(name, _)| metrics.iter().any(|m| m.name == **name))
        .map(|(name, why)| format!("{}:{}", json_str(name), json_str(why)))
        .collect();
    fields.push(("absent".into(), format!("{{{}}}", absent.join(","))));
    fields.extend(out.record.iter().map(|(k, v)| (k.clone(), v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"run_record\":{{{}}}}}", body.join(","))
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its value and unit. A run is correct when no item failed and
/// every metric is a finite number with a valid name and unit.
pub fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let well_formed = metrics
        .iter()
        .all(|m| m.value.is_finite() && valid_name(m.name) && valid_unit(m.unit));
    let correct = out.failed == 0 && out.attempted > 0 && well_formed;
    // A run that attempted nothing counts as one failed item.
    let (attempted, failed) = match out.attempted {
        0 => (1, 1),
        n => (n, out.failed),
    };
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        values.join(",")
    )
}
