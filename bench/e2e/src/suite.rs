//! `e2e_profile suite`: all six workloads, each in a fresh child process
//! of this binary (so peak memory does not leak across workloads), written
//! as one schema-versioned result file under `bench/e2e/results/`.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::catalog::WORKLOADS;
use crate::compare;
use crate::harness::BenchResult;
use crate::json::Json;
use crate::Args;

pub const SCHEMA: &str = "cofhee-e2e-v1";

/// First line of `cmd args…`, or "unknown": stamps are best effort.
fn stamp(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What a child printed: its `#detail` and `#spans` records and whether
/// its result line says `correct` with nothing failed.
struct Child {
    detail: Json,
    spans: Vec<Json>,
    clean: bool,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> BenchResult<Child> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--emit-detail");
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to exit.
    let out = cmd.output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )
        .into());
    }
    let (mut detail, mut spans, mut result) = (None, Vec::new(), None);
    for line in stdout.lines() {
        if let Some(d) = line.strip_prefix("#detail ") {
            detail = Some(Json::parse(d)?);
        } else if let Some(s) = line.strip_prefix("#spans ") {
            spans = Json::parse(s)?.as_arr().map(<[Json]>::to_vec).unwrap_or_default();
        } else if line.starts_with('{') {
            result = Some(Json::parse(line)?);
        } else {
            println!("{line}");
        }
    }
    let result = result.ok_or("the child printed no result line")?;
    let clean = result.get("correct") == Some(&Json::Bool(true))
        && result.get("failed").and_then(Json::as_f64) == Some(0.0);
    Ok(Child { detail: detail.ok_or("the child printed no #detail record")?, spans, clean })
}

pub fn suite(args: &Args) -> BenchResult<bool> {
    let seed: u64 = args.parsed("--seed", 2023)?;
    let smoke = args.flag("--smoke");
    let seconds: f64 = args.parsed("--seconds", if smoke { 0.05 } else { 10.0 })?;
    let trace = args.flag("--trace");
    let label = match args.value("--label") {
        Some(l) => l.to_string(),
        None => format!("seed{seed}{}", if smoke { "-smoke" } else { "" }),
    };
    if !label.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)) || label.is_empty() {
        return Err(
            format!("label `{label}` may hold only letters, digits, `_`, `.` and `-`").into()
        );
    }
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("bench/e2e/results"));
    std::fs::create_dir_all(&out_dir)?;

    let mut all_clean = true;
    let mut workloads = Vec::new();
    let mut spans = Vec::new();
    for name in WORKLOADS {
        let untraced = run_child(name, seed, seconds, false, smoke)?;
        all_clean &= untraced.clean;
        let mut entry = untraced.detail.as_obj().map(<[_]>::to_vec).unwrap_or_default();
        if trace {
            let traced = run_child(name, seed, seconds, true, smoke)?;
            all_clean &= traced.clean;
            if let Some(layers) = traced.detail.get("per_layer") {
                entry.push(("per_layer".into(), layers.clone()));
            }
            spans.extend(traced.spans);
        }
        workloads.push((name.to_string(), Json::Obj(entry)));
    }

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let header = |extra: Vec<(&str, Json)>| {
        let mut fields = vec![
            ("schema", Json::str(SCHEMA)),
            ("label", Json::str(label.clone())),
            ("commit", Json::str(stamp("git", &["rev-parse", "HEAD"]))),
            ("rustc", Json::str(stamp("rustc", &["--version"]))),
            ("seed", Json::Num(seed as f64)),
            ("nproc", Json::Num(nproc as f64)),
            ("run_seconds", Json::Num(seconds)),
            ("smoke", Json::Bool(smoke)),
        ];
        fields.extend(extra);
        Json::obj(fields)
    };
    let path = out_dir.join(format!("{label}.json"));
    write(&path, &header(vec![("workloads", Json::Obj(workloads))]))?;
    if trace {
        write(
            &out_dir.join(format!("{label}.trace.json")),
            &header(vec![("spans", Json::Arr(spans))]),
        )?;
    }
    if smoke {
        // Read the file back through `compare`: a run agrees with itself.
        all_clean &= compare::compare(&path, &path)?;
    }
    Ok(all_clean)
}

fn write(path: &Path, doc: &Json) -> BenchResult<()> {
    std::fs::write(path, doc.pretty())?;
    println!("wrote {}", path.display());
    Ok(())
}
