//! The benchmark's own tests: a toy-size run of every workload, timed and
//! traced, emits every metric `BENCHMARK.json` names, with its unit, and
//! passes its output checks; a corrupted reply counts as a failure.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, OnceLock};

use mtsp_bench::json::{self, Value};
use mtsp_perfbench::daemon::{count_failures, reference_replies};
use mtsp_perfbench::gen::{self, ConnPlan};
use mtsp_perfbench::{run, Opts, Scale, Workload};

/// Runs share the process-global span collector, so they go one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench/ sits in the repository root")
}

/// The `mtsp` binary the serve workloads drive: `$MTSP_BIN`, or the
/// release build in this test's target directory, built there if missing.
fn mtsp_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(bin) = std::env::var_os("MTSP_BIN") {
            return bin.into();
        }
        // The test binary is <target>/<profile>/deps/<name>.
        let exe = std::env::current_exe().expect("test binary path");
        let target = exe.ancestors().nth(3).expect("target directory");
        let bin = target.join("release").join("mtsp");
        if !bin.exists() {
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
            let status = Command::new(cargo)
                .args([
                    "build",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--bin",
                    "mtsp",
                ])
                .arg("--manifest-path")
                .arg(repo_root().join("Cargo.toml"))
                .arg("--target-dir")
                .arg(target)
                .status()
                .expect("cargo runs");
            assert!(status.success(), "building mtsp failed");
        }
        bin
    })
    .clone()
}

/// `(name, unit)` of the `kind` metrics `BENCHMARK.json` declares.
fn declared(kind: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).expect(key).to_string();
    doc.get(kind)
        .and_then(Value::as_array)
        .expect(kind)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn check(workload: Workload, trace: bool) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tag = format!("test-{}-{}", workload.name(), u8::from(trace));
    let opts = Opts {
        workload,
        seed: 5,
        seconds: 0.6,
        trace,
        scale: Scale::Toy,
        mtsp_bin: mtsp_bin(),
        work_dir: PathBuf::from(".bench_tmp").join(&tag),
        out_dir: PathBuf::from(".bench_tmp").join("test-out"),
    };
    let outcome = run(&opts).unwrap_or_else(|e| panic!("{tag}: {e}"));
    let line = outcome.json_line();
    assert!(outcome.correct(), "{tag}: output checks failed: {line}");
    let result = json::parse(&line).expect("the result line is JSON");
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let names = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(metrics.len(), names.len(), "{tag}: {line}");
    for (name, unit) in names {
        let metric = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{tag}: {name} missing: {line}"));
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            metric.get("value").and_then(Value::as_f64).is_some(),
            "{name}"
        );
    }
}

#[test]
fn solve_cold_timed() {
    check(Workload::SolveCold, false);
}

#[test]
fn solve_cold_traced() {
    check(Workload::SolveCold, true);
}

#[test]
fn serve_online_timed() {
    check(Workload::ServeOnline, false);
}

#[test]
fn serve_online_traced() {
    check(Workload::ServeOnline, true);
}

#[test]
fn serve_solve_hot_timed() {
    check(Workload::ServeSolveHot, false);
}

#[test]
fn serve_solve_hot_traced() {
    check(Workload::ServeSolveHot, true);
}

#[test]
fn corrupted_reply_counts_as_failure() {
    let plan = gen::online_plan(5, 0.3, Scale::Toy);
    let scripts: Vec<String> = plan.conns.iter().map(ConnPlan::script).collect();
    let dir = PathBuf::from(".bench_tmp").join("test-corrupt");
    let want = reference_replies(&scripts, &dir).expect("reference transcript");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        want.iter().flatten().all(|r| r.starts_with("OK ")),
        "the generated stream is accepted whole"
    );
    let mut got = want[0].clone();
    assert_eq!(count_failures(&got, &want[0]), 0);
    let last = got.len() - 1;
    got[last] = got[last].replace(' ', "  ");
    assert_eq!(count_failures(&got, &want[0]), 1, "a corrupted reply fails");
    got.pop();
    assert_eq!(count_failures(&got, &want[0]), 1, "a missing reply fails");
}
