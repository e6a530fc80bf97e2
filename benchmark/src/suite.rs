//! The whole ledger in one command: every workload untraced, then every
//! workload traced, each in a child process of its own so peaks of memory
//! do not mix; every metric printed by name, all of it written to
//! `benchmark/out/result.json`.

use crate::metrics::WORKLOADS;
use crate::{env, run};
use codec::Json;
use std::process::Command;

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // All but the driver's one-line result, which result.json supersedes.
    let lines: Vec<&str> = stdout.lines().collect();
    for line in &lines[..lines.len().saturating_sub(1)] {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            trace as u8, output.status
        ));
    }
    let file = run::out_root()
        .join(format!("{workload}-t{}", trace as u8))
        .join("result.json");
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

/// Run everything; true when no job failed anywhere.
pub fn suite(seed: u64, seconds: f64, quick: bool) -> Result<bool, String> {
    env::check()?;
    let _ = std::fs::remove_dir_all(run::out_root());
    let mut runs = Vec::new();
    for trace in [false, true] {
        for workload in WORKLOADS {
            runs.push((
                workload,
                trace,
                child(workload, seed, seconds, trace, quick)?,
            ));
        }
    }
    let field = |workload: &str, trace: bool, key: &str| {
        runs.iter()
            .find(|r| r.0 == workload && r.1 == trace)
            .and_then(|r| r.2.get(key))
            .cloned()
            .unwrap_or(Json::Null)
    };
    let mut ok = true;
    let workloads = WORKLOADS
        .iter()
        .map(|&w| {
            let failed = [false, true].map(|t| field(w, t, "failed").as_u64().unwrap_or(1));
            ok &= failed == [0, 0];
            let doc = Json::obj(vec![
                ("attempted", field(w, false, "attempted")),
                ("failed", field(w, false, "failed")),
                ("failed_traced", field(w, true, "failed")),
                ("end_to_end", field(w, false, "metrics")),
                ("per_layer", field(w, true, "metrics")),
                ("self_s_per_job", field(w, true, "self_s_per_job")),
            ]);
            (w.to_string(), doc)
        })
        .collect();
    let result = Json::obj(vec![
        // `--quick` sizes are for tests; `compare` refuses them.
        ("comparable", Json::Bool(!quick)),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Num(seconds)),
        ("env", env::describe()),
        ("workloads", Json::Obj(workloads)),
    ]);
    let file = run::out_root().join("result.json");
    std::fs::write(&file, result.to_string()).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    Ok(ok)
}
