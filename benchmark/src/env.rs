//! Environment hygiene: refuse to measure under settings that silently
//! change what is measured, and record what the numbers were taken on.

use codec::Json;
use std::path::Path;
use std::process::Command;

/// `VmConfig::default()` reads the first two, so they would turn a
/// dispatch tier off under the benchmark's feet; the third is the bench
/// crate's one-iteration switch and has no meaning here.
const REFUSED: [&str; 3] = ["DJVM_NO_QUICKEN", "DJVM_NO_MEGA", "BENCH_SMOKE"];

pub fn check() -> Result<(), String> {
    match REFUSED.iter().find(|v| std::env::var_os(v).is_some()) {
        Some(var) => Err(format!(
            "{var} is set: unset it, the benchmark measures the production defaults"
        )),
        None => Ok(()),
    }
}

/// First line of a command's output, or "unknown".
fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

pub fn describe() -> Json {
    let mem_total_kib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find(|l| l.starts_with("MemTotal:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0);
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Json::obj(vec![
        (
            "nproc",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("mem_total_kib", Json::UInt(mem_total_kib)),
        (
            "rustc",
            Json::Str(first_line(Command::new("rustc").arg("--version"))),
        ),
        (
            "git_commit",
            Json::Str(first_line(
                Command::new("git")
                    .arg("-C")
                    .arg(repo)
                    .args(["rev-parse", "HEAD"]),
            )),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_is_complete() {
        let env = describe();
        for key in ["nproc", "mem_total_kib", "rustc", "git_commit"] {
            assert!(env.get(key).is_some(), "{key}");
        }
        assert!(env.field("nproc").unwrap().as_u64().unwrap() >= 1);
    }
}
