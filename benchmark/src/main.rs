//! `benchmark run`     one workload, one process: the driver's contract.
//! `benchmark suite`   all four workloads untraced then traced → out/result.json.
//! `benchmark compare` the regression gate over two result files.

use benchmark::metrics::WORKLOADS;
use benchmark::window::Ctx;
use benchmark::{compare, env, run, suite};
use codec::Json;
use std::process::ExitCode;
use std::time::Instant;

struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.value(name) {
            Some(v) => v.parse().map_err(|e| format!("{name} {v:?}: {e}")),
            None => Ok(default),
        }
    }

    fn quick(&self) -> bool {
        self.0.iter().any(|a| a == "--quick")
    }
}

fn run_one(args: &Args, started: Instant) -> Result<bool, String> {
    env::check()?;
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {WORKLOADS:?}"))?;
    let trace = args.number("--trace", 0.0)? != 0.0;
    let ctx = Ctx {
        workload,
        seed: args.number("--seed", 1.0)? as u64,
        seconds: args.number("--seconds", run::RUN_SECONDS as f64)?,
        trace,
        quick: args.quick(),
        out: run::out_root().join(format!("{workload}-t{}", trace as u8)),
    };
    let report = run::run(&ctx, started)?;
    report.print();
    let file = ctx.out.join("result.json");
    std::fs::write(&file, report.to_json().to_string())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    // Failed jobs are reported in the line, not through the exit code.
    println!("{}", report.contract_line());
    Ok(true)
}

fn compare_files(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("usage: benchmark compare <a.json> <b.json>".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, ok) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv);
    let outcome = match command.as_str() {
        "run" => run_one(&args, started),
        "suite" => args.number("--seed", 1.0).and_then(|seed| {
            suite::suite(
                seed as u64,
                args.number("--seconds", run::RUN_SECONDS as f64)?,
                args.quick(),
            )
        }),
        "compare" => compare_files(&args.0),
        other => Err(format!(
            "usage: benchmark run|suite|compare ... (got {other:?})"
        )),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
