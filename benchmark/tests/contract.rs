//! The benchmark against the driver's contract: `BENCHMARK.json` says
//! what the tables say, and the runner refuses a doctored environment.

use benchmark::compare::number;
use benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use codec::Json;
use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_json_matches_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let strings = |key: &str| -> Vec<String> {
        let items = doc.field(key).unwrap().as_arr().unwrap();
        items
            .iter()
            .map(|s| s.as_str().unwrap().to_owned())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(
        doc.field("run_seconds").unwrap().as_u64().unwrap(),
        benchmark::run::RUN_SECONDS
    );

    let names = |key: &str| -> Vec<String> {
        let items = doc.field(key).unwrap().as_arr().unwrap();
        items
            .iter()
            .map(|m| m.field("name").unwrap().as_str().unwrap().to_owned())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);

    // end_to_end: the rows every workload reports, same unit, direction
    // and bound as `compare` applies.
    let universal: Vec<_> = END_TO_END.iter().filter(|m| m.universal()).collect();
    let listed = doc.field("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), universal.len());
    assert!(names("end_to_end").contains(&"setup_s".to_string()));
    for (row, m) in listed.iter().zip(universal) {
        assert_eq!(row.field("name").unwrap().as_str().unwrap(), m.name);
        assert_eq!(row.field("unit").unwrap().as_str().unwrap(), m.unit);
        assert_eq!(
            row.field("better").unwrap().as_str().unwrap(),
            m.better.name()
        );
        assert_eq!(
            number(row.field("bound").unwrap()).unwrap(),
            m.bound,
            "{}",
            m.name
        );
    }

    let listed = doc.field("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    for (row, m) in listed.iter().zip(PER_LAYER) {
        assert_eq!(row.field("name").unwrap().as_str().unwrap(), m.name);
        assert_eq!(row.field("unit").unwrap().as_str().unwrap(), m.unit);
        assert_eq!(
            row.field("better").unwrap().as_str().unwrap(),
            m.better.name()
        );
    }
}

#[test]
fn refuses_a_doctored_environment() {
    for var in ["DJVM_NO_QUICKEN", "DJVM_NO_MEGA", "BENCH_SMOKE"] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(["run", "--workload", "compute_hot", "--quick"])
            .env(var, "1")
            .output()
            .unwrap();
        assert!(!out.status.success(), "{var} must stop the runner");
        assert!(out.stdout.is_empty(), "{var}: no result may be printed");
        assert!(String::from_utf8_lossy(&out.stderr).contains(var));
    }
}
