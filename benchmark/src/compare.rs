//! `benchmark compare <a.json> <b.json>`: the regression gate over two
//! `result.json` files, `a` the baseline. One row per (workload,
//! end-to-end metric) with both values and the ratio b/a; a metric fails
//! when it got worse by more than its bound. For a workload that
//! regressed, the span whose self time per job grew most is named, which
//! is where to look first.

use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use codec::Json;
use std::fmt::Write;

/// A JSON number of any of `codec`'s three kinds.
pub fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Num(v) => Some(*v),
        Json::Int(v) => Some(*v as f64),
        Json::UInt(v) => Some(*v as f64),
        _ => None,
    }
}

fn metric(result: &Json, workload: &str, section: &str, name: &str) -> Option<f64> {
    number(
        result
            .get("workloads")?
            .get(workload)?
            .get(section)?
            .get(name)?,
    )
}

/// The span of `workload` whose self time per job grew most from `a` to
/// `b`, with the growth in seconds.
fn grew_most(a: &Json, b: &Json, workload: &str) -> Option<(String, f64)> {
    let spans = b
        .get("workloads")?
        .get(workload)?
        .get("self_s_per_job")?
        .as_obj()
        .ok()?;
    spans
        .iter()
        .filter_map(|(name, after)| {
            let before = metric(a, workload, "self_s_per_job", name).unwrap_or(0.0);
            Some((name.clone(), number(after)? - before))
        })
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .filter(|(_, growth)| *growth > 0.0)
}

/// The comparison table and whether `b` is free of regressions. `Err`
/// when a file is not a comparable result.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (side, result) in [("a", a), ("b", b)] {
        if result.get("comparable").and_then(|c| c.as_bool().ok()) != Some(true) {
            return Err(format!(
                "{side} is not a comparable result (a --quick run, or not a result.json)"
            ));
        }
    }
    let mut table = String::new();
    let mut ok = true;
    let _ = writeln!(
        table,
        "{:<13} {:<24} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a", "b", "b/a"
    );
    for workload in WORKLOADS {
        let mut regressed = false;
        for m in END_TO_END.iter().filter(|m| m.applies(workload)) {
            let values = (
                metric(a, workload, "end_to_end", m.name),
                metric(b, workload, "end_to_end", m.name),
            );
            let (Some(va), Some(vb)) = values else {
                let _ = writeln!(
                    table,
                    "{workload:<13} {:<24} missing: {values:?}  FAIL",
                    m.name
                );
                regressed = true;
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => vb - va,
                Better::Higher => va - vb,
            };
            let fail = worse_by > (m.bound * va.abs()).max(m.slack);
            regressed |= fail;
            let verdict = if fail {
                format!(
                    "FAIL (worse by {:.1}% of a, bound {:.0}%)",
                    worse_by / va.abs() * 100.0,
                    m.bound * 100.0
                )
            } else {
                "ok".into()
            };
            // 0/0 (no failures on either side) is no change.
            let ratio = if va == vb { 1.0 } else { vb / va };
            let _ = writeln!(
                table,
                "{workload:<13} {:<24} {va:>16.6} {vb:>16.6} {ratio:>9.4}  {verdict}",
                m.name
            );
        }
        if regressed {
            ok = false;
            match grew_most(a, b, workload) {
                Some((span, growth)) => {
                    let _ = writeln!(
                        table,
                        "{workload}: self time grew most in `{span}` (+{growth:.6} s per job)"
                    );
                }
                None => {
                    let _ = writeln!(table, "{workload}: no span's self time grew");
                }
            }
        }
    }
    // Deterministic counts: between two runs of one commit and one seed
    // every one of them must be identical.
    let mut changed = Vec::new();
    for workload in WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.exact.on(workload)) {
            let values = (
                metric(a, workload, "per_layer", m.name),
                metric(b, workload, "per_layer", m.name),
            );
            if values.0 != values.1 {
                changed.push(format!(
                    "{workload} {} {:?} -> {:?}",
                    m.name, values.0, values.1
                ));
            }
        }
    }
    let _ = writeln!(
        table,
        "exact per-layer counts that differ: {}",
        changed.len()
    );
    for line in changed {
        let _ = writeln!(table, "  {line}");
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-written result: every metric 10, every span 10 ms of self
    /// time per job, with `store_corpus` adjusted by the caller.
    fn result(job_p50_s: f64, put_new_self_s: f64) -> Json {
        let workloads = WORKLOADS
            .iter()
            .map(|&w| {
                let corpus = w == crate::metrics::STORE_CORPUS;
                let e2e = END_TO_END
                    .iter()
                    .filter(|m| m.applies(w))
                    .map(|m| {
                        let v = match m.name {
                            "failed_ppm" => 0.0,
                            "job_p50_s" if corpus => job_p50_s,
                            _ => 10.0,
                        };
                        (m.name.to_string(), Json::Num(v))
                    })
                    .collect();
                let spans = ["job", "store.put_new", "store.get_bytes", "store.open_miss"]
                    .map(|s| {
                        let v = if corpus && s == "store.put_new" {
                            put_new_self_s
                        } else {
                            0.010
                        };
                        (s.to_string(), Json::Num(v))
                    })
                    .to_vec();
                let doc = Json::obj(vec![
                    ("end_to_end", Json::Obj(e2e)),
                    (
                        "per_layer",
                        Json::obj(vec![("djvm.steps", Json::Num(1000.0))]),
                    ),
                    ("self_s_per_job", Json::Obj(spans)),
                ]);
                (w.to_string(), doc)
            })
            .collect();
        Json::obj(vec![
            ("comparable", Json::Bool(true)),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    #[test]
    fn same_results_pass() {
        let (table, ok) = compare(&result(10.0, 0.010), &result(10.0, 0.010)).unwrap();
        assert!(ok, "{table}");
        assert!(table.contains("exact per-layer counts that differ: 0"));
    }

    #[test]
    fn a_doubled_span_is_caught_and_named() {
        // put_new doubled, and the job median with it over its 25 % bound.
        let (table, ok) = compare(&result(10.0, 0.010), &result(13.0, 0.020)).unwrap();
        assert!(!ok, "{table}");
        assert!(
            table.contains("store_corpus: self time grew most in `store.put_new`"),
            "{table}"
        );
        let fails = table.lines().filter(|l| l.contains("FAIL")).count();
        assert_eq!(fails, 1, "only the slowed metric fails:\n{table}");
        // Getting better is never a regression.
        assert!(
            compare(&result(13.0, 0.020), &result(10.0, 0.010))
                .unwrap()
                .1
        );
    }

    #[test]
    fn within_the_bound_passes() {
        assert!(
            compare(&result(10.0, 0.010), &result(12.4, 0.012))
                .unwrap()
                .1
        );
    }

    #[test]
    fn quick_results_are_refused() {
        let mut quick = result(10.0, 0.010);
        if let Json::Obj(fields) = &mut quick {
            fields[0].1 = Json::Bool(false);
        }
        assert!(compare(&quick, &result(10.0, 0.010)).is_err());
        assert!(compare(&result(10.0, 0.010), &Json::Null).is_err());
    }
}
