//! The benchmark checking itself: `--repeat K` (do two sets of runs of
//! the same build agree within the bounds `BENCHMARK.json` fixes?) and
//! `--smoke` (does every workload, traced and untraced, run at a small
//! size and print exactly what `BENCHMARK.json` declares?). Both start
//! each workload in a process of its own, as the real runs are, so peak
//! memory is per workload.

use crate::host;
use crate::json::{self, Json};
use crate::WORKLOADS;
use std::process::Command;
use std::time::Instant;

/// One metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Declaration {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

/// Reads `BENCHMARK.json`, which sits beside the benchmark's directory.
pub fn declaration() -> Result<Declaration, String> {
    let path = host::benchmark_dir()
        .parent()
        .ok_or("benchmark directory has no parent")?
        .join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_declaration(&json::parse(&text)?)
}

pub fn parse_declaration(doc: &Json) -> Result<Declaration, String> {
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json: `{key}` is not a list"))
    };
    let text = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: a metric lacks `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    better: text(m, "better")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Declaration {
        workloads: list("workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Starts one workload in a child process and returns its result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    json::parse(last).map_err(|e| format!("{workload}: last line is not JSON ({e}): {last}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// direction; negative when `b` is better.
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Runs the full set of workloads `sets` times on this build and fails
/// if any two sets differ on any end-to-end metric by more than its
/// bound.
pub fn repeat(sets: usize, seed: u64, seconds: f64) -> Result<(), String> {
    let decl = declaration()?;
    // values[workload][metric] -> one value per set
    let mut values = vec![vec![Vec::new(); decl.end_to_end.len()]; WORKLOADS.len()];
    for set in 0..sets {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("set {} of {sets}: {workload}", set + 1);
            let result = run_child(workload, seed, seconds, false, false)?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "{workload}: outputs were not correct: {}",
                    result.render()
                ));
            }
            for (m, metric) in decl.end_to_end.iter().enumerate() {
                let v = metric_value(&result, &metric.name)
                    .ok_or(format!("{workload}: no metric `{}`", metric.name))?;
                values[w][m].push(v);
            }
        }
    }
    let mut over = Vec::new();
    println!(
        "{:<16} {:<12} {:>7} {:>9}  values per set",
        "workload", "metric", "bound", "worst"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in decl.end_to_end.iter().enumerate() {
            let v = &values[w][m];
            let bound = metric.bound.unwrap_or(0.0);
            let worst = v
                .iter()
                .flat_map(|a| v.iter().map(move |b| worse_by(*a, *b, &metric.better)))
                .fold(0.0, f64::max);
            let row: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "{workload:<16} {:<12} {bound:>7.3} {worst:>9.4}  {}",
                metric.name,
                row.join("  ")
            );
            if worst > bound {
                over.push(format!("{workload}/{}", metric.name));
            }
        }
    }
    if over.is_empty() {
        println!("repeat check passed: {sets} sets agree within every bound");
        Ok(())
    } else {
        Err(format!(
            "sets differ by more than the bound on: {}",
            over.join(", ")
        ))
    }
}

/// Checks one result line against what `BENCHMARK.json` declares.
pub fn check_schema(result: &Json, declared: &[Declared]) -> Result<(), String> {
    let keys: Vec<&str> = result
        .fields()
        .ok_or("result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err("outputs were not correct".into());
    }
    let whole = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .ok_or(format!("`{key}` is not a whole number"))
    };
    if whole("attempted")? < 1.0 || whole("failed")? != 0.0 {
        return Err("attempted < 1 or failed > 0".into());
    }
    let metrics = result
        .get("metrics")
        .and_then(Json::fields)
        .ok_or("`metrics` is not an object")?;
    let mut got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let mut want: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!("metrics printed {got:?}, declared {want:?}"));
    }
    for d in declared {
        let m = result.get("metrics").and_then(|m| m.get(&d.name));
        let unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str);
        let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
        if unit != Some(d.unit.as_str()) || !value.is_some_and(f64::is_finite) {
            return Err(format!("metric `{}` is {:?} {:?}", d.name, value, unit));
        }
        if d.better != crate::report::better_of(&d.name) {
            return Err(format!(
                "metric `{}` is declared `{}` is better",
                d.name, d.better
            ));
        }
        if d.bound.is_some() && value == Some(0.0) {
            return Err(format!("end-to-end metric `{}` is 0", d.name));
        }
    }
    Ok(())
}

/// Every workload, untraced and traced, at the smoke size.
pub fn smoke(seed: u64) -> Result<(), String> {
    let decl = declaration()?;
    if decl.workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json lists workloads {:?}, the program has {WORKLOADS:?}",
            decl.workloads
        ));
    }
    let t0 = Instant::now();
    for workload in WORKLOADS {
        for (trace, declared) in [(false, &decl.end_to_end), (true, &decl.per_layer)] {
            let result = run_child(workload, seed, 0.5, trace, true)?;
            check_schema(&result, declared)
                .map_err(|e| format!("{workload} --trace {}: {e}", u8::from(trace)))?;
            println!(
                "ok  {workload:<16} trace {}  {} metrics",
                u8::from(trace),
                declared.len()
            );
        }
    }
    println!("smoke passed in {:.1} s", t0.elapsed().as_secs_f64());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let decl = declaration().expect("BENCHMARK.json parses");
        assert_eq!(decl.workloads, WORKLOADS);
        for (declared, table) in [(&decl.end_to_end, END_TO_END), (&decl.per_layer, PER_LAYER)] {
            let got: Vec<(&str, &str, &str)> = declared
                .iter()
                .map(|d| (d.name.as_str(), d.unit.as_str(), d.better.as_str()))
                .collect();
            let want: Vec<(&str, &str, &str)> =
                table.iter().map(|d| (d.name, d.unit, d.better)).collect();
            assert_eq!(got, want);
        }
        for d in &decl.end_to_end {
            let bound = d.bound.expect("end-to-end metrics have a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
        assert!(decl.per_layer.iter().all(|d| d.bound.is_none()));
        assert!(decl.per_layer.len() <= 128);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!(worse_by(100.0, 90.0, "lower") < 0.0);
    }

    #[test]
    fn schema_check_accepts_a_good_line_and_names_what_is_wrong() {
        let declared = [Declared {
            name: "work_ms".into(),
            unit: "ms".into(),
            better: "lower".into(),
            bound: Some(0.1),
        }];
        let line = |metrics: &str| {
            json::parse(&format!(
                "{{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{metrics}}}"
            ))
            .unwrap()
        };
        let good = line("{\"work_ms\":{\"value\":1.25,\"unit\":\"ms\"}}");
        assert_eq!(check_schema(&good, &declared), Ok(()));
        for bad in [
            "{}",
            "{\"work_ms\":{\"value\":1.25,\"unit\":\"s\"}}",
            "{\"work_ms\":{\"value\":0,\"unit\":\"ms\"}}",
            "{\"work_ms\":{\"value\":1,\"unit\":\"ms\"},\"extra\":{\"value\":1,\"unit\":\"ms\"}}",
        ] {
            assert!(check_schema(&line(bad), &declared).is_err(), "{bad}");
        }
        let failed = json::parse(
            "{\"correct\":false,\"attempted\":5,\"failed\":1,\"metrics\":{\"work_ms\":{\"value\":1,\"unit\":\"ms\"}}}",
        )
        .unwrap();
        assert!(check_schema(&failed, &declared).is_err());
    }
}
