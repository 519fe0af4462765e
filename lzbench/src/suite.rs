//! Whole-suite modes: every workload in a fresh child process of this
//! binary (so each gets its own peak RSS), once or `--repeat N` times.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use lzfpga_telemetry::json::{self, obj, JsonValue};

use crate::setup::{Workload, WORKLOADS};
use crate::{stats, Args};

/// One child's result line.
struct Run {
    workload: Workload,
    seed: u64,
    line: JsonValue,
}

/// Run the suite; returns the process exit code.
pub fn run(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("lzbench: cannot find own executable: {e}");
            return 2;
        }
    };
    let seconds = if args.smoke { args.seconds.min(1.0) } else { args.seconds };
    let mut runs = Vec::new();
    for rep in 0..args.repeat.unwrap_or(1) as u64 {
        let seed = args.seed + rep;
        for w in WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = match cmd.output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("lzbench: cannot run {}: {e}", exe.display());
                    return 2;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().last().and_then(|l| json::parse(l).ok());
            match (out.status.success(), line) {
                (true, Some(line)) => runs.push(Run { workload: w, seed, line }),
                _ => {
                    eprintln!("lzbench: workload {} seed {seed} failed: {}", w.name(), out.status);
                    return 1;
                }
            }
        }
    }
    let bounds = read_bounds();
    let summary = summarize(&runs, &bounds);
    if let Some(path) = &args.out {
        let doc = obj([
            (
                "runs",
                JsonValue::Array(
                    runs.iter()
                        .map(|r| {
                            obj([
                                ("workload", r.workload.name().into()),
                                ("seed", r.seed.into()),
                                ("result", r.line.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("summary", JsonValue::Array(summary)),
        ]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("lzbench: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    0
}

/// Each end-to-end metric's bound from `BENCHMARK.json` in the working
/// directory, when it is there.
fn read_bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else { return BTreeMap::new() };
    let Ok(doc) = json::parse(text.trim()) else { return BTreeMap::new() };
    doc.get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect()
}

/// Print, per workload and metric, the median with its quartiles and the
/// spread as a share of the median and of the bound; return the rows.
fn summarize(runs: &[Run], bounds: &BTreeMap<String, f64>) -> Vec<JsonValue> {
    let mut rows = Vec::new();
    println!(
        "{:<14} {:<32} {:>10} {:>12} {:>12} {:>12} {:>8} {:>7} {:>9}",
        "workload", "metric", "unit", "median", "q1", "q3", "spread", "bound", "spr/bnd"
    );
    for w in WORKLOADS {
        let mine: Vec<&Run> = runs.iter().filter(|r| r.workload == w).collect();
        let Some(first) = mine.first() else { continue };
        let Some(JsonValue::Object(metrics)) = first.line.get("metrics") else { continue };
        for (name, m) in metrics {
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            let values: Vec<f64> = mine
                .iter()
                .filter_map(|r| r.line.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            if values.is_empty() {
                continue;
            }
            let med = stats::median(&values);
            let (q1, q3) = stats::quartiles(&values);
            let spread = stats::spread(&values);
            let bound = bounds.get(name).copied();
            println!(
                "{:<14} {:<32} {:>10} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>7} {:>9}",
                w.name(),
                name,
                unit,
                med,
                q1,
                q3,
                spread * 100.0,
                bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                bound.map_or("-".into(), |b| format!("{:.2}", spread / b)),
            );
            let mut row = obj([
                ("workload", w.name().into()),
                ("metric", name.as_str().into()),
                ("unit", unit.into()),
                ("runs", values.len().into()),
                ("median", med.into()),
                ("q1", q1.into()),
                ("q3", q3.into()),
                ("spread", spread.into()),
            ]);
            if let Some(b) = bound {
                row.push("bound", b);
            }
            rows.push(row);
        }
    }
    rows
}
