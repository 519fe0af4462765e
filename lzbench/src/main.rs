//! `lzbench`: the end-to-end and per-layer benchmark of the lzfpga
//! archive, range and served paths. See README.md for the metric
//! dictionary and how to compare two commits.
//!
//! One workload per process:
//!
//! ```text
//! lzbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! prints, as its last stdout line, `{"correct", "attempted", "failed",
//! "metrics"}` with every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`). Without `--workload` it runs every
//! workload, each in a fresh child process, and prints a table; `--repeat
//! N` does that N times, with seeds `seed`, `seed + 1`, …, and prints each
//! metric's median, IQR and spread against its bound in BENCHMARK.json;
//! `--smoke` runs every workload on ~1 MiB inputs for 1 s.

mod layers;
mod measure;
mod setup;
mod speed;
mod stats;
mod suite;

use std::path::PathBuf;
use std::time::Instant;

use lzfpga_telemetry::json::{obj, JsonValue};

use measure::{Conn, Ctx, Served, Tally};
use setup::{Inputs, OpGen, Workload};
use speed::SpeedTrace;

const USAGE: &str = "usage: lzbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-out PATH] [--repeat N] [--smoke] [--out PATH]";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Run only this workload, in this process.
    pub workload: Option<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
    /// Whole-suite repetitions.
    pub repeat: Option<usize>,
    /// Tiny inputs, short runs.
    pub smoke: bool,
    /// Where the suite writes its JSON report.
    pub out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        repeat: None,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|_| "--repeat takes an integer")?;
                if n == 0 {
                    return Err("--repeat must be at least 1".into());
                }
                args.repeat = Some(n);
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where runs keep scratch state: beside the build, never on tmpfs.
pub fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = target.join("lzbench");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        eprintln!("lzbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    });
    dir
}

/// One metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one workload run prints.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Add a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// The result line. Only a run whose every output matched the oracle
    /// gets this far, so `correct` is always true.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), obj([("value", m.value.into()), ("unit", m.unit.into())])))
            .collect();
        obj([
            ("correct", true.into()),
            ("attempted", self.tally.attempted.into()),
            ("failed", self.tally.failed.into()),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }
}

/// A workload's inputs, plus its running server when it has one.
pub struct Env {
    /// Inputs and oracle.
    pub inputs: Inputs,
    /// The server, for served workloads.
    pub served: Option<Served>,
}

impl Env {
    /// Stop the server, if there is one.
    pub fn stop(self) {
        if let Some(s) = self.served {
            s.stop();
        }
    }
}

/// Set the workload up [`SETUP_REPS`] times (keeping only the last) and
/// return it with the median set-up time in seconds, each at reference
/// host speed like every other end-to-end timing.
pub fn set_up(w: Workload, seed: u64, smoke: bool) -> (Env, f64) {
    let state_dir = (w == Workload::ServeDurable)
        .then(|| scratch_dir().join(format!("state-{}", std::process::id())));
    let origin = Instant::now();
    let mut speed = SpeedTrace::default();
    let mut times = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = env.take() {
            old.stop();
        }
        let at = stats::ms(origin.elapsed());
        for _ in 0..3 {
            speed.sample(at);
        }
        let t0 = Instant::now();
        let inputs = Inputs::build(w, seed, smoke);
        let served = w.served().then(|| Served::start(w, &inputs, state_dir.clone()));
        times.push((at, t0.elapsed().as_secs_f64()));
        env = Some(Env { inputs, served });
    }
    let normalized: Vec<f64> = times.iter().map(|&(at, s)| s / speed.slowdown_at(at)).collect();
    (env.expect("at least one set-up"), stats::median(&normalized))
}

fn end_to_end(w: Workload, seed: u64, seconds: f64, smoke: bool) -> RunResult {
    let ctx = Ctx { workload: w, seed };
    let (env, setup_s) = set_up(w, seed, smoke);
    let inputs = &env.inputs;
    let warmup = (seconds * 0.2).min(2.0);
    let mut result = RunResult::default();
    // Every end-to-end metric comes from a closed loop that issues one
    // operation at a time. The served workloads also run an open loop at a
    // fixed rate; its latency and the generator's health are printed, not
    // gated, because under queueing its tail does not repeat within the
    // bounds on the shared host.
    let mut gen = OpGen::new(w, inputs, seed, 0);
    let run = match &env.served {
        Some(served) => {
            let addr = served.handle.addr();
            let mut conn = Conn::new(addr, "bench".into());
            let mut exec = |op| conn.run(&ctx, inputs, op);
            let warm = measure::closed_loop(&ctx, inputs, &mut gen, warmup, &mut exec);
            let (open, health) = measure::open_served(&ctx, inputs, addr, seconds * 0.4);
            let lat = open.latencies(true);
            let at = |p| if lat.is_empty() { f64::NAN } else { stats::percentile(&lat, p) };
            eprintln!(
                "lzbench: {}: open loop at {} req/s: {} requests, p50 {:.3} ms, p90 {:.3} ms; \
                 generator lag p99 {:.3} ms, backlog max {}{}",
                w.name(),
                measure::open_loop_rate(w),
                open.tally.attempted,
                at(50.0),
                at(90.0),
                health.lag_p99_ms,
                health.backlog_max,
                if health.overloaded { ", OVERLOADED" } else { "" },
            );
            result.tally.merge(&warm.tally);
            result.tally.merge(&open.tally);
            measure::closed_loop(&ctx, inputs, &mut gen, seconds * 0.6, &mut exec)
        }
        None => {
            let mut exec = |op| measure::run_local(w, inputs, op);
            let warm = measure::closed_loop(&ctx, inputs, &mut gen, warmup, &mut exec);
            result.tally.merge(&warm.tally);
            measure::closed_loop(&ctx, inputs, &mut gen, seconds, &mut exec)
        }
    };
    result.tally.merge(&run.tally);
    let n = run.ops.len();
    if n == 0 {
        eprintln!("lzbench: {}: no operation succeeded", w.name());
        std::process::exit(4);
    }
    if !stats::percentile_supported(n, 90.0) {
        eprintln!("lzbench: {}: warning: {n} samples do not support a p90", w.name());
    }
    let lat = run.latencies(true);
    let raw = run.latencies(false);
    eprintln!(
        "lzbench: {}: {n} latency samples, highest supported percentile p{}; host slowdown \
         median {:.3}; raw p50 {:.3} ms p90 {:.3} ms, raw throughput {:.3} MB/s",
        w.name(),
        stats::highest_supported(n).unwrap_or(0.0),
        run.speed.median_slowdown(),
        stats::percentile(&raw, 50.0),
        stats::percentile(&raw, 90.0),
        run.busy_mb_s(false)
    );
    result.push("throughput_mb_s", run.busy_mb_s(true), "MB/s");
    result.push("latency_p50_ms", stats::percentile(&lat, 50.0), "ms");
    result.push("latency_p90_ms", stats::percentile(&lat, 90.0), "ms");
    result.push("ratio", inputs.ratio(), "x");
    result.push("setup_s", setup_s, "s");
    env.stop();
    result.push("peak_rss_mb", measure::peak_rss_mb(), "MB");
    for (code, count) in &result.tally.codes {
        eprintln!("lzbench: {}: {count} failed with {code}", w.name());
    }
    result
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("lzbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(w) = args.workload else {
        std::process::exit(suite::run(&args));
    };
    let seconds = if args.smoke { args.seconds.min(1.0) } else { args.seconds };
    let result = if args.trace {
        layers::run(w, args.seed, seconds, args.smoke, args.trace_out.as_deref())
    } else {
        end_to_end(w, args.seed, seconds, args.smoke)
    };
    if let Some(m) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("lzbench: {}: metric {} is not a finite number", w.name(), m.name);
        std::process::exit(6);
    }
    println!("{}", result.to_json().render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = args("--workload serve-durable --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::ServeDurable));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
    }
}
