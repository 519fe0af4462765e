//! `throughput` — dependency-free wall-clock harness for the software fast
//! path.
//!
//! Measures, per workload, with plain `std::time::Instant` (no external
//! benchmark framework):
//!
//! 1. the cycle-accurate hardware model (`HwCompressor`): wall time to
//!    *simulate* the token stream, plus its modelled FPGA throughput
//!    (cycles at the 100 MHz design clock);
//! 2. the zlib encode stage on those tokens — this stage is shared verbatim
//!    by the model and turbo paths, so it is timed once and counted into
//!    both end-to-end walls;
//! 3. the turbo engine single-threaded on the whole input, asserting its
//!    token stream equals the model's (and therefore its zlib bytes);
//! 4. the chunk-parallel turbo path at 1/2/4 workers, asserting the stream
//!    is byte-identical at every worker count, plus the *modelled*
//!    multi-engine speedup for the same chunk set at 1/2/4 instances (on a
//!    single-core host the wall clock cannot show thread scaling, the cycle
//!    model can).
//!
//! The headline `speedup_engine` compares like for like — `HwCompressor`
//! token production against `TurboEngine` token production;
//! `speedup_end_to_end` additionally folds in the shared encode stage.
//!
//! Every measurement is min-of-N, and the *value* reported alongside a wall
//! time is the value produced by that fastest repetition — so attached
//! telemetry describes the run that set the headline number, not whichever
//! run happened to come last.
//!
//! It also times the turbo engine at `CompressionLevel::Max` (the `deep`
//! section), the regime where long matches leave the first word.
//!
//! Results land in `BENCH_throughput.json` (schema documented in
//! `DESIGN.md`). With `--metrics PATH` the harness additionally collects
//! per-path telemetry (hardware-model state/counter breakdown, probed turbo
//! counters, parallel-pipeline worker stats), embeds it as a `telemetry`
//! section per workload, and writes the same data as JSONL events to PATH.
//!
//! With `--gate BASELINE.json` the harness compares the fresh run against a
//! committed report and fails (exit 1) on a throughput regression. The gate
//! metric is the mixed corpus's `speedup_engine` — turbo wall vs the cycle
//! model's wall *on the same host and run*, so host speed cancels and the
//! number is comparable across machines, unlike absolute MB/s. A drop of
//! more than 10 % fails.
//!
//! Usage:
//!
//! ```text
//! throughput [--size BYTES] [--seed N] [--out PATH] [--metrics PATH]
//!            [--gate BASELINE.json] [--append-trajectory TRAJ.json] [--rev REV]
//!            [--obs-gate PCT] [--obs-only]
//!            [--check-trajectory TRAJ.json] [--frozen COMMITTED.json]
//! ```
//!
//! `--gate` accepts either a single committed report or a trajectory file
//! (`lzfpga-bench/trajectory/v1`); for a trajectory the *first* entry is the
//! frozen baseline. `--append-trajectory` records this run (host-normalised
//! speedups, a per-phase wall breakdown, plus the `--rev` label, typically a
//! git short hash) as a new entry in the append-only `trajectory` array,
//! creating the file — seeded from the `--gate` legacy report when one is
//! given — if it is missing. The trajectory is the per-PR history the old
//! overwrite-style `BENCH_throughput.json` could not keep.
//!
//! `--obs-gate PCT` measures the end-to-end cost of *enabled* telemetry
//! probes (probed tokenize + encode vs plain tokenize + encode on the mixed
//! corpus) and fails if the corrected overhead exceeds PCT percent. Host
//! scheduler and codegen noise on a shared core swings single measurements
//! by ±10–20%, far above the true probe cost, so the estimator is built to
//! survive it: each attempt runs order-alternating interleaved
//! probed-vs-plain pairs, takes the *median* per-pair ratio, and divides out
//! a null (plain-vs-plain) pair ratio measured the same way; the gate value
//! is the *minimum* corrected overhead across attempts — noise only inflates
//! a paired estimate, so the min is the tightest sound upper bound the host
//! can produce. The measured value is embedded in any trajectory entry
//! appended by the same run (`obs_overhead_pct`).
//!
//! `--check-trajectory` validates a trajectory file without running the
//! harness sweep: schema, at least one entry, unique revs, and a gate
//! workload in every entry. With `--frozen COMMITTED.json` (the version of
//! the file at HEAD) it additionally proves the committed entries are an
//! unchanged prefix of the candidate — the file is append-only and entry 0,
//! the frozen baseline, never moves. `--obs-only` skips the workload sweep
//! so CI can run just the checks.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use lzfpga_core::compressor::HwCompressor;
use lzfpga_core::config::CLOCK_HZ;
use lzfpga_core::HwConfig;
use lzfpga_deflate::encoder::BlockKind;
use lzfpga_deflate::zlib::zlib_compress_tokens;
use lzfpga_lzss::{simd, CompressionLevel, TurboEngine};
use lzfpga_parallel::{compress_parallel, EngineKind, ParallelConfig};
use lzfpga_telemetry::json::obj;
use lzfpga_telemetry::{JsonValue, JsonlWriter, TurboCounters};
use lzfpga_workloads::{generate, Corpus};

/// Chunk size for the parallel section.
const CHUNK_BYTES: usize = 64 * 1024;
/// Worker counts exercised in the parallel section.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Timing repetitions for the (fast) turbo paths; the minimum is reported.
/// Nine reps because the reference host is a single shared core: individual
/// walls swing by 20%+ under scheduler noise, and only min-of-many converges
/// on the unperturbed time.
const TURBO_REPS: usize = 9;
/// Timing repetitions for the cycle model. Also min-of-N: the model is slow
/// but host scheduling noise easily exceeds 2x, so one sample is not a
/// measurement.
const MODEL_REPS: usize = 5;
/// Relative `speedup_engine` drop (vs the committed baseline) that fails
/// the `--gate` check.
const GATE_TOLERANCE: f64 = 0.10;
/// The workload the gate compares (the mixed corpus exercises every match
/// regime: text, binary records, JSON, near-random).
const GATE_WORKLOAD: &str = "mixed";
/// Input size for the observability-overhead estimator: large enough that
/// one tokenize+encode pass dwarfs timer granularity, small enough that
/// three attempts of interleaved pairs stay under a minute on a slow host.
const OBS_BYTES: usize = 4 * 1024 * 1024;
/// Interleaved probed-vs-plain pairs per overhead attempt.
const OBS_REPS: usize = 9;
/// Independent attempts; the minimum corrected overhead is the gate value.
const OBS_ATTEMPTS: usize = 3;

/// Min-of-N timing. Returns the best wall time *and the value that best
/// repetition produced*, so any telemetry attached to the value describes
/// the reported measurement rather than the last run.
fn measure<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best: Option<(f64, T)> = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let v = f();
        let wall = t0.elapsed().as_secs_f64();
        let improves = match &best {
            None => true,
            Some((b, _)) => wall < *b,
        };
        if improves {
            best = Some((wall, v));
        }
    }
    best.expect("at least one rep")
}

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        0.0
    } else {
        bytes as f64 / 1e6 / secs
    }
}

/// Minimal JSON emission: we only need objects, arrays, strings that are
/// plain identifiers, numbers, and booleans.
fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".into()
    }
}

/// Host description for the report: the architecture and the match
/// kernel this build compiled, so a committed number can always be traced
/// to the compare that produced it.
fn host_json() -> String {
    format!("{{\"arch\":\"{}\",\"isa\":\"{}\"}}", std::env::consts::ARCH, simd::KERNEL)
}

/// Read `workloads[name == workload]`'s engine speedup out of a single
/// report or trajectory entry. Full reports (v2–v4) nest the metric under
/// `turbo`; compact trajectory entries record it flat.
fn workload_speedup(node: &JsonValue, workload: &str) -> Option<f64> {
    for w in node.get("workloads")?.as_array()? {
        if w.get("name").and_then(JsonValue::as_str) == Some(workload) {
            return w
                .get("speedup_engine")
                .or_else(|| w.get("turbo").and_then(|t| t.get("speedup_engine")))
                .and_then(JsonValue::as_f64);
        }
    }
    None
}

/// Read the gate metric out of a committed baseline. Accepts both shapes:
/// a single throughput report (v2–v4), or a trajectory file
/// (`lzfpga-bench/trajectory/v1`) whose *first* entry is the frozen
/// baseline — later entries are the per-PR history and never move the bar.
fn baseline_speedup(root: &JsonValue, workload: &str) -> Result<f64, String> {
    let node = match root.get("trajectory").and_then(JsonValue::as_array) {
        Some(entries) => entries.first().ok_or("trajectory baseline has no entries")?,
        None => root,
    };
    workload_speedup(node, workload)
        .ok_or_else(|| format!("baseline has no speedup_engine for workload {workload}"))
}

/// Convert a committed legacy report into a compact trajectory entry so a
/// freshly created trajectory file keeps gating against the same numbers
/// the old overwrite-style baseline used.
fn legacy_baseline_entry(report: &JsonValue) -> Option<String> {
    let mut rows = Vec::new();
    for w in report.get("workloads")?.as_array()? {
        let name = w.get("name").and_then(JsonValue::as_str)?;
        let turbo = w.get("turbo")?;
        let f = |node: &JsonValue, key: &str| node.get(key).and_then(JsonValue::as_f64);
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"name\":\"{name}\",\"speedup_engine\":{},\"mb_per_s\":{}}}",
            json_f(f(turbo, "speedup_engine")?),
            json_f(f(turbo, "mb_per_s").unwrap_or(0.0)),
        );
        rows.push(row);
    }
    Some(format!(
        "{{\"rev\":\"baseline\",\"seed\":{},\"host\":{},\"workloads\":[{}]}}",
        report.get("seed").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
        report.get("host").map(|h| h.render()).unwrap_or_else(|| "null".into()),
        rows.join(","),
    ))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite wall-time ratios"));
    v[v.len() / 2]
}

/// Measured end-to-end overhead (%) of enabled telemetry probes on the
/// mixed corpus: probed tokenize + shared zlib encode vs the plain pair.
/// See the module docs for why this is an order-alternating paired design
/// with a null correction and a min-of-attempts gate value.
fn obs_overhead_pct() -> f64 {
    let data = generate(Corpus::Mixed, 42, OBS_BYTES);
    let cfg = HwConfig::paper_fast();
    let params = cfg.as_lzss_params();
    let window = cfg.window_size.max(256);
    let mut engine = TurboEngine::new();
    let mut tokens = Vec::new();

    let plain = |engine: &mut TurboEngine, tokens: &mut Vec<_>| {
        let t0 = Instant::now();
        engine.compress_into(&data, &params, tokens);
        let out = zlib_compress_tokens(tokens, &data, BlockKind::FixedHuffman, window);
        std::hint::black_box(&out);
        t0.elapsed().as_secs_f64()
    };
    let probed = |engine: &mut TurboEngine, tokens: &mut Vec<_>| {
        let mut c = TurboCounters::default();
        let t0 = Instant::now();
        engine.compress_into_probed(&data, &params, tokens, &mut c);
        let out = zlib_compress_tokens(tokens, &data, BlockKind::FixedHuffman, window);
        std::hint::black_box((&out, &c.probes));
        t0.elapsed().as_secs_f64()
    };

    // Warm both paths so neither side pays first-touch page faults.
    plain(&mut engine, &mut tokens);
    probed(&mut engine, &mut tokens);

    let mut best = f64::MAX;
    for attempt in 0..OBS_ATTEMPTS {
        let mut on_ratios = Vec::new();
        let mut null_ratios = Vec::new();
        for i in 0..OBS_REPS {
            // Alternate the order inside each pair so a slow-start bias
            // (frequency ramp, cache warmth) cancels instead of loading
            // onto one side.
            let (a, b) = if i % 2 == 0 {
                let p = plain(&mut engine, &mut tokens);
                let q = probed(&mut engine, &mut tokens);
                (p, q)
            } else {
                let q = probed(&mut engine, &mut tokens);
                let p = plain(&mut engine, &mut tokens);
                (p, q)
            };
            on_ratios.push(b / a);
            // A plain-vs-plain pair measured identically estimates the
            // host's pair-to-pair noise floor; dividing it out centres a
            // zero-cost probe at 0%.
            let x = plain(&mut engine, &mut tokens);
            let y = plain(&mut engine, &mut tokens);
            null_ratios.push(if i % 2 == 0 { y / x } else { x / y });
        }
        let corrected = (median(on_ratios) / median(null_ratios) - 1.0) * 100.0;
        println!("obs gate: attempt {attempt}: corrected overhead {corrected:+.2}%");
        best = best.min(corrected);
    }
    best
}

/// Pull the `trajectory` entry array out of a parsed trajectory document.
fn trajectory_entries(root: &JsonValue, path: &str) -> Result<Vec<JsonValue>, String> {
    if root.get("schema").and_then(JsonValue::as_str) != Some("lzfpga-bench/trajectory/v1") {
        return Err(format!("{path}: schema is not lzfpga-bench/trajectory/v1"));
    }
    root.get("trajectory")
        .and_then(JsonValue::as_array)
        .map(|entries| entries.to_vec())
        .ok_or_else(|| format!("{path} has no trajectory array"))
}

/// Structural validation of a trajectory file: schema, at least one entry,
/// a rev on every entry with no duplicates, and a gate-workload speedup in
/// every entry. With `frozen` (the committed version of the same file) the
/// committed entries must be an unchanged prefix of the candidate — that is
/// what "append-only" means, and it keeps entry 0, the frozen baseline the
/// gate compares against, immutable.
fn check_trajectory(path: &str, frozen: Option<&str>) -> Result<(), String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let root =
        lzfpga_telemetry::json::parse(&doc).map_err(|e| format!("{path} parse error: {e:?}"))?;
    let entries = trajectory_entries(&root, path)?;
    if entries.is_empty() {
        return Err(format!("{path}: trajectory has no entries (baseline missing)"));
    }
    let mut revs: Vec<&str> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let rev = e
            .get("rev")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{path}: entry {i} has no rev"))?;
        if revs.contains(&rev) {
            return Err(format!("{path}: duplicate rev {rev:?} at entry {i}"));
        }
        revs.push(rev);
        workload_speedup(e, GATE_WORKLOAD).ok_or_else(|| {
            format!("{path}: entry {i} ({rev}) has no {GATE_WORKLOAD} speedup_engine")
        })?;
    }
    if let Some(frozen_path) = frozen {
        let doc = std::fs::read_to_string(frozen_path)
            .map_err(|e| format!("reading {frozen_path}: {e}"))?;
        let froot = lzfpga_telemetry::json::parse(&doc)
            .map_err(|e| format!("{frozen_path} parse error: {e:?}"))?;
        let committed = trajectory_entries(&froot, frozen_path)?;
        if committed.len() > entries.len() {
            return Err(format!(
                "{path}: {} entries but the committed file has {} — history was deleted",
                entries.len(),
                committed.len()
            ));
        }
        for (i, (old, new)) in committed.iter().zip(&entries).enumerate() {
            if old.render() != new.render() {
                let what = if i == 0 {
                    "the frozen baseline (entry 0)".to_string()
                } else {
                    format!("entry {i}")
                };
                return Err(format!(
                    "{path}: {what} differs from the committed file — the trajectory is \
                     append-only; refresh with scripts/bench_gate.sh --refresh if the baseline \
                     must move"
                ));
            }
        }
    }
    println!(
        "check-trajectory: {path} ok ({} entries, revs unique, baseline {:?}{})",
        entries.len(),
        revs[0],
        if frozen.is_some() { ", committed prefix unchanged" } else { "" }
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let mut size = 1 << 20;
    let mut seed = 1u64;
    let mut out_path = String::from("BENCH_throughput.json");
    let mut metrics_path: Option<String> = None;
    let mut gate_path: Option<String> = None;
    let mut traj_path: Option<String> = None;
    let mut rev = String::from("unknown");
    let mut obs_gate: Option<f64> = None;
    let mut obs_only = false;
    let mut check_traj: Option<String> = None;
    let mut frozen: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--size" => {
                size = val("--size")?.parse().map_err(|_| "--size takes bytes".to_string())?;
            }
            "--seed" => {
                seed = val("--seed")?.parse().map_err(|_| "--seed takes a number".to_string())?;
            }
            "--out" => out_path = val("--out")?,
            "--metrics" => metrics_path = Some(val("--metrics")?),
            "--gate" => gate_path = Some(val("--gate")?),
            "--append-trajectory" => traj_path = Some(val("--append-trajectory")?),
            "--rev" => rev = val("--rev")?,
            "--obs-gate" => {
                obs_gate = Some(
                    val("--obs-gate")?
                        .parse()
                        .map_err(|_| "--obs-gate takes a percentage".to_string())?,
                );
            }
            "--obs-only" => obs_only = true,
            "--check-trajectory" => check_traj = Some(val("--check-trajectory")?),
            "--frozen" => frozen = Some(val("--frozen")?),
            other => {
                return Err(format!(
                    "unknown argument {other} (try --size/--seed/--out/--metrics/--gate/\
                     --append-trajectory/--rev/--obs-gate/--obs-only/--check-trajectory/--frozen)"
                ))
            }
        }
    }
    let telemetry = metrics_path.is_some();

    if let Some(path) = &check_traj {
        check_trajectory(path, frozen.as_deref())?;
    }
    let obs_pct = if let Some(budget) = obs_gate {
        let pct = obs_overhead_pct();
        println!(
            "obs gate: enabled-telemetry overhead {pct:+.2}% on the {GATE_WORKLOAD} corpus \
             (budget {budget:.1}%)"
        );
        if pct > budget {
            return Err(format!(
                "observability overhead {pct:+.2}% exceeds the {budget:.1}% budget: enabled \
                 probes are no longer close to free — check for allocation or branching added \
                 to a probed hot loop"
            ));
        }
        println!("obs gate: ok");
        Some(pct)
    } else {
        None
    };
    if obs_only {
        if check_traj.is_none() && obs_gate.is_none() {
            return Err("--obs-only without --obs-gate or --check-trajectory does nothing".into());
        }
        return Ok(());
    }

    // The first four span the paper's match regimes; the last two are
    // repetition-heavy (long matches at short distance), where compares
    // run past the first word.
    let workloads = [
        Corpus::Mixed,
        Corpus::Wiki,
        Corpus::X2e,
        Corpus::JsonTelemetry,
        Corpus::LogLines,
        Corpus::Periodic { period: 512 },
    ];
    let hw = HwConfig::paper_fast();
    let mut engine = TurboEngine::new();
    let mut entries = Vec::new();
    let mut metric_events: Vec<(String, JsonValue)> = Vec::new();
    let mut gate_current: Option<f64> = None;
    let mut traj_rows: Vec<String> = Vec::new();

    println!(
        "throughput harness: {} workloads x {} bytes, seed {seed} (host cores: {}, kernel: {})",
        workloads.len(),
        size,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd::KERNEL
    );

    for corpus in workloads {
        let name = corpus.name();
        let data = generate(corpus, seed, size);

        // 1. Cycle-accurate model (the slow side — but still min-of-N).
        let (model_engine_wall, run) =
            measure(MODEL_REPS, || HwCompressor::new(hw).compress(&data));
        let model_mb_modelled = run.mb_per_s(CLOCK_HZ);

        // 2. The shared zlib encode stage: identical tokens in, identical
        //    bytes out for both paths, so one measurement serves both sums.
        let window = hw.window_size.max(256);
        let (encode_wall, compressed) = measure(TURBO_REPS, || {
            zlib_compress_tokens(&run.tokens, &data, BlockKind::FixedHuffman, window)
        });
        let ratio =
            if compressed.is_empty() { 0.0 } else { data.len() as f64 / compressed.len() as f64 };
        let model_wall = model_engine_wall + encode_wall;

        // 3. Turbo engine, single thread, whole input, reused arenas.
        let (turbo_tokens_wall, turbo_tokens) =
            measure(TURBO_REPS, || engine.compress(&data, &hw.as_lzss_params()));
        assert_eq!(turbo_tokens, run.tokens, "{name}: turbo tokens diverge from the model");
        let turbo_wall = turbo_tokens_wall + encode_wall;
        let engine_speedup = model_engine_wall / turbo_tokens_wall.max(1e-12);
        let turbo_speedup = model_wall / turbo_wall.max(1e-12);
        if name == GATE_WORKLOAD {
            gate_current = Some(engine_speedup);
        }

        // 3b. Deep profile: the same engine at `CompressionLevel::Max`
        //     (nice_length 258 instead of the fast profile's 8), where
        //     compares run past the first word.
        let mut deep_params = hw.as_lzss_params();
        deep_params.level = CompressionLevel::Max;
        let (deep_wall, _) = measure(TURBO_REPS, || engine.compress(&data, &deep_params));

        // Probed turbo pass, outside the timed loop: the counters describe
        // the same token stream (the probed run is token-identical), and the
        // timed numbers stay free of instrumentation overhead.
        let turbo_counters = telemetry.then(|| {
            let mut counters = TurboCounters::default();
            let mut tokens = Vec::new();
            engine.compress_into_probed(&data, &hw.as_lzss_params(), &mut tokens, &mut counters);
            assert_eq!(tokens, run.tokens, "{name}: probed turbo tokens diverge");
            counters
        });

        // 4. Chunk-parallel turbo at several worker counts. One modelled
        //    run provides both the byte-identity baseline and the per-chunk
        //    cycle counts for the multi-engine makespan model.
        let modelled_par = compress_parallel(
            &data,
            &ParallelConfig {
                chunk_bytes: CHUNK_BYTES,
                workers: 1,
                instances: 1,
                hw,
                engine: EngineKind::Modelled,
                telemetry: false,
            },
        )
        .map_err(|e| format!("modelled parallel config: {e}"))?;
        let chunk_cycles: Vec<u64> = modelled_par.chunks.iter().map(|c| c.cycles).collect();

        let mut parallel_entries = Vec::new();
        let mut pipeline_telemetry: Option<JsonValue> = None;
        let mut parallel_wall = 0.0f64;
        for workers in WORKER_COUNTS {
            let cfg = ParallelConfig {
                chunk_bytes: CHUNK_BYTES,
                workers,
                instances: 1,
                hw,
                engine: EngineKind::Turbo,
                telemetry,
            };
            let (wall, rep) =
                measure(TURBO_REPS, || compress_parallel(&data, &cfg).expect("valid turbo config"));
            assert_eq!(
                rep.compressed, modelled_par.compressed,
                "{name}: parallel output changed at {workers} workers"
            );
            // Modelled multi-engine makespan with `workers` instances,
            // round-robin like the ParallelReport model.
            let mut load = vec![0u64; workers];
            for (i, c) in chunk_cycles.iter().enumerate() {
                load[i % workers] += c;
            }
            let total: u64 = chunk_cycles.iter().sum();
            let makespan = load.into_iter().max().unwrap_or(0);
            let modelled_speedup = if makespan == 0 { 1.0 } else { total as f64 / makespan as f64 };
            // Telemetry of the *best* repetition — `measure` already keeps
            // the value paired with the minimum wall time.
            let pipeline_json = rep.telemetry.as_ref().map(|t| t.to_json());
            let pipeline_field = pipeline_json
                .as_ref()
                .map(|j| format!(",\"pipeline\":{}", j.render()))
                .unwrap_or_default();
            if workers == *WORKER_COUNTS.last().expect("non-empty") {
                pipeline_telemetry = pipeline_json;
                parallel_wall = wall;
            }
            parallel_entries.push(format!(
                "{{\"workers\":{workers},\"wall_s\":{},\"mb_per_s\":{},\"identical\":true,\
                 \"modelled_engine_speedup\":{}{pipeline_field}}}",
                json_f(wall),
                json_f(mb_per_s(data.len(), wall)),
                json_f(modelled_speedup)
            ));
        }

        // Compact row for the append-only trajectory: the host-normalised
        // ratios, one raw MB/s figure for context, and a per-phase wall
        // breakdown (model tokenize, turbo tokenize, shared encode, and the
        // max-worker parallel pass) so a regression can be localised to a
        // phase from the history alone — the full report carries everything
        // else.
        let mut traj_row = String::new();
        let _ = write!(
            traj_row,
            "{{\"name\":\"{name}\",\"speedup_engine\":{},\"mb_per_s\":{},\
             \"phases\":{{\"model_s\":{},\"tokens_s\":{},\"encode_s\":{},\"parallel_s\":{}}}}}",
            json_f(engine_speedup),
            json_f(mb_per_s(data.len(), turbo_wall)),
            json_f(model_engine_wall),
            json_f(turbo_tokens_wall),
            json_f(encode_wall),
            json_f(parallel_wall),
        );
        traj_rows.push(traj_row);

        println!(
            "  {name:<16} ratio {ratio:>5.2}  model {:>7.2} MB/s ({model_mb_modelled:>6.1} modelled)  \
             turbo {:>7.2} MB/s  engine {engine_speedup:>5.2}x  e2e {turbo_speedup:>5.2}x  \
             deep {:>7.2} MB/s",
            mb_per_s(data.len(), model_engine_wall),
            mb_per_s(data.len(), turbo_tokens_wall),
            mb_per_s(data.len(), deep_wall),
        );

        // One object holding all three execution paths' telemetry; embedded
        // in the report and mirrored to the JSONL event stream.
        let telemetry_field = if telemetry {
            let counters = turbo_counters.as_ref().expect("probed when telemetry on");
            let section = obj([
                ("hw", run.telemetry_json()),
                ("turbo", counters.to_json()),
                ("parallel", pipeline_telemetry.take().unwrap_or(JsonValue::Null)),
            ]);
            metric_events.push((
                name.to_string(),
                obj([
                    ("workload", name.clone().into()),
                    ("bytes", (data.len() as u64).into()),
                    ("telemetry", section.clone()),
                ]),
            ));
            format!(",\"telemetry\":{}", section.render())
        } else {
            String::new()
        };

        let mut e = String::new();
        let _ = write!(
            e,
            "{{\"name\":\"{name}\",\"bytes\":{},\"ratio\":{},\"encode_wall_s\":{},\
             \"model\":{{\"engine_wall_s\":{},\"wall_s\":{},\"mb_per_s_wall\":{},\"mb_per_s_modelled\":{},\"cycles\":{}}},\
             \"turbo\":{{\"tokens_wall_s\":{},\"wall_s\":{},\"mb_per_s\":{},\"speedup_engine\":{},\
             \"speedup_end_to_end\":{},\"identical_to_model\":true,\
             \"deep\":{{\"level\":\"max\",\"tokens_wall_s\":{},\"mb_per_s\":{}}}}},\
             \"parallel\":{{\"chunk_bytes\":{CHUNK_BYTES},\"runs\":[{}]}}{telemetry_field}}}",
            data.len(),
            json_f(ratio),
            json_f(encode_wall),
            json_f(model_engine_wall),
            json_f(model_wall),
            json_f(mb_per_s(data.len(), model_wall)),
            json_f(model_mb_modelled),
            run.cycles,
            json_f(turbo_tokens_wall),
            json_f(turbo_wall),
            json_f(mb_per_s(data.len(), turbo_wall)),
            json_f(engine_speedup),
            json_f(turbo_speedup),
            json_f(deep_wall),
            json_f(mb_per_s(data.len(), deep_wall)),
            parallel_entries.join(",")
        );
        entries.push(e);
    }

    let json = format!(
        "{{\"schema\":\"lzfpga-bench/throughput/v4\",\"seed\":{seed},\"clock_hz\":{CLOCK_HZ},\
         \"host\":{},\"workloads\":[{}]}}\n",
        host_json(),
        entries.join(",")
    );
    std::fs::write(&out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!("wrote {out_path}");

    if let Some(path) = metrics_path {
        let file = std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut sink = JsonlWriter::new(std::io::BufWriter::new(file));
        for (_, body) in metric_events {
            sink.emit("workload", body).map_err(|e| format!("writing {path}: {e}"))?;
        }
        sink.finish().map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }

    let mut gate_root: Option<JsonValue> = None;
    if let Some(path) = &gate_path {
        let report =
            std::fs::read_to_string(path).map_err(|e| format!("reading baseline {path}: {e}"))?;
        let root = lzfpga_telemetry::json::parse(&report)
            .map_err(|e| format!("baseline parse error: {e:?}"))?;
        let base = baseline_speedup(&root, GATE_WORKLOAD)?;
        gate_root = Some(root);
        let cur = gate_current.ok_or_else(|| format!("run produced no {GATE_WORKLOAD} entry"))?;
        let floor = base * (1.0 - GATE_TOLERANCE);
        println!(
            "gate: {GATE_WORKLOAD} speedup_engine {cur:.3} vs baseline {base:.3} \
             (floor {floor:.3}, tolerance {:.0}%)",
            GATE_TOLERANCE * 100.0
        );
        if cur < floor {
            return Err(format!(
                "throughput regression: {GATE_WORKLOAD} speedup_engine {cur:.3} is more than \
                 {:.0}% below the committed baseline {base:.3} (floor {floor:.3}); if this is an \
                 intended trade-off, re-run `cargo run --release -p lzfpga-bench --bin \
                 throughput` and commit the refreshed {path}",
                GATE_TOLERANCE * 100.0
            ));
        }
        println!("gate: ok");
    }

    // Append this run to the trajectory file only after the gate has
    // passed: a regressing run should fail CI, not become history.
    if let Some(path) = traj_path {
        let obs_field =
            obs_pct.map(|p| format!(",\"obs_overhead_pct\":{}", json_f(p))).unwrap_or_default();
        let entry_json = format!(
            "{{\"rev\":\"{rev}\",\"seed\":{seed},\"size\":{size},\"host\":{}{obs_field},\
             \"workloads\":[{}]}}",
            host_json(),
            traj_rows.join(","),
        );
        let entry = lzfpga_telemetry::json::parse(&entry_json)
            .map_err(|e| format!("internal: trajectory entry does not parse: {e:?}"))?;
        let mut root = match std::fs::read_to_string(&path) {
            Ok(doc) => lzfpga_telemetry::json::parse(&doc)
                .map_err(|e| format!("trajectory {path} parse error: {e:?}"))?,
            // Fresh file. If the gate baseline was a legacy single-report,
            // freeze it as entry 0 so the bar the trajectory gates against
            // is the same one the overwrite-style baseline enforced.
            Err(_) => {
                let seeded = gate_root
                    .as_ref()
                    .filter(|r| r.get("trajectory").is_none())
                    .and_then(legacy_baseline_entry)
                    .map(|e| format!("[{e}]"))
                    .unwrap_or_else(|| "[]".to_string());
                lzfpga_telemetry::json::parse(&format!(
                    "{{\"schema\":\"lzfpga-bench/trajectory/v1\",\"trajectory\":{seeded}}}"
                ))
                .map_err(|e| format!("internal: trajectory seed does not parse: {e:?}"))?
            }
        };
        let n = match &mut root {
            JsonValue::Object(fields) => match fields.iter_mut().find(|(k, _)| k == "trajectory") {
                Some((_, JsonValue::Array(items))) => {
                    // Revs are unique by contract: re-running the gate on
                    // the same commit must not duplicate history, so an
                    // already-recorded rev is a no-op, not an error.
                    let dup = items
                        .iter()
                        .any(|e| e.get("rev").and_then(JsonValue::as_str) == Some(rev.as_str()));
                    if dup {
                        println!("trajectory already records rev {rev}; not appending again");
                        return Ok(());
                    }
                    items.push(entry);
                    items.len()
                }
                _ => return Err(format!("{path} has no trajectory array")),
            },
            _ => return Err(format!("{path} is not a JSON object")),
        };
        let mut doc = root.render();
        doc.push('\n');
        std::fs::write(&path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        println!("appended trajectory entry for rev {rev} to {path} ({n} entries)");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
