//! `lzfpga` — command-line front-end to the whole stack.
//!
//! ```text
//! lzfpga compress   [--engine hw|turbo] [--format zlib|gzip] [--window N]
//!                   [--hash N] [--level min|medium|max] [--stats]
//!                   [--parallel] [--chunk N] [--workers N]
//!                   [-o OUT] [FILE]        (stdin when FILE is omitted)
//! lzfpga decompress [--max-output-bytes N] [-o OUT] [FILE]
//!                                          (zlib or gzip, auto-detected)
//! lzfpga stats      [--window N] [--hash N] [--level L] [FILE]
//! lzfpga gen        CORPUS SIZE [--seed N] [-o OUT]
//! ```
//!
//! `--engine hw` (default) runs the cycle-accurate hardware model and can
//! report modelled FPGA throughput; `--engine turbo` (also spelled `sw`,
//! `software` or `fast`) runs the software engine, the turbo matcher: the
//! same output as `hw` at the greedy `min` level, plus the lazy
//! `medium`/`max` levels the hardware does not implement, as fast as the
//! host allows. On `decompress`, any engine but `hw` selects the software
//! inflate. `--parallel` compresses in
//! fixed-size chunks on a thread pool — the zlib stream stays byte-for-byte
//! independent of the worker count.

use std::io::{Read, Seek, SeekFrom, Write};
use std::process::ExitCode;
use std::time::Duration;

use lzfpga_container::{
    open_indexed_with, salvage, scan_partial, unframe, DurableFile, FrameConfig, FrameWriter,
    FramedSummary, DEFAULT_CACHE_BYTES,
};
use lzfpga_core::pipeline::{compress_to_zlib, turbo_compress_to_zlib};
use lzfpga_core::{DecompConfig, HwConfig, HwDecompressor, HwState};
use lzfpga_deflate::crc32::Crc32;
use lzfpga_deflate::encoder::BlockKind;
use lzfpga_deflate::gzip::{gzip_compress_tokens, gzip_decompress_limited};
use lzfpga_deflate::zlib::{zlib_compress_tokens, zlib_decompress, zlib_decompress_limited};
use lzfpga_deflate::Limits;
use lzfpga_lzss::params::CompressionLevel;
use lzfpga_obs::bridge::{record_frames, record_pipeline, record_turbo};
use lzfpga_obs::{
    frame_span_tree, prometheus_text, snapshot_to_json, MetricsRegistry, StatsAggregate,
};
use lzfpga_parallel::{
    compress_frames_parallel, compress_parallel, decode_range_parallel, decompress_frames_parallel,
    EngineKind, ParallelConfig,
};
use lzfpga_server::{connect_with_retry, Client, ClientError, RetryPolicy, Server, ServerConfig};
use lzfpga_telemetry::json::obj;
use lzfpga_telemetry::{trace_events_json, FrameEvent, JsonValue, JsonlWriter, TurboCounters};
use lzfpga_workloads::Corpus;

const USAGE: &str = "\
lzfpga <compress|decompress|frame|unframe|salvage|resume|stats|serve|client|gen|trace|rtl> [options]

  compress   [--engine hw|turbo] [--format zlib|gzip] [--window N] [--hash N]
             [--level min|medium|max] [--dict FILE] [--stats]
             [--parallel] [--chunk N] [--workers N]
             [--metrics OUT.jsonl] [--trace-events OUT.json]
             [--prometheus OUT.prom] [-o OUT] [FILE]
  decompress [--engine hw|turbo] [--dict FILE] [--max-output-bytes N] [-o OUT] [FILE]
  frame      [--engine hw|turbo] [--window N] [--hash N] [--level L]
             [--frame-size N] [--parallel] [--workers N] [--stats]
             [--metrics OUT.jsonl] [--trace-events OUT.json]
             [--prometheus OUT.prom] [-o OUT] [FILE]  (LZFC framed container)
  unframe    [--parallel] [--workers N] [--metrics OUT.jsonl]
             [--trace-events OUT.json] [-o OUT] [FILE]
  cat        --range A..B [--cache-bytes N] [--parallel] [--workers N]
             [--stats] [--metrics OUT.jsonl] [-o OUT] [FILE]
                           (random-access decode of bytes A..B of the
                            original input, via the stream's seek index)
  salvage    [--stats] [--metrics OUT.jsonl] [--trace-events OUT.json]
             [-o OUT] [FILE]
                           (recover what survives of a damaged LZFC stream)
  resume     [--frame-size N] [--metrics OUT.jsonl] [--trace-events OUT.json]
             -o OUT FILE   (finish an interrupted `frame` from OUT.part)
  stats      [--window N] [--hash N] [--level L] [--metrics OUT.jsonl] [FILE]
  stats      [--follow] METRICS.jsonl
                           (aggregate a --metrics stream: p50/p99 frame
                            latency, MB/s, cache hit rate;
                            --follow keeps tailing the file)
  serve      [--addr HOST:PORT] [--workers N] [--frame-size N] [--chunk N]
             [--deadline-ms N] [--drain-ms N] [--allow-shutdown]
             [--state-dir DIR] [--resume-ttl-ms N] [--port-file FILE]
             [--metrics OUT.jsonl] [--prometheus OUT.prom]
                           (LZS1 compression daemon: admission control,
                            per-tenant quotas, backpressure, graceful drain;
                            --state-dir journals every session so a killed
                            server can serve Resume after restart)
  client     --addr HOST:PORT <compress|decompress|range|shutdown>
             [--tenant NAME] [--frame-size N] [--deadline-ms N]
             [--range A..B] [--max-output-bytes N] [--drain-ms N]
             [--retry N] [--retry-budget-ms N] [--resume]
             [-o OUT] [FILE]                 (one request against a server;
                            --retry backs off with jitter on transient
                            rejections, --resume continues a journaled
                            session after a server crash)
  gen        CORPUS SIZE [--seed N] [-o OUT]
  trace      [--window N] [--hash N] [--format vcd|trace-events]
             [-o OUT] [FILE]                                (waveform export)
  rtl        [--window N] [--hash N] -o OUT_DIR             (VHDL bundle)

FILE defaults to stdin; OUT defaults to stdout.
--engine sw (or software, fast) is turbo, the software engine; on decompress
it selects the software inflate.
File outputs are atomic (staged then renamed); `frame -o OUT` streams durable
frames into OUT.part and renames on completion, so a crash leaves a resumable
prefix. `resume` must use the same --frame-size as the interrupted run.
--metrics writes per-run telemetry as JSON Lines through the unified metrics
registry (the last line is the registry snapshot; `lzfpga stats FILE.jsonl`
aggregates one or many such files). --prometheus also exports the snapshot in
Prometheus text exposition format. --trace-events writes a chrome://tracing /
Perfetto trace: compress needs --parallel; frame/resume rebuild the causal
file->frame->stage tree on every path.
`cat --range A..B` slices the *uncompressed* byte space (END omitted = EOF);
streams without an index are served through a scan, damaged streams through
salvage (exact prefix only). --cache-bytes bounds the decoded-frame cache.
Corpora: wiki, x2e-can, log-lines, json-telemetry, sensor-frames, wiki-xml,
         random, constant, collision-stress, periodic-<N>.";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The cycle-accurate hardware model.
    Hw,
    /// The software engine: the turbo matcher (software inflate on
    /// `decompress`).
    Turbo,
}

impl Engine {
    /// The matcher's name in `--metrics` run events.
    fn name(self) -> &'static str {
        match self {
            Engine::Hw => "hw",
            Engine::Turbo => "turbo",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Zlib,
    Gzip,
}

/// Output format for the `trace` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Vcd,
    TraceEvents,
}

#[derive(Debug)]
struct CommonOpts {
    engine: Engine,
    format: Format,
    trace_format: TraceFormat,
    window: u32,
    hash: u32,
    level: CompressionLevel,
    stats: bool,
    dict: Option<String>,
    output: Option<String>,
    input: Option<String>,
    seed: u64,
    parallel: bool,
    chunk_bytes: usize,
    frame_bytes: usize,
    workers: usize,
    metrics: Option<String>,
    trace_events: Option<String>,
    prometheus: Option<String>,
    follow: bool,
    max_output_bytes: Option<u64>,
    range: Option<(u64, u64)>,
    cache_bytes: usize,
    addr: Option<String>,
    tenant: String,
    deadline_ms: u32,
    drain_ms: u64,
    allow_shutdown: bool,
    state_dir: Option<String>,
    port_file: Option<String>,
    resume_ttl_ms: u64,
    retry: u32,
    retry_budget_ms: u64,
    resume: bool,
    positional: Vec<String>,
}

impl Default for CommonOpts {
    fn default() -> Self {
        Self {
            engine: Engine::Hw,
            format: Format::Zlib,
            trace_format: TraceFormat::Vcd,
            window: 4_096,
            hash: 15,
            level: CompressionLevel::Min,
            stats: false,
            dict: None,
            output: None,
            input: None,
            seed: 1,
            parallel: false,
            chunk_bytes: 256 * 1024,
            frame_bytes: 256 * 1024,
            workers: 0,
            metrics: None,
            trace_events: None,
            prometheus: None,
            follow: false,
            max_output_bytes: None,
            range: None,
            cache_bytes: DEFAULT_CACHE_BYTES,
            addr: None,
            tenant: "cli".to_string(),
            deadline_ms: 0,
            drain_ms: 5_000,
            allow_shutdown: false,
            state_dir: None,
            port_file: None,
            resume_ttl_ms: 600_000,
            retry: 0,
            retry_budget_ms: 30_000,
            resume: false,
            positional: Vec::new(),
        }
    }
}

fn parse_opts(args: &[String]) -> Result<CommonOpts, String> {
    let mut o = CommonOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--engine" => {
                o.engine = match value("--engine")?.as_str() {
                    "hw" | "hardware" => Engine::Hw,
                    "turbo" | "fast" | "sw" | "software" => Engine::Turbo,
                    other => return Err(format!("unknown engine '{other}'")),
                }
            }
            "--format" => match value("--format")?.as_str() {
                "zlib" => o.format = Format::Zlib,
                "gzip" | "gz" => o.format = Format::Gzip,
                "vcd" => o.trace_format = TraceFormat::Vcd,
                "trace-events" | "chrome" => o.trace_format = TraceFormat::TraceEvents,
                other => return Err(format!("unknown format '{other}'")),
            },
            "--window" => {
                o.window =
                    value("--window")?.parse().map_err(|_| "bad --window value".to_string())?;
            }
            "--hash" => {
                o.hash = value("--hash")?.parse().map_err(|_| "bad --hash value".to_string())?;
            }
            "--level" => {
                o.level = match value("--level")?.as_str() {
                    "min" | "fast" => CompressionLevel::Min,
                    "med" | "medium" => CompressionLevel::Medium,
                    "max" | "best" => CompressionLevel::Max,
                    other => return Err(format!("unknown level '{other}'")),
                }
            }
            "--seed" => {
                o.seed = value("--seed")?.parse().map_err(|_| "bad --seed value".to_string())?;
            }
            "--stats" => o.stats = true,
            "--parallel" => o.parallel = true,
            "--chunk" => {
                o.chunk_bytes =
                    value("--chunk")?.parse().map_err(|_| "bad --chunk value".to_string())?;
            }
            "--frame-size" => {
                o.frame_bytes = value("--frame-size")?
                    .parse()
                    .map_err(|_| "bad --frame-size value".to_string())?;
            }
            "--workers" => {
                o.workers =
                    value("--workers")?.parse().map_err(|_| "bad --workers value".to_string())?;
            }
            "--dict" => o.dict = Some(value("--dict")?),
            "--max-output-bytes" => {
                o.max_output_bytes = Some(
                    value("--max-output-bytes")?
                        .parse()
                        .map_err(|_| "bad --max-output-bytes value".to_string())?,
                );
            }
            "--range" => {
                let v = value("--range")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--range wants START..END, got '{v}'"))?;
                let start = a
                    .parse::<u64>()
                    .map_err(|_| format!("--range start '{a}' is not a byte offset"))?;
                let end = if b.is_empty() {
                    u64::MAX
                } else {
                    b.parse::<u64>()
                        .map_err(|_| format!("--range end '{b}' is not a byte offset"))?
                };
                o.range = Some((start, end));
            }
            "--cache-bytes" => {
                o.cache_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|_| "--cache-bytes wants a byte count".to_string())?;
            }
            "--addr" => o.addr = Some(value("--addr")?),
            "--tenant" => o.tenant = value("--tenant")?,
            "--deadline-ms" => {
                o.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "bad --deadline-ms value".to_string())?;
            }
            "--drain-ms" => {
                o.drain_ms =
                    value("--drain-ms")?.parse().map_err(|_| "bad --drain-ms value".to_string())?;
            }
            "--allow-shutdown" => o.allow_shutdown = true,
            "--state-dir" => o.state_dir = Some(value("--state-dir")?),
            "--port-file" => o.port_file = Some(value("--port-file")?),
            "--resume-ttl-ms" => {
                o.resume_ttl_ms = value("--resume-ttl-ms")?
                    .parse()
                    .map_err(|_| "bad --resume-ttl-ms value".to_string())?;
            }
            "--retry" => {
                o.retry = value("--retry")?.parse().map_err(|_| "bad --retry value".to_string())?;
            }
            "--retry-budget-ms" => {
                o.retry_budget_ms = value("--retry-budget-ms")?
                    .parse()
                    .map_err(|_| "bad --retry-budget-ms value".to_string())?;
            }
            "--resume" => o.resume = true,
            "--metrics" => o.metrics = Some(value("--metrics")?),
            "--trace-events" => o.trace_events = Some(value("--trace-events")?),
            "--prometheus" => o.prometheus = Some(value("--prometheus")?),
            "--follow" => o.follow = true,
            "-o" | "--output" => o.output = Some(value("-o")?),
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(format!("unknown option '{flag}'"));
            }
            positional => o.positional.push(positional.to_string()),
        }
    }
    // The last free positional (if any) that is not consumed by a subcommand
    // becomes the input file.
    Ok(o)
}

fn read_input(path: Option<&str>) -> Result<Vec<u8>, String> {
    match path {
        None | Some("-") => {
            let mut buf = Vec::new();
            std::io::stdin().read_to_end(&mut buf).map_err(|e| format!("reading stdin: {e}"))?;
            Ok(buf)
        }
        Some(p) => std::fs::read(p).map_err(|e| format!("reading {p}: {e}")),
    }
}

/// Fsync the directory holding `path`, making a just-renamed entry
/// durable. A `rename` only rewrites the directory; without syncing the
/// directory itself, power loss can forget the promotion even though the
/// file's bytes are safely on disk.
fn fsync_parent(path: &str) -> std::io::Result<()> {
    let parent = std::path::Path::new(path).parent().filter(|p| !p.as_os_str().is_empty());
    let dir = parent.unwrap_or_else(|| std::path::Path::new("."));
    std::fs::File::open(dir)?.sync_all()
}

/// Write `data` to `path` atomically: stage into `<path>.tmp` in the same
/// directory, force the bytes to disk, rename over the destination, then
/// fsync the directory so the rename itself is durable. Readers observe
/// either the old file or the complete new one — never a torn write — and
/// a crash leaves at worst a `.tmp` file behind.
fn atomic_write(path: &str, data: &[u8]) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    let staged = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_data()?;
        std::fs::rename(&tmp, path)?;
        fsync_parent(path)
    })();
    staged.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("writing {path}: {e}")
    })
}

fn write_output(path: Option<&str>, data: &[u8]) -> Result<(), String> {
    match path {
        None | Some("-") => {
            std::io::stdout().write_all(data).map_err(|e| format!("writing stdout: {e}"))
        }
        Some(p) => atomic_write(p, data),
    }
}

/// Rename a finished `.part` staging file to its final name, then fsync
/// the directory so the rename survives power loss.
fn rename_part_into_place(part: &str, dest: &str) -> Result<(), String> {
    std::fs::rename(part, dest).map_err(|e| format!("renaming {part} -> {dest}: {e}"))?;
    fsync_parent(dest).map_err(|e| format!("syncing directory of {dest}: {e}"))
}

fn hw_config(o: &CommonOpts) -> HwConfig {
    let mut cfg = HwConfig::new(o.window, o.hash);
    cfg.level = o.level;
    cfg
}

fn load_dict(o: &CommonOpts) -> Result<Option<Vec<u8>>, String> {
    o.dict
        .as_deref()
        .map(|p| std::fs::read(p).map_err(|e| format!("reading dictionary {p}: {e}")))
        .transpose()
}

/// Write telemetry events to `path` as JSON Lines (atomically, like every
/// other file output).
fn write_metrics(path: &str, events: Vec<(&'static str, JsonValue)>) -> Result<(), String> {
    let mut sink = JsonlWriter::new(Vec::new());
    for (kind, body) in events {
        sink.emit(kind, body).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let buf = sink.finish().map_err(|e| format!("writing {path}: {e}"))?;
    atomic_write(path, &buf)
}

/// Whether this run should collect observability data (counters, frame
/// events, registry snapshots) at all.
fn wants_obs(o: &CommonOpts) -> bool {
    o.metrics.is_some() || o.prometheus.is_some()
}

/// Finish a run's observability: fold the JSON-shaped events the typed
/// bridge adapters do not cover into the registry, honor `--prometheus`,
/// and append the registry snapshot as the final `metrics` event of the
/// JSONL file. The typed counter families (turbo, parallel pipeline,
/// frames, range cache) re-home through `lzfpga_obs::bridge` at each call
/// site before this runs, so nothing is counted twice.
fn finish_metrics(
    o: &CommonOpts,
    reg: &MetricsRegistry,
    mut events: Vec<(&'static str, JsonValue)>,
) -> Result<(), String> {
    for (kind, body) in &events {
        if matches!(*kind, "run" | "hw" | "faults" | "salvage" | "index" | "range") {
            reg.absorb(kind, body);
        }
    }
    let snap = reg.snapshot();
    if let Some(path) = &o.prometheus {
        atomic_write(path, prometheus_text(&snap).as_bytes())?;
    }
    if let Some(path) = &o.metrics {
        events.push(("metrics", snapshot_to_json(&snap)));
        write_metrics(path, events)?;
    }
    Ok(())
}

/// The `run` summary event every `--metrics` file starts with. `engine`
/// names what ran: `hw` (the cycle model), `turbo` (the software matcher)
/// or `inflate` (the software decoder), whatever `--engine` said.
fn run_event(
    o: &CommonOpts,
    command: &str,
    engine: &str,
    input_bytes: usize,
    output_bytes: usize,
) -> JsonValue {
    obj([
        ("command", command.into()),
        ("engine", engine.into()),
        ("parallel", o.parallel.into()),
        ("input_bytes", (input_bytes as u64).into()),
        ("output_bytes", (output_bytes as u64).into()),
        ("ratio", (input_bytes as f64 / output_bytes.max(1) as f64).into()),
    ])
}

fn cmd_compress(o: &CommonOpts) -> Result<(), String> {
    if o.trace_events.is_some() && !o.parallel {
        return Err(
            "--trace-events requires --parallel (use `trace --format trace-events` for the \
             hardware model)"
                .into(),
        );
    }
    let data = read_input(o.input.as_deref())?;
    if let Some(dict) = load_dict(o)? {
        if o.format == Format::Gzip {
            return Err("preset dictionaries are a zlib feature (RFC 1950)".into());
        }
        let mut hw = lzfpga_core::HwCompressor::new(hw_config(o));
        let rep = hw.compress_with_dict(&dict, &data);
        let out = lzfpga_deflate::zlib::zlib_compress_tokens_with_dict(
            &rep.tokens,
            &data,
            &dict,
            BlockKind::FixedHuffman,
            o.window.max(256),
        );
        if o.stats {
            eprintln!(
                "in: {} bytes (+{} dict), out: {} bytes, ratio {:.3}",
                data.len(),
                dict.len(),
                out.len(),
                data.len() as f64 / out.len().max(1) as f64
            );
        }
        if wants_obs(o) {
            finish_metrics(
                o,
                &MetricsRegistry::new(),
                vec![
                    ("run", run_event(o, "compress", "hw", data.len(), out.len())),
                    ("hw", rep.telemetry_json()),
                ],
            )?;
        }
        return write_output(o.output.as_deref(), &out);
    }
    if o.parallel {
        if o.format == Format::Gzip {
            return Err("--parallel emits a zlib stream; gzip framing is single-stream".into());
        }
        let cfg = ParallelConfig {
            chunk_bytes: o.chunk_bytes,
            workers: o.workers,
            instances: 1,
            hw: hw_config(o),
            engine: match o.engine {
                Engine::Hw => EngineKind::Modelled,
                Engine::Turbo => EngineKind::Turbo,
            },
            telemetry: wants_obs(o) || o.trace_events.is_some(),
        };
        let rep = compress_parallel(&data, &cfg).map_err(|e| e.to_string())?;
        if o.stats {
            eprintln!(
                "in: {} bytes, out: {} bytes, ratio {:.3} ({} chunks of {} bytes)",
                data.len(),
                rep.compressed.len(),
                rep.ratio(),
                rep.chunks.len(),
                o.chunk_bytes
            );
        }
        if let Some(tel) = &rep.telemetry {
            if let Some(path) = &o.trace_events {
                atomic_write(path, trace_events_json(&tel.trace_events).as_bytes())?;
            }
            if wants_obs(o) {
                let reg = MetricsRegistry::new();
                record_pipeline(&reg, tel);
                finish_metrics(
                    o,
                    &reg,
                    vec![
                        (
                            "run",
                            run_event(
                                o,
                                "compress",
                                o.engine.name(),
                                data.len(),
                                rep.compressed.len(),
                            ),
                        ),
                        ("parallel", tel.to_json()),
                        ("faults", rep.failures.to_json()),
                    ],
                )?;
            }
        }
        return write_output(o.output.as_deref(), &rep.compressed);
    }
    let (out, hw_report, turbo_counters) = match o.engine {
        Engine::Hw => {
            let cfg = hw_config(o);
            let rep = compress_to_zlib(&data, &cfg);
            let out = match o.format {
                Format::Zlib => rep.compressed.clone(),
                Format::Gzip => {
                    gzip_compress_tokens(&rep.run.tokens, &data, BlockKind::FixedHuffman)
                }
            };
            (out, Some(rep), None)
        }
        Engine::Turbo => {
            let cfg = hw_config(o);
            if wants_obs(o) {
                // The probed run is token-identical to the plain one, so the
                // stream bytes cannot depend on whether metrics are on.
                let mut counters = TurboCounters::default();
                let mut tokens = Vec::new();
                lzfpga_lzss::TurboEngine::new().compress_into_probed(
                    &data,
                    &cfg.as_lzss_params(),
                    &mut tokens,
                    &mut counters,
                );
                let out = match o.format {
                    Format::Zlib => zlib_compress_tokens(
                        &tokens,
                        &data,
                        BlockKind::FixedHuffman,
                        cfg.window_size.max(256),
                    ),
                    Format::Gzip => gzip_compress_tokens(&tokens, &data, BlockKind::FixedHuffman),
                };
                (out, None, Some(counters))
            } else {
                let out = match o.format {
                    Format::Zlib => turbo_compress_to_zlib(&data, &cfg),
                    Format::Gzip => {
                        let tokens =
                            lzfpga_lzss::TurboEngine::new().compress(&data, &cfg.as_lzss_params());
                        gzip_compress_tokens(&tokens, &data, BlockKind::FixedHuffman)
                    }
                };
                (out, None, None)
            }
        }
    };
    if o.stats {
        let ratio = data.len() as f64 / out.len().max(1) as f64;
        eprintln!("in: {} bytes, out: {} bytes, ratio {ratio:.3}", data.len(), out.len());
        if let Some(rep) = &hw_report {
            eprintln!(
                "hw model: {} cycles, {:.2} cycles/byte, {:.1} MB/s at 100 MHz",
                rep.run.cycles,
                rep.run.cycles_per_byte(),
                rep.mb_per_s()
            );
        }
    }
    if wants_obs(o) {
        let reg = MetricsRegistry::new();
        let mut events =
            vec![("run", run_event(o, "compress", o.engine.name(), data.len(), out.len()))];
        if let Some(rep) = &hw_report {
            events.push(("hw", rep.run.telemetry_json()));
        }
        if let Some(counters) = &turbo_counters {
            record_turbo(&reg, counters);
            events.push(("turbo", counters.to_json()));
        }
        finish_metrics(o, &reg, events)?;
    }
    write_output(o.output.as_deref(), &out)
}

fn cmd_decompress(o: &CommonOpts) -> Result<(), String> {
    let data = read_input(o.input.as_deref())?;
    let limits = match o.max_output_bytes {
        Some(n) => Limits::none().with_max_output_bytes(n),
        None => Limits::none(),
    };
    if let Some(dict) = load_dict(o)? {
        let out = lzfpga_deflate::zlib::zlib_decompress_with_dict(&data, &dict)
            .map_err(|e| format!("zlib (with dictionary): {e}"))?;
        return write_output(o.output.as_deref(), &out);
    }
    let out = if data.len() >= 2 && data[0] == 0x1F && data[1] == 0x8B {
        gzip_decompress_limited(&data, &limits).map_err(|e| format!("gzip: {e}"))?
    } else if o.engine == Engine::Hw && o.max_output_bytes.is_none() {
        // Drive the cycle-accurate decompressor (only handles the single
        // fixed-block streams the hardware writes; fall back to the full
        // software inflate for anything else). `--max-output-bytes` forces
        // the limited software path, which enforces the cap as it inflates.
        let mut d = HwDecompressor::try_new(DecompConfig { window_size: o.window, bus_bytes: 4 })
            .map_err(|e| format!("decompressor config: {e}"))?;
        match d.decompress_zlib(&data) {
            Ok(rep) => {
                if o.stats {
                    eprintln!(
                        "hw decompressor: {} cycles, {:.2} cycles/byte, {:.1} MB/s",
                        rep.cycles,
                        rep.cycles_per_byte(),
                        rep.mb_per_s()
                    );
                }
                rep.bytes
            }
            Err(_) => zlib_decompress(&data).map_err(|e| format!("zlib: {e}"))?,
        }
    } else {
        zlib_decompress_limited(&data, &limits).map_err(|e| format!("zlib: {e}"))?
    };
    write_output(o.output.as_deref(), &out)
}

/// Copy all of `src` through a [`FrameWriter`] and seal the stream.
fn pump_frames<W: Write>(
    mut src: impl Read,
    mut w: FrameWriter<W>,
) -> Result<(W, FramedSummary), String> {
    std::io::copy(&mut src, &mut w).map_err(|e| format!("framing: {e}"))?;
    w.finish().map_err(|e| format!("framing: {e}"))
}

/// Per-frame observability for the serial container paths: `--trace-events`
/// rebuilds a causal file→frame→stage span tree from the frame events'
/// epoch timestamps; `--metrics` writes the `run` summary followed by one
/// `frame` event per emitted frame, routed through the registry.
fn frame_metrics(
    o: &CommonOpts,
    command: &str,
    input_bytes: u64,
    output_bytes: u64,
    events: &[FrameEvent],
) -> Result<(), String> {
    if let Some(path) = &o.trace_events {
        let tree = frame_span_tree(&format!("{command} {input_bytes} bytes"), events);
        atomic_write(path, trace_events_json(&tree).as_bytes())?;
    }
    if !wants_obs(o) {
        return Ok(());
    }
    let reg = MetricsRegistry::new();
    record_frames(&reg, events);
    // These paths run the streaming `FrameWriter`, whose matcher is turbo.
    let run = run_event(o, command, "turbo", input_bytes as usize, output_bytes as usize);
    let mut out = vec![("run", run)];
    for e in events {
        out.push(("frame", e.to_json()));
    }
    finish_metrics(o, &reg, out)
}

fn cmd_frame(o: &CommonOpts) -> Result<(), String> {
    let frame_cfg = FrameConfig {
        frame_bytes: o.frame_bytes,
        collect_events: wants_obs(o) || o.trace_events.is_some(),
        ..FrameConfig::default()
    };
    let params = hw_config(o).as_lzss_params();
    if o.parallel {
        let data = read_input(o.input.as_deref())?;
        let cfg = ParallelConfig {
            chunk_bytes: o.frame_bytes,
            workers: o.workers,
            instances: 1,
            hw: hw_config(o),
            engine: match o.engine {
                Engine::Hw => EngineKind::Modelled,
                Engine::Turbo => EngineKind::Turbo,
            },
            telemetry: wants_obs(o) || o.trace_events.is_some(),
        };
        let rep = compress_frames_parallel(&data, &cfg, &frame_cfg).map_err(|e| e.to_string())?;
        if o.stats {
            eprintln!(
                "framed: {} bytes -> {} bytes, {} frames of <= {} bytes, container ratio {:.3}",
                rep.input_bytes,
                rep.framed.len(),
                rep.frames,
                o.frame_bytes,
                rep.input_bytes as f64 / rep.framed.len().max(1) as f64
            );
        }
        if let Some(path) = &o.trace_events {
            // The pipeline's live per-worker spans: one causal
            // file→frame→stage tree.
            atomic_write(path, trace_events_json(&rep.trace_events).as_bytes())?;
        }
        if wants_obs(o) {
            let reg = MetricsRegistry::new();
            record_frames(&reg, &rep.events);
            let run =
                run_event(o, "frame", o.engine.name(), rep.input_bytes as usize, rep.framed.len());
            let mut events = vec![("run", run)];
            if let Some(counters) = &rep.counters {
                record_turbo(&reg, counters);
                events.push(("turbo", counters.to_json()));
            }
            for e in &rep.events {
                events.push(("frame", e.to_json()));
            }
            finish_metrics(o, &reg, events)?;
        }
        return write_output(o.output.as_deref(), &rep.framed);
    }
    // Streaming single pass: the writer holds one frame of input at a time,
    // so arbitrarily large inputs frame in O(frame) memory.
    let src: Box<dyn Read> = match o.input.as_deref() {
        None | Some("-") => Box::new(std::io::stdin()),
        Some(p) => Box::new(std::fs::File::open(p).map_err(|e| format!("reading {p}: {e}"))?),
    };
    let summary = match o.output.as_deref() {
        None | Some("-") => {
            let w = FrameWriter::new(std::io::stdout().lock(), frame_cfg, params)
                .map_err(|e| format!("frame config: {e}"))?;
            pump_frames(src, w)?.1
        }
        Some(dest) => {
            // Stage into `<dest>.part`, one durable frame at a time (each
            // frame syncs while the next compresses), and rename only once
            // the trailer is down: a crash at any point leaves a prefix
            // `resume` can pick up.
            let part = format!("{dest}.part");
            let file = std::fs::File::create(&part).map_err(|e| format!("creating {part}: {e}"))?;
            let w = FrameWriter::new(DurableFile::new(file), frame_cfg, params)
                .map_err(|e| format!("frame config: {e}"))?;
            let (sink, summary) = pump_frames(src, w)?;
            sink.finish().map_err(|e| format!("syncing {part}: {e}"))?;
            rename_part_into_place(&part, dest)?;
            summary
        }
    };
    if o.stats {
        eprintln!(
            "framed: {} bytes -> {} bytes, {} frames of <= {} bytes ({} stored raw), container \
             ratio {:.3}",
            summary.input_bytes,
            summary.output_bytes,
            summary.frames,
            o.frame_bytes,
            summary.raw_frames,
            summary.input_bytes as f64 / summary.output_bytes.max(1) as f64
        );
    }
    frame_metrics(o, "frame", summary.input_bytes, summary.output_bytes, &summary.events)
}

fn cmd_unframe(o: &CommonOpts) -> Result<(), String> {
    let data = read_input(o.input.as_deref())?;
    let out = if o.parallel {
        decompress_frames_parallel(&data, o.workers).map_err(|e| format!("lzfc: {e}"))?
    } else {
        unframe(&data).map_err(|e| format!("lzfc: {e}"))?
    };
    if o.stats {
        eprintln!("unframed: {} bytes -> {} bytes", data.len(), out.len());
    }
    if let Some(path) = &o.trace_events {
        // Decode records no per-frame stage times; the export is a valid
        // single-root document covering the whole run.
        let tree = frame_span_tree(&format!("unframe {} bytes", data.len()), &[]);
        atomic_write(path, trace_events_json(&tree).as_bytes())?;
    }
    if wants_obs(o) {
        finish_metrics(
            o,
            &MetricsRegistry::new(),
            vec![("run", run_event(o, "unframe", "inflate", data.len(), out.len()))],
        )?;
    }
    write_output(o.output.as_deref(), &out)
}

/// What [`write_streaming`] observed about the downstream sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamWrite {
    /// The bytes went out.
    Written,
    /// The reader hung up (`| head`): a clean end of output, not an error.
    PipeClosed,
}

/// Write to a streaming sink the way Unix `cat` does: a downstream reader
/// that stops early closes the pipe, and that is a success — callers in a
/// follow loop use the [`StreamWrite::PipeClosed`] signal to stop producing.
/// Every other I/O failure is still an error.
fn write_streaming(w: &mut dyn Write, data: &[u8]) -> Result<StreamWrite, String> {
    match w.write_all(data).and_then(|()| w.flush()) {
        Ok(()) => Ok(StreamWrite::Written),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(StreamWrite::PipeClosed),
        Err(e) => Err(format!("writing stdout: {e}")),
    }
}

/// Streaming-command output: stdout through [`write_streaming`] (closed
/// pipes are a success), file outputs atomic like every other command's.
fn write_range_output(path: Option<&str>, data: &[u8]) -> Result<(), String> {
    match path {
        None | Some("-") => write_streaming(&mut std::io::stdout(), data).map(|_| ()),
        Some(p) => atomic_write(p, data),
    }
}

fn cmd_cat(o: &CommonOpts) -> Result<(), String> {
    let Some((start, end)) = o.range else {
        return Err("cat requires --range START..END (END omitted = EOF)".to_string());
    };
    let data = read_input(o.input.as_deref())?;
    let (out, telemetry) = if o.parallel {
        let out = decode_range_parallel(&data, start..end, o.workers)
            .map_err(|e| format!("lzfc: {e}"))?;
        (out, None)
    } else {
        let mut reader = open_indexed_with(&data, o.cache_bytes);
        let out = reader.decode_range(start..end).map_err(|e| format!("lzfc: {e}"))?;
        let report = reader.report();
        if o.stats {
            eprintln!(
                "cat: source {}, {} of {} total bytes servable",
                report.source.as_str(),
                report.serviceable_bytes,
                report.total_uncompressed
            );
        }
        (out, Some((reader.counters().to_json(), report.to_json())))
    };
    if o.stats {
        eprintln!("cat: {} bytes from range {start}..{end}", out.len());
    }
    if wants_obs(o) {
        let mut events = vec![("run", run_event(o, "cat", "inflate", data.len(), out.len()))];
        if let Some((range, index)) = telemetry {
            events.push(("range", range));
            events.push(("index", index));
        }
        finish_metrics(o, &MetricsRegistry::new(), events)?;
    }
    write_range_output(o.output.as_deref(), &out)
}

fn cmd_salvage(o: &CommonOpts) -> Result<(), String> {
    let data = read_input(o.input.as_deref())?;
    let result = salvage(&data);
    let r = &result.report;
    eprintln!(
        "salvage: {} frames recovered ({} deep), {} skipped, {} lost ranges, {} bytes out{}",
        r.frames_recovered,
        r.frames_deep_recovered,
        r.frames_skipped,
        r.lost.len(),
        result.data.len(),
        if r.is_intact() { " — stream intact" } else { "" }
    );
    if let Some(path) = &o.trace_events {
        let tree = frame_span_tree(&format!("salvage {} bytes", data.len()), &[]);
        atomic_write(path, trace_events_json(&tree).as_bytes())?;
    }
    if wants_obs(o) {
        finish_metrics(
            o,
            &MetricsRegistry::new(),
            vec![
                ("run", run_event(o, "salvage", "inflate", data.len(), result.data.len())),
                ("salvage", r.to_json()),
            ],
        )?;
    }
    write_range_output(o.output.as_deref(), &result.data)
}

fn cmd_resume(o: &CommonOpts) -> Result<(), String> {
    let dest = o.output.as_deref().ok_or("resume requires -o OUT (the final archive path)")?;
    let input = o.input.as_deref().ok_or("resume requires the original input FILE")?;
    if dest == "-" || input == "-" {
        return Err("resume needs real files: it re-reads the input and appends to OUT.part".into());
    }
    let part = format!("{dest}.part");
    let partial = std::fs::read(&part).map_err(|e| format!("reading {part}: {e}"))?;
    let scan = scan_partial(&partial);
    if scan.complete {
        // Killed after the trailer but before the rename: just promote.
        if o.stats {
            eprintln!("resume: {part} is already complete ({} frames); renaming", scan.frames);
        }
        return rename_part_into_place(&part, dest);
    }
    let mut src = std::fs::File::open(input).map_err(|e| format!("reading {input}: {e}"))?;
    // The durable prefix must be a prefix of *this* input: stream the bytes
    // the partial archive already covers through a CRC and compare.
    let mut crc = Crc32::new();
    let mut left = scan.uncompressed_bytes;
    let mut chunk = vec![0u8; 64 * 1024];
    while left > 0 {
        let want = chunk.len().min(left as usize);
        let n = src.read(&mut chunk[..want]).map_err(|e| format!("reading {input}: {e}"))?;
        if n == 0 {
            return Err(format!(
                "{input} is shorter than the {} bytes already framed in {part}",
                scan.uncompressed_bytes
            ));
        }
        crc.update(&chunk[..n]);
        left -= n as u64;
    }
    if crc.finish() != scan.prefix_crc() {
        return Err(format!("{input} does not match the data already framed in {part}"));
    }
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&part)
        .map_err(|e| format!("opening {part}: {e}"))?;
    file.set_len(scan.valid_bytes).map_err(|e| format!("truncating {part}: {e}"))?;
    file.seek(SeekFrom::End(0)).map_err(|e| format!("seeking {part}: {e}"))?;
    let frame_cfg = FrameConfig {
        frame_bytes: o.frame_bytes,
        collect_events: wants_obs(o) || o.trace_events.is_some(),
        ..FrameConfig::default()
    };
    let w = FrameWriter::resume(
        DurableFile::new(file),
        frame_cfg,
        hw_config(o).as_lzss_params(),
        &scan,
    )
    .map_err(|e| format!("resume: {e}"))?;
    let (sink, summary) = pump_frames(src, w)?;
    sink.finish().map_err(|e| format!("syncing {part}: {e}"))?;
    if o.stats {
        eprintln!(
            "resumed: kept {} frames ({} bytes), finished at {} frames / {} input bytes",
            scan.frames, scan.valid_bytes, summary.frames, summary.input_bytes
        );
    }
    frame_metrics(o, "resume", summary.input_bytes, summary.output_bytes, &summary.events)?;
    rename_part_into_place(&part, dest)
}

/// True when the input looks like a JSONL metrics stream (the first
/// non-empty line is a JSON object carrying an `event` key), which routes
/// `stats` into aggregator mode instead of the hardware model.
fn looks_like_metrics_jsonl(data: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(data) else { return false };
    let Some(line) = text.lines().map(str::trim).find(|l| !l.is_empty()) else { return false };
    line.starts_with('{')
        && lzfpga_telemetry::json::parse(line).is_ok_and(|v| v.get("event").is_some())
}

/// Fold a JSONL metrics stream into the operator tables.
fn render_metrics_stream(text: &str) -> Result<String, String> {
    let mut agg = StatsAggregate::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = lzfpga_telemetry::json::parse(line)
            .map_err(|e| format!("metrics line {}: bad JSON at byte {}", n + 1, e.at))?;
        agg.add_event(&v);
    }
    Ok(agg.render())
}

/// Floor of the `--follow` poll interval (an actively-growing file is
/// re-rendered at this cadence).
const FOLLOW_POLL_MIN: Duration = Duration::from_millis(100);

/// Ceiling of the `--follow` poll interval for a quiet file.
const FOLLOW_POLL_MAX: Duration = Duration::from_secs(2);

/// `stats --follow` pacing: capped exponential backoff. Each idle poll
/// doubles the wait (up to [`FOLLOW_POLL_MAX`]) so tailing a finished run
/// costs almost nothing; any growth snaps back to [`FOLLOW_POLL_MIN`] so
/// an active run is re-rendered promptly.
fn next_poll_delay(prev: Duration, grew: bool) -> Duration {
    if grew {
        FOLLOW_POLL_MIN
    } else {
        (prev * 2).min(FOLLOW_POLL_MAX)
    }
}

/// `stats` on a JSONL metrics stream: render the aggregate tables once,
/// then (with `--follow`) keep tailing the file and re-rendering whenever
/// it grows, until interrupted or the reader hangs up.
fn cmd_stats_stream(o: &CommonOpts, data: Vec<u8>) -> Result<(), String> {
    let text = String::from_utf8(data).map_err(|_| "metrics stream is not UTF-8".to_string())?;
    let rendered = render_metrics_stream(&text)?;
    let mut stdout = std::io::stdout();
    if write_streaming(&mut stdout, rendered.as_bytes())? == StreamWrite::PipeClosed {
        return Ok(());
    }
    if !o.follow {
        return Ok(());
    }
    let Some(path) = o.input.as_deref().filter(|p| *p != "-") else {
        return Err("--follow requires a metrics file to tail".into());
    };
    let mut seen = text.len() as u64;
    let mut delay = FOLLOW_POLL_MIN;
    loop {
        std::thread::sleep(delay);
        let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        if len == seen {
            delay = next_poll_delay(delay, false);
            continue;
        }
        delay = next_poll_delay(delay, true);
        seen = len;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let rendered = render_metrics_stream(&text)?;
        if write_streaming(&mut stdout, format!("---\n{rendered}").as_bytes())?
            == StreamWrite::PipeClosed
        {
            // `| head` hung up: stop tailing instead of polling forever.
            return Ok(());
        }
    }
}

fn cmd_stats(o: &CommonOpts) -> Result<(), String> {
    use std::fmt::Write as _;
    let data = read_input(o.input.as_deref())?;
    if looks_like_metrics_jsonl(&data) {
        return cmd_stats_stream(o, data);
    }
    if o.follow {
        return Err("--follow needs a JSONL metrics stream (a --metrics output file)".into());
    }
    let cfg = hw_config(o);
    let rep = compress_to_zlib(&data, &cfg);
    if wants_obs(o) {
        finish_metrics(
            o,
            &MetricsRegistry::new(),
            vec![
                ("run", run_event(o, "stats", "hw", data.len(), rep.compressed.len())),
                ("hw", rep.run.telemetry_json()),
            ],
        )?;
    }
    // Render into a buffer and write once: a closed pipe (e.g. `| head`)
    // truncates the report cleanly instead of panicking or failing the run.
    let mut text = String::new();
    let _ = writeln!(text, "input              {:>12} bytes", data.len());
    let _ = writeln!(text, "compressed         {:>12} bytes", rep.compressed.len());
    let _ = writeln!(text, "ratio              {:>12.3}", rep.ratio());
    let _ = writeln!(text, "cycles             {:>12}", rep.run.cycles);
    let _ = writeln!(text, "cycles/byte        {:>12.3}", rep.run.cycles_per_byte());
    let _ = writeln!(text, "throughput         {:>9.1} MB/s @ 100 MHz", rep.mb_per_s());
    let _ = writeln!(text, "LUTs (est.)        {:>12}", rep.resources.luts);
    let _ = writeln!(text, "RAMB36 (exact)     {:>12.1}", rep.resources.bram.ramb36_equiv());
    let _ = writeln!(text);
    let _ = writeln!(text, "cycle breakdown:");
    for state in [
        HwState::Match,
        HwState::Output,
        HwState::HashUpdate,
        HwState::Waiting,
        HwState::Rotate,
        HwState::Fetch,
    ] {
        let _ = writeln!(
            text,
            "  {:<12} {:>6.1}%  ({} cycles)",
            format!("{state:?}"),
            rep.run.stats.share(state) * 100.0,
            rep.run.stats.get(state)
        );
    }
    write_streaming(&mut std::io::stdout(), text.as_bytes()).map(|_| ())
}

/// `serve`: run the LZS1 compression daemon until it drains.
///
/// Without `--allow-shutdown` the process runs until killed; with it, any
/// client may request a graceful drain (`lzfpga client shutdown`), which
/// finishes or deadline-cancels everything in flight and then returns here
/// with final stats. `--metrics`/`--prometheus` export the server's
/// registry snapshot after the drain.
fn cmd_serve(o: &CommonOpts) -> Result<(), String> {
    let config = ServerConfig {
        addr: o.addr.clone().unwrap_or_else(|| "127.0.0.1:4650".to_string()),
        workers: o.workers,
        hw: hw_config(o),
        frame_bytes: o.frame_bytes,
        chunk_bytes: o.chunk_bytes,
        default_deadline_ms: o.deadline_ms,
        drain_ms: o.drain_ms,
        allow_remote_shutdown: o.allow_shutdown,
        state_dir: o.state_dir.as_ref().map(std::path::PathBuf::from),
        resume_ttl_ms: o.resume_ttl_ms,
        ..ServerConfig::default()
    };
    let quota = config.quota;
    let mut server = Server::new(config);
    // The crash drill arms one abort site per run through the environment;
    // unset (the normal case) leaves the zero-cost NoFaults in place.
    if let Some(plan) = lzfpga_faults::FailPlan::from_env() {
        eprintln!("serve: crash injection armed from {}", lzfpga_faults::CRASH_SITE_ENV);
        server = server.with_faults(std::sync::Arc::new(plan));
    }
    let handle = server.start().map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "lzfpga-server listening on {} ({} sessions; per tenant: {} streams, {} MiB in flight{})",
        handle.addr(),
        quota.max_sessions,
        quota.max_streams_per_tenant,
        quota.max_bytes_per_tenant >> 20,
        if o.allow_shutdown { "; remote shutdown enabled" } else { "" }
    );
    let recovery = handle.recovery();
    if o.state_dir.is_some() {
        eprintln!(
            "serve: state dir recovery — {} resumable, {} unresumable, {} refused by quota",
            recovery.recovered, recovery.unresumable, recovery.refused
        );
    }
    if let Some(path) = o.port_file.as_deref() {
        atomic_write(path, handle.addr().to_string().as_bytes())?;
    }
    handle.wait();
    let stats = handle.shutdown(Duration::from_millis(o.drain_ms));
    eprintln!(
        "serve: drained — {} sessions, {} requests ({} done, {} failed), {} panics contained, \
         {} protocol errors; quota now {} streams / {} bytes",
        stats.sessions_total,
        stats.requests_total,
        stats.requests_done,
        stats.requests_failed,
        stats.panics_contained,
        stats.protocol_errors,
        stats.active_streams,
        stats.active_bytes
    );
    if wants_obs(o) {
        finish_metrics(
            o,
            &handle.registry(),
            // The daemon's compress jobs run the turbo `FrameWriter`
            // whatever `--engine` says.
            vec![("run", run_event(o, "serve", "turbo", 0, 0))],
        )?;
    }
    Ok(())
}

/// The retry policy a client invocation runs with (`--retry`,
/// `--retry-budget-ms`; the corpus seed doubles as the jitter seed).
fn retry_policy(o: &CommonOpts) -> RetryPolicy {
    RetryPolicy {
        max_retries: o.retry,
        budget: Duration::from_millis(o.retry_budget_ms),
        seed: o.seed,
        ..RetryPolicy::default()
    }
}

/// True when the connection itself died — the failure mode a server crash
/// produces, and the only one `--resume` can do anything about.
fn transport_died(e: &ClientError) -> bool {
    matches!(e, ClientError::Io(_) | ClientError::Proto(_) | ClientError::TimedOut)
}

/// `client`: run one request against a running server and stream the
/// result out like `cat` (closed pipes are a clean stop).
fn cmd_client(o: &CommonOpts) -> Result<(), String> {
    let addr = o.addr.as_deref().ok_or("client requires --addr HOST:PORT")?;
    let op = o
        .positional
        .first()
        .map(String::as_str)
        .ok_or("client requires an operation: compress | decompress | range | shutdown")?;
    let mut client = if o.retry > 0 {
        connect_with_retry(addr, &o.tenant, 1 << 20, &retry_policy(o))
    } else {
        Client::connect(addr, &o.tenant, 1 << 20)
    }
    .map_err(|e| format!("client: {e}"))?;
    if op == "shutdown" {
        client
            .shutdown_server(u32::try_from(o.drain_ms).unwrap_or(u32::MAX))
            .map_err(|e| format!("client: {e}"))?;
        eprintln!("client: server drained and shut down");
        return Ok(());
    }
    let data = read_input(o.positional.get(1).map(String::as_str))?;
    // The declared result budget is charged against the tenant byte quota
    // up front, so the default stays well under the server's default
    // 256 MiB per-tenant allowance; `--max-output-bytes` raises it.
    let max_result = o.max_output_bytes.unwrap_or(64 << 20);
    let mut result = match op {
        "compress" => {
            client.compress(&data, u32::try_from(o.frame_bytes).unwrap_or(0), o.deadline_ms)
        }
        "decompress" => client.decompress(&data, max_result, o.deadline_ms),
        "range" | "cat" => {
            let (start, end) = o.range.ok_or("client range requires --range START..END")?;
            client.range(&data, start, end, max_result, o.deadline_ms)
        }
        other => return Err(format!("unknown client operation '{other}'\n\n{USAGE}")),
    };
    if o.resume {
        // The server announced a durable session token before doing the
        // work; if it died mid-request, reconnect (retrying while it
        // restarts) and resume from whatever bytes already arrived.
        let mut attempts = 0;
        while attempts < 5 {
            match (&result, client.session_token()) {
                (Err(e), Some(token)) if transport_died(e) => {
                    attempts += 1;
                    let prefix = client.take_partial();
                    eprintln!(
                        "client: connection lost with {} bytes received; resuming session \
                         {token:#018x} (attempt {attempts})",
                        prefix.len()
                    );
                    let policy = RetryPolicy { max_retries: o.retry.max(5), ..retry_policy(o) };
                    client = connect_with_retry(addr, &o.tenant, 1 << 20, &policy)
                        .map_err(|e| format!("client: reconnect for resume: {e}"))?;
                    result = client.resume(token, &prefix, o.deadline_ms);
                }
                _ => break,
            }
        }
    }
    let out = result.map_err(|e| format!("client {op}: {e}"))?;
    if o.stats {
        eprintln!(
            "client: {op} {} bytes -> {} bytes (session {})",
            data.len(),
            out.len(),
            client.session()
        );
    }
    write_range_output(o.output.as_deref(), &out)
}

fn cmd_trace(o: &CommonOpts) -> Result<(), String> {
    use lzfpga_core::trace::{spans_to_trace_events, spans_to_vcd, trace_compress};
    let data = read_input(o.input.as_deref())?;
    let cfg = hw_config(o);
    let (report, spans) = trace_compress(&data, &cfg);
    let (doc, kind) = match o.trace_format {
        TraceFormat::Vcd => (spans_to_vcd(&spans, cfg.dma_setup_cycles, report.cycles), "VCD"),
        TraceFormat::TraceEvents => {
            let events =
                spans_to_trace_events(&spans, cfg.dma_setup_cycles, lzfpga_core::config::CLOCK_HZ);
            (trace_events_json(&events), "trace-event JSON")
        }
    };
    eprintln!(
        "{} bytes -> {} cycles, {} state spans, {kind} {} bytes",
        data.len(),
        report.cycles,
        spans.len(),
        doc.len()
    );
    write_output(o.output.as_deref(), doc.as_bytes())
}

fn cmd_rtl(o: &CommonOpts) -> Result<(), String> {
    let dir = o.output.as_deref().ok_or("rtl requires -o OUT_DIR")?;
    let cfg = hw_config(o);
    let bundle = lzfpga_rtlgen::generate_vhdl(&cfg);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    for f in &bundle.files {
        let path = std::path::Path::new(dir).join(&f.name);
        atomic_write(&path.display().to_string(), f.contents.as_bytes())?;
    }
    eprintln!("wrote {} VHDL files ({} bytes) to {dir}", bundle.files.len(), bundle.total_len());
    Ok(())
}

fn cmd_gen(o: &CommonOpts) -> Result<(), String> {
    let corpus_name =
        o.positional.first().ok_or_else(|| "gen requires: CORPUS SIZE".to_string())?;
    let size: usize = o
        .positional
        .get(1)
        .ok_or_else(|| "gen requires: CORPUS SIZE".to_string())?
        .parse()
        .map_err(|_| "bad SIZE".to_string())?;
    let corpus =
        Corpus::parse(corpus_name).ok_or_else(|| format!("unknown corpus '{corpus_name}'"))?;
    let data = lzfpga_workloads::generate(corpus, o.seed, size);
    write_output(o.output.as_deref(), &data)
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(USAGE.to_string());
    };
    let mut opts = parse_opts(&args[1..])?;
    match cmd.as_str() {
        "compress" | "c" => {
            opts.input = opts.positional.first().cloned();
            cmd_compress(&opts)
        }
        "decompress" | "d" => {
            opts.input = opts.positional.first().cloned();
            cmd_decompress(&opts)
        }
        "frame" => {
            opts.input = opts.positional.first().cloned();
            cmd_frame(&opts)
        }
        "unframe" => {
            opts.input = opts.positional.first().cloned();
            cmd_unframe(&opts)
        }
        "cat" => {
            opts.input = opts.positional.first().cloned();
            cmd_cat(&opts)
        }
        "salvage" => {
            opts.input = opts.positional.first().cloned();
            cmd_salvage(&opts)
        }
        "resume" => {
            opts.input = opts.positional.first().cloned();
            cmd_resume(&opts)
        }
        "stats" => {
            opts.input = opts.positional.first().cloned();
            cmd_stats(&opts)
        }
        "serve" => cmd_serve(&opts),
        "client" => cmd_client(&opts),
        "gen" => cmd_gen(&opts),
        "trace" => {
            opts.input = opts.positional.first().cloned();
            cmd_trace(&opts)
        }
        "rtl" => cmd_rtl(&opts),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Std-only stand-in for `tempfile::tempdir()`: a unique directory under
/// the system temp dir, removed on drop.
#[cfg(test)]
struct TestDir(std::path::PathBuf);

#[cfg(test)]
impl TestDir {
    fn new() -> Self {
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("lzfpga-cli-test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create test dir");
        Self(path)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = parse_opts(&[]).unwrap();
        assert_eq!(o.engine, Engine::Hw);
        assert_eq!(o.format, Format::Zlib);
        assert_eq!(o.window, 4_096);
        assert_eq!(o.hash, 15);
    }

    #[test]
    fn parse_all_flags() {
        let o = parse_opts(&strs(&[
            "--engine", "sw", "--format", "gzip", "--window", "8192", "--hash", "13", "--level",
            "max", "--seed", "7", "--stats", "-o", "out.bin", "in.bin",
        ]))
        .unwrap();
        assert_eq!(o.engine, Engine::Turbo, "sw is the software engine");
        assert_eq!(o.format, Format::Gzip);
        assert_eq!(o.window, 8_192);
        assert_eq!(o.hash, 13);
        assert_eq!(o.level, CompressionLevel::Max);
        assert_eq!(o.seed, 7);
        assert!(o.stats);
        assert_eq!(o.output.as_deref(), Some("out.bin"));
        assert_eq!(o.positional, vec!["in.bin"]);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse_opts(&strs(&["--bogus"])).is_err());
        assert!(parse_opts(&strs(&["--engine"])).is_err());
        assert!(parse_opts(&strs(&["--engine", "quantum"])).is_err());
    }

    #[test]
    fn file_round_trip_via_tempdir() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let comp = dir.path().join("out.z");
        let restored = dir.path().join("back.bin");
        let data = lzfpga_workloads::generate(Corpus::LogLines, 3, 50_000);
        std::fs::write(&input, &data).unwrap();

        run(strs(&["compress", "-o", comp.to_str().unwrap(), input.to_str().unwrap()])).unwrap();
        let compressed = std::fs::read(&comp).unwrap();
        assert!(compressed.len() < data.len());

        run(strs(&["decompress", "-o", restored.to_str().unwrap(), comp.to_str().unwrap()]))
            .unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), data);
    }

    #[test]
    fn gzip_round_trip_and_sw_engine() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let comp = dir.path().join("out.gz");
        let restored = dir.path().join("back.bin");
        let data = lzfpga_workloads::generate(Corpus::JsonTelemetry, 5, 40_000);
        std::fs::write(&input, &data).unwrap();
        run(strs(&[
            "compress",
            "--engine",
            "sw",
            "--format",
            "gzip",
            "--level",
            "max",
            "-o",
            comp.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        run(strs(&["decompress", "-o", restored.to_str().unwrap(), comp.to_str().unwrap()]))
            .unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), data);
    }

    #[test]
    fn hw_and_sw_engines_emit_identical_zlib_at_min_level() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let a = dir.path().join("hw.z");
        let b = dir.path().join("sw.z");
        let data = lzfpga_workloads::generate(Corpus::Wiki, 11, 60_000);
        std::fs::write(&input, &data).unwrap();
        run(strs(&[
            "compress",
            "--engine",
            "hw",
            "-o",
            a.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        run(strs(&[
            "compress",
            "--engine",
            "sw",
            "-o",
            b.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn gen_writes_exact_size_and_is_seed_stable() {
        let dir = TestDir::new();
        let out1 = dir.path().join("a.bin");
        let out2 = dir.path().join("b.bin");
        run(strs(&["gen", "sensor-frames", "12345", "--seed", "9", "-o", out1.to_str().unwrap()]))
            .unwrap();
        run(strs(&["gen", "sensor-frames", "12345", "--seed", "9", "-o", out2.to_str().unwrap()]))
            .unwrap();
        let a = std::fs::read(&out1).unwrap();
        assert_eq!(a.len(), 12_345);
        assert_eq!(a, std::fs::read(&out2).unwrap());
    }

    #[test]
    fn unknown_command_and_corpus_fail() {
        assert!(run(strs(&["frobnicate"])).is_err());
        assert!(run(strs(&["gen", "no-such-corpus", "100"])).is_err());
        assert!(run(strs(&["gen", "wiki"])).is_err());
    }

    #[test]
    fn parallel_round_trips_and_ignores_worker_count() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let data = lzfpga_workloads::generate(Corpus::Mixed, 21, 200_000);
        std::fs::write(&input, &data).unwrap();
        let one = dir.path().join("w1.z");
        let four = dir.path().join("w4.z");
        let restored = dir.path().join("back.bin");
        run(strs(&[
            "compress",
            "--engine",
            "turbo",
            "--parallel",
            "--chunk",
            "32768",
            "--workers",
            "1",
            "-o",
            one.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        run(strs(&[
            "compress",
            "--engine",
            "turbo",
            "--parallel",
            "--chunk",
            "32768",
            "--workers",
            "4",
            "-o",
            four.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(std::fs::read(&one).unwrap(), std::fs::read(&four).unwrap());
        run(strs(&["decompress", "-o", restored.to_str().unwrap(), one.to_str().unwrap()]))
            .unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), data);
    }

    #[test]
    fn parallel_hw_and_turbo_engines_agree() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        std::fs::write(&input, lzfpga_workloads::generate(Corpus::Wiki, 4, 120_000)).unwrap();
        let hw = dir.path().join("hw.z");
        let turbo = dir.path().join("turbo.z");
        run(strs(&[
            "compress",
            "--engine",
            "hw",
            "--parallel",
            "--chunk",
            "32768",
            "-o",
            hw.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        run(strs(&[
            "compress",
            "--engine",
            "turbo",
            "--parallel",
            "--chunk",
            "32768",
            "-o",
            turbo.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(std::fs::read(&hw).unwrap(), std::fs::read(&turbo).unwrap());
    }

    #[test]
    fn parallel_config_errors_are_reported() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        std::fs::write(&input, b"too small a chunk").unwrap();
        let err = run(strs(&[
            "compress",
            "--parallel",
            "--chunk",
            "1024",
            "-o",
            "-",
            input.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("parallel config"), "unexpected error: {err}");
        let err = run(strs(&[
            "compress",
            "--parallel",
            "--format",
            "gzip",
            "-o",
            "-",
            input.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("single-stream"), "unexpected error: {err}");
    }

    #[test]
    fn max_output_bytes_caps_decompression() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let comp = dir.path().join("out.z");
        let restored = dir.path().join("back.bin");
        let data = lzfpga_workloads::generate(Corpus::Constant, 1, 200_000);
        std::fs::write(&input, &data).unwrap();
        run(strs(&["compress", "-o", comp.to_str().unwrap(), input.to_str().unwrap()])).unwrap();

        let err = run(strs(&[
            "decompress",
            "--max-output-bytes",
            "1000",
            "-o",
            restored.to_str().unwrap(),
            comp.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("exceeds configured limit"), "unexpected error: {err}");

        run(strs(&[
            "decompress",
            "--max-output-bytes",
            "1000000",
            "-o",
            restored.to_str().unwrap(),
            comp.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), data);
    }

    #[test]
    fn bad_decompressor_window_is_a_typed_error() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let comp = dir.path().join("out.z");
        std::fs::write(&input, b"window check").unwrap();
        run(strs(&["compress", "-o", comp.to_str().unwrap(), input.to_str().unwrap()])).unwrap();
        let err = run(strs(&["decompress", "--window", "1000", "-o", "-", comp.to_str().unwrap()]))
            .unwrap_err();
        assert!(err.contains("decompressor config"), "unexpected error: {err}");
    }

    #[test]
    fn truncated_streams_are_typed_errors_not_panics() {
        let dir = TestDir::new();
        for (name, bytes) in [("a.gz", &[0x1F, 0x8B, 0x08][..]), ("b.z", &[0x78, 0x9C, 0x01][..])] {
            let p = dir.path().join(name);
            std::fs::write(&p, bytes).unwrap();
            let err = run(strs(&["decompress", "-o", "-", p.to_str().unwrap()])).unwrap_err();
            assert!(
                err.starts_with("gzip:") || err.starts_with("zlib:"),
                "unexpected error: {err}"
            );
        }
    }
}

#[cfg(test)]
mod metrics_tests {
    use super::*;
    use lzfpga_telemetry::parse_jsonl;

    fn strs(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn metrics_never_change_the_stream_bytes() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        std::fs::write(&input, lzfpga_workloads::generate(Corpus::Wiki, 7, 50_000)).unwrap();
        for engine in ["hw", "sw", "turbo"] {
            let plain = dir.path().join(format!("{engine}-plain.z"));
            let probed = dir.path().join(format!("{engine}-probed.z"));
            let jsonl = dir.path().join(format!("{engine}.jsonl"));
            run(strs(&[
                "compress",
                "--engine",
                engine,
                "-o",
                plain.to_str().unwrap(),
                input.to_str().unwrap(),
            ]))
            .unwrap();
            run(strs(&[
                "compress",
                "--engine",
                engine,
                "--metrics",
                jsonl.to_str().unwrap(),
                "-o",
                probed.to_str().unwrap(),
                input.to_str().unwrap(),
            ]))
            .unwrap();
            assert_eq!(
                std::fs::read(&plain).unwrap(),
                std::fs::read(&probed).unwrap(),
                "--metrics changed the {engine} stream"
            );
            let text = std::fs::read_to_string(&jsonl).unwrap();
            let events = parse_jsonl(&text).unwrap();
            assert!(!events.is_empty());
            assert_eq!(events[0].get("event").unwrap().as_str(), Some("run"));
            // `sw` is a spelling of the software engine, which is turbo.
            let ran = if engine == "hw" { "hw" } else { "turbo" };
            assert_eq!(events[0].get("engine").unwrap().as_str(), Some(ran));
            let has_turbo =
                events.iter().any(|e| e.get("event").unwrap().as_str() == Some("turbo"));
            assert_eq!(has_turbo, ran == "turbo", "{engine}: turbo counter section");
        }
        // The archive commands name what ran, whatever `--engine` says: a
        // serial frame runs the turbo `FrameWriter`, decoding runs inflate.
        let archive = dir.path().join("a.lzfc");
        let (a, i) = (archive.to_str().unwrap(), input.to_str().unwrap());
        let cases: [(&str, &[&str], &str); 7] = [
            ("frame", &["frame", "--engine", "hw", "-o", a, i], "turbo"),
            ("frame", &["frame", "--parallel", "--engine", "hw", "-o", a, i], "hw"),
            ("frame", &["frame", "--parallel", "--engine", "sw", "-o", a, i], "turbo"),
            ("frame", &["frame", "-o", a, i], "turbo"),
            ("unframe", &["unframe", "--engine", "hw", a], "inflate"),
            ("cat", &["cat", "--range", "100..9000", a], "inflate"),
            ("salvage", &["salvage", a], "inflate"),
        ];
        for (n, (command, cmd, ran)) in cases.into_iter().enumerate() {
            let (plain, probed) = (dir.path().join("plain.out"), dir.path().join("probed.out"));
            let jsonl = dir.path().join(format!("{n}.jsonl"));
            // Archive-writing commands write `a.lzfc` itself.
            let out_args = |out: &std::path::Path| {
                let mut args = strs(cmd);
                if !args.contains(&"-o".to_string()) {
                    args.splice(1..1, strs(&["-o", out.to_str().unwrap()]));
                }
                args
            };
            run(out_args(&plain)).unwrap();
            let before = std::fs::read(if command == "frame" { &archive } else { &plain }).unwrap();
            let mut args = out_args(&probed);
            args.splice(1..1, strs(&["--metrics", jsonl.to_str().unwrap()]));
            run(args.clone()).unwrap();
            let after = std::fs::read(if command == "frame" { &archive } else { &probed }).unwrap();
            assert_eq!(before, after, "--metrics changed the output of {args:?}");
            let events = parse_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
            assert_eq!(events[0].get("command").unwrap().as_str(), Some(command), "{args:?}");
            assert_eq!(events[0].get("engine").unwrap().as_str(), Some(ran), "{args:?}");
        }
    }

    #[test]
    fn turbo_metrics_cover_every_input_byte() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let data = lzfpga_workloads::generate(Corpus::LogLines, 13, 120_000);
        std::fs::write(&input, &data).unwrap();
        let jsonl = dir.path().join("m.jsonl");
        run(strs(&[
            "compress",
            "--engine",
            "turbo",
            "--metrics",
            jsonl.to_str().unwrap(),
            "-o",
            dir.path().join("out.z").to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let events = parse_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
        let turbo = events
            .iter()
            .find(|e| e.get("event").unwrap().as_str() == Some("turbo"))
            .expect("turbo event missing");
        let literals = turbo.get("literals").unwrap().as_i64().unwrap();
        let match_bytes = turbo.get("match_bytes").unwrap().as_i64().unwrap();
        assert_eq!(literals + match_bytes, data.len() as i64);
    }

    #[test]
    fn parallel_metrics_and_trace_events_export() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        std::fs::write(&input, lzfpga_workloads::generate(Corpus::Mixed, 3, 200_000)).unwrap();
        let jsonl = dir.path().join("p.jsonl");
        let trace = dir.path().join("p.trace.json");
        run(strs(&[
            "compress",
            "--engine",
            "turbo",
            "--parallel",
            "--chunk",
            "32768",
            "--workers",
            "3",
            "--metrics",
            jsonl.to_str().unwrap(),
            "--trace-events",
            trace.to_str().unwrap(),
            "-o",
            dir.path().join("out.z").to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let events = parse_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
        assert!(events.iter().any(|e| e.get("event").unwrap().as_str() == Some("parallel")));
        let faults = events
            .iter()
            .find(|e| e.get("event").unwrap().as_str() == Some("faults"))
            .expect("faults ledger event");
        assert_eq!(faults.get("retries").unwrap().as_i64(), Some(0));
        let doc = lzfpga_telemetry::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let list = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert!(!list.is_empty());
        assert!(list.iter().all(|e| e.get("ph").unwrap().as_str() == Some("X")));
        // --trace-events without --parallel is rejected up front.
        assert!(run(strs(&[
            "compress",
            "--trace-events",
            trace.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .is_err());
    }

    #[test]
    fn metrics_files_end_with_a_registry_snapshot() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        std::fs::write(&input, lzfpga_workloads::generate(Corpus::LogLines, 2, 60_000)).unwrap();
        let jsonl = dir.path().join("m.jsonl");
        run(strs(&[
            "frame",
            "--frame-size",
            "8192",
            "--metrics",
            jsonl.to_str().unwrap(),
            "-o",
            dir.path().join("out.lzfc").to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let events = parse_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("run"));
        let last = events.last().unwrap();
        assert_eq!(last.get("event").unwrap().as_str(), Some("metrics"));
        // The snapshot round-trips through the obs parser and reconciles
        // with the per-frame events it was built from.
        let snap = lzfpga_obs::snapshot_from_json(last).expect("snapshot parses");
        let frames =
            events.iter().filter(|e| e.get("event").unwrap().as_str() == Some("frame")).count();
        assert_eq!(snap.counter("frames_total"), frames as u64);
        assert_eq!(snap.counter("run_input_bytes"), 60_000);
    }

    #[test]
    fn prometheus_export_is_valid_text_exposition() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        std::fs::write(&input, lzfpga_workloads::generate(Corpus::Wiki, 9, 80_000)).unwrap();
        let prom = dir.path().join("m.prom");
        run(strs(&[
            "compress",
            "--engine",
            "turbo",
            "--prometheus",
            prom.to_str().unwrap(),
            "-o",
            dir.path().join("out.z").to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        let samples = lzfpga_obs::parse_prometheus_text(&text).expect("valid exposition");
        assert!(!samples.is_empty());
        let covered = samples
            .iter()
            .find(|s| s.name == "turbo_literals")
            .map(|s| s.value)
            .expect("turbo_literals sample");
        assert!(covered > 0.0);
    }

    #[test]
    fn framed_parallel_trace_is_one_causal_span_tree() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        std::fs::write(&input, lzfpga_workloads::generate(Corpus::Mixed, 8, 200_000)).unwrap();
        let trace = dir.path().join("frame.trace.json");
        run(strs(&[
            "frame",
            "--engine",
            "turbo",
            "--frame-size",
            "32768",
            "--parallel",
            "--workers",
            "3",
            "--trace-events",
            trace.to_str().unwrap(),
            "-o",
            dir.path().join("out.lzfc").to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        let summary = lzfpga_obs::validate_trace_document(&text).expect("one causal tree");
        assert!(summary.max_depth >= 3, "file -> frame -> stage: {summary:?}");
        assert!(summary.spans > 200_000 / 32_768, "one span per frame plus stages");
    }

    #[test]
    fn serial_frame_trace_rebuilds_the_tree_from_frame_events() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        std::fs::write(&input, lzfpga_workloads::generate(Corpus::SensorFrames, 3, 50_000))
            .unwrap();
        let trace = dir.path().join("serial.trace.json");
        run(strs(&[
            "frame",
            "--frame-size",
            "8192",
            "--trace-events",
            trace.to_str().unwrap(),
            "-o",
            dir.path().join("out.lzfc").to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let summary =
            lzfpga_obs::validate_trace_document(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert_eq!(summary.max_depth, 3);
    }

    #[test]
    fn stats_aggregates_a_jsonl_metrics_stream() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        std::fs::write(&input, lzfpga_workloads::generate(Corpus::JsonTelemetry, 6, 90_000))
            .unwrap();
        let jsonl = dir.path().join("m.jsonl");
        run(strs(&[
            "frame",
            "--engine",
            "turbo",
            "--frame-size",
            "16384",
            "--metrics",
            jsonl.to_str().unwrap(),
            "-o",
            dir.path().join("out.lzfc").to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(looks_like_metrics_jsonl(text.as_bytes()));
        let rendered = render_metrics_stream(&text).unwrap();
        assert!(rendered.contains("p50"), "latency table: {rendered}");
        assert!(rendered.contains("frames: 6"), "frame count: {rendered}");
        assert!(rendered.contains("registry metrics"), "snapshot merged: {rendered}");
        // The subcommand itself accepts the stream (auto-detected).
        run(strs(&["stats", jsonl.to_str().unwrap()])).unwrap();
        // A non-JSONL input still goes to the hardware model path.
        assert!(!looks_like_metrics_jsonl(b"plain old bytes"));
    }

    #[test]
    fn stats_reads_a_histogram_sum_past_2_pow_63() {
        let dir = TestDir::new();
        let jsonl = dir.path().join("m.jsonl");
        let reg = MetricsRegistry::new();
        for _ in 0..3 {
            reg.histogram("lat").record(1 << 62);
        }
        let mut line = snapshot_to_json(&reg.snapshot());
        line.push("event", "metrics");
        let text = line.render() + "\n";
        assert!(text.contains(&(3u64 << 62).to_string()), "{text}");
        std::fs::write(&jsonl, &text).unwrap();
        let rendered = render_metrics_stream(&text).unwrap();
        assert!(rendered.contains("registry metrics"), "the line merged: {rendered}");
        run(strs(&["stats", jsonl.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn stats_skips_a_metrics_line_with_a_malformed_histogram() {
        let dir = TestDir::new();
        let jsonl = dir.path().join("m.jsonl");
        let line = |hist: &str| {
            format!(
                "{{\"event\":\"metrics\",\"counters\":{{}},\"gauges\":{{}},\
                 \"histograms\":{{\"lat\":{hist}}}}}\n"
            )
        };
        let text = [
            line(r#"{"sum":-5,"max":1,"buckets":[[1,1]]}"#),
            line(r#"{"sum":1,"max":1,"buckets":[[100000,1]]}"#),
            line(r#"{"sum":2,"max":1,"buckets":[[1,1],[0,1]]}"#),
        ]
        .concat();
        std::fs::write(&jsonl, &text).unwrap();
        let rendered = render_metrics_stream(&text).unwrap();
        assert!(rendered.contains("events: 3"), "{rendered}");
        assert!(!rendered.contains("registry metrics"), "a malformed line merged: {rendered}");
        run(strs(&["stats", jsonl.to_str().unwrap()])).unwrap();
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    #[test]
    fn rtl_writes_the_bundle() {
        let dir = TestDir::new();
        let out = dir.path().join("rtl");
        run(vec![
            "rtl".into(),
            "--window".into(),
            "8192".into(),
            "-o".into(),
            out.to_str().unwrap().into(),
        ])
        .unwrap();
        let pkg = std::fs::read_to_string(out.join("lzss_pkg.vhd")).unwrap();
        assert!(pkg.contains("constant WINDOW_BYTES : natural := 8192;"));
        assert!(out.join("lzss_top.vhd").exists());
        // Missing -o is an error, not a crash.
        assert!(run(vec!["rtl".into()]).is_err());
    }

    #[test]
    fn trace_writes_a_vcd() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let vcd = dir.path().join("wave.vcd");
        std::fs::write(&input, b"trace me trace me trace me".repeat(100)).unwrap();
        run(vec![
            "trace".into(),
            "-o".into(),
            vcd.to_str().unwrap().into(),
            input.to_str().unwrap().into(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&vcd).unwrap();
        assert!(text.starts_with("$date"));
        assert!(text.contains("$var wire 3 ! state $end"));
    }
}

#[cfg(test)]
mod frame_tests {
    use super::*;
    use lzfpga_telemetry::parse_jsonl;

    fn strs(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The staging suffixes no successful run may leave behind.
    fn assert_no_staging_leftovers(dir: &std::path::Path) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp") && !name.ends_with(".part"),
                "staging file left behind: {name}"
            );
        }
    }

    #[test]
    fn frame_unframe_round_trip_serial_and_parallel() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let data = lzfpga_workloads::generate(Corpus::Mixed, 17, 150_000);
        std::fs::write(&input, &data).unwrap();
        let serial = dir.path().join("serial.lzfc");
        let par = dir.path().join("par.lzfc");
        run(strs(&[
            "frame",
            "--frame-size",
            "16384",
            "-o",
            serial.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        run(strs(&[
            "frame",
            "--frame-size",
            "16384",
            "--parallel",
            "--workers",
            "3",
            "-o",
            par.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        // The parallel path is byte-identical to the streaming writer.
        assert_eq!(std::fs::read(&serial).unwrap(), std::fs::read(&par).unwrap());
        for flags in [&["unframe"][..], &["unframe", "--parallel", "--workers", "2"][..]] {
            let restored = dir.path().join("back.bin");
            let mut args = flags.to_vec();
            let out = restored.to_str().unwrap().to_string();
            let inp = serial.to_str().unwrap().to_string();
            args.extend(["-o", &out, &inp]);
            run(strs(&args)).unwrap();
            assert_eq!(std::fs::read(&restored).unwrap(), data);
        }
        assert_no_staging_leftovers(dir.path());
    }

    #[test]
    fn salvage_loses_only_the_corrupted_frame() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let fb = 8_192usize;
        let data = lzfpga_workloads::generate(Corpus::LogLines, 29, 40_000);
        std::fs::write(&input, &data).unwrap();
        let archive = dir.path().join("a.lzfc");
        run(strs(&[
            "frame",
            "--frame-size",
            "8192",
            "-o",
            archive.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        // Intact stream: salvage is a faithful unframe.
        let whole = dir.path().join("whole.bin");
        run(strs(&["salvage", "-o", whole.to_str().unwrap(), archive.to_str().unwrap()])).unwrap();
        assert_eq!(std::fs::read(&whole).unwrap(), data);
        // Corrupt one payload byte of frame 1: every other frame survives.
        let mut framed = std::fs::read(&archive).unwrap();
        let spans = lzfpga_container::frame_spans(&framed).unwrap();
        framed[spans[1].payload_start] ^= 0xFF;
        let hurt = dir.path().join("hurt.lzfc");
        std::fs::write(&hurt, &framed).unwrap();
        let rescued = dir.path().join("rescued.bin");
        let report = dir.path().join("salvage.jsonl");
        run(strs(&[
            "salvage",
            "--metrics",
            report.to_str().unwrap(),
            "-o",
            rescued.to_str().unwrap(),
            hurt.to_str().unwrap(),
        ]))
        .unwrap();
        let mut expected = data[..fb].to_vec();
        expected.extend_from_slice(&data[2 * fb..]);
        assert_eq!(std::fs::read(&rescued).unwrap(), expected);
        let events = parse_jsonl(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let s = events
            .iter()
            .find(|e| e.get("event").unwrap().as_str() == Some("salvage"))
            .expect("salvage event");
        assert_eq!(s.get("frames_skipped").unwrap().as_i64(), Some(1));
        assert_no_staging_leftovers(dir.path());
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_archive() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let data = lzfpga_workloads::generate(Corpus::JsonTelemetry, 41, 100_000);
        std::fs::write(&input, &data).unwrap();
        let fresh = dir.path().join("fresh.lzfc");
        run(strs(&[
            "frame",
            "--frame-size",
            "16384",
            "-o",
            fresh.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let fresh_bytes = std::fs::read(&fresh).unwrap();
        // Simulate a kill mid-stream: only a truncated .part survives.
        let out = dir.path().join("resumed.lzfc");
        let part = dir.path().join("resumed.lzfc.part");
        std::fs::write(&part, &fresh_bytes[..fresh_bytes.len() * 2 / 3]).unwrap();
        run(strs(&[
            "resume",
            "--frame-size",
            "16384",
            "-o",
            out.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), fresh_bytes);
        assert!(!part.exists(), ".part must be renamed away on completion");
        // Resuming against the wrong input is refused before any write.
        std::fs::write(&part, &fresh_bytes[..fresh_bytes.len() / 2]).unwrap();
        let other = dir.path().join("other.bin");
        std::fs::write(&other, lzfpga_workloads::generate(Corpus::Wiki, 1, 100_000)).unwrap();
        let err = run(strs(&[
            "resume",
            "--frame-size",
            "16384",
            "-o",
            out.to_str().unwrap(),
            other.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("does not match"), "unexpected error: {err}");
    }

    #[test]
    fn frame_metrics_report_every_frame() {
        let dir = TestDir::new();
        let input = dir.path().join("in.bin");
        let data = lzfpga_workloads::generate(Corpus::SensorFrames, 5, 60_000);
        std::fs::write(&input, &data).unwrap();
        let jsonl = dir.path().join("m.jsonl");
        run(strs(&[
            "frame",
            "--frame-size",
            "8192",
            "--metrics",
            jsonl.to_str().unwrap(),
            "-o",
            dir.path().join("out.lzfc").to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();
        let events = parse_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
        assert_eq!(events[0].get("command").unwrap().as_str(), Some("frame"));
        let frames: Vec<_> =
            events.iter().filter(|e| e.get("event").unwrap().as_str() == Some("frame")).collect();
        assert_eq!(frames.len(), 60_000usize.div_ceil(8_192));
        let covered: i64 =
            frames.iter().map(|e| e.get("uncompressed_bytes").unwrap().as_i64().unwrap()).sum();
        assert_eq!(covered, 60_000);
        assert_no_staging_leftovers(dir.path());
    }
}

#[cfg(test)]
mod dict_tests {
    use super::*;

    #[test]
    fn dict_round_trip_through_files() {
        let dir = TestDir::new();
        let dict_path = dir.path().join("preset.dict");
        let input = dir.path().join("in.bin");
        let comp = dir.path().join("out.zdict");
        let restored = dir.path().join("back.bin");
        std::fs::write(&dict_path, b"\"ts\":\"seq\":\"src\":\"ecu0\" DEBUG INFO WARN").unwrap();
        let data = lzfpga_workloads::generate(Corpus::JsonTelemetry, 5, 30_000);
        std::fs::write(&input, &data).unwrap();
        run(vec![
            "compress".into(),
            "--dict".into(),
            dict_path.to_str().unwrap().into(),
            "-o".into(),
            comp.to_str().unwrap().into(),
            input.to_str().unwrap().into(),
        ])
        .unwrap();
        // Without the dictionary, decompression must fail.
        assert!(run(vec![
            "decompress".into(),
            "-o".into(),
            restored.to_str().unwrap().into(),
            comp.to_str().unwrap().into(),
        ])
        .is_err());
        run(vec![
            "decompress".into(),
            "--dict".into(),
            dict_path.to_str().unwrap().into(),
            "-o".into(),
            restored.to_str().unwrap().into(),
            comp.to_str().unwrap().into(),
        ])
        .unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), data);
        // gzip + dict is rejected.
        assert!(run(vec![
            "compress".into(),
            "--format".into(),
            "gzip".into(),
            "--dict".into(),
            dict_path.to_str().unwrap().into(),
            input.to_str().unwrap().into(),
        ])
        .is_err());
    }

    /// A sink that fails every write with a chosen error kind.
    struct FailingSink(std::io::ErrorKind);

    impl Write for FailingSink {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(self.0, "sink refused"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_writes_treat_closed_pipes_as_a_clean_stop() {
        // Regression for the `cat`/`salvage`/`stats` `| head` path: a
        // closed pipe is a success signal, any other I/O failure an error.
        let mut ok: Vec<u8> = Vec::new();
        assert_eq!(write_streaming(&mut ok, b"hello"), Ok(StreamWrite::Written));
        assert_eq!(ok, b"hello");
        let mut closed = FailingSink(std::io::ErrorKind::BrokenPipe);
        assert_eq!(write_streaming(&mut closed, b"hello"), Ok(StreamWrite::PipeClosed));
        let mut broken = FailingSink(std::io::ErrorKind::Other);
        assert!(write_streaming(&mut broken, b"hello").is_err());
    }

    #[test]
    fn follow_poll_backs_off_exponentially_and_resets_on_growth() {
        let mut d = FOLLOW_POLL_MIN;
        let mut seen = vec![d];
        for _ in 0..8 {
            d = next_poll_delay(d, false);
            seen.push(d);
        }
        // Doubles each idle tick, then pins at the cap.
        assert_eq!(seen[1], FOLLOW_POLL_MIN * 2);
        assert_eq!(seen[2], FOLLOW_POLL_MIN * 4);
        assert_eq!(*seen.last().unwrap(), FOLLOW_POLL_MAX);
        assert!(seen.windows(2).all(|w| w[1] >= w[0]));
        // Growth snaps straight back to the floor, even from the cap.
        assert_eq!(next_poll_delay(FOLLOW_POLL_MAX, true), FOLLOW_POLL_MIN);
    }

    #[test]
    fn serve_and_client_roundtrip_over_the_cli_surface() {
        let dir = TestDir::new();
        let input = dir.path().join("input.bin");
        let framed = dir.path().join("framed.lzfc");
        let restored = dir.path().join("restored.bin");
        let data = lzfpga_workloads::generate(Corpus::LogLines, 7, 48 * 1024);
        std::fs::write(&input, &data).unwrap();
        // `cmd_serve` blocks until drained, so run the server directly on
        // a free port and drive the `client` subcommand against it.
        let handle = Server::new(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            allow_remote_shutdown: true,
            ..ServerConfig::default()
        })
        .start()
        .unwrap();
        let addr = handle.addr().to_string();
        run(vec![
            "client".into(),
            "--addr".into(),
            addr.clone(),
            "compress".into(),
            "-o".into(),
            framed.to_str().unwrap().into(),
            input.to_str().unwrap().into(),
        ])
        .unwrap();
        run(vec![
            "client".into(),
            "--addr".into(),
            addr.clone(),
            "decompress".into(),
            "-o".into(),
            restored.to_str().unwrap().into(),
            framed.to_str().unwrap().into(),
        ])
        .unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), data);
        // The framed bytes match the local pipeline byte for byte.
        let local = dir.path().join("local.lzfc");
        run(vec![
            "frame".into(),
            "-o".into(),
            local.to_str().unwrap().into(),
            input.to_str().unwrap().into(),
        ])
        .unwrap();
        assert_eq!(std::fs::read(&framed).unwrap(), std::fs::read(&local).unwrap());
        // Missing --addr and unknown ops are usage errors, not hangs.
        assert!(run(vec!["client".into(), "compress".into()]).is_err());
        assert!(
            run(vec!["client".into(), "--addr".into(), addr.clone(), "frobnicate".into()]).is_err()
        );
        run(vec!["client".into(), "--addr".into(), addr, "shutdown".into()]).unwrap();
        handle.wait();
    }
}
