//! Chunk-parallel compression over multiple compressor instances.
//!
//! The paper puts **one** LZSS engine next to the CPU; a Virtex-5 has room
//! for several (Table II: ~5-7 % of the chip each), and a logging
//! aggregator with multiple input channels can run them side by side. This
//! crate models that scale-out the way `pigz` does for software deflate:
//!
//! * the input splits into fixed-size **chunks**, each compressed by an
//!   independent engine (fresh dictionary — chunk boundaries lose a little
//!   ratio, quantified in tests);
//! * every chunk becomes a run of non-final Deflate blocks; concatenated
//!   they form **one standard zlib stream** (matches never cross chunk
//!   boundaries, so block concatenation is sound), with a single Adler-32
//!   over the whole input;
//! * the output is **bit-identical for any worker count and any engine
//!   kind** — parallelism is an implementation detail, never a format
//!   change.
//!
//! Every driver here — zlib, framed, strict decode, range decode
//! — is a thin adaptor over [`exec::ordered_map`]: workers claim chunks
//! while the calling thread consumes their results *in order as they
//! land*, so the Deflate bit-packing or frame layout of chunk `i` overlaps
//! the matching of chunks `i+1..`, the paper's matcher→Huffman FIFO
//! decoupling in software. Every per-chunk attempt runs through the one
//! degradation ladder, [`exec::ladder`] (engine, retry, then a fresh,
//! never injectable turbo engine), whose recoveries land in the job's
//! [`FailureReport`]; only a chunk whose fresh attempt also fails
//! yields [`ParallelError::ChunkFailed`].
//!
//! Two front-ends produce identical token streams: [`EngineKind::Modelled`],
//! the cycle-accurate hardware model whose per-chunk cycle counts feed the
//! multi-engine *makespan* model, and [`EngineKind::Turbo`], the software
//! fast path, whose workers keep one [`TurboEngine`] each and recycle token
//! buffers through a freelist. With [`ParallelConfig::telemetry`] set, a
//! run also reports a [`PipelineTelemetry`] (worker busy/idle time,
//! stitcher stalls, reorder-queue waits, turbo counters, chrome://tracing
//! spans); telemetry never changes the output bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;

use std::sync::Mutex;
use std::time::Instant;

use lzfpga_container::{
    check_structure, decode_frame, decode_frame_to, encode_frame, finish_stream_checks,
    payload_from_sink, plan_range, ContainerError, FrameConfig, StreamLayout, HEADER_LEN,
};
use lzfpga_core::config::CLOCK_HZ;
use lzfpga_core::{HwCompressor, HwConfig};
use lzfpga_deflate::adler32::adler32;
use lzfpga_deflate::crc32::Crc32;
use lzfpga_deflate::encoder::{BlockKind, DeflateEncoder, FixedZlibSink};
use lzfpga_deflate::sink::TokenSink;
use lzfpga_deflate::token::Token;
use lzfpga_deflate::zlib::zlib_header;
use lzfpga_faults::{Failpoints, FailureReport, NoFaults};
use lzfpga_lzss::TurboEngine;
use lzfpga_telemetry::{
    frame_span, span_args, stage_span, FrameEvent, FrameOutcome, PipelineTelemetry, SpanTimer,
    StitcherStats, TraceEvent, TurboCounters, WorkerStats, ROOT_SPAN,
};

use exec::{ladder, ordered_map, Rung};

/// Which compressor front-end produces the per-chunk token streams.
///
/// Both kinds emit token-for-token identical streams (enforced by tests);
/// the choice trades metrics for speed: `Modelled` yields per-chunk cycle
/// counts for the FPGA scale-out model, `Turbo` runs as fast as the host
/// allows and reports zero cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Cycle-accurate hardware model (slow, fully instrumented).
    #[default]
    Modelled,
    /// Word-at-a-time software fast path (no cycle model).
    Turbo,
}

/// Parallel compression configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Chunk size in bytes (each chunk gets a fresh dictionary).
    pub chunk_bytes: usize,
    /// Host worker threads (0 = all available cores).
    pub workers: usize,
    /// Modelled hardware engine instances on the FPGA.
    pub instances: usize,
    /// Per-engine configuration.
    pub hw: HwConfig,
    /// Token-stream front-end.
    pub engine: EngineKind,
    /// Collect pipeline telemetry (worker utilization, stitcher stalls,
    /// turbo counters, trace events) into [`ParallelReport::telemetry`].
    /// Never affects the output bytes.
    pub telemetry: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            chunk_bytes: 256 * 1024,
            workers: 0,
            instances: 4,
            hw: HwConfig::paper_fast(),
            engine: EngineKind::Modelled,
            telemetry: false,
        }
    }
}

/// Rejected [`ParallelConfig`] values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelConfigError {
    /// Chunks below 4 KiB waste all compression ratio on dictionary warm-up.
    ChunkTooSmall {
        /// The offending chunk size.
        chunk_bytes: usize,
    },
    /// At least one modelled engine instance is required.
    NoInstances,
    /// Framed chunks must fit the container's 32-bit frame fields.
    FrameTooLarge {
        /// The offending frame size.
        frame_bytes: usize,
    },
}

impl std::fmt::Display for ParallelConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ParallelConfigError::ChunkTooSmall { chunk_bytes } => {
                write!(f, "chunks below 4 KiB waste all ratio (got {chunk_bytes} bytes)")
            }
            ParallelConfigError::NoInstances => write!(f, "at least one engine instance"),
            ParallelConfigError::FrameTooLarge { frame_bytes } => {
                write!(f, "frames above MAX_FRAME_BYTES do not fit LZFC headers (got {frame_bytes} bytes)")
            }
        }
    }
}

impl std::error::Error for ParallelConfigError {}

/// Why a parallel compression job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelError {
    /// The configuration failed validation (nothing ran).
    Config(ParallelConfigError),
    /// A chunk failed the whole degradation ladder (engine, retry, fresh
    /// engine).
    ChunkFailed {
        /// The chunk that could not be compressed.
        index: usize,
        /// How many attempts it consumed.
        attempts: u64,
    },
}

impl From<ParallelConfigError> for ParallelError {
    fn from(e: ParallelConfigError) -> Self {
        ParallelError::Config(e)
    }
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ParallelError::Config(e) => write!(f, "parallel config: {e}"),
            ParallelError::ChunkFailed { index, attempts } => {
                write!(f, "chunk {index} failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ParallelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParallelError::Config(e) => Some(e),
            ParallelError::ChunkFailed { .. } => None,
        }
    }
}

impl ParallelConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns an error on a sub-4-KiB chunk size or zero instances.
    ///
    /// # Panics
    /// Panics when the embedded [`HwConfig`] is invalid (its own contract).
    pub fn validate(&self) -> Result<(), ParallelConfigError> {
        if self.chunk_bytes < 4_096 {
            return Err(ParallelConfigError::ChunkTooSmall { chunk_bytes: self.chunk_bytes });
        }
        if self.instances < 1 {
            return Err(ParallelConfigError::NoInstances);
        }
        self.hw.validate();
        Ok(())
    }
}

/// Per-chunk outcome.
#[derive(Debug, Clone)]
pub struct ChunkReport {
    /// Chunk index.
    pub index: usize,
    /// Input bytes in this chunk.
    pub input_bytes: u64,
    /// Engine cycles spent (DMA setup included, as in Table I). Zero for
    /// the [`EngineKind::Turbo`] front-end, which has no cycle model.
    pub cycles: u64,
    /// Tokens produced.
    pub tokens: u64,
}

/// Result of a parallel compression run.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// The single zlib stream covering the whole input.
    pub compressed: Vec<u8>,
    /// Per-chunk engine metrics, in chunk order.
    pub chunks: Vec<ChunkReport>,
    /// Makespan in cycles when the chunks run on `instances` engines
    /// (greedy round-robin assignment in chunk order).
    pub makespan_cycles: u64,
    /// Total engine cycles across all chunks (the 1-instance makespan).
    pub total_cycles: u64,
    /// Input size.
    pub input_bytes: u64,
    /// Pipeline telemetry, present when [`ParallelConfig::telemetry`] was
    /// set.
    pub telemetry: Option<PipelineTelemetry>,
    /// Fault-tolerance ledger for this job: attempts, retries, degraded
    /// chunks, caught panics, fired failpoints. `is_clean()` on healthy
    /// runs.
    pub failures: FailureReport,
}

impl ParallelReport {
    /// Compression ratio (input / output).
    pub fn ratio(&self) -> f64 {
        if self.compressed.is_empty() {
            0.0
        } else {
            self.input_bytes as f64 / self.compressed.len() as f64
        }
    }

    /// Modelled aggregate throughput of the multi-engine design, MB/s.
    pub fn mb_per_s(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.input_bytes as f64 / 1e6 * CLOCK_HZ / self.makespan_cycles as f64
        }
    }

    /// Modelled speedup over a single engine.
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            1.0
        } else {
            self.total_cycles as f64 / self.makespan_cycles as f64
        }
    }
}

/// One worker's engine, counters, span row and fault ledger, reused
/// across every item it claims.
struct Worker {
    engine: TurboEngine,
    counters: TurboCounters,
    stats: WorkerStats,
    timer: Option<SpanTimer>,
    /// End of this worker's last busy span (spawn time before the first).
    idle_since_us: f64,
    failures: FailureReport,
}

impl Worker {
    fn new(worker: usize, timer: Option<SpanTimer>) -> Self {
        Worker {
            engine: TurboEngine::new(),
            counters: TurboCounters::default(),
            stats: WorkerStats { worker, ..WorkerStats::default() },
            idle_since_us: timer.as_ref().map_or(0.0, SpanTimer::now_us),
            timer,
            failures: FailureReport::default(),
        }
    }

    /// Tokenize chunk `i` through the ladder into a sink `fresh` makes for
    /// each attempt; returns the filled sink and the engine cycles (0 for
    /// turbo and for degraded chunks). The turbo engines stream into the
    /// sink; the modelled engine feeds it its token vector.
    fn tokenize<S: TokenSink, F: Failpoints>(
        &mut self,
        cfg: &ParallelConfig,
        i: usize,
        chunk: &[u8],
        site: &'static str,
        faults: &F,
        mut fresh: impl FnMut() -> S,
    ) -> Result<(S, u64), u64> {
        let params = cfg.hw.as_lzss_params();
        let Worker { engine, counters, timer, failures, .. } = self;
        ladder(faults, site, i, failures, timer.as_mut(), |rung| {
            let mut sink = fresh();
            let mut cycles = 0;
            match (rung, cfg.engine) {
                (Rung::Fresh, _) => TurboEngine::new().compress_into(chunk, &params, &mut sink),
                (_, EngineKind::Modelled) => {
                    let rep = HwCompressor::new(cfg.hw).compress(chunk);
                    sink.push_tokens(&rep.tokens);
                    cycles = rep.cycles;
                }
                (_, EngineKind::Turbo) if cfg.telemetry => {
                    engine.compress_into_probed(chunk, &params, &mut sink, counters);
                }
                (_, EngineKind::Turbo) => {
                    engine.compress_into_faulty(chunk, &params, &mut sink, faults)?
                }
            }
            Ok((sink, cycles))
        })
    }
}

/// Every worker's ledgers of one run, merged in worker order.
#[derive(Default)]
struct Merged {
    failures: FailureReport,
    counters: TurboCounters,
    trace_events: Vec<TraceEvent>,
    stats: Vec<WorkerStats>,
}

fn merge(workers: Vec<Worker>) -> Merged {
    let mut merged = Merged::default();
    for mut w in workers {
        merged.failures.merge(&w.failures);
        merged.counters.merge(&w.counters);
        if let Some(t) = w.timer.as_mut() {
            merged.trace_events.extend(t.drain());
        }
        merged.stats.push(w.stats);
    }
    merged
}

/// The root file span every chunk or frame span of a job parents to, so
/// the whole job renders as one causal tree in chrome://tracing.
fn root_span(name: &str, epoch: Instant, bytes: usize, parts: (&'static str, usize)) -> TraceEvent {
    let mut args = span_args(ROOT_SPAN, 0);
    args.push(("bytes", (bytes as u64).into()));
    args.push((parts.0, (parts.1 as u64).into()));
    let dur_us = epoch.elapsed().as_secs_f64() * 1e6;
    TraceEvent { name: name.to_string(), cat: "file", tid: 0, ts_us: 0.0, dur_us, args }
}

fn chunk_failed((index, attempts): (usize, u64)) -> ParallelError {
    ParallelError::ChunkFailed { index, attempts }
}

/// One finished chunk waiting for the stitcher.
struct ChunkDone {
    tokens: Vec<Token>,
    cycles: u64,
    /// Completion time in µs since the run epoch (0 when telemetry is off);
    /// lets the stitcher measure how long the chunk sat in the queue.
    done_us: f64,
}

/// Compress `data` chunk-parallel into one standard zlib stream.
///
/// The output bytes depend only on `cfg.chunk_bytes` and `cfg.hw` — never
/// on `cfg.workers`, `cfg.instances`, or `cfg.engine`.
///
/// # Errors
/// Returns [`ParallelError::Config`] when `cfg` fails validation, and
/// [`ParallelError::ChunkFailed`] when a chunk exhausts the degradation
/// ladder (engine → retry → fresh engine).
pub fn compress_parallel(
    data: &[u8],
    cfg: &ParallelConfig,
) -> Result<ParallelReport, ParallelError> {
    compress_parallel_with(data, cfg, &NoFaults)
}

/// [`compress_parallel`] with failpoints active: site
/// `parallel.worker.chunk` fires before each chunk's engine and retry
/// attempts (never its fresh rung), and the turbo front-end also routes
/// through `turbo.compress.enter` / `.exit` unless telemetry is on. Fired
/// faults are drained into [`ParallelReport::failures`].
pub fn compress_parallel_with<F: Failpoints>(
    data: &[u8],
    cfg: &ParallelConfig,
    faults: &F,
) -> Result<ParallelReport, ParallelError> {
    cfg.validate()?;
    let chunks: Vec<&[u8]> =
        if data.is_empty() { vec![&[]] } else { data.chunks(cfg.chunk_bytes).collect() };
    let n_chunks = chunks.len();
    let turbo = cfg.engine == EngineKind::Turbo;
    // Turbo workers recycle token buffers through the freelist, so
    // steady-state chunks allocate nothing.
    let freelist: Mutex<Vec<Vec<Token>>> = Mutex::new(Vec::new());
    let epoch = Instant::now();

    let mut enc = DeflateEncoder::new();
    let mut reports = Vec::with_capacity(n_chunks);
    let mut stitch_timer = cfg.telemetry.then(|| SpanTimer::new(epoch, 0));
    let mut stitcher = StitcherStats::default();
    let mut wait_start_us = 0.0;
    let (workers, outcome) = ordered_map(
        &chunks,
        cfg.workers,
        |w| {
            let timer = cfg.telemetry.then(|| SpanTimer::new(epoch, w as u32 + 1));
            Worker::new(w, timer)
        },
        |w, i, chunk| {
            let start_us = w.timer.as_ref().map_or(0.0, SpanTimer::now_us);
            let mut spare = None;
            if turbo {
                spare = freelist.lock().expect("freelist lock").pop();
                w.stats.freelist_hits += u64::from(spare.is_some());
                w.stats.freelist_misses += u64::from(spare.is_none());
            }
            // Recycled buffers come back cleared from the stitcher.
            let fresh = || spare.take().unwrap_or_default();
            let (tokens, cycles) =
                w.tokenize(cfg, i, chunk, "parallel.worker.chunk", faults, fresh)?;
            let Some(t) = w.timer.as_mut() else {
                return Ok(ChunkDone { tokens, cycles, done_us: 0.0 });
            };
            let mut args = span_args(frame_span(i as u64), ROOT_SPAN);
            args.push(("bytes", chunk.len().into()));
            args.push(("tokens", tokens.len().into()));
            w.stats.busy_s += t.complete(format!("compress chunk {i}"), "compress", start_us, args);
            w.stats.idle_s += ((start_us - w.idle_since_us) / 1e6).max(0.0);
            w.stats.chunks += 1;
            w.stats.input_bytes += chunk.len() as u64;
            w.idle_since_us = t.now_us();
            Ok(ChunkDone { tokens, cycles, done_us: w.idle_since_us })
        },
        // Stitch: per-chunk block runs, in order, overlapping the workers.
        |i, done| {
            let last = i + 1 == n_chunks;
            if let Some(t) = stitch_timer.as_mut() {
                let frame_id = frame_span(i as u64);
                let stall = span_args(stage_span(frame_id, 1), frame_id);
                stitcher.stall_s +=
                    t.complete(format!("wait chunk {i}"), "stall", wait_start_us, stall);
                stitcher.queue_wait_s += ((t.now_us() - done.done_us) / 1e6).max(0.0);
                let enc_start_us = t.now_us();
                enc.write_block(&done.tokens, BlockKind::FixedHuffman, last);
                let encode = span_args(stage_span(frame_id, 0), frame_id);
                stitcher.encode_s +=
                    t.complete(format!("encode chunk {i}"), "encode", enc_start_us, encode);
                wait_start_us = t.now_us();
            } else {
                enc.write_block(&done.tokens, BlockKind::FixedHuffman, last);
            }
            let (cycles, tokens) = (done.cycles, done.tokens.len() as u64);
            let input_bytes = chunks[i].len() as u64;
            reports.push(ChunkReport { index: i, input_bytes, cycles, tokens });
            if turbo {
                let mut buf = done.tokens;
                buf.clear();
                let mut list = freelist.lock().expect("freelist lock");
                list.push(buf);
                stitcher.freelist_peak = stitcher.freelist_peak.max(list.len() as u64);
            }
        },
    );
    let merged = merge(workers);
    let mut failures = merged.failures;
    failures.injected = faults.drain_events();
    outcome.map_err(chunk_failed)?;

    let telemetry = stitch_timer.map(|mut t| {
        let mut trace_events = t.drain();
        trace_events.extend(merged.trace_events);
        let root = root_span("parallel compress", epoch, data.len(), ("chunks", n_chunks));
        trace_events.insert(0, root);
        let (workers, turbo) = (merged.stats, merged.counters);
        let wall_s = epoch.elapsed().as_secs_f64();
        PipelineTelemetry { wall_s, workers, stitcher, turbo, trace_events }
    });

    // zlib framing: header, the stitched blocks, single Adler trailer.
    let mut compressed = zlib_header(cfg.hw.window_size.max(256), 1).to_vec();
    compressed.extend_from_slice(&enc.finish());
    compressed.extend_from_slice(&adler32(data).to_be_bytes());

    // Makespan on `instances` engines, chunks assigned round-robin.
    let mut engine_load = vec![0u64; cfg.instances];
    for r in &reports {
        engine_load[r.index % cfg.instances] += r.cycles;
    }
    let makespan = engine_load.into_iter().max().unwrap_or(0);
    let total: u64 = reports.iter().map(|r| r.cycles).sum();

    Ok(ParallelReport {
        compressed,
        chunks: reports,
        makespan_cycles: makespan,
        total_cycles: total,
        input_bytes: data.len() as u64,
        telemetry,
        failures,
    })
}

/// One finished LZFC frame waiting for the framed stitcher.
struct FrameDone {
    /// Complete frame bytes: header + stored payload.
    frame: Vec<u8>,
    codec: &'static str,
    cycles: u64,
    tokens: u64,
    encode_us: f64,
    /// Worker pickup time in µs since the run epoch ([`FrameEvent::start_us`]).
    start_us: f64,
}

impl FrameDone {
    /// Frame `i` from its packed stream (encoding timed from `t0`): the
    /// shared codec decision, then header + payload.
    fn encode(i: usize, chunk: &[u8], sink: FixedZlibSink, t0: Instant) -> Self {
        let tokens = sink.tokens();
        let (codec, payload) = payload_from_sink(sink, chunk);
        let frame = encode_frame(i, chunk, codec, &payload)
            .expect("frame_bytes validated <= MAX_FRAME_BYTES");
        FrameDone {
            frame,
            codec: codec.as_str(),
            cycles: 0,
            tokens,
            encode_us: t0.elapsed().as_secs_f64() * 1e6,
            start_us: 0.0,
        }
    }
}

/// The ordered half of the framed driver: lays finished frames out in
/// sequence through the container's [`StreamLayout`] and collects their
/// events and chunk reports.
struct Framer<'a> {
    cfg: &'a FrameConfig,
    layout: StreamLayout,
    framed: Vec<u8>,
    chunks: Vec<ChunkReport>,
    events: Vec<FrameEvent>,
}

impl<'a> Framer<'a> {
    fn new(cfg: &'a FrameConfig) -> Self {
        let (framed, chunks, events) = (Vec::new(), Vec::new(), Vec::new());
        Framer { cfg, layout: StreamLayout::new(), framed, chunks, events }
    }

    fn push(&mut self, i: usize, chunk: &[u8], done: FrameDone) {
        self.layout.push(chunk, done.frame.len());
        self.framed.extend_from_slice(&done.frame);
        if self.cfg.collect_events {
            self.events.push(FrameEvent {
                seq: i as u32,
                uncompressed_bytes: chunk.len() as u64,
                payload_bytes: (done.frame.len() - HEADER_LEN) as u64,
                codec: done.codec,
                crc_us: 0.0,
                encode_us: done.encode_us,
                start_us: done.start_us,
                outcome: FrameOutcome::Written,
            });
        }
        let (input_bytes, cycles, tokens) = (chunk.len() as u64, done.cycles, done.tokens);
        self.chunks.push(ChunkReport { index: i, input_bytes, cycles, tokens });
    }

    /// Close the stream (seek index + trailer) and build the report.
    fn finish(
        mut self,
        failures: FailureReport,
        counters: Option<TurboCounters>,
        trace_events: Vec<TraceEvent>,
    ) -> FramedParallelReport {
        self.framed.extend_from_slice(&self.layout.finish(self.cfg.index));
        FramedParallelReport {
            framed: self.framed,
            frames: self.layout.frames(),
            input_bytes: self.layout.input_bytes(),
            chunks: self.chunks,
            failures,
            events: self.events,
            counters,
            trace_events,
        }
    }
}

/// The effective configuration of a framed run: frames are the chunks.
fn framed_config(
    cfg: &ParallelConfig,
    frame_cfg: &FrameConfig,
) -> Result<ParallelConfig, ParallelError> {
    let frame_bytes = frame_cfg.frame_bytes;
    if frame_bytes > lzfpga_container::MAX_FRAME_BYTES {
        return Err(ParallelConfigError::FrameTooLarge { frame_bytes }.into());
    }
    let eff = ParallelConfig { chunk_bytes: frame_bytes, ..*cfg };
    eff.validate()?;
    Ok(eff)
}

/// Result of a chunk-parallel framed (LZFC) compression run.
#[derive(Debug, Clone)]
pub struct FramedParallelReport {
    /// The complete LZFC stream (frames + trailer), byte-identical to what
    /// a single-threaded [`lzfpga_container::FrameWriter`] produces with
    /// the same frame size and engine parameters.
    pub framed: Vec<u8>,
    /// Data frames in the stream.
    pub frames: u32,
    /// Input size.
    pub input_bytes: u64,
    /// Per-chunk engine metrics, in frame order.
    pub chunks: Vec<ChunkReport>,
    /// Fault-tolerance ledger (same ladder as [`compress_parallel`]).
    pub failures: FailureReport,
    /// Per-frame telemetry, when [`FrameConfig::collect_events`] was set.
    pub events: Vec<FrameEvent>,
    /// Aggregated turbo-engine match-loop counters, present when
    /// [`ParallelConfig::telemetry`] was set.
    pub counters: Option<TurboCounters>,
    /// Causal chrome://tracing spans (one root file span, one span per
    /// frame, stage children), when [`ParallelConfig::telemetry`] was set.
    /// Empty on plain runs.
    pub trace_events: Vec<TraceEvent>,
}

/// Compress `data` chunk-parallel into one LZFC framed stream: every
/// chunk becomes exactly one independently decodable frame.
///
/// Chunk boundaries *are* frame boundaries — `cfg.chunk_bytes` is ignored
/// in favor of `frame_cfg.frame_bytes`. The output depends only on the
/// frame size and engine parameters, never on worker count or engine kind.
///
/// # Errors
/// [`ParallelError::Config`] for a rejected configuration (frames below
/// 4 KiB or above the container's header range), [`ParallelError::ChunkFailed`]
/// when a frame exhausts the degradation ladder.
pub fn compress_frames_parallel(
    data: &[u8],
    cfg: &ParallelConfig,
    frame_cfg: &FrameConfig,
) -> Result<FramedParallelReport, ParallelError> {
    compress_frames_parallel_with(data, cfg, frame_cfg, &NoFaults)
}

/// [`compress_frames_parallel`] with failpoints active.
///
/// Site `parallel.frame.chunk` fires once per engine or retry attempt of
/// a frame, walking the same ladder as `parallel.worker.chunk`.
pub fn compress_frames_parallel_with<F: Failpoints>(
    data: &[u8],
    cfg: &ParallelConfig,
    frame_cfg: &FrameConfig,
    faults: &F,
) -> Result<FramedParallelReport, ParallelError> {
    let eff = framed_config(cfg, frame_cfg)?;
    let params = eff.hw.as_lzss_params();
    // Unlike the zlib path, an empty input has zero frames (the stream is
    // a bare trailer), matching FrameWriter exactly.
    let chunks: Vec<&[u8]> = data.chunks(eff.chunk_bytes).collect();
    let epoch = Instant::now();
    let mut stitch_timer = eff.telemetry.then(|| SpanTimer::new(epoch, 0));
    let mut wait_start_us = 0.0;
    let mut framer = Framer::new(frame_cfg);
    let (workers, outcome) = ordered_map(
        &chunks,
        eff.workers,
        |w| {
            let timer = eff.telemetry.then(|| SpanTimer::new(epoch, w as u32 + 1));
            Worker::new(w, timer)
        },
        |w, i, chunk| {
            let t0 = Instant::now();
            let start_us = epoch.elapsed().as_secs_f64() * 1e6;
            let fresh = || FixedZlibSink::new(params.window_size);
            let (sink, cycles) =
                w.tokenize(&eff, i, chunk, "parallel.frame.chunk", faults, fresh)?;
            let frame_id = frame_span(i as u64);
            let stage = |k| span_args(stage_span(frame_id, k), frame_id);
            let enc_start_us = w.timer.as_mut().map_or(0.0, |t| {
                t.complete(format!("tokens frame {i}"), "compress", start_us, stage(0));
                t.now_us()
            });
            let done = FrameDone { cycles, start_us, ..FrameDone::encode(i, chunk, sink, t0) };
            if let Some(t) = w.timer.as_mut() {
                t.complete(format!("encode frame {i}"), "encode", enc_start_us, stage(1));
                let mut args = span_args(frame_id, ROOT_SPAN);
                args.push(("bytes", chunk.len().into()));
                args.push(("payload_bytes", (done.frame.len() - HEADER_LEN).into()));
                t.complete(format!("frame {i}"), "frame", start_us, args);
            }
            Ok(done)
        },
        // Lay frames out in order while later chunks are still compressing.
        |i, done| {
            if let Some(t) = stitch_timer.as_mut() {
                let frame_id = frame_span(i as u64);
                let stall = span_args(stage_span(frame_id, 4), frame_id);
                t.complete(format!("wait frame {i}"), "stall", wait_start_us, stall);
                wait_start_us = t.now_us();
            }
            framer.push(i, chunks[i], done);
        },
    );
    let merged = merge(workers);
    let mut failures = merged.failures;
    failures.injected = faults.drain_events();
    outcome.map_err(chunk_failed)?;

    // The causal span tree: stitcher spans + worker spans under one root
    // file span that the frame spans parent to.
    let trace_events = match stitch_timer {
        Some(mut t) => {
            let mut list = t.drain();
            list.extend(merged.trace_events);
            list.insert(
                0,
                root_span("frame compress", epoch, data.len(), ("frames", chunks.len())),
            );
            list
        }
        None => Vec::new(),
    };
    let counters = eff
        .telemetry
        .then_some(merged.counters)
        .filter(|c| c.kernel_runs > 0 || c.literals > 0 || c.matches > 0);
    Ok(framer.finish(failures, counters, trace_events))
}

/// Strictly decode an LZFC stream with frame payloads verified and
/// decompressed in parallel (`workers` = 0 uses all cores).
///
/// The serial structure scan comes first — headers are cheap — then the
/// per-frame CRC + decode work (the expensive part) fans out, and the
/// trailer cross-checks run over the reassembled output. Equivalent to
/// [`lzfpga_container::unframe`] on every input, valid or not.
///
/// # Errors
/// Exactly the [`ContainerError`] the serial decoder would report; when
/// several frames are damaged, the lowest-numbered frame's error wins.
pub fn decompress_frames_parallel(bytes: &[u8], workers: usize) -> Result<Vec<u8>, ContainerError> {
    let structure = check_structure(bytes)?;
    let mut out = Vec::new();
    let mut crc = Crc32::new();
    let (_, outcome) = ordered_map(
        &structure.frames,
        workers,
        |_| (),
        |_, _, span| decode_frame(bytes, span),
        |_, data| {
            crc.update(&data);
            out.extend_from_slice(&data);
        },
    );
    outcome.map_err(|(_, e)| e)?;
    finish_stream_checks(&structure, out.len() as u64, crc.finish())?;
    Ok(out)
}

/// Decode exactly the bytes `range.start..range.end` of the stream's
/// original input, fanning the covering frames out across `workers`
/// threads (`workers` = 0 uses all cores).
///
/// The plan comes from [`lzfpga_container::plan_range`]: the seek index
/// when the stream carries a truthful one, a strict structure scan
/// otherwise — either way only the frames covering the range are read,
/// CRC-checked and inflated, so the work is O(frames-in-range) regardless
/// of stream size. The result is byte-identical to
/// `decompress_frames_parallel(bytes)[start..end]` with range ends clamped
/// to the stream's total.
///
/// # Errors
/// The strict decoder's [`ContainerError`] for damaged streams (the
/// lowest-numbered damaged covering frame wins); for degraded serves over
/// damaged streams use [`lzfpga_container::open_indexed`] instead.
pub fn decode_range_parallel(
    bytes: &[u8],
    range: std::ops::Range<u64>,
    workers: usize,
) -> Result<Vec<u8>, ContainerError> {
    decode_range_parallel_with(bytes, range, workers, &NoFaults, &mut FailureReport::default())
}

/// [`decode_range_parallel`] with failpoints active: each covering frame's
/// decode runs through the same ladder as the compress side, with site
/// `parallel.range.frame` checked before its first two attempts and the
/// ledger landing in `report`. A real stream error is final on the first
/// attempt not injected away; a frame whose every attempt panicked is
/// refused as [`ContainerError::RangeUnavailable`] at its first offset.
///
/// # Errors
/// The strict decoder's typed error for damaged streams, or the
/// `RangeUnavailable` refusal described above.
pub fn decode_range_parallel_with<F: Failpoints>(
    bytes: &[u8],
    range: std::ops::Range<u64>,
    workers: usize,
    faults: &F,
    report: &mut FailureReport,
) -> Result<Vec<u8>, ContainerError> {
    let (plan, clamped) = plan_range(bytes, range)?;
    if plan.is_empty() {
        // Empty and inverted ranges serve nothing (and may carry start > end).
        return Ok(Vec::new());
    }
    let mut out = Vec::with_capacity((clamped.end - clamped.start) as usize);
    let (ledgers, outcome) = ordered_map(
        &plan,
        workers,
        |_| FailureReport::default(),
        |ledger, i, (span, fstart)| {
            // The last covering frame stops at the range's end.
            let hi = clamped.end.min(fstart + u64::from(span.record.ulen)) - fstart;
            ladder(faults, "parallel.range.frame", i, ledger, None, |_| {
                Ok(decode_frame_to(bytes, span, hi))
            })
            .unwrap_or(Err(ContainerError::RangeUnavailable { offset: *fstart }))
        },
        |i, data| {
            // decode_frame_to returned exactly `hi` bytes: the frame's
            // ulen, or the range's end inside it when that comes first.
            // The planner verified every covering frame's header against
            // the frame map, so fstart < clamped.end and the frame ends at
            // or past clamped.start: lo <= data.len(), and the slice below
            // is in bounds.
            let fstart = plan[i].1;
            let lo = (clamped.start.max(fstart) - fstart) as usize;
            out.extend_from_slice(&data[lo..]);
        },
    );
    for ledger in &ledgers {
        report.merge(ledger);
    }
    outcome.map_err(|(_, e)| e)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lzfpga_core::pipeline::compress_to_zlib;
    use lzfpga_deflate::zlib::zlib_decompress;
    use lzfpga_workloads::{generate, Corpus};

    fn cfg(chunk: usize, workers: usize, instances: usize) -> ParallelConfig {
        ParallelConfig {
            chunk_bytes: chunk,
            workers,
            instances,
            hw: HwConfig::paper_fast(),
            engine: EngineKind::Modelled,
            telemetry: false,
        }
    }

    fn turbo_cfg(chunk: usize, workers: usize) -> ParallelConfig {
        ParallelConfig { engine: EngineKind::Turbo, ..cfg(chunk, workers, 1) }
    }

    #[test]
    fn output_is_valid_zlib() {
        let data = generate(Corpus::Wiki, 5, 700_000);
        let rep = compress_parallel(&data, &cfg(128 * 1024, 0, 4)).unwrap();
        assert_eq!(zlib_decompress(&rep.compressed).unwrap(), data);
        assert_eq!(rep.chunks.len(), 6);
    }

    #[test]
    fn worker_count_never_changes_the_bytes() {
        let data = generate(Corpus::X2e, 9, 400_000);
        let baseline = compress_parallel(&data, &cfg(64 * 1024, 1, 1)).unwrap();
        for workers in [2usize, 3, 8] {
            let rep = compress_parallel(&data, &cfg(64 * 1024, workers, workers)).unwrap();
            assert_eq!(rep.compressed, baseline.compressed, "workers = {workers}");
        }
    }

    #[test]
    fn turbo_engine_is_byte_identical_to_the_model() {
        let data = generate(Corpus::Mixed, 11, 500_000);
        let modelled = compress_parallel(&data, &cfg(64 * 1024, 1, 1)).unwrap();
        for workers in [1usize, 2, 4] {
            let turbo = compress_parallel(&data, &turbo_cfg(64 * 1024, workers)).unwrap();
            assert_eq!(turbo.compressed, modelled.compressed, "workers = {workers}");
        }
    }

    #[test]
    fn turbo_reports_no_cycles() {
        let data = generate(Corpus::Wiki, 3, 100_000);
        let rep = compress_parallel(&data, &turbo_cfg(32 * 1024, 2)).unwrap();
        assert_eq!(rep.total_cycles, 0);
        assert_eq!(rep.makespan_cycles, 0);
        assert!((rep.speedup() - 1.0).abs() < f64::EPSILON);
        assert_eq!(rep.mb_per_s(), 0.0);
    }

    #[test]
    fn single_chunk_matches_the_pipeline_exactly() {
        let data = generate(Corpus::LogLines, 3, 100_000);
        let par = compress_parallel(&data, &cfg(1 << 20, 2, 2)).unwrap();
        let single = compress_to_zlib(&data, &HwConfig::paper_fast());
        assert_eq!(par.compressed, single.compressed);
    }

    #[test]
    fn chunking_costs_a_little_ratio() {
        let data = generate(Corpus::Wiki, 7, 600_000);
        let whole = compress_parallel(&data, &cfg(1 << 20, 0, 1)).unwrap();
        let chopped = compress_parallel(&data, &cfg(16 * 1024, 0, 1)).unwrap();
        assert!(chopped.compressed.len() >= whole.compressed.len());
        // ... but only a little: the dictionary warms up in a few KB.
        assert!(
            (chopped.compressed.len() as f64) < whole.compressed.len() as f64 * 1.10,
            "{} vs {}",
            chopped.compressed.len(),
            whole.compressed.len()
        );
    }

    #[test]
    fn multi_engine_speedup_is_near_linear() {
        let data = generate(Corpus::Wiki, 2, 1_200_000);
        let rep4 = compress_parallel(&data, &cfg(64 * 1024, 0, 4)).unwrap();
        assert!(rep4.speedup() > 3.0, "speedup {}", rep4.speedup());
        assert!(rep4.mb_per_s() > 120.0, "{} MB/s", rep4.mb_per_s());
        let rep1 = compress_parallel(&data, &cfg(64 * 1024, 0, 1)).unwrap();
        assert_eq!(rep1.makespan_cycles, rep1.total_cycles);
    }

    #[test]
    fn empty_input_yields_a_valid_empty_stream() {
        let rep = compress_parallel(b"", &cfg(8 * 1024, 2, 2)).unwrap();
        assert_eq!(zlib_decompress(&rep.compressed).unwrap(), b"");
    }

    #[test]
    fn tiny_chunks_rejected() {
        let err = compress_parallel(b"x", &cfg(1024, 1, 1)).unwrap_err();
        assert!(matches!(
            err,
            ParallelError::Config(ParallelConfigError::ChunkTooSmall { chunk_bytes: 1024 })
        ));
        assert!(err.to_string().contains("below 4 KiB"));
    }

    #[test]
    fn zero_instances_rejected() {
        let err = compress_parallel(b"x", &cfg(8 * 1024, 1, 0)).unwrap_err();
        assert!(matches!(err, ParallelError::Config(ParallelConfigError::NoInstances)));
    }

    #[test]
    fn telemetry_is_opt_in_and_never_changes_the_bytes() {
        let data = generate(Corpus::Mixed, 13, 300_000);
        let plain = compress_parallel(&data, &turbo_cfg(32 * 1024, 3)).unwrap();
        assert!(plain.telemetry.is_none());
        let observed = compress_parallel(
            &data,
            &ParallelConfig { telemetry: true, ..turbo_cfg(32 * 1024, 3) },
        )
        .unwrap();
        assert_eq!(observed.compressed, plain.compressed);
        assert!(observed.telemetry.is_some());
    }

    #[test]
    fn worker_counters_merge_into_the_serial_histograms() {
        use lzfpga_telemetry::histogram::{bucket_hi, bucket_index};
        let data = generate(Corpus::Mixed, 11, 300_000);
        let frame = 32 * 1024;
        let frame_cfg = FrameConfig { frame_bytes: frame, ..FrameConfig::default() };
        // One serial probed run over the same frames, one engine reused.
        let params = turbo_cfg(frame, 1).hw.as_lzss_params();
        let (mut engine, mut serial) = (TurboEngine::new(), TurboCounters::default());
        for chunk in data.chunks(frame) {
            engine.compress_into_probed(chunk, &params, &mut Vec::new(), &mut serial);
        }
        for workers in [1, 3] {
            let cfg = ParallelConfig { telemetry: true, ..turbo_cfg(frame, workers) };
            let rep = compress_frames_parallel(&data, &cfg, &frame_cfg).unwrap();
            let merged = rep.counters.expect("telemetry collects counters");
            assert_eq!(merged.chain_hist, serial.chain_hist, "workers = {workers}");
            assert_eq!(merged.match_len_hist, serial.match_len_hist, "workers = {workers}");
            let json = merged.to_json();
            assert_eq!(json.get("chain_len"), serial.to_json().get("chain_len"));
            assert_eq!(json.get("match_len"), serial.to_json().get("match_len"));
        }
        // The report rows sit on the registry's bucket bounds.
        for key in ["chain_len", "match_len"] {
            let section = serial.to_json();
            let rows = section.get(key).unwrap().get("buckets").unwrap().as_array().unwrap();
            assert!(!rows.is_empty(), "{key}");
            for row in rows {
                let top = row.get("lt").unwrap().as_i64().unwrap() as u64 - 1;
                assert_eq!(bucket_hi(bucket_index(top)), top, "{key} row {row:?}");
            }
        }
    }

    #[test]
    fn telemetry_accounts_for_every_chunk_and_byte() {
        let data = generate(Corpus::Wiki, 8, 400_000);
        let rep = compress_parallel(
            &data,
            &ParallelConfig { telemetry: true, ..turbo_cfg(64 * 1024, 2) },
        )
        .unwrap();
        let t = rep.telemetry.as_ref().unwrap();

        // Workers: every chunk and input byte shows up exactly once.
        assert_eq!(t.workers.len(), 2);
        assert_eq!(t.workers.iter().map(|w| w.chunks).sum::<u64>(), rep.chunks.len() as u64);
        assert_eq!(t.workers.iter().map(|w| w.input_bytes).sum::<u64>(), data.len() as u64);
        let allocs: u64 = t.workers.iter().map(|w| w.freelist_misses).sum();
        let reuses: u64 = t.workers.iter().map(|w| w.freelist_hits).sum();
        assert_eq!(allocs + reuses, rep.chunks.len() as u64);
        assert!(allocs >= 1, "first chunk per worker must allocate");

        // Turbo counters cover the whole input (chunk dictionaries are
        // independent, so coverage still sums to the input size).
        assert_eq!(t.turbo.covered_bytes(), data.len() as u64);
        let tokens: u64 = rep.chunks.iter().map(|c| c.tokens).sum();
        assert_eq!(t.turbo.literals + t.turbo.matches, tokens);

        // The stitcher encoded every chunk; spans exist for each stage.
        let encode_spans =
            t.trace_events.iter().filter(|e| e.cat == "encode" && e.tid == 0).count();
        assert_eq!(encode_spans, rep.chunks.len());
        let compress_spans = t.trace_events.iter().filter(|e| e.cat == "compress").count();
        assert_eq!(compress_spans, rep.chunks.len());
        assert!(t.trace_events.iter().all(|e| e.dur_us >= 0.0 && e.ts_us >= 0.0));
        assert!(t.wall_s > 0.0);
        assert!(t.stitcher.encode_s > 0.0);
        assert!(t.stitcher.freelist_peak >= 1);
    }

    #[test]
    fn clean_runs_report_no_failures() {
        let data = generate(Corpus::Wiki, 4, 120_000);
        let rep = compress_parallel(&data, &turbo_cfg(32 * 1024, 2)).unwrap();
        assert!(rep.failures.is_clean());
        assert_eq!(rep.failures.attempts, rep.chunks.len() as u64);
    }

    #[test]
    fn injected_worker_panic_still_yields_correct_bytes() {
        use lzfpga_faults::{FailPlan, FailRule};
        // The acceptance drill: 8 chunks on 4 workers, one injected panic.
        let data = generate(Corpus::Mixed, 21, 256_000);
        let clean = compress_parallel(&data, &turbo_cfg(32 * 1024, 4)).unwrap();
        assert_eq!(clean.chunks.len(), 8);

        let plan = FailPlan::new(7).rule(FailRule::new("parallel.worker.chunk").on_hit(3).panics());
        let rep = compress_parallel_with(&data, &turbo_cfg(32 * 1024, 4), &plan).unwrap();
        assert_eq!(rep.compressed, clean.compressed);
        assert_eq!(zlib_decompress(&rep.compressed).unwrap(), data);

        // Exactly the injected fault shows up, nothing else: one panic,
        // one retry that succeeds, no degradation to a fresh engine.
        assert_eq!(rep.failures.attempts, 9);
        assert_eq!(rep.failures.retries, 1);
        assert_eq!(rep.failures.worker_restarts, 1);
        assert_eq!(rep.failures.injected_errors, 0);
        assert!(rep.failures.degraded_chunks.is_empty());
        assert!(rep.failures.failed_chunks.is_empty());
        assert_eq!(rep.failures.injected.len(), 1);
        assert_eq!(rep.failures.injected[0].site, "parallel.worker.chunk");
    }

    #[test]
    fn repeated_faults_degrade_a_chunk_to_the_reference_engine() {
        use lzfpga_faults::{FailPlan, FailRule};
        let data = generate(Corpus::Wiki, 6, 256_000);
        let clean = compress_parallel(&data, &turbo_cfg(32 * 1024, 1)).unwrap();
        assert_eq!(clean.chunks.len(), 8);

        // Workers = 1 makes the global hit order deterministic: hit 3 is
        // chunk 2's first attempt, hit 4 its retry, so chunk 2 degrades.
        let plan = FailPlan::new(11)
            .rule(FailRule::new("parallel.worker.chunk").on_hit(3).times(2).errors());
        let rep = compress_parallel_with(&data, &turbo_cfg(32 * 1024, 1), &plan).unwrap();
        assert_eq!(rep.compressed, clean.compressed, "fresh fallback is token-identical");
        assert_eq!(rep.failures.attempts, 10);
        assert_eq!(rep.failures.retries, 1);
        assert_eq!(rep.failures.injected_errors, 2);
        assert_eq!(rep.failures.degraded_chunks, vec![2]);
        assert!(rep.failures.failed_chunks.is_empty());
        assert_eq!(rep.failures.worker_restarts, 0);
    }

    #[test]
    fn a_chunk_whose_engine_rungs_all_fail_degrades_byte_exactly() {
        use lzfpga_faults::{FailPlan, FailRule};
        let data = generate(Corpus::LogLines, 2, 40_000);
        let clean = compress_parallel(&data, &turbo_cfg(8 * 1024, 1)).unwrap();
        // Hits 1 and 2 are chunk 0's engine and retry rungs; its fresh
        // rung is never injectable. Hit 3 fails chunk 1's first attempt.
        let plan = FailPlan::new(3)
            .rule(FailRule::new("parallel.worker.chunk").on_hit(1).times(3).errors());
        let rep = compress_parallel_with(&data, &turbo_cfg(8 * 1024, 1), &plan).unwrap();
        assert_eq!(rep.compressed, clean.compressed);
        assert_eq!(rep.failures.degraded_chunks, vec![0]);
        assert!(rep.failures.failed_chunks.is_empty());
        assert_eq!(rep.failures.injected_errors, 3);
        assert_eq!(rep.failures.retries, 2);
    }

    #[test]
    fn modelled_engine_survives_injected_faults_too() {
        use lzfpga_faults::{FailPlan, FailRule};
        let data = generate(Corpus::X2e, 8, 100_000);
        let clean = compress_parallel(&data, &cfg(32 * 1024, 1, 1)).unwrap();
        let plan = FailPlan::new(5).rule(FailRule::new("parallel.worker.chunk").on_hit(2).panics());
        let rep = compress_parallel_with(&data, &cfg(32 * 1024, 1, 1), &plan).unwrap();
        assert_eq!(rep.compressed, clean.compressed);
        assert_eq!(rep.failures.worker_restarts, 1);
        assert_eq!(rep.failures.retries, 1);
    }

    #[test]
    fn modelled_engine_telemetry_reports_worker_time_without_turbo_counters() {
        let data = generate(Corpus::X2e, 5, 150_000);
        let rep =
            compress_parallel(&data, &ParallelConfig { telemetry: true, ..cfg(32 * 1024, 2, 2) })
                .unwrap();
        let t = rep.telemetry.as_ref().unwrap();
        assert!(t.workers.iter().map(|w| w.busy_s).sum::<f64>() > 0.0);
        assert_eq!(t.turbo.covered_bytes(), 0, "modelled path has no turbo probes");
        assert_eq!(t.workers.iter().map(|w| w.freelist_hits + w.freelist_misses).sum::<u64>(), 0);
    }

    #[test]
    fn framed_parallel_matches_the_single_threaded_frame_writer() {
        use lzfpga_container::FrameWriter;
        use std::io::Write as _;
        let data = generate(Corpus::Mixed, 31, 500_000);
        let frame_cfg =
            FrameConfig { frame_bytes: 64 * 1024, collect_events: false, ..FrameConfig::default() };
        let mut w =
            FrameWriter::new(Vec::new(), frame_cfg, HwConfig::paper_fast().as_lzss_params())
                .unwrap();
        w.write_all(&data).unwrap();
        let (serial, _) = w.finish().unwrap();
        for workers in [1usize, 2, 4] {
            let rep = compress_frames_parallel(&data, &turbo_cfg(64 * 1024, workers), &frame_cfg)
                .unwrap();
            assert_eq!(rep.framed, serial, "workers = {workers}");
        }
        // The modelled engine is token-identical, so the frames match too.
        let modelled = compress_frames_parallel(&data, &cfg(64 * 1024, 2, 2), &frame_cfg).unwrap();
        assert_eq!(modelled.framed, serial);
        assert!(modelled.chunks.iter().map(|c| c.cycles).sum::<u64>() > 0);
    }

    #[test]
    fn framed_parallel_roundtrips_through_both_decoders() {
        let data = generate(Corpus::Wiki, 33, 700_000);
        let frame_cfg =
            FrameConfig { frame_bytes: 128 * 1024, collect_events: true, ..FrameConfig::default() };
        let rep = compress_frames_parallel(&data, &turbo_cfg(128 * 1024, 0), &frame_cfg).unwrap();
        assert_eq!(rep.frames, 6);
        assert_eq!(rep.events.len(), 6);
        assert_eq!(lzfpga_container::unframe(&rep.framed).unwrap(), data);
        for workers in [0usize, 1, 3] {
            assert_eq!(
                decompress_frames_parallel(&rep.framed, workers).unwrap(),
                data,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn framed_telemetry_builds_one_causal_span_tree() {
        let data = generate(Corpus::Mixed, 5, 300_000);
        let frame_cfg =
            FrameConfig { frame_bytes: 64 * 1024, collect_events: true, ..FrameConfig::default() };
        let cfg = ParallelConfig { telemetry: true, ..turbo_cfg(64 * 1024, 3) };
        let plain = compress_frames_parallel(&data, &turbo_cfg(64 * 1024, 3), &frame_cfg).unwrap();
        let rep = compress_frames_parallel(&data, &cfg, &frame_cfg).unwrap();
        assert_eq!(rep.framed, plain.framed, "telemetry never changes bytes");
        assert!(plain.trace_events.is_empty());
        assert!(plain.counters.is_none());

        // Counters aggregate the probed engines across all frames.
        let counters = rep.counters.as_ref().expect("telemetry collects counters");
        assert_eq!(counters.covered_bytes(), data.len() as u64);

        // One root span, one frame span per frame parented to it, stage
        // children parented to their frame.
        let span_of = |e: &TraceEvent, key: &str| {
            e.args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| v.as_i64()).unwrap_or(-1)
        };
        let roots: Vec<_> = rep.trace_events.iter().filter(|e| span_of(e, "parent") == 0).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(span_of(roots[0], "span_id"), i64::from(ROOT_SPAN as u32));
        for i in 0..rep.frames as u64 {
            let id = frame_span(i) as i64;
            let frame = rep
                .trace_events
                .iter()
                .find(|e| e.cat == "frame" && span_of(e, "span_id") == id)
                .unwrap_or_else(|| panic!("frame span {i} missing"));
            assert_eq!(span_of(frame, "parent"), i64::from(ROOT_SPAN as u32));
            let children = rep.trace_events.iter().filter(|e| span_of(e, "parent") == id).count();
            assert!(children >= 2, "frame {i} wants tokens+encode stage children");
        }
        // Frame events carry pickup timestamps for serial tree rebuilds.
        assert!(rep.events.iter().all(|e| e.start_us >= 0.0));
    }

    #[test]
    fn framed_parallel_empty_input_is_a_bare_trailer() {
        let frame_cfg = FrameConfig::default();
        let rep = compress_frames_parallel(b"", &turbo_cfg(256 * 1024, 2), &frame_cfg).unwrap();
        assert_eq!(rep.frames, 0);
        assert_eq!(rep.framed.len(), HEADER_LEN);
        assert_eq!(decompress_frames_parallel(&rep.framed, 2).unwrap(), b"");
    }

    #[test]
    fn framed_parallel_survives_injected_panics_byte_exactly() {
        use lzfpga_faults::{FailPlan, FailRule};
        let data = generate(Corpus::LogLines, 35, 256_000);
        let frame_cfg =
            FrameConfig { frame_bytes: 32 * 1024, collect_events: false, ..FrameConfig::default() };
        let clean = compress_frames_parallel(&data, &turbo_cfg(32 * 1024, 4), &frame_cfg).unwrap();
        let plan = FailPlan::new(9).rule(FailRule::new("parallel.frame.chunk").on_hit(3).panics());
        let rep = compress_frames_parallel_with(&data, &turbo_cfg(32 * 1024, 4), &frame_cfg, &plan)
            .unwrap();
        assert_eq!(rep.framed, clean.framed);
        assert_eq!(rep.failures.worker_restarts, 1);
        assert_eq!(rep.failures.retries, 1);
        assert_eq!(rep.failures.injected[0].site, "parallel.frame.chunk");
        // A frame whose engine rungs all fail degrades to the fresh
        // rung, which is never injectable: the bytes stay exact.
        let plan = FailPlan::new(4)
            .rule(FailRule::new("parallel.frame.chunk").on_hit(1).times(3).errors());
        let rep = compress_frames_parallel_with(&data, &turbo_cfg(32 * 1024, 1), &frame_cfg, &plan)
            .unwrap();
        assert_eq!(rep.framed, clean.framed);
        assert_eq!(rep.failures.degraded_chunks, vec![0]);
        assert!(rep.failures.failed_chunks.is_empty());
    }

    #[test]
    fn framed_parallel_rejects_bad_frame_sizes() {
        let small =
            FrameConfig { frame_bytes: 1024, collect_events: false, ..FrameConfig::default() };
        assert!(matches!(
            compress_frames_parallel(b"x", &turbo_cfg(32 * 1024, 1), &small),
            Err(ParallelError::Config(ParallelConfigError::ChunkTooSmall { chunk_bytes: 1024 }))
        ));
        let huge = FrameConfig {
            frame_bytes: lzfpga_container::MAX_FRAME_BYTES + 1,
            collect_events: false,
            ..FrameConfig::default()
        };
        let err = compress_frames_parallel(b"x", &turbo_cfg(32 * 1024, 1), &huge).unwrap_err();
        assert!(err.to_string().contains("MAX_FRAME_BYTES"));
    }

    #[test]
    fn parallel_decode_reports_the_lowest_damaged_frame() {
        let data = generate(Corpus::JsonTelemetry, 37, 300_000);
        let frame_cfg =
            FrameConfig { frame_bytes: 32 * 1024, collect_events: false, ..FrameConfig::default() };
        let rep = compress_frames_parallel(&data, &turbo_cfg(32 * 1024, 2), &frame_cfg).unwrap();
        let spans = lzfpga_container::frame_spans(&rep.framed).unwrap();
        let mut bad = rep.framed.clone();
        bad[spans[2].payload_start] ^= 0x40;
        bad[spans[5].payload_start] ^= 0x40;
        let err = decompress_frames_parallel(&bad, 4).unwrap_err();
        assert!(
            matches!(err, ContainerError::PayloadCrc { seq: 2, .. }),
            "expected frame 2 first, got {err}"
        );
    }

    #[test]
    fn cycle_accounting_sums() {
        let data = generate(Corpus::SensorFrames, 4, 300_000);
        let rep = compress_parallel(&data, &cfg(64 * 1024, 0, 3)).unwrap();
        let sum: u64 = rep.chunks.iter().map(|c| c.cycles).sum();
        assert_eq!(sum, rep.total_cycles);
        assert!(rep.makespan_cycles <= rep.total_cycles);
        assert!(rep.makespan_cycles >= rep.total_cycles / 3);
    }
}
