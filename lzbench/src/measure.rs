//! The untraced run: every operation through the public API the CLI or
//! the server uses, each output compared byte for byte with the oracle.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lzfpga_container::{open_indexed, unframe};
use lzfpga_parallel::{compress_frames_parallel, EngineKind, ParallelConfig};
use lzfpga_server::{Client, ClientError, Server, ServerConfig, ServerHandle};

use crate::setup::{hw, Inputs, Op, OpGen, Rng, Workload, READ_BYTES};
use crate::speed::SpeedTrace;
use crate::stats::{self, open_loop_worker, Sample, WallClock};

/// Worker threads for the parallel paths and the server pool, and the
/// generator's connection count: the benchmark host has 2 cores.
pub const WORKERS: usize = 2;

/// Response credit each connection grants, as `lzfpga client` does.
const CREDIT: u64 = 1 << 20;

/// Fixed open-loop arrival rate, about 30% of the closed-loop capacity
/// (2 connections) the 2-core benchmark host measured for each served
/// workload: ~960 req/s in memory, ~560 req/s journaled.
pub fn open_loop_rate(w: Workload) -> f64 {
    match w {
        Workload::ServeDurable => 170.0,
        _ => 300.0,
    }
}

/// Which run is measuring, for failure reports.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
}

impl Ctx {
    /// Compare `got` with the oracle; a wrong byte ends the process.
    pub fn verify(&self, inputs: &Inputs, op: Op, index: u64, got: &[u8]) {
        let want = op.expected(inputs);
        if got != want {
            let at =
                got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
            eprintln!(
                "lzbench: WRONG OUTPUT in workload {} op {:?} #{index} seed {}: {} bytes, \
                 expected {}, first difference at byte {at}",
                self.workload.name(),
                op,
                self.seed,
                got.len(),
                want.len()
            );
            std::process::exit(3);
        }
    }
}

/// Operations attempted and failed, with failures broken down by code.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that ended in a typed error or transport failure.
    pub failed: u64,
    /// Failures per code.
    pub codes: BTreeMap<String, u64>,
}

impl Tally {
    /// Count one outcome.
    pub fn record<T>(&mut self, outcome: &Result<T, String>) {
        self.attempted += 1;
        if let Err(code) = outcome {
            self.failed += 1;
            *self.codes.entry(code.clone()).or_insert(0) += 1;
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (code, n) in &other.codes {
            *self.codes.entry(code.clone()).or_insert(0) += n;
        }
    }
}

/// `lzfpga frame --parallel --workers 2` on the turbo engine.
pub fn parallel_config(frame_bytes: usize) -> ParallelConfig {
    ParallelConfig {
        chunk_bytes: frame_bytes,
        workers: WORKERS,
        instances: 1,
        hw: hw(),
        engine: EngineKind::Turbo,
        telemetry: false,
    }
}

/// Run `op` in-process the way the workload's CLI command does.
pub fn run_local(w: Workload, inputs: &Inputs, op: Op) -> Result<Vec<u8>, String> {
    match (w, op) {
        (Workload::FramePar, Op::Compress(i)) => compress_frames_parallel(
            &inputs.files[i],
            &parallel_config(inputs.frame_bytes),
            &inputs.frame_config(),
        )
        .map(|r| r.framed)
        .map_err(|e| format!("parallel: {e}")),
        (_, Op::Compress(i)) => Ok(crate::setup::frame(&inputs.files[i], inputs.frame_bytes)),
        (_, Op::Decompress(i)) => {
            unframe(&inputs.archives[i]).map_err(|e| format!("container: {e}"))
        }
        (_, Op::Range { file, start, end }) => open_indexed(&inputs.archives[file])
            .decode_range(start..end)
            .map_err(|e| format!("container: {e}")),
    }
}

/// An in-process server, started and stopped by the benchmark.
pub struct Served {
    /// The running server.
    pub handle: ServerHandle,
    state_dir: Option<PathBuf>,
}

impl Served {
    /// Start the server `w` talks to; the durable one journals under
    /// `state_dir`, which is emptied first.
    pub fn start(w: Workload, inputs: &Inputs, state_dir: Option<PathBuf>) -> Served {
        if let Some(dir) = &state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let config = ServerConfig {
            workers: WORKERS,
            frame_bytes: inputs.frame_bytes,
            state_dir: state_dir.clone(),
            ..ServerConfig::default()
        };
        let handle = Server::new(config).start().unwrap_or_else(|e| {
            eprintln!("lzbench: {}: server failed to start: {e}", w.name());
            std::process::exit(2);
        });
        Served { handle, state_dir }
    }

    /// Drain, stop and join every server thread; remove the state dir;
    /// report the server's own failure counters on stderr.
    pub fn stop(self) {
        let stats = self.handle.shutdown(Duration::from_secs(5));
        if let Some(dir) = &self.state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        eprintln!(
            "lzbench: server: {} requests, {} failed, {} panics contained, {} protocol errors",
            stats.requests_total,
            stats.requests_failed,
            stats.panics_contained,
            stats.protocol_errors
        );
    }
}

/// One client connection of the load generator.
pub struct Conn {
    addr: SocketAddr,
    tenant: String,
    client: Option<Client>,
}

impl Conn {
    /// A connection billed to `tenant`, opened on first use.
    pub fn new(addr: SocketAddr, tenant: String) -> Conn {
        Conn { addr, tenant, client: None }
    }

    /// Run `op` over the connection. Transport failures drop the
    /// connection (the next op reconnects); a corrupt transfer is a wrong
    /// output and ends the process.
    pub fn run(&mut self, ctx: &Ctx, inputs: &Inputs, op: Op) -> Result<Vec<u8>, String> {
        let client = match &mut self.client {
            Some(c) => c,
            None => match Client::connect(self.addr, &self.tenant, CREDIT) {
                Ok(c) => self.client.insert(c),
                Err(e) => return Err(error_code(&e)),
            },
        };
        let result = match op {
            Op::Compress(i) => client.compress(&inputs.files[i], inputs.frame_bytes as u32, 0),
            Op::Decompress(i) => {
                client.decompress(&inputs.archives[i], inputs.files[i].len() as u64, 0)
            }
            Op::Range { file, start, end } => {
                client.range(&inputs.archives[file], start, end, READ_BYTES, 0)
            }
        };
        result.map_err(|e| {
            if let ClientError::Corrupt(what) = e {
                eprintln!(
                    "lzbench: WRONG OUTPUT in workload {} op {op:?} seed {}: {what}",
                    ctx.workload.name(),
                    ctx.seed
                );
                std::process::exit(3);
            }
            if !matches!(e, ClientError::Request { .. }) {
                self.client = None;
            }
            error_code(&e)
        })
    }
}

fn error_code(e: &ClientError) -> String {
    match e {
        ClientError::Request { code, .. } | ClientError::Rejected { code, .. } => {
            code.as_str().to_string()
        }
        ClientError::Io(_) => "io".into(),
        ClientError::Proto(_) => "protocol".into(),
        ClientError::TimedOut => "timeout".into(),
        ClientError::Corrupt(_) => "corrupt".into(),
        ClientError::RetriesExhausted { .. } => "retries".into(),
    }
}

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// `(start, latency)` of every successful operation, ms on the phase's
    /// timeline.
    pub ops: Vec<(f64, f64)>,
    /// Uncompressed bytes moved by successful operations.
    pub bytes: u64,
    /// Outcomes.
    pub tally: Tally,
    /// Host speed over the phase, on the same timeline.
    pub speed: SpeedTrace,
}

impl Phase {
    /// Operation latencies in ms; with `normalize`, each divided by the
    /// host's slowdown when it started.
    pub fn latencies(&self, normalize: bool) -> Vec<f64> {
        self.ops
            .iter()
            .map(|&(t, ms)| if normalize { ms / self.speed.slowdown_at(t) } else { ms })
            .collect()
    }

    /// Uncompressed MB (10^6 bytes) per second of operation time: the
    /// one-at-a-time rate of a closed loop on one thread.
    pub fn busy_mb_s(&self, normalize: bool) -> f64 {
        self.bytes as f64 / 1e3 / self.latencies(normalize).iter().sum::<f64>()
    }
}

/// Closed loop: run the workload's ops one at a time through `exec` for
/// `seconds`, sampling the host's speed before each, when nothing else is
/// running (a served op's reply is complete by then).
pub fn closed_loop(
    ctx: &Ctx,
    inputs: &Inputs,
    gen: &mut OpGen,
    seconds: f64,
    mut exec: impl FnMut(Op) -> Result<Vec<u8>, String>,
) -> Phase {
    let mut phase = Phase::default();
    let t0 = Instant::now();
    let mut index = 0u64;
    while t0.elapsed().as_secs_f64() < seconds {
        let op = gen.next_op();
        phase.speed.sample(stats::ms(t0.elapsed()));
        let start = Instant::now();
        let result = exec(op);
        let ms = stats::ms(start.elapsed());
        phase.tally.record(&result);
        if let Ok(out) = result {
            ctx.verify(inputs, op, index, &out);
            phase.ops.push((stats::ms(start - t0), ms));
            phase.bytes += op.bytes(inputs);
        }
        index += 1;
    }
    phase
}

/// Least idle time in which a generator thread samples the host's speed
/// (one sample takes ~0.5 ms).
const CALIBRATION_SLACK: Duration = Duration::from_millis(2);

/// Open loop: seeded Poisson arrivals at the workload's fixed rate for
/// `seconds`, served by [`WORKERS`] connections. Latency runs from each
/// request's due time. A connection with idle time before its next request
/// samples the host's speed, but only while no request is in flight.
pub fn open_served(
    ctx: &Ctx,
    inputs: &Inputs,
    addr: SocketAddr,
    seconds: f64,
) -> (Phase, stats::GeneratorHealth) {
    let rate = open_loop_rate(ctx.workload);
    let mut rng = Rng::new(ctx.seed, 1000);
    let mut schedule = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            break;
        }
        schedule.push(Duration::from_secs_f64(t));
    }
    let mut gen = OpGen::new(ctx.workload, inputs, ctx.seed, 1001);
    let ops: Vec<Op> = schedule.iter().map(|_| gen.next_op()).collect();
    let next = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let clock = WallClock(Instant::now());
    let parts: Vec<(Vec<Sample>, Tally, SpeedTrace)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|c| {
                let (schedule, ops, next, in_flight, clock) =
                    (&schedule, &ops, &next, &in_flight, &clock);
                s.spawn(move || {
                    let mut conn = Conn::new(addr, format!("bench{c}"));
                    let mut tally = Tally::default();
                    let mut speed = SpeedTrace::default();
                    let idle = |slack: Duration| {
                        if slack >= CALIBRATION_SLACK && in_flight.load(Ordering::SeqCst) == 0 {
                            speed.sample(stats::ms(clock.0.elapsed()));
                        }
                    };
                    let samples = open_loop_worker(clock, schedule, next, idle, |i| {
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        let result = conn.run(ctx, inputs, ops[i]);
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        tally.record(&result);
                        match result {
                            Ok(out) => {
                                ctx.verify(inputs, ops[i], i as u64, &out);
                                true
                            }
                            Err(_) => false,
                        }
                    });
                    (samples, tally, speed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let mut phase = Phase::default();
    let mut samples = Vec::new();
    for (part, tally, speed) in parts {
        phase.tally.merge(&tally);
        phase.speed.merge(&speed);
        samples.extend(part);
    }
    for s in samples.iter().filter(|s| s.ok) {
        phase.ops.push((stats::ms(s.due), stats::ms(s.latency())));
        phase.bytes += ops[s.index].bytes(inputs);
    }
    (phase, stats::generator_health(&schedule, &samples))
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}
