//! The traced run: replay each workload's layer calls serially on the same
//! seeded inputs, with a span around every public call, and derive the
//! per-layer metrics from the spans.
//!
//! Spans live only in this file, around calls into the library crates;
//! the library itself is not instrumented. A span's self time is its
//! duration minus its children's, so the compress and decompress paths
//! are split into the layer calls `FrameWriter` and `unframe` make, and
//! those layers' self times are reconciled against the untraced call on
//! the same input.

use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use lzfpga_container::{
    check_structure, encode_data_header, encode_index_section, encode_trailer,
    finish_stream_checks, open_indexed, payload_from_tokens, unframe, Codec, IndexEntry,
};
use lzfpga_deflate::{crc32, zlib_decompress_limited, Crc32, Limits, Token};
use lzfpga_faults::NoFaults;
use lzfpga_lzss::TurboEngine;
use lzfpga_obs::{validate_trace_document, MetricValue};
use lzfpga_parallel::{compress_frames_parallel, decompress_frames_parallel};
use lzfpga_server::jobs::{compress_job, decompress_job, range_job};
use lzfpga_server::proto::{encode_request, parse_request, read_message, MAX_WIRE_BYTES};
use lzfpga_server::store::durable_compress;
use lzfpga_server::{
    Admission, Client, JobFail, JobLedger, QuotaConfig, Request, RequestCtl, SessionOp,
    SessionStore, WorkerPool,
};
use lzfpga_telemetry::{span_args, trace_events_json, TraceEvent, TurboCounters};

use crate::measure::{parallel_config, Conn, Ctx, Served, Tally, WORKERS};
use crate::setup::{frame, hw, params, Inputs, Op, OpGen, Workload, READ_BYTES};
use crate::{scratch_dir, set_up, stats, RunResult};

/// The server's default response chunk, which is also `range_job`'s step.
const RANGE_STEP: u64 = 256 << 10;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: u64,
    req: u64,
    bytes: u64,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder. Span ids are 1-based indices into `spans`.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Open a span under `parent`; close it with [`Tracer::end`].
    fn begin(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        let now = Instant::now();
        self.spans.push(Span { name, parent, req, bytes: 0, start: now, end: now });
        self.spans.len() as u64
    }

    fn end(&mut self, id: u64, bytes: u64) {
        let span = &mut self.spans[id as usize - 1];
        span.end = Instant::now();
        span.bytes = bytes;
    }

    /// Run `f` inside a span of `bytes` work.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id, bytes);
        out
    }

    /// Record a span whose ends were measured elsewhere.
    fn record(&mut self, name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) {
        self.spans.push(Span { name, parent, req, bytes: 0, start, end });
    }

    /// Duration of every span.
    fn secs(&self, s: &Span) -> f64 {
        s.end.saturating_duration_since(s.start).as_secs_f64()
    }

    /// Self time of every span, by id - 1.
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| self.secs(s)).collect();
        for s in &self.spans {
            if s.parent > 0 {
                own[s.parent as usize - 1] -= self.secs(s);
            }
        }
        own
    }

    /// Spans named `name`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total self seconds and bytes of spans named `name`.
    fn total(&self, own: &[f64], name: &str) -> (f64, u64, usize) {
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .fold((0.0, 0, 0), |(t, b, n), (s, o)| (t + o, b + s.bytes, n + 1))
    }

    /// Median duration of spans named `name`, µs.
    fn median_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self.named(name).map(|s| self.secs(s) * 1e6).collect();
        if d.is_empty() {
            f64::NAN
        } else {
            stats::median(&d)
        }
    }

    fn events(&self) -> Vec<TraceEvent> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = span_args(i as u64 + 1, s.parent);
                args.push(("req", s.req.into()));
                args.push(("bytes", s.bytes.into()));
                TraceEvent {
                    name: s.name.to_string(),
                    cat: "lzbench",
                    tid: 0,
                    ts_us: s.start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
                    dur_us: self.secs(s) * 1e6,
                    args,
                }
            })
            .collect()
    }
}

/// Phases of the replay and each one's share of the run.
const PHASES: [(&str, f64); 8] = [
    ("phase.compress", 0.25),
    ("phase.decompress", 0.15),
    ("phase.range", 0.10),
    ("phase.parallel", 0.15),
    ("phase.jobs", 0.10),
    ("phase.micro", 0.05),
    ("phase.store", 0.10),
    ("phase.server", 0.10),
];

/// Loop `step` over items `0..n` until `budget` has passed, covering every
/// item at least once.
fn for_budget(budget: f64, n: usize, mut step: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < n || t0.elapsed().as_secs_f64() < budget {
        step(i % n);
        i += 1;
    }
}

/// The decomposed `FrameWriter`: the same layer calls in the same order,
/// each in its own span.
fn traced_compress(
    t: &mut Tracer,
    parent: u64,
    req: u64,
    data: &[u8],
    frame_bytes: usize,
    engine: &mut TurboEngine,
    tokens: &mut Vec<Token>,
) -> Vec<u8> {
    let params = params();
    let mut out = Vec::new();
    let mut entries = Vec::new();
    let mut crc = Crc32::new();
    for (seq, chunk) in data.chunks(frame_bytes).enumerate() {
        let n = chunk.len() as u64;
        let f = t.begin("frame", parent, req);
        tokens.clear();
        t.time("lzss.tokenize", f, req, n, || engine.compress_into(chunk, &params, tokens));
        let (codec, payload) =
            t.time("deflate.encode", f, req, n, || payload_from_tokens(tokens, chunk, &params));
        t.time("container.frame", f, req, n, || {
            let header = encode_data_header(seq as u32, codec, chunk.len() as u32, &payload);
            entries.push(IndexEntry {
                header_start: out.len() as u64,
                ustart: (seq * frame_bytes) as u64,
            });
            out.extend_from_slice(&header);
            out.extend_from_slice(&payload);
        });
        t.time("deflate.crc32", f, req, n, || crc.update(chunk));
        t.end(f, n);
    }
    t.time("container.index", parent, req, 0, || {
        if !entries.is_empty() {
            let section = encode_index_section(&entries, data.len() as u64, out.len() as u64);
            out.extend_from_slice(&section);
        }
        out.extend_from_slice(&encode_trailer(
            entries.len() as u32,
            data.len() as u64,
            crc.finish(),
        ));
    });
    out
}

/// The decomposed `unframe`.
fn traced_decompress(
    t: &mut Tracer,
    parent: u64,
    req: u64,
    archive: &[u8],
) -> Result<Vec<u8>, String> {
    let structure = t
        .time("container.check_structure", parent, req, archive.len() as u64, || {
            check_structure(archive)
        })
        .map_err(|e| format!("container: {e}"))?;
    let mut out = Vec::new();
    let mut crc = Crc32::new();
    for span in &structure.frames {
        let rec = span.record;
        let f = t.begin("frame", parent, req);
        let payload = &archive[span.payload_start..span.end];
        let sound = t.time("deflate.crc32", f, req, payload.len() as u64, || {
            crc32(payload) == rec.payload_crc
        });
        if !sound {
            return Err("container: payload crc".into());
        }
        let data =
            t.time("deflate.inflate", f, req, u64::from(rec.ulen), || match rec.codec() {
                Some(Codec::Raw) => Ok(payload.to_vec()),
                _ => zlib_decompress_limited(
                    payload,
                    &Limits::none().with_max_output_bytes(u64::from(rec.ulen)),
                )
                .map_err(|e| format!("deflate: {e:?}")),
            })?;
        t.time("deflate.crc32", f, req, data.len() as u64, || crc.update(&data));
        t.time("container.assemble", f, req, data.len() as u64, || out.extend_from_slice(&data));
        t.end(f, data.len() as u64);
    }
    t.time("container.finish", parent, req, 0, || {
        finish_stream_checks(&structure, out.len() as u64, crc.finish())
    })
    .map_err(|e| format!("container: {e}"))?;
    Ok(out)
}

/// Run the decomposed path and the untraced library call on the same
/// input, in the given order, each in its own span under `phase`. Returns
/// both outputs and both durations (untraced, traced) in seconds.
fn paired<T>(
    t: &mut Tracer,
    (phase, req, bytes, traced_first): (u64, u64, u64, bool),
    (reference, path): (&'static str, &'static str),
    plain: impl FnOnce() -> T,
    traced: impl FnOnce(&mut Tracer, u64) -> T,
) -> (T, T, f64, f64) {
    let mut plain = Some(plain);
    let mut untraced = |t: &mut Tracer| {
        let id = t.begin(reference, phase, req);
        let out = plain.take().expect("the untraced call runs once")();
        t.end(id, bytes);
        (out, t.secs(&t.spans[id as usize - 1]))
    };
    let first = (!traced_first).then(|| untraced(t));
    let id = t.begin(path, phase, req);
    let got = traced(t, id);
    t.end(id, bytes);
    let traced_secs = t.secs(&t.spans[id as usize - 1]);
    let (out, secs) = match first {
        Some(done) => done,
        None => untraced(t),
    };
    (got, out, secs, traced_secs)
}

fn check(
    ctx: &Ctx,
    inputs: &Inputs,
    tally: &mut Tally,
    op: Op,
    index: u64,
    result: Result<Vec<u8>, String>,
) {
    tally.record(&result);
    if let Ok(out) = result {
        ctx.verify(inputs, op, index, &out);
    }
}

fn job_ctl(admission: &std::sync::Arc<Admission>, bytes: u64) -> RequestCtl {
    let charge =
        admission.admit_request("bench", bytes).expect("an idle admission controller admits");
    RequestCtl::new(charge, 0)
}

/// Run the traced replay of workload `w` and return its per-layer metrics.
pub fn run(w: Workload, seed: u64, seconds: f64, smoke: bool, out: Option<&Path>) -> RunResult {
    let ctx = Ctx { workload: w, seed };
    let (env, _) = set_up(w, seed, smoke);
    let inputs = &env.inputs;
    let fb = inputs.frame_bytes;
    let files = inputs.files.len();
    let params = params();
    let mut tally = Tally::default();
    let mut t = Tracer::new();
    let root = t.begin("lzbench", 0, 0);
    let mut gen = OpGen::new(w, inputs, seed, 4000);
    let budget =
        |phase: &str| seconds * PHASES.iter().find(|p| p.0 == phase).expect("known phase").1;
    let mut req = 0u64;
    let mut next_req = || {
        req += 1;
        req
    };

    // Compress path, alternating with the untraced writer on each file.
    let mut engine = TurboEngine::new();
    let mut tokens = Vec::new();
    let (mut plain_c, mut traced_c) = (0.0f64, 0.0f64);
    let mut serial_per_file = vec![Vec::new(); files];
    let phase = t.begin("phase.compress", root, 0);
    let mut turn = 0usize;
    for_budget(budget("phase.compress"), files, |i| {
        let data = &inputs.files[i];
        let r = next_req();
        turn += 1;
        let (got, plain, p_secs, t_secs) = paired(
            &mut t,
            (phase, r, data.len() as u64, turn.is_multiple_of(2)),
            ("reference.frame_writer", "compress file"),
            || frame(data, fb),
            |t, file| traced_compress(t, file, r, data, fb, &mut engine, &mut tokens),
        );
        check(&ctx, inputs, &mut tally, Op::Compress(i), r, Ok(got));
        check(&ctx, inputs, &mut tally, Op::Compress(i), r, Ok(plain));
        plain_c += p_secs;
        traced_c += t_secs;
        serial_per_file[i].push(t_secs);
    });
    t.end(phase, 0);
    // Exact match-loop counts, from one probed pass per file (untimed).
    let mut counters = TurboCounters::default();
    let mut probed = TurboEngine::new();
    for data in &inputs.files {
        for chunk in data.chunks(fb) {
            let mut sink = Vec::new();
            probed.compress_into_probed(chunk, &params, &mut sink, &mut counters);
        }
    }
    let input_bytes: u64 = inputs.files.iter().map(|f| f.len() as u64).sum();

    // Decompress path, alternating with the untraced `unframe`.
    let (mut plain_d, mut traced_d) = (0.0f64, 0.0f64);
    let phase = t.begin("phase.decompress", root, 0);
    let mut turn = 0usize;
    for_budget(budget("phase.decompress"), files, |i| {
        let archive = &inputs.archives[i];
        let r = next_req();
        turn += 1;
        let (got, plain, p_secs, t_secs) = paired(
            &mut t,
            (phase, r, inputs.files[i].len() as u64, turn.is_multiple_of(2)),
            ("reference.unframe", "decompress archive"),
            || unframe(archive).map_err(|e| format!("container: {e}")),
            |t, a| traced_decompress(t, a, r, archive),
        );
        check(&ctx, inputs, &mut tally, Op::Decompress(i), r, got);
        check(&ctx, inputs, &mut tally, Op::Decompress(i), r, plain);
        plain_d += p_secs;
        traced_d += t_secs;
    });
    t.end(phase, 0);

    // One-shot range reads, as `lzfpga cat --range` makes them.
    let (mut frames_read, mut served, mut inflated, mut reads) = (0u64, 0u64, 0u64, 0u64);
    let phase = t.begin("phase.range", root, 0);
    for_budget(budget("phase.range"), files, |_| {
        let op = gen.any_read();
        let Op::Range { file, start, end } = op else { unreachable!("any_read makes reads") };
        let r = next_req();
        let read = t.begin("range read", phase, r);
        let archive = &inputs.archives[file];
        let mut reader =
            t.time("container.open", read, r, archive.len() as u64, || open_indexed(archive));
        let got =
            t.time("container.decode", read, r, end - start, || reader.decode_range(start..end));
        t.end(read, end - start);
        let c = reader.counters();
        frames_read += c.frames_decoded;
        let len = inputs.files[file].len() as u64;
        let (k0, k1) = (start / fb as u64, (end - 1) / fb as u64);
        inflated += (k0..=k1).map(|k| (len - k * fb as u64).min(fb as u64)).sum::<u64>();
        served += end - start;
        reads += 1;
        check(&ctx, inputs, &mut tally, op, r, got.map_err(|e| format!("container: {e}")));
    });
    t.end(phase, 0);

    // The parallel paths on whole files.
    let par_cfg = parallel_config(fb);
    let mut par_wall = vec![Vec::new(); files];
    let phase = t.begin("phase.parallel", root, 0);
    for_budget(budget("phase.parallel"), files, |i| {
        let r = next_req();
        let (data, archive) = (&inputs.files[i], &inputs.archives[i]);
        let t0 = Instant::now();
        let got = t.time("parallel.compress", phase, r, data.len() as u64, || {
            compress_frames_parallel(data, &par_cfg, &inputs.frame_config())
        });
        par_wall[i].push(t0.elapsed().as_secs_f64());
        check(
            &ctx,
            inputs,
            &mut tally,
            Op::Compress(i),
            r,
            got.map(|g| g.framed).map_err(|e| e.to_string()),
        );
        let got = t.time("parallel.decompress", phase, r, data.len() as u64, || {
            decompress_frames_parallel(archive, WORKERS)
        });
        check(&ctx, inputs, &mut tally, Op::Decompress(i), r, got.map_err(|e| e.to_string()));
    });
    t.end(phase, 0);

    // The server's job bodies, called directly.
    let admission = Admission::new(QuotaConfig::default());
    let phase = t.begin("phase.jobs", root, 0);
    for_budget(budget("phase.jobs"), files, |i| {
        let r = next_req();
        let (data, archive) = (&inputs.files[i], &inputs.archives[i]);
        let mut ledger = JobLedger::default();
        let ctl = job_ctl(&admission, data.len() as u64);
        let got = t.time("server.jobs.compress", phase, r, data.len() as u64, || {
            compress_job(data, fb, &hw(), &ctl, &NoFaults, &mut ledger)
        });
        check(&ctx, inputs, &mut tally, Op::Compress(i), r, got.map_err(job_code));
        let got = t.time("server.jobs.decompress", phase, r, data.len() as u64, || {
            decompress_job(archive, data.len() as u64, &ctl, &mut ledger)
        });
        check(&ctx, inputs, &mut tally, Op::Decompress(i), r, got.map_err(job_code));
        let op = gen.any_read();
        let Op::Range { file, start, end } = op else { unreachable!("any_read makes reads") };
        let got = t.time("server.jobs.range", phase, r, end - start, || {
            range_job(
                &inputs.archives[file],
                start..end,
                READ_BYTES,
                RANGE_STEP,
                &ctl,
                &NoFaults,
                &mut ledger,
            )
        });
        check(&ctx, inputs, &mut tally, op, r, got.map_err(job_code));
    });
    t.end(phase, 0);

    // Protocol round trip, admission, and pool hand-off.
    const ADMITS: u32 = 1000;
    let pool = WorkerPool::new(WORKERS);
    let phase = t.begin("phase.micro", root, 0);
    for_budget(budget("phase.micro"), files, |i| {
        let r = next_req();
        let data = &inputs.files[i];
        let parsed = t.time("server.proto.roundtrip", phase, r, data.len() as u64, || {
            let wire = encode_request(&Request::Compress {
                req: r,
                deadline_ms: 0,
                frame_bytes: fb as u32,
                data: data.to_vec(),
            });
            read_message(&mut &wire[..], MAX_WIRE_BYTES)
                .ok()
                .flatten()
                .and_then(|m| parse_request(&m).ok())
        });
        let intact = matches!(&parsed, Some(Request::Compress { data: d, .. }) if d == data);
        tally.record(&if intact { Ok(()) } else { Err("protocol".to_string()) });
        t.time("server.quota.admit", phase, r, u64::from(ADMITS), || {
            for _ in 0..ADMITS {
                drop(std::hint::black_box(admission.admit_request("bench", 1 << 16)));
            }
        });
        let (tx, rx) = mpsc::channel();
        let submitted = Instant::now();
        pool.submit(Box::new(move || {
            let _ = tx.send(Instant::now());
        }));
        let started = rx.recv().expect("pool runs every submitted job");
        t.record("server.pool.dispatch", phase, r, submitted, started);
    });
    t.end(phase, 0);
    pool.shutdown();

    // The durable store, on the build's filesystem.
    let store_dir = scratch_dir().join(format!("trace-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SessionStore::open(&store_dir).unwrap_or_else(|e| {
        eprintln!("lzbench: cannot open a session store in {}: {e}", store_dir.display());
        std::process::exit(2);
    });
    let phase = t.begin("phase.store", root, 0);
    for_budget(budget("phase.store"), files, |i| {
        let r = next_req();
        let data = &inputs.files[i];
        let begun = t.time("server.store.begin", phase, r, data.len() as u64, || {
            store.begin(SessionOp::Compress, "bench", fb as u32, 0, data, &NoFaults)
        });
        let (token, dir) = match begun {
            Ok(b) => b,
            Err(e) => {
                tally.record::<()>(&Err(format!("store: {e}")));
                return;
            }
        };
        let ctl = job_ctl(&admission, data.len() as u64);
        let got = t.time("server.store.durable_compress", phase, r, data.len() as u64, || {
            durable_compress(
                &dir,
                data,
                fb as u32,
                params,
                &ctl,
                &NoFaults,
                &mut JobLedger::default(),
            )
        });
        check(&ctx, inputs, &mut tally, Op::Compress(i), r, got.map_err(job_code));
        t.time("server.store.finish", phase, r, 0, || store.finish(token));
    });
    t.end(phase, 0);
    let _ = std::fs::remove_dir_all(&store_dir);

    // The whole server: the workload's own requests, then no-work requests.
    let own_server = env.served.is_none().then(|| Served::start(w, inputs, None));
    let server = env.served.as_ref().or(own_server.as_ref()).expect("a server is running");
    let addr = server.handle.addr();
    let registry = server.handle.registry();
    let before = server_ops(&registry.snapshot());
    let mut conn = Conn::new(addr, "trace".into());
    let phase = t.begin("phase.server", root, 0);
    let mut client_secs = 0.0;
    for_budget(budget("phase.server") * 0.8, files, |_| {
        let r = next_req();
        let op = gen.next_op();
        let t0 = Instant::now();
        let got =
            t.time("server.request", phase, r, op.bytes(inputs), || conn.run(&ctx, inputs, op));
        client_secs += t0.elapsed().as_secs_f64();
        check(&ctx, inputs, &mut tally, op, r, got);
    });
    let after = server_ops(&registry.snapshot());
    let tiny = frame(&[0u8; 4096], 4096);
    let mut client = Client::connect(addr, "fixed", 1 << 20).unwrap_or_else(|e| {
        eprintln!("lzbench: cannot connect to the traced server: {e}");
        std::process::exit(2);
    });
    for_budget(budget("phase.server") * 0.2, 100, |_| {
        let r = next_req();
        let got = t.time("server.fixed", phase, r, 0, || client.range(&tiny, 0, 0, 0, 0));
        let ok = matches!(&got, Ok(v) if v.is_empty());
        tally.record(&if ok { Ok(()) } else { Err("fixed".to_string()) });
    });
    t.end(phase, 0);
    drop(client);
    drop(conn);
    if let Some(s) = own_server {
        s.stop();
    }
    t.end(root, 0);

    // Derive the metrics.
    let own = t.self_secs();
    let mb_s = |name: &str| {
        let (secs, bytes, _) = t.total(&own, name);
        bytes as f64 / 1e6 / secs
    };
    let compress_layers =
        ["lzss.tokenize", "deflate.encode", "container.frame", "deflate.crc32", "container.index"];
    let decompress_layers = [
        "container.check_structure",
        "deflate.crc32",
        "deflate.inflate",
        "container.assemble",
        "container.finish",
    ];
    let layer_secs = |names: &[&str], under: &str| -> f64 {
        let ids: Vec<bool> = t.spans.iter().map(|s| s.name == under).collect();
        let root_of = |mut id: u64| {
            while id > 0 {
                if ids[id as usize - 1] {
                    return true;
                }
                id = t.spans[id as usize - 1].parent;
            }
            false
        };
        t.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| names.contains(&s.name) && root_of(s.parent))
            .map(|(_, o)| o)
            .sum()
    };
    let frames_made =
        t.named("frame").filter(|s| t.spans[s.parent as usize - 1].name == "compress file").count()
            as f64;
    let (frame_secs, _, _) = t.total(&own, "container.frame");
    let (index_secs, _, _) = t.total(&own, "container.index");
    let histo = after.delta(&before);
    let serial: f64 =
        serial_per_file.iter().filter(|v| !v.is_empty()).map(|v| stats::median(v)).sum();
    let parallel: f64 = par_wall.iter().filter(|v| !v.is_empty()).map(|v| stats::median(v)).sum();

    let mut result = RunResult { tally, ..RunResult::default() };
    result.push("lzss.tokenize_mb_s", mb_s("lzss.tokenize"), "MB/s");
    result.push("lzss.probes_per_byte", counters.probes as f64 / input_bytes as f64, "probes/B");
    result.push(
        "lzss.match_bytes_pct",
        counters.match_bytes as f64 * 100.0 / input_bytes as f64,
        "%",
    );
    result.push("deflate.encode_mb_s", mb_s("deflate.encode"), "MB/s");
    result.push("deflate.inflate_mb_s", mb_s("deflate.inflate"), "MB/s");
    result.push("deflate.crc32_mb_s", mb_s("deflate.crc32"), "MB/s");
    result.push("container.frame_us", (frame_secs + index_secs) * 1e6 / frames_made, "us");
    result.push("container.check_structure_us", t.median_us("container.check_structure"), "us");
    result.push("container.open_us", t.median_us("container.open"), "us");
    result.push("container.decode_us", t.median_us("container.decode"), "us");
    result.push("container.frames_per_read", frames_read as f64 / reads as f64, "frames");
    result.push("container.useful_bytes_pct", served as f64 * 100.0 / inflated as f64, "%");
    result.push(
        "parallel.compress_efficiency_pct",
        serial * 100.0 / (parallel * WORKERS as f64),
        "%",
    );
    result.push("parallel.decompress_mb_s", mb_s("parallel.decompress"), "MB/s");
    result.push("server.jobs.compress_us", t.median_us("server.jobs.compress"), "us");
    result.push("server.jobs.decompress_us", t.median_us("server.jobs.decompress"), "us");
    result.push("server.jobs.range_us", t.median_us("server.jobs.range"), "us");
    result.push("server.proto.roundtrip_us", t.median_us("server.proto.roundtrip"), "us");
    result.push(
        "server.quota.admit_us",
        t.median_us("server.quota.admit") / f64::from(ADMITS),
        "us",
    );
    result.push("server.pool.dispatch_us", t.median_us("server.pool.dispatch"), "us");
    result.push("server.store.begin_ms", t.median_us("server.store.begin") / 1e3, "ms");
    result.push(
        "server.store.durable_compress_ms",
        t.median_us("server.store.durable_compress") / 1e3,
        "ms",
    );
    result.push("server.store.finish_ms", t.median_us("server.store.finish") / 1e3, "ms");
    result.push("server.fixed_us", t.median_us("server.fixed"), "us");
    result.push("server.request_p50_us", histo.quantile(0.5) as f64, "us");
    result.push("server.outside_pct", (1.0 - histo.sum as f64 / 1e6 / client_secs) * 100.0, "%");
    result.push(
        "trace.reconcile_compress_pct",
        layer_secs(&compress_layers, "compress file") * 100.0 / plain_c,
        "%",
    );
    result.push(
        "trace.reconcile_decompress_pct",
        layer_secs(&decompress_layers, "decompress archive") * 100.0 / plain_d,
        "%",
    );
    result.push(
        "trace.overhead_pct",
        ((traced_c + traced_d) / (plain_c + plain_d) - 1.0) * 100.0,
        "%",
    );

    print_self_times(&t, &own);
    write_trace(&t, w, out);
    env.stop();
    result
}

/// The server's per-op latency histograms (µs), merged.
fn server_ops(snapshot: &lzfpga_obs::MetricsSnapshot) -> lzfpga_obs::HistoSnapshot {
    let mut merged = lzfpga_obs::HistoSnapshot::default();
    for op in ["compress", "decompress", "range"] {
        if let Some(MetricValue::Histogram(h)) = snapshot.get(&format!("server_op_{op}_us")) {
            merged.merge(h);
        }
    }
    merged
}

fn job_code(e: JobFail) -> String {
    e.code.as_str().to_string()
}

/// The self-time table, on stderr: per span name, calls, total and self
/// time, and self time's share of the whole traced run.
fn print_self_times(t: &Tracer, own: &[f64]) {
    let whole = t.secs(&t.spans[0]);
    let mut names: Vec<&'static str> = t.spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut rows: Vec<(&str, usize, f64, f64)> = names
        .into_iter()
        .map(|name| {
            let (self_secs, _, n) = t.total(own, name);
            let total: f64 = t.named(name).map(|s| t.secs(s)).sum();
            (name, n, total, self_secs)
        })
        .collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    eprintln!("{:<34} {:>8} {:>11} {:>11} {:>7}", "span", "calls", "total ms", "self ms", "self %");
    for (name, n, total, self_secs) in rows {
        eprintln!(
            "{name:<34} {n:>8} {:>11.2} {:>11.2} {:>6.2}%",
            total * 1e3,
            self_secs * 1e3,
            self_secs * 100.0 / whole
        );
    }
}

/// Write the spans as a Chrome trace and check it is one causal tree.
fn write_trace(t: &Tracer, w: Workload, out: Option<&Path>) {
    let path = out
        .map_or_else(|| scratch_dir().join(format!("trace-{}.json", w.name())), Path::to_path_buf);
    let text = trace_events_json(&t.events());
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("lzbench: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    match validate_trace_document(&text) {
        Ok(s) => eprintln!(
            "lzbench: {}: trace {} ({} spans, depth {}) validates",
            w.name(),
            path.display(),
            s.spans,
            s.max_depth
        ),
        Err(e) => {
            eprintln!("lzbench: {}: trace {} does not validate: {e}", w.name(), path.display());
            std::process::exit(5);
        }
    }
}
