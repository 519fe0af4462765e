//! `faultstorm` — deterministic hostile-input storm over the decoders.
//!
//! Builds a small corpus of well-formed streams (hardware-model zlib, gzip,
//! and multi-block parallel-turbo zlib), then feeds thousands of
//! structure-aware mutants of them (bit flips, truncations, duplicated and
//! deleted slices, length-field corruption) to every decode path and holds
//! each one to the robustness contract:
//!
//! 1. **never panic** — every decode runs under `catch_unwind`, and a caught
//!    panic is a hard failure;
//! 2. **never exceed the output cap** — decodes run through the limited
//!    inflate path with a per-stream [`Limits`] cap, and an `Ok` whose
//!    output is larger than the cap is a hard failure;
//! 3. otherwise: a typed error or a decoded payload, both acceptable
//!    (mutants that still decode are counted, not failed — a CRC-protected
//!    container catches most, raw zlib has weaker integrity).
//!
//! Before the storm, a fault-injection drill runs an 8-chunk / 4-worker
//! parallel compression with one injected worker panic and asserts the
//! output is byte-identical to the clean run and that the
//! [`FailureReport`] records exactly the injected fault.
//!
//! A second storm targets the LZFC framed container: `--lzfc N` (default
//! 500) frame-aware mutants (sync smashes, header/payload corruption,
//! mid-frame truncation) each run through `salvage`, which must never
//! panic and must recover exactly the frames the damage model predicts.
//! A resume drill cuts a framed stream at several points and proves the
//! checkpointed writer reproduces the uninterrupted bytes, and an
//! overhead check holds the container tax under 2% of the plain zlib
//! stream on a 2 MiB mixed corpus.
//!
//! A third storm targets the seekable index: `--lzfc-index N` (default
//! 400) index-aware mutants (header corruption, payload corruption,
//! pointer-word smashes, truncation inside the index extent) each opened
//! through the random-access reader, which must never trust a corrupt
//! index and must serve every probed range byte-exactly or refuse with a
//! typed error.
//!
//! With `--metrics PATH` the storm additionally folds every typed ledger
//! it produces (the drill's [`FailureReport`], each salvage pass's
//! `SalvageReport`) into a [`MetricsRegistry`] via `absorb`, and **asserts
//! the registry counters exactly reconcile with the typed totals** — the
//! generic JSON-folding path and the hand-written ledgers must never
//! drift, or an operator watching the metrics would see a different storm
//! than the one that ran. The final registry snapshot is written to PATH
//! as JSONL (`run` event, then a `metrics` snapshot event).
//!
//! `--server` switches to the **connection-storm drill** against an
//! in-process `lzfpga-server`: concurrent valid traffic with byte-exact
//! verification while failpoints panic inside worker jobs, hostile mutated
//! wire frames, mid-request disconnects, credit-starved deadline expiry,
//! and quota floods (session, stream, and byte) that must all come back as
//! *typed* rejections. The storm ends with a clean roundtrip (the process
//! must still serve), a graceful drain, and three hard assertions: no
//! wrong bytes were ever served, no sessions/streams/bytes leaked past the
//! drain, and the span trace still forms one causal tree.
//!
//! ```text
//! faultstorm [--mutants N] [--lzfc N] [--lzfc-index N] [--seed S]
//!            [--metrics PATH]
//! faultstorm --server [--seed S]
//! ```
//!
//! Fully deterministic for a given seed; exits non-zero on any violation.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};

use lzfpga_container::{
    check_structure, frame_spans, open_indexed, salvage, scan_partial, Codec, ContainerError,
    FrameConfig, FrameWriter, IndexSource,
};
use lzfpga_core::pipeline::compress_to_zlib;
use lzfpga_core::{DecompConfig, HwConfig, HwDecompressor};
use lzfpga_deflate::encoder::BlockKind;
use lzfpga_deflate::gzip::{gzip_compress_tokens, gzip_decompress_limited};
use lzfpga_deflate::zlib::zlib_decompress_limited;
use lzfpga_deflate::Limits;
use lzfpga_faults::{FailPlan, FailRule, FrameSite, MutationKind, StreamMutator};
use lzfpga_lzss::TurboEngine;
use lzfpga_parallel::{
    compress_frames_parallel, compress_parallel, compress_parallel_with, EngineKind, ParallelConfig,
};
use lzfpga_telemetry::json::obj;
use lzfpga_telemetry::{snapshot_to_json, JsonlWriter, MetricsRegistry};
use lzfpga_workloads::{generate, Corpus};

/// One well-formed base stream plus the decode paths it exercises.
struct BaseStream {
    name: &'static str,
    bytes: Vec<u8>,
    original: Vec<u8>,
    container: Container,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Container {
    /// Single fixed-Huffman-block zlib (also fed to the hw decompressor).
    HwZlib,
    /// Gzip member with CRC-32 + ISIZE trailer.
    Gzip,
    /// Multi-block zlib from the parallel pipeline (software inflate only).
    ParallelZlib,
}

struct Tally {
    decodes: u64,
    rejected: u64,
    roundtripped: u64,
    corrupted: u64,
    violations: u64,
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() {
    let mut mutants: u64 = 2_000;
    let mut lzfc_mutants: u64 = 500;
    let mut index_mutants: u64 = 400;
    let mut seed: u64 = 0xC0FFEE;
    let mut metrics_path: Option<String> = None;
    let mut server_storm = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mutants" => mutants = it.next().and_then(|v| v.parse().ok()).unwrap_or(mutants),
            "--lzfc" => {
                lzfc_mutants = it.next().and_then(|v| v.parse().ok()).unwrap_or(lzfc_mutants)
            }
            "--lzfc-index" => {
                index_mutants = it.next().and_then(|v| v.parse().ok()).unwrap_or(index_mutants)
            }
            "--seed" => seed = it.next().and_then(|v| parse_seed(&v)).unwrap_or(seed),
            "--metrics" => metrics_path = it.next(),
            "--server" => server_storm = true,
            "--help" | "-h" => {
                println!(
                    "faultstorm [--mutants N] [--lzfc N] [--lzfc-index N] [--seed S] \
                     [--metrics PATH]\nfaultstorm --server [--seed S]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    if server_storm {
        // The connection-storm drill is its own mode: injected panics are
        // part of the contract, so silence the hook here too.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let ok = run_server_storm(seed);
        std::panic::set_hook(default_hook);
        if !ok {
            eprintln!("faultstorm: FAILED");
            std::process::exit(1);
        }
        return;
    }
    let registry = metrics_path.as_ref().map(|_| MetricsRegistry::new());

    // Panics are part of the contract under test: silence the default hook
    // so a caught panic does not spam stderr, and count it instead.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let drill_ok = run_drill(registry.as_ref());
    let tally = run_storm(mutants, seed);
    let lzfc_violations = run_lzfc_storm(lzfc_mutants, seed, registry.as_ref());
    let index_violations = run_lzfc_index_storm(index_mutants, seed);
    let resume_ok = run_resume_drill();
    let overhead_ok = run_overhead_check();
    std::panic::set_hook(default_hook);

    let metrics_ok = match (&metrics_path, &registry) {
        (Some(path), Some(reg)) => write_metrics(path, reg, mutants, lzfc_mutants, seed),
        _ => true,
    };

    println!(
        "faultstorm: {} decodes over {} mutants (seed {seed:#x}): \
         {} rejected, {} round-tripped, {} decoded-but-different, {} violations",
        tally.decodes,
        mutants,
        tally.rejected,
        tally.roundtripped,
        tally.corrupted,
        tally.violations
    );
    if !drill_ok
        || !resume_ok
        || !overhead_ok
        || !metrics_ok
        || tally.violations > 0
        || lzfc_violations > 0
        || index_violations > 0
    {
        eprintln!("faultstorm: FAILED");
        std::process::exit(1);
    }
}

/// The connection-storm drill: an in-process `lzfpga-server` under
/// concurrent valid traffic, injected worker panics, hostile wire frames,
/// mid-request disconnects, credit-starved deadlines, and quota floods.
///
/// Contract (checked at the end): the server never serves a wrong byte,
/// every refusal carries a typed code, the process still answers a clean
/// roundtrip after the storm, the drain leaks no sessions/streams/bytes,
/// and the span trace still validates as one causal tree.
fn run_server_storm(seed: u64) -> bool {
    use std::time::{Duration, Instant};

    use lzfpga_server::proto::encode_request;
    use lzfpga_server::{
        Client, ClientError, QuotaConfig, RejectCode, Request, Response, Server, ServerConfig,
    };
    use lzfpga_telemetry::validate_span_tree;

    let fb = 16 * 1024usize;
    let quota = QuotaConfig {
        max_sessions: 24,
        max_streams_per_tenant: 2,
        max_bytes_per_tenant: 64 << 20,
        max_request_bytes: 8 << 20,
    };
    // Deterministic panics early in the chunk-hit sequence prove the
    // containment path runs; the thinned rule keeps pressure on it for the
    // rest of the storm. The ladder's fresh rung is not injectable, so
    // compress results must stay byte-exact through all of this.
    let plan = std::sync::Arc::new(
        FailPlan::new(seed ^ 0x5E11)
            .rule(FailRule::new("server.chunk").on_hit(3).times(4).panics())
            .rule(
                FailRule::new("server.chunk")
                    .on_hit(7)
                    .times(u64::MAX)
                    .chance_permille(150)
                    .panics(),
            )
            .rule(
                FailRule::new("range.frame.decode")
                    .on_hit(1)
                    .times(u64::MAX)
                    .chance_permille(200)
                    .errors(),
            )
            .rule(FailRule::new("range.open.index").on_hit(2).times(3).errors()),
    );
    let handle = match Server::new(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        quota,
        frame_bytes: fb,
        idle_timeout_ms: 2_000,
        drain_ms: 3_000,
        collect_trace: true,
        ..ServerConfig::default()
    })
    .with_faults(plan)
    .start()
    {
        Ok(h) => h,
        Err(e) => {
            eprintln!("server storm: bind failed: {e}");
            return false;
        }
    };
    let addr = handle.addr();
    let mut violations = 0u64;
    // Teardown of dropped connections takes a poll tick to be noticed, so
    // a connect right after a flood can transiently hit the session cap;
    // that is correct backpressure, not a failure — wait it out.
    let connect_patient = |tenant: &str, credit: u64| -> Result<Client, ClientError> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(addr, tenant, credit) {
                Err(ClientError::Rejected { code: RejectCode::SessionLimit, .. })
                    if Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(50));
                }
                other => return other,
            }
        }
    };

    // Phase 1: concurrent valid traffic under injected worker panics.
    // Every tenant verifies every response against the local single-thread
    // reference; a typed error is a tolerated degradation, a wrong byte is
    // a violation.
    let (phase1_violations, degraded) = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..4u64 {
            workers.push(scope.spawn(move || {
                let data = generate(Corpus::Mixed, 100 + t, 96 * 1024);
                let reference = frame_up(&data, fb);
                let tenant = format!("storm{t}");
                let mut bad = 0u64;
                let mut degraded = 0u64;
                let mut client = match Client::connect(addr, &tenant, 1 << 20) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("server storm: {tenant} failed to connect: {e}");
                        return (1, 0);
                    }
                };
                for round in 0..3 {
                    match client.compress(&data, fb as u32, 0) {
                        Ok(framed) if framed == reference => {}
                        Ok(_) => {
                            bad += 1;
                            eprintln!("VIOLATION: {tenant} round {round}: wrong compress bytes");
                        }
                        Err(ClientError::Request { .. }) => degraded += 1,
                        Err(e) => {
                            bad += 1;
                            eprintln!("server storm: {tenant} compress failed hard: {e}");
                        }
                    }
                    match client.decompress(&reference, 4 * 96 * 1024, 0) {
                        Ok(out) if out == data => {}
                        Ok(_) => {
                            bad += 1;
                            eprintln!("VIOLATION: {tenant} round {round}: wrong decompress bytes");
                        }
                        Err(ClientError::Request { .. }) => degraded += 1,
                        Err(e) => {
                            bad += 1;
                            eprintln!("server storm: {tenant} decompress failed hard: {e}");
                        }
                    }
                    let (lo, hi) = (20_000u64, 52_000u64);
                    match client.range(&reference, lo, hi, 1 << 20, 0) {
                        Ok(out) if out == data[lo as usize..hi as usize] => {}
                        Ok(_) => {
                            bad += 1;
                            eprintln!("VIOLATION: {tenant} round {round}: wrong range bytes");
                        }
                        // Injected index/decode faults may make the range
                        // unservable; refusing typed is allowed.
                        Err(ClientError::Request { .. }) => degraded += 1,
                        Err(e) => {
                            bad += 1;
                            eprintln!("server storm: {tenant} range failed hard: {e}");
                        }
                    }
                }
                (bad, degraded)
            }));
        }
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or((1, 0)))
            .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    violations += phase1_violations;
    println!(
        "server storm: valid traffic done ({degraded} typed degradations, \
         {} contained panics so far)",
        handle.stats().panics_contained
    );

    // Phase 2: hostile wire frames + mid-request disconnects. Mutants of a
    // well-formed request hit the reader; whatever happens must be a typed
    // answer or a dropped connection, never a dead server. Each client is
    // dropped immediately after — half of them mid-request.
    let mut mutator = StreamMutator::new(seed ^ 0x77AA);
    let template = {
        let data = generate(Corpus::LogLines, 9, 8 * 1024);
        encode_request(&Request::Compress { req: 1, deadline_ms: 0, frame_bytes: 0, data })
    };
    for i in 0..60u64 {
        let mut client = match Client::connect(addr, "hostile", 1 << 20) {
            Ok(c) => c,
            Err(e) => {
                violations += 1;
                eprintln!("server storm: hostile client {i} refused cleanly?: {e}");
                continue;
            }
        };
        let mutant = mutator.mutate(&template);
        if client.send_raw(&mutant.bytes).is_err() {
            continue; // reader already hung up on us — acceptable
        }
        if i % 2 == 0 {
            // Listen briefly: any parsed reply must be a typed one.
            let _ = client.set_read_timeout(Duration::from_millis(100));
            match client.recv() {
                Ok(Response::Reject { .. } | Response::Error { .. } | Response::Data { .. })
                | Ok(Response::Done { .. } | Response::Session { .. })
                | Err(_) => {}
                Ok(Response::HelloOk { .. }) => {
                    violations += 1;
                    eprintln!(
                        "VIOLATION: hostile frame {i} ({}) re-ran the handshake",
                        mutant.kind
                    );
                }
            }
        }
        // ...and disconnect with whatever is left in flight.
        drop(client);
    }
    println!("server storm: 60 hostile frames / disconnects survived");

    // Phase 3: quota floods, every refusal typed.
    {
        // Session flood: hold connections open far past max_sessions.
        let mut held = Vec::new();
        let mut session_rejects = 0u64;
        for i in 0..(quota.max_sessions + 16) {
            match Client::connect(addr, &format!("flood{i}"), 1 << 20) {
                Ok(c) => held.push(c),
                Err(ClientError::Rejected { code: RejectCode::SessionLimit, .. }) => {
                    session_rejects += 1;
                }
                Err(e) => {
                    violations += 1;
                    eprintln!("VIOLATION: session flood conn {i} died untyped: {e}");
                }
            }
        }
        if session_rejects == 0 || held.len() > quota.max_sessions {
            violations += 1;
            eprintln!(
                "VIOLATION: session flood admitted {} of {} (rejected {session_rejects})",
                held.len(),
                quota.max_sessions + 16
            );
        }
        drop(held);

        // Stream flood: one credit-starved tenant parks requests in flight
        // until the third trips the per-tenant stream quota.
        let mut parked = connect_patient("parker", 0).expect("parker connects");
        parked.set_auto_credit(false);
        let small = generate(Corpus::LogLines, 3, 32 * 1024);
        for req in 1..=3u64 {
            let _ = parked.send(&Request::Compress {
                req,
                deadline_ms: 0,
                frame_bytes: 0,
                data: small.clone(),
            });
        }
        let mut saw_stream_quota = false;
        let wait = Instant::now();
        while wait.elapsed() < Duration::from_secs(5) && !saw_stream_quota {
            match parked.recv() {
                Ok(Response::Error { code: RejectCode::StreamQuota, .. }) => {
                    saw_stream_quota = true;
                }
                Ok(_) | Err(ClientError::TimedOut) => {}
                Err(_) => break,
            }
        }
        if !saw_stream_quota {
            violations += 1;
            eprintln!("VIOLATION: stream-quota flood never produced a typed StreamQuota");
        }
        drop(parked); // two jobs still parked behind zero credit

        // Byte quota: a declared result budget past the tenant allowance.
        let mut glutton = connect_patient("glutton", 1 << 20).expect("glutton connects");
        match glutton.decompress(&[0u8; 64], 128 << 20, 0) {
            Err(ClientError::Request { code: RejectCode::ByteQuota, .. }) => {}
            other => {
                violations += 1;
                eprintln!("VIOLATION: byte-quota flood answered {other:?}");
            }
        }
        // Oversized payload: just past max_request_bytes (but inside the
        // wire reader's slack, so the frame parses and the *admission*
        // size check refuses it on a live connection). Payloads past the
        // wire cap too are simply reset mid-upload — also contained, but
        // nothing typed to assert on.
        match glutton.compress(&vec![0u8; (8 << 20) + 64], 0, 0) {
            Err(ClientError::Request { code: RejectCode::TooLarge, .. })
            | Err(ClientError::Rejected { code: RejectCode::TooLarge, .. }) => {}
            Ok(_) => {
                violations += 1;
                eprintln!("VIOLATION: oversized request was admitted");
            }
            other => {
                violations += 1;
                eprintln!("VIOLATION: oversized request answered untyped: {other:?}");
            }
        }
        println!(
            "server storm: quota floods all refused typed ({session_rejects} session rejects)"
        );
    }

    // Phase 4: a credit-starved request with a deadline must come back as
    // a typed DeadlineExceeded — cooperative cancellation through the
    // writer's checkpoint, not a hang.
    {
        let mut starved = connect_patient("starved", 0).expect("starved connects");
        starved.set_auto_credit(false);
        let data = generate(Corpus::LogLines, 4, 32 * 1024);
        let _ = starved.send(&Request::Compress { req: 1, deadline_ms: 200, frame_bytes: 0, data });
        let mut saw_deadline = false;
        let wait = Instant::now();
        while wait.elapsed() < Duration::from_secs(5) && !saw_deadline {
            match starved.recv() {
                Ok(Response::Error { code: RejectCode::DeadlineExceeded, .. }) => {
                    saw_deadline = true;
                }
                Ok(_) | Err(ClientError::TimedOut) => {}
                Err(_) => break,
            }
        }
        if !saw_deadline {
            violations += 1;
            eprintln!("VIOLATION: credit-starved deadline never fired typed");
        } else {
            println!("server storm: starved deadline came back typed");
        }
    }

    // Phase 5: the process must still serve, then drain clean.
    {
        let data = generate(Corpus::Mixed, 77, 64 * 1024);
        let reference = frame_up(&data, fb);
        match connect_patient("final", 1 << 20).and_then(|mut c| c.compress(&data, fb as u32, 0)) {
            Ok(framed) if framed == reference => {
                println!("server storm: post-storm roundtrip byte-exact")
            }
            Ok(_) => {
                violations += 1;
                eprintln!("VIOLATION: post-storm compress served wrong bytes");
            }
            Err(e) => {
                violations += 1;
                eprintln!("VIOLATION: server no longer serves after the storm: {e}");
            }
        }
    }
    let admission = handle.admission();
    let stats = handle.shutdown(Duration::from_secs(5));
    if admission.active_sessions() != 0
        || admission.active_streams() != 0
        || admission.active_bytes() != 0
        || handle.live_connections() != 0
    {
        violations += 1;
        eprintln!(
            "VIOLATION: drain leaked {} sessions / {} streams / {} bytes / {} connections",
            admission.active_sessions(),
            admission.active_streams(),
            admission.active_bytes(),
            handle.live_connections()
        );
    }
    if stats.panics_contained == 0 {
        violations += 1;
        eprintln!("VIOLATION: the panic plan never fired — the storm tested nothing");
    }
    match validate_span_tree(&stats.trace) {
        Ok(summary) => println!(
            "server storm: span trace validates ({} spans, depth {})",
            summary.spans, summary.max_depth
        ),
        Err(e) => {
            violations += 1;
            eprintln!("VIOLATION: storm trace is not one causal tree: {e}");
        }
    }
    println!(
        "server storm: {} sessions, {} requests ({} done, {} failed), {} panics contained, \
         {} protocol errors, {violations} violations",
        stats.sessions_total,
        stats.requests_total,
        stats.requests_done,
        stats.requests_failed,
        stats.panics_contained,
        stats.protocol_errors
    );
    violations == 0
}

/// Write the final registry snapshot as a JSONL metrics stream: a `run`
/// event describing the storm, then the `metrics` snapshot event the
/// `lzfpga stats` aggregator understands.
fn write_metrics(
    path: &str,
    reg: &MetricsRegistry,
    mutants: u64,
    lzfc_mutants: u64,
    seed: u64,
) -> bool {
    let write = || -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut sink = JsonlWriter::new(std::io::BufWriter::new(file));
        sink.emit(
            "run",
            obj([
                ("command", "faultstorm".into()),
                ("mutants", mutants.into()),
                ("lzfc_mutants", lzfc_mutants.into()),
                ("seed", seed.into()),
            ]),
        )?;
        sink.emit("metrics", snapshot_to_json(&reg.snapshot()))?;
        sink.finish().map(|_| ())
    };
    match write() {
        Ok(()) => {
            println!("wrote {path}");
            true
        }
        Err(e) => {
            eprintln!("writing {path}: {e}");
            false
        }
    }
}

/// Frame a corpus with the streaming writer at `frame_bytes`.
fn frame_up(data: &[u8], frame_bytes: usize) -> Vec<u8> {
    let cfg = FrameConfig { frame_bytes, collect_events: false, ..FrameConfig::default() };
    let mut w = FrameWriter::new(Vec::new(), cfg, HwConfig::paper_fast().as_lzss_params())
        .expect("frame config");
    w.write_all(data).expect("frame write");
    w.finish().expect("frame finish").0
}

/// The LZFC salvage storm: every frame-targeted mutant must salvage
/// without panicking, and the recovered bytes must match the exact
/// per-damage-kind prediction — byte-identical surviving frames. With a
/// registry, every pass's `SalvageReport` JSON is absorbed and the summed
/// `salvage_*` counters must reconcile exactly with the typed ledgers.
fn run_lzfc_storm(mutants: u64, seed: u64, reg: Option<&MetricsRegistry>) -> u64 {
    let fb = 16 * 1024;
    let data = generate(Corpus::Mixed, 45, 256 * 1024);
    let framed = frame_up(&data, fb);
    let spans = frame_spans(&framed).expect("fresh stream structure");
    let sites: Vec<FrameSite> = spans
        .iter()
        .map(|s| FrameSite {
            header_start: s.header_start,
            payload_start: s.payload_start,
            end: s.end,
        })
        .collect();
    let data_frames = sites.len() - 1; // the last site is the trailer
    let codecs: Vec<Option<Codec>> = spans.iter().map(|s| s.record.codec()).collect();
    // Uncompressed byte range each data frame carries.
    let extent = |i: usize| (i * fb, ((i + 1) * fb).min(data.len()));

    let mut mutator = StreamMutator::new(seed ^ 0x1F2C);
    let mut violations = 0u64;
    // Typed ledger totals, summed alongside the per-report `absorb` calls
    // so the registry's generic folding can be held to them exactly.
    let (mut recovered, mut deep, mut skipped, mut bytes, mut lost) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for _ in 0..mutants {
        let m = mutator.mutate_framed(&framed, &sites);
        let outcome = catch_unwind(AssertUnwindSafe(|| salvage(&m.bytes)));
        let Ok(s) = outcome else {
            violations += 1;
            eprintln!("VIOLATION: salvage panicked on {} (frame {:?})", m.kind, m.frame);
            continue;
        };
        if let Some(reg) = reg {
            reg.absorb("salvage", &s.report.to_json());
            recovered += u64::from(s.report.frames_recovered);
            deep += u64::from(s.report.frames_deep_recovered);
            skipped += s.report.frames_skipped;
            bytes += s.report.bytes_recovered;
            lost += s.report.lost.len() as u64;
        }
        let frame = m.frame.expect("framed mutants always target a site");
        let expected: Vec<u8> = match m.kind {
            // A dead sync or payload loses exactly the targeted frame;
            // aimed at the trailer, the data all survives.
            MutationKind::SyncSmash | MutationKind::PayloadCorrupt => {
                if frame == data_frames {
                    data.clone()
                } else {
                    let (lo, hi) = extent(frame);
                    [&data[..lo], &data[hi..]].concat()
                }
            }
            // A dead header over an intact zlib payload deep-recovers in
            // full; a raw payload is not self-delimiting, so its frame is
            // lost. Trailer headers carry no data.
            MutationKind::HeaderCorrupt => {
                if frame == data_frames || codecs[frame] == Some(Codec::FixedZlib) {
                    data.clone()
                } else {
                    let (lo, hi) = extent(frame);
                    [&data[..lo], &data[hi..]].concat()
                }
            }
            // Truncation keeps every frame before the cut.
            MutationKind::TruncateMidFrame => {
                if frame == data_frames {
                    data.clone()
                } else {
                    data[..extent(frame).0].to_vec()
                }
            }
            other => {
                violations += 1;
                eprintln!("VIOLATION: unexpected mutation kind {other} from mutate_framed");
                continue;
            }
        };
        if s.data != expected {
            violations += 1;
            eprintln!(
                "VIOLATION: {} on frame {frame}: recovered {} bytes, predicted {}",
                m.kind,
                s.data.len(),
                expected.len()
            );
        }
    }
    if let Some(reg) = reg {
        let snap = reg.snapshot();
        let expected = [
            ("salvage_frames_recovered", recovered),
            ("salvage_frames_deep_recovered", deep),
            ("salvage_frames_skipped", skipped),
            ("salvage_bytes_recovered", bytes),
            ("salvage_lost_count", lost),
        ];
        for (name, want) in expected {
            if snap.counter(name) != want {
                violations += 1;
                eprintln!(
                    "VIOLATION: registry counter {name} = {} does not reconcile with the \
                     typed SalvageReport total {want}",
                    snap.counter(name)
                );
            }
        }
        if violations == 0 {
            println!(
                "lzfc storm: registry salvage_* counters reconcile with {mutants} typed \
                 SalvageReport ledgers ({recovered} recovered, {skipped} skipped, \
                 {bytes} bytes)"
            );
        }
    }
    println!(
        "lzfc storm: {mutants} frame-targeted mutants over {data_frames} frames, \
         {violations} violations"
    );
    violations
}

/// The seek-index storm: every index-targeted mutant (header hits, payload
/// hits, pointer smashes, torn indexes) must open through [`open_indexed`]
/// without panicking, must NOT be accepted as a trusted index, and every
/// probe range must come back byte-exact or be refused with the typed
/// range error — wrong bytes are the one unforgivable outcome.
fn run_lzfc_index_storm(mutants: u64, seed: u64) -> u64 {
    let fb = 16 * 1024;
    let data = generate(Corpus::Mixed, 46, 192 * 1024);
    let framed = frame_up(&data, fb);
    let structure = check_structure(&framed).expect("fresh stream structure");
    let span = structure.index.expect("streaming writer indexes by default");
    let site = FrameSite {
        header_start: span.header_start,
        payload_start: span.payload_start,
        end: span.end,
    };
    let total = data.len() as u64;
    let probes = [0..fb as u64, total / 2..total / 2 + 10_000, total.saturating_sub(1)..u64::MAX];

    let mut mutator = StreamMutator::new(seed ^ 0x58D1);
    let mut violations = 0u64;
    for _ in 0..mutants {
        let m = mutator.mutate_index(&framed, site);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut reader = open_indexed(&m.bytes);
            if reader.report().source == IndexSource::Index {
                return Some("corrupt index accepted as trusted".to_string());
            }
            for r in probes.clone() {
                match reader.decode_range(r.clone()) {
                    Ok(got) => {
                        let lo = (r.start as usize).min(data.len());
                        let hi = (r.end.min(total) as usize).max(lo);
                        if got != data[lo..hi] {
                            return Some(format!("range {r:?}: wrong bytes served"));
                        }
                    }
                    // A torn index can take the trailer's EOF knowledge
                    // with it; refusing the range is allowed, mis-serving
                    // is not.
                    Err(ContainerError::RangeUnavailable { .. }) => {}
                    Err(e) => return Some(format!("range {r:?}: unexpected error {e}")),
                }
            }
            None
        }));
        match outcome {
            Ok(None) => {}
            Ok(Some(why)) => {
                violations += 1;
                eprintln!("VIOLATION: {} on the index: {why}", m.kind);
            }
            Err(_) => {
                violations += 1;
                eprintln!("VIOLATION: range reader panicked on {}", m.kind);
            }
        }
    }
    println!("lzfc index storm: {mutants} index-targeted mutants, {violations} violations");
    violations
}

/// Cut a framed stream at several points, resume from the durable prefix,
/// and require the finished bytes to match the uninterrupted run.
fn run_resume_drill() -> bool {
    let fb = 64 * 1024;
    let data = generate(Corpus::Mixed, 33, 1_000_000);
    let fresh = frame_up(&data, fb);
    let mut ok = true;
    for cut in [1, fresh.len() / 4, fresh.len() / 2, fresh.len() - 5] {
        let scan = scan_partial(&fresh[..cut]);
        let mut out = fresh[..scan.valid_bytes as usize].to_vec();
        let cfg = FrameConfig { frame_bytes: fb, collect_events: false, ..FrameConfig::default() };
        let resumed = match FrameWriter::resume(
            &mut out,
            cfg,
            HwConfig::paper_fast().as_lzss_params(),
            &scan,
        ) {
            Ok(mut w) => w
                .write_all(&data[scan.uncompressed_bytes as usize..])
                .and_then(|()| w.finish().map(|_| ())),
            Err(e) => {
                eprintln!("resume drill: cut at {cut}: {e}");
                Err(std::io::Error::other("resume rejected"))
            }
        };
        if resumed.is_err() || out != fresh {
            eprintln!("resume drill: cut at {cut} bytes diverged from the fresh stream");
            ok = false;
        }
    }
    if ok {
        println!("resume drill: {} byte stream resumed byte-identically from 4 cuts", fresh.len());
    }
    ok
}

/// The container tax: framed output over a 2 MiB mixed corpus must stay
/// within 2% of the plain parallel zlib stream.
fn run_overhead_check() -> bool {
    let data = generate(Corpus::Mixed, 55, 2 * 1024 * 1024);
    let cfg = ParallelConfig {
        chunk_bytes: 256 * 1024,
        workers: 4,
        instances: 1,
        hw: HwConfig::paper_fast(),
        engine: EngineKind::Turbo,
        telemetry: false,
    };
    let plain = match compress_parallel(&data, &cfg) {
        Ok(rep) => rep.compressed.len(),
        Err(e) => {
            eprintln!("overhead check: plain run failed: {e}");
            return false;
        }
    };
    let frame_cfg =
        FrameConfig { frame_bytes: 256 * 1024, collect_events: false, ..FrameConfig::default() };
    let framed = match compress_frames_parallel(&data, &cfg, &frame_cfg) {
        Ok(rep) => rep.framed.len(),
        Err(e) => {
            eprintln!("overhead check: framed run failed: {e}");
            return false;
        }
    };
    let overhead = framed as f64 / plain as f64 - 1.0;
    println!(
        "lzfc overhead: {framed} framed vs {plain} plain zlib bytes ({:+.3}%)",
        overhead * 100.0
    );
    if overhead > 0.02 {
        eprintln!("overhead check: container tax {:.3}% exceeds the 2% budget", overhead * 100.0);
        return false;
    }
    true
}

/// The fault-injection acceptance drill: an injected worker panic in an
/// 8-chunk / 4-worker job must not change a byte of output, and the failure
/// report must record exactly the injected fault. With a registry, the
/// report's JSON form is absorbed and the resulting `faults_*` counters
/// must reconcile exactly with the typed ledger fields.
fn run_drill(reg: Option<&MetricsRegistry>) -> bool {
    let data = generate(Corpus::Mixed, 21, 256_000);
    let cfg = ParallelConfig {
        chunk_bytes: 32 * 1024,
        workers: 4,
        instances: 1,
        hw: HwConfig::paper_fast(),
        engine: EngineKind::Turbo,
        telemetry: false,
    };
    let clean = match compress_parallel(&data, &cfg) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("drill: clean run failed: {e}");
            return false;
        }
    };
    let plan = FailPlan::new(7).rule(FailRule::new("parallel.worker.chunk").on_hit(3).panics());
    let faulty = match compress_parallel_with(&data, &cfg, &plan) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("drill: faulty run failed: {e}");
            return false;
        }
    };
    let f = &faulty.failures;
    if let Some(reg) = reg {
        reg.absorb("faults", &f.to_json());
        let snap = reg.snapshot();
        let expected = [
            ("faults_attempts", f.attempts),
            ("faults_retries", f.retries),
            ("faults_worker_restarts", f.worker_restarts),
            ("faults_injected_errors", f.injected_errors),
            ("faults_injected_count", f.injected.len() as u64),
            ("faults_degraded_chunks_count", f.degraded_chunks.len() as u64),
            ("faults_failed_chunks_count", f.failed_chunks.len() as u64),
        ];
        for (name, want) in expected {
            if snap.counter(name) != want {
                eprintln!(
                    "drill: registry counter {name} = {} does not reconcile with the typed \
                     FailureReport value {want}",
                    snap.counter(name)
                );
                return false;
            }
        }
        println!("drill: registry faults_* counters reconcile with the typed FailureReport");
    }
    let ok = faulty.compressed == clean.compressed
        && f.attempts == 9
        && f.retries == 1
        && f.worker_restarts == 1
        && f.injected_errors == 0
        && f.degraded_chunks.is_empty()
        && f.failed_chunks.is_empty()
        && f.injected.len() == 1;
    if ok {
        println!(
            "drill: injected worker panic recovered, output byte-identical \
             ({} attempts, {} retry, {} restart)",
            f.attempts, f.retries, f.worker_restarts
        );
    } else {
        eprintln!("drill: report or bytes diverged: {:?}", f);
    }
    ok
}

fn build_corpus() -> Vec<BaseStream> {
    let cfg = HwConfig::paper_fast();
    let params = cfg.as_lzss_params();
    let mut streams = Vec::new();
    for (name, corpus, size) in [
        ("wiki", Corpus::Wiki, 60_000usize),
        ("json", Corpus::JsonTelemetry, 60_000),
        ("x2e", Corpus::X2e, 60_000),
    ] {
        let data = generate(corpus, 5, size);
        streams.push(BaseStream {
            name,
            bytes: compress_to_zlib(&data, &cfg).compressed,
            original: data.clone(),
            container: Container::HwZlib,
        });
        let tokens = TurboEngine::new().compress(&data, &params);
        streams.push(BaseStream {
            name,
            bytes: gzip_compress_tokens(&tokens, &data, BlockKind::FixedHuffman),
            original: data.clone(),
            container: Container::Gzip,
        });
        let par_cfg = ParallelConfig {
            chunk_bytes: 16 * 1024,
            workers: 2,
            instances: 1,
            hw: cfg,
            engine: EngineKind::Turbo,
            telemetry: false,
        };
        let rep = compress_parallel(&data, &par_cfg).expect("parallel base stream");
        streams.push(BaseStream {
            name,
            bytes: rep.compressed,
            original: data,
            container: Container::ParallelZlib,
        });
    }
    streams
}

fn run_storm(mutants: u64, seed: u64) -> Tally {
    let corpus = build_corpus();
    let mut tally = Tally { decodes: 0, rejected: 0, roundtripped: 0, corrupted: 0, violations: 0 };
    let mut mutator = StreamMutator::new(seed);
    for i in 0..mutants {
        let base = &corpus[(i % corpus.len() as u64) as usize];
        let mutant = mutator.mutate(&base.bytes);
        // Cap well above the true payload so valid round-trips pass, but
        // low enough that a runaway expansion is caught long before OOM.
        let cap = (base.original.len() as u64).saturating_mul(4).max(1 << 20);
        let limits = Limits::none().with_max_output_bytes(cap);

        check_decode(
            &mut tally,
            base,
            &mutant.kind.to_string(),
            cap,
            catch_unwind(AssertUnwindSafe(|| match base.container {
                Container::Gzip => {
                    gzip_decompress_limited(&mutant.bytes, &limits).map_err(|e| e.to_string())
                }
                _ => zlib_decompress_limited(&mutant.bytes, &limits).map_err(|e| e.to_string()),
            })),
        );
        if base.container == Container::HwZlib {
            let hw_out = catch_unwind(AssertUnwindSafe(|| {
                let mut d =
                    HwDecompressor::try_new(DecompConfig { window_size: 4_096, bus_bytes: 4 })
                        .expect("static decomp config");
                d.decompress_zlib(&mutant.bytes).map(|rep| rep.bytes).map_err(|e| e.to_string())
            }));
            check_decode(&mut tally, base, &mutant.kind.to_string(), u64::MAX, hw_out);
        }
    }
    tally
}

/// Fold one decode attempt into the tally, flagging contract violations.
fn check_decode(
    tally: &mut Tally,
    base: &BaseStream,
    kind: &str,
    cap: u64,
    result: std::thread::Result<Result<Vec<u8>, String>>,
) {
    tally.decodes += 1;
    match result {
        Err(_) => {
            tally.violations += 1;
            eprintln!("VIOLATION: panic decoding {} mutant ({kind})", base.name);
        }
        Ok(Ok(out)) if out.len() as u64 > cap => {
            tally.violations += 1;
            eprintln!(
                "VIOLATION: {} mutant ({kind}) decoded {} bytes past the {cap}-byte cap",
                base.name,
                out.len()
            );
        }
        Ok(Ok(out)) => {
            if out == base.original {
                tally.roundtripped += 1;
            } else {
                tally.corrupted += 1;
            }
        }
        Ok(Err(_)) => tally.rejected += 1,
    }
}
