//! Crash-durable session contract of the `lzfpga-server` daemon.
//!
//! Four promises, each load-bearing for resume-after-kill:
//!
//! 1. a durable server announces a session token, serves bytes identical
//!    to the in-memory path, and drains its session files and quota
//!    to zero once delivery completes;
//! 2. a session crashed between its computed result and its first result
//!    byte is recovered at startup, and a `Resume` with its token
//!    recomputes the fresh stream byte-for-byte;
//! 3. a corrupt journal is refused with the typed `Unresumable` code and
//!    charges nothing against the tenant's quota;
//! 4. orphaned sessions past their TTL return both their disk and their
//!    admitted bytes.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lzfpga::container::{FrameConfig, FrameWriter};
use lzfpga::faults::registry::SERVER_RESULT_READY;
use lzfpga::faults::{FailPlan, FailRule, NoFaults};
use lzfpga::hw::HwConfig;
use lzfpga::server::{
    Client, ClientError, RejectCode, Request, Response, Server, ServerConfig, SessionOp,
    SessionStore,
};
use lzfpga::workloads::{generate, Corpus};

const FRAME_BYTES: usize = 16 * 1024;
const TENANT: &str = "resume-test";

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "lzfpga-resume-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The byte-exact reference for a server-side compress of `data`.
fn reference_stream(data: &[u8]) -> Vec<u8> {
    let cfg =
        FrameConfig { frame_bytes: FRAME_BYTES, collect_events: false, ..FrameConfig::default() };
    let mut w = FrameWriter::new(Vec::new(), cfg, HwConfig::paper_fast().as_lzss_params())
        .expect("frame config");
    w.write_all(data).expect("frame write");
    w.finish().expect("frame finish").0
}

fn durable_config(state_dir: &Path, ttl_ms: u64) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        frame_bytes: FRAME_BYTES,
        state_dir: Some(state_dir.to_path_buf()),
        resume_ttl_ms: ttl_ms,
        ..ServerConfig::default()
    }
}

fn start_durable_server(state_dir: &Path, ttl_ms: u64) -> lzfpga::server::ServerHandle {
    Server::new(durable_config(state_dir, ttl_ms)).start().expect("bind resume-test server")
}

/// Park a journaled compress session in `state_dir`, as a server that
/// crashed after announcing its token leaves it: one session file, its
/// journal record and input durable, nothing else. Returns the token.
fn fabricate_session(state_dir: &Path, data: &[u8]) -> u64 {
    let store = SessionStore::open(state_dir).expect("open store");
    let (token, path) = store
        .begin(SessionOp::Compress, TENANT, FRAME_BYTES as u32, 0, data, &NoFaults)
        .expect("begin session");
    assert!(path.is_file(), "the session file is durable");
    token
}

/// Copy every session file under `from` to `to`.
fn copy_sessions(from: &Path, to: &Path) {
    std::fs::create_dir_all(to.join("sessions")).unwrap();
    for entry in std::fs::read_dir(from.join("sessions")).unwrap() {
        let src = entry.unwrap().path();
        assert!(src.is_file(), "a session is one file: {}", src.display());
        std::fs::copy(&src, to.join("sessions").join(src.file_name().unwrap())).unwrap();
    }
}

fn wait_for_drained_sessions(store: &SessionStore) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while store.sessions_on_disk() > 0 {
        assert!(Instant::now() < deadline, "session files never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn durable_roundtrip_announces_token_and_drains_to_zero() {
    let tmp = TempDir::new("roundtrip");
    let data = generate(Corpus::Mixed, 71, 96 * 1024);
    let reference = reference_stream(&data);

    let handle = start_durable_server(&tmp.0, 600_000);
    let store = handle.session_store().expect("durable server has a store");
    let mut client = Client::connect(handle.addr(), TENANT, 1 << 22).expect("connect");

    let compressed = client.compress(&data, 0, 0).expect("durable compress");
    assert_eq!(compressed, reference, "durable path diverged from the in-memory reference");
    assert!(client.session_token().is_some(), "durable compress must announce a session token");

    let plain = client.decompress(&compressed, 1 << 20, 0).expect("durable decompress");
    assert_eq!(plain, data);

    // Delivery completed on a live connection: both sessions are settled
    // and their files, streams, and bytes must all return.
    wait_for_drained_sessions(&store);
    drop(client);
    let stats = handle.shutdown(Duration::from_secs(5));
    assert_eq!(stats.active_streams, 0, "leaked admitted streams");
    assert_eq!(stats.active_bytes, 0, "leaked admitted bytes");
}

#[test]
fn crashed_session_recovers_and_resumes_byte_identically() {
    let live = TempDir::new("live");
    let crashed = TempDir::new("crashed");
    let data = generate(Corpus::LogLines, 73, 120 * 1024);
    let reference = reference_stream(&data);

    // The live server holds its result at the result-ready site. Nothing
    // is written after the journal, so the state dir copied while it
    // waits is exactly what a crash at that site leaves on disk.
    let plan = FailPlan::new(7).rule(FailRule::new(SERVER_RESULT_READY).delays_ms(500));
    let handle = Server::new(durable_config(&live.0, 600_000))
        .with_faults(Arc::new(plan))
        .start()
        .expect("bind live server");
    let mut client = Client::connect(handle.addr(), TENANT, 1 << 22).expect("connect");
    client
        .send(&Request::Compress { req: 1, deadline_ms: 0, frame_bytes: 0, data: data.clone() })
        .expect("send");
    let deadline = Instant::now() + Duration::from_secs(10);
    let token = loop {
        assert!(Instant::now() < deadline, "no session token");
        match client.recv() {
            Ok(Response::Session { token, .. }) => break token,
            Err(ClientError::TimedOut) => {}
            other => panic!("expected the session token first, got {other:?}"),
        }
    };
    copy_sessions(&live.0, &crashed.0);
    drop(client);
    handle.shutdown(Duration::from_secs(5));

    // "Restart" onto the crashed state directory: the session must be
    // parked for resume, and the token must replay the full stream.
    let handle = start_durable_server(&crashed.0, 600_000);
    let recovery = handle.recovery();
    assert_eq!(recovery.recovered, 1, "crashed session not parked for resume");
    assert_eq!(recovery.unresumable, 0);
    assert_eq!(recovery.refused, 0);

    let store = handle.session_store().expect("store");
    let mut client = Client::connect(handle.addr(), TENANT, 1 << 22).expect("connect");
    // Nothing was delivered before the crash; acknowledging the first
    // 1000 reference bytes anyway checks that the replay starts at
    // `acked`, mid-frame.
    let resumed = client.resume(token, &reference[..1000], 0).expect("resume after the crash");
    assert_eq!(resumed, reference, "resumed stream diverged from the fresh stream");

    // A second claim of the same token is refused: the promise is
    // one-shot and the session file is gone.
    wait_for_drained_sessions(&store);
    match client.resume(token, &[], 0) {
        Err(ClientError::Request { code: RejectCode::Unresumable, .. }) => {}
        other => panic!("double-claim must be Unresumable, got {other:?}"),
    }
    drop(client);
    let stats = handle.shutdown(Duration::from_secs(5));
    assert_eq!(stats.active_streams, 0);
    assert_eq!(stats.active_bytes, 0);
}

#[test]
fn corrupt_journal_is_unresumable_and_charges_nothing() {
    let tmp = TempDir::new("corrupt");
    let data = generate(Corpus::JsonTelemetry, 79, 64 * 1024);
    let token = fabricate_session(&tmp.0, &data);

    // Flip one byte inside the journal record's token field (after the
    // file's 4-byte record-length prefix): the CRC must catch it and the
    // whole session must be garbage-collected at startup.
    let sessions: Vec<_> =
        std::fs::read_dir(tmp.0.join("sessions")).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(sessions.len(), 1);
    let mut bytes = std::fs::read(&sessions[0]).unwrap();
    bytes[4 + 8] ^= 0x01;
    std::fs::write(&sessions[0], &bytes).unwrap();

    let handle = start_durable_server(&tmp.0, 600_000);
    let recovery = handle.recovery();
    assert_eq!(recovery.recovered, 0);
    assert_eq!(recovery.unresumable, 1, "corrupt journal not detected");

    // Nothing was re-admitted and the disk is clean.
    let stats = handle.stats();
    assert_eq!(stats.active_streams, 0, "corrupt session charged a stream");
    assert_eq!(stats.active_bytes, 0, "corrupt session charged bytes");
    let store = handle.session_store().expect("store");
    assert_eq!(store.sessions_on_disk(), 0, "corrupt session file leaked");

    let mut client = Client::connect(handle.addr(), TENANT, 1 << 22).expect("connect");
    match client.resume(token, &[], 0) {
        Err(ClientError::Request { code: RejectCode::Unresumable, .. }) => {}
        other => panic!("corrupt-journal resume must be Unresumable, got {other:?}"),
    }
    drop(client);
    handle.shutdown(Duration::from_secs(5));
}

#[test]
fn orphan_sweep_returns_quota_and_disk() {
    let tmp = TempDir::new("orphan");
    let data = generate(Corpus::SensorFrames, 83, 80 * 1024);
    let token = fabricate_session(&tmp.0, &data);

    let handle = start_durable_server(&tmp.0, 600_000);
    assert_eq!(handle.recovery().recovered, 1);
    // The parked session holds real quota while it waits for its client.
    let before = handle.stats();
    assert_eq!(before.active_streams, 1, "parked session must hold a stream");
    assert!(before.active_bytes > 0, "parked session must hold admitted bytes");

    // The client never shows up: the sweep reclaims both disk and quota.
    assert_eq!(handle.sweep_orphans_now(), 1);
    let after = handle.stats();
    assert_eq!(after.active_streams, 0, "sweep leaked a stream");
    assert_eq!(after.active_bytes, 0, "sweep leaked admitted bytes");
    let store = handle.session_store().expect("store");
    assert_eq!(store.sessions_on_disk(), 0, "sweep leaked the session file");

    // The token's promise died with the orphan — typed refusal, not bytes.
    let mut client = Client::connect(handle.addr(), TENANT, 1 << 22).expect("connect");
    match client.resume(token, &[], 0) {
        Err(ClientError::Request { code: RejectCode::Unresumable, .. }) => {}
        other => panic!("swept-orphan resume must be Unresumable, got {other:?}"),
    }
    drop(client);
    handle.shutdown(Duration::from_secs(5));
}
