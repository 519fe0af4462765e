//! `crashstorm` — kill a real `lzfpga serve` process mid-stream, restart
//! it, and prove resume serves byte-identical results with nothing leaked.
//!
//! Unlike `faultstorm --server` (in-process, injected *errors*), this
//! drill spawns the actual CLI binary as a subprocess and makes it
//! **die** — either at an armed crash site (`LZFPGA_CRASH_SITE` →
//! `abort()` inside the write path) or by plain `SIGKILL` while a client
//! is mid-transfer — then restarts it on the same `--state-dir` and holds
//! the recovery to three hard rules:
//!
//! 1. **zero wrong bytes** — every resumed result is byte-identical to
//!    the uninterrupted run, and a corrupted journal produces a typed
//!    `unresumable` error, never output;
//! 2. **zero leaked disk** — after each round drains, the state dir holds
//!    no session directories and no `.part` staging files;
//! 3. **zero leaked quota** — the drained server's final ledger reports
//!    0 streams / 0 bytes in flight.
//!
//! The schedule per seed: a clean reference run, a crash before the
//! journal is durable (no token promised → orphan GC), crashes at the
//! frame-durability and promote sites (token promised → resume), a
//! `SIGKILL` while the client is credit-starved mid-download (compress
//! and decompress), a crash followed by deliberate journal corruption
//! (typed refusal), and a crash after the first frame's sync, which may
//! come before the journal is durable (resume if the token was announced,
//! orphan GC if not). Each round ends with a graceful drain and the leak
//! checks.
//!
//! ```text
//! crashstorm [SEED...]        (default seeds: 1 2)
//! ```
//!
//! The server binary is found via `LZFPGA_BIN` or next to this
//! executable. Exits non-zero on any violation.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

use lzfpga_faults::registry::{
    SERVER_FRAME_DURABLE, SERVER_JOURNAL_APPEND, SERVER_SESSION_PROMOTE,
};
use lzfpga_faults::{CRASH_HIT_ENV, CRASH_SITE_ENV};
use lzfpga_server::{Client, ClientError, RejectCode, Request, Response};

/// 1 MiB of word-ish data: enough frames (16 at the 64 KiB serve frame
/// size) that a mid-stream crash site always has a durable prefix to
/// leave behind.
const DATA_LEN: usize = 1 << 20;

fn corpus(seed: u64) -> Vec<u8> {
    let words: [&[u8]; 8] = [
        b"the ",
        b"quick ",
        b"frame ",
        b"lzss ",
        b"fpga ",
        b"stream ",
        b"0123456789 ",
        b"compress ",
    ];
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut out = Vec::with_capacity(DATA_LEN + 16);
    while out.len() < DATA_LEN {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(words[(state % words.len() as u64) as usize]);
    }
    out.truncate(DATA_LEN);
    out
}

fn server_bin() -> PathBuf {
    if let Ok(p) = std::env::var("LZFPGA_BIN") {
        return PathBuf::from(p);
    }
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("exe has a parent");
    let candidate = dir.join("lzfpga");
    if candidate.exists() {
        return candidate;
    }
    panic!("no lzfpga binary next to {} — build lzfpga-cli first or set LZFPGA_BIN", dir.display());
}

struct ServerProc {
    child: Child,
    addr: String,
    log: PathBuf,
}

impl ServerProc {
    /// SIGKILL the process — the whole point of the drill.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Wait for the process to exit on its own (after a crash-site abort
    /// or a graceful drain).
    fn wait(&mut self) {
        let _ = self.child.wait();
    }

    fn log_text(&self) -> String {
        fs::read_to_string(&self.log).unwrap_or_default()
    }
}

fn spawn_server(
    bin: &Path,
    root: &Path,
    log_name: &str,
    crash: Option<(&str, u64)>,
    ttl_ms: u64,
) -> ServerProc {
    let port_file = root.join("port.txt");
    let _ = fs::remove_file(&port_file);
    let log = root.join(log_name);
    let logf = fs::File::create(&log).expect("create server log");
    let mut cmd = Command::new(bin);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--allow-shutdown", "--frame-size", "65536"])
        .arg("--state-dir")
        .arg(root.join("state"))
        .arg("--port-file")
        .arg(&port_file)
        .args(["--resume-ttl-ms", &ttl_ms.to_string()])
        .stdout(Stdio::null())
        .stderr(logf)
        .env_remove(CRASH_SITE_ENV)
        .env_remove(CRASH_HIT_ENV);
    if let Some((site, hit)) = crash {
        cmd.env(CRASH_SITE_ENV, site).env(CRASH_HIT_ENV, hit.to_string());
    }
    let child = cmd.spawn().expect("spawn lzfpga serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(s) = fs::read_to_string(&port_file) {
            let s = s.trim();
            if !s.is_empty() {
                break s.to_string();
            }
        }
        assert!(Instant::now() < deadline, "server never wrote {}", port_file.display());
        sleep(Duration::from_millis(20));
    };
    ServerProc { child, addr, log }
}

fn connect(addr: &str, credit: u64) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr, "storm", credit) {
            Ok(c) => return c,
            Err(e) => {
                assert!(Instant::now() < deadline, "connect to {addr} kept failing: {e}");
                sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Gracefully drain the server, reap it, and check the final quota line.
fn drain_and_check(mut srv: ServerProc, violations: &mut Vec<String>, round: &str) {
    let mut c = connect(&srv.addr, 1 << 20);
    if let Err(e) = c.shutdown_server(5_000) {
        violations.push(format!("{round}: graceful shutdown failed: {e}"));
        srv.kill();
        return;
    }
    srv.wait();
    let log = srv.log_text();
    if !log.contains("quota now 0 streams / 0 bytes") {
        violations.push(format!(
            "{round}: drained server still holds admitted quota (log: {})",
            log.lines().last().unwrap_or("<empty>")
        ));
    }
}

/// After a round fully drains, the state dir must hold no session
/// directories and no `.part` staging files anywhere.
fn check_no_leaks(root: &Path, violations: &mut Vec<String>, round: &str) {
    let sessions = root.join("state").join("sessions");
    if let Ok(rd) = fs::read_dir(&sessions) {
        for entry in rd.flatten() {
            violations.push(format!("{round}: leaked session entry {}", entry.path().display()));
        }
    }
    let mut stack = vec![root.join("state")];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = fs::read_dir(&dir) else { continue };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "part") {
                violations.push(format!("{round}: leaked staging file {}", p.display()));
            }
        }
    }
}

/// After a crash that announced no token: restart with a short orphan TTL,
/// require the sweep to empty the state dir, then require a fresh compress
/// to match the reference.
fn sweep_orphans_and_recompress(
    bin: &Path,
    root: &Path,
    data: &[u8],
    reference: &[u8],
    violations: &mut Vec<String>,
    round: &str,
) {
    let srv = spawn_server(bin, root, "orphans.log", None, 300);
    sleep(Duration::from_millis(1500));
    let sessions = root.join("state").join("sessions");
    let orphans = fs::read_dir(&sessions).map(|rd| rd.flatten().count()).unwrap_or(0);
    if orphans != 0 {
        violations.push(format!("{round}: {orphans} orphan sessions survived the sweep"));
    }
    let mut c = connect(&srv.addr, 1 << 20);
    match c.compress(data, 0, 0) {
        Ok(bytes) if bytes == reference => {}
        Ok(_) => violations.push(format!("{round}: post-recovery compress diverged")),
        Err(e) => violations.push(format!("{round}: post-recovery compress failed: {e}")),
    }
    drop(c);
    drain_and_check(srv, violations, round);
    check_no_leaks(root, violations, round);
}

/// Drive a compress request by hand with a small fixed credit window and
/// no replenishment, collecting the session token and whatever result
/// bytes the window lets through — the "mid-transfer" state the SIGKILL
/// rounds need.
fn starved_request(addr: &str, request: &Request, req_id: u64) -> (Option<u64>, Vec<u8>) {
    let mut c = connect(addr, 4096);
    c.set_auto_credit(false);
    c.send(request).expect("send request");
    let mut token = None;
    let mut prefix: Vec<u8> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut quiet_ticks = 0u32;
    while Instant::now() < deadline {
        match c.recv() {
            Ok(Response::Session { req, token: t }) if req == req_id => token = Some(t),
            Ok(Response::Data { req, offset, bytes }) if req == req_id => {
                assert_eq!(offset, prefix.len() as u64, "out-of-order chunk");
                prefix.extend_from_slice(&bytes);
            }
            Ok(Response::Done { .. }) => break,
            Ok(_) => {}
            Err(ClientError::TimedOut) => {
                // Starved: the token arrived and the window is spent.
                quiet_ticks += 1;
                if token.is_some() && !prefix.is_empty() && quiet_ticks >= 3 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    (token, prefix)
}

/// One full schedule against one seed. Returns accumulated violations.
#[allow(clippy::too_many_lines)]
fn run_seed(bin: &Path, seed: u64, violations: &mut Vec<String>) {
    let root =
        std::env::temp_dir().join(format!("lzfpga-crashstorm-{}-{seed}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("create storm root");
    let data = corpus(seed);

    // Round 0 — clean reference: the uninterrupted server output every
    // resumed round must match byte for byte.
    let srv = spawn_server(bin, &root, "r0.log", None, 600_000);
    let mut c = connect(&srv.addr, 1 << 20);
    let reference = c.compress(&data, 0, 0).expect("reference compress");
    let plain = c.decompress(&reference, 4 << 20, 0).expect("reference decompress");
    if plain != data {
        violations.push(format!("seed {seed} r0: clean roundtrip diverged"));
    }
    drop(c);
    drain_and_check(srv, violations, &format!("seed {seed} r0"));
    check_no_leaks(&root, violations, &format!("seed {seed} r0"));

    // Round 1 — crash before the journal is durable: the client holds no
    // token, so the recovered session is an orphan the TTL sweep must GC,
    // returning its quota.
    let mut srv = spawn_server(bin, &root, "r1a.log", Some((SERVER_JOURNAL_APPEND, 1)), 600_000);
    let mut c = connect(&srv.addr, 1 << 20);
    match c.compress(&data, 0, 0) {
        Ok(_) => violations.push(format!("seed {seed} r1: compress survived an armed abort")),
        Err(e) => {
            if c.session_token().is_some() {
                violations.push(format!(
                    "seed {seed} r1: token announced before the journal was durable"
                ));
            }
            if !matches!(e, ClientError::Io(_) | ClientError::Proto(_) | ClientError::TimedOut) {
                violations.push(format!("seed {seed} r1: expected a transport death, got {e}"));
            }
        }
    }
    srv.wait();
    sweep_orphans_and_recompress(
        bin,
        &root,
        &data,
        &reference,
        violations,
        &format!("seed {seed} r1"),
    );

    // Rounds 2 and 3 — abort mid-stream (frame durability) and at the
    // promote rename: the token was announced, so resume must reproduce
    // the reference bytes exactly.
    for (round, site, hit) in
        [("r2", SERVER_FRAME_DURABLE, 10u64), ("r3", SERVER_SESSION_PROMOTE, 1)]
    {
        let mut srv =
            spawn_server(bin, &root, &format!("{round}a.log"), Some((site, hit)), 600_000);
        let mut c = connect(&srv.addr, 1 << 20);
        let err = match c.compress(&data, 0, 0) {
            Ok(_) => {
                violations.push(format!("seed {seed} {round}: compress survived an armed abort"));
                srv.kill();
                continue;
            }
            Err(e) => e,
        };
        if !matches!(err, ClientError::Io(_) | ClientError::Proto(_) | ClientError::TimedOut) {
            violations.push(format!("seed {seed} {round}: expected transport death, got {err}"));
        }
        let Some(token) = c.session_token() else {
            violations.push(format!("seed {seed} {round}: no session token before the crash"));
            srv.kill();
            continue;
        };
        let prefix = c.take_partial();
        srv.wait();
        let srv = spawn_server(bin, &root, &format!("{round}b.log"), None, 600_000);
        let mut c = connect(&srv.addr, 1 << 20);
        match c.resume(token, &prefix, 0) {
            Ok(bytes) if bytes == reference => {}
            Ok(_) => violations.push(format!("seed {seed} {round}: resumed bytes diverged")),
            Err(e) => violations.push(format!("seed {seed} {round}: resume failed: {e}")),
        }
        drop(c);
        drain_and_check(srv, violations, &format!("seed {seed} {round}"));
        check_no_leaks(&root, violations, &format!("seed {seed} {round}"));
    }

    // Rounds 4 and 5 — SIGKILL while the client is credit-starved
    // mid-download: compress, then decompress. The partial prefix the
    // client already holds must splice seamlessly into the resumed tail.
    let starved: [(&str, Request, &[u8]); 2] = [
        (
            "r4",
            Request::Compress { req: 900, deadline_ms: 60_000, frame_bytes: 0, data: data.clone() },
            &reference,
        ),
        (
            "r5",
            Request::Decompress {
                req: 900,
                deadline_ms: 60_000,
                max_result: 4 << 20,
                data: reference.clone(),
            },
            &data,
        ),
    ];
    for (round, request, expected) in starved {
        let mut srv = spawn_server(bin, &root, &format!("{round}a.log"), None, 600_000);
        let (token, prefix) = starved_request(&srv.addr, &request, 900);
        let Some(token) = token else {
            violations.push(format!("seed {seed} {round}: no token before the kill"));
            srv.kill();
            continue;
        };
        srv.kill();
        let srv = spawn_server(bin, &root, &format!("{round}b.log"), None, 600_000);
        let mut c = connect(&srv.addr, 1 << 20);
        match c.resume(token, &prefix, 0) {
            Ok(bytes) if bytes == *expected => {}
            Ok(_) => violations.push(format!("seed {seed} {round}: resumed bytes diverged")),
            Err(e) => violations.push(format!("seed {seed} {round}: resume failed: {e}")),
        }
        drop(c);
        drain_and_check(srv, violations, &format!("seed {seed} {round}"));
        check_no_leaks(&root, violations, &format!("seed {seed} {round}"));
    }

    // Round 6 — crash mid-stream, then corrupt the journal before the
    // restart: recovery must refuse with a typed error, never serve bytes.
    let mut srv = spawn_server(bin, &root, "r6a.log", Some((SERVER_FRAME_DURABLE, 10)), 600_000);
    let mut c = connect(&srv.addr, 1 << 20);
    let token = match c.compress(&data, 0, 0) {
        Ok(_) => {
            violations.push(format!("seed {seed} r6: compress survived an armed abort"));
            None
        }
        Err(_) => c.session_token(),
    };
    srv.wait();
    if let Some(token) = token {
        let mut corrupted = false;
        if let Ok(rd) = fs::read_dir(root.join("state").join("sessions")) {
            for entry in rd.flatten() {
                let journal = entry.path().join("journal");
                if let Ok(mut bytes) = fs::read(&journal) {
                    if let Some(b) = bytes.get_mut(8) {
                        *b ^= 0x40;
                        fs::write(&journal, &bytes).expect("rewrite journal");
                        corrupted = true;
                    }
                }
            }
        }
        if !corrupted {
            violations.push(format!("seed {seed} r6: no journal on disk to corrupt"));
        }
        let srv = spawn_server(bin, &root, "r6b.log", None, 600_000);
        let mut c = connect(&srv.addr, 1 << 20);
        match c.resume(token, &[], 0) {
            Err(ClientError::Request { code: RejectCode::Unresumable, .. }) => {}
            Err(e) => violations.push(format!(
                "seed {seed} r6: corrupt journal should be typed unresumable, got {e}"
            )),
            Ok(_) => violations
                .push(format!("seed {seed} r6: corrupt journal served bytes — never acceptable")),
        }
        match c.compress(&data, 0, 0) {
            Ok(bytes) if bytes == reference => {}
            Ok(_) => violations.push(format!("seed {seed} r6: post-corruption compress diverged")),
            Err(e) => {
                violations.push(format!("seed {seed} r6: post-corruption compress failed: {e}"));
            }
        }
        drop(c);
        drain_and_check(srv, violations, &format!("seed {seed} r6"));
        check_no_leaks(&root, violations, &format!("seed {seed} r6"));
    } else {
        violations.push(format!("seed {seed} r6: no token to corrupt against"));
    }

    // Round 7 — crash after the first frame's sync. The journal syncs
    // beside the job, so that frame can be durable before the journal is
    // and before the token is announced. Announced: resume must reproduce
    // the reference. Not announced: the session is torn or an orphan, and
    // the sweep must remove it.
    let mut srv = spawn_server(bin, &root, "r7a.log", Some((SERVER_FRAME_DURABLE, 1)), 600_000);
    let mut c = connect(&srv.addr, 1 << 20);
    if c.compress(&data, 0, 0).is_ok() {
        violations.push(format!("seed {seed} r7: compress survived an armed abort"));
        srv.kill();
    } else {
        let token = c.session_token();
        let prefix = c.take_partial();
        srv.wait();
        let round = format!(
            "seed {seed} r7 (token {})",
            if token.is_some() { "announced" } else { "not announced" }
        );
        println!("crashstorm: {round}: the first frame's sync preceded the crash");
        match token {
            Some(token) => {
                let srv = spawn_server(bin, &root, "r7b.log", None, 600_000);
                let mut c = connect(&srv.addr, 1 << 20);
                match c.resume(token, &prefix, 0) {
                    Ok(bytes) if bytes == reference => {}
                    Ok(_) => violations.push(format!("{round}: resumed bytes diverged")),
                    Err(e) => violations.push(format!("{round}: resume failed: {e}")),
                }
                drop(c);
                drain_and_check(srv, violations, &round);
                check_no_leaks(&root, violations, &round);
            }
            None => sweep_orphans_and_recompress(bin, &root, &data, &reference, violations, &round),
        }
    }

    let _ = fs::remove_dir_all(&root);
}

fn main() {
    let seeds: Vec<u64> = {
        let args: Vec<u64> = std::env::args().skip(1).filter_map(|a| a.parse().ok()).collect();
        if args.is_empty() {
            vec![1, 2]
        } else {
            args
        }
    };
    let bin = server_bin();
    println!("crashstorm: server binary {} — seeds {seeds:?}", bin.display());
    let started = Instant::now();
    let mut violations = Vec::new();
    for &seed in &seeds {
        let before = violations.len();
        run_seed(&bin, seed, &mut violations);
        println!("crashstorm: seed {seed} done ({} violations)", violations.len() - before);
    }
    println!("crashstorm: finished in {:.1}s", started.elapsed().as_secs_f64());
    if violations.is_empty() {
        println!("crashstorm: OK — zero wrong bytes, zero leaked sessions, ledgers at zero");
    } else {
        for v in &violations {
            eprintln!("crashstorm: VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
