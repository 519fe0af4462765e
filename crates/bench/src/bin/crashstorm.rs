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
//!    no session files (nor anything else under `sessions/`) and no
//!    `.part` staging files;
//! 3. **zero leaked quota** — the drained server's final ledger reports
//!    0 streams / 0 bytes in flight.
//!
//! The schedule per seed: a clean reference run, a crash before the
//! journal is durable (no token promised → orphan GC), a crash with the
//! compress result computed and its token announced but nothing
//! delivered (resume recomputes), the same crash followed by a second one
//! while the resume is served, a `SIGKILL` while the client is
//! credit-starved mid-download (compress and decompress: recompute, then
//! replay from the acknowledged offset), a crash followed by deliberate
//! journal corruption (typed refusal), and a crash with a decompress
//! result ready. Each round ends with a graceful drain and the leak
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

use lzfpga_faults::registry::{SERVER_JOURNAL_APPEND, SERVER_RESULT_READY};
use lzfpga_faults::{CRASH_HIT_ENV, CRASH_SITE_ENV};
use lzfpga_server::{Client, ClientError, RejectCode, Request, Response};

/// 1 MiB of word-ish data: 16 frames at the 64 KiB serve frame size, so
/// a credit-starved download stops mid-stream.
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

/// After a round fully drains, the state dir must hold no session entries
/// and no `.part` staging files anywhere.
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

/// The token of the one session file a crash left in the state dir, read
/// from its name (`s<token:016x>`).
fn session_on_disk(root: &Path) -> Option<u64> {
    let rd = fs::read_dir(root.join("state").join("sessions")).ok()?;
    let tokens: Vec<u64> = rd
        .flatten()
        .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            u64::from_str_radix(name.strip_prefix('s')?, 16).ok()
        })
        .collect();
    match tokens[..] {
        [token] => Some(token),
        _ => None,
    }
}

/// Run `op` against a server armed to abort at the result-ready site and
/// return the session's token. The site sits after the token is queued
/// and before any result byte, so the client must hold no result bytes;
/// the token comes from the client when its `Session` message beat the
/// abort onto the wire, else from the one session file the crash
/// left behind (the server announced it either way).
fn crash_at_result_ready(
    bin: &Path,
    root: &Path,
    log_name: &str,
    op: impl FnOnce(&mut Client) -> Result<Vec<u8>, ClientError>,
    violations: &mut Vec<String>,
    round: &str,
) -> Option<u64> {
    let mut srv = spawn_server(bin, root, log_name, Some((SERVER_RESULT_READY, 1)), 600_000);
    let mut c = connect(&srv.addr, 1 << 20);
    match op(&mut c) {
        Ok(_) => {
            violations.push(format!("{round}: request survived an armed abort"));
            srv.kill();
            return None;
        }
        Err(ClientError::Io(_) | ClientError::Proto(_) | ClientError::TimedOut) => {}
        Err(e) => violations.push(format!("{round}: expected a transport death, got {e}")),
    }
    srv.wait();
    let prefix = c.take_partial();
    if !prefix.is_empty() {
        violations.push(format!(
            "{round}: {} result bytes delivered before the result-ready site",
            prefix.len()
        ));
    }
    match (c.session_token(), session_on_disk(root)) {
        (Some(wire), Some(disk)) if wire != disk => {
            violations.push(format!("{round}: announced token {wire:x}, on disk {disk:x}"));
            None
        }
        (Some(token), _) => Some(token),
        (None, Some(token)) => {
            println!(
                "crashstorm: {round}: no token reached the client; read it from the state dir"
            );
            Some(token)
        }
        (None, None) => {
            violations.push(format!("{round}: no session survived the crash"));
            None
        }
    }
}

/// Restart the server, resume `token` from `prefix`, require `expected`,
/// then drain and check for leaks.
#[allow(clippy::too_many_arguments)]
fn resume_round(
    bin: &Path,
    root: &Path,
    log_name: &str,
    token: u64,
    prefix: &[u8],
    expected: &[u8],
    violations: &mut Vec<String>,
    round: &str,
) {
    let srv = spawn_server(bin, root, log_name, None, 600_000);
    let mut c = connect(&srv.addr, 1 << 20);
    match c.resume(token, prefix, 0) {
        Ok(bytes) if bytes == expected => {}
        Ok(_) => violations.push(format!("{round}: resumed bytes diverged")),
        Err(e) => violations.push(format!("{round}: resume failed: {e}")),
    }
    drop(c);
    drain_and_check(srv, violations, round);
    check_no_leaks(root, violations, round);
}

/// One full schedule against one seed. Returns accumulated violations.
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

    // Round 2 — abort with the compress result computed and its token
    // announced, nothing delivered: resume must recompute the reference.
    let round = format!("seed {seed} r2");
    let compress = |c: &mut Client| c.compress(&data, 0, 0);
    if let Some(token) = crash_at_result_ready(bin, &root, "r2a.log", compress, violations, &round)
    {
        resume_round(bin, &root, "r2b.log", token, &[], &reference, violations, &round);
    }

    // Round 3 — the same crash, then a second one at the same site while
    // the restarted server serves the resume: the claimed session is still
    // on disk, so the next restart resumes it again.
    let round = format!("seed {seed} r3");
    let compress = |c: &mut Client| c.compress(&data, 0, 0);
    if let Some(token) = crash_at_result_ready(bin, &root, "r3a.log", compress, violations, &round)
    {
        let resume = |c: &mut Client| c.resume(token, &[], 0);
        let again = crash_at_result_ready(bin, &root, "r3b.log", resume, violations, &round);
        if again.is_some_and(|t| t != token) {
            violations.push(format!("{round}: the resume crash left another session"));
        }
        resume_round(bin, &root, "r3c.log", token, &[], &reference, violations, &round);
    }

    // Rounds 4 and 5 — SIGKILL while the client is credit-starved
    // mid-download: compress, then decompress. The partial prefix the
    // client already holds must splice seamlessly into the recomputed
    // tail.
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
        let log = format!("{round}b.log");
        let round = format!("seed {seed} {round}");
        resume_round(bin, &root, &log, token, &prefix, expected, violations, &round);
    }

    // Round 6 — crash with the result ready, then corrupt the journal
    // record inside the session file before the restart: recovery must
    // refuse with a typed error, never serve bytes.
    let round = format!("seed {seed} r6");
    let compress = |c: &mut Client| c.compress(&data, 0, 0);
    if let Some(token) = crash_at_result_ready(bin, &root, "r6a.log", compress, violations, &round)
    {
        let mut corrupted = false;
        if let Ok(rd) = fs::read_dir(root.join("state").join("sessions")) {
            for entry in rd.flatten() {
                let session = entry.path();
                if let Ok(mut bytes) = fs::read(&session) {
                    // The record's token field, after the 4-byte
                    // record-length prefix.
                    if let Some(b) = bytes.get_mut(4 + 8) {
                        *b ^= 0x40;
                        fs::write(&session, &bytes).expect("rewrite session file");
                        corrupted = true;
                    }
                }
            }
        }
        if !corrupted {
            violations.push(format!("{round}: no journal on disk to corrupt"));
        }
        let srv = spawn_server(bin, &root, "r6b.log", None, 600_000);
        let mut c = connect(&srv.addr, 1 << 20);
        match c.resume(token, &[], 0) {
            Err(ClientError::Request { code: RejectCode::Unresumable, .. }) => {}
            Err(e) => violations
                .push(format!("{round}: corrupt journal should be typed unresumable, got {e}")),
            Ok(_) => {
                violations
                    .push(format!("{round}: corrupt journal served bytes — never acceptable"));
            }
        }
        match c.compress(&data, 0, 0) {
            Ok(bytes) if bytes == reference => {}
            Ok(_) => violations.push(format!("{round}: post-corruption compress diverged")),
            Err(e) => violations.push(format!("{round}: post-corruption compress failed: {e}")),
        }
        drop(c);
        drain_and_check(srv, violations, &round);
        check_no_leaks(&root, violations, &round);
    }

    // Round 7 — abort with a decompress result ready: decompress sessions
    // recompute from their journaled input the same way.
    let round = format!("seed {seed} r7");
    let decompress = |c: &mut Client| c.decompress(&reference, 4 << 20, 0);
    if let Some(token) =
        crash_at_result_ready(bin, &root, "r7a.log", decompress, violations, &round)
    {
        resume_round(bin, &root, "r7b.log", token, &[], &data, violations, &round);
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
