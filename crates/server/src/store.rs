//! The crash-durable session store: journaled sessions that survive
//! `kill -9` and resume byte-identical.
//!
//! When the server runs with a state directory, every compress/decompress
//! request becomes a **session** on disk before any work is acknowledged:
//!
//! ```text
//! <state-dir>/sessions/s<token:016x>/
//!     input.bin   the request payload, synced before the journal
//!     journal     CRC-protected record of op + tenant + params + content CRC
//!     out.part    the staged container (per-frame durable flush)
//!     out         the finished container (promoted by rename + dir fsync)
//! ```
//!
//! The write path is ordered so every crash point has a recovery story
//! (DESIGN §14): input before journal, journal before the session is
//! announced ([`crate::proto::Response::Session`]), every frame synced
//! before the next is written, the finished container synced before the
//! rename, the rename made durable by fsyncing the directory. The three
//! registered crash sites ([`lzfpga_faults::registry`]) sit exactly at
//! those edges so the `crashstorm` drill can kill the process at each one.
//!
//! On startup [`SessionStore::recover`] walks the state directory: a
//! session whose journal fails verification is garbage-collected; a valid
//! one is re-admitted against its tenant's quota (so recovered work is
//! never free) and parked until [`Request::Resume`] claims it or the
//! orphan TTL sweeps it. Recovery re-verifies the journaled input CRC and
//! the staged prefix ([`scan_partial`]) before serving a single byte —
//! a damaged session is a typed [`RejectCode::Unresumable`], never wrong
//! bytes.
//!
//! [`Request::Resume`]: crate::proto::Request::Resume

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use lzfpga_container::{scan_partial, DurableFile, FrameConfig, FrameWriter};
use lzfpga_deflate::crc32::crc32;
use lzfpga_faults::registry::{
    SERVER_FRAME_DURABLE, SERVER_JOURNAL_APPEND, SERVER_SESSION_PROMOTE,
};
use lzfpga_faults::{Failpoints, InjectedFault};
use lzfpga_lzss::LzssParams;

use crate::jobs::{decompress_job, JobFail, JobLedger, RequestCtl};
use crate::proto::RejectCode;
use crate::quota::{Admission, Charge};

const JOURNAL_MAGIC: [u8; 4] = *b"LZSJ";
const JOURNAL_VERSION: u16 = 1;
const JOURNAL_FILE: &str = "journal";
const INPUT_FILE: &str = "input.bin";
const PART_FILE: &str = "out.part";
const OUT_FILE: &str = "out";

/// Open a directory and fsync it, making a just-created/renamed/removed
/// entry durable. Renaming a file is not crash-durable until its parent
/// directory is synced — the rename-durability half of this PR.
///
/// # Errors
/// The underlying open/sync failure.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// What kind of work a durable session journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOp {
    /// An LZFC compress request (frames staged through `out.part`).
    Compress,
    /// A strict decompress request (recomputed from `input.bin` on
    /// resume — decoding is deterministic, so nothing is staged).
    Decompress,
}

impl SessionOp {
    fn as_u8(self) -> u8 {
        match self {
            SessionOp::Compress => 1,
            SessionOp::Decompress => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(SessionOp::Compress),
            2 => Some(SessionOp::Decompress),
            _ => None,
        }
    }
}

/// The journal record written once per session, before the session token
/// is announced to the client. CRC-protected; a record that fails any
/// check is treated as if the session never existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal {
    /// The durable session token (also encodes the directory name).
    pub token: u64,
    /// What the session does.
    pub op: SessionOp,
    /// The tenant the session bills against (re-admitted on recovery).
    pub tenant: String,
    /// Frame size the compress op was admitted with.
    pub frame_bytes: u32,
    /// Exact byte length of `input.bin`.
    pub content_len: u64,
    /// CRC-32 of `input.bin`, re-verified before resume serves anything.
    pub content_crc: u32,
    /// The decompress op's declared result budget.
    pub max_result: u64,
}

impl Journal {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(48 + self.tenant.len());
        p.extend_from_slice(&JOURNAL_MAGIC);
        p.extend_from_slice(&JOURNAL_VERSION.to_be_bytes());
        p.push(self.op.as_u8());
        p.push(0); // reserved
        p.extend_from_slice(&self.token.to_be_bytes());
        p.extend_from_slice(&self.frame_bytes.to_be_bytes());
        p.extend_from_slice(&self.content_len.to_be_bytes());
        p.extend_from_slice(&self.content_crc.to_be_bytes());
        p.extend_from_slice(&self.max_result.to_be_bytes());
        let tenant = self.tenant.as_bytes();
        let tlen = tenant.len().min(u16::MAX as usize);
        p.extend_from_slice(&(tlen as u16).to_be_bytes());
        p.extend_from_slice(&tenant[..tlen]);
        let crc = crc32(&p);
        p.extend_from_slice(&crc.to_be_bytes());
        p
    }

    fn decode(bytes: &[u8]) -> Result<Journal, &'static str> {
        // magic(4) ver(2) op(1) rsv(1) token(8) fb(4) len(8) crc(4)
        // max_result(8) tlen(2) tenant(..) crc(4)
        const FIXED: usize = 4 + 2 + 1 + 1 + 8 + 4 + 8 + 4 + 8 + 2;
        if bytes.len() < FIXED + 4 {
            return Err("journal record truncated");
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_be_bytes(tail.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err("journal CRC mismatch");
        }
        if body[0..4] != JOURNAL_MAGIC {
            return Err("bad journal magic");
        }
        if u16::from_be_bytes([body[4], body[5]]) != JOURNAL_VERSION {
            return Err("unknown journal version");
        }
        let op = SessionOp::from_u8(body[6]).ok_or("unknown journal op")?;
        let u64be = |at: usize| u64::from_be_bytes(body[at..at + 8].try_into().expect("8 bytes"));
        let u32be = |at: usize| u32::from_be_bytes(body[at..at + 4].try_into().expect("4 bytes"));
        let token = u64be(8);
        let frame_bytes = u32be(16);
        let content_len = u64be(20);
        let content_crc = u32be(28);
        let max_result = u64be(32);
        let tlen = u16::from_be_bytes([body[40], body[41]]) as usize;
        if body.len() != FIXED + tlen {
            return Err("journal length mismatch");
        }
        let tenant = std::str::from_utf8(&body[42..42 + tlen])
            .map_err(|_| "journal tenant is not UTF-8")?
            .to_string();
        if tenant.is_empty() {
            return Err("journal tenant is empty");
        }
        Ok(Journal { token, op, tenant, frame_bytes, content_len, content_crc, max_result })
    }
}

/// The worst-case admission charge a recovered session re-acquires —
/// the same formula the live request path charges, so recovered work is
/// accounted exactly like fresh work.
pub fn recovery_cost(journal: &Journal) -> u64 {
    match journal.op {
        SessionOp::Compress => journal.content_len.saturating_mul(2).saturating_add(16_384),
        SessionOp::Decompress => journal.content_len.saturating_add(journal.max_result),
    }
}

/// A crashed session the startup scan salvaged: journal verified, quota
/// re-admitted, waiting for [`crate::proto::Request::Resume`] to claim it
/// (or the orphan TTL to sweep it).
#[derive(Debug)]
pub struct RecoveredSession {
    /// The verified journal record.
    pub journal: Journal,
    /// The session directory on disk.
    pub dir: PathBuf,
    /// Held, never read: the re-admitted quota charge releases when the
    /// session is claimed-and-finished, swept, or the store drops.
    _charge: Option<Charge>,
    since: Instant,
}

/// What the startup scan found in the state directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions with a verified journal, parked for resume.
    pub recovered: usize,
    /// Sessions garbage-collected because their journal failed
    /// verification (torn, corrupt, or duplicated).
    pub unresumable: usize,
    /// Verified sessions garbage-collected because their tenant's quota
    /// refused re-admission.
    pub refused: usize,
}

/// The per-server store of durable sessions under one state directory.
#[derive(Debug)]
pub struct SessionStore {
    sessions_dir: PathBuf,
    next: AtomicU64,
    recovered: Mutex<HashMap<u64, RecoveredSession>>,
}

impl SessionStore {
    /// Open (creating if needed) the store rooted at `state_dir`.
    ///
    /// # Errors
    /// Filesystem errors creating the layout.
    pub fn open(state_dir: &Path) -> io::Result<SessionStore> {
        let sessions_dir = state_dir.join("sessions");
        fs::create_dir_all(&sessions_dir)?;
        // Tokens only need to be unique per store, including across the
        // restarts the whole feature exists for — seed from the clock and
        // pid, not a counter a restarted process would repeat.
        let seed =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(1)
                ^ (u64::from(std::process::id()) << 48);
        Ok(SessionStore {
            sessions_dir,
            next: AtomicU64::new(seed | 1),
            recovered: Mutex::new(HashMap::new()),
        })
    }

    fn dir_for(&self, token: u64) -> PathBuf {
        self.sessions_dir.join(format!("s{token:016x}"))
    }

    /// Make a new session's token and its empty directory. Nothing is
    /// durable yet and the token must not be announced:
    /// [`SessionStore::journal`] does both halves of that.
    ///
    /// # Errors
    /// Filesystem errors creating the directory.
    pub fn create(&self) -> io::Result<(u64, PathBuf)> {
        loop {
            let token = self.next.fetch_add(1, Ordering::Relaxed);
            let dir = self.dir_for(token);
            match fs::create_dir(&dir) {
                Ok(()) => return Ok((token, dir)),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Journal the session [`SessionStore::create`] made: write and sync
    /// `input.bin`, then the CRC-protected journal record, then make both
    /// directory entries durable. Only after this returns may the session
    /// token be announced.
    ///
    /// # Errors
    /// Filesystem errors, or the injected error of an armed
    /// `server.journal.append` failpoint. On error the directory stays for
    /// the caller to remove ([`SessionStore::finish`]): a job running
    /// beside the journal may still be staging into it.
    #[allow(clippy::too_many_arguments)]
    pub fn journal(
        &self,
        token: u64,
        dir: &Path,
        op: SessionOp,
        tenant: &str,
        frame_bytes: u32,
        max_result: u64,
        data: &[u8],
        faults: &dyn Failpoints,
    ) -> io::Result<()> {
        let mut input = File::create(dir.join(INPUT_FILE))?;
        input.write_all(data)?;
        input.sync_all()?;
        let journal = Journal {
            token,
            op,
            tenant: tenant.to_string(),
            frame_bytes,
            content_len: data.len() as u64,
            content_crc: crc32(data),
            max_result,
        };
        let mut jf = File::create(dir.join(JOURNAL_FILE))?;
        jf.write_all(&journal.encode())?;
        jf.sync_all()?;
        // Crash site: journal written and synced, directory entries not yet
        // durable. A power cut here may lose the whole session — the client
        // holds no token yet, so nothing is promised.
        if faults.check(SERVER_JOURNAL_APPEND) {
            return Err(io::Error::other(InjectedFault { site: SERVER_JOURNAL_APPEND }));
        }
        fsync_dir(dir)?;
        fsync_dir(&self.sessions_dir)
    }

    /// Journal a new durable session: [`SessionStore::create`], then
    /// [`SessionStore::journal`]. Only after this returns may the session
    /// token be announced.
    ///
    /// # Errors
    /// As [`SessionStore::journal`]; on error the half-built session
    /// directory is removed.
    pub fn begin(
        &self,
        op: SessionOp,
        tenant: &str,
        frame_bytes: u32,
        max_result: u64,
        data: &[u8],
        faults: &dyn Failpoints,
    ) -> io::Result<(u64, PathBuf)> {
        let (token, dir) = self.create()?;
        match self.journal(token, &dir, op, tenant, frame_bytes, max_result, data, faults) {
            Ok(()) => Ok((token, dir)),
            Err(e) => {
                let _ = fs::remove_dir_all(&dir);
                Err(e)
            }
        }
    }

    /// Remove a finished (fully delivered) or aborted session's directory.
    pub fn finish(&self, token: u64) {
        let dir = self.dir_for(token);
        if fs::remove_dir_all(&dir).is_ok() {
            let _ = fsync_dir(&self.sessions_dir);
        }
    }

    /// Scan the state directory after a restart: verify every journal,
    /// re-admit survivors against their tenant's quota, and
    /// garbage-collect everything else. No leaked admitted bytes: every
    /// parked session holds a [`Charge`] that drops when it is claimed,
    /// swept, or the process exits.
    pub fn recover(&self, admission: &Arc<Admission>) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let Ok(entries) = fs::read_dir(&self.sessions_dir) else {
            return report;
        };
        let mut removed_any = false;
        for entry in entries.flatten() {
            let dir = entry.path();
            if !dir.is_dir() {
                continue;
            }
            let journal = fs::read(dir.join(JOURNAL_FILE))
                .map_err(|_| "journal unreadable")
                .and_then(|bytes| Journal::decode(&bytes));
            let journal = match journal {
                Ok(j) if self.dir_for(j.token) == dir => j,
                // Corrupt, torn, or moved: the session never becomes
                // claimable, so its bytes can never be served wrong.
                _ => {
                    let _ = fs::remove_dir_all(&dir);
                    removed_any = true;
                    report.unresumable += 1;
                    continue;
                }
            };
            let mut parked = self.recovered.lock().expect("session store lock");
            if parked.contains_key(&journal.token) {
                let _ = fs::remove_dir_all(&dir);
                removed_any = true;
                report.unresumable += 1;
                continue;
            }
            match admission.admit_request(&journal.tenant, recovery_cost(&journal)) {
                Ok(charge) => {
                    parked.insert(
                        journal.token,
                        RecoveredSession {
                            journal,
                            dir,
                            _charge: Some(charge),
                            since: Instant::now(),
                        },
                    );
                    report.recovered += 1;
                }
                Err(_) => {
                    drop(parked);
                    let _ = fs::remove_dir_all(&dir);
                    removed_any = true;
                    report.refused += 1;
                }
            }
        }
        if removed_any {
            let _ = fsync_dir(&self.sessions_dir);
        }
        report
    }

    /// Claim a parked session for `tenant`, removing it from the parked
    /// set. The returned session carries its re-admitted [`Charge`]; the
    /// resume job holds it until the work finishes.
    ///
    /// # Errors
    /// [`RejectCode::Unresumable`] for unknown/expired tokens or a tenant
    /// mismatch (the session stays parked for its real owner).
    pub fn claim(&self, token: u64, tenant: &str) -> Result<RecoveredSession, JobFail> {
        let mut parked = self.recovered.lock().expect("session store lock");
        match parked.get(&token) {
            None => Err(JobFail::new(RejectCode::Unresumable, "unknown or expired session token")),
            Some(rec) if rec.journal.tenant != tenant => Err(JobFail::new(
                RejectCode::Unresumable,
                "session token belongs to a different tenant",
            )),
            Some(_) => Ok(parked.remove(&token).expect("checked present")),
        }
    }

    /// Garbage-collect parked sessions older than `ttl`: remove their
    /// directories and release their quota charges. Returns how many were
    /// swept.
    pub fn sweep_orphans(&self, ttl: Duration) -> usize {
        let expired: Vec<RecoveredSession> = {
            let mut parked = self.recovered.lock().expect("session store lock");
            let tokens: Vec<u64> = parked
                .iter()
                .filter(|(_, rec)| rec.since.elapsed() >= ttl)
                .map(|(&t, _)| t)
                .collect();
            tokens.into_iter().filter_map(|t| parked.remove(&t)).collect()
        };
        let swept = expired.len();
        for rec in expired {
            let _ = fs::remove_dir_all(&rec.dir);
            // rec.charge drops here, returning the tenant's bytes.
        }
        if swept > 0 {
            let _ = fsync_dir(&self.sessions_dir);
        }
        swept
    }

    /// Parked (recovered, unclaimed) session count.
    pub fn pending(&self) -> usize {
        self.recovered.lock().expect("session store lock").len()
    }

    /// Live session directories on disk (leak assertions in the drills).
    pub fn session_dirs(&self) -> usize {
        fs::read_dir(&self.sessions_dir)
            .map(|rd| rd.flatten().filter(|e| e.path().is_dir()).count())
            .unwrap_or(0)
    }
}

/// The staged container's sink plus a copy of every byte it took, so the
/// served response needs no re-read of the file.
struct Copied<W> {
    out: W,
    bytes: Vec<u8>,
}

impl<W: Write> Write for Copied<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// The session's `out.part` as a [`DurableFile`]: every frame syncs in the
/// background while the next one compresses, and the frame-durability
/// crash site runs after each sync returns.
fn staging_sink(
    file: File,
    faults: &dyn Failpoints,
) -> Copied<DurableFile<impl FnMut() -> io::Result<()> + '_>> {
    let after_sync = move || {
        // Crash site: the frame's bytes are durable; everything after the
        // last completed sync is legitimately lost and re-compressed on
        // resume.
        if faults.check(SERVER_FRAME_DURABLE) {
            return Err(io::Error::other(InjectedFault { site: SERVER_FRAME_DURABLE }));
        }
        Ok(())
    };
    Copied { out: DurableFile::with_hook(file, after_sync), bytes: Vec::new() }
}

fn io_fail(e: io::Error) -> JobFail {
    JobFail::new(RejectCode::Internal, format!("durable session io: {e}"))
}

fn unresumable(detail: impl Into<String>) -> JobFail {
    JobFail::new(RejectCode::Unresumable, detail.into())
}

fn frame_config(frame_bytes: u32) -> FrameConfig {
    FrameConfig { frame_bytes: frame_bytes as usize, ..FrameConfig::default() }
}

/// With the finished container already synced under its staging name,
/// cross the promote crash site, rename `out.part` → `out`, and fsync the
/// directory so the rename survives power loss.
fn promote(dir: &Path, faults: &dyn Failpoints) -> io::Result<()> {
    // Crash site: the complete container is durable under its staging
    // name; only the rename can be lost, and resume re-plays it.
    if faults.check(SERVER_SESSION_PROMOTE) {
        return Err(io::Error::other(InjectedFault { site: SERVER_SESSION_PROMOTE }));
    }
    fs::rename(dir.join(PART_FILE), dir.join(OUT_FILE))?;
    fsync_dir(dir)
}

/// Compress `data` into the session's staged container with per-frame
/// durable flushes, then promote it. Returns the full container bytes —
/// byte-identical to [`crate::jobs::compress_job`] for the same input and
/// frame size, because both route through the shared codec decision.
///
/// # Errors
/// Typed cancellation stops, filesystem failures as
/// [`RejectCode::Internal`], or injected faults at the durable-flush and
/// promote crash sites.
pub fn durable_compress(
    dir: &Path,
    data: &[u8],
    frame_bytes: u32,
    params: LzssParams,
    ctl: &RequestCtl,
    faults: &dyn Failpoints,
    ledger: &mut JobLedger,
) -> Result<Vec<u8>, JobFail> {
    let file = File::create(dir.join(PART_FILE)).map_err(io_fail)?;
    let mut w = FrameWriter::new(staging_sink(file, faults), frame_config(frame_bytes), params)
        .map_err(|e| JobFail::new(RejectCode::Internal, e.to_string()))?;
    for chunk in data.chunks(frame_bytes as usize) {
        ctl.checkpoint()?;
        w.write_all(chunk).map_err(io_fail)?;
    }
    ctl.checkpoint()?;
    let (sink, summary) = w.finish().map_err(io_fail)?;
    ledger.frames += u64::from(summary.frames);
    sink.out.finish().map_err(io_fail)?;
    promote(dir, faults).map_err(io_fail)?;
    Ok(sink.bytes)
}

fn read_verified_input(rec: &RecoveredSession) -> Result<Vec<u8>, JobFail> {
    let input = fs::read(rec.dir.join(INPUT_FILE))
        .map_err(|_| unresumable("journaled session input is missing"))?;
    if input.len() as u64 != rec.journal.content_len || crc32(&input) != rec.journal.content_crc {
        return Err(unresumable("journaled session input failed CRC verification"));
    }
    Ok(input)
}

/// Re-produce a claimed session's full result after a crash, continuing
/// from whatever durable prefix survived. The output is byte-identical to
/// the uninterrupted run; anything that cannot be proven consistent with
/// the journal is a typed [`RejectCode::Unresumable`], never wrong bytes.
///
/// # Errors
/// [`RejectCode::Unresumable`] on any verification failure, plus the same
/// errors the fresh job bodies can raise.
pub fn recover_session(
    rec: &RecoveredSession,
    params: LzssParams,
    ctl: &RequestCtl,
    faults: &dyn Failpoints,
    ledger: &mut JobLedger,
) -> Result<Vec<u8>, JobFail> {
    let input = read_verified_input(rec)?;
    match rec.journal.op {
        SessionOp::Decompress => decompress_job(&input, rec.journal.max_result, ctl, ledger),
        SessionOp::Compress => recover_compress(rec, &input, params, ctl, faults, ledger),
    }
}

fn recover_compress(
    rec: &RecoveredSession,
    input: &[u8],
    params: LzssParams,
    ctl: &RequestCtl,
    faults: &dyn Failpoints,
    ledger: &mut JobLedger,
) -> Result<Vec<u8>, JobFail> {
    let journal = &rec.journal;
    // Fastest path: the container was already promoted; re-verify it
    // end-to-end before trusting it.
    if let Ok(bytes) = fs::read(rec.dir.join(OUT_FILE)) {
        let scan = scan_partial(&bytes);
        if scan.complete
            && scan.valid_bytes == bytes.len() as u64
            && scan.uncompressed_bytes == journal.content_len
            && scan.prefix_crc() == journal.content_crc
        {
            ledger.frames += u64::from(scan.frames);
            return Ok(bytes);
        }
        return Err(unresumable("promoted container failed verification"));
    }
    let part_path = rec.dir.join(PART_FILE);
    let mut prefix = match fs::read(&part_path) {
        Ok(bytes) => bytes,
        // Crashed before the staging file existed: start over.
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return durable_compress(
                &rec.dir,
                input,
                journal.frame_bytes,
                params,
                ctl,
                faults,
                ledger,
            );
        }
        Err(e) => return Err(io_fail(e)),
    };
    let scan = scan_partial(&prefix);
    if scan.complete {
        // Finished but never promoted: the crash ate only the rename.
        if scan.uncompressed_bytes != journal.content_len
            || scan.prefix_crc() != journal.content_crc
        {
            return Err(unresumable("staged container disagrees with the journal"));
        }
        let file = OpenOptions::new().write(true).open(&part_path).map_err(io_fail)?;
        file.set_len(scan.valid_bytes).map_err(io_fail)?;
        file.sync_all().map_err(io_fail)?;
        promote(&rec.dir, faults).map_err(io_fail)?;
        prefix.truncate(scan.valid_bytes as usize);
        ledger.frames += u64::from(scan.frames);
        return Ok(prefix);
    }
    // A true partial: the durable prefix must be a prefix of the journaled
    // input, frame for frame.
    if scan.uncompressed_bytes > input.len() as u64
        || scan.prefix_crc() != crc32(&input[..scan.uncompressed_bytes as usize])
    {
        return Err(unresumable("staged prefix disagrees with the journaled input"));
    }
    let mut file = OpenOptions::new().read(true).write(true).open(&part_path).map_err(io_fail)?;
    file.set_len(scan.valid_bytes).map_err(io_fail)?;
    file.seek(SeekFrom::End(0)).map_err(io_fail)?;
    let sink = staging_sink(file, faults);
    let mut w = FrameWriter::resume(sink, frame_config(journal.frame_bytes), params, &scan)
        .map_err(|e| unresumable(e.to_string()))?;
    for chunk in input[scan.uncompressed_bytes as usize..].chunks(journal.frame_bytes as usize) {
        ctl.checkpoint()?;
        w.write_all(chunk).map_err(io_fail)?;
    }
    ctl.checkpoint()?;
    let (sink, summary) = w.finish().map_err(io_fail)?;
    // `summary.frames` counts the whole stream: the resumed writer's seq
    // starts at the prefix's frame count.
    ledger.frames += u64::from(summary.frames);
    sink.out.finish().map_err(io_fail)?;
    promote(&rec.dir, faults).map_err(io_fail)?;
    prefix.truncate(scan.valid_bytes as usize);
    prefix.extend_from_slice(&sink.bytes);
    Ok(prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::QuotaConfig;
    use lzfpga_faults::{FailPlan, FailRule, NoFaults};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "lzfpga-store-{tag}-{}-{:x}",
                std::process::id(),
                SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_nanos()
            ));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 241) as u8 ^ (i / 11) as u8).collect()
    }

    fn test_ctl(adm: &Arc<Admission>) -> RequestCtl {
        RequestCtl::new(adm.admit_request("t", 1).unwrap(), 0)
    }

    #[test]
    fn journal_roundtrips_and_rejects_corruption() {
        let j = Journal {
            token: 0xDEAD_BEEF_0042,
            op: SessionOp::Compress,
            tenant: "acme".into(),
            frame_bytes: 65536,
            content_len: 1_000_000,
            content_crc: 0x1234_5678,
            max_result: 0,
        };
        let enc = j.encode();
        assert_eq!(Journal::decode(&enc).unwrap(), j);
        // Every single-byte corruption and truncation is a typed error.
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x40;
            assert!(Journal::decode(&bad).is_err(), "corruption at byte {i} accepted");
            assert!(Journal::decode(&enc[..i]).is_err(), "truncation at {i} accepted");
        }
        // Trailing garbage is refused too.
        let mut long = enc.clone();
        long.push(0);
        assert!(Journal::decode(&long).is_err());
    }

    #[test]
    fn begin_finish_leaves_no_directories() {
        let tmp = TempDir::new("begin");
        let store = SessionStore::open(&tmp.0).unwrap();
        let data = sample(10_000);
        let (token, dir) =
            store.begin(SessionOp::Compress, "acme", 65536, 0, &data, &NoFaults).unwrap();
        assert!(dir.join(JOURNAL_FILE).is_file());
        assert_eq!(fs::read(dir.join(INPUT_FILE)).unwrap(), data);
        assert_eq!(store.session_dirs(), 1);
        store.finish(token);
        assert_eq!(store.session_dirs(), 0);
    }

    #[test]
    fn durable_compress_matches_the_fresh_job() {
        let tmp = TempDir::new("durable");
        let store = SessionStore::open(&tmp.0).unwrap();
        let data = sample(300_000);
        let adm = Admission::new(QuotaConfig::default());
        let ctl = test_ctl(&adm);
        let hw = lzfpga_core::HwConfig::paper_fast();
        let (_, dir) =
            store.begin(SessionOp::Compress, "acme", 65536, 0, &data, &NoFaults).unwrap();
        let mut ledger = JobLedger::default();
        let durable =
            durable_compress(&dir, &data, 65536, hw.as_lzss_params(), &ctl, &NoFaults, &mut ledger)
                .unwrap();
        let fresh = crate::jobs::compress_job(
            &data,
            65536,
            &hw,
            &ctl,
            &NoFaults,
            &mut JobLedger::default(),
        )
        .unwrap();
        assert_eq!(durable, fresh, "durable staging must not change the served bytes");
        assert_eq!(fs::read(dir.join(OUT_FILE)).unwrap(), fresh);
        assert!(!dir.join(PART_FILE).exists(), "promote consumed the staging file");
    }

    #[test]
    fn recovery_resumes_a_torn_stage_byte_identical() {
        let data = sample(400_000);
        let adm = Admission::new(QuotaConfig::default());
        let ctl = test_ctl(&adm);
        let hw = lzfpga_core::HwConfig::paper_fast();
        let fresh = crate::jobs::compress_job(
            &data,
            65536,
            &hw,
            &ctl,
            &NoFaults,
            &mut JobLedger::default(),
        )
        .unwrap();
        // 400 000 bytes at 64 KiB: six full frames and a tail, so hits 1-7
        // follow the frame syncs and hit 8 the trailer's.
        for hit in [1, 3, 7, 8] {
            let tmp = TempDir::new("resume");
            let store = SessionStore::open(&tmp.0).unwrap();
            let (token, dir) =
                store.begin(SessionOp::Compress, "acme", 65536, 0, &data, &NoFaults).unwrap();
            // An injected error after the background sync of hit `hit`
            // plays a crash: it comes back from the next write (or the
            // final sync), and nothing is written or promoted after it.
            let plan = FailPlan::new(1).rule(FailRule::new(SERVER_FRAME_DURABLE).on_hit(hit));
            let err = durable_compress(
                &dir,
                &data,
                65536,
                hw.as_lzss_params(),
                &ctl,
                &plan,
                &mut JobLedger::default(),
            )
            .unwrap_err();
            assert_eq!(err.code, RejectCode::Internal, "hit {hit}");
            assert_eq!(plan.fired_count(), 1, "hit {hit}");
            assert!(!dir.join(OUT_FILE).exists(), "hit {hit}: promoted after a failed sync");
            let staged = scan_partial(&fs::read(dir.join(PART_FILE)).unwrap());
            if hit < 8 {
                assert_eq!(staged.frames, hit as u32, "hit {hit}: frames after the failed sync");
                assert!(!staged.complete, "hit {hit}");
            } else {
                assert!(staged.complete, "the trailer's sync is the last one");
            }
            // Simulate the restart: recover, claim, and replay.
            let report = store.recover(&adm);
            assert_eq!(report, RecoveryReport { recovered: 1, unresumable: 0, refused: 0 });
            let rec = store.claim(token, "acme").unwrap();
            let mut ledger = JobLedger::default();
            let resumed =
                recover_session(&rec, hw.as_lzss_params(), &ctl, &NoFaults, &mut ledger).unwrap();
            assert_eq!(resumed, fresh, "hit {hit}: resume after a torn stage must be identical");
            assert_eq!(fs::read(dir.join(OUT_FILE)).unwrap(), fresh, "hit {hit}");
            store.finish(token);
            assert_eq!(store.session_dirs(), 0);
        }
    }

    #[test]
    fn corrupt_journal_is_swept_not_served() {
        let tmp = TempDir::new("corrupt");
        let store = SessionStore::open(&tmp.0).unwrap();
        let data = sample(50_000);
        let (token, dir) =
            store.begin(SessionOp::Compress, "acme", 65536, 0, &data, &NoFaults).unwrap();
        // Flip one journal byte, as the drill's hostile round does.
        let mut j = fs::read(dir.join(JOURNAL_FILE)).unwrap();
        j[10] ^= 0xFF;
        fs::write(dir.join(JOURNAL_FILE), &j).unwrap();
        let adm = Admission::new(QuotaConfig::default());
        let report = store.recover(&adm);
        assert_eq!(report, RecoveryReport { recovered: 0, unresumable: 1, refused: 0 });
        assert_eq!(store.session_dirs(), 0, "corrupt session is garbage-collected");
        assert_eq!(adm.active_bytes(), 0, "no quota held for swept sessions");
        assert_eq!(store.claim(token, "acme").unwrap_err().code, RejectCode::Unresumable);
    }

    #[test]
    fn orphan_sweep_releases_quota_and_disk() {
        let tmp = TempDir::new("orphan");
        let store = SessionStore::open(&tmp.0).unwrap();
        let data = sample(20_000);
        store.begin(SessionOp::Decompress, "acme", 0, 1 << 20, &data, &NoFaults).unwrap();
        let adm = Admission::new(QuotaConfig::default());
        let report = store.recover(&adm);
        assert_eq!(report.recovered, 1);
        assert!(adm.active_bytes() > 0, "recovered session holds its charge");
        assert_eq!(store.sweep_orphans(Duration::from_secs(3600)), 0, "fresh session survives");
        assert_eq!(store.sweep_orphans(Duration::ZERO), 1);
        assert_eq!(store.pending(), 0);
        assert_eq!(store.session_dirs(), 0);
        assert_eq!(adm.active_bytes(), 0, "sweep returned the tenant's bytes");
        assert_eq!(adm.active_streams(), 0);
    }

    #[test]
    fn claim_enforces_tenant_ownership() {
        let tmp = TempDir::new("tenant");
        let store = SessionStore::open(&tmp.0).unwrap();
        let data = sample(5_000);
        let (token, _) =
            store.begin(SessionOp::Compress, "acme", 65536, 0, &data, &NoFaults).unwrap();
        let adm = Admission::new(QuotaConfig::default());
        store.recover(&adm);
        let err = store.claim(token, "mallory").unwrap_err();
        assert_eq!(err.code, RejectCode::Unresumable);
        assert_eq!(store.pending(), 1, "session stays parked for its owner");
        assert!(store.claim(token, "acme").is_ok());
    }
}
