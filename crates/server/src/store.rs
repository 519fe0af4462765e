//! The crash-durable session store: journaled sessions that survive
//! `kill -9` and resume byte-identical.
//!
//! When the server runs with a state directory, every compress/decompress
//! request becomes a **session** on disk, one file, before any work is
//! acknowledged:
//!
//! ```text
//! <state-dir>/sessions/s<token:016x>:
//!     record_len u32 | CRC-protected journal record | request payload
//! ```
//!
//! Nothing else is written: both ops are deterministic for a given input
//! and journaled parameters, so a resume recomputes the result from the
//! verified input instead of reading back a staged one (DESIGN §14). One
//! `sync_all` covers record and input, then the directory entry is made
//! durable, and only then is the session announced
//! ([`crate::proto::Response::Session`]). The registered crash sites
//! ([`lzfpga_faults::registry`]) sit at those edges so the `crashstorm`
//! drill can kill the process at each one.
//!
//! On startup [`SessionStore::recover`] walks the state directory: a
//! session file of the wrong length or whose record fails verification
//! is garbage-collected; a valid one is re-admitted against its tenant's
//! quota (so recovered work is never free) and parked until
//! [`Request::Resume`] claims it or the orphan TTL sweeps it. Recovery
//! re-verifies the journaled input CRC and the engine parameters before
//! serving a single byte — a damaged or mismatched session is a typed
//! [`RejectCode::Unresumable`], never wrong bytes.
//!
//! [`Request::Resume`]: crate::proto::Request::Resume

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use lzfpga_container::MAX_FRAME_BYTES;
use lzfpga_deflate::crc32::crc32;
use lzfpga_faults::registry::SERVER_JOURNAL_APPEND;
use lzfpga_faults::{Failpoints, InjectedFault};
use lzfpga_lzss::{CompressionLevel, HashFn, LzssParams};

use crate::jobs::{compress_stream, decompress_job, JobFail, JobLedger, RequestCtl};
use crate::proto::RejectCode;
use crate::quota::{Admission, Charge};

const JOURNAL_MAGIC: [u8; 4] = *b"LZSJ";
/// Version 2 added the engine parameters, version 3 the one-file layout.
/// Older sessions (v1 staged its compress output, v2 kept a directory per
/// session) are refused as unresumable.
const JOURNAL_VERSION: u16 = 3;

/// Open a directory and fsync it, making a just-created/renamed/removed
/// entry durable.
///
/// # Errors
/// The underlying open/sync failure.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// What kind of work a durable session journals. Both are recomputed from
/// the journaled input on resume — each is deterministic for its journaled
/// parameters, so nothing but the input is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOp {
    /// An LZFC compress request.
    Compress,
    /// A strict decompress request.
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

/// Encoded size of the engine parameters in a journal record.
const PARAMS_LEN: usize = 4 + 4 + 1 + 4 + 4 + 1 + 1 + 4;

/// `window u32 | hash_bits u32 | hash kind u8 | hash width u32 | hash
/// shift u32 | level u8 | chain set u8 | chain u32`, big-endian.
fn encode_params(p: &LzssParams, out: &mut Vec<u8>) {
    let (kind, width, shift) = match p.hash_fn {
        HashFn::ZlibRolling { bits, shift } => (1u8, bits, shift),
        HashFn::Multiplicative { bits } => (2, bits, 0),
    };
    let level = match p.level {
        CompressionLevel::Min => 1u8,
        CompressionLevel::Medium => 2,
        CompressionLevel::Max => 3,
    };
    out.extend_from_slice(&p.window_size.to_be_bytes());
    out.extend_from_slice(&p.hash_bits.to_be_bytes());
    out.push(kind);
    out.extend_from_slice(&width.to_be_bytes());
    out.extend_from_slice(&shift.to_be_bytes());
    out.push(level);
    out.push(u8::from(p.chain_limit.is_some()));
    out.extend_from_slice(&p.chain_limit.unwrap_or(0).to_be_bytes());
}

fn decode_params(b: &[u8]) -> Result<LzssParams, &'static str> {
    let u32be = |at: usize| u32::from_be_bytes(b[at..at + 4].try_into().expect("4 bytes"));
    let hash_fn = match b[8] {
        1 => HashFn::ZlibRolling { bits: u32be(9), shift: u32be(13) },
        2 => HashFn::Multiplicative { bits: u32be(9) },
        _ => return Err("unknown journal hash function"),
    };
    let level = match b[17] {
        1 => CompressionLevel::Min,
        2 => CompressionLevel::Medium,
        3 => CompressionLevel::Max,
        _ => return Err("unknown journal compression level"),
    };
    let chain_limit = match b[18] {
        0 => None,
        1 => Some(u32be(19)),
        _ => return Err("bad journal chain-limit flag"),
    };
    Ok(LzssParams { window_size: u32be(0), hash_bits: u32be(4), hash_fn, level, chain_limit })
}

/// The journal record written once per session, before the session token
/// is announced to the client. CRC-protected; a record that fails any
/// check is treated as if the session never existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal {
    /// The durable session token (also encodes the file name).
    pub token: u64,
    /// What the session does.
    pub op: SessionOp,
    /// The tenant the session bills against (re-admitted on recovery).
    pub tenant: String,
    /// Frame size the compress op was admitted with.
    pub frame_bytes: u32,
    /// Exact byte length of the journaled input.
    pub content_len: u64,
    /// CRC-32 of the input, re-verified before resume serves anything.
    pub content_crc: u32,
    /// The decompress op's declared result budget.
    pub max_result: u64,
    /// The engine parameters a compress result depends on; a resume under
    /// any others is refused.
    pub params: LzssParams,
}

impl Journal {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(48 + PARAMS_LEN + self.tenant.len());
        p.extend_from_slice(&JOURNAL_MAGIC);
        p.extend_from_slice(&JOURNAL_VERSION.to_be_bytes());
        p.push(self.op.as_u8());
        p.push(0); // reserved
        p.extend_from_slice(&self.token.to_be_bytes());
        p.extend_from_slice(&self.frame_bytes.to_be_bytes());
        p.extend_from_slice(&self.content_len.to_be_bytes());
        p.extend_from_slice(&self.content_crc.to_be_bytes());
        p.extend_from_slice(&self.max_result.to_be_bytes());
        encode_params(&self.params, &mut p);
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
        // max_result(8) params(PARAMS_LEN) tlen(2) tenant(..) crc(4)
        const PARAMS_AT: usize = 40;
        const TLEN_AT: usize = PARAMS_AT + PARAMS_LEN;
        const FIXED: usize = TLEN_AT + 2;
        if bytes.len() < 4 + 2 + 4 {
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
        if body.len() < FIXED {
            return Err("journal record truncated");
        }
        let op = SessionOp::from_u8(body[6]).ok_or("unknown journal op")?;
        let u64be = |at: usize| u64::from_be_bytes(body[at..at + 8].try_into().expect("8 bytes"));
        let u32be = |at: usize| u32::from_be_bytes(body[at..at + 4].try_into().expect("4 bytes"));
        let token = u64be(8);
        let frame_bytes = u32be(16);
        let content_len = u64be(20);
        let content_crc = u32be(28);
        let max_result = u64be(32);
        let params = decode_params(&body[PARAMS_AT..TLEN_AT])?;
        let tlen = u16::from_be_bytes([body[TLEN_AT], body[TLEN_AT + 1]]) as usize;
        if body.len() != FIXED + tlen {
            return Err("journal length mismatch");
        }
        let tenant = std::str::from_utf8(&body[FIXED..FIXED + tlen])
            .map_err(|_| "journal tenant is not UTF-8")?
            .to_string();
        if tenant.is_empty() {
            return Err("journal tenant is empty");
        }
        Ok(Journal { token, op, tenant, frame_bytes, content_len, content_crc, max_result, params })
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
    /// The session file on disk.
    pub path: PathBuf,
    /// Where the input starts in the file, after the prefix and record.
    input_at: usize,
    /// Held, never read: the re-admitted quota charge releases when the
    /// session is claimed-and-finished, swept, or the store drops.
    _charge: Charge,
    since: Instant,
}

/// What the startup scan found in the state directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions with a verified journal, parked for resume.
    pub recovered: usize,
    /// Sessions garbage-collected because their journal failed
    /// verification (torn, corrupt, duplicated, of the wrong length, or in
    /// an older layout).
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
    params: LzssParams,
}

impl SessionStore {
    /// Open (creating if needed) the store rooted at `state_dir`. Its
    /// journals record the paper's parameters
    /// ([`LzssParams::paper_fast`], the server default) until
    /// [`SessionStore::with_params`] says otherwise.
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
            params: LzssParams::paper_fast(),
        })
    }

    /// Journal `params` as the engine parameters of every new session: the
    /// ones the server computes its compress results with.
    #[must_use]
    pub fn with_params(mut self, params: LzssParams) -> SessionStore {
        self.params = params;
        self
    }

    fn path_for(&self, token: u64) -> PathBuf {
        self.sessions_dir.join(format!("s{token:016x}"))
    }

    /// Make a new session's token and its empty file. Nothing is durable
    /// yet and the token must not be announced: [`SessionStore::journal`]
    /// does both halves of that.
    ///
    /// # Errors
    /// Filesystem errors creating the file.
    pub fn create(&self) -> io::Result<(u64, PathBuf, File)> {
        loop {
            let token = self.next.fetch_add(1, Ordering::Relaxed);
            let path = self.path_for(token);
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(file) => return Ok((token, path, file)),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Journal the session [`SessionStore::create`] made: write the
    /// length-prefixed, CRC-protected record and the input into `file`,
    /// sync it once, then make its directory entry durable. Only after
    /// this returns may the session token be announced.
    ///
    /// # Errors
    /// Filesystem errors, or the injected error of an armed
    /// `server.journal.append` failpoint. On error the file stays for the
    /// caller to remove ([`SessionStore::finish`]).
    #[allow(clippy::too_many_arguments)]
    pub fn journal(
        &self,
        token: u64,
        mut file: &File,
        op: SessionOp,
        tenant: &str,
        frame_bytes: u32,
        max_result: u64,
        data: &[u8],
        faults: &dyn Failpoints,
    ) -> io::Result<()> {
        let record = Journal {
            token,
            op,
            tenant: tenant.to_string(),
            frame_bytes,
            content_len: data.len() as u64,
            content_crc: crc32(data),
            max_result,
            params: self.params,
        }
        .encode();
        file.write_all(&[&(record.len() as u32).to_be_bytes()[..], &record].concat())?;
        file.write_all(data)?;
        file.sync_all()?;
        // Crash site: record and input written and synced, the directory
        // entry not yet durable. A power cut here may lose the whole
        // session — the client holds no token yet, so nothing is promised.
        if faults.check(SERVER_JOURNAL_APPEND) {
            return Err(io::Error::other(InjectedFault { site: SERVER_JOURNAL_APPEND }));
        }
        fsync_dir(&self.sessions_dir)
    }

    /// Journal a new durable session: [`SessionStore::create`], then
    /// [`SessionStore::journal`]. Only after this returns may the session
    /// token be announced.
    ///
    /// # Errors
    /// As [`SessionStore::journal`]; on error the half-built session file
    /// is removed.
    pub fn begin(
        &self,
        op: SessionOp,
        tenant: &str,
        frame_bytes: u32,
        max_result: u64,
        data: &[u8],
        faults: &dyn Failpoints,
    ) -> io::Result<(u64, PathBuf)> {
        let (token, path, file) = self.create()?;
        match self.journal(token, &file, op, tenant, frame_bytes, max_result, data, faults) {
            Ok(()) => Ok((token, path)),
            Err(e) => {
                self.finish(token);
                Err(e)
            }
        }
    }

    /// Remove a finished (fully delivered) or aborted session's file.
    pub fn finish(&self, token: u64) {
        if fs::remove_file(self.path_for(token)).is_ok() {
            let _ = fsync_dir(&self.sessions_dir);
        }
    }

    /// Scan the state directory after a restart: verify every session
    /// file, re-admit survivors against their tenant's quota, and
    /// garbage-collect everything else. No leaked admitted bytes: every
    /// parked session holds a [`Charge`] that drops when it is claimed,
    /// swept, or the process exits.
    pub fn recover(&self, admission: &Arc<Admission>) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let Ok(entries) = fs::read_dir(&self.sessions_dir) else {
            return report;
        };
        let mut parked = self.recovered.lock().expect("session store lock");
        for entry in entries.flatten() {
            let path = entry.path();
            if entry.file_type().is_ok_and(|t| t.is_dir()) {
                // A version-2 session directory: never claimable.
                let _ = fs::remove_dir_all(&path);
                report.unresumable += 1;
                continue;
            }
            match read_head(&path) {
                Ok((journal, input_at))
                    if self.path_for(journal.token) == path
                        && !parked.contains_key(&journal.token) =>
                {
                    match admission.admit_request(&journal.tenant, recovery_cost(&journal)) {
                        Ok(_charge) => {
                            let since = Instant::now();
                            let rec = RecoveredSession { journal, path, input_at, _charge, since };
                            parked.insert(rec.journal.token, rec);
                            report.recovered += 1;
                            continue;
                        }
                        Err(_) => report.refused += 1,
                    }
                }
                // Torn, corrupt, moved, or duplicated: the session never
                // becomes claimable, so its bytes can never be served wrong.
                _ => report.unresumable += 1,
            }
            let _ = fs::remove_file(&path);
        }
        if report.unresumable + report.refused > 0 {
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
    /// files and release their quota charges. Returns how many were
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
            let _ = fs::remove_file(&rec.path);
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

    /// Entries in the sessions directory: session files, and anything
    /// else a leak would leave (leak assertions in the drills).
    pub fn sessions_on_disk(&self) -> usize {
        fs::read_dir(&self.sessions_dir).map(|rd| rd.flatten().count()).unwrap_or(0)
    }
}

/// Read and verify a session file's head: the `record_len u32` prefix,
/// the record, and a file length of exactly prefix, record and input.
/// Returns the record and the offset its input starts at.
fn read_head(path: &Path) -> Result<(Journal, usize), &'static str> {
    let mut file = File::open(path).map_err(|_| "session file unreadable")?;
    let file_len = file.metadata().map_err(|_| "session file unreadable")?.len();
    let mut prefix = [0u8; 4];
    file.read_exact(&mut prefix).map_err(|_| "session file truncated")?;
    // `take` bounds the read by the file, whatever a corrupt prefix says.
    let mut record = Vec::new();
    let record_len = u64::from(u32::from_be_bytes(prefix));
    file.take(record_len).read_to_end(&mut record).map_err(|_| "session file unreadable")?;
    let journal = Journal::decode(&record)?;
    if (4 + record_len).checked_add(journal.content_len) != Some(file_len) {
        return Err("session file length mismatch");
    }
    Ok((journal, 4 + record.len()))
}

fn unresumable(detail: impl Into<String>) -> JobFail {
    JobFail::new(RejectCode::Unresumable, detail.into())
}

/// Compute a journaled compress session's result in memory. Its bytes are
/// [`crate::jobs::compress_job`]'s (and so `FrameWriter`'s) for the same
/// input, frame size and parameters: the session file `_path` holds only
/// the journal record and the input, and a resume recomputes through this
/// same call.
///
/// # Errors
/// Typed cancellation stops, or [`RejectCode::Internal`] when a frame
/// exhausts the degradation ladder.
pub fn durable_compress(
    _path: &Path,
    data: &[u8],
    frame_bytes: u32,
    params: LzssParams,
    ctl: &RequestCtl,
    faults: &dyn Failpoints,
    ledger: &mut JobLedger,
) -> Result<Vec<u8>, JobFail> {
    compress_stream(data, frame_bytes as usize, &params, ctl, faults, ledger)
}

/// Re-produce a claimed session's full result after a crash by recomputing
/// it from the verified input. The output is byte-identical to the
/// uninterrupted run; a compress session journaled under other engine
/// parameters than `params`, or an input that fails its journaled CRC, is
/// a typed [`RejectCode::Unresumable`], never different bytes.
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
    let journal = &rec.journal;
    if journal.op == SessionOp::Compress {
        if journal.params != params {
            return Err(unresumable(format!(
                "session was journaled under engine parameters {:?}, this server runs {params:?}",
                journal.params
            )));
        }
        if !(4096..=MAX_FRAME_BYTES).contains(&(journal.frame_bytes as usize)) {
            return Err(unresumable("journaled frame size is out of range"));
        }
    }
    let mut input =
        fs::read(&rec.path).map_err(|_| unresumable("journaled session input is missing"))?;
    input.drain(..rec.input_at.min(input.len()));
    if input.len() as u64 != journal.content_len || crc32(&input) != journal.content_crc {
        return Err(unresumable("journaled session input failed CRC verification"));
    }
    match journal.op {
        SessionOp::Decompress => decompress_job(&input, journal.max_result, ctl, ledger),
        SessionOp::Compress => {
            durable_compress(&rec.path, &input, journal.frame_bytes, params, ctl, faults, ledger)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::QuotaConfig;
    use lzfpga_core::HwConfig;
    use lzfpga_faults::NoFaults;

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

    /// Journal `data` as a session, then play a restart: recover the store
    /// and claim the session back.
    fn crash_and_claim(
        store: &SessionStore,
        adm: &Arc<Admission>,
        op: SessionOp,
        frame_bytes: u32,
        data: &[u8],
    ) -> RecoveredSession {
        let (token, _) = store.begin(op, "acme", frame_bytes, 1 << 20, data, &NoFaults).unwrap();
        assert_eq!(store.recover(adm), RecoveryReport { recovered: 1, unresumable: 0, refused: 0 });
        store.claim(token, "acme").unwrap()
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
            params: LzssParams {
                hash_fn: HashFn::multiplicative(13),
                chain_limit: Some(7),
                ..LzssParams::new(8192, 13, CompressionLevel::Max)
            },
        };
        let enc = j.encode();
        assert_eq!(Journal::decode(&enc).unwrap(), j);
        let fast = Journal { params: LzssParams::paper_fast(), ..j.clone() };
        assert_eq!(Journal::decode(&fast.encode()).unwrap(), fast);
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

    /// Journal a session, let `damage` rewrite its file, and require the
    /// restart to sweep it as unresumable without parking it.
    fn recover_damaged(tag: &str, damage: impl FnOnce(&mut Vec<u8>)) {
        let tmp = TempDir::new(tag);
        let store = SessionStore::open(&tmp.0).unwrap();
        let data = sample(30_000);
        let (token, path) =
            store.begin(SessionOp::Compress, "acme", 65536, 0, &data, &NoFaults).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        damage(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        let adm = Admission::new(QuotaConfig::default());
        let report = store.recover(&adm);
        assert_eq!(report, RecoveryReport { recovered: 0, unresumable: 1, refused: 0 }, "{tag}");
        assert_eq!(store.pending(), 0, "{tag}: a damaged session is never parked");
        assert_eq!(store.sessions_on_disk(), 0, "{tag}: the damaged file is swept");
        assert_eq!(adm.active_bytes(), 0, "{tag}: no quota held for swept sessions");
        assert_eq!(store.claim(token, "acme").unwrap_err().code, RejectCode::Unresumable);
    }

    #[test]
    fn begin_finish_leaves_no_directories() {
        let tmp = TempDir::new("begin");
        let store = SessionStore::open(&tmp.0).unwrap();
        let data = sample(10_000);
        let (token, path) =
            store.begin(SessionOp::Compress, "acme", 65536, 0, &data, &NoFaults).unwrap();
        // One file: the length prefix, the record, then the input.
        let bytes = fs::read(&path).unwrap();
        let record_len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
        let journal = Journal::decode(&bytes[4..4 + record_len]).unwrap();
        assert_eq!((journal.token, journal.content_crc), (token, crc32(&data)));
        assert_eq!(&bytes[4 + record_len..], &data[..]);
        assert_eq!(store.sessions_on_disk(), 1);
        store.finish(token);
        assert_eq!(store.sessions_on_disk(), 0, "finish leaves no entry in sessions/");
    }

    #[test]
    fn a_zero_length_session_file_is_swept() {
        // A crash between `create` and the write.
        recover_damaged("empty", Vec::clear);
    }

    #[test]
    fn a_header_only_session_file_is_swept() {
        recover_damaged("header-only", |b| {
            let record_len = u32::from_be_bytes(b[..4].try_into().unwrap()) as usize;
            b.truncate(4 + record_len);
        });
        recover_damaged("prefix-only", |b| b.truncate(4));
        recover_damaged("huge-prefix", |b| b[..4].copy_from_slice(&u32::MAX.to_be_bytes()));
    }

    #[test]
    fn a_session_file_of_the_wrong_length_is_swept() {
        recover_damaged("truncated-input", |b| {
            b.pop();
        });
        recover_damaged("overlong", |b| b.push(0));
    }

    #[test]
    fn a_version_2_session_directory_is_swept() {
        let tmp = TempDir::new("v2");
        let store = SessionStore::open(&tmp.0).unwrap();
        let data = sample(20_000);
        let (token, path) =
            store.begin(SessionOp::Compress, "acme", 65536, 0, &data, &NoFaults).unwrap();
        // The version-2 layout: a session directory holding `input.bin`
        // and `journal`.
        let bytes = fs::read(&path).unwrap();
        let record_len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
        fs::remove_file(&path).unwrap();
        fs::create_dir(&path).unwrap();
        fs::write(path.join("input.bin"), &data).unwrap();
        fs::write(path.join("journal"), &bytes[4..4 + record_len]).unwrap();
        let adm = Admission::new(QuotaConfig::default());
        let report = store.recover(&adm);
        assert_eq!(report, RecoveryReport { recovered: 0, unresumable: 1, refused: 0 });
        assert_eq!(store.sessions_on_disk(), 0, "the version-2 directory is swept");
        assert_eq!(adm.active_bytes(), 0);
        assert_eq!(store.claim(token, "acme").unwrap_err().code, RejectCode::Unresumable);
    }

    #[test]
    fn an_armed_journal_append_leaves_no_file() {
        use lzfpga_faults::{FailPlan, FailRule};
        let tmp = TempDir::new("append");
        let store = SessionStore::open(&tmp.0).unwrap();
        let plan = FailPlan::new(1).rule(FailRule::new(SERVER_JOURNAL_APPEND).errors());
        let err = store.begin(SessionOp::Compress, "acme", 65536, 0, &sample(9_000), &plan);
        assert!(err.is_err(), "the armed site fails the journal");
        assert_eq!(store.sessions_on_disk(), 0, "the half-built session file is removed");
    }

    #[test]
    fn a_recovered_compress_session_recomputes_the_fresh_job() {
        const FRAME: usize = 4096;
        let adm = Admission::new(QuotaConfig::default());
        let ctl = test_ctl(&adm);
        let hw = HwConfig::paper_fast();
        // 0, 1 and 17 whole frames, and 17 frames plus a partial tail.
        for len in [0, FRAME, 17 * FRAME, 17 * FRAME + 1234] {
            let tmp = TempDir::new("recompute");
            let store = SessionStore::open(&tmp.0).unwrap();
            let data = sample(len);
            let fresh = crate::jobs::compress_job(
                &data,
                FRAME,
                &hw,
                &ctl,
                &NoFaults,
                &mut JobLedger::default(),
            )
            .unwrap();
            let mut ledger = JobLedger::default();
            let served = durable_compress(
                &tmp.0,
                &data,
                FRAME as u32,
                hw.as_lzss_params(),
                &ctl,
                &NoFaults,
                &mut ledger,
            )
            .unwrap();
            assert_eq!(served, fresh, "{len} bytes: the served bytes are compress_job's");
            let rec = crash_and_claim(&store, &adm, SessionOp::Compress, FRAME as u32, &data);
            let mut ledger = JobLedger::default();
            let resumed =
                recover_session(&rec, hw.as_lzss_params(), &ctl, &NoFaults, &mut ledger).unwrap();
            assert_eq!(resumed, fresh, "{len} bytes: the resume recomputes the fresh bytes");
            assert_eq!(ledger.frames, len.div_ceil(FRAME) as u64, "{len} bytes");
            store.finish(rec.journal.token);
            assert_eq!(store.sessions_on_disk(), 0);
        }
    }

    #[test]
    fn a_resume_under_other_params_is_unresumable() {
        let tmp = TempDir::new("params");
        let store = SessionStore::open(&tmp.0).unwrap();
        let adm = Admission::new(QuotaConfig::default());
        let ctl = test_ctl(&adm);
        let data = sample(50_000);
        let rec = crash_and_claim(&store, &adm, SessionOp::Compress, 65536, &data);
        assert_eq!(rec.journal.params, LzssParams::paper_fast(), "the store's default");
        let other = HwConfig::new(8192, 13).as_lzss_params();
        let err =
            recover_session(&rec, other, &ctl, &NoFaults, &mut JobLedger::default()).unwrap_err();
        assert_eq!(err.code, RejectCode::Unresumable, "{}", err.detail);
        store.finish(rec.journal.token);
        // A frame size no request could carry is refused, not run.
        let rec = crash_and_claim(&store, &adm, SessionOp::Compress, 0, &data);
        let params = LzssParams::paper_fast();
        let err = recover_session(&rec, params, &ctl, &NoFaults, &mut JobLedger::default());
        assert_eq!(err.unwrap_err().code, RejectCode::Unresumable);
        store.finish(rec.journal.token);
        // A decompress result does not depend on the engine parameters.
        let hw = HwConfig::paper_fast();
        let framed = crate::jobs::compress_job(
            &data,
            65536,
            &hw,
            &ctl,
            &NoFaults,
            &mut JobLedger::default(),
        )
        .unwrap();
        let rec = crash_and_claim(&store, &adm, SessionOp::Decompress, 0, &framed);
        let plain = recover_session(&rec, other, &ctl, &NoFaults, &mut JobLedger::default());
        assert_eq!(plain.unwrap(), data);
        store.finish(rec.journal.token);
        // A store journals the parameters it is given.
        let tmp = TempDir::new("params-other");
        let store = SessionStore::open(&tmp.0).unwrap().with_params(other);
        let rec = crash_and_claim(&store, &adm, SessionOp::Compress, 65536, &data);
        assert_eq!(rec.journal.params, other);
        let resumed = recover_session(&rec, other, &ctl, &NoFaults, &mut JobLedger::default());
        let fresh = crate::jobs::compress_job(
            &data,
            65536,
            &HwConfig::new(8192, 13),
            &ctl,
            &NoFaults,
            &mut JobLedger::default(),
        );
        assert_eq!(resumed.unwrap(), fresh.unwrap());
    }

    #[test]
    fn a_version_1_journal_is_swept_unresumable() {
        let tmp = TempDir::new("v1");
        let store = SessionStore::open(&tmp.0).unwrap();
        let data = sample(20_000);
        let (token, path) =
            store.begin(SessionOp::Compress, "acme", 65536, 0, &data, &NoFaults).unwrap();
        // The version-1 record: no engine parameters, otherwise the same
        // fields, under a valid CRC.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&JOURNAL_MAGIC);
        v1.extend_from_slice(&1u16.to_be_bytes());
        v1.extend_from_slice(&[SessionOp::Compress.as_u8(), 0]);
        v1.extend_from_slice(&token.to_be_bytes());
        v1.extend_from_slice(&65536u32.to_be_bytes());
        v1.extend_from_slice(&(data.len() as u64).to_be_bytes());
        v1.extend_from_slice(&crc32(&data).to_be_bytes());
        v1.extend_from_slice(&0u64.to_be_bytes());
        v1.extend_from_slice(&4u16.to_be_bytes());
        v1.extend_from_slice(b"acme");
        let crc = crc32(&v1);
        v1.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(Journal::decode(&v1), Err("unknown journal version"));
        // Framed as the one-file layout, so only the version refuses it.
        let mut file = (v1.len() as u32).to_be_bytes().to_vec();
        file.extend_from_slice(&v1);
        file.extend_from_slice(&data);
        fs::write(&path, &file).unwrap();
        let adm = Admission::new(QuotaConfig::default());
        let report = store.recover(&adm);
        assert_eq!(report, RecoveryReport { recovered: 0, unresumable: 1, refused: 0 });
        assert_eq!(store.sessions_on_disk(), 0, "the version-1 session is garbage-collected");
        assert_eq!(adm.active_bytes(), 0);
        assert_eq!(store.claim(token, "acme").unwrap_err().code, RejectCode::Unresumable);
    }

    #[test]
    fn corrupt_journal_is_swept_not_served() {
        let tmp = TempDir::new("corrupt");
        let store = SessionStore::open(&tmp.0).unwrap();
        let data = sample(50_000);
        let (token, path) =
            store.begin(SessionOp::Compress, "acme", 65536, 0, &data, &NoFaults).unwrap();
        // Flip one record byte, as the drill's hostile round does.
        let mut j = fs::read(&path).unwrap();
        j[4 + 10] ^= 0xFF;
        fs::write(&path, &j).unwrap();
        let adm = Admission::new(QuotaConfig::default());
        let report = store.recover(&adm);
        assert_eq!(report, RecoveryReport { recovered: 0, unresumable: 1, refused: 0 });
        assert_eq!(store.sessions_on_disk(), 0, "corrupt session is garbage-collected");
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
        assert_eq!(store.sessions_on_disk(), 0);
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
