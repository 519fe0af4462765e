//! The work behind each request: cooperative cancellation, deadline
//! checkpoints, and the three job bodies (compress, decompress, range).
//!
//! Jobs never trust the pool to interrupt them — there is no such thing.
//! Instead every job walks its input frame by frame and calls
//! [`RequestCtl::checkpoint`] between frames, so a cancel, an expired
//! deadline, or a drain-deadline sweep stops the work at the next frame
//! boundary. The compress body keeps its serial frame loop but runs each
//! frame through the workspace's one degradation ladder
//! ([`lzfpga_parallel::exec::ladder`]): engine, retry, then the never
//! injectable reference compressor — so an injected panic degrades a frame
//! instead of failing the request — and lays the frames out through
//! [`StreamLayout`], so the bytes stay identical to `FrameWriter` output
//! either way.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use lzfpga_container::{
    check_structure, decode_frame, open_indexed_faulty, payload_from_sink, payload_from_tokens,
    ContainerError, StreamLayout, MAX_FRAME_BYTES,
};
use lzfpga_core::HwConfig;
use lzfpga_deflate::crc32::Crc32;
use lzfpga_deflate::FixedZlibSink;
use lzfpga_faults::{Failpoints, FailureReport, FaultAction, FaultEvent};
use lzfpga_lzss::TurboEngine;
use lzfpga_parallel::exec::{ladder, Rung};

use crate::proto::RejectCode;
use crate::quota::Charge;

/// Why a running request was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CancelReason {
    /// The client sent [`crate::proto::Request::Cancel`] or disconnected.
    Client = 1,
    /// The request's deadline expired.
    Deadline = 2,
    /// The server's drain deadline swept it.
    Drain = 3,
}

/// Per-request control block: cancel flag, deadline, and the admission
/// charge (released when the last reference drops).
#[derive(Debug)]
pub struct RequestCtl {
    cancel: AtomicU8,
    deadline: Option<Instant>,
    started: Instant,
    /// The admission charge this request holds until it fully finishes.
    pub charge: Charge,
}

impl RequestCtl {
    /// Build a control block holding `charge`; `deadline_ms == 0` means no
    /// deadline.
    pub fn new(charge: Charge, deadline_ms: u32) -> Self {
        let started = Instant::now();
        let deadline =
            (deadline_ms > 0).then(|| started + Duration::from_millis(u64::from(deadline_ms)));
        Self { cancel: AtomicU8::new(0), deadline, started, charge }
    }

    /// Microseconds since the request was admitted.
    pub fn age_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Ask the request to stop at its next checkpoint. First reason wins.
    pub fn cancel(&self, reason: CancelReason) {
        let _ = self.cancel.compare_exchange(0, reason as u8, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// True when a cancel reason has been set.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed) != 0
    }

    /// The frame-boundary check every job body calls: raises the deadline
    /// flag when the clock ran out, then reports any stop reason as the
    /// typed failure the client sees.
    ///
    /// # Errors
    /// The typed stop reason, once one is set.
    pub fn checkpoint(&self) -> Result<(), JobFail> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancel(CancelReason::Deadline);
            }
        }
        match self.cancel.load(Ordering::Relaxed) {
            0 => Ok(()),
            1 => Err(JobFail::new(RejectCode::Cancelled, "cancelled by client")),
            2 => Err(JobFail::new(RejectCode::DeadlineExceeded, "request deadline expired")),
            _ => Err(JobFail::new(RejectCode::Cancelled, "server draining")),
        }
    }
}

/// A request's typed failure: the wire code plus a short human detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFail {
    /// The wire error code.
    pub code: RejectCode,
    /// Human-readable detail.
    pub detail: String,
}

impl JobFail {
    /// Build a failure.
    pub fn new(code: RejectCode, detail: impl Into<String>) -> Self {
        Self { code, detail: detail.into() }
    }
}

impl From<RejectCode> for JobFail {
    fn from(code: RejectCode) -> Self {
        JobFail { detail: code.as_str().to_string(), code }
    }
}

/// Adapter so the dynamic fault plan a server holds can feed the
/// generic-`F` hot paths.
pub(crate) struct FaultsRef<'a>(pub &'a dyn Failpoints);

impl Failpoints for FaultsRef<'_> {
    #[inline]
    fn fire(&self, site: &str) -> Option<FaultAction> {
        self.0.fire(site)
    }

    fn drain_events(&self) -> Vec<FaultEvent> {
        self.0.drain_events()
    }
}

/// What a finished job hands back alongside its bytes.
#[derive(Debug, Default)]
pub struct JobLedger {
    /// The fault-tolerance ledger (attempts, retries, degraded frames).
    pub failures: FailureReport,
    /// Frames processed (compressed, decoded, or served).
    pub frames: u64,
}

/// Compress `data` into an LZFC framed stream (with seek index),
/// byte-identical to `FrameWriter` / `compress_frames_parallel` output
/// for the same `frame_bytes`.
///
/// # Errors
/// Typed cancellation/deadline stops, or [`RejectCode::Internal`] when a
/// frame exhausts the whole degradation ladder.
pub fn compress_job(
    data: &[u8],
    frame_bytes: usize,
    hw: &HwConfig,
    ctl: &RequestCtl,
    faults: &dyn Failpoints,
    ledger: &mut JobLedger,
) -> Result<Vec<u8>, JobFail> {
    debug_assert!((4096..=MAX_FRAME_BYTES).contains(&frame_bytes));
    let params = hw.as_lzss_params();
    let faults = FaultsRef(faults);
    let mut turbo = TurboEngine::new();
    let mut layout = StreamLayout::new();
    let mut framed = Vec::new();
    for (i, chunk) in data.chunks(frame_bytes).enumerate() {
        ctl.checkpoint()?;
        let (codec, payload) =
            ladder(&faults, "server.chunk", i..i + 1, &mut ledger.failures, None, |rung| {
                if rung == Rung::Reference {
                    let tokens = lzfpga_lzss::compress(chunk, &params);
                    return Ok(payload_from_tokens(&tokens, chunk, &params));
                }
                let mut sink = FixedZlibSink::new(params.window_size);
                turbo.compress_into_faulty(chunk, &params, &mut sink, &faults)?;
                Ok(payload_from_sink(sink, chunk))
            })
            .map_err(|attempts| {
                JobFail::new(
                    RejectCode::Internal,
                    format!("frame {i} failed all {attempts} ladder attempts"),
                )
            })?;
        let frame = layout.frame(chunk, codec, &payload).map_err(|_| {
            JobFail::new(RejectCode::TooLarge, "input exceeds the container frame count")
        })?;
        framed.extend_from_slice(&frame);
        ledger.frames += 1;
    }
    ctl.checkpoint()?;
    framed.extend_from_slice(&layout.finish(true));
    ledger.failures.injected = faults.drain_events();
    Ok(framed)
}

fn container_fail(e: ContainerError) -> JobFail {
    match e {
        ContainerError::RangeUnavailable { offset } => JobFail::new(
            RejectCode::RangeUnavailable,
            format!("stream damage makes offsets past {offset} unservable"),
        ),
        other => JobFail::new(RejectCode::BadStream, other.to_string()),
    }
}

/// Strictly decode an LZFC stream, refusing up front when the trailer
/// promises more than `max_result` bytes.
///
/// # Errors
/// [`RejectCode::BadStream`] with the container error's detail for
/// damaged streams, [`RejectCode::TooLarge`] past the result budget, or a
/// typed cancellation stop.
pub fn decompress_job(
    data: &[u8],
    max_result: u64,
    ctl: &RequestCtl,
    ledger: &mut JobLedger,
) -> Result<Vec<u8>, JobFail> {
    let structure = check_structure(data).map_err(container_fail)?;
    let total = structure.trailer.total_uncompressed();
    if total > max_result {
        return Err(JobFail::new(
            RejectCode::TooLarge,
            format!("stream decodes to {total} bytes, request budget is {max_result}"),
        ));
    }
    let mut out = Vec::with_capacity(usize::try_from(total).unwrap_or(0));
    let mut crc = Crc32::new();
    for span in &structure.frames {
        ctl.checkpoint()?;
        let frame = decode_frame(data, span).map_err(container_fail)?;
        crc.update(&frame);
        out.extend_from_slice(&frame);
        ledger.frames += 1;
    }
    ctl.checkpoint()?;
    lzfpga_container::finish_stream_checks(&structure, out.len() as u64, crc.finish())
        .map_err(container_fail)?;
    Ok(out)
}

/// Serve bytes `start..end` of the stream's original input through the
/// degradation-ladder range reader (`end == u64::MAX` means to EOF).
/// A damaged stream degrades index → scan → salvage; only offsets that
/// are provably unservable come back as a typed error, and wrong bytes
/// are never served.
///
/// # Errors
/// [`RejectCode::TooLarge`] past the result budget,
/// [`RejectCode::RangeUnavailable`]/[`RejectCode::BadStream`] from the
/// reader, or a typed cancellation stop.
pub fn range_job(
    data: &[u8],
    span: std::ops::Range<u64>,
    max_result: u64,
    chunk_step: u64,
    ctl: &RequestCtl,
    faults: &dyn Failpoints,
    ledger: &mut JobLedger,
) -> Result<Vec<u8>, JobFail> {
    let faults = FaultsRef(faults);
    let mut reader = open_indexed_faulty(data, lzfpga_container::DEFAULT_CACHE_BYTES, &faults);
    let total = reader.total_uncompressed();
    let lo = span.start.min(total);
    let hi = span.end.min(total);
    if lo >= hi {
        return Ok(Vec::new());
    }
    if hi - lo > max_result {
        return Err(JobFail::new(
            RejectCode::TooLarge,
            format!("range spans {} bytes, request budget is {max_result}", hi - lo),
        ));
    }
    // Serve in bounded steps so cancellation and deadlines bite between
    // pieces of a large range, not only at its end.
    let step = chunk_step.max(4096);
    let mut out = Vec::with_capacity((hi - lo) as usize);
    let mut at = lo;
    while at < hi {
        ctl.checkpoint()?;
        let stop = hi.min(at + step);
        let piece = reader.decode_range(at..stop).map_err(container_fail)?;
        out.extend_from_slice(&piece);
        at = stop;
        ledger.frames += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::{Admission, QuotaConfig};
    use lzfpga_container::FrameConfig;
    use lzfpga_faults::{FailPlan, FailRule, NoFaults};
    use lzfpga_parallel::{compress_frames_parallel, EngineKind, ParallelConfig};

    fn test_ctl(deadline_ms: u32) -> RequestCtl {
        let adm = Admission::new(QuotaConfig::default());
        RequestCtl::new(adm.admit_request("test", 1).unwrap(), deadline_ms)
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8 ^ (i / 7) as u8).collect()
    }

    fn reference_stream(data: &[u8], frame_bytes: usize) -> Vec<u8> {
        let cfg =
            ParallelConfig { engine: EngineKind::Turbo, workers: 2, ..ParallelConfig::default() };
        let fc = FrameConfig { frame_bytes, index: true, ..FrameConfig::default() };
        compress_frames_parallel(data, &cfg, &fc).unwrap().framed
    }

    #[test]
    fn compress_job_matches_frame_writer_bytes() {
        let data = sample(300_000);
        let ctl = test_ctl(0);
        let mut ledger = JobLedger::default();
        let framed =
            compress_job(&data, 65536, &HwConfig::paper_fast(), &ctl, &NoFaults, &mut ledger)
                .unwrap();
        assert_eq!(framed, reference_stream(&data, 65536));
        assert_eq!(ledger.frames, 5);
    }

    #[test]
    fn injected_panics_degrade_frames_but_bytes_stay_exact() {
        let data = sample(200_000);
        let plan = FailPlan::new(7).rule(FailRule::new("server.chunk").on_hit(1).times(4).panics());
        let ctl = test_ctl(0);
        let mut ledger = JobLedger::default();
        let framed =
            compress_job(&data, 65536, &HwConfig::paper_fast(), &ctl, &plan, &mut ledger).unwrap();
        assert_eq!(framed, reference_stream(&data, 65536));
        assert!(ledger.failures.worker_restarts >= 1);
        assert!(!ledger.failures.injected.is_empty());
    }

    #[test]
    fn decompress_round_trips_and_enforces_budget() {
        let data = sample(150_000);
        let stream = reference_stream(&data, 65536);
        let ctl = test_ctl(0);
        let mut ledger = JobLedger::default();
        let out = decompress_job(&stream, data.len() as u64, &ctl, &mut ledger).unwrap();
        assert_eq!(out, data);
        let err = decompress_job(&stream, data.len() as u64 - 1, &ctl, &mut JobLedger::default())
            .unwrap_err();
        assert_eq!(err.code, RejectCode::TooLarge);
    }

    #[test]
    fn decompress_rejects_garbage_with_typed_error() {
        let ctl = test_ctl(0);
        let err = decompress_job(b"not an lzfc stream", u64::MAX, &ctl, &mut JobLedger::default())
            .unwrap_err();
        assert_eq!(err.code, RejectCode::BadStream);
    }

    #[test]
    fn range_job_serves_exact_slices() {
        let data = sample(250_000);
        let stream = reference_stream(&data, 65536);
        let ctl = test_ctl(0);
        let mut ledger = JobLedger::default();
        let out =
            range_job(&stream, 70_000..200_001, u64::MAX, 65536, &ctl, &NoFaults, &mut ledger)
                .unwrap();
        assert_eq!(out, &data[70_000..200_001]);
    }

    #[test]
    fn cancel_stops_at_a_frame_boundary() {
        let data = sample(500_000);
        let ctl = test_ctl(0);
        ctl.cancel(CancelReason::Client);
        let err = compress_job(
            &data,
            65536,
            &HwConfig::paper_fast(),
            &ctl,
            &NoFaults,
            &mut JobLedger::default(),
        )
        .unwrap_err();
        assert_eq!(err.code, RejectCode::Cancelled);
    }

    #[test]
    fn expired_deadline_is_a_typed_stop() {
        let data = sample(100_000);
        let ctl = test_ctl(1);
        std::thread::sleep(Duration::from_millis(5));
        let err = compress_job(
            &data,
            65536,
            &HwConfig::paper_fast(),
            &ctl,
            &NoFaults,
            &mut JobLedger::default(),
        )
        .unwrap_err();
        assert_eq!(err.code, RejectCode::DeadlineExceeded);
    }
}
