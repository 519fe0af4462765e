//! Checkpointed streaming compression: [`FrameWriter`] and crash-safe
//! resume via [`scan_partial`].
//!
//! The writer buffers at most one frame of input. Every time the buffer
//! reaches the configured frame size it compresses that slice into a
//! complete frame (header + payload), writes it, and *flushes* the inner
//! writer — so a frame that has been emitted is durable under whatever
//! durability the inner writer's `flush` provides (the CLI wraps a `File`
//! whose `flush` is `sync_data`). A process killed mid-stream therefore
//! leaves a strict prefix of valid frames on disk, which [`scan_partial`]
//! validates and [`FrameWriter::resume`] continues from.
//!
//! Partial (smaller than `frame_bytes`) frames are only ever produced by
//! [`FrameWriter::finish`] for the input's tail. That invariant is what
//! makes resume byte-exact: any durable prefix consists of full-size
//! frames, so the restarted writer re-chunks the remaining input on the
//! same boundaries a fresh single-pass run would have used.
//!
//! [`StreamLayout`] and [`encode_frame`] own the stream layout itself —
//! frame numbering, the seek index, the stream CRC and the trailer — for
//! the writer and for every other producer of LZFC bytes.

use std::io::{self, Write};
use std::time::Instant;

use lzfpga_deflate::crc32::Crc32;
use lzfpga_deflate::{FixedZlibSink, Token, TokenSink};
use lzfpga_lzss::{LzssParams, TurboEngine};
use lzfpga_telemetry::{FrameEvent, FrameOutcome};

use crate::format::{encode_data_header, encode_trailer, parse_record, Codec, HEADER_LEN};
use crate::index::{encode_index_section, IndexEntry};
use crate::{decode_frame, ContainerError, FrameSpan};
use lzfpga_deflate::crc32::crc32;

/// Largest frame size the writer accepts: `ulen`/`clen` are 32-bit and the
/// raw-codec fallback bounds the payload at the frame size, so anything
/// under [`crate::MAX_FRAME_BYTES`] is representable.
const MAX_WRITER_FRAME: usize = crate::MAX_FRAME_BYTES;

/// Framing knobs for [`FrameWriter`].
#[derive(Debug, Clone, Copy)]
pub struct FrameConfig {
    /// Uncompressed bytes per frame (the checkpoint interval). Default
    /// 256 KiB — large enough that per-frame header + fresh-dictionary
    /// overhead stays well under 2% on mixed corpora, small enough that a
    /// crash loses at most a quarter-megabyte of progress.
    pub frame_bytes: usize,
    /// Record a [`FrameEvent`] per frame in the summary (for the JSONL
    /// metrics sink). Off by default; the writer is otherwise zero-cost.
    pub collect_events: bool,
    /// Write the seek-index record before the trailer at finalize (on by
    /// default; ~16 bytes per frame). Readers treat its absence as a
    /// stream-level fact, never an error — disable for byte-compatibility
    /// with pre-index streams.
    pub index: bool,
}

impl Default for FrameConfig {
    fn default() -> Self {
        FrameConfig { frame_bytes: 256 * 1024, collect_events: false, index: true }
    }
}

impl FrameConfig {
    /// Reject degenerate frame sizes.
    ///
    /// # Errors
    /// [`ContainerError::Config`] when `frame_bytes` is zero or above
    /// [`crate::MAX_FRAME_BYTES`].
    pub fn validate(&self) -> Result<(), ContainerError> {
        if self.frame_bytes == 0 {
            return Err(ContainerError::Config { reason: "frame_bytes must be non-zero" });
        }
        if self.frame_bytes > MAX_WRITER_FRAME {
            return Err(ContainerError::Config { reason: "frame_bytes exceeds MAX_FRAME_BYTES" });
        }
        Ok(())
    }
}

/// What a completed framed stream looked like.
#[derive(Debug, Clone)]
pub struct FramedSummary {
    /// Data frames written (not counting the trailer).
    pub frames: u32,
    /// Uncompressed bytes consumed.
    pub input_bytes: u64,
    /// Container bytes produced (headers + payloads + trailer).
    pub output_bytes: u64,
    /// Frames stored raw because compression would have expanded them.
    pub raw_frames: u32,
    /// Per-frame telemetry, when [`FrameConfig::collect_events`] was set.
    pub events: Vec<FrameEvent>,
}

/// Close a frame's fixed-Huffman stream and pick its stored payload:
/// [`Codec::Raw`] when compression would not shrink the frame `data`.
///
/// This is *the* codec decision — [`FrameWriter`], the chunk-parallel
/// framed compressor and the server all route through it, which is what
/// makes their outputs byte-identical.
pub fn payload_from_sink(sink: FixedZlibSink, data: &[u8]) -> (Codec, Vec<u8>) {
    let zlib = sink.finish(data);
    if zlib.len() >= data.len() {
        (Codec::Raw, data.to_vec())
    } else {
        (Codec::FixedZlib, zlib)
    }
}

/// [`payload_from_sink`] for an already-produced token stream.
pub fn payload_from_tokens(tokens: &[Token], data: &[u8], params: &LzssParams) -> (Codec, Vec<u8>) {
    let mut sink = FixedZlibSink::new(params.window_size);
    sink.push_tokens(tokens);
    payload_from_sink(sink, data)
}

/// Assemble data frame number `seq` — record header, then `payload` — for
/// the uncompressed bytes `data`.
///
/// # Errors
/// [`ContainerError::Config`] when `seq` or `data.len()` does not fit the
/// header's 32-bit fields (the frame count itself must stay a `u32`).
pub fn encode_frame(
    seq: usize,
    data: &[u8],
    codec: Codec,
    payload: &[u8],
) -> Result<Vec<u8>, ContainerError> {
    let seq = u32::try_from(seq)
        .ok()
        .filter(|&s| s < u32::MAX)
        .ok_or(ContainerError::Config { reason: "frame count exceeds u32" })?;
    let ulen = u32::try_from(data.len())
        .map_err(|_| ContainerError::Config { reason: "frame exceeds MAX_FRAME_BYTES" })?;
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&encode_data_header(seq, codec, ulen, payload));
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// The running layout of one LZFC stream: frame numbering, the seek-index
/// entries, the whole-stream CRC, and the closing index + trailer.
///
/// Every producer of LZFC bytes — [`FrameWriter`], the chunk-parallel and
/// batched framers, the server's compress job — lays its frames out
/// through this one type, which is what keeps their streams
/// byte-identical. Frames must be pushed in sequence order.
#[derive(Debug, Clone, Default)]
pub struct StreamLayout {
    entries: Vec<IndexEntry>,
    input_bytes: u64,
    output_bytes: u64,
    crc: Crc32,
}

impl StreamLayout {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Data frames laid out so far.
    pub fn frames(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Uncompressed bytes the laid-out frames carry.
    pub fn input_bytes(&self) -> u64 {
        self.input_bytes
    }

    /// Container bytes the laid-out frames occupy.
    pub fn output_bytes(&self) -> u64 {
        self.output_bytes
    }

    /// Record the next frame, already assembled by [`encode_frame`] with
    /// `seq == self.frames()`: `data` is its uncompressed input and
    /// `frame_len` its container size.
    pub fn push(&mut self, data: &[u8], frame_len: usize) {
        self.entries.push(IndexEntry { header_start: self.output_bytes, ustart: self.input_bytes });
        self.crc.update(data);
        self.input_bytes += data.len() as u64;
        self.output_bytes += frame_len as u64;
    }

    /// Assemble and record the next frame in one step.
    ///
    /// # Errors
    /// As [`encode_frame`].
    pub fn frame(
        &mut self,
        data: &[u8],
        codec: Codec,
        payload: &[u8],
    ) -> Result<Vec<u8>, ContainerError> {
        let frame = encode_frame(self.entries.len(), data, codec, payload)?;
        self.push(data, frame.len());
        Ok(frame)
    }

    /// The bytes that close the stream: the seek index (when `index` is set
    /// and there is at least one frame), then the trailer. A frameless
    /// stream is a bare trailer.
    pub fn finish(&self, index: bool) -> Vec<u8> {
        let mut tail = if index && !self.entries.is_empty() {
            encode_index_section(&self.entries, self.input_bytes, self.output_bytes)
        } else {
            Vec::with_capacity(HEADER_LEN)
        };
        tail.extend_from_slice(&encode_trailer(self.frames(), self.input_bytes, self.crc.finish()));
        tail
    }
}

/// Compress one frame's bytes and pick its codec: fixed-Huffman zlib when
/// that is smaller than the input, raw otherwise. The engine streams its
/// tokens straight into the fixed-table packer; `engine` is caller-owned
/// so a long stream reuses its arenas.
pub fn encode_frame_payload(
    data: &[u8],
    params: &LzssParams,
    engine: &mut TurboEngine,
) -> (Codec, Vec<u8>) {
    let mut sink = FixedZlibSink::new(params.window_size);
    engine.compress_into(data, params, &mut sink);
    payload_from_sink(sink, data)
}

/// Streaming LZFC compressor over any [`io::Write`].
///
/// Feed it with [`io::Write`] calls (or `io::copy`), then call
/// [`FrameWriter::finish`] to emit the tail frame and trailer. Memory is
/// O(frame): one input buffer plus the engine's window tables.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    out: W,
    cfg: FrameConfig,
    params: LzssParams,
    engine: TurboEngine,
    buf: Vec<u8>,
    layout: StreamLayout,
    raw_frames: u32,
    events: Vec<FrameEvent>,
    /// Set when resume landed after a partial tail frame: the stream can
    /// only be finished, not extended, or it would diverge from a fresh
    /// single-pass run.
    sealed: bool,
    /// Timestamp origin for [`FrameEvent::start_us`], fixed at
    /// construction so every frame of one stream shares a timeline.
    epoch: Instant,
}

impl<W: Write> FrameWriter<W> {
    /// A writer for a fresh stream.
    ///
    /// # Errors
    /// [`ContainerError::Config`] for a rejected [`FrameConfig`].
    pub fn new(out: W, cfg: FrameConfig, params: LzssParams) -> Result<Self, ContainerError> {
        cfg.validate()?;
        Ok(FrameWriter {
            out,
            cfg,
            params,
            engine: TurboEngine::new(),
            buf: Vec::with_capacity(cfg.frame_bytes.min(1 << 20)),
            layout: StreamLayout::new(),
            raw_frames: 0,
            events: Vec::new(),
            sealed: false,
            epoch: Instant::now(),
        })
    }

    /// A writer continuing a stream whose durable prefix `scan` describes.
    ///
    /// The caller must have (a) truncated/positioned `out` so the next
    /// byte written lands at `scan.valid_bytes`, and (b) arranged to feed
    /// only the input *after* the first `scan.uncompressed_bytes` bytes —
    /// checking [`ResumeScan::prefix_crc`] against that skipped prefix
    /// catches a mismatched source file.
    ///
    /// # Errors
    /// [`ContainerError::Config`] when the scan is of a complete stream,
    /// or when its frames are not aligned to `cfg.frame_bytes` (the
    /// partial output was written with a different frame size).
    pub fn resume(
        out: W,
        cfg: FrameConfig,
        params: LzssParams,
        scan: &ResumeScan,
    ) -> Result<Self, ContainerError> {
        cfg.validate()?;
        if scan.complete {
            return Err(ContainerError::Config { reason: "stream is already complete" });
        }
        // Every prefix frame except a finish()-time tail is exactly
        // frame_bytes; anything else means the prefix was written with a
        // different --frame-size and resuming would shift every boundary.
        let mut sealed = false;
        for (i, ulen) in scan.frame_ulens.iter().enumerate() {
            let ulen = *ulen as usize;
            if ulen == cfg.frame_bytes {
                continue;
            }
            if ulen < cfg.frame_bytes && i == scan.frame_ulens.len() - 1 {
                sealed = true;
            } else {
                return Err(ContainerError::Config {
                    reason: "partial stream was framed with a different frame size",
                });
            }
        }
        // Rebuild the prefix frames' index entries from the scan so the
        // finalize-time index covers the whole stream, not just the frames
        // this writer appended.
        let mut entries = Vec::with_capacity(scan.frame_ulens.len());
        let mut ustart = 0u64;
        for (off, ulen) in scan.frame_offsets.iter().zip(&scan.frame_ulens) {
            entries.push(IndexEntry { header_start: *off, ustart });
            ustart += u64::from(*ulen);
        }
        let layout = StreamLayout {
            entries,
            input_bytes: scan.uncompressed_bytes,
            output_bytes: scan.valid_bytes,
            crc: scan.crc,
        };
        Ok(FrameWriter {
            out,
            cfg,
            params,
            engine: TurboEngine::new(),
            buf: Vec::with_capacity(cfg.frame_bytes.min(1 << 20)),
            layout,
            raw_frames: 0,
            events: Vec::new(),
            sealed,
            epoch: Instant::now(),
        })
    }

    /// Uncompressed bytes accepted so far (including a resumed prefix).
    pub fn input_bytes(&self) -> u64 {
        self.layout.input_bytes() + self.buf.len() as u64
    }

    fn emit_frame(&mut self, take: usize) -> io::Result<()> {
        debug_assert!(take > 0 && take <= self.buf.len());
        let seq = self.layout.frames();
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let encode_t0 = Instant::now();
        let (codec, payload) =
            encode_frame_payload(&self.buf[..take], &self.params, &mut self.engine);
        let encode_us = encode_t0.elapsed().as_secs_f64() * 1e6;
        let crc_t0 = Instant::now();
        let frame =
            self.layout.frame(&self.buf[..take], codec, &payload).map_err(io::Error::other)?;
        let crc_us = crc_t0.elapsed().as_secs_f64() * 1e6;
        self.out.write_all(&frame)?;
        // The durability checkpoint: one flush per completed frame.
        self.out.flush()?;
        if self.cfg.collect_events {
            self.events.push(FrameEvent {
                seq,
                uncompressed_bytes: take as u64,
                payload_bytes: payload.len() as u64,
                codec: codec.as_str(),
                crc_us,
                encode_us,
                start_us,
                outcome: FrameOutcome::Written,
            });
        }
        if codec == Codec::Raw {
            self.raw_frames += 1;
        }
        self.buf.drain(..take);
        Ok(())
    }

    /// Emit the tail frame (if any) and the trailer, flush, and hand the
    /// inner writer back.
    ///
    /// # Errors
    /// Propagates inner-writer I/O errors.
    pub fn finish(mut self) -> io::Result<(W, FramedSummary)> {
        while self.buf.len() >= self.cfg.frame_bytes {
            self.emit_frame_checked(self.cfg.frame_bytes)?;
        }
        if !self.buf.is_empty() {
            let take = self.buf.len();
            self.emit_frame_checked(take)?;
        }
        let tail = self.layout.finish(self.cfg.index);
        self.out.write_all(&tail)?;
        self.out.flush()?;
        let summary = FramedSummary {
            frames: self.layout.frames(),
            input_bytes: self.layout.input_bytes(),
            output_bytes: self.layout.output_bytes() + tail.len() as u64,
            raw_frames: self.raw_frames,
            events: std::mem::take(&mut self.events),
        };
        Ok((self.out, summary))
    }

    fn emit_frame_checked(&mut self, take: usize) -> io::Result<()> {
        if self.sealed {
            return Err(io::Error::other(
                "resumed after a partial tail frame; the stream can only be finished",
            ));
        }
        self.emit_frame(take)
    }
}

impl<W: Write> Write for FrameWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if !data.is_empty() && self.sealed {
            return Err(io::Error::other(
                "resumed after a partial tail frame; the stream can only be finished",
            ));
        }
        self.buf.extend_from_slice(data);
        while self.buf.len() >= self.cfg.frame_bytes {
            self.emit_frame(self.cfg.frame_bytes)?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Buffered sub-frame input is deliberately NOT framed here — flush
        // durability applies to emitted frames; boundaries stay canonical.
        self.out.flush()
    }
}

/// What [`scan_partial`] found: the longest valid frame prefix of a
/// (possibly interrupted) LZFC stream.
#[derive(Debug, Clone)]
pub struct ResumeScan {
    /// Container bytes covered by valid, fully decodable frames. A
    /// resumed writer continues at exactly this offset.
    pub valid_bytes: u64,
    /// Data frames in the prefix.
    pub frames: u32,
    /// Uncompressed bytes those frames carry.
    pub uncompressed_bytes: u64,
    /// The stream already ends with a valid trailer — nothing to resume.
    pub complete: bool,
    /// Per-frame uncompressed sizes (resume uses these to verify the
    /// prefix was framed with the same frame size).
    pub frame_ulens: Vec<u32>,
    /// Per-frame container offsets of the prefix's record headers (resume
    /// uses these to rebuild the seek index over the whole stream).
    pub frame_offsets: Vec<u64>,
    /// Running CRC-32 over the prefix's uncompressed bytes.
    crc: Crc32,
}

impl ResumeScan {
    /// CRC-32 of the uncompressed bytes the prefix covers. The resuming
    /// caller checks this against the source file's first
    /// [`ResumeScan::uncompressed_bytes`] bytes before skipping them.
    pub fn prefix_crc(&self) -> u32 {
        self.crc.finish()
    }
}

/// Walk the longest strictly-valid frame prefix of `bytes`, decoding each
/// frame to rebuild the running stream CRC.
///
/// Unlike [`crate::salvage`], this never skips damage: the first invalid
/// or undecodable record ends the prefix, because resume must append to a
/// point the writer provably reached. A valid trailer (with matching
/// totals and stream CRC) marks the scan `complete`.
pub fn scan_partial(bytes: &[u8]) -> ResumeScan {
    let mut scan = ResumeScan {
        valid_bytes: 0,
        frames: 0,
        uncompressed_bytes: 0,
        complete: false,
        frame_ulens: Vec::new(),
        frame_offsets: Vec::new(),
        crc: Crc32::new(),
    };
    let mut pos = 0usize;
    loop {
        let Ok(rec) = parse_record(&bytes[pos..]) else {
            return scan;
        };
        if rec.index {
            // A durable index only matters if the trailer after it also
            // validates (the loop's next iteration decides). A torn or
            // corrupt index ends the prefix *before* itself, so resume
            // truncates it away and finalize rewrites a fresh one.
            let payload_start = pos + HEADER_LEN;
            let end = payload_start.saturating_add(rec.clen as usize);
            if end > bytes.len() || crc32(&bytes[payload_start..end]) != rec.payload_crc {
                return scan;
            }
            pos = end;
            continue;
        }
        if rec.trailer {
            let totals_ok = u64::from(rec.seq) == u64::from(scan.frames)
                && rec.total_uncompressed() == scan.uncompressed_bytes
                && rec.payload_crc == scan.crc.finish();
            if totals_ok {
                scan.complete = true;
                scan.valid_bytes = (pos + HEADER_LEN) as u64;
            }
            return scan;
        }
        if rec.seq != scan.frames {
            return scan;
        }
        let payload_start = pos + HEADER_LEN;
        let end = payload_start.saturating_add(rec.clen as usize);
        if end > bytes.len() {
            return scan;
        }
        let span = FrameSpan { header_start: pos, payload_start, end, record: rec };
        let Ok(data) = decode_frame(bytes, &span) else {
            return scan;
        };
        scan.crc.update(&data);
        scan.frames += 1;
        scan.uncompressed_bytes += data.len() as u64;
        scan.frame_ulens.push(rec.ulen);
        scan.frame_offsets.push(pos as u64);
        scan.valid_bytes = end as u64;
        pos = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unframe;
    use lzfpga_workloads::{generate, Corpus};

    fn params() -> LzssParams {
        LzssParams::paper_fast()
    }

    fn fresh(data: &[u8], frame_bytes: usize) -> (Vec<u8>, FramedSummary) {
        let cfg = FrameConfig { frame_bytes, collect_events: true, ..FrameConfig::default() };
        let mut w = FrameWriter::new(Vec::new(), cfg, params()).unwrap();
        w.write_all(data).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn streaming_writes_match_one_shot() {
        let data = generate(Corpus::Mixed, 11, 90_000);
        let (one_shot, _) = fresh(&data, 16 * 1024);
        // Same bytes dribbled in 7-byte writes must frame identically.
        let cfg =
            FrameConfig { frame_bytes: 16 * 1024, collect_events: false, ..FrameConfig::default() };
        let mut w = FrameWriter::new(Vec::new(), cfg, params()).unwrap();
        for chunk in data.chunks(7) {
            w.write_all(chunk).unwrap();
        }
        let (dribbled, summary) = w.finish().unwrap();
        assert_eq!(dribbled, one_shot);
        assert_eq!(summary.output_bytes, one_shot.len() as u64);
        assert_eq!(unframe(&one_shot).unwrap(), data);
    }

    #[test]
    fn incompressible_frames_fall_back_to_raw() {
        // Xorshift noise: fixed-Huffman can only expand it.
        let mut state = 0x9E37_79B9_u64;
        let noise: Vec<u8> = (0..40_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        let (stream, summary) = fresh(&noise, 8 * 1024);
        assert_eq!(summary.raw_frames, summary.frames);
        // Raw framing overhead is just the headers plus the seek index.
        let expected = noise.len()
            + (summary.frames as usize + 1) * HEADER_LEN
            + crate::index::index_section_len(summary.frames as usize);
        assert_eq!(stream.len(), expected);
        assert_eq!(unframe(&stream).unwrap(), noise);
    }

    #[test]
    fn fused_payload_equals_the_token_path_with_the_same_codec() {
        let mut engine = TurboEngine::new();
        // Incompressible, empty and 1-byte frames would expand: raw.
        let cases = [
            (generate(Corpus::Wiki, 5, 30_000), Codec::FixedZlib),
            (generate(Corpus::Constant, 5, 30_000), Codec::FixedZlib),
            (generate(Corpus::Random, 5, 30_000), Codec::Raw),
            (Vec::new(), Codec::Raw),
            (vec![7u8], Codec::Raw),
        ];
        for (data, codec) in &cases {
            let tokens = engine.compress(data, &params());
            let fused = encode_frame_payload(data, &params(), &mut engine);
            assert_eq!(fused, payload_from_tokens(&tokens, data, &params()));
            assert_eq!(fused.0, *codec);
        }
    }

    #[test]
    fn events_cover_every_frame() {
        let data = generate(Corpus::LogLines, 21, 50_000);
        let (_, summary) = fresh(&data, 8 * 1024);
        assert_eq!(summary.events.len(), summary.frames as usize);
        for (i, ev) in summary.events.iter().enumerate() {
            assert_eq!(ev.seq, i as u32);
            assert!(matches!(ev.outcome, FrameOutcome::Written));
            let total: u64 = summary.events.iter().map(|e| e.uncompressed_bytes).sum();
            assert_eq!(total, summary.input_bytes);
        }
    }

    #[test]
    fn scan_partial_walks_every_truncation_point() {
        let data = generate(Corpus::Wiki, 31, 40_000);
        let (stream, summary) = fresh(&data, 8 * 1024);
        let full = scan_partial(&stream);
        assert!(full.complete);
        assert_eq!(full.frames, summary.frames);
        assert_eq!(full.uncompressed_bytes, data.len() as u64);
        assert_eq!(full.prefix_crc(), lzfpga_deflate::crc32::crc32(&data));
        // Any truncation yields a prefix of whole frames — full-size except
        // possibly the stream's own finish()-time tail frame.
        for keep in (0..stream.len()).step_by(97).chain([stream.len() - 1]) {
            let scan = scan_partial(&stream[..keep]);
            assert!(!scan.complete, "keep {keep}");
            assert!(scan.valid_bytes <= keep as u64);
            for (i, ulen) in scan.frame_ulens.iter().enumerate() {
                if i + 1 < scan.frame_ulens.len() {
                    assert_eq!(*ulen, 8 * 1024, "keep {keep} frame {i}");
                }
            }
        }
    }

    #[test]
    fn resume_reproduces_the_fresh_stream() {
        let data = generate(Corpus::JsonTelemetry, 41, 60_000);
        let (fresh_stream, _) = fresh(&data, 8 * 1024);
        for keep in [0, 10, HEADER_LEN + 1, fresh_stream.len() / 3, fresh_stream.len() - 5] {
            let scan = scan_partial(&fresh_stream[..keep]);
            let mut out = fresh_stream[..scan.valid_bytes as usize].to_vec();
            let cfg = FrameConfig {
                frame_bytes: 8 * 1024,
                collect_events: false,
                ..FrameConfig::default()
            };
            let mut w = FrameWriter::resume(&mut out, cfg, params(), &scan).unwrap();
            w.write_all(&data[scan.uncompressed_bytes as usize..]).unwrap();
            let (_, summary) = w.finish().unwrap();
            assert_eq!(out, fresh_stream, "keep {keep}");
            assert_eq!(summary.input_bytes, data.len() as u64, "keep {keep}");
        }
    }

    #[test]
    fn resume_of_a_complete_stream_is_rejected() {
        let (stream, _) = fresh(b"tiny", 4096);
        let scan = scan_partial(&stream);
        assert!(scan.complete);
        let cfg = FrameConfig::default();
        assert!(matches!(
            FrameWriter::resume(Vec::new(), cfg, params(), &scan),
            Err(ContainerError::Config { .. })
        ));
    }

    #[test]
    fn resume_with_mismatched_frame_size_is_rejected() {
        let data = generate(Corpus::Wiki, 51, 40_000);
        let (stream, _) = fresh(&data, 8 * 1024);
        let scan = scan_partial(&stream[..stream.len() - 1]);
        assert!(scan.frames > 0);
        let cfg =
            FrameConfig { frame_bytes: 4 * 1024, collect_events: false, ..FrameConfig::default() };
        assert!(matches!(
            FrameWriter::resume(Vec::new(), cfg, params(), &scan),
            Err(ContainerError::Config { .. })
        ));
    }

    #[test]
    fn resume_after_partial_tail_frame_only_finishes() {
        // 10_000 bytes at 4 KiB frames: 2 full frames + a 1808-byte tail.
        let data = generate(Corpus::Mixed, 61, 10_000);
        let (stream, _) = fresh(&data, 4 * 1024);
        // Cut inside the trailer: all three data frames are durable.
        let cut = stream.len() - 3;
        let scan = scan_partial(&stream[..cut]);
        assert_eq!(scan.frames, 3);
        assert_eq!(scan.uncompressed_bytes, data.len() as u64);
        let cfg =
            FrameConfig { frame_bytes: 4 * 1024, collect_events: false, ..FrameConfig::default() };
        let mut out = stream[..scan.valid_bytes as usize].to_vec();
        let mut w = FrameWriter::resume(&mut out, cfg, params(), &scan).unwrap();
        // No input remains; appending would diverge and must fail…
        assert!(w.write(b"x").is_err());
        // …but finishing rewrites the trailer and completes the stream.
        let (_, _) = w.finish().unwrap();
        assert_eq!(out, stream);
    }

    #[test]
    fn bad_config_rejected() {
        let cfg = FrameConfig { frame_bytes: 0, collect_events: false, ..FrameConfig::default() };
        assert!(FrameWriter::new(Vec::new(), cfg, params()).is_err());
        let cfg = FrameConfig {
            frame_bytes: MAX_WRITER_FRAME + 1,
            collect_events: false,
            ..FrameConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
