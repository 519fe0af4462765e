//! LZFC — the crash-safe framed container around the LZSS/Deflate engines.
//!
//! The paper's compressor is a streaming engine, but a monolithic
//! zlib/gzip blob is an all-or-nothing artifact: one flipped bit or a
//! truncated tail loses everything after it. GPULZ-style designs get both
//! robustness and parallelism from independently decodable blocks; LZFC is
//! that shape for this workspace:
//!
//! * **[`format`]** — the wire format: every frame opens with a 4-byte
//!   sync magic, version, codec flags, sequence number, both lengths, a
//!   payload CRC-32 and a header CRC-32; the trailer records the frame
//!   count and a whole-stream checksum. Headers are trustworthy before a
//!   payload byte is read; payloads are verifiable without decoding.
//! * **[`unframe`]** / [`check_structure`] — the strict decoder: any
//!   deviation is a typed [`ContainerError`] with the offset.
//! * **[`salvage`]** — the recovery decoder: a bad header, bad payload or
//!   truncation skips forward to the next sync marker and keeps decoding,
//!   returning everything recoverable plus a [`SalvageReport`] of what was
//!   lost (including *deep recovery* of zlib payloads whose headers died).
//! * **[`FrameWriter`]** — checkpointed streaming compression: wraps any
//!   `io::Write`, emits a flushed frame every N bytes in O(frame) memory,
//!   and [`scan_partial`] + [`FrameWriter::resume`] continue an
//!   interrupted stream from its last durable frame.
//!
//! Frames are compressed independently (fresh dictionary per frame), so a
//! chunk-parallel compressor can produce frames concurrently and a
//! decompressor can decode them concurrently — `lzfpga-parallel` wires
//! both directions up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod index;
pub mod range;
pub mod salvage;
pub mod writer;

pub use format::{
    encode_data_header, encode_index_header, encode_trailer, find_sync, parse_record, Codec,
    FrameSpan, HeaderError, Record, FLAG_INDEX, FLAG_TRAILER, HEADER_LEN, MAX_FRAME_BYTES, SYNC,
    VERSION,
};
pub use index::{encode_index_section, index_section_len, IndexEntry, IndexFault, INDEX_MAGIC};
pub use range::{
    open_indexed, open_indexed_faulty, open_indexed_with, plan_range, IndexReport, IndexSource,
    IndexedReader, DEFAULT_CACHE_BYTES,
};
pub use salvage::{salvage, salvage_with, LostRange, Salvage, SalvageOptions, SalvageReport};
pub use writer::{
    encode_frame, encode_frame_payload, payload_from_sink, payload_from_tokens, scan_partial,
    FrameConfig, FrameWriter, FramedSummary, ResumeScan, StreamLayout,
};

use lzfpga_deflate::crc32::Crc32;
use lzfpga_deflate::zlib::zlib_decompress_limited;
use lzfpga_deflate::Limits;

/// Why an LZFC stream failed the strict decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerError {
    /// The stream ended inside a record header or payload.
    Truncated {
        /// Offset of the incomplete record.
        offset: u64,
    },
    /// No sync magic where a record must start.
    BadSync {
        /// Offset of the bad record.
        offset: u64,
    },
    /// Unknown format version.
    BadVersion {
        /// Offset of the record.
        offset: u64,
        /// The version byte found.
        found: u8,
    },
    /// A record header failed its CRC.
    HeaderCrc {
        /// Offset of the record.
        offset: u64,
    },
    /// A data frame names a codec this version does not know.
    UnknownCodec {
        /// Offset of the record.
        offset: u64,
        /// The codec bits found.
        bits: u8,
    },
    /// Frame sequence numbers are not 0,1,2,…
    SeqMismatch {
        /// Offset of the record.
        offset: u64,
        /// The expected sequence number.
        expected: u32,
        /// The sequence number found.
        found: u32,
    },
    /// A stored payload failed its CRC.
    PayloadCrc {
        /// The frame's sequence number.
        seq: u32,
        /// Offset of the frame header.
        offset: u64,
    },
    /// A payload failed to decode under its codec.
    PayloadDecode {
        /// The frame's sequence number.
        seq: u32,
        /// Offset of the frame header.
        offset: u64,
    },
    /// A payload decoded to a different length than the header claims.
    FrameLength {
        /// The frame's sequence number.
        seq: u32,
        /// Length the header claims.
        expected: u64,
        /// Length the payload decoded to.
        actual: u64,
    },
    /// The stream ended without a trailer record.
    MissingTrailer {
        /// Offset where the trailer was expected.
        offset: u64,
    },
    /// Bytes follow the trailer record.
    TrailingBytes {
        /// Offset of the first surplus byte.
        offset: u64,
    },
    /// The trailer's totals disagree with the decoded frames.
    TrailerTotals {
        /// Frame count the trailer claims.
        expected_frames: u32,
        /// Frames actually present.
        found_frames: u32,
        /// Total bytes the trailer claims.
        expected_bytes: u64,
        /// Bytes actually decoded.
        actual_bytes: u64,
    },
    /// The whole-stream checksum does not match the decoded data.
    StreamCrc {
        /// Checksum stored in the trailer.
        expected: u32,
        /// Checksum computed over the decoded data.
        actual: u32,
    },
    /// The seek-index record is malformed (strict decode verifies it even
    /// though it never contributes output bytes).
    IndexCorrupt {
        /// Offset of the index record.
        offset: u64,
        /// What failed.
        reason: &'static str,
    },
    /// More data frames than the 32-bit sequence field can number.
    TooManyFrames {
        /// Offset of the first un-numberable frame.
        offset: u64,
    },
    /// A requested byte range lies beyond what a damaged stream can still
    /// serve with byte-exact offsets.
    RangeUnavailable {
        /// First uncompressed offset that can no longer be served.
        offset: u64,
    },
    /// A configuration value was rejected before anything ran.
    Config {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ContainerError::Truncated { offset } => {
                write!(f, "stream truncated inside the record at byte {offset}")
            }
            ContainerError::BadSync { offset } => {
                write!(f, "no sync magic at byte {offset}")
            }
            ContainerError::BadVersion { offset, found } => {
                write!(f, "unknown container version {found} at byte {offset}")
            }
            ContainerError::HeaderCrc { offset } => {
                write!(f, "header CRC mismatch at byte {offset}")
            }
            ContainerError::UnknownCodec { offset, bits } => {
                write!(f, "unknown codec {bits} at byte {offset}")
            }
            ContainerError::SeqMismatch { offset, expected, found } => {
                write!(f, "frame {found} where frame {expected} expected at byte {offset}")
            }
            ContainerError::PayloadCrc { seq, offset } => {
                write!(f, "payload CRC mismatch in frame {seq} at byte {offset}")
            }
            ContainerError::PayloadDecode { seq, offset } => {
                write!(f, "payload of frame {seq} at byte {offset} failed to decode")
            }
            ContainerError::FrameLength { seq, expected, actual } => {
                write!(f, "frame {seq} decoded to {actual} bytes, header claims {expected}")
            }
            ContainerError::MissingTrailer { offset } => {
                write!(f, "stream ended at byte {offset} without a trailer")
            }
            ContainerError::TrailingBytes { offset } => {
                write!(f, "unexpected bytes after the trailer at byte {offset}")
            }
            ContainerError::TrailerTotals {
                expected_frames,
                found_frames,
                expected_bytes,
                actual_bytes,
            } => write!(
                f,
                "trailer claims {expected_frames} frames / {expected_bytes} bytes, \
                 stream holds {found_frames} frames / {actual_bytes} bytes"
            ),
            ContainerError::StreamCrc { expected, actual } => {
                write!(f, "stream CRC mismatch: stored {expected:08x}, computed {actual:08x}")
            }
            ContainerError::IndexCorrupt { offset, reason } => {
                write!(f, "seek index at byte {offset} is corrupt: {reason}")
            }
            ContainerError::TooManyFrames { offset } => {
                write!(f, "frame at byte {offset} exceeds the 32-bit sequence space")
            }
            ContainerError::RangeUnavailable { offset } => {
                write!(f, "bytes from offset {offset} are unrecoverable in this stream")
            }
            ContainerError::Config { reason } => write!(f, "container config: {reason}"),
        }
    }
}

impl std::error::Error for ContainerError {}

fn header_error_at(e: HeaderError, offset: usize) -> ContainerError {
    let offset = offset as u64;
    match e {
        HeaderError::Truncated => ContainerError::Truncated { offset },
        HeaderError::BadSync => ContainerError::BadSync { offset },
        HeaderError::BadVersion { found } => ContainerError::BadVersion { offset, found },
        HeaderError::BadCrc => ContainerError::HeaderCrc { offset },
    }
}

/// The strict structural view of a complete stream: every data frame's
/// extent plus the validated trailer. Payloads are *not* decoded or
/// CRC-checked here — [`decode_frame`] does that per frame, which is what
/// lets a parallel decoder fan the payload work out.
#[derive(Debug, Clone)]
pub struct StreamStructure {
    /// Data-frame extents, in stream order (`seq` verified to be 0,1,2,…).
    pub frames: Vec<FrameSpan>,
    /// The seek-index record's extent, when the stream carries one.
    pub index: Option<FrameSpan>,
    /// The parsed trailer record.
    pub trailer: Record,
}

/// Does the trailer's 32-bit frame count name exactly `frames` data
/// frames? Compared in `u64` so a count past 2³² can never alias a small
/// trailer value through truncation.
pub(crate) fn trailer_frames_match(trailer_seq: u32, frames: u64) -> bool {
    u64::from(trailer_seq) == frames
}

/// The sequence number the next data frame must carry, or `None` once the
/// count leaves the header's 32-bit sequence space (a valid stream can
/// never get there — the trailer could not describe it).
pub(crate) fn next_expected_seq(frames: usize) -> Option<u32> {
    u32::try_from(frames).ok()
}

/// Saturating view of a frame count for error reports whose field is u32.
pub(crate) fn frames_found_u32(frames: usize) -> u32 {
    u32::try_from(frames).unwrap_or(u32::MAX)
}

/// Record extent from a trusted header: `pos + HEADER_LEN + clen`, checked
/// so a hostile `clen` near the address-space limit reports
/// [`ContainerError::Truncated`] instead of wrapping (release) or
/// panicking (debug) on 32-bit hosts — the same `saturating_add` shape the
/// salvage scanner and resume scan already use.
fn record_end(pos: usize, clen: u32, len: usize) -> Result<(usize, usize), ContainerError> {
    let payload_start =
        pos.checked_add(HEADER_LEN).ok_or(ContainerError::Truncated { offset: pos as u64 })?;
    let end = payload_start
        .checked_add(clen as usize)
        .ok_or(ContainerError::Truncated { offset: pos as u64 })?;
    if end > len {
        return Err(ContainerError::Truncated { offset: pos as u64 });
    }
    Ok((payload_start, end))
}

/// Strictly scan a complete LZFC stream's record chain.
///
/// # Errors
/// The first structural deviation: bad sync/version/CRC, out-of-order
/// sequence numbers, unknown codec, a record past the end of the buffer,
/// a malformed seek index, a missing trailer, or bytes after it.
pub fn check_structure(bytes: &[u8]) -> Result<StreamStructure, ContainerError> {
    check_structure_with(bytes, true)
}

/// [`check_structure`] with the seek-index *content* check optional.
///
/// The range reader's scan fallback passes `verify_index: false`: when it
/// already knows the index payload is bad it still wants the data-frame
/// chain, whose headers and extents are validated independently of the
/// index bytes. Record-level index checks (its own header CRC, its extent,
/// its position after the last data frame) always run.
pub(crate) fn check_structure_with(
    bytes: &[u8],
    verify_index: bool,
) -> Result<StreamStructure, ContainerError> {
    let mut frames: Vec<FrameSpan> = Vec::new();
    let mut index: Option<FrameSpan> = None;
    let mut pos = 0usize;
    loop {
        let rec = parse_record(&bytes[pos..]).map_err(|e| header_error_at(e, pos))?;
        if rec.trailer {
            let after = pos + HEADER_LEN;
            if after != bytes.len() {
                return Err(ContainerError::TrailingBytes { offset: after as u64 });
            }
            if !trailer_frames_match(rec.seq, frames.len() as u64) {
                return Err(ContainerError::TrailerTotals {
                    expected_frames: rec.seq,
                    found_frames: frames_found_u32(frames.len()),
                    expected_bytes: rec.total_uncompressed(),
                    actual_bytes: frames.iter().map(|s| u64::from(s.record.ulen)).sum(),
                });
            }
            if verify_index {
                if let Some(ref span) = index {
                    index::check_index_span(bytes, span, &frames)?;
                }
            }
            return Ok(StreamStructure { frames, index, trailer: rec });
        }
        if rec.index {
            if index.is_some() {
                return Err(ContainerError::IndexCorrupt {
                    offset: pos as u64,
                    reason: "more than one index record",
                });
            }
            let (payload_start, end) = record_end(pos, rec.clen, bytes.len())?;
            index = Some(FrameSpan { header_start: pos, payload_start, end, record: rec });
            pos = end;
            continue;
        }
        if index.is_some() {
            // The writer only ever emits the index after the last data
            // frame; a data frame behind it is structural damage.
            return Err(ContainerError::IndexCorrupt {
                offset: pos as u64,
                reason: "data frame after the index record",
            });
        }
        if rec.codec().is_none() {
            return Err(ContainerError::UnknownCodec { offset: pos as u64, bits: rec.codec_bits });
        }
        let Some(expected) = next_expected_seq(frames.len()) else {
            return Err(ContainerError::TooManyFrames { offset: pos as u64 });
        };
        if rec.seq != expected {
            return Err(ContainerError::SeqMismatch {
                offset: pos as u64,
                expected,
                found: rec.seq,
            });
        }
        let (payload_start, end) = record_end(pos, rec.clen, bytes.len())?;
        frames.push(FrameSpan { header_start: pos, payload_start, end, record: rec });
        pos = end;
    }
}

/// Record extents of a stream (data frames + trailer as the last span) —
/// the map the frame-targeted fault mutator corrupts against.
///
/// # Errors
/// Propagates [`check_structure`] failures.
pub fn frame_spans(bytes: &[u8]) -> Result<Vec<FrameSpan>, ContainerError> {
    let s = check_structure(bytes)?;
    let mut spans = s.frames;
    let trailer_start = bytes.len() - HEADER_LEN;
    spans.push(FrameSpan {
        header_start: trailer_start,
        payload_start: bytes.len(),
        end: bytes.len(),
        record: s.trailer,
    });
    Ok(spans)
}

/// Verify and decode one data frame's payload.
///
/// # Errors
/// [`ContainerError::PayloadCrc`] when the stored bytes fail their CRC,
/// [`ContainerError::PayloadDecode`] when the codec fails, and
/// [`ContainerError::FrameLength`] when the decoded size disagrees with
/// the header.
pub fn decode_frame(bytes: &[u8], span: &FrameSpan) -> Result<Vec<u8>, ContainerError> {
    let rec = &span.record;
    let payload = &bytes[span.payload_start..span.end];
    if lzfpga_deflate::crc32::crc32(payload) != rec.payload_crc {
        return Err(ContainerError::PayloadCrc { seq: rec.seq, offset: span.header_start as u64 });
    }
    let data = match rec.codec() {
        Some(Codec::Raw) => payload.to_vec(),
        Some(Codec::FixedZlib | Codec::ZlibChunk) => {
            let limits = Limits::none().with_max_output_bytes(u64::from(rec.ulen));
            zlib_decompress_limited(payload, &limits).map_err(|_| {
                ContainerError::PayloadDecode { seq: rec.seq, offset: span.header_start as u64 }
            })?
        }
        None => {
            return Err(ContainerError::UnknownCodec {
                offset: span.header_start as u64,
                bits: rec.codec_bits,
            })
        }
    };
    if data.len() as u64 != u64::from(rec.ulen) {
        return Err(ContainerError::FrameLength {
            seq: rec.seq,
            expected: u64::from(rec.ulen),
            actual: data.len() as u64,
        });
    }
    Ok(data)
}

/// Strictly decode a complete LZFC stream back to the original bytes.
///
/// # Errors
/// Any structural deviation, per-frame failure, or trailer mismatch —
/// see [`ContainerError`]. For damaged streams, use [`salvage`] instead.
pub fn unframe(bytes: &[u8]) -> Result<Vec<u8>, ContainerError> {
    let structure = check_structure(bytes)?;
    let mut out = Vec::new();
    let mut crc = Crc32::new();
    for span in &structure.frames {
        let data = decode_frame(bytes, span)?;
        crc.update(&data);
        out.extend_from_slice(&data);
    }
    finish_stream_checks(&structure, out.len() as u64, crc.finish())?;
    Ok(out)
}

/// The trailer-vs-decoded cross-checks shared by the serial and parallel
/// strict decoders.
///
/// # Errors
/// [`ContainerError::TrailerTotals`] or [`ContainerError::StreamCrc`].
pub fn finish_stream_checks(
    structure: &StreamStructure,
    decoded_bytes: u64,
    stream_crc: u32,
) -> Result<(), ContainerError> {
    let t = &structure.trailer;
    if t.total_uncompressed() != decoded_bytes {
        return Err(ContainerError::TrailerTotals {
            expected_frames: t.seq,
            found_frames: frames_found_u32(structure.frames.len()),
            expected_bytes: t.total_uncompressed(),
            actual_bytes: decoded_bytes,
        });
    }
    if t.payload_crc != stream_crc {
        return Err(ContainerError::StreamCrc { expected: t.payload_crc, actual: stream_crc });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lzfpga_lzss::LzssParams;
    use lzfpga_workloads::{generate, Corpus};

    fn frame_up(data: &[u8], frame_bytes: usize) -> Vec<u8> {
        let cfg = FrameConfig { frame_bytes, ..FrameConfig::default() };
        let mut w = FrameWriter::new(Vec::new(), cfg, LzssParams::paper_fast()).unwrap();
        std::io::Write::write_all(&mut w, data).unwrap();
        let (out, _) = w.finish().unwrap();
        out
    }

    #[test]
    fn strict_roundtrip_multi_frame() {
        let data = generate(Corpus::Wiki, 3, 100_000);
        let stream = frame_up(&data, 16 * 1024);
        assert_eq!(unframe(&stream).unwrap(), data);
        let spans = frame_spans(&stream).unwrap();
        assert_eq!(spans.len(), 8); // 7 frames + trailer
        assert!(spans.last().unwrap().record.trailer);
    }

    #[test]
    fn empty_stream_is_a_bare_trailer() {
        let stream = frame_up(b"", 4 * 1024);
        assert_eq!(stream.len(), HEADER_LEN);
        assert_eq!(unframe(&stream).unwrap(), b"");
        let s = check_structure(&stream).unwrap();
        assert!(s.frames.is_empty());
        assert_eq!(s.trailer.seq, 0);
    }

    #[test]
    fn every_single_byte_corruption_is_a_typed_error() {
        let data = generate(Corpus::LogLines, 5, 20_000);
        let stream = frame_up(&data, 8 * 1024);
        for pos in 0..stream.len() {
            let mut bad = stream.clone();
            bad[pos] ^= 0x10;
            let err = unframe(&bad).expect_err(&format!("byte {pos} accepted"));
            // Any variant is fine; Display must not panic either.
            let _ = err.to_string();
        }
    }

    #[test]
    fn truncation_is_truncated_or_missing_trailer() {
        let data = generate(Corpus::JsonTelemetry, 2, 30_000);
        let stream = frame_up(&data, 8 * 1024);
        for keep in [0, 1, HEADER_LEN, HEADER_LEN + 10, stream.len() - 1] {
            let err = unframe(&stream[..keep]).unwrap_err();
            assert!(
                matches!(err, ContainerError::Truncated { .. } | ContainerError::BadSync { .. }),
                "keep {keep}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut stream = frame_up(b"hello framed world", 4 * 1024);
        stream.push(0);
        assert!(matches!(unframe(&stream), Err(ContainerError::TrailingBytes { .. })));
    }

    #[test]
    fn reordered_frames_rejected_by_seq() {
        let data = generate(Corpus::Wiki, 9, 40_000);
        let stream = frame_up(&data, 8 * 1024);
        let spans = frame_spans(&stream).unwrap();
        assert!(spans.len() >= 4);
        // Swap the first two frames wholesale: headers stay intact, so the
        // sequence check (not a CRC) must catch it.
        let (a, b) = (spans[0], spans[1]);
        let mut swapped = Vec::new();
        swapped.extend_from_slice(&stream[b.header_start..b.end]);
        swapped.extend_from_slice(&stream[a.header_start..a.end]);
        swapped.extend_from_slice(&stream[b.end..]);
        assert!(matches!(
            unframe(&swapped),
            Err(ContainerError::SeqMismatch { expected: 0, found: 1, .. })
        ));
    }

    #[test]
    fn hostile_clen_near_u32_max_is_a_typed_truncation() {
        let data = generate(Corpus::Wiki, 11, 10_000);
        let stream = frame_up(&data, 8 * 1024);
        let spans = frame_spans(&stream).unwrap();
        let victim = spans[0];
        // Forge frame 0's header to claim a 4 GiB payload with a VALID
        // header CRC: only checked extent arithmetic stands between this
        // and a wrap on 32-bit hosts.
        let mut h = [0u8; HEADER_LEN];
        h[..4].copy_from_slice(&SYNC);
        h[4] = VERSION;
        h[5] = 0x01; // fixed-zlib codec bits
        h[6..10].copy_from_slice(&0u32.to_le_bytes());
        h[10..14].copy_from_slice(&(8 * 1024u32).to_le_bytes());
        h[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        h[18..22].copy_from_slice(&0u32.to_le_bytes());
        let crc = lzfpga_deflate::crc32::crc32(&h[..22]);
        h[22..26].copy_from_slice(&crc.to_le_bytes());
        let mut bad = stream.clone();
        bad[victim.header_start..victim.payload_start].copy_from_slice(&h);
        assert!(matches!(unframe(&bad), Err(ContainerError::Truncated { offset: 0 })));
        // The recovery path declines it without panicking, too.
        let _ = salvage(&bad);
    }

    #[test]
    fn record_end_is_checked_at_the_address_space_edge() {
        // Ends exactly at the buffer end: fine.
        assert_eq!(record_end(0, 4, HEADER_LEN + 4).unwrap(), (HEADER_LEN, HEADER_LEN + 4));
        assert!(record_end(10, 6, 10 + HEADER_LEN + 6).is_ok());
        // One byte past: typed truncation at the record's own offset.
        assert!(matches!(
            record_end(10, 7, 10 + HEADER_LEN + 6),
            Err(ContainerError::Truncated { offset: 10 })
        ));
        // A position + clen pair that would wrap `usize` must report the
        // same typed truncation, never overflow.
        assert!(matches!(
            record_end(usize::MAX - 10, u32::MAX, usize::MAX),
            Err(ContainerError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_count_comparisons_hold_past_the_32_bit_boundary() {
        // Trailer frame counts compare in u64: a stream holding exactly
        // 2^32 frames can never alias a trailer claiming 0 through `as`
        // truncation (the bug this pins down).
        assert!(trailer_frames_match(0, 0));
        assert!(trailer_frames_match(u32::MAX, u64::from(u32::MAX)));
        assert!(!trailer_frames_match(0, 1u64 << 32));
        assert!(!trailer_frames_match(u32::MAX, (1u64 << 32) + u64::from(u32::MAX)));
        // Sequence issuance stops when the header field runs out…
        assert_eq!(next_expected_seq(0), Some(0));
        assert_eq!(next_expected_seq(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(next_expected_seq(u32::MAX as usize + 1), None);
        // …and u32 report fields saturate instead of silently truncating.
        assert_eq!(frames_found_u32(7), 7);
        assert_eq!(frames_found_u32(usize::MAX), u32::MAX);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ContainerError::StreamCrc { expected: 0xAABBCCDD, actual: 0x11223344 };
        assert!(e.to_string().contains("aabbccdd"));
        let e = ContainerError::SeqMismatch { offset: 26, expected: 1, found: 3 };
        assert!(e.to_string().contains("frame 3"));
    }
}
