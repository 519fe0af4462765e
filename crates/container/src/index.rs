//! The LZFC seek index: O(1) random access into a framed stream.
//!
//! The index is one [`crate::FLAG_INDEX`] record written between the last
//! data frame and the trailer. Its payload maps every frame to its
//! container byte offset and its cumulative uncompressed offset, so a
//! range reader can binary-search the frames covering `start..end` and
//! seek straight to them — O(1) per frame instead of O(stream).
//!
//! Payload layout for `n` frames (all integers little-endian,
//! `clen = 24 + 16·n`):
//!
//! ```text
//! offset     size field
//! 0          4    index magic          "LZXI"
//! 4          4    frame count          n (u32)
//! 8  + 16·i  8    entry i: header_start  (u64, container offset of frame i)
//! 16 + 16·i  8    entry i: ustart        (u64, cumulative uncompressed offset)
//! 8  + 16·n  8    total uncompressed bytes (u64, cross-checks the trailer)
//! 16 + 16·n  8    self offset          (u64, container offset of this record)
//! ```
//!
//! The record's header CRC protects the lengths, its payload CRC protects
//! every payload byte above, and the trailing self-offset word sits at a
//! fixed distance from the end of the stream (immediately before the
//! trailer record), which is what makes [`load_index`] O(1): read the last
//! `HEADER_LEN + 8` bytes, follow the pointer, verify.
//!
//! **Backward compatibility.** Old streams simply lack the record —
//! everything here degrades to a scan. Old (pre-index) readers meet an
//! index record as a data record with reserved codec bits: the strict
//! decoder fails *closed* with its typed `UnknownCodec` error (it can
//! never splice index bytes into output), and the salvage decoder skips
//! the record precisely via its CRC-trusted `clen` — but only when the
//! skip lands exactly on a valid trailer, the one place a legitimate
//! index can sit. An index record anywhere else is treated as damage
//! (its `clen` could be a CRC-valid lie spanning real data frames), so
//! the scanner resyncs through it instead of trusting the skip. Nothing
//! panics and no byte is mis-served in either direction.

use crate::format::{encode_index_header, parse_record, FrameSpan, HEADER_LEN};
use crate::ContainerError;
use lzfpga_deflate::crc32::crc32;

/// First four payload bytes of every index record.
pub const INDEX_MAGIC: [u8; 4] = *b"LZXI";

/// Fixed payload bytes besides the 16-byte per-frame entries: magic,
/// frame count, total-uncompressed word, self-offset word.
const FIXED_PAYLOAD: usize = 4 + 4 + 8 + 8;

/// One frame's position in the stream, as recorded by the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Container byte offset of the frame's record header.
    pub header_start: u64,
    /// Uncompressed byte offset where the frame's data begins (cumulative
    /// sum of the preceding frames' `ulen`s).
    pub ustart: u64,
}

/// Why a stream's seek index could not be used. Every variant is a typed,
/// reportable reason — a faulted index never panics, it routes the reader
/// to the scan/salvage fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexFault {
    /// The stream carries no index record (too short, no trailer, or the
    /// word before the trailer does not point at one).
    Missing,
    /// The self-offset pointer lies outside the stream or misaligns the
    /// record against the trailer.
    BadPointer,
    /// The record at the pointed-to offset failed header checks or is not
    /// an index record.
    BadHeader,
    /// The index payload failed its CRC-32.
    BadPayloadCrc,
    /// The payload does not open with [`INDEX_MAGIC`].
    BadMagic,
    /// The payload is shorter than its own frame count requires.
    Truncated,
    /// The payload parses but contradicts itself or the trailer.
    Inconsistent {
        /// What disagreed.
        reason: &'static str,
    },
    /// A frame the index pointed at failed verification when it was
    /// actually read — the index lied about the stream.
    FrameMismatch {
        /// The frame the reader was seeking.
        seq: u32,
    },
    /// A failpoint injected an index-load failure (test infrastructure;
    /// never produced by real streams).
    Injected,
}

impl std::fmt::Display for IndexFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IndexFault::Missing => f.write_str("stream carries no seek index"),
            IndexFault::BadPointer => f.write_str("index self-offset points outside the stream"),
            IndexFault::BadHeader => f.write_str("index record header is damaged"),
            IndexFault::BadPayloadCrc => f.write_str("index payload failed its CRC"),
            IndexFault::BadMagic => f.write_str("index payload magic is wrong"),
            IndexFault::Truncated => f.write_str("index payload is shorter than its frame count"),
            IndexFault::Inconsistent { reason } => write!(f, "index is inconsistent: {reason}"),
            IndexFault::FrameMismatch { seq } => {
                write!(f, "index lied about frame {seq}")
            }
            IndexFault::Injected => f.write_str("index load failed by fault injection"),
        }
    }
}

/// Stable snake_case tag for reports and telemetry.
impl IndexFault {
    /// One-word machine-readable name of the fault class.
    pub fn tag(&self) -> &'static str {
        match self {
            IndexFault::Missing => "missing",
            IndexFault::BadPointer => "bad_pointer",
            IndexFault::BadHeader => "bad_header",
            IndexFault::BadPayloadCrc => "bad_payload_crc",
            IndexFault::BadMagic => "bad_magic",
            IndexFault::Truncated => "truncated",
            IndexFault::Inconsistent { .. } => "inconsistent",
            IndexFault::FrameMismatch { .. } => "frame_mismatch",
            IndexFault::Injected => "injected",
        }
    }
}

/// A validated, loaded seek index.
#[derive(Debug, Clone)]
pub struct LoadedIndex {
    /// Per-frame positions, in frame order.
    pub entries: Vec<IndexEntry>,
    /// Total uncompressed bytes the stream decodes to.
    pub total_uncompressed: u64,
    /// Extent of the index record itself (the fault mutator's target).
    pub span: FrameSpan,
}

/// Encode the complete index section (record header + payload) for a
/// stream whose index record will start at container offset
/// `self_offset`. The writer and the chunk-parallel framer both route
/// through this one encoder, which is what keeps their streams
/// byte-identical.
///
/// # Panics
/// Panics if `entries.len()` exceeds `u32` — unreachable behind the
/// writer's own frame-count guard.
pub fn encode_index_section(
    entries: &[IndexEntry],
    total_uncompressed: u64,
    self_offset: u64,
) -> Vec<u8> {
    let n = u32::try_from(entries.len()).expect("frame count exceeds u32");
    let mut payload = Vec::with_capacity(FIXED_PAYLOAD + 16 * entries.len());
    payload.extend_from_slice(&INDEX_MAGIC);
    payload.extend_from_slice(&n.to_le_bytes());
    for e in entries {
        payload.extend_from_slice(&e.header_start.to_le_bytes());
        payload.extend_from_slice(&e.ustart.to_le_bytes());
    }
    payload.extend_from_slice(&total_uncompressed.to_le_bytes());
    payload.extend_from_slice(&self_offset.to_le_bytes());
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&encode_index_header(n, &payload));
    out.extend_from_slice(&payload);
    out
}

/// Total bytes the index section adds to a stream of `frames` data frames
/// (record header + payload). Zero-frame streams carry no index.
pub fn index_section_len(frames: usize) -> usize {
    if frames == 0 {
        0
    } else {
        HEADER_LEN + FIXED_PAYLOAD + 16 * frames
    }
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

/// Parse and sanity-check an index payload. Returns the entries and the
/// recorded total; the self-offset word must equal `expect_self`.
fn parse_payload(
    payload: &[u8],
    expect_self: u64,
    stream_len: u64,
) -> Result<(Vec<IndexEntry>, u64), IndexFault> {
    if payload.len() < FIXED_PAYLOAD {
        return Err(IndexFault::Truncated);
    }
    if payload[..4] != INDEX_MAGIC {
        return Err(IndexFault::BadMagic);
    }
    let n = read_u32(payload, 4) as usize;
    // Checked: on 32-bit targets a huge frame count must not wrap the
    // expected length into something the real payload could equal.
    let expected_len = 16usize.checked_mul(n).and_then(|v| v.checked_add(FIXED_PAYLOAD));
    if expected_len != Some(payload.len()) {
        return Err(IndexFault::Truncated);
    }
    let total = read_u64(payload, 8 + 16 * n);
    let self_offset = read_u64(payload, 16 + 16 * n);
    if self_offset != expect_self {
        return Err(IndexFault::Inconsistent { reason: "self-offset disagrees with position" });
    }
    let mut entries = Vec::with_capacity(n);
    let mut prev: Option<IndexEntry> = None;
    for i in 0..n {
        let e = IndexEntry {
            header_start: read_u64(payload, 8 + 16 * i),
            ustart: read_u64(payload, 16 + 16 * i),
        };
        if e.header_start >= stream_len {
            return Err(IndexFault::Inconsistent { reason: "frame offset outside the stream" });
        }
        if e.ustart > total {
            return Err(IndexFault::Inconsistent { reason: "frame data offset past the total" });
        }
        match prev {
            None => {
                if e.header_start != 0 || e.ustart != 0 {
                    return Err(IndexFault::Inconsistent { reason: "frame 0 not at the origin" });
                }
            }
            Some(p) => {
                if e.header_start <= p.header_start || e.ustart < p.ustart {
                    return Err(IndexFault::Inconsistent { reason: "offsets not monotonic" });
                }
            }
        }
        prev = Some(e);
        entries.push(e);
    }
    Ok((entries, total))
}

/// Locate, verify and parse a stream's seek index in O(1): read the
/// self-offset word sitting just before the trailer, follow it, and check
/// the record header CRC, the payload CRC, and the payload's internal
/// consistency against the trailer.
///
/// # Errors
/// A typed [`IndexFault`]; the caller degrades to a scan. This function
/// never panics on any input.
pub fn load_index(bytes: &[u8]) -> Result<LoadedIndex, IndexFault> {
    // Smallest indexed stream: one data frame record + index + trailer.
    if bytes.len() < HEADER_LEN + index_section_len(1) + HEADER_LEN {
        return Err(IndexFault::Missing);
    }
    let trailer_start = bytes.len() - HEADER_LEN;
    let trailer = match parse_record(&bytes[trailer_start..]) {
        Ok(rec) if rec.trailer => rec,
        _ => return Err(IndexFault::Missing),
    };
    // On an un-indexed stream the word before the trailer is arbitrary
    // payload data, so failures up to the point where a checksummed index
    // record header is confirmed report `Missing`, not a specific fault.
    let self_offset = read_u64(bytes, trailer_start - 8);
    let Ok(start) = usize::try_from(self_offset) else {
        return Err(IndexFault::Missing);
    };
    // Checked: the word is attacker-controlled, and a start near
    // usize::MAX must not wrap past the bound below.
    let Some(need) = start.checked_add(HEADER_LEN + FIXED_PAYLOAD) else {
        return Err(IndexFault::Missing);
    };
    if need > trailer_start {
        return Err(IndexFault::Missing);
    }
    let rec = match parse_record(&bytes[start..]) {
        Ok(rec) if rec.index => rec,
        Ok(_) => return Err(IndexFault::Missing),
        // Sync magic present but the header is damaged: strong evidence an
        // index record was here. No sync at all: the pointer was garbage.
        Err(crate::HeaderError::BadVersion { .. } | crate::HeaderError::BadCrc) => {
            return Err(IndexFault::BadHeader)
        }
        Err(_) => return Err(IndexFault::Missing),
    };
    let payload_start = start + HEADER_LEN;
    if payload_start.checked_add(rec.clen as usize) != Some(trailer_start) {
        return Err(IndexFault::BadPointer);
    }
    let payload = &bytes[payload_start..trailer_start];
    if crc32(payload) != rec.payload_crc {
        return Err(IndexFault::BadPayloadCrc);
    }
    let (entries, total) = parse_payload(payload, self_offset, bytes.len() as u64)?;
    if entries.len() as u64 != u64::from(rec.seq) {
        return Err(IndexFault::Inconsistent { reason: "entry count disagrees with record seq" });
    }
    if u64::from(trailer.seq) != entries.len() as u64 {
        return Err(IndexFault::Inconsistent { reason: "frame count disagrees with trailer" });
    }
    if trailer.total_uncompressed() != total {
        return Err(IndexFault::Inconsistent { reason: "total bytes disagree with trailer" });
    }
    Ok(LoadedIndex {
        entries,
        total_uncompressed: total,
        span: FrameSpan { header_start: start, payload_start, end: trailer_start, record: rec },
    })
}

/// Strict validation of an index record against the data frames the
/// structure scan actually walked — called by `check_structure` so the
/// strict decoder's "every deviation is a typed error" contract covers
/// every index byte too.
pub(crate) fn check_index_span(
    bytes: &[u8],
    span: &FrameSpan,
    frames: &[FrameSpan],
) -> Result<(), ContainerError> {
    let offset = span.header_start as u64;
    let fail = |reason: &'static str| ContainerError::IndexCorrupt { offset, reason };
    let payload = &bytes[span.payload_start..span.end];
    if crc32(payload) != span.record.payload_crc {
        return Err(fail("payload CRC mismatch"));
    }
    if span.record.ulen != 0 {
        return Err(fail("nonzero ulen"));
    }
    let (entries, total) = parse_payload(payload, offset, bytes.len() as u64)
        .map_err(|_| fail("payload malformed"))?;
    if u64::from(span.record.seq) != frames.len() as u64 || entries.len() != frames.len() {
        return Err(fail("frame count mismatch"));
    }
    let mut ustart = 0u64;
    for (e, f) in entries.iter().zip(frames) {
        if e.header_start != f.header_start as u64 || e.ustart != ustart {
            return Err(fail("entry disagrees with stream"));
        }
        ustart += u64::from(f.record.ulen);
    }
    if total != ustart {
        return Err(fail("total bytes disagree with frames"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize) -> Vec<IndexEntry> {
        (0..n)
            .map(|i| IndexEntry { header_start: (i * 1000) as u64, ustart: (i * 900) as u64 })
            .collect()
    }

    #[test]
    fn section_len_matches_encoder() {
        for n in [1usize, 2, 7, 100] {
            let section = encode_index_section(&entries(n), (n * 900) as u64, 5000);
            assert_eq!(section.len(), index_section_len(n));
        }
        assert_eq!(index_section_len(0), 0);
    }

    #[test]
    fn payload_rejects_nonmonotonic_entries() {
        let mut e = entries(3);
        e[2].header_start = e[1].header_start; // duplicate offset
        let section = encode_index_section(&e, 2700, 0);
        let payload = &section[HEADER_LEN..];
        assert!(matches!(parse_payload(payload, 0, 1 << 40), Err(IndexFault::Inconsistent { .. })));
    }

    #[test]
    fn payload_rejects_origin_violation() {
        let mut e = entries(2);
        e[0].ustart = 5;
        let section = encode_index_section(&e, 2700, 0);
        assert!(matches!(
            parse_payload(&section[HEADER_LEN..], 0, 1 << 40),
            Err(IndexFault::Inconsistent { .. })
        ));
    }

    #[test]
    fn fault_display_and_tags_are_stable() {
        let faults = [
            IndexFault::Missing,
            IndexFault::BadPointer,
            IndexFault::BadHeader,
            IndexFault::BadPayloadCrc,
            IndexFault::BadMagic,
            IndexFault::Truncated,
            IndexFault::Inconsistent { reason: "x" },
            IndexFault::FrameMismatch { seq: 3 },
        ];
        let mut tags = std::collections::BTreeSet::new();
        for f in faults {
            assert!(!f.to_string().is_empty());
            tags.insert(f.tag());
        }
        assert_eq!(tags.len(), faults.len(), "tags must be distinct");
    }

    #[test]
    fn hostile_self_offset_near_u64_max_is_a_typed_fault() {
        use crate::writer::{FrameConfig, FrameWriter};
        use lzfpga_lzss::LzssParams;
        use std::io::Write as _;

        let mut w =
            FrameWriter::new(Vec::new(), FrameConfig::default(), LzssParams::paper_fast()).unwrap();
        w.write_all(&vec![0xA5u8; 10_000]).unwrap();
        let (stream, _) = w.finish().unwrap();
        assert!(load_index(&stream).is_ok());
        // Overwrite the self-offset word (the 8 bytes before the trailer)
        // with values whose `start + HEADER_LEN + FIXED_PAYLOAD` would
        // wrap: must be a typed fault, never an overflow panic or an
        // out-of-bounds slice.
        let at = stream.len() - HEADER_LEN - 8;
        for k in [0u64, 1, 7, HEADER_LEN as u64, (FIXED_PAYLOAD + HEADER_LEN) as u64] {
            let mut bad = stream.clone();
            bad[at..at + 8].copy_from_slice(&(u64::MAX - k).to_le_bytes());
            assert!(load_index(&bad).is_err(), "self_offset = u64::MAX - {k}");
        }
        // An in-range but wrong pointer is also a typed fault.
        let mut bad = stream.clone();
        bad[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
        assert!(load_index(&bad).is_err());
    }

    #[test]
    fn huge_frame_count_in_payload_is_truncated_not_wrapped() {
        // A payload claiming u32::MAX frames: `16 * n + FIXED_PAYLOAD`
        // must be computed checked (it wraps usize on 32-bit targets).
        let mut payload = Vec::new();
        payload.extend_from_slice(&INDEX_MAGIC);
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]);
        assert!(matches!(parse_payload(&payload, 0, 1 << 40), Err(IndexFault::Truncated)));
    }

    #[test]
    fn load_index_rejects_arbitrary_bytes() {
        // Anything that is not a well-formed indexed stream is a typed
        // fault, never a panic.
        for len in [0usize, 1, HEADER_LEN, 200] {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            assert!(load_index(&junk).is_err());
        }
    }
}
