//! Random-access (range-decode) invariants, exercised through the public
//! facade.
//!
//! The contract under test, end to end:
//!
//! * `decode_range(a..b)` is byte-identical to `full_decode[a..b]` across
//!   random frame sizes, boundary-straddling ranges, empty ranges and
//!   ranges past EOF — from the seek index, from the scan fallback, and
//!   through the parallel range decoder.
//! * The work is O(frames-in-range): telemetry counters prove untouched
//!   frames are never inflated, and the cache serves repeats.
//! * A corrupted index — *every single byte* of it, plus a CRC-valid
//!   lying one — degrades to the scan/salvage ladder with a typed report
//!   and never serves wrong bytes.
//! * Un-indexed streams (PR-5 vintage, `index: false`) still open, serve
//!   and decode exactly as before.

use std::io::Write;

use lzfpga::container::{
    check_structure, open_indexed, open_indexed_with, unframe, ContainerError, FrameConfig,
    FrameWriter, IndexEntry, IndexSource, HEADER_LEN,
};
use lzfpga::faults::StreamMutator;
use lzfpga::lzss::LzssParams;
use lzfpga::parallel::decode_range_parallel;
use lzfpga::workloads::{generate, Corpus};

fn params() -> LzssParams {
    LzssParams::paper_fast()
}

fn frame_up_cfg(data: &[u8], frame_bytes: usize, index: bool) -> Vec<u8> {
    let cfg = FrameConfig { frame_bytes, collect_events: false, index };
    let mut w = FrameWriter::new(Vec::new(), cfg, params()).unwrap();
    w.write_all(data).unwrap();
    w.finish().unwrap().0
}

fn frame_up(data: &[u8], frame_bytes: usize) -> Vec<u8> {
    frame_up_cfg(data, frame_bytes, true)
}

/// Deterministic xorshift for range fuzzing (no external RNG deps).
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[test]
fn decode_range_matches_full_decode_slice_everywhere() {
    let mut rng = Rng(0x5EED_CAFE);
    // Random frame sizes (some tiny, so many boundaries) × range shapes.
    for &(seed, size, frame_bytes) in &[
        (3u64, 100_000usize, 1usize + 700),
        (5, 60_000, 4 * 1024),
        (7, 30_000, 64 * 1024), // single frame
        (11, 0, 8 * 1024),      // empty stream
    ] {
        let data = generate(Corpus::Mixed, seed, size);
        let stream = frame_up(&data, frame_bytes);
        assert_eq!(unframe(&stream).unwrap(), data, "stream must stay strict-decodable");
        let total = data.len() as u64;
        let mut reader = open_indexed(&stream);
        assert_eq!(reader.total_uncompressed(), total);
        if size > 0 {
            assert_eq!(reader.report().source, IndexSource::Index);
        }
        // An inverted range is a hostile input here, not an iteration bug:
        // the reader must serve it as empty.
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 9..7;
        let mut ranges = vec![
            0..0,                                // empty at origin
            total..total,                        // empty at EOF
            0..total,                            // everything
            total..total + 999,                  // entirely past EOF
            total.saturating_sub(3)..total + 50, // straddles EOF
            inverted,
        ];
        for _ in 0..40 {
            let a = rng.below(total + 20);
            let b = a + rng.below((frame_bytes as u64) * 3);
            ranges.push(a..b);
        }
        for r in ranges {
            let got = reader.decode_range(r.clone()).unwrap();
            let lo = (r.start.min(total)) as usize;
            let hi = (r.end.min(total)).max(r.start.min(total)) as usize;
            let want = &data[lo.min(hi)..hi];
            assert_eq!(got, want, "range {r:?} on frame_bytes={frame_bytes}");
            // The parallel range decoder agrees byte for byte.
            let par = decode_range_parallel(&stream, r.clone(), 3).unwrap();
            assert_eq!(par, want, "parallel range {r:?}");
        }
    }
}

#[test]
fn range_work_is_bounded_by_covering_frames_and_cache_serves_repeats() {
    let data = generate(Corpus::LogLines, 13, 96 * 1024);
    let stream = frame_up(&data, 8 * 1024); // 12 frames
    let mut reader = open_indexed(&stream);

    // A 2-frame range: exactly 2 frames touched, 2 decoded, on a 12-frame
    // stream — the O(frames-in-range) proof.
    let out = reader.decode_range(10_000..20_000).unwrap();
    assert_eq!(out, &data[10_000..20_000]);
    let c = reader.counters();
    assert_eq!(c.frames_in_range, 2, "{c:?}");
    assert_eq!(c.frames_decoded, 2, "{c:?}");
    assert_eq!(c.cache_misses, 2, "{c:?}");

    // Serve the same range again: all hits, zero new decodes.
    let again = reader.decode_range(10_000..20_000).unwrap();
    assert_eq!(again, out);
    let c = reader.counters();
    assert_eq!(c.frames_decoded, 2, "repeat must not re-inflate: {c:?}");
    assert_eq!(c.cache_hits, 2, "{c:?}");

    // A zero-budget cache still serves correctly, just without hits.
    let mut cold = open_indexed_with(&stream, 0);
    assert_eq!(cold.decode_range(10_000..20_000).unwrap(), out);
    assert_eq!(cold.decode_range(10_000..20_000).unwrap(), out);
    let c = cold.counters();
    assert_eq!(c.cache_hits, 0, "{c:?}");
    assert_eq!(c.frames_decoded, 4, "{c:?}");

    // A one-frame budget evicts under pressure and keeps counting.
    let mut tiny = open_indexed_with(&stream, 8 * 1024);
    assert_eq!(tiny.decode_range(0..40_000).unwrap(), &data[..40_000]);
    let c = tiny.counters();
    assert!(c.cache_evictions >= 4, "{c:?}");
    assert!(c.cache_bytes <= 8 * 1024, "{c:?}");
}

#[test]
fn every_byte_corruption_of_the_index_never_serves_wrong_bytes() {
    let data = generate(Corpus::JsonTelemetry, 17, 48 * 1024);
    let stream = frame_up(&data, 8 * 1024);
    let s = check_structure(&stream).unwrap();
    let span = s.index.expect("stream carries an index");

    for pos in span.header_start..span.end {
        let mut bad = stream.clone();
        bad[pos] ^= 0x20;
        let mut reader = open_indexed(&bad);
        let report = reader.report();
        // The index can no longer be trusted; the reader must be off it.
        assert_ne!(
            report.source,
            IndexSource::Index,
            "byte {pos}: corrupt index accepted ({report:?})"
        );
        assert!(report.fault.is_some(), "byte {pos}: no typed fault recorded");
        // And every byte it serves is still the right byte.
        for r in [0u64..data.len() as u64, 5_000..21_000, 47_000..60_000] {
            let got = reader.decode_range(r.clone()).expect("data frames are undamaged");
            let lo = (r.start as usize).min(data.len());
            let hi = (r.end as usize).min(data.len());
            assert_eq!(got, &data[lo..hi], "byte {pos}, range {r:?}");
        }
    }
}

#[test]
fn index_corruption_storm_with_structured_mutations() {
    let data = generate(Corpus::Mixed, 19, 64 * 1024);
    let stream = frame_up(&data, 8 * 1024);
    let s = check_structure(&stream).unwrap();
    let span = s.index.unwrap();
    let site = lzfpga::faults::FrameSite {
        header_start: span.header_start,
        payload_start: span.payload_start,
        end: span.end,
    };
    let mut m = StreamMutator::new(0xD00D);
    for _ in 0..300 {
        let mutant = m.mutate_index(&stream, site);
        let mut reader = open_indexed(&mutant.bytes);
        let report = reader.report();
        // Whatever the mutation did, a prefix range must come back exact
        // or be refused with the typed range error — never wrong bytes.
        match reader.decode_range(0..16 * 1024) {
            Ok(got) => assert_eq!(got, &data[..16 * 1024], "{}: wrong bytes", mutant.kind),
            Err(e) => assert!(
                matches!(e, ContainerError::RangeUnavailable { .. }),
                "{}: unexpected error {e} ({report:?})",
                mutant.kind
            ),
        }
    }
}

#[test]
fn crc_valid_lying_index_degrades_with_frame_mismatch() {
    use lzfpga::container::index::encode_index_section;

    let data = generate(Corpus::Wiki, 23, 40_000);
    let stream = frame_up(&data, 8 * 1024);
    let s = check_structure(&stream).unwrap();
    let span = s.index.unwrap();

    // Rebuild the index section with every header_start shifted: the CRCs
    // are freshly valid, the pointers are lies.
    let mut lying: Vec<IndexEntry> = s
        .frames
        .iter()
        .scan(0u64, |ustart, f| {
            let e = IndexEntry {
                header_start: (f.header_start as u64).wrapping_add(26),
                ustart: *ustart,
            };
            *ustart += u64::from(f.record.ulen);
            Some(e)
        })
        .collect();
    lying[0].header_start = 0; // keep the origin invariant so load accepts it
    let section = encode_index_section(&lying, data.len() as u64, span.header_start as u64);
    assert_eq!(section.len(), span.end - span.header_start);
    let mut bad = stream.clone();
    bad[span.header_start..span.end].copy_from_slice(&section);

    // Strict decode rejects the stream outright (index content check)…
    assert!(matches!(unframe(&bad), Err(ContainerError::IndexCorrupt { .. })));

    // …while the range reader opens on the lying index, catches the first
    // mismatching frame at serve time, and re-serves correctly from scan.
    let mut reader = open_indexed(&bad);
    assert_eq!(reader.report().source, IndexSource::Index);
    let got = reader.decode_range(9_000..25_000).unwrap();
    assert_eq!(got, &data[9_000..25_000]);
    let report = reader.report();
    assert_eq!(report.source, IndexSource::Scan);
    assert!(report.fault.is_some());
    assert!(reader.counters().index_fallbacks >= 1);
}

#[test]
fn forged_midstream_index_record_never_misserves_ranges() {
    use lzfpga::container::encode_index_header;

    let data = generate(Corpus::Wiki, 41, 64 * 1024);
    let stream = frame_up(&data, 8 * 1024);
    let s = check_structure(&stream).unwrap();
    // Overwrite frame 2's header with a CRC-valid index record whose clen
    // spans frames 2 and 3: the "CRC-valid lying" adversary aimed at the
    // salvage scanner's trusted-skip path.
    let f2 = s.frames[2];
    let span_len = s.frames[3].end - f2.header_start - HEADER_LEN;
    let forged = encode_index_header(2, &vec![0u8; span_len]);
    let mut bad = stream.clone();
    bad[f2.header_start..f2.payload_start].copy_from_slice(&forged);

    let mut reader = open_indexed(&bad);
    // Ranges before the damage serve exact…
    assert_eq!(reader.decode_range(0..16 * 1024).unwrap(), &data[..16 * 1024]);
    // …and a range into the swallowed frames must degrade and refuse —
    // serving frame 4's bytes at frame 2's offsets would be the bug.
    let err = reader.decode_range(16 * 1024..32 * 1024).unwrap_err();
    assert!(matches!(err, ContainerError::RangeUnavailable { offset: 16384 }), "{err}");
    let report = reader.report();
    assert_eq!(report.source, IndexSource::Salvage);
    assert_eq!(report.serviceable_bytes, 16 * 1024);
    // The exact prefix keeps serving after degradation.
    assert_eq!(reader.decode_range(1_000..9_000).unwrap(), &data[1_000..9_000]);
}

#[test]
fn unindexed_streams_still_open_and_serve() {
    let data = generate(Corpus::LogLines, 29, 50_000);
    let plain = frame_up_cfg(&data, 8 * 1024, false);
    let indexed = frame_up_cfg(&data, 8 * 1024, true);

    // index: false reproduces the PR-5 wire format byte for byte except
    // for the absent index section.
    assert!(plain.len() < indexed.len());
    assert!(check_structure(&plain).unwrap().index.is_none());
    assert_eq!(unframe(&plain).unwrap(), data);

    let mut reader = open_indexed(&plain);
    let report = reader.report();
    assert_eq!(report.source, IndexSource::Scan);
    assert_eq!(reader.total_uncompressed(), data.len() as u64);
    let got = reader.decode_range(12_345..34_567).unwrap();
    assert_eq!(got, &data[12_345..34_567]);
    assert_eq!(decode_range_parallel(&plain, 12_345..34_567, 2).unwrap(), &data[12_345..34_567]);
}

#[test]
fn damaged_stream_serves_exact_prefix_and_refuses_the_hole() {
    let data = generate(Corpus::Mixed, 31, 64 * 1024);
    let stream = frame_up(&data, 8 * 1024);
    let s = check_structure(&stream).unwrap();
    // Kill frame 4's payload: frames 0..4 stay provable, 4 is a hole.
    let victim = s.frames[4];
    let mut bad = stream.clone();
    bad[victim.payload_start + 3] ^= 0xFF;

    let mut reader = open_indexed(&bad);
    // The index itself is fine, so the reader opens on it — the damage
    // only surfaces (and degrades the reader) when the range hits it.
    let before_hole = reader.decode_range(0..32 * 1024).unwrap();
    assert_eq!(before_hole, &data[..32 * 1024]);
    let err = reader.decode_range(30_000..40_000).unwrap_err();
    assert!(matches!(err, ContainerError::RangeUnavailable { offset: 32768 }), "{err}");
    let report = reader.report();
    assert_eq!(report.source, IndexSource::Salvage);
    assert_eq!(report.serviceable_bytes, 32 * 1024);
    // The prefix stays served after degradation, byte-exact.
    assert_eq!(reader.decode_range(100..5_000).unwrap(), &data[100..5_000]);
}

#[test]
fn empty_and_trailerless_edge_cases_hold() {
    // Empty stream: bare trailer, no index record, everything serves empty.
    let stream = frame_up(b"", 4 * 1024);
    assert_eq!(stream.len(), HEADER_LEN);
    let mut reader = open_indexed(&stream);
    assert_eq!(reader.total_uncompressed(), 0);
    assert_eq!(reader.decode_range(0..1000).unwrap(), b"");

    // Arbitrary garbage: opens through salvage, refuses every range.
    let noise = generate(Corpus::SensorFrames, 37, 4_000);
    let mut reader = open_indexed(&noise);
    assert_eq!(reader.report().source, IndexSource::Salvage);
    assert!(matches!(reader.decode_range(0..100), Err(ContainerError::RangeUnavailable { .. })));
    // The empty range is still trivially servable.
    assert_eq!(reader.decode_range(0..0).unwrap(), b"");
}

#[test]
fn a_cold_read_inflates_only_up_to_its_end_and_the_prefix_serves_reads_inside_it() {
    let data = generate(Corpus::Wiki, 43, 4 * 64 * 1024);
    let stream = frame_up(&data, 64 * 1024);
    let mut reader = open_indexed(&stream);

    // Bytes 70_000..74_096 lie in frame 1: its head is inflated up to the
    // read's end inside the frame, and not a byte further.
    let out = reader.decode_range(70_000..74_096).unwrap();
    assert_eq!(out, &data[70_000..74_096]);
    let c = reader.counters();
    assert_eq!((c.frames_decoded, c.cache_misses), (1, 1), "{c:?}");
    assert_eq!(c.bytes_inflated, 74_096 - 65_536, "{c:?}");

    // A read that ends inside the cached prefix is a hit.
    assert_eq!(reader.decode_range(65_536..70_000).unwrap(), &data[65_536..70_000]);
    let c = reader.counters();
    assert_eq!((c.frames_decoded, c.cache_hits), (1, 1), "{c:?}");
    assert_eq!(c.bytes_inflated, 74_096 - 65_536, "{c:?}");

    // One past it decodes the whole frame once, with every check, and the
    // whole frame serves every later read.
    assert_eq!(reader.decode_range(74_000..80_000).unwrap(), &data[74_000..80_000]);
    assert_eq!(reader.decode_range(66_000..131_072).unwrap(), &data[66_000..131_072]);
    let c = reader.counters();
    assert_eq!((c.frames_decoded, c.cache_hits), (2, 2), "{c:?}");
    assert_eq!(c.bytes_inflated, (74_096 - 65_536) + 65_536, "{c:?}");
    assert_eq!(c.cache_bytes, 65_536, "the whole frame replaced its prefix: {c:?}");
}

#[test]
fn sequential_steps_inflate_each_frame_at_most_twice() {
    let data = generate(Corpus::Mixed, 47, 3 * 64 * 1024 + 5_000);
    let stream = frame_up(&data, 64 * 1024);
    let total = data.len() as u64;
    let mut reader = open_indexed(&stream);
    let mut at = 0;
    while at < total {
        let stop = total.min(at + 4096);
        assert_eq!(reader.decode_range(at..stop).unwrap(), &data[at as usize..stop as usize]);
        at = stop;
    }
    let c = reader.counters();
    let frames = check_structure(&stream).unwrap().frames.len() as u64;
    assert_eq!(frames, 4);
    assert!(c.frames_decoded <= 2 * frames, "{c:?}");
    assert!(c.bytes_inflated <= 2 * total, "{c:?}");
    // Within one frame: its head once, then the whole frame once.
    let mut one = open_indexed(&stream);
    for k in 0..16u64 {
        let r = 65_536 + k * 4096..65_536 + (k + 1) * 4096;
        assert_eq!(one.decode_range(r.clone()).unwrap(), &data[r.start as usize..r.end as usize]);
    }
    let c = one.counters();
    assert_eq!(c.frames_decoded, 2, "{c:?}");
    assert_eq!(c.bytes_inflated, 4096 + 65_536, "{c:?}");
}

#[test]
fn a_payload_flip_past_the_head_is_refused_before_the_frame_serves_a_byte() {
    use lzfpga::deflate::zlib::zlib_inflate_head;

    let data = generate(Corpus::Wiki, 53, 4 * 64 * 1024);
    let stream = frame_up(&data, 64 * 1024);
    let s = check_structure(&stream).unwrap();
    let victim = s.frames[2];
    let mut bad = stream.clone();
    let flip = victim.end - 9;
    bad[flip] ^= 0x40;

    // The flipped byte lies past everything a 4 KiB head decode reads: the
    // payload alone would hand back the right bytes. Only the payload CRC,
    // checked over every stored byte first, can catch it.
    let head = zlib_inflate_head(&bad[victim.payload_start..victim.end], 4096).unwrap();
    assert_eq!(head, &data[2 * 65_536..2 * 65_536 + 4096]);

    let mut reader = open_indexed(&bad);
    assert_eq!(reader.report().source, IndexSource::Index);
    let err = reader.decode_range(2 * 65_536..2 * 65_536 + 4096).unwrap_err();
    assert!(matches!(err, ContainerError::RangeUnavailable { offset: 131_072 }), "{err}");
    let report = reader.report();
    assert_eq!(report.source, IndexSource::Salvage, "the ladder was walked: {report:?}");
    assert_eq!(report.serviceable_bytes, 2 * 65_536);
    assert_eq!(reader.counters().bytes_inflated, 0, "no byte of the frame was decoded");
    // The frames before the damage still serve exactly.
    assert_eq!(reader.decode_range(60_000..70_000).unwrap(), &data[60_000..70_000]);
    // The parallel range decoder refuses the frame with the strict error.
    assert!(matches!(
        decode_range_parallel(&bad, 2 * 65_536..2 * 65_536 + 4096, 2),
        Err(ContainerError::PayloadCrc { seq: 2, .. })
    ));
}
