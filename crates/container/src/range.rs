//! Random access into LZFC streams: [`open_indexed`] and
//! [`IndexedReader::decode_range`].
//!
//! A content server handing out byte ranges of compressed-at-rest blobs
//! cannot afford decode-everything-or-nothing: it needs to seek straight
//! to the frames covering `start..end`. Frames are independently
//! decodable, so given the seek index ([`crate::index`]) the reader does
//! O(1) work per covering frame and never touches the rest of the stream.
//! A bounded decoded-frame LRU cache sits in front of the inflater so hot
//! ranges served repeatedly don't re-inflate, with hit/miss counters
//! exported through `lzfpga-telemetry`'s [`RangeCounters`].
//!
//! **The degradation ladder.** The index is an optimization, never an
//! authority: every frame it points at is re-verified (header CRC, seq,
//! length, payload CRC) before a byte is served. When the index is
//! missing, corrupt, or lying, the reader falls back — first to a strict
//! structure scan (index ignored), then to the salvage decoder — and
//! records a typed [`IndexFault`] in its [`IndexReport`]. A damaged
//! stream serves exactly the prefix whose offsets are still provable and
//! returns [`ContainerError::RangeUnavailable`] beyond it. Wrong bytes
//! are never served; nothing here panics.

use lzfpga_faults::{Failpoints, NoFaults};
use lzfpga_telemetry::json::{obj, JsonValue};
use lzfpga_telemetry::RangeCounters;

use crate::format::{parse_record, FrameSpan, HEADER_LEN};
use crate::index::{load_index, IndexEntry, IndexFault};
use crate::salvage::{salvage, SalvageReport};
use crate::{check_structure_with, decode_frame_to, ContainerError};

/// Default decoded-frame cache budget (8 MiB ≈ 32 default-size frames).
pub const DEFAULT_CACHE_BYTES: usize = 8 << 20;

/// How the reader knows where frames live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexSource {
    /// The stream's own seek index (O(1) open).
    Index,
    /// A strict structure scan (index absent or rejected).
    Scan,
    /// The salvage decoder (stream itself is damaged).
    Salvage,
}

impl IndexSource {
    /// Stable lowercase name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            IndexSource::Index => "index",
            IndexSource::Scan => "scan",
            IndexSource::Salvage => "salvage",
        }
    }
}

/// How a reader came to know the stream: which source it is on, why it
/// left a faster one, and how many bytes it can still serve exactly.
#[derive(Debug, Clone)]
pub struct IndexReport {
    /// Current source of frame positions.
    pub source: IndexSource,
    /// Why the seek index was not (or stopped being) used.
    pub fault: Option<IndexFault>,
    /// The strict-scan error that forced the salvage fallback, when one did.
    pub scan_error: Option<ContainerError>,
    /// Data frames the reader knows about.
    pub frames: u64,
    /// Uncompressed size of the stream as far as it is known.
    pub total_uncompressed: u64,
    /// Bytes from offset 0 that can be served with provably exact offsets.
    /// Equal to `total_uncompressed` on healthy streams; shorter when
    /// salvage found holes.
    pub serviceable_bytes: u64,
    /// The salvage accounting, when the reader degraded that far.
    pub salvage: Option<SalvageReport>,
}

impl IndexReport {
    /// Machine-readable report for the CLI and the JSONL metrics sink.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("source", self.source.as_str().into()),
            ("fault", self.fault.map_or(JsonValue::Null, |f| f.tag().into())),
            ("fault_detail", self.fault.map_or(JsonValue::Null, |f| f.to_string().into())),
            ("scan_error", self.scan_error.map_or(JsonValue::Null, |e| e.to_string().into())),
            ("frames", self.frames.into()),
            ("total_uncompressed", self.total_uncompressed.into()),
            ("serviceable_bytes", self.serviceable_bytes.into()),
            ("salvage", self.salvage.as_ref().map_or(JsonValue::Null, SalvageReport::to_json)),
        ])
    }
}

/// Byte-bounded LRU of decoded frames.
///
/// Recency is a lazy-deletion queue: every touch appends a fresh
/// `(stamp, key)` pair and stores the stamp on the entry; eviction pops
/// from the front, ignoring pairs whose stamp is stale. Touch and evict
/// are amortized O(1), so a small-frame stream holding thousands of
/// cached entries never turns range serving quadratic.
#[derive(Debug, Default)]
struct FrameCache {
    capacity: usize,
    bytes: usize,
    entries: std::collections::HashMap<usize, (Vec<u8>, u64)>,
    order: std::collections::VecDeque<(u64, usize)>,
    stamp: u64,
    evictions: u64,
}

impl FrameCache {
    fn new(capacity: usize) -> Self {
        FrameCache { capacity, ..FrameCache::default() }
    }

    /// Mark `key` most-recent and return its data.
    fn get(&mut self, key: usize) -> Option<&Vec<u8>> {
        // Bound the stale-pair backlog so hit-heavy workloads don't grow
        // the queue without limit.
        if self.order.len() > 4 * self.entries.len().max(16) {
            let entries = &self.entries;
            self.order.retain(|(s, k)| entries.get(k).is_some_and(|(_, live)| live == s));
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let entry = self.entries.get_mut(&key)?;
        entry.1 = stamp;
        self.order.push_back((stamp, key));
        Some(&entry.0)
    }

    fn insert(&mut self, key: usize, data: Vec<u8>) {
        if data.len() > self.capacity {
            return; // A frame bigger than the whole budget is never cached.
        }
        self.stamp += 1;
        self.bytes += data.len();
        if let Some((old, _)) = self.entries.insert(key, (data, self.stamp)) {
            self.bytes -= old.len();
        }
        self.order.push_back((self.stamp, key));
        while self.bytes > self.capacity {
            let Some((stamp, key)) = self.order.pop_front() else { break };
            if self.entries.get(&key).is_some_and(|(_, live)| *live == stamp) {
                let (old, _) = self.entries.remove(&key).expect("entry just observed");
                self.bytes -= old.len();
                self.evictions += 1;
            }
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

/// Where the reader's frame knowledge currently comes from.
#[derive(Debug)]
enum Backing {
    /// Frame positions + total size; frames decode on demand.
    Frames { entries: Vec<IndexEntry>, total: u64 },
    /// Whole-stream salvage output; `limit` is the exact-offset prefix.
    Salvaged { data: Vec<u8>, limit: u64, total_known: bool, total: u64 },
}

/// A random-access reader over one LZFC stream.
///
/// Open with [`open_indexed`]; serve with
/// [`IndexedReader::decode_range`]. The reader is `&mut self` because the
/// cache, the counters and the degradation state all live in it.
pub struct IndexedReader<'a> {
    bytes: &'a [u8],
    backing: Backing,
    source: IndexSource,
    fault: Option<IndexFault>,
    scan_error: Option<ContainerError>,
    salvage_report: Option<SalvageReport>,
    cache: FrameCache,
    counters: RangeCounters,
    faults: &'a dyn Failpoints,
}

impl std::fmt::Debug for IndexedReader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexedReader")
            .field("source", &self.source)
            .field("fault", &self.fault)
            .field("scan_error", &self.scan_error)
            .finish_non_exhaustive()
    }
}

/// Open `bytes` for random access with the default cache budget.
///
/// Never fails: a stream without a usable index opens through a scan, a
/// damaged stream opens through salvage, and the reader's
/// [`IndexedReader::report`] says which happened and why.
pub fn open_indexed(bytes: &[u8]) -> IndexedReader<'_> {
    open_indexed_with(bytes, DEFAULT_CACHE_BYTES)
}

/// [`open_indexed`] with an explicit decoded-frame cache budget in bytes
/// (0 disables caching).
pub fn open_indexed_with(bytes: &[u8], cache_bytes: usize) -> IndexedReader<'_> {
    open_indexed_faulty(bytes, cache_bytes, &NoFaults)
}

/// [`open_indexed_with`] with decode-side failpoints active.
///
/// Sites: `range.open.index` fires at open — an injected error rejects
/// the seek index (recorded as [`IndexFault::Injected`]) and the reader
/// opens through the strict scan instead; `range.frame.decode` fires on
/// every cache-miss frame read inside
/// [`IndexedReader::decode_range`] — an injected error is treated exactly
/// like a frame that failed verification, so the reader walks the
/// index → scan → salvage degradation ladder. Either way the served
/// bytes stay exact or the range is refused with a typed error; injection
/// can slow the reader down a rung, never make it lie.
pub fn open_indexed_faulty<'a>(
    bytes: &'a [u8],
    cache_bytes: usize,
    faults: &'a dyn Failpoints,
) -> IndexedReader<'a> {
    let mut reader = IndexedReader {
        bytes,
        backing: Backing::Frames { entries: Vec::new(), total: 0 },
        source: IndexSource::Index,
        fault: None,
        scan_error: None,
        salvage_report: None,
        cache: FrameCache::new(cache_bytes),
        counters: RangeCounters {
            cache_capacity_bytes: cache_bytes as u64,
            ..RangeCounters::default()
        },
        faults,
    };
    if reader.faults.check("range.open.index") {
        reader.fault = Some(IndexFault::Injected);
        reader.counters.index_fallbacks += 1;
        reader.rebuild_from_scan();
        return reader;
    }
    match load_index(bytes) {
        Ok(ix) => {
            reader.counters.index_hits += 1;
            reader.backing = Backing::Frames { entries: ix.entries, total: ix.total_uncompressed };
        }
        Err(fault) => {
            reader.fault = Some(fault);
            reader.counters.index_fallbacks += 1;
            reader.rebuild_from_scan();
        }
    }
    reader
}

impl<'a> IndexedReader<'a> {
    /// Uncompressed size of the stream, as far as this reader knows it.
    pub fn total_uncompressed(&self) -> u64 {
        match &self.backing {
            Backing::Frames { total, .. } => *total,
            Backing::Salvaged { total, .. } => *total,
        }
    }

    /// Cumulative work/cache counters (cache occupancy refreshed).
    pub fn counters(&self) -> RangeCounters {
        let mut c = self.counters;
        c.cache_bytes = self.cache.bytes as u64;
        c.cache_evictions = self.cache.evictions;
        c
    }

    /// The reader's provenance: source, faults, serviceable extent.
    pub fn report(&self) -> IndexReport {
        let (frames, total, serviceable) = match &self.backing {
            Backing::Frames { entries, total } => (entries.len() as u64, *total, *total),
            Backing::Salvaged { limit, total, .. } => {
                let frames = self.salvage_report.as_ref().map_or(0, |r| {
                    u64::from(r.frames_recovered) + u64::from(r.frames_deep_recovered)
                });
                (frames, *total, *limit)
            }
        };
        IndexReport {
            source: self.source,
            fault: self.fault,
            scan_error: self.scan_error,
            frames,
            total_uncompressed: total,
            serviceable_bytes: serviceable,
            salvage: self.salvage_report.clone(),
        }
    }

    /// Decode exactly the bytes `start..end` of the original input.
    ///
    /// Ranges are clamped to the stream's total size (so a range past EOF
    /// serves the same bytes a slice of the full decode would) and an
    /// empty or inverted range is an empty vector. The work done is
    /// O(frames covering the range): untouched frames are neither read
    /// nor verified.
    ///
    /// # Errors
    /// [`ContainerError::RangeUnavailable`] when stream damage makes the
    /// requested offsets unservable, or the underlying typed decode error
    /// when even salvage cannot provide the bytes. A lying index is never
    /// an error — it degrades to the scan/salvage source and the range is
    /// re-served from there.
    pub fn decode_range(&mut self, range: std::ops::Range<u64>) -> Result<Vec<u8>, ContainerError> {
        // Three rungs: index-backed, scan-backed, salvage-backed.
        for _ in 0..3 {
            if !matches!(self.backing, Backing::Frames { .. }) {
                return self.serve_from_salvage(range);
            }
            match self.serve_from_frames(range.clone()) {
                Ok(out) => {
                    self.counters.ranges_served += 1;
                    return Ok(out);
                }
                Err(seq) => {
                    // The frame map lied (only possible from a
                    // CRC-valid-but-wrong index) or the stream is damaged
                    // under an honest map: degrade one rung and re-serve.
                    self.counters.index_fallbacks += 1;
                    if self.source == IndexSource::Index {
                        self.fault = Some(IndexFault::FrameMismatch { seq });
                        self.rebuild_from_scan();
                    } else {
                        self.rebuild_from_salvage(None);
                    }
                    self.cache.clear();
                }
            }
        }
        unreachable!("the salvage rung always returns");
    }

    /// Serve from whole-stream salvage output: exact up to the first hole,
    /// a typed refusal beyond it.
    fn serve_from_salvage(
        &mut self,
        range: std::ops::Range<u64>,
    ) -> Result<Vec<u8>, ContainerError> {
        let Backing::Salvaged { ref data, limit, total_known, total } = self.backing else {
            unreachable!("caller checked the backing")
        };
        // Without a surviving trailer the original size is unknown, so a
        // range past the recovered bytes cannot be proven past-EOF — it
        // gets the typed refusal rather than a silent clamp.
        let clamp = if total_known { total } else { u64::MAX };
        let start = range.start.min(clamp);
        let end = range.end.min(clamp);
        if start >= end {
            self.counters.ranges_served += 1;
            return Ok(Vec::new());
        }
        if end > limit {
            return Err(ContainerError::RangeUnavailable { offset: limit });
        }
        let out = data[start as usize..end as usize].to_vec();
        self.counters.ranges_served += 1;
        Ok(out)
    }

    /// Serve from the frame map; `Err(seq)` names the first frame that
    /// failed verification (the degrade trigger).
    fn serve_from_frames(&mut self, range: std::ops::Range<u64>) -> Result<Vec<u8>, u32> {
        let Backing::Frames { entries, total } = &self.backing else {
            unreachable!("caller checked the backing")
        };
        let total = *total;
        let start = range.start.min(total);
        let end = range.end.min(total);
        if start >= end {
            return Ok(Vec::new());
        }
        // First frame whose data covers `start`: entries are sorted by
        // ustart with entries[0].ustart == 0.
        let first = entries.partition_point(|e| e.ustart <= start).saturating_sub(1);
        let n = entries.len();
        let mut out = Vec::with_capacity((end - start) as usize);
        for i in first..n {
            let Backing::Frames { entries, total } = &self.backing else { unreachable!() };
            let e = entries[i];
            if e.ustart >= end {
                break;
            }
            let expected_ulen = if i + 1 < n { entries[i + 1].ustart } else { *total } - e.ustart;
            let lo = start.max(e.ustart) - e.ustart;
            let hi = end.min(e.ustart + expected_ulen) - e.ustart;
            self.counters.frames_in_range += 1;
            self.append_frame(i, e, expected_ulen, lo as usize, hi as usize, &mut out)?;
        }
        Ok(out)
    }

    /// Append `frame[lo..hi]` of frame `i` to `out`, via the cache when
    /// it holds at least `hi` bytes of the frame. Every miss verifies the
    /// frame's header against the map and its payload CRC before a byte is
    /// trusted; `Err(seq)` on any mismatch.
    ///
    /// A cold miss decodes only the head `..hi` and caches that prefix. A
    /// read past a cached prefix decodes the whole frame, with every codec
    /// check, and replaces the entry: a frame is inflated at most twice
    /// while it stays cached, however its reads are cut.
    fn append_frame(
        &mut self,
        i: usize,
        e: IndexEntry,
        expected_ulen: u64,
        lo: usize,
        hi: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), u32> {
        let seq = u32::try_from(i).unwrap_or(u32::MAX);
        let upto = match self.cache.get(i) {
            Some(data) if data.len() >= hi => {
                self.counters.cache_hits += 1;
                out.extend_from_slice(&data[lo..hi]);
                return Ok(());
            }
            Some(_) => expected_ulen,
            None => hi as u64,
        };
        self.counters.cache_misses += 1;
        // Decode-side failpoint: an injected failure here is
        // indistinguishable from a frame that failed verification, so it
        // exercises the whole degradation ladder without ever producing a
        // wrong byte.
        if self.faults.check("range.frame.decode") {
            return Err(seq);
        }
        let Ok(header_start) = usize::try_from(e.header_start) else {
            return Err(seq);
        };
        if header_start >= self.bytes.len() {
            return Err(seq);
        }
        let Ok(rec) = parse_record(&self.bytes[header_start..]) else {
            return Err(seq);
        };
        if rec.trailer || rec.index || u64::from(rec.seq) != i as u64 {
            return Err(seq);
        }
        if u64::from(rec.ulen) != expected_ulen {
            return Err(seq);
        }
        let payload_start = header_start + HEADER_LEN;
        let Some(frame_end) = payload_start.checked_add(rec.clen as usize) else {
            return Err(seq);
        };
        if frame_end > self.bytes.len() {
            return Err(seq);
        }
        let span = FrameSpan { header_start, payload_start, end: frame_end, record: rec };
        let Ok(data) = decode_frame_to(self.bytes, &span, upto) else {
            return Err(seq);
        };
        self.counters.frames_decoded += 1;
        self.counters.bytes_inflated += data.len() as u64;
        out.extend_from_slice(&data[lo..hi]);
        self.cache.insert(i, data);
        Ok(())
    }

    /// Drop to a strict structure scan (ignoring the index section); if
    /// even that fails, drop straight to salvage.
    fn rebuild_from_scan(&mut self) {
        match check_structure_with(self.bytes, false) {
            Ok(s) => {
                let mut entries = Vec::with_capacity(s.frames.len());
                let mut ustart = 0u64;
                for f in &s.frames {
                    entries.push(IndexEntry { header_start: f.header_start as u64, ustart });
                    ustart += u64::from(f.record.ulen);
                }
                self.source = IndexSource::Scan;
                self.backing = Backing::Frames { entries, total: ustart };
            }
            Err(e) => self.rebuild_from_salvage(Some(e)),
        }
    }

    /// Drop to the salvage decoder: serve the exact-offset prefix, refuse
    /// the rest with a typed error.
    fn rebuild_from_salvage(&mut self, scan_error: Option<ContainerError>) {
        let s = salvage(self.bytes);
        // Offsets are provable only up to the first hole; beyond it the
        // recovered bytes shift and serving them would mis-address data.
        let limit = s
            .report
            .lost
            .iter()
            .map(|l| l.output_offset)
            .min()
            .unwrap_or(s.data.len() as u64)
            .min(s.data.len() as u64);
        let (total_known, total) = match s.report.trailer {
            Some(t) => (true, t.total_uncompressed),
            None => (false, s.data.len() as u64),
        };
        self.source = IndexSource::Salvage;
        self.scan_error = scan_error.or(self.scan_error);
        self.salvage_report = Some(s.report);
        self.backing = Backing::Salvaged { data: s.data, limit, total_known, total };
    }
}

/// A planned range decode: the frame spans covering the range (each
/// paired with the uncompressed offset its data begins at) plus the
/// range clamped to the stream's total.
pub type RangePlan = (Vec<(FrameSpan, u64)>, std::ops::Range<u64>);

/// Plan a range decode without constructing a reader: the frame spans
/// covering `start..end` (each paired with the uncompressed offset its
/// data begins at) plus the clamped range. Uses the seek index when it
/// verifies, a strict structure scan otherwise — the shape the parallel
/// range decoder wants, since it fans the spans out to workers.
///
/// # Errors
/// The strict scan's typed error when the stream is damaged (this
/// planner does not salvage; use [`IndexedReader`] for degraded serves).
pub fn plan_range(bytes: &[u8], range: std::ops::Range<u64>) -> Result<RangePlan, ContainerError> {
    // An index is only a plan accelerator here: verify every covering
    // frame's header against it, and on any disagreement rescan.
    if let Ok(ix) = load_index(bytes) {
        if let Some(plan) = plan_from_entries(bytes, &ix.entries, ix.total_uncompressed, &range) {
            return Ok(plan);
        }
    }
    let s = check_structure_with(bytes, false)?;
    let mut entries = Vec::with_capacity(s.frames.len());
    let mut ustart = 0u64;
    for f in &s.frames {
        entries.push(IndexEntry { header_start: f.header_start as u64, ustart });
        ustart += u64::from(f.record.ulen);
    }
    plan_from_entries(bytes, &entries, ustart, &range)
        .ok_or(ContainerError::Truncated { offset: 0 })
}

/// Build the covering-span list from a frame map, verifying each covering
/// frame's header. `None` when the map disagrees with the stream.
fn plan_from_entries(
    bytes: &[u8],
    entries: &[IndexEntry],
    total: u64,
    range: &std::ops::Range<u64>,
) -> Option<RangePlan> {
    let start = range.start.min(total);
    let end = range.end.min(total);
    if start >= end {
        return Some((Vec::new(), start..end));
    }
    let first = entries.partition_point(|e| e.ustart <= start).saturating_sub(1);
    let mut spans = Vec::new();
    for (i, e) in entries.iter().enumerate().skip(first) {
        if e.ustart >= end {
            break;
        }
        let expected_ulen =
            if i + 1 < entries.len() { entries[i + 1].ustart } else { total } - e.ustart;
        let header_start = usize::try_from(e.header_start).ok()?;
        if header_start >= bytes.len() {
            return None;
        }
        let rec = parse_record(&bytes[header_start..]).ok()?;
        if rec.trailer || rec.index || u64::from(rec.seq) != i as u64 {
            return None;
        }
        if u64::from(rec.ulen) != expected_ulen {
            return None;
        }
        let payload_start = header_start + HEADER_LEN;
        let frame_end = payload_start.checked_add(rec.clen as usize)?;
        if frame_end > bytes.len() {
            return None;
        }
        spans.push((
            FrameSpan { header_start, payload_start, end: frame_end, record: rec },
            e.ustart,
        ));
    }
    Some((spans, start..end))
}
