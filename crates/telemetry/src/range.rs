//! Counters for the LZFC random-access (range-decode) path.
//!
//! The range reader's whole value proposition is *not* doing work: seeking
//! straight to the frames covering a byte range instead of decoding the
//! stream, and serving hot frames from a bounded cache instead of
//! re-inflating them. These counters are the proof — `frames_decoded`
//! versus `frames_in_range` shows the O(frames-in-range) bound holding,
//! and the hit/miss pair shows what the cache is buying. Keeping the type
//! in the dependency-free leaf crate lets the container, CLI and tests
//! share one schema.

use crate::json::{obj, JsonValue};

/// Cumulative counters for one range reader's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeCounters {
    /// `decode_range` calls served.
    pub ranges_served: u64,
    /// Frames that covered the requested ranges (the work ceiling: every
    /// serve touches exactly the covering frames, never the whole stream).
    pub frames_in_range: u64,
    /// Frames actually inflated (cache misses plus verification decodes).
    pub frames_decoded: u64,
    /// Bytes those decodes produced: a read that ends inside a frame
    /// inflates only the frame's head, so this stays near the bytes
    /// served instead of growing by whole frames.
    pub bytes_inflated: u64,
    /// Frames served straight from the decoded-frame cache.
    pub cache_hits: u64,
    /// Frames that had to be decoded because the cache lacked them.
    pub cache_misses: u64,
    /// Frames evicted to stay under the cache's byte budget.
    pub cache_evictions: u64,
    /// Uncompressed bytes currently held by the cache.
    pub cache_bytes: u64,
    /// The cache's configured byte budget.
    pub cache_capacity_bytes: u64,
    /// Times the seek index was used to plan a range.
    pub index_hits: u64,
    /// Times planning fell back to a structure scan or salvage because the
    /// index was missing, corrupt, or lying.
    pub index_fallbacks: u64,
}

impl RangeCounters {
    /// Render for `--metrics` output and the JSONL sink.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("ranges_served", self.ranges_served.into()),
            ("frames_in_range", self.frames_in_range.into()),
            ("frames_decoded", self.frames_decoded.into()),
            ("bytes_inflated", self.bytes_inflated.into()),
            ("cache_hits", self.cache_hits.into()),
            ("cache_misses", self.cache_misses.into()),
            ("cache_evictions", self.cache_evictions.into()),
            ("cache_bytes", self.cache_bytes.into()),
            ("cache_capacity_bytes", self.cache_capacity_bytes.into()),
            ("index_hits", self.index_hits.into()),
            ("index_fallbacks", self.index_fallbacks.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip_through_the_parser() {
        let c = RangeCounters {
            ranges_served: 3,
            frames_in_range: 7,
            frames_decoded: 5,
            bytes_inflated: 300_000,
            cache_hits: 2,
            cache_misses: 5,
            cache_evictions: 1,
            cache_bytes: 262_144,
            cache_capacity_bytes: 8 << 20,
            index_hits: 3,
            index_fallbacks: 0,
        };
        let parsed = crate::json::parse(&c.to_json().render()).unwrap();
        assert_eq!(parsed.get("frames_in_range").unwrap().as_i64(), Some(7));
        assert_eq!(parsed.get("frames_decoded").unwrap().as_i64(), Some(5));
        assert_eq!(parsed.get("bytes_inflated").unwrap().as_i64(), Some(300_000));
        assert_eq!(parsed.get("cache_hits").unwrap().as_i64(), Some(2));
        assert_eq!(parsed.get("cache_capacity_bytes").unwrap().as_i64(), Some(8 << 20));
    }
}
