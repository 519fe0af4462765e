//! Algorithm parameters — the paper's compile-time generics and run-time
//! settings, expressed as one runtime struct so the estimator can sweep them.

/// Minimum bytes of lookahead the matcher needs to run at full match length:
/// `MAX_MATCH + MIN_MATCH + 1` — the "262 bytes" the paper's FSM waits for.
pub const MIN_LOOKAHEAD: usize = 262;

/// Matching-effort presets corresponding to the paper's "min/max compression
/// levels" (Fig. 4). The numbers mirror zlib's configuration table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionLevel {
    /// Fastest: tiny chain budget, greedy, skip hash inserts on longer
    /// matches (zlib level 1 — the paper's reference point).
    Min,
    /// Balanced: moderate chain budget with lazy matching (like zlib 6).
    Medium,
    /// Best ratio: deep chains, full lazy evaluation (like zlib 9) — the
    /// paper's "+20 % ratio for −82 % speed" end point.
    Max,
}

impl CompressionLevel {
    /// `(max_chain, lazy, max_insert_or_lazy, nice_length, good_length)`
    /// in zlib terms.
    pub fn tuning(self) -> LevelTuning {
        match self {
            CompressionLevel::Min => LevelTuning {
                max_chain: 4,
                lazy: false,
                max_lazy: 4,
                nice_length: 8,
                good_length: 4,
            },
            CompressionLevel::Medium => LevelTuning {
                max_chain: 128,
                lazy: true,
                max_lazy: 16,
                nice_length: 128,
                good_length: 8,
            },
            CompressionLevel::Max => LevelTuning {
                max_chain: 4_096,
                lazy: true,
                max_lazy: 258,
                nice_length: 258,
                good_length: 32,
            },
        }
    }
}

/// The per-level matcher tuning constants (zlib's `configuration_table`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelTuning {
    /// Maximum hash-chain candidates examined per match attempt — the
    /// paper's run-time "matching iteration limit".
    pub max_chain: u32,
    /// Whether to defer emission by one position looking for a better match.
    pub lazy: bool,
    /// Greedy mode: insert all positions of matches up to this length.
    /// Lazy mode: only search lazily below this current-match length.
    pub max_lazy: u32,
    /// Stop searching once a match of at least this length is found.
    pub nice_length: u32,
    /// Lazy mode: if the previous match is at least this long, reduce effort.
    pub good_length: u32,
}

/// Full parameter set for any compressor in this workspace (software
/// reference or hardware model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LzssParams {
    /// Dictionary (sliding window) size in bytes; power of two, 256..=32768.
    pub window_size: u32,
    /// Hash width in bits (head table has `2^hash_bits` entries).
    pub hash_bits: u32,
    /// Hash function selection.
    pub hash_fn: crate::hash::HashFn,
    /// Matching effort preset.
    pub level: CompressionLevel,
    /// Optional run-time override of the preset's matching iteration limit
    /// (the paper: "Run-time parameters (e.g. matching iteration limit),
    /// can also be changed"). `None` keeps the preset's budget.
    pub chain_limit: Option<u32>,
}

impl LzssParams {
    /// The paper's speed-optimised configuration: 4 KB dictionary, 15-bit
    /// hash, minimum (fastest) level.
    pub fn paper_fast() -> Self {
        Self {
            window_size: 4_096,
            hash_bits: 15,
            hash_fn: crate::hash::HashFn::zlib(15),
            level: CompressionLevel::Min,
            chain_limit: None,
        }
    }

    /// Construct with the default (zlib-style) hash for the given geometry.
    pub fn new(window_size: u32, hash_bits: u32, level: CompressionLevel) -> Self {
        Self {
            window_size,
            hash_bits,
            hash_fn: crate::hash::HashFn::zlib(hash_bits),
            level,
            chain_limit: None,
        }
    }

    /// Effective matcher tuning: the level preset with the run-time chain
    /// override applied (a zero override is clamped to one iteration).
    pub fn effective_tuning(&self) -> LevelTuning {
        let mut t = self.level.tuning();
        if let Some(limit) = self.chain_limit {
            t.max_chain = limit.max(1);
        }
        t
    }

    /// Validate the invariants the hardware relies on.
    ///
    /// # Panics
    /// Panics on non-power-of-two or out-of-range window, or hash widths
    /// outside 8..=20 bits (the BRAM-feasible range).
    pub fn validate(&self) {
        assert!(
            self.window_size.is_power_of_two(),
            "window size {} must be a power of two",
            self.window_size
        );
        assert!(
            (256..=32_768).contains(&self.window_size),
            "window size {} outside 256..=32768",
            self.window_size
        );
        assert!((8..=20).contains(&self.hash_bits), "hash bits {} outside 8..=20", self.hash_bits);
    }

    /// Maximum usable match distance: zlib's `MAX_DIST`, which the hardware
    /// shares because its background filler may overwrite the oldest
    /// [`MIN_LOOKAHEAD`] dictionary bytes while a match is in flight.
    #[inline]
    pub fn max_distance(&self) -> u32 {
        self.window_size - MIN_LOOKAHEAD as u32
    }

    /// log2(window_size): the dictionary address width in bits.
    pub fn window_bits(&self) -> u32 {
        self.window_size.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fast_is_valid() {
        let p = LzssParams::paper_fast();
        p.validate();
        assert_eq!(p.window_size, 4_096);
        assert_eq!(p.hash_bits, 15);
        assert_eq!(p.window_bits(), 12);
    }

    #[test]
    fn level_tunings_are_ordered() {
        let min = CompressionLevel::Min.tuning();
        let med = CompressionLevel::Medium.tuning();
        let max = CompressionLevel::Max.tuning();
        assert!(min.max_chain < med.max_chain && med.max_chain < max.max_chain);
        assert!(!min.lazy && med.lazy && max.lazy);
        assert!(min.nice_length < max.nice_length);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_window_rejected() {
        LzssParams::new(3_000, 12, CompressionLevel::Min).validate();
    }

    #[test]
    #[should_panic(expected = "outside 8..=20")]
    fn tiny_hash_rejected() {
        LzssParams::new(4_096, 4, CompressionLevel::Min).validate();
    }

    #[test]
    fn min_lookahead_matches_paper() {
        // MAX_MATCH + MIN_MATCH + 1 = 258 + 3 + 1.
        assert_eq!(MIN_LOOKAHEAD, 262);
    }
}
