//! Embedded-CPU cost model for the Table I software baseline.
//!
//! The paper's baseline is stock ZLib running on the 400 MHz PowerPC 440
//! embedded in the Virtex-5 FX70T, measured at 2.8–3.3 MB/s on the two data
//! sets. We do not have that board, so — per the substitution rule in
//! `DESIGN.md` — the baseline is reproduced by *counting the algorithm's
//! dynamic operations* and charging each class a cycle cost calibrated to a
//! PPC440-class core: in-order, 32 KB caches, no L2, blocking loads to DDR2.
//!
//! The counts come from the one matcher, the turbo core, observed through
//! [`MatchProbe`]: [`OpCounts`] is a probe. The chain walk it observes is
//! zlib's, candidate for candidate, but the matcher compares 16 bytes at a
//! time and skips most candidates with a one-byte quick reject, so the
//! comparison count is replayed per visited candidate as zlib's byte loop
//! would execute it ([`MatchProbe::candidate`]).
//!
//! The constants below are the model, not measurements; they were chosen so
//! the headline lands in the paper's 2.5–3.5 MB/s band for text-like data at
//! the fast preset, and the *relative* effects (bigger tables → more cache
//! misses → slower; deeper chains → slower) follow from the structure rather
//! than from tuning. All Table I/Fig. 4 claims in `EXPERIMENTS.md` cite this
//! model explicitly.

use crate::params::LzssParams;
use crate::simd::match_length;
use crate::turbo::TurboEngine;
use lzfpga_deflate::token::Token;
use lzfpga_telemetry::MatchProbe;

/// PPC440 core clock in Hz (the paper's SW platform clock).
pub const PPC440_HZ: f64 = 400.0e6;

/// Data-cache capacity assumed for locality modelling (PPC440: 32 KB).
const DCACHE_BYTES: f64 = 32.0 * 1024.0;

/// Cycle charge per operation class. Loads that walk the hash tables are
/// charged a miss surcharge scaled by how badly the tables overflow the
/// d-cache (`table_bytes / DCACHE_BYTES`, clamped).
#[derive(Debug, Clone, Copy)]
pub struct CostWeights {
    /// Per input byte: window copy, pointer bookkeeping, loop control.
    pub per_byte: f64,
    /// Computing one 3-byte hash (shift/xor chain + masks).
    pub hash: f64,
    /// Inserting a position (two dependent stores into head/prev).
    pub insert: f64,
    /// Following one chain link (dependent load, usually cold).
    pub chain_step: f64,
    /// Comparing one byte during match extension.
    pub compare_byte: f64,
    /// Emitting a literal (fixed-Huffman bit output).
    pub emit_literal: f64,
    /// Emitting a match (length/dist code lookup + bit output).
    pub emit_match: f64,
    /// Cache-miss surcharge applied to insert and chain-step accesses when
    /// the tables overflow the d-cache (cycles per likely-missing access).
    pub miss_penalty: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // In-order core; DDR2 miss latency is ~70 core cycles at 400 MHz
        // (the ML-507 memory subsystem runs far below the core clock).
        // per_byte folds in zlib's fill_window copies, Adler-32 over every
        // input byte, and stream-API bookkeeping — all of which the paper's
        // PPC measurement includes.
        Self {
            per_byte: 30.0,
            hash: 12.0,
            insert: 20.0,
            chain_step: 30.0,
            compare_byte: 6.0,
            emit_literal: 40.0,
            emit_match: 90.0,
            miss_penalty: 70.0,
        }
    }
}

/// Operation counts gathered from one compression run.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCounts {
    /// Input size in bytes.
    pub input_bytes: u64,
    /// Hash computations.
    pub hashes: u64,
    /// Head/prev insertions.
    pub inserts: u64,
    /// Chain links followed.
    pub chain_steps: u64,
    /// Bytes compared during match extension.
    pub compared_bytes: u64,
    /// Literal tokens emitted.
    pub literals: u64,
    /// Match tokens emitted.
    pub matches: u64,
    /// Total bytes covered by matches.
    pub match_bytes: u64,
}

impl MatchProbe for OpCounts {
    /// Every inserted position had its hash computed first.
    fn inserted_n(&mut self, n: u32) {
        self.hashes += u64::from(n);
        self.inserts += u64::from(n);
    }
    /// zlib's byte loop compares each matching byte, plus the mismatching
    /// one when it stops before `limit`.
    fn candidate(&mut self, data: &[u8], cand: usize, pos: usize, limit: u32) {
        let n = match_length(data, cand, pos, limit);
        self.compared_bytes += u64::from(n + u32::from(n < limit));
    }
    fn chain_done(&mut self, steps: u32) {
        self.chain_steps += u64::from(steps);
    }
    fn literals_n(&mut self, n: u32) {
        self.literals += u64::from(n);
    }
    fn matched(&mut self, len: u32) {
        self.matches += 1;
        self.match_bytes += u64::from(len);
    }
}

/// Result of a modelled software compression run.
#[derive(Debug, Clone)]
pub struct SoftwareEstimate {
    /// The compressed token stream.
    pub tokens: Vec<Token>,
    /// Dynamic operation counts.
    pub ops: OpCounts,
    /// Modelled CPU cycles.
    pub cycles: f64,
    /// Modelled throughput in MB/s at [`PPC440_HZ`] (MB = 1e6 bytes, as in
    /// the paper's tables).
    pub mb_per_s: f64,
}

/// Probability that a random access into `table_bytes` of state misses the
/// d-cache; saturates at 0.85 (some accesses always hit due to skew).
fn miss_probability(table_bytes: f64) -> f64 {
    if table_bytes <= DCACHE_BYTES {
        // Tables that fit still contend with window/output data: small floor.
        0.05
    } else {
        (1.0 - DCACHE_BYTES / table_bytes).min(0.85)
    }
}

/// Bytes of chain-table state the compressor touches for `params`.
fn table_bytes(params: &LzssParams) -> f64 {
    // head: 2^H entries x 2 bytes; prev: W entries x 2 bytes (zlib's layout).
    let head = (1u64 << params.hash_bits) as f64 * 2.0;
    let prev = f64::from(params.window_size) * 2.0;
    head + prev
}

/// Run the turbo core under the cost model.
pub fn estimate_software(data: &[u8], params: &LzssParams) -> SoftwareEstimate {
    estimate_software_with(data, params, &CostWeights::default())
}

/// As [`estimate_software`] with explicit weights (for sensitivity tests).
pub fn estimate_software_with(
    data: &[u8],
    params: &LzssParams,
    w: &CostWeights,
) -> SoftwareEstimate {
    let mut ops = OpCounts { input_bytes: data.len() as u64, ..OpCounts::default() };
    let mut tokens = Vec::new();
    TurboEngine::new().compress_into_probed(data, params, &mut tokens, &mut ops);
    let miss = miss_probability(table_bytes(params));
    let table_access_cost = w.miss_penalty * miss;
    let cycles = w.per_byte * ops.input_bytes as f64
        + w.hash * ops.hashes as f64
        + (w.insert + table_access_cost) * ops.inserts as f64
        + (w.chain_step + table_access_cost) * ops.chain_steps as f64
        + w.compare_byte * ops.compared_bytes as f64
        + w.emit_literal * ops.literals as f64
        + w.emit_match * ops.matches as f64;
    let seconds = cycles / PPC440_HZ;
    let mb_per_s = if seconds > 0.0 { ops.input_bytes as f64 / 1e6 / seconds } else { 0.0 };
    SoftwareEstimate { tokens, ops, cycles, mb_per_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{CompressionLevel, LzssParams};

    fn sample_text() -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..4_000u32 {
            data.extend_from_slice(
                format!("line {} of the structured log sample, code {}\n", i, i * 31 % 997)
                    .as_bytes(),
            );
        }
        data
    }

    #[test]
    fn estimate_is_positive_and_consistent() {
        let params = LzssParams::paper_fast();
        let data = sample_text();
        let est = estimate_software(&data, &params);
        assert!(est.cycles > 0.0);
        assert!(est.mb_per_s > 0.0);
        assert_eq!(est.ops.input_bytes, data.len() as u64);
        assert_eq!(
            est.ops.literals + est.ops.match_bytes,
            data.len() as u64,
            "tokens must cover the input exactly"
        );
    }

    #[test]
    fn throughput_in_papers_band_for_text() {
        // The model must land in the PPC440 ballpark: low single-digit MB/s
        // for text-like data at the fast preset (paper: 2.8-3.3 MB/s).
        let est = estimate_software(&sample_text(), &LzssParams::paper_fast());
        assert!(
            (1.0..8.0).contains(&est.mb_per_s),
            "modelled SW speed {} MB/s outside sanity band",
            est.mb_per_s
        );
    }

    #[test]
    fn max_level_is_much_slower() {
        let data = sample_text();
        let fast = estimate_software(&data, &LzssParams::new(4_096, 15, CompressionLevel::Min));
        let best = estimate_software(&data, &LzssParams::new(4_096, 15, CompressionLevel::Max));
        assert!(
            best.mb_per_s < fast.mb_per_s,
            "max level should be slower: {} vs {}",
            best.mb_per_s,
            fast.mb_per_s
        );
    }

    #[test]
    fn tokens_match_plain_compress() {
        let data = sample_text();
        let params = LzssParams::paper_fast();
        let est = estimate_software(&data, &params);
        assert_eq!(est.tokens, crate::reference::compress(&data, &params));
    }

    /// The eight counts `estimate_software` returned for these inputs when
    /// zlib's byte loop (the reference compressor) still counted them
    /// itself. The turbo core must reproduce them exactly, or Table I moves.
    #[test]
    fn op_counts_match_the_byte_loop_golden_values() {
        use lzfpga_workloads::{generate, Corpus};
        let wiki = generate(Corpus::Wiki, 1, 200_000);
        let x2e = generate(Corpus::X2e, 1, 200_000);
        let chain1 = LzssParams { chain_limit: Some(1), ..LzssParams::paper_fast() };
        let cases = [
            // input, hashes, inserts, chain_steps, compared, literals, matches, match_bytes
            (
                &wiki,
                LzssParams::paper_fast(),
                [200_000, 114_539, 114_539, 85_474, 397_077, 39_690, 31_229, 160_310],
            ),
            (
                &x2e,
                LzssParams::paper_fast(),
                [200_000, 101_043, 101_043, 42_130, 218_706, 72_264, 17_536, 127_736],
            ),
            (
                &wiki,
                LzssParams::new(4_096, 15, CompressionLevel::Medium),
                [200_000, 199_998, 199_998, 631_394, 2_907_718, 39_852, 26_268, 160_148],
            ),
            (
                &wiki,
                LzssParams::new(4_096, 15, CompressionLevel::Max),
                [200_000, 199_998, 199_998, 673_848, 3_117_878, 39_859, 26_261, 160_141],
            ),
            (&wiki, chain1, [200_000, 126_250, 126_250, 38_978, 197_016, 42_200, 32_999, 157_800]),
        ];
        for (data, params, want) in cases {
            let o = estimate_software(data, &params).ops;
            let got = [
                o.input_bytes,
                o.hashes,
                o.inserts,
                o.chain_steps,
                o.compared_bytes,
                o.literals,
                o.matches,
                o.match_bytes,
            ];
            assert_eq!(got, want, "{params:?}");
        }
    }

    #[test]
    fn probe_counts_are_consistent() {
        let data = b"abcabcabcabc xyz abcabc xyz ".repeat(50);
        for level in [CompressionLevel::Min, CompressionLevel::Medium, CompressionLevel::Max] {
            let est = estimate_software(&data, &LzssParams::new(4_096, 15, level));
            let ops = est.ops;
            let lit_count =
                est.tokens.iter().filter(|t| matches!(t, Token::Literal(_))).count() as u64;
            assert_eq!(ops.literals, lit_count, "{level:?}");
            assert_eq!(ops.matches, est.tokens.len() as u64 - lit_count, "{level:?}");
            assert_eq!(ops.inserts, ops.hashes, "every computed hash is inserted");
            // Coverage: literals + match bytes == input length.
            assert_eq!(ops.literals + ops.match_bytes, data.len() as u64, "{level:?}");
        }
    }

    #[test]
    fn bigger_tables_raise_miss_probability() {
        assert!(miss_probability(8.0 * 1024.0) < miss_probability(256.0 * 1024.0));
        assert!(miss_probability(1e9) <= 0.85);
    }

    #[test]
    fn empty_input_yields_zero_throughput_without_panic() {
        let est = estimate_software(b"", &LzssParams::paper_fast());
        assert_eq!(est.ops.input_bytes, 0);
        assert_eq!(est.mb_per_s, 0.0);
    }
}
