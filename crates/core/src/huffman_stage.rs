//! Cycle-accurate model of the pipelined fixed-table Huffman output stage.
//!
//! The paper's output interface: "The output interface of the LZSS
//! compressor is connected to a fixed-table pipelined Huffman encoder that
//! produces a ZLib-compatible stream. As the table is fixed, no additional
//! clock cycles or memories are required to build it and the encoder does
//! not introduce any delays to the stream produced by the LZSS compressor."
//!
//! This module models that stage structurally and *proves* the zero-delay
//! claim instead of assuming it:
//!
//! * **Stage 1 (map)** — a registered code-ROM lookup turning one D/L pair
//!   into a bit bundle: `litlen code ‖ length extra ‖ dist code ‖ dist
//!   extra`. The widest bundle is a match — 8 + 5 + 5 + 13 = 31 bits —
//!   strictly *less* than the 32-bit output word.
//! * **Stage 2 (pack)** — a shift-register accumulator that appends the
//!   bundle and emits one packed 32-bit word whenever at least 32 bits are
//!   buffered.
//!
//! Because every bundle is ≤ 31 bits, the accumulator gains at most 31 bits
//! per cycle and drains 32 per emit, so its occupancy is bounded (the model
//! asserts < 64 bits) and **one word-emit port per cycle suffices**: the
//! stage can accept a new D/L pair every cycle indefinitely, which is the
//! paper's no-stall property. The only stall source is the downstream word
//! sink, which is exactly the "sink requests a delay" path charged to the
//! main FSM in [`crate::compressor`].
//!
//! The emitted bit stream is bit-for-bit the fixed-Huffman Deflate block the
//! software encoder in `lzfpga-deflate` produces (header, symbols,
//! end-of-block, zero padding) — enforced by tests here and fuzzed in the
//! integration suite.

use lzfpga_deflate::fixed::{fixed_match_bits, END_OF_BLOCK, FIXED_LITLEN};
use lzfpga_deflate::token::Token;

/// A bundle of up to 31 code bits produced by the map stage for one D/L
/// pair (LSB-first, ready for the packer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitBundle {
    /// The bits, LSB-first.
    pub bits: u64,
    /// Number of valid bits (1..=31).
    pub count: u32,
}

/// Widest possible bundle: longest litlen code (8 bits for symbols 280+),
/// 5 length extra bits, 5-bit distance code, 13 distance extra bits.
pub const MAX_BUNDLE_BITS: u32 = 31;

/// Dynamic counters of the stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct HuffmanStageStats {
    /// Clock cycles ticked.
    pub cycles: u64,
    /// D/L pairs accepted.
    pub pairs_in: u64,
    /// 32-bit words emitted.
    pub words_out: u64,
    /// Peak accumulator occupancy in bits (must stay < 64).
    pub peak_occupancy: u32,
    /// Cycles in which an input was offered but the stage could not accept
    /// it. The zero-delay claim says this stays 0 with a free-running sink.
    pub input_stalls: u64,
}

/// The pipelined fixed-table Huffman encoder model.
#[derive(Debug, Clone)]
pub struct HuffmanStage {
    /// Stage-1 output register: the mapped bundle awaiting packing.
    map_reg: Option<BitBundle>,
    /// Stage-2 accumulator.
    acc: u64,
    acc_bits: u32,
    /// Single-entry output word register (the DMA-facing port).
    word_reg: Option<u32>,
    stats: HuffmanStageStats,
    finished: bool,
}

impl Default for HuffmanStage {
    fn default() -> Self {
        Self::new()
    }
}

impl HuffmanStage {
    /// Power-up: the code ROM is the const fixed-code table
    /// ([`FIXED_LITLEN`], [`fixed_match_bits`]); the Deflate block header
    /// (BFINAL=1, BTYPE=01) is preloaded into the accumulator, as the
    /// hardware emits it combinationally when the stream opens.
    pub fn new() -> Self {
        let mut s = Self {
            map_reg: None,
            acc: 0,
            acc_bits: 0,
            word_reg: None,
            stats: HuffmanStageStats::default(),
            finished: false,
        };
        // BFINAL=1 then BTYPE=01 (value 0b10 when read LSB-first: bit 1 then 0b01).
        s.push_bits(1, 1);
        s.push_bits(0b01, 2);
        s
    }

    /// Map one token to its fixed-table bit bundle (the stage-1 ROM logic).
    pub fn map_token(&self, token: Token) -> BitBundle {
        let (bits, count) = match token {
            Token::Literal(b) => {
                let (code, len) = FIXED_LITLEN[usize::from(b)];
                (u64::from(code), u32::from(len))
            }
            Token::Match { dist, len } => fixed_match_bits(dist, len),
        };
        debug_assert!(count <= MAX_BUNDLE_BITS, "bundle of {count} bits overflows the datapath");
        BitBundle { bits, count }
    }

    fn push_bits(&mut self, bits: u64, count: u32) {
        self.acc |= bits << self.acc_bits;
        self.acc_bits += count;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.acc_bits);
        assert!(self.acc_bits < 64, "accumulator overflow: the bounded-occupancy invariant broke");
    }

    /// True if a new D/L pair can be accepted this cycle.
    #[inline]
    pub fn can_accept(&self) -> bool {
        !self.finished && self.map_reg.is_none()
    }

    /// Producer side: present one D/L pair (as emitted by the LZSS FSM).
    ///
    /// # Panics
    /// Panics if the stage register is occupied or the stream was finished —
    /// producers must qualify with [`Self::can_accept`].
    pub fn accept(&mut self, d: u16, l: u8) {
        assert!(self.can_accept(), "accept() without ready");
        self.map_reg = Some(self.map_token(Token::from_dl_pair(d, l)));
        self.stats.pairs_in += 1;
    }

    /// Record that the producer had a pair but the stage was busy (for the
    /// zero-delay verification).
    pub fn note_input_stall(&mut self) {
        self.stats.input_stalls += 1;
    }

    /// Consumer side: take the packed 32-bit word, if one is ready.
    pub fn take_word(&mut self) -> Option<u32> {
        self.word_reg.take()
    }

    /// Advance one clock edge. The packer only moves when the output word
    /// register is free (word-granular back-pressure).
    pub fn tick(&mut self) {
        self.stats.cycles += 1;
        // Stage 2: emit a word if available and the output register is free.
        if self.word_reg.is_none() && self.acc_bits >= 32 {
            self.word_reg = Some((self.acc & 0xFFFF_FFFF) as u32);
            self.acc >>= 32;
            self.acc_bits -= 32;
            self.stats.words_out += 1;
        }
        // Stage 1 -> 2 transfer: only when the accumulator has drained
        // enough headroom that the invariant cannot break.
        if let Some(bundle) = self.map_reg {
            if self.acc_bits + bundle.count < 64 {
                self.push_bits(bundle.bits, bundle.count);
                self.map_reg = None;
            }
        }
    }

    /// Pop one (possibly zero-padded) word straight out of the accumulator.
    fn pop_word_into(&mut self, tail: &mut Vec<u32>) {
        tail.push((self.acc & 0xFFFF_FFFF) as u32);
        self.acc >>= 32;
        self.acc_bits = self.acc_bits.saturating_sub(32);
        self.stats.words_out += 1;
    }

    /// Close the stream: append the end-of-block symbol, zero-pad to a word
    /// boundary and drain everything. Returns the remaining words in order.
    /// The epilogue is not cycle-accounted — closing the DMA descriptor
    /// overlaps it in the real design.
    pub fn finish(&mut self) -> Vec<u32> {
        assert!(!self.finished, "finish() called twice");
        let mut tail = Vec::new();
        if let Some(w) = self.word_reg.take() {
            tail.push(w);
        }
        if let Some(bundle) = self.map_reg.take() {
            while self.acc_bits >= 32 {
                self.pop_word_into(&mut tail);
            }
            self.push_bits(bundle.bits, bundle.count);
        }
        while self.acc_bits >= 32 {
            self.pop_word_into(&mut tail);
        }
        let (code, len) = FIXED_LITLEN[END_OF_BLOCK];
        self.push_bits(u64::from(code), u32::from(len));
        // Zero-pad to the 32-bit word boundary, as the final DMA beat does.
        while self.acc_bits > 0 {
            self.pop_word_into(&mut tail);
        }
        self.finished = true;
        tail
    }

    /// Stage statistics.
    pub fn stats(&self) -> HuffmanStageStats {
        self.stats
    }
}

/// Run a whole token stream through the stage at one token per cycle with a
/// free-running word sink; returns the packed words and the statistics.
///
/// This is the paper's operating condition: the LZSS FSM emits at most one
/// D/L pair per cycle, and the function asserts the stage never pushed back.
pub fn encode_stream(tokens: &[Token]) -> (Vec<u32>, HuffmanStageStats) {
    let mut stage = HuffmanStage::new();
    let mut words = Vec::new();
    for t in tokens {
        let (d, l) = t.to_dl_pair();
        if !stage.can_accept() {
            stage.note_input_stall();
            while !stage.can_accept() {
                stage.tick();
                if let Some(w) = stage.take_word() {
                    words.push(w);
                }
            }
        }
        stage.accept(d, l);
        stage.tick();
        if let Some(w) = stage.take_word() {
            words.push(w);
        }
    }
    // Pipeline flush.
    for _ in 0..4 {
        stage.tick();
        if let Some(w) = stage.take_word() {
            words.push(w);
        }
    }
    words.extend(stage.finish());
    let stats = stage.stats();
    (words, stats)
}

/// Convert packed words to the Deflate byte stream (LSB-first words, as the
/// 32-bit DMA writes them to little-endian DDR2).
pub fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lzfpga_deflate::encoder::{BlockKind, DeflateEncoder};
    use lzfpga_deflate::inflate::inflate;

    fn software_block(tokens: &[Token]) -> Vec<u8> {
        let mut enc = DeflateEncoder::new();
        enc.write_block(tokens, BlockKind::FixedHuffman, true);
        enc.finish()
    }

    fn assert_bit_exact(tokens: &[Token]) {
        let (words, stats) = encode_stream(tokens);
        let hw = words_to_bytes(&words);
        let sw = software_block(tokens);
        assert!(hw.len() >= sw.len(), "hardware stream shorter than software");
        assert_eq!(&hw[..sw.len()], &sw[..], "bit streams diverge");
        assert!(hw[sw.len()..].iter().all(|&b| b == 0), "padding must be zero bits");
        assert_eq!(stats.input_stalls, 0, "the stage must never delay the LZSS FSM");
        assert!(stats.peak_occupancy < 64);
        // And the stream must be decodable Deflate.
        assert_eq!(
            inflate(&hw).unwrap(),
            lzfpga_lzss::decoder::decode_tokens(tokens, 32_768).unwrap(),
        );
    }

    #[test]
    fn empty_stream_is_header_plus_eob() {
        let (words, _) = encode_stream(&[]);
        let hw = words_to_bytes(&words);
        let sw = software_block(&[]);
        assert_eq!(&hw[..sw.len()], &sw[..]);
        assert_eq!(inflate(&hw).unwrap(), b"");
    }

    #[test]
    fn literals_only() {
        let tokens: Vec<Token> =
            b"hello, huffman stage".iter().map(|&b| Token::Literal(b)).collect();
        assert_bit_exact(&tokens);
    }

    #[test]
    fn matches_and_literals() {
        let mut tokens: Vec<Token> = b"abcdef".iter().map(|&b| Token::Literal(b)).collect();
        tokens.push(Token::Match { dist: 6, len: 6 });
        tokens.push(Token::Match { dist: 3, len: 258 });
        tokens.push(Token::Literal(b'!'));
        assert_bit_exact(&tokens);
    }

    #[test]
    fn widest_bundles_fit_the_datapath() {
        let stage = HuffmanStage::new();
        // Longest litlen code (8 bits, symbols 280..=287 region) with max
        // extra bits, and the largest distance with 13 extra bits.
        let worst = stage.map_token(Token::Match { dist: 24_577, len: 227 });
        assert!(worst.count <= MAX_BUNDLE_BITS, "{}", worst.count);
        for len in 3..=258 {
            for dist in [1u32, 4, 5, 32, 257, 4096, 24_577, 32_768] {
                let b = stage.map_token(Token::Match { dist, len });
                assert!(b.count <= MAX_BUNDLE_BITS);
                assert!(b.count >= 6);
            }
        }
    }

    #[test]
    fn sustained_one_pair_per_cycle_never_stalls() {
        // 10k of the widest possible bundles back-to-back.
        let tokens: Vec<Token> =
            (0..10_000).map(|i| Token::Match { dist: 24_577 + (i % 7), len: 227 }).collect();
        let (_, stats) = encode_stream(&tokens);
        assert_eq!(stats.input_stalls, 0);
        assert!(stats.peak_occupancy < 64, "occupancy {}", stats.peak_occupancy);
    }

    #[test]
    fn word_count_matches_bit_budget() {
        let tokens: Vec<Token> = (0u16..1_000)
            .map(|i| {
                if i % 3 == 0 {
                    Token::Match { dist: u32::from(i % 512 + 1), len: 3 + u32::from(i % 250) }
                } else {
                    Token::Literal((i % 251) as u8)
                }
            })
            .collect();
        let (words, stats) = encode_stream(&tokens);
        assert_eq!(stats.words_out as usize, words.len());
        let sw_bits = software_block(&tokens).len() as u64 * 8;
        let hw_bits = words.len() as u64 * 32;
        assert!(hw_bits >= sw_bits && hw_bits < sw_bits + 64);
    }

    #[test]
    fn compressor_tokens_encode_bit_exactly() {
        // End-to-end: real token streams from the LZSS hardware model.
        let data = lzfpga_workloads::wiki::generate(3, 120_000);
        let run = crate::compressor::HwCompressor::new(crate::config::HwConfig::paper_fast())
            .compress(&data);
        assert_bit_exact(&run.tokens);
    }

    #[test]
    #[should_panic(expected = "accept() without ready")]
    fn accept_requires_ready() {
        let mut s = HuffmanStage::new();
        s.accept(0, b'a');
        s.accept(0, b'b');
    }
}
