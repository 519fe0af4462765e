//! Token stream → Deflate block encoder.
//!
//! Three block kinds are supported:
//!
//! * [`BlockKind::Stored`] — raw bytes, the worst-case escape hatch.
//! * [`BlockKind::FixedHuffman`] — the paper's hardware path: the fixed
//!   RFC 1951 tables, zero per-block table cost, fully pipelineable.
//! * [`BlockKind::DynamicHuffman`] — the software trade-off the paper cites
//!   ("the cost for the high performance is less efficient compression
//!   compared to the dynamic huffman coders"); implemented so the repo can
//!   quantify that gap.

use crate::adler32::adler32;
use crate::bitio::BitWriter;
use crate::fixed::{
    distance_symbol, fixed_match_bits, length_symbol, END_OF_BLOCK, FIXED_LITLEN, NUM_DIST,
    NUM_LITLEN,
};
use crate::huffman::{build_lengths, Codebook};
use crate::sink::TokenSink;
use crate::token::Token;
use crate::zlib::zlib_header;

/// Deflate block type selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// BTYPE=00: stored (uncompressed) block.
    Stored,
    /// BTYPE=01: fixed Huffman tables.
    FixedHuffman,
    /// BTYPE=10: dynamic Huffman tables built from the block's statistics.
    DynamicHuffman,
}

/// Choose the cheapest block kind for `tokens`, the decision zlib makes per
/// block: stored wins only on incompressible data (and only when the tokens
/// are all literals), dynamic wins once its table preamble amortises,
/// fixed wins for short or skewed-toward-the-fixed-table content.
pub fn pick_block_kind(tokens: &[Token]) -> BlockKind {
    let fixed_bits = fixed_block_bit_size(tokens);
    let mut dyn_enc = DeflateEncoder::new();
    dyn_enc.write_block(tokens, BlockKind::DynamicHuffman, true);
    let dynamic_bits = dyn_enc.bit_len();
    let all_literals = tokens.iter().all(|t| matches!(t, Token::Literal(_)));
    let stored_bits = if all_literals {
        // 3-bit header + alignment + LEN/NLEN per 65535-byte chunk + bytes.
        let chunks = tokens.len().div_ceil(65_535).max(1) as u64;
        chunks * (8 + 32) + tokens.len() as u64 * 8
    } else {
        u64::MAX
    };
    if stored_bits < fixed_bits && stored_bits < dynamic_bits {
        BlockKind::Stored
    } else if dynamic_bits < fixed_bits {
        BlockKind::DynamicHuffman
    } else {
        BlockKind::FixedHuffman
    }
}

/// Order in which code-length-code lengths are transmitted (RFC 1951 §3.2.7).
const CLCL_ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

/// A Deflate bit-stream encoder over complete token blocks.
#[derive(Debug, Default)]
pub struct DeflateEncoder {
    writer: BitWriter,
}

impl DeflateEncoder {
    /// New encoder with an empty output stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encode `tokens` as one block. `last` sets the BFINAL bit. For
    /// [`BlockKind::Stored`], the tokens must all be literals (the raw bytes).
    pub fn write_block(&mut self, tokens: &[Token], kind: BlockKind, last: bool) {
        match kind {
            BlockKind::Stored => self.write_stored(tokens, last),
            BlockKind::FixedHuffman => self.write_fixed(tokens, last),
            BlockKind::DynamicHuffman => self.write_dynamic(tokens, last),
        }
    }

    /// Bits emitted so far (before final alignment).
    pub fn bit_len(&self) -> u64 {
        self.writer.bit_len()
    }

    /// The completed output bytes so far (a still-buffered partial byte is
    /// excluded). Supports incremental delivery in streaming sessions.
    pub fn as_bytes(&self) -> &[u8] {
        self.writer.as_bytes()
    }

    /// Emit a zlib `Z_SYNC_FLUSH` marker: an empty non-final *stored* block,
    /// which forces byte alignment, so every bit written before this call is
    /// contained in — and decodable from — the bytes available after it.
    /// Costs 4 bytes plus up to 7 padding bits, exactly like zlib.
    pub fn sync_flush(&mut self) {
        self.writer.write_bits(0, 1); // BFINAL = 0
        self.writer.write_bits(0b00, 2); // BTYPE = stored
        self.writer.align_to_byte();
        // LEN = 0, NLEN = !0.
        self.writer.write_aligned_bytes(&[0x00, 0x00, 0xFF, 0xFF]);
    }

    /// Finish the Deflate stream and return its bytes.
    pub fn finish(self) -> Vec<u8> {
        self.writer.finish()
    }

    fn write_stored(&mut self, tokens: &[Token], last: bool) {
        let bytes: Vec<u8> = tokens
            .iter()
            .map(|t| match *t {
                Token::Literal(b) => b,
                Token::Match { .. } => {
                    panic!("stored blocks carry raw bytes; got a match token")
                }
            })
            .collect();
        // Stored blocks are capped at 65535 bytes; split as needed.
        let chunks: Vec<&[u8]> =
            if bytes.is_empty() { vec![&bytes[..]] } else { bytes.chunks(65_535).collect() };
        let n = chunks.len();
        for (i, chunk) in chunks.into_iter().enumerate() {
            let final_bit = last && i + 1 == n;
            self.writer.write_bits(u64::from(final_bit), 1);
            self.writer.write_bits(0b00, 2);
            self.writer.align_to_byte();
            let len = chunk.len() as u16;
            self.writer.write_aligned_bytes(&len.to_le_bytes());
            self.writer.write_aligned_bytes(&(!len).to_le_bytes());
            self.writer.write_aligned_bytes(chunk);
        }
    }

    /// The slice entry point of the fixed packer ([`FixedZlibSink`] is the
    /// streaming one).
    fn write_fixed(&mut self, tokens: &[Token], last: bool) {
        fixed_block_header(&mut self.writer, last);
        fixed_tokens(&mut self.writer, tokens);
        fixed_end_of_block(&mut self.writer);
    }

    fn write_dynamic(&mut self, tokens: &[Token], last: bool) {
        // Gather symbol statistics.
        let mut lit_freq = [0u64; NUM_LITLEN];
        let mut dist_freq = [0u64; NUM_DIST];
        for t in tokens {
            match *t {
                Token::Literal(b) => lit_freq[b as usize] += 1,
                Token::Match { dist, len } => {
                    lit_freq[length_symbol(len).symbol as usize] += 1;
                    dist_freq[distance_symbol(dist).symbol as usize] += 1;
                }
            }
        }
        lit_freq[END_OF_BLOCK] += 1;

        let lit_lengths = build_lengths(&lit_freq, 15);
        let mut dist_lengths = build_lengths(&dist_freq, 15);
        // HDIST must cover at least one code; zlib emits a single length-1
        // distance code when no matches occur.
        if dist_lengths.iter().all(|&l| l == 0) {
            dist_lengths[0] = 1;
        }

        let hlit = lit_lengths.iter().rposition(|&l| l != 0).map_or(257, |p| (p + 1).max(257));
        let hdist = dist_lengths.iter().rposition(|&l| l != 0).map_or(1, |p| p + 1);

        // RLE-compress the concatenated length vectors with symbols 16/17/18.
        let all_lengths: Vec<u8> =
            lit_lengths[..hlit].iter().chain(&dist_lengths[..hdist]).copied().collect();
        let clc_symbols = rle_code_lengths(&all_lengths);

        let mut clc_freq = [0u64; 19];
        for &(sym, _, _) in &clc_symbols {
            clc_freq[sym as usize] += 1;
        }
        // Code-length codes are capped at 7 bits.
        let clc_lengths = build_lengths(&clc_freq, 7);

        let hclen =
            CLCL_ORDER.iter().rposition(|&s| clc_lengths[s] != 0).map_or(4, |p| (p + 1).max(4));

        self.writer.write_bits(u64::from(last), 1);
        self.writer.write_bits(0b10, 2);
        self.writer.write_bits((hlit - 257) as u64, 5);
        self.writer.write_bits((hdist - 1) as u64, 5);
        self.writer.write_bits((hclen - 4) as u64, 4);
        for &s in &CLCL_ORDER[..hclen] {
            self.writer.write_bits(u64::from(clc_lengths[s]), 3);
        }
        let clc_book = Codebook::from_lengths(&clc_lengths);
        for &(sym, extra_bits, extra_val) in &clc_symbols {
            clc_book.encode(&mut self.writer, sym as usize);
            self.writer.write_bits(u64::from(extra_val), extra_bits);
        }

        let litlen = Codebook::from_lengths(&lit_lengths);
        let dist = Codebook::from_lengths(&dist_lengths);
        self.write_symbols(tokens, &litlen, &dist);
    }

    /// Emit `tokens` and the end-of-block code under a dynamic block's
    /// codebooks.
    fn write_symbols(&mut self, tokens: &[Token], litlen: &Codebook, dist: &Codebook) {
        // Direct (code, bits) table for the literal path: one fixed-size
        // array index per literal instead of two slice loads, and the
        // missing-code check is hoisted to a single cheap compare.
        let mut lit = [(0u16, 0u8); 256];
        for (b, entry) in lit.iter_mut().enumerate() {
            if litlen.length(b) > 0 {
                *entry = litlen.code(b);
            }
        }
        for t in tokens {
            match *t {
                Token::Literal(b) => {
                    let (c, l) = lit[b as usize];
                    assert!(l > 0, "literal {b} has no code");
                    self.writer.write_bits(u64::from(c), u32::from(l));
                }
                Token::Match { dist: d, len } => {
                    // Compose all four fields (length code + extra, distance
                    // code + extra, at most 15+5+15+13 = 48 bits) into one
                    // accumulator write — the per-token cost is dominated by
                    // `write_bits` calls, not the table lookups.
                    let ls = length_symbol(len);
                    let (lc, ll) = litlen.code(ls.symbol as usize);
                    let ds = distance_symbol(d);
                    let (dc, dl) = dist.code(ds.symbol as usize);
                    let mut v = u64::from(lc);
                    let mut n = u32::from(ll);
                    v |= u64::from(ls.extra_val) << n;
                    n += ls.extra_bits;
                    v |= u64::from(dc) << n;
                    n += u32::from(dl);
                    v |= u64::from(ds.extra_val) << n;
                    n += ds.extra_bits;
                    self.writer.write_bits(v, n);
                }
            }
        }
        litlen.encode(&mut self.writer, END_OF_BLOCK);
    }
}

/// Run-length encode code lengths into `(symbol, extra_bits, extra_val)`
/// triples using RFC 1951's 16/17/18 repeat codes.
fn rle_code_lengths(lengths: &[u8]) -> Vec<(u16, u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lengths.len() {
        let cur = lengths[i];
        let mut run = 1;
        while i + run < lengths.len() && lengths[i + run] == cur {
            run += 1;
        }
        if cur == 0 {
            let mut remaining = run;
            while remaining >= 11 {
                let n = remaining.min(138);
                out.push((18, 7, (n - 11) as u32));
                remaining -= n;
            }
            if remaining >= 3 {
                out.push((17, 3, (remaining - 3) as u32));
                remaining = 0;
            }
            for _ in 0..remaining {
                out.push((0, 0, 0));
            }
        } else {
            out.push((u16::from(cur), 0, 0));
            let mut remaining = run - 1;
            while remaining >= 3 {
                let n = remaining.min(6);
                out.push((16, 2, (n - 3) as u32));
                remaining -= n;
            }
            for _ in 0..remaining {
                out.push((u16::from(cur), 0, 0));
            }
        }
        i += run;
    }
    out
}

// The fixed-Huffman packer: every token is one const-table read
// (`crate::fixed`) and one word write, the software form of the paper's
// pipelined fixed-table encoder that "does not introduce any delays" (§IV).

/// BFINAL, then BTYPE = 01 (fixed tables).
fn fixed_block_header(w: &mut BitWriter, last: bool) {
    w.write_bits(u64::from(last) | 0b01 << 1, 3);
}

#[inline]
fn fixed_literal(w: &mut BitWriter, byte: u8) {
    let (code, n) = FIXED_LITLEN[usize::from(byte)];
    w.write_bits(u64::from(code), u32::from(n));
}

#[inline]
fn fixed_match(w: &mut BitWriter, dist: u32, len: u32) {
    let (bits, n) = fixed_match_bits(dist, len);
    w.write_bits(bits, n);
}

/// Pack a buffered token stream. The writer moves into a local for the
/// loop so its fields stay in registers instead of being reloaded after
/// every byte store.
fn fixed_tokens(w: &mut BitWriter, tokens: &[Token]) {
    let mut local = std::mem::take(w);
    for t in tokens {
        match *t {
            Token::Literal(b) => fixed_literal(&mut local, b),
            Token::Match { dist, len } => fixed_match(&mut local, dist, len),
        }
    }
    *w = local;
}

fn fixed_end_of_block(w: &mut BitWriter) {
    let (code, n) = FIXED_LITLEN[END_OF_BLOCK];
    w.write_bits(u64::from(code), u32::from(n));
}

/// A [`TokenSink`] that packs the command stream into a complete
/// fixed-Huffman zlib stream as it arrives: the matcher feeds the encoder
/// directly and no token buffer exists.
///
/// [`FixedZlibSink::new`] writes the zlib header and the block header;
/// every literal and match is packed on arrival; [`FixedZlibSink::finish`]
/// writes end-of-block, the byte alignment and the Adler-32 trailer. The
/// bytes equal [`crate::zlib_compress_tokens`] with
/// [`BlockKind::FixedHuffman`] over the same tokens, which runs this sink.
#[derive(Debug)]
pub struct FixedZlibSink {
    writer: BitWriter,
    tokens: u64,
}

impl FixedZlibSink {
    /// A stream for an LZ77 window of `window_size` bytes (the zlib
    /// header's CINFO), with the single final block opened.
    pub fn new(window_size: u32) -> Self {
        let mut writer = BitWriter::new();
        writer.write_aligned_bytes(&zlib_header(window_size, 1));
        fixed_block_header(&mut writer, true);
        FixedZlibSink { writer, tokens: 0 }
    }

    /// Tokens packed so far.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Close the block and the stream. `original` must be the exact bytes
    /// the tokens expand to; it feeds the Adler-32 trailer.
    pub fn finish(mut self, original: &[u8]) -> Vec<u8> {
        fixed_end_of_block(&mut self.writer);
        self.writer.align_to_byte();
        self.writer.write_aligned_bytes(&adler32(original).to_be_bytes());
        self.writer.finish()
    }
}

impl TokenSink for FixedZlibSink {
    #[inline]
    fn literal(&mut self, byte: u8) {
        self.tokens += 1;
        fixed_literal(&mut self.writer, byte);
    }

    #[inline]
    fn matched(&mut self, dist: u32, len: u32) {
        self.tokens += 1;
        fixed_match(&mut self.writer, dist, len);
    }

    fn push_tokens(&mut self, tokens: &[Token]) {
        self.tokens += tokens.len() as u64;
        fixed_tokens(&mut self.writer, tokens);
    }
}

/// Exact size in bits of `tokens` under the fixed tables (including the
/// 3-bit block header and end-of-block symbol). Used by the hardware model's
/// Huffman stage to produce byte-exact output counts without re-encoding.
pub fn fixed_block_bit_size(tokens: &[Token]) -> u64 {
    let mut bits: u64 = 3 + u64::from(FIXED_LITLEN[END_OF_BLOCK].1);
    for t in tokens {
        bits += u64::from(match *t {
            Token::Literal(b) => u32::from(FIXED_LITLEN[usize::from(b)].1),
            Token::Match { dist, len } => fixed_match_bits(dist, len).1,
        });
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;
    use crate::token::Token as T;

    fn literals(data: &[u8]) -> Vec<T> {
        data.iter().copied().map(T::Literal).collect()
    }

    #[test]
    fn stored_block_round_trip() {
        let data = b"hello stored world";
        let mut enc = DeflateEncoder::new();
        enc.write_block(&literals(data), BlockKind::Stored, true);
        let stream = enc.finish();
        assert_eq!(inflate(&stream).unwrap(), data);
    }

    #[test]
    fn empty_stored_block() {
        let mut enc = DeflateEncoder::new();
        enc.write_block(&[], BlockKind::Stored, true);
        let stream = enc.finish();
        assert_eq!(inflate(&stream).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn fixed_block_round_trip_literals_only() {
        let data = b"abcabcabc";
        let mut enc = DeflateEncoder::new();
        enc.write_block(&literals(data), BlockKind::FixedHuffman, true);
        assert_eq!(inflate(&enc.finish()).unwrap(), data);
    }

    #[test]
    fn fixed_block_round_trip_with_matches() {
        // "snowy snow": 6 literals + match(dist 6, len 4).
        let mut tokens = literals(b"snowy ");
        tokens.push(T::new_match(6, 4));
        let mut enc = DeflateEncoder::new();
        enc.write_block(&tokens, BlockKind::FixedHuffman, true);
        assert_eq!(inflate(&enc.finish()).unwrap(), b"snowy snow");
    }

    #[test]
    fn overlapping_match_expands_correctly() {
        // 'a' then match(dist 1, len 10) = "aaaaaaaaaaa".
        let tokens = vec![T::Literal(b'a'), T::new_match(1, 10)];
        let mut enc = DeflateEncoder::new();
        enc.write_block(&tokens, BlockKind::FixedHuffman, true);
        assert_eq!(inflate(&enc.finish()).unwrap(), b"aaaaaaaaaaa");
    }

    #[test]
    fn dynamic_block_round_trip() {
        let sentence = b"the quick brown fox jumps over the lazy dog "; // 44 bytes
        let mut tokens = literals(sentence);
        tokens.push(T::new_match(44, 9)); // replay "the quick" from the start
        tokens.extend(literals(b"END"));
        let mut enc = DeflateEncoder::new();
        enc.write_block(&tokens, BlockKind::DynamicHuffman, true);
        let out = inflate(&enc.finish()).unwrap();
        assert_eq!(&out[..44], sentence);
        assert_eq!(&out[44..53], b"the quick");
        assert_eq!(&out[53..], b"END");
    }

    #[test]
    fn dynamic_block_no_matches() {
        let tokens = literals(b"zzzzzzzzzzzzzzzzzzzzyyyyx");
        let mut enc = DeflateEncoder::new();
        enc.write_block(&tokens, BlockKind::DynamicHuffman, true);
        assert_eq!(inflate(&enc.finish()).unwrap(), b"zzzzzzzzzzzzzzzzzzzzyyyyx");
    }

    #[test]
    fn dynamic_beats_fixed_on_skewed_data() {
        // Highly skewed literal distribution favours dynamic tables.
        let data: Vec<u8> = (0..4000).map(|i| if i % 17 == 0 { b'b' } else { b'a' }).collect();
        let tokens = literals(&data);
        let mut fx = DeflateEncoder::new();
        fx.write_block(&tokens, BlockKind::FixedHuffman, true);
        let mut dy = DeflateEncoder::new();
        dy.write_block(&tokens, BlockKind::DynamicHuffman, true);
        let (f, d) = (fx.finish(), dy.finish());
        assert_eq!(inflate(&f).unwrap(), data);
        assert_eq!(inflate(&d).unwrap(), data);
        assert!(d.len() < f.len(), "dynamic {} !< fixed {}", d.len(), f.len());
    }

    #[test]
    fn multi_block_stream() {
        let mut enc = DeflateEncoder::new();
        enc.write_block(&literals(b"first block "), BlockKind::FixedHuffman, false);
        enc.write_block(&literals(b"second block "), BlockKind::Stored, false);
        enc.write_block(&literals(b"third"), BlockKind::DynamicHuffman, true);
        assert_eq!(inflate(&enc.finish()).unwrap(), b"first block second block third");
    }

    #[test]
    fn large_stored_payload_splits_blocks() {
        let data = vec![0x5Au8; 70_000];
        let mut enc = DeflateEncoder::new();
        enc.write_block(&literals(&data), BlockKind::Stored, true);
        assert_eq!(inflate(&enc.finish()).unwrap(), data);
    }

    #[test]
    fn fixed_bit_size_matches_actual_encoding() {
        let mut tokens = literals(b"hello hello hello ");
        tokens.push(T::new_match(6, 12));
        tokens.push(T::Literal(0xF0)); // a 9-bit literal
        let predicted = fixed_block_bit_size(&tokens);
        let mut enc = DeflateEncoder::new();
        enc.write_block(&tokens, BlockKind::FixedHuffman, true);
        let actual_bits = enc.bit_len();
        assert_eq!(predicted, actual_bits);
    }

    #[test]
    #[should_panic]
    fn fixed_packer_rejects_out_of_range_lengths() {
        // The length table is indexed by `len - 3`: a length of 2 fails
        // the subtraction (debug) or the bounds check (release) instead of
        // packing a wrong code.
        let mut enc = DeflateEncoder::new();
        enc.write_block(
            &[T::Literal(b'a'), T::Match { dist: 1, len: 2 }],
            BlockKind::FixedHuffman,
            true,
        );
    }

    #[test]
    #[should_panic(expected = "stored blocks carry raw bytes")]
    fn stored_block_rejects_matches() {
        let mut enc = DeflateEncoder::new();
        enc.write_block(&[T::new_match(1, 3)], BlockKind::Stored, true);
    }
}

#[cfg(test)]
mod pick_tests {
    use super::*;
    use crate::inflate::inflate;
    use crate::token::Token as T;

    fn literals(data: &[u8]) -> Vec<T> {
        data.iter().copied().map(T::Literal).collect()
    }

    #[test]
    fn random_literals_pick_stored() {
        let mut x = 0x9E37_79B9u32;
        let data: Vec<u8> = (0..20_000)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        assert_eq!(pick_block_kind(&literals(&data)), BlockKind::Stored);
    }

    #[test]
    fn skewed_text_picks_dynamic() {
        let tokens = literals(&b"aaaaabbbbbcccc".repeat(500));
        assert_eq!(pick_block_kind(&tokens), BlockKind::DynamicHuffman);
    }

    #[test]
    fn tiny_blocks_pick_fixed() {
        // The dynamic preamble (~dozens of bytes) dwarfs a few symbols.
        let tokens = literals(b"hi");
        assert_eq!(pick_block_kind(&tokens), BlockKind::FixedHuffman);
    }

    #[test]
    fn picked_kind_is_never_beaten_and_always_decodes() {
        let cases: Vec<Vec<T>> =
            vec![literals(b"short"), literals(&b"the quick brown fox ".repeat(200)), {
                let mut t = literals(b"seed data");
                t.push(T::new_match(9, 258));
                t.push(T::new_match(4, 37));
                t
            }];
        for tokens in cases {
            let picked = pick_block_kind(&tokens);
            let size = |kind| {
                let mut e = DeflateEncoder::new();
                e.write_block(&tokens, kind, true);
                e.bit_len()
            };
            let best = size(picked);
            for kind in [BlockKind::FixedHuffman, BlockKind::DynamicHuffman] {
                assert!(best <= size(kind), "{picked:?} beaten by {kind:?}");
            }
            let mut e = DeflateEncoder::new();
            e.write_block(&tokens, picked, true);
            assert!(inflate(&e.finish()).is_ok());
        }
    }
}
