//! Property tests over the format layer: bit I/O, canonical Huffman
//! construction, token codecs and whole-block encode/decode, under inputs
//! drawn from a seeded in-repo xorshift generator (deterministic, no
//! external framework).

use lzfpga_deflate::adler32::{adler32, Adler32};
use lzfpga_deflate::bitio::{BitReader, BitWriter};
use lzfpga_deflate::crc32::{crc32, Crc32};
use lzfpga_deflate::encoder::{BlockKind, DeflateEncoder, FixedZlibSink};
use lzfpga_deflate::fixed::{
    distance_symbol, fixed_dist_lengths, fixed_litlen_lengths, length_symbol, DIST_CODES,
    END_OF_BLOCK, LENGTH_CODES, MAX_DISTANCE, MAX_MATCH, MIN_MATCH,
};
use lzfpga_deflate::huffman::{
    build_lengths, canonical_codes, Codebook, DecodeError, Decoder, MAX_BITS,
};
use lzfpga_deflate::inflate::{inflate, inflate_limited, InflateError, InflateStream, Limits};
use lzfpga_deflate::sink::TokenSink;
use lzfpga_deflate::token::Token;
use lzfpga_deflate::zlib::{
    zlib_compress_tokens, zlib_decompress, zlib_decompress_prefix, zlib_header, zlib_inflate_head,
    ZlibError,
};
use lzfpga_lzss::{LzssParams, TurboEngine};
use lzfpga_sim::rng::XorShift64;
use lzfpga_workloads::{generate, Corpus};

const CASES: usize = 64;

/// Random bit-field sequences: (value, width) with value < 2^width.
fn bit_fields(rng: &mut XorShift64) -> Vec<(u64, u32)> {
    (0..rng.below_usize(200))
        .map(|_| {
            let w = rng.range_u32(1, 57);
            let max = if w == 57 { u64::MAX >> 7 } else { (1u64 << w) - 1 };
            (rng.next_below(max + 1), w)
        })
        .collect()
}

/// A structurally valid token stream (matches never reach before start).
fn token_stream(rng: &mut XorShift64) -> Vec<Token> {
    let raw: Vec<Token> = (0..rng.below_usize(300))
        .map(|_| {
            if rng.chance(1, 2) {
                Token::Literal(rng.next_u8())
            } else {
                Token::Match {
                    dist: rng.range_u32(1, 600),
                    len: rng.range_u32(MIN_MATCH, MAX_MATCH),
                }
            }
        })
        .collect();
    // Legalise: matches may only reach into already-produced output.
    let mut produced = 0u32;
    let mut out = Vec::with_capacity(raw.len());
    for t in raw {
        match t {
            Token::Literal(_) => {
                out.push(t);
                produced += 1;
            }
            Token::Match { dist, len } => {
                if produced == 0 {
                    out.push(Token::Literal(0x55));
                    produced += 1;
                }
                let dist = dist.min(produced);
                out.push(Token::Match { dist, len });
                produced += len;
            }
        }
    }
    out
}

fn random_freqs(rng: &mut XorShift64) -> Vec<u64> {
    (0..2 + rng.below_usize(58)).map(|_| rng.next_below(1_000)).collect()
}

fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { dist, len } => {
                for _ in 0..len {
                    let b = out[out.len() - dist as usize];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[test]
fn bitio_round_trips() {
    let mut rng = XorShift64::new(0xDEF1_0001);
    for _ in 0..CASES {
        let fields = bit_fields(&mut rng);
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }
}

#[test]
fn canonical_codes_are_prefix_free() {
    let mut rng = XorShift64::new(0xDEF1_0002);
    for _ in 0..CASES {
        let freqs = random_freqs(&mut rng);
        let lengths = build_lengths(&freqs, 15);
        // Kraft inequality.
        let kraft: f64 =
            lengths.iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-i32::from(l))).sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft {kraft}");
        // Every symbol with nonzero frequency got a code.
        for (i, &f) in freqs.iter().enumerate() {
            if f > 0 {
                assert!(lengths[i] > 0, "symbol {i} lost its code");
            }
        }
        // Canonical codes of equal length are distinct.
        let codes = canonical_codes(&lengths);
        for i in 0..lengths.len() {
            for j in (i + 1)..lengths.len() {
                if lengths[i] != 0 && lengths[i] == lengths[j] {
                    assert_ne!(codes[i], codes[j]);
                }
            }
        }
    }
}

#[test]
fn huffman_encode_decode_inverts() {
    let mut rng = XorShift64::new(0xDEF1_0003);
    for _ in 0..CASES {
        let mut freqs = random_freqs(&mut rng);
        // Ensure at least two used symbols so a real tree exists.
        freqs[0] += 1;
        let last = freqs.len() - 1;
        freqs[last] += 1;
        let lengths = build_lengths(&freqs, 15);
        let book = Codebook::from_lengths(&lengths);
        let decoder = Decoder::from_lengths(&lengths).expect("valid lengths");
        let symbols: Vec<usize> =
            freqs.iter().enumerate().filter(|(_, &f)| f > 0).map(|(i, _)| i).collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            book.encode(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(decoder.decode(&mut r).unwrap() as usize, s);
        }
    }
}

#[test]
fn token_dl_pairs_round_trip() {
    let mut rng = XorShift64::new(0xDEF1_0004);
    for _ in 0..CASES {
        for t in &token_stream(&mut rng) {
            let (d, l) = t.to_dl_pair();
            assert_eq!(&Token::from_dl_pair(d, l), t);
        }
    }
}

#[test]
fn fixed_and_dynamic_blocks_inflate() {
    let mut rng = XorShift64::new(0xDEF1_0005);
    for _ in 0..CASES {
        let tokens = token_stream(&mut rng);
        let expected = expand(&tokens);
        for kind in [BlockKind::FixedHuffman, BlockKind::DynamicHuffman] {
            let mut enc = DeflateEncoder::new();
            enc.write_block(&tokens, kind, true);
            let stream = enc.finish();
            assert_eq!(&inflate(&stream).unwrap(), &expected, "{kind:?}");
        }
    }
}

#[test]
fn multi_block_streams_inflate() {
    let mut rng = XorShift64::new(0xDEF1_0006);
    for _ in 0..CASES {
        let tokens = token_stream(&mut rng);
        let expected = expand(&tokens);
        let cut = rng.below_usize(300).min(tokens.len());
        let mut enc = DeflateEncoder::new();
        enc.write_block(&tokens[..cut], BlockKind::FixedHuffman, false);
        enc.sync_flush();
        enc.write_block(&tokens[cut..], BlockKind::DynamicHuffman, true);
        assert_eq!(inflate(&enc.finish()).unwrap(), expected);
    }
}

#[test]
fn checksums_are_chunking_invariant() {
    let mut rng = XorShift64::new(0xDEF1_0007);
    for _ in 0..CASES {
        let mut data = vec![0u8; rng.below_usize(5_000)];
        rng.fill_bytes(&mut data);
        let cut = rng.below_usize(5_000).min(data.len());
        let mut a = Adler32::new();
        a.update(&data[..cut]);
        a.update(&data[cut..]);
        assert_eq!(a.finish(), adler32(&data));
        let mut c = Crc32::new();
        c.update(&data[..cut]);
        c.update(&data[cut..]);
        assert_eq!(c.finish(), crc32(&data));
    }
}

#[test]
fn length_and_distance_symbols_cover_their_ranges() {
    let mut rng = XorShift64::new(0xDEF1_0008);
    for _ in 0..512 {
        let len = rng.range_u32(MIN_MATCH, MAX_MATCH);
        let dist = rng.range_u32(1, 32_768);
        let l = length_symbol(len);
        assert!((257..=285).contains(&l.symbol));
        let base = lzfpga_deflate::fixed::length_base(l.symbol).unwrap();
        assert_eq!(base.0 + l.extra_val, len);
        assert!(l.extra_val < (1 << l.extra_bits) || l.extra_bits == 0);
        let d = distance_symbol(dist);
        assert!(d.symbol < 30);
        let base = lzfpga_deflate::fixed::distance_base(d.symbol).unwrap();
        assert_eq!(base.0 + d.extra_val, dist);
    }
}

/// The bit-serial canonical walk that the table-driven [`Decoder`]
/// replaced, kept as the oracle it must agree with.
struct SerialCode {
    count: [u32; MAX_BITS + 1],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u16>,
}

impl SerialCode {
    fn new(lengths: &[u8]) -> Self {
        let mut count = [0u32; MAX_BITS + 1];
        lengths.iter().for_each(|&l| count[usize::from(l)] += 1);
        let mut symbols: Vec<u16> =
            (0..lengths.len() as u16).filter(|&s| lengths[s as usize] > 0).collect();
        symbols.sort_by_key(|&s| lengths[s as usize]);
        Self { count, symbols }
    }

    /// Decode one symbol, taking one bit from `bit` per code bit (`None`
    /// once the input has ended).
    fn decode(&self, mut bit: impl FnMut() -> Option<u32>) -> Result<u16, DecodeError> {
        let (mut code, mut first, mut index) = (0u32, 0u32, 0u32);
        for &cnt in &self.count[1..] {
            code |= bit().ok_or(DecodeError::OutOfInput)?;
            if code < first + cnt {
                return Ok(self.symbols[(index + code - first) as usize]);
            }
            index += cnt;
            first = (first + cnt) << 1;
            code <<= 1;
        }
        Err(DecodeError::InvalidCode)
    }
}

/// [`SerialCode`] over a [`BitReader`], one `read_bit` per code bit.
fn oracle_decode(lengths: &[u8], r: &mut BitReader<'_>) -> Result<u16, DecodeError> {
    SerialCode::new(lengths).decode(|| r.read_bit().ok())
}

/// Decode `bits` (stream order) with both decoders, symbol after symbol
/// until the first error, starting with exactly `bits.len()` bits left:
/// filler bits pad the front to a byte boundary and are read off first.
/// Every step must give the same symbol or error and leave the same
/// number of bits unread.
fn assert_decoders_agree(lengths: &[u8], dec: &Decoder, bits: &[bool]) {
    let pad = (8 - bits.len() % 8) % 8;
    let mut w = BitWriter::new();
    w.write_bits((1 << pad) - 1, pad as u32);
    bits.iter().for_each(|&b| w.write_bits(u64::from(b), 1));
    let bytes = w.finish();
    let (mut fast, mut slow) = (BitReader::new(&bytes), BitReader::new(&bytes));
    fast.read_bits(pad as u32).unwrap();
    slow.read_bits(pad as u32).unwrap();
    loop {
        let (got, want) = (dec.decode(&mut fast), oracle_decode(lengths, &mut slow));
        assert_eq!(got, want, "lengths {lengths:?}, {} bits", bits.len());
        if got.is_err() {
            return;
        }
        assert_eq!(fast.remaining_bits(), slow.remaining_bits(), "lengths {lengths:?}");
    }
}

/// `bits` and every truncation of it, bit by bit.
fn assert_agree_at_every_cut(lengths: &[u8], dec: &Decoder, bits: &[bool]) {
    (0..=bits.len()).for_each(|cut| assert_decoders_agree(lengths, dec, &bits[..cut]));
}

/// The stream bits of `symbols` coded with `lengths`, then `tail` random bits.
fn coded_bits(lengths: &[u8], symbols: &[usize], tail: usize, rng: &mut XorShift64) -> Vec<bool> {
    let book = Codebook::from_lengths(lengths);
    let mut bits = Vec::new();
    for &s in symbols {
        let (code, len) = book.code(s);
        bits.extend((0..len).map(|i| code >> i & 1 == 1));
    }
    bits.extend((0..tail).map(|_| rng.chance(1, 2)));
    bits
}

/// Random, possibly incomplete, never oversubscribed code lengths over
/// `n` symbols.
fn random_lengths(rng: &mut XorShift64, n: usize) -> Vec<u8> {
    let mut lengths: Vec<u8> =
        (0..n).map(|_| if rng.chance(1, 3) { 0 } else { rng.range_u32(1, 15) as u8 }).collect();
    let kraft = |l: &[u8]| l.iter().filter(|&&x| x > 0).map(|&x| 1u32 << (15 - x)).sum::<u32>();
    while kraft(&lengths) > 1 << 15 {
        let i = rng.below_usize(n);
        lengths[i] = if (1..15).contains(&lengths[i]) { lengths[i] + 1 } else { 0 };
    }
    lengths
}

#[test]
fn table_decoder_matches_the_bit_serial_walk_on_every_fixed_code() {
    let mut rng = XorShift64::new(0xDEF1_0009);
    for lengths in [fixed_litlen_lengths().to_vec(), fixed_dist_lengths().to_vec()] {
        let dec = Decoder::from_lengths(&lengths).unwrap();
        for sym in 0..lengths.len() {
            let bits = coded_bits(&lengths, &[sym], 16, &mut rng);
            assert_agree_at_every_cut(&lengths, &dec, &bits);
        }
    }
}

#[test]
fn table_decoder_matches_the_bit_serial_walk_on_dynamic_codes() {
    let mut rng = XorShift64::new(0xDEF1_000A);
    // Fibonacci frequencies force 15-bit codes; a lone symbol (of any
    // length) and an empty alphabet are the incomplete extremes.
    let mut fib = vec![1u64, 1];
    (2..40).for_each(|i| fib.push(fib[i - 1] + fib[i - 2]));
    let mut sets = vec![build_lengths(&fib, 15), vec![0; 30], vec![0, 0, 1, 0], vec![0, 5, 0]];
    assert!(sets[0].contains(&15));
    for _ in 0..CASES {
        let n = 1 + rng.below_usize(288);
        sets.push(random_lengths(&mut rng, n));
        let freqs: Vec<u64> = (0..n)
            .map(|_| {
                let scale = rng.range_u32(0, 16);
                rng.next_below(1 << scale)
            })
            .collect();
        sets.push(build_lengths(&freqs, 15));
    }
    for lengths in &sets {
        let dec = Decoder::from_lengths(lengths).expect("lengths are not oversubscribed");
        let used: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
        let picks: Vec<usize> = if used.is_empty() {
            Vec::new()
        } else {
            (0..4).map(|_| used[rng.below_usize(used.len())]).collect()
        };
        assert_agree_at_every_cut(lengths, &dec, &coded_bits(lengths, &picks, 20, &mut rng));
        // Random bits hit the gaps of incomplete codes and long codes alike.
        let noise = coded_bits(lengths, &[], 64 + rng.below_usize(200), &mut rng);
        assert_agree_at_every_cut(lengths, &dec, &noise);
    }
}

/// Bytewise CRC-32 straight from the polynomial: the reference the
/// slicing-by-8 tables must reproduce.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

#[test]
fn crc32_slicing_matches_the_bitwise_reference() {
    let mut rng = XorShift64::new(0xDEF1_000B);
    // Past four braid blocks (5 words of 8 bytes), so every split lands
    // in the braided body, its last block and the slicing tail alike.
    let mut buf = vec![0u8; 8 + 4 * 40 + 17];
    rng.fill_bytes(&mut buf);
    for start in 0..8 {
        for len in 0..=buf.len() - 8 {
            let data = &buf[start..start + len];
            let want = crc32_bitwise(data);
            assert_eq!(crc32(data), want, "start {start}, len {len}");
            for cut in 0..=len {
                let mut c = Crc32::new();
                c.update(&data[..cut]);
                c.update(&data[cut..]);
                assert_eq!(c.finish(), want, "start {start}, len {len}, cut {cut}");
            }
        }
    }
}

#[test]
fn crc32_braids_match_the_bitwise_reference_on_long_inputs() {
    let mut rng = XorShift64::new(0xDEF1_000C);
    let mut buf = vec![0u8; 300_007];
    rng.fill_bytes(&mut buf);
    for len in [79, 80, 81, 119, 120, 121, 4_096, 65_536 + 3, 300_000] {
        let start = rng.below_usize(8);
        let data = &buf[start..start + len];
        let want = crc32_bitwise(data);
        assert_eq!(crc32(data), want, "len {len}");
        let mut c = Crc32::new();
        for piece in data.chunks(1 + rng.below_usize(5_000)) {
            c.update(piece);
        }
        assert_eq!(c.finish(), want, "len {len}, pieces");
    }
}

#[test]
fn peek_consume_and_remaining_bits_stay_exact() {
    let mut rng = XorShift64::new(0xDEF1_000C);
    for _ in 0..CASES {
        let mut data = vec![0u8; rng.below_usize(40)];
        rng.fill_bytes(&mut data);
        let total = data.len() as u64 * 8;
        let mut r = BitReader::new(&data);
        let mut pos = 0u64;
        loop {
            let n = rng.range_u32(0, 57);
            let (v, avail) = r.peek(n);
            assert_eq!(u64::from(avail), u64::from(n).min(total - pos));
            let want = (0..u64::from(avail))
                .filter(|&i| data[((pos + i) / 8) as usize] >> ((pos + i) % 8) & 1 == 1)
                .fold(0u64, |acc, i| acc | 1 << i);
            assert_eq!(v, want, "peek {n} at bit {pos}");
            let take = rng.range_u32(0, avail);
            r.consume(take);
            pos += u64::from(take);
            assert_eq!(r.remaining_bits(), total - pos);
            if pos == total {
                break;
            }
        }
    }
}

/// A bit-at-a-time LSB-first writer: the reference the word-storing
/// [`BitWriter`] must reproduce.
#[derive(Default)]
struct SerialBits {
    bytes: Vec<u8>,
    len: u64,
}

impl SerialBits {
    fn push(&mut self, value: u64, n: u32) {
        for i in 0..n {
            if self.len.is_multiple_of(8) {
                self.bytes.push(0);
            }
            *self.bytes.last_mut().unwrap() |= ((value >> i & 1) as u8) << (self.len % 8);
            self.len += 1;
        }
    }

    fn complete_bytes(&self) -> &[u8] {
        &self.bytes[..(self.len / 8) as usize]
    }
}

/// The length code of `len` by a scan of the RFC table, independent of
/// the encoder's slot tables: `(symbol, extra bits, extra value)`.
fn oracle_length(len: u32) -> (usize, u32, u32) {
    if len == MAX_MATCH {
        return (285, 0, 0);
    }
    let i = LENGTH_CODES.iter().rposition(|&(base, _)| base <= len).unwrap();
    (257 + i, LENGTH_CODES[i].1, len - LENGTH_CODES[i].0)
}

/// The distance code of `dist` by a scan of the RFC table.
fn oracle_distance(dist: u32) -> (usize, u32, u32) {
    let i = DIST_CODES.iter().rposition(|&(base, _)| base <= dist).unwrap();
    (i, DIST_CODES[i].1, dist - DIST_CODES[i].0)
}

/// The `Codebook`-driven fixed block encoder the table packer replaced —
/// header, one codebook lookup per field, end-of-block — kept as the
/// oracle it must match byte for byte.
fn oracle_fixed_block(w: &mut SerialBits, tokens: &[Token], last: bool) {
    let litlen = Codebook::from_lengths(&fixed_litlen_lengths());
    let dist = Codebook::from_lengths(&fixed_dist_lengths());
    let code = |w: &mut SerialBits, book: &Codebook, symbol: usize| {
        let (c, n) = book.code(symbol);
        w.push(u64::from(c), u32::from(n));
    };
    w.push(u64::from(last), 1);
    w.push(0b01, 2);
    for t in tokens {
        match *t {
            Token::Literal(b) => code(w, &litlen, usize::from(b)),
            Token::Match { dist: d, len } => {
                let (symbol, bits, value) = oracle_length(len);
                code(w, &litlen, symbol);
                w.push(u64::from(value), bits);
                let (symbol, bits, value) = oracle_distance(d);
                code(w, &dist, symbol);
                w.push(u64::from(value), bits);
            }
        }
    }
    code(w, &litlen, END_OF_BLOCK);
}

/// The oracle's complete fixed-Huffman zlib stream for `tokens`.
fn oracle_zlib(tokens: &[Token], original: &[u8], window: u32) -> Vec<u8> {
    let mut w = SerialBits::default();
    zlib_header(window, 1).iter().for_each(|&b| w.push(u64::from(b), 8));
    oracle_fixed_block(&mut w, tokens, true);
    w.push(0, ((8 - w.len % 8) % 8) as u32);
    adler32(original).to_be_bytes().iter().for_each(|&b| w.push(u64::from(b), 8));
    w.bytes
}

/// A non-final block of 9-bit literals that leaves the stream at bit
/// offset `k` (mod 8): 3 header + 9 per literal + 7 end-of-block bits.
fn prefix_for_offset(k: u64) -> Vec<Token> {
    vec![Token::Literal(0xFF); ((k + 6) % 8) as usize]
}

/// `tokens` as a fixed block after a prefix block ending at bit offset
/// `k`, by the slice entry point and by the oracle; asserts they agree.
fn assert_packer_matches_oracle(tokens: &[Token], k: u64, what: &str) {
    let prefix = prefix_for_offset(k);
    let mut enc = DeflateEncoder::new();
    enc.write_block(&prefix, BlockKind::FixedHuffman, false);
    assert_eq!(enc.bit_len() % 8, k);
    enc.write_block(tokens, BlockKind::FixedHuffman, true);
    let mut want = SerialBits::default();
    oracle_fixed_block(&mut want, &prefix, false);
    oracle_fixed_block(&mut want, tokens, true);
    assert_eq!(enc.bit_len(), want.len, "{what} at offset {k}");
    let got = enc.finish();
    if let Some(i) = got.iter().zip(&want.bytes).position(|(a, b)| a != b) {
        panic!("{what} at offset {k}: first difference at byte {i}");
    }
    assert_eq!(got, want.bytes, "{what} at offset {k}");
}

#[test]
fn fixed_packer_matches_the_codebook_oracle_on_every_symbol() {
    let literals: Vec<Token> = (0..=255).map(Token::Literal).collect();
    let lengths: Vec<Token> =
        (MIN_MATCH..=MAX_MATCH).map(|len| Token::Match { dist: 1, len }).collect();
    let distances: Vec<Token> = (1..=MAX_DISTANCE)
        .map(|dist| Token::Match { dist, len: if dist % 2 == 0 { MAX_MATCH } else { MIN_MATCH } })
        .collect();
    for k in 0..8 {
        assert_packer_matches_oracle(&literals, k, "every literal");
        assert_packer_matches_oracle(&lengths, k, "every length");
        assert_packer_matches_oracle(&distances, k, "every distance");
    }
}

#[test]
fn fixed_packer_matches_the_codebook_oracle_on_random_streams() {
    let mut rng = XorShift64::new(0xDEF1_000D);
    for case in 0..CASES {
        let mut tokens: Vec<Token> = (0..rng.below_usize(2_000))
            .map(|_| match rng.below_usize(4) {
                0 | 1 => Token::Literal(rng.next_u8()),
                2 => Token::Match {
                    dist: rng.range_u32(1, MAX_DISTANCE),
                    len: rng.range_u32(MIN_MATCH, MAX_MATCH),
                },
                _ => Token::Match { dist: rng.range_u32(1, 300), len: rng.range_u32(3, 20) },
            })
            .collect();
        let at = rng.below_usize(tokens.len() + 1);
        tokens.insert(at, Token::Match { dist: MAX_DISTANCE, len: MAX_MATCH });
        for k in 0..8 {
            assert_packer_matches_oracle(&tokens, k, &format!("random stream {case}"));
        }
        // The streaming entry point, fed token by token.
        let original = vec![0u8; 7];
        let mut sink = FixedZlibSink::new(32_768);
        for t in &tokens {
            match *t {
                Token::Literal(b) => sink.literal(b),
                Token::Match { dist, len } => sink.matched(dist, len),
            }
        }
        assert_eq!(sink.tokens(), tokens.len() as u64);
        assert_eq!(sink.finish(&original), oracle_zlib(&tokens, &original, 32_768));
    }
}

#[test]
fn fused_sink_slice_entry_and_oracle_agree_on_every_corpus() {
    let corpora = [
        Corpus::Wiki,
        Corpus::X2e,
        Corpus::LogLines,
        Corpus::Random,
        Corpus::Periodic { period: 777 },
        Corpus::Constant,
        Corpus::CollisionStress,
        Corpus::JsonTelemetry,
        Corpus::SensorFrames,
        Corpus::WikiXml,
        Corpus::Mixed,
    ];
    let params = LzssParams::paper_fast();
    let mut engine = TurboEngine::new();
    let mut inputs: Vec<(String, Vec<u8>)> =
        corpora.iter().map(|&c| (c.name(), generate(c, 37, 48 * 1024))).collect();
    inputs.push(("empty".into(), Vec::new()));
    inputs.push(("one byte".into(), vec![0x42]));
    for (name, data) in &inputs {
        let tokens = engine.compress(data, &params);
        let mut sink = FixedZlibSink::new(params.window_size);
        engine.compress_into(data, &params, &mut sink);
        assert_eq!(sink.tokens(), tokens.len() as u64, "{name}");
        let fused = sink.finish(data);
        let slice =
            zlib_compress_tokens(&tokens, data, BlockKind::FixedHuffman, params.window_size);
        assert_eq!(fused, slice, "{name}: fused sink vs slice entry point");
        assert_eq!(slice, oracle_zlib(&tokens, data, params.window_size), "{name}: vs oracle");
        assert_eq!(&zlib_decompress(&fused).unwrap(), data, "{name}");
        if name == "random" {
            // Incompressible: the stream outgrows its input, which is
            // what sends a frame to the raw codec.
            assert!(fused.len() >= data.len(), "random input compressed to {}", fused.len());
        }
    }
}

#[test]
fn bit_len_and_as_bytes_stay_exact_mid_stream() {
    let mut rng = XorShift64::new(0xDEF1_000E);
    for _ in 0..CASES {
        let mut w = BitWriter::new();
        let mut want = SerialBits::default();
        for (v, n) in bit_fields(&mut rng) {
            w.write_bits(v, n);
            want.push(v, n);
            assert_eq!(w.bit_len(), want.len);
            assert_eq!(w.as_bytes(), want.complete_bytes());
            if rng.chance(1, 8) {
                w.align_to_byte();
                want.push(0, ((8 - want.len % 8) % 8) as u32);
                let bytes: Vec<u8> = (0..rng.below_usize(20)).map(|_| rng.next_u8()).collect();
                w.write_aligned_bytes(&bytes);
                bytes.iter().for_each(|&b| want.push(u64::from(b), 8));
                assert_eq!(w.as_bytes(), want.complete_bytes());
            }
        }
        assert_eq!(w.finish(), want.bytes);
    }
    // A sync flush makes every bit before it deliverable from as_bytes().
    let mut rng = XorShift64::new(0xDEF1_000F);
    for _ in 0..CASES {
        let tokens = token_stream(&mut rng);
        let mut enc = DeflateEncoder::new();
        enc.write_block(&tokens, BlockKind::FixedHuffman, false);
        let before = enc.bit_len();
        enc.sync_flush();
        assert_eq!(enc.bit_len() % 8, 0);
        assert_eq!(enc.as_bytes().len() as u64 * 8, enc.bit_len());
        assert!(enc.bit_len() >= before + 3 + 32);
        let delivered = enc.as_bytes().to_vec();
        let mut done = DeflateEncoder::new();
        done.write_block(&tokens, BlockKind::FixedHuffman, false);
        done.sync_flush();
        done.write_block(&[], BlockKind::FixedHuffman, true);
        assert!(done.finish().starts_with(&delivered));
    }
}

// ---------------------------------------------------------------------
// Inflate parity: the resolved-entry decode loop against a bit-at-a-time
// reference inflater.
// ---------------------------------------------------------------------

/// An LSB-first cursor that takes one bit per call: the reference's only
/// view of the input.
struct SerialReader<'a> {
    data: &'a [u8],
    /// Bits taken so far.
    pos: u64,
}

impl SerialReader<'_> {
    fn bit(&mut self) -> Option<u32> {
        let byte = *self.data.get((self.pos / 8) as usize)?;
        self.pos += 1;
        Some(u32::from(byte >> ((self.pos - 1) % 8) & 1))
    }

    fn bits(&mut self, n: u32) -> Result<u32, InflateError> {
        (0..n).try_fold(0, |v, i| Ok(v | self.bit().ok_or(InflateError::UnexpectedEof)? << i))
    }

    fn symbol(&mut self, code: &SerialCode) -> Result<u16, InflateError> {
        code.decode(|| self.bit()).map_err(|e| match e {
            DecodeError::OutOfInput => InflateError::UnexpectedEof,
            DecodeError::InvalidCode => InflateError::BadSymbol,
        })
    }
}

/// `lengths` oversubscribe no code length.
fn kraft_ok(lengths: &[u8]) -> bool {
    lengths.iter().filter(|&&l| l > 0).map(|&l| 1u32 << (MAX_BITS as u8 - l)).sum::<u32>()
        <= 1 << MAX_BITS
}

/// A dynamic block's two codes, read bit by bit (RFC 1951 §3.2.7).
fn ref_dynamic_codes(r: &mut SerialReader<'_>) -> Result<(SerialCode, SerialCode), InflateError> {
    const ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];
    let hlit = r.bits(5)? as usize + 257;
    let hdist = r.bits(5)? as usize + 1;
    let hclen = r.bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(InflateError::BadCodeTable);
    }
    let mut clc_lengths = [0u8; 19];
    for &i in &ORDER[..hclen] {
        clc_lengths[i] = r.bits(3)? as u8;
    }
    if !kraft_ok(&clc_lengths) {
        return Err(InflateError::BadCodeTable);
    }
    let clc = SerialCode::new(&clc_lengths);
    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0;
    while i < lengths.len() {
        let (fill, n) = match r.symbol(&clc)? {
            sym @ 0..=15 => (sym as u8, 1),
            16 if i == 0 => return Err(InflateError::RepeatWithoutPrevious),
            16 => (lengths[i - 1], r.bits(2)? as usize + 3),
            17 => (0, r.bits(3)? as usize + 3),
            18 => (0, r.bits(7)? as usize + 11),
            _ => return Err(InflateError::BadSymbol),
        };
        if i + n > lengths.len() {
            return Err(InflateError::BadCodeTable);
        }
        lengths[i..i + n].fill(fill);
        i += n;
    }
    let (lit, dist) = lengths.split_at(hlit);
    if lit[END_OF_BLOCK] == 0 || !kraft_ok(lit) || !kraft_ok(dist) {
        return Err(InflateError::BadCodeTable);
    }
    Ok((SerialCode::new(lit), SerialCode::new(dist)))
}

/// One Huffman-coded block's symbols, appended to `out`.
fn ref_symbols(
    r: &mut SerialReader<'_>,
    out: &mut Vec<u8>,
    lit: &SerialCode,
    dist: &SerialCode,
    cap: u64,
) -> Result<(), InflateError> {
    loop {
        match r.symbol(lit)? {
            byte @ 0..=255 => {
                if out.len() as u64 >= cap {
                    return Err(InflateError::OutputLimitExceeded);
                }
                out.push(byte as u8);
            }
            256 => return Ok(()),
            sym @ 257..=285 => {
                let (base, extra) = LENGTH_CODES[usize::from(sym) - 257];
                let len = (base + r.bits(extra)?) as usize;
                let dsym = r.symbol(dist)?;
                let &(dbase, dextra) =
                    DIST_CODES.get(usize::from(dsym)).ok_or(InflateError::BadSymbol)?;
                let d = (dbase + r.bits(dextra)?) as usize;
                if d > out.len() {
                    return Err(InflateError::DistanceTooFar);
                }
                if (out.len() + len) as u64 > cap {
                    return Err(InflateError::OutputLimitExceeded);
                }
                for _ in 0..len {
                    out.push(out[out.len() - d]);
                }
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
}

/// The reference inflater: every bit through [`SerialReader`], every code
/// through [`SerialCode`], every match copied byte by byte. Returns the
/// result under `limits` (ratio cap taken against `data.len()`) and the
/// bits read, which after success is where the stream's final block ends.
fn ref_inflate(data: &[u8], limits: &Limits) -> (Result<Vec<u8>, InflateError>, u64) {
    let (result, out, bits) = ref_inflate_partial(data, limits);
    (result.map(|()| out), bits)
}

/// [`ref_inflate`] that keeps its output on failure too: every byte
/// written before the error.
fn ref_inflate_partial(data: &[u8], limits: &Limits) -> (Result<(), InflateError>, Vec<u8>, u64) {
    let cap = limits.output_cap(data.len());
    let mut r = SerialReader { data, pos: 0 };
    let mut out = Vec::new();
    let mut blocks = 0u64;
    let result = loop {
        blocks += 1;
        if limits.max_blocks.is_some_and(|max| blocks > max) {
            break Err(InflateError::BlockLimitExceeded);
        }
        let block = (|| {
            let last = r.bits(1)? == 1;
            match r.bits(2)? {
                0b00 => {
                    r.pos = r.pos.div_ceil(8) * 8;
                    let len = r.bits(16)?;
                    if len != !r.bits(16)? & 0xFFFF {
                        return Err(InflateError::StoredLengthMismatch);
                    }
                    if out.len() as u64 + u64::from(len) > cap {
                        return Err(InflateError::OutputLimitExceeded);
                    }
                    for _ in 0..len {
                        out.push(r.bits(8)? as u8);
                    }
                }
                0b01 => {
                    let lit = SerialCode::new(&fixed_litlen_lengths());
                    let dist = SerialCode::new(&fixed_dist_lengths());
                    ref_symbols(&mut r, &mut out, &lit, &dist, cap)?;
                }
                0b10 => {
                    let (lit, dist) = ref_dynamic_codes(&mut r)?;
                    ref_symbols(&mut r, &mut out, &lit, &dist, cap)?;
                }
                _ => return Err(InflateError::ReservedBlockType),
            }
            Ok(last)
        })();
        match block {
            Ok(true) => break Ok(()),
            Ok(false) => {}
            Err(e) => break Err(e),
        }
    };
    (result, out, r.pos)
}

/// `body` must inflate under an output cap of `cap` exactly as the
/// reference does — same bytes or same error — and, wrapped as a zlib
/// stream with junk after it, `zlib_decompress_prefix` must report the
/// same payload and consume exactly up to the end of the trailer.
fn assert_inflate_parity(body: &[u8], cap: u64, what: &str) {
    let limits = Limits::none().with_max_output_bytes(cap);
    let (want, bits) = ref_inflate(body, &limits);
    assert_eq!(inflate_limited(body, &limits), want, "{what}, cap {cap}");
    let mut z = zlib_header(32_768, 1).to_vec();
    z.extend_from_slice(body);
    let trailer_at = 2 + bits.div_ceil(8) as usize;
    match want {
        Ok(payload) => {
            z.truncate(trailer_at);
            z.extend_from_slice(&adler32(&payload).to_be_bytes());
            z.extend_from_slice(b"junk after the stream");
            assert_eq!(
                zlib_decompress_prefix(&z, &limits),
                Ok((payload, trailer_at + 4)),
                "{what}, cap {cap}: zlib prefix"
            );
        }
        Err(e) if z.len() >= 6 => {
            assert_eq!(
                zlib_decompress_prefix(&z, &limits),
                Err(ZlibError::Inflate(e)),
                "{what}, cap {cap}: zlib prefix"
            );
        }
        Err(_) => {}
    }
}

/// A dynamic block written with the given code lengths (every length sent
/// as a plain code-length symbol, each 4 bits long), so tests can force
/// codes of any length up to 15.
fn write_dynamic_block(
    w: &mut BitWriter,
    tokens: &[Token],
    lit_lengths: &[u8],
    dist_lengths: &[u8],
    last: bool,
) {
    const ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];
    w.write_bits(u64::from(last), 1);
    w.write_bits(0b10, 2);
    w.write_bits(lit_lengths.len() as u64 - 257, 5);
    w.write_bits(dist_lengths.len() as u64 - 1, 5);
    w.write_bits(19 - 4, 4);
    let clc_lengths: Vec<u8> = (0..19).map(|s| if s < 16 { 4 } else { 0 }).collect();
    ORDER.iter().for_each(|&s| w.write_bits(u64::from(clc_lengths[s]), 3));
    let clc = Codebook::from_lengths(&clc_lengths);
    lit_lengths.iter().chain(dist_lengths).for_each(|&l| clc.encode(w, usize::from(l)));
    let lit = Codebook::from_lengths(lit_lengths);
    let dist = Codebook::from_lengths(dist_lengths);
    for t in tokens {
        match *t {
            Token::Literal(b) => lit.encode(w, usize::from(b)),
            Token::Match { dist: d, len } => {
                let l = length_symbol(len);
                lit.encode(w, usize::from(l.symbol));
                w.write_bits(u64::from(l.extra_val), l.extra_bits);
                let d = distance_symbol(d);
                dist.encode(w, usize::from(d.symbol));
                w.write_bits(u64::from(d.extra_val), d.extra_bits);
            }
        }
    }
    lit.encode(w, END_OF_BLOCK);
}

/// Skewed code lengths over `n` symbols, every symbol coded and the
/// longest codes 11 to 15 bits.
fn long_code_lengths(rng: &mut XorShift64, n: usize) -> Vec<u8> {
    let freqs: Vec<u64> = (0..n).map(|_| 1 + (1 << rng.range_u32(0, 24))).collect();
    let lengths = build_lengths(&freqs, 15);
    assert!(lengths.iter().all(|&l| l > 0) && lengths.iter().any(|&l| l > 10), "{lengths:?}");
    lengths
}

/// Tokens as one block of `kind` (a final one), by the library encoder.
fn one_block(tokens: &[Token], kind: BlockKind) -> Vec<u8> {
    let mut enc = DeflateEncoder::new();
    enc.write_block(tokens, kind, true);
    enc.finish()
}

/// A legal token stream drawn uniformly over the alphabet: random bytes,
/// lengths 3..=258 and any distance into the output so far.
fn uniform_tokens(rng: &mut XorShift64, n: usize) -> Vec<Token> {
    let mut produced = 0u32;
    (0..n)
        .map(|_| {
            if produced == 0 || rng.chance(1, 2) {
                produced += 1;
                Token::Literal(rng.next_u8())
            } else {
                let len = rng.range_u32(MIN_MATCH, MAX_MATCH);
                let dist = rng.range_u32(1, produced.min(MAX_DISTANCE));
                produced += len;
                Token::Match { dist, len }
            }
        })
        .collect()
}

/// The streams every parity sweep runs over: fixed, dynamic from the
/// library encoder, dynamic with 11- to 15-bit codes, stored, and a
/// multi-block mix.
fn parity_streams(rng: &mut XorShift64) -> Vec<(String, Vec<u8>)> {
    let mut streams = Vec::new();
    for case in 0..4 {
        let tokens = uniform_tokens(rng, 40 + 60 * case);
        streams.push((format!("fixed {case}"), one_block(&tokens, BlockKind::FixedHuffman)));
        streams.push((format!("dynamic {case}"), one_block(&tokens, BlockKind::DynamicHuffman)));
        let (lit, dist) = (long_code_lengths(rng, 286), long_code_lengths(rng, 30));
        let mut w = BitWriter::new();
        write_dynamic_block(&mut w, &tokens, &lit, &dist, true);
        streams.push((format!("long codes {case}"), w.finish()));
    }
    let raw: Vec<Token> = (0..300).map(|_| Token::Literal(rng.next_u8())).collect();
    streams.push(("stored".into(), one_block(&raw, BlockKind::Stored)));
    let tokens = uniform_tokens(rng, 200);
    let mut enc = DeflateEncoder::new();
    enc.write_block(&tokens[..50], BlockKind::FixedHuffman, false);
    enc.write_block(&raw[..100], BlockKind::Stored, false);
    enc.write_block(&tokens[50..120], BlockKind::DynamicHuffman, false);
    enc.sync_flush();
    enc.write_block(&tokens[120..], BlockKind::FixedHuffman, true);
    streams.push(("multi-block".into(), enc.finish()));
    streams
}

#[test]
fn inflate_matches_the_reference_on_fixed_dynamic_and_long_codes() {
    let mut rng = XorShift64::new(0xDEF1_0010);
    for (what, stream) in parity_streams(&mut rng) {
        assert_inflate_parity(&stream, u64::MAX, &what);
    }
    for case in 0..CASES {
        let n = rng.below_usize(400);
        let tokens = uniform_tokens(&mut rng, n);
        let (lit, dist) = (long_code_lengths(&mut rng, 286), long_code_lengths(&mut rng, 30));
        let mut w = BitWriter::new();
        write_dynamic_block(&mut w, &tokens, &lit, &dist, true);
        let stream = w.finish();
        assert_eq!(inflate(&stream).unwrap(), expand(&tokens), "long codes {case}");
        assert_inflate_parity(&stream, u64::MAX, &format!("long codes {case}"));
    }
}

#[test]
fn inflate_matches_the_reference_on_every_short_distance_and_length() {
    let mut rng = XorShift64::new(0xDEF1_0011);
    for dist in 1..=17 {
        let mut tokens: Vec<Token> = (0..dist).map(|_| Token::Literal(rng.next_u8())).collect();
        for len in MIN_MATCH..=MAX_MATCH {
            tokens.push(Token::Match { dist, len });
            if len % 3 == 0 {
                tokens.push(Token::Literal(rng.next_u8()));
            }
        }
        for kind in [BlockKind::FixedHuffman, BlockKind::DynamicHuffman] {
            let stream = one_block(&tokens, kind);
            assert_eq!(inflate(&stream).unwrap(), expand(&tokens), "dist {dist}, {kind:?}");
            assert_inflate_parity(&stream, u64::MAX, &format!("dist {dist}, {kind:?}"));
        }
    }
}

#[test]
fn distance_to_the_first_byte_decodes_and_one_more_is_too_far() {
    let mut rng = XorShift64::new(0xDEF1_0012);
    for n in [1u32, 2, 3, 7, 8, 15, 16, 17, 31, 100, 4_000] {
        let literals: Vec<Token> = (0..n).map(|_| Token::Literal(rng.next_u8())).collect();
        // Output after a match counts too: n literals, then a match.
        let mut after_match = literals.clone();
        after_match.push(Token::Match { dist: 1, len: 5 });
        for (mut tokens, produced) in [(literals, n), (after_match, n + 5)] {
            tokens.push(Token::Match { dist: produced, len: 20 });
            let ok = one_block(&tokens, BlockKind::FixedHuffman);
            assert_eq!(inflate(&ok).unwrap(), expand(&tokens), "dist = output length {produced}");
            assert_inflate_parity(&ok, u64::MAX, &format!("dist {produced} of {produced}"));
            *tokens.last_mut().unwrap() = Token::Match { dist: produced + 1, len: 20 };
            for kind in [BlockKind::FixedHuffman, BlockKind::DynamicHuffman] {
                let far = one_block(&tokens, kind);
                assert_eq!(inflate(&far), Err(InflateError::DistanceTooFar), "{produced}+1");
                // The distance is checked before the cap.
                for cap in [u64::from(produced), u64::from(produced) + 19, u64::MAX] {
                    assert_inflate_parity(
                        &far,
                        cap,
                        &format!("dist {} of {produced}", produced + 1),
                    );
                }
            }
        }
    }
}

#[test]
fn reserved_symbols_after_sixteen_bytes_are_bad_symbols() {
    let mut rng = XorShift64::new(0xDEF1_0013);
    let lit = Codebook::from_lengths(&fixed_litlen_lengths());
    let dist = Codebook::from_lengths(&fixed_dist_lengths());
    for lead in 16..24 {
        for planted in [286, 287, 1_030, 1_031] {
            let mut w = BitWriter::new();
            w.write_bits(1, 1);
            w.write_bits(0b01, 2);
            (0..lead).for_each(|_| lit.encode(&mut w, usize::from(rng.next_u8())));
            assert!(w.bit_len() >= 16 * 8, "planted past the first 16 bytes");
            if planted < 1_000 {
                lit.encode(&mut w, planted);
            } else {
                // A length code, then reserved distance 30 or 31.
                lit.encode(&mut w, 257);
                dist.encode(&mut w, planted - 1_000);
            }
            lit.encode(&mut w, END_OF_BLOCK);
            let stream = w.finish();
            let what = format!("symbol {planted} after {lead} literals");
            assert_eq!(inflate(&stream), Err(InflateError::BadSymbol), "{what}");
            for cut in 0..=stream.len() {
                assert_inflate_parity(&stream[..cut], u64::MAX, &format!("{what}, cut {cut}"));
            }
        }
    }
}

#[test]
fn inflate_matches_the_reference_at_every_truncation() {
    let mut rng = XorShift64::new(0xDEF1_0014);
    for (what, stream) in parity_streams(&mut rng) {
        for cut in 0..stream.len() {
            assert_inflate_parity(&stream[..cut], u64::MAX, &format!("{what}, cut {cut}"));
        }
    }
}

#[test]
fn inflate_matches_the_reference_at_every_cap_near_the_output_size() {
    let mut rng = XorShift64::new(0xDEF1_0015);
    for (what, stream) in parity_streams(&mut rng) {
        let n = inflate(&stream).unwrap().len() as u64;
        for cap in n.saturating_sub(600)..=n + 1 {
            assert_inflate_parity(&stream, cap, &what);
        }
    }
}

#[test]
fn inflate_stream_fed_in_small_pieces_matches_the_reference() {
    let mut rng = XorShift64::new(0xDEF1_0016);
    for (what, stream) in parity_streams(&mut rng) {
        let want = ref_inflate(&stream, &Limits::none()).0.unwrap();
        for round in 0..8 {
            let mut s = InflateStream::new();
            let mut got = Vec::new();
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let take = rng.range_u32(1, 7).min(rest.len() as u32) as usize;
                s.feed(&rest[..take]).unwrap();
                got.extend(s.take_output());
                assert!(want.starts_with(&got), "{what}, round {round}");
                rest = &rest[take..];
            }
            assert!(s.is_finished(), "{what}, round {round}");
            assert_eq!(got, want, "{what}, round {round}");
        }
    }
    // A bad symbol fails the stream once it is fed, with the same error.
    let mut enc = DeflateEncoder::new();
    enc.write_block(&uniform_tokens(&mut rng, 50), BlockKind::FixedHuffman, false);
    enc.sync_flush();
    let mut w = BitWriter::new();
    w.write_bits(1, 1);
    w.write_bits(0b01, 2);
    Codebook::from_lengths(&fixed_litlen_lengths()).encode(&mut w, 287);
    let mut stream = enc.finish();
    stream.extend(w.finish());
    assert_eq!(ref_inflate(&stream, &Limits::none()).0, Err(InflateError::BadSymbol));
    let mut s = InflateStream::new();
    let errors: Vec<_> = stream.chunks(3).filter_map(|c| s.feed(c).err()).collect();
    assert_eq!(errors.first(), Some(&InflateError::BadSymbol));
}

// ---------------------------------------------------------------------
// Span boundaries: the decode loop's main span runs without bit or room
// checks while 16 input bytes and a whole match of room lie ahead; the
// checked pass takes over at either edge, at an end-of-block and at any
// symbol the table cannot resolve.
// ---------------------------------------------------------------------

/// Room the main span needs ahead of a pass: a literal, a whole match and
/// the 16 bytes its last copy chunk may run past it.
const SPAN_ROOM: usize = 1 + MAX_MATCH as usize + 16;

/// Literals after a planted symbol. A block's window first grows to 4096
/// bytes or 4 bytes per input byte, whichever is less, so a short stream
/// never has the main span's room: the tail gives it input and room.
const SPAN_TAIL: usize = 300;

fn literals(rng: &mut XorShift64, n: usize) -> Vec<Token> {
    (0..n).map(|_| Token::Literal(rng.next_u8())).collect()
}

#[test]
fn main_span_hands_over_at_every_cut_of_the_last_40_bytes() {
    let mut rng = XorShift64::new(0xDEF1_0019);
    for case in 0..12 {
        let tokens = uniform_tokens(&mut rng, 40 + 17 * case);
        let (lit, dist) = (long_code_lengths(&mut rng, 286), long_code_lengths(&mut rng, 30));
        let mut w = BitWriter::new();
        write_dynamic_block(&mut w, &tokens, &lit, &dist, true);
        let streams =
            [("fixed", one_block(&tokens, BlockKind::FixedHuffman)), ("long codes", w.finish())];
        for (kind, stream) in streams {
            for cut in stream.len().saturating_sub(40)..=stream.len() {
                assert_inflate_parity(
                    &stream[..cut],
                    u64::MAX,
                    &format!("{kind} {case}, cut {cut}"),
                );
            }
        }
    }
}

#[test]
fn main_span_room_holds_a_max_match_at_every_room_near_its_bound() {
    let mut rng = XorShift64::new(0xDEF1_001A);
    let lead = literals(&mut rng, 8_192);
    let tail = literals(&mut rng, 40);
    // Before a window growth: a block's window grows to 4096 bytes, then
    // doubles. The tail keeps input ahead, so the match is the main span's.
    for grows_at in [4_096, 8_192] {
        for room in SPAN_ROOM - 20..=SPAN_ROOM + 20 {
            let at = grows_at - room;
            for dist in [1, 9, 16, 3_000] {
                let mut tokens = lead[..at].to_vec();
                tokens.push(Token::Match { dist, len: MAX_MATCH });
                tokens.extend_from_slice(&tail);
                for kind in [BlockKind::FixedHuffman, BlockKind::DynamicHuffman] {
                    let what = format!("match at {at}, room {room}, dist {dist}, {kind:?}");
                    let stream = one_block(&tokens, kind);
                    assert_eq!(inflate(&stream).unwrap(), expand(&tokens), "{what}");
                    assert_inflate_parity(&stream, u64::MAX, &what);
                }
            }
        }
    }
    // Before the cap: the window stops at cap + 16. The output ends with
    // the match, and empty blocks after it keep input ahead. Odd and even
    // literal runs put the last literal in the match's pass or not.
    for at in [1_000, 1_001, 5_000, 5_001] {
        for dist in [1, 16] {
            let mut tokens = lead[..at].to_vec();
            tokens.push(Token::Match { dist, len: MAX_MATCH });
            let mut enc = DeflateEncoder::new();
            enc.write_block(&tokens, BlockKind::FixedHuffman, false);
            (0..40).for_each(|i| enc.write_block(&[], BlockKind::FixedHuffman, i == 39));
            let stream = enc.finish();
            for room in SPAN_ROOM - 20..=SPAN_ROOM + 20 {
                let cap = (at + room - 16) as u64;
                assert_inflate_parity(
                    &stream,
                    cap,
                    &format!("match at {at}, dist {dist}, cap {cap}"),
                );
            }
        }
    }
}

#[test]
fn main_span_passes_of_48_bits_leave_the_next_lookups_exact() {
    let mut rng = XorShift64::new(0xDEF1_001E);
    // Every code 10 bits: a literal then a match with 5 length and 13
    // distance extra bits take 48 bits, the most one pass takes, and the
    // next pass's two literals follow.
    let (lit, dist) = (vec![10u8; 286], vec![10u8; 30]);
    let mut tokens = vec![Token::Literal(rng.next_u8())];
    tokens.extend((0..128).map(|_| Token::Match { dist: 1, len: MAX_MATCH }));
    for _ in 0..200 {
        tokens.push(Token::Literal(rng.next_u8()));
        let far =
            Token::Match { dist: rng.range_u32(24_577, 32_768), len: rng.range_u32(227, 257) };
        tokens.push(far);
        tokens.extend(literals(&mut rng, 2));
    }
    let mut w = BitWriter::new();
    write_dynamic_block(&mut w, &tokens, &lit, &dist, true);
    let stream = w.finish();
    assert_eq!(inflate(&stream).unwrap(), expand(&tokens));
    assert_inflate_parity(&stream, u64::MAX, "48-bit passes");
}

#[test]
fn reserved_symbols_inside_the_main_span_are_bad_symbols() {
    let mut rng = XorShift64::new(0xDEF1_001B);
    let lit = Codebook::from_lengths(&fixed_litlen_lengths());
    let dist = Codebook::from_lengths(&fixed_dist_lengths());
    for lead in 0..24 {
        for after_match in [false, true] {
            for planted in [286, 287, 1_030, 1_031] {
                let mut w = BitWriter::new();
                w.write_bits(1, 1);
                w.write_bits(0b01, 2);
                (0..lead).for_each(|_| lit.encode(&mut w, usize::from(rng.next_u8())));
                if after_match {
                    lit.encode(&mut w, usize::from(rng.next_u8()));
                    lit.encode(&mut w, 264); // length 10
                    dist.encode(&mut w, 0); // distance 1
                }
                if planted < 1_000 {
                    lit.encode(&mut w, planted);
                } else {
                    // A length code, then reserved distance 30 or 31.
                    lit.encode(&mut w, 257);
                    dist.encode(&mut w, planted - 1_000);
                }
                let planted_end = w.bit_len().div_ceil(8) as usize;
                (0..SPAN_TAIL).for_each(|_| lit.encode(&mut w, usize::from(rng.next_u8())));
                lit.encode(&mut w, END_OF_BLOCK);
                let stream = w.finish();
                let what = format!("symbol {planted} after {lead} literals, match {after_match}");
                assert_eq!(inflate(&stream), Err(InflateError::BadSymbol), "{what}");
                for cut in 0..=planted_end + 20 {
                    assert_inflate_parity(&stream[..cut], u64::MAX, &format!("{what}, cut {cut}"));
                }
            }
        }
    }
}

#[test]
fn distance_too_far_inside_the_main_span() {
    let mut rng = XorShift64::new(0xDEF1_001C);
    for n in [1usize, 2, 3, 7, 8, 15, 16, 17, 31, 100, 4_000] {
        let lead = literals(&mut rng, n);
        let tail = literals(&mut rng, SPAN_TAIL);
        for len in [3, 20, MAX_MATCH] {
            // The match reaches one byte before the output. In two blocks,
            // the first block's output counts too.
            let far = Token::Match { dist: n as u32 + 1, len };
            let mut tokens = lead.clone();
            tokens.push(far);
            tokens.extend_from_slice(&tail);
            let mut split = DeflateEncoder::new();
            split.write_block(&lead, BlockKind::FixedHuffman, false);
            split.write_block(&tokens[n..], BlockKind::DynamicHuffman, true);
            let streams = [
                ("fixed", one_block(&tokens, BlockKind::FixedHuffman)),
                ("dynamic", one_block(&tokens, BlockKind::DynamicHuffman)),
                ("two blocks", split.finish()),
            ];
            for (kind, stream) in streams {
                let what = format!("dist {} after {n}, len {len}, {kind}", n + 1);
                assert_eq!(inflate(&stream), Err(InflateError::DistanceTooFar), "{what}");
                // The distance is checked before the cap.
                for cap in [n as u64, n as u64 + 1, u64::MAX] {
                    assert_inflate_parity(&stream, cap, &format!("{what}, cap {cap}"));
                }
                for cut in (0..stream.len()).step_by(7) {
                    assert_inflate_parity(&stream[..cut], u64::MAX, &format!("{what}, cut {cut}"));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Head decodes: the one inflater stopped after `n` bytes.
// ---------------------------------------------------------------------

/// `body` as a zlib stream. A body the reference decodes gets its true
/// Adler-32 trailer (flipped when `bad_trailer`); any other keeps none.
fn zlib_wrap(body: &[u8], bits: u64, decoded: Option<&[u8]>, bad_trailer: bool) -> Vec<u8> {
    let mut z = zlib_header(32_768, 1).to_vec();
    z.extend_from_slice(body);
    if let Some(payload) = decoded {
        z.truncate(2 + bits.div_ceil(8) as usize);
        let adler = adler32(payload) ^ u32::from(bad_trailer);
        z.extend_from_slice(&adler.to_be_bytes());
    }
    z
}

/// The head lengths a sweep over an `len`-byte output tries. Dense: every
/// one near the start and within a match length of the end, a stride
/// between, and a few past the end. Sparse: the edges of those spans.
fn head_points(len: usize, dense: bool) -> Vec<usize> {
    let m = MAX_MATCH as usize;
    let near_end = len.saturating_sub(m + 2)..=len + 2;
    let mut points: Vec<usize> = if dense {
        (0..=len + 2).filter(|&n| n < 300 || n % 13 == 0 || near_end.contains(&n)).collect()
    } else {
        let edges = [len.saturating_sub(m + 1), len.saturating_sub(m), len.saturating_sub(1)];
        [0, 1, len / 2, len, len + 1].into_iter().chain(edges).collect()
    };
    points.sort_unstable();
    points.dedup();
    points
}

/// Head decodes of `body` against the reference, at every point of
/// [`head_points`]. When the reference decodes all of it (`full`):
/// `n <= len` gives `full[..n]`, `n > len` a typed error, and a head that
/// reads to the end (`n >= len` surely) checks the trailer. When it fails
/// with `e` after writing `partial`: a head past `partial` gives `e`, one
/// more than a match short of its end gives `partial[..n]`, and one in
/// between may give either — never other bytes or another error.
fn assert_head_parity(body: &[u8], dense: bool, what: &str) {
    let (result, partial, bits) = ref_inflate_partial(body, &Limits::none());
    let len = partial.len();
    match result {
        Ok(()) => {
            let z = zlib_wrap(body, bits, Some(&partial), false);
            let bad = zlib_wrap(body, bits, Some(&partial), true);
            for n in head_points(len, dense) {
                let got = zlib_inflate_head(&z, n);
                if n <= len {
                    assert_eq!(got.as_deref(), Ok(&partial[..n]), "{what}, head {n} of {len}");
                } else {
                    assert_eq!(
                        got,
                        Err(ZlibError::Inflate(InflateError::UnexpectedEof)),
                        "{what}, head {n} past {len}"
                    );
                }
                match zlib_inflate_head(&bad, n) {
                    Ok(out) => assert!(n < len && out == partial[..n], "{what}, bad trailer, {n}"),
                    Err(e) => assert!(
                        matches!(e, ZlibError::ChecksumMismatch { .. }),
                        "{what}, bad trailer, head {n}: {e:?}"
                    ),
                }
            }
        }
        Err(e) => {
            let z = zlib_wrap(body, bits, None, false);
            if z.len() < 6 {
                return;
            }
            for n in head_points(len, dense) {
                let got = zlib_inflate_head(&z, n);
                if n > len {
                    assert_eq!(got, Err(ZlibError::Inflate(e)), "{what}, head {n} past {len}");
                } else if n + (MAX_MATCH as usize) < len {
                    assert_eq!(got.as_deref(), Ok(&partial[..n]), "{what}, head {n} of {len}");
                } else {
                    assert!(
                        got == Err(ZlibError::Inflate(e)) || got.as_deref() == Ok(&partial[..n]),
                        "{what}, head {n} of {len}: {got:?}"
                    );
                }
            }
        }
    }
}

/// Streams whose stored blocks straddle every head: stored blocks short
/// and long (past one match length), between Huffman blocks; and one
/// whose final block is empty.
fn stored_mix_streams(rng: &mut XorShift64) -> Vec<(String, Vec<u8>)> {
    let mut streams = Vec::new();
    for case in 0..4 {
        let mut enc = DeflateEncoder::new();
        let mut produced = 0;
        for block in 0..5 {
            let last = block == 4;
            if (block + case) % 2 == 0 {
                let n = [1, 200, 259, 700, 2_000][(block + case) % 5];
                let raw: Vec<Token> = (0..n).map(|_| Token::Literal(rng.next_u8())).collect();
                enc.write_block(&raw, BlockKind::Stored, last);
                produced += n;
            } else {
                // A block that starts by reaching back across the boundary.
                let mut tokens = Vec::new();
                if produced > 0 {
                    let dist = produced.min(MAX_DISTANCE as usize) as u32;
                    tokens.push(Token::Match { dist, len: MAX_MATCH });
                    produced += MAX_MATCH as usize;
                }
                let own = uniform_tokens(rng, 20 + 10 * block);
                produced += expand(&own).len();
                tokens.extend(own);
                let kind = if block % 2 == 0 {
                    BlockKind::DynamicHuffman
                } else {
                    BlockKind::FixedHuffman
                };
                enc.write_block(&tokens, kind, last);
            }
        }
        streams.push((format!("stored mix {case}"), enc.finish()));
    }
    // The last byte in a block before an empty final one: a head of the
    // whole length still reads on to the trailer.
    let mut enc = DeflateEncoder::new();
    enc.write_block(&uniform_tokens(rng, 30), BlockKind::FixedHuffman, false);
    enc.write_block(&[], BlockKind::FixedHuffman, true);
    streams.push(("empty final block".into(), enc.finish()));
    streams
}

#[test]
fn head_decode_is_the_full_decode_cut_at_every_length() {
    let mut rng = XorShift64::new(0xDEF1_0017);
    let mut streams = parity_streams(&mut rng);
    streams.extend(stored_mix_streams(&mut rng));
    for (what, stream) in streams {
        assert_head_parity(&stream, true, &what);
    }
    // Long outputs: the cap stop lands in the middle of long matches.
    let data = generate(Corpus::Wiki, 7, 40_000);
    let tokens = TurboEngine::new().compress(&data, &LzssParams::paper_fast());
    for kind in [BlockKind::FixedHuffman, BlockKind::DynamicHuffman] {
        let stream = one_block(&tokens, kind);
        assert_head_parity(&stream, true, &format!("wiki {kind:?}"));
    }
}

#[test]
fn head_decode_gives_the_full_decoders_error_at_every_truncation() {
    let mut rng = XorShift64::new(0xDEF1_0018);
    let mut streams = parity_streams(&mut rng);
    streams.extend(stored_mix_streams(&mut rng));
    for (what, stream) in streams {
        for cut in 0..stream.len() {
            assert_head_parity(&stream[..cut], false, &format!("{what}, cut {cut}"));
        }
    }
}

#[test]
fn head_decode_stops_inside_the_main_span_at_every_length() {
    let mut rng = XorShift64::new(0xDEF1_001D);
    let data = generate(Corpus::Wiki, 11, 24_000);
    let tokens = TurboEngine::new().compress(&data, &LzssParams::paper_fast());
    let (lit, dist) = (long_code_lengths(&mut rng, 286), long_code_lengths(&mut rng, 30));
    let mut w = BitWriter::new();
    write_dynamic_block(&mut w, &tokens, &lit, &dist, true);
    let streams = [
        ("fixed", one_block(&tokens, BlockKind::FixedHuffman)),
        ("dynamic", one_block(&tokens, BlockKind::DynamicHuffman)),
        ("long codes", w.finish()),
    ];
    for (kind, stream) in streams {
        let (result, out, bits) = ref_inflate_partial(&stream, &Limits::none());
        assert_eq!((result, &out), (Ok(()), &data), "{kind}");
        let z = zlib_wrap(&stream, bits, Some(&data), false);
        // Far from both ends of the input: every stop is the main span's
        // hand-over to the checked pass at the head's cap.
        for n in 10_000..10_600 {
            assert_eq!(zlib_inflate_head(&z, n).as_deref(), Ok(&data[..n]), "{kind}, head {n}");
        }
    }
}
