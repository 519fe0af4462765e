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
use lzfpga_deflate::inflate::inflate;
use lzfpga_deflate::sink::TokenSink;
use lzfpga_deflate::token::Token;
use lzfpga_deflate::zlib::{zlib_compress_tokens, zlib_decompress, zlib_header};
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

/// The bit-serial canonical walk (one `read_bit` per code bit) that the
/// table-driven [`Decoder`] replaced, kept as the oracle it must agree with.
fn oracle_decode(lengths: &[u8], r: &mut BitReader<'_>) -> Result<u16, DecodeError> {
    let mut count = [0u32; MAX_BITS + 1];
    lengths.iter().for_each(|&l| count[usize::from(l)] += 1);
    let mut symbols: Vec<u16> =
        (0..lengths.len() as u16).filter(|&s| lengths[s as usize] > 0).collect();
    symbols.sort_by_key(|&s| lengths[s as usize]);
    let (mut code, mut first, mut index) = (0u32, 0u32, 0u32);
    for &cnt in &count[1..] {
        code |= r.read_bit()?;
        if code < first + cnt {
            return Ok(symbols[(index + code - first) as usize]);
        }
        index += cnt;
        first = (first + cnt) << 1;
        code <<= 1;
    }
    Err(DecodeError::InvalidCode)
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
    let mut buf = vec![0u8; 72];
    rng.fill_bytes(&mut buf);
    for start in 0..8 {
        for len in 0..=64 {
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
