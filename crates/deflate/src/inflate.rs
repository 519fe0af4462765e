//! A complete Deflate decoder (RFC 1951): stored, fixed and dynamic blocks.
//!
//! This is the repo's reference decompressor — the stand-in for the stock
//! ZLib the paper verified against ("comparing the results to software
//! reference model"). Every compressed stream produced by any stage in this
//! workspace must inflate back to the original bytes.

use std::sync::OnceLock;

use crate::bitio::{BitReader, OutOfBits};
use crate::fixed::{
    distance_base, fixed_dist_lengths, fixed_litlen_lengths, length_base, END_OF_BLOCK, MAX_MATCH,
};
use crate::huffman::{DecodeError, Decoder, FAST_BITS};

/// Up-front output reservation per compressed input byte. The reservation
/// is bounded by the input, never by a length a header claims, so a forged
/// header cannot make the reader allocate; outputs that expand further
/// grow the vector as usual.
const RESERVE_PER_INPUT_BYTE: u64 = 4;

/// Zero-filled room the decode loop keeps past a match's end: its last
/// 16-byte copy chunk may run 15 bytes beyond it.
const SLACK: usize = 16;

/// The least a block's output window grows by at a time.
const MIN_GROWTH: usize = 4096;

/// Errors produced while decoding a Deflate stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InflateError {
    /// Input ended before the final block completed.
    UnexpectedEof,
    /// Reserved block type 11 encountered.
    ReservedBlockType,
    /// Stored block LEN/NLEN complement check failed.
    StoredLengthMismatch,
    /// A Huffman code table in a dynamic block is invalid.
    BadCodeTable,
    /// A decoded symbol is outside its alphabet.
    BadSymbol,
    /// A match distance reaches before the start of output.
    DistanceTooFar,
    /// The code-length RLE (symbol 16) repeated with no previous length.
    RepeatWithoutPrevious,
    /// Decoded output exceeded the configured [`Limits`] output cap.
    OutputLimitExceeded,
    /// The stream carried more blocks than the configured [`Limits`] allow.
    BlockLimitExceeded,
}

impl From<OutOfBits> for InflateError {
    fn from(_: OutOfBits) -> Self {
        InflateError::UnexpectedEof
    }
}

impl From<DecodeError> for InflateError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::OutOfInput => InflateError::UnexpectedEof,
            DecodeError::InvalidCode => InflateError::BadSymbol,
        }
    }
}

impl std::fmt::Display for InflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            InflateError::UnexpectedEof => "unexpected end of deflate stream",
            InflateError::ReservedBlockType => "reserved block type 11",
            InflateError::StoredLengthMismatch => "stored block LEN/NLEN mismatch",
            InflateError::BadCodeTable => "invalid huffman code table",
            InflateError::BadSymbol => "invalid symbol in stream",
            InflateError::DistanceTooFar => "match distance exceeds output",
            InflateError::RepeatWithoutPrevious => "length repeat with no previous code",
            InflateError::OutputLimitExceeded => "decoded output exceeds configured limit",
            InflateError::BlockLimitExceeded => "block count exceeds configured limit",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for InflateError {}

/// Resource ceilings enforced *during* decode — the defense against
/// decompression bombs and hostile length fields.
///
/// All fields default to `None` (no limit), so `Limits::default()` decodes
/// exactly like the unlimited entry points. The ratio cap is computed
/// against the compressed length with a 4 KiB floor, so tiny-but-legitimate
/// inputs (an empty gzip member is 20 bytes and "expands" infinitely) are
/// not rejected spuriously.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Hard cap on total decoded bytes.
    pub max_output_bytes: Option<u64>,
    /// Cap on `decoded / max(compressed, 4096)`.
    pub max_expansion_ratio: Option<u32>,
    /// Cap on the number of Deflate blocks in the stream.
    pub max_blocks: Option<u64>,
}

impl Limits {
    /// No limits at all (same as `Default`).
    pub fn none() -> Self {
        Self::default()
    }

    /// Set the hard output-byte cap.
    #[must_use]
    pub fn with_max_output_bytes(mut self, bytes: u64) -> Self {
        self.max_output_bytes = Some(bytes);
        self
    }

    /// Set the expansion-ratio cap (decoded vs. compressed bytes).
    #[must_use]
    pub fn with_max_expansion_ratio(mut self, ratio: u32) -> Self {
        self.max_expansion_ratio = Some(ratio);
        self
    }

    /// Set the block-count cap.
    #[must_use]
    pub fn with_max_blocks(mut self, blocks: u64) -> Self {
        self.max_blocks = Some(blocks);
        self
    }

    /// The effective output cap in bytes for a stream of `compressed_len`
    /// input bytes (`u64::MAX` when unlimited).
    pub fn output_cap(&self, compressed_len: usize) -> u64 {
        let mut cap = self.max_output_bytes.unwrap_or(u64::MAX);
        if let Some(ratio) = self.max_expansion_ratio {
            let floor = (compressed_len as u64).max(4096);
            cap = cap.min(floor.saturating_mul(u64::from(ratio)));
        }
        cap
    }
}

/// Decode a complete Deflate stream into its uncompressed bytes.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    inflate_limited(data, &Limits::none())
}

/// Decode a complete Deflate stream, enforcing [`Limits`] while decoding
/// (a bomb fails fast with [`InflateError::OutputLimitExceeded`] instead of
/// allocating its full expansion).
pub fn inflate_limited(data: &[u8], limits: &Limits) -> Result<Vec<u8>, InflateError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    inflate_into_limited(&mut r, &mut out, limits, data.len())?;
    Ok(out)
}

/// Decode a Deflate stream from an existing reader, appending to `out`.
/// Returns with the reader positioned just past the final block (mid-byte),
/// which lets container formats read their trailers after re-alignment.
pub fn inflate_into(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<(), InflateError> {
    while !inflate_one_block(r, out)? {}
    Ok(())
}

/// [`inflate_into`] with [`Limits`] enforcement; `compressed_len` is the
/// container's compressed payload size, used for the ratio cap.
pub fn inflate_into_limited(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    limits: &Limits,
    compressed_len: usize,
) -> Result<(), InflateError> {
    let cap = limits.output_cap(compressed_len);
    reserve(out, cap, compressed_len);
    let mut blocks: u64 = 0;
    loop {
        blocks += 1;
        if limits.max_blocks.is_some_and(|max| blocks > max) {
            return Err(InflateError::BlockLimitExceeded);
        }
        if inflate_one_block_capped(r, out, cap, None)? {
            return Ok(());
        }
    }
}

/// Decode the first `n` bytes of the Deflate stream in `r`, appending
/// them to `out`: the one decode loop, stopped early and successfully.
/// Returns `true` when it stopped, with exactly `n` new bytes in `out`
/// and the reader somewhere past them, and `false` when the final block
/// ended first, with the reader just past it as after [`inflate_into`]
/// and every byte of the stream in `out` (possibly fewer than `n`).
///
/// The output cap is `n + MAX_MATCH`. A literal or match that would pass
/// it starts past byte `n`, so hitting the cap is the stop, and the hot
/// loop needs no check of its own: only its cold room-making path sees
/// the cap. A stored block that would pass the cap takes its bytes up to
/// the head and stops; a block ending past the head stops at its
/// boundary. Errors before the stop are the full decode's, in its order.
pub(crate) fn inflate_head_into(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    n: usize,
) -> Result<bool, InflateError> {
    let head = out.len().saturating_add(n);
    let cap = head.saturating_add(MAX_MATCH as usize) as u64;
    reserve(out, cap, (r.remaining_bits() / 8) as usize);
    loop {
        match inflate_one_block_capped(r, out, cap, Some(head)) {
            Ok(true) => return Ok(false),
            Ok(false) if out.len() <= head => {}
            Ok(false) | Err(InflateError::OutputLimitExceeded) => {
                assert!(out.len() >= head, "a head decode stopped short of its head");
                out.truncate(head);
                return Ok(true);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reserve room for a decode under `cap` from `compressed_len` input
/// bytes, bounded by the input (see [`RESERVE_PER_INPUT_BYTE`]).
fn reserve(out: &mut Vec<u8>, cap: u64, compressed_len: usize) {
    let hint = cap.min(compressed_len as u64 * RESERVE_PER_INPUT_BYTE);
    let hint = usize::try_from(hint).unwrap_or(0).saturating_add(SLACK);
    out.reserve(hint.saturating_sub(out.len()));
}

/// Decode exactly one Deflate block, appending to `out`. Returns `true`
/// when the block carried the BFINAL bit.
pub fn inflate_one_block(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<bool, InflateError> {
    inflate_one_block_capped(r, out, u64::MAX, None)
}

/// The fixed-Huffman block codes, built once per process.
fn fixed_codes() -> &'static BlockCodes {
    static FIXED: OnceLock<BlockCodes> = OnceLock::new();
    FIXED.get_or_init(|| {
        BlockCodes::new(
            Decoder::from_lengths(&fixed_litlen_lengths()).expect("fixed litlen table is valid"),
            Decoder::from_lengths(&fixed_dist_lengths()).expect("fixed dist table is valid"),
        )
    })
}

/// One block under the output `cap`; `head` is a head decode's stop
/// point (see [`inflate_head_into`]), which only a stored block reads.
fn inflate_one_block_capped(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    cap: u64,
    head: Option<usize>,
) -> Result<bool, InflateError> {
    let bfinal = r.read_bit()?;
    let btype = r.read_bits(2)?;
    match btype {
        0b00 => inflate_stored(r, out, cap, head)?,
        0b01 => inflate_compressed(r, out, fixed_codes(), cap)?,
        0b10 => {
            let (lit, dist) = read_dynamic_tables(r)?;
            inflate_compressed(r, out, &BlockCodes::new(lit, dist), cap)?;
        }
        _ => return Err(InflateError::ReservedBlockType),
    }
    Ok(bfinal == 1)
}

/// Push-based incremental inflate with **block-granular** resumption: feed
/// compressed bytes as they arrive, take decoded bytes as blocks complete.
///
/// The resume point is a block boundary, so output for a block only appears
/// once its final bit has been fed — which is exactly the granularity the
/// streaming session's `Z_SYNC_FLUSH` points create (each flush closes a
/// block and byte-aligns, making everything before it decodable).
#[derive(Debug, Default)]
pub struct InflateStream {
    input: Vec<u8>,
    out: Vec<u8>,
    taken: usize,
    bit_pos: u64,
    finished: bool,
}

impl InflateStream {
    /// New empty stream decoder (raw Deflate, no container framing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed more compressed bytes; decodes as many complete blocks as the
    /// data now allows. Errors are sticky and final.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), InflateError> {
        self.input.extend_from_slice(chunk);
        self.pump()
    }

    fn pump(&mut self) -> Result<(), InflateError> {
        while !self.finished {
            let byte = usize::try_from(self.bit_pos / 8).expect("resume point is inside fed data");
            let mut r = BitReader::new(&self.input[byte..]);
            r.read_bits((self.bit_pos % 8) as u32).expect("resume point is inside fed data");
            let checkpoint = self.out.len();
            match inflate_one_block(&mut r, &mut self.out) {
                Ok(done) => {
                    self.bit_pos = self.input.len() as u64 * 8 - r.remaining_bits();
                    if done {
                        self.finished = true;
                    }
                }
                Err(InflateError::UnexpectedEof) => {
                    // Partial block: roll back and wait for more bytes.
                    self.out.truncate(checkpoint);
                    return Ok(());
                }
                Err(e) => {
                    self.out.truncate(checkpoint);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Take the decoded bytes produced since the last call.
    pub fn take_output(&mut self) -> Vec<u8> {
        let fresh = self.out[self.taken..].to_vec();
        self.taken = self.out.len();
        // Keep the full history: back-references may reach 32 KB behind.
        fresh
    }

    /// True once the final block has been decoded.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Total decoded bytes so far (taken or not).
    pub fn total_out(&self) -> u64 {
        self.out.len() as u64
    }
}

/// A stored block's bytes, in one slice copy. Past the cap a head decode
/// takes the bytes up to its head and reports the cap, which is its stop;
/// any other decode fails there.
fn inflate_stored(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    cap: u64,
    head: Option<usize>,
) -> Result<(), InflateError> {
    r.align_to_byte();
    let len = u16::from_le_bytes([r.read_aligned_byte()?, r.read_aligned_byte()?]);
    let nlen = u16::from_le_bytes([r.read_aligned_byte()?, r.read_aligned_byte()?]);
    if len != !nlen {
        return Err(InflateError::StoredLengthMismatch);
    }
    let len = usize::from(len);
    let take = match head {
        _ if out.len() as u64 + len as u64 <= cap => len,
        Some(head) => head.saturating_sub(out.len()),
        None => return Err(InflateError::OutputLimitExceeded),
    };
    r.read_aligned_bytes(take, out)?;
    if take < len {
        return Err(InflateError::OutputLimitExceeded);
    }
    Ok(())
}

/// Order in which code-length-code lengths are transmitted (RFC 1951 §3.2.7).
const CLCL_ORDER: [usize; 19] = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(Decoder, Decoder), InflateError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(InflateError::BadCodeTable);
    }
    let mut clc_lengths = [0u8; 19];
    for &idx in CLCL_ORDER.iter().take(hclen) {
        clc_lengths[idx] = r.read_bits(3)? as u8;
    }
    let clc = Decoder::from_lengths(&clc_lengths).ok_or(InflateError::BadCodeTable)?;

    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0;
    while i < lengths.len() {
        let sym = clc.decode(r)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(InflateError::RepeatWithoutPrevious);
                }
                let prev = lengths[i - 1];
                let n = r.read_bits(2)? as usize + 3;
                if i + n > lengths.len() {
                    return Err(InflateError::BadCodeTable);
                }
                lengths[i..i + n].fill(prev);
                i += n;
            }
            17 => {
                let n = r.read_bits(3)? as usize + 3;
                if i + n > lengths.len() {
                    return Err(InflateError::BadCodeTable);
                }
                i += n;
            }
            18 => {
                let n = r.read_bits(7)? as usize + 11;
                if i + n > lengths.len() {
                    return Err(InflateError::BadCodeTable);
                }
                i += n;
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
    if lengths[END_OF_BLOCK] == 0 {
        // Every block must be terminable.
        return Err(InflateError::BadCodeTable);
    }
    let lit = Decoder::from_lengths(&lengths[..hlit]).ok_or(InflateError::BadCodeTable)?;
    let dist = Decoder::from_lengths(&lengths[hlit..]).ok_or(InflateError::BadCodeTable)?;
    Ok((lit, dist))
}

/// Resolved-entry layout, one `u32` per [`FAST_BITS`]-bit lookup: bits
/// 0..6 all the bits the entry takes, code plus extra bits (a ready shift
/// count), 6..8 the kind, 8..12 the code length, 16..32 the value — a
/// literal byte, or a length or distance base.
const KIND: u32 = 3 << 6;
/// A literal; the value is the byte.
const LITERAL: u32 = 0;
/// A length or distance code; the value is its base.
const BASE: u32 = 1 << 6;
/// The end-of-block code.
const END: u32 = 2 << 6;
/// No code of at most [`FAST_BITS`] bits, or a reserved symbol: the slot
/// is finished by [`Decoder::walk`].
const SLOW: u32 = 3 << 6;

/// The entry of a `len`-bit code of `kind`, with `value` and `extra` bits.
const fn entry(kind: u32, value: u32, len: u32, extra: u32) -> u32 {
    value << 16 | len << 8 | kind | (len + extra)
}

/// The entry of litlen `symbol`, coded in `len` bits.
fn litlen_entry(symbol: u16, len: u32) -> u32 {
    match (symbol, length_base(symbol)) {
        (0..=255, _) => entry(LITERAL, u32::from(symbol), len, 0),
        (256, _) => entry(END, 0, len, 0),
        (_, Some((base, extra))) => entry(BASE, base, len, extra),
        (_, None) => entry(SLOW, 0, len, 0),
    }
}

/// The entry of distance `symbol`, coded in `len` bits.
fn distance_entry(symbol: u16, len: u32) -> u32 {
    match distance_base(symbol) {
        Some((base, extra)) => entry(BASE, base, len, extra),
        None => entry(SLOW, 0, len, 0),
    }
}

/// All the bits `entry` takes: its code and extra bits.
#[inline(always)]
fn bits_len(entry: u32) -> u32 {
    entry & 0x3F
}

/// `entry` is a literal whose code is buffered: literals are kind 0 and
/// take no extra bits, so one compare checks both.
#[inline(always)]
fn is_buffered_literal(entry: u32, buffered: u32) -> bool {
    entry & (KIND | 0x3F) <= buffered
}

/// `entry` resolves its symbol and all its bits are buffered.
#[inline(always)]
fn is_buffered(entry: u32, buffered: u32) -> bool {
    entry & KIND != SLOW && bits_len(entry) <= buffered
}

/// The entry's value plus its extra bits, which follow its code in `bits`.
#[inline(always)]
fn full_value(entry: u32, bits: u64) -> usize {
    let taken = bits & ((1 << bits_len(entry)) - 1);
    (entry >> 16) as usize + (taken >> (entry >> 8 & 0xF)) as usize
}

/// One block's litlen and distance codes: each canonical decoder with its
/// table of resolved entries.
struct BlockCodes {
    lit: Decoder,
    dist: Decoder,
    lit_table: [u32; 1 << FAST_BITS],
    dist_table: [u32; 1 << FAST_BITS],
}

impl BlockCodes {
    fn new(lit: Decoder, dist: Decoder) -> Self {
        let lit_table = lit.resolved(litlen_entry, SLOW);
        let dist_table = dist.resolved(distance_entry, SLOW);
        Self { lit, dist, lit_table, dist_table }
    }

    /// The litlen entry the next bits of `br` start with, finished by the
    /// canonical walk when the table cannot resolve it.
    #[inline(always)]
    fn litlen(&self, br: &BitReader<'_>) -> Result<u32, InflateError> {
        let entry = self.lit_table[fast_index(br.bits())];
        if is_buffered(entry, br.buffered()) {
            return Ok(entry);
        }
        let (symbol, len) = self.lit.walk(br.bits(), br.buffered())?;
        match litlen_entry(symbol, len) {
            entry if entry & KIND == SLOW => Err(InflateError::BadSymbol),
            entry => Ok(entry),
        }
    }

    /// The distance entry `bits` start with (`avail` of them present).
    #[inline(always)]
    fn distance(&self, bits: u64, avail: u32) -> Result<u32, InflateError> {
        let entry = self.dist_table[fast_index(bits)];
        if is_buffered(entry, avail) {
            return Ok(entry);
        }
        let (symbol, len) = self.dist.walk(bits, avail)?;
        match distance_entry(symbol, len) {
            entry if entry & KIND == SLOW => Err(InflateError::BadSymbol),
            entry => Ok(entry),
        }
    }
}

/// Decode one compressed block's symbols into `out`.
///
/// The bit state lives in a local reader written back on exit, so the
/// caller's reader ends exactly past the last code read. Output goes into
/// a zero-filled [`Window`] over `out`, cut back to the decoded bytes on
/// exit, error or not.
fn inflate_compressed(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    codes: &BlockCodes,
    cap: u64,
) -> Result<(), InflateError> {
    let mut br = r.clone();
    let mut win = Window::new(std::mem::take(out), cap);
    let result = decode_symbols(&mut br, &mut win, codes);
    win.buf.truncate(win.at);
    *out = win.buf;
    *r = br;
    result
}

/// The table index of the next [`FAST_BITS`] bits.
#[inline(always)]
fn fast_index(bits: u64) -> usize {
    (bits & ((1 << FAST_BITS) - 1)) as usize
}

/// The resolved-entry loop, in two spans: the [`main_span`] while
/// [`main_span_fits`], and a checked pass for the rest, after which the
/// main span's condition is tested again.
///
/// The checked pass refills to at least 56 bits (or every bit left),
/// which covers two literals, or one whole match: 15 code + 5 extra + 15
/// code + 13 extra = 48 bits. Every symbol checks its bits against what is
/// buffered, and every write its room, so it runs to the very end of the
/// input and the cap, and each error comes from the same symbol, in the
/// same order, as a bit-at-a-time decoder's.
#[inline(always)]
fn decode_symbols(
    br: &mut BitReader<'_>,
    win: &mut Window,
    codes: &BlockCodes,
) -> Result<(), InflateError> {
    loop {
        if main_span_fits(br, win) {
            main_span(br, win, codes)?;
        }
        // Look up before the refill, which only adds bits above the
        // buffered ones: an entry whose code fits in them is exact, and
        // the lookup does not wait for the refill's load.
        let (bits, buffered) = (br.bits(), br.buffered());
        br.refill_word();
        let entry = codes.lit_table[fast_index(bits)];
        if is_buffered_literal(entry, buffered) {
            win.literal((entry >> 16) as u8)?;
            br.consume(bits_len(entry));
            let (bits, buffered) = (bits >> bits_len(entry), buffered - bits_len(entry));
            let entry = codes.lit_table[fast_index(bits)];
            if is_buffered_literal(entry, buffered) {
                win.literal((entry >> 16) as u8)?;
                br.consume(bits_len(entry));
            }
            continue;
        }
        let entry = if is_buffered(entry, buffered) { entry } else { codes.litlen(br)? };
        match entry & KIND {
            LITERAL => {
                win.literal((entry >> 16) as u8)?;
                br.consume(bits_len(entry));
            }
            END => {
                br.consume(bits_len(entry));
                return Ok(());
            }
            _ => {
                let (bits, avail) = (br.bits(), br.buffered());
                let used = bits_len(entry);
                if used > avail {
                    return Err(InflateError::UnexpectedEof);
                }
                let len = full_value(entry, bits);
                let dentry = codes.distance(bits >> used, avail - used)?;
                let dist = full_value(dentry, bits >> used);
                let used = used + bits_len(dentry);
                if used > avail {
                    return Err(InflateError::UnexpectedEof);
                }
                br.consume(used);
                win.copy_match(dist, len)?;
            }
        }
    }
}

/// Input bytes the main span needs ahead of each pass: its refill is a
/// word load while 8 are left, and 16 leave margin.
const SPAN_INPUT: usize = 16;

/// Room the main span needs past `at` for each pass: a literal, a whole
/// match and the [`SLACK`] its last 16-byte chunk may run into.
const SPAN_ROOM: usize = 1 + MAX_MATCH as usize + SLACK;

/// The main span's condition (see [`decode_symbols`]). The room never
/// grows past `cap + SLACK`, so a pass never passes the cap: this, not
/// the chunk overrun, makes [`SPAN_ROOM`] tight.
#[inline(always)]
fn main_span_fits(br: &BitReader<'_>, win: &Window) -> bool {
    br.rest_len() >= SPAN_INPUT && win.at + SPAN_ROOM <= win.buf.len()
}

/// The main span of [`decode_symbols`]: passes with no bit or room
/// checks while [`main_span_fits`].
///
/// A pass decodes two literals, a literal and a match, or a match. Its
/// refill is a word load, after which all 64 bits of the buffer are
/// stream bits and at least 56 are counted, and it takes at most 48 of
/// them: a literal of at most [`FAST_BITS`] bits, a resolved length (10
/// code + 5 extra) and distance (10 + 13). So the next pass's first
/// lookup, made before its refill, sees at least 16 stream bits and is
/// exact. So is the first pass's: a block's window starts with no room,
/// so the main span only ever follows a checked pass, whose refill was a
/// word load too and which took at most 48 bits.
///
/// A match still checks its distance. On an end-of-block or `SLOW` entry
/// the span returns before that symbol is consumed, so the checked pass
/// raises every other error. It stays out of line: inlined, it measured
/// slower on range reads and moved the compress side's code placement
/// (DESIGN §3.1).
#[inline(never)]
fn main_span(
    br: &mut BitReader<'_>,
    win: &mut Window,
    codes: &BlockCodes,
) -> Result<(), InflateError> {
    loop {
        let bits = br.bits();
        br.refill_word();
        let mut entry = codes.lit_table[fast_index(bits)];
        if entry & KIND == LITERAL {
            win.put((entry >> 16) as u8);
            br.consume(bits_len(entry));
            // After the refill: a match may follow the literal.
            entry = codes.lit_table[fast_index(br.bits())];
            if entry & KIND == LITERAL {
                win.put((entry >> 16) as u8);
                br.consume(bits_len(entry));
                if !main_span_fits(br, win) {
                    return Ok(());
                }
                continue;
            }
        }
        if entry & KIND != BASE {
            return Ok(());
        }
        let bits = br.bits();
        let used = bits_len(entry);
        let dentry = codes.dist_table[fast_index(bits >> used)];
        if dentry & KIND == SLOW {
            return Ok(());
        }
        let len = full_value(entry, bits);
        let dist = full_value(dentry, bits >> used);
        br.consume(used + bits_len(dentry));
        if dist > win.at {
            return Err(InflateError::DistanceTooFar);
        }
        win.copy(dist, len);
        if !main_span_fits(br, win) {
            return Ok(());
        }
    }
}

/// The decode loop's output: `buf[..at]` is decoded, `buf[at..]` is room
/// for the next writes, zero-filled as it grows. Held by value, so byte
/// stores cannot alias its fields and they stay in registers.
///
/// The room never grows past `cap + SLACK`, so a write that ends at most
/// [`SLACK`] bytes before the room's end is also within the cap: one
/// compare checks both.
struct Window {
    buf: Vec<u8>,
    /// `buf.len()` when the block started.
    start: usize,
    at: usize,
    cap: usize,
}

impl Window {
    fn new(buf: Vec<u8>, cap: u64) -> Self {
        let at = buf.len();
        Self { buf, start: at, at, cap: usize::try_from(cap).unwrap_or(usize::MAX) }
    }

    #[inline(always)]
    fn literal(&mut self, byte: u8) -> Result<(), InflateError> {
        if self.at + SLACK >= self.buf.len() {
            self.make_room(1)?;
        }
        self.put(byte);
        Ok(())
    }

    /// Append `byte` to room the caller has checked.
    #[inline(always)]
    fn put(&mut self, byte: u8) {
        self.buf[self.at] = byte;
        self.at += 1;
    }

    /// Append `len` bytes copied from `dist` back, making room first.
    #[inline(always)]
    fn copy_match(&mut self, dist: usize, len: usize) -> Result<(), InflateError> {
        if dist > self.at {
            return Err(InflateError::DistanceTooFar);
        }
        if self.at + len + SLACK > self.buf.len() {
            self.make_room(len)?;
        }
        self.copy(dist, len);
        Ok(())
    }

    /// Append `len` bytes copied from `dist` back (at most `at`) to room
    /// the caller has checked: `len + SLACK` bytes. A copy in 16- or
    /// 8-byte chunks reads a chunk only once it is fully written (`dist`
    /// at least the chunk size); shorter distances go byte by byte.
    #[inline(always)]
    fn copy(&mut self, dist: usize, len: usize) {
        let end = self.at + len;
        let buf = &mut self.buf[..];
        let mut at = self.at;
        if dist >= 16 {
            while at < end {
                let (done, rest) = buf.split_at_mut(at);
                rest[..16].copy_from_slice(&done[at - dist..at - dist + 16]);
                at += 16;
            }
        } else if dist >= 8 {
            while at < end {
                let (done, rest) = buf.split_at_mut(at);
                rest[..8].copy_from_slice(&done[at - dist..at - dist + 8]);
                at += 8;
            }
        } else {
            for i in at..end {
                buf[i] = buf[i - dist];
            }
        }
        self.at = end;
    }

    /// Make room for `n` more bytes past `at` and [`SLACK`] after them, or
    /// fail if they would pass the cap (a head decode's stop).
    #[inline(always)]
    fn make_room(&mut self, n: usize) -> Result<(), InflateError> {
        if self.at.saturating_add(n) > self.cap {
            return Err(InflateError::OutputLimitExceeded);
        }
        self.buf = grown(std::mem::take(&mut self.buf), self.start, self.cap, self.at + n + SLACK);
        Ok(())
    }
}

/// `buf` zero-filled to at least `need` bytes: to double what the block
/// has decoded since `start` (at least [`MIN_GROWTH`]), but never past
/// `cap + SLACK`, nor past the capacity unless `need` is. `need` is at
/// most `cap + SLACK`: the cap is checked first.
#[cold]
#[inline(never)]
fn grown(mut buf: Vec<u8>, start: usize, cap: usize, need: usize) -> Vec<u8> {
    let len = buf.len();
    let doubled = len + (len - start).max(MIN_GROWTH);
    let target = doubled.min(cap.saturating_add(SLACK)).min(buf.capacity().max(need)).max(need);
    buf.resize(target, 0);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fixed_stream() {
        // `python3 -c "import zlib;print(zlib.compress(b'hello hello hello hello',1)[2:-4].hex())"`
        // yields a zlib stream; this vector is the raw deflate body of
        // compressing "abc" with fixed codes: literals 'a','b','c' + EOB.
        // Hand-built: BFINAL=1,BTYPE=01, 'a'=0x61 -> code 0x31+0x61=0x92 (8b),
        // easier to verify via our own encoder in encoder.rs tests; here we
        // check a canonical empty fixed block: header + EOB(0000000).
        let data = [0b0000_0011u8, 0b0000_0000]; // 1,01, then 7 zero bits
        assert_eq!(inflate(&data).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn reserved_block_type_rejected() {
        let data = [0b0000_0111u8];
        assert_eq!(inflate(&data), Err(InflateError::ReservedBlockType));
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = [0b0000_0011u8]; // fixed block, EOB cut off
        assert_eq!(inflate(&data), Err(InflateError::UnexpectedEof));
    }

    #[test]
    fn stored_nlen_mismatch_rejected() {
        // BFINAL=1 BTYPE=00, LEN=1, NLEN=0 (should be !1).
        let data = [0b0000_0001, 0x01, 0x00, 0x00, 0x00, 0xAA];
        assert_eq!(inflate(&data), Err(InflateError::StoredLengthMismatch));
    }

    #[test]
    fn distance_too_far_rejected() {
        // Fixed block: match(len 3, dist 1) as the very first symbol.
        use crate::bitio::BitWriter;
        use crate::huffman::Codebook;
        let lit = Codebook::from_lengths(&fixed_litlen_lengths());
        let dist = Codebook::from_lengths(&fixed_dist_lengths());
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        lit.encode(&mut w, 257); // len 3, no extra
        dist.encode(&mut w, 0); // dist 1, no extra
        lit.encode(&mut w, 256);
        assert_eq!(inflate(&w.finish()), Err(InflateError::DistanceTooFar));
    }

    #[test]
    fn error_display_messages() {
        assert_eq!(InflateError::DistanceTooFar.to_string(), "match distance exceeds output");
        assert_eq!(
            InflateError::OutputLimitExceeded.to_string(),
            "decoded output exceeds configured limit"
        );
    }
}

#[cfg(test)]
mod limit_tests {
    use super::*;
    use crate::encoder::{BlockKind, DeflateEncoder};
    use crate::token::Token;

    /// A small stream that expands to `n` identical bytes via one literal
    /// plus maximal matches — a miniature decompression bomb.
    fn bomb(n: usize) -> Vec<u8> {
        let mut tokens = vec![Token::Literal(b'x')];
        let mut produced = 1;
        while produced < n {
            let len = (n - produced).clamp(3, 258) as u32;
            tokens.push(Token::new_match(1, len));
            produced += len as usize;
        }
        let mut enc = DeflateEncoder::new();
        enc.write_block(&tokens, BlockKind::FixedHuffman, true);
        enc.finish()
    }

    #[test]
    fn unlimited_default_matches_plain_inflate() {
        let stream = bomb(100_000);
        assert_eq!(inflate_limited(&stream, &Limits::default()), inflate(&stream));
    }

    #[test]
    fn output_byte_cap_stops_a_bomb_early() {
        let stream = bomb(1_000_000);
        let limits = Limits::none().with_max_output_bytes(10_000);
        assert_eq!(inflate_limited(&stream, &limits), Err(InflateError::OutputLimitExceeded));
    }

    #[test]
    fn expansion_ratio_cap_stops_a_bomb() {
        let stream = bomb(10_000_000);
        assert!(stream.len() < 100_000, "bomb must be small on the wire");
        let limits = Limits::none().with_max_expansion_ratio(4);
        assert_eq!(inflate_limited(&stream, &limits), Err(InflateError::OutputLimitExceeded));
    }

    #[test]
    fn ratio_floor_spares_tiny_legitimate_streams() {
        // An 11-byte stream decoding to ~300 bytes has ratio ≈ 27, but the
        // 4096-byte floor keeps it under `4096 * 4`.
        let stream = bomb(300);
        let limits = Limits::none().with_max_expansion_ratio(4);
        assert_eq!(inflate_limited(&stream, &limits).unwrap().len(), 300);
    }

    #[test]
    fn block_count_cap_enforced() {
        let mut enc = DeflateEncoder::new();
        for i in 0..5 {
            let tokens = [Token::Literal(b'a' + i as u8)];
            enc.write_block(&tokens, BlockKind::FixedHuffman, i == 4);
        }
        let stream = enc.finish();
        assert_eq!(
            inflate_limited(&stream, &Limits::none().with_max_blocks(4)),
            Err(InflateError::BlockLimitExceeded)
        );
        assert_eq!(inflate_limited(&stream, &Limits::none().with_max_blocks(5)).unwrap(), b"abcde");
    }

    #[test]
    fn stored_blocks_respect_the_cap() {
        // BFINAL=1 BTYPE=00, LEN=100, NLEN=!100, then 100 payload bytes.
        let mut data = vec![0b0000_0001, 100, 0, !100u8, 0xFF];
        data.extend(std::iter::repeat_n(0xAB, 100));
        assert_eq!(
            inflate_limited(&data, &Limits::none().with_max_output_bytes(99)),
            Err(InflateError::OutputLimitExceeded)
        );
        assert_eq!(
            inflate_limited(&data, &Limits::none().with_max_output_bytes(100)).unwrap().len(),
            100
        );
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::encoder::{BlockKind, DeflateEncoder};
    use crate::token::Token;

    fn blocks(parts: &[&[u8]]) -> (Vec<u8>, Vec<u8>) {
        let mut enc = DeflateEncoder::new();
        let mut joined = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let tokens: Vec<Token> = part.iter().copied().map(Token::Literal).collect();
            enc.write_block(&tokens, BlockKind::FixedHuffman, i + 1 == parts.len());
            joined.extend_from_slice(part);
        }
        (enc.finish(), joined)
    }

    #[test]
    fn byte_at_a_time_feeding_decodes_everything() {
        let (stream, expected) = blocks(&[b"first block ", b"second", b" third and last"]);
        let mut s = InflateStream::new();
        let mut got = Vec::new();
        for &b in &stream {
            s.feed(&[b]).unwrap();
            got.extend(s.take_output());
        }
        assert!(s.is_finished());
        assert_eq!(got, expected);
    }

    #[test]
    fn output_appears_at_block_boundaries() {
        let (stream, expected) = blocks(&[b"alpha beta gamma ", b"delta"]);
        let mut s = InflateStream::new();
        // Feed everything except the last byte: the final block is still
        // open, so only the first block's bytes are out.
        s.feed(&stream[..stream.len() - 1]).unwrap();
        let early = s.take_output();
        assert!(early.starts_with(b"alpha"));
        assert!(early.len() < expected.len());
        assert!(!s.is_finished());
        s.feed(&stream[stream.len() - 1..]).unwrap();
        let mut got = early;
        got.extend(s.take_output());
        assert_eq!(got, expected);
        assert!(s.is_finished());
        assert_eq!(s.total_out(), expected.len() as u64);
    }

    #[test]
    fn cross_block_back_references_resolve() {
        let mut enc = DeflateEncoder::new();
        let lits: Vec<Token> = b"abcdefgh".iter().copied().map(Token::Literal).collect();
        enc.write_block(&lits, BlockKind::FixedHuffman, false);
        enc.write_block(&[Token::new_match(8, 8)], BlockKind::FixedHuffman, true);
        let stream = enc.finish();
        let mut s = InflateStream::new();
        for chunk in stream.chunks(3) {
            s.feed(chunk).unwrap();
        }
        let mut got = Vec::new();
        got.extend(s.take_output());
        assert_eq!(got, b"abcdefghabcdefgh");
    }

    #[test]
    fn corrupt_stream_errors_and_rolls_back() {
        let (mut stream, _) = blocks(&[b"some payload to protect"]);
        stream[0] = 0b110; // BFINAL=0 + reserved BTYPE=11
        let mut s = InflateStream::new();
        assert!(matches!(s.feed(&stream), Err(InflateError::ReservedBlockType)));
        assert!(s.take_output().is_empty(), "no partial garbage");
    }

    #[test]
    fn session_flush_points_release_output_incrementally() {
        // (The cross-crate session pairing lives in tests/; here a plain
        // sync-flush sequence stands in.)
        let mut enc = DeflateEncoder::new();
        let t1: Vec<Token> = b"chunk one ".iter().copied().map(Token::Literal).collect();
        enc.write_block(&t1, BlockKind::FixedHuffman, false);
        enc.sync_flush();
        let aligned_len = enc.as_bytes().len();
        let t2: Vec<Token> = b"chunk two".iter().copied().map(Token::Literal).collect();
        enc.write_block(&t2, BlockKind::FixedHuffman, true);
        let stream = enc.finish();
        let mut s = InflateStream::new();
        s.feed(&stream[..aligned_len]).unwrap();
        assert_eq!(s.take_output(), b"chunk one ", "flush point releases its block");
        s.feed(&stream[aligned_len..]).unwrap();
        assert_eq!(s.take_output(), b"chunk two");
    }
}
