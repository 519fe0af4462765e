//! LSB-first bit-level I/O as used by Deflate (RFC 1951 §3.1.1).
//!
//! Deflate packs bits starting from the least-significant bit of each byte.
//! Non-Huffman fields (extra bits, block headers) are written with their own
//! least-significant bit first; Huffman codes are written starting from the
//! code's most-significant bit, which callers achieve by bit-reversing codes
//! before calling [`BitWriter::write_bits`] (see [`crate::huffman`]).

/// Accumulates bits LSB-first into a byte vector.
///
/// Every write stores the whole 64-bit accumulator with one 8-byte copy
/// into slack past the completed bytes (zero-filled as it grows), then
/// advances by the whole bytes it completed. The bits left over stay in
/// the accumulator; their copy in the slack is overwritten by the next
/// store. [`Self::finish`] trims the slack.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    /// Completed bytes `[..pos]`, then slack for the next word store.
    out: Vec<u8>,
    pos: usize,
    bitbuf: u64,
    bitcount: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `value` (LSB written first). `n` may be 0
    /// (no-op) and at most 57 so the accumulator never overflows.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 57, "write_bits supports at most 57 bits at once");
        debug_assert!(n == 64 || value < (1u64 << n), "value {value} wider than {n} bits");
        // Work on locals and write the fields back after the byte store,
        // which could otherwise alias them and force reloads.
        let bitbuf = self.bitbuf | value << self.bitcount;
        let bitcount = self.bitcount + n;
        let pos = self.pos;
        if self.out.len() < pos + 8 {
            self.out = grown(std::mem::take(&mut self.out), pos + 8);
        }
        self.out[pos..pos + 8].copy_from_slice(&bitbuf.to_le_bytes());
        // bitcount can reach 64 (7 buffered + 57 new), where a plain shift
        // would be out of range, hence the checked variant.
        let flushed = bitcount & !7;
        self.pos = pos + (flushed / 8) as usize;
        self.bitbuf = bitbuf.checked_shr(flushed).unwrap_or(0);
        self.bitcount = bitcount - flushed;
    }

    /// Pad with zero bits to the next byte boundary (used before stored
    /// blocks and at stream end).
    pub fn align_to_byte(&mut self) {
        if self.bitcount > 0 {
            self.write_bits(0, 8 - self.bitcount);
        }
    }

    /// Append whole bytes; the writer must be byte-aligned.
    ///
    /// # Panics
    /// Panics if not aligned — stored-block payloads must follow the
    /// alignment padding mandated by the spec.
    pub fn write_aligned_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.bitcount, 0, "writer not byte-aligned");
        let end = self.pos + bytes.len();
        if self.out.len() < end {
            self.out = grown(std::mem::take(&mut self.out), end);
        }
        self.out[self.pos..end].copy_from_slice(bytes);
        self.pos = end;
    }

    /// Bits written so far (including buffered, not-yet-flushed bits).
    pub fn bit_len(&self) -> u64 {
        self.pos as u64 * 8 + u64::from(self.bitcount)
    }

    /// Finish the stream: align and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out.truncate(self.pos);
        self.out
    }

    /// Borrow the completed bytes without consuming (excludes buffered bits).
    pub fn as_bytes(&self) -> &[u8] {
        &self.out[..self.pos]
    }
}

/// `out` made at least `need` bytes long, doubling so that stores amortise
/// to no reallocation. Taking and returning the vector by value keeps a
/// writer's address from escaping, so a writer held in a local keeps its
/// fields in registers.
#[cold]
fn grown(mut out: Vec<u8>, need: usize) -> Vec<u8> {
    let len = need.max(out.len() * 2).max(64);
    out.resize(len, 0);
    out
}

/// Reads bits LSB-first from a byte slice.
///
/// The buffer holds `bitcount` unread bits at its bottom. Bits above them
/// are either zero or the stream's own next bits (a word refill loads a
/// whole 8 bytes but only counts the bytes that fit), so a masked read of
/// at most `bitcount` bits is always exact.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    /// The bytes not yet loaded into the buffer.
    rest: &'a [u8],
    bitbuf: u64,
    bitcount: u32,
}

/// Error returned when a read runs past the end of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

impl<'a> BitReader<'a> {
    /// Reader over `data` starting at bit 0 of byte 0.
    pub fn new(data: &'a [u8]) -> Self {
        Self { rest: data, bitbuf: 0, bitcount: 0 }
    }

    /// Top the buffer up to at least 57 bits, or to the end of input. Only
    /// called with `bitcount <= 56`.
    #[inline]
    fn refill(&mut self) {
        if let Some(word) = self.rest.first_chunk::<8>() {
            self.bitbuf |= u64::from_le_bytes(*word) << self.bitcount;
            let bytes = (64 - self.bitcount) / 8;
            self.rest = &self.rest[bytes as usize..];
            self.bitcount += bytes * 8;
            return;
        }
        self.refill_tail();
    }

    /// Top the buffer up to at least 56 bits, or to the end of input, with
    /// one 8-byte load and `bitcount |= 56` while 8 bytes remain — the
    /// inflate loop's refill. Only called with `bitcount < 64`, which holds
    /// after any consume.
    #[inline]
    pub(crate) fn refill_word(&mut self) {
        debug_assert!(self.bitcount < 64);
        if let Some(word) = self.rest.first_chunk::<8>() {
            self.bitbuf |= u64::from_le_bytes(*word) << self.bitcount;
            self.rest = &self.rest[7 - (self.bitcount / 8) as usize..];
            self.bitcount |= 56;
            return;
        }
        self.refill_tail();
    }

    /// Within 8 bytes of the end: load the rest byte by byte.
    #[inline]
    fn refill_tail(&mut self) {
        while let (true, [byte, rest @ ..]) = (self.bitcount <= 56, self.rest) {
            self.bitbuf |= u64::from(*byte) << self.bitcount;
            self.rest = rest;
            self.bitcount += 8;
        }
    }

    /// The next `n` bits (0..=57) without consuming them, and how many of
    /// them the input holds: `n` unless the input ends sooner, in which case
    /// the missing high bits read as zero.
    #[inline]
    pub fn peek(&mut self, n: u32) -> (u64, u32) {
        debug_assert!(n <= 57);
        if self.bitcount < n {
            self.refill();
        }
        (self.bitbuf & ((1u64 << n) - 1), self.bitcount.min(n))
    }

    /// The buffered bits, LSB-first; the low [`Self::buffered`] of them
    /// are the stream's next bits.
    #[inline]
    pub(crate) fn bits(&self) -> u64 {
        self.bitbuf
    }

    /// How many stream bits are buffered (after a [`Self::refill_word`]:
    /// at least 56, or every bit left).
    #[inline]
    pub(crate) fn buffered(&self) -> u32 {
        self.bitcount
    }

    /// How many input bytes are not yet loaded into the buffer. While at
    /// least 8 are, a [`Self::refill_word`] loads a whole word, and all 64
    /// bits of [`Self::bits`] are stream bits.
    #[inline]
    pub(crate) fn rest_len(&self) -> usize {
        self.rest.len()
    }

    /// Drop `n` bits that a [`Self::peek`] reported as present.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.bitcount, "consume past the peeked bits");
        self.bitbuf >>= n;
        self.bitcount -= n;
    }

    /// Read `n` bits (0..=57), LSB-first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, OutOfBits> {
        let (v, avail) = self.peek(n);
        if avail < n {
            return Err(OutOfBits);
        }
        self.consume(n);
        Ok(v)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32, OutOfBits> {
        Ok(self.read_bits(1)? as u32)
    }

    /// Discard buffered bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.consume(self.bitcount % 8);
    }

    /// Read a whole byte; reader must be byte-aligned (after
    /// [`Self::align_to_byte`]).
    pub fn read_aligned_byte(&mut self) -> Result<u8, OutOfBits> {
        debug_assert_eq!(self.bitcount % 8, 0, "reader not byte-aligned");
        Ok(self.read_bits(8)? as u8)
    }

    /// Append the next `n` whole bytes to `out` with at most two slice
    /// copies (the buffered bytes, then the input); reader must be
    /// byte-aligned. Fails, taking nothing, when fewer than `n` are left.
    pub fn read_aligned_bytes(&mut self, n: usize, out: &mut Vec<u8>) -> Result<(), OutOfBits> {
        debug_assert_eq!(self.bitcount % 8, 0, "reader not byte-aligned");
        let buffered = (self.bitcount / 8) as usize;
        if self.rest.len().saturating_add(buffered) < n {
            return Err(OutOfBits);
        }
        let from_buf = buffered.min(n);
        out.extend_from_slice(&self.bitbuf.to_le_bytes()[..from_buf]);
        // Emptied, the buffer is cleared: bits above its count may be
        // input bytes copied below, no longer the stream's next bits.
        self.bitbuf = if from_buf == buffered { 0 } else { self.bitbuf >> (from_buf * 8) };
        self.bitcount -= from_buf as u32 * 8;
        let (taken, rest) = self.rest.split_at(n - from_buf);
        out.extend_from_slice(taken);
        self.rest = rest;
        Ok(())
    }

    /// Number of the *unread* whole bytes remaining, counting buffered bits.
    pub fn remaining_bits(&self) -> u64 {
        self.rest.len() as u64 * 8 + u64::from(self.bitcount)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [1u64, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1];
        for &b in &pattern {
            w.write_bits(b, 1);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bits(1).unwrap(), b);
        }
    }

    #[test]
    fn lsb_first_byte_layout() {
        let mut w = BitWriter::new();
        // Deflate example: writing value 0b1 as 1 bit then 0b01 as 2 bits
        // gives byte 0b...011 -> 0x03.
        w.write_bits(0b1, 1);
        w.write_bits(0b01, 2);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_0011]);
    }

    #[test]
    fn multi_bit_fields_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0x1AB, 9);
        w.write_bits(0x3F, 6);
        w.write_bits(0x12345, 17);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(9).unwrap(), 0x1AB);
        assert_eq!(r.read_bits(6).unwrap(), 0x3F);
        assert_eq!(r.read_bits(17).unwrap(), 0x12345);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.align_to_byte();
        w.write_aligned_bytes(&[0xAA]);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x01, 0xAA]);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        r.align_to_byte();
        assert_eq!(r.read_aligned_byte().unwrap(), 0xAA);
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.finish(), vec![0b11]);
    }

    #[test]
    fn out_of_bits_detected() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(OutOfBits));
    }

    #[test]
    fn bit_len_tracks_buffered_bits() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0x7F, 7);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn aligned_byte_runs_match_byte_reads_from_any_buffer_state() {
        let bytes: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        // Bytes read one by one up to `skip` leave the buffer at every fill
        // level. Leading reads of 3, 57 and 5 bits (9 bytes once aligned)
        // also leave the next input byte's low bits above the buffered ones.
        for (lead, lead_bytes) in [(&[][..], 0), (&[3, 57, 5][..], 9)] {
            for skip in lead_bytes..20 {
                for n in 0..=bytes.len() - skip + 1 {
                    let mut r = BitReader::new(&bytes);
                    for &bits in lead {
                        r.read_bits(bits).unwrap();
                    }
                    r.align_to_byte();
                    for _ in lead_bytes..skip {
                        r.read_aligned_byte().unwrap();
                    }
                    let what = format!("lead {lead:?}, skip {skip}, n {n}");
                    let mut out = vec![0xEE];
                    if skip + n > bytes.len() {
                        assert_eq!(r.read_aligned_bytes(n, &mut out), Err(OutOfBits), "{what}");
                        assert_eq!(out, [0xEE], "a failed run takes nothing: {what}");
                        continue;
                    }
                    r.read_aligned_bytes(n, &mut out).unwrap();
                    assert_eq!(out[1..], bytes[skip..skip + n], "{what}");
                    assert_eq!(r.remaining_bits(), (bytes.len() - skip - n) as u64 * 8);
                    // Reading on continues with the very next bits.
                    for &want in &bytes[skip + n..] {
                        assert_eq!(r.read_bits(3), Ok(u64::from(want & 7)), "{what}");
                        assert_eq!(r.read_bits(5), Ok(u64::from(want >> 3)), "{what}");
                    }
                    assert_eq!(r.read_bits(1), Err(OutOfBits));
                }
            }
        }
    }

    #[test]
    fn remaining_bits_counts_down() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 32);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining_bits(), 27);
    }
}
