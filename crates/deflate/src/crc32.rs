//! CRC-32 (IEEE 802.3 polynomial, reflected) — the gzip container's check.
//!
//! Slicing-by-8: `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
//! bytes, so eight input bytes fold into the state with eight independent
//! lookups per step instead of eight dependent ones.
//!
//! Long inputs run braided, as zlib's `crc32.c` does since 1.2.12 (after
//! Kadatch & Jenkins, "Everything we know about CRC but afraid to
//! forget", 2010): [`BRAIDS`] independent CRCs take every fifth 8-byte
//! word, so the folds of five words overlap instead of each waiting on
//! the last. `BRAID[k][b]` is `TABLES[k][b]` carried past the other
//! braids' words, to where its own braid's next word starts; the last
//! five words fold the braids back into one CRC. The tables are built at
//! compile time (16 KiB).

/// Reflected polynomial for CRC-32/ISO-HDLC as used by gzip, zip and PNG.
const POLY: u32 = 0xEDB8_8320;

/// Independent CRCs a long input is braided across.
const BRAIDS: usize = 5;

/// Bytes per braided word.
const WORD: usize = 8;

const TABLES: [[u32; 256]; 8] = make_tables();

const BRAID: [[u32; 256]; 8] = make_braid();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// [`TABLES`] followed by the `(BRAIDS - 1) * WORD` zero bytes of the
/// other braids' words.
const fn make_braid() -> [[u32; 256]; 8] {
    let mut t = TABLES;
    let mut k = 0;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let mut zeros = 0;
            while zeros < (BRAIDS - 1) * WORD {
                t[k][i] = (t[k][i] >> 8) ^ TABLES[0][(t[k][i] & 0xFF) as usize];
                zeros += 1;
            }
            i += 1;
        }
        k += 1;
    }
    t
}

/// The eight bytes of `v`, lowest first, folded through `tables`: the
/// CRC of `v` from a zero state, carried as far as `tables` carry it.
#[inline(always)]
fn fold(tables: &[[u32; 256]; 8], v: u64) -> u32 {
    tables[7][(v & 0xFF) as usize]
        ^ tables[6][(v >> 8 & 0xFF) as usize]
        ^ tables[5][(v >> 16 & 0xFF) as usize]
        ^ tables[4][(v >> 24 & 0xFF) as usize]
        ^ tables[3][(v >> 32 & 0xFF) as usize]
        ^ tables[2][(v >> 40 & 0xFF) as usize]
        ^ tables[1][(v >> 48 & 0xFF) as usize]
        ^ tables[0][(v >> 56) as usize]
}

/// The little-endian word a `WORD`-byte chunk holds.
#[inline(always)]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// `crc` carried over `data`'s whole braid blocks, braided; returns it
/// and the bytes left after them. Inputs shorter than two blocks are left
/// whole: one block alone gains nothing.
fn braided(crc: u32, data: &[u8]) -> (u32, &[u8]) {
    let block = BRAIDS * WORD;
    let blocks = data.len() / block;
    if blocks < 2 {
        return (crc, data);
    }
    let (body, rest) = data.split_at(blocks * block);
    let (body, last) = body.split_at(body.len() - block);
    let mut crcs = [0u32; BRAIDS];
    crcs[0] = crc;
    for words in body.chunks_exact(block) {
        for (c, w) in crcs.iter_mut().zip(words.chunks_exact(WORD)) {
            *c = fold(&BRAID, word(w) ^ u64::from(*c));
        }
    }
    let crc = crcs
        .iter()
        .zip(last.chunks_exact(WORD))
        .fold(0, |comb, (c, w)| fold(&TABLES, word(w) ^ u64::from(c ^ comb)));
    (crc, rest)
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes.
    pub fn update(&mut self, data: &[u8]) {
        let (mut crc, data) = braided(self.state, data);
        let mut words = data.chunks_exact(WORD);
        for w in &mut words {
            crc = fold(&TABLES, word(w) ^ u64::from(crc));
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut s = Crc32::new();
        for chunk in data.chunks(1234) {
            s.update(chunk);
        }
        assert_eq!(s.finish(), crc32(&data));
    }
}
