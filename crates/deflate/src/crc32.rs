//! CRC-32 (IEEE 802.3 polynomial, reflected) — the gzip container's check.
//!
//! Slicing-by-8: `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
//! bytes, so eight input bytes fold into the state with eight independent
//! lookups per step instead of eight dependent ones. The tables are built at
//! compile time (8 KiB).

/// Reflected polynomial for CRC-32/ISO-HDLC as used by gzip, zip and PNG.
const POLY: u32 = 0xEDB8_8320;

const TABLES: [[u32; 256]; 8] = make_tables();

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
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk")) ^ u64::from(crc);
            crc = TABLES[7][(v & 0xFF) as usize]
                ^ TABLES[6][(v >> 8 & 0xFF) as usize]
                ^ TABLES[5][(v >> 16 & 0xFF) as usize]
                ^ TABLES[4][(v >> 24 & 0xFF) as usize]
                ^ TABLES[3][(v >> 32 & 0xFF) as usize]
                ^ TABLES[2][(v >> 40 & 0xFF) as usize]
                ^ TABLES[1][(v >> 48 & 0xFF) as usize]
                ^ TABLES[0][(v >> 56) as usize];
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
