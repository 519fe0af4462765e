//! Adler-32 checksum (RFC 1950 §8.2) — the zlib container's integrity check.

const MOD_ADLER: u32 = 65_521;
/// Bytes summed between reductions modulo [`MOD_ADLER`]: the largest
/// multiple of [`LANES`] within zlib's deferred-modulo bound of 5,552.
const NMAX: usize = 5_536;
/// Independent byte sums kept side by side, one per position mod 16, so
/// the compiler can keep them in vector registers.
const LANES: usize = 16;

/// Streaming Adler-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Adler32 {
    a: u32,
    b: u32,
}

impl Default for Adler32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Adler32 {
    /// Initial state (checksum of the empty string is 1).
    pub fn new() -> Self {
        Self { a: 1, b: 0 }
    }

    /// Absorb bytes.
    ///
    /// Each [`NMAX`] block is summed in 16-byte rows: lane `j` of `sa`
    /// adds the bytes at positions `≡ j (mod 16)`, and `before` adds, per
    /// row, the sum of every byte in the rows before it. A byte at
    /// position `i` of an `n`-byte block adds `n - i` times to `b`, so
    /// with `i = 16m + j` the rows add `n·a + 16·before + Σ(16 - j)·sa[j]`
    /// to `b` and `Σsa` to `a`. Bytes after the last whole row go one by
    /// one.
    pub fn update(&mut self, data: &[u8]) {
        let (mut a, mut b) = (self.a, self.b);
        for block in data.chunks(NMAX) {
            let rows = block.chunks_exact(LANES);
            let tail = rows.remainder();
            let mut sa = [0u32; LANES];
            let (mut before, mut total) = (0u32, 0u32);
            for row in rows {
                before += total;
                let mut row_sum = 0;
                for (lane, &byte) in sa.iter_mut().zip(row) {
                    *lane += u32::from(byte);
                    row_sum += u32::from(byte);
                }
                total += row_sum;
            }
            let n = (block.len() - tail.len()) as u64;
            let a64 = u64::from(a) + u64::from(total);
            let mut b64 = u64::from(b) + n * u64::from(a) + LANES as u64 * u64::from(before);
            for (j, &lane) in sa.iter().enumerate() {
                b64 += (LANES - j) as u64 * u64::from(lane);
            }
            a = (a64 % u64::from(MOD_ADLER)) as u32;
            b = (b64 % u64::from(MOD_ADLER)) as u32;
            for &byte in tail {
                a += u32::from(byte);
                b += a;
            }
            a %= MOD_ADLER;
            b %= MOD_ADLER;
        }
        (self.a, self.b) = (a, b);
    }

    /// Current checksum value.
    pub fn finish(&self) -> u32 {
        (self.b << 16) | self.a
    }
}

/// One-shot Adler-32 of `data`.
pub fn adler32(data: &[u8]) -> u32 {
    let mut a = Adler32::new();
    a.update(data);
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-serial definition (RFC 1950 §8.2): the oracle the lanes
    /// must reproduce.
    fn adler32_serial(data: &[u8]) -> u32 {
        let (mut a, mut b) = (1u32, 0u32);
        for &byte in data {
            a = (a + u32::from(byte)) % MOD_ADLER;
            b = (b + a) % MOD_ADLER;
        }
        (b << 16) | a
    }

    /// Deterministic bytes with every value showing up.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn empty_is_one() {
        assert_eq!(adler32(b""), 1);
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors (verifiable with `zlib.adler32` in Python).
        assert_eq!(adler32(b"a"), 0x0062_0062);
        assert_eq!(adler32(b"abc"), 0x024d_0127);
        assert_eq!(adler32(b"message digest"), 0x29750586);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn lanes_match_the_serial_oracle_at_every_length_and_offset() {
        let data = noise(2 * NMAX + 17 + 16);
        for offset in 0..16 {
            let data = &data[offset..];
            // The oracle's state after each prefix, in one pass.
            let (mut a, mut b) = (1u32, 0u32);
            for len in 0..=2 * NMAX + 17 {
                assert_eq!(adler32(&data[..len]), (b << 16) | a, "offset {offset}, len {len}");
                if len < data.len() {
                    a = (a + u32::from(data[len])) % MOD_ADLER;
                    b = (b + a) % MOD_ADLER;
                }
            }
        }
    }

    #[test]
    fn deferred_modulo_boundary() {
        // 0xFF bytes drive every lane and both sums to their largest.
        let data = vec![0xFFu8; 4 * NMAX + LANES];
        for k in 0..=4 {
            for len in [k * NMAX, k * NMAX + LANES - 1, k * NMAX + LANES] {
                assert_eq!(adler32(&data[..len]), adler32_serial(&data[..len]), "len {len}");
            }
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = noise(3 * NMAX + 100);
        let want = adler32_serial(&data);
        let mut x = 7usize;
        for _ in 0..64 {
            let mut s = Adler32::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let cut = (x >> 33) % (2 * NMAX) % (rest.len() + 1);
                s.update(&rest[..cut]);
                rest = &rest[cut..];
            }
            assert_eq!(s.finish(), want);
        }
        let mut s = Adler32::new();
        data.chunks(977).for_each(|chunk| s.update(chunk));
        assert_eq!(s.finish(), want);
    }
}
