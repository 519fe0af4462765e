//! Host-speed calibration.
//!
//! The benchmark host is a 2-vCPU guest on a shared machine. For seconds
//! at a time its speed drops by up to ~1.5x on branch-heavy code (inflate,
//! the tokenizer) while register arithmetic and cache walks barely slow
//! and steal time stays near zero: the work contends for the core, it does
//! not lose CPU time. A 10 s run's raw timings therefore move 10-45%
//! between runs of identical work. Every end-to-end timing is divided by
//! the host's slowdown at the moment it was taken, measured by a fixed loop
//! that shares no code with the library crates: half of it branches on
//! random bytes, half decodes random variable-length codes through a
//! lookup table with short back-copies, the shape of an inflate loop. Of
//! the loops tried (register arithmetic, L1-, L2- and L3-sized walks,
//! memcpy, a hash-insert loop, each half alone) this mix tracked the slow
//! periods of `FrameWriter`, `unframe` and range reads best. On a quiet
//! host a local workload's slowdown is about 1, so its numbers are close to
//! plain wall-clock times; the loop reads ~1.3 after a served request.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The calibration loop's time on the quiet reference host, ms.
pub const REFERENCE_MS: f64 = 0.53;

/// Samples around a point in time whose median gives the speed there.
const NEAREST: usize = 5;

/// Random bytes the loop branches on.
const BRANCH_BYTES: usize = 200_000;

/// Random bytes the decode half reads.
const DECODE_BYTES: usize = 10_000;

struct Inputs {
    bytes: Vec<u8>,
    codes: [u16; 512],
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let bytes = (0..BRANCH_BYTES).map(|_| (next() >> 24) as u8).collect();
        // Each entry: code length 1..=9 in the top bits, a symbol below;
        // symbols from 256 up are (distance, length) back-references.
        let mut codes = [0u16; 512];
        for c in &mut codes {
            let r = next();
            *c = ((r % 9) as u16) << 12 | (r >> 20) as u16 & 0x7FF;
        }
        Inputs { bytes, codes }
    })
}

fn branches(bytes: &[u8]) -> u64 {
    let (mut a, mut b) = (0u64, 0u64);
    for &x in bytes {
        if x & 1 == 0 {
            a = a.wrapping_add(u64::from(x));
        } else {
            b ^= u64::from(x) << 3;
        }
        if x > 200 {
            a = a.rotate_left(5);
        }
    }
    a ^ b
}

fn decode(bytes: &[u8], codes: &[u16; 512], out: &mut Vec<u8>) -> usize {
    let (mut bitbuf, mut bits, mut pos) = (0u64, 0u32, 0usize);
    while pos + 4 <= bytes.len() {
        if bits < 32 {
            let word = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
            bitbuf |= u64::from(word) << bits;
            pos += 4;
            bits += 32;
        }
        let entry = codes[(bitbuf & 511) as usize];
        let len = u32::from(entry >> 12) + 1;
        bitbuf >>= len;
        bits -= len;
        let sym = usize::from(entry & 0xFFF);
        if sym < 256 {
            out.push(sym as u8);
        } else {
            let (dist, n) = ((sym & 0xFF) + 1, 3 + (sym >> 8 & 7));
            if out.len() > dist {
                for _ in 0..n {
                    out.push(out[out.len() - dist]);
                }
            }
        }
    }
    out.len()
}

/// Run the calibration loop once; its wall time in ms.
pub fn kernel_ms() -> f64 {
    let inputs = inputs();
    let mut out = Vec::with_capacity(8 * DECODE_BYTES);
    let t0 = Instant::now();
    black_box(branches(black_box(&inputs.bytes)));
    black_box(decode(black_box(&inputs.bytes[..DECODE_BYTES]), &inputs.codes, &mut out));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Calibration samples on one timeline: `(time since origin, loop ms)`.
#[derive(Debug, Default, Clone)]
pub struct SpeedTrace {
    samples: Vec<(f64, f64)>,
}

impl SpeedTrace {
    /// Take one sample at `t_ms` on the trace's timeline.
    pub fn sample(&mut self, t_ms: f64) {
        self.push(t_ms, kernel_ms());
    }

    /// Record a loop time measured at `t_ms`.
    pub fn push(&mut self, t_ms: f64, loop_ms: f64) {
        let at = self.samples.partition_point(|s| s.0 <= t_ms);
        self.samples.insert(at, (t_ms, loop_ms));
    }

    /// Fold in another trace of the same timeline.
    pub fn merge(&mut self, other: &SpeedTrace) {
        for &(t, loop_ms) in &other.samples {
            self.push(t, loop_ms);
        }
    }

    /// How much slower than the reference host the host ran at `t_ms`:
    /// the median of the samples nearest that time over [`REFERENCE_MS`].
    /// 1.0 with no samples.
    pub fn slowdown_at(&self, t_ms: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let at = self.samples.partition_point(|s| s.0 < t_ms);
        let lo = at.saturating_sub(NEAREST);
        let hi = (at + NEAREST).min(self.samples.len());
        let mut near: Vec<(f64, f64)> = self.samples[lo..hi].to_vec();
        near.sort_by(|a, b| (a.0 - t_ms).abs().total_cmp(&(b.0 - t_ms).abs()));
        near.truncate(NEAREST);
        let loops: Vec<f64> = near.iter().map(|s| s.1).collect();
        crate::stats::median(&loops) / REFERENCE_MS
    }

    /// The median slowdown over the whole trace.
    pub fn median_slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let loops: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        crate::stats::median(&loops) / REFERENCE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_of_the_nearest_samples() {
        let mut trace = SpeedTrace::default();
        for i in 0..20 {
            // Quiet for the first second, twice as slow after it.
            let loop_ms = if i < 10 { REFERENCE_MS } else { 2.0 * REFERENCE_MS };
            trace.push(f64::from(i) * 100.0, loop_ms);
        }
        assert_eq!(trace.slowdown_at(200.0), 1.0);
        assert_eq!(trace.slowdown_at(1_700.0), 2.0);
        // One outlier among the nearest five does not move the median.
        trace.push(250.0, 10.0 * REFERENCE_MS);
        assert_eq!(trace.slowdown_at(250.0), 1.0);
        assert_eq!(SpeedTrace::default().slowdown_at(5.0), 1.0);
        assert_eq!(trace.median_slowdown(), 2.0);
    }
}
