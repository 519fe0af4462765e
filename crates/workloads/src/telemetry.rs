//! JSON telemetry stand-in — the "modern" variant of the paper's embedded
//! logging workload.
//!
//! Networked embedded systems increasingly emit structured telemetry (MQTT /
//! REST payloads) instead of raw binary frames: highly repetitive key
//! skeletons around slowly varying numeric values. This stresses the
//! compressor differently from CAN logs: long literal-free stretches (the
//! repeated key text matches at short distances) punctuated by incompressible
//! digits, which exercises the hash-update path on long matches.

use lzfpga_sim::rng::XorShift64;

/// Field definitions of the simulated device: name, mean, jitter.
const FIELDS: &[(&str, f64, f64)] = &[
    ("temperature_c", 43.0, 1.5),
    ("vbus_mv", 11_980.0, 35.0),
    ("rpm", 2_400.0, 220.0),
    ("throttle_pct", 37.0, 9.0),
    ("lambda", 0.997, 0.02),
    ("gear", 3.0, 0.8),
    ("oil_pressure_kpa", 410.0, 18.0),
];

/// Generate `len` bytes of newline-delimited JSON telemetry records.
pub fn generate(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = XorShift64::new(seed ^ 0x7E1E_4E7E);
    let mut out = Vec::with_capacity(len + 256);
    let mut ts_us: u64 = 1_600_000_000_000_000 + rng.next_below(1_000_000_000);
    let mut seq: u64 = 0;
    // Slowly drifting state per field.
    let mut state: Vec<f64> = FIELDS.iter().map(|&(_, mean, _)| mean).collect();
    while out.len() < len {
        ts_us += rng.range_u64(9_000, 10_999);
        seq += 1;
        out.extend_from_slice(b"{\"ts\":");
        out.extend_from_slice(ts_us.to_string().as_bytes());
        out.extend_from_slice(b",\"seq\":");
        out.extend_from_slice(seq.to_string().as_bytes());
        out.extend_from_slice(b",\"src\":\"ecu0\"");
        for (i, &(name, mean, jitter)) in FIELDS.iter().enumerate() {
            // First-order low-pass drift toward the mean plus jitter.
            state[i] += (mean - state[i]) * 0.05 + (rng.next_f64() - 0.5) * jitter;
            out.extend_from_slice(b",\"");
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b"\":");
            out.extend_from_slice(format!("{:.2}", state[i]).as_bytes());
        }
        out.extend_from_slice(b"}\n");
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate(5, 10_000), generate(5, 10_000));
        assert_ne!(generate(5, 10_000), generate(6, 10_000));
    }

    #[test]
    fn exact_length() {
        for len in [0usize, 1, 100, 65_537] {
            assert_eq!(generate(1, len).len(), len);
        }
    }

    #[test]
    fn looks_like_json_lines() {
        let data = generate(2, 50_000);
        let text = String::from_utf8(data).expect("telemetry is ASCII");
        let complete_lines = text.lines().filter(|l| l.ends_with('}')).count();
        assert!(complete_lines > 100);
        assert!(text.contains("\"temperature_c\":"));
    }

    #[test]
    fn compresses_much_harder_than_can_logs() {
        // The key skeleton repeats every record: ratio should be well above
        // the CAN corpus at the same settings.
        let data = generate(3, 200_000);
        let params = lzfpga_lzss::LzssParams::paper_fast();
        let tokens = lzfpga_lzss::TurboEngine::new().compress(&data, &params);
        let covered: u64 = tokens
            .iter()
            .map(|t| match *t {
                lzfpga_deflate::Token::Literal(_) => 1u64,
                lzfpga_deflate::Token::Match { len, .. } => u64::from(len),
            })
            .sum();
        assert_eq!(covered, data.len() as u64);
        let match_share = tokens
            .iter()
            .filter(|t| matches!(t, lzfpga_deflate::Token::Match { .. }))
            .map(|t| match *t {
                lzfpga_deflate::Token::Match { len, .. } => u64::from(len),
                _ => 0,
            })
            .sum::<u64>() as f64
            / data.len() as f64;
        assert!(match_share > 0.7, "match share {match_share}");
    }
}
