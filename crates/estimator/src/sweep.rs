//! Parameter-series construction and the sweep runner.

use std::convert::Infallible;

use lzfpga_core::config::CLOCK_HZ;
use lzfpga_core::pipeline::compress_to_zlib;
use lzfpga_core::stats::{HwState, NUM_STATES};
use lzfpga_core::HwConfig;
use lzfpga_lzss::params::CompressionLevel;
use lzfpga_parallel::exec::ordered_map;

/// One parameter set to evaluate, with a display label.
#[derive(Debug, Clone)]
pub struct EstimatePoint {
    /// Label shown in reports (e.g. `"4K/15b/min"`).
    pub label: String,
    /// The hardware configuration.
    pub config: HwConfig,
}

impl EstimatePoint {
    /// Point with an auto-generated label.
    pub fn new(config: HwConfig) -> Self {
        let level = match config.level {
            CompressionLevel::Min => "min",
            CompressionLevel::Medium => "med",
            CompressionLevel::Max => "max",
        };
        Self {
            label: format!("{}K/{}b/{}", config.window_size / 1024, config.hash_bits, level),
            config,
        }
    }
}

/// Metrics from evaluating one point.
#[derive(Debug, Clone)]
pub struct EstimateResult {
    /// The evaluated point.
    pub label: String,
    /// The configuration evaluated.
    pub config: HwConfig,
    /// Input size in bytes.
    pub input_bytes: u64,
    /// Compressed output size in bytes (zlib-framed).
    pub compressed_bytes: u64,
    /// Compression ratio (input/output).
    pub ratio: f64,
    /// Total clock cycles.
    pub cycles: u64,
    /// Average cycles per input byte.
    pub cycles_per_byte: f64,
    /// Throughput at the 100 MHz design clock, in MB/s.
    pub mb_per_s: f64,
    /// Block RAM usage in RAMB36-equivalents.
    pub bram36_equiv: f64,
    /// Estimated LUTs.
    pub luts: u32,
    /// Per-state share of total cycles, indexed by `HwState` discriminant.
    pub state_shares: [f64; NUM_STATES],
}

impl EstimateResult {
    /// Share of cycles spent in `state`.
    pub fn share(&self, state: HwState) -> f64 {
        self.state_shares[state as usize]
    }
}

/// Evaluate one point on `data`.
pub fn evaluate(data: &[u8], point: &EstimatePoint) -> EstimateResult {
    let rep = compress_to_zlib(data, &point.config);
    let mut state_shares = [0.0; NUM_STATES];
    for (i, share) in state_shares.iter_mut().enumerate() {
        *share = rep.run.stats.rows()[i].2;
    }
    EstimateResult {
        label: point.label.clone(),
        config: point.config,
        input_bytes: rep.run.input_bytes,
        compressed_bytes: rep.compressed.len() as u64,
        ratio: rep.ratio(),
        cycles: rep.run.cycles,
        cycles_per_byte: rep.run.cycles_per_byte(),
        mb_per_s: rep.run.mb_per_s(CLOCK_HZ),
        bram36_equiv: rep.resources.bram.ramb36_equiv(),
        luts: rep.resources.luts,
        state_shares,
    }
}

/// Run all points over `data` on up to `threads` OS threads (0 runs
/// serially); results keep input order.
pub fn run_sweep(data: &[u8], points: &[EstimatePoint], threads: usize) -> Vec<EstimateResult> {
    // Workers claim points one at a time: configurations differ wildly in
    // cost, so static chunking would leave cores idle.
    let mut results = Vec::with_capacity(points.len());
    let (_, outcome) = ordered_map(
        points,
        threads.max(1),
        |_| (),
        |_, _, p| Ok::<_, Infallible>(evaluate(data, p)),
        |_, r| results.push(r),
    );
    let Ok(()) = outcome;
    results
}

/// Series builder: the Fig. 2/3 grid — every (dictionary, hash) pair.
pub fn grid_points(dicts: &[u32], hashes: &[u32], level: CompressionLevel) -> Vec<EstimatePoint> {
    let mut points = Vec::new();
    for &h in hashes {
        for &d in dicts {
            points.push(EstimatePoint::new(HwConfig::new(d, h).with_level(level)));
        }
    }
    points
}

/// Series builder: the Fig. 4 level study — min/max level at given hashes.
pub fn level_points(dicts: &[u32], hashes: &[u32]) -> Vec<EstimatePoint> {
    let mut points = Vec::new();
    for &level in &[CompressionLevel::Min, CompressionLevel::Max] {
        for &h in hashes {
            for &d in dicts {
                points.push(EstimatePoint::new(HwConfig::new(d, h).with_level(level)));
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        lzfpga_workloads::wiki::generate(9, 200_000)
    }

    #[test]
    fn evaluate_produces_consistent_metrics() {
        let data = sample();
        let r = evaluate(&data, &EstimatePoint::new(HwConfig::paper_fast()));
        assert_eq!(r.input_bytes, data.len() as u64);
        assert!(r.ratio > 1.0);
        assert!((r.mb_per_s - 100.0 / r.cycles_per_byte).abs() < 0.5);
        let share_sum: f64 = r.state_shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
    }

    #[test]
    fn labels_are_descriptive() {
        let p = EstimatePoint::new(HwConfig::new(8_192, 13));
        assert_eq!(p.label, "8K/13b/min");
    }

    #[test]
    fn grid_points_cover_the_cross_product() {
        let pts = grid_points(&[1_024, 4_096], &[9, 15], CompressionLevel::Min);
        assert_eq!(pts.len(), 4);
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let data = sample();
        let pts = grid_points(&[2_048, 4_096], &[11, 13], CompressionLevel::Min);
        let serial = run_sweep(&data, &pts, 1);
        let parallel = run_sweep(&data, &pts, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.cycles, b.cycles, "{}", a.label);
            assert_eq!(a.compressed_bytes, b.compressed_bytes);
        }
    }

    #[test]
    fn bigger_dictionary_improves_ratio() {
        let data = sample();
        let pts = grid_points(&[1_024, 16_384], &[15], CompressionLevel::Min);
        let res = run_sweep(&data, &pts, 2);
        assert!(res[1].ratio > res[0].ratio, "16K {} !> 1K {}", res[1].ratio, res[0].ratio);
    }
}
