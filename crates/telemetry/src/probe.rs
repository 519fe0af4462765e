//! Zero-cost-when-disabled counters for the software match loop.
//!
//! The turbo engine's hot loops are generic over [`MatchProbe`]; with the
//! default [`NoProbe`] every callback monomorphizes to an empty inline
//! function, so the uninstrumented engine compiles to exactly the code it
//! had before telemetry existed — the software analogue of tying the
//! hardware's debug taps to ground. [`TurboCounters`] is the counting
//! implementation behind `--metrics`.

use crate::histogram::Histogram;
use crate::json::{obj, JsonValue};
use crate::registry::MetricsRegistry;

/// Observation points inside the LZSS match loop.
///
/// All methods default to no-ops; implementations override what they need.
/// Callbacks carry enough context to derive the report metrics (bytes per
/// probe, match/literal ratio, chain-walk distribution) without the engine
/// knowing anything about reports.
pub trait MatchProbe {
    /// A position (or short-match byte) was inserted into the hash chain.
    #[inline]
    fn inserted(&mut self) {}

    /// A bulk insert run filed `n` positions at once. The engines report
    /// their 4-wide insert loops through this batched form so the enabled
    /// probe costs one call per run instead of one per position — the same
    /// counts, a fraction of the hot-loop overhead. The default forwards
    /// to `n` [`MatchProbe::inserted`] calls so a probe overriding only
    /// the unit form still sees every event; counting probes override
    /// both.
    #[inline]
    fn inserted_n(&mut self, n: u32) {
        for _ in 0..n {
            self.inserted();
        }
    }

    /// The full match kernel ran and matched `len` bytes.
    #[inline]
    fn kernel_run(&mut self, len: u32) {
        let _ = len;
    }

    /// The chain walk reached candidate `cand` for the match at `pos`, just
    /// before the quick reject. `cand < pos` and `pos + limit <= data.len()`,
    /// so `data[cand..]` and `data[pos..]` can be compared for up to `limit`
    /// bytes. Called once per visited candidate; only a probe that does
    /// per-candidate work overrides it (the software cost model replays the
    /// byte-loop compare count here).
    #[inline]
    fn candidate(&mut self, data: &[u8], cand: usize, pos: usize, limit: u32) {
        let _ = (data, cand, pos, limit);
    }

    /// A chain walk finished after examining `steps` candidates.
    ///
    /// This is also the per-candidate accounting point: the engines count
    /// candidates locally in a register and report the total here, so the
    /// hot loop carries no per-probe callback. Implementations wanting a
    /// probe count accumulate `steps`.
    #[inline]
    fn chain_done(&mut self, steps: u32) {
        let _ = steps;
    }

    /// A literal token was emitted.
    #[inline]
    fn literal(&mut self) {}

    /// A run of `n` literal tokens was emitted. The engines accumulate
    /// literal counts in a register between match boundaries and flush
    /// through this batched form (same counts as `n` single
    /// [`MatchProbe::literal`] calls, one callback per run). The default
    /// forwards to `n` unit calls — see [`MatchProbe::inserted_n`].
    #[inline]
    fn literals_n(&mut self, n: u32) {
        for _ in 0..n {
            self.literal();
        }
    }

    /// A match token of `len` bytes was emitted.
    #[inline]
    fn matched(&mut self, len: u32) {
        let _ = len;
    }
}

/// The disabled probe: every observation point is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl MatchProbe for NoProbe {}

/// Counting probe for the turbo engine: the Figure-5 lens for software.
#[derive(Debug, Clone, Default)]
pub struct TurboCounters {
    /// Hash-chain insertions (head-table writes).
    pub inserts: u64,
    /// Chain candidates examined (quick-reject byte compares).
    pub probes: u64,
    /// Full match-kernel invocations (quick reject passed).
    pub kernel_runs: u64,
    /// Bytes matched across all kernel runs (including non-best candidates).
    pub kernel_bytes: u64,
    /// Literal tokens emitted.
    pub literals: u64,
    /// Match tokens emitted.
    pub matches: u64,
    /// Input bytes covered by match tokens.
    pub match_bytes: u64,
    /// Distribution of chain-walk lengths (candidates examined per search).
    pub chain_hist: Histogram,
    /// Distribution of emitted match lengths.
    pub match_len_hist: Histogram,
}

impl MatchProbe for TurboCounters {
    #[inline]
    fn inserted(&mut self) {
        self.inserts += 1;
    }

    #[inline]
    fn inserted_n(&mut self, n: u32) {
        self.inserts += u64::from(n);
    }

    #[inline]
    fn kernel_run(&mut self, len: u32) {
        self.kernel_runs += 1;
        self.kernel_bytes += u64::from(len);
    }

    #[inline]
    fn chain_done(&mut self, steps: u32) {
        self.probes += u64::from(steps);
        self.chain_hist.record(u64::from(steps));
    }

    #[inline]
    fn literal(&mut self) {
        self.literals += 1;
    }

    #[inline]
    fn literals_n(&mut self, n: u32) {
        self.literals += u64::from(n);
    }

    #[inline]
    fn matched(&mut self, len: u32) {
        self.matches += 1;
        self.match_bytes += u64::from(len);
        self.match_len_hist.record(u64::from(len));
    }
}

impl TurboCounters {
    /// Input bytes accounted for by the emitted tokens; must equal the
    /// input length (the core observability invariant, enforced by tests).
    pub fn covered_bytes(&self) -> u64 {
        self.literals + self.match_bytes
    }

    /// Input bytes advanced per chain probe (∞-free; 0 when no probes).
    pub fn bytes_per_probe(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.covered_bytes() as f64 / self.probes as f64
        }
    }

    /// Match tokens per emitted token (0 when no tokens).
    pub fn match_ratio(&self) -> f64 {
        let tokens = self.literals + self.matches;
        if tokens == 0 {
            0.0
        } else {
            self.matches as f64 / tokens as f64
        }
    }

    /// Fold another engine's counters into this one (used by the parallel
    /// pipeline to aggregate per-worker engines).
    pub fn merge(&mut self, other: &TurboCounters) {
        self.inserts += other.inserts;
        self.probes += other.probes;
        self.kernel_runs += other.kernel_runs;
        self.kernel_bytes += other.kernel_bytes;
        self.literals += other.literals;
        self.matches += other.matches;
        self.match_bytes += other.match_bytes;
        self.chain_hist.merge(&other.chain_hist);
        self.match_len_hist.merge(&other.match_len_hist);
    }

    /// JSON form for the `telemetry.turbo` report section.
    pub fn to_json(&self) -> JsonValue {
        obj([
            ("inserts", self.inserts.into()),
            ("probes", self.probes.into()),
            ("kernel_runs", self.kernel_runs.into()),
            ("kernel_bytes", self.kernel_bytes.into()),
            ("literals", self.literals.into()),
            ("matches", self.matches.into()),
            ("match_bytes", self.match_bytes.into()),
            ("covered_bytes", self.covered_bytes().into()),
            ("bytes_per_probe", self.bytes_per_probe().into()),
            ("match_ratio", self.match_ratio().into()),
            ("chain_len", self.chain_hist.report_json()),
            ("match_len", self.match_len_hist.report_json()),
        ])
    }

    /// Record into `reg`: totals become `turbo_*` counters and the derived
    /// ratios become gauges.
    pub fn record(&self, reg: &MetricsRegistry) {
        reg.counter("turbo_inserts").add(self.inserts);
        reg.counter("turbo_probes").add(self.probes);
        reg.counter("turbo_kernel_runs").add(self.kernel_runs);
        reg.counter("turbo_kernel_bytes").add(self.kernel_bytes);
        reg.counter("turbo_literals").add(self.literals);
        reg.counter("turbo_matches").add(self.matches);
        reg.counter("turbo_match_bytes").add(self.match_bytes);
        reg.gauge("turbo_bytes_per_probe").set(self.bytes_per_probe());
        reg.gauge("turbo_match_ratio").set(self.match_ratio());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_probe_accumulates() {
        let mut c = TurboCounters::default();
        c.inserted();
        c.inserted_n(3);
        c.kernel_run(12);
        c.chain_done(2);
        c.matched(12);
        c.literal();
        assert_eq!(c.inserts, 4);
        assert_eq!(c.probes, 2, "chain_done accumulates the probe count");
        assert_eq!(c.kernel_runs, 1);
        assert_eq!(c.kernel_bytes, 12);
        assert_eq!(c.covered_bytes(), 13);
        assert!((c.bytes_per_probe() - 6.5).abs() < 1e-12);
        assert!((c.match_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(c.chain_hist.count(), 1);
        assert_eq!(c.match_len_hist.sum, 12);
    }

    #[test]
    fn merge_is_componentwise() {
        let mut a = TurboCounters::default();
        a.matched(10);
        let mut b = TurboCounters::default();
        b.literal();
        b.chain_done(1);
        a.merge(&b);
        assert_eq!(a.covered_bytes(), 11);
        assert_eq!(a.probes, 1);
    }

    #[test]
    fn json_section_round_trips() {
        let mut c = TurboCounters::default();
        c.matched(100);
        c.literal();
        c.chain_done(1);
        let parsed = crate::json::parse(&c.to_json().render()).unwrap();
        assert_eq!(parsed.get("covered_bytes").unwrap().as_i64(), Some(101));
        assert_eq!(parsed.get("match_len").unwrap().get("max").unwrap().as_i64(), Some(100));
    }

    #[test]
    fn kernel_runs_accumulate_merge_and_render() {
        let mut c = TurboCounters::default();
        c.kernel_run(4);
        c.kernel_run(20);
        assert_eq!((c.kernel_runs, c.kernel_bytes), (2, 24));

        let mut other = TurboCounters::default();
        other.kernel_run(7);
        other.chain_done(3);
        c.merge(&other);
        assert_eq!((c.kernel_runs, c.kernel_bytes, c.probes), (3, 31, 3));
        assert_eq!(c.chain_hist.count(), 1);

        let parsed = crate::json::parse(&c.to_json().render()).unwrap();
        assert_eq!(parsed.get("kernel_runs").unwrap().as_i64(), Some(3));
        assert_eq!(parsed.get("kernel_bytes").unwrap().as_i64(), Some(31));
        assert_eq!(parsed.get("chain_len").unwrap().get("count").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn turbo_counters_re_home_exactly() {
        let reg = MetricsRegistry::new();
        let c = TurboCounters {
            literals: 10,
            match_bytes: 90,
            matches: 9,
            kernel_runs: 1,
            ..Default::default()
        };
        c.record(&reg);
        c.record(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("turbo_literals"), 20);
        assert_eq!(snap.counter("turbo_match_bytes"), 180);
        assert_eq!(snap.counter("turbo_kernel_runs"), 2);
    }
}
