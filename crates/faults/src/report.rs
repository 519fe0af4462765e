//! Per-job failure accounting: what failed, what was retried, what
//! degraded, and which injected faults actually fired.

use crate::plan::{FaultAction, FaultEvent};
use lzfpga_telemetry::json::{obj, JsonValue};

/// Outcome ledger of one fault-tolerant job (e.g. a `compress_parallel`
/// run): every recovery action the pipeline took, plus the injected faults
/// that caused them, so tests can assert the report records *exactly* the
/// faults that were planned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureReport {
    /// Total per-chunk compression attempts (≥ chunk count; each retry and
    /// degraded run adds one).
    pub attempts: u64,
    /// Chunks that were retried once on the same engine after a failure.
    pub retries: u64,
    /// Chunk indices that fell back to a fresh engine after the retry
    /// also failed (sorted).
    pub degraded_chunks: Vec<usize>,
    /// Chunk indices that failed even the fresh engine (sorted; the
    /// job reports a typed error when this is non-empty).
    pub failed_chunks: Vec<usize>,
    /// Worker panics caught and recovered from (each one is a logical
    /// worker restart).
    pub worker_restarts: u64,
    /// Typed errors injected by failpoints and absorbed by the ladder.
    pub injected_errors: u64,
    /// The faults the active [`FailPlan`](crate::plan::FailPlan) fired
    /// during the job (empty under `NoFaults`).
    pub injected: Vec<FaultEvent>,
}

impl FailureReport {
    /// True when nothing failed and nothing was injected.
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.degraded_chunks.is_empty()
            && self.failed_chunks.is_empty()
            && self.worker_restarts == 0
            && self.injected_errors == 0
            && self.injected.is_empty()
    }

    /// Fold another worker's ledger into this one (chunk lists re-sorted).
    pub fn merge(&mut self, other: &FailureReport) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.degraded_chunks.extend_from_slice(&other.degraded_chunks);
        self.degraded_chunks.sort_unstable();
        self.failed_chunks.extend_from_slice(&other.failed_chunks);
        self.failed_chunks.sort_unstable();
        self.worker_restarts += other.worker_restarts;
        self.injected_errors += other.injected_errors;
        self.injected.extend(other.injected.iter().cloned());
    }

    /// JSON form for the telemetry sink (`"faults"` event).
    pub fn to_json(&self) -> JsonValue {
        let action_name = |a: &FaultAction| match a {
            FaultAction::Error => "error",
            FaultAction::Panic => "panic",
            FaultAction::Delay(_) => "delay",
            FaultAction::Crash => "crash",
        };
        obj([
            ("attempts", self.attempts.into()),
            ("retries", self.retries.into()),
            (
                "degraded_chunks",
                JsonValue::Array(self.degraded_chunks.iter().map(|&i| (i as u64).into()).collect()),
            ),
            (
                "failed_chunks",
                JsonValue::Array(self.failed_chunks.iter().map(|&i| (i as u64).into()).collect()),
            ),
            ("worker_restarts", self.worker_restarts.into()),
            ("injected_errors", self.injected_errors.into()),
            (
                "injected",
                JsonValue::Array(
                    self.injected
                        .iter()
                        .map(|e| {
                            obj([
                                ("site", e.site.as_str().into()),
                                ("hit", e.hit.into()),
                                ("action", action_name(&e.action).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("clean", self.is_clean().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean() {
        assert!(FailureReport::default().is_clean());
    }

    #[test]
    fn merge_combines_and_sorts() {
        let mut a = FailureReport {
            attempts: 3,
            degraded_chunks: vec![5],
            worker_restarts: 1,
            ..FailureReport::default()
        };
        let b = FailureReport {
            attempts: 2,
            retries: 1,
            degraded_chunks: vec![2],
            injected_errors: 1,
            ..FailureReport::default()
        };
        a.merge(&b);
        assert_eq!(a.attempts, 5);
        assert_eq!(a.retries, 1);
        assert_eq!(a.degraded_chunks, vec![2, 5]);
        assert_eq!(a.worker_restarts, 1);
        assert_eq!(a.injected_errors, 1);
        assert!(!a.is_clean());
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let rep = FailureReport {
            attempts: 9,
            retries: 1,
            degraded_chunks: vec![3],
            worker_restarts: 2,
            injected: vec![FaultEvent {
                site: "parallel.worker.chunk".into(),
                hit: 4,
                action: FaultAction::Panic,
            }],
            ..FailureReport::default()
        };
        let parsed = lzfpga_telemetry::json::parse(&rep.to_json().render()).unwrap();
        assert_eq!(parsed.get("attempts").unwrap().as_i64(), Some(9));
        assert_eq!(parsed.get("clean").unwrap().as_bool(), Some(false));
        let injected = parsed.get("injected").unwrap().as_array().unwrap();
        assert_eq!(injected.len(), 1);
        assert_eq!(injected[0].get("action").unwrap().as_str(), Some("panic"));
        assert_eq!(injected[0].get("hit").unwrap().as_i64(), Some(4));
    }
}
