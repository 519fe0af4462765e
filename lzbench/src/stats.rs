//! Order statistics and open-loop accounting.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this program prints are the
//! ones a reader recomputes from its raw values.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// computes them. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Nearest rank (1-based) of percentile `p` among `n` samples. The small
/// slack keeps `0.9 * 100` from rounding up to rank 91.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// The highest of the usual percentiles that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0].into_iter().find(|&p| percentile_supported(n, p))
}

/// Nearest-rank percentile `p` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let v = sorted(values);
    v[rank(v.len(), p) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Time source for the open-loop generator; tests substitute a fake one.
pub trait Clock {
    /// Time since the schedule's origin.
    fn now(&self) -> Duration;
    /// Block until [`Clock::now`] reaches `t` (no-op when already past).
    fn sleep_until(&self, t: Duration);
}

/// Wall clock anchored at construction.
pub struct WallClock(pub std::time::Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// One open-loop request: when it was due, sent and done.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Position in the arrival schedule.
    pub index: usize,
    /// When the schedule said to send it.
    pub due: Duration,
    /// When a connection actually sent it.
    pub sent: Duration,
    /// When its reply was complete.
    pub done: Duration,
    /// Whether it succeeded.
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time, so a stall is charged to everything
    /// queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// One connection's share of an open loop: take the next due request in
/// schedule order, wait for its due time, run it, record it. Several
/// connections share `next`, so a request waits only while every
/// connection is busy. `idle` runs first whenever the request is not yet
/// due, with the slack left.
pub fn open_loop_worker<C: Clock>(
    clock: &C,
    schedule: &[Duration],
    next: &AtomicUsize,
    mut idle: impl FnMut(Duration),
    mut op: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::new();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(&due) = schedule.get(index) else { return out };
        let now = clock.now();
        if due > now {
            idle(due - now);
        }
        clock.sleep_until(due);
        let sent = clock.now();
        let ok = op(index);
        out.push(Sample { index, due, sent, done: clock.now(), ok });
    }
}

/// What an open loop's samples say about the generator itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorHealth {
    /// 99th-percentile send lag, ms.
    pub lag_p99_ms: f64,
    /// Most requests that were due but not yet taken at any send.
    pub backlog_max: usize,
    /// The backlog grew from the first half of the schedule to the second.
    pub overloaded: bool,
}

/// Judge the generator from samples over `schedule` (any order).
pub fn generator_health(schedule: &[Duration], samples: &[Sample]) -> GeneratorHealth {
    let lags: Vec<f64> = samples.iter().map(|s| ms(s.lag())).collect();
    let mut by_index = samples.to_vec();
    by_index.sort_by_key(|s| s.index);
    // Requests are taken in schedule order, so when request i is sent the
    // ones due by then but not yet taken are those past index i.
    let backlog: Vec<usize> = by_index
        .iter()
        .map(|s| schedule.partition_point(|&d| d <= s.sent).saturating_sub(s.index + 1))
        .collect();
    // Compare sends in the two halves of the schedule's span; sends after
    // the last arrival only drain what is left.
    let end = schedule.last().copied().unwrap_or_default();
    let mean = |first: bool| {
        let b: Vec<usize> = by_index
            .iter()
            .zip(&backlog)
            .filter(|(s, _)| s.sent <= end && (s.sent < end / 2) == first)
            .map(|(_, &b)| b)
            .collect();
        b.iter().sum::<usize>() as f64 / b.len().max(1) as f64
    };
    GeneratorHealth {
        lag_p99_ms: if lags.is_empty() { 0.0 } else { percentile(&lags, 99.0) },
        backlog_max: backlog.iter().copied().max().unwrap_or(0),
        overloaded: mean(false) > 2.0 * mean(true) + 1.0,
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        // Two values extrapolate past the pair: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        assert!(!percentile_supported(99, 90.0));
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(1000, 99.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(500), Some(90.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    /// A clock that only moves when told to: sleeping jumps to the target,
    /// and a request's service time is added by the op itself.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let schedule: Vec<Duration> = (0..5).map(Duration::from_millis).collect();
        let next = AtomicUsize::new(0);
        // Request 0 stalls for 10 ms; the rest are instant.
        let mut slack = Vec::new();
        let samples = open_loop_worker(
            &clock,
            &schedule,
            &next,
            |d| slack.push(d),
            |i| {
                if i == 0 {
                    clock.0.set(clock.0.get() + Duration::from_millis(10));
                }
                true
            },
        );
        let latency: Vec<u64> = samples.iter().map(|s| s.latency().as_millis() as u64).collect();
        assert_eq!(latency, [10, 9, 8, 7, 6], "each queued request pays its wait");
        let lag: Vec<u64> = samples.iter().map(|s| s.lag().as_millis() as u64).collect();
        assert_eq!(lag, [0, 9, 8, 7, 6]);
        assert!(slack.is_empty(), "a request that is already late leaves no idle time");
        let health = generator_health(&schedule, &samples);
        assert_eq!(health.lag_p99_ms, 9.0, "lag p99 reports the stall's wait");
        // When request 1 went out at 10 ms all five were due: 3 behind it.
        assert_eq!(health.backlog_max, 3);
        assert!(!health.overloaded, "the backlog drains in the second half");
    }

    #[test]
    fn a_growing_backlog_marks_the_run_overloaded() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Due every 1 ms, served every 2 ms: the queue grows without bound.
        let schedule: Vec<Duration> = (0..40).map(Duration::from_millis).collect();
        let next = AtomicUsize::new(0);
        let samples = open_loop_worker(
            &clock,
            &schedule,
            &next,
            |_| {},
            |_| {
                clock.0.set(clock.0.get() + Duration::from_millis(2));
                true
            },
        );
        let health = generator_health(&schedule, &samples);
        assert!(health.overloaded);
        assert!(health.backlog_max >= 15);
        assert_eq!(generator_health(&schedule[..0], &[]).backlog_max, 0);
    }
}
