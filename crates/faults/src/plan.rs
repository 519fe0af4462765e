//! Failpoints: named fault-injection sites with a zero-cost disabled form.
//!
//! Hot paths take a `&F where F: Failpoints` the same way the turbo match
//! loop takes a `MatchProbe`: with the default [`NoFaults`] every
//! [`Failpoints::check`] call inlines to `false` and the compiled code is
//! identical to a build without failpoints. A [`FailPlan`] replaces it in
//! tests and drills, triggering by **site name + hit count** (optionally
//! thinned by a seeded PRNG) with one of four actions: inject a typed
//! error, inject a panic, inject a delay, or abort the whole process
//! (the crash-durability drill's `kill -9` stand-in, armed across process
//! boundaries via [`CRASH_SITE_ENV`]/[`CRASH_HIT_ENV`]).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// What a triggered failpoint does to the code that hit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The site reports a typed error (each integration maps it to its own
    /// error enum, e.g. `DecompError::Injected`).
    Error,
    /// The site panics (`panic!("injected panic at …")`), exercising
    /// catch-unwind isolation.
    Panic,
    /// The site sleeps for the given duration, exercising timeout and
    /// pipeline-stall behaviour.
    Delay(Duration),
    /// The site aborts the whole process (`std::process::abort`),
    /// simulating a `kill -9` at an exact point in the write path. Used by
    /// the crash-durability drill; armed in subprocesses via
    /// [`CRASH_SITE_ENV`]/[`CRASH_HIT_ENV`].
    Crash,
}

/// Environment variable naming the failpoint site at which an armed
/// subprocess must abort (see [`FailPlan::from_env`]).
pub const CRASH_SITE_ENV: &str = "LZFPGA_CRASH_SITE";

/// Environment variable giving the 1-based hit count at which the armed
/// crash site fires (default `1`; see [`FailPlan::from_env`]).
pub const CRASH_HIT_ENV: &str = "LZFPGA_CRASH_HIT";

/// A typed error injected by a failpoint, carrying the site that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failpoint site name.
    pub site: &'static str,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at failpoint '{}'", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// One fault that actually fired (for [`FailureReport`] cross-checks).
///
/// [`FailureReport`]: crate::report::FailureReport
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Site name that fired.
    pub site: String,
    /// 1-based hit count at which it fired.
    pub hit: u64,
    /// The action injected.
    pub action: FaultAction,
}

/// The failpoint interface hot paths are generic over.
///
/// Implementations must be shareable across worker threads (`Sync`); the
/// disabled form is a ZST and the enabled form serializes through a mutex
/// (failpoints are a test-time tool — the enabled path is allowed to cost).
pub trait Failpoints: Sync {
    /// Evaluate the failpoint named `site`, returning the action to inject
    /// (if any). [`NoFaults`] returns `None` unconditionally and inlines
    /// away.
    fn fire(&self, site: &str) -> Option<FaultAction>;

    /// Evaluate `site` and *perform* panic/delay actions in place.
    ///
    /// Returns `true` when the caller should inject its typed error,
    /// `false` to proceed normally.
    ///
    /// # Panics
    /// Panics when the plan injects [`FaultAction::Panic`] at this site —
    /// that is the point. [`FaultAction::Crash`] goes further and aborts
    /// the whole process without unwinding, exactly like `kill -9`.
    #[inline]
    fn check(&self, site: &str) -> bool {
        match self.fire(site) {
            None => false,
            Some(FaultAction::Error) => true,
            Some(FaultAction::Panic) => panic!("injected panic at failpoint '{site}'"),
            Some(FaultAction::Delay(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(FaultAction::Crash) => {
                // Flush nothing, unwind nothing: the drill wants the exact
                // on-disk state at this instruction, as a power cut or
                // SIGKILL would leave it.
                eprintln!("injected crash at failpoint '{site}'");
                std::process::abort();
            }
        }
    }

    /// Take the log of faults fired so far (empty for [`NoFaults`]).
    fn drain_events(&self) -> Vec<FaultEvent> {
        Vec::new()
    }
}

/// The disabled failpoint set: nothing ever fires.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl Failpoints for NoFaults {
    #[inline]
    fn fire(&self, _site: &str) -> Option<FaultAction> {
        None
    }
}

/// One injection rule inside a [`FailPlan`].
///
/// Triggers when its site's 1-based hit counter lands in
/// `[first_hit, first_hit + times)`, optionally thinned to a per-mille
/// chance drawn from the plan's seeded PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailRule {
    site: String,
    first_hit: u64,
    times: u64,
    chance_permille: u16,
    action: FaultAction,
}

impl FailRule {
    /// A rule for `site`: fires on the first hit, once, deterministically,
    /// injecting a typed error. Refine with the builder methods.
    pub fn new(site: &str) -> Self {
        Self {
            site: site.to_string(),
            first_hit: 1,
            times: 1,
            chance_permille: 0,
            action: FaultAction::Error,
        }
    }

    /// First 1-based hit count at which the rule triggers.
    #[must_use]
    pub fn on_hit(mut self, hit: u64) -> Self {
        self.first_hit = hit.max(1);
        self
    }

    /// Trigger on `n` consecutive hits starting at the configured hit.
    #[must_use]
    pub fn times(mut self, n: u64) -> Self {
        self.times = n.max(1);
        self
    }

    /// Thin triggering to `permille`/1000 probability (seeded PRNG draw
    /// per eligible hit; 0 = always fire).
    #[must_use]
    pub fn chance_permille(mut self, permille: u16) -> Self {
        self.chance_permille = permille.min(1000);
        self
    }

    /// Inject a typed error (the default action).
    #[must_use]
    pub fn errors(mut self) -> Self {
        self.action = FaultAction::Error;
        self
    }

    /// Inject a panic.
    #[must_use]
    pub fn panics(mut self) -> Self {
        self.action = FaultAction::Panic;
        self
    }

    /// Inject a sleep of `ms` milliseconds.
    #[must_use]
    pub fn delays_ms(mut self, ms: u64) -> Self {
        self.action = FaultAction::Delay(Duration::from_millis(ms));
        self
    }

    /// Abort the process (`std::process::abort`) when the rule fires.
    #[must_use]
    pub fn crashes(mut self) -> Self {
        self.action = FaultAction::Crash;
        self
    }
}

/// Mutable plan state behind one lock: per-site hit counters, the PRNG,
/// and the log of fired faults.
#[derive(Debug)]
struct PlanState {
    hits: BTreeMap<String, u64>,
    rng: u64,
    fired: Vec<FaultEvent>,
}

/// A seeded set of [`FailRule`]s evaluated at every failpoint.
///
/// Deterministic: the same plan against the same execution order fires the
/// same faults. (Across racing worker threads the per-site hit *order* is
/// scheduling-dependent, so multi-threaded tests should trigger by sites
/// that are hit a known number of times per job.)
#[derive(Debug)]
pub struct FailPlan {
    rules: Vec<FailRule>,
    state: Mutex<PlanState>,
}

impl FailPlan {
    /// An empty plan with the given PRNG seed (0 is remapped to a fixed
    /// non-zero constant — xorshift has no zero state).
    pub fn new(seed: u64) -> Self {
        let rng = if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed };
        Self {
            rules: Vec::new(),
            state: Mutex::new(PlanState { hits: BTreeMap::new(), rng, fired: Vec::new() }),
        }
    }

    /// Add a rule (builder style).
    #[must_use]
    pub fn rule(mut self, rule: FailRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Total faults fired so far.
    pub fn fired_count(&self) -> usize {
        self.state.lock().expect("fail plan lock").fired.len()
    }

    /// A plan with exactly one crash rule: abort the process the `hit`-th
    /// time `site` is evaluated (1-based; 0 is clamped to 1).
    pub fn crash_at(site: &str, hit: u64) -> Self {
        Self::new(0).rule(FailRule::new(site).on_hit(hit.max(1)).crashes())
    }

    /// Build a crash plan from the environment, the arming mechanism for
    /// real subprocesses: [`CRASH_SITE_ENV`] names the site, optional
    /// [`CRASH_HIT_ENV`] the 1-based hit count (default 1, non-numeric
    /// values fall back to 1). Returns `None` when no site is armed, so an
    /// unarmed process pays nothing.
    pub fn from_env() -> Option<Self> {
        let site = std::env::var(CRASH_SITE_ENV).ok()?;
        let hit = std::env::var(CRASH_HIT_ENV).ok();
        Some(Self::from_env_values(&site, hit.as_deref()))
    }

    fn from_env_values(site: &str, hit: Option<&str>) -> Self {
        let hit = hit.and_then(|h| h.trim().parse::<u64>().ok()).unwrap_or(1);
        Self::crash_at(site, hit)
    }
}

impl Failpoints for FailPlan {
    fn fire(&self, site: &str) -> Option<FaultAction> {
        let mut st = self.state.lock().expect("fail plan lock");
        let counter = st.hits.entry(site.to_string()).or_insert(0);
        *counter += 1;
        let hit = *counter;
        for rule in &self.rules {
            if rule.site != site || hit < rule.first_hit || hit - rule.first_hit >= rule.times {
                continue;
            }
            if rule.chance_permille > 0 {
                // xorshift64 draw; deterministic given the seed and the
                // global evaluation order.
                let mut x = st.rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                st.rng = x;
                if (x % 1000) >= u64::from(rule.chance_permille) {
                    continue;
                }
            }
            let action = rule.action;
            st.fired.push(FaultEvent { site: site.to_string(), hit, action });
            return Some(action);
        }
        None
    }

    fn drain_events(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.state.lock().expect("fail plan lock").fired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_fires() {
        assert_eq!(NoFaults.fire("anything"), None);
        assert!(!NoFaults.check("anything"));
        assert!(NoFaults.drain_events().is_empty());
    }

    #[test]
    fn plan_triggers_on_site_and_hit_count() {
        let plan = FailPlan::new(1).rule(FailRule::new("a.b").on_hit(3));
        assert_eq!(plan.fire("a.b"), None);
        assert_eq!(plan.fire("other"), None);
        assert_eq!(plan.fire("a.b"), None);
        assert_eq!(plan.fire("a.b"), Some(FaultAction::Error));
        assert_eq!(plan.fire("a.b"), None, "fires once by default");
        let events = plan.drain_events();
        assert_eq!(
            events,
            vec![FaultEvent { site: "a.b".into(), hit: 3, action: FaultAction::Error }]
        );
        assert!(plan.drain_events().is_empty(), "drain empties the log");
    }

    #[test]
    fn times_widens_the_trigger_window() {
        let plan = FailPlan::new(1).rule(FailRule::new("s").on_hit(2).times(2).panics());
        assert_eq!(plan.fire("s"), None);
        assert_eq!(plan.fire("s"), Some(FaultAction::Panic));
        assert_eq!(plan.fire("s"), Some(FaultAction::Panic));
        assert_eq!(plan.fire("s"), None);
        assert_eq!(plan.fired_count(), 2);
    }

    #[test]
    fn check_performs_panic() {
        let plan = FailPlan::new(1).rule(FailRule::new("boom").panics());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.check("boom")))
            .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("injected panic at failpoint 'boom'"));
    }

    #[test]
    fn chance_rules_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<u64> {
            let plan = FailPlan::new(seed)
                .rule(FailRule::new("p").on_hit(1).times(1_000).chance_permille(250));
            (0..1_000).filter_map(|i| plan.fire("p").map(|_| i)).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same firings");
        assert_ne!(a, c, "different seed, different firings");
        // ~25 % of 1000 hits, with generous slack.
        assert!(a.len() > 150 && a.len() < 350, "fired {} of 1000", a.len());
    }

    #[test]
    fn crash_plan_arms_the_right_site_and_hit() {
        // Only `fire` here, never `check`: performing a Crash aborts the
        // test runner. The subprocess drill (`crashstorm`) covers that.
        let plan = FailPlan::crash_at("server.result.ready", 3);
        assert_eq!(plan.fire("server.result.ready"), None);
        assert_eq!(plan.fire("server.journal.append"), None, "other sites stay inert");
        assert_eq!(plan.fire("server.result.ready"), None);
        assert_eq!(plan.fire("server.result.ready"), Some(FaultAction::Crash));
        assert_eq!(plan.fire("server.result.ready"), None, "fires once");
    }

    #[test]
    fn env_values_parse_with_defaults() {
        let fire_hit = |plan: FailPlan| -> u64 {
            (1..=10).find(|_| plan.fire("s").is_some()).expect("armed rule fires within 10 hits")
        };
        assert_eq!(fire_hit(FailPlan::from_env_values("s", None)), 1);
        assert_eq!(fire_hit(FailPlan::from_env_values("s", Some("4"))), 4);
        assert_eq!(fire_hit(FailPlan::from_env_values("s", Some(" 2 "))), 2);
        assert_eq!(fire_hit(FailPlan::from_env_values("s", Some("junk"))), 1);
        assert_eq!(fire_hit(FailPlan::from_env_values("s", Some("0"))), 1, "0 clamps to 1");
    }

    #[test]
    fn delay_returns_false_after_sleeping() {
        let plan = FailPlan::new(7).rule(FailRule::new("slow").delays_ms(1));
        let t0 = std::time::Instant::now();
        assert!(!plan.check("slow"));
        assert!(t0.elapsed() >= Duration::from_millis(1));
    }
}
