//! The crash-site registry: every failpoint the crash drill may arm.
//!
//! Crash sites are contractual in a way ordinary failpoints are not: the
//! `crashstorm` drill arms them by name from outside the process (via
//! [`CRASH_SITE_ENV`]), operators read about them in DESIGN §14, and the
//! recovery state machine promises what each one may lose. This module is
//! the single source of truth; `tests/crash_sites.rs` asserts the DESIGN
//! table, the server code, and this list never drift apart.
//!
//! [`CRASH_SITE_ENV`]: crate::plan::CRASH_SITE_ENV

/// Site name: crash after the session journal record is written and
/// synced (with its input, in the one session file), before the file's
/// directory entry is made durable.
pub const SERVER_JOURNAL_APPEND: &str = "server.journal.append";

/// Site name: crash after a journaled session's result is computed and its
/// journal is durable, before the first result byte is queued. A fresh
/// session crosses it after its token was announced; a resume crosses it
/// after the recompute, before the resumed request is re-announced.
pub const SERVER_RESULT_READY: &str = "server.result.ready";

/// One armable crash site: its name plus the recovery contract the
/// documentation states for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSite {
    /// The failpoint name, as armed via `LZFPGA_CRASH_SITE`.
    pub name: &'static str,
    /// Where in the session write path the site sits.
    pub stage: &'static str,
    /// What a crash at this point may lose (never: acknowledged bytes).
    pub may_lose: &'static str,
}

/// Every crash site the server write path can arm, in write-path order.
pub const CRASH_SITES: &[CrashSite] = &[
    CrashSite {
        name: SERVER_JOURNAL_APPEND,
        stage: "session journal record written and synced",
        may_lose: "the whole session (journal may not survive; client holds no token yet)",
    },
    CrashSite {
        name: SERVER_RESULT_READY,
        stage: "result computed and journal durable, before the first result byte is queued",
        may_lose: "nothing the client holds (resume recomputes from the journaled input); the \
                   whole session if its token was not yet announced",
    },
];

/// Whether `name` is a registered crash site.
pub fn is_crash_site(name: &str) -> bool {
    CRASH_SITES.iter().any(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_lookup_works() {
        for (i, a) in CRASH_SITES.iter().enumerate() {
            assert!(is_crash_site(a.name));
            for b in &CRASH_SITES[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate crash site");
            }
        }
        assert!(!is_crash_site("server.no.such.site"));
    }
}
