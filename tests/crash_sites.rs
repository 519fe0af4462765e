//! Drift check for the crash-site registry.
//!
//! The crash sites live in three places that must never disagree: the
//! registry in `lzfpga-faults`, the server write path that checks them,
//! and the DESIGN §14 table operators read before arming one. A site
//! renamed in code but not in the docs (or vice versa) silently breaks
//! the crash drills, so this test fails the build instead.

use lzfpga::faults::CRASH_SITES;

fn repo_file(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn registry_is_nonempty_and_names_are_wellformed() {
    assert!(CRASH_SITES.len() >= 2, "crash-site registry lost entries");
    for site in CRASH_SITES {
        assert!(
            site.name.starts_with("server."),
            "crash site {:?} is not in the server namespace",
            site.name
        );
        assert!(!site.stage.is_empty(), "{} has no stage description", site.name);
        assert!(!site.may_lose.is_empty(), "{} has no loss contract", site.name);
        assert!(
            lzfpga::faults::registry::is_crash_site(site.name),
            "{} not recognised by is_crash_site",
            site.name
        );
    }
}

#[test]
fn every_registered_site_is_checked_in_the_server_write_path() {
    let store = repo_file("crates/server/src/store.rs");
    let server = repo_file("crates/server/src/server.rs");
    for site in CRASH_SITES {
        // The write path references sites via the registry constants, so
        // resolve the constant name the registry itself uses, and the file
        // whose write-path step crosses it.
        let (constant, file, path) = match site.name {
            "server.journal.append" => ("SERVER_JOURNAL_APPEND", &store, "store.rs"),
            "server.result.ready" => ("SERVER_RESULT_READY", &server, "server.rs"),
            other => panic!(
                "crash site {other:?} added to the registry without updating \
                 this drift check — wire it through the server write path and \
                 the DESIGN §14 table first"
            ),
        };
        assert!(
            file.contains(&format!("faults.check({constant})")),
            "{} ({constant}) is registered but never checked in crates/server/src/{path}",
            site.name
        );
    }
}

#[test]
fn design_doc_documents_every_site_and_invents_none() {
    let design = repo_file("DESIGN.md");
    for site in CRASH_SITES {
        assert!(
            design.contains(&format!("`{}`", site.name)),
            "{} is registered but missing from the DESIGN crash-site table",
            site.name
        );
    }
    // The reverse direction: every `server.*` name that looks like a
    // crash site in the docs must exist in the registry. Crash sites are
    // distinguished from ordinary failpoints by the `.durable`/`.append`/
    // `.promote`/`.ready` suffixes the write path reserves for them.
    for line in design.lines() {
        for token in line.split('`') {
            let looks_like_crash_site = token.starts_with("server.")
                && (token.ends_with(".durable")
                    || token.ends_with(".append")
                    || token.ends_with(".promote")
                    || token.ends_with(".ready"));
            if looks_like_crash_site {
                assert!(
                    lzfpga::faults::registry::is_crash_site(token),
                    "DESIGN.md documents crash site {token:?} that the \
                     registry does not know"
                );
            }
        }
    }
}

#[test]
fn readme_runbook_names_the_arming_variables() {
    let readme = repo_file("README.md");
    for var in ["LZFPGA_CRASH_SITE", "LZFPGA_CRASH_HIT"] {
        assert!(readme.contains(var), "README runbook lost the {var} arming variable");
    }
}
