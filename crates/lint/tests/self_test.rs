//! Integration self-test: the repository tree must scan clean, and every
//! seeded-violation fixture must fire its rule. Running `cargo test` is
//! therefore also running the linter.

use std::path::{Path, PathBuf};

use turbopool_lint::{load_lock_order, run, scan_file, workspace_root, Config, Rule};

fn ws() -> PathBuf {
    workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn cfg(root: PathBuf) -> Config {
    let order = load_lock_order(&ws().join("crates/lint/lock_order.toml"));
    assert!(
        !order.is_empty(),
        "lock_order.toml missing or empty — L3 would be silently disabled"
    );
    Config::new(root, order)
}

#[test]
fn repository_tree_scans_clean() {
    let findings = run(&cfg(ws()));
    assert!(
        findings.is_empty(),
        "repo tree has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn fixture(name: &str) -> Vec<turbopool_lint::Finding> {
    let root = ws();
    let rel = PathBuf::from("crates/lint/fixtures").join(name);
    let src = std::fs::read_to_string(root.join(&rel)).expect("fixture readable");
    scan_file(&cfg(root), &rel, &src)
}

#[test]
fn wallclock_fixture_fires() {
    let f = fixture("wallclock.rs");
    let hits = f.iter().filter(|f| f.rule == Rule::Wallclock).count();
    // Instant::now, SystemTime (x2 via SystemTime return type + call), sleep.
    assert!(hits >= 3, "expected >=3 wallclock findings, got {f:#?}");
    // The suppressed call must not be reported.
    assert!(
        !f.iter().any(|f| f.line >= 16 && f.line <= 19),
        "suppression marker ignored: {f:#?}"
    );
}

#[test]
fn panic_fixture_fires() {
    let f = fixture("panic.rs");
    let hits = f.iter().filter(|f| f.rule == Rule::Panic).count();
    assert_eq!(hits, 4, "unwrap/expect/panic!/unreachable!: {f:#?}");
}

#[test]
fn io_error_fixture_fires() {
    let f = fixture("io_error.rs");
    let hits = f.iter().filter(|f| f.rule == Rule::IoError).count();
    // unwrap, expect, discard, multi-line discard; the good_* functions
    // and the test module must stay silent.
    assert_eq!(hits, 4, "expected exactly the four seeded findings: {f:#?}");
    let discards = f
        .iter()
        .filter(|f| f.rule == Rule::IoError && f.message.contains("let _ ="))
        .count();
    assert_eq!(discards, 2, "two of the four are discards: {f:#?}");
}

#[test]
fn lock_order_fixture_fires() {
    let f = fixture("lock_order.rs");
    let hits: Vec<_> = f.iter().filter(|f| f.rule == Rule::LockOrder).collect();
    assert_eq!(hits.len(), 1, "exactly the inversion should fire: {f:#?}");
    assert!(hits[0].message.contains("inner"));
    assert!(hits[0].message.contains("data"));
}

#[test]
fn design_match_fixture_fires() {
    let f = fixture("design_match.rs");
    let hits = f.iter().filter(|f| f.rule == Rule::DesignMatch).count();
    assert_eq!(hits, 1, "only the wildcard match should fire: {f:#?}");
}

#[test]
fn unsafe_fixture_fires() {
    let f = fixture("unsafe_audit.rs");
    let hits = f.iter().filter(|f| f.rule == Rule::Unsafe).count();
    assert_eq!(hits, 1, "only the undocumented block should fire: {f:#?}");
}

#[test]
fn thread_spawn_fixture_fires() {
    let f = fixture("thread_spawn.rs");
    let hits = f.iter().filter(|f| f.rule == Rule::ThreadSpawn).count();
    // spawn, scope, Builder; the marker-suppressed call and the test
    // module must stay silent.
    assert_eq!(
        hits, 3,
        "expected exactly the three seeded findings: {f:#?}"
    );
}

#[test]
fn magic_threshold_fixture_fires() {
    let f = fixture("magic_threshold.rs");
    let hits: Vec<_> = f
        .iter()
        .filter(|f| f.rule == Rule::MagicThreshold)
        .collect();
    // bad_depth, bad_latency, bad_reversed, bad_backoff; the named-const,
    // small-literal, unrelated, suppressed, shift, and test-module cases
    // must all stay silent.
    assert_eq!(
        hits.len(),
        4,
        "expected exactly the four seeded findings: {f:#?}"
    );
    assert!(
        hits.iter().all(|h| h.line >= 10 && h.line <= 24),
        "findings outside the seeded bad_* block: {f:#?}"
    );
}

#[test]
fn determinism_fixture_fires() {
    let f = fixture("determinism.rs");
    let hits: Vec<_> = f.iter().filter(|f| f.rule == Rule::Determinism).collect();
    // bad_publish (the PR 3 bug shape: commit publication iterating a
    // HashMap) and bad_keys; the sorted, order-insensitive-sink, BTree,
    // and marker-suppressed cases must all stay silent.
    assert_eq!(
        hits.len(),
        2,
        "expected exactly the two seeded findings: {f:#?}"
    );
    assert!(
        hits.iter()
            .any(|h| h.line == 17 && h.message.contains("published")),
        "the PR 3 shape (for over &self.published) must fire: {f:#?}"
    );
    assert!(
        hits.iter().any(|h| h.message.contains("seen")),
        "the unsorted collect over the HashSet must fire: {f:#?}"
    );
}

#[test]
fn lock_across_io_fixture_fires() {
    let f = fixture("lock_across_io.rs");
    let hits: Vec<_> = f.iter().filter(|f| f.rule == Rule::LockAcrossIo).collect();
    // Only bad(): the guard is live across `sweep`, which reaches
    // `write_disk_sync` two hops away. The scoped, dropped, and
    // marker-suppressed variants must stay silent.
    assert_eq!(hits.len(), 1, "expected exactly the seeded finding: {f:#?}");
    assert!(
        hits[0].message.contains("sweep") && hits[0].message.contains("`g`"),
        "finding must name the io-reaching call and the live guard: {f:#?}"
    );
}

#[test]
fn lock_order_xfn_fixture_fires() {
    let f = fixture("lock_order_xfn.rs");
    let hits: Vec<_> = f.iter().filter(|f| f.rule == Rule::LockOrder).collect();
    // bad_call_under_data (inversion hidden inside a callee) and
    // bad_after_helper (inversion against a guard-returning helper);
    // the correctly-ordered variants must stay silent.
    assert_eq!(
        hits.len(),
        2,
        "expected exactly the two seeded findings: {f:#?}"
    );
    assert!(
        hits.iter().any(|h| h.message.contains("grab_inner")),
        "the cross-function inversion must name the callee: {f:#?}"
    );
    assert!(
        hits.iter().any(|h| h.message.contains("parts")),
        "the helper-guard inversion must name the held class: {f:#?}"
    );
}

#[test]
fn unused_allow_fixture_fires() {
    let f = fixture("unused_allow.rs");
    let unused: Vec<_> = f.iter().filter(|f| f.rule == Rule::UnusedAllow).collect();
    // The stale panic marker fires; the consumed wallclock marker does
    // not — and it must actually suppress the wallclock finding.
    assert_eq!(unused.len(), 1, "expected exactly the stale marker: {f:#?}");
    assert!(
        unused[0].message.contains("panic"),
        "finding must name the stale rule: {f:#?}"
    );
    assert!(
        !f.iter().any(|f| f.rule == Rule::Wallclock),
        "the consumed marker must still suppress its finding: {f:#?}"
    );
}

#[test]
fn allowlists_name_existing_files() {
    let stale = turbopool_lint::stale_allowlist_entries(&ws());
    assert!(
        stale.is_empty(),
        "allowlist entries name files that no longer exist (each would \
         silently allowlist nothing): {stale:?}"
    );
}

#[test]
fn thread_spawn_allows_the_worker_pool() {
    // The real worker pool uses thread::scope; scanning it through its
    // repo-relative path must stay clean (allowlist direction).
    let root = ws();
    let rel = PathBuf::from("crates/workload/src/pool.rs");
    let src = std::fs::read_to_string(root.join(&rel)).expect("pool.rs readable");
    assert!(
        src.contains("thread::scope"),
        "pool.rs no longer spawns threads — update this test and the L7 allowlist"
    );
    let f = scan_file(&cfg(root), &rel, &src);
    assert!(
        !f.iter().any(|f| f.rule == Rule::ThreadSpawn),
        "worker pool must be allowlisted for L7: {f:#?}"
    );
}

#[test]
fn fixtures_dir_is_skipped_when_scanning_repo() {
    // `repository_tree_scans_clean` passing already implies this (the
    // fixtures seed violations), but assert it directly for clarity.
    let findings = run(&cfg(ws()));
    assert!(findings
        .iter()
        .all(|f| !f.file.to_string_lossy().contains("fixtures")));
}
