//! Golden-file harness for the static-analysis engine.
//!
//! Each fixture under `tests/fixtures/` is a Rust source fed through
//! the full lint catalogue with the repo's real `analyze.toml` policy,
//! and its findings are compared — exactly, line by line — against a
//! sibling `.expected` file. A fixture directory (instead of a single
//! `.rs` file) is a multi-file corpus sharing one `expected.txt`,
//! which is how the cross-file atomic-pairing pass is exercised.
//!
//! Fixture directives, in comments at the top of each `.rs` file:
//!
//! - `//@ path: crates/net/src/foo.rs` — the pretend repo-relative
//!   path the fixture is analyzed under (this is what selects which
//!   scopes apply). Required.
//! - `//@ baseline: <lint> <reason…>` — adds a suppression-baseline
//!   entry for this fixture's path, to exercise the baseline machinery
//!   without carrying any entry in the workspace `analyze.toml`.
//!
//! Expected-file lines (empty lines and `#` comments ignored):
//!
//! - `<path>:<line>: <lint>` — an unbaselined finding.
//! - `baselined <path>:<line>: <lint>` — a finding absorbed by a
//!   `//@ baseline:` directive.

use std::path::{Path, PathBuf};
use xtask::config::{BaselineEntry, Config};
use xtask::engine::{analyze_sources, analyze_workspace};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level below the workspace root")
        .to_path_buf()
}

fn policy() -> Config {
    Config::load(&repo_root().join("analyze.toml")).expect("analyze.toml parses")
}

/// Extracts `//@ key: value` directives from a fixture source.
fn directives<'a>(src: &'a str, key: &str) -> Vec<&'a str> {
    let prefix = format!("//@ {key}:");
    src.lines()
        .filter_map(|l| l.trim().strip_prefix(&prefix))
        .map(str::trim)
        .collect()
}

/// Loads one fixture file into `(pretend_path, source)` and appends
/// its `//@ baseline:` directives to `cfg`.
fn load_fixture(path: &Path, cfg: &mut Config) -> (String, String) {
    let src =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let rels = directives(&src, "path");
    assert_eq!(
        rels.len(),
        1,
        "{}: exactly one `//@ path:` directive required",
        path.display()
    );
    let rel = rels[0].to_string();
    for b in directives(&src, "baseline") {
        let (lint, reason) = b
            .split_once(' ')
            .unwrap_or_else(|| panic!("{}: `//@ baseline: <lint> <reason>`", path.display()));
        cfg.baseline.push(BaselineEntry {
            file: rel.clone(),
            lint: lint.to_string(),
            reason: reason.to_string(),
        });
    }
    (rel, src)
}

/// Renders an analysis in the expected-file format, sorted.
fn actual_lines(a: &xtask::engine::Analysis) -> Vec<String> {
    let mut out: Vec<String> = a
        .findings
        .iter()
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.lint))
        .chain(
            a.baselined
                .iter()
                .map(|(f, _)| format!("baselined {}:{}: {}", f.file, f.line, f.lint)),
        )
        .collect();
    out.sort();
    out
}

fn expected_lines(path: &Path) -> Vec<String> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut out: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    out.sort();
    out
}

fn check_corpus(name: &str, sources: Vec<(String, String)>, cfg: &Config, expected: &Path) {
    let analysis = analyze_sources(&sources, cfg);
    assert!(
        analysis.stale_baseline.is_empty(),
        "{name}: stale baseline entries: {:?}",
        analysis.stale_baseline
    );
    let actual = actual_lines(&analysis);
    let expected = expected_lines(expected);
    assert_eq!(
        actual, expected,
        "{name}: findings diverge from the golden file\n  actual:   {actual:#?}\n  \
         expected: {expected:#?}"
    );
}

#[test]
fn golden_fixtures_match_expected_findings() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&fixtures)
        .expect("tests/fixtures exists")
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    let mut corpora = 0;
    for entry in entries {
        let name = entry.file_name().unwrap().to_string_lossy().to_string();
        if entry.is_dir() {
            // Multi-file corpus: every .rs inside, one expected.txt.
            let mut cfg = policy();
            let mut files: Vec<PathBuf> = std::fs::read_dir(&entry)
                .unwrap()
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "rs"))
                .collect();
            files.sort();
            assert!(
                !files.is_empty(),
                "{name}: corpus directory without .rs files"
            );
            let sources = files
                .iter()
                .map(|f| load_fixture(f, &mut cfg))
                .collect::<Vec<_>>();
            check_corpus(&name, sources, &cfg, &entry.join("expected.txt"));
            corpora += 1;
        } else if entry.extension().is_some_and(|x| x == "rs") {
            let mut cfg = policy();
            let source = load_fixture(&entry, &mut cfg);
            check_corpus(&name, vec![source], &cfg, &entry.with_extension("expected"));
            corpora += 1;
        }
    }
    // Every lint's fire and allow path lives somewhere in the corpus;
    // a refactor that silently drops fixtures should fail loudly.
    assert!(
        corpora >= 10,
        "expected at least 10 fixture corpora, found {corpora}"
    );
}

/// The workspace itself is clean under the full catalogue — the same
/// check CI runs via `cargo xtask analyze`, kept as a test so a plain
/// `cargo test -p xtask` catches violations too.
#[test]
fn the_repo_itself_is_clean() {
    let root = repo_root();
    let analysis = analyze_workspace(&root, &policy()).expect("workspace scan succeeds");
    assert!(
        analysis.is_clean(),
        "workspace has {} finding(s) / {} stale baseline entr(ies):\n{}",
        analysis.findings.len(),
        analysis.stale_baseline.len(),
        analysis
            .findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}\n", f.file, f.line, f.lint, f.message))
            .chain(
                analysis
                    .stale_baseline
                    .iter()
                    .map(|s| format!("  stale: {s}\n"))
            )
            .collect::<String>()
    );
}
