//! `twofd`'s static-analysis engine, driven by `cargo xtask analyze`.
//!
//! Structure (DESIGN.md §17):
//!
//! - [`lex`] — a dependency-free Rust lexer that splits each line into
//!   a blanked *code* view and a *comment* view, so lints run on real
//!   code tokens instead of substring matches.
//! - [`config`] — `analyze.toml`: lint scopes, the unified
//!   justification lookback window, and the suppression baseline.
//! - [`lints`] — the [`lints::Lint`] trait and the nine-rule
//!   catalogue (SAFETY comments, unsafe isolation, wall-clock ban,
//!   atomic-ordering allowlist, hot-path panic freedom, allocation
//!   discipline, blocking-call ban, atomic release/acquire pairing,
//!   dead public surface).
//! - [`engine`] — file collection, per-file context construction,
//!   catalogue execution, baseline partitioning.
//! - [`report`] — `text` / `json` / `sarif` rendering.
//!
//! The library form exists so `xtask/tests/` (the golden-file harness)
//! can drive [`engine::analyze_sources`] directly on fixture corpora.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod lex;
pub mod lints;
pub mod report;
