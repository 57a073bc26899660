//! The lint catalogue: a [`Lint`] trait and the nine rules the engine
//! enforces (DESIGN.md §17 is the narrative version).
//!
//! Every lint runs on the lexed views of [`crate::lex`] — code with
//! literals blanked and comments split out — so none of them can fire
//! on tokens inside string literals or doc comments. Justification
//! markers are searched in **comment text only**, on the site's line or
//! within the one configured lookback window (`lookback` in
//! `analyze.toml`) above it.
//!
//! | lint | scope | allow marker |
//! |------|-------|--------------|
//! | `safety-comment`     | everywhere               | `SAFETY:` |
//! | `unsafe-isolation`   | everywhere               | (scope: `unsafe_allowed`) |
//! | `wall-clock`         | `scopes.wall_clock`      | `xtask:allow(wall_clock)` |
//! | `atomic-ordering`    | src dirs minus exempt    | `ordering:` (Relaxed; SeqCst unappealable) |
//! | `hotpath-panic`      | `scopes.hot_path`        | `hotpath:allow(panic)` |
//! | `hotpath-alloc`      | `scopes.hot_path`        | `hotpath:allow(alloc)` |
//! | `blocking-call`      | `scopes.blocking`        | `hotpath:allow(block)` |
//! | `atomic-pairing`     | src dirs minus exempt    | `xtask:allow(one_sided)` |
//! | `dead-pub`           | the eight library crates | `xtask:allow(dead_pub)` |
//!
//! Lines past the first `#[cfg(test)]` in a file are test code and
//! exempt from everything except `safety-comment` and
//! `unsafe-isolation` (unsoundness is unsoundness, in tests too).
//! `dead-pub` indexes no item there, and a use there counts only when
//! it is in another file.

use crate::config::{in_scope, Config};
use crate::lex::{LineView, Token};
use std::collections::{BTreeMap, BTreeSet};

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable lint name (`Lint::name`).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Everything a lint may look at for one file.
pub struct FileContext {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    /// Per-line code/comment views.
    pub lines: Vec<LineView>,
    /// Token stream of the blanked code.
    pub tokens: Vec<Token>,
    /// Index of the first `#[cfg(test)]` line (== `lines.len()` when
    /// the file has no test module): the production prefix ends here.
    pub production_end: usize,
}

impl FileContext {
    /// Whether 0-based line `idx` is production (pre-`#[cfg(test)]`) code.
    pub fn is_production(&self, idx: usize) -> bool {
        idx < self.production_end
    }

    /// Whether a justification `marker` covers 0-based line `idx`: in
    /// the comment text of the same line, or of any of the `lookback`
    /// lines above it.
    pub fn justified(&self, idx: usize, marker: &str, lookback: usize) -> bool {
        let lo = idx.saturating_sub(lookback);
        self.lines[lo..=idx]
            .iter()
            .any(|l| l.comment.contains(marker))
    }
}

/// A single rule. Per-file rules implement [`Lint::check_file`];
/// cross-file rules (atomic pairing, dead public surface) implement
/// [`Lint::check_workspace`], which runs once with every file context.
pub trait Lint {
    /// Stable name, used in reports, SARIF rule ids and baseline entries.
    fn name(&self) -> &'static str;
    /// One-line description for SARIF rule metadata.
    fn description(&self) -> &'static str;
    /// Per-file pass.
    fn check_file(&self, _ctx: &FileContext, _cfg: &Config, _out: &mut Vec<Finding>) {}
    /// Cross-file pass, called once after all files are lexed.
    fn check_workspace(&self, _files: &[FileContext], _cfg: &Config, _out: &mut Vec<Finding>) {}
}

/// The full catalogue, in reporting order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(SafetyComment),
        Box::new(UnsafeIsolation),
        Box::new(WallClock),
        Box::new(AtomicOrdering),
        Box::new(HotPathPanic),
        Box::new(HotPathAlloc),
        Box::new(BlockingCall),
        Box::new(AtomicPairing),
        Box::new(DeadPub),
    ]
}

/// Whether `haystack` contains `word` with non-identifier characters
/// (or string boundaries) on both sides.
pub fn contains_word(haystack: &str, word: &str) -> bool {
    find_word(haystack, word, 0).is_some()
}

fn find_word(haystack: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = haystack.as_bytes();
    let mut start = from;
    while let Some(pos) = haystack[start..].find(word) {
        let i = start + pos;
        let before_ok = i == 0 || {
            let c = bytes[i - 1];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        let j = i + word.len();
        let after_ok = j >= bytes.len() || {
            let c = bytes[j];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        if before_ok && after_ok {
            return Some(i);
        }
        start = i + 1;
    }
    None
}

/// Whether the code calls macro `name` (word followed by `!`).
fn calls_macro(code: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(i) = find_word(code, name, from) {
        let j = i + name.len();
        if code.as_bytes().get(j) == Some(&b'!') {
            return true;
        }
        from = j;
    }
    false
}

/// Whether the production ordering/pairing lints apply to `rel`:
/// production code under a `src/` directory, minus the configured
/// exemptions (the model checker implements the orderings; benches are
/// measurement harnesses).
fn in_ordering_scope(cfg: &Config, rel: &str) -> bool {
    (rel.starts_with("src/") || rel.contains("/src/"))
        && !cfg
            .ordering_exempt
            .iter()
            .any(|p| rel.starts_with(p.trim_end_matches('/')))
}

// ---------------------------------------------------------------- 1/9

/// Every `unsafe` site carries a `SAFETY:` justification.
pub struct SafetyComment;

impl Lint for SafetyComment {
    fn name(&self) -> &'static str {
        "safety-comment"
    }
    fn description(&self) -> &'static str {
        "every `unsafe` site needs a `// SAFETY:` justification on or above it"
    }
    fn check_file(&self, ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
        for (idx, l) in ctx.lines.iter().enumerate() {
            // `unsafe_code` / `unsafe_op_in_unsafe_fn` never match: the
            // `_` fails the word boundary.
            if contains_word(&l.code, "unsafe") && !ctx.justified(idx, "SAFETY:", cfg.lookback) {
                out.push(Finding {
                    file: ctx.rel.clone(),
                    line: idx + 1,
                    lint: self.name(),
                    message: "`unsafe` without a `// SAFETY:` comment on or above it".into(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- 2/9

/// Crate roots forbid/deny `unsafe_code`; `unsafe` tokens appear only
/// in the configured `unsafe_allowed` files.
pub struct UnsafeIsolation;

fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || ((rel.starts_with("crates/") || rel.starts_with("vendor/") || rel.starts_with("xtask/"))
            && rel.ends_with("/src/lib.rs"))
}

impl Lint for UnsafeIsolation {
    fn name(&self) -> &'static str {
        "unsafe-isolation"
    }
    fn description(&self) -> &'static str {
        "crate roots must forbid/deny unsafe_code; `unsafe` only in designated modules"
    }
    fn check_file(&self, ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
        if is_crate_root(&ctx.rel) {
            let has_attr = ctx.lines.iter().any(|l| {
                l.code.contains("#![forbid(unsafe_code)]")
                    || l.code.contains("#![deny(unsafe_code)]")
            });
            if !has_attr {
                out.push(Finding {
                    file: ctx.rel.clone(),
                    line: 1,
                    lint: self.name(),
                    message: "crate root without `#![forbid(unsafe_code)]` or \
                              `#![deny(unsafe_code)]`"
                        .into(),
                });
            }
        }
        if in_scope(&cfg.unsafe_allowed, &ctx.rel) || cfg.unsafe_allowed.contains(&ctx.rel) {
            return;
        }
        for (idx, l) in ctx.lines.iter().enumerate() {
            if contains_word(&l.code, "unsafe") {
                out.push(Finding {
                    file: ctx.rel.clone(),
                    line: idx + 1,
                    lint: self.name(),
                    message: format!(
                        "`unsafe` outside the designated boundary ({})",
                        cfg.unsafe_allowed.join(", ")
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- 3/9

/// No wall-clock reads in the declared deterministic scopes: hot paths
/// route through the shard clock, the core layer is a pure function of
/// the timestamps it is handed, and the simulators run virtual time.
pub struct WallClock;

impl Lint for WallClock {
    fn name(&self) -> &'static str {
        "wall-clock"
    }
    fn description(&self) -> &'static str {
        "Instant::now()/SystemTime::now() banned in deterministic scopes"
    }
    fn check_file(&self, ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
        if !in_scope(&cfg.wall_clock, &ctx.rel) || in_scope(&cfg.wall_clock_exempt, &ctx.rel) {
            return;
        }
        for (idx, l) in ctx.lines.iter().enumerate() {
            if !ctx.is_production(idx) {
                break;
            }
            if !(l.code.contains("Instant::now()") || l.code.contains("SystemTime::now()")) {
                continue;
            }
            if !ctx.justified(idx, "xtask:allow(wall_clock)", cfg.lookback) {
                out.push(Finding {
                    file: ctx.rel.clone(),
                    line: idx + 1,
                    lint: self.name(),
                    message: "wall-clock read in deterministic production code (route \
                              through the shard clock, or mark \
                              `// xtask:allow(wall_clock)` with a reason)"
                        .into(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- 4/9

/// `Ordering::Relaxed` needs a written `ordering:` justification;
/// `Ordering::SeqCst` is banned outright (the last use — the clock
/// watermark — was demoted to Acquire/Release, model-checked in
/// `crates/check/tests/clock_model.rs`).
pub struct AtomicOrdering;

/// Whether any comment in `lines` carries an `ordering:` marker.
/// `Ordering::` lowercases to `ordering::` — the double colon
/// disqualifies it, so quoting the type in a doc comment is never its
/// own justification.
fn has_ordering_marker(lines: &[LineView]) -> bool {
    lines.iter().any(|l| {
        let low = l.comment.to_ascii_lowercase();
        let mut start = 0;
        while let Some(pos) = low[start..].find("ordering:") {
            let i = start + pos;
            let j = i + "ordering:".len();
            if low.as_bytes().get(j) != Some(&b':') {
                return true;
            }
            start = j;
        }
        false
    })
}

impl Lint for AtomicOrdering {
    fn name(&self) -> &'static str {
        "atomic-ordering"
    }
    fn description(&self) -> &'static str {
        "Relaxed needs an `ordering:` justification; SeqCst is banned"
    }
    fn check_file(&self, ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
        if !in_ordering_scope(cfg, &ctx.rel) {
            return;
        }
        for (idx, l) in ctx.lines.iter().enumerate() {
            if !ctx.is_production(idx) {
                break;
            }
            if l.code.contains("Ordering::SeqCst") {
                out.push(Finding {
                    file: ctx.rel.clone(),
                    line: idx + 1,
                    lint: self.name(),
                    message: "`Ordering::SeqCst` in production code (use Acquire/Release; \
                              the clock-watermark demotion is model-checked in \
                              crates/check/tests/clock_model.rs)"
                        .into(),
                });
            }
            if l.code.contains("Ordering::Relaxed") {
                let lo = idx.saturating_sub(cfg.lookback);
                if !has_ordering_marker(&ctx.lines[lo..=idx]) {
                    out.push(Finding {
                        file: ctx.rel.clone(),
                        line: idx + 1,
                        lint: self.name(),
                        message: format!(
                            "`Ordering::Relaxed` without an `ordering:` justification \
                             comment within the preceding {} lines",
                            cfg.lookback
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------- 5/9

/// Hot-path panic freedom: a hidden panic in the per-heartbeat path
/// turns one malformed input into a dead shard worker and a fleet of
/// false suspicions — the QoS bounds assume the monitor stays up.
pub struct HotPathPanic;

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

impl Lint for HotPathPanic {
    fn name(&self) -> &'static str {
        "hotpath-panic"
    }
    fn description(&self) -> &'static str {
        "unwrap/expect/panic!/todo!/unimplemented!/unreachable! banned in hot-path modules"
    }
    fn check_file(&self, ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
        if !in_scope(&cfg.hot_path, &ctx.rel) {
            return;
        }
        for (idx, l) in ctx.lines.iter().enumerate() {
            if !ctx.is_production(idx) {
                break;
            }
            let what = if contains_word(&l.code, "unwrap") {
                Some("`unwrap`")
            } else if contains_word(&l.code, "expect") {
                Some("`expect`")
            } else {
                PANIC_MACROS
                    .iter()
                    .find(|m| calls_macro(&l.code, m))
                    .map(|m| match *m {
                        "panic" => "`panic!`",
                        "todo" => "`todo!`",
                        "unimplemented" => "`unimplemented!`",
                        _ => "`unreachable!`",
                    })
            };
            if let Some(what) = what {
                if !ctx.justified(idx, "hotpath:allow(panic)", cfg.lookback) {
                    out.push(Finding {
                        file: ctx.rel.clone(),
                        line: idx + 1,
                        lint: self.name(),
                        message: format!(
                            "{what} in a hot-path module: a panic here kills the shard \
                             worker and voids the QoS bounds (make it infallible, or \
                             mark `// hotpath:allow(panic)` with the invariant that \
                             rules it out)"
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------- 6/9

/// Allocation discipline: the per-heartbeat path must not allocate —
/// an allocator call is an unbounded-latency excursion (lock, page
/// fault, madvise) hiding inside a nanosecond budget.
pub struct HotPathAlloc;

const ALLOC_PATHS: &[&str] = &["Box::new", "Vec::new", "String::from"];
const ALLOC_MACROS: &[&str] = &["vec", "format"];

impl Lint for HotPathAlloc {
    fn name(&self) -> &'static str {
        "hotpath-alloc"
    }
    fn description(&self) -> &'static str {
        "Box::new/Vec::new/vec!/format!/String::from/to_vec banned in hot-path modules"
    }
    fn check_file(&self, ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
        if !in_scope(&cfg.hot_path, &ctx.rel) {
            return;
        }
        for (idx, l) in ctx.lines.iter().enumerate() {
            if !ctx.is_production(idx) {
                break;
            }
            let path_hit = ALLOC_PATHS.iter().find(|p| l.code.contains(*p)).copied();
            let hit = path_hit
                .or_else(|| {
                    ALLOC_MACROS
                        .iter()
                        .find(|m| calls_macro(&l.code, m))
                        .map(|m| if *m == "vec" { "vec!" } else { "format!" })
                })
                .or_else(|| contains_word(&l.code, "to_vec").then_some("to_vec"));
            if let Some(what) = hit {
                if !ctx.justified(idx, "hotpath:allow(alloc)", cfg.lookback) {
                    out.push(Finding {
                        file: ctx.rel.clone(),
                        line: idx + 1,
                        lint: self.name(),
                        message: format!(
                            "`{what}` in a hot-path module: allocator calls are \
                             unbounded-latency and banned per-heartbeat (preallocate \
                             at construction, or mark `// hotpath:allow(alloc)` with \
                             why this runs off the heartbeat path)"
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------- 7/9

/// Blocking-call ban in the shard-worker/sweep scope: a sleep or a
/// contended mutex inside the worker loop stretches sweep tail latency
/// directly into late suspicions.
pub struct BlockingCall;

impl Lint for BlockingCall {
    fn name(&self) -> &'static str {
        "blocking-call"
    }
    fn description(&self) -> &'static str {
        "thread::sleep and mutex acquisition banned in shard-worker/sweep scope"
    }
    fn check_file(&self, ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
        if !in_scope(&cfg.blocking, &ctx.rel) {
            return;
        }
        for (idx, l) in ctx.lines.iter().enumerate() {
            if !ctx.is_production(idx) {
                break;
            }
            let what = if l.code.contains("thread::sleep") || l.code.contains("::sleep(") {
                Some("`thread::sleep`")
            } else if l.code.contains(".lock(") {
                Some("mutex acquisition")
            } else {
                None
            };
            if let Some(what) = what {
                if !ctx.justified(idx, "hotpath:allow(block)", cfg.lookback) {
                    out.push(Finding {
                        file: ctx.rel.clone(),
                        line: idx + 1,
                        lint: self.name(),
                        message: format!(
                            "{what} in shard-worker/sweep scope: blocking here adds \
                             directly to sweep tail latency (restructure, or mark \
                             `// hotpath:allow(block)` with the bound on the wait)"
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------- 8/9

/// Cross-file atomic release/acquire pairing: a `Release` store whose
/// field is never `Acquire`-loaded (or vice versa) publishes to — or
/// synchronizes with — nobody. This is the static version of the
/// `Counter` ordering bug the model checker caught dynamically in PR 5.
pub struct AtomicPairing;

/// Atomic method names whose ordering argument we attribute.
const ATOMIC_METHODS: &[&str] = &[
    "store",
    "load",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

#[derive(Default)]
struct PairSides {
    /// `(file, line)` of Release-side uses (store/RMW with Release|AcqRel).
    release: Vec<(usize, usize)>,
    /// `(file, line)` of Acquire-side uses (load/RMW with Acquire|AcqRel).
    acquire: Vec<(usize, usize)>,
}

impl AtomicPairing {
    /// Scans one file's production tokens for `Ordering::{Release,
    /// Acquire, AcqRel}` arguments, attributing each to the atomic
    /// field it orders. `file_idx` indexes into the engine's context
    /// slice.
    fn index_file(ctx: &FileContext, file_idx: usize, sides: &mut BTreeMap<String, PairSides>) {
        let toks = &ctx.tokens;
        for i in 0..toks.len() {
            // Match `Ordering :: <which>` in production code.
            if !(toks[i].is_ident && toks[i].text == "Ordering") {
                continue;
            }
            if toks[i].line > ctx.production_end {
                break;
            }
            let which = match (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3)) {
                (Some(c1), Some(c2), Some(w)) if c1.text == ":" && c2.text == ":" => {
                    match w.text.as_str() {
                        "Release" | "Acquire" | "AcqRel" => w.text.clone(),
                        _ => continue,
                    }
                }
                _ => continue,
            };
            let Some((field, method)) = receiver_of_enclosing_call(toks, i) else {
                continue; // bare `Ordering::X` (helper fn, const): unattributable
            };
            let entry = sides.entry(field).or_default();
            let line = toks[i].line;
            let releases = which == "AcqRel" || (which == "Release" && method != "load");
            let acquires = which == "AcqRel" || (which == "Acquire" && method != "store");
            if releases {
                entry.release.push((file_idx, line));
            }
            if acquires {
                entry.acquire.push((file_idx, line));
            }
        }
    }
}

/// Walks backwards from token `i` (inside a call's argument list) to
/// the call's opening `(`, and extracts `(receiver_field, method)`
/// from the `field . method (` shape before it. Returns `None` when
/// the enclosing context is not an atomic method call.
fn receiver_of_enclosing_call(toks: &[Token], i: usize) -> Option<(String, String)> {
    // Find the unmatched `(` that opens the argument list we are in.
    let mut depth = 0i32;
    let mut j = i;
    let open = loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        match toks[j].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" if depth > 0 => depth -= 1,
            "(" => break j,
            "[" | "{" => return None, // enclosing context is not a call
            _ => {}
        }
    };
    // `<field> . <method> (` — method directly before the paren.
    let method = toks.get(open.checked_sub(1)?)?;
    if !(method.is_ident && ATOMIC_METHODS.contains(&method.text.as_str())) {
        return None;
    }
    let dot = toks.get(open.checked_sub(2)?)?;
    if dot.text != "." {
        return None;
    }
    // Receiver: an ident, or a `]`-closed index (`buckets[i]`).
    let mut k = open.checked_sub(3)?;
    if toks[k].text == "]" {
        let mut d = 1;
        loop {
            k = k.checked_sub(1)?;
            match toks[k].text.as_str() {
                "]" => d += 1,
                "[" => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        k = k.checked_sub(1)?;
    }
    let recv = &toks[k];
    (recv.is_ident).then(|| (recv.text.clone(), method.text.clone()))
}

impl Lint for AtomicPairing {
    fn name(&self) -> &'static str {
        "atomic-pairing"
    }
    fn description(&self) -> &'static str {
        "Release stores and Acquire loads of an atomic field must pair up across the workspace"
    }
    fn check_workspace(&self, files: &[FileContext], cfg: &Config, out: &mut Vec<Finding>) {
        let mut sides: BTreeMap<String, PairSides> = BTreeMap::new();
        for (idx, ctx) in files.iter().enumerate() {
            if in_ordering_scope(cfg, &ctx.rel) {
                Self::index_file(ctx, idx, &mut sides);
            }
        }
        for (field, s) in &sides {
            let orphaned: (&[(usize, usize)], &str, &str) = if s.acquire.is_empty() {
                (&s.release, "Release", "no Acquire/AcqRel load")
            } else if s.release.is_empty() {
                (&s.acquire, "Acquire", "no Release/AcqRel store")
            } else {
                continue;
            };
            let (sites, side, missing) = orphaned;
            for &(file_idx, line) in sites {
                let ctx = &files[file_idx];
                if ctx.justified(line - 1, "xtask:allow(one_sided)", cfg.lookback) {
                    continue;
                }
                out.push(Finding {
                    file: ctx.rel.clone(),
                    line,
                    lint: self.name(),
                    message: format!(
                        "one-sided {side} ordering on atomic `{field}`: {missing} of \
                         `{field}` anywhere in scope, so this ordering synchronizes \
                         with nothing (pair it, demote to Relaxed with an `ordering:` \
                         justification, or mark `// xtask:allow(one_sided)` naming \
                         the pairing site)"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- 9/9

/// Dead public surface: a `pub fn`/`pub const`/`pub static` of a
/// library crate that no other file names. rustc's `dead_code` never
/// fires on a `pub` item of a library, and every module here is
/// `pub mod`, so `unreachable_pub` is silent too.
pub struct DeadPub;

/// The library crates whose `pub` items are indexed.
const LIBRARY_CRATES: &[&str] = &[
    "core",
    "net",
    "obs",
    "service",
    "sim",
    "trace",
    "federation",
    "cluster",
];

fn in_library_src(rel: &str) -> bool {
    LIBRARY_CRATES.iter().any(|c| {
        rel.strip_prefix("crates/")
            .and_then(|r| r.strip_prefix(c))
            .is_some_and(|r| r.starts_with("/src/"))
    })
}

/// Keywords that may stand between `pub` and `fn` (`extern "C"`'s
/// blanked literal tokenizes as two `"`).
const FN_QUALIFIERS: &[&str] = &["const", "async", "unsafe", "extern", "\""];

/// The `pub fn`/`pub const`/`pub static` items in `ctx`'s production
/// code, as token indices of their names. `pub(…)` is not `pub`.
fn pub_items(ctx: &FileContext) -> Vec<usize> {
    let toks = &ctx.tokens;
    let text = |j: usize| toks.get(j).map_or("", |t| t.text.as_str());
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].line > ctx.production_end {
            break;
        }
        if text(i) != "pub" || text(i + 1) == "(" {
            continue;
        }
        let mut j = i + 1;
        while FN_QUALIFIERS.contains(&text(j))
            && (text(j + 1) == "fn" || FN_QUALIFIERS.contains(&text(j + 1)))
        {
            j += 1;
        }
        let name_at = match (text(j), text(j + 1)) {
            ("static", "mut") => j + 2,
            ("fn" | "const" | "static", _) => j + 1,
            _ => continue,
        };
        if toks.get(name_at).is_some_and(|t| t.is_ident) {
            out.push(name_at);
        }
    }
    out
}

/// Whether token `i` is the name in a definition (`fn name`,
/// `const name`, `static name`), which is not a use.
fn is_definition(toks: &[Token], i: usize) -> bool {
    i > 0 && matches!(toks[i - 1].text.as_str(), "fn" | "const" | "static" | "mut")
}

impl Lint for DeadPub {
    fn name(&self) -> &'static str {
        "dead-pub"
    }
    fn description(&self) -> &'static str {
        "a library `pub` fn/const/static must be named in some other file, or not be `pub`"
    }
    fn check_workspace(&self, files: &[FileContext], cfg: &Config, out: &mut Vec<Finding>) {
        // Every identifier in each file's code view, tests included.
        let words: Vec<BTreeSet<&str>> = files
            .iter()
            .map(|f| {
                f.tokens
                    .iter()
                    .filter(|t| t.is_ident)
                    .map(|t| t.text.as_str())
                    .collect()
            })
            .collect();
        for (idx, ctx) in files.iter().enumerate() {
            if !in_library_src(&ctx.rel) {
                continue;
            }
            for name_at in pub_items(ctx) {
                let name = ctx.tokens[name_at].text.as_str();
                let line = ctx.tokens[name_at].line - 1;
                let used_elsewhere = words
                    .iter()
                    .enumerate()
                    .any(|(other, w)| other != idx && w.contains(name));
                if used_elsewhere || ctx.justified(line, "xtask:allow(dead_pub)", cfg.lookback) {
                    continue;
                }
                let used_here = ctx.tokens.iter().enumerate().any(|(i, t)| {
                    t.line <= ctx.production_end && t.text == name && !is_definition(&ctx.tokens, i)
                });
                let message = if used_here {
                    format!("`{name}` is `pub` but named only in this file: drop the `pub`")
                } else {
                    format!(
                        "`{name}` is `pub` but nothing outside this file's tests names it: \
                         delete it (or mark `// xtask:allow(dead_pub)` with why it stays)"
                    )
                };
                out.push(Finding {
                    file: ctx.rel.clone(),
                    line: line + 1,
                    lint: self.name(),
                    message,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex_lines, tokenize};

    pub(crate) fn ctx_for(rel: &str, src: &str) -> FileContext {
        let lines = lex_lines(src);
        let tokens = tokenize(&lines);
        let production_end = lines
            .iter()
            .position(|l| l.code.trim_start().starts_with("#[cfg(test)"))
            .unwrap_or(lines.len());
        FileContext {
            rel: rel.to_string(),
            lines,
            tokens,
            production_end,
        }
    }

    fn test_cfg() -> Config {
        Config {
            lookback: 12,
            wall_clock: vec!["crates/net/src".into(), "crates/core/src".into()],
            wall_clock_exempt: vec!["crates/net/src/clock.rs".into()],
            unsafe_allowed: vec!["crates/net/src/intake.rs".into()],
            hot_path: vec!["crates/core/src/slab.rs".into()],
            blocking: vec!["crates/net/src/shard.rs".into()],
            ordering_exempt: vec!["crates/check".into(), "crates/bench".into()],
            ..Config::default()
        }
    }

    fn run_file(lint: &dyn Lint, rel: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        lint.check_file(&ctx_for(rel, src), &test_cfg(), &mut out);
        out
    }

    fn run_pairing(files: &[(&str, &str)]) -> Vec<Finding> {
        let ctxs: Vec<FileContext> = files.iter().map(|(r, s)| ctx_for(r, s)).collect();
        let mut out = Vec::new();
        AtomicPairing.check_workspace(&ctxs, &test_cfg(), &mut out);
        out
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let got = run_file(
            &SafetyComment,
            "crates/net/src/intake.rs",
            "fn f() {\n    let p = unsafe { std::ptr::null::<u8>() };\n}\n",
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 2);
    }

    #[test]
    fn safety_comment_above_or_inline_passes() {
        for src in [
            "fn f() {\n    // SAFETY: null is valid.\n    let p = unsafe { null() };\n}\n",
            "unsafe { go() } // SAFETY: go has no preconditions.\n",
            "// SAFETY: fd owned.\n#[inline]\n\nunsafe fn close_it(fd: i32) {}\n",
        ] {
            assert!(run_file(&SafetyComment, "crates/net/src/intake.rs", src).is_empty());
        }
    }

    // ISSUE satellite regression: the three documented string-literal /
    // doc-comment false positives, pinned one by one.
    #[test]
    fn unsafe_inside_string_literal_does_not_fire() {
        let src = "fn f() { let s = \"unsafe\"; }\n";
        assert!(run_file(&SafetyComment, "src/lib.rs", src).is_empty());
        assert!(run_file(&UnsafeIsolation, "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn instant_now_inside_string_literal_does_not_fire() {
        let src = "fn f() { let s = \"Instant::now()\"; }\n";
        assert!(run_file(&WallClock, "crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn seqcst_inside_string_or_doc_comment_does_not_fire() {
        let in_str = "fn f() { let s = \"Ordering::SeqCst\"; }\n";
        assert!(run_file(&AtomicOrdering, "crates/core/src/x.rs", in_str).is_empty());
        let in_doc = "/// Quotes `Ordering::SeqCst` in prose.\nfn f() {}\n";
        assert!(run_file(&AtomicOrdering, "crates/core/src/x.rs", in_doc).is_empty());
    }

    #[test]
    fn lint_attributes_are_not_unsafe_sites() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\n#![forbid(unsafe_code)]\n";
        assert!(run_file(&SafetyComment, "src/lib.rs", src).is_empty());
    }

    #[test]
    fn unsafe_outside_the_boundary_is_flagged() {
        let src = "// SAFETY: still not allowed here.\nunsafe impl Send for X {}\n";
        let got = run_file(&UnsafeIsolation, "crates/core/src/slab.rs", src);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("intake.rs"));
    }

    #[test]
    fn crate_root_attr_detection() {
        let got = run_file(&UnsafeIsolation, "crates/net/src/lib.rs", "pub mod x;\n");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 1);
        assert!(run_file(
            &UnsafeIsolation,
            "crates/net/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod x;\n"
        )
        .is_empty());
    }

    #[test]
    fn wall_clock_flagged_without_marker_allowed_with() {
        let bare = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            run_file(&WallClock, "crates/net/src/shard.rs", bare).len(),
            1
        );
        let marked = "// xtask:allow(wall_clock) — metric duration only.\n\
                      fn f() { let t = std::time::Instant::now(); }\n";
        assert!(run_file(&WallClock, "crates/net/src/shard.rs", marked).is_empty());
        // Out of scope / exempt / test code:
        assert!(run_file(&WallClock, "crates/net/src/clock.rs", bare).is_empty());
        assert!(run_file(&WallClock, "crates/bench/src/x.rs", bare).is_empty());
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { Instant::now(); }\n}\n";
        assert!(run_file(&WallClock, "crates/net/src/shard.rs", test_only).is_empty());
    }

    #[test]
    fn relaxed_needs_justification_seqcst_is_banned() {
        let src = "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed);\n}\n";
        assert_eq!(
            run_file(&AtomicOrdering, "crates/core/src/x.rs", src).len(),
            1
        );
        let ok = "fn f(a: &AtomicU64) {\n    // ordering: single-cell stat.\n    \
                  a.load(Ordering::Relaxed);\n}\n";
        assert!(run_file(&AtomicOrdering, "crates/core/src/x.rs", ok).is_empty());
        let seq = "fn f(a: &AtomicU64) {\n    a.load(Ordering::SeqCst);\n}\n";
        assert_eq!(
            run_file(&AtomicOrdering, "crates/core/src/x.rs", seq).len(),
            1
        );
        // A bare use is not its own justification (`ordering::`).
        let bare = "fn f(a: &AtomicU64) {\n    a.load(Ordering::Relaxed);\n    \
                    a.store(1, Ordering::Relaxed);\n}\n";
        assert_eq!(
            run_file(&AtomicOrdering, "crates/core/src/x.rs", bare).len(),
            2
        );
    }

    #[test]
    fn acquire_release_are_free_and_exempt_scopes_skip() {
        let src = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Release);\n    \
                   a.load(Ordering::Acquire);\n    a.fetch_add(1, Ordering::AcqRel);\n}\n";
        assert!(run_file(&AtomicOrdering, "crates/core/src/x.rs", src).is_empty());
        let seq = "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        assert!(run_file(&AtomicOrdering, "crates/check/src/engine.rs", seq).is_empty());
        assert!(run_file(&AtomicOrdering, "crates/bench/src/x.rs", seq).is_empty());
    }

    #[test]
    fn hotpath_panic_fires_on_each_construct() {
        for (frag, what) in [
            ("x.unwrap();", "unwrap"),
            ("x.expect(\"m\");", "expect"),
            ("panic!(\"boom\");", "panic!"),
            ("todo!();", "todo!"),
            ("unimplemented!();", "unimplemented!"),
            ("unreachable!();", "unreachable!"),
        ] {
            let src = format!("fn f() {{ {frag} }}\n");
            let got = run_file(&HotPathPanic, "crates/core/src/slab.rs", &src);
            assert_eq!(got.len(), 1, "{frag}");
            assert!(got[0].message.contains(what), "{frag}: {}", got[0].message);
        }
    }

    #[test]
    fn hotpath_panic_allow_and_scope_and_lookalikes() {
        let ok = "// hotpath:allow(panic) — len < u32::MAX by construction.\n\
                  fn f() { x.unwrap(); }\n";
        assert!(run_file(&HotPathPanic, "crates/core/src/slab.rs", ok).is_empty());
        // Not a hot-path module:
        let src = "fn f() { x.unwrap(); }\n";
        assert!(run_file(&HotPathPanic, "crates/core/src/qos.rs", src).is_empty());
        // `unwrap_or` / `should_panic` / `expected` are not panic sites.
        let lookalike = "fn f() { x.unwrap_or(0); }\n#[should_panic]\nfn g(expected: u32) {}\n";
        assert!(run_file(&HotPathPanic, "crates/core/src/slab.rs", lookalike).is_empty());
    }

    #[test]
    fn hotpath_alloc_fires_and_allows() {
        for frag in [
            "let b = Box::new(1);",
            "let v: Vec<u8> = Vec::new();",
            "let v = vec![1, 2];",
            "let s = format!(\"x{}\", 1);",
            "let s = String::from(\"x\");",
            "let v = s.to_vec();",
        ] {
            let src = format!("fn f() {{ {frag} }}\n");
            assert_eq!(
                run_file(&HotPathAlloc, "crates/core/src/slab.rs", &src).len(),
                1,
                "{frag}"
            );
        }
        let ok = "// hotpath:allow(alloc) — construction path, runs once.\n\
                  fn f() { let v: Vec<u8> = Vec::new(); }\n";
        assert!(run_file(&HotPathAlloc, "crates/core/src/slab.rs", ok).is_empty());
        // `Vec::with_capacity` is the sanctioned preallocation: not flagged.
        let cap = "fn f() { let v: Vec<u8> = Vec::with_capacity(64); }\n";
        assert!(run_file(&HotPathAlloc, "crates/core/src/slab.rs", cap).is_empty());
    }

    #[test]
    fn blocking_call_fires_on_sleep_and_lock() {
        let sleep = "fn f() { thread::sleep(Duration::from_millis(1)); }\n";
        assert_eq!(
            run_file(&BlockingCall, "crates/net/src/shard.rs", sleep).len(),
            1
        );
        let lock = "fn f() { let g = self.set.lock(); }\n";
        assert_eq!(
            run_file(&BlockingCall, "crates/net/src/shard.rs", lock).len(),
            1
        );
        let ok = "// hotpath:allow(block) — uncontended per-shard mutex.\n\
                  fn f() { let g = self.set.lock(); }\n";
        assert!(run_file(&BlockingCall, "crates/net/src/shard.rs", ok).is_empty());
        // `Mutex::new` is construction, not acquisition.
        let new = "fn f() { let m = Mutex::new(0); }\n";
        assert!(run_file(&BlockingCall, "crates/net/src/shard.rs", new).is_empty());
    }

    #[test]
    fn pairing_flags_orphaned_release() {
        let got = run_pairing(&[(
            "crates/net/src/x.rs",
            "fn f(s: &S) { s.ready.store(true, Ordering::Release); }\n",
        )]);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("`ready`"));
        assert!(got[0].message.contains("no Acquire"));
    }

    #[test]
    fn pairing_accepts_cross_file_pairs() {
        let got = run_pairing(&[
            (
                "crates/net/src/a.rs",
                "fn f(s: &S) { s.ready.store(true, Ordering::Release); }\n",
            ),
            (
                "crates/net/src/b.rs",
                "fn g(s: &S) { let _ = s.ready.load(Ordering::Acquire); }\n",
            ),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn pairing_acqrel_rmw_pairs_with_acquire_load() {
        let got = run_pairing(&[(
            "crates/net/src/clock.rs",
            "fn f(s: &S) {\n    s.now.fetch_max(1, Ordering::AcqRel);\n    \
             let _ = s.now.load(Ordering::Acquire);\n}\n",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn pairing_flags_orphaned_acquire_and_allows_with_marker() {
        let bare = "fn f(s: &S) { let _ = s.count.load(Ordering::Acquire); }\n";
        let got = run_pairing(&[("crates/obs/src/m.rs", bare)]);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("no Release"));
        let ok = "fn f(s: &S) {\n    // xtask:allow(one_sided) — paired via helper.\n    \
                  let _ = s.count.load(Ordering::Acquire);\n}\n";
        assert!(run_pairing(&[("crates/obs/src/m.rs", ok)]).is_empty());
    }

    #[test]
    fn pairing_ignores_relaxed_and_unattributable_orderings() {
        // Relaxed-only traffic is rule 4's business, not pairing's.
        let relaxed = "fn f(s: &S) {\n    // ordering: stat cell.\n    \
                       s.hits.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(run_pairing(&[("crates/obs/src/m.rs", relaxed)]).is_empty());
        // A bare `Ordering::Release` in a helper fn attributes to no
        // field and must not invent one.
        let helper = "fn ord() -> Ordering { Ordering::Release }\n";
        assert!(run_pairing(&[("crates/obs/src/m.rs", helper)]).is_empty());
    }

    #[test]
    fn pairing_attributes_multiline_and_indexed_receivers() {
        // Receiver on the line above the ordering (the shard.rs shape).
        let multiline = "fn f(s: &S) {\n    s.obs_applied\n        .fetch_add(1, \
                         Ordering::Release);\n    let _ = s.obs_applied.load(Ordering::Acquire);\n}\n";
        assert!(run_pairing(&[("crates/net/src/s.rs", multiline)]).is_empty());
        // Indexed receiver: buckets[i].fetch_add — field is `buckets`.
        let indexed = "fn f(s: &S, i: usize) {\n    s.buckets[idx(i)].store(1, \
                       Ordering::Release);\n}\n";
        let got = run_pairing(&[("crates/obs/src/m.rs", indexed)]);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("`buckets`"), "{}", got[0].message);
    }

    #[test]
    fn pairing_skips_test_code_and_exempt_scopes() {
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t(s: &S) { s.x.store(1, \
                         Ordering::Release); }\n}\n";
        assert!(run_pairing(&[("crates/net/src/s.rs", test_only)]).is_empty());
        let in_check = "fn f(s: &S) { s.x.store(1, Ordering::Release); }\n";
        assert!(run_pairing(&[("crates/check/src/engine.rs", in_check)]).is_empty());
    }

    fn run_dead_pub(files: &[(&str, &str)]) -> Vec<Finding> {
        let ctxs: Vec<FileContext> = files.iter().map(|(r, s)| ctx_for(r, s)).collect();
        let mut out = Vec::new();
        DeadPub.check_workspace(&ctxs, &test_cfg(), &mut out);
        out
    }

    #[test]
    fn dead_pub_tells_dead_from_file_private() {
        let lib = "pub fn dead() {}\npub fn local() {}\nfn f() { local(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { super::dead(); } }\n";
        let got = run_dead_pub(&[("crates/sim/src/x.rs", lib)]);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got[0].message.contains("delete it"), "{}", got[0].message);
        assert!(
            got[1].message.contains("drop the `pub`"),
            "{}",
            got[1].message
        );
    }

    #[test]
    fn dead_pub_indexes_only_library_production_code() {
        let src = "pub fn lonely() {}\n";
        for rel in ["crates/bench/src/x.rs", "xtask/src/x.rs", "src/lib.rs"] {
            assert!(run_dead_pub(&[(rel, src)]).is_empty(), "{rel}");
        }
        let test_only = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        assert!(run_dead_pub(&[("crates/core/src/x.rs", test_only)]).is_empty());
        // A use in another file's tests is a use.
        let user = "#[cfg(test)]\nmod tests { fn t() { lonely(); } }\n";
        assert!(run_dead_pub(&[("crates/core/src/x.rs", src), ("tests/t.rs", user)]).is_empty());
    }
}
