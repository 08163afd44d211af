//! Repo lint: the static companion to the `persist-san` runtime sanitizer.
//!
//! `cargo run -p xtask -- lint` walks every `.rs` file in the repo (vendored
//! shims excluded) through a comment- and string-aware token scanner and
//! enforces three rules:
//!
//! * **safety-comment** — every `unsafe` keyword (block, fn, impl) must have
//!   a `// SAFETY:` comment (or a `# Safety` doc section) within the five
//!   preceding lines.
//! * **raw-write** — raw memory writes that can touch pool memory
//!   (`ptr::write*`, `copy_nonoverlapping`, `write_volatile`) bypass the
//!   sanitizer's tracked write path and are allowed only inside the module
//!   allowlist below.
//! * **flush-no-fence** — a function that issues `clwb`/`clwb_range` but
//!   never reaches an `sfence` (or `sfence_issue`, its split-phase form, or
//!   `persist_range`, which fences) leaves lines parked in the
//!   flushed-unfenced state; legitimate deferrals (the buffered-persistence
//!   drains whose fence is the epoch boundary) must say so. Conversely, a
//!   function that calls `sfence_issue` and neither waits on the ticket nor
//!   returns or stores it has issued a fence nobody awaits.
//! * **ord-justify** — inside the model-checked protocol core
//!   (`crates/montage`, `crates/montage-ds`), every non-SeqCst
//!   `Ordering::{Relaxed, Acquire, Release, AcqRel}` must carry an
//!   `// ord(<rule>): reason` comment within the six preceding lines, naming
//!   the edge it implements. SeqCst needs no tag (it is the
//!   strongest-by-default choice); test modules are skipped.
//! * **atomic-import** — `std::sync::atomic` may not be named outside the
//!   pool/allocator internals, the checker, and the `montage::sync` facade:
//!   protocol atomics must come from `montage::sync` (so the `interleave`
//!   checker can instrument them) and bookkeeping counters from
//!   `montage::sync::uninstrumented` (so the exemption is explicit at the
//!   import site).
//!
//! Any finding can be waived in place with
//! `// lint: allow(<rule>): <reason>` on the flagged line or up to two lines
//! above — but the reason is mandatory; a bare allow is itself a violation,
//! so the audit trail stays complete.
//!
//! `cargo run -p xtask -- census` reuses the scanner for a report — `.rs`
//! lines per crate split at the test module, plain-`pub` items no other file
//! names, and the waivers in effect — that fails when either count has grown
//! past its checked-in ceiling (see [`census`]).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directories never scanned: vendored dependency shims (external API
/// subsets, not our persistence code) and build/VCS output.
const SKIP_DIRS: &[&str] = &["shims", "target", ".git"];

/// Modules allowed to issue raw writes, with the reason on record.
/// Everything else must go through the tracked `PmemPool` write path (or
/// carry a reasoned `lint: allow`).
const RAW_WRITE_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/pmem/src/",
        "the pool implementation IS the tracked write path; its raw copies \
         (crash images, snapshot load) deliberately bypass shadow tracking",
    ),
    (
        "crates/ralloc/src/",
        "allocator metadata initialization precedes any tracked content and \
         is re-validated by the recovery sweep",
    ),
];

/// Modules exempt from the flush-no-fence rule: the flush primitives
/// themselves live here, so `clwb` without a local fence is their job.
const FLUSH_RULE_EXEMPT: &[&str] = &["crates/pmem/src/"];

/// Files the ord-justify rule covers: the lock-free protocol core the
/// `interleave` harnesses model-check. Everything above it (servers, kv
/// engines) keeps its atomics behind `montage::sync::uninstrumented`, and
/// everything below it (pool, allocator) has no cross-thread protocol to
/// justify.
const ORD_JUSTIFY_SCOPE: &[&str] = &["crates/montage/src/", "crates/montage-ds/src/"];

/// The facade itself is exempt from ord-justify: its `Ordering` mentions
/// map orderings between the real and checked worlds — plumbing, not
/// protocol decisions.
const ORD_JUSTIFY_EXEMPT: &[&str] = &["crates/montage/src/sync.rs"];

/// Modules allowed to name `std::sync::atomic` directly, with the reason on
/// record. Everything else routes protocol atomics through `montage::sync`
/// (instrumentable by the `interleave` checker) and bookkeeping counters
/// through `montage::sync::uninstrumented`.
const ATOMIC_IMPORT_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/pmem/src/",
        "the pool sits below the facade; its atomics guard mapping metadata, \
         not the model-checked protocol",
    ),
    (
        "crates/ralloc/src/",
        "the allocator sits below montage in the dependency graph and cannot \
         import the facade without a cycle",
    ),
    (
        "crates/interleave/",
        "the checker implements the instrumented atomics — it wraps std, it \
         cannot route through itself",
    ),
    (
        "crates/montage/src/sync.rs",
        "the facade is the sanctioned wrapper; this is where std atomics are \
         adapted",
    ),
    (
        "crates/baselines/",
        "reference implementations we benchmark against, deliberately not \
         threaded through the facade",
    ),
    (
        "crates/bench/",
        "measurement harness; its counters must never become schedule points",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    SafetyComment,
    RawWrite,
    FlushNoFence,
    OrdJustify,
    AtomicImport,
}

impl Rule {
    fn name(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::RawWrite => "raw-write",
            Rule::FlushNoFence => "flush-no-fence",
            Rule::OrdJustify => "ord-justify",
            Rule::AtomicImport => "atomic-import",
        }
    }
}

#[derive(Debug)]
struct Violation {
    file: String,
    /// 1-based.
    line: usize,
    rule: Rule,
    msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.msg
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("census") => census::run(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint | census>");
            ExitCode::from(2)
        }
    }
}

/// Every `.rs` file under the repo root outside the `skip` directories, as
/// (repo-relative path, source), sorted by path.
fn read_sources(skip: &[&str]) -> Result<Vec<(String, String)>, ExitCode> {
    let root = repo_root();
    let mut files = Vec::new();
    collect_rs_files(&root, &root, skip, &mut files);
    files.sort();
    files
        .into_iter()
        .map(|rel| match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => Ok((rel.to_string_lossy().replace('\\', "/"), src)),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", rel.display());
                Err(ExitCode::FAILURE)
            }
        })
        .collect()
}

fn run_lint() -> ExitCode {
    let files = match read_sources(SKIP_DIRS) {
        Ok(files) => files,
        Err(code) => return code,
    };
    let mut violations = Vec::new();
    for (rel, src) in &files {
        violations.extend(lint_source(rel, src));
    }

    for v in &violations {
        println!("{v}");
    }
    let count = |r: Rule| violations.iter().filter(|v| v.rule == r).count();
    println!(
        "xtask lint: {} file(s), {} violation(s) \
         (safety-comment {}, raw-write {}, flush-no-fence {}, \
         ord-justify {}, atomic-import {})",
        files.len(),
        violations.len(),
        count(Rule::SafetyComment),
        count(Rule::RawWrite),
        count(Rule::FlushNoFence),
        count(Rule::OrdJustify),
        count(Rule::AtomicImport),
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: `xtask` runs from anywhere inside the repo via
/// `CARGO_MANIFEST_DIR` (two levels under the root).
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

fn collect_rs_files(root: &Path, dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if skip.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, skip, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scanner: blank out comments and string/char literals, preserving the line
// structure, so the rule checks below never match inside either.
// ---------------------------------------------------------------------------

fn strip_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;

    // Pushes `c` as-is if it is a newline (line structure!), else a space.
    fn blank(out: &mut String, c: char) {
        out.push(if c == '\n' { '\n' } else { ' ' });
    }

    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nesting per Rust).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1usize;
            out.push_str("  ");
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"..." / r#"..."# / br#"..."#.
        if c == 'r' || (c == 'b' && i + 1 < n && b[i + 1] == 'r') {
            let mut j = i + if c == 'b' { 2 } else { 1 };
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                // Scan to `"` followed by `hashes` hashes.
                'raw: while i < n {
                    if b[i] == '"' {
                        let mut k = 0;
                        while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    blank(&mut out, b[i]);
                    i += 1;
                }
                continue;
            }
        }
        // Plain (byte) string.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            if c == 'b' {
                out.push(' ');
                i += 1;
            }
            out.push(' ');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                blank(&mut out, b[i]);
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: a quote starts a char literal only when
        // it closes as one (`'x'`, `'\n'`, `'\u{1F600}'`).
        if c == '\'' {
            if i + 1 < n && b[i + 1] == '\\' {
                out.push(' ');
                i += 1;
                while i < n && b[i] != '\'' {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                if i < n {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            if i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\'' {
                out.push_str("   ");
                i += 3;
                continue;
            }
            // Lifetime: fall through verbatim.
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Whole-word occurrence of `word` in `line` (identifier-boundary on both
/// sides).
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let ok_before = start == 0 || !is_ident(bytes[start - 1]);
        let ok_after = end >= bytes.len() || !is_ident(bytes[end]);
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

/// `pattern(` preceded by a non-identifier char (so `on_clwb(` does not
/// match `clwb(`).
fn has_call(text: &str, callee: &str) -> bool {
    let needle = format!("{callee}(");
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = text[from..].find(&needle) {
        let start = from + pos;
        if start == 0 || !is_ident(bytes[start - 1]) {
            return true;
        }
        from = start + needle.len();
    }
    false
}

/// Outcome of looking for a `// lint: allow(rule): reason` waiver near
/// `line_idx` (that raw line and up to two above).
enum Waiver {
    None,
    Explained,
    /// An allow without a reason — flagged itself.
    Unexplained(usize),
}

fn waiver(raw_lines: &[&str], line_idx: usize, rule: Rule) -> Waiver {
    let marker = format!("lint: allow({})", rule.name());
    let lo = line_idx.saturating_sub(2);
    for (i, raw) in raw_lines.iter().enumerate().take(line_idx + 1).skip(lo) {
        let Some(pos) = raw.find(&marker) else {
            continue;
        };
        let rest = raw[pos + marker.len()..].trim_start();
        let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            return Waiver::Unexplained(i);
        }
        return Waiver::Explained;
    }
    Waiver::None
}

// ---------------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------------

fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let code = strip_code(src);
    let code_lines: Vec<&str> = code.lines().collect();
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();

    check_safety_comments(rel_path, &code_lines, &raw_lines, &mut out);
    check_raw_writes(rel_path, &code_lines, &raw_lines, &mut out);
    check_flush_fences(rel_path, &code_lines, &raw_lines, &mut out);
    check_ord_justify(rel_path, &code_lines, &raw_lines, &mut out);
    check_atomic_imports(rel_path, &code_lines, &raw_lines, &mut out);
    out
}

fn push_checked(
    out: &mut Vec<Violation>,
    raw_lines: &[&str],
    file: &str,
    line_idx: usize,
    rule: Rule,
    msg: String,
) {
    match waiver(raw_lines, line_idx, rule) {
        Waiver::Explained => {}
        Waiver::None => out.push(Violation {
            file: file.to_string(),
            line: line_idx + 1,
            rule,
            msg,
        }),
        Waiver::Unexplained(i) => out.push(Violation {
            file: file.to_string(),
            line: i + 1,
            rule,
            msg: format!(
                "`lint: allow({})` without a reason — write one after the colon",
                rule.name()
            ),
        }),
    }
}

/// Rule 1: `unsafe` needs a `SAFETY:` comment (or `# Safety` doc section)
/// within the five preceding lines.
fn check_safety_comments(
    file: &str,
    code_lines: &[&str],
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    for (i, line) in code_lines.iter().enumerate() {
        if !has_word(line, "unsafe") {
            continue;
        }
        let lo = i.saturating_sub(5);
        let covered = raw_lines[lo..=i.min(raw_lines.len() - 1)]
            .iter()
            .any(|r| r.contains("SAFETY:") || r.contains("# Safety"));
        if covered {
            continue;
        }
        push_checked(
            out,
            raw_lines,
            file,
            i,
            Rule::SafetyComment,
            "`unsafe` without a `// SAFETY:` comment within the 5 preceding lines".to_string(),
        );
    }
}

/// Rule 2: raw writes that bypass the tracked pool write path.
fn check_raw_writes(file: &str, code_lines: &[&str], raw_lines: &[&str], out: &mut Vec<Violation>) {
    if RAW_WRITE_ALLOWLIST
        .iter()
        .any(|(prefix, _reason)| file.starts_with(prefix))
    {
        return;
    }
    const PATTERNS: &[&str] = &["ptr::write", "copy_nonoverlapping", "write_volatile"];
    for (i, line) in code_lines.iter().enumerate() {
        let Some(pat) = PATTERNS.iter().find(|p| line.contains(*p)) else {
            continue;
        };
        push_checked(
            out,
            raw_lines,
            file,
            i,
            Rule::RawWrite,
            format!(
                "raw write (`{pat}`) outside the allowlisted pool/allocator \
                 internals bypasses tracked persistence"
            ),
        );
    }
}

/// Rule 3: a function body that flushes (`clwb`) but never fences.
fn check_flush_fences(
    file: &str,
    code_lines: &[&str],
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if FLUSH_RULE_EXEMPT.iter().any(|p| file.starts_with(p)) {
        return;
    }
    for func in function_bodies(code_lines) {
        let body = func.body_text(code_lines);
        // The converse: a split-phase fence nobody waits for orders nothing.
        if !has_call(&body, "wait") {
            for i in (func.body_start..=func.body_end)
                .filter(|&i| drops_fence_ticket(code_lines, i, func.body_end))
            {
                push_checked(
                    out,
                    raw_lines,
                    file,
                    i,
                    Rule::FlushNoFence,
                    "sfence_issue's ticket is neither waited on nor returned \
                     or stored; a fence that is never awaited orders nothing"
                        .to_string(),
                );
            }
        }
        let flushes = has_call(&body, "clwb") || has_call(&body, "clwb_range");
        if !flushes {
            continue;
        }
        let fences = has_call(&body, "sfence")
            || has_call(&body, "sfence_issue")
            || has_call(&body, "persist_range")
            || has_call(&body, "flush_era");
        if fences {
            continue;
        }
        // Anchor the finding on the first flushing line; accept a waiver
        // there or at the function head.
        let flush_line = (func.body_start..=func.body_end)
            .find(|&i| has_call(code_lines[i], "clwb") || has_call(code_lines[i], "clwb_range"))
            .unwrap_or(func.fn_line);
        if matches!(
            waiver(raw_lines, func.fn_line, Rule::FlushNoFence),
            Waiver::Explained
        ) {
            continue;
        }
        push_checked(
            out,
            raw_lines,
            file,
            flush_line,
            Rule::FlushNoFence,
            "function issues clwb but never reaches an sfence; if the fence \
             is deferred by design (epoch boundary), say so with \
             `lint: allow(flush-no-fence): <reason>`"
                .to_string(),
        );
    }
}

/// True when line `i` issues a split-phase fence as a statement of its own
/// and its ticket goes nowhere: the value is discarded, or bound to a name
/// no later line of the body mentions. A call inside a larger expression (a
/// struct field, an argument, the tail expression) hands the ticket on.
fn drops_fence_ticket(code_lines: &[&str], i: usize, body_end: usize) -> bool {
    let line = code_lines[i].trim();
    if !has_call(line, "sfence_issue") || !line.ends_with("sfence_issue();") {
        return false;
    }
    if line.starts_with("return ") {
        return false;
    }
    let Some(binding) = line.strip_prefix("let ") else {
        return true;
    };
    let name: String = binding
        .trim_start_matches("mut ")
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    name.starts_with('_')
        || !code_lines[i + 1..=body_end].iter().any(|l| {
            l.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .any(|w| w == name)
        })
}

/// Line index of the file's first `#[cfg(test)]` attribute (in stripped
/// code, so a mention inside a comment or string does not count), or the
/// line count if there is none. By repo convention the test module is the
/// file's tail; the ordering rules stop there — a test's atomics are
/// scaffolding, not protocol edges.
fn cfg_test_tail(code_lines: &[&str]) -> usize {
    code_lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(code_lines.len())
}

/// True when the path has a `tests/`, `benches/`, or `examples/` component —
/// integration scaffolding the in-source ordering rules do not police.
fn is_test_path(file: &str) -> bool {
    file.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Rule 4: a non-SeqCst ordering in the protocol core must say which edge it
/// implements — `// ord(<rule>): reason` on the line or within the six
/// above. SeqCst is exempt: it is the strongest-by-default choice, so only
/// deliberate weakenings carry a justification burden.
fn check_ord_justify(
    file: &str,
    code_lines: &[&str],
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if !ORD_JUSTIFY_SCOPE.iter().any(|p| file.starts_with(p))
        || ORD_JUSTIFY_EXEMPT.iter().any(|p| file.starts_with(p))
        || is_test_path(file)
    {
        return;
    }
    const WEAK: &[&str] = &[
        "Ordering::Relaxed",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
    ];
    let tail = cfg_test_tail(code_lines);
    for (i, line) in code_lines.iter().enumerate().take(tail) {
        let Some(ord) = WEAK.iter().find(|o| has_word(line, o)) else {
            continue;
        };
        let lo = i.saturating_sub(6);
        let justified = raw_lines[lo..=i.min(raw_lines.len() - 1)]
            .iter()
            .any(|r| has_call(r, "ord"));
        if justified {
            continue;
        }
        push_checked(
            out,
            raw_lines,
            file,
            i,
            Rule::OrdJustify,
            format!(
                "`{ord}` on a protocol atomic without an `// ord(<rule>): \
                 reason` comment within the 6 preceding lines"
            ),
        );
    }
}

/// Rule 5: `std::sync::atomic` named outside the allowlist. Any mention
/// counts, not just `use` lines, so an inline
/// `std::sync::atomic::AtomicU64::new(0)` cannot dodge the rule.
fn check_atomic_imports(
    file: &str,
    code_lines: &[&str],
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if ATOMIC_IMPORT_ALLOWLIST
        .iter()
        .any(|(prefix, _reason)| file.starts_with(prefix))
        || is_test_path(file)
    {
        return;
    }
    let tail = cfg_test_tail(code_lines);
    for (i, line) in code_lines.iter().enumerate().take(tail) {
        if !line.contains("std::sync::atomic") {
            continue;
        }
        push_checked(
            out,
            raw_lines,
            file,
            i,
            Rule::AtomicImport,
            "`std::sync::atomic` outside the facade: protocol atomics come \
             from `montage::sync` (checker-instrumentable), bookkeeping \
             counters from `montage::sync::uninstrumented`"
                .to_string(),
        );
    }
}

struct FnSpan {
    /// Line of the `fn` keyword (0-based).
    fn_line: usize,
    /// First and last line of the `{}` body (0-based, inclusive).
    body_start: usize,
    body_end: usize,
}

impl FnSpan {
    fn body_text(&self, code_lines: &[&str]) -> String {
        code_lines[self.body_start..=self.body_end].join("\n")
    }
}

/// Brace-matched `fn` bodies in the stripped source. Trait-method
/// declarations (ending in `;` before any `{`) are skipped. Nested items
/// are reported both on their own and as part of their enclosing function —
/// good enough for a per-function flush/fence check.
fn function_bodies(code_lines: &[&str]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let joined: Vec<(usize, char)> = code_lines
        .iter()
        .enumerate()
        .flat_map(|(i, l)| l.chars().map(move |c| (i, c)).chain([(i, '\n')]))
        .collect();
    let text: String = joined.iter().map(|&(_, c)| c).collect();
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';

    let mut from = 0;
    while let Some(pos) = text[from..].find("fn ") {
        let start = from + pos;
        from = start + 3;
        if start > 0 && is_ident(bytes[start - 1]) {
            continue;
        }
        let fn_line = joined[start].0;
        // Find the body opener, giving up at a `;` (declaration).
        let mut j = start + 3;
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else { continue };
        let mut depth = 0usize;
        let mut close = None;
        for (k, &b) in bytes.iter().enumerate().skip(open) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        spans.push(FnSpan {
            fn_line,
            body_start: joined[open].0,
            body_end: joined[close].0,
        });
    }
    spans
}

// ---------------------------------------------------------------------------
// census: how big each crate is and what nobody calls — the printed list a
// deletion pass starts from, and a ratchet: the two counts below may fall,
// never rise.
// ---------------------------------------------------------------------------

mod census {
    use super::{cfg_test_tail, is_test_path, read_sources, strip_code};
    use std::collections::{BTreeMap, HashMap, HashSet};
    use std::process::ExitCode;

    /// Most `pub` items no other file may name. Every one left is a type a
    /// named `pub fn` takes or returns, a paper-API verb with a test, or a
    /// shim item mirroring its upstream crate. A change that lowers the
    /// count lowers this with it.
    pub(super) const UNNAMED_PUB_CEILING: usize = 14;
    /// Most `// lint: allow(...)` waivers in effect; same rule.
    pub(super) const WAIVER_CEILING: usize = 12;
    /// Most non-test lines under `crates/*/src`; same rule.
    pub(super) const NON_TEST_SRC_CEILING: usize = 19_060;

    #[derive(Debug, Default, PartialEq)]
    pub(super) struct Census {
        /// Crate (or top-level directory) → (non-test lines, test lines).
        pub lines: BTreeMap<String, (usize, usize)>,
        /// (file, name) of each plain-`pub` item declared outside test code
        /// in `crates/*/src` or `shims/*/src` whose name occurs in no other
        /// file. By name, so a candidate list: a common name hides an unused
        /// item, never the reverse.
        pub uncalled: Vec<(String, String)>,
        /// `// lint: allow(...)` comments in effect.
        pub waivers: usize,
    }

    impl Census {
        /// Non-test lines under `crates/*/src`: the `crates/` rows, summed.
        pub(super) fn crates_src_lines(&self) -> usize {
            let crates = self
                .lines
                .iter()
                .filter(|(unit, _)| unit.starts_with("crates/"));
            crates.map(|(_, (non_test, _))| non_test).sum()
        }
    }

    /// The crate a file's lines are booked under.
    fn unit_of(rel: &str) -> String {
        let mut parts = rel.split('/');
        let first = parts.next().unwrap_or_default();
        match (first, parts.next()) {
            ("crates" | "shims", Some(name)) => format!("{first}/{name}"),
            _ => first.to_string(),
        }
    }

    fn identifiers(code: &str) -> impl Iterator<Item = &str> {
        code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
    }

    /// The name a `pub fn|struct|enum|trait|const|static|type|mod` line
    /// declares; `None` for anything else (`pub(crate)`, `pub use`, fields).
    fn pub_item(code_line: &str) -> Option<&str> {
        const KINDS: &[&str] = &[
            "fn", "struct", "enum", "trait", "const", "static", "type", "mod",
        ];
        let mut words = identifiers(code_line.trim_start().strip_prefix("pub ")?).peekable();
        let mut kind = words.next()?;
        while matches!(kind, "unsafe" | "async" | "extern")
            || (kind == "const" && words.peek() == Some(&"fn"))
        {
            kind = words.next()?;
        }
        KINDS.contains(&kind).then(|| words.next()).flatten()
    }

    /// `files` is (repo-relative path, source); `mbench/` counts as callers
    /// but not as lines (it is the frozen benchmark, not the system).
    pub fn take(files: &[(String, String)]) -> Census {
        let mut census = Census::default();
        let mut files_naming: HashMap<&str, usize> = HashMap::new();
        let mut declared: Vec<(&str, &str)> = Vec::new();
        let codes: Vec<String> = files.iter().map(|(_, src)| strip_code(src)).collect();
        for ((rel, src), code) in files.iter().zip(&codes) {
            for word in identifiers(code).collect::<HashSet<_>>() {
                *files_naming.entry(word).or_default() += 1;
            }
            if rel.starts_with("mbench/") {
                continue;
            }
            let code_lines: Vec<&str> = code.lines().collect();
            let total = src.lines().count();
            let non_test = if is_test_path(rel) {
                0
            } else {
                cfg_test_tail(&code_lines)
            };
            let booked = census.lines.entry(unit_of(rel)).or_default();
            booked.0 += non_test;
            booked.1 += total - non_test;
            // Fixture strings and docs that quote a waiver have a quote or a
            // backtick in front of it; a waiver in effect has neither.
            census.waivers += src
                .lines()
                .filter_map(|l| l.split_once("// lint: allow("))
                .filter(|(before, _)| !before.contains(['"', '`']))
                .count();
            let library = (rel.starts_with("crates/") || rel.starts_with("shims/"))
                && rel.split('/').nth(2) == Some("src");
            if library {
                let names = code_lines[..non_test].iter().filter_map(|l| pub_item(l));
                declared.extend(names.map(|name| (rel.as_str(), name)));
            }
        }
        declared.retain(|(_, name)| files_naming[name] == 1);
        declared.sort_unstable();
        declared.dedup();
        census.uncalled = declared
            .into_iter()
            .map(|(rel, name)| (rel.to_string(), name.to_string()))
            .collect();
        census
    }

    /// What the ratchet objects to; empty when every count is within its
    /// ceiling.
    pub(super) fn over_ceiling(census: &Census) -> Vec<String> {
        let counts = [
            ("unnamed pub", census.uncalled.len(), UNNAMED_PUB_CEILING),
            ("lint waivers", census.waivers, WAIVER_CEILING),
            (
                "non-test crates/*/src lines",
                census.crates_src_lines(),
                NON_TEST_SRC_CEILING,
            ),
        ];
        let over = counts.iter().filter(|(_, count, ceiling)| count > ceiling);
        over.map(|(what, count, ceiling)| format!("{what}: {count} > ceiling {ceiling}"))
            .collect()
    }

    pub fn run() -> ExitCode {
        let files = match read_sources(&["target"]) {
            Ok(files) => files,
            Err(code) => return code,
        };
        let census = take(&files);
        println!("{:<22} {:>9} {:>9}", "rust lines", "non-test", "test");
        let mut sum = (0, 0);
        for (unit, (non_test, test)) in &census.lines {
            println!("{unit:<22} {non_test:>9} {test:>9}");
            sum = (sum.0 + non_test, sum.1 + test);
        }
        println!(
            "{:<22} {:>9} {:>9}   = {}",
            "total",
            sum.0,
            sum.1,
            sum.0 + sum.1
        );
        println!(
            "\nnon-test lines under crates/*/src: {}",
            census.crates_src_lines()
        );
        println!("lint waivers in effect: {}", census.waivers);
        println!(
            "\npub items named in no other file ({}):",
            census.uncalled.len()
        );
        let mut by_file: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (rel, name) in &census.uncalled {
            by_file.entry(rel).or_default().push(name);
        }
        for (rel, names) in by_file {
            println!("  {rel}: {}", names.join(", "));
        }
        let over = over_ceiling(&census);
        for line in &over {
            eprintln!("census: {line} (delete or demote, do not raise the ceiling)");
        }
        if over.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        lint_source(path, src)
    }

    #[test]
    fn scanner_blanks_comments_and_strings() {
        let src = "let a = \"unsafe {\"; // unsafe here too\nlet b = 'x';\n/* unsafe */ let c = r#\"clwb(\"#;\n";
        let code = strip_code(src);
        assert!(!code.contains("unsafe"));
        assert!(!code.contains("clwb"));
        assert_eq!(code.lines().count(), src.lines().count());
    }

    #[test]
    fn scanner_keeps_lifetimes_and_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { unsafe { g(x) } }\n";
        let code = strip_code(src);
        assert!(code.contains("unsafe"));
        assert!(code.contains("'a"));
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let v = lint(
            "crates/demo/src/lib.rs",
            "fn f() {\n    unsafe { g() }\n}\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::SafetyComment);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn safety_comment_within_five_lines_covers() {
        let src = "fn f() {\n    // SAFETY: g is fine here\n    unsafe { g() }\n}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
        let doc = "/// # Safety\n/// Caller checks x.\nunsafe fn f(x: u8) {}\n";
        assert!(lint("crates/demo/src/lib.rs", doc).is_empty());
    }

    #[test]
    fn commented_out_unsafe_is_ignored() {
        let src = "fn f() {\n    // unsafe { g() }\n    let s = \"unsafe\";\n}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn raw_write_outside_allowlist_is_flagged() {
        let src = "// SAFETY: raw copy\nunsafe { std::ptr::copy_nonoverlapping(a, b, 8); }\n";
        let v = lint("crates/demo/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::RawWrite);
    }

    #[test]
    fn raw_write_in_pool_internals_is_allowed() {
        let src = "// SAFETY: image copy\nunsafe { std::ptr::copy_nonoverlapping(a, b, 8); }\n";
        assert!(lint("crates/pmem/src/pool.rs", src).is_empty());
        assert!(lint("crates/ralloc/src/alloc.rs", src).is_empty());
    }

    #[test]
    fn reasoned_allow_waives_and_bare_allow_is_flagged() {
        let ok = "// lint: allow(raw-write): shadow-tracked via san_mark_dirty\n// SAFETY: x\nunsafe { std::ptr::copy_nonoverlapping(a, b, 8); }\n";
        assert!(lint("crates/demo/src/lib.rs", ok).is_empty());
        let bare = "// lint: allow(raw-write)\n// SAFETY: x\nunsafe { std::ptr::copy_nonoverlapping(a, b, 8); }\n";
        let v = lint("crates/demo/src/lib.rs", bare);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("without a reason"));
    }

    #[test]
    fn clwb_without_fence_is_flagged() {
        let src = "fn f(p: &Pool) {\n    p.clwb(off);\n}\n";
        let v = lint("crates/demo/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FlushNoFence);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn clwb_reaching_a_fence_is_clean() {
        for fence in ["p.sfence();", "p.persist_range(o, 8);"] {
            let src = format!("fn f(p: &Pool) {{\n    p.clwb_range(o, 64);\n    {fence}\n}}\n");
            assert!(lint("crates/demo/src/lib.rs", &src).is_empty(), "{fence}");
        }
    }

    #[test]
    fn split_phase_fence_counts_when_its_ticket_is_waited_or_handed_on() {
        for rest in [
            "p.sfence_issue().wait();",
            "let t = p.sfence_issue();\n    q.sfence_issue().wait();\n    t.wait();",
            "let t = p.sfence_issue();\n    Ticket { fence: t }",
            "Ticket {\n        fence: p.sfence_issue(),\n    }",
            "p.sfence_issue()",
            "return p.sfence_issue();",
            "tickets.push(p.sfence_issue());",
        ] {
            let src = format!("fn f(p: &Pool) {{\n    p.clwb_range(o, 64);\n    {rest}\n}}\n");
            assert!(lint("crates/demo/src/lib.rs", &src).is_empty(), "{rest}");
        }
    }

    #[test]
    fn split_phase_fence_with_a_dropped_ticket_is_flagged() {
        for rest in [
            "p.sfence_issue();",
            "let _ = p.sfence_issue();",
            "let _t = p.sfence_issue();",
            "let t = p.sfence_issue();\n    other(p);",
        ] {
            let src = format!("fn f(p: &Pool) {{\n    p.clwb_range(o, 64);\n    {rest}\n}}\n");
            let v = lint("crates/demo/src/lib.rs", &src);
            assert_eq!(v.len(), 1, "{rest}");
            assert_eq!((v[0].rule, v[0].line), (Rule::FlushNoFence, 3), "{rest}");
        }
    }

    #[test]
    fn deferred_fence_allow_waives_flush_rule() {
        let src = "// lint: allow(flush-no-fence): fence happens at the epoch boundary\nfn f(p: &Pool) {\n    p.clwb(off);\n}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn on_clwb_is_not_a_clwb_call() {
        let src = "fn f(s: &San) {\n    s.on_clwb(1, 2, 3, loc);\n}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn weak_ordering_without_ord_comment_is_flagged() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Acquire)\n}\n";
        let v = lint("crates/montage/src/demo.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::OrdJustify);
        assert_eq!(v[0].line, 2);
        // Outside the protocol core the same code is fine.
        assert!(lint("crates/kvstore/src/demo.rs", src).is_empty());
    }

    #[test]
    fn ord_comment_within_six_lines_justifies() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n    // ord(acquire): pairs with the publish in g\n    a.load(Ordering::Acquire)\n}\n";
        assert!(lint("crates/montage/src/demo.rs", src).is_empty());
        // `word(` is not an `ord(` tag.
        let sly = "fn f(a: &AtomicU64) -> u64 {\n    // keyword(acquire) chatter\n    a.load(Ordering::Acquire)\n}\n";
        assert_eq!(lint("crates/montage/src/demo.rs", sly).len(), 1);
    }

    #[test]
    fn seqcst_and_test_modules_need_no_ord_comment() {
        let src = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::SeqCst);\n}\n#[cfg(test)]\nmod tests {\n    fn g(a: &AtomicU64) -> u64 {\n        a.load(Ordering::Relaxed)\n    }\n}\n";
        assert!(lint("crates/montage/src/demo.rs", src).is_empty());
    }

    #[test]
    fn facade_is_exempt_from_ord_justify() {
        let src = "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Acquire)\n}\n";
        assert!(lint("crates/montage/src/sync.rs", src)
            .iter()
            .all(|v| v.rule != Rule::OrdJustify));
    }

    #[test]
    fn std_atomic_outside_facade_is_flagged() {
        let import = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        let v = lint("crates/kvstore/src/demo.rs", import);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::AtomicImport);
        // Inline qualified paths cannot dodge the rule.
        let inline = "fn f() { let _ = std::sync::atomic::AtomicU64::new(0); }\n";
        assert_eq!(lint("crates/kvserver/src/demo.rs", inline).len(), 1);
    }

    #[test]
    fn std_atomic_allowlist_and_test_tails_pass() {
        let import = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        for ok in [
            "crates/pmem/src/pool.rs",
            "crates/ralloc/src/alloc.rs",
            "crates/interleave/src/sync.rs",
            "crates/montage/src/sync.rs",
            "crates/baselines/src/lib.rs",
            "crates/kvserver/tests/wire.rs",
            "tests/liveness.rs",
        ] {
            assert!(lint(ok, import).is_empty(), "{ok}");
        }
        let tail =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n}\n";
        assert!(lint("crates/kvstore/src/demo.rs", tail).is_empty());
        // A comment mentioning the path is not an import.
        let comment = "// std::sync::atomic is banned here\nfn f() {}\n";
        assert!(lint("crates/kvstore/src/demo.rs", comment).is_empty());
    }

    #[test]
    fn atomic_import_waiver_needs_a_reason() {
        let ok = "// lint: allow(atomic-import): FFI type layout requires the std atomic\nuse std::sync::atomic::AtomicU64;\n";
        assert!(lint("crates/kvstore/src/demo.rs", ok).is_empty());
        let bare = "// lint: allow(atomic-import)\nuse std::sync::atomic::AtomicU64;\n";
        let v = lint("crates/kvstore/src/demo.rs", bare);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("without a reason"));
    }

    #[test]
    fn census_books_lines_and_lists_what_no_other_file_names() {
        let lib = [
            "pub fn called() {}",
            "pub const fn lonely() {}",
            "pub(crate) fn private() {}",
            "pub struct Probe; // lint: allow(raw-write): a trailing waiver",
            "    // lint: allow(raw-write): a waiver on its own line",
            "#[cfg(test)]",
            "mod tests {",
            "    fn t() { super::lonely(); let _ = super::Probe; }",
            "}",
        ]
        .join("\n");
        let user = "fn main() { demo::called(); }\nconst DOC: &str = \"// lint: allow(raw-write): quoted\";\n";
        let files = [
            ("crates/demo/src/lib.rs".to_string(), lib),
            ("crates/demo/tests/it.rs".to_string(), user.to_string()),
            (
                "mbench/src/main.rs".to_string(),
                "fn f() { Probe; }\n".to_string(),
            ),
        ];
        let census = census::take(&files);
        assert_eq!(census.lines["crates/demo"], (5, 4 + 2));
        assert!(!census.lines.contains_key("mbench"), "callers, not lines");
        assert_eq!(census.waivers, 2, "the quoted one is a string");
        assert_eq!(
            census.uncalled,
            [("crates/demo/src/lib.rs".to_string(), "lonely".to_string())],
            "named only by its own file's tests; `Probe` has a caller in mbench"
        );
        assert!(census::over_ceiling(&census).is_empty());
    }

    #[test]
    fn census_fails_past_either_ceiling() {
        let lonely_pubs: String = (0..=census::UNNAMED_PUB_CEILING)
            .map(|i| format!("pub fn lonely_{i}() {{}}\n"))
            .collect();
        let waivers = "// lint: allow(raw-write): one more\n".repeat(census::WAIVER_CEILING + 1);
        let lines = "fn f() {}\n".repeat(census::NON_TEST_SRC_CEILING + 1);
        for (src, complaint) in [
            (lonely_pubs, "unnamed pub"),
            (waivers, "lint waivers"),
            (lines, "non-test crates/*/src lines"),
        ] {
            let census = census::take(&[("crates/demo/src/lib.rs".to_string(), src)]);
            let over = census::over_ceiling(&census);
            assert_eq!(over.len(), 1, "{over:?}");
            assert!(over[0].starts_with(complaint), "{over:?}");
        }
    }
}
