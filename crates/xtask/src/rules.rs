//! The dqmc-lint rule set.
//!
//! Nine rules, all driven by the [`crate::lexer`] scan. R1–R3, R5, R10 and
//! R11 are the line-oriented hygiene rules; R6–R8 (in [`crate::conc`]) are
//! the block-aware concurrency-discipline rules introduced with the
//! `lock_order.toml` registry. R4 and R9 are retired numbers, not reused.
//!
//! - **unsafe-site** (R1): `unsafe` and `*_unchecked` may only appear in
//!   files on the `unsafe` allowlist, and every `unsafe` token must carry a
//!   `// SAFETY:` comment (or a `# Safety` doc section) in the contiguous
//!   comment/attribute block directly above it.
//! - **hot-alloc** (R2): in modules tagged `#![cfg_attr(any(), deny_hot_alloc)]`,
//!   heap-allocating calls are forbidden outside `#[cfg(test)]` code unless
//!   the enclosing function carries `// dqmc-lint: allow(hot_alloc)`.
//! - **unchecked-kernel** (R3): in the kernel files (blas3/qr/qrp/lu/tri/
//!   scale), every free `pub fn` must route through the invariant layer
//!   (a `check_finite!`/`check_orthogonal!`/`check_graded!` call in its body)
//!   or carry `// dqmc-lint: allow(unchecked_kernel)`.
//! - **panic-site** (R5): in scheduler and device-pool sources
//!   (`sched/src`, `gpusim/src`), non-test code must not introduce
//!   `panic!` / `.expect(` / `.unwrap()` — failures there belong in the
//!   structured error taxonomy, not in unwinding. Opt-outs: the
//!   `// dqmc-lint: allow(panic_site)` pragma on the enclosing function,
//!   or a `panic-site <file>` allowlist entry.
//! - **guard-across-call** (R6), **lock-order** (R7), **nondet-source**
//!   (R8): see [`crate::conc`].
//! - **direct-fs** (R10): non-test code outside `util/src/vfs.rs` must not
//!   call `std::fs::{File::create, write, rename}` directly — every file
//!   publication goes through `util::vfs::write_atomic`, the one audited
//!   path where fault injection, scrubbing and durability live. Opt-outs:
//!   the `// dqmc-lint: allow(direct_fs)` pragma on the enclosing
//!   function, or a `direct-fs <file>` allowlist entry.
//! - **hand-framing** (R11): non-test code outside `util/src/codec.rs` and
//!   `util/src/frame.rs` must not call `crc32(` — a checksummed image is a
//!   `util::frame::{Sealed, Framed}` instance, the one place an envelope
//!   is validated. Opt-outs: the `// dqmc-lint: allow(hand_framing)`
//!   pragma on the enclosing function, or a `hand-framing <file>`
//!   allowlist entry.
//! - **stale-allow**: an allowlist entry no code needed during the run —
//!   the pardoned pattern is gone, so the entry must be deleted before it
//!   silently pardons something new.

use crate::conc;
use crate::lexer::{words, SourceFile};
use crate::registry::Registry;
use std::cell::Cell;
use std::fmt;
use std::path::Path;

/// Which rule fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// R1: undocumented or un-allowlisted `unsafe`.
    UnsafeSite,
    /// R2: heap allocation in a `deny_hot_alloc` module.
    HotAlloc,
    /// R3: public kernel bypassing the invariant layer.
    UncheckedKernel,
    /// R5: panic/expect/unwrap in scheduler or device-pool non-test code.
    PanicSite,
    /// R6: a MutexGuard held across an expensive (blocking/compute) call.
    GuardAcrossCall,
    /// R7: lock acquired out of hierarchy order, or not registered.
    LockOrder,
    /// R8: nondeterminism source on an observable-bytes path.
    NondetSource,
    /// R10: direct filesystem mutation outside the audited write path.
    DirectFs,
    /// R11: a checksum computed outside the audited envelope code.
    HandFraming,
    /// Allowlist entry that pardoned nothing during the run.
    StaleAllow,
}

impl Rule {
    /// Stable identifier used in reports and allowlist categories.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeSite => "unsafe-site",
            Rule::HotAlloc => "hot-alloc",
            Rule::UncheckedKernel => "unchecked-kernel",
            Rule::PanicSite => "panic-site",
            Rule::GuardAcrossCall => "guard-across-call",
            Rule::LockOrder => "lock-order",
            Rule::NondetSource => "nondet-source",
            Rule::DirectFs => "direct-fs",
            Rule::HandFraming => "hand-framing",
            Rule::StaleAllow => "stale-allow",
        }
    }
}

/// One finding, reported as `file:line: [rule] message`.
#[derive(Clone, Debug)]
pub struct Violation {
    /// File the finding is in (as scanned).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.msg
        )
    }
}

/// One file-scoped allowlist entry, with use tracking for staleness.
#[derive(Clone, Debug)]
pub struct FileEntry {
    /// Path suffix the entry pardons.
    pub pat: String,
    /// 1-based `lint.allow` line the entry came from.
    pub line: usize,
    /// Set when the entry pardoned (or was consulted for) a real site.
    pub used: Cell<bool>,
}

/// One function-scoped allowlist entry (`<path>::<fn>`), with use tracking.
#[derive(Clone, Debug)]
pub struct FnEntry {
    /// Path suffix of the file the function lives in.
    pub file: String,
    /// Function name.
    pub func: String,
    /// 1-based `lint.allow` line the entry came from.
    pub line: usize,
    /// Set when the entry pardoned a real site.
    pub used: Cell<bool>,
}

/// Parsed `lint.allow`: per-category lists of allowed paths / functions.
///
/// Every lookup that matches marks its entry used; [`Allowlist::stale`]
/// returns the leftovers so `xtask lint` can fail on entries whose
/// pardoned pattern no longer exists (they would otherwise silently
/// pardon whatever shows up in that file next).
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// Files (suffix-matched) where `unsafe` is permitted.
    pub unsafe_files: Vec<FileEntry>,
    /// Files (suffix-matched) where R5 panic sites are pardoned wholesale
    /// (legacy infallible wrappers predating the error taxonomy).
    pub panic_files: Vec<FileEntry>,
    /// `file::fn` entries audited to hold a guard across expensive work.
    pub guard_fns: Vec<FnEntry>,
    /// `file::fn` entries audited for out-of-order lock acquisition.
    pub order_fns: Vec<FnEntry>,
    /// Files where R8 nondeterminism sources are pardoned wholesale.
    pub nondet_files: Vec<FileEntry>,
    /// Files where R10 direct filesystem calls are pardoned wholesale.
    pub direct_fs_files: Vec<FileEntry>,
    /// Files where R11 hand-rolled checksums are pardoned wholesale.
    pub hand_framing_files: Vec<FileEntry>,
}

fn file_entry(pat: &str, line: usize) -> FileEntry {
    FileEntry {
        pat: pat.to_owned(),
        line,
        used: Cell::new(false),
    }
}

fn fn_entry(rest: &str, line: usize) -> Result<FnEntry, String> {
    let (file, func) = rest
        .rsplit_once("::")
        .ok_or_else(|| format!("lint.allow:{line}: need <path>::<fn>"))?;
    Ok(FnEntry {
        file: file.to_owned(),
        func: func.to_owned(),
        line,
        used: Cell::new(false),
    })
}

fn hit_file(entries: &[FileEntry], path: &str) -> bool {
    let mut any = false;
    for e in entries {
        if suffix_match(path, &e.pat) {
            e.used.set(true);
            any = true;
        }
    }
    any
}

fn hit_fn(entries: &[FnEntry], path: &str, func: &str) -> bool {
    let mut any = false;
    for e in entries {
        if e.func == func && suffix_match(path, &e.file) {
            e.used.set(true);
            any = true;
        }
    }
    any
}

impl Allowlist {
    /// Parses the `lint.allow` format: `<category> <path>` or
    /// `<category> <path>::<fn>` lines; `#` starts a comment. Categories:
    /// `unsafe`, `panic-site`, `guard-across-call`, `lock-order`,
    /// `nondet-source`, `direct-fs`, `hand-framing`.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut out = Allowlist::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (cat, rest) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("lint.allow:{}: missing path", i + 1))?;
            let rest = rest.trim();
            let ln = i + 1;
            match cat {
                "unsafe" => out.unsafe_files.push(file_entry(rest, ln)),
                "panic-site" => out.panic_files.push(file_entry(rest, ln)),
                "guard-across-call" => out.guard_fns.push(fn_entry(rest, ln)?),
                "lock-order" => out.order_fns.push(fn_entry(rest, ln)?),
                "nondet-source" => out.nondet_files.push(file_entry(rest, ln)),
                "direct-fs" => out.direct_fs_files.push(file_entry(rest, ln)),
                "hand-framing" => out.hand_framing_files.push(file_entry(rest, ln)),
                other => return Err(format!("lint.allow:{}: unknown category {other}", i + 1)),
            }
        }
        Ok(out)
    }

    fn allows_unsafe(&self, path: &str) -> bool {
        hit_file(&self.unsafe_files, path)
    }

    fn allows_panics(&self, path: &str) -> bool {
        hit_file(&self.panic_files, path)
    }

    pub(crate) fn allows_guard(&self, path: &str, func: &str) -> bool {
        hit_fn(&self.guard_fns, path, func)
    }

    pub(crate) fn allows_order(&self, path: &str, func: &str) -> bool {
        hit_fn(&self.order_fns, path, func)
    }

    pub(crate) fn allows_nondet(&self, path: &str) -> bool {
        hit_file(&self.nondet_files, path)
    }

    /// Entries no lookup matched: `(lint.allow line, entry description)`.
    pub fn stale(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        let files: [(&str, &[FileEntry]); 5] = [
            ("unsafe", &self.unsafe_files),
            ("panic-site", &self.panic_files),
            ("nondet-source", &self.nondet_files),
            ("direct-fs", &self.direct_fs_files),
            ("hand-framing", &self.hand_framing_files),
        ];
        for (cat, entries) in files {
            for e in entries {
                if !e.used.get() {
                    out.push((e.line, format!("{cat} {}", e.pat)));
                }
            }
        }
        let fns: [(&str, &[FnEntry]); 2] = [
            ("guard-across-call", &self.guard_fns),
            ("lock-order", &self.order_fns),
        ];
        for (cat, entries) in fns {
            for e in entries {
                if !e.used.get() {
                    out.push((e.line, format!("{cat} {}::{}", e.file, e.func)));
                }
            }
        }
        out.sort();
        out
    }

    /// Stale entries as reportable violations against `allow_path`.
    pub fn stale_violations(&self, allow_path: &str) -> Vec<Violation> {
        self.stale()
            .into_iter()
            .map(|(line, entry)| Violation {
                path: allow_path.to_owned(),
                line,
                rule: Rule::StaleAllow,
                msg: format!(
                    "allowlist entry `{entry}` pardoned nothing this run; \
                     delete it (the pattern it audited is gone)"
                ),
            })
            .collect()
    }
}

/// `path` ends with allowlist entry `pat`, on a path-component boundary.
pub(crate) fn suffix_match(path: &str, pat: &str) -> bool {
    let path = path.replace('\\', "/");
    path == pat || path.ends_with(&format!("/{pat}"))
}

/// Kernel files subject to R3 (every public entry checks or opts out).
const KERNEL_FILES: [&str; 6] = ["blas3.rs", "qr.rs", "qrp.rs", "lu.rs", "tri.rs", "scale.rs"];

/// Substrings (in blanked code) that indicate heap allocation.
const ALLOC_TOKENS: [&str; 8] = [
    "vec!",
    "Vec::new",
    "Box::new",
    ".clone()",
    ".collect",
    ".to_vec",
    "with_capacity",
    "String::from",
];

/// Invariant-layer entry points recognised by R3.
const CHECK_TOKENS: [&str; 3] = ["check_finite!", "check_orthogonal!", "check_graded!"];

/// Unwinding markers for R5. `.expect(` deliberately excludes
/// `.expect_err(` (different token) and `unwrap_or_else` does not match
/// `.unwrap()` — the poison-recovering relock idiom stays clean.
const PANIC_TOKENS: [&str; 3] = ["panic!", ".expect(", ".unwrap()"];

/// Path fragments that put a file in R5's jurisdiction: the subsystems
/// whose failures must travel as classified [`DqmcError`]s, not unwinds.
const PANIC_SCOPES: [&str; 2] = ["sched/src/", "gpusim/src/"];

/// A rule of the form "these calls belong in one audited module": tokens
/// that may appear in non-test code only in the exempt files, with a
/// function pragma and a file allowlist category as the two opt-outs.
struct Routed {
    rule: Rule,
    tokens: &'static [&'static str],
    exempt: &'static [&'static str],
    pragma: &'static str,
    entries: fn(&Allowlist) -> &[FileEntry],
    advice: &'static str,
}

/// R10. `fs::write(` cannot match `vfs::write_atomic(` (the character
/// after `write` differs), so the audited path itself never trips the rule
/// at call sites; the one exempt file is that path (and its
/// fault-injection residues).
const DIRECT_FS: Routed = Routed {
    rule: Rule::DirectFs,
    tokens: &["File::create(", "fs::write(", "fs::rename("],
    exempt: &["util/src/vfs.rs"],
    pragma: "dqmc-lint: allow(direct_fs)",
    entries: |a| &a.direct_fs_files,
    advice: "direct filesystem mutation outside util::vfs; publish through \
             util::vfs::write_atomic so faults, scrubbing and durability stay centralised",
};

/// R11. The checksum is the last step of every envelope, so a `crc32(`
/// call elsewhere is a seventh hand-rolled framing in the making.
const HAND_FRAMING: Routed = Routed {
    rule: Rule::HandFraming,
    tokens: &["crc32("],
    exempt: &["util/src/codec.rs", "util/src/frame.rs"],
    pragma: "dqmc-lint: allow(hand_framing)",
    entries: |a| &a.hand_framing_files,
    advice: "checksum computed outside util::frame; make the format a \
             util::frame::{Sealed, Framed} instance so there stays one place \
             where an envelope is validated",
};

/// Opt-out pragmas (searched in the comment block above a function).
const PRAGMA_HOT_ALLOC: &str = "dqmc-lint: allow(hot_alloc)";
const PRAGMA_UNCHECKED: &str = "dqmc-lint: allow(unchecked_kernel)";
const PRAGMA_PANIC: &str = "dqmc-lint: allow(panic_site)";

/// Runs every rule over one scanned file.
pub fn check_file(f: &SourceFile, allow: &Allowlist, reg: &Registry) -> Vec<Violation> {
    let mut out = Vec::new();
    let path = f.path.display().to_string();
    check_unsafe(f, allow, &path, &mut out);
    check_hot_alloc(f, &path, &mut out);
    check_kernels(f, &path, &mut out);
    check_panic_sites(f, allow, &path, &mut out);
    check_routed(f, allow, &path, &DIRECT_FS, &mut out);
    check_routed(f, allow, &path, &HAND_FRAMING, &mut out);
    conc::check_concurrency(f, allow, reg, &path, &mut out);
    out
}

fn check_unsafe(f: &SourceFile, allow: &Allowlist, path: &str, out: &mut Vec<Violation>) {
    // Consulted lazily so an entry for a file with no unsafe left reads
    // as unused (stale), not as pardoning thin air.
    let mut allowed: Option<bool> = None;
    for (ln, line) in f.code.iter().enumerate() {
        for w in words(line) {
            let is_unsafe = w == "unsafe";
            let is_unchecked = matches!(
                w,
                "get_unchecked" | "get_unchecked_mut" | "set_unchecked" | "unwrap_unchecked"
            );
            if !(is_unsafe || is_unchecked) {
                continue;
            }
            let allowed = *allowed.get_or_insert_with(|| allow.allows_unsafe(path));
            if !allowed {
                out.push(Violation {
                    path: path.to_owned(),
                    line: ln + 1,
                    rule: Rule::UnsafeSite,
                    msg: format!(
                        "`{w}` in a file not on the unsafe allowlist \
                         (crates/xtask/lint.allow)"
                    ),
                });
                break; // one finding per line is enough
            }
            if is_unsafe
                && !f.comment_block_above_contains(ln, "SAFETY:")
                && !f.comment_block_above_contains(ln, "# Safety")
            {
                out.push(Violation {
                    path: path.to_owned(),
                    line: ln + 1,
                    rule: Rule::UnsafeSite,
                    msg: "`unsafe` without a `// SAFETY:` comment or `# Safety` \
                          doc section directly above"
                        .to_owned(),
                });
                break;
            }
        }
    }
}

fn check_hot_alloc(f: &SourceFile, path: &str, out: &mut Vec<Violation>) {
    let tagged = f
        .code
        .iter()
        .any(|l| l.contains("cfg_attr") && l.contains("deny_hot_alloc"));
    if !tagged {
        return;
    }
    for (ln, line) in f.code.iter().enumerate() {
        if f.is_test[ln] {
            continue;
        }
        let Some(tok) = ALLOC_TOKENS.iter().find(|t| line.contains(*t)) else {
            continue;
        };
        let pardoned = f
            .enclosing_fn(ln)
            .is_some_and(|func| f.comment_block_above_contains(func.sig_line, PRAGMA_HOT_ALLOC));
        if !pardoned {
            out.push(Violation {
                path: path.to_owned(),
                line: ln + 1,
                rule: Rule::HotAlloc,
                msg: format!(
                    "heap allocation (`{tok}`) in a deny_hot_alloc module; hoist \
                     the buffer or justify with `// {PRAGMA_HOT_ALLOC}`"
                ),
            });
        }
    }
}

fn check_kernels(f: &SourceFile, path: &str, out: &mut Vec<Violation>) {
    let name = f
        .path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if !KERNEL_FILES.contains(&name.as_str()) {
        return;
    }
    for func in &f.fns {
        if !(func.free && func.is_pub) || f.is_test[func.sig_line] {
            continue;
        }
        let body_checks = (func.body.0..=func.body.1)
            .any(|ln| CHECK_TOKENS.iter().any(|t| f.code[ln].contains(t)));
        if body_checks || f.comment_block_above_contains(func.sig_line, PRAGMA_UNCHECKED) {
            continue;
        }
        out.push(Violation {
            path: path.to_owned(),
            line: func.sig_line + 1,
            rule: Rule::UncheckedKernel,
            msg: format!(
                "public kernel `{}` neither calls the invariant layer \
                 (check_finite!/check_orthogonal!/check_graded!) nor opts out \
                 with `// {PRAGMA_UNCHECKED}`",
                func.name
            ),
        });
    }
}

fn check_panic_sites(f: &SourceFile, allow: &Allowlist, path: &str, out: &mut Vec<Violation>) {
    let norm = path.replace('\\', "/");
    if !PANIC_SCOPES.iter().any(|s| norm.contains(s)) {
        return;
    }
    // Like `check_unsafe`: the allowlist is consulted only once a panic
    // token actually exists, so entries for cleaned-up files go stale.
    let mut allowed: Option<bool> = None;
    for (ln, line) in f.code.iter().enumerate() {
        if f.is_test[ln] {
            continue;
        }
        let Some(tok) = PANIC_TOKENS.iter().find(|t| line.contains(*t)) else {
            continue;
        };
        if *allowed.get_or_insert_with(|| allow.allows_panics(path)) {
            continue;
        }
        let pardoned = f
            .enclosing_fn(ln)
            .is_some_and(|func| f.comment_block_above_contains(func.sig_line, PRAGMA_PANIC));
        if !pardoned {
            out.push(Violation {
                path: path.to_owned(),
                line: ln + 1,
                rule: Rule::PanicSite,
                msg: format!(
                    "`{tok}` in scheduler/device-pool non-test code; return a \
                     classified DqmcError (or justify with `// {PRAGMA_PANIC}`)"
                ),
            });
        }
    }
}

fn check_routed(
    f: &SourceFile,
    allow: &Allowlist,
    path: &str,
    r: &Routed,
    out: &mut Vec<Violation>,
) {
    if r.exempt.iter().any(|e| suffix_match(path, e)) {
        return;
    }
    // Like `check_panic_sites`: consult the allowlist only once a token
    // actually exists, so entries for cleaned-up files go stale.
    let mut allowed: Option<bool> = None;
    for (ln, line) in f.code.iter().enumerate() {
        if f.is_test[ln] {
            continue;
        }
        let Some(tok) = r.tokens.iter().find(|t| line.contains(*t)) else {
            continue;
        };
        if *allowed.get_or_insert_with(|| hit_file((r.entries)(allow), path)) {
            continue;
        }
        let pardoned = f
            .enclosing_fn(ln)
            .is_some_and(|func| f.comment_block_above_contains(func.sig_line, r.pragma));
        if !pardoned {
            out.push(Violation {
                path: path.to_owned(),
                line: ln + 1,
                rule: r.rule,
                msg: format!("`{tok}`: {} (or justify with `// {}`)", r.advice, r.pragma),
            });
        }
    }
}

/// Relative-path helper for reports: strips `base` from `p` when possible.
pub fn display_path(p: &Path, base: &Path) -> String {
    p.strip_prefix(base).unwrap_or(p).display().to_string()
}
