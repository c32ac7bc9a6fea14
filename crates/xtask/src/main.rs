//! Workspace automation tasks. Currently one: `cargo xtask lint`.
//!
//! `lint` is the dqmc-lint static-analysis pass: a dependency-free token
//! walk over the workspace sources enforcing the numerical-kernel hygiene
//! rules documented in the `rules` module. Run it as
//!
//! ```text
//! cargo xtask lint              # lint the workspace (CI does this)
//! cargo xtask lint --root DIR   # lint every .rs under DIR (self-tests)
//! ```
//!
//! Exit status: 0 when clean, 1 when violations are found, 2 on usage or
//! I/O errors. The allowlist lives in `crates/xtask/lint.allow`; the
//! concurrency registry (lock hierarchy, observable-bytes files) in the
//! workspace-root `lock_order.toml`. A lint run also fails when an
//! allowlist entry pardoned nothing (stale-allow): dead entries would
//! silently pardon whatever appears in that file next.

mod conc;
mod lexer;
mod registry;
mod rules;

use lexer::SourceFile;
use registry::Registry;
use rules::{check_file, display_path, Allowlist, Violation};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo xtask lint [--root DIR] [--allowlist FILE]";

fn run_lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut allow_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a value"),
            },
            "--allowlist" => match it.next() {
                Some(v) => allow_path = Some(PathBuf::from(v)),
                None => return usage_error("--allowlist needs a value"),
            },
            other => return usage_error(&format!("unknown flag `{other}`")),
        }
    }
    let explicit_root = root.is_some();
    let root = root.unwrap_or_else(workspace_root);
    let allow = match load_allowlist(&root, allow_path, explicit_root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let reg = match load_registry(&root, explicit_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let result = lint_tree(&root, &allow, &reg).map(|mut violations| {
        violations.extend(allow.stale_violations("crates/xtask/lint.allow"));
        violations
    });
    match result {
        Ok(violations) if violations.is_empty() => {
            println!("dqmc-lint: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("dqmc-lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("xtask lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Loads the allowlist: an explicit `--allowlist`, else the workspace's
/// `crates/xtask/lint.allow`. With an explicit `--root` (fixture mode) a
/// missing default allowlist degrades to an empty one.
fn load_allowlist(
    root: &Path,
    explicit: Option<PathBuf>,
    explicit_root: bool,
) -> Result<Allowlist, String> {
    let (path, required) = match explicit {
        Some(p) => (p, true),
        None => (root.join("crates/xtask/lint.allow"), !explicit_root),
    };
    match std::fs::read_to_string(&path) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) if !required => Ok(Allowlist::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Loads the concurrency registry from `<root>/lock_order.toml`. Required
/// for a workspace run; with an explicit `--root` (fixture mode) a missing
/// registry degrades to an empty one (R7 and R8 idle).
fn load_registry(root: &Path, explicit_root: bool) -> Result<Registry, String> {
    let path = root.join("lock_order.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => Registry::parse(&text),
        Err(_) if explicit_root => Ok(Registry::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Lints the source tree under `root` and returns all findings.
///
/// For a workspace root (has a `crates/` directory) only `crates/*/src` and
/// `shims/*/src` are walked; otherwise every `.rs` under `root` is linted
/// (used by the fixture self-tests).
fn lint_tree(root: &Path, allow: &Allowlist, reg: &Registry) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    if root.join("crates").is_dir() {
        for tier in ["crates", "shims"] {
            let dir = root.join(tier);
            if !dir.is_dir() {
                continue;
            }
            for entry in read_dir(&dir)? {
                let src = entry.join("src");
                if src.is_dir() {
                    collect_rs(&src, &mut files)?;
                }
            }
        }
    } else {
        collect_rs(root, &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = PathBuf::from(display_path(&path, root));
        let scanned = SourceFile::scan(rel, &text);
        out.extend(check_file(&scanned, allow, reg));
    }
    Ok(out)
}

fn read_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for e in rd {
        out.push(e.map_err(|e| e.to_string())?.path());
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for p in read_dir(dir)? {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::Rule;

    fn fixture_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
    }

    fn fixture_registry() -> Registry {
        let text = std::fs::read_to_string(fixture_dir().join("lock_order.toml"))
            .expect("fixture registry readable");
        Registry::parse(&text).expect("fixture registry parses")
    }

    fn lint_fixture(name: &str) -> Vec<Violation> {
        let path = fixture_dir().join(name);
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let scanned = SourceFile::scan(PathBuf::from(name), &text);
        check_file(&scanned, &Allowlist::default(), &fixture_registry())
    }

    #[test]
    fn fixture_r1_unsafe_without_safety_comment() {
        let v = lint_fixture("r1_unsafe.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnsafeSite);
        assert_eq!(v[0].line, 7, "{}", v[0]);
    }

    #[test]
    fn fixture_r2_alloc_in_hot_module() {
        let v = lint_fixture("r2_alloc.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HotAlloc);
        assert_eq!(v[0].line, 7, "{}", v[0]);
    }

    #[test]
    fn fixture_r3_unchecked_public_kernel() {
        let v = lint_fixture("kernels/scale.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UncheckedKernel);
        assert_eq!(v[0].line, 5, "{}", v[0]);
    }

    #[test]
    fn fixture_r5_panic_in_sched_scope() {
        // The scan path mirrors the fixture's location so R5's path
        // scoping (`sched/src/`) engages; the pragma'd fn and the
        // `#[cfg(test)]` mod must stay silent.
        let v = lint_fixture("sched/src/r5_panic.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::PanicSite);
        assert_eq!(v[0].line, 5, "{}", v[0]);
    }

    #[test]
    fn fixture_r5_is_silent_outside_scope_and_when_allowlisted() {
        let path = fixture_dir().join("sched/src/r5_panic.rs");
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let reg = fixture_registry();
        // Same text scanned under a non-sched path: out of jurisdiction.
        let scanned = SourceFile::scan(PathBuf::from("linalg/src/r5_panic.rs"), &text);
        assert!(check_file(&scanned, &Allowlist::default(), &reg).is_empty());
        // In scope but file-allowlisted: pardoned wholesale.
        let scanned = SourceFile::scan(PathBuf::from("sched/src/r5_panic.rs"), &text);
        let allow = Allowlist::parse("panic-site sched/src/r5_panic.rs\n").unwrap();
        assert!(check_file(&scanned, &allow, &reg).is_empty());
        // And the consulted entry is not stale.
        assert!(allow.stale().is_empty());
    }

    #[test]
    fn fixture_r6_guard_across_expensive_calls() {
        // Two findings: guard across gemm, guard across pop_blocking. The
        // condvar-consuming wait and the dropped-guard fn stay silent.
        let v = lint_fixture("core/src/r6_guard.rs");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == Rule::GuardAcrossCall));
        assert_eq!(v[0].line, 10, "{}", v[0]);
        assert_eq!(v[1].line, 17, "{}", v[1]);
    }

    #[test]
    fn fixture_r7_lock_order_inversion() {
        let v = lint_fixture("sched/src/r7_order.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::LockOrder);
        assert_eq!(v[0].line, 11, "{}", v[0]);
    }

    #[test]
    fn fixture_r7_serve_scope_requires_registered_locks() {
        // The serve subsystem is in R6/R7 jurisdiction: an unregistered
        // receiver is flagged, the registered one and test code are not.
        let v = lint_fixture("serve/src/r7_unregistered.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::LockOrder);
        assert_eq!(v[0].line, 10, "{}", v[0]);
        assert!(v[0].msg.contains("not in the lock_order.toml"), "{}", v[0]);
    }

    #[test]
    fn fixture_r8_nondet_on_observable_path() {
        let v = lint_fixture("core/src/r8_nondet.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::NondetSource);
        assert_eq!(v[0].line, 11, "{}", v[0]);
    }

    #[test]
    fn fixture_r10_direct_fs() {
        // One finding — the bare `std::fs::write` publish; the vfs-routed
        // write, the pragma'd move, and the test mod stay silent.
        let v = lint_fixture("r10_fs.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DirectFs);
        assert_eq!(v[0].line, 7, "{}", v[0]);
    }

    #[test]
    fn fixture_r10_exempts_vfs_and_honours_allowlist() {
        let path = fixture_dir().join("r10_fs.rs");
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let reg = fixture_registry();
        // The same text under the audited module's own path: exempt.
        let scanned = SourceFile::scan(PathBuf::from("util/src/vfs.rs"), &text);
        assert!(check_file(&scanned, &Allowlist::default(), &reg).is_empty());
        // File-allowlisted under its own path: pardoned, entry consulted.
        let scanned = SourceFile::scan(PathBuf::from("r10_fs.rs"), &text);
        let allow = Allowlist::parse("direct-fs r10_fs.rs\n").unwrap();
        assert!(check_file(&scanned, &allow, &reg).is_empty());
        assert!(allow.stale().is_empty());
    }

    #[test]
    fn fixture_r11_hand_framing_exempts_the_envelope_code_and_honours_allowlist() {
        // One finding — the hand-rolled CRC trailer; the `Sealed` instance,
        // the pragma'd probe and the test mod stay silent.
        let v = lint_fixture("r11_framing.rs");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::HandFraming);
        assert_eq!(v[0].line, 7, "{}", v[0]);
        let path = fixture_dir().join("r11_framing.rs");
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let reg = fixture_registry();
        // The same text under either audited module's own path: exempt.
        for home in ["util/src/codec.rs", "util/src/frame.rs"] {
            let scanned = SourceFile::scan(PathBuf::from(home), &text);
            assert!(check_file(&scanned, &Allowlist::default(), &reg).is_empty());
        }
        // File-allowlisted under its own path: pardoned, entry consulted.
        let scanned = SourceFile::scan(PathBuf::from("r11_framing.rs"), &text);
        let allow = Allowlist::parse("hand-framing r11_framing.rs\n").unwrap();
        assert!(check_file(&scanned, &allow, &reg).is_empty());
        assert!(allow.stale().is_empty());
    }

    #[test]
    fn fixture_tree_has_expected_violations_per_rule() {
        // The CLI path over the whole fixture tree: 11 findings.
        let allow = Allowlist::default();
        let v = lint_tree(&fixture_dir(), &allow, &fixture_registry()).unwrap();
        assert_eq!(v.len(), 11, "{v:?}");
        for (rule, n) in [
            (Rule::UnsafeSite, 1),
            (Rule::HotAlloc, 1),
            (Rule::UncheckedKernel, 1),
            (Rule::PanicSite, 1),
            (Rule::GuardAcrossCall, 2),
            (Rule::LockOrder, 2),
            (Rule::NondetSource, 1),
            (Rule::DirectFs, 1),
            (Rule::HandFraming, 1),
        ] {
            assert_eq!(v.iter().filter(|x| x.rule == rule).count(), n, "{rule:?}");
        }
    }

    #[test]
    fn stale_allowlist_entries_become_violations() {
        // An entry for a file with nothing to pardon must be reported.
        let allow = Allowlist::parse("unsafe no/such/file.rs\n").unwrap();
        let v = lint_tree(&fixture_dir(), &allow, &fixture_registry()).unwrap();
        let stale = allow.stale_violations("lint.allow");
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].rule, Rule::StaleAllow);
        assert_eq!(stale[0].line, 1);
        assert!(stale[0].msg.contains("unsafe no/such/file.rs"));
        // The fixture findings themselves are unaffected.
        assert_eq!(v.len(), 11, "{v:?}");
    }

    #[test]
    fn workspace_is_clean_with_no_stale_entries() {
        // The real tree with the real allowlist and registry must lint
        // clean — this is the same invocation CI runs — and every
        // allowlist entry must have pardoned something.
        let root = workspace_root();
        let allow = load_allowlist(&root, None, false).unwrap();
        let reg = load_registry(&root, false).unwrap();
        let v = lint_tree(&root, &allow, &reg).unwrap();
        assert!(v.is_empty(), "workspace lint violations:\n{:#?}", v);
        assert!(
            allow.stale().is_empty(),
            "stale lint.allow entries: {:?}",
            allow.stale()
        );
    }

    #[test]
    fn allowlist_rejects_unknown_categories() {
        assert!(Allowlist::parse("unsafe a.rs\n").is_ok());
        assert!(Allowlist::parse("panic-site a.rs\n").is_ok());
        assert!(Allowlist::parse("guard-across-call a.rs::f\n").is_ok());
        assert!(Allowlist::parse("lock-order a.rs::f\n").is_ok());
        assert!(Allowlist::parse("nondet-source a.rs\n").is_ok());
        assert!(Allowlist::parse("direct-fs a.rs\n").is_ok());
        assert!(Allowlist::parse("hand-framing a.rs\n").is_ok());
        assert!(Allowlist::parse("frobnicate a.rs\n").is_err());
        assert!(Allowlist::parse("lock-order missing-fn.rs\n").is_err());
    }
}
