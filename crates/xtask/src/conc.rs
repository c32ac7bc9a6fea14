//! The concurrency-discipline rules (R6–R8), built on the block-aware
//! lexer (brace depths, guard-binding lifetimes) and the checked-in
//! `lock_order.toml` registry.
//!
//! - **guard-across-call** (R6): a `MutexGuard` bound with `let` stays
//!   live to the end of its block (or an explicit `drop`). If an
//!   expensive call — a device op, a GEMM/QR factorization, checkpoint
//!   encoding, a condvar or queue wait, a sleep — happens inside that
//!   span, every other thread contending for the lock stalls behind the
//!   slow work. The sanctioned condvar idiom (`s = relock(cv.wait(s))`)
//!   is exempt: the wait *consumes* the named guard, releasing the lock.
//! - **lock-order** (R7): every `<receiver>.lock()` in the scoped
//!   subsystems must map to a registered lock name, and a lock acquired
//!   while another guard is live must rank *after* it in the hierarchy
//!   (`order` in `lock_order.toml`, coarse → fine). Cycles need two
//!   threads disagreeing on order; a single total order kills them all.
//! - **nondet-source** (R8): files on the registry's observable-bytes
//!   list must not consult `HashMap`/`HashSet` iteration order, wall
//!   clocks, or thread identity — byte-level checkpoint/observable
//!   reproducibility is a tier-1 contract here.
//!
//! Opt-outs mirror R1–R5: `// dqmc-lint: allow(guard_across_call)` /
//! `allow(lock_order)` / `allow(nondet_source)` pragmas on the enclosing
//! function, or the matching `lint.allow` categories
//! (`guard-across-call`/`lock-order` `<file>::<fn>`, `nondet-source <file>`).

use crate::lexer::SourceFile;
use crate::registry::Registry;
use crate::rules::{Allowlist, Rule, Violation};

/// Calls that must not run under a held lock (R6). Dotted / suffixed
/// forms so plain `fn` definitions don't trip the scan.
const EXPENSIVE_TOKENS: [&str; 14] = [
    ".wait(",
    ".wait_timeout(",
    "pop_blocking(",
    "sleep(",
    "gemm(",
    "matmul(",
    "qr_in_place(",
    "qrp_in_place(",
    "checkpoint_bytes(",
    "to_bytes(",
    ".encode(",
    "run_sweep",
    "try_cluster_crowd(",
    "try_wrap_crowd(",
];

/// Condvar-style calls that *consume* the guard they are passed.
const CONSUMING_TOKENS: [&str; 2] = [".wait(", ".wait_timeout("];

/// Nondeterminism sources for R8.
const NONDET_TOKENS: [&str; 6] = [
    "HashMap",
    "HashSet",
    "Instant::now",
    "SystemTime",
    "thread::current",
    "ThreadId",
];

/// Path fragments in R6/R7 jurisdiction: the lock-holding subsystems
/// (`linalg/src/` for the fork-join team's one mutex).
/// `fleet/src/` is deliberately lock-free (see lock_order.toml); keeping
/// it in scope means the first mutex anyone adds there must be
/// registered, not discovered in a deadlock.
const LOCK_SCOPES: [&str; 6] = [
    "linalg/src/",
    "sched/src/",
    "gpusim/src/",
    "core/src/",
    "serve/src/",
    "fleet/src/",
];

const PRAGMA_GUARD: &str = "dqmc-lint: allow(guard_across_call)";
const PRAGMA_ORDER: &str = "dqmc-lint: allow(lock_order)";
const PRAGMA_NONDET: &str = "dqmc-lint: allow(nondet_source)";

/// One lock acquisition: a `<receiver>.lock()` call and, when bound with
/// `let`, the span the resulting guard stays live over.
#[derive(Debug)]
struct LockEvent {
    /// 0-based line of the `.lock()` call.
    line: usize,
    /// Receiver field (`self.state.lock()` → `state`).
    field: String,
    /// Binding name when `let`-bound (`None` for same-statement
    /// temporaries, whose guard dies at the semicolon).
    name: Option<String>,
    /// Last 0-based line the guard can still be live on.
    end: usize,
}

/// Entry point: runs R6–R8 over one scanned file.
pub fn check_concurrency(
    f: &SourceFile,
    allow: &Allowlist,
    reg: &Registry,
    path: &str,
    out: &mut Vec<Violation>,
) {
    let norm = path.replace('\\', "/");
    if LOCK_SCOPES.iter().any(|s| norm.contains(s)) {
        let events = collect_lock_events(f);
        check_guard_across_call(f, allow, path, &events, out);
        check_lock_order(f, allow, reg, path, &events, out);
    }
    if reg.is_observable_path(path) {
        check_nondet_sources(f, allow, path, out);
    }
}

/// Finds every `.lock()` call outside test code and computes the bound
/// guard's live span: to the end of the enclosing block, cut short by an
/// explicit `drop(name)`.
fn collect_lock_events(f: &SourceFile) -> Vec<LockEvent> {
    let mut out = Vec::new();
    for (ln, line) in f.code.iter().enumerate() {
        if f.is_test[ln] {
            continue;
        }
        let Some(pos) = line.find(".lock()") else {
            continue;
        };
        let field: String = line[..pos]
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        if field.is_empty() {
            continue;
        }
        // A `let` binds the *guard* only when nothing but closers follow
        // the `.lock()` (the relock-wrapped idiom). Indexing/cloning
        // through the lock (`relock(x.lock())[i].y.clone()`) binds data;
        // that guard is a temporary, dead at the semicolon.
        let rest = &line[pos + ".lock()".len()..];
        let binds_guard = rest
            .chars()
            .all(|c| c == ')' || c == ';' || c == ',' || c.is_whitespace());
        let name = if binds_guard {
            let_binding_name(line)
        } else {
            None
        };
        let end = match &name {
            Some(n) => {
                let scope_end = f.scope_end(ln);
                (ln + 1..=scope_end)
                    .find(|&m| f.code[m].contains(&format!("drop({n})")))
                    .unwrap_or(scope_end)
            }
            None => ln,
        };
        out.push(LockEvent {
            line: ln,
            field,
            name,
            end,
        });
    }
    out
}

/// The identifier a `let` statement on `line` binds, skipping `mut` and
/// ignoring the discard pattern `_`.
fn let_binding_name(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty() && name != "_").then_some(name)
}

/// R6: expensive calls inside a guard's live span.
fn check_guard_across_call(
    f: &SourceFile,
    allow: &Allowlist,
    path: &str,
    events: &[LockEvent],
    out: &mut Vec<Violation>,
) {
    for ev in events {
        let Some(guard) = &ev.name else {
            continue; // temporary: released at the semicolon
        };
        for ln in ev.line + 1..=ev.end {
            if f.is_test[ln] {
                continue;
            }
            let line = &f.code[ln];
            let Some(tok) = EXPENSIVE_TOKENS.iter().find(|t| line.contains(*t)) else {
                continue;
            };
            // Sanctioned condvar idiom: the wait consumes this guard,
            // releasing the lock for the duration of the block.
            let consumed = CONSUMING_TOKENS.contains(tok)
                && line
                    .find(tok)
                    .map(|p| &line[p + tok.len()..])
                    .is_some_and(|rest| rest.trim_start().starts_with(guard.as_str()));
            if consumed {
                continue;
            }
            let func = f.enclosing_fn(ln);
            let pardoned = func.is_some_and(|fun| {
                f.comment_block_above_contains(fun.sig_line, PRAGMA_GUARD)
                    || allow.allows_guard(path, &fun.name)
            });
            if !pardoned {
                out.push(Violation {
                    path: path.to_owned(),
                    line: ln + 1,
                    rule: Rule::GuardAcrossCall,
                    msg: format!(
                        "guard `{guard}` (lock `{}`, taken on line {}) is \
                         still held across `{tok}`; drop it first or move \
                         the slow work out of the critical section",
                        ev.field,
                        ev.line + 1
                    ),
                });
            }
            break; // one finding per guard is enough
        }
    }
}

/// R7: every lock must be registered, and nested acquisitions must
/// follow the registry's total order.
fn check_lock_order(
    f: &SourceFile,
    allow: &Allowlist,
    reg: &Registry,
    path: &str,
    events: &[LockEvent],
    out: &mut Vec<Violation>,
) {
    if reg.order.is_empty() {
        return; // no registry (bare fixture run): nothing to enforce
    }
    let pardoned = |ln: usize| {
        f.enclosing_fn(ln).is_some_and(|fun| {
            f.comment_block_above_contains(fun.sig_line, PRAGMA_ORDER)
                || allow.allows_order(path, &fun.name)
        })
    };
    let ranks: Vec<Option<(usize, &str)>> = events
        .iter()
        .map(|ev| {
            let name = reg.lock_name(path, &ev.field)?;
            reg.rank(name).map(|r| (r, name))
        })
        .collect();
    for (ev, rank) in events.iter().zip(&ranks) {
        if rank.is_none() && !pardoned(ev.line) {
            out.push(Violation {
                path: path.to_owned(),
                line: ev.line + 1,
                rule: Rule::LockOrder,
                msg: format!(
                    "lock receiver `{}` is not in the lock_order.toml \
                     registry; name it and place it in the hierarchy",
                    ev.field
                ),
            });
        }
    }
    for (i, (held, held_rank)) in events.iter().zip(&ranks).enumerate() {
        let Some((hr, hname)) = held_rank else {
            continue;
        };
        if held.name.is_none() {
            continue; // temporary: gone before anything else locks
        }
        for (inner, inner_rank) in events.iter().zip(&ranks).skip(i + 1) {
            let Some((ir, iname)) = inner_rank else {
                continue;
            };
            let nested = inner.line > held.line && inner.line <= held.end;
            if nested && ir <= hr && !pardoned(inner.line) {
                out.push(Violation {
                    path: path.to_owned(),
                    line: inner.line + 1,
                    rule: Rule::LockOrder,
                    msg: format!(
                        "lock `{iname}` acquired while `{hname}` (line {}) \
                         is held, against the registry order `{}`",
                        held.line + 1,
                        reg.order.join(" < ")
                    ),
                });
            }
        }
    }
}

/// R8: nondeterminism sources on observable-bytes paths.
fn check_nondet_sources(f: &SourceFile, allow: &Allowlist, path: &str, out: &mut Vec<Violation>) {
    let mut allowed: Option<bool> = None;
    for (ln, line) in f.code.iter().enumerate() {
        if f.is_test[ln] {
            continue;
        }
        let Some(tok) = NONDET_TOKENS.iter().find(|t| line.contains(*t)) else {
            continue;
        };
        if *allowed.get_or_insert_with(|| allow.allows_nondet(path)) {
            continue;
        }
        let pardoned = f
            .enclosing_fn(ln)
            .is_some_and(|fun| f.comment_block_above_contains(fun.sig_line, PRAGMA_NONDET));
        if !pardoned {
            out.push(Violation {
                path: path.to_owned(),
                line: ln + 1,
                rule: Rule::NondetSource,
                msg: format!(
                    "`{tok}` on an observable-bytes path (lock_order.toml \
                     [r8]); checkpoint and observable encodings must be \
                     bit-reproducible"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan(path: &str, src: &str) -> SourceFile {
        SourceFile::scan(PathBuf::from(path), src)
    }

    fn run(path: &str, src: &str, reg: &Registry) -> Vec<Violation> {
        let f = scan(path, src);
        let mut out = Vec::new();
        check_concurrency(&f, &Allowlist::default(), reg, path, &mut out);
        out
    }

    fn reg() -> Registry {
        Registry::parse(
            "order = [\"queue\", \"trace\"]\n[locks]\n\
             \"sched/src/x.rs::state\" = \"queue\"\n\
             \"sched/src/x.rs::events\" = \"trace\"\n",
        )
        .unwrap()
    }

    #[test]
    fn guard_across_gemm_flagged_and_wait_idiom_exempt() {
        let src = "\
fn bad(&self) {
    let g = relock(self.state.lock());
    gemm(1.0, &a, &b, &mut c);
}
fn good(&self) {
    let mut s = relock(self.state.lock());
    s = relock(self.cv.wait(s));
}
";
        let v = run("sched/src/x.rs", src, &reg());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::GuardAcrossCall);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn explicit_drop_ends_the_guard() {
        let src = "\
fn ok(&self) {
    let g = relock(self.state.lock());
    drop(g);
    gemm(1.0, &a, &b, &mut c);
}
";
        assert!(run("sched/src/x.rs", src, &reg()).is_empty());
    }

    #[test]
    fn out_of_order_and_unregistered_locks_flagged() {
        let src = "\
fn bad(&self) {
    let t = relock(self.events.lock());
    let q = relock(self.state.lock());
}
fn unregistered(&self) {
    let g = relock(self.mystery.lock());
}
";
        let v = run("sched/src/x.rs", src, &reg());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == Rule::LockOrder));
        assert_eq!(v[0].line, 6); // unregistered receiver
        assert_eq!(v[1].line, 3); // trace before queue
    }

    #[test]
    fn correctly_ordered_nesting_is_silent() {
        let src = "\
fn good(&self) {
    let q = relock(self.state.lock());
    let t = relock(self.events.lock());
}
";
        assert!(run("sched/src/x.rs", src, &reg()).is_empty());
    }

    #[test]
    fn nondet_tokens_only_flag_registered_files() {
        let mut r = reg();
        r.observables.push("core/src/obs.rs".into());
        let src = "fn f() { let m = HashMap::new(); }\n";
        assert_eq!(run("core/src/obs.rs", src, &r).len(), 1);
        assert!(run("core/src/other.rs", src, &r).is_empty());
    }
}
