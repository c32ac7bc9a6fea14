//! The concurrency registry: a checked-in `lock_order.toml` naming every
//! mutex in the scheduler/device-pool/core subsystems, the total order
//! they may be acquired in, and the files whose bytes feed observables
//! (rule R8's jurisdiction).
//!
//! The format is a small, hand-parsed subset of TOML — quoted strings,
//! single- or multi-line string arrays, `#` comments, and two tables —
//! because this build is offline and a full TOML crate would be the only
//! reason to want one.
//!
//! ```toml
//! order = ["queue.state", "pool.free"]    # coarse → fine
//!
//! [locks]
//! "sched/src/queue.rs::state" = "queue.state"
//!
//! [r8]
//! observables = ["core/src/checkpoint.rs"]
//! ```

/// Parsed `lock_order.toml`.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    /// Lock names in acquisition order (coarse first). A thread holding
    /// lock `order[i]` may only acquire locks `order[j]` with `j > i`.
    pub order: Vec<String>,
    /// `(file-suffix, receiver-field, lock-name)`: which registry name a
    /// `<receiver>.lock()` in a given file refers to.
    pub locks: Vec<(String, String, String)>,
    /// File suffixes whose bytes feed observables or checkpoints (R8).
    pub observables: Vec<String>,
}

impl Registry {
    /// Rank of `name` in the acquisition order, if registered.
    pub fn rank(&self, name: &str) -> Option<usize> {
        self.order.iter().position(|n| n == name)
    }

    /// The registered lock name for field `field` of a file matching
    /// `path` (suffix match on path-component boundaries).
    pub fn lock_name(&self, path: &str, field: &str) -> Option<&str> {
        self.locks
            .iter()
            .find(|(file, f, _)| f == field && crate::rules::suffix_match(path, file))
            .map(|(_, _, name)| name.as_str())
    }

    /// Whether `path` is in R8's observable-bytes jurisdiction.
    pub fn is_observable_path(&self, path: &str) -> bool {
        self.observables
            .iter()
            .any(|p| crate::rules::suffix_match(path, p))
    }

    /// Parses the `lock_order.toml` subset described in the module docs.
    pub fn parse(text: &str) -> Result<Registry, String> {
        let mut out = Registry::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((i, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_owned();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_owned();
                continue;
            }
            let (key, mut val) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
                .ok_or_else(|| format!("lock_order.toml:{}: expected key = value", i + 1))?;
            // Multi-line array: keep consuming until the closing bracket.
            while val.starts_with('[') && !val.ends_with(']') {
                let (j, cont) = lines
                    .next()
                    .ok_or_else(|| format!("lock_order.toml:{}: unterminated array", i + 1))?;
                let _ = j;
                val.push(' ');
                val.push_str(strip_comment(cont).trim());
            }
            match (section.as_str(), key.as_str()) {
                ("", "order") => out.order = parse_array(&val, i)?,
                ("locks", _) => {
                    let site = unquote(&key);
                    let (file, field) = site.rsplit_once("::").ok_or_else(|| {
                        format!("lock_order.toml:{}: lock key needs <file>::<field>", i + 1)
                    })?;
                    out.locks
                        .push((file.to_owned(), field.to_owned(), parse_string(&val, i)?));
                }
                ("r8", "observables") => out.observables = parse_array(&val, i)?,
                (s, k) => {
                    return Err(format!(
                        "lock_order.toml:{}: unknown entry `{k}` in section `[{s}]`",
                        i + 1
                    ))
                }
            }
        }
        for (_, _, name) in &out.locks {
            if out.rank(name).is_none() {
                return Err(format!(
                    "lock_order.toml: lock name `{name}` is not in `order`"
                ));
            }
        }
        Ok(out)
    }
}

/// Drops a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(s: &str) -> &str {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(s)
}

fn parse_string(val: &str, line: usize) -> Result<String, String> {
    let v = val.trim();
    if v.starts_with('"') && v.ends_with('"') && v.len() >= 2 {
        Ok(unquote(v).to_owned())
    } else {
        Err(format!(
            "lock_order.toml:{}: expected a quoted string, got `{v}`",
            line + 1
        ))
    }
}

fn parse_array(val: &str, line: usize) -> Result<Vec<String>, String> {
    let inner = val
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("lock_order.toml:{}: expected an array", line + 1))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(item, line)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# hierarchy, coarse to fine
order = [
    "queue.state",   # the job queue
    "pool.free",
]

[locks]
"sched/src/queue.rs::state" = "queue.state"
"gpusim/src/pool.rs::free" = "pool.free"

[r8]
observables = ["core/src/checkpoint.rs", "util/src/codec.rs"]
"#;

    #[test]
    fn parses_full_sample() {
        let r = Registry::parse(SAMPLE).unwrap();
        assert_eq!(r.order, ["queue.state", "pool.free"]);
        assert_eq!(r.rank("pool.free"), Some(1));
        assert_eq!(
            r.lock_name("crates/sched/src/queue.rs", "state"),
            Some("queue.state")
        );
        assert_eq!(r.lock_name("crates/sched/src/queue.rs", "heap"), None);
        assert!(r.is_observable_path("crates/util/src/codec.rs"));
        assert!(!r.is_observable_path("crates/util/src/rng2.rs"));
    }

    #[test]
    fn rejects_unordered_lock_name_and_bad_shapes() {
        assert!(
            Registry::parse("order = [\"a\"]\n[locks]\n\"f.rs::x\" = \"b\"\n")
                .unwrap_err()
                .contains("not in `order`")
        );
        assert!(Registry::parse("order = \"a\"\n").is_err());
        assert!(Registry::parse("[locks]\n\"no-sep.rs\" = \"a\"\n").is_err());
        assert!(Registry::parse("garbage\n").is_err());
        assert!(Registry::parse("[nope]\nkey = \"v\"\n").is_err());
    }

    #[test]
    fn comments_inside_strings_survive() {
        let r = Registry::parse("order = [\"a#b\"]\n").unwrap();
        assert_eq!(r.order, ["a#b"]);
    }
}
