//! The one writer of the checked-in `BENCH_*.json` ledgers.
//!
//! Every ledger is one header and a list of flat rows:
//!
//! ```text
//! {
//!   "bench": "sched",
//!   "git_rev": "…",          // read from .git, without running git
//!   "host_cores": 2,
//!   "cpu_model": "…",
//!   "kernel": "avx512",      // linalg's dispatched kernel path
//!   "mode": "default",       // or "full"
//!   "workload": "6x6 lattice, …",
//!   "rows": [
//!     {"workers": 1, "wall_s": 9.707, …},
//!     …
//!   ]
//! }
//! ```
//!
//! A binary with two tables tags each row with `"table"`. A missing or
//! non-finite number is `null`; strings are escaped. What can be derived
//! from the rows is left out, and a check a binary makes (observables
//! identical across rows) is an assertion there, not a field here. A
//! `--smoke` run writes nothing, so the checked-in files change only when a
//! default or `--full` run re-records them.

use crate::Mode;

/// The header's keys, in the order every ledger prints them.
pub const HEADER: [&str; 7] = [
    "bench",
    "git_rev",
    "host_cores",
    "cpu_model",
    "kernel",
    "mode",
    "workload",
];

/// One flat row: its keys in order, each with its value as JSON.
#[derive(Debug, Default)]
pub struct Row(Vec<(&'static str, String)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Appends an integer.
    pub fn int(mut self, key: &'static str, v: usize) -> Row {
        self.0.push((key, v.to_string()));
        self
    }

    /// Appends a number to `prec` places; `None` or a non-finite value is
    /// `null`.
    pub fn num(mut self, key: &'static str, v: impl Into<Option<f64>>, prec: usize) -> Row {
        let v = v.into().filter(|x| x.is_finite());
        self.0
            .push((key, v.map_or("null".into(), |x| format!("{x:.prec$}"))));
        self
    }

    /// Appends a string.
    pub fn text(mut self, key: &'static str, v: &str) -> Row {
        self.0.push((key, quote(v)));
        self
    }

    fn render(&self) -> String {
        let cells: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", cells.join(", "))
    }
}

/// Writes `BENCH_<bench>.json` into the current directory: the header for
/// this host and `workload`, then the rows of `tables`, each row tagged with
/// its table's name when there is more than one. A smoke run writes
/// nothing.
pub fn write(bench: &str, mode: Mode, workload: &str, tables: &[(&str, &[Row])]) {
    if mode == Mode::Smoke {
        return;
    }
    let json = render(&header(bench, mode, workload), tables);
    let path = format!("BENCH_{bench}.json");
    match util::vfs::write_atomic(std::path::Path::new(&path), json.as_bytes()) {
        Ok(()) => eprintln!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}

/// The header of a ledger of `bench` on this host, in [`HEADER`] order.
fn header(bench: &str, mode: Mode, workload: &str) -> Row {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Row::new()
        .text("bench", bench)
        .text("git_rev", &git_rev())
        .int("host_cores", cores)
        .text("cpu_model", &cpu_model())
        .text("kernel", linalg::kernel_path().name())
        .text("mode", mode.name())
        .text("workload", workload)
}

/// A ledger's text: `header`'s fields, then `"rows"`.
fn render(header: &Row, tables: &[(&str, &[Row])]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in &header.0 {
        out += &format!("  \"{key}\": {value},\n");
    }
    let tagged = tables.len() > 1;
    let mut rows = Vec::new();
    for &(table, table_rows) in tables {
        for row in table_rows {
            let mut cells = Row::new();
            if tagged {
                cells = cells.text("table", table);
            }
            cells.0.extend(row.0.iter().cloned());
            rows.push(format!("    {}", cells.render()));
        }
    }
    out += &format!("  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n"));
    out
}

/// `s` as a JSON string.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            c if u32::from(c) < 0x20 => out += &format!("\\u{:04x}", u32::from(c)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// The checked-out commit, read from `.git` in the current directory
/// without running git; "unknown" outside a repository.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().into();
    };
    read(&format!(".git/{reference}"))
        .map(|rev| rev.trim().to_string())
        .or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            line.split_whitespace().next().map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host's `model name` line of `/proc/cpuinfo`.
fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let line = info.lines().find(|l| l.starts_with("model name"));
    let model = line.and_then(|l| l.split_once(':'));
    model.map_or("unknown", |(_, m)| m.trim()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"key": ` prefixes of `json`'s lines, in order.
    fn keys(json: &str) -> Vec<&str> {
        json.lines()
            .filter_map(|l| {
                l.trim()
                    .strip_prefix('"')?
                    .split_once("\": ")
                    .map(|(k, _)| k)
            })
            .collect()
    }

    #[test]
    fn the_header_comes_first_in_its_order_then_the_rows() {
        let json = render(
            &header("kron", Mode::Full, "N = 36"),
            &[("t", &[Row::new()])],
        );
        let mut want = HEADER.to_vec();
        want.push("rows");
        assert_eq!(keys(&json), want, "{json}");
        assert!(json.contains("  \"bench\": \"kron\",\n"), "{json}");
        assert!(json.contains("  \"mode\": \"full\",\n"), "{json}");
        assert!(json.contains("  \"workload\": \"N = 36\",\n"), "{json}");
    }

    #[test]
    fn missing_and_non_finite_numbers_are_null() {
        let row = Row::new()
            .num("none", None, 3)
            .num("nan", f64::NAN, 3)
            .num("inf", f64::INFINITY, 3)
            .num("x", 1.23456, 3)
            .int("n", 7);
        assert_eq!(
            row.render(),
            r#"{"none": null, "nan": null, "inf": null, "x": 1.235, "n": 7}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let row = Row::new().text("s", "a \"quoted\" C:\\path\n");
        assert_eq!(row.render(), r#"{"s": "a \"quoted\" C:\\path\u000a"}"#);
        let json = render(&header("b", Mode::Default, "say \"hi\""), &[]);
        assert!(json.contains(r#""workload": "say \"hi\"","#), "{json}");
    }

    #[test]
    fn rows_of_two_tables_are_tagged_and_one_table_is_not() {
        let a = [Row::new().int("n", 1)];
        let b = [Row::new().int("n", 2), Row::new().int("n", 3)];
        let json = render(&Row::new(), &[("cut", &a), ("products", &b)]);
        let want = "  \"rows\": [\n    {\"table\": \"cut\", \"n\": 1},\n    \
                    {\"table\": \"products\", \"n\": 2},\n    \
                    {\"table\": \"products\", \"n\": 3}\n  ]\n}\n";
        assert!(json.ends_with(want), "{json}");
        let json = render(&Row::new(), &[("cut", &a)]);
        assert!(json.ends_with("    {\"n\": 1}\n  ]\n}\n"), "{json}");
    }
}
