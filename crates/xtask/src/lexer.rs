//! Minimal Rust source scanner for the lint pass.
//!
//! Not a parser: the rules only need (a) code text with comments and string
//! literals blanked out, (b) brace depth, (c) the span of each named `fn`,
//! and (d) which lines sit inside a `#[cfg(test)] mod`. A character-level
//! state machine provides all four; `syn` would be overkill and would drag
//! in dependencies this offline build cannot fetch.

use std::path::PathBuf;

/// Span of one named function (free function or method).
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// Identifier after the `fn` keyword.
    pub name: String,
    /// Declared with plain `pub` (not `pub(crate)` etc.).
    pub is_pub: bool,
    /// Declared at brace depth 0 (a module-level free function).
    pub free: bool,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based inclusive line range of the body, `{` through `}`.
    pub body: (usize, usize),
}

/// One scanned source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Path as it should appear in reports.
    pub path: PathBuf,
    /// Raw lines (for comment-content checks: SAFETY notes, pragmas).
    pub raw: Vec<String>,
    /// Lines with comments and string/char literals blanked to spaces.
    pub code: Vec<String>,
    /// Per line: inside a `#[cfg(test)] mod` body.
    pub is_test: Vec<bool>,
    /// All named functions, in source order.
    pub fns: Vec<FnSpan>,
    /// Brace depth at the start of each line.
    pub depth_start: Vec<usize>,
    /// Brace depth after the last brace of each line.
    pub depth_end: Vec<usize>,
}

impl SourceFile {
    /// Scans `text` (the contents of `path`).
    pub fn scan(path: PathBuf, text: &str) -> SourceFile {
        let raw: Vec<String> = text.lines().map(str::to_owned).collect();
        let code = blank_noncode(text);
        debug_assert_eq!(code.len(), raw.len());
        let fns = find_fns(&code);
        let is_test = mark_test_lines(&code);
        let (depth_start, depth_end) = line_depths(&code);
        SourceFile {
            path,
            raw,
            code,
            is_test,
            fns,
            depth_start,
            depth_end,
        }
    }

    /// The innermost function whose body contains `line`, if any.
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body.0 <= line && line <= f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }

    /// Last line of the block a statement on `line` lives in: the first
    /// subsequent line whose closing braces drop below the depth `line`
    /// starts at. A `let` guard bound on `line` is dropped there (absent an
    /// explicit `drop`). Returns the final line when the block never closes.
    pub fn scope_end(&self, line: usize) -> usize {
        let d = self.depth_start[line];
        for m in line..self.code.len() {
            if self.depth_end[m] < d {
                return m;
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// True if any raw line in the contiguous comment/attribute block
    /// directly above `line` (or `line` itself) contains `needle`.
    pub fn comment_block_above_contains(&self, line: usize, needle: &str) -> bool {
        if self.raw.get(line).is_some_and(|l| l.contains(needle)) {
            return true;
        }
        let mut i = line;
        while i > 0 {
            i -= 1;
            let t = self.raw[i].trim_start();
            let is_comment = t.starts_with("//");
            let is_attr = t.starts_with("#[") || t.starts_with("#![");
            if !(is_comment || is_attr) {
                break;
            }
            if t.contains(needle) {
                return true;
            }
        }
        false
    }
}

/// Blanks comments and string/char literals to spaces, preserving line
/// structure so line/column bookkeeping stays valid.
fn blank_noncode(text: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Str;
                    out.push(' ');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        st = St::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: a literal is 'x' or '\...'.
                    let is_char =
                        next == Some('\\') || (next.is_some() && chars.get(i + 2) == Some(&'\''));
                    if is_char {
                        st = St::Char;
                        out.push(' ');
                    } else {
                        out.push(c); // lifetime, leave as code
                    }
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
                continue;
            }
            St::BlockComment(d) => {
                if c == '\n' {
                    out.push('\n');
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(d + 1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                } else if c == '*' && next == Some('/') {
                    st = if d == 1 {
                        St::Code
                    } else {
                        St::BlockComment(d - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                    continue;
                } else {
                    out.push(' ');
                }
                i += 1;
                continue;
            }
            St::Str => {
                if c == '\\' {
                    // Keep an escaped newline (string line-continuation) so
                    // line bookkeeping survives.
                    out.push(' ');
                    out.push(if next == Some('\n') { '\n' } else { ' ' });
                    i += 2;
                    continue;
                }
                if c == '"' {
                    st = St::Code;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if chars.get(i + 1 + k as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes {
                            out.push(' ');
                        }
                        st = St::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
            St::Char => {
                if c == '\\' {
                    out.push(' ');
                    out.push(if next == Some('\n') { '\n' } else { ' ' });
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    st = St::Code;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
            }
        }
        i += 1;
    }
    out.lines().map(str::to_owned).collect()
}

/// Splits a blanked code line into identifier-ish word tokens.
pub fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// Finds every named `fn` and its body line span by brace counting.
fn find_fns(code: &[String]) -> Vec<FnSpan> {
    struct Pending {
        name: String,
        is_pub: bool,
        free: bool,
        sig_line: usize,
    }
    let mut fns = Vec::new();
    let mut open: Vec<(usize, usize)> = Vec::new(); // (fns index, depth after open)
    let mut pending: Option<Pending> = None;
    let mut depth = 0usize;

    for (ln, line) in code.iter().enumerate() {
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                if word == "fn" {
                    // Must be followed by an identifier (not an `fn(..)` type).
                    let rest: String = bytes[i..].iter().collect();
                    let after = rest.trim_start();
                    let name: String = after
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() {
                        // `pub` must appear just before `fn` on this line
                        // (possibly with `unsafe`/`const`/`extern` between);
                        // `pub(crate)` and friends don't count as public API.
                        let before: String = bytes[..start].iter().collect();
                        let is_pub = words(&before).any(|w| w == "pub") && !before.contains("pub(");
                        pending = Some(Pending {
                            name,
                            is_pub,
                            free: depth == 0,
                            sig_line: ln,
                        });
                    }
                }
                continue;
            }
            match c {
                '{' => {
                    depth += 1;
                    if let Some(p) = pending.take() {
                        fns.push(FnSpan {
                            name: p.name,
                            is_pub: p.is_pub,
                            free: p.free,
                            sig_line: p.sig_line,
                            body: (ln, ln),
                        });
                        open.push((fns.len() - 1, depth));
                    }
                }
                '}' => {
                    if let Some(&(idx, d)) = open.last() {
                        if d == depth {
                            fns[idx].body.1 = ln;
                            open.pop();
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                ';' => {
                    // Bodiless declaration (trait method): cancel.
                    pending = None;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fns
}

/// Brace depth at the start and end of every blanked code line. Uses the
/// same counting discipline as [`find_fns`], so the two views agree.
fn line_depths(code: &[String]) -> (Vec<usize>, Vec<usize>) {
    let mut start = Vec::with_capacity(code.len());
    let mut end = Vec::with_capacity(code.len());
    let mut depth = 0usize;
    for line in code {
        start.push(depth);
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        end.push(depth);
    }
    (start, end)
}

/// Marks every line inside a `#[cfg(test)] mod … { … }` body.
fn mark_test_lines(code: &[String]) -> Vec<bool> {
    let mut out = vec![false; code.len()];
    let mut ln = 0;
    while ln < code.len() {
        if code[ln].contains("#[cfg(test)]") {
            // The attribute must introduce a `mod` within the next few lines
            // (other cfg(test) targets — fns, use items — are not modules).
            let mut m = ln + 1;
            let mut found_mod = false;
            while m < code.len() && m <= ln + 3 {
                let t = code[m].trim_start();
                if t.starts_with("mod ") || t.starts_with("pub mod ") {
                    found_mod = true;
                    break;
                }
                if !(t.is_empty() || t.starts_with("#[")) {
                    break;
                }
                m += 1;
            }
            if found_mod {
                // Walk from the mod line to its matching close brace.
                let mut depth = 0i64;
                let mut opened = false;
                let mut l = m;
                'outer: while l < code.len() {
                    out[l] = true;
                    for c in code[l].chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => {
                                depth -= 1;
                                if opened && depth == 0 {
                                    break 'outer;
                                }
                            }
                            _ => {}
                        }
                    }
                    l += 1;
                }
                ln = l;
            }
        }
        ln += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> SourceFile {
        SourceFile::scan(PathBuf::from("mem.rs"), src)
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = scan("let s = \"vec![not code]\"; // vec! in comment\nlet v = 1;\n");
        assert!(!f.code[0].contains("vec!"));
        assert!(f.code[1].contains("let v = 1;"));
        assert!(f.raw[0].contains("vec! in comment"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = scan("a /* one /* two */ still */ b\n/* open\n   close */ c\n");
        assert!(f.code[0].contains('a') && f.code[0].contains('b'));
        assert!(!f.code[0].contains("still"));
        assert!(!f.code[1].contains("open"));
        assert!(f.code[2].contains('c'));
    }

    #[test]
    fn char_vs_lifetime() {
        let f = scan("let c = 'x'; fn g<'a>(v: &'a [f64]) {}\n");
        assert!(!f.code[0].contains('x'));
        assert!(f.code[0].contains("'a"));
    }

    #[test]
    fn fn_spans_cover_bodies_and_nesting() {
        let src = "pub fn outer() {\n    let v = 1;\n    fn inner() {\n        let w = 2;\n    }\n}\nfn after() {}\n";
        let f = scan(src);
        let names: Vec<&str> = f.fns.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner", "after"]);
        assert_eq!(f.fns[0].body, (0, 5));
        assert_eq!(f.fns[1].body, (2, 4));
        assert!(f.fns[0].is_pub && f.fns[0].free);
        assert!(!f.fns[1].free);
        assert_eq!(f.enclosing_fn(3).unwrap().name, "inner");
        assert_eq!(f.enclosing_fn(1).unwrap().name, "outer");
    }

    #[test]
    fn impl_methods_are_not_free() {
        let f = scan("struct S;\nimpl S {\n    pub fn m(&self) {}\n}\n");
        assert_eq!(f.fns.len(), 1);
        assert!(f.fns[0].is_pub && !f.fns[0].free);
    }

    #[test]
    fn cfg_test_mod_lines_are_marked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let v = vec![1]; }\n}\nfn tail() {}\n";
        let f = scan(src);
        assert!(!f.is_test[0]);
        assert!(f.is_test[3]);
        assert!(!f.is_test[5]);
    }

    #[test]
    fn depths_and_scope_helpers() {
        let src = "fn f() {\n    let g = m.lock();\n    if a {\n        x;\n    }\n    if b {\n        y;\n    }\n}\n";
        let f = scan(src);
        assert_eq!(f.depth_start, [0, 1, 1, 2, 2, 1, 2, 2, 1]);
        assert_eq!(f.depth_end, [1, 1, 2, 2, 1, 2, 2, 1, 0]);
        // The guard on line 1 lives until the fn's closing brace (line 8).
        assert_eq!(f.scope_end(1), 8);
        // Inner statements die at their own block's close.
        assert_eq!(f.scope_end(3), 4);
    }

    #[test]
    fn comment_block_scan_stops_at_code() {
        let src = "let x = 1;\n// SAFETY: fine\n#[inline]\nunsafe { x }\nunsafe { x }\n";
        let f = scan(src);
        assert!(f.comment_block_above_contains(3, "SAFETY:"));
        assert!(!f.comment_block_above_contains(4, "SAFETY:"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a random well-formed source from op codes, returning the
    /// text, the expected brace depth at the start of every line, and the
    /// number of named fns emitted. Strings and comments deliberately
    /// contain unbalanced braces and fake `fn` keywords.
    fn build(ops: &[u8]) -> (String, Vec<usize>, usize) {
        let mut src = String::new();
        let mut depth = 0usize;
        let mut starts = Vec::new();
        let mut nfns = 0usize;
        for (i, op) in ops.iter().enumerate() {
            starts.push(depth);
            match op {
                0 => {
                    src.push_str("if x {\n");
                    depth += 1;
                }
                1 if depth > 0 => {
                    src.push_str("}\n");
                    depth -= 1;
                }
                1 | 2 => src.push_str("let a = b + 1;\n"),
                3 => src.push_str("let s = \"} } fn bogus() { {\";\n"),
                4 => src.push_str("// } fn nope() { unsafe\n"),
                _ => {
                    src.push_str(&format!("fn f{i}() {{\n"));
                    depth += 1;
                    nfns += 1;
                }
            }
        }
        while depth > 0 {
            starts.push(depth);
            src.push_str("}\n");
            depth -= 1;
        }
        (src, starts, nfns)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn depths_track_braces_through_strings_and_comments(
            ops in proptest::collection::vec(0u8..=5, 1..=60),
        ) {
            let (src, starts, nfns) = build(&ops);
            let f = SourceFile::scan(PathBuf::from("gen.rs"), &src);
            prop_assert_eq!(&f.depth_start, &starts);
            // Start/end views agree line to line, and everything closes.
            for i in 1..f.code.len() {
                prop_assert_eq!(f.depth_start[i], f.depth_end[i - 1]);
            }
            prop_assert_eq!(*f.depth_end.last().unwrap(), 0);
            // Braces in strings and comments never minted a phantom fn.
            prop_assert_eq!(f.fns.len(), nfns);
        }

        #[test]
        fn spans_and_scope_helpers_stay_consistent(
            ops in proptest::collection::vec(0u8..=5, 1..=60),
        ) {
            let (src, _, _) = build(&ops);
            let f = SourceFile::scan(PathBuf::from("gen.rs"), &src);
            for fun in &f.fns {
                prop_assert!(fun.body.0 <= fun.body.1);
                prop_assert!(fun.body.1 < f.code.len());
                let mid = (fun.body.0 + fun.body.1) / 2;
                let enc = f.enclosing_fn(mid).expect("mid-body line has a fn");
                prop_assert!(enc.body.0 <= mid && mid <= enc.body.1);
            }
            for ln in 0..f.code.len() {
                let end = f.scope_end(ln);
                prop_assert!(end >= ln && end < f.code.len());
                // String contents are blanked wholesale.
                prop_assert!(!f.code[ln].contains('"'));
            }
        }
    }
}
