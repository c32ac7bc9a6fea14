//! One reader for every text the program takes: the `key = value` dialect
//! of input files (`dqmc_cli::InputFile`) and sweep grid specs
//! (`sched::GridSpec`), command lines ([`Command`]: `dqmc-run`,
//! `dqmc-serve` and every bench binary), and the item primitives of fault
//! scripts.
//!
//! `#` starts a comment. Each line is trimmed, and a non-empty one is split
//! at its first `=` into a key, case-folded, and a value. A [`Dialect`] is a
//! name, a table with one [`Key`] per setting, and an optional base dialect
//! whose keys it also accepts: both front ends extend `sched::grid`'s chain
//! table that way, so a chain key is named, read and checked in one place.
//! Every key is looked up in the dialect's own table, then in its base's,
//! aliases included, so a typo is an error rather than a silent default.
//! A key given twice keeps its last value. Values are read as a [`Value`]
//! type (integers, finite numbers, number lists, booleans, text) or a
//! [`choice`]. The same table prints its help and usage line.
//!
//! The item primitives at the end ([`items`] to [`range`]) read the fault
//! scripts: `gpusim::FaultPlan`'s and `util::vfs`'s `DQMC_VFS_FAULTS`.

use std::fmt;
use std::num::{NonZeroU64, NonZeroUsize, ParseIntError};
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::str::FromStr;

/// A malformed input: its dialect, the line, and what is wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SettingsError {
    /// The dialect's name, such as `input` or `grid spec`.
    pub dialect: &'static str,
    /// 1-based line number; 0 when the problem is the file as a whole.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for SettingsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => write!(f, "{}: {}", self.dialect, self.message),
            n => write!(f, "{} line {n}: {}", self.dialect, self.message),
        }
    }
}

impl std::error::Error for SettingsError {}

/// One setting: its name, its aliases, a value it accepts (shown in help
/// texts), and the setter that stores a value in the target `T`. Names are
/// lower case. On a command line a key whose example is empty is a switch.
pub struct Key<T>(
    pub &'static str,
    pub &'static [&'static str],
    pub &'static str,
    pub fn(&mut T, &str) -> Result<(), String>,
);

/// A `key = value` dialect: its name, used in errors and help, its key
/// table, and the base dialect whose keys it also accepts, with the part of
/// the target they set.
pub struct Dialect<T: 'static, B: 'static = T> {
    /// Names the dialect in errors and help.
    pub name: &'static str,
    /// The keys the dialect adds to its base.
    pub keys: &'static [Key<T>],
    /// The dialect this one extends.
    pub base: Option<Base<T, B>>,
}

/// A dialect that another extends, and where its target lives in the
/// other's.
pub type Base<T, B> = (&'static Dialect<B>, fn(&mut T) -> &mut B);

impl<T, B> Dialect<T, B> {
    /// Applies each assignment in `text` to `target`, in file order.
    pub fn apply(&self, target: &mut T, text: &str) -> Result<(), SettingsError> {
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let stmt = raw.split('#').next().unwrap_or("").trim();
            if stmt.is_empty() {
                continue;
            }
            let Some((key, value)) = stmt.split_once('=') else {
                return Err(self.error(line, format!("expected 'key = value', got '{stmt}'")));
            };
            let key = key.trim().to_ascii_lowercase();
            self.set(target, &key, value.trim())
                .ok_or_else(|| self.error(line, format!("unknown key '{key}'")))?
                .map_err(|m| self.error(line, m))?;
        }
        Ok(())
    }

    /// Applies a command line to `target` and returns its operands in
    /// order. `--name value` sets key `name` and `-x value` the key with
    /// alias `x`; a switch takes no value and reads `yes`. A word that does
    /// not start with `-`, or is `-` alone, is an operand; any other word is
    /// an unknown flag. Only the dialect's own keys are flags, and a flag
    /// given twice keeps its last value.
    pub fn apply_args<'a>(
        &self,
        target: &mut T,
        args: &'a [String],
    ) -> Result<Vec<&'a str>, SettingsError> {
        let mut operands = Vec::new();
        let mut words = args.iter().map(String::as_str);
        while let Some(word) = words.next() {
            if !word.starts_with('-') || word == "-" {
                operands.push(word);
                continue;
            }
            let named = |Key(name, aliases, ..): &&Key<T>| match word.strip_prefix("--") {
                Some(long) => *name == long,
                None => aliases.contains(&&word[1..]),
            };
            let Some(Key(_, _, example, set)) = self.keys.iter().find(named) else {
                return Err(self.error(0, format!("unknown flag '{word}'")));
            };
            let value = if example.is_empty() {
                "yes"
            } else {
                words
                    .next()
                    .ok_or_else(|| self.error(0, format!("{word} needs a value")))?
            };
            set(target, value).map_err(|m| self.error(0, format!("{word}: {m}")))?;
        }
        Ok(operands)
    }

    /// Sets `key` through this table or its base's; `None` when neither
    /// has it.
    fn set(&self, target: &mut T, key: &str, value: &str) -> Option<Result<(), String>> {
        let own = self
            .keys
            .iter()
            .find(|Key(name, aliases, ..)| *name == key || aliases.contains(&key));
        match own {
            Some(Key(.., set)) => Some(set(target, value)),
            None => self
                .base
                .and_then(|(base, part)| base.set(part(target), key, value)),
        }
    }

    /// An error of this dialect on `line` (0 for the whole file).
    pub fn error(&self, line: usize, message: String) -> SettingsError {
        SettingsError {
            dialect: self.name,
            line,
            message,
        }
    }

    /// The key tables as help text: one `key|alias = example` line per
    /// key, this dialect's block first and its base's after it.
    pub fn help(&self) -> String {
        let mut out = format!("{} keys (key|alias = example):\n", self.name);
        for Key(name, aliases, example, _) in self.keys {
            let mut names = vec![*name];
            names.extend(*aliases);
            out += &format!("  {} = {example}\n", names.join("|"));
        }
        if let Some((base, _)) = self.base {
            out += &base.help();
        }
        out
    }

    /// The command line as usage shows it: the dialect's name, `operands`,
    /// then `[--name|-alias example]` per key, `[--name]` for a switch.
    pub fn usage(&self, operands: &str) -> String {
        let mut out = format!("{} {operands}", self.name).trim_end().to_string();
        for Key(name, aliases, example, _) in self.keys {
            out += &format!(" [--{name}");
            for alias in *aliases {
                out += &format!("|-{alias}");
            }
            if !example.is_empty() {
                out += &format!(" {example}");
            }
            out += "]";
        }
        out
    }
}

/// A value type of the dialect: its type picks how text is read.
pub trait Value: Sized {
    /// Reads `text` (already trimmed), or says why it cannot.
    fn read(text: &str) -> Result<Self, String>;
}

/// Reads `text` into `slot` by the slot's type: the setter of most keys.
pub fn put<V: Value>(slot: &mut V, text: &str) -> Result<(), String> {
    *slot = V::read(text)?;
    Ok(())
}

macro_rules! parsed {
    ($($t:ty => $what:expr,)*) => {$(
        impl Value for $t {
            fn read(v: &str) -> Result<Self, String> {
                v.parse().map_err(|_| format!("'{v}' is not {}", $what))
            }
        }
    )*};
}

parsed! {
    usize => "a non-negative integer",
    u8 => format!("an integer in 0..={}", u8::MAX),
    u32 => format!("an integer in 0..={}", u32::MAX),
    u64 => format!("an integer in 0..={}", u64::MAX),
    NonZeroUsize => "a positive integer",
    NonZeroU64 => "a positive integer",
    String => "text",
    PathBuf => "a path",
}

/// A value that may be absent: giving one sets it.
impl<V: Value> Value for Option<V> {
    fn read(v: &str) -> Result<Self, String> {
        V::read(v).map(Some)
    }
}

/// A finite number: `str::parse` also takes `nan` and `inf`, which pass
/// every `x < 0.0` test and panic the engine.
impl Value for f64 {
    fn read(v: &str) -> Result<Self, String> {
        match v.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            _ => Err(format!("'{v}' is not a finite number")),
        }
    }
}

/// Comma-separated finite numbers.
impl Value for Vec<f64> {
    fn read(v: &str) -> Result<Self, String> {
        v.split(',').map(|x| f64::read(x.trim())).collect()
    }
}

/// `true/yes/on/1` or `false/no/off/0`, in any case.
impl Value for bool {
    fn read(v: &str) -> Result<Self, String> {
        match v.to_ascii_lowercase().as_str() {
            "true" | "yes" | "on" | "1" => Ok(true),
            "false" | "no" | "off" | "0" => Ok(false),
            _ => Err(format!(
                "'{v}' is not a boolean (true/yes/on/1 or false/no/off/0)"
            )),
        }
    }
}

/// One of `names` (lower case), in any case; `what` names the setting in
/// the error.
pub fn choice<C: Copy>(v: &str, what: &str, names: &[(&str, C)]) -> Result<C, String> {
    let folded = v.to_ascii_lowercase();
    match names.iter().find(|(name, _)| *name == folded) {
        Some(&(_, c)) => Ok(c),
        None => {
            let all: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
            Err(format!("unknown {what} '{v}' (one of {})", all.join(", ")))
        }
    }
}

/// Prints `message` to stderr and exits with `code`.
pub fn fail(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(code)
}

/// A command line: its flag table (named by the command's leading words),
/// its operands as usage shows them, and how a fresh command struct is
/// made and takes its operands.
pub struct Command<T: 'static> {
    /// The flags.
    pub flags: Dialect<T>,
    /// The operands, as usage shows them.
    pub operands: &'static str,
    /// The command with every default.
    pub init: fn() -> T,
    /// Stores the operands, or says what is wrong with them.
    pub take: fn(&mut T, &[&str]) -> Result<(), String>,
    /// What the help prints after the usage line.
    pub more: fn() -> String,
}

impl<T> Command<T> {
    /// Reads a command line: the words after the command's name.
    pub fn parse(&self, args: &[String]) -> Result<T, SettingsError> {
        let mut cmd = (self.init)();
        let operands = self.flags.apply_args(&mut cmd, args)?;
        (self.take)(&mut cmd, &operands).map_err(|m| self.flags.error(0, m))?;
        Ok(cmd)
    }

    /// The usage line, without its `usage: ` prefix.
    pub fn usage(&self) -> String {
        self.flags.usage(self.operands)
    }

    /// The exit policy of every command: `--help` or `-h` prints the help
    /// to stderr and exits 0. A usage error exits 2 after printing the
    /// help when the command line is empty, and itself and the usage line
    /// when not.
    pub fn read(&self, args: &[String]) -> T {
        let help = format!("usage: {}\n{}", self.usage(), (self.more)());
        if args.iter().any(|a| a == "--help" || a == "-h") {
            eprint!("{help}");
            std::process::exit(0);
        }
        self.parse(args).unwrap_or_else(|e| match args {
            [] => fail(2, help.trim_end()),
            _ => fail(2, format!("{e}\nusage: {}", self.usage())),
        })
    }
}

/// The one operand of a command that reads one file.
pub fn one(operands: &[&str]) -> Result<String, String> {
    match operands {
        [] => Err("missing operand".into()),
        [file, rest @ ..] => none(rest).map(|()| file.to_string()),
    }
}

/// The operands of a command that takes none.
pub fn none(operands: &[&str]) -> Result<(), String> {
    operands
        .first()
        .map_or(Ok(()), |extra| Err(format!("unexpected operand '{extra}'")))
}

/// Why an item primitive refused its text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ItemError {
    /// Not an integer of the reader's type: the parser's reason.
    NotInteger(ParseIntError),
    /// An integer outside the reader's range, such as an ordinal of 0 or
    /// a factor of 1.
    OutOfRange,
    /// A `lo-hi` range whose `lo` exceeds its `hi`.
    Reversed,
}

/// The items of a `sep`-separated list, trimmed; blank items are skipped.
pub fn items(list: &str, sep: char) -> impl Iterator<Item = &str> {
    list.split(sep)
        .map(str::trim)
        .filter(|item| !item.is_empty())
}

/// `head⟨sep⟩rest` split at the first `sep`, both halves trimmed; `None`
/// when `text` has no `sep`.
pub fn split(text: &str, sep: char) -> Option<(&str, &str)> {
    text.split_once(sep)
        .map(|(head, rest)| (head.trim(), rest.trim()))
}

/// An integer in `allowed`.
pub fn int_in<T>(text: &str, allowed: RangeInclusive<T>) -> Result<T, ItemError>
where
    T: FromStr<Err = ParseIntError> + PartialOrd,
{
    let n = text.trim().parse().map_err(ItemError::NotInteger)?;
    allowed
        .contains(&n)
        .then_some(n)
        .ok_or(ItemError::OutOfRange)
}

/// A 1-based ordinal.
pub fn ordinal(text: &str) -> Result<u64, ItemError> {
    int_in(text, 1..=u64::MAX)
}

/// An integer factor of at least 2: a factor of 1 would be a no-op
/// disguised as a fault.
pub fn factor(text: &str) -> Result<u32, ItemError> {
    int_in(text, 2..=u32::MAX)
}

/// `lo-hi`, two ordinals with `lo <= hi`; a lone ordinal `n` reads as
/// `n-n`.
pub fn range(text: &str) -> Result<(u64, u64), ItemError> {
    let (lo, hi) = split(text, '-').unwrap_or((text, text));
    let (lo, hi) = (ordinal(lo)?, ordinal(hi)?);
    (lo <= hi).then_some((lo, hi)).ok_or(ItemError::Reversed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Probe {
        n: usize,
        on: bool,
    }

    const PROBE: Dialect<Probe> = Dialect {
        name: "probe",
        keys: &[
            Key("n", &["count"], "3", |p, v| put(&mut p.n, v)),
            Key("on", &[], "yes", |p, v| put(&mut p.on, v)),
        ],
        base: None,
    };

    #[derive(Debug, Default)]
    struct Outer {
        probe: Probe,
        tag: u32,
    }

    const OUTER: Dialect<Outer, Probe> = Dialect {
        name: "outer",
        keys: &[Key("tag", &[], "1", |o, v| put(&mut o.tag, v))],
        base: Some((&PROBE, |o| &mut o.probe)),
    };

    fn parse(text: &str) -> Result<Probe, SettingsError> {
        let mut p = Probe::default();
        PROBE.apply(&mut p, text).map(|()| p)
    }

    #[test]
    fn lexer_trims_folds_comments_and_keeps_the_last_assignment() {
        let p = parse("# header\n\n  N = 2   # first\nCOUNT=5\n On = ON\n").unwrap();
        assert_eq!((p.n, p.on), (5, true));
        let e = parse("n = 1\n\nn 2\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("expected 'key = value'"), "{e}");
        let e = parse("n = 1\nbogus = 7\n").unwrap_err();
        assert_eq!(e.to_string(), "probe line 2: unknown key 'bogus'");
    }

    #[test]
    fn a_base_table_sets_its_part_under_the_outer_name() {
        let mut o = Outer::default();
        OUTER
            .apply(&mut o, "count = 4\ntag = 9\non = yes\n")
            .unwrap();
        assert_eq!((o.probe.n, o.tag, o.probe.on), (4, 9, true));
        let e = OUTER.apply(&mut o, "tag = 1\nn = x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().starts_with("outer line 2: "), "{e}");
        let e = OUTER.apply(&mut o, "bogus = 1\n").unwrap_err();
        assert_eq!(e.to_string(), "outer line 1: unknown key 'bogus'");
        assert_eq!(
            OUTER.help(),
            "outer keys (key|alias = example):\n  tag = 1\n\
             probe keys (key|alias = example):\n  n|count = 3\n  on = yes\n"
        );
    }

    #[test]
    fn whole_file_errors_name_no_line() {
        assert_eq!(PROBE.error(0, "empty".into()).to_string(), "probe: empty");
    }

    #[test]
    fn readers_accept_one_vocabulary() {
        for v in ["TRUE", "yes", "on", "1"] {
            assert_eq!(bool::read(v), Ok(true));
        }
        for v in ["false", "No", "off", "0"] {
            assert_eq!(bool::read(v), Ok(false));
        }
        assert!(bool::read("maybe").unwrap_err().contains("not a boolean"));
        assert_eq!(Vec::<f64>::read("1, 2.5,3"), Ok(vec![1.0, 2.5, 3.0]));
        for v in ["nan", "inf", "", "x"] {
            assert!(
                f64::read(v).unwrap_err().contains("not a finite number"),
                "{v}"
            );
        }
        assert!(usize::read("-1").is_err());
        assert!(u32::read("4294967296")
            .unwrap_err()
            .contains("0..=4294967295"));
        assert_eq!(u64::read("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(
            u8::read("256").unwrap_err(),
            "'256' is not an integer in 0..=255"
        );
        assert!(NonZeroUsize::read("0").unwrap_err().contains("positive"));
        assert_eq!(
            Option::<PathBuf>::read("a/b"),
            Ok(Some(PathBuf::from("a/b")))
        );
        let names = [("a", 1), ("alpha", 1), ("b", 2)];
        assert_eq!(choice("ALPHA", "letter", &names), Ok(1));
        assert_eq!(
            choice("c", "letter", &names).unwrap_err(),
            "unknown letter 'c' (one of a, alpha, b)"
        );
    }

    #[derive(Debug, Default)]
    struct Line {
        out: Option<String>,
        keep: bool,
        n: usize,
    }

    const LINE: Dialect<Line> = Dialect {
        name: "probe-cmd",
        keys: &[
            Key("out", &["o"], "x.json", |l, v| put(&mut l.out, v)),
            Key("keep", &[], "", |l, v| put(&mut l.keep, v)),
            Key("n", &[], "3", |l, v| put(&mut l.n, v)),
        ],
        base: None,
    };

    fn command(line: &str) -> Result<(Line, Vec<String>), SettingsError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut l = Line::default();
        let operands = LINE.apply_args(&mut l, &args)?;
        Ok((l, operands.into_iter().map(String::from).collect()))
    }

    #[test]
    fn a_command_line_keeps_operand_order_and_reads_switches_and_aliases() {
        let (l, operands) = command("a -o x.json b --keep --n 4 - c").unwrap();
        assert_eq!(operands, ["a", "b", "-", "c"]);
        assert_eq!((l.out.as_deref(), l.keep, l.n), (Some("x.json"), true, 4));
        let (l, operands) = command("a").unwrap();
        assert_eq!(
            (l.out, l.keep, l.n, operands),
            (None, false, 0, vec!["a".into()])
        );
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let (l, _) = command("--n 1 -o a --n 2 --out b").unwrap();
        assert_eq!((l.n, l.out.as_deref()), (2, Some("b")));
    }

    #[test]
    fn flag_errors_name_the_flag() {
        for (line, says) in [
            ("a --bogus b", "probe-cmd: unknown flag '--bogus'"),
            ("--o x", "probe-cmd: unknown flag '--o'"),
            ("-out x", "probe-cmd: unknown flag '-out'"),
            ("a --n", "probe-cmd: --n needs a value"),
            ("--n x", "probe-cmd: --n: 'x' is not a non-negative integer"),
        ] {
            assert_eq!(command(line).unwrap_err().to_string(), says, "{line}");
        }
    }

    #[test]
    fn usage_renders_the_flag_table() {
        let flags = "[--out|-o x.json] [--keep] [--n 3]";
        assert_eq!(LINE.usage("<file>"), format!("probe-cmd <file> {flags}"));
        assert_eq!(LINE.usage(""), format!("probe-cmd {flags}"));
    }

    #[test]
    fn help_lists_every_key_and_alias_with_its_example() {
        assert_eq!(
            PROBE.help(),
            "probe keys (key|alias = example):\n  n|count = 3\n  on = yes\n"
        );
    }
}
