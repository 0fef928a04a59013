//! Panic-free argv helpers shared by every front end: `pmevo-cli`,
//! `pmevo-serve` and the `pmevo-bench` reproduction binaries.
//!
//! A flag is read by name from the raw argument list; the first
//! occurrence wins ([`flag_all`] reads every one). The limits, up front:
//!
//! * a value flag takes the next token as its value, and that token may
//!   not start with `--` — a value flag that is the last token or is
//!   followed by another `--flag` is an error, never silently skipped;
//! * a switch ([`switch`]) is a bare `--name` and takes no value;
//! * unknown flags and stray tokens are not diagnosed.
//!
//! Every failure is an [`Exit`]: an `error: …` message for stderr and an
//! exit code. The contract for every front end is 0 on success, 1 on a
//! malformed flag value or a runtime failure, and 2 on a usage error or
//! an unknown name. [`run`] turns a front end's `Result` into that code.

use crate::selection::{MeasurementBudget, SelectionPolicy};
use std::process::ExitCode;
use std::str::FromStr;

/// Why a front end stops early: the message for stderr, the exit code,
/// and whether the front end's usage text should follow the message.
///
/// A plain `String` from a flag parser converts into an exit-1 error
/// with usage, so every flag read in a front end is one `?`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exit {
    /// The process exit code (1 or 2, see the module docs).
    pub code: u8,
    /// The message printed to stderr; empty prints nothing.
    pub message: String,
    /// Whether the usage text follows the message.
    pub usage: bool,
}

impl Exit {
    /// A runtime failure (I/O, decoding, …): exit 1, no usage text.
    pub fn failure(message: impl Into<String>) -> Self {
        Exit { code: 1, message: message.into(), usage: false }
    }

    /// A usage error or an unknown name: exit 2, no usage text.
    pub fn usage_error(message: impl Into<String>) -> Self {
        Exit { code: 2, message: message.into(), usage: false }
    }

    /// The same error, followed by the usage text.
    pub fn with_usage(self) -> Self {
        Exit { usage: true, ..self }
    }
}

impl From<String> for Exit {
    /// A malformed flag value: exit 1, with usage text.
    fn from(message: String) -> Self {
        Exit { code: 1, message, usage: true }
    }
}

/// Runs a front end's `body` over the process arguments (program name
/// skipped). `Ok` exits 0; an [`Exit`] prints its message, then `usage`
/// if it asks for it, and exits with its code.
pub fn run(usage: &str, body: impl FnOnce(&[String]) -> Result<(), Exit>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match body(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(exit) => {
            if !exit.message.is_empty() {
                eprintln!("{}", exit.message);
            }
            if exit.usage && !usage.is_empty() {
                eprintln!("{usage}");
            }
            ExitCode::from(exit.code)
        }
    }
}

/// Whether the switch `name` (`--full`) is present.
pub fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value following occurrence `i` of the flag `name`.
fn value_at(args: &[String], name: &str, i: usize) -> Result<String, String> {
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(v.clone()),
        _ => Err(format!("error: {name} expects a value")),
    }
}

/// The value following the first occurrence of `name`, if present.
///
/// # Errors
///
/// `error: --out expects a value` when the flag has no value.
pub fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    args.iter()
        .position(|a| a == name)
        .map(|i| value_at(args, name, i))
        .transpose()
}

/// The values following every occurrence of `name`, in order.
///
/// # Errors
///
/// As [`flag`], for any occurrence without a value.
pub fn flag_all(args: &[String], name: &str) -> Result<Vec<String>, String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .map(|(i, _)| value_at(args, name, i))
        .collect()
}

/// Parses the numeric flag `name`, falling back to `default` when the
/// flag is absent.
///
/// # Errors
///
/// `error: --jobs expects a number, got "abc"`-style message when the
/// value does not parse, or as [`flag`].
pub fn num_flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("error: {name} expects a number, got {v:?}")),
    }
}

/// [`num_flag`] for counts that must be at least 1 (worker pools, batch
/// windows: a zero silently degenerates — e.g. `--batch 0` would make
/// every flush threshold trivially true — so it is rejected loudly).
///
/// # Errors
///
/// As [`num_flag`], plus `error: --jobs must be at least 1, got 0`.
pub fn positive_flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match num_flag(args, name, default)? {
        0 => Err(format!("error: {name} must be at least 1, got 0")),
        n => Ok(n),
    }
}

/// Parses the comma-separated list flag `name` (`--budgets 24,48`),
/// falling back to the list `default` when the flag is absent. Items
/// are trimmed; an empty item is malformed.
///
/// # Errors
///
/// `error: --budgets expects a comma-separated list, got "24,x"` when
/// an item is empty or does not parse, or as [`flag`].
pub fn list_flag<T: FromStr>(args: &[String], name: &str, default: &str) -> Result<Vec<T>, String> {
    let v = flag(args, name)?.unwrap_or_else(|| default.to_owned());
    v.split(',')
        .map(|item| match item.trim() {
            "" => None,
            item => item.parse().ok(),
        })
        .collect::<Option<_>>()
        .ok_or_else(|| format!("error: {name} expects a comma-separated list, got {v:?}"))
}

/// Parses the byte-count flag `name` (`--store-budget 64m`): a plain
/// number of bytes, optionally suffixed `k`/`m`/`g` (case-insensitive,
/// powers of 1024). Absent means `None` — no budget.
///
/// # Errors
///
/// `error: --store-budget expects bytes (with an optional k/m/g
/// suffix), got "..."` on malformed values and on multiplier overflow,
/// or as [`flag`].
pub fn byte_flag(args: &[String], name: &str) -> Result<Option<u64>, String> {
    let Some(v) = flag(args, name)? else {
        return Ok(None);
    };
    let bad = || format!("error: {name} expects bytes (with an optional k/m/g suffix), got {v:?}");
    let (digits, shift) = match v.char_indices().last() {
        Some((i, c)) if c.eq_ignore_ascii_case(&'k') => (&v[..i], 10),
        Some((i, c)) if c.eq_ignore_ascii_case(&'m') => (&v[..i], 20),
        Some((i, c)) if c.eq_ignore_ascii_case(&'g') => (&v[..i], 30),
        _ => (v.as_str(), 0),
    };
    let n: u64 = digits.trim().parse().map_err(|_| bad())?;
    n.checked_shl(shift)
        .filter(|scaled| scaled >> shift == n)
        .map(Some)
        .ok_or_else(bad)
}

/// The exit-2 error for a name no table knows:
/// `error: unknown --platform NOPE; expected SKL, ZEN, A72 or TINY`.
pub fn unknown_name(name: &str, value: &str, expected: &str) -> Exit {
    Exit::usage_error(format!("error: unknown {name} {value}; expected {expected}"))
}

/// Resolves the name flag `name` through its name `table`
/// (`platforms::by_name`, …). Absent is `Ok(None)`.
///
/// # Errors
///
/// [`unknown_name`] listing `expected` when the table does not know the
/// value, or as [`flag`].
pub fn name_flag<T>(
    args: &[String],
    name: &str,
    expected: &str,
    table: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, Exit> {
    let Some(value) = flag(args, name)? else {
        return Ok(None);
    };
    table(&value).map(Some).ok_or_else(|| unknown_name(name, &value, expected))
}

/// The shared experiment-selection flags: `--selection
/// one-shot|disagreement|uniform` (default `one-shot`) with `--top-k N`
/// (default 16, at least 1) for the round-based policies.
///
/// # Errors
///
/// As [`positive_flag`] and [`name_flag`].
pub fn selection_flag(args: &[String]) -> Result<SelectionPolicy, Exit> {
    let top_k = positive_flag(args, "--top-k", 16)?;
    let policy = name_flag(args, "--selection", SelectionPolicy::NAMES, |name| {
        SelectionPolicy::from_name(name, top_k).ok()
    })?;
    Ok(policy.unwrap_or(SelectionPolicy::OneShot))
}

/// The shared `--budget N` flag (maximum real measurements); absent or
/// 0 means unlimited.
///
/// # Errors
///
/// As [`num_flag`].
pub fn budget_flag(args: &[String]) -> Result<MeasurementBudget, String> {
    Ok(match num_flag(args, "--budget", 0u64)? {
        0 => MeasurementBudget::UNLIMITED,
        n => MeasurementBudget::measurements(n),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_resolve_first_and_all_occurrences() {
        let a = args(&["--mapping", "A=a.json", "--jobs", "4", "--mapping", "B=b.json"]);
        assert_eq!(flag(&a, "--jobs"), Ok(Some("4".to_string())));
        assert_eq!(flag(&a, "--cache"), Ok(None));
        assert_eq!(flag_all(&a, "--mapping"), Ok(args(&["A=a.json", "B=b.json"])));
    }

    #[test]
    fn num_flag_defaults_parses_and_reports() {
        let a = args(&["--jobs", "4", "--cache", "abc"]);
        assert_eq!(num_flag(&a, "--jobs", 1usize), Ok(4));
        assert_eq!(num_flag(&a, "--batch", 1024usize), Ok(1024));
        assert_eq!(
            num_flag(&a, "--cache", 0usize),
            Err("error: --cache expects a number, got \"abc\"".to_string())
        );
        // A flag given as the last token has no value to parse.
        let trailing = args(&["--jobs"]);
        assert_eq!(
            num_flag(&trailing, "--jobs", 7usize),
            Err("error: --jobs expects a value".to_string())
        );
    }

    #[test]
    fn value_flags_never_swallow_the_next_flag() {
        let a = args(&["--out", "--format", "bin", "--mapping", "A=a.json", "--mapping"]);
        assert_eq!(flag(&a, "--out"), Err("error: --out expects a value".to_string()));
        assert_eq!(flag(&a, "--format"), Ok(Some("bin".to_string())));
        assert_eq!(
            flag_all(&a, "--mapping"),
            Err("error: --mapping expects a value".to_string())
        );
        assert!(switch(&a, "--format"));
        assert!(!switch(&a, "--full"));
        let err = Exit::from(flag(&a, "--out").unwrap_err());
        assert_eq!((err.code, err.usage), (1, true));
    }

    #[test]
    fn byte_flag_scales_suffixes_and_rejects_junk() {
        let a = args(&["--store-budget", "64M"]);
        assert_eq!(byte_flag(&a, "--store-budget"), Ok(Some(64 << 20)));
        assert_eq!(byte_flag(&a, "--other"), Ok(None));
        for (v, want) in [("4096", 4096u64), ("2k", 2 << 10), ("1g", 1 << 30), ("0", 0)] {
            let a = args(&["--store-budget", v]);
            assert_eq!(byte_flag(&a, "--store-budget"), Ok(Some(want)), "{v}");
        }
        for v in ["abc", "12q", "-5", "", "999999999999g"] {
            let a = args(&["--store-budget", v]);
            let err = byte_flag(&a, "--store-budget").unwrap_err();
            assert!(err.contains("expects bytes"), "{v}: {err}");
        }
    }

    #[test]
    fn positive_flag_rejects_zero() {
        let a = args(&["--jobs", "0", "--batch", "16"]);
        assert_eq!(
            positive_flag(&a, "--jobs", 1),
            Err("error: --jobs must be at least 1, got 0".to_string())
        );
        assert_eq!(positive_flag(&a, "--batch", 1024), Ok(16));
        assert_eq!(positive_flag(&a, "--inflight", 256), Ok(256));
    }

    #[test]
    fn list_flag_defaults_parses_and_rejects_empty_items_and_junk() {
        assert_eq!(list_flag::<u64>(&[], "--budgets", "24,48"), Ok(vec![24, 48]));
        let a = args(&["--budgets", " 1, 64 ,1024"]);
        assert_eq!(list_flag::<u64>(&a, "--budgets", "24"), Ok(vec![1, 64, 1024]));
        for (v, name) in [("24,,48", "--budgets"), ("24,", "--budgets"), ("", "--platform")] {
            let a = args(&[name, v]);
            assert_eq!(
                list_flag::<String>(&a, name, "x"),
                Err(format!("error: {name} expects a comma-separated list, got {v:?}"))
            );
        }
        let a = args(&["--budgets", "24,x"]);
        assert_eq!(
            list_flag::<u64>(&a, "--budgets", "24"),
            Err("error: --budgets expects a comma-separated list, got \"24,x\"".to_string())
        );
    }

    #[test]
    fn name_flags_resolve_or_name_the_expected_values() {
        let table = |name: &str| (name == "json" || name == "bin").then_some(name.len());
        assert_eq!(name_flag(&args(&["--format", "bin"]), "--format", "json or bin", table), Ok(Some(3)));
        assert_eq!(name_flag(&[], "--format", "json or bin", table), Ok(None));
        let err = name_flag(&args(&["--format", "msgpack"]), "--format", "json or bin", table)
            .unwrap_err();
        assert_eq!(err, Exit::usage_error("error: unknown --format msgpack; expected json or bin"));
    }

    #[test]
    fn selection_and_budget_flags_share_one_grammar() {
        assert_eq!(selection_flag(&[]), Ok(SelectionPolicy::OneShot));
        let a = args(&["--selection", "uniform", "--top-k", "4", "--budget", "60"]);
        assert_eq!(selection_flag(&a), Ok(SelectionPolicy::Uniform { top_k: 4 }));
        assert_eq!(budget_flag(&a), Ok(MeasurementBudget::measurements(60)));
        assert_eq!(budget_flag(&args(&["--budget", "0"])), Ok(MeasurementBudget::UNLIMITED));
        let err = selection_flag(&args(&["--selection", "greedy"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("expected one-shot, disagreement or uniform"), "{err:?}");
        let err = selection_flag(&args(&["--selection", "uniform", "--top-k", "0"])).unwrap_err();
        assert_eq!(err.code, 1);
    }
}
