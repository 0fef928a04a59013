//! The reproduction binaries report bad flags the way `pmevo-cli` does:
//! an `error: …` line on stderr and exit 1 for a malformed value or 2
//! for an unknown name — never a panic (exit 101) with a backtrace.

#[path = "../../../tests/support/mod.rs"]
mod support;

use std::process::{Command, Stdio};
use support::TempDir;

/// Runs `bin` with `args` in a directory of its own (so nothing it might
/// write lands in the source tree) and checks stderr and the exit code.
fn assert_rejected(bin: &str, args: &[&str], error: &str, code: i32) {
    let dir = TempDir::new("bad_flags");
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir.path())
        .env("PMEVO_ARTIFACTS", dir.path())
        .stdin(Stdio::null())
        .output()
        .expect("spawn bench binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked:\n{stderr}");
    assert!(stderr.contains(error), "{bin} {args:?}: stderr lacks {error:?}:\n{stderr}");
    assert_eq!(out.status.code(), Some(code), "{bin} {args:?}:\n{stderr}");
}

#[test]
fn malformed_lists_exit_1() {
    assert_rejected(
        env!("CARGO_BIN_EXE_fig_budget"),
        &["--budgets", "24,x"],
        "error: --budgets expects a comma-separated list, got \"24,x\"",
        1,
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_fig_islands"),
        &["--workers", "1,,2"],
        "error: --workers expects a comma-separated list, got \"1,,2\"",
        1,
    );
}

#[test]
fn malformed_numbers_exit_1() {
    assert_rejected(
        env!("CARGO_BIN_EXE_fig_predict"),
        &["--sequences", "abc"],
        "error: --sequences expects a number, got \"abc\"",
        1,
    );
}

#[test]
fn unknown_names_exit_2() {
    assert_rejected(
        env!("CARGO_BIN_EXE_table2"),
        &["--platform", "NOPE"],
        "error: unknown --platform NOPE; expected SKL, ZEN, A72 or TINY",
        2,
    );
    assert_rejected(
        env!("CARGO_BIN_EXE_fig_replay"),
        &["--uarch", "m1"],
        "error: unknown --uarch m1; expected skl, zen or a72",
        2,
    );
}
