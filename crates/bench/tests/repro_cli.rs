//! `repro` rejects a bad invocation before doing any work: one stderr
//! line, exit code 2, and no `BENCH_repro.json` written. Covers unknown
//! commands (including the removed `validate-sampled`), unknown
//! `probe:<bench>` names, the removed `--engine`, `--profile` and
//! deadline-abort flags, and malformed cell-executor environment knobs.
//! Also checks that the soft-deadline watchdog only warns.

use std::collections::HashSet;
use std::path::Path;
use std::process::{Command, Output};

/// Run `repro` with `args` and extra `env` in `dir`, journal off.
fn repro(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .env("TINT_JOURNAL", "0")
        .envs(env.iter().copied())
        .output()
        .expect("repro runs")
}

/// Run `repro` with `args` and extra `env` in a fresh directory and assert
/// it was rejected up front.
fn assert_rejected(tag: &str, args: &[&str], env: &[(&str, &str)]) {
    let dir = std::env::temp_dir().join(format!("tint-repro-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = repro(&dir, args, env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let what = (args, env);
    assert_eq!(out.status.code(), Some(2), "{what:?}: stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "{what:?}: stderr {stderr:?}");
    assert!(stderr.starts_with("repro: "), "{what:?}: stderr {stderr:?}");
    assert!(out.stdout.is_empty(), "{what:?}: no figure output");
    assert!(
        !dir.join("BENCH_repro.json").exists(),
        "{what:?}: BENCH_repro.json must not be written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_commands_and_flags_exit_2_with_one_line() {
    let rows: [&[&str]; 8] = [
        &["bogus-cmd"],
        &["validate-sampled"],
        &["--engine", "sampled"],
        &["fig10", "bogus-cmd"],
        &["probe:bogus"],
        &["fig10", "probe:bogus"],
        &["--profile"],
        &["--strict-deadline"],
    ];
    for (i, args) in rows.iter().enumerate() {
        assert_rejected(&format!("args-{i}"), args, &[]);
    }
}

#[test]
fn malformed_cell_env_exits_2_with_one_line() {
    let rows = [
        ("TINT_CELL_RETRIES", "abc"),
        ("TINT_CELL_TIMEOUT_S", "-1"),
        ("TINT_CELL_TIMEOUT_S", "x"),
    ];
    for (i, pair) in rows.into_iter().enumerate() {
        assert_rejected(&format!("env-{i}"), &["probe:lbm"], &[pair]);
    }
}

#[test]
fn overdue_cells_are_warned_about_once_and_never_changed() {
    let dir = std::env::temp_dir().join(format!("tint-repro-cli-{}-watchdog", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let args = ["--reps", "1", "--scale", "0.5", "fig10"];
    let plain = repro(&dir, &args, &[]);
    let watched = repro(&dir, &args, &[("TINT_CELL_TIMEOUT_S", "0.001")]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(watched.status.code(), Some(0));
    assert_eq!(
        plain.stdout, watched.stdout,
        "the watchdog must not change figure output"
    );
    let stderr = String::from_utf8_lossy(&watched.stderr);
    let warned: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("watchdog: cell ["))
        .map(|l| l.split(']').next().unwrap())
        .collect();
    assert!(!warned.is_empty(), "no watchdog warning: {stderr:?}");
    let distinct: HashSet<&str> = warned.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        warned.len(),
        "a cell was warned about twice: {stderr:?}"
    );
}
