//! `repro` rejects a bad invocation before doing any work: one stderr
//! line, exit code 2, and no `BENCH_repro.json` written. Covers unknown
//! commands (including the removed `validate-sampled`), the removed
//! `--engine` flag, and malformed cell-executor environment knobs.

use std::process::Command;

/// Run `repro` with `args` and extra `env` in a fresh directory and assert
/// it was rejected up front.
fn assert_rejected(tag: &str, args: &[&str], env: &[(&str, &str)]) {
    let dir = std::env::temp_dir().join(format!("tint-repro-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .env("TINT_JOURNAL", "0")
        .envs(env.iter().copied())
        .output()
        .expect("repro runs");
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
    let rows: [&[&str]; 4] = [
        &["bogus-cmd"],
        &["validate-sampled"],
        &["--engine", "sampled"],
        &["fig10", "bogus-cmd"],
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
