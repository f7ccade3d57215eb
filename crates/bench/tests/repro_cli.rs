//! `repro` rejects a bad invocation before doing any work: one stderr
//! line, exit code 2, and no `BENCH_repro.json` written. Covers unknown
//! commands (including the removed `validate-sampled`) and the removed
//! `--engine` flag.

use std::process::Command;

#[test]
fn unknown_commands_and_flags_exit_2_with_one_line() {
    let rows: [&[&str]; 4] = [
        &["bogus-cmd"],
        &["validate-sampled"],
        &["--engine", "sampled"],
        &["fig10", "bogus-cmd"],
    ];
    for (i, args) in rows.iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("tint-repro-cli-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*args)
            .current_dir(&dir)
            .env("TINT_JOURNAL", "0")
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
        assert!(stderr.starts_with("repro: "), "{args:?}: stderr {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no figure output");
        assert!(
            !dir.join("BENCH_repro.json").exists(),
            "{args:?}: BENCH_repro.json must not be written"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
