//! The benchmark's own checks: the output check catches a perturbed
//! result, a second seed repeats exactly, and every metric name printed
//! matches `BENCHMARK.json` and the name rules.

use perfbench::digest;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workload::{judge, pinned, run_round, Workload, LBM_SEED1_CYCLES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use tint_bench::run_once;
use tint_workloads::{PinConfig, Synthetic};
use tintmalloc::prelude::ColorScheme;

/// The cell cache and journal are process globals: one round at a time.
static GLOBALS: Mutex<()> = Mutex::new(());

/// True when `name` obeys the metric-name rules: starts with a letter or
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
}

/// True when `unit` obeys the unit rules: at most 16 characters of
/// letters, digits, `_`, `/`, `%`, `.` and `-`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c))
}

fn work_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{test}"))
}

/// `BENCHMARK.json` at the repository root, as text.
fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// Assert that `needles` occur in `text` in this order.
fn in_order(text: &str, needles: &[String]) {
    let mut at = 0;
    for n in needles {
        let i = text[at..]
            .find(n.as_str())
            .unwrap_or_else(|| panic!("{n} (in this order) in BENCHMARK.json"));
        at += i + n.len();
    }
}

/// Run the benchmark binary on lbm-stream seed 1 for one second; returns
/// its standard output.
fn run_binary(trace: &str) -> String {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-trace{trace}"));
    let out = Command::new(exe)
        .args([
            "--workload",
            "lbm-stream",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(target);
    String::from_utf8(out.stdout).expect("utf-8")
}

/// Check a result line against the result format, metric by metric in
/// `defs` order; returns the values. Every value must be a finite number.
fn check_result_line(line: &str, defs: &[(&str, &str)]) -> BTreeMap<String, f64> {
    let rest = line
        .strip_prefix("{\"correct\": true, \"attempted\": ")
        .unwrap_or_else(|| panic!("a correct result line: {line}"));
    let (attempted, rest) = rest
        .split_once(", \"failed\": 0, \"metrics\": {")
        .expect("failed = 0");
    assert!(
        attempted
            .parse::<u64>()
            .expect("attempted is a whole number")
            > 0
    );
    let mut rest = rest
        .strip_suffix("}}")
        .expect("the line ends with the metrics");
    let mut values = BTreeMap::new();
    for (i, &(name, unit)) in defs.iter().enumerate() {
        if i > 0 {
            rest = rest
                .strip_prefix(", ")
                .expect("metrics are comma-separated");
        }
        rest = rest
            .strip_prefix(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{name} next in {rest}"));
        let (value, tail) = rest
            .split_once(", \"unit\": \"")
            .expect("a unit follows the value");
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{name}: {value:?} is a number"));
        assert!(v.is_finite(), "{name} = {v} is finite");
        rest = tail
            .strip_prefix(&format!("{unit}\"}}"))
            .unwrap_or_else(|| panic!("{name} has unit {unit}"));
        values.insert(name.to_string(), v);
    }
    assert!(rest.is_empty(), "nothing after the last metric: {rest}");
    values
}

#[test]
fn perturbed_result_fails_the_output_check() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    // Any field of a cell result moves its digest.
    let w = Synthetic {
        bytes_per_thread: 32 * 4096,
    };
    let r = run_once(&w, ColorScheme::MemLlc, PinConfig::T4N4, 1);
    let base = digest::exp_result(&r);
    let mut p = r.clone();
    p.metrics.thread_idle[3] += 1;
    assert_ne!(digest::exp_result(&p), base);
    let mut p = r.clone();
    p.mean_latency = f64::from_bits(p.mean_latency.to_bits() + 1);
    assert_ne!(digest::exp_result(&p), base);

    // A real round passes; a perturbed copy of it fails.
    let work = work_dir("perturbed");
    let round = run_round(Workload::LbmStream, 1, &work, 0);
    assert_eq!(round.sim_cycles(), LBM_SEED1_CYCLES);
    let (attempted, failed, problems) = judge(Workload::LbmStream, 1, std::slice::from_ref(&round));
    assert_eq!((attempted, failed), (7, 0), "{problems:?}");

    let mut bad = round.clone();
    bad.units[4].digest ^= 1;
    let (_, failed, _) = judge(Workload::LbmStream, 1, &[round.clone(), bad.clone()]);
    assert!(failed > 0, "a changed unit digest must fail");
    let (_, failed, _) = judge(Workload::LbmStream, 1, &[bad]);
    assert_eq!(failed, 7, "a round missing its pinned digest fails whole");

    let mut served = round.clone();
    served.served = 1;
    let (_, failed, _) = judge(Workload::LbmStream, 1, &[served]);
    assert_eq!(failed, 7, "a cache- or journal-served round fails whole");
    let _ = std::fs::remove_dir_all(work);
}

#[test]
fn second_seed_gives_other_cycles_and_repeats_exactly() {
    let _g = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let work = work_dir("second-seed");
    let a = run_round(Workload::LbmStream, 2, &work, 0);
    let b = run_round(Workload::LbmStream, 2, &work, 1);
    assert_ne!(
        a.sim_cycles(),
        LBM_SEED1_CYCLES,
        "the seed reaches the simulation"
    );
    assert_eq!(a.digest(), b.digest(), "same seed, same outputs");
    assert_eq!(a.sim_cycles(), b.sim_cycles());
    let (_, failed, problems) = judge(Workload::LbmStream, 2, &[a, b]);
    assert_eq!(failed, 0, "{problems:?}");
    let _ = std::fs::remove_dir_all(work);
}

#[test]
fn default_seed_is_pinned_for_every_workload() {
    for w in Workload::ALL {
        assert!(pinned(w, 1).is_some(), "{} seed 1 is pinned", w.name());
    }
    assert_eq!(
        pinned(Workload::LbmStream, 1).map(|p| p.sim_cycles),
        Some(LBM_SEED1_CYCLES)
    );
}

#[test]
fn metric_names_match_benchmark_json() {
    let b = benchmark_json();
    let entries = |defs: &[(&str, &str)]| -> Vec<String> {
        defs.iter()
            .map(|(n, u)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\""))
            .collect()
    };
    in_order(&b, &entries(&END_TO_END));
    in_order(&b, &entries(&PER_LAYER));
    assert_eq!(
        b.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares no other metric"
    );
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": ", w.name()))
        .collect();
    in_order(&b, &workloads);
    assert_eq!(b.matches("\"why\":").count(), Workload::ALL.len());
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "metric name {name:?}");
        assert!(valid_unit(unit), "unit {unit:?} of {name}");
        assert!(seen.insert(*name), "{name} is used once");
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "workload name {:?}", w.name());
    }
}

#[test]
fn binary_prints_one_checked_result_line() {
    let stdout = run_binary("0");
    let values = check_result_line(stdout.lines().last().expect("a result line"), &END_TO_END);
    assert!(values.values().all(|&v| v > 0.0), "{values:?}");

    let bad = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty(), "no result line on a usage error");
}

#[test]
fn traced_binary_prints_every_per_layer_metric() {
    let stdout = run_binary("1");
    let values = check_result_line(stdout.lines().last().expect("a result line"), &PER_LAYER);
    // A host time is never exactly 0; counts are exact and may be (lbm
    // never hits in L1).
    for (name, unit) in PER_LAYER {
        if ["s", "ms", "us", "ns"].contains(&unit) {
            assert!(values[name] != 0.0, "{name} is a measured host time");
        }
    }
    assert_eq!(values["spmd.sim_cycles"], LBM_SEED1_CYCLES as f64);
    assert!(values["kernel.off_color_allocs"] > 0.0);
}
