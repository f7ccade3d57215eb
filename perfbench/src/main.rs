//! `perfbench` — run one workload of the benchmark and print its metrics.
//!
//! ```text
//! perfbench --workload <lbm-stream|fig-matrix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --pin <first-seed> <last-seed>
//! perfbench --setup-probe <the arguments of a run>
//! ```
//!
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). The line before it is the host fingerprint.
//! Exit status: 0 when every output check passed, 1 when one failed, 2 on
//! a usage error. `--pin` prints the `pinned.txt` lines of a seed range.
//! `--setup-probe` runs a run's start up to where its first cell would
//! begin, prints `ready` and exits; an untraced run times such probes for
//! `setup_s`.

use perfbench::report::{result_line, END_TO_END, PER_LAYER};
use perfbench::run;
use perfbench::trace::write_spans;
use perfbench::workload::{probe_setup, run_round, Workload};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <lbm-stream|fig-matrix> --seed <n> \
         --seconds <s> --trace <0|1>\n       perfbench --pin <first-seed> <last-seed>"
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => match num()? {
                0 => return Err("--seconds must be at least 1".to_string()),
                s => seconds = Some(s),
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark's own work area: `$CARGO_TARGET_DIR/perfbench`, or
/// `target/perfbench` in the working directory.
fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

/// Print one `pinned.txt` line per workload and seed.
fn pin(first: u64, last: u64, work: &Path) {
    for w in Workload::ALL {
        for seed in first..=last {
            let r = run_round(w, seed, work, 0);
            assert!(
                r.served == 0 && r.units.iter().all(|u| u.ok),
                "{} seed {seed} failed",
                w.name()
            );
            println!(
                "{} {seed} {:#018x} {}",
                w.name(),
                r.digest(),
                r.sim_cycles()
            );
        }
    }
}

fn main() -> ExitCode {
    // The benchmark measures the default configuration: no `TINT_*`
    // override (engine mode, cache, journal, fault injection, ...) applies.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TINT_") {
            eprintln!("perfbench: ignoring {}", key.to_string_lossy());
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run_dir = work_root().join(format!("run-{}", std::process::id()));
    if argv.first().map(String::as_str) == Some("--pin") {
        let range: Option<Vec<u64>> = argv[1..].iter().map(|a| a.parse().ok()).collect();
        let Some([first, last]) = range.as_deref().and_then(|r| <[u64; 2]>::try_from(r).ok())
        else {
            return usage("--pin needs a first and a last seed");
        };
        pin(first, last, &run_dir);
        let _ = std::fs::remove_dir_all(&run_dir);
        return ExitCode::SUCCESS;
    }
    let probe = argv.first().map(String::as_str) == Some(run::SETUP_PROBE);
    let args = match parse(&argv[usize::from(probe)..]) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if probe {
        probe_setup(args.workload, args.seed, &run_dir, || {
            println!("ready");
            std::io::stdout().flush().expect("stdout is writable");
        });
        let _ = std::fs::remove_dir_all(&run_dir);
        return ExitCode::SUCCESS;
    }
    let budget = Duration::from_secs(args.seconds);
    let w = args.workload;
    let (outcome, defs) = if args.trace {
        let (outcome, spans) = run::traced(w, args.seed, budget, &run_dir);
        let path = work_root().join(format!("trace-{}-seed{}.tsv", w.name(), args.seed));
        match write_spans(&path, &spans) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        (outcome, &PER_LAYER[..])
    } else {
        (
            run::untraced(w, args.seed, budget, &run_dir),
            &END_TO_END[..],
        )
    };
    // Best effort: the directory is the benchmark's own work area.
    let _ = std::fs::remove_dir_all(&run_dir);

    eprintln!(
        "perfbench: {} seed {} — {} untraced rounds, round digest {:#018x}, {} simulated cycles",
        w.name(),
        args.seed,
        outcome.rounds.len(),
        outcome.rounds[0].digest(),
        outcome.rounds[0].sim_cycles()
    );
    let walls: Vec<String> = outcome
        .rounds
        .iter()
        .map(|r| format!("{:.3}", r.wall.as_secs_f64()))
        .collect();
    eprintln!("  untraced round walls (s): {}", walls.join(" "));
    for &(name, unit) in defs {
        eprintln!("  {name:<28} {:>16.6} {unit}", outcome.values[name]);
    }
    for p in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    println!("host {}", perfbench::host::fingerprint());
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            defs,
            &outcome.values
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
