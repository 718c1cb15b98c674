//! `perf` — the study pipeline's one benchmark.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//! perf [--seed N] [--seconds S] [--layers]             every workload, each in a child process
//! perf --check A.json B.json                           do two result sets agree within the bounds?
//! perf --smoke                                         every workload at toy size, both passes
//! perf --describe                                      print BENCHMARK.json
//! ```
//!
//! Run it from the repository root. See `perfbench/README.md` for the
//! metric glossary and what each workload is for.

mod catalog;
mod check;
mod clock;
mod json;
mod layers;
mod proc;
mod run;
mod spans;
mod stats;
mod workloads;

use catalog::{END_TO_END, PER_LAYER, RUN_SECONDS};
use check::{num, text};
use json::Json;
use pm_obs::trace::{parse, Value};
use run::{run, RunArgs};
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::{nproc, Size, Workload};

const USAGE: &str =
    "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--layers]
       perf --check A.json B.json | --smoke | --describe";

#[derive(Debug, PartialEq)]
enum Mode {
    One { workload: Workload, trace: bool },
    All { layers: bool },
    Check(String, String),
    Smoke,
    Describe,
}

#[derive(Debug, PartialEq)]
struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut seed = 2018;
    let mut seconds = RUN_SECONDS as f64;
    let mut workload = None;
    let mut trace = false;
    let mut layers = false;
    let mut other = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t:?}")),
                };
            }
            "--layers" => layers = true,
            "--check" => other = Some(Mode::Check(value("two files")?, value("two files")?)),
            "--smoke" => other = Some(Mode::Smoke),
            "--describe" => other = Some(Mode::Describe),
            unknown => return Err(format!("unknown argument {unknown:?}")),
        }
    }
    let mode = match (other, workload) {
        (Some(mode), None) => mode,
        (Some(_), Some(_)) => return Err("--workload does not combine with that mode".into()),
        (None, Some(workload)) => Mode::One { workload, trace },
        (None, None) => Mode::All { layers },
    };
    Ok(Cli {
        mode,
        seed,
        seconds,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match cli.mode {
        Mode::One { workload, trace } => one(&RunArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace,
            size: Size::Full,
        }),
        Mode::All { layers } => all(cli.seed, cli.seconds, layers),
        Mode::Check(a, b) => check_files(&a, &b),
        Mode::Smoke => smoke(cli.seed),
        Mode::Describe => {
            print!("{}", catalog::benchmark_json());
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run: the detail line, then — last — the contract's result line.
fn one(args: &RunArgs) -> bool {
    let report = run(args);
    println!("{}", report.detail.render());
    println!("{}", report.result_line());
    report.correct && report.failed == 0
}

fn smoke(seed: u64) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let watch = clock::Stopwatch::start();
            let report = run(&RunArgs {
                workload,
                seed,
                seconds: 0.0,
                trace,
                size: Size::Smoke,
            });
            let pass = report.correct && report.failed == 0;
            println!(
                "smoke {:<13} trace {} {:>3} metrics, {:>4} rounds, {:>5.2} s: {}",
                workload.name(),
                u8::from(trace),
                report.metrics.len(),
                report.attempted,
                watch.seconds(),
                if pass { "ok" } else { "FAILED" }
            );
            ok &= pass;
        }
    }
    ok
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in a child process, so peak RSS and thread counts
/// are the workload's own, and returns its detail and result lines.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("no result line")?;
    let detail = lines.next().ok_or("no detail line")?;
    if !out.status.success() {
        return Err(format!(
            "{} failed its correctness gate: {result}",
            workload.name()
        ));
    }
    Ok((detail.to_string(), result.to_string()))
}

/// Prints one run: every metric by name, with its unit.
fn print_run(workload: Workload, seed: u64, trace: bool, detail: &Value, result: &Value) {
    println!(
        "{}{} seed {seed} trace {}: {} reps, {} rounds attempted, {} failed, digest {}",
        workload.name(),
        if workload.listed() {
            ""
        } else {
            " (not listed in BENCHMARK.json: too unsteady to gate on)"
        },
        u8::from(trace),
        num(detail, &["reps"]).unwrap_or(0.0),
        num(result, &["attempted"]).unwrap_or(0.0),
        num(result, &["failed"]).unwrap_or(0.0),
        text(detail, &["digest"]).unwrap_or("?"),
    );
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.moves)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, "")).collect()
    };
    for (name, moves) in names {
        let value = num(result, &["metrics", name, "value"]).unwrap_or(f64::NAN);
        let unit = text(result, &["metrics", name, "unit"]).unwrap_or("?");
        let samples = match num(detail, &["samples", name, "n"]) {
            Some(n) => format!("  (median of {n})"),
            None => String::new(),
        };
        let arrow = if moves.is_empty() { "" } else { "  -> " };
        println!("  {name:<36} {value:>14.4} {unit:<6}{samples}{arrow}{moves}");
    }
    if !trace {
        println!(
            "  throughput counts {} ({} per rep)",
            text(detail, &["work_unit"]).unwrap_or("?"),
            num(detail, &["work_per_rep"]).unwrap_or(0.0)
        );
    }
    if let Some(p95) = num(detail, &["samples", "round_ms", "p95"]) {
        println!(
            "  round latency: median {:.3} ms, p95 {p95:.3} ms over {} rounds",
            num(detail, &["samples", "round_ms", "median"]).unwrap_or(0.0),
            num(detail, &["samples", "round_ms", "n"]).unwrap_or(0.0)
        );
    }
}

/// Every workload, end to end (and per layer with `--layers`), each in
/// its own process; writes `target/perf/results-seed<N>.json`.
fn all(seed: u64, seconds: f64, layers: bool) -> bool {
    let mut runs = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if trace && !layers {
                continue;
            }
            let lines = child(workload, seed, seconds, trace).and_then(|(detail, result)| {
                print_run(workload, seed, trace, &parse(&detail)?, &parse(&result)?);
                Ok((detail, result))
            });
            match lines {
                Ok((detail, result)) => runs.push(Json::obj([
                    ("detail", Json::Raw(detail)),
                    ("result", Json::Raw(result)),
                ])),
                Err(e) => {
                    eprintln!("perf: {e}");
                    ok = false;
                }
            }
        }
    }
    println!("end-to-end metrics:");
    for m in &END_TO_END {
        println!(
            "  {} [{}, {} is better, bound {}%]: {}",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.what
        );
    }
    let doc = Json::obj([
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Int(nproc() as u64)),
        ("workers", Json::Int(nproc() as u64)),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    let path = Path::new(run::OUT_DIR).join(format!("results-seed{seed}.json"));
    match std::fs::create_dir_all(run::OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("perf: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

fn check_files(a: &str, b: &str) -> bool {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| parse(&t))
            .map_err(|e| eprintln!("perf: {path}: {e}"))
            .ok()
    };
    let (Some(a), Some(b)) = (load(a), load(b)) else {
        return false;
    };
    if check::runs(&a).is_empty() || check::runs(&a).len() != check::runs(&b).len() {
        eprintln!("perf: the two files do not hold the same non-empty set of runs");
        return false;
    }
    let lines = check::compare(&a, &b);
    let mut ok = true;
    for line in &lines {
        let rel = line
            .rel
            .map_or(String::new(), |r| format!("{:+.2}%", r * 100.0));
        let verdict = match (line.bound, line.ok()) {
            (None, _) => "",
            (Some(_), true) => "ok",
            (Some(_), false) => "OUTSIDE BOUND",
        };
        // Layer metrics without a bound are printed only when they moved.
        if line.bound.is_some() || line.rel.is_some_and(|r| r.abs() > 0.10) {
            println!(
                "{:<13} {:<36} {:>16} {:>16} {:>9} {verdict}",
                line.workload, line.what, line.a, line.b, rel
            );
        }
        ok &= line.ok();
    }
    println!(
        "{}",
        if ok {
            "agree: every bounded metric within its bound, every count equal"
        } else {
            "DISAGREE"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = cli(&[
            "--workload",
            "tor_day",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            c,
            Cli {
                mode: Mode::One {
                    workload: Workload::TorDay,
                    trace: true
                },
                seed: 7,
                seconds: 10.0
            }
        );
    }

    #[test]
    fn defaults_and_other_modes() {
        let c = cli(&[]).unwrap();
        assert_eq!(c.mode, Mode::All { layers: false });
        assert_eq!((c.seed, c.seconds), (2018, RUN_SECONDS as f64));
        assert_eq!(cli(&["--layers"]).unwrap().mode, Mode::All { layers: true });
        assert_eq!(
            cli(&["--check", "a", "b"]).unwrap().mode,
            Mode::Check("a".into(), "b".into())
        );
        assert_eq!(cli(&["--smoke"]).unwrap().mode, Mode::Smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--check", "a"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
        assert!(cli(&["--smoke", "--workload", "tor_day"]).is_err());
    }

    /// `perf --smoke` in-process: every workload at toy size through
    /// both passes, with the correctness gate on.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "unoptimised crypto: run with cargo test --release"
    )]
    fn smoke_pass_runs_every_workload_through_both_passes() {
        assert!(smoke(2018));
    }
}
