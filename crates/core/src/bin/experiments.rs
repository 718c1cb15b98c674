//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p torstudy --bin experiments -- \
//!     [--scale S] [--seed N] [--only T4,F1] [--fabric BACKEND] \
//!     [--csv] [--json PATH] [--trace PATH] [-q | -v] [--list]
//! ```
//!
//! Scale 1.0 reproduces paper-scale totals (minutes of runtime and
//! gigabytes of events); the default 0.01 keeps every statistic's
//! signal-to-noise ratio while running in seconds. `--json PATH`
//! writes the machine-readable document (same schema as the
//! `campaign` binary's) alongside whatever goes to stdout; `--list`
//! prints the registry without running anything. `--trace PATH`
//! enables the wall-clock profiling plane and writes a
//! chrome://tracing trace-event file; `-q` silences progress events,
//! `-v` prints them with structured fields.
//!
//! `--fabric BACKEND` selects the transport carrying every protocol
//! frame: `per-link` (default) or `wire[:latency_ms[,bw_kbps]]` for
//! real loopback TCP sockets —
//! every report is byte-identical across backends.

use pm_obs::Event;
use torstudy::cli::{usage_exit, Cli};
use torstudy::report::reports_json;
use torstudy::runner::{registry, run_all, run_some};
use torstudy::Deployment;

const USAGE: &str = "usage: experiments [--scale S] [--seed N] [--only T4,F1,...] \
     [--fabric per-link|wire[:latency_ms[,bw_kbps]]] \
     [--csv] [--json PATH] [--trace PATH] [-q | -v] [--list]";

fn main() {
    let cli = Cli::parse(USAGE, 0.01, &["--only"]);
    let only: Option<Vec<&str>> = cli
        .own
        .last()
        .map(|(_, ids)| ids.split(',').map(str::trim).collect());
    let known: Vec<&str> = registry().iter().map(|e| e.id).collect();
    if let Some(id) = only.iter().flatten().find(|id| !known.contains(id)) {
        usage_exit(
            USAGE,
            format_args!("unknown experiment id {id:?} (known: {})", known.join(",")),
        );
    }

    if cli.list {
        for entry in registry() {
            println!(
                "{}\t{:?}\t{}h",
                entry.id, entry.system, entry.duration_hours
            );
        }
        return;
    }

    let (scale, seed) = (cli.scale, cli.seed);
    let dep = Deployment::at_scale(scale, seed)
        .with_recorder(cli.recorder.clone())
        .with_fabric(cli.fabric);
    cli.sink.emit(
        &Event::new("deployment", format!("deployment: {dep}"))
            .field("scale", scale)
            .field("seed", seed),
    );
    let reports = match &only {
        Some(ids) => run_some(&dep, ids),
        None => run_all(&dep),
    };
    for report in &reports {
        if cli.csv {
            print!("{}", report.render_csv());
        } else {
            println!("{report}");
        }
    }
    cli.export("wrote", "trace", || reports_json(&reports));
    cli.sink.emit(
        &Event::new("done", format!("{} experiment(s) completed", reports.len()))
            .field("experiments", reports.len()),
    );
}
