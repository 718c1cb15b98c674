//! Runs a longitudinal measurement campaign over the evolving network.
//!
//! ```text
//! cargo run --release -p pm-study --bin campaign -- \
//!     [--days N] [--scale S] [--seed N] [--shards K] [--workers W]
//!     [--fabric BACKEND] [--attack NAME] [--csv] [--json PATH]
//!     [--trace PATH] [-q | -v] [--list]
//! ```
//!
//! The default 7-day calendar holds the §5.1 client-IP measurement,
//! its confirmation repeat, and the 96-hour churn round; longer
//! calendars add PrivCount traffic and PSC country rounds, and from
//! 14/17 days the two-day exit-domain and onion-service windows
//! (`--days 17` runs the full calendar). `--list` prints the
//! validated calendar without running it; `--json PATH` writes the
//! machine-readable document (the `experiments` binary's schema plus
//! an `anomalies` array) alongside whatever goes to stdout.
//!
//! `--attack NAME` injects one adversarial scenario into every round
//! (`byzantine-shares`, `skewed-shares`, `keeper-death`,
//! `invalid-proof`, `noise-exhaustion`; `none` is the default): the
//! campaign still completes and reports, with each attacked round
//! aborted or degraded and the detection recorded in the anomaly
//! channel — the scenario-smoke target greps exactly that.
//!
//! `--fabric BACKEND` picks the transport carrying every protocol
//! frame: `per-link` (default) or `wire[:latency_ms[,bw_kbps]]` for
//! real loopback TCP sockets —
//! reports are byte-identical across backends under a lossless
//! schedule.
//!
//! `--trace PATH` enables the wall-clock profiling plane and writes a
//! chrome://tracing trace-event file (load it at chrome://tracing or
//! ui.perfetto.dev). Profiling never changes a report byte. `-q`
//! silences progress events; `-v` prints them with structured fields.

use pm_net::FabricChoice;
use pm_obs::{Event, Recorder, Sink, Verbosity};
use pm_study::{Campaign, CampaignAttack, CampaignConfig};

fn main() {
    let mut days = 7u64;
    let mut scale = 1e-3f64;
    let mut seed = 2018u64;
    let mut shards = 0usize;
    let mut workers = 0usize;
    let mut fabric = FabricChoice::default();
    let mut attack = CampaignAttack::None;
    let mut csv = false;
    let mut json: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut verbosity = Verbosity::Normal;
    let mut list = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--days" => {
                i += 1;
                // lint:allow(panic) CLI usage error: an immediate loud exit is the interface
                days = args[i].parse().expect("--days takes an integer ≥ 1");
            }
            "--scale" => {
                i += 1;
                // lint:allow(panic) CLI usage error: an immediate loud exit is the interface
                scale = args[i].parse().expect("--scale takes a float in (0, 1]");
            }
            "--seed" => {
                i += 1;
                // lint:allow(panic) CLI usage error: an immediate loud exit is the interface
                seed = args[i].parse().expect("--seed takes an integer");
            }
            "--shards" => {
                i += 1;
                // lint:allow(panic) CLI usage error: an immediate loud exit is the interface
                shards = args[i].parse().expect("--shards takes an integer");
            }
            "--workers" => {
                i += 1;
                // lint:allow(panic) CLI usage error: an immediate loud exit is the interface
                workers = args[i].parse().expect("--workers takes an integer");
            }
            "--fabric" => {
                i += 1;
                fabric = FabricChoice::parse(&args[i]).unwrap_or_else(|| {
                    eprintln!(
                        "unknown fabric '{}'; known: per-link, wire[:latency_ms[,bw_kbps]]",
                        args[i]
                    );
                    std::process::exit(2);
                });
            }
            "--attack" => {
                i += 1;
                attack = CampaignAttack::parse(&args[i]).unwrap_or_else(|| {
                    eprintln!(
                        "unknown attack '{}'; known: none, {}",
                        args[i],
                        CampaignAttack::ALL
                            .iter()
                            .map(|a| a.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(2);
                });
            }
            "--csv" => csv = true,
            "--json" => {
                i += 1;
                json = Some(args[i].clone());
            }
            "--trace" => {
                i += 1;
                trace = Some(args[i].clone());
            }
            "-q" | "--quiet" => verbosity = Verbosity::Quiet,
            "-v" | "--verbose" => verbosity = Verbosity::Verbose,
            "--list" => list = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: campaign [--days N] [--scale S] [--seed N] [--shards K] \
                     [--workers W] [--fabric per-link|wire[:latency_ms[,bw_kbps]]] \
                     [--attack NAME] [--csv] [--json PATH] [--trace PATH] \
                     [-q | -v] [--list]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let sink = Sink::new(verbosity);
    let recorder = if trace.is_some() {
        Recorder::with_profiling()
    } else {
        Recorder::new()
    };
    let mut cfg = CampaignConfig::new(days, scale, seed)
        .with_attack(attack)
        .with_fabric(fabric)
        .with_recorder(recorder.clone());
    if shards > 0 {
        cfg = cfg.with_shards(shards);
    }
    let campaign = Campaign::new(cfg);

    if list {
        for r in campaign.rounds() {
            println!(
                "{}\t{}\t{:?}\tdays {}..{}",
                r.id,
                r.statistic,
                r.kind,
                r.start_day,
                r.start_day + r.duration_days
            );
        }
        return;
    }

    sink.emit(
        &Event::new(
            "campaign.start",
            format!(
                "campaign: {days} days, scale {scale}, seed {seed}, attack {}, {} round(s)",
                attack.name(),
                campaign.rounds().len()
            ),
        )
        .field("days", days)
        .field("scale", scale)
        .field("seed", seed)
        .field("attack", attack.name())
        .field("rounds", campaign.rounds().len()),
    );
    let report = campaign.run(workers);
    if csv {
        print!("{}", report.render_csv());
    } else {
        print!("{}", report.render_text());
    }
    if let Some(path) = json {
        // lint:allow(panic) CLI export failure: an immediate loud exit is the interface
        std::fs::write(&path, report.render_json()).expect("write --json output");
        sink.emit(&Event::new("campaign.wrote", format!("wrote {path}")).field("path", &path));
    }
    if let Some(path) = trace {
        recorder
            .write_trace(std::path::Path::new(&path))
            // lint:allow(panic) CLI export failure: an immediate loud exit is the interface
            .expect("write --trace output");
        sink.emit(
            &Event::new("campaign.trace", format!("wrote trace {path}")).field("path", &path),
        );
    }
    if !report.anomalies.is_empty() {
        sink.emit(
            &Event::new(
                "campaign.anomalies",
                format!("{} anomaly record(s):", report.anomalies.len()),
            )
            .field("count", report.anomalies.len()),
        );
        for a in &report.anomalies {
            sink.say("campaign.anomaly", format!("  {a}"));
        }
    }
    sink.say("campaign.done", "campaign complete");
}
