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

use pm_obs::Event;
use pm_study::{Campaign, CampaignAttack, CampaignConfig};
use torstudy::cli::{flag_value, usage_exit, Cli};

const USAGE: &str = "usage: campaign [--days N] [--scale S] [--seed N] [--shards K] \
     [--workers W] [--fabric per-link|wire[:latency_ms[,bw_kbps]]] \
     [--attack NAME] [--csv] [--json PATH] [--trace PATH] \
     [-q | -v] [--list]";

fn main() {
    let cli = Cli::parse(
        USAGE,
        1e-3,
        &["--days", "--shards", "--workers", "--attack"],
    );
    let mut days = 7u64;
    let mut shards = 0usize;
    let mut workers = 0usize;
    let mut attack = CampaignAttack::None;
    for (flag, raw) in &cli.own {
        match flag.as_str() {
            "--days" => days = flag_value(USAGE, flag, raw, "an integer ≥ 1", |d| *d >= 1),
            "--shards" => shards = flag_value(USAGE, flag, raw, "an integer", |_| true),
            "--workers" => workers = flag_value(USAGE, flag, raw, "an integer", |_| true),
            // `--attack`: the only other flag `Cli::parse` was told to pass.
            _ => {
                attack = CampaignAttack::parse(raw).unwrap_or_else(|| {
                    let known: Vec<_> = CampaignAttack::ALL.iter().map(|a| a.name()).collect();
                    usage_exit(
                        USAGE,
                        format_args!("unknown attack '{raw}'; known: none, {}", known.join(", ")),
                    )
                })
            }
        }
    }

    let (scale, seed) = (cli.scale, cli.seed);
    let mut cfg = CampaignConfig::new(days, scale, seed)
        .with_attack(attack)
        .with_fabric(cli.fabric)
        .with_recorder(cli.recorder.clone());
    if shards > 0 {
        cfg = cfg.with_shards(shards);
    }
    let campaign = Campaign::new(cfg);

    if cli.list {
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

    cli.sink.emit(
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
    if cli.csv {
        print!("{}", report.render_csv());
    } else {
        print!("{}", report.render_text());
    }
    cli.export("campaign.wrote", "campaign.trace", || report.render_json());
    if !report.anomalies.is_empty() {
        cli.sink.emit(
            &Event::new(
                "campaign.anomalies",
                format!("{} anomaly record(s):", report.anomalies.len()),
            )
            .field("count", report.anomalies.len()),
        );
        for a in &report.anomalies {
            cli.sink.say("campaign.anomaly", format!("  {a}"));
        }
    }
    cli.sink.say("campaign.done", "campaign complete");
}
