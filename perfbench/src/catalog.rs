//! The metric catalogue: every name the benchmark prints, with its
//! unit, direction, bound (end-to-end only) and — for layer metrics —
//! the end-to-end metric and workload it is predicted to move.
//! `BENCHMARK.json` is this file rendered; a test keeps them equal.

use crate::json::Json;
use crate::workloads::Workload;

/// How long one driver run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 26;

/// The command BENCHMARK.json names; the driver appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perf",
    "--",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "building one rep's inputs before the timed region (Deployment::at_scale / Campaign::new / streams / plan); median over all set-ups of the run",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "wall-clock of one rep's timed region (one campaign, one plan, one verified round, 100 wire rounds), tracing off; median over reps",
    },
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "deterministic work per rep / wall_s; the work unit is per workload (protocol rounds, mixed cells, rounds)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
        what: "VmHWM of the workload's process at the end of the run",
    },
    EndToEnd {
        name: "completed_share",
        unit: "ratio",
        better: "higher",
        bound: 0.001,
        what: "1 - failed_share: rounds that ended Completed / rounds attempted (the same counts as the result line's failed / attempted)",
    },
    EndToEnd {
        name: "digest_match_share",
        unit: "ratio",
        better: "higher",
        bound: 0.001,
        what: "1 - digest mismatches / digests compared: reps against rep 1, plus the workload's cross-check; below 1 the result line says correct: false",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// "metric on workload" the layer metric is predicted to move;
    /// everything not named should stay flat.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: &[Layer] = &[
    // dp
    layer(
        "dp.binomial_flips_ms.k1",
        "ms",
        "lower",
        "none (sub-ms on every workload)",
    ),
    layer(
        "dp.binomial_flips_ms.k4",
        "ms",
        "lower",
        "none (ips rounds calibrate k <= 4)",
    ),
    layer(
        "dp.binomial_flips_ms.k20",
        "ms",
        "lower",
        "none (no round calibrates k = 20; a point on the cost curve)",
    ),
    layer(
        "dp.binomial_flips_ms.k40",
        "ms",
        "lower",
        "wall_s on campaign17d only",
    ),
    layer("dp.plan_us", "us", "lower", "none"),
    // crypto
    layer("crypto.modexp_us", "us", "lower", "wall_s on ips7d_mix"),
    layer(
        "crypto.fixed_base_pow_us",
        "us",
        "lower",
        "wall_s on ips7d_mix",
    ),
    layer("crypto.encrypt_us", "us", "lower", "wall_s on ips7d_mix"),
    layer(
        "crypto.rerandomize_us",
        "us",
        "lower",
        "wall_s on ips7d_mix",
    ),
    layer(
        "crypto.partial_decrypt_us",
        "us",
        "lower",
        "wall_s on ips7d_mix",
    ),
    layer(
        "crypto.dleq_prove_us",
        "us",
        "lower",
        "wall_s on psc_verified only",
    ),
    layer(
        "crypto.dleq_verify_us",
        "us",
        "lower",
        "wall_s on psc_verified only",
    ),
    layer(
        "crypto.shuffle_prove_ms.b256",
        "ms",
        "lower",
        "wall_s on psc_verified only",
    ),
    layer(
        "crypto.shuffle_verify_ms.b256",
        "ms",
        "lower",
        "wall_s on psc_verified only",
    ),
    layer("crypto.sha256_MBps", "MB/s", "higher", "none expected"),
    // psc
    layer(
        "psc.mix.cells_per_s.b1024.t1",
        "1/s",
        "higher",
        "wall_s on ips7d_mix",
    ),
    layer(
        "psc.mix.cells_per_s.b1024.tN",
        "1/s",
        "higher",
        "wall_s on ips7d_mix",
    ),
    layer(
        "psc.mark.cells_per_s",
        "1/s",
        "higher",
        "wall_s on ips7d_mix",
    ),
    layer(
        "psc.accumulate.items_per_s.s1",
        "1/s",
        "higher",
        "wall_s on ips7d_mix (small)",
    ),
    layer(
        "psc.accumulate.items_per_s.sN",
        "1/s",
        "higher",
        "wall_s on ips7d_mix (small)",
    ),
    layer("psc.round_ms.b2048", "ms", "lower", "wall_s on ips7d_mix"),
    layer(
        "psc.mix_verified.cells_per_s.b128",
        "1/s",
        "higher",
        "wall_s on psc_verified",
    ),
    layer(
        "psc.rounds",
        "count",
        "lower",
        "exact per workload and seed",
    ),
    layer(
        "psc.mix.cells",
        "count",
        "lower",
        "exact per workload and seed",
    ),
    // privcount
    layer(
        "privcount.ingest.events_per_s.s1",
        "1/s",
        "higher",
        "throughput on tor_day",
    ),
    layer(
        "privcount.ingest.events_per_s.sN",
        "1/s",
        "higher",
        "throughput on tor_day",
    ),
    layer(
        "privcount.round_ms.p14",
        "ms",
        "lower",
        "in-process baseline for wire_rounds",
    ),
    // torsim
    layer(
        "torsim.exit_streams.events_per_s",
        "1/s",
        "higher",
        "wall_s on tor_day",
    ),
    layer(
        "torsim.client_ips.events_per_s",
        "1/s",
        "higher",
        "wall_s on tor_day, ips7d_mix slightly",
    ),
    layer(
        "torsim.hs_streams.events_per_s",
        "1/s",
        "higher",
        "wall_s on tor_day",
    ),
    layer(
        "torsim.fullsim_day.events_per_s",
        "1/s",
        "higher",
        "no workload yet (ROADMAP stretch)",
    ),
    layer(
        "torsim.timeline.sweep_us_per_day",
        "us",
        "lower",
        "none (<1 ms in campaign17d)",
    ),
    layer(
        "torsim.sites_build_ms",
        "ms",
        "lower",
        "setup_s on every workload",
    ),
    // net
    layer(
        "net.per-link.small_frames_per_s",
        "1/s",
        "higher",
        "none (in-process fabric is not a bottleneck)",
    ),
    layer(
        "net.per-link.bulk_MBps",
        "MB/s",
        "higher",
        "wall_s on ips7d_mix (small)",
    ),
    layer(
        "net.wire.small_frames_per_s",
        "1/s",
        "higher",
        "wall_s on wire_rounds",
    ),
    layer(
        "net.wire.bulk_MBps",
        "MB/s",
        "higher",
        "none on the five workloads (PSC over wire is not one)",
    ),
    layer(
        "net.wire.setup_ms.p14",
        "ms",
        "lower",
        "wall_s on wire_rounds",
    ),
    layer(
        "net.wire.threads.p14",
        "count",
        "lower",
        "wall_s on wire_rounds",
    ),
    layer(
        "net.wire.round_ms_p50",
        "ms",
        "lower",
        "wall_s on wire_rounds",
    ),
    layer(
        "net.wire.round_ms_p95",
        "ms",
        "lower",
        "wall_s on wire_rounds",
    ),
    layer("net.frame.codec_MBps", "MB/s", "higher", "none"),
    layer(
        "net.frames.sent",
        "count",
        "lower",
        "exact per workload and seed",
    ),
    layer(
        "net.bytes.sent",
        "count",
        "lower",
        "exact per workload and seed",
    ),
    // stats
    layer(
        "stats.psc_ci_ms.b4096",
        "ms",
        "lower",
        "wall_s on ips7d_mix, campaign17d (small)",
    ),
    layer(
        "stats.psc_ci_ms.b65536",
        "ms",
        "lower",
        "wall_s on ips7d_mix, campaign17d (small)",
    ),
    // core
    layer(
        "core.deployment_setup_ms",
        "ms",
        "lower",
        "setup_s on every workload",
    ),
    layer(
        "core.run_plan.seq_s",
        "s",
        "lower",
        "none (the one-worker baseline)",
    ),
    layer("core.run_plan.par_s", "s", "lower", "wall_s on tor_day"),
    layer(
        "core.scheduler.idle_share",
        "ratio",
        "lower",
        "wall_s on campaign17d, tor_day",
    ),
    // study
    layer(
        "study.campaign_new_ms",
        "ms",
        "lower",
        "setup_s on campaign17d, ips7d_mix",
    ),
    layer("study.job_s.ips-a", "s", "lower", "wall_s on ips7d_mix"),
    layer("study.job_s.ips-b", "s", "lower", "wall_s on ips7d_mix"),
    layer("study.job_s.ips-4day", "s", "lower", "wall_s on ips7d_mix"),
    layer(
        "study.job_s.traffic",
        "s",
        "lower",
        "none (off campaign17d's critical path)",
    ),
    layer(
        "study.job_s.countries",
        "s",
        "lower",
        "none (off campaign17d's critical path)",
    ),
    layer(
        "study.job_s.domains",
        "s",
        "lower",
        "wall_s on campaign17d (the critical path)",
    ),
    layer("study.job_s.onions", "s", "lower", "wall_s on campaign17d"),
    layer(
        "study.job_run_s",
        "s",
        "lower",
        "wall_s on campaign17d, ips7d_mix, tor_day",
    ),
    layer("study.queue_wait_s", "s", "lower", "wall_s on campaign17d"),
    layer("study.uncovered_s", "s", "lower", "wall_s on campaign17d"),
    layer("study.render_ms", "ms", "lower", "none"),
    // obs
    layer("obs.inert_span_ns", "ns", "lower", "none"),
    layer("obs.counter_add_ns", "ns", "lower", "none"),
    layer(
        "obs.trace_overhead_pct",
        "%",
        "lower",
        "none (traced vs untraced wall_s)",
    ),
    // process
    layer(
        "proc.cpu_s",
        "s",
        "lower",
        "diagnostic, too noisy to gate on",
    ),
    layer(
        "proc.threads_peak",
        "count",
        "lower",
        "wall_s on wire_rounds",
    ),
];

fn json_str(s: &str) -> String {
    Json::str(s).render()
}

/// BENCHMARK.json, rendered from the catalogue.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| json_str(c)).collect();
    let workloads = Workload::ALL
        .iter()
        .filter(|w| w.listed())
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_obs::trace::{parse, Value};
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(
                valid_name(w.name()) && seen.insert(w.name()),
                "{}",
                w.name()
            );
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(["lower", "higher"].contains(&m.better));
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `perf --describe > BENCHMARK.json`"
        );
    }

    #[test]
    fn rendered_benchmark_json_parses_with_exactly_the_contract_keys() {
        let doc = parse(&benchmark_json()).expect("valid JSON");
        let Value::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
