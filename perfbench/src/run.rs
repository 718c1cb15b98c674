//! One run of one workload: the untraced pass that yields the
//! end-to-end metrics, or the traced pass that yields the per-layer
//! ledger and the chrome trace. Both check outputs as they go.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::clock::Stopwatch;
use crate::json::Json;
use crate::layers::{self, Metrics};
use crate::proc::{cpu_seconds, ThreadSampler};
use crate::spans::{job_ledger, JobLedger};
use crate::stats::{median, Summary};
use crate::workloads::{nproc, prepare, prepare_reference, Rep, RepOutcome, Size, Workload};
use pm_obs::profile::TraceEvent;
use pm_obs::Recorder;
use std::path::Path;

/// Set-ups timed before the first rep, so `setup_s` is a median over
/// at least this many samples however few reps fit in the run.
const SETUP_REPS: usize = 10;
/// Set-ups timed before every rep (the last one is the rep's input):
/// spread over the whole run, so a slow spell of the machine at the
/// start does not decide the median.
const SETUPS_PER_REP: usize = 3;
/// Fewest timed reps, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// A run may overshoot `--seconds` by this share to fit one more rep.
const OVERSHOOT: f64 = 0.1;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// What a run measured, ready to print.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth recording about the run.
    pub detail: Json,
}

impl RunReport {
    /// The result line the benchmark contract fixes: exactly these keys.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
        .render()
    }
}

fn summary_json(samples: &[f64]) -> Json {
    let s = Summary::of(samples);
    let mut members = vec![
        ("median".to_string(), Json::Num(s.median)),
        ("n".to_string(), Json::Int(s.n as u64)),
    ];
    if let Some((p, v)) = s.tail {
        members.push((format!("p{p}"), Json::Num(v)));
    }
    // Raw samples where there are few enough to read.
    if samples.len() <= 64 {
        let values = samples.iter().map(|v| Json::Num(*v)).collect();
        members.push(("values".to_string(), Json::Arr(values)));
    }
    Json::Obj(members)
}

fn timed_prepare(args: &RunArgs, recorder: &Recorder) -> (Rep, f64) {
    let watch = Stopwatch::start();
    let rep = prepare(args.workload, args.seed, args.size, recorder);
    (rep, watch.seconds())
}

/// Digest checks and round tallies accumulated over a run.
#[derive(Default)]
struct Gate {
    reference: Option<u64>,
    compared: u64,
    mismatched: u64,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn admit(&mut self, out: &RepOutcome) {
        self.attempted += out.rounds;
        self.failed += out.failed;
        self.compare(out.digest);
    }

    /// Compares a digest that must equal the first one seen.
    fn compare(&mut self, digest: u64) {
        match self.reference {
            None => self.reference = Some(digest),
            Some(first) => {
                self.compared += 1;
                self.mismatched += u64::from(digest != first);
            }
        }
    }

    fn correct(&self) -> bool {
        self.mismatched == 0
    }
}

fn common_detail(args: &RunArgs, gate: &Gate, reps: usize) -> Vec<(String, Json)> {
    [
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Int(u64::from(args.trace))),
        ("nproc", Json::Int(nproc() as u64)),
        ("workers", Json::Int(nproc() as u64)),
        ("reps", Json::Int(reps as u64)),
        (
            "digest",
            Json::str(format!("{:016x}", gate.reference.unwrap_or(0))),
        ),
        ("digests_compared", Json::Int(gate.compared)),
        ("digest_mismatch", Json::Int(gate.mismatched)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

pub fn run(args: &RunArgs) -> RunReport {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

/// Tracing off: set-ups, then timed reps until `--seconds` is used,
/// then the workload's cross-check.
fn run_untraced(args: &RunArgs) -> RunReport {
    let mut setup_s: Vec<f64> = (0..args.size.pick(SETUP_REPS, 1))
        .map(|_| timed_prepare(args, &Recorder::new()).1)
        .collect();
    let mut gate = Gate::default();
    let mut wall_s = Vec::new();
    let mut round_ms = Vec::new();
    let run = Stopwatch::start();
    let work = loop {
        for _ in 1..SETUPS_PER_REP {
            setup_s.push(timed_prepare(args, &Recorder::new()).1);
        }
        let (rep, secs) = timed_prepare(args, &Recorder::new());
        setup_s.push(secs);
        let out = rep();
        gate.admit(&out);
        wall_s.push(out.wall_s);
        round_ms.extend(out.round_ms);
        let next = median(&wall_s) + SETUPS_PER_REP as f64 * median(&setup_s);
        if wall_s.len() >= MIN_REPS && run.seconds() + next > args.seconds * (1.0 + OVERSHOOT) {
            // Exact per rep: every rep of a seed does the same work.
            break out.work;
        }
    };
    // Read before the cross-check, which is not the workload.
    let peak_rss_mb = pm_obs::rss::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
    if let Some(reference) = prepare_reference(args.workload, args.seed, args.size) {
        let out = reference();
        gate.failed += out.failed;
        gate.compare(out.digest);
    }

    let wall = median(&wall_s);
    let value = |name: &str| match name {
        "setup_s" => median(&setup_s),
        "wall_s" => wall,
        "throughput" => work as f64 / wall,
        "peak_rss_mb" => peak_rss_mb,
        "completed_share" => 1.0 - gate.failed as f64 / gate.attempted.max(1) as f64,
        "digest_match_share" => 1.0 - gate.mismatched as f64 / gate.compared.max(1) as f64,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();

    let mut detail = common_detail(args, &gate, wall_s.len());
    detail.push(("work_per_rep".into(), Json::Int(work)));
    detail.push(("work_unit".into(), Json::str(args.workload.work_unit())));
    let mut samples = vec![
        ("wall_s".to_string(), summary_json(&wall_s)),
        ("setup_s".to_string(), summary_json(&setup_s)),
    ];
    if !round_ms.is_empty() {
        samples.push(("round_ms".to_string(), summary_json(&round_ms)));
    }
    detail.push(("samples".into(), Json::Obj(samples)));
    RunReport {
        correct: gate.correct(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        detail: Json::Obj(detail),
    }
}

/// Where traces and result sets are written, relative to the directory
/// the benchmark is run from (the repository root).
pub const OUT_DIR: &str = "target/perf";

/// Tracing on: one untraced rep for reference, traced reps for a third
/// of `--seconds` with a profiling recorder passed through the public
/// `with_recorder`, then the layer ledger. Writes the chrome trace.
fn run_traced(args: &RunArgs) -> RunReport {
    let bench = Recorder::with_profiling();
    let origin = Stopwatch::start();
    let mut gate = Gate::default();

    let (rep, _) = timed_prepare(args, &Recorder::new());
    let untraced = rep();
    gate.admit(&untraced);

    let mut events: Vec<TraceEvent> = Vec::new();
    let mut jobs = JobLedger::default();
    let mut counters = Metrics::new();
    let mut traced_wall_s = Vec::new();
    let cpu_before = cpu_seconds().unwrap_or(0.0);
    let sampler = ThreadSampler::start();
    let phase = Stopwatch::start();
    while traced_wall_s.is_empty() || phase.seconds() + median(&traced_wall_s) < args.seconds / 3.0
    {
        let offset_us = (origin.seconds() * 1e6) as u64;
        let program = Recorder::with_profiling();
        let rep = {
            let mut span = bench.span("perf.setup", "perf");
            span.note("parent", "perf.run");
            prepare(args.workload, args.seed, args.size, &program)
        };
        let out = {
            let mut span = bench.span("perf.rep", "perf");
            span.note("parent", "perf.run");
            span.note("workload", args.workload.name());
            rep()
        };
        gate.admit(&out);
        traced_wall_s.push(out.wall_s);

        let rep_events = program.trace_events();
        jobs.absorb(job_ledger(&rep_events));
        for name in [
            "psc.rounds",
            "psc.mix.cells",
            "net.frames.sent",
            "net.bytes.sent",
        ] {
            // Exact per rep: every rep of a seed counts the same.
            counters.insert(name, program.read_counter(name) as f64);
        }
        // Each rep has its own profiler: move its spans onto the run's
        // timeline and onto thread rows of their own.
        let row = 1000 * traced_wall_s.len() as u64;
        events.extend(rep_events.into_iter().map(|mut e| {
            e.ts += offset_us;
            e.tid += row;
            e
        }));
    }
    let threads_peak = sampler.finish();
    let cpu_s = cpu_seconds().unwrap_or(0.0) - cpu_before;
    let reps = traced_wall_s.len() as f64;
    let traced_wall = median(&traced_wall_s);

    let ledger_watch = Stopwatch::start();
    let mut layer = layers::run(args.seed, args.size, &bench);
    let ledger_s = ledger_watch.seconds();
    layer.extend(counters);
    layer.insert("study.job_run_s", jobs.job_run_s / reps);
    layer.insert("study.queue_wait_s", jobs.queue_wait_s / reps);
    layer.insert("study.uncovered_s", jobs.uncovered_s / reps);
    let busy = jobs.job_run_s / (nproc() as f64 * traced_wall_s.iter().sum::<f64>());
    layer.insert(
        "core.scheduler.idle_share",
        if jobs.job_run_s > 0.0 {
            1.0 - busy
        } else {
            0.0
        },
    );
    layer.insert(
        "obs.trace_overhead_pct",
        (traced_wall / untraced.wall_s - 1.0) * 100.0,
    );
    layer.insert("proc.cpu_s", cpu_s / reps);
    layer.insert("proc.threads_peak", threads_peak as f64);
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.name.strip_prefix("study.job_s.") {
                // A round the workload's calendar does not hold took no time.
                Some(id) => jobs.per_job.get(id).map_or(0.0, |s| s / reps),
                None => *layer
                    .get(m.name)
                    .unwrap_or_else(|| panic!("layer metric {} was not measured", m.name)),
            };
            (m.name, value, m.unit)
        })
        .collect();

    events.extend(bench.trace_events());
    events.sort_by_key(|e| e.ts);
    let rendered = pm_obs::trace::render(&events);
    let summary = pm_obs::trace::validate(&rendered)
        .unwrap_or_else(|e| panic!("the trace the benchmark wrote is malformed: {e}"));
    let path = Path::new(OUT_DIR).join(format!("{}.trace.json", args.workload.name()));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, rendered))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));

    let mut detail = common_detail(args, &gate, traced_wall_s.len());
    detail.push(("trace_file".into(), Json::str(path.display().to_string())));
    detail.push(("trace_events".into(), Json::Int(summary.events as u64)));
    detail.push(("untraced_wall_s".into(), Json::Num(untraced.wall_s)));
    detail.push(("traced_wall_s".into(), Json::Num(traced_wall)));
    detail.push(("ledger_s".into(), Json::Num(ledger_s)));
    RunReport {
        correct: gate.correct(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        detail: Json::Obj(detail),
    }
}
