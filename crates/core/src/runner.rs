//! Runs experiments under the paper's scheduling rules, in parallel.
//!
//! The §3.1 rules constrain the study's *logical* schedule — hours of
//! simulated measurement time — not wall-clock execution. [`run_all`]
//! therefore separates the two:
//!
//! 1. **Plan** ([`plan_schedule`]): every registry entry is placed on
//!    the [`Accountant`]'s calendar at its earliest start that keeps
//!    rounds from overlapping and distinct statistics 24 hours apart.
//!    Planning is sequential and happens before any experiment runs.
//! 2. **Execute**: a dependency graph over the planned rounds is run on
//!    a bounded thread pool. Edges order rounds that measure the same
//!    statistic (repeat measurements must retain their scheduled
//!    order); rounds whose logical intervals are disjoint — which §3.1
//!    guarantees for every accepted schedule — share no data and may
//!    execute wall-clock-concurrently. Reports are returned in registry
//!    order regardless of completion order. PSC rounds are additionally
//!    throttled by the constant [`MAX_CONCURRENT_PSC_ROUNDS`]: each
//!    in-flight PSC round pins an oblivious table in memory, so only
//!    that many may run at once while PrivCount rounds fill the
//!    remaining workers.
//!
//! Running the same plan one round at a time produces the identical
//! reports (experiments derive all randomness from the deployment
//! seed, not from execution order — the equivalence is pinned by
//! `tests/runner_parallel.rs`).
//!
//! The scheduling machinery itself is generic: [`run_jobs`] executes
//! any dependency graph of [`Job`]s under the same worker pool and
//! PSC-memory-cap rules. The registry lowers to `Job<Report>` here;
//! the longitudinal campaign engine (`pm-study`) lowers its
//! day-indexed calendar onto the same executor.

use crate::deployment::{Deployment, MAX_CONCURRENT_PSC_ROUNDS};
use crate::experiments;
use crate::report::Report;
use pm_dp::accountant::{Accountant, System};
use pm_obs::Recorder;
use std::sync::{Condvar, Mutex};

/// An experiment's registry entry.
pub struct ExperimentEntry {
    /// Report id ("F1", "T4", …).
    pub id: &'static str,
    /// Which system the round uses.
    pub system: System,
    /// Collection duration in hours.
    pub duration_hours: u64,
    /// Runner.
    pub run: fn(&Deployment) -> Report,
}

/// All experiments in the paper's running order.
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        ExperimentEntry {
            id: "T1",
            system: System::PrivCount,
            duration_hours: 24,
            run: experiments::tab1::run,
        },
        ExperimentEntry {
            id: "F1",
            system: System::PrivCount,
            duration_hours: 24,
            run: experiments::fig1::run,
        },
        ExperimentEntry {
            id: "F2",
            system: System::PrivCount,
            duration_hours: 24,
            run: experiments::fig2::run,
        },
        ExperimentEntry {
            id: "F3",
            system: System::PrivCount,
            duration_hours: 24,
            run: experiments::fig3::run,
        },
        ExperimentEntry {
            id: "T2",
            system: System::Psc,
            duration_hours: 24,
            run: experiments::tab2::run,
        },
        ExperimentEntry {
            id: "T4",
            system: System::PrivCount,
            duration_hours: 24,
            run: experiments::tab4::run,
        },
        ExperimentEntry {
            id: "T5",
            system: System::Psc,
            duration_hours: 96,
            run: experiments::tab5::run,
        },
        ExperimentEntry {
            id: "T3",
            system: System::Psc,
            duration_hours: 48,
            run: experiments::tab3::run,
        },
        ExperimentEntry {
            id: "F4",
            system: System::PrivCount,
            duration_hours: 24,
            run: experiments::fig4::run,
        },
        ExperimentEntry {
            id: "T6",
            system: System::Psc,
            duration_hours: 48,
            run: experiments::tab6::run,
        },
        ExperimentEntry {
            id: "T7",
            system: System::PrivCount,
            duration_hours: 24,
            run: experiments::tab7::run,
        },
        ExperimentEntry {
            id: "T8",
            system: System::PrivCount,
            duration_hours: 24,
            run: experiments::tab8::run,
        },
        // Text-only results (§4.3 categories, §5.2 AS hotspots).
        ExperimentEntry {
            id: "X1",
            system: System::PrivCount,
            duration_hours: 24,
            run: experiments::extras::run_categories,
        },
        ExperimentEntry {
            id: "X2",
            system: System::PrivCount,
            duration_hours: 24,
            run: experiments::extras::run_as_hotspots,
        },
    ]
}

/// One planned round: a registry entry with its accountant-validated
/// logical interval and execution dependencies.
pub struct PlannedRound {
    /// The experiment.
    pub entry: ExperimentEntry,
    /// Scheduled start, hours since study epoch.
    pub start_hour: u64,
    /// Scheduled end.
    pub end_hour: u64,
    /// Indices of planned rounds that must complete first (same
    /// statistic measured earlier in the schedule).
    pub deps: Vec<usize>,
}

/// Places the whole registry on the [`Accountant`]'s calendar, returning
/// the planned rounds (registry order) alongside the filled ledger.
/// Each entry takes the earliest §3.1-legal start, so the plan is legal
/// by construction; repeats of a statistic become dependencies.
///
/// Panics if a registry entry has zero duration — the registry is
/// static, so that is a programming error, caught by `schedule_is_valid`.
pub fn plan_schedule() -> (Vec<PlannedRound>, Accountant) {
    let mut accountant = Accountant::new();
    let planned = registry()
        .into_iter()
        .enumerate()
        .map(|(i, entry)| {
            let start_hour = accountant
                .place(
                    entry.id,
                    entry.system,
                    entry.id,
                    entry.duration_hours,
                    u64::MAX,
                )
                .expect("registry rounds have a duration and no horizon");
            PlannedRound {
                start_hour,
                end_hour: start_hour + entry.duration_hours,
                deps: accountant.repeats_before(i),
                entry,
            }
        })
        .collect();
    (planned, accountant)
}

/// One unit of schedulable work for the generic executor
/// ([`run_jobs`]). Registry experiments lower to `Job<Report>`; the
/// longitudinal campaign engine (`pm-study`) lowers its day-indexed
/// rounds to `Job<T>` carrying round outcomes richer than a report.
pub struct Job<'a, T = Report> {
    /// Display/diagnostic id.
    pub id: String,
    /// PSC jobs pin an oblivious table in memory and are throttled by
    /// the executor's PSC cap; other jobs are not.
    pub is_psc: bool,
    /// Indices of jobs that must complete first.
    pub deps: Vec<usize>,
    /// The work. Must derive all randomness from its own seeds — never
    /// from execution order — so every schedule yields the same output.
    pub run: Box<dyn Fn() -> T + Send + Sync + 'a>,
}

/// Prefixes a job's panic payload with the job id, so the re-raised
/// panic names which round blew up instead of an anonymous worker
/// thread. Payloads that are not strings pass through unchanged.
fn annotate_panic(
    payload: Box<dyn std::any::Any + Send>,
    id: &str,
) -> Box<dyn std::any::Any + Send> {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        Some((*s).to_string())
    } else {
        payload.downcast_ref::<String>().cloned()
    };
    match msg {
        Some(msg) => Box::new(format!("job {id} panicked: {msg}")),
        None => payload,
    }
}

struct ExecState<T> {
    /// Unmet dependency count per job; usize::MAX marks "claimed".
    pending: Vec<usize>,
    outputs: Vec<Option<T>>,
    completed: usize,
    /// PSC jobs currently in flight, bounded by the executor's cap.
    psc_running: usize,
    /// First panic payload from a job; set once, aborts the pool.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Executes jobs on up to `workers` threads, honouring the dependency
/// graph and throttling PSC jobs to `psc_cap` in flight, and returns
/// outputs in job order. The scheduling machinery shared by the
/// registry runner and the campaign engine.
///
/// `recorder` receives the deterministic `runner.jobs` /
/// `runner.jobs.psc` counters (job totals are fixed by the plan, never
/// by scheduling) plus, when it profiles, a `job.run` span per
/// executed job and a `job.queue_wait` span per worker wait episode.
pub fn run_jobs<T: Send>(
    jobs: Vec<Job<'_, T>>,
    workers: usize,
    psc_cap: usize,
    recorder: &Recorder,
) -> Vec<T> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    recorder.add("runner.jobs", n as u64);
    recorder.add(
        "runner.jobs.psc",
        jobs.iter().filter(|j| j.is_psc).count() as u64,
    );
    // Validate the dependency graph up front: an out-of-range or
    // duplicate dep desynchronizes the pending counters and a cycle
    // never unblocks — either would deadlock the worker pool silently,
    // so turn them into a diagnosable panic instead.
    for (i, job) in jobs.iter().enumerate() {
        let mut seen = vec![false; n];
        for &d in &job.deps {
            assert!(d < n, "job {i} ({}) has out-of-range dep {d}", job.id);
            assert!(!seen[d], "job {i} ({}) lists dep {d} twice", job.id);
            seen[d] = true;
        }
    }
    {
        // Kahn's algorithm: every job must be reachable at depth order.
        let mut unmet: Vec<usize> = jobs.iter().map(|j| j.deps.len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| unmet[i] == 0).collect();
        let mut done = 0;
        while let Some(i) = queue.pop() {
            done += 1;
            for (j, job) in jobs.iter().enumerate() {
                if job.deps.contains(&i) {
                    unmet[j] -= 1;
                    if unmet[j] == 0 {
                        queue.push(j);
                    }
                }
            }
        }
        assert_eq!(done, n, "job dependency graph contains a cycle");
    }
    let workers = workers.clamp(1, n);
    let psc_cap = psc_cap.max(1);
    let state = Mutex::new(ExecState {
        pending: jobs.iter().map(|j| j.deps.len()).collect(),
        outputs: (0..n).map(|_| None).collect(),
        completed: 0,
        psc_running: 0,
        panic: None,
    });
    let ready = Condvar::new();
    let jobs = &jobs;
    let state = &state;
    let ready = &ready;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || loop {
                let idx = {
                    let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        if guard.completed == n || guard.panic.is_some() {
                            return;
                        }
                        // A PSC job is only claimable while a memory
                        // slot is free; other jobs always are.
                        let psc_open = guard.psc_running < psc_cap;
                        let next =
                            guard.pending.iter().enumerate().position(|(i, &unmet)| {
                                unmet == 0 && (psc_open || !jobs[i].is_psc)
                            });
                        match next {
                            Some(i) => {
                                guard.pending[i] = usize::MAX; // claimed
                                if jobs[i].is_psc {
                                    guard.psc_running += 1;
                                }
                                break i;
                            }
                            // Everything runnable is claimed or over the
                            // PSC cap; wait for a completion to release
                            // dependents or a PSC slot.
                            None => {
                                let _wait = recorder.span("job.queue_wait", "runner");
                                guard = ready.wait(guard).unwrap_or_else(|e| e.into_inner());
                            }
                        }
                    }
                };
                // Catch panics so a crashing job aborts the pool and
                // re-raises on the caller, instead of leaving the other
                // workers waiting forever on a completion count that can
                // no longer be reached. A panic is a *bug* escaping a
                // job — jobs that can fail should return a Result as
                // their output `T` and let the caller account for it
                // (the campaign engine turns round failures into
                // aborted-round outcomes, never panics).
                let mut run_span = recorder.span("job.run", "runner");
                run_span.note("job", &jobs[idx].id);
                run_span.note("psc", jobs[idx].is_psc);
                let output =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (jobs[idx].run)()))
                        .map_err(|payload| annotate_panic(payload, &jobs[idx].id));
                drop(run_span);
                let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
                if jobs[idx].is_psc {
                    guard.psc_running -= 1;
                }
                match output {
                    Ok(output) => {
                        guard.outputs[idx] = Some(output);
                        guard.completed += 1;
                        for (j, job) in jobs.iter().enumerate() {
                            if job.deps.contains(&idx) {
                                guard.pending[j] -= 1;
                            }
                        }
                    }
                    Err(payload) => {
                        guard.panic.get_or_insert(payload);
                    }
                }
                drop(guard);
                ready.notify_all();
            });
        }
    });
    let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(payload) = guard.panic.take() {
        std::panic::resume_unwind(payload);
    }
    let outputs: Vec<T> = guard
        .outputs
        .iter_mut()
        .map(|slot| slot.take().expect("job completed"))
        .collect();
    outputs
}

/// Executes an explicit plan on up to `workers` threads via
/// [`run_jobs`], honouring its dependency graph and the
/// [`MAX_CONCURRENT_PSC_ROUNDS`] cap; reports come back in plan (= registry)
/// order. Public so tests can drive synthetic plans with instrumented
/// run functions; study code should call [`run_all`].
pub fn run_plan(dep: &Deployment, planned: Vec<PlannedRound>, workers: usize) -> Vec<Report> {
    let jobs: Vec<Job<'_, Report>> = planned
        .into_iter()
        .map(|p| Job {
            id: p.entry.id.to_string(),
            is_psc: p.entry.system == System::Psc,
            deps: p.deps,
            run: Box::new(move || (p.entry.run)(dep)),
        })
        .collect();
    run_jobs(jobs, workers, MAX_CONCURRENT_PSC_ROUNDS, &dep.recorder)
}

/// Runs every experiment: the schedule is validated against the §3.1
/// rules up front, then logically-disjoint rounds execute concurrently
/// on a thread pool. Reports come back in registry order, identical to
/// a one-at-a-time run of the same plan.
pub fn run_all(dep: &Deployment) -> Vec<Report> {
    let (planned, _accountant) = plan_schedule();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_plan(dep, planned, workers)
}

/// Runs a subset of experiments by id. Subsets skip the §3.1 schedule
/// and run one at a time, but still lower onto the executor so the
/// runner's counters and `job.run` spans cover `--only` runs too.
pub fn run_some(dep: &Deployment, ids: &[&str]) -> Vec<Report> {
    let jobs: Vec<Job<'_, Report>> = registry()
        .into_iter()
        .filter(|e| ids.contains(&e.id))
        .map(|e| Job {
            id: e.id.to_string(),
            is_psc: e.system == System::Psc,
            deps: Vec::new(),
            run: Box::new(move || (e.run)(dep)),
        })
        .collect();
    run_jobs(jobs, 1, MAX_CONCURRENT_PSC_ROUNDS, &dep.recorder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        for want in [
            "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F1", "F2", "F3", "F4",
        ] {
            assert!(ids.contains(&want), "missing {want}");
        }
        assert_eq!(ids.len(), 14);
    }

    #[test]
    fn schedule_is_valid() {
        // The scheduling logic alone (no experiment execution).
        let (planned, accountant) = plan_schedule();
        assert_eq!(accountant.rounds().len(), 14);
        // Every statistic is distinct, so each round starts 24h after
        // the previous one ends.
        let intervals: Vec<(&str, u64, u64)> = planned
            .iter()
            .map(|p| (p.entry.id, p.start_hour, p.end_hour))
            .collect();
        assert_eq!(
            intervals,
            [
                ("T1", 0, 24),
                ("F1", 48, 72),
                ("F2", 96, 120),
                ("F3", 144, 168),
                ("T2", 192, 216),
                ("T4", 240, 264),
                ("T5", 288, 384),
                ("T3", 408, 456),
                ("F4", 480, 504),
                ("T6", 528, 576),
                ("T7", 600, 624),
                ("T8", 648, 672),
                ("X1", 696, 720),
                ("X2", 744, 768),
            ]
        );
        // §3.1: planned logical intervals are pairwise disjoint.
        for (i, a) in planned.iter().enumerate() {
            for b in planned.iter().skip(i + 1) {
                assert!(
                    a.end_hour <= b.start_hour || b.end_hour <= a.start_hour,
                    "rounds {} and {} overlap logically",
                    a.entry.id,
                    b.entry.id
                );
            }
        }
    }

    #[test]
    fn distinct_statistics_have_no_deps() {
        // All 14 registry statistics are distinct, so the dependency
        // graph is empty and every round is logically concurrent.
        let (planned, _) = plan_schedule();
        assert!(planned.iter().all(|p| p.deps.is_empty()));
    }

    #[test]
    fn a_tor_day_builds_one_domain_sampler() {
        use std::sync::Arc;
        // The nine PrivCount entries of a Tor day: six exit-side rounds
        // of six DC streams each, all over one universe and one mix.
        let dep = crate::deployment::Deployment::at_scale(1e-3, 3).with_shards(2);
        let mix = &dep.workload.exit.mix;
        let sampler = dep.sites.domain_sampler(mix);
        let reports = run_some(
            &dep,
            &["T1", "F1", "F2", "F3", "T4", "F4", "T8", "X1", "X2"],
        );
        assert_eq!(reports.len(), 9);
        // A build replaces the memo's slot, so the slot still holding
        // the sampler requested before the run means the run's 36
        // requests all hit it; and no finished round kept a copy.
        assert!(Arc::ptr_eq(&sampler, &dep.sites.domain_sampler(mix)));
        assert_eq!(Arc::strong_count(&sampler), 2);
    }

    #[test]
    #[should_panic(expected = "round exploded")]
    fn panicking_round_propagates_instead_of_hanging() {
        let planned: Vec<PlannedRound> = (0..3)
            .map(|i| PlannedRound {
                entry: ExperimentEntry {
                    id: "P",
                    system: System::PrivCount,
                    duration_hours: 24,
                    run: if i == 1 {
                        |_| panic!("round exploded")
                    } else {
                        |_| Report::new("ok", "t")
                    },
                },
                start_hour: 24 * i as u64,
                end_hour: 24 * (i + 1) as u64,
                deps: Vec::new(),
            })
            .collect();
        let dep = crate::deployment::Deployment::at_scale(1e-4, 1);
        // Must re-raise the round's panic on the caller; before the
        // catch_unwind in run_jobs this deadlocked the pool.
        let _ = run_plan(&dep, planned, 2);
    }

    #[test]
    #[should_panic(expected = "out-of-range dep")]
    fn run_jobs_rejects_out_of_range_deps() {
        let jobs: Vec<Job<'_, ()>> = vec![Job {
            id: "bad".into(),
            is_psc: false,
            deps: vec![5],
            run: Box::new(|| ()),
        }];
        run_jobs(jobs, 2, 1, &Recorder::new());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn run_jobs_rejects_cycles() {
        let mk = |deps: Vec<usize>| Job::<'_, ()> {
            id: "cyc".into(),
            is_psc: false,
            deps,
            run: Box::new(|| ()),
        };
        // 0 → 1 → 0: would deadlock the pool without the up-front check.
        run_jobs(vec![mk(vec![1]), mk(vec![0])], 2, 1, &Recorder::new());
    }

    #[test]
    fn panic_payload_names_the_job() {
        let jobs: Vec<Job<'_, ()>> = vec![Job {
            id: "churn-day3".into(),
            is_psc: false,
            deps: Vec::new(),
            run: Box::new(|| panic!("index out of bounds")),
        }];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_jobs(jobs, 1, 1, &Recorder::new());
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("churn-day3"), "{msg}");
        assert!(msg.contains("index out of bounds"), "{msg}");
    }

    #[test]
    fn reported_failures_flow_through_without_panicking() {
        // A job that *reports* failure (Err output) is a normal
        // completion; only a panic aborts the pool. The campaign
        // engine relies on this to turn round failures into aborted
        // outcomes.
        let jobs: Vec<Job<'_, Result<u32, String>>> = (0..4)
            .map(|i| Job {
                id: format!("r{i}"),
                is_psc: false,
                deps: Vec::new(),
                run: Box::new(move || {
                    if i == 2 {
                        Err(format!("round r{i}: share keeper died"))
                    } else {
                        Ok(i)
                    }
                }),
            })
            .collect();
        let out = run_jobs(jobs, 2, 1, &Recorder::new());
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[2], Err("round r2: share keeper died".into()));
        assert_eq!(out[3], Ok(3));
    }

    #[test]
    fn executor_honours_dependencies() {
        // A synthetic plan with a chain: each round appends its index
        // under a lock; deps must be respected whatever the pool does.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DONE_MASK: AtomicUsize = AtomicUsize::new(0);
        DONE_MASK.store(0, Ordering::SeqCst);

        fn mk(idx: usize) -> fn(&crate::deployment::Deployment) -> Report {
            // Each round asserts all earlier rounds in its chain ran.
            match idx {
                0 => |_| {
                    DONE_MASK.fetch_or(1, Ordering::SeqCst);
                    Report::new("0", "t")
                },
                1 => |_| {
                    assert!(DONE_MASK.load(Ordering::SeqCst) & 1 == 1, "dep not met");
                    DONE_MASK.fetch_or(2, Ordering::SeqCst);
                    Report::new("1", "t")
                },
                _ => |_| {
                    assert!(DONE_MASK.load(Ordering::SeqCst) & 3 == 3, "deps not met");
                    Report::new("2", "t")
                },
            }
        }
        let planned: Vec<PlannedRound> = (0..3)
            .map(|i| PlannedRound {
                entry: ExperimentEntry {
                    id: "X",
                    system: System::PrivCount,
                    duration_hours: 24,
                    run: mk(i),
                },
                start_hour: 24 * i as u64,
                end_hour: 24 * (i + 1) as u64,
                deps: (0..i).collect(),
            })
            .collect();
        let dep = crate::deployment::Deployment::at_scale(1e-4, 1);
        let reports = run_plan(&dep, planned, 3);
        assert_eq!(
            reports.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["0", "1", "2"]
        );
    }
}
