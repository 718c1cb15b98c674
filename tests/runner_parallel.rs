//! Concurrency contracts of the parallel experiment runner
//! (`torstudy::runner`):
//!
//! * the dependency-graph executor never wall-clock co-schedules rounds
//!   the §3.1 `Accountant` forbids (repeat measurements of the same
//!   statistic), and never starts a round before its dependencies
//!   complete — checked with instrumented synthetic rounds;
//! * reports come back in plan (= registry) order no matter what order
//!   rounds *finish* in — a deterministic, loom-free check using rounds
//!   with deliberately inverted durations;
//! * on real experiments, the parallel executor produces bit-identical
//!   reports to the sequential baseline.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use torstudy::deployment::{Deployment, MAX_CONCURRENT_PSC_ROUNDS};
use torstudy::report::Report;
use torstudy::runner::{
    plan_schedule, registry, run_jobs, run_plan, ExperimentEntry, Job, PlannedRound,
};
use torstudy::Deployment as Dep;

// ----- instrumented synthetic rounds -----
//
// 8 rounds in 4 same-statistic pairs: round 2k+1 repeats the statistic
// of round 2k and therefore depends on it. Each round records itself in
// a global active-set on entry and checks that no concurrently-active
// round shares its statistic (the accountant-forbidden case) and that
// all its dependencies already completed.

static ACTIVE: Mutex<Vec<usize>> = Mutex::new(Vec::new());
static COMPLETED: Mutex<Vec<usize>> = Mutex::new(Vec::new());
static VIOLATIONS: AtomicUsize = AtomicUsize::new(0);

fn stat_of(round: usize) -> usize {
    round / 2
}

fn synthetic_round<const I: usize>(_dep: &Deployment) -> Report {
    {
        let mut active = ACTIVE.lock().unwrap();
        let completed = COMPLETED.lock().unwrap();
        for &other in active.iter() {
            if stat_of(other) == stat_of(I) {
                VIOLATIONS.fetch_add(1, Ordering::SeqCst);
            }
        }
        if I % 2 == 1 && !completed.contains(&(I - 1)) {
            VIOLATIONS.fetch_add(1, Ordering::SeqCst);
        }
        active.push(I);
    }
    // Inverted durations: later plan entries finish first, so plan-order
    // output below is a real reordering check, not a coincidence.
    std::thread::sleep(std::time::Duration::from_millis(5 * (8 - I as u64)));
    {
        let mut active = ACTIVE.lock().unwrap();
        active.retain(|&r| r != I);
        COMPLETED.lock().unwrap().push(I);
    }
    Report::new(format!("S{I}"), "synthetic")
}

fn synthetic_plan() -> Vec<PlannedRound> {
    fn entry(id: &'static str, run: fn(&Deployment) -> Report) -> ExperimentEntry {
        ExperimentEntry {
            id,
            system: pm_dp::accountant::System::PrivCount,
            duration_hours: 24,
            run,
        }
    }
    let runs: [fn(&Deployment) -> Report; 8] = [
        synthetic_round::<0>,
        synthetic_round::<1>,
        synthetic_round::<2>,
        synthetic_round::<3>,
        synthetic_round::<4>,
        synthetic_round::<5>,
        synthetic_round::<6>,
        synthetic_round::<7>,
    ];
    let ids = ["A", "A", "B", "B", "C", "C", "D", "D"];
    (0..8)
        .map(|i| PlannedRound {
            entry: entry(ids[i], runs[i]),
            start_hour: 24 * (i / 2) as u64,
            end_hour: 24 * (i / 2) as u64 + 24,
            deps: if i % 2 == 1 { vec![i - 1] } else { Vec::new() },
        })
        .collect()
}

#[test]
fn executor_never_coschedules_forbidden_rounds_and_restores_order() {
    ACTIVE.lock().unwrap().clear();
    COMPLETED.lock().unwrap().clear();
    VIOLATIONS.store(0, Ordering::SeqCst);

    let dep = Dep::at_scale(1e-4, 1);
    let reports = run_plan(&dep, synthetic_plan(), 8);

    assert_eq!(
        VIOLATIONS.load(Ordering::SeqCst),
        0,
        "a forbidden pair ran concurrently or a dependency was violated"
    );
    assert_eq!(COMPLETED.lock().unwrap().len(), 8);
    // Reports in plan order regardless of completion order.
    let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids, ["S0", "S1", "S2", "S3", "S4", "S5", "S6", "S7"]);
}

#[test]
fn planned_schedule_is_accountant_clean() {
    // The real registry's plan: every pair of rounds is either
    // dependency-ordered (same statistic) or logically disjoint — the
    // §3.1 precondition the executor relies on for lock-free sharing.
    let (planned, accountant) = plan_schedule();
    assert_eq!(planned.len(), registry().len());
    assert_eq!(accountant.rounds().len(), planned.len());
    for (i, a) in planned.iter().enumerate() {
        for (j, b) in planned.iter().enumerate().skip(i + 1) {
            let disjoint = a.end_hour <= b.start_hour || b.end_hour <= a.start_hour;
            let ordered = b.deps.contains(&i) || a.deps.contains(&j);
            assert!(
                disjoint || ordered,
                "rounds {} and {} neither disjoint nor ordered",
                a.entry.id,
                b.entry.id
            );
        }
    }
    // Plan order is registry order — together with run_plan's plan-order
    // output (checked above), run_all's report order deterministically
    // matches the sequential registry order.
    let plan_ids: Vec<&str> = planned.iter().map(|p| p.entry.id).collect();
    let reg_ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    assert_eq!(plan_ids, reg_ids);
}

// ----- PSC concurrency cap -----
//
// Each in-flight PSC round pins an oblivious table in memory, so the
// executor throttles them to a cap (MAX_CONCURRENT_PSC_ROUNDS for the
// registry and the campaign) while PrivCount rounds fill the remaining
// workers. Instrumented rounds track the high-water mark of concurrent
// PSC executions.

static PSC_ACTIVE: AtomicUsize = AtomicUsize::new(0);
static PSC_MAX: AtomicUsize = AtomicUsize::new(0);

fn instrumented_psc_round(_dep: &Deployment) -> Report {
    let now = PSC_ACTIVE.fetch_add(1, Ordering::SeqCst) + 1;
    PSC_MAX.fetch_max(now, Ordering::SeqCst);
    std::thread::sleep(std::time::Duration::from_millis(20));
    PSC_ACTIVE.fetch_sub(1, Ordering::SeqCst);
    Report::new("PSC", "capped")
}

fn capped_plan() -> Vec<PlannedRound> {
    let mk = |i: usize, system, run| PlannedRound {
        entry: ExperimentEntry {
            id: "R",
            system,
            duration_hours: 24,
            run,
        },
        start_hour: 24 * i as u64,
        end_hour: 24 * i as u64 + 24,
        deps: Vec::new(),
    };
    let mut plan: Vec<PlannedRound> = (0..6)
        .map(|i| {
            mk(
                i,
                pm_dp::accountant::System::Psc,
                instrumented_psc_round as fn(&Deployment) -> Report,
            )
        })
        .collect();
    // Two untracked PrivCount rounds ride along: the cap must not
    // throttle them (the run would deadlock if it mistakenly did, since
    // workers > cap are available to claim them).
    for i in 6..8 {
        plan.push(mk(i, pm_dp::accountant::System::PrivCount, |_| {
            Report::new("PC", "untracked")
        }));
    }
    plan
}

/// Runs `run` with fresh high-water instrumentation and returns how many
/// PSC rounds were in flight at most.
fn psc_high_water(run: impl FnOnce() -> Vec<Report>) -> usize {
    PSC_ACTIVE.store(0, Ordering::SeqCst);
    PSC_MAX.store(0, Ordering::SeqCst);
    assert_eq!(run().len(), 8);
    let max = PSC_MAX.load(Ordering::SeqCst);
    assert!(max >= 1, "instrumentation saw no PSC round");
    max
}

#[test]
fn runner_honours_psc_concurrency_cap() {
    let dep = &Dep::at_scale(1e-4, 1);
    for cap in [1usize, 2] {
        let max = psc_high_water(|| {
            let jobs: Vec<Job<'_>> = capped_plan()
                .into_iter()
                .map(|p| Job {
                    id: p.entry.id.to_string(),
                    is_psc: p.entry.system == pm_dp::accountant::System::Psc,
                    deps: p.deps,
                    run: Box::new(move || (p.entry.run)(dep)),
                })
                .collect();
            run_jobs(jobs, 8, cap, &dep.recorder)
        });
        assert!(max <= cap, "cap {cap} exceeded: {max} PSC rounds in flight");
    }
    let max = psc_high_water(|| run_plan(dep, capped_plan(), 8));
    assert!(
        max <= MAX_CONCURRENT_PSC_ROUNDS,
        "run_plan exceeded its cap: {max} PSC rounds in flight"
    );
}

#[test]
fn parallel_execution_matches_sequential_on_real_experiments() {
    // The cheap PrivCount subset (PSC rounds cost ~25s each in debug and
    // are covered by shard/report invariance tests); T7's ratio CI needs
    // more volume than this scale provides.
    let fast: HashSet<&str> = ["T1", "F1", "F2", "F3", "T4", "F4", "T8", "X1", "X2"]
        .into_iter()
        .collect();
    let filter = || -> Vec<PlannedRound> {
        let (planned, _) = plan_schedule();
        let kept: Vec<PlannedRound> = planned
            .into_iter()
            .filter(|p| fast.contains(p.entry.id))
            .collect();
        // All registry statistics are distinct, so filtering cannot
        // orphan a dependency.
        assert!(kept.iter().all(|p| p.deps.is_empty()));
        kept
    };
    let dep = Dep::at_scale(1e-4, 904);
    let sequential: Vec<String> = filter()
        .iter()
        .map(|p| (p.entry.run)(&dep).render_text())
        .collect();
    let parallel: Vec<String> = run_plan(&dep, filter(), 4)
        .iter()
        .map(|r| r.render_text())
        .collect();
    assert_eq!(sequential, parallel);
}
