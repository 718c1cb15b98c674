//! Reading the spans the program already emits (`job.run`,
//! `job.queue_wait`, `round.*`, `day.*`, `mix.*`) out of a traced rep.

use pm_obs::profile::TraceEvent;
use std::collections::BTreeMap;

/// Microseconds of slack when deciding that one span lies inside
/// another: both ends are truncated to whole microseconds separately.
const NEST_SLACK_US: u64 = 2;

/// Where one traced rep's job time went.
#[derive(Debug, Default, PartialEq)]
pub struct JobLedger {
    /// Σ `job.run`, seconds.
    pub job_run_s: f64,
    /// Σ `job.queue_wait`, seconds.
    pub queue_wait_s: f64,
    /// Σ self time of `job.run`: the part of each job no span on the
    /// job's thread covers — time nothing in the program explains.
    pub uncovered_s: f64,
    /// Seconds per job id (the `job` note of each `job.run`).
    pub per_job: BTreeMap<String, f64>,
}

impl JobLedger {
    /// Adds another rep's ledger to this one.
    pub fn absorb(&mut self, other: JobLedger) {
        self.job_run_s += other.job_run_s;
        self.queue_wait_s += other.queue_wait_s;
        self.uncovered_s += other.uncovered_s;
        for (id, secs) in other.per_job {
            *self.per_job.entry(id).or_default() += secs;
        }
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

pub fn job_ledger(events: &[TraceEvent]) -> JobLedger {
    let mut ledger = JobLedger::default();
    for job in events.iter().filter(|e| e.name == "job.run") {
        let end = job.ts + job.dur;
        let children = events
            .iter()
            .filter(|e| {
                e.tid == job.tid
                    && e.name != "job.run"
                    && e.ts >= job.ts
                    && e.ts + e.dur <= end + NEST_SLACK_US
            })
            .map(|e| (e.ts, (e.ts + e.dur).min(end)))
            .collect();
        let secs = job.dur as f64 / 1e6;
        ledger.job_run_s += secs;
        ledger.uncovered_s += (job.dur - union_len(children)) as f64 / 1e6;
        if let Some((_, id)) = job.args.iter().find(|(k, _)| k == "job") {
            *ledger.per_job.entry(id.clone()).or_default() += secs;
        }
    }
    ledger.queue_wait_s = events
        .iter()
        .filter(|e| e.name == "job.queue_wait")
        .map(|e| e.dur as f64 / 1e6)
        .sum();
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u64, ts: u64, dur: u64, job: Option<&str>) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "test".to_string(),
            ts,
            dur,
            tid,
            args: job
                .map(|j| ("job".to_string(), j.to_string()))
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn union_merges_overlaps_and_nesting() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30), (22, 25)]), 25);
    }

    #[test]
    fn self_time_is_what_no_child_on_the_thread_covers() {
        let events = vec![
            // Job a on thread 1: 1000 µs, of which a round covers
            // 100..600 (with a nested mix span) — 500 µs uncovered.
            ev("job.run", 1, 0, 1000, Some("a")),
            ev("round.psc", 1, 100, 500, None),
            ev("mix.batch", 1, 200, 100, None),
            // Same interval on another thread: not a child of job a.
            ev("mix.batch", 2, 0, 1000, None),
            // Job b on thread 2, fully covered up to rounding slack.
            ev("job.run", 2, 2000, 300, Some("b")),
            ev("round.privcount", 2, 2000, 301, None),
            ev("job.queue_wait", 1, 1000, 250, None),
        ];
        let l = job_ledger(&events);
        assert!((l.job_run_s - 1300e-6).abs() < 1e-12);
        assert!((l.uncovered_s - 500e-6).abs() < 1e-12, "{l:?}");
        assert!((l.queue_wait_s - 250e-6).abs() < 1e-12);
        assert_eq!(l.per_job.len(), 2);
        assert!((l.per_job["a"] - 1000e-6).abs() < 1e-12);
    }
}
