//! `perf --check A.json B.json`: do two result sets of the same commit
//! agree? End-to-end metrics must lie within their bounds of each
//! other, deterministic counts and digests must be equal.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use pm_obs::trace::Value;

/// Layer metrics that are pure functions of (workload, seed).
const EXACT_LAYER: [&str; 4] = [
    "psc.rounds",
    "psc.mix.cells",
    "net.frames.sent",
    "net.bytes.sent",
];

pub fn num(v: &Value, path: &[&str]) -> Option<f64> {
    match walk(v, path)? {
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

pub fn text<'a>(v: &'a Value, path: &[&str]) -> Option<&'a str> {
    match walk(v, path)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn walk<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

pub fn runs(doc: &Value) -> &[Value] {
    match doc.get("runs") {
        Some(Value::Arr(runs)) => runs,
        _ => &[],
    }
}

/// One compared quantity.
#[derive(Debug, PartialEq)]
pub struct Line {
    pub workload: String,
    pub what: String,
    pub a: String,
    pub b: String,
    /// Relative difference `(b - a) / min(a, b)` of a positive number:
    /// whichever set is taken as the parent, the other is worse by at
    /// most `|rel|`, the way the acceptance driver counts worse.
    pub rel: Option<f64>,
    /// The allowed |rel| (0 = must be equal); `None` = informational.
    pub bound: Option<f64>,
}

impl Line {
    pub fn ok(&self) -> bool {
        match (self.bound, self.rel) {
            (None, _) => true,
            (Some(bound), Some(rel)) => rel.abs() <= bound,
            (Some(_), None) => self.a == self.b,
        }
    }
}

/// Whole numbers as they are, everything else to six decimals.
fn show_num(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v}")
    } else {
        format!("{v:.6}")
    }
}

fn find<'a>(doc: &'a Value, workload: &str, trace: f64) -> Option<&'a Value> {
    runs(doc).iter().find(|r| {
        text(r, &["detail", "workload"]) == Some(workload)
            && num(r, &["detail", "trace"]) == Some(trace)
    })
}

fn metric_line(a: &Value, b: &Value, workload: &str, name: &str, bound: Option<f64>) -> Line {
    let path = ["result", "metrics", name, "value"];
    let (x, y) = (num(a, &path), num(b, &path));
    let show = |v: Option<f64>| v.map_or("missing".to_string(), show_num);
    Line {
        workload: workload.to_string(),
        what: name.to_string(),
        a: show(x),
        b: show(y),
        rel: match (x, y) {
            (Some(x), Some(y)) if x == y => Some(0.0),
            (Some(x), Some(y)) if x.min(y) > 0.0 => Some((y - x) / x.min(y)),
            _ => None,
        },
        bound,
    }
}

fn detail_line(a: &Value, b: &Value, workload: &str, key: &str) -> Line {
    let show = |r: &Value| match walk(r, &["detail", key]) {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Num(x)) => show_num(*x),
        _ => "missing".to_string(),
    };
    Line {
        workload: workload.to_string(),
        what: key.to_string(),
        a: show(a),
        b: show(b),
        rel: None,
        bound: Some(0.0),
    }
}

/// Compares every run of `a` with its counterpart in `b`.
pub fn compare(a: &Value, b: &Value) -> Vec<Line> {
    let mut lines = Vec::new();
    for run_a in runs(a) {
        let Some(workload) = text(run_a, &["detail", "workload"]) else {
            continue;
        };
        let trace = num(run_a, &["detail", "trace"]).unwrap_or(0.0);
        let Some(run_b) = find(b, workload, trace) else {
            lines.push(Line {
                workload: workload.to_string(),
                what: format!("run with trace {trace}"),
                a: "present".to_string(),
                b: "missing".to_string(),
                rel: None,
                bound: Some(0.0),
            });
            continue;
        };
        lines.push(detail_line(run_a, run_b, workload, "digest"));
        if trace == 0.0 {
            lines.push(detail_line(run_a, run_b, workload, "work_per_rep"));
            // A workload BENCHMARK.json does not list is too unsteady to
            // hold to the bounds; its outputs must still be equal.
            let listed = Workload::parse(workload).is_some_and(Workload::listed);
            for m in &END_TO_END {
                let bound = (listed || m.unit == "ratio").then_some(m.bound);
                lines.push(metric_line(run_a, run_b, workload, m.name, bound));
            }
        } else {
            for m in PER_LAYER {
                let bound = EXACT_LAYER.contains(&m.name).then_some(0.0);
                lines.push(metric_line(run_a, run_b, workload, m.name, bound));
            }
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_obs::trace::parse;

    fn results(wall: f64, digest: &str, frames: u64) -> Value {
        results_for("tor_day", wall, digest, frames)
    }

    fn results_for(workload: &str, wall: f64, digest: &str, frames: u64) -> Value {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "wall_s" { wall } else { 1.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let layers: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                let v = if m.name == "net.frames.sent" {
                    frames as f64
                } else {
                    2.0
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        parse(&format!(
            "{{\"runs\": [\
             {{\"detail\": {{\"workload\": \"{workload}\", \"trace\": 0, \"digest\": \"{digest}\", \"work_per_rep\": 12}}, \
               \"result\": {{\"metrics\": {{{}}}}}}}, \
             {{\"detail\": {{\"workload\": \"{workload}\", \"trace\": 1, \"digest\": \"{digest}\"}}, \
               \"result\": {{\"metrics\": {{{}}}}}}}]}}",
            e2e.join(", "),
            layers.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn identical_sets_agree() {
        let a = results(1.0, "ab", 1260);
        let lines = compare(&a, &a);
        assert_eq!(lines.len(), 2 + 1 + END_TO_END.len() + PER_LAYER.len());
        assert!(lines.iter().all(Line::ok));
    }

    #[test]
    fn timings_may_differ_within_the_bound_only() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "wall_s")
            .unwrap()
            .bound;
        let a = results(1.0, "ab", 1260);
        for inside in [1.0 + 0.9 * bound, 1.0 / (1.0 + 0.9 * bound)] {
            let b = results(inside, "ab", 1260);
            assert!(compare(&a, &b).iter().all(Line::ok));
            assert!(compare(&b, &a).iter().all(Line::ok));
        }
        // Outside the bound whichever set comes first.
        for outside in [1.0 + 1.1 * bound, 1.0 / (1.0 + 1.1 * bound)] {
            let b = results(outside, "ab", 1260);
            for (x, y) in [(&a, &b), (&b, &a)] {
                let bad: Vec<String> = compare(x, y)
                    .into_iter()
                    .filter(|l| !l.ok())
                    .map(|l| l.what)
                    .collect();
                assert_eq!(bad, ["wall_s"]);
            }
        }
    }

    #[test]
    fn an_unlisted_workload_is_held_to_equal_outputs_only() {
        let a = results_for("wire_rounds", 1.0, "ab", 1260);
        let slower = results_for("wire_rounds", 2.0, "ab", 1260);
        assert!(compare(&a, &slower).iter().all(Line::ok));
        let different = results_for("wire_rounds", 1.0, "cd", 1260);
        assert!(!compare(&a, &different).iter().all(Line::ok));
    }

    #[test]
    fn counts_and_digests_must_be_equal() {
        let a = results(1.0, "ab", 1260);
        let bad: Vec<String> = compare(&a, &results(1.0, "cd", 1261))
            .into_iter()
            .filter(|l| !l.ok())
            .map(|l| l.what)
            .collect();
        assert_eq!(bad, ["digest", "digest", "net.frames.sent"]);
    }

    #[test]
    fn a_missing_run_fails() {
        let a = results(1.0, "ab", 1260);
        let empty = parse("{\"runs\": []}").unwrap();
        assert!(compare(&a, &empty).iter().all(|l| !l.ok()));
        assert!(compare(&empty, &a).is_empty());
    }
}
