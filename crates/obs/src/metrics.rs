//! The deterministic metrics plane: a sorted registry of monotone
//! `u64` counters and max-gauges.
//!
//! Everything stored here must be a deterministic function of
//! `(config, seed)` — see the crate docs for the contract and for what
//! belongs in the profiling plane instead. Increments are atomic and
//! commutative, so any interleaving of writer threads folds to the
//! same totals; the snapshot iterates the `BTreeMap` in key order, so
//! two registries fed the same increments render byte-identically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The counter/gauge store behind a [`crate::Recorder`].
#[derive(Default)]
pub(crate) struct Registry {
    cells: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

impl Registry {
    /// The cell for `name`, created at zero on first use.
    pub(crate) fn cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut cells = self.cells.lock().expect("metrics registry poisoned");
        if let Some(c) = cells.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(AtomicU64::new(0));
        cells.insert(name.to_string(), Arc::clone(&c));
        c
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let cells = self.cells.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            entries: cells
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// A cached handle on one registry cell: hot paths resolve the name
/// once and increment lock-free afterwards.
#[derive(Clone)]
pub struct Counter(pub(crate) Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A point-in-time copy of the registry, sorted by metric name. This
/// is the value that reaches `CampaignReport` renders — it is part of
/// the bit-identity contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// One `name value` line per entry, sorted — the text-render form.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.entries {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }

    /// A JSON object literal `{"name": value, …}`, sorted. Metric names
    /// are workspace-chosen dotted idents, so no escaping is needed
    /// beyond the debug assertion.
    pub fn render_json_object(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.entries.iter().enumerate() {
            debug_assert!(!k.contains(['"', '\\']), "metric name {k:?} needs escaping");
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{k}\": {v}"));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorts() {
        let r = Registry::default();
        Counter(r.cell("b.two")).add(2);
        Counter(r.cell("a.one")).incr();
        Counter(r.cell("b.two")).add(3);
        let snap = r.snapshot();
        assert_eq!(
            snap.entries,
            vec![("a.one".to_string(), 1), ("b.two".to_string(), 5)]
        );
        assert_eq!(snap.get("b.two"), Some(5));
        assert_eq!(snap.get("missing"), None);
        assert_eq!(snap.render_lines(), "a.one 1\nb.two 5\n");
        assert_eq!(snap.render_json_object(), "{\"a.one\": 1, \"b.two\": 5}");
    }

    #[test]
    fn interleaving_cannot_change_totals() {
        // The commutativity the bit-identity contract leans on: any
        // thread interleaving of the same increments lands on the same
        // snapshot.
        let r = Arc::new(Registry::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    let c = Counter(r.cell("x"));
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(r.snapshot().get("x"), Some(4000));
    }
}
