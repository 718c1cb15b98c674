//! The [`Recorder`]: one cheaply-cloneable handle onto both planes.

use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::metrics::{Counter, MetricsSnapshot, Registry};
use crate::profile::{Profiler, Span, TraceEvent};
use crate::trace;

/// A handle on one metrics registry plus (optionally) one profiler.
///
/// Clones share both; cloning is an `Arc` bump, so the handle is
/// threaded by value through `Deployment`, round configs, and the
/// switchboard. [`Recorder::default`] (and [`Recorder::new`]) gives a
/// fresh registry with profiling off — the right value for tests and
/// benches that don't inspect metrics.
///
/// Reads ([`Recorder::read_snapshot`], [`Recorder::read_counter`]) are
/// named so `pm-lint`'s `obs-readback` rule can spot them lexically:
/// they are legal only outside the protocol crates' `src/` trees.
#[derive(Clone, Default)]
pub struct Recorder {
    registry: Arc<Registry>,
    profiler: Option<Arc<Profiler>>,
}

impl Recorder {
    /// A fresh recorder: empty registry, profiling disabled.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// A fresh recorder with the wall-clock profiling plane enabled.
    pub fn with_profiling() -> Recorder {
        Recorder {
            registry: Arc::new(Registry::default()),
            profiler: Some(Arc::new(Profiler::new())),
        }
    }

    /// Whether the profiling plane is live.
    fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    // ---- metrics plane (writes) ----

    /// A cached counter handle for hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.registry.cell(name))
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        self.registry.cell(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter `name`.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Raises the gauge `name` to at least `v` (monotone max — the
    /// commutative form of a gauge, so it stays schedule-invariant
    /// when the recorded values themselves are).
    pub fn max(&self, name: &str, v: u64) {
        self.registry.cell(name).fetch_max(v, Ordering::Relaxed);
    }

    // ---- metrics plane (reads — forbidden in protocol crates) ----

    /// A sorted snapshot of every counter. **Reporting-side only**:
    /// `pm-lint`'s `obs-readback` rule rejects this call inside
    /// psc/privcount/net `src/` trees.
    pub fn read_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// One counter's current value (0 if never touched). Same
    /// reporting-side-only restriction as [`Recorder::read_snapshot`].
    pub fn read_counter(&self, name: &str) -> u64 {
        self.registry.cell(name).load(Ordering::Relaxed)
    }

    // ---- profiling plane ----

    /// Opens a span; it records on drop. Inert (no clock read, no
    /// allocation) when profiling is disabled.
    pub fn span(&self, name: &'static str, cat: &'static str) -> Span {
        match &self.profiler {
            Some(p) => Span::begin(Arc::clone(p), name, cat),
            None => Span::disabled(),
        }
    }

    /// All spans recorded so far (empty when profiling is disabled).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.profiler
            .as_ref()
            .map(|p| p.events())
            .unwrap_or_default()
    }

    /// The chrome://tracing JSON document for the recorded spans, or
    /// `None` when profiling is disabled.
    pub fn trace_json(&self) -> Option<String> {
        self.profiler.as_ref().map(|p| trace::render(&p.events()))
    }

    /// Writes [`Recorder::trace_json`] to `path`. No-op when profiling
    /// is disabled.
    pub fn write_trace(&self, path: &Path) -> io::Result<()> {
        if let Some(json) = self.trace_json() {
            std::fs::write(path, json)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("profiling", &self.profiling())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_registry() {
        let r = Recorder::new();
        let c = r.clone();
        r.add("a", 2);
        c.incr("a");
        c.max("g", 9);
        c.max("g", 4);
        assert_eq!(r.read_counter("a"), 3);
        assert_eq!(r.read_counter("g"), 9);
        assert_eq!(r.read_snapshot().entries.len(), 2);
    }

    #[test]
    fn profiling_defaults_off_and_spans_are_inert() {
        let r = Recorder::new();
        assert!(!r.profiling());
        drop(r.span("x", "test"));
        assert!(r.trace_events().is_empty());
        assert!(r.trace_json().is_none());
    }

    #[test]
    fn profiling_records_spans() {
        let r = Recorder::with_profiling();
        {
            let mut s = r.span("work", "test");
            s.note("items", 3);
        }
        let evs = r.trace_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "work");
        assert!(r.trace_json().unwrap().contains("\"work\""));
    }
}
