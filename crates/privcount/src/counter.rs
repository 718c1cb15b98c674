//! Counter schemas: what a round measures and how events map to
//! increments.

use pm_dp::mechanism::gaussian_sigma;
use torsim::TorEvent;

/// One counter (or histogram bin) in a round's schema.
#[derive(Clone, Debug)]
pub struct CounterSpec {
    /// Display name (e.g. `"exit.streams.initial"`).
    pub name: String,
    /// Gaussian noise σ this counter must carry (calibrated from the
    /// action bounds and the round's ε share).
    pub sigma: f64,
}

impl CounterSpec {
    /// Builds a spec with σ calibrated for `(eps, delta)` at
    /// `sensitivity`.
    pub fn calibrated(
        name: impl Into<String>,
        sensitivity: f64,
        eps: f64,
        delta: f64,
    ) -> CounterSpec {
        CounterSpec {
            name: name.into(),
            sigma: gaussian_sigma(sensitivity, eps, delta),
        }
    }

    /// Builds a spec with an explicit σ.
    pub fn with_sigma(name: impl Into<String>, sigma: f64) -> CounterSpec {
        CounterSpec {
            name: name.into(),
            sigma,
        }
    }
}

/// Maps an observed event to counter increments: it adds each
/// increment straight into the shard's counter slice (`counts[i] +=
/// delta`, indexed like [`Schema::counters`]), one indirect call per
/// event however many counters the event moves.
///
/// The mapper is installed at DC construction (it holds references to
/// the site list / geo databases and is not wire-serializable); the TS
/// only ever sees counter names. It is shared (`Arc`) across the DCs of
/// a round.
pub type EventMapper = std::sync::Arc<dyn Fn(&TorEvent, &mut [i64]) + Send + Sync>;

/// A round's measurement schema: counters plus the event mapping.
pub struct Schema {
    /// The counters.
    pub counters: Vec<CounterSpec>,
    /// Event-to-increment mapping.
    pub mapper: EventMapper,
}

impl Schema {
    /// Builds a schema.
    pub fn new(counters: Vec<CounterSpec>, mapper: EventMapper) -> Schema {
        assert!(!counters.is_empty(), "schema needs at least one counter");
        Schema { counters, mapper }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True if the schema has no counters (cannot occur).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Index of a counter by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.counters.iter().position(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use torsim::prelude::*;

    #[test]
    fn calibrated_sigma_positive_and_scales() {
        let a = CounterSpec::calibrated("a", 20.0, 0.3, 1e-11);
        let b = CounterSpec::calibrated("b", 40.0, 0.3, 1e-11);
        assert!(a.sigma > 0.0);
        assert!((b.sigma / a.sigma - 2.0).abs() < 1e-9);
    }

    #[test]
    fn schema_lookup() {
        let schema = Schema::new(
            vec![
                CounterSpec::with_sigma("x", 1.0),
                CounterSpec::with_sigma("y", 2.0),
            ],
            std::sync::Arc::new(|_ev: &TorEvent, _counts: &mut [i64]| {}),
        );
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.index_of("y"), Some(1));
        assert_eq!(schema.index_of("z"), None);
    }

    #[test]
    fn mapper_dispatch() {
        let schema = Schema::new(
            vec![CounterSpec::with_sigma("conn", 1.0)],
            std::sync::Arc::new(|ev: &TorEvent, counts: &mut [i64]| {
                if matches!(ev, TorEvent::EntryConnection { .. }) {
                    counts[0] += 1;
                }
            }),
        );
        let mut counts = [0i64];
        let ev = TorEvent::EntryConnection {
            relay: RelayId(0),
            client_ip: IpAddr(1),
        };
        (schema.mapper)(&ev, &mut counts);
        assert_eq!(counts, [1]);
    }
}
