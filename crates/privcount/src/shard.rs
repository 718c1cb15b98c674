//! Per-shard counter accumulators with associative merge.
//!
//! This is the one ingestion path of a Data Collector
//! ([`crate::dc::DcNode`]); a generator-fed DC is the one-shard case,
//! folded inline. Each shard of a [`torsim::stream::EventStream`] is
//! folded into its own plain `Vec<i64>` of counter totals — no
//! blinding, no noise — and shard accumulators merge by elementwise
//! addition. Per event the fold is one call of the schema's
//! [`EventMapper`](crate::counter::EventMapper) on the event, by
//! reference, and the shard's counter slice, which the mapper adds
//! into directly: no per-increment callback, no copy of the event.
//! Addition is commutative and associative, so the merged totals are
//! bit-identical for every shard count (the stream's shard-count
//! invariance contract). Noise and blinding are applied exactly once,
//! when the merged totals are folded into the DC's
//! [`BlindedCounter`](pm_crypto::secret::BlindedCounter) registers as a
//! single batched update per counter.

use crate::counter::Schema;
use torsim::stream::EventStream;

/// One shard's counter totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardCounters {
    /// Per-counter increments observed by this shard.
    pub counts: Vec<i64>,
}

impl ShardCounters {
    /// Zeroed accumulator for `n` counters.
    fn new(n: usize) -> ShardCounters {
        ShardCounters { counts: vec![0; n] }
    }

    /// Folds one event through the schema's mapper, which adds into
    /// this shard's counters directly.
    fn ingest(&mut self, schema: &Schema, ev: &torsim::TorEvent) {
        (schema.mapper)(ev, &mut self.counts);
    }

    /// Associative, commutative merge: elementwise addition.
    pub fn merge(mut self, other: &ShardCounters) -> ShardCounters {
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self
    }
}

/// Ingests a stream shard-parallel (one thread per shard) and returns
/// the merged per-counter totals.
pub fn ingest_stream(stream: EventStream, schema: &Schema) -> Vec<i64> {
    ingest_shards(stream, schema).0
}

/// [`ingest_stream`], also returning the stream's shard count.
pub(crate) fn ingest_shards(stream: EventStream, schema: &Schema) -> (Vec<i64>, usize) {
    let n = schema.len();
    let parts = stream.fold_parallel(|_| ShardCounters::new(n), |acc, ev| acc.ingest(schema, ev));
    let shards = parts.len();
    let totals = parts
        .into_iter()
        .fold(ShardCounters::new(n), |acc, part| acc.merge(&part))
        .counts;
    (totals, shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::CounterSpec;
    use std::sync::Arc;
    use torsim::events::TorEvent;
    use torsim::ids::{IpAddr, RelayId};
    use torsim::stream::EventStream;

    fn test_schema() -> Schema {
        Schema::new(
            vec![
                CounterSpec::with_sigma("conns", 1.0),
                CounterSpec::with_sigma("bytes", 1.0),
            ],
            Arc::new(|ev: &TorEvent, counts: &mut [i64]| match ev {
                TorEvent::EntryConnection { .. } => counts[0] += 1,
                TorEvent::EntryBytes { bytes, .. } => counts[1] += *bytes as i64,
                _ => {}
            }),
        )
    }

    fn events(n: u32) -> Vec<TorEvent> {
        (0..n)
            .flat_map(|i| {
                [
                    TorEvent::EntryConnection {
                        relay: RelayId(0),
                        client_ip: IpAddr(i),
                    },
                    TorEvent::EntryBytes {
                        relay: RelayId(0),
                        client_ip: IpAddr(i),
                        bytes: 10,
                    },
                ]
            })
            .collect()
    }

    #[test]
    fn merge_is_elementwise() {
        let a = ShardCounters {
            counts: vec![1, 10],
        };
        let b = ShardCounters {
            counts: vec![2, 20],
        };
        assert_eq!(a.merge(&b).counts, vec![3, 30]);
    }

    #[test]
    fn ingest_stream_matches_direct_fold_for_any_shard_count() {
        let schema = test_schema();
        for k in [1, 2, 4, 16] {
            let stream = EventStream::from_events(events(500), k);
            let totals = ingest_stream(stream, &schema);
            assert_eq!(totals, vec![500, 5000], "k={k}");
        }
    }
}
