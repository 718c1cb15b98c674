//! Per-shard mark accumulators with associative merge.
//!
//! This is the one ingestion path of a PSC Data Collector
//! ([`crate::dc::PscDcNode`]); a generator-fed DC is the one-shard case
//! and runs phase 1 inline. A collection period has two phases:
//!
//! 1. **Accumulate** (shard-parallel, crypto-free): each shard of a
//!    [`torsim::stream::EventStream`] extracts items and pre-buckets
//!    them into *cell indices* of the oblivious table using the pure
//!    [`cell_index`] hash (one SHA-256 per item). The accumulator is
//!    a plain set, so a repeated item is a repeated insert and needs no
//!    dedup of its own; merge is set union — commutative and
//!    associative, so the merged cell set is identical for every shard
//!    count.
//! 2. **Mark** (sequential, crypto-heavy, exactly once): the merged
//!    cell set is marked into the [`ObliviousTable`] in ascending cell
//!    order with the DC's single RNG
//!    ([`ObliviousTable::mark_cells`]), consuming ciphertext randomness
//!    in a canonical order. The resulting table — and hence the
//!    protocol transcript — is bit-identical for every shard count.
//!    The per-mark exponentiations ride the table's fixed-base power
//!    tables (`pm_crypto::batch`), which changes cost, not bytes.
//!
//! This also converts the DC's ciphertext work from *O(unique items)*
//! to *O(occupied cells)*: re-marking an already-marked cell never
//! changes the protocol output (the cell stays non-identity), so the
//! merged set is marked once per cell.

use crate::items::ItemExtractor;
use crate::table::{cell_index, ObliviousTable};
use rand::Rng;
use std::collections::BTreeSet;
use torsim::stream::EventStream;

/// One shard's accumulated marks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMarks {
    /// Occupied cell indices (ordered so merged iteration is canonical).
    pub cells: BTreeSet<usize>,
}

impl ShardMarks {
    /// Accumulates one item: an idempotent insert of its cell.
    pub fn observe(&mut self, salt: &[u8; 32], table_size: usize, item: &[u8]) {
        self.cells.insert(cell_index(salt, table_size, item));
    }

    /// Associative, commutative merge: set union.
    pub fn merge(mut self, other: ShardMarks) -> ShardMarks {
        self.cells.extend(other.cells);
        self
    }
}

/// Accumulates a stream shard-parallel (one thread per shard) and
/// returns the merged occupied-cell set.
pub fn accumulate_stream(
    stream: EventStream,
    extractor: &ItemExtractor,
    salt: &[u8; 32],
    table_size: usize,
) -> BTreeSet<usize> {
    let parts = stream.fold_parallel(
        |_| ShardMarks::default(),
        |acc, ev| {
            if let Some(item) = extractor(ev) {
                acc.observe(salt, table_size, &item);
            }
        },
    );
    parts
        .into_iter()
        .fold(ShardMarks::default(), ShardMarks::merge)
        .cells
}

/// Accumulates a stream and marks the merged cells into `table` —
/// noise-free, crypto applied exactly once at merge.
pub fn mark_stream<R: Rng + ?Sized>(
    stream: EventStream,
    extractor: &ItemExtractor,
    table: &mut ObliviousTable,
    rng: &mut R,
) {
    let salt = *table.salt();
    let size = table.len();
    let cells = accumulate_stream(stream, extractor, &salt, size);
    table.mark_cells(cells, rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use pm_crypto::elgamal::keygen;
    use pm_crypto::group::GroupParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use torsim::events::TorEvent;
    use torsim::ids::{IpAddr, RelayId};

    fn conn_events(ips: &[u32]) -> Vec<TorEvent> {
        ips.iter()
            .map(|&ip| TorEvent::EntryConnection {
                relay: RelayId(0),
                client_ip: IpAddr(ip),
            })
            .collect()
    }

    #[test]
    fn merge_is_union() {
        let salt = [7u8; 32];
        let mut a = ShardMarks::default();
        let mut b = ShardMarks::default();
        a.observe(&salt, 64, b"x");
        b.observe(&salt, 64, b"y");
        b.observe(&salt, 64, b"x");
        let merged = a.clone().merge(b.clone());
        assert_eq!(merged.cells.len(), 2);
        assert_eq!(b.merge(a).cells, merged.cells);
    }

    #[test]
    fn accumulated_cells_invariant_in_shard_count() {
        let salt = [3u8; 32];
        let extractor = items::unique_client_ips();
        let events = conn_events(&(0..500).collect::<Vec<_>>());
        let base = accumulate_stream(
            EventStream::from_events(events.clone(), 1),
            &extractor,
            &salt,
            4096,
        );
        assert!(base.len() > 400);
        for k in [2, 4, 16] {
            let cells = accumulate_stream(
                EventStream::from_events(events.clone(), k),
                &extractor,
                &salt,
                4096,
            );
            assert_eq!(base, cells, "k={k}");
        }
    }

    #[test]
    fn duplicate_observations_mark_once() {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(1);
        let kp = keygen(&gp, &mut rng);
        let mut table = ObliviousTable::new(gp, kp.public, [2u8; 32], 64);
        let stream = EventStream::from_events(conn_events(&[7; 10]), 4);
        mark_stream(stream, &items::unique_client_ips(), &mut table, &mut rng);
        assert_eq!(table.marks, 1);
    }

    #[test]
    fn accumulated_cells_match_per_item_marking() {
        let salt = [9u8; 32];
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(1);
        let kp = keygen(&gp, &mut rng);
        let extractor = items::unique_client_ips();
        let events = conn_events(&[1, 2, 3, 2, 1, 9]);

        // Item by item, straight into the table.
        let mut classic = ObliviousTable::new(gp, kp.public, salt, 256);
        for ev in &events {
            if let Some(item) = extractor(ev) {
                classic.mark_cell(classic.cell_of(&item), &mut rng);
            }
        }
        // Sharded accumulation.
        let cells = accumulate_stream(EventStream::from_events(events, 4), &extractor, &salt, 256);
        let classic_cells: BTreeSet<usize> = classic
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.a != GroupParams::default_params().identity())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(cells, classic_cells);
    }
}
