//! The oblivious counter table held by each Data Collector.
//!
//! Each of the `b` cells is an ElGamal ciphertext under the CPs' joint
//! key. Cells start as the *trivial* encryption of the identity
//! (`(1, 1)`, randomness 0 — publicly the "unmarked" state). Marking
//! multiplies the cell by a fresh encryption of a random group element
//! and rerandomizes, after which the DC itself can neither tell what the
//! cell contains nor restore it: marking is one-way without the joint
//! secret key. Re-marking a marked cell does not change the protocol's
//! output (the cell stays non-identity), so the DC buckets a
//! collection period's items into cell indices first
//! ([`crate::shard`]) and marks each occupied cell once.
//!
//! A mark is three fixed-base table powers. The classic sequence —
//! draw a nonzero `m`, encrypt `g^m` with randomness `r`, multiply it
//! into the cell `(a, b)`, rerandomize by `s` — ends at
//! `(a · g^(r+s), b · g^m · y^(r+s))`, and that is computed directly
//! from the same draws: `b · g^m` through the generator's table, then
//! the rerandomization of `(a, b · g^m)` by `r + s mod q`, the same
//! group elements for two table powers fewer than five.
//! [`ObliviousTable::mark_cells`] draws every scalar first, in the
//! classic order, and runs the powers in batches of sixteen through the
//! key's lane-kernel entry points
//! ([`pm_crypto::batch::PrecomputedKey::rerandomize_all`]).

use pm_crypto::batch::PrecomputedKey;
use pm_crypto::elgamal::{mul_ciphertexts, Ciphertext, PublicKey};
use pm_crypto::group::{GroupParams, Scalar};
use pm_crypto::sha256::sha256_concat;
use pm_crypto::u256::U256;
use rand::Rng;

/// Cells whose draws [`ObliviousTable::mark_cells`] makes before it
/// runs their powers: sixteen lane batches.
const MARK_CHUNK: usize = 256;

/// A DC's oblivious counter table.
pub struct ObliviousTable {
    gp: GroupParams,
    /// Fixed-base power tables for the joint key: every mark costs three
    /// fixed-base exponentiations (`g^m`, `g^(r+s)`, `y^(r+s)`), so the
    /// one-time table build amortizes over the collection period. The
    /// produced ciphertexts are identical to the plain-`pow` path.
    pk: PrecomputedKey,
    salt: [u8; 32],
    cells: Vec<Ciphertext>,
    /// Count of marking operations performed (for diagnostics).
    pub marks: u64,
}

/// The trivial (unmarked) cell: encryption of the identity with
/// randomness zero.
fn trivial_cell(gp: &GroupParams) -> Ciphertext {
    Ciphertext {
        a: gp.identity(),
        b: gp.identity(),
    }
}

/// The cell index an item hashes to, as a pure function of the round
/// salt and table size. Shard accumulators ([`crate::shard`]) use this
/// to pre-bucket items without touching the ciphertext table.
pub fn cell_index(salt: &[u8; 32], table_size: usize, item: &[u8]) -> usize {
    let digest = sha256_concat(&[b"psc-item", salt, item]);
    let x = U256::from_bytes_be(&digest);
    // Reduce to the table size; the bias for b ≪ 2^256 is negligible.
    (x.low_u128() % table_size as u128) as usize
}

impl ObliviousTable {
    /// Creates a table of `size` unmarked cells under the joint key.
    pub fn new(gp: GroupParams, key: PublicKey, salt: [u8; 32], size: usize) -> ObliviousTable {
        assert!(size >= 1);
        ObliviousTable {
            pk: PrecomputedKey::new(&gp, &key),
            gp,
            salt,
            cells: vec![trivial_cell(&gp); size],
            marks: 0,
        }
    }

    /// Table size `b`.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// The round salt keying this table's hashes.
    pub fn salt(&self) -> &[u8; 32] {
        &self.salt
    }

    /// True if the table has no cells (cannot occur).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell index an item hashes to.
    pub fn cell_of(&self, item: &[u8]) -> usize {
        cell_index(&self.salt, self.cells.len(), item)
    }

    /// Marks one cell: multiplies it by a fresh encryption of a random
    /// group element and rerandomizes. Items are pre-bucketed into cell
    /// indices ([`crate::shard`]), so the ciphertext work happens
    /// exactly once per occupied cell at merge. A one-cell
    /// [`Self::mark_cells`].
    pub fn mark_cell<R: Rng + ?Sized>(&mut self, idx: usize, rng: &mut R) {
        self.mark_cells([idx], rng);
    }

    /// Marks a set of cells in the given order with a single RNG — the
    /// deterministic merge step of the sharded path. Ciphertext
    /// randomness is consumed in cell order, draw-for-draw the classic
    /// `random_non_identity` → `encrypt` → `rerandomize` sequence per
    /// cell (`g^m` is the identity iff `m = 0`, so the rejection test
    /// needs no exponentiation), so the resulting table is bit-identical
    /// however the cells were accumulated. The draws of up to 256 cells
    /// are made first and their powers then run in batches; a cell met
    /// again within a chunk starts the next one, so a re-marked cell
    /// still sees its earlier mark.
    pub fn mark_cells<R: Rng + ?Sized>(
        &mut self,
        cells: impl IntoIterator<Item = usize>,
        rng: &mut R,
    ) {
        let mut marks: Vec<(usize, Scalar, Scalar)> = Vec::with_capacity(MARK_CHUNK);
        for idx in cells {
            let mark_exp = loop {
                let m = self.gp.random_scalar(rng);
                if m != Scalar::ZERO {
                    break m;
                }
            };
            let r = self.gp.random_scalar(rng);
            let s = self.gp.random_scalar(rng);
            let repeat = marks.last().is_some_and(|&(last, ..)| idx <= last)
                && marks.iter().any(|&(j, ..)| j == idx);
            if repeat || marks.len() == MARK_CHUNK {
                self.apply_marks(&marks);
                marks.clear();
            }
            marks.push((idx, mark_exp, self.gp.scalar_add(&r, &s)));
        }
        self.apply_marks(&marks);
    }

    /// Applies marks `(cell, m, t)` to distinct cells: `(a · g^t, b ·
    /// g^m · y^t)`.
    fn apply_marks(&mut self, marks: &[(usize, Scalar, Scalar)]) {
        let (gp, cells) = (&self.gp, &self.cells);
        let n = marks.len();
        let bm = self
            .pk
            .g_pow_mul_all(gp, n, 1, |k| (marks[k].1, cells[marks[k].0].b));
        let marked = self.pk.rerandomize_all(gp, n, 1, |k| {
            let (idx, _, t) = marks[k];
            let cell = Ciphertext {
                a: cells[idx].a,
                b: bm[k],
            };
            (cell, t)
        });
        for (&(idx, ..), cell) in marks.iter().zip(marked) {
            self.cells[idx] = cell;
        }
        self.marks += n as u64;
    }

    /// Consumes the table, returning the cells for transmission.
    pub fn into_cells(self) -> Vec<Ciphertext> {
        self.cells
    }

    /// Borrows the cells.
    pub fn cells(&self) -> &[Ciphertext] {
        &self.cells
    }
}

/// Cellwise product of DC tables: the combined table is non-identity in
/// exactly the cells some DC marked (up to the negligible chance of
/// random marks multiplying to the identity).
pub fn combine_tables(gp: &GroupParams, tables: &[Vec<Ciphertext>]) -> Vec<Ciphertext> {
    assert!(!tables.is_empty());
    let b = tables[0].len();
    assert!(
        tables.iter().all(|t| t.len() == b),
        "all DC tables must have equal size"
    );
    let mut out = vec![trivial_cell(gp); b];
    for t in tables {
        for (o, c) in out.iter_mut().zip(t) {
            *o = mul_ciphertexts(gp, o, c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_crypto::elgamal::{decrypt, keygen};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (GroupParams, pm_crypto::elgamal::KeyPair, StdRng) {
        let gp = GroupParams::default_params();
        let mut rng = StdRng::seed_from_u64(1);
        let kp = keygen(&gp, &mut rng);
        (gp, kp, rng)
    }

    #[test]
    fn unmarked_cells_decrypt_to_identity() {
        let (gp, kp, _) = setup();
        let table = ObliviousTable::new(gp, kp.public, [0u8; 32], 8);
        for cell in table.cells() {
            assert_eq!(decrypt(&gp, &kp.secret, cell), gp.identity());
        }
    }

    #[test]
    fn marked_cells_decrypt_to_non_identity() {
        let (gp, kp, mut rng) = setup();
        let mut table = ObliviousTable::new(gp, kp.public, [1u8; 32], 64);
        let idx = table.cell_of(b"198.51.100.7");
        table.mark_cell(idx, &mut rng);
        let cells = table.into_cells();
        assert_ne!(decrypt(&gp, &kp.secret, &cells[idx]), gp.identity());
        // All other cells still identity.
        for (i, cell) in cells.iter().enumerate() {
            if i != idx {
                assert_eq!(decrypt(&gp, &kp.secret, cell), gp.identity());
            }
        }
    }

    #[test]
    fn remarking_same_cell_stays_non_identity() {
        let (gp, kp, mut rng) = setup();
        // Size-1 table: every item collides.
        let mut table = ObliviousTable::new(gp, kp.public, [3u8; 32], 1);
        for item in [b"a", b"b", b"c"] {
            table.mark_cell(table.cell_of(item), &mut rng);
        }
        assert_eq!(table.marks, 3);
        let cells = table.into_cells();
        assert_ne!(decrypt(&gp, &kp.secret, &cells[0]), gp.identity());
    }

    #[test]
    fn salt_changes_cell_assignment() {
        let (gp, kp, _) = setup();
        let t1 = ObliviousTable::new(gp, kp.public, [4u8; 32], 1 << 16);
        let t2 = ObliviousTable::new(gp, kp.public, [5u8; 32], 1 << 16);
        // Over several items, at least one should map differently.
        let differs = (0..20).any(|i| {
            let item = format!("item-{i}");
            t1.cell_of(item.as_bytes()) != t2.cell_of(item.as_bytes())
        });
        assert!(differs);
    }

    #[test]
    fn combine_is_cellwise_or() {
        let (gp, kp, mut rng) = setup();
        let mut t1 = ObliviousTable::new(gp, kp.public, [6u8; 32], 32);
        let mut t2 = ObliviousTable::new(gp, kp.public, [6u8; 32], 32);
        let ia = t1.cell_of(b"alpha");
        let ib = t1.cell_of(b"beta");
        t1.mark_cell(ia, &mut rng);
        t2.mark_cells([ib, ia], &mut rng); // alpha seen at both DCs
        let combined = combine_tables(&gp, &[t1.into_cells(), t2.into_cells()]);
        let marked: Vec<usize> = combined
            .iter()
            .enumerate()
            .filter(|(_, c)| decrypt(&gp, &kp.secret, c) != gp.identity())
            .map(|(i, _)| i)
            .collect();
        let mut expect = vec![ia, ib];
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(marked, expect);
    }

    #[test]
    #[should_panic(expected = "equal size")]
    fn combine_rejects_mismatched_tables() {
        let (gp, kp, _) = setup();
        let t1 = ObliviousTable::new(gp, kp.public, [7u8; 32], 8);
        let t2 = ObliviousTable::new(gp, kp.public, [7u8; 32], 16);
        combine_tables(&gp, &[t1.into_cells(), t2.into_cells()]);
    }
}
