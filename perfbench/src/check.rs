//! The correctness gate: result digests and ORDER BY checks.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use tango_algebra::{Relation, Value};

/// How a read's answer must match the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Equivalence {
    /// The same rows with the same multiplicities.
    Multiset,
    /// The same snapshot at every time point in `[lo, hi)`. This is all
    /// the optimizer's default approximate rule pushing a time-window
    /// selection below temporal aggregation (`G4-taggr-window-push`)
    /// guarantees: plans with and without it split periods differently,
    /// and may differ at time points outside the window.
    SnapshotsWithin(i64, i64),
}

/// An order-insensitive digest of a result under an [`Equivalence`]:
/// equivalent results get equal fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Rows, or snapshot change points, digested.
    items: usize,
    sum: u64,
    mixed: u64,
}

fn hash_of(x: impl Hash) -> u64 {
    // DefaultHasher::new() has fixed keys: stable within a process
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

impl Fingerprint {
    pub fn of(rel: &Relation, eq: Equivalence) -> Result<Fingerprint, String> {
        let mut fp = Fingerprint { items: 0, sum: 0, mixed: 0 };
        match eq {
            Equivalence::Multiset => rel.tuples().iter().for_each(|t| fp.add(hash_of(t))),
            Equivalence::SnapshotsWithin(lo, hi) => {
                snapshot_changes(rel, lo, hi)?.into_iter().for_each(|c| fp.add(hash_of(c)))
            }
        }
        Ok(fp)
    }

    fn add(&mut self, h: u64) {
        self.items += 1;
        self.sum = self.sum.wrapping_add(h);
        self.mixed = self.mixed.wrapping_add(h.wrapping_mul(h | 1).rotate_left(29));
    }

    /// Rows, or snapshot change points, digested.
    pub fn items(&self) -> usize {
        self.items
    }
}

/// The canonical form of a temporal result's snapshots over `[lo, hi)`:
/// for each distinct row of non-period values, the time points where its
/// multiplicity changes and the multiplicity from there on.
fn snapshot_changes(rel: &Relation, lo: i64, hi: i64) -> Result<Vec<(u64, i64, i64)>, String> {
    let (i1, i2) = rel.schema().period().ok_or("result has no period columns")?;
    let mut deltas: HashMap<Vec<&Value>, Vec<(i64, i64)>> = HashMap::new();
    for t in rel.tuples() {
        let bound =
            |i: usize| t.get(i).as_int().ok_or(format!("non-time period value {}", t.get(i)));
        let (a, b) = (bound(i1)?.max(lo), bound(i2)?.min(hi));
        if a < b {
            let key = (0..t.len()).filter(|&i| i != i1 && i != i2).map(|i| t.get(i)).collect();
            let d = deltas.entry(key).or_default();
            d.extend([(a, 1), (b, -1)]);
        }
    }
    let mut changes = Vec::new();
    for (key, mut d) in deltas {
        let k = hash_of(&key);
        d.sort_unstable();
        let mut level = 0;
        for (i, &(at, delta)) in d.iter().enumerate() {
            level += delta;
            if d.get(i + 1).is_none_or(|next| next.0 != at) {
                changes.push((k, at, level));
            }
        }
    }
    // a change to the level the row already had is no change
    changes.sort_unstable();
    let mut out: Vec<(u64, i64, i64)> = Vec::with_capacity(changes.len());
    for c in changes {
        let prev = out.last().filter(|p| p.0 == c.0).map_or(0, |p| p.2);
        if c.2 != prev {
            out.push(c);
        }
    }
    Ok(out)
}

/// Whether `rel` arrives sorted ascending on the result columns named
/// in `order_by`. An unknown column is an error, not a pass.
pub fn ordered(rel: &Relation, order_by: &[&str]) -> Result<bool, String> {
    let keys = order_by
        .iter()
        .map(|c| {
            rel.schema().index_of(c).map_err(|e| format!("ORDER BY column {c} not in result: {e}"))
        })
        .collect::<Result<Vec<usize>, String>>()?;
    Ok(rel.tuples().windows(2).all(|w| {
        keys.iter()
            .map(|&k| w[0].get(k).total_cmp(w[1].get(k)))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
            != Ordering::Greater
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tango_algebra::{tup, Attr, Schema, Type};

    fn rel(rows: Vec<(i64, i64)>) -> Relation {
        let schema =
            Arc::new(Schema::new(vec![Attr::new("A", Type::Int), Attr::new("B", Type::Int)]));
        Relation::new(schema, rows.into_iter().map(|(a, b)| tup![a, b]).collect())
    }

    fn periods(rows: Vec<(i64, i64, i64)>) -> Relation {
        let schema = Arc::new(Schema::with_inferred_period(vec![
            Attr::new("A", Type::Int),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]));
        Relation::new(schema, rows.into_iter().map(|(a, t1, t2)| tup![a, t1, t2]).collect())
    }

    fn multiset(r: &Relation) -> Fingerprint {
        Fingerprint::of(r, Equivalence::Multiset).unwrap()
    }

    fn within(r: &Relation, lo: i64, hi: i64) -> Fingerprint {
        Fingerprint::of(r, Equivalence::SnapshotsWithin(lo, hi)).unwrap()
    }

    #[test]
    fn fingerprint_is_a_multiset_digest() {
        let a = rel(vec![(1, 2), (3, 4), (3, 4)]);
        assert_eq!(multiset(&a), multiset(&rel(vec![(3, 4), (1, 2), (3, 4)])));
        assert_ne!(multiset(&a), multiset(&rel(vec![(1, 2), (3, 4)])));
        assert_ne!(multiset(&a), multiset(&rel(vec![(1, 2), (1, 2), (3, 4)])));
        assert_ne!(multiset(&a), multiset(&rel(vec![(1, 2), (3, 4), (3, 5)])));
    }

    #[test]
    fn snapshot_digest_ignores_period_splits_and_time_outside_the_window() {
        let a = periods(vec![(1, 0, 10), (2, 5, 30)]);
        // split periods, and a different extent past the window end 20
        let b = periods(vec![(1, 0, 4), (1, 4, 10), (2, 5, 20), (2, 20, 25)]);
        assert_eq!(within(&a, 0, 20), within(&b, 0, 20));
        assert_ne!(multiset(&a), multiset(&b));
        // ... but not inside it
        assert_ne!(within(&a, 0, 26), within(&b, 0, 26));
        let c = periods(vec![(1, 0, 10), (2, 6, 30)]);
        assert_ne!(within(&a, 0, 20), within(&c, 0, 20));
        // multiplicity counts
        let d = periods(vec![(1, 0, 10), (1, 0, 10), (2, 5, 30)]);
        assert_ne!(within(&a, 0, 20), within(&d, 0, 20));
        assert_eq!(
            within(&d, 0, 20),
            within(&periods(vec![(1, 0, 10), (1, 0, 5), (1, 5, 10), (2, 5, 20)]), 0, 20)
        );
    }

    #[test]
    fn order_check() {
        let r = rel(vec![(1, 9), (2, 1), (2, 3)]);
        assert_eq!(ordered(&r, &["A"]), Ok(true));
        assert_eq!(ordered(&r, &["A", "B"]), Ok(true));
        assert_eq!(ordered(&r, &["B"]), Ok(false));
        assert!(ordered(&r, &["C"]).is_err());
    }
}
