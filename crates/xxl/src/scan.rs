//! Scan over a materialized relation.

use crate::cursor::{Cursor, Result};
use std::collections::VecDeque;
use std::sync::Arc;
use tango_algebra::{Batch, Relation, Schema, Tuple};

/// Streams the tuples of an in-memory relation in list order.
pub struct VecScan {
    schema: Arc<Schema>,
    tuples: std::vec::IntoIter<Tuple>,
    opened: bool,
}

impl VecScan {
    /// Scan a materialized relation.
    pub fn new(rel: Relation) -> Self {
        let schema = rel.schema().clone();
        VecScan { schema, tuples: rel.into_tuples().into_iter(), opened: false }
    }

    /// Scan over explicit parts (schema + tuples).
    pub fn from_parts(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Self {
        VecScan { schema, tuples: tuples.into_iter(), opened: false }
    }
}

impl Cursor for VecScan {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.opened = true;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        debug_assert!(self.opened, "scan consumed before open()");
        Ok(self.tuples.next())
    }

    fn next_batch_of(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        debug_assert!(self.opened, "scan consumed before open()");
        let rows: Vec<Tuple> = self.tuples.by_ref().take(max_rows.max(1)).collect();
        if rows.is_empty() {
            Ok(None)
        } else {
            Ok(Some(Batch::new(self.schema.clone(), rows)))
        }
    }
}

/// Replays the batches of a drained stream, which it owns, re-chunked to
/// the `max_rows` each pull asks for: every batch but the last holds
/// exactly `max_rows` rows, as if the rows came from one vector, so a
/// consumer sees the batch boundaries a [`VecScan`] over the same rows
/// would give it. Rows are moved, never cloned; a columnar batch stays
/// columnar, split by zero-copy slicing.
///
/// This is how a staged pipeline breaker's output reaches the one
/// operator that reads it.
pub struct BatchScan {
    schema: Arc<Schema>,
    batches: VecDeque<Batch>,
    /// The rest of a row batch a pull split.
    rest: Option<std::vec::IntoIter<Tuple>>,
    opened: bool,
}

impl BatchScan {
    /// Replay `batches` (each conforming to `schema`) in order.
    pub fn new(schema: Arc<Schema>, batches: Vec<Batch>) -> Self {
        BatchScan { schema, batches: batches.into(), rest: None, opened: false }
    }

    /// The next run of at most `want` rows, in stream order.
    fn piece(&mut self, want: usize) -> Option<Batch> {
        let mut rows = match self.rest.take() {
            Some(rows) => rows,
            None => {
                let b = self.batches.pop_front()?;
                if b.len() <= want {
                    return Some(b);
                }
                if b.is_columnar() {
                    self.batches.push_front(b.slice(want, b.len() - want));
                    return Some(b.slice(0, want));
                }
                b.into_rows().into_iter()
            }
        };
        let head: Vec<Tuple> = rows.by_ref().take(want).collect();
        if rows.len() > 0 {
            self.rest = Some(rows);
        }
        Some(Batch::new(self.schema.clone(), head))
    }
}

impl Cursor for BatchScan {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.opened = true;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        Ok(self.next_batch_of(1)?.and_then(|b| b.into_rows().pop()))
    }

    fn next_batch_of(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        debug_assert!(self.opened, "scan consumed before open()");
        let max = max_rows.max(1);
        let mut pieces = Vec::new();
        let mut n = 0;
        while n < max {
            let Some(piece) = self.piece(max - n) else { break };
            n += piece.len();
            if !piece.is_empty() {
                pieces.push(piece);
            }
        }
        Ok(match pieces.len() {
            0 => None,
            1 => pieces.pop(),
            _ if pieces.iter().all(|p| !p.is_columnar()) => Some(Batch::new(
                self.schema.clone(),
                pieces.into_iter().flat_map(Batch::into_rows).collect(),
            )),
            _ => Some(Batch::concat(self.schema.clone(), pieces)),
        })
    }
}

/// Streams a *shared* materialized relation (`Arc<Vec<Tuple>>`) in list
/// order, cloning tuples as they are emitted.
///
/// This is the serving cursor of the middleware relation cache: a cache
/// hit replaces a `TRANSFER^M`'s wire traffic with a `CachedScan` over
/// the resident copy, which stays shared (and reusable by later hits)
/// rather than being consumed. Reports one counter, `cache_bytes` — the
/// stored byte size of the entry being served.
pub struct CachedScan {
    schema: Arc<Schema>,
    rows: Arc<Vec<Tuple>>,
    pos: usize,
    entry_bytes: u64,
    opened: bool,
}

impl CachedScan {
    /// Serve `rows` (the cached entry, `entry_bytes` encoded bytes).
    pub fn new(schema: Arc<Schema>, rows: Arc<Vec<Tuple>>, entry_bytes: u64) -> Self {
        CachedScan { schema, rows, pos: 0, entry_bytes, opened: false }
    }
}

impl Cursor for CachedScan {
    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.opened = true;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        debug_assert!(self.opened, "scan consumed before open()");
        let t = self.rows.get(self.pos).cloned();
        self.pos += t.is_some() as usize;
        Ok(t)
    }

    fn next_batch_of(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        debug_assert!(self.opened, "scan consumed before open()");
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.pos + max_rows.max(1)).min(self.rows.len());
        let batch = Batch::new(self.schema.clone(), self.rows[self.pos..end].to_vec());
        self.pos = end;
        Ok(Some(batch))
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![("cache_bytes", self.entry_bytes)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::collect;
    use crate::testutil::figure3_position;

    #[test]
    fn scan_preserves_list_order() {
        let rel = figure3_position();
        let expected = rel.clone();
        let got = collect(Box::new(VecScan::new(rel))).unwrap();
        assert!(got.list_eq(&expected));
    }

    /// Pull `c` dry at `max` rows per batch (every third pull row-at-a-
    /// time), returning the batch sizes and the rows.
    fn pull(mut c: impl Cursor, max: usize) -> (Vec<usize>, Vec<Tuple>) {
        c.open().unwrap();
        let (mut sizes, mut rows) = (Vec::new(), Vec::new());
        for i in 0.. {
            if i % 3 == 2 {
                match c.next().unwrap() {
                    Some(t) => rows.push(t),
                    None => break,
                }
                sizes.push(1);
                continue;
            }
            let Some(b) = c.next_batch_of(max).unwrap() else { break };
            sizes.push(b.len());
            rows.extend(b.into_rows());
        }
        (sizes, rows)
    }

    #[test]
    fn batch_scan_rechunks_like_vec_scan() {
        let rel = figure3_position();
        let tuples: Vec<Tuple> = (0..37).flat_map(|_| rel.tuples().to_vec()).collect();
        let schema = rel.schema().clone();
        for chunk in [1, 2, 5, 16, 200] {
            let batches: Vec<Batch> = tuples
                .chunks(chunk)
                .enumerate()
                .map(|(i, rows)| {
                    let b = Batch::new(schema.clone(), rows.to_vec());
                    if i % 2 == 0 {
                        b.columnarize()
                    } else {
                        b
                    }
                })
                .collect();
            for max in [1, 3, 16, 1024] {
                let want = pull(VecScan::from_parts(schema.clone(), tuples.clone()), max);
                let got = pull(BatchScan::new(schema.clone(), batches.clone()), max);
                assert_eq!(got.0, want.0, "batch sizes, chunk {chunk}, max {max}");
                // Debug output tells Int from Date: the rows are bit-exact
                assert_eq!(
                    format!("{:?}", got.1),
                    format!("{:?}", want.1),
                    "rows, chunk {chunk}, max {max}"
                );
            }
        }
        // a columnar batch that needs no split stays columnar
        let b = Batch::new(schema.clone(), tuples[..8].to_vec()).columnarize();
        let mut c = BatchScan::new(schema, vec![b]);
        c.open().unwrap();
        assert!(c.next_batch_of(8).unwrap().unwrap().is_columnar());
        assert!(c.next_batch_of(8).unwrap().is_none());
    }

    #[test]
    fn cached_scan_is_repeatable_and_counts_bytes() {
        let rel = figure3_position();
        let schema = rel.schema().clone();
        let rows = Arc::new(rel.tuples().to_vec());
        let bytes: u64 = rows.iter().map(|t| t.byte_size() as u64).sum();
        for _ in 0..2 {
            let c = CachedScan::new(schema.clone(), rows.clone(), bytes);
            assert_eq!(c.counters(), vec![("cache_bytes", bytes)]);
            let got = collect(Box::new(c)).unwrap();
            assert!(got.list_eq(&figure3_position()));
        }
        // batch path agrees with the row path
        let mut c = CachedScan::new(schema, rows.clone(), bytes);
        c.open().unwrap();
        let mut n = 0;
        while let Some(b) = c.next_batch_of(2).unwrap() {
            assert!(!b.is_empty());
            n += b.len();
        }
        assert_eq!(n, rows.len());
    }
}
