//! The cursor (iterator) abstraction.
//!
//! Mirrors the `ResultSet` interface of the paper's Execution Engine
//! (Figure 2): `init()` / `getNext()` become [`Cursor::open`] /
//! [`Cursor::next`]. Opening may do real work — e.g. a sort materializes
//! its input, and the `TRANSFER^D` algorithm in `tango-core` copies its
//! whole argument into the DBMS during `open`.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use tango_algebra::{AlgebraError, Batch, Relation, Schema, Tuple, DEFAULT_BATCH_ROWS};

/// Errors raised during pipelined execution.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// Schema or expression-evaluation failures from `tango-algebra`.
    Algebra(AlgebraError),
    /// Failures from the underlying DBMS (bubbled up by transfer cursors).
    Dbms(String),
    /// A classified wire failure from the DBMS link (bubbled up by
    /// transfer cursors after the connection's retry budget is spent).
    /// `fatal`/`timeout` preserve the `tango-minidb` error taxonomy so
    /// the engine's degradation logic can branch without string
    /// matching.
    Wire {
        /// Retrying or re-planning cannot help.
        fatal: bool,
        /// The statement's time budget was exceeded.
        timeout: bool,
        /// Driver-style error text.
        msg: String,
    },
    /// Protocol violations (e.g. `next` before `open`) or bad input
    /// order/shape detected at runtime.
    State(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Algebra(e) => write!(f, "{e}"),
            ExecError::Dbms(m) => write!(f, "dbms error: {m}"),
            ExecError::Wire { fatal, timeout, msg } => {
                let class = if *fatal {
                    "fatal"
                } else if *timeout {
                    "timeout"
                } else {
                    "transient"
                };
                write!(f, "wire error ({class}): {msg}")
            }
            ExecError::State(m) => write!(f, "cursor state error: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<AlgebraError> for ExecError {
    fn from(e: AlgebraError) -> Self {
        ExecError::Algebra(e)
    }
}

/// Result alias for cursor operations.
pub type Result<T> = std::result::Result<T, ExecError>;

/// A pipelined tuple stream.
pub trait Cursor: Send {
    /// The schema of the tuples this cursor produces. Must be available
    /// before `open`.
    fn schema(&self) -> &Arc<Schema>;

    /// Prepare the cursor (bind expressions, materialize inputs where the
    /// algorithm requires it). Must be called exactly once before `next`.
    fn open(&mut self) -> Result<()>;

    /// Produce the next tuple, or `None` at end of stream.
    fn next(&mut self) -> Result<Option<Tuple>>;

    /// Produce the next batch of up to [`DEFAULT_BATCH_ROWS`] tuples, or `None`
    /// at end of stream. Equivalent to calling [`Cursor::next`]
    /// repeatedly — the default implementation does exactly that, so
    /// every row-at-a-time cursor keeps working — but native
    /// implementations amortize per-tuple dispatch, trace accounting and
    /// wire bookkeeping over the whole batch.
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.next_batch_of(DEFAULT_BATCH_ROWS)
    }

    /// Like [`Cursor::next_batch`] with an explicit row target. Batches
    /// may come back smaller than `max_rows` (e.g. wire cursors return
    /// prefetch-aligned batches); an empty stream yields `None`, never an
    /// empty batch. Implementations must share state with
    /// [`Cursor::next`] so the two pull styles can be mixed freely.
    fn next_batch_of(&mut self, max_rows: usize) -> Result<Option<Batch>> {
        let max = max_rows.max(1);
        let mut rows = Vec::with_capacity(max.min(DEFAULT_BATCH_ROWS));
        while rows.len() < max {
            match self.next()? {
                Some(t) => rows.push(t),
                None => break,
            }
        }
        if rows.is_empty() {
            Ok(None)
        } else {
            Ok(Some(Batch::new(self.schema().clone(), rows)))
        }
    }

    /// Release resources held by the cursor (spill files, buffered
    /// state) and propagate to the inputs. Called once after the stream
    /// is drained; the default does nothing.
    fn close(&mut self) -> Result<()> {
        Ok(())
    }

    /// Algorithm-specific counters (spilled runs, buffered groups, rows
    /// dropped, …), sampled by the tracing layer just before [`close`]
    /// (`Cursor::close`). The default reports none.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// An owned, dynamically-typed cursor — how operators hold their inputs.
pub type BoxCursor = Box<dyn Cursor>;

/// Drain a cursor into a materialized [`Relation`] (opens it first).
pub fn collect(mut c: BoxCursor) -> Result<Relation> {
    c.open()?;
    let schema = c.schema().clone();
    let mut tuples = Vec::new();
    while let Some(t) = c.next()? {
        tuples.push(t);
    }
    c.close()?;
    Ok(Relation::new(schema, tuples))
}

/// Like [`collect`], but pulls whole batches of up to `rows` tuples via
/// [`Cursor::next_batch_of`] — the differential tests compare this
/// against [`collect`] to prove the two pull styles agree byte for byte.
pub fn collect_batched(mut c: BoxCursor, rows: usize) -> Result<Relation> {
    c.open()?;
    let schema = c.schema().clone();
    let tuples = drain_of(c.as_mut(), rows)?;
    c.close()?;
    Ok(Relation::new(schema, tuples))
}

/// Drain an already-open cursor (batch-at-a-time, so inputs with native
/// batch support are consumed at batch cost).
pub fn drain(c: &mut dyn Cursor) -> Result<Vec<Tuple>> {
    let mut tuples = Vec::new();
    while let Some(b) = c.next_batch()? {
        tuples.extend(b.into_rows());
    }
    Ok(tuples)
}

/// Like [`drain`] with an explicit per-pull batch-size target.
pub fn drain_of(c: &mut dyn Cursor, rows: usize) -> Result<Vec<Tuple>> {
    let mut tuples = Vec::new();
    while let Some(b) = c.next_batch_of(rows)? {
        tuples.extend(b.into_rows());
    }
    Ok(tuples)
}

/// Drain an already-open cursor into whole batches (no materialization),
/// for pipeline breakers that columnarize their input.
pub fn drain_batches(c: &mut dyn Cursor, rows: usize) -> Result<Vec<Batch>> {
    let mut out = Vec::new();
    while let Some(b) = c.next_batch_of(rows)? {
        out.push(b);
    }
    Ok(out)
}

/// Buffers an input cursor batch-at-a-time while exposing a cheap
/// per-row [`BatchBuffered::next`]. Stream-merging operators (joins,
/// aggregation, coalescing) hold their inputs in this adapter: their
/// group-reading logic stays row-oriented, but each underlying
/// (possibly traced, possibly remote) cursor is only dispatched once per
/// batch.
pub struct BatchBuffered {
    inner: BoxCursor,
    buf: VecDeque<Tuple>,
    done: bool,
    rows: usize,
}

impl BatchBuffered {
    /// Wrap `inner`; rows are pulled through the wrapper from `open` on,
    /// [`DEFAULT_BATCH_ROWS`] per refill. Use [`BatchBuffered::with_rows`]
    /// for a per-session size.
    pub fn new(inner: BoxCursor) -> Self {
        Self::with_rows(inner, DEFAULT_BATCH_ROWS)
    }

    /// Wrap `inner` with an explicit per-refill batch-size target.
    pub fn with_rows(inner: BoxCursor, rows: usize) -> Self {
        BatchBuffered { inner, buf: VecDeque::new(), done: false, rows: rows.max(1) }
    }

    /// The wrapped cursor's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.inner.schema()
    }

    /// Open the wrapped cursor.
    pub fn open(&mut self) -> Result<()> {
        self.buf.clear();
        self.done = false;
        self.inner.open()
    }

    /// Next row: pops the buffer, refilling it one batch at a time.
    /// Named after [`Cursor::next`] (fallible, lifecycle-bound), which
    /// `Iterator` cannot express.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> Result<Option<Tuple>> {
        if let Some(t) = self.buf.pop_front() {
            return Ok(Some(t));
        }
        self.refill()
    }

    fn refill(&mut self) -> Result<Option<Tuple>> {
        if self.done {
            return Ok(None);
        }
        match self.inner.next_batch_of(self.rows)? {
            Some(b) => {
                self.buf.extend(b.into_rows());
                Ok(self.buf.pop_front())
            }
            None => {
                self.done = true;
                Ok(None)
            }
        }
    }

    /// Close the wrapped cursor.
    pub fn close(&mut self) -> Result<()> {
        self.buf.clear();
        self.inner.close()
    }
}
