//! # tango-xxl
//!
//! The middleware's query-processing algorithm library, modelled on the
//! XXL library the paper's Execution Engine builds on (van den Bercken,
//! Dittrich & Seeger, SIGMOD 2000).
//!
//! Every algorithm is a [`Cursor`]: an iterator with explicit `open` /
//! `next` lifecycle enabling the pipelined execution of Figure 2 of the
//! paper. Algorithms are deliberately *order-preserving* wherever the
//! paper requires it (Section 4: "the middleware algorithms are designed
//! to be order preserving").
//!
//! Cursors also support *batch-at-a-time* pulls via
//! [`Cursor::next_batch`]: every algorithm answers batch requests (a
//! default implementation loops `next`), the bulk operators (scan,
//! filter, project, sort, dedup, aggregation) produce batches natively
//! over tango-algebra's columnar `Batch` layout, and the stream-merging
//! operators amortize their input dispatch with
//! [`cursor::BatchBuffered`]. The batch size is a per-operator value:
//! the operators that pull their inputs in batches have a
//! `with_batch_rows` constructor (1 degenerates to row-at-a-time
//! execution), and `new` uses [`tango_algebra::DEFAULT_BATCH_ROWS`].
//! Execution is single-threaded: every operator runs on the thread that
//! pulls it.
//!
//! Inventory:
//!
//! * [`scan::VecScan`] — scan of a materialized relation,
//! * [`scan::CachedScan`] — scan of a *shared* cached relation (serves
//!   middleware-cache hits without consuming the entry),
//! * [`filter::Filter`] — `FILTER^M`,
//! * [`project::Project`] — `PROJECT^M`,
//! * [`sort::Sort`] / [`sort::ExternalSort`] — `SORT^M`,
//! * [`merge_join::MergeJoin`] — `MERGEJOIN^M` (sort-merge equi join),
//! * [`temporal_join::TemporalMergeJoin`] — `TMERGEJOIN^M` (⋈ᵀ),
//! * [`nested_loop::NestedLoopJoin`] — fallback theta join,
//! * [`taggr::TemporalAggregate`] — `TAGGR^M`, the two-sorted-copies
//!   sweep of Section 3.4,
//! * [`dedup::DupElim`], [`coalesce::Coalesce`], [`tdiff::TemporalDiff`] —
//!   the extension operators the paper lists as future additions,
//! * [`set_ops`] — multiset `UNION ALL` / `INTERSECT ALL` / `EXCEPT ALL`.
//!
//! ```
//! use std::sync::Arc;
//! use tango_algebra::{tup, AggFunc, AggSpec, Attr, Relation, Schema, SortSpec, Type};
//! use tango_xxl::{collect, TemporalAggregate, VecScan};
//!
//! // Figure 3(a) of the paper, sorted on (PosID, T1) as TAGGR^M requires
//! let schema = Arc::new(Schema::with_inferred_period(vec![
//!     Attr::new("PosID", Type::Int),
//!     Attr::new("EmpName", Type::Str),
//!     Attr::new("T1", Type::Int),
//!     Attr::new("T2", Type::Int),
//! ]));
//! let mut position = Relation::new(schema, vec![
//!     tup![1, "Tom", 2, 20], tup![1, "Jane", 5, 25], tup![2, "Tom", 5, 10],
//! ]);
//! position.sort_by(&SortSpec::by(["PosID", "T1"]));
//!
//! let agg = TemporalAggregate::new(
//!     Box::new(VecScan::new(position)),
//!     vec!["PosID".into()],
//!     vec![AggSpec::new(AggFunc::Count, Some("PosID"), "Cnt")],
//! )?;
//! let result = collect(Box::new(agg))?;
//! assert_eq!(result.tuples()[1], tup![1, 5, 20, 2]); // two holders over [5, 20)
//! # Ok::<(), tango_xxl::ExecError>(())
//! ```

#![warn(missing_docs)]

pub mod coalesce;
pub mod cursor;
pub mod dedup;
pub mod delta;
pub mod filter;
pub mod merge_join;
pub mod nested_loop;
pub mod project;
pub mod scan;
pub mod set_ops;
pub mod sort;
pub mod taggr;
pub mod tdiff;
pub mod temporal_join;

pub use coalesce::Coalesce;
pub use cursor::{
    collect, collect_batched, drain_batches, drain_of, BatchBuffered, BoxCursor, Cursor, ExecError,
    Result,
};
pub use dedup::DupElim;
pub use delta::{delta_filter, delta_join, delta_project, DeltaApply, ZSet};
pub use filter::Filter;
pub use merge_join::MergeJoin;
pub use nested_loop::NestedLoopJoin;
pub use project::Project;
pub use scan::{BatchScan, CachedScan, VecScan};
pub use set_ops::{ExceptAll, IntersectAll, UnionAll};
pub use sort::{ExternalSort, Sort};
pub use taggr::TemporalAggregate;
pub use tdiff::TemporalDiff;
pub use temporal_join::TemporalMergeJoin;

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::Arc;
    use tango_algebra::{Attr, Relation, Schema, Type};

    /// POSITION relation from Figure 3(a) of the paper.
    pub fn figure3_position() -> Relation {
        let schema = Arc::new(Schema::with_inferred_period(vec![
            Attr::new("PosID", Type::Int),
            Attr::new("EmpName", Type::Str),
            Attr::new("T1", Type::Int),
            Attr::new("T2", Type::Int),
        ]));
        let rows = vec![
            tango_algebra::tup![1, "Tom", 2, 20],
            tango_algebra::tup![1, "Jane", 5, 25],
            tango_algebra::tup![2, "Tom", 5, 10],
        ];
        Relation::new(schema, rows)
    }
}
