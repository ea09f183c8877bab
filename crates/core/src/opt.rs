//! The middleware optimizer: TANGO's instantiation of the generic
//! [`volcano`] optimizer generator.
//!
//! * Logical properties of an equivalence class: output schema +
//!   derived statistics ([`GroupProps`]).
//! * Physical properties: `(site, ordering)` ([`crate::phys::Req`]).
//! * Heuristic Group 1 of the paper — "move to the middleware only those
//!   operations that may be processed more efficiently there" — is
//!   embodied in the algorithm inventory: exactly the operations with
//!   efficient special-purpose middleware algorithms (temporal
//!   aggregation, joins, temporal joins, plus the order-preserving
//!   selection/projection that avoid needless transfers) have
//!   middleware implementations; everything else can only run in the
//!   DBMS.
//! * Heuristic Group 2 — "eliminate redundant operations" — is
//!   structural: transfers and sorts exist only as property *enforcers*,
//!   so `T^M(T^D(r))` pairs (rules T7/T8) and redundant sorts (rules
//!   T10–T12) cannot appear in winning plans.

use crate::cache::{self, Residency};
use crate::cost::CostFactors;
use crate::error::{Result, TangoError};
use crate::explain::NodeEstimate;
use crate::phys::{Algo, PhysNode, Req, Site, TOp};
use crate::rules;
use std::collections::HashMap;
use std::sync::Arc;
use tango_algebra::{Logical, Schema, SortKey, SortSpec};
use tango_stats::RelationStats;
use volcano::{Enforcer, Implementation, Memo, NewExpr, PhysPlan, SearchStats, Semantics};

/// Logical properties of an equivalence class.
#[derive(Debug, Clone)]
pub struct GroupProps {
    /// The class's output schema.
    pub schema: Arc<Schema>,
    /// Derived statistics for the class's output.
    pub stats: RelationStats,
    /// Canonical fragment signature of the class (see
    /// [`cache::top_signature`]); lets enforcers ask the middleware
    /// cache whether this fragment is already resident.
    pub signature: String,
}

/// Base-relation catalog snapshot fed by the Statistics Collector.
pub type Catalog = HashMap<String, (Arc<Schema>, RelationStats)>;

/// A mid-query materialization (`#MATn`) the re-planner can read: its
/// schema and observed statistics, and the order its rows are held in.
#[derive(Debug, Clone)]
pub struct Materialization {
    /// Schema and observed statistics, shaped like a [`Catalog`] entry.
    pub table: (Arc<Schema>, RelationStats),
    /// The order the materialized rows are held in.
    pub order: SortSpec,
}

/// Mid-query materializations by upper-case name: an overlay over the
/// base-table [`Catalog`], which stays untouched.
pub type Materialized = HashMap<String, Materialization>;

/// Look `name` up in the materialization overlay first, then in the
/// base-table catalog.
pub fn lookup_table<'a>(
    catalog: &'a Catalog,
    materialized: &'a Materialized,
    name: &str,
) -> Option<&'a (Arc<Schema>, RelationStats)> {
    let key = name.to_uppercase();
    materialized.get(&key).map(|m| &m.table).or_else(|| catalog.get(&key))
}

/// Optimizer feature switches (for the paper's comparisons and the
/// ablation studies).
#[derive(Debug, Clone, Copy)]
pub struct OptOptions {
    /// Enable the snapshot-preserving (but not list-exact) rule pushing a
    /// time-window selection below temporal aggregation — needed to reach
    /// the paper's Query 2 Plan 1 shape.
    pub approx_rules: bool,
    /// Enable the selection/projection pushdown rule groups 3/4.
    pub pushdown_rules: bool,
    /// Middleware sort-memory budget in bytes. When the estimated sort
    /// input exceeds it, the order enforcer becomes the external merge
    /// sort `XSORT^M` instead of the in-memory `SORT^M`. `None` (the
    /// default) means unbounded memory, i.e. always sort in memory.
    pub mid_sort_budget: Option<u64>,
    /// Mid-query re-optimization trigger: when the actual row count at a
    /// pipeline breaker diverges from the estimate by at least this
    /// ratio (in either direction), the engine re-optimizes the
    /// unexecuted remainder of the plan over the materialized actuals.
    /// `None` disables adaptivity entirely.
    pub replan_ratio: Option<f64>,
    /// Use the naive independent-conjunct estimate for `Overlaps`-style
    /// temporal predicates instead of the joint Section 3.3 estimator —
    /// deliberately reproducing the ~40× misestimate, to seed the
    /// adaptivity tests and benchmarks with a plausibly-bad plan.
    pub naive_overlaps: bool,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            approx_rules: true,
            pushdown_rules: true,
            mid_sort_budget: None,
            replan_ratio: Some(8.0),
            naive_overlaps: false,
        }
    }
}

/// The Volcano semantics for TANGO.
pub struct TangoSem {
    /// Base-relation statistics snapshot, shared with the session.
    pub catalog: Arc<Catalog>,
    /// Cost factors used by the implementations' formulas.
    pub factors: CostFactors,
    /// Middleware sort-memory budget (see [`OptOptions::mid_sort_budget`]).
    pub mid_sort_budget: Option<u64>,
    /// Snapshot of the middleware relation cache taken when optimization
    /// started: which fragment signatures are resident, in which orders.
    /// A `TRANSFER^M` over a resident fragment is priced at
    /// [`CostFactors::p_cached`] per byte instead of the wire rate
    /// [`CostFactors::p_tm`] — cheap enough to flip join-side placement
    /// (the Figure 10 "one argument already resides" scenario), while
    /// staying strictly positive so transfers are never free.
    pub residency: Arc<Residency>,
    /// Mid-query materialized intermediates available to this run, by
    /// name (normally `#MATn`), with their observed statistics and the
    /// order each was materialized in. A `Get` over one of these becomes
    /// `MATSCAN^M` at the middleware (delivering the stored order for
    /// free) and is *excluded* from `SCAN^D` — the DBMS has no such
    /// table. Empty outside mid-query re-optimization.
    pub materialized: Materialized,
    /// Estimation mode (see [`OptOptions::naive_overlaps`]).
    pub naive_overlaps: bool,
}

impl TangoSem {
    fn table(&self, name: &str) -> Option<&(Arc<Schema>, RelationStats)> {
        lookup_table(&self.catalog, &self.materialized, name)
    }

    fn mat_order(&self, name: &str) -> Option<&SortSpec> {
        self.materialized.get(&name.to_uppercase()).map(|m| &m.order)
    }

    /// Order produced by `TAGGR^M`: grouping attributes then `T1`.
    fn taggr_order(group_by: &[String]) -> SortSpec {
        let mut cols: Vec<String> = group_by.to_vec();
        cols.push("T1".to_string());
        SortSpec::by(cols)
    }

    /// Pick the middleware sort enforcer for the given input: in-memory
    /// `SORT^M` normally, the external merge sort `XSORT^M` when the
    /// estimated input exceeds the configured sort-memory budget. The
    /// run size is however many rows fit in the budget.
    fn mid_sort(&self, props: &GroupProps, order: SortSpec) -> Algo {
        match self.mid_sort_budget {
            Some(b) if props.stats.size_bytes() > b as f64 => {
                let width = props.stats.avg_tuple_bytes.max(1.0);
                let run_rows = ((b as f64 / width) as usize).max(2);
                Algo::SortXM(order, run_rows)
            }
            _ => Algo::SortM(order),
        }
    }

    /// Order a coalesce/diff requires: all value attributes then `T1`.
    fn value_order(schema: &Schema) -> SortSpec {
        let period = schema.period();
        let mut cols: Vec<String> = schema
            .attrs()
            .iter()
            .enumerate()
            .filter(|(i, _)| period.is_none_or(|(a, b)| *i != a && *i != b))
            .map(|(_, a)| a.name.clone())
            .collect();
        cols.push("T1".to_string());
        SortSpec::by(cols)
    }
}

/// Statistics of `op`'s output over inputs with the given statistics and
/// schemas. A `Get` reads its table's statistics (materializations
/// first, then the base catalog); every other operator, and a table
/// without statistics, derives through [`tango_stats::derive_stats_with`].
/// The memo's class properties and the per-node estimates of a physical
/// plan ([`estimate_plan`]) both come from here.
fn derive_stats(
    op: &TOp,
    (catalog, materialized): (&Catalog, &Materialized),
    inputs: &[&RelationStats],
    input_schemas: &[&Schema],
    schema: &Schema,
    naive_overlaps: bool,
) -> RelationStats {
    if let TOp::Get { table } = op {
        if let Some((_, stats)) = lookup_table(catalog, materialized, table) {
            return stats.clone();
        }
    }
    tango_stats::derive_stats_with(&op.as_logical(), inputs, input_schemas, schema, naive_overlaps)
}

impl Semantics for TangoSem {
    type Op = TOp;
    type Props = GroupProps;
    type PhysProps = Req;
    type Algo = Algo;

    fn derive_props(&self, op: &TOp, children: &[&GroupProps]) -> GroupProps {
        let child_schemas: Vec<&Schema> = children.iter().map(|p| p.schema.as_ref()).collect();
        let schema = op
            .output_schema(&child_schemas, &|t| self.table(t).map(|(s, _)| s.as_ref().clone()))
            .unwrap_or_else(|_| Schema::new(vec![]));
        let child_stats: Vec<&RelationStats> = children.iter().map(|p| &p.stats).collect();
        let tables = (self.catalog.as_ref(), &self.materialized);
        let stats =
            derive_stats(op, tables, &child_stats, &child_schemas, &schema, self.naive_overlaps);
        let child_sigs: Vec<String> = children.iter().map(|p| p.signature.clone()).collect();
        let signature = cache::top_signature(op, &child_sigs);
        GroupProps { schema: Arc::new(schema), stats, signature }
    }

    fn implementations(
        &self,
        op: &TOp,
        child_props: &[&GroupProps],
        props: &GroupProps,
        required: &Req,
    ) -> Vec<Implementation<Self>> {
        let mut out = Vec::new();
        let cost = |algo: &Algo| {
            let inputs: Vec<&RelationStats> = child_props.iter().map(|p| &p.stats).collect();
            self.factors.cost(algo, &inputs, &props.stats)
        };
        match required.site {
            // ---------------- DBMS-side generic algorithms ------------
            // None of them guarantees an output order; `SORT^D` is the
            // only way to deliver order at the DBMS (as enforcer).
            Site::Dbms => {
                if !required.order.is_none() {
                    return out;
                }
                let dbms = Req::any(Site::Dbms);
                match op {
                    TOp::Get { table } => {
                        // mid-query materializations live only in the
                        // middleware — the DBMS has no table to scan
                        if self.table(table).is_some() && self.mat_order(table).is_none() {
                            let algo = Algo::ScanD(table.clone());
                            // scan cost is over its own output
                            let c = self.factors.cost(&algo, &[&props.stats], &props.stats);
                            out.push(Implementation { algo, child_required: vec![], cost: c });
                        }
                    }
                    TOp::Select { pred } => {
                        let algo = Algo::FilterD(pred.clone());
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![dbms],
                        });
                    }
                    TOp::Project { items } => {
                        let algo = Algo::ProjectD(items.clone());
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![dbms],
                        });
                    }
                    TOp::Join { eq } => {
                        let algo = Algo::JoinD(eq.clone());
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![dbms.clone(), dbms],
                        });
                    }
                    TOp::TJoin { eq } => {
                        let algo = Algo::TJoinD(eq.clone());
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![dbms.clone(), dbms],
                        });
                    }
                    TOp::Product => {
                        let algo = Algo::ProductD;
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![dbms.clone(), dbms],
                        });
                    }
                    TOp::TAggr { group_by, aggs } => {
                        let algo = Algo::TAggrD { group_by: group_by.clone(), aggs: aggs.clone() };
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![dbms],
                        });
                    }
                    TOp::DupElim => {
                        let algo = Algo::DupElimD;
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![dbms],
                        });
                    }
                    // no SQL implementation for coalescing / temporal
                    // difference in the generic dialect: middleware only
                    TOp::Coalesce | TOp::Diff => {}
                }
            }
            // ---------------- middleware (XXL) algorithms -------------
            Site::Middleware => match op {
                // base relations live in the DBMS; reachable only via the
                // TRANSFER^M enforcer. Mid-query materializations are the
                // exception: they already sit in middleware memory, in
                // the order they were drained in.
                TOp::Get { table } => {
                    if let Some(stored) = self.mat_order(table) {
                        if stored.satisfies(&required.order) {
                            let algo = Algo::MatScanM(table.clone());
                            let c = self.factors.cost(&algo, &[], &props.stats);
                            out.push(Implementation { algo, child_required: vec![], cost: c });
                        }
                    }
                }
                TOp::Select { pred } => {
                    // FILTER^M is order-preserving: pass the requirement
                    // through to the child (rule-E4 behaviour).
                    let algo = Algo::FilterM(pred.clone());
                    out.push(Implementation {
                        cost: cost(&algo),
                        algo,
                        child_required: vec![Req::mid(required.order.clone())],
                    });
                }
                TOp::Project { items } => {
                    // order-preserving when every required key is a plain
                    // column the projection passes through (precondition
                    // of rule E5). The requirement names *output* columns,
                    // so remap each key through its item's alias before
                    // pushing it below the projection; a key fed by a
                    // computed item cannot be sorted early.
                    let mapped: Option<Vec<SortKey>> = required
                        .order
                        .keys()
                        .iter()
                        .map(|k| {
                            let item =
                                items.iter().find(|it| it.alias.eq_ignore_ascii_case(&k.col))?;
                            match &item.expr {
                                tango_algebra::Expr::Col { name, .. } => {
                                    Some(SortKey { col: name.clone(), desc: k.desc })
                                }
                                _ => None,
                            }
                        })
                        .collect();
                    if let Some(keys) = mapped {
                        let algo = Algo::ProjectM(items.clone());
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![Req::mid(SortSpec(keys))],
                        });
                    }
                }
                TOp::Join { eq } => {
                    let lorder = SortSpec::by(eq.iter().map(|(l, _)| l.clone()));
                    let rorder = SortSpec::by(eq.iter().map(|(_, r)| r.clone()));
                    // sort-merge join output is ordered by the left join
                    // attributes
                    if lorder.satisfies(&required.order) {
                        let algo = Algo::MergeJoinM(eq.clone());
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![Req::mid(lorder), Req::mid(rorder)],
                        });
                    }
                }
                TOp::TJoin { eq } => {
                    let lorder = SortSpec::by(eq.iter().map(|(l, _)| l.clone()));
                    let rorder = SortSpec::by(eq.iter().map(|(_, r)| r.clone()));
                    if lorder.satisfies(&required.order) {
                        let algo = Algo::TMergeJoinM(eq.clone());
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![Req::mid(lorder), Req::mid(rorder)],
                        });
                    }
                }
                // no special-purpose middleware Cartesian product: the
                // DBMS handles products (heuristic group 1)
                TOp::Product => {}
                TOp::TAggr { group_by, aggs } => {
                    let in_order = Self::taggr_order(group_by);
                    let out_order = Self::taggr_order(group_by);
                    if out_order.satisfies(&required.order) {
                        let algo = Algo::TAggrM { group_by: group_by.clone(), aggs: aggs.clone() };
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![Req::mid(in_order)],
                        });
                    }
                }
                TOp::DupElim => {
                    // hash-based, keeps first occurrences: order-preserving
                    let algo = Algo::DupElimM;
                    out.push(Implementation {
                        cost: cost(&algo),
                        algo,
                        child_required: vec![Req::mid(required.order.clone())],
                    });
                }
                TOp::Coalesce => {
                    let order = Self::value_order(&props.schema);
                    if order.satisfies(&required.order) {
                        let algo = Algo::CoalesceM;
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![Req::mid(order)],
                        });
                    }
                }
                TOp::Diff => {
                    let order = Self::value_order(&props.schema);
                    if order.satisfies(&required.order) {
                        let algo = Algo::TDiffM;
                        out.push(Implementation {
                            cost: cost(&algo),
                            algo,
                            child_required: vec![Req::mid(order.clone()), Req::mid(order)],
                        });
                    }
                }
            },
        }
        out
    }

    fn enforcers(&self, props: &GroupProps, required: &Req) -> Vec<Enforcer<Self>> {
        let mut out = Vec::new();
        let stats = [&props.stats];
        // sorting enforces order at either site
        if !required.order.is_none() {
            let algo = match required.site {
                Site::Middleware => self.mid_sort(props, required.order.clone()),
                Site::Dbms => Algo::SortD(required.order.clone()),
            };
            out.push(Enforcer {
                cost: self.factors.cost(&algo, &stats, &props.stats),
                algo,
                inner_required: Req::any(required.site),
            });
        }
        match required.site {
            Site::Middleware => {
                // T^M preserves order (rule T6, type →_L): ask the DBMS
                // side for the same order (SORT^D below, as in Query 1's
                // Plan 1). When the fragment is already resident in the
                // middleware cache (in a satisfying order), the transfer
                // ships no bytes — price it as a memory scan of the
                // cached copy instead of a wire transfer; a stale-but-
                // delta-covered copy additionally pays its refresh (delta
                // wire + merge CPU, see `cache::refresh_cost_us`). The
                // estimate is conservative: the fragment below is still
                // costed as if it ran, so residency can only *shrink* a
                // plan's cost.
                let full = self.factors.cost(&Algo::TransferM, &stats, &props.stats);
                let cost = self
                    .residency
                    .transfer_cost(&props.signature, &required.order, &self.factors)
                    .map_or(full, |c| c.min(full));
                out.push(Enforcer {
                    cost,
                    algo: Algo::TransferM,
                    inner_required: Req::dbms(required.order.clone()),
                });
            }
            Site::Dbms => {
                // T^D loads into an (unordered) table: only useful when no
                // order is required.
                if required.order.is_none() {
                    out.push(Enforcer {
                        cost: self.factors.cost(&Algo::TransferD, &stats, &props.stats),
                        algo: Algo::TransferD,
                        inner_required: Req::any(Site::Middleware),
                    });
                }
            }
        }
        out
    }
}

/// Per-node predictions for a physical plan, in pre-order (the numbering
/// `EXPLAIN` renders against): each node's statistics derived bottom-up
/// through [`derive_stats`] over its [operator](Algo::op), priced with
/// the same formulas the search used, so the per-node costs of a cold
/// plan the optimizer chose sum to its estimated cost. `naive_overlaps`
/// is the optimizer's estimation mode, so the re-planner prices
/// remainders exactly as the (possibly deliberately naive) optimizer
/// would. A `MATSCAN^M` reads the *observed* statistics registered under
/// its name, not its consumed subtree (which is kept for rendering and
/// estimated too).
pub fn estimate_plan(
    plan: &PhysNode,
    catalog: &Catalog,
    materialized: &Materialized,
    factors: &CostFactors,
    naive_overlaps: bool,
) -> Vec<NodeEstimate> {
    fn go(
        n: &PhysNode,
        pre: usize,
        ctx: (&Catalog, &Materialized, &CostFactors, bool),
        out: &mut [NodeEstimate],
    ) -> RelationStats {
        let (catalog, materialized, factors, naive) = ctx;
        let mut inputs = Vec::with_capacity(n.children.len());
        let mut cpre = pre + 1;
        for c in &n.children {
            inputs.push(go(c, cpre, ctx, out));
            cpre += c.node_count();
        }
        let input_refs: Vec<&RelationStats> = inputs.iter().collect();
        let op = match &n.algo {
            Algo::MatScanM(t) => Some(TOp::Get { table: t.clone() }),
            algo => algo.op(),
        };
        let stats = match &op {
            Some(op) => {
                let schemas: Vec<&Schema> = n.children.iter().map(|c| c.schema.as_ref()).collect();
                let tables = (catalog, materialized);
                derive_stats(op, tables, &input_refs, &schemas, &n.schema, naive)
            }
            // transfers and sorts pass their input through
            None => inputs.first().cloned().unwrap_or_default(),
        };
        // a leaf scan is priced over its own output
        let cost = match op {
            Some(TOp::Get { .. }) => factors.cost(&n.algo, &[&stats], &stats),
            _ => factors.cost(&n.algo, &input_refs, &stats),
        };
        out[pre] = NodeEstimate { est_rows: stats.rows, est_cost_us: cost };
        stats
    }
    let mut out = vec![NodeEstimate::default(); plan.node_count()];
    go(plan, 0, (catalog, materialized, factors, naive_overlaps), &mut out);
    out
}

/// Convert a parser-produced [`Logical`] tree into the memo form,
/// stripping the top `T^M` and top-level sorts into required properties
/// (site = middleware, the recorded ordering).
pub fn to_initial(logical: &Logical) -> Result<(NewExpr<TOp>, SortSpec)> {
    let mut node = logical;
    let mut order = SortSpec::none();
    loop {
        match node {
            Logical::TransferM { input } | Logical::TransferD { input } => node = input,
            Logical::Sort { keys, input } => {
                if order.is_none() {
                    order = keys.clone();
                }
                node = input;
            }
            _ => break,
        }
    }
    Ok((convert(node)?, order))
}

fn convert(l: &Logical) -> Result<NewExpr<TOp>> {
    let kids: Vec<NewExpr<TOp>> = l.children().into_iter().map(convert).collect::<Result<_>>()?;
    Ok(match l {
        // transfers and inner sorts are physical concerns: drop them
        Logical::TransferM { .. } | Logical::TransferD { .. } | Logical::Sort { .. } => kids
            .into_iter()
            .next()
            .ok_or_else(|| TangoError::Optimizer("sort/transfer without input".into()))?,
        Logical::Get { table } => NewExpr::Op(TOp::Get { table: table.clone() }, vec![]),
        Logical::Select { pred, .. } => NewExpr::Op(TOp::Select { pred: pred.clone() }, kids),
        Logical::Project { items, .. } => NewExpr::Op(TOp::Project { items: items.clone() }, kids),
        Logical::Join { eq, .. } => NewExpr::Op(TOp::Join { eq: eq.clone() }, kids),
        Logical::TJoin { eq, .. } => NewExpr::Op(TOp::TJoin { eq: eq.clone() }, kids),
        Logical::Product { .. } => NewExpr::Op(TOp::Product, kids),
        Logical::TAggr { group_by, aggs, .. } => {
            NewExpr::Op(TOp::TAggr { group_by: group_by.clone(), aggs: aggs.clone() }, kids)
        }
        Logical::DupElim { .. } => NewExpr::Op(TOp::DupElim, kids),
        Logical::Coalesce { .. } => NewExpr::Op(TOp::Coalesce, kids),
        Logical::Diff { .. } => NewExpr::Op(TOp::Diff, kids),
    })
}

/// Search-effort tripwire: Volcano searches allowed per equivalence
/// class. The search visits each `(group, requirement)` pair once, and a
/// group is asked for two sites times a few orderings: none, plus the
/// one or two orders its consumers need. The paper's queries come to
/// 4–4.3 searches per class.
pub const MAX_SEARCHES_PER_CLASS: usize = 6;

/// The result of one optimization run.
pub struct Optimized {
    /// The winning physical plan.
    pub plan: PhysNode,
    /// Its estimated cost in µs.
    pub cost: f64,
    /// Equivalence classes generated (the paper's per-query metric).
    pub classes: usize,
    /// Class elements generated.
    pub elements: usize,
    /// Search-effort accounting from the Volcano phase.
    pub search: SearchStats,
    /// Per-rule firing counts from the transformation phase.
    pub rule_fires: Vec<(&'static str, usize)>,
}

/// Optimize a logical plan against a catalog snapshot *and* a snapshot
/// of what the middleware relation cache holds. Residency only changes
/// `TRANSFER^M` enforcer pricing — plan correctness never depends on the
/// snapshot being current (a stale hit simply re-fetches at runtime).
pub fn optimize_resident(
    logical: &Logical,
    catalog: Arc<Catalog>,
    factors: CostFactors,
    options: OptOptions,
    residency: Arc<Residency>,
) -> Result<Optimized> {
    optimize_with(logical, None, catalog, factors, options, residency, Materialized::new())
}

/// Mid-query re-optimization entry point: optimize the unexecuted
/// *remainder* of a running plan, where some inputs are already
/// materialized in the middleware.
///
/// `root_order` pins the delivery order the original plan guaranteed (so
/// the spliced plan returns byte-identical results); `materialized` names
/// the available mid-query materializations with their schemas, *actual*
/// (observed) statistics and the order each holds.
pub fn reoptimize(
    logical: &Logical,
    root_order: SortSpec,
    catalog: Arc<Catalog>,
    factors: CostFactors,
    options: OptOptions,
    residency: Arc<Residency>,
    materialized: Materialized,
) -> Result<Optimized> {
    optimize_with(logical, Some(root_order), catalog, factors, options, residency, materialized)
}

#[allow(clippy::too_many_arguments)]
fn optimize_with(
    logical: &Logical,
    pinned_order: Option<SortSpec>,
    catalog: Arc<Catalog>,
    factors: CostFactors,
    options: OptOptions,
    residency: Arc<Residency>,
    materialized: Materialized,
) -> Result<Optimized> {
    let (tree, order) = to_initial(logical)?;
    let order = pinned_order.unwrap_or(order);
    let materialized =
        materialized.into_iter().map(|(k, v)| (k.to_uppercase(), v)).collect::<HashMap<_, _>>();
    let sem = TangoSem {
        catalog,
        factors,
        mid_sort_budget: options.mid_sort_budget,
        residency,
        materialized,
        naive_overlaps: options.naive_overlaps,
    };
    let mut memo = Memo::new(sem);
    let root = memo.insert_root(tree);
    memo.explore(&rules::rule_set(options));
    let mut search = SearchStats::default();
    let best = volcano::optimize(&memo, root, Req::mid(order), &mut search)
        .ok_or_else(|| TangoError::Optimizer("no feasible plan".into()))?;
    let plan = annotate(&best.plan, &memo)?;
    Ok(Optimized {
        plan,
        cost: best.cost,
        classes: memo.group_count(),
        elements: memo.expr_count(),
        search,
        rule_fires: memo.rule_fires().collect(),
    })
}

/// Attach output schemas to a physical plan by bottom-up derivation.
fn annotate(plan: &PhysPlan<Algo>, memo: &Memo<TangoSem>) -> Result<PhysNode> {
    fn go(p: &PhysPlan<Algo>, sem: &TangoSem) -> Result<PhysNode> {
        let children: Vec<PhysNode> =
            p.children.iter().map(|c| go(c, sem)).collect::<Result<_>>()?;
        let schema = match &p.algo {
            Algo::ScanD(t) | Algo::MatScanM(t) => sem
                .table(t)
                .map(|(s, _)| s.clone())
                .ok_or_else(|| TangoError::Optimizer(format!("unknown table {t}")))?,
            other => {
                let kids: Vec<&Schema> = children.iter().map(|c| c.schema.as_ref()).collect();
                Arc::new(other.output_schema(&kids)?)
            }
        };
        Ok(PhysNode { algo: p.algo.clone(), schema, children })
    }
    go(plan, memo.semantics())
}
