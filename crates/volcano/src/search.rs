//! Cost-based physical search over a memo.
//!
//! The second phase of the paper's two-phase optimizer ("for each
//! algebraic operation in a plan, it assumes that each of the algorithms
//! available for computing that operation is being used, and it
//! estimates the consequent cost"), over (group, required physical
//! properties) pairs.
//!
//! The search is context-free: every `(group, required)` pair is
//! expanded once — its native implementations priced, its enforcers
//! listed — and the pairs' costs are then relaxed to a fixpoint, a
//! shortest path over the pair graph. That graph has cycles: enforcers
//! wrap a plan for their own group, and TANGO's `T^M`/`T^D` transfers lead
//! from (middleware, any) to (DBMS, any) and back; a class element may
//! also reach its own group through its inputs (a projection over a
//! commuted join). A fixpoint needs no guard against either, and each
//! pair's answer is the cheapest acyclic plan whatever path led the
//! search to it.
//!
//! Winners tie-break as a depth-first search would: native
//! implementations in class-element order, then enforcers in order, a
//! later candidate replacing an earlier one only when strictly cheaper.
//! That holds when every cycle of the pair graph costs more than zero;
//! across a zero-cost cycle the search still returns a cheapest acyclic
//! plan, but which of the tied plans is unspecified. Costs are assumed
//! non-negative.

use crate::memo::{ExprId, GroupId, Memo, Semantics};

/// A candidate physical implementation of one logical operator.
pub struct Implementation<S: Semantics> {
    pub algo: S::Algo,
    /// Physical properties required from each child, in order.
    pub child_required: Vec<S::PhysProps>,
    /// The algorithm's own cost (children costs are added by the search).
    pub cost: f64,
}

/// A property enforcer: wraps a plan for the *same group* optimized under
/// the (weaker) `inner_required`.
pub struct Enforcer<S: Semantics> {
    pub algo: S::Algo,
    pub inner_required: S::PhysProps,
    pub cost: f64,
}

/// A complete physical plan.
#[derive(Debug, Clone)]
pub struct PhysPlan<A> {
    pub algo: A,
    pub children: Vec<PhysPlan<A>>,
}

impl<A> PhysPlan<A> {
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(PhysPlan::node_count).sum::<usize>()
    }
}

/// The winner for one (group, required) pair.
#[derive(Debug)]
pub struct Best<S: Semantics> {
    pub cost: f64,
    pub plan: PhysPlan<S::Algo>,
    /// Which class element the plan's root implements.
    pub expr: ExprId,
}

/// Search-effort accounting.
#[derive(Debug, Default, Clone)]
pub struct SearchStats {
    /// `(group, required)` pairs searched: each prices its native
    /// implementations and lists its enforcers exactly once.
    pub optimize_calls: usize,
    pub implementations_considered: usize,
    pub enforcers_considered: usize,
    /// Requests for a `(group, required)` pair the search already holds.
    pub cache_hits: usize,
    /// Zero-cost cycles broken while building the winning plan: the
    /// first-minimum choices wrapped each other, and the plan was built
    /// from the choices of the relaxation instead. Always 0 when every
    /// cycle of the pair graph has a positive cost.
    pub cycles_pruned: usize,
}

/// Find the cheapest physical plan for `group` delivering `required`.
pub fn optimize<S: Semantics>(
    memo: &Memo<S>,
    group: GroupId,
    required: S::PhysProps,
    stats: &mut SearchStats,
) -> Option<Best<S>> {
    let index = (0..memo.group_count()).map(|_| Vec::new()).collect();
    let mut search = Search { memo, pairs: Vec::new(), index, stats };
    let root = search.pair(group, &required);
    let mut next = 0;
    while next < search.pairs.len() {
        search.expand(next);
        next += 1;
    }
    let (first_min, relaxed) = search.relax();
    let n = search.pairs.len();
    search.build(root, &first_min, &mut vec![false; n]).unwrap_or_else(|Cycle| {
        search.stats.cycles_pruned += 1;
        search.build(root, &relaxed, &mut vec![false; n]).unwrap_or(None)
    })
}

/// One `(group, required)` pair and its candidates.
struct Pair<S: Semantics> {
    group: GroupId,
    required: S::PhysProps,
    /// Native implementations in class-element order, each with the
    /// pairs solving its inputs.
    natives: Vec<(ExprId, Implementation<S>, Vec<usize>)>,
    /// Enforcers with the pair each wraps (`None`: it would wrap
    /// `required` itself).
    enforcers: Vec<(Enforcer<S>, Option<usize>)>,
}

/// A pair's winning candidate: an index into its natives, then its
/// enforcers; `None` when it has no feasible plan.
type Choice = Option<usize>;

/// The chosen candidates lead back to a pair on the current path.
struct Cycle;

struct Search<'a, S: Semantics> {
    memo: &'a Memo<S>,
    pairs: Vec<Pair<S>>,
    /// Each group's pairs.
    index: Vec<Vec<usize>>,
    stats: &'a mut SearchStats,
}

impl<S: Semantics> Search<'_, S> {
    /// The pair for `(group, required)`, added unexpanded if new.
    fn pair(&mut self, group: GroupId, required: &S::PhysProps) -> usize {
        let known = &self.index[group.0];
        if let Some(&p) = known.iter().find(|&&p| self.pairs[p].required == *required) {
            self.stats.cache_hits += 1;
            return p;
        }
        let p = self.pairs.len();
        let required = required.clone();
        self.pairs.push(Pair { group, required, natives: Vec::new(), enforcers: Vec::new() });
        self.index[group.0].push(p);
        p
    }

    /// Price pair `p`'s native implementations and list its enforcers.
    fn expand(&mut self, p: usize) {
        self.stats.optimize_calls += 1;
        let memo = self.memo;
        let (group, required) = (self.pairs[p].group, self.pairs[p].required.clone());
        let props = memo.props(group);
        let mut natives = Vec::new();
        for &eid in memo.exprs_in(group) {
            let e = memo.expr(eid);
            let child_props: Vec<&S::Props> = e.children.iter().map(|&c| memo.props(c)).collect();
            for imp in memo.semantics().implementations(&e.op, &child_props, props, &required) {
                self.stats.implementations_considered += 1;
                debug_assert_eq!(imp.child_required.len(), e.children.len());
                let inputs = e
                    .children
                    .iter()
                    .zip(&imp.child_required)
                    .map(|(&g, r)| self.pair(g, r))
                    .collect();
                natives.push((eid, imp, inputs));
            }
        }
        let enforcers = memo.semantics().enforcers(props, &required);
        self.stats.enforcers_considered += enforcers.len();
        let enforcers = enforcers
            .into_iter()
            .map(|enf| {
                let inner =
                    (enf.inner_required != required).then(|| self.pair(group, &enf.inner_required));
                (enf, inner)
            })
            .collect();
        let pair = &mut self.pairs[p];
        pair.natives = natives;
        pair.enforcers = enforcers;
    }

    /// Pair `p`'s first strictly cheapest candidate over the inputs'
    /// `costs`.
    fn first_min(&self, p: usize, costs: &[Option<f64>]) -> (Option<f64>, Choice) {
        let pair = &self.pairs[p];
        let natives = pair.natives.iter().map(|(_, imp, inputs)| {
            inputs.iter().try_fold(imp.cost, |cost, &i| costs[i].map(|c| cost + c))
        });
        let enforcers = pair
            .enforcers
            .iter()
            .map(|(enf, inner)| inner.and_then(|i| costs[i]).map(|c| enf.cost + c));
        let mut best = (None, None);
        for (k, cost) in natives.chain(enforcers).enumerate() {
            if let Some(cost) = cost {
                if best.0.is_none_or(|b| cost < b) {
                    best = (Some(cost), Some(k));
                }
            }
        }
        best
    }

    /// Relax every pair's cost to the fixpoint. Costs only fall from
    /// pass to pass, and a cheapest plan repeats no pair along any path,
    /// so `n + 1` passes settle `n` pairs (children are mostly added
    /// after their parents: visiting pairs in reverse settles most in
    /// one). Returns each pair's first minimum over the settled costs,
    /// and the choice that last lowered its cost — never cyclic, since
    /// every choice was strictly cheaper than the one it replaced.
    fn relax(&self) -> (Vec<Choice>, Vec<Choice>) {
        let n = self.pairs.len();
        let mut costs = vec![None; n];
        let mut first_min = vec![None; n];
        let mut relaxed = vec![None; n];
        for _ in 0..=n {
            let mut changed = false;
            for p in (0..n).rev() {
                let (cost, choice) = self.first_min(p, &costs);
                if cost.map(f64::to_bits) != costs[p].map(f64::to_bits) {
                    changed = true;
                    costs[p] = cost;
                    relaxed[p] = choice;
                }
                first_min[p] = choice;
            }
            if !changed {
                break;
            }
        }
        (first_min, relaxed)
    }

    /// Build pair `p`'s plan from `choices`.
    fn build(
        &self,
        p: usize,
        choices: &[Choice],
        on_path: &mut [bool],
    ) -> Result<Option<Best<S>>, Cycle> {
        let Some(k) = choices[p] else { return Ok(None) };
        if on_path[p] {
            return Err(Cycle);
        }
        on_path[p] = true;
        let pair = &self.pairs[p];
        let best = match pair.natives.get(k) {
            Some((eid, imp, inputs)) => {
                let mut cost = imp.cost;
                let mut children = Vec::with_capacity(inputs.len());
                for &i in inputs {
                    let Some(input) = self.build(i, choices, on_path)? else { return Ok(None) };
                    cost += input.cost;
                    children.push(input.plan);
                }
                Best { cost, plan: PhysPlan { algo: imp.algo.clone(), children }, expr: *eid }
            }
            None => {
                let (enf, inner) = &pair.enforcers[k - pair.natives.len()];
                let Some(input) = inner.map_or(Ok(None), |i| self.build(i, choices, on_path))?
                else {
                    return Ok(None);
                };
                Best {
                    cost: enf.cost + input.cost,
                    plan: PhysPlan { algo: enf.algo.clone(), children: vec![input.plan] },
                    expr: input.expr,
                }
            }
        };
        on_path[p] = false;
        Ok(Some(best))
    }
}
