//! Differential test of the search against a brute-force enumerator.
//!
//! Random memos over a toy semantics shaped like TANGO's: two sites with
//! transfer enforcers both ways between their unordered requirements
//! (`T^M`/`T^D`), an order-preserving transfer from one site, a sort
//! enforcer at each site (sometimes free), zero to two implementations
//! per class element and requirement (so some requirements are
//! infeasible), alternative elements per group, and a "swap" rule that
//! wraps a commuted binary element into the original's group and back —
//! the cross-group cycle a projection over a commuted join makes. All
//! costs are small integers, so sums are exact and ties are common.
//!
//! The brute force enumerates every acyclic plan (no `(group, required)`
//! pair inside its own subplan) in canonical candidate order — native
//! implementations in class-element order, then enforcers in order — and
//! keeps the first strictly cheapest. A plan's cost is a sum over inputs
//! whose plan sets do not depend on each other, so that first minimum is
//! each input's first minimum, composed. The search must return the same
//! cost and the same plan, and ask for each pair's implementations once.

use std::cell::RefCell;
use volcano::{
    optimize, Enforcer, ExprId, Implementation, Memo, NewExpr, PhysPlan, Rule, RuleKind,
    SearchStats, Semantics,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Site {
    A,
    B,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Req {
    site: Site,
    sorted: bool,
}

const REQS: [Req; 4] = [
    Req { site: Site::A, sorted: true },
    Req { site: Site::A, sorted: false },
    Req { site: Site::B, sorted: true },
    Req { site: Site::B, sorted: false },
];

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Op {
    /// An operator of the initial tree.
    Orig(u32),
    /// An alternative element for the same group.
    Alt(u32),
    /// A binary `Orig` with its inputs commuted.
    Swapped(u32),
    /// Restores the column order of a commuted element (a projection).
    Wrap,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn hash(parts: &[u64]) -> u64 {
    parts.iter().fold(0, |h, &p| mix(h ^ p))
}

fn op_code(op: &Op) -> u64 {
    match op {
        Op::Orig(t) => u64::from(*t),
        Op::Alt(t) => 1_000 + u64::from(*t),
        Op::Swapped(t) => 2_000 + u64::from(*t),
        Op::Wrap => 3_000,
    }
}

fn req_code(r: &Req) -> u64 {
    REQS.iter().position(|x| x == r).unwrap() as u64
}

struct Toy {
    seed: u64,
    /// When set, every `(group, operator, requirement)` whose
    /// implementations are asked for.
    searched: RefCell<Option<Vec<(u64, Op, Req)>>>,
}

impl Semantics for Toy {
    type Op = Op;
    /// A hash naming the group.
    type Props = u64;
    type PhysProps = Req;
    type Algo = String;

    fn derive_props(&self, op: &Op, children: &[&u64]) -> u64 {
        let mut parts = vec![self.seed, op_code(op)];
        parts.extend(children.iter().map(|c| **c));
        hash(&parts)
    }

    fn implementations(
        &self,
        op: &Op,
        child_props: &[&u64],
        props: &u64,
        required: &Req,
    ) -> Vec<Implementation<Self>> {
        if let Some(log) = self.searched.borrow_mut().as_mut() {
            log.push((*props, op.clone(), *required));
        }
        let mut parts = vec![self.seed, op_code(op), req_code(required)];
        parts.extend(child_props.iter().map(|c| **c));
        let h = hash(&parts);
        (0..h % 3)
            .map(|i| {
                let hi = mix(h ^ (i + 1));
                // a wrapper over its own (or a commuted) group closes a
                // cycle: it must cost something
                let floor = if *op == Op::Wrap { 1 } else { 0 };
                Implementation {
                    algo: format!("{op:?}#{i}@{required:?}"),
                    child_required: (0..child_props.len() as u64)
                        .map(|j| REQS[(mix(hi ^ (j + 7)) % 4) as usize])
                        .collect(),
                    cost: (floor + hi % 4) as f64,
                }
            })
            .collect()
    }

    fn enforcers(&self, props: &u64, required: &Req) -> Vec<Enforcer<Self>> {
        let h = hash(&[self.seed, *props, req_code(required)]);
        let other = match required.site {
            Site::A => Site::B,
            Site::B => Site::A,
        };
        let mut out = Vec::new();
        if required.sorted {
            out.push(Enforcer {
                algo: format!("sort@{:?}", required.site),
                inner_required: Req { sorted: false, ..*required },
                cost: (h % 3) as f64, // zero-cost sorts included
            });
            // order-preserving transfer into A only (like T^M)
            if required.site == Site::A {
                out.push(Enforcer {
                    algo: "ship_sorted@A".into(),
                    inner_required: Req { site: Site::B, sorted: true },
                    cost: (1 + mix(h) % 3) as f64,
                });
            }
        } else {
            out.push(Enforcer {
                algo: format!("ship@{:?}", required.site),
                inner_required: Req { site: other, sorted: false },
                cost: (1 + mix(h ^ 1) % 3) as f64,
            });
        }
        out
    }
}

/// Adds `Alt(t)` over the same inputs for every `Orig(t)` with odd `t`.
struct Alternative;

impl Rule<Toy> for Alternative {
    fn name(&self) -> &'static str {
        "alternative"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::Multiset
    }

    fn apply(&self, memo: &Memo<Toy>, expr: ExprId) -> Vec<NewExpr<Op>> {
        let e = memo.expr(expr);
        match e.op {
            Op::Orig(t) if t % 2 == 1 => {
                vec![NewExpr::Op(
                    Op::Alt(t),
                    e.children.iter().map(|&g| NewExpr::Group(g)).collect(),
                )]
            }
            _ => vec![],
        }
    }
}

/// `Orig(t)(a, b)` gains `Wrap(Swapped(t)(b, a))`, and `Swapped(t)(b, a)`
/// gains `Wrap(Orig(t)(a, b))`: each group then holds a wrapper over the
/// other.
struct Swap;

impl Rule<Toy> for Swap {
    fn name(&self) -> &'static str {
        "swap"
    }

    fn kind(&self) -> RuleKind {
        RuleKind::Multiset
    }

    fn apply(&self, memo: &Memo<Toy>, expr: ExprId) -> Vec<NewExpr<Op>> {
        let e = memo.expr(expr);
        let swapped = match e.op {
            Op::Orig(t) if t % 3 == 0 && e.children.len() == 2 => Op::Swapped(t),
            Op::Swapped(t) => Op::Orig(t),
            _ => return vec![],
        };
        let commuted = NewExpr::Op(
            swapped,
            vec![NewExpr::Group(e.children[1]), NewExpr::Group(e.children[0])],
        );
        vec![NewExpr::Op(Op::Wrap, vec![commuted])]
    }
}

fn random_tree(rng: &mut u64, depth: u32) -> NewExpr<Op> {
    *rng = mix(*rng);
    let arity = if depth == 0 { 0 } else { 1 + (*rng % 2) as usize };
    let tag = ((*rng >> 8) % 7) as u32;
    NewExpr::Op(Op::Orig(tag), (0..arity).map(|_| random_tree(rng, depth - 1)).collect())
}

/// The first strictly cheapest acyclic plan of `(group, required)`, in
/// canonical candidate order; `stack` holds the pairs being planned.
fn brute(
    memo: &Memo<Toy>,
    group: volcano::GroupId,
    required: Req,
    stack: &mut Vec<(volcano::GroupId, Req)>,
) -> Option<(f64, PhysPlan<String>)> {
    if stack.contains(&(group, required)) {
        return None;
    }
    stack.push((group, required));
    let sem = memo.semantics();
    let props = memo.props(group);
    let mut best: Option<(f64, PhysPlan<String>)> = None;
    for &eid in memo.exprs_in(group) {
        let e = memo.expr(eid);
        let child_props: Vec<&u64> = e.children.iter().map(|&c| memo.props(c)).collect();
        'impls: for imp in sem.implementations(&e.op, &child_props, props, &required) {
            let mut cost = imp.cost;
            let mut children = Vec::new();
            for (&c, &r) in e.children.iter().zip(&imp.child_required) {
                let Some((cc, plan)) = brute(memo, c, r, stack) else { continue 'impls };
                cost += cc;
                children.push(plan);
            }
            if best.as_ref().is_none_or(|b| cost < b.0) {
                best = Some((cost, PhysPlan { algo: imp.algo, children }));
            }
        }
    }
    for enf in sem.enforcers(props, &required) {
        if enf.inner_required == required {
            continue;
        }
        if let Some((c, plan)) = brute(memo, group, enf.inner_required, stack) {
            let cost = enf.cost + c;
            if best.as_ref().is_none_or(|b| cost < b.0) {
                best = Some((cost, PhysPlan { algo: enf.algo, children: vec![plan] }));
            }
        }
    }
    stack.pop();
    best
}

fn render(p: &PhysPlan<String>) -> String {
    if p.children.is_empty() {
        return p.algo.clone();
    }
    let kids: Vec<String> = p.children.iter().map(render).collect();
    format!("{}({})", p.algo, kids.join(", "))
}

/// One random case: returns whether the root had a feasible plan.
fn check_case(seed: u64) -> bool {
    let mut rng = seed;
    let tree = random_tree(&mut rng, 2);
    let sem = Toy { seed, searched: RefCell::new(None) };
    let mut memo = Memo::new(sem);
    let root = memo.insert_root(tree);
    let rules: Vec<Box<dyn Rule<Toy>>> = vec![Box::new(Alternative), Box::new(Swap)];
    memo.explore(&rules);
    let required = REQS[(mix(seed) % 4) as usize];

    let want = brute(&memo, root, required, &mut Vec::new());
    *memo.semantics().searched.borrow_mut() = Some(Vec::new());
    let mut stats = SearchStats::default();
    let got = optimize(&memo, root, required, &mut stats);

    let searched = memo.semantics().searched.borrow_mut().take().unwrap();
    for (i, s) in searched.iter().enumerate() {
        assert!(!searched[..i].contains(s), "seed {seed}: {s:?} searched twice");
    }
    assert_eq!(stats.cycles_pruned, 0, "seed {seed}: every cycle here has a positive cost");
    match (want, got) {
        (None, None) => false,
        (Some((cost, plan)), Some(best)) => {
            assert_eq!(best.cost, cost, "seed {seed}: cost");
            assert_eq!(render(&best.plan), render(&plan), "seed {seed}: plan (cost {cost})");
            true
        }
        (want, got) => panic!(
            "seed {seed}: feasibility differs: brute force {:?}, search {:?}",
            want.map(|(c, p)| (c, render(&p))),
            got.map(|b| (b.cost, render(&b.plan)))
        ),
    }
}

#[test]
fn search_matches_brute_force_on_random_memos() {
    let feasible = (0..600u64).filter(|&seed| check_case(seed)).count();
    // the generator must mostly produce plannable memos, or the
    // comparison says little
    assert!(feasible > 300, "only {feasible} of 600 cases feasible");
}
