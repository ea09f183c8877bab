//! # volcano
//!
//! A from-scratch, generic reimplementation of the Volcano optimizer
//! generator (Graefe & McKenna, ICDE 1993) — the search engine TANGO's
//! middleware optimizer is built on.
//!
//! The crate is *generic*: it knows nothing about relations, cost
//! formulas, or SQL. An instantiation supplies a [`Semantics`]
//! implementation describing
//!
//! * the logical operator type and how logical properties (schema,
//!   statistics) are derived,
//! * the physical algorithms implementing each operator, with their
//!   per-child required physical properties and costs,
//! * *enforcers* — algorithms that fix up physical properties (sorting
//!   for orderings; in TANGO, the `T^M`/`T^D` transfer algorithms enforce
//!   the *site* property, which is how the middleware "appropriately
//!   inserts transfer operations into query plans"),
//!
//! plus a set of [`Rule`]s generating equivalent expressions.
//!
//! The search ([`optimize`]) is context-free: it expands every
//! `(group, required)` pair it reaches exactly once and relaxes their
//! costs to a fixpoint, so enforcer cycles (sites enforced both ways)
//! and memo cycles (an element reaching its own group through its
//! inputs) need no cut, and every answer is the cheapest acyclic plan.
//! [`SearchStats::optimize_calls`] counts the pairs expanded;
//! [`SearchStats::cycles_pruned`] counts only the zero-cost cycles broken
//! while building the winner, and stays 0 when every cycle costs
//! something.
//!
//! Terminology matches the paper's description of Volcano: a memo *group*
//! is an **equivalence class**; a memo expression is a **class element**.
//! [`Memo::group_count`] / [`Memo::expr_count`] reproduce the
//! classes/elements measurements reported for each query in Section 5.2.

pub mod memo;
pub mod search;

pub use memo::{ExprId, GroupId, MExpr, Memo, NewExpr, Rule, RuleKind, Semantics};
pub use search::{optimize, Best, Enforcer, Implementation, PhysPlan, SearchStats};

#[cfg(test)]
mod toy_tests {
    //! A miniature instantiation: a commutative binary `Add` over leaf
    //! numbers with "cheap" and "pricey" implementations, verifying rule
    //! application, deduplication, and cost-based search.

    use super::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Op {
        Leaf(i64),
        Add,
    }

    #[derive(Clone, Debug)]
    struct Props {
        magnitude: f64,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Req {
        Any,
        Fancy,
    }

    struct Toy;

    impl Semantics for Toy {
        type Op = Op;
        type Props = Props;
        type PhysProps = Req;
        type Algo = String;

        fn derive_props(&self, op: &Op, children: &[&Props]) -> Props {
            match op {
                Op::Leaf(n) => Props { magnitude: *n as f64 },
                Op::Add => Props { magnitude: children.iter().map(|p| p.magnitude).sum() },
            }
        }

        fn implementations(
            &self,
            op: &Op,
            _child_props: &[&Props],
            props: &Props,
            required: &Req,
        ) -> Vec<Implementation<Self>> {
            match (op, required) {
                (Op::Leaf(n), Req::Any) => vec![Implementation {
                    algo: format!("load({n})"),
                    child_required: vec![],
                    cost: 1.0,
                }],
                (Op::Add, Req::Any) => vec![
                    Implementation {
                        algo: "add_cheap".into(),
                        child_required: vec![Req::Any, Req::Any],
                        cost: props.magnitude,
                    },
                    Implementation {
                        algo: "add_pricey".into(),
                        child_required: vec![Req::Any, Req::Any],
                        cost: props.magnitude * 10.0,
                    },
                ],
                // nothing natively provides Fancy
                _ => vec![],
            }
        }

        fn enforcers(&self, _props: &Props, required: &Req) -> Vec<Enforcer<Self>> {
            match required {
                Req::Fancy => {
                    vec![Enforcer { algo: "fancify".into(), inner_required: Req::Any, cost: 2.5 }]
                }
                Req::Any => vec![],
            }
        }
    }

    /// Add is commutative.
    struct Commute;

    impl Rule<Toy> for Commute {
        fn name(&self) -> &'static str {
            "commute-add"
        }

        fn kind(&self) -> RuleKind {
            RuleKind::Multiset
        }

        fn apply(&self, memo: &Memo<Toy>, expr: ExprId) -> Vec<NewExpr<Op>> {
            let e = memo.expr(expr);
            if e.op == Op::Add {
                vec![NewExpr::Op(
                    Op::Add,
                    vec![NewExpr::Group(e.children[1]), NewExpr::Group(e.children[0])],
                )]
            } else {
                vec![]
            }
        }
    }

    #[test]
    fn memo_dedups_and_rules_fire_once() {
        let sem = Toy;
        let tree = NewExpr::Op(
            Op::Add,
            vec![NewExpr::Op(Op::Leaf(1), vec![]), NewExpr::Op(Op::Leaf(2), vec![])],
        );
        let mut memo = Memo::new(sem);
        let root = memo.insert_root(tree);
        assert_eq!(memo.group_count(), 3);
        assert_eq!(memo.expr_count(), 3);
        let rules: Vec<Box<dyn Rule<Toy>>> = vec![Box::new(Commute)];
        memo.explore(&rules);
        // commuted form adds exactly one new expression; applying the rule
        // to the commuted form reproduces the original (dedup).
        assert_eq!(memo.group_count(), 3);
        assert_eq!(memo.expr_count(), 4);
        assert_eq!(memo.exprs_in(root).len(), 2);
    }

    #[test]
    fn search_picks_cheapest_and_uses_enforcers() {
        let sem = Toy;
        let tree = NewExpr::Op(
            Op::Add,
            vec![NewExpr::Op(Op::Leaf(1), vec![]), NewExpr::Op(Op::Leaf(2), vec![])],
        );
        let mut memo = Memo::new(sem);
        let root = memo.insert_root(tree);
        let mut stats = SearchStats::default();
        let best = optimize(&memo, root, Req::Any, &mut stats).expect("plan");
        assert_eq!(best.plan.algo, "add_cheap");
        assert!((best.cost - (3.0 + 1.0 + 1.0)).abs() < 1e-9);

        let fancy = optimize(&memo, root, Req::Fancy, &mut stats).expect("plan");
        assert_eq!(fancy.plan.algo, "fancify");
        assert_eq!(fancy.plan.children[0].algo, "add_cheap");
        assert!((fancy.cost - (best.cost + 2.5)).abs() < 1e-9);
    }

    #[test]
    fn identical_subtrees_share_groups() {
        let sem = Toy;
        let leaf = || NewExpr::Op(Op::Leaf(7), vec![]);
        let tree = NewExpr::Op(Op::Add, vec![leaf(), leaf()]);
        let mut memo = Memo::new(sem);
        memo.insert_root(tree);
        // leaf(7) appears once: 2 groups, 2 exprs
        assert_eq!(memo.group_count(), 2);
        assert_eq!(memo.expr_count(), 2);
    }

    #[test]
    fn rule_fire_counts_tracked() {
        let sem = Toy;
        let tree = NewExpr::Op(
            Op::Add,
            vec![NewExpr::Op(Op::Leaf(1), vec![]), NewExpr::Op(Op::Leaf(2), vec![])],
        );
        let mut memo = Memo::new(sem);
        memo.insert_root(tree);
        let rules: Vec<Box<dyn Rule<Toy>>> = vec![Box::new(Commute)];
        memo.explore(&rules);
        let fires: HashMap<&str, usize> = memo.rule_fires().collect();
        assert_eq!(fires["commute-add"], 2); // original + commuted form
    }
}

#[cfg(test)]
mod enforcer_cycle_tests {
    //! Regression: bidirectional enforcers (TANGO's `T^M`/`T^D` site
    //! transfers) create cycles in the `(group, required)` graph. A search
    //! that cuts such a cycle gets an answer that depends on the
    //! requirements on its stack; memoizing that answer hides feasible
    //! (and cheaper) plans from every later lookup of the pair.

    use super::*;
    use std::cell::RefCell;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Op {
        /// Lives natively at `Home` only (like a mid-query
        /// materialization residing in the middleware).
        Leaf,
        Wrap,
    }

    #[derive(Clone, Debug)]
    struct Props;

    /// Every `(operator, requirement)` whose implementations the search
    /// asked for, in order.
    #[derive(Default)]
    struct Sites {
        searched: RefCell<Vec<(Op, Req)>>,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Req {
        /// `Home`, plus an ordering only the `sort` enforcer delivers.
        HomeSorted,
        Home,
        Away,
    }

    impl Semantics for Sites {
        type Op = Op;
        type Props = Props;
        type PhysProps = Req;
        type Algo = String;

        fn derive_props(&self, _op: &Op, _children: &[&Props]) -> Props {
            Props
        }

        fn implementations(
            &self,
            op: &Op,
            _child_props: &[&Props],
            _props: &Props,
            required: &Req,
        ) -> Vec<Implementation<Self>> {
            self.searched.borrow_mut().push((op.clone(), *required));
            match (op, required) {
                (Op::Leaf, Req::Home | Req::HomeSorted) => {
                    vec![Implementation { algo: "leaf".into(), child_required: vec![], cost: 1.0 }]
                }
                // the away-side wrap is far cheaper than the home-side
                // one — reachable only if `(Leaf, Away)` stays feasible
                (Op::Wrap, Req::Home) => vec![Implementation {
                    algo: "wrap_home".into(),
                    child_required: vec![Req::Home],
                    cost: 100.0,
                }],
                (Op::Wrap, Req::Away) => vec![Implementation {
                    algo: "wrap_away".into(),
                    child_required: vec![Req::Away],
                    cost: 0.5,
                }],
                _ => vec![],
            }
        }

        fn enforcers(&self, _props: &Props, required: &Req) -> Vec<Enforcer<Self>> {
            match required {
                Req::HomeSorted => {
                    vec![Enforcer { algo: "sort".into(), inner_required: Req::Home, cost: 0.1 }]
                }
                Req::Home => {
                    vec![Enforcer {
                        algo: "ship_home".into(),
                        inner_required: Req::Away,
                        cost: 5.0,
                    }]
                }
                Req::Away => {
                    vec![Enforcer {
                        algo: "ship_away".into(),
                        inner_required: Req::Home,
                        cost: 5.0,
                    }]
                }
            }
        }
    }

    /// `(Leaf, Away)` is reached both inside the cycle `(Leaf, Home) →
    /// ship_home → (Leaf, Away) → ship_away → (Leaf, Home)` and from
    /// `wrap_away`; it must be searched once and answer both the same.
    #[test]
    fn enforcer_cycle_pairs_are_searched_once() {
        let tree = NewExpr::Op(Op::Wrap, vec![NewExpr::Op(Op::Leaf, vec![])]);
        let mut memo = Memo::new(Sites::default());
        let root = memo.insert_root(tree);
        let mut stats = SearchStats::default();
        let best = optimize(&memo, root, Req::HomeSorted, &mut stats).expect("plan");
        let searched = memo.semantics().searched.borrow();
        for (i, pair) in searched.iter().enumerate() {
            assert!(!searched[..i].contains(pair), "{pair:?} searched twice: {searched:?}");
        }
        // (Wrap, HomeSorted/Home/Away) and (Leaf, Home/Away)
        assert_eq!(stats.optimize_calls, 5);
        assert_eq!(searched.len(), 5);
        // sort(ship_home(wrap_away(ship_away(leaf)))) = 0.1+5+0.5+5+1
        assert!(
            (best.cost - 11.6).abs() < 1e-9,
            "poisoned memo hid the away-side plan: cost {} plan {:?}",
            best.cost,
            best.plan
        );
        assert_eq!(best.plan.algo, "sort");
        assert_eq!(best.plan.children[0].algo, "ship_home");
        assert_eq!(best.plan.children[0].children[0].algo, "wrap_away");
        assert_eq!(best.plan.children[0].children[0].children[0].algo, "ship_away");
    }
}

#[cfg(test)]
mod zero_cost_cycle_tests {
    //! Enforcers may cycle at no cost: TANGO's transfers do when
    //! calibration fits no fixed `T^D` cost and a relation is empty.
    //! Choosing every requirement's first minimum then can wrap a plan in
    //! itself; the search must still return a finite, cheapest plan.

    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Leaf;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Req {
        X,
        Y,
        Z,
    }

    struct Free;

    impl Semantics for Free {
        type Op = Leaf;
        type Props = ();
        type PhysProps = Req;
        type Algo = String;

        fn derive_props(&self, _op: &Leaf, _children: &[&()]) {}

        fn implementations(
            &self,
            _op: &Leaf,
            _child_props: &[&()],
            _props: &(),
            required: &Req,
        ) -> Vec<Implementation<Self>> {
            match required {
                Req::Z => {
                    vec![Implementation { algo: "leaf".into(), child_required: vec![], cost: 1.0 }]
                }
                _ => vec![],
            }
        }

        fn enforcers(&self, _props: &(), required: &Req) -> Vec<Enforcer<Self>> {
            let free = |algo: &str, inner_required| Enforcer {
                algo: algo.to_string(),
                inner_required,
                cost: 0.0,
            };
            match required {
                Req::X => vec![free("x_from_y", Req::Y)],
                // the first minimum is the way back to X
                Req::Y => vec![free("y_from_x", Req::X), free("y_from_z", Req::Z)],
                Req::Z => vec![],
            }
        }
    }

    #[test]
    fn zero_cost_cycle_still_yields_a_cheapest_plan() {
        let mut memo = Memo::new(Free);
        let root = memo.insert_root(NewExpr::Op(Leaf, vec![]));
        let mut stats = SearchStats::default();
        let best = optimize(&memo, root, Req::X, &mut stats).expect("plan");
        assert_eq!(best.cost, 1.0);
        assert_eq!(stats.cycles_pruned, 1);
        assert_eq!(best.plan.algo, "x_from_y");
        assert_eq!(best.plan.children[0].algo, "y_from_z");
        assert_eq!(best.plan.children[0].children[0].algo, "leaf");
    }
}
