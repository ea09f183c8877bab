//! The memo: equivalence classes (groups) of class elements (expressions).

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// An equivalence class identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub usize);

/// A class-element identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub usize);

/// A memoized expression: an operator over child groups.
#[derive(Debug, Clone)]
pub struct MExpr<O> {
    pub op: O,
    pub children: Vec<GroupId>,
    pub group: GroupId,
}

/// What an instantiation of the optimizer generator must provide.
pub trait Semantics: Sized {
    /// Logical operator payload.
    type Op: Clone + Eq + Hash + Debug;
    /// Logical properties of a group (schema, statistics, ...).
    type Props: Clone;
    /// Required physical properties (ordering, site, ...).
    type PhysProps: Clone + Eq + Hash + Debug;
    /// Physical algorithm instances appearing in final plans.
    type Algo: Clone + Debug;

    /// Derive logical properties of an operator from its children's.
    fn derive_props(&self, op: &Self::Op, children: &[&Self::Props]) -> Self::Props;

    /// Candidate physical implementations of `op` that *deliver*
    /// `required`. Implementations that cannot deliver the requirement
    /// must not be returned.
    fn implementations(
        &self,
        op: &Self::Op,
        child_props: &[&Self::Props],
        props: &Self::Props,
        required: &Self::PhysProps,
    ) -> Vec<crate::search::Implementation<Self>>;

    /// Property enforcers applicable when `required` cannot (or should not
    /// only) be delivered natively: each wraps a plan optimized for the
    /// enforcer's weaker `inner_required`. Enforcers may lead back to
    /// `required` through one another (TANGO's site transfers do). Costs
    /// must be non-negative, and every such cycle should cost more than
    /// zero for ties to break as documented in [`crate::search`].
    fn enforcers(
        &self,
        props: &Self::Props,
        required: &Self::PhysProps,
    ) -> Vec<crate::search::Enforcer<Self>>;
}

/// The paper distinguishes transformations that preserve list equality
/// (`≡_L` / `→_L`) from those that only preserve multiset equality
/// (`≡_M` / `→_M`). The engine records the kind for reporting and
/// verification; correctness of ordering is guaranteed separately by the
/// physical-property mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    List,
    Multiset,
}

/// A transformation rule. `apply` may inspect the whole memo (needed for
/// multi-level patterns like T7: `T^M(T^D(r)) → r`) and returns zero or
/// more equivalent expression trees for the group of `expr`.
pub trait Rule<S: Semantics> {
    fn name(&self) -> &'static str;
    fn kind(&self) -> RuleKind;
    fn apply(&self, memo: &Memo<S>, expr: ExprId) -> Vec<NewExpr<S::Op>>;
}

/// A tree of new operators over existing groups, produced by a rule.
#[derive(Debug, Clone)]
pub enum NewExpr<O> {
    Op(O, Vec<NewExpr<O>>),
    Group(GroupId),
}

struct Group<S: Semantics> {
    exprs: Vec<ExprId>,
    props: S::Props,
    /// Per-group dedup of (op, children).
    dedup: HashMap<(S::Op, Vec<GroupId>), ExprId>,
}

/// The memo structure.
pub struct Memo<S: Semantics> {
    sem: S,
    groups: Vec<Group<S>>,
    exprs: Vec<MExpr<S::Op>>,
    /// Global (op, children) -> group containing it, for subtree sharing.
    global: HashMap<(S::Op, Vec<GroupId>), GroupId>,
    rule_fires: Vec<(&'static str, usize)>,
    /// Hard cap on expression count (runaway-rule backstop).
    pub max_exprs: usize,
}

impl<S: Semantics> Memo<S> {
    pub fn new(sem: S) -> Self {
        Memo {
            sem,
            groups: Vec::new(),
            exprs: Vec::new(),
            global: HashMap::new(),
            rule_fires: Vec::new(),
            max_exprs: 200_000,
        }
    }

    pub fn semantics(&self) -> &S {
        &self.sem
    }

    /// Number of equivalence classes.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of class elements.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    pub fn expr(&self, id: ExprId) -> &MExpr<S::Op> {
        &self.exprs[id.0]
    }

    pub fn props(&self, g: GroupId) -> &S::Props {
        &self.groups[g.0].props
    }

    pub fn exprs_in(&self, g: GroupId) -> &[ExprId] {
        &self.groups[g.0].exprs
    }

    /// Per-rule successful application counts.
    pub fn rule_fires(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        let mut m: HashMap<&'static str, usize> = HashMap::new();
        for (n, c) in &self.rule_fires {
            *m.entry(n).or_default() += c;
        }
        m.into_iter()
    }

    /// Insert an initial expression tree, returning its (root) group.
    pub fn insert_root(&mut self, tree: NewExpr<S::Op>) -> GroupId {
        self.insert_tree(tree, None)
    }

    /// Insert a tree; if `target` is given, the root expression joins that
    /// group (rule results), otherwise it lands in the group of an
    /// identical existing expression or a fresh group.
    fn insert_tree(&mut self, tree: NewExpr<S::Op>, target: Option<GroupId>) -> GroupId {
        match tree {
            NewExpr::Group(g) => g,
            NewExpr::Op(op, kids) => {
                let child_groups: Vec<GroupId> =
                    kids.into_iter().map(|k| self.insert_tree(k, None)).collect();
                self.insert_expr(op, child_groups, target)
            }
        }
    }

    fn insert_expr(
        &mut self,
        op: S::Op,
        children: Vec<GroupId>,
        target: Option<GroupId>,
    ) -> GroupId {
        let key = (op.clone(), children.clone());
        let group = match target {
            Some(g) => g,
            None => {
                if let Some(&g) = self.global.get(&key) {
                    return g; // identical subtree already memoized
                }
                // fresh group with derived properties
                let child_props: Vec<&S::Props> =
                    children.iter().map(|&c| &self.groups[c.0].props).collect();
                let props = self.sem.derive_props(&op, &child_props);
                let g = GroupId(self.groups.len());
                self.groups.push(Group { exprs: Vec::new(), props, dedup: HashMap::new() });
                g
            }
        };
        if self.groups[group.0].dedup.contains_key(&key) {
            return group;
        }
        let id = ExprId(self.exprs.len());
        self.exprs.push(MExpr { op, children, group });
        self.groups[group.0].exprs.push(id);
        self.groups[group.0].dedup.insert(key.clone(), id);
        self.global.entry(key).or_insert(group);
        group
    }

    /// Exhaustively apply the transformation rules: every rule is applied
    /// once to every expression (including expressions the rules
    /// themselves produce), Volcano style, until a fixpoint or the
    /// expression cap.
    pub fn explore(&mut self, rules: &[Box<dyn Rule<S>>]) {
        let mut next = 0usize;
        while next < self.exprs.len() && self.exprs.len() < self.max_exprs {
            let expr_id = ExprId(next);
            next += 1;
            let group = self.exprs[next - 1].group;
            for rule in rules {
                let produced = rule.apply(self, expr_id);
                if !produced.is_empty() {
                    self.rule_fires.push((rule.name(), produced.len()));
                }
                for tree in produced {
                    self.insert_tree(tree, Some(group));
                    if self.exprs.len() >= self.max_exprs {
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Op {
        Leaf(u32),
        Chain,
    }

    struct Sem;

    impl Semantics for Sem {
        type Op = Op;
        type Props = usize; // depth
        type PhysProps = ();
        type Algo = ();

        fn derive_props(&self, op: &Op, children: &[&usize]) -> usize {
            match op {
                Op::Leaf(_) => 0,
                Op::Chain => children.iter().map(|d| **d).max().unwrap_or(0) + 1,
            }
        }

        fn implementations(
            &self,
            _: &Op,
            _: &[&usize],
            _: &usize,
            _: &(),
        ) -> Vec<crate::search::Implementation<Self>> {
            vec![]
        }

        fn enforcers(&self, _: &usize, _: &()) -> Vec<crate::search::Enforcer<Self>> {
            vec![]
        }
    }

    /// A rule that grows forever: the expression cap must stop it.
    struct Grower;

    impl Rule<Sem> for Grower {
        fn name(&self) -> &'static str {
            "grower"
        }

        fn kind(&self) -> RuleKind {
            RuleKind::Multiset
        }

        fn apply(&self, memo: &Memo<Sem>, expr: ExprId) -> Vec<NewExpr<Op>> {
            let e = memo.expr(expr);
            // wraps everything in ever-deeper chains of fresh leaves
            let tag = memo.expr_count() as u32;
            match e.op {
                Op::Leaf(_) | Op::Chain => {
                    vec![NewExpr::Op(Op::Chain, vec![NewExpr::Op(Op::Leaf(tag), vec![])])]
                }
            }
        }
    }

    #[test]
    fn runaway_rules_hit_the_cap() {
        let mut memo = Memo::new(Sem);
        memo.max_exprs = 500;
        memo.insert_root(NewExpr::Op(Op::Leaf(0), vec![]));
        memo.explore(&[Box::new(Grower) as Box<dyn Rule<Sem>>]);
        assert!(memo.expr_count() >= 500);
        assert!(memo.expr_count() < 520, "cap should stop growth promptly");
    }

    #[test]
    fn logical_props_derive_through_shared_subtrees() {
        let mut memo = Memo::new(Sem);
        let leaf = NewExpr::Op(Op::Leaf(1), vec![]);
        let g = memo.insert_root(NewExpr::Op(Op::Chain, vec![NewExpr::Op(Op::Chain, vec![leaf])]));
        assert_eq!(*memo.props(g), 2);
        // inserting the identical tree again changes nothing
        let leaf = NewExpr::Op(Op::Leaf(1), vec![]);
        let g2 = memo.insert_root(NewExpr::Op(Op::Chain, vec![NewExpr::Op(Op::Chain, vec![leaf])]));
        assert_eq!(g, g2);
        assert_eq!(memo.group_count(), 3);
        assert_eq!(memo.expr_count(), 3);
    }
}
