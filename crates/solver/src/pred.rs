//! Predicates over linear expressions.
//!
//! A [`Pred`] is the boolean layer above [`LinExpr`]:
//! comparisons combined with conjunction, disjunction, and negation. The
//! solver works on literals of the form `e <= 0` and `e == 0`, so this module
//! also provides negation-normal-form and disjunctive-normal-form
//! conversions.

use crate::expr::{LinExpr, Term};
use crate::model::Model;
use std::fmt;

/// A boolean predicate over linear expressions.
///
/// The `Ord` derive gives predicates an arbitrary-but-stable total order; the
/// solver sorts fact sets into that order to canonicalize its query-cache
/// keys, so structurally equal queries hit the cache regardless of the order
/// facts were assumed in.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Pred {
    /// The trivially true predicate.
    True,
    /// The trivially false predicate.
    False,
    /// `expr <= 0`.
    Le(LinExpr),
    /// `expr == 0`.
    Eq(LinExpr),
    /// Negation.
    Not(Box<Pred>),
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
}

impl Pred {
    /// `a <= b`.
    pub fn le(a: LinExpr, b: LinExpr) -> Pred {
        Pred::Le(a - b)
    }

    /// `a < b` (encoded as `a + 1 <= b` over the integers).
    pub fn lt(a: LinExpr, b: LinExpr) -> Pred {
        Pred::Le(a + LinExpr::constant(1) - b)
    }

    /// `a >= b`.
    pub fn ge(a: LinExpr, b: LinExpr) -> Pred {
        Pred::le(b, a)
    }

    /// `a > b`.
    pub fn gt(a: LinExpr, b: LinExpr) -> Pred {
        Pred::lt(b, a)
    }

    /// `a == b`.
    pub fn eq(a: LinExpr, b: LinExpr) -> Pred {
        Pred::Eq(a - b)
    }

    /// `a != b`.
    pub fn ne(a: LinExpr, b: LinExpr) -> Pred {
        Pred::Not(Box::new(Pred::eq(a, b)))
    }

    /// Conjunction of a list of predicates, flattening trivial cases.
    pub fn and(preds: impl IntoIterator<Item = Pred>) -> Pred {
        let mut out = Vec::new();
        for p in preds {
            match p {
                Pred::True => {}
                Pred::False => return Pred::False,
                Pred::And(ps) => out.extend(ps),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Pred::True,
            1 => out.pop().unwrap(),
            _ => Pred::And(out),
        }
    }

    /// Disjunction of a list of predicates, flattening trivial cases.
    pub fn or(preds: impl IntoIterator<Item = Pred>) -> Pred {
        let mut out = Vec::new();
        for p in preds {
            match p {
                Pred::False => {}
                Pred::True => return Pred::True,
                Pred::Or(ps) => out.extend(ps),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Pred::False,
            1 => out.pop().unwrap(),
            _ => Pred::Or(out),
        }
    }

    /// Logical negation (not simplified beyond the trivial cases).
    pub fn negate(self) -> Pred {
        match self {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Not(p) => *p,
            other => Pred::Not(Box::new(other)),
        }
    }

    /// Implication `self ⇒ consequent`.
    pub fn implies(self, consequent: Pred) -> Pred {
        Pred::or([self.negate(), consequent])
    }

    /// Converts to negation normal form: negations pushed to the literals.
    ///
    /// Negated literals are rewritten over the integers:
    /// `¬(e <= 0)` becomes `-e + 1 <= 0` (i.e. `e >= 1`) and `¬(e == 0)`
    /// becomes `e <= -1 ∨ e >= 1`.
    pub fn to_nnf(&self) -> Pred {
        self.nnf(false)
    }

    /// The negation normal form of `self`, or of `¬self` when `negate` is
    /// set (without building the negation first).
    fn nnf(&self, negate: bool) -> Pred {
        match (self, negate) {
            (Pred::True, false) | (Pred::False, true) => Pred::True,
            (Pred::True, true) | (Pred::False, false) => Pred::False,
            (Pred::Le(e), false) => Pred::Le(e.clone()),
            (Pred::Le(e), true) => Pred::Le(e.clone().neg_plus_one()),
            (Pred::Eq(e), false) => Pred::Eq(e.clone()),
            (Pred::Eq(e), true) => Pred::Or(vec![
                Pred::Le(e.clone() + LinExpr::constant(1)),
                Pred::Le(e.clone().scaled(-1) + LinExpr::constant(1)),
            ]),
            (Pred::Not(inner), n) => inner.nnf(!n),
            (Pred::And(ps), false) => Pred::and(ps.iter().map(|p| p.nnf(false))),
            (Pred::And(ps), true) => Pred::or(ps.iter().map(|p| p.nnf(true))),
            (Pred::Or(ps), false) => Pred::or(ps.iter().map(|p| p.nnf(false))),
            (Pred::Or(ps), true) => Pred::and(ps.iter().map(|p| p.nnf(true))),
        }
    }

    /// Converts to disjunctive normal form: a list of cubes, each a list of
    /// literal predicates ([`Pred::Le`] / [`Pred::Eq`]).
    ///
    /// Expansion is capped at `max_cubes`; `None` is returned if the formula
    /// would exceed the cap (callers then report an inconclusive result
    /// rather than looping forever).
    pub fn to_dnf(&self, max_cubes: usize) -> Option<Vec<Vec<Pred>>> {
        dnf(self.nnf(false), max_cubes)
    }

    /// The disjunctive normal form of `¬self`: the same cubes as
    /// `self.clone().negate().to_dnf(max_cubes)`, without the clone.
    pub(crate) fn negated_dnf(&self, max_cubes: usize) -> Option<Vec<Vec<Pred>>> {
        dnf(self.nnf(true), max_cubes)
    }

    /// Calls `f` on every atom (top-level and nested term) the predicate
    /// mentions, in walk order and with repeats, borrowed from the
    /// predicate.
    pub fn for_each_atom<'a>(&'a self, f: &mut impl FnMut(&'a Term)) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Le(e) | Pred::Eq(e) => e.for_each_term(f),
            Pred::Not(inner) => inner.for_each_atom(f),
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.for_each_atom(f);
                }
            }
        }
    }

    /// True for a literal that no assignment satisfies on its own: an
    /// atom-free `c <= 0` with `c > 0` or `c == 0` with `c != 0`.
    pub(crate) fn is_false_literal(&self) -> bool {
        match self {
            Pred::Le(e) => e.as_constant().is_some_and(|c| c > 0),
            Pred::Eq(e) => e.as_constant().is_some_and(|c| c != 0),
            _ => false,
        }
    }

    /// Evaluates the predicate under a model. Returns `None` if some term is
    /// not assigned by the model.
    pub fn eval(&self, model: &Model) -> Option<bool> {
        match self {
            Pred::True => Some(true),
            Pred::False => Some(false),
            Pred::Le(e) => Some(model.eval(e)? <= 0),
            Pred::Eq(e) => Some(model.eval(e)? == 0),
            Pred::Not(p) => p.eval(model).map(|b| !b),
            Pred::And(ps) => {
                for p in ps {
                    if !p.eval(model)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Pred::Or(ps) => {
                for p in ps {
                    if p.eval(model)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
        }
    }
}

/// The DNF of a formula in negation normal form, consuming it so literals
/// move into their cubes instead of being copied (see [`Pred::to_dnf`]).
fn dnf(p: Pred, max: usize) -> Option<Vec<Vec<Pred>>> {
    match p {
        Pred::True => Some(vec![vec![]]),
        Pred::False => Some(vec![]),
        Pred::Le(_) | Pred::Eq(_) => Some(vec![vec![p]]),
        Pred::Not(_) => unreachable!("dnf requires NNF input"),
        Pred::Or(ps) => {
            let mut out = Vec::new();
            for sub in ps {
                out.extend(dnf(sub, max)?);
                if out.len() > max {
                    return None;
                }
            }
            Some(out)
        }
        Pred::And(ps) => {
            // Literal conjuncts are common to every cube; collecting them
            // once and prepending at the end avoids re-cloning them through
            // every cross-product step (the conjunction of N literals would
            // otherwise cost O(N²) clones).
            let mut base: Vec<Pred> = Vec::new();
            let mut cubes: Vec<Vec<Pred>> = vec![vec![]];
            for sub in ps {
                match sub {
                    Pred::True => {}
                    Pred::False => return Some(vec![]),
                    Pred::Le(_) | Pred::Eq(_) => base.push(sub),
                    _ => {
                        let sub_cubes = dnf(sub, max)?;
                        let mut next = Vec::with_capacity(cubes.len() * sub_cubes.len().max(1));
                        for cube in &cubes {
                            for sc in &sub_cubes {
                                let mut merged = cube.clone();
                                merged.extend(sc.iter().cloned());
                                next.push(merged);
                                if next.len() > max {
                                    return None;
                                }
                            }
                        }
                        cubes = next;
                    }
                }
            }
            Some(
                cubes
                    .into_iter()
                    .map(|cube| {
                        let mut merged = Vec::with_capacity(base.len() + cube.len());
                        merged.extend(base.iter().cloned());
                        merged.extend(cube);
                        merged
                    })
                    .collect(),
            )
        }
    }
}

impl LinExpr {
    /// Helper used by NNF conversion: `-e + 1`.
    fn neg_plus_one(self) -> LinExpr {
        self.scaled(-1) + LinExpr::constant(1)
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Le(e) => write!(f, "{e} <= 0"),
            Pred::Eq(e) => write!(f, "{e} == 0"),
            Pred::Not(p) => write!(f, "!({p})"),
            Pred::And(ps) => {
                let s = ps
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" && ");
                write!(f, "({s})")
            }
            Pred::Or(ps) => {
                let s = ps
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" || ");
                write!(f, "({s})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_normalize() {
        assert_eq!(Pred::and([Pred::True, Pred::True]), Pred::True);
        assert_eq!(Pred::and([Pred::True, Pred::False]), Pred::False);
        assert_eq!(Pred::or([Pred::False, Pred::False]), Pred::False);
        assert_eq!(Pred::or([Pred::False, Pred::True]), Pred::True);
        let lit = Pred::le(LinExpr::var("A"), LinExpr::constant(3));
        assert_eq!(Pred::and([Pred::True, lit.clone()]), lit);
    }

    #[test]
    fn nnf_pushes_negation() {
        let p = Pred::Not(Box::new(Pred::and([
            Pred::le(LinExpr::var("A"), LinExpr::constant(3)),
            Pred::eq(LinExpr::var("B"), LinExpr::constant(0)),
        ])));
        let nnf = p.to_nnf();
        // ¬(A <= 3 && B == 0)  ==>  A >= 4 || B <= -1 || B >= 1
        // (the disequality expands to two literals, and `or` flattens).
        match nnf {
            Pred::Or(ps) => assert_eq!(ps.len(), 3),
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn dnf_expansion_and_cap() {
        let a = Pred::or([
            Pred::le(LinExpr::var("A"), LinExpr::zero()),
            Pred::le(LinExpr::var("B"), LinExpr::zero()),
        ]);
        let b = Pred::or([
            Pred::le(LinExpr::var("C"), LinExpr::zero()),
            Pred::le(LinExpr::var("D"), LinExpr::zero()),
        ]);
        let conj = Pred::and([a, b]);
        let dnf = conj.to_dnf(64).unwrap();
        assert_eq!(dnf.len(), 4);
        assert!(dnf.iter().all(|cube| cube.len() == 2));
        assert!(conj.to_dnf(2).is_none());
    }

    #[test]
    fn eval_under_model() {
        let mut m = Model::new();
        m.assign(Term::var("A"), 5);
        m.assign(Term::var("B"), 2);
        let p = Pred::and([
            Pred::gt(LinExpr::var("A"), LinExpr::var("B")),
            Pred::ne(LinExpr::var("A"), LinExpr::constant(0)),
        ]);
        assert_eq!(p.eval(&m), Some(true));
        let q = Pred::lt(LinExpr::var("A"), LinExpr::var("B"));
        assert_eq!(q.eval(&m), Some(false));
        let r = Pred::eq(LinExpr::var("C"), LinExpr::constant(0));
        assert_eq!(r.eval(&m), None);
    }

    #[test]
    fn implication() {
        let p = Pred::ge(LinExpr::var("L"), LinExpr::constant(1));
        let q = Pred::ge(LinExpr::var("L"), LinExpr::constant(0));
        let imp = p.implies(q);
        assert!(matches!(imp, Pred::Or(_)));
    }

    #[test]
    fn display() {
        let p = Pred::le(LinExpr::var("A"), LinExpr::constant(3));
        assert_eq!(p.to_string(), "A - 3 <= 0");
    }
}
