//! Linear expressions over parameter atoms.
//!
//! A [`LinExpr`] is an integer-valued affine combination of [`Term`]s: a
//! constant plus `coefficient * term` products. Terms are either parameter
//! variables or *applications* — opaque function symbols applied to linear
//! expressions. Applications model everything the linear fragment cannot
//! express directly: output parameters of components (`Max_O(A, B)`),
//! non-linear products, integer division and remainder, and the `log2` /
//! `exp2` built-ins.

use lilac_util::intern::Symbol;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Well-known interpreted function symbols used for [`Term::App`] atoms.
pub mod funcs {
    /// Non-linear multiplication: `mul(a, b) = a * b`.
    pub const MUL: &str = "$mul";
    /// Integer division: `div(a, b) = a / b` (truncating).
    pub const DIV: &str = "$div";
    /// Remainder: `mod(a, b) = a % b`.
    pub const MOD: &str = "$mod";
    /// Ceiling base-2 logarithm.
    pub const LOG2: &str = "$log2";
    /// Power of two.
    pub const EXP2: &str = "$exp2";
}

/// An atom of a linear expression.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A parameter variable, identified by its (fully qualified) name.
    Var(Symbol),
    /// An application of a function symbol to argument expressions.
    ///
    /// Output parameters are encoded this way (§4.2): `Max[#A,#B]::#O`
    /// becomes `App { func: "Max::#O", args: [A, B] }`. The interpreted
    /// operators in [`funcs`] use the same representation.
    App {
        /// Function symbol.
        func: Symbol,
        /// Argument expressions.
        args: Vec<LinExpr>,
    },
}

impl Term {
    /// Creates a variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::intern(name))
    }

    /// Creates an application term.
    pub fn app(func: &str, args: Vec<LinExpr>) -> Term {
        Term::App { func: Symbol::intern(func), args }
    }

    /// Returns true if this term is an application of `func`.
    pub fn is_app_of(&self, func: &str) -> bool {
        matches!(self, Term::App { func: f, .. } if f.as_str() == func)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::App { func, args } => {
                let args = args
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(f, "{func}({args})")
            }
        }
    }
}

/// An affine expression `constant + Σ coeff·term` with integer coefficients.
///
/// `LinExpr` is the lingua franca of the solver: availability interval
/// bounds, schedules, delays, and constraint sides are all lowered to this
/// form. Construction automatically merges like terms and drops zero
/// coefficients, so two expressions are structurally equal exactly when they
/// are syntactically identical affine forms.
///
/// The terms are a flat vector sorted by [`Term`]. The derived `Ord`, `Eq`
/// and `Hash` therefore agree with those of `(constant, BTreeMap<Term, i64>)`
/// — same order, same equality, same hash byte stream — which fact sorting,
/// cache keys and the persisted cache image rely on.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LinExpr {
    /// Constant offset. Must stay the first field (see above).
    constant: i64,
    /// `(term, coefficient)` pairs: strictly sorted by term, no zero
    /// coefficients.
    terms: Vec<(Term, i64)>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(value: i64) -> LinExpr {
        LinExpr { constant: value, terms: Vec::new() }
    }

    /// A single variable with coefficient one.
    pub fn var(name: &str) -> LinExpr {
        LinExpr::from_term(Term::var(name), 1)
    }

    /// A single term with the given coefficient.
    pub fn from_term(term: Term, coeff: i64) -> LinExpr {
        let terms = if coeff == 0 { Vec::new() } else { vec![(term, coeff)] };
        LinExpr { constant: 0, terms }
    }

    /// The constant offset.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Iterates over `(term, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&Term, i64)> {
        self.terms.iter().map(|(t, c)| (t, *c))
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Returns the constant value if the expression has no terms.
    pub fn as_constant(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Returns `Some(term)` if the expression is exactly `1·term + 0`.
    pub fn as_single_term(&self) -> Option<&Term> {
        match self.terms.as_slice() {
            [(t, 1)] if self.constant == 0 => Some(t),
            _ => None,
        }
    }

    /// Adds `coeff * term` to the expression.
    pub fn add_term(&mut self, term: Term, coeff: i64) {
        if coeff == 0 {
            return;
        }
        match self.terms.binary_search_by(|(t, _)| t.cmp(&term)) {
            Ok(i) => {
                self.terms[i].1 += coeff;
                if self.terms[i].1 == 0 {
                    // Remove cancelled terms to keep structural equality meaningful.
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (term, coeff)),
        }
    }

    /// Multiplies the whole expression by a scalar.
    pub fn scaled(&self, factor: i64) -> LinExpr {
        if factor == 0 {
            return LinExpr::zero();
        }
        LinExpr {
            constant: self.constant * factor,
            terms: self.terms.iter().map(|(t, c)| (t.clone(), c * factor)).collect(),
        }
    }

    /// Multiplies two expressions, staying linear when either side is a
    /// constant and falling back to an opaque [`funcs::MUL`] application
    /// otherwise.
    pub fn multiply(&self, other: &LinExpr) -> LinExpr {
        if let Some(c) = self.as_constant() {
            return other.scaled(c);
        }
        if let Some(c) = other.as_constant() {
            return self.scaled(c);
        }
        LinExpr::from_term(Term::app(funcs::MUL, vec![self.clone(), other.clone()]), 1)
    }

    /// Integer division, constant-folded when both sides are constants and
    /// the divisor is non-zero; otherwise an opaque [`funcs::DIV`] atom.
    pub fn divide(&self, other: &LinExpr) -> LinExpr {
        if let (Some(a), Some(b)) = (self.as_constant(), other.as_constant()) {
            if b != 0 {
                return LinExpr::constant(a / b);
            }
        }
        LinExpr::from_term(Term::app(funcs::DIV, vec![self.clone(), other.clone()]), 1)
    }

    /// Remainder, constant-folded when possible; otherwise an opaque
    /// [`funcs::MOD`] atom.
    pub fn modulo(&self, other: &LinExpr) -> LinExpr {
        if let (Some(a), Some(b)) = (self.as_constant(), other.as_constant()) {
            if b != 0 {
                return LinExpr::constant(a % b);
            }
        }
        LinExpr::from_term(Term::app(funcs::MOD, vec![self.clone(), other.clone()]), 1)
    }

    /// Ceiling base-2 logarithm, constant-folded for positive constants.
    pub fn log2(&self) -> LinExpr {
        if let Some(a) = self.as_constant() {
            if a > 0 {
                return LinExpr::constant(ceil_log2(a as u64) as i64);
            }
        }
        LinExpr::from_term(Term::app(funcs::LOG2, vec![self.clone()]), 1)
    }

    /// Power of two, constant-folded for small non-negative constants.
    pub fn exp2(&self) -> LinExpr {
        if let Some(a) = self.as_constant() {
            if (0..=62).contains(&a) {
                return LinExpr::constant(1i64 << a);
            }
        }
        LinExpr::from_term(Term::app(funcs::EXP2, vec![self.clone()]), 1)
    }

    /// Visits every term appearing in the expression by reference, including
    /// terms nested inside application arguments — the allocation-free
    /// counterpart of [`LinExpr::collect_terms`].
    pub fn for_each_term<'a>(&'a self, f: &mut impl FnMut(&'a Term)) {
        for (t, _) in self.terms.iter() {
            f(t);
            if let Term::App { args, .. } = t {
                for a in args {
                    a.for_each_term(f);
                }
            }
        }
    }

    /// Collects every term appearing in the expression, including terms
    /// nested inside application arguments.
    pub fn collect_terms(&self, out: &mut Vec<Term>) {
        for (t, _) in self.terms.iter() {
            out.push(t.clone());
            if let Term::App { args, .. } = t {
                for a in args {
                    a.collect_terms(out);
                }
            }
        }
    }

    /// Substitutes `replacement` for every occurrence of `target` (including
    /// occurrences nested in application arguments) and returns the result.
    pub fn substitute(&self, target: &Term, replacement: &LinExpr) -> LinExpr {
        let mut out = LinExpr::constant(self.constant);
        for (t, c) in self.terms() {
            if t == target {
                out = out + replacement.scaled(c);
                continue;
            }
            let new_term = match t {
                Term::Var(_) => t.clone(),
                Term::App { func, args } => Term::App {
                    func: *func,
                    args: args.iter().map(|a| a.substitute(target, replacement)).collect(),
                },
            };
            if &new_term == target {
                out = out + replacement.scaled(c);
            } else {
                out.add_term(new_term, c);
            }
        }
        out
    }
}

fn ceil_log2(v: u64) -> u32 {
    if v <= 1 {
        0
    } else {
        64 - (v - 1).leading_zeros()
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        let constant = self.constant + rhs.constant;
        if rhs.terms.is_empty() {
            return LinExpr { constant, terms: self.terms };
        }
        if self.terms.is_empty() {
            return LinExpr { constant, terms: rhs.terms };
        }
        // One-pass merge of the two sorted term lists.
        let mut terms = Vec::with_capacity(self.terms.len() + rhs.terms.len());
        let mut left = self.terms.into_iter().peekable();
        let mut right = rhs.terms.into_iter().peekable();
        while let (Some((a, _)), Some((b, _))) = (left.peek(), right.peek()) {
            match a.cmp(b) {
                Ordering::Less => terms.push(left.next().expect("peeked")),
                Ordering::Greater => terms.push(right.next().expect("peeked")),
                Ordering::Equal => {
                    let (t, x) = left.next().expect("peeked");
                    let (_, y) = right.next().expect("peeked");
                    if x + y != 0 {
                        terms.push((t, x + y));
                    }
                }
            }
        }
        terms.extend(left);
        terms.extend(right);
        LinExpr { constant, terms }
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + rhs.neg()
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scaled(-1)
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(self, rhs: i64) -> LinExpr {
        self.scaled(rhs)
    }
}

impl From<i64> for LinExpr {
    fn from(v: i64) -> Self {
        LinExpr::constant(v)
    }
}

impl From<u64> for LinExpr {
    fn from(v: u64) -> Self {
        LinExpr::constant(v as i64)
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (t, c) in self.terms.iter() {
            if first {
                match *c {
                    1 => write!(f, "{t}")?,
                    -1 => write!(f, "-{t}")?,
                    c => write!(f, "{c}*{t}")?,
                }
                first = false;
            } else if *c < 0 {
                if *c == -1 {
                    write!(f, " - {t}")?;
                } else {
                    write!(f, " - {}*{t}", -c)?;
                }
            } else if *c == 1 {
                write!(f, " + {t}")?;
            } else {
                write!(f, " + {c}*{t}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn arithmetic_normalizes() {
        let a = LinExpr::var("A");
        let b = LinExpr::var("B");
        let e = a.clone() + b.clone() + LinExpr::constant(3) - a.clone();
        assert_eq!(e, b.clone() + LinExpr::constant(3));
        let z = a.clone() - a.clone();
        assert_eq!(z, LinExpr::zero());
        assert_eq!(z.as_constant(), Some(0));
    }

    #[test]
    fn scaling_and_single_term() {
        let a = LinExpr::var("A");
        assert_eq!(a.scaled(0), LinExpr::zero());
        assert!(a.as_single_term().is_some());
        assert!((a.clone() * 2).as_single_term().is_none());
        assert!((a + LinExpr::constant(1)).as_single_term().is_none());
    }

    #[test]
    fn multiplication_linear_and_opaque() {
        let a = LinExpr::var("A");
        let two = LinExpr::constant(2);
        assert_eq!(a.multiply(&two), a.scaled(2));
        assert_eq!(two.multiply(&a), a.scaled(2));
        let b = LinExpr::var("B");
        let nl = a.multiply(&b);
        assert_eq!(nl.term_count(), 1);
        assert!(nl.terms().next().unwrap().0.is_app_of(funcs::MUL));
    }

    #[test]
    fn constant_folding_div_mod_log() {
        assert_eq!(LinExpr::constant(17).divide(&LinExpr::constant(4)).as_constant(), Some(4));
        assert_eq!(LinExpr::constant(17).modulo(&LinExpr::constant(4)).as_constant(), Some(1));
        assert_eq!(LinExpr::constant(16).log2().as_constant(), Some(4));
        assert_eq!(LinExpr::constant(17).log2().as_constant(), Some(5));
        assert_eq!(LinExpr::constant(1).log2().as_constant(), Some(0));
        assert_eq!(LinExpr::constant(4).exp2().as_constant(), Some(16));
        // Division by zero stays symbolic rather than panicking.
        assert!(LinExpr::constant(1).divide(&LinExpr::constant(0)).as_constant().is_none());
    }

    #[test]
    fn substitution() {
        let l = Term::var("L");
        let e = LinExpr::from_term(l.clone(), 2) + LinExpr::var("G");
        let sub = e.substitute(&l, &LinExpr::constant(4));
        assert_eq!(sub, LinExpr::var("G") + LinExpr::constant(8));

        // Substitution reaches inside application arguments.
        let app = Term::app("Max::#O", vec![LinExpr::var("L"), LinExpr::var("M")]);
        let e2 = LinExpr::from_term(app, 1);
        let sub2 = e2.substitute(&Term::var("L"), &LinExpr::constant(3));
        let t = sub2.terms().next().unwrap().0.clone();
        match t {
            Term::App { args, .. } => assert_eq!(args[0].as_constant(), Some(3)),
            _ => panic!("expected app"),
        }
    }

    #[test]
    fn display_formats() {
        let e = LinExpr::var("A") - LinExpr::var("B").scaled(2) + LinExpr::constant(1);
        assert_eq!(e.to_string(), "A - 2*B + 1");
        assert_eq!(LinExpr::zero().to_string(), "0");
        assert_eq!(LinExpr::constant(-3).to_string(), "-3");
        let app = LinExpr::from_term(Term::app("Add::#L", vec![LinExpr::var("W")]), 1);
        assert_eq!(app.to_string(), "Add::#L(W)");
    }

    #[test]
    fn collect_terms_recurses() {
        let inner = LinExpr::var("A") + LinExpr::var("B");
        let app = LinExpr::from_term(Term::app("F", vec![inner]), 1);
        let mut ts = Vec::new();
        app.collect_terms(&mut ts);
        assert_eq!(ts.len(), 3);
    }

    /// Builds a random expression through the public constructors, with a
    /// small atom pool so that like terms merge and cancel often.
    fn random_expr(rng: &mut lilac_util::rng::Rng, depth: u32) -> LinExpr {
        let mut e = LinExpr::constant(rng.range_i64(-3, 3));
        for _ in 0..rng.index(6) {
            let t = random_term(rng, depth);
            let c = rng.range_i64(-2, 2);
            match rng.index(6) {
                0 => e.add_term(t, c),
                1 => e = e + LinExpr::from_term(t, c),
                2 => e = e - LinExpr::from_term(t, c),
                3 => e = e.scaled(rng.range_i64(-2, 2)) + LinExpr::from_term(t, c),
                4 => {
                    let replacement = random_expr(rng, depth.saturating_sub(1));
                    e = e.substitute(&t, &replacement);
                }
                _ => {
                    // Adding and removing a whole expression cancels every
                    // one of its terms.
                    let other = random_expr(rng, depth.saturating_sub(1));
                    let before = e.clone();
                    e = e + other.clone() - other;
                    assert_eq!(e, before);
                }
            }
        }
        e
    }

    fn random_term(rng: &mut lilac_util::rng::Rng, depth: u32) -> Term {
        if depth == 0 || rng.chance(2, 3) {
            Term::var(["A", "B", "C", "D"][rng.index(4)])
        } else {
            let args = (0..1 + rng.index(2)).map(|_| random_expr(rng, depth - 1)).collect();
            Term::app(["F", "G"][rng.index(2)], args)
        }
    }

    /// The representation `LinExpr` used to have: a constant and an ordered
    /// map from term to coefficient.
    fn as_map(e: &LinExpr) -> (i64, BTreeMap<Term, i64>) {
        (e.constant_part(), e.terms().map(|(t, c)| (t.clone(), c)).collect())
    }

    fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
        std::hash::BuildHasher::hash_one(&lilac_util::hash::FxBuildHasher::default(), value)
    }

    /// Terms strictly sorted, no zero coefficients, at every nesting level.
    fn assert_canonical(e: &LinExpr) {
        let terms: Vec<(&Term, i64)> = e.terms().collect();
        assert!(terms.windows(2).all(|w| w[0].0 < w[1].0), "unsorted terms in {e}");
        for (t, c) in terms {
            assert_ne!(c, 0, "zero coefficient in {e}");
            if let Term::App { args, .. } = t {
                args.iter().for_each(assert_canonical);
            }
        }
    }

    #[test]
    fn flat_terms_order_and_hash_like_an_ordered_map() {
        let mut rng = lilac_util::rng::Rng::new(0x11ac);
        let exprs: Vec<LinExpr> = (0..300).map(|_| random_expr(&mut rng, 2)).collect();
        for a in &exprs {
            assert_canonical(a);
            assert_eq!(hash_of(a), hash_of(&as_map(a)), "hash differs for {a}");
        }
        let mut equal_pairs = 0;
        for a in &exprs {
            for b in &exprs {
                assert_eq!(a.cmp(b), as_map(a).cmp(&as_map(b)), "order differs: {a} vs {b}");
                assert_eq!(a == b, as_map(a) == as_map(b), "equality differs: {a} vs {b}");
                equal_pairs += usize::from(a == b);
            }
        }
        // Distinct generated expressions that compare equal exercise the
        // merge and cancellation paths, not only identity.
        assert!(equal_pairs > exprs.len(), "only {equal_pairs} equal pairs");
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }
}
