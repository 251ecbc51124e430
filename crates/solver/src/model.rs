//! Models: concrete integer assignments to terms.
//!
//! When the solver refutes an obligation it produces a [`Model`] — the
//! concrete parameterization that would introduce a structural hazard. The
//! type checker turns this into the "counterexample" notes attached to its
//! diagnostics, mirroring §4.2 of the paper ("we can use this assignment to
//! construct a counterexample demonstrating to the user that a set of
//! concrete parameter values will create a bug").

use crate::expr::{funcs, LinExpr, Term};
use std::collections::BTreeMap;
use std::fmt;

/// A finite map from terms to integer values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    values: BTreeMap<Term, i64>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Model {
        Model::default()
    }

    /// Assigns a value to a term (overwriting any previous value).
    pub fn assign(&mut self, term: Term, value: i64) {
        self.values.insert(term, value);
    }

    /// Looks up the value assigned to a term.
    pub fn value(&self, term: &Term) -> Option<i64> {
        self.values.get(term).copied()
    }

    /// Iterates over `(term, value)` pairs in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Term, i64)> {
        self.values.iter().map(|(t, &v)| (t, v))
    }

    /// Number of assigned terms.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if no terms are assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Evaluates a linear expression under this model.
    ///
    /// Applications of the interpreted functions (`$mul`, `$div`, `$mod`,
    /// `$log2`, `$exp2`) are computed from their evaluated arguments;
    /// uninterpreted applications and variables must be assigned directly.
    /// Returns `None` if any needed term is unassigned, a division by zero
    /// occurs, or a result overflows an `i64` (such a value is undefined,
    /// not wrapped).
    pub fn eval(&self, expr: &LinExpr) -> Option<i64> {
        let mut total = expr.constant_part();
        for (term, coeff) in expr.terms() {
            total = total.checked_add(coeff.checked_mul(self.eval_term(term)?)?)?;
        }
        Some(total)
    }

    /// Evaluates a single term under this model.
    pub fn eval_term(&self, term: &Term) -> Option<i64> {
        if let Some(v) = self.values.get(term) {
            return Some(*v);
        }
        if let Term::App { func, args } = term {
            let vals: Option<Vec<i64>> = args.iter().map(|a| self.eval(a)).collect();
            let vals = vals?;
            return match func.as_str() {
                funcs::MUL if vals.len() == 2 => vals[0].checked_mul(vals[1]),
                funcs::DIV if vals.len() == 2 => vals[0].checked_div(vals[1]),
                funcs::MOD if vals.len() == 2 => vals[0].checked_rem(vals[1]),
                funcs::LOG2 if vals.len() == 1 && vals[0] > 0 => {
                    let v = vals[0] as u64;
                    Some(if v <= 1 { 0 } else { (64 - (v - 1).leading_zeros()) as i64 })
                }
                funcs::EXP2 if vals.len() == 1 && (0..=62).contains(&vals[0]) => {
                    Some(1i64 << vals[0])
                }
                _ => None,
            };
        }
        None
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.values.iter().map(|(t, v)| format!("{t} = {v}")).collect();
        write!(f, "{}", parts.join(", "))
    }
}

impl FromIterator<(Term, i64)> for Model {
    fn from_iter<I: IntoIterator<Item = (Term, i64)>>(iter: I) -> Self {
        Model { values: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_eval() {
        let mut m = Model::new();
        m.assign(Term::var("A"), 4);
        m.assign(Term::var("B"), 2);
        let e = LinExpr::var("A").scaled(3) - LinExpr::var("B") + LinExpr::constant(1);
        assert_eq!(m.eval(&e), Some(11));
        assert_eq!(m.eval(&LinExpr::var("C")), None);
        assert!(!m.is_empty());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn interpreted_functions_evaluate() {
        let mut m = Model::new();
        m.assign(Term::var("A"), 12);
        m.assign(Term::var("B"), 5);
        let mul = LinExpr::var("A").multiply(&LinExpr::var("B"));
        assert_eq!(m.eval(&mul), Some(60));
        let div = LinExpr::var("A").divide(&LinExpr::var("B"));
        assert_eq!(m.eval(&div), Some(2));
        let md = LinExpr::var("A").modulo(&LinExpr::var("B"));
        assert_eq!(m.eval(&md), Some(2));
        let lg = LinExpr::var("A").log2();
        assert_eq!(m.eval(&lg), Some(4));
        let ex = LinExpr::var("B").exp2();
        assert_eq!(m.eval(&ex), Some(32));
    }

    #[test]
    fn uninterpreted_needs_assignment() {
        let mut m = Model::new();
        m.assign(Term::var("A"), 1);
        let app = Term::app("Max::#O", vec![LinExpr::var("A"), LinExpr::constant(2)]);
        let e = LinExpr::from_term(app.clone(), 1);
        assert_eq!(m.eval(&e), None);
        m.assign(app, 2);
        assert_eq!(m.eval(&e), Some(2));
    }

    #[test]
    fn division_by_zero_is_none() {
        let mut m = Model::new();
        m.assign(Term::var("A"), 1);
        m.assign(Term::var("B"), 0);
        let div = LinExpr::var("A").divide(&LinExpr::var("B"));
        assert_eq!(m.eval(&div), None);
    }

    #[test]
    fn display_is_stable() {
        let m: Model = [(Term::var("B"), 2), (Term::var("A"), 1)].into_iter().collect();
        assert_eq!(m.to_string(), "A = 1, B = 2");
    }
}
