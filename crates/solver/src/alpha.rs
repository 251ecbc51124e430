//! Alpha-equivalence machinery for the query cache.
//!
//! The type checker uniquifies loop variables and event names per scope
//! (`#k$1`, `#k$7`, …), so structurally identical obligations from different
//! loops, instances, or components differ only by a renaming of symbols. A
//! cache keyed on exact predicates misses all of them. This module provides
//!
//! * [`query_hash`] — a hash of a `(facts, goal)` query that is invariant
//!   under injective renaming of symbols: each symbol hashes as its
//!   first-occurrence index over the walk, not as its name;
//! * `alpha_match` — a simultaneous structural walk of a query against a
//!   stored representative that either fails or produces the symbol
//!   bijection between them;
//! * `rename_model` / `rename_outcome` — transport of a representative's
//!   [`Outcome`] along that bijection, so a cached `Disproved` model is
//!   expressed in the querying obligation's own symbols.
//!
//! Interpreted function symbols (the `$`-prefixed operators of
//! [`crate::expr::funcs`]) carry semantics and are never renamed; everything
//! else — parameter variables and uninterpreted application symbols alike —
//! participates in the renaming.
//!
//! Soundness: satisfaction of a predicate under a model is defined purely
//! structurally, so an injective renaming is an isomorphism of the whole
//! query; a model of the representative maps to a model of the query. The
//! one caveat is resource caps (DNF cube, FM row, enumeration bounds):
//! verdicts *at the cap boundary* can depend on term order, which renaming
//! permutes. The caps are far above anything the checker generates, and the
//! A/B property tests pin the behaviour on randomized queries.

use crate::expr::{LinExpr, Term};
use crate::model::Model;
use crate::pred::Pred;
use crate::solve::Outcome;
use lilac_util::hash::{FxHashMap, FxHasher};
use lilac_util::intern::Symbol;
use std::hash::{Hash, Hasher};

/// True if a function symbol is interpreted (never renamed).
fn is_interpreted(sym: Symbol) -> bool {
    sym.as_str().starts_with('$')
}

// ---------------------------------------------------------------------------
// Renaming-invariant hashing
// ---------------------------------------------------------------------------

/// Assigns first-occurrence indices to symbols during a walk.
#[derive(Default)]
struct Indexer {
    ids: FxHashMap<Symbol, u32>,
}

impl Indexer {
    fn index(&mut self, sym: Symbol) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry(sym).or_insert(next)
    }
}

/// Hashes one predicate with fact-local first-occurrence symbol indexing.
/// Used to precompute a renaming-invariant hash per interned fact; combining
/// per-fact hashes loses cross-fact symbol correlations (slightly more hash
/// collisions), but `alpha_match` verifies candidates exactly, so this
/// only trades a rare extra walk for never re-hashing fact bodies.
///
/// The hash is independent of the interner: uninterpreted symbols hash as
/// first-occurrence indices and interpreted symbols hash by their spelled
/// name, never by interner id. Two processes interning symbols in different
/// orders therefore agree on every fact hash, which is what lets downstream
/// content-addressed caches key on these values directly.
pub fn fact_hash(pred: &Pred) -> u64 {
    let mut state = FxHasher::default();
    hash_pred(pred, &mut Indexer::default(), &mut state);
    state.finish()
}

/// Hashes a query from the goal and the facts' precomputed [`fact_hash`]es.
/// Fact hashes must be supplied in a deterministic order (the solver uses
/// fact-id order, which follows assumption order and therefore lines up
/// between structurally parallel scopes). Like [`fact_hash`], the result is
/// interner-independent.
pub fn query_hash(fact_hashes: impl Iterator<Item = u64>, goal: &Pred) -> u64 {
    let mut state = FxHasher::default();
    hash_pred(goal, &mut Indexer::default(), &mut state);
    for h in fact_hashes {
        h.hash(&mut state);
    }
    state.finish()
}

fn hash_pred<H: Hasher>(pred: &Pred, idx: &mut Indexer, state: &mut H) {
    match pred {
        Pred::True => 0u8.hash(state),
        Pred::False => 1u8.hash(state),
        Pred::Le(e) => {
            2u8.hash(state);
            hash_expr(e, idx, state);
        }
        Pred::Eq(e) => {
            3u8.hash(state);
            hash_expr(e, idx, state);
        }
        Pred::Not(p) => {
            4u8.hash(state);
            hash_pred(p, idx, state);
        }
        Pred::And(ps) => {
            5u8.hash(state);
            ps.len().hash(state);
            for p in ps {
                hash_pred(p, idx, state);
            }
        }
        Pred::Or(ps) => {
            6u8.hash(state);
            ps.len().hash(state);
            for p in ps {
                hash_pred(p, idx, state);
            }
        }
    }
}

fn hash_expr<H: Hasher>(e: &LinExpr, idx: &mut Indexer, state: &mut H) {
    e.constant_part().hash(state);
    e.term_count().hash(state);
    for (term, coeff) in e.terms() {
        coeff.hash(state);
        hash_term(term, idx, state);
    }
}

fn hash_term<H: Hasher>(t: &Term, idx: &mut Indexer, state: &mut H) {
    match t {
        Term::Var(v) => {
            0u8.hash(state);
            idx.index(*v).hash(state);
        }
        Term::App { func, args } => {
            1u8.hash(state);
            if is_interpreted(*func) {
                // By name, not by interner id: keeps the hash stable across
                // processes that interned symbols in different orders.
                func.as_str().hash(state);
            } else {
                idx.index(*func).hash(state);
            }
            args.len().hash(state);
            for a in args {
                hash_expr(a, idx, state);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Alpha-equivalence matching
// ---------------------------------------------------------------------------

/// A bijection between representative symbols and query symbols, built
/// incrementally during the matching walk.
#[derive(Default)]
pub(crate) struct Bijection {
    forward: FxHashMap<Symbol, Symbol>,
    backward: FxHashMap<Symbol, Symbol>,
}

impl Bijection {
    fn bind(&mut self, rep: Symbol, query: Symbol) -> bool {
        match (self.forward.get(&rep), self.backward.get(&query)) {
            (None, None) => {
                self.forward.insert(rep, query);
                self.backward.insert(query, rep);
                true
            }
            (Some(&q), Some(&r)) => q == query && r == rep,
            _ => false,
        }
    }

    fn image(&self, rep: Symbol) -> Option<Symbol> {
        self.forward.get(&rep).copied()
    }
}

/// Attempts to match a query `(facts, goal)` against a stored representative
/// pairwise in order; returns the symbol bijection on success. The iterators
/// must yield the same number of facts.
pub(crate) fn alpha_match<'a>(
    rep_facts: impl Iterator<Item = &'a Pred>,
    rep_goal: &Pred,
    query_facts: impl Iterator<Item = &'a Pred>,
    query_goal: &Pred,
) -> Option<Bijection> {
    let mut map = Bijection::default();
    if !match_pred(rep_goal, query_goal, &mut map) {
        return None;
    }
    let mut rep_facts = rep_facts;
    let mut query_facts = query_facts;
    loop {
        match (rep_facts.next(), query_facts.next()) {
            (None, None) => return Some(map),
            (Some(r), Some(q)) => {
                if !match_pred(r, q, &mut map) {
                    return None;
                }
            }
            _ => return None,
        }
    }
}

fn match_pred(rep: &Pred, query: &Pred, map: &mut Bijection) -> bool {
    match (rep, query) {
        (Pred::True, Pred::True) | (Pred::False, Pred::False) => true,
        (Pred::Le(a), Pred::Le(b)) | (Pred::Eq(a), Pred::Eq(b)) => match_expr(a, b, map),
        (Pred::Not(a), Pred::Not(b)) => match_pred(a, b, map),
        (Pred::And(xs), Pred::And(ys)) | (Pred::Or(xs), Pred::Or(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| match_pred(x, y, map))
        }
        _ => false,
    }
}

fn match_expr(rep: &LinExpr, query: &LinExpr, map: &mut Bijection) -> bool {
    if rep.constant_part() != query.constant_part() || rep.term_count() != query.term_count() {
        return false;
    }
    rep.terms().zip(query.terms()).all(|((rt, rc), (qt, qc))| rc == qc && match_term(rt, qt, map))
}

fn match_term(rep: &Term, query: &Term, map: &mut Bijection) -> bool {
    match (rep, query) {
        (Term::Var(r), Term::Var(q)) => map.bind(*r, *q),
        (Term::App { func: rf, args: ra }, Term::App { func: qf, args: qa }) => {
            let func_ok = match (is_interpreted(*rf), is_interpreted(*qf)) {
                (true, true) => rf == qf,
                (false, false) => map.bind(*rf, *qf),
                _ => false,
            };
            func_ok && ra.len() == qa.len() && ra.iter().zip(qa).all(|(a, b)| match_expr(a, b, map))
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Outcome transport
// ---------------------------------------------------------------------------

/// Rewrites a model's terms from representative symbols to query symbols.
/// Returns `None` if some symbol has no image (callers then treat the lookup
/// as a miss instead of risking a wrong counterexample).
pub(crate) fn rename_model(model: &Model, map: &Bijection) -> Option<Model> {
    let mut out = Model::new();
    for (term, value) in model.iter() {
        out.assign(rename_term(term, map)?, value);
    }
    Some(out)
}

fn rename_term(t: &Term, map: &Bijection) -> Option<Term> {
    Some(match t {
        Term::Var(v) => Term::Var(map.image(*v)?),
        Term::App { func, args } => {
            let func = if is_interpreted(*func) { *func } else { map.image(*func)? };
            let args: Option<Vec<LinExpr>> = args.iter().map(|a| rename_expr(a, map)).collect();
            Term::App { func, args: args? }
        }
    })
}

fn rename_expr(e: &LinExpr, map: &Bijection) -> Option<LinExpr> {
    let mut out = LinExpr::constant(e.constant_part());
    for (term, coeff) in e.terms() {
        out.add_term(rename_term(term, map)?, coeff);
    }
    Some(out)
}

/// Transports an outcome along the bijection. `Proved`/`Unknown` are
/// symbol-free; `Disproved` carries its model through [`rename_model`].
pub(crate) fn rename_outcome(outcome: &Outcome, map: &Bijection) -> Option<Outcome> {
    Some(match outcome {
        Outcome::Proved => Outcome::Proved,
        Outcome::Unknown => Outcome::Unknown,
        Outcome::Disproved(model) => Outcome::Disproved(rename_model(model, map)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(facts: &[Pred], goal: &Pred) -> u64 {
        query_hash(facts.iter().map(fact_hash), goal)
    }

    #[test]
    fn renamed_queries_hash_equal_and_match() {
        let f_a = vec![Pred::ge(LinExpr::var("A"), LinExpr::constant(1))];
        let g_a = Pred::ge(LinExpr::var("A"), LinExpr::constant(0));
        let f_b = vec![Pred::ge(LinExpr::var("ZZ"), LinExpr::constant(1))];
        let g_b = Pred::ge(LinExpr::var("ZZ"), LinExpr::constant(0));
        assert_eq!(h(&f_a, &g_a), h(&f_b, &g_b));
        let map = alpha_match(f_a.iter(), &g_a, f_b.iter(), &g_b).expect("alpha-equivalent");
        assert_eq!(map.image(Symbol::intern("A")), Some(Symbol::intern("ZZ")));
    }

    #[test]
    fn fact_hash_ignores_interning_order() {
        // The same fact over two sets of names: the first interned before the
        // interpreted function symbol, the second after it and in reverse
        // order. Only the structure and the function's spelling are hashed.
        let fact = |a: &str, b: &str| {
            let app = Term::app("$fh_order_max", vec![LinExpr::var(a), LinExpr::var(b)]);
            Pred::ge(LinExpr::from_term(app, 1) - LinExpr::var(a), LinExpr::constant(0))
        };
        let early = fact("fh_order_a1", "fh_order_b1");
        Symbol::intern("fh_order_b2");
        let late = fact("fh_order_a2", "fh_order_b2");
        let [a1, f, b2, a2] =
            ["fh_order_a1", "$fh_order_max", "fh_order_b2", "fh_order_a2"].map(Symbol::intern);
        assert!(a1 < f && f < b2 && b2 < a2);
        assert_eq!(fact_hash(&early), fact_hash(&late));
        assert_ne!(
            fact_hash(&early),
            fact_hash(&Pred::ge(LinExpr::var("fh_order_a1"), LinExpr::constant(0)))
        );
    }

    #[test]
    fn different_structure_does_not_match() {
        let f = [Pred::ge(LinExpr::var("A"), LinExpr::constant(1))];
        let g1 = Pred::ge(LinExpr::var("A"), LinExpr::constant(0));
        let g2 = Pred::ge(LinExpr::var("B"), LinExpr::constant(0));
        // Same shape but breaks the bijection consistency: goal var must be
        // the fact var in one and not the other.
        assert!(alpha_match(f.iter(), &g1, f.iter(), &g2).is_none());
        // Different constants are structurally different.
        let g3 = Pred::ge(LinExpr::var("A"), LinExpr::constant(7));
        assert!(alpha_match(f.iter(), &g1, f.iter(), &g3).is_none());
    }

    #[test]
    fn interpreted_functions_are_not_renamed() {
        let mul_a = LinExpr::var("A").multiply(&LinExpr::var("B"));
        let mul_b = LinExpr::var("X").multiply(&LinExpr::var("Y"));
        let g_a = Pred::ge(mul_a, LinExpr::zero());
        let g_b = Pred::ge(mul_b, LinExpr::zero());
        // $mul matches $mul under renamed arguments.
        assert!(alpha_match([].iter(), &g_a, [].iter(), &g_b).is_some());
        // But an uninterpreted app does not match an interpreted one.
        let app =
            LinExpr::from_term(Term::app("Max::#O", vec![LinExpr::var("X"), LinExpr::var("Y")]), 1);
        let g_c = Pred::ge(app, LinExpr::zero());
        assert!(alpha_match([].iter(), &g_a, [].iter(), &g_c).is_none());
    }

    #[test]
    fn models_transport_through_the_bijection() {
        let f_a = [Pred::ge(LinExpr::var("A"), LinExpr::constant(1))];
        let g_a = Pred::ge(LinExpr::var("A"), LinExpr::constant(5));
        let f_b = [Pred::ge(LinExpr::var("Q"), LinExpr::constant(1))];
        let g_b = Pred::ge(LinExpr::var("Q"), LinExpr::constant(5));
        let map = alpha_match(f_a.iter(), &g_a, f_b.iter(), &g_b).unwrap();
        let mut model = Model::new();
        model.assign(Term::var("A"), 3);
        let renamed = rename_model(&model, &map).unwrap();
        assert_eq!(renamed.value(&Term::var("Q")), Some(3));
    }
}
