//! Relevance slicing: restricting a query to the facts that can influence it.
//!
//! A `prove` query conjoins *every* assumed fact with the negated goal before
//! DNF expansion, so facts about unrelated parameters multiply cubes (each
//! disjunctive fact doubles the cube count) and widen every Fourier–Motzkin
//! elimination for nothing. The slicer computes the transitive closure of the
//! goal's atoms through the fact set and keeps only the facts connected to
//! it.
//!
//! Soundness and completeness of the split rest on a separability argument:
//! facts are grouped at *fact* granularity (every atom a fact mentions is
//! connected to every other atom it mentions), so the relevant set `S` and
//! the residual `R` share no atoms at all. A conjunction of atom-disjoint
//! formulas is satisfiable exactly when both halves are — models combine —
//! hence `S ∧ R ∧ ¬goal` is unsatisfiable iff `S ∧ ¬goal` is unsatisfiable
//! or `R` alone is. The solver therefore decides the sliced query first and
//! only falls back to a (cached) consistency check of the residual when the
//! sliced query fails to prove, which preserves the classical "inconsistent
//! assumptions prove anything" behaviour.
//!
//! Facts that mention no atoms at all (constant predicates such as a folded
//! `false`) are always kept: they are free to carry and may decide the query
//! by themselves.
//!
//! The solver interns atoms ([`Term`]s, including terms nested inside
//! application arguments) into dense `u32` ids, so the closure here runs on
//! integer sets — no term traversal or cloning on the per-query path.

use crate::expr::Term;
use crate::pred::Pred;
use std::collections::HashMap;

/// Every atom (top-level and nested term) a predicate mentions, sorted and
/// deduplicated, borrowed from the predicate. Used once per unique fact at
/// interning time, and once per query for the goal.
pub(crate) fn atoms_of(pred: &Pred) -> Vec<&Term> {
    let mut atoms = Vec::new();
    collect(pred, &mut atoms);
    atoms.sort_unstable();
    atoms.dedup();
    atoms
}

fn collect<'p>(pred: &'p Pred, out: &mut Vec<&'p Term>) {
    match pred {
        Pred::True | Pred::False => {}
        Pred::Le(e) | Pred::Eq(e) => e.for_each_term(&mut |t| out.push(t)),
        Pred::Not(inner) => collect(inner, out),
        Pred::And(ps) | Pred::Or(ps) => {
            for p in ps {
                collect(p, out);
            }
        }
    }
}

/// A reusable atom-id mark set: marking is an epoch stamp, clearing is an
/// epoch bump, so per-query use costs no allocation and no memset once the
/// backing vector has grown to the solver's atom universe.
#[derive(Clone, Debug, Default)]
pub(crate) struct EpochMask {
    stamps: Vec<u32>,
    epoch: u32,
}

impl EpochMask {
    /// Starts a fresh mark set covering ids `0..size`.
    pub(crate) fn begin(&mut self, size: usize) {
        if self.stamps.len() < size {
            self.stamps.resize(size, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    pub(crate) fn set(&mut self, id: u32) {
        self.stamps[id as usize] = self.epoch;
    }

    pub(crate) fn get(&self, id: u32) -> bool {
        self.stamps[id as usize] == self.epoch
    }
}

/// Partitions fact indices into (relevant, residual) with respect to the
/// goal's atom ids. `fact_atoms[i]` is fact `i`'s sorted atom-id set;
/// `atom_count` bounds the id space; `reachable` is the caller's scratch
/// mask (its previous contents are discarded).
pub(crate) fn partition(
    fact_atoms: &[&[u32]],
    goal_atoms: &[u32],
    atom_count: usize,
    reachable: &mut EpochMask,
) -> (Vec<usize>, Vec<usize>) {
    reachable.begin(atom_count);
    for &a in goal_atoms {
        reachable.set(a);
    }
    let mut relevant = vec![false; fact_atoms.len()];
    // Atom-free facts are always relevant; they seed nothing.
    for (i, atoms) in fact_atoms.iter().enumerate() {
        if atoms.is_empty() {
            relevant[i] = true;
        }
    }
    // Transitive closure: a fact touching any reachable atom makes all of its
    // atoms reachable. Iterate to fixpoint (each pass marks at least one new
    // fact or stops, so the loop runs at most `facts` times).
    loop {
        let mut changed = false;
        for (i, atoms) in fact_atoms.iter().enumerate() {
            if relevant[i] || atoms.is_empty() {
                continue;
            }
            if atoms.iter().any(|&a| reachable.get(a)) {
                relevant[i] = true;
                for &a in atoms.iter() {
                    reachable.set(a);
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut keep = Vec::new();
    let mut drop = Vec::new();
    for (i, flag) in relevant.iter().enumerate() {
        if *flag {
            keep.push(i);
        } else {
            drop.push(i);
        }
    }
    (keep, drop)
}

/// Groups fact indices into connected components (facts sharing any atom,
/// transitively). Atom-free facts each form their own singleton component.
/// Used to decompose consistency checks: a conjunction is unsatisfiable iff
/// some component is, and per-component results memoize far better than the
/// monolithic set.
pub(crate) fn components(fact_atoms: &[&[u32]], atom_count: usize) -> Vec<Vec<usize>> {
    // Union-find over atoms; each fact unions its atoms together.
    let mut parent: Vec<u32> = (0..atom_count as u32).collect();
    fn find(parent: &mut [u32], a: u32) -> u32 {
        let mut root = a;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cursor = a;
        while parent[cursor as usize] != root {
            let next = parent[cursor as usize];
            parent[cursor as usize] = root;
            cursor = next;
        }
        root
    }
    for atoms in fact_atoms {
        if let Some((&first, rest)) = atoms.split_first() {
            let root = find(&mut parent, first);
            for &a in rest {
                let other = find(&mut parent, a);
                parent[other as usize] = root;
            }
        }
    }
    // Bucket facts by their component root, preserving fact order inside
    // each bucket and ordering buckets by first appearance (deterministic).
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    let mut root_to_bucket: HashMap<u32, usize> = HashMap::new();
    for (i, atoms) in fact_atoms.iter().enumerate() {
        match atoms.first() {
            None => buckets.push(vec![i]),
            Some(&first) => {
                let root = find(&mut parent, first);
                match root_to_bucket.get(&root) {
                    Some(&b) => buckets[b].push(i),
                    None => {
                        root_to_bucket.insert(root, buckets.len());
                        buckets.push(vec![i]);
                    }
                }
            }
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;

    #[test]
    fn goal_atoms_include_nested_terms() {
        let app =
            LinExpr::from_term(Term::app("Max::#O", vec![LinExpr::var("A"), LinExpr::var("B")]), 1);
        let goal = Pred::ge(app, LinExpr::var("C"));
        let set = atoms_of(&goal);
        assert!(set.contains(&&Term::var("A")));
        assert!(set.contains(&&Term::var("B")));
        assert!(set.contains(&&Term::var("C")));
        assert_eq!(set.len(), 4); // plus the application itself
    }

    #[test]
    fn partition_follows_transitive_links() {
        // Atom ids: A=0, B=1, C=2, D=3. Goal on A; A linked to B by fact 0;
        // B linked to C by fact 1; D isolated in fact 2.
        let f0: &[u32] = &[0, 1];
        let f1: &[u32] = &[1, 2];
        let f2: &[u32] = &[3];
        let (keep, drop) = partition(&[f0, f1, f2], &[0], 4, &mut EpochMask::default());
        assert_eq!(keep, vec![0, 1]);
        assert_eq!(drop, vec![2]);
    }

    #[test]
    fn constant_facts_always_kept() {
        let f_const: &[u32] = &[];
        let f_iso: &[u32] = &[1];
        let (keep, drop) = partition(&[f_const, f_iso], &[0], 2, &mut EpochMask::default());
        assert_eq!(keep, vec![0]);
        assert_eq!(drop, vec![1]);
    }

    #[test]
    fn components_group_transitively() {
        // {A,B}, {B,C} merge; {D} separate; atom-free fact is a singleton.
        let f0: &[u32] = &[0, 1];
        let f1: &[u32] = &[1, 2];
        let f2: &[u32] = &[3];
        let f3: &[u32] = &[];
        let comps = components(&[f0, f1, f2, f3], 4);
        assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3]]);
    }
}
