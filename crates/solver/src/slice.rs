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

use lilac_util::hash::FxHashMap;

/// A reusable atom-id mark set: marking is an epoch stamp, clearing is an
/// epoch bump, so per-query use costs no allocation and no memset once the
/// backing vector has grown to the solver's atom universe.
#[derive(Clone, Debug, Default)]
struct EpochMask {
    stamps: Vec<u32>,
    epoch: u32,
}

impl EpochMask {
    /// Starts a fresh mark set covering ids `0..size`.
    fn begin(&mut self, size: usize) {
        if self.stamps.len() < size {
            self.stamps.resize(size, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn set(&mut self, id: u32) {
        self.stamps[id as usize] = self.epoch;
    }

    fn get(&self, id: u32) -> bool {
        self.stamps[id as usize] == self.epoch
    }
}

/// The per-query slicing buffers, reused from one query to the next so a
/// query allocates nothing once they have grown to the solver's fact and
/// atom universe.
#[derive(Clone, Debug, Default)]
pub(crate) struct Slicer {
    /// Facts that mention a goal atom directly, plus the atom-free facts:
    /// the one-hop neighbourhood the solver tries first.
    pub(crate) tier1: Vec<u32>,
    /// Facts transitively connected to the goal, plus the atom-free facts.
    pub(crate) sliced: Vec<u32>,
    /// Every other fact: shares no atom with `sliced` or the goal.
    pub(crate) residual: Vec<u32>,
    /// `relevant[i]`: fact `chain[i]` belongs to `sliced`.
    relevant: Vec<bool>,
    reachable: EpochMask,
}

impl Slicer {
    /// Starts a query over atom ids `0..atom_count`: no goal atom marked.
    pub(crate) fn begin(&mut self, atom_count: usize) {
        self.reachable.begin(atom_count);
    }

    /// Marks atom `id` as one the goal mentions.
    pub(crate) fn mark_goal_atom(&mut self, id: u32) {
        self.reachable.set(id);
    }

    /// Splits `chain` (fact ids, order kept) into `tier1`, `sliced` and
    /// `residual` with respect to the goal atoms marked since
    /// [`Slicer::begin`]. `fact_atoms[id]` is fact `id`'s sorted atom-id
    /// set.
    pub(crate) fn split(&mut self, chain: &[u32], fact_atoms: &[Vec<u32>]) {
        let atoms_of = |id: u32| fact_atoms[id as usize].as_slice();
        let reachable = &mut self.reachable;
        // One-hop neighbourhood, read off before the closure below marks
        // more atoms.
        self.tier1.clear();
        self.tier1.extend(chain.iter().copied().filter(|&id| {
            let atoms = atoms_of(id);
            atoms.is_empty() || atoms.iter().any(|&a| reachable.get(a))
        }));
        // Atom-free facts are always relevant; they seed nothing.
        self.relevant.clear();
        self.relevant.extend(chain.iter().map(|&id| atoms_of(id).is_empty()));
        // Transitive closure: a fact touching any reachable atom makes all
        // of its atoms reachable. Iterate to fixpoint (each pass marks at
        // least one new fact or stops, so the loop runs at most `facts`
        // times).
        loop {
            let mut changed = false;
            for (i, &id) in chain.iter().enumerate() {
                let atoms = atoms_of(id);
                if self.relevant[i] || atoms.is_empty() {
                    continue;
                }
                if atoms.iter().any(|&a| reachable.get(a)) {
                    self.relevant[i] = true;
                    for &a in atoms {
                        reachable.set(a);
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.sliced.clear();
        self.residual.clear();
        for (&id, &relevant) in chain.iter().zip(&self.relevant) {
            if relevant {
                self.sliced.push(id);
            } else {
                self.residual.push(id);
            }
        }
    }
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
    let mut root_to_bucket: FxHashMap<u32, usize> = FxHashMap::default();
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
    use crate::expr::{LinExpr, Term};
    use crate::pred::Pred;

    #[test]
    fn goal_atoms_include_nested_terms() {
        let app =
            LinExpr::from_term(Term::app("Max::#O", vec![LinExpr::var("A"), LinExpr::var("B")]), 1);
        let goal = Pred::ge(app, LinExpr::var("C"));
        let mut set = Vec::new();
        goal.for_each_atom(&mut |t| set.push(t));
        set.sort_unstable();
        set.dedup();
        assert!(set.contains(&&Term::var("A")));
        assert!(set.contains(&&Term::var("B")));
        assert!(set.contains(&&Term::var("C")));
        assert_eq!(set.len(), 4); // plus the application itself
    }

    /// Splits facts `0..fact_atoms.len()` (fact id = index) for a goal on
    /// `goal_atoms`, returning (tier-1, sliced, residual).
    fn split(fact_atoms: &[Vec<u32>], goal_atoms: &[u32]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let chain: Vec<u32> = (0..fact_atoms.len() as u32).collect();
        let atom_count = fact_atoms.iter().flatten().chain(goal_atoms).max().map_or(0, |&a| a + 1);
        let mut slicer = Slicer::default();
        slicer.begin(atom_count as usize);
        for &a in goal_atoms {
            slicer.mark_goal_atom(a);
        }
        slicer.split(&chain, fact_atoms);
        (slicer.tier1, slicer.sliced, slicer.residual)
    }

    #[test]
    fn partition_follows_transitive_links() {
        // Atom ids: A=0, B=1, C=2, D=3. Goal on A; A linked to B by fact 0;
        // B linked to C by fact 1; D isolated in fact 2.
        let (tier1, keep, drop) = split(&[vec![0, 1], vec![1, 2], vec![3]], &[0]);
        assert_eq!(tier1, vec![0]);
        assert_eq!(keep, vec![0, 1]);
        assert_eq!(drop, vec![2]);
    }

    #[test]
    fn constant_facts_always_kept() {
        let (tier1, keep, drop) = split(&[vec![], vec![1]], &[0]);
        assert_eq!(tier1, vec![0]);
        assert_eq!(keep, vec![0]);
        assert_eq!(drop, vec![1]);
    }

    #[test]
    fn buffers_are_reused_across_queries() {
        // A second split on the same buffers sees nothing of the first.
        let facts = [vec![0, 1], vec![1, 2], vec![3]];
        let chain: Vec<u32> = vec![0, 1, 2];
        let mut slicer = Slicer::default();
        for goal_atom in [0, 3] {
            slicer.begin(4);
            slicer.mark_goal_atom(goal_atom);
            slicer.split(&chain, &facts);
        }
        assert_eq!((slicer.tier1, slicer.sliced, slicer.residual), (vec![2], vec![2], vec![0, 1]));
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
