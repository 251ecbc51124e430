//! The decision engine: proving obligations and finding counterexamples.
//!
//! [`Solver`] holds a set of assumed facts and discharges goals by
//! refutation. The pipeline for a query `facts ⊢ goal` is:
//!
//! 1. form `facts ∧ ¬goal`, convert to negation normal form, and expand to a
//!    (capped) disjunctive normal form;
//! 2. for each cube, *saturate*: constant-fold interpreted applications,
//!    propagate equalities (union-find with constant preference), apply the
//!    `exp2`/`log2` inverse rewrites, and merge congruent uninterpreted
//!    applications (the output-parameter encoding of §4.2);
//! 3. eliminate equalities by substitution, then run Fourier–Motzkin
//!    elimination over the rationals — rational infeasibility implies
//!    integer infeasibility, so an infeasible cube is discharged soundly;
//! 4. if a cube survives, search for a small integer model to present as a
//!    counterexample; if none is found within bounds the overall answer is
//!    [`Outcome::Unknown`] (the type checker reports "cannot prove" and
//!    points the user at `assume`).

use crate::alpha;
use crate::expr::{funcs, LinExpr, Term};
use crate::model::Model;
use crate::pred::Pred;
use crate::slice;
use lilac_util::hash::{FxHashMap, FxHasher};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// Result of a [`Solver::prove`] query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The goal holds under every parameterization satisfying the facts.
    Proved,
    /// The goal is violated by the returned parameter assignment.
    Disproved(Model),
    /// The engine could neither prove nor refute the goal within its bounds.
    Unknown,
}

impl Outcome {
    /// True if the outcome is [`Outcome::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, Outcome::Proved)
    }
}

/// A cooperative resource budget shared between a client and the solvers it
/// drives.
///
/// Budgets are the service-level degradation hook: a long-lived checker
/// hands every solver a clone of one budget, and the solver *charges* it
/// once per query. When the query allowance runs out or the wall-clock
/// deadline passes, the charge raises an unwinding panic carrying
/// [`lilac_util::fault::BudgetExhausted`] — the nearest `catch_unwind`
/// boundary (the service's per-unit isolation) recognizes the sentinel and
/// retries on an unbudgeted path. A budget therefore never changes a
/// verdict: it can only abort an attempt that a fallback then redoes.
///
/// Clones share the usage counter, so a budget spanning several solver
/// instances is charged globally.
#[derive(Clone, Debug, Default)]
pub struct QueryBudget {
    max_queries: Option<u64>,
    deadline: Option<std::time::Instant>,
    used: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl QueryBudget {
    /// A budget with no limits (charges are counted but never trip).
    pub fn unlimited() -> QueryBudget {
        QueryBudget::default()
    }

    /// Limits the total number of queries across all sharing solvers.
    pub fn with_max_queries(mut self, max: u64) -> QueryBudget {
        self.max_queries = Some(max);
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> QueryBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now.
    pub fn expiring_in(self, timeout: std::time::Duration) -> QueryBudget {
        self.with_deadline(std::time::Instant::now() + timeout)
    }

    /// A budget whose deadline has already passed — the first charge trips.
    /// Used by fault injection to force the deadline-expiry path
    /// deterministically, without depending on wall-clock timing.
    pub fn already_expired(self) -> QueryBudget {
        let now = std::time::Instant::now();
        self.with_deadline(now.checked_sub(std::time::Duration::from_millis(1)).unwrap_or(now))
    }

    /// Queries charged so far (shared across clones).
    pub fn used(&self) -> u64 {
        self.used.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Records one query and panics with a
    /// [`lilac_util::fault::BudgetExhausted`] sentinel if a limit is hit.
    pub fn charge(&self) {
        use lilac_util::fault::{BudgetExhausted, BudgetKind};
        let used = self.used.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        if let Some(max) = self.max_queries {
            if used > max {
                std::panic::panic_any(BudgetExhausted {
                    kind: BudgetKind::Queries,
                    detail: format!("query budget of {max} exhausted"),
                });
            }
        }
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() >= deadline {
                std::panic::panic_any(BudgetExhausted {
                    kind: BudgetKind::Deadline,
                    detail: format!("deadline expired after {used} queries"),
                });
            }
        }
    }
}

/// Maximum number of DNF cubes to expand before giving up.
const MAX_CUBES: usize = 256;
/// Maximum number of variables Fourier–Motzkin elimination will handle.
const MAX_FM_VARS: usize = 24;
/// Maximum number of inequalities produced during elimination.
const MAX_FM_ROWS: usize = 4096;
/// Maximum number of atoms considered during counterexample search.
const MAX_ENUM_ATOMS: usize = 6;
/// Largest candidate value used during counterexample search.
const ENUM_DOMAIN_MAX: i64 = 9;
/// Maximum number of assignments tried during counterexample search.
const MAX_ENUM_ASSIGNMENTS: usize = 400_000;
/// Base step bound for equality elimination inside a cube; the effective
/// bound also scales with the cube size so large-but-honest cubes are not
/// cut off.
const EQ_ELIM_GUARD: usize = 256;

/// Feature toggles and the optional shared cache and budget of a solver.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Restrict each query to the facts transitively connected to the goal
    /// (see the private `slice` module); the disconnected residue is only
    /// consulted through a cached consistency check.
    pub slicing: bool,
    /// Memoize query outcomes on a canonical (sorted sliced facts, goal) key.
    pub caching: bool,
    /// Optional second-level cache shared across solvers. Entries are
    /// self-contained (predicates rather than solver-local fact ids), so
    /// components — and entire programs checked one after another — reuse
    /// each other's decisions. `None` by default: sharing a cache between
    /// concurrently-running components would make per-component hit/miss
    /// statistics depend on thread scheduling.
    pub shared_cache: Option<SharedCache>,
    /// Optional cooperative resource budget charged once per query. `None`
    /// (the default) costs one branch per query. See [`QueryBudget`]: an
    /// exhausted budget aborts the attempt by unwinding, it never changes
    /// an answer.
    pub budget: Option<QueryBudget>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig { slicing: true, caching: true, shared_cache: None, budget: None }
    }
}

impl SolverConfig {
    /// The pre-optimization configuration: no slicing, no caching (the
    /// solver half of `CheckOptions::naive` in `lilac-core`).
    pub fn naive() -> SolverConfig {
        SolverConfig { slicing: false, caching: false, ..SolverConfig::default() }
    }
}

/// Counters describing the work a solver instance has performed. Used by the
/// Figure 8 harness to report type-checking effort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of `prove` queries issued.
    pub queries: usize,
    /// Queries answered `Proved`.
    pub proved: usize,
    /// Queries answered `Disproved`.
    pub disproved: usize,
    /// Queries answered `Unknown`.
    pub unknown: usize,
    /// Total cubes examined.
    pub cubes: usize,
    /// Queries answered from the memoization cache.
    pub cache_hits: usize,
    /// Queries that ran the full decision pipeline.
    pub cache_misses: usize,
    /// Facts dropped by the relevance slicer, summed over all queries.
    pub facts_sliced_out: usize,
    /// Cubes abandoned because equality elimination hit its step bound.
    pub eq_guard_bailouts: usize,
    /// Inequality pairs combined during Fourier–Motzkin elimination.
    pub fm_combines: usize,
    /// Assignments tried during bounded counterexample search.
    pub enum_assignments: usize,
}

impl SolverStats {
    /// Field-wise sum of two stat records (used to aggregate per-component
    /// checker stats into a program-level total).
    pub fn merged(self, other: SolverStats) -> SolverStats {
        SolverStats {
            queries: self.queries + other.queries,
            proved: self.proved + other.proved,
            disproved: self.disproved + other.disproved,
            unknown: self.unknown + other.unknown,
            cubes: self.cubes + other.cubes,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            facts_sliced_out: self.facts_sliced_out + other.facts_sliced_out,
            eq_guard_bailouts: self.eq_guard_bailouts + other.eq_guard_bailouts,
            fm_combines: self.fm_combines + other.fm_combines,
            enum_assignments: self.enum_assignments + other.enum_assignments,
        }
    }

    /// Cache hit rate in `0.0..=1.0` (zero when no queries were issued).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

// ---------------------------------------------------------------------------
// The fact log: an append-only assumption arena with O(1) snapshots.
// ---------------------------------------------------------------------------

/// A snapshot of the solver's assumption scope. Marks stay valid for the
/// lifetime of the solver — leaving a scope with [`Solver::reset_to`] moves
/// the head pointer without destroying the facts it leaves behind, so clients
/// (like the type checker's write-conflict pass) can record a mark per event
/// and replay any past scope later without cloning fact vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FactMark(Option<u32>);

#[derive(Clone, Copy, Debug)]
struct FactNode {
    /// Index into the content-interned fact table.
    fact_id: u32,
    parent: Option<u32>,
}

/// Append-only arena of assumed facts forming a tree of scopes; the `head`
/// identifies the current scope as a chain of parent links.
///
/// Fact *content* is interned: structurally equal predicates share one
/// `fact_id`, and each unique fact's atom set is computed once and stored as
/// sorted atom ids. This turns the per-query slicing and cache-key work into
/// integer-set operations instead of deep `Pred`/`Term` traversals.
///
/// Atom sets are computed only when `atoms` is set (the solver slices) and
/// hashes only when `hashes` is set (the solver caches); otherwise their
/// tables stay empty, and nothing reads them.
#[derive(Clone, Debug, Default)]
struct FactLog {
    nodes: Vec<FactNode>,
    head: Option<u32>,
    /// fact_id → predicate.
    preds: Vec<Pred>,
    /// fact_id → sorted atom ids mentioned by the predicate.
    fact_atoms: Vec<Vec<u32>>,
    /// fact_id → renaming-invariant hash of the predicate.
    fact_hashes: Vec<u64>,
    /// Content hash → the newest fact id with that hash; older ones chain
    /// through `same_hash`. Each predicate is stored once, in `preds`.
    by_hash: FxHashMap<u64, u32>,
    /// fact_id → the previous fact id with the same content hash.
    same_hash: Vec<Option<u32>>,
    atom_ids: FxHashMap<Term, u32>,
    /// Fill `fact_atoms` and `atom_ids`.
    atoms: bool,
    /// Fill `fact_hashes`.
    hashes: bool,
}

impl FactLog {
    fn intern_atom(&mut self, term: &Term) -> u32 {
        if let Some(&id) = self.atom_ids.get(term) {
            return id;
        }
        let id = self.atom_ids.len() as u32;
        self.atom_ids.insert(term.clone(), id);
        id
    }

    /// The id of `pred`, interning it first if it is new. Looks up by
    /// reference, so a borrowed fact is cloned only on its first insert.
    fn intern_fact(&mut self, pred: Cow<'_, Pred>) -> u32 {
        let key = {
            let mut state = FxHasher::default();
            pred.hash(&mut state);
            state.finish()
        };
        let mut cursor = self.by_hash.get(&key).copied();
        while let Some(id) = cursor {
            if self.preds[id as usize] == *pred {
                return id;
            }
            cursor = self.same_hash[id as usize];
        }
        if self.atoms {
            // Atoms are interned in term order, so atom ids do not depend
            // on where in the predicate a term first occurs.
            let mut terms: Vec<&Term> = Vec::new();
            pred.for_each_atom(&mut |t| terms.push(t));
            terms.sort_unstable();
            terms.dedup();
            let mut atom_list: Vec<u32> = terms.into_iter().map(|t| self.intern_atom(t)).collect();
            atom_list.sort_unstable();
            atom_list.dedup();
            self.fact_atoms.push(atom_list);
        }
        if self.hashes {
            self.fact_hashes.push(alpha::fact_hash(&pred));
        }
        let id = self.preds.len() as u32;
        self.same_hash.push(self.by_hash.insert(key, id));
        self.preds.push(pred.into_owned());
        id
    }

    fn push(&mut self, pred: Cow<'_, Pred>) {
        let fact_id = self.intern_fact(pred);
        self.nodes.push(FactNode { fact_id, parent: self.head });
        self.head = Some(self.nodes.len() as u32 - 1);
    }

    /// Appends the fact ids along the chain ending at `head` to `out`,
    /// newest first (may contain duplicates if the same fact was assumed in
    /// nested scopes).
    fn chain_into(&self, head: Option<u32>, out: &mut Vec<u32>) {
        let mut cursor = head;
        while let Some(idx) = cursor {
            out.push(self.nodes[idx as usize].fact_id);
            cursor = self.nodes[idx as usize].parent;
        }
    }

    /// Fact ids along the chain ending at `head`, oldest first.
    fn chain_from(&self, head: Option<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        self.chain_into(head, &mut out);
        out.reverse();
        out
    }

    fn pred(&self, fact_id: u32) -> &Pred {
        &self.preds[fact_id as usize]
    }
}

// ---------------------------------------------------------------------------
// The solver proper.
// ---------------------------------------------------------------------------

/// One memoized query: the representative's sliced fact ids (sorted — id
/// order follows assumption order), its goal, and the decided outcome.
/// Lookups match candidates against the representative up to an injective
/// renaming of symbols, so obligations that differ only in uniquified loop
/// variables or instance names share one entry.
#[derive(Clone, Debug)]
struct CacheEntry {
    fact_ids: Vec<u32>,
    goal: Pred,
    outcome: Outcome,
}

/// A self-contained cache entry usable outside the owning solver's fact-id
/// space.
#[derive(Clone, Debug)]
struct SharedEntry {
    facts: std::sync::Arc<Vec<Pred>>,
    goal: Pred,
    outcome: Outcome,
}

/// One serialized-form cache bucket: the alpha-invariant hash and each
/// entry's facts, goal, and outcome (see [`SharedCache::snapshot`]).
pub(crate) type CacheBucket = (u64, Vec<(Vec<Pred>, Pred, Outcome)>);

/// A query cache that can be handed to many solvers (see
/// [`SolverConfig::shared_cache`]): cheap to clone, synchronized internally.
/// Production checkers keep one alive across whole programs so repeated
/// library components hit instead of re-deriving.
#[derive(Clone, Debug, Default)]
pub struct SharedCache {
    entries: std::sync::Arc<std::sync::Mutex<FxHashMap<u64, Vec<SharedEntry>>>>,
}

impl SharedCache {
    /// Creates an empty shared cache.
    pub fn new() -> SharedCache {
        SharedCache::default()
    }

    /// Number of memoized queries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("shared cache poisoned").values().map(Vec::len).sum()
    }

    /// True if no queries are memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A stable snapshot of every entry for serialization: the bucket hash
    /// plus each entry's facts, goal, and outcome. Buckets are sorted by
    /// hash (entry order within a bucket is insertion order), so equal cache
    /// contents serialize to equal bytes.
    pub(crate) fn snapshot(&self) -> Vec<CacheBucket> {
        let entries = self.entries.lock().expect("shared cache poisoned");
        let mut buckets: Vec<CacheBucket> = entries
            .iter()
            .map(|(&hash, bucket)| {
                let bucket = bucket
                    .iter()
                    .map(|e| ((*e.facts).clone(), e.goal.clone(), e.outcome.clone()))
                    .collect();
                (hash, bucket)
            })
            .collect();
        buckets.sort_by_key(|&(hash, _)| hash);
        buckets
    }

    /// Inserts a deserialized entry under its recorded bucket hash.
    pub(crate) fn insert_raw(&self, hash: u64, facts: Vec<Pred>, goal: Pred, outcome: Outcome) {
        self.entries
            .lock()
            .expect("shared cache poisoned")
            .entry(hash)
            .or_default()
            .push(SharedEntry { facts: std::sync::Arc::new(facts), goal, outcome });
    }
}

/// A constraint-solving context: a scoped fact log, resource limits, and the
/// query memoization cache (bucketed by renaming-invariant hash).
#[derive(Clone, Debug)]
pub struct Solver {
    facts: FactLog,
    config: SolverConfig,
    stats: SolverStats,
    query_cache: FxHashMap<u64, Vec<CacheEntry>>,
    consistency_cache: FxHashMap<Vec<u32>, bool>,
    residual_cache: FxHashMap<Vec<u32>, ResidualStatus>,
    /// The fact ids of the query being decided, reused across queries.
    chain: Vec<u32>,
    /// The slicing buffers, reused across queries.
    slicer: slice::Slicer,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with default limits and no facts.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with custom limits.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            facts: FactLog { atoms: config.slicing, hashes: config.caching, ..FactLog::default() },
            config,
            stats: SolverStats::default(),
            query_cache: FxHashMap::default(),
            consistency_cache: FxHashMap::default(),
            residual_cache: FxHashMap::default(),
            chain: Vec::new(),
            slicer: slice::Slicer::default(),
        }
    }

    /// Adds a fact the solver may use in subsequent queries.
    pub fn assume(&mut self, fact: Pred) {
        if fact != Pred::True {
            self.facts.push(Cow::Owned(fact));
        }
    }

    /// Like [`Solver::assume`], for a borrowed fact: it is cloned only if
    /// the solver has not seen it before.
    pub fn assume_ref(&mut self, fact: &Pred) {
        if *fact != Pred::True {
            self.facts.push(Cow::Borrowed(fact));
        }
    }

    /// Number of facts in the current scope.
    pub fn facts_len(&self) -> usize {
        let mut len = 0;
        let mut cursor = self.facts.head;
        while let Some(idx) = cursor {
            len += 1;
            cursor = self.facts.nodes[idx as usize].parent;
        }
        len
    }

    /// Query statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Snapshots the current assumption scope. The mark stays valid even
    /// after [`Solver::reset_to`]; see [`FactMark`].
    pub fn mark(&self) -> FactMark {
        FactMark(self.facts.head)
    }

    /// Restores an earlier scope. Facts assumed since `mark` become
    /// invisible to subsequent queries but remain addressable through marks
    /// taken while they were live.
    pub fn reset_to(&mut self, mark: FactMark) {
        self.facts.head = mark.0;
    }

    /// Attempts to prove `goal` from the facts in the current scope.
    pub fn prove(&mut self, goal: &Pred) -> Outcome {
        self.chain.clear();
        self.facts.chain_into(self.facts.head, &mut self.chain);
        self.prove_chain(goal)
    }

    /// Attempts to prove `goal` from the scope recorded by `mark`, extended
    /// with `extra` facts. The current scope is untouched. This is the
    /// indexed-scope replacement for cloning fact vectors into throwaway
    /// solvers: the base facts are shared structurally and only `extra` is
    /// materialized.
    pub fn prove_under(&mut self, mark: FactMark, extra: &[Pred], goal: &Pred) -> Outcome {
        self.chain_under(mark, extra);
        self.prove_chain(goal)
    }

    /// Attempts to prove `goal` from the union of the scopes recorded by `a`
    /// and `b`. The same answer and statistics as
    /// `prove_under(a, &facts_at(b), goal)`, without cloning or re-interning
    /// `b`'s facts: the scopes are joined by fact id.
    pub fn prove_under_join(&mut self, a: FactMark, b: FactMark, goal: &Pred) -> Outcome {
        self.chain_joined(a, b);
        self.prove_chain(goal)
    }

    /// Like [`Solver::facts_consistent`], but for the scope recorded by
    /// `mark` extended with `extra` facts.
    pub fn consistent_under(&mut self, mark: FactMark, extra: &[Pred]) -> bool {
        self.chain_under(mark, extra);
        self.chain_consistent()
    }

    /// Like [`Solver::consistent_under`] with `extra = facts_at(b)`, joining
    /// the two scopes by fact id (see [`Solver::prove_under_join`]).
    pub fn consistent_under_join(&mut self, a: FactMark, b: FactMark) -> bool {
        self.chain_joined(a, b);
        self.chain_consistent()
    }

    /// The facts recorded at `mark`, oldest first (cloned).
    pub fn facts_at(&self, mark: FactMark) -> Vec<Pred> {
        self.fact_refs_at(mark).into_iter().cloned().collect()
    }

    /// The facts recorded at `mark`, oldest first, borrowed from the solver.
    pub fn fact_refs_at(&self, mark: FactMark) -> Vec<&Pred> {
        self.facts.chain_from(mark.0).into_iter().map(|id| self.facts.pred(id)).collect()
    }

    /// Fills `self.chain` with the fact ids of the scope at `mark` and
    /// `extra`, interned (the facts [`Solver::assume`] would push there).
    fn chain_under(&mut self, mark: FactMark, extra: &[Pred]) {
        self.chain.clear();
        self.facts.chain_into(mark.0, &mut self.chain);
        for f in extra {
            if *f != Pred::True {
                self.chain.push(self.facts.intern_fact(Cow::Borrowed(f)));
            }
        }
    }

    /// Fills `self.chain` with the fact ids of the scopes at `a` and `b`.
    fn chain_joined(&mut self, a: FactMark, b: FactMark) {
        self.chain.clear();
        self.facts.chain_into(a.0, &mut self.chain);
        self.facts.chain_into(b.0, &mut self.chain);
    }

    /// Decides `goal` from the facts in `self.chain` (in any order, possibly
    /// repeated): slicing, the tiered cached decision and residual rescue.
    /// The per-query buffers are the solver's own, so a query answered from
    /// the cache allocates nothing.
    fn prove_chain(&mut self, goal: &Pred) -> Outcome {
        if let Some(budget) = &self.config.budget {
            budget.charge();
        }
        self.stats.queries += 1;
        let mut chain = std::mem::take(&mut self.chain);
        chain.sort_unstable();
        chain.dedup();
        let mut slicer = std::mem::take(&mut self.slicer);
        let outcome = self.decide_sliced(&chain, &mut slicer, goal);
        self.chain = chain;
        self.slicer = slicer;
        match &outcome {
            Outcome::Proved => self.stats.proved += 1,
            Outcome::Disproved(_) => self.stats.disproved += 1,
            Outcome::Unknown => self.stats.unknown += 1,
        }
        outcome
    }

    /// The body of [`Solver::prove_chain`] over the sorted, deduplicated
    /// fact ids `chain`, with `slicer`'s buffers on loan.
    fn decide_sliced(&mut self, chain: &[u32], slicer: &mut slice::Slicer, goal: &Pred) -> Outcome {
        // 1. Relevance slicing: keep only facts connected to the goal, and
        // additionally note which of those touch a goal atom *directly* (the
        // one-hop neighbourhood used by the tiered fast path below).
        let (sliced, residual, tier1): (&[u32], &[u32], &[u32]) = if self.config.slicing {
            let facts = &self.facts;
            slicer.begin(facts.atom_ids.len());
            // A goal atom no fact mentions cannot connect anything.
            goal.for_each_atom(&mut |t| {
                if let Some(&a) = facts.atom_ids.get(t) {
                    slicer.mark_goal_atom(a);
                }
            });
            slicer.split(chain, &facts.fact_atoms);
            (&slicer.sliced, &slicer.residual, &slicer.tier1)
        } else {
            (chain, &[], &[])
        };
        self.stats.facts_sliced_out += residual.len();

        // 2. Tiered, memoized decision of the sliced query.
        //
        // Proving is monotone in the fact set: if a subset proves the goal,
        // the full set does too. Most obligations are provable from the
        // facts that mention a goal atom directly, and that one-hop set is
        // often far smaller than the full transitive closure (a shared width
        // parameter connects nearly everything). So: try the one-hop set
        // first and accept only `Proved` from it; anything else escalates to
        // the full sliced set, whose verdict is exact.
        let sliced_outcome = if self.config.slicing && tier1.len() < sliced.len() {
            let first = self.cached_decide(tier1, goal);
            if first.is_proved() {
                first
            } else {
                self.cached_decide(sliced, goal)
            }
        } else {
            self.cached_decide(sliced, goal)
        };

        // 3. Residual rescue: the residual shares no atoms with the sliced
        // query, so the only ways it can change the answer are by being
        // unsatisfiable on its own (anything is provable from contradictory
        // facts) or by being *undecidable* — a `Disproved` model for the
        // sliced query only extends to a model of the full query if the
        // residual verifiably has one, so an undecided residual degrades a
        // counterexample to `Unknown` rather than fabricating one. The
        // status check is goal-independent and caches extremely well.
        if !sliced_outcome.is_proved() && !residual.is_empty() {
            match self.residual_status(residual) {
                ResidualStatus::Unsat => Outcome::Proved,
                ResidualStatus::Sat => sliced_outcome,
                ResidualStatus::Unknown => match sliced_outcome {
                    Outcome::Disproved(_) => Outcome::Unknown,
                    other => other,
                },
            }
        } else {
            sliced_outcome
        }
    }

    /// Decides `facts ⊢ goal` through the alpha-invariant memoization cache
    /// (when enabled). The cache is keyed on a renaming-invariant hash and
    /// matched up to a symbol bijection, so the near-identical obligations
    /// produced by loops and repeated invocations (which differ only in
    /// uniquified variable names) share one entry; a `Disproved` model is
    /// transported back through the bijection into the query's own symbols.
    /// Fact-id order follows assumption order, which lines up between
    /// structurally parallel scopes, making the pairwise match well-defined.
    /// Only a miss copies `fact_ids`, into the entry it records.
    fn cached_decide(&mut self, fact_ids: &[u32], goal: &Pred) -> Outcome {
        if !self.config.caching {
            self.stats.cache_misses += 1;
            return self.decide(fact_ids, goal);
        }
        let hash =
            alpha::query_hash(fact_ids.iter().map(|&id| self.facts.fact_hashes[id as usize]), goal);
        let cached = {
            let facts = &self.facts;
            self.query_cache.get(&hash).and_then(|entries| {
                entries.iter().find_map(|entry| {
                    if entry.fact_ids.len() != fact_ids.len() {
                        return None;
                    }
                    // Identical query (same interned facts, same goal):
                    // reuse verbatim, no bijection needed.
                    if entry.fact_ids == *fact_ids && entry.goal == *goal {
                        return Some(entry.outcome.clone());
                    }
                    let map = alpha::alpha_match(
                        entry.fact_ids.iter().map(|&id| facts.pred(id)),
                        &entry.goal,
                        fact_ids.iter().map(|&id| facts.pred(id)),
                        goal,
                    )?;
                    alpha::rename_outcome(&entry.outcome, &map)
                })
            })
        };
        if let Some(outcome) = cached {
            self.stats.cache_hits += 1;
            return outcome;
        }
        // Second level: the cross-solver shared cache, if configured.
        let shared = self.config.shared_cache.clone();
        if let Some(shared) = &shared {
            let shared_hit = {
                let facts = &self.facts;
                let entries = shared.entries.lock().expect("shared cache poisoned");
                entries.get(&hash).and_then(|bucket| {
                    bucket.iter().find_map(|entry| {
                        if entry.facts.len() != fact_ids.len() {
                            return None;
                        }
                        let map = alpha::alpha_match(
                            entry.facts.iter(),
                            &entry.goal,
                            fact_ids.iter().map(|&id| facts.pred(id)),
                            goal,
                        )?;
                        alpha::rename_outcome(&entry.outcome, &map)
                    })
                })
            };
            if let Some(outcome) = shared_hit {
                self.stats.cache_hits += 1;
                // Promote into the local cache so later queries skip the lock.
                self.record_local(hash, fact_ids, goal, &outcome);
                return outcome;
            }
        }
        // Full miss: decide and record in every configured cache level.
        self.stats.cache_misses += 1;
        let outcome = self.decide(fact_ids, goal);
        if let Some(shared) = &shared {
            let fact_preds: Vec<Pred> =
                fact_ids.iter().map(|&id| self.facts.pred(id).clone()).collect();
            shared.entries.lock().expect("shared cache poisoned").entry(hash).or_default().push(
                SharedEntry {
                    facts: std::sync::Arc::new(fact_preds),
                    goal: goal.clone(),
                    outcome: outcome.clone(),
                },
            );
        }
        self.record_local(hash, fact_ids, goal, &outcome);
        outcome
    }

    /// Inserts one entry into the solver-local query cache.
    fn record_local(&mut self, hash: u64, fact_ids: &[u32], goal: &Pred, outcome: &Outcome) {
        self.query_cache.entry(hash).or_default().push(CacheEntry {
            fact_ids: fact_ids.to_vec(),
            goal: goal.clone(),
            outcome: outcome.clone(),
        });
    }

    /// Decides `facts ⊢ goal` by refutation (no slicing, no caching). The
    /// fact predicates are sorted before conjunction so the decision is
    /// independent of assumption order (and of fact-id assignment order,
    /// which differs between solver instances).
    fn decide(&mut self, fact_ids: &[u32], goal: &Pred) -> Outcome {
        // Fast path: when every fact is already a literal (the common case —
        // path conditions and interval bounds are single comparisons), the
        // DNF of `facts ∧ ¬goal` is just the fact literals prepended to each
        // cube of `¬goal`'s DNF. Building the cubes directly skips three
        // whole-formula copies (conjunction, NNF, distribution); `cube_sat`
        // canonicalizes cubes either way, so the verdict is byte-identical
        // to the general path.
        //
        // A goal cube holding an atom-free false literal is unsatisfiable
        // whatever the facts say, so it is counted and skipped before the
        // fact base is copied; the base is built at most once, and only if
        // some goal cube needs it.
        let all_literals =
            fact_ids.iter().all(|&id| matches!(self.facts.pred(id), Pred::Le(_) | Pred::Eq(_)));
        if all_literals {
            let Some(goal_cubes) = goal.negated_dnf(MAX_CUBES) else {
                return Outcome::Unknown;
            };
            if goal_cubes.is_empty() {
                return Outcome::Proved;
            }
            let mut base: Option<Vec<Pred>> = None;
            let mut any_unknown = false;
            for goal_cube in goal_cubes {
                self.stats.cubes += 1;
                if goal_cube.iter().any(Pred::is_false_literal) {
                    continue;
                }
                let base = base.get_or_insert_with(|| {
                    let mut base: Vec<Pred> =
                        fact_ids.iter().map(|&id| self.facts.pred(id).clone()).collect();
                    base.sort();
                    base.dedup();
                    base
                });
                let mut cube = Vec::with_capacity(base.len() + goal_cube.len());
                cube.extend_from_slice(base);
                cube.extend(goal_cube);
                match self.cube_sat(cube, true) {
                    SatResult::Unsat => continue,
                    SatResult::Sat(model) => return Outcome::Disproved(model),
                    SatResult::Unknown => any_unknown = true,
                }
            }
            return if any_unknown { Outcome::Unknown } else { Outcome::Proved };
        }
        let mut facts: Vec<Pred> = fact_ids.iter().map(|&id| self.facts.pred(id).clone()).collect();
        facts.sort();
        let formula = Pred::and(facts.into_iter().chain([goal.clone().negate()]));
        match self.check_sat(&formula) {
            SatResult::Unsat => Outcome::Proved,
            SatResult::Sat(model) => Outcome::Disproved(model),
            SatResult::Unknown => Outcome::Unknown,
        }
    }

    /// Checks whether the facts in the current scope are mutually
    /// consistent.
    ///
    /// Returns `false` only when the facts are definitely contradictory;
    /// inconclusive answers are treated as consistent.
    pub fn facts_consistent(&mut self) -> bool {
        self.chain.clear();
        self.facts.chain_into(self.facts.head, &mut self.chain);
        self.chain_consistent()
    }

    /// True unless the facts in `self.chain` (in any order, possibly
    /// repeated) are definitely contradictory.
    fn chain_consistent(&mut self) -> bool {
        let mut chain = std::mem::take(&mut self.chain);
        chain.sort_unstable();
        chain.dedup();
        let inconsistent = self.set_inconsistent(&chain);
        self.chain = chain;
        !inconsistent
    }

    /// Memoized unsatisfiability check of a canonical (sorted) fact-id set.
    ///
    /// With slicing enabled the set is first decomposed into connected
    /// components: a conjunction of atom-disjoint groups is unsatisfiable
    /// iff some group is, each group's cube is much smaller, and the
    /// per-group verdicts memoize across the many consistency queries that
    /// differ only in one group (e.g. branch path conditions).
    fn set_inconsistent(&mut self, sorted_ids: &[u32]) -> bool {
        if !self.config.slicing {
            return self.component_inconsistent(sorted_ids);
        }
        let atom_sets: Vec<&[u32]> =
            sorted_ids.iter().map(|&id| self.facts.fact_atoms[id as usize].as_slice()).collect();
        let groups = slice::components(&atom_sets, self.facts.atom_ids.len());
        if groups.len() <= 1 {
            return self.component_inconsistent(sorted_ids);
        }
        let mut inconsistent = false;
        for group in groups {
            let ids: Vec<u32> = group.into_iter().map(|k| sorted_ids[k]).collect();
            if self.component_inconsistent(&ids) {
                inconsistent = true;
                // Keep going: callers may retry subsets, and warming the
                // cache for every group is nearly free compared to a rerun.
            }
        }
        inconsistent
    }

    /// Three-valued satisfiability of a residual fact set: `Unsat` rescues
    /// the query as vacuously proved, `Sat` certifies that a sliced
    /// counterexample extends to the full fact set, and `Unknown` means
    /// neither — callers must not present a counterexample then.
    fn residual_status(&mut self, sorted_ids: &[u32]) -> ResidualStatus {
        let atom_sets: Vec<&[u32]> =
            sorted_ids.iter().map(|&id| self.facts.fact_atoms[id as usize].as_slice()).collect();
        let groups = slice::components(&atom_sets, self.facts.atom_ids.len());
        let mut all_sat = true;
        for group in groups {
            let ids: Vec<u32> = group.into_iter().map(|k| sorted_ids[k]).collect();
            match self.component_status(ids) {
                ResidualStatus::Unsat => return ResidualStatus::Unsat,
                ResidualStatus::Sat => {}
                ResidualStatus::Unknown => all_sat = false,
            }
        }
        if all_sat {
            ResidualStatus::Sat
        } else {
            ResidualStatus::Unknown
        }
    }

    /// Memoized three-valued satisfiability of one atom-connected fact
    /// group. Unlike [`Solver::component_inconsistent`] this runs the model
    /// search, so `Sat` means an integer model was actually found.
    fn component_status(&mut self, sorted_ids: Vec<u32>) -> ResidualStatus {
        if self.config.caching {
            if let Some(&answer) = self.residual_cache.get(&sorted_ids) {
                return answer;
            }
        }
        let mut facts: Vec<Pred> =
            sorted_ids.iter().map(|&id| self.facts.pred(id).clone()).collect();
        facts.sort();
        let formula = Pred::and(facts);
        let status = match self.check_sat_internal(&formula, true) {
            SatResult::Unsat => ResidualStatus::Unsat,
            SatResult::Sat(_) => ResidualStatus::Sat,
            SatResult::Unknown => ResidualStatus::Unknown,
        };
        if self.config.caching {
            self.residual_cache.insert(sorted_ids, status);
        }
        status
    }

    fn component_inconsistent(&mut self, sorted_ids: &[u32]) -> bool {
        if self.config.caching {
            if let Some(&answer) = self.consistency_cache.get(sorted_ids) {
                return answer;
            }
        }
        let mut facts: Vec<Pred> =
            sorted_ids.iter().map(|&id| self.facts.pred(id).clone()).collect();
        facts.sort();
        let formula = Pred::and(facts);
        let unsat = matches!(self.check_sat_internal(&formula, false), SatResult::Unsat);
        if self.config.caching {
            self.consistency_cache.insert(sorted_ids.to_vec(), unsat);
        }
        unsat
    }

    fn check_sat(&mut self, formula: &Pred) -> SatResult {
        self.check_sat_internal(formula, true)
    }

    fn check_sat_internal(&mut self, formula: &Pred, want_model: bool) -> SatResult {
        let Some(cubes) = formula.to_dnf(MAX_CUBES) else {
            return SatResult::Unknown;
        };
        if cubes.is_empty() {
            return SatResult::Unsat;
        }
        let mut any_unknown = false;
        for cube in cubes {
            self.stats.cubes += 1;
            match self.cube_sat(cube, want_model) {
                SatResult::Unsat => continue,
                SatResult::Sat(m) => return SatResult::Sat(m),
                SatResult::Unknown => any_unknown = true,
            }
        }
        if any_unknown {
            SatResult::Unknown
        } else {
            SatResult::Unsat
        }
    }

    /// Satisfiability of a conjunction of `Le`/`Eq` literals.
    fn cube_sat(&mut self, cube: Vec<Pred>, want_model: bool) -> SatResult {
        // An atom-free false literal refutes the cube outright: saturation
        // would report it at the end of its first round, after copying and
        // rewriting every other literal, and touch no counter on the way.
        if cube.iter().any(Pred::is_false_literal) {
            return SatResult::Unsat;
        }
        self.saturated_cube_sat(cube, want_model)
    }

    /// [`Solver::cube_sat`] without the early exit: every cube is
    /// saturated.
    fn saturated_cube_sat(&mut self, mut cube: Vec<Pred>, want_model: bool) -> SatResult {
        // 0. Canonicalize: sort and deduplicate the literals. Duplicate
        // facts reach a cube through nested scopes and repeated obligations;
        // every literal removed here is one less operand for all eight
        // saturation rounds.
        cube.sort();
        cube.dedup();
        let cube_len = cube.len();

        // 1. Saturation.
        let saturated = match saturate(cube) {
            Some(lits) => lits,
            None => return SatResult::Unsat,
        };

        // 2. Split into equalities and inequalities; constant checks.
        let mut equalities: Vec<LinExpr> = Vec::new();
        let mut inequalities: Vec<LinExpr> = Vec::new();
        for lit in &saturated {
            match lit {
                Pred::Eq(e) => match e.as_constant() {
                    Some(0) => {}
                    Some(_) => return SatResult::Unsat,
                    None => equalities.push(e.clone()),
                },
                Pred::Le(e) => match e.as_constant() {
                    Some(c) if c > 0 => return SatResult::Unsat,
                    Some(_) => {}
                    None => inequalities.push(e.clone()),
                },
                _ => unreachable!("cube literals are Le/Eq"),
            }
        }

        // 3. Eliminate equalities by substitution where a unit coefficient
        // exists; the rest become paired inequalities. The step bound scales
        // with the cube so legitimately large cubes are not cut off, and a
        // bailout is counted instead of vanishing silently.
        let guard_limit = EQ_ELIM_GUARD.max(4 * cube_len);
        let mut pending = equalities;
        let mut guard = 0;
        while let Some(eq) = pending.pop() {
            guard += 1;
            if guard > guard_limit {
                self.stats.eq_guard_bailouts += 1;
                return SatResult::Unknown;
            }
            match eq.as_constant() {
                Some(0) => continue,
                Some(_) => return SatResult::Unsat,
                None => {}
            }
            if let Some((term, rhs)) = solve_for_unit_term(&eq) {
                pending = pending.iter().map(|e| e.substitute(&term, &rhs)).collect();
                inequalities = inequalities.iter().map(|e| e.substitute(&term, &rhs)).collect();
            } else {
                inequalities.push(eq.clone());
                inequalities.push(eq.scaled(-1));
            }
        }

        // Re-check constants introduced by substitution.
        let mut rows: Vec<LinExpr> = Vec::new();
        for e in inequalities {
            match e.as_constant() {
                Some(c) if c > 0 => return SatResult::Unsat,
                Some(_) => {}
                None => rows.push(e),
            }
        }

        // 4. Fourier–Motzkin elimination over the rationals.
        match fourier_motzkin(&rows, &mut self.stats.fm_combines) {
            FmResult::Infeasible => return SatResult::Unsat,
            FmResult::Feasible => {}
            FmResult::Unknown => return SatResult::Unknown,
        }

        if !want_model {
            // Rationally feasible is enough to say "not definitely unsat".
            return SatResult::Sat(Model::new());
        }

        // 5. Bounded integer model search on the saturated literals.
        match find_model(&saturated, &mut self.stats.enum_assignments) {
            Some(model) => SatResult::Sat(model),
            None => SatResult::Unknown,
        }
    }
}

/// Three-valued verdict for residual fact groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ResidualStatus {
    Unsat,
    Sat,
    Unknown,
}

#[derive(Debug)]
enum SatResult {
    Unsat,
    Sat(Model),
    Unknown,
}

// ---------------------------------------------------------------------------
// Saturation: constant folding, equality propagation, rewrites, congruence.
// ---------------------------------------------------------------------------

/// Rewrites a cube of literals to a saturated form, or returns `None` if a
/// contradiction is detected syntactically (e.g. `3 == 0` after folding).
/// Literals are rewritten in place; one that no step touches is never
/// copied.
fn saturate(cube: Vec<Pred>) -> Option<Vec<Pred>> {
    let mut lits: Vec<Pred> = cube.into_iter().map(fold_pred).collect();
    for _round in 0..8 {
        // Build a substitution from equalities of the form `t == constant`
        // or `t == u` (unit coefficients).
        let mut subst: BTreeMap<Term, LinExpr> = BTreeMap::new();
        for lit in &lits {
            if let Pred::Eq(e) = lit {
                if let Some((term, rhs)) = solve_for_unit_term(e) {
                    // Prefer rewriting complex terms (applications) into
                    // simpler ones; avoid self-referential substitutions.
                    let mut mentions_self = false;
                    rhs.for_each_term(&mut |t| mentions_self |= *t == term);
                    if !mentions_self {
                        subst.entry(term).or_insert(rhs);
                    }
                }
            }
        }
        // exp2/log2 inverse rewrites: exp2(log2(x)) -> x, log2(exp2(x)) -> x.
        for lit in &lits {
            let (Pred::Eq(e) | Pred::Le(e)) = lit else { continue };
            if !has_exp_or_log(e) {
                continue;
            }
            e.for_each_term(&mut |t| {
                let Term::App { func, args } = t else { return };
                let inverse = match func.as_str() {
                    funcs::EXP2 => funcs::LOG2,
                    funcs::LOG2 => funcs::EXP2,
                    _ => return,
                };
                if let Some(Term::App { func: inner_f, args: inner_args }) =
                    args[0].as_single_term()
                {
                    if inner_f.as_str() == inverse {
                        subst.entry(t.clone()).or_insert_with(|| inner_args[0].clone());
                    }
                }
            });
        }
        // Congruence closure over uninterpreted applications: after applying
        // the substitution, merge applications with identical arguments.
        //
        // Substitution entries are gated on a single pre-scan of each
        // literal: one walk collects which substitution targets occur at
        // all, and only those entries are applied (in map order, against the
        // evolving expression, so chained entries still compose). Literals
        // untouched by every entry are reused as-is — no rebuild, no refold;
        // they were folded on entry to `saturate`. Targets *introduced* by an
        // applied entry within the same round are picked up by the next
        // round (the loop runs to a fixpoint either way).
        let mut changed = false;
        let apply = |e: &LinExpr, changed: &mut bool| -> Option<LinExpr> {
            let mut occurring: Vec<&Term> = Vec::new();
            e.for_each_term(&mut |t| {
                if subst.contains_key(t) && !occurring.contains(&t) {
                    occurring.push(t);
                }
            });
            if occurring.is_empty() {
                return None;
            }
            let mut out = e.clone();
            for (t, r) in &subst {
                if occurring.contains(&t) {
                    out = out.substitute(t, r);
                }
            }
            *changed = true;
            Some(fold_owned(out))
        };
        for lit in &mut lits {
            if let Pred::Eq(e) | Pred::Le(e) = lit {
                if let Some(e2) = apply(e, &mut changed) {
                    *e = e2;
                }
            }
        }

        // Congruence: find pairs of syntactically equal applications — they
        // are already merged by structural equality — nothing further needed
        // here because substitution canonicalized the arguments.

        // Detect syntactic contradictions early.
        for lit in &lits {
            if let Pred::Eq(e) = lit {
                if let Some(c) = e.as_constant() {
                    if c != 0 {
                        return None;
                    }
                }
            }
            if let Pred::Le(e) = lit {
                if let Some(c) = e.as_constant() {
                    if c > 0 {
                        return None;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    Some(lits)
}

/// Constant-folds interpreted applications inside an expression. Expressions
/// with no application terms at all (the overwhelmingly common case on the
/// checker's affine obligations) are returned as-is without a rebuild.
fn fold_expr(e: &LinExpr) -> LinExpr {
    if e.terms().all(|(t, _)| matches!(t, Term::Var(_))) {
        return e.clone();
    }
    let mut out = LinExpr::constant(e.constant_part());
    for (term, coeff) in e.terms() {
        let folded = fold_term(term);
        out = out + folded.scaled(coeff);
    }
    out
}

/// Clone-free check for `exp2`/`log2` applications anywhere in `e`; gates
/// the inverse-rewrite scan in `saturate`, which would otherwise clone every
/// term of every literal each round.
fn has_exp_or_log(e: &LinExpr) -> bool {
    e.terms().any(|(t, _)| match t {
        Term::Var(_) => false,
        Term::App { func, args } => {
            func.as_str() == funcs::EXP2
                || func.as_str() == funcs::LOG2
                || args.iter().any(has_exp_or_log)
        }
    })
}

fn fold_term(t: &Term) -> LinExpr {
    match t {
        Term::Var(_) => LinExpr::from_term(t.clone(), 1),
        Term::App { func, args } => {
            let folded_args: Vec<LinExpr> = args.iter().map(fold_expr).collect();
            match func.as_str() {
                funcs::MUL if folded_args.len() == 2 => folded_args[0].multiply(&folded_args[1]),
                funcs::DIV if folded_args.len() == 2 => folded_args[0].divide(&folded_args[1]),
                funcs::MOD if folded_args.len() == 2 => folded_args[0].modulo(&folded_args[1]),
                funcs::LOG2 if folded_args.len() == 1 => folded_args[0].log2(),
                funcs::EXP2 if folded_args.len() == 1 => folded_args[0].exp2(),
                _ => LinExpr::from_term(Term::App { func: *func, args: folded_args }, 1),
            }
        }
    }
}

/// [`fold_expr`] on an owned expression: one without applications is
/// returned as it is, not copied.
fn fold_owned(e: LinExpr) -> LinExpr {
    if e.terms().all(|(t, _)| matches!(t, Term::Var(_))) {
        e
    } else {
        fold_expr(&e)
    }
}

fn fold_pred(p: Pred) -> Pred {
    match p {
        Pred::Eq(e) => Pred::Eq(fold_owned(e)),
        Pred::Le(e) => Pred::Le(fold_owned(e)),
        other => other,
    }
}

/// If `e == 0` can be solved for a term with a ±1 coefficient, returns that
/// term and the expression it equals.
fn solve_for_unit_term(e: &LinExpr) -> Option<(Term, LinExpr)> {
    // Prefer solving for application terms (so that output parameters get
    // eliminated in favour of ordinary variables), then variables.
    let candidates: Vec<(Term, i64)> =
        e.terms().map(|(t, c)| (t.clone(), c)).filter(|(_, c)| *c == 1 || *c == -1).collect();
    let pick = candidates
        .iter()
        .find(|(t, _)| matches!(t, Term::App { .. }))
        .or_else(|| candidates.first())?;
    let (term, coeff) = pick.clone();
    // e = coeff*term + rest == 0  =>  term = -rest / coeff.
    let mut rest = e.clone();
    rest.add_term(term.clone(), -coeff);
    let rhs = if coeff == 1 { rest.scaled(-1) } else { rest };
    Some((term, rhs))
}

// ---------------------------------------------------------------------------
// Fourier–Motzkin elimination (rational relaxation).
// ---------------------------------------------------------------------------

enum FmResult {
    Infeasible,
    Feasible,
    Unknown,
}

/// Decides rational feasibility of `rows` (each row is `expr <= 0`).
fn fourier_motzkin(rows: &[LinExpr], combines: &mut usize) -> FmResult {
    // Collect the top-level terms used as variables.
    let mut vars: BTreeSet<Term> = BTreeSet::new();
    for r in rows {
        for (t, _) in r.terms() {
            vars.insert(t.clone());
        }
    }
    if vars.len() > MAX_FM_VARS {
        return FmResult::Unknown;
    }
    let mut rows: Vec<LinExpr> = rows.to_vec();
    for var in vars {
        let mut lowers: Vec<LinExpr> = Vec::new(); // coeff < 0: var >= expr
        let mut uppers: Vec<LinExpr> = Vec::new(); // coeff > 0: var <= expr
        let mut rest: Vec<LinExpr> = Vec::new();
        for r in rows.into_iter() {
            let coeff = r.terms().find(|(t, _)| *t == &var).map_or(0, |(_, c)| c);
            if coeff == 0 {
                rest.push(r);
            } else if coeff > 0 {
                uppers.push(r);
            } else {
                lowers.push(r);
            }
        }
        // Combine every lower bound with every upper bound.
        for lo in &lowers {
            let lo_c = lo.terms().find(|(t, _)| *t == &var).map(|(_, c)| c).unwrap();
            for up in &uppers {
                let up_c = up.terms().find(|(t, _)| *t == &var).map(|(_, c)| c).unwrap();
                // lo: lo_c*var + lo_rest <= 0 with lo_c < 0
                // up: up_c*var + up_rest <= 0 with up_c > 0
                // Eliminate var: up_c*(-lo) >= ... combine as
                //   up_c * lo + (-lo_c) * up <= 0
                *combines += 1;
                let combined = lo.scaled(up_c) + up.scaled(-lo_c);
                match combined.as_constant() {
                    Some(c) if c > 0 => return FmResult::Infeasible,
                    Some(_) => {}
                    None => rest.push(combined),
                }
                if rest.len() > MAX_FM_ROWS {
                    return FmResult::Unknown;
                }
            }
        }
        rows = rest;
    }
    // All variables eliminated; remaining rows are constants.
    for r in &rows {
        if let Some(c) = r.as_constant() {
            if c > 0 {
                return FmResult::Infeasible;
            }
        }
    }
    FmResult::Feasible
}

// ---------------------------------------------------------------------------
// Bounded integer model search.
// ---------------------------------------------------------------------------

/// Searches for a small non-negative integer assignment satisfying every
/// literal in `lits`.
///
/// The odometer walks the atoms' candidate values with the first atom as
/// its fastest digit. The literals are compiled once into a [`Search`] over
/// dense atom slots, so each assignment is one `Vec<i64>` update and flat
/// row evaluations; a [`Model`] is built only for the assignment returned.
fn find_model(lits: &[Pred], tried: &mut usize) -> Option<Model> {
    // Atoms to assign: every variable and uninterpreted application, nested
    // ones included. Interpreted applications are computed from their
    // arguments, whose own terms are atoms. Candidate domain: small
    // naturals plus constants appearing in literals.
    let mut atoms: BTreeSet<&Term> = BTreeSet::new();
    let mut domain: BTreeSet<i64> = (0..=ENUM_DOMAIN_MAX).collect();
    for lit in lits {
        let (Pred::Eq(e) | Pred::Le(e)) = lit else { continue };
        e.for_each_term(&mut |t| match t {
            Term::App { func, .. } if Op::interpreted(func.as_str()).is_some() => {}
            _ => {
                atoms.insert(t);
            }
        });
        let c = e.constant_part();
        for v in [c.abs(), c.abs() + 1, (c.abs()).saturating_sub(1)] {
            if (0..=4096).contains(&v) {
                domain.insert(v);
            }
        }
    }
    let atoms: Vec<&Term> = atoms.into_iter().collect();
    if atoms.len() > MAX_ENUM_ATOMS {
        return None;
    }
    let mut domain: Vec<i64> = domain.into_iter().collect();
    let total: f64 = (domain.len() as f64).powi(atoms.len() as i32);
    if total > MAX_ENUM_ASSIGNMENTS as f64 {
        // Shrink: fall back to the small-naturals domain only.
        domain = (0..=ENUM_DOMAIN_MAX).collect();
    }

    let values = Search::compile(&atoms, lits).run(&domain, tried)?;
    Some(atoms.into_iter().cloned().zip(values).collect())
}

/// An interpreted function, resolved from its name once per search.
#[derive(Clone, Copy, Debug)]
enum Op {
    Mul,
    Div,
    Mod,
    Log2,
    Exp2,
    /// An interpreted name at the wrong arity: never evaluates.
    Undefined,
}

impl Op {
    fn interpreted(name: &str) -> Option<(Op, usize)> {
        match name {
            funcs::MUL => Some((Op::Mul, 2)),
            funcs::DIV => Some((Op::Div, 2)),
            funcs::MOD => Some((Op::Mod, 2)),
            funcs::LOG2 => Some((Op::Log2, 1)),
            funcs::EXP2 => Some((Op::Exp2, 1)),
            _ => None,
        }
    }
}

/// One term of a compiled row.
#[derive(Clone, Copy, Debug)]
enum Node {
    /// The value of the atom in this slot.
    Slot(u32),
    /// An interpreted application whose arguments are the rows starting at
    /// this index (one row for `log2`/`exp2`, two for the others).
    Apply(Op, u32),
}

/// A compiled linear expression: `constant + Σ coeff·node` over
/// `Search::terms[start..end]`.
#[derive(Clone, Copy, Debug, Default)]
struct Row {
    constant: i64,
    start: u32,
    end: u32,
}

/// Two applications of one uninterpreted function that functional
/// consistency compares: their slots and their first argument rows.
#[derive(Clone, Copy, Debug)]
struct CongruencePair {
    slots: (u32, u32),
    args: (u32, u32),
    arity: u32,
}

/// A cube's literals compiled over dense atom slots: the evaluation side of
/// [`find_model`]. Every term lives in one flat array, and every
/// interpreted function is resolved to an [`Op`] up front.
#[derive(Debug, Default)]
struct Search {
    /// Number of atom slots (the length of a value vector).
    slots: usize,
    rows: Vec<Row>,
    terms: Vec<(i64, Node)>,
    /// `(is_equality, row)`: the literal `row == 0` or `row <= 0`.
    lits: Vec<(bool, u32)>,
    pairs: Vec<CongruencePair>,
}

impl Search {
    /// Compiles `lits` over `atoms` (sorted, so a term's slot is its index).
    fn compile(atoms: &[&Term], lits: &[Pred]) -> Search {
        let mut search = Search { slots: atoms.len(), ..Search::default() };
        for lit in lits {
            let (is_eq, e) = match lit {
                Pred::Eq(e) => (true, e),
                Pred::Le(e) => (false, e),
                _ => unreachable!("cube literals are Le/Eq"),
            };
            let row = search.args(std::slice::from_ref(e), atoms);
            search.lits.push((is_eq, row));
        }
        for (i, a) in atoms.iter().enumerate() {
            let Term::App { func: fa, args: argsa } = a else { continue };
            for (j, b) in atoms.iter().enumerate().skip(i + 1) {
                let Term::App { func: fb, args: argsb } = b else { continue };
                if fa != fb || argsa.len() != argsb.len() {
                    continue;
                }
                let first_a = search.args(argsa, atoms);
                let first_b = search.args(argsb, atoms);
                search.pairs.push(CongruencePair {
                    slots: (i as u32, j as u32),
                    args: (first_a, first_b),
                    arity: argsa.len() as u32,
                });
            }
        }
        search
    }

    /// Compiles `args` into consecutive rows and returns the first index.
    fn args(&mut self, args: &[LinExpr], atoms: &[&Term]) -> u32 {
        let first = self.rows.len() as u32;
        self.rows.resize(self.rows.len() + args.len(), Row::default());
        for (k, a) in args.iter().enumerate() {
            self.fill(first + k as u32, a, atoms);
        }
        first
    }

    /// Compiles `e` into the reserved row `row`. Nested argument rows are
    /// compiled first, so the row's own terms stay contiguous.
    fn fill(&mut self, row: u32, e: &LinExpr, atoms: &[&Term]) {
        let nodes: Vec<(i64, Node)> = e
            .terms()
            .map(|(t, coeff)| {
                let node = match t {
                    Term::App { func, args } => match Op::interpreted(func.as_str()) {
                        Some((op, arity)) if args.len() == arity => {
                            Node::Apply(op, self.args(args, atoms))
                        }
                        Some(_) => Node::Apply(Op::Undefined, 0),
                        None => Node::Slot(Self::slot(atoms, t)),
                    },
                    Term::Var(_) => Node::Slot(Self::slot(atoms, t)),
                };
                (coeff, node)
            })
            .collect();
        let start = self.terms.len() as u32;
        self.terms.extend(nodes);
        let end = self.terms.len() as u32;
        self.rows[row as usize] = Row { constant: e.constant_part(), start, end };
    }

    fn slot(atoms: &[&Term], t: &Term) -> u32 {
        atoms.binary_search(&t).expect("every leaf term is an atom") as u32
    }

    /// Walks the odometer over `domain` and returns the first satisfying
    /// value vector, counting every assignment tried into `tried`.
    fn run(&self, domain: &[i64], tried: &mut usize) -> Option<Vec<i64>> {
        let n = self.slots;
        let mut values = vec![domain[0]; n];
        if n == 0 {
            return self.satisfied(&values).then_some(values);
        }
        let mut indices = vec![0usize; n];
        let mut count = 0usize;
        loop {
            count += 1;
            *tried += 1;
            if count > MAX_ENUM_ASSIGNMENTS {
                return None;
            }
            if self.consistent(&values) && self.satisfied(&values) {
                return Some(values);
            }
            let mut k = 0;
            loop {
                indices[k] += 1;
                if indices[k] < domain.len() {
                    values[k] = domain[indices[k]];
                    break;
                }
                indices[k] = 0;
                values[k] = domain[0];
                k += 1;
                if k == n {
                    return None;
                }
            }
        }
    }

    /// Every literal evaluates and holds.
    fn satisfied(&self, values: &[i64]) -> bool {
        self.lits.iter().all(|&(is_eq, row)| match self.eval(row, values) {
            Some(v) if is_eq => v == 0,
            Some(v) => v <= 0,
            None => false,
        })
    }

    /// Rejects assignments where two applications of the same uninterpreted
    /// function receive equal argument values but different results.
    fn consistent(&self, values: &[i64]) -> bool {
        self.pairs.iter().all(|p| {
            values[p.slots.0 as usize] == values[p.slots.1 as usize]
                || (0..p.arity).any(|k| {
                    match (self.eval(p.args.0 + k, values), self.eval(p.args.1 + k, values)) {
                        (Some(a), Some(b)) => a != b,
                        _ => true,
                    }
                })
        })
    }

    fn eval(&self, row: u32, values: &[i64]) -> Option<i64> {
        let row = self.rows[row as usize];
        let mut total = row.constant;
        for &(coeff, node) in &self.terms[row.start as usize..row.end as usize] {
            let v = match node {
                Node::Slot(s) => values[s as usize],
                Node::Apply(op, args) => self.apply(op, args, values)?,
            };
            total = total.checked_add(coeff.checked_mul(v)?)?;
        }
        Some(total)
    }

    /// Evaluates an interpreted application as `Model::eval_term` does:
    /// `None` on division by zero, `log2` of a non-positive value, `exp2`
    /// outside `0..=62`, or an `i64` overflow.
    fn apply(&self, op: Op, args: u32, values: &[i64]) -> Option<i64> {
        match op {
            Op::Log2 => {
                let v = self.eval(args, values)?;
                (v > 0).then(|| {
                    let v = v as u64;
                    if v <= 1 {
                        0
                    } else {
                        (64 - (v - 1).leading_zeros()) as i64
                    }
                })
            }
            Op::Exp2 => {
                let v = self.eval(args, values)?;
                (0..=62).contains(&v).then(|| 1i64 << v)
            }
            Op::Mul | Op::Div | Op::Mod => {
                let a = self.eval(args, values)?;
                let b = self.eval(args + 1, values)?;
                match op {
                    Op::Mul => a.checked_mul(b),
                    Op::Div => a.checked_div(b),
                    _ => a.checked_rem(b),
                }
            }
            Op::Undefined => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> LinExpr {
        LinExpr::var(name)
    }

    #[test]
    fn proves_simple_arithmetic_facts() {
        let mut s = Solver::new();
        s.assume(Pred::ge(var("L"), LinExpr::constant(1)));
        assert_eq!(s.prove(&Pred::ge(var("L"), LinExpr::constant(0))), Outcome::Proved);
        assert_eq!(
            s.prove(&Pred::ge(var("L") + LinExpr::constant(2), LinExpr::constant(3))),
            Outcome::Proved
        );
        assert!(matches!(
            s.prove(&Pred::ge(var("L"), LinExpr::constant(2))),
            Outcome::Disproved(_)
        ));
        assert_eq!(s.stats().queries, 3);
    }

    #[test]
    fn equalities_propagate() {
        let mut s = Solver::new();
        s.assume(Pred::eq(var("M"), var("L") + LinExpr::constant(2)));
        s.assume(Pred::ge(var("L"), LinExpr::constant(1)));
        assert_eq!(s.prove(&Pred::ge(var("M"), LinExpr::constant(3))), Outcome::Proved);
        assert_eq!(s.prove(&Pred::gt(var("M"), var("L"))), Outcome::Proved);
    }

    #[test]
    fn interval_containment_style_queries() {
        // Availability [G+i, G+i+1) read at G+i with 0 <= i < N.
        let mut s = Solver::new();
        s.assume(Pred::ge(var("i"), LinExpr::constant(0)));
        s.assume(Pred::lt(var("i"), var("N")));
        s.assume(Pred::ge(var("N"), LinExpr::constant(1)));
        let read = var("G") + var("i");
        let avail_start = var("G") + var("i");
        let avail_end = var("G") + var("i") + LinExpr::constant(1);
        assert_eq!(s.prove(&Pred::ge(read.clone(), avail_start)), Outcome::Proved);
        assert_eq!(s.prove(&Pred::lt(read, avail_end)), Outcome::Proved);
    }

    #[test]
    fn fpu_imbalance_is_refuted_with_counterexample() {
        // The §3.2 walkthrough: with only #AddL >= 1 and #MulL >= 1 known,
        // the checker cannot show the adder and multiplier latencies agree.
        let mut s = Solver::new();
        s.assume(Pred::ge(var("Add::L"), LinExpr::constant(1)));
        s.assume(Pred::ge(var("Mul::L"), LinExpr::constant(1)));
        match s.prove(&Pred::eq(var("Add::L"), var("Mul::L"))) {
            Outcome::Disproved(m) => {
                let a = m.value(&Term::var("Add::L")).unwrap();
                let b = m.value(&Term::var("Mul::L")).unwrap();
                assert_ne!(a, b);
                assert!(a >= 1 && b >= 1);
            }
            other => panic!("expected Disproved, got {other:?}"),
        }
    }

    #[test]
    fn output_parameter_congruence() {
        // FAdd[16,8]::#L == FAdd[16,8]::#L is provable because both sides are
        // the same application.
        let mut s = Solver::new();
        let app = LinExpr::from_term(
            Term::app("FAdd::#L", vec![LinExpr::constant(16), LinExpr::constant(8)]),
            1,
        );
        assert_eq!(s.prove(&Pred::eq(app.clone(), app.clone())), Outcome::Proved);

        // Max[A,B]::#O == Max[X,Y]::#O holds when A==X and B==Y (congruence
        // through equality substitution).
        let mut s = Solver::new();
        s.assume(Pred::eq(var("A"), var("X")));
        s.assume(Pred::eq(var("B"), var("Y")));
        let m1 = LinExpr::from_term(Term::app("Max::#O", vec![var("A"), var("B")]), 1);
        let m2 = LinExpr::from_term(Term::app("Max::#O", vec![var("X"), var("Y")]), 1);
        assert_eq!(s.prove(&Pred::eq(m1.clone(), m2.clone())), Outcome::Proved);

        // Without those facts the equality is not provable.
        let mut s = Solver::new();
        let out = s.prove(&Pred::eq(m1, m2));
        assert_ne!(out, Outcome::Proved);
    }

    #[test]
    fn max_component_semantics_from_where_clauses() {
        // Max's output parameter is only known through its where clauses:
        // O >= A, O >= B, (O == A || O == B).
        let mut s = Solver::new();
        let o = LinExpr::from_term(Term::app("Max::#O", vec![var("A"), var("B")]), 1);
        s.assume(Pred::ge(o.clone(), var("A")));
        s.assume(Pred::ge(o.clone(), var("B")));
        s.assume(Pred::or([Pred::eq(o.clone(), var("A")), Pred::eq(o.clone(), var("B"))]));
        // The pipeline-balancing obligations: O - A >= 0 and O - B >= 0.
        assert_eq!(s.prove(&Pred::ge(o.clone() - var("A"), LinExpr::zero())), Outcome::Proved);
        assert_eq!(s.prove(&Pred::ge(o.clone() - var("B"), LinExpr::zero())), Outcome::Proved);
        // But O == A is not provable in general.
        assert_ne!(s.prove(&Pred::eq(o, var("A"))), Outcome::Proved);
    }

    #[test]
    fn exp2_log2_rewrite() {
        let mut s = Solver::new();
        let n = var("N");
        let roundtrip = n.log2().exp2();
        // exp2(log2(N)) == N via the inverse rewrite.
        assert_eq!(s.prove(&Pred::eq(roundtrip, n.clone())), Outcome::Proved);
        // Constant folding: log2(16) == 4.
        assert_eq!(
            s.prove(&Pred::eq(LinExpr::constant(16).log2(), LinExpr::constant(4))),
            Outcome::Proved
        );
    }

    #[test]
    fn disjunctive_facts() {
        let mut s = Solver::new();
        s.assume(Pred::or([
            Pred::eq(var("N"), LinExpr::constant(2)),
            Pred::eq(var("N"), LinExpr::constant(4)),
        ]));
        assert_eq!(s.prove(&Pred::ge(var("N"), LinExpr::constant(2))), Outcome::Proved);
        assert_eq!(s.prove(&Pred::le(var("N"), LinExpr::constant(4))), Outcome::Proved);
        assert!(matches!(
            s.prove(&Pred::eq(var("N"), LinExpr::constant(2))),
            Outcome::Disproved(_)
        ));
    }

    #[test]
    fn inconsistent_facts_detected() {
        let mut s = Solver::new();
        s.assume(Pred::ge(var("A"), LinExpr::constant(5)));
        s.assume(Pred::le(var("A"), LinExpr::constant(3)));
        assert!(!s.facts_consistent());
        // Everything is provable from inconsistent facts.
        assert_eq!(s.prove(&Pred::eq(var("X"), LinExpr::constant(77))), Outcome::Proved);
    }

    #[test]
    fn scoped_assumptions() {
        let mut s = Solver::new();
        s.assume(Pred::ge(var("W"), LinExpr::constant(1)));
        let mark = s.mark();
        s.assume(Pred::ge(var("W"), LinExpr::constant(12)));
        assert_eq!(s.prove(&Pred::ge(var("W"), LinExpr::constant(10))), Outcome::Proved);
        s.reset_to(mark);
        assert_ne!(s.prove(&Pred::ge(var("W"), LinExpr::constant(10))), Outcome::Proved);
        assert_eq!(s.facts_len(), 1);
    }

    #[test]
    fn marks_survive_scope_exit() {
        // A mark taken inside a scope can be replayed after the scope is
        // popped — the write-conflict pass depends on this.
        let mut s = Solver::new();
        s.assume(Pred::ge(var("W"), LinExpr::constant(1)));
        let outer = s.mark();
        s.assume(Pred::ge(var("W"), LinExpr::constant(12)));
        let inner = s.mark();
        s.reset_to(outer);
        // Current scope no longer proves W >= 10 ...
        assert_ne!(s.prove(&Pred::ge(var("W"), LinExpr::constant(10))), Outcome::Proved);
        // ... but the recorded inner scope still does.
        assert_eq!(
            s.prove_under(inner, &[], &Pred::ge(var("W"), LinExpr::constant(10))),
            Outcome::Proved
        );
        // And extra facts extend a recorded scope without disturbing it.
        assert_eq!(
            s.prove_under(
                outer,
                &[Pred::ge(var("W"), LinExpr::constant(7))],
                &Pred::ge(var("W"), LinExpr::constant(5))
            ),
            Outcome::Proved
        );
        assert_eq!(s.facts_len(), 1);
    }

    #[test]
    fn scope_join_matches_materialized_facts() {
        // Scopes that share a prefix, nest, diverge and contradict each
        // other, plus the empty scope.
        let mut s = Solver::new();
        let empty = s.mark();
        s.assume(Pred::ge(var("W"), LinExpr::constant(1)));
        let root = s.mark();
        s.assume(Pred::ge(var("A"), var("W")));
        let a1 = s.mark();
        s.assume(Pred::le(var("A"), LinExpr::constant(3)));
        let a2 = s.mark();
        s.reset_to(root);
        s.assume(Pred::ge(var("B"), var("A") + LinExpr::constant(2)));
        let b1 = s.mark();
        s.assume(Pred::or([
            Pred::eq(var("B"), LinExpr::constant(4)),
            Pred::eq(var("B"), var("W") * 2),
        ]));
        let b2 = s.mark();
        s.reset_to(root);
        s.assume(Pred::ge(var("A"), LinExpr::constant(5)));
        let c1 = s.mark();
        s.reset_to(root);
        let marks = [empty, root, a1, a2, b1, b2, c1];
        let goals = [
            Pred::ge(var("A"), LinExpr::constant(1)),
            Pred::ge(var("B"), LinExpr::constant(3)),
            Pred::eq(var("A"), var("B")),
            Pred::le(var("W"), LinExpr::constant(10)),
            Pred::or([Pred::le(var("B"), var("A")), Pred::ge(var("B"), var("W"))]),
        ];

        // Two copies run the same query sequence, one joining scopes by fact
        // id and one re-assuming the materialized facts: every outcome and
        // every running statistic must agree.
        let mut joined = s.clone();
        let mut materialized = s;
        for &a in &marks {
            for &b in &marks {
                for goal in &goals {
                    let extra = materialized.facts_at(b);
                    assert_eq!(
                        joined.prove_under_join(a, b, goal),
                        materialized.prove_under(a, &extra, goal),
                        "{a:?} joined with {b:?} proving {goal:?}"
                    );
                    assert_eq!(joined.stats(), materialized.stats());
                }
                let extra = materialized.facts_at(b);
                assert_eq!(
                    joined.consistent_under_join(a, b),
                    materialized.consistent_under(a, &extra),
                    "{a:?} joined with {b:?}"
                );
                assert_eq!(joined.stats(), materialized.stats());
            }
        }
        // Contradictory joins are detected, and the current scope is intact.
        assert!(!joined.consistent_under_join(a2, c1));
        assert!(joined.consistent_under_join(a2, b2));
        assert_eq!(joined.mark(), root);
        assert_eq!(joined.facts_len(), 1);
    }

    #[test]
    fn query_cache_hits_on_repeated_obligations() {
        let mut s = Solver::new();
        s.assume(Pred::ge(var("L"), LinExpr::constant(1)));
        let goal = Pred::ge(var("L"), LinExpr::constant(0));
        assert_eq!(s.prove(&goal), Outcome::Proved);
        assert_eq!(s.prove(&goal), Outcome::Proved);
        assert_eq!(s.prove(&goal), Outcome::Proved);
        let stats = s.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn cache_key_ignores_irrelevant_scope_changes() {
        // The same goal under different irrelevant facts still hits: the
        // slicer removes the unrelated facts before the cache lookup.
        let mut s = Solver::new();
        s.assume(Pred::ge(var("L"), LinExpr::constant(1)));
        let goal = Pred::ge(var("L"), LinExpr::constant(0));
        assert_eq!(s.prove(&goal), Outcome::Proved);
        let mark = s.mark();
        s.assume(Pred::ge(var("Other"), LinExpr::constant(3)));
        assert_eq!(s.prove(&goal), Outcome::Proved);
        s.reset_to(mark);
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 1);
        assert!(stats.facts_sliced_out >= 1);
    }

    #[test]
    fn slicing_preserves_vacuous_truth_from_disconnected_contradictions() {
        // Covered by `inconsistent_facts_detected` too, but spelled out: the
        // contradiction lives entirely in the residual.
        let mut s = Solver::new();
        s.assume(Pred::ge(var("A"), LinExpr::constant(5)));
        s.assume(Pred::le(var("A"), LinExpr::constant(3)));
        assert_eq!(s.prove(&Pred::eq(var("ZZZ"), LinExpr::constant(9))), Outcome::Proved);
    }

    #[test]
    fn strict_and_nonstrict_bounds() {
        let mut s = Solver::new();
        s.assume(Pred::lt(var("A"), var("B")));
        assert_eq!(s.prove(&Pred::le(var("A") + LinExpr::constant(1), var("B"))), Outcome::Proved);
        assert_ne!(s.prove(&Pred::lt(var("A") + LinExpr::constant(1), var("B"))), Outcome::Proved);
    }

    #[test]
    fn nonlinear_terms_are_conservative() {
        let mut s = Solver::new();
        // W*H >= 0 is not provable without sign information (terms are
        // opaque), so the solver must not claim it holds.
        let prod = var("W").multiply(&var("H"));
        let out = s.prove(&Pred::ge(prod.clone(), LinExpr::zero()));
        assert_ne!(out, Outcome::Proved);
        // But once assumed, it can be used.
        s.assume(Pred::ge(prod.clone(), LinExpr::constant(4)));
        assert_eq!(s.prove(&Pred::ge(prod, LinExpr::constant(1))), Outcome::Proved);
    }

    #[test]
    fn mod_constraint_from_generator_interface() {
        // Aetherling: some #N where 16 % #N == 0, #N > 0. Given N == 4 the
        // fact 16 % N == 0 must check out (constant folding after subst).
        let mut s = Solver::new();
        s.assume(Pred::eq(var("N"), LinExpr::constant(4)));
        let m = LinExpr::constant(16).modulo(&var("N"));
        assert_eq!(s.prove(&Pred::eq(m, LinExpr::zero())), Outcome::Proved);
    }

    #[test]
    fn shift_balancing_identity() {
        // The corrected FPU: Max >= AddL, so scheduling the mux at G+Max
        // after delaying the adder output by Max-AddL lands inside the
        // shifted availability interval [G + AddL + (Max-AddL), ...).
        let mut s = Solver::new();
        let max = var("Max");
        let addl = var("AddL");
        s.assume(Pred::ge(max.clone(), addl.clone()));
        s.assume(Pred::ge(addl.clone(), LinExpr::constant(1)));
        let avail_start = var("G") + addl.clone() + (max.clone() - addl.clone());
        let read_at = var("G") + max.clone();
        assert_eq!(s.prove(&Pred::eq(avail_start, read_at)), Outcome::Proved);
    }

    /// The reference for [`find_model`]: the same atoms, domain and
    /// odometer, but a fresh [`Model`] per assignment evaluated through
    /// `Pred::eval`, with functional consistency checked pair by pair.
    fn reference_find_model(lits: &[Pred], tried: &mut usize) -> Option<Model> {
        let mut atoms: BTreeSet<Term> = BTreeSet::new();
        let mut domain: BTreeSet<i64> = (0..=ENUM_DOMAIN_MAX).collect();
        for lit in lits {
            let (Pred::Eq(e) | Pred::Le(e)) = lit else { continue };
            e.for_each_term(&mut |t| {
                let interpreted = matches!(t, Term::App { func, .. } if matches!(
                    func.as_str(),
                    funcs::MUL | funcs::DIV | funcs::MOD | funcs::LOG2 | funcs::EXP2
                ));
                if !interpreted {
                    atoms.insert(t.clone());
                }
            });
            let c = e.constant_part().abs();
            domain.extend(
                [c, c + 1, c.saturating_sub(1)].into_iter().filter(|v| (0..=4096).contains(v)),
            );
        }
        let atoms: Vec<Term> = atoms.into_iter().collect();
        if atoms.len() > MAX_ENUM_ATOMS {
            return None;
        }
        let mut domain: Vec<i64> = domain.into_iter().collect();
        if (domain.len() as f64).powi(atoms.len() as i32) > MAX_ENUM_ASSIGNMENTS as f64 {
            domain = (0..=ENUM_DOMAIN_MAX).collect();
        }
        let holds = |m: &Model| lits.iter().all(|l| l.eval(m).unwrap_or(false));
        if atoms.is_empty() {
            return holds(&Model::new()).then(Model::new);
        }
        let consistent = |m: &Model| {
            atoms.iter().enumerate().all(|(i, a)| {
                atoms[i + 1..].iter().all(|b| match (a, b) {
                    (Term::App { func: fa, args: xa }, Term::App { func: fb, args: xb })
                        if fa == fb && xa.len() == xb.len() =>
                    {
                        let va: Option<Vec<i64>> = xa.iter().map(|e| m.eval(e)).collect();
                        let vb: Option<Vec<i64>> = xb.iter().map(|e| m.eval(e)).collect();
                        !(va.is_some() && va == vb && m.value(a) != m.value(b))
                    }
                    _ => true,
                })
            })
        };
        let mut indices = vec![0usize; atoms.len()];
        for count in 1.. {
            *tried += 1;
            if count > MAX_ENUM_ASSIGNMENTS {
                break;
            }
            let m: Model = atoms.iter().cloned().zip(indices.iter().map(|&i| domain[i])).collect();
            if consistent(&m) && holds(&m) {
                return Some(m);
            }
            let Some(k) = indices.iter().position(|&i| i + 1 < domain.len()) else { break };
            indices[..k].fill(0);
            indices[k] += 1;
        }
        None
    }

    /// A random term over three variables: a variable, an application of
    /// one of two uninterpreted functions (so functional consistency has
    /// pairs to compare), or an interpreted application, with zero
    /// divisors and out-of-range `exp2` arguments among them.
    fn search_term(rng: &mut lilac_util::rng::Rng) -> Term {
        let v = |rng: &mut lilac_util::rng::Rng| var(["A", "B", "C"][rng.index(3)]);
        match rng.index(10) {
            0..=2 => v(rng).as_single_term().unwrap().clone(),
            3 => Term::app("F", vec![v(rng) + LinExpr::constant(rng.range_i64(0, 1))]),
            4 => Term::app("G", vec![v(rng), v(rng)]),
            5 => Term::app(funcs::MUL, vec![v(rng), v(rng)]),
            6 => {
                let func = [funcs::DIV, funcs::MOD][rng.index(2)];
                let divisor = if rng.chance(1, 3) { LinExpr::constant(0) } else { v(rng) };
                Term::app(func, vec![v(rng), divisor])
            }
            7 => Term::app(funcs::LOG2, vec![v(rng) + LinExpr::constant(rng.range_i64(-1, 1))]),
            _ => Term::app(funcs::EXP2, vec![v(rng) + LinExpr::constant([0, 61][rng.index(2)])]),
        }
    }

    /// A random `Le`/`Eq` literal. At most one `exp2` term, with a unit
    /// coefficient, so no evaluation overflows an `i64`.
    fn search_literal(rng: &mut lilac_util::rng::Rng) -> Pred {
        let constant = if rng.chance(1, 6) { rng.range_i64(-40, 40) } else { rng.range_i64(-9, 9) };
        let mut e = LinExpr::constant(constant);
        let mut exp2_seen = false;
        for _ in 0..1 + rng.index(3) {
            let t = search_term(rng);
            let exp2 = t.is_app_of(funcs::EXP2);
            if exp2 && exp2_seen {
                continue;
            }
            exp2_seen |= exp2;
            let c = if exp2 { [-1, 1][rng.index(2)] } else { [-2, -1, 1, 2][rng.index(4)] };
            e.add_term(t, c);
        }
        if rng.chance(1, 5) {
            Pred::Eq(e)
        } else {
            Pred::Le(e)
        }
    }

    #[test]
    fn compiled_search_matches_the_model_odometer() {
        let sum = |names: &[&str]| names.iter().fold(LinExpr::zero(), |acc, n| acc + var(n));
        let app = |f: &str, args: &[&str]| {
            LinExpr::from_term(Term::app(f, args.iter().map(|a| var(a)).collect()), 1)
        };
        let mut sets: Vec<Vec<Pred>> = vec![
            // Constants 20 and 30 widen the domain to 16 values, and
            // 16^5 > 400 000 assignments: the search falls back to 0..=9.
            vec![
                Pred::Le(LinExpr::constant(30) - sum(&["A", "B", "C", "D", "E"])),
                Pred::Le(var("A") - LinExpr::constant(20)),
            ],
            // No model in 0..=9 for six atoms: the search stops at the cap.
            vec![Pred::Le(LinExpr::constant(100) - sum(&["A", "B", "C", "D", "E", "F"]))],
            // The first assignments that satisfy these literals give equal
            // arguments different results; functional consistency must
            // skip them.
            vec![Pred::ge(app("F", &["A"]), app("F", &["B"]) + LinExpr::constant(1))],
            vec![Pred::ge(app("G", &["A", "B"]), app("G", &["B", "A"]) + LinExpr::constant(1))],
        ];
        // Random sets keep to three atoms, so the reference's exhaustive
        // walks stay short.
        let atoms = |lits: &[Pred]| {
            let mut ts = Vec::new();
            for lit in lits {
                let (Pred::Eq(e) | Pred::Le(e)) = lit else { continue };
                e.for_each_term(&mut |t| ts.push(t));
            }
            ts.retain(|t| !matches!(t, Term::App { func, .. } if func.as_str().starts_with('$')));
            ts.sort();
            ts.dedup();
            ts.len()
        };
        let mut rng = lilac_util::rng::Rng::new(0x5eed);
        while sets.len() < 400 {
            let lits: Vec<Pred> = (0..1 + rng.index(3)).map(|_| search_literal(&mut rng)).collect();
            if atoms(&lits) <= 3 {
                sets.push(lits);
            }
        }
        let (mut found, mut capped) = (0, 0);
        for lits in &sets {
            let (mut got_tried, mut want_tried) = (0, 0);
            let got = find_model(lits, &mut got_tried);
            let want = reference_find_model(lits, &mut want_tried);
            assert_eq!(got, want, "models differ on {lits:?}");
            assert_eq!(got_tried, want_tried, "assignment counts differ on {lits:?}");
            found += usize::from(got.is_some());
            capped += usize::from(got_tried > MAX_ENUM_ASSIGNMENTS);
        }
        assert_eq!(capped, 1, "exactly the six-atom set runs into the cap");
        assert!(
            found > 50 && found < sets.len() - 50,
            "{found} of {} sets have a model",
            sets.len()
        );
    }

    /// The reference for the atom-free early exits: `decide`'s literal
    /// path as it was without them, joining every goal cube to the whole
    /// fact base and saturating it.
    fn reference_decide(s: &mut Solver, fact_ids: &[u32], goal: &Pred) -> Outcome {
        let Some(goal_cubes) = goal.clone().negate().to_nnf().to_dnf(MAX_CUBES) else {
            return Outcome::Unknown;
        };
        if goal_cubes.is_empty() {
            return Outcome::Proved;
        }
        let mut base: Vec<Pred> = fact_ids.iter().map(|&id| s.facts.pred(id).clone()).collect();
        base.sort();
        base.dedup();
        let mut any_unknown = false;
        for goal_cube in goal_cubes {
            s.stats.cubes += 1;
            let mut cube = base.clone();
            cube.extend(goal_cube);
            match s.saturated_cube_sat(cube, true) {
                SatResult::Unsat => continue,
                SatResult::Sat(model) => return Outcome::Disproved(model),
                SatResult::Unknown => any_unknown = true,
            }
        }
        if any_unknown {
            Outcome::Unknown
        } else {
            Outcome::Proved
        }
    }

    /// A literal over `A`, `B`, `C` (see [`search_literal`]) or, one time
    /// in three, an atom-free one, true or false.
    fn cube_literal(rng: &mut lilac_util::rng::Rng) -> Pred {
        if rng.chance(1, 3) {
            let c = LinExpr::constant(rng.range_i64(-2, 2));
            if rng.chance(1, 2) {
                Pred::Le(c)
            } else {
                Pred::Eq(c)
            }
        } else {
            search_literal(rng)
        }
    }

    #[test]
    fn early_exits_match_saturation() {
        let mut rng = lilac_util::rng::Rng::new(0xea51);
        let (mut exits, mut sat) = (0, 0);
        for _ in 0..400 {
            let facts: Vec<Pred> = (0..rng.index(4)).map(|_| cube_literal(&mut rng)).collect();
            let goal = match rng.index(3) {
                0 => cube_literal(&mut rng),
                1 => Pred::and([cube_literal(&mut rng), cube_literal(&mut rng)]),
                _ => Pred::or([cube_literal(&mut rng), cube_literal(&mut rng)]),
            };
            // Both sides see the same interned facts.
            let mut fast = Solver::with_config(SolverConfig::naive());
            for f in &facts {
                fast.assume(f.clone());
            }
            let ids = fast.facts.chain_from(fast.facts.head);
            let mut reference = fast.clone();
            let got = fast.decide(&ids, &goal);
            let want = reference_decide(&mut reference, &ids, &goal);
            assert_eq!(got, want, "{facts:?} ⊢ {goal:?}");
            assert_eq!(fast.stats(), reference.stats(), "{facts:?} ⊢ {goal:?}");

            // The kernel alone, with and without a model.
            let mut cube = facts.clone();
            cube.push(cube_literal(&mut rng));
            exits += usize::from(cube.iter().any(Pred::is_false_literal));
            for want_model in [false, true] {
                let (mut a, mut b) = (Solver::new(), Solver::new());
                let got = a.cube_sat(cube.clone(), want_model);
                let want = b.saturated_cube_sat(cube.clone(), want_model);
                sat += usize::from(matches!(got, SatResult::Sat(_)));
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{cube:?}");
                assert_eq!(a.stats(), b.stats(), "{cube:?}");
            }
        }
        assert!(exits > 50 && sat > 50, "{exits} early exits, {sat} satisfiable cubes");
    }

    #[test]
    fn model_search_treats_overflow_as_undefined() {
        // 2·2^62 overflows an i64: X = 62 must not pass for a model of
        // `2*exp2(X) <= 0` (wrapped, it reads i64::MIN), and X = 61 fails
        // the literal honestly.
        let x = var("X");
        let lits = [Pred::Le(x.exp2().scaled(2)), Pred::ge(x.clone(), LinExpr::constant(61))];
        let mut tried = 0;
        let model = find_model(&lits, &mut tried);
        if let Some(m) = &model {
            assert!(lits.iter().all(|l| l.eval(m) == Some(true)), "{m} violates {lits:?}");
        }
        assert_eq!(model, None);
        assert!(tried > 0);
        let at = |v: i64| -> Model { [(Term::var("X"), v)].into_iter().collect() };
        assert_eq!(at(62).eval(&x.exp2().scaled(2)), None);
        assert_eq!(at(61).eval(&x.exp2().scaled(2)), Some(1 << 62));
        // i64::MIN / -1 and i64::MIN % -1 overflow too.
        let min: Model = [(Term::var("A"), i64::MIN), (Term::var("B"), -1)].into_iter().collect();
        assert_eq!(min.eval(&var("A").divide(&var("B"))), None);
        assert_eq!(min.eval(&var("A").modulo(&var("B"))), None);
        assert_eq!(min.eval(&var("A").multiply(&var("B"))), None);
    }

    #[test]
    fn query_budget_raises_sentinel_panic() {
        use lilac_util::fault::{BudgetExhausted, BudgetKind};
        let config = SolverConfig {
            budget: Some(QueryBudget::unlimited().with_max_queries(2)),
            ..SolverConfig::default()
        };
        let mut s = Solver::with_config(config);
        s.assume(Pred::ge(var("L"), LinExpr::constant(1)));
        // Two queries fit the budget...
        assert_eq!(s.prove(&Pred::ge(var("L"), LinExpr::constant(0))), Outcome::Proved);
        assert_eq!(s.prove(&Pred::ge(var("L"), LinExpr::constant(1))), Outcome::Proved);
        // ...the third raises the typed sentinel payload, catchable upstream.
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.prove(&Pred::ge(var("L"), LinExpr::constant(1)))
        }))
        .expect_err("third query must exhaust the budget");
        let b = payload.downcast_ref::<BudgetExhausted>().expect("sentinel payload");
        assert_eq!(b.kind, BudgetKind::Queries);
    }

    #[test]
    fn expired_deadline_budget_fires_immediately() {
        use lilac_util::fault::{BudgetExhausted, BudgetKind};
        let config = SolverConfig {
            budget: Some(QueryBudget::unlimited().already_expired()),
            ..SolverConfig::default()
        };
        let mut s = Solver::with_config(config);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.prove(&Pred::ge(var("L"), LinExpr::constant(0)))
        }))
        .expect_err("expired deadline must fire on the first query");
        let b = payload.downcast_ref::<BudgetExhausted>().expect("sentinel payload");
        assert_eq!(b.kind, BudgetKind::Deadline);
    }
}
