//! The timeline type checker.
//!
//! For every Lilac component the checker walks the body twice per scope:
//! a *declaration pass* registers instances, bundles, `let` bindings,
//! output-parameter bindings and `assume`d facts (so commands may refer to
//! names declared later in the same scope, as hardware descriptions commonly
//! do), and a *checking pass* generates and discharges the proof
//! obligations:
//!
//! * connections and invocation arguments produce **valid read** obligations
//!   — the source's availability interval must contain the destination's
//!   requirement interval;
//! * writes to ports and bundle elements produce **non-conflicting write**
//!   obligations — any two potentially-overlapping drivers must be proved
//!   disjoint (distinct indices, disjoint compile-time branches, or distinct
//!   loop iterations);
//! * invocations produce **resource safety** obligations — two uses of the
//!   same physical instance must be separated by at least its initiation
//!   interval, both within one activation of the parent and across pipelined
//!   activations of the parent.
//!
//! All obligations are discharged for *every* admissible parameterization;
//! refuted obligations carry the counterexample parameter assignment.

use crate::comp::CompLibrary;
use crate::fingerprint::{component_hash, ComponentHash};
use crate::lower::{
    event_var, instantiation_conditions, lower_constraint, lower_param_expr, lower_time,
    out_param_expr, param_var, resolve_param_args, InstanceInfo, LowerEnv, Obligation,
};
use crate::reports::PriorReports;
use lilac_ast::{
    Access, Cmd, Interval, Module, ModuleKind, PortDecl, PortType, Program, Signature,
};
use lilac_solver::{
    FactMark, LinExpr, Model, Outcome, Pred, Solver, SolverConfig, SolverStats, Term,
};
use lilac_util::diag::{CheckError, Diagnostic, ErrorReporter, LilacError, Result};
use lilac_util::hash::FxHashMap;
use lilac_util::intern::Symbol;
use lilac_util::par::WorkerPanic;
use lilac_util::span::Span;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Per-component summary produced by the checker.
#[derive(Clone, Debug)]
pub struct ComponentReport {
    /// Component name.
    pub name: Symbol,
    /// Number of proof obligations generated.
    pub obligations: usize,
    /// Number of obligations proved.
    pub proved: usize,
    /// Diagnostics (errors and warnings) for this component.
    pub diagnostics: Vec<Diagnostic>,
    /// Wall-clock time spent checking the component.
    pub elapsed: Duration,
    /// Solver effort spent on this component (queries, cache hits, cubes).
    pub solver_stats: SolverStats,
    /// Set when the answer was produced on a degraded path — e.g. the
    /// optimized check panicked or blew its deadline and a fallback retry
    /// supplied the verdict. Like timing and stats, this describes *how*
    /// the answer was reached, so [`CheckReport::equivalent`] ignores it.
    pub degraded: Option<CheckError>,
    /// Netlist-level lints from the static known-bits/interval analysis
    /// (`lilac-analysis`), attached after elaboration by callers that
    /// lower the component — the type checker itself never sees a
    /// netlist. Advisory, so [`CheckReport::equivalent`] ignores it.
    pub lints: Vec<Diagnostic>,
}

impl ComponentReport {
    /// True if no error diagnostics were produced.
    pub fn is_ok(&self) -> bool {
        self.diagnostics.iter().all(|d| d.kind != lilac_util::diag::DiagnosticKind::Error)
    }
}

/// Whole-program check summary.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// One report per Lilac component (externs and generated modules have no
    /// body to check).
    pub components: Vec<ComponentReport>,
}

impl CheckReport {
    /// True if every component checked without errors.
    pub fn is_ok(&self) -> bool {
        self.components.iter().all(ComponentReport::is_ok)
    }

    /// Total number of obligations across all components.
    pub fn total_obligations(&self) -> usize {
        self.components.iter().map(|c| c.obligations).sum()
    }

    /// Sum of the per-component checking times. Not the wall clock of a
    /// whole-program check, which also builds the component library.
    pub fn total_elapsed(&self) -> Duration {
        self.components.iter().map(|c| c.elapsed).sum()
    }

    /// Report for a specific component.
    pub fn component(&self, name: &str) -> Option<&ComponentReport> {
        self.components.iter().find(|c| c.name.as_str() == name)
    }

    /// Aggregated solver statistics across all components, summed in
    /// component order.
    pub fn solver_stats(&self) -> SolverStats {
        self.components.iter().fold(SolverStats::default(), |acc, c| acc.merged(c.solver_stats))
    }

    /// True when two reports agree on everything the user can observe:
    /// component names, obligation and proof counts, and diagnostics.
    /// Timing and solver-effort counters are excluded — they describe *how*
    /// the answer was reached, not the answer. This is the A/B contract the
    /// benchmark harness and the fuzzer's differential oracle both pin.
    pub fn equivalent(&self, other: &CheckReport) -> bool {
        self.components.len() == other.components.len()
            && self.components.iter().zip(other.components.iter()).all(|(x, y)| {
                x.name == y.name
                    && x.obligations == y.obligations
                    && x.proved == y.proved
                    && format!("{:?}", x.diagnostics) == format!("{:?}", y.diagnostics)
            })
    }
}

/// Knobs controlling how a whole program is checked.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Has no effect: every component is checked on the caller's thread,
    /// in component order. Kept so existing struct literals still compile.
    pub parallel: bool,
    /// Solver configuration used for every component.
    pub solver_config: SolverConfig,
    /// Share one solver's fact arena across the whole component via
    /// [`FactMark`] snapshots. When disabled, every write/invoke record
    /// eagerly clones the fact vector and every conflict or resource-safety
    /// pair is discharged by a throwaway solver seeded from those clones —
    /// the pre-optimization behaviour kept as the A/B baseline.
    pub indexed_scopes: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            parallel: true,
            solver_config: SolverConfig::default(),
            indexed_scopes: true,
        }
    }
}

impl CheckOptions {
    /// The pre-optimization path: a naive solver (no slicing, no caching)
    /// and cloned fact snapshots instead of indexed scopes. The reference
    /// the differential oracles compare the default path against, and the
    /// path the service retries on.
    pub fn naive() -> CheckOptions {
        CheckOptions {
            parallel: false,
            solver_config: SolverConfig::naive(),
            indexed_scopes: false,
        }
    }
}

/// Type-checks a whole program with default options (sliced + cached
/// solver, indexed scopes), one component after another on the caller's
/// thread.
///
/// # Errors
///
/// Returns all error diagnostics if any component fails to check; the
/// successful per-component reports are lost in that case, so callers that
/// want partial results should call [`check_component`] per module.
pub fn check_program(program: &Program) -> Result<CheckReport> {
    check_program_with(program, &CheckOptions::default())
}

/// Type-checks a whole program under explicit [`CheckOptions`].
///
/// # Errors
///
/// See [`check_program`].
pub fn check_program_with(program: &Program, options: &CheckOptions) -> Result<CheckReport> {
    check_against(program, None, |lib, module| check_isolated(lib, module, options)).verdict
}

/// What [`check_program_incremental`] did: the report plus hit/miss counts.
#[derive(Clone, Debug)]
pub struct IncrementalReport {
    /// The per-component reports (replayed or freshly checked), in module
    /// order — [`CheckReport::equivalent`] to a from-scratch check.
    pub report: CheckReport,
    /// Components whose verdict was replayed from the store.
    pub hits: usize,
    /// Components that were checked.
    pub misses: usize,
}

/// Type-checks a program, replaying stored clean verdicts from `prior` for
/// every component whose content hash hits, and admitting the fresh clean
/// verdicts back into `prior` for the next request in the stream.
///
/// The produced report is [`CheckReport::equivalent`] to what
/// [`check_program_with`] returns on the same program — the tenth
/// differential oracle pins exactly that.
///
/// # Errors
///
/// Mirrors [`check_program_with`]: library errors and component error
/// diagnostics are returned as a [`LilacError`] (after `prior` has admitted
/// the clean components).
pub fn check_program_incremental(
    program: &Program,
    options: &CheckOptions,
    prior: &mut PriorReports,
) -> Result<IncrementalReport> {
    let checked =
        check_against(program, Some(&*prior), |lib, module| check_isolated(lib, module, options));
    let (hits, misses) = (checked.hits, checked.misses);
    checked.verdict.map(|report| IncrementalReport { report, hits, misses })
}

/// What [`check_against`] did: the whole-program verdict, plus how many
/// components it replayed from the store and how many it checked. The
/// counts are kept when the verdict is an error; a library error counts
/// neither.
#[derive(Debug)]
pub struct Checked {
    /// `Ok` with the per-component reports in module order, or `Err` with
    /// the library error or every component error diagnostic.
    pub verdict: Result<CheckReport>,
    /// Components whose verdict was replayed from the store.
    pub hits: usize,
    /// Components handed to the per-component check.
    pub misses: usize,
}

/// The one whole-program checking body. Builds the component library; with
/// a `store`, hashes every component and looks every one up before
/// admitting anything, so a request's hit count never depends on its own
/// misses; runs `check` on each miss in component order on the caller's
/// thread; admits the clean fresh verdicts; and folds the verdict. Without
/// a store nothing is hashed and every component is checked.
///
/// `check` decides how one component is checked: the plain entry points
/// pass [`check_component_with`] under panic isolation, and
/// `lilac-service` passes its degradation ladder. The store locks only
/// inside a lookup or an insert, never while `check` runs, so concurrent
/// callers can share one store.
pub fn check_against(
    program: &Program,
    store: Option<&PriorReports>,
    mut check: impl FnMut(&CompLibrary<'_>, &Module) -> ComponentReport,
) -> Checked {
    let lib = match CompLibrary::build(program) {
        Ok(lib) => lib,
        Err(e) => return Checked { verdict: Err(e), hits: 0, misses: 0 },
    };
    let keyed: Vec<(&Module, Option<ComponentHash>, Option<ComponentReport>)> = lib
        .iter()
        .filter(|m| matches!(m.kind, ModuleKind::Comp { .. }))
        .map(|m| match store {
            Some(store) => {
                let hash = component_hash(&lib, m);
                (m, Some(hash), store.lookup(hash, m.name()))
            }
            None => (m, None, None),
        })
        .collect();
    let hits = keyed.iter().filter(|(_, _, replay)| replay.is_some()).count();
    let misses = keyed.len() - hits;
    let components = keyed
        .into_iter()
        .map(|(module, hash, replay)| {
            replay.unwrap_or_else(|| {
                let report = check(&lib, module);
                if let (Some(store), Some(hash)) = (store, hash) {
                    store.insert(hash, &report);
                }
                report
            })
        })
        .collect();
    Checked { verdict: verdict(components), hits, misses }
}

/// Checks one component under panic isolation: a checker panic (a bug, an
/// injected fault, an exhausted budget) becomes an error diagnostic on its
/// own component instead of tearing down the process and losing every
/// other component's result.
fn check_isolated(
    lib: &CompLibrary<'_>,
    module: &Module,
    options: &CheckOptions,
) -> ComponentReport {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_component_with(lib, module, options)
    }))
    .unwrap_or_else(|p| panic_report(module, &WorkerPanic::from_payload(&*p)))
}

/// Folds per-component reports into a whole-program verdict: the report
/// when no component has an error diagnostic, otherwise every error
/// diagnostic in component order.
fn verdict(components: Vec<ComponentReport>) -> Result<CheckReport> {
    let errors: Vec<Diagnostic> = components
        .iter()
        .flat_map(|c| &c.diagnostics)
        .filter(|d| d.kind == lilac_util::diag::DiagnosticKind::Error)
        .cloned()
        .collect();
    if errors.is_empty() {
        Ok(CheckReport { components })
    } else {
        Err(LilacError::from_diagnostics(errors))
    }
}

/// The report for a component whose checker panicked: one error diagnostic
/// anchored at the component's name, no obligations counted (the count up to
/// the panic is unrecoverable and a partial count would be misleading).
fn panic_report(module: &Module, panic: &WorkerPanic) -> ComponentReport {
    ComponentReport {
        name: module.name(),
        obligations: 0,
        proved: 0,
        diagnostics: vec![Diagnostic::error(
            format!("checking `{}` aborted: {}", module.name(), panic.message),
            module.sig.name.span,
        )],
        elapsed: Duration::ZERO,
        solver_stats: SolverStats::default(),
        degraded: None,
        lints: Vec::new(),
    }
}

/// Type-checks a single component against a library with default options.
pub fn check_component(lib: &CompLibrary<'_>, module: &Module) -> ComponentReport {
    check_component_with(lib, module, &CheckOptions::default())
}

/// Type-checks a single component with explicit options.
pub fn check_component_with(
    lib: &CompLibrary<'_>,
    module: &Module,
    options: &CheckOptions,
) -> ComponentReport {
    let start = Instant::now();
    let mut checker = Checker::new(lib, module, options);
    checker.run();
    ComponentReport {
        name: module.name(),
        obligations: checker.obligations,
        proved: checker.proved,
        solver_stats: checker.solver.stats(),
        diagnostics: checker.reporter.into_diagnostics(),
        elapsed: start.elapsed(),
        degraded: None,
        lints: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Checker internals
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct BundleInfo {
    idx_vars: Vec<Symbol>,
    dims: Vec<LinExpr>,
    liveness: Interval,
    /// Element width; kept for diagnostics and future width checking.
    #[allow(dead_code)]
    width: lilac_ast::ParamExpr,
}

/// The identity of an instantiation or invocation command: its name and the
/// source offset of the command. Commands that reuse one name in different
/// loops or branches denote different hardware, and the offset tells them
/// apart without interning a name per command.
type CmdId = (Symbol, u32);

#[derive(Clone, Debug)]
struct InvocationInfo {
    comp: Symbol,
    /// Identity of this invocation command.
    uid: CmdId,
    /// Identity of the instantiation command of the invoked instance.
    instance_uid: CmdId,
    /// Instantiation arguments of the invoked instance.
    args: Vec<LinExpr>,
    /// Map from the callee's event names to absolute times.
    schedule: FxHashMap<Symbol, LinExpr>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum WriteKey {
    /// An output port of the component being checked.
    OutputPort(Symbol),
    /// A bundle element.
    Bundle(Symbol),
    /// An input port of an invocation.
    InvocationInput(CmdId, Symbol),
}

#[derive(Clone, Debug)]
struct WriteRecord {
    key: WriteKey,
    /// Element indices for bundle writes (empty for scalar targets).
    indices: Vec<LinExpr>,
    /// The solver scope in effect at the write.
    scope: RecordedScope,
    /// Solver names of the loop variables enclosing the write.
    loop_vars: Vec<Symbol>,
    span: Span,
}

#[derive(Clone, Debug)]
struct InvokeRecord {
    /// Absolute time of the primary event of the invocation.
    time: LinExpr,
    /// Initiation interval (delay) of the callee, lowered.
    callee_delay: LinExpr,
    /// The solver scope in effect at the invocation.
    scope: RecordedScope,
    loop_vars: Vec<Symbol>,
    span: Span,
}

/// A solver scope recorded at a write or invocation.
#[derive(Clone, Debug)]
struct RecordedScope {
    /// O(1) snapshot of the scope.
    mark: FactMark,
    /// Eagerly cloned fact vector, populated only in the
    /// non-indexed-scopes (baseline) mode.
    eager: Option<Vec<Pred>>,
}

/// What a pairwise obligation adds to its first record's scope.
enum PairFacts<'r> {
    /// The second record's scope as recorded. The indexed path joins it by
    /// fact id; the baseline replays its eager clone.
    Scope(&'r RecordedScope),
    /// Materialized facts: the second record's, with loop variables renamed.
    Facts(Vec<Pred>),
}

struct Checker<'a> {
    lib: &'a CompLibrary<'a>,
    module: &'a Module,
    sig: &'a Signature,
    solver: Solver,
    reporter: ErrorReporter,
    instances: FxHashMap<Symbol, InstanceInfo>,
    /// Loop variables (solver names) in scope when each instance was created.
    /// Instances created inside a loop are replicated per iteration during
    /// elaboration, so per-iteration uses of them never conflict. Keyed by
    /// the instantiation command's unique identity.
    instance_loop_vars: FxHashMap<CmdId, Vec<Symbol>>,
    /// Invocations keyed by their unique identity.
    invocations: FxHashMap<CmdId, InvocationInfo>,
    /// Most recent unique identity for each invocation name in scope.
    invocation_uid: FxHashMap<Symbol, CmdId>,
    bundles: FxHashMap<Symbol, BundleInfo>,
    subst: FxHashMap<Symbol, LinExpr>,
    loop_vars: Vec<Symbol>,
    writes: Vec<WriteRecord>,
    invokes: FxHashMap<CmdId, Vec<InvokeRecord>>,
    obligations: usize,
    proved: usize,
    /// Numbers the fresh solver variables of this check (loop variables and
    /// conditional values); see [`LowerEnv::fresh`].
    fresh: Cell<u32>,
    /// See [`CheckOptions::indexed_scopes`].
    indexed_scopes: bool,
    /// Solver configuration, kept to seed baseline-mode throwaway solvers.
    solver_config: SolverConfig,
    /// The component's own event variables, computed once.
    own_events: FxHashMap<Symbol, LinExpr>,
    /// Memoized callee-port intervals per (invocation uid, port name): the
    /// lowering rebuilds the callee substitution and its output-parameter
    /// applications on every port access otherwise. The side facts produced
    /// by the lowering are replayed on every hit (assumption is idempotent —
    /// facts are content-interned).
    port_interval_cache: FxHashMap<(CmdId, Symbol), Option<PortInterval>>,
}

/// A lowered availability interval plus the side facts its lowering emits.
type PortInterval = (LinExpr, LinExpr, Vec<Pred>);

impl<'a> Checker<'a> {
    fn new(lib: &'a CompLibrary<'a>, module: &'a Module, options: &CheckOptions) -> Checker<'a> {
        Checker {
            lib,
            module,
            sig: &module.sig,
            solver: Solver::with_config(options.solver_config.clone()),
            indexed_scopes: options.indexed_scopes,
            solver_config: options.solver_config.clone(),
            reporter: ErrorReporter::new(),
            instances: FxHashMap::default(),
            instance_loop_vars: FxHashMap::default(),
            invocations: FxHashMap::default(),
            invocation_uid: FxHashMap::default(),
            bundles: FxHashMap::default(),
            subst: FxHashMap::default(),
            loop_vars: Vec::new(),
            writes: Vec::new(),
            invokes: FxHashMap::default(),
            obligations: 0,
            proved: 0,
            fresh: Cell::new(0),
            own_events: module
                .sig
                .events
                .iter()
                .map(|e| (e.name.name, event_var(e.name.name)))
                .collect(),
            port_interval_cache: FxHashMap::default(),
        }
    }

    fn run(&mut self) {
        // Assume the component's own where clauses, the non-negativity of
        // its parameters, and its output-parameter guarantees.
        self.assume_signature_facts();
        // Check signature timing well-formedness.
        self.check_signature_timing();
        let module: &'a Module = self.module;
        let body = match &module.kind {
            ModuleKind::Comp { body } => body,
            _ => return,
        };
        self.check_scope(body);
        self.check_write_conflicts();
        self.check_resource_safety();
        self.check_outputs_driven(body);
    }

    fn env(&self) -> LowerEnv<'_> {
        LowerEnv {
            lib: self.lib,
            instances: &self.instances,
            subst: &self.subst,
            fresh: &self.fresh,
        }
    }

    fn assume_signature_facts(&mut self) {
        // Parameters of a hardware design are naturals.
        for p in &self.sig.params {
            self.solver.assume(Pred::ge(param_var(p.name.name), LinExpr::zero()));
        }
        for p in &self.sig.out_params {
            self.solver.assume(Pred::ge(param_var(p.name.name), LinExpr::zero()));
        }
        // Event delays are at least one.
        for e in &self.sig.events {
            if let Ok(lowered) = lower_param_expr(&e.delay, &self.env()) {
                self.assume_all(lowered.facts);
                self.solver.assume(Pred::ge(lowered.expr, LinExpr::constant(1)));
            }
        }
        // Where clauses on input parameters are facts inside the body.
        for c in self.sig.where_clauses.clone() {
            match lower_constraint(&c, &self.env()) {
                Ok(lowered) => {
                    self.assume_all(lowered.facts);
                    self.solver.assume(lowered.pred);
                }
                Err(e) => self.push_error(e),
            }
        }
        // Output-parameter where clauses are facts about the component's own
        // `some` parameters (the body must ultimately justify them through
        // its bindings, which elaboration re-checks concretely).
        for op in &self.sig.out_params {
            for c in op.constraints.clone() {
                match lower_constraint(&c, &self.env()) {
                    Ok(lowered) => {
                        self.assume_all(lowered.facts);
                        self.solver.assume(lowered.pred);
                    }
                    Err(e) => self.push_error(e),
                }
            }
        }
    }

    fn check_signature_timing(&mut self) {
        let sig: &'a Signature = self.sig;
        let delays: FxHashMap<Symbol, &lilac_ast::ParamExpr> =
            sig.events.iter().map(|e| (e.name.name, &e.delay)).collect();
        for port in &sig.inputs {
            if let PortType::Interface { .. } = port.ty {
                continue;
            }
            let Some((start, end)) = self.lower_interval(&port.liveness) else {
                continue;
            };
            // Intervals must be well formed.
            self.prove(
                Pred::le(start.clone(), end.clone()),
                format!("availability interval of input `{}` must be well-formed", port.name),
                port.span,
            );
            // The port must not be required for longer than the initiation
            // interval of its anchoring event, otherwise back-to-back
            // activations would need conflicting values on the same wire.
            if let Some(ev) = &port.liveness.start.event {
                if let Some(delay_expr) = delays.get(&ev.name) {
                    if let Ok(delay) = lower_param_expr(delay_expr, &self.env()) {
                        self.assume_all(delay.facts);
                        self.prove(
                            Pred::le(end.clone() - start.clone(), delay.expr),
                            format!(
                                "input `{}` is required for longer than event `{}`'s initiation interval",
                                port.name, ev
                            ),
                            port.span,
                        );
                    }
                }
            }
        }
        for port in &sig.outputs {
            let Some((start, end)) = self.lower_interval(&port.liveness) else {
                continue;
            };
            self.prove(
                Pred::le(start, end),
                format!("availability interval of output `{}` must be well-formed", port.name),
                port.span,
            );
        }
    }

    // -- scope processing ---------------------------------------------------

    fn check_scope(&mut self, cmds: &[Cmd]) {
        for cmd in cmds {
            self.declare(cmd);
        }
        for cmd in cmds {
            self.check_cmd(cmd);
        }
    }

    fn declare(&mut self, cmd: &Cmd) {
        match cmd {
            Cmd::Instantiate { name, comp, params, span } => {
                self.register_instance(name.name, comp.name, params, *span);
            }
            Cmd::InstInvoke { name, comp, params, schedule, args: _, span } => {
                self.register_instance(name.name, comp.name, params, *span);
                self.register_invocation(name.name, name.name, schedule, *span);
            }
            Cmd::Invoke { name, instance, schedule, args: _, span } => {
                self.register_invocation(name.name, instance.name, schedule, *span);
            }
            Cmd::Let { name, value, span } => {
                match lower_param_expr(value, &self.env()) {
                    Ok(lowered) => {
                        self.assume_all(lowered.facts);
                        self.prove_obligations(lowered.obligations);
                        self.solver.assume(Pred::eq(param_var(name.name), lowered.expr));
                    }
                    Err(e) => self.push_error(e),
                }
                let _ = span;
            }
            Cmd::OutParamBind { name, value, span } => {
                if self.sig.out_param(name.name).is_none() {
                    self.reporter.error(
                        format!("`#{name}` is not an output parameter of `{}`", self.sig.name),
                        *span,
                    );
                    return;
                }
                match lower_param_expr(value, &self.env()) {
                    Ok(lowered) => {
                        self.assume_all(lowered.facts);
                        self.prove_obligations(lowered.obligations);
                        self.solver.assume(Pred::eq(param_var(name.name), lowered.expr));
                    }
                    Err(e) => self.push_error(e),
                }
            }
            Cmd::Assume { constraint, span: _ } => {
                match lower_constraint(constraint, &self.env()) {
                    Ok(lowered) => {
                        self.assume_all(lowered.facts);
                        self.solver.assume(lowered.pred);
                    }
                    Err(e) => self.push_error(e),
                }
            }
            Cmd::Bundle { name, idx_vars, dims, liveness, width, span } => {
                let mut lowered_dims = Vec::new();
                for d in dims {
                    match lower_param_expr(d, &self.env()) {
                        Ok(lowered) => {
                            self.assume_all(lowered.facts);
                            lowered_dims.push(lowered.expr);
                        }
                        Err(e) => self.push_error(e),
                    }
                }
                if idx_vars.len() != dims.len() {
                    self.reporter.error(
                        format!(
                            "bundle `{name}` declares {} index variable(s) for {} dimension(s)",
                            idx_vars.len(),
                            dims.len()
                        ),
                        *span,
                    );
                }
                self.bundles.insert(
                    name.name,
                    BundleInfo {
                        idx_vars: idx_vars.iter().map(|v| v.name).collect(),
                        dims: lowered_dims,
                        liveness: liveness.clone(),
                        width: width.clone(),
                    },
                );
            }
            _ => {}
        }
    }

    fn register_instance(
        &mut self,
        name: Symbol,
        comp: Symbol,
        params: &[lilac_ast::ParamExpr],
        span: Span,
    ) {
        let Some(callee) = self.lib.signature(comp) else {
            self.reporter.error(format!("unknown component `{comp}`"), span);
            return;
        };
        let mut args = Vec::new();
        for p in params {
            match lower_param_expr(p, &self.env()) {
                Ok(lowered) => {
                    self.assume_all(lowered.facts);
                    self.prove_obligations(lowered.obligations);
                    args.push(lowered.expr);
                }
                Err(e) => {
                    self.push_error(e);
                    return;
                }
            }
        }
        let mut facts = Vec::new();
        let mut obls = Vec::new();
        let args = match resolve_param_args(callee, &args, &self.env(), span, &mut facts, &mut obls)
        {
            Ok(a) => a,
            Err(e) => {
                self.push_error(e);
                return;
            }
        };
        match instantiation_conditions(callee, &args, span, &self.env()) {
            Ok((more_facts, more_obls)) => {
                facts.extend(more_facts);
                obls.extend(more_obls);
            }
            Err(e) => self.push_error(e),
        }
        self.assume_all(facts);
        self.prove_obligations(obls);
        self.instances.insert(name, InstanceInfo { comp, args, span });
        self.instance_loop_vars.insert((name, span.start), self.loop_vars.clone());
    }

    fn register_invocation(
        &mut self,
        name: Symbol,
        instance: Symbol,
        schedule: &[lilac_ast::TimeExpr],
        span: Span,
    ) {
        let Some(info) = self.instances.get(&instance).cloned() else {
            self.reporter.error(format!("unknown instance `{instance}`"), span);
            return;
        };
        let Some(callee) = self.lib.signature(info.comp) else {
            return;
        };
        if schedule.len() != callee.events.len() {
            self.reporter.error(
                format!(
                    "`{}` declares {} event(s) but the invocation provides {} time(s)",
                    callee.name,
                    callee.events.len(),
                    schedule.len()
                ),
                span,
            );
            return;
        }
        let mut sched_map = FxHashMap::default();
        for (decl, time) in callee.events.iter().zip(schedule.iter()) {
            match lower_time(time, &self.own_events, &self.env()) {
                Ok(lowered) => {
                    self.assume_all(lowered.facts);
                    self.prove_obligations(lowered.obligations);
                    sched_map.insert(decl.name.name, lowered.expr);
                }
                Err(e) => self.push_error(e),
            }
        }
        let uid = (name, span.start);
        self.invocation_uid.insert(name, uid);
        self.invocations.insert(
            uid,
            InvocationInfo {
                comp: info.comp,
                uid,
                instance_uid: (instance, info.span.start),
                args: info.args,
                schedule: sched_map,
            },
        );
    }

    fn check_cmd(&mut self, cmd: &Cmd) {
        match cmd {
            Cmd::Instantiate { .. }
            | Cmd::Let { .. }
            | Cmd::OutParamBind { .. }
            | Cmd::Assume { .. }
            | Cmd::Bundle { .. } => {}
            Cmd::Assert { constraint, span } => match lower_constraint(constraint, &self.env()) {
                Ok(lowered) => {
                    self.assume_all(lowered.facts);
                    self.prove_obligations(lowered.obligations);
                    self.prove(
                        lowered.pred,
                        format!(
                            "assertion `{}` may not hold",
                            lilac_ast::printer::print_constraint(constraint)
                        ),
                        *span,
                    );
                }
                Err(e) => self.push_error(e),
            },
            Cmd::Invoke { name, instance, args, span, .. } => {
                self.check_invocation_uses(name.name, instance.name, args, *span);
            }
            Cmd::InstInvoke { name, args, span, .. } => {
                self.check_invocation_uses(name.name, name.name, args, *span);
            }
            Cmd::Connect { dst, src, span } => self.check_connect(dst, src, *span),
            Cmd::If { cond, then_body, else_body, span: _ } => {
                match lower_constraint(cond, &self.env()) {
                    Ok(lowered) => {
                        self.assume_all(lowered.facts);
                        self.prove_obligations(lowered.obligations);
                        let mark = self.solver.mark();
                        self.solver.assume(lowered.pred.clone());
                        self.check_scope(then_body);
                        self.solver.reset_to(mark);
                        self.solver.assume(lowered.pred.negate());
                        self.check_scope(else_body);
                        self.solver.reset_to(mark);
                    }
                    Err(e) => self.push_error(e),
                }
            }
            Cmd::For { var, start, end, body, span: _ } => {
                let start_l = match lower_param_expr(start, &self.env()) {
                    Ok(l) => {
                        self.assume_all(l.facts.clone());
                        self.prove_obligations(l.obligations.clone());
                        l.expr
                    }
                    Err(e) => {
                        self.push_error(e);
                        return;
                    }
                };
                let end_l = match lower_param_expr(end, &self.env()) {
                    Ok(l) => {
                        self.assume_all(l.facts.clone());
                        self.prove_obligations(l.obligations.clone());
                        l.expr
                    }
                    Err(e) => {
                        self.push_error(e);
                        return;
                    }
                };
                // Introduce a uniquely named loop variable and check the body
                // symbolically for an arbitrary iteration.
                let n = self.fresh.get() + 1;
                self.fresh.set(n);
                let solver_name = Symbol::intern(&format!("#{}${n}", var.name));
                let loop_var = LinExpr::from_term(Term::Var(solver_name), 1);
                let mark = self.solver.mark();
                let prev = self.subst.insert(var.name, loop_var.clone());
                self.solver.assume(Pred::ge(loop_var.clone(), start_l));
                self.solver.assume(Pred::lt(loop_var, end_l));
                self.loop_vars.push(solver_name);
                self.check_scope(body);
                self.loop_vars.pop();
                self.solver.reset_to(mark);
                match prev {
                    Some(p) => {
                        self.subst.insert(var.name, p);
                    }
                    None => {
                        self.subst.remove(&var.name);
                    }
                }
            }
        }
    }

    // -- invocation argument checking ----------------------------------------

    fn check_invocation_uses(
        &mut self,
        name: Symbol,
        _instance: Symbol,
        args: &[Access],
        span: Span,
    ) {
        let Some(inv) = self.invocation_by_name(name).cloned() else {
            return;
        };
        let Some(callee) = self.lib.signature(inv.comp) else {
            return;
        };
        let data_inputs: Vec<&PortDecl> =
            callee.inputs.iter().filter(|p| matches!(p.ty, PortType::Data { .. })).collect();
        if args.len() != data_inputs.len() {
            self.reporter.error(
                format!(
                    "`{}` has {} data input(s) but the invocation provides {} argument(s)",
                    callee.name,
                    data_inputs.len(),
                    args.len()
                ),
                span,
            );
            return;
        }
        for (port, arg) in data_inputs.iter().zip(args.iter()) {
            let Some(req) = self.invocation_port_interval(&inv, callee, port) else { continue };
            self.check_read(arg, req, span);
            self.writes.push(WriteRecord {
                key: WriteKey::InvocationInput(inv.uid, port.name.name),
                indices: Vec::new(),
                scope: self.record_scope(),
                loop_vars: self.loop_vars.clone(),
                span,
            });
        }
        // Record the invocation for resource-safety checking.
        let delay =
            callee.primary_event().map_or(lilac_ast::ParamExpr::Nat(1), |e| e.delay.clone());
        let callee_env = self.callee_env(&inv, callee);
        let delay_l = match lower_param_expr_with(&delay, &callee_env, self) {
            Some(e) => e,
            None => LinExpr::constant(1),
        };
        let time = callee
            .primary_event()
            .and_then(|e| inv.schedule.get(&e.name.name))
            .cloned()
            .unwrap_or_else(LinExpr::zero);
        let record = InvokeRecord {
            time,
            callee_delay: delay_l,
            scope: self.record_scope(),
            loop_vars: self.loop_vars.clone(),
            span,
        };
        self.invokes.entry(inv.instance_uid).or_default().push(record);
    }

    // -- connections ----------------------------------------------------------

    fn check_connect(&mut self, dst: &Access, src: &Access, span: Span) {
        let Some((key, indices, req)) = self.destination_requirement(dst, span) else {
            return;
        };
        if let Some(req) = req {
            self.check_read(src, req, span);
        }
        self.writes.push(WriteRecord {
            key,
            indices,
            scope: self.record_scope(),
            loop_vars: self.loop_vars.clone(),
            span,
        });
    }

    /// Checks that `src` is available whenever the requirement interval `req`
    /// needs it.
    fn check_read(&mut self, src: &Access, req: (LinExpr, LinExpr), span: Span) {
        let Some(avail) = self.availability(src, span) else {
            return;
        };
        let Some((astart, aend)) = avail else {
            return; // constants are always available
        };
        let (rstart, rend) = req;
        let pred = Pred::and([
            Pred::le(astart.clone(), rstart.clone()),
            Pred::le(rend.clone(), aend.clone()),
        ]);
        self.prove_with(
            pred,
            move |model| {
                let mut msg = format!(
                    "signal available in [{astart}, {aend}] but required in [{rstart}, {rend}]"
                );
                if let Some(m) = model {
                    msg.push_str(&format!("; counterexample: {m}"));
                }
                msg
            },
            span,
        );
    }

    /// The availability interval of a read access. `Ok(None)` means the
    /// access is a constant (always available).
    #[allow(clippy::type_complexity)]
    fn availability(&mut self, access: &Access, span: Span) -> Option<Option<(LinExpr, LinExpr)>> {
        match access {
            Access::Const { .. } => Some(None),
            Access::Var(name) => {
                let sig: &'a Signature = self.sig;
                // Input port of the enclosing component?
                if let Some(port) = sig.input(name.name) {
                    if let PortType::Interface { .. } = port.ty {
                        self.reporter.error(
                            format!("interface port `{name}` cannot be read as data"),
                            name.span,
                        );
                        return None;
                    }
                    return self.lower_interval(&port.liveness).map(Some);
                }
                // Bundle read without an index?
                if self.bundles.contains_key(&name.name) {
                    self.reporter
                        .error(format!("bundle `{name}` must be indexed when read"), name.span);
                    return None;
                }
                // Invocation with a single output port?
                if let Some(inv) = self.invocation_by_name(name.name).cloned() {
                    let callee = self.lib.signature(inv.comp)?;
                    if callee.outputs.len() == 1 {
                        let port = callee.outputs[0].clone();
                        return self.invocation_port_interval(&inv, callee, &port).map(Some);
                    }
                    self.reporter.error(
                        format!(
                            "invocation `{name}` has {} output ports; select one with `.`",
                            callee.outputs.len()
                        ),
                        name.span,
                    );
                    return None;
                }
                self.reporter.error(format!("unknown signal `{name}`"), name.span);
                None
            }
            Access::Port { inv, port } => {
                let Some(invocation) = self.invocation_by_name(inv.name).cloned() else {
                    self.reporter.error(format!("unknown invocation `{inv}`"), inv.span);
                    return None;
                };
                let callee = self.lib.signature(invocation.comp)?;
                let Some(decl) = callee.output(port.name) else {
                    self.reporter
                        .error(format!("`{}` has no output port `{port}`", callee.name), port.span);
                    return None;
                };
                let decl = decl.clone();
                self.invocation_port_interval(&invocation, callee, &decl).map(Some)
            }
            Access::Index { base, index } => {
                // Indexing an invocation's bundle-typed output port
                // (`cv.out[#j]`): every element shares the port's interval.
                if let Access::Port { inv, port } = base.as_ref() {
                    let Some(invocation) = self.invocation_by_name(inv.name).cloned() else {
                        self.reporter.error(format!("unknown invocation `{inv}`"), inv.span);
                        return None;
                    };
                    let callee = self.lib.signature(invocation.comp)?;
                    let Some(decl) = callee.output(port.name) else {
                        self.reporter.error(
                            format!("`{}` has no output port `{port}`", callee.name),
                            port.span,
                        );
                        return None;
                    };
                    let decl = decl.clone();
                    let _ = index;
                    return self.invocation_port_interval(&invocation, callee, &decl).map(Some);
                }
                let Access::Var(bundle_name) = base.as_ref() else {
                    self.reporter.error("nested indexing is not supported", span);
                    return None;
                };
                // Indexing an input port declared as a bundle: the elements
                // share the port's interval.
                if !self.bundles.contains_key(&bundle_name.name) {
                    if let Some(port) = self.sig.input(bundle_name.name) {
                        if !port.dims.is_empty() {
                            let port = port.clone();
                            return self.lower_interval(&port.liveness).map(Some);
                        }
                    }
                }
                self.bundle_element_interval(bundle_name.name, index, span).map(Some)
            }
            Access::Range { base, start, end: _ } => {
                // A range read requires every element in the range; checking
                // the symbolic element at `start` plus the loop facts covers
                // the obligation for affine bundles.
                let Access::Var(bundle_name) = base.as_ref() else {
                    self.reporter.error("nested indexing is not supported", span);
                    return None;
                };
                self.bundle_element_interval(bundle_name.name, start, span).map(Some)
            }
        }
    }

    /// The requirement interval and conflict key for a write destination.
    #[allow(clippy::type_complexity)]
    fn destination_requirement(
        &mut self,
        dst: &Access,
        span: Span,
    ) -> Option<(WriteKey, Vec<LinExpr>, Option<(LinExpr, LinExpr)>)> {
        match dst {
            Access::Var(name) => {
                if let Some(port) = self.sig.output(name.name) {
                    let port = port.clone();
                    let interval = self.lower_interval(&port.liveness);
                    return Some((WriteKey::OutputPort(name.name), Vec::new(), interval));
                }
                if self.bundles.contains_key(&name.name) {
                    self.reporter
                        .error(format!("bundle `{name}` must be indexed when written"), name.span);
                    return None;
                }
                self.reporter.error(
                    format!("`{name}` is not an output port of `{}`", self.sig.name),
                    name.span,
                );
                None
            }
            Access::Port { inv, port } => {
                let Some(invocation) = self.invocation_by_name(inv.name).cloned() else {
                    self.reporter.error(format!("unknown invocation `{inv}`"), inv.span);
                    return None;
                };
                let callee = self.lib.signature(invocation.comp)?;
                let Some(decl) = callee.input(port.name) else {
                    self.reporter
                        .error(format!("`{}` has no input port `{port}`", callee.name), port.span);
                    return None;
                };
                let decl = decl.clone();
                let interval = self.invocation_port_interval(&invocation, callee, &decl);
                Some((WriteKey::InvocationInput(invocation.uid, port.name), Vec::new(), interval))
            }
            Access::Index { base, index } => {
                let Access::Var(bundle_name) = base.as_ref() else {
                    self.reporter.error("nested indexing is not supported", span);
                    return None;
                };
                let idx = match lower_param_expr(index, &self.env()) {
                    Ok(l) => {
                        self.assume_all(l.facts.clone());
                        l.expr
                    }
                    Err(e) => {
                        self.push_error(e);
                        return None;
                    }
                };
                // Writing one element of a bundle-typed output port
                // (`o{#j} = ...`): requirement is the port's interval, and
                // element-level conflicts are tracked by index.
                if !self.bundles.contains_key(&bundle_name.name) {
                    if let Some(port) = self.sig.output(bundle_name.name) {
                        if !port.dims.is_empty() {
                            let port = port.clone();
                            let interval = self.lower_interval(&port.liveness);
                            if let Some(dim) = port.dims.first() {
                                if let Ok(dim_l) = lower_param_expr(dim, &self.env()) {
                                    self.assume_all(dim_l.facts.clone());
                                    self.prove(
                                        Pred::and([
                                            Pred::ge(idx.clone(), LinExpr::zero()),
                                            Pred::lt(idx.clone(), dim_l.expr),
                                        ]),
                                        format!(
                                            "index into output port `{bundle_name}` may be out of bounds"
                                        ),
                                        span,
                                    );
                                }
                            }
                            return Some((WriteKey::Bundle(bundle_name.name), vec![idx], interval));
                        }
                    }
                }
                let interval = self.bundle_element_interval(bundle_name.name, index, span);
                // Bounds obligation: 0 <= idx < dim.
                if let Some(info) = self.bundles.get(&bundle_name.name).cloned() {
                    if let Some(dim) = info.dims.first() {
                        self.prove(
                            Pred::and([
                                Pred::ge(idx.clone(), LinExpr::zero()),
                                Pred::lt(idx.clone(), dim.clone()),
                            ]),
                            format!("index into bundle `{bundle_name}` may be out of bounds"),
                            span,
                        );
                    }
                }
                Some((WriteKey::Bundle(bundle_name.name), vec![idx], interval))
            }
            Access::Range { .. } => {
                self.reporter.error("range writes are not supported", span);
                None
            }
            Access::Const { .. } => {
                self.reporter.error("a constant cannot be a write destination", span);
                None
            }
        }
    }

    /// Availability/requirement interval of a bundle element at `index`.
    fn bundle_element_interval(
        &mut self,
        bundle: Symbol,
        index: &lilac_ast::ParamExpr,
        span: Span,
    ) -> Option<(LinExpr, LinExpr)> {
        let Some(info) = self.bundles.get(&bundle).cloned() else {
            self.reporter.error(format!("unknown bundle `{bundle}`"), span);
            return None;
        };
        let idx = match lower_param_expr(index, &self.env()) {
            Ok(l) => {
                self.assume_all(l.facts.clone());
                self.prove_obligations(l.obligations.clone());
                l.expr
            }
            Err(e) => {
                self.push_error(e);
                return None;
            }
        };
        // Substitute the bundle's index variable with the concrete index.
        let mut saved = Vec::new();
        if let Some(var) = info.idx_vars.first() {
            saved.push((*var, self.subst.insert(*var, idx)));
        }
        let interval = self.lower_interval(&info.liveness);
        for (var, prev) in saved {
            match prev {
                Some(p) => {
                    self.subst.insert(var, p);
                }
                None => {
                    self.subst.remove(&var);
                }
            }
        }
        interval
    }

    /// Availability interval of a callee port under an invocation: the
    /// callee's events are replaced by the schedule, its parameters by the
    /// instantiation arguments, and its output parameters by their
    /// uninterpreted applications.
    fn invocation_port_interval(
        &mut self,
        inv: &InvocationInfo,
        callee: &Signature,
        port: &PortDecl,
    ) -> Option<(LinExpr, LinExpr)> {
        let key = (inv.uid, port.name.name);
        if let Some(cached) = self.port_interval_cache.get(&key) {
            let cached = cached.clone();
            return match cached {
                Some((start, end, facts)) => {
                    self.assume_all(facts);
                    Some((start, end))
                }
                None => None,
            };
        }
        let mut subst: FxHashMap<Symbol, LinExpr> = FxHashMap::default();
        for (decl, arg) in callee.params.iter().zip(inv.args.iter()) {
            subst.insert(decl.name.name, arg.clone());
        }
        for op in &callee.out_params {
            subst.insert(op.name.name, out_param_expr(callee, &inv.args, op.name.name));
        }
        let env = LowerEnv {
            lib: self.lib,
            instances: &self.instances,
            subst: &subst,
            fresh: &self.fresh,
        };
        let start = lower_time(&port.liveness.start, &inv.schedule, &env);
        let end = lower_time(&port.liveness.end, &inv.schedule, &env);
        match (start, end) {
            (Ok(s), Ok(e)) => {
                let mut facts = s.facts;
                facts.extend(e.facts);
                self.port_interval_cache
                    .insert(key, Some((s.expr.clone(), e.expr.clone(), facts.clone())));
                self.assume_all(facts);
                Some((s.expr, e.expr))
            }
            (Err(err), _) | (_, Err(err)) => {
                self.push_error(err);
                self.port_interval_cache.insert(key, None);
                None
            }
        }
    }

    fn callee_env(&self, inv: &InvocationInfo, callee: &Signature) -> FxHashMap<Symbol, LinExpr> {
        let mut subst: FxHashMap<Symbol, LinExpr> = FxHashMap::default();
        for (decl, arg) in callee.params.iter().zip(inv.args.iter()) {
            subst.insert(decl.name.name, arg.clone());
        }
        for op in &callee.out_params {
            subst.insert(op.name.name, out_param_expr(callee, &inv.args, op.name.name));
        }
        subst
    }

    /// Lowers an interval over the component's own events.
    fn lower_interval(&mut self, interval: &Interval) -> Option<(LinExpr, LinExpr)> {
        let start = lower_time(&interval.start, &self.own_events, &self.env());
        let end = lower_time(&interval.end, &self.own_events, &self.env());
        match (start, end) {
            (Ok(s), Ok(e)) => {
                self.assume_all(s.facts);
                self.assume_all(e.facts);
                self.prove_obligations(s.obligations);
                self.prove_obligations(e.obligations);
                Some((s.expr, e.expr))
            }
            (Err(err), _) | (_, Err(err)) => {
                self.push_error(err);
                None
            }
        }
    }

    // -- whole-body checks ----------------------------------------------------

    fn check_write_conflicts(&mut self) {
        let writes = std::mem::take(&mut self.writes);
        let mut by_key: FxHashMap<WriteKey, Vec<&WriteRecord>> = FxHashMap::default();
        for w in &writes {
            by_key.entry(w.key.clone()).or_default().push(w);
        }
        for (key, records) in by_key {
            // Self-conflicts: a write inside a loop may execute on several
            // iterations; for bundle writes the index must be injective in
            // the loop variables, for scalar targets any second iteration is
            // a conflict. Writes that drive an input of an instance declared
            // inside the same loop are exempt: elaboration replicates the
            // instance per iteration, so there is no shared resource.
            for rec in &records {
                if rec.loop_vars.is_empty() {
                    continue;
                }
                let exempt = self.exempt_loop_vars(&key);
                let distinct: Vec<Symbol> =
                    rec.loop_vars.iter().filter(|v| !exempt.contains(v)).copied().collect();
                if distinct.is_empty() {
                    continue;
                }
                self.check_pairwise_conflict(&key, rec, rec, Some(distinct));
            }
            // Cross-conflicts between distinct writes.
            for i in 0..records.len() {
                for j in (i + 1)..records.len() {
                    self.check_pairwise_conflict(&key, records[i], records[j], None);
                }
            }
        }
        self.writes = writes;
    }

    /// Loop variables whose iterations get their own copy of the written
    /// resource (per-iteration instances), and therefore cannot conflict
    /// across iterations.
    /// Resolves the most recent invocation registered under `name`.
    fn invocation_by_name(&self, name: Symbol) -> Option<&InvocationInfo> {
        let uid = self.invocation_uid.get(&name)?;
        self.invocations.get(uid)
    }

    fn exempt_loop_vars(&self, key: &WriteKey) -> Vec<Symbol> {
        match key {
            WriteKey::InvocationInput(inv_uid, _) => self
                .invocations
                .get(inv_uid)
                .and_then(|i| self.instance_loop_vars.get(&i.instance_uid))
                .cloned()
                .unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    fn check_pairwise_conflict(
        &mut self,
        key: &WriteKey,
        a: &WriteRecord,
        b: &WriteRecord,
        self_distinct: Option<Vec<Symbol>>,
    ) {
        // For self pairs, rename only the loop variables that must differ
        // between the two iterations. For cross pairs between writes in the
        // same loop nest, compare within one iteration (shared loop
        // variables); writes in different loop nests are compared with the
        // second record's loop variables renamed.
        let rename_vars: Vec<Symbol> = match &self_distinct {
            Some(distinct) => distinct.clone(),
            None => {
                if a.loop_vars == b.loop_vars {
                    Vec::new()
                } else {
                    b.loop_vars.iter().filter(|v| !a.loop_vars.contains(v)).copied().collect()
                }
            }
        };
        let renames: Vec<(Term, LinExpr)> = rename_vars
            .iter()
            .map(|lv| (Term::Var(*lv), LinExpr::var(&format!("{lv}'"))))
            .collect();
        let rename_expr = |e: &LinExpr| {
            let mut out = e.clone();
            for (from, to) in &renames {
                out = out.substitute(from, to);
            }
            out
        };

        // The combined context is a's recorded scope extended with b's
        // facts, renamed where the pair semantics require distinct
        // iterations. Unrenamed, b's scope is joined as recorded.
        let b_facts = match &self_distinct {
            None if renames.is_empty() => PairFacts::Scope(&b.scope),
            _ => {
                let mut extra: Vec<Pred> = self
                    .scope_facts(&b.scope)
                    .iter()
                    .map(|p| rename_pred_terms(p, &renames))
                    .collect();
                if let Some(distinct_vars) = &self_distinct {
                    // The two iterations must be distinct in at least one loop var.
                    extra.push(Pred::or(distinct_vars.iter().map(|lv| {
                        Pred::ne(LinExpr::var(lv.as_str()), LinExpr::var(&format!("{lv}'")))
                    })));
                }
                PairFacts::Facts(extra)
            }
        };

        self.obligations += 1;
        match key {
            WriteKey::Bundle(_) => {
                // Must prove the element indices differ.
                let idx_a = &a.indices;
                let idx_b: Vec<LinExpr> = b.indices.iter().map(&rename_expr).collect();
                let same = Pred::and(
                    idx_a.iter().zip(idx_b.iter()).map(|(x, y)| Pred::eq(x.clone(), y.clone())),
                );
                let outcome = self.prove_pair(&a.scope, b_facts, &same.negate());
                match outcome {
                    Outcome::Proved => self.proved += 1,
                    Outcome::Disproved(model) => {
                        self.reporter.report(
                            Diagnostic::error(
                                format!("{} may be driven more than once", describe_write_key(key)),
                                a.span,
                            )
                            .with_note_at("conflicting driver here", b.span)
                            .with_note(format!("counterexample: {model}")),
                        );
                    }
                    Outcome::Unknown => {
                        self.reporter.report(
                            Diagnostic::error(
                                format!(
                                    "cannot prove {} has a single driver",
                                    describe_write_key(key)
                                ),
                                a.span,
                            )
                            .with_note_at("conflicting driver here", b.span),
                        );
                    }
                }
            }
            _ => {
                // Scalar target: the two writes must be mutually exclusive,
                // i.e. their combined path conditions must be inconsistent.
                let consistent = self.pair_consistent(&a.scope, b_facts);
                if consistent {
                    self.reporter.report(
                        Diagnostic::error(
                            format!("{} is driven more than once", describe_write_key(key)),
                            a.span,
                        )
                        .with_note_at("conflicting driver here", b.span),
                    );
                } else {
                    self.proved += 1;
                }
            }
        }
    }

    fn check_resource_safety(&mut self) {
        let own_delay =
            self.sig.primary_event().map_or(lilac_ast::ParamExpr::Nat(1), |e| e.delay.clone());
        let own_delay = match lower_param_expr(&own_delay, &self.env()) {
            Ok(l) => l.expr,
            Err(_) => LinExpr::constant(1),
        };
        let invokes = std::mem::take(&mut self.invokes);
        for (uid, records) in invokes {
            let (instance, _) = uid;
            // Cross-iteration reuse: an instance declared outside a loop but
            // invoked inside it is the same physical hardware on every
            // iteration, so invocations from distinct iterations must also be
            // separated by its initiation interval.
            let decl_loop_vars = self.instance_loop_vars.get(&uid).cloned().unwrap_or_default();
            for rec in &records {
                let extra: Vec<Symbol> =
                    rec.loop_vars.iter().filter(|v| !decl_loop_vars.contains(v)).copied().collect();
                if extra.is_empty() {
                    continue;
                }
                let renames: Vec<(Term, LinExpr)> = extra
                    .iter()
                    .map(|lv| (Term::Var(*lv), LinExpr::var(&format!("{lv}'"))))
                    .collect();
                let rename_expr = |e: &LinExpr| {
                    let mut out = e.clone();
                    for (from, to) in &renames {
                        out = out.substitute(from, to);
                    }
                    out
                };
                let mut extras: Vec<Pred> = self
                    .scope_facts(&rec.scope)
                    .iter()
                    .map(|f| rename_pred_terms(f, &renames))
                    .collect();
                extras.push(Pred::or(extra.iter().map(|lv| {
                    Pred::ne(LinExpr::var(lv.as_str()), LinExpr::var(&format!("{lv}'")))
                })));
                let other_time = rename_expr(&rec.time);
                self.obligations += 1;
                let apart = Pred::or([
                    Pred::le(rec.time.clone() + rec.callee_delay.clone(), other_time.clone()),
                    Pred::le(other_time + rec.callee_delay.clone(), rec.time.clone()),
                ]);
                let outcome = self.prove_pair(&rec.scope, PairFacts::Facts(extras), &apart);
                match outcome {
                    Outcome::Proved => self.proved += 1,
                    Outcome::Disproved(model) => self.reporter.report(
                        Diagnostic::error(
                            format!(
                                "instance `{instance}` is reused across loop iterations faster than its initiation interval allows"
                            ),
                            rec.span,
                        )
                        .with_note(format!("counterexample: {model}")),
                    ),
                    Outcome::Unknown => self.reporter.report(Diagnostic::error(
                        format!(
                            "cannot prove loop iterations respect the initiation interval of instance `{instance}`"
                        ),
                        rec.span,
                    )),
                }
            }
            // Within one activation of the parent, distinct invocations of
            // the same instance must be separated by its delay.
            for i in 0..records.len() {
                for j in 0..records.len() {
                    if i == j {
                        continue;
                    }
                    let a = &records[i];
                    let b = &records[j];
                    self.obligations += 1;
                    let apart = Pred::or([
                        Pred::le(a.time.clone() + a.callee_delay.clone(), b.time.clone()),
                        Pred::le(b.time.clone() + b.callee_delay.clone(), a.time.clone()),
                    ]);
                    let outcome = self.prove_pair(&a.scope, PairFacts::Scope(&b.scope), &apart);
                    match outcome {
                        Outcome::Proved => self.proved += 1,
                        Outcome::Disproved(model) => self.reporter.report(
                            Diagnostic::error(
                                "instance is invoked more often than its initiation interval allows",
                                a.span,
                            )
                            .with_note_at("other invocation here", b.span)
                            .with_note(format!("counterexample: {model}")),
                        ),
                        Outcome::Unknown => self.reporter.report(
                            Diagnostic::error(
                                "cannot prove invocations respect the instance's initiation interval",
                                a.span,
                            )
                            .with_note_at("other invocation here", b.span),
                        ),
                    }
                }
            }
            // Across pipelined activations of the parent (which re-fires
            // every `own_delay` cycles), every invocation pair — including an
            // invocation with itself — must stay separated by the callee
            // delay.
            for a in &records {
                for b in &records {
                    self.obligations += 1;
                    let pred = Pred::le(
                        a.time.clone() + a.callee_delay.clone(),
                        b.time.clone() + own_delay.clone(),
                    );
                    let outcome = self.prove_pair(&a.scope, PairFacts::Scope(&b.scope), &pred);
                    match outcome {
                        Outcome::Proved => self.proved += 1,
                        Outcome::Disproved(model) => self.reporter.report(
                            Diagnostic::error(
                                format!(
                                    "component `{}` cannot be re-invoked every {} cycle(s): a subcomponent is still busy",
                                    self.sig.name, own_delay
                                ),
                                a.span,
                            )
                            .with_note(format!("counterexample: {model}")),
                        ),
                        Outcome::Unknown => self.reporter.report(
                            Diagnostic::error(
                                format!(
                                    "cannot prove component `{}` can be re-invoked every {} cycle(s)",
                                    self.sig.name, own_delay
                                ),
                                a.span,
                            ),
                        ),
                    }
                }
            }
        }
    }

    fn check_outputs_driven(&mut self, _body: &[Cmd]) {
        for out in &self.sig.outputs {
            let driven = self
                .writes
                .iter()
                .any(|w| matches!(&w.key, WriteKey::OutputPort(p) if *p == out.name.name));
            if !driven {
                self.reporter.report(Diagnostic::warning(
                    format!("output port `{}` is never driven", out.name),
                    out.span,
                ));
            }
        }
    }

    // -- helpers ---------------------------------------------------------------

    fn assume_all(&mut self, facts: Vec<Pred>) {
        for f in facts {
            self.solver.assume(f);
        }
    }

    /// Records the current scope: a [`FactMark`], plus the baseline mode's
    /// eager fact clone (`None` when indexed scopes are on).
    fn record_scope(&self) -> RecordedScope {
        let mark = self.solver.mark();
        let eager = (!self.indexed_scopes).then(|| self.solver.facts_at(mark));
        RecordedScope { mark, eager }
    }

    /// The facts of a recorded scope, materialized for renaming.
    fn scope_facts(&self, scope: &RecordedScope) -> Vec<Pred> {
        match &scope.eager {
            Some(facts) => facts.clone(),
            None => self.solver.facts_at(scope.mark),
        }
    }

    /// Proves `goal` under scope `a` extended with `b`. Indexed scopes share
    /// `a` structurally and join an unrenamed `b` by fact id; the baseline
    /// replays the eager clones into a throwaway solver.
    fn prove_pair(&mut self, a: &RecordedScope, b: PairFacts<'_>, goal: &Pred) -> Outcome {
        if !self.indexed_scopes {
            return self.baseline_solver(a, b).prove(goal);
        }
        match b {
            PairFacts::Scope(b) => self.solver.prove_under_join(a.mark, b.mark, goal),
            PairFacts::Facts(extra) => self.solver.prove_under(a.mark, &extra, goal),
        }
    }

    /// Whether scope `a` extended with `b` is consistent (see
    /// [`Checker::prove_pair`]).
    fn pair_consistent(&mut self, a: &RecordedScope, b: PairFacts<'_>) -> bool {
        if !self.indexed_scopes {
            return self.baseline_solver(a, b).facts_consistent();
        }
        match b {
            PairFacts::Scope(b) => self.solver.consistent_under_join(a.mark, b.mark),
            PairFacts::Facts(extra) => self.solver.consistent_under(a.mark, &extra),
        }
    }

    /// A throwaway solver seeded with `a`'s and then `b`'s eager facts, as
    /// the baseline pair path used before indexed scopes.
    fn baseline_solver(&self, a: &RecordedScope, b: PairFacts<'_>) -> Solver {
        let mut solver = Solver::with_config(self.solver_config.clone());
        let b_facts = match b {
            PairFacts::Scope(b) => self.scope_facts(b),
            PairFacts::Facts(extra) => extra,
        };
        for f in self.scope_facts(a).into_iter().chain(b_facts) {
            solver.assume(f);
        }
        solver
    }

    fn prove_obligations(&mut self, obls: Vec<Obligation>) {
        for o in obls {
            self.prove(o.pred, o.message, o.span);
        }
    }

    fn prove(&mut self, pred: Pred, message: String, span: Span) {
        self.prove_with(
            pred,
            move |model| match model {
                Some(m) => format!("{message}; counterexample: {m}"),
                None => message.clone(),
            },
            span,
        );
    }

    fn prove_with(&mut self, pred: Pred, message: impl Fn(Option<&Model>) -> String, span: Span) {
        self.obligations += 1;
        match self.solver.prove(&pred) {
            Outcome::Proved => self.proved += 1,
            Outcome::Disproved(model) => {
                self.reporter.error(message(Some(&model)), span);
            }
            Outcome::Unknown => {
                self.reporter.error(
                    format!("{} (add an `assume` if this holds by construction)", message(None)),
                    span,
                );
            }
        }
    }

    fn push_error(&mut self, err: LilacError) {
        for d in err.diagnostics() {
            self.reporter.report(d.clone());
        }
    }
}

fn describe_write_key(key: &WriteKey) -> String {
    match key {
        WriteKey::OutputPort(p) => format!("output port `{p}`"),
        WriteKey::Bundle(b) => format!("an element of bundle `{b}`"),
        WriteKey::InvocationInput((i, _), p) => format!("input `{p}` of invocation `{i}`"),
    }
}

/// Applies a term-to-expression substitution to every expression in a
/// predicate.
fn rename_pred_terms(p: &Pred, renames: &[(Term, LinExpr)]) -> Pred {
    let subst = |e: &LinExpr| {
        let mut out = e.clone();
        for (from, to) in renames {
            out = out.substitute(from, to);
        }
        out
    };
    match p {
        Pred::True => Pred::True,
        Pred::False => Pred::False,
        Pred::Le(e) => Pred::Le(subst(e)),
        Pred::Eq(e) => Pred::Eq(subst(e)),
        Pred::Not(inner) => Pred::Not(Box::new(rename_pred_terms(inner, renames))),
        Pred::And(ps) => Pred::And(ps.iter().map(|q| rename_pred_terms(q, renames)).collect()),
        Pred::Or(ps) => Pred::Or(ps.iter().map(|q| rename_pred_terms(q, renames)).collect()),
    }
}

/// Lowers a parameter expression against a callee substitution, reporting
/// errors into the checker. Returns `None` (and records the error) if
/// lowering fails.
fn lower_param_expr_with(
    e: &lilac_ast::ParamExpr,
    subst: &FxHashMap<Symbol, LinExpr>,
    checker: &mut Checker<'_>,
) -> Option<LinExpr> {
    let env =
        LowerEnv { lib: checker.lib, instances: &checker.instances, subst, fresh: &checker.fresh };
    match lower_param_expr(e, &env) {
        Ok(l) => {
            for f in l.facts {
                checker.solver.assume(f);
            }
            Some(l.expr)
        }
        Err(err) => {
            for d in err.diagnostics() {
                checker.reporter.report(d.clone());
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_ast::parse_program;

    /// A small standard library used by the checker tests.
    const STDLIB: &str = r#"
    extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);
    extern comp Mux[#W]<G:1>(sel: [G, G+1] 1, a: [G, G+1] #W, b: [G, G+1] #W) -> (out: [G, G+1] #W);
    comp Max[#A, #B]<G:1>() -> () with { some #O where #O >= #A, #O >= #B; } {
        #O := #A > #B ? #A : #B;
    }
    comp Shift[#W, #N]<G:1>(in: [G, G+1] #W) -> (out: [G+#N, G+#N+1] #W) {
        bundle<#i> w[#N+1]: [G+#i, G+#i+1] #W;
        w{0} = in;
        out = w{#N};
        for #k in 0..#N {
            r := new Reg[#W]<G+#k>(w{#k});
            w{#k+1} = r.out;
        }
    }
    gen "flopoco" comp FPAdd[#W]<G:1>(l: [G, G+1] #W, r: [G, G+1] #W)
        -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };
    gen "flopoco" comp FPMul[#W]<G:1>(l: [G, G+1] #W, r: [G, G+1] #W)
        -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };
    "#;

    fn check(src: &str) -> CheckReport {
        let full = format!("{STDLIB}\n{src}");
        let (prog, map) = parse_program("test.lilac", &full).unwrap();
        match check_program(&prog) {
            Ok(report) => report,
            Err(e) => panic!("unexpected type errors:\n{}", e.render(&map)),
        }
    }

    fn check_err(src: &str) -> String {
        let full = format!("{STDLIB}\n{src}");
        let (prog, _map) = parse_program("test.lilac", &full).unwrap();
        match check_program(&prog) {
            Ok(_) => panic!("expected type errors, but the program checked"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn stdlib_alone_checks() {
        let report = check("");
        assert!(report.is_ok());
        assert!(report.total_obligations() > 0);
        assert!(report.component("Shift").is_some());
        assert!(report.component("Max").is_some());
        assert!(report.total_elapsed().as_nanos() > 0);
    }

    /// A checker panic (here: a one-query budget that exhausts immediately)
    /// must surface as an error diagnostic on the affected component — not
    /// tear down the process — and components are isolated from each other.
    #[test]
    fn exhausted_budget_becomes_a_diagnostic_not_a_process_panic() {
        // The stdlib alone, and the stdlib plus six one-register components.
        for extra in [0, 6] {
            let passes: String = (0..extra)
                .map(|k| {
                    format!(
                        "comp Pass{k}[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) {{\n\
                         r := new Reg[#W]<G>(i);\no = r.out;\n}}\n"
                    )
                })
                .collect();
            let full = format!("{STDLIB}\n{passes}");
            let (prog, _map) = parse_program("test.lilac", &full).unwrap();
            let options = CheckOptions {
                solver_config: SolverConfig {
                    budget: Some(lilac_solver::QueryBudget::unlimited().with_max_queries(1)),
                    ..SolverConfig::default()
                },
                ..CheckOptions::default()
            };
            let err = check_program_with(&prog, &options)
                .expect_err("a one-query budget cannot check the stdlib");
            let rendered = err.to_string();
            assert!(
                rendered.contains("aborted") && rendered.contains("budget exhausted"),
                "extra={extra}: diagnostic should name the panic: {rendered}"
            );
        }
    }

    #[test]
    fn simple_pipeline_checks() {
        let report = check(
            r#"
            comp Delay2[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+2, G+3] #W) {
                a := new Reg[#W]<G>(i);
                b := new Reg[#W]<G+1>(a.out);
                o = b.out;
            }
            "#,
        );
        assert!(report.is_ok());
        let delay2 = report.component("Delay2").unwrap();
        assert!(delay2.obligations >= 4);
        assert_eq!(delay2.proved, delay2.obligations);
    }

    #[test]
    fn reading_too_early_is_an_error() {
        // The register output is not available until G+1.
        let msg = check_err(
            r#"
            comp Bad[#W]<G:1>(i: [G, G+1] #W) -> (o: [G, G+1] #W) {
                a := new Reg[#W]<G>(i);
                o = a.out;
            }
            "#,
        );
        assert!(msg.contains("available in"), "{msg}");
        assert!(msg.contains("required in"), "{msg}");
    }

    #[test]
    fn unbalanced_fpu_is_rejected_like_fig5a() {
        // Figure 5a: the multiplexer reads both compute outputs at G, but the
        // adder's and multiplier's latencies are abstract output parameters.
        let msg = check_err(
            r#"
            comp FPU[#W]<G:1>(op: [G, G+1] 1, l: [G, G+1] #W, r: [G, G+1] #W)
                -> (o: [G, G+1] #W) {
                Add := new FPAdd[#W];
                Mul := new FPMul[#W];
                add := Add<G>(l, r);
                mul := Mul<G>(l, r);
                mx := new Mux[#W]<G>(op, add.o, mul.o);
                o = mx.out;
            }
            "#,
        );
        assert!(msg.contains("available in"), "{msg}");
        // The counterexample mentions the abstract latency function.
        assert!(msg.contains("FPAdd::#L") || msg.contains("FPMul::#L"), "{msg}");
    }

    #[test]
    fn scheduling_on_one_latency_only_is_still_rejected() {
        // §3.2's second attempt: schedule the mux at G+Add::#L — the
        // multiplier's output is still not provably available then.
        let msg = check_err(
            r#"
            comp FPU[#W]<G:1>(op: [G, G+1] 1, l: [G, G+1] #W, r: [G, G+1] #W)
                -> (o: [G+#L, G+#L+1] #W) with { some #L; } {
                Add := new FPAdd[#W];
                Mul := new FPMul[#W];
                add := Add<G>(l, r);
                mul := Mul<G>(l, r);
                so := new Shift[1, Add::#L]<G>(op);
                mx := new Mux[#W]<G+Add::#L>(so.out, add.o, mul.o);
                o = mx.out;
                #L := Add::#L;
            }
            "#,
        );
        assert!(msg.contains("available in"), "{msg}");
    }

    #[test]
    fn balanced_fpu_checks_like_fig5b() {
        // Figure 5b: balance the pipeline with Shift registers driven by the
        // Max of the two abstract latencies.
        let report = check(
            r#"
            comp FPU[#W]<G:1>(op: [G, G+1] 1, l: [G, G+1] #W, r: [G, G+1] #W)
                -> (o: [G+#L, G+#L+1] #W) with { some #L; } {
                Add := new FPAdd[#W];
                Mul := new FPMul[#W];
                add := Add<G>(l, r);
                mul := Mul<G>(l, r);
                let #Max = Max[Add::#L, Mul::#L]::#O;
                sa := new Shift[#W, #Max - Add::#L]<G + Add::#L>(add.o);
                sm := new Shift[#W, #Max - Mul::#L]<G + Mul::#L>(mul.o);
                so := new Shift[1, #Max]<G>(op);
                mx := new Mux[#W]<G + #Max>(so.out, sa.out, sm.out);
                o = mx.out;
                #L := #Max;
            }
            "#,
        );
        assert!(report.is_ok());
        let fpu = report.component("FPU").unwrap();
        assert!(fpu.obligations > 10);
    }

    #[test]
    fn double_drive_is_rejected() {
        let msg = check_err(
            r#"
            comp Dup[#W]<G:1>(i: [G, G+1] #W, j: [G, G+1] #W) -> (o: [G, G+1] #W) {
                o = i;
                o = j;
            }
            "#,
        );
        assert!(msg.contains("driven more than once"), "{msg}");
    }

    #[test]
    fn double_driven_invocation_input_names_the_invocation() {
        // The argument and the connection both drive `x.in`. The diagnostic
        // names the invocation as written, not its internal identity.
        let msg = check_err(
            r#"
            comp Dup[#W]<G:1>(i: [G, G+1] #W, j: [G, G+1] #W) -> (o: [G+1, G+2] #W) {
                R := new Reg[#W];
                x := R<G>(i);
                x.in = j;
                o = x.out;
            }
            "#,
        );
        assert!(msg.contains("input `in` of invocation `x` is driven more than once"), "{msg}");
    }

    #[test]
    fn branch_exclusive_drives_are_accepted() {
        let report = check(
            r#"
            comp Sel[#W, #P]<G:1>(i: [G, G+1] #W, j: [G, G+1] #W) -> (o: [G, G+1] #W) {
                if #P > 0 {
                    o = i;
                } else {
                    o = j;
                }
            }
            "#,
        );
        assert!(report.is_ok());
    }

    #[test]
    fn resource_reuse_violation_is_rejected() {
        // One register instance invoked twice in the same cycle.
        let msg = check_err(
            r#"
            comp Reuse[#W]<G:1>(i: [G, G+1] #W, j: [G, G+1] #W) -> (o: [G+1, G+2] #W, p: [G+1, G+2] #W) {
                R := new Reg[#W];
                a := R<G>(i);
                b := R<G>(j);
                o = a.out;
                p = b.out;
            }
            "#,
        );
        assert!(msg.contains("initiation interval"), "{msg}");
    }

    #[test]
    fn underpipelined_component_is_rejected() {
        // The component claims delay 1 but holds its input for 3 cycles.
        let msg = check_err(
            r#"
            comp Hold[#W]<G:1>(i: [G, G+3] #W) -> (o: [G, G+1] #W) {
                o = i;
            }
            "#,
        );
        assert!(msg.contains("initiation interval"), "{msg}");
    }

    #[test]
    fn assert_failures_are_reported() {
        let msg = check_err(
            r#"
            comp AssertBad[#N]<G:1>(i: [G, G+1] 8) -> (o: [G, G+1] 8) where #N > 0 {
                assert #N > 4;
                o = i;
            }
            "#,
        );
        assert!(msg.contains("assertion"), "{msg}");
    }

    #[test]
    fn assume_discharges_unprovable_facts() {
        let report = check(
            r#"
            comp AssumeOk[#N]<G:1>(i: [G, G+1] 8) -> (o: [G, G+1] 8) {
                assume #N > 4;
                assert #N > 2;
                o = i;
            }
            "#,
        );
        assert!(report.is_ok());
    }

    #[test]
    fn bundle_out_of_bounds_is_rejected() {
        let msg = check_err(
            r#"
            comp Oob[#W]<G:1>(i: [G, G+1] #W) -> (o: [G, G+1] #W) {
                bundle<#k> w[2]: [G, G+1] #W;
                w{0} = i;
                w{2} = i;
                o = w{0};
            }
            "#,
        );
        assert!(msg.contains("out of bounds"), "{msg}");
    }

    #[test]
    fn unknown_names_are_reported() {
        let msg = check_err(
            r#"
            comp Unknown[#W]<G:1>(i: [G, G+1] #W) -> (o: [G, G+1] #W) {
                x := new NotAComponent[#W]<G>(i);
                o = ghost;
            }
            "#,
        );
        assert!(msg.contains("unknown component"), "{msg}");
        assert!(msg.contains("unknown signal"), "{msg}");
    }

    #[test]
    fn undriven_output_is_a_warning_not_error() {
        let report = check(
            r#"
            comp NoDrive[#W]<G:1>(i: [G, G+1] #W) -> (o: [G, G+1] #W) {
            }
            "#,
        );
        // Checks (no error), but the report carries a warning.
        let c = report.component("NoDrive").unwrap();
        assert!(c.is_ok());
        assert!(c.diagnostics.iter().any(|d| d.message.contains("never driven")));
    }

    #[test]
    fn partially_pipelined_component_with_ii() {
        // A component with initiation interval 2 may hold its input 2 cycles.
        let report = check(
            r#"
            comp Hold2[#W]<G:2>(i: [G, G+2] #W) -> (o: [G, G+1] #W) {
                o = i;
            }
            "#,
        );
        assert!(report.is_ok());
    }

    #[test]
    fn divider_wrapper_style_selection_checks() {
        // Figure 9d-like wrapper with compile-time selection.
        let report = check(
            r#"
            extern comp LutDiv[#W]<G:1>(n: [G, G+1] #W, d: [G, G+1] #W) -> (q: [G+8, G+9] #W);
            extern comp HighRad[#W]<G:1>(n: [G, G+1] #W, d: [G, G+1] #W)
                -> (q: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };
            comp DivWrap[#W]<G:1>(n: [G, G+1] #W, d: [G, G+1] #W)
                -> (q: [G+#L, G+#L+1] #W) with { some #L where #L > 0; } {
                if #W < 12 {
                    dv := new LutDiv[#W]<G>(n, d);
                    q = dv.q;
                    #L := 8;
                } else {
                    dv := new HighRad[#W]<G>(n, d);
                    q = dv.q;
                    #L := dv::#L;
                }
            }
            "#,
        );
        assert!(report.is_ok());
    }
}
