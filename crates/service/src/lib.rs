//! A fault-tolerant, long-lived checking service.
//!
//! [`lilac_core::check_program`] is a one-shot function: it builds the
//! component library, checks every component, and keeps nothing. That is the
//! wrong shape for the interactive workloads the paper cares about
//! (edit–recheck loops in an IDE-like session), where the checker is a
//! *service*: it stays up across thousands of requests, keeps its solver
//! cache warm, and above all must not let one pathological program take the
//! process — or any other request — down with it.
//!
//! [`CheckService`] provides that shape:
//!
//! * **Panic isolation** — every check unit runs under `catch_unwind`; a
//!   checker bug (or an injected fault) is contained to its component.
//! * **Deadlines with graceful degradation** — each unit gets a
//!   [`QueryBudget`] deadline. On timeout or panic the service falls back,
//!   after [`ServiceConfig::backoff`], to one attempt on the naive solver
//!   path (slicing and caching disabled, no budget, no faults). That path is
//!   deterministic, so if it fails too the component is marked failed with
//!   a structured [`CheckError`] rather than retried. The process never
//!   aborts.
//! * **Content-addressed replay** — [`CheckService::check_incremental`]
//!   replays clean component verdicts from a bounded [`PriorReports`] store,
//!   the same store [`lilac_core::check_program_incremental`] threads, and
//!   checks only the misses. [`CheckService::check`] is the same
//!   serving path without the store. Both run through
//!   [`lilac_core::check_against`], the one whole-program checking body,
//!   with the degradation ladder as its per-component check.
//! * **Crash-safe cache persistence** — the shared solver cache and the
//!   report cache can be saved to and restored from disk; corrupt images are
//!   quarantined and the cache rebuilds cold (see [`lilac_solver::persist`]).
//! * **Deterministic fault injection** — a seeded [`FaultPlan`] can force
//!   worker panics, deadline expiries, budget exhaustion, and cache
//!   corruption at deterministic sites, which is how the fuzzer's eighth
//!   differential oracle validates that *no fault schedule changes a
//!   verdict*: faults are only ever armed on the optimized first attempt,
//!   so the naive fallback always supplies the same answer the naive
//!   checker would.
//!
//! Every unit runs on the thread that submitted the request, in component
//! order. The service is `Sync`: concurrent callers share its caches and
//! counters, and each request runs on its own caller's thread.

use lilac_ast::{Module, Program};
use lilac_core::{
    check_against, check_component_with, CheckOptions, CheckReport, CompLibrary, ComponentReport,
    PriorReports,
};
use lilac_ir::Netlist;
use lilac_sim::{CompiledSim, SimBackend};
use lilac_solver::persist::CacheLoadStatus;
use lilac_solver::{QueryBudget, SharedCache, SolverConfig};
use lilac_util::diag::{CheckError, CheckErrorKind, LilacError, Severity};
use lilac_util::fault::{BudgetExhausted, BudgetKind, FaultKind, FaultPlan, InjectedPanic};
use lilac_util::intern::Symbol;
use lilac_util::par::WorkerPanic;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration for a [`CheckService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Ignored: every unit runs on the thread that submitted the request.
    /// Kept so existing struct literals still compile.
    pub workers: usize,
    /// Deadline budget per check unit on the optimized first attempt
    /// (`None` disables deadlines).
    pub deadline: Option<Duration>,
    /// Pause before the naive fallback attempt that follows a failed first
    /// attempt.
    pub backoff: Duration,
    /// Solver configuration for the optimized first attempt. The service
    /// installs its own shared cache and budget on top of this.
    pub solver_config: SolverConfig,
    /// When set, the shared cache is restored from this path at startup
    /// (quarantining a corrupt image) and [`CheckService::save_cache`]
    /// writes back to it.
    pub cache_path: Option<PathBuf>,
    /// When set, the report cache is restored from this path at startup
    /// (quarantining a corrupt image) and
    /// [`CheckService::save_report_cache`] writes back to it.
    pub report_cache_path: Option<PathBuf>,
    /// Deterministic fault injection plan (disabled by default).
    pub faults: FaultPlan,
}

/// The per-shard variant of a persistent cache path: `cache.bin` becomes
/// `cache.bin.shard3` for shard 3, so concurrent shard services never race
/// on one image. Shard 0 keeps the original path, so a one-shard campaign's
/// cache files stay interchangeable with the sequential driver's.
#[must_use]
pub fn shard_cache_path(path: &std::path::Path, shard: usize) -> PathBuf {
    if shard == 0 {
        return path.to_path_buf();
    }
    let mut name = path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    name.push_str(&format!(".shard{shard}"));
    path.with_file_name(name)
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            deadline: Some(Duration::from_secs(30)),
            backoff: Duration::from_millis(10),
            solver_config: SolverConfig::default(),
            cache_path: None,
            report_cache_path: None,
            faults: FaultPlan::disabled(),
        }
    }
}

/// Monotonic counters describing a service's lifetime, snapshot with
/// [`CheckService::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Programs submitted through [`CheckService::check`] or
    /// [`CheckService::check_incremental`].
    pub programs: u64,
    /// Check units (one component each) executed, counting a unit that
    /// fell back once.
    pub units: u64,
    /// First-attempt panics caught (including injected ones).
    pub panics_caught: u64,
    /// First-attempt deadline expiries.
    pub deadline_expiries: u64,
    /// First-attempt query-budget exhaustions.
    pub budget_exhaustions: u64,
    /// Units whose verdict came from a degraded (fallback) attempt.
    pub degraded_units: u64,
    /// Units where the naive fallback failed too.
    pub failed_units: u64,
    /// Cache images recycled (serialize → reload) successfully.
    pub cache_reloads: u64,
    /// Cache images rejected and rebuilt cold.
    pub cache_quarantines: u64,
    /// Simulation requests submitted through [`CheckService::simulate`].
    pub sim_requests: u64,
    /// Simulation requests rejected as malformed (unknown port name or a
    /// netlist the compiled backend refuses).
    pub bad_requests: u64,
    /// Components whose verdict [`CheckService::check_incremental`] replayed
    /// from the content-addressed report cache.
    pub report_hits: u64,
    /// Components [`CheckService::check_incremental`] had to re-check.
    pub report_misses: u64,
}

#[derive(Default)]
struct Counters {
    programs: AtomicU64,
    units: AtomicU64,
    panics_caught: AtomicU64,
    deadline_expiries: AtomicU64,
    budget_exhaustions: AtomicU64,
    degraded_units: AtomicU64,
    failed_units: AtomicU64,
    cache_reloads: AtomicU64,
    cache_quarantines: AtomicU64,
    sim_requests: AtomicU64,
    bad_requests: AtomicU64,
    report_hits: AtomicU64,
    report_misses: AtomicU64,
}

/// Result of one [`CheckService::check`] request.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The verdict, shaped exactly like [`lilac_core::check_program_with`]'s:
    /// `Ok` with the per-component reports, or `Err` carrying every error
    /// diagnostic.
    pub verdict: Result<CheckReport, LilacError>,
    /// Degradation events encountered while producing the verdict (empty on
    /// the happy path).
    pub degradations: Vec<CheckError>,
    /// Wall-clock time for the whole request.
    pub elapsed: Duration,
}

impl ServiceOutcome {
    /// True if the program checked without errors.
    pub fn is_ok(&self) -> bool {
        matches!(&self.verdict, Ok(report) if report.is_ok())
    }
}

/// A simulation request served by [`CheckService::simulate`].
#[derive(Clone, Debug, Default)]
pub struct SimRequest {
    /// Per-cycle stimulus: each entry assigns input ports before that
    /// cycle's outputs are sampled. Ports not named hold their value.
    pub stimulus: Vec<Vec<(String, u64)>>,
    /// Output ports sampled every cycle, after combinational settle.
    pub sample: Vec<String>,
}

/// A trace produced by [`CheckService::simulate`]: `values[cycle][k]` is the
/// settled value of the `k`-th sampled port at that cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimTrace {
    /// One row per stimulus cycle, one column per sampled port.
    pub values: Vec<Vec<u64>>,
}

/// Result of one [`CheckService::recycle_cache`] drill.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheRecycle {
    /// The corruption the fault plan applied to the image, if any.
    pub corrupted: Option<&'static str>,
    /// `Ok(entries)` if the image validated and replaced the live cache;
    /// the load error if it was rejected and the cache was rebuilt cold.
    pub outcome: Result<usize, lilac_solver::persist::CacheLoadError>,
}

/// A long-lived, fault-tolerant checker for a stream of programs.
///
/// See the [module docs](self) for the design; see
/// `lilac-fuzz`'s `service` oracle for the property it guarantees: under any
/// seeded fault schedule, every verdict equals the naive checker's.
pub struct CheckService {
    config: ServiceConfig,
    /// The live shared cache. Behind a mutex (not just the cache's internal
    /// one) so [`CheckService::recycle_cache`] can atomically swap in a
    /// reloaded or cold instance.
    shared: Mutex<SharedCache>,
    /// What startup found at `cache_path` (None when no path configured).
    cache_status: Option<CacheLoadStatus>,
    /// Content-addressed clean-verdict store for
    /// [`CheckService::check_incremental`].
    reports: PriorReports,
    /// What startup found at `report_cache_path` (None when no path
    /// configured).
    report_cache_status: Option<CacheLoadStatus>,
    /// Global fault-site counter: every unit and every cache recycle gets a
    /// distinct site, so a seeded [`FaultPlan`] addresses them
    /// deterministically as long as requests are submitted in a
    /// deterministic order.
    site_counter: AtomicU64,
    counters: Counters,
}

// Concurrent callers share one service, each on its own thread.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<CheckService>();
};

impl CheckService {
    /// Starts a service: when [`ServiceConfig::cache_path`] is set,
    /// restores the shared cache from disk — quarantining a corrupt image
    /// rather than failing.
    pub fn new(config: ServiceConfig) -> CheckService {
        install_quiet_panic_hook();
        let counters = Counters::default();
        let (shared, cache_status) =
            restore(&counters, config.cache_path.as_deref(), SharedCache::load_or_quarantine);
        let (reports, report_cache_status) = restore(
            &counters,
            config.report_cache_path.as_deref(),
            PriorReports::load_or_quarantine,
        );
        CheckService {
            shared: Mutex::new(shared),
            cache_status,
            reports,
            report_cache_status,
            site_counter: AtomicU64::new(0),
            counters,
            config,
        }
    }

    /// What startup found at the configured cache path, if any.
    pub fn cache_status(&self) -> Option<&CacheLoadStatus> {
        self.cache_status.as_ref()
    }

    /// Entries currently in the live shared cache.
    pub fn cache_entries(&self) -> usize {
        self.shared.lock().expect("cache handle poisoned").len()
    }

    /// What startup found at the configured report-cache path, if any.
    pub fn report_cache_status(&self) -> Option<&CacheLoadStatus> {
        self.report_cache_status.as_ref()
    }

    /// Clean verdicts currently in the content-addressed report cache.
    pub fn report_cache_len(&self) -> usize {
        self.reports.len()
    }

    /// Snapshot of the service's lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            programs: c.programs.load(Ordering::Relaxed),
            units: c.units.load(Ordering::Relaxed),
            panics_caught: c.panics_caught.load(Ordering::Relaxed),
            deadline_expiries: c.deadline_expiries.load(Ordering::Relaxed),
            budget_exhaustions: c.budget_exhaustions.load(Ordering::Relaxed),
            degraded_units: c.degraded_units.load(Ordering::Relaxed),
            failed_units: c.failed_units.load(Ordering::Relaxed),
            cache_reloads: c.cache_reloads.load(Ordering::Relaxed),
            cache_quarantines: c.cache_quarantines.load(Ordering::Relaxed),
            sim_requests: c.sim_requests.load(Ordering::Relaxed),
            bad_requests: c.bad_requests.load(Ordering::Relaxed),
            report_hits: c.report_hits.load(Ordering::Relaxed),
            report_misses: c.report_misses.load(Ordering::Relaxed),
        }
    }

    /// Checks one program on the caller's thread.
    ///
    /// Program-level validation (duplicate components, unknown references
    /// caught by [`CompLibrary::build`]) happens first; each component then
    /// becomes one unit run through the degradation ladder. The
    /// verdict has the same shape and contents as
    /// [`lilac_core::check_program_with`] — fault tolerance changes *how*
    /// the answer is computed, never the answer. The report cache is
    /// neither read nor written.
    pub fn check(&self, program: &Program) -> ServiceOutcome {
        self.serve(program, false)
    }

    /// Checks one program, replaying stored clean verdicts from the
    /// content-addressed report cache instead of re-checking their
    /// components.
    ///
    /// Each component is addressed by its
    /// [`ComponentHash`](lilac_core::ComponentHash) — a canonical,
    /// alpha- and location-invariant hash of its module plus the signatures
    /// of everything it (transitively, through signatures) references — so
    /// across a request stream only the components whose checking inputs
    /// actually changed are re-checked. Editing a callee's signature changes
    /// every transitive caller's hash, so invalidation is exact and needs no
    /// bookkeeping. The cache is a [`PriorReports`], the same store
    /// [`lilac_core::check_program_incremental`] threads: only clean
    /// verdicts are admitted, so a hit can never replay a stale rejection or
    /// a faulted answer; misses run the degradation ladder exactly like
    /// [`CheckService::check`].
    ///
    /// The verdict is [`CheckReport::equivalent`] to what
    /// [`CheckService::check`] (and the one-shot checker) would produce —
    /// the fuzzer's tenth differential oracle pins exactly that.
    pub fn check_incremental(&self, program: &Program) -> ServiceOutcome {
        self.serve(program, true)
    }

    /// The one serving path behind [`CheckService::check`] and (with
    /// `incremental`) [`CheckService::check_incremental`]:
    /// [`lilac_core::check_against`] with [`CheckService::run_unit`] as the
    /// per-component check and, when incremental, the report cache as its
    /// store.
    fn serve(&self, program: &Program, incremental: bool) -> ServiceOutcome {
        let start = Instant::now();
        self.counters.programs.fetch_add(1, Ordering::Relaxed);
        let cache = self.shared.lock().expect("cache handle poisoned").clone();
        let mut degradations = Vec::new();
        let store = incremental.then_some(&self.reports);
        let checked = check_against(program, store, |lib, module| {
            self.run_unit(lib, module, &cache, &mut degradations)
        });
        if incremental {
            self.counters.report_hits.fetch_add(checked.hits as u64, Ordering::Relaxed);
            self.counters.report_misses.fetch_add(checked.misses as u64, Ordering::Relaxed);
        }
        ServiceOutcome { verdict: checked.verdict, degradations, elapsed: start.elapsed() }
    }

    /// Runs one component through the degradation ladder, appending every
    /// degradation event on the way to `degradations`. Each unit takes the
    /// next fault site; replayed components never get here, so a
    /// deterministic request stream addresses deterministic sites.
    fn run_unit(
        &self,
        lib: &CompLibrary<'_>,
        module: &Module,
        cache: &SharedCache,
        degradations: &mut Vec<CheckError>,
    ) -> ComponentReport {
        self.counters.units.fetch_add(1, Ordering::Relaxed);
        let site = self.site_counter.fetch_add(1, Ordering::Relaxed);
        let faults = &self.config.faults;
        let name = module.name();

        // Attempt 0: the optimized path — shared cache, deadline budget,
        // faults armed.
        let mut solver_config = self.config.solver_config.clone();
        solver_config.shared_cache = Some(cache.clone());
        let mut budget = match self.config.deadline {
            Some(deadline) => QueryBudget::unlimited().expiring_in(deadline),
            None => QueryBudget::unlimited(),
        };
        if faults.should(FaultKind::DeadlineExpiry, site) {
            budget = budget.already_expired();
        }
        if faults.should(FaultKind::BudgetExhaustion, site) {
            budget = budget.with_max_queries(1);
        }
        solver_config.budget = Some(budget);
        let optimized = CheckOptions { solver_config, ..CheckOptions::default() };
        let panic_site = faults.should(FaultKind::WorkerPanic, site).then_some(site);
        let first = match attempt(lib, module, &optimized, panic_site) {
            Ok(report) => return report,
            Err(error) => error,
        };
        self.record_first_failure(&first);

        // The fallback: the naive path (no slicing, no cache, no budget —
        // and no faults). It is deterministic, so a failure here is final.
        if !self.config.backoff.is_zero() {
            std::thread::sleep(self.config.backoff);
        }
        match attempt(lib, module, &CheckOptions::naive(), None) {
            Ok(mut report) => {
                self.counters.degraded_units.fetch_add(1, Ordering::Relaxed);
                let marker = CheckError::new(
                    CheckErrorKind::Degraded,
                    Severity::Recoverable,
                    format!("verdict supplied by naive fallback after: {}", first.detail),
                )
                .for_component(name.as_str())
                .at_attempt(1);
                degradations.extend([first, marker.clone()]);
                report.degraded = Some(marker);
                report
            }
            // Still no process abort, still isolated to this component.
            Err(error) => {
                self.counters.failed_units.fetch_add(1, Ordering::Relaxed);
                let fatal = CheckError::new(
                    CheckErrorKind::Degraded,
                    Severity::Fatal,
                    format!("component check failed after 2 attempts: {}", error.detail),
                )
                .for_component(name.as_str())
                .at_attempt(1);
                degradations.extend([first, error.at_attempt(1), fatal.clone()]);
                ComponentReport {
                    name,
                    obligations: 0,
                    proved: 0,
                    diagnostics: vec![fatal.to_diagnostic()],
                    elapsed: Duration::ZERO,
                    solver_stats: Default::default(),
                    degraded: Some(fatal),
                    lints: Vec::new(),
                }
            }
        }
    }

    fn record_first_failure(&self, error: &CheckError) {
        let counter = match error.kind {
            CheckErrorKind::DeadlineExpired => &self.counters.deadline_expiries,
            CheckErrorKind::BudgetExhausted => &self.counters.budget_exhaustions,
            _ => &self.counters.panics_caught,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Saves the report cache to [`ServiceConfig::report_cache_path`].
    /// Returns the number of entries written, or `None` when no path is
    /// configured.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_report_cache(&self) -> std::io::Result<Option<usize>> {
        let Some(path) = &self.config.report_cache_path else {
            return Ok(None);
        };
        self.reports.save(path).map(Some)
    }

    /// Simulates a netlist through the compiled [`SimBackend`] on the
    /// caller's thread.
    ///
    /// Every port access goes through the fallible `try_` surface, so a
    /// request naming a port the module does not have comes back as a
    /// structured [`CheckErrorKind::BadRequest`] error — one rejected
    /// response, not a poisoned service. Genuine backend panics are still
    /// contained by `catch_unwind`, exactly like check units.
    ///
    /// # Errors
    ///
    /// `BadRequest` for an unknown port or a netlist the compiled backend
    /// rejects; `WorkerPanic` if the backend panics.
    pub fn simulate(
        &self,
        netlist: &Netlist,
        request: &SimRequest,
    ) -> Result<SimTrace, CheckError> {
        self.counters.sim_requests.fetch_add(1, Ordering::Relaxed);
        let outcome = quietly(|| run_sim_unit(netlist, request)).unwrap_or_else(|payload| {
            Err(CheckError::new(
                CheckErrorKind::WorkerPanic,
                Severity::Transient,
                WorkerPanic::from_payload(&*payload).message,
            )
            .for_component(netlist.name.as_str()))
        });
        if matches!(&outcome, Err(e) if e.kind == CheckErrorKind::BadRequest) {
            self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Crash-recovery drill: serialize the live cache, optionally let the
    /// fault plan corrupt the image, and reload it. A valid image replaces
    /// the live cache (a no-op in content); a rejected image rebuilds the
    /// cache cold. Exercises exactly the code path a service restart takes
    /// through [`SharedCache::load_or_quarantine`].
    pub fn recycle_cache(&self) -> CacheRecycle {
        let site = self.site_counter.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.shared.lock().expect("cache handle poisoned");
        let mut image = guard.to_bytes();
        let corrupted = self.config.faults.corrupt_bytes(&mut image, site);
        match SharedCache::from_bytes(&image) {
            Ok(reloaded) => {
                let entries = reloaded.len();
                *guard = reloaded;
                self.counters.cache_reloads.fetch_add(1, Ordering::Relaxed);
                CacheRecycle { corrupted, outcome: Ok(entries) }
            }
            Err(error) => {
                *guard = SharedCache::new();
                self.counters.cache_quarantines.fetch_add(1, Ordering::Relaxed);
                CacheRecycle { corrupted, outcome: Err(error) }
            }
        }
    }

    /// Saves the live cache to [`ServiceConfig::cache_path`]. Returns the
    /// number of entries written, or `None` when no path is configured.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_cache(&self) -> std::io::Result<Option<usize>> {
        let Some(path) = &self.config.cache_path else {
            return Ok(None);
        };
        let cache = self.shared.lock().expect("cache handle poisoned").clone();
        cache.save(path).map(Some)
    }
}

/// Restores a persisted cache from `path` when one is configured, counting a
/// reload or a quarantine; without a path the cache starts cold and there
/// is no load status.
fn restore<T: Default>(
    counters: &Counters,
    path: Option<&Path>,
    load: impl FnOnce(&Path) -> (T, CacheLoadStatus),
) -> (T, Option<CacheLoadStatus>) {
    let Some(path) = path else {
        return (T::default(), None);
    };
    let (cache, status) = load(path);
    match &status {
        CacheLoadStatus::Loaded { .. } => {
            counters.cache_reloads.fetch_add(1, Ordering::Relaxed);
        }
        CacheLoadStatus::Quarantined { .. } => {
            counters.cache_quarantines.fetch_add(1, Ordering::Relaxed);
        }
        CacheLoadStatus::Missing => {}
    }
    (cache, Some(status))
}

/// Runs one simulation request start to finish. Unknown ports surface as
/// structured `BadRequest` errors through the fallible [`SimBackend`]
/// surface; nothing in here panics on malformed input.
fn run_sim_unit(netlist: &Netlist, request: &SimRequest) -> Result<SimTrace, CheckError> {
    let bad = |detail: String| {
        CheckError::new(CheckErrorKind::BadRequest, Severity::Recoverable, detail)
            .for_component(netlist.name.as_str())
    };
    let mut backend = CompiledSim::new(netlist).map_err(&bad)?;
    let mut values = Vec::with_capacity(request.stimulus.len());
    for assignments in &request.stimulus {
        for (port, value) in assignments {
            backend.try_set_input(port, *value).map_err(|e| bad(e.to_string()))?;
        }
        let mut row = Vec::with_capacity(request.sample.len());
        for name in &request.sample {
            row.push(backend.try_output(name).map_err(|e| bad(e.to_string()))?);
        }
        values.push(row);
        backend.step();
    }
    Ok(SimTrace { values })
}

thread_local! {
    /// True while this thread is inside a ladder rung, where panics are
    /// expected control flow (budget sentinels, injected faults) rather
    /// than bugs.
    static PANIC_QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Installs — once per process — a panic hook that stays silent for panics
/// raised inside a ladder rung and forwards everything else to the
/// previously installed hook. Without this, every budget expiry and
/// injected fault would spray a "thread panicked" report (and, under
/// `RUST_BACKTRACE`, a full backtrace) onto stderr, drowning real
/// diagnostics in a fuzzing or benchmark run. Nothing is lost for genuine bugs:
/// the payload is captured by `catch_unwind` and surfaced as a structured
/// [`CheckError`] either way.
fn install_quiet_panic_hook() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !PANIC_QUIET.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f` under `catch_unwind` with this thread's panic reports silenced
/// (see [`install_quiet_panic_hook`]).
fn quietly<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    let was_quiet = PANIC_QUIET.with(|quiet| quiet.replace(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    PANIC_QUIET.with(|quiet| quiet.set(was_quiet));
    result
}

/// One ladder rung: checks `module` under `options` inside `catch_unwind`
/// (panicking first with an [`InjectedPanic`] when `panic_site` is set),
/// classifying any panic into a structured [`CheckError`].
fn attempt(
    lib: &CompLibrary<'_>,
    module: &Module,
    options: &CheckOptions,
    panic_site: Option<u64>,
) -> Result<ComponentReport, CheckError> {
    quietly(|| {
        if let Some(site) = panic_site {
            std::panic::panic_any(InjectedPanic { site });
        }
        check_component_with(lib, module, options)
    })
    .map_err(|payload| classify(&*payload, module.name()))
}

/// Maps a panic payload to the structured error taxonomy.
fn classify(payload: &(dyn std::any::Any + Send), component: Symbol) -> CheckError {
    let error = if let Some(b) = payload.downcast_ref::<BudgetExhausted>() {
        match b.kind {
            BudgetKind::Deadline => CheckError::new(
                CheckErrorKind::DeadlineExpired,
                Severity::Transient,
                b.detail.clone(),
            ),
            BudgetKind::Queries => CheckError::new(
                CheckErrorKind::BudgetExhausted,
                Severity::Transient,
                b.detail.clone(),
            ),
        }
    } else if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        CheckError::new(
            CheckErrorKind::WorkerPanic,
            Severity::Transient,
            format!("injected panic (site {})", p.site),
        )
    } else {
        CheckError::new(
            CheckErrorKind::WorkerPanic,
            Severity::Transient,
            WorkerPanic::from_payload(payload).message,
        )
    };
    error.for_component(component.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_ast::{Cmd, Constraint, ModuleKind};
    use lilac_core::{check_program_incremental, check_program_with};
    use lilac_designs::Design;
    use lilac_util::Span;

    fn quiet_config() -> ServiceConfig {
        ServiceConfig {
            // No backoff in tests: the fallback's pause is irrelevant to the
            // properties under test.
            backoff: Duration::ZERO,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn service_matches_oneshot_checker_on_bundled_designs() {
        let service = CheckService::new(quiet_config());
        for design in Design::all() {
            let program = design.program().expect("bundled design parses");
            let outcome = service.check(&program);
            assert_matches_oneshot(design, &program, &outcome);
        }
        let stats = service.stats();
        assert_eq!(stats.programs, Design::all().len() as u64);
        assert!(stats.units > 0);
        assert_eq!(stats.failed_units, 0);
    }

    /// Asserts that a fault-free service `outcome` carries the one-shot
    /// checker's verdict on `program` and no degradations.
    fn assert_matches_oneshot(design: Design, program: &Program, outcome: &ServiceOutcome) {
        let oneshot = check_program_with(program, &CheckOptions::default());
        match (&outcome.verdict, &oneshot) {
            (Ok(a), Ok(b)) => {
                assert!(a.equivalent(b), "{design:?}: service and one-shot reports differ");
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "{design:?}: service said {} but one-shot said {}",
                if a.is_ok() { "ok" } else { "err" },
                if b.is_ok() { "ok" } else { "err" },
            ),
        }
        assert!(outcome.degradations.is_empty(), "no faults armed, no degradations");
    }

    /// Concurrency comes from callers: two threads share one service, each
    /// checking its own half of the designs, and every verdict still equals
    /// the one-shot checker's.
    #[test]
    // Two concurrent callers need two threads of their own.
    #[allow(clippy::disallowed_methods)]
    fn concurrent_callers_share_one_service() {
        let service = CheckService::new(quiet_config());
        let designs = Design::all();
        let (left, right) = designs.split_at(designs.len() / 2);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for half in [left, right] {
                let (service, start) = (&service, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..2 {
                        for &design in half {
                            let program = design.program().expect("bundled design parses");
                            let incremental = service.check_incremental(&program);
                            assert_matches_oneshot(design, &program, &incremental);
                            assert_matches_oneshot(design, &program, &service.check(&program));
                        }
                    }
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.programs, 4 * designs.len() as u64);
        assert_eq!(stats.failed_units, 0);
    }

    #[test]
    fn warm_cache_accumulates_across_requests() {
        let service = CheckService::new(quiet_config());
        let program = Design::Fpu.program().expect("FPU parses");
        service.check(&program);
        let after_first = service.cache_entries();
        assert!(after_first > 0, "checking must populate the shared cache");
        service.check(&program);
        assert!(service.cache_entries() >= after_first);
    }

    #[test]
    fn injected_faults_degrade_but_never_change_the_verdict() {
        let program = Design::Fpu.program().expect("FPU parses");
        let baseline =
            check_program_with(&program, &CheckOptions::naive()).expect("FPU checks clean");
        let mut saw_degradation = false;
        for seed in 0..6u64 {
            let config = ServiceConfig { faults: FaultPlan::seeded(seed), ..quiet_config() };
            let service = CheckService::new(config);
            for _ in 0..3 {
                let outcome = service.check(&program);
                let report = outcome.verdict.as_ref().expect("verdict must stay ok");
                assert!(
                    report.equivalent(&baseline),
                    "seed {seed}: a fault schedule changed the verdict"
                );
                saw_degradation |= !outcome.degradations.is_empty();
            }
            let stats = service.stats();
            assert_eq!(stats.failed_units, 0, "naive fallback must always recover");
        }
        assert!(saw_degradation, "across 6 seeds at ~1/8 density some fault must fire");
    }

    #[test]
    fn deterministic_fault_schedule_is_replayable() {
        let program = Design::Divider.program().expect("Divider parses");
        let run = |seed: u64| {
            let service = CheckService::new(ServiceConfig {
                faults: FaultPlan::seeded(seed),
                ..quiet_config()
            });
            let outcome = service.check(&program);
            let kinds: Vec<String> =
                outcome.degradations.iter().map(|d| d.kind.name().to_string()).collect();
            (kinds, service.stats())
        };
        let (kinds_a, stats_a) = run(3);
        let (kinds_b, stats_b) = run(3);
        assert_eq!(kinds_a, kinds_b, "same seed must replay the same fault schedule");
        assert_eq!(stats_a, stats_b);
    }

    /// Replays never reach the ladder, so they take no fault site: under a
    /// seeded plan a full-hit request injects nothing, and the next checked
    /// unit gets the same site it would have had without the replay.
    #[test]
    fn replayed_components_consume_no_fault_site() {
        let program = Design::Fpu.program().expect("FPU parses");
        // Re-request until every component's clean verdict is stored
        // (faulted units are degraded, so they miss again next time).
        let warmed = || {
            let faults = FaultPlan::seeded(SEED);
            let service =
                CheckService::new(ServiceConfig { faults: faults.clone(), ..quiet_config() });
            for _ in 0..32 {
                let before = service.stats().report_misses;
                service.check_incremental(&program);
                if service.stats().report_misses == before {
                    return (service, faults);
                }
            }
            panic!("the report cache never filled");
        };
        const SEED: u64 = 2;
        let (replayed, faults) = warmed();
        let (control, _) = warmed();
        let (injected, before) = (faults.total_injected(), replayed.stats());
        let outcome = replayed.check_incremental(&program);
        assert!(outcome.verdict.is_ok());
        assert!(outcome.degradations.is_empty(), "a replay cannot degrade");
        let after = replayed.stats();
        assert_eq!(after.units, before.units, "a full-hit replay runs no unit");
        assert_eq!(after.report_misses, before.report_misses, "the repeat is all hits");
        assert_eq!(faults.total_injected(), injected, "a replay injects no fault");
        // The replay took no site, so both services address the same sites.
        let sites = |service: &CheckService| format!("{:?}", service.check(&program).degradations);
        let next = sites(&replayed);
        assert_ne!(next, "[]", "seed {SEED} must fault the next request for the pin to bite");
        assert_eq!(next, sites(&control));
    }

    #[test]
    fn recycle_cache_is_a_no_op_without_faults() {
        let service = CheckService::new(quiet_config());
        let program = Design::Gbp.program().expect("GBP parses");
        service.check(&program);
        let before = service.cache_entries();
        let recycle = service.recycle_cache();
        assert_eq!(recycle.corrupted, None);
        assert_eq!(recycle.outcome, Ok(before));
        assert_eq!(service.cache_entries(), before);
    }

    #[test]
    fn simulate_matches_interpreter_trace() {
        use lilac_ir::NodeKind;
        let service = CheckService::new(quiet_config());
        let mut n = Netlist::new("svc_sim");
        let a = n.add_input("a", 8);
        let b = n.add_input("b", 8);
        let sum = n.add_node(NodeKind::Add, vec![a, b], 8, "sum");
        let reg = n.add_node(NodeKind::Reg, vec![sum], 8, "lag");
        n.add_output("sum", sum);
        n.add_output("lag", reg);
        let request = SimRequest {
            stimulus: (0..8u64)
                .map(|c| vec![("a".to_string(), 3 * c + 1), ("b".to_string(), 5 * c)])
                .collect(),
            sample: vec!["sum".to_string(), "lag".to_string()],
        };
        let trace = service.simulate(&n, &request).expect("well-formed request simulates");
        let mut sim = lilac_sim::Simulator::new(&n).expect("netlist is valid");
        for (cycle, assignments) in request.stimulus.iter().enumerate() {
            for (port, value) in assignments {
                sim.set_input(port, *value);
            }
            assert_eq!(trace.values[cycle], vec![sim.peek("sum"), sim.peek("lag")]);
            sim.step();
        }
    }

    #[test]
    fn bad_sim_requests_degrade_without_poisoning_the_service() {
        use lilac_ir::NodeKind;
        let service = CheckService::new(quiet_config());
        let mut n = Netlist::new("svc_bad");
        let a = n.add_input("a", 4);
        let inv = n.add_node(NodeKind::Not, vec![a], 4, "inv");
        n.add_output("o", inv);
        let good = SimRequest {
            stimulus: vec![vec![("a".to_string(), 5)]],
            sample: vec!["o".to_string()],
        };
        let bad_input = SimRequest {
            stimulus: vec![vec![("nope".to_string(), 1)]],
            sample: vec!["o".to_string()],
        };
        let bad_output = SimRequest { stimulus: vec![vec![]], sample: vec!["missing".to_string()] };
        let err = service.simulate(&n, &bad_input).expect_err("unknown input is rejected");
        assert_eq!(err.kind, CheckErrorKind::BadRequest);
        assert_eq!(err.severity, Severity::Recoverable);
        assert!(err.to_string().contains("no input named `nope`"), "{err}");
        let err = service.simulate(&n, &bad_output).expect_err("unknown output is rejected");
        assert_eq!(err.kind, CheckErrorKind::BadRequest);
        assert!(err.to_string().contains("no output named `missing`"), "{err}");
        // The service keeps serving — both simulation and check traffic.
        let trace = service.simulate(&n, &good).expect("service survived the bad requests");
        assert_eq!(trace.values, vec![vec![0xA]]);
        let program = Design::Gbp.program().expect("GBP parses");
        assert!(service.check(&program).is_ok());
        let stats = service.stats();
        assert_eq!(stats.sim_requests, 3);
        assert_eq!(stats.bad_requests, 2);
    }

    #[test]
    fn library_errors_take_no_ladder() {
        let service = CheckService::new(quiet_config());
        // Two components with the same name: rejected by CompLibrary::build.
        let (program, _map) = lilac_ast::parse_program(
            "dup.lilac",
            "extern comp A[#W]<G:1>(i: [G, G+1] #W) -> (o: [G, G+1] #W);\n\
             extern comp A[#W]<G:1>(i: [G, G+1] #W) -> (o: [G, G+1] #W);",
        )
        .expect("parses");
        let outcome = service.check(&program);
        assert!(outcome.verdict.is_err());
        assert!(outcome.degradations.is_empty());
        assert_eq!(service.stats().units, 0);
    }

    #[test]
    fn incremental_matches_check_and_replays_without_redispatch() {
        let service = CheckService::new(quiet_config());
        // FPU (plus the stdlib it bundles) checks clean with no diagnostics
        // at all, so every component's verdict is cacheable.
        let program = Design::Fpu.program().expect("FPU parses");
        let baseline = service.check(&program);
        let units_after_check = service.stats().units;
        let cold = service.check_incremental(&program);
        let after_cold = service.stats();
        assert_eq!(after_cold.report_hits, 0, "an empty cache cannot hit");
        assert!(after_cold.report_misses > 0);
        match (&cold.verdict, &baseline.verdict) {
            (Ok(a), Ok(b)) => assert!(a.equivalent(b), "incremental and plain verdicts differ"),
            _ => panic!("FPU checks clean on both paths"),
        }
        // Replaying the identical program serves every component from the
        // report cache: no unit runs.
        let units_after_cold = service.stats().units;
        let warm = service.check_incremental(&program);
        let stats = service.stats();
        assert_eq!(stats.units, units_after_cold, "a full-hit replay must not dispatch units");
        assert_eq!(stats.report_hits, after_cold.report_misses);
        assert_eq!(stats.report_misses, after_cold.report_misses);
        assert!(units_after_cold > units_after_check, "the cold pass did real work");
        let replayed = warm.verdict.expect("replay stays clean");
        assert!(replayed.equivalent(baseline.verdict.as_ref().unwrap()));
        assert_eq!(replayed.total_elapsed(), Duration::ZERO, "hits do no checking work");
    }

    /// A replay did no checking work, so on both incremental paths it
    /// reports zero time and zero solver effort, whatever the cold check
    /// spent.
    #[test]
    fn replayed_reports_carry_no_time_or_solver_effort() {
        let program = Design::Fpu.program().expect("FPU parses");
        let effortless = |report: &CheckReport| {
            report.components.iter().all(|c| {
                c.elapsed == Duration::ZERO
                    && c.solver_stats == lilac_solver::SolverStats::default()
            })
        };
        let options = CheckOptions::default();
        let mut prior = PriorReports::new();
        let cold = check_program_incremental(&program, &options, &mut prior).expect("FPU checks");
        assert!(cold.report.solver_stats().queries > 0, "the cold check does solver work");
        let warm = check_program_incremental(&program, &options, &mut prior).expect("FPU checks");
        assert_eq!(warm.misses, 0);
        assert!(effortless(&warm.report), "core replays must report no effort");

        let service = CheckService::new(quiet_config());
        let cold = service.check_incremental(&program).verdict.expect("FPU checks");
        assert!(cold.solver_stats().queries > 0, "the cold check does solver work");
        let warm = service.check_incremental(&program).verdict.expect("FPU checks");
        assert_eq!(service.stats().report_hits as usize, warm.components.len());
        assert!(effortless(&warm), "service replays must report no effort");
    }

    #[test]
    fn one_token_mutation_misses_the_cache_and_flips_the_verdict() {
        let good_src = "extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);\n\
             comp Delay2[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+2, G+3] #W) {\n\
                 a := new Reg[#W]<G>(i);\n\
                 b := new Reg[#W]<G+1>(a.out);\n\
                 o = b.out;\n\
             }";
        // One token later (`G+1` → `G+2`) the second register reads `a.out`
        // after its availability window closed: the verdict must flip.
        let bad_src = good_src.replace("new Reg[#W]<G+1>", "new Reg[#W]<G+2>");
        let (good, _map) = lilac_ast::parse_program("good.lilac", good_src).expect("parses");
        let (bad, _map) = lilac_ast::parse_program("bad.lilac", &bad_src).expect("parses");
        let service = CheckService::new(quiet_config());
        assert!(service.check_incremental(&good).verdict.is_ok(), "baseline checks clean");
        assert_eq!(service.report_cache_len(), 1, "Delay2's clean verdict is cached");
        let outcome = service.check_incremental(&bad);
        assert!(outcome.verdict.is_err(), "the mutant must be re-checked and rejected");
        let stats = service.stats();
        assert_eq!(stats.report_hits, 0, "a one-token body edit must miss the cache");
        assert_eq!(stats.report_misses, 2);
        assert_eq!(service.report_cache_len(), 1, "rejected verdicts are never cached");
        // The clean original still replays.
        let again = service.check_incremental(&good);
        assert!(again.verdict.is_ok());
        assert_eq!(service.stats().report_hits, 1);
    }

    #[test]
    fn callee_signature_edits_invalidate_cached_callers() {
        let base_src = "extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);\n\
             comp Mid[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) {\n\
                 r := new Reg[#W]<G>(i);\n\
                 o = r.out;\n\
             }\n\
             comp Top[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+2, G+3] #W) {\n\
                 a := new Mid[#W]<G>(i);\n\
                 b := new Mid[#W]<G+1>(a.o);\n\
                 o = b.o;\n\
             }";
        // Adding a defaulted parameter to Mid is a signature edit that is
        // inert for callers (the default fills in at instantiation sites) —
        // but Top instantiates Mid, so Top's cached verdict must be
        // invalidated too. (A pure rename would NOT invalidate anything:
        // the content hash is alpha-invariant by construction.)
        let edited_src = base_src.replace("comp Mid[#W]<G:1>", "comp Mid[#W, #Unused = 0]<G:1>");
        let (base, _map) = lilac_ast::parse_program("base.lilac", base_src).expect("parses");
        let (edited, _map) = lilac_ast::parse_program("edited.lilac", &edited_src).expect("parses");
        let service = CheckService::new(quiet_config());
        assert!(service.check_incremental(&base).verdict.is_ok());
        assert_eq!(service.stats().report_misses, 2);
        assert!(service.check_incremental(&edited).verdict.is_ok());
        let stats = service.stats();
        assert_eq!(
            stats.report_misses, 4,
            "both Mid and its transitive caller Top must be re-checked"
        );
        assert_eq!(stats.report_hits, 0);
    }

    #[test]
    fn faulted_runs_never_seed_the_report_cache_with_degraded_verdicts() {
        let program = Design::Fpu.program().expect("FPU parses");
        let baseline =
            check_program_with(&program, &CheckOptions::naive()).expect("FPU checks clean");
        let components =
            program.modules.iter().filter(|m| matches!(m.kind, ModuleKind::Comp { .. })).count();
        for seed in 0..4u64 {
            let config = ServiceConfig { faults: FaultPlan::seeded(seed), ..quiet_config() };
            let service = CheckService::new(config);
            for _ in 0..2 {
                let outcome = service.check_incremental(&program);
                let report = outcome.verdict.as_ref().expect("verdict must stay ok");
                assert!(
                    report.equivalent(&baseline),
                    "seed {seed}: a fault schedule changed the incremental verdict"
                );
            }
            // Only clean verdicts are admitted, so the cache can never hold
            // more entries than the program has components — and anything it
            // does hold replays without diagnostics or degradation markers.
            assert!(service.report_cache_len() <= components);
            assert_eq!(service.stats().failed_units, 0);
        }
    }

    #[test]
    fn report_cache_persists_across_service_restarts() {
        let dir = std::env::temp_dir().join(format!("lilac-svc-reports-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("reports.bin");
        let config = |path: &std::path::Path| ServiceConfig {
            report_cache_path: Some(path.to_path_buf()),
            ..quiet_config()
        };
        let program = Design::Fpu.program().expect("FPU parses");
        let first = CheckService::new(config(&path));
        assert!(matches!(first.report_cache_status(), Some(CacheLoadStatus::Missing)));
        first.check_incremental(&program);
        let saved = first.save_report_cache().expect("save succeeds").expect("path configured");
        assert!(saved > 0, "a clean program populates the cache");
        // A restarted service replays the whole program without dispatching
        // a single unit.
        let second = CheckService::new(config(&path));
        assert!(matches!(
            second.report_cache_status(),
            Some(CacheLoadStatus::Loaded { entries }) if *entries == saved
        ));
        assert!(second.check_incremental(&program).verdict.is_ok());
        let stats = second.stats();
        assert_eq!(stats.report_misses, 0, "a restored cache serves the whole program");
        assert_eq!(stats.units, 0);
        // A corrupted image is quarantined, never trusted.
        let mut bytes = std::fs::read(&path).expect("image readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite image");
        let third = CheckService::new(config(&path));
        assert!(matches!(third.report_cache_status(), Some(CacheLoadStatus::Quarantined { .. })));
        assert_eq!(third.report_cache_len(), 0);
        assert!(!path.exists(), "the corrupt image is moved aside");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_incremental_recheck_does_a_third_of_cold_work() {
        // A request stream where each request edits exactly one component of
        // FPU (which bundles the stdlib, so the program carries several
        // components). Cold service: every request re-checks everything.
        // Warm service: every request re-checks only the edited component.
        // Work is counted as obligations discharged, which unlike wall clock
        // does not depend on what else the host is running.
        let base = Design::Fpu.program().expect("FPU parses");
        let comp_indices: Vec<usize> = base
            .modules
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m.kind, ModuleKind::Comp { .. }))
            .map(|(i, _)| i)
            .collect();
        assert!(comp_indices.len() >= 4, "the ratio needs a multi-component program");
        let requests: Vec<(Program, Symbol)> = (0..2 * comp_indices.len())
            .map(|k| {
                let mut p = base.clone();
                let target = comp_indices[k % comp_indices.len()];
                if let ModuleKind::Comp { body } = &mut p.modules[target].kind {
                    // A semantically inert body edit: changes the content
                    // hash without changing the verdict. A different number
                    // of assumptions per request keeps every edit distinct,
                    // so no request accidentally replays an earlier edit.
                    for _ in 0..=k {
                        body.push(Cmd::Assume {
                            constraint: Constraint::True,
                            span: Span::dummy(),
                        });
                    }
                }
                let name = p.modules[target].name();
                (p, name)
            })
            .collect();
        let cold_service = CheckService::new(quiet_config());
        cold_service.check(&base);
        let mut cold = 0;
        for (request, _) in &requests {
            let report = cold_service.check(request).verdict.expect("cold request checks");
            cold += report.total_obligations();
        }
        let warm_service = CheckService::new(quiet_config());
        warm_service.check_incremental(&base);
        let mut warm = 0;
        for (request, edited) in &requests {
            let report =
                warm_service.check_incremental(request).verdict.expect("warm request checks");
            warm += report.components.iter().find(|c| c.name == *edited).unwrap().obligations;
        }
        let stats = warm_service.stats();
        assert_eq!(
            stats.report_misses as usize,
            comp_indices.len() + requests.len(),
            "each warm request re-checks exactly the one edited component"
        );
        assert!(
            cold >= warm * 3,
            "warm re-checking must discharge at most a third of the cold obligations: \
             cold {cold} vs warm {warm}"
        );
    }
}
