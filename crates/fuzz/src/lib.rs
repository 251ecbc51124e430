//! Differential fuzzing for the Lilac reproduction.
//!
//! The paper's evaluation exercises eight hand-authored designs; this crate
//! turns that into an unbounded supply. A seeded generator draws random
//! *well-typed-by-construction* Lilac programs — compositions of standard
//! library components, loops and bundles, parameterized generated
//! sub-components, and FloPoCo generator invocations — and pushes each one
//! through ten differential oracles (see [`oracle`]):
//!
//! 1. every checker configuration (optimized / shared-cache / naive)
//!    reaches the same verdict;
//! 2. programs that type-check elaborate and simulate to exactly the values
//!    the scenario interpreter predicts, cycle by cycle (the paper's §4
//!    soundness claim, observed dynamically);
//! 3. printing and re-parsing is a fixpoint;
//! 4. the latency-abstract netlist and its mechanically wrapped
//!    latency-insensitive counterpart compute identical values;
//! 5. the netlist's emitted Verilog, parsed and cycle-accurately simulated
//!    by `lilac-vsim`, matches `lilac-sim` output-for-output on every
//!    cycle (the backend oracle);
//! 6. the optimized netlist (`lilac_opt::optimize`) never grows the
//!    design, simulates bit-identically to the unoptimized one, and its
//!    own emitted Verilog round-trips through `lilac-vsim` to the same
//!    values (the optimizer oracle);
//! 7. the retimed netlist (`lilac_opt::retime`) preserves every output's
//!    input-to-output register latency exactly, never worsens the
//!    estimated critical path (`lilac-synth`), simulates bit-identically
//!    to the raw netlist on every cycle, and its own emitted Verilog
//!    round-trips through `lilac-vsim` to the same values (the retiming
//!    oracle);
//! 8. the long-lived fault-tolerant [`CheckService`](lilac_service) —
//!    optionally under a seeded fault-injection schedule (`faults`) and a
//!    persistent on-disk cache (`cache_file`) — reaches exactly the naive
//!    checker's verdict on every case, degradations and cache quarantines
//!    notwithstanding (the robustness oracle). Because faults only shape
//!    *how* the service reaches its answer, the run's fingerprint is
//!    identical with and without `--faults`;
//! 9. the compiled bit-parallel tape ([`lilac_sim::CompiledSim`]) matches
//!    the interpreter on every output of every cycle in the same lockstep
//!    loop, and — with 64 stimulus vectors packed one per `u64` bit lane
//!    and held constant — settles every output to its predicted value in
//!    every lane (the compiled simulation oracle);
//! 10. an editing session over each program — alpha-rename, module
//!     reorder, a one-component body edit, a callee-signature edit —
//!     re-checked incrementally ([`lilac_core::check_program_incremental`])
//!     with one [`PriorReports`](lilac_core::PriorReports) store threaded
//!     through, reaches the from-scratch verdict on every request, and the
//!     hash-preserving edits replay entirely from the store (the
//!     incremental re-checking oracle).
//!
//! A sixth of the cases carry a deliberate one-cycle timing fault and must
//! be *rejected* — identically — by every checker configuration.
//!
//! Failures are minimized by the greedy [`shrink`]er and can be emitted as
//! corpus files ([`corpus`]) that replay as ordinary `cargo test`
//! regressions.
//!
//! Everything is deterministic: `run_fuzz` with the same seed and case
//! count produces bit-for-bit the same [`FuzzSummary`], including its
//! fingerprint.

pub mod campaign;
pub mod corpus;
pub mod lint;
pub mod mutate;
pub mod oracle;
pub mod scenario;
pub mod shrink;
pub mod synth;

use oracle::{run_case, CaseStats, Session};
use scenario::generate;

/// Compact per-case coverage signature: which oracle and legality branches
/// the case exercised. A pure function of the case seed (session state —
/// caches, faults, degradations — never contributes a bit), so replaying a
/// case in any context recomputes the same signature. The campaign runner
/// distills its corpus by keeping the first case of every distinct
/// signature (`fuzz/corpus/distilled/` pins the 200-case seed-0 set).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoverageSignature(pub u32);

impl CoverageSignature {
    /// The program type-checked (clear on sabotaged, rejected cases).
    pub const CHECKED: u32 = 1 << 0;
    /// The scenario invokes the FloPoCo generator block.
    pub const GEN_BLOCK: u32 = 1 << 1;
    /// The scenario instantiates a generated sub-component.
    pub const SUB_COMPONENT: u32 = 1 << 2;
    /// More than one output was driven and compared.
    pub const MULTI_OUTPUT: u32 = 1 << 3;
    /// More than one stimulus vector streamed through the design.
    pub const MULTI_STIMULUS: u32 = 1 << 4;
    /// Some output arrives with nonzero latency (sequential state on the
    /// path — the retiming and delay-emission branches are reachable).
    pub const PIPELINED: u32 = 1 << 5;
    /// The optimizer rewrote at least one node (oracle 6 beyond the
    /// identity path).
    pub const OPT_REWROTE: u32 = 1 << 6;
    /// The retimer accepted at least one move (oracle 7 beyond its
    /// legality bail-outs).
    pub const RETIME_MOVED: u32 = 1 << 7;
    /// The known-bits folder fired (a dataflow fact the syntactic folder
    /// cannot see).
    pub const KNOWN_BITS_FOLDED: u32 = 1 << 8;
    /// The static analysis linted the elaborated netlist.
    pub const LINTED: u32 = 1 << 9;
    /// Datapath width of at least 16 bits (wide-mask paths).
    pub const WIDE: u32 = 1 << 10;

    /// Bit names in bit order, for rendering.
    const NAMES: [(u32, &'static str); 11] = [
        (Self::CHECKED, "checked"),
        (Self::GEN_BLOCK, "gen"),
        (Self::SUB_COMPONENT, "sub"),
        (Self::MULTI_OUTPUT, "multi-out"),
        (Self::MULTI_STIMULUS, "multi-stim"),
        (Self::PIPELINED, "pipelined"),
        (Self::OPT_REWROTE, "opt"),
        (Self::RETIME_MOVED, "retime"),
        (Self::KNOWN_BITS_FOLDED, "known-bits"),
        (Self::LINTED, "linted"),
        (Self::WIDE, "wide"),
    ];

    /// Sets `bit` when `cond` holds.
    pub fn set_if(&mut self, bit: u32, cond: bool) {
        if cond {
            self.0 |= bit;
        }
    }

    /// Human-readable `+`-joined bit names (`"rejected"` when no bit that
    /// has a name is set and the case did not check).
    pub fn describe(self) -> String {
        let names: Vec<&str> = Self::NAMES
            .iter()
            .filter(|(bit, _)| self.0 & bit != 0)
            .map(|(_, name)| *name)
            .collect();
        if names.is_empty() {
            "rejected".to_string()
        } else {
            names.join("+")
        }
    }
}

impl std::fmt::Display for CoverageSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

/// Configuration of one fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of cases to generate.
    pub cases: u64,
    /// Base seed; case `i` derives its own seed from it.
    pub seed: u64,
    /// Minimize failures with the greedy shrinker.
    pub shrink: bool,
    /// Stop after this many failures.
    pub max_failures: usize,
    /// Seed the check service's fault-injection schedule (worker panics,
    /// forced deadline expiries, budget exhaustion, cache corruption).
    /// `None` runs the service fault-free.
    pub faults: Option<u64>,
    /// Restore the service's shared cache from this file at startup and
    /// persist it back when the run completes.
    pub cache_file: Option<std::path::PathBuf>,
    /// Route the service oracle's requests through
    /// [`CheckService::check_incremental`](lilac_service::CheckService) so
    /// the service's report cache — the same
    /// [`PriorReports`](lilac_core::PriorReports) store oracle 10 threads
    /// through the one-shot checker — replays clean verdicts across cases. Like `faults`, this shapes only *how* the service answers:
    /// verdicts — and therefore stdout and the fingerprint — must be
    /// byte-identical with and without it.
    pub incremental: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 200,
            seed: 0,
            shrink: true,
            max_failures: 5,
            faults: None,
            cache_file: None,
            incremental: false,
        }
    }
}

/// One (shrunk) oracle failure, ready to be reported or written to disk.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Case index within the run.
    pub case_index: u64,
    /// The derived seed — `generate(case_seed)` reproduces the scenario.
    pub case_seed: u64,
    /// Which oracle disagreed.
    pub oracle: String,
    /// Disagreement description (from the shrunk scenario).
    pub detail: String,
    /// The shrunk program text.
    pub program: String,
    /// Scenario sizes before/after shrinking and the probe count.
    pub steps_before: usize,
    /// Steps remaining after shrinking.
    pub steps_after: usize,
    /// Candidate scenarios probed while shrinking.
    pub probes: usize,
}

/// Aggregate result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzSummary {
    /// Cases generated.
    pub cases: u64,
    /// Cases that type-checked (and ran the simulation oracles).
    pub checked_ok: u64,
    /// Sabotaged cases correctly rejected.
    pub rejected: u64,
    /// Cases exercising the FloPoCo generator block.
    pub gen_cases: u64,
    /// Cases invoking generated sub-components.
    pub sub_cases: u64,
    /// Total proof obligations discharged by the optimized checker.
    pub obligations: u64,
    /// Total solver queries issued by the optimized checker.
    pub queries: u64,
    /// Total cycles simulated by the value and LA/LI oracles.
    pub cycles: u64,
    /// Entries accumulated in the persistent cross-case solver cache.
    pub shared_cache_entries: usize,
    /// Faults injected into the check service (0 without `faults`).
    pub faults_injected: u64,
    /// Units the service answered through its degradation ladder.
    pub degraded_units: u64,
    /// Units the service could not answer even after every retry. Any
    /// nonzero value here on a healthy run is a bug in the ladder.
    pub failed_units: u64,
    /// Corrupted cache images the service quarantined and rebuilt from cold.
    pub cache_quarantines: u64,
    /// Entries persisted to `cache_file` at the end of the run.
    pub cache_entries_saved: Option<usize>,
    /// Component verdicts the service replayed from its content-addressed
    /// report cache (0 unless `incremental`).
    pub report_hits: u64,
    /// Component verdicts the service re-checked on a cache miss (0 unless
    /// `incremental`).
    pub report_misses: u64,
    /// Oracle disagreements (empty on a healthy run).
    pub failures: Vec<FailureReport>,
    /// Histogram of per-case [`CoverageSignature`]s (signature → cases).
    /// Session-independent by construction, so sequential and sharded runs
    /// of the same seed observe the same histogram.
    pub signatures: std::collections::BTreeMap<CoverageSignature, u64>,
    /// Order-sensitive digest of every case outcome; bit-for-bit stable
    /// for a given (seed, cases) pair.
    pub fingerprint: u64,
}

/// FNV-1a accumulation (stable across platforms and runs).
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = if hash == 0 { 0xcbf2_9ce4_8422_2325 } else { hash };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Seed of case `i` under base seed `base`: a SplitMix64 scramble so that
/// consecutive cases are decorrelated but the mapping is stable.
pub fn case_seed(base: u64, i: u64) -> u64 {
    let mut z = base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything one case produced, ready to be folded into a summary: the
/// unit of work the sequential driver and the campaign's shard workers
/// share. Records are a pure function of `(config, index)` — session state
/// shapes *how* the oracles answered, never what is recorded — so folding
/// the same records in the same order always yields the same summary.
#[derive(Clone, Debug)]
pub struct CaseRecord {
    /// Case index within the run.
    pub index: u64,
    /// Derived case seed (`case_seed(config.seed, index)`).
    pub seed: u64,
    /// Scenario exercises the FloPoCo generator block.
    pub gen_case: bool,
    /// Scenario invokes a generated sub-component.
    pub sub_case: bool,
    /// Case statistics, or the (shrunk) oracle disagreement.
    pub outcome: Result<CaseStats, FailureReport>,
}

/// Generates, cross-checks, and (on failure) shrinks case `index` of the
/// run `config` describes, under `session`. This is the one per-case path:
/// the sequential driver calls it in index order; campaign shard workers
/// call it over their index range.
pub fn run_indexed_case(config: &FuzzConfig, session: &Session, index: u64) -> CaseRecord {
    let seed = case_seed(config.seed, index);
    let scenario = generate(seed);
    let gen_case = scenario.gen_block.is_some();
    let sub_case = scenario.steps.iter().any(|s| matches!(s, scenario::Step::SubComp { .. }));
    let outcome = match run_case(&scenario, session) {
        Ok(stats) => Ok(stats),
        Err(failure) => {
            let report = if config.shrink {
                // Re-judge each candidate with a *fresh* shared cache so
                // shrinking is independent of the probes before it while
                // still running the warm-cache configuration (failures
                // that need cross-case cache pollution to reproduce are
                // reported unshrunk). Only candidates failing the *same*
                // oracle are accepted.
                let oracle_name = failure.oracle;
                let shrunk = shrink::shrink(&scenario, failure, |cand| {
                    match run_case(cand, &Session::new()) {
                        Err(f) if f.oracle == oracle_name => Some(f),
                        _ => None,
                    }
                });
                FailureReport {
                    case_index: index,
                    case_seed: seed,
                    oracle: shrunk.failure.oracle.to_string(),
                    detail: shrunk.failure.detail.clone(),
                    program: lilac_ast::printer::print_program(
                        &synth::synthesize(&shrunk.scenario).program,
                    ),
                    steps_before: shrunk.steps_before,
                    steps_after: shrunk.steps_after,
                    probes: shrunk.probes,
                }
            } else {
                let steps = scenario.steps.len();
                FailureReport {
                    case_index: index,
                    case_seed: seed,
                    oracle: failure.oracle.to_string(),
                    detail: failure.detail,
                    program: lilac_ast::printer::print_program(
                        &synth::synthesize(&scenario).program,
                    ),
                    steps_before: steps,
                    steps_after: steps,
                    probes: 0,
                }
            };
            Err(report)
        }
    };
    // The recycle drill: under an enabled fault schedule, force the
    // service's cache through serialize → (maybe corrupt) → reload after
    // every case, so the quarantine-and-rebuild path is exercised mid-run,
    // not just at startup. Verdicts must be unaffected — the next case's
    // oracle 8 comparison checks exactly that.
    if session.faults().is_enabled() {
        if let Some(service) = session.service() {
            let _ = service.recycle_cache();
        }
    }
    CaseRecord { index, seed, gen_case, sub_case, outcome }
}

/// Folds one case record into the summary — counters, coverage histogram,
/// and the order-sensitive fingerprint. Returns `true` when the run must
/// stop (the `max_failures` budget is spent). The sequential driver and the
/// campaign's merge pass both fold through here, which is what makes a
/// sharded run's summary byte-identical to the sequential one: same
/// records, same order, same fold.
pub fn fold_record(summary: &mut FuzzSummary, record: &CaseRecord, max_failures: usize) -> bool {
    summary.cases += 1;
    if record.gen_case {
        summary.gen_cases += 1;
    }
    if record.sub_case {
        summary.sub_cases += 1;
    }
    let seed = record.seed;
    match &record.outcome {
        Ok(stats) => {
            if stats.checked_ok {
                summary.checked_ok += 1;
            } else {
                summary.rejected += 1;
            }
            summary.obligations += stats.obligations as u64;
            summary.queries += stats.queries;
            summary.cycles += stats.cycles;
            *summary.signatures.entry(stats.coverage).or_insert(0) += 1;
            summary.fingerprint = fnv1a(
                summary.fingerprint,
                format!(
                    "{seed}:{}:{}:{}:{}:{}",
                    stats.checked_ok, stats.modules, stats.obligations, stats.queries, stats.cycles
                )
                .as_bytes(),
            );
            false
        }
        Err(report) => {
            summary.fingerprint = fnv1a(
                summary.fingerprint,
                format!("{seed}:FAIL:{}:{}", report.oracle, report.detail).as_bytes(),
            );
            summary.failures.push(report.clone());
            summary.failures.len() >= max_failures
        }
    }
}

/// Runs the fuzzer. Failures are shrunk (when configured) but never panic
/// the run; they are collected into the summary.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzSummary {
    run_fuzz_with_progress(config, |_| {})
}

/// [`run_fuzz`] with a progress callback invoked after every case (the CLI
/// uses it; `cargo test` does not).
pub fn run_fuzz_with_progress(config: &FuzzConfig, mut progress: impl FnMut(u64)) -> FuzzSummary {
    let session =
        Session::with_service(config.faults, config.cache_file.clone(), config.incremental);
    let mut summary = FuzzSummary::default();
    for i in 0..config.cases {
        let record = run_indexed_case(config, &session, i);
        let stop = fold_record(&mut summary, &record, config.max_failures);
        if stop {
            break;
        }
        progress(i + 1);
    }
    finish_summary(&mut summary, &session);
    summary
}

/// Copies the session-level statistics (cache sizes, fault and service
/// counters, persisted-entry counts) into a folded summary, saving the
/// service's cache as a side effect. Shared by the sequential driver and,
/// per shard, by the campaign runner.
pub(crate) fn finish_summary(summary: &mut FuzzSummary, session: &Session) {
    summary.shared_cache_entries = session.shared_cache_entries();
    summary.faults_injected = session.faults().total_injected();
    if let Some(service) = session.service() {
        let stats = service.stats();
        summary.degraded_units = stats.degraded_units;
        summary.failed_units = stats.failed_units;
        summary.cache_quarantines = stats.cache_quarantines;
        summary.report_hits = stats.report_hits;
        summary.report_misses = stats.report_misses;
        summary.cache_entries_saved = service.save_cache().ok().flatten();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_smoke_is_clean_and_deterministic() {
        let config = FuzzConfig { cases: 60, seed: 0, ..FuzzConfig::default() };
        let a = run_fuzz(&config);
        assert!(a.failures.is_empty(), "oracle disagreements in the smoke run: {:#?}", a.failures);
        assert!(a.checked_ok > 0, "some cases must check");
        assert!(a.rejected > 0, "some sabotaged cases must be generated");
        assert!(a.obligations > 0);
        assert!(a.cycles > 0);
        let b = run_fuzz(&config);
        assert_eq!(a.fingerprint, b.fingerprint, "same seed must be bit-for-bit deterministic");
        assert_eq!(a.cases, b.cases);
    }

    #[test]
    fn fuzz_with_faults_is_clean() {
        let plain = run_fuzz(&FuzzConfig { cases: 60, seed: 0, ..FuzzConfig::default() });
        let faulty =
            run_fuzz(&FuzzConfig { cases: 60, seed: 0, faults: Some(1), ..FuzzConfig::default() });
        assert!(
            faulty.failures.is_empty(),
            "fault injection flipped a verdict: {:#?}",
            faulty.failures
        );
        assert!(faulty.faults_injected > 0, "the seeded schedule must actually fire");
        assert!(faulty.degraded_units > 0, "some units must walk the degradation ladder");
        assert_eq!(faulty.failed_units, 0, "the ladder must always recover");
        assert_eq!(
            faulty.fingerprint, plain.fingerprint,
            "faults shape how answers are reached, never the answers: \
             the fingerprint must match the fault-free run bit-for-bit"
        );
    }

    #[test]
    fn fuzz_incremental_mode_is_clean() {
        let plain = run_fuzz(&FuzzConfig { cases: 40, seed: 0, ..FuzzConfig::default() });
        let incremental = run_fuzz(&FuzzConfig {
            cases: 40,
            seed: 0,
            incremental: true,
            ..FuzzConfig::default()
        });
        assert!(
            incremental.failures.is_empty(),
            "incremental mode flipped a verdict: {:#?}",
            incremental.failures
        );
        assert!(
            incremental.report_hits + incremental.report_misses > 0,
            "incremental mode must route requests through the report cache"
        );
        assert_eq!(
            incremental.fingerprint, plain.fingerprint,
            "the report cache shapes how verdicts are reached, never the verdicts: \
             the fingerprint must match the plain run bit-for-bit"
        );
    }

    #[test]
    fn different_seeds_explore_different_programs() {
        let a = run_fuzz(&FuzzConfig { cases: 15, seed: 1, ..FuzzConfig::default() });
        let b = run_fuzz(&FuzzConfig { cases: 15, seed: 2, ..FuzzConfig::default() });
        assert_ne!(a.fingerprint, b.fingerprint);
    }
}
