//! The differential oracles.
//!
//! Every generated case is pushed through eleven independent cross-checks:
//!
//! 1. **Checker A/B** — the optimized obligation-discharge pipeline
//!    (slicing + caching + indexed scopes) and the naive baseline
//!    ([`CheckOptions::naive`]) must reach the same verdict on the same
//!    program — identical reports when it checks, matching
//!    diagnostics when it does not. Sabotaged programs must be rejected;
//!    clean programs must be accepted (the soundness direction of §4).
//! 2. **Elaborate + simulate** — a program that type-checks must elaborate
//!    and, under the exact-latency streaming protocol, every output must
//!    equal the scenario interpreter's prediction on every cycle. A value
//!    arriving one cycle off its timeline type is a timing violation and
//!    shows up as a mismatch.
//! 3. **Print/parse round-trip** — the printed program must re-parse to an
//!    AST that prints identically.
//! 4. **LA vs LI** — the elaborated (latency-abstract) netlist and its
//!    mechanically wrapped ready–valid counterpart
//!    ([`lilac_li::rv::auto_wrap`]) must compute bit-identical outputs
//!    under the never-stalling handshake.
//! 5. **Verilog backend** — the netlist's emitted Verilog
//!    ([`lilac_ir::emit_verilog`]) must parse under `lilac-vsim` and the
//!    parsed design, simulated cycle-accurately, must match `lilac-sim` on
//!    every output of every cycle. This is the oracle that caught the
//!    backend's off-by-one pipeline depths (a latency-`L` core emitting
//!    `L + 1` registers).
//! 6. **Netlist optimizer** — `lilac_opt::optimize(netlist)` must never
//!    grow the design, must simulate bit-identically to the unoptimized
//!    netlist on every output of every cycle, and its own emitted Verilog
//!    must round-trip through `lilac-vsim` to the same values. This is the
//!    oracle that holds the rewrite passes (constant folding, strength
//!    reduction, CSE, mux simplification, delay fusion, dead-node
//!    elimination) to the cycle-exactness contract.
//! 7. **Register retiming** — `lilac_opt::retime(netlist)` must preserve
//!    per-output path latency exactly
//!    ([`Netlist::output_min_latencies`](lilac_ir::Netlist) unchanged),
//!    must never worsen the estimated critical path
//!    (`lilac_synth::critical_path_ns`), must — driven in lockstep inside
//!    the same loop — match the raw netlist on every output of every
//!    cycle from power-up onward, and its own emitted Verilog must
//!    round-trip through `lilac-vsim` to the same values. This is the
//!    oracle that pins the first pass that rewrites *where state lives*
//!    rather than collapsing it.
//! 8. **Fault-tolerant service** — the long-lived [`CheckService`] (its
//!    cross-case shared solver cache, which warms its optimized first
//!    attempt, its persistent on-disk cache, deadline budgets, and — when
//!    the fuzzer is run with `--faults` — a seeded [`FaultPlan`] injecting
//!    worker panics, forced deadline expiries, and budget exhaustion) must
//!    reach exactly the naive checker's verdict on every case. Degradation
//!    is allowed; a flipped verdict is a failed isolation or fallback.
//! 9. **Compiled simulation** — the bit-parallel compiled tape
//!    ([`lilac_sim::CompiledSim`]), driven in the same lockstep loop, must
//!    match the interpreter on every output of every cycle from power-up
//!    onward; and with the case's stimulus vectors packed one-per-lane and
//!    held constant, every listed output must settle to the scenario
//!    interpreter's predicted value in every lane. The two halves pin the
//!    tape's scheduling/masking and its lane isolation respectively, on
//!    generated cases and on every corpus replay.
//! 10. **Incremental re-checking** — an editing session over the case's
//!     program (alpha-rename everything, reorder the modules, edit one
//!     component's body, edit an instantiated callee's signature; see
//!     [`crate::mutate`]), re-checked request by request through
//!     [`lilac_core::check_program_incremental`] with one
//!     [`PriorReports`] store threaded through the requests (the store type
//!     the service's report cache also uses), must reach exactly the
//!     from-scratch verdict on every request. Renames and reorders over a fully clean
//!     predecessor must additionally be *complete cache hits* — the
//!     content hash is alpha-, order-, and location-invariant by
//!     construction, and a single miss there is a hash instability. Active
//!     on generated cases and on every corpus replay.
//! 11. **Abstract interpretation** — the known-bits + interval analysis
//!     (`lilac_analysis::analyze`) run once over the raw netlist; inside
//!     the same lockstep loop, every concretely simulated value on every
//!     net, every cycle, must be contained in its abstract fact, and in
//!     the batched half every output must stay contained in every lane
//!     (derived random lanes included). This is the soundness proof
//!     harness for the transfer functions the `fold_known_bits` pass and
//!     the lint surface both build on. Active on generated cases and on
//!     every corpus replay.
//!
//! All simulation engines are driven through the one [`SimBackend`]
//! contract, so adding an engine is one `Engine` constructor — not
//! another copy of the drive loop.

use crate::mutate::{self, Mutation};
use crate::scenario::{eval_gen, eval_steps, Scenario};
use crate::synth::{Latency, Synthesized};
use lilac_core::{
    check_program_incremental, check_program_with, CheckOptions, CheckReport, PriorReports,
};
use lilac_elab::{elaborate_module, ElabConfig};
use lilac_service::{CheckService, ServiceConfig};
use lilac_sim::{CompiledSim, SimBackend, Simulator};
use lilac_util::diag::LilacError;
use lilac_util::fault::FaultPlan;
use lilac_util::par::WorkerPanic;
use lilac_util::rng::Rng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// A single oracle disagreement (the fuzzer's unit of failure).
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl Failure {
    fn new(oracle: &'static str, detail: impl Into<String>) -> Failure {
        Failure { oracle, detail: detail.into() }
    }
}

/// Statistics describing one successfully cross-checked case.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseStats {
    /// Modules in the synthesized program.
    pub modules: usize,
    /// Proof obligations discharged by the optimized checker.
    pub obligations: usize,
    /// Solver queries issued by the optimized checker.
    pub queries: u64,
    /// Whether the program type-checked (false for sabotaged cases).
    pub checked_ok: bool,
    /// Cycles simulated across the value and LA/LI oracles.
    pub cycles: u64,
    /// Which oracle and legality branches the case exercised — a pure
    /// function of the case seed (see [`crate::CoverageSignature`]), never
    /// folded into the run fingerprint.
    pub coverage: crate::CoverageSignature,
}

/// Session state shared across cases: the long-lived [`CheckService`]
/// behind the eighth oracle, with its cross-case solver cache (itself under
/// test — a stale or colliding entry would make the warm service diverge
/// from the naive checker), its persistent cache and (optionally) seeded
/// fault plan.
#[derive(Default)]
pub struct Session {
    service: Option<CheckService>,
    faults: FaultPlan,
    incremental: bool,
}

impl Session {
    /// A session with a fault-free check service.
    pub fn new() -> Session {
        Session::with_service(None, None, false)
    }

    /// A session whose service runs under a seeded [`FaultPlan`]
    /// (`faults`) and/or restores+persists its cache at `cache_file`.
    /// With `incremental` the eighth oracle's requests go through
    /// [`CheckService::check_incremental`] — the content-addressed report
    /// cache replays clean verdicts across cases — instead of the plain
    /// [`CheckService::check`]. Like faults, the mode shapes only *how* the
    /// service answers: verdicts, stdout, and the run fingerprint must be
    /// byte-identical either way.
    pub fn with_service(
        faults: Option<u64>,
        cache_file: Option<PathBuf>,
        incremental: bool,
    ) -> Session {
        let plan = match faults {
            Some(seed) => FaultPlan::seeded(seed),
            None => FaultPlan::disabled(),
        };
        let config = ServiceConfig {
            // Thousands of cases with ~1/8 fault density: sleeping between
            // ladder attempts would dominate the run for no extra coverage.
            backoff: Duration::ZERO,
            faults: plan.clone(),
            cache_path: cache_file,
            ..ServiceConfig::default()
        };
        Session { service: Some(CheckService::new(config)), faults: plan, incremental }
    }

    /// A session for shard `shard` of a campaign: its own check service
    /// (one engine set per shard — shards never contend on a lock), with
    /// any persistent cache path suffixed per shard via
    /// [`lilac_service::shard_cache_path`] so concurrent shards never race
    /// on one image.
    pub fn for_shard(
        faults: Option<u64>,
        cache_file: Option<PathBuf>,
        incremental: bool,
        shard: usize,
    ) -> Session {
        let cache_file = cache_file.map(|p| lilac_service::shard_cache_path(&p, shard));
        Session::with_service(faults, cache_file, incremental)
    }

    /// A session without a service (used by corpus replays, so a
    /// regression's verdict never depends on other cases or on
    /// service-internal fault sites).
    pub fn without_service() -> Session {
        Session::default()
    }

    /// The session's check service, when one is running.
    pub fn service(&self) -> Option<&CheckService> {
        self.service.as_ref()
    }

    /// The fault plan the service runs under (disabled unless seeded).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }
}

/// Diagnostics comparison that tolerates differing counterexample *models*:
/// the naive and optimized pipelines must refute the same obligations with
/// the same messages, but a refuted cube can have many integer models and
/// the two pipelines may enumerate different ones.
pub(crate) fn errors_agree(a: &LilacError, b: &LilacError) -> bool {
    let strip = |e: &LilacError| -> Vec<String> {
        e.diagnostics()
            .iter()
            .map(|d| {
                let mut s = format!("{:?}|{}", d.kind, d.message);
                for (note, _) in &d.notes {
                    let note = match note.find("counterexample") {
                        Some(at) => &note[..at],
                        None => note.as_str(),
                    };
                    s.push('|');
                    s.push_str(note);
                }
                let mut msg = s;
                if let Some(at) = msg.find("; counterexample") {
                    msg.truncate(at);
                }
                msg
            })
            .collect()
    };
    strip(a) == strip(b)
}

/// Whether two verdicts agree: equivalent reports, or errors that agree up
/// to counterexample models (see [`errors_agree`]).
fn verdicts_agree(
    a: &Result<CheckReport, LilacError>,
    b: &Result<CheckReport, LilacError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.equivalent(b),
        (Err(a), Err(b)) => errors_agree(a, b),
        _ => false,
    }
}

fn describe_check(r: &Result<CheckReport, LilacError>) -> String {
    match r {
        Ok(report) => format!(
            "Ok({} components, {} obligations, {} proved)",
            report.components.len(),
            report.total_obligations(),
            report.components.iter().map(|c| c.proved).sum::<usize>()
        ),
        Err(e) => format!("Err({} diagnostics: {})", e.diagnostics().len(), e.primary()),
    }
}

/// Oracle 1: the optimized and naive checkers must agree with each other
/// and with the scenario's expectation. Returns the optimized report on
/// success.
fn checker_ab(
    synth: &Synthesized,
    session: &Session,
) -> Result<Result<CheckReport, LilacError>, Failure> {
    let fast = check_program_with(&synth.program, &CheckOptions::default());
    let naive = check_program_with(&synth.program, &CheckOptions::naive());
    if !verdicts_agree(&fast, &naive) {
        return Err(Failure::new(
            "checker-ab",
            format!(
                "optimized and naive checkers disagree: {} vs {}",
                describe_check(&fast),
                describe_check(&naive)
            ),
        ));
    }
    // Oracle 8: the fault-tolerant service. Whatever its seeded fault plan
    // injects — worker panics, forced deadline expiries, budget exhaustion —
    // the degradation ladder must land on exactly the naive checker's
    // verdict: faults are armed only on the optimized first attempt, so a
    // flipped verdict means isolation or fallback is broken.
    if let Some(service) = session.service() {
        let outcome = if session.incremental {
            service.check_incremental(&synth.program)
        } else {
            service.check(&synth.program)
        };
        if !verdicts_agree(&outcome.verdict, &naive) {
            return Err(Failure::new(
                "service",
                format!(
                    "service and naive checkers disagree: {} vs {} ({} degradation(s))",
                    describe_check(&outcome.verdict),
                    describe_check(&naive),
                    outcome.degradations.len()
                ),
            ));
        }
    }
    if fast.is_ok() != synth.expect_check_ok {
        let oracle =
            if synth.expect_check_ok { "well-typed-rejected" } else { "ill-timed-accepted" };
        return Err(Failure::new(oracle, describe_check(&fast)));
    }
    Ok(fast)
}

/// Oracle 3: print → parse → print must be a fixpoint.
fn round_trip(synth: &Synthesized) -> Result<(), Failure> {
    let printed = lilac_ast::printer::print_program(&synth.program);
    let (reparsed, _map) = lilac_ast::parse_program("fuzz.lilac", &printed)
        .map_err(|e| Failure::new("round-trip-parse", format!("{e}\n---\n{printed}")))?;
    let reprinted = lilac_ast::printer::print_program(&reparsed);
    if printed != reprinted {
        let diff = printed.lines().zip(reprinted.lines()).find(|(a, b)| a != b).map_or_else(
            || "programs differ in length".to_string(),
            |(a, b)| format!("first differing line:\n  printed:   {a}\n  reprinted: {b}"),
        );
        return Err(Failure::new("round-trip-print", diff));
    }
    if reparsed.modules.len() != synth.program.modules.len() {
        return Err(Failure::new("round-trip-modules", "module count changed"));
    }
    Ok(())
}

/// One output to check while driving a netlist: name, arrival latency, and
/// the expected value for each stimulus vector.
pub type DrivenOutput = (String, u64, Vec<u64>);

/// What one [`drive_netlist`] run observed: the lockstep cycle count (folded
/// into the run fingerprint via [`CaseStats::cycles`]) and the coverage bits
/// the drive loop alone can see — netlist shape, rewrite activity, lint
/// findings. Both are pure functions of the case seed.
pub(crate) struct DriveReport {
    /// Number of lockstep cycles driven.
    pub cycles: u64,
    /// Drive-loop coverage bits (see [`crate::CoverageSignature`]).
    pub coverage: crate::CoverageSignature,
}

/// One lockstep engine in the drive loop: any [`SimBackend`] plus the
/// oracle name its disagreements report under and its positional port-name
/// tables (emission may legally rename ports; netlist-level engines reuse
/// the raw names).
struct Engine {
    /// Which oracle a disagreement reports as.
    oracle: &'static str,
    /// How the engine is described in a disagreement message.
    desc: &'static str,
    backend: Box<dyn SimBackend>,
    /// Engine-local input name per stimulus-input position.
    inputs: Vec<String>,
    /// Engine-local output name per raw-netlist output position.
    outputs: Vec<String>,
}

/// Oracles 2, 4, 5, 6, 7 and 9, shared with the corpus replayer: drive
/// `netlist`, its auto-wrapped LI counterpart, its optimized rewrite
/// (`lilac_opt::optimize`), its retimed rewrite (`lilac_opt::retime`), the
/// `lilac-vsim` simulations of the raw, optimized, and retimed emitted
/// Verilog, and the compiled bit-parallel tape of the raw netlist — all
/// through the one [`SimBackend`] drive loop — with the exact-latency
/// streaming protocol. At cycle `c` the stimulus vector `c mod m` is
/// applied and every listed output with latency `t <= c` must equal its
/// expected value for vector `(c - t) mod m`; every output of the core
/// (not only the listed ones) must match every engine bit-for-bit on every
/// cycle. The retimed netlist must additionally leave every output's
/// minimum input-to-output register count unchanged and must never worsen
/// the estimated critical path. Finally the batched half of oracle 9 packs
/// the stimulus vectors one-per-lane into a fresh compiled tape, holds
/// them constant, and checks every listed output settles to its expected
/// value in every active lane. Returns the [`DriveReport`] — lockstep cycle
/// count plus the coverage bits only the drive loop observes.
pub(crate) fn drive_netlist(
    netlist: &lilac_ir::Netlist,
    inputs: &[String],
    stimuli: &[Vec<u64>],
    outputs: &[DrivenOutput],
) -> Result<DriveReport, Failure> {
    let stimuli: Vec<Vec<u64>> =
        if stimuli.is_empty() { vec![vec![0; inputs.len()]] } else { stimuli.to_vec() };
    let m = stimuli.len();
    for (k, stim) in stimuli.iter().enumerate() {
        if stim.len() != inputs.len() {
            return Err(Failure::new(
                "stimulus",
                format!("vector {k} has {} values for {} inputs", stim.len(), inputs.len()),
            ));
        }
    }
    for (name, _, values) in outputs {
        if values.len() != m {
            return Err(Failure::new(
                "stimulus",
                format!("output `{name}` has {} expected values for {m} vectors", values.len()),
            ));
        }
    }
    let max_lat = outputs.iter().map(|(_, l, _)| *l).max().unwrap_or(0);

    let mut sim = Simulator::new(netlist)
        .map_err(|e| Failure::new("simulate", format!("netlist rejected: {e}")))?;
    // The engine comparisons cover every output the netlist exposes, not
    // just the ones with recorded expected values.
    let all_outputs = sim.output_names();
    // Stimulus input name -> position in the netlist's declaration order.
    let input_position: Vec<usize> = inputs
        .iter()
        .map(|name| {
            netlist
                .inputs
                .iter()
                .position(|p| &p.name == name)
                .ok_or_else(|| Failure::new("stimulus", format!("unknown input `{name}`")))
        })
        .collect::<Result<_, _>>()?;
    // Netlist-level engines address ports by the raw names; Verilog-level
    // engines positionally (emission preserves declaration order but
    // sanitization may legally rename).
    let raw_names = |backend: Box<dyn SimBackend>, oracle, desc| Engine {
        oracle,
        desc,
        backend,
        inputs: inputs.to_vec(),
        outputs: all_outputs.clone(),
    };
    let verilog_engine = |netlist: &lilac_ir::Netlist,
                          oracle: &'static str,
                          desc: &'static str,
                          parse_oracle: &'static str,
                          elab_oracle: &'static str,
                          ports_oracle: &'static str|
     -> Result<Engine, Failure> {
        let (vsim, v_inputs, v_outputs) = verilog_sim(netlist, parse_oracle, elab_oracle)?;
        // The optimizer and retimer leave the interface untouched, so every
        // variant's emitted module must expose the raw netlist's port counts.
        if v_inputs.len() != netlist.inputs.len() || v_outputs.len() != all_outputs.len() {
            return Err(Failure::new(
                ports_oracle,
                format!(
                    "emitted module has {}+{} data ports for a netlist with {}+{}",
                    v_inputs.len(),
                    v_outputs.len(),
                    netlist.inputs.len(),
                    all_outputs.len()
                ),
            ));
        }
        Ok(Engine {
            oracle,
            desc,
            backend: Box::new(vsim),
            inputs: input_position.iter().map(|&p| v_inputs[p].clone()).collect(),
            outputs: v_outputs,
        })
    };

    // Oracle 4: the mechanically wrapped ready–valid counterpart under the
    // never-stalling handshake.
    let wrapped = lilac_li::rv::auto_wrap(netlist, max_lat as u32);
    let mut li_sim = Simulator::new(&wrapped)
        .map_err(|e| Failure::new("la-li", format!("wrapped netlist rejected: {e}")))?;
    li_sim.set_input("valid_i", 1);
    li_sim.set_input("ready_i", 1);

    // Oracle 5: the emitted Verilog, parsed and simulated by lilac-vsim.
    let vsim_engine = verilog_engine(
        netlist,
        "verilog",
        "emitted Verilog",
        "verilog-parse",
        "verilog-elab",
        "verilog-ports",
    )?;

    // Oracle 6: the optimized netlist, simulated directly and through its
    // own emitted Verilog. The optimizer's contract — never grow the
    // design, keep every output bit-identical on every cycle — is exactly
    // what this oracle observes. A panic inside the optimizer is converted
    // into a failure so the shrinker can minimize it like any disagreement.
    let (optimized, opt_stats) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lilac_opt::optimize_with_stats(netlist)
    }))
    .map_err(|p| {
        Failure::new("opt", format!("optimizer panicked: {}", WorkerPanic::from_payload(&*p)))
    })?;
    if optimized.node_count() > netlist.node_count() {
        return Err(Failure::new(
            "opt",
            format!(
                "optimizer grew the netlist: {} -> {} nodes",
                netlist.node_count(),
                optimized.node_count()
            ),
        ));
    }
    let opt_sim = Simulator::new(&optimized)
        .map_err(|e| Failure::new("opt", format!("optimized netlist rejected: {e}")))?;

    // Oracle 7: the retimed netlist. The structural half of its contract —
    // per-output path latency exactly preserved, estimated critical path
    // never worse, interface untouched — is asserted inside
    // `retime_with_stats` itself; any violation panics there and the
    // catch_unwind below converts it into a shrinkable `retime` failure,
    // so those conditions are enforced on every generated case and corpus
    // replay without recomputing them here. What the pass *cannot*
    // self-check is behaviour: the lockstep cycle-exact comparison in the
    // drive loop below, plus the emitted-Verilog round-trip, are this
    // oracle's own contribution.
    let (retimed, retime_stats) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        lilac_opt::retime_with_stats(netlist)
    }))
    .map_err(|p| {
        Failure::new("retime", format!("retimer panicked: {}", WorkerPanic::from_payload(&*p)))
    })?;
    let ret_sim = Simulator::new(&retimed)
        .map_err(|e| Failure::new("retime", format!("retimed netlist rejected: {e}")))?;
    // The retimed netlist's own emitted Verilog must round-trip too —
    // retiming is the only pass that decrements stages to width-masking
    // `Delay(0)` passthroughs while inserting fresh `_rt`-named stages, and
    // those shapes deserve the same backend scrutiny the optimizer's
    // rewrites get.
    let ret_vsim_engine = verilog_engine(
        &retimed,
        "retime-verilog",
        "retimed emitted Verilog",
        "retime-verilog-parse",
        "retime-verilog-elab",
        "retime-verilog-ports",
    )?;
    let opt_vsim_engine = verilog_engine(
        &optimized,
        "opt-verilog",
        "optimized emitted Verilog",
        "opt-verilog-parse",
        "opt-verilog-elab",
        "opt-verilog-ports",
    )?;

    // Oracle 9, lockstep half: the compiled tape of the raw netlist,
    // broadcast-driven, must match the interpreter everywhere.
    let compiled = CompiledSim::new(netlist)
        .map_err(|e| Failure::new("compiled", format!("netlist failed to compile: {e}")))?;

    // Oracle 11: the abstract interpretation of the raw netlist. Computed
    // once up front (no RNG draws, no extra cycles — the fingerprint must
    // not move); the drive loop below then checks every concretely
    // simulated value on every net, every cycle, against its fact, and the
    // batched half checks every output in every lane. A panic inside the
    // analyzer is converted into a shrinkable failure like any other.
    let analysis =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lilac_analysis::analyze(netlist)))
            .map_err(|p| {
                Failure::new(
                    "analysis",
                    format!("analyzer panicked: {}", WorkerPanic::from_payload(&*p)),
                )
            })?
            .map_err(|e| Failure::new("analysis", format!("analyzer rejected netlist: {e}")))?;

    // The drive loop's coverage bits: everything here is derived from the
    // netlist and the deterministic rewrite passes — a pure function of the
    // case seed, identical on replay and under any shard layout.
    let mut coverage = crate::CoverageSignature::default();
    coverage.set_if(crate::CoverageSignature::MULTI_OUTPUT, all_outputs.len() > 1);
    coverage.set_if(crate::CoverageSignature::MULTI_STIMULUS, m > 1);
    coverage.set_if(crate::CoverageSignature::PIPELINED, max_lat > 0);
    coverage.set_if(crate::CoverageSignature::OPT_REWROTE, opt_stats.total_rewrites() > 0);
    coverage.set_if(crate::CoverageSignature::RETIME_MOVED, retime_stats.moves() > 0);
    coverage.set_if(
        crate::CoverageSignature::KNOWN_BITS_FOLDED,
        opt_stats.known_bits_folded
            + opt_stats.mux_selects_narrowed
            + opt_stats.concat_zeros_stripped
            > 0,
    );
    coverage.set_if(
        crate::CoverageSignature::LINTED,
        !lilac_analysis::lint::lint_with(netlist, &analysis).is_empty(),
    );

    let mut engines = vec![
        raw_names(Box::new(li_sim), "la-li", "LI wrapper"),
        vsim_engine,
        raw_names(Box::new(opt_sim), "opt", "optimized netlist"),
        opt_vsim_engine,
        raw_names(Box::new(ret_sim), "retime", "retimed netlist"),
        ret_vsim_engine,
        raw_names(Box::new(compiled), "compiled", "compiled tape"),
    ];

    let total = max_lat + (2 * m as u64) + 2;
    for c in 0..total {
        let stim = &stimuli[(c as usize) % m];
        for (k, name) in inputs.iter().enumerate() {
            sim.set_input(name, stim[k]);
            for e in &mut engines {
                e.backend.set_input(&e.inputs[k], stim[k]);
            }
        }
        for (name, lat, values) in outputs {
            if c < *lat {
                continue;
            }
            let want = values[((c - lat) as usize) % m];
            let got = sim.peek(name);
            if got != want {
                return Err(Failure::new(
                    "value",
                    format!(
                        "output `{name}` at cycle {c} (latency {lat}): simulated {got:#x}, expected {want:#x}"
                    ),
                ));
            }
        }
        for (k, name) in all_outputs.iter().enumerate() {
            let got = sim.peek(name);
            for e in &mut engines {
                let e_got = e.backend.output(&e.outputs[k]);
                if e_got != got {
                    return Err(Failure::new(
                        e.oracle,
                        format!(
                            "output `{name}` at cycle {c}: raw netlist {got:#x}, {} {e_got:#x}",
                            e.desc
                        ),
                    ));
                }
            }
        }
        // Oracle 11, lockstep half: every settled net value must be
        // contained in its abstract fact.
        let values = sim.node_values();
        for (id, node) in netlist.iter() {
            let value = values[id.0 as usize];
            let fact = analysis.fact(id);
            if !fact.contains(value) {
                return Err(Failure::new(
                    "analysis",
                    format!(
                        "net {id} (`{}`) at cycle {c}: simulated {value:#x} escapes abstract fact {fact}",
                        node.name
                    ),
                ));
            }
        }
        sim.step();
        for e in &mut engines {
            e.backend.step();
        }
    }

    // Oracle 9, batched half: all 64 lanes packed, held constant (constant
    // inputs are the m = 1 special case of the streaming protocol, so after
    // `lat` cycles each listed output must sit at its predicted value).
    // Lanes 0..m carry the case's stimulus vectors, checked against the
    // recorded expected values; every remaining lane carries a
    // deterministic pseudo-random vector derived from the case's stimuli,
    // checked against its own reference interpreter run — so the full lane
    // width (top lanes included) is exercised on every case and every
    // corpus replay, not only on cases that happen to carry 64 vectors.
    let mut batch = CompiledSim::new(netlist)
        .map_err(|e| Failure::new("compiled", format!("netlist failed to compile: {e}")))?;
    let lane_count = lilac_sim::compiled::LANES;
    batch.set_active(lane_count);
    let packed = m.min(lane_count);
    for (lane, stim) in stimuli.iter().take(packed).enumerate() {
        for (k, name) in inputs.iter().enumerate() {
            batch
                .try_set_input_lane(lane, name, stim[k])
                .map_err(|e| Failure::new("compiled", format!("lane stimulus rejected: {e}")))?;
        }
    }
    // Derived vectors come from their own SplitMix stream seeded by the
    // stimulus content: deterministic per case, independent of the scenario
    // generator's draws (the run fingerprint must not move).
    let mut derive_seed = 0u64;
    for stim in &stimuli {
        for v in stim {
            derive_seed = crate::fnv1a(derive_seed, &v.to_le_bytes());
        }
    }
    // One reference interpreter serves every derived lane: reset to the
    // power-up state, driven `max_lat + 1` cycles, and its settled outputs
    // recorded (`derived[j][o]`: derived lane j, output `all_outputs[o]`).
    let mut reference = if packed < lane_count {
        Some(
            Simulator::new(netlist)
                .map_err(|e| Failure::new("compiled", format!("netlist rejected: {e}")))?,
        )
    } else {
        None
    };
    let mut derived: Vec<Vec<u64>> = Vec::with_capacity(lane_count - packed);
    for lane in packed..lane_count {
        let Some(reference) = reference.as_mut() else { break };
        let mut lane_rng = Rng::new(derive_seed ^ (lane as u64).wrapping_mul(0x9e37_79b9));
        reference.reset();
        for (k, name) in inputs.iter().enumerate() {
            let width = netlist.inputs[input_position[k]].width;
            let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
            let value = lane_rng.next_u64() & mask;
            batch
                .try_set_input_lane(lane, name, value)
                .map_err(|e| Failure::new("compiled", format!("lane stimulus rejected: {e}")))?;
            reference.set_input(name, value);
        }
        reference.run(max_lat as usize + 1);
        derived.push(all_outputs.iter().map(|name| reference.peek(name)).collect());
    }
    for _ in 0..=max_lat {
        batch.step();
    }
    for (name, _, values) in outputs {
        let got = batch.output_lanes(name);
        for (lane, want) in values.iter().take(packed.min(got.len())).enumerate() {
            if got[lane] != *want {
                return Err(Failure::new(
                    "compiled",
                    format!(
                        "output `{name}` lane {lane} settled at {:#x}, expected {want:#x}",
                        got[lane]
                    ),
                ));
            }
        }
    }
    for (o, name) in all_outputs.iter().enumerate() {
        let got = batch.output_lanes(name);
        for (j, lane_outputs) in derived.iter().enumerate() {
            let lane = packed + j;
            let want = lane_outputs[o];
            if got[lane] != want {
                return Err(Failure::new(
                    "compiled",
                    format!(
                        "output `{name}` derived lane {lane}: compiled {:#x}, interpreter {want:#x}",
                        got[lane]
                    ),
                ));
            }
        }
        // Oracle 11, batched half: every lane of every output must sit
        // inside the abstract fact of the net driving it — the derived
        // lanes carry vectors the lockstep half never drove, so the
        // transfer functions are exercised over a wider input sample.
        let driver = netlist
            .output(name)
            .unwrap_or_else(|| panic!("output `{name}` vanished from its own netlist"));
        let fact = analysis.fact(driver);
        for (lane, &value) in got.iter().enumerate() {
            if !fact.contains(value) {
                return Err(Failure::new(
                    "analysis",
                    format!(
                        "output `{name}` lane {lane}: settled {value:#x} escapes abstract fact {fact}"
                    ),
                ));
            }
        }
    }

    Ok(DriveReport { cycles: total, coverage })
}

/// Emits a netlist as Verilog, parses it back with `lilac-vsim`, and builds
/// the cycle-accurate simulator plus its port-name tables (shared by the
/// raw-netlist and optimized-netlist oracles).
fn verilog_sim(
    netlist: &lilac_ir::Netlist,
    parse_oracle: &'static str,
    elab_oracle: &'static str,
) -> Result<(lilac_vsim::VSimulator, Vec<String>, Vec<String>), Failure> {
    let verilog = lilac_ir::emit_verilog(netlist);
    let vdesign = lilac_vsim::parse_design(&verilog).map_err(|e| {
        Failure::new(parse_oracle, format!("emitted Verilog rejected: {e}\n---\n{verilog}"))
    })?;
    let vsim = lilac_vsim::VSimulator::new(&vdesign).map_err(|e| {
        Failure::new(elab_oracle, format!("emitted Verilog unsimulatable: {e}\n---\n{verilog}"))
    })?;
    let inputs = vsim.input_names();
    let outputs = vsim.output_names();
    Ok((vsim, inputs, outputs))
}

/// Elaborates a synthesized program and runs [`drive_netlist`] against the
/// scenario interpreter's predictions.
fn simulate(scenario: &Scenario, synth: &Synthesized) -> Result<DriveReport, Failure> {
    let params = BTreeMap::from([("W".to_string(), synth.width)]);
    let module = elaborate_module(&synth.program, synth.top, &params, &ElabConfig::default())
        .map_err(|e| {
            Failure::new("elaborate", format!("type-checked program failed to elaborate: {e}"))
        })?;

    let stimuli: Vec<Vec<u64>> = if scenario.stimuli.is_empty() {
        vec![vec![0; scenario.n_inputs]]
    } else {
        scenario.stimuli.clone()
    };
    // Resolve symbolic output latencies through the elaborated out-params
    // and predict every output value with the scenario interpreter.
    let mut outputs: Vec<DrivenOutput> = Vec::new();
    for out in &synth.outputs {
        let lat = match &out.latency {
            Latency::Concrete(t) => *t,
            Latency::OutParam(p) => *module.out_params.get(p).ok_or_else(|| {
                Failure::new("elaborate", format!("missing output parameter `{p}`"))
            })?,
        };
        let values: Vec<u64> = stimuli
            .iter()
            .map(|stim| {
                let vals = eval_steps(&scenario.steps, stim, scenario.width, &scenario.subs);
                match out.step {
                    Some(s) => vals[s],
                    None => {
                        let (a, b) = scenario.gen_block.expect("og implies gen block");
                        eval_gen(vals[a], vals[b], scenario.width)
                    }
                }
            })
            .collect();
        outputs.push((out.name.clone(), lat, values));
    }

    drive_netlist(&module.netlist, &synth.inputs, &stimuli, &outputs)
}

/// Oracle 10: content-addressed incremental re-checking. Replays an editing
/// session over the program — alpha-rename everything, reorder the modules,
/// edit one component's body, edit an instantiated callee's signature
/// ([`Mutation::SESSION`]) — re-checking each revision incrementally with
/// the prior revisions' reports threaded through, and demands the
/// from-scratch verdict on every request. Each mutant is printed and
/// re-parsed first, so replay hits also prove the content hash ignores
/// spans and file identities. Renames and reorders over a fully clean
/// predecessor must be complete cache hits. The mutation stream draws from
/// its own [`Rng`], never the scenario generator's, so the run fingerprint
/// is untouched. `scratch` is the caller's default-options check of
/// `program` itself, reused as the first request's from-scratch verdict.
pub(crate) fn incremental_stream(
    program: &lilac_ast::Program,
    scratch: &Result<CheckReport, LilacError>,
    seed: u64,
) -> Result<(), Failure> {
    let options = CheckOptions::default();
    let mut prior = PriorReports::new();
    let mut rng = Rng::new(seed ^ 0x10c4_e56e_a11d_ab1e);
    let mut prev_all_clean = compare_incremental(program, scratch, &options, &mut prior, None)?;
    let mut current = program.clone();
    for mutation in Mutation::SESSION {
        let mutant = mutate::apply(&current, mutation, &mut rng);
        let printed = lilac_ast::printer::print_program(&mutant);
        let (reparsed, _map) = lilac_ast::parse_program("mutant.lilac", &printed).map_err(|e| {
            Failure::new(
                "incremental",
                format!("{mutation:?} mutant failed to re-parse: {e}\n---\n{printed}"),
            )
        })?;
        let expect_all_hits = (mutation.preserves_hashes() && prev_all_clean).then_some(mutation);
        let scratch = check_program_with(&reparsed, &options);
        prev_all_clean =
            compare_incremental(&reparsed, &scratch, &options, &mut prior, expect_all_hits)?;
        current = reparsed;
    }
    Ok(())
}

/// One request of the editing session: the incremental check (threading
/// `prior`) must reach the from-scratch verdict `scratch`; when
/// `expect_all_hits` names a hash-preserving mutation over a fully clean
/// predecessor, not a single component may miss the cache. Returns whether
/// this request's report is fully clean (every verdict cacheable), which
/// gates the *next* request's all-hits expectation.
fn compare_incremental(
    program: &lilac_ast::Program,
    scratch: &Result<CheckReport, LilacError>,
    options: &CheckOptions,
    prior: &mut PriorReports,
    expect_all_hits: Option<Mutation>,
) -> Result<bool, Failure> {
    let incremental = check_program_incremental(program, options, prior);
    match (&incremental, scratch) {
        (Ok(inc), Ok(from_scratch)) => {
            if !inc.report.equivalent(from_scratch) {
                return Err(Failure::new(
                    "incremental",
                    format!(
                        "incremental and from-scratch reports differ: {} vs {}",
                        describe_check(&Ok(inc.report.clone())),
                        describe_check(scratch)
                    ),
                ));
            }
            if let Some(mutation) = expect_all_hits {
                if inc.misses != 0 {
                    return Err(Failure::new(
                        "incremental",
                        format!(
                            "{mutation:?} must be invisible to the content hash, \
                             but {} of {} component(s) missed the cache",
                            inc.misses,
                            inc.hits + inc.misses
                        ),
                    ));
                }
            }
            Ok(inc
                .report
                .components
                .iter()
                .all(|c| c.diagnostics.is_empty() && c.degraded.is_none()))
        }
        (Err(a), Err(b)) if errors_agree(a, b) => Ok(false),
        _ => {
            let inc_desc = match &incremental {
                Ok(i) => describe_check(&Ok(i.report.clone())),
                Err(e) => format!("Err({} diagnostics: {})", e.diagnostics().len(), e.primary()),
            };
            Err(Failure::new(
                "incremental",
                format!(
                    "incremental and from-scratch verdicts differ: {inc_desc} vs {}",
                    describe_check(scratch)
                ),
            ))
        }
    }
}

/// Runs every oracle over one scenario. `Err` carries the first
/// disagreement; `Ok` carries the case statistics.
pub fn run_case(scenario: &Scenario, session: &Session) -> Result<CaseStats, Failure> {
    let synth = crate::synth::synthesize(scenario);
    round_trip(&synth)?;
    let check = checker_ab(&synth, session)?;
    incremental_stream(&synth.program, &check, scenario.seed)?;
    let mut stats = CaseStats {
        modules: synth.program.modules.len(),
        checked_ok: check.is_ok(),
        ..CaseStats::default()
    };
    stats.coverage.set_if(crate::CoverageSignature::CHECKED, check.is_ok());
    stats.coverage.set_if(crate::CoverageSignature::GEN_BLOCK, scenario.gen_block.is_some());
    stats.coverage.set_if(crate::CoverageSignature::SUB_COMPONENT, !scenario.subs.is_empty());
    stats.coverage.set_if(crate::CoverageSignature::WIDE, scenario.width >= 16);
    if let Ok(report) = &check {
        stats.obligations = report.total_obligations();
        stats.queries = report.solver_stats().queries as u64;
        let drive = simulate(scenario, &synth)?;
        stats.cycles = drive.cycles;
        stats.coverage.0 |= drive.coverage.0;
    }
    Ok(stats)
}
