//! `fuzz` and `campaign`: the differential fuzzer, sequential and sharded.
//!
//! Both run *passes*: one pass is a 200-case fuzzing run (the `lilac-fuzz`
//! default case count) at a base seed derived from the workload seed, so
//! pass 0 is exactly `lilac-fuzz --cases 200 --seed <seed>` and later passes
//! keep feeding fresh cases. One op is one case.
//!
//! - `fuzz` drives a pass the way `run_fuzz` does: one `Session::new()`, then
//!   `run_indexed_case` and `fold_record` per index. Pass 0 always runs to
//!   completion; after that the phase stops at the deadline, between cases.
//! - `campaign` runs each pass through `run_campaign` with two shards and
//!   stops at the first pass boundary after the deadline. Per-case latency
//!   comes from the progress callback: the time between consecutive
//!   completions on the same shard thread.
//!
//! The traced `fuzz` run replays every case through the public calls the
//! private oracles make ([`Replay`]); those spans sit under `replay` roots,
//! beside the op's own `fuzz.run_case` span.

use crate::layers::solver_counts;
use crate::measure::{millis, secs, Gate, Limit, Phase};
use crate::trace::Tracer;
use lilac_ast::printer::print_program;
use lilac_ast::{parse_program, Program};
use lilac_core::{
    check_program_incremental, check_program_with, program_component_hashes, CheckOptions,
    CompLibrary, PriorReports,
};
use lilac_elab::{elaborate_module, ElabConfig};
use lilac_fuzz::campaign::{run_campaign_with_progress, CampaignConfig};
use lilac_fuzz::mutate::{self, Mutation};
use lilac_fuzz::oracle::Session;
use lilac_fuzz::scenario::{generate, Scenario};
use lilac_fuzz::synth::{synthesize, Latency, Synthesized};
use lilac_fuzz::{case_seed, fold_record, run_fuzz, run_indexed_case, FuzzConfig, FuzzSummary};
use lilac_service::{CheckService, ServiceConfig};
use lilac_sim::{CompiledSim, SimBackend, Simulator};
use lilac_solver::SharedCache;
use lilac_util::rng::Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Cases per pass: the `lilac-fuzz` default `--cases`.
pub const PASS_CASES: u64 = 200;
/// Campaign shards: the host's core count the benchmark is specified for.
pub const SHARDS: usize = 2;

/// Base seed of pass `pass`; pass 0 runs at the workload seed itself.
fn pass_seed(seed: u64, pass: u64) -> u64 {
    if pass == 0 {
        seed
    } else {
        case_seed(seed ^ 0xbe9c_4a55_0f0f_5eed, pass)
    }
}

fn pass_config(seed: u64) -> FuzzConfig {
    FuzzConfig { cases: PASS_CASES, seed, ..FuzzConfig::default() }
}

/// The gate both workloads share: pass 0's fingerprint must equal what the
/// `lilac-fuzz` CLI computes for the same case count and seed (the CLI is a
/// thin printer over `run_fuzz`), and that run must be clean.
fn cli_gate(seed: u64, pass0: Option<u64>, what: &str) -> Gate {
    let cli = run_fuzz(&pass_config(seed));
    let ok = pass0 == Some(cli.fingerprint) && cli.failures.is_empty();
    Gate::new(
        format!("{what} fingerprint equals lilac-fuzz --cases {PASS_CASES} --seed {seed}"),
        ok,
        format!(
            "{what} {} vs lilac-fuzz {:016x} ({} disagreement(s))",
            pass0.map_or_else(|| "missing".to_string(), |f| format!("{f:016x}")),
            cli.fingerprint,
            cli.failures.len()
        ),
    )
}

pub struct Fuzz {
    seed: u64,
}

impl Fuzz {
    /// Constructs a session and runs one case on it untimed (always case 0
    /// of seed 0, so set-up does not depend on the seed).
    pub fn setup(seed: u64) -> Fuzz {
        let session = Session::new();
        let _ = run_indexed_case(&pass_config(0), &session, 0);
        Fuzz { seed }
    }

    pub fn run(&mut self, limit: Limit, tr: &mut Tracer, verify: bool) -> Phase {
        let mut phase = Phase::default();
        let mut pass0 = None;
        let start = Instant::now();
        'passes: for pass in 0.. {
            let config = pass_config(pass_seed(self.seed, pass));
            let pass_start = Instant::now();
            let session = Session::new();
            let mut replay = tr.enabled().then(Replay::new);
            let added_before = tr.added_s();
            let mut summary = FuzzSummary::default();
            for index in 0..config.cases {
                if phase.ops >= PASS_CASES && limit.reached(phase.ops, secs(start)) {
                    break 'passes;
                }
                tr.set_op(phase.ops);
                let began = Instant::now();
                let op = tr.begin("op");
                let record =
                    tr.leaf("fuzz.run_case", || run_indexed_case(&config, &session, index));
                tr.end(op);
                phase.latencies_ms.push(millis(began));
                phase.ops += 1;
                phase.failed += u64::from(record.outcome.is_err());
                fold_record(&mut summary, &record, config.max_failures);
                if let Some(replay) = &mut replay {
                    replay.case(tr, case_seed(config.seed, index));
                }
            }
            // The replays of a traced pass are not part of its throughput.
            phase.close_window(config.cases, secs(pass_start) - tr.added_s() + added_before);
            if pass == 0 {
                pass0 = Some(summary.fingerprint);
            }
        }
        phase.wall_s = secs(start);
        if verify {
            phase.gates.push(Gate::new(
                "zero oracle disagreements",
                phase.failed == 0,
                format!("{} of {} cases disagreed", phase.failed, phase.ops),
            ));
            phase.gates.push(cli_gate(self.seed, pass0, "fuzz pass 0"));
        }
        phase
    }
}

pub struct Campaign {
    seed: u64,
}

impl Campaign {
    /// Runs one two-case campaign untimed (seed 0, so set-up does not
    /// depend on the seed).
    pub fn setup(seed: u64) -> Campaign {
        let warm =
            CampaignConfig { fuzz: FuzzConfig { cases: 2, ..pass_config(0) }, shards: SHARDS };
        let _ = lilac_fuzz::campaign::run_campaign(&warm);
        Campaign { seed }
    }

    pub fn run(&mut self, limit: Limit, tr: &mut Tracer, verify: bool) -> Phase {
        let mut phase = Phase::default();
        let mut pass0 = None;
        let mut merge_s = 0.0;
        let mut imbalance = 0.0;
        let mut passes = 0u64;
        let start = Instant::now();
        while passes == 0 || !limit.reached(phase.ops, secs(start)) {
            let config =
                CampaignConfig { fuzz: pass_config(pass_seed(self.seed, passes)), shards: SHARDS };
            let began = Instant::now();
            let last: Mutex<HashMap<std::thread::ThreadId, Instant>> = Mutex::new(HashMap::new());
            let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
            let progress = |_done: u64| {
                let now = Instant::now();
                let thread = std::thread::current().id();
                let previous = last.lock().expect("latency clock poisoned").insert(thread, now);
                let since = previous.unwrap_or(began);
                latencies
                    .lock()
                    .expect("latency sample poisoned")
                    .push(now.duration_since(since).as_secs_f64() * 1e3);
            };
            tr.set_op(phase.ops);
            let op = tr.begin("op");
            let result = tr.leaf("campaign.run", || run_campaign_with_progress(&config, progress));
            tr.end(op);
            let wall = secs(began);
            phase.close_window(result.summary.cases, wall);
            phase.latencies_ms.extend(latencies.into_inner().expect("latency sample poisoned"));
            phase.ops += result.summary.cases;
            phase.failed += result.summary.failures.len() as u64;
            let shard_secs: Vec<f64> = result.shards.iter().map(|s| s.elapsed_secs).collect();
            let slowest = shard_secs.iter().copied().fold(0.0, f64::max);
            let fastest = shard_secs.iter().copied().fold(f64::INFINITY, f64::min);
            merge_s += (wall - slowest).max(0.0);
            if fastest > 0.0 {
                imbalance += slowest / fastest;
            }
            if passes == 0 {
                pass0 = Some(result.summary.fingerprint);
            }
            passes += 1;
        }
        phase.wall_s = secs(start);
        tr.count("campaign.merge_s", merge_s);
        tr.count("campaign.imbalance_sum", imbalance);
        tr.count("campaign.passes", passes as f64);
        if verify {
            phase.gates.push(Gate::new(
                "zero oracle disagreements",
                phase.failed == 0,
                format!("{} of {} cases disagreed", phase.failed, phase.ops),
            ));
            phase.gates.push(cli_gate(self.seed, pass0, "campaign pass 0 (= fuzz pass 0)"));
        }
        phase
    }
}

/// Replays one fuzz case through the public calls the oracles make, so the
/// traced run can split a case by layer. The calls mirror `run_case`:
/// print → parse, the four checker configurations, the service check, the
/// incremental editing session over the mutants, then (for programs that
/// check) elaborate → optimize → retime → analyze, both simulators, emitted
/// Verilog → `lilac_vsim::parse_design` and its simulator, and
/// `rv::auto_wrap`.
struct Replay {
    shared: SharedCache,
    service: CheckService,
}

impl Replay {
    /// Mirrors the state of one `Session`: a cross-case solver cache and a
    /// two-worker service without retry back-off.
    fn new() -> Replay {
        let config =
            ServiceConfig { workers: 2, backoff: Duration::ZERO, ..ServiceConfig::default() };
        Replay { shared: SharedCache::new(), service: CheckService::new(config) }
    }

    fn case(&mut self, tr: &mut Tracer, seed: u64) {
        let root = tr.begin("replay");
        let scenario = tr.leaf("fuzz.generate", || generate(seed));
        let synth = tr.leaf("fuzz.synthesize", || synthesize(&scenario));
        let printed = tr.leaf("ast.print", || print_program(&synth.program));
        let _ = tr.leaf("ast.parse", || parse_program("fuzz.lilac", &printed));
        let program = &synth.program;
        let fast = check(tr, program, &CheckOptions::default());
        check(tr, program, &CheckOptions { parallel: false, ..CheckOptions::default() });
        check(tr, program, &CheckOptions::naive());
        let mut warm = CheckOptions::default();
        warm.solver_config.shared_cache = Some(self.shared.clone());
        check(tr, program, &warm);
        let before = self.service.stats();
        let outcome = tr.blocking("service.check", || self.service.check(program));
        let after = self.service.stats();
        tr.count("service.units", (after.units - before.units) as f64);
        tr.count("service.degraded_units", (after.degraded_units - before.degraded_units) as f64);
        tr.count("service.failed_units", (after.failed_units - before.failed_units) as f64);
        if let Ok(report) = &outcome.verdict {
            solver_counts(tr, &report.solver_stats());
        }
        incremental_session(tr, program, scenario.seed);
        if fast {
            drive(tr, &scenario, &synth);
        }
        tr.end(root);
    }
}

/// One `check_program_with` call; returns whether the program checked.
fn check(tr: &mut Tracer, program: &Program, options: &CheckOptions) -> bool {
    match tr.blocking("core.check", || check_program_with(program, options)) {
        Ok(report) => {
            tr.count("core.check.obligations", report.total_obligations() as f64);
            solver_counts(tr, &report.solver_stats());
            true
        }
        Err(_) => false,
    }
}

/// The editing session of oracle 10: the original and each
/// `Mutation::SESSION` edit (printed and re-parsed), each checked from
/// scratch and incrementally. The library build and content hashing that
/// `check_program_incremental` does internally are re-issued as probes.
fn incremental_session(tr: &mut Tracer, program: &Program, scenario_seed: u64) {
    let options = CheckOptions::default();
    let mut prior = PriorReports::new();
    // The oracle's own mutation stream, so the replay edits what it edited.
    let mut rng = Rng::new(scenario_seed ^ 0x10c4_e56e_a11d_ab1e);
    incremental_request(tr, program, &options, &mut prior);
    let mut current = program.clone();
    for mutation in Mutation::SESSION {
        let mutant = mutate::apply(&current, mutation, &mut rng);
        let printed = tr.leaf("ast.print", || print_program(&mutant));
        let Ok((reparsed, _)) = tr.leaf("ast.parse", || parse_program("mutant.lilac", &printed))
        else {
            return;
        };
        incremental_request(tr, &reparsed, &options, &mut prior);
        current = reparsed;
    }
}

fn incremental_request(
    tr: &mut Tracer,
    program: &Program,
    options: &CheckOptions,
    prior: &mut PriorReports,
) {
    check(tr, program, options);
    if let Ok(lib) = tr.leaf("core.library_build", || CompLibrary::build(program)) {
        let _ = tr.leaf("core.hash", || program_component_hashes(&lib));
    }
    if let Ok(inc) =
        tr.blocking("core.incremental", || check_program_incremental(program, options, prior))
    {
        tr.count("core.incremental.hits", inc.hits as f64);
        tr.count("core.incremental.misses", inc.misses as f64);
        solver_counts(tr, &inc.report.solver_stats());
    }
}

/// Elaborates the case and runs every netlist-level layer once.
fn drive(tr: &mut Tracer, scenario: &Scenario, synth: &Synthesized) {
    let params = BTreeMap::from([("W".to_string(), synth.width)]);
    let Ok(module) = tr.leaf("elab.elaborate", || {
        elaborate_module(&synth.program, synth.top, &params, &ElabConfig::default())
    }) else {
        return;
    };
    let netlist = &module.netlist;
    tr.count("elab.nodes", netlist.node_count() as f64);
    let (optimized, opt) = tr.leaf("opt.optimize", || lilac_opt::optimize_with_stats(netlist));
    tr.count("opt.nodes_removed", opt.nodes_before.saturating_sub(opt.nodes_after) as f64);
    let (_, moves) = tr.leaf("opt.retime", || lilac_opt::retime_with_stats(netlist));
    tr.count("opt.retime.moves", moves.moves() as f64);
    drop(optimized);
    let _ = tr.leaf("analysis.analyze", || lilac_analysis::analyze(netlist));

    let max_latency = synth
        .outputs
        .iter()
        .map(|o| match &o.latency {
            Latency::Concrete(t) => *t,
            Latency::OutParam(p) => module.out_params.get(p).copied().unwrap_or(0),
        })
        .max()
        .unwrap_or(0);
    let stimuli: Vec<Vec<u64>> = if scenario.stimuli.is_empty() {
        vec![vec![0; synth.inputs.len()]]
    } else {
        scenario.stimuli.clone()
    };
    // The oracle's lockstep length.
    let cycles = max_latency + 2 * stimuli.len() as u64 + 2;
    let outputs: Vec<String> = netlist.outputs.iter().map(|(p, _)| p.name.clone()).collect();

    if let Ok(mut sim) = tr.leaf("sim.interp.build", || Simulator::new(netlist)) {
        tr.leaf("sim.interp.run", || {
            run_cycles(&mut sim, &synth.inputs, &outputs, &stimuli, cycles);
        });
        tr.count("sim.interp.cycles", cycles as f64);
    }
    if let Ok(mut sim) = tr.leaf("sim.compiled.build", || CompiledSim::new(netlist)) {
        tr.leaf("sim.compiled.run", || {
            run_cycles(&mut sim, &synth.inputs, &outputs, &stimuli, cycles);
        });
        tr.count("sim.compiled.cycles", cycles as f64);
    }
    let verilog = tr.leaf("ir.emit_verilog", || lilac_ir::emit_verilog(netlist));
    tr.count("ir.verilog_bytes", verilog.len() as f64);
    if let Ok(design) = tr.leaf("vsim.parse", || lilac_vsim::parse_design(&verilog)) {
        if let Ok(mut sim) = tr.leaf("vsim.build", || lilac_vsim::VSimulator::new(&design)) {
            // Emission keeps port order but may rename: map positionally.
            let v_inputs = sim.input_names();
            let inputs: Vec<String> = synth
                .inputs
                .iter()
                .filter_map(|name| netlist.inputs.iter().position(|p| &p.name == name))
                .filter_map(|at| v_inputs.get(at).cloned())
                .collect();
            let v_outputs = SimBackend::output_names(&sim);
            if inputs.len() == synth.inputs.len() {
                tr.leaf("vsim.run", || run_cycles(&mut sim, &inputs, &v_outputs, &stimuli, cycles));
                tr.count("vsim.cycles", cycles as f64);
            }
        }
    }
    let wrapped = tr.leaf("li.auto_wrap", || lilac_li::rv::auto_wrap(netlist, max_latency as u32));
    tr.count("li.glue_nodes", wrapped.node_count().saturating_sub(netlist.node_count()) as f64);
}

/// Streams the stimulus vectors through a simulator, reading every output
/// each cycle, the way the oracle's drive loop does.
fn run_cycles(
    sim: &mut dyn SimBackend,
    inputs: &[String],
    outputs: &[String],
    stimuli: &[Vec<u64>],
    cycles: u64,
) {
    for c in 0..cycles {
        let stimulus = &stimuli[(c as usize) % stimuli.len()];
        for (name, value) in inputs.iter().zip(stimulus) {
            sim.set_input(name, *value);
        }
        for name in outputs {
            std::hint::black_box(sim.output(name));
        }
        sim.step();
    }
}
