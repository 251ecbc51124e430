//! The benchmark harness: regenerates every table and figure of the paper's
//! evaluation from the reproduction's own substrate.
//!
//! Each experiment has a library function returning structured rows (used by
//! the integration tests and the self-contained bench harness in
//! `benches/paper.rs`) and a binary that prints the table:
//!
//! | Exhibit | Function | Binary |
//! |---|---|---|
//! | Table 1 — LS vs LI FPU resources | [`table1`] | `cargo run -p lilac-bench --bin table1` |
//! | Table 2 — when timing is known | [`table2`] | `cargo run -p lilac-bench --bin table2` |
//! | Table 3 — generators and features | [`table3`] | `cargo run -p lilac-bench --bin table3` |
//! | Figure 8 — compiler performance | [`figure8`] | `cargo run -p lilac-bench --bin figure8` |
//! | Figure 13 — GBP LA vs LI | [`figure13`] | `cargo run -p lilac-bench --bin figure13` |
//!
//! Every count behind those exhibits that is a pure function of the
//! repository — Figure 8's obligations and solver effort, the optimizer's
//! node counts, the warm-recheck replays — is rendered by [`report`] and
//! checked in as `crates/bench/tests/report_baseline.txt`, which a test
//! diffs byte for byte; its git history is the trajectory. The report
//! carries no wall clock: times live in the exhibit tables, in
//! `cargo bench -p lilac-bench`, and in the repository benchmark
//! (`benchmark/`).
//!
//! Absolute LUT/register/frequency numbers come from `lilac-synth`'s analytic
//! model rather than a Vivado run, so they are not expected to match the
//! paper's numbers; the relationships the paper argues for (who wins, by
//! roughly what factor, and how the gap moves across design points) are what
//! `EXPERIMENTS.md` compares.

use lilac_core::{
    check_program, check_program_with, CheckOptions, CheckReport, GeneratorFeature, InterfaceStyle,
};
use lilac_designs::Design;
use lilac_elab::{elaborate_module, ElabConfig};
use lilac_gen::{GenGoals, GenRequest, Generator, GeneratorRegistry};
use lilac_li::{fpu, gbp};
use lilac_solver::{SharedCache, SolverStats};
use lilac_synth::{estimate, ResourceEstimate};
use lilac_util::diag::Result;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// One row of Table 1: an FPU implementation style at one FloPoCo
/// configuration.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// `"LI"` or `"LS"`.
    pub style: &'static str,
    /// FloPoCo adder latency.
    pub adder_latency: u32,
    /// FloPoCo multiplier latency.
    pub multiplier_latency: u32,
    /// Resource estimate.
    pub cost: ResourceEstimate,
}

/// Regenerates Table 1: latency-sensitive vs latency-insensitive FPU
/// implementations at the two FloPoCo configurations the paper reports
/// (adder/multiplier latencies 1/1 and 4/2).
///
/// The LS rows come from elaborating the *Lilac* FPU (`lilac-designs`) with
/// FloPoCo goals that produce the corresponding latencies; the LI rows wrap
/// the same cores in ready–valid handshakes (`lilac-li`).
///
/// # Errors
///
/// Propagates parse/type-check/elaboration errors (none expected).
pub fn table1() -> Result<Vec<Table1Row>> {
    let program = Design::Fpu.program()?;
    check_program(&program)?;
    let mut rows = Vec::new();
    for (target_mhz, expect_a, expect_m) in [(100u32, 1u32, 1u32), (280, 4, 2)] {
        let mut registry = GeneratorRegistry::with_builtin_tools();
        registry.set_default_goals(GenGoals { target_mhz, ..GenGoals::default() });
        let module = elaborate_module(
            &program,
            "FPU",
            &BTreeMap::from([("W".to_string(), 32)]),
            &ElabConfig::with_registry(registry),
        )?;
        let ls_cost = estimate(&module.netlist);
        let li_cost = estimate(&fpu::li_fpu(32, expect_a, expect_m));
        rows.push(Table1Row {
            style: "LI",
            adder_latency: expect_a,
            multiplier_latency: expect_m,
            cost: li_cost,
        });
        rows.push(Table1Row {
            style: "LS",
            adder_latency: expect_a,
            multiplier_latency: expect_m,
            cost: ls_cost,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Interface style.
    pub style: InterfaceStyle,
    /// Whether timing is known at design / compile / execute time.
    pub known: (bool, bool, bool),
}

/// Regenerates Table 2: when each interface style's timing behaviour is
/// known.
pub fn table2() -> Vec<Table2Row> {
    InterfaceStyle::all()
        .into_iter()
        .map(|style| {
            let k = style.timing_knowledge();
            Table2Row { style, known: (k.at_design_time, k.at_compile_time, k.at_execute_time) }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// One row of Table 3: a generator and the Lilac features its interfaces
/// need.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Generator name as the paper lists it.
    pub generator: &'static str,
    /// Features the generator model declares.
    pub features: Vec<GeneratorFeature>,
}

/// Regenerates Table 3 from the generator models' own feature declarations.
pub fn table3() -> Vec<Table3Row> {
    let tools: Vec<(&'static str, Box<dyn Generator>)> = vec![
        ("PipelineC", Box::new(lilac_gen::tools::PipelineC)),
        ("FloPoCo", Box::new(lilac_gen::tools::FloPoCo)),
        ("XLS", Box::new(lilac_gen::tools::Xls)),
        ("Spiral FFT", Box::new(lilac_gen::tools::SpiralFft)),
        ("Aetherling", Box::new(lilac_gen::tools::Aetherling)),
    ];
    tools
        .into_iter()
        .map(|(name, tool)| Table3Row { generator: name, features: tool.features() })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// One row of Figure 8: a bundled design, its size, and its type-check time.
#[derive(Clone, Debug)]
pub struct Figure8Row {
    /// Design.
    pub design: Design,
    /// Lines of Lilac source (including the standard library).
    pub lines: usize,
    /// Wall-clock time of the whole-program type check.
    pub check_time: Duration,
    /// Number of solver obligations discharged.
    pub obligations: usize,
    /// Solver effort behind the obligations: queries, cache hits/misses,
    /// cubes, facts sliced away. `solver.cache_hit_rate()` gives the hit
    /// rate the optimized pipeline achieved on this design.
    pub solver: SolverStats,
    /// The paper's reported line count, if this row appears in Figure 8.
    pub paper_lines: Option<usize>,
    /// The paper's reported time in milliseconds, if reported.
    pub paper_time_ms: Option<u64>,
    /// Static-analysis lints on the design's representative top netlist
    /// (attached to the check report's matching `ComponentReport`).
    pub lints: usize,
}

/// Regenerates Figure 8: type-checker performance on the bundled designs
/// (the default sliced + cached + parallel pipeline). `check_time` is the
/// wall clock of the whole-program `check_program` call.
///
/// # Errors
///
/// Propagates parse or type-check errors (none expected).
pub fn figure8() -> Result<Vec<Figure8Row>> {
    let mut rows = Vec::new();
    for design in Design::all() {
        let program = design.program()?;
        let start = Instant::now();
        let mut report = check_program(&program)?;
        let check_time = start.elapsed();
        // Surface the static analyzer's netlist lints on the design's
        // representative top through the component report.
        let lints = lilac_fuzz::lint::attach_design_lints(design, &mut report)
            .map_err(lilac_util::diag::LilacError::msg)?;
        rows.push(Figure8Row {
            design,
            lines: design.line_count(),
            check_time,
            obligations: report.total_obligations(),
            solver: report.solver_stats(),
            paper_lines: design.paper_lines(),
            paper_time_ms: design.paper_time_ms(),
            lints,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Incremental re-checking
// ---------------------------------------------------------------------------

/// One row of the incremental re-checking exhibit: a bundled design checked
/// cold (empty [`PriorReports`](lilac_core::PriorReports)) and then warm
/// (the identical program re-submitted to the same store), with the content
/// hash replaying every clean component verdict on the warm pass.
#[derive(Clone, Debug)]
pub struct IncrementalRow {
    /// Design.
    pub design: Design,
    /// Components the design checks (including the bundled stdlib).
    pub components: usize,
    /// Components replayed from the store on the warm pass.
    pub warm_hits: usize,
    /// Components re-checked on the warm pass (diagnostics-bearing verdicts
    /// are never cached, so a design with warnings keeps a nonzero floor).
    pub warm_misses: usize,
}

/// Measures content-addressed incremental re-checking
/// ([`lilac_core::check_program_incremental`]) on every bundled design:
/// one cold check to populate the verdict store, one warm re-check of the
/// same program to count the replays.
///
/// # Errors
///
/// Propagates parse or type-check errors (none expected).
pub fn incremental_report() -> Result<Vec<IncrementalRow>> {
    let options = CheckOptions::default();
    let mut rows = Vec::new();
    for design in Design::all() {
        let program = design.program()?;
        let mut prior = lilac_core::PriorReports::new();
        let cold = lilac_core::check_program_incremental(&program, &options, &mut prior)?;
        let warm = lilac_core::check_program_incremental(&program, &options, &mut prior)?;
        rows.push(IncrementalRow {
            design,
            components: cold.hits + cold.misses,
            warm_hits: warm.hits,
            warm_misses: warm.misses,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// The deterministic report (checked in as `tests/report_baseline.txt`)
// ---------------------------------------------------------------------------

/// Renders the deterministic report: every count behind Figure 8, the
/// optimizer's node counts on [`paper_netlists`] and the warm-recheck
/// replays of [`incremental_report`], one line per row and no wall clock.
/// All of it is a pure function of the repository, so the report is
/// checked in and diffed byte for byte by `tests/report_baseline.rs`.
///
/// # Errors
///
/// Propagates parse, type-check or elaboration errors (none expected).
pub fn report() -> Result<String> {
    let mut out = String::new();
    for row in figure8()? {
        let s = &row.solver;
        out.push_str(&format!(
            "figure8 {:?}: lines={} obligations={} queries={} cache_hits={} cache_misses={} \
             cubes={} facts_sliced_out={} eq_guard_bailouts={} lints={}\n",
            row.design.name(),
            row.lines,
            row.obligations,
            s.queries,
            s.cache_hits,
            s.cache_misses,
            s.cubes,
            s.facts_sliced_out,
            s.eq_guard_bailouts,
            row.lints,
        ));
    }
    for (name, netlist) in paper_netlists()? {
        let s = lilac_opt::optimize_with_stats(&netlist).1;
        out.push_str(&format!(
            "opt {name:?}: nodes={}→{} sequential={}→{}\n",
            s.nodes_before, s.nodes_after, s.sequential_before, s.sequential_after,
        ));
    }
    for row in incremental_report()? {
        out.push_str(&format!(
            "incremental {:?}: components={} warm_hits={} warm_misses={}\n",
            row.design.name(),
            row.components,
            row.warm_hits,
            row.warm_misses,
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Solver speedup A/B (the exhibit behind the obligation-discharge rework)
// ---------------------------------------------------------------------------

/// A/B timing of one design: the optimized obligation-discharge pipeline
/// (relevance slicing + alpha-invariant query cache + indexed scopes, with a
/// persistent [`SharedCache`] across designs) against the naive baseline
/// (no slicing, no caching, serial, cloned fact snapshots).
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Design.
    pub design: Design,
    /// Optimized pipeline with the persistent shared cache warm.
    pub fast: Duration,
    /// Optimized pipeline with per-program caches only (first-run cost).
    pub cold: Duration,
    /// The naive baseline.
    pub naive: Duration,
    /// `naive / fast`.
    pub speedup: f64,
    /// `naive / cold`.
    pub cold_speedup: f64,
    /// Query-cache hit rate of the optimized run.
    pub cache_hit_rate: f64,
}

/// Aggregate of [`solver_speedup`].
#[derive(Clone, Debug)]
pub struct SpeedupSummary {
    /// Sum of per-design optimized (warm) times.
    pub fast_total: Duration,
    /// Sum of per-design optimized (cold) times.
    pub cold_total: Duration,
    /// Sum of per-design naive times.
    pub naive_total: Duration,
    /// `naive_total / fast_total`.
    pub speedup: f64,
    /// `naive_total / cold_total`.
    pub cold_speedup: f64,
}

/// Measures `check_program` over [`Design::all`] in the three
/// configurations (taking the minimum of `reps` runs each, interleaved, to
/// shed scheduler noise) and verifies on the way that the optimized and
/// naive pipelines produce equivalent reports.
///
/// # Errors
///
/// Propagates parse or type-check errors (none expected).
///
/// # Panics
///
/// Panics if the optimized pipeline changes any check outcome relative to
/// the naive baseline (that would be a solver bug, not a measurement).
pub fn solver_speedup(reps: usize) -> Result<(Vec<SpeedupRow>, SpeedupSummary)> {
    let reps = reps.max(1);
    let naive_opts = CheckOptions::naive();
    let cold_opts = CheckOptions::default();
    let shared = SharedCache::new();
    let mut warm_opts = CheckOptions::default();
    warm_opts.solver_config.shared_cache = Some(shared);

    let programs: Vec<_> =
        Design::all().into_iter().map(|d| d.program().map(|p| (d, p))).collect::<Result<_>>()?;
    // Warm pass: populates the shared cache and verifies A/B equivalence.
    for (_, program) in &programs {
        let fast_report = check_program_with(program, &warm_opts)?;
        let naive_report = check_program_with(program, &naive_opts)?;
        assert!(
            reports_equivalent(&fast_report, &naive_report),
            "optimized pipeline changed check outcomes"
        );
    }

    let measure = |opts: &CheckOptions, program: &lilac_ast::ast::Program| -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..reps {
            let start = Instant::now();
            let _ = check_program_with(program, opts).expect("design checks");
            best = best.min(start.elapsed());
        }
        best
    };

    let mut rows = Vec::new();
    let mut fast_total = Duration::ZERO;
    let mut cold_total = Duration::ZERO;
    let mut naive_total = Duration::ZERO;
    for (design, program) in &programs {
        let fast = measure(&warm_opts, program);
        let cold = measure(&cold_opts, program);
        let naive = measure(&naive_opts, program);
        let report = check_program_with(program, &warm_opts)?;
        fast_total += fast;
        cold_total += cold;
        naive_total += naive;
        rows.push(SpeedupRow {
            design: *design,
            fast,
            cold,
            naive,
            speedup: naive.as_secs_f64() / fast.as_secs_f64(),
            cold_speedup: naive.as_secs_f64() / cold.as_secs_f64(),
            cache_hit_rate: report.solver_stats().cache_hit_rate(),
        });
    }
    let summary = SpeedupSummary {
        fast_total,
        cold_total,
        naive_total,
        speedup: naive_total.as_secs_f64() / fast_total.as_secs_f64(),
        cold_speedup: naive_total.as_secs_f64() / cold_total.as_secs_f64(),
    };
    Ok((rows, summary))
}

/// True when two check reports agree on everything the user can observe.
/// Delegates to [`CheckReport::equivalent`] (kept as a free function for the
/// existing bench/test callers).
pub fn reports_equivalent(a: &CheckReport, b: &CheckReport) -> bool {
    a.equivalent(b)
}

// ---------------------------------------------------------------------------
// Fuzz throughput (the differential-testing subsystem as a benchmark row)
// ---------------------------------------------------------------------------

/// Throughput of the `lilac-fuzz` differential pipeline: how many complete
/// generate → synthesize → check×4 → elaborate → optimize → retime →
/// simulate×8 (plus a 64-lane compiled batch) cases the
/// harness clears per second. This is the row that tells us whether a
/// solver or checker change made the *fuzzing CI budget* cheaper or more
/// expensive, alongside the per-design Figure 8 timings.
#[derive(Clone, Debug)]
pub struct FuzzThroughputRow {
    /// Cases run.
    pub cases: u64,
    /// Cases that type-checked (clean generations).
    pub checked: u64,
    /// Sabotaged cases correctly rejected.
    pub rejected: u64,
    /// Total obligations discharged across all cases.
    pub obligations: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// `cases / elapsed`.
    pub cases_per_sec: f64,
    /// Deterministic outcome digest (must be identical run to run).
    pub fingerprint: u64,
}

/// Runs the fuzzer for a fixed budget and reports throughput.
///
/// # Panics
///
/// Panics if any oracle disagrees — a benchmark run is also a correctness
/// run (the fuzzer's whole point is that every future solver optimization
/// gets this regression oracle for free).
pub fn fuzz_throughput(cases: u64, seed: u64) -> FuzzThroughputRow {
    let config = lilac_fuzz::FuzzConfig { cases, seed, ..lilac_fuzz::FuzzConfig::default() };
    let start = Instant::now();
    let summary = lilac_fuzz::run_fuzz(&config);
    let elapsed = start.elapsed();
    assert!(
        summary.failures.is_empty(),
        "fuzz oracles disagreed during the benchmark: {:#?}",
        summary.failures
    );
    FuzzThroughputRow {
        cases: summary.cases,
        checked: summary.checked_ok,
        rejected: summary.rejected,
        obligations: summary.obligations,
        elapsed,
        cases_per_sec: summary.cases as f64 / elapsed.as_secs_f64().max(1e-9),
        fingerprint: summary.fingerprint,
    }
}

// ---------------------------------------------------------------------------
// The netlist optimizer (lilac-opt) on the paper designs
// ---------------------------------------------------------------------------

/// One row of the optimizer exhibit: a bundled paper design's netlist
/// before/after `lilac_opt::optimize`, the optimizer's runtime, and the
/// simulator-throughput change the reduction buys.
#[derive(Clone, Debug)]
pub struct OptRow {
    /// Design / netlist label.
    pub design: &'static str,
    /// Per-pass statistics (node and sequential counts included).
    pub stats: lilac_opt::OptStats,
    /// Wall-clock time of one `optimize` run (minimum over reps).
    pub opt_time: Duration,
    /// `lilac-sim` time for the measured cycles on the raw netlist.
    pub sim_raw: Duration,
    /// `lilac-sim` time for the same cycles on the optimized netlist.
    pub sim_opt: Duration,
    /// `sim_raw / sim_opt`.
    pub sim_speedup: f64,
}

/// The netlists the optimizer, retiming and report exhibits measure: the
/// elaborated paper designs plus the hand-built LA/LI system netlists of
/// Table 1 / Figure 13.
///
/// # Errors
///
/// Propagates parse/type-check/elaboration errors (none expected).
pub fn paper_netlists() -> Result<Vec<(&'static str, lilac_ir::Netlist)>> {
    let fpu = elaborate_module(
        &Design::Fpu.program()?,
        "FPU",
        &BTreeMap::from([("W".to_string(), 32)]),
        &ElabConfig::default(),
    )?;
    let gbp = elaborate_module(
        &Design::Gbp.program()?,
        "Gbp",
        &BTreeMap::from([("W".to_string(), 8)]),
        &ElabConfig::default(),
    )?;
    let la_gbp = gbp::la_gbp_system(&gbp.netlist, 8, 4);
    Ok(vec![
        ("FPU (elaborated, W=32)", fpu.netlist),
        ("GBP (elaborated, W=8)", gbp.netlist),
        ("LA GBP system (N=4)", la_gbp),
        ("LI FPU (4/2)", fpu::li_fpu(32, 4, 2)),
        ("LI GBP (N=4)", gbp::li_gbp(8, 4)),
    ])
}

/// Measures `lilac_opt::optimize` over [`paper_netlists`]: node-count
/// reduction, optimizer runtime, and the simulation-throughput gain on
/// `cycles` simulated cycles (minimum of `reps` interleaved runs each).
///
/// # Errors
///
/// Propagates errors from [`paper_netlists`].
///
/// # Panics
///
/// Panics if an optimized netlist fails to simulate — the same contract the
/// fuzzer's sixth oracle enforces case by case.
pub fn optimizer_report(cycles: usize, reps: usize) -> Result<Vec<OptRow>> {
    let reps = reps.max(1);
    let mut rows = Vec::new();
    for (design, netlist) in paper_netlists()? {
        let (optimized, stats) = lilac_opt::optimize_with_stats(&netlist);
        let mut opt_time = Duration::MAX;
        for _ in 0..reps {
            let start = Instant::now();
            let _ = lilac_opt::optimize(&netlist);
            opt_time = opt_time.min(start.elapsed());
        }
        let measure_sim = |n: &lilac_ir::Netlist| -> Duration {
            let mut best = Duration::MAX;
            for _ in 0..reps {
                let mut sim = lilac_sim::Simulator::new(n).expect("netlist simulates");
                let inputs: Vec<String> = n.inputs.iter().map(|p| p.name.clone()).collect();
                let start = Instant::now();
                for cycle in 0..cycles {
                    for (k, name) in inputs.iter().enumerate() {
                        sim.set_input(name, (cycle as u64).wrapping_mul(7).wrapping_add(k as u64));
                    }
                    sim.step();
                }
                best = best.min(start.elapsed());
            }
            best
        };
        let sim_raw = measure_sim(&netlist);
        let sim_opt = measure_sim(&optimized);
        rows.push(OptRow {
            design,
            stats,
            opt_time,
            sim_raw,
            sim_opt,
            sim_speedup: sim_raw.as_secs_f64() / sim_opt.as_secs_f64().max(1e-12),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Compiled simulation (lilac-sim's tape backend) vs the interpreter
// ---------------------------------------------------------------------------

/// One row of the compiled-simulation exhibit: a bundled paper design
/// driven with the same stimulus by the reference interpreter and by the
/// compiled instruction tape ([`lilac_sim::CompiledSim`]).
#[derive(Clone, Debug)]
pub struct SimBackendRow {
    /// Design / netlist label.
    pub design: &'static str,
    /// Simulated cycles per measured run.
    pub cycles: usize,
    /// Interpreter wall-clock for one vector over `cycles` cycles.
    pub interp: Duration,
    /// Compiled-tape wall-clock for the same drive. All 64 lanes carry the
    /// broadcast vector, so this is the cost of *any* 1..=64-vector batch.
    pub compiled: Duration,
    /// Single-vector speedup: `interp / compiled`.
    pub speedup: f64,
    /// Vector-throughput speedup with all 64 lanes carrying distinct
    /// vectors: `64 * interp / compiled` (the tape's step cost does not
    /// depend on how many lanes differ).
    pub lane_speedup: f64,
}

/// Measures the interpreter against the compiled tape over
/// [`paper_netlists`] (minimum of `reps` interleaved runs each), after
/// first checking on every design that the two backends agree output for
/// output, cycle for cycle — a benchmark run is also a correctness run.
///
/// # Errors
///
/// Propagates errors from [`paper_netlists`].
///
/// # Panics
///
/// Panics if the backends disagree on any output of any design.
pub fn sim_backend_report(cycles: usize, reps: usize) -> Result<Vec<SimBackendRow>> {
    use lilac_sim::SimBackend;
    let reps = reps.max(1);
    let stimulus = |cycle: usize, k: usize| (cycle as u64).wrapping_mul(7).wrapping_add(k as u64);
    fn drive<B: lilac_sim::SimBackend>(
        sim: &mut B,
        inputs: &[String],
        cycles: usize,
        stimulus: &impl Fn(usize, usize) -> u64,
    ) {
        for cycle in 0..cycles {
            for (k, name) in inputs.iter().enumerate() {
                sim.set_input(name, stimulus(cycle, k));
            }
            sim.step();
        }
    }
    let mut rows = Vec::new();
    for (design, netlist) in paper_netlists()? {
        let inputs: Vec<String> = netlist.inputs.iter().map(|p| p.name.clone()).collect();
        // Equivalence first, then the stopwatch.
        let mut interp = lilac_sim::Simulator::new(&netlist).expect("netlist simulates");
        let mut compiled = lilac_sim::CompiledSim::new(&netlist).expect("netlist compiles");
        let outputs = interp.output_names();
        for cycle in 0..64usize {
            for (k, name) in inputs.iter().enumerate() {
                interp.set_input(name, stimulus(cycle, k));
                SimBackend::set_input(&mut compiled, name, stimulus(cycle, k));
            }
            for name in &outputs {
                assert_eq!(
                    interp.peek(name),
                    SimBackend::output(&mut compiled, name),
                    "{design}: backends diverge on `{name}` at cycle {cycle}"
                );
            }
            interp.step();
            SimBackend::step(&mut compiled);
        }
        let mut interp_best = Duration::MAX;
        let mut compiled_best = Duration::MAX;
        for _ in 0..reps {
            let mut sim = lilac_sim::Simulator::new(&netlist).expect("netlist simulates");
            let start = Instant::now();
            drive(&mut sim, &inputs, cycles, &stimulus);
            interp_best = interp_best.min(start.elapsed());
            let mut sim = lilac_sim::CompiledSim::new(&netlist).expect("netlist compiles");
            let start = Instant::now();
            drive(&mut sim, &inputs, cycles, &stimulus);
            compiled_best = compiled_best.min(start.elapsed());
        }
        let speedup = interp_best.as_secs_f64() / compiled_best.as_secs_f64().max(1e-12);
        rows.push(SimBackendRow {
            design,
            cycles,
            interp: interp_best,
            compiled: compiled_best,
            speedup,
            lane_speedup: speedup * lilac_sim::compiled::LANES as f64,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Register retiming (lilac-opt::retime) on the paper designs
// ---------------------------------------------------------------------------

/// One row of the retiming exhibit: a bundled paper design's netlist
/// before/after `lilac_opt::retime`, with the cost model's fmax on both
/// sides and the latency-preservation verdict.
#[derive(Clone, Debug)]
pub struct RetimeRow {
    /// Design / netlist label.
    pub design: &'static str,
    /// Per-run retiming statistics (moves, critical paths, register bits).
    pub stats: lilac_opt::RetimeStats,
    /// Estimated fmax before retiming, MHz.
    pub fmax_before_mhz: f64,
    /// Estimated fmax after retiming, MHz.
    pub fmax_after_mhz: f64,
    /// Whether every output's minimum input-to-output register count is
    /// unchanged (must always be true; recorded so the tests can assert it
    /// from the row).
    pub latency_preserved: bool,
    /// Wall-clock time of one `retime` run (minimum over reps).
    pub retime_time: Duration,
}

/// Measures `lilac_opt::retime` over [`paper_netlists`]: accepted moves,
/// critical-path/fmax deltas, and latency preservation per design.
///
/// # Errors
///
/// Propagates errors from [`paper_netlists`].
///
/// # Panics
///
/// Panics if the retimer violates its own contract — the same panics the
/// fuzzer's seventh oracle converts into shrinkable failures.
pub fn retiming_report(reps: usize) -> Result<Vec<RetimeRow>> {
    let reps = reps.max(1);
    let mut rows = Vec::new();
    for (design, netlist) in paper_netlists()? {
        // The stats-producing run doubles as the first timed rep, so
        // `retiming_report(1)` pays for exactly one retime per design.
        let start = Instant::now();
        let (retimed, stats) = lilac_opt::retime_with_stats(&netlist);
        let mut retime_time = start.elapsed();
        for _ in 1..reps {
            let start = Instant::now();
            let _ = lilac_opt::retime(&netlist);
            retime_time = retime_time.min(start.elapsed());
        }
        rows.push(RetimeRow {
            design,
            stats,
            fmax_before_mhz: 1000.0 / stats.critical_path_before_ns,
            fmax_after_mhz: 1000.0 / stats.critical_path_after_ns,
            latency_preserved: retimed.output_min_latencies() == netlist.output_min_latencies(),
            retime_time,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Figure 13
// ---------------------------------------------------------------------------

/// One design point of Figure 13: the LA (Lilac) and LI (ready–valid)
/// Gaussian blur pyramids at one convolution parallelism, plus the
/// *retimed* variants of both (`lilac_opt::retime` — same latency, higher
/// estimated fmax wherever the pass finds an accepted move).
#[derive(Clone, Debug)]
pub struct Figure13Row {
    /// Aetherling parallelism (the paper's N).
    pub n: u32,
    /// Cost of the latency-abstract implementation (elaborated Lilac design
    /// plus its serializer front-end).
    pub lilac: ResourceEstimate,
    /// Cost of the ready–valid implementation.
    pub ready_valid: ResourceEstimate,
    /// Cost of the retimed latency-abstract implementation.
    pub lilac_retimed: ResourceEstimate,
    /// Cost of the retimed ready–valid implementation.
    pub ready_valid_retimed: ResourceEstimate,
    /// Whether retiming preserved every output's minimum register latency
    /// on both implementations (must always be true).
    pub latency_preserved: bool,
}

/// Regenerates Figure 13: resource usage and maximum frequency of the GBP
/// implementations for N ∈ {1, 2, 4, 8, 16}.
///
/// # Errors
///
/// Propagates parse/type-check/elaboration errors (none expected).
pub fn figure13() -> Result<Vec<Figure13Row>> {
    let program = Design::Gbp.program()?;
    check_program(&program)?;
    let width = 8u32;
    let mut rows = Vec::new();
    for n in [1u32, 2, 4, 8, 16] {
        let mut registry = GeneratorRegistry::with_builtin_tools();
        registry.set_default_knob("aetherling", "multipliers", n as u64);
        let module = elaborate_module(
            &program,
            "Gbp",
            &BTreeMap::from([("W".to_string(), width as u64)]),
            &ElabConfig::with_registry(registry),
        )?;
        let la_system = gbp::la_gbp_system(&module.netlist, width, n);
        let li_system = gbp::li_gbp(width, n);
        let la_retimed = lilac_opt::retime(&la_system);
        let li_retimed = lilac_opt::retime(&li_system);
        rows.push(Figure13Row {
            n,
            lilac: estimate(&la_system),
            ready_valid: estimate(&li_system),
            lilac_retimed: estimate(&la_retimed),
            ready_valid_retimed: estimate(&li_retimed),
            latency_preserved: la_retimed.output_min_latencies()
                == la_system.output_min_latencies()
                && li_retimed.output_min_latencies() == li_system.output_min_latencies(),
        });
    }
    Ok(rows)
}

/// Geometric-mean summary of Figure 13 (the paper's headline numbers: LI uses
/// ~26% more LUTs, ~33% more registers, and achieves ~7% lower frequency).
#[derive(Clone, Copy, Debug)]
pub struct Figure13Summary {
    /// Geometric-mean LUT overhead of LI over LA, in percent.
    pub li_lut_overhead_pct: f64,
    /// Geometric-mean register overhead of LI over LA, in percent.
    pub li_register_overhead_pct: f64,
    /// Geometric-mean frequency change of LI versus LA, in percent.
    pub li_fmax_delta_pct: f64,
}

/// Summarizes Figure 13 rows with geometric means, as the paper does.
pub fn summarize_figure13(rows: &[Figure13Row]) -> Figure13Summary {
    let geo = |ratios: Vec<f64>| -> f64 {
        let product: f64 = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
        product.exp()
    };
    let lut = geo(rows.iter().map(|r| r.ready_valid.luts as f64 / r.lilac.luts as f64).collect());
    let reg = geo(rows
        .iter()
        .map(|r| r.ready_valid.registers as f64 / r.lilac.registers as f64)
        .collect());
    let fmax = geo(rows.iter().map(|r| r.ready_valid.fmax_mhz / r.lilac.fmax_mhz).collect());
    Figure13Summary {
        li_lut_overhead_pct: (lut - 1.0) * 100.0,
        li_register_overhead_pct: (reg - 1.0) * 100.0,
        li_fmax_delta_pct: (fmax - 1.0) * 100.0,
    }
}

// ---------------------------------------------------------------------------
// Supporting case study: the FloPoCo latency sweep (§2.1 / Figure 9 context)
// ---------------------------------------------------------------------------

/// Latencies chosen by the FloPoCo model across frequency targets; used by
/// the quickstart example and the EXPERIMENTS narrative to show why LS
/// integration is brittle.
pub fn flopoco_latency_sweep(width: u64) -> Vec<(u32, u64, u64)> {
    let mut rows = Vec::new();
    for mhz in [100u32, 160, 220, 280, 340] {
        let goals = GenGoals { target_mhz: mhz, ..GenGoals::default() };
        let add = lilac_gen::tools::FloPoCo
            .generate(&GenRequest::new("flopoco", "FPAdd").with_param("W", width).with_goals(goals))
            .map_or(1, |r| r.out_param("L").unwrap_or(1));
        let mul = lilac_gen::tools::FloPoCo
            .generate(&GenRequest::new("flopoco", "FPMul").with_param("W", width).with_goals(goals))
            .map_or(1, |r| r.out_param("L").unwrap_or(1));
        rows.push((mhz, add, mul));
    }
    rows
}

// ---------------------------------------------------------------------------
// Service soak (the fault-tolerant CheckService under sustained load)
// ---------------------------------------------------------------------------

/// One soak run of the long-lived [`CheckService`](lilac_service): request
/// latencies, verdict mix, and fault-tolerance counters under sustained
/// load.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Programs pushed through the service.
    pub iterations: u64,
    /// Programs the service accepted (all obligations proved).
    pub accepted: u64,
    /// Programs the service rejected with diagnostics.
    pub rejected: u64,
    /// Faults the seeded schedule injected (0 when run fault-free).
    pub faults_injected: u64,
    /// Lifetime service counters at the end of the run.
    pub stats: lilac_service::ServiceStats,
    /// Median per-request latency.
    pub p50: Duration,
    /// 99th-percentile per-request latency.
    pub p99: Duration,
    /// Mean per-request latency.
    pub mean: Duration,
    /// Worst per-request latency.
    pub max: Duration,
    /// Wall-clock time for the whole soak.
    pub elapsed: Duration,
}

impl SoakReport {
    /// The report as a single JSON object (no external dependencies; the CI
    /// soak job uploads this as its artifact).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"iterations\":{},\"accepted\":{},\"rejected\":{},\"faults_injected\":{},\
             \"units\":{},\"panics_caught\":{},\"deadline_expiries\":{},\
             \"budget_exhaustions\":{},\"retries\":{},\"degraded_units\":{},\
             \"failed_units\":{},\"cache_quarantines\":{},\
             \"p50_us\":{},\"p99_us\":{},\"mean_us\":{},\"max_us\":{},\"elapsed_ms\":{}}}",
            self.iterations,
            self.accepted,
            self.rejected,
            self.faults_injected,
            self.stats.units,
            self.stats.panics_caught,
            self.stats.deadline_expiries,
            self.stats.budget_exhaustions,
            self.stats.retries,
            self.stats.degraded_units,
            self.stats.failed_units,
            self.stats.cache_quarantines,
            self.p50.as_micros(),
            self.p99.as_micros(),
            self.mean.as_micros(),
            self.max.as_micros(),
            self.elapsed.as_millis(),
        )
    }
}

/// Soaks one persistent [`CheckService`](lilac_service::CheckService) with
/// `iterations` check requests: the eight bundled paper designs round-robin,
/// interleaved with fuzz-synthesized programs (seeded by `seed`, including
/// the sabotaged sixth that must be rejected). With `faults`, the service
/// runs under that seeded fault-injection schedule; every request's verdict
/// is still cross-checked against the one-shot naive checker.
///
/// # Panics
///
/// Panics if the service's verdict ever disagrees with the naive checker or
/// a unit fails outright — a soak run is also a correctness run.
pub fn soak(iterations: u64, seed: u64, faults: Option<u64>) -> SoakReport {
    use lilac_service::{CheckService, ServiceConfig};
    let plan = match faults {
        Some(s) => lilac_util::fault::FaultPlan::seeded(s),
        None => lilac_util::fault::FaultPlan::disabled(),
    };
    let service = CheckService::new(ServiceConfig {
        // Zero backoff: the soak measures service latency, not sleep time.
        backoff: Duration::ZERO,
        faults: plan.clone(),
        ..ServiceConfig::default()
    });
    let designs = Design::all();
    let mut latencies: Vec<Duration> = Vec::with_capacity(iterations as usize);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let start = Instant::now();
    for i in 0..iterations {
        // Even iterations replay a bundled design; odd ones a synthesized
        // fuzz program, so the soak sees both realistic and adversarial
        // shapes (including programs that must be *rejected*).
        let program = if i % 2 == 0 {
            designs[(i as usize / 2) % designs.len()].program().expect("bundled design parses")
        } else {
            let scenario = lilac_fuzz::scenario::generate(lilac_fuzz::case_seed(seed, i));
            lilac_fuzz::synth::synthesize(&scenario).program
        };
        let outcome = service.check(&program);
        latencies.push(outcome.elapsed);
        match &outcome.verdict {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
        let naive = check_program_with(&program, &CheckOptions::naive());
        assert_eq!(
            outcome.verdict.is_ok(),
            naive.is_ok(),
            "soak iteration {i}: service and naive checker disagree"
        );
    }
    let elapsed = start.elapsed();
    let stats = service.stats();
    assert_eq!(stats.failed_units, 0, "soak: the degradation ladder must always recover");
    latencies.sort_unstable();
    let pick = |q: f64| {
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    let mean = latencies.iter().sum::<Duration>() / (latencies.len().max(1) as u32);
    SoakReport {
        iterations,
        accepted,
        rejected,
        faults_injected: plan.total_injected(),
        stats,
        p50: pick(0.50),
        p99: pick(0.99),
        mean,
        max: *latencies.last().expect("at least one iteration"),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_is_clean_under_faults() {
        let report = soak(12, 0, Some(1));
        assert_eq!(report.iterations, 12);
        assert_eq!(report.accepted + report.rejected, 12);
        assert!(report.rejected > 0, "the sabotaged sixth must show up by iteration 12");
        assert_eq!(report.stats.failed_units, 0);
        assert!(report.faults_injected > 0, "the seeded schedule must fire");
        assert!(report.p50 <= report.p99 && report.p99 <= report.max);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"failed_units\":0"));
    }

    #[test]
    fn table1_shape_matches_paper() {
        let rows = table1().unwrap();
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            let (li, ls) = (&pair[0], &pair[1]);
            assert_eq!(li.style, "LI");
            assert_eq!(ls.style, "LS");
            assert!(li.cost.luts > ls.cost.luts, "{li:?} vs {ls:?}");
            assert!(li.cost.registers > ls.cost.registers, "{li:?} vs {ls:?}");
            assert!(li.cost.fmax_mhz <= ls.cost.fmax_mhz, "{li:?} vs {ls:?}");
        }
    }

    #[test]
    fn table2_matches_paper() {
        let rows = table2();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].known, (true, true, true));
        assert_eq!(rows[1].known, (false, true, true));
        assert_eq!(rows[2].known, (false, false, true));
    }

    #[test]
    fn table3_matches_paper() {
        let rows = table3();
        assert_eq!(rows.len(), 5);
        let find = |name: &str| rows.iter().find(|r| r.generator == name).unwrap();
        assert_eq!(find("PipelineC").features.len(), 1);
        assert_eq!(find("FloPoCo").features.len(), 2);
        assert_eq!(find("XLS").features.len(), 2);
        assert_eq!(find("Spiral FFT").features.len(), 3);
        assert_eq!(find("Aetherling").features.len(), 4);
    }

    #[test]
    fn figure8_rows_cover_paper_designs() {
        let rows = figure8().unwrap();
        assert!(rows.len() >= 6);
        let with_paper: Vec<_> = rows.iter().filter(|r| r.paper_lines.is_some()).collect();
        assert_eq!(with_paper.len(), 6);
        for row in &rows {
            assert!(row.lines > 40, "{:?}", row.design);
            assert!(row.obligations > 0, "{:?}", row.design);
            assert!(row.solver.queries > 0, "{:?}", row.design);
        }
    }

    #[test]
    fn optimized_and_naive_checkers_agree_on_every_design() {
        // The A/B contract behind the perf work, end to end: slicing,
        // alpha-invariant caching, indexed scopes and parallelism must not
        // change a single check outcome on any bundled design.
        let naive = lilac_core::CheckOptions::naive();
        for design in Design::all() {
            let program = design.program().unwrap();
            let fast_report = check_program(&program).unwrap();
            let naive_report = check_program_with(&program, &naive).unwrap();
            assert!(
                reports_equivalent(&fast_report, &naive_report),
                "{} reports diverged",
                design.name()
            );
        }
    }

    #[test]
    fn check_program_stats_are_deterministic_under_parallel_checker() {
        let parallel = lilac_core::CheckOptions::default();
        let serial =
            lilac_core::CheckOptions { parallel: false, ..lilac_core::CheckOptions::default() };
        for design in [Design::Gbp, Design::Fpu, Design::BlasLevel1] {
            let program = design.program().unwrap();
            let a = check_program_with(&program, &parallel).unwrap();
            let b = check_program_with(&program, &parallel).unwrap();
            let c = check_program_with(&program, &serial).unwrap();
            // A cold incremental check on an empty store checks every
            // component, fanned out the same way.
            let mut empty = lilac_core::PriorReports::new();
            let d = lilac_core::check_program_incremental(&program, &parallel, &mut empty)
                .unwrap()
                .report;
            // Big enough that the default options really fan out.
            assert!(a.components.len() >= lilac_core::check::FAN_OUT_MIN_COMPONENTS);
            for (x, y) in a.components.iter().zip(b.components.iter()) {
                assert_eq!(x.solver_stats, y.solver_stats, "{}", design.name());
            }
            for (x, y) in a.components.iter().zip(c.components.iter()) {
                assert_eq!(x.solver_stats, y.solver_stats, "{}", design.name());
            }
            for (x, y) in a.components.iter().zip(d.components.iter()) {
                assert_eq!(x.solver_stats, y.solver_stats, "{}", design.name());
            }
            assert_eq!(a.solver_stats(), c.solver_stats(), "{}", design.name());
            assert_eq!(a.solver_stats(), d.solver_stats(), "{}", design.name());
        }
    }

    #[test]
    fn solver_speedup_meets_target() {
        let (rows, summary) = solver_speedup(3).unwrap();
        assert_eq!(rows.len(), Design::all().len());
        // The aggregate win of the optimized pipeline (warm persistent
        // cache) over the naive baseline. Measured ~3.5x in release and
        // ~3.0x in debug on one core; asserted with margin for loaded CI
        // machines. The solver-bound designs must individually clear 3x.
        assert!(
            summary.speedup >= 2.2,
            "aggregate speedup regressed: {:.2}x (naive {:?} vs fast {:?})",
            summary.speedup,
            summary.naive_total,
            summary.fast_total
        );
        let best = rows.iter().map(|r| r.speedup).fold(0.0f64, f64::max);
        assert!(best >= 3.0, "no design reaches 3x: best {best:.2}x\n{rows:#?}");
        // The cache must carry real weight: >50% hit rate somewhere.
        assert!(
            rows.iter().any(|r| r.cache_hit_rate > 0.5),
            "no design exceeds 50% cache hit rate: {rows:#?}"
        );
    }

    #[test]
    fn fuzz_throughput_is_clean_and_deterministic() {
        let a = fuzz_throughput(25, 7);
        let b = fuzz_throughput(25, 7);
        assert_eq!(a.cases, 25);
        assert!(a.checked + a.rejected == 25);
        assert!(a.obligations > 0);
        assert_eq!(a.fingerprint, b.fingerprint, "fuzz outcomes must be deterministic");
    }

    #[test]
    fn optimizer_meets_reduction_and_speedup_targets() {
        let rows = optimizer_report(2000, 3).unwrap();
        assert_eq!(rows.len(), 5);
        // The optimizer must never grow a design.
        for row in &rows {
            assert!(
                row.stats.nodes_after <= row.stats.nodes_before,
                "{}: optimizer grew the netlist: {:?}",
                row.design,
                row.stats
            );
        }
        // The headline: >= 20% node-count reduction on at least two bundled
        // paper designs (measured: GBP ~57%, LA GBP system ~40%, LI FPU
        // ~72%, LI GBP ~63%)...
        let reduced: Vec<_> = rows.iter().filter(|r| r.stats.node_reduction() >= 0.20).collect();
        assert!(reduced.len() >= 2, "fewer than two designs reach 20% node reduction: {rows:#?}");
        // ...and the reduction must buy measurable simulator throughput.
        // Wall-clock on a shared runner is noisy, so this asserts only the
        // *best* speedup among the reduced designs, which carries a 2-4x
        // margin over the threshold (measured best: LI FPU ~3.3x); the
        // per-design table is the bench harness's job (`cargo bench`).
        let best = reduced.iter().map(|r| r.sim_speedup).fold(0.0f64, f64::max);
        assert!(
            best > 1.05,
            "no reduced design shows a sim-throughput gain (best {best:.2}x): {rows:#?}"
        );
    }

    #[test]
    fn compiled_backend_clears_2x_on_bundled_designs() {
        let rows = sim_backend_report(2_000, 3).unwrap();
        assert_eq!(rows.len(), 5);
        // The acceptance bar for the compiled tape: at least two bundled
        // paper designs clear 2x compiled-vs-interpreter *vector
        // throughput* — 64 lane-packed vectors per tape step against one
        // interpreted vector. That is the metric the backend exists for
        // (the fuzzer's batched ninth-oracle check); a single broadcast
        // vector pays for all 64 lanes and is *slower* than the
        // interpreter on these wide-datapath designs, which is expected
        // and documented. Measured: 4.9x-12.1x in release, 4.0x-8.5x in
        // debug, so the 2x bar holds with margin on loaded CI machines.
        let fast = rows.iter().filter(|r| r.lane_speedup >= 2.0).count();
        assert!(
            fast >= 2,
            "fewer than two designs reach 2x compiled-vs-interpreter vector throughput: {rows:#?}"
        );
    }

    #[test]
    fn figure13_shape_matches_paper() {
        let rows = figure13().unwrap();
        assert_eq!(rows.len(), 5);
        // LI costs more on every design point.
        for row in &rows {
            assert!(row.ready_valid.registers > row.lilac.registers, "N={}: {:?}", row.n, row);
            assert!(row.ready_valid.luts > row.lilac.luts, "N={}: {row:?}", row.n);
        }
        // Retiming never hurts a design point and never touches latency.
        for row in &rows {
            assert!(row.latency_preserved, "N={}: retiming changed a latency", row.n);
            assert!(
                row.lilac_retimed.fmax_mhz >= row.lilac.fmax_mhz - 1e-9,
                "N={}: retimed LA point is slower: {row:?}",
                row.n
            );
            assert!(
                row.ready_valid_retimed.fmax_mhz >= row.ready_valid.fmax_mhz - 1e-9,
                "N={}: retimed LI point is slower: {row:?}",
                row.n
            );
        }
        // The LA implementation needs fewer registers as N grows (less
        // serialization); N=16 uses substantially fewer than N=1.
        let first = &rows[0];
        let last = &rows[4];
        assert!(
            (last.lilac.registers as f64) < 0.9 * first.lilac.registers as f64,
            "LA registers should shrink with N: {} -> {}",
            first.lilac.registers,
            last.lilac.registers
        );
        let summary = summarize_figure13(&rows);
        assert!(summary.li_lut_overhead_pct > 5.0);
        assert!(summary.li_register_overhead_pct > 10.0);
    }

    #[test]
    fn retiming_improves_fmax_on_figure13_points_with_zero_latency_change() {
        // The retiming acceptance bar: at least two Figure 13 design
        // points get a strictly better estimated fmax, and no point's
        // latency moves by even one cycle. (Measured: the LA pyramids at
        // N=8 and N=16 go from ~273 MHz to ~376/403 MHz — their critical
        // path is the blend-lane adder chain the retimer rebalances; the
        // N<=4 LA points are bound by the serializer mux cascade feeding
        // the unmovable convolution cores, and the LI points by the
        // ready/valid glue that ends in RegEn enables, which retiming
        // correctly refuses to touch.)
        let rows = figure13().unwrap();
        let mut improved = 0;
        for row in &rows {
            assert!(row.latency_preserved, "N={}: latency must not change", row.n);
            for (before, after) in
                [(&row.lilac, &row.lilac_retimed), (&row.ready_valid, &row.ready_valid_retimed)]
            {
                assert!(
                    after.fmax_mhz >= before.fmax_mhz - 1e-9,
                    "N={}: retiming must never lower fmax",
                    row.n
                );
                if after.fmax_mhz > before.fmax_mhz * 1.01 {
                    improved += 1;
                }
            }
        }
        assert!(
            improved >= 2,
            "retiming must improve estimated fmax on at least two Figure 13 design points \
             (got {improved}): {rows:#?}"
        );
    }

    #[test]
    fn retiming_report_is_sound_and_finds_wins() {
        let rows = retiming_report(1).unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.latency_preserved, "{}: latency must not change", row.design);
            assert!(
                row.stats.critical_path_after_ns <= row.stats.critical_path_before_ns + 1e-9,
                "{}: critical path grew: {:?}",
                row.design,
                row.stats
            );
        }
        // At least one bundled paper design must actually move registers
        // and gain fmax (measured: the elaborated GBP, whose blend lanes
        // rebalance from 273 MHz to 403 MHz with *fewer* register bits —
        // the forward moves merge per-operand stages into one).
        let best = rows
            .iter()
            .max_by(|a, b| a.stats.fmax_gain_pct().partial_cmp(&b.stats.fmax_gain_pct()).unwrap())
            .unwrap();
        assert!(
            best.stats.moves() >= 1 && best.stats.fmax_gain_pct() > 10.0,
            "no paper design gains >10% fmax from retiming: {rows:#?}"
        );
    }

    #[test]
    fn flopoco_sweep_is_monotone() {
        let rows = flopoco_latency_sweep(32);
        assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(rows.first().unwrap().1 < rows.last().unwrap().1);
    }
}
