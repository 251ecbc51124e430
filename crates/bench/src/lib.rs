//! The benchmark harness: regenerates every table and figure of the paper's
//! evaluation from the reproduction's own substrate.
//!
//! Each experiment has a library function returning structured rows (used by
//! the tests) and a binary that prints the table:
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
//! carries no wall clock. The crate's one timer is Figure 8's `Time (ms)`
//! column, because the paper reports it; every other wall-clock number —
//! per-layer check, optimizer, retiming, simulation and service times —
//! is measured by the repository benchmark (`benchmark/`).
//!
//! Absolute LUT/register/frequency numbers come from `lilac-synth`'s analytic
//! model rather than a Vivado run, so they are not expected to match the
//! paper's numbers; the relationships the paper argues for (who wins, by
//! roughly what factor, and how the gap moves across design points) are what
//! `EXPERIMENTS.md` compares.

use lilac_core::{check_program, CheckOptions, GeneratorFeature, InterfaceStyle};
use lilac_designs::Design;
use lilac_elab::{elaborate_module, ElabConfig};
use lilac_gen::{GenGoals, GenRequest, Generator, GeneratorRegistry};
use lilac_li::{fpu, gbp};
use lilac_solver::SolverStats;
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
// The paper netlists (shared by the report and the opt/retime/sim tests)
// ---------------------------------------------------------------------------

/// The netlists the report's optimizer rows and the optimizer, retiming and
/// simulation tests cover: the elaborated paper designs plus the hand-built
/// LA/LI system netlists of Table 1 / Figure 13.
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

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_core::check_program_with;
    use lilac_solver::SharedCache;

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
        // change a single check outcome on any bundled design — neither
        // with per-program caches nor with one shared cache kept warm
        // across all the designs.
        let naive = CheckOptions::naive();
        let mut warm = CheckOptions::default();
        warm.solver_config.shared_cache = Some(SharedCache::new());
        for design in Design::all() {
            let program = design.program().unwrap();
            let naive_report = check_program_with(&program, &naive).unwrap();
            for (label, options) in [("default", &CheckOptions::default()), ("warm cache", &warm)] {
                let report = check_program_with(&program, options).unwrap();
                assert!(
                    report.equivalent(&naive_report),
                    "{}: {label} report diverged from the naive checker",
                    design.name()
                );
            }
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
    fn optimizer_meets_reduction_and_speedup_targets() {
        let rows: Vec<_> = paper_netlists()
            .unwrap()
            .into_iter()
            .map(|(design, netlist)| (design, lilac_opt::optimize_with_stats(&netlist).1))
            .collect();
        assert_eq!(rows.len(), 5);
        // The optimizer must never grow a design.
        for (design, stats) in &rows {
            assert!(
                stats.nodes_after <= stats.nodes_before,
                "{design}: optimizer grew the netlist: {stats:?}"
            );
        }
        // The headline: >= 20% node-count reduction on at least two paper
        // netlists (the golden report pins the exact counts). What the
        // reduction buys in simulation throughput is wall clock, measured
        // by the repository benchmark's `sim.interp.cycles_per_s`.
        let reduced = rows.iter().filter(|(_, stats)| stats.node_reduction() >= 0.20).count();
        assert!(reduced >= 2, "fewer than two designs reach 20% node reduction: {rows:#?}");
    }

    #[test]
    fn interpreter_and_compiled_tape_agree_on_paper_netlists() {
        use lilac_sim::{CompiledSim, SimBackend, Simulator};
        for (design, netlist) in paper_netlists().unwrap() {
            let inputs: Vec<String> = netlist.inputs.iter().map(|p| p.name.clone()).collect();
            let mut interp = Simulator::new(&netlist).expect("netlist simulates");
            let mut compiled = CompiledSim::new(&netlist).expect("netlist compiles");
            let outputs = interp.output_names();
            assert!(!outputs.is_empty(), "{design}: no outputs to compare");
            for cycle in 0..64u64 {
                for (k, name) in inputs.iter().enumerate() {
                    let v = cycle.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(k as u64);
                    interp.set_input(name, v);
                    compiled.set_input(name, v);
                }
                for name in &outputs {
                    assert_eq!(
                        interp.peek(name),
                        compiled.output(name),
                        "{design}: engines diverge on `{name}` at cycle {cycle}"
                    );
                }
                interp.step();
                compiled.step();
            }
        }
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
    fn flopoco_sweep_is_monotone() {
        let rows = flopoco_latency_sweep(32);
        assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(rows.first().unwrap().1 < rows.last().unwrap().1);
    }
}
