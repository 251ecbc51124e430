//! The per-layer metrics of the traced run: their catalog (unit, direction,
//! and the end-to-end metric each should move), how each is computed from
//! the spans and counters, and why a metric reads zero on a workload that
//! does not exercise its layer.
//!
//! Every metric is normalised per op unless it is a ratio or a rate. `.us`
//! is wall time inside the call; `.blocked_us` is that wall time minus the
//! calling thread's on-CPU time (`/proc/thread-self/schedstat`).

use crate::measure::ProcSnapshot;
use crate::trace::{Agg, Tracer};
use lilac_solver::SolverStats;
use std::collections::BTreeMap;

/// One per-layer metric.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, better, moves }
}

const EDIT_P50: &str = "latency_p50_ms on edit";
const CHECKER: &str = "ops_per_s on fuzz and campaign; must not raise latency_p99_ms on designs";
const EDIT_FUZZ: &str = "latency_p50_ms on edit, ops_per_s on fuzz (oracle 10)";
const SOLVER: &str = "latency_p50_ms on designs, ops_per_s on fuzz";
const SERVICE: &str = "latency_p50_ms and latency_p99_ms on edit";
const DESIGNS_P50: &str = "latency_p50_ms on designs";
const OPT: &str = "latency_p50_ms, luts, registers and fmax_mhz on designs";
const FUZZ_ONLY: &str = "ops_per_s on fuzz only (no change predicted on designs and edit)";
const PROC: &str = "ops_per_s on fuzz and campaign, peak_rss_mb";

pub const LAYER_METRICS: &[LayerMetric] = &[
    m("ast.parse.calls", "calls/op", "lower", EDIT_P50),
    m("ast.parse.us", "us/op", "lower", EDIT_P50),
    m("ast.print.us", "us/op", "lower", EDIT_P50),
    m("core.check.calls", "calls/op", "lower", CHECKER),
    m("core.check.us", "us/op", "lower", CHECKER),
    m("core.check.blocked_us", "us/op", "lower", CHECKER),
    m("core.check.obligations", "count/op", "lower", CHECKER),
    m("core.library_build.us", "us/op", "lower", EDIT_FUZZ),
    m("core.hash.us", "us/op", "lower", EDIT_FUZZ),
    m("core.incremental.us", "us/op", "lower", EDIT_FUZZ),
    m("core.incremental.hit_rate", "ratio", "higher", EDIT_FUZZ),
    m("solver.queries", "count/op", "lower", SOLVER),
    m("solver.cache_hit_rate", "ratio", "higher", SOLVER),
    m("solver.cubes", "count/op", "lower", SOLVER),
    m("solver.facts_sliced_out", "count/op", "higher", SOLVER),
    m("solver.fm_combines", "count/op", "lower", SOLVER),
    m("solver.enum_assignments", "count/op", "lower", SOLVER),
    m("solver.unknown", "count/op", "lower", SOLVER),
    m("service.check.us", "us/op", "lower", SERVICE),
    m("service.check.blocked_us", "us/op", "lower", SERVICE),
    m("service.report_hit_rate", "ratio", "higher", SERVICE),
    m("service.units", "count/op", "lower", SERVICE),
    m("service.degraded_units", "count/op", "lower", SERVICE),
    m("service.failed_units", "count/op", "lower", SERVICE),
    m("elab.elaborate.us", "us/op", "lower", DESIGNS_P50),
    m("elab.nodes", "count/op", "lower", DESIGNS_P50),
    m("opt.optimize.us", "us/op", "lower", OPT),
    m("opt.nodes_removed", "count/op", "higher", OPT),
    m("opt.retime.us", "us/op", "lower", OPT),
    m("opt.retime.moves", "count/op", "higher", OPT),
    m("ir.emit_verilog.us", "us/op", "lower", DESIGNS_P50),
    m("ir.verilog_bytes", "bytes/op", "lower", DESIGNS_P50),
    m("synth.estimate.us", "us/op", "lower", DESIGNS_P50),
    m("analysis.analyze.us", "us/op", "lower", FUZZ_ONLY),
    m("li.auto_wrap.us", "us/op", "lower", FUZZ_ONLY),
    m("li.glue_nodes", "count/op", "lower", FUZZ_ONLY),
    m("sim.interp.cycles_per_s", "cycles/s", "higher", FUZZ_ONLY),
    m("sim.compiled.build_us", "us/op", "lower", FUZZ_ONLY),
    m("sim.compiled.cycles_per_s", "cycles/s", "higher", FUZZ_ONLY),
    m("vsim.parse.us", "us/op", "lower", FUZZ_ONLY),
    m("vsim.cycles_per_s", "cycles/s", "higher", FUZZ_ONLY),
    m("fuzz.generate.us", "us/op", "lower", "ops_per_s on fuzz"),
    m("fuzz.synthesize.us", "us/op", "lower", "ops_per_s on fuzz"),
    m("fuzz.run_case.us", "us/op", "lower", "ops_per_s on fuzz"),
    m("campaign.shard_imbalance", "ratio", "lower", "ops_per_s on campaign"),
    m("campaign.merge.us", "us/op", "lower", "ops_per_s on campaign"),
    m("proc.user_s", "s/op", "lower", PROC),
    m("proc.sys_s", "s/op", "lower", PROC),
    m("proc.voluntary_ctx_switches", "count/op", "lower", PROC),
    m("proc.involuntary_ctx_switches", "count/op", "lower", PROC),
    m("proc.cpu_util", "ratio", "lower", PROC),
    m("trace.overhead_pct", "%", "lower", "none: the trace's cost over the untraced loop"),
    m("trace.coverage", "ratio", "higher", "none: share of op wall inside layer spans"),
];

/// Adds one check report's solver effort to the trace counters.
pub fn solver_counts(tr: &mut Tracer, s: &SolverStats) {
    tr.count("solver.queries", s.queries as f64);
    tr.count("solver.cache_hits", s.cache_hits as f64);
    tr.count("solver.cubes", s.cubes as f64);
    tr.count("solver.facts_sliced_out", s.facts_sliced_out as f64);
    tr.count("solver.fm_combines", s.fm_combines as f64);
    tr.count("solver.enum_assignments", s.enum_assignments as f64);
    tr.count("solver.unknown", s.unknown as f64);
}

/// What the per-layer metrics are computed from.
pub struct TracedRun<'a> {
    /// The traced phase.
    pub tracer: &'a Tracer,
    /// Ops of each phase (the traced phase replays the untraced one's ops).
    pub ops: u64,
    /// Wall seconds of the untraced phase.
    pub untraced_wall_s: f64,
    /// Wall seconds of the traced phase, replays and probes excluded.
    pub traced_wall_s: f64,
    /// Process counters over the untraced phase.
    pub proc: ProcSnapshot,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every catalog metric, in catalog order.
pub fn compute(run: &TracedRun<'_>) -> Vec<(&'static LayerMetric, f64)> {
    let aggs: BTreeMap<&'static str, Agg> = run.tracer.aggregate();
    let ops = run.ops.max(1) as f64;
    let agg = |span: &str| aggs.get(span).copied().unwrap_or_default();
    let c = |name: &str| run.tracer.counter(name);
    let rate = |cycles: &str, span: &str| ratio(c(cycles), agg(span).wall_ns as f64 * 1e-9);
    LAYER_METRICS
        .iter()
        .map(|metric| {
            let name = metric.name;
            let value = match name {
                "core.incremental.hit_rate" => ratio(
                    c("core.incremental.hits"),
                    c("core.incremental.hits") + c("core.incremental.misses"),
                ),
                "solver.cache_hit_rate" => ratio(c("solver.cache_hits"), c("solver.queries")),
                "service.report_hit_rate" => ratio(
                    c("service.report_hits"),
                    c("service.report_hits") + c("service.report_misses"),
                ),
                "sim.interp.cycles_per_s" => rate("sim.interp.cycles", "sim.interp.run"),
                "sim.compiled.build_us" => agg("sim.compiled.build").wall_ns as f64 * 1e-3 / ops,
                "sim.compiled.cycles_per_s" => rate("sim.compiled.cycles", "sim.compiled.run"),
                "vsim.cycles_per_s" => rate("vsim.cycles", "vsim.run"),
                "campaign.shard_imbalance" => {
                    ratio(c("campaign.imbalance_sum"), c("campaign.passes"))
                }
                "campaign.merge.us" => c("campaign.merge_s") * 1e6 / ops,
                "proc.user_s" => run.proc.user_s / ops,
                "proc.sys_s" => run.proc.sys_s / ops,
                "proc.voluntary_ctx_switches" => run.proc.voluntary_ctx as f64 / ops,
                "proc.involuntary_ctx_switches" => run.proc.involuntary_ctx as f64 / ops,
                "proc.cpu_util" => ratio(run.proc.user_s + run.proc.sys_s, run.untraced_wall_s),
                "trace.overhead_pct" => {
                    (ratio(run.traced_wall_s, run.untraced_wall_s) - 1.0) * 100.0
                }
                "trace.coverage" => run.tracer.coverage(),
                _ => {
                    if let Some(span) = name.strip_suffix(".calls") {
                        agg(span).calls as f64 / ops
                    } else if let Some(span) = name.strip_suffix(".blocked_us") {
                        agg(span).blocked_ns as f64 * 1e-3 / ops
                    } else if let Some(span) = name.strip_suffix(".us") {
                        agg(span).wall_ns as f64 * 1e-3 / ops
                    } else {
                        c(name) / ops
                    }
                }
            };
            (metric, if value.is_finite() { value } else { 0.0 })
        })
        .collect()
}

/// Why `metric` reads zero on `workload`, where that is by construction.
pub fn zero_reason(workload: &str, metric: &str) -> &'static str {
    let layer = metric.split('.').next().unwrap_or("");
    let under = |prefixes: &[&str]| prefixes.iter().any(|p| metric.starts_with(p));
    if under(&["service.degraded_units", "service.failed_units"]) {
        return "no faults are injected and no deadline expires, so no unit degrades or fails";
    }
    if metric == "solver.unknown" {
        return "the solver decided every query";
    }
    if metric == "solver.enum_assignments" {
        return "no obligation was refuted, so no counterexample search ran";
    }
    match workload {
        "designs" => match layer {
            "ast" => "designs parses source text; it never prints a program",
            "core" => "designs checks from scratch; it never checks incrementally",
            "service" => "designs calls the checker directly, not the service",
            "analysis" | "li" | "sim" | "vsim" => {
                "designs does not analyze, wrap or simulate (no change predicted)"
            }
            "fuzz" | "campaign" => "designs runs no fuzz cases",
            _ => "not exercised by designs",
        },
        "edit" => match layer {
            "core" if metric.starts_with("core.check") => {
                "edit checks through CheckService::check_incremental (see service.*)"
            }
            "core" => "edit's incremental path is the service's report cache (see service.report_hit_rate)",
            "elab" | "opt" | "ir" | "synth" | "analysis" | "li" | "sim" | "vsim" => {
                "edit does not elaborate (no change predicted)"
            }
            "fuzz" => "edit builds its fuzz bases between timed loops; only their printing is traced",
            "campaign" => "edit runs no campaign",
            _ => "not exercised by edit",
        },
        "fuzz" => match layer {
            "campaign" => "fuzz runs no campaign",
            "synth" => "no oracle calls lilac_synth::estimate (retiming's timing queries sit inside opt.retime)",
            "service" => "the service oracle uses CheckService::check, which has no report cache",
            _ => "not exercised by fuzz",
        },
        "campaign" => match layer {
            "campaign" | "proc" | "trace" => "not exercised by campaign",
            _ => {
                "cases run inside run_campaign's shard workers, out of reach of spans recorded \
                 from outside; the fuzz workload's replay measures the same calls"
            }
        },
        _ => "not exercised by this workload",
    }
}
