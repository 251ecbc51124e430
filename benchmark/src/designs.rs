//! `designs`: compile each bundled design from source, the way a user of the
//! compiler would. One op is one design compile: parse, type-check,
//! elaborate at the design's lint-surface top, optimize, retime, emit
//! Verilog and estimate resources. The seed only shuffles the order of each
//! round; a phase always ends on a whole round, so every design is compiled
//! equally often and the latency percentiles see a fixed mix.

use crate::layers::solver_counts;
use crate::measure::{millis, secs, Gate, Limit, Phase};
use crate::trace::Tracer;
use lilac_core::{check_program_with, CheckOptions};
use lilac_designs::Design;
use lilac_elab::{elaborate_module, ElabConfig};
use lilac_util::rng::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// One design and the top it is compiled at.
struct Top {
    design: Design,
    top: &'static str,
    params: BTreeMap<String, u64>,
}

fn tops() -> Vec<Top> {
    lilac_fuzz::lint::design_tops()
        .into_iter()
        .map(|(design, top, width)| {
            let mut params = BTreeMap::from([("W".to_string(), width)]);
            // The same extra parameter the lint surface elaborates DotPipe with.
            if top == "DotPipe" {
                params.insert("D".to_string(), 2);
            }
            Top { design, top, params }
        })
        .collect()
}

/// What one compile produced.
struct Compiled {
    luts: u64,
    registers: u64,
    fmax_mhz: f64,
    verilog: String,
}

impl Compiled {
    /// Everything that must repeat exactly from one compile of a design to
    /// the next.
    fn key(&self) -> (u64, u64, u64, usize, u64) {
        let hash = lilac_fuzz::fnv1a(0, self.verilog.as_bytes());
        (self.luts, self.registers, self.fmax_mhz.to_bits(), self.verilog.len(), hash)
    }
}

fn compile(t: &Top, tr: &mut Tracer) -> Result<Compiled, String> {
    let program = tr.leaf("ast.parse", || t.design.program()).map_err(|e| format!("parse: {e}"))?;
    let report = tr
        .blocking("core.check", || check_program_with(&program, &CheckOptions::default()))
        .map_err(|e| format!("check: {e}"))?;
    tr.count("core.check.obligations", report.total_obligations() as f64);
    solver_counts(tr, &report.solver_stats());
    let module = tr
        .leaf("elab.elaborate", || {
            elaborate_module(&program, t.top, &t.params, &ElabConfig::default())
        })
        .map_err(|e| format!("elaborate {}: {e}", t.top))?;
    tr.count("elab.nodes", module.netlist.node_count() as f64);
    // `optimize`/`retime` are exactly these calls minus the returned stats.
    let (optimized, opt) =
        tr.leaf("opt.optimize", || lilac_opt::optimize_with_stats(&module.netlist));
    tr.count("opt.nodes_removed", opt.nodes_before.saturating_sub(opt.nodes_after) as f64);
    let (retimed, moves) = tr.leaf("opt.retime", || lilac_opt::retime_with_stats(&optimized));
    tr.count("opt.retime.moves", moves.moves() as f64);
    let verilog = tr.leaf("ir.emit_verilog", || lilac_ir::emit_verilog(&retimed));
    tr.count("ir.verilog_bytes", verilog.len() as f64);
    let estimate = tr.leaf("synth.estimate", || lilac_synth::estimate(&retimed));
    Ok(Compiled {
        luts: estimate.luts,
        registers: estimate.registers,
        fmax_mhz: estimate.fmax_mhz,
        verilog,
    })
}

/// Quality of the generated hardware over the eight bundled designs.
#[derive(Clone, Copy, Debug)]
pub struct Qor {
    /// LUTs, summed over the designs.
    pub luts: u64,
    /// Registers, summed over the designs.
    pub registers: u64,
    /// Geometric mean of the designs' estimated fmax.
    pub fmax_mhz: f64,
}

fn qor(results: &[&Compiled]) -> Qor {
    let log_sum: f64 = results.iter().map(|c| c.fmax_mhz.ln()).sum();
    Qor {
        luts: results.iter().map(|c| c.luts).sum(),
        registers: results.iter().map(|c| c.registers).sum(),
        fmax_mhz: (log_sum / results.len().max(1) as f64).exp(),
    }
}

/// Compiles every design once, untraced, for the quality-of-result metrics
/// the other workloads report.
pub fn qor_once() -> Result<Qor, String> {
    let mut tr = Tracer::new(false);
    let compiled: Vec<Compiled> =
        tops().iter().map(|t| compile(t, &mut tr)).collect::<Result<_, _>>()?;
    Ok(qor(&compiled.iter().collect::<Vec<_>>()))
}

pub struct Designs {
    tops: Vec<Top>,
    rng: Rng,
}

impl Designs {
    /// Builds the inputs and compiles one design untimed (always the first
    /// design, so set-up does not depend on the seed).
    pub fn setup(seed: u64) -> Designs {
        let designs = Designs { tops: tops(), rng: Rng::new(seed) };
        let _ = compile(&designs.tops[0], &mut Tracer::new(false));
        designs
    }

    pub fn run(&mut self, limit: Limit, tr: &mut Tracer, verify: bool) -> (Phase, Option<Qor>) {
        let mut phase = Phase::default();
        // Per design: the first successful compile, and whether every later
        // compile reproduced it exactly.
        let mut first: Vec<Option<Compiled>> = self.tops.iter().map(|_| None).collect();
        let mut repeatable = vec![true; self.tops.len()];
        let mut errors: Vec<String> = Vec::new();
        let start = Instant::now();
        loop {
            let round = Instant::now();
            let mut order: Vec<usize> = (0..self.tops.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, self.rng.index(i + 1));
            }
            for index in order {
                tr.set_op(phase.ops);
                let began = Instant::now();
                let op = tr.begin("op");
                let result = compile(&self.tops[index], tr);
                tr.end(op);
                phase.latencies_ms.push(millis(began));
                phase.ops += 1;
                match result {
                    Ok(compiled) => match &first[index] {
                        None => first[index] = Some(compiled),
                        Some(seen) => repeatable[index] &= seen.key() == compiled.key(),
                    },
                    Err(e) => {
                        phase.failed += 1;
                        errors.push(format!("{}: {e}", self.tops[index].top));
                    }
                }
            }
            phase.close_window(self.tops.len() as u64, secs(round));
            if limit.reached(phase.ops, secs(start)) {
                break;
            }
        }
        phase.wall_s = secs(start);
        if !verify {
            return (phase, None);
        }
        errors.sort_unstable();
        errors.dedup();
        phase.gates.push(Gate::new(
            "every design checks and elaborates",
            errors.is_empty(),
            errors.join("; "),
        ));
        let compiled: Vec<&Compiled> = first.iter().flatten().collect();
        let reparse: Vec<String> = first
            .iter()
            .zip(&self.tops)
            .filter_map(|(c, t)| {
                let error = lilac_vsim::parse_design(&c.as_ref()?.verilog).err()?;
                Some(format!("{}: {error}", t.top))
            })
            .collect();
        phase.gates.push(Gate::new(
            "emitted Verilog re-parses through lilac_vsim::parse_design",
            compiled.len() == self.tops.len() && reparse.is_empty(),
            reparse.join("; "),
        ));
        let unstable: Vec<&str> =
            self.tops.iter().zip(&repeatable).filter(|(_, ok)| !**ok).map(|(t, _)| t.top).collect();
        phase.gates.push(Gate::new(
            "luts/registers/fmax and Verilog identical on every compile",
            unstable.is_empty(),
            unstable.join(", "),
        ));
        let qor = (compiled.len() == self.tops.len()).then(|| qor(&compiled));
        (phase, qor)
    }
}
