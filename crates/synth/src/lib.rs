//! An analytic FPGA synthesis cost model.
//!
//! The paper reports LUTs, registers, and maximum frequency from Vivado
//! synthesis runs (Table 1, Figure 13). Vivado and its target FPGAs are not
//! available to this reproduction, so this crate substitutes an analytic
//! model in the spirit of published FPGA area folklore:
//!
//! * every primitive node is charged LUTs/FFs/DSPs as a function of its
//!   bit width (an adder ≈ one LUT per bit, a register ≈ one flip-flop per
//!   bit, a pipelined floating-point core ≈ its datapath plus one register
//!   stage per cycle of latency, ...);
//! * the maximum frequency is `1 / critical path`, where the critical path
//!   is the longest register-to-register combinational path, with per-node
//!   delays and a fan-out penalty.
//!
//! Absolute numbers will not match a real place-and-route run; the claim the
//! reproduction preserves is the *relative* one — latency-insensitive
//! designs pay for handshake FSMs, FIFOs and valid/ready trees that
//! latency-abstract designs do not — and that relationship emerges from the
//! structure of the netlists, not from fudge factors on the totals (both
//! styles are costed by the same per-primitive table).
//!
//! # Example
//!
//! ```
//! use lilac_ir::{Netlist, NodeKind};
//! use lilac_synth::estimate;
//!
//! let mut n = Netlist::new("acc");
//! let i = n.add_input("i", 16);
//! let r = n.add_node(NodeKind::Reg, vec![i], 16, "r");
//! let s = n.add_node(NodeKind::Add, vec![r, i], 16, "s");
//! n.add_output("o", s);
//! let cost = estimate(&n);
//! assert_eq!(cost.registers, 16);
//! assert!(cost.luts >= 16);
//! assert!(cost.fmax_mhz > 0.0);
//! ```

use lilac_ir::{Netlist, NodeKind, PipeOp};

/// Resource and timing estimate for one netlist.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceEstimate {
    /// Look-up tables.
    pub luts: u64,
    /// Flip-flops.
    pub registers: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// Estimated critical path in nanoseconds.
    pub critical_path_ns: f64,
    /// Estimated maximum frequency in MHz.
    pub fmax_mhz: f64,
}

impl ResourceEstimate {
    /// Relative LUT overhead of `self` over `baseline`, in percent.
    pub fn lut_overhead_pct(&self, baseline: &ResourceEstimate) -> f64 {
        100.0 * (self.luts as f64 - baseline.luts as f64) / baseline.luts as f64
    }

    /// Relative register overhead of `self` over `baseline`, in percent.
    pub fn register_overhead_pct(&self, baseline: &ResourceEstimate) -> f64 {
        100.0 * (self.registers as f64 - baseline.registers as f64) / baseline.registers as f64
    }

    /// Relative frequency change of `self` versus `baseline`, in percent
    /// (negative means slower).
    pub fn fmax_delta_pct(&self, baseline: &ResourceEstimate) -> f64 {
        100.0 * (self.fmax_mhz - baseline.fmax_mhz) / baseline.fmax_mhz
    }
}

/// Per-node area cost.
fn area(kind: &NodeKind, width: u64, fanin_widths: &[u64]) -> (u64, u64, u64) {
    // (luts, ffs, dsps)
    match kind {
        NodeKind::Input(_) | NodeKind::Const(_) | NodeKind::Slice { .. } | NodeKind::Concat => {
            (0, 0, 0)
        }
        NodeKind::Reg => (0, width, 0),
        NodeKind::RegEn => (width / 4, width, 0),
        NodeKind::Delay(n) => (0, width * *n as u64, 0),
        NodeKind::Add | NodeKind::Sub => (width, 0, 0),
        NodeKind::Mul => {
            // Combinational multiplier: DSPs for wide operands, LUT fabric
            // for narrow ones.
            if width >= 16 {
                (width, 0, width.div_ceil(18).pow(2))
            } else {
                (width * width / 3, 0, 0)
            }
        }
        NodeKind::And | NodeKind::Or | NodeKind::Xor | NodeKind::Not => (width.div_ceil(2), 0, 0),
        NodeKind::Eq | NodeKind::Lt => {
            let w = fanin_widths.first().copied().unwrap_or(width);
            (w.div_ceil(2) + 1, 0, 0)
        }
        NodeKind::Mux => (width.div_ceil(2), 0, 0),
        NodeKind::PipelinedOp { op, latency, .. } => pipe_area(*op, width, *latency as u64),
    }
}

fn pipe_area(op: PipeOp, width: u64, latency: u64) -> (u64, u64, u64) {
    match op {
        // A FloPoCo-style floating-point adder: alignment shifter, mantissa
        // add, normalization — roughly 12 LUTs/bit — plus one pipeline
        // register stage per cycle of latency over ~1.5 datapath widths.
        PipeOp::FAdd => (12 * width, latency * width * 3 / 2, 0),
        // Multipliers lean on DSPs; the LUT share is smaller.
        PipeOp::FMul => (6 * width, latency * width * 3 / 2, width.div_ceil(18).pow(2)),
        PipeOp::IntMul => (2 * width, latency * width, width.div_ceil(18).pow(2)),
        // Dividers are LUT-hungry, one stage per pipeline cycle.
        PipeOp::Div => (width * width / 3, latency * width, 0),
        // A 4×4 convolution with `par` parallel multipliers. Fewer
        // multipliers mean a partially-pipelined module that must buffer the
        // 16-element window internally while it walks it over 16/par
        // transactions, so its register cost grows as parallelism shrinks.
        PipeOp::Conv { par } => {
            let par = par as u64;
            let window_buffer = (16 / par.max(1)) * width * 4;
            (40 * par + 4 * width, 16 * width + latency * width + window_buffer, par)
        }
        PipeOp::Fft { points } => {
            let stages = 64 - (points.max(2) as u64 - 1).leading_zeros() as u64;
            (stages * 24 * width, stages * 8 * width + latency * width, stages * 3)
        }
        PipeOp::Mac => (3 * width, latency * width, width.div_ceil(18).pow(2)),
    }
}

/// Per-node combinational delay in nanoseconds.
fn delay_ns(kind: &NodeKind, width: u64) -> f64 {
    match kind {
        NodeKind::Input(_)
        | NodeKind::Const(_)
        | NodeKind::Slice { .. }
        | NodeKind::Concat
        | NodeKind::Reg
        | NodeKind::RegEn
        | NodeKind::Delay(_) => 0.0,
        NodeKind::Add | NodeKind::Sub => 0.9 + 0.035 * width as f64,
        NodeKind::Mul => 2.6 + 0.05 * width as f64,
        NodeKind::And | NodeKind::Or | NodeKind::Xor | NodeKind::Not => 0.45,
        NodeKind::Eq | NodeKind::Lt => 0.7 + 0.02 * width as f64,
        NodeKind::Mux => 0.55,
        NodeKind::PipelinedOp { op, latency, .. } => {
            // Per-stage delay: the generator splits its datapath across the
            // pipeline, so deeper pipelines have shorter stages.
            let total = match op {
                PipeOp::FAdd => 2.2 + 0.09 * width as f64,
                PipeOp::FMul => 2.8 + 0.07 * width as f64,
                PipeOp::IntMul => 2.4 + 0.06 * width as f64,
                PipeOp::Div => 3.0 + 0.22 * width as f64,
                PipeOp::Conv { par } => 2.0 + 0.25 * (*par as f64).sqrt() + 0.02 * width as f64,
                PipeOp::Fft { .. } => 2.6 + 0.05 * width as f64,
                PipeOp::Mac => 2.5 + 0.06 * width as f64,
            };
            total / (*latency).max(1) as f64
        }
    }
}

/// Flip-flop clock-to-out plus setup margin.
const SEQUENTIAL_OVERHEAD_NS: f64 = 0.65;
/// Added per extra fan-out of a node (routing congestion proxy).
const FANOUT_PENALTY_NS: f64 = 0.045;

/// The estimated critical path of a netlist in nanoseconds: the longest
/// register-to-register (or port-to-register / register-to-port)
/// combinational arrival time under the per-node delay table, including the
/// fan-out routing penalty and the flip-flop clock-to-out + setup margin.
///
/// This is the standalone timing half of [`estimate`] — the query the
/// register-retiming pass (`lilac-opt`) scores candidate moves with, where
/// recomputing the area columns for every probe would be wasted work. By
/// construction `estimate(n).critical_path_ns == critical_path_ns(n)`.
///
/// A netlist with a combinational cycle has no meaningful arrival times;
/// such nodes are skipped (matching [`estimate`]'s behaviour) and the
/// floor of 1.0 ns applies.
pub fn critical_path_ns(netlist: &Netlist) -> f64 {
    timing_detail(netlist).critical_path_ns
}

/// Tolerance within which a timing endpoint counts as critical (see
/// [`TimingDetail::critical_endpoints`]).
pub const CRITICAL_TOLERANCE_NS: f64 = 1e-6;

/// [`critical_path_ns`] plus *where*: the node at which the critical
/// arrival time is observed (the combinational endpoint, or the sequential
/// node whose operand path or internal stage binds the clock), and how
/// many endpoints sit at (within [`CRITICAL_TOLERANCE_NS`] of) the
/// critical path. The endpoint count is what a timing optimizer needs as a
/// *secondary* objective: when several parallel paths tie for critical —
/// the blend lanes of the GBP, say — no single rewrite can shorten the
/// maximum, but each rewrite that empties the critical set by one is
/// progress the bare maximum cannot see.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingDetail {
    /// Estimated critical path in nanoseconds (floor 1.0).
    pub critical_path_ns: f64,
    /// Node at which the critical path ends (lowest id among ties).
    pub critical_node: Option<lilac_ir::NodeId>,
    /// Number of path-*terminal* nodes (sequential nodes, output drivers,
    /// and nodes nothing consumes) whose worst observed path endpoint is
    /// within [`CRITICAL_TOLERANCE_NS`] of the critical path. Consumed
    /// combinational nodes are excluded: their observations are dominated
    /// by (or duplicated at) their consumers', so counting them would
    /// report one path — through zero-delay nodes, or into a register —
    /// as several tied endpoints.
    pub critical_endpoints: usize,
}

/// Computes the critical path, its endpoint, and the size of the critical
/// set; see [`critical_path_ns`] and [`TimingDetail`].
pub fn timing_detail(netlist: &Netlist) -> TimingDetail {
    // Fan-out counts (operand edges plus output drivers).
    //
    // Endpoints are counted only at path-*terminal* observation sites:
    // sequential nodes (marked below), output drivers, and nodes nothing
    // consumes. A consumed combinational node's observation is always
    // dominated by (or duplicated at) a consumer's — a combinational reader
    // extends the path with non-negative delay, and a sequential reader
    // records the same operand arrival as its own endpoint — so restricting
    // the count changes nothing about the maximum, but it stops one
    // physical path (through zero-delay nodes, or into a register) from
    // being counted as several tied "endpoints", which would skew the
    // retimer's secondary objective.
    let mut fanout = vec![0u64; netlist.node_count()];
    for (_, node) in netlist.iter() {
        for input in &node.inputs {
            fanout[input.0 as usize] += 1;
        }
    }
    let mut terminal: Vec<bool> = fanout.iter().map(|&f| f == 0).collect();
    for (_, id) in &netlist.outputs {
        fanout[id.0 as usize] += 1;
        terminal[id.0 as usize] = true;
    }

    // Critical path: longest combinational arrival time. Paths start at
    // sequential outputs / inputs / constants and end at sequential inputs or
    // module outputs. `endpoint[i]` records the worst path observation made
    // at node `i`.
    let order = netlist.combinational_order().unwrap_or_default();
    let mut arrival = vec![0.0f64; netlist.node_count()];
    let mut endpoint = vec![0.0f64; netlist.node_count()];
    for id in order {
        let node = netlist.node(id);
        let own = delay_ns(&node.kind, node.width as u64)
            + FANOUT_PENALTY_NS * fanout[id.0 as usize].saturating_sub(1) as f64;
        let input_arrival = node
            .inputs
            .iter()
            .map(|i| {
                let producer = netlist.node(*i);
                if producer.kind.is_sequential() {
                    SEQUENTIAL_OVERHEAD_NS
                } else {
                    arrival[i.0 as usize]
                }
            })
            .fold(0.0f64, f64::max);
        let t = if node.kind.is_sequential() {
            // The path *into* a sequential element ends here; its own delay
            // does not chain further.
            input_arrival + SEQUENTIAL_OVERHEAD_NS
        } else {
            input_arrival + own
        };
        arrival[id.0 as usize] = if node.kind.is_sequential() { 0.0 } else { t };
        let observed = t + if node.kind.is_sequential() { 0.0 } else { SEQUENTIAL_OVERHEAD_NS };
        let slot = &mut endpoint[id.0 as usize];
        *slot = slot.max(observed);
    }
    // Paths into sequential nodes that were skipped by the combinational
    // order (their operand arrival): account for them explicitly.
    for (id, node) in netlist.iter() {
        if node.kind.is_sequential() {
            let mut worst = 0.0f64;
            for input in &node.inputs {
                let producer = netlist.node(*input);
                let a = if producer.kind.is_sequential() {
                    SEQUENTIAL_OVERHEAD_NS
                } else {
                    arrival[input.0 as usize]
                };
                worst = worst.max(a + SEQUENTIAL_OVERHEAD_NS);
            }
            // The sequential node's own stage delay (e.g. a pipeline stage of
            // a generated core) also bounds the clock.
            let own = delay_ns(&node.kind, node.width as u64);
            worst = worst.max(own + SEQUENTIAL_OVERHEAD_NS);
            let slot = &mut endpoint[id.0 as usize];
            *slot = slot.max(worst);
            terminal[id.0 as usize] = true;
        }
    }

    let mut critical: f64 = 1.0;
    let mut critical_node = None;
    for (i, &t) in endpoint.iter().enumerate() {
        if terminal[i] && t > critical {
            critical = t;
            critical_node = Some(lilac_ir::NodeId(i as u32));
        }
    }
    let critical_endpoints = endpoint
        .iter()
        .enumerate()
        .filter(|&(i, &t)| terminal[i] && t >= critical - CRITICAL_TOLERANCE_NS)
        .count();
    TimingDetail { critical_path_ns: critical, critical_node, critical_endpoints }
}

/// Estimates resources and timing for a netlist.
pub fn estimate(netlist: &Netlist) -> ResourceEstimate {
    let mut luts = 0u64;
    let mut registers = 0u64;
    let mut dsps = 0u64;

    for (_, node) in netlist.iter() {
        let fanin_widths: Vec<u64> =
            node.inputs.iter().map(|i| netlist.node(*i).width as u64).collect();
        let (l, f, d) = area(&node.kind, node.width as u64, &fanin_widths);
        luts += l;
        registers += f;
        dsps += d;
    }

    let critical = critical_path_ns(netlist);
    ResourceEstimate {
        luts,
        registers,
        dsps,
        critical_path_ns: critical,
        fmax_mhz: 1000.0 / critical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_ir::{Netlist, NodeKind};

    fn fpu(add_latency: u32, mul_latency: u32, handshake: bool) -> Netlist {
        // LS FPU plus (optionally) a crude ready/valid wrapper so tests can
        // confirm the LI version costs more.
        let mut n = Netlist::new("fpu");
        let a = n.add_input("a", 32);
        let b = n.add_input("b", 32);
        let op = n.add_input("op", 1);
        let add = n.add_node(
            NodeKind::PipelinedOp { op: PipeOp::FAdd, latency: add_latency, ii: 1 },
            vec![a, b],
            32,
            "fadd",
        );
        let mul = n.add_node(
            NodeKind::PipelinedOp { op: PipeOp::FMul, latency: mul_latency, ii: 1 },
            vec![a, b],
            32,
            "fmul",
        );
        let max = add_latency.max(mul_latency);
        let add_d = n.add_node(NodeKind::Delay(max - add_latency + 1), vec![add], 32, "add_d");
        let mul_d = n.add_node(NodeKind::Delay(max - mul_latency + 1), vec![mul], 32, "mul_d");
        let op_d = n.add_node(NodeKind::Delay(max), vec![op], 1, "op_d");
        let out = n.add_node(NodeKind::Mux, vec![op_d, add_d, mul_d], 32, "out");
        if handshake {
            // Valid shift registers, an op FIFO approximation, and
            // ready/valid glue.
            let valid_in = n.add_input("valid", 1);
            let vsr = n.add_node(NodeKind::Delay(max), vec![valid_in], 1, "valid_sr");
            let fifo = n.add_node(NodeKind::Delay(4), vec![op], 4, "op_fifo");
            let ready = n.add_node(NodeKind::Not, vec![vsr], 1, "ready");
            let gated = n.add_node(NodeKind::And, vec![vsr, ready], 1, "fire");
            let held = n.add_node(NodeKind::RegEn, vec![out, gated], 32, "skid");
            let sel = n.add_node(NodeKind::Mux, vec![gated, out, held], 32, "out_sel");
            n.add_output("o", sel);
            n.add_output("valid_o", vsr);
            let _ = fifo;
        } else {
            n.add_output("o", out);
        }
        n
    }

    #[test]
    fn basic_costs_scale_with_width() {
        let mut narrow = Netlist::new("n8");
        let a = narrow.add_input("a", 8);
        let b = narrow.add_input("b", 8);
        let s = narrow.add_node(NodeKind::Add, vec![a, b], 8, "s");
        narrow.add_output("o", s);

        let mut wide = Netlist::new("n32");
        let a = wide.add_input("a", 32);
        let b = wide.add_input("b", 32);
        let s = wide.add_node(NodeKind::Add, vec![a, b], 32, "s");
        wide.add_output("o", s);

        let cn = estimate(&narrow);
        let cw = estimate(&wide);
        assert!(cw.luts > cn.luts);
        assert!(cw.critical_path_ns > cn.critical_path_ns);
        assert!(cw.fmax_mhz < cn.fmax_mhz);
    }

    #[test]
    fn registers_count_flip_flops() {
        let mut n = Netlist::new("regs");
        let a = n.add_input("a", 16);
        let r1 = n.add_node(NodeKind::Reg, vec![a], 16, "r1");
        let r2 = n.add_node(NodeKind::Delay(3), vec![r1], 16, "r2");
        n.add_output("o", r2);
        let c = estimate(&n);
        assert_eq!(c.registers, 16 + 48);
        assert_eq!(c.dsps, 0);
    }

    #[test]
    fn deeper_pipelines_run_faster_but_use_more_registers() {
        let shallow = estimate(&fpu(1, 1, false));
        let deep = estimate(&fpu(4, 2, false));
        assert!(deep.fmax_mhz > shallow.fmax_mhz, "{deep:?} vs {shallow:?}");
        assert!(deep.registers > shallow.registers);
    }

    #[test]
    fn handshake_wrapper_costs_more() {
        // The Table 1 relationship: the LI wrapper adds LUTs and registers
        // and does not improve frequency.
        let ls = estimate(&fpu(4, 2, false));
        let li = estimate(&fpu(4, 2, true));
        assert!(li.luts > ls.luts);
        assert!(li.registers > ls.registers);
        assert!(li.fmax_mhz <= ls.fmax_mhz + 1e-9);
        assert!(li.lut_overhead_pct(&ls) > 0.0);
        assert!(li.register_overhead_pct(&ls) > 0.0);
        assert!(li.fmax_delta_pct(&ls) <= 0.0);
    }

    #[test]
    fn dsps_charged_for_multipliers() {
        let mut n = Netlist::new("mul");
        let a = n.add_input("a", 32);
        let b = n.add_input("b", 32);
        let m = n.add_node(NodeKind::Mul, vec![a, b], 32, "m");
        n.add_output("o", m);
        assert!(estimate(&n).dsps >= 4);
    }

    #[test]
    fn fanout_penalty_increases_critical_path() {
        let mut low = Netlist::new("low");
        let a = low.add_input("a", 16);
        let b = low.add_input("b", 16);
        let s = low.add_node(NodeKind::Add, vec![a, b], 16, "s");
        low.add_output("o", s);

        let mut high = Netlist::new("high");
        let a = high.add_input("a", 16);
        let b = high.add_input("b", 16);
        let s = high.add_node(NodeKind::Add, vec![a, b], 16, "s");
        for k in 0..12 {
            let r = high.add_node(NodeKind::Reg, vec![s], 16, format!("sink{k}"));
            high.add_output(format!("o{k}"), r);
        }
        assert!(estimate(&high).critical_path_ns > estimate(&low).critical_path_ns);
    }
}
