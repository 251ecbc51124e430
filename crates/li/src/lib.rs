//! Latency-insensitive (LI) baseline designs and ready–valid infrastructure.
//!
//! The paper compares latency-abstract designs against hand-written Verilog
//! implementations that wrap the same generated cores in ready–valid
//! handshakes (Figure 1b, Figure 12). This crate reproduces those baselines
//! as netlists built from the same primitives the LA designs elaborate to,
//! so `lilac-synth` costs both styles with one model:
//!
//! * [`rv`] — reusable ready–valid machinery: valid-tracking shift
//!   registers, skid buffers, small FIFOs, and the three-state send/receive
//!   controllers of Figure 12, all expanded into registers, muxes and
//!   comparators;
//! * [`fpu`] — the LI FPU of §2.2 (Figure 1b) and, for convenience, the
//!   hand-scheduled LS FPU of Figure 2 used by Table 1;
//! * [`gbp`] — the LI Gaussian-blur-pyramid of §7.1, plus the serializer
//!   front-end the LA system uses (Figure 11's role).

use lilac_ir::{Netlist, NodeId, NodeKind, PipeOp};

/// Ready–valid building blocks.
pub mod rv {
    use super::*;

    /// Adds a `depth`-deep, `width`-wide FIFO built from registers, a
    /// write-pointer counter and an output multiplexer tree. Returns the
    /// FIFO's data output node.
    ///
    /// The cost is intentionally structural: `depth × width` flip-flops plus
    /// pointer registers and muxing, which is what makes LI wrappers
    /// expensive for fine-grained modules (§2.2).
    pub fn add_fifo(n: &mut Netlist, data: NodeId, push: NodeId, width: u32, depth: u32) -> NodeId {
        let depth = depth.max(1);
        // Storage registers chained as a shift FIFO with enable.
        let mut stages = Vec::new();
        let mut current = data;
        for k in 0..depth {
            let reg = n.add_node(NodeKind::RegEn, vec![current, push], width, format!("fifo_s{k}"));
            stages.push(reg);
            current = reg;
        }
        // Read pointer: a real wrapping counter. It advances whenever a beat
        // is pushed and wraps at `depth - 1`, so every storage stage is
        // eventually selected. (The historical bug fed the register the
        // constant 1, leaving the pointer stuck and the mux tree dead.)
        let ptr_width = (32 - depth.leading_zeros()).max(1);
        let zero = n.add_const(0, ptr_width);
        let one = n.add_const(1, ptr_width);
        let ptr = n.add_node(NodeKind::Reg, vec![zero], ptr_width, "fifo_rptr");
        let inc = n.add_node(NodeKind::Add, vec![ptr, one], ptr_width, "fifo_rptr_inc");
        let last = n.add_const(depth as u64 - 1, ptr_width);
        let at_last = n.add_node(NodeKind::Eq, vec![ptr, last], 1, "fifo_rptr_wrap");
        let wrapped =
            n.add_node(NodeKind::Mux, vec![at_last, zero, inc], ptr_width, "fifo_rptr_next");
        let stepped = n.add_node(NodeKind::Mux, vec![push, wrapped, ptr], ptr_width, "fifo_rptr_q");
        rewire_first_input(n, ptr, stepped);
        let mut selected = stages[0];
        for (k, &stage) in stages.iter().enumerate().skip(1) {
            let k_const = n.add_const(k as u64, ptr_width);
            let is_k = n.add_node(NodeKind::Eq, vec![ptr, k_const], 1, format!("fifo_sel{k}"));
            selected = n.add_node(
                NodeKind::Mux,
                vec![is_k, stage, selected],
                width,
                format!("fifo_mux{k}"),
            );
        }
        selected
    }

    /// Adds a skid buffer (one-entry elastic buffer): holds the payload when
    /// downstream is not ready. Returns `(data_out, valid_out)`.
    pub fn add_skid_buffer(
        n: &mut Netlist,
        data: NodeId,
        valid: NodeId,
        ready_downstream: NodeId,
        width: u32,
    ) -> (NodeId, NodeId) {
        let stall = n.add_node(NodeKind::Not, vec![ready_downstream], 1, "skid_stall");
        let capture = n.add_node(NodeKind::And, vec![valid, stall], 1, "skid_capture");
        let held = n.add_node(NodeKind::RegEn, vec![data, capture], width, "skid_data");
        let held_valid = n.add_node(NodeKind::RegEn, vec![valid, capture], 1, "skid_valid");
        let out = n.add_node(NodeKind::Mux, vec![held_valid, held, data], width, "skid_mux");
        let out_valid = n.add_node(NodeKind::Or, vec![held_valid, valid], 1, "skid_vmux");
        (out, out_valid)
    }

    /// Adds a valid-tracking shift register of `latency` stages (the "extra
    /// logic that tracks ready and valid" of Figure 1b). Returns the delayed
    /// valid.
    pub fn add_valid_pipe(n: &mut Netlist, valid: NodeId, latency: u32) -> NodeId {
        if latency == 0 {
            return valid;
        }
        n.add_node(NodeKind::Delay(latency), vec![valid], 1, "valid_pipe")
    }

    /// Adds the Figure 12 three-state controller (IDLE / PROC / BLOCKED) used
    /// to drive one generated core through a ready–valid interface. Returns
    /// `(fire, busy)`.
    pub fn add_handshake_fsm(
        n: &mut Netlist,
        valid_in: NodeId,
        ready_in: NodeId,
        steps: u32,
    ) -> (NodeId, NodeId) {
        // State register: 2 bits. Next-state logic from comparisons and
        // muxes; an index counter tracks which chunk is in flight.
        let zero2 = n.add_const(0, 2);
        let state = n.add_node(NodeKind::Reg, vec![zero2, zero2][..1].to_vec(), 2, "fsm_state");
        let idle = n.add_node(NodeKind::Eq, vec![state, zero2], 1, "fsm_is_idle");
        let one2 = n.add_const(1, 2);
        let proc_ = n.add_node(NodeKind::Eq, vec![state, one2], 1, "fsm_is_proc");
        let fire = n.add_node(NodeKind::And, vec![proc_, ready_in], 1, "fsm_fire");
        let start = n.add_node(NodeKind::And, vec![idle, valid_in], 1, "fsm_start");
        let busy = n.add_node(NodeKind::Or, vec![proc_, start], 1, "fsm_busy");

        // Chunk index counter.
        let cnt_w = 32 - steps.max(2).leading_zeros();
        let zero = n.add_const(0, cnt_w);
        let idx = n.add_node(NodeKind::Reg, vec![zero], cnt_w, "fsm_idx");
        let one = n.add_const(1, cnt_w);
        let idx_next = n.add_node(NodeKind::Add, vec![idx, one], cnt_w, "fsm_idx_next");
        let idx_sel = n.add_node(NodeKind::Mux, vec![fire, idx_next, idx], cnt_w, "fsm_idx_sel");
        let last = n.add_const(steps.max(1) as u64 - 1, cnt_w);
        let done = n.add_node(NodeKind::Eq, vec![idx_sel, last], 1, "fsm_done");

        // Next state: IDLE -> PROC on start, PROC -> BLOCKED on done.
        let two2 = n.add_const(2, 2);
        let st_proc = n.add_node(NodeKind::Mux, vec![done, two2, one2], 2, "fsm_next_proc");
        let st_idle = n.add_node(NodeKind::Mux, vec![start, one2, zero2], 2, "fsm_next_idle");
        let next = n.add_node(NodeKind::Mux, vec![proc_, st_proc, st_idle], 2, "fsm_next");
        // Close the state feedback loop.
        rewire_first_input(n, state, next);
        // Close the counter feedback loop.
        rewire_first_input(n, idx, idx_sel);
        (fire, busy)
    }

    /// Wraps an arbitrary elaborated core in a ready–valid shell: the
    /// latency-insensitive counterpart the paper's baselines hand-write,
    /// produced mechanically for *any* latency-abstract design.
    ///
    /// The wrapper re-exposes every data input of `core`, adds `valid_i` /
    /// `ready_i` handshake inputs, tracks validity through a `latency`-deep
    /// valid pipe, and routes every output of the core through a skid
    /// buffer. Outputs are re-exported under their core names plus a
    /// `valid_o` strobe.
    ///
    /// Functional contract (the fuzzer's LA/LI differential oracle): with
    /// `valid_i` and `ready_i` held high, every data output of the wrapper
    /// equals the corresponding core output on every cycle — the handshake
    /// machinery must be purely additive when nobody ever stalls.
    pub fn auto_wrap(core: &Netlist, latency: u32) -> Netlist {
        let mut n = Netlist::new(format!("li_{}", core.name));
        let valid_i = n.add_input("valid_i", 1);
        let ready_i = n.add_input("ready_i", 1);
        let mut drivers = lilac_ir::FxHashMap::default();
        for port in &core.inputs {
            let id = n.add_input(port.name.clone(), port.width);
            drivers.insert(port.name.clone(), id);
        }
        let outs = n.inline(core, &drivers, "core");
        let out_valid = add_valid_pipe(&mut n, valid_i, latency);
        // Stable output order: follow the core's own output declaration
        // order rather than the hash map the inliner returns.
        for (port, _) in &core.outputs {
            let node = outs[&port.name];
            let (held, _held_valid) = add_skid_buffer(&mut n, node, out_valid, ready_i, port.width);
            n.add_output(port.name.clone(), held);
        }
        n.add_output("valid_o", out_valid);
        n
    }

    /// Specializes a ready–valid wrapper to an environment that provably
    /// never stalls: `valid_i` and `ready_i` are tied to constant 1 and all
    /// other ports are re-exposed unchanged.
    ///
    /// This is exactly the operating condition the LA/LI differential
    /// oracle drives ([`auto_wrap`]'s functional contract), expressed as a
    /// netlist. Under it the skid buffer emitted by [`add_skid_buffer`] is
    /// provably inert — its capture enable is constant zero, so both `RegEn`
    /// registers hold their power-up value forever — which the known-bits
    /// analysis proves and `lilac-opt`'s `fold_known_bits` strips.
    pub fn never_stall(wrapped: &Netlist) -> Netlist {
        let mut n = Netlist::new(format!("{}_nostall", wrapped.name));
        let mut drivers = lilac_ir::FxHashMap::default();
        for port in &wrapped.inputs {
            let id = if port.name == "valid_i" || port.name == "ready_i" {
                n.add_const(1, port.width)
            } else {
                n.add_input(port.name.clone(), port.width)
            };
            drivers.insert(port.name.clone(), id);
        }
        let outs = n.inline(wrapped, &drivers, "w");
        for (port, _) in &wrapped.outputs {
            n.add_output(port.name.clone(), outs[&port.name]);
        }
        n
    }

    /// Rewires the first operand of a sequential node (used to close FSM and
    /// counter feedback loops after all the combinational logic exists).
    pub fn rewire_first_input(n: &mut Netlist, node: NodeId, new_input: NodeId) {
        let kind = n.node(node).kind.clone();
        assert!(kind.is_sequential(), "feedback must go through a register");
        replace_input(n, node, 0, new_input);
    }

    fn replace_input(n: &mut Netlist, node: NodeId, position: usize, new_input: NodeId) {
        // Netlist does not expose input mutation directly; rebuild the node
        // in place through the public API.
        let mut inputs = n.node(node).inputs.clone();
        inputs[position] = new_input;
        n.set_inputs(node, inputs);
    }
}

/// The FPU baselines of §2 (Table 1).
pub mod fpu {
    use super::*;

    /// The latency-sensitive FPU of Figure 2: forward the operands into the
    /// generated adder and multiplier, delay the adder result and the `op`
    /// select to balance the pipeline, and multiplex the result.
    pub fn ls_fpu(width: u32, add_latency: u32, mul_latency: u32) -> Netlist {
        let mut n = Netlist::new(format!("ls_fpu_a{add_latency}_m{mul_latency}"));
        let a = n.add_input("a", width);
        let b = n.add_input("b", width);
        let op = n.add_input("op", 1);
        let add = n.add_node(
            NodeKind::PipelinedOp { op: PipeOp::FAdd, latency: add_latency, ii: 1 },
            vec![a, b],
            width,
            "fadd",
        );
        let mul = n.add_node(
            NodeKind::PipelinedOp { op: PipeOp::FMul, latency: mul_latency, ii: 1 },
            vec![a, b],
            width,
            "fmul",
        );
        let max = add_latency.max(mul_latency);
        let add_d = if max > add_latency {
            n.add_node(NodeKind::Delay(max - add_latency), vec![add], width, "add_d")
        } else {
            add
        };
        let mul_d = if max > mul_latency {
            n.add_node(NodeKind::Delay(max - mul_latency), vec![mul], width, "mul_d")
        } else {
            mul
        };
        let op_d = n.add_node(NodeKind::Delay(max), vec![op], 1, "op_d");
        let out = n.add_node(NodeKind::Mux, vec![op_d, add_d, mul_d], width, "result_mux");
        n.add_output("o", out);
        n
    }

    /// The latency-insensitive FPU of Figure 1b: the same compute cores
    /// wrapped in ready–valid handshakes, with valid-tracking pipes, an `op`
    /// FIFO, handshake FSMs and an output skid buffer.
    pub fn li_fpu(width: u32, add_latency: u32, mul_latency: u32) -> Netlist {
        let mut n = ls_fpu(width, add_latency, mul_latency);
        n.rename(format!("li_fpu_a{add_latency}_m{mul_latency}"));
        let result = n.output("o").expect("ls fpu has an output");
        let valid_i = n.add_input("valid_i", 1);
        let ready_i = n.add_input("ready_i", 1);
        let op = n.input("op").expect("op input");
        let a_in = n.input("a").expect("a input");
        let b_in = n.input("b").expect("b input");
        let max = add_latency.max(mul_latency);

        // Input elastic buffers: the wrapper must be able to accept a beat it
        // has already signalled ready for even if the cores stall.
        let (_a_buf, _av) = rv::add_skid_buffer(&mut n, a_in, valid_i, ready_i, width);
        let (_b_buf, _bv) = rv::add_skid_buffer(&mut n, b_in, valid_i, ready_i, width);
        // Result FIFO: holds completed results while the consumer is not
        // ready (the cores cannot be paused mid-pipeline).
        let result_fifo = rv::add_fifo(&mut n, result, ready_i, width, max.max(2) + 2);
        let _ = result_fifo;

        // Valid tracking through both compute pipelines.
        let add_valid = rv::add_valid_pipe(&mut n, valid_i, add_latency);
        let mul_valid = rv::add_valid_pipe(&mut n, valid_i, mul_latency);
        let both = n.add_node(NodeKind::And, vec![add_valid, mul_valid], 1, "valid_join");
        let out_valid = rv::add_valid_pipe(
            &mut n,
            both,
            max.saturating_sub(add_latency.min(mul_latency)).max(1),
        );

        // The op FIFO that keeps selects aligned with in-flight operations.
        let fifo_out = rv::add_fifo(&mut n, op, valid_i, 1, max.max(2) + 2);
        let _sel_check = n.add_node(NodeKind::Eq, vec![fifo_out, op], 1, "sel_check");

        // Handshake FSMs for the producer and consumer sides.
        let (fire_in, busy_in) = rv::add_handshake_fsm(&mut n, valid_i, ready_i, 1);
        let (fire_out, busy_out) = rv::add_handshake_fsm(&mut n, out_valid, ready_i, 1);

        // Output skid buffer.
        let (held, held_valid) = rv::add_skid_buffer(&mut n, result, out_valid, ready_i, width);

        let ready_o = n.add_node(NodeKind::Not, vec![busy_in], 1, "ready_o");
        let accept = n.add_node(NodeKind::And, vec![fire_in, fire_out], 1, "accept");
        let busy = n.add_node(NodeKind::Or, vec![busy_in, busy_out], 1, "busy_any");
        let _ = (accept, busy);
        n.add_output("o_li", held);
        n.add_output("valid_o", held_valid);
        n.add_output("ready_o", ready_o);
        n
    }
}

/// The Gaussian-blur-pyramid baselines of §7 (Figure 13).
pub mod gbp {
    use super::*;

    /// One Aetherling-style convolution core accepting `par` pixels per
    /// transaction (shared by both implementations).
    fn conv_core(n: &mut Netlist, inputs: &[NodeId], width: u32, par: u32, name: &str) -> NodeId {
        let latency = 4 + 16 / par.max(1);
        n.add_node(
            NodeKind::PipelinedOp {
                op: PipeOp::Conv { par },
                latency,
                ii: (16 / par.max(1)).max(1),
            },
            inputs.to_vec(),
            width,
            name.to_string(),
        )
    }

    /// Serializer: registers a 16-pixel window and muxes out `par`-pixel
    /// chunks (the Figure 11 serializer the LA implementation relies on).
    /// Returns the chunk nodes. Its cost shrinks as `par` grows, which is the
    /// source of the Figure 13 trend.
    pub fn add_serializer(n: &mut Netlist, window: &[NodeId], width: u32, par: u32) -> Vec<NodeId> {
        let par = par.max(1) as usize;
        let groups = window.len().div_ceil(par);
        // Hold the window.
        let held: Vec<NodeId> = window
            .iter()
            .enumerate()
            .map(|(i, &px)| n.add_node(NodeKind::Reg, vec![px], width, format!("ser_hold{i}")))
            .collect();
        // Chunk counter.
        let cnt_w = 5;
        let zero = n.add_const(0, cnt_w);
        let one = n.add_const(1, cnt_w);
        let cnt = n.add_node(NodeKind::Reg, vec![zero], cnt_w, "ser_cnt");
        let next = n.add_node(NodeKind::Add, vec![cnt, one], cnt_w, "ser_next");
        rv::rewire_first_input(n, cnt, next);
        // Output muxes: lane j selects held[g*par + j] for the active group g.
        let mut chunk = Vec::new();
        for j in 0..par {
            let mut selected = held[j.min(held.len() - 1)];
            for g in 1..groups {
                let idx = g * par + j;
                if idx >= held.len() {
                    break;
                }
                let g_const = n.add_const(g as u64, cnt_w);
                let is_g =
                    n.add_node(NodeKind::Eq, vec![cnt, g_const], 1, format!("ser_is{g}_{j}"));
                selected = n.add_node(
                    NodeKind::Mux,
                    vec![is_g, held[idx], selected],
                    width,
                    format!("ser_mux{g}_{j}"),
                );
            }
            chunk.push(selected);
        }
        chunk
    }

    /// The latency-abstract GBP *system*: the elaborated Lilac pyramid plus
    /// the serializer front-end that feeds it 16-pixel windows as `par`-wide
    /// chunks. `core` is the netlist elaborated from `lilac-designs`' `Gbp`.
    pub fn la_gbp_system(core: &Netlist, width: u32, par: u32) -> Netlist {
        let mut n = Netlist::new(format!("la_gbp_n{par}"));
        let window: Vec<NodeId> = (0..16).map(|i| n.add_input(format!("px{i}"), width)).collect();
        let chunks = add_serializer(&mut n, &window, width, par);
        let mut drivers = lilac_ir::FxHashMap::default();
        for (i, &c) in chunks.iter().enumerate() {
            drivers.insert(format!("px_{i}"), c);
        }
        let outs = n.inline(core, &drivers, "gbp");
        // Stable output order: follow the core's own output declaration
        // order rather than the hash map the inliner returns.
        for (i, (port, _)) in core.outputs.iter().enumerate() {
            // Collect the pyramid's chunk outputs back into a window register.
            let node = outs[&port.name];
            let reg = n.add_node(NodeKind::Reg, vec![node], width, format!("deser{i}"));
            n.add_output(format!("out_{}", port.name), reg);
        }
        n
    }

    /// The latency-insensitive GBP of §7.1: three convolution stages, each
    /// wrapped in the Figure 12 send/receive state machines, with ready–valid
    /// glue, an input window buffer and per-stage skid buffers. Its cost is
    /// roughly independent of `par`, which is the other half of Figure 13.
    pub fn li_gbp(width: u32, par: u32) -> Netlist {
        let mut n = Netlist::new(format!("li_gbp_n{par}"));
        let valid_i = n.add_input("valid_i", 1);
        let ready_i = n.add_input("ready_i", 1);
        let window: Vec<NodeId> = (0..16).map(|i| n.add_input(format!("px{i}"), width)).collect();

        // Full 16-pixel input buffer (the LI design always buffers the whole
        // window so the state machines can extract N-sized chunks).
        let buffered: Vec<NodeId> = window
            .iter()
            .enumerate()
            .map(|(i, &px)| {
                n.add_node(NodeKind::RegEn, vec![px, valid_i], width, format!("buf{i}"))
            })
            .collect();

        let steps = (16 / par.max(1)).max(1);
        let mut stage_data: Vec<NodeId> = buffered;
        let mut valid = valid_i;
        for stage in 0..3 {
            // Send and receive state machines per stage (Figure 12).
            let (fire_send, busy_send) = rv::add_handshake_fsm(&mut n, valid, ready_i, steps);
            let (fire_recv, busy_recv) = rv::add_handshake_fsm(&mut n, valid, ready_i, steps);
            // Chunk extraction muxes (like the serializer, but driven by the
            // send FSM, and always 16-wide on the buffer side).
            let chunk = add_serializer(&mut n, &stage_data, width, par);
            // Every lane of the chunk crosses a ready–valid boundary into the
            // convolution, so each lane gets its own elastic buffer.
            let chunk: Vec<NodeId> = chunk
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let (d, _v) = rv::add_skid_buffer(&mut n, c, valid, ready_i, width);
                    let r = n.add_node(NodeKind::Reg, vec![d], width, format!("lane{stage}_{i}"));
                    r
                })
                .collect();
            let core = conv_core(&mut n, &chunk, width, par, &format!("conv{stage}"));
            // The convolution result is written back into a full-width
            // result buffer entry by entry.
            let mut results = Vec::new();
            for i in 0..16 {
                let en = n.add_node(
                    NodeKind::And,
                    vec![fire_recv, fire_send],
                    1,
                    format!("wr_en{stage}_{i}"),
                );
                let r =
                    n.add_node(NodeKind::RegEn, vec![core, en], width, format!("res{stage}_{i}"));
                results.push(r);
            }
            // Output double buffer: the receive FSM writes into one window
            // while the next stage drains the other.
            let results: Vec<NodeId> = results
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    n.add_node(
                        NodeKind::RegEn,
                        vec![r, fire_recv],
                        width,
                        format!("dbuf{stage}_{i}"),
                    )
                })
                .collect();
            // Valid for the next stage comes out of a skid buffer.
            let (_, v) = rv::add_skid_buffer(&mut n, core, valid, ready_i, width);
            let stall =
                n.add_node(NodeKind::Or, vec![busy_send, busy_recv], 1, format!("stall{stage}"));
            let gated = n.add_node(NodeKind::Not, vec![stall], 1, format!("go{stage}"));
            valid = n.add_node(NodeKind::And, vec![v, gated], 1, format!("valid{stage}"));
            stage_data = results;
        }

        // Blend against the buffered original window and present the outputs
        // through one more ready–valid boundary.
        for (i, (&orig, &blurred)) in window.iter().zip(stage_data.iter()).enumerate() {
            let blend = n.add_node(NodeKind::Add, vec![orig, blurred], width, format!("blend{i}"));
            let (held, _hv) = rv::add_skid_buffer(&mut n, blend, valid, ready_i, width);
            n.add_output(format!("out{i}"), held);
        }
        n.add_output("valid_o", valid);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_synth::estimate;

    #[test]
    fn ls_and_li_fpu_are_valid_netlists() {
        for (a, m) in [(1, 1), (4, 2)] {
            let ls = fpu::ls_fpu(32, a, m);
            let li = fpu::li_fpu(32, a, m);
            assert!(ls.validate().is_ok());
            assert!(li.validate().is_ok());
            assert!(ls.combinational_order().is_some());
            assert!(li.combinational_order().is_some());
        }
    }

    #[test]
    fn li_fpu_costs_more_than_ls_fpu() {
        // The Table 1 relationship: more LUTs, many more registers, and no
        // better frequency.
        for (a, m) in [(1u32, 1u32), (4, 2)] {
            let ls = estimate(&fpu::ls_fpu(32, a, m));
            let li = estimate(&fpu::li_fpu(32, a, m));
            assert!(li.luts > ls.luts, "A={a} M={m}: {li:?} vs {ls:?}");
            assert!(
                li.registers as f64 > 1.5 * ls.registers as f64,
                "A={a} M={m}: {li:?} vs {ls:?}"
            );
            assert!(li.fmax_mhz <= ls.fmax_mhz, "A={a} M={m}");
        }
    }

    #[test]
    fn deeper_ls_fpu_is_faster() {
        let shallow = estimate(&fpu::ls_fpu(32, 1, 1));
        let deep = estimate(&fpu::ls_fpu(32, 4, 2));
        assert!(deep.fmax_mhz > shallow.fmax_mhz);
    }

    #[test]
    fn li_gbp_is_valid_and_roughly_constant_in_par() {
        let mut costs = Vec::new();
        for par in [1u32, 2, 4, 8, 16] {
            let netlist = gbp::li_gbp(8, par);
            assert!(netlist.validate().is_ok(), "par={par}");
            assert!(netlist.combinational_order().is_some(), "par={par}");
            costs.push(estimate(&netlist));
        }
        let min = costs.iter().map(|c| c.registers).min().unwrap();
        let max = costs.iter().map(|c| c.registers).max().unwrap();
        assert!(
            (max as f64) < 1.6 * min as f64,
            "LI register cost should be roughly flat across design points: {min}..{max}"
        );
    }

    #[test]
    fn serializer_cost_shrinks_with_parallelism() {
        let measure = |par: u32| {
            let mut n = Netlist::new("ser");
            let window: Vec<_> = (0..16).map(|i| n.add_input(format!("p{i}"), 8)).collect();
            let chunks = gbp::add_serializer(&mut n, &window, 8, par);
            for (i, c) in chunks.iter().enumerate() {
                n.add_output(format!("o{i}"), *c);
            }
            estimate(&n).luts
        };
        assert!(measure(1) > measure(4));
        assert!(measure(4) > measure(16));
    }

    #[test]
    fn auto_wrap_is_transparent_when_never_stalled() {
        use lilac_sim::Simulator;
        // Wrap the LS FPU; with valid/ready held high the wrapper must be a
        // bit-exact passthrough of the core on every cycle.
        let core = fpu::ls_fpu(16, 3, 1);
        let wrapped = rv::auto_wrap(&core, 3);
        assert!(wrapped.validate().is_ok());
        assert!(wrapped.combinational_order().is_some());
        let cost_core = estimate(&core);
        let cost_wrapped = estimate(&wrapped);
        assert!(cost_wrapped.registers > cost_core.registers, "the shell must cost something");

        let mut core_sim = Simulator::new(&core).unwrap();
        let mut li_sim = Simulator::new(&wrapped).unwrap();
        li_sim.set_input("valid_i", 1);
        li_sim.set_input("ready_i", 1);
        let mut x: u64 = 7;
        for _ in 0..16 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            for (name, v) in [("a", x & 0xFFFF), ("b", (x >> 16) & 0xFFFF), ("op", (x >> 32) & 1)] {
                core_sim.set_input(name, v);
                li_sim.set_input(name, v);
            }
            assert_eq!(core_sim.peek("o"), li_sim.peek("o"));
            core_sim.step();
            li_sim.step();
        }
    }

    #[test]
    fn fifo_read_pointer_is_a_wrapping_counter() {
        use lilac_sim::Simulator;
        // A depth-3 shift FIFO pushed every cycle. Stage k holds the value
        // pushed k+1 edges ago and the read pointer is `edges mod 3`, so the
        // output after edge e is the value pushed at edge e - (e mod 3). A
        // stuck pointer (the historical bug: the register was fed the
        // constant 1) would instead always present stage 1.
        let mut n = Netlist::new("fifo");
        let data = n.add_input("data", 16);
        let push = n.add_input("push", 1);
        let out = rv::add_fifo(&mut n, data, push, 16, 3);
        n.add_output("o", out);
        assert!(n.validate().is_ok());
        assert!(n.combinational_order().is_some(), "pointer feedback must go through the register");

        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input("push", 1);
        let mut got = Vec::new();
        for t in 0..12u64 {
            sim.set_input("data", 100 + t);
            sim.step();
            got.push(sim.output("o"));
        }
        let expected: Vec<u64> = (1..=12u64)
            .map(|e| {
                let k = e % 3;
                if e > k {
                    100 + (e - 1 - k)
                } else {
                    0
                }
            })
            .collect();
        assert_eq!(got, expected, "read pointer must advance and wrap");
        // The pointer visits every stage: the output sequence is not simply
        // the input delayed by a constant (which is all a stuck pointer can
        // produce when pushed every cycle).
        for lag in 1..=3u64 {
            let delayed: Vec<u64> =
                (0..12u64).map(|t| if t >= lag { 100 + t - lag } else { 0 }).collect();
            assert_ne!(got, delayed, "output must not be a fixed {lag}-cycle delay");
        }
    }

    #[test]
    fn handshake_fsm_feedback_is_legal() {
        let mut n = Netlist::new("fsm");
        let v = n.add_input("v", 1);
        let r = n.add_input("r", 1);
        let (fire, busy) = rv::add_handshake_fsm(&mut n, v, r, 4);
        n.add_output("fire", fire);
        n.add_output("busy", busy);
        assert!(n.validate().is_ok());
        assert!(n.combinational_order().is_some(), "feedback must go through the state register");
    }
}
