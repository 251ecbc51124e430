//! Verilog emission.
//!
//! Renders a [`Netlist`] as a single synthesizable Verilog module. Pipelined
//! cores are emitted as behavioural shift-register pipelines (a stand-in for
//! the encrypted or generated IP the paper links against); everything else
//! maps directly onto always blocks and continuous assignments.
//!
//! # Cycle-exactness
//!
//! The emitted module is cycle-for-cycle equivalent to the `lilac-sim`
//! interpretation of the same netlist: a node with
//! [`pipeline_depth`](crate::NodeKind::pipeline_depth) `L` is rendered as
//! exactly `L` chained registers (an `L == 0` node is a continuous assign),
//! state is reset-less and assumed to power up at zero, and arithmetic is
//! two-state (division by zero yields 0). The `lilac-vsim` crate parses this
//! exact subset back and the fuzzer's fifth oracle holds the two simulations
//! to bit-identical outputs on every cycle.

use crate::netlist::{Netlist, NodeId, NodeKind, PipeOp};
use lilac_util::hash::FxHashSet;
use std::fmt::Write;

fn wire(id: NodeId) -> String {
    format!("n{}", id.0)
}

/// The IEEE 1364-2001 reserved words (plus `logic`, reserved in
/// SystemVerilog), all of which must never be used as identifiers.
/// `crates/vsim`'s parser rejects the same list (kept in sync by
/// `crates/vsim/tests/golden.rs`), so a keyword leaking through emission is
/// caught by the fuzzer's Verilog oracle rather than by a downstream tool.
pub const VERILOG_KEYWORDS: &[&str] = &[
    "always",
    "and",
    "assign",
    "automatic",
    "begin",
    "buf",
    "bufif0",
    "bufif1",
    "case",
    "casex",
    "casez",
    "cell",
    "cmos",
    "config",
    "deassign",
    "default",
    "defparam",
    "design",
    "disable",
    "edge",
    "else",
    "end",
    "endcase",
    "endconfig",
    "endfunction",
    "endgenerate",
    "endmodule",
    "endprimitive",
    "endspecify",
    "endtable",
    "endtask",
    "event",
    "for",
    "force",
    "forever",
    "fork",
    "function",
    "generate",
    "genvar",
    "highz0",
    "highz1",
    "if",
    "ifnone",
    "incdir",
    "include",
    "initial",
    "inout",
    "input",
    "instance",
    "integer",
    "join",
    "large",
    "liblist",
    "library",
    "localparam",
    "logic",
    "macromodule",
    "medium",
    "module",
    "nand",
    "negedge",
    "nmos",
    "nor",
    "noshowcancelled",
    "not",
    "notif0",
    "notif1",
    "or",
    "output",
    "parameter",
    "pmos",
    "posedge",
    "primitive",
    "pull0",
    "pull1",
    "pulldown",
    "pullup",
    "pulsestyle_ondetect",
    "pulsestyle_onevent",
    "rcmos",
    "real",
    "realtime",
    "reg",
    "release",
    "repeat",
    "rnmos",
    "rpmos",
    "rtran",
    "rtranif0",
    "rtranif1",
    "scalared",
    "showcancelled",
    "signed",
    "small",
    "specify",
    "specparam",
    "strong0",
    "strong1",
    "supply0",
    "supply1",
    "table",
    "task",
    "time",
    "tran",
    "tranif0",
    "tranif1",
    "tri",
    "tri0",
    "tri1",
    "triand",
    "trior",
    "trireg",
    "unsigned",
    "use",
    "vectored",
    "wait",
    "wand",
    "weak0",
    "weak1",
    "while",
    "wire",
    "wor",
    "xnor",
    "xor",
];

/// True for names the emitter itself generates for internal nets: `n<k>`
/// and the `n<k>_sr` shift arrays. Port names must stay out of this
/// namespace.
fn is_internal_net_name(name: &str) -> bool {
    let Some(rest) = name.strip_prefix('n') else { return false };
    let digits_end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    if digits_end == 0 {
        return false;
    }
    matches!(&rest[digits_end..], "" | "_sr")
}

/// Replaces characters that are illegal in a Verilog identifier and guards
/// against a leading digit. The result is legal but not necessarily unique
/// or keyword-free; [`unique_name`] layers that on top.
fn sanitize(name: &str) -> String {
    let mut out: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Sanitizes `name` and disambiguates it against keywords, the emitter's
/// internal net namespace, and every name already in `used`. Distinct
/// source names that collide after character replacement (`a+b` and `a-b`
/// both sanitize to `a_b`) get deterministic `_2`, `_3`, ... suffixes.
fn unique_name(name: &str, used: &mut FxHashSet<String>) -> String {
    let base = sanitize(name);
    let illegal = |s: &str| VERILOG_KEYWORDS.contains(&s) || is_internal_net_name(s);
    let mut candidate = base.clone();
    let mut k = 1;
    while illegal(&candidate) || used.contains(&candidate) {
        k += 1;
        candidate = format!("{base}_{k}");
    }
    used.insert(candidate.clone());
    candidate
}

/// Emits `netlist` as Verilog source text.
///
/// The module has an implicit `clk` input; sequential primitives are clocked
/// on its positive edge. Port names are sanitized into legal, unique Verilog
/// identifiers (in declaration order: inputs first, then outputs), so a port
/// named `reg` or two ports that collide after character replacement still
/// produce a legal module.
pub fn emit_verilog(netlist: &Netlist) -> String {
    let mut out = String::new();
    // Port name table: inputs by index, then outputs by position.
    let mut used: FxHashSet<String> = FxHashSet::from_iter(["clk".to_string()]);
    let input_names: Vec<String> =
        netlist.inputs.iter().map(|p| unique_name(&p.name, &mut used)).collect();
    let output_names: Vec<String> =
        netlist.outputs.iter().map(|(p, _)| unique_name(&p.name, &mut used)).collect();

    let mut ports: Vec<String> = vec!["clk".to_string()];
    ports.extend(input_names.iter().cloned());
    ports.extend(output_names.iter().cloned());
    writeln!(out, "// Generated by the Lilac reproduction compiler").unwrap();
    writeln!(out, "module {}({});", module_name(&netlist.name), ports.join(", ")).unwrap();
    writeln!(out, "  input clk;").unwrap();
    for (p, name) in netlist.inputs.iter().zip(&input_names) {
        writeln!(out, "  input [{}:0] {};", p.width - 1, name).unwrap();
    }
    for ((p, _), name) in netlist.outputs.iter().zip(&output_names) {
        writeln!(out, "  output [{}:0] {};", p.width - 1, name).unwrap();
    }
    // Wire declarations.
    for (id, node) in netlist.iter() {
        match node.kind {
            NodeKind::Input(_) => {}
            _ => {
                let storage = if node.kind.is_sequential() { "reg" } else { "wire" };
                writeln!(out, "  {storage} [{}:0] {}; // {}", node.width - 1, wire(id), node.name)
                    .unwrap();
            }
        }
    }

    let operand = |id: NodeId| -> String {
        let node = netlist.node(id);
        match &node.kind {
            NodeKind::Input(idx) => input_names[*idx].clone(),
            _ => wire(id),
        }
    };

    let mut seq = String::new();
    for (id, node) in netlist.iter() {
        let w = wire(id);
        match &node.kind {
            NodeKind::Input(_) => {}
            NodeKind::Const(v) => {
                writeln!(out, "  assign {w} = {}'d{v};", node.width).unwrap();
            }
            NodeKind::Reg => {
                writeln!(seq, "    {w} <= {};", operand(node.inputs[0])).unwrap();
            }
            NodeKind::RegEn => {
                writeln!(
                    seq,
                    "    if ({}) {w} <= {};",
                    operand(node.inputs[1]),
                    operand(node.inputs[0])
                )
                .unwrap();
            }
            NodeKind::Delay(n) => {
                // A delay line of exactly `n` registers: `n - 1` shift stages
                // in an unpacked array feeding the output register, so a value
                // presented at the input appears at the output `n` cycles
                // later (the off-by-one of emitting the array *and* an output
                // register was the historical bug the vsim oracle caught).
                emit_shift_chain(&mut out, &mut seq, &w, node.width, *n, &operand(node.inputs[0]));
            }
            NodeKind::Add => emit_binop(&mut out, &w, "+", node, &operand),
            NodeKind::Sub => emit_binop(&mut out, &w, "-", node, &operand),
            NodeKind::Mul => emit_binop(&mut out, &w, "*", node, &operand),
            NodeKind::And => emit_binop(&mut out, &w, "&", node, &operand),
            NodeKind::Or => emit_binop(&mut out, &w, "|", node, &operand),
            NodeKind::Xor => emit_binop(&mut out, &w, "^", node, &operand),
            NodeKind::Eq => emit_binop(&mut out, &w, "==", node, &operand),
            NodeKind::Lt => emit_binop(&mut out, &w, "<", node, &operand),
            NodeKind::Not => {
                writeln!(out, "  assign {w} = ~{};", operand(node.inputs[0])).unwrap();
            }
            NodeKind::Mux => {
                writeln!(
                    out,
                    "  assign {w} = {} ? {} : {};",
                    operand(node.inputs[0]),
                    operand(node.inputs[1]),
                    operand(node.inputs[2])
                )
                .unwrap();
            }
            NodeKind::Slice { lo } => {
                writeln!(
                    out,
                    "  assign {w} = {}[{}:{}];",
                    operand(node.inputs[0]),
                    lo + node.width - 1,
                    lo
                )
                .unwrap();
            }
            NodeKind::Concat => {
                let parts: Vec<String> = node.inputs.iter().map(|&i| operand(i)).collect();
                writeln!(out, "  assign {w} = {{{}}};", parts.join(", ")).unwrap();
            }
            NodeKind::PipelinedOp { op, latency, ii } => {
                let comb = pipeline_comb_expr(*op, node, &operand);
                writeln!(out, "  // {} core: latency {latency}, II {ii}", op.mnemonic()).unwrap();
                emit_shift_chain(&mut out, &mut seq, &w, node.width, *latency, &comb);
            }
        }
    }
    if !seq.is_empty() {
        writeln!(out, "  always @(posedge clk) begin").unwrap();
        out.push_str(&seq);
        writeln!(out, "  end").unwrap();
    }
    // Outputs go through `operand` too: an output driven directly by a
    // module input must reference the (sanitized) port, not a nonexistent
    // internal net — a divergence the vsim oracle caught on its first run.
    for ((_, id), name) in netlist.outputs.iter().zip(&output_names) {
        writeln!(out, "  assign {} = {};", name, operand(*id)).unwrap();
    }
    writeln!(out, "endmodule").unwrap();
    out
}

/// Renders `depth` chained registers from the combinational expression
/// `input` into the net `w`:
///
/// * `depth == 0` — a continuous assign (combinational passthrough, per the
///   [`pipeline_depth`](crate::NodeKind::pipeline_depth) contract);
/// * `depth == 1` — `w` itself is the single register (no degenerate
///   `[0:0]` array);
/// * `depth >= 2` — `depth - 1` array stages plus the output register.
fn emit_shift_chain(
    out: &mut String,
    seq: &mut String,
    w: &str,
    width: u32,
    depth: u32,
    input: &str,
) {
    match depth {
        0 => writeln!(out, "  assign {w} = {input};").unwrap(),
        1 => writeln!(seq, "    {w} <= {input};").unwrap(),
        _ => {
            writeln!(out, "  reg [{}:0] {w}_sr [0:{}];", width - 1, depth - 2).unwrap();
            writeln!(seq, "    {w}_sr[0] <= {input};").unwrap();
            for k in 1..depth - 1 {
                writeln!(seq, "    {w}_sr[{k}] <= {w}_sr[{}];", k - 1).unwrap();
            }
            writeln!(seq, "    {w} <= {w}_sr[{}];", depth - 2).unwrap();
        }
    }
}

fn module_name(name: &str) -> String {
    let mut used = FxHashSet::default();
    unique_name(name, &mut used)
}

fn emit_binop(
    out: &mut String,
    w: &str,
    op: &str,
    node: &crate::netlist::Node,
    operand: &impl Fn(NodeId) -> String,
) {
    writeln!(out, "  assign {w} = {} {op} {};", operand(node.inputs[0]), operand(node.inputs[1]))
        .unwrap();
}

fn pipeline_comb_expr(
    op: PipeOp,
    node: &crate::netlist::Node,
    operand: &impl Fn(NodeId) -> String,
) -> String {
    let ins: Vec<String> = node.inputs.iter().map(|&i| operand(i)).collect();
    match op {
        PipeOp::FAdd => format!("{} + {}", ins[0], ins[1]),
        PipeOp::FMul | PipeOp::IntMul => format!("{} * {}", ins[0], ins[1]),
        PipeOp::Div => format!("{} / {}", ins[0], ins[1]),
        PipeOp::Mac => {
            if ins.len() >= 3 {
                format!("{} * {} + {}", ins[0], ins[1], ins[2])
            } else {
                format!("{} * {}", ins[0], ins[1])
            }
        }
        PipeOp::Conv { .. } | PipeOp::Fft { .. } => {
            // Behavioural stand-in: sum of the inputs.
            ins.join(" + ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Netlist, NodeKind, PipeOp};

    #[test]
    fn emits_structurally_complete_verilog() {
        let mut n = Netlist::new("fpu-top");
        let a = n.add_input("a", 32);
        let b = n.add_input("b", 32);
        let sel = n.add_input("op", 1);
        let add = n.add_node(
            NodeKind::PipelinedOp { op: PipeOp::FAdd, latency: 2, ii: 1 },
            vec![a, b],
            32,
            "fadd",
        );
        let mul = n.add_node(
            NodeKind::PipelinedOp { op: PipeOp::FMul, latency: 4, ii: 1 },
            vec![a, b],
            32,
            "fmul",
        );
        let add_d = n.add_node(NodeKind::Delay(2), vec![add], 32, "add_delay");
        let sel_d = n.add_node(NodeKind::Delay(4), vec![sel], 1, "op_delay");
        let out = n.add_node(NodeKind::Mux, vec![sel_d, add_d, mul], 32, "out_mux");
        n.add_output("o", out);
        assert!(n.validate().is_ok());

        let v = emit_verilog(&n);
        assert!(v.contains("module fpu_top(clk, a, b, op, o);"));
        assert!(v.contains("input [31:0] a;"));
        assert!(v.contains("output [31:0] o;"));
        assert!(v.contains("always @(posedge clk)"));
        assert!(v.contains("fadd core: latency 2, II 1"));
        assert!(v.contains("assign o ="));
        // Balanced module/endmodule.
        assert_eq!(v.matches("module ").count(), 1 + v.matches("endmodule").count() - 1);
    }

    #[test]
    fn combinational_only_module_has_no_always_block() {
        let mut n = Netlist::new("mux");
        let s = n.add_input("s", 1);
        let a = n.add_input("a", 8);
        let b = n.add_input("b", 8);
        let m = n.add_node(NodeKind::Mux, vec![s, a, b], 8, "m");
        n.add_output("o", m);
        let v = emit_verilog(&n);
        assert!(!v.contains("always"));
        assert!(v.contains("assign n3 = s ? a : b;"));
    }

    #[test]
    fn constants_and_logic_render() {
        let mut n = Netlist::new("logic");
        let a = n.add_input("a", 4);
        let c = n.add_const(5, 4);
        let x = n.add_node(NodeKind::Xor, vec![a, c], 4, "x");
        let eq = n.add_node(NodeKind::Eq, vec![x, c], 1, "eq");
        let not = n.add_node(NodeKind::Not, vec![eq], 1, "ne");
        n.add_output("o", not);
        let v = emit_verilog(&n);
        assert!(v.contains("assign n1 = 4'd5;"));
        assert!(v.contains("^"));
        assert!(v.contains("=="));
        assert!(v.contains("~"));
    }

    #[test]
    fn delay_line_has_exactly_n_registers() {
        // Delay(n) must be n registers end to end: n - 1 array stages plus
        // the output register. The old emission had an extra output stage.
        let mut n = Netlist::new("delay3");
        let i = n.add_input("i", 8);
        let d = n.add_node(NodeKind::Delay(3), vec![i], 8, "d");
        n.add_output("o", d);
        let v = emit_verilog(&n);
        assert!(v.contains("reg [7:0] n1_sr [0:1];"), "{v}");
        assert!(v.contains("n1_sr[0] <= i;"), "{v}");
        assert!(v.contains("n1_sr[1] <= n1_sr[0];"), "{v}");
        assert!(v.contains("n1 <= n1_sr[1];"), "{v}");
    }

    #[test]
    fn delay_one_and_zero_have_no_degenerate_array() {
        let mut n = Netlist::new("delays");
        let i = n.add_input("i", 8);
        let d1 = n.add_node(NodeKind::Delay(1), vec![i], 8, "d1");
        let d0 = n.add_node(NodeKind::Delay(0), vec![i], 8, "d0");
        n.add_output("o1", d1);
        n.add_output("o0", d0);
        let v = emit_verilog(&n);
        assert!(!v.contains("_sr"), "no shift array for Delay(0)/Delay(1):\n{v}");
        assert!(v.contains("n1 <= i;"), "{v}");
        // Delay(0) is a combinational passthrough on a wire.
        assert!(v.contains("wire [7:0] n2;"), "{v}");
        assert!(v.contains("assign n2 = i;"), "{v}");
    }

    #[test]
    fn zero_latency_core_is_combinational() {
        let mut n = Netlist::new("comb_core");
        let a = n.add_input("a", 16);
        let b = n.add_input("b", 16);
        let c = n.add_node(
            NodeKind::PipelinedOp { op: PipeOp::FMul, latency: 0, ii: 1 },
            vec![a, b],
            16,
            "core",
        );
        n.add_output("o", c);
        let v = emit_verilog(&n);
        assert!(!v.contains("always"), "{v}");
        assert!(v.contains("wire [15:0] n2;"), "{v}");
        assert!(v.contains("assign n2 = a * b;"), "{v}");
    }

    #[test]
    fn full_reserved_word_list_is_escaped() {
        // Not just `reg`/`wire`: the whole IEEE 1364-2001 set, including the
        // words with no role in the emitted subset (`fork`, `edge`, ...).
        for kw in ["fork", "edge", "event", "wand", "wait", "table", "release"] {
            let mut n = Netlist::new("m");
            let i = n.add_input(kw, 8);
            n.add_output("o", i);
            let v = emit_verilog(&n);
            assert!(v.contains(&format!("input [7:0] {kw}_2;")), "`{kw}` must be escaped:\n{v}");
            assert!(!v.contains(&format!(" {kw};")), "`{kw}` must not survive:\n{v}");
        }
    }

    #[test]
    fn sanitize_escapes_keywords_and_resolves_collisions() {
        let mut n = Netlist::new("module");
        let r = n.add_input("reg", 8);
        let a = n.add_input("a+b", 8);
        let b = n.add_input("a-b", 8);
        let sum = n.add_node(NodeKind::Add, vec![a, b], 8, "sum");
        let x = n.add_node(NodeKind::Xor, vec![sum, r], 8, "x");
        n.add_output("wire", x);
        let v = emit_verilog(&n);
        // Keywords are suffixed, colliding sanitizations are numbered.
        assert!(v.contains("module module_2(clk, reg_2, a_b, a_b_2, wire_2);"), "{v}");
        assert!(v.contains("input [7:0] reg_2;"), "{v}");
        assert!(v.contains("input [7:0] a_b;"), "{v}");
        assert!(v.contains("input [7:0] a_b_2;"), "{v}");
        assert!(v.contains("output [7:0] wire_2;"), "{v}");
        assert!(v.contains("assign n3 = a_b + a_b_2;"), "{v}");
        // No raw keyword identifier survives anywhere.
        for line in v.lines() {
            assert!(!line.contains(" reg;") && !line.contains(" wire;"), "{line}");
        }
    }

    #[test]
    fn sanitize_avoids_internal_net_namespace() {
        // A port literally named like an internal net must not alias it.
        let mut n = Netlist::new("alias");
        let a = n.add_input("n1", 8);
        let r = n.add_node(NodeKind::Reg, vec![a], 8, "r");
        n.add_output("o", r);
        let v = emit_verilog(&n);
        assert!(v.contains("input [7:0] n1_2;"), "{v}");
        assert!(v.contains("n1 <= n1_2;"), "{v}");
        assert!(is_internal_net_name("n1"));
        assert!(is_internal_net_name("n23_sr"));
        assert!(!is_internal_net_name("n0_pipe"), "no `_pipe` nets are emitted");
        assert!(!is_internal_net_name("n"));
        assert!(!is_internal_net_name("next"));
        assert!(!is_internal_net_name("n1_x"));
    }
}
