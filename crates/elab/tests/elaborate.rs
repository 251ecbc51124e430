//! End-to-end elaboration tests: parse → type-check → elaborate → simulate.

use lilac_ast::parse_program;
use lilac_core::check_program;
use lilac_elab::{elaborate, elaborate_module, ElabConfig};
use lilac_gen::{GenGoals, GeneratorRegistry};
use lilac_sim::Simulator;
use std::collections::BTreeMap;

const STDLIB: &str = r#"
extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);
extern comp Mux[#W]<G:1>(sel: [G, G+1] 1, a: [G, G+1] #W, b: [G, G+1] #W) -> (out: [G, G+1] #W);
extern comp Add[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W) -> (out: [G, G+1] #W);
comp Max[#A, #B]<G:1>() -> () with { some #O where #O >= #A, #O >= #B; } {
    #O := #A > #B ? #A : #B;
}
comp Shift[#W, #N]<G:1>(in: [G, G+1] #W) -> (out: [G+#N, G+#N+1] #W) {
    bundle<#i> w[#N+1]: [G+#i, G+#i+1] #W;
    w{0} = in;
    out = w{#N};
    for #k in 0..#N {
        r := new Reg[#W]<G+#k>(w{#k});
        w{#k+1} = r.out;
    }
}
gen "flopoco" comp FPAdd[#W]<G:1>(l: [G, G+1] #W, r: [G, G+1] #W)
    -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };
gen "flopoco" comp FPMul[#W]<G:1>(l: [G, G+1] #W, r: [G, G+1] #W)
    -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };
"#;

const FPU: &str = r#"
comp FPU[#W]<G:1>(op: [G, G+1] 1, l: [G, G+1] #W, r: [G, G+1] #W)
    -> (o: [G+#L, G+#L+1] #W) with { some #L; } {
    Add := new FPAdd[#W];
    Mul := new FPMul[#W];
    add := Add<G>(l, r);
    mul := Mul<G>(l, r);
    let #Max = Max[Add::#L, Mul::#L]::#O;
    sa := new Shift[#W, #Max - Add::#L]<G + Add::#L>(add.o);
    sm := new Shift[#W, #Max - Mul::#L]<G + Mul::#L>(mul.o);
    so := new Shift[1, #Max]<G>(op);
    mx := new Mux[#W]<G + #Max>(so.out, sa.out, sm.out);
    o = mx.out;
    #L := #Max;
}
"#;

fn params(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

#[test]
fn shift_register_elaborates_to_n_registers() {
    let (prog, _) = parse_program("t.lilac", STDLIB).unwrap();
    for n in [0u64, 1, 3, 8] {
        let netlist =
            elaborate(&prog, "Shift", &params(&[("W", 16), ("N", n)]), &ElabConfig::default())
                .unwrap();
        assert_eq!(netlist.sequential_count() as u64, n, "Shift[{n}]");
        // Functional spot-check: after driving 1, 2, 3, ... the output equals
        // the value driven n cycles earlier (zero while the pipe fills).
        let mut sim = Simulator::new(&netlist).unwrap();
        for v in 1..=(n + 3) {
            sim.set_input("in", v);
            sim.step();
            assert_eq!(
                sim.output("out"),
                v.saturating_sub(n.saturating_sub(1)),
                "Shift[{n}] at cycle {v}"
            );
        }
    }
}

#[test]
fn shift_register_delays_values() {
    let (prog, _) = parse_program("t.lilac", STDLIB).unwrap();
    let netlist =
        elaborate(&prog, "Shift", &params(&[("W", 16), ("N", 3)]), &ElabConfig::default()).unwrap();
    let mut sim = Simulator::new(&netlist).unwrap();
    let mut outs = Vec::new();
    for v in 1..=8u64 {
        sim.set_input("in", v);
        sim.step();
        outs.push(sim.output("out"));
    }
    assert_eq!(outs, vec![0, 0, 1, 2, 3, 4, 5, 6]);
}

#[test]
fn fpu_elaborates_and_adapts_to_generator_goals() {
    let src = format!("{STDLIB}\n{FPU}");
    let (prog, _) = parse_program("fpu.lilac", &src).unwrap();
    // The design type-checks for all parameterizations.
    check_program(&prog).unwrap();

    // Low-frequency goals: FloPoCo produces single-cycle cores (Table 1's
    // A=1, M=1 configuration).
    let mut slow_reg = GeneratorRegistry::with_builtin_tools();
    slow_reg.set_default_goals(GenGoals { target_mhz: 100, ..GenGoals::default() });
    let slow =
        elaborate_module(&prog, "FPU", &params(&[("W", 32)]), &ElabConfig::with_registry(slow_reg))
            .unwrap();
    assert_eq!(slow.out_params.get("L"), Some(&1));

    // High-frequency goals: deeper pipelines (A=4, M=2) — the same Lilac
    // source adapts without modification.
    let mut fast_reg = GeneratorRegistry::with_builtin_tools();
    fast_reg.set_default_goals(GenGoals { target_mhz: 280, ..GenGoals::default() });
    let fast =
        elaborate_module(&prog, "FPU", &params(&[("W", 32)]), &ElabConfig::with_registry(fast_reg))
            .unwrap();
    assert_eq!(fast.out_params.get("L"), Some(&4));
    assert!(fast.netlist.sequential_count() > slow.netlist.sequential_count());
}

#[test]
fn elaborated_fpu_is_functionally_correct() {
    let src = format!("{STDLIB}\n{FPU}");
    let (prog, _) = parse_program("fpu.lilac", &src).unwrap();
    let mut reg = GeneratorRegistry::with_builtin_tools();
    reg.set_default_goals(GenGoals { target_mhz: 280, ..GenGoals::default() });
    let module =
        elaborate_module(&prog, "FPU", &params(&[("W", 32)]), &ElabConfig::with_registry(reg))
            .unwrap();
    let latency = module.out_params["L"] as usize;
    let mut sim = Simulator::new(&module.netlist).unwrap();

    // Issue a new operation every cycle (fully pipelined), check results
    // `latency` cycles later.
    let ops: Vec<(u64, u64, u64)> =
        vec![(3, 5, 1), (3, 5, 0), (10, 4, 1), (10, 4, 0), (9, 9, 0), (100, 23, 1)];
    let expected: Vec<u64> =
        ops.iter().map(|&(a, b, op)| if op == 1 { a + b } else { a * b }).collect();
    let mut results = Vec::new();
    for cycle in 0..(ops.len() + latency - 1) {
        let (a, b, op) = ops.get(cycle).copied().unwrap_or((0, 0, 0));
        sim.set_input("l", a);
        sim.set_input("r", b);
        sim.set_input("op", op);
        sim.step();
        if cycle + 1 >= latency {
            results.push(sim.output("o"));
        }
    }
    assert_eq!(results, expected);
}

#[test]
fn divider_wrapper_selects_by_bitwidth() {
    // Figure 9d: the wrapper picks an implementation based on #W and
    // re-exports its latency.
    let src = r#"
    gen "vivado" comp LutMult[#W]<G:1>(n: [G, G+1] #W, d: [G, G+1] #W)
        -> (q: [G+8, G+9] #W) where #W < 12;
    gen "vivado" comp HighRad[#W]<G:1>(n: [G, G+1] #W, d: [G, G+1] #W)
        -> (q: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };
    comp DivWrap[#W]<G:1>(n: [G, G+1] #W, d: [G, G+1] #W)
        -> (q: [G+#L, G+#L+1] #W) with { some #L where #L > 0; } {
        if #W < 12 {
            dv := new LutMult[#W]<G>(n, d);
            q = dv.q;
            #L := 8;
        } else {
            dv := new HighRad[#W]<G>(n, d);
            q = dv.q;
            #L := dv::#L;
        }
    }
    "#;
    let (prog, _) = parse_program("div.lilac", src).unwrap();
    let narrow =
        elaborate_module(&prog, "DivWrap", &params(&[("W", 8)]), &ElabConfig::default()).unwrap();
    assert_eq!(narrow.out_params.get("L"), Some(&8));
    let wide =
        elaborate_module(&prog, "DivWrap", &params(&[("W", 32)]), &ElabConfig::default()).unwrap();
    assert_eq!(wide.out_params.get("L"), Some(&20));

    // Functional check on the wide divider: q = n / d after L cycles.
    let mut sim = Simulator::new(&wide.netlist).unwrap();
    sim.set_input("n", 91);
    sim.set_input("d", 7);
    for _ in 0..20 {
        sim.step();
    }
    assert_eq!(sim.output("q"), 13);
}

#[test]
fn failed_assert_and_missing_params_are_errors() {
    let src = r#"
    comp A[#N]<G:1>(i: [G, G+1] 8) -> (o: [G, G+1] 8) {
        assert #N > 4;
        o = i;
    }
    "#;
    let (prog, _) = parse_program("a.lilac", src).unwrap();
    let err = elaborate(&prog, "A", &params(&[("N", 2)]), &ElabConfig::default()).unwrap_err();
    assert!(err.to_string().contains("assertion failed"), "{err}");
    let err = elaborate(&prog, "A", &params(&[]), &ElabConfig::default()).unwrap_err();
    assert!(err.to_string().contains("missing value"), "{err}");
    let err = elaborate(&prog, "Missing", &params(&[]), &ElabConfig::default()).unwrap_err();
    assert!(err.to_string().contains("unknown component"), "{err}");
}

#[test]
fn undriven_output_is_an_elaboration_error() {
    let src = r#"
    comp NoDrive[#W]<G:1>(i: [G, G+1] #W) -> (o: [G, G+1] #W) {
    }
    "#;
    let (prog, _) = parse_program("n.lilac", src).unwrap();
    let err =
        elaborate(&prog, "NoDrive", &params(&[("W", 8)]), &ElabConfig::default()).unwrap_err();
    assert!(err.to_string().contains("never driven"), "{err}");
}

#[test]
fn ill_width_instance_input_is_an_elaboration_error() {
    // The checker does not prove widths, so this program checks; the
    // 4-bit driver into `Reg[1]`'s 1-bit input must then be a positioned
    // elaboration error rather than a panic inside `Netlist::inline`.
    let src = r#"
    extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);
    comp Top[#W]<G:1>(a: [G, G+1] #W) -> (o: [G+1, G+2] #W) { r := new Reg[1]<G>(a); o = r.out; }
    "#;
    let (prog, _) = parse_program("w.lilac", src).unwrap();
    check_program(&prog).unwrap();
    let err = elaborate(&prog, "Top", &params(&[("W", 4)]), &ElabConfig::default()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("`in`") && msg.contains("4-bit") && msg.contains("1 bit"), "{msg}");
}

#[test]
fn verilog_emission_of_elaborated_design() {
    let src = format!("{STDLIB}\n{FPU}");
    let (prog, _) = parse_program("fpu.lilac", &src).unwrap();
    let netlist = elaborate(&prog, "FPU", &params(&[("W", 32)]), &ElabConfig::default()).unwrap();
    let verilog = lilac_ir::emit_verilog(&netlist);
    assert!(verilog.contains("module FPU"));
    assert!(verilog.contains("input [31:0] l;"));
    assert!(verilog.contains("assign o ="));
}

#[test]
fn retime_hook_improves_critical_path_and_preserves_behaviour() {
    // An unbalanced pipeline: two chained adders, then an empty two-deep
    // shift register. Retiming pulls a register back into the adder chain,
    // shortening the estimated critical path without changing latency.
    let src = format!(
        "{STDLIB}\n{}",
        r#"
    comp Unb[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W, c: [G, G+1] #W)
        -> (o: [G+2, G+3] #W) {
        x := new Add[#W]<G>(a, b);
        y := new Add[#W]<G>(x.out, c);
        s := new Shift[#W, 2]<G>(y.out);
        o = s.out;
    }
    "#
    );
    let (prog, _) = parse_program("unb.lilac", &src).unwrap();
    check_program(&prog).unwrap();
    let raw = elaborate(&prog, "Unb", &params(&[("W", 32)]), &ElabConfig::default()).unwrap();
    let ret = lilac_opt::retime(&raw);
    assert!(
        lilac_synth::critical_path_ns(&ret) < lilac_synth::critical_path_ns(&raw),
        "retiming hook must shorten the unbalanced pipeline's critical path: {} vs {} ns",
        lilac_synth::critical_path_ns(&raw),
        lilac_synth::critical_path_ns(&ret)
    );
    // Latency is exactly preserved, ports are interface.
    assert_eq!(raw.output_min_latencies(), ret.output_min_latencies());
    assert_eq!(raw.inputs, ret.inputs);
    // Cycle-exact equivalence on a handful of stimuli.
    let mut sim_raw = Simulator::new(&raw).unwrap();
    let mut sim_ret = Simulator::new(&ret).unwrap();
    for cycle in 0..32u64 {
        for sim in [&mut sim_raw, &mut sim_ret] {
            sim.set_input("a", cycle * 3 + 1);
            sim.set_input("b", cycle * 5 + 2);
            sim.set_input("c", cycle * 7 + 3);
        }
        assert_eq!(sim_raw.peek("o"), sim_ret.peek("o"), "cycle {cycle}");
        sim_raw.step();
        sim_ret.step();
    }
}

#[test]
fn optimize_hook_shrinks_the_netlist_and_preserves_behaviour() {
    // A deliberately redundant component: two identical adders, each behind
    // its own shift-register chain — CSE merges the duplicated datapaths and
    // delay fusion collapses the register chains.
    let src = format!(
        "{STDLIB}\n{}",
        r#"
    comp Red[#W]<G:1>(a: [G, G+1] #W, b: [G, G+1] #W) -> (o: [G+2, G+3] #W) {
        x := new Add[#W]<G>(a, b);
        y := new Add[#W]<G>(a, b);
        s := new Shift[#W, 2]<G>(x.out);
        t := new Shift[#W, 2]<G>(y.out);
        z := new Add[#W]<G+2>(s.out, t.out);
        o = z.out;
    }
    "#
    );
    let (prog, _) = parse_program("red.lilac", &src).unwrap();
    check_program(&prog).unwrap();
    let raw = elaborate(&prog, "Red", &params(&[("W", 16)]), &ElabConfig::default()).unwrap();
    let opt = lilac_opt::optimize(&raw);
    assert!(
        opt.node_count() < raw.node_count(),
        "optimizer hook must shrink the redundant design: {} -> {}",
        raw.node_count(),
        opt.node_count()
    );
    assert!(opt.sequential_count() < raw.sequential_count());
    // Ports are interface: untouched by optimization.
    assert_eq!(raw.inputs, opt.inputs);
    // Cycle-exact equivalence on a handful of stimuli.
    let mut sim_raw = Simulator::new(&raw).unwrap();
    let mut sim_opt = Simulator::new(&opt).unwrap();
    for cycle in 0..24u64 {
        for sim in [&mut sim_raw, &mut sim_opt] {
            sim.set_input("a", cycle * 3 + 1);
            sim.set_input("b", cycle * 5 + 2);
        }
        assert_eq!(sim_raw.peek("o"), sim_opt.peek("o"), "cycle {cycle}");
        sim_raw.step();
        sim_opt.step();
    }
}
