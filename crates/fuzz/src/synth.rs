//! Lowering a [`Scenario`] to a Lilac program.
//!
//! The synthesizer walks the scenario DAG, assigns every step its arrival
//! time, and emits Lilac commands via `lilac_ast::build`. Operands that
//! arrive earlier than an operation needs them are pushed through `Shift`
//! instances sized to the gap — the alignment discipline timeline types
//! enforce — so the emitted program type-checks by construction (unless the
//! scenario carries a [`Sabotage`], in which case exactly one operation is
//! scheduled off by one cycle and the program must be *rejected*).
//!
//! The program is assembled from the slice of the standard library the
//! generated modules actually reference, the generated sub-components, the
//! FloPoCo generator declarations when the scenario uses them (mirroring
//! `fpu.lilac`), and the `Top` component.

use crate::scenario::{classes, sub_latency, times, Cls, Sabotage, Scenario, Step, SubScenario};
use lilac_ast::build::{
    comp, comp_access, connect, data_port, for_loop, gen_comp, index, inst_access, inst_invoke,
    instantiate, invoke, let_bind, nat, out_param_bind, pbin, pvar, shift_bundle, time, SigBuilder,
};
use lilac_ast::{Access, BinOp, Cmd, CmpOp, Constraint, Module, ModuleKind, ParamExpr, Program};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// How long an output takes to appear.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Latency {
    /// Fixed number of cycles after `G`.
    Concrete(u64),
    /// The value of a `Top` output parameter, concrete only after
    /// elaboration (the generator block's `#LG`).
    OutParam(String),
}

/// One output port of the synthesized `Top`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SynthOutput {
    /// Port name (`o0`, `o1`, ... or `og`).
    pub name: String,
    /// Arrival time of the port's value.
    pub latency: Latency,
    /// Step backing the port, or `None` for the generator block's `og`.
    pub step: Option<usize>,
    /// Width of the port in bits (under the concrete elaboration width).
    pub width: u64,
}

/// The synthesized program plus everything the oracles need to drive it.
#[derive(Clone, Debug)]
pub struct Synthesized {
    /// The complete program (stdlib slice + generated modules + `Top`).
    pub program: Program,
    /// Name of the top component (`"Top"`).
    pub top: &'static str,
    /// Concrete width to elaborate with.
    pub width: u64,
    /// Input port names in order (`i0..`).
    pub inputs: Vec<String>,
    /// Output ports.
    pub outputs: Vec<SynthOutput>,
    /// Whether the program is expected to type-check (false iff sabotaged).
    pub expect_check_ok: bool,
}

fn stdlib() -> &'static Program {
    static STDLIB: OnceLock<Program> = OnceLock::new();
    STDLIB.get_or_init(|| lilac_designs::stdlib().expect("bundled stdlib parses"))
}

/// `t + e` with the constant folded away when possible.
fn offset(t: u64, e: Option<ParamExpr>) -> ParamExpr {
    match e {
        None => nat(t),
        Some(e) if t == 0 => e,
        Some(e) => pbin(BinOp::Add, nat(t), e),
    }
}

/// Collects every component name referenced by a module body or signature.
fn collect_refs(module: &Module, out: &mut BTreeSet<&'static str>) {
    fn walk_param(e: &ParamExpr, out: &mut BTreeSet<&'static str>) {
        match e {
            ParamExpr::CompAccess { comp, args, .. } => {
                out.insert(comp.as_str());
                for a in args {
                    walk_param(a, out);
                }
            }
            ParamExpr::Bin(_, a, b) => {
                walk_param(a, out);
                walk_param(b, out);
            }
            ParamExpr::Un(_, a) => walk_param(a, out),
            ParamExpr::Cond(c, a, b) => {
                walk_constraint(c, out);
                walk_param(a, out);
                walk_param(b, out);
            }
            ParamExpr::Nat(_) | ParamExpr::Param(_) | ParamExpr::InstAccess { .. } => {}
        }
    }
    fn walk_constraint(c: &Constraint, out: &mut BTreeSet<&'static str>) {
        match c {
            Constraint::Cmp(_, a, b) => {
                walk_param(a, out);
                walk_param(b, out);
            }
            Constraint::NonZero(a) => walk_param(a, out),
            Constraint::Not(c) => walk_constraint(c, out),
            Constraint::And(a, b) | Constraint::Or(a, b) => {
                walk_constraint(a, out);
                walk_constraint(b, out);
            }
            Constraint::True => {}
        }
    }
    fn walk_cmds(cmds: &[Cmd], out: &mut BTreeSet<&'static str>) {
        for cmd in cmds {
            match cmd {
                Cmd::Instantiate { comp, params, .. } | Cmd::InstInvoke { comp, params, .. } => {
                    out.insert(comp.as_str());
                    for p in params {
                        walk_param(p, out);
                    }
                }
                Cmd::Let { value, .. } | Cmd::OutParamBind { value, .. } => walk_param(value, out),
                Cmd::If { cond, then_body, else_body, .. } => {
                    walk_constraint(cond, out);
                    walk_cmds(then_body, out);
                    walk_cmds(else_body, out);
                }
                Cmd::For { start, end, body, .. } => {
                    walk_param(start, out);
                    walk_param(end, out);
                    walk_cmds(body, out);
                }
                _ => {}
            }
        }
    }
    if let ModuleKind::Comp { body } = &module.kind {
        walk_cmds(body, out);
    }
}

/// The slice of the standard library transitively referenced by `modules`.
fn stdlib_slice(modules: &[Module]) -> Vec<Module> {
    let lib = stdlib();
    let mut needed: BTreeSet<&'static str> = BTreeSet::new();
    for m in modules {
        collect_refs(m, &mut needed);
    }
    loop {
        let mut grew = false;
        for m in &lib.modules {
            if needed.contains(m.sig.name.as_str()) {
                let before = needed.len();
                collect_refs(m, &mut needed);
                grew |= needed.len() != before;
            }
        }
        if !grew {
            break;
        }
    }
    lib.modules.iter().filter(|m| needed.contains(m.sig.name.as_str())).cloned().collect()
}

/// Per-step synthesis state.
struct Emitter<'a> {
    scenario: &'a Scenario,
    cls: Vec<Cls>,
    time_of: Vec<u64>,
    /// Access + arrival time of every synthesized step result.
    signal: Vec<(Access, u64)>,
    body: Vec<Cmd>,
    /// Counter for alignment-shift instance names.
    aligns: usize,
}

impl<'a> Emitter<'a> {
    fn width_expr(&self, cls: Cls) -> ParamExpr {
        match cls {
            Cls::W => pvar("W"),
            Cls::One => nat(1),
        }
    }

    /// Returns an access to step `arg`'s value at exactly time `t`,
    /// inserting an alignment `Shift` when the value arrives earlier.
    fn aligned(&mut self, arg: usize, t: u64) -> Access {
        let (access, t_arg) = self.signal[arg].clone();
        if t_arg == t {
            return access;
        }
        assert!(t_arg < t, "alignment can only delay");
        let name = format!("al{}", self.aligns);
        self.aligns += 1;
        let w = self.width_expr(self.cls[arg]);
        self.body.push(inst_invoke(
            &name,
            "Shift",
            vec![w, nat(t - t_arg)],
            time("G", nat(t_arg)),
            vec![access],
        ));
        Access::port(&name, "out")
    }

    /// The schedule offset for step `i`, honoring sabotage.
    fn schedule(&self, i: usize, t: u64) -> u64 {
        match self.scenario.sabotage {
            Some(Sabotage::Late(s)) if s == i => t + 1,
            Some(Sabotage::Early(s)) if s == i => {
                if t == 0 {
                    t + 1
                } else {
                    t - 1
                }
            }
            _ => t,
        }
    }

    fn emit_step(&mut self, i: usize) {
        let step = self.scenario.steps[i].clone();
        let name = format!("s{i}");
        let w = self.width_expr(self.cls[i]);
        let (access, t) = match step {
            Step::Input(k) => (Access::var(&format!("i{k}")), 0),
            Step::Comb(op, a, b) => {
                let t = self.time_of[i];
                let sched = self.schedule(i, t);
                let (xa, xb) = (self.aligned(a, t), self.aligned(b, t));
                self.body.push(inst_invoke(
                    &name,
                    op.comp_name(),
                    vec![w],
                    time("G", nat(sched)),
                    vec![xa, xb],
                ));
                (Access::port(&name, "out"), t)
            }
            Step::Not(a) => {
                let t = self.time_of[i];
                let sched = self.schedule(i, t);
                let xa = self.aligned(a, t);
                self.body.push(inst_invoke(&name, "Not", vec![w], time("G", nat(sched)), vec![xa]));
                (Access::port(&name, "out"), t)
            }
            Step::Cmp(kind, a, b) => {
                let t = self.time_of[i];
                let sched = self.schedule(i, t);
                let wa = self.width_expr(self.cls[a]);
                let (xa, xb) = (self.aligned(a, t), self.aligned(b, t));
                self.body.push(inst_invoke(
                    &name,
                    kind.comp_name(),
                    vec![wa],
                    time("G", nat(sched)),
                    vec![xa, xb],
                ));
                (Access::port(&name, "out"), t)
            }
            Step::Mux { sel, a, b } => {
                let t = self.time_of[i];
                let sched = self.schedule(i, t);
                let (xs, xa, xb) = (self.aligned(sel, t), self.aligned(a, t), self.aligned(b, t));
                self.body.push(inst_invoke(
                    &name,
                    "Mux",
                    vec![w],
                    time("G", nat(sched)),
                    vec![xs, xa, xb],
                ));
                (Access::port(&name, "out"), t)
            }
            Step::Reg(a) => {
                let t_in = self.time_of[i] - 1;
                let sched = self.schedule(i, t_in);
                let xa = self.aligned(a, t_in);
                self.body.push(inst_invoke(&name, "Reg", vec![w], time("G", nat(sched)), vec![xa]));
                (Access::port(&name, "out"), self.time_of[i])
            }
            Step::Shift { arg, depth, inline } => {
                let t_in = self.time_of[i] - depth;
                let sched = self.schedule(i, t_in);
                let xa = self.aligned(arg, t_in);
                if inline {
                    // The Shift component's body, inlined with unique names:
                    // a bundle whose element #iv is alive in cycle
                    // sched+#iv, filled by a chain of registers.
                    let (bname, iv, kv, rname) =
                        (format!("w{i}"), format!("iv{i}"), format!("kv{i}"), format!("r{i}"));
                    self.body.push(shift_bundle(
                        &bname,
                        &iv,
                        nat(depth + 1),
                        "G",
                        nat(sched),
                        w.clone(),
                    ));
                    self.body.push(connect(index(Access::var(&bname), nat(0)), xa));
                    self.body.push(for_loop(
                        &kv,
                        nat(0),
                        nat(depth),
                        vec![
                            inst_invoke(
                                &rname,
                                "Reg",
                                vec![w],
                                time("G", offset(sched, Some(pvar(&kv)))),
                                vec![index(Access::var(&bname), pvar(&kv))],
                            ),
                            connect(
                                index(Access::var(&bname), pbin(BinOp::Add, pvar(&kv), nat(1))),
                                Access::port(&rname, "out"),
                            ),
                        ],
                    ));
                    (index(Access::var(&bname), nat(depth)), self.time_of[i])
                } else {
                    self.body.push(inst_invoke(
                        &name,
                        "Shift",
                        vec![w, nat(depth)],
                        time("G", nat(sched)),
                        vec![xa],
                    ));
                    (Access::port(&name, "out"), self.time_of[i])
                }
            }
            Step::SubComp { comp, args } => {
                let lat = sub_latency(&self.scenario.subs[comp]);
                let t_in = self.time_of[i] - lat;
                let sched = self.schedule(i, t_in);
                let xs: Vec<Access> = args.iter().map(|&a| self.aligned(a, t_in)).collect();
                self.body.push(inst_invoke(
                    &name,
                    &format!("Sub{comp}"),
                    vec![pvar("W")],
                    time("G", nat(sched)),
                    xs,
                ));
                (Access::port(&name, "o"), self.time_of[i])
            }
        };
        self.signal.push((access, t));
    }
}

/// Emits the body of a sub-component (concrete times, no sabotage, no
/// nested sub-components). Returns `(body, output_access, latency)`.
fn emit_sub(sub: &SubScenario, comp_index: usize) -> (Vec<Cmd>, Access, u64) {
    // Reuse the top-level emitter over a temporary scenario wrapper.
    let wrapper = Scenario {
        seed: 0,
        width: 0,
        n_inputs: sub.n_inputs,
        subs: vec![],
        steps: sub.steps.clone(),
        outputs: vec![sub.output],
        gen_block: None,
        sabotage: None,
        stimuli: vec![],
    };
    let cls = classes(&sub.steps);
    let time_of = times(&sub.steps, &[]);
    let mut em = Emitter {
        scenario: &wrapper,
        cls,
        time_of: time_of.clone(),
        signal: Vec::new(),
        body: Vec::new(),
        aligns: 1000 * (comp_index + 1), // distinct alignment names per module
    };
    for i in 0..sub.steps.len() {
        em.emit_step(i);
    }
    let (out_access, t) = em.signal[sub.output].clone();
    debug_assert_eq!(t, time_of[sub.output]);
    (em.body, out_access, t)
}

/// The FloPoCo generator declarations, mirroring `fpu.lilac`.
fn gen_decls() -> Vec<Module> {
    ["FPAdd", "FPMul"]
        .iter()
        .map(|name| {
            gen_comp(
                "flopoco",
                SigBuilder::new(name)
                    .param("W")
                    .event("G", nat(1))
                    .input(data_port("l", "G", nat(0), pvar("W")))
                    .input(data_port("r", "G", nat(0), pvar("W")))
                    .output(data_port("o", "G", pvar("L"), pvar("W")))
                    .out_param("L", vec![Constraint::gt(pvar("L"), nat(0))])
                    .build(),
            )
        })
        .collect()
}

/// Lowers a scenario to a complete program.
pub fn synthesize(scenario: &Scenario) -> Synthesized {
    let cls = classes(&scenario.steps);
    let sub_lat: Vec<u64> = scenario.subs.iter().map(sub_latency).collect();
    let time_of = times(&scenario.steps, &sub_lat);

    // Sub-component modules.
    let mut generated: Vec<Module> = Vec::new();
    for (k, sub) in scenario.subs.iter().enumerate() {
        let (body, out_access, lat) = emit_sub(sub, k);
        let mut sig = SigBuilder::new(&format!("Sub{k}"))
            .param("W")
            .event("G", nat(1))
            .where_clause(Constraint::Cmp(CmpOp::Ge, pvar("W"), nat(1)));
        for j in 0..sub.n_inputs {
            sig = sig.input(data_port(&format!("i{j}"), "G", nat(0), pvar("W")));
        }
        sig = sig.output(data_port("o", "G", nat(lat), pvar("W")));
        let mut body = body;
        body.push(connect(Access::var("o"), out_access));
        generated.push(comp(sig.build(), body));
    }

    // Top component body.
    let mut em = Emitter {
        scenario,
        cls: cls.clone(),
        time_of: time_of.clone(),
        signal: Vec::new(),
        body: Vec::new(),
        aligns: 0,
    };
    for i in 0..scenario.steps.len() {
        em.emit_step(i);
    }

    let mut outputs = Vec::new();
    let mut sig = SigBuilder::new("Top")
        .param("W")
        .event("G", nat(1))
        .where_clause(Constraint::Cmp(CmpOp::Ge, pvar("W"), nat(1)));
    let mut inputs = Vec::new();
    for k in 0..scenario.n_inputs {
        let name = format!("i{k}");
        sig = sig.input(data_port(&name, "G", nat(0), pvar("W")));
        inputs.push(name);
    }
    for (j, &step) in scenario.outputs.iter().enumerate() {
        let name = format!("o{j}");
        let (access, t) = em.signal[step].clone();
        let w = match cls[step] {
            Cls::W => pvar("W"),
            Cls::One => nat(1),
        };
        sig = sig.output(data_port(&name, "G", nat(t), w));
        em.body.push(connect(Access::var(&name), access));
        outputs.push(SynthOutput {
            name,
            latency: Latency::Concrete(t),
            step: Some(step),
            width: match cls[step] {
                Cls::W => scenario.width,
                Cls::One => 1,
            },
        });
    }

    // The generator block: FloPoCo adder + multiplier balanced with Max
    // and Shift, exported at the symbolic latency #LG (the fpu.lilac
    // idiom).
    if let Some((a, b)) = scenario.gen_block {
        let t = em.signal[a].1.max(em.signal[b].1);
        let (xa, xb) = (em.aligned(a, t), em.aligned(b, t));
        em.body.push(instantiate("GA", "FPAdd", vec![pvar("W")]));
        em.body.push(instantiate("GM", "FPMul", vec![pvar("W")]));
        em.body.push(invoke("ga", "GA", time("G", nat(t)), vec![xa.clone(), xb.clone()]));
        em.body.push(invoke("gm", "GM", time("G", nat(t)), vec![xa, xb]));
        em.body.push(let_bind(
            "MX",
            comp_access("Max", vec![inst_access("GA", "L"), inst_access("GM", "L")], "O"),
        ));
        em.body.push(inst_invoke(
            "gsa",
            "Shift",
            vec![pvar("W"), pbin(BinOp::Sub, pvar("MX"), inst_access("GA", "L"))],
            time("G", offset(t, Some(inst_access("GA", "L")))),
            vec![Access::port("ga", "o")],
        ));
        em.body.push(inst_invoke(
            "gsm",
            "Shift",
            vec![pvar("W"), pbin(BinOp::Sub, pvar("MX"), inst_access("GM", "L"))],
            time("G", offset(t, Some(inst_access("GM", "L")))),
            vec![Access::port("gm", "o")],
        ));
        em.body.push(inst_invoke(
            "gmix",
            "Xor",
            vec![pvar("W")],
            time("G", offset(t, Some(pvar("MX")))),
            vec![Access::port("gsa", "out"), Access::port("gsm", "out")],
        ));
        em.body.push(connect(Access::var("og"), Access::port("gmix", "out")));
        em.body.push(out_param_bind("LG", offset(t, Some(pvar("MX")))));
        sig = sig
            .output(lilac_ast::build::data_port("og", "G", pvar("LG"), pvar("W")))
            .out_param("LG", vec![]);
        outputs.push(SynthOutput {
            name: "og".to_string(),
            latency: Latency::OutParam("LG".to_string()),
            step: None,
            width: scenario.width,
        });
    }

    let top = comp(sig.build(), em.body);

    let mut modules: Vec<Module> = Vec::new();
    let mut to_slice = generated.clone();
    to_slice.push(top.clone());
    modules.extend(stdlib_slice(&to_slice));
    if scenario.gen_block.is_some() {
        modules.extend(gen_decls());
    }
    modules.extend(generated);
    modules.push(top);

    Synthesized {
        program: Program { modules },
        top: "Top",
        width: scenario.width,
        inputs,
        outputs,
        expect_check_ok: scenario.sabotage.is_none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate;
    use lilac_ast::printer::print_program;

    #[test]
    fn synthesized_programs_parse_back() {
        for seed in 0..30 {
            let s = generate(seed);
            let synth = synthesize(&s);
            let printed = print_program(&synth.program);
            let (reparsed, _) = lilac_ast::parse_program("fuzz.lilac", &printed)
                .unwrap_or_else(|e| panic!("seed {seed} does not re-parse: {e}\n{printed}"));
            assert_eq!(printed, print_program(&reparsed), "seed {seed}");
        }
    }

    #[test]
    fn clean_programs_type_check() {
        for seed in 0..20 {
            let s = generate(seed);
            if s.sabotage.is_some() {
                continue;
            }
            let synth = synthesize(&s);
            let report = lilac_core::check_program(&synth.program).unwrap_or_else(|e| {
                panic!("seed {seed} must check: {e:?}\n{}", print_program(&synth.program))
            });
            assert!(report.is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn sabotaged_programs_are_rejected() {
        let mut rejected = 0;
        let mut total = 0;
        for seed in 0..200 {
            let s = generate(seed);
            if s.sabotage.is_none() {
                continue;
            }
            total += 1;
            let synth = synthesize(&s);
            if lilac_core::check_program(&synth.program).is_err() {
                rejected += 1;
            }
        }
        assert!(total > 0);
        assert_eq!(rejected, total, "every sabotaged program must be rejected");
    }
}
