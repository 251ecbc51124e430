//! Two-phase cycle-accurate evaluation of a parsed [`Design`].
//!
//! Mirrors `lilac-sim`'s semantics so the two simulators can be compared
//! output-for-output, cycle-for-cycle:
//!
//! * **Phase 1 (settle)** — continuous assignments are evaluated in
//!   topological order from the current inputs and register state;
//! * **Phase 2 (clock edge)** — every nonblocking assignment samples its
//!   right-hand side (and `if` guard), then all targets commit at once.
//!
//! The value model is two-state and 64-bit: every net holds an unsigned
//! integer masked to its declared width, all state powers up at zero (the
//! reset-less convention of the emitted modules), and division by zero
//! yields 0. There are no `x`/`z` values — the oracle compares against an
//! interpreter that has none either.

use crate::design::{BinOp, Design, Expr, NetKind, SeqStmt, SeqTarget};
use lilac_ir::FxHashMap;
// The one canonical width mask, shared with `lilac-sim` and the optimizer's
// constant folder so the three width semantics cannot drift.
use lilac_ir::mask;

/// A cycle-accurate interpreter for a parsed Verilog module.
///
/// The API deliberately parallels `lilac_sim::Simulator`: set inputs for the
/// upcoming cycle, [`peek`](VSimulator::peek) combinational outputs, and
/// [`step`](VSimulator::step) across the clock edge.
#[derive(Clone, Debug)]
pub struct VSimulator {
    design: Design,
    /// Scalar net values (ports, wires, regs), masked to width.
    values: FxHashMap<String, u64>,
    /// Unpacked-array contents.
    arrays: FxHashMap<String, Vec<u64>>,
    /// Indices into `design.assigns` in dependency order.
    order: Vec<usize>,
    /// True when `values` may be stale: set by `set_input`/`step`, cleared
    /// by `settle`, so repeated `peek`s between edges are O(1).
    dirty: bool,
    cycle: u64,
}

impl VSimulator {
    /// Builds a simulator.
    ///
    /// # Errors
    ///
    /// Returns an error if the design fails validation, a net is driven by
    /// two continuous assignments, or the assignments form a combinational
    /// cycle.
    pub fn new(design: &Design) -> Result<VSimulator, String> {
        design.validate()?;
        let order = assign_order(design)?;
        let mut values = FxHashMap::default();
        let mut arrays = FxHashMap::default();
        for net in design.nets.values() {
            match net.array {
                Some(depth) => {
                    arrays.insert(net.name.clone(), vec![0u64; depth as usize]);
                }
                None => {
                    values.insert(net.name.clone(), 0u64);
                }
            }
        }
        Ok(VSimulator { design: design.clone(), values, arrays, order, dirty: true, cycle: 0 })
    }

    /// Sets a named input for the upcoming cycle (the clock is not an
    /// input — it is implied by [`step`](VSimulator::step)).
    ///
    /// # Panics
    ///
    /// Panics if the input does not exist.
    pub fn set_input(&mut self, name: &str, value: u64) {
        let port = self
            .design
            .inputs
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no input named `{name}` in `{}`", self.design.name));
        let masked = mask(value, port.width);
        self.values.insert(port.name.clone(), masked);
        self.dirty = true;
    }

    /// Evaluates the continuous assignments for this cycle and then advances
    /// every register across one clock edge.
    pub fn step(&mut self) {
        self.settle();
        // Sample every RHS (and guard) before committing anything: that is
        // what makes the assignments nonblocking. `staged` indexes into the
        // statement list rather than cloning expression trees — this runs
        // once per simulated cycle on the fuzzer's hot path.
        let staged: Vec<(usize, u64)> = self
            .design
            .seq
            .iter()
            .enumerate()
            .filter_map(|(k, SeqStmt { guard, rhs, .. })| {
                let env = Env { design: &self.design, values: &self.values, arrays: &self.arrays };
                let enabled = guard.as_ref().is_none_or(|g| env.eval(g) != 0);
                enabled.then(|| (k, env.eval(rhs)))
            })
            .collect();
        for (k, value) in staged {
            match &self.design.seq[k].target {
                SeqTarget::Net(name) => {
                    let width = self.design.nets[name].width;
                    *self.values.get_mut(name).expect("validated reg") = mask(value, width);
                }
                SeqTarget::ArrayElem(name, idx) => {
                    let width = self.design.nets[name].width;
                    self.arrays.get_mut(name).expect("validated array")[*idx as usize] =
                        mask(value, width);
                }
            }
        }
        self.dirty = true;
        self.cycle += 1;
    }

    /// Settles combinational logic and returns the value of a named output
    /// (or any scalar net).
    ///
    /// # Panics
    ///
    /// Panics if the net does not exist.
    pub fn peek(&mut self, name: &str) -> u64 {
        self.settle();
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("no net named `{name}` in `{}`", self.design.name))
    }

    /// Current cycle count (number of `step` calls so far).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Input port names in declaration order (clock excluded).
    pub fn input_names(&self) -> Vec<String> {
        self.design.inputs.iter().map(|p| p.name.clone()).collect()
    }

    /// Output port names in declaration order.
    pub fn output_names(&self) -> Vec<String> {
        self.design.outputs.iter().map(|p| p.name.clone()).collect()
    }

    /// Returns to the zero power-up state: every net and array element
    /// zero, cycle count zero — exactly as a freshly built simulator.
    pub fn reset(&mut self) {
        for v in self.values.values_mut() {
            *v = 0;
        }
        for arr in self.arrays.values_mut() {
            arr.fill(0);
        }
        self.cycle = 0;
        self.dirty = true;
    }

    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        for k in 0..self.order.len() {
            let (target, rhs) = &self.design.assigns[self.order[k]];
            let width = self.design.nets[target].width;
            let env = Env { design: &self.design, values: &self.values, arrays: &self.arrays };
            let v = mask(env.eval(rhs), width);
            // Every scalar net was seeded in `new`, so this never allocates.
            *self.values.get_mut(target.as_str()).expect("seeded net") = v;
        }
    }
}

/// The unified backend contract: differential harnesses drive the Verilog
/// evaluator through the same trait as the interpreter and the compiled
/// tape. Output lookups are restricted to declared output ports (unlike
/// [`peek`](VSimulator::peek), which reads any scalar net).
impl lilac_sim::SimBackend for VSimulator {
    fn try_set_input(&mut self, name: &str, value: u64) -> Result<(), lilac_sim::PortError> {
        let port = self.design.inputs.iter().find(|p| p.name == name).ok_or_else(|| {
            lilac_sim::PortError::new(
                &self.design.name,
                lilac_sim::PortDir::Input,
                name,
                self.input_names(),
            )
        })?;
        let masked = mask(value, port.width);
        self.values.insert(port.name.clone(), masked);
        self.dirty = true;
        Ok(())
    }

    fn try_output(&mut self, name: &str) -> Result<u64, lilac_sim::PortError> {
        if !self.design.outputs.iter().any(|p| p.name == name) {
            return Err(lilac_sim::PortError::new(
                &self.design.name,
                lilac_sim::PortDir::Output,
                name,
                self.output_names(),
            ));
        }
        Ok(self.peek(name))
    }

    fn step(&mut self) {
        VSimulator::step(self);
    }

    fn reset(&mut self) {
        VSimulator::reset(self);
    }

    fn cycle(&self) -> u64 {
        VSimulator::cycle(self)
    }

    fn input_names(&self) -> Vec<String> {
        VSimulator::input_names(self)
    }

    fn output_names(&self) -> Vec<String> {
        VSimulator::output_names(self)
    }
}

/// Read-only view used during expression evaluation, so `settle`/`step` can
/// mutate `values`/`arrays` between evaluations without cloning the design.
struct Env<'a> {
    design: &'a Design,
    values: &'a FxHashMap<String, u64>,
    arrays: &'a FxHashMap<String, Vec<u64>>,
}

impl Env<'_> {
    fn eval(&self, e: &Expr) -> u64 {
        match e {
            Expr::Const { width, value } => mask(*value, *width),
            Expr::Net(n) => self.values[n],
            Expr::ArrayElem(n, i) => self.arrays[n][*i as usize],
            // The `lo >= 64` guard mirrors `NodeKind::comb_value`'s Slice
            // rule: a select past bit 63 reads constant 0.
            Expr::Select { net, hi, lo } => {
                let v = if *lo >= 64 { 0 } else { self.values[net] >> lo };
                mask(v, hi - lo + 1)
            }
            // Raw complement: the assignment target's mask truncates, which
            // is both what `lilac-sim` does (`!v` masked to the node width)
            // and what Verilog does after zero-extending the operand to the
            // assignment context.
            Expr::Not(a) => !self.eval(a),
            Expr::Binary(op, a, b) => {
                let (x, y) = (self.eval(a), self.eval(b));
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => x.checked_div(y).unwrap_or(0),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Eq => (x == y) as u64,
                    BinOp::Lt => (x < y) as u64,
                }
            }
            Expr::Ternary(c, a, b) => {
                if self.eval(c) != 0 {
                    self.eval(a)
                } else {
                    self.eval(b)
                }
            }
            Expr::Concat(parts) => {
                let mut acc = 0u64;
                for p in parts {
                    // Mirror `NodeKind::comb_value`: a 64-bit part fills the
                    // accumulator outright (`acc << 64` would overflow).
                    let w = self.design.expr_width(p);
                    let v = mask(self.eval(p), w);
                    acc = if w >= 64 { v } else { (acc << w) | v };
                }
                acc
            }
        }
    }
}

/// Orders the continuous assignments so every wire is computed before it is
/// read by another assignment. Register state, array elements, and inputs
/// are cycle boundaries, not dependencies.
///
/// # Errors
///
/// Returns an error on a doubly-driven net or a combinational cycle.
fn assign_order(design: &Design) -> Result<Vec<usize>, String> {
    let n = design.assigns.len();
    let mut driver: FxHashMap<&str, usize> = FxHashMap::default();
    for (i, (target, _)) in design.assigns.iter().enumerate() {
        if driver.insert(target.as_str(), i).is_some() {
            return Err(format!("net `{target}` driven by two continuous assignments"));
        }
        if design.nets.get(target).map(|d| d.kind) == Some(NetKind::Reg) {
            return Err(format!("continuous assign to reg `{target}`"));
        }
    }
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, (_, rhs)) in design.assigns.iter().enumerate() {
        let mut reads = Vec::new();
        collect_reads(rhs, &mut reads);
        for name in reads {
            if let Some(&j) = driver.get(name.as_str()) {
                dependents[j].push(i);
                indegree[i] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(d);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(format!("combinational cycle through the assignments of `{}`", design.name))
    }
}

/// Collects every scalar net read by an expression (array reads are state,
/// not combinational dependencies — only `assign`-driven scalars matter, and
/// the caller filters by driver).
fn collect_reads(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Const { .. } | Expr::ArrayElem(..) => {}
        Expr::Net(n) => out.push(n.clone()),
        Expr::Select { net, .. } => out.push(net.clone()),
        Expr::Not(a) => collect_reads(a, out),
        Expr::Binary(_, a, b) => {
            collect_reads(a, out);
            collect_reads(b, out);
        }
        Expr::Ternary(c, a, b) => {
            collect_reads(c, out);
            collect_reads(a, out);
            collect_reads(b, out);
        }
        Expr::Concat(parts) => {
            for p in parts {
                collect_reads(p, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_design;

    fn sim(src: &str) -> VSimulator {
        VSimulator::new(&parse_design(src).unwrap()).unwrap()
    }

    #[test]
    fn register_delays_by_one_cycle() {
        let mut s = sim("module r(clk, i, o);\n input clk;\n input [7:0] i;\n\
                         output [7:0] o;\n reg [7:0] n1;\n\
                         always @(posedge clk) begin\n n1 <= i;\n end\n\
                         assign o = n1;\nendmodule\n");
        s.set_input("i", 7);
        assert_eq!(s.peek("o"), 0);
        s.step();
        assert_eq!(s.peek("o"), 7);
        s.set_input("i", 9);
        assert_eq!(s.peek("o"), 7, "nonblocking: new input not visible until the edge");
        s.step();
        assert_eq!(s.peek("o"), 9);
        assert_eq!(s.cycle(), 2);
    }

    #[test]
    fn shift_array_is_nonblocking() {
        // All three stages shift simultaneously; a blocking evaluation would
        // collapse the pipe.
        let mut s = sim("module d(clk, i, o);\n input clk;\n input [3:0] i;\n\
                         output [3:0] o;\n reg [3:0] sr [0:1];\n reg [3:0] n1;\n\
                         always @(posedge clk) begin\n sr[0] <= i;\n sr[1] <= sr[0];\n\
                         n1 <= sr[1];\n end\n assign o = n1;\nendmodule\n");
        let mut outs = Vec::new();
        for v in 1..=6u64 {
            s.set_input("i", v);
            s.step();
            outs.push(s.peek("o"));
        }
        assert_eq!(outs, vec![0, 0, 1, 2, 3, 4], "three registers end to end");
    }

    #[test]
    fn assigns_settle_in_dependency_order_regardless_of_source_order() {
        // `o` reads n2 which reads n1; declared in reverse order.
        let mut s = sim("module c(clk, a, o);\n input clk;\n input [7:0] a;\n\
                         output [7:0] o;\n wire [7:0] n1;\n wire [7:0] n2;\n\
                         assign n2 = n1 + 8'd1;\n assign n1 = a + 8'd1;\n\
                         assign o = n2;\nendmodule\n");
        s.set_input("a", 5);
        assert_eq!(s.peek("o"), 7);
    }

    #[test]
    fn combinational_cycle_is_rejected() {
        let err = VSimulator::new(
            &parse_design(
                "module l(clk, o);\n input clk;\n output [7:0] o;\n wire [7:0] n1;\n\
                 wire [7:0] n2;\n assign n1 = n2;\n assign n2 = n1;\n assign o = n1;\nendmodule\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("combinational cycle"), "{err}");
    }

    #[test]
    fn width_masking_and_two_state_division() {
        let mut s = sim("module m(clk, a, b, s, q, r);\n input clk;\n input [3:0] a;\n\
                         input [3:0] b;\n output [3:0] s;\n output [3:0] q;\n\
                         input [0:0] r;\n wire [3:0] n2;\n wire [3:0] n3;\n\
                         assign n2 = a + b;\n assign n3 = a / b;\n\
                         assign s = n2;\n assign q = n3;\nendmodule\n");
        s.set_input("a", 12);
        s.set_input("b", 7);
        assert_eq!(s.peek("s"), (12 + 7) & 0xF);
        assert_eq!(s.peek("q"), 12 / 7);
        s.set_input("b", 0);
        assert_eq!(s.peek("q"), 0, "division by zero is 0 in the two-state model");
    }

    #[test]
    fn guarded_register_holds_value() {
        let mut s = sim("module g(clk, d, en, q);\n input clk;\n input [7:0] d;\n\
                         input [0:0] en;\n output [7:0] q;\n reg [7:0] n2;\n\
                         always @(posedge clk) begin\n if (en) n2 <= d;\n end\n\
                         assign q = n2;\nendmodule\n");
        s.set_input("d", 5);
        s.set_input("en", 1);
        s.step();
        assert_eq!(s.peek("q"), 5);
        s.set_input("d", 99);
        s.set_input("en", 0);
        s.step();
        assert_eq!(s.peek("q"), 5, "disabled register must hold");
        s.set_input("en", 1);
        s.step();
        assert_eq!(s.peek("q"), 99);
    }

    #[test]
    fn concat_select_and_ternary() {
        let mut s = sim("module x(clk, a, b, s, o, hi);\n input clk;\n input [3:0] a;\n\
                         input [3:0] b;\n input [0:0] s;\n output [7:0] o;\n\
                         output [1:0] hi;\n wire [7:0] n3;\n wire [7:0] n4;\n\
                         wire [1:0] n5;\n assign n3 = {a, b};\n\
                         assign n4 = s ? n3 : 8'd0;\n assign n5 = n3[7:6];\n\
                         assign o = n4;\n assign hi = n5;\nendmodule\n");
        s.set_input("a", 0b1010);
        s.set_input("b", 0b0011);
        s.set_input("s", 1);
        assert_eq!(s.peek("o"), 0b1010_0011, "first concat element is most significant");
        assert_eq!(s.peek("hi"), 0b10);
        s.set_input("s", 0);
        assert_eq!(s.peek("o"), 0);
    }

    #[test]
    fn doubly_driven_net_is_rejected() {
        let err = VSimulator::new(
            &parse_design(
                "module dd(clk, a, o);\n input clk;\n input [7:0] a;\n output [7:0] o;\n\
                 wire [7:0] n1;\n assign n1 = a;\n assign n1 = a;\n assign o = n1;\nendmodule\n",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("two continuous assignments"), "{err}");
    }
}
