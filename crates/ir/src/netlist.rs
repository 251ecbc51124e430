//! Flat netlists of hardware primitives.

use lilac_util::define_index;
use lilac_util::hash::FxHashMap;
use lilac_util::idx::IndexVec;

define_index!(NodeId, "n");

/// Masks `value` to `width` bits (`width >= 64` passes through).
///
/// This is **the** canonical bit-mask of the workspace. Every consumer that
/// narrows a value to a declared width — the netlist simulator
/// (`lilac-sim`), the Verilog-subset simulator (`lilac-vsim`), the fuzzer's
/// scenario interpreter, and the optimizer's constant folder — goes through
/// this one function, so their width semantics cannot drift apart.
#[inline]
pub fn mask(value: u64, width: u32) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Functional model of a pipelined core's datapath: the combinational value
/// the core computes before its `latency`-deep output pipe (shared by the
/// cycle-accurate simulator and the constant folder, so "fold" and
/// "simulate" are the same function by construction).
///
/// Missing operands read as 0; the caller masks the result to the node
/// width.
pub fn pipe_value(op: PipeOp, operands: &[u64]) -> u64 {
    let get = |i: usize| operands.get(i).copied().unwrap_or(0);
    match op {
        PipeOp::FAdd => get(0).wrapping_add(get(1)),
        PipeOp::FMul | PipeOp::IntMul => get(0).wrapping_mul(get(1)),
        PipeOp::Div => get(0).checked_div(get(1)).unwrap_or(0),
        PipeOp::Mac => get(0).wrapping_mul(get(1)).wrapping_add(get(2)),
        // The convolution and FFT cores are modelled as a sum of their lanes;
        // the GBP evaluation only relies on their latency/II behaviour.
        PipeOp::Conv { .. } | PipeOp::Fft { .. } => {
            operands.iter().fold(0u64, |a, &b| a.wrapping_add(b))
        }
    }
}

/// Operations implemented by externally generated pipelined cores.
///
/// These stand in for the modules produced by FloPoCo, Vivado IP, Aetherling,
/// XLS, Spiral, and PipelineC: a fixed-function datapath with a known
/// latency and initiation interval. The simulator gives them a functional
/// model (integer arithmetic pushed through a delay line) and the synthesis
/// model charges them area according to the operation and bit width.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PipeOp {
    /// Floating-point (or fixed-point) addition core.
    FAdd,
    /// Floating-point (or fixed-point) multiplication core.
    FMul,
    /// Integer multiplier core.
    IntMul,
    /// Divider core.
    Div,
    /// A 4×4 convolution core that accepts `par` elements per cycle.
    Conv {
        /// Elements accepted per transaction.
        par: u32,
    },
    /// A streaming FFT butterfly stage.
    Fft {
        /// Number of points.
        points: u32,
    },
    /// A dot-product / MAC core (used by the BLAS designs).
    Mac,
}

impl PipeOp {
    /// Short mnemonic used in node names and Verilog comments.
    pub fn mnemonic(self) -> &'static str {
        match self {
            PipeOp::FAdd => "fadd",
            PipeOp::FMul => "fmul",
            PipeOp::IntMul => "imul",
            PipeOp::Div => "div",
            PipeOp::Conv { .. } => "conv",
            PipeOp::Fft { .. } => "fft",
            PipeOp::Mac => "mac",
        }
    }
}

/// A primitive node. Every node produces exactly one output value of
/// [`Node::width`] bits.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// A module input; the payload is the index into [`Netlist::inputs`].
    Input(usize),
    /// A constant value.
    Const(u64),
    /// A single-cycle register.
    Reg,
    /// A register with a synchronous enable (second input, 1 bit).
    RegEn,
    /// An `n`-cycle delay line (equivalent to `n` chained registers).
    /// `Delay(0)` is a combinational passthrough — see
    /// [`NodeKind::pipeline_depth`].
    Delay(u32),
    /// Integer addition (two inputs).
    Add,
    /// Integer subtraction (two inputs).
    Sub,
    /// Combinational integer multiplication (two inputs).
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT (one input).
    Not,
    /// Equality comparison (two inputs, 1-bit result).
    Eq,
    /// Unsigned less-than comparison (two inputs, 1-bit result).
    Lt,
    /// Two-way multiplexer: inputs are `[sel, a, b]`, output is `a` when
    /// `sel` is non-zero and `b` otherwise.
    Mux,
    /// Slice `[lo, lo+width)` of the single input.
    Slice {
        /// Low bit index.
        lo: u32,
    },
    /// Concatenation of all inputs (first input is most significant).
    Concat,
    /// An externally generated pipelined core with the given latency and
    /// initiation interval. A `latency` of 0 makes the core combinational —
    /// see [`NodeKind::pipeline_depth`].
    PipelinedOp {
        /// Operation implemented by the core.
        op: PipeOp,
        /// Cycles from input to output.
        latency: u32,
        /// Minimum cycles between accepted inputs.
        ii: u32,
    },
}

impl NodeKind {
    /// Number of clocked stages between the node's operands and its output.
    ///
    /// This is **the** zero-latency contract shared by every consumer of the
    /// IR: the cycle-accurate simulator (`lilac-sim`), the Verilog backend
    /// ([`crate::emit_verilog`]), and the in-repo Verilog simulator
    /// (`lilac-vsim`) all derive their sequential behaviour from this one
    /// number. In particular, `Delay(0)` and `PipelinedOp { latency: 0, .. }`
    /// have depth 0 and are *combinational passthroughs*: their output equals
    /// the (functionally evaluated) operands in the same cycle, they
    /// contribute no registers, and a feedback loop through them is a
    /// combinational cycle.
    pub fn pipeline_depth(&self) -> u32 {
        match self {
            NodeKind::Reg | NodeKind::RegEn => 1,
            NodeKind::Delay(n) => *n,
            NodeKind::PipelinedOp { latency, .. } => *latency,
            _ => 0,
        }
    }

    /// True if the node holds state across clock cycles (i.e. its
    /// [`pipeline_depth`](NodeKind::pipeline_depth) is non-zero).
    pub fn is_sequential(&self) -> bool {
        self.pipeline_depth() > 0
    }

    /// The combinational function of this node over concrete operand values,
    /// masked to `width` — or `None` for inputs and state-holding nodes,
    /// whose value is not a function of this cycle's operands.
    ///
    /// `operands` pairs each operand's value with that operand's width; the
    /// values must already be masked to their widths (as the simulator's
    /// value vector and [`Netlist::eval_const`] guarantee). This is the one
    /// evaluation semantics shared by `lilac-sim` and the optimizer's
    /// constant folder: folding a node and simulating it are the same
    /// computation by construction.
    ///
    /// # Panics
    ///
    /// Panics if `operands` is shorter than the node kind's arity (validate
    /// the netlist first).
    pub fn comb_value(&self, operands: &[(u64, u32)], width: u32) -> Option<u64> {
        let v = |i: usize| operands[i].0;
        let raw = match self {
            NodeKind::Input(_) | NodeKind::Reg | NodeKind::RegEn => return None,
            NodeKind::Const(c) => *c,
            // Per the `pipeline_depth` contract, depth-0 nodes pass their
            // (functionally evaluated) operands straight through.
            NodeKind::Delay(0) => v(0),
            NodeKind::Delay(_) => return None,
            NodeKind::PipelinedOp { op, latency: 0, .. } => {
                // Stack buffer keeps the simulator's hot loop allocation-free
                // (no core takes anywhere near 16 operands; the Vec fallback
                // is for pathological hand-built netlists only).
                let mut buf = [0u64; 16];
                if operands.len() <= buf.len() {
                    for (slot, operand) in buf.iter_mut().zip(operands) {
                        *slot = operand.0;
                    }
                    pipe_value(*op, &buf[..operands.len()])
                } else {
                    let vals: Vec<u64> = operands.iter().map(|o| o.0).collect();
                    pipe_value(*op, &vals)
                }
            }
            NodeKind::PipelinedOp { .. } => return None,
            NodeKind::Add => v(0).wrapping_add(v(1)),
            NodeKind::Sub => v(0).wrapping_sub(v(1)),
            NodeKind::Mul => v(0).wrapping_mul(v(1)),
            NodeKind::And => v(0) & v(1),
            NodeKind::Or => v(0) | v(1),
            NodeKind::Xor => v(0) ^ v(1),
            NodeKind::Not => !v(0),
            NodeKind::Eq => (v(0) == v(1)) as u64,
            NodeKind::Lt => (v(0) < v(1)) as u64,
            NodeKind::Mux => {
                if v(0) != 0 {
                    v(1)
                } else {
                    v(2)
                }
            }
            // `lo >= 64` reads past any representable operand: constant 0
            // (a plain `>>` would overflow the shift at the width-64 edge).
            NodeKind::Slice { lo } => {
                if *lo >= 64 {
                    0
                } else {
                    v(0) >> lo
                }
            }
            NodeKind::Concat => {
                let mut acc = 0u64;
                for &(value, w) in operands {
                    // A 64-bit-wide operand fills the accumulator outright;
                    // `acc << 64` would overflow the shift. Anything already
                    // accumulated sits above bit 63 and is truncated by the
                    // result mask regardless.
                    acc = if w >= 64 { mask(value, w) } else { (acc << w) | mask(value, w) };
                }
                acc
            }
        };
        Some(mask(raw, width))
    }
}

/// Per-node result of [`Netlist::combinational_slack`]: the lengths (in
/// combinational nodes) of the longest purely combinational paths ending at
/// and leaving a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CombSlack {
    /// Combinational nodes on the longest combinational path ending at this
    /// node, counting the node itself when it is combinational.
    pub depth_in: u32,
    /// Combinational nodes on the longest combinational path leaving this
    /// node, not counting the node itself.
    pub depth_out: u32,
}

/// A node in a netlist.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Node {
    /// The primitive operation.
    pub kind: NodeKind,
    /// Input connections, in operand order.
    pub inputs: Vec<NodeId>,
    /// Output bit width.
    pub width: u32,
    /// A debug name (instance path from elaboration).
    pub name: String,
}

/// A named module input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PortDecl {
    /// Port name.
    pub name: String,
    /// Bit width.
    pub width: u32,
}

/// A flat netlist: primitive nodes plus named inputs and outputs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Netlist {
    /// Module name.
    pub name: String,
    /// Declared inputs.
    pub inputs: Vec<PortDecl>,
    /// Declared outputs and the nodes that drive them.
    pub outputs: Vec<(PortDecl, NodeId)>,
    nodes: IndexVec<NodeId, Node>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            nodes: IndexVec::new(),
        }
    }

    /// Declares a module input and returns the node representing it.
    pub fn add_input(&mut self, name: impl Into<String>, width: u32) -> NodeId {
        let name = name.into();
        let index = self.inputs.len();
        self.inputs.push(PortDecl { name: name.clone(), width });
        self.nodes.push(Node { kind: NodeKind::Input(index), inputs: Vec::new(), width, name })
    }

    /// Adds a node.
    pub fn add_node(
        &mut self,
        kind: NodeKind,
        inputs: Vec<NodeId>,
        width: u32,
        name: impl Into<String>,
    ) -> NodeId {
        self.nodes.push(Node { kind, inputs, width, name: name.into() })
    }

    /// Adds a constant node. The value is masked to `width` at construction:
    /// a `Const` must always fit its declared width, because the simulator
    /// masks at evaluation while the Verilog backend emits the stored value
    /// as a sized literal verbatim — an oversized value would make the two
    /// disagree. [`Netlist::validate`] rejects oversized constants built by
    /// other means.
    pub fn add_const(&mut self, value: u64, width: u32) -> NodeId {
        let value = mask(value, width);
        self.add_node(NodeKind::Const(value), Vec::new(), width, format!("const_{value}"))
    }

    /// Declares a module output driven by `node`.
    pub fn add_output(&mut self, name: impl Into<String>, node: NodeId) {
        let width = self.nodes[node].width;
        self.outputs.push((PortDecl { name: name.into(), width }, node));
    }

    /// Returns the node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Replaces the operand list of an existing node. Used to close feedback
    /// loops (counters, FSM state registers) after the downstream
    /// combinational logic has been created.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_inputs(&mut self, id: NodeId, inputs: Vec<NodeId>) {
        self.nodes[id].inputs = inputs;
    }

    /// Drops trailing nodes nothing references any more, keeping the first
    /// `len`. This is the inverse of a run of [`Netlist::add_node`] calls
    /// once every edge and output driver into the dropped nodes has been
    /// rewired back (the retimer's undo); the caller is responsible for
    /// that, and [`Netlist::validate`] reports any dangling reference.
    /// Has no effect if `len` is not less than [`Netlist::node_count`].
    pub fn truncate_nodes(&mut self, len: usize) {
        self.nodes.truncate(len);
    }

    /// Mutable access to a node: the in-place rewrite primitive the
    /// optimizer's passes (`lilac-opt`) are built on. The caller is
    /// responsible for re-establishing the invariants [`Netlist::validate`]
    /// checks (operand arity, widths, constants fitting their widths).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Rewrites every operand edge and every output driver through `f`.
    /// `f` is applied once per edge (not transitively), so callers replacing
    /// chains of nodes must resolve their replacement map first.
    pub fn remap_operands(&mut self, f: impl Fn(NodeId) -> NodeId) {
        for node in self.nodes.iter_mut() {
            for input in &mut node.inputs {
                *input = f(*input);
            }
        }
        for (_, driver) in &mut self.outputs {
            *driver = f(*driver);
        }
    }

    /// Removes every node not marked live, compacting ids and rewriting all
    /// operand edges and output drivers. [`NodeKind::Input`] nodes are
    /// always retained regardless of `live` — ports are part of the module
    /// interface, and [`Netlist::inputs`] indices must stay valid. Returns
    /// the number of nodes removed.
    ///
    /// # Panics
    ///
    /// Panics if `live.len() != self.node_count()`, or if a retained node
    /// (or output) references a removed one — liveness must be closed under
    /// the operand relation before sweeping.
    pub fn retain_live(&mut self, live: &[bool]) -> usize {
        assert_eq!(live.len(), self.nodes.len(), "liveness vector length mismatch");
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut kept: IndexVec<NodeId, Node> = IndexVec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter_enumerated() {
            if live[id.0 as usize] || matches!(node.kind, NodeKind::Input(_)) {
                remap[id.0 as usize] = Some(kept.push(node.clone()));
            }
        }
        let removed = self.nodes.len() - kept.len();
        let resolve = |id: NodeId, what: &str| {
            remap[id.0 as usize]
                .unwrap_or_else(|| panic!("retain_live: {what} references removed node {id}"))
        };
        for node in kept.iter_mut() {
            for input in &mut node.inputs {
                *input = resolve(*input, "a live node");
            }
        }
        for (port, driver) in &mut self.outputs {
            *driver = resolve(*driver, &format!("output `{}`", port.name));
        }
        self.nodes = kept;
        removed
    }

    /// The compile-time-constant value of a node, if it has one: a `Const`
    /// node's (masked) value, or the value of a combinational node all of
    /// whose operands are `Const` nodes, evaluated through
    /// [`NodeKind::comb_value`] — the same function the simulator uses, so
    /// constant folding cannot diverge from simulation.
    pub fn eval_const(&self, id: NodeId) -> Option<u64> {
        let node = &self.nodes[id];
        if let NodeKind::Const(v) = node.kind {
            return Some(mask(v, node.width));
        }
        let mut operands = Vec::with_capacity(node.inputs.len());
        for &input in &node.inputs {
            let op = &self.nodes[input];
            match op.kind {
                NodeKind::Const(v) => operands.push((mask(v, op.width), op.width)),
                _ => return None,
            }
        }
        node.kind.comb_value(&operands, node.width)
    }

    /// Renames the module.
    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter_enumerated()
    }

    /// Number of nodes (including inputs).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of sequential (state-holding) nodes.
    pub fn sequential_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_sequential()).count()
    }

    /// Looks up the node driving a named output.
    pub fn output(&self, name: &str) -> Option<NodeId> {
        self.outputs.iter().find(|(p, _)| p.name == name).map(|(_, id)| *id)
    }

    /// Looks up an input node by name.
    pub fn input(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter_enumerated().find_map(|(id, n)| match &n.kind {
            NodeKind::Input(idx) if self.inputs[*idx].name == name => Some(id),
            _ => None,
        })
    }

    /// Checks structural invariants: input references in range, operand
    /// counts consistent with the node kinds, outputs driven by existing
    /// nodes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (id, node) in self.nodes.iter_enumerated() {
            for &input in &node.inputs {
                if input.0 as usize >= self.nodes.len() {
                    return Err(format!("node {id} ({}) reads missing node {input}", node.name));
                }
            }
            let arity: Option<usize> = match &node.kind {
                NodeKind::Input(_) | NodeKind::Const(_) => Some(0),
                NodeKind::Reg | NodeKind::Delay(_) | NodeKind::Not | NodeKind::Slice { .. } => {
                    Some(1)
                }
                NodeKind::RegEn => Some(2),
                NodeKind::Add
                | NodeKind::Sub
                | NodeKind::Mul
                | NodeKind::And
                | NodeKind::Or
                | NodeKind::Xor
                | NodeKind::Eq
                | NodeKind::Lt => Some(2),
                NodeKind::Mux => Some(3),
                NodeKind::Concat | NodeKind::PipelinedOp { .. } => None,
            };
            if let Some(expected) = arity {
                if node.inputs.len() != expected {
                    return Err(format!(
                        "node {id} ({}) expects {expected} operand(s) but has {}",
                        node.name,
                        node.inputs.len()
                    ));
                }
            }
            if let NodeKind::Input(idx) = node.kind {
                if idx >= self.inputs.len() {
                    return Err(format!("node {id} refers to missing input #{idx}"));
                }
            }
            if node.width == 0 {
                return Err(format!("node {id} ({}) has zero width", node.name));
            }
            if let NodeKind::Const(v) = node.kind {
                if mask(v, node.width) != v {
                    return Err(format!(
                        "node {id} ({}) holds constant {v} which does not fit its {} bit(s)",
                        node.name, node.width
                    ));
                }
            }
        }
        for (port, id) in &self.outputs {
            if id.0 as usize >= self.nodes.len() {
                return Err(format!("output `{}` driven by missing node {id}", port.name));
            }
        }
        Ok(())
    }

    /// A topological order over the *combinational* edges: registers and
    /// pipelined cores break cycles (their inputs are sampled at the end of a
    /// cycle). Returns `None` if a purely combinational cycle exists.
    pub fn combinational_order(&self) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        // Edges: from input operand -> node, but only when the node is
        // combinational (sequential nodes read their operands "later").
        // The dependents of node `i` are `dependents[start[i]..start[i + 1]]`
        // (compressed sparse rows), in node-id order, one entry per operand
        // edge.
        let nodes = self.nodes.iter().enumerate().filter(|(_, node)| !node.kind.is_sequential());
        let mut indegree = vec![0u32; n];
        let mut start = vec![0u32; n + 1];
        for (_, node) in nodes.clone() {
            for &input in &node.inputs {
                start[input.0 as usize] += 1;
            }
        }
        // Inclusive prefix sums: `start[i]` is now the end of row `i`. The
        // fill below walks the edges backwards and decrements, which leaves
        // `start[i]` at the beginning of row `i` and every row in forward
        // node-id order.
        let mut total = 0;
        for s in &mut start[..n] {
            total += *s;
            *s = total;
        }
        start[n] = total;
        let mut dependents = vec![0u32; total as usize];
        for (id, node) in nodes.rev() {
            indegree[id] = node.inputs.len() as u32;
            for &input in node.inputs.iter().rev() {
                let slot = &mut start[input.0 as usize];
                *slot -= 1;
                dependents[*slot as usize] = id as u32;
            }
        }
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indegree[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(NodeId(i));
            let i = i as usize;
            for &d in &dependents[start[i] as usize..start[i + 1] as usize] {
                indegree[d as usize] -= 1;
                if indegree[d as usize] == 0 {
                    queue.push(d);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Consumer table: for every node, the nodes that read it, one entry
    /// per operand edge (a node reading the same operand twice appears
    /// twice). This is the reverse of the operand relation; the timing
    /// traversals ([`Netlist::output_min_latencies`]) and the retimer's
    /// legality checks (`lilac-opt`) share this one definition so the edge
    /// semantics cannot drift between them.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (id, node) in self.nodes.iter_enumerated() {
            for input in &node.inputs {
                consumers[input.0 as usize].push(id);
            }
        }
        consumers
    }

    /// Per-node combinational slack: for every node, the number of
    /// *combinational* nodes on the longest purely combinational path ending
    /// at it (`depth_in`, counting the node itself when it is combinational)
    /// and the number on the longest combinational path leaving it
    /// (`depth_out`, not counting the node itself). Sequential nodes,
    /// inputs, and constants have `depth_in = 0`; a node whose consumers are
    /// all sequential (or that drives only output ports) has
    /// `depth_out = 0`.
    ///
    /// This is the structural half of a timing query: a register sits "deep"
    /// in combinational logic exactly when the adjacent `depth_in`/
    /// `depth_out` are large, which is what a retiming pass uses to find
    /// cuts worth moving state across (`lilac-opt`'s `retime`; the
    /// nanosecond-weighted version lives in `lilac-synth`).
    ///
    /// Returns `None` iff a purely combinational cycle exists (the same
    /// condition under which [`Netlist::combinational_order`] returns
    /// `None`).
    pub fn combinational_slack(&self) -> Option<Vec<CombSlack>> {
        let order = self.combinational_order()?;
        let n = self.nodes.len();
        let mut slack = vec![CombSlack { depth_in: 0, depth_out: 0 }; n];
        // Forward: longest chain of combinational nodes ending at each node.
        for &id in &order {
            let node = &self.nodes[id];
            if node.kind.is_sequential()
                || matches!(node.kind, NodeKind::Input(_) | NodeKind::Const(_))
            {
                continue;
            }
            let longest_in =
                node.inputs.iter().map(|i| slack[i.0 as usize].depth_in).max().unwrap_or(0);
            slack[id.0 as usize].depth_in = longest_in + 1;
        }
        // Backward: longest chain of combinational nodes reachable from each
        // node through combinational consumers.
        for &id in order.iter().rev() {
            let node = &self.nodes[id];
            if node.kind.is_sequential() {
                // A sequential node's operand edges are sampled at the clock
                // edge; no combinational path continues through it.
                continue;
            }
            let contribution = slack[id.0 as usize].depth_out + 1;
            for &input in &node.inputs {
                let s = &mut slack[input.0 as usize];
                s.depth_out = s.depth_out.max(contribution);
            }
        }
        Some(slack)
    }

    /// For every declared output, the minimum number of register stages on
    /// any path from a module input ([`NodeKind::Input`]) to that output —
    /// the earliest cycle at which an input can influence the output's
    /// value. `None` for an output unreachable from any input (a register
    /// ring, or a constant-fed pipeline: constant streams are
    /// time-invariant, so they carry no latency to measure).
    ///
    /// Retiming relocates registers along paths without ever changing any
    /// path's total register count, so this vector is a *retiming
    /// invariant*: `retime(n).output_min_latencies() ==
    /// n.output_min_latencies()` is the latency-preservation contract the
    /// seventh differential oracle (and `lilac-bench`'s retiming tests) pin.
    pub fn output_min_latencies(&self) -> Vec<(String, Option<u64>)> {
        // Dijkstra over the operand graph read consumer-ward, with per-node
        // weight `pipeline_depth` (all weights >= 0): reaching a consumer
        // costs the consumer's own register depth.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.nodes.len();
        let consumers = self.consumers();
        let mut dist: Vec<Option<u64>> = vec![None; n];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (id, node) in self.nodes.iter_enumerated() {
            if matches!(node.kind, NodeKind::Input(_)) {
                dist[id.0 as usize] = Some(0);
                heap.push(Reverse((0, id.0 as usize)));
            }
        }
        while let Some(Reverse((d, i))) = heap.pop() {
            if dist[i] != Some(d) {
                continue; // superseded entry
            }
            for &c in &consumers[i] {
                let c = c.0 as usize;
                let cost = d + self.nodes[NodeId(c as u32)].kind.pipeline_depth() as u64;
                if dist[c].is_none_or(|cur| cost < cur) {
                    dist[c] = Some(cost);
                    heap.push(Reverse((cost, c)));
                }
            }
        }
        self.outputs.iter().map(|(p, id)| (p.name.clone(), dist[id.0 as usize])).collect()
    }

    /// Merges another netlist into this one as a sub-block, connecting the
    /// callee's inputs to the given driver nodes. Returns a map from the
    /// callee's output names to the corresponding nodes in `self`.
    ///
    /// This is how elaboration flattens the module hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `input_drivers` does not provide a driver for every input of
    /// `other`, or if a driver's width differs from the width the callee
    /// declares for that port (a silent mismatch would flatten into a
    /// mis-widthed design whose simulation and emission disagree).
    pub fn inline(
        &mut self,
        other: &Netlist,
        input_drivers: &FxHashMap<String, NodeId>,
        prefix: &str,
    ) -> FxHashMap<String, NodeId> {
        let mut remap: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        // Two passes so sequential feedback loops (operands with a larger id
        // than their consumer) inline correctly: first create every node,
        // then wire the remapped operands.
        for (old_id, node) in other.nodes.iter_enumerated() {
            let new_id = match &node.kind {
                NodeKind::Input(idx) => {
                    let port = &other.inputs[*idx];
                    let driver = *input_drivers.get(&port.name).unwrap_or_else(|| {
                        panic!(
                            "inline: missing driver for input `{}` of `{}`",
                            port.name, other.name
                        )
                    });
                    let got = self.nodes[driver].width;
                    if got != port.width {
                        panic!(
                            "inline: driver for input `{}` of `{}` is {got} bit(s) wide but the \
                             port declares {} bit(s)",
                            port.name, other.name, port.width
                        );
                    }
                    driver
                }
                kind => self.add_node(
                    kind.clone(),
                    Vec::new(),
                    node.width,
                    format!("{prefix}.{}", node.name),
                ),
            };
            remap.insert(old_id, new_id);
        }
        for (old_id, node) in other.nodes.iter_enumerated() {
            if matches!(node.kind, NodeKind::Input(_)) {
                continue;
            }
            let inputs = node.inputs.iter().map(|i| remap[i]).collect();
            self.set_inputs(remap[&old_id], inputs);
        }
        other.outputs.iter().map(|(port, id)| (port.name.clone(), remap[id])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder_netlist() -> Netlist {
        let mut n = Netlist::new("addreg");
        let a = n.add_input("a", 16);
        let b = n.add_input("b", 16);
        let sum = n.add_node(NodeKind::Add, vec![a, b], 16, "sum");
        let reg = n.add_node(NodeKind::Reg, vec![sum], 16, "sum_r");
        n.add_output("o", reg);
        n
    }

    #[test]
    fn build_and_validate() {
        let n = adder_netlist();
        assert_eq!(n.node_count(), 4);
        assert_eq!(n.sequential_count(), 1);
        assert!(n.validate().is_ok());
        assert!(n.output("o").is_some());
        assert!(n.output("missing").is_none());
        assert_eq!(n.input("a"), Some(NodeId(0)));
    }

    #[test]
    fn validation_catches_bad_arity_and_width() {
        let mut n = Netlist::new("bad");
        let a = n.add_input("a", 8);
        n.add_node(NodeKind::Add, vec![a], 8, "half_add");
        assert!(n.validate().unwrap_err().contains("expects 2 operand"));

        let mut n = Netlist::new("bad2");
        let a = n.add_input("a", 8);
        n.add_node(NodeKind::Reg, vec![a], 0, "zero_width");
        assert!(n.validate().unwrap_err().contains("zero width"));
    }

    #[test]
    fn combinational_order_handles_register_cycles() {
        // A counter: reg feeds an adder that feeds the reg back — legal
        // because the cycle goes through a register.
        let mut n = Netlist::new("counter");
        let one = n.add_const(1, 8);
        // Create the register first with a placeholder input, then patch.
        let reg = n.add_node(NodeKind::Reg, vec![one], 8, "count");
        let _next = n.add_node(NodeKind::Add, vec![reg, one], 8, "next");
        // Rebuild with the proper feedback edge.
        let mut m = Netlist::new("counter");
        let one = m.add_const(1, 8);
        let reg_placeholder = m.add_node(NodeKind::Reg, vec![one], 8, "count");
        let next = m.add_node(NodeKind::Add, vec![reg_placeholder, one], 8, "next");
        // Manually rewire the register to read `next` (feedback).
        {
            let node = &mut m.nodes[reg_placeholder];
            node.inputs = vec![next];
        }
        m.add_output("o", reg_placeholder);
        assert!(m.validate().is_ok());
        assert!(m.combinational_order().is_some());
        let _ = (n, reg, next);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Netlist::new("comb_loop");
        let a = n.add_input("a", 8);
        let x = n.add_node(NodeKind::Add, vec![a, a], 8, "x");
        let y = n.add_node(NodeKind::Add, vec![x, a], 8, "y");
        // Rewire x to read y, forming a combinational loop.
        n.nodes[x].inputs = vec![y, a];
        assert!(n.combinational_order().is_none());
    }

    #[test]
    fn inline_flattens_hierarchy() {
        let inner = adder_netlist();
        let mut outer = Netlist::new("top");
        let x = outer.add_input("x", 16);
        let y = outer.add_input("y", 16);
        let mut drivers = FxHashMap::default();
        drivers.insert("a".to_string(), x);
        drivers.insert("b".to_string(), y);
        let outs = outer.inline(&inner, &drivers, "u0");
        outer.add_output("z", outs["o"]);
        assert!(outer.validate().is_ok());
        // Input nodes of the inner module are not duplicated.
        assert_eq!(outer.node_count(), 4);
        assert!(outer.iter().any(|(_, n)| n.name == "u0.sum_r"));
    }

    #[test]
    #[should_panic(expected = "missing driver")]
    fn inline_missing_driver_panics() {
        let inner = adder_netlist();
        let mut outer = Netlist::new("top");
        let x = outer.add_input("x", 16);
        let mut drivers = FxHashMap::default();
        drivers.insert("a".to_string(), x);
        outer.inline(&inner, &drivers, "u0");
    }

    #[test]
    fn oversized_const_is_masked_at_construction_and_rejected_by_validate() {
        // Regression: `add_const(255, 4)` used to store the raw 255.
        // `lilac-sim` masked it at evaluation (reading 15) while
        // `emit_verilog` rendered the stored value verbatim as `4'd255` —
        // the sized literal a downstream Verilog tool truncates (or warns
        // about) on its own terms, so the two backends could disagree.
        let mut n = Netlist::new("c");
        let c = n.add_const(255, 4);
        assert_eq!(n.node(c).kind, NodeKind::Const(15), "masked at construction");
        assert!(n.validate().is_ok());
        assert_eq!(n.eval_const(c), Some(15));

        // Reconstruct the pre-fix netlist (raw `add_node`, bypassing the
        // mask) and pin the divergent emission: the stored 255 does not fit
        // 4 bits, the emitted literal says `4'd255`, and the simulator
        // would have read 15 — validate now rejects the netlist outright.
        let mut bad = Netlist::new("c");
        let c = bad.add_node(NodeKind::Const(255), Vec::new(), 4, "const_255");
        bad.add_output("o", c);
        let v = crate::verilog::emit_verilog(&bad);
        assert!(v.contains("assign n0 = 4'd255;"), "the divergent emission:\n{v}");
        let err = bad.validate().unwrap_err();
        assert!(err.contains("constant 255"), "{err}");
        assert!(err.contains("4 bit(s)"), "{err}");
    }

    #[test]
    #[should_panic(expected = "driver for input `a` of `addreg` is 8 bit(s) wide")]
    fn inline_rejects_narrow_driver() {
        let inner = adder_netlist(); // ports are 16 bits wide
        let mut outer = Netlist::new("top");
        let x = outer.add_input("x", 8);
        let y = outer.add_input("y", 16);
        let drivers = FxHashMap::from_iter([("a".to_string(), x), ("b".to_string(), y)]);
        outer.inline(&inner, &drivers, "u0");
    }

    #[test]
    #[should_panic(expected = "driver for input `b` of `addreg` is 24 bit(s) wide")]
    fn inline_rejects_wide_driver() {
        let inner = adder_netlist();
        let mut outer = Netlist::new("top");
        let x = outer.add_input("x", 16);
        let y = outer.add_input("y", 24);
        let drivers = FxHashMap::from_iter([("a".to_string(), x), ("b".to_string(), y)]);
        outer.inline(&inner, &drivers, "u0");
    }

    #[test]
    fn eval_const_follows_simulation_semantics() {
        let mut n = Netlist::new("fold");
        let a = n.add_const(0xF0, 8);
        let b = n.add_const(0x0F, 8);
        let add = n.add_node(NodeKind::Add, vec![a, b], 8, "add");
        let narrow = n.add_node(NodeKind::Add, vec![a, b], 4, "narrow"); // masks to 4 bits
        let cat = n.add_node(NodeKind::Concat, vec![a, b], 16, "cat");
        let i = n.add_input("i", 8);
        let var = n.add_node(NodeKind::Add, vec![a, i], 8, "var");
        let reg = n.add_node(NodeKind::Reg, vec![a], 8, "reg");
        assert_eq!(n.eval_const(add), Some(0xFF));
        assert_eq!(n.eval_const(narrow), Some(0xF));
        assert_eq!(n.eval_const(cat), Some(0xF00F));
        assert_eq!(n.eval_const(var), None, "non-const operand");
        assert_eq!(n.eval_const(reg), None, "state-holding node");
        assert_eq!(n.eval_const(i), None, "input");
    }

    #[test]
    fn retain_live_sweeps_and_remaps() {
        let mut n = Netlist::new("sweep");
        let a = n.add_input("a", 8);
        let dead = n.add_node(NodeKind::Not, vec![a], 8, "dead");
        let live = n.add_node(NodeKind::Add, vec![a, a], 8, "live");
        n.add_output("o", live);
        let mut mark = vec![false; n.node_count()];
        mark[a.0 as usize] = true;
        mark[live.0 as usize] = true;
        assert_eq!(n.retain_live(&mark), 1);
        assert_eq!(n.node_count(), 2);
        assert!(n.validate().is_ok());
        assert!(n.iter().all(|(_, node)| node.name != "dead"));
        assert_eq!(n.output("o"), Some(NodeId(1)));
        let _ = dead;
    }

    #[test]
    #[should_panic(expected = "references removed node")]
    fn retain_live_rejects_open_liveness() {
        let mut n = Netlist::new("open");
        let a = n.add_input("a", 8);
        let x = n.add_node(NodeKind::Not, vec![a], 8, "x");
        let y = n.add_node(NodeKind::Not, vec![x], 8, "y");
        n.add_output("o", y);
        let mut mark = vec![false; n.node_count()];
        mark[y.0 as usize] = true; // y live but its operand x is not
        n.retain_live(&mark);
    }

    #[test]
    fn remap_operands_rewrites_edges_and_outputs() {
        let mut n = Netlist::new("remap");
        let a = n.add_input("a", 8);
        let b = n.add_input("b", 8);
        let x = n.add_node(NodeKind::Not, vec![a], 8, "x");
        n.add_output("o", x);
        n.remap_operands(|id| if id == a { b } else { id });
        assert_eq!(n.node(x).inputs, vec![b]);
        n.remap_operands(|id| if id == x { b } else { id });
        assert_eq!(n.output("o"), Some(b));
    }

    #[test]
    fn comb_value_matches_eval_semantics() {
        // Spot checks of the shared evaluation function, including masking.
        let w8 = |v: u64| (v, 8u32);
        assert_eq!(NodeKind::Add.comb_value(&[w8(0xFF), w8(1)], 8), Some(0));
        assert_eq!(NodeKind::Sub.comb_value(&[w8(0), w8(1)], 8), Some(0xFF));
        assert_eq!(NodeKind::Lt.comb_value(&[w8(3), w8(5)], 1), Some(1));
        assert_eq!(NodeKind::Mux.comb_value(&[(0, 1), w8(7), w8(9)], 8), Some(9));
        assert_eq!(NodeKind::Slice { lo: 4 }.comb_value(&[w8(0xAB)], 4), Some(0xA));
        assert_eq!(NodeKind::Delay(0).comb_value(&[(0x1FF, 16)], 8), Some(0xFF));
        assert_eq!(NodeKind::Delay(1).comb_value(&[w8(1)], 8), None);
        let core0 = NodeKind::PipelinedOp { op: PipeOp::Mac, latency: 0, ii: 1 };
        assert_eq!(core0.comb_value(&[w8(3), w8(4), w8(5)], 8), Some(17));
        assert_eq!(NodeKind::Reg.comb_value(&[w8(1)], 8), None);
        assert_eq!(mask(u64::MAX, 64), u64::MAX);
        assert_eq!(mask(u64::MAX, 63), u64::MAX >> 1);
    }

    #[test]
    fn pipelined_op_is_sequential() {
        assert!(NodeKind::PipelinedOp { op: PipeOp::FAdd, latency: 4, ii: 1 }.is_sequential());
        assert!(!NodeKind::Add.is_sequential());
        assert_eq!(PipeOp::Conv { par: 4 }.mnemonic(), "conv");
    }

    #[test]
    fn pipeline_depth_contract() {
        // The shared zero-latency contract: depth equals the declared
        // latency, and zero-depth nodes are combinational.
        assert_eq!(NodeKind::Reg.pipeline_depth(), 1);
        assert_eq!(NodeKind::RegEn.pipeline_depth(), 1);
        assert_eq!(NodeKind::Delay(3).pipeline_depth(), 3);
        assert_eq!(NodeKind::Delay(0).pipeline_depth(), 0);
        assert!(!NodeKind::Delay(0).is_sequential());
        let zero_lat = NodeKind::PipelinedOp { op: PipeOp::FMul, latency: 0, ii: 1 };
        assert_eq!(zero_lat.pipeline_depth(), 0);
        assert!(!zero_lat.is_sequential());
        assert_eq!(NodeKind::Mux.pipeline_depth(), 0);
    }
}
