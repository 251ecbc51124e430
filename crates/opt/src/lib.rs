//! Netlist optimization: a pass pipeline over [`lilac_ir::Netlist`].
//!
//! Elaboration produces *naive* netlists: every instantiation inlines the
//! whole callee (dead nodes included), every constant is materialized per
//! use site, and alignment delays pile up as chains of single registers.
//! This crate rewrites those netlists into smaller, faster ones while
//! preserving the contract every backend relies on: **the optimized netlist
//! is cycle-for-cycle, bit-for-bit equivalent on every output**, under the
//! zero-power-up state and width-masking semantics of
//! [`NodeKind::comb_value`](lilac_ir::NodeKind::comb_value) /
//! [`NodeKind::pipeline_depth`](lilac_ir::NodeKind::pipeline_depth).
//!
//! The passes (each exposed individually, each returning how many rewrites
//! it performed):
//!
//! * [`fold_constants`] — nodes whose operands are all `Const` become
//!   `Const`, evaluated through [`Netlist::eval_const`] — the *same*
//!   function the simulator evaluates with, so fold == simulate by
//!   construction. Registers, delay lines, and pipelined cores fed only
//!   constant zeros also fold (their zero-initialized pipes can never hold
//!   anything else). The pass also strength-reduces one-constant-operand
//!   identities — `x * 1`, `x + 0`, `x - 0`, `x | 0`, `x ^ 0` become
//!   width-preserving passthroughs of `x`, and the absorbing `x * 0`,
//!   `x & 0` become `Const(0)` — the cases the all-const matcher cannot
//!   see.
//! * [`fold_known_bits`] — the analysis-fed folder: one
//!   `lilac_analysis::analyze` sweep (known bits + unsigned intervals, the
//!   same facts the fuzzer's eleventh oracle proves sound against live
//!   simulation), then nets pinned to a single value become `Const`, mux
//!   selects proven constant by dataflow narrow to one arm, and provably
//!   zero high operands are stripped from `Concat`s.
//! * [`simplify_muxes`] — a mux with a constant select, with identical
//!   arms, or with two constant arms holding the same value, degenerates
//!   to a passthrough of the surviving arm.
//! * [`fuse_delays`] — `Reg`/`Delay` chains collapse: a delay of `a` cycles
//!   reading a delay of `b` cycles becomes a single `Delay(a + b)` reading
//!   the upstream driver, and width-preserving `Delay(0)` passthroughs are
//!   copy-propagated away.
//! * [`eliminate_common_subexpressions`] — structurally identical nodes
//!   (same kind, operands, and width) merge. This includes sequential
//!   nodes: with all state powering up at zero, two registers fed by the
//!   same driver hold the same value on every cycle.
//! * [`eliminate_dead_nodes`] — nodes that no output transitively reads are
//!   swept (module input ports are always retained; they are interface).
//!
//! [`optimize`] (and [`optimize_with_stats`], which also reports per-pass
//! [`OptStats`]) runs the pipeline to a fixpoint. The result is validated
//! and re-checked for combinational cycles before it is returned, and the
//! fuzzer's sixth differential oracle (`lilac-fuzz`) holds
//! `optimize(n)` ≡ `n` under both `lilac-sim` and the emitted-Verilog
//! simulation (`lilac-vsim`) on every output of every cycle.
//!
//! Register **retiming** — relocating `Reg`/`Delay` stages across
//! combinational logic to shorten the estimated critical path, scored by
//! `lilac-synth`'s timing model — lives in the [`retime`](mod@retime) module as a
//! separate entry point ([`retime()`](retime())/[`retime_with_stats`]):
//! unlike the shrinking passes above it deliberately trades register
//! *placement* (and sometimes register count) for frequency, so it is not
//! part of the node-count-monotone [`optimize`] fixpoint; the fuzzer's
//! *seventh* oracle holds its cycle-exactness the same way.
//!
//! # Example
//!
//! ```
//! use lilac_ir::{Netlist, NodeKind};
//! use lilac_opt::optimize_with_stats;
//!
//! let mut n = Netlist::new("redundant");
//! let i = n.add_input("i", 8);
//! let a = n.add_const(3, 8);
//! let b = n.add_const(3, 8); // duplicate constant
//! let s1 = n.add_node(NodeKind::Add, vec![i, a], 8, "s1");
//! let s2 = n.add_node(NodeKind::Add, vec![i, b], 8, "s2"); // CSE target
//! let dead = n.add_node(NodeKind::Mul, vec![s1, s2], 8, "dead"); // unread
//! n.add_output("o", s1);
//! n.add_output("p", s2);
//!
//! let (opt, stats) = optimize_with_stats(&n);
//! assert!(opt.node_count() < n.node_count());
//! assert_eq!(opt.output("o"), opt.output("p")); // merged
//! assert!(stats.dead_removed >= 1);
//! # let _ = dead;
//! ```

use lilac_ir::FxHashMap;
use lilac_ir::{mask, Netlist, NodeId, NodeKind};

pub mod retime;

pub use retime::{retime, retime_with_stats, RetimeStats};

/// Per-pass rewrite counts and before/after sizes for one [`optimize`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Nodes before optimization (including inputs).
    pub nodes_before: usize,
    /// Nodes after optimization.
    pub nodes_after: usize,
    /// Sequential (state-holding) nodes before optimization.
    pub sequential_before: usize,
    /// Sequential nodes after optimization.
    pub sequential_after: usize,
    /// Nodes rewritten to `Const` by [`fold_constants`].
    pub constants_folded: usize,
    /// Muxes degenerated by [`simplify_muxes`].
    pub muxes_simplified: usize,
    /// Delay chains collapsed / passthroughs propagated by [`fuse_delays`].
    pub delays_fused: usize,
    /// Duplicate nodes merged by [`eliminate_common_subexpressions`].
    pub subexpressions_merged: usize,
    /// Dead nodes swept by [`eliminate_dead_nodes`].
    pub dead_removed: usize,
    /// Nets rewritten to `Const` by [`fold_known_bits`] (dataflow facts the
    /// all-const matcher cannot see).
    pub known_bits_folded: usize,
    /// Mux selects proven constant by dataflow and narrowed to one arm by
    /// [`fold_known_bits`].
    pub mux_selects_narrowed: usize,
    /// Provably-zero high operands stripped from `Concat` nodes by
    /// [`fold_known_bits`].
    pub concat_zeros_stripped: usize,
    /// Pipeline iterations until the fixpoint (at least 1).
    pub iterations: usize,
}

impl OptStats {
    /// Fraction of nodes removed, in `[0, 1)`.
    pub fn node_reduction(&self) -> f64 {
        if self.nodes_before == 0 {
            0.0
        } else {
            1.0 - self.nodes_after as f64 / self.nodes_before as f64
        }
    }

    /// Total rewrites across all passes.
    pub fn total_rewrites(&self) -> usize {
        self.constants_folded
            + self.muxes_simplified
            + self.delays_fused
            + self.subexpressions_merged
            + self.dead_removed
            + self.known_bits_folded
            + self.mux_selects_narrowed
            + self.concat_zeros_stripped
    }
}

fn node_ids(n: &Netlist) -> Vec<NodeId> {
    n.iter().map(|(id, _)| id).collect()
}

/// Folds every node whose value is a compile-time constant into a `Const`
/// node, using [`Netlist::eval_const`] — the simulator's own combinational
/// semantics — plus the zero-state rule: a `Reg`, `RegEn`, `Delay`, or
/// pipelined core whose (data) operands are constants making its datapath
/// value 0 is constant 0 on *every* cycle, because its pipe powers up
/// zero-filled and can only ever shift zeros in. Returns the number of
/// nodes rewritten.
pub fn fold_constants(n: &mut Netlist) -> usize {
    let mut folded = 0;
    for id in node_ids(n) {
        if matches!(n.node(id).kind, NodeKind::Const(_) | NodeKind::Input(_)) {
            continue;
        }
        let value = match n.eval_const(id) {
            Some(v) => Some(v),
            None => sequential_zero(n, id),
        };
        if let Some(value) = value {
            let node = n.node_mut(id);
            node.kind = NodeKind::Const(value);
            node.inputs = Vec::new();
            folded += 1;
        } else {
            folded += strength_reduce(n, id);
        }
    }
    folded
}

/// One-constant-operand strength reduction: the identities
/// `x + 0 = x - 0 = x | 0 = x ^ 0 = x * 1 = x` (both operand orders for
/// the commutative ones) rewrite the node to a width-preserving `Delay(0)`
/// passthrough of `x` — the same idiom [`simplify_muxes`] uses, so the
/// node's own mask still applies and [`fuse_delays`] propagates it away
/// when widths allow — and the absorbing `x * 0 = x & 0 = 0` rewrites to
/// `Const(0)`. These are exactly the cases [`Netlist::eval_const`]'s
/// all-operands-const matcher cannot see. Returns 1 when a rule fired.
fn strength_reduce(n: &mut Netlist, id: NodeId) -> usize {
    let node = n.node(id);
    let const_of = |x: NodeId| match n.node(x).kind {
        NodeKind::Const(v) => Some(mask(v, n.node(x).width)),
        _ => None,
    };
    enum Rewrite {
        Passthrough(NodeId),
        Zero,
    }
    let (a, b, a_const, b_const) = match node.kind {
        NodeKind::Add
        | NodeKind::Sub
        | NodeKind::Mul
        | NodeKind::And
        | NodeKind::Or
        | NodeKind::Xor => {
            let (a, b) = (node.inputs[0], node.inputs[1]);
            (a, b, const_of(a), const_of(b))
        }
        _ => return 0,
    };
    let rewrite = match (&node.kind, a_const, b_const) {
        // Identities: the surviving operand passes through.
        (NodeKind::Add | NodeKind::Or | NodeKind::Xor, Some(0), _) => Rewrite::Passthrough(b),
        (NodeKind::Add | NodeKind::Sub | NodeKind::Or | NodeKind::Xor, _, Some(0)) => {
            Rewrite::Passthrough(a)
        }
        (NodeKind::Mul, Some(1), _) => Rewrite::Passthrough(b),
        (NodeKind::Mul, _, Some(1)) => Rewrite::Passthrough(a),
        // Absorbing elements.
        (NodeKind::Mul | NodeKind::And, Some(0), _)
        | (NodeKind::Mul | NodeKind::And, _, Some(0)) => Rewrite::Zero,
        _ => return 0,
    };
    let node = n.node_mut(id);
    match rewrite {
        Rewrite::Passthrough(x) => {
            node.kind = NodeKind::Delay(0);
            node.inputs = vec![x];
        }
        Rewrite::Zero => {
            node.kind = NodeKind::Const(0);
            node.inputs = Vec::new();
        }
    }
    1
}

/// The zero-state rule for sequential nodes: returns `Some(0)` when `id` is
/// a state-holding node that provably outputs 0 on every cycle.
fn sequential_zero(n: &Netlist, id: NodeId) -> Option<u64> {
    let node = n.node(id);
    let const_of = |input: NodeId| match n.node(input).kind {
        NodeKind::Const(v) => Some(mask(v, n.node(input).width)),
        _ => None,
    };
    match &node.kind {
        // The enable input is irrelevant: loading 0 and holding 0 agree.
        NodeKind::Reg | NodeKind::RegEn | NodeKind::Delay(_) => {
            (const_of(node.inputs[0])? == 0).then_some(0)
        }
        NodeKind::PipelinedOp { op, .. } => {
            let mut vals = Vec::with_capacity(node.inputs.len());
            for &input in &node.inputs {
                vals.push(const_of(input)?);
            }
            (mask(lilac_ir::pipe_value(*op, &vals), node.width) == 0).then_some(0)
        }
        _ => None,
    }
}

/// Forwarding check: consumers of `from` may read `to` directly only when
/// the two agree in *width* as well as value. Width equality matters even
/// when the forwarded value is provably identical: `Concat` shifts by each
/// operand's declared width, and emitted part-selects index into the
/// operand's declared range, so substituting a narrower (value-equal) node
/// would change downstream semantics.
fn forwardable(n: &Netlist, from: NodeId, to: NodeId) -> bool {
    n.node(to).width == n.node(from).width
}

/// Resolves `remap` chains with path compression and applies the result to
/// every operand edge and output driver. Returns how many entries actually
/// forwarded somewhere.
fn apply_remap(n: &mut Netlist, mut remap: Vec<NodeId>) -> usize {
    let mut changed = 0;
    for i in 0..remap.len() {
        let mut target = remap[i];
        while remap[target.0 as usize] != target {
            target = remap[target.0 as usize];
        }
        remap[i] = target;
        if target.0 as usize != i {
            changed += 1;
        }
    }
    if changed > 0 {
        n.remap_operands(|id| remap[id.0 as usize]);
    }
    changed
}

/// Degenerates multiplexers: a constant select picks its arm statically,
/// identical arms make the select irrelevant, and two *constant* arms
/// Rewrite counts for one [`fold_known_bits`] sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KnownBitsFolds {
    /// Nets rewritten to `Const`.
    pub consts: usize,
    /// Mux selects proven constant and narrowed to one arm.
    pub mux_selects: usize,
    /// Provably-zero high operands stripped from `Concat` nodes.
    pub concat_zeros: usize,
}

impl KnownBitsFolds {
    /// Total rewrites in the sweep.
    pub fn total(&self) -> usize {
        self.consts + self.mux_selects + self.concat_zeros
    }
}

/// The analysis-fed folder: one `lilac_analysis::analyze` sweep, then three
/// fact-driven rewrites the syntactic passes cannot see.
///
/// * A net whose fact pins it to a single value — for *all* inputs, on
///   *every* cycle (the zero power-up state included) — becomes `Const`.
///   This reaches through dataflow the all-const matcher in
///   [`fold_constants`] never sees: `x & 0b100` feeding a comparison that
///   decides it, an FSM register proven stuck, `x - x`, `x == x`.
/// * A mux whose *select fact* is proven constant (non-zero lower bound, a
///   known-one bit, or an all-zero upper bound) narrows to the surviving
///   arm, exactly like [`simplify_muxes`] does for literal `Const` selects.
/// * A `Concat` whose leading (high-order) operands are provably zero
///   drops them: high zero bits contribute nothing to the value. A concat
///   reduced to one operand degenerates to a `Delay(0)` passthrough.
///
/// Every rewrite is value-preserving under the facts, which over-
/// approximate *reachable* values — so the pass cannot change any output
/// on any cycle, and one analysis sweep stays valid for the whole pass.
/// Netlists the analysis rejects (it requires the same evaluable-netlist
/// preconditions the simulator does) are left untouched. Never adds nodes.
pub fn fold_known_bits(n: &mut Netlist) -> KnownBitsFolds {
    let mut folds = KnownBitsFolds::default();
    let Ok(analysis) = lilac_analysis::analyze(n) else {
        return folds;
    };
    for id in node_ids(n) {
        if matches!(n.node(id).kind, NodeKind::Const(_) | NodeKind::Input(_)) {
            continue;
        }
        if let Some(value) = analysis.fact(id).as_const() {
            let node = n.node_mut(id);
            node.kind = NodeKind::Const(value);
            node.inputs = Vec::new();
            folds.consts += 1;
            continue;
        }
        match n.node(id).kind {
            NodeKind::Mux => {
                let sel = n.node(id).inputs[0];
                // Literal-const selects belong to `simplify_muxes`; this
                // rule adds the selects only dataflow decides.
                if matches!(n.node(sel).kind, NodeKind::Const(_)) {
                    continue;
                }
                if let Some(taken) = lilac_analysis::mux_select(&analysis.fact(sel)) {
                    let arm = n.node(id).inputs[if taken { 1 } else { 2 }];
                    let node = n.node_mut(id);
                    node.kind = NodeKind::Delay(0);
                    node.inputs = vec![arm];
                    folds.mux_selects += 1;
                }
            }
            NodeKind::Concat => {
                let inputs = n.node(id).inputs.clone();
                let mut keep = 0;
                while keep + 1 < inputs.len() && analysis.fact(inputs[keep]).as_const() == Some(0) {
                    keep += 1;
                }
                if keep > 0 {
                    let remaining = inputs[keep..].to_vec();
                    let node = n.node_mut(id);
                    if remaining.len() == 1 {
                        // A one-operand concat is `mask(v, width)` — the
                        // `Delay(0)` passthrough semantics exactly.
                        node.kind = NodeKind::Delay(0);
                    }
                    node.inputs = remaining;
                    folds.concat_zeros += keep;
                }
            }
            _ => {}
        }
    }
    folds
}

/// holding the same value collapse even when they are distinct nodes (the
/// one-non-const-operand case the node-identity check misses; CSE would
/// need a full extra round to expose it). The mux node becomes a
/// `Delay(0)` passthrough of the surviving arm (preserving the mux's own
/// width masking); [`fuse_delays`] then propagates it away when widths
/// allow, and [`eliminate_dead_nodes`] sweeps it. Returns the number of
/// muxes rewritten.
pub fn simplify_muxes(n: &mut Netlist) -> usize {
    let mut simplified = 0;
    for id in node_ids(n) {
        let node = n.node(id);
        if !matches!(node.kind, NodeKind::Mux) {
            continue;
        }
        let (sel, a, b) = (node.inputs[0], node.inputs[1], node.inputs[2]);
        let const_of = |x: NodeId| match n.node(x).kind {
            NodeKind::Const(v) => Some(mask(v, n.node(x).width)),
            _ => None,
        };
        let arm = if a == b {
            Some(a)
        } else {
            match n.node(sel).kind {
                NodeKind::Const(c) => Some(if mask(c, n.node(sel).width) != 0 { a } else { b }),
                // Equal-valued constant arms: the mux masks the chosen
                // arm's value to its own width, so either arm serves
                // (pick `a`).
                _ => match (const_of(a), const_of(b)) {
                    (Some(va), Some(vb)) if va == vb => Some(a),
                    _ => None,
                },
            }
        };
        if let Some(arm) = arm {
            let node = n.node_mut(id);
            node.kind = NodeKind::Delay(0);
            node.inputs = vec![arm];
            simplified += 1;
        }
    }
    simplified
}

/// Collapses delay chains and propagates passthroughs:
///
/// * a `Reg` or `Delay(a)` that is the *sole* consumer of an upstream `Reg`
///   or `Delay(b)` becomes `Delay(a + b)` reading the upstream driver
///   directly (`delay_a ∘ delay_b = delay_{a+b}` as a stream equation under
///   zero power-up state); the emptied stage then falls to dead-node
///   elimination, so registers move rather than duplicate;
/// * consumers of a `Delay(0)` passthrough read its operand directly.
///
/// Both rewrites are width-guarded (a fusion that would skip a narrowing
/// mask is left alone), and chains that loop back into delay nodes —
/// cross-coupled registers, delay rings — are never fused, because walking
/// such a loop would inflate the depth every round instead of converging.
/// Returns the number of rewrites.
pub fn fuse_delays(n: &mut Netlist) -> usize {
    let mut fused = 0;
    // Fan-out counts (operand edges plus output drivers), kept current as
    // fusions rewire edges: fusing *through* a stage another consumer still
    // reads would duplicate its registers instead of eliminating them.
    let mut uses = vec![0usize; n.node_count()];
    for (_, node) in n.iter() {
        for input in &node.inputs {
            uses[input.0 as usize] += 1;
        }
    }
    for (_, driver) in &n.outputs {
        uses[driver.0 as usize] += 1;
    }
    for id in node_ids(n) {
        let node = n.node(id);
        let a = match node.kind {
            NodeKind::Reg => 1,
            NodeKind::Delay(a) => a,
            _ => continue,
        };
        // Never fuse a delay whose upstream chain loops back into delay
        // nodes (cross-coupled registers, delay rings, chains hanging off
        // such rings): each fusion step would walk the loop and grow the
        // depth again next round, so the pipeline would inflate `Delay`
        // depths forever instead of reaching a fixpoint. The streams on a
        // pure-delay loop are identically zero, so there is nothing to win
        // there anyway; folding handles the reachable-constant cases.
        if on_pure_delay_path_to_cycle(n, id) {
            continue;
        }
        let upstream = node.inputs[0];
        let up = n.node(upstream);
        let b = match up.kind {
            NodeKind::Reg => 1,
            NodeKind::Delay(b) => b,
            _ => continue,
        };
        let driver = up.inputs[0];
        // A register-carrying stage (`b > 0`) only fuses when (a) this node
        // is its sole consumer — the stage then dies and its registers
        // move rather than duplicate — and (b) the stage is at least as
        // wide as this node, so its `b` stages re-registered at this
        // node's width cannot *grow* the total register bits (fusing
        // Delay@4 into Delay@16 would turn 4-bit stages into 16-bit ones).
        // A zero-depth stage carries no registers and may always fuse.
        let (w_node, w_up, w_driver) = (node.width, up.width, n.node(driver).width);
        if b > 0 && (uses[upstream.0 as usize] != 1 || w_up < w_node) {
            continue;
        }
        // The intermediate stage's mask must be redundant: it re-masks
        // either something already at least as narrow (the driver) or
        // something that will be masked at least as hard downstream.
        if !(w_up >= w_node || w_up >= w_driver) {
            continue;
        }
        let node = n.node_mut(id);
        node.kind = NodeKind::Delay(a + b);
        node.inputs = vec![driver];
        uses[upstream.0 as usize] -= 1;
        uses[driver.0 as usize] += 1;
        fused += 1;
    }

    // Copy propagation of width-preserving Delay(0) passthroughs.
    propagate_passthroughs(n, fused)
}

/// True when walking upward from `start` through `Reg`/`Delay` data inputs
/// never reaches a non-delay node — i.e. `start` sits on, or feeds from, a
/// cycle made entirely of delay elements. Fusing along such a chain never
/// terminates (conservative: a chain *into* a delay ring is also skipped).
fn on_pure_delay_path_to_cycle(n: &Netlist, start: NodeId) -> bool {
    let mut probe = start;
    for _ in 0..n.node_count() {
        let node = n.node(probe);
        match node.kind {
            NodeKind::Reg | NodeKind::Delay(_) => {
                probe = node.inputs[0];
                if probe == start {
                    return true;
                }
            }
            _ => return false,
        }
    }
    // The walk never left the delay nodes within node_count steps: loop.
    true
}

fn propagate_passthroughs(n: &mut Netlist, fused: usize) -> usize {
    let ids = node_ids(n);
    let mut remap: Vec<NodeId> = ids.clone();
    for id in ids {
        let node = n.node(id);
        if let NodeKind::Delay(0) = node.kind {
            let src = node.inputs[0];
            if src != id && forwardable(n, id, src) {
                remap[id.0 as usize] = src;
            }
        }
    }
    fused + apply_remap(n, remap)
}

/// Merges structurally identical nodes: same kind, same operand list, same
/// width (debug names are ignored). Sequential nodes merge too — all state
/// powers up at zero, so equal drivers mean equal state forever. Later
/// duplicates forward to the earliest representative; the dead copies are
/// left for [`eliminate_dead_nodes`]. Returns the number of nodes merged.
pub fn eliminate_common_subexpressions(n: &mut Netlist) -> usize {
    #[derive(PartialEq, Eq, Hash)]
    struct Key {
        kind: NodeKind,
        inputs: Vec<NodeId>,
        width: u32,
    }
    let ids = node_ids(n);
    let mut remap: Vec<NodeId> = ids.clone();
    let mut seen: FxHashMap<Key, NodeId> = FxHashMap::default();
    for id in ids {
        let node = n.node(id);
        if matches!(node.kind, NodeKind::Input(_)) {
            continue;
        }
        // Operands already remapped to their representatives where known
        // (feedback edges to later ids resolve to themselves this round).
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i.0 as usize]).collect();
        let key = Key { kind: node.kind.clone(), inputs, width: node.width };
        match seen.get(&key) {
            Some(&rep) => remap[id.0 as usize] = rep,
            None => {
                seen.insert(key, id);
            }
        }
    }
    apply_remap(n, remap)
}

/// Sweeps every node that no declared output transitively reads. Reachability
/// follows all operand edges, including feedback through sequential nodes;
/// module inputs are always retained (they are the interface, and
/// [`Netlist::inputs`] indices must stay valid). Returns the number of nodes
/// removed.
pub fn eliminate_dead_nodes(n: &mut Netlist) -> usize {
    let mut live = vec![false; n.node_count()];
    let mut stack: Vec<NodeId> = n.outputs.iter().map(|(_, id)| *id).collect();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut live[id.0 as usize], true) {
            continue;
        }
        stack.extend(n.node(id).inputs.iter().copied());
    }
    n.retain_live(&live)
}

/// Runs the full pass pipeline to a fixpoint and returns the optimized
/// netlist. See [`optimize_with_stats`] for the per-pass counts.
///
/// # Panics
///
/// Panics if `netlist` fails [`Netlist::validate`] or contains a
/// combinational cycle, or if the optimizer produces a netlist that fails
/// validation, acquires a combinational cycle, or grows its register
/// bits — the latter would be optimizer bugs, and the differential oracles
/// in `lilac-fuzz` exist to keep them loud.
pub fn optimize(netlist: &Netlist) -> Netlist {
    optimize_with_stats(netlist).0
}

/// [`optimize`], also returning the per-pass [`OptStats`].
///
/// # Panics
///
/// See [`optimize`].
pub fn optimize_with_stats(netlist: &Netlist) -> (Netlist, OptStats) {
    netlist.validate().expect("optimize: input netlist must validate");
    // `validate` does not check for combinational cycles, but the passes
    // assume an evaluable netlist (a Delay(0) loop, for instance, would
    // send copy-propagation's path compression chasing its own tail): fail
    // loudly up front, exactly as the exit check does.
    assert!(
        netlist.combinational_order().is_some(),
        "optimize: input netlist `{}` has a combinational cycle",
        netlist.name
    );
    let mut n = netlist.clone();
    let mut stats = OptStats {
        nodes_before: n.node_count(),
        sequential_before: n.sequential_count(),
        ..OptStats::default()
    };
    // Each pass only ever shrinks or preserves the design, so the pipeline
    // reaches a fixpoint; the cap is a safety net, not a budget.
    for _ in 0..16 {
        stats.iterations += 1;
        let mut changed = 0;
        // Cheap syntactic passes run first so the analysis sweep in
        // `fold_known_bits` sees an already-shrunk netlist (and so literal
        // const-select muxes and all-const nodes stay attributed to the
        // passes that own them); the fixpoint loop feeds its rewrites back
        // through the syntactic passes on the next iteration.
        let folded = fold_constants(&mut n);
        let muxes = simplify_muxes(&mut n);
        let fusions = fuse_delays(&mut n);
        let merged = eliminate_common_subexpressions(&mut n);
        let known = fold_known_bits(&mut n);
        let swept = eliminate_dead_nodes(&mut n);
        stats.constants_folded += folded;
        stats.known_bits_folded += known.consts;
        stats.mux_selects_narrowed += known.mux_selects;
        stats.concat_zeros_stripped += known.concat_zeros;
        stats.muxes_simplified += muxes;
        stats.delays_fused += fusions;
        stats.subexpressions_merged += merged;
        stats.dead_removed += swept;
        changed += folded + known.total() + muxes + fusions + merged + swept;
        if changed == 0 {
            break;
        }
    }
    n.validate().expect("optimize: optimized netlist must validate");
    assert!(
        n.combinational_order().is_some(),
        "optimize: optimized netlist acquired a combinational cycle"
    );
    // Area invariant: no pass may grow the total register bits (delay
    // fusion *moves* stages, it must never duplicate them).
    let register_bits = |n: &Netlist| -> u64 {
        n.iter().map(|(_, node)| node.kind.pipeline_depth() as u64 * node.width as u64).sum()
    };
    assert!(
        register_bits(&n) <= register_bits(netlist),
        "optimize: register bits grew from {} to {}",
        register_bits(netlist),
        register_bits(&n)
    );
    assert_eq!(n.inputs, netlist.inputs, "optimize: input ports are interface");
    assert_eq!(
        n.outputs.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>(),
        netlist.outputs.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>(),
        "optimize: output ports are interface"
    );
    stats.nodes_after = n.node_count();
    stats.sequential_after = n.sequential_count();
    (n, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_ir::PipeOp;
    use lilac_sim::{CompiledSim, SimBackend, Simulator};
    use lilac_util::rng::Rng;

    /// Drives `a` and `b` with the same random stimuli through one
    /// [`SimBackend`] constructor and asserts every output matches on every
    /// cycle.
    fn assert_cycle_exact_with<B: SimBackend>(
        a: &Netlist,
        b: &Netlist,
        seed: u64,
        cycles: usize,
        backend: &str,
        make: impl Fn(&Netlist) -> B,
    ) {
        let mut rng = Rng::new(seed);
        let mut sim_a = make(a);
        let mut sim_b = make(b);
        let outputs = sim_a.output_names();
        for cycle in 0..cycles {
            for port in &a.inputs {
                let value = rng.next_u64();
                sim_a.set_input(&port.name, value);
                sim_b.set_input(&port.name, value);
            }
            for name in &outputs {
                assert_eq!(
                    sim_a.output(name),
                    sim_b.output(name),
                    "output `{name}` diverged at cycle {cycle} of `{}` under the {backend}",
                    a.name
                );
            }
            sim_a.step();
            sim_b.step();
        }
    }

    /// Runs the cycle-exactness check under both simulation backends: the
    /// reference interpreter and the compiled tape.
    fn assert_cycle_exact(a: &Netlist, b: &Netlist, seed: u64, cycles: usize) {
        assert_cycle_exact_with(a, b, seed, cycles, "interpreter", |n| {
            Simulator::new(n).expect("netlist simulates")
        });
        assert_cycle_exact_with(a, b, seed, cycles, "compiled tape", |n| {
            CompiledSim::new(n).expect("netlist compiles")
        });
    }

    #[test]
    fn constant_folding_uses_simulation_semantics() {
        let mut n = Netlist::new("fold");
        let a = n.add_const(200, 8);
        let b = n.add_const(100, 8);
        let sum = n.add_node(NodeKind::Add, vec![a, b], 8, "sum"); // wraps to 44
        let i = n.add_input("i", 8);
        let x = n.add_node(NodeKind::Xor, vec![sum, i], 8, "x");
        n.add_output("o", x);
        let (opt, stats) = optimize_with_stats(&n);
        assert!(stats.constants_folded >= 1);
        let folded = opt.node(opt.node(opt.output("o").unwrap()).inputs[0]).kind.clone();
        let other = opt.node(opt.node(opt.output("o").unwrap()).inputs[1]).kind.clone();
        assert!(
            folded == NodeKind::Const(44) || other == NodeKind::Const(44),
            "44 = (200 + 100) mod 256 must appear: {folded:?} / {other:?}"
        );
        assert_cycle_exact(&n, &opt, 1, 16);
    }

    #[test]
    fn zero_fed_registers_fold_away() {
        let mut n = Netlist::new("zreg");
        let z = n.add_const(0, 8);
        let r1 = n.add_node(NodeKind::Reg, vec![z], 8, "r1");
        let d = n.add_node(NodeKind::Delay(5), vec![r1], 8, "d");
        let i = n.add_input("i", 8);
        let o = n.add_node(NodeKind::Or, vec![d, i], 8, "o");
        let core = n.add_node(
            NodeKind::PipelinedOp { op: PipeOp::FMul, latency: 3, ii: 1 },
            vec![z, i],
            8,
            "core0", // 0 * i is not constant: i is not a Const node
        );
        let o2 = n.add_node(NodeKind::Add, vec![o, core], 8, "o2");
        n.add_output("o", o2);
        let (opt, stats) = optimize_with_stats(&n);
        // `0 * i` is not syntactically constant (i is an input), but the
        // known-bits folder proves the FMul core's product is 0 for every
        // input, so *no* state survives at all.
        assert_eq!(opt.sequential_count(), 0, "all state is provably zero: {stats:?}");
        assert!(stats.known_bits_folded >= 1, "{stats:?}");
        assert_cycle_exact(&n, &opt, 2, 24);
    }

    #[test]
    fn cse_merges_duplicates_including_sequential() {
        let mut n = Netlist::new("cse");
        let a = n.add_input("a", 8);
        let b = n.add_input("b", 8);
        let s1 = n.add_node(NodeKind::Add, vec![a, b], 8, "s1");
        let s2 = n.add_node(NodeKind::Add, vec![a, b], 8, "s2");
        let r1 = n.add_node(NodeKind::Reg, vec![s1], 8, "r1");
        let r2 = n.add_node(NodeKind::Reg, vec![s2], 8, "r2");
        let x = n.add_node(NodeKind::Xor, vec![r1, r2], 8, "x"); // == 0
        n.add_output("o", x);
        let (opt, stats) = optimize_with_stats(&n);
        assert!(stats.subexpressions_merged >= 2, "{stats:?}");
        // After CSE merges r1/r2, `r ^ r` is pinned to 0 by the known-bits
        // folder, so the register itself becomes dead and is swept.
        assert_eq!(opt.sequential_count(), 0);
        assert!(stats.known_bits_folded >= 1, "{stats:?}");
        assert_cycle_exact(&n, &opt, 3, 16);
    }

    #[test]
    fn mux_simplification_handles_const_select_and_identical_arms() {
        let mut n = Netlist::new("mux");
        let a = n.add_input("a", 8);
        let b = n.add_input("b", 8);
        let one = n.add_const(1, 1);
        let m1 = n.add_node(NodeKind::Mux, vec![one, a, b], 8, "m1"); // = a
        let sel = n.add_node(NodeKind::Lt, vec![a, b], 1, "sel");
        let m2 = n.add_node(NodeKind::Mux, vec![sel, m1, m1], 8, "m2"); // = m1
        n.add_output("o", m2);
        let (opt, stats) = optimize_with_stats(&n);
        assert!(stats.muxes_simplified >= 2, "{stats:?}");
        assert_eq!(opt.output("o"), opt.input("a"), "both muxes collapse to the input");
        assert_cycle_exact(&n, &opt, 4, 16);
    }

    // -- strength reduction: one-constant-operand identities ---------------

    /// Builds `op(lhs, rhs)` feeding an output (with an extra use of the
    /// non-const input so the netlist stays non-trivial), optimizes, and
    /// returns the optimized netlist plus stats.
    fn reduce_binary(
        op: NodeKind,
        const_val: u64,
        const_on_left: bool,
    ) -> (Netlist, Netlist, OptStats) {
        let mut n = Netlist::new("sr");
        let x = n.add_input("x", 8);
        let k = n.add_const(const_val, 8);
        let (a, b) = if const_on_left { (k, x) } else { (x, k) };
        let node = n.add_node(op, vec![a, b], 8, "node");
        let r = n.add_node(NodeKind::Reg, vec![node], 8, "r");
        n.add_output("o", r);
        let (opt, stats) = optimize_with_stats(&n);
        (n, opt, stats)
    }

    #[test]
    fn strength_reduction_add_zero() {
        for const_on_left in [false, true] {
            let (n, opt, stats) = reduce_binary(NodeKind::Add, 0, const_on_left);
            assert!(stats.constants_folded >= 1, "{stats:?}");
            // The add is gone: the register reads the input directly.
            let reg = opt.output("o").unwrap();
            assert_eq!(opt.node(reg).inputs[0], opt.input("x").unwrap());
            assert_cycle_exact(&n, &opt, 101, 16);
        }
    }

    #[test]
    fn strength_reduction_sub_zero_is_one_sided() {
        let (n, opt, stats) = reduce_binary(NodeKind::Sub, 0, false);
        assert!(stats.constants_folded >= 1, "x - 0 reduces: {stats:?}");
        let reg = opt.output("o").unwrap();
        assert_eq!(opt.node(reg).inputs[0], opt.input("x").unwrap());
        assert_cycle_exact(&n, &opt, 102, 16);

        // 0 - x is NOT x; it must survive untouched.
        let (n, opt, stats) = reduce_binary(NodeKind::Sub, 0, true);
        assert_eq!(stats.constants_folded, 0, "0 - x must not reduce: {stats:?}");
        assert!(opt.iter().any(|(_, node)| node.kind == NodeKind::Sub));
        assert_cycle_exact(&n, &opt, 103, 16);
    }

    #[test]
    fn strength_reduction_mul_one() {
        for const_on_left in [false, true] {
            let (n, opt, stats) = reduce_binary(NodeKind::Mul, 1, const_on_left);
            assert!(stats.constants_folded >= 1, "{stats:?}");
            let reg = opt.output("o").unwrap();
            assert_eq!(opt.node(reg).inputs[0], opt.input("x").unwrap());
            assert_cycle_exact(&n, &opt, 104, 16);
        }
    }

    #[test]
    fn strength_reduction_mul_zero_and_and_zero_absorb() {
        for op in [NodeKind::Mul, NodeKind::And] {
            for const_on_left in [false, true] {
                let (n, opt, stats) = reduce_binary(op.clone(), 0, const_on_left);
                assert!(stats.constants_folded >= 1, "{stats:?}");
                // The whole cone folds to a zero-fed register, which the
                // zero-state rule then folds to a constant output.
                let driver = opt.output("o").unwrap();
                assert_eq!(opt.node(driver).kind, NodeKind::Const(0), "{op:?}");
                assert_cycle_exact(&n, &opt, 105, 16);
            }
        }
    }

    #[test]
    fn strength_reduction_or_xor_zero() {
        for op in [NodeKind::Or, NodeKind::Xor] {
            for const_on_left in [false, true] {
                let (n, opt, stats) = reduce_binary(op.clone(), 0, const_on_left);
                assert!(stats.constants_folded >= 1, "{op:?}: {stats:?}");
                let reg = opt.output("o").unwrap();
                assert_eq!(opt.node(reg).inputs[0], opt.input("x").unwrap(), "{op:?}");
                assert_cycle_exact(&n, &opt, 106, 16);
            }
        }
    }

    #[test]
    fn strength_reduction_respects_width_masks() {
        // x@16 * 1 at a 4-bit node: the passthrough must keep the 4-bit
        // mask, not forward the 16-bit input directly.
        let mut n = Netlist::new("srw");
        let x = n.add_input("x", 16);
        let one = n.add_const(1, 8);
        let m = n.add_node(NodeKind::Mul, vec![x, one], 4, "m");
        n.add_output("o", m);
        let (opt, stats) = optimize_with_stats(&n);
        assert!(stats.constants_folded >= 1, "{stats:?}");
        assert_ne!(opt.output("o"), opt.input("x"), "the 4-bit mask must survive");
        assert_cycle_exact(&n, &opt, 107, 16);
    }

    #[test]
    fn mux_with_equal_constant_arms_collapses() {
        // Mux(sel, Const(7), Const(7)) with a non-const select: the arms
        // are distinct nodes, so the identical-arms (by id) check misses
        // it; the equal-valued-constants rule collapses it.
        let mut n = Netlist::new("muxk");
        let a = n.add_input("a", 8);
        let b = n.add_input("b", 8);
        let sel = n.add_node(NodeKind::Lt, vec![a, b], 1, "sel");
        let k1 = n.add_const(7, 8);
        let k2 = n.add_const(7, 4); // same value at a different width
        let m = n.add_node(NodeKind::Mux, vec![sel, k1, k2], 8, "m");
        let x = n.add_node(NodeKind::Xor, vec![m, a], 8, "x");
        n.add_output("o", x);
        let (opt, stats) = optimize_with_stats(&n);
        assert!(stats.muxes_simplified >= 1, "{stats:?}");
        assert!(!opt.iter().any(|(_, node)| matches!(node.kind, NodeKind::Mux)));
        assert_cycle_exact(&n, &opt, 108, 16);

        // Different values must keep the mux.
        let mut d = Netlist::new("muxd");
        let a = d.add_input("a", 8);
        let b = d.add_input("b", 8);
        let sel = d.add_node(NodeKind::Lt, vec![a, b], 1, "sel");
        let k1 = d.add_const(7, 8);
        let k2 = d.add_const(9, 8);
        let m = d.add_node(NodeKind::Mux, vec![sel, k1, k2], 8, "m");
        d.add_output("o", m);
        let (opt, stats) = optimize_with_stats(&d);
        assert_eq!(stats.muxes_simplified, 0, "{stats:?}");
        assert!(opt.iter().any(|(_, node)| matches!(node.kind, NodeKind::Mux)));
        assert_cycle_exact(&d, &opt, 109, 16);
    }

    #[test]
    fn delay_chains_fuse_end_to_end() {
        let mut n = Netlist::new("chain");
        let i = n.add_input("i", 8);
        let r1 = n.add_node(NodeKind::Reg, vec![i], 8, "r1");
        let r2 = n.add_node(NodeKind::Reg, vec![r1], 8, "r2");
        let d = n.add_node(NodeKind::Delay(3), vec![r2], 8, "d");
        n.add_output("o", d);
        let (opt, stats) = optimize_with_stats(&n);
        assert!(stats.delays_fused >= 2, "{stats:?}");
        let driver = opt.output("o").unwrap();
        assert_eq!(opt.node(driver).kind, NodeKind::Delay(5), "one fused 5-deep delay");
        assert_eq!(opt.node_count(), 2);
        assert_cycle_exact(&n, &opt, 5, 24);
    }

    #[test]
    fn narrowing_delay_chain_is_not_fused() {
        // i (16 bits) -> Delay(1) @ 4 bits -> Delay(1) @ 16 bits: fusing the
        // outer delay onto i would skip the 4-bit mask — and re-register the
        // narrow stage at 16 bits, growing the total register bits.
        let mut n = Netlist::new("narrow");
        let i = n.add_input("i", 16);
        let d1 = n.add_node(NodeKind::Delay(1), vec![i], 4, "d1");
        let d2 = n.add_node(NodeKind::Delay(1), vec![d1], 16, "d2");
        n.add_output("o", d2);
        let (opt, stats) = optimize_with_stats(&n);
        assert_eq!(stats.delays_fused, 0, "{stats:?}");
        assert_cycle_exact(&n, &opt, 6, 24);
    }

    #[test]
    fn widening_delay_chain_is_not_fused_either() {
        // Regression: i@4 -> Delay(1)@4 -> Delay(1)@16. The fusion is
        // value-correct (the 4-bit mask is redundant: the driver is already
        // 4 bits), but `Delay(2)` at 16 bits would carry 32 register bits
        // where the original pair carries 20 — the old width guard allowed
        // this and optimize()'s area invariant then panicked.
        let mut n = Netlist::new("widen");
        let i = n.add_input("i", 4);
        let d1 = n.add_node(NodeKind::Delay(1), vec![i], 4, "d1");
        let d2 = n.add_node(NodeKind::Delay(1), vec![d1], 16, "d2");
        n.add_output("o", d2);
        let (opt, stats) = optimize_with_stats(&n); // must not panic
        assert_eq!(stats.delays_fused, 0, "{stats:?}");
        assert_cycle_exact(&n, &opt, 12, 24);

        // Equal widths on the registered stages still fuse.
        let mut m = Netlist::new("equal");
        let i = m.add_input("i", 4);
        let d1 = m.add_node(NodeKind::Delay(1), vec![i], 4, "d1");
        let d2 = m.add_node(NodeKind::Delay(1), vec![d1], 4, "d2");
        let wide = m.add_node(NodeKind::Delay(0), vec![d2], 16, "wide");
        m.add_output("o", wide);
        let (opt, stats) = optimize_with_stats(&m);
        assert!(stats.delays_fused >= 1, "{stats:?}");
        assert_cycle_exact(&m, &opt, 13, 24);
    }

    #[test]
    fn dead_nodes_are_swept_but_inputs_survive() {
        let mut n = Netlist::new("dead");
        let a = n.add_input("a", 8);
        let b = n.add_input("unused", 8);
        let x = n.add_node(NodeKind::Not, vec![b], 8, "dead_logic");
        let r = n.add_node(NodeKind::Reg, vec![x], 8, "dead_reg");
        let keep = n.add_node(NodeKind::Not, vec![a], 8, "keep");
        n.add_output("o", keep);
        let (opt, stats) = optimize_with_stats(&n);
        assert!(stats.dead_removed >= 2, "{stats:?}");
        assert_eq!(opt.node_count(), 3, "a, unused (interface), keep");
        assert_eq!(opt.inputs.len(), 2, "unused input port is still declared");
        assert_cycle_exact(&n, &opt, 7, 8);
        let _ = (r, b);
    }

    #[test]
    fn cross_coupled_registers_reach_a_fixpoint() {
        // Regression: fusing around a pure-delay loop used to walk the loop
        // every iteration, inflating Delay depths (Delay(33) from two
        // cross-coupled flops) without ever converging.
        let mut n = Netlist::new("cross");
        let seed = n.add_const(0, 8);
        let r1 = n.add_node(NodeKind::Reg, vec![seed], 8, "r1");
        let r2 = n.add_node(NodeKind::Reg, vec![r1], 8, "r2");
        n.set_inputs(r1, vec![r2]);
        n.add_output("a", r1);
        n.add_output("b", r2);
        let (opt, stats) = optimize_with_stats(&n);
        assert!(stats.iterations <= 3, "must converge immediately: {stats:?}");
        assert_eq!(stats.delays_fused, 0, "nothing on the loop may fuse: {stats:?}");
        // The ring powers up at zero and can only ever shift zeros around,
        // so the known-bits folder dissolves it outright; what matters for
        // the fusion regression is that `fuse_delays` (which saw the intact
        // ring on the first iteration) never walked it.
        let depth: u32 = opt.iter().map(|(_, node)| node.kind.pipeline_depth()).sum();
        assert_eq!(depth, 0, "the all-zero ring folds away entirely: {stats:?}");
        assert!(stats.known_bits_folded >= 2, "{stats:?}");
        assert_cycle_exact(&n, &opt, 9, 16);
        assert_eq!(optimize(&opt), opt, "idempotent on the loop");
    }

    #[test]
    fn delay_ring_of_three_reaches_a_fixpoint() {
        let mut n = Netlist::new("ring");
        let seed = n.add_const(0, 4);
        let r1 = n.add_node(NodeKind::Reg, vec![seed], 4, "r1");
        let r2 = n.add_node(NodeKind::Delay(2), vec![r1], 4, "r2");
        let r3 = n.add_node(NodeKind::Reg, vec![r2], 4, "r3");
        n.set_inputs(r1, vec![r3]);
        // A chain hanging off the ring must not fuse *into* it either.
        let tap = n.add_node(NodeKind::Reg, vec![r2], 4, "tap");
        n.add_output("o", tap);
        let (opt, stats) = optimize_with_stats(&n);
        assert!(stats.iterations <= 2, "{stats:?}");
        let depth: u32 = opt.iter().map(|(_, node)| node.kind.pipeline_depth()).sum();
        assert!(depth <= 5, "ring depth must not inflate: {depth}");
        assert_cycle_exact(&n, &opt, 10, 24);
        assert_eq!(optimize(&opt), opt);
    }

    #[test]
    fn fan_out_delay_stage_is_not_duplicated() {
        // d reads x, but x also drives an output: fusing d through x would
        // *duplicate* x's register rather than eliminate it.
        let mut n = Netlist::new("fanout");
        let i = n.add_input("i", 8);
        let x = n.add_node(NodeKind::Reg, vec![i], 8, "x");
        let d = n.add_node(NodeKind::Delay(2), vec![x], 8, "d");
        n.add_output("tap", x);
        n.add_output("o", d);
        let (opt, stats) = optimize_with_stats(&n);
        assert_eq!(stats.delays_fused, 0, "sole-consumer guard must hold: {stats:?}");
        let depth: u32 = opt.iter().map(|(_, node)| node.kind.pipeline_depth()).sum();
        assert_eq!(depth, 3, "register depth must not grow");
        assert_cycle_exact(&n, &opt, 11, 16);
    }

    #[test]
    fn feedback_loops_survive_optimization() {
        // A counter: reg -> add(+1) -> reg. Nothing here is removable, and
        // the loop must not confuse CSE or delay fusion.
        let mut n = Netlist::new("counter");
        let one = n.add_const(1, 8);
        let reg = n.add_node(NodeKind::Reg, vec![one], 8, "count");
        let next = n.add_node(NodeKind::Add, vec![reg, one], 8, "next");
        n.set_inputs(reg, vec![next]);
        n.add_output("o", reg);
        let (opt, _) = optimize_with_stats(&n);
        assert_eq!(opt.sequential_count(), 1);
        assert_cycle_exact(&n, &opt, 8, 24);
    }

    #[test]
    #[should_panic(expected = "combinational cycle")]
    fn combinationally_cyclic_input_panics_instead_of_hanging() {
        // Regression: a Delay(0) loop passes `validate` (it checks widths
        // and arity, not cycles) and used to send copy-propagation's path
        // compression chasing its own tail forever.
        let mut n = Netlist::new("d0loop");
        let a = n.add_input("i", 8);
        let d1 = n.add_node(NodeKind::Delay(0), vec![a], 8, "d1");
        let d2 = n.add_node(NodeKind::Delay(0), vec![d1], 8, "d2");
        n.set_inputs(d1, vec![d2]);
        n.add_output("o", d1);
        assert!(n.validate().is_ok(), "validate alone does not catch the loop");
        let _ = optimize(&n);
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut n = Netlist::new("idem");
        let a = n.add_input("a", 8);
        let c = n.add_const(5, 8);
        let s = n.add_node(NodeKind::Add, vec![a, c], 8, "s");
        let r1 = n.add_node(NodeKind::Reg, vec![s], 8, "r1");
        let r2 = n.add_node(NodeKind::Reg, vec![r1], 8, "r2");
        n.add_output("o", r2);
        let once = optimize(&n);
        let twice = optimize(&once);
        assert_eq!(once, twice);
    }

    // -- randomized A/B: optimize(n) ≡ n under the simulator ----------------

    /// Draws a random valid netlist: a typed DAG over every node kind, with
    /// occasional feedback loops closed through sequential nodes.
    fn random_netlist(seed: u64) -> Netlist {
        let mut rng = Rng::new(seed);
        let mut n = Netlist::new(format!("rand_{seed}"));
        let n_inputs = 1 + rng.index(3);
        let mut ids: Vec<NodeId> = Vec::new();
        for i in 0..n_inputs {
            ids.push(n.add_input(format!("i{i}"), 1 + rng.index(16) as u32));
        }
        let n_nodes = 4 + rng.index(28);
        for k in 0..n_nodes {
            let any = |rng: &mut Rng, ids: &[NodeId]| ids[rng.index(ids.len())];
            let width = 1 + rng.index(16) as u32;
            let id = match rng.index(12) {
                0 => n.add_const(rng.next_u64(), width),
                1 => {
                    let a = any(&mut rng, &ids);
                    n.add_node(NodeKind::Reg, vec![a], width, format!("n{k}"))
                }
                2 => {
                    let (a, e) = (any(&mut rng, &ids), any(&mut rng, &ids));
                    n.add_node(NodeKind::RegEn, vec![a, e], width, format!("n{k}"))
                }
                3 => {
                    let a = any(&mut rng, &ids);
                    let d = rng.index(4) as u32;
                    n.add_node(NodeKind::Delay(d), vec![a], width, format!("n{k}"))
                }
                4 => {
                    let (a, b) = (any(&mut rng, &ids), any(&mut rng, &ids));
                    let kind = match rng.index(6) {
                        0 => NodeKind::Add,
                        1 => NodeKind::Sub,
                        2 => NodeKind::Mul,
                        3 => NodeKind::And,
                        4 => NodeKind::Or,
                        _ => NodeKind::Xor,
                    };
                    n.add_node(kind, vec![a, b], width, format!("n{k}"))
                }
                5 => {
                    let a = any(&mut rng, &ids);
                    n.add_node(NodeKind::Not, vec![a], width, format!("n{k}"))
                }
                6 => {
                    let (a, b) = (any(&mut rng, &ids), any(&mut rng, &ids));
                    let kind = if rng.chance(1, 2) { NodeKind::Eq } else { NodeKind::Lt };
                    n.add_node(kind, vec![a, b], 1, format!("n{k}"))
                }
                7 => {
                    let (s, a, b) = (any(&mut rng, &ids), any(&mut rng, &ids), any(&mut rng, &ids));
                    n.add_node(NodeKind::Mux, vec![s, a, b], width, format!("n{k}"))
                }
                8 => {
                    let a = any(&mut rng, &ids);
                    let lo = rng.index(8) as u32;
                    n.add_node(NodeKind::Slice { lo }, vec![a], width, format!("n{k}"))
                }
                9 => {
                    let parts = 1 + rng.index(3);
                    let inputs: Vec<NodeId> = (0..parts).map(|_| any(&mut rng, &ids)).collect();
                    n.add_node(NodeKind::Concat, inputs, width, format!("n{k}"))
                }
                10 => {
                    let (a, b) = (any(&mut rng, &ids), any(&mut rng, &ids));
                    let op = if rng.chance(1, 2) { PipeOp::FAdd } else { PipeOp::IntMul };
                    let latency = rng.index(4) as u32;
                    n.add_node(
                        NodeKind::PipelinedOp { op, latency, ii: 1 },
                        vec![a, b],
                        width,
                        format!("n{k}"),
                    )
                }
                _ => {
                    let a = any(&mut rng, &ids);
                    n.add_node(NodeKind::Delay(0), vec![a], width, format!("n{k}"))
                }
            };
            ids.push(id);
        }
        // Occasionally close a feedback loop through a sequential node (its
        // data operand may legally read anything, including later nodes).
        for _ in 0..rng.index(3) {
            let id = ids[rng.index(ids.len())];
            if n.node(id).kind.is_sequential() && !matches!(n.node(id).kind, NodeKind::RegEn) {
                let target = ids[rng.index(ids.len())];
                n.set_inputs(id, vec![target]);
            }
        }
        let n_outputs = 1 + rng.index(3);
        for o in 0..n_outputs {
            let pick = ids[ids.len() / 2 + rng.index(ids.len() - ids.len() / 2)];
            n.add_output(format!("o{o}"), pick);
        }
        n
    }

    #[test]
    fn optimized_netlists_are_cycle_exact_on_random_designs() {
        let mut nontrivial = 0;
        for seed in 0..150 {
            let n = random_netlist(seed);
            assert!(n.validate().is_ok(), "seed {seed}");
            let (opt, stats) = optimize_with_stats(&n);
            assert!(
                stats.nodes_after <= stats.nodes_before,
                "seed {seed}: optimizer grew the netlist: {stats:?}"
            );
            if stats.total_rewrites() > 0 {
                nontrivial += 1;
            }
            assert_cycle_exact(&n, &opt, seed ^ 0xDEAD, 24);
        }
        assert!(nontrivial > 100, "the generator must exercise the passes: {nontrivial}");
    }

    #[test]
    fn optimization_is_deterministic() {
        for seed in 0..20 {
            let n = random_netlist(seed);
            let (a, sa) = optimize_with_stats(&n);
            let (b, sb) = optimize_with_stats(&n);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(sa, sb, "seed {seed}");
        }
    }
}
