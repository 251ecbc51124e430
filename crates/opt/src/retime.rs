//! Register retiming driven by the synthesis cost model.
//!
//! The fusion pass in the parent crate can *shorten* a register chain but
//! never *move* one: wherever elaboration happened to place pipeline
//! stages, that is where the critical path gets cut, and `lilac-synth`'s
//! `fmax` numbers are stuck there. This module relocates `Reg`/`Delay`
//! stages across combinational logic to balance stage delays — the first
//! pass in the workspace that rewrites *where state lives* rather than
//! collapsing it — while preserving the contract every backend relies on:
//! the retimed netlist is **cycle-for-cycle, bit-for-bit equivalent on
//! every output, from power-up onward**.
//!
//! # The two moves
//!
//! *Forward* (across a combinational node `c`, toward the outputs): every
//! non-constant operand of `c` is a `Reg`/`Delay(d ≥ 1)` stage consumed
//! only by `c`; each such stage loses one cycle of depth and a fresh
//! one-cycle stage is inserted after `c` (every former reader of `c`,
//! output ports included, now reads the new stage).
//!
//! *Backward* (across the combinational node `c` driving a stage, toward
//! the inputs): a `Reg`/`Delay(d ≥ 1)` stage whose sole upstream is `c`
//! (and `c` is consumed by nothing else) loses one cycle of depth, and
//! every non-constant operand of `c` gains a fresh one-cycle stage at the
//! operand's own declared width.
//!
//! # Legality
//!
//! Both moves preserve the register count of **every** input-to-output
//! path (so per-output path latency is exactly unchanged —
//! [`Netlist::output_min_latencies`] is asserted invariant), and:
//!
//! * registers never move across state-carrying nodes: only `Reg`/`Delay`
//!   stages move, only across combinational nodes, so `RegEn` and
//!   pipelined cores are never crossed and never relocated (a `RegEn`'s
//!   load/hold history, or a core's internal pipe, is not a delay line);
//! * declared widths are respected at every cut: a decremented stage keeps
//!   its width (its mask stays exactly where it was — `Delay(0)` still
//!   masks combinationally), the forward move's new stage carries `c`'s
//!   width, and the backward move's new stages carry each operand's width,
//!   so no mask is skipped, narrowed, or widened;
//! * no move can create a combinational cycle: a stage decremented to
//!   `Delay(0)` becomes transparent, but every path through it still
//!   passes the freshly inserted one-cycle stage (forward: all its
//!   consumers route through the new stage; backward: all of `c`'s
//!   operands do), which re-breaks any loop. The driver re-checks
//!   [`Netlist::combinational_order`] after every accepted move anyway;
//! * zero power-up boundary: with all state powering up at zero, moving a
//!   register across `c` changes what the boundary cycles observe from
//!   `c(0, …, 0, consts…)` to a register's initial 0. The move is only
//!   legal when those agree — `c`'s value over zeroed non-constant
//!   operands and actual constant operands, masked to `c`'s width, must
//!   be 0. (`Add`/`Mul`/`And`/`Or`/`Xor`/`Concat`/`Slice`/`Mux`… over
//!   zeros are zero; `Not` and `Eq` are not, and never retime.)
//!
//! # The driver
//!
//! Candidate moves are enumerated structurally (pruned by
//! [`Netlist::combinational_slack`]: a forward move needs combinational
//! logic *after* the node, a backward move needs it *before*), then scored
//! by [`lilac_synth::timing_detail`] — the same analytic timing model
//! `EXPERIMENTS.md`'s tables are built from. The objective is
//! lexicographic: the estimated critical path first, the *size of the
//! critical set* (endpoints tied at the maximum) second. The secondary
//! term is what makes tied parallel paths retimable at all: with N
//! identical blend lanes at the critical delay, no single move shortens
//! the maximum, but each move that rebalances one lane empties the
//! critical set by one — and rebalancing the last lane drops the path
//! itself.
//!
//! Probes run in place on the one working netlist: each candidate is
//! applied, timed, and undone. The undo record holds only what the move
//! touched (the decremented stages' old kinds, the rewired operand edges
//! and output drivers), and undoing truncates the fresh stages, so the
//! netlist comes back exactly and the consumer table computed once per
//! round stays valid for every probe. A forward move finds the readers it
//! rewires in that table instead of scanning the netlist. The winner is
//! applied once more. The fixpoint loop applies the best strictly-improving
//! move until none remains, so the pair decreases monotonically and
//! `critical_path_ns(retime(n)) <= critical_path_ns(n)` holds by
//! construction. The fuzzer's seventh differential oracle holds the rest:
//! `retime(n) ≡ n` under `lilac-sim` on every output of every cycle.

use lilac_ir::{mask, Netlist, NodeId, NodeKind};
use lilac_synth::{timing_detail, TimingDetail};

/// Minimum critical-path improvement (ns) for a move to be accepted; keeps
/// the fixpoint from churning on floating-point dust.
const MIN_GAIN_NS: f64 = 1e-6;

/// Safety cap on accepted moves (each strictly improves the critical path,
/// so this is a backstop, not a budget).
const MAX_MOVES: usize = 256;

/// Per-run statistics of one [`retime`] invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RetimeStats {
    /// Nodes before retiming (including inputs).
    pub nodes_before: usize,
    /// Nodes after retiming (forward/backward moves insert fresh stages).
    pub nodes_after: usize,
    /// Total register bits (`pipeline_depth × width`) before retiming.
    pub register_bits_before: u64,
    /// Total register bits after retiming.
    pub register_bits_after: u64,
    /// Accepted forward moves (registers relocated toward the outputs).
    pub forward_moves: usize,
    /// Accepted backward moves (registers relocated toward the inputs).
    pub backward_moves: usize,
    /// Candidate moves scored against the cost model across all rounds.
    pub candidates_scored: usize,
    /// Estimated critical path before retiming, in ns.
    pub critical_path_before_ns: f64,
    /// Estimated critical path after retiming, in ns.
    pub critical_path_after_ns: f64,
}

impl RetimeStats {
    /// Total accepted moves.
    pub fn moves(&self) -> usize {
        self.forward_moves + self.backward_moves
    }

    /// Estimated fmax gain in percent (0 when nothing moved).
    pub fn fmax_gain_pct(&self) -> f64 {
        if self.critical_path_after_ns <= 0.0 {
            0.0
        } else {
            100.0 * (self.critical_path_before_ns / self.critical_path_after_ns - 1.0)
        }
    }
}

/// A candidate register relocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Move {
    /// Move one register cycle from every (non-constant) operand stage of
    /// this combinational node to a fresh stage after it.
    Forward(NodeId),
    /// Move one register cycle from this stage to fresh stages on every
    /// (non-constant) operand of the combinational node driving it.
    Backward(NodeId),
}

/// Consumer table: every reader of each node (one entry per operand edge)
/// plus whether the node drives a declared output port.
struct Uses {
    consumers: Vec<Vec<NodeId>>,
    drives_output: Vec<bool>,
}

fn uses(n: &Netlist) -> Uses {
    let consumers = n.consumers();
    let mut drives_output = vec![false; n.node_count()];
    for (_, driver) in &n.outputs {
        drives_output[driver.0 as usize] = true;
    }
    Uses { consumers, drives_output }
}

/// Depth of a relocatable stage: `Reg` and `Delay` only. `RegEn` and
/// pipelined cores are state-carrying, not delay lines — never moved.
fn stage_depth(kind: &NodeKind) -> Option<u32> {
    match kind {
        NodeKind::Reg => Some(1),
        NodeKind::Delay(d) => Some(*d),
        _ => None,
    }
}

/// True for nodes a register may move across: combinational, with at least
/// one operand (rules out `Input`/`Const`, which are path endpoints).
fn crossable(kind: &NodeKind) -> bool {
    !kind.is_sequential() && !matches!(kind, NodeKind::Input(_) | NodeKind::Const(_))
}

/// The value `c` shows during boundary cycles, when every moved stage
/// still holds its power-up zero: `c` evaluated over 0 for each
/// non-constant operand and the actual value of each `Const` operand,
/// masked to `c`'s width. A move across `c` is exact iff this is 0.
fn powerup_value(n: &Netlist, c: NodeId) -> Option<u64> {
    let node = n.node(c);
    let operands: Vec<(u64, u32)> = node
        .inputs
        .iter()
        .map(|&x| {
            let op = n.node(x);
            match op.kind {
                NodeKind::Const(v) => (mask(v, op.width), op.width),
                _ => (0, op.width),
            }
        })
        .collect();
    node.kind.comb_value(&operands, node.width)
}

/// Decrements a `Reg`/`Delay` stage by one cycle in place.
fn decrement_stage(n: &mut Netlist, s: NodeId) {
    let node = n.node_mut(s);
    node.kind = match node.kind {
        NodeKind::Reg => NodeKind::Delay(0),
        NodeKind::Delay(d) => {
            debug_assert!(d >= 1, "cannot decrement a passthrough");
            NodeKind::Delay(d - 1)
        }
        ref other => unreachable!("decrement of non-stage node {other:?}"),
    };
}

/// Enumerates every legal candidate move, in deterministic (node-id)
/// order, pruned to moves that can plausibly shorten a combinational path:
/// forward moves need logic downstream of the crossed node, backward moves
/// need logic upstream of it.
fn candidates(n: &Netlist, u: &Uses) -> Vec<Move> {
    let Some(slack) = n.combinational_slack() else { return Vec::new() };
    let mut moves = Vec::new();
    for (id, node) in n.iter() {
        // Forward: `id` is the combinational node being crossed.
        if crossable(&node.kind)
            && !node.inputs.is_empty()
            && slack[id.0 as usize].depth_out >= 1
            && forward_operands_legal(n, node, u, id)
            && powerup_value(n, id) == Some(0)
        {
            moves.push(Move::Forward(id));
        }
        // Backward: `id` is the stage whose driver is crossed.
        if stage_depth(&node.kind).is_some_and(|d| d >= 1) {
            let c = node.inputs[0];
            let cn = n.node(c);
            if crossable(&cn.kind)
                && slack[c.0 as usize].depth_in >= 2
                && u.consumers[c.0 as usize].iter().all(|&r| r == id)
                && !u.drives_output[c.0 as usize]
                && powerup_value(n, c) == Some(0)
            {
                moves.push(Move::Backward(id));
            }
        }
    }
    moves
}

/// Forward-move operand legality: every non-constant operand is a
/// `Reg`/`Delay(d ≥ 1)` stage consumed only by `c` (and by no output
/// port), and at least one such stage exists.
fn forward_operands_legal(n: &Netlist, c_node: &lilac_ir::Node, u: &Uses, c: NodeId) -> bool {
    let mut any_stage = false;
    for &x in &c_node.inputs {
        let xn = n.node(x);
        if matches!(xn.kind, NodeKind::Const(_)) {
            continue;
        }
        match stage_depth(&xn.kind) {
            Some(d) if d >= 1 => {}
            _ => return false,
        }
        if u.drives_output[x.0 as usize] || !u.consumers[x.0 as usize].iter().all(|&r| r == c) {
            return false;
        }
        any_stage = true;
    }
    any_stage
}

/// What one [`apply`] changed, so that [`undo`] restores the netlist
/// exactly.
struct Undo {
    /// Node count before the move; every node from here on is a fresh
    /// stage.
    len: usize,
    /// Each decremented stage and its kind before the move.
    stages: Vec<(NodeId, NodeKind)>,
    /// Each rewired operand edge: node, operand position, old operand.
    edges: Vec<(NodeId, usize, NodeId)>,
    /// Each rewired output port (forward moves across an output driver
    /// only): port index and old driver.
    outputs: Vec<(usize, NodeId)>,
}

/// Applies a move to `n` in place and returns what it changed. Both
/// rewrites add exactly one fresh stage node (forward) or one per distinct
/// non-constant operand (backward). `u` must be the consumer table of `n`
/// as it stands.
fn apply(n: &mut Netlist, mv: Move, u: &Uses) -> Undo {
    let mut change =
        Undo { len: n.node_count(), stages: Vec::new(), edges: Vec::new(), outputs: Vec::new() };
    match mv {
        Move::Forward(c) => {
            // Decrement each distinct non-constant operand stage once.
            for k in 0..n.node(c).inputs.len() {
                let x = n.node(c).inputs[k];
                if matches!(n.node(x).kind, NodeKind::Const(_))
                    || change.stages.iter().any(|&(s, _)| s == x)
                {
                    continue;
                }
                change.stages.push((x, n.node(x).kind.clone()));
                decrement_stage(n, x);
            }
            // Fresh one-cycle stage after `c`; every other reader of `c`
            // (and every output port `c` drove) now reads it.
            let width = n.node(c).width;
            let name = format!("{}_rt", n.node(c).name);
            let fresh = n.add_node(NodeKind::Delay(1), vec![c], width, name);
            for &r in &u.consumers[c.0 as usize] {
                // A reader of `c` through several operands is listed once per
                // edge; its first visit rewires all of them.
                for (k, input) in n.node_mut(r).inputs.iter_mut().enumerate() {
                    if *input == c {
                        *input = fresh;
                        change.edges.push((r, k, c));
                    }
                }
            }
            if u.drives_output[c.0 as usize] {
                for (k, (_, driver)) in n.outputs.iter_mut().enumerate() {
                    if *driver == c {
                        *driver = fresh;
                        change.outputs.push((k, c));
                    }
                }
            }
        }
        Move::Backward(s) => {
            let c = n.node(s).inputs[0];
            change.stages.push((s, n.node(s).kind.clone()));
            decrement_stage(n, s);
            // Fresh one-cycle stage on each distinct non-constant operand
            // of `c`, at the operand's own width (identity mask).
            let mut fresh: Vec<(NodeId, NodeId)> = Vec::new();
            for k in 0..n.node(c).inputs.len() {
                let x = n.node(c).inputs[k];
                if matches!(n.node(x).kind, NodeKind::Const(_)) {
                    continue;
                }
                let stage = match fresh.iter().find(|&&(op, _)| op == x) {
                    Some(&(_, stage)) => stage,
                    None => {
                        let width = n.node(x).width;
                        let name = format!("{}_rt", n.node(x).name);
                        let stage = n.add_node(NodeKind::Delay(1), vec![x], width, name);
                        fresh.push((x, stage));
                        stage
                    }
                };
                n.node_mut(c).inputs[k] = stage;
                change.edges.push((c, k, x));
            }
        }
    }
    change
}

/// Reverts an [`apply`]: restores every rewired output driver, operand
/// edge and stage kind, then drops the fresh stages, which nothing reads
/// any more.
fn undo(n: &mut Netlist, change: Undo) {
    for (k, driver) in change.outputs {
        n.outputs[k].1 = driver;
    }
    for (r, k, old) in change.edges {
        n.node_mut(r).inputs[k] = old;
    }
    for (s, kind) in change.stages {
        n.node_mut(s).kind = kind;
    }
    n.truncate_nodes(change.len);
}

/// The objective: `a` is strictly better than `b` when its critical path
/// is shorter by more than [`MIN_GAIN_NS`], or no longer and with a smaller
/// critical set.
fn lex_better(a: &TimingDetail, b: &TimingDetail) -> bool {
    a.critical_path_ns < b.critical_path_ns - MIN_GAIN_NS
        || (a.critical_path_ns <= b.critical_path_ns + 1e-9
            && a.critical_endpoints < b.critical_endpoints)
}

/// One round of the fixpoint: scores every candidate move of `n` in place
/// (apply, time, undo) and returns the best one that strictly improves on
/// `current`, first wins ties. `n` is left exactly as it was; `u` must be
/// its consumer table.
fn best_move(
    n: &mut Netlist,
    u: &Uses,
    current: &TimingDetail,
    scored: &mut usize,
) -> Option<(Move, TimingDetail)> {
    let mut best: Option<(Move, TimingDetail)> = None;
    for mv in candidates(n, u) {
        let change = apply(n, mv, u);
        *scored += 1;
        let timing = timing_detail(n);
        undo(n, change);
        if lex_better(&timing, current) && best.as_ref().is_none_or(|(_, b)| lex_better(&timing, b))
        {
            best = Some((mv, timing));
        }
    }
    best
}

/// Retimes a netlist: see the module docs. Returns the rewritten netlist.
///
/// # Panics
///
/// Panics if `netlist` fails [`Netlist::validate`] or contains a
/// combinational cycle, or if the pass violates its own contract
/// (validation, acyclicity, unchanged interface, unchanged per-output
/// minimum latency, or a critical path worse than the input) — those would
/// be retimer bugs, and the seventh differential oracle in `lilac-fuzz`
/// exists to keep them loud.
pub fn retime(netlist: &Netlist) -> Netlist {
    retime_with_stats(netlist).0
}

/// [`retime`], also returning the per-run [`RetimeStats`].
///
/// # Panics
///
/// See [`retime`].
pub fn retime_with_stats(netlist: &Netlist) -> (Netlist, RetimeStats) {
    netlist.validate().expect("retime: input netlist must validate");
    assert!(
        netlist.combinational_order().is_some(),
        "retime: input netlist `{}` has a combinational cycle",
        netlist.name
    );
    let register_bits = |n: &Netlist| -> u64 {
        n.iter().map(|(_, node)| node.kind.pipeline_depth() as u64 * node.width as u64).sum()
    };
    let mut n = netlist.clone();
    let mut stats = RetimeStats {
        nodes_before: n.node_count(),
        register_bits_before: register_bits(&n),
        ..RetimeStats::default()
    };
    // The driver's objective is lexicographic: first the critical path,
    // then the *size of the critical set* (endpoints within tolerance of
    // the maximum). The second component is what makes tied parallel paths
    // retimable at all — with four identical blend lanes at 3.66 ns, no
    // single move shortens the maximum, but each move that rebalances one
    // lane empties the critical set by one, and the last one drops the
    // path itself. Every accepted move strictly decreases the pair, so the
    // fixpoint terminates.
    let mut current = timing_detail(&n);
    stats.critical_path_before_ns = current.critical_path_ns;
    while stats.moves() < MAX_MOVES {
        // Every probe rewrites the one working netlist in place and undoes
        // itself after timing, so the round's consumer table stays exact
        // for every candidate and for the winner, which is applied again.
        let u = uses(&n);
        let Some((mv, timing)) = best_move(&mut n, &u, &current, &mut stats.candidates_scored)
        else {
            break;
        };
        apply(&mut n, mv, &u);
        debug_assert!(n.validate().is_ok(), "retime: move {mv:?} broke validation");
        assert!(
            n.combinational_order().is_some(),
            "retime: move {mv:?} created a combinational cycle"
        );
        match mv {
            Move::Forward(_) => stats.forward_moves += 1,
            Move::Backward(_) => stats.backward_moves += 1,
        }
        current = timing;
    }
    n.validate().expect("retime: retimed netlist must validate");
    assert_eq!(n.inputs, netlist.inputs, "retime: input ports are interface");
    assert_eq!(
        n.outputs.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>(),
        netlist.outputs.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>(),
        "retime: output ports are interface"
    );
    assert_eq!(
        n.output_min_latencies(),
        netlist.output_min_latencies(),
        "retime: per-output path latency must be exactly preserved"
    );
    stats.critical_path_after_ns = current.critical_path_ns;
    assert!(
        stats.critical_path_after_ns <= stats.critical_path_before_ns + 1e-9,
        "retime: critical path grew from {} to {} ns",
        stats.critical_path_before_ns,
        stats.critical_path_after_ns
    );
    stats.nodes_after = n.node_count();
    stats.register_bits_after = register_bits(&n);
    (n, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_ir::PipeOp;
    use lilac_sim::Simulator;
    use std::collections::HashMap;

    fn assert_cycle_exact(a: &Netlist, b: &Netlist, cycles: usize) {
        let mut rng = lilac_util::rng::Rng::new(0x5eed);
        let mut sim_a = Simulator::new(a).expect("original simulates");
        let mut sim_b = Simulator::new(b).expect("retimed simulates");
        let outputs = sim_a.output_names();
        for cycle in 0..cycles {
            let stim: HashMap<String, u64> =
                a.inputs.iter().map(|p| (p.name.clone(), rng.next_u64())).collect();
            sim_a.set_inputs(&stim);
            sim_b.set_inputs(&stim);
            for name in &outputs {
                assert_eq!(
                    sim_a.peek(name),
                    sim_b.peek(name),
                    "output `{name}` diverged at cycle {cycle} of `{}`",
                    a.name
                );
            }
            sim_a.step();
            sim_b.step();
        }
    }

    /// An unbalanced two-stage pipeline: all the logic (two chained adds)
    /// sits in the first stage, the second stage is an empty register. A
    /// backward move across the second add balances it.
    fn unbalanced() -> Netlist {
        let mut n = Netlist::new("unbalanced");
        let a = n.add_input("a", 16);
        let b = n.add_input("b", 16);
        let c = n.add_input("c", 16);
        let s1 = n.add_node(NodeKind::Add, vec![a, b], 16, "s1");
        let s2 = n.add_node(NodeKind::Add, vec![s1, c], 16, "s2");
        let r1 = n.add_node(NodeKind::Reg, vec![s2], 16, "r1");
        let r2 = n.add_node(NodeKind::Reg, vec![r1], 16, "r2");
        n.add_output("o", r2);
        n
    }

    #[test]
    fn backward_move_balances_an_unbalanced_pipeline() {
        let n = unbalanced();
        let (ret, stats) = retime_with_stats(&n);
        assert!(stats.moves() >= 1, "{stats:?}");
        assert!(stats.critical_path_after_ns < stats.critical_path_before_ns, "{stats:?}");
        assert!(stats.fmax_gain_pct() > 0.0);
        assert_cycle_exact(&n, &ret, 32);
        assert_eq!(ret.output_min_latencies(), n.output_min_latencies());
    }

    /// Registers on the inputs, two chained adds after them, then a
    /// register: a forward move pushes one input register past the first
    /// add.
    fn forward() -> Netlist {
        let mut n = Netlist::new("fwd");
        let a = n.add_input("a", 16);
        let b = n.add_input("b", 16);
        let c = n.add_input("c", 16);
        let ra = n.add_node(NodeKind::Reg, vec![a], 16, "ra");
        let rb = n.add_node(NodeKind::Reg, vec![b], 16, "rb");
        let s1 = n.add_node(NodeKind::Add, vec![ra, rb], 16, "s1");
        let s2 = n.add_node(NodeKind::Mul, vec![s1, c], 16, "s2");
        n.add_output("o", s2);
        n
    }

    #[test]
    fn forward_move_balances_logic_after_the_registers() {
        let n = forward();
        let (ret, stats) = retime_with_stats(&n);
        assert!(stats.forward_moves >= 1, "{stats:?}");
        assert!(stats.critical_path_after_ns < stats.critical_path_before_ns);
        assert_cycle_exact(&n, &ret, 32);
        assert_eq!(ret.output_min_latencies(), n.output_min_latencies());
    }

    #[test]
    fn not_and_eq_never_retime() {
        // `Not(0)` and `Eq(0,0)` are non-zero at power-up, so no register
        // may cross them: the boundary cycles would diverge.
        let mut n = Netlist::new("notgate");
        let a = n.add_input("a", 8);
        let s1 = n.add_node(NodeKind::Add, vec![a, a], 8, "s1");
        let inv = n.add_node(NodeKind::Not, vec![s1], 8, "inv");
        let r = n.add_node(NodeKind::Reg, vec![inv], 8, "r");
        let r2 = n.add_node(NodeKind::Reg, vec![r], 8, "r2");
        n.add_output("o", r2);
        let (ret, stats) = retime_with_stats(&n);
        assert_eq!(stats.moves(), 0, "nothing may cross the Not: {stats:?}");
        assert_cycle_exact(&n, &ret, 16);
    }

    /// A `RegEn` and a pipelined core in front of the only movable stage.
    fn stateful() -> Netlist {
        let mut n = Netlist::new("stateful");
        let a = n.add_input("a", 8);
        let en = n.add_input("en", 1);
        let held = n.add_node(NodeKind::RegEn, vec![a, en], 8, "held");
        let s = n.add_node(NodeKind::Add, vec![held, a], 8, "s");
        let core = n.add_node(
            NodeKind::PipelinedOp { op: PipeOp::Mac, latency: 2, ii: 1 },
            vec![s, a, a],
            8,
            "core",
        );
        let r = n.add_node(NodeKind::Reg, vec![core], 8, "r");
        n.add_output("o", r);
        n
    }

    #[test]
    fn registers_never_cross_regen_or_cores() {
        let n = stateful();
        let (ret, stats) = retime_with_stats(&n);
        // The only stage is `r`, whose driver is a core (not crossable);
        // `held` is RegEn (not a movable stage). Nothing may move.
        assert_eq!(stats.moves(), 0, "{stats:?}");
        assert_cycle_exact(&n, &ret, 24);
    }

    /// `ra` feeds both the add and an output port: decrementing it would
    /// change the tap's latency, so the forward move is illegal.
    fn tap() -> Netlist {
        let mut n = Netlist::new("tap");
        let a = n.add_input("a", 8);
        let b = n.add_input("b", 8);
        let ra = n.add_node(NodeKind::Reg, vec![a], 8, "ra");
        let rb = n.add_node(NodeKind::Reg, vec![b], 8, "rb");
        let s = n.add_node(NodeKind::Add, vec![ra, rb], 8, "s");
        let m = n.add_node(NodeKind::Mul, vec![s, s], 8, "m");
        n.add_output("tap", ra);
        n.add_output("o", m);
        n
    }

    #[test]
    fn fanout_across_a_register_cut_blocks_the_forward_move() {
        let n = tap();
        let (ret, stats) = retime_with_stats(&n);
        assert_eq!(stats.forward_moves, 0, "{stats:?}");
        assert_cycle_exact(&n, &ret, 24);
        assert_eq!(ret.output_min_latencies(), n.output_min_latencies());
    }

    /// An accumulator: reg -> add(i) -> reg feedback, with a long
    /// combinational tail.
    fn feedback() -> Netlist {
        let mut n = Netlist::new("acc");
        let i = n.add_input("i", 8);
        let reg = n.add_node(NodeKind::Reg, vec![i], 8, "acc");
        let next = n.add_node(NodeKind::Add, vec![reg, i], 8, "next");
        n.set_inputs(reg, vec![next]);
        let t1 = n.add_node(NodeKind::Mul, vec![next, i], 8, "t1");
        let t2 = n.add_node(NodeKind::Add, vec![t1, i], 8, "t2");
        let r2 = n.add_node(NodeKind::Reg, vec![t2], 8, "r2");
        n.add_output("o", r2);
        n
    }

    #[test]
    fn feedback_loops_survive_retiming() {
        // Retiming must keep the loop intact and cycle-exact.
        let n = feedback();
        let (ret, stats) = retime_with_stats(&n);
        assert_cycle_exact(&n, &ret, 48);
        assert_eq!(ret.output_min_latencies(), n.output_min_latencies());
        let _ = stats;
    }

    #[test]
    fn retime_is_deterministic_and_idempotent_at_the_fixpoint() {
        let n = unbalanced();
        let (a, sa) = retime_with_stats(&n);
        let (b, sb) = retime_with_stats(&n);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // Retiming the fixpoint finds no further improving move.
        let (again, stats) = retime_with_stats(&a);
        assert_eq!(stats.moves(), 0, "{stats:?}");
        assert_eq!(again, a);
    }

    /// `Mul(s, s)` after `s = Add(Reg(a), k)`.
    fn constant_operand(k: u64) -> Netlist {
        let mut n = Netlist::new(format!("k{k}"));
        let a = n.add_input("a", 8);
        let k = n.add_const(k, 8);
        let ra = n.add_node(NodeKind::Reg, vec![a], 8, "ra");
        let s = n.add_node(NodeKind::Add, vec![ra, k], 8, "s");
        let m = n.add_node(NodeKind::Mul, vec![s, s], 8, "m");
        n.add_output("o", m);
        n
    }

    #[test]
    fn constant_operands_retime_only_when_powerup_agrees() {
        // Add(x_reg, 5): at power-up the add shows 5, a register shows 0 —
        // the move is illegal and must not fire.
        let n = constant_operand(5);
        let (ret, stats) = retime_with_stats(&n);
        assert_eq!(stats.moves(), 0, "Add(_, 5) is non-zero at power-up: {stats:?}");
        assert_cycle_exact(&n, &ret, 16);

        // Add(x_reg, 0) is zero at power-up; the forward move is legal.
        let z = constant_operand(0);
        let (ret, stats) = retime_with_stats(&z);
        assert!(stats.forward_moves >= 1, "{stats:?}");
        assert_cycle_exact(&z, &ret, 24);
    }

    /// A small seeded netlist over the retimer's node menu: stage chains,
    /// arithmetic with zero and non-zero constants, `Not`, `RegEn`, shared
    /// operands, several outputs, and feedback closed through a `Reg`.
    fn random_netlist(seed: u64) -> Netlist {
        let mut rng = lilac_util::rng::Rng::new(seed);
        let mut n = Netlist::new(format!("undo_{seed}"));
        let mut ids: Vec<NodeId> = (0..1 + rng.index(3))
            .map(|i| n.add_input(format!("i{i}"), 1 + rng.index(16) as u32))
            .collect();
        for k in 0..4 + rng.index(24) {
            // Operands come mostly from the last few nodes, so chains of
            // stages and logic (what retiming moves across) are common.
            let pick =
                |rng: &mut lilac_util::rng::Rng| ids[ids.len() - 1 - rng.index(ids.len().min(4))];
            let any = pick(&mut rng);
            let other = pick(&mut rng);
            let width = 1 + rng.index(16) as u32;
            let name = format!("n{k}");
            let id = match rng.index(12) {
                0 => n.add_const(if rng.chance(1, 2) { 0 } else { rng.next_u64() }, width),
                1..=3 => n.add_node(NodeKind::Reg, vec![any], width, name),
                4 => n.add_node(NodeKind::Delay(rng.index(3) as u32), vec![any], width, name),
                5 => n.add_node(NodeKind::Not, vec![any], width, name),
                6 => n.add_node(NodeKind::RegEn, vec![any, other], width, name),
                7 => {
                    let sel = pick(&mut rng);
                    n.add_node(NodeKind::Mux, vec![sel, any, other], width, name)
                }
                _ => {
                    let kind = [NodeKind::Add, NodeKind::Mul, NodeKind::And, NodeKind::Xor]
                        [rng.index(4)]
                    .clone();
                    n.add_node(kind, vec![any, other], width, name)
                }
            };
            ids.push(id);
        }
        // Feedback: a register reads a later node (a sequential loop).
        for _ in 0..rng.index(3) {
            let reg = ids[rng.index(ids.len())];
            if matches!(n.node(reg).kind, NodeKind::Reg) {
                n.set_inputs(reg, vec![ids[rng.index(ids.len())]]);
            }
        }
        for o in 0..1 + rng.index(2) {
            n.add_output(format!("o{o}"), ids[ids.len() - 1 - o]);
        }
        n
    }

    /// Drives the fixpoint round by round as [`retime_with_stats`] does. At
    /// every round, every candidate's apply + undo must restore the netlist
    /// exactly (nodes, names, kinds, operands, outputs and node count), and
    /// applying the same move twice must give the same netlist. Scoring a
    /// round must leave the netlist untouched, and re-applying each winner
    /// must end exactly where [`retime`] ends. Returns the probes made.
    fn assert_undo_exact(original: &Netlist) -> usize {
        let mut n = original.clone();
        let mut current = timing_detail(&n);
        let mut probes = 0;
        for _ in 0..MAX_MOVES {
            let u = uses(&n);
            for mv in candidates(&n, &u) {
                let before = n.clone();
                let change = apply(&mut n, mv, &u);
                let after = n.clone();
                undo(&mut n, change);
                assert_eq!(n, before, "{mv:?} on `{}`: undo is not exact", n.name);
                let change = apply(&mut n, mv, &u);
                assert_eq!(n, after, "{mv:?} on `{}`: re-applying differs", n.name);
                undo(&mut n, change);
                probes += 1;
            }
            let before = n.clone();
            let mut scored = 0;
            let Some((mv, timing)) = best_move(&mut n, &u, &current, &mut scored) else { break };
            assert_eq!(n, before, "scoring a round of `{}` changed the netlist", n.name);
            apply(&mut n, mv, &u);
            current = timing;
        }
        assert_eq!(n, retime(original), "re-applied winners of `{}` differ", original.name);
        probes
    }

    #[test]
    fn undo_restores_the_netlist_exactly() {
        let fixtures = [
            unbalanced(),
            forward(),
            feedback(),
            stateful(),
            tap(),
            constant_operand(0),
            constant_operand(5),
        ];
        let mut probes = 0;
        for n in &fixtures {
            probes += assert_undo_exact(n);
        }
        let mut moved = 0;
        for seed in 0..600 {
            let n = random_netlist(seed);
            probes += assert_undo_exact(&n);
            moved += retime_with_stats(&n).1.moves().min(1);
        }
        assert!(probes >= 300, "too few probes exercised: {probes}");
        assert!(moved >= 60, "too few random netlists retime at all: {moved}");
    }
}
