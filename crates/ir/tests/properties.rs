//! Property tests for [`Netlist::combinational_order`] and the structural
//! timing traversals next to it ([`Netlist::combinational_slack`],
//! [`Netlist::output_min_latencies`]), driven by the in-repo deterministic
//! PRNG (`lilac_util::rng::Rng`):
//!
//! * when an order is returned it is a valid topological order over the
//!   *combinational* edges (every combinational node appears after all of
//!   its operands; sequential nodes impose no ordering on theirs);
//! * the function is deterministic: equal netlists yield equal orders, and
//!   the order is exactly that of a reference Kahn implementation with
//!   per-node dependent lists and a LIFO queue;
//! * it returns `None` exactly when a purely combinational cycle exists,
//!   as judged by an independent DFS cycle detector written against the
//!   same edge definition;
//! * `combinational_slack` agrees with a per-edge consistency relation
//!   (each combinational node is one deeper than its deepest operand, and
//!   each node's `depth_out` is the max over its combinational consumers'
//!   `depth_out + 1`), and returns `Some` exactly when an order exists;
//! * `output_min_latencies` matches an independent exhaustive
//!   Bellman–Ford-style relaxation over register counts.

use lilac_ir::{Netlist, NodeId, NodeKind, PipeOp};
use lilac_util::rng::Rng;

/// Draws a random netlist: a structurally valid DAG over the full node-kind
/// menu, then (sometimes) rewired with feedback edges. Feedback through a
/// sequential node is legal; feedback through combinational nodes creates
/// the cycles the `None` contract is about.
fn random_netlist(seed: u64) -> Netlist {
    let mut rng = Rng::new(seed);
    let mut n = Netlist::new(format!("prop_{seed}"));
    let n_inputs = 1 + rng.index(3);
    let mut ids: Vec<NodeId> = Vec::new();
    for i in 0..n_inputs {
        ids.push(n.add_input(format!("i{i}"), 1 + rng.index(16) as u32));
    }
    let n_nodes = 3 + rng.index(40);
    for k in 0..n_nodes {
        let any = ids[rng.index(ids.len())];
        let width = 1 + rng.index(16) as u32;
        let id = match rng.index(10) {
            0 => n.add_const(rng.next_u64(), width),
            1 => n.add_node(NodeKind::Reg, vec![any], width, format!("n{k}")),
            2 => {
                let e = ids[rng.index(ids.len())];
                n.add_node(NodeKind::RegEn, vec![any, e], width, format!("n{k}"))
            }
            3 => {
                let depth = rng.index(4) as u32; // includes Delay(0): combinational
                n.add_node(NodeKind::Delay(depth), vec![any], width, format!("n{k}"))
            }
            4 | 5 => {
                let b = ids[rng.index(ids.len())];
                let kind = match rng.index(6) {
                    0 => NodeKind::Add,
                    1 => NodeKind::Sub,
                    2 => NodeKind::Mul,
                    3 => NodeKind::And,
                    4 => NodeKind::Or,
                    _ => NodeKind::Xor,
                };
                n.add_node(kind, vec![any, b], width, format!("n{k}"))
            }
            6 => {
                let (s, b) = (ids[rng.index(ids.len())], ids[rng.index(ids.len())]);
                n.add_node(NodeKind::Mux, vec![s, any, b], width, format!("n{k}"))
            }
            7 => n.add_node(NodeKind::Not, vec![any], width, format!("n{k}")),
            8 => {
                let latency = rng.index(3) as u32; // includes latency 0: combinational
                let b = ids[rng.index(ids.len())];
                n.add_node(
                    NodeKind::PipelinedOp { op: PipeOp::FAdd, latency, ii: 1 },
                    vec![any, b],
                    width,
                    format!("n{k}"),
                )
            }
            _ => {
                let b = ids[rng.index(ids.len())];
                n.add_node(NodeKind::Concat, vec![any, b], width, format!("n{k}"))
            }
        };
        ids.push(id);
    }
    // Rewire a few operand edges to *later* nodes. Through a sequential
    // node this is an ordinary feedback loop; through a combinational node
    // it may (or may not) close a purely combinational cycle.
    for _ in 0..rng.index(4) {
        let id = ids[rng.index(ids.len())];
        let node = n.node(id);
        if node.inputs.is_empty() {
            continue;
        }
        let slot = rng.index(node.inputs.len());
        let target = ids[rng.index(ids.len())];
        let mut inputs = node.inputs.clone();
        inputs[slot] = target;
        n.set_inputs(id, inputs);
    }
    n.add_output("o", *ids.last().unwrap());
    n
}

/// Independent ground truth: DFS cycle detection over the combinational
/// edges (operand -> node, only when the node itself is combinational).
fn has_combinational_cycle(n: &Netlist) -> bool {
    let count = n.node_count();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); count];
    for (id, node) in n.iter() {
        if node.kind.is_sequential() {
            continue;
        }
        for input in &node.inputs {
            dependents[input.0 as usize].push(id.0 as usize);
        }
    }
    // Iterative three-color DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; count];
    for root in 0..count {
        if color[root] != Color::White {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        color[root] = Color::Gray;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < dependents[v].len() {
                let w = dependents[v][*next];
                *next += 1;
                match color[w] {
                    Color::Gray => return true,
                    Color::White => {
                        color[w] = Color::Gray;
                        stack.push((w, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[v] = Color::Black;
                stack.pop();
            }
        }
    }
    false
}

#[test]
fn order_is_a_valid_topological_order_over_combinational_edges() {
    let mut ordered = 0;
    for seed in 0..300 {
        let n = random_netlist(seed);
        let Some(order) = n.combinational_order() else { continue };
        ordered += 1;
        assert_eq!(order.len(), n.node_count(), "seed {seed}: order must cover every node");
        let mut position = vec![usize::MAX; n.node_count()];
        for (pos, id) in order.iter().enumerate() {
            assert_eq!(position[id.0 as usize], usize::MAX, "seed {seed}: node {id} appears twice");
            position[id.0 as usize] = pos;
        }
        for (id, node) in n.iter() {
            if node.kind.is_sequential() {
                continue; // sequential nodes read their operands "later"
            }
            for input in &node.inputs {
                assert!(
                    position[input.0 as usize] < position[id.0 as usize],
                    "seed {seed}: combinational node {id} ordered before its operand {input}"
                );
            }
        }
    }
    assert!(ordered >= 100, "generator must produce plenty of acyclic cases: {ordered}");
}

/// Reference order: Kahn's algorithm with one dependents `Vec` per node,
/// filled in node-id order, and a LIFO work queue. `combinational_order`
/// stores the same dependents as flat rows; the order it returns must be
/// this one exactly, not merely another valid topological order, because
/// timing, slack and simulation all iterate in it.
fn reference_order(n: &Netlist) -> Option<Vec<NodeId>> {
    let count = n.node_count();
    let mut indegree = vec![0usize; count];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); count];
    for (id, node) in n.iter() {
        if node.kind.is_sequential() {
            continue;
        }
        for &input in &node.inputs {
            dependents[input.0 as usize].push(id.0 as usize);
            indegree[id.0 as usize] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..count).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(count);
    while let Some(i) = queue.pop() {
        order.push(NodeId(i as u32));
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(d);
            }
        }
    }
    (order.len() == count).then_some(order)
}

#[test]
fn order_is_deterministic() {
    let mut cyclic = 0;
    for seed in 0..400 {
        let n = random_netlist(seed);
        let order = n.combinational_order();
        assert_eq!(order, n.combinational_order(), "seed {seed}");
        // And across structurally equal netlists built from scratch.
        let m = random_netlist(seed);
        assert_eq!(order, m.combinational_order(), "seed {seed}");
        // And it is exactly the reference order (both `None` when cyclic).
        assert_eq!(order, reference_order(&n), "seed {seed}: order differs from the reference");
        cyclic += order.is_none() as usize;
    }
    assert!(cyclic >= 20, "generator must produce cyclic cases: {cyclic}");
}

#[test]
fn none_exactly_when_a_combinational_cycle_exists() {
    let (mut cyclic, mut acyclic) = (0, 0);
    for seed in 0..400 {
        let n = random_netlist(seed);
        let expected_cycle = has_combinational_cycle(&n);
        if expected_cycle {
            cyclic += 1;
        } else {
            acyclic += 1;
        }
        assert_eq!(
            n.combinational_order().is_none(),
            expected_cycle,
            "seed {seed}: order and the independent cycle detector disagree"
        );
    }
    assert!(cyclic >= 20, "generator must produce cyclic cases: {cyclic}");
    assert!(acyclic >= 100, "generator must produce acyclic cases: {acyclic}");
}

#[test]
fn slack_satisfies_the_per_edge_consistency_relation() {
    let mut checked = 0;
    for seed in 0..300 {
        let n = random_netlist(seed);
        let slack = n.combinational_slack();
        assert_eq!(
            slack.is_some(),
            n.combinational_order().is_some(),
            "seed {seed}: slack and order must agree on cyclicity"
        );
        let Some(slack) = slack else { continue };
        checked += 1;
        assert_eq!(slack.len(), n.node_count());
        // depth_in: 0 on sources and sequential nodes; 1 + max operand
        // depth_in on combinational nodes.
        for (id, node) in n.iter() {
            let s = slack[id.0 as usize];
            let comb = !node.kind.is_sequential()
                && !matches!(node.kind, NodeKind::Input(_) | NodeKind::Const(_));
            if comb {
                let deepest =
                    node.inputs.iter().map(|i| slack[i.0 as usize].depth_in).max().unwrap_or(0);
                assert_eq!(s.depth_in, deepest + 1, "seed {seed}: node {id} depth_in");
            } else {
                assert_eq!(s.depth_in, 0, "seed {seed}: node {id} is a path start");
            }
        }
        // depth_out: max over combinational consumers of depth_out + 1.
        let mut expect_out = vec![0u32; n.node_count()];
        for (id, node) in n.iter() {
            if node.kind.is_sequential() {
                continue;
            }
            if matches!(node.kind, NodeKind::Input(_) | NodeKind::Const(_)) {
                continue;
            }
            for input in &node.inputs {
                let e = &mut expect_out[input.0 as usize];
                *e = (*e).max(slack[id.0 as usize].depth_out + 1);
            }
        }
        for (id, _) in n.iter() {
            assert_eq!(
                slack[id.0 as usize].depth_out, expect_out[id.0 as usize],
                "seed {seed}: node {id} depth_out"
            );
        }
    }
    assert!(checked >= 100, "generator must produce plenty of acyclic cases: {checked}");
}

/// Independent ground truth for `output_min_latencies`: relax register
/// counts to a fixpoint over every operand edge (a Bellman–Ford that also
/// converges on cyclic netlists, since weights are non-negative and we only
/// ever lower distances).
fn min_latencies_fixpoint(n: &Netlist) -> Vec<(String, Option<u64>)> {
    let count = n.node_count();
    let mut dist: Vec<Option<u64>> = vec![None; count];
    for (id, node) in n.iter() {
        if matches!(node.kind, NodeKind::Input(_)) {
            dist[id.0 as usize] = Some(0);
        }
    }
    loop {
        let mut changed = false;
        for (id, node) in n.iter() {
            let weight = node.kind.pipeline_depth() as u64;
            for input in &node.inputs {
                if let Some(d) = dist[input.0 as usize] {
                    let cost = d + weight;
                    let slot = &mut dist[id.0 as usize];
                    if slot.is_none_or(|cur| cost < cur) {
                        *slot = Some(cost);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    n.outputs.iter().map(|(p, id)| (p.name.clone(), dist[id.0 as usize])).collect()
}

#[test]
fn output_min_latencies_match_the_exhaustive_relaxation() {
    for seed in 0..300 {
        let n = random_netlist(seed);
        assert_eq!(
            n.output_min_latencies(),
            min_latencies_fixpoint(&n),
            "seed {seed}: Dijkstra and the fixpoint relaxation disagree"
        );
    }
}

#[test]
fn min_latencies_on_known_shapes() {
    // i -> Reg -> Delay(2) -> o: three registers on the only path.
    let mut n = Netlist::new("chain");
    let i = n.add_input("i", 8);
    let r = n.add_node(NodeKind::Reg, vec![i], 8, "r");
    let d = n.add_node(NodeKind::Delay(2), vec![r], 8, "d");
    n.add_output("o", d);
    assert_eq!(n.output_min_latencies(), vec![("o".to_string(), Some(3))]);

    // Two paths of different depth into a mux: the minimum wins.
    let mut m = Netlist::new("diamond");
    let i = m.add_input("i", 8);
    let s = m.add_input("s", 1);
    let slow = m.add_node(NodeKind::Delay(4), vec![i], 8, "slow");
    let fast = m.add_node(NodeKind::Reg, vec![i], 8, "fast");
    let mux = m.add_node(NodeKind::Mux, vec![s, slow, fast], 8, "mux");
    m.add_output("o", mux);
    // The select input reaches the mux with zero registers.
    assert_eq!(m.output_min_latencies(), vec![("o".to_string(), Some(0))]);

    // An isolated register ring driving an output: unreachable from any
    // primary source.
    let mut ring = Netlist::new("ring");
    let _i = ring.add_input("i", 8);
    let r1 = ring.add_node(NodeKind::Reg, vec![NodeId(0)], 8, "r1");
    let r2 = ring.add_node(NodeKind::Reg, vec![r1], 8, "r2");
    ring.set_inputs(r1, vec![r2]);
    ring.add_output("o", r1);
    // r1 reads r2 reads r1 — but r1's original input edge to the module
    // input was rewired away, so no source reaches the ring.
    assert_eq!(ring.output_min_latencies(), vec![("o".to_string(), None)]);
}

#[test]
fn slack_on_a_known_pipeline() {
    // i -> add1 -> add2 -> Reg -> not -> o
    let mut n = Netlist::new("pipe");
    let i = n.add_input("i", 8);
    let a1 = n.add_node(NodeKind::Add, vec![i, i], 8, "a1");
    let a2 = n.add_node(NodeKind::Add, vec![a1, i], 8, "a2");
    let r = n.add_node(NodeKind::Reg, vec![a2], 8, "r");
    let inv = n.add_node(NodeKind::Not, vec![r], 8, "inv");
    n.add_output("o", inv);
    let slack = n.combinational_slack().unwrap();
    let at = |id: NodeId| slack[id.0 as usize];
    assert_eq!((at(i).depth_in, at(i).depth_out), (0, 2), "input feeds the 2-add chain");
    assert_eq!((at(a1).depth_in, at(a1).depth_out), (1, 1));
    assert_eq!((at(a2).depth_in, at(a2).depth_out), (2, 0), "register cuts the chain");
    assert_eq!((at(r).depth_in, at(r).depth_out), (0, 1), "reg starts the `not` chain");
    assert_eq!((at(inv).depth_in, at(inv).depth_out), (1, 0));
}

#[test]
fn sequential_feedback_is_not_a_combinational_cycle() {
    // The canonical counter: reg -> add -> reg feedback. The cycle goes
    // through a register, so an order must exist.
    let mut n = Netlist::new("counter");
    let one = n.add_const(1, 8);
    let reg = n.add_node(NodeKind::Reg, vec![one], 8, "count");
    let next = n.add_node(NodeKind::Add, vec![reg, one], 8, "next");
    n.set_inputs(reg, vec![next]);
    n.add_output("o", reg);
    assert!(n.combinational_order().is_some());
    assert!(!has_combinational_cycle(&n));

    // Swap the register for a Delay(0) passthrough: now the same loop is
    // purely combinational and must be rejected.
    let mut m = Netlist::new("loop");
    let one = m.add_const(1, 8);
    let d0 = m.add_node(NodeKind::Delay(0), vec![one], 8, "pass");
    let next = m.add_node(NodeKind::Add, vec![d0, one], 8, "next");
    m.set_inputs(d0, vec![next]);
    m.add_output("o", d0);
    assert!(m.combinational_order().is_none());
    assert!(has_combinational_cycle(&m));
}
