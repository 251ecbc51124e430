//! Known-bits + unsigned-interval abstract interpretation over netlists.
//!
//! For every net the analysis computes an [`AbsValue`]: a per-bit
//! known-0/known-1/unknown mask pair joined with an unsigned interval
//! `[lo, hi]`, both over the node's masked output value. The transfer
//! functions mirror [`lilac_ir::NodeKind::comb_value`] / [`lilac_ir::pipe_value`]
//! operation by operation — the same wrapping adds, the same mux select
//! rule, the same concat layout — so the abstract and concrete evaluators
//! cannot drift: any divergence is a containment violation the fuzzer's
//! eleventh oracle reports.
//!
//! Sequential nodes start from the zero power-up state (registers and delay
//! lines reset to 0, exactly as `lilac-sim` and the Verilog backend define)
//! and accumulate their data-input facts across a fixpoint sweep; intervals
//! are widened to full range after `WIDEN_ROUND` rounds so feedback loops
//! (counters, FSM state) terminate, with a hard cap forcing still-moving
//! facts to ⊤ long before the sweep count could matter.
//!
//! The three consumers are:
//!
//! * the fuzzer's eleventh differential oracle (`lilac-fuzz`): every
//!   simulated value on every net, every cycle, every lane must satisfy
//!   [`AbsValue::contains`];
//! * the optimizer's `fold_known_bits` pass (`lilac-opt`): facts that pin a
//!   net to a single value, a mux to one arm, or a concat operand to zero
//!   become rewrites;
//! * the lint surface ([`lint`]): truncating widths, statically-decided
//!   comparisons, dead mux arms, and unfolded constant nets.

use lilac_ir::{mask, Netlist, Node, NodeId, NodeKind, PipeOp};

pub mod lint;

/// All-ones mask for `width` bits (`width >= 64` saturates to all 64 bits).
#[inline]
fn mask_bits(width: u32) -> u64 {
    mask(u64::MAX, width)
}

/// Mask of the `n` lowest bits, saturating at 64.
#[inline]
fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Number of bits needed to represent `x` (0 for 0).
#[inline]
fn bitlen(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// Interval widening starts on this fixpoint round: earlier rounds join
/// intervals exactly (catching small saturating counters), later rounds
/// send any still-growing bound to the width's full range.
const WIDEN_ROUND: u32 = 3;

/// Hard termination cap: any sequential fact still moving after this many
/// rounds is forced to ⊤. The known-bits half shrinks monotonically (at
/// most 128 single-bit steps per node) and widened intervals settle in two
/// steps, so real netlists converge in a handful of rounds; the cap is a
/// backstop, not a tuning knob.
const MAX_ROUNDS: u32 = 40;

/// An abstract value: known bits plus an unsigned interval, both describing
/// a net's masked output value.
///
/// Invariants (established by [`AbsValue::canon`]):
/// * `ones & zeros == 0` — no bit is known to be both;
/// * every bit at or above `width` is in `zeros` (values are masked);
/// * `ones <= lo <= hi <= !zeros` — the interval and the bit masks agree.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AbsValue {
    /// Width of the net this value describes (facts above 64 saturate).
    pub width: u32,
    /// Bits known to be 0 (includes everything at or above `width`).
    pub zeros: u64,
    /// Bits known to be 1.
    pub ones: u64,
    /// Inclusive unsigned lower bound.
    pub lo: u64,
    /// Inclusive unsigned upper bound.
    pub hi: u64,
}

impl AbsValue {
    /// The unconstrained value of a `width`-bit net.
    pub fn top(width: u32) -> AbsValue {
        let m = mask_bits(width);
        AbsValue { width, zeros: !m, ones: 0, lo: 0, hi: m }
    }

    /// The exact constant `value` (masked) on a `width`-bit net.
    pub fn constant(value: u64, width: u32) -> AbsValue {
        let v = mask(value, width);
        AbsValue { width, zeros: !v, ones: v, lo: v, hi: v }
    }

    /// True if `value` is allowed by both the known bits and the interval.
    #[inline]
    pub fn contains(&self, value: u64) -> bool {
        value & self.ones == self.ones
            && value & self.zeros == 0
            && self.lo <= value
            && value <= self.hi
    }

    /// The single value this fact pins the net to, if any.
    pub fn as_const(&self) -> Option<u64> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// True if `self` is at least as precise as `other` (pointwise: knows a
    /// superset of the bits and a subinterval). Used by the optimizer
    /// monotonicity property test.
    pub fn at_least_as_precise(&self, other: &AbsValue) -> bool {
        self.ones & other.ones == other.ones
            && self.zeros & other.zeros == other.zeros
            && self.lo >= other.lo
            && self.hi <= other.hi
    }

    /// Propagates facts between the two halves until stable: known bits
    /// clamp the interval, interval bounds reveal high known bits, and a
    /// shared `lo`/`hi` prefix is known outright. Pure refinement — the set
    /// of concrete values described never changes.
    pub fn canon(mut self) -> AbsValue {
        let m = mask_bits(self.width);
        self.ones &= m;
        self.zeros |= !m;
        loop {
            let before = self;
            self.lo = self.lo.max(self.ones);
            self.hi = self.hi.min(!self.zeros);
            // Bits at or above bitlen(hi) can never be set.
            self.zeros |= !low_mask(bitlen(self.hi));
            // Bits above the highest bit where lo and hi differ are the
            // same for every value in [lo, hi].
            let diff = self.lo ^ self.hi;
            let prefix = !low_mask(bitlen(diff));
            self.ones |= self.lo & prefix;
            self.zeros |= !self.lo & prefix;
            if self == before {
                break;
            }
        }
        debug_assert!(
            self.ones & self.zeros == 0 && self.lo <= self.hi,
            "canon produced an empty abstract value: {self:?}"
        );
        self
    }

    /// Least upper bound: keeps only the bits both sides know and the hull
    /// of the two intervals. Both sides must describe the same width.
    pub fn join(&self, other: &AbsValue) -> AbsValue {
        debug_assert_eq!(self.width, other.width, "join across widths");
        AbsValue {
            width: self.width,
            zeros: self.zeros & other.zeros,
            ones: self.ones & other.ones,
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
        .canon()
    }

    /// Widened join for feedback loops: any interval bound that moved since
    /// `self` jumps straight to the width's extreme instead of creeping.
    pub fn widen(&self, next: &AbsValue) -> AbsValue {
        let joined = self.join(next);
        let lo = if joined.lo < self.lo { 0 } else { joined.lo };
        let hi = if joined.hi > self.hi { mask_bits(self.width) } else { joined.hi };
        AbsValue { width: self.width, zeros: joined.zeros, ones: joined.ones, lo, hi }.canon()
    }

    /// Narrows a (possibly wider) fact to `width` bits, mirroring the
    /// `mask(raw, width)` step that ends every concrete evaluation. The
    /// interval survives only when no described value can actually wrap.
    pub fn truncate(&self, width: u32) -> AbsValue {
        let m = mask_bits(width);
        let (lo, hi) = if self.hi <= m { (self.lo, self.hi) } else { (0, m) };
        AbsValue { width, zeros: (self.zeros & m) | !m, ones: self.ones & m, lo, hi }.canon()
    }

    /// Length of the run of known low bits (64 when fully known).
    #[inline]
    fn known_run(&self) -> u32 {
        (!(self.zeros | self.ones)).trailing_zeros()
    }

    /// Number of low bits known to be zero.
    #[inline]
    fn trailing_known_zeros(&self) -> u32 {
        (!self.zeros).trailing_zeros()
    }
}

impl std::fmt::Display for AbsValue {
    /// Renders as `const 0x..` for pinned nets, else the known-bit pattern
    /// (MSB first, `?` for unknown) plus the interval. Deterministic; used
    /// verbatim in lint messages and the golden lint baseline.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(c) = self.as_const() {
            return write!(f, "const {c:#x}");
        }
        let w = self.width.min(64);
        write!(f, "0b")?;
        for i in (0..w).rev() {
            let bit = 1u64 << i;
            if self.ones & bit != 0 {
                write!(f, "1")?;
            } else if self.zeros & bit != 0 {
                write!(f, "0")?;
            } else {
                write!(f, "?")?;
            }
        }
        write!(f, " in [{}, {}]", self.lo, self.hi)
    }
}

/// Raw (width-64) abstract addition, mirroring `wrapping_add`: the low run
/// of bits known on both sides determines the sum's low bits exactly (carry
/// only travels upward), and the interval wraps like the concrete sum does.
fn abs_add(a: &AbsValue, b: &AbsValue) -> AbsValue {
    let t = a.known_run().min(b.known_run());
    let lm = low_mask(t);
    let s = (a.ones & lm).wrapping_add(b.ones & lm);
    let (ones, zeros) = (s & lm, !s & lm);
    let (sl, sh) = (a.lo as u128 + b.lo as u128, a.hi as u128 + b.hi as u128);
    let (lo, hi) = if sh <= u64::MAX as u128 {
        (sl as u64, sh as u64)
    } else if sl > u64::MAX as u128 {
        // Every sum wraps exactly once; order is preserved.
        ((sl - (1u128 << 64)) as u64, (sh - (1u128 << 64)) as u64)
    } else {
        (0, u64::MAX)
    };
    AbsValue { width: 64, zeros, ones, lo, hi }.canon()
}

/// Raw abstract subtraction, mirroring `wrapping_sub`: exact when the
/// intervals prove the difference never (or always) wraps.
fn abs_sub(a: &AbsValue, b: &AbsValue) -> AbsValue {
    let t = a.known_run().min(b.known_run());
    let lm = low_mask(t);
    let s = (a.ones & lm).wrapping_sub(b.ones & lm);
    let (ones, zeros) = (s & lm, !s & lm);
    let (lo, hi) = if a.lo >= b.hi {
        (a.lo - b.hi, a.hi - b.lo)
    } else if a.hi < b.lo {
        // Every difference is negative and wraps exactly once.
        (a.lo.wrapping_sub(b.hi), a.hi.wrapping_sub(b.lo))
    } else {
        (0, u64::MAX)
    };
    AbsValue { width: 64, zeros, ones, lo, hi }.canon()
}

/// Raw abstract multiplication, mirroring `wrapping_mul`: low known runs
/// multiply exactly, trailing known zeros accumulate, and the interval
/// survives only when the extreme product cannot overflow 64 bits.
fn abs_mul(a: &AbsValue, b: &AbsValue) -> AbsValue {
    let t = a.known_run().min(b.known_run());
    let lm = low_mask(t);
    let p = (a.ones & lm).wrapping_mul(b.ones & lm);
    let mut ones = p & lm;
    let mut zeros = !p & lm;
    // tz(x*y) >= tz(x) + tz(y).
    zeros |= low_mask(a.trailing_known_zeros().saturating_add(b.trailing_known_zeros()));
    ones &= !zeros;
    let top = a.hi as u128 * b.hi as u128;
    let (lo, hi) = if top <= u64::MAX as u128 {
        ((a.lo as u128 * b.lo as u128) as u64, top as u64)
    } else {
        (0, u64::MAX)
    };
    AbsValue { width: 64, zeros, ones, lo, hi }.canon()
}

/// Raw abstract bitwise NOT over the full 64-bit value (bits above the
/// operand's width flip to known ones, exactly as concrete `!v` does before
/// the result mask).
fn abs_not(a: &AbsValue) -> AbsValue {
    AbsValue { width: 64, zeros: a.ones, ones: a.zeros, lo: !a.hi, hi: !a.lo }.canon()
}

fn abs_and(a: &AbsValue, b: &AbsValue) -> AbsValue {
    AbsValue {
        width: 64,
        zeros: a.zeros | b.zeros,
        ones: a.ones & b.ones,
        lo: 0,
        hi: a.hi.min(b.hi),
    }
    .canon()
}

fn abs_or(a: &AbsValue, b: &AbsValue) -> AbsValue {
    AbsValue {
        width: 64,
        zeros: a.zeros & b.zeros,
        ones: a.ones | b.ones,
        lo: a.lo.max(b.lo),
        hi: low_mask(bitlen(a.hi).max(bitlen(b.hi))),
    }
    .canon()
}

fn abs_xor(a: &AbsValue, b: &AbsValue) -> AbsValue {
    AbsValue {
        width: 64,
        zeros: (a.zeros & b.zeros) | (a.ones & b.ones),
        ones: (a.ones & b.zeros) | (a.zeros & b.ones),
        lo: 0,
        hi: low_mask(bitlen(a.hi).max(bitlen(b.hi))),
    }
    .canon()
}

/// Raw abstract right shift by a constant, mirroring `v >> lo` with the
/// out-of-range guard the concrete evaluators apply (`lo >= 64` reads 0).
fn abs_shr(a: &AbsValue, sh: u32) -> AbsValue {
    if sh >= 64 {
        return AbsValue::constant(0, 64);
    }
    AbsValue {
        width: 64,
        zeros: !((!a.zeros) >> sh),
        ones: a.ones >> sh,
        lo: a.lo >> sh,
        hi: a.hi >> sh,
    }
    .canon()
}

/// Raw abstract concatenation, mirroring the concrete accumulator loop:
/// `acc = (acc << w) | operand`, with a 64-bit-wide operand replacing the
/// accumulator outright (exactly the guarded concrete semantics).
fn abs_concat(operands: &[AbsValue]) -> AbsValue {
    let mut acc = AbsValue::constant(0, 64);
    for op in operands {
        let w = op.width;
        if w >= 64 {
            acc = AbsValue { width: 64, ..*op };
            continue;
        }
        let lm = low_mask(w);
        let ones = (acc.ones << w) | (op.ones & lm);
        let zeros = (acc.zeros << w) | (op.zeros & lm);
        let top = ((acc.hi as u128) << w) + (op.hi & lm) as u128;
        let (lo, hi) = if top <= u64::MAX as u128 {
            ((acc.lo << w) + (op.lo & lm), top as u64)
        } else {
            (0, u64::MAX)
        };
        acc = AbsValue { width: 64, zeros, ones, lo, hi }.canon();
    }
    acc
}

/// Raw abstract model of a pipelined core's datapath, mirroring
/// [`lilac_ir::pipe_value`] case by case (missing operands read constant 0).
fn abs_pipe(op: PipeOp, operands: &[AbsValue]) -> AbsValue {
    let get = |i: usize| operands.get(i).copied().unwrap_or_else(|| AbsValue::constant(0, 64));
    match op {
        PipeOp::FAdd => abs_add(&get(0), &get(1)),
        PipeOp::FMul | PipeOp::IntMul => abs_mul(&get(0), &get(1)),
        // checked_div(0) reads 0, and v / d <= v for d >= 1, so the
        // dividend's upper bound survives.
        PipeOp::Div => AbsValue { width: 64, zeros: 0, ones: 0, lo: 0, hi: get(0).hi }.canon(),
        PipeOp::Mac => abs_add(&abs_mul(&get(0), &get(1)), &get(2)),
        PipeOp::Conv { .. } | PipeOp::Fft { .. } => {
            let mut acc = AbsValue::constant(0, 64);
            for v in operands {
                acc = abs_add(&acc, v);
            }
            acc
        }
    }
}

/// The 1-bit raw fact for a comparison outcome.
fn abs_bool(known: Option<bool>) -> AbsValue {
    match known {
        Some(b) => AbsValue::constant(b as u64, 64),
        None => AbsValue { width: 64, zeros: !1, ones: 0, lo: 0, hi: 1 }.canon(),
    }
}

/// Abstract equality: decided when the intervals are disjoint, a known bit
/// conflicts, or both sides are the same pinned constant.
fn abs_eq(a: &AbsValue, b: &AbsValue) -> AbsValue {
    if a.hi < b.lo || b.hi < a.lo || (a.ones & b.zeros) | (a.zeros & b.ones) != 0 {
        return abs_bool(Some(false));
    }
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return abs_bool(Some(x == y));
    }
    abs_bool(None)
}

/// Abstract unsigned less-than: decided when the intervals separate.
fn abs_lt(a: &AbsValue, b: &AbsValue) -> AbsValue {
    if a.hi < b.lo {
        abs_bool(Some(true))
    } else if a.lo >= b.hi {
        abs_bool(Some(false))
    } else {
        abs_bool(None)
    }
}

/// The abstract transfer for a combinational node over its operand facts,
/// truncated to the node's width — the abstract mirror of
/// [`NodeKind::comb_value`]. Returns `None` for inputs and state-holding
/// nodes (their facts come from the sequential half of the fixpoint).
pub fn comb_transfer(node: &Node, operands: &[AbsValue]) -> Option<AbsValue> {
    let w = node.width;
    let raw = match &node.kind {
        NodeKind::Input(_) | NodeKind::Reg | NodeKind::RegEn => return None,
        NodeKind::Delay(0) => operands[0],
        NodeKind::Delay(_) => return None,
        NodeKind::PipelinedOp { op, latency: 0, .. } => abs_pipe(*op, operands),
        NodeKind::PipelinedOp { .. } => return None,
        NodeKind::Const(c) => AbsValue::constant(*c, 64),
        NodeKind::Add => abs_add(&operands[0], &operands[1]),
        NodeKind::Sub => {
            if node.inputs.len() == 2 && node.inputs[0] == node.inputs[1] {
                AbsValue::constant(0, 64)
            } else {
                abs_sub(&operands[0], &operands[1])
            }
        }
        NodeKind::Mul => abs_mul(&operands[0], &operands[1]),
        NodeKind::And => abs_and(&operands[0], &operands[1]),
        NodeKind::Or => abs_or(&operands[0], &operands[1]),
        NodeKind::Xor => {
            if node.inputs.len() == 2 && node.inputs[0] == node.inputs[1] {
                AbsValue::constant(0, 64)
            } else {
                abs_xor(&operands[0], &operands[1])
            }
        }
        NodeKind::Not => abs_not(&operands[0]),
        NodeKind::Eq => {
            if node.inputs.len() == 2 && node.inputs[0] == node.inputs[1] {
                abs_bool(Some(true))
            } else {
                abs_eq(&operands[0], &operands[1])
            }
        }
        NodeKind::Lt => {
            if node.inputs.len() == 2 && node.inputs[0] == node.inputs[1] {
                abs_bool(Some(false))
            } else {
                abs_lt(&operands[0], &operands[1])
            }
        }
        NodeKind::Mux => {
            let sel = &operands[0];
            let (a, b) = (operands[1].truncate(w), operands[2].truncate(w));
            return Some(match mux_select(sel) {
                Some(true) => a,
                Some(false) => b,
                None => a.join(&b),
            });
        }
        NodeKind::Slice { lo } => abs_shr(&operands[0], *lo),
        NodeKind::Concat => abs_concat(operands),
    };
    Some(raw.truncate(w))
}

/// What a mux select fact decides: `Some(true)` when provably non-zero,
/// `Some(false)` when provably zero, `None` when open. Shared by the
/// transfer function, the `fold_known_bits` pass, and the dead-arm lint so
/// they cannot disagree.
pub fn mux_select(sel: &AbsValue) -> Option<bool> {
    if sel.lo > 0 || sel.ones != 0 {
        Some(true)
    } else if sel.hi == 0 {
        Some(false)
    } else {
        None
    }
}

/// The fact flowing *into* a sequential node this cycle (the value it will
/// hold next cycle), truncated to the node's width.
fn seq_inflow(node: &Node, operands: &[AbsValue]) -> Option<AbsValue> {
    match &node.kind {
        // An enable proven always-zero means the register can never load:
        // it holds its power-up value forever, so nothing flows in. This is
        // what lets the analysis discharge `rv::auto_wrap`'s skid buffer in
        // environments that provably never stall.
        NodeKind::RegEn if mux_select(&operands[1]) == Some(false) => None,
        NodeKind::Reg | NodeKind::RegEn | NodeKind::Delay(_) => {
            Some(operands[0].truncate(node.width))
        }
        NodeKind::PipelinedOp { op, .. } => Some(abs_pipe(*op, operands).truncate(node.width)),
        _ => unreachable!("seq_inflow on combinational node"),
    }
}

/// The result of [`analyze`]: one [`AbsValue`] per net.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Analysis {
    facts: Vec<AbsValue>,
    /// Fixpoint rounds until convergence (diagnostic only).
    pub rounds: u32,
}

impl Analysis {
    /// The fact for a net.
    #[inline]
    pub fn fact(&self, id: NodeId) -> AbsValue {
        self.facts[id.0 as usize]
    }

    /// All facts, indexed by node id.
    pub fn facts(&self) -> &[AbsValue] {
        &self.facts
    }
}

/// Runs the forward dataflow analysis over a netlist.
///
/// Inputs are ⊤ at their width; sequential nodes start from the zero
/// power-up state and accumulate (join, then widen) the facts flowing into
/// them; combinational nodes are re-derived in topological order every
/// round. At the fixpoint every reachable concrete value of every net, on
/// every cycle, is contained in its fact — the property the fuzzer's
/// eleventh oracle checks against live simulation.
///
/// # Errors
///
/// Returns an error for invalid netlists and combinational cycles (the same
/// preconditions the simulator requires).
pub fn analyze(netlist: &Netlist) -> Result<Analysis, String> {
    netlist.validate()?;
    let order = netlist
        .combinational_order()
        .ok_or_else(|| "analyze: netlist has a combinational cycle".to_string())?;
    let mut facts: Vec<AbsValue> = netlist
        .iter()
        .map(|(_, node)| {
            if node.kind.is_sequential() {
                AbsValue::constant(0, node.width)
            } else {
                AbsValue::top(node.width)
            }
        })
        .collect();
    let mut operands: Vec<AbsValue> = Vec::new();
    let mut round = 0u32;
    loop {
        for &id in &order {
            let node = netlist.node(id);
            if node.kind.is_sequential() || matches!(node.kind, NodeKind::Input(_)) {
                continue;
            }
            operands.clear();
            operands.extend(node.inputs.iter().map(|&i| facts[i.0 as usize]));
            if let Some(fact) = comb_transfer(node, &operands) {
                facts[id.0 as usize] = fact;
            }
        }
        let mut changed = false;
        for (id, node) in netlist.iter() {
            if !node.kind.is_sequential() {
                continue;
            }
            operands.clear();
            operands.extend(node.inputs.iter().map(|&i| facts[i.0 as usize]));
            let old = facts[id.0 as usize];
            let new = match seq_inflow(node, &operands) {
                None => old,
                Some(_) if round >= MAX_ROUNDS => AbsValue::top(node.width),
                Some(inflow) if round >= WIDEN_ROUND => old.widen(&inflow),
                Some(inflow) => old.join(&inflow),
            };
            if new != old {
                facts[id.0 as usize] = new;
                changed = true;
            }
        }
        round += 1;
        if !changed {
            break;
        }
    }
    Ok(Analysis { facts, rounds: round })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_util::rng::Rng;

    fn simple(kind: NodeKind, widths: &[u32], out_width: u32) -> (Netlist, NodeId) {
        let mut n = Netlist::new("t");
        let ins: Vec<NodeId> =
            widths.iter().enumerate().map(|(i, &w)| n.add_input(format!("i{i}"), w)).collect();
        let id = n.add_node(kind, ins, out_width, "out");
        n.add_output("o", id);
        (n, id)
    }

    #[test]
    fn regen_with_dead_enable_is_power_up_constant() {
        // skid_valid = RegEn(valid, capture) with capture = And(valid, Not(1)):
        // the enable is provably zero, so the register holds its power-up
        // zero forever — the fact the optimizer uses to strip inert skid
        // buffers from never-stall LI wrappers.
        let mut n = Netlist::new("t");
        let valid = n.add_input("valid", 1);
        let ready = n.add_const(1, 1);
        let stall = n.add_node(NodeKind::Not, vec![ready], 1, "stall");
        let capture = n.add_node(NodeKind::And, vec![valid, stall], 1, "capture");
        let held = n.add_node(NodeKind::RegEn, vec![valid, capture], 1, "held");
        n.add_output("o", held);
        let a = analyze(&n).unwrap();
        assert_eq!(a.fact(held).as_const(), Some(0), "never-enabled RegEn holds power-up zero");

        // The same register with a live enable must stay unknown.
        let mut n = Netlist::new("t2");
        let valid = n.add_input("valid", 1);
        let ready = n.add_input("ready", 1);
        let stall = n.add_node(NodeKind::Not, vec![ready], 1, "stall");
        let capture = n.add_node(NodeKind::And, vec![valid, stall], 1, "capture");
        let held = n.add_node(NodeKind::RegEn, vec![valid, capture], 1, "held");
        n.add_output("o", held);
        let a = analyze(&n).unwrap();
        assert_eq!(a.fact(held).as_const(), None);
    }

    #[test]
    fn constant_is_exact() {
        let mut n = Netlist::new("t");
        let c = n.add_const(0b1010, 4);
        n.add_output("o", c);
        let a = analyze(&n).unwrap();
        assert_eq!(a.fact(c).as_const(), Some(0b1010));
        assert_eq!(format!("{}", a.fact(c)), "const 0xa");
    }

    #[test]
    fn and_or_known_bits() {
        let mut n = Netlist::new("t");
        let x = n.add_input("x", 8);
        let m = n.add_const(0x0f, 8);
        let and = n.add_node(NodeKind::And, vec![x, m], 8, "and");
        let or = n.add_node(NodeKind::Or, vec![x, m], 8, "or");
        n.add_output("a", and);
        n.add_output("b", or);
        let a = analyze(&n).unwrap();
        assert_eq!(a.fact(and).zeros & 0xff, 0xf0);
        assert_eq!(a.fact(and).hi, 0x0f);
        assert_eq!(a.fact(or).ones, 0x0f);
        assert_eq!(a.fact(or).lo, 0x0f);
    }

    #[test]
    fn add_interval_and_low_bits() {
        let mut n = Netlist::new("t");
        let x = n.add_input("x", 4);
        // x & 0b1100 pins the low two bits to 0; adding 1 pins them to 01.
        let c = n.add_const(0b1100, 4);
        let one = n.add_const(1, 4);
        let and = n.add_node(NodeKind::And, vec![x, c], 4, "and");
        let add = n.add_node(NodeKind::Add, vec![and, one], 4, "add");
        n.add_output("o", add);
        let a = analyze(&n).unwrap();
        let f = a.fact(add);
        assert_eq!(f.ones & 0b11, 0b01, "low bits of (x & 0b1100) + 1 are 01: {f}");
        assert_eq!(f.zeros & 0b10, 0b10);
    }

    #[test]
    fn comparisons_decided_by_intervals() {
        let mut n = Netlist::new("t");
        let x = n.add_input("x", 3); // [0, 7]
        let c = n.add_const(12, 4);
        let lt = n.add_node(NodeKind::Lt, vec![x, c], 1, "lt");
        let eq = n.add_node(NodeKind::Eq, vec![x, c], 1, "eq");
        let eqx = n.add_node(NodeKind::Eq, vec![x, x], 1, "eqx");
        n.add_output("lt", lt);
        n.add_output("eq", eq);
        n.add_output("eqx", eqx);
        let a = analyze(&n).unwrap();
        assert_eq!(a.fact(lt).as_const(), Some(1), "x < 12 always holds for 3-bit x");
        assert_eq!(a.fact(eq).as_const(), Some(0), "x == 12 never holds for 3-bit x");
        assert_eq!(a.fact(eqx).as_const(), Some(1), "x == x always holds");
    }

    #[test]
    fn mux_dead_arm_and_join() {
        let mut n = Netlist::new("t");
        let x = n.add_input("x", 8);
        let sel = n.add_const(1, 1);
        let a5 = n.add_const(5, 8);
        let b9 = n.add_const(9, 8);
        let dead = n.add_node(NodeKind::Mux, vec![sel, a5, b9], 8, "dead");
        let open_sel = n.add_input("s", 1);
        let open = n.add_node(NodeKind::Mux, vec![open_sel, a5, b9], 8, "open");
        n.add_output("d", dead);
        n.add_output("o", open);
        let _ = x;
        let a = analyze(&n).unwrap();
        assert_eq!(a.fact(dead).as_const(), Some(5));
        let f = a.fact(open);
        assert_eq!((f.lo, f.hi), (5, 9));
        // 5 = 0b0101, 9 = 0b1001: bit 0 known 1, bit 1/2/3 unknown-ish.
        assert_eq!(f.ones & 1, 1);
        assert!(f.contains(5) && f.contains(9));
    }

    #[test]
    fn concat_slice_compose() {
        let mut n = Netlist::new("t");
        let hi = n.add_const(0b101, 3);
        let lo = n.add_input("x", 4);
        let cat = n.add_node(NodeKind::Concat, vec![hi, lo], 7, "cat");
        let back = n.add_node(NodeKind::Slice { lo: 4 }, vec![cat], 3, "back");
        n.add_output("c", cat);
        n.add_output("b", back);
        let a = analyze(&n).unwrap();
        let f = a.fact(cat);
        assert_eq!(f.ones & 0b1110000, 0b1010000);
        assert_eq!(f.zeros & 0b0100000, 0b0100000);
        assert_eq!((f.lo, f.hi), (0b1010000, 0b1011111));
        assert_eq!(a.fact(back).as_const(), Some(0b101));
    }

    #[test]
    fn register_feedback_counter_terminates_and_is_sound() {
        // A classic saturating counter: r' = mux(r < 5, r + 1, r).
        let mut n = Netlist::new("t");
        let r = n.add_node(NodeKind::Reg, vec![], 4, "r");
        let one = n.add_const(1, 4);
        let five = n.add_const(5, 4);
        let add = n.add_node(NodeKind::Add, vec![r, one], 4, "add");
        let lt = n.add_node(NodeKind::Lt, vec![r, five], 1, "lt");
        let mux = n.add_node(NodeKind::Mux, vec![lt, add, r], 4, "mux");
        n.set_inputs(r, vec![mux]);
        n.add_output("o", r);
        let a = analyze(&n).unwrap();
        // Reached values are 0..=5; the widened fact must contain them all.
        for v in 0..=5u64 {
            assert!(a.fact(r).contains(v), "counter fact {} misses {v}", a.fact(r));
        }
    }

    #[test]
    fn free_running_wrap_counter_widens_to_full_range() {
        let mut n = Netlist::new("t");
        let r = n.add_node(NodeKind::Reg, vec![], 3, "r");
        let one = n.add_const(1, 3);
        let add = n.add_node(NodeKind::Add, vec![r, one], 3, "add");
        n.set_inputs(r, vec![add]);
        n.add_output("o", r);
        let a = analyze(&n).unwrap();
        for v in 0..8u64 {
            assert!(a.fact(r).contains(v));
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let mut n = Netlist::new("t");
        let x = n.add_input("x", 16);
        let r = n.add_node(NodeKind::Reg, vec![x], 16, "r");
        let s = n.add_node(NodeKind::Sub, vec![r, x], 16, "s");
        n.add_output("o", s);
        let a = analyze(&n).unwrap();
        let b = analyze(&n).unwrap();
        assert_eq!(a, b);
    }

    /// Brute-force soundness: tiny random netlists, exhaustively simulated
    /// via `comb_value` on random inputs; every concrete value must be
    /// contained in its fact.
    #[test]
    fn random_comb_netlists_are_contained() {
        for seed in 0..200u64 {
            let mut rng = Rng::new(seed);
            let mut n = Netlist::new("t");
            let mut pool: Vec<NodeId> = (0..3)
                .map(|i| n.add_input(format!("i{i}"), 1 + (rng.next_u64() % 8) as u32))
                .collect();
            for k in 0..12 {
                let w = 1 + (rng.next_u64() % 8) as u32;
                let pick =
                    |rng: &mut Rng, pool: &[NodeId]| pool[(rng.next_u64() as usize) % pool.len()];
                let a = pick(&mut rng, &pool);
                let b = pick(&mut rng, &pool);
                let c = pick(&mut rng, &pool);
                let kind = match rng.next_u64() % 12 {
                    0 => NodeKind::Add,
                    1 => NodeKind::Sub,
                    2 => NodeKind::Mul,
                    3 => NodeKind::And,
                    4 => NodeKind::Or,
                    5 => NodeKind::Xor,
                    6 => NodeKind::Not,
                    7 => NodeKind::Eq,
                    8 => NodeKind::Lt,
                    9 => NodeKind::Mux,
                    10 => NodeKind::Slice { lo: (rng.next_u64() % 10) as u32 },
                    _ => NodeKind::Concat,
                };
                let inputs = match kind {
                    NodeKind::Not | NodeKind::Slice { .. } => vec![a],
                    NodeKind::Mux => vec![a, b, c],
                    NodeKind::Concat => vec![a, b, c],
                    NodeKind::Eq | NodeKind::Lt => vec![a, b],
                    _ => vec![a, b],
                };
                let w = if matches!(kind, NodeKind::Eq | NodeKind::Lt) { 1 } else { w };
                pool.push(n.add_node(kind, inputs, w, format!("n{k}")));
            }
            let out = *pool.last().unwrap();
            n.add_output("o", out);
            let analysis = analyze(&n).unwrap();
            let order = n.combinational_order().unwrap();
            for _ in 0..64 {
                let mut vals = vec![0u64; n.node_count()];
                for &id in &order {
                    let node = n.node(id);
                    let v = match node.kind {
                        NodeKind::Input(_) => mask(rng.next_u64(), node.width),
                        _ => {
                            let ops: Vec<(u64, u32)> = node
                                .inputs
                                .iter()
                                .map(|&i| (vals[i.0 as usize], n.node(i).width))
                                .collect();
                            node.kind.comb_value(&ops, node.width).unwrap()
                        }
                    };
                    vals[id.0 as usize] = v;
                    let fact = analysis.fact(id);
                    assert!(
                        fact.contains(v),
                        "seed {seed}: node {id} ({:?}) value {v} not in {fact}",
                        node.kind
                    );
                }
            }
        }
    }

    #[test]
    fn width_64_edges() {
        // Everything at the (1 << 64) overflow edge: full-width constants,
        // adds that wrap, concat of a 64-bit operand, slices at the top.
        for w in [1u32, 63, 64] {
            let m = mask_bits(w);
            let mut n = Netlist::new("t");
            let x = n.add_input("x", w);
            let c = n.add_const(m, w);
            let add = n.add_node(NodeKind::Add, vec![x, c], w, "add");
            let cat = n.add_node(NodeKind::Concat, vec![x], w, "cat");
            let not = n.add_node(NodeKind::Not, vec![x], w, "not");
            n.add_output("a", add);
            n.add_output("c", cat);
            n.add_output("n", not);
            let a = analyze(&n).unwrap();
            for x_val in [0u64, 1, m / 2, m.saturating_sub(1), m] {
                let x_val = mask(x_val, w);
                let ops = [(x_val, w), (m, w)];
                let add_v = NodeKind::Add.comb_value(&ops, w).unwrap();
                assert!(a.fact(add).contains(add_v));
                let cat_v = NodeKind::Concat.comb_value(&[(x_val, w)], w).unwrap();
                assert!(a.fact(cat).contains(cat_v));
                assert_eq!(cat_v, x_val, "single-operand concat is identity at width {w}");
                let not_v = NodeKind::Not.comb_value(&[(x_val, w)], w).unwrap();
                assert!(a.fact(not).contains(not_v));
            }
        }
        // Slice with lo past the operand: reads zero, must not panic.
        let (n, id) = simple(NodeKind::Slice { lo: 63 }, &[64], 1);
        let a = analyze(&n).unwrap();
        assert!(a.fact(id).contains(0) && a.fact(id).contains(1));
    }
}
