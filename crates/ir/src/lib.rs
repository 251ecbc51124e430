//! The elaborated structural IR: netlists of hardware primitives.
//!
//! After type checking, Lilac's elaborator (in `lilac-elab`) evaluates all
//! compile-time constructs and produces a flat [`Netlist`]: a directed graph
//! of primitive [`Node`]s (registers, arithmetic, multiplexers, and the
//! pipelined cores emitted by external generators) connected by wires. The
//! netlist plays the role of the "valid Filament program … compiled down to
//! a Verilog implementation" of §5:
//!
//! * [`lilac_sim`](../lilac_sim/index.html) executes netlists cycle by cycle,
//! * [`lilac_synth`](../lilac_synth/index.html) estimates LUTs, registers and
//!   maximum frequency,
//! * [`verilog`] renders them as synthesizable Verilog text.
//!
//! # Example
//!
//! ```
//! use lilac_ir::{Netlist, NodeKind};
//!
//! // A 2-cycle delay line: out = reg(reg(in)).
//! let mut n = Netlist::new("delay2");
//! let i = n.add_input("i", 8);
//! let r1 = n.add_node(NodeKind::Reg, vec![i], 8, "r1");
//! let r2 = n.add_node(NodeKind::Reg, vec![r1], 8, "r2");
//! n.add_output("o", r2);
//! assert_eq!(n.node_count(), 3);
//! assert!(n.validate().is_ok());
//! ```

pub mod netlist;
pub mod verilog;

/// The map type of [`Netlist::inline`]'s drivers, re-exported so that
/// netlist crates name it without a dependency of their own on `lilac-util`.
pub use lilac_util::hash::FxHashMap;
pub use netlist::{mask, pipe_value, Netlist, Node, NodeId, NodeKind, PipeOp};
pub use verilog::{emit_verilog, VERILOG_KEYWORDS};
