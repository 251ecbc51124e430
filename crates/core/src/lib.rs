//! Lilac's timeline type system.
//!
//! This crate implements §4 of the paper: a type checker that analyzes each
//! parameterized component and guarantees — for **every** parameterization
//! admitted by the `where` clauses — the absence of structural hazards:
//!
//! 1. **Valid reads** (latency safety): ports are only read during their
//!    availability intervals.
//! 2. **Non-conflicting writes**: every port and bundle element has exactly
//!    one logical driver per clock cycle.
//! 3. **Appropriate delays** (resource safety): instances are re-invoked no
//!    more often than their initiation interval allows, and the component's
//!    own initiation interval is long enough for the schedules it contains.
//!
//! Obligations are generated symbolically over the component's parameters
//! (including *output parameters* of instantiated generators, encoded as
//! uninterpreted functions) and discharged with [`lilac_solver`]. When an
//! obligation is refuted, the diagnostic carries the counterexample
//! parameter assignment, mirroring the compiler interaction shown in §3.2:
//!
//! ```text
//! error: signal available in [G+Add::#L, G+Add::#L+1] but required in [G, G+1]
//! ```
//!
//! # Example
//!
//! ```
//! use lilac_ast::parse_program;
//! use lilac_core::check_program;
//!
//! let src = r#"
//! extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);
//! comp Delay2[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+2, G+3] #W) {
//!     a := new Reg[#W]<G>(i);
//!     b := new Reg[#W]<G+1>(a.out);
//!     o = b.out;
//! }
//! "#;
//! let (prog, _map) = parse_program("delay.lilac", src)?;
//! let report = check_program(&prog)?;
//! assert!(report.is_ok());
//! # Ok::<(), lilac_util::LilacError>(())
//! ```

pub mod check;
pub mod comp;
pub mod fingerprint;
pub mod interface;
pub mod lower;
pub mod reports;

pub use check::{
    check_component, check_component_with, check_program, check_program_incremental,
    check_program_with, verdict, CheckOptions, CheckReport, ComponentReport, IncrementalReport,
};
pub use comp::CompLibrary;
pub use fingerprint::{component_hash, program_component_hashes, ComponentHash};
pub use interface::{GeneratorFeature, InterfaceStyle, TimingKnowledge};
pub use reports::PriorReports;
