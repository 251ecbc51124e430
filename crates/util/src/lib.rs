//! Shared infrastructure for the Lilac reproduction workspace.
//!
//! This crate provides the small, dependency-free building blocks used by
//! every other crate in the workspace:
//!
//! * [`intern`] — a string interner producing copyable [`Symbol`]s,
//! * [`span`] — byte-offset source spans and position/line-column mapping,
//! * [`diag`] — structured diagnostics (errors, warnings, notes) with
//!   rendering against a [`SourceMap`],
//! * [`idx`] — strongly-typed index newtypes and dense index maps,
//! * [`par`] — an order-preserving parallel map over scoped threads with
//!   per-item panic isolation; the one executor, used by campaign shards,
//! * [`rng`] — a deterministic pseudo-random generator for tests,
//! * [`fault`] — deterministic seeded fault injection for exercising the
//!   fault-tolerance machinery.
//!
//! # Example
//!
//! ```
//! use lilac_util::intern::Symbol;
//! let a = Symbol::intern("FPAdd");
//! let b = Symbol::intern("FPAdd");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "FPAdd");
//! ```

pub mod diag;
pub mod fault;
pub mod idx;
pub mod intern;
pub mod par;
pub mod rng;
pub mod span;

pub use diag::{
    CheckError, CheckErrorKind, Diagnostic, DiagnosticKind, ErrorReporter, LilacError, Result,
    Severity,
};
pub use fault::{FaultKind, FaultPlan};
pub use intern::Symbol;
pub use span::{SourceFile, SourceMap, Span};
