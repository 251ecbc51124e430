//! The counterexample report: what the checker tells the user about every
//! rejected fuzz case.
//!
//! The fingerprint hashes only obligation and query counts, and every
//! differential oracle compares verdicts with the counterexample suffix
//! stripped, so neither notices a solver that answers with a different
//! (but still valid) model. This report pins the models themselves: for
//! each rejected case it lists, under both the optimized and the naive
//! checker, every component's rendered error diagnostics (counterexample
//! notes included) and its `enum_assignments` and `cubes` counts.
//!
//! The report is a pure function of `(seed, cases)`, diffed byte for byte
//! against `crates/fuzz/tests/counterexample_baseline.txt`; regenerate it
//! with
//!
//! ```text
//! cargo run --release -p lilac-fuzz --example counterexamples > crates/fuzz/tests/counterexample_baseline.txt
//! ```

use crate::{case_seed, scenario::generate, synth::synthesize};
use lilac_core::{check_against, check_component_with, CheckOptions, ComponentReport};
use lilac_util::diag::DiagnosticKind;
use std::fmt::Write;

/// Base seed of the pinned report.
pub const SEED: u64 = 0;
/// Number of cases the pinned report covers.
pub const CASES: u64 = 200;

/// Renders the report over cases `0..cases` of base seed `seed`. Each case
/// is printed and re-parsed, so diagnostics render against real source
/// lines; cases the optimized checker accepts are skipped.
pub fn report(seed: u64, cases: u64) -> String {
    let mut out = String::new();
    for index in 0..cases {
        let case = case_seed(seed, index);
        let text = lilac_ast::printer::print_program(&synthesize(&generate(case)).program);
        let (program, map) = lilac_ast::parse_program("case.lilac", &text)
            .expect("printed fuzz programs parse (oracle 3)");
        let configs = [("optimized", CheckOptions::default()), ("naive", CheckOptions::naive())];
        let mut sections = Vec::new();
        for (label, options) in &configs {
            let mut components: Vec<ComponentReport> = Vec::new();
            let checked = check_against(&program, None, |lib, module| {
                let report = check_component_with(lib, module, options);
                components.push(report.clone());
                report
            });
            assert!(!components.is_empty(), "case {index}: the component library did not build");
            sections.push((label, checked.verdict.is_ok(), components));
        }
        if sections[0].1 {
            continue;
        }
        for (label, _, components) in sections {
            let _ = writeln!(out, "== case {index} (seed {case:#018x}) {label}");
            for c in components {
                let stats = c.solver_stats;
                let _ = writeln!(
                    out,
                    "-- {}: {} assignments, {} cubes",
                    c.name, stats.enum_assignments, stats.cubes
                );
                for d in c.diagnostics.iter().filter(|d| d.kind == DiagnosticKind::Error) {
                    let _ = writeln!(out, "{}", d.render(&map));
                }
            }
        }
    }
    out
}
