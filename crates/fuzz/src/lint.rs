//! The canonical lint surface.
//!
//! One list of netlists, shared by everything that reports static-analysis
//! lints: `lilac-fuzz --lint`, the golden baseline
//! (`crates/fuzz/tests/lint_baseline.txt`, also diffed by CI's lint
//! smoke), the Figure 8 `lints` column, and the bugfix-sweep triage. Three families of targets:
//!
//! 1. the eight bundled designs, each elaborated at a representative top
//!    and width;
//! 2. the LA/LI wrapper glue of Table 1 — `rv::auto_wrap` around the
//!    elaborated FPU and GBP cores (the known over-emitter), their
//!    never-stall specializations, and the hand-built LI system netlists;
//! 3. every clean case of the pinned corpus (`fuzz/corpus/*.lilac`),
//!    elaborated exactly as its directive header records.
//!
//! The report is a pure function of the repository contents, so CI can
//! diff it byte-for-byte against `crates/fuzz/tests/lint_baseline.txt`:
//! any new *or* vanished lint fails the build until the baseline is
//! regenerated (`lilac-fuzz --lint > crates/fuzz/tests/lint_baseline.txt`)
//! and the change reviewed.

use lilac_analysis::lint::Lint;
use lilac_designs::Design;
use lilac_elab::{elaborate_module, ElabConfig};
use lilac_ir::Netlist;
use lilac_li::{fpu, gbp, rv};
use std::collections::BTreeMap;

/// One named netlist on the lint surface.
pub struct LintTarget {
    /// Stable display name (baseline key).
    pub name: String,
    /// The netlist to analyze.
    pub netlist: Netlist,
}

/// The representative top component and elaboration width per bundled
/// design — the same tops the CI lint-smoke step exercises.
pub fn design_tops() -> Vec<(Design, &'static str, u64)> {
    vec![
        (Design::Risc3, "Risc3", 16),
        (Design::Gbp, "Gbp", 8),
        (Design::FftLilacOnly, "Fft8", 16),
        (Design::FftFloPoCo, "FftF8", 16),
        (Design::Stdlib, "MuxReg", 16),
        (Design::BlasLevel1, "DotPipe", 16),
        (Design::Fpu, "FPU", 32),
        (Design::Divider, "DivPipe", 16),
    ]
}

/// Builds the full lint surface, in reporting order.
///
/// # Errors
///
/// Propagates parse/type-check/elaboration errors from the bundled designs
/// or a corpus file (none expected on a clean tree).
pub fn targets() -> Result<Vec<LintTarget>, String> {
    let mut out = Vec::new();

    // 1. Bundled designs.
    let mut cores: BTreeMap<&'static str, Netlist> = BTreeMap::new();
    for (design, top, w) in design_tops() {
        let program = design.program().map_err(|e| format!("{}: {e}", design.name()))?;
        let mut params = BTreeMap::from([("W".to_string(), w)]);
        if top == "DotPipe" {
            params.insert("D".to_string(), 2);
        }
        let module = elaborate_module(&program, top, &params, &ElabConfig::default())
            .map_err(|e| format!("{}/{top}: {e}", design.name()))?;
        if top == "FPU" || top == "Gbp" {
            cores.insert(top, module.netlist.clone());
        }
        out.push(LintTarget { name: format!("design {top} (W={w})"), netlist: module.netlist });
    }

    // 2. LA/LI wrapper glue.
    for (core_name, latency) in [("FPU", 4u32), ("Gbp", 4)] {
        let core = &cores[core_name];
        let wrapped = rv::auto_wrap(core, latency);
        out.push(LintTarget {
            name: format!("glue auto_wrap({core_name}, latency={latency})"),
            netlist: wrapped.clone(),
        });
        out.push(LintTarget {
            name: format!("glue never_stall(auto_wrap({core_name}))"),
            netlist: rv::never_stall(&wrapped),
        });
    }
    out.push(LintTarget { name: "glue li_fpu(32, 4, 2)".into(), netlist: fpu::li_fpu(32, 4, 2) });
    out.push(LintTarget { name: "glue li_gbp(8, 4)".into(), netlist: gbp::li_gbp(8, 4) });

    // 3. Pinned corpus (clean cases only; rejected programs never
    // elaborate).
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "lilac"))
        .collect();
    paths.sort();
    for path in paths {
        let file = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let d = crate::corpus::parse_directives(&text).map_err(|e| format!("{file}: {e}"))?;
        if !d.expect_check_ok {
            continue;
        }
        let (program, _) =
            lilac_ast::parse_program(&file, &text).map_err(|e| format!("{file}: parse: {e}"))?;
        let params = BTreeMap::from([("W".to_string(), d.width)]);
        let module = elaborate_module(&program, &d.top, &params, &ElabConfig::default())
            .map_err(|e| format!("{file}: elaborate: {e}"))?;
        out.push(LintTarget { name: format!("corpus {file}"), netlist: module.netlist });
    }
    Ok(out)
}

/// Elaborates `design`'s representative top, lints the netlist, and
/// attaches the findings (as diagnostics) to the matching component of a
/// check report. The type checker itself never sees a netlist, so this is
/// how elaborating callers surface static-analysis lints through
/// [`lilac_core::ComponentReport`]. Returns the number of lints attached.
///
/// # Errors
///
/// Propagates elaboration or analysis errors (none expected on the
/// bundled designs).
pub fn attach_design_lints(
    design: Design,
    report: &mut lilac_core::CheckReport,
) -> Result<usize, String> {
    let Some((_, top, w)) = design_tops().into_iter().find(|(d, _, _)| *d == design) else {
        return Ok(0);
    };
    let program = design.program().map_err(|e| format!("{}: {e}", design.name()))?;
    let mut params = BTreeMap::from([("W".to_string(), w)]);
    if top == "DotPipe" {
        params.insert("D".to_string(), 2);
    }
    let module = elaborate_module(&program, top, &params, &ElabConfig::default())
        .map_err(|e| format!("{}/{top}: {e}", design.name()))?;
    let lints = lilac_analysis::lint::lint(&module.netlist)
        .map_err(|e| format!("{}/{top}: {e}", design.name()))?;
    let attached = lints.len();
    if let Some(component) = report.components.iter_mut().find(|c| c.name.as_str() == top) {
        component.lints = lints.iter().map(lilac_analysis::lint::Lint::to_diagnostic).collect();
    }
    Ok(attached)
}

/// Lints one target, returning its findings.
///
/// # Errors
///
/// Propagates the analyzer's preconditions (valid netlist, no
/// combinational cycle) — a failure here is a bug, not a lint.
pub fn lint_target(target: &LintTarget) -> Result<Vec<Lint>, String> {
    lilac_analysis::lint::lint(&target.netlist).map_err(|e| format!("{}: {e}", target.name))
}

/// The full deterministic lint report, one line per finding under a
/// `== target: N lint(s)` header per target. This is what `lilac-fuzz
/// --lint` prints and what the golden baseline pins.
///
/// # Errors
///
/// See [`targets`] and [`lint_target`].
pub fn report() -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for target in targets()? {
        let lints = lint_target(&target)?;
        lines.push(format!("== {}: {} lint(s)", target.name, lints.len()));
        for l in &lints {
            lines.push(format!("   {}", l.render()));
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    #[test]
    fn surface_covers_designs_glue_and_corpus() {
        let targets = super::targets().unwrap();
        let designs = targets.iter().filter(|t| t.name.starts_with("design ")).count();
        let glue = targets.iter().filter(|t| t.name.starts_with("glue ")).count();
        let corpus = targets.iter().filter(|t| t.name.starts_with("corpus ")).count();
        assert_eq!(designs, 8, "all eight bundled designs");
        assert_eq!(glue, 6, "wrap + never-stall pairs plus the two LI systems");
        assert!(corpus >= 15, "the clean corpus cases, found {corpus}");
    }

    #[test]
    fn report_is_deterministic() {
        assert_eq!(super::report().unwrap(), super::report().unwrap());
    }
}
