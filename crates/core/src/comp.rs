//! The component library: name resolution and signature well-formedness.
//!
//! A [`CompLibrary`] indexes every module of a program by name so the type
//! checker and the elaborator can resolve instantiations, and performs the
//! purely structural checks on signatures (duplicate names, unknown events,
//! intervals anchored on undeclared events, and so on) that do not require
//! the solver.

use lilac_ast::{Module, ModuleKind, PortType, Program, Signature};
use lilac_util::diag::{Diagnostic, ErrorReporter, Result};
use lilac_util::hash::FxHashMap;
use lilac_util::intern::Symbol;

/// An indexed view of a program's modules.
#[derive(Clone, Debug)]
pub struct CompLibrary<'p> {
    program: &'p Program,
    by_name: FxHashMap<Symbol, usize>,
}

impl<'p> CompLibrary<'p> {
    /// Builds a library from a program.
    ///
    /// # Errors
    ///
    /// Reports duplicate module definitions and malformed signatures.
    pub fn build(program: &'p Program) -> Result<CompLibrary<'p>> {
        let mut reporter = ErrorReporter::new();
        let mut by_name = FxHashMap::default();
        for (idx, module) in program.modules.iter().enumerate() {
            let name = module.name();
            if let Some(&prev) = by_name.get(&name) {
                let prev: usize = prev;
                let prev_span = program.modules[prev].sig.name.span;
                reporter.report(
                    Diagnostic::error(
                        format!("component `{name}` is defined more than once"),
                        module.sig.name.span,
                    )
                    .with_note_at("previous definition here", prev_span),
                );
            } else {
                by_name.insert(name, idx);
            }
            check_signature(&module.sig, &mut reporter);
            if let ModuleKind::Gen { tool } = &module.kind {
                if tool.is_empty() {
                    reporter.error("generator tool name must not be empty", module.sig.span);
                }
            }
        }
        reporter.to_result(CompLibrary { program, by_name })
    }

    /// The underlying program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Looks up a module by name.
    pub fn get(&self, name: Symbol) -> Option<&'p Module> {
        self.by_name.get(&name).map(|&i| &self.program.modules[i])
    }

    /// Looks up a module by string name.
    pub fn get_named(&self, name: &str) -> Option<&'p Module> {
        self.get(Symbol::intern(name))
    }

    /// Looks up a module's signature by name.
    pub fn signature(&self, name: Symbol) -> Option<&'p Signature> {
        self.get(name).map(|m| &m.sig)
    }

    /// Iterates over all modules in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &'p Module> + '_ {
        self.program.modules.iter()
    }

    /// Names of every module that is a Lilac component (has a body).
    pub fn component_names(&self) -> Vec<Symbol> {
        self.program
            .modules
            .iter()
            .filter(|m| matches!(m.kind, ModuleKind::Comp { .. }))
            .map(lilac_ast::Module::name)
            .collect()
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.program.modules.len()
    }

    /// Returns true if the program has no modules.
    pub fn is_empty(&self) -> bool {
        self.program.modules.is_empty()
    }
}

/// Structural well-formedness checks on a signature.
fn check_signature(sig: &Signature, reporter: &mut ErrorReporter) {
    // Duplicate parameter names.
    let mut seen = FxHashMap::default();
    for p in &sig.params {
        if let Some(_prev) = seen.insert(p.name.name, p.name.span) {
            reporter.error(
                format!("duplicate input parameter `#{}` in `{}`", p.name, sig.name),
                p.name.span,
            );
        }
    }
    for p in &sig.out_params {
        if seen.insert(p.name.name, p.name.span).is_some() {
            reporter.error(
                format!(
                    "output parameter `#{}` shadows another parameter of `{}`",
                    p.name, sig.name
                ),
                p.name.span,
            );
        }
    }
    // Duplicate events.
    let mut events = FxHashMap::default();
    for e in &sig.events {
        if events.insert(e.name.name, e.name.span).is_some() {
            reporter.error(format!("duplicate event `{}` in `{}`", e.name, sig.name), e.name.span);
        }
    }
    // Duplicate port names; intervals must be anchored on declared events.
    let mut ports = FxHashMap::default();
    for port in sig.inputs.iter().chain(sig.outputs.iter()) {
        if ports.insert(port.name.name, port.name.span).is_some() {
            reporter
                .error(format!("duplicate port `{}` in `{}`", port.name, sig.name), port.name.span);
        }
        match &port.ty {
            PortType::Interface { event } => {
                if !events.contains_key(&event.name) {
                    reporter.error(
                        format!(
                            "interface port `{}` refers to undeclared event `{}`",
                            port.name, event
                        ),
                        event.span,
                    );
                }
            }
            PortType::Data { .. } => {
                for t in [&port.liveness.start, &port.liveness.end] {
                    match &t.event {
                        Some(ev) if !events.contains_key(&ev.name) => {
                            reporter.error(
                                format!(
                                    "availability interval of `{}` refers to undeclared event `{}`",
                                    port.name, ev
                                ),
                                ev.span,
                            );
                        }
                        None => {
                            reporter.error(
                                format!(
                                    "availability interval of `{}` must be anchored on an event",
                                    port.name
                                ),
                                t.span,
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    if sig.events.is_empty() && !sig.inputs.is_empty() {
        reporter
            .error(format!("component `{}` has ports but declares no event", sig.name), sig.span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_ast::parse_program;

    fn lib_err(src: &str) -> String {
        let (prog, _) = parse_program("t.lilac", src).unwrap();
        match CompLibrary::build(&prog) {
            Ok(_) => String::new(),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn builds_and_resolves() {
        let (prog, _) = parse_program(
            "t.lilac",
            r#"
            extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);
            comp Top[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) {
                r := new Reg[#W]<G>(i);
                o = r.out;
            }
            "#,
        )
        .unwrap();
        let lib = CompLibrary::build(&prog).unwrap();
        assert_eq!(lib.len(), 2);
        assert!(!lib.is_empty());
        assert!(lib.get_named("Reg").is_some());
        assert!(lib.get_named("Missing").is_none());
        assert_eq!(lib.component_names().len(), 1);
        assert!(lib.signature(Symbol::intern("Top")).is_some());
    }

    #[test]
    fn duplicate_modules_rejected() {
        let msg = lib_err(
            "extern comp A<G:1>(x: [G, G+1] 8) -> ();\nextern comp A<G:1>(x: [G, G+1] 8) -> ();",
        );
        assert!(msg.contains("defined more than once"), "{msg}");
    }

    #[test]
    fn duplicate_params_rejected() {
        let msg = lib_err("extern comp A[#W, #W]<G:1>(x: [G, G+1] 8) -> ();");
        assert!(msg.contains("duplicate input parameter"), "{msg}");
    }

    #[test]
    fn out_param_shadowing_rejected() {
        let msg = lib_err("extern comp A[#L]<G:1>(x: [G, G+1] 8) -> () with { some #L; };");
        assert!(msg.contains("shadows"), "{msg}");
    }

    #[test]
    fn undeclared_event_rejected() {
        let msg = lib_err("extern comp A<G:1>(x: [F, F+1] 8) -> ();");
        assert!(msg.contains("undeclared event"), "{msg}");
    }

    #[test]
    fn duplicate_ports_rejected() {
        let msg = lib_err("extern comp A<G:1>(x: [G, G+1] 8) -> (x: [G, G+1] 8);");
        assert!(msg.contains("duplicate port"), "{msg}");
    }

    #[test]
    fn missing_event_with_ports_rejected() {
        let msg = lib_err("extern comp A(x: [G, G+1] 8) -> ();");
        assert!(!msg.is_empty());
    }

    #[test]
    fn empty_generator_name_rejected() {
        let msg = lib_err("gen \"\" comp A<G:1>(x: [G, G+1] 8) -> ();");
        assert!(msg.contains("tool name"), "{msg}");
    }
}
