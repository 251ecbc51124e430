//! Program mutations for the tenth (incremental re-checking) oracle.
//!
//! The oracle models an editing session: a stream of re-check requests where
//! each request differs from the last by one of the edits a developer
//! actually makes. Two of the mutations — [`Mutation::Rename`] and
//! [`Mutation::Reorder`] — must be invisible to the content hash (it is
//! alpha- and order-invariant by construction), so a warm
//! [`PriorReports`](lilac_core::PriorReports) must replay every clean
//! verdict. The other two — [`Mutation::EditBody`] and
//! [`Mutation::EditCalleeSignature`] — change exactly one component's
//! checking inputs (respectively: that component; the callee plus every
//! transitive caller whose signature closure contains it), and the
//! incremental verdict must still equal the from-scratch one.
//!
//! Every mutation is a pure AST-to-AST function driven by its own [`Rng`],
//! so applying one never perturbs the scenario generator's stream — the
//! fuzzer's fingerprint is untouched.

use lilac_ast::{
    Access, Cmd, CmpOp, Constraint, Ident, Interval, Module, ParamDecl, ParamExpr, PortType,
    Program, Signature, TimeExpr,
};
use lilac_util::hash::FxHashMap;
use lilac_util::rng::Rng;
use lilac_util::Symbol;

/// One editing-session step applied between re-check requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Alpha-rename every component (and rewrite every reference).
    Rename,
    /// Rotate the module declaration order.
    Reorder,
    /// Append an inert `assume` to one component's body.
    EditBody,
    /// Append a defaulted parameter to one instantiated callee's signature.
    EditCalleeSignature,
}

impl Mutation {
    /// The full editing session the oracle replays, in order.
    pub const SESSION: [Mutation; 4] =
        [Mutation::Rename, Mutation::Reorder, Mutation::EditBody, Mutation::EditCalleeSignature];

    /// Whether the mutation must leave every component's content hash
    /// unchanged (so a warm cache must serve every clean verdict).
    pub fn preserves_hashes(self) -> bool {
        matches!(self, Mutation::Rename | Mutation::Reorder)
    }
}

/// Applies `mutation` to a copy of `program`. Always returns a program that
/// parses and prints cleanly; when a mutation has no applicable site (e.g.
/// no component body to edit) the copy is returned unchanged.
pub fn apply(program: &Program, mutation: Mutation, rng: &mut Rng) -> Program {
    let mut out = program.clone();
    match mutation {
        Mutation::Rename => rename_components(&mut out),
        Mutation::Reorder => {
            if out.modules.len() > 1 {
                let by = 1 + rng.index(out.modules.len() - 1);
                out.modules.rotate_left(by);
            }
        }
        Mutation::EditBody => edit_body(&mut out, rng),
        Mutation::EditCalleeSignature => edit_callee_signature(&mut out, rng),
    }
    out
}

/// Renames every module `N` to `NRn` and rewrites every reference —
/// instantiations, combined instantiate-invokes, and parameter-level
/// component accesses, wherever a parameter expression can appear.
fn rename_components(program: &mut Program) {
    let map: FxHashMap<Symbol, Symbol> = program
        .modules
        .iter()
        .map(|m| {
            let old = m.sig.name.name;
            (old, Symbol::intern(&format!("{}Rn", old.as_str())))
        })
        .collect();
    for module in &mut program.modules {
        rewrite_module(module, &map);
    }
}

/// Appends an inert, trivially-provable `assume 1 >= 0;` to one randomly
/// chosen component body: a one-component edit that changes exactly that
/// component's content hash.
fn edit_body(program: &mut Program, rng: &mut Rng) {
    let bodies: Vec<usize> = program
        .modules
        .iter()
        .enumerate()
        .filter(|(_, m)| matches!(m.kind, lilac_ast::ModuleKind::Comp { .. }))
        .map(|(i, _)| i)
        .collect();
    if bodies.is_empty() {
        return;
    }
    let target = bodies[rng.index(bodies.len())];
    if let lilac_ast::ModuleKind::Comp { body } = &mut program.modules[target].kind {
        body.push(Cmd::Assume {
            constraint: Constraint::Cmp(CmpOp::Ge, ParamExpr::Nat(1), ParamExpr::Nat(0)),
            span: lilac_util::Span::dummy(),
        });
    }
}

/// Appends a defaulted parameter to one instantiated callee's signature: a
/// signature edit that is inert at every call site (the default fills in)
/// but must invalidate the callee and every caller whose signature closure
/// reaches it.
fn edit_callee_signature(program: &mut Program, rng: &mut Rng) {
    let mut referenced: Vec<Symbol> = Vec::new();
    for module in &program.modules {
        collect_comp_refs(module, &mut |name| {
            if !referenced.contains(&name) {
                referenced.push(name);
            }
        });
    }
    let defined: Vec<usize> = program
        .modules
        .iter()
        .enumerate()
        .filter(|(_, m)| referenced.contains(&m.sig.name.name))
        .map(|(i, _)| i)
        .collect();
    if defined.is_empty() {
        return;
    }
    let target = defined[rng.index(defined.len())];
    let sig = &mut program.modules[target].sig;
    // A name no generator draws; bail rather than collide if it somehow
    // exists already.
    if sig.params.iter().any(|p| p.name.name.as_str() == "Zq9") {
        return;
    }
    sig.params.push(ParamDecl { name: Ident::synthetic("Zq9"), default: Some(ParamExpr::Nat(0)) });
}

/// Calls `f` with every component name the module references (not its own).
fn collect_comp_refs(module: &Module, f: &mut impl FnMut(Symbol)) {
    // Reuse the rewriting walker on a scratch clone, observing instead of
    // rewriting.
    let mut scratch = module.clone();
    rewrite_module_with(&mut scratch, &mut |ident: &mut Ident| f(ident.name));
}

/// Rewrites every component reference in `module` (and its own name)
/// through `map`.
fn rewrite_module(module: &mut Module, map: &FxHashMap<Symbol, Symbol>) {
    if let Some(new) = map.get(&module.sig.name.name) {
        module.sig.name.name = *new;
    }
    rewrite_module_with(module, &mut |ident: &mut Ident| {
        if let Some(new) = map.get(&ident.name) {
            ident.name = *new;
        }
    });
}

/// Applies `f` to every *component-reference* identifier in the module:
/// `new C[...]` instantiations and `C[...]::#P` parameter accesses,
/// wherever parameter expressions can syntactically appear.
fn rewrite_module_with(module: &mut Module, f: &mut impl FnMut(&mut Ident)) {
    rewrite_signature(&mut module.sig, f);
    match &mut module.kind {
        lilac_ast::ModuleKind::Comp { body } => {
            for cmd in body {
                rewrite_cmd(cmd, f);
            }
        }
        lilac_ast::ModuleKind::Extern { .. } | lilac_ast::ModuleKind::Gen { .. } => {}
    }
}

fn rewrite_signature(sig: &mut Signature, f: &mut impl FnMut(&mut Ident)) {
    for param in &mut sig.params {
        if let ParamDecl { default: Some(default), .. } = param {
            rewrite_param_expr(default, f);
        }
    }
    for event in &mut sig.events {
        rewrite_param_expr(&mut event.delay, f);
    }
    for port in sig.inputs.iter_mut().chain(sig.outputs.iter_mut()) {
        for dim in &mut port.dims {
            rewrite_param_expr(dim, f);
        }
        rewrite_interval(&mut port.liveness, f);
        if let PortType::Data { width } = &mut port.ty {
            rewrite_param_expr(width, f);
        }
    }
    for out_param in &mut sig.out_params {
        for constraint in &mut out_param.constraints {
            rewrite_constraint(constraint, f);
        }
    }
    for clause in &mut sig.where_clauses {
        rewrite_constraint(clause, f);
    }
}

fn rewrite_cmd(cmd: &mut Cmd, f: &mut impl FnMut(&mut Ident)) {
    match cmd {
        Cmd::Instantiate { comp, params, .. } => {
            f(comp);
            for p in params {
                rewrite_param_expr(p, f);
            }
        }
        Cmd::Invoke { schedule, args, .. } => {
            for t in schedule {
                rewrite_param_expr(&mut t.offset, f);
            }
            for a in args {
                rewrite_access(a, f);
            }
        }
        Cmd::InstInvoke { comp, params, schedule, args, .. } => {
            f(comp);
            for p in params {
                rewrite_param_expr(p, f);
            }
            for t in schedule {
                rewrite_param_expr(&mut t.offset, f);
            }
            for a in args {
                rewrite_access(a, f);
            }
        }
        Cmd::Connect { dst, src, .. } => {
            rewrite_access(dst, f);
            rewrite_access(src, f);
        }
        Cmd::Let { value, .. } | Cmd::OutParamBind { value, .. } => rewrite_param_expr(value, f),
        Cmd::Bundle { dims, liveness, width, .. } => {
            for dim in dims {
                rewrite_param_expr(dim, f);
            }
            rewrite_interval(liveness, f);
            rewrite_param_expr(width, f);
        }
        Cmd::Assume { constraint, .. } | Cmd::Assert { constraint, .. } => {
            rewrite_constraint(constraint, f);
        }
        Cmd::If { cond, then_body, else_body, .. } => {
            rewrite_constraint(cond, f);
            for c in then_body.iter_mut().chain(else_body.iter_mut()) {
                rewrite_cmd(c, f);
            }
        }
        Cmd::For { start, end, body, .. } => {
            rewrite_param_expr(start, f);
            rewrite_param_expr(end, f);
            for c in body {
                rewrite_cmd(c, f);
            }
        }
    }
}

fn rewrite_param_expr(expr: &mut ParamExpr, f: &mut impl FnMut(&mut Ident)) {
    match expr {
        ParamExpr::Nat(_) | ParamExpr::Param(_) | ParamExpr::InstAccess { .. } => {}
        ParamExpr::Bin(_, a, b) => {
            rewrite_param_expr(a, f);
            rewrite_param_expr(b, f);
        }
        ParamExpr::Un(_, a) => rewrite_param_expr(a, f),
        ParamExpr::CompAccess { comp, args, .. } => {
            f(comp);
            for a in args {
                rewrite_param_expr(a, f);
            }
        }
        ParamExpr::Cond(c, a, b) => {
            rewrite_constraint(c, f);
            rewrite_param_expr(a, f);
            rewrite_param_expr(b, f);
        }
    }
}

fn rewrite_constraint(constraint: &mut Constraint, f: &mut impl FnMut(&mut Ident)) {
    match constraint {
        Constraint::Cmp(_, a, b) => {
            rewrite_param_expr(a, f);
            rewrite_param_expr(b, f);
        }
        Constraint::NonZero(a) => rewrite_param_expr(a, f),
        Constraint::Not(c) => rewrite_constraint(c, f),
        Constraint::And(a, b) | Constraint::Or(a, b) => {
            rewrite_constraint(a, f);
            rewrite_constraint(b, f);
        }
        Constraint::True => {}
    }
}

fn rewrite_time(time: &mut TimeExpr, f: &mut impl FnMut(&mut Ident)) {
    rewrite_param_expr(&mut time.offset, f);
}

fn rewrite_interval(interval: &mut Interval, f: &mut impl FnMut(&mut Ident)) {
    rewrite_time(&mut interval.start, f);
    rewrite_time(&mut interval.end, f);
}

fn rewrite_access(access: &mut Access, f: &mut impl FnMut(&mut Ident)) {
    match access {
        Access::Var(_) | Access::Port { .. } => {}
        Access::Index { base, index } => {
            rewrite_access(base, f);
            rewrite_param_expr(index, f);
        }
        Access::Range { base, start, end } => {
            rewrite_access(base, f);
            rewrite_param_expr(start, f);
            rewrite_param_expr(end, f);
        }
        Access::Const { width, .. } => rewrite_param_expr(width, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_core::{check_program_incremental, CheckOptions, PriorReports};
    use lilac_designs::Design;

    /// FPU's body binds `let #Max` next to a reference to the stdlib
    /// component `Max`; renaming components must not disturb the content
    /// hash through that shared spelling.
    #[test]
    fn renaming_the_fpu_design_is_all_hits() {
        let base = Design::Fpu.program().expect("FPU parses");
        let renamed = apply(&base, Mutation::Rename, &mut Rng::new(0));
        let options = CheckOptions::default();
        let mut prior = PriorReports::new();
        check_program_incremental(&base, &options, &mut prior).expect("FPU checks");
        let inc = check_program_incremental(&renamed, &options, &mut prior).expect("FPU checks");
        assert_eq!(inc.misses, 0, "{} of {} components missed", inc.misses, inc.hits + inc.misses);
    }
}
