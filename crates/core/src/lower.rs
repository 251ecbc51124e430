//! Lowering surface-syntax expressions into solver expressions.
//!
//! This module implements the encoding function ⟦·⟧ of Figure 7b: parameter
//! expressions become [`LinExpr`]s, constraints become [`Pred`]s, and each
//! lowering additionally produces
//!
//! * **facts** the solver may assume (definitional axioms for `/` and `%`,
//!   the `where` clauses attached to output parameters that are accessed,
//!   fresh-variable definitions for conditional expressions), and
//! * **obligations** that must be proved (the accessed component's input
//!   `where` clauses instantiated with the provided arguments).
//!
//! Output parameters are encoded as uninterpreted functions over the
//! component's input parameters: `Max[#A,#B]::#O` lowers to the application
//! `Max::#O(A, B)` exactly as §4.2 prescribes.

use crate::comp::CompLibrary;
use lilac_ast::{BinOp, CmpOp, Constraint, ParamExpr, Signature, TimeExpr, UnOp};
use lilac_solver::{LinExpr, Pred, Term};
use lilac_util::diag::{Diagnostic, LilacError, Result};
use lilac_util::hash::FxHashMap;
use lilac_util::intern::Symbol;
use lilac_util::span::Span;
use std::cell::Cell;

/// A proof obligation produced during lowering or checking.
#[derive(Clone, Debug)]
pub struct Obligation {
    /// The predicate to prove.
    pub pred: Pred,
    /// Human-readable description used in diagnostics.
    pub message: String,
    /// Source location to attach the diagnostic to.
    pub span: Span,
}

/// Result of lowering a parameter expression.
#[derive(Clone, Debug, Default)]
pub struct Lowered {
    /// The lowered expression.
    pub expr: LinExpr,
    /// Facts the caller should assume.
    pub facts: Vec<Pred>,
    /// Obligations the caller should prove.
    pub obligations: Vec<Obligation>,
}

/// Result of lowering a constraint.
#[derive(Clone, Debug)]
pub struct LoweredPred {
    /// The lowered predicate.
    pub pred: Pred,
    /// Facts the caller should assume.
    pub facts: Vec<Pred>,
    /// Obligations the caller should prove.
    pub obligations: Vec<Obligation>,
}

/// Information the lowerer needs about an instantiated instance.
#[derive(Clone, Debug)]
pub struct InstanceInfo {
    /// Name of the component the instance was created from.
    pub comp: Symbol,
    /// Lowered parameter arguments of the instantiation.
    pub args: Vec<LinExpr>,
    /// Source location of the instantiation.
    pub span: Span,
}

/// The lowering environment: component library, instance table, the
/// parameter substitution currently in effect (loop-variable renamings and
/// callee parameter bindings), and the counter that names fresh variables.
pub struct LowerEnv<'a> {
    /// The component library for resolving `Comp[..]::#P` accesses.
    pub lib: &'a CompLibrary<'a>,
    /// Instances visible in the current component body.
    pub instances: &'a FxHashMap<Symbol, InstanceInfo>,
    /// Substitution applied to bare parameter references.
    pub subst: &'a FxHashMap<Symbol, LinExpr>,
    /// Fresh-variable counter of the current check. Names only need to be
    /// unique within one solver, so each check numbers its own from zero
    /// and the interner holds a few names per check shape, not one per
    /// conditional ever lowered.
    pub fresh: &'a Cell<u32>,
}

impl LowerEnv<'_> {
    /// The same environment with `subst` in place of its substitution.
    fn with_subst<'b>(&'b self, subst: &'b FxHashMap<Symbol, LinExpr>) -> LowerEnv<'b> {
        LowerEnv { lib: self.lib, instances: self.instances, subst, fresh: self.fresh }
    }

    /// A fresh solver variable naming a conditional expression's value.
    fn fresh_ite(&self) -> Term {
        let n = self.fresh.get();
        self.fresh.set(n + 1);
        Term::Var(Symbol::intern(&format!("$ite${n}")))
    }
}

thread_local! {
    /// Memo for the formatted solver names below: the formatting and the
    /// global-interner lock would otherwise run on every single lowering
    /// step of the hot check path.
    static NAME_MEMO: std::cell::RefCell<FxHashMap<(u8, Symbol, Symbol), Symbol>> =
        std::cell::RefCell::new(FxHashMap::default());
}

fn memoized_symbol(kind: u8, a: Symbol, b: Symbol, make: impl FnOnce() -> String) -> Symbol {
    NAME_MEMO.with(|memo| {
        *memo.borrow_mut().entry((kind, a, b)).or_insert_with(|| Symbol::intern(&make()))
    })
}

/// The uninterpreted-function symbol for `comp`'s output parameter `param`.
pub fn out_param_func(comp: Symbol, param: Symbol) -> String {
    format!("{comp}::#{param}")
}

/// The solver variable used for event `ev` of the current component.
pub fn event_var(ev: Symbol) -> LinExpr {
    let sym = memoized_symbol(0, ev, ev, || format!("@{ev}"));
    LinExpr::from_term(Term::Var(sym), 1)
}

/// The solver variable used for a parameter of the current component.
pub fn param_var(name: Symbol) -> LinExpr {
    let sym = memoized_symbol(1, name, name, || format!("#{name}"));
    LinExpr::from_term(Term::Var(sym), 1)
}

/// Lowers a parameter expression.
///
/// # Errors
///
/// Reports unknown components, unknown output parameters, and arity
/// mismatches in component parameter accesses.
pub fn lower_param_expr(e: &ParamExpr, env: &LowerEnv<'_>) -> Result<Lowered> {
    let mut out = Lowered::default();
    out.expr = go(e, env, &mut out.facts, &mut out.obligations)?;
    return Ok(out);

    fn go(
        e: &ParamExpr,
        env: &LowerEnv<'_>,
        facts: &mut Vec<Pred>,
        obligations: &mut Vec<Obligation>,
    ) -> Result<LinExpr> {
        match e {
            ParamExpr::Nat(n) => Ok(LinExpr::constant(*n as i64)),
            ParamExpr::Param(id) => {
                if let Some(replacement) = env.subst.get(&id.name) {
                    Ok(replacement.clone())
                } else {
                    Ok(param_var(id.name))
                }
            }
            ParamExpr::Bin(op, a, b) => {
                let la = go(a, env, facts, obligations)?;
                let lb = go(b, env, facts, obligations)?;
                Ok(match op {
                    BinOp::Add => la + lb,
                    BinOp::Sub => la - lb,
                    BinOp::Mul => la.multiply(&lb),
                    BinOp::Div => {
                        let q = la.divide(&lb);
                        push_divmod_axioms(&la, &lb, facts);
                        q
                    }
                    BinOp::Mod => {
                        let r = la.modulo(&lb);
                        push_divmod_axioms(&la, &lb, facts);
                        r
                    }
                })
            }
            ParamExpr::Un(op, a) => {
                let la = go(a, env, facts, obligations)?;
                Ok(match op {
                    UnOp::Log2 => la.log2(),
                    UnOp::Exp2 => la.exp2(),
                })
            }
            ParamExpr::CompAccess { comp, args, param } => {
                let sig = env.lib.signature(comp.name).ok_or_else(|| {
                    LilacError::new(Diagnostic::error(
                        format!("unknown component `{comp}` in parameter access"),
                        comp.span,
                    ))
                })?;
                let lowered_args: Vec<LinExpr> =
                    args.iter().map(|a| go(a, env, facts, obligations)).collect::<Result<_>>()?;
                let resolved =
                    resolve_param_args(sig, &lowered_args, env, comp.span, facts, obligations)?;
                access_out_param(sig, &resolved, param.name, comp.span, env, facts, obligations)
            }
            ParamExpr::InstAccess { instance, param } => {
                let info = env.instances.get(&instance.name).ok_or_else(|| {
                    LilacError::new(Diagnostic::error(
                        format!("unknown instance `{instance}` in parameter access"),
                        instance.span,
                    ))
                })?;
                let sig = env.lib.signature(info.comp).ok_or_else(|| {
                    LilacError::new(Diagnostic::error(
                        format!("instance `{instance}` refers to unknown component"),
                        instance.span,
                    ))
                })?;
                access_out_param(
                    sig,
                    &info.args,
                    param.name,
                    instance.span,
                    env,
                    facts,
                    obligations,
                )
            }
            ParamExpr::Cond(c, a, b) => {
                let cond = lower_constraint_inner(c, env, facts, obligations)?;
                let la = go(a, env, facts, obligations)?;
                let lb = go(b, env, facts, obligations)?;
                // Encode with a fresh variable v: (c ⇒ v == a) ∧ (¬c ⇒ v == b).
                let v = LinExpr::from_term(env.fresh_ite(), 1);
                facts.push(cond.clone().implies(Pred::eq(v.clone(), la)));
                facts.push(cond.negate().implies(Pred::eq(v.clone(), lb)));
                Ok(v)
            }
        }
    }
}

fn push_divmod_axioms(a: &LinExpr, b: &LinExpr, facts: &mut Vec<Pred>) {
    // When the divisor is positive: a == b*(a/b) + (a%b) and 0 <= a%b < b.
    let q = a.divide(b);
    let r = a.modulo(b);
    let positive = Pred::ge(b.clone(), LinExpr::constant(1));
    let defining = Pred::and([
        Pred::eq(a.clone(), b.multiply(&q) + r.clone()),
        Pred::ge(r.clone(), LinExpr::zero()),
        Pred::lt(r, b.clone()),
    ]);
    facts.push(positive.implies(defining));
}

/// Resolves instantiation arguments against a signature, filling defaults.
pub fn resolve_param_args(
    sig: &Signature,
    provided: &[LinExpr],
    env: &LowerEnv<'_>,
    span: Span,
    facts: &mut Vec<Pred>,
    obligations: &mut Vec<Obligation>,
) -> Result<Vec<LinExpr>> {
    if provided.len() > sig.params.len() {
        return Err(LilacError::new(Diagnostic::error(
            format!(
                "`{}` takes {} parameter(s) but {} were provided",
                sig.name,
                sig.params.len(),
                provided.len()
            ),
            span,
        )));
    }
    let mut args = provided.to_vec();
    for decl in sig.params.iter().skip(provided.len()) {
        match &decl.default {
            Some(default) => {
                // Defaults may reference earlier parameters of the callee.
                let mut callee_subst: FxHashMap<Symbol, LinExpr> = FxHashMap::default();
                for (d, a) in sig.params.iter().zip(args.iter()) {
                    callee_subst.insert(d.name.name, a.clone());
                }
                let lowered = lower_param_expr(default, &env.with_subst(&callee_subst))?;
                facts.extend(lowered.facts);
                obligations.extend(lowered.obligations);
                args.push(lowered.expr);
            }
            None => {
                return Err(LilacError::new(Diagnostic::error(
                    format!(
                        "`{}` requires parameter `#{}` but only {} argument(s) were provided",
                        sig.name,
                        decl.name,
                        provided.len()
                    ),
                    span,
                )));
            }
        }
    }
    Ok(args)
}

/// Produces the expression for an output parameter access and records the
/// associated facts (the callee's guarantees) and obligations (the callee's
/// input requirements).
fn access_out_param(
    sig: &Signature,
    args: &[LinExpr],
    param: Symbol,
    span: Span,
    env: &LowerEnv<'_>,
    facts: &mut Vec<Pred>,
    obligations: &mut Vec<Obligation>,
) -> Result<LinExpr> {
    if sig.out_param(param).is_none() {
        return Err(LilacError::new(Diagnostic::error(
            format!("component `{}` has no output parameter `#{param}`", sig.name),
            span,
        )));
    }
    let (all_facts, all_obls) = instantiation_conditions(sig, args, span, env)?;
    facts.extend(all_facts);
    obligations.extend(all_obls);
    Ok(out_param_expr(sig, args, param))
}

/// The uninterpreted application encoding `sig`'s output parameter `param`
/// for the given instantiation arguments.
pub fn out_param_expr(sig: &Signature, args: &[LinExpr], param: Symbol) -> LinExpr {
    let func = memoized_symbol(2, sig.name.name, param, || out_param_func(sig.name.name, param));
    LinExpr::from_term(Term::App { func, args: args.to_vec() }, 1)
}

/// Facts (output-parameter guarantees) and obligations (input `where`
/// clauses) arising from instantiating `sig` with `args`.
///
/// This is the Inst rule of Figure 7b.
pub fn instantiation_conditions(
    sig: &Signature,
    args: &[LinExpr],
    span: Span,
    env: &LowerEnv<'_>,
) -> Result<(Vec<Pred>, Vec<Obligation>)> {
    // Build the substitution for the callee's parameters: input parameters
    // map to the provided arguments, output parameters map to their
    // uninterpreted applications.
    let mut subst: FxHashMap<Symbol, LinExpr> = FxHashMap::default();
    for (decl, arg) in sig.params.iter().zip(args.iter()) {
        subst.insert(decl.name.name, arg.clone());
    }
    for op in &sig.out_params {
        subst.insert(op.name.name, out_param_expr(sig, args, op.name.name));
    }
    let callee_env = env.with_subst(&subst);

    let mut facts = Vec::new();
    let mut obligations = Vec::new();

    // Output-parameter where clauses become facts.
    for op in &sig.out_params {
        for c in &op.constraints {
            let lowered = lower_closed_constraint(c, &callee_env)?;
            facts.push(lowered);
        }
    }
    // Input where clauses become obligations.
    for c in &sig.where_clauses {
        let lowered = lower_closed_constraint(c, &callee_env)?;
        obligations.push(Obligation {
            pred: lowered,
            message: format!(
                "parameterization of `{}` must satisfy `{}`",
                sig.name,
                lilac_ast::printer::print_constraint(c)
            ),
            span,
        });
    }
    Ok((facts, obligations))
}

/// Lowers a constraint whose free parameters are fully bound by the
/// environment's substitution (a callee's `where` clause). Definitional
/// facts produced along the way (division/remainder axioms, conditional
/// definitions) are folded into the returned predicate as conjuncts.
fn lower_closed_constraint(c: &Constraint, env: &LowerEnv<'_>) -> Result<Pred> {
    let mut facts = Vec::new();
    let mut obls = Vec::new();
    let pred = lower_constraint_inner(c, env, &mut facts, &mut obls)?;
    Ok(Pred::and(facts.into_iter().chain([pred])))
}

/// Lowers a constraint.
pub fn lower_constraint(c: &Constraint, env: &LowerEnv<'_>) -> Result<LoweredPred> {
    let mut facts = Vec::new();
    let mut obligations = Vec::new();
    let pred = lower_constraint_inner(c, env, &mut facts, &mut obligations)?;
    Ok(LoweredPred { pred, facts, obligations })
}

fn lower_constraint_inner(
    c: &Constraint,
    env: &LowerEnv<'_>,
    facts: &mut Vec<Pred>,
    obligations: &mut Vec<Obligation>,
) -> Result<Pred> {
    Ok(match c {
        Constraint::True => Pred::True,
        Constraint::Cmp(op, a, b) => {
            let la = lower_sub(a, env, facts, obligations)?;
            let lb = lower_sub(b, env, facts, obligations)?;
            match op {
                CmpOp::Eq => Pred::eq(la, lb),
                CmpOp::Ne => Pred::ne(la, lb),
                CmpOp::Lt => Pred::lt(la, lb),
                CmpOp::Le => Pred::le(la, lb),
                CmpOp::Gt => Pred::gt(la, lb),
                CmpOp::Ge => Pred::ge(la, lb),
            }
        }
        Constraint::NonZero(e) => {
            let le = lower_sub(e, env, facts, obligations)?;
            Pred::ne(le, LinExpr::zero())
        }
        Constraint::Not(inner) => lower_constraint_inner(inner, env, facts, obligations)?.negate(),
        Constraint::And(a, b) => Pred::and([
            lower_constraint_inner(a, env, facts, obligations)?,
            lower_constraint_inner(b, env, facts, obligations)?,
        ]),
        Constraint::Or(a, b) => Pred::or([
            lower_constraint_inner(a, env, facts, obligations)?,
            lower_constraint_inner(b, env, facts, obligations)?,
        ]),
    })
}

fn lower_sub(
    e: &ParamExpr,
    env: &LowerEnv<'_>,
    facts: &mut Vec<Pred>,
    obligations: &mut Vec<Obligation>,
) -> Result<LinExpr> {
    let lowered = lower_param_expr(e, env)?;
    facts.extend(lowered.facts);
    obligations.extend(lowered.obligations);
    Ok(lowered.expr)
}

/// Lowers a time expression to an absolute cycle expression.
///
/// `events` maps event names to their base expressions: the component's own
/// events map to their event variables, while a callee's events map to the
/// invocation's schedule.
pub fn lower_time(
    t: &TimeExpr,
    events: &FxHashMap<Symbol, LinExpr>,
    env: &LowerEnv<'_>,
) -> Result<Lowered> {
    let mut lowered = lower_param_expr(&t.offset, env)?;
    if let Some(ev) = &t.event {
        let base = events.get(&ev.name).ok_or_else(|| {
            LilacError::new(Diagnostic::error(format!("unknown event `{ev}`"), ev.span))
        })?;
        lowered.expr = base.clone() + lowered.expr;
    }
    Ok(lowered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_ast::parse_program;
    use lilac_solver::{Outcome, Solver};

    fn max_lib_src() -> &'static str {
        r#"
        comp Max[#A, #B]<G:1>() -> () with { some #O where #O >= #A, #O >= #B; } {
            #O := #A;
        }
        extern comp FPAdd[#W]<G:1>(l: [G, G+1] #W) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };
        "#
    }

    #[test]
    fn conditional_values_are_numbered_per_check() {
        let (prog, _) = parse_program("t.lilac", max_lib_src()).unwrap();
        let lib = CompLibrary::build(&prog).unwrap();
        let instances = FxHashMap::default();
        let subst = FxHashMap::default();
        let cond = ParamExpr::Cond(
            Box::new(Constraint::Cmp(CmpOp::Gt, ParamExpr::param("A"), ParamExpr::param("B"))),
            Box::new(ParamExpr::param("A")),
            Box::new(ParamExpr::param("B")),
        );
        let ite_names = || {
            let env =
                LowerEnv { lib: &lib, instances: &instances, subst: &subst, fresh: &Cell::new(0) };
            [0, 1].map(|_| lower_param_expr(&cond, &env).unwrap().expr.to_string())
        };
        // Distinct within one check, and the same names again in the next.
        let first = ite_names();
        assert_eq!(first, ["$ite$0", "$ite$1"]);
        assert_eq!(ite_names(), first);
    }

    #[test]
    fn lower_arithmetic() {
        let (prog, _) = parse_program("t.lilac", max_lib_src()).unwrap();
        let lib = CompLibrary::build(&prog).unwrap();
        let instances = FxHashMap::default();
        let subst = FxHashMap::default();
        let env =
            LowerEnv { lib: &lib, instances: &instances, subst: &subst, fresh: &Cell::new(0) };
        let e = ParamExpr::add(ParamExpr::param("W"), ParamExpr::Nat(3));
        let lowered = lower_param_expr(&e, &env).unwrap();
        assert_eq!(lowered.expr, LinExpr::var("#W") + LinExpr::constant(3));
        assert!(lowered.facts.is_empty());
        assert!(lowered.obligations.is_empty());
    }

    #[test]
    fn lower_comp_access_produces_uf_and_facts() {
        let (prog, _) = parse_program("t.lilac", max_lib_src()).unwrap();
        let lib = CompLibrary::build(&prog).unwrap();
        let instances = FxHashMap::default();
        let subst = FxHashMap::default();
        let env =
            LowerEnv { lib: &lib, instances: &instances, subst: &subst, fresh: &Cell::new(0) };
        // Max[#X, #Y]::#O
        let e = ParamExpr::CompAccess {
            comp: lilac_ast::Ident::synthetic("Max"),
            args: vec![ParamExpr::param("X"), ParamExpr::param("Y")],
            param: lilac_ast::Ident::synthetic("O"),
        };
        let lowered = lower_param_expr(&e, &env).unwrap();
        // The guarantees O >= X and O >= Y become facts strong enough to
        // prove O >= X.
        let mut solver = Solver::new();
        for f in &lowered.facts {
            solver.assume(f.clone());
        }
        assert_eq!(
            solver.prove(&Pred::ge(lowered.expr.clone(), LinExpr::var("#X"))),
            Outcome::Proved
        );
        assert_eq!(solver.prove(&Pred::ge(lowered.expr, LinExpr::var("#Y"))), Outcome::Proved);
    }

    #[test]
    fn lower_inst_access_uses_instantiation_args() {
        let (prog, _) = parse_program("t.lilac", max_lib_src()).unwrap();
        let lib = CompLibrary::build(&prog).unwrap();
        let mut instances = FxHashMap::default();
        instances.insert(
            Symbol::intern("Add"),
            InstanceInfo {
                comp: Symbol::intern("FPAdd"),
                args: vec![LinExpr::constant(32)],
                span: Span::dummy(),
            },
        );
        let subst = FxHashMap::default();
        let env =
            LowerEnv { lib: &lib, instances: &instances, subst: &subst, fresh: &Cell::new(0) };
        let e = ParamExpr::InstAccess {
            instance: lilac_ast::Ident::synthetic("Add"),
            param: lilac_ast::Ident::synthetic("L"),
        };
        let lowered = lower_param_expr(&e, &env).unwrap();
        assert_eq!(lowered.expr.to_string(), "FPAdd::#L(32)");
        // The where clause #L > 0 becomes a usable fact.
        let mut solver = Solver::new();
        for f in &lowered.facts {
            solver.assume(f.clone());
        }
        assert_eq!(solver.prove(&Pred::ge(lowered.expr, LinExpr::constant(1))), Outcome::Proved);
    }

    #[test]
    fn unknown_component_and_param_errors() {
        let (prog, _) = parse_program("t.lilac", max_lib_src()).unwrap();
        let lib = CompLibrary::build(&prog).unwrap();
        let instances = FxHashMap::default();
        let subst = FxHashMap::default();
        let env =
            LowerEnv { lib: &lib, instances: &instances, subst: &subst, fresh: &Cell::new(0) };
        let unknown_comp = ParamExpr::CompAccess {
            comp: lilac_ast::Ident::synthetic("Nope"),
            args: vec![],
            param: lilac_ast::Ident::synthetic("O"),
        };
        assert!(lower_param_expr(&unknown_comp, &env).is_err());
        let unknown_param = ParamExpr::CompAccess {
            comp: lilac_ast::Ident::synthetic("Max"),
            args: vec![ParamExpr::Nat(1), ParamExpr::Nat(2)],
            param: lilac_ast::Ident::synthetic("Q"),
        };
        assert!(lower_param_expr(&unknown_param, &env).is_err());
        let unknown_inst = ParamExpr::InstAccess {
            instance: lilac_ast::Ident::synthetic("Ghost"),
            param: lilac_ast::Ident::synthetic("L"),
        };
        assert!(lower_param_expr(&unknown_inst, &env).is_err());
    }

    #[test]
    fn conditional_lowering_is_definable() {
        let (prog, _) = parse_program("t.lilac", max_lib_src()).unwrap();
        let lib = CompLibrary::build(&prog).unwrap();
        let instances = FxHashMap::default();
        let subst = FxHashMap::default();
        let env =
            LowerEnv { lib: &lib, instances: &instances, subst: &subst, fresh: &Cell::new(0) };
        // #W < 12 ? 8 : 4
        let e = ParamExpr::Cond(
            Box::new(Constraint::Cmp(CmpOp::Lt, ParamExpr::param("W"), ParamExpr::Nat(12))),
            Box::new(ParamExpr::Nat(8)),
            Box::new(ParamExpr::Nat(4)),
        );
        let lowered = lower_param_expr(&e, &env).unwrap();
        let mut solver = Solver::new();
        for f in &lowered.facts {
            solver.assume(f.clone());
        }
        solver.assume(Pred::eq(LinExpr::var("#W"), LinExpr::constant(8)));
        assert_eq!(
            solver.prove(&Pred::eq(lowered.expr.clone(), LinExpr::constant(8))),
            Outcome::Proved
        );
    }

    #[test]
    fn time_lowering_resolves_events() {
        let (prog, _) = parse_program("t.lilac", max_lib_src()).unwrap();
        let lib = CompLibrary::build(&prog).unwrap();
        let instances = FxHashMap::default();
        let subst = FxHashMap::default();
        let env =
            LowerEnv { lib: &lib, instances: &instances, subst: &subst, fresh: &Cell::new(0) };
        let mut events = FxHashMap::default();
        events.insert(Symbol::intern("G"), event_var(Symbol::intern("G")));
        let t = TimeExpr::at("G", 3);
        let lowered = lower_time(&t, &events, &env).unwrap();
        assert_eq!(lowered.expr, LinExpr::var("@G") + LinExpr::constant(3));
        let bad = TimeExpr::at("F", 0);
        assert!(lower_time(&bad, &events, &env).is_err());
    }

    #[test]
    fn default_parameters_fill_in() {
        let (prog, _) = parse_program(
            "t.lilac",
            "extern comp FF[#W, #D = #W + 1]<G:1>(i: [G, G+1] #W) -> (o: [G+#D, G+#D+1] #W);",
        )
        .unwrap();
        let lib = CompLibrary::build(&prog).unwrap();
        let instances = FxHashMap::default();
        let subst = FxHashMap::default();
        let env =
            LowerEnv { lib: &lib, instances: &instances, subst: &subst, fresh: &Cell::new(0) };
        let sig = lib.signature(Symbol::intern("FF")).unwrap();
        let mut facts = Vec::new();
        let mut obls = Vec::new();
        let args = resolve_param_args(
            sig,
            &[LinExpr::constant(8)],
            &env,
            Span::dummy(),
            &mut facts,
            &mut obls,
        )
        .unwrap();
        assert_eq!(args.len(), 2);
        assert_eq!(args[1], LinExpr::constant(9));
        // Too many arguments is an error; missing without default is too.
        assert!(resolve_param_args(
            sig,
            &[LinExpr::constant(1), LinExpr::constant(2), LinExpr::constant(3)],
            &env,
            Span::dummy(),
            &mut facts,
            &mut obls,
        )
        .is_err());
    }
}
