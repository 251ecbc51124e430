//! Elaboration: from well-typed Lilac programs to flat netlists.
//!
//! This crate implements §5 of the paper. Given a type-checked program, a
//! top-level component, and concrete values for its input parameters, the
//! elaborator
//!
//! 1. evaluates every compile-time construct — `let` bindings, `for` loops,
//!    `if` conditionals, bundles — under the concrete parameter values;
//! 2. **invokes generators** for `gen` components through
//!    [`lilac_gen::GeneratorRegistry`], collecting concrete bindings for
//!    their output parameters (the bottom-up flow the paper's output
//!    parameters enable);
//! 3. maps `extern` components onto hardware primitives (registers,
//!    multiplexers, arithmetic);
//! 4. flattens the instance hierarchy into a single
//!    [`Netlist`] ready for simulation
//!    (`lilac-sim`), cost estimation (`lilac-synth`), or Verilog emission
//!    (`lilac-ir::verilog`).
//!
//! Elaboration proceeds bottom-up exactly as §5 describes: a component can
//! only be elaborated once all of the parameter expressions it is
//! instantiated with are concrete, which in turn may require running a
//! generator for a child first. Components are memoized on their argument
//! values, matching the uninterpreted-function semantics of output
//! parameters (two instantiations with the same arguments are the same
//! module).
//!
//! # Example
//!
//! ```
//! use lilac_ast::parse_program;
//! use lilac_elab::{elaborate, ElabConfig};
//! use std::collections::BTreeMap;
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
//! let netlist = elaborate(&prog, "Delay2", &BTreeMap::from([("W".into(), 8)]),
//!                         &ElabConfig::default())?;
//! assert_eq!(netlist.sequential_count(), 2);
//! # Ok::<(), lilac_util::LilacError>(())
//! ```

use lilac_ast::{
    Access, BinOp, Cmd, CmpOp, Constraint, Module, ModuleKind, ParamExpr, PortType, Program,
    Signature, UnOp,
};
use lilac_core::CompLibrary;
use lilac_gen::{GenRequest, GeneratorRegistry};
use lilac_ir::{Netlist, NodeId, NodeKind};
use lilac_util::diag::{Diagnostic, LilacError, Result};
use lilac_util::intern::Symbol;
use lilac_util::span::Span;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Configuration for elaboration. The netlist is returned raw: callers
/// run `lilac_opt::optimize` or `lilac_opt::retime` on it themselves.
#[derive(Clone, Debug, Default)]
pub struct ElabConfig {
    /// Generator registry used to elaborate `gen` components.
    pub registry: GeneratorRegistry,
}

impl ElabConfig {
    /// Configuration with a specific registry.
    pub fn with_registry(registry: GeneratorRegistry) -> ElabConfig {
        ElabConfig { registry }
    }
}

/// Deepest module instantiation elaborated: the top is at depth 0, and an
/// instantiation below depth `MAX_DEPTH` is reported as a likely cycle in
/// the instantiation graph.
const MAX_DEPTH: usize = 64;

/// Result of elaborating one component for one set of argument values.
#[derive(Clone, Debug)]
pub struct ElabModule {
    /// The flattened implementation.
    pub netlist: Netlist,
    /// Concrete values of the component's output parameters.
    pub out_params: BTreeMap<String, u64>,
}

/// Elaborates `top` with the given parameter values into a flat netlist.
///
/// # Errors
///
/// Reports unknown components or parameters, failed generator invocations,
/// failed `assert`s, unsupported constructs (e.g. invoking the same instance
/// twice, which would require sharing logic this backend does not emit), and
/// unresolved signals.
pub fn elaborate(
    program: &Program,
    top: &str,
    params: &BTreeMap<String, u64>,
    config: &ElabConfig,
) -> Result<Netlist> {
    Ok(elaborate_module(program, top, params, config)?.netlist)
}

/// Elaborates `top` and also returns its output-parameter bindings.
///
/// # Errors
///
/// See [`elaborate`].
pub fn elaborate_module(
    program: &Program,
    top: &str,
    params: &BTreeMap<String, u64>,
    config: &ElabConfig,
) -> Result<ElabModule> {
    let lib = CompLibrary::build(program)?;
    let args: BTreeMap<Symbol, u64> = params.iter().map(|(k, v)| (Symbol::intern(k), *v)).collect();
    let mut elab = Elaborator { lib: &lib, config, memo: HashMap::new() };
    let module = elab.elaborate(Symbol::intern(top), &args, 0, Span::dummy())?;
    // Dropping the memo leaves the top unshared, so it is moved, not cloned.
    drop(elab);
    Ok(Rc::unwrap_or_clone(module))
}

// ---------------------------------------------------------------------------

struct Elaborator<'a> {
    lib: &'a CompLibrary<'a>,
    config: &'a ElabConfig,
    /// Elaborated components by name and arguments. Shared, not cloned, on
    /// a hit: callers mostly read only `out_params` or output names.
    memo: HashMap<MemoKey, Rc<ElabModule>>,
}

/// A component name and its argument values, in parameter-name order.
type MemoKey = (Symbol, Vec<(Symbol, u64)>);

fn err(msg: impl Into<String>, span: Span) -> LilacError {
    LilacError::new(Diagnostic::error(msg, span))
}

impl<'a> Elaborator<'a> {
    fn elaborate(
        &mut self,
        name: Symbol,
        args: &BTreeMap<Symbol, u64>,
        depth: usize,
        span: Span,
    ) -> Result<Rc<ElabModule>> {
        if depth > MAX_DEPTH {
            return Err(err(
                format!("instantiation of `{name}` exceeds the maximum elaboration depth (cycle in the instantiation graph?)"),
                span,
            ));
        }
        let key = (name, args.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
        if let Some(cached) = self.memo.get(&key) {
            return Ok(Rc::clone(cached));
        }
        let module =
            self.lib.get(name).ok_or_else(|| err(format!("unknown component `{name}`"), span))?;
        let result = Rc::new(match &module.kind {
            ModuleKind::Extern { .. } => self.elaborate_extern(module, args, span)?,
            ModuleKind::Gen { tool } => self.elaborate_gen(module, tool, args, span)?,
            ModuleKind::Comp { body } => self.elaborate_comp(module, body, args, depth, span)?,
        });
        self.memo.insert(key, Rc::clone(&result));
        Ok(result)
    }

    // -- extern components: builtin primitive library -------------------------

    fn elaborate_extern(
        &mut self,
        module: &Module,
        args: &BTreeMap<Symbol, u64>,
        span: Span,
    ) -> Result<ElabModule> {
        let sig = &module.sig;
        let width = args.get(&Symbol::intern("W")).copied().unwrap_or(0).max(1) as u32;
        let name = sig.name.as_str();
        let port_names: Vec<String> = sig
            .inputs
            .iter()
            .filter(|p| matches!(p.ty, PortType::Data { .. }))
            .map(|p| p.name.to_string())
            .collect();
        let out_name =
            sig.outputs.first().map_or_else(|| "out".to_string(), |p| p.name.to_string());

        let mut netlist = Netlist::new(format!("{name}_{width}"));
        let kind = match name {
            "Reg" => Some(NodeKind::Reg),
            "RegEn" => Some(NodeKind::RegEn),
            "Add" => Some(NodeKind::Add),
            "Sub" => Some(NodeKind::Sub),
            "MulComb" | "Mul" => Some(NodeKind::Mul),
            "And" => Some(NodeKind::And),
            "Or" => Some(NodeKind::Or),
            "Xor" => Some(NodeKind::Xor),
            "Not" => Some(NodeKind::Not),
            "Eq" => Some(NodeKind::Eq),
            "Lt" => Some(NodeKind::Lt),
            "Mux" => Some(NodeKind::Mux),
            _ => None,
        };
        let Some(kind) = kind else {
            return Err(err(
                format!(
                    "extern component `{name}` has no builtin implementation; only Reg, RegEn, Add, Sub, Mul, And, Or, Xor, Not, Eq, Lt, and Mux are provided"
                ),
                span,
            ));
        };
        let out_width = match kind {
            NodeKind::Eq | NodeKind::Lt => 1,
            _ => width,
        };
        let mut input_ids = Vec::new();
        for (idx, pname) in port_names.iter().enumerate() {
            // The select input of a Mux and the enable of RegEn are 1 bit.
            let w = match (&kind, idx, pname.as_str()) {
                (NodeKind::Mux, 0, _) | (NodeKind::RegEn, 1, _) | (_, _, "sel") | (_, _, "en") => 1,
                _ => width,
            };
            input_ids.push(netlist.add_input(pname.clone(), w));
        }
        let node = netlist.add_node(kind, input_ids, out_width, name.to_lowercase());
        netlist.add_output(out_name, node);
        Ok(ElabModule { netlist, out_params: BTreeMap::new() })
    }

    // -- gen components: run the generator model -------------------------------

    fn elaborate_gen(
        &mut self,
        module: &Module,
        tool: &str,
        args: &BTreeMap<Symbol, u64>,
        span: Span,
    ) -> Result<ElabModule> {
        let sig = &module.sig;
        let mut request = GenRequest::new(tool, sig.name.as_str());
        for (k, v) in args {
            request = request.with_param(k.as_str(), *v);
        }
        let result = self
            .config
            .registry
            .generate(&request)
            .map_err(|e| err(format!("generator invocation failed: {e}"), span))?;
        Ok(ElabModule { netlist: result.netlist, out_params: result.out_params })
    }

    // -- Lilac components -------------------------------------------------------

    fn elaborate_comp(
        &mut self,
        module: &Module,
        body: &[Cmd],
        args: &BTreeMap<Symbol, u64>,
        depth: usize,
        span: Span,
    ) -> Result<ElabModule> {
        let sig = &module.sig;
        // Pre-pass: run the body once only to learn the component's own
        // output-parameter bindings. A port of the component may be a bundle
        // whose size is one of those output parameters (e.g. the GBP's
        // `px[#N]` where `#N` comes from the Aetherling convolution), so the
        // real pass needs them before it can flatten the ports. Child
        // elaborations are memoized, so the extra pass is cheap.
        let mut pre_env = EvalEnv::new(sig, args, span)?;
        let mut pre_builder = CompBuilder::new(sig, &pre_env)?;
        self.unroll(body, sig, &mut pre_env, &mut pre_builder, depth)?;

        let mut env = EvalEnv::new(sig, args, span)?;
        for (name, value) in &pre_env.out_params {
            env.params.insert(Symbol::intern(name), *value);
        }
        let mut builder = CompBuilder::new(sig, &env)?;
        self.unroll(body, sig, &mut env, &mut builder, depth)?;
        builder.finish(sig, &env, self, depth)
    }

    #[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
    fn unroll(
        &mut self,
        cmds: &[Cmd],
        sig: &Signature,
        env: &mut EvalEnv,
        builder: &mut CompBuilder,
        depth: usize,
    ) -> Result<()> {
        for cmd in cmds {
            match cmd {
                Cmd::Let { name, value, span } => {
                    let v = self.eval_expr(value, env, depth, *span)?;
                    env.params.insert(name.name, v);
                }
                Cmd::OutParamBind { name, value, span } => {
                    let v = self.eval_expr(value, env, depth, *span)?;
                    env.out_params.insert(name.as_str().to_string(), v);
                    env.params.insert(name.name, v);
                }
                Cmd::Assume { .. } => {}
                Cmd::Assert { constraint, span } => {
                    if !self.eval_constraint(constraint, env, depth, *span)? {
                        return Err(err(
                            format!(
                                "assertion failed during elaboration: {}",
                                lilac_ast::printer::print_constraint(constraint)
                            ),
                            *span,
                        ));
                    }
                }
                Cmd::If { cond, then_body, else_body, span } => {
                    if self.eval_constraint(cond, env, depth, *span)? {
                        self.unroll(then_body, sig, env, builder, depth)?;
                    } else {
                        self.unroll(else_body, sig, env, builder, depth)?;
                    }
                }
                Cmd::For { var, start, end, body, span } => {
                    let lo = self.eval_expr(start, env, depth, *span)?;
                    let hi = self.eval_expr(end, env, depth, *span)?;
                    if hi > lo + 4096 {
                        return Err(err(
                            format!("loop over `#{var}` unrolls to more than 4096 iterations"),
                            *span,
                        ));
                    }
                    let saved = env.params.get(&var.name).copied();
                    for k in lo..hi {
                        env.params.insert(var.name, k);
                        env.loop_suffix.push(k);
                        self.unroll(body, sig, env, builder, depth)?;
                        env.loop_suffix.pop();
                    }
                    match saved {
                        Some(v) => {
                            env.params.insert(var.name, v);
                        }
                        None => {
                            env.params.remove(&var.name);
                        }
                    }
                }
                Cmd::Bundle { name, dims, width, span, .. } => {
                    let dims: Result<Vec<u64>> =
                        dims.iter().map(|d| self.eval_expr(d, env, depth, *span)).collect();
                    let w = self.eval_expr(width, env, depth, *span)?;
                    builder.bundles.insert(name.name, (dims?, w.max(1) as u32));
                }
                Cmd::Instantiate { name, comp, params, span } => {
                    self.record_instance(name.name, comp.name, params, env, builder, depth, *span)?;
                }
                Cmd::InstInvoke { name, comp, params, args, span, .. } => {
                    self.record_instance(name.name, comp.name, params, env, builder, depth, *span)?;
                    self.record_invocation(name.name, name.name, args, env, builder, depth, *span)?;
                }
                Cmd::Invoke { name, instance, args, span, .. } => {
                    self.record_invocation(
                        name.name,
                        instance.name,
                        args,
                        env,
                        builder,
                        depth,
                        *span,
                    )?;
                }
                Cmd::Connect { dst, src, span } => {
                    builder.record_connect(dst, src, env, self, depth, *span)?;
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn record_instance(
        &mut self,
        name: Symbol,
        comp: Symbol,
        params: &[ParamExpr],
        env: &mut EvalEnv,
        builder: &mut CompBuilder,
        depth: usize,
        span: Span,
    ) -> Result<()> {
        let callee = self
            .lib
            .signature(comp)
            .ok_or_else(|| err(format!("unknown component `{comp}`"), span))?;
        let mut values = Vec::new();
        for p in params {
            values.push(self.eval_expr(p, env, depth, span)?);
        }
        // Fill defaults.
        let mut arg_map: BTreeMap<Symbol, u64> = BTreeMap::new();
        for (decl, v) in callee.params.iter().zip(values.iter()) {
            arg_map.insert(decl.name.name, *v);
        }
        for decl in callee.params.iter().skip(values.len()) {
            match &decl.default {
                Some(default) => {
                    let mut callee_env = EvalEnv {
                        params: arg_map.clone(),
                        out_params: BTreeMap::new(),
                        loop_suffix: Vec::new(),
                        instances: HashMap::new(),
                        span,
                    };
                    let v = self.eval_expr(default, &mut callee_env, depth, span)?;
                    arg_map.insert(decl.name.name, v);
                }
                None => {
                    return Err(err(
                        format!("missing parameter `#{}` for `{comp}`", decl.name),
                        span,
                    ))
                }
            }
        }
        // Elaborate the child now (bottom-up): its output parameters may be
        // read by parameter expressions later in this body.
        let child = self.elaborate(comp, &arg_map, depth + 1, span)?;
        let unique = env.unique_name(name);
        env.instances.insert(
            unique.clone(),
            InstanceElab { comp, args: arg_map, out_params: child.out_params.clone() },
        );
        // The plain (un-suffixed) name refers to the most recent iteration's
        // instance, which is how loop bodies use it.
        env.instances.insert(
            name.as_str().to_string(),
            InstanceElab {
                comp,
                args: env.instances[&unique].args.clone(),
                out_params: child.out_params.clone(),
            },
        );
        builder.instances.push(PendingInstance {
            unique_name: unique,
            comp,
            args: env.instances[name.as_str()].args.clone(),
            inputs: Vec::new(),
            invoked: false,
            span,
        });
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn record_invocation(
        &mut self,
        inv_name: Symbol,
        instance: Symbol,
        args: &[Access],
        env: &mut EvalEnv,
        builder: &mut CompBuilder,
        depth: usize,
        span: Span,
    ) -> Result<()> {
        let unique = env.current_unique_name(instance);
        let pending = builder
            .instances
            .iter_mut()
            .rev()
            .find(|p| p.unique_name == unique)
            .ok_or_else(|| err(format!("unknown instance `{instance}`"), span))?;
        if pending.invoked {
            return Err(err(
                format!(
                    "instance `{instance}` is invoked more than once; the netlist backend does not synthesize sharing logic"
                ),
                span,
            ));
        }
        let comp = pending.comp;
        let callee = self
            .lib
            .signature(comp)
            .ok_or_else(|| err(format!("unknown component `{comp}`"), span))?;
        let data_ports: Vec<_> = callee
            .inputs
            .iter()
            .filter(|p| matches!(p.ty, PortType::Data { .. }))
            .cloned()
            .collect();
        if args.len() != data_ports.len() {
            return Err(err(
                format!(
                    "`{}` expects {} argument(s), got {}",
                    callee.name,
                    data_ports.len(),
                    args.len()
                ),
                span,
            ));
        }
        // Flatten each argument into one signal per (flattened) element of
        // the corresponding port.
        let arg_map = pending.args.clone();
        // The callee's bundle-port sizes may be its own output parameters
        // (e.g. Aetherling's `in[#N]`), so evaluate dimensions with the
        // child's elaborated bindings in scope.
        let child = self.elaborate(comp, &arg_map, depth + 1, span)?;
        let mut dim_params = arg_map.clone();
        for (k, v) in &child.out_params {
            dim_params.insert(Symbol::intern(k), *v);
        }
        let mut flattened: Vec<String> = Vec::new();
        for (port, access) in data_ports.iter().zip(args.iter()) {
            let elems = port_element_count(port, &dim_params, self, env, depth, span)?;
            let signals = builder.access_signals(access, elems, env, self, depth, span)?;
            flattened.extend(signals);
        }
        let pending = builder
            .instances
            .iter_mut()
            .rev()
            .find(|p| p.unique_name == unique)
            .expect("instance exists");
        pending.inputs = flattened;
        pending.invoked = true;

        // Reads go through the *invocation* name (`add.o` after
        // `add := Add<G>(l, r);`), so alias the invocation's output signals
        // to the instance's and let parameter accesses resolve through it.
        if inv_name != instance {
            let inv_unique = env.unique_name(inv_name);
            let inst_elab = env.instances.get(&unique).cloned();
            if let Some(inst_elab) = inst_elab {
                env.instances.insert(inv_unique.clone(), inst_elab.clone());
                env.instances.insert(inv_name.as_str().to_string(), inst_elab);
            }
            if inv_unique != unique {
                // Alias every flattened output. The child's elaboration is
                // memoized, so it knows the true element counts even when a
                // dimension depends on one of the child's own output
                // parameters.
                let impl_names: Vec<String> =
                    child.netlist.outputs.iter().map(|(p, _)| p.name.clone()).collect();
                let mut flat_sig_names: Vec<String> = Vec::new();
                for port in &callee.outputs {
                    if port.dims.is_empty() {
                        flat_sig_names.push(port.name.to_string());
                    } else {
                        let count = port
                            .dims
                            .iter()
                            .map(|d| eval_static(d, &arg_map))
                            .product::<Option<u64>>()
                            .unwrap_or(impl_names.len() as u64)
                            .max(1);
                        for i in 0..count {
                            flat_sig_names.push(format!("{}_{i}", port.name));
                        }
                    }
                }
                for (idx, impl_name) in impl_names.iter().enumerate() {
                    builder.signals.insert(
                        format!("{inv_unique}.{impl_name}"),
                        SignalDef::AliasTo(format!("{unique}.{impl_name}")),
                    );
                    if let Some(sig_name) = flat_sig_names.get(idx) {
                        builder.signals.insert(
                            format!("{inv_unique}.{sig_name}"),
                            SignalDef::AliasTo(format!("{unique}.{sig_name}")),
                        );
                    }
                }
                builder.signals.insert(
                    format!("{inv_unique}.$out0"),
                    SignalDef::AliasTo(format!("{unique}.$out0")),
                );
            }
        }
        Ok(())
    }

    // -- concrete evaluation -----------------------------------------------------

    fn eval_expr(
        &mut self,
        e: &ParamExpr,
        env: &mut EvalEnv,
        depth: usize,
        span: Span,
    ) -> Result<u64> {
        Ok(match e {
            ParamExpr::Nat(n) => *n,
            ParamExpr::Param(id) => *env.params.get(&id.name).ok_or_else(|| {
                err(format!("parameter `#{id}` has no concrete value during elaboration"), span)
            })?,
            ParamExpr::Bin(op, a, b) => {
                let x = self.eval_expr(a, env, depth, span)?;
                let y = self.eval_expr(b, env, depth, span)?;
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x.saturating_sub(y),
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0 {
                            return Err(err("division by zero during elaboration", span));
                        }
                        x / y
                    }
                    BinOp::Mod => {
                        if y == 0 {
                            return Err(err("remainder by zero during elaboration", span));
                        }
                        x % y
                    }
                }
            }
            ParamExpr::Un(op, a) => {
                let x = self.eval_expr(a, env, depth, span)?;
                match op {
                    UnOp::Log2 => {
                        if x == 0 {
                            return Err(err("log2(0) during elaboration", span));
                        }
                        (64 - (x - 1).leading_zeros() as u64).min(64)
                    }
                    UnOp::Exp2 => 1u64
                        .checked_shl(x as u32)
                        .ok_or_else(|| err("exp2 overflow during elaboration", span))?,
                }
            }
            ParamExpr::CompAccess { comp, args, param } => {
                let callee = self
                    .lib
                    .signature(comp.name)
                    .ok_or_else(|| err(format!("unknown component `{comp}`"), span))?;
                let mut arg_map = BTreeMap::new();
                for (decl, a) in callee.params.iter().zip(args.iter()) {
                    let v = self.eval_expr(a, env, depth, span)?;
                    arg_map.insert(decl.name.name, v);
                }
                let child = self.elaborate(comp.name, &arg_map, depth + 1, span)?;
                *child.out_params.get(param.as_str()).ok_or_else(|| {
                    err(format!("`{comp}` did not produce output parameter `#{param}`"), span)
                })?
            }
            ParamExpr::InstAccess { instance, param } => {
                let unique = env.current_unique_name(instance.name);
                let inst = env
                    .instances
                    .get(&unique)
                    .or_else(|| env.instances.get(instance.as_str()))
                    .ok_or_else(|| err(format!("unknown instance `{instance}`"), span))?;
                *inst.out_params.get(param.as_str()).ok_or_else(|| {
                    err(format!("instance `{instance}` has no output parameter `#{param}`"), span)
                })?
            }
            ParamExpr::Cond(c, a, b) => {
                if self.eval_constraint(c, env, depth, span)? {
                    self.eval_expr(a, env, depth, span)?
                } else {
                    self.eval_expr(b, env, depth, span)?
                }
            }
        })
    }

    fn eval_constraint(
        &mut self,
        c: &Constraint,
        env: &mut EvalEnv,
        depth: usize,
        span: Span,
    ) -> Result<bool> {
        Ok(match c {
            Constraint::True => true,
            Constraint::Cmp(op, a, b) => {
                let x = self.eval_expr(a, env, depth, span)?;
                let y = self.eval_expr(b, env, depth, span)?;
                match op {
                    CmpOp::Eq => x == y,
                    CmpOp::Ne => x != y,
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Gt => x > y,
                    CmpOp::Ge => x >= y,
                }
            }
            Constraint::NonZero(e) => self.eval_expr(e, env, depth, span)? != 0,
            Constraint::Not(inner) => !self.eval_constraint(inner, env, depth, span)?,
            Constraint::And(a, b) => {
                self.eval_constraint(a, env, depth, span)?
                    && self.eval_constraint(b, env, depth, span)?
            }
            Constraint::Or(a, b) => {
                self.eval_constraint(a, env, depth, span)?
                    || self.eval_constraint(b, env, depth, span)?
            }
        })
    }
}

fn port_element_count(
    port: &lilac_ast::PortDecl,
    args: &BTreeMap<Symbol, u64>,
    elab: &mut Elaborator<'_>,
    _env: &mut EvalEnv,
    depth: usize,
    span: Span,
) -> Result<usize> {
    if port.dims.is_empty() {
        return Ok(1);
    }
    let mut callee_env = EvalEnv {
        params: args.clone(),
        out_params: BTreeMap::new(),
        loop_suffix: Vec::new(),
        instances: HashMap::new(),
        span,
    };
    let mut total = 1u64;
    for d in &port.dims {
        total *= elab.eval_expr(d, &mut callee_env, depth, span)?;
    }
    Ok(total as usize)
}

// ---------------------------------------------------------------------------
// Evaluation environment and netlist builder
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct InstanceElab {
    /// Component this instance was created from (kept for diagnostics).
    #[allow(dead_code)]
    comp: Symbol,
    args: BTreeMap<Symbol, u64>,
    out_params: BTreeMap<String, u64>,
}

#[derive(Clone, Debug)]
struct EvalEnv {
    params: BTreeMap<Symbol, u64>,
    out_params: BTreeMap<String, u64>,
    /// Current loop-iteration indices, used to give per-iteration instances
    /// unique names.
    loop_suffix: Vec<u64>,
    instances: HashMap<String, InstanceElab>,
    /// Source location of the enclosing component (kept for diagnostics).
    #[allow(dead_code)]
    span: Span,
}

impl EvalEnv {
    fn new(sig: &Signature, args: &BTreeMap<Symbol, u64>, span: Span) -> Result<EvalEnv> {
        let mut params = BTreeMap::new();
        for decl in &sig.params {
            match args.get(&decl.name.name) {
                Some(v) => {
                    params.insert(decl.name.name, *v);
                }
                None => {
                    return Err(err(
                        format!("missing value for parameter `#{}` of `{}`", decl.name, sig.name),
                        span,
                    ))
                }
            }
        }
        Ok(EvalEnv {
            params,
            out_params: BTreeMap::new(),
            loop_suffix: Vec::new(),
            instances: HashMap::new(),
            span,
        })
    }

    fn unique_name(&self, name: Symbol) -> String {
        if self.loop_suffix.is_empty() {
            name.as_str().to_string()
        } else {
            let suffix: Vec<String> =
                self.loop_suffix.iter().map(std::string::ToString::to_string).collect();
            format!("{name}#{}", suffix.join("_"))
        }
    }

    /// The unique name the given instance has *in the current iteration*, or
    /// its bare name if it was declared outside any loop.
    fn current_unique_name(&self, name: Symbol) -> String {
        let candidate = self.unique_name(name);
        if self.instances.contains_key(&candidate) {
            candidate
        } else {
            name.as_str().to_string()
        }
    }
}

#[derive(Clone, Debug)]
struct PendingInstance {
    unique_name: String,
    comp: Symbol,
    args: BTreeMap<Symbol, u64>,
    /// Flattened input signal names, in port order. Empty until invoked.
    inputs: Vec<String>,
    /// True once the instance has been scheduled by an invocation. Instances
    /// that are only used for their output parameters (e.g. `Max`) produce no
    /// hardware and are skipped when flattening.
    invoked: bool,
    span: Span,
}

#[derive(Clone, Debug)]
enum SignalDef {
    Resolved(NodeId),
    AliasTo(String),
}

struct CompBuilder {
    netlist: Netlist,
    signals: HashMap<String, SignalDef>,
    bundles: HashMap<Symbol, (Vec<u64>, u32)>,
    instances: Vec<PendingInstance>,
    /// dst signal <- src signal connections recorded during unrolling.
    connects: Vec<(String, String, Span)>,
}

impl CompBuilder {
    fn new(sig: &Signature, env: &EvalEnv) -> Result<CompBuilder> {
        let mut netlist = Netlist::new(sig.name.as_str());
        let mut signals = HashMap::new();
        // Declare flattened module inputs.
        for port in &sig.inputs {
            if let PortType::Interface { .. } = port.ty {
                continue;
            }
            let width = eval_static(&port.width(), &env.params).unwrap_or(1).max(1) as u32;
            let dims = port
                .dims
                .iter()
                .map(|d| eval_static(d, &env.params).unwrap_or(1))
                .collect::<Vec<_>>();
            let count: u64 = dims.iter().product::<u64>().max(1);
            if port.dims.is_empty() {
                let id = netlist.add_input(port.name.to_string(), width);
                signals.insert(port.name.to_string(), SignalDef::Resolved(id));
            } else {
                for i in 0..count {
                    let flat = format!("{}_{i}", port.name);
                    let id = netlist.add_input(flat.clone(), width);
                    signals.insert(flat, SignalDef::Resolved(id));
                    // Bundle-style access `port[i]` aliases the flat input.
                    signals.insert(
                        format!("{}[{i}]", port.name),
                        SignalDef::AliasTo(format!("{}_{i}", port.name)),
                    );
                }
            }
        }
        Ok(CompBuilder {
            netlist,
            signals,
            bundles: HashMap::new(),
            instances: Vec::new(),
            connects: Vec::new(),
        })
    }

    /// Translates a read access into one or more signal names (`count` > 1
    /// for bundle-typed arguments).
    fn access_signals(
        &mut self,
        access: &Access,
        count: usize,
        env: &mut EvalEnv,
        elab: &mut Elaborator<'_>,
        depth: usize,
        span: Span,
    ) -> Result<Vec<String>> {
        match access {
            Access::Const { value, width } => {
                let w = elab.eval_expr(width, env, depth, span)?.max(1) as u32;
                let id = self.netlist.add_const(*value, w);
                let name = format!("$const{}", self.netlist.node_count());
                self.signals.insert(name.clone(), SignalDef::Resolved(id));
                Ok(vec![name; count])
            }
            Access::Var(name) => {
                if let Some((dims, _)) = self.bundles.get(&name.name) {
                    // Whole-bundle access: all elements in order.
                    let total: u64 = dims.iter().product();
                    if count as u64 != total {
                        return Err(err(
                            format!(
                                "bundle `{name}` has {total} element(s) but {count} are required here"
                            ),
                            span,
                        ));
                    }
                    return Ok((0..total).map(|i| format!("{name}[{i}]")).collect());
                }
                if count == 1 {
                    // A scalar port, a previous invocation's single output, or
                    // an alias — resolved later. A bundle-typed module input
                    // that happens to have a single element is flattened to
                    // `name_0`, so fall back to that spelling when the bare
                    // name is not a declared signal.
                    let scalar = self.scalar_signal_name(name.name, env);
                    if !self.signals.contains_key(&scalar)
                        && self.signals.contains_key(&format!("{name}_0"))
                    {
                        return Ok(vec![format!("{name}_0")]);
                    }
                    Ok(vec![scalar])
                } else {
                    // A flattened bundle-typed module input.
                    Ok((0..count).map(|i| format!("{name}_{i}")).collect())
                }
            }
            Access::Port { inv, port } => {
                let unique = env.current_unique_name(inv.name);
                if count == 1 {
                    // Prefer the scalar spelling; fall back to the flattened
                    // element for single-element bundle outputs.
                    let scalar = format!("{unique}.{port}");
                    if !self.signals.contains_key(&scalar)
                        && self.signals.contains_key(&format!("{unique}.{port}_0"))
                    {
                        return Ok(vec![format!("{unique}.{port}_0")]);
                    }
                    Ok(vec![scalar])
                } else {
                    Ok((0..count).map(|i| format!("{unique}.{port}_{i}")).collect())
                }
            }
            Access::Index { base, index } => {
                let idx = elab.eval_expr(index, env, depth, span)?;
                match base.as_ref() {
                    Access::Port { inv, port } => {
                        let unique = env.current_unique_name(inv.name);
                        Ok(vec![format!("{unique}.{port}_{idx}")])
                    }
                    Access::Var(b) => Ok(vec![format!("{b}[{idx}]")]),
                    Access::Index { base: inner, index: outer_idx } => {
                        // Two-dimensional bundle access `w{i}{j}`.
                        let outer = elab.eval_expr(outer_idx, env, depth, span)?;
                        match inner.as_ref() {
                            Access::Var(b) => {
                                let dims = self
                                    .bundles
                                    .get(&b.name)
                                    .cloned()
                                    .map(|(d, _)| d)
                                    .unwrap_or_default();
                                let inner_dim = dims.get(1).copied().unwrap_or(1);
                                Ok(vec![format!("{b}[{}]", outer * inner_dim + idx)])
                            }
                            _ => Err(err("unsupported nested access", span)),
                        }
                    }
                    _ => Err(err("unsupported indexed access", span)),
                }
            }
            Access::Range { base, start, end } => {
                let lo = elab.eval_expr(start, env, depth, span)?;
                let hi = elab.eval_expr(end, env, depth, span)?;
                match base.as_ref() {
                    Access::Var(b) => {
                        if (hi - lo) as usize != count {
                            return Err(err(
                                format!(
                                    "range provides {} element(s) but {count} are required",
                                    hi - lo
                                ),
                                span,
                            ));
                        }
                        Ok((lo..hi).map(|i| format!("{b}[{i}]")).collect())
                    }
                    _ => Err(err("unsupported range access", span)),
                }
            }
        }
    }

    /// The canonical signal name a bare identifier refers to when read as a
    /// scalar.
    fn scalar_signal_name(&self, name: Symbol, env: &EvalEnv) -> String {
        // Invocation result (single-output component)?
        let unique = env.current_unique_name(name);
        if env.instances.contains_key(&unique) {
            return format!("{unique}.$out0");
        }
        name.as_str().to_string()
    }

    fn record_connect(
        &mut self,
        dst: &Access,
        src: &Access,
        env: &mut EvalEnv,
        elab: &mut Elaborator<'_>,
        depth: usize,
        span: Span,
    ) -> Result<()> {
        let dst_signals = self.access_signals(dst, 1, env, elab, depth, span)?;
        let src_signals = self.access_signals(src, 1, env, elab, depth, span)?;
        for (d, s) in dst_signals.into_iter().zip(src_signals) {
            self.connects.push((d, s, span));
        }
        Ok(())
    }

    fn resolve(&self, name: &str) -> Option<NodeId> {
        let mut current = name.to_string();
        for _ in 0..64 {
            match self.signals.get(&current) {
                Some(SignalDef::Resolved(id)) => return Some(*id),
                Some(SignalDef::AliasTo(next)) => current = next.clone(),
                None => {
                    // Follow a recorded connection driving this signal.
                    match self.connects.iter().find(|(d, _, _)| d == &current) {
                        Some((_, s, _)) => current = s.clone(),
                        None => return None,
                    }
                }
            }
        }
        None
    }

    fn finish(
        mut self,
        sig: &Signature,
        env: &EvalEnv,
        elab: &mut Elaborator<'_>,
        depth: usize,
    ) -> Result<ElabModule> {
        // Inline child instances bottom-up: an instance is ready once all of
        // its input signals resolve.
        let mut remaining: Vec<PendingInstance> =
            self.instances.iter().filter(|i| i.invoked).cloned().collect();
        let mut progress = true;
        while progress && !remaining.is_empty() {
            progress = false;
            let mut still_pending = Vec::new();
            for inst in remaining.into_iter() {
                let resolved: Option<Vec<NodeId>> =
                    inst.inputs.iter().map(|s| self.resolve(s)).collect();
                match resolved {
                    Some(drivers) if !inst.inputs.is_empty() || inst.inputs.is_empty() => {
                        self.inline_instance(&inst, &drivers, env, elab, depth)?;
                        progress = true;
                    }
                    _ => still_pending.push(inst),
                }
            }
            remaining = still_pending;
        }
        if let Some(stuck) = remaining.first() {
            let missing: Vec<&String> =
                stuck.inputs.iter().filter(|s| self.resolve(s).is_none()).collect();
            return Err(err(
                format!(
                    "cannot resolve input signal(s) {missing:?} of instance `{}` (undriven wire or combinational dependency cycle)",
                    stuck.unique_name
                ),
                stuck.span,
            ));
        }

        // Drive the module outputs.
        for port in &sig.outputs {
            let width = eval_static(&port.width(), &env.params).unwrap_or(1).max(1) as u32;
            let dims: Vec<u64> =
                port.dims.iter().map(|d| eval_static(d, &env.params).unwrap_or(1)).collect();
            let count = dims.iter().product::<u64>().max(1);
            if port.dims.is_empty() {
                let id = self.resolve(port.name.as_str()).ok_or_else(|| {
                    err(format!("output port `{}` is never driven", port.name), port.span)
                })?;
                self.netlist.add_output(port.name.to_string(), id);
            } else {
                for i in 0..count {
                    let id = self.resolve(&format!("{}[{i}]", port.name)).ok_or_else(|| {
                        err(
                            format!("output element `{}[{i}]` is never driven", port.name),
                            port.span,
                        )
                    })?;
                    self.netlist.add_output(format!("{}_{i}", port.name), id);
                }
            }
            let _ = width;
        }
        self.netlist
            .validate()
            .map_err(|e| err(format!("internal error: invalid netlist: {e}"), sig.span))?;
        Ok(ElabModule { netlist: self.netlist, out_params: env.out_params.clone() })
    }

    fn inline_instance(
        &mut self,
        inst: &PendingInstance,
        drivers: &[NodeId],
        _env: &EvalEnv,
        elab: &mut Elaborator<'_>,
        depth: usize,
    ) -> Result<()> {
        let child = elab.elaborate(inst.comp, &inst.args, depth + 1, inst.span)?;
        // Map the child's netlist inputs positionally onto the drivers.
        if drivers.len() != child.netlist.inputs.len() {
            return Err(err(
                format!(
                    "instance `{}` of `{}` received {} signal(s) but its implementation has {} input(s)",
                    inst.unique_name,
                    inst.comp,
                    drivers.len(),
                    child.netlist.inputs.len()
                ),
                inst.span,
            ));
        }
        let mut driver_map = HashMap::new();
        for (port, driver) in child.netlist.inputs.iter().zip(drivers.iter()) {
            // The checker does not prove widths, so an ill-width connection
            // reaches here; reject it before `Netlist::inline` would panic.
            let got = self.netlist.node(*driver).width;
            if got != port.width {
                return Err(err(
                    format!(
                        "instance `{}` of `{}`: input `{}` is driven by a {got}-bit signal but \
                         the port is {} bit(s) wide",
                        inst.unique_name, inst.comp, port.name, port.width
                    ),
                    inst.span,
                ));
            }
            driver_map.insert(port.name.clone(), *driver);
        }
        let outputs = self.netlist.inline(&child.netlist, &driver_map, &inst.unique_name);
        // Expose the child's outputs as signals, both positionally (for the
        // callee signature's port names) and under the implementation's own
        // names.
        let callee_sig = elab.lib.signature(inst.comp).expect("callee exists");
        let data_outputs: Vec<_> = callee_sig.outputs.iter().collect();
        let impl_outputs: Vec<(String, NodeId)> =
            child.netlist.outputs.iter().map(|(p, _)| (p.name.clone(), outputs[&p.name])).collect();
        // Positional mapping: flatten the signature outputs in order.
        let mut flat_sig_outputs: Vec<String> = Vec::new();
        for port in &data_outputs {
            let dims: Vec<u64> =
                port.dims.iter().map(|d| eval_static(d, &inst.args).unwrap_or(1)).collect();
            let count = dims.iter().product::<u64>().max(1);
            if port.dims.is_empty() {
                flat_sig_outputs.push(port.name.to_string());
            } else {
                for i in 0..count {
                    flat_sig_outputs.push(format!("{}_{i}", port.name));
                }
            }
        }
        for (idx, (impl_name, node)) in impl_outputs.iter().enumerate() {
            self.signals
                .insert(format!("{}.{impl_name}", inst.unique_name), SignalDef::Resolved(*node));
            if let Some(sig_name) = flat_sig_outputs.get(idx) {
                self.signals
                    .insert(format!("{}.{sig_name}", inst.unique_name), SignalDef::Resolved(*node));
            }
            if idx == 0 {
                self.signals
                    .insert(format!("{}.$out0", inst.unique_name), SignalDef::Resolved(*node));
            }
        }
        Ok(())
    }
}

/// Evaluates a parameter expression that only references already-concrete
/// parameters (no component or instance accesses).
fn eval_static(e: &ParamExpr, params: &BTreeMap<Symbol, u64>) -> Option<u64> {
    Some(match e {
        ParamExpr::Nat(n) => *n,
        ParamExpr::Param(id) => *params.get(&id.name)?,
        ParamExpr::Bin(op, a, b) => {
            let x = eval_static(a, params)?;
            let y = eval_static(b, params)?;
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x.saturating_sub(y),
                BinOp::Mul => x * y,
                BinOp::Div => x.checked_div(y)?,
                BinOp::Mod => x.checked_rem(y)?,
            }
        }
        ParamExpr::Un(op, a) => {
            let x = eval_static(a, params)?;
            match op {
                UnOp::Log2 => {
                    if x == 0 {
                        return None;
                    }
                    64 - (x - 1).leading_zeros() as u64
                }
                UnOp::Exp2 => 1u64.checked_shl(x as u32)?,
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain `C0 → C1 → … → C{levels-1} → Reg`: `C{k}` sits at depth `k`
    /// and the closing `Reg` at depth `levels`.
    fn chain(levels: usize) -> String {
        let mut src =
            String::from("extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);\n");
        for k in 0..levels {
            let (child, out) = if k + 1 == levels {
                ("Reg".to_string(), "out")
            } else {
                (format!("C{}", k + 1), "o")
            };
            src.push_str(&format!(
                "comp C{k}[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) {{\n\
                 \x20   c := new {child}[#W]<G>(i);\n\
                 \x20   o = c.{out};\n\
                 }}\n"
            ));
        }
        src
    }

    #[test]
    fn depth_limit_is_one_constant_under_every_config() {
        let params = BTreeMap::from([("W".to_string(), 4)]);
        for config in
            [ElabConfig::default(), ElabConfig::with_registry(GeneratorRegistry::default())]
        {
            let (deepest, _) = lilac_ast::parse_program("chain.lilac", &chain(MAX_DEPTH)).unwrap();
            let netlist = elaborate(&deepest, "C0", &params, &config)
                .expect("an instantiation at depth MAX_DEPTH elaborates");
            assert_eq!(netlist.sequential_count(), 1);

            let src = chain(MAX_DEPTH + 1);
            let (too_deep, map) = lilac_ast::parse_program("chain.lilac", &src).unwrap();
            let error = elaborate(&too_deep, "C0", &params, &config)
                .expect_err("an instantiation below depth MAX_DEPTH is rejected");
            let primary = error.primary();
            assert!(
                primary.message.contains("`Reg` exceeds the maximum elaboration depth"),
                "{}",
                primary.message
            );
            let at = map.describe(primary.span);
            let line = src.lines().position(|l| l.contains("new Reg")).unwrap() + 1;
            assert!(at.contains(&format!(":{line}:")), "error at {at}, expected line {line}");
        }
    }
}
