//! Abstract syntax for the Lilac language (Figure 7a of the paper).
//!
//! The AST is purely syntactic: parameter expressions are kept symbolic and
//! are only interpreted by the solver (`lilac-solver`), the type checker
//! (`lilac-core`), and the elaborator (`lilac-elab`).

use lilac_util::intern::Symbol;
use lilac_util::span::Span;
use std::fmt;

/// An identifier with its source location.
///
/// Parameters are written `#W` in the surface syntax; the leading `#` is not
/// part of the interned name.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ident {
    /// Interned name.
    pub name: Symbol,
    /// Source location.
    pub span: Span,
}

impl Ident {
    /// Creates an identifier with a dummy span (for synthesized nodes).
    pub fn synthetic(name: &str) -> Ident {
        Ident { name: Symbol::intern(name), span: Span::dummy() }
    }

    /// Creates an identifier from a symbol and span.
    pub fn new(name: Symbol, span: Span) -> Ident {
        Ident { name, span }
    }

    /// The identifier's text.
    pub fn as_str(&self) -> &'static str {
        self.name.as_str()
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl PartialEq<&str> for Ident {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Binary arithmetic operators on parameter expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction (saturating at zero during elaboration, as parameters are naturals).
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division.
    Div,
    /// Remainder.
    Mod,
}

impl BinOp {
    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary built-in functions on parameter expressions.
///
/// These are encoded as uninterpreted functions with rewrite equalities such
/// as `exp2(log2(n)) = n` (§4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Ceiling base-2 logarithm.
    Log2,
    /// Power of two.
    Exp2,
}

impl UnOp {
    /// Surface syntax of the function.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Log2 => "log2",
            UnOp::Exp2 => "exp2",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A parameter expression (`P` in Figure 7a).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ParamExpr {
    /// A natural-number literal.
    Nat(u64),
    /// A reference to a parameter in scope (input parameter, `let` binding,
    /// loop variable, bundle index variable, or the component's own output
    /// parameter).
    Param(Ident),
    /// A binary arithmetic operation.
    Bin(BinOp, Box<ParamExpr>, Box<ParamExpr>),
    /// A unary built-in function application.
    Un(UnOp, Box<ParamExpr>),
    /// Component parameter access `Max[#A, #B]::#Out`: instantiate `comp`
    /// with the given parameter arguments purely to read one of its output
    /// parameters (a "function over parameters", §3.3).
    CompAccess {
        /// Component being used as a parameter-level function.
        comp: Ident,
        /// Parameter arguments.
        args: Vec<ParamExpr>,
        /// Output parameter being read.
        param: Ident,
    },
    /// Instance output-parameter access `Add::#L`: read an output parameter
    /// of an instance created earlier with `new`.
    InstAccess {
        /// Instance name.
        instance: Ident,
        /// Output parameter being read.
        param: Ident,
    },
    /// A conditional parameter expression `c ? a : b` (used, e.g., by the
    /// Radix-2 divider latency formula in Figure 9b).
    Cond(Box<Constraint>, Box<ParamExpr>, Box<ParamExpr>),
}

impl ParamExpr {
    /// Convenience constructor for `a + b`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: ParamExpr, b: ParamExpr) -> ParamExpr {
        ParamExpr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }

    /// Convenience constructor for `a - b`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: ParamExpr, b: ParamExpr) -> ParamExpr {
        ParamExpr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
    }

    /// Convenience constructor for a parameter reference.
    pub fn param(name: &str) -> ParamExpr {
        ParamExpr::Param(Ident::synthetic(name))
    }

    /// Returns the literal value if this expression is a bare literal.
    pub fn as_nat(&self) -> Option<u64> {
        match self {
            ParamExpr::Nat(n) => Some(*n),
            _ => None,
        }
    }

    /// True if the expression contains no parameter references at all.
    pub fn is_constant(&self) -> bool {
        match self {
            ParamExpr::Nat(_) => true,
            ParamExpr::Param(_) | ParamExpr::InstAccess { .. } => false,
            ParamExpr::Bin(_, a, b) => a.is_constant() && b.is_constant(),
            ParamExpr::Un(_, a) => a.is_constant(),
            ParamExpr::CompAccess { args, .. } => args.iter().all(ParamExpr::is_constant),
            ParamExpr::Cond(c, a, b) => c.is_constant() && a.is_constant() && b.is_constant(),
        }
    }

    /// Collects every parameter identifier mentioned in the expression.
    pub fn collect_params(&self, out: &mut Vec<Ident>) {
        match self {
            ParamExpr::Nat(_) => {}
            ParamExpr::Param(p) => out.push(*p),
            ParamExpr::Bin(_, a, b) => {
                a.collect_params(out);
                b.collect_params(out);
            }
            ParamExpr::Un(_, a) => a.collect_params(out),
            ParamExpr::CompAccess { args, .. } => {
                for a in args {
                    a.collect_params(out);
                }
            }
            ParamExpr::InstAccess { .. } => {}
            ParamExpr::Cond(c, a, b) => {
                c.collect_params(out);
                a.collect_params(out);
                b.collect_params(out);
            }
        }
    }
}

/// Comparison operators appearing in constraints.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Surface syntax of the comparison.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A boolean constraint over parameter expressions (`C` in Figure 7a).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Constraint {
    /// Comparison between two parameter expressions.
    Cmp(CmpOp, ParamExpr, ParamExpr),
    /// A bare parameter expression used as a boolean: true iff non-zero
    /// (appears in generator interfaces such as Figure 9b's `#Fr & ...`).
    NonZero(ParamExpr),
    /// Negation.
    Not(Box<Constraint>),
    /// Conjunction.
    And(Box<Constraint>, Box<Constraint>),
    /// Disjunction.
    Or(Box<Constraint>, Box<Constraint>),
    /// The always-true constraint.
    True,
}

impl Constraint {
    /// Convenience constructor for `a == b`.
    pub fn eq(a: ParamExpr, b: ParamExpr) -> Constraint {
        Constraint::Cmp(CmpOp::Eq, a, b)
    }

    /// Convenience constructor for `a <= b`.
    pub fn le(a: ParamExpr, b: ParamExpr) -> Constraint {
        Constraint::Cmp(CmpOp::Le, a, b)
    }

    /// Convenience constructor for `a > b`.
    pub fn gt(a: ParamExpr, b: ParamExpr) -> Constraint {
        Constraint::Cmp(CmpOp::Gt, a, b)
    }

    /// Conjunction of all constraints in `cs` (true if empty).
    pub fn all(cs: impl IntoIterator<Item = Constraint>) -> Constraint {
        cs.into_iter().fold(Constraint::True, |acc, c| match acc {
            Constraint::True => c,
            acc => Constraint::And(Box::new(acc), Box::new(c)),
        })
    }

    /// True if the constraint mentions no parameters.
    pub fn is_constant(&self) -> bool {
        match self {
            Constraint::Cmp(_, a, b) => a.is_constant() && b.is_constant(),
            Constraint::NonZero(a) => a.is_constant(),
            Constraint::Not(c) => c.is_constant(),
            Constraint::And(a, b) | Constraint::Or(a, b) => a.is_constant() && b.is_constant(),
            Constraint::True => true,
        }
    }

    /// Collects every parameter identifier mentioned in the constraint.
    pub fn collect_params(&self, out: &mut Vec<Ident>) {
        match self {
            Constraint::Cmp(_, a, b) => {
                a.collect_params(out);
                b.collect_params(out);
            }
            Constraint::NonZero(a) => a.collect_params(out),
            Constraint::Not(c) => c.collect_params(out),
            Constraint::And(a, b) | Constraint::Or(a, b) => {
                a.collect_params(out);
                b.collect_params(out);
            }
            Constraint::True => {}
        }
    }
}

/// A point in time: an event plus a parameter-expression offset, e.g.
/// `G + Add::#L`.
///
/// Availability intervals and invocation schedules are built from time
/// expressions. A time expression without an event (offset only) can appear
/// in event-delay positions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TimeExpr {
    /// The base event (`G`), if any.
    pub event: Option<Ident>,
    /// Offset from the event in cycles.
    pub offset: ParamExpr,
    /// Source location.
    pub span: Span,
}

impl TimeExpr {
    /// A time expression `event + offset`.
    pub fn new(event: Option<Ident>, offset: ParamExpr, span: Span) -> TimeExpr {
        TimeExpr { event, offset, span }
    }

    /// A synthetic `G + n` time.
    pub fn at(event: &str, offset: u64) -> TimeExpr {
        TimeExpr {
            event: Some(Ident::synthetic(event)),
            offset: ParamExpr::Nat(offset),
            span: Span::dummy(),
        }
    }
}

/// A half-open availability interval `[start, end)` (written `[G, G+1]` in
/// the surface syntax, following the paper).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Interval {
    /// First cycle in which the value is available / required.
    pub start: TimeExpr,
    /// First cycle in which it is no longer available.
    pub end: TimeExpr,
    /// Source location.
    pub span: Span,
}

/// The type of a port.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PortType {
    /// An ordinary data port of the given bit width.
    Data {
        /// Bit width as a parameter expression.
        width: ParamExpr,
    },
    /// An interface port providing an event (`val_i: interface[G]`).
    Interface {
        /// The event this port triggers.
        event: Ident,
    },
}

/// A port declaration in a component signature.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PortDecl {
    /// Port name.
    pub name: Ident,
    /// Bundle dimensions, if the port is an array of values
    /// (`in[#N]: [...] #W`). Empty for scalar ports.
    pub dims: Vec<ParamExpr>,
    /// Availability interval. For [`PortType::Interface`] ports this is the
    /// single-cycle interval at the event itself.
    pub liveness: Interval,
    /// Port type.
    pub ty: PortType,
    /// Source location.
    pub span: Span,
}

impl PortDecl {
    /// Width of the port (1 for interface ports).
    pub fn width(&self) -> ParamExpr {
        match &self.ty {
            PortType::Data { width } => width.clone(),
            PortType::Interface { .. } => ParamExpr::Nat(1),
        }
    }
}

/// Declaration of an input parameter in a signature (`[#W, #N]`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: Ident,
    /// Optional default value.
    pub default: Option<ParamExpr>,
}

/// Declaration of an event and its delay (`<G: II>`): the delay is the
/// initiation interval — the minimum number of cycles between consecutive
/// occurrences of the event.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct EventDecl {
    /// Event name.
    pub name: Ident,
    /// Delay (initiation interval) as a parameter expression.
    pub delay: ParamExpr,
}

/// An output parameter declaration: `some #L where #L > 0`.
///
/// Output parameters are *produced by* the component (or the generator that
/// implements it) and may be read by parent modules via
/// [`ParamExpr::InstAccess`]. Their `where` clauses are the only facts a
/// parent may assume about them at design time (§3.1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OutParamDecl {
    /// Output parameter name.
    pub name: Ident,
    /// Constraints the component guarantees about the value.
    pub constraints: Vec<Constraint>,
}

/// A component signature (`sig` in Figure 7a).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Signature {
    /// Component name.
    pub name: Ident,
    /// Input parameters.
    pub params: Vec<ParamDecl>,
    /// Events and their delays.
    pub events: Vec<EventDecl>,
    /// Input ports.
    pub inputs: Vec<PortDecl>,
    /// Output ports.
    pub outputs: Vec<PortDecl>,
    /// Output parameters (`with { some ... }`).
    pub out_params: Vec<OutParamDecl>,
    /// Constraints on input parameters (`where` clauses).
    pub where_clauses: Vec<Constraint>,
    /// Source location.
    pub span: Span,
}

impl Signature {
    /// Looks up an input port by name.
    pub fn input(&self, name: Symbol) -> Option<&PortDecl> {
        self.inputs.iter().find(|p| p.name.name == name)
    }

    /// Looks up an output port by name.
    pub fn output(&self, name: Symbol) -> Option<&PortDecl> {
        self.outputs.iter().find(|p| p.name.name == name)
    }

    /// Looks up an output parameter by name.
    pub fn out_param(&self, name: Symbol) -> Option<&OutParamDecl> {
        self.out_params.iter().find(|p| p.name.name == name)
    }

    /// Looks up an event by name.
    pub fn event(&self, name: Symbol) -> Option<&EventDecl> {
        self.events.iter().find(|e| e.name.name == name)
    }

    /// The primary (first) event of the signature, if any.
    pub fn primary_event(&self) -> Option<&EventDecl> {
        self.events.first()
    }
}

/// How a module is implemented (`mod` in Figure 7a).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ModuleKind {
    /// A Lilac component with a body of commands.
    Comp {
        /// Body commands.
        body: Vec<Cmd>,
    },
    /// An externally implemented (Verilog) module; only the signature is
    /// visible to Lilac. The optional string is the path of the Verilog file
    /// to link in.
    Extern {
        /// Path of the Verilog implementation, if provided.
        path: Option<String>,
    },
    /// A module produced by an external generator tool. The elaborator
    /// invokes the named tool to obtain output-parameter bindings and an
    /// implementation (§5).
    Gen {
        /// Generator tool name (e.g. `"flopoco"`).
        tool: String,
    },
}

/// A top-level module: a signature plus how it is implemented.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Module {
    /// Signature.
    pub sig: Signature,
    /// Implementation kind.
    pub kind: ModuleKind,
    /// Source location of the whole module.
    pub span: Span,
}

impl Module {
    /// The module's name.
    pub fn name(&self) -> Symbol {
        self.sig.name.name
    }

    /// The body commands, if this is a Lilac component.
    pub fn body(&self) -> Option<&[Cmd]> {
        match &self.kind {
            ModuleKind::Comp { body } => Some(body),
            _ => None,
        }
    }
}

/// A reference to a value: a port, an invocation result port, or an indexed
/// bundle element (`acc` in Figure 7a).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Access {
    /// A bare name: a component port, a bundle, or an invocation whose
    /// single output port is implied.
    Var(Ident),
    /// A port of an invocation: `add.out`.
    Port {
        /// Invocation (or instance) name.
        inv: Ident,
        /// Port name.
        port: Ident,
    },
    /// A single bundle element: `w[#k]` / `w{#k}`.
    Index {
        /// The bundle (or nested access) being indexed.
        base: Box<Access>,
        /// Element index.
        index: ParamExpr,
    },
    /// A contiguous range of bundle elements: `w[#a..#b]`.
    Range {
        /// The bundle being sliced.
        base: Box<Access>,
        /// First element (inclusive).
        start: ParamExpr,
        /// Last element (exclusive).
        end: ParamExpr,
    },
    /// A constant literal driven onto a wire, with an explicit bit width:
    /// `const(0, #W)`.
    Const {
        /// Literal value.
        value: u64,
        /// Bit width.
        width: ParamExpr,
    },
}

impl Access {
    /// Convenience constructor: `inv.port`.
    pub fn port(inv: &str, port: &str) -> Access {
        Access::Port { inv: Ident::synthetic(inv), port: Ident::synthetic(port) }
    }

    /// Convenience constructor for a bare name.
    pub fn var(name: &str) -> Access {
        Access::Var(Ident::synthetic(name))
    }

    /// The root identifier of the access chain, if any.
    pub fn base_name(&self) -> Option<Symbol> {
        match self {
            Access::Var(id) => Some(id.name),
            Access::Port { inv, .. } => Some(inv.name),
            Access::Index { base, .. } | Access::Range { base, .. } => base.base_name(),
            Access::Const { .. } => None,
        }
    }

    /// Source span of the access, if it has one.
    pub fn span(&self) -> Span {
        match self {
            Access::Var(id) => id.span,
            Access::Port { inv, port } => inv.span.merge(port.span),
            Access::Index { base, .. } | Access::Range { base, .. } => base.span(),
            Access::Const { .. } => Span::dummy(),
        }
    }
}

/// A body command (`cmd` in Figure 7a).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cmd {
    /// Instantiation: `Add := new FPAdd[#W];`
    Instantiate {
        /// Instance name.
        name: Ident,
        /// Component being instantiated.
        comp: Ident,
        /// Parameter arguments.
        params: Vec<ParamExpr>,
        /// Source location.
        span: Span,
    },
    /// Invocation: `add := Add<G>(l, r);` — schedules one use of an instance
    /// at the given time(s).
    Invoke {
        /// Invocation name.
        name: Ident,
        /// Instance being invoked.
        instance: Ident,
        /// Schedule: one time expression per event of the instance's
        /// component (usually one).
        schedule: Vec<TimeExpr>,
        /// Input arguments, positional.
        args: Vec<Access>,
        /// Source location.
        span: Span,
    },
    /// Combined instantiate-and-invoke: `mx := new Mux[#W]<G>(op, a, b);`
    InstInvoke {
        /// Name bound to both the instance and its single invocation.
        name: Ident,
        /// Component being instantiated.
        comp: Ident,
        /// Parameter arguments.
        params: Vec<ParamExpr>,
        /// Schedule.
        schedule: Vec<TimeExpr>,
        /// Input arguments.
        args: Vec<Access>,
        /// Source location.
        span: Span,
    },
    /// Connection: `o = mx.out;`
    Connect {
        /// Destination (an output port of the enclosing component, a bundle
        /// element, or an input port of an invocation).
        dst: Access,
        /// Source.
        src: Access,
        /// Source location.
        span: Span,
    },
    /// Compile-time binding: `let #Max = Max[#A,#B]::#Out;`
    Let {
        /// Name being bound.
        name: Ident,
        /// Value.
        value: ParamExpr,
        /// Source location.
        span: Span,
    },
    /// Output-parameter binding: `#L := #Max;` — provides the value of one
    /// of the enclosing component's `some` parameters.
    OutParamBind {
        /// Output parameter being bound.
        name: Ident,
        /// Value.
        value: ParamExpr,
        /// Source location.
        span: Span,
    },
    /// Bundle declaration:
    /// `bundle<#i> w[#N+1]: [G+#i, G+#i+1] #W;`
    Bundle {
        /// Bundle name.
        name: Ident,
        /// Index variables, one per dimension.
        idx_vars: Vec<Ident>,
        /// Dimension sizes.
        dims: Vec<ParamExpr>,
        /// Availability interval of element `idx_vars`.
        liveness: Interval,
        /// Element bit width.
        width: ParamExpr,
        /// Source location.
        span: Span,
    },
    /// `assume C;` — adds a fact the solver may rely on.
    Assume {
        /// The assumed constraint.
        constraint: Constraint,
        /// Source location.
        span: Span,
    },
    /// `assert C;` — a proof obligation discharged at compile time.
    Assert {
        /// The asserted constraint.
        constraint: Constraint,
        /// Source location.
        span: Span,
    },
    /// Compile-time conditional.
    If {
        /// Branch condition over parameters.
        cond: Constraint,
        /// Commands when the condition holds.
        then_body: Vec<Cmd>,
        /// Commands when it does not.
        else_body: Vec<Cmd>,
        /// Source location.
        span: Span,
    },
    /// Compile-time bounded loop: `for #k in 0..#N { ... }`.
    For {
        /// Loop variable.
        var: Ident,
        /// Inclusive lower bound.
        start: ParamExpr,
        /// Exclusive upper bound.
        end: ParamExpr,
        /// Loop body.
        body: Vec<Cmd>,
        /// Source location.
        span: Span,
    },
}

impl Cmd {
    /// Source span of the command.
    pub fn span(&self) -> Span {
        match self {
            Cmd::Instantiate { span, .. }
            | Cmd::Invoke { span, .. }
            | Cmd::InstInvoke { span, .. }
            | Cmd::Connect { span, .. }
            | Cmd::Let { span, .. }
            | Cmd::OutParamBind { span, .. }
            | Cmd::Bundle { span, .. }
            | Cmd::Assume { span, .. }
            | Cmd::Assert { span, .. }
            | Cmd::If { span, .. }
            | Cmd::For { span, .. } => *span,
        }
    }
}

/// A complete Lilac program: an ordered list of modules.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// Modules in declaration order.
    pub modules: Vec<Module>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program { modules: Vec::new() }
    }

    /// Finds a module by name.
    pub fn module(&self, name: Symbol) -> Option<&Module> {
        self.modules.iter().find(|m| m.name() == name)
    }

    /// Finds a module by string name.
    pub fn module_named(&self, name: &str) -> Option<&Module> {
        self.module(Symbol::intern(name))
    }

    /// Appends the modules of `other` after the modules of `self`.
    ///
    /// This is how designs pull in the standard library: the library program
    /// is parsed separately and merged.
    pub fn extend_with(&mut self, other: Program) {
        self.modules.extend(other.modules);
    }

    /// Total number of source lines across all modules' spans. Used by the
    /// Figure 8 harness when designs are built programmatically.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_comparisons() {
        let a = Ident::synthetic("W");
        assert_eq!(a, "W");
        assert_eq!(a.to_string(), "W");
    }

    #[test]
    fn param_expr_helpers() {
        let e = ParamExpr::add(ParamExpr::param("A"), ParamExpr::Nat(1));
        assert!(!e.is_constant());
        assert_eq!(ParamExpr::Nat(4).as_nat(), Some(4));
        assert_eq!(e.as_nat(), None);
        let mut ps = Vec::new();
        e.collect_params(&mut ps);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0], "A");
    }

    #[test]
    fn constraint_all() {
        let c = Constraint::all(vec![]);
        assert_eq!(c, Constraint::True);
        let c = Constraint::all(vec![
            Constraint::gt(ParamExpr::param("L"), ParamExpr::Nat(0)),
            Constraint::le(ParamExpr::param("L"), ParamExpr::Nat(8)),
        ]);
        assert!(matches!(c, Constraint::And(..)));
        assert!(!c.is_constant());
    }

    #[test]
    fn access_base_name() {
        let a = Access::port("add", "out");
        assert_eq!(a.base_name().unwrap().as_str(), "add");
        let idx = Access::Index { base: Box::new(Access::var("w")), index: ParamExpr::Nat(3) };
        assert_eq!(idx.base_name().unwrap().as_str(), "w");
        assert_eq!(Access::Const { value: 0, width: ParamExpr::Nat(8) }.base_name(), None);
    }

    #[test]
    fn program_lookup() {
        let mut p = Program::new();
        assert!(p.module_named("FPU").is_none());
        p.modules.push(Module {
            sig: Signature {
                name: Ident::synthetic("FPU"),
                params: vec![],
                events: vec![],
                inputs: vec![],
                outputs: vec![],
                out_params: vec![],
                where_clauses: vec![],
                span: Span::dummy(),
            },
            kind: ModuleKind::Comp { body: vec![] },
            span: Span::dummy(),
        });
        assert!(p.module_named("FPU").is_some());
        assert_eq!(p.module_count(), 1);
    }
}
