//! Parsed representation of one Verilog module.
//!
//! The design IR is deliberately close to the text: named nets (scalar
//! wires/regs and unpacked arrays), continuous assignments, and the
//! nonblocking statements of the single `always @(posedge clk)` block. The
//! evaluator ([`crate::VSimulator`]) gives it two-phase cycle semantics.

use lilac_ir::FxHashMap;

/// A module port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Bit width.
    pub width: u32,
}

/// Storage class of a declared net.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetKind {
    /// Driven by a continuous assignment (or a module input).
    Wire,
    /// Written by nonblocking assignments in the always block.
    Reg,
}

/// A declared net: scalar, or an unpacked array of `depth` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Bit width of each word.
    pub width: u32,
    /// Storage class.
    pub kind: NetKind,
    /// `Some(depth)` for unpacked arrays (`reg [w:0] x [0:depth-1];`).
    pub array: Option<u32>,
}

/// Binary operators of the subset, in the emitter's vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (division by zero yields 0 in the two-state model)
    Div,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `==`
    Eq,
    /// `<` (unsigned)
    Lt,
}

/// An expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Sized literal `W'dV`.
    Const {
        /// Declared width.
        width: u32,
        /// Value.
        value: u64,
    },
    /// A scalar net or port reference.
    Net(String),
    /// An unpacked-array element `name[index]`.
    ArrayElem(String, u32),
    /// A part-select `name[hi:lo]` (or single-bit `name[b]`).
    Select {
        /// Selected net.
        net: String,
        /// High bit.
        hi: u32,
        /// Low bit.
        lo: u32,
    },
    /// Bitwise complement `~e`.
    Not(Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `cond ? then : else`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Concatenation `{a, b, ...}` (first element most significant).
    Concat(Vec<Expr>),
}

/// Target of a nonblocking assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqTarget {
    /// A scalar reg.
    Net(String),
    /// An array element.
    ArrayElem(String, u32),
}

/// One statement of the always block: `lhs <= rhs;`, optionally guarded by
/// `if (guard)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqStmt {
    /// Enable condition (the emitter's `if (en) r <= d;` form).
    pub guard: Option<Expr>,
    /// Assignment target.
    pub target: SeqTarget,
    /// Right-hand side, sampled before the clock edge.
    pub rhs: Expr,
}

/// A parsed module.
#[derive(Clone, Debug, Default)]
pub struct Design {
    /// Module name.
    pub name: String,
    /// Declared inputs in declaration order, excluding the clock.
    pub inputs: Vec<Port>,
    /// Declared outputs in declaration order.
    pub outputs: Vec<Port>,
    /// The clock input, when the module has one (`clk` by convention).
    pub clock: Option<String>,
    /// Every declared net (ports included), by name.
    pub nets: FxHashMap<String, Net>,
    /// Continuous assignments `(target, rhs)` in source order.
    pub assigns: Vec<(String, Expr)>,
    /// Nonblocking statements of the always block, in source order.
    pub seq: Vec<SeqStmt>,
}

impl Design {
    /// Looks up a declared net.
    pub fn net(&self, name: &str) -> Option<&Net> {
        self.nets.get(name)
    }

    /// Width of an expression, following the emitter's conventions: nets and
    /// selects carry their declared widths, literals their sized widths,
    /// operators the maximum of their operands (comparisons are 1 bit), and
    /// concatenation the sum. Used for placing concat operands.
    pub fn expr_width(&self, e: &Expr) -> u32 {
        match e {
            Expr::Const { width, .. } => *width,
            Expr::Net(n) | Expr::ArrayElem(n, _) => self.nets.get(n).map_or(64, |d| d.width),
            Expr::Select { hi, lo, .. } => hi - lo + 1,
            Expr::Not(a) => self.expr_width(a),
            Expr::Binary(BinOp::Eq | BinOp::Lt, _, _) => 1,
            Expr::Binary(_, a, b) => self.expr_width(a).max(self.expr_width(b)),
            Expr::Ternary(_, a, b) => self.expr_width(a).max(self.expr_width(b)),
            Expr::Concat(parts) => parts.iter().map(|p| self.expr_width(p)).sum(),
        }
    }

    /// Structural validation: every referenced net is declared, array
    /// accesses stay in bounds and target arrays, selects stay inside the
    /// net's width, and sequential targets are regs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (target, rhs) in &self.assigns {
            let net = self
                .nets
                .get(target)
                .ok_or_else(|| format!("assign to undeclared net `{target}`"))?;
            if net.array.is_some() {
                return Err(format!("continuous assign to array `{target}`"));
            }
            self.validate_expr(rhs)?;
        }
        for stmt in &self.seq {
            if let Some(g) = &stmt.guard {
                self.validate_expr(g)?;
            }
            self.validate_expr(&stmt.rhs)?;
            let (name, idx) = match &stmt.target {
                SeqTarget::Net(n) => (n, None),
                SeqTarget::ArrayElem(n, i) => (n, Some(*i)),
            };
            let net = self
                .nets
                .get(name)
                .ok_or_else(|| format!("nonblocking assign to undeclared net `{name}`"))?;
            if net.kind != NetKind::Reg {
                return Err(format!("nonblocking assign to non-reg `{name}`"));
            }
            match (idx, net.array) {
                (None, None) => {}
                (Some(i), Some(depth)) if i < depth => {}
                (Some(i), Some(depth)) => {
                    return Err(format!("`{name}[{i}]` out of bounds (depth {depth})"))
                }
                (Some(_), None) => return Err(format!("indexing scalar reg `{name}`")),
                (None, Some(_)) => return Err(format!("whole-array assign to `{name}`")),
            }
        }
        Ok(())
    }

    fn validate_expr(&self, e: &Expr) -> Result<(), String> {
        match e {
            Expr::Const { .. } => Ok(()),
            Expr::Net(n) => {
                let net = self.nets.get(n).ok_or_else(|| format!("undeclared net `{n}`"))?;
                if net.array.is_some() {
                    return Err(format!("whole-array reference to `{n}`"));
                }
                Ok(())
            }
            Expr::ArrayElem(n, i) => {
                let net = self.nets.get(n).ok_or_else(|| format!("undeclared net `{n}`"))?;
                match net.array {
                    Some(depth) if *i < depth => Ok(()),
                    Some(depth) => Err(format!("`{n}[{i}]` out of bounds (depth {depth})")),
                    None => Err(format!("indexing scalar net `{n}` with a single index")),
                }
            }
            Expr::Select { net, hi, lo } => {
                let decl = self.nets.get(net).ok_or_else(|| format!("undeclared net `{net}`"))?;
                if decl.array.is_some() {
                    return Err(format!("part-select on array `{net}`"));
                }
                if hi < lo || *hi >= decl.width {
                    return Err(format!("select `{net}[{hi}:{lo}]` outside width {}", decl.width));
                }
                Ok(())
            }
            Expr::Not(a) => self.validate_expr(a),
            Expr::Binary(_, a, b) => {
                self.validate_expr(a)?;
                self.validate_expr(b)
            }
            Expr::Ternary(c, a, b) => {
                self.validate_expr(c)?;
                self.validate_expr(a)?;
                self.validate_expr(b)
            }
            Expr::Concat(parts) => {
                for p in parts {
                    self.validate_expr(p)?;
                }
                Ok(())
            }
        }
    }
}
