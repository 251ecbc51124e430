//! Recursive-descent parser for the Lilac surface syntax.
//!
//! The grammar follows Figure 7a of the paper. A program is a sequence of
//! modules:
//!
//! ```text
//! module  ::= "comp" sig "{" cmd* "}"
//!           | "extern" string? "comp" sig ";"
//!           | "gen" string "comp" sig ";"
//! sig     ::= ident params? events? "(" ports ")" "->" "(" ports ")"
//!             ("with" "{" ("some" param ("where" constraints)? ";")* "}")?
//!             ("where" constraints)?
//! ```
//!
//! Parameters are written `#name`; events are bare capitalized identifiers
//! and may be written `'G` (the tick is ignored). Constraints use the
//! operators `== != < <= > >=`, conjunction `&`/`&&`, disjunction `|`/`||`,
//! and negation `!`; parentheses group parameter expressions only.

use crate::ast::*;
use crate::lexer::{lex, Token, TokenKind};
use lilac_util::diag::{Diagnostic, LilacError, Result};
use lilac_util::span::{FileId, SourceMap, Span};

/// Parses `src` as a Lilac program, registering it in a fresh [`SourceMap`].
///
/// # Errors
///
/// Returns the first syntax error encountered.
///
/// # Example
///
/// ```
/// let (prog, _map) = lilac_ast::parse_program(
///     "shift.lilac",
///     "extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);",
/// )?;
/// assert_eq!(prog.modules[0].sig.name.as_str(), "Reg");
/// # Ok::<(), lilac_util::LilacError>(())
/// ```
pub fn parse_program(name: &str, src: &str) -> Result<(Program, SourceMap)> {
    let mut map = SourceMap::new();
    let file = map.add_file(name, src);
    let program = parse_program_in(file, src)?;
    Ok((program, map))
}

/// Parses `src` as a Lilac program using an existing file id (for callers
/// that manage their own [`SourceMap`]).
pub fn parse_program_in(file: FileId, src: &str) -> Result<Program> {
    let tokens = lex(file, src)?;
    let mut parser = Parser { tokens, pos: 0 };
    parser.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Token {
        self.tokens[self.pos]
    }

    fn peek_kind(&self) -> TokenKind {
        self.tokens[self.pos].kind
    }

    fn peek2_kind(&self) -> TokenKind {
        self.tokens.get(self.pos + 1).map_or(TokenKind::Eof, |t| t.kind)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            let t = self.peek();
            Err(LilacError::new(Diagnostic::error(
                format!("expected {kind}, found {}", t.kind),
                t.span,
            )))
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(LilacError::new(Diagnostic::error(msg, self.peek().span)))
    }

    fn ident(&mut self) -> Result<Ident> {
        // `in` is a keyword (loop syntax) but also a conventional port name
        // (`in: [G, G+1] #W`), so accept it as an identifier here.
        if self.at(TokenKind::In) {
            let t = self.bump();
            return Ok(Ident::new(t.text, t.span));
        }
        let t = self.expect(TokenKind::Ident)?;
        Ok(Ident::new(t.text, t.span))
    }

    fn param_ident(&mut self) -> Result<Ident> {
        let t = self.expect(TokenKind::ParamIdent)?;
        Ok(Ident::new(t.text, t.span))
    }

    /// An identifier that may be written with or without the `#` sigil
    /// (accepted after `::` and in delay positions).
    fn any_ident(&mut self) -> Result<Ident> {
        match self.peek_kind() {
            TokenKind::Ident | TokenKind::ParamIdent => {
                let t = self.bump();
                Ok(Ident::new(t.text, t.span))
            }
            _ => self.err(format!("expected identifier, found {}", self.peek_kind())),
        }
    }

    // ------------------------------------------------------------------
    // Program and modules
    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<Program> {
        let mut modules = Vec::new();
        while !self.at(TokenKind::Eof) {
            modules.push(self.module()?);
        }
        Ok(Program { modules })
    }

    fn module(&mut self) -> Result<Module> {
        let start = self.peek().span;
        match self.peek_kind() {
            TokenKind::Comp => {
                self.bump();
                let sig = self.signature()?;
                self.expect(TokenKind::LBrace)?;
                let body = self.cmds_until_rbrace()?;
                let end = self.expect(TokenKind::RBrace)?.span;
                Ok(Module { sig, kind: ModuleKind::Comp { body }, span: start.merge(end) })
            }
            TokenKind::Extern => {
                self.bump();
                let path = if self.at(TokenKind::Str) {
                    Some(self.bump().text.as_str().to_string())
                } else {
                    None
                };
                self.expect(TokenKind::Comp)?;
                let sig = self.signature()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Module { sig, kind: ModuleKind::Extern { path }, span: start.merge(end) })
            }
            TokenKind::Gen => {
                self.bump();
                let tool = self.expect(TokenKind::Str)?.text.as_str().to_string();
                self.expect(TokenKind::Comp)?;
                let sig = self.signature()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Module { sig, kind: ModuleKind::Gen { tool }, span: start.merge(end) })
            }
            other => self.err(format!("expected `comp`, `extern`, or `gen`, found {other}")),
        }
    }

    // ------------------------------------------------------------------
    // Signatures
    // ------------------------------------------------------------------

    fn signature(&mut self) -> Result<Signature> {
        let name = self.ident()?;
        let start = name.span;

        // Input parameters and events may appear in either order; the paper
        // writes both `FPAdd[#W]<G:1>` and `FPAdd<G:1>[#W]`.
        let mut params = Vec::new();
        let mut events = Vec::new();
        loop {
            if self.at(TokenKind::LBracket) && params.is_empty() {
                params = self.param_decl_list()?;
            } else if self.at(TokenKind::Lt) && events.is_empty() {
                events = self.event_decl_list()?;
            } else {
                break;
            }
        }

        self.expect(TokenKind::LParen)?;
        let inputs = self.port_list(TokenKind::RParen)?;
        self.expect(TokenKind::RParen)?;

        let mut outputs = Vec::new();
        if self.eat(TokenKind::Arrow) {
            self.expect(TokenKind::LParen)?;
            outputs = self.port_list(TokenKind::RParen)?;
            self.expect(TokenKind::RParen)?;
        }

        let mut out_params = Vec::new();
        let mut where_clauses = Vec::new();
        loop {
            if self.at(TokenKind::With) && out_params.is_empty() {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                while !self.at(TokenKind::RBrace) {
                    self.expect(TokenKind::Some)?;
                    let p = self.param_ident()?;
                    let mut constraints = Vec::new();
                    if self.eat(TokenKind::Where) {
                        constraints = self.constraint_list()?;
                    }
                    self.expect(TokenKind::Semi)?;
                    out_params.push(OutParamDecl { name: p, constraints });
                }
                self.expect(TokenKind::RBrace)?;
            } else if self.at(TokenKind::Where) && where_clauses.is_empty() {
                self.bump();
                where_clauses = self.constraint_list()?;
            } else {
                break;
            }
        }

        let span = start.merge(self.tokens[self.pos.saturating_sub(1)].span);
        Ok(Signature { name, params, events, inputs, outputs, out_params, where_clauses, span })
    }

    fn param_decl_list(&mut self) -> Result<Vec<ParamDecl>> {
        self.expect(TokenKind::LBracket)?;
        let mut out = Vec::new();
        while !self.at(TokenKind::RBracket) {
            let name = self.param_ident()?;
            let default = if self.eat(TokenKind::Eq) { Some(self.param_expr()?) } else { None };
            out.push(ParamDecl { name, default });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RBracket)?;
        Ok(out)
    }

    fn event_decl_list(&mut self) -> Result<Vec<EventDecl>> {
        self.expect(TokenKind::Lt)?;
        let mut out = Vec::new();
        while !self.at(TokenKind::Gt) {
            let name = self.ident()?;
            // Delays use `additive` (not `param_expr`) so the closing `>` of
            // the event list is not mistaken for a comparison operator.
            let delay =
                if self.eat(TokenKind::Colon) { self.additive()? } else { ParamExpr::Nat(1) };
            out.push(EventDecl { name, delay });
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Gt)?;
        Ok(out)
    }

    fn port_list(&mut self, terminator: TokenKind) -> Result<Vec<PortDecl>> {
        let mut out = Vec::new();
        while !self.at(terminator) {
            out.push(self.port_decl()?);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn port_decl(&mut self) -> Result<PortDecl> {
        let name = self.ident()?;
        let start = name.span;
        let mut dims = Vec::new();
        if self.at(TokenKind::LBracket) && !self.interval_ahead() {
            self.bump();
            while !self.at(TokenKind::RBracket) {
                dims.push(self.param_expr()?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RBracket)?;
        }
        self.expect(TokenKind::Colon)?;

        if self.eat(TokenKind::Interface) {
            self.expect(TokenKind::LBracket)?;
            let event = self.ident()?;
            self.expect(TokenKind::RBracket)?;
            let liveness = Interval {
                start: TimeExpr::new(Some(event), ParamExpr::Nat(0), event.span),
                end: TimeExpr::new(Some(event), ParamExpr::Nat(1), event.span),
                span: event.span,
            };
            return Ok(PortDecl {
                name,
                dims,
                liveness,
                ty: PortType::Interface { event },
                span: start.merge(event.span),
            });
        }

        let liveness = self.interval()?;
        let width = self.param_expr()?;
        let span = start.merge(liveness.span);
        Ok(PortDecl { name, dims, liveness, ty: PortType::Data { width }, span })
    }

    /// After a port name, a `[` could start either the port's bundle
    /// dimensions (`in[#N]: ...`) or nothing (the `[` of the availability
    /// interval always follows a `:`). Since we only call this right after
    /// the name, a `[` here is always dimensions; the helper exists to keep
    /// the call site self-documenting and allow future look-ahead tweaks.
    fn interval_ahead(&self) -> bool {
        false
    }

    fn interval(&mut self) -> Result<Interval> {
        let open = self.expect(TokenKind::LBracket)?.span;
        let start = self.time_expr()?;
        self.expect(TokenKind::Comma)?;
        let end = self.time_expr()?;
        let close = self.expect(TokenKind::RBracket)?.span;
        Ok(Interval { start, end, span: open.merge(close) })
    }

    fn time_expr(&mut self) -> Result<TimeExpr> {
        let start_span = self.peek().span;
        // An event reference is a bare identifier that is not a component
        // parameter access (`Max[...]::#O` / `Add::#L`).
        if self.at(TokenKind::Ident)
            && self.peek2_kind() != TokenKind::ColonColon
            && self.peek2_kind() != TokenKind::LBracket
        {
            let event = self.ident()?;
            // Offsets use `additive` (not `param_expr`) so the closing `>` of
            // a schedule is not mistaken for a comparison operator.
            let offset = if self.eat(TokenKind::Plus) {
                self.additive()?
            } else if self.eat(TokenKind::Minus) {
                // `G - n` is normalized as a subtraction from zero offset;
                // the solver treats event offsets as integers.
                ParamExpr::sub(ParamExpr::Nat(0), self.additive()?)
            } else {
                ParamExpr::Nat(0)
            };
            return Ok(TimeExpr::new(Some(event), offset, start_span.merge(self.prev_span())));
        }
        let offset = self.additive()?;
        Ok(TimeExpr::new(None, offset, start_span.merge(self.prev_span())))
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    // ------------------------------------------------------------------
    // Parameter expressions and constraints
    // ------------------------------------------------------------------

    fn param_expr(&mut self) -> Result<ParamExpr> {
        let left = self.additive()?;
        // A comparison operator here means we are looking at the condition of
        // a conditional parameter expression `c ? a : b`.
        if let Some(op) = self.peek_cmp_op() {
            self.bump();
            let right = self.additive()?;
            let mut cond = Constraint::Cmp(op, left, right);
            while self.at(TokenKind::AmpAmp) || self.at(TokenKind::PipePipe) {
                let is_and = self.at(TokenKind::AmpAmp);
                self.bump();
                let l2 = self.additive()?;
                let c2 = if let Some(op2) = self.peek_cmp_op() {
                    self.bump();
                    let r2 = self.additive()?;
                    Constraint::Cmp(op2, l2, r2)
                } else {
                    Constraint::NonZero(l2)
                };
                cond = if is_and {
                    Constraint::And(Box::new(cond), Box::new(c2))
                } else {
                    Constraint::Or(Box::new(cond), Box::new(c2))
                };
            }
            self.expect(TokenKind::Question)?;
            let then_e = self.param_expr()?;
            self.expect(TokenKind::Colon)?;
            let else_e = self.param_expr()?;
            return Ok(ParamExpr::Cond(Box::new(cond), Box::new(then_e), Box::new(else_e)));
        }
        if self.at(TokenKind::Question) {
            // `p ? a : b` — bare truthiness condition.
            self.bump();
            let then_e = self.param_expr()?;
            self.expect(TokenKind::Colon)?;
            let else_e = self.param_expr()?;
            return Ok(ParamExpr::Cond(
                Box::new(Constraint::NonZero(left)),
                Box::new(then_e),
                Box::new(else_e),
            ));
        }
        Ok(left)
    }

    fn peek_cmp_op(&self) -> Option<CmpOp> {
        Some(match self.peek_kind() {
            TokenKind::EqEq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    fn additive(&mut self) -> Result<ParamExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            left = ParamExpr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<ParamExpr> {
        let mut left = self.primary_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.primary_expr()?;
            left = ParamExpr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn primary_expr(&mut self) -> Result<ParamExpr> {
        match self.peek_kind() {
            TokenKind::Number => {
                let t = self.bump();
                Ok(ParamExpr::Nat(t.value))
            }
            TokenKind::ParamIdent => {
                let id = self.param_ident()?;
                // `#L` or an instance access written with a sigil is unusual
                // but `X::#P` style accesses are parsed from the Ident case.
                Ok(ParamExpr::Param(id))
            }
            TokenKind::Log2 | TokenKind::Exp2 => {
                let op = if self.peek_kind() == TokenKind::Log2 { UnOp::Log2 } else { UnOp::Exp2 };
                self.bump();
                self.expect(TokenKind::LParen)?;
                let inner = self.param_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(ParamExpr::Un(op, Box::new(inner)))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.param_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident => {
                let name = self.ident()?;
                if self.at(TokenKind::LBracket) {
                    // Component parameter access: `Max[#A, #B]::#Out`.
                    self.bump();
                    let mut args = Vec::new();
                    while !self.at(TokenKind::RBracket) {
                        args.push(self.param_expr()?);
                        if !self.eat(TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RBracket)?;
                    self.expect(TokenKind::ColonColon)?;
                    let param = self.any_ident()?;
                    Ok(ParamExpr::CompAccess { comp: name, args, param })
                } else if self.at(TokenKind::ColonColon) {
                    // Instance output-parameter access: `Add::#L`.
                    self.bump();
                    let param = self.any_ident()?;
                    Ok(ParamExpr::InstAccess { instance: name, param })
                } else {
                    // A bare identifier in expression position is accepted as
                    // a parameter reference written without the `#` sigil.
                    Ok(ParamExpr::Param(name))
                }
            }
            other => self.err(format!("expected parameter expression, found {other}")),
        }
    }

    fn constraint_list(&mut self) -> Result<Vec<Constraint>> {
        let mut out = vec![self.constraint()?];
        while self.eat(TokenKind::Comma) {
            out.push(self.constraint()?);
        }
        Ok(out)
    }

    fn constraint(&mut self) -> Result<Constraint> {
        self.constraint_or()
    }

    fn constraint_or(&mut self) -> Result<Constraint> {
        let mut left = self.constraint_and()?;
        while self.eat(TokenKind::PipePipe) {
            let right = self.constraint_and()?;
            left = Constraint::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn constraint_and(&mut self) -> Result<Constraint> {
        let mut left = self.constraint_atom()?;
        while self.eat(TokenKind::AmpAmp) {
            let right = self.constraint_atom()?;
            left = Constraint::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn constraint_atom(&mut self) -> Result<Constraint> {
        if self.eat(TokenKind::Bang) {
            let inner = self.constraint_atom()?;
            return Ok(Constraint::Not(Box::new(inner)));
        }
        let left = self.additive()?;
        if let Some(op) = self.peek_cmp_op() {
            self.bump();
            let right = self.additive()?;
            Ok(Constraint::Cmp(op, left, right))
        } else {
            Ok(Constraint::NonZero(left))
        }
    }

    // ------------------------------------------------------------------
    // Commands
    // ------------------------------------------------------------------

    fn cmds_until_rbrace(&mut self) -> Result<Vec<Cmd>> {
        let mut out = Vec::new();
        while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
            out.push(self.cmd()?);
        }
        Ok(out)
    }

    fn cmd(&mut self) -> Result<Cmd> {
        let start = self.peek().span;
        match self.peek_kind() {
            TokenKind::Let => {
                self.bump();
                let name = self.param_ident()?;
                self.expect(TokenKind::Eq)?;
                let value = self.param_expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Cmd::Let { name, value, span: start.merge(end) })
            }
            TokenKind::Assume => {
                self.bump();
                let constraint = self.constraint()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Cmd::Assume { constraint, span: start.merge(end) })
            }
            TokenKind::Assert => {
                self.bump();
                let constraint = self.constraint()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Cmd::Assert { constraint, span: start.merge(end) })
            }
            TokenKind::If => self.if_cmd(),
            TokenKind::For => {
                self.bump();
                let var = self.param_ident()?;
                self.expect(TokenKind::In)?;
                let start_e = self.param_expr()?;
                self.expect(TokenKind::DotDot)?;
                let end_e = self.param_expr()?;
                self.expect(TokenKind::LBrace)?;
                let body = self.cmds_until_rbrace()?;
                let end = self.expect(TokenKind::RBrace)?.span;
                Ok(Cmd::For { var, start: start_e, end: end_e, body, span: start.merge(end) })
            }
            TokenKind::Bundle => {
                self.bump();
                self.expect(TokenKind::Lt)?;
                let mut idx_vars = Vec::new();
                while !self.at(TokenKind::Gt) {
                    idx_vars.push(self.param_ident()?);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::Gt)?;
                let name = self.ident()?;
                self.expect(TokenKind::LBracket)?;
                let mut dims = Vec::new();
                while !self.at(TokenKind::RBracket) {
                    dims.push(self.param_expr()?);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RBracket)?;
                self.expect(TokenKind::Colon)?;
                let liveness = self.interval()?;
                let width = self.param_expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Cmd::Bundle { name, idx_vars, dims, liveness, width, span: start.merge(end) })
            }
            TokenKind::ParamIdent => {
                // Output parameter binding: `#L := expr;`
                let name = self.param_ident()?;
                self.expect(TokenKind::ColonEq)?;
                let value = self.param_expr()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Cmd::OutParamBind { name, value, span: start.merge(end) })
            }
            TokenKind::Ident if self.peek2_kind() == TokenKind::ColonEq => {
                let name = self.ident()?;
                self.expect(TokenKind::ColonEq)?;
                if self.eat(TokenKind::New) {
                    let comp = self.ident()?;
                    let params = if self.at(TokenKind::LBracket) {
                        self.bump();
                        let mut ps = Vec::new();
                        while !self.at(TokenKind::RBracket) {
                            ps.push(self.param_expr()?);
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(TokenKind::RBracket)?;
                        ps
                    } else {
                        Vec::new()
                    };
                    if self.at(TokenKind::Lt) {
                        let schedule = self.schedule()?;
                        let args = self.call_args()?;
                        let end = self.expect(TokenKind::Semi)?.span;
                        Ok(Cmd::InstInvoke {
                            name,
                            comp,
                            params,
                            schedule,
                            args,
                            span: start.merge(end),
                        })
                    } else {
                        let end = self.expect(TokenKind::Semi)?.span;
                        Ok(Cmd::Instantiate { name, comp, params, span: start.merge(end) })
                    }
                } else {
                    let instance = self.ident()?;
                    let schedule = self.schedule()?;
                    let args = self.call_args()?;
                    let end = self.expect(TokenKind::Semi)?.span;
                    Ok(Cmd::Invoke { name, instance, schedule, args, span: start.merge(end) })
                }
            }
            _ => {
                // Connection: `access = access;`
                let dst = self.access()?;
                self.expect(TokenKind::Eq)?;
                let src = self.access()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Cmd::Connect { dst, src, span: start.merge(end) })
            }
        }
    }

    fn if_cmd(&mut self) -> Result<Cmd> {
        let start = self.expect(TokenKind::If)?.span;
        let cond = self.constraint()?;
        self.expect(TokenKind::LBrace)?;
        let then_body = self.cmds_until_rbrace()?;
        let mut end = self.expect(TokenKind::RBrace)?.span;
        let mut else_body = Vec::new();
        if self.eat(TokenKind::Else) {
            if self.at(TokenKind::If) {
                let nested = self.if_cmd()?;
                end = nested.span();
                else_body.push(nested);
            } else {
                self.expect(TokenKind::LBrace)?;
                else_body = self.cmds_until_rbrace()?;
                end = self.expect(TokenKind::RBrace)?.span;
            }
        }
        Ok(Cmd::If { cond, then_body, else_body, span: start.merge(end) })
    }

    fn schedule(&mut self) -> Result<Vec<TimeExpr>> {
        self.expect(TokenKind::Lt)?;
        let mut out = Vec::new();
        while !self.at(TokenKind::Gt) {
            out.push(self.time_expr()?);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Gt)?;
        Ok(out)
    }

    fn call_args(&mut self) -> Result<Vec<Access>> {
        self.expect(TokenKind::LParen)?;
        let mut out = Vec::new();
        while !self.at(TokenKind::RParen) {
            out.push(self.access()?);
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        Ok(out)
    }

    fn access(&mut self) -> Result<Access> {
        if self.at(TokenKind::Const) {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let value = self.expect(TokenKind::Number)?.value;
            self.expect(TokenKind::Comma)?;
            let width = self.param_expr()?;
            self.expect(TokenKind::RParen)?;
            return Ok(Access::Const { value, width });
        }
        let name = self.ident()?;
        let mut acc = Access::Var(name);
        loop {
            match self.peek_kind() {
                TokenKind::Dot => {
                    self.bump();
                    let port = self.ident()?;
                    // `.port` applies to the root invocation name; nested
                    // port-of-port accesses do not exist in Lilac.
                    match acc {
                        Access::Var(inv) => acc = Access::Port { inv, port },
                        _ => {
                            return self.err("port access `.` must follow an invocation name");
                        }
                    }
                }
                TokenKind::LBracket => {
                    self.bump();
                    let first = self.param_expr()?;
                    if self.eat(TokenKind::DotDot) {
                        let end = self.param_expr()?;
                        self.expect(TokenKind::RBracket)?;
                        acc = Access::Range { base: Box::new(acc), start: first, end };
                    } else {
                        self.expect(TokenKind::RBracket)?;
                        acc = Access::Index { base: Box::new(acc), index: first };
                    }
                }
                TokenKind::LBrace => {
                    self.bump();
                    let idx = self.param_expr()?;
                    self.expect(TokenKind::RBrace)?;
                    acc = Access::Index { base: Box::new(acc), index: idx };
                }
                _ => break,
            }
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        match parse_program("test.lilac", src) {
            Ok((p, _)) => p,
            Err(e) => panic!("parse error: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn parse_extern_reg() {
        let p = parse("extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);");
        assert_eq!(p.modules.len(), 1);
        let m = &p.modules[0];
        assert_eq!(m.sig.name.as_str(), "Reg");
        assert!(matches!(m.kind, ModuleKind::Extern { .. }));
        assert_eq!(m.sig.params.len(), 1);
        assert_eq!(m.sig.events.len(), 1);
        assert_eq!(m.sig.inputs.len(), 1);
        // `in` is a keyword, but it names a port here.
        assert_eq!(m.sig.inputs[0].name.as_str(), "in");
        assert_eq!(m.sig.outputs.len(), 1);
    }

    #[test]
    fn parse_gen_flopoco_adder() {
        // Figure 4 of the paper.
        let p = parse(
            r#"gen "flopoco" comp FPAdd[#W]<G:1>(
                  val_i: interface[G],
                  l: [G, G+1] #W, r: [G, G+1] #W
               ) -> (o: [G+#L, G+#L+1] #W
               ) with { some #L where #L > 0; };"#,
        );
        let m = &p.modules[0];
        assert!(matches!(&m.kind, ModuleKind::Gen { tool } if tool == "flopoco"));
        assert_eq!(m.sig.inputs.len(), 3);
        assert!(matches!(m.sig.inputs[0].ty, PortType::Interface { .. }));
        assert_eq!(m.sig.out_params.len(), 1);
        assert_eq!(m.sig.out_params[0].name.as_str(), "L");
        assert_eq!(m.sig.out_params[0].constraints.len(), 1);
        // Output availability mentions the output parameter.
        let out = &m.sig.outputs[0];
        let mut params = Vec::new();
        out.liveness.start.offset.collect_params(&mut params);
        assert!(params.iter().any(|p| p.as_str() == "L"));
    }

    #[test]
    fn parse_shift_register() {
        // Figure 6a of the paper (adapted to this grammar).
        let p = parse(
            r#"
            extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);
            comp Shift[#W, #N]<G:1>(input: [G, G+1] #W) -> (out: [G+#N, G+#N+1] #W) where #N >= 0 {
                bundle<#i> w[#N+1]: [G+#i, G+#i+1] #W;
                w{0} = input;
                out = w{#N};
                for #k in 0..#N {
                    r := new Reg[#W]<G+#k>(w{#k});
                    w{#k+1} = r.out;
                }
            }
            "#,
        );
        let shift = p.module_named("Shift").unwrap();
        let body = shift.body().unwrap();
        assert_eq!(body.len(), 4);
        assert!(matches!(body[0], Cmd::Bundle { .. }));
        assert!(matches!(body[3], Cmd::For { .. }));
        if let Cmd::For { body: loop_body, .. } = &body[3] {
            assert_eq!(loop_body.len(), 2);
            assert!(matches!(loop_body[0], Cmd::InstInvoke { .. }));
        }
    }

    #[test]
    fn parse_fpu_with_output_param() {
        // Figure 5b of the paper (condensed).
        let p = parse(
            r#"
            comp FPU[#W]<G:1>(op: [G, G+1] 1, l: [G, G+1] #W, r: [G, G+1] #W)
                -> (o: [G+#L, G+#L+1] #W) with { some #L; } {
                Add := new FPAdd[#W];
                Mul := new FPMul[#W];
                add := Add<G>(l, r);
                mul := Mul<G>(l, r);
                let #Max = Max[Add::#L, Mul::#L]::#Out;
                sa := new Shift[#W, #Max - Add::#L]<G + Add::#L>(add.o);
                sm := new Shift[#W, #Max - Mul::#L]<G + Mul::#L>(mul.o);
                so := new Shift[1, #Max]<G>(op);
                mx := new Mux[#W]<G + #Max>(so.out, sa.out, sm.out);
                o = mx.out;
                #L := #Max;
            }
            "#,
        );
        let fpu = p.module_named("FPU").unwrap();
        let body = fpu.body().unwrap();
        assert_eq!(body.len(), 11);
        assert!(matches!(body[0], Cmd::Instantiate { .. }));
        assert!(matches!(body[2], Cmd::Invoke { .. }));
        assert!(matches!(body[4], Cmd::Let { .. }));
        assert!(matches!(body[10], Cmd::OutParamBind { .. }));
        // The let expression is a component parameter access over instance accesses.
        if let Cmd::Let { value, .. } = &body[4] {
            assert!(matches!(value, ParamExpr::CompAccess { .. }));
        }
    }

    #[test]
    fn parse_conditional_param_expr() {
        // Radix-2-divider-style latency formula (Figure 9b).
        let p = parse(
            r#"
            comp Wrap[#W, #Fr]<G:1>(n: [G, G+1] #W) -> (q: [G+#L, G+#L+1] #W) with { some #L; } {
                let #X = #Fr > 0 ? #W + 5 : #W + 3;
                #L := #X;
            }
            "#,
        );
        let m = p.module_named("Wrap").unwrap();
        if let Cmd::Let { value, .. } = &m.body().unwrap()[0] {
            assert!(matches!(value, ParamExpr::Cond(..)));
        } else {
            panic!("expected let");
        }
    }

    #[test]
    fn parse_if_else_chain() {
        // Figure 9d: divider selection by bitwidth.
        let p = parse(
            r#"
            comp DivWrap[#W]<G:1>(n: [G, G+1] #W, d: [G, G+1] #W)
                -> (q: [G+#L, G+#L+1] #W) with { some #L; } {
                if #W < 12 {
                    dv := new LutMult[#W]<G>(n, d);
                    q = dv.q;
                    #L := 8;
                } else if #W < 16 {
                    dv := new Rad2[#W, 1, 0]<G>(n, d);
                    q = dv.q;
                    #L := Rad2[#W, 1, 0]::#L;
                } else {
                    dv := new HighRad[#W]<G>(n, d);
                    q = dv.q;
                    #L := dv::#L;
                }
            }
            "#,
        );
        let m = p.module_named("DivWrap").unwrap();
        let body = m.body().unwrap();
        assert_eq!(body.len(), 1);
        if let Cmd::If { else_body, .. } = &body[0] {
            assert_eq!(else_body.len(), 1);
            assert!(matches!(else_body[0], Cmd::If { .. }));
        } else {
            panic!("expected if");
        }
    }

    #[test]
    fn parse_multi_cycle_interval_and_bundle_port() {
        // Figure 10a: Aetherling convolution interface.
        let p = parse(
            r#"
            gen "aetherling" comp AethConv[#W]<G:#II>(
                valid_i: interface[G],
                in[#N]: [G, G+#H] #W
            ) -> (out[#N]: [G+#L, G+#L+1] #W) with {
                some #H where #H > 0;
                some #N where 16 % #N == 0, #N > 0;
                some #L where #L > 0;
                some #II where #II >= #H;
            };
            "#,
        );
        let m = p.module_named("AethConv").unwrap();
        assert_eq!(m.sig.out_params.len(), 4);
        assert_eq!(m.sig.inputs[1].dims.len(), 1);
        assert_eq!(m.sig.outputs[0].dims.len(), 1);
        // Event delay is the output parameter #II.
        assert!(matches!(m.sig.events[0].delay, ParamExpr::Param(_)));
    }

    #[test]
    fn parse_const_access_and_range() {
        let p = parse(
            r#"
            comp T[#W]<G:1>(i[4]: [G, G+1] #W) -> (o: [G, G+1] #W) {
                x := new Thing[#W]<G>(i[0..2], const(0, #W));
                o = x.out;
            }
            "#,
        );
        let m = p.module_named("T").unwrap();
        if let Cmd::InstInvoke { args, .. } = &m.body().unwrap()[0] {
            assert!(matches!(args[0], Access::Range { .. }));
            assert!(matches!(args[1], Access::Const { .. }));
        } else {
            panic!("expected inst-invoke");
        }
    }

    #[test]
    fn parse_assume_assert() {
        let p = parse(
            r#"
            comp A[#N]<G:1>(i: [G, G+1] 8) -> (o: [G, G+1] 8) where #N > 0 {
                assume exp2(log2(#N)) == #N;
                assert #N >= 1;
                o = i;
            }
            "#,
        );
        let body = p.module_named("A").unwrap().body().unwrap();
        assert!(matches!(body[0], Cmd::Assume { .. }));
        assert!(matches!(body[1], Cmd::Assert { .. }));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_program("e.lilac", "comp {").is_err());
        assert!(parse_program("e.lilac", "comp A<G:1>(x: [G, G+1] 8) -> (").is_err());
        assert!(parse_program("e.lilac", "frob A();").is_err());
        assert!(parse_program("e.lilac", "comp A<G:1>() -> () { x := new ; }").is_err());
        assert!(parse_program("e.lilac", "comp A<G:1>() -> () { a.b.c = d; }").is_err());
    }

    #[test]
    fn parse_tick_events() {
        // `'G` is accepted wherever `G` is.
        let p = parse(
            r#"
            comp S[#W]<G:1>(i: ['G, 'G+1] #W) -> (o: ['G+1, 'G+2] #W) {
                r := new Reg[#W]<'G>(i);
                o = r.out;
            }
            "#,
        );
        let m = p.module_named("S").unwrap();
        assert_eq!(m.sig.inputs[0].liveness.start.event.unwrap().as_str(), "G");
    }
}
