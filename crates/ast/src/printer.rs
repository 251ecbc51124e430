//! Pretty printer for Lilac programs.
//!
//! Printing is used by diagnostics (to show interval expressions in type
//! errors exactly as the paper does, e.g. `[G+Add::#L, G+Add::#L+1]`), by the
//! Figure 8 harness (to count lines of bundled designs), and in tests to
//! check that parsing round-trips.

use crate::ast::*;
use std::fmt::Write;

/// Renders a parameter expression in surface syntax.
pub fn print_param_expr(e: &ParamExpr) -> String {
    render(e, write_param_expr)
}

/// Renders a constraint in surface syntax.
pub fn print_constraint(c: &Constraint) -> String {
    render(c, write_constraint)
}

/// Renders a time expression (`G+#L`).
pub fn print_time(t: &TimeExpr) -> String {
    render(t, write_time)
}

/// Renders an availability interval (`[G, G+1]`).
pub fn print_interval(i: &Interval) -> String {
    render(i, write_interval)
}

/// Renders an access path (`add.out`, `w{#k}`).
pub fn print_access(a: &Access) -> String {
    render(a, write_access)
}

/// Renders a full signature on one line.
pub fn print_signature(sig: &Signature) -> String {
    render(sig, write_signature)
}

/// Renders a module.
pub fn print_module(m: &Module) -> String {
    render(m, write_module)
}

/// Renders a whole program.
pub fn print_program(p: &Program) -> String {
    render(p, |p, out| {
        for (i, m) in p.modules.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            write_module(m, out);
        }
    })
}

/// Runs one of the `write_*` printers below into a fresh buffer. Every
/// printer appends to the one `String` it is handed, so rendering a whole
/// program allocates only as that buffer grows; the result is trimmed to
/// its length, as callers keep printed programs.
fn render<T: ?Sized>(item: &T, write: impl FnOnce(&T, &mut String)) -> String {
    let mut out = String::new();
    write(item, &mut out);
    out.shrink_to_fit();
    out
}

/// Writes `items` separated by `sep`.
fn write_list<T>(items: &[T], sep: &str, out: &mut String, mut write: impl FnMut(&T, &mut String)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        write(item, out);
    }
}

fn write_param_expr(e: &ParamExpr, out: &mut String) {
    match e {
        ParamExpr::Nat(n) => write!(out, "{n}").unwrap(),
        ParamExpr::Param(p) => write!(out, "#{p}").unwrap(),
        ParamExpr::Bin(op, a, b) => {
            out.push('(');
            write_param_expr(a, out);
            write!(out, " {} ", op.symbol()).unwrap();
            write_param_expr(b, out);
            out.push(')');
        }
        ParamExpr::Un(op, a) => {
            write!(out, "{}(", op.symbol()).unwrap();
            write_param_expr(a, out);
            out.push(')');
        }
        ParamExpr::CompAccess { comp, args, param } => {
            write!(out, "{comp}[").unwrap();
            write_list(args, ", ", out, write_param_expr);
            write!(out, "]::#{param}").unwrap();
        }
        ParamExpr::InstAccess { instance, param } => write!(out, "{instance}::#{param}").unwrap(),
        ParamExpr::Cond(c, a, b) => {
            out.push('(');
            write_constraint(c, out);
            out.push_str(" ? ");
            write_param_expr(a, out);
            out.push_str(" : ");
            write_param_expr(b, out);
            out.push(')');
        }
    }
}

fn write_constraint(c: &Constraint, out: &mut String) {
    match c {
        Constraint::Cmp(op, a, b) => {
            write_param_expr(a, out);
            write!(out, " {} ", op.symbol()).unwrap();
            write_param_expr(b, out);
        }
        Constraint::NonZero(e) => write_param_expr(e, out),
        Constraint::Not(c) => {
            out.push_str("!(");
            write_constraint(c, out);
            out.push(')');
        }
        Constraint::And(a, b) => {
            write_constraint(a, out);
            out.push_str(" && ");
            write_constraint(b, out);
        }
        Constraint::Or(a, b) => {
            write_constraint(a, out);
            out.push_str(" || ");
            write_constraint(b, out);
        }
        Constraint::True => out.push_str("true"),
    }
}

fn write_time(t: &TimeExpr, out: &mut String) {
    match (&t.event, &t.offset) {
        (Some(ev), ParamExpr::Nat(0)) => write!(out, "{ev}").unwrap(),
        (Some(ev), off) => {
            write!(out, "{ev}+").unwrap();
            write_param_expr(off, out);
        }
        (None, off) => write_param_expr(off, out),
    }
}

fn write_interval(i: &Interval, out: &mut String) {
    out.push('[');
    write_time(&i.start, out);
    out.push_str(", ");
    write_time(&i.end, out);
    out.push(']');
}

fn write_access(a: &Access, out: &mut String) {
    match a {
        Access::Var(id) => write!(out, "{id}").unwrap(),
        Access::Port { inv, port } => write!(out, "{inv}.{port}").unwrap(),
        Access::Index { base, index } => {
            write_access(base, out);
            out.push('{');
            write_param_expr(index, out);
            out.push('}');
        }
        Access::Range { base, start, end } => {
            write_access(base, out);
            out.push('[');
            write_param_expr(start, out);
            out.push_str("..");
            write_param_expr(end, out);
            out.push(']');
        }
        Access::Const { value, width } => {
            write!(out, "const({value}, ").unwrap();
            write_param_expr(width, out);
            out.push(')');
        }
    }
}

fn write_port(p: &PortDecl, out: &mut String) {
    write!(out, "{}", p.name).unwrap();
    if !p.dims.is_empty() {
        out.push('[');
        write_list(&p.dims, ", ", out, write_param_expr);
        out.push(']');
    }
    match &p.ty {
        PortType::Interface { event } => write!(out, ": interface[{event}]").unwrap(),
        PortType::Data { width } => {
            out.push_str(": ");
            write_interval(&p.liveness, out);
            out.push(' ');
            write_param_expr(width, out);
        }
    }
}

fn write_signature(sig: &Signature, out: &mut String) {
    write!(out, "{}", sig.name).unwrap();
    if !sig.params.is_empty() {
        out.push('[');
        write_list(&sig.params, ", ", out, |p, out| {
            write!(out, "#{}", p.name).unwrap();
            if let Some(d) = &p.default {
                out.push_str(" = ");
                write_param_expr(d, out);
            }
        });
        out.push(']');
    }
    if !sig.events.is_empty() {
        out.push('<');
        write_list(&sig.events, ", ", out, |e, out| {
            write!(out, "{}: ", e.name).unwrap();
            write_param_expr(&e.delay, out);
        });
        out.push('>');
    }
    out.push('(');
    write_list(&sig.inputs, ", ", out, write_port);
    out.push(')');
    if !sig.outputs.is_empty() {
        out.push_str(" -> (");
        write_list(&sig.outputs, ", ", out, write_port);
        out.push(')');
    }
    if !sig.out_params.is_empty() {
        out.push_str(" with { ");
        write_list(&sig.out_params, " ", out, |b, out| {
            write!(out, "some #{}", b.name).unwrap();
            if !b.constraints.is_empty() {
                out.push_str(" where ");
                write_list(&b.constraints, ", ", out, write_constraint);
            }
            out.push(';');
        });
        out.push_str(" }");
    }
    if !sig.where_clauses.is_empty() {
        out.push_str(" where ");
        write_list(&sig.where_clauses, ", ", out, write_constraint);
    }
}

fn write_pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("    ");
    }
}

fn write_cmd(cmd: &Cmd, indent: usize, out: &mut String) {
    write_pad(indent, out);
    match cmd {
        Cmd::Instantiate { name, comp, params, .. } => {
            write!(out, "{name} := new {comp}[").unwrap();
            write_list(params, ", ", out, write_param_expr);
            out.push_str("];\n");
        }
        Cmd::Invoke { name, instance, schedule, args, .. } => {
            write!(out, "{name} := {instance}<").unwrap();
            write_list(schedule, ", ", out, write_time);
            out.push_str(">(");
            write_list(args, ", ", out, write_access);
            out.push_str(");\n");
        }
        Cmd::InstInvoke { name, comp, params, schedule, args, .. } => {
            write!(out, "{name} := new {comp}[").unwrap();
            write_list(params, ", ", out, write_param_expr);
            out.push_str("]<");
            write_list(schedule, ", ", out, write_time);
            out.push_str(">(");
            write_list(args, ", ", out, write_access);
            out.push_str(");\n");
        }
        Cmd::Connect { dst, src, .. } => {
            write_access(dst, out);
            out.push_str(" = ");
            write_access(src, out);
            out.push_str(";\n");
        }
        Cmd::Let { name, value, .. } => {
            write!(out, "let #{name} = ").unwrap();
            write_param_expr(value, out);
            out.push_str(";\n");
        }
        Cmd::OutParamBind { name, value, .. } => {
            write!(out, "#{name} := ").unwrap();
            write_param_expr(value, out);
            out.push_str(";\n");
        }
        Cmd::Bundle { name, idx_vars, dims, liveness, width, .. } => {
            out.push_str("bundle<");
            write_list(idx_vars, ", ", out, |v, out| write!(out, "#{v}").unwrap());
            write!(out, "> {name}[").unwrap();
            write_list(dims, ", ", out, write_param_expr);
            out.push_str("]: ");
            write_interval(liveness, out);
            out.push(' ');
            write_param_expr(width, out);
            out.push_str(";\n");
        }
        Cmd::Assume { constraint, .. } => {
            out.push_str("assume ");
            write_constraint(constraint, out);
            out.push_str(";\n");
        }
        Cmd::Assert { constraint, .. } => {
            out.push_str("assert ");
            write_constraint(constraint, out);
            out.push_str(";\n");
        }
        Cmd::If { cond, then_body, else_body, .. } => {
            out.push_str("if ");
            write_constraint(cond, out);
            out.push_str(" {\n");
            if else_body.is_empty() {
                write_block(then_body, indent, out);
            } else {
                for c in then_body {
                    write_cmd(c, indent + 1, out);
                }
                write_pad(indent, out);
                out.push_str("} else {\n");
                write_block(else_body, indent, out);
            }
        }
        Cmd::For { var, start, end, body, .. } => {
            write!(out, "for #{var} in ").unwrap();
            write_param_expr(start, out);
            out.push_str("..");
            write_param_expr(end, out);
            out.push_str(" {\n");
            write_block(body, indent, out);
        }
    }
}

/// Writes the commands of a block one level deeper than `indent`, then its
/// closing brace at `indent`.
fn write_block(body: &[Cmd], indent: usize, out: &mut String) {
    for c in body {
        write_cmd(c, indent + 1, out);
    }
    write_pad(indent, out);
    out.push_str("}\n");
}

fn write_module(m: &Module, out: &mut String) {
    match &m.kind {
        ModuleKind::Comp { body } => {
            out.push_str("comp ");
            write_signature(&m.sig, out);
            out.push_str(" {\n");
            write_block(body, 0, out);
        }
        ModuleKind::Extern { path } => {
            match path {
                Some(p) => write!(out, "extern \"{p}\" comp ").unwrap(),
                None => out.push_str("extern comp "),
            }
            write_signature(&m.sig, out);
            out.push_str(";\n");
        }
        ModuleKind::Gen { tool } => {
            write!(out, "gen \"{tool}\" comp ").unwrap();
            write_signature(&m.sig, out);
            out.push_str(";\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const SHIFT: &str = r#"
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
    "#;

    #[test]
    fn print_and_reparse_round_trips() {
        let (p1, _) = parse_program("a.lilac", SHIFT).unwrap();
        let printed = print_program(&p1);
        let (p2, _) = parse_program("b.lilac", &printed).unwrap();
        // Spans differ, so compare re-printed text.
        assert_eq!(printed, print_program(&p2));
        assert_eq!(p1.modules.len(), p2.modules.len());
    }

    #[test]
    fn interval_rendering_matches_paper_style() {
        let (p, _) = parse_program(
            "f.lilac",
            "gen \"flopoco\" comp FPAdd[#W]<G:1>(l: [G, G+1] #W) -> (o: [G+#L, G+#L+1] #W) with { some #L; };",
        )
        .unwrap();
        let sig = &p.modules[0].sig;
        assert_eq!(print_interval(&sig.outputs[0].liveness), "[G+#L, G+(#L + 1)]");
        assert_eq!(print_interval(&sig.inputs[0].liveness), "[G, G+1]");
    }

    #[test]
    fn print_conditional_expression() {
        let e = ParamExpr::Cond(
            Box::new(Constraint::gt(ParamExpr::param("Fr"), ParamExpr::Nat(0))),
            Box::new(ParamExpr::Nat(5)),
            Box::new(ParamExpr::Nat(3)),
        );
        assert_eq!(print_param_expr(&e), "(#Fr > 0 ? 5 : 3)");
    }

    #[test]
    fn print_access_forms() {
        assert_eq!(print_access(&Access::port("add", "out")), "add.out");
        assert_eq!(
            print_access(&Access::Const { value: 3, width: ParamExpr::Nat(8) }),
            "const(3, 8)"
        );
    }
}
