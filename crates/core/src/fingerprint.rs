//! Content-addressed fingerprints of a component's checking inputs.
//!
//! The checker is modular: a component's verdict depends only on its own
//! module (signature + body) and on the *signatures* of the components it
//! references — directly via `new` / inst-invoke, via `Comp[..]::#P`
//! parameter access, or transitively through those signatures referencing
//! further signatures. [`component_hash`] walks exactly that footprint and
//! folds it into a 128-bit [`ComponentHash`] that is
//!
//! * **alpha-invariant** — symbols (component names, ports, parameters,
//!   events, instances, loop variables) hash as first-occurrence indices
//!   over one walk spanning the module and its signature closure, the same
//!   scheme [`lilac_solver::alpha`] uses for query-cache buckets, so a
//!   consistent renaming leaves the hash unchanged. Indices are kept per
//!   namespace (the table the checker resolves the name in), so a
//!   parameter spelled like a component (`let #Max` beside `Max[..]::#O`)
//!   is not tied to it;
//! * **location-invariant** — spans are skipped, so reformatting, comments,
//!   or reordering *other* modules leaves the hash unchanged;
//! * **cross-process stable** — two FNV-1a streams over the same canonical
//!   byte encoding, no [`std::collections::hash_map::DefaultHasher`], no
//!   interner ids, so a hash computed in one run keys a persisted cache
//!   read by the next.
//!
//! Invalidation falls out of hash-chaining: editing a callee's *signature*
//! changes every caller's footprint (and, when the signature itself
//! references further components, every transitive caller's); editing only
//! a callee's *body* changes nothing upstream — which is precisely the
//! modular-checking contract.
//!
//! [`check_program_incremental`](crate::check_program_incremental) threads a
//! [`PriorReports`](crate::PriorReports) store across a request stream:
//! components whose hash hits a stored **clean** verdict are not re-checked
//! (see [`crate::reports`] for what is stored and why).

use crate::comp::CompLibrary;
use lilac_ast::{
    Access, Cmd, Constraint, Ident, Interval, Module, ModuleKind, ParamExpr, PortDecl, PortType,
    Signature, TimeExpr,
};
use lilac_util::intern::Symbol;
use std::collections::{HashMap, HashSet};

/// The 128-bit content address of one component's checking inputs.
///
/// Two independent FNV-1a streams over the same canonical encoding; with
/// 128 bits of key, accidental collisions are negligible and no structural
/// verification walk is needed on a hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentHash {
    /// Primary FNV-1a stream.
    pub content: u64,
    /// Second stream over the same bytes (rotated accumulator), making the
    /// combined key effectively 128-bit.
    pub content2: u64,
}

impl ComponentHash {
    /// The combined 128-bit key (for map keys and serialization).
    pub fn key(&self) -> u128 {
        ((self.content as u128) << 64) | self.content2 as u128
    }
}

impl std::fmt::Display for ComponentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.content, self.content2)
    }
}

// ---------------------------------------------------------------------------
// The canonical walk
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Two FNV-1a accumulators fed the same canonical byte stream. The second
/// rotates its state between bytes so the streams decorrelate.
struct Stream {
    a: u64,
    b: u64,
}

impl Stream {
    fn new() -> Stream {
        Stream { a: FNV_OFFSET, b: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15 }
    }
    fn byte(&mut self, x: u8) {
        self.a = (self.a ^ x as u64).wrapping_mul(FNV_PRIME);
        self.b = (self.b.rotate_left(7) ^ x as u64).wrapping_mul(FNV_PRIME);
    }
    fn bytes(&mut self, xs: &[u8]) {
        for &x in xs {
            self.byte(x);
        }
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

/// The name tables the checker resolves identifiers in. Two names in
/// different namespaces never refer to each other, so renaming one must not
/// disturb the other's index.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Ns {
    /// Components (library lookups).
    Comp,
    /// Parameters: signature and output parameters, `let` bindings, loop
    /// and bundle index variables.
    Param,
    /// Events.
    Event,
    /// Ports, bundles, instances and invocations: one table, because a
    /// bare read `o = a;` resolves to a port, a bundle or an invocation.
    Signal,
}

/// Walker state: the byte streams, the first-occurrence symbol indexer
/// (shared across the whole footprint, as in [`lilac_solver::alpha`]), and
/// the component-reference queue driving the signature-closure BFS.
struct Hasher<'p> {
    lib: &'p CompLibrary<'p>,
    s: Stream,
    idx: HashMap<(Ns, Symbol), u32>,
    deps: Vec<Symbol>,
    queued: HashSet<Symbol>,
}

impl<'p> Hasher<'p> {
    fn new(lib: &'p CompLibrary<'p>) -> Hasher<'p> {
        Hasher {
            lib,
            s: Stream::new(),
            idx: HashMap::new(),
            deps: Vec::new(),
            queued: HashSet::new(),
        }
    }

    /// First-occurrence index of a name within its namespace — the
    /// alpha-invariance device.
    fn ident(&mut self, ns: Ns, id: &Ident) {
        let next = self.idx.len() as u32;
        let i = *self.idx.entry((ns, id.name)).or_insert(next);
        self.s.u32(i);
    }

    /// An identifier that names a component: indexed like any symbol, and
    /// queued so its signature joins the footprint.
    fn comp_ref(&mut self, id: &Ident) {
        self.ident(Ns::Comp, id);
        if self.queued.insert(id.name) {
            self.deps.push(id.name);
        }
    }

    fn param_expr(&mut self, e: &ParamExpr) {
        match e {
            ParamExpr::Nat(n) => {
                self.s.byte(0);
                self.s.u64(*n);
            }
            ParamExpr::Param(id) => {
                self.s.byte(1);
                self.ident(Ns::Param, id);
            }
            ParamExpr::Bin(op, a, b) => {
                self.s.byte(2);
                self.s.str(op.symbol());
                self.param_expr(a);
                self.param_expr(b);
            }
            ParamExpr::Un(op, a) => {
                self.s.byte(3);
                self.s.str(op.symbol());
                self.param_expr(a);
            }
            ParamExpr::CompAccess { comp, args, param } => {
                self.s.byte(4);
                self.comp_ref(comp);
                self.s.u32(args.len() as u32);
                for a in args {
                    self.param_expr(a);
                }
                self.ident(Ns::Param, param);
            }
            ParamExpr::InstAccess { instance, param } => {
                self.s.byte(5);
                self.ident(Ns::Signal, instance);
                self.ident(Ns::Param, param);
            }
            ParamExpr::Cond(c, a, b) => {
                self.s.byte(6);
                self.constraint(c);
                self.param_expr(a);
                self.param_expr(b);
            }
        }
    }

    fn constraint(&mut self, c: &Constraint) {
        match c {
            Constraint::Cmp(op, a, b) => {
                self.s.byte(0);
                self.s.str(op.symbol());
                self.param_expr(a);
                self.param_expr(b);
            }
            Constraint::NonZero(e) => {
                self.s.byte(1);
                self.param_expr(e);
            }
            Constraint::Not(inner) => {
                self.s.byte(2);
                self.constraint(inner);
            }
            Constraint::And(a, b) => {
                self.s.byte(3);
                self.constraint(a);
                self.constraint(b);
            }
            Constraint::Or(a, b) => {
                self.s.byte(4);
                self.constraint(a);
                self.constraint(b);
            }
            Constraint::True => self.s.byte(5),
        }
    }

    fn time(&mut self, t: &TimeExpr) {
        match &t.event {
            Some(ev) => {
                self.s.byte(1);
                self.ident(Ns::Event, ev);
            }
            None => self.s.byte(0),
        }
        self.param_expr(&t.offset);
    }

    fn interval(&mut self, i: &Interval) {
        self.time(&i.start);
        self.time(&i.end);
    }

    fn port(&mut self, p: &PortDecl) {
        self.ident(Ns::Signal, &p.name);
        self.s.u32(p.dims.len() as u32);
        for d in &p.dims {
            self.param_expr(d);
        }
        self.interval(&p.liveness);
        match &p.ty {
            PortType::Data { width } => {
                self.s.byte(0);
                self.param_expr(width);
            }
            PortType::Interface { event } => {
                self.s.byte(1);
                self.ident(Ns::Event, event);
            }
        }
    }

    fn signature(&mut self, sig: &Signature) {
        self.ident(Ns::Comp, &sig.name);
        self.s.u32(sig.params.len() as u32);
        for p in &sig.params {
            self.ident(Ns::Param, &p.name);
            match &p.default {
                Some(d) => {
                    self.s.byte(1);
                    self.param_expr(d);
                }
                None => self.s.byte(0),
            }
        }
        self.s.u32(sig.events.len() as u32);
        for e in &sig.events {
            self.ident(Ns::Event, &e.name);
            self.param_expr(&e.delay);
        }
        self.s.u32(sig.inputs.len() as u32);
        for p in &sig.inputs {
            self.port(p);
        }
        self.s.u32(sig.outputs.len() as u32);
        for p in &sig.outputs {
            self.port(p);
        }
        self.s.u32(sig.out_params.len() as u32);
        for op in &sig.out_params {
            self.ident(Ns::Param, &op.name);
            self.s.u32(op.constraints.len() as u32);
            for c in &op.constraints {
                self.constraint(c);
            }
        }
        self.s.u32(sig.where_clauses.len() as u32);
        for c in &sig.where_clauses {
            self.constraint(c);
        }
    }

    fn access(&mut self, a: &Access) {
        match a {
            Access::Var(id) => {
                self.s.byte(0);
                self.ident(Ns::Signal, id);
            }
            Access::Port { inv, port } => {
                self.s.byte(1);
                self.ident(Ns::Signal, inv);
                self.ident(Ns::Signal, port);
            }
            Access::Index { base, index } => {
                self.s.byte(2);
                self.access(base);
                self.param_expr(index);
            }
            Access::Range { base, start, end } => {
                self.s.byte(3);
                self.access(base);
                self.param_expr(start);
                self.param_expr(end);
            }
            Access::Const { value, width } => {
                self.s.byte(4);
                self.s.u64(*value);
                self.param_expr(width);
            }
        }
    }

    fn cmd(&mut self, cmd: &Cmd) {
        match cmd {
            Cmd::Instantiate { name, comp, params, span: _ } => {
                self.s.byte(0);
                self.ident(Ns::Signal, name);
                self.comp_ref(comp);
                self.s.u32(params.len() as u32);
                for p in params {
                    self.param_expr(p);
                }
            }
            Cmd::Invoke { name, instance, schedule, args, span: _ } => {
                self.s.byte(1);
                self.ident(Ns::Signal, name);
                self.ident(Ns::Signal, instance);
                self.s.u32(schedule.len() as u32);
                for t in schedule {
                    self.time(t);
                }
                self.s.u32(args.len() as u32);
                for a in args {
                    self.access(a);
                }
            }
            Cmd::InstInvoke { name, comp, params, schedule, args, span: _ } => {
                self.s.byte(2);
                self.ident(Ns::Signal, name);
                self.comp_ref(comp);
                self.s.u32(params.len() as u32);
                for p in params {
                    self.param_expr(p);
                }
                self.s.u32(schedule.len() as u32);
                for t in schedule {
                    self.time(t);
                }
                self.s.u32(args.len() as u32);
                for a in args {
                    self.access(a);
                }
            }
            Cmd::Connect { dst, src, span: _ } => {
                self.s.byte(3);
                self.access(dst);
                self.access(src);
            }
            Cmd::Let { name, value, span: _ } => {
                self.s.byte(4);
                self.ident(Ns::Param, name);
                self.param_expr(value);
            }
            Cmd::OutParamBind { name, value, span: _ } => {
                self.s.byte(5);
                self.ident(Ns::Param, name);
                self.param_expr(value);
            }
            Cmd::Bundle { name, idx_vars, dims, liveness, width, span: _ } => {
                self.s.byte(6);
                self.ident(Ns::Signal, name);
                self.s.u32(idx_vars.len() as u32);
                for v in idx_vars {
                    self.ident(Ns::Param, v);
                }
                self.s.u32(dims.len() as u32);
                for d in dims {
                    self.param_expr(d);
                }
                self.interval(liveness);
                self.param_expr(width);
            }
            Cmd::Assume { constraint, span: _ } => {
                self.s.byte(7);
                self.constraint(constraint);
            }
            Cmd::Assert { constraint, span: _ } => {
                self.s.byte(8);
                self.constraint(constraint);
            }
            Cmd::If { cond, then_body, else_body, span: _ } => {
                self.s.byte(9);
                self.constraint(cond);
                self.s.u32(then_body.len() as u32);
                for c in then_body {
                    self.cmd(c);
                }
                self.s.u32(else_body.len() as u32);
                for c in else_body {
                    self.cmd(c);
                }
            }
            Cmd::For { var, start, end, body, span: _ } => {
                self.s.byte(10);
                self.ident(Ns::Param, var);
                self.param_expr(start);
                self.param_expr(end);
                self.s.u32(body.len() as u32);
                for c in body {
                    self.cmd(c);
                }
            }
        }
    }

    /// The whole footprint: the component's own module (signature + body),
    /// then the signatures of every referenced component in first-occurrence
    /// discovery order (references found inside those signatures extend the
    /// queue, so the closure is transitive through signatures — and *only*
    /// through signatures, matching what the modular checker can observe).
    fn module_footprint(&mut self, module: &Module) {
        self.signature(&module.sig);
        match &module.kind {
            ModuleKind::Comp { body } => {
                self.s.byte(0);
                self.s.u32(body.len() as u32);
                for c in body {
                    self.cmd(c);
                }
            }
            ModuleKind::Extern { .. } => self.s.byte(1),
            ModuleKind::Gen { tool } => {
                self.s.byte(2);
                self.s.str(tool);
            }
        }
        let mut at = 0;
        while at < self.deps.len() {
            let name = self.deps[at];
            at += 1;
            self.s.byte(0xfe);
            match self.lib.get(name) {
                Some(dep) => {
                    match &dep.kind {
                        ModuleKind::Comp { .. } => self.s.byte(0),
                        ModuleKind::Extern { .. } => self.s.byte(1),
                        ModuleKind::Gen { tool } => {
                            self.s.byte(2);
                            self.s.str(tool);
                        }
                    }
                    self.signature(&dep.sig);
                }
                // An unresolved reference still contributes its indexed name,
                // so two programs with the same dangling reference agree.
                None => self.s.byte(0xff),
            }
        }
    }
}

/// Content hash of one component's checking inputs (see the module docs).
pub fn component_hash(lib: &CompLibrary<'_>, module: &Module) -> ComponentHash {
    let mut h = Hasher::new(lib);
    h.module_footprint(module);
    ComponentHash { content: h.s.a, content2: h.s.b }
}

/// Hashes of every Lilac component of a program, in module order.
pub fn program_component_hashes(lib: &CompLibrary<'_>) -> Vec<(Symbol, ComponentHash)> {
    lib.iter()
        .filter(|m| matches!(m.kind, ModuleKind::Comp { .. }))
        .map(|m| (m.name(), component_hash(lib, m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_program_incremental, check_program_with, CheckOptions};
    use crate::reports::PriorReports;
    use lilac_ast::parse_program;
    use lilac_ast::Program;
    use std::time::Duration;

    fn parse(src: &str) -> Program {
        let (prog, _) = parse_program("t.lilac", src).expect("test program parses");
        prog
    }

    fn hashes(src: &str) -> Vec<(String, ComponentHash)> {
        let prog = parse(src);
        let lib = CompLibrary::build(&prog).expect("library builds");
        program_component_hashes(&lib)
            .into_iter()
            .map(|(name, h)| (name.as_str().to_string(), h))
            .collect()
    }

    const BASE: &str = r#"
        extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);
        comp Mid[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) {
            r := new Reg[#W]<G>(i);
            o = r.out;
        }
        comp Top[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+2, G+3] #W) {
            a := new Mid[#W]<G>(i);
            b := new Mid[#W]<G+1>(a.o);
            o = b.o;
        }
    "#;

    #[test]
    fn renaming_and_reordering_preserve_content_hashes() {
        let base = hashes(BASE);
        // Alpha-rename every name (components, ports, instances, params).
        let renamed = hashes(
            r#"
            extern comp Dff[#N]<K:1>(d: [K, K+1] #N) -> (q: [K+1, K+2] #N);
            comp Stage[#N]<K:1>(x: [K, K+1] #N) -> (y: [K+1, K+2] #N) {
                ff := new Dff[#N]<K>(x);
                y = ff.q;
            }
            comp Pipe[#N]<K:1>(x: [K, K+1] #N) -> (y: [K+2, K+3] #N) {
                s0 := new Stage[#N]<K>(x);
                s1 := new Stage[#N]<K+1>(s0.y);
                y = s1.y;
            }
            "#,
        );
        for ((_, h_base), (_, h_renamed)) in base.iter().zip(&renamed) {
            assert_eq!(h_base, h_renamed, "alpha-renaming must preserve content hashes");
        }
        // Reorder modules: per-component hashes are unchanged (matched by
        // name, since module order changed).
        let reordered = hashes(
            r#"
            comp Top[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+2, G+3] #W) {
                a := new Mid[#W]<G>(i);
                b := new Mid[#W]<G+1>(a.o);
                o = b.o;
            }
            comp Mid[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) {
                r := new Reg[#W]<G>(i);
                o = r.out;
            }
            extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);
            "#,
        );
        for (name, h) in &base {
            let (_, h2) = reordered.iter().find(|(n, _)| n == name).expect("same components");
            assert_eq!(h, h2, "module reordering must preserve `{name}`'s hash");
        }
    }

    #[test]
    fn formatting_is_invisible_but_one_token_is_not() {
        let base = hashes(BASE);
        // Same program, different layout and comments: identical hashes.
        let reformatted = hashes(
            r#"
        extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);

        // a pipeline stage
        comp Mid[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) {
                r := new Reg[#W]<G>( i );
                o = r.out;
        }

        comp Top[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+2, G+3] #W) {
            a := new Mid[#W]<G>(i); b := new Mid[#W]<G+1>(a.o);
            o = b.o;
        }
        "#,
        );
        assert_eq!(base, reformatted, "layout and comments must not affect content hashes");
        // One token changed in Top's body (G+1 -> G+2): only Top's hash moves.
        let edited = hashes(&BASE.replace("new Mid[#W]<G+1>", "new Mid[#W]<G+2>"));
        assert_eq!(base[0], edited[0], "Mid is untouched");
        assert_ne!(base[1].1, edited[1].1, "a one-token body edit must change Top's hash");
    }

    #[test]
    fn signature_edits_invalidate_callers_but_body_edits_do_not() {
        let base = hashes(BASE);
        // Edit Reg's signature (output latency): Mid instantiates Reg, so
        // Mid's footprint changes; Top instantiates Mid, whose signature is
        // unchanged, so Top is untouched — exactly the modular contract.
        let sig_edit = hashes(&BASE.replace("(out: [G+1, G+2] #W)", "(out: [G+2, G+3] #W)"));
        assert_ne!(base[0].1, sig_edit[0].1, "callee signature edit must invalidate Mid");
        assert_eq!(base[1].1, sig_edit[1].1, "Top only sees Mid's unchanged signature");
        // Edit Mid's body only: Mid changes, Top is untouched.
        let body_edit = hashes(
            &BASE.replace("r := new Reg[#W]<G>(i);", "r := new Reg[#W]<G>(i); assume #W >= 1;"),
        );
        assert_ne!(base[0].1, body_edit[0].1);
        assert_eq!(base[1].1, body_edit[1].1, "callee body edits must not invalidate callers");
        // Edit Mid's signature: Top (its caller) changes too.
        let mid_sig = hashes(&BASE.replace(
            "comp Mid[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W)",
            "comp Mid[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) where #W >= 1",
        ));
        assert_ne!(base[1].1, mid_sig[1].1, "caller must see callee signature edits");
    }

    #[test]
    fn signature_closure_is_transitive_through_signatures() {
        // Leaf's out-param constraints appear in Mid's *signature* (a
        // CompAccess in a where clause), so editing Leaf's signature must
        // reach Top through two hops.
        let chain = r#"
            extern comp Leaf[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) with { some #L where #L == 1; };
            extern comp Mid[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) where #W >= Leaf[#W]::#L;
            comp Top[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) where #W >= 2 {
                m := new Mid[#W]<G>(i);
                o = m.o;
            }
        "#;
        let base = hashes(chain);
        let edited = hashes(&chain.replace("#L == 1", "#L == 2"));
        assert_ne!(
            base[0].1, edited[0].1,
            "Top must be invalidated transitively through Mid's signature"
        );
    }

    #[test]
    fn incremental_matches_scratch_and_hits_on_replay() {
        let prog = parse(BASE);
        let options = CheckOptions::default();
        let scratch = check_program_with(&prog, &options).expect("clean program");
        let mut prior = PriorReports::new();
        let cold = check_program_incremental(&prog, &options, &mut prior).expect("clean");
        assert_eq!(cold.hits, 0);
        assert_eq!(cold.misses, 2);
        assert!(scratch.equivalent(&cold.report), "incremental must equal from-scratch");
        // Replay: everything hits, nothing is re-checked, report unchanged.
        let warm = check_program_incremental(&prog, &options, &mut prior).expect("clean");
        assert_eq!(warm.hits, 2);
        assert_eq!(warm.misses, 0);
        assert!(scratch.equivalent(&warm.report));
        assert_eq!(warm.report.total_elapsed(), Duration::ZERO, "hits do no checking work");
    }

    #[test]
    fn error_reports_are_never_stored_or_replayed() {
        // Top reads Mid's output one cycle too early: a rejection.
        let bad = parse(&BASE.replace("o: [G+2, G+3]", "o: [G+1, G+2]"));
        let options = CheckOptions::default();
        let mut prior = PriorReports::new();
        let err = check_program_incremental(&bad, &options, &mut prior)
            .expect_err("mis-timed read must be rejected");
        assert_eq!(prior.len(), 1, "only the clean component (Mid) is stored");
        // Re-submitting the bad program re-checks Top and reproduces the
        // same rejection instead of replaying anything stale.
        let err2 = check_program_incremental(&bad, &options, &mut prior)
            .expect_err("still rejected on replay");
        assert_eq!(format!("{err}"), format!("{err2}"));
    }

    #[test]
    fn degraded_reports_are_never_admitted() {
        let prog = parse(BASE);
        let lib = CompLibrary::build(&prog).unwrap();
        let hs = program_component_hashes(&lib);
        let report = check_program_with(&prog, &CheckOptions::default()).unwrap();
        let mut degraded = report.components[0].clone();
        degraded.degraded = Some(lilac_util::diag::CheckError::new(
            lilac_util::diag::CheckErrorKind::WorkerPanic,
            lilac_util::diag::Severity::Recoverable,
            "injected",
        ));
        let prior = PriorReports::new();
        assert!(!prior.insert(hs[0].1, &degraded), "degraded reports must be refused");
        assert!(prior.is_empty());
        assert!(prior.insert(hs[0].1, &report.components[0]));
        assert_eq!(prior.len(), 1);
    }

    /// A parameter spelled like a component (`let #Max` next to component
    /// `Max`, as in the bundled FPU) must not tie the two together: renaming
    /// only the component is a consistent alpha-renaming.
    #[test]
    fn a_parameter_sharing_a_component_name_survives_renaming_the_component() {
        let src = |comp: &str| {
            format!(
                r#"
                comp {comp}[#A, #B]<G:1>() -> () with {{ some #O; }} {{ #O := #A + #B; }}
                comp Top[#W]<G:1>(i: [G, G+1] #W) -> (o: [G, G+1] #W) {{
                    let #Max = {comp}[#W, 1]::#O;
                    assert #Max > #W;
                    o = i;
                }}
            "#
            )
        };
        let base = hashes(&src("Max"));
        let renamed = hashes(&src("MaxRn"));
        assert_eq!(base[1], ("Top".to_string(), renamed[1].1));
    }

    /// A bare read resolves to a port, a bundle or an invocation, so those
    /// names share one namespace: reading invocation `a` (accepted) and
    /// reading an unknown `a` next to invocation `b` (rejected) must not
    /// hash alike.
    #[test]
    fn a_bare_read_of_an_invocation_is_tied_to_its_name() {
        let src = |inv: &str| {
            format!(
                r#"
                extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);
                comp Top[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) {{
                    r := new Reg[#W];
                    {inv} := r<G>(i);
                    o = a;
                }}
            "#
            )
        };
        let reads_invocation = parse(&src("a"));
        let reads_unknown = parse(&src("b"));
        assert!(check_program_with(&reads_invocation, &CheckOptions::default()).is_ok());
        assert!(check_program_with(&reads_unknown, &CheckOptions::default()).is_err());
        assert_ne!(hashes(&src("a"))[0].1, hashes(&src("b"))[0].1);
    }
}
