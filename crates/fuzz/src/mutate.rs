//! Qualifier-aware mutation: deriving ill-typed near-misses from well-typed
//! programs, together with the exact diagnostics the checker must report.
//!
//! Each [`Mutant`] is a single-edit variant of a well-typed program that is
//! ill-typed *by construction*, annotated with the set of
//! ([`TypeErrorKind`], [`Span`]) pairs the checker is allowed to report.
//! The mutation oracle then asserts both soundness (the checker rejects)
//! and precision (the reported kind is in the allowed set and the reported
//! span intersects a span influenced by the edit).
//!
//! The catalog follows the issue's three headline near-misses plus two
//! companions:
//!
//! | label prefix        | edit                                            |
//! |---------------------|-------------------------------------------------|
//! | `flip-to-precise`   | one `approx` field declaration becomes `precise`|
//! | `drop-endorse`      | one `endorse(e)` at a demanding site is spliced |
//! | `flip-to-approx`    | one `precise` field declaration becomes `approx`|
//! | `swap-context-inst` | one `let x = new q C in …` flips `q`            |
//! | `context-in-main`   | one `new q C()` in `main` becomes `new context` |
//!
//! For loosening edits (`flip-to-approx`, and `swap-context-inst` in the
//! precise→approx direction) the influenced region is computed by a
//! qualifier taint analysis: a node is tainted when the edit *definitely*
//! changes its static qualifier to `approx`. Every checker error caused by
//! such an edit is reported at a span containing a tainted node, and every
//! tainted node sitting in a demanding position (condition, index, length,
//! or a `precise`/`context` sink) guarantees rejection — which is what
//! makes these mutants valid kill-rate material rather than wishful
//! near-misses.

use enerj_lang::ast::{Expr, ExprKind, MethodQual, NodeId, Program};
use enerj_lang::error::{Span, TypeErrorKind};
use enerj_lang::typecheck::TypedProgram;
use enerj_lang::types::{BaseType, Qual, Type};

/// A single-edit ill-typed variant of a well-typed program.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// Human-readable description of the edit (for reports and shrinking).
    pub label: String,
    /// The mutated program.
    pub program: Program,
    /// Error kinds the checker may legitimately report.
    pub kinds: Vec<TypeErrorKind>,
    /// The reported error span must intersect one of these.
    pub spans: Vec<Span>,
}

impl Mutant {
    /// Whether a reported diagnostic is one this mutant allows.
    pub(crate) fn explains(&self, kind: TypeErrorKind, span: Span) -> bool {
        self.kinds.contains(&kind) && self.spans.iter().any(|s| intersects(*s, span))
    }
}

fn intersects(a: Span, b: Span) -> bool {
    // Half-open byte ranges; degenerate spans count as points.
    a.start < b.end.max(b.start + 1) && b.start < a.end.max(a.start + 1)
}

/// Derives every valid single-edit mutant of `tp`, each guaranteed to be
/// rejected by a sound checker.
pub fn mutants(tp: &TypedProgram) -> Vec<Mutant> {
    let mut out = Vec::new();
    flip_field_mutants(tp, &mut out);
    drop_endorse_mutants(tp, &mut out);
    swap_context_instantiation_mutants(tp, &mut out);
    context_in_main_mutants(tp, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Shared traversal helpers.
// ---------------------------------------------------------------------------

/// Applies `f` to every expression in every method body and `main`.
pub(crate) fn for_each_expr(p: &Program, f: &mut impl FnMut(&Expr)) {
    for body in p.bodies() {
        body.for_each(f);
    }
}

/// Rebuilds the program, replacing the node with id `target` by
/// `replacement(old_node)` wherever it occurs.
pub(crate) fn replace_node(
    p: &Program,
    target: NodeId,
    replacement: &impl Fn(&Expr) -> Expr,
) -> Program {
    fn rewrite(e: &mut Expr, target: NodeId, replacement: &impl Fn(&Expr) -> Expr) {
        if e.id == target {
            *e = replacement(e);
            return;
        }
        for child in e.children_mut() {
            rewrite(child, target, replacement);
        }
    }
    let mut p = p.clone();
    for c in &mut p.classes {
        for m in &mut c.methods {
            rewrite(&mut m.body, target, replacement);
        }
    }
    rewrite(&mut p.main, target, replacement);
    p
}

/// The checker's primitive-qualifier subtyping.
fn prim_qual_sub(q1: Qual, q2: Qual) -> bool {
    q1.is_sub(q2) || q1 == Qual::Precise || (q1 == Qual::Context && q2 == Qual::Approx)
}

/// Whether a primitive sink of this qualifier rejects `approx` values.
fn demanding(q: Qual) -> bool {
    matches!(q, Qual::Precise | Qual::Context)
}

/// The class name of a receiver's static type (well-typed ⇒ a class).
fn recv_class(tp: &TypedProgram, recv: &Expr) -> Option<String> {
    match &tp.types.get(&recv.id)?.base {
        BaseType::Class(c) => Some(c.clone()),
        _ => None,
    }
}

/// Adapted parameter types at a call site, straight from the checker's
/// side tables.
fn call_param_types(tp: &TypedProgram, call: &Expr) -> Option<Vec<Type>> {
    let ExprKind::Call(recv, name, _) = &call.kind else { return None };
    let rq = *tp.call_recv_qual.get(&call.id)?;
    let class = recv_class(tp, recv)?;
    Some(tp.table.msig(rq, &class, name)?.params)
}

// ---------------------------------------------------------------------------
// M1 / M3: flip one field declaration's qualifier.
// ---------------------------------------------------------------------------

fn flip_field_mutants(tp: &TypedProgram, out: &mut Vec<Mutant>) {
    for (ci, class) in tp.program.classes.iter().enumerate() {
        for (fi, field) in class.fields.iter().enumerate() {
            if !field.ty.base.is_prim() {
                continue;
            }
            match field.ty.qual {
                Qual::Approx => flip_to_precise(tp, ci, fi, out),
                Qual::Precise => flip_to_approx(tp, ci, fi, out),
                _ => {}
            }
        }
    }
}

fn with_field_qual(p: &Program, ci: usize, fi: usize, q: Qual) -> Program {
    let mut p = p.clone();
    p.classes[ci].fields[fi].ty.qual = q;
    p
}

/// M1: `approx` field → `precise`. Writes of values that stay non-precise
/// become illegal approx→precise flows; reads tighten, which is harmless
/// at declared sinks but can retighten inferred `let` variables, creating
/// fresh error sites at their reassignments — [`TightenScan`] tracks both.
fn flip_to_precise(tp: &TypedProgram, ci: usize, fi: usize, out: &mut Vec<Mutant>) {
    let fname = tp.program.classes[ci].fields[fi].name.clone();
    let scan = TightenScan::run(
        tp,
        &|e| {
            matches!(&e.kind,
                ExprKind::FieldGet(_, g) | ExprKind::FieldSet(_, g, _) if g == &fname)
        },
        &|e| match &e.kind {
            ExprKind::FieldSet(_, g, _) if g == &fname => Some(Qual::Precise),
            _ => None,
        },
        &|_, _| None,
    );
    if !scan.guaranteed {
        return;
    }
    out.push(Mutant {
        label: format!("flip-to-precise {}.{}", tp.program.classes[ci].name, fname),
        program: with_field_qual(&tp.program, ci, fi, Qual::Precise),
        kinds: vec![TypeErrorKind::NotASubtype],
        spans: scan.possible,
    });
}

/// M3: `precise` field → `approx`. Reads loosen; the taint analysis finds
/// where the loosened qualifier reaches a demanding position.
fn flip_to_approx(tp: &TypedProgram, ci: usize, fi: usize, out: &mut Vec<Mutant>) {
    let fname = tp.program.classes[ci].fields[fi].name.clone();
    let taint = TaintAnalysis::run(
        tp,
        &|e| matches!(&e.kind, ExprKind::FieldGet(_, g) if g == &fname),
        &|e| match &e.kind {
            // Writes to the flipped field now target an `approx` sink.
            ExprKind::FieldSet(_, g, _) if g == &fname => Some(Qual::Approx),
            _ => None,
        },
        &|_, _| None,
    );
    if taint.guaranteed.is_empty() {
        return;
    }
    out.push(Mutant {
        label: format!("flip-to-approx {}.{}", tp.program.classes[ci].name, fname),
        program: with_field_qual(&tp.program, ci, fi, Qual::Approx),
        kinds: loosening_kinds(),
        spans: taint.tainted_spans,
    });
}

fn loosening_kinds() -> Vec<TypeErrorKind> {
    vec![
        TypeErrorKind::NotASubtype,
        TypeErrorKind::ImpreciseCondition,
        TypeErrorKind::ImpreciseIndex,
        TypeErrorKind::ImpreciseArrayLength,
    ]
}

// ---------------------------------------------------------------------------
// M2: drop one endorse at a demanding site.
// ---------------------------------------------------------------------------

fn drop_endorse_mutants(tp: &TypedProgram, out: &mut Vec<Mutant>) {
    #[derive(Clone, Copy)]
    enum Demand {
        Free,
        Exact(TypeErrorKind),
        Sink(Qual),
    }

    struct Finder<'a> {
        tp: &'a TypedProgram,
        found: Vec<(NodeId, Span, TypeErrorKind)>,
    }

    impl Finder<'_> {
        fn visit(&mut self, e: &Expr, demand: Demand) {
            if let ExprKind::Endorse(inner) = &e.kind {
                let iq = self.tp.types[&inner.id].qual;
                match demand {
                    Demand::Exact(kind) if iq != Qual::Precise => {
                        self.found.push((e.id, inner.span, kind));
                    }
                    Demand::Sink(sq) if demanding(sq) && !prim_qual_sub(iq, sq) => {
                        self.found.push((e.id, inner.span, TypeErrorKind::NotASubtype));
                    }
                    _ => {}
                }
                self.visit(inner, Demand::Free);
                return;
            }
            match &e.kind {
                ExprKind::Null
                | ExprKind::IntLit(_)
                | ExprKind::FloatLit(_)
                | ExprKind::Var(_)
                | ExprKind::This
                | ExprKind::New(_) => {}
                ExprKind::NewArray(_, len) => {
                    self.visit(len, Demand::Exact(TypeErrorKind::ImpreciseArrayLength));
                }
                ExprKind::Index(a, i) => {
                    self.visit(a, Demand::Free);
                    self.visit(i, Demand::Exact(TypeErrorKind::ImpreciseIndex));
                }
                ExprKind::IndexSet(a, i, v) => {
                    self.visit(a, Demand::Free);
                    self.visit(i, Demand::Exact(TypeErrorKind::ImpreciseIndex));
                    self.visit(v, Demand::Sink(self.tp.types[&e.id].qual));
                }
                ExprKind::If(c, t, f) => {
                    self.visit(c, Demand::Exact(TypeErrorKind::ImpreciseCondition));
                    self.visit(t, Demand::Free);
                    self.visit(f, Demand::Free);
                }
                ExprKind::While(c, b) => {
                    self.visit(c, Demand::Exact(TypeErrorKind::ImpreciseCondition));
                    self.visit(b, Demand::Free);
                }
                ExprKind::FieldSet(r, _, v) => {
                    self.visit(r, Demand::Free);
                    self.visit(v, Demand::Sink(self.tp.types[&e.id].qual));
                }
                ExprKind::VarSet(_, v) => {
                    self.visit(v, Demand::Sink(self.tp.types[&e.id].qual));
                }
                ExprKind::Call(r, _, args) => {
                    self.visit(r, Demand::Free);
                    let ptys = call_param_types(self.tp, e);
                    for (i, a) in args.iter().enumerate() {
                        let d = ptys
                            .as_ref()
                            .and_then(|p| p.get(i))
                            .filter(|t| t.is_prim())
                            .map_or(Demand::Free, |t| Demand::Sink(t.qual));
                        self.visit(a, d);
                    }
                }
                // `let` bodies and `seq` tails are type-transparent: the
                // node's type *is* the sub-expression's type, so the parent
                // demand applies unchanged (the checker reports at the
                // outer value span, which contains the endorse site, and
                // the oracle checks span *intersection*).
                ExprKind::Let(_, v, b) => {
                    self.visit(v, Demand::Free);
                    self.visit(b, demand);
                }
                ExprKind::Seq(a, b) => {
                    self.visit(a, Demand::Free);
                    self.visit(b, demand);
                }
                ExprKind::Length(a) | ExprKind::FieldGet(a, _) | ExprKind::Cast(_, a) => {
                    self.visit(a, Demand::Free);
                }
                ExprKind::Binary(_, a, b) => {
                    self.visit(a, Demand::Free);
                    self.visit(b, Demand::Free);
                }
                ExprKind::Endorse(_) => unreachable!("handled above"),
            }
        }
    }

    let mut finder = Finder { tp, found: Vec::new() };
    for class in &tp.program.classes {
        for method in &class.methods {
            let d = if method.ret.is_prim() { Demand::Sink(method.ret.qual) } else { Demand::Free };
            finder.visit(&method.body, d);
        }
    }
    finder.visit(&tp.program.main, Demand::Free);

    for (id, span, kind) in finder.found {
        let program = replace_node(&tp.program, id, &|old| {
            let ExprKind::Endorse(inner) = &old.kind else {
                unreachable!("target is an endorse node");
            };
            (**inner).clone()
        });
        out.push(Mutant {
            label: format!("drop-endorse @{}..{}", span.start, span.end),
            program,
            kinds: vec![kind],
            spans: vec![span],
        });
    }
}

// ---------------------------------------------------------------------------
// M4: swap the qualifier of a `let x = new q C in …` instantiation.
// ---------------------------------------------------------------------------

fn swap_context_instantiation_mutants(tp: &TypedProgram, out: &mut Vec<Mutant>) {
    // Candidates: let-bound `new q C` locals used *only* as member-access
    // receivers (no shadowing, no reassignment, no bare-var flows), so the
    // full effect of the flip is captured by how `context` members adapt.
    struct Cand {
        let_id: NodeId,
        var: String,
        qual: Qual,
        class: String,
    }
    let mut cands: Vec<Cand> = Vec::new();
    for_each_expr(&tp.program, &mut |e| {
        if let ExprKind::Let(x, v, _) = &e.kind {
            if let ExprKind::New(t) = &v.kind {
                if let (BaseType::Class(c), Qual::Precise | Qual::Approx) = (&t.base, t.qual) {
                    cands.push(Cand {
                        let_id: e.id,
                        var: x.clone(),
                        qual: t.qual,
                        class: c.clone(),
                    });
                }
            }
        }
    });

    for cand in cands {
        let mut shadowed = false;
        let mut reassigned = false;
        let mut total_uses = 0usize;
        let mut receiver_uses = 0usize;
        for_each_expr(&tp.program, &mut |e| match &e.kind {
            ExprKind::Let(x, _, _) if *x == cand.var && e.id != cand.let_id => shadowed = true,
            ExprKind::VarSet(x, _) if *x == cand.var => reassigned = true,
            ExprKind::Var(x) if *x == cand.var => total_uses += 1,
            ExprKind::FieldGet(r, _) | ExprKind::FieldSet(r, _, _) | ExprKind::Call(r, _, _) => {
                if matches!(&r.kind, ExprKind::Var(x) if *x == cand.var) {
                    receiver_uses += 1;
                }
            }
            _ => {}
        });
        if shadowed || reassigned || total_uses != receiver_uses {
            continue;
        }
        // Reads of array-typed or context-qualified class members through
        // `x` cascade the flip into element types and nested receivers;
        // keep the expected-site computation simple by skipping those.
        let mut cascading_read = false;
        for_each_expr(&tp.program, &mut |e| {
            if let ExprKind::FieldGet(r, g) = &e.kind {
                if matches!(&r.kind, ExprKind::Var(x) if *x == cand.var) {
                    if let Some(t) = tp.table.field_decl(&cand.class, g) {
                        let ctx_class =
                            t.qual == Qual::Context && matches!(t.base, BaseType::Class(_));
                        if matches!(t.base, BaseType::Array(_)) || ctx_class {
                            cascading_read = true;
                        }
                    }
                }
            }
        });
        if cascading_read {
            continue;
        }

        let flipped = if cand.qual == Qual::Precise { Qual::Approx } else { Qual::Precise };
        if let Some(m) =
            build_context_swap_mutant(tp, &cand.var, cand.let_id, cand.qual, flipped, &cand.class)
        {
            out.push(m);
        }
    }
}

fn build_context_swap_mutant(
    tp: &TypedProgram,
    var: &str,
    let_id: NodeId,
    old_q: Qual,
    new_q: Qual,
    class: &str,
) -> Option<Mutant> {
    let is_recv_var = |r: &Expr| matches!(&r.kind, ExprKind::Var(x) if x == var);
    let label = format!("swap-context-inst {var}: new {old_q} {class} -> new {new_q} {class}");
    let program = || {
        replace_node(&tp.program, let_id, &|old| {
            let mut new = old.clone();
            let ExprKind::Let(_, v, _) = &mut new.kind else { unreachable!() };
            let ExprKind::New(t) = &mut v.kind else { unreachable!() };
            t.qual = new_q;
            new
        })
    };

    // Context-qualified members seen through `x` flip with the receiver.
    let context_prim_field = |g: &str| {
        tp.table.field_decl(class, g).is_some_and(|t| t.qual == Qual::Context && t.base.is_prim())
    };
    let context_class_field = |g: &str| {
        tp.table
            .field_decl(class, g)
            .is_some_and(|t| t.qual == Qual::Context && matches!(t.base, BaseType::Class(_)))
    };
    // Array fields with context elements are invariant in their (adapted)
    // element type: any array written through `x` mismatches after the
    // flip, in both directions.
    let context_elem_array_field = |g: &str| {
        tp.table
            .field_decl(class, g)
            .is_some_and(|t| matches!(&t.base, BaseType::Array(elem) if elem.qual == Qual::Context))
    };

    // Class-typed and array-typed sinks through `x` break by subtyping /
    // invariance in both directions; a value that itself goes through `x`
    // may flip along with the sink, so only independent values guarantee.
    let mut member_spans = Vec::new();
    let mut member_guaranteed = false;
    for_each_expr(&tp.program, &mut |e| {
        if let ExprKind::FieldSet(r, g, v) = &e.kind {
            if is_recv_var(r)
                && ((context_class_field(g) && tp.types[&v.id].base != BaseType::Null)
                    || context_elem_array_field(g))
            {
                member_spans.push(v.span);
                if !contains_access_through(v, var) {
                    member_guaranteed = true;
                }
            }
        }
    });

    if new_q == Qual::Precise {
        // Tightening: context sinks through `x` demand precise now, and
        // retightened reads through `x` retighten inferred `let` vars.
        let scan = TightenScan::run(
            tp,
            &|e| match &e.kind {
                ExprKind::FieldGet(r, g) | ExprKind::FieldSet(r, g, _) if is_recv_var(r) => {
                    context_prim_field(g)
                }
                ExprKind::Call(r, name, _) if is_recv_var(r) => declared_ret(tp, class, name)
                    .is_some_and(|t| t.qual == Qual::Context && t.base.is_prim()),
                _ => false,
            },
            &|e| match &e.kind {
                ExprKind::FieldSet(r, g, _) if is_recv_var(r) && context_prim_field(g) => {
                    Some(Qual::Precise)
                }
                _ => None,
            },
            &|e, i| match &e.kind {
                ExprKind::Call(r, name, _) if is_recv_var(r) => {
                    let dq = declared_param_quals(tp, class, name).get(i).copied()?;
                    (dq == Qual::Context).then_some(Qual::Precise)
                }
                _ => None,
            },
        );
        if !scan.guaranteed && !member_guaranteed {
            return None;
        }
        let mut spans = scan.possible;
        spans.extend(member_spans);
        Some(Mutant { label, program: program(), kinds: vec![TypeErrorKind::NotASubtype], spans })
    } else {
        // Loosening: context members through `x` become approx; the taint
        // analysis finds where that reaches a demanding position.
        let taint = TaintAnalysis::run(
            tp,
            &|e| match &e.kind {
                ExprKind::FieldGet(r, g) if is_recv_var(r) => context_prim_field(g),
                ExprKind::Call(r, name, _) if is_recv_var(r) => declared_ret(tp, class, name)
                    .is_some_and(|t| t.qual == Qual::Context && t.base.is_prim()),
                _ => false,
            },
            &|e| match &e.kind {
                // Context sinks through `x` loosen along with the reads.
                ExprKind::FieldSet(r, g, _) if is_recv_var(r) && context_prim_field(g) => {
                    Some(Qual::Approx)
                }
                _ => None,
            },
            &|e, i| match &e.kind {
                ExprKind::Call(r, name, _) if is_recv_var(r) => {
                    let dq = declared_param_quals(tp, class, name).get(i).copied()?;
                    (dq == Qual::Context).then_some(Qual::Approx)
                }
                _ => None,
            },
        );
        if taint.guaranteed.is_empty() && !member_guaranteed {
            return None;
        }
        let mut spans = taint.tainted_spans;
        spans.extend(member_spans);
        Some(Mutant { label, program: program(), kinds: loosening_kinds(), spans })
    }
}

/// Declared (pre-adaptation) parameter qualifiers of `name` on `class`.
fn declared_param_quals(tp: &TypedProgram, class: &str, name: &str) -> Vec<Qual> {
    tp.table
        .method_decl(class, name, MethodQual::Precise)
        .map(|(_, m)| m.params.iter().map(|(_, t)| t.qual).collect())
        .unwrap_or_default()
}

/// Declared (pre-adaptation) return type of `name` on `class`.
fn declared_ret(tp: &TypedProgram, class: &str, name: &str) -> Option<Type> {
    tp.table.method_decl(class, name, MethodQual::Precise).map(|(_, m)| m.ret.clone())
}

// ---------------------------------------------------------------------------
// M5: `new context C()` in main.
// ---------------------------------------------------------------------------

fn context_in_main_mutants(tp: &TypedProgram, out: &mut Vec<Mutant>) {
    let mut news: Vec<(NodeId, Span)> = Vec::new();
    // Only `main` — inside class bodies `new context` is legal.
    tp.program.main.for_each(&mut |e| {
        if let ExprKind::New(_) = e.kind {
            news.push((e.id, e.span));
        }
    });
    for (id, span) in news {
        let program = replace_node(&tp.program, id, &|old| {
            let ExprKind::New(t) = &old.kind else { unreachable!() };
            let mut t = t.clone();
            t.qual = Qual::Context;
            Expr { id: old.id, span: old.span, kind: ExprKind::New(t) }
        });
        out.push(Mutant {
            label: format!("context-in-main @{}..{}", span.start, span.end),
            program,
            kinds: vec![TypeErrorKind::ContextOutsideClass],
            spans: vec![span],
        });
    }
}

// ---------------------------------------------------------------------------
// Qualifier taint analysis for loosening edits.
// ---------------------------------------------------------------------------

/// Result of propagating "this node's qualifier definitely becomes
/// `approx`" through a well-typed program.
struct TaintAnalysis {
    /// Spans of every definitely-retyped node. The checker's error for the
    /// corresponding edit is always reported at a span containing one.
    tainted_spans: Vec<Span>,
    /// Demanding positions occupied by a tainted node — each guarantees
    /// the mutant is rejected.
    guaranteed: Vec<Span>,
}

impl TaintAnalysis {
    /// `seed`: nodes whose type the edit changes from `precise`/`context`
    /// to `approx` directly. `fieldset_sink`: overridden (loosened) sink
    /// qualifier for a `FieldSet` node. `call_arg_sink`: overridden sink
    /// qualifier for argument `i` of a call node.
    fn run(
        tp: &TypedProgram,
        seed: &dyn Fn(&Expr) -> bool,
        fieldset_sink: &dyn Fn(&Expr) -> Option<Qual>,
        call_arg_sink: &dyn Fn(&Expr, usize) -> Option<Qual>,
    ) -> TaintAnalysis {
        let mut w = TaintWalker {
            tp,
            seed,
            fieldset_sink,
            call_arg_sink,
            env: Vec::new(),
            tainted_spans: Vec::new(),
            guaranteed: Vec::new(),
        };
        for class in &tp.program.classes {
            for method in &class.methods {
                w.env = method.params.iter().map(|(n, _)| (n.clone(), false)).collect();
                let tb = w.visit(&method.body);
                if tb && method.ret.is_prim() && demanding(method.ret.qual) {
                    w.guaranteed.push(method.body.span);
                }
            }
        }
        w.env.clear();
        w.visit(&tp.program.main);

        TaintAnalysis { tainted_spans: w.tainted_spans, guaranteed: w.guaranteed }
    }
}

struct TaintWalker<'a> {
    tp: &'a TypedProgram,
    seed: &'a dyn Fn(&Expr) -> bool,
    fieldset_sink: &'a dyn Fn(&Expr) -> Option<Qual>,
    call_arg_sink: &'a dyn Fn(&Expr, usize) -> Option<Qual>,
    env: Vec<(String, bool)>,
    tainted_spans: Vec<Span>,
    guaranteed: Vec<Span>,
}

impl TaintWalker<'_> {
    fn lookup(&self, x: &str) -> bool {
        self.env.iter().rev().find(|(n, _)| n == x).is_some_and(|(_, t)| *t)
    }

    fn old_qual(&self, e: &Expr) -> Qual {
        self.tp.types[&e.id].qual
    }

    fn mark(&mut self, e: &Expr) -> bool {
        self.tainted_spans.push(e.span);
        true
    }

    fn arg_sink(&self, call: &Expr, i: usize, ptys: &Option<Vec<Type>>) -> Option<Qual> {
        (self.call_arg_sink)(call, i).or_else(|| {
            ptys.as_ref().and_then(|p| p.get(i)).filter(|t| t.is_prim()).map(|t| t.qual)
        })
    }

    /// Visits `e`; returns whether the edit definitely retypes it from
    /// `precise`/`context` to `approx`.
    fn visit(&mut self, e: &Expr) -> bool {
        if (self.seed)(e) {
            // Seeds still have children to scan (receivers, call args).
            match &e.kind {
                ExprKind::FieldGet(r, _) => {
                    self.visit(r);
                }
                ExprKind::Call(r, _, args) => {
                    self.visit(r);
                    let ptys = call_param_types(self.tp, e);
                    for (i, a) in args.iter().enumerate() {
                        if self.visit(a) && self.arg_sink(e, i, &ptys).is_some_and(demanding) {
                            self.guaranteed.push(a.span);
                        }
                    }
                }
                _ => {}
            }
            return self.mark(e);
        }
        match &e.kind {
            ExprKind::Null
            | ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::This
            | ExprKind::New(_) => false,
            ExprKind::Var(x) => {
                if self.lookup(x) {
                    self.mark(e)
                } else {
                    false
                }
            }
            ExprKind::FieldGet(r, _) | ExprKind::Length(r) => {
                self.visit(r);
                false
            }
            ExprKind::Cast(_, a) | ExprKind::Endorse(a) => {
                // Casts are class-typed (no primitive taint); endorsement
                // re-precises, so taint stops in both cases.
                self.visit(a);
                false
            }
            ExprKind::NewArray(_, len) => {
                if self.visit(len) {
                    self.guaranteed.push(len.span);
                }
                false
            }
            ExprKind::Index(a, i) => {
                self.visit(a);
                if self.visit(i) {
                    self.guaranteed.push(i.span);
                }
                false
            }
            ExprKind::IndexSet(a, i, v) => {
                self.visit(a);
                if self.visit(i) {
                    self.guaranteed.push(i.span);
                }
                let tv = self.visit(v);
                // Element sinks are declared types: unchanged by the edit.
                if tv && demanding(self.old_qual(e)) {
                    self.guaranteed.push(v.span);
                }
                false
            }
            ExprKind::Binary(_, a, b) => {
                let ta = self.visit(a);
                let tb = self.visit(b);
                if (ta || tb) && demanding(self.old_qual(e)) {
                    self.mark(e)
                } else {
                    false
                }
            }
            ExprKind::If(c, t, f) => {
                if self.visit(c) {
                    self.guaranteed.push(c.span);
                }
                let tt = self.visit(t);
                let tf = self.visit(f);
                if (tt || tf) && demanding(self.old_qual(e)) {
                    self.mark(e)
                } else {
                    false
                }
            }
            ExprKind::While(c, b) => {
                if self.visit(c) {
                    self.guaranteed.push(c.span);
                }
                self.visit(b);
                false
            }
            ExprKind::Let(x, v, b) => {
                let tv = self.visit(v);
                self.env.push((x.clone(), tv));
                let tb = self.visit(b);
                self.env.pop();
                if tb {
                    self.mark(e)
                } else {
                    false
                }
            }
            ExprKind::VarSet(x, v) => {
                let tv = self.visit(v);
                let sink = if self.lookup(x) { Qual::Approx } else { self.old_qual(e) };
                if tv && demanding(sink) {
                    self.guaranteed.push(v.span);
                }
                if self.lookup(x) && demanding(self.old_qual(e)) {
                    self.mark(e)
                } else {
                    false
                }
            }
            ExprKind::Seq(a, b) => {
                self.visit(a);
                if self.visit(b) {
                    self.mark(e)
                } else {
                    false
                }
            }
            ExprKind::FieldSet(r, _, v) => {
                self.visit(r);
                let tv = self.visit(v);
                let over = (self.fieldset_sink)(e);
                if tv && demanding(over.unwrap_or_else(|| self.old_qual(e))) {
                    self.guaranteed.push(v.span);
                }
                // A loosened field-set node is itself retyped: its type is
                // the (adapted) field type, which the edit flips to approx.
                if over == Some(Qual::Approx) && demanding(self.old_qual(e)) {
                    self.mark(e)
                } else {
                    false
                }
            }
            ExprKind::Call(r, _, args) => {
                self.visit(r);
                let ptys = call_param_types(self.tp, e);
                for (i, a) in args.iter().enumerate() {
                    if self.visit(a) && self.arg_sink(e, i, &ptys).is_some_and(demanding) {
                        self.guaranteed.push(a.span);
                    }
                }
                false
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Qualifier tightening analysis for flip-to-precise edits.
// ---------------------------------------------------------------------------

/// Dual of [`TaintAnalysis`] for edits that make reads *more* precise.
///
/// Tightened values are harmless at declared sinks, but two things still
/// break: (a) sinks the edit itself tightens (the flipped field, or
/// `context` members seen through a retightened receiver) now reject
/// values that stay non-precise, and (b) `let` variables infer their type
/// from the initializer, so a tightened initializer retightens the
/// variable and every `x := e` of a still-approx value becomes an error.
///
/// `possible` over-approximates the reportable error spans; `guaranteed`
/// is true when at least one site *definitely* errors (its sink
/// definitely tightens to `precise` while its value definitely cannot
/// tighten).
struct TightenScan {
    possible: Vec<Span>,
    guaranteed: bool,
}

impl TightenScan {
    /// `seed`: nodes the edit may retype toward `precise`.
    /// `fieldset_sink`: overridden (tightened) sink for a `FieldSet` node.
    /// `call_arg_sink`: overridden sink for argument `i` of a call node.
    fn run(
        tp: &TypedProgram,
        seed: &dyn Fn(&Expr) -> bool,
        fieldset_sink: &dyn Fn(&Expr) -> Option<Qual>,
        call_arg_sink: &dyn Fn(&Expr, usize) -> Option<Qual>,
    ) -> TightenScan {
        let mut w = TightenWalker {
            tp,
            seed,
            fieldset_sink,
            call_arg_sink,
            env: Vec::new(),
            possible: Vec::new(),
            guaranteed: false,
        };
        for class in &tp.program.classes {
            for method in &class.methods {
                w.env = method.params.iter().map(|(n, _)| (n.clone(), false)).collect();
                w.visit(&method.body);
            }
        }
        w.env.clear();
        w.visit(&tp.program.main);
        TightenScan { possible: w.possible, guaranteed: w.guaranteed }
    }
}

struct TightenWalker<'a> {
    tp: &'a TypedProgram,
    seed: &'a dyn Fn(&Expr) -> bool,
    fieldset_sink: &'a dyn Fn(&Expr) -> Option<Qual>,
    call_arg_sink: &'a dyn Fn(&Expr, usize) -> Option<Qual>,
    env: Vec<(String, bool)>,
    possible: Vec<Span>,
    guaranteed: bool,
}

impl TightenWalker<'_> {
    fn lookup(&self, x: &str) -> bool {
        self.env.iter().rev().find(|(n, _)| n == x).is_some_and(|(_, t)| *t)
    }

    /// Visits `e`; returns whether the edit *may* retype it toward
    /// `precise` (over-approximate, so guarantees derived from a `false`
    /// answer are sound).
    fn visit(&mut self, e: &Expr) -> bool {
        let seeded = (self.seed)(e);
        match &e.kind {
            ExprKind::Null
            | ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::This
            | ExprKind::New(_) => seeded,
            ExprKind::Var(x) => seeded || self.lookup(x),
            ExprKind::FieldGet(r, _) => {
                self.visit(r);
                seeded
            }
            ExprKind::FieldSet(r, _, v) => {
                self.visit(r);
                let tv = self.visit(v);
                if let Some(sq) = (self.fieldset_sink)(e) {
                    if demanding(sq) && !prim_qual_sub(self.tp.types[&v.id].qual, sq) {
                        self.possible.push(v.span);
                        if !tv {
                            self.guaranteed = true;
                        }
                    }
                }
                seeded
            }
            ExprKind::VarSet(x, v) => {
                // A retightened `let` var makes its reassignments demand
                // precise; the value may tighten too, so possible-only.
                self.visit(v);
                if self.lookup(x) && !prim_qual_sub(self.tp.types[&v.id].qual, Qual::Precise) {
                    self.possible.push(v.span);
                }
                seeded || self.lookup(x)
            }
            ExprKind::Let(x, init, b) => {
                let ti = self.visit(init);
                self.env.push((x.clone(), ti));
                let tb = self.visit(b);
                self.env.pop();
                seeded || tb
            }
            ExprKind::Seq(a, b) => {
                self.visit(a);
                let tb = self.visit(b);
                seeded || tb
            }
            ExprKind::Binary(_, a, b) => {
                let ta = self.visit(a);
                let tb = self.visit(b);
                seeded || ta || tb
            }
            ExprKind::If(c, t, f) => {
                self.visit(c);
                let tt = self.visit(t);
                let tf = self.visit(f);
                seeded || tt || tf
            }
            ExprKind::While(a, b) | ExprKind::Index(a, b) => {
                self.visit(a);
                self.visit(b);
                seeded
            }
            ExprKind::IndexSet(a, i, v) => {
                self.visit(a);
                self.visit(i);
                self.visit(v);
                seeded
            }
            ExprKind::NewArray(_, len) | ExprKind::Length(len) => {
                self.visit(len);
                seeded
            }
            ExprKind::Cast(_, a) | ExprKind::Endorse(a) => {
                self.visit(a);
                // Cast types are annotations; endorse is already precise.
                seeded
            }
            ExprKind::Call(r, _, args) => {
                self.visit(r);
                for (i, a) in args.iter().enumerate() {
                    let ta = self.visit(a);
                    if let Some(sq) = (self.call_arg_sink)(e, i) {
                        if demanding(sq) && !prim_qual_sub(self.tp.types[&a.id].qual, sq) {
                            self.possible.push(a.span);
                            if !ta {
                                self.guaranteed = true;
                            }
                        }
                    }
                }
                // Return types are declared, so calls never tighten unless
                // the edit targets them directly (i.e. they are seeds).
                seeded
            }
        }
    }
}

/// Whether any member access (`FieldGet`/`FieldSet`/`Call`) inside `e`
/// has `var` as its receiver.
fn contains_access_through(e: &Expr, var: &str) -> bool {
    let mut found = false;
    e.for_each(&mut |e| {
        if let ExprKind::FieldGet(r, _) | ExprKind::FieldSet(r, _, _) | ExprKind::Call(r, _, _) =
            &e.kind
        {
            found |= matches!(&r.kind, ExprKind::Var(x) if x == var);
        }
    });
    found
}
