//! The two qualifier-flow analyses that give the loosening and tightening
//! mutants their allowed spans: the nodes an edit definitely retypes to
//! `approx`, and the sites where a tightening edit may or must be rejected.

use super::{call_param_types, demanding, prim_qual_sub};
use enerj_lang::ast::{Expr, ExprKind};
use enerj_lang::error::Span;
use enerj_lang::typecheck::TypedProgram;
use enerj_lang::types::{Qual, Type};

// ---------------------------------------------------------------------------
// Qualifier taint analysis for loosening edits.
// ---------------------------------------------------------------------------

/// Result of propagating "this node's qualifier definitely becomes
/// `approx`" through a well-typed program.
pub(super) struct TaintAnalysis {
    /// Spans of every definitely-retyped node. The checker's error for the
    /// corresponding edit is always reported at a span containing one.
    pub(super) tainted_spans: Vec<Span>,
    /// Demanding positions occupied by a tainted node — each guarantees
    /// the mutant is rejected.
    pub(super) guaranteed: Vec<Span>,
}

impl TaintAnalysis {
    /// `seed`: nodes whose type the edit changes from `precise`/`context`
    /// to `approx` directly. `fieldset_sink`: overridden (loosened) sink
    /// qualifier for a `FieldSet` node. `call_arg_sink`: overridden sink
    /// qualifier for argument `i` of a call node.
    pub(super) fn run(
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
pub(super) struct TightenScan {
    pub(super) possible: Vec<Span>,
    pub(super) guaranteed: bool,
}

impl TightenScan {
    /// `seed`: nodes the edit may retype toward `precise`.
    /// `fieldset_sink`: overridden (tightened) sink for a `FieldSet` node.
    /// `call_arg_sink`: overridden sink for argument `i` of a call node.
    pub(super) fn run(
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
pub(super) fn contains_access_through(e: &Expr, var: &str) -> bool {
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
