//! Delta-debugging shrinker for counterexample programs.
//!
//! Given a source program and a failure predicate, [`shrink_source`]
//! greedily applies size-reducing edits — dropping whole classes, methods,
//! and fields, hoisting sub-expressions over their parents (`a; b` → `b`,
//! `let x = v in b` → `b`, `if (c) { t } else { f }` → `t`, …), and
//! collapsing arbitrary expressions to literals — keeping an edit only
//! when the shrunk program still satisfies the predicate. The result is a
//! locally-minimal program: no single catalogued edit can make it smaller
//! while preserving the failure.
//!
//! The predicate receives *source text* (the candidate is pretty-printed
//! before every check), so it can rerun any stage of the pipeline —
//! parsing, typechecking, interpretation, or a full oracle — and the
//! minimized program is guaranteed to be replayable from its printed form.

use crate::mutate::{for_each_expr, replace_node};
use enerj_lang::ast::{Expr, ExprKind, NodeId, Program};
use enerj_lang::parser::parse;
use enerj_lang::pretty::program_to_string;

/// One size-reducing rewrite of a [`Program`].
enum Edit {
    RemoveClass(usize),
    RemoveMethod(usize, usize),
    RemoveField(usize, usize),
    /// Replace the node by its `i`-th child.
    Hoist(NodeId, usize),
    /// Replace the node by a literal (`0`, `0.0`, or `null`).
    Lit(NodeId, ExprKind),
}

/// Minimizes `source` while `fails` keeps returning `true`, spending at
/// most `max_checks` predicate evaluations.
///
/// Returns the smallest failing source found (the original source if it
/// does not parse, or if its pretty-printed form no longer fails).
pub fn shrink_source(source: &str, fails: &dyn Fn(&str) -> bool, max_checks: usize) -> String {
    let Ok(mut prog) = parse(source) else {
        return source.to_string();
    };
    let mut best = program_to_string(&prog);
    if !fails(&best) {
        return source.to_string();
    }
    let mut checks = 0usize;
    loop {
        let mut improved = false;
        for edit in edits(&prog) {
            if checks >= max_checks {
                return best;
            }
            let cand = apply(&prog, &edit);
            let cand_src = program_to_string(&cand);
            if cand_src.len() >= best.len() {
                continue;
            }
            checks += 1;
            if fails(&cand_src) {
                prog = cand;
                best = cand_src;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Every candidate edit of `p`, largest-reduction first.
fn edits(p: &Program) -> Vec<Edit> {
    let mut out = Vec::new();
    for ci in 0..p.classes.len() {
        out.push(Edit::RemoveClass(ci));
    }
    for (ci, class) in p.classes.iter().enumerate() {
        for mi in 0..class.methods.len() {
            out.push(Edit::RemoveMethod(ci, mi));
        }
        for fi in 0..class.fields.len() {
            out.push(Edit::RemoveField(ci, fi));
        }
    }
    for_each_expr(p, &mut |e| {
        for i in 0..e.children().len() {
            out.push(Edit::Hoist(e.id, i));
        }
        match &e.kind {
            ExprKind::IntLit(0) | ExprKind::FloatLit(_) | ExprKind::Null => {}
            ExprKind::IntLit(_) => out.push(Edit::Lit(e.id, ExprKind::IntLit(0))),
            _ => {
                out.push(Edit::Lit(e.id, ExprKind::IntLit(0)));
                out.push(Edit::Lit(e.id, ExprKind::FloatLit(0.0)));
                out.push(Edit::Lit(e.id, ExprKind::Null));
            }
        }
    });
    out
}

fn apply(p: &Program, edit: &Edit) -> Program {
    match edit {
        Edit::RemoveClass(ci) => {
            let mut p = p.clone();
            p.classes.remove(*ci);
            p
        }
        Edit::RemoveMethod(ci, mi) => {
            let mut p = p.clone();
            p.classes[*ci].methods.remove(*mi);
            p
        }
        Edit::RemoveField(ci, fi) => {
            let mut p = p.clone();
            p.classes[*ci].fields.remove(*fi);
            p
        }
        Edit::Hoist(id, i) => replace_node(p, *id, &|old| old.children()[*i].clone()),
        Edit::Lit(id, kind) => {
            replace_node(p, *id, &|old| Expr { id: old.id, span: old.span, kind: kind.clone() })
        }
    }
}
