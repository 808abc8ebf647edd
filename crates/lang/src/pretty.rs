//! Pretty-printing of FEnerJ programs back to concrete syntax.
//!
//! The printer produces text that re-parses to an equal AST (modulo node
//! ids and spans), which the property tests use as a round-trip check.

use crate::ast::{ClassDecl, Expr, ExprKind, MethodQual, NodeId, Program};
use crate::error::Span;
use crate::types::{Qual, Type};
use std::fmt::Write as _;

/// Renders a whole program.
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    for class in &program.classes {
        class_to_string(class, &mut out);
    }
    out.push_str("main {\n    ");
    expr_to_string(&program.main, &mut out);
    out.push_str("\n}\n");
    out
}

/// Renders a single expression.
pub fn expr_to_display(expr: &Expr) -> String {
    let mut out = String::new();
    expr_to_string(expr, &mut out);
    out
}

fn type_to_string(ty: &Type) -> String {
    match &ty.base {
        crate::types::BaseType::Array(elem) => format!("{}[]", type_to_string(elem)),
        base if ty.qual == Qual::Precise => base.to_string(),
        base => format!("{} {base}", ty.qual),
    }
}

/// Renders a cast target. Unlike declarations, a cast is only recognized by
/// the parser when its qualifier is spelled out (`(precise C) e`), so the
/// qualifier is never omitted; array layers are peeled so the qualifier of
/// the innermost element type leads (`(approx int[]) e`, not the
/// unparseable `(precise approx int[]) e`).
fn cast_type_to_string(ty: &Type) -> String {
    let mut depth = 0;
    let mut cur = ty;
    while let crate::types::BaseType::Array(elem) = &cur.base {
        cur = elem;
        depth += 1;
    }
    format!("{} {}{}", cur.qual, cur.base, "[]".repeat(depth))
}

fn class_to_string(class: &ClassDecl, out: &mut String) {
    let _ = write!(out, "class {}", class.name);
    if let Some(sup) = &class.superclass {
        let _ = write!(out, " extends {sup}");
    }
    out.push_str(" {\n");
    for field in &class.fields {
        let _ = writeln!(out, "    {} {};", type_to_string(&field.ty), field.name);
    }
    for method in &class.methods {
        let _ = write!(out, "    {} {}(", type_to_string(&method.ret), method.name);
        for (i, (name, ty)) in method.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{} {name}", type_to_string(ty));
        }
        out.push(')');
        if method.qual == MethodQual::Approx {
            out.push_str(" approx");
        }
        out.push_str(" { ");
        expr_to_string(&method.body, out);
        out.push_str(" }\n");
    }
    out.push_str("}\n");
}

fn expr_to_string(expr: &Expr, out: &mut String) {
    match &expr.kind {
        ExprKind::Null => out.push_str("null"),
        ExprKind::IntLit(v) => {
            let _ = write!(out, "{v}");
        }
        ExprKind::FloatLit(v) => {
            if v.fract() == 0.0 && v.is_finite() {
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
        ExprKind::Var(name) => out.push_str(name),
        ExprKind::This => out.push_str("this"),
        ExprKind::New(ty) => {
            let _ = write!(out, "new {}()", type_to_string(ty));
        }
        ExprKind::NewArray(elem, len) => {
            let _ = write!(out, "new {}[", type_to_string(elem));
            expr_to_string(len, out);
            out.push(']');
        }
        ExprKind::Index(arr, idx) => {
            receiver(arr, out);
            out.push('[');
            expr_to_string(idx, out);
            out.push(']');
        }
        ExprKind::IndexSet(arr, idx, value) => {
            receiver(arr, out);
            out.push('[');
            expr_to_string(idx, out);
            out.push_str("] := ");
            paren(value, out);
        }
        ExprKind::Length(arr) => {
            receiver(arr, out);
            out.push_str(".length");
        }
        ExprKind::FieldGet(recv, field) => {
            receiver(recv, out);
            let _ = write!(out, ".{field}");
        }
        ExprKind::FieldSet(recv, field, value) => {
            receiver(recv, out);
            let _ = write!(out, ".{field} := ");
            paren(value, out);
        }
        ExprKind::Call(recv, name, args) => {
            receiver(recv, out);
            let _ = write!(out, ".{name}(");
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                paren(arg, out);
            }
            out.push(')');
        }
        ExprKind::Cast(ty, operand) => {
            let _ = write!(out, "({}) ", cast_type_to_string(ty));
            paren(operand, out);
        }
        ExprKind::Binary(op, lhs, rhs) => {
            paren(lhs, out);
            let _ = write!(out, " {op} ");
            paren(rhs, out);
        }
        ExprKind::If(cond, then, els) => {
            out.push_str("if (");
            expr_to_string(cond, out);
            out.push_str(") { ");
            expr_to_string(then, out);
            out.push_str(" } else { ");
            expr_to_string(els, out);
            out.push_str(" }");
        }
        ExprKind::Let(name, value, body) => {
            let _ = write!(out, "let {name} = ");
            paren(value, out);
            out.push_str(" in ");
            expr_to_string(body, out);
        }
        ExprKind::VarSet(name, value) => {
            let _ = write!(out, "{name} := ");
            paren(value, out);
        }
        ExprKind::While(cond, body) => {
            out.push_str("while (");
            expr_to_string(cond, out);
            out.push_str(") { ");
            expr_to_string(body, out);
            out.push_str(" }");
        }
        ExprKind::Seq(first, rest) => {
            paren(first, out);
            out.push_str("; ");
            expr_to_string(rest, out);
        }
        ExprKind::Endorse(inner) => {
            out.push_str("endorse(");
            expr_to_string(inner, out);
            out.push(')');
        }
    }
}

/// Prints compound expressions parenthesized so precedence is preserved.
fn paren(expr: &Expr, out: &mut String) {
    let needs = matches!(
        expr.kind,
        ExprKind::Binary(_, _, _)
            | ExprKind::If(_, _, _)
            | ExprKind::Let(_, _, _)
            | ExprKind::Seq(_, _)
            | ExprKind::Cast(_, _)
            | ExprKind::VarSet(_, _)
            | ExprKind::FieldSet(_, _, _)
            | ExprKind::IndexSet(_, _, _)
            | ExprKind::While(_, _)
    );
    if needs {
        out.push('(');
        expr_to_string(expr, out);
        out.push(')');
    } else {
        expr_to_string(expr, out);
    }
}

/// Prints a receiver (the `e` of `e.f`, `e.m(...)`, `e[...]`, `e.length`).
/// The grammar only admits postfix-level receivers, so anything parsed at a
/// looser precedence — including assignments, whose `:=` would otherwise
/// swallow the rest of the postfix chain — must be parenthesized.
fn receiver(expr: &Expr, out: &mut String) {
    let tight = matches!(
        expr.kind,
        ExprKind::Null
            | ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::Var(_)
            | ExprKind::This
            | ExprKind::New(_)
            | ExprKind::NewArray(_, _)
            | ExprKind::Index(_, _)
            | ExprKind::Length(_)
            | ExprKind::FieldGet(_, _)
            | ExprKind::Call(_, _, _)
            | ExprKind::Endorse(_)
    );
    if tight {
        expr_to_string(expr, out);
    } else {
        out.push('(');
        expr_to_string(expr, out);
        out.push(')');
    }
}

/// Structural equality of expressions ignoring node ids and spans.
pub fn expr_structurally_eq(a: &Expr, b: &Expr) -> bool {
    fn erase(e: &mut Expr) {
        e.id = NodeId(0);
        e.span = Span::default();
        for child in e.children_mut() {
            erase(child);
        }
    }
    let (mut a, mut b) = (a.clone(), b.clone());
    erase(&mut a);
    erase(&mut b);
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    #[test]
    fn expr_roundtrips() {
        for src in [
            "1 + 2 * 3",
            "let x = 4 in x == 4",
            "new approx Pair()",
            "this.x := (1 + 2)",
            "endorse(a.val)",
            "if (x < 1) { 0 } else { p.m(1, 2.5) }",
            "(top C) o; null",
        ] {
            let original = parse_expr(src).unwrap();
            let printed = expr_to_display(&original);
            let reparsed = parse_expr(&printed)
                .unwrap_or_else(|e| panic!("reprint of {src:?} -> {printed:?} failed: {e}"));
            assert!(
                expr_structurally_eq(&original, &reparsed),
                "round-trip mismatch for {src:?}: printed {printed:?}"
            );
        }
    }

    #[test]
    fn program_roundtrips() {
        let src = "
            class Pair extends Object {
                context int x;
                approx float rate;
                context int getX() { this.x }
                float mean() approx { 2.0 }
            }
            main { new Pair().getX() }
        ";
        let original = parse(src).unwrap();
        let printed = program_to_string(&original);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{printed}\n{e}"));
        assert_eq!(original.classes.len(), reparsed.classes.len());
        assert!(expr_structurally_eq(&original.main, &reparsed.main));
        assert_eq!(original.classes[0].fields, {
            // Spans differ; compare names and types only.
            let f = &reparsed.classes[0].fields;
            original.classes[0]
                .fields
                .iter()
                .zip(f)
                .map(|(a, b)| {
                    assert_eq!(a.name, b.name);
                    assert_eq!(a.ty, b.ty);
                    a.clone()
                })
                .collect::<Vec<_>>()
        });
    }
}
