//! The abstract syntax of FEnerJ (paper Figure 1).
//!
//! The formal language is extended with two conveniences that desugar to
//! nothing interesting — `let x = e in e` and sequencing `e; e` — so that
//! realistic programs can be written; everything else matches Figure 1:
//! classes with fields and (receiver-precision-overloaded) methods, field
//! reads and writes, method invocation, casts, binary primitive operations
//! and conditionals. `endorse(e)` from full EnerJ (section 2.2) is included;
//! the non-interference property is stated for programs that do not use it.

use crate::error::Span;
use crate::types::Type;
use std::fmt;

/// A unique identifier assigned to every expression node by the parser;
/// the type checker stores each node's type and operator precision under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl BinOp {
    /// Whether this operator is a comparison (result type `int`).
    pub(crate) fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Unique node id (the key into the checker's type tables).
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// The syntactic form.
    pub kind: ExprKind,
}

/// The syntactic forms of expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// `null`
    Null,
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Local variable or parameter read.
    Var(String),
    /// `this`
    This,
    /// `new q C()`
    New(Type),
    /// `new T[e]`: a new array of approximate or precise elements with a
    /// precise length (section 2.6).
    NewArray(Type, Box<Expr>),
    /// `e[e]`: array element read; the index must be precise.
    Index(Box<Expr>, Box<Expr>),
    /// `e[e] := e`: array element write.
    IndexSet(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `e.length`: the (always precise) array length.
    Length(Box<Expr>),
    /// `e.f`
    FieldGet(Box<Expr>, String),
    /// `e.f := e`
    FieldSet(Box<Expr>, String, Box<Expr>),
    /// `e.m(e, ...)`
    Call(Box<Expr>, String, Vec<Expr>),
    /// `(q C) e`
    Cast(Type, Box<Expr>),
    /// `e op e`
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `if (e) { e } else { e }`
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `let x = e in e` (bindings are mutable, as in Java)
    Let(String, Box<Expr>, Box<Expr>),
    /// `x := e`: assignment to a local variable.
    VarSet(String, Box<Expr>),
    /// `while (e) { e }`: loops while the (precise) condition is nonzero;
    /// evaluates to `0`.
    While(Box<Expr>, Box<Expr>),
    /// `e; e`
    Seq(Box<Expr>, Box<Expr>),
    /// `endorse(e)` — the explicit approximate→precise cast (section 2.2).
    Endorse(Box<Expr>),
}

/// A field declaration `T f;`.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Declared type.
    pub ty: Type,
    /// Field name.
    pub name: String,
    /// Source span.
    pub span: Span,
}

/// The receiver precision a method body is written for (section 2.5.2).
///
/// `Precise` bodies are the default implementation; an `Approx` body is the
/// `_APPROX` overload, invoked when the receiver has approximate type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MethodQual {
    /// The default implementation.
    #[default]
    Precise,
    /// The `_APPROX` overload.
    Approx,
}

impl fmt::Display for MethodQual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodQual::Precise => f.write_str("precise"),
            MethodQual::Approx => f.write_str("approx"),
        }
    }
}

/// A method declaration `T m(T pid, ...) q { e }`.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Return type.
    pub ret: Type,
    /// Method name.
    pub name: String,
    /// Parameters (name, type).
    pub params: Vec<(String, Type)>,
    /// Receiver precision this body is written for.
    pub qual: MethodQual,
    /// The method body expression.
    pub body: Expr,
    /// Source span.
    pub span: Span,
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Superclass name, `None` for `Object`.
    pub superclass: Option<String>,
    /// Field declarations.
    pub fields: Vec<FieldDecl>,
    /// Method declarations.
    pub methods: Vec<MethodDecl>,
    /// Source span.
    pub span: Span,
}

/// A whole program: classes plus a main expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The class declarations.
    pub classes: Vec<ClassDecl>,
    /// The main expression, evaluated to run the program.
    pub main: Expr,
}

impl Expr {
    /// The direct sub-expressions, in evaluation order: a call's receiver
    /// before its arguments, `IndexSet` as array, index, value, and `If` as
    /// condition, then, else.
    ///
    /// This is the one definition of the tree's shape; structural walks
    /// (visiting, erasing, rewriting) go through it, while walks that give
    /// each form its own meaning match on [`ExprKind`] exhaustively.
    pub fn children(&self) -> Vec<&Expr> {
        match &self.kind {
            ExprKind::Null
            | ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::Var(_)
            | ExprKind::This
            | ExprKind::New(_) => vec![],
            ExprKind::NewArray(_, a)
            | ExprKind::Length(a)
            | ExprKind::FieldGet(a, _)
            | ExprKind::Cast(_, a)
            | ExprKind::VarSet(_, a)
            | ExprKind::Endorse(a) => vec![a],
            ExprKind::Index(a, b)
            | ExprKind::FieldSet(a, _, b)
            | ExprKind::Binary(_, a, b)
            | ExprKind::Let(_, a, b)
            | ExprKind::While(a, b)
            | ExprKind::Seq(a, b) => vec![a, b],
            ExprKind::IndexSet(a, b, c) | ExprKind::If(a, b, c) => vec![a, b, c],
            ExprKind::Call(r, _, args) => std::iter::once(&**r).chain(args).collect(),
        }
    }

    /// The direct sub-expressions, mutably, in the order of [`Expr::children`].
    pub fn children_mut(&mut self) -> Vec<&mut Expr> {
        match &mut self.kind {
            ExprKind::Null
            | ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::Var(_)
            | ExprKind::This
            | ExprKind::New(_) => vec![],
            ExprKind::NewArray(_, a)
            | ExprKind::Length(a)
            | ExprKind::FieldGet(a, _)
            | ExprKind::Cast(_, a)
            | ExprKind::VarSet(_, a)
            | ExprKind::Endorse(a) => vec![a],
            ExprKind::Index(a, b)
            | ExprKind::FieldSet(a, _, b)
            | ExprKind::Binary(_, a, b)
            | ExprKind::Let(_, a, b)
            | ExprKind::While(a, b)
            | ExprKind::Seq(a, b) => vec![a, b],
            ExprKind::IndexSet(a, b, c) | ExprKind::If(a, b, c) => vec![a, b, c],
            ExprKind::Call(r, _, args) => std::iter::once(&mut **r).chain(args).collect(),
        }
    }

    /// Applies `f` to this expression and every sub-expression, in pre-order.
    pub fn for_each(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        for child in self.children() {
            child.for_each(f);
        }
    }
}

impl Program {
    /// Every method body in declaration order, then `main`.
    pub fn bodies(&self) -> impl Iterator<Item = &Expr> {
        self.classes
            .iter()
            .flat_map(|c| &c.methods)
            .map(|m| &m.body)
            .chain(std::iter::once(&self.main))
    }

    /// Whether any expression in the program uses `endorse`.
    ///
    /// The non-interference theorem (section 3.3) is stated for
    /// endorsement-free programs.
    pub fn uses_endorse(&self) -> bool {
        let mut found = false;
        for body in self.bodies() {
            body.for_each(&mut |e| found |= matches!(e.kind, ExprKind::Endorse(_)));
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BaseType, Qual};

    fn lit(id: u32, v: i64) -> Expr {
        Expr { id: NodeId(id), span: Span::default(), kind: ExprKind::IntLit(v) }
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::Rem.is_comparison());
    }

    #[test]
    fn uses_endorse_detects_nested() {
        let inner = Expr {
            id: NodeId(2),
            span: Span::default(),
            kind: ExprKind::Endorse(Box::new(lit(1, 5))),
        };
        let prog = Program {
            classes: vec![],
            main: Expr {
                id: NodeId(3),
                span: Span::default(),
                kind: ExprKind::Seq(Box::new(lit(0, 1)), Box::new(inner)),
            },
        };
        assert!(prog.uses_endorse());
        let clean = Program { classes: vec![], main: lit(0, 1) };
        assert!(!clean.uses_endorse());
    }

    #[test]
    fn uses_endorse_looks_into_methods() {
        let m = MethodDecl {
            ret: Type::precise_int(),
            name: "m".into(),
            params: vec![],
            qual: MethodQual::Precise,
            body: Expr {
                id: NodeId(1),
                span: Span::default(),
                kind: ExprKind::Endorse(Box::new(lit(0, 3))),
            },
            span: Span::default(),
        };
        let prog = Program {
            classes: vec![ClassDecl {
                name: "C".into(),
                superclass: None,
                fields: vec![],
                methods: vec![m],
                span: Span::default(),
            }],
            main: lit(2, 0),
        };
        assert!(prog.uses_endorse());
    }

    /// Pins the evaluation order of every multi-child form; shrinking's
    /// `Hoist(id, i)` indexes `children()`, and rewrites go through
    /// `children_mut()`, so both must list the same nodes in the same order.
    #[test]
    fn children_follow_evaluation_order() {
        use crate::parser::parse_expr;
        use crate::pretty::expr_to_display;
        let cases: [(&str, &str, &[&str]); 5] = [
            ("o.m(x, 2, y)", "Call", &["o", "x", "2", "y"]),
            ("a[i] := v", "IndexSet", &["a", "i", "v"]),
            ("if (c) { t } else { f }", "If", &["c", "t", "f"]),
            ("o.g := v", "FieldSet", &["o", "v"]),
            ("let x = v in b", "Let", &["v", "b"]),
        ];
        for (src, form, expected) in cases {
            let mut e = parse_expr(src).unwrap();
            let kind = format!("{:?}", e.kind);
            assert!(kind.starts_with(&format!("{form}(")), "{src} parsed as {kind}");
            let shown: Vec<String> = e.children().into_iter().map(expr_to_display).collect();
            assert_eq!(shown, expected, "children of {src}");
            let ids: Vec<NodeId> = e.children().iter().map(|c| c.id).collect();
            let ids_mut: Vec<NodeId> = e.children_mut().iter().map(|c| c.id).collect();
            assert_eq!(ids, ids_mut, "children_mut of {src}");
        }
    }

    #[test]
    fn type_display_in_new() {
        let t = Type::new(Qual::Approx, BaseType::Class("Pair".into()));
        assert_eq!(t.to_string(), "approx Pair");
    }
}
