//! Recursive-descent parser for FEnerJ.
//!
//! Concrete syntax, with `[...]` optional and `{...}*` repeated:
//!
//! ```text
//! program  := classdecl* "main" "{" expr "}"
//! classdecl:= "class" Cid ["extends" Cid] "{" member* "}"
//! member   := type Ident ";"                                  // field
//!           | type Ident "(" params ")" ["approx"] "{" expr "}" // method
//! type     := [qual] ("int" | "float" | Cid)                  // default precise
//! qual     := "precise" | "approx" | "top" | "context"
//! expr     := assign [";" expr]                               // sequencing
//! assign   := cmp [":=" assign]                               // field write
//! cmp      := add [("=="|"!="|"<"|"<="|">"|">=") add]
//! add      := mul {("+"|"-") mul}*
//! mul      := unary {("*"|"/"|"%") unary}*
//! unary    := "-" unary | postfix
//! postfix  := primary {"." Ident ["(" args ")"]}*
//! primary  := literal | Ident | "this" | "null"
//!           | "new" [qual] Cid "(" ")"
//!           | "endorse" "(" expr ")"
//!           | "let" Ident "=" expr "in" expr
//!           | "if" "(" expr ")" "{" expr "}" "else" "{" expr "}"
//!           | "(" qual Cid ")" unary                          // cast
//!           | "(" expr ")"
//! ```
//!
//! Casts always spell out the qualifier (`(precise C) e`), which keeps the
//! grammar unambiguous without Java's parse-tree backtracking.

use crate::ast::{
    BinOp, ClassDecl, Expr, ExprKind, FieldDecl, MethodDecl, MethodQual, NodeId, Program,
};
use crate::error::{ParseError, Span};
use crate::token::{lex, Spanned, Token};
use crate::types::{BaseType, Qual, Type};

/// Parses FEnerJ source text into a [`Program`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source)?;
    let mut parser = Parser { tokens, pos: 0, next_id: 0 };
    parser.program()
}

/// Parses a single expression (used by tests and the property harness).
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse_expr(source: &str) -> Result<Expr, ParseError> {
    let tokens = lex(source)?;
    let mut parser = Parser { tokens, pos: 0, next_id: 0 };
    let e = parser.expr()?;
    parser.expect(&Token::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    next_id: u32,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].token
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Spanned {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token) -> Result<Span, ParseError> {
        if self.peek() == want {
            Ok(self.bump().span)
        } else {
            Err(ParseError::new(self.span(), format!("expected `{want}`, found `{}`", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek().clone() {
            Token::Ident(name) => {
                let span = self.bump().span;
                Ok((name, span))
            }
            other => {
                Err(ParseError::new(self.span(), format!("expected identifier, found `{other}`")))
            }
        }
    }

    fn node(&mut self, span: Span, kind: ExprKind) -> Expr {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        Expr { id, span, kind }
    }

    // ---- types ----

    fn qual_opt(&mut self) -> Option<Qual> {
        let q = match self.peek() {
            Token::Precise => Qual::Precise,
            Token::Approx => Qual::Approx,
            Token::Top => Qual::Top,
            Token::Context => Qual::Context,
            _ => return None,
        };
        self.bump();
        Some(q)
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let qual = self.qual_opt().unwrap_or(Qual::Precise);
        let base = match self.peek().clone() {
            Token::Int => {
                self.bump();
                BaseType::Int
            }
            Token::Float => {
                self.bump();
                BaseType::Float
            }
            Token::Ident(name) => {
                self.bump();
                BaseType::Class(name)
            }
            other => {
                return Err(ParseError::new(
                    self.span(),
                    format!("expected a type, found `{other}`"),
                ))
            }
        };
        let mut ty = Type::new(qual, base);
        while *self.peek() == Token::LBracket && *self.peek2() == Token::RBracket {
            self.bump();
            self.bump();
            // The element type carries the written qualifier; the array
            // reference itself is precise (lengths and references carry
            // conventional guarantees, section 2.6).
            ty = Type::new(Qual::Precise, BaseType::Array(Box::new(ty)));
        }
        Ok(ty)
    }

    // ---- program structure ----

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut classes = Vec::new();
        while *self.peek() == Token::Class {
            classes.push(self.class_decl()?);
        }
        self.expect(&Token::Main)?;
        self.expect(&Token::LBrace)?;
        let main = self.expr()?;
        self.expect(&Token::RBrace)?;
        self.expect(&Token::Eof)?;
        Ok(Program { classes, main })
    }

    fn class_decl(&mut self) -> Result<ClassDecl, ParseError> {
        let start = self.expect(&Token::Class)?;
        let (name, _) = self.ident()?;
        let superclass = if *self.peek() == Token::Extends {
            self.bump();
            let (sup, _) = self.ident()?;
            Some(sup)
        } else {
            None
        };
        self.expect(&Token::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while *self.peek() != Token::RBrace {
            let member_start = self.span();
            let ty = self.ty()?;
            let (member_name, _) = self.ident()?;
            if *self.peek() == Token::LParen {
                // Method.
                self.bump();
                let mut params = Vec::new();
                if *self.peek() != Token::RParen {
                    loop {
                        let pty = self.ty()?;
                        let (pname, _) = self.ident()?;
                        params.push((pname, pty));
                        if *self.peek() == Token::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Token::RParen)?;
                let qual = if *self.peek() == Token::Approx {
                    self.bump();
                    MethodQual::Approx
                } else {
                    MethodQual::Precise
                };
                self.expect(&Token::LBrace)?;
                let body = self.expr()?;
                let end = self.expect(&Token::RBrace)?;
                methods.push(MethodDecl {
                    ret: ty,
                    name: member_name,
                    params,
                    qual,
                    body,
                    span: member_start.merge(end),
                });
            } else {
                let end = self.expect(&Token::Semi)?;
                fields.push(FieldDecl { ty, name: member_name, span: member_start.merge(end) });
            }
        }
        let end = self.expect(&Token::RBrace)?;
        Ok(ClassDecl { name, superclass, fields, methods, span: start.merge(end) })
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.assign()?;
        if *self.peek() == Token::Semi {
            self.bump();
            let rest = self.expr()?;
            let span = first.span.merge(rest.span);
            Ok(self.node(span, ExprKind::Seq(Box::new(first), Box::new(rest))))
        } else {
            Ok(first)
        }
    }

    fn assign(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.cmp()?;
        if *self.peek() == Token::Assign {
            let at = self.span();
            self.bump();
            let rhs = self.assign()?;
            match lhs.kind {
                ExprKind::FieldGet(recv, field) => {
                    let span = lhs.span.merge(rhs.span);
                    Ok(self.node(span, ExprKind::FieldSet(recv, field, Box::new(rhs))))
                }
                ExprKind::Index(arr, idx) => {
                    let span = lhs.span.merge(rhs.span);
                    Ok(self.node(span, ExprKind::IndexSet(arr, idx, Box::new(rhs))))
                }
                ExprKind::Var(name) => {
                    let span = lhs.span.merge(rhs.span);
                    Ok(self.node(span, ExprKind::VarSet(name, Box::new(rhs))))
                }
                _ => Err(ParseError::new(
                    at,
                    "only variables, fields and array elements can be assigned with `:=`",
                )),
            }
        } else {
            Ok(lhs)
        }
    }

    fn cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add()?;
        let op = match self.peek() {
            Token::EqEq => BinOp::Eq,
            Token::NotEq => BinOp::Ne,
            Token::Lt => BinOp::Lt,
            Token::Le => BinOp::Le,
            Token::Gt => BinOp::Gt,
            Token::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add()?;
        let span = lhs.span.merge(rhs.span);
        Ok(self.node(span, ExprKind::Binary(op, Box::new(lhs), Box::new(rhs))))
    }

    fn add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul()?;
            let span = lhs.span.merge(rhs.span);
            lhs = self.node(span, ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)));
        }
    }

    fn mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Rem,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary()?;
            let span = lhs.span.merge(rhs.span);
            lhs = self.node(span, ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)));
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if *self.peek() == Token::Minus {
            let start = self.span();
            self.bump();
            let operand = self.unary()?;
            let span = start.merge(operand.span);
            // Desugar unary minus to `0 - e` / `0.0 - e` when the operand is
            // a literal; otherwise to integer subtraction from zero.
            let zero = match operand.kind {
                ExprKind::FloatLit(_) => ExprKind::FloatLit(0.0),
                _ => ExprKind::IntLit(0),
            };
            let zero = self.node(start, zero);
            return Ok(
                self.node(span, ExprKind::Binary(BinOp::Sub, Box::new(zero), Box::new(operand)))
            );
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if *self.peek() == Token::LBracket {
                self.bump();
                let index = self.expr()?;
                let end = self.expect(&Token::RBracket)?;
                let span = e.span.merge(end);
                e = self.node(span, ExprKind::Index(Box::new(e), Box::new(index)));
                continue;
            }
            if *self.peek() != Token::Dot {
                break;
            }
            self.bump();
            if *self.peek() == Token::Ident("length".to_owned()) {
                let (_, name_span) = self.ident()?;
                let span = e.span.merge(name_span);
                e = self.node(span, ExprKind::Length(Box::new(e)));
                continue;
            }
            let (name, name_span) = self.ident()?;
            if *self.peek() == Token::LParen {
                self.bump();
                let mut args = Vec::new();
                if *self.peek() != Token::RParen {
                    loop {
                        args.push(self.assign()?);
                        if *self.peek() == Token::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                let end = self.expect(&Token::RParen)?;
                let span = e.span.merge(end);
                e = self.node(span, ExprKind::Call(Box::new(e), name, args));
            } else {
                let span = e.span.merge(name_span);
                e = self.node(span, ExprKind::FieldGet(Box::new(e), name));
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.peek().clone() {
            Token::IntLit(v) => {
                self.bump();
                Ok(self.node(span, ExprKind::IntLit(v)))
            }
            Token::FloatLit(v) => {
                self.bump();
                Ok(self.node(span, ExprKind::FloatLit(v)))
            }
            Token::Null => {
                self.bump();
                Ok(self.node(span, ExprKind::Null))
            }
            Token::This => {
                self.bump();
                Ok(self.node(span, ExprKind::This))
            }
            Token::Ident(name) => {
                self.bump();
                Ok(self.node(span, ExprKind::Var(name)))
            }
            Token::New => {
                self.bump();
                let qual = self.qual_opt().unwrap_or(Qual::Precise);
                let base = match self.peek().clone() {
                    Token::Int => {
                        self.bump();
                        BaseType::Int
                    }
                    Token::Float => {
                        self.bump();
                        BaseType::Float
                    }
                    Token::Ident(name) => {
                        self.bump();
                        BaseType::Class(name)
                    }
                    other => {
                        return Err(ParseError::new(
                            self.span(),
                            format!("expected a type after `new`, found `{other}`"),
                        ))
                    }
                };
                if *self.peek() == Token::LBracket {
                    self.bump();
                    let len = self.expr()?;
                    let end = self.expect(&Token::RBracket)?;
                    let full = span.merge(end);
                    let elem = Type::new(qual, base);
                    return Ok(self.node(full, ExprKind::NewArray(elem, Box::new(len))));
                }
                let BaseType::Class(_) = base else {
                    return Err(ParseError::new(
                        self.span(),
                        "primitive `new` requires an array length in brackets",
                    ));
                };
                self.expect(&Token::LParen)?;
                let end = self.expect(&Token::RParen)?;
                let full = span.merge(end);
                Ok(self.node(full, ExprKind::New(Type::new(qual, base))))
            }
            Token::Endorse => {
                self.bump();
                self.expect(&Token::LParen)?;
                let inner = self.expr()?;
                let end = self.expect(&Token::RParen)?;
                let full = span.merge(end);
                Ok(self.node(full, ExprKind::Endorse(Box::new(inner))))
            }
            Token::Let => {
                self.bump();
                let (name, _) = self.ident()?;
                self.expect(&Token::Eq)?;
                let value = self.assign()?;
                self.expect(&Token::In)?;
                let body = self.expr()?;
                let full = span.merge(body.span);
                Ok(self.node(full, ExprKind::Let(name, Box::new(value), Box::new(body))))
            }
            Token::While => {
                self.bump();
                self.expect(&Token::LParen)?;
                let cond = self.expr()?;
                self.expect(&Token::RParen)?;
                self.expect(&Token::LBrace)?;
                let body = self.expr()?;
                let end = self.expect(&Token::RBrace)?;
                let full = span.merge(end);
                Ok(self.node(full, ExprKind::While(Box::new(cond), Box::new(body))))
            }
            Token::If => {
                self.bump();
                self.expect(&Token::LParen)?;
                let cond = self.expr()?;
                self.expect(&Token::RParen)?;
                self.expect(&Token::LBrace)?;
                let then = self.expr()?;
                self.expect(&Token::RBrace)?;
                self.expect(&Token::Else)?;
                self.expect(&Token::LBrace)?;
                let els = self.expr()?;
                let end = self.expect(&Token::RBrace)?;
                let full = span.merge(end);
                Ok(self.node(full, ExprKind::If(Box::new(cond), Box::new(then), Box::new(els))))
            }
            Token::LParen => {
                // Either a cast `(qual C) e` or a parenthesized expression.
                if matches!(
                    self.peek2(),
                    Token::Precise | Token::Approx | Token::Top | Token::Context
                ) {
                    self.bump(); // (
                    let ty = self.ty()?;
                    self.expect(&Token::RParen)?;
                    let operand = self.unary()?;
                    let full = span.merge(operand.span);
                    Ok(self.node(full, ExprKind::Cast(ty, Box::new(operand))))
                } else {
                    self.bump();
                    let inner = self.expr()?;
                    self.expect(&Token::RParen)?;
                    Ok(inner)
                }
            }
            other => Err(ParseError::new(span, format!("expected an expression, found `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let p = parse("main { 1 + 2 }").unwrap();
        assert!(p.classes.is_empty());
        assert!(matches!(p.main.kind, ExprKind::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary(BinOp::Add, lhs, rhs) => {
                assert!(matches!(lhs.kind, ExprKind::IntLit(1)));
                assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn parses_class_with_fields_and_methods() {
        let src = "
            class Pair extends Object {
                context int x;
                approx int hits;
                int getX() { this.x }
                float mean() approx { 1.0 }
            }
            main { new Pair().getX() }
        ";
        let p = parse(src).unwrap();
        assert_eq!(p.classes.len(), 1);
        let c = &p.classes[0];
        assert_eq!(c.superclass.as_deref(), Some("Object"));
        assert_eq!(c.fields.len(), 2);
        assert_eq!(c.fields[0].ty.qual, Qual::Context);
        assert_eq!(c.fields[1].ty.qual, Qual::Approx);
        assert_eq!(c.methods.len(), 2);
        assert_eq!(c.methods[0].qual, MethodQual::Precise);
        assert_eq!(c.methods[1].qual, MethodQual::Approx);
    }

    #[test]
    fn parses_field_assignment() {
        let e = parse_expr("this.x := 5").unwrap();
        assert!(matches!(e.kind, ExprKind::FieldSet(_, _, _)));
    }

    #[test]
    fn assignment_targets() {
        // Variables, fields and array elements are assignable...
        assert!(matches!(parse_expr("x := 5").unwrap().kind, ExprKind::VarSet(_, _)));
        assert!(matches!(parse_expr("this.f := 5").unwrap().kind, ExprKind::FieldSet(_, _, _)));
        assert!(matches!(parse_expr("a[0] := 5").unwrap().kind, ExprKind::IndexSet(_, _, _)));
        // ...but arbitrary expressions are not.
        assert!(parse_expr("(1 + 2) := 5").is_err());
        assert!(parse_expr("f() := 5").is_err());
    }

    #[test]
    fn parses_let_if_seq_endorse() {
        let e = parse_expr("let x = 3 in if (x < 4) { endorse(x + 1) } else { 0 }; 9").unwrap();
        assert!(matches!(e.kind, ExprKind::Let(_, _, _)));
    }

    #[test]
    fn parses_new_with_qualifier() {
        let e = parse_expr("new approx Pair()").unwrap();
        match e.kind {
            ExprKind::New(ty) => assert_eq!(ty.qual, Qual::Approx),
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn parses_cast_and_parens() {
        let e = parse_expr("(approx Pair) x").unwrap();
        assert!(matches!(e.kind, ExprKind::Cast(_, _)));
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn parses_unary_minus() {
        let e = parse_expr("-5").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Sub, _, _)));
        let e = parse_expr("-5.5").unwrap();
        match e.kind {
            ExprKind::Binary(BinOp::Sub, z, _) => {
                assert!(matches!(z.kind, ExprKind::FloatLit(f) if f == 0.0));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn comparison_is_non_associative() {
        assert!(parse_expr("1 < 2 < 3").is_err());
    }

    #[test]
    fn method_call_args() {
        let e = parse_expr("p.addToBoth(1, x.y)").unwrap();
        match e.kind {
            ExprKind::Call(_, name, args) => {
                assert_eq!(name, "addToBoth");
                assert_eq!(args.len(), 2);
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn node_ids_are_unique() {
        let prog = parse(
            "class Acc extends Object {
                approx int[] xs;
                int total;
                int sum(int n) {
                    let i = 0 in
                    while (i < n) {
                        this.total := this.total + endorse(this.xs[i]);
                        i := i + 1
                    };
                    if (this.total > 0) { this.total } else { 0 - this.xs.length }
                }
            }
            main {
                let a = new Acc() in
                a.xs := new approx int[4];
                a.xs[1] := (approx int) 3;
                a.sum(4)
            }",
        )
        .unwrap();
        let mut ids = Vec::new();
        for body in prog.bodies() {
            body.for_each(&mut |e| ids.push(e.id.0));
        }
        assert!(ids.len() > 40, "walk missed nodes: {}", ids.len());
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn reports_error_position() {
        let err = parse("main { 1 + }").unwrap_err();
        assert!(err.span.start >= 11);
    }
}
