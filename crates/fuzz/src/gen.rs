//! Type-directed generation of well-typed FEnerJ programs.
//!
//! The generator builds programs that typecheck *by construction*: every
//! expression is produced against a target type, and the construction rules
//! mirror the checker's subtyping judgement (`precise <: q` for primitives,
//! `context <: approx`, invariant array elements, class subtyping by
//! hierarchy). On top of well-typedness the generator maintains runtime
//! invariants so that generated programs also *run* without trapping under
//! every execution mode:
//!
//! * every dereferenced receiver is `this`, a parameter, or a local bound
//!   to `new`/`new []` and only ever reassigned non-null values;
//! * integer `/` and `%` always take a nonzero literal right operand
//!   (precise integer division by zero traps; approximate doesn't — but a
//!   *statically precise* operand pair runs precisely even when the target
//!   qualifier is `approx`, so the literal guard is unconditional);
//! * arrays are allocated with literal length `ARRAY_LEN` and indexed
//!   with literals below it;
//! * loops count a frozen local down from a literal, so they terminate;
//! * method calls follow a DAG (a body only calls methods created before
//!   it), so there is no recursion and call depth is bounded.
//!
//! The output is *source text*: the generated AST is printed with
//! [`enerj_lang::pretty`] and handed to the rest of the pipeline as a
//! string, exactly as a user program would arrive. (This also means every
//! generated case exercises the printer; oracle 3 re-checks it explicitly.)

use enerj_lang::ast::{
    BinOp, ClassDecl, Expr, ExprKind, FieldDecl, MethodDecl, MethodQual, NodeId, Program,
};
use enerj_lang::classtable::ClassTable;
use enerj_lang::error::Span;
use enerj_lang::pretty;
use enerj_lang::types::{BaseType, Qual, Type};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every generated array has this literal length; indices are literals in
/// `0..ARRAY_LEN`, so bounds traps are impossible by construction.
const ARRAY_LEN: i64 = 4;

/// Tuning knobs for the generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum number of classes (at least 1 is always generated).
    pub max_classes: usize,
    /// Whether `endorse(e)` may appear. With `false` the generated program
    /// is endorse-free and eligible for the noninterference oracle.
    pub allow_endorse: bool,
    /// Maximum expression nesting depth.
    pub max_depth: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { max_classes: 3, allow_endorse: true, max_depth: 3 }
    }
}

/// Generates the source text of a well-typed FEnerJ program.
///
/// Deterministic in `(seed, cfg)`: the same pair always yields the same
/// source. The result is meant to be fed to `enerj_lang::compile`; the
/// well-typed oracle asserts that this never fails.
pub fn generate_source(seed: u64, cfg: &GenConfig) -> String {
    // Decorrelate from callers that pass small sequential seeds.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let skeleton = gen_skeleton(&mut rng, cfg);
    let table = ClassTable::build(&skeleton.program)
        .expect("generator skeleton must produce a valid class table");

    let mut classes = skeleton.program.classes.clone();
    for m in &skeleton.methods {
        let class_name = classes[m.class_idx].name.clone();
        let decl = &classes[m.class_idx].methods[m.method_idx];
        let this_qual = match (decl.qual, m.has_sibling) {
            (MethodQual::Approx, _) => Qual::Approx,
            (MethodQual::Precise, true) => Qual::Precise,
            (MethodQual::Precise, false) => Qual::Context,
        };
        let ret = decl.ret.clone();
        let params = decl.params.clone();
        let mut bg = BodyGen {
            rng: &mut rng,
            table: &table,
            class_names: &skeleton.class_names,
            methods: &skeleton.methods,
            cfg,
            ctx: Some((class_name, this_qual)),
            rank_budget: m.rank,
            env: params
                .iter()
                .map(|(name, ty)| Binding {
                    name: name.clone(),
                    ty: ty.clone(),
                    nonnull: true,
                    frozen: false,
                })
                .collect(),
            next_var: 0,
            loop_depth: 0,
        };
        let body = bg.gen_body(&ret);
        classes[m.class_idx].methods[m.method_idx].body = body;
    }

    let mut bg = BodyGen {
        rng: &mut rng,
        table: &table,
        class_names: &skeleton.class_names,
        methods: &skeleton.methods,
        cfg,
        ctx: None,
        rank_budget: usize::MAX,
        env: Vec::new(),
        next_var: 0,
        loop_depth: 0,
    };
    let main = bg.gen_main();

    pretty::program_to_string(&Program { classes, main })
}

// ---------------------------------------------------------------------------
// Skeleton: classes, fields and method signatures (bodies filled in later).
// ---------------------------------------------------------------------------

struct MethodMeta {
    class_idx: usize,
    method_idx: usize,
    class: String,
    name: String,
    /// Family index in global creation order; a body may only call methods
    /// whose family (both overloads share the index) ranks strictly below
    /// its own, so the call graph is a DAG and recursion is impossible.
    rank: usize,
    has_sibling: bool,
}

struct Skeleton {
    program: Program,
    class_names: Vec<String>,
    methods: Vec<MethodMeta>,
}

fn e(kind: ExprKind) -> Expr {
    // Ids and spans are irrelevant: the AST is printed to source and
    // reparsed before anything downstream looks at it.
    Expr { id: NodeId(0), span: Span::default(), kind }
}

fn int_lit(v: i64) -> Expr {
    e(ExprKind::IntLit(v))
}

fn gen_skeleton(rng: &mut StdRng, cfg: &GenConfig) -> Skeleton {
    let n_classes = rng.gen_range(1..=cfg.max_classes.max(1));
    let class_names: Vec<String> = (0..n_classes).map(|i| format!("K{i}")).collect();

    let mut field_counter = 0usize;
    let mut classes: Vec<ClassDecl> = Vec::new();
    for i in 0..n_classes {
        let superclass = if i > 0 && rng.gen_bool(0.35) {
            Some(class_names[rng.gen_range(0..i)].clone())
        } else {
            None
        };
        let n_fields = rng.gen_range(2..=5);
        let fields = (0..n_fields)
            .map(|_| {
                let name = format!("f{field_counter}");
                field_counter += 1;
                FieldDecl { ty: gen_field_type(rng, &class_names), name, span: Span::default() }
            })
            .collect();
        classes.push(ClassDecl {
            name: class_names[i].clone(),
            superclass,
            fields,
            methods: Vec::new(),
            span: Span::default(),
        });
    }

    let mut methods = Vec::new();
    let mut family = 0usize;
    for class_idx in 0..n_classes {
        for _ in 0..rng.gen_range(0..=2usize) {
            let name = format!("m{family}");
            let ret =
                gen_prim_type(rng, &[(Qual::Precise, 40), (Qual::Approx, 35), (Qual::Context, 25)]);
            let params: Vec<(String, Type)> = (0..rng.gen_range(0..=2usize))
                .map(|p| {
                    let ty = if rng.gen_bool(0.25) {
                        let q = if rng.gen_bool(0.5) { Qual::Precise } else { Qual::Approx };
                        let c = class_names[rng.gen_range(0..n_classes)].clone();
                        Type::new(q, BaseType::Class(c))
                    } else {
                        gen_prim_type(
                            rng,
                            &[(Qual::Precise, 40), (Qual::Approx, 35), (Qual::Context, 25)],
                        )
                    };
                    (format!("p{family}_{p}"), ty)
                })
                .collect();
            let has_sibling = rng.gen_bool(0.35);
            let placeholder = int_lit(0);
            let quals: &[MethodQual] = if has_sibling {
                &[MethodQual::Precise, MethodQual::Approx]
            } else {
                &[MethodQual::Precise]
            };
            for &qual in quals {
                classes[class_idx].methods.push(MethodDecl {
                    ret: ret.clone(),
                    name: name.clone(),
                    params: params.clone(),
                    qual,
                    body: placeholder.clone(),
                    span: Span::default(),
                });
                methods.push(MethodMeta {
                    class_idx,
                    method_idx: classes[class_idx].methods.len() - 1,
                    class: class_names[class_idx].clone(),
                    name: name.clone(),
                    rank: family,
                    has_sibling,
                });
            }
            family += 1;
        }
    }

    Skeleton { program: Program { classes, main: int_lit(0) }, class_names, methods }
}

fn gen_prim_type(rng: &mut StdRng, quals: &[(Qual, u32)]) -> Type {
    let base = if rng.gen_bool(0.6) { BaseType::Int } else { BaseType::Float };
    Type::new(pick_weighted(rng, quals), base)
}

fn pick_weighted(rng: &mut StdRng, quals: &[(Qual, u32)]) -> Qual {
    let total: u32 = quals.iter().map(|(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for (q, w) in quals {
        if roll < *w {
            return *q;
        }
        roll -= w;
    }
    quals[0].0
}

fn gen_field_type(rng: &mut StdRng, class_names: &[String]) -> Type {
    let roll = rng.gen_range(0..100);
    if roll < 15 {
        // Array field: the written qualifier is the *element* qualifier;
        // the array reference itself is precise (parser `ty()` rule).
        let elem =
            gen_prim_type(rng, &[(Qual::Precise, 40), (Qual::Approx, 40), (Qual::Context, 20)]);
        Type::new(Qual::Precise, BaseType::Array(Box::new(elem)))
    } else if roll < 30 {
        let q = pick_weighted(rng, &[(Qual::Precise, 40), (Qual::Approx, 40), (Qual::Context, 20)]);
        let c = class_names[rng.gen_range(0..class_names.len())].clone();
        Type::new(q, BaseType::Class(c))
    } else {
        gen_prim_type(
            rng,
            &[(Qual::Precise, 30), (Qual::Approx, 35), (Qual::Context, 25), (Qual::Top, 10)],
        )
    }
}

// ---------------------------------------------------------------------------
// Body generation.
// ---------------------------------------------------------------------------

struct Binding {
    name: String,
    ty: Type,
    /// Whether the binding is statically known to hold a non-null value
    /// (and is only ever reassigned non-null values).
    nonnull: bool,
    /// Loop counters are frozen: only their own decrement may assign them.
    frozen: bool,
}

struct BodyGen<'a> {
    rng: &'a mut StdRng,
    table: &'a ClassTable,
    class_names: &'a [String],
    methods: &'a [MethodMeta],
    cfg: &'a GenConfig,
    /// `Some((class, this_qual))` inside a method body, `None` in `main`.
    ctx: Option<(String, Qual)>,
    /// Only method families with rank strictly below this are callable.
    rank_budget: usize,
    env: Vec<Binding>,
    next_var: u32,
    loop_depth: u32,
}

/// The checker's primitive-qualifier subtyping (`precise <: q`,
/// `context <: approx`, plus the base lattice).
fn prim_qual_sub(q1: Qual, q2: Qual) -> bool {
    q1.is_sub(q2) || q1 == Qual::Precise || (q1 == Qual::Context && q2 == Qual::Approx)
}

impl BodyGen<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.next_var;
        self.next_var += 1;
        format!("{prefix}{n}")
    }

    fn gen_main(&mut self) -> Expr {
        // A prefix of object (and maybe array) lets guarantees non-null
        // receivers exist everywhere below.
        let n_objs = self.rng.gen_range(1..=3usize);
        let mut prefix: Vec<(String, Type, Expr)> = Vec::new();
        for _ in 0..n_objs {
            let class = self.class_names[self.rng.gen_range(0..self.class_names.len())].clone();
            let q = if self.rng.gen_bool(0.5) { Qual::Precise } else { Qual::Approx };
            let ty = Type::new(q, BaseType::Class(class));
            prefix.push((self.fresh("o"), ty.clone(), e(ExprKind::New(ty))));
        }
        if self.rng.gen_bool(0.6) {
            let elem = gen_prim_type(self.rng, &[(Qual::Precise, 50), (Qual::Approx, 50)]);
            let ty = Type::new(Qual::Precise, BaseType::Array(Box::new(elem.clone())));
            prefix.push((
                self.fresh("a"),
                ty,
                e(ExprKind::NewArray(elem, Box::new(int_lit(ARRAY_LEN)))),
            ));
        }
        for (name, ty, _) in &prefix {
            self.env.push(Binding {
                name: name.clone(),
                ty: ty.clone(),
                nonnull: true,
                frozen: false,
            });
        }

        let q = if self.rng.gen_bool(0.6) { Qual::Precise } else { Qual::Approx };
        let b = if self.rng.gen_bool(0.6) { BaseType::Int } else { BaseType::Float };
        let mut body = self.gen_prim(q, &b, self.cfg.max_depth);
        for _ in 0..self.rng.gen_range(1..=3usize) {
            let stmt = self.gen_stmt(self.cfg.max_depth.saturating_sub(1));
            body = e(ExprKind::Seq(Box::new(stmt), Box::new(body)));
        }
        for (name, _, value) in prefix.into_iter().rev() {
            body = e(ExprKind::Let(name, Box::new(value), Box::new(body)));
        }
        self.env.clear();
        body
    }

    fn gen_body(&mut self, ret: &Type) -> Expr {
        let mut body = self.gen_prim(ret.qual, &ret.base, self.cfg.max_depth);
        if self.rng.gen_bool(0.6) {
            for _ in 0..self.rng.gen_range(1..=2usize) {
                let stmt = self.gen_stmt(self.cfg.max_depth.saturating_sub(1));
                body = e(ExprKind::Seq(Box::new(stmt), Box::new(body)));
            }
        }
        body
    }

    /// Generates an expression whose static type is a subtype of `(q, b)`.
    ///
    /// For the target `(Precise, b)` the result is *exactly* `precise b`
    /// (the only primitive subtype of precise), which is what exactness
    /// positions — conditions, indices, lengths — rely on.
    fn gen_prim(&mut self, q: Qual, b: &BaseType, d: u32) -> Expr {
        debug_assert!(b.is_prim());
        if d > 0 && self.rng.gen_bool(0.8) {
            match self.rng.gen_range(0..100u32) {
                0..=27 => self.gen_arith(q, b, d),
                28..=39 => {
                    if *b == BaseType::Int {
                        self.gen_compare(q, d)
                    } else {
                        self.gen_arith(q, b, d)
                    }
                }
                40..=50 => {
                    let cond = self.gen_cond(d - 1);
                    let t = self.gen_prim(q, b, d - 1);
                    let f = self.gen_prim(q, b, d - 1);
                    e(ExprKind::If(Box::new(cond), Box::new(t), Box::new(f)))
                }
                51..=63 => self.gen_let_around(q, b, d),
                64..=74 => {
                    let stmt = self.gen_stmt(d - 1);
                    let rest = self.gen_prim(q, b, d - 1);
                    e(ExprKind::Seq(Box::new(stmt), Box::new(rest)))
                }
                75..=84 => {
                    if self.cfg.allow_endorse {
                        let inner = self.gen_prim(Qual::Approx, b, d - 1);
                        e(ExprKind::Endorse(Box::new(inner)))
                    } else {
                        self.gen_arith(q, b, d)
                    }
                }
                _ => match self.try_gen_call(q, b, d) {
                    Some(call) => call,
                    None => self.gen_arith(q, b, d),
                },
            }
        } else {
            self.gen_prim_leaf(q, b)
        }
    }

    fn gen_literal(&mut self, b: &BaseType) -> Expr {
        match b {
            BaseType::Int => int_lit(self.rng.gen_range(0..100)),
            _ => e(ExprKind::FloatLit(self.rng.gen_range(0..400) as f64 / 8.0)),
        }
    }

    /// A leaf of type `<: (q, b)`: a variable, field or element read when
    /// one is available, otherwise a (precise) literal.
    fn gen_prim_leaf(&mut self, q: Qual, b: &BaseType) -> Expr {
        enum Src {
            Var(usize),
            ThisField(String),
            VarField(usize, String),
            Elem(usize),
        }
        let mut sources: Vec<Src> = Vec::new();
        for (i, bind) in self.env.iter().enumerate() {
            match &bind.ty.base {
                bb if bb.is_prim() && bb == b && prim_qual_sub(bind.ty.qual, q) => {
                    sources.push(Src::Var(i));
                }
                BaseType::Class(c) if bind.nonnull => {
                    for (fname, fty) in self.table.all_fields(c) {
                        let at = fty.adapt(bind.ty.qual);
                        if at.base == *b && prim_qual_sub(at.qual, q) {
                            sources.push(Src::VarField(i, fname));
                        }
                    }
                }
                BaseType::Array(elem)
                    if bind.nonnull && elem.base == *b && prim_qual_sub(elem.qual, q) =>
                {
                    sources.push(Src::Elem(i));
                }
                _ => {}
            }
        }
        if let Some((class, this_qual)) = self.ctx.clone() {
            for (fname, fty) in self.table.all_fields(&class) {
                let at = fty.adapt(this_qual);
                if at.base == *b && prim_qual_sub(at.qual, q) {
                    sources.push(Src::ThisField(fname));
                }
            }
        }
        if sources.is_empty() || self.rng.gen_bool(0.3) {
            return self.gen_literal(b);
        }
        let idx = self.rng.gen_range(0..sources.len());
        match &sources[idx] {
            Src::Var(i) => e(ExprKind::Var(self.env[*i].name.clone())),
            Src::ThisField(f) => e(ExprKind::FieldGet(Box::new(e(ExprKind::This)), f.clone())),
            Src::VarField(i, f) => e(ExprKind::FieldGet(
                Box::new(e(ExprKind::Var(self.env[*i].name.clone()))),
                f.clone(),
            )),
            Src::Elem(i) => e(ExprKind::Index(
                Box::new(e(ExprKind::Var(self.env[*i].name.clone()))),
                Box::new(int_lit(self.rng.gen_range(0..ARRAY_LEN))),
            )),
        }
    }

    fn gen_arith(&mut self, q: Qual, b: &BaseType, d: u32) -> Expr {
        let is_int = *b == BaseType::Int;
        let op = match self.rng.gen_range(0..5u32) {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Div,
            _ => BinOp::Rem,
        };
        let lhs = self.gen_prim(q, b, d - 1);
        // Integer `/`/`%` takes a nonzero literal divisor: a statically
        // precise operand pair runs precisely even under an approximate
        // target qualifier, and precise division by zero traps.
        let rhs = if is_int && matches!(op, BinOp::Div | BinOp::Rem) {
            int_lit(self.rng.gen_range(1..10))
        } else {
            self.gen_prim(q, b, d - 1)
        };
        e(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn gen_compare(&mut self, q: Qual, d: u32) -> Expr {
        let op = match self.rng.gen_range(0..6u32) {
            0 => BinOp::Eq,
            1 => BinOp::Ne,
            2 => BinOp::Lt,
            3 => BinOp::Le,
            4 => BinOp::Gt,
            _ => BinOp::Ge,
        };
        let opb = if self.rng.gen_bool(0.7) { BaseType::Int } else { BaseType::Float };
        let lhs = self.gen_prim(q, &opb, d - 1);
        let rhs = self.gen_prim(q, &opb, d - 1);
        e(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    /// An exactly-`precise int` condition, biased toward comparisons.
    fn gen_cond(&mut self, d: u32) -> Expr {
        if d > 0 && self.rng.gen_bool(0.7) {
            self.gen_compare(Qual::Precise, d)
        } else {
            self.gen_prim(Qual::Precise, &BaseType::Int, d)
        }
    }

    fn gen_let_around(&mut self, q: Qual, b: &BaseType, d: u32) -> Expr {
        let (name, ty, value, nonnull) = self.gen_binding(d - 1);
        self.env.push(Binding { name: name.clone(), ty, nonnull, frozen: false });
        let body = self.gen_prim(q, b, d - 1);
        self.env.pop();
        e(ExprKind::Let(name, Box::new(value), Box::new(body)))
    }

    /// A fresh local binding: (name, declared type, initializer, nonnull).
    fn gen_binding(&mut self, d: u32) -> (String, Type, Expr, bool) {
        let name = self.fresh("x");
        let roll = self.rng.gen_range(0..100u32);
        if roll < 50 {
            let mut quals = vec![(Qual::Precise, 40), (Qual::Approx, 40)];
            if self.ctx.is_some() {
                quals.push((Qual::Context, 20));
            }
            let ty = gen_prim_type(self.rng, &quals);
            let value = self.gen_prim(ty.qual, &ty.base, d);
            // The declared type is the target the initializer was generated
            // against; its actual type may be a strict subtype, which is
            // exactly what `let` permits.
            (name, ty, value, false)
        } else if roll < 80 {
            let q = if self.rng.gen_bool(0.5) { Qual::Precise } else { Qual::Approx };
            let class = self.class_names[self.rng.gen_range(0..self.class_names.len())].clone();
            let ty = Type::new(q, BaseType::Class(class.clone()));
            let value = self.gen_class_expr(q, &class, true, d);
            (name, ty, value, true)
        } else {
            let mut equals = vec![(Qual::Precise, 40), (Qual::Approx, 40)];
            if self.ctx.is_some() {
                equals.push((Qual::Context, 20));
            }
            let elem = gen_prim_type(self.rng, &equals);
            let ty = Type::new(Qual::Precise, BaseType::Array(Box::new(elem.clone())));
            let value = e(ExprKind::NewArray(elem, Box::new(int_lit(ARRAY_LEN))));
            (name, ty, value, true)
        }
    }

    /// An expression of class type `q class` (exact qualifier, possibly a
    /// subclass). With `nonnull`, the value is statically non-null.
    fn gen_class_expr(&mut self, q: Qual, class: &str, nonnull: bool, d: u32) -> Expr {
        if !nonnull && self.rng.gen_bool(0.2) {
            return e(ExprKind::Null);
        }
        enum Src {
            Var(usize),
            This,
        }
        let mut sources: Vec<Src> = Vec::new();
        for (i, bind) in self.env.iter().enumerate() {
            if let BaseType::Class(c) = &bind.ty.base {
                if bind.ty.qual == q
                    && self.table.is_subclass(c, class)
                    && (!nonnull || bind.nonnull)
                {
                    sources.push(Src::Var(i));
                }
            }
        }
        if let Some((c, tq)) = &self.ctx {
            if *tq == q && self.table.is_subclass(c, class) {
                sources.push(Src::This);
            }
        }
        if !sources.is_empty() && self.rng.gen_bool(0.5) {
            let idx = self.rng.gen_range(0..sources.len());
            return match sources[idx] {
                Src::Var(i) => e(ExprKind::Var(self.env[i].name.clone())),
                Src::This => e(ExprKind::This),
            };
        }
        // An upcast through a strict subclass, occasionally.
        let subclasses: Vec<&String> = self
            .class_names
            .iter()
            .filter(|c| c.as_str() != class && self.table.is_subclass(c, class))
            .collect();
        if d > 0 && !subclasses.is_empty() && self.rng.gen_bool(0.3) {
            let sub = subclasses[self.rng.gen_range(0..subclasses.len())].clone();
            let inner = self.gen_class_expr(q, &sub, nonnull, d - 1);
            return e(ExprKind::Cast(
                Type::new(q, BaseType::Class(class.to_owned())),
                Box::new(inner),
            ));
        }
        let target = if subclasses.is_empty() || self.rng.gen_bool(0.7) {
            class.to_owned()
        } else {
            subclasses[self.rng.gen_range(0..subclasses.len())].clone()
        };
        e(ExprKind::New(Type::new(q, BaseType::Class(target))))
    }

    fn try_gen_call(&mut self, q: Qual, b: &BaseType, d: u32) -> Option<Expr> {
        let mut order: Vec<usize> = (0..self.methods.len()).collect();
        for i in (1..order.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for mi in order {
            let m = &self.methods[mi];
            if m.rank >= self.rank_budget {
                continue;
            }
            let class = m.class.clone();
            let name = m.name.clone();
            // Receiver: `this`, a matching non-null local, or a fresh `new`.
            let (recv, rq, recv_class): (Expr, Qual, String) = {
                let mut opts: Vec<(Expr, Qual, String)> = Vec::new();
                if let Some((c, tq)) = &self.ctx {
                    if self.table.is_subclass(c, &class) {
                        opts.push((e(ExprKind::This), *tq, c.clone()));
                    }
                }
                for bind in &self.env {
                    if let BaseType::Class(c) = &bind.ty.base {
                        if bind.nonnull && self.table.is_subclass(c, &class) {
                            opts.push((
                                e(ExprKind::Var(bind.name.clone())),
                                bind.ty.qual,
                                c.clone(),
                            ));
                        }
                    }
                }
                if opts.is_empty() || self.rng.gen_bool(0.4) {
                    let rq = if self.rng.gen_bool(0.5) { Qual::Precise } else { Qual::Approx };
                    let ty = Type::new(rq, BaseType::Class(class.clone()));
                    (e(ExprKind::New(ty)), rq, class.clone())
                } else {
                    let idx = self.rng.gen_range(0..opts.len());
                    opts.swap_remove(idx)
                }
            };
            let Some(sig) = self.table.msig(rq, &recv_class, &name) else { continue };
            if sig.ret.base != *b
                || !prim_qual_sub(sig.ret.qual, q)
                || sig.ret.has_lost()
                || sig.params.iter().any(Type::has_lost)
            {
                continue;
            }
            let args: Vec<Expr> = sig
                .params
                .iter()
                .map(|pt| match &pt.base {
                    BaseType::Class(c) => self.gen_class_expr(pt.qual, c, true, d - 1),
                    _ => self.gen_prim(pt.qual, &pt.base, d - 1),
                })
                .collect();
            return Some(e(ExprKind::Call(Box::new(recv), name, args)));
        }
        None
    }

    /// A side-effecting statement expression (its value is discarded).
    fn gen_stmt(&mut self, d: u32) -> Expr {
        enum Stmt {
            FieldSetThis(String),
            FieldSetVar(usize, String),
            VarSet(usize),
            IndexSet(usize),
            Loop,
        }
        let mut opts: Vec<Stmt> = Vec::new();
        if let Some((class, this_qual)) = self.ctx.clone() {
            for (fname, fty) in self.table.all_fields(&class) {
                if !fty.adapt(this_qual).has_lost() {
                    opts.push(Stmt::FieldSetThis(fname));
                }
            }
        }
        for (i, bind) in self.env.iter().enumerate() {
            match &bind.ty.base {
                BaseType::Class(c) if bind.nonnull => {
                    for (fname, fty) in self.table.all_fields(c) {
                        if !fty.adapt(bind.ty.qual).has_lost() {
                            opts.push(Stmt::FieldSetVar(i, fname));
                        }
                    }
                }
                BaseType::Array(_) if bind.nonnull => opts.push(Stmt::IndexSet(i)),
                bb if bb.is_prim() && !bind.frozen => opts.push(Stmt::VarSet(i)),
                BaseType::Class(_) if !bind.frozen => opts.push(Stmt::VarSet(i)),
                _ => {}
            }
        }
        if self.loop_depth == 0 && d > 0 {
            opts.push(Stmt::Loop);
            opts.push(Stmt::Loop);
        }
        if opts.is_empty() {
            return self.gen_prim(Qual::Approx, &BaseType::Int, d.min(1));
        }
        let choice = self.rng.gen_range(0..opts.len());
        match &opts[choice] {
            Stmt::FieldSetThis(fname) => {
                let (class, this_qual) = self.ctx.clone().expect("ctx present");
                let fty =
                    self.table.ftype(this_qual, &class, fname).expect("field listed by all_fields");
                let value = self.gen_sink_value(&fty, d);
                e(ExprKind::FieldSet(Box::new(e(ExprKind::This)), fname.clone(), Box::new(value)))
            }
            Stmt::FieldSetVar(i, fname) => {
                let (vname, vqual, vclass) = {
                    let bind = &self.env[*i];
                    let BaseType::Class(c) = &bind.ty.base else { unreachable!() };
                    (bind.name.clone(), bind.ty.qual, c.clone())
                };
                let fty =
                    self.table.ftype(vqual, &vclass, fname).expect("field listed by all_fields");
                let value = self.gen_sink_value(&fty, d);
                e(ExprKind::FieldSet(
                    Box::new(e(ExprKind::Var(vname))),
                    fname.clone(),
                    Box::new(value),
                ))
            }
            Stmt::VarSet(i) => {
                let (name, ty) = {
                    let bind = &self.env[*i];
                    (bind.name.clone(), bind.ty.clone())
                };
                let value = match &ty.base {
                    // Keep the nonnull invariant: locals are only ever
                    // reassigned non-null object values.
                    BaseType::Class(c) => self.gen_class_expr(ty.qual, &c.clone(), true, d),
                    _ => self.gen_prim(ty.qual, &ty.base, d),
                };
                e(ExprKind::VarSet(name, Box::new(value)))
            }
            Stmt::IndexSet(i) => {
                let (name, elem) = {
                    let bind = &self.env[*i];
                    let BaseType::Array(elem) = &bind.ty.base else { unreachable!() };
                    (bind.name.clone(), (**elem).clone())
                };
                let value = self.gen_prim(elem.qual, &elem.base, d);
                e(ExprKind::IndexSet(
                    Box::new(e(ExprKind::Var(name))),
                    Box::new(int_lit(self.rng.gen_range(0..ARRAY_LEN))),
                    Box::new(value),
                ))
            }
            Stmt::Loop => self.gen_loop(d),
        }
    }

    /// `let i = N in while (0 < i) { stmt; i := i - 1 }` — terminates by
    /// construction; the counter is frozen against other assignments.
    fn gen_loop(&mut self, d: u32) -> Expr {
        let counter = self.fresh("i");
        let iters = self.rng.gen_range(1..=3);
        self.env.push(Binding {
            name: counter.clone(),
            ty: Type::precise_int(),
            nonnull: false,
            frozen: true,
        });
        self.loop_depth += 1;
        let mut body = e(ExprKind::VarSet(
            counter.clone(),
            Box::new(e(ExprKind::Binary(
                BinOp::Sub,
                Box::new(e(ExprKind::Var(counter.clone()))),
                Box::new(int_lit(1)),
            ))),
        ));
        for _ in 0..self.rng.gen_range(1..=2usize) {
            let stmt = self.gen_stmt(d.saturating_sub(1));
            body = e(ExprKind::Seq(Box::new(stmt), Box::new(body)));
        }
        self.loop_depth -= 1;
        self.env.pop();
        let cond = e(ExprKind::Binary(
            BinOp::Lt,
            Box::new(int_lit(0)),
            Box::new(e(ExprKind::Var(counter.clone()))),
        ));
        e(ExprKind::Let(
            counter,
            Box::new(int_lit(iters)),
            Box::new(e(ExprKind::While(Box::new(cond), Box::new(body)))),
        ))
    }

    /// A value assignable to a sink of (adapted) type `ty`.
    fn gen_sink_value(&mut self, ty: &Type, d: u32) -> Expr {
        match &ty.base {
            BaseType::Class(c) => self.gen_class_expr(ty.qual, &c.clone(), false, d),
            BaseType::Array(elem) => {
                e(ExprKind::NewArray((**elem).clone(), Box::new(int_lit(ARRAY_LEN))))
            }
            _ => {
                // `top` sinks accept anything below top; pick a concrete side.
                let q = if ty.qual == Qual::Top {
                    if self.rng.gen_bool(0.5) {
                        Qual::Precise
                    } else {
                        Qual::Approx
                    }
                } else {
                    ty.qual
                };
                self.gen_prim(q, &ty.base, d)
            }
        }
    }
}
