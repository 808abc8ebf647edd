//! The big-step interpreter for FEnerJ (section 3.2).
//!
//! Three execution modes instantiate the paper's operational semantics:
//!
//! * [`ExecMode::Reliable`] — the standard semantics: every operation is
//!   exact. This is the reference against which quality of service is
//!   measured.
//! * [`ExecMode::Faulty`] — the approximating semantics: operations and
//!   storage whose static types are approximate run on the simulated
//!   hardware of [`enerj-hw`](enerj_hw), suffering mantissa truncation,
//!   timing errors, and storage bit flips, and being charged as approximate
//!   in the statistics. Heap faults are injected at access granularity with
//!   the SRAM probabilities (the FEnerJ heap has no per-field decay clocks;
//!   this is a simplification relative to the embedded API's `ApproxVec`).
//! * [`ExecMode::Chaos`] — the adversarial semantics used to *test*
//!   non-interference: it implements the paper's rule that "any approximate
//!   value may be replaced by any other value of the same type" by replacing
//!   every approximately-typed primitive result with a uniformly random
//!   value. If the program is endorsement-free, its precise results must be
//!   unaffected (theorem, section 3.3).
//!
//! The three share one evaluator. They differ only in a private machine,
//! built once per run, that the evaluator consults at four points: an
//! approximate storage access, an approximate operation's operands (FP
//! mantissa conditioning) and result, and a precise operation (which the
//! hardware counts). Every primitive operation computes its exact result
//! once, by FEnerJ's rules, before the machine sees it.
//!
//! Division: a *precise* integer division by zero is a runtime error, as in
//! Java; *approximate* divisions never trap — integer division by zero
//! yields 0 and floating-point division by zero yields NaN (section 5.2).
//! A float `+`, `-`, `*` or `/` whose result is a NaN carries its first NaN
//! operand's payload, quieted ([`first_nan_f64`]), so no output bit depends
//! on how the compiler orders a commutative operation's operands.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ast::{BinOp, Expr, ExprKind};
use crate::error::EvalError;
use crate::typecheck::TypedProgram;
use crate::types::{BaseType, Qual, Type};
use enerj_hw::fpu::first_nan_f64;
use enerj_hw::stats::OpKind;
use enerj_hw::Hardware;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// The null reference.
    Null,
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A heap reference.
    Ref(usize),
}

impl Value {
    /// Bit-exact equality: floats compare by their bits (so a `NaN` equals
    /// itself and `0.0` differs from `-0.0`), everything else by `==`.
    pub(crate) fn bit_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => self == other,
        }
    }

    /// Renders the value for output.
    pub fn describe(&self) -> String {
        match self {
            Value::Null => "null".to_owned(),
            Value::Int(v) => v.to_string(),
            Value::Float(v) => v.to_string(),
            Value::Ref(a) => format!("<object@{a}>"),
        }
    }

    /// A primitive's 64 bits; `None` for a reference or null.
    fn bits(self) -> Option<u64> {
        match self {
            Value::Int(v) => Some(v as u64),
            Value::Float(v) => Some(v.to_bits()),
            _ => None,
        }
    }

    /// A primitive of this value's type holding `bits`.
    fn with_bits(self, bits: u64) -> Value {
        match self {
            Value::Int(_) => Value::Int(bits as i64),
            Value::Float(_) => Value::Float(f64::from_bits(bits)),
            other => other,
        }
    }

    /// A numeric operand widened to float (binary numeric promotion).
    fn widen(self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }
}

/// The runtime precision of an object instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtQual {
    /// A precise instance.
    Precise,
    /// An approximate instance.
    Approx,
}

/// A heap object: its class, its instance qualifier and its fields.
#[derive(Debug, Clone)]
pub struct Object {
    /// The runtime class.
    pub class: String,
    /// The instance qualifier fixed at allocation.
    pub qual: RtQual,
    /// Field values.
    pub fields: HashMap<String, Value>,
}

/// A heap array (section 2.6): elements of one precision, precise length.
#[derive(Debug, Clone)]
pub struct ArrayObj {
    /// Whether the elements are approximate (resolved at allocation).
    pub elem_approx: bool,
    /// The element values.
    pub values: Vec<Value>,
}

/// An entry in the simulated heap.
#[derive(Debug, Clone)]
pub enum HeapEntry {
    /// An object instance.
    Object(Object),
    /// An array.
    Array(ArrayObj),
}

/// How to execute approximate operations and storage.
#[derive(Clone)]
pub enum ExecMode {
    /// Exact execution (the reference semantics).
    Reliable,
    /// Fault injection through simulated hardware.
    Faulty(Rc<RefCell<Hardware>>),
    /// Adversarial randomization of every approximate value (section 3.3).
    Chaos {
        /// Seed for the adversary's random choices.
        seed: u64,
    },
}

/// Default evaluation step budget.
pub const DEFAULT_FUEL: u64 = 10_000_000;

/// Maximum FEnerJ method-call depth (bounds the native stack).
const MAX_CALL_DEPTH: u32 = 128;

/// The interpreter state.
struct Interp<'p> {
    program: &'p TypedProgram,
    machine: Machine,
    heap: Vec<HeapEntry>,
    fuel: u64,
    depth: u32,
}

/// What an [`ExecMode`] changes: where approximate storage and approximate
/// operations go, and whether precise operations are counted.
enum Machine {
    /// The reference semantics: every hook is the identity.
    Exact,
    /// The simulated hardware.
    Hw(Rc<RefCell<Hardware>>),
    /// The adversary and its random choices.
    Chaos(StdRng),
}

impl Machine {
    /// A primitive passing through approximate storage: an SRAM access, or
    /// the adversary's replacement.
    fn storage(&mut self, value: Value, write: bool) -> Value {
        let Some(bits) = value.bits() else { return value };
        value.with_bits(match self {
            Machine::Exact => bits,
            Machine::Hw(hw) if write => hw.borrow_mut().sram_write(bits, 64, true),
            Machine::Hw(hw) => hw.borrow_mut().sram_read(bits, 64, true),
            Machine::Chaos(rng) => rng.gen(),
        })
    }

    /// The result phase of an approximate operation whose exact result is
    /// `raw` (0 or 1 for a `comparison`). The adversary draws one bit for
    /// an FP comparison and a whole word otherwise.
    fn result(&mut self, raw: Value, kind: OpKind, comparison: bool) -> Value {
        match self {
            Machine::Exact => raw,
            Machine::Hw(hw) => {
                let mut hw = hw.borrow_mut();
                match raw {
                    _ if comparison => {
                        Value::Int(i64::from(hw.approx_cmp_result(raw != Value::Int(0), kind)))
                    }
                    Value::Int(v) => Value::Int(hw.approx_int_result(v as u64, 64) as i64),
                    Value::Float(v) => Value::Float(hw.approx_f64_result(v)),
                    other => other,
                }
            }
            Machine::Chaos(rng) if comparison && kind == OpKind::Fp => {
                Value::Int(i64::from(rng.gen_bool(0.5)))
            }
            Machine::Chaos(rng) => raw.with_bits(rng.gen()),
        }
    }

    /// Conditions an approximate FP operand (mantissa width reduction).
    fn operand(&self, x: f64) -> f64 {
        match self {
            Machine::Hw(hw) => hw.borrow().approx_f64_operand(x),
            _ => x,
        }
    }

    /// Records one precise operation.
    fn precise(&mut self, kind: OpKind) {
        if let Machine::Hw(hw) = self {
            hw.borrow_mut().precise_op(kind);
        }
    }
}

/// The result of running a program: the main expression's value plus the
/// final heap (for whole-state inspection in tests).
#[derive(Debug)]
pub struct RunOutcome {
    /// Value of the main expression.
    pub value: Value,
    /// The heap at the end of execution.
    pub heap: Vec<HeapEntry>,
}

/// Evaluates a checked program's main expression.
///
/// # Errors
///
/// Returns an [`EvalError`] for null dereferences, precise division by
/// zero, failed casts, or fuel exhaustion.
pub fn run(program: &TypedProgram, mode: ExecMode) -> Result<RunOutcome, EvalError> {
    run_with_fuel(program, mode, DEFAULT_FUEL)
}

/// Like [`run`] with an explicit step budget.
///
/// # Errors
///
/// As [`run`]; additionally [`EvalError::OutOfFuel`] if the budget is
/// exhausted.
pub fn run_with_fuel(
    program: &TypedProgram,
    mode: ExecMode,
    fuel: u64,
) -> Result<RunOutcome, EvalError> {
    let machine = match mode {
        ExecMode::Reliable => Machine::Exact,
        ExecMode::Faulty(hw) => Machine::Hw(hw),
        ExecMode::Chaos { seed } => Machine::Chaos(StdRng::seed_from_u64(seed)),
    };
    let mut interp = Interp { program, machine, heap: Vec::new(), fuel, depth: 0 };
    let mut env = Env { vars: Vec::new(), this: None };
    let value = interp.eval(&program.program.main, &mut env)?;
    Ok(RunOutcome { value, heap: interp.heap })
}

struct Env {
    vars: Vec<(String, Value)>,
    this: Option<usize>,
}

impl Env {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.vars.iter().rev().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

impl<'p> Interp<'p> {
    fn charge(&mut self) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Resolves a possibly-`context` qualifier against the runtime qualifier
    /// of the object at `recv`.
    fn resolve_qual(&self, qual: Qual, recv: Option<usize>) -> RtQual {
        match qual {
            Qual::Approx => RtQual::Approx,
            Qual::Context => match recv.map(|a| match &self.heap[a] {
                HeapEntry::Object(o) => o.qual,
                HeapEntry::Array(_) => RtQual::Precise,
            }) {
                Some(q) => q,
                None => RtQual::Precise,
            },
            // `top`/`lost` receivers execute conservatively precisely.
            _ => RtQual::Precise,
        }
    }

    fn addr(&self, value: Value, span: crate::error::Span) -> Result<usize, EvalError> {
        match value {
            Value::Ref(a) => Ok(a),
            Value::Null => Err(EvalError::NullDereference(span)),
            other => {
                Err(EvalError::Internal(format!("expected a reference, got {}", other.describe())))
            }
        }
    }

    fn object(&self, value: Value, span: crate::error::Span) -> Result<usize, EvalError> {
        let a = self.addr(value, span)?;
        match &self.heap[a] {
            HeapEntry::Object(_) => Ok(a),
            HeapEntry::Array(_) => {
                Err(EvalError::Internal("expected an object, found an array".into()))
            }
        }
    }

    fn obj(&self, a: usize) -> &Object {
        match &self.heap[a] {
            HeapEntry::Object(o) => o,
            HeapEntry::Array(_) => unreachable!("checked by `object`"),
        }
    }

    fn obj_mut(&mut self, a: usize) -> &mut Object {
        match &mut self.heap[a] {
            HeapEntry::Object(o) => o,
            HeapEntry::Array(_) => unreachable!("checked by `object`"),
        }
    }

    fn eval(&mut self, e: &Expr, env: &mut Env) -> Result<Value, EvalError> {
        self.charge()?;
        match &e.kind {
            ExprKind::Null => Ok(Value::Null),
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Float(*v)),
            ExprKind::Var(name) => env
                .lookup(name)
                .ok_or_else(|| EvalError::Internal(format!("unbound variable `{name}`"))),
            ExprKind::This => match env.this {
                Some(addr) => Ok(Value::Ref(addr)),
                None => Err(EvalError::Internal("`this` outside a method".into())),
            },
            ExprKind::New(ty) => {
                let BaseType::Class(class) = &ty.base else {
                    return Err(EvalError::Internal("new on non-class".into()));
                };
                let qual = self.resolve_qual(ty.qual, env.this);
                let fields = self
                    .program
                    .table
                    .all_fields(class)
                    .into_iter()
                    .map(|(name, ty)| (name, default_value(&ty)))
                    .collect();
                let addr = self.heap.len();
                self.heap.push(HeapEntry::Object(Object { class: class.clone(), qual, fields }));
                Ok(Value::Ref(addr))
            }
            ExprKind::NewArray(elem, len) => {
                let lv = self.eval(len, env)?;
                let Value::Int(n) = lv else {
                    return Err(EvalError::Internal("non-integer array length".into()));
                };
                if n < 0 {
                    return Err(EvalError::BadArrayLength(e.span, n));
                }
                let elem_approx = self.resolve_qual(elem.qual, env.this) == RtQual::Approx;
                let default = default_value(elem);
                let addr = self.heap.len();
                self.heap.push(HeapEntry::Array(ArrayObj {
                    elem_approx,
                    values: vec![default; n as usize],
                }));
                Ok(Value::Ref(addr))
            }
            ExprKind::Index(arr, idx) => {
                let (addr, i) = self.array_access(arr, idx, env)?;
                let HeapEntry::Array(a) = &self.heap[addr] else { unreachable!() };
                let value = a.values[i];
                if a.elem_approx {
                    Ok(self.machine.storage(value, false))
                } else {
                    Ok(value)
                }
            }
            ExprKind::IndexSet(arr, idx, value) => {
                let (addr, i) = self.array_access(arr, idx, env)?;
                let mut v = self.eval(value, env)?;
                let HeapEntry::Array(a) = &self.heap[addr] else { unreachable!() };
                if a.elem_approx {
                    v = self.machine.storage(v, true);
                }
                let HeapEntry::Array(a) = &mut self.heap[addr] else { unreachable!() };
                a.values[i] = v;
                Ok(v)
            }
            ExprKind::Length(arr) => {
                let av = self.eval(arr, env)?;
                let addr = self.addr(av, arr.span)?;
                match &self.heap[addr] {
                    HeapEntry::Array(a) => Ok(Value::Int(a.values.len() as i64)),
                    HeapEntry::Object(_) => {
                        Err(EvalError::Internal("length of a non-array".into()))
                    }
                }
            }
            ExprKind::FieldGet(recv, field) => {
                let rv = self.eval(recv, env)?;
                let addr = self.object(rv, recv.span)?;
                let value = *self
                    .obj(addr)
                    .fields
                    .get(field)
                    .ok_or_else(|| EvalError::Internal(format!("missing field `{field}`")))?;
                let fq = self.program.field_qual.get(&e.id).copied().unwrap_or(Qual::Precise);
                if self.resolve_qual(fq, Some(addr)) == RtQual::Approx {
                    Ok(self.machine.storage(value, false))
                } else {
                    Ok(value)
                }
            }
            ExprKind::FieldSet(recv, field, value) => {
                let rv = self.eval(recv, env)?;
                let addr = self.object(rv, recv.span)?;
                let mut v = self.eval(value, env)?;
                let fq = self.program.field_qual.get(&e.id).copied().unwrap_or(Qual::Precise);
                if self.resolve_qual(fq, Some(addr)) == RtQual::Approx {
                    v = self.machine.storage(v, true);
                }
                self.obj_mut(addr).fields.insert(field.clone(), v);
                Ok(v)
            }
            ExprKind::Call(recv, name, args) => {
                let rv = self.eval(recv, env)?;
                let addr = self.object(rv, recv.span)?;
                let mut arg_values = Vec::with_capacity(args.len());
                for arg in args {
                    arg_values.push(self.eval(arg, env)?);
                }
                // Overload selection (section 2.5.2): the static receiver
                // qualifier decides between the precise and approx bodies;
                // `context` resolves to the instance's runtime qualifier.
                let static_q =
                    self.program.call_recv_qual.get(&e.id).copied().unwrap_or(Qual::Precise);
                let dispatch_q = match self.resolve_qual(static_q, Some(addr)) {
                    RtQual::Approx => Qual::Approx,
                    RtQual::Precise => Qual::Precise,
                };
                let class = self.obj(addr).class.clone();
                let (_, decl) = self
                    .program
                    .table
                    .select_method(dispatch_q, &class, name)
                    .ok_or_else(|| EvalError::Internal(format!("missing method `{name}`")))?;
                let decl = decl.clone();
                if self.depth >= MAX_CALL_DEPTH {
                    return Err(EvalError::OutOfFuel);
                }
                self.depth += 1;
                let mut callee = Env {
                    vars: decl.params.iter().map(|(n, _)| n.clone()).zip(arg_values).collect(),
                    this: Some(addr),
                };
                let out = self.eval(&decl.body, &mut callee);
                self.depth -= 1;
                out
            }
            ExprKind::Cast(target, operand) => {
                let v = self.eval(operand, env)?;
                if let Value::Ref(addr) = v {
                    let BaseType::Class(tc) = &target.base else {
                        return Err(EvalError::Internal("cast to non-class".into()));
                    };
                    let addr = self.object(Value::Ref(addr), operand.span)?;
                    if !self.program.table.is_subclass(&self.obj(addr).class, tc) {
                        return Err(EvalError::CastFailed(e.span, tc.clone()));
                    }
                }
                Ok(v)
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let lv = self.eval(lhs, env)?;
                let rv = self.eval(rhs, env)?;
                let prec = self.program.op_prec.get(&e.id).copied().unwrap_or(Qual::Precise);
                let approx = self.resolve_qual(prec, env.this) == RtQual::Approx;
                self.binop(*op, lv, rv, approx, e.span)
            }
            ExprKind::If(cond, then, els) => {
                let cv = self.eval(cond, env)?;
                let Value::Int(c) = cv else {
                    return Err(EvalError::Internal("non-integer condition".into()));
                };
                if c != 0 {
                    self.eval(then, env)
                } else {
                    self.eval(els, env)
                }
            }
            ExprKind::Let(name, value, body) => {
                let v = self.eval(value, env)?;
                env.vars.push((name.clone(), v));
                let out = self.eval(body, env);
                env.vars.pop();
                out
            }
            ExprKind::VarSet(name, value) => {
                let v = self.eval(value, env)?;
                let slot = env
                    .vars
                    .iter_mut()
                    .rev()
                    .find(|(n, _)| n == name)
                    .map(|(_, slot)| slot)
                    .ok_or_else(|| EvalError::Internal(format!("unbound variable `{name}`")))?;
                *slot = v;
                Ok(v)
            }
            ExprKind::While(cond, body) => {
                loop {
                    let cv = self.eval(cond, env)?;
                    let Value::Int(c) = cv else {
                        return Err(EvalError::Internal("non-integer loop condition".into()));
                    };
                    if c == 0 {
                        break;
                    }
                    self.eval(body, env)?;
                }
                Ok(Value::Int(0))
            }
            ExprKind::Seq(first, rest) => {
                self.eval(first, env)?;
                self.eval(rest, env)
            }
            ExprKind::Endorse(inner) => self.eval(inner, env),
        }
    }

    /// Evaluates an array receiver and a (precise) index, with the
    /// always-on bounds check of section 2.6.
    fn array_access(
        &mut self,
        arr: &Expr,
        idx: &Expr,
        env: &mut Env,
    ) -> Result<(usize, usize), EvalError> {
        let av = self.eval(arr, env)?;
        let addr = self.addr(av, arr.span)?;
        let iv = self.eval(idx, env)?;
        let Value::Int(i) = iv else {
            return Err(EvalError::Internal("non-integer index".into()));
        };
        let len = match &self.heap[addr] {
            HeapEntry::Array(a) => a.values.len(),
            HeapEntry::Object(_) => return Err(EvalError::Internal("indexing a non-array".into())),
        };
        if i < 0 || i as usize >= len {
            return Err(EvalError::IndexOutOfBounds(idx.span, i, len));
        }
        Ok((addr, i as usize))
    }

    fn binop(
        &mut self,
        op: BinOp,
        lv: Value,
        rv: Value,
        approx: bool,
        span: crate::error::Span,
    ) -> Result<Value, EvalError> {
        let (raw, kind) = match (lv, rv) {
            (Value::Int(a), Value::Int(b)) => (int_arith(op, a, b, approx, span)?, OpKind::Int),
            _ => {
                let (Some(a), Some(b)) = (lv.widen(), rv.widen()) else {
                    return Err(EvalError::Internal("operand type confusion".into()));
                };
                let [a, b] = [a, b].map(|x| if approx { self.machine.operand(x) } else { x });
                (float_arith(op, a, b, approx), OpKind::Fp)
            }
        };
        if approx {
            Ok(self.machine.result(raw, kind, op.is_comparison()))
        } else {
            self.machine.precise(kind);
            Ok(raw)
        }
    }
}

/// FEnerJ integer arithmetic: wrapping, comparisons yield 0 or 1, and a
/// division by zero is an error when precise and 0 when approximate.
fn int_arith(
    op: BinOp,
    a: i64,
    b: i64,
    approx: bool,
    span: crate::error::Span,
) -> Result<Value, EvalError> {
    if b == 0 && matches!(op, BinOp::Div | BinOp::Rem) {
        return if approx { Ok(Value::Int(0)) } else { Err(EvalError::DivisionByZero(span)) };
    }
    Ok(Value::Int(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.wrapping_div(b),
        BinOp::Rem => a.wrapping_rem(b),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
    }))
}

/// FEnerJ float arithmetic: IEEE operations under the first-NaN-operand
/// rule, comparisons yield the integers 0 or 1, and an approximate division
/// or remainder by zero yields NaN.
fn float_arith(op: BinOp, a: f64, b: f64, approx: bool) -> Value {
    let by_zero = approx && b == 0.0;
    let float = |r: f64| Value::Float(first_nan_f64(a, b, r));
    match op {
        BinOp::Add => float(a + b),
        BinOp::Sub => float(a - b),
        BinOp::Mul => float(a * b),
        BinOp::Div => float(if by_zero { f64::NAN } else { a / b }),
        BinOp::Rem => Value::Float(if by_zero { f64::NAN } else { a % b }),
        BinOp::Eq => Value::Int(i64::from(a == b)),
        BinOp::Ne => Value::Int(i64::from(a != b)),
        BinOp::Lt => Value::Int(i64::from(a < b)),
        BinOp::Le => Value::Int(i64::from(a <= b)),
        BinOp::Gt => Value::Int(i64::from(a > b)),
        BinOp::Ge => Value::Int(i64::from(a >= b)),
    }
}

fn default_value(ty: &Type) -> Value {
    match ty.base {
        BaseType::Int => Value::Int(0),
        BaseType::Float => Value::Float(0.0),
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typecheck::check;
    use enerj_hw::config::{HwConfig, Level, StrategyMask};

    fn eval_reliable(src: &str) -> Value {
        let tp = check(parse(src).unwrap()).unwrap();
        run(&tp, ExecMode::Reliable).unwrap().value
    }

    #[test]
    fn bit_eq_compares_floats_by_bits() {
        assert!(Value::Float(f64::NAN).bit_eq(&Value::Float(f64::NAN)));
        assert!(!Value::Float(0.0).bit_eq(&Value::Float(-0.0)));
        assert!(Value::Int(3).bit_eq(&Value::Int(3)) && !Value::Int(3).bit_eq(&Value::Null));
    }

    fn faulty_hw(level: Level, seed: u64) -> Rc<RefCell<Hardware>> {
        Rc::new(RefCell::new(Hardware::new(HwConfig::for_level(level), seed)))
    }

    #[test]
    fn arithmetic_and_let() {
        assert_eq!(eval_reliable("main { let x = 6 in x * 7 }"), Value::Int(42));
        assert_eq!(eval_reliable("main { 1.5 + 2.25 }"), Value::Float(3.75));
        assert_eq!(eval_reliable("main { 7 % 3 }"), Value::Int(1));
    }

    #[test]
    fn conditionals_branch_on_nonzero() {
        assert_eq!(eval_reliable("main { if (1 < 2) { 10 } else { 20 } }"), Value::Int(10));
        assert_eq!(eval_reliable("main { if (2 < 1) { 10 } else { 20 } }"), Value::Int(20));
    }

    #[test]
    fn objects_fields_and_methods() {
        let src = "
            class Counter extends Object {
                int n;
                int bump(int by) { this.n := this.n + by; this.n }
            }
            main {
                let c = new Counter() in
                c.bump(3);
                c.bump(4)
            }
        ";
        assert_eq!(eval_reliable(src), Value::Int(7));
    }

    #[test]
    fn recursion_terminates() {
        let src = "
            class Math extends Object {
                int fact(int n) {
                    if (n <= 1) { 1 } else { n * this.fact(n - 1) }
                }
            }
            main { new Math().fact(10) }
        ";
        assert_eq!(eval_reliable(src), Value::Int(3_628_800));
    }

    #[test]
    fn fuel_limits_runaway_recursion() {
        let src = "
            class Loop extends Object {
                int go() { this.go() }
            }
            main { new Loop().go() }
        ";
        let tp = check(parse(src).unwrap()).unwrap();
        let err = run_with_fuel(&tp, ExecMode::Reliable, 10_000).unwrap_err();
        assert_eq!(err, EvalError::OutOfFuel);
    }

    #[test]
    fn precise_division_by_zero_is_an_error() {
        let tp = check(parse("main { 1 / 0 }").unwrap()).unwrap();
        assert!(matches!(run(&tp, ExecMode::Reliable).unwrap_err(), EvalError::DivisionByZero(_)));
    }

    #[test]
    fn approximate_division_by_zero_never_traps() {
        // endorse(a / z) with approximate operands: returns 0 instead.
        let src = "
            class C extends Object { approx int a; approx int z; }
            main {
                let c = new C() in
                c.a := 7;
                endorse(c.a / c.z)
            }
        ";
        assert_eq!(eval_reliable(src), Value::Int(0));
    }

    #[test]
    fn null_dereference_reported() {
        let src = "
            class C extends Object { int x; }
            main { let c = (precise C) null in c.x }
        ";
        let tp = check(parse(src).unwrap()).unwrap();
        assert!(matches!(run(&tp, ExecMode::Reliable).unwrap_err(), EvalError::NullDereference(_)));
    }

    #[test]
    fn overload_dispatch_follows_instance_precision() {
        let src = "
            class FloatSet extends Object {
                float mean() { 1.0 }
                float mean() approx { 2.0 }
            }
            main { new approx FloatSet().mean() }
        ";
        assert_eq!(eval_reliable(src), Value::Float(2.0));
        let src_precise = "
            class FloatSet extends Object {
                float mean() { 1.0 }
                float mean() approx { 2.0 }
            }
            main { new FloatSet().mean() }
        ";
        assert_eq!(eval_reliable(src_precise), Value::Float(1.0));
    }

    #[test]
    fn virtual_dispatch_uses_runtime_class() {
        let src = "
            class A extends Object { int tag() { 1 } }
            class B extends A { int tag() { 2 } }
            main { ((precise A) new B()).tag() }
        ";
        assert_eq!(eval_reliable(src), Value::Int(2));
    }

    #[test]
    fn failed_downcast_is_a_runtime_error() {
        let src = "
            class A extends Object {}
            class B extends A {}
            main { (precise B) new A(); 0 }
        ";
        let tp = check(parse(src).unwrap()).unwrap();
        assert!(matches!(run(&tp, ExecMode::Reliable).unwrap_err(), EvalError::CastFailed(_, _)));
    }

    #[test]
    fn faulty_mode_counts_approx_and_precise_ops() {
        let src = "
            class C extends Object { approx int a; }
            main {
                let c = new C() in
                c.a := c.a + 1;
                1 + 2
            }
        ";
        let tp = check(parse(src).unwrap()).unwrap();
        let hw = faulty_hw(Level::Mild, 0);
        run(&tp, ExecMode::Faulty(Rc::clone(&hw))).unwrap();
        let stats = hw.borrow().stats();
        assert_eq!(stats.int_approx_ops, 1);
        assert_eq!(stats.int_precise_ops, 1);
    }

    #[test]
    fn faulty_mode_with_masked_strategies_is_exact() {
        let src = "
            class Acc extends Object {
                approx float total;
                float addn(int n) {
                    if (n == 0) { endorse(this.total) }
                    else { this.total := this.total + 1.5; this.addn(n - 1) }
                }
            }
            main { new Acc().addn(40) }
        ";
        let tp = check(parse(src).unwrap()).unwrap();
        let cfg = HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE);
        let hw = Rc::new(RefCell::new(Hardware::new(cfg, 1)));
        let out = run(&tp, ExecMode::Faulty(hw)).unwrap();
        assert_eq!(out.value, Value::Float(60.0));
    }

    #[test]
    fn aggressive_faulty_mode_perturbs_float_sums() {
        let src = "
            class Acc extends Object {
                approx float total;
                float addn(int n) {
                    if (n == 0) { endorse(this.total) }
                    else { this.total := this.total + 1.015625; this.addn(n - 1) }
                }
            }
            main { new Acc().addn(60) }
        ";
        let tp = check(parse(src).unwrap()).unwrap();
        let hw = faulty_hw(Level::Aggressive, 7);
        let out = run(&tp, ExecMode::Faulty(hw)).unwrap();
        let Value::Float(total) = out.value else { panic!("expected float") };
        // With 8 mantissa bits, 1.015625 is representable but the running
        // sum loses low bits; the result must deviate from the exact sum.
        assert!((total - 60.9375).abs() > 1e-9 || total.is_nan());
    }

    #[test]
    fn chaos_mode_destroys_approximate_data_only() {
        let src = "
            class C extends Object { approx int a; int p; }
            main {
                let c = new C() in
                c.a := 1;
                c.p := 2;
                c.p
            }
        ";
        let tp = check(parse(src).unwrap()).unwrap();
        let out = run(&tp, ExecMode::Chaos { seed: 99 }).unwrap();
        assert_eq!(out.value, Value::Int(2), "precise field must survive chaos");
    }

    #[test]
    fn endorse_passes_value_through() {
        let src = "
            class C extends Object { approx int a; }
            main { let c = new C() in c.a := 41; endorse(c.a) + 1 }
        ";
        assert_eq!(eval_reliable(src), Value::Int(42));
    }

    #[test]
    fn context_instantiation_inherits_receiver_qualifier() {
        let src = "
            class Inner extends Object {
                float mean() { 1.0 }
                float mean() approx { 2.0 }
            }
            class Maker extends Object {
                float make() { (new context Inner()).mean() }
            }
            main {
                (new approx Maker()).make() + (new Maker()).make() * 10.0
            }
        ";
        // Approx maker creates an approx Inner (mean = 2.0); precise maker a
        // precise Inner (mean = 1.0): 2 + 1*10 = 12.
        assert_eq!(eval_reliable(src), Value::Float(12.0));
    }
}
