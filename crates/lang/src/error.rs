//! Diagnostics for the FEnerJ front end and interpreter.

use std::fmt;

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub(crate) fn merge(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// Computes the 1-based line and column of the span start in `source`.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, c) in source.char_indices() {
            if i >= self.start {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// An error produced while lexing or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the error occurred.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error at `span`.
    pub(crate) fn new(span: Span, message: impl Into<String>) -> Self {
        ParseError { span, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.span.start, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The structural classification of a [`TypeError`].
///
/// Every rejection the class-table validator and the type checker can
/// produce has exactly one kind, so tools (the conformance fuzzer's
/// mutation oracle, diagnostic tests) can assert *which* rule fired
/// without string matching. The first block covers class-table
/// validation, the second expression checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TypeErrorKind {
    /// `class Object { ... }` — the root class cannot be redefined.
    ObjectRedefined,
    /// Two classes share a name.
    DuplicateClass,
    /// `extends` names a class that does not exist.
    UnknownSuperclass,
    /// The inheritance chain contains a cycle.
    CyclicInheritance,
    /// Two fields of one class share a name.
    DuplicateField,
    /// A field re-declares an inherited field's name.
    FieldShadowing,
    /// Two bodies of one class share a name and receiver precision.
    DuplicateMethod,
    /// An override changes the inherited signature.
    SignatureChangingOverride,
    /// An `approx` overload's shape differs from its precise sibling.
    MismatchedApproxOverload,
    /// A declaration spells the internal `lost` qualifier.
    LostInDeclaration,
    /// The general flow violation: `T1` is not a subtype of `T2`.
    NotASubtype,
    /// `if` branches have no common type.
    IncompatibleBranches,
    /// A variable is not in scope.
    UnknownVariable,
    /// `this` outside a class body.
    ThisOutsideClass,
    /// `new` of a non-class type (AST-level only; unparseable).
    NewOfNonClass,
    /// A type mentions an undeclared class.
    UnknownClass,
    /// `new context ...` outside a class body.
    ContextOutsideClass,
    /// `new top C()` or similar — only precise/approx/context instantiate.
    BadInstantiationQualifier,
    /// An array length that is not `precise int` (section 2.6).
    ImpreciseArrayLength,
    /// Indexing or `.length` on a non-array.
    NotAnArray,
    /// An array index that is not `precise int` (section 2.6).
    ImpreciseIndex,
    /// A write through a type that lost precision information.
    WriteThroughLost,
    /// No such field on the receiver's class.
    UnknownField,
    /// No such method on the receiver's class.
    UnknownMethod,
    /// A call with the wrong number of arguments.
    ArityMismatch,
    /// A call whose adapted parameter type lost precision information.
    LostParameter,
    /// A cast whose target is not a class type.
    CastTargetNotClass,
    /// A cast applied to a primitive operand (use `endorse`).
    CastOfPrimitive,
    /// A cast between unrelated classes.
    UnrelatedCast,
    /// A cast that would narrow the qualifier (only `endorse` may).
    QualifierNarrowingCast,
    /// A binary operator applied to non-primitive operands.
    NonPrimitiveOperands,
    /// Arithmetic on a `top`- or `lost`-qualified value.
    ComputeOnTopOrLost,
    /// An `if`/`while` condition that is not `precise int` (section 2.4).
    ImpreciseCondition,
    /// `let` binding a value whose type lost precision information.
    BindLost,
    /// Member access on a statically-`null` receiver.
    NullReceiver,
    /// Member access on a primitive receiver.
    NotAnObject,
    /// `endorse` applied to a non-primitive.
    EndorseOfNonPrimitive,
}

/// An error produced by the precision type checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Where the error occurred.
    pub span: Span,
    /// Which rule rejected the program.
    pub kind: TypeErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl TypeError {
    /// Creates a type error of `kind` at `span`.
    pub(crate) fn new(kind: TypeErrorKind, span: Span, message: impl Into<String>) -> Self {
        TypeError { span, kind, message: message.into() }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error at byte {}: {}", self.span.start, self.message)
    }
}

impl std::error::Error for TypeError {}

/// An error raised during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Dereferenced `null`.
    NullDereference(Span),
    /// Precise integer division by zero (approximate division never traps).
    DivisionByZero(Span),
    /// A checked class cast failed at runtime.
    CastFailed(Span, String),
    /// An array was allocated with a negative length.
    BadArrayLength(Span, i64),
    /// An array access was out of bounds (always checked, section 2.6).
    IndexOutOfBounds(Span, i64, usize),
    /// The step budget was exhausted (runaway recursion).
    OutOfFuel,
    /// Internal invariant violation — indicates a checker bug.
    Internal(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NullDereference(s) => {
                write!(f, "null dereference at byte {}", s.start)
            }
            EvalError::DivisionByZero(s) => {
                write!(f, "precise division by zero at byte {}", s.start)
            }
            EvalError::CastFailed(s, to) => {
                write!(f, "cast to {to} failed at byte {}", s.start)
            }
            EvalError::BadArrayLength(s, n) => {
                write!(f, "negative array length {n} at byte {}", s.start)
            }
            EvalError::IndexOutOfBounds(s, i, len) => {
                write!(f, "index {i} out of bounds (length {len}) at byte {}", s.start)
            }
            EvalError::OutOfFuel => write!(f, "evaluation exceeded its step budget"),
            EvalError::Internal(msg) => write!(f, "internal interpreter error: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
        assert_eq!(b.merge(a), Span::new(3, 12));
    }

    #[test]
    fn line_col_counts_newlines() {
        let src = "ab\ncde\nf";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(4, 5).line_col(src), (2, 2));
        assert_eq!(Span::new(7, 8).line_col(src), (3, 1));
    }

    #[test]
    fn errors_display_nonempty() {
        assert!(!ParseError::new(Span::default(), "x").to_string().is_empty());
        let te = TypeError::new(TypeErrorKind::NotASubtype, Span::default(), "x");
        assert!(!te.to_string().is_empty());
        assert_eq!(te.kind, TypeErrorKind::NotASubtype);
        assert!(!EvalError::OutOfFuel.to_string().is_empty());
    }
}
