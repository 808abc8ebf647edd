//! Precision qualifiers and types (paper Figure 1 and section 3.1).
//!
//! FEnerJ types pair a precision qualifier `q` with a base type: a primitive
//! (`int`, `float`) or a class. The qualifier lattice, the `lost` qualifier,
//! context adaptation (the ⊳ operator) and the subtyping rules follow the
//! paper's formal definitions.

use std::fmt;

/// A precision qualifier.
///
/// `Lost` never appears in source programs; it arises from context
/// adaptation when the enclosing context cannot be expressed (section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Qual {
    /// `precise` — conventional guarantees (the default).
    Precise,
    /// `approx` — no guarantees.
    Approx,
    /// `top` — common supertype of `precise` and `approx`.
    Top,
    /// `context` — the enclosing object's qualifier (class bodies only).
    Context,
    /// `lost` — unexpressible context information (internal).
    Lost,
}

impl Qual {
    /// The qualifier ordering `q1 <:q q2` (section 3.1):
    /// reflexive; everything below `top`; everything but `top` below `lost`.
    /// `precise` and `approx` are unrelated.
    pub fn is_sub(self, other: Qual) -> bool {
        self == other || other == Qual::Top || (other == Qual::Lost && self != Qual::Top)
    }

    /// Context adaptation `q ⊳ q'` (section 3.1): replaces `context` in a
    /// member's qualifier by the receiver's qualifier, degrading to `lost`
    /// when the receiver's qualifier is `top` or `lost`.
    fn adapt(self, member: Qual) -> Qual {
        if member == Qual::Context {
            match self {
                Qual::Precise | Qual::Approx | Qual::Context => self,
                Qual::Top | Qual::Lost => Qual::Lost,
            }
        } else {
            member
        }
    }

    /// Least upper bound in the qualifier ordering, used for joining the
    /// branches of a conditional on class types.
    pub(crate) fn lub(self, other: Qual) -> Qual {
        if self == other {
            self
        } else if self.is_sub(other) {
            other
        } else if other.is_sub(self) {
            self
        } else {
            // precise vs approx vs context: unrelated, join at lost.
            Qual::Lost
        }
    }

    /// Least upper bound in the *primitive* ordering, where additionally
    /// `precise <: approx` (section 2.1). Used for operand joining.
    pub(crate) fn lub_prim(self, other: Qual) -> Qual {
        if self == other {
            return self;
        }
        match (self, other) {
            (Qual::Precise, q) | (q, Qual::Precise) => q,
            (Qual::Approx, Qual::Context) | (Qual::Context, Qual::Approx) => Qual::Approx,
            (Qual::Lost, q) | (q, Qual::Lost) if q != Qual::Top => Qual::Lost,
            _ => Qual::Top,
        }
    }
}

impl fmt::Display for Qual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Qual::Precise => "precise",
            Qual::Approx => "approx",
            Qual::Top => "top",
            Qual::Context => "context",
            Qual::Lost => "lost",
        };
        f.write_str(name)
    }
}

/// A base type: primitive, class, or array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BaseType {
    /// `int`
    Int,
    /// `float`
    Float,
    /// A class, by name.
    Class(String),
    /// An array `T[]`; the element type carries its own qualifier and the
    /// array's length is always precise (section 2.6).
    Array(Box<Type>),
    /// The type of `null` — a subtype of every class and array type
    /// (internal).
    Null,
}

impl BaseType {
    /// Whether this is a primitive base type.
    pub fn is_prim(&self) -> bool {
        matches!(self, BaseType::Int | BaseType::Float)
    }
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseType::Int => f.write_str("int"),
            BaseType::Float => f.write_str("float"),
            BaseType::Class(name) => f.write_str(name),
            BaseType::Array(elem) => write!(f, "{elem}[]"),
            BaseType::Null => f.write_str("<null>"),
        }
    }
}

/// A qualified type `q B`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Type {
    /// The precision qualifier.
    pub qual: Qual,
    /// The base type.
    pub base: BaseType,
}

impl Type {
    /// Convenience constructor.
    pub fn new(qual: Qual, base: BaseType) -> Self {
        Type { qual, base }
    }

    /// `precise int`.
    pub fn precise_int() -> Self {
        Type::new(Qual::Precise, BaseType::Int)
    }

    /// `precise float`.
    pub(crate) fn precise_float() -> Self {
        Type::new(Qual::Precise, BaseType::Float)
    }

    /// The type of `null`.
    pub(crate) fn null() -> Self {
        Type::new(Qual::Precise, BaseType::Null)
    }

    /// Context adaptation lifted to types: `q ⊳ (q' B) = (q ⊳ q') B`,
    /// recursing into array element types.
    pub fn adapt(&self, receiver: Qual) -> Type {
        let base = match &self.base {
            BaseType::Array(elem) => BaseType::Array(Box::new(elem.adapt(receiver))),
            other => other.clone(),
        };
        Type::new(receiver.adapt(self.qual), base)
    }

    /// Whether the qualifier (or an array element qualifier) is `lost` —
    /// such types cannot be written to (section 3.1: "it would be unsound
    /// to allow the update of such a field").
    pub fn has_lost(&self) -> bool {
        self.qual == Qual::Lost || matches!(&self.base, BaseType::Array(elem) if elem.has_lost())
    }

    /// Whether this type is a primitive of some qualifier.
    pub fn is_prim(&self) -> bool {
        self.base.is_prim()
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.qual, self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualifier_ordering_matches_paper() {
        use Qual::*;
        for q in [Precise, Approx, Top, Context, Lost] {
            assert!(q.is_sub(q), "{q} reflexive");
            assert!(q.is_sub(Top), "{q} below top");
        }
        for q in [Precise, Approx, Context, Lost] {
            assert!(q.is_sub(Lost), "{q} below lost");
        }
        assert!(!Top.is_sub(Lost));
        assert!(!Precise.is_sub(Approx), "class-type quals unrelated");
        assert!(!Approx.is_sub(Precise));
        assert!(!Lost.is_sub(Precise));
        assert!(!Top.is_sub(Precise));
    }

    #[test]
    fn context_adaptation_matches_paper() {
        use Qual::*;
        // q ⊳ context = q when q ∈ {approx, precise, context}.
        assert_eq!(Precise.adapt(Context), Precise);
        assert_eq!(Approx.adapt(Context), Approx);
        assert_eq!(Context.adapt(Context), Context);
        // q ⊳ context = lost when q ∈ {top, lost}.
        assert_eq!(Top.adapt(Context), Lost);
        assert_eq!(Lost.adapt(Context), Lost);
        // q ⊳ q' = q' when q' != context.
        for recv in [Precise, Approx, Top, Context, Lost] {
            for member in [Precise, Approx, Top, Lost] {
                assert_eq!(recv.adapt(member), member);
            }
        }
    }

    #[test]
    fn lub_joins_unrelated_at_lost() {
        use Qual::*;
        assert_eq!(Precise.lub(Approx), Lost);
        assert_eq!(Precise.lub(Precise), Precise);
        assert_eq!(Approx.lub(Top), Top);
        assert_eq!(Lost.lub(Precise), Lost);
        assert_eq!(Lost.lub(Top), Top);
    }

    #[test]
    fn prim_lub_prefers_approx_over_lost() {
        use Qual::*;
        assert_eq!(Precise.lub_prim(Approx), Approx);
        assert_eq!(Approx.lub_prim(Precise), Approx);
        assert_eq!(Precise.lub_prim(Context), Context);
        assert_eq!(Context.lub_prim(Approx), Approx);
        assert_eq!(Precise.lub_prim(Precise), Precise);
    }

    #[test]
    fn type_adaptation_and_lost_detection() {
        let t = Type::new(Qual::Context, BaseType::Int);
        assert_eq!(t.adapt(Qual::Approx).qual, Qual::Approx);
        assert!(t.adapt(Qual::Top).has_lost());
        assert!(!Type::precise_int().has_lost());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::precise_int().to_string(), "precise int");
        assert_eq!(
            Type::new(Qual::Approx, BaseType::Class("Vec".into())).to_string(),
            "approx Vec"
        );
    }
}
