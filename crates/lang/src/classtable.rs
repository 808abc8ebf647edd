//! The class table: hierarchy, field and method lookup with context
//! adaptation (the `FType` and `MSig` functions of section 3.1).

use std::collections::HashMap;

use crate::ast::{ClassDecl, MethodDecl, MethodQual, Program};
use crate::error::{Span, TypeError, TypeErrorKind};
use crate::types::{Qual, Type};

/// A method signature after context adaptation at a call site.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSig {
    /// Adapted parameter types.
    pub params: Vec<Type>,
    /// Adapted return type.
    pub ret: Type,
    /// Which body the call dispatches to (class, method index).
    pub target: (String, usize),
}

/// All classes of a program, indexed by name, with lookup helpers.
#[derive(Debug, Clone)]
pub struct ClassTable {
    classes: HashMap<String, ClassDecl>,
}

impl ClassTable {
    /// Builds and validates the class table: no duplicate classes, fields or
    /// incompatible method pairs; superclasses exist; the hierarchy is
    /// acyclic; `context` and user-written `lost`/`top` are used legally.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] describing the first violated condition.
    pub fn build(program: &Program) -> Result<ClassTable, TypeError> {
        let mut classes = HashMap::new();
        for class in &program.classes {
            if class.name == "Object" {
                return Err(TypeError::new(
                    TypeErrorKind::ObjectRedefined,
                    class.span,
                    "`Object` cannot be redefined",
                ));
            }
            if classes.insert(class.name.clone(), class.clone()).is_some() {
                return Err(TypeError::new(
                    TypeErrorKind::DuplicateClass,
                    class.span,
                    format!("duplicate class `{}`", class.name),
                ));
            }
        }
        let table = ClassTable { classes };
        table.check_hierarchy(program)?;
        table.check_members(program)?;
        Ok(table)
    }

    fn check_hierarchy(&self, program: &Program) -> Result<(), TypeError> {
        for class in &program.classes {
            if let Some(sup) = &class.superclass {
                if sup != "Object" && !self.classes.contains_key(sup) {
                    return Err(TypeError::new(
                        TypeErrorKind::UnknownSuperclass,
                        class.span,
                        format!("unknown superclass `{sup}` of `{}`", class.name),
                    ));
                }
            }
            // Walk up; a cycle would revisit the starting class.
            let mut seen = vec![class.name.clone()];
            let mut cur = class.superclass.clone();
            while let Some(name) = cur {
                if name == "Object" {
                    break;
                }
                if seen.contains(&name) {
                    return Err(TypeError::new(
                        TypeErrorKind::CyclicInheritance,
                        class.span,
                        format!("cyclic inheritance involving `{name}`"),
                    ));
                }
                seen.push(name.clone());
                cur = self.classes[&name].superclass.clone();
            }
        }
        Ok(())
    }

    fn check_members(&self, program: &Program) -> Result<(), TypeError> {
        for class in &program.classes {
            let mut field_names: Vec<&str> = Vec::new();
            for field in &class.fields {
                if field_names.contains(&field.name.as_str()) {
                    return Err(TypeError::new(
                        TypeErrorKind::DuplicateField,
                        field.span,
                        format!("duplicate field `{}` in `{}`", field.name, class.name),
                    ));
                }
                // No shadowing of superclass fields.
                if let Some(sup) = &class.superclass {
                    if self.field_decl(sup, &field.name).is_some() {
                        return Err(TypeError::new(
                            TypeErrorKind::FieldShadowing,
                            field.span,
                            format!("field `{}` shadows an inherited field", field.name),
                        ));
                    }
                }
                check_declared_type(&field.ty, field.span)?;
                field_names.push(&field.name);
            }
            let mut sigs: Vec<(&str, MethodQual)> = Vec::new();
            for method in &class.methods {
                let key = (method.name.as_str(), method.qual);
                if sigs.contains(&key) {
                    return Err(TypeError::new(
                        TypeErrorKind::DuplicateMethod,
                        method.span,
                        format!("duplicate {} implementation of `{}`", method.qual, method.name),
                    ));
                }
                sigs.push(key);
                check_declared_type(&method.ret, method.span)?;
                for (_, pty) in &method.params {
                    check_declared_type(pty, method.span)?;
                }
                // Overriding must preserve the declared signature so that
                // dynamic dispatch is type-preserving.
                if let Some(sup) = &class.superclass {
                    if let Some((_, inherited)) = self.method_decl(sup, &method.name, method.qual) {
                        let same = inherited.ret == method.ret
                            && inherited.params.len() == method.params.len()
                            && inherited.params.iter().zip(&method.params).all(|(a, b)| a.1 == b.1);
                        if !same {
                            return Err(TypeError::new(
                                TypeErrorKind::SignatureChangingOverride,
                                method.span,
                                format!("override of `{}` changes its signature", method.name),
                            ));
                        }
                    }
                }
                // An approx overload must match its precise sibling's
                // signature, since call sites dispatch on the receiver only.
                if method.qual == MethodQual::Approx {
                    if let Some((_, precise)) =
                        self.method_decl(&class.name, &method.name, MethodQual::Precise)
                    {
                        let same = precise.ret.base == method.ret.base
                            && precise.params.len() == method.params.len();
                        if !same {
                            return Err(TypeError::new(
                                TypeErrorKind::MismatchedApproxOverload,
                                method.span,
                                format!(
                                    "approx overload of `{}` must match the precise signature",
                                    method.name
                                ),
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether `name` denotes a known class (including `Object`).
    pub(crate) fn is_class(&self, name: &str) -> bool {
        name == "Object" || self.classes.contains_key(name)
    }

    /// The declared superclass of `name` (`None` for `Object`).
    fn superclass(&self, name: &str) -> Option<&str> {
        self.classes.get(name).map(|c| c.superclass.as_deref().unwrap_or("Object"))
    }

    /// Whether `sub` is a (reflexive, transitive) subclass of `sup`.
    pub fn is_subclass(&self, sub: &str, sup: &str) -> bool {
        if sub == sup || sup == "Object" {
            return true;
        }
        let mut cur = self.superclass(sub);
        while let Some(name) = cur {
            if name == sup {
                return true;
            }
            cur = self.superclass(name);
        }
        false
    }

    /// The nearest common superclass of two classes.
    pub(crate) fn join_classes(&self, a: &str, b: &str) -> String {
        let mut cur = a.to_owned();
        loop {
            if self.is_subclass(b, &cur) {
                return cur;
            }
            match self.superclass(&cur) {
                Some(sup) => cur = sup.to_owned(),
                None => return "Object".to_owned(),
            }
        }
    }

    /// The raw (unadapted) declaration of field `f`, searching superclasses.
    pub fn field_decl(&self, class: &str, field: &str) -> Option<&Type> {
        let mut cur = Some(class);
        while let Some(name) = cur {
            if let Some(c) = self.classes.get(name) {
                if let Some(fd) = c.fields.iter().find(|fd| fd.name == field) {
                    return Some(&fd.ty);
                }
            }
            cur = self.superclass(name);
        }
        None
    }

    /// All fields of a class (inherited first), with their declaring class.
    pub fn all_fields(&self, class: &str) -> Vec<(String, Type)> {
        let mut chain = Vec::new();
        let mut cur = Some(class.to_owned());
        while let Some(name) = cur {
            if let Some(c) = self.classes.get(&name) {
                chain.push(c);
            }
            cur = self.superclass(&name).map(str::to_owned);
        }
        chain
            .iter()
            .rev()
            .flat_map(|c| c.fields.iter().map(|f| (f.name.clone(), f.ty.clone())))
            .collect()
    }

    /// `FType(q C, f)` (section 3.1): the context-adapted type of a field
    /// access through a receiver qualified `recv_qual`.
    pub fn ftype(&self, recv_qual: Qual, class: &str, field: &str) -> Option<Type> {
        self.field_decl(class, field).map(|t| t.adapt(recv_qual))
    }

    /// Finds the method body `(declaring class, decl)` that a call to
    /// `name` with receiver-precision `qual` dispatches to, walking up the
    /// hierarchy. Does **not** fall back between precisions; see
    /// `ClassTable::select_method`.
    pub fn method_decl(
        &self,
        class: &str,
        name: &str,
        qual: MethodQual,
    ) -> Option<(String, &MethodDecl)> {
        let mut cur = Some(class.to_owned());
        while let Some(cname) = cur {
            if let Some(c) = self.classes.get(&cname) {
                if let Some(m) = c.methods.iter().find(|m| m.name == name && m.qual == qual) {
                    return Some((cname, m));
                }
            }
            cur = self.superclass(&cname).map(str::to_owned);
        }
        None
    }

    /// Selects the implementation a call dispatches to (section 2.5.2):
    /// approximate receivers prefer the `approx` overload and fall back to
    /// the precise body (best effort); all other receivers use the precise
    /// body.
    pub(crate) fn select_method(
        &self,
        recv_qual: Qual,
        class: &str,
        name: &str,
    ) -> Option<(String, &MethodDecl)> {
        if matches!(recv_qual, Qual::Approx) {
            if let Some(found) = self.method_decl(class, name, MethodQual::Approx) {
                return Some(found);
            }
        }
        self.method_decl(class, name, MethodQual::Precise)
    }

    /// `MSig(q C, m)` (section 3.1): the context-adapted signature of a
    /// call through a receiver of type `recv_qual class`.
    pub fn msig(&self, recv_qual: Qual, class: &str, name: &str) -> Option<MethodSig> {
        let (declaring, decl) = self.select_method(recv_qual, class, name)?;
        let idx = self.classes[&declaring]
            .methods
            .iter()
            .position(|m| std::ptr::eq(m, decl))
            .unwrap_or(0);
        Some(MethodSig {
            params: decl.params.iter().map(|(_, t)| t.adapt(recv_qual)).collect(),
            ret: decl.ret.adapt(recv_qual),
            target: (declaring, idx),
        })
    }
}

/// Declared types may not mention `lost` (it is internal) and may only use
/// `context` where there is an enclosing instance — which is everywhere a
/// declaration can appear in FEnerJ, so only `lost` is rejected here.
fn check_declared_type(ty: &Type, span: Span) -> Result<(), TypeError> {
    if ty.qual == Qual::Lost {
        return Err(TypeError::new(
            TypeErrorKind::LostInDeclaration,
            span,
            "`lost` cannot be written in programs",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn table(src: &str) -> Result<ClassTable, TypeError> {
        ClassTable::build(&parse(src).expect("parse"))
    }

    const PAIR: &str = "
        class Pair extends Object {
            context int x;
            context int y;
            approx int hits;
            int sum() { this.x + this.y }
            float mean() { 1.0 }
            float mean() approx { 2.0 }
        }
        class Triple extends Pair {
            context int z;
        }
        main { 0 }
    ";

    #[test]
    fn builds_and_answers_subclassing() {
        let t = table(PAIR).unwrap();
        assert!(t.is_subclass("Triple", "Pair"));
        assert!(t.is_subclass("Triple", "Object"));
        assert!(t.is_subclass("Pair", "Pair"));
        assert!(!t.is_subclass("Pair", "Triple"));
        assert_eq!(t.join_classes("Triple", "Pair"), "Pair");
        assert_eq!(t.join_classes("Pair", "Triple"), "Pair");
    }

    #[test]
    fn ftype_adapts_context_fields() {
        let t = table(PAIR).unwrap();
        let precise = t.ftype(Qual::Precise, "Pair", "x").unwrap();
        assert_eq!(precise.qual, Qual::Precise);
        let approx = t.ftype(Qual::Approx, "Pair", "x").unwrap();
        assert_eq!(approx.qual, Qual::Approx);
        // The paper's IntPair example: numAdditions stays approx regardless.
        let hits = t.ftype(Qual::Precise, "Pair", "hits").unwrap();
        assert_eq!(hits.qual, Qual::Approx);
        // Through a top receiver, context degrades to lost.
        let lost = t.ftype(Qual::Top, "Pair", "x").unwrap();
        assert_eq!(lost.qual, Qual::Lost);
    }

    #[test]
    fn inherited_fields_resolve() {
        let t = table(PAIR).unwrap();
        assert!(t.ftype(Qual::Precise, "Triple", "x").is_some());
        assert!(t.ftype(Qual::Precise, "Triple", "z").is_some());
        assert!(t.ftype(Qual::Precise, "Pair", "z").is_none());
        assert_eq!(t.all_fields("Triple").len(), 4);
    }

    #[test]
    fn method_selection_prefers_approx_for_approx_receivers() {
        let t = table(PAIR).unwrap();
        let (_, m) = t.select_method(Qual::Approx, "Pair", "mean").unwrap();
        assert_eq!(m.qual, MethodQual::Approx);
        let (_, m) = t.select_method(Qual::Precise, "Pair", "mean").unwrap();
        assert_eq!(m.qual, MethodQual::Precise);
        // Best effort: approx receiver falls back to the only (precise) body.
        let (_, m) = t.select_method(Qual::Approx, "Pair", "sum").unwrap();
        assert_eq!(m.qual, MethodQual::Precise);
    }

    #[test]
    fn rejects_duplicate_class_and_field() {
        assert!(table("class A extends Object {} class A extends Object {} main { 0 }").is_err());
        assert!(table("class A extends Object { int x; int x; } main { 0 }").is_err());
    }

    #[test]
    fn rejects_field_shadowing() {
        let err = table(
            "class A extends Object { int x; }
             class B extends A { int x; }
             main { 0 }",
        )
        .unwrap_err();
        assert!(err.message.contains("shadows"));
    }

    #[test]
    fn rejects_cyclic_hierarchy() {
        let err = table(
            "class A extends B {}
             class B extends A {}
             main { 0 }",
        )
        .unwrap_err();
        assert!(err.message.contains("cyclic"));
    }

    #[test]
    fn rejects_unknown_superclass() {
        assert!(table("class A extends Missing {} main { 0 }").is_err());
    }

    #[test]
    fn rejects_signature_changing_override() {
        let err = table(
            "class A extends Object { int m() { 0 } }
             class B extends A { float m() { 1.0 } }
             main { 0 }",
        )
        .unwrap_err();
        assert!(err.message.contains("override"));
    }

    #[test]
    fn rejects_mismatched_approx_overload() {
        let err = table(
            "class A extends Object {
                 int m() { 0 }
                 float m() approx { 1.0 }
             }
             main { 0 }",
        )
        .unwrap_err();
        assert!(err.message.contains("approx overload"));
    }

    #[test]
    fn rejects_redefining_object() {
        assert!(table("class Object extends Object {} main { 0 }").is_err());
    }
}
