//! # enerj-lang: FEnerJ, the formal core of EnerJ
//!
//! This crate implements FEnerJ, the minimal language that *EnerJ:
//! Approximate Data Types for Safe and General Low-Power Computation*
//! (PLDI 2011) formalizes in section 3: a Featherweight-Java-style calculus
//! with precision qualifiers. It provides the full pipeline the paper's
//! pluggable checker provides for Java:
//!
//! * a lexer (`token`) and a [`parser`] for the Figure 1 syntax
//!   (extended with `let` and `;` so realistic programs are writable);
//! * the [qualifier system](types): `precise`, `approx`, `top`, `context`
//!   and the internal `lost`, with the paper's subtyping and context
//!   adaptation rules;
//! * a [type checker](typecheck) enforcing the isolation guarantees —
//!   no approximate→precise flow without `endorse`, no approximate
//!   conditions, no writes through `lost`;
//! * a [big-step interpreter](interp) with reliable, fault-injecting
//!   (via [`enerj-hw`](enerj_hw)) and adversarial "chaos" semantics;
//! * an executable rendition of the paper's
//!   [non-interference theorem](noninterference) (section 3.3).
//!
//! ## Example
//!
//! ```
//! use enerj_lang::{compile, interp};
//!
//! let program = compile(
//!     "class C extends Object {
//!          approx int a;
//!          int p;
//!      }
//!      main {
//!          let c = new C() in
//!          c.a := 40;
//!          c.p := endorse(c.a + 2);
//!          c.p
//!      }",
//! )
//! .expect("well-typed");
//! let out = interp::run(&program, interp::ExecMode::Reliable).unwrap();
//! assert_eq!(out.value, interp::Value::Int(42));
//! ```
//!
//! The checker rejects the paper's canonical illegal flows:
//!
//! ```
//! use enerj_lang::compile;
//!
//! // Direct approximate-to-precise assignment (section 2.1).
//! let err = compile(
//!     "class C extends Object { approx int a; int p; }
//!      main { let c = new C() in c.p := c.a }",
//! )
//! .unwrap_err();
//! assert!(err.to_string().contains("not a subtype"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod classtable;
pub mod error;
pub mod interp;
pub mod noninterference;
pub mod parser;
pub mod pretty;
mod token;
pub mod typecheck;
pub mod types;

use std::fmt;

/// Any front-end failure: parsing or type checking.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexical or syntactic failure.
    Parse(error::ParseError),
    /// Precision type checking failure.
    Type(error::TypeError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => e.fmt(f),
            CompileError::Type(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<error::ParseError> for CompileError {
    fn from(e: error::ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<error::TypeError> for CompileError {
    fn from(e: error::TypeError) -> Self {
        CompileError::Type(e)
    }
}

/// Parses and type-checks FEnerJ source text.
///
/// # Errors
///
/// Returns the first parse or type error.
pub fn compile(source: &str) -> Result<typecheck::TypedProgram, CompileError> {
    let program = parser::parse(source)?;
    Ok(typecheck::check(program)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, ExecMode, Value};

    #[test]
    fn compile_and_run_pipeline() {
        let tp = compile("main { let x = 3 in x * x + 1 }").unwrap();
        let out = run(&tp, ExecMode::Reliable).unwrap();
        assert_eq!(out.value, Value::Int(10));
    }

    #[test]
    fn errors_are_routed() {
        assert!(matches!(compile("main { 1 + }"), Err(CompileError::Parse(_))));
        assert!(matches!(compile("main { x }"), Err(CompileError::Type(_))));
    }
}
