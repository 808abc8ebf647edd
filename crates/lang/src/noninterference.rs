//! The non-interference property (section 3.3), as an executable check.
//!
//! The paper proves that in endorsement-free FEnerJ programs, "changing
//! approximate values in the heap or runtime environment does not change the
//! precise parts of the heap or the result of the computation." This module
//! turns the theorem into a test harness: it runs a program once under the
//! reliable semantics and repeatedly under the *chaos* semantics — an
//! adversarial instantiation of the formal rule that any approximate value
//! may be replaced by any other value of its type — and verifies that every
//! precisely-typed observable agrees.
//!
//! The observables compared are the main expression's value (when its
//! static type is precise) and every precisely-typed primitive field of
//! every heap object, positionally matched (chaos does not change
//! allocation order because allocation is driven by precise control flow).

use crate::error::EvalError;
use crate::interp::{ExecMode, RunOutcome};
use crate::typecheck::TypedProgram;
use crate::types::Qual;

/// Why a non-interference check could not be carried out or failed.
#[derive(Debug, Clone, PartialEq)]
pub enum NonInterferenceError {
    /// The program uses `endorse`, so the theorem does not apply.
    UsesEndorse,
    /// Evaluation failed (both semantics must converge for the comparison).
    Eval(String),
    /// A precise observable differed between reliable and chaos runs.
    Violation {
        /// Seed of the offending chaos run.
        seed: u64,
        /// Description of the differing observable.
        detail: String,
    },
}

impl std::fmt::Display for NonInterferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NonInterferenceError::UsesEndorse => {
                write!(f, "program uses endorse; non-interference is not claimed")
            }
            NonInterferenceError::Eval(e) => write!(f, "evaluation failed: {e}"),
            NonInterferenceError::Violation { seed, detail } => {
                write!(f, "non-interference violated under chaos seed {seed}: {detail}")
            }
        }
    }
}

impl std::error::Error for NonInterferenceError {}

/// Checks non-interference for `program` over `seeds` adversarial runs.
///
/// # Errors
///
/// Returns [`NonInterferenceError::UsesEndorse`] for programs with
/// endorsements, [`NonInterferenceError::Eval`] if any run fails, and
/// [`NonInterferenceError::Violation`] if a precise observable differs.
pub fn check_non_interference(
    program: &TypedProgram,
    seeds: impl IntoIterator<Item = u64>,
) -> Result<(), NonInterferenceError> {
    check_non_interference_with_fuel(program, seeds, crate::interp::DEFAULT_FUEL)
}

/// [`check_non_interference`] with an explicit per-run step budget, so a
/// fault-corrupted (or simply divergent) program terminates with a
/// diagnostic instead of hanging the checker.
///
/// # Errors
///
/// As [`check_non_interference`]; a run that exhausts `fuel` surfaces as
/// [`NonInterferenceError::Eval`].
pub fn check_non_interference_with_fuel(
    program: &TypedProgram,
    seeds: impl IntoIterator<Item = u64>,
    fuel: u64,
) -> Result<(), NonInterferenceError> {
    if program.program.uses_endorse() {
        return Err(NonInterferenceError::UsesEndorse);
    }
    let reference = eval(program, ExecMode::Reliable, fuel)?;
    let main_is_precise = program.main_type().qual == Qual::Precise;
    for seed in seeds {
        let chaotic = eval(program, ExecMode::Chaos { seed }, fuel)?;
        if main_is_precise && !reference.value.bit_eq(&chaotic.value) {
            return Err(NonInterferenceError::Violation {
                seed,
                detail: format!(
                    "main result changed: {} vs {}",
                    reference.value.describe(),
                    chaotic.value.describe()
                ),
            });
        }
        compare_heaps(program, &reference, &chaotic, seed)?;
    }
    Ok(())
}

fn eval(
    program: &TypedProgram,
    mode: ExecMode,
    fuel: u64,
) -> Result<RunOutcome, NonInterferenceError> {
    crate::interp::run_with_fuel(program, mode, fuel)
        .map_err(|e: EvalError| NonInterferenceError::Eval(e.to_string()))
}

/// Compares the precise primitive fields of positionally-matched objects.
fn compare_heaps(
    program: &TypedProgram,
    reference: &RunOutcome,
    chaotic: &RunOutcome,
    seed: u64,
) -> Result<(), NonInterferenceError> {
    if reference.heap.len() != chaotic.heap.len() {
        return Err(NonInterferenceError::Violation {
            seed,
            detail: format!(
                "heap sizes differ: {} vs {}",
                reference.heap.len(),
                chaotic.heap.len()
            ),
        });
    }
    for (addr, entry) in reference.heap.iter().zip(&chaotic.heap).enumerate() {
        match entry {
            (crate::interp::HeapEntry::Object(r), crate::interp::HeapEntry::Object(c)) => {
                if r.class != c.class || r.qual != c.qual {
                    return Err(NonInterferenceError::Violation {
                        seed,
                        detail: format!("object {addr} identity differs"),
                    });
                }
                for (field, declared) in program.table.all_fields(&r.class) {
                    // A field's precision in this instance: context adapts
                    // to the instance qualifier.
                    let effective = match declared.qual {
                        Qual::Context => match r.qual {
                            crate::interp::RtQual::Approx => Qual::Approx,
                            crate::interp::RtQual::Precise => Qual::Precise,
                        },
                        q => q,
                    };
                    if effective != Qual::Precise || !declared.is_prim() {
                        continue;
                    }
                    let same = match (r.fields.get(&field), c.fields.get(&field)) {
                        (Some(a), Some(b)) => a.bit_eq(b),
                        (None, None) => true,
                        _ => false,
                    };
                    if !same {
                        return Err(NonInterferenceError::Violation {
                            seed,
                            detail: format!(
                                "precise field {}.{field} of object {addr} differs",
                                r.class
                            ),
                        });
                    }
                }
            }
            (crate::interp::HeapEntry::Array(r), crate::interp::HeapEntry::Array(c)) => {
                if r.values.len() != c.values.len() || r.elem_approx != c.elem_approx {
                    return Err(NonInterferenceError::Violation {
                        seed,
                        detail: format!("array {addr} shape differs"),
                    });
                }
                if r.elem_approx {
                    continue; // approximate elements make no promises
                }
                for (i, (a, b)) in r.values.iter().zip(&c.values).enumerate() {
                    if !a.bit_eq(b) {
                        return Err(NonInterferenceError::Violation {
                            seed,
                            detail: format!("precise array element {addr}[{i}] differs"),
                        });
                    }
                }
            }
            _ => {
                return Err(NonInterferenceError::Violation {
                    seed,
                    detail: format!("heap entry {addr} kind differs"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typecheck::check;

    fn checked(src: &str) -> TypedProgram {
        check(parse(src).unwrap()).unwrap()
    }

    #[test]
    fn pure_precise_programs_trivially_interfere_not() {
        let tp = checked("main { 1 + 2 * 3 }");
        check_non_interference(&tp, 0..20).unwrap();
    }

    #[test]
    fn approximate_data_does_not_leak_into_precise_results() {
        // Approximate accumulation alongside precise accumulation: the
        // precise result must be identical no matter what the adversary
        // does to the approximate field.
        let src = "
            class W extends Object {
                approx float noise;
                int exact;
                int work(int n) {
                    if (n == 0) { this.exact }
                    else {
                        this.noise := this.noise + 0.5;
                        this.exact := this.exact + 2;
                        this.work(n - 1)
                    }
                }
            }
            main { new W().work(50) }
        ";
        let tp = checked(src);
        check_non_interference(&tp, 0..20).unwrap();
    }

    #[test]
    fn precise_heap_state_is_compared_too() {
        let src = "
            class S extends Object {
                int stored;
                approx int junk;
            }
            main {
                let s = new S() in
                s.stored := 7;
                s.junk := 3;
                0
            }
        ";
        let tp = checked(src);
        check_non_interference(&tp, 0..20).unwrap();
    }

    #[test]
    fn endorsing_programs_are_rejected() {
        let src = "
            class C extends Object { approx int a; }
            main { let c = new C() in endorse(c.a) }
        ";
        let tp = checked(src);
        assert_eq!(
            check_non_interference(&tp, 0..1).unwrap_err(),
            NonInterferenceError::UsesEndorse
        );
    }

    #[test]
    fn approximate_main_results_are_not_compared() {
        // A program whose main type is approximate makes no promise about
        // its value; the check must still pass (the heap has no precise
        // fields to violate).
        let src = "
            class C extends Object { approx int a; }
            main { let c = new C() in c.a := 5; c.a + 1 }
        ";
        let tp = checked(src);
        check_non_interference(&tp, 0..10).unwrap();
    }

    #[test]
    fn detects_a_hypothetical_violation() {
        // Sanity-check the harness itself: simulate a language bug by
        // comparing a program against a *different* chaos observable. We
        // build a program whose main is approximate, then forcibly claim it
        // precise by checking a modified twin. Instead of reaching into the
        // checker, we simply verify that chaos really does change
        // approximate results for this program.
        let src = "
            class C extends Object { approx int a; }
            main { let c = new C() in c.a := 5; c.a + 1 }
        ";
        let tp = checked(src);
        let reliable = crate::interp::run(&tp, ExecMode::Reliable).unwrap().value;
        let chaotic = crate::interp::run(&tp, ExecMode::Chaos { seed: 1 }).unwrap().value;
        assert_ne!(reliable, chaotic, "chaos must perturb approximate results");
    }
}
