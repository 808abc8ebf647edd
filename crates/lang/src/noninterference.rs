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
//! static type is precise), every precisely-typed primitive field of every
//! heap object and every element of every precise array, positionally
//! matched (chaos does not change allocation order because allocation is
//! driven by precise control flow). [`RunOutcome::divergence`] is that
//! comparison, and, without its `precise_only` restriction, the bit-exact
//! comparison of two whole runs.

use crate::error::EvalError;
use crate::interp::{ExecMode, HeapEntry, RtQual, RunOutcome, Value};
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
    for seed in seeds {
        let chaotic = eval(program, ExecMode::Chaos { seed }, fuel)?;
        if let Some(detail) = reference.divergence(&chaotic, program, true) {
            return Err(NonInterferenceError::Violation { seed, detail });
        }
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

impl RunOutcome {
    /// The first observable in which `self` and `other`, two runs of
    /// `program`, differ, described; `None` if they agree bit for bit.
    ///
    /// With `precise_only`, only what the non-interference theorem promises
    /// is compared: the main value if its static type is precise, the
    /// primitive fields that are precise in their instance (`context`
    /// adapts to the instance qualifier) and the elements of precise arrays.
    /// Without it, everything is. The heaps' shapes (allocation order,
    /// classes, instance qualifiers, array lengths) must always agree.
    pub fn divergence(
        &self,
        other: &RunOutcome,
        program: &TypedProgram,
        precise_only: bool,
    ) -> Option<String> {
        let differs = |x: &Value, y: &Value| {
            (!x.bit_eq(y)).then(|| format!("{} != {}", x.describe(), y.describe()))
        };
        let main_promised = !precise_only || program.main_type().qual == Qual::Precise;
        if let Some(d) = differs(&self.value, &other.value).filter(|_| main_promised) {
            return Some(format!("main value {d}"));
        }
        if self.heap.len() != other.heap.len() {
            return Some(format!("heap size {} != {}", self.heap.len(), other.heap.len()));
        }
        for (i, entry) in self.heap.iter().zip(&other.heap).enumerate() {
            match entry {
                (HeapEntry::Object(a), HeapEntry::Object(b)) => {
                    if a.class != b.class || a.qual != b.qual {
                        return Some(format!("heap[{i}] object identity differs"));
                    }
                    for (field, declared) in program.table.all_fields(&a.class) {
                        let approx = match declared.qual {
                            Qual::Context => a.qual == RtQual::Approx,
                            q => q != Qual::Precise,
                        };
                        if precise_only && (approx || !declared.is_prim()) {
                            continue;
                        }
                        let (Some(x), Some(y)) = (a.fields.get(&field), b.fields.get(&field))
                        else {
                            return Some(format!("heap[{i}] {}.{field} is missing", a.class));
                        };
                        if let Some(d) = differs(x, y) {
                            return Some(format!("heap[{i}] {}.{field}: {d}", a.class));
                        }
                    }
                }
                (HeapEntry::Array(a), HeapEntry::Array(b)) => {
                    if a.elem_approx != b.elem_approx || a.values.len() != b.values.len() {
                        return Some(format!("heap[{i}] array shape differs"));
                    }
                    if precise_only && a.elem_approx {
                        continue;
                    }
                    for (j, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
                        if let Some(d) = differs(x, y) {
                            return Some(format!("heap[{i}][{j}]: {d}"));
                        }
                    }
                }
                _ => return Some(format!("heap[{i}] entry kind differs")),
            }
        }
        None
    }
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

    /// One object of each precision, one array of each precision.
    const OBSERVABLES: &str = "
        class S extends Object { int p; approx int a; context int c; }
        main {
            let s = new S() in
            let t = new approx S() in
            let xs = new int[2] in
            let ys = new approx int[2] in
            s.p := 7; s.a := 3; s.c := 4; t.c := 6; xs[1] := 5; ys[1] := 6;
            MAIN
        }
    ";

    fn outcome(main: &str) -> (TypedProgram, RunOutcome) {
        let tp = checked(&OBSERVABLES.replace("MAIN", main));
        let out = crate::interp::run(&tp, ExecMode::Reliable).unwrap();
        (tp, out)
    }

    /// A copy of `out` with `edit` applied.
    fn twin(out: &RunOutcome, edit: impl FnOnce(&mut RunOutcome)) -> RunOutcome {
        let mut t = RunOutcome { value: out.value, heap: out.heap.clone() };
        edit(&mut t);
        t
    }

    fn set_field(out: &mut RunOutcome, addr: usize, field: &str, v: i64) {
        let HeapEntry::Object(o) = &mut out.heap[addr] else { panic!("an object") };
        o.fields.insert(field.to_owned(), Value::Int(v));
    }

    fn set_elem(out: &mut RunOutcome, addr: usize, i: usize, v: i64) {
        let HeapEntry::Array(a) = &mut out.heap[addr] else { panic!("an array") };
        a.values[i] = Value::Int(v);
    }

    #[test]
    fn divergence_reports_every_differing_precise_observable() {
        let (tp, out) = outcome("1 + 2");
        for precise_only in [true, false] {
            let check = |t: RunOutcome| out.divergence(&t, &tp, precise_only);
            assert_eq!(check(twin(&out, |_| {})), None);
            let field = twin(&out, |t| set_field(t, 0, "p", 8));
            assert_eq!(check(field).as_deref(), Some("heap[0] S.p: 7 != 8"));
            let context = twin(&out, |t| set_field(t, 0, "c", 9));
            assert_eq!(check(context).as_deref(), Some("heap[0] S.c: 4 != 9"));
            let elem = twin(&out, |t| set_elem(t, 2, 1, 9));
            assert_eq!(check(elem).as_deref(), Some("heap[2][1]: 5 != 9"));
            let main = twin(&out, |t| t.value = Value::Int(4));
            assert_eq!(check(main).as_deref(), Some("main value 3 != 4"));
        }
    }

    #[test]
    fn divergence_compares_approximate_observables_only_in_full() {
        let (tp, out) = outcome("s.a + 1");
        assert_eq!(tp.main_type().qual, Qual::Approx);
        let cases = [
            (twin(&out, |t| set_field(t, 0, "a", 8)), "heap[0] S.a: 3 != 8"),
            (twin(&out, |t| set_field(t, 1, "c", 8)), "heap[1] S.c: 6 != 8"),
            (twin(&out, |t| set_elem(t, 3, 1, 8)), "heap[3][1]: 6 != 8"),
            (twin(&out, |t| t.value = Value::Int(8)), "main value 4 != 8"),
        ];
        for (t, detail) in &cases {
            assert_eq!(out.divergence(t, &tp, true), None, "{detail}");
            assert_eq!(out.divergence(t, &tp, false).as_deref(), Some(*detail));
        }
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
