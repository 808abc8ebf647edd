//! Integration tests for the FEnerJ pipeline against the embedded API:
//! the two renderings of the programming model must agree on semantics.

use enerj_core::{endorse, Approx, Runtime};
use enerj_hw::config::{HwConfig, Level, StrategyMask};
use enerj_hw::Hardware;
use enerj_lang::interp::{run, ExecMode, Value};
use enerj_lang::noninterference::check_non_interference;
use enerj_lang::{compile, CompileError};
use std::cell::RefCell;
use std::rc::Rc;

/// The same approximate accumulation, written once in FEnerJ and once in
/// the embedded API, produces the same value on the same masked hardware.
#[test]
fn fenerj_and_embedded_api_agree_on_masked_hardware() {
    let src = "
        class Acc extends Object {
            approx float total;
            float go(int n) {
                if (n == 0) { endorse(this.total) }
                else { this.total := this.total + 1.25; this.go(n - 1) }
            }
        }
        main { new Acc().go(64) }
    ";
    let program = compile(src).expect("well-typed");
    let cfg = HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE);
    let hw = Rc::new(RefCell::new(Hardware::new(cfg, 0)));
    let lang_out = run(&program, ExecMode::Faulty(hw)).expect("runs");

    let rt = Runtime::with_config(cfg, 0);
    let api_out = rt.run(|| {
        let mut total = Approx::new(0.0f64);
        for _ in 0..64 {
            total += 1.25;
        }
        endorse(total)
    });

    assert_eq!(lang_out.value, Value::Float(api_out));
    assert_eq!(api_out, 80.0);
}

/// Both renderings charge the same number of approximate FP operations
/// for the same algorithm.
#[test]
fn op_accounting_matches_across_renderings() {
    let src = "
        class Acc extends Object {
            approx float total;
            float go(int n) {
                if (n == 0) { endorse(this.total) }
                else { this.total := this.total + 1.0; this.go(n - 1) }
            }
        }
        main { new Acc().go(32) }
    ";
    let program = compile(src).expect("well-typed");
    let cfg = HwConfig::for_level(Level::Mild).with_mask(StrategyMask::NONE);
    let hw = Rc::new(RefCell::new(Hardware::new(cfg, 0)));
    run(&program, ExecMode::Faulty(Rc::clone(&hw))).expect("runs");
    let lang_fp = hw.borrow().stats().fp_approx_ops;

    let rt = Runtime::with_config(cfg, 0);
    rt.run(|| {
        let mut total = Approx::new(0.0f64);
        for _ in 0..32 {
            total += 1.0;
        }
        let _ = endorse(total);
    });
    assert_eq!(lang_fp, rt.stats().fp_approx_ops);
    assert_eq!(lang_fp, 32);
}

/// A library of well-typed, endorsement-free FEnerJ programs satisfies
/// non-interference under the chaos adversary.
#[test]
fn non_interference_holds_for_a_program_library() {
    let programs = [
        // Pure precise computation.
        "main { let x = 2 in x * x + x }",
        // Approximate work discarded.
        "class C extends Object { approx float junk; }
         main { let c = new C() in c.junk := 3.5; 7 }",
        // Precise and approximate interleaved through method calls.
        "class M extends Object {
             approx int a;
             int p;
             int step(int n) {
                 if (n == 0) { this.p }
                 else { this.a := this.a * 3 + n; this.p := this.p + 1; this.step(n - 1) }
             }
         }
         main { new M().step(30) }",
        // Context fields on a precise instance stay precise; the getter
        // must itself be context-typed (it serves both instantiations).
        "class Pair extends Object {
             context int x;
             context int get() { this.x }
         }
         main { let p = new Pair() in p.x := 9; p.get() }",
        // Approximate instances: their context fields are fair game for
        // the adversary, but the result here only uses precise state.
        "class Pair extends Object { context int x; int tag; }
         main {
             let a = new approx Pair() in
             a.x := 5;
             a.tag := 11;
             a.tag
         }",
    ];
    for (i, src) in programs.iter().enumerate() {
        let program = compile(src).unwrap_or_else(|e| panic!("program {i}: {e}"));
        check_non_interference(&program, 0..25).unwrap_or_else(|e| panic!("program {i}: {e}"));
    }
}

/// The checker rejects every flavor of illegal flow the paper enumerates.
#[test]
fn checker_rejects_the_papers_illegal_programs() {
    let illegal = [
        // Direct assignment (section 2.1).
        "class C extends Object { approx int a; int p; }
         main { let c = new C() in c.p := c.a }",
        // Implicit flow via a condition (section 2.4).
        "class C extends Object { approx int val; }
         main { let c = new C() in if (c.val == 5) { 1 } else { 0 } }",
        // Qualifier-narrowing cast.
        "class C extends Object {}
         main { (precise C) new approx C() }",
        // Write through lost context (section 3.1).
        "class C extends Object { context int x; }
         main { let t = (top C) new C() in t.x := 1 }",
        // Approximate argument to a precise parameter.
        "class C extends Object {
             approx int a;
             int id(int x) { x }
         }
         main { let c = new C() in c.id(c.a) }",
    ];
    for (i, src) in illegal.iter().enumerate() {
        match compile(src) {
            Err(CompileError::Type(_)) => {}
            other => panic!("program {i} should be a type error, got {other:?}"),
        }
    }
}

/// Endorsement-free approximate results really are at the adversary's
/// mercy — the converse of non-interference.
#[test]
fn chaos_perturbs_approximate_results() {
    let src = "
        class C extends Object { approx int a; }
        main { let c = new C() in c.a := 5; c.a + 1 }
    ";
    let program = compile(src).expect("well-typed");
    let reliable = run(&program, ExecMode::Reliable).expect("runs").value;
    let changed = (0..10)
        .any(|seed| run(&program, ExecMode::Chaos { seed }).expect("runs").value != reliable);
    assert!(changed, "the adversary must be able to change approximate results");
}
