//! FEnerJ tour: compile, check, reject, run and verify non-interference.
//!
//! Run with `cargo run -p enerj-lang --example fenerj_demo`.
//!
//! FEnerJ is the paper's formal core language (section 3). This demo walks
//! the full pipeline on the paper's own examples: legal and illegal flows,
//! context-qualified fields, method overloading on receiver precision,
//! fault-injecting execution, and the non-interference theorem checked
//! dynamically against an adversarial interpreter.

use enerj_hw::config::{HwConfig, Level};
use enerj_hw::Hardware;
use enerj_lang::interp::{run, ExecMode};
use enerj_lang::noninterference::check_non_interference;
use enerj_lang::{compile, CompileError};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    banner("1. The paper's illegal flow is rejected statically");
    let illegal = "
        class C extends Object { approx int a; int p; }
        main { let c = new C() in c.p := c.a }
    ";
    match compile(illegal) {
        Err(CompileError::Type(e)) => println!("  rejected: {e}"),
        other => panic!("expected a type error, got {other:?}"),
    }

    banner("2. Approximate conditions are rejected (section 2.4)");
    let implicit_flow = "
        class C extends Object { approx int val; }
        main {
            let c = new C() in
            if (c.val == 5) { 1 } else { 0 }
        }
    ";
    match compile(implicit_flow) {
        Err(CompileError::Type(e)) => println!("  rejected: {e}"),
        other => panic!("expected a type error, got {other:?}"),
    }

    banner("3. endorse() makes both legal; the program runs");
    let endorsed = "
        class C extends Object { approx int val; int p; }
        main {
            let c = new C() in
            c.val := 41;
            c.p := endorse(c.val) + 1;
            if (endorse(c.val == 41)) { c.p } else { 0 }
        }
    ";
    let program = compile(endorsed).expect("well-typed");
    let out = run(&program, ExecMode::Reliable).expect("runs");
    println!("  result: {}", out.value.describe());

    banner("4. @Context + overloading: the paper's FloatSet (section 2.5)");
    let floatset = "
        class FloatSet extends Object {
            context float a;
            context float b;
            float mean() { (this.a + this.b) / 2.0 }
            approx float mean() approx { this.a }   // cheap: first element
        }
        main {
            let p = new FloatSet() in
            p.a := 1.0; p.b := 3.0;
            let q = new approx FloatSet() in
            q.a := 1.0; q.b := 3.0;
            endorse(p.mean() * 100.0 + q.mean())
        }
    ";
    let program = compile(floatset).expect("well-typed");
    let out = run(&program, ExecMode::Reliable).expect("runs");
    println!("  precise mean * 100 + approx mean = {}", out.value.describe());
    println!("  (precise instance averages; approximate instance skips work)");

    banner("5. Fault injection: the same program on Aggressive hardware");
    let hw = Rc::new(RefCell::new(Hardware::new(HwConfig::for_level(Level::Aggressive), 1234)));
    let accumulate = "
        class Acc extends Object {
            approx float total;
            float go(int n) {
                if (n == 0) { endorse(this.total) }
                else { this.total := this.total + 1.0; this.go(n - 1) }
            }
        }
        main { new Acc().go(100) }
    ";
    let program = compile(accumulate).expect("well-typed");
    let out = run(&program, ExecMode::Faulty(Rc::clone(&hw))).expect("runs");
    println!("  exact answer 100, approximate answer {}", out.value.describe());
    let stats = hw.borrow().stats();
    println!(
        "  {} approximate FP ops, {} faults injected",
        stats.fp_approx_ops, stats.faults_injected
    );

    banner("6. Non-interference (section 3.3), checked adversarially");
    let isolated = "
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
    let program = compile(isolated).expect("well-typed");
    check_non_interference(&program, 0..50).expect("non-interference holds");
    println!("  50 chaos runs: every approximate value randomized,");
    println!("  precise result and precise heap unchanged. QED (dynamically).");
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}
