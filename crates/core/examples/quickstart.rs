//! Quickstart: the EnerJ programming model in two minutes.
//!
//! Run with `cargo run -p enerj-core --example quickstart`.
//!
//! This walks through the paper's core ideas on a tiny computation:
//! approximate data types, endorsement, approximate arrays, and the
//! energy/statistics readout.

use enerj_core::{endorse, Approx, ApproxVec, Precise, Runtime};
use enerj_hw::config::Level;
use enerj_hw::{MemKind, OpKind};

fn main() {
    // A runtime is a simulated approximation-aware machine (section 4).
    // Mild keeps faults vanishingly rare; try Medium or Aggressive and the
    // mean may occasionally come back as garbage — approximate values make
    // no promises, and that is the contract.
    let rt = Runtime::new(Level::Mild, 42);

    let (mean, exact_count) = rt.run(|| {
        // @Approx double[] samples = ... — approximate heap storage.
        let mut samples = ApproxVec::<f64>::from_fn(1000, |i| {
            let x = i as f64 / 1000.0;
            Approx::new(x * x)
        });

        // Approximate reduction: every add runs on the imprecise FPU.
        let mut total = Approx::new(0.0f64);
        for i in 0..samples.len() {
            total += samples.get(i);
        }

        // Precise bookkeeping alongside: counted, never faulted.
        let mut count = Precise::new(0i64);
        for _ in 0..samples.len() {
            count += 1;
        }

        // The *only* way back to precise data is an explicit endorsement
        // (section 2.2). The type system — Rust's, standing in for
        // EnerJ's — rejects any implicit flow:
        //
        //     let p: f64 = total;          // does not compile
        //     if total > 0.3 { ... }       // does not compile either:
        //                                  // comparisons yield Approx<bool>
        let mean = endorse(total / samples.len() as f64);
        (mean, count.get())
    });

    println!("approximate mean of x^2 over [0,1): {mean:.6} (exact: 0.332834)");
    println!("precise loop count: {exact_count}");

    // What did that cost, and what did it save?
    let stats = rt.stats();
    println!(
        "\nops: {} approximate FP, {} precise int",
        stats.fp_approx_ops, stats.int_precise_ops
    );
    println!(
        "approximate share of DRAM storage: {:.1}%",
        100.0 * stats.approx_storage_fraction(MemKind::Dram)
    );
    println!("approximate share of FP ops: {:.1}%", 100.0 * stats.approx_op_fraction(OpKind::Fp));

    let energy = rt.energy();
    println!(
        "\nnormalized system energy: {:.3} ({:.1}% saved vs fully precise)",
        energy.total,
        100.0 * energy.savings()
    );
}
