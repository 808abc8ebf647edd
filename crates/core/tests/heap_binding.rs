//! Heap objects stay bound to the machine that allocated them.
//!
//! `ApproxVec` and `ApproxRecord` capture the ambient runtime's hardware
//! when they are allocated. Reads, writes and the storage charge at drop go
//! to that machine even when another runtime is installed at the time, so
//! nesting runtimes cannot move DRAM ticks or storage quanta between them.

use enerj_core::{endorse, Approx, ApproxRecord, ApproxVec, RecordSchema, Runtime};
use enerj_hw::config::Level;
use enerj_hw::stats::Stats;

fn schema() -> RecordSchema {
    let mut builder = RecordSchema::builder("Big").precise_field::<i64>("id");
    for name in ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"] {
        builder = builder.approx_field::<f64>(name);
    }
    builder.build()
}

/// Reads, writes and drops the two objects: DRAM traffic only, no
/// register-file access. The results are endorsed by the caller, outside
/// any runtime.
fn use_and_drop(mut v: ApproxVec<f64>, mut rec: ApproxRecord) -> [Approx<f64>; 2] {
    let first = v.get(3);
    v.set(5, first);
    rec.set_approx("a9", v.get(5));
    rec.set_precise("id", 7i64);
    let out = [v.get(5), rec.get_approx("a9")];
    drop(v);
    drop(rec);
    out
}

#[test]
fn heap_objects_charge_the_runtime_that_allocated_them() {
    let schema = schema();

    let outer = Runtime::new(Level::Aggressive, 1);
    let inner = Runtime::new(Level::Aggressive, 2);
    let (v, rec) = outer.run(|| (ApproxVec::<f64>::new(32), ApproxRecord::new(&schema)));
    let got = inner.run(|| use_and_drop(v, rec));

    // The same accesses with `outer`'s twin installed throughout.
    let control = Runtime::new(Level::Aggressive, 1);
    let want = control.run(|| use_and_drop(ApproxVec::new(32), ApproxRecord::new(&schema)));

    assert_eq!(inner.stats(), Stats::default(), "the inner runtime saw none of it");
    assert!(inner.fault_counters().is_empty());
    let s = outer.stats();
    assert!(!s.dram_approx_quanta.is_zero() && !s.dram_precise_quanta.is_zero());
    assert_eq!(s, control.stats(), "every tick and quantum landed on the allocating runtime");
    assert_eq!(outer.energy_quanta(), control.energy_quanta());
    assert_eq!(outer.fault_counters(), control.fault_counters());
    assert_eq!(got.map(|x| endorse(x).to_bits()), want.map(|x| endorse(x).to_bits()));
}
