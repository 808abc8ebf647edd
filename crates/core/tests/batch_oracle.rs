//! Bit-identity oracle for the batched path and the slice transfers.
//!
//! Every batched kernel of `enerj_core::batch` ([`ApproxBuf::load`],
//! [`ApproxBuf::store`], [`ApproxBuf::from_fn`], [`zip`], [`scalar`],
//! [`ApproxBuf::endorse_to_vec`]) runs under a [`Runtime`] and again as a
//! reference on a bare [`Hardware`]: the per-element public entry points in
//! the kernel's phase order (all register reads of `a`, then all of `b`,
//! conditioning, compute, then every result phase; DRAM through
//! `DramArray`'s slice calls). The four slice transfers
//! (`ApproxVec::from_slice` / `endorse_to_vec`, `PreciseVec::from_slice` /
//! `to_vec`) run against the per-element loops they replace. Each pair must
//! agree on every value bit, the statistics, the exact energy quanta and
//! the fault counters, and then on a fixed tail of ops, which shows that
//! the fault streams and the RNG continue the same way.
//!
//! The runs use the Aggressive level with every strategy on, under each
//! functional-unit error mode, at lengths around the 32- and 128-element
//! boundaries. A watchdog armed to trip inside a load, a store and a `zip`
//! must trip at the same op-tick and leave the same partial accounts, and
//! an array endorsed under a nested runtime must split its charges between
//! its own machine and the installed one as the per-element loop does.

use std::panic::{catch_unwind, AssertUnwindSafe};

use enerj_core::batch::{scalar, zip, ApproxBuf, BatchOp};
use enerj_core::{
    endorse, Approx, ApproxArith, ApproxPrim, ApproxVec, Degraded, Precise, PreciseVec, Runtime,
};
use enerj_hw::energy::{energy_quanta, EnergyQuantaBreakdown};
use enerj_hw::{
    DramArray, ErrorMode, FaultCounters, Hardware, HwConfig, Level, OpKind, Stats, StrategyMask,
};

const LENGTHS: [usize; 9] = [0, 1, 31, 32, 33, 127, 128, 129, 300];
const OPS: [BatchOp; 4] = [BatchOp::Add, BatchOp::Sub, BatchOp::Mul, BatchOp::Div];
const SEED: u64 = 0x0B5E_55ED;
/// Precise ops between a store and the load that reads it back, so DRAM
/// decay has time to act.
const IDLE: u64 = 5_000;
/// Elements of the array ahead of the stored run: the load starts inside
/// that gap, so it also reads never-written elements.
const OFFSET: usize = 5;

fn config(mode: ErrorMode) -> HwConfig {
    HwConfig::for_level(Level::Aggressive).with_error_mode(mode)
}

/// Everything a machine's accounts hold.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Accounts {
    stats: Stats,
    quanta: EnergyQuantaBreakdown,
    counters: FaultCounters,
}

impl Accounts {
    fn of_runtime(rt: &Runtime) -> Self {
        Accounts { stats: rt.stats(), quanta: rt.energy_quanta(), counters: rt.fault_counters() }
    }

    fn of_hw(hw: &Hardware) -> Self {
        Accounts {
            stats: hw.stats(),
            quanta: energy_quanta(&hw.stats(), &hw.config().params),
            counters: *hw.fault_counters(),
        }
    }
}

/// An element type under test, with deterministic sample data.
trait Sample: ApproxPrim {
    /// The `i`th sample of stream `salt`. Floating-point streams carry a
    /// NaN with its own payload every seventh element.
    fn sample(i: usize, salt: u64) -> Self;
}

fn mix(i: usize, salt: u64) -> u64 {
    let mut z = (i as u64 ^ salt.rotate_left(17)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Sample for f64 {
    fn sample(i: usize, salt: u64) -> Self {
        let z = mix(i, salt);
        if i % 7 == 3 {
            f64::from_bits(0x7FF0_0000_0000_0001 | (z & 0x000F_FFFF_FFFF_FFFF))
        } else {
            (z >> 11) as f64 / (1u64 << 40) as f64 - 4096.0
        }
    }
}

impl Sample for f32 {
    fn sample(i: usize, salt: u64) -> Self {
        let z = mix(i, salt);
        if i % 7 == 3 {
            f32::from_bits(0x7F80_0001 | (z as u32 & 0x007F_FFFF))
        } else {
            (z >> 40) as f32 / 4096.0 - 2048.0
        }
    }
}

impl Sample for i32 {
    fn sample(i: usize, salt: u64) -> Self {
        // Every fifth element is zero, so division meets zero divisors.
        if i % 5 == 2 {
            0
        } else {
            mix(i, salt) as i32
        }
    }
}

impl Sample for u8 {
    fn sample(i: usize, salt: u64) -> Self {
        if i % 5 == 2 {
            0
        } else {
            mix(i, salt) as u8
        }
    }
}

impl Sample for bool {
    fn sample(i: usize, salt: u64) -> Self {
        mix(i, salt) & 1 == 1
    }
}

fn samples<T: Sample>(n: usize, salt: u64) -> Vec<T> {
    (0..n).map(|i| T::sample(i, salt)).collect()
}

fn bits<T: ApproxPrim>(xs: &[T]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits64()).collect()
}

/// `Approx::new(x)` on a bare machine: the register-file write.
fn store_hw<T: ApproxPrim>(hw: &mut Hardware, x: T) -> T {
    T::from_bits64(hw.sram_write(x.to_bits64(), T::WIDTH, true))
}

/// `endorse(x)` on a bare machine: the final register-file read.
fn load_hw<T: ApproxPrim>(hw: &mut Hardware, x: T) -> T {
    T::from_bits64(hw.sram_read(x.to_bits64(), T::WIDTH, true))
}

/// The element operation.
fn apply<T: ApproxArith>(op: BatchOp, a: T, b: T) -> T {
    match op {
        BatchOp::Add => T::approx_add(a, b),
        BatchOp::Sub => T::approx_sub(a, b),
        BatchOp::Mul => T::approx_mul(a, b),
        BatchOp::Div => T::approx_div(a, b),
    }
}

/// [`zip`] on a bare machine, phase by phase: per-element register reads
/// and conditioning, then the unit's result phase.
fn zip_hw<T: ApproxArith>(hw: &mut Hardware, op: BatchOp, a: &[T], b: &[T]) -> Vec<T> {
    let ra: Vec<T> = a.iter().map(|&x| load_hw(hw, x)).collect();
    let ra: Vec<T> = ra.into_iter().map(|x| T::condition_operand(hw, x)).collect();
    let rb: Vec<T> = b.iter().map(|&x| load_hw(hw, x)).collect();
    let rb: Vec<T> = rb.into_iter().map(|x| T::condition_operand(hw, x)).collect();
    let mut raw: Vec<u64> =
        ra.iter().zip(&rb).map(|(&x, &y)| apply(op, x, y).to_bits64()).collect();
    // The result phase through the unit's slice entry, which counts the
    // batch's ops only once its ticks have passed the watchdog.
    match T::OP_KIND {
        OpKind::Int => hw.approx_int_result_slice(&mut raw, T::WIDTH),
        OpKind::Fp => hw.approx_fp_result_slice(&mut raw, T::WIDTH),
    }
    raw.into_iter().map(T::from_bits64).collect()
}

/// A fixed run of integer and floating-point ops after the code under
/// test: through the public operators under a runtime...
fn tail() -> Vec<u64> {
    let mut seen = Vec::new();
    for i in 0..48i64 {
        let k = Approx::new(i);
        seen.push(endorse(k + k) as u64);
        let x = Approx::new(i as f64 + 0.5);
        seen.push(endorse(x + 0.25).to_bits());
    }
    seen
}

/// ...and the same ops on a bare machine.
fn tail_hw(hw: &mut Hardware) -> Vec<u64> {
    let mut seen = Vec::new();
    for i in 0..48i64 {
        let k = store_hw(hw, i);
        let (a, b) = (load_hw(hw, k), load_hw(hw, k));
        let sum = i64::from_bits64(hw.approx_int_result(a.wrapping_add(b).to_bits64(), 64));
        seen.push(load_hw(hw, sum) as u64);
        let x = store_hw(hw, i as f64 + 0.5);
        let q = store_hw(hw, 0.25f64);
        let (a, b) = (load_hw(hw, x), load_hw(hw, q));
        let (a, b) = (hw.approx_f64_operand(a), hw.approx_f64_operand(b));
        let r = hw.approx_f64_result(a + b);
        seen.push(load_hw(hw, r).to_bits());
    }
    seen
}

/// `IDLE` precise additions, as `Precise<i64> += i64` runs them after the
/// counter's reliable register write: two reliable register reads and one
/// precise op each.
fn idle() {
    let mut sum = Precise::new(0i64);
    for i in 0..IDLE {
        sum += i as i64;
    }
}

/// [`idle`] on a bare machine.
fn idle_hw(hw: &mut Hardware) {
    hw.sram_write(0, 64, false);
    for _ in 0..IDLE {
        hw.sram_read(0, 64, false);
        hw.sram_read(0, 64, false);
        hw.precise_op(OpKind::Int);
    }
}

/// Op-tick marks a reference run records, to aim the watchdog.
#[derive(Debug, Default)]
struct Marks {
    store: (u64, u64),
    load: (u64, u64),
    zip: (u64, u64),
}

/// The data-movement kernels, batched under the installed runtime:
/// `from_fn`, `store`, `load`, `get`, `endorse_to_vec`.
fn moves<T: Sample>(n: usize) -> Vec<u64> {
    let data: Vec<T> = samples(n, 1);
    let mut v = ApproxVec::<T>::new(n + OFFSET);
    let staged = ApproxBuf::from_fn(n, |i| Approx::new(data[i]));
    staged.store(&mut v, OFFSET);
    idle();
    let loaded = ApproxBuf::load(&mut v, OFFSET - 3, n);
    let mut seen: Vec<u64> = (0..n).map(|i| endorse(loaded.get(i)).to_bits64()).collect();
    seen.extend(bits(&loaded.endorse_to_vec()));
    seen
}

/// [`moves`] on a bare machine.
fn moves_hw<T: Sample>(hw: &mut Hardware, n: usize, marks: &mut Marks) -> Vec<u64> {
    let data: Vec<T> = samples(n, 1);
    let mut arr = DramArray::new(hw, n + OFFSET, T::WIDTH.max(8), true);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let staged: Vec<u64> = data.iter().map(|&x| store_hw(hw, x).to_bits64()).collect();
        let t = hw.op_ticks();
        arr.write_slice(hw, OFFSET, &staged);
        marks.store = (t, hw.op_ticks());
        idle_hw(hw);
        let mut loaded = vec![0u64; n];
        let t = hw.op_ticks();
        arr.read_slice(hw, OFFSET - 3, &mut loaded);
        marks.load = (t, hw.op_ticks());
        let loaded: Vec<T> = loaded.into_iter().map(T::from_bits64).collect();
        let mut seen = Vec::new();
        for _ in 0..2 {
            let endorsed: Vec<T> = loaded.iter().map(|&x| load_hw(hw, x)).collect();
            seen.extend(bits(&endorsed));
        }
        seen
    }));
    arr.retire(hw);
    result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// The arithmetic kernels, batched: `zip` with every op, `scalar` with
/// every op, and an endorsement of a result.
fn arith<T: Sample + ApproxArith>(n: usize) -> Vec<u64> {
    let (da, db): (Vec<T>, Vec<T>) = (samples(n, 2), samples(n, 3));
    let a = ApproxBuf::from_fn(n, |i| Approx::new(da[i]));
    let b = ApproxBuf::from_fn(n, |i| Approx::new(db[i]));
    let mut seen = Vec::new();
    for op in OPS {
        seen.extend(bits(&zip(op, &a, &b).endorse_to_vec()));
    }
    for (j, op) in OPS.into_iter().enumerate() {
        let c = scalar(op, &a, Approx::new(T::sample(j, 4)));
        seen.extend((0..n).map(|i| endorse(c.get(i)).to_bits64()));
    }
    let chained = zip(BatchOp::Mul, &zip(BatchOp::Sub, &a, &b), &a);
    seen.extend(bits(&chained.endorse_to_vec()));
    seen
}

/// [`arith`] on a bare machine.
fn arith_hw<T: Sample + ApproxArith>(hw: &mut Hardware, n: usize, marks: &mut Marks) -> Vec<u64> {
    let (da, db): (Vec<T>, Vec<T>) = (samples(n, 2), samples(n, 3));
    let a: Vec<T> = da.iter().map(|&x| store_hw(hw, x)).collect();
    let b: Vec<T> = db.iter().map(|&x| store_hw(hw, x)).collect();
    let mut seen = Vec::new();
    for op in OPS {
        let t = hw.op_ticks();
        let c = zip_hw(hw, op, &a, &b);
        if op == BatchOp::Add {
            marks.zip = (t, hw.op_ticks());
        }
        let endorsed: Vec<T> = c.iter().map(|&x| load_hw(hw, x)).collect();
        seen.extend(bits(&endorsed));
    }
    for (j, op) in OPS.into_iter().enumerate() {
        let s = store_hw(hw, T::sample(j, 4));
        let c = zip_hw(hw, op, &a, &vec![s; n]);
        let endorsed: Vec<T> = c.iter().map(|&x| load_hw(hw, x)).collect();
        seen.extend(bits(&endorsed));
    }
    let diff = zip_hw(hw, BatchOp::Sub, &a, &b);
    let chained = zip_hw(hw, BatchOp::Mul, &diff, &a);
    let endorsed: Vec<T> = chained.iter().map(|&x| load_hw(hw, x)).collect();
    seen.extend(bits(&endorsed));
    seen
}

/// Runs `batched` under a fresh runtime and `reference` on a bare machine
/// with the same configuration and seed, then the tail on both, and
/// asserts they agree.
fn check(
    what: &str,
    mode: ErrorMode,
    batched: impl FnOnce() -> Vec<u64>,
    reference: impl FnOnce(&mut Hardware) -> Vec<u64>,
) {
    let rt = Runtime::with_config(config(mode), SEED);
    let (got, got_tail) = rt.run(|| (batched(), tail()));
    let mut hw = Hardware::new(config(mode), SEED);
    let want = reference(&mut hw);
    let want_tail = tail_hw(&mut hw);
    assert_eq!(got, want, "{what}: values");
    assert_eq!(Accounts::of_runtime(&rt), Accounts::of_hw(&hw), "{what}: accounts");
    assert_eq!(got_tail, want_tail, "{what}: tail");
}

fn check_moves<T: Sample>() {
    for mode in ErrorMode::ALL {
        for n in LENGTHS {
            let what = format!("moves<{}> n={n} {mode:?}", std::any::type_name::<T>());
            check(&what, mode, || moves::<T>(n), |hw| moves_hw::<T>(hw, n, &mut Marks::default()));
        }
    }
}

fn check_arith<T: Sample + ApproxArith>() {
    for mode in ErrorMode::ALL {
        for n in LENGTHS {
            let what = format!("arith<{}> n={n} {mode:?}", std::any::type_name::<T>());
            check(&what, mode, || arith::<T>(n), |hw| arith_hw::<T>(hw, n, &mut Marks::default()));
        }
    }
}

#[test]
fn data_movement_kernels_match_the_reference_bit_for_bit() {
    check_moves::<f64>();
    check_moves::<f32>();
    check_moves::<i32>();
    check_moves::<u8>();
    check_moves::<bool>();
}

#[test]
fn arithmetic_kernels_match_the_reference_bit_for_bit() {
    check_arith::<f64>();
    check_arith::<f32>();
    check_arith::<i32>();
    check_arith::<u8>();
}

/// The four slice transfers, then the per-element loops they replace.
fn transfers<T: Sample>(n: usize, one_dispatch: bool) -> Vec<u64> {
    let data: Vec<T> = samples(n, 5);
    let ids: Vec<i64> = (0..n as i64).map(|i| i * 3 - 7).collect();
    let (mut v, mut p) = if one_dispatch {
        (ApproxVec::from_slice(&data), PreciseVec::from_slice(&ids))
    } else {
        let mut v = ApproxVec::new(n);
        for (i, &x) in data.iter().enumerate() {
            v.set(i, Approx::new(x));
        }
        let mut p = PreciseVec::new(n);
        for (i, &x) in ids.iter().enumerate() {
            p.set(i, x);
        }
        (v, p)
    };
    idle();
    let (out, back): (Vec<T>, Vec<i64>) = if one_dispatch {
        (v.endorse_to_vec(), p.to_vec())
    } else {
        ((0..n).map(|i| endorse(v.get(i))).collect(), (0..n).map(|i| p.get(i)).collect())
    };
    let mut seen = bits(&out);
    seen.extend(back.iter().map(|&x| x as u64));
    seen
}

fn check_transfers<T: Sample>() {
    for mode in ErrorMode::ALL {
        for n in LENGTHS {
            let what = format!("transfers<{}> n={n} {mode:?}", std::any::type_name::<T>());
            let run = |one_dispatch: bool| {
                let rt = Runtime::with_config(config(mode), SEED);
                let seen = rt.run(|| (transfers::<T>(n, one_dispatch), tail()));
                (seen, Accounts::of_runtime(&rt))
            };
            assert_eq!(run(true), run(false), "{what}");
        }
    }
}

#[test]
fn slice_transfers_match_the_per_element_loops() {
    check_transfers::<f64>();
    check_transfers::<f32>();
    check_transfers::<i32>();
    check_transfers::<u8>();
    check_transfers::<bool>();
}

/// Runs `batched` under a watchdog of `budget` op-ticks and `reference`
/// under the same deadline, and asserts both trip at the same op-tick with
/// the same partial accounts.
fn check_trip(
    what: &str,
    budget: u64,
    batched: impl FnOnce() -> Vec<u64>,
    reference: impl FnOnce(&mut Hardware) -> Vec<u64>,
) {
    let mode = ErrorMode::RandomValue;
    let rt = Runtime::with_config(config(mode), SEED);
    let got = rt.run_guarded(budget, batched);
    let Err(Degraded::OpBudgetExceeded { op_ticks, .. }) = &got else {
        panic!("{what}: the runtime did not trip: {got:?}");
    };
    let mut hw = Hardware::new(config(mode), SEED);
    hw.arm_watchdog(budget);
    let payload = catch_unwind(AssertUnwindSafe(|| reference(&mut hw)))
        .expect_err("the reference did not trip");
    let trip = payload.downcast_ref::<enerj_hw::WatchdogTrip>().expect("a watchdog trip");
    assert_eq!(*op_ticks, trip.op_ticks, "{what}: trip tick");
    assert_eq!(Accounts::of_runtime(&rt), Accounts::of_hw(&hw), "{what}");
}

#[test]
fn watchdog_trips_inside_kernels_at_the_reference_tick() {
    enerj_hw::silence_watchdog_panics();
    for n in [33usize, 300] {
        let fresh = || Hardware::new(config(ErrorMode::RandomValue), SEED);
        let mut marks = Marks::default();
        moves_hw::<f64>(&mut fresh(), n, &mut marks);
        let mut zip_marks = Marks::default();
        arith_hw::<f64>(&mut fresh(), n, &mut zip_marks);
        for (kernel, (from, to)) in [("store", marks.store), ("load", marks.load)] {
            assert_eq!(to - from, n as u64, "{kernel} ticks once per element");
            let budget = from + n as u64 / 2;
            let what = format!("trip in {kernel} n={n}");
            check_trip(
                &what,
                budget,
                || moves::<f64>(n),
                |hw| moves_hw::<f64>(hw, n, &mut Marks::default()),
            );
        }
        let (from, to) = zip_marks.zip;
        assert_eq!(to - from, n as u64, "zip ticks once per element");
        check_trip(
            &format!("trip in zip n={n}"),
            from + n as u64 / 2,
            || arith::<f64>(n),
            |hw| arith_hw::<f64>(hw, n, &mut Marks::default()),
        );
    }
}

#[test]
fn nested_runtime_endorsement_splits_charges_like_the_loop() {
    fn nested(home: &Runtime, inner: &Runtime, one_dispatch: bool) -> Vec<u64> {
        let data: Vec<f64> = samples(129, 6);
        home.run(|| {
            let mut v = ApproxVec::from_slice(&data);
            idle();
            let out: Vec<f64> = inner.run(|| {
                if one_dispatch {
                    v.endorse_to_vec()
                } else {
                    (0..v.len()).map(|i| endorse(v.get(i))).collect()
                }
            });
            bits(&out)
        })
    }
    let machines = || {
        (
            Runtime::with_config(config(ErrorMode::RandomValue), SEED),
            Runtime::with_config(config(ErrorMode::RandomValue), SEED ^ 1),
        )
    };
    let (home, inner) = machines();
    let got = nested(&home, &inner, true);
    let (loop_home, loop_inner) = machines();
    let want = nested(&loop_home, &loop_inner, false);
    assert_eq!(got, want);
    assert_eq!(Accounts::of_runtime(&home), Accounts::of_runtime(&loop_home));
    assert_eq!(Accounts::of_runtime(&inner), Accounts::of_runtime(&loop_inner));
    // The DRAM reads landed on the home machine, the register reads on the
    // installed one.
    assert_eq!(inner.stats().int_precise_ops, 0);
    assert!(!inner.stats().sram_approx_quanta.is_zero());
}

/// `a op b` through the scalar operators.
fn scalar_op<T: ApproxArith>(op: BatchOp, a: T, b: T) -> T {
    let (a, b) = (Approx::new(a), Approx::new(b));
    endorse(match op {
        BatchOp::Add => a + b,
        BatchOp::Sub => a - b,
        BatchOp::Mul => a * b,
        BatchOp::Div => a / b,
    })
}

/// Every op on every pair of `values` agrees bit for bit between the
/// scalar operators, `zip` and `scalar`.
fn check_nan_rule<T: ApproxArith>(values: &[T]) {
    for op in OPS {
        for &a in values {
            for &b in values {
                let want = scalar_op(op, a, b).to_bits64();
                let xs = ApproxBuf::from_fn(1, |_| Approx::new(a));
                let ys = ApproxBuf::from_fn(1, |_| Approx::new(b));
                let zipped = endorse(zip(op, &xs, &ys).get(0)).to_bits64();
                let broadcast = endorse(scalar(op, &xs, Approx::new(b)).get(0)).to_bits64();
                let what = format!("{op:?} on {:#x}, {:#x}", a.to_bits64(), b.to_bits64());
                assert_eq!(zipped, want, "zip: {what}");
                assert_eq!(broadcast, want, "scalar: {what}");
            }
        }
    }
}

/// The scalar operators and the batched kernels apply one NaN rule, with
/// no runtime and under one whose strategies are all masked off: NaN
/// operands with distinct payloads, signalling and quiet, meet each other,
/// zeros, finite values and infinities under all four ops (`NaN ÷ 0`
/// included).
#[test]
fn scalar_and_batched_ops_agree_on_nan_payloads() {
    let f64s = [
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::from_bits(0xFFF8_0000_0000_BEEF),
        f64::NAN,
        0.0,
        -0.0,
        1.5,
        f64::INFINITY,
    ];
    let f32s = [f32::from_bits(0x7F80_0001), f32::from_bits(0xFFC0_BEEF), f32::NAN, 0.0, -0.0, 1.5];
    check_nan_rule(&f64s);
    check_nan_rule(&f32s);
    let masked = HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE);
    Runtime::with_config(masked, SEED).run(|| {
        check_nan_rule(&f64s);
        check_nan_rule(&f32s);
    });
}
