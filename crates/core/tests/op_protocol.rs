//! Pins the access protocol of every `Approx` operator family: operand
//! reads from approximate SRAM, operand conditioning, the voltage-scaled
//! unit's result phase and the DRAM-resident heap objects.
//!
//! Each family runs under all three functional-unit error modes at fault
//! rates high enough that every fault stream it touches fires. One row per
//! (family, mode) holds a digest of the endorsed result bits, the operation
//! counts, the per-kind fault injections and a digest of the exact
//! storage, fault and energy accounts; the table is pinned in
//! `tests/golden/op_protocol.txt`. A moved RNG draw, fault countdown, op
//! count or storage charge changes at least one of them.

use std::fmt;
use std::hash::Hasher;

use enerj_core::batch::{self, ApproxBuf, BatchOp};
use enerj_core::context::{endorse_ctx, ApproxMode, Ctx, PreciseMode};
use enerj_core::{
    endorse, endorse_checked, in_range, Approx, ApproxPrim, ApproxRecord, ApproxVec, Precise,
    PreciseVec, RecordSchema, Runtime,
};
use enerj_hw::config::{ErrorMode, HwConfig, Level};
use enerj_hw::trace::FaultKind;
use enerj_pins::Digest;

/// Loop trips per family: enough for every touched stream to fire at the
/// rates of [`runtime`].
const ITERS: u32 = 48;

/// Collects the endorsed bits of every result a family produces.
struct Probe(Digest);

impl Probe {
    fn out<T: ApproxPrim>(&mut self, x: Approx<T>) {
        self.bits(endorse(x));
    }

    fn bits<T: ApproxPrim>(&mut self, x: T) {
        self.0.write_u64(x.to_bits64());
    }
}

/// What one family leaves behind on the machine.
struct Pin {
    /// Digest of every endorsed result, in program order.
    results: u64,
    /// Int approx, int precise, FP approx and FP precise op counts.
    ops: [u64; 4],
    /// Injections per fault kind, in `FaultKind::ALL` order.
    faults: [u64; 5],
    /// Digest of the storage quanta, the total injections, the bits flipped
    /// per fault kind and every field of the exact energy breakdown.
    accounts: u64,
}

impl fmt::Display for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x} {:?} {:?} {:#018x}", self.results, self.ops, self.faults, self.accounts)
    }
}

fn runtime(mode: ErrorMode) -> Runtime {
    let mut cfg = HwConfig::for_level(Level::Aggressive).with_error_mode(mode);
    cfg.params.timing_error_prob = 0.05;
    cfg.params.sram_read_upset_prob = 2e-3;
    cfg.params.sram_write_failure_prob = 2e-3;
    cfg.params.dram_flip_per_second = 200.0;
    Runtime::with_config(cfg, 0x5EED)
}

/// One operator family: runs its ops under the installed runtime and
/// feeds every result to the probe.
type Family = fn(&mut Probe);

fn measure(family: Family, mode: ErrorMode) -> Pin {
    let rt = runtime(mode);
    let mut probe = Probe(Digest::default());
    rt.run(|| family(&mut probe));
    let s = rt.stats();
    let counters = rt.fault_counters();
    let q = rt.energy_quanta();
    let mut accounts = Digest::default();
    let storage =
        [s.sram_approx_quanta, s.sram_precise_quanta, s.dram_approx_quanta, s.dram_precise_quanta];
    for quanta in storage {
        accounts.write_u128(quanta.get());
    }
    accounts.write_u64(counters.total_injections());
    for kind in FaultKind::ALL {
        accounts.write_u64(counters.count(kind).bits_flipped);
    }
    let energy = [
        q.instructions,
        q.baseline_instructions,
        q.sram,
        q.baseline_sram,
        q.dram,
        q.baseline_dram,
        q.total,
        q.baseline_total,
    ];
    for quanta in energy {
        accounts.write_u128(quanta.get());
    }
    Pin {
        results: probe.0.finish(),
        ops: [s.int_approx_ops, s.int_precise_ops, s.fp_approx_ops, s.fp_precise_ops],
        faults: FaultKind::ALL.map(|k| counters.count(k).injections),
        accounts: accounts.finish(),
    }
}

fn int32(i: u32) -> i32 {
    (i.wrapping_mul(0x9E37_79B9) >> 3) as i32 - 0x0800_0000
}

fn int64(i: u32) -> i64 {
    i64::from(int32(i)) * 0x1_0000_0007
}

/// Small divisors, zero included, so the non-trapping paths run too.
fn small(i: u32) -> i32 {
    (i % 7) as i32 - 3
}

fn real(i: u32) -> f64 {
    f64::from(int32(i)) / 4096.0 + 0.37
}

macro_rules! arith {
    ($p:expr, $t:ty, $a:expr, $b:expr) => {
        for i in 0..ITERS {
            let (x, y): ($t, $t) = ($a(i), $b(i));
            let (ax, ay) = (Approx::new(x), Approx::new(y));
            $p.out(ax + ay);
            $p.out(ax - ay);
            $p.out(ax * ay);
            $p.out(ax / ay);
            $p.out(ax % ay);
            $p.out(-ax);
            $p.out(ax + y);
            $p.out(ax * y);
            $p.out(x - ay);
            $p.out(x / ay);
            let mut acc = ax;
            acc += ay;
            acc -= y;
            acc *= ay;
            acc /= y;
            acc %= ay;
            $p.out(acc);
        }
    };
}

fn arith_family(p: &mut Probe) {
    arith!(p, i32, int32, small);
    arith!(p, i64, int64, |i| i64::from(small(i)));
    arith!(p, f32, |i| real(i) as f32, |i| small(i) as f32);
    arith!(p, f64, real, |i| f64::from(small(i)));
}

macro_rules! bits {
    ($p:expr, $t:ty, $a:expr, $b:expr) => {
        for i in 0..ITERS {
            let (x, y): ($t, $t) = ($a(i), $b(i));
            let (ax, ay) = (Approx::new(x), Approx::new(y));
            $p.out(ax & ay);
            $p.out(ax | ay);
            $p.out(ax ^ ay);
            $p.out(ax & y);
            $p.out(ax << (i % 40));
            $p.out(ax >> (i % 40));
        }
    };
}

fn bit_family(p: &mut Probe) {
    bits!(p, i32, int32, |i| int32(i + 101));
    bits!(p, i64, int64, |i| int64(i + 101));
    bits!(p, u32, |i| int32(i) as u32, |i| int32(i + 7) as u32);
}

macro_rules! compare {
    ($p:expr, $t:ty, $a:expr, $b:expr) => {
        for i in 0..ITERS {
            let (x, y): ($t, $t) = ($a(i), $b(i));
            let (ax, ay) = (Approx::new(x), Approx::new(y));
            $p.out(ax.eq_approx(ay));
            $p.out(ax.ne_approx(y));
            $p.out(ax.lt_approx(ay));
            $p.out(ax.le_approx(y));
            $p.out(ax.gt_approx(ay));
            $p.out(ax.ge_approx(y));
        }
    };
}

fn compare_family(p: &mut Probe) {
    compare!(p, i32, small, |i| small(i / 2));
    compare!(p, i64, |i| i64::from(small(i)), |i| i64::from(small(i + 3)));
    compare!(p, f32, |i| small(i) as f32, |i| small(i / 3) as f32);
    compare!(p, f64, |i| f64::from(small(i)) * 0.5, |i| f64::from(small(i + 1)) * 0.5);
}

macro_rules! intrinsics {
    ($p:expr, $t:ty, $a:expr, $b:expr) => {
        for i in 0..ITERS {
            let (x, y): ($t, $t) = ($a(i), $b(i));
            let (ax, ay) = (Approx::new(x), Approx::new(y));
            $p.out(ax.abs_approx().sqrt_approx());
            $p.out(ax.abs_approx());
            $p.out(ax.floor_approx());
            $p.out(ax.min_approx(ay));
            $p.out(ax.max_approx(y));
        }
    };
}

fn math_family(p: &mut Probe) {
    intrinsics!(p, f32, |i| real(i) as f32, |i| real(i + 5) as f32);
    intrinsics!(p, f64, real, |i| real(i + 5));
}

fn bool_family(p: &mut Probe) {
    for i in 0..ITERS {
        let a = Approx::new(small(i)).lt_approx(0);
        let b = Approx::new(real(i)).gt_approx(0.0);
        let c = Approx::new(i % 3 == 0);
        p.out(a.and_approx(b));
        p.out(a.or_approx(c));
        p.out(b.not_approx());
        p.out(c.and_approx(i % 2 == 0));
        p.out(a.or_approx(b).not_approx());
    }
}

fn endorse_family(p: &mut Probe) {
    for i in 0..ITERS {
        p.bits(Approx::new(int32(i)).endorse());
        p.bits(endorse(Approx::new(real(i))));
        for checked in [
            endorse_checked(Approx::new(real(i)), in_range(-1.0e5, 1.0e5)),
            endorse_checked(Approx::new(f64::from(small(i))), in_range(-1.0, 1.0)),
        ] {
            match checked {
                Ok(x) => p.bits(x),
                Err(_) => p.bits(u64::MAX),
            }
        }
        p.out(Approx::new(int32(i)).widen_i64());
        p.out(Approx::new(real(i) as f32).widen_f64());
    }
}

fn precise_ctx_family(p: &mut Probe) {
    for i in 0..ITERS {
        let (x, y) = (Precise::new(int32(i)), Precise::new(small(i)));
        p.bits((x + y).get());
        p.bits((x * 3).get());
        p.bits((-x).get());
        if y != 0 {
            p.bits((x / y).get());
            p.bits((x % y).get());
        }
        let mut acc = Precise::new(real(i));
        acc += 1.5;
        acc *= Precise::new(real(i + 1));
        acc -= 0.25;
        p.bits(acc.get());

        let a: Ctx<f64, ApproxMode> = Ctx::new(real(i));
        let b: Ctx<f64, ApproxMode> = Approx::new(real(i + 2)).into();
        let mut c = a + b;
        c *= 0.5;
        c -= a;
        c /= b;
        p.bits(endorse_ctx(-c));
        p.out(c.to_approx());

        let m: Ctx<i32, PreciseMode> = Ctx::new(int32(i));
        let mut n = m + 7;
        n *= Ctx::new(small(i));
        n -= m;
        p.bits((-n).into_precise());
    }
}

/// The `Vector3<ApproxMode>` shape of the jMonkeyEngine port: component-
/// wise sub, dot and cross products on `Ctx<f32, ApproxMode>`, plus
/// precise right-hand operands, compound assignment and negation.
fn ctx_f32_family(p: &mut Probe) {
    for i in 0..ITERS {
        let v = |k: u32| -> [Ctx<f32, ApproxMode>; 3] {
            [0, 1, 2].map(|c| Ctx::new(real(3 * i + k + c) as f32))
        };
        let (a, b) = (v(0), v(7));
        let d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        let dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        let cross =
            [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]];
        let mut acc = cross[0] * 0.5 + 1.25;
        acc -= d[1];
        acc *= 2.0;
        acc /= b[2];
        acc += 0.75;
        for x in d.into_iter().chain(cross).chain([dot, dot / d[0], acc, -dot, acc - 3.0]) {
            p.bits(endorse_ctx(x));
        }
    }
}

/// `Ctx<i32, ApproxMode>`: the same operator set on the integer unit,
/// with small divisors (zero included).
fn ctx_i32_family(p: &mut Probe) {
    for i in 0..ITERS {
        let a: Ctx<i32, ApproxMode> = Ctx::new(int32(i));
        let b: Ctx<i32, ApproxMode> = Ctx::new(small(i));
        let c: Ctx<i32, ApproxMode> = Approx::new(int32(i + 9)).into();
        let mut acc = a * b + c;
        acc -= a;
        acc *= 3;
        acc /= b;
        acc += 11;
        for x in [a + b, a - c, a * c, a / b, c / 5, -a, acc, acc * 7 - 2] {
            p.bits(endorse_ctx(x));
        }
        p.out(acc.to_approx());
    }
}

fn heap_family(p: &mut Probe) {
    let schema = RecordSchema::builder("Particle")
        .precise_field::<i64>("id")
        .approx_field::<f64>("a0")
        .approx_field::<f64>("a1")
        .approx_field::<f64>("a2")
        .approx_field::<f64>("a3")
        .approx_field::<f64>("a4")
        .approx_field::<f64>("a5")
        .approx_field::<f64>("a6")
        .approx_field::<i32>("a7")
        .approx_field::<f64>("a8")
        .build();
    let mut v = ApproxVec::<f64>::from_slice(&(0..64).map(real).collect::<Vec<_>>());
    let mut w = ApproxVec::<i32>::from_fn(64, |i| Approx::new(int32(i as u32)));
    let mut pv = PreciseVec::<i64>::from_slice(&(0..64).map(int64).collect::<Vec<_>>());
    let mut rec = ApproxRecord::new(&schema);
    for i in 0..ITERS {
        let k = (i as usize * 5) % 64;
        let x = v.get(k) * 1.25;
        v.set((k + 13) % 64, x);
        p.out(x);
        let y = w.get(k) + w.get((k + 1) % 64);
        w.set(k, y);
        p.out(y);
        let z = pv.get(k).wrapping_add(i64::from(i));
        pv.set(k, z);
        p.bits(z);
        p.bits(pv.get_precise(k).get());
        rec.set_precise("id", i64::from(i));
        let a0 = rec.get_approx::<f64>("a0");
        rec.set_approx("a8", a0 + x);
        rec.set_approx("a0", x);
        rec.set_approx("a7", Approx::new(int32(i)));
        p.out(rec.get_approx::<f64>("a8"));
        p.out(rec.get_approx::<i32>("a7"));
        p.bits(rec.get_precise::<i64>("id"));
    }
    for x in v.endorse_to_vec() {
        p.bits(x);
    }
}

fn batch_family(p: &mut Probe) {
    let mut v = ApproxVec::<f64>::from_slice(&(0..96).map(real).collect::<Vec<_>>());
    for round in 0..ITERS / 8 {
        let start = (round as usize * 11) % 32;
        let a = ApproxBuf::load(&mut v, start, 64);
        let b = ApproxBuf::from_fn(64, |i| Approx::new(real(i as u32 + round)));
        let mut acc = batch::zip(BatchOp::Add, &a, &b);
        for op in [BatchOp::Sub, BatchOp::Mul, BatchOp::Div] {
            acc = batch::zip(op, &acc, &b);
        }
        let scaled = batch::scalar(BatchOp::Mul, &acc, Approx::new(0.5));
        scaled.store(&mut v, start);
        for x in scaled.endorse_to_vec() {
            p.bits(x);
        }
        let ia = ApproxBuf::from_fn(40, |i| Approx::new(int32(i as u32 + round)));
        let ib = ApproxBuf::from_fn(40, |i| Approx::new(small(i as u32)));
        for op in [BatchOp::Add, BatchOp::Sub, BatchOp::Mul, BatchOp::Div] {
            for x in batch::zip(op, &ia, &ib).endorse_to_vec() {
                p.bits(x);
            }
        }
        let fa = ApproxBuf::from_fn(24, |i| Approx::new(real(i as u32) as f32));
        for x in batch::scalar(BatchOp::Div, &fa, Approx::new(small(round) as f32)).endorse_to_vec()
        {
            p.bits(x);
        }
    }
}

const FAMILIES: [(&str, Family); 11] = [
    ("arith", arith_family),
    ("bit", bit_family),
    ("compare", compare_family),
    ("math", math_family),
    ("bool", bool_family),
    ("endorse", endorse_family),
    ("precise_ctx", precise_ctx_family),
    ("heap", heap_family),
    ("batch", batch_family),
    ("ctx_f32", ctx_f32_family),
    ("ctx_i32", ctx_i32_family),
];

const MODES: [ErrorMode; 3] =
    [ErrorMode::SingleBitFlip, ErrorMode::LastValue, ErrorMode::RandomValue];

#[test]
fn every_family_is_pinned_under_every_error_mode() {
    let mut table = String::new();
    for (name, family) in FAMILIES {
        for mode in MODES {
            table.push_str(&format!("{name} {mode:?} {}\n", measure(family, mode)));
        }
    }
    enerj_pins::check(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/op_protocol.txt"), &table);
}

#[test]
fn every_touched_fault_stream_fires() {
    use FaultKind::*;
    let timing = |pin: &Pin, kind: FaultKind| pin.faults[kind.index()];
    for (name, family) in FAMILIES {
        for mode in MODES {
            let pin = measure(family, mode);
            let quiet: Vec<FaultKind> = FaultKind::ALL
                .into_iter()
                .filter(|&k| timing(&pin, k) == 0)
                .filter(|&k| match k {
                    SramReadUpset | SramWriteFailure => true,
                    IntTiming => !matches!(name, "math" | "endorse" | "precise_ctx" | "ctx_f32"),
                    FpTiming => !matches!(name, "bit" | "bool" | "endorse" | "ctx_i32"),
                    DramDecay => matches!(name, "heap" | "batch"),
                })
                .collect();
            assert!(quiet.is_empty(), "{name} under {mode:?}: {quiet:?} never fired");
        }
    }
}
