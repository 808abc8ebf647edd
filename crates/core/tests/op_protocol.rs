//! Pins the access protocol of every `Approx` operator family: operand
//! reads from approximate SRAM, operand conditioning, the voltage-scaled
//! unit's result phase and the DRAM-resident heap objects.
//!
//! Each family runs under all three functional-unit error modes at fault
//! rates high enough that every fault stream it touches fires. The test
//! compares a digest of the endorsed result bits, the operation counts, the
//! per-kind fault injections and a digest of the exact storage, fault and
//! energy accounts with constants recorded before the scalar op paths were
//! folded into one (the `Ctx` families: before each mixed-operand and
//! context op became a single machine dispatch). A moved RNG draw, fault
//! countdown, op count or storage charge changes at least one of them. On
//! a mismatch the panic message prints the whole table as measured.

use std::fmt;

use enerj_core::batch::{self, ApproxBuf, BatchOp};
use enerj_core::context::{endorse_ctx, ApproxMode, Ctx, PreciseMode};
use enerj_core::{
    endorse, endorse_checked, in_range, Approx, ApproxPrim, ApproxRecord, ApproxVec, Precise,
    PreciseVec, RecordSchema, Runtime,
};
use enerj_hw::config::{ErrorMode, HwConfig, Level};
use enerj_hw::trace::FaultKind;

/// Loop trips per family: enough for every touched stream to fire at the
/// rates of [`runtime`].
const ITERS: u32 = 48;

/// FNV-1a over 64-bit little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[allow(clippy::cast_possible_truncation)]
    fn wide(&mut self, w: u128) {
        self.word(w as u64);
        self.word((w >> 64) as u64);
    }
}

/// Collects the endorsed bits of every result a family produces.
struct Probe(Digest);

impl Probe {
    fn out<T: ApproxPrim>(&mut self, x: Approx<T>) {
        self.bits(endorse(x));
    }

    fn bits<T: ApproxPrim>(&mut self, x: T) {
        self.0.word(x.to_bits64());
    }
}

/// What one family leaves behind on the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// A table row: `results`, `ops`, `faults`, `accounts`.
const fn pin(results: u64, ops: [u64; 4], faults: [u64; 5], accounts: u64) -> Pin {
    Pin { results, ops, faults, accounts }
}

impl fmt::Display for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pin({:#018x}, {:?}, {:?}, {:#018x})",
            self.results, self.ops, self.faults, self.accounts
        )
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
    let mut probe = Probe(Digest::new());
    rt.run(|| family(&mut probe));
    let s = rt.stats();
    let counters = rt.fault_counters();
    let q = rt.energy_quanta();
    let mut accounts = Digest::new();
    let storage =
        [s.sram_approx_quanta, s.sram_precise_quanta, s.dram_approx_quanta, s.dram_precise_quanta];
    for quanta in storage {
        accounts.wide(quanta.get());
    }
    accounts.word(counters.total_injections());
    for kind in FaultKind::ALL {
        accounts.word(counters.count(kind).bits_flipped);
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
        accounts.wide(quanta.get());
    }
    pin(
        probe.0 .0,
        [s.int_approx_ops, s.int_precise_ops, s.fp_approx_ops, s.fp_precise_ops],
        FaultKind::ALL.map(|k| counters.count(k).injections),
        accounts.0,
    )
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

/// Recorded per family, in `MODES` order.
const PINS: [[Pin; 3]; 11] = [
    // arith
    [
        pin(0x9043619d54ed0c9a, [1440, 0, 1440, 0], [688, 151, 0, 66, 81], 0x61e8812e63af9570),
        pin(0x8f30f7c69f7db8fb, [1440, 0, 1440, 0], [688, 142, 0, 57, 73], 0x20da1e9d152d2076),
        pin(0xffc5bb6ced398fe8, [1440, 0, 1440, 0], [688, 151, 0, 66, 81], 0x23cecbc80cd9e021),
    ],
    // bit
    [
        pin(0xcdf977425392ae4f, [864, 0, 0, 0], [184, 32, 0, 41, 0], 0xeabfc46daa97aa51),
        pin(0x0332453099bf9ad9, [864, 0, 0, 0], [188, 25, 0, 47, 0], 0x779924372180d39c),
        pin(0xc08a38094df04e5f, [864, 0, 0, 0], [184, 32, 0, 41, 0], 0x7e892e490646eff8),
    ],
    // compare
    [
        pin(0x2aefca16a968cea4, [576, 0, 576, 0], [217, 80, 0, 18, 26], 0xc07ad5d60c48c9f4),
        pin(0x6d8097d488959d05, [576, 0, 576, 0], [217, 80, 0, 18, 26], 0x2b22d32d1256ac99),
        pin(0xb0a8bd647b57a005, [576, 0, 576, 0], [219, 76, 0, 19, 30], 0xfbab22b678f7149c),
    ],
    // math
    [
        pin(0xff624d79245c49e6, [0, 0, 576, 0], [122, 24, 0, 0, 21], 0xdbc96e9cb4d9b7f9),
        pin(0x331f03419aeeb819, [0, 0, 576, 0], [107, 26, 0, 0, 19], 0xce13d5b0287fbdc6),
        pin(0xae2c1a2e090bb526, [0, 0, 576, 0], [122, 24, 0, 0, 21], 0xd410252650c74de7),
    ],
    // bool
    [
        pin(0x9798509c93071085, [336, 0, 48, 0], [18, 18, 0, 16, 0], 0xca45376a9ad3286a),
        pin(0x877e1426bda72f04, [336, 0, 48, 0], [13, 17, 0, 19, 0], 0xdf575dbf82b137bb),
        pin(0x27d0f44514870d24, [336, 0, 48, 0], [14, 16, 0, 20, 0], 0xa5c79baf348644d4),
    ],
    // endorse
    [
        pin(0x02a9198b1dbeeea6, [0, 0, 0, 0], [30, 28, 0, 0, 0], 0xc412538f775763cd),
        pin(0x02a9198b1dbeeea6, [0, 0, 0, 0], [30, 28, 0, 0, 0], 0xc412538f775763cd),
        pin(0x02a9198b1dbeeea6, [0, 0, 0, 0], [30, 28, 0, 0, 0], 0xc412538f775763cd),
    ],
    // precise_ctx
    [
        pin(0x4928c24c107f4b0c, [0, 418, 240, 144], [112, 80, 0, 0, 5], 0x9fe2ef95ae3751ad),
        pin(0xe33be755eb6a92ea, [0, 418, 240, 144], [106, 78, 0, 0, 11], 0xb93b3d25438e965c),
        pin(0xa0632560bef7435f, [0, 418, 240, 144], [112, 80, 0, 0, 5], 0x2612499aaacd9834),
    ],
    // heap
    [
        pin(0x04a2b8cf9e5b5d74, [48, 0, 96, 0], [53, 23, 165, 1, 1], 0xd5f740e6fe81eb96),
        pin(0x522774ff2caae0bf, [48, 0, 96, 0], [60, 24, 164, 1, 1], 0x1944f186a7b364f8),
        pin(0x8a60ff10fb12e616, [48, 0, 96, 0], [53, 23, 165, 1, 1], 0x57e50eb83ce5c34c),
    ],
    // batch
    [
        pin(0x17346d62b0732ecc, [960, 0, 2064, 0], [750, 106, 345, 51, 101], 0x937bad45b2adcb16),
        pin(0x4fb553245165d8af, [960, 0, 2064, 0], [729, 106, 342, 57, 91], 0xf30d975d12980599),
        pin(0xb6ca6137ed6426f2, [960, 0, 2064, 0], [750, 106, 345, 51, 101], 0x31ba12a8f00cadee),
    ],
    // ctx_f32
    [
        pin(0x6bf129e65b69a167, [0, 0, 1248, 0], [289, 207, 0, 0, 63], 0xe35927b7dc9d34bb),
        pin(0x98435a598278062e, [0, 0, 1248, 0], [295, 221, 0, 0, 45], 0x6bfc49b98e57fc24),
        pin(0xdacec082aed0146f, [0, 0, 1248, 0], [289, 207, 0, 0, 63], 0x10ee94090d8b4f38),
    ],
    // ctx_i32
    [
        pin(0xa12c5bc96088640f, [672, 0, 0, 0], [167, 131, 0, 27, 0], 0xab7dbac5d2ccedda),
        pin(0xfecf8a46371112b6, [672, 0, 0, 0], [167, 135, 0, 26, 0], 0x9a9018352841368b),
        pin(0x100d21ca504c0b76, [672, 0, 0, 0], [167, 131, 0, 27, 0], 0x31270722a199fd5e),
    ],
];

#[test]
fn every_family_is_pinned_under_every_error_mode() {
    let mut measured = String::new();
    let mut mismatches = Vec::new();
    for ((name, family), pins) in FAMILIES.iter().zip(&PINS) {
        measured.push_str(&format!("    // {name}\n    [\n"));
        for (mode, pin) in MODES.iter().zip(pins) {
            let got = measure(*family, *mode);
            measured.push_str(&format!("        {got},\n"));
            if got != *pin {
                mismatches.push(format!("{name} under {mode:?}"));
            }
        }
        measured.push_str("    ],\n");
    }
    assert!(mismatches.is_empty(), "changed: {mismatches:?}\nmeasured:\n{measured}");
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
