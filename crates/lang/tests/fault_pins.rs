//! Pins every well-typed FEnerJ program, bit for bit, under fault injection.
//!
//! Each program in `programs/` runs in faulty mode at Mild, Medium and
//! Aggressive for two hardware seeds. One FNV-1a digest per (program, level)
//! covers the main value's bits, every heap slot's bits, the statistics, the
//! exact energy quanta and the per-kind fault counters of both runs. A moved
//! RNG draw, op count, storage access or float payload anywhere in the
//! interpreter changes a digest. On a mismatch the panic message prints the
//! whole table as measured.

use std::cell::RefCell;
use std::rc::Rc;

use enerj_hw::config::{HwConfig, Level};
use enerj_hw::energy::energy_quanta;
use enerj_hw::trace::FaultKind;
use enerj_hw::Hardware;
use enerj_lang::interp::{run, ExecMode, HeapEntry, RtQual, Value};

/// Hardware seeds per (program, level).
const SEEDS: [u64; 2] = [0, 1];

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

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }

    fn value(&mut self, v: &Value) {
        match *v {
            Value::Null => self.word(0),
            Value::Int(i) => {
                self.word(1);
                self.word(i as u64);
            }
            Value::Float(x) => {
                self.word(2);
                self.word(x.to_bits());
            }
            Value::Ref(a) => {
                self.word(3);
                self.word(a as u64);
            }
        }
    }

    fn heap(&mut self, heap: &[HeapEntry]) {
        self.word(heap.len() as u64);
        for entry in heap {
            match entry {
                HeapEntry::Object(o) => {
                    self.word(0);
                    self.text(&o.class);
                    self.word(u64::from(o.qual == RtQual::Approx));
                    let mut fields: Vec<_> = o.fields.iter().collect();
                    fields.sort_by(|a, b| a.0.cmp(b.0));
                    self.word(fields.len() as u64);
                    for (name, v) in fields {
                        self.text(name);
                        self.value(v);
                    }
                }
                HeapEntry::Array(a) => {
                    self.word(1);
                    self.word(u64::from(a.elem_approx));
                    self.word(a.values.len() as u64);
                    a.values.iter().for_each(|v| self.value(v));
                }
            }
        }
    }
}

/// Folds one faulty run of `source` at `level` with hardware seed `seed`
/// into `d`.
fn fold_run(d: &mut Digest, source: &str, level: Level, seed: u64) {
    let program = enerj_lang::compile(source).expect("well-typed");
    let hw = Rc::new(RefCell::new(Hardware::new(HwConfig::for_level(level), seed)));
    match run(&program, ExecMode::Faulty(Rc::clone(&hw))) {
        Ok(out) => {
            d.word(0);
            d.value(&out.value);
            d.heap(&out.heap);
        }
        Err(e) => {
            d.word(1);
            d.text(&e.to_string());
        }
    }
    let hw = hw.borrow();
    let s = hw.stats();
    for w in [s.int_approx_ops, s.int_precise_ops, s.fp_approx_ops, s.fp_precise_ops] {
        d.word(w);
    }
    let storage =
        [s.sram_approx_quanta, s.sram_precise_quanta, s.dram_approx_quanta, s.dram_precise_quanta];
    storage.iter().for_each(|q| d.wide(q.get()));
    let q = energy_quanta(&s, &hw.config().params);
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
    energy.iter().for_each(|q| d.wide(q.get()));
    for kind in FaultKind::ALL {
        let c = hw.fault_counters().count(kind);
        d.word(c.injections);
        d.word(c.bits_flipped);
    }
}

fn source(name: &str) -> String {
    let path = format!("{}/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

const LEVELS: [Level; 3] = [Level::Mild, Level::Medium, Level::Aggressive];

/// Recorded per well-typed program in file-name order, in `LEVELS` order.
const PINS: [(&str, [u64; 3]); 6] = [
    ("checksum.fej", [0xe08679a678a4bb5d, 0x452f9f6c953d8fbd, 0x3b24b49ad803d0a5]),
    ("isolated.fej", [0xe50c461efe29509d, 0xf3b6c1854574b765, 0x2ac07baa52de87fb]),
    ("mean.fej", [0x7b32a8113edcfc85, 0x6885bee535e9d4b5, 0xc49de9a951ea338f]),
    ("montecarlo.fej", [0xba62b1c1e4007015, 0x5e0522847f753986, 0xa715babd1f2b2403]),
    ("sor.fej", [0xa29d3fe094b31145, 0x02d78e174dc71305, 0xd2f1628f65ee8846]),
    ("wht.fej", [0x401d29c6258c1f55, 0x81824ee797f50d71, 0xb3565509c83715a3]),
];

/// `sor.fej` at Aggressive, hardware seed 3: a run whose NaN payloads
/// depend on the first-NaN-operand rule.
const SOR_AGGRESSIVE_SEED_3: u64 = 0x65908ff4263ba533;

#[test]
fn every_program_is_pinned_at_every_level() {
    let dir = format!("{}/programs", env!("CARGO_MANIFEST_DIR"));
    let mut well_typed: Vec<String> = std::fs::read_dir(&dir)
        .expect("programs directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".fej") && enerj_lang::compile(&source(name)).is_ok())
        .collect();
    well_typed.sort();
    let names: Vec<&str> = PINS.iter().map(|(name, _)| *name).collect();
    assert_eq!(well_typed, names, "every well-typed program has a row");

    let mut measured = String::new();
    let mut mismatches = Vec::new();
    for (name, pins) in &PINS {
        let src = source(name);
        let got = LEVELS.map(|level| {
            let mut d = Digest::new();
            SEEDS.iter().for_each(|&seed| fold_run(&mut d, &src, level, seed));
            d.0
        });
        measured.push_str(&format!(
            "    ({name:?}, [{:#018x}, {:#018x}, {:#018x}]),\n",
            got[0], got[1], got[2]
        ));
        for ((level, g), want) in LEVELS.iter().zip(got).zip(pins) {
            if g != *want {
                mismatches.push(format!("{name} at {level}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "changed: {mismatches:?}\nmeasured:\n{measured}");
}

#[test]
fn sor_at_aggressive_seed_3_is_pinned() {
    let mut d = Digest::new();
    fold_run(&mut d, &source("sor.fej"), Level::Aggressive, 3);
    assert_eq!(d.0, SOR_AGGRESSIVE_SEED_3, "measured {:#018x}", d.0);
}
