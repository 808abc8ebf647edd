//! Pins every well-typed FEnerJ program, bit for bit, under fault injection.
//!
//! Each program in `programs/` runs in faulty mode at Mild, Medium and
//! Aggressive for two hardware seeds. One FNV-1a digest per (program, level)
//! covers the main value's bits, every heap slot's bits, the statistics, the
//! exact energy quanta and the per-kind fault counters of both runs. A moved
//! RNG draw, op count, storage access or float payload anywhere in the
//! interpreter changes a digest. The table is pinned in
//! `tests/golden/fault_pins.txt`.

use std::cell::RefCell;
use std::hash::Hasher;
use std::rc::Rc;

use enerj_hw::config::{HwConfig, Level};
use enerj_hw::energy::energy_quanta;
use enerj_hw::trace::FaultKind;
use enerj_hw::Hardware;
use enerj_lang::interp::{run, ExecMode, HeapEntry, RtQual, Value};
use enerj_pins::Digest;

/// Hardware seeds per (program, level).
const SEEDS: [u64; 2] = [0, 1];

fn fold_text(d: &mut Digest, s: &str) {
    d.write_u64(s.len() as u64);
    s.bytes().for_each(|b| d.write_u64(u64::from(b)));
}

fn fold_value(d: &mut Digest, v: &Value) {
    match *v {
        Value::Null => d.write_u64(0),
        Value::Int(i) => {
            d.write_u64(1);
            d.write_u64(i as u64);
        }
        Value::Float(x) => {
            d.write_u64(2);
            d.write_u64(x.to_bits());
        }
        Value::Ref(a) => {
            d.write_u64(3);
            d.write_u64(a as u64);
        }
    }
}

fn fold_heap(d: &mut Digest, heap: &[HeapEntry]) {
    d.write_u64(heap.len() as u64);
    for entry in heap {
        match entry {
            HeapEntry::Object(o) => {
                d.write_u64(0);
                fold_text(d, &o.class);
                d.write_u64(u64::from(o.qual == RtQual::Approx));
                let mut fields: Vec<_> = o.fields.iter().collect();
                fields.sort_by(|a, b| a.0.cmp(b.0));
                d.write_u64(fields.len() as u64);
                for (name, v) in fields {
                    fold_text(d, name);
                    fold_value(d, v);
                }
            }
            HeapEntry::Array(a) => {
                d.write_u64(1);
                d.write_u64(u64::from(a.elem_approx));
                d.write_u64(a.values.len() as u64);
                a.values.iter().for_each(|v| fold_value(d, v));
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
            d.write_u64(0);
            fold_value(d, &out.value);
            fold_heap(d, &out.heap);
        }
        Err(e) => {
            d.write_u64(1);
            fold_text(d, &e.to_string());
        }
    }
    let hw = hw.borrow();
    let s = hw.stats();
    for w in [s.int_approx_ops, s.int_precise_ops, s.fp_approx_ops, s.fp_precise_ops] {
        d.write_u64(w);
    }
    let storage =
        [s.sram_approx_quanta, s.sram_precise_quanta, s.dram_approx_quanta, s.dram_precise_quanta];
    storage.iter().for_each(|q| d.write_u128(q.get()));
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
    energy.iter().for_each(|q| d.write_u128(q.get()));
    for kind in FaultKind::ALL {
        let c = hw.fault_counters().count(kind);
        d.write_u64(c.injections);
        d.write_u64(c.bits_flipped);
    }
}

fn source(name: &str) -> String {
    let path = format!("{}/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

const LEVELS: [Level; 3] = [Level::Mild, Level::Medium, Level::Aggressive];

/// The digest of `source`'s faulty runs at `level` over `seeds`.
fn measure(source: &str, level: Level, seeds: &[u64]) -> u64 {
    let mut d = Digest::default();
    seeds.iter().for_each(|&seed| fold_run(&mut d, source, level, seed));
    d.finish()
}

/// One row per well-typed program in file-name order, in `LEVELS` order.
#[test]
fn every_program_is_pinned_at_every_level() {
    let dir = format!("{}/programs", env!("CARGO_MANIFEST_DIR"));
    let mut well_typed: Vec<String> = std::fs::read_dir(&dir)
        .expect("programs directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".fej") && enerj_lang::compile(&source(name)).is_ok())
        .collect();
    well_typed.sort();
    let mut table = String::new();
    for name in &well_typed {
        let src = source(name);
        let [a, b, c] = LEVELS.map(|level| measure(&src, level, &SEEDS));
        table.push_str(&format!("{name} {a:#018x} {b:#018x} {c:#018x}\n"));
    }
    enerj_pins::check(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fault_pins.txt"), &table);
}

/// `sor.fej` at Aggressive with hardware seed 3: a run whose NaN payloads
/// depend on the first-NaN-operand rule.
#[test]
fn sor_at_aggressive_seed_3_is_pinned() {
    let sor = measure(&source("sor.fej"), Level::Aggressive, &[3]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sor_aggressive_seed_3.txt");
    enerj_pins::check(path, &format!("{sor:#018x}\n"));
}
