//! Pins every registered app, bit for bit, at each Table 2 level.
//!
//! Each app runs under full fault injection at Mild, Medium and Aggressive
//! for two evaluation seeds through `harness::measure_with_telemetry`. One
//! FNV-1a digest per (app, level) covers the output bits, the statistics,
//! the exact energy quanta and the per-kind fault counters of both runs.
//! The table, one app per line in `LEVELS` order, is pinned in
//! `tests/golden/app_pins.txt`; a moved RNG draw, fault countdown, op count
//! or storage charge anywhere in a real trial changes its digest.

use std::hash::Hasher;

use enerj_apps::harness::{self, FAULT_SEED_BASE};
use enerj_apps::qos::Output;
use enerj_apps::{all_apps, App};
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::trace::FaultKind;
use enerj_pins::Digest;

/// Evaluation seeds per (app, level): `FAULT_SEED_BASE ^ run`.
const RUNS: u64 = 2;

fn fold_output(d: &mut Digest, out: &Output) {
    match out {
        Output::Values(v) => {
            d.write_u64(0);
            d.write_u64(v.len() as u64);
            v.iter().for_each(|x| d.write_u64(x.to_bits()));
        }
        Output::Text(text) => {
            d.write_u64(1);
            match text {
                Some(s) => {
                    d.write_u64(s.len() as u64);
                    s.bytes().for_each(|b| d.write_u64(u64::from(b)));
                }
                None => d.write_u64(u64::MAX),
            }
        }
        Output::Decisions(v) => {
            d.write_u64(2);
            d.write_u64(v.len() as u64);
            v.iter().for_each(|&b| d.write_u64(u64::from(b)));
        }
    }
}

/// The digest of `app`'s trials at `level`.
fn measure(app: &App, level: Level) -> u64 {
    let mut d = Digest::default();
    for run in 0..RUNS {
        let m = harness::measure_with_telemetry(
            app,
            HwConfig::for_level(level),
            FAULT_SEED_BASE ^ run,
            false,
        );
        fold_output(&mut d, &m.output);
        let s = m.stats;
        for w in [s.int_approx_ops, s.int_precise_ops, s.fp_approx_ops, s.fp_precise_ops] {
            d.write_u64(w);
        }
        let storage = [
            s.sram_approx_quanta,
            s.sram_precise_quanta,
            s.dram_approx_quanta,
            s.dram_precise_quanta,
        ];
        storage.iter().for_each(|q| d.write_u128(q.get()));
        d.write_u64(m.fault_counts.total_injections());
        let q = m.energy_quanta;
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
            let c = m.fault_counts.count(kind);
            d.write_u64(c.injections);
            d.write_u64(c.bits_flipped);
        }
    }
    d.finish()
}

const LEVELS: [Level; 3] = [Level::Mild, Level::Medium, Level::Aggressive];

#[test]
fn every_app_is_pinned_at_every_level() {
    let mut table = String::new();
    for app in all_apps() {
        let [a, b, c] = LEVELS.map(|level| measure(&app, level));
        table.push_str(&format!("{} {a:#018x} {b:#018x} {c:#018x}\n", app.meta.name));
    }
    enerj_pins::check(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/app_pins.txt"), &table);
}
