//! Pins every registered app, bit for bit, at each Table 2 level.
//!
//! Each app runs under full fault injection at Mild, Medium and Aggressive
//! for two evaluation seeds through `harness::measure_with_telemetry`. One
//! FNV-1a digest per (app, level) covers the output bits, the statistics,
//! the exact energy quanta and the per-kind fault counters of both runs.
//! The constants were recorded before the runtime's per-op dispatch was
//! reworked; a moved RNG draw, fault countdown, op count or storage charge
//! anywhere in a real trial changes its digest. On a mismatch the panic
//! message prints the whole table as measured.

use enerj_apps::harness::{self, FAULT_SEED_BASE};
use enerj_apps::qos::Output;
use enerj_apps::{all_apps, App};
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::trace::FaultKind;

/// Evaluation seeds per (app, level): `FAULT_SEED_BASE ^ run`.
const RUNS: u64 = 2;

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

    fn output(&mut self, out: &Output) {
        match out {
            Output::Values(v) => {
                self.word(0);
                self.word(v.len() as u64);
                v.iter().for_each(|x| self.word(x.to_bits()));
            }
            Output::Text(text) => {
                self.word(1);
                match text {
                    Some(s) => {
                        self.word(s.len() as u64);
                        s.bytes().for_each(|b| self.word(u64::from(b)));
                    }
                    None => self.word(u64::MAX),
                }
            }
            Output::Decisions(d) => {
                self.word(2);
                self.word(d.len() as u64);
                d.iter().for_each(|&b| self.word(u64::from(b)));
            }
        }
    }
}

/// The digest of `app`'s trials at `level`.
fn measure(app: &App, level: Level) -> u64 {
    let mut d = Digest::new();
    for run in 0..RUNS {
        let m = harness::measure_with_telemetry(
            app,
            HwConfig::for_level(level),
            FAULT_SEED_BASE ^ run,
            false,
        );
        d.output(&m.output);
        let s = m.stats;
        for w in [s.int_approx_ops, s.int_precise_ops, s.fp_approx_ops, s.fp_precise_ops] {
            d.word(w);
        }
        let storage = [
            s.sram_approx_quanta,
            s.sram_precise_quanta,
            s.dram_approx_quanta,
            s.dram_precise_quanta,
        ];
        storage.iter().for_each(|q| d.wide(q.get()));
        d.word(m.fault_counts.total_injections());
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
        energy.iter().for_each(|q| d.wide(q.get()));
        for kind in FaultKind::ALL {
            let c = m.fault_counts.count(kind);
            d.word(c.injections);
            d.word(c.bits_flipped);
        }
    }
    d.0
}

const LEVELS: [Level; 3] = [Level::Mild, Level::Medium, Level::Aggressive];

/// Recorded per app in Table 3 order, in `LEVELS` order.
const PINS: [(&str, [u64; 3]); 9] = [
    ("FFT", [0xe7aeb0314a4a92d4, 0x83381cb11d65a3d1, 0xbd90894f593594e0]),
    ("SOR", [0x3b71e08025601a14, 0x37352e82df1327d9, 0x59a261714047821f]),
    ("MonteCarlo", [0x6c1f3c3eb3a603d5, 0xab24e5df5b9b25ba, 0xe81ad385e1e22619]),
    ("SparseMatMult", [0x389ff26995d71084, 0xcfe6904e659b26b1, 0xec833cff0e386e70]),
    ("LU", [0x4ef8c3128a5a2e50, 0x59d7fcd937a3a840, 0xdefb1c38df7d72c7]),
    ("ZXing", [0x06378218ed8df73c, 0x280535232a90d6d4, 0xbdbfed2fc0810efc]),
    ("jMonkeyEngine", [0x538fe7778ddab478, 0x51483af5dcb77a7b, 0x9697285db283f374]),
    ("ImageJ", [0xe22200f545ebf5f8, 0xfb62bf83c3ae5449, 0x188b7dc182c38f97]),
    ("Raytracer", [0x60b7d72fdfbee596, 0x457a37f2dc7f0fcb, 0xce60ab0f5d14b260]),
];

#[test]
fn every_app_is_pinned_at_every_level() {
    let apps = all_apps();
    assert_eq!(apps.len(), PINS.len(), "every registered app has a row");
    let mut measured = String::new();
    let mut mismatches = Vec::new();
    for (app, (name, pins)) in apps.iter().zip(&PINS) {
        assert_eq!(app.meta.name, *name, "rows follow the registry order");
        let got = LEVELS.map(|level| measure(app, level));
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
