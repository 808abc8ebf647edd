//! Energy report: runs the full benchmark suite and prints a per-app
//! breakdown of where the energy went and what approximation saved —
//! including the paper's server vs. mobile system-split comparison
//! (section 5.4: in a mobile setting DRAM is only ~25% of system power,
//! so CPU-side savings matter more).
//!
//! Run with `cargo run --release -p enerj-apps --example energy_report`.

use enerj_apps::{all_apps, harness};
use enerj_hw::config::{HwConfig, Level};
use enerj_hw::energy::{DRAM_MOBILE_FRACTION, DRAM_SYSTEM_FRACTION};

fn main() {
    println!("Energy breakdown at the Medium configuration (normalized, 1.0 = precise)");
    println!();
    println!(
        "{:<14} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "app", "instr", "sram", "dram", "server", "mobile"
    );
    println!("{}", "-".repeat(60));
    for app in all_apps() {
        let m = harness::measure_with_telemetry(&app, HwConfig::for_level(Level::Medium), 1, false);
        let server = m.energy_quanta.normalized_with_split(DRAM_SYSTEM_FRACTION);
        let mobile = m.energy_quanta.normalized_with_split(DRAM_MOBILE_FRACTION);
        println!(
            "{:<14} {:>7.3} {:>7.3} {:>7.3} {:>8.1}% {:>8.1}%",
            app.meta.name,
            server.instructions,
            server.sram,
            server.dram,
            100.0 * server.savings(),
            100.0 * mobile.savings(),
        );
    }
    println!();
    println!("'server' uses the paper's 55% CPU / 45% DRAM split; 'mobile' the");
    println!("75% / 25% split. Apps whose savings come mostly from DRAM (large");
    println!("approximate arrays) save less on mobile; compute-bound apps more.");
}
