//! Regenerates **Table 2**: the approximation strategies simulated in the
//! evaluation, with their error probabilities and energy savings at the
//! Mild / Medium / Aggressive levels. Static content (no trials).

use enerj_bench::cli::Options;
use enerj_bench::render_table;
use enerj_hw::config::Level;

fn main() {
    // Static content: the shared flags are checked, and none applies.
    Options::from_env(0, &[]);
    let [mild, medium, aggressive] =
        [Level::Mild.params(), Level::Medium.params(), Level::Aggressive.params()];

    let rows = vec![
        vec![
            "DRAM refresh: per-second bit flip probability".to_owned(),
            format!("{:.0e}", mild.dram_flip_per_second),
            format!("{:.0e}", medium.dram_flip_per_second),
            format!("{:.0e}", aggressive.dram_flip_per_second),
        ],
        vec![
            "Memory power saved".to_owned(),
            format!("{:.0}%", mild.dram_power_saved * 100.0),
            format!("{:.0}%", medium.dram_power_saved * 100.0),
            format!("{:.0}%", aggressive.dram_power_saved * 100.0),
        ],
        vec![
            "SRAM read upset probability".to_owned(),
            format!("10^{:.1}", mild.sram_read_upset_prob.log10()),
            format!("10^{:.1}", medium.sram_read_upset_prob.log10()),
            format!("10^{:.1}", aggressive.sram_read_upset_prob.log10()),
        ],
        vec![
            "SRAM write failure probability".to_owned(),
            format!("10^{:.2}", mild.sram_write_failure_prob.log10()),
            format!("10^{:.2}", medium.sram_write_failure_prob.log10()),
            format!("10^{:.2}", aggressive.sram_write_failure_prob.log10()),
        ],
        vec![
            "Supply power saved".to_owned(),
            format!("{:.0}%", mild.sram_power_saved * 100.0),
            format!("{:.0}%", medium.sram_power_saved * 100.0),
            format!("{:.0}%", aggressive.sram_power_saved * 100.0),
        ],
        vec![
            "float mantissa bits".to_owned(),
            mild.float_mantissa_bits.to_string(),
            medium.float_mantissa_bits.to_string(),
            aggressive.float_mantissa_bits.to_string(),
        ],
        vec![
            "double mantissa bits".to_owned(),
            mild.double_mantissa_bits.to_string(),
            medium.double_mantissa_bits.to_string(),
            aggressive.double_mantissa_bits.to_string(),
        ],
        vec![
            "Energy saved per FP operation".to_owned(),
            format!("{:.0}%", mild.fp_energy_saved * 100.0),
            format!("{:.0}%", medium.fp_energy_saved * 100.0),
            format!("{:.0}%", aggressive.fp_energy_saved * 100.0),
        ],
        vec![
            "Arithmetic timing error probability".to_owned(),
            format!("{:.0e}", mild.timing_error_prob),
            format!("{:.0e}", medium.timing_error_prob),
            format!("{:.0e}", aggressive.timing_error_prob),
        ],
        vec![
            "Energy saved per integer operation".to_owned(),
            format!("{:.0}%", mild.alu_energy_saved * 100.0),
            format!("{:.0}%", medium.alu_energy_saved * 100.0),
            format!("{:.0}%", aggressive.alu_energy_saved * 100.0),
        ],
    ];

    println!("Table 2: approximation strategies simulated in the evaluation");
    println!();
    println!("{}", render_table(&["Strategy", "Mild", "Medium", "Aggressive"], &rows));
    println!("All Medium values are taken from the literature (section 4.2).");
}
