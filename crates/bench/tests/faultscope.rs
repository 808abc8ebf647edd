//! `faultscope` refuses a report or fault log with a missing count instead
//! of tabulating it as zero.

use std::path::PathBuf;
use std::process::Command;

/// Runs `faultscope` on `text` written to a scratch file; returns whether
/// it succeeded, and its stderr.
fn faultscope(name: &str, text: &str) -> (bool, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("scratch file");
    let out = Command::new(env!("CARGO_BIN_EXE_faultscope")).arg(&path).output().expect("runs");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// `text` without the first `,"bits_flipped":N` member after `after`.
fn drop_bits_flipped(text: &str, after: &str) -> String {
    let (key, start) = (",\"bits_flipped\":", text.find(after).expect("anchor present"));
    let at = start + text[start..].find(key).expect("a count to drop");
    let digits = text[at + key.len()..].find(|c: char| !c.is_ascii_digit()).expect("more text");
    format!("{}{}", &text[..at], &text[at + key.len() + digits..])
}

#[test]
fn a_missing_count_is_refused_and_named() {
    // The committed Fig. 5 report, as the writer rendered it.
    let report = std::fs::read_to_string(enerj_pins::capture("BENCH_fig5.json")).expect("capture");
    assert_eq!(faultscope("report.json", &report), (true, String::new()));
    let (ok, stderr) = faultscope("no_bits.json", &drop_bits_flipped(&report, "\"trials\":["));
    assert!(!ok, "a report with a missing count must be refused");
    let field = "trials[0].fault_counts.sram-read-upset.bits_flipped: missing";
    assert!(stderr.contains(field), "{stderr}");

    let line = r#"{"trial":0,"app":"FFT","label":"L","seed":1,"time":0.5,"unit":"int-timing","width":8,"bits_flipped":1}"#;
    let log = format!("{line}\n{line}\n");
    assert_eq!(faultscope("faults.ndjson", &log), (true, String::new()));
    let (ok, stderr) = faultscope("no_bits.ndjson", &drop_bits_flipped(&log, "\n"));
    assert!(!ok, "a fault log with a missing count must be refused");
    assert!(stderr.contains("line 2: bits_flipped: missing"), "{stderr}");
}
