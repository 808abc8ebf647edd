//! Seeded conformance-fuzzing campaigns for the FEnerJ pipeline.
//!
//! ```text
//! fuzzgen [--cases N] [--seed S] [--chaos-seeds K] [--endorse-free]
//!         [--max-classes N] [--shrink] [--corpus DIR] [--quiet]
//! ```
//!
//! Generates `N` well-typed programs from consecutive seeds starting at
//! `S`, runs the five differential oracles on each (see `enerj_fuzz`
//! documentation), and reports a summary. Exits nonzero if any oracle was
//! violated. With `--shrink`, every violating program is minimized by
//! delta debugging before being reported; with `--corpus DIR`, minimized
//! counterexamples are saved as replayable `.fej` files.

use std::process::ExitCode;

use enerj_fuzz::gen::GenConfig;
use enerj_fuzz::oracle::{run_case, violation_fails, OracleOpts, Violation};
use enerj_fuzz::shrink::shrink_source;

const SHRINK_BUDGET: usize = 500;

struct Args {
    cases: u64,
    seed: u64,
    chaos_seeds: u64,
    endorse_free: bool,
    max_classes: usize,
    shrink: bool,
    corpus: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 100,
        seed: 1,
        chaos_seeds: 3,
        endorse_free: false,
        max_classes: GenConfig::default().max_classes,
        shrink: false,
        corpus: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--cases" => args.cases = positive(&flag, &value()?)?,
            "--seed" => args.seed = num(&value()?)?,
            "--chaos-seeds" => args.chaos_seeds = positive(&flag, &value()?)?,
            "--max-classes" => args.max_classes = num(&value()?)? as usize,
            "--endorse-free" => args.endorse_free = true,
            "--shrink" => args.shrink = true,
            "--corpus" => args.corpus = Some(value()?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: fuzzgen [--cases N] [--seed S] [--chaos-seeds K] [--endorse-free]\n\
                     \x20              [--max-classes N] [--shrink] [--corpus DIR] [--quiet]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

/// A count that must be nonzero: a campaign with no cases, or an oracle 4
/// with no chaos seeds, would check nothing and still report a pass.
fn positive(flag: &str, s: &str) -> Result<u64, String> {
    s.parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} needs a positive integer, got `{s}`"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzzgen: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = OracleOpts {
        gen: GenConfig {
            max_classes: args.max_classes,
            allow_endorse: !args.endorse_free,
            ..GenConfig::default()
        },
        // Adversarial seeds are derived from the campaign seed so reruns
        // are exactly reproducible.
        chaos_seeds: (0..args.chaos_seeds).map(|i| args.seed.wrapping_add(i * 7919) | 1).collect(),
    };

    let mut total_mutants = 0usize;
    let mut total_killed = 0usize;
    let mut endorse_free = 0u64;
    let mut violations: Vec<Violation> = Vec::new();
    for i in 0..args.cases {
        let case_seed = args.seed.wrapping_add(i);
        let report = run_case(case_seed, &opts);
        total_mutants += report.mutants;
        total_killed += report.killed;
        endorse_free += u64::from(report.endorse_free);
        for v in &report.violations {
            eprintln!("fuzzgen: seed {case_seed}: {} oracle violated: {}", v.oracle, v.detail);
        }
        violations.extend(report.violations);
        if !args.quiet && (i + 1) % 100 == 0 {
            eprintln!("fuzzgen: {}/{} cases...", i + 1, args.cases);
        }
    }

    for (i, v) in violations.iter().enumerate() {
        let source = if args.shrink {
            let fails = violation_fails(v.oracle, &opts);
            shrink_source(&v.source, fails.as_ref(), SHRINK_BUDGET)
        } else {
            v.source.clone()
        };
        if !args.quiet {
            eprintln!("--- counterexample {} ({}) ---\n{}", i + 1, v.oracle, source);
        }
        if let Some(dir) = &args.corpus {
            let path = format!("{dir}/{}-{i}.fej", v.oracle);
            let header = format!(
                "// fuzzgen counterexample: {} oracle\n// {}\n",
                v.oracle,
                v.detail.lines().next().unwrap_or("")
            );
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, header + &source + "\n"))
            {
                eprintln!("fuzzgen: cannot write {path}: {e}");
            } else if !args.quiet {
                eprintln!("fuzzgen: saved {path}");
            }
        }
    }

    let rate =
        if total_mutants == 0 { 100.0 } else { 100.0 * total_killed as f64 / total_mutants as f64 };
    println!(
        "fuzzgen: {} cases (seed {}), {} endorse-free, {} mutants, {} killed ({rate:.1}%), {} violation(s)",
        args.cases, args.seed, endorse_free, total_mutants, total_killed, violations.len()
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
