//! Seeded conformance-fuzzing suite: the five differential oracles over a
//! deterministic batch of generated programs.
//!
//! The batch is a fixed 120 seeds; deeper runs go through `fuzzgen --cases N`,
//! which drives the same `run_case` oracles.

use enerj_fuzz::gen::GenConfig;
use enerj_fuzz::mutate::mutants;
use enerj_fuzz::oracle::{run_case, OracleOpts};
use enerj_fuzz::shrink::shrink_source;
use enerj_lang::pretty::program_to_string;

const CASES: u64 = 120;

/// Oracles 1–5 hold over the default-configuration batch, and the
/// mutation kill rate clears the 95% bar (it is in fact 100%: every
/// emitted mutant is ill-typed by construction).
#[test]
fn all_oracles_hold_over_seeded_batch() {
    let opts = OracleOpts::default();
    let mut total = 0usize;
    let mut killed = 0usize;
    for seed in 0..CASES {
        let report = run_case(seed, &opts);
        if let Some(v) = report.violations.first() {
            panic!("seed {seed}: {} oracle violated: {}\n{}", v.oracle, v.detail, v.source);
        }
        total += report.mutants;
        killed += report.killed;
    }
    assert!(total >= 100, "batch produced too few mutants to be meaningful: {total}");
    let rate = killed as f64 / total as f64;
    assert!(rate >= 0.95, "mutation kill rate {:.1}% below 95% ({killed}/{total})", rate * 100.0);
}

/// Oracle 4 at full strength: endorse-free generation, so *every* accepted
/// program is subject to noninterference, across several adversarial seeds.
#[test]
fn endorse_free_batch_satisfies_noninterference() {
    let opts = OracleOpts {
        gen: GenConfig { allow_endorse: false, ..GenConfig::default() },
        chaos_seeds: vec![1, 2, 3, 0xdead_beef, u64::MAX | 1],
    };
    let mut endorse_free = 0u64;
    for seed in 0..CASES {
        let report = run_case(seed, &opts);
        if let Some(v) = report.violations.first() {
            panic!("seed {seed}: {} oracle violated: {}\n{}", v.oracle, v.detail, v.source);
        }
        assert!(report.endorse_free, "seed {seed}: endorse-free mode emitted endorse");
        endorse_free += 1;
    }
    assert_eq!(endorse_free, CASES);
}

/// The shrinker minimizes a failing program while preserving the failure:
/// pretty-printed ill-typed mutants shrink to a fraction of their original
/// size and are still rejected by the checker.
#[test]
fn shrinker_minimizes_rejected_mutants() {
    let rejected = |src: &str| enerj_lang::compile(src).is_err();
    let mut shrunk_any = false;
    for seed in 0..10u64 {
        let src = enerj_fuzz::gen::generate_source(seed, &GenConfig::default());
        let tp = enerj_lang::compile(&src).unwrap();
        let Some(mutant) = mutants(&tp).into_iter().next() else { continue };
        let mutant_src = program_to_string(&mutant.program);
        assert!(rejected(&mutant_src), "seed {seed}: mutant unexpectedly accepted");
        let small = shrink_source(&mutant_src, &rejected, 800);
        assert!(rejected(&small), "seed {seed}: shrinking lost the failure:\n{small}");
        assert!(small.len() <= mutant_src.len(), "seed {seed}: shrinking grew the program");
        if small.len() < mutant_src.len() / 2 {
            shrunk_any = true;
        }
    }
    assert!(shrunk_any, "shrinker never achieved a substantial reduction");
}

/// The generator is a pure function of its seed: same seed, same program;
/// different seeds disagree somewhere in the batch.
#[test]
fn generator_is_deterministic_in_its_seed() {
    let cfg = GenConfig::default();
    let a: Vec<String> = (0..20).map(|s| enerj_fuzz::gen::generate_source(s, &cfg)).collect();
    let b: Vec<String> = (0..20).map(|s| enerj_fuzz::gen::generate_source(s, &cfg)).collect();
    assert_eq!(a, b, "generator output depends on more than the seed");
    assert!(
        a.windows(2).any(|w| w[0] != w[1]),
        "twenty consecutive seeds produced identical programs"
    );
}
