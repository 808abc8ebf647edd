//! The five differential conformance oracles.
//!
//! Each fuzz case starts from one generated program (see [`crate::gen`])
//! and checks:
//!
//! 1. **Well-typed acceptance** — the type-directed generator only emits
//!    well-typed programs, so `compile` must accept.
//! 2. **Mutation soundness and precision** — every single-edit ill-typed
//!    near-miss derived by [`crate::mutate`] must be rejected, and the
//!    diagnostic must carry an allowed kind at an allowed location.
//! 3. **Pretty-printer round-trip** — pretty → parse → pretty is a
//!    fixpoint, and the reparsed program typechecks identically.
//! 4. **Noninterference** — endorse-free accepted programs satisfy the
//!    section 3.3 theorem under every adversarial chaos seed supplied.
//! 5. **Execution determinism** — reliable and same-seed chaos runs are
//!    reproducible bit-for-bit, and a hardware configuration with every
//!    fault strategy disabled agrees exactly with reliable semantics.
//!
//! [`run_case`] executes all five for one seed and returns a
//! [`CaseReport`]; [`violation_fails`] rebuilds a failure predicate from a
//! violation so the shrinker can minimize the offending program.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use enerj_hw::{Hardware, HwConfig, Level, StrategyMask};
use enerj_lang::interp::{run, ExecMode};
use enerj_lang::noninterference::check_non_interference;
use enerj_lang::parser::parse;
use enerj_lang::pretty::program_to_string;
use enerj_lang::typecheck::{check, TypedProgram};

use crate::gen::{generate_source, GenConfig};
use crate::mutate::mutants;

/// Which oracle a violation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Oracle 1: a generated program was rejected by the checker.
    WellTyped,
    /// Oracle 2a: an ill-typed mutant was accepted by the checker.
    MutationSoundness,
    /// Oracle 2b: a mutant was rejected, but with the wrong kind or span.
    MutationPrecision,
    /// Oracle 3: pretty→parse→pretty diverged, or the reparse failed.
    Roundtrip,
    /// Oracle 4: an endorse-free program violated noninterference.
    NonInterference,
    /// Oracle 5: a nondeterministic or zero-fault-divergent execution.
    Determinism,
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OracleKind::WellTyped => "well-typed",
            OracleKind::MutationSoundness => "mutation-soundness",
            OracleKind::MutationPrecision => "mutation-precision",
            OracleKind::Roundtrip => "roundtrip",
            OracleKind::NonInterference => "noninterference",
            OracleKind::Determinism => "determinism",
        })
    }
}

/// One oracle violation, carrying the program that exhibits it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated oracle.
    pub oracle: OracleKind,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Source of the offending program (always the *original* generated
    /// program, so mutation failures can be re-derived and shrunk).
    pub source: String,
}

/// Options shared by every case of a campaign.
#[derive(Debug, Clone)]
pub struct OracleOpts {
    /// Generator configuration.
    pub gen: GenConfig,
    /// Adversarial seeds for the noninterference oracle.
    pub chaos_seeds: Vec<u64>,
}

impl Default for OracleOpts {
    fn default() -> Self {
        OracleOpts { gen: GenConfig::default(), chaos_seeds: vec![1, 2, 3] }
    }
}

/// The outcome of one fuzz case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case seed.
    pub seed: u64,
    /// Number of ill-typed mutants derived.
    pub mutants: usize,
    /// Number of mutants the checker rejected.
    pub killed: usize,
    /// Whether the generated program was endorse-free (and therefore
    /// subject to the noninterference oracle).
    pub endorse_free: bool,
    /// Every oracle violation observed for this seed.
    pub violations: Vec<Violation>,
}

/// Runs all five oracles for one generated program.
pub fn run_case(seed: u64, opts: &OracleOpts) -> CaseReport {
    let source = generate_source(seed, &opts.gen);
    let mut report =
        CaseReport { seed, mutants: 0, killed: 0, endorse_free: false, violations: Vec::new() };
    let mut violate = |oracle, detail: String| {
        report.violations.push(Violation { oracle, detail, source: source.clone() });
    };

    // Oracle 1: the generator only emits well-typed programs.
    let tp = match enerj_lang::compile(&source) {
        Ok(tp) => tp,
        Err(e) => {
            violate(OracleKind::WellTyped, format!("generated program rejected: {e}"));
            return report;
        }
    };
    report.endorse_free = !tp.program.uses_endorse();

    // Oracle 2: every single-edit near-miss is rejected, at the edit.
    for m in mutants(&tp) {
        report.mutants += 1;
        match check(m.program.clone()) {
            Ok(_) => {
                report.violations.push(Violation {
                    oracle: OracleKind::MutationSoundness,
                    detail: format!("mutant survived: {}", m.label),
                    source: source.clone(),
                });
            }
            Err(e) => {
                report.killed += 1;
                if !m.explains(e.kind, e.span) {
                    report.violations.push(Violation {
                        oracle: OracleKind::MutationPrecision,
                        detail: format!(
                            "{}: reported {:?} at {}..{}, allowed kinds {:?} spans {:?}",
                            m.label, e.kind, e.span.start, e.span.end, m.kinds, m.spans
                        ),
                        source: source.clone(),
                    });
                }
            }
        }
    }

    // Oracle 3: pretty→parse→pretty fixpoint + identical verdict.
    if let Some(detail) = roundtrip_divergence(&source) {
        report.violations.push(Violation {
            oracle: OracleKind::Roundtrip,
            detail,
            source: source.clone(),
        });
    }

    // Oracle 4: noninterference for endorse-free programs.
    if report.endorse_free && !opts.chaos_seeds.is_empty() {
        if let Err(e) = check_non_interference(&tp, opts.chaos_seeds.iter().copied()) {
            report.violations.push(Violation {
                oracle: OracleKind::NonInterference,
                detail: format!("noninterference violated: {e}"),
                source: source.clone(),
            });
        }
    }

    // Oracle 5: determinism and zero-fault ≡ reliable.
    if let Some(detail) = determinism_divergence(&tp, seed) {
        report.violations.push(Violation {
            oracle: OracleKind::Determinism,
            detail,
            source: source.clone(),
        });
    }

    report
}

/// Checks oracle 3 on `source`; returns the divergence if any.
///
/// `source` is assumed compilable; the reparse of its pretty-print must be
/// too (identical verdict), and pretty-printing must reach a fixpoint in
/// one step.
pub fn roundtrip_divergence(source: &str) -> Option<String> {
    let prog = match parse(source) {
        Ok(p) => p,
        Err(e) => return Some(format!("original source does not parse: {e}")),
    };
    let printed = program_to_string(&prog);
    let reparsed = match parse(&printed) {
        Ok(p) => p,
        Err(e) => return Some(format!("pretty-printed source does not parse: {e}")),
    };
    let reprinted = program_to_string(&reparsed);
    if printed != reprinted {
        return Some(format!(
            "pretty-print is not a fixpoint:\n--- first ---\n{printed}\n--- second ---\n{reprinted}"
        ));
    }
    let v1 = enerj_lang::compile(source).is_ok();
    let v2 = enerj_lang::compile(&printed).is_ok();
    if v1 != v2 {
        return Some(format!(
            "typecheck verdict changed across round-trip: original {v1}, reprinted {v2}"
        ));
    }
    None
}

/// Checks oracle 5 on a compiled program; returns the divergence if any.
pub fn determinism_divergence(tp: &TypedProgram, seed: u64) -> Option<String> {
    let chaos_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;

    let r1 = match run(tp, ExecMode::Reliable) {
        Ok(o) => o,
        Err(e) => return Some(format!("reliable run trapped: {e}")),
    };
    let r2 = match run(tp, ExecMode::Reliable) {
        Ok(o) => o,
        Err(e) => return Some(format!("second reliable run trapped: {e}")),
    };
    if let Some(d) = r1.divergence(&r2, tp, false) {
        return Some(format!("reliable execution is nondeterministic: {d}"));
    }

    let c1 = match run(tp, ExecMode::Chaos { seed: chaos_seed }) {
        Ok(o) => o,
        Err(e) => return Some(format!("chaos run trapped: {e}")),
    };
    let c2 = match run(tp, ExecMode::Chaos { seed: chaos_seed }) {
        Ok(o) => o,
        Err(e) => return Some(format!("second chaos run trapped: {e}")),
    };
    if let Some(d) = c1.divergence(&c2, tp, false) {
        return Some(format!("same-seed chaos execution is nondeterministic: {d}"));
    }

    // A hardware model with every fault strategy disabled must agree with
    // the reference semantics bit-for-bit, even though approximate data
    // still flows through its accounting.
    let cfg = HwConfig::for_level(Level::Mild).with_mask(StrategyMask::NONE);
    let hw = Rc::new(RefCell::new(Hardware::new(cfg, seed)));
    let f = match run(tp, ExecMode::Faulty(hw)) {
        Ok(o) => o,
        Err(e) => return Some(format!("zero-fault hardware run trapped: {e}")),
    };
    if let Some(d) = r1.divergence(&f, tp, false) {
        return Some(format!("zero-fault hardware diverged from reliable semantics: {d}"));
    }
    None
}

/// Rebuilds the failure predicate for a violation, for use with
/// [`crate::shrink::shrink_source`].
///
/// The predicate re-derives the violated property from candidate *source
/// text* alone, so the shrinker preserves the interesting behaviour rather
/// than the incidental program. Mutation failures are re-derived from the
/// candidate (a shrunk program fails if *any* of its mutants survives or
/// misreports), which keeps the predicate meaningful as the program
/// shrinks.
pub fn violation_fails<'a>(
    oracle: OracleKind,
    opts: &'a OracleOpts,
) -> Box<dyn Fn(&str) -> bool + 'a> {
    match oracle {
        OracleKind::WellTyped => Box::new(|src: &str| enerj_lang::compile(src).is_err()),
        OracleKind::MutationSoundness => Box::new(|src: &str| {
            enerj_lang::compile(src)
                .is_ok_and(|tp| mutants(&tp).iter().any(|m| check(m.program.clone()).is_ok()))
        }),
        OracleKind::MutationPrecision => Box::new(|src: &str| {
            enerj_lang::compile(src).is_ok_and(|tp| {
                mutants(&tp)
                    .iter()
                    .any(|m| check(m.program.clone()).is_err_and(|e| !m.explains(e.kind, e.span)))
            })
        }),
        OracleKind::Roundtrip => Box::new(|src: &str| roundtrip_divergence(src).is_some()),
        OracleKind::NonInterference => Box::new(move |src: &str| {
            enerj_lang::compile(src).is_ok_and(|tp| {
                !tp.program.uses_endorse()
                    && check_non_interference(&tp, opts.chaos_seeds.iter().copied()).is_err()
            })
        }),
        OracleKind::Determinism => Box::new(|src: &str| {
            enerj_lang::compile(src).is_ok_and(|tp| determinism_divergence(&tp, 0).is_some())
        }),
    }
}
