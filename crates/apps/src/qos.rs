//! Application-specific quality-of-service metrics (section 6, Table 3).
//!
//! Output error ranges from 0 (identical to the precise run) to 1
//! (meaningless output). For numeric outputs the error is the mean
//! entry-wise difference, with each entry's contribution capped at 1 and
//! NaN entries contributing 1, exactly as the paper specifies. Non-numeric
//! outputs (ZXing's decoded string) score 0 when correct and 1 otherwise;
//! jMonkeyEngine's boolean decisions score the fraction of incorrect
//! decisions normalized to 0.5 (random guessing ⇒ error 1).

use std::fmt;

/// A benchmark's output, in one of the three shapes the suite produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A list of numbers (matrices, images, spectra, scalars).
    Values(Vec<f64>),
    /// A decoded string (ZXing); `None` when decoding failed outright.
    Text(Option<String>),
    /// A list of boolean decisions (collision detection).
    Decisions(Vec<bool>),
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Output::Values(v) => write!(f, "{} values", v.len()),
            Output::Text(Some(s)) => write!(f, "text {s:?}"),
            Output::Text(None) => write!(f, "decode failure"),
            Output::Decisions(d) => write!(f, "{} decisions", d.len()),
        }
    }
}

/// The QoS metric an application uses (Table 3, third column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QosMetric {
    /// Mean entry-wise difference (FFT, SOR, LU).
    MeanEntryDiff,
    /// Normalized difference of a scalar result (MonteCarlo).
    NormalizedDiff,
    /// Mean normalized entry-wise difference (SparseMatMult).
    MeanNormalizedDiff,
    /// Mean pixel difference against full scale (ImageJ, Raytracer).
    MeanPixelDiff {
        /// Full-scale pixel value (e.g. 255 for 8-bit images).
        full_scale: f64,
    },
    /// 1 if incorrect, 0 if correct (ZXing).
    BinaryCorrect,
    /// Fraction of correct decisions normalized to 0.5 (jMonkeyEngine).
    DecisionFraction,
}

impl fmt::Display for QosMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QosMetric::MeanEntryDiff => "mean entry difference",
            QosMetric::NormalizedDiff => "normalized difference",
            QosMetric::MeanNormalizedDiff => "mean normalized difference",
            QosMetric::MeanPixelDiff { .. } => "mean pixel difference",
            QosMetric::BinaryCorrect => "1 if incorrect, 0 if correct",
            QosMetric::DecisionFraction => "fraction of correct decisions (norm. 0.5)",
        };
        f.write_str(s)
    }
}

/// Computes the output error in `[0, 1]` of `observed` against `reference`.
///
/// A fault-injected run can corrupt control flow badly enough to change
/// the *shape* of its output — a different variant, or a `Values` list of
/// a different length. Following the paper's reading that a crashed or
/// structurally wrong run delivers worst-case quality, any such mismatch
/// scores error 1.0 (logged in debug builds, since for a reference-vs-
/// reference comparison it would indicate a harness bug).
///
/// The result is guaranteed to be a number in `[0, 1]`: per-entry scoring
/// already maps NaN entries to 1, and as defense in depth the final score
/// is clamped, with NaN mapped to worst-case 1.0 — one pathological
/// observed output (fp-timing faults can manufacture any bit pattern,
/// including NaN and ±∞) must degrade *that trial*, never poison a whole
/// campaign's mean with NaN.
///
/// # Panics
///
/// Panics only if `metric` does not apply to the shape of `reference`
/// itself — the reference comes from the precise run, so that really is a
/// harness bug.
pub fn output_error(metric: QosMetric, reference: &Output, observed: &Output) -> f64 {
    let raw = raw_output_error(metric, reference, observed);
    if raw.is_nan() {
        1.0
    } else {
        raw.clamp(0.0, 1.0)
    }
}

fn raw_output_error(metric: QosMetric, reference: &Output, observed: &Output) -> f64 {
    match (metric, reference) {
        (QosMetric::MeanEntryDiff, Output::Values(r)) => match observed {
            Output::Values(o) if o.len() == r.len() => mean_over(r, o, capped_abs_diff),
            other => shape_mismatch(metric, reference, other),
        },
        (QosMetric::NormalizedDiff | QosMetric::MeanNormalizedDiff, Output::Values(r)) => {
            match observed {
                Output::Values(o) if o.len() == r.len() => mean_over(r, o, normalized_diff),
                other => shape_mismatch(metric, reference, other),
            }
        }
        (QosMetric::MeanPixelDiff { full_scale }, Output::Values(r)) => match observed {
            Output::Values(o) if o.len() == r.len() => mean_over(r, o, |a, b| {
                if b.is_nan() {
                    1.0
                } else {
                    ((a - b).abs() / full_scale).min(1.0)
                }
            }),
            other => shape_mismatch(metric, reference, other),
        },
        (QosMetric::BinaryCorrect, Output::Text(r)) => match observed {
            Output::Text(o) => {
                if r == o {
                    0.0
                } else {
                    1.0
                }
            }
            other => shape_mismatch(metric, reference, other),
        },
        (QosMetric::DecisionFraction, Output::Decisions(r)) => match observed {
            Output::Decisions(o) if o.len() == r.len() => {
                if r.is_empty() {
                    return 0.0;
                }
                let correct = r.iter().zip(o).filter(|(a, b)| a == b).count();
                let frac = correct as f64 / r.len() as f64;
                // Random guessing gets ~0.5 of boolean decisions right; an
                // error of 1 means "no better than guessing".
                ((1.0 - frac) / 0.5).clamp(0.0, 1.0)
            }
            other => shape_mismatch(metric, reference, other),
        },
        (m, r) => panic!("metric {m:?} does not apply to reference output {r}"),
    }
}

/// Worst-case score for an observed output whose shape does not match the
/// reference. Logged in debug builds: legitimate for a fault-injected run,
/// a harness bug anywhere else.
fn shape_mismatch(metric: QosMetric, reference: &Output, observed: &Output) -> f64 {
    #[cfg(debug_assertions)]
    eprintln!(
        "qos: shape mismatch under {metric:?}: reference {reference} vs observed {observed}; \
         scoring worst-case error 1.0"
    );
    #[cfg(not(debug_assertions))]
    let _ = (metric, reference, observed);
    1.0
}

/// |a − b| capped at 1; NaN counts as fully wrong (the paper: "if an entry
/// in the output is NaN, that entry contributes an error of 1").
fn capped_abs_diff(a: f64, b: f64) -> f64 {
    if b.is_nan() || a.is_nan() {
        1.0
    } else {
        (a - b).abs().min(1.0)
    }
}

/// |a − b| / max(|a|, ε), capped at 1.
fn normalized_diff(a: f64, b: f64) -> f64 {
    if b.is_nan() || a.is_nan() {
        return 1.0;
    }
    let denom = a.abs().max(1e-9);
    ((a - b).abs() / denom).min(1.0)
}

/// Checks every entry of a `Values` output against a core
/// [`Guard`](enerj_core::Guard); the shared body of the per-app checker
/// hooks (see [`App::check`](crate::App)). Non-`Values` outputs are
/// rejected (the caller's app produces `Values`, so a different variant
/// means the run corrupted its own control flow).
pub(crate) fn check_values(
    output: &Output,
    guard: &impl enerj_core::Guard<f64>,
) -> Result<(), String> {
    match output {
        Output::Values(v) => {
            for (i, x) in v.iter().enumerate() {
                if !guard.admit(x) {
                    return Err(format!("entry {i} = {x} fails '{}'", guard.describe()));
                }
            }
            Ok(())
        }
        other => Err(format!("expected numeric output, got {other}")),
    }
}

fn mean_over(r: &[f64], o: &[f64], f: impl Fn(f64, f64) -> f64) -> f64 {
    // Callers route length mismatches through `shape_mismatch` first.
    debug_assert_eq!(r.len(), o.len(), "output lengths must match");
    if r.is_empty() {
        return 0.0;
    }
    r.iter().zip(o).map(|(&a, &b)| f(a, b)).sum::<f64>() / r.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_outputs_have_zero_error() {
        let v = Output::Values(vec![1.0, 2.0, 3.0]);
        assert_eq!(output_error(QosMetric::MeanEntryDiff, &v, &v), 0.0);
        let t = Output::Text(Some("hello".into()));
        assert_eq!(output_error(QosMetric::BinaryCorrect, &t, &t), 0.0);
        let d = Output::Decisions(vec![true, false]);
        assert_eq!(output_error(QosMetric::DecisionFraction, &d, &d), 0.0);
    }

    #[test]
    fn mean_entry_diff_caps_each_entry() {
        let r = Output::Values(vec![0.0, 0.0]);
        let o = Output::Values(vec![100.0, 0.0]);
        // One entry off by 100 (capped to 1), one exact: mean 0.5.
        assert_eq!(output_error(QosMetric::MeanEntryDiff, &r, &o), 0.5);
    }

    #[test]
    fn nan_entries_contribute_one() {
        let r = Output::Values(vec![1.0, 1.0]);
        let o = Output::Values(vec![f64::NAN, 1.0]);
        assert_eq!(output_error(QosMetric::MeanEntryDiff, &r, &o), 0.5);
        assert_eq!(output_error(QosMetric::MeanNormalizedDiff, &r, &o), 0.5);
    }

    #[test]
    fn normalized_diff_scales_by_reference() {
        let r = Output::Values(vec![100.0]);
        let o = Output::Values(vec![99.0]);
        assert!((output_error(QosMetric::NormalizedDiff, &r, &o) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn pixel_diff_uses_full_scale() {
        let r = Output::Values(vec![255.0, 0.0]);
        let o = Output::Values(vec![0.0, 0.0]);
        let e = output_error(QosMetric::MeanPixelDiff { full_scale: 255.0 }, &r, &o);
        assert_eq!(e, 0.5);
    }

    #[test]
    fn binary_correct_is_all_or_nothing() {
        let r = Output::Text(Some("CODE-123".into()));
        let wrong = Output::Text(Some("CODE-124".into()));
        let failed = Output::Text(None);
        assert_eq!(output_error(QosMetric::BinaryCorrect, &r, &wrong), 1.0);
        assert_eq!(output_error(QosMetric::BinaryCorrect, &r, &failed), 1.0);
    }

    #[test]
    fn decision_fraction_normalizes_to_half() {
        let r = Output::Decisions(vec![true; 100]);
        let mut half_wrong = vec![true; 100];
        for d in half_wrong.iter_mut().take(50) {
            *d = false;
        }
        let o = Output::Decisions(half_wrong);
        // 50% correct = random guessing = error 1.
        assert_eq!(output_error(QosMetric::DecisionFraction, &r, &o), 1.0);
        let mostly = Output::Decisions(
            (0..100).map(|i| i >= 10).collect(), // 90% correct
        );
        let e = output_error(QosMetric::DecisionFraction, &r, &mostly);
        assert!((e - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_outputs_are_zero_error() {
        let v = Output::Values(vec![]);
        assert_eq!(output_error(QosMetric::MeanEntryDiff, &v, &v), 0.0);
        let d = Output::Decisions(vec![]);
        assert_eq!(output_error(QosMetric::DecisionFraction, &d, &d), 0.0);
    }

    #[test]
    fn mismatched_values_lengths_score_worst_case() {
        let r = Output::Values(vec![1.0]);
        let o = Output::Values(vec![1.0, 2.0]);
        assert_eq!(output_error(QosMetric::MeanEntryDiff, &r, &o), 1.0);
        assert_eq!(output_error(QosMetric::MeanNormalizedDiff, &r, &o), 1.0);
        assert_eq!(output_error(QosMetric::MeanPixelDiff { full_scale: 255.0 }, &r, &o), 1.0);
    }

    #[test]
    fn values_vs_text_scores_worst_case() {
        let r = Output::Values(vec![1.0, 2.0]);
        let o = Output::Text(Some("garbage".into()));
        assert_eq!(output_error(QosMetric::MeanEntryDiff, &r, &o), 1.0);
    }

    #[test]
    fn decisions_length_mismatch_scores_worst_case() {
        let r = Output::Decisions(vec![true, false, true]);
        let o = Output::Decisions(vec![true]);
        assert_eq!(output_error(QosMetric::DecisionFraction, &r, &o), 1.0);
        let t = Output::Text(None);
        assert_eq!(output_error(QosMetric::DecisionFraction, &r, &t), 1.0);
    }

    #[test]
    fn text_metric_vs_values_scores_worst_case() {
        let r = Output::Text(Some("CODE-123".into()));
        let o = Output::Values(vec![67.0, 79.0]);
        assert_eq!(output_error(QosMetric::BinaryCorrect, &r, &o), 1.0);
    }

    #[test]
    fn adversarial_observed_outputs_never_score_nan() {
        // fp-timing faults can manufacture any bit pattern; whatever the
        // observed output contains, the trial's error must stay a number in
        // [0, 1] instead of poisoning campaign means with NaN.
        let adversarial = [
            vec![f64::NAN, f64::NAN],
            vec![f64::INFINITY, 1.0],
            vec![f64::NEG_INFINITY, f64::INFINITY],
            vec![f64::MAX, f64::MIN],
            vec![0.0, -0.0],
        ];
        let metrics = [
            QosMetric::MeanEntryDiff,
            QosMetric::NormalizedDiff,
            QosMetric::MeanNormalizedDiff,
            QosMetric::MeanPixelDiff { full_scale: 255.0 },
        ];
        for observed in &adversarial {
            for reference in &adversarial {
                for metric in metrics {
                    let e = output_error(
                        metric,
                        &Output::Values(reference.clone()),
                        &Output::Values(observed.clone()),
                    );
                    assert!(
                        !e.is_nan() && (0.0..=1.0).contains(&e),
                        "{metric:?} on {reference:?} vs {observed:?} scored {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn infinite_reference_and_observed_clamp_to_worst_case() {
        // (inf - inf).abs() is NaN; the per-entry cap and the final clamp
        // must turn that into 1.0, not propagate it.
        let r = Output::Values(vec![f64::INFINITY]);
        let o = Output::Values(vec![f64::INFINITY]);
        assert_eq!(output_error(QosMetric::MeanEntryDiff, &r, &o), 1.0);
    }

    #[test]
    fn check_values_reports_first_offender() {
        use enerj_core::{finite, in_range, Guard};
        let good = Output::Values(vec![0.1, 0.9]);
        assert_eq!(check_values(&good, &finite()), Ok(()));
        let bad = Output::Values(vec![0.1, f64::NAN, f64::INFINITY]);
        let err = check_values(&bad, &finite()).unwrap_err();
        assert!(err.contains("entry 1"), "{err}");
        let out_of_range = Output::Values(vec![5.0]);
        let err = check_values(&out_of_range, &in_range(0.0, 1.0)).unwrap_err();
        assert!(err.contains("in [0.0, 1.0]"), "{err}");
        let guard = finite().and(in_range(0.0, 1.0));
        assert!(check_values(&Output::Text(None), &guard).is_err(), "wrong variant rejected");
    }

    #[test]
    #[should_panic(expected = "does not apply to reference output")]
    fn metric_reference_mismatch_is_a_harness_bug() {
        // The reference comes from the precise run, so a metric that cannot
        // score the reference's shape is a harness bug, not degradation.
        let r = Output::Text(Some("CODE-123".into()));
        let o = Output::Text(Some("CODE-123".into()));
        let _ = output_error(QosMetric::MeanEntryDiff, &r, &o);
    }
}
