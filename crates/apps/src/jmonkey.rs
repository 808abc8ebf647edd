//! jMonkeyEngine substitute: batched ray–triangle intersection, ported to
//! EnerJ-RS.
//!
//! The paper's jMonkeyEngine workload "consists of many 3D triangle
//! intersection problems, an algorithm frequently used for collision
//! detection in games", annotated so aggressively that "every float
//! declaration was replaced indiscriminately with an @Approx float". This
//! port does the same: the entire Möller–Trumbore computation runs on
//! approximate `f32`s held in locals (hence almost no approximate DRAM,
//! matching Figure 3), with endorsements only at the final hit/miss
//! decisions. Quality of service is the fraction of correct boolean
//! decisions, normalized so that random guessing scores an error of 1.

use crate::approximable::{ray_hits_triangle, Vector3};
use crate::meta::AppMeta;
use crate::qos::{Output, QosMetric};
use crate::workload;
use enerj_core::context::ApproxMode;
use enerj_core::Precise;

/// This module's own source text, measured for Table 3.
const SOURCE: &str = include_str!("jmonkey.rs");

/// Number of ray–triangle test cases.
const CASES: usize = 400;

/// Table 3 metadata.
pub(crate) fn meta() -> AppMeta {
    AppMeta {
        name: "jMonkeyEngine",
        description: "ray-triangle intersection batch (Moller-Trumbore, 400 cases)",
        metric: QosMetric::DecisionFraction,
        source: SOURCE,
    }
}

/// Runs the benchmark under the ambient runtime; returns the hit/miss
/// decision for each case.
pub(crate) fn run() -> Output {
    let cases = workload::triangle_cases(CASES);
    let mut processed = Precise::new(0i64);
    let decisions = cases
        .iter()
        .map(|c| {
            processed += 1;
            intersects(c)
        })
        .collect();
    debug_assert_eq!(processed.get(), CASES as i64);
    Output::Decisions(decisions)
}

/// The plausibility band the hit fraction must land in to pass [`check`].
///
/// The generated case mix intersects a middling fraction of the time (the
/// reference sits well inside `(0.1, 0.9)`, asserted by a pinned test); a
/// batch deciding almost everything one way is the signature of a
/// corrupted early-out comparison stuck on one branch — a failure the
/// length check alone can never see.
const HIT_FRACTION_BAND: (f64, f64) = (0.05, 0.95);

/// Recovery sanity check (see [`App::check`](crate::App)): the batch size
/// is precise, so anything but exactly [`CASES`] decisions means the run
/// corrupted its own control flow; and the hit fraction must land in the
/// [`HIT_FRACTION_BAND`] plausibility band.
pub(crate) fn check(output: &Output) -> Result<(), String> {
    match output {
        Output::Decisions(d) if d.len() != CASES => {
            Err(format!("expected {CASES} decisions, got {}", d.len()))
        }
        Output::Decisions(d) => {
            let hits = d.iter().filter(|&&b| b).count() as f64 / CASES as f64;
            if hits < HIT_FRACTION_BAND.0 || hits > HIT_FRACTION_BAND.1 {
                Err(format!("implausible hit fraction {hits:.3}"))
            } else {
                Ok(())
            }
        }
        other => Err(format!("expected decisions, got {other}")),
    }
}

/// Möller–Trumbore over `@Approx Vector3f` values — the paper's own
/// annotation for this engine: the `Vector3f` class is `@Approximable`
/// and every instance in the collision kernel is declared approximate.
/// Each early-out comparison endorses an approximate condition
/// (section 2.4), inside [`ray_hits_triangle`].
fn intersects(case: &[f32; 15]) -> bool {
    // `@Approx Vector3f` declarations, as in the paper's port.
    let origin: Vector3<ApproxMode> = Vector3::new(case[0], case[1], case[2]);
    let dir: Vector3<ApproxMode> = Vector3::new(case[3], case[4], case[5]);
    let v0: Vector3<ApproxMode> = Vector3::new(case[6], case[7], case[8]);
    let v1: Vector3<ApproxMode> = Vector3::new(case[9], case[10], case[11]);
    let v2: Vector3<ApproxMode> = Vector3::new(case[12], case[13], case[14]);
    ray_hits_triangle(origin, dir, v0, v1, v2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enerj_core::Runtime;
    use enerj_hw::config::{HwConfig, Level, StrategyMask};

    fn exact() -> Runtime {
        Runtime::with_config(
            HwConfig::for_level(Level::Aggressive).with_mask(StrategyMask::NONE),
            0,
        )
    }

    #[test]
    fn masked_run_produces_mixed_decisions() {
        let rt = exact();
        let Output::Decisions(d) = rt.run(run) else { panic!() };
        assert_eq!(d.len(), CASES);
        let hits = d.iter().filter(|&&b| b).count();
        assert!(hits > CASES / 10 && hits < CASES * 9 / 10, "hits = {hits}");
    }

    #[test]
    fn masked_decisions_match_plain_float_reference() {
        let rt = exact();
        let Output::Decisions(ours) = rt.run(run) else { panic!() };
        let cases = workload::triangle_cases(CASES);
        for (i, case) in cases.iter().enumerate() {
            assert_eq!(ours[i], plain_intersects(case), "case {i}");
        }
    }

    #[test]
    fn work_is_almost_entirely_approximate_fp() {
        let rt = exact();
        let _ = rt.run(run);
        let s = rt.stats();
        assert!(s.approx_op_fraction(enerj_hw::OpKind::Fp) > 0.99);
        assert!(s.dram_approx_quanta.is_zero(), "all data lives in locals");
    }

    #[test]
    fn check_accepts_the_reference_and_rejects_degenerate_batches() {
        let rt = exact();
        let reference = rt.run(run);
        assert_eq!(check(&reference), Ok(()), "the reference decisions must pass their own check");
        // Right length, degenerate content: a comparison stuck on one
        // branch decides everything the same way.
        assert!(check(&Output::Decisions(vec![true; CASES])).is_err());
        assert!(check(&Output::Decisions(vec![false; CASES])).is_err());
        // Wrong length is still structural corruption.
        assert!(check(&Output::Decisions(vec![true; CASES - 1])).is_err());
        // A mixed batch inside the band passes.
        let mixed: Vec<bool> = (0..CASES).map(|i| i % 3 == 0).collect();
        assert_eq!(check(&Output::Decisions(mixed)), Ok(()));
    }

    #[test]
    fn known_direct_hit_and_clear_miss() {
        let rt = exact();
        rt.run(|| {
            // Triangle straight ahead, ray through its centroid.
            let hit: [f32; 15] =
                [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, -1.0, 2.0, 1.0, -1.0, 2.0, 0.0, 1.0, 2.0];
            assert!(intersects(&hit));
            // Same triangle, ray pointing away.
            let miss: [f32; 15] =
                [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0, 2.0, 1.0, -1.0, 2.0, 0.0, 1.0, 2.0];
            assert!(!intersects(&miss));
        });
    }

    /// Plain-float reference implementation.
    fn plain_intersects(c: &[f32; 15]) -> bool {
        let sub = |a: [f32; 3], b: [f32; 3]| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        let dot = |a: [f32; 3], b: [f32; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        let cross = |a: [f32; 3], b: [f32; 3]| {
            [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
        };
        let o = [c[0], c[1], c[2]];
        let d = [c[3], c[4], c[5]];
        let v0 = [c[6], c[7], c[8]];
        let e1 = sub([c[9], c[10], c[11]], v0);
        let e2 = sub([c[12], c[13], c[14]], v0);
        let p = cross(d, e2);
        let det = dot(e1, p);
        if det > -1e-8 && det < 1e-8 {
            return false;
        }
        let inv = 1.0 / det;
        let t = sub(o, v0);
        let u = dot(t, p) * inv;
        if !(0.0..=1.0).contains(&u) {
            return false;
        }
        let q = cross(t, e1);
        let v = dot(d, q) * inv;
        if v < 0.0 || u + v > 1.0 {
            return false;
        }
        dot(e2, q) * inv > 0.0
    }
}
