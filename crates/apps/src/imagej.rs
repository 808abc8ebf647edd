//! ImageJ substitute: raster flood fill, ported to EnerJ-RS.
//!
//! The paper's ImageJ workload is a flood-fill operation, chosen as
//! "representative of error-resilient algorithms with primarily integer
//! rather than floating point data", and annotated *extremely aggressively*:
//! "even pixel coordinates are marked as approximate", which the existing
//! bounds-checking makes survivable. This port mirrors that: pixel values
//! *and* the coordinate arithmetic on the work list are approximate
//! (`Approx<i32>`), with coordinates endorsed and clamped at the moment
//! they index the image — indices themselves must be precise
//! (section 2.6) — and a precise visited bitmap guaranteeing termination.

use crate::meta::AppMeta;
use crate::qos::{Output, QosMetric};
use crate::workload;
use enerj_core::{endorse, Approx, ApproxVec};

/// This module's own source text, measured for Table 3.
const SOURCE: &str = include_str!("imagej.rs");

/// Image side length.
const SIDE: usize = 64;
/// Fill tolerance around the seed tone.
const TOLERANCE: i32 = 32;
/// The tone written into filled pixels.
const FILL: i32 = 255;

/// Table 3 metadata.
pub(crate) fn meta() -> AppMeta {
    AppMeta {
        name: "ImageJ",
        description: "raster flood fill (64x64, approximate coordinates)",
        metric: QosMetric::MeanPixelDiff { full_scale: 255.0 },
        source: SOURCE,
    }
}

/// Runs the benchmark under the ambient runtime; returns the filled image.
pub(crate) fn run() -> Output {
    let input = workload::segmented_image(SIDE, SIDE);
    let mut image: ApproxVec<i32> = ApproxVec::from_slice(&input);
    flood_fill(&mut image, SIDE / 2, SIDE / 2);
    Output::Values(image.endorse_to_vec().iter().map(|&v| f64::from(v)).collect())
}

/// Recovery sanity check (see [`App::check`](crate::App)): pixels are 8-bit
/// intensities, so a value outside `[0, 255]` is a corrupted word that the
/// coordinate-clamping endorsements did not catch.
pub(crate) fn check(output: &Output) -> Result<(), String> {
    crate::qos::check_values(output, &enerj_core::in_range(0.0, 255.0))
}

/// Endorses an approximate coordinate and clamps it into bounds — the
/// "intelligent handling" an endorsement certifies (section 2.2).
fn to_index(coord: Approx<i32>) -> usize {
    endorse(coord).clamp(0, SIDE as i32 - 1) as usize
}

/// Flood fill from (sx, sy): every 4-connected pixel within `TOLERANCE` of
/// the seed tone is painted `FILL`. The work list carries *approximate*
/// coordinates; the visited bitmap is precise so the fill always
/// terminates, and out-of-bounds coordinates are clamped rather than
/// trapping — the resilience change the paper made to ZXing's transform is
/// applied here to the fill.
fn flood_fill(image: &mut ApproxVec<i32>, sx: usize, sy: usize) {
    let seed_tone = image.get(sy * SIDE + sx);
    let mut visited = vec![false; SIDE * SIDE];
    let mut work: Vec<(Approx<i32>, Approx<i32>)> =
        vec![(Approx::new(sx as i32), Approx::new(sy as i32))];

    while let Some((ax, ay)) = work.pop() {
        let x = to_index(ax);
        let y = to_index(ay);
        if visited[y * SIDE + x] {
            continue;
        }
        visited[y * SIDE + x] = true;

        let tone = image.get(y * SIDE + x);
        let diff = tone - seed_tone;
        let inside = endorse(diff.lt_approx(TOLERANCE)) && endorse(diff.gt_approx(-TOLERANCE));
        if !inside {
            continue;
        }
        image.set(y * SIDE + x, Approx::new(FILL));

        // Neighbour coordinates computed with approximate arithmetic.
        let (px, py) = (Approx::new(x as i32), Approx::new(y as i32));
        work.push((px + 1, py));
        work.push((px - 1, py));
        work.push((px, py + 1));
        work.push((px, py - 1));
    }
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
    fn masked_fill_paints_the_inner_region() {
        let rt = exact();
        let Output::Values(img) = rt.run(run) else { panic!() };
        // The generator puts tone ~200 in the inner rectangle; the seed is
        // its center, so the whole inner rectangle is painted.
        let inner = |x: usize, y: usize| {
            x > SIDE * 3 / 8 && x < SIDE * 5 / 8 && y > SIDE * 3 / 8 && y < SIDE * 5 / 8
        };
        for y in 0..SIDE {
            for x in 0..SIDE {
                let v = img[y * SIDE + x];
                if inner(x, y) {
                    assert_eq!(v, f64::from(FILL), "pixel ({x},{y}) should be filled");
                } else if x < SIDE / 8 {
                    assert!(v < 100.0, "outer pixel ({x},{y}) untouched, got {v}");
                }
            }
        }
    }

    #[test]
    fn fill_respects_tone_boundaries() {
        let rt = exact();
        let Output::Values(img) = rt.run(run) else { panic!() };
        let input = workload::segmented_image(SIDE, SIDE);
        // The mid rectangle (tone ~120) borders the inner region but lies
        // outside the tolerance band around tone ~200.
        let midpoint = (SIDE * 5 / 16, SIDE / 2);
        let idx = midpoint.1 * SIDE + midpoint.0;
        assert_eq!(img[idx], f64::from(input[idx]), "mid region must not be filled");
    }

    #[test]
    fn workload_is_integer_dominated() {
        let rt = exact();
        let _ = rt.run(run);
        let s = rt.stats();
        assert_eq!(s.fp_proportion(), 0.0, "flood fill is all-integer");
        assert!(
            s.approx_op_fraction(enerj_hw::OpKind::Int) > 0.5,
            "coordinate arithmetic is approximate"
        );
    }

    #[test]
    fn termination_under_full_fault_injection() {
        // Even with aggressive faults corrupting coordinates and tones,
        // the precise visited bitmap bounds the work list: the fill always
        // terminates and never panics.
        for seed in 0..5 {
            let rt = Runtime::new(Level::Aggressive, seed);
            let Output::Values(img) = rt.run(run) else { panic!() };
            assert_eq!(img.len(), SIDE * SIDE);
        }
    }
}
