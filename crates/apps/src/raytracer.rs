//! Raytracer, ported to EnerJ-RS.
//!
//! The paper's Raytracer workload "executes ray plane intersection on a
//! simple scene", is heavily floating-point (Table 3: 68.4% FP), and was
//! annotated almost mechanically — approximate floats everywhere. The port
//! renders a small image of a checkered ground plane and one sphere: every
//! intersection and shading computation is approximate `f32`; only the
//! image dimensions, loop counters and the checker-parity decision (an
//! endorsed comparison) are precise. Quality of service is the mean pixel
//! difference against the precise rendering.

use crate::meta::AppMeta;
use crate::qos::{Output, QosMetric};
use enerj_core::{endorse, Approx, ApproxVec, Precise};

/// This module's own source text, measured for Table 3.
const SOURCE: &str = include_str!("raytracer.rs");

/// Image side length in pixels.
pub const SIDE: usize = 32;

/// Table 3 metadata.
pub fn meta() -> AppMeta {
    AppMeta {
        name: "Raytracer",
        description: "ray-plane/sphere renderer (32x32, checkered floor)",
        metric: QosMetric::MeanPixelDiff { full_scale: 1.0 },
        source: SOURCE,
    }
}

/// Runs the benchmark under the ambient runtime; returns pixel intensities
/// in `[0, 1]`, row-major.
pub fn run() -> Output {
    let mut image: ApproxVec<f64> = ApproxVec::new(SIDE * SIDE);
    for y in 0..SIDE {
        for x in 0..SIDE {
            let shade = trace_pixel(x, y);
            let idx = Precise::new(y as i64) * SIDE as i64 + x as i64;
            image.set(idx.get() as usize, shade);
        }
    }
    Output::Values(image.endorse_to_vec())
}

/// Recovery sanity check (see [`App::check`](crate::App)): shades are
/// normalized intensities; anything non-finite or far outside `[0, 1]` is
/// fault damage. The range is padded because approximate shading arithmetic
/// may legitimately wander slightly past the nominal scale.
pub(crate) fn check(output: &Output) -> Result<(), String> {
    use enerj_core::Guard;
    crate::qos::check_values(output, &enerj_core::finite().and(enerj_core::in_range(-1.0, 2.0)))
}

/// Traces the primary ray through pixel (x, y).
fn trace_pixel(x: usize, y: usize) -> Approx<f64> {
    // Camera at the origin looking down -z; film plane at z = -1.
    let half = SIDE as f32 / 2.0;
    let dx = Approx::new((x as f32 - half + 0.5) / half);
    let dy = Approx::new((half - y as f32 - 0.5) / half);
    let dz = Approx::new(-1.0f32);

    // Sphere at (0, 0.1, -3), radius 0.8.
    let shade = intersect_sphere(dx, dy, dz);
    if endorse(shade.ge_approx(0.0f32)) {
        return widen(shade);
    }

    // Ground plane y = -1: t = -(oy + 1) / dy with the ray origin at 0.
    if endorse(dy.lt_approx(-1e-6f32)) {
        let t = Approx::new(-1.0f32) / dy;
        let px = dx * t;
        let pz = dz * t;
        // Checker parity wants integers: endorse the (approximate) floor
        // coordinates — a wrong parity shows as a misplaced checker tile.
        // Clamp before conversion: a corrupted coordinate must not be
        // allowed to overflow the parity arithmetic.
        let cx = endorse(px * 0.5f32).clamp(-1e6, 1e6).floor() as i64;
        let cz = endorse(pz * 0.5f32).clamp(-1e6, 1e6).floor() as i64;
        let base: f32 = if (cx + cz).rem_euclid(2) == 0 { 0.85 } else { 0.25 };
        // Distance haze.
        let haze = Approx::new(1.0f32) / (Approx::new(1.0f32) + t * 0.08f32);
        return widen(Approx::new(base) * haze);
    }

    // Sky gradient.
    widen(Approx::new(0.4f32) + dy * 0.3f32)
}

/// Intersects the primary ray with the scene sphere; returns the diffuse
/// shade, or -1 when the ray misses.
fn intersect_sphere(dx: Approx<f32>, dy: Approx<f32>, dz: Approx<f32>) -> Approx<f32> {
    let (cx, cy, cz) = (0.0f32, 0.1f32, -3.0f32);
    let r2 = 0.64f32;
    // Solve |t·d − c|² = r² with the origin at zero:
    // t²(d·d) − 2t(d·c) + c·c − r² = 0.
    let a = dx * dx + dy * dy + dz * dz;
    let b = (dx * cx + dy * cy + dz * cz) * -2.0f32;
    let c = Approx::new(cx * cx + cy * cy + cz * cz - r2);
    let disc = b * b - Approx::new(4.0f32) * a * c;
    if !endorse(disc.gt_approx(0.0f32)) {
        return Approx::new(-1.0f32);
    }
    let sqrt_disc = Approx::new(endorse(disc).max(0.0).sqrt());
    let t = (-b - sqrt_disc) / (a * 2.0f32);
    if !endorse(t.gt_approx(0.0f32)) {
        return Approx::new(-1.0f32);
    }
    // Diffuse shading against a light direction from above-left.
    let (hx, hy, hz) = (dx * t, dy * t, dz * t);
    let nx = (hx - cx) * 1.25f32;
    let ny = (hy - cy) * 1.25f32;
    let nz = (hz - cz) * 1.25f32;
    let (lx, ly, lz) = (-0.5f32, 0.8f32, 0.3f32);
    let lambert = nx * lx + ny * ly + nz * lz;
    let clamped = if endorse(lambert.lt_approx(0.0f32)) { Approx::new(0.0f32) } else { lambert };
    clamped * 0.8f32 + 0.15f32
}

/// Widens an approximate `f32` shade to the `f64` the image stores.
fn widen(x: Approx<f32>) -> Approx<f64> {
    Approx::new(f64::from(endorse(x)))
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
    fn image_has_sphere_floor_and_sky() {
        let rt = exact();
        let Output::Values(img) = rt.run(run) else { panic!() };
        assert_eq!(img.len(), SIDE * SIDE);
        // Center pixels hit the sphere (lit, mid-to-bright tones).
        let center = img[(SIDE / 2) * SIDE + SIDE / 2];
        assert!(center > 0.1, "sphere shade = {center}");
        // Bottom rows hit the floor: both light and dark checker tiles.
        let bottom: Vec<f64> = img[(SIDE - 2) * SIDE..(SIDE - 1) * SIDE].to_vec();
        let has_light = bottom.iter().any(|&v| v > 0.6);
        let has_dark = bottom.iter().any(|&v| v < 0.4);
        assert!(has_light && has_dark, "checker pattern missing: {bottom:?}");
        // Top rows are sky.
        assert!(img[SIDE / 2] > 0.4);
    }

    #[test]
    fn rendering_is_deterministic_when_masked() {
        let a = exact().run(run);
        let b = exact().run(run);
        assert_eq!(a, b);
    }

    #[test]
    fn workload_is_fp_heavy() {
        let rt = exact();
        let _ = rt.run(run);
        let s = rt.stats();
        assert!(s.fp_proportion() > 0.9, "fp proportion = {}", s.fp_proportion());
        assert!(s.approx_op_fraction(enerj_hw::OpKind::Fp) > 0.95);
    }

    #[test]
    fn aggressive_noise_degrades_gracefully() {
        // Under full aggressive approximation the image may be noisy but
        // must still be produced in full and mostly finite.
        let rt = Runtime::new(Level::Aggressive, 3);
        let Output::Values(img) = rt.run(run) else { panic!() };
        assert_eq!(img.len(), SIDE * SIDE);
        let finite = img.iter().filter(|v| v.is_finite()).count();
        assert!(finite > img.len() / 2);
    }
}
