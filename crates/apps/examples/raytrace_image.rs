//! Renders the Raytracer benchmark's scene at each approximation level and
//! prints the images as ASCII art side by side — the qualitative
//! observation of section 6.2: "Raytracer always outputs an image
//! resembling its precise output, but the amount of random pixel noise
//! increases with the aggressiveness of approximation."
//!
//! Run with `cargo run --release -p enerj-apps --example raytrace_image`.

use enerj_apps::qos::{output_error, Output};
use enerj_apps::{harness, raytracer};
use enerj_core::Runtime;
use enerj_hw::config::{HwConfig, Level};

const RAMP: &[u8] = b" .:-=+*#%@";

fn shade_to_char(v: f64) -> char {
    if !v.is_finite() {
        return '?';
    }
    let idx = (v.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx] as char
}

fn render(cfg: HwConfig, seed: u64) -> Vec<f64> {
    let rt = Runtime::with_config(cfg, seed);
    let Output::Values(img) = rt.run(raytracer::run) else {
        unreachable!("raytracer returns pixel values")
    };
    img
}

fn main() {
    let precise_cfg = harness::reference_config();
    let precise = render(precise_cfg, 0);

    let mut images = vec![("precise".to_owned(), precise.clone())];
    for level in Level::ALL {
        let img = render(HwConfig::for_level(level), 7);
        let err = output_error(
            raytracer::meta().metric,
            &Output::Values(precise.clone()),
            &Output::Values(img.clone()),
        );
        images.push((format!("{level} (err {err:.3})"), img));
    }

    let side = raytracer::SIDE;
    let mut header = String::new();
    for (label, _) in &images {
        header.push_str(&format!("{label:<w$}", w = side + 2));
    }
    println!("{header}");
    for y in 0..side {
        let mut line = String::new();
        for (_, img) in &images {
            for x in 0..side {
                line.push(shade_to_char(img[y * side + x]));
            }
            line.push_str("  ");
        }
        println!("{line}");
    }
    println!();
    println!("Left to right: precise reference, then Mild / Medium / Aggressive.");
    println!("Noise grows with aggressiveness; the scene stays recognizable.");
}
