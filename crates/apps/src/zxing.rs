//! ZXing substitute: a QR-style 2-D barcode decoder, ported to EnerJ-RS.
//!
//! The paper ports the ZXing smartphone bar-code library and observes two
//! things this reduced port must reproduce: the *image-processing phase*
//! (thresholding, module sampling) tolerates approximation, while the
//! *checksum/assembly phase* is precise; and because "ZXing's control flow
//! frequently depends on whether a particular pixel is black", the port
//! needs far more endorsements than any other benchmark (Table 3: 247).
//!
//! The substitute encodes a short message into a 21×21 module grid with
//! QR-style finder patterns in three corners, renders it to a noisy,
//! unevenly-lit grayscale image, and decodes it back: approximate global
//! thresholding, endorsed per-module black/white decisions, finder-pattern
//! verification, then a precise checksum check. Output error is binary —
//! the decode is either correct or it is not.

use crate::meta::AppMeta;
use crate::qos::{Output, QosMetric};
use enerj_core::{endorse, Approx, ApproxVec, Precise};
use rand::Rng;

/// This module's own source text, measured for Table 3.
const SOURCE: &str = include_str!("zxing.rs");

/// Modules per side (QR version 1).
const MODULES: usize = 21;
/// Pixels per module.
const SCALE: usize = 4;
/// Image side in pixels.
const IMG: usize = MODULES * SCALE;

/// The payload carried by the generated barcode.
pub const MESSAGE: &str = "ENERJ-PLDI11";

/// Table 3 metadata.
pub(crate) fn meta() -> AppMeta {
    AppMeta {
        name: "ZXing",
        description: "QR-style 2-D barcode decoder (21x21 modules)",
        metric: QosMetric::BinaryCorrect,
        source: SOURCE,
    }
}

/// Runs the benchmark under the ambient runtime; decodes the generated
/// barcode image.
pub fn run() -> Output {
    let image = render(&encode(MESSAGE));
    Output::Text(decode(&image))
}

/// Recovery sanity check (see [`App::check`](crate::App)): the decode must
/// produce *some* non-empty payload. This is exactly the check a real
/// barcode pipeline gets for free — a failed decode is observable without a
/// reference.
pub(crate) fn check(output: &Output) -> Result<(), String> {
    match output {
        Output::Text(Some(s)) if !s.is_empty() => Ok(()),
        Output::Text(Some(_)) => Err("decoded payload is empty".to_owned()),
        Output::Text(None) => Err("decode failed".to_owned()),
        other => Err(format!("expected text output, got {other}")),
    }
}

// ---- encoding & rendering: the (precise) world that produces the input ----

/// Whether module (r, c) belongs to a finder pattern zone (including the
/// one-module separator).
fn in_finder_zone(r: usize, c: usize) -> bool {
    (r < 8 && !(8..MODULES - 8).contains(&c)) || (r >= MODULES - 8 && c < 8)
}

/// The expected color of finder-pattern module (r, c), given the zone's
/// top-left corner: a 7×7 ring-in-ring (separator modules are white).
fn finder_color(r: usize, c: usize) -> bool {
    if r >= 7 || c >= 7 {
        return false; // separator
    }
    let ring = r.min(c).min(6 - r).min(6 - c);
    ring != 1 && ring != 5 // black outer ring, white ring, black core
}

/// The full module grid for payload bit stream `bits`; `true` is black.
fn module_grid(bits: &[bool]) -> Vec<bool> {
    let mut grid = vec![false; MODULES * MODULES];
    let mut index = 0;
    for r in 0..MODULES {
        for c in 0..MODULES {
            grid[r * MODULES + c] = if r < 8 && c < 8 {
                finder_color(r, c)
            } else if r < 8 && c >= MODULES - 8 {
                // Column MODULES-8 is the separator (white).
                c >= MODULES - 7 && finder_color(r, c - (MODULES - 7))
            } else if r >= MODULES - 8 && c < 8 {
                r >= MODULES - 7 && finder_color(r - (MODULES - 7), c)
            } else {
                // Payload modules, row-major over non-finder cells.
                let bit = if index < bits.len() {
                    bits[index]
                } else {
                    (index % 2) == 0 // deterministic padding
                };
                index += 1;
                bit
            };
        }
    }
    grid
}

/// Encodes the message into payload bits: bytes MSB-first plus an XOR
/// checksum byte.
fn encode(message: &str) -> Vec<bool> {
    let mut bytes: Vec<u8> = message.bytes().collect();
    let checksum = bytes.iter().fold(0u8, |a, b| a ^ b);
    bytes.push(checksum);
    bytes.iter().flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1 == 1)).collect()
}

/// Renders the module grid to a noisy grayscale image with an illumination
/// gradient — the physical world the decoder must cope with.
fn render(bits: &[bool]) -> Vec<i32> {
    let mut rng = crate::workload::input_rng(7);
    let grid = module_grid(bits);
    let mut img = vec![0i32; IMG * IMG];
    for y in 0..IMG {
        for x in 0..IMG {
            let black = grid[(y / SCALE) * MODULES + x / SCALE];
            let base = if black { 25 } else { 230 };
            let gradient = (x as i32 * 18) / IMG as i32;
            let noise: i32 = rng.gen_range(-8..=8);
            img[y * IMG + x] = (base + gradient + noise).clamp(0, 255);
        }
    }
    img
}

// ---- decoding: the approximate application ----

/// Decodes the barcode image; `None` on any integrity failure.
fn decode(raw: &[i32]) -> Option<String> {
    // Pixels are 8-bit samples: storing them at their natural width keeps
    // any storage fault bounded to the 0..=255 domain.
    let bytes: Vec<u8> = raw.iter().map(|&v| v.clamp(0, 255) as u8).collect();
    let mut pixels: ApproxVec<u8> = ApproxVec::from_slice(&bytes);

    // Phase 1 (approximate): global threshold = mean intensity.
    let mut total = Approx::new(0i32);
    let mut i = 0;
    while i < pixels.len() {
        total += pixels.get(i).widen_i32();
        i += SCALE; // sample every SCALE-th pixel
    }
    let samples = (pixels.len() / SCALE) as i32;
    let threshold = total / samples;

    // Phase 2 (approximate, heavily endorsed): sample module centers.
    let mut modules = vec![false; MODULES * MODULES];
    for (r, row) in modules.chunks_mut(MODULES).enumerate() {
        for (c, out) in row.iter_mut().enumerate() {
            let y = r * SCALE + SCALE / 2;
            let x = c * SCALE + SCALE / 2;
            let px = pixels.get(y * IMG + x).widen_i32();
            // Black iff darker than the (approximate) threshold.
            *out = endorse(px.lt_approx(threshold));
        }
    }

    // Phase 3 (precise): verify the finder patterns.
    let mut mismatches = Precise::new(0i64);
    for r in 0..7 {
        for c in 0..7 {
            let expected = finder_color(r, c);
            if modules[r * MODULES + c] != expected {
                mismatches += 1;
            }
            if modules[r * MODULES + (c + MODULES - 7)] != expected {
                mismatches += 1;
            }
            if modules[(r + MODULES - 7) * MODULES + c] != expected {
                mismatches += 1;
            }
        }
    }
    if mismatches.get() > 8 {
        return None; // not a barcode we trust
    }

    // Phase 4 (precise): extract the payload and check the checksum.
    let mut bits = Vec::new();
    for r in 0..MODULES {
        for c in 0..MODULES {
            if !in_finder_zone(r, c) {
                bits.push(modules[r * MODULES + c]);
            }
        }
    }
    let n_bytes = MESSAGE.len() + 1;
    let mut bytes = Vec::with_capacity(n_bytes);
    for chunk in bits.chunks(8).take(n_bytes) {
        let mut b = 0u8;
        for &bit in chunk {
            b = (b << 1) | u8::from(bit);
        }
        bytes.push(b);
    }
    let (payload, check) = bytes.split_at(n_bytes - 1);
    let expected = payload.iter().fold(0u8, |a, b| a ^ b);
    if check != [expected] {
        return None;
    }
    String::from_utf8(payload.to_vec()).ok()
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
    fn clean_decode_recovers_the_message() {
        let rt = exact();
        let out = rt.run(run);
        assert_eq!(out, Output::Text(Some(MESSAGE.to_owned())));
    }

    #[test]
    fn encode_roundtrips_through_modules() {
        let bits = encode(MESSAGE);
        let grid = module_grid(&bits);
        // Every payload bit must be recoverable from the module map.
        let mut index = 0;
        for r in 0..MODULES {
            for c in 0..MODULES {
                if in_finder_zone(r, c) {
                    continue;
                }
                if index < bits.len() {
                    assert_eq!(grid[r * MODULES + c], bits[index]);
                }
                index += 1;
            }
        }
        assert!(index >= bits.len(), "payload must fit the grid");
    }

    #[test]
    fn finder_pattern_is_ring_in_ring() {
        assert!(finder_color(0, 0)); // outer ring black
        assert!(!finder_color(1, 1)); // white ring
        assert!(finder_color(3, 3)); // core black
        assert!(!finder_color(1, 3));
        assert!(finder_color(0, 6));
    }

    #[test]
    fn corrupted_checksum_fails_closed() {
        let mut bits = encode(MESSAGE);
        let flip = bits.len() - 3; // inside the checksum byte
        bits[flip] = !bits[flip];
        let img = render(&bits);
        let rt = exact();
        let out = rt.run(|| decode(&img));
        assert_eq!(out, None, "bad checksum must not decode");
    }

    #[test]
    fn missing_finder_fails_closed() {
        // Whiteout the top-left finder zone.
        let bits = encode(MESSAGE);
        let mut img = render(&bits);
        for y in 0..7 * SCALE {
            for x in 0..7 * SCALE {
                img[y * IMG + x] = 240;
            }
        }
        let rt = exact();
        let out = rt.run(|| decode(&img));
        assert_eq!(out, None);
    }

    #[test]
    fn decoding_is_integer_dominated_with_many_endorsements() {
        let rt = exact();
        let _ = rt.run(run);
        let s = rt.stats();
        assert!(s.fp_proportion() < 0.1, "barcode decoding is integer work");
        let ann = meta().annotation_stats();
        assert!(ann.endorsements >= 1);
        // Dynamically, each module sample endorses one comparison.
        assert!(s.int_approx_ops >= (MODULES * MODULES) as u64);
    }
}
