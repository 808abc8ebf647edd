//! Deterministic workload generation.
//!
//! Every benchmark's input is produced from a fixed seed so that the
//! reference (precise) output is identical across runs; the 20 runs of
//! Figure 5 vary only the fault-injection seed of the simulated hardware.
//!
//! Generators return [`Arc`]-shared values from a per-thread cache that
//! lives as long as the thread: a campaign worker that runs the same app
//! thousands of times generates each input once and reuses the buffer for
//! every subsequent trial. Its size is bounded by the distinct shapes the
//! thread asks for (each app uses fixed shapes of a few KB). Generation is a
//! pure function of the (seed, shape) key, so a cached input is exactly the
//! value a fresh generation would produce — caching can never perturb a
//! trial. Input generation is plain host computation (no simulated ops), so
//! the cache changes wall-clock cost only, never simulated statistics.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fixed input seed shared by all benchmarks.
const INPUT_SEED: u64 = 0xE7E2_2011;

/// A CSR sparse system: `(row_ptr, col_idx, values, x)`.
type SparseSystem = (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>);

/// A complex signal as parallel `(re, im)` vectors.
type ComplexSignal = (Vec<f64>, Vec<f64>);

/// A seeded RNG for input generation.
pub(crate) fn input_rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(INPUT_SEED ^ salt)
}

/// Per-thread cache of generated workload inputs, keyed by shape.
#[derive(Default)]
struct Scratch {
    signals: HashMap<usize, Arc<ComplexSignal>>,
    grids: HashMap<usize, Arc<Vec<f64>>>,
    sparse: HashMap<(usize, usize), Arc<SparseSystem>>,
    lu: HashMap<usize, Arc<Vec<f64>>>,
    triangles: HashMap<usize, Arc<Vec<[f32; 15]>>>,
    images: HashMap<(usize, usize), Arc<Vec<i32>>>,
}

thread_local! {
    static CACHE: RefCell<Scratch> = RefCell::default();
}

/// Cache-or-generate on the thread's cache. The generator runs outside the
/// cache borrow, so a generator may itself call other workload functions.
fn cached<K: Hash + Eq + Copy, V>(
    key: K,
    table: impl Fn(&mut Scratch) -> &mut HashMap<K, Arc<V>>,
    generate: impl FnOnce() -> V,
) -> Arc<V> {
    if let Some(v) = CACHE.with(|c| table(&mut c.borrow_mut()).get(&key).cloned()) {
        return v;
    }
    let v = Arc::new(generate());
    CACHE.with(|c| table(&mut c.borrow_mut()).insert(key, Arc::clone(&v)));
    v
}

/// A complex signal of length `n` with components in `[-1, 1]`:
/// a few sinusoids plus noise, a typical FFT test input.
pub fn complex_signal(n: usize) -> Arc<ComplexSignal> {
    cached(
        n,
        |s| &mut s.signals,
        || {
            let mut rng = input_rng(1);
            let mut re = Vec::with_capacity(n);
            let mut im = Vec::with_capacity(n);
            for i in 0..n {
                let t = i as f64 / n as f64;
                let s = 0.45 * (2.0 * std::f64::consts::PI * 5.0 * t).sin()
                    + 0.30 * (2.0 * std::f64::consts::PI * 17.0 * t).cos()
                    + 0.10 * (rng.gen::<f64>() - 0.5);
                re.push(s);
                im.push(0.05 * (rng.gen::<f64>() - 0.5));
            }
            (re, im)
        },
    )
}

/// A grid with a hot interior region and cold boundary, for SOR.
pub fn sor_grid(n: usize) -> Arc<Vec<f64>> {
    cached(
        n,
        |s| &mut s.grids,
        || {
            let mut rng = input_rng(2);
            let mut g = vec![0.0; n * n];
            for (i, cell) in g.iter_mut().enumerate() {
                let (r, c) = (i / n, i % n);
                if r > 0 && r < n - 1 && c > 0 && c < n - 1 {
                    *cell = rng.gen::<f64>();
                }
            }
            g
        },
    )
}

/// A sparse matrix in CSR form with `n` rows and roughly `nz_per_row`
/// nonzeros per row, values in `[-1, 1]`, plus a dense vector.
pub(crate) fn sparse_system(n: usize, nz_per_row: usize) -> Arc<SparseSystem> {
    cached(
        (n, nz_per_row),
        |s| &mut s.sparse,
        || {
            let mut rng = input_rng(3);
            let mut row_ptr = Vec::with_capacity(n + 1);
            let mut col_idx = Vec::new();
            let mut values = Vec::new();
            row_ptr.push(0);
            for _ in 0..n {
                let mut cols: Vec<usize> = (0..nz_per_row).map(|_| rng.gen_range(0..n)).collect();
                cols.sort_unstable();
                cols.dedup();
                for c in cols {
                    col_idx.push(c);
                    values.push(rng.gen::<f64>() * 2.0 - 1.0);
                }
                row_ptr.push(col_idx.len());
            }
            let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            (row_ptr, col_idx, values, x)
        },
    )
}

/// A well-conditioned dense matrix for LU: random entries with a boosted
/// diagonal so pivots stay healthy.
pub fn lu_matrix(n: usize) -> Arc<Vec<f64>> {
    cached(
        n,
        |s| &mut s.lu,
        || {
            let mut rng = input_rng(4);
            let mut a = vec![0.0; n * n];
            for r in 0..n {
                for c in 0..n {
                    a[r * n + c] = rng.gen::<f64>() * 2.0 - 1.0;
                }
                a[r * n + r] += n as f64 * 0.5;
            }
            a
        },
    )
}

/// Random ray–triangle test cases: each is (origin, direction, v0, v1, v2),
/// flattened to 15 floats. Roughly half the rays hit their triangle.
pub(crate) fn triangle_cases(count: usize) -> Arc<Vec<[f32; 15]>> {
    cached(
        count,
        |s| &mut s.triangles,
        || {
            let mut rng = input_rng(5);
            (0..count)
                .map(|_| {
                    let mut case = [0f32; 15];
                    // Triangle in the z = 2 plane, near the origin.
                    let cx = rng.gen::<f32>() * 2.0 - 1.0;
                    let cy = rng.gen::<f32>() * 2.0 - 1.0;
                    let verts = [(cx - 0.5, cy - 0.3), (cx + 0.5, cy - 0.3), (cx, cy + 0.6)];
                    for (i, (x, y)) in verts.iter().enumerate() {
                        case[6 + i * 3] = *x;
                        case[6 + i * 3 + 1] = *y;
                        case[6 + i * 3 + 2] = 2.0;
                    }
                    // Ray from z = 0 toward a random point near the triangle.
                    case[0] = rng.gen::<f32>() * 0.4 - 0.2;
                    case[1] = rng.gen::<f32>() * 0.4 - 0.2;
                    case[2] = 0.0;
                    let tx = cx + rng.gen::<f32>() * 1.6 - 0.8;
                    let ty = cy + rng.gen::<f32>() * 1.6 - 0.8;
                    case[3] = tx - case[0];
                    case[4] = ty - case[1];
                    case[5] = 2.0;
                    case
                })
                .collect()
        },
    )
}

/// A grayscale image with a few flat regions for flood filling, values in
/// `0..=255`.
pub(crate) fn segmented_image(w: usize, h: usize) -> Arc<Vec<i32>> {
    cached(
        (w, h),
        |s| &mut s.images,
        || {
            let mut rng = input_rng(6);
            let mut img = vec![0i32; w * h];
            // Three nested rectangles of distinct tone plus speckle noise.
            for y in 0..h {
                for x in 0..w {
                    let v = if x > w / 4 && x < 3 * w / 4 && y > h / 4 && y < 3 * h / 4 {
                        if x > w * 3 / 8 && x < w * 5 / 8 && y > h * 3 / 8 && y < h * 5 / 8 {
                            200
                        } else {
                            120
                        }
                    } else {
                        40
                    };
                    let noise: i32 = rng.gen_range(-6..=6);
                    img[y * w + x] = (v + noise).clamp(0, 255);
                }
            }
            img
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(complex_signal(64), complex_signal(64));
        assert_eq!(sor_grid(16), sor_grid(16));
        assert_eq!(lu_matrix(8), lu_matrix(8));
        assert_eq!(segmented_image(16, 16), segmented_image(16, 16));
    }

    #[test]
    fn scratch_cache_returns_the_generated_values() {
        // First call populates; a second call hits the very same buffer.
        let a = complex_signal(64);
        let b = complex_signal(64);
        assert!(Arc::ptr_eq(&a, &b), "second call must reuse the cached buffer");
        let sparse = sparse_system(50, 3);
        // A fresh thread starts cold and generates its own, equal values.
        let (fresh_signal, fresh_sparse) =
            std::thread::spawn(|| (complex_signal(64), sparse_system(50, 3))).join().unwrap();
        assert!(!Arc::ptr_eq(&a, &fresh_signal), "caches are per thread");
        assert_eq!(a, fresh_signal, "cached input equals fresh generation");
        assert_eq!(sparse, fresh_sparse);
    }

    #[test]
    fn signal_is_bounded() {
        let sig = complex_signal(256);
        let (re, im) = (&sig.0, &sig.1);
        assert!(re.iter().chain(im.iter()).all(|v| v.abs() <= 1.0));
        assert_eq!(re.len(), 256);
    }

    #[test]
    fn sor_grid_has_cold_boundary() {
        let n = 16;
        let g = sor_grid(n);
        for i in 0..n {
            assert_eq!(g[i], 0.0); // top row
            assert_eq!(g[(n - 1) * n + i], 0.0); // bottom row
            assert_eq!(g[i * n], 0.0); // left column
            assert_eq!(g[i * n + n - 1], 0.0); // right column
        }
    }

    #[test]
    fn csr_structure_is_consistent() {
        let sys = sparse_system(100, 5);
        let (row_ptr, col_idx, values, x) = (&sys.0, &sys.1, &sys.2, &sys.3);
        assert_eq!(row_ptr.len(), 101);
        assert_eq!(col_idx.len(), values.len());
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        assert_eq!(x.len(), 100);
        assert!(col_idx.iter().all(|&c| c < 100));
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn lu_matrix_is_diagonally_boosted() {
        let n = 16;
        let a = lu_matrix(n);
        for r in 0..n {
            assert!(a[r * n + r].abs() > 1.0);
        }
    }

    #[test]
    fn triangle_cases_have_mixed_outcomes() {
        // Reference Möller–Trumbore on the generated cases should produce
        // both hits and misses.
        let cases = triangle_cases(200);
        let mut hits = 0;
        for c in cases.iter() {
            if reference_hit(c) {
                hits += 1;
            }
        }
        assert!(hits > 20 && hits < 180, "hits = {hits}");
    }

    /// Plain-float Möller–Trumbore used to sanity-check the generator.
    fn reference_hit(c: &[f32; 15]) -> bool {
        let o = [c[0], c[1], c[2]];
        let d = [c[3], c[4], c[5]];
        let v0 = [c[6], c[7], c[8]];
        let v1 = [c[9], c[10], c[11]];
        let v2 = [c[12], c[13], c[14]];
        let e1 = sub(v1, v0);
        let e2 = sub(v2, v0);
        let p = cross(d, e2);
        let det = dot(e1, p);
        if det.abs() < 1e-8 {
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
        v >= 0.0 && u + v <= 1.0 && dot(e2, q) * inv > 0.0
    }

    fn sub(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
        [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
    }

    fn dot(a: [f32; 3], b: [f32; 3]) -> f32 {
        a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    }

    fn cross(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    }
}
