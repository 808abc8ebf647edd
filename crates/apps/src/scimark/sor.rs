//! SciMark2 SOR (Jacobi successive over-relaxation), ported to EnerJ-RS.
//!
//! The grid lives in approximate DRAM and every stencil update is
//! approximate; the sweep structure (row/column loops, boundary handling)
//! is precise.

use crate::meta::AppMeta;
use crate::qos::{Output, QosMetric};
use crate::workload;
use enerj_core::batch::{zip, BatchOp};
use enerj_core::{Approx, ApproxBuf, ApproxVec};

/// This module's own source text, measured for Table 3.
const SOURCE: &str = include_str!("sor.rs");

/// Grid side length.
pub const N: usize = 32;
/// Relaxation sweeps.
const ITERATIONS: usize = 10;
/// Over-relaxation factor.
const OMEGA: f64 = 1.25;

/// Table 3 metadata.
pub(crate) fn meta() -> AppMeta {
    AppMeta {
        name: "SOR",
        description: "SciMark2 successive over-relaxation (32x32, 10 sweeps)",
        metric: QosMetric::MeanEntryDiff,
        source: SOURCE,
    }
}

/// Runs the benchmark under the ambient runtime; returns the relaxed grid.
pub fn run() -> Output {
    let init = workload::sor_grid(N);
    let mut grid: ApproxVec<f64> = ApproxVec::from_slice(&init);
    relax(&mut grid, ITERATIONS);
    Output::Values(grid.endorse_to_vec())
}

/// Recovery sanity check (see [`App::check`](crate::App)): relaxation is a
/// contraction, so a non-finite grid entry can only come from a fault.
pub(crate) fn check(output: &Output) -> Result<(), String> {
    crate::qos::check_values(output, &enerj_core::finite())
}

/// Gauss–Seidel-style in-place sweeps with the standard SciMark update:
/// `g[i][j] = ω/4 (up + down + left + right) + (1-ω) g[i][j]`.
///
/// The vertical neighbour sum and the row loads/stores run on the batched
/// whole-slice API; the west-to-east combine stays scalar because each
/// cell reads its freshly updated left neighbour. The per-element addition
/// order — `((up + down) + left) + right` — is exactly the scalar loop's.
fn relax(grid: &mut ApproxVec<f64>, sweeps: usize) {
    let om4 = Approx::new(OMEGA * 0.25);
    let keep = Approx::new(1.0 - OMEGA);
    for _ in 0..sweeps {
        for r in 1..N - 1 {
            let up = ApproxBuf::load(grid, (r - 1) * N + 1, N - 2);
            let down = ApproxBuf::load(grid, (r + 1) * N + 1, N - 2);
            let vert = zip(BatchOp::Add, &up, &down);
            // The whole old row, boundaries included: `left` at column 1
            // and `right`/`center` everywhere come from here.
            let row_old = ApproxBuf::load(grid, r * N, N);
            let mut new_row = Vec::with_capacity(N - 2);
            let mut left = row_old.get(0);
            for c in 1..N - 1 {
                let neighbours = vert.get(c - 1) + left + row_old.get(c + 1);
                let val = neighbours * om4 + row_old.get(c) * keep;
                new_row.push(val);
                left = val;
            }
            ApproxBuf::from_fn(N - 2, |k| new_row[k]).store(grid, r * N + 1);
        }
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
    fn masked_run_matches_plain_sor() {
        let rt = exact();
        let Output::Values(ours) = rt.run(run) else { panic!() };
        // Plain-float reference.
        let mut g = workload::sor_grid(N).as_ref().clone();
        let om4 = OMEGA * 0.25;
        let keep = 1.0 - OMEGA;
        for _ in 0..ITERATIONS {
            for r in 1..N - 1 {
                for c in 1..N - 1 {
                    let i = r * N + c;
                    g[i] = om4 * (g[i - N] + g[i + N] + g[i - 1] + g[i + 1]) + keep * g[i];
                }
            }
        }
        for (a, b) in ours.iter().zip(&g) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn boundary_stays_cold() {
        let rt = exact();
        let Output::Values(v) = rt.run(run) else { panic!() };
        for i in 0..N {
            assert_eq!(v[i], 0.0);
            assert_eq!(v[(N - 1) * N + i], 0.0);
        }
    }

    #[test]
    fn interior_smooths_toward_neighbour_means() {
        let rt = exact();
        let Output::Values(v) = rt.run(run) else { panic!() };
        // After 20 sweeps the interior variance drops well below the
        // initial uniform-noise variance (~1/12).
        let interior: Vec<f64> = (1..N - 1)
            .flat_map(|r| (1..N - 1).map(move |c| (r, c)))
            .map(|(r, c)| v[r * N + c])
            .collect();
        let mean = interior.iter().sum::<f64>() / interior.len() as f64;
        let var =
            interior.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / interior.len() as f64;
        assert!(var < 0.05, "variance {var}");
    }

    #[test]
    fn storage_is_dominated_by_approximate_dram() {
        let rt = exact();
        let _ = rt.run(run);
        let s = rt.stats();
        assert!(s.approx_storage_fraction(enerj_hw::MemKind::Dram) > 0.9);
    }
}
