//! SciMark2 SparseMatMult (CSR sparse matrix–vector product), ported to
//! EnerJ-RS.
//!
//! Matrix values and both vectors are approximate heap data; the CSR index
//! structure (`row_ptr`, `col_idx`) is precise — corrupting it would cause
//! out-of-bounds accesses, exactly the failure class the type system is
//! designed to prevent (array indices must be precise, section 2.6).

use crate::meta::AppMeta;
use crate::qos::{Output, QosMetric};
use crate::workload;
use enerj_core::{Approx, ApproxVec, Precise, PreciseVec};

/// This module's own source text, measured for Table 3.
const SOURCE: &str = include_str!("sparse.rs");

/// Matrix dimension.
const N: usize = 500;
/// Target nonzeros per row.
const NZ_PER_ROW: usize = 5;
/// Repeated products.
const REPS: usize = 1;

/// Table 3 metadata.
pub(crate) fn meta() -> AppMeta {
    AppMeta {
        name: "SparseMatMult",
        description: "SciMark2 sparse matrix-vector multiply (CSR, n=500)",
        metric: QosMetric::MeanNormalizedDiff,
        source: SOURCE,
    }
}

/// Runs the benchmark under the ambient runtime; returns `y = A^REPS · x`
/// normalized per product step.
pub(crate) fn run() -> Output {
    let sys = workload::sparse_system(N, NZ_PER_ROW);
    let (row_ptr, col_idx, vals, x0) = (&sys.0, &sys.1, &sys.2, &sys.3);
    // Index structure in precise DRAM.
    let mut rows: PreciseVec<i64> =
        PreciseVec::from_slice(&row_ptr.iter().map(|&v| v as i64).collect::<Vec<_>>());
    let mut cols: PreciseVec<i64> =
        PreciseVec::from_slice(&col_idx.iter().map(|&v| v as i64).collect::<Vec<_>>());
    // Numeric payload in approximate DRAM.
    let mut a: ApproxVec<f64> = ApproxVec::from_slice(vals);
    let mut x: ApproxVec<f64> = ApproxVec::from_slice(x0);
    let mut y: ApproxVec<f64> = ApproxVec::new(N);

    for _ in 0..REPS {
        for r in 0..N {
            let lo = rows.get(r) as usize;
            let hi = rows.get(r + 1) as usize;
            let mut acc = Approx::new(0.0f64);
            let mut k = Precise::new(lo as i64);
            while k < hi as i64 {
                let kk = k.get() as usize;
                let c = cols.get(kk) as usize;
                acc += a.get(kk) * x.get(c);
                k += 1;
            }
            y.set(r, acc);
        }
        std::mem::swap(&mut x, &mut y);
    }
    Output::Values(x.endorse_to_vec())
}

/// Recovery sanity check (see [`App::check`](crate::App)): every entry of
/// the product vector must be finite.
pub(crate) fn check(output: &Output) -> Result<(), String> {
    crate::qos::check_values(output, &enerj_core::finite())
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

    /// Plain-float reference product.
    fn reference() -> Vec<f64> {
        let sys = workload::sparse_system(N, NZ_PER_ROW);
        let (row_ptr, col_idx, vals) = (&sys.0, &sys.1, &sys.2);
        let mut x = sys.3.clone();
        for _ in 0..REPS {
            let mut y = vec![0.0f64; N];
            for r in 0..N {
                for k in row_ptr[r]..row_ptr[r + 1] {
                    y[r] += vals[k] * x[col_idx[k]];
                }
            }
            x = y;
        }
        x
    }

    #[test]
    fn masked_run_matches_plain_product() {
        let rt = exact();
        let Output::Values(ours) = rt.run(run) else { panic!() };
        let expected = reference();
        for (a, b) in ours.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn output_is_nontrivial() {
        let rt = exact();
        let Output::Values(v) = rt.run(run) else { panic!() };
        assert_eq!(v.len(), N);
        assert!(v.iter().any(|e| e.abs() > 1e-6));
    }

    #[test]
    fn dram_holds_both_precise_indices_and_approx_values() {
        let rt = exact();
        let _ = rt.run(run);
        let s = rt.stats();
        assert!(!s.dram_approx_quanta.is_zero());
        assert!(!s.dram_precise_quanta.is_zero());
        let frac = s.approx_storage_fraction(enerj_hw::MemKind::Dram);
        // Values are f64 and indices i64 with comparable counts: the
        // approximate share sits in the middle of the range.
        assert!(frac > 0.2 && frac < 0.8, "frac = {frac}");
    }
}
