//! SciMark2 FFT, ported to EnerJ-RS.
//!
//! A radix-2 Cooley–Tukey transform over approximate heap arrays. The
//! annotation follows the paper's approach to SciMark: the signal data and
//! every butterfly operation are approximate; loop structure, bit-reversal
//! indices and twiddle-angle bookkeeping stay precise (indices must be —
//! section 2.6).

use crate::meta::AppMeta;
use crate::qos::{Output, QosMetric};
use crate::workload;
use enerj_core::batch::{zip, BatchOp};
use enerj_core::{Approx, ApproxBuf, ApproxVec, Precise};

/// This module's own source text, measured for Table 3.
const SOURCE: &str = include_str!("fft.rs");

/// Transform length.
pub const N: usize = 256;

/// Table 3 metadata.
pub(crate) fn meta() -> AppMeta {
    AppMeta {
        name: "FFT",
        description: "SciMark2 fast Fourier transform (radix-2, n=256)",
        metric: QosMetric::MeanEntryDiff,
        source: SOURCE,
    }
}

/// Runs the benchmark under the ambient runtime and returns the spectrum
/// (real parts then imaginary parts).
pub fn run() -> Output {
    let signal = workload::complex_signal(N);
    let mut re: ApproxVec<f64> = ApproxVec::from_slice(&signal.0);
    let mut im: ApproxVec<f64> = ApproxVec::from_slice(&signal.1);
    fft_in_place(&mut re, &mut im);
    let mut out = re.endorse_to_vec();
    out.extend(im.endorse_to_vec());
    Output::Values(out)
}

/// Recovery sanity check (see [`App::check`](crate::App)): a fault that
/// reaches a high-order exponent bit turns the whole spectrum into
/// infinities; every entry must stay finite.
pub(crate) fn check(output: &Output) -> Result<(), String> {
    crate::qos::check_values(output, &enerj_core::finite())
}

/// Below this block half-width the per-batch setup (buffer staging, slice
/// loads of a handful of elements) costs more than it amortizes; the early
/// stages run the identical per-element butterfly instead.
const BATCH_MIN_HALF: usize = 16;

/// In-place decimation-in-time FFT on approximate arrays, with the
/// butterflies of each block executed on the batched whole-slice API once
/// blocks are wide enough to amortize a batch (early small-block stages
/// run the same butterfly per element — identical per-element float
/// operation order, so the two paths agree exactly under a masked
/// runtime).
///
/// Every block of a stage uses the same twiddle factors (the per-block
/// recurrence restarts at 1), so the table is computed once per stage and
/// staged in approximate registers; it feeds only approximate data.
fn fft_in_place(re: &mut ApproxVec<f64>, im: &mut ApproxVec<f64>) {
    let n = re.len();
    bit_reverse_permute(re, im);

    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (w_step_re, w_step_im) = (ang.cos(), ang.sin());
        let mut tws_re = Vec::with_capacity(half);
        let mut tws_im = Vec::with_capacity(half);
        let mut w_re = Approx::new(1.0f64);
        let mut w_im = Approx::new(0.0f64);
        for _ in 0..half {
            tws_re.push(w_re);
            tws_im.push(w_im);
            let next_re = w_re * w_step_re - w_im * w_step_im;
            w_im = w_re * w_step_im + w_im * w_step_re;
            w_re = next_re;
        }

        if half < BATCH_MIN_HALF {
            let mut start = 0;
            while start < n {
                for k in 0..half {
                    let (i, j) = (start + k, start + k + half);
                    let (w_re, w_im) = (tws_re[k], tws_im[k]);
                    let (br, bi) = (re.get(j), im.get(j));
                    let t_re = br * w_re - bi * w_im;
                    let t_im = br * w_im + bi * w_re;
                    let (ar, ai) = (re.get(i), im.get(i));
                    re.set(i, ar + t_re);
                    im.set(i, ai + t_im);
                    re.set(j, ar - t_re);
                    im.set(j, ai - t_im);
                }
                start += len;
            }
            len <<= 1;
            continue;
        }

        let tw_re = ApproxBuf::from_fn(half, |k| tws_re[k]);
        let tw_im = ApproxBuf::from_fn(half, |k| tws_im[k]);
        let mut start = 0;
        while start < n {
            // One butterfly batch per block: both halves are contiguous.
            let a_re = ApproxBuf::load(re, start, half);
            let a_im = ApproxBuf::load(im, start, half);
            let b_re = ApproxBuf::load(re, start + half, half);
            let b_im = ApproxBuf::load(im, start + half, half);
            let t_re = zip(
                BatchOp::Sub,
                &zip(BatchOp::Mul, &b_re, &tw_re),
                &zip(BatchOp::Mul, &b_im, &tw_im),
            );
            let t_im = zip(
                BatchOp::Add,
                &zip(BatchOp::Mul, &b_re, &tw_im),
                &zip(BatchOp::Mul, &b_im, &tw_re),
            );
            zip(BatchOp::Add, &a_re, &t_re).store(re, start);
            zip(BatchOp::Add, &a_im, &t_im).store(im, start);
            zip(BatchOp::Sub, &a_re, &t_re).store(re, start + half);
            zip(BatchOp::Sub, &a_im, &t_im).store(im, start + half);
            start += len;
        }
        len <<= 1;
    }
}

/// Bit-reversal permutation on the batched whole-slice API: each array is
/// staged with one bulk DRAM read, permuted in registers (free moves), and
/// written back with one bulk store — versus the scalar path's four
/// scattered reads and four writes per swapped pair. Index arithmetic is
/// precise integer work and is instrumented as such, unchanged.
fn bit_reverse_permute(re: &mut ApproxVec<f64>, im: &mut ApproxVec<f64>) {
    let n = re.len();
    let bits = n.trailing_zeros();
    let mut rb = ApproxBuf::load(re, 0, n);
    let mut ib = ApproxBuf::load(im, 0, n);
    for i in 0..n {
        let j = reverse_bits(i, bits);
        if j > i {
            let (ri, ii) = (rb.get(i), ib.get(i));
            rb.set(i, rb.get(j));
            ib.set(i, ib.get(j));
            rb.set(j, ri);
            ib.set(j, ii);
        }
    }
    rb.store(re, 0);
    ib.store(im, 0);
}

/// Reverses the low `bits` bits of `i`, counting the integer work.
fn reverse_bits(i: usize, bits: u32) -> usize {
    let mut v = Precise::new(i as i64);
    let mut out = Precise::new(0i64);
    for _ in 0..bits {
        out = out * 2 + v % 2;
        v /= 2;
    }
    out.get() as usize
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
    fn masked_run_matches_plain_fft() {
        let rt = exact();
        let Output::Values(ours) = rt.run(run) else { panic!() };
        // Reference: straightforward DFT on plain floats.
        let signal = workload::complex_signal(N);
        let (re, im) = (&signal.0, &signal.1);
        for k in [0usize, 1, 5, 17, 128] {
            let (mut sr, mut si) = (0.0f64, 0.0f64);
            for t in 0..N {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / N as f64;
                sr += re[t] * ang.cos() - im[t] * ang.sin();
                si += re[t] * ang.sin() + im[t] * ang.cos();
            }
            assert!((ours[k] - sr).abs() < 1e-6, "bin {k} real: {} vs {}", ours[k], sr);
            assert!((ours[N + k] - si).abs() < 1e-6, "bin {k} imag");
        }
    }

    #[test]
    fn spectrum_peaks_at_signal_frequencies() {
        let rt = exact();
        let Output::Values(v) = rt.run(run) else { panic!() };
        let mag = |k: usize| (v[k] * v[k] + v[N + k] * v[N + k]).sqrt();
        // The generator injects tones at bins 5 and 17.
        assert!(mag(5) > 10.0 * mag(3));
        assert!(mag(17) > 10.0 * mag(3));
    }

    #[test]
    fn run_is_fp_dominated_with_some_int_work() {
        let rt = exact();
        let _ = rt.run(run);
        let s = rt.stats();
        assert!(s.fp_approx_ops > 5_000);
        assert!(s.int_precise_ops > 1_000, "bit reversal counts int work");
        assert!(s.approx_op_fraction(enerj_hw::OpKind::Fp) > 0.99);
    }

    #[test]
    fn reverse_bits_is_an_involution() {
        let rt = exact();
        rt.run(|| {
            for i in 0..64usize {
                assert_eq!(reverse_bits(reverse_bits(i, 6), 6), i);
            }
        });
    }
}
