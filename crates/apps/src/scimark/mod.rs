//! The SciMark2 kernels of the paper's evaluation (Table 3): FFT, SOR,
//! MonteCarlo, SparseMatMult and LU, each ported to the EnerJ programming
//! model with approximate data arrays, approximate arithmetic, and precise
//! control flow.

pub mod fft;
pub mod lu;
pub(crate) mod montecarlo;
pub mod sor;
pub(crate) mod sparse;
