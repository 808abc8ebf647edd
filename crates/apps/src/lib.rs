//! # enerj-apps: the EnerJ benchmark suite
//!
//! Rust ports of the applications evaluated in *EnerJ: Approximate Data
//! Types for Safe and General Low-Power Computation* (PLDI 2011),
//! section 6 / Table 3:
//!
//! * the five SciMark2 kernels — [`scimark::fft`], [`scimark::sor`],
//!   [`scimark::montecarlo`], [`scimark::sparse`], [`scimark::lu`];
//! * [`zxing`] — a QR-style 2-D barcode decoder (substitute for the ZXing
//!   library);
//! * [`jmonkey`] — batched ray–triangle intersection (substitute for the
//!   jMonkeyEngine collision workload);
//! * [`imagej`] — raster flood fill with approximate pixel coordinates;
//! * [`raytracer`] — a small ray-plane/sphere renderer.
//!
//! Every port is written once, in the EnerJ programming model
//! ([`enerj-core`](enerj_core)): approximate data and arithmetic where the
//! paper's annotations put them, explicit endorsements at
//! approximate→precise boundaries. The *reference* output is the same code
//! run with every fault strategy masked off, which is exactly the paper's
//! "precise execution" of an annotated program; the [`harness`] module
//! packages both runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approximable;
pub mod estimator;
pub mod imagej;
pub mod jmonkey;
pub mod json;
pub mod meta;
pub mod qos;
pub mod raytracer;
pub mod recovery;
pub mod scheduler;
pub mod scimark;
pub mod trials;
pub mod tuner;
pub mod workload;
pub mod zxing;

use meta::AppMeta;
use qos::Output;

/// One registered benchmark: metadata plus its entry point.
///
/// The entry point must be called under an installed
/// [`Runtime`](enerj_core::Runtime); use [`harness`] for the standard
/// reference/approximate protocol.
#[derive(Clone)]
pub struct App {
    /// Table 3 metadata.
    pub meta: AppMeta,
    /// The benchmark body.
    pub run: fn() -> Output,
    /// Cheap, reference-free sanity check of an output — the application's
    /// "handle the imprecision intelligently" knowledge, hoisted to where
    /// the recovery layer ([`recovery`]) can act on it. Must accept the
    /// reference output (pinned by a test); [`no_check`] accepts anything.
    pub check: fn(&Output) -> Result<(), String>,
}

/// A checker that accepts any output — for apps (or tests) without a
/// meaningful reference-free sanity condition.
pub fn no_check(_output: &Output) -> Result<(), String> {
    Ok(())
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("App").field("name", &self.meta.name).finish()
    }
}

/// All nine benchmarks, in the paper's Table 3 order.
pub fn all_apps() -> Vec<App> {
    vec![
        App { meta: scimark::fft::meta(), run: scimark::fft::run, check: scimark::fft::check },
        App { meta: scimark::sor::meta(), run: scimark::sor::run, check: scimark::sor::check },
        App {
            meta: scimark::montecarlo::meta(),
            run: scimark::montecarlo::run,
            check: scimark::montecarlo::check,
        },
        App {
            meta: scimark::sparse::meta(),
            run: scimark::sparse::run,
            check: scimark::sparse::check,
        },
        App { meta: scimark::lu::meta(), run: scimark::lu::run, check: scimark::lu::check },
        App { meta: zxing::meta(), run: zxing::run, check: zxing::check },
        App { meta: jmonkey::meta(), run: jmonkey::run, check: jmonkey::check },
        App { meta: imagej::meta(), run: imagej::run, check: imagej::check },
        App { meta: raytracer::meta(), run: raytracer::run, check: raytracer::check },
    ]
}

/// The registered benchmark called `name` (its Table 3 name), if any.
pub fn app(name: &str) -> Option<App> {
    all_apps().into_iter().find(|a| a.meta.name == name)
}

/// The standard measurement protocol used by every table and figure.
pub mod harness {
    use super::App;
    use crate::qos::Output;
    use enerj_core::Runtime;
    use enerj_hw::config::{HwConfig, Level, StrategyMask};
    use enerj_hw::energy::{EnergyBreakdown, EnergyQuantaBreakdown};
    use enerj_hw::stats::Stats;
    use enerj_hw::trace::FaultEvent;
    use enerj_hw::FaultCounters;
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex, OnceLock};

    pub use crate::trials;

    /// Base seed for *evaluation* fault-injection runs (XORed with the run
    /// index). Bit 63 is clear.
    pub const FAULT_SEED_BASE: u64 = 0x5A17_2011;

    /// Base seed for *tuner profiling* runs (XORed with the run index).
    ///
    /// Bit 63 is set, and `FAULT_SEED_BASE` has bit 63 clear, so
    /// `TUNER_SEED_BASE ^ r` and `FAULT_SEED_BASE ^ i` differ in bit 63 for
    /// every pair of indices below `2^63`: the profiling seed set is
    /// provably disjoint from the evaluation seed set, and tuned levels
    /// cannot overfit the exact fault sequences they are later scored on.
    pub const TUNER_SEED_BASE: u64 = FAULT_SEED_BASE | (1 << 63);

    /// Result of one simulated run.
    #[derive(Debug, Clone)]
    pub struct Measurement {
        /// The benchmark's output.
        pub output: Output,
        /// Operation and storage statistics.
        pub stats: Stats,
        /// Normalized energy under the run's Table 2 parameters.
        pub energy: EnergyBreakdown,
        /// Exact integer energy (scaled and baseline quanta per component);
        /// the normalized breakdown is its f64 projection.
        pub energy_quanta: EnergyQuantaBreakdown,
        /// Per-kind fault counters (always collected).
        pub fault_counts: FaultCounters,
        /// Structured fault events (empty unless the run was measured with
        /// the fault log enabled).
        pub events: Vec<FaultEvent>,
    }

    /// The reference configuration: Medium parameters with every fault
    /// strategy masked off. Unlike `SchedLevel::Precise` it still books the
    /// Medium energy savings; only the faults are gone.
    pub fn reference_config() -> HwConfig {
        HwConfig::for_level(Level::Medium).with_mask(StrategyMask::NONE)
    }

    /// Runs the app with all fault strategies masked off: the precise
    /// reference execution (and the source of the Figure 3 fractions,
    /// which depend only on the annotation, not on injected faults).
    pub fn reference(app: &App) -> Measurement {
        measure_with(app, reference_config(), 0)
    }

    /// Runs the app under full fault injection at `level` with `seed`.
    pub fn approximate(app: &App, level: Level, seed: u64) -> Measurement {
        measure_with(app, HwConfig::for_level(level), seed)
    }

    /// Runs the app under an arbitrary hardware configuration.
    pub fn measure_with(app: &App, cfg: HwConfig, seed: u64) -> Measurement {
        measure_with_telemetry(app, cfg, seed, false)
    }

    /// [`measure_with`], optionally collecting the structured fault log.
    ///
    /// Neither the always-on counters nor the log touch the fault PRNG, so
    /// output, statistics and energy are bit-identical either way. The app's
    /// input buffers come from the thread's workload cache
    /// ([`workload`](crate::workload)), so repeated trials on one thread
    /// generate each input once.
    pub fn measure_with_telemetry(
        app: &App,
        cfg: HwConfig,
        seed: u64,
        log_events: bool,
    ) -> Measurement {
        let rt = Runtime::with_config(cfg, seed);
        if log_events {
            rt.enable_fault_log();
        }
        let output = rt.run(app.run);
        Measurement {
            output,
            stats: rt.stats(),
            energy: rt.energy(),
            energy_quanta: rt.energy_quanta(),
            fault_counts: rt.fault_counters(),
            events: rt.take_fault_events(),
        }
    }

    /// The fault-free reference output of `app`, computed once per process
    /// and keyed by its registered name: the one reference source of every
    /// trial grid ([`trials::Grid`]), the scheduler's workloads and
    /// `campaignd`. A reference is a pure function of the app, so sharing it
    /// cannot perturb a trial. An app that reuses a registered name with a
    /// different body must not come through here.
    ///
    /// # Panics
    ///
    /// Panics if the reference run panics; the next call runs it again.
    pub fn reference_output(app: &App) -> Arc<Output> {
        type Memo = BTreeMap<&'static str, Arc<OnceLock<Arc<Output>>>>;
        static MEMO: Mutex<Memo> = Mutex::new(BTreeMap::new());
        // The map lock covers the lookup only, so apps warm up in parallel
        // and a panicking reference run poisons nothing.
        let cell = Arc::clone(
            MEMO.lock()
                .expect("no reference run holds the memo lock")
                .entry(app.meta.name)
                .or_default(),
        );
        Arc::clone(cell.get_or_init(|| Arc::new(reference(app).output)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enerj_hw::config::Level;
    use std::sync::Arc;

    #[test]
    fn registry_has_nine_apps_in_table3_order() {
        let apps = all_apps();
        let names: Vec<&str> = apps.iter().map(|a| a.meta.name).collect();
        assert_eq!(
            names,
            [
                "FFT",
                "SOR",
                "MonteCarlo",
                "SparseMatMult",
                "LU",
                "ZXing",
                "jMonkeyEngine",
                "ImageJ",
                "Raytracer"
            ]
        );
    }

    #[test]
    fn every_app_produces_a_stable_reference_output() {
        for app in all_apps() {
            let m = harness::reference(&app);
            let m2 = harness::reference(&app);
            assert_eq!(m.output, m2.output, "{} reference unstable", app.meta.name);
        }
    }

    #[test]
    fn every_checker_accepts_its_reference_output() {
        // The Precise rung of the recovery ladder re-runs at the reference
        // configuration, so a checker that rejects the reference output
        // would make a trial structurally unrecoverable.
        for app in all_apps() {
            let m = harness::reference(&app);
            assert_eq!((app.check)(&m.output), Ok(()), "{}", app.meta.name);
        }
    }

    #[test]
    fn checkers_reject_obvious_garbage() {
        for app in all_apps() {
            let garbage = qos::Output::Values(vec![f64::NAN; 3]);
            assert!(
                (app.check)(&garbage).is_err(),
                "{}: NaN garbage passed its checker",
                app.meta.name
            );
        }
        assert_eq!(no_check(&qos::Output::Text(None)), Ok(()));
    }

    #[test]
    fn mild_runs_have_tiny_output_error() {
        for app in all_apps() {
            let reference = harness::reference(&app).output;
            let m = harness::approximate(&app, Level::Mild, 1);
            let err = qos::output_error(app.meta.metric, &reference, &m.output);
            assert!(err < 0.2, "{}: mild error {err} unexpectedly high", app.meta.name);
        }
    }

    #[test]
    fn zero_runs_mean_error_is_zero_not_nan() {
        let apps = &all_apps()[..1];
        let opts = trials::CampaignOptions::with_threads(2);
        let report = trials::run_level_campaign(apps, &[Level::Medium], 0, &opts);
        assert!(report.trials.is_empty());
        assert_eq!(report.summary.mean_error.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn reference_output_is_memoized_once_for_each_app() {
        let apps = all_apps();
        let first = harness::reference_output(&apps[2]);
        assert_eq!(*first, harness::reference(&apps[2]).output);
        assert!(Arc::ptr_eq(&first, &harness::reference_output(&apps[2])));
        assert!(!Arc::ptr_eq(&first, &harness::reference_output(&apps[0])));
    }

    #[test]
    fn annotation_stats_are_sane() {
        for app in all_apps() {
            let s = app.meta.annotation_stats();
            assert!(s.loc > 20, "{}: loc {}", app.meta.name, s.loc);
            assert!(s.total_decls > 5, "{}: decls {}", app.meta.name, s.total_decls);
            assert!(s.annotated_decls > 0, "{}: no annotations found", app.meta.name);
            assert!(s.annotated_decls <= s.total_decls, "{}: annotated > total", app.meta.name);
        }
    }
}
