//! Property-based tests over the applications' quality-of-service metrics.

use enerj_apps::qos::{output_error, Output, QosMetric};
use proptest::prelude::*;

proptest! {
    /// QoS metrics stay within [0, 1] for arbitrary numeric outputs.
    #[test]
    fn qos_is_bounded(
        r in prop::collection::vec(-1e12f64..1e12, 1..50),
        o in prop::collection::vec(prop::num::f64::ANY, 1..50),
    ) {
        let n = r.len().min(o.len());
        let rv = Output::Values(r[..n].to_vec());
        let ov = Output::Values(o[..n].to_vec());
        for metric in [
            QosMetric::MeanEntryDiff,
            QosMetric::MeanNormalizedDiff,
            QosMetric::MeanPixelDiff { full_scale: 255.0 },
        ] {
            let e = output_error(metric, &rv, &ov);
            prop_assert!((0.0..=1.0).contains(&e), "{metric:?} -> {e}");
        }
    }
}
