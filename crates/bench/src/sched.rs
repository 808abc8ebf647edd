//! The `enerj-sched/1` budget-scheduling report: what the `schedbench`
//! binary writes to `results/BENCH_sched.json`.
//!
//! One report captures a whole budget experiment: the exact all-Precise
//! metered cost, the budget derived from it, the scheduled campaign's
//! spend/QoS/level census, every static single-level baseline on the same
//! workload and seeds, and the binary's own threads-1-vs-2 bit-identity
//! verification verdict. The serialization is byte-stable (golden-file
//! locked) so schema drift is caught the same way `enerj-campaign/6` drift
//! is.

use std::fmt::Write as _;

use enerj_apps::scheduler::SchedLevel;
use enerj_apps::trials::{read_exact, Field, ReadError};
use enerj_hw::energy::QuantaMeter;
use enerj_hw::quanta::EnergyQuanta;

/// The scheduled campaign's half of the comparison.
#[derive(Debug, Clone)]
pub struct ScheduledRow {
    /// Exact metered spend over the whole campaign.
    pub spent_quanta: EnergyQuanta,
    /// Mean output error over all trials.
    pub mean_error: f64,
    /// Scalar outputs the plausibility estimator flagged.
    pub implausible: u64,
    /// Trials per rung, summed over apps (index order of
    /// [`SchedLevel::ALL`]).
    pub level_counts: [u64; 4],
}

/// One static single-level baseline on the same workload and seeds.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// The rung every trial was pinned to.
    pub level: SchedLevel,
    /// Exact metered spend of the whole static campaign.
    pub spent_quanta: EnergyQuanta,
    /// Mean output error over all trials.
    pub mean_error: f64,
}

impl BaselineRow {
    /// Aggregate QoS: `1 − mean_error`.
    pub fn qos(&self) -> f64 {
        1.0 - self.mean_error
    }
}

/// A complete `enerj-sched/1` report. The trial count, the budget, each
/// row's QoS (`1 − mean_error`) and each budget verdict (`spent <= budget`)
/// are derived when written, never stored.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Whether this was a reduced (`--quick`) run.
    pub quick: bool,
    /// What the budget meters.
    pub meter: QuantaMeter,
    /// The budget as a percentage of the all-Precise metered cost.
    pub budget_pct: u32,
    /// Controller epoch length used.
    pub epoch_len: usize,
    /// The exact all-Precise metered cost the budget is derived from.
    pub precise_cost_quanta: EnergyQuanta,
    /// The binary's threads-1-vs-2 bit-identity verification verdict.
    pub identical: bool,
    /// The scheduled campaign.
    pub scheduled: ScheduledRow,
    /// Every static single-level baseline, in rung order.
    pub baselines: Vec<BaselineRow>,
}

impl SchedReport {
    /// The budget held: `precise_cost_quanta * budget_pct / 100`.
    fn budget_quanta(&self) -> EnergyQuanta {
        EnergyQuanta::new(self.precise_cost_quanta.get() * u128::from(self.budget_pct) / 100)
    }

    /// Serializes to the byte-stable `enerj-sched/1` JSON document.
    pub fn to_json(&self) -> String {
        let budget = self.budget_quanta();
        let mut out = String::with_capacity(1024);
        let s = &self.scheduled;
        let _ = write!(
            out,
            "{{\"schema\":\"enerj-sched/1\",\"quick\":{},\"meter\":\"{}\",\
             \"budget_pct\":{},\"trials\":{},\"epoch_len\":{},\
             \"precise_cost_quanta\":{},\"budget_quanta\":{},\"identical\":{}",
            self.quick,
            self.meter.name(),
            self.budget_pct,
            s.level_counts.iter().sum::<u64>(),
            self.epoch_len,
            self.precise_cost_quanta,
            budget,
            self.identical,
        );
        let _ = write!(
            out,
            ",\"scheduled\":{{\"spent_quanta\":{},\"budget_met\":{},\
             \"mean_error\":{},\"qos\":{},\"implausible\":{},\"level_counts\":{{",
            s.spent_quanta,
            s.spent_quanta <= budget,
            s.mean_error,
            1.0 - s.mean_error,
            s.implausible
        );
        for (i, level) in SchedLevel::ALL.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":{}",
                if i == 0 { "" } else { "," },
                level.name(),
                s.level_counts[i]
            );
        }
        out.push_str("}},\"baselines\":[");
        for (i, b) in self.baselines.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"level\":\"{}\",\"spent_quanta\":{},\"mean_error\":{},\
                 \"qos\":{},\"fits_budget\":{}}}",
                if i == 0 { "" } else { "," },
                b.level.name(),
                b.spent_quanta,
                b.mean_error,
                b.qos(),
                b.spent_quanta <= budget
            );
        }
        out.push_str("]}");
        out
    }

    /// Reads back a report [`to_json`](Self::to_json) wrote, through
    /// [`read_exact`]. The re-rendering re-derives the trial count from the
    /// level census, the budget as exactly `budget_pct`% of the precise
    /// cost, `budget_met` and each `fits_budget` as `spent <= budget`, and
    /// each row's `qos` as `1 - mean_error`, so a report that disagrees
    /// with any of them is refused. The binary's `identical` verdict must
    /// hold; absolute QoS is not gated.
    ///
    /// # Errors
    ///
    /// The first field that does not read or breaks an invariant, or the
    /// first byte the writer would render differently.
    pub fn from_json(text: &str) -> Result<SchedReport, ReadError> {
        read_exact(text, read_sched_report, SchedReport::to_json)
    }
}

fn read_sched_report(f: &Field<'_>) -> Result<SchedReport, ReadError> {
    f.schema("enerj-sched/1")?;
    let (meter, name) = (f.get("meter")?, f.get("meter")?.str()?);
    let meter =
        QuantaMeter::parse(name).ok_or_else(|| meter.invalid(format!("unknown meter `{name}`")))?;
    let identical = f.get("identical")?;
    identical.ensure(identical.bool()?, || {
        "false: scheduled campaigns diverged across thread counts".to_owned()
    })?;
    let mean_error = |row: &Field<'_>| {
        let (field, error) = (row.get("mean_error")?, row.get("mean_error")?.f64()?);
        field.ensure((0.0..=1.0).contains(&error), || format!("{error} outside [0, 1]"))?;
        Ok(error)
    };
    let row = f.get("scheduled")?;
    let mut level_counts = [0u64; 4];
    for (count, level) in level_counts.iter_mut().zip(SchedLevel::ALL) {
        *count = row.get("level_counts")?.get(level.name())?.int()?;
    }
    f.get("trials")?.ensure(level_counts.iter().sum::<u64>() > 0, || "no trials".to_owned())?;
    let scheduled = ScheduledRow {
        spent_quanta: row.get("spent_quanta")?.quanta()?,
        mean_error: mean_error(&row)?,
        implausible: row.get("implausible")?.int()?,
        level_counts,
    };
    let baseline = |row: &Field<'_>| {
        let (level, name) = (row.get("level")?, row.get("level")?.str()?);
        let level = SchedLevel::from_name(name)
            .ok_or_else(|| level.invalid(format!("unknown level `{name}`")))?;
        let (spent_quanta, mean_error) = (row.get("spent_quanta")?.quanta()?, mean_error(row)?);
        Ok(BaselineRow { level, spent_quanta, mean_error })
    };
    let rows = f.get("baselines")?;
    let baselines = rows.items()?.iter().map(baseline).collect::<Result<Vec<_>, ReadError>>()?;
    rows.ensure(!baselines.is_empty(), || "empty".to_owned())?;
    Ok(SchedReport {
        quick: f.get("quick")?.bool()?,
        meter,
        budget_pct: f.get("budget_pct")?.int()?,
        epoch_len: f.get("epoch_len")?.int()?,
        precise_cost_quanta: f.get("precise_cost_quanta")?.quanta()?,
        identical: true,
        scheduled,
        baselines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully synthetic report with fixed values, exercising every branch
    /// of the serializer.
    fn synthetic_sched_report() -> SchedReport {
        SchedReport {
            quick: true,
            meter: QuantaMeter::Sram,
            budget_pct: 60,
            epoch_len: 3,
            precise_cost_quanta: EnergyQuanta::new(1_000_000_000_000),
            identical: true,
            scheduled: ScheduledRow {
                spent_quanta: EnergyQuanta::new(587_500_000_000),
                mean_error: 0.03125,
                implausible: 1,
                level_counts: [6, 9, 6, 3],
            },
            baselines: vec![
                BaselineRow {
                    level: SchedLevel::Precise,
                    spent_quanta: EnergyQuanta::new(1_000_000_000_000),
                    mean_error: 0.0,
                },
                BaselineRow {
                    level: SchedLevel::Mild,
                    spent_quanta: EnergyQuanta::new(489_000_000_000),
                    mean_error: 0.0625,
                },
            ],
        }
    }

    #[test]
    fn sched_report_validates() {
        let json = synthetic_sched_report().to_json();
        let report = SchedReport::from_json(&json).expect("the writer's output reads back");
        assert_eq!(report.baselines.len(), 2);
        assert_eq!(report.to_json(), json);
    }

    #[test]
    fn sched_validator_matches_the_real_serializer() {
        let synthetic = synthetic_sched_report();
        let baselines = vec![synthetic.baselines[1].clone()];
        let report =
            SchedReport { quick: false, meter: QuantaMeter::Total, baselines, ..synthetic };
        let json = report.to_json();
        assert_eq!(SchedReport::from_json(&(json.clone() + "\n")).unwrap().to_json(), json);
    }

    #[test]
    fn sched_rejects_drifted_reports() {
        let good = synthetic_sched_report().to_json();
        let rejects = |from: &str, to: &str, expect: &str| {
            assert!(good.contains(from), "{from}");
            let err = SchedReport::from_json(&good.replacen(from, to, 1)).unwrap_err().to_string();
            assert!(err.contains(expect), "{from} -> {to}: {err}");
        };
        rejects("enerj-sched/1", "enerj-sched/0", "schema: `enerj-sched/0`");
        rejects("\"identical\":true", "\"identical\":false", "diverged");
        rejects("\"meter\":\"sram\"", "\"meter\":\"joules\"", "unknown meter");
        rejects("\"level\":\"Mild\"", "\"level\":\"Extreme\"", "unknown level");
        rejects(
            "\"mean_error\":0.03125",
            "\"mean_error\":1.5",
            "scheduled.mean_error: 1.5 outside",
        );
        rejects("\"baselines\":[{", "\"baselines\":[],\"x\":[{", "baselines: empty");
        // Derived values are re-derived: a dishonest verdict (met while
        // spent > budget), a budget that is not pct% of the precise cost,
        // a census short of the trial count, a baseline's wrong fit, and a
        // QoS that is not 1 - mean_error all render differently.
        rejects("587500000000", "600000000001", "the writer writes `false,");
        rejects("\"budget_quanta\":600000000000", "\"budget_quanta\":1", "writes `600000000000,");
        rejects("\"Mild\":9", "\"Mild\":8", "the text has `4,\"epoch_len\"");
        rejects("\"fits_budget\":false", "\"fits_budget\":true", "the writer writes `false}");
        rejects("\"qos\":0.96875", "\"qos\":0.9", "the writer writes `6875,");
    }

    #[test]
    fn serializes_every_section() {
        let json = synthetic_sched_report().to_json();
        assert!(json.starts_with("{\"schema\":\"enerj-sched/1\""));
        assert!(json.contains("\"meter\":\"sram\""));
        assert!(json.contains("\"budget_met\":true"));
        assert!(json
            .contains("\"level_counts\":{\"Precise\":6,\"Mild\":9,\"Medium\":6,\"Aggressive\":3}"));
        assert!(json.contains("\"level\":\"Mild\""));
        assert!(json.ends_with("]}"));
    }
}
