//! The `enerj-serve/1` campaign-spec schema and trial enumeration.
//!
//! A client submits a JSON object:
//!
//! ```json
//! {
//!   "schema": "enerj-serve/1",
//!   "tenant": "acme",
//!   "apps": ["MonteCarlo", "FFT"],
//!   "levels": ["Mild", "Aggressive"],
//!   "runs": 20,
//!   "recovery": false,
//!   "budget_quanta": 123456789,
//!   "over_budget": "degrade",
//!   "deadline_secs": 30.0,
//!   "chunk": 8
//! }
//! ```
//!
//! `apps`, `levels`, `runs` are a trial [`Grid`] — app-major, then level,
//! then run, on fault seeds `FAULT_SEED_BASE ^ run`, the grid
//! [`run_level_campaign`](enerj_apps::trials::run_level_campaign) runs.
//! Every trial is a pure function of its index (plus the job's degrade
//! rung, which is itself a deterministic function of the durable chunk
//! ledger), which is what makes crash recovery replay-exact: re-running
//! any uncommitted suffix reproduces the uninterrupted bytes.
//!
//! `budget_quanta` is an optional *job-level* quota in exact scaled energy
//! quanta, enforced at chunk-commit granularity on top of the tenant's
//! quota; `over_budget` picks the policy: `"stop"` ends the job with an
//! `over_quota` verdict and partial results, `"degrade"` walks the
//! remaining trials down the PR 9 scheduler ladder (Precise → Mild →
//! Medium → Aggressive) one rung per over-budget commit and hard-stops
//! only at the Aggressive floor.

use std::time::{Duration, Instant};

use enerj_apps::harness;
use enerj_apps::json::Json;
use enerj_apps::recovery;
use enerj_apps::scheduler::SchedLevel;
use enerj_apps::trials::{json_string, Grid, SpecSource, TrialSpec};
use enerj_hw::quanta::EnergyQuanta;

/// The schema tag every spec must carry.
const SCHEMA: &str = "enerj-serve/1";

/// Default trials per journal chunk when the spec does not say.
const DEFAULT_CHUNK: usize = 8;

/// Most trials one job may enumerate. Admission allocates a chunk state per
/// chunk under the server's lock, so this bounds what one `POST /jobs` can
/// make the server hold; a larger campaign is several jobs.
const MAX_TRIALS: u64 = 1 << 16;

/// What to do when a job or tenant exhausts its quota mid-campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverBudget {
    /// End the job at the chunk boundary with an `over_quota` verdict;
    /// everything committed so far stands as partial results.
    Stop,
    /// Degrade the remaining trials one rung down the scheduler ladder per
    /// over-budget commit; hard-stop once already at the Aggressive floor.
    Degrade,
}

impl OverBudget {
    /// The schema string for this policy.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            OverBudget::Stop => "stop",
            OverBudget::Degrade => "degrade",
        }
    }

    /// Parses the schema string.
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        match s {
            "stop" => Ok(OverBudget::Stop),
            "degrade" => Ok(OverBudget::Degrade),
            other => Err(format!("unknown over_budget policy `{other}` (stop|degrade)")),
        }
    }
}

/// A validated campaign spec.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The submitting tenant.
    pub tenant: String,
    /// The trials: registered apps × rungs (`Precise` or a Table 2 level,
    /// labelled with the rung name) × runs, on seeds `FAULT_SEED_BASE ^ run`.
    grid: Grid,
    /// Run every trial under the PR 5 standard recovery ladder instead of
    /// the plain watchdog-only policy.
    pub recovery: bool,
    /// Optional job-level quota in exact scaled quanta.
    pub budget_quanta: Option<EnergyQuanta>,
    /// Over-budget policy for [`budget_quanta`](Self::budget_quanta).
    pub over_budget: OverBudget,
    /// Optional wall-clock deadline from job start, in seconds.
    pub deadline_secs: Option<f64>,
    /// Trials per journal chunk (commit/lease/resume granularity).
    pub chunk: usize,
}

impl JobSpec {
    /// Total trials this spec enumerates ([`parse`](Self::parse) caps it at
    /// `MAX_TRIALS`).
    pub fn total_trials(&self) -> usize {
        self.grid.len()
    }

    /// Number of chunks (`ceil(total / chunk)`).
    pub(crate) fn total_chunks(&self) -> usize {
        self.total_trials().div_ceil(self.chunk)
    }

    /// The trial index range of chunk `c`.
    pub(crate) fn chunk_range(&self, c: usize) -> (usize, usize) {
        let lo = c * self.chunk;
        let hi = ((c + 1) * self.chunk).min(self.total_trials());
        (lo, hi)
    }

    /// Parses and validates a spec document against the app registry.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let doc = Json::parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        let schema = doc
            .get("schema")
            .and_then(|s| s.as_str())
            .ok_or("spec needs a string `schema` field")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (expected `{SCHEMA}`)"));
        }
        let tenant = doc
            .get("tenant")
            .and_then(|t| t.as_str())
            .ok_or("spec needs a string `tenant` field")?
            .to_owned();
        if tenant.is_empty() || tenant.len() > 64 || !tenant.chars().all(tenant_char) {
            return Err("tenant names are 1-64 chars of [a-zA-Z0-9._-]".to_owned());
        }
        let apps = match doc.get("apps") {
            Some(Json::Arr(list)) if !list.is_empty() => {
                let mut names = Vec::with_capacity(list.len());
                for a in list {
                    let name = a.as_str().ok_or("`apps` entries must be strings")?;
                    names.push(
                        enerj_apps::app(name).ok_or_else(|| format!("unknown app `{name}`"))?,
                    );
                }
                names
            }
            _ => return Err("spec needs a non-empty `apps` array".to_owned()),
        };
        let levels = match doc.get("levels") {
            Some(Json::Arr(list)) if !list.is_empty() => {
                let mut names = Vec::with_capacity(list.len());
                for l in list {
                    let name = l.as_str().ok_or("`levels` entries must be strings")?;
                    let level = SchedLevel::from_name(name).ok_or_else(|| {
                        format!("unknown level `{name}` (Precise|Mild|Medium|Aggressive)")
                    })?;
                    names.push((name.to_owned(), level.config()));
                }
                names
            }
            _ => return Err("spec needs a non-empty `levels` array".to_owned()),
        };
        let runs = doc
            .get("runs")
            .and_then(|r| r.as_i128())
            .and_then(|r| u64::try_from(r).ok())
            .filter(|&r| r > 0)
            .ok_or("spec needs a positive 64-bit integer `runs` field")?;
        (apps.len() as u64)
            .checked_mul(levels.len() as u64)
            .and_then(|n| n.checked_mul(runs))
            .filter(|&n| n <= MAX_TRIALS)
            .ok_or_else(|| format!("apps × levels × runs must be at most {MAX_TRIALS} trials"))?;
        let recovery = match doc.get("recovery") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("`recovery` must be a boolean".to_owned()),
        };
        let budget_quanta = match doc.get("budget_quanta") {
            None | Some(Json::Null) => None,
            Some(v) => Some(EnergyQuanta::new(
                v.as_u128().ok_or("`budget_quanta` must be a non-negative integer")?,
            )),
        };
        let over_budget = match doc.get("over_budget") {
            None => OverBudget::Stop,
            Some(v) => OverBudget::parse(
                v.as_str().ok_or("`over_budget` must be a string (stop|degrade)")?,
            )?,
        };
        let deadline_secs = match doc.get("deadline_secs") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let secs = v.as_f64().ok_or("`deadline_secs` must be a number")?;
                if secs <= 0.0 || deadline_after(Instant::now(), secs).is_none() {
                    return Err(
                        "`deadline_secs` must be a positive number of seconds the clock can hold"
                            .to_owned(),
                    );
                }
                Some(secs)
            }
        };
        let chunk = match doc.get("chunk") {
            None => DEFAULT_CHUNK,
            Some(v) => {
                let c = v
                    .as_i128()
                    .filter(|&c| c > 0 && c <= 4096)
                    .ok_or("`chunk` must be a positive integer no larger than 4096")?;
                c as usize
            }
        };
        Ok(JobSpec {
            tenant,
            grid: Grid::new(&apps, levels, runs, harness::FAULT_SEED_BASE),
            recovery,
            budget_quanta,
            over_budget,
            deadline_secs,
            chunk,
        })
    }

    /// The instant `deadline_secs` after `start`: `None` without a deadline,
    /// or if the clock cannot hold it (a deadline that could never fire).
    pub(crate) fn deadline_from(&self, start: Instant) -> Option<Instant> {
        self.deadline_secs.and_then(|secs| deadline_after(start, secs))
    }

    /// Re-serializes the spec canonically (the durable `spec.json` body,
    /// so a restarted server reconstructs the exact same job).
    pub(crate) fn to_json(&self) -> String {
        let apps: Vec<String> = self.grid.apps().iter().map(|a| json_string(a.meta.name)).collect();
        let levels: Vec<String> = self.grid.arms().iter().map(|(l, _)| json_string(l)).collect();
        format!(
            "{{\"schema\":{},\"tenant\":{},\"apps\":[{}],\"levels\":[{}],\"runs\":{},\
             \"recovery\":{},\"budget_quanta\":{},\"over_budget\":{},\"deadline_secs\":{},\
             \"chunk\":{}}}",
            json_string(SCHEMA),
            json_string(&self.tenant),
            apps.join(","),
            levels.join(","),
            self.grid.runs(),
            self.recovery,
            match self.budget_quanta {
                Some(q) => q.to_string(),
                None => "null".to_owned(),
            },
            json_string(self.over_budget.as_str()),
            match self.deadline_secs {
                Some(s) => format!("{s}"),
                None => "null".to_owned(),
            },
            self.chunk,
        )
    }

    /// The [`TrialSpec`] for trial `index` with `degrade` ladder rungs
    /// applied. Degradation shifts the requested rung towards Aggressive
    /// (saturating at the floor); a degraded trial records its effective
    /// rung in `scheduled_level` so the NDJSON line says what actually ran.
    pub fn trial_spec(&self, index: usize, degrade: u32) -> TrialSpec {
        let mut spec = self.grid.spec(index).into_owned();
        let requested = SchedLevel::from_name(&spec.label).expect("validated at parse");
        let effective_idx = (requested.index() + degrade as usize).min(SchedLevel::ALL.len() - 1);
        let effective = SchedLevel::ALL[effective_idx];
        if effective != requested {
            spec.cfg = effective.config();
            spec.scheduled_level = Some(effective.to_string());
        }
        spec.recovery = Some(if self.recovery {
            recovery::Policy::standard()
        } else {
            // Watchdog-only: contain runaway fault-corrupted loops without
            // retrying — a stalled trial must never outlive its lease.
            recovery::Policy {
                ladder: Vec::new(),
                max_ops: recovery::Policy::DEFAULT_MAX_OPS,
                qos_threshold: None,
            }
        });
        spec
    }
}

/// `start + secs`, if both the [`Duration`] and the [`Instant`] can hold
/// it (NaN, infinities and negatives never can).
fn deadline_after(start: Instant, secs: f64) -> Option<Instant> {
    Duration::try_from_secs_f64(secs).ok().and_then(|d| start.checked_add(d))
}

fn tenant_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"tenant\":\"t1\",\"apps\":[\"MonteCarlo\"],\
             \"levels\":[\"Mild\"],\"runs\":4}}"
        )
    }

    #[test]
    fn parses_minimal_spec_with_defaults() {
        let spec = JobSpec::parse(&minimal()).expect("valid");
        assert_eq!(spec.tenant, "t1");
        assert_eq!(spec.total_trials(), 4);
        assert_eq!(spec.chunk, DEFAULT_CHUNK);
        assert_eq!(spec.over_budget, OverBudget::Stop);
        assert!(spec.budget_quanta.is_none());
        assert!(!spec.recovery);
        // Round-trips through the canonical serialization.
        let again = JobSpec::parse(&spec.to_json()).expect("canonical form is valid");
        assert_eq!(again.total_trials(), spec.total_trials());
        assert_eq!(again.tenant, spec.tenant);
    }

    #[test]
    fn rejects_bad_specs() {
        for (mutation, needle) in [
            ("\"schema\":\"enerj-serve/1\"", "\"schema\":\"enerj-serve/9\""),
            ("\"apps\":[\"MonteCarlo\"]", "\"apps\":[\"NoSuchApp\"]"),
            ("\"levels\":[\"Mild\"]", "\"levels\":[\"Extreme\"]"),
            ("\"runs\":4", "\"runs\":0"),
            ("\"runs\":4", "\"runs\":18446744073709551619"),
            ("\"runs\":4", "\"runs\":1000000000000000"),
            ("\"runs\":4", "\"runs\":65537"),
            // apps × levels × runs = 2^64 overflows before the cap check.
            (
                "\"apps\":[\"MonteCarlo\"],\"levels\":[\"Mild\"],\"runs\":4",
                "\"apps\":[\"MonteCarlo\",\"FFT\"],\"levels\":[\"Mild\"],\"runs\":9223372036854775808",
            ),
            ("\"runs\":4", "\"runs\":1,\"deadline_secs\":1e300"),
            ("\"tenant\":\"t1\"", "\"tenant\":\"has space\""),
        ] {
            let bad = minimal().replace(mutation, needle);
            assert!(JobSpec::parse(&bad).is_err(), "{needle} must be rejected");
        }
        assert!(JobSpec::parse("not json").is_err());
        let at_cap = minimal().replace("\"runs\":4", &format!("\"runs\":{MAX_TRIALS}"));
        let spec = JobSpec::parse(&at_cap).expect("the cap itself is allowed");
        assert_eq!(spec.total_trials() as u64, MAX_TRIALS);
    }

    #[test]
    fn trial_specs_follow_canonical_order_and_degrade_saturates() {
        let text = format!(
            "{{\"schema\":\"{SCHEMA}\",\"tenant\":\"t1\",\"apps\":[\"MonteCarlo\",\"FFT\"],\
             \"levels\":[\"Precise\",\"Medium\"],\"runs\":2}}"
        );
        let spec = JobSpec::parse(&text).expect("valid");
        assert_eq!(spec.total_trials(), 8);
        let s0 = spec.trial_spec(0, 0);
        assert_eq!(s0.app.meta.name, "MonteCarlo");
        assert_eq!(s0.label, "Precise");
        assert_eq!(s0.seed, harness::FAULT_SEED_BASE);
        assert!(s0.scheduled_level.is_none());
        let s7 = spec.trial_spec(7, 0);
        assert_eq!(s7.app.meta.name, "FFT");
        assert_eq!(s7.label, "Medium");
        assert_eq!(s7.seed, harness::FAULT_SEED_BASE ^ 1);
        // One degrade rung: Precise→Mild, Medium→Aggressive.
        let d = spec.trial_spec(0, 1);
        assert_eq!(d.scheduled_level.as_deref(), Some("Mild"));
        let d = spec.trial_spec(7, 1);
        assert_eq!(d.scheduled_level.as_deref(), Some("Aggressive"));
        // Degradation saturates at the Aggressive floor.
        let d = spec.trial_spec(7, 9);
        assert_eq!(d.scheduled_level.as_deref(), Some("Aggressive"));
    }

    #[test]
    fn trial_order_is_the_fig5_order() {
        use enerj_hw::config::Level;
        let text = format!(
            "{{\"schema\":\"{SCHEMA}\",\"tenant\":\"t1\",\"apps\":[\"SOR\",\"MonteCarlo\"],\
             \"levels\":[\"Mild\",\"Aggressive\"],\"runs\":3}}"
        );
        let spec = JobSpec::parse(&text).expect("valid");
        let apps = ["SOR", "MonteCarlo"].map(|n| enerj_apps::app(n).expect("registered"));
        // The grid `run_level_campaign` runs for the same apps, levels and runs.
        let fig5 =
            Grid::levels(&apps, &[Level::Mild, Level::Aggressive], 3, harness::FAULT_SEED_BASE);
        assert_eq!(spec.total_trials(), 12);
        assert_eq!(fig5.len(), 12);
        for i in 0..12 {
            let (job, campaign) = (spec.trial_spec(i, 0), fig5.spec(i));
            assert_eq!(job.app.meta.name, campaign.app.meta.name, "trial {i}");
            assert_eq!(job.label, campaign.label, "trial {i}");
            assert_eq!(job.seed, campaign.seed, "trial {i}");
            assert_eq!(job.cfg, campaign.cfg, "trial {i}");
            let (a, b) =
                (job.reference.expect("scored"), campaign.reference.clone().expect("scored"));
            assert!(std::sync::Arc::ptr_eq(&a, &b), "trial {i}: one reference memo");
        }
    }

    #[test]
    fn chunk_ranges_tile_the_campaign() {
        let mut text = minimal();
        text = text.replace("\"runs\":4", "\"runs\":10,\"chunk\":3");
        let spec = JobSpec::parse(&text).expect("valid");
        assert_eq!(spec.total_trials(), 10);
        assert_eq!(spec.total_chunks(), 4);
        let ranges: Vec<(usize, usize)> =
            (0..spec.total_chunks()).map(|c| spec.chunk_range(c)).collect();
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 9), (9, 10)]);
    }
}
