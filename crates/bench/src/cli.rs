//! Shared command-line parsing for every evaluation binary.
//!
//! All binaries speak the same flag vocabulary — `--runs`, `--threads`,
//! `--json`, `--trace`, `--fault-log`, plus free binary-specific mode flags
//! collected in [`Options::flags`] — so the parser lives here once;
//! fig3/fig4/fig5/table3/ablation/tuning/schedbench all use it rather
//! than hand-rolling their own loops.

use enerj_apps::trials::CampaignOptions;

/// Simple command-line options shared by the binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Fault-injection runs per data point (Figure 5 uses 20).
    pub runs: u64,
    /// Worker threads for trial campaigns (`0` = available parallelism).
    pub threads: usize,
    /// Emit JSON rows instead of a text table.
    pub json: bool,
    /// Write the campaign's structured fault log (NDJSON) here.
    pub fault_log: Option<String>,
    /// Print live campaign progress and per-unit fault totals on stderr.
    pub trace: bool,
    /// Campaign chunk size (`0` = auto): trial indices a worker claims per
    /// work-stealing grab. A throughput knob only — never changes results.
    pub chunk: usize,
    /// Wall-clock deadline in seconds for each campaign the binary runs:
    /// checked at chunk claim, so an out-of-time campaign truncates at a
    /// chunk boundary with an explicit `deadline_exceeded` verdict in its
    /// summary (completed trials stay bit-identical to the undeadlined
    /// prefix). `None` = no deadline.
    pub deadline_secs: Option<f64>,
    /// Extra mode flags (e.g. `--error-modes` for the ablation binary,
    /// `--quick` for schedbench).
    pub flags: Vec<String>,
}

impl Options {
    /// Parses `std::env::args`-style arguments.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(args: impl Iterator<Item = String>, default_runs: u64) -> Options {
        let mut opts = Options {
            runs: default_runs,
            threads: 0,
            json: false,
            fault_log: None,
            trace: false,
            chunk: 0,
            deadline_secs: None,
            flags: Vec::new(),
        };
        let mut args = args.skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--runs" => {
                    let v = args.next().expect("--runs needs a value");
                    opts.runs = v.parse().expect("--runs needs an integer");
                }
                "--threads" => {
                    let v = args.next().expect("--threads needs a value");
                    opts.threads = v.parse().expect("--threads needs an integer");
                }
                "--json" => opts.json = true,
                "--fault-log" => {
                    opts.fault_log = Some(args.next().expect("--fault-log needs a path"));
                }
                "--trace" => opts.trace = true,
                "--chunk" => {
                    let v = args.next().expect("--chunk needs a value");
                    opts.chunk = v.parse().expect("--chunk needs an integer");
                }
                "--deadline-secs" => {
                    let v = args.next().expect("--deadline-secs needs a value");
                    let secs: f64 = v.parse().expect("--deadline-secs needs a number");
                    assert!(
                        secs.is_finite() && secs >= 0.0,
                        "--deadline-secs needs a non-negative number"
                    );
                    opts.deadline_secs = Some(secs);
                }
                other => opts.flags.push(other.to_owned()),
            }
        }
        opts
    }

    /// Whether a binary-specific mode flag (e.g. `--quick`) was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The campaign options these flags imply: `--fault-log` turns on event
    /// collection, `--trace` turns on live progress.
    pub fn campaign_options(&self) -> CampaignOptions {
        CampaignOptions {
            threads: self.threads,
            log_events: self.fault_log.is_some(),
            progress: self.trace,
            chunk: self.chunk,
            deadline: self.deadline_secs.map(std::time::Duration::from_secs_f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_runs_threads_and_json() {
        let opts = Options::parse(
            ["bin", "--runs", "7", "--threads", "3", "--json", "--error-modes"]
                .iter()
                .map(|s| s.to_string()),
            20,
        );
        assert_eq!(opts.runs, 7);
        assert_eq!(opts.threads, 3);
        assert!(opts.json);
        assert_eq!(opts.flags, vec!["--error-modes"]);
        assert!(opts.has_flag("--error-modes"));
        assert!(!opts.has_flag("--quick"));
    }

    #[test]
    fn parses_telemetry_flags() {
        let opts = Options::parse(
            ["bin", "--fault-log", "out.ndjson", "--trace"].iter().map(|s| s.to_string()),
            20,
        );
        assert_eq!(opts.fault_log.as_deref(), Some("out.ndjson"));
        assert!(opts.trace);
        let c = opts.campaign_options();
        assert!(c.log_events);
        assert!(c.progress);
        let plain = Options::parse(["bin"].iter().map(|s| s.to_string()), 20);
        let c = plain.campaign_options();
        assert!(!c.log_events);
        assert!(!c.progress);
    }

    #[test]
    fn default_runs_apply() {
        let opts = Options::parse(["bin"].iter().map(|s| s.to_string()), 20);
        assert_eq!(opts.runs, 20);
        assert_eq!(opts.threads, 0, "default = available parallelism");
        assert!(!opts.json);
    }
}
