//! Shared command-line parsing for every evaluation binary.
//!
//! All binaries speak the same flag vocabulary — `--runs`, `--threads`,
//! `--json`, `--trace`, `--fault-log` — plus the mode flags each binary
//! names for itself (e.g. `--error-modes` for ablation, `--meter M` for
//! schedbench), so the parser lives here once. Anything else is a usage
//! error: a typo'd flag never silently falls back to a default.

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
    /// The binary's own mode flags that were passed, in order, each with
    /// its value if the flag takes one.
    pub flags: Vec<(String, Option<String>)>,
}

impl Options {
    /// Parses this process's arguments; on a usage error prints the error
    /// and the usage line on stderr and exits with status 2. `modes` is as
    /// for [`Options::parse`].
    pub fn from_env(default_runs: u64, modes: &[&str]) -> Options {
        Options::parse(std::env::args(), default_runs, modes).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Parses `std::env::args`-style arguments (the first is the program
    /// name). `modes` names the binary's mode flags; one written with a
    /// value placeholder (`"--meter M"`) takes a value.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or malformed value, or `--runs 0`, as a
    /// message that ends with the binary's usage line.
    pub fn parse(
        mut args: impl Iterator<Item = String>,
        default_runs: u64,
        modes: &[&str],
    ) -> Result<Options, String> {
        let program = args.next().unwrap_or_default();
        let program = program.rsplit('/').next().unwrap_or_default();
        Options::parse_flags(args, default_runs, modes).map_err(|e| {
            let own: String = modes.iter().map(|m| format!(" [{m}]")).collect();
            format!(
                "{program}: {e}\nusage: {program} [--runs N] [--threads N] [--json] [--trace] \
                 [--fault-log PATH]{own}"
            )
        })
    }

    fn parse_flags(
        mut args: impl Iterator<Item = String>,
        default_runs: u64,
        modes: &[&str],
    ) -> Result<Options, String> {
        let mut opts = Options {
            runs: default_runs,
            threads: 0,
            json: false,
            fault_log: None,
            trace: false,
            flags: Vec::new(),
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--runs" => {
                    let v = value()?;
                    opts.runs = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("--runs needs a positive integer, got `{v}`"))?;
                }
                "--threads" => {
                    let v = value()?;
                    opts.threads =
                        v.parse().map_err(|_| format!("--threads needs an integer, got `{v}`"))?;
                }
                "--json" => opts.json = true,
                "--fault-log" => opts.fault_log = Some(value()?),
                "--trace" => opts.trace = true,
                _ => {
                    let mode = modes
                        .iter()
                        .find(|m| m.split(' ').next() == Some(flag.as_str()))
                        .ok_or_else(|| format!("unknown flag `{flag}`"))?;
                    let v = if mode.contains(' ') { Some(value()?) } else { None };
                    opts.flags.push((flag, v));
                }
            }
        }
        Ok(opts)
    }

    /// Whether a mode flag (e.g. `--quick`) was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of a value-taking mode flag, the last one if repeated.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// The campaign options these flags imply: `--fault-log` turns on event
    /// collection, `--trace` turns on live progress.
    pub fn campaign_options(&self) -> CampaignOptions {
        CampaignOptions {
            threads: self.threads,
            log_events: self.fault_log.is_some(),
            progress: self.trace,
            ..CampaignOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], modes: &[&str]) -> Result<Options, String> {
        let args = std::iter::once("target/release/bin").chain(args.iter().copied());
        Options::parse(args.map(str::to_owned), 20, modes)
    }

    #[test]
    fn parses_runs_threads_and_json() {
        let opts = parse(
            &["--runs", "7", "--threads", "3", "--json", "--error-modes"],
            &["--error-modes"],
        )
        .expect("valid flags");
        assert_eq!(opts.runs, 7);
        assert_eq!(opts.threads, 3);
        assert!(opts.json);
        assert_eq!(opts.flags, vec![("--error-modes".to_owned(), None)]);
        assert!(opts.has_flag("--error-modes"));
        assert!(!opts.has_flag("--quick"));
    }

    #[test]
    fn parses_telemetry_flags() {
        let opts = parse(&["--fault-log", "out.ndjson", "--trace"], &[]).expect("valid flags");
        assert_eq!(opts.fault_log.as_deref(), Some("out.ndjson"));
        assert!(opts.trace);
        let c = opts.campaign_options();
        assert!(c.log_events);
        assert!(c.progress);
        let c = parse(&[], &[]).expect("no flags").campaign_options();
        assert!(!c.log_events);
        assert!(!c.progress);
    }

    #[test]
    fn default_runs_apply() {
        let opts = parse(&[], &[]).expect("no flags");
        assert_eq!(opts.runs, 20);
        assert_eq!(opts.threads, 0, "default = available parallelism");
        assert!(!opts.json);
    }

    #[test]
    fn declared_mode_flags_take_their_values() {
        let modes = ["--quick", "--budget-pct N", "--meter M"];
        let opts =
            parse(&["--meter", "total", "--quick", "--runs", "2", "--meter", "sram"], &modes)
                .expect("declared mode flags");
        assert_eq!(opts.runs, 2);
        assert!(opts.has_flag("--quick"));
        assert_eq!(opts.value("--meter"), Some("sram"), "the last value wins");
        assert_eq!(opts.value("--budget-pct"), None);
        assert_eq!(opts.value("--quick"), None, "a switch has no value");
        let err = parse(&["--meter"], &modes).expect_err("a value-taking flag needs its value");
        assert!(err.contains("--meter needs a value"), "{err}");
    }

    #[test]
    fn unknown_and_retired_flags_are_usage_errors() {
        for args in [
            &["--deadline-secs", "1"][..],
            &["--chunk", "8"],
            &["--thread", "2"],
            &["--quick"],
            &["--amplify", "4"],
        ] {
            let err = parse(args, &["--error-modes"]).expect_err("an undeclared flag");
            assert!(err.contains(&format!("unknown flag `{}`", args[0])), "{err}");
            let usage = "usage: bin [--runs N] [--threads N] [--json] [--trace] \
                         [--fault-log PATH] [--error-modes]";
            assert!(err.ends_with(usage), "{err}");
        }
    }

    #[test]
    fn zero_or_malformed_runs_are_usage_errors() {
        for runs in ["0", "-1", "x", ""] {
            let err = parse(&["--runs", runs], &[]).expect_err("runs must be positive");
            assert!(err.contains("--runs needs a positive integer"), "{err}");
        }
        assert!(parse(&["--threads", "two"], &[]).is_err());
        assert!(parse(&["--runs"], &[]).is_err());
        assert!(parse(&["--fault-log"], &[]).is_err());
    }
}
