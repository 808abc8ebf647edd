//! Shared command-line parsing for every evaluation binary.
//!
//! All binaries speak the same flag vocabulary — `--runs`, `--threads`,
//! `--trace`, `--fault-log` — plus the mode flags each binary names for
//! itself (e.g. `--error-modes` for ablation, `--meter M` for schedbench),
//! so the parser lives here once. Anything else is a usage error: a typo'd
//! flag never silently falls back to a default, and neither does a mode
//! flag value the binary cannot use.

use enerj_apps::trials::CampaignOptions;
use enerj_hw::energy::QuantaMeter;

/// Simple command-line options shared by the binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Fault-injection runs per data point (Figure 5 uses 20).
    pub runs: u64,
    /// Worker threads for trial campaigns (`0` = available parallelism).
    pub threads: usize,
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
    /// for `Options::parse`.
    pub fn from_env(default_runs: u64, modes: &[&str]) -> Options {
        Options::from_env_with(default_runs, modes, |_| Ok(())).0
    }

    /// [`from_env`](Self::from_env), then `read_modes` turns the mode flag
    /// values into what the binary runs with; its error is a usage error
    /// too. See `Options::parse`.
    pub fn from_env_with<T>(
        default_runs: u64,
        modes: &[&str],
        read_modes: impl FnOnce(&Options) -> Result<T, String>,
    ) -> (Options, T) {
        Options::parse(std::env::args(), default_runs, modes, read_modes).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Parses `std::env::args`-style arguments (the first is the program
    /// name), then reads the mode flag values with `read_modes` (see
    /// [`Options::mode_value`]). `modes` names the binary's mode flags; one
    /// written with a value placeholder (`"--meter M"`) takes a value.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or malformed value, `--runs 0` or
    /// `read_modes`' error, as a message that ends with the binary's usage
    /// line.
    fn parse<T>(
        mut args: impl Iterator<Item = String>,
        default_runs: u64,
        modes: &[&str],
        read_modes: impl FnOnce(&Options) -> Result<T, String>,
    ) -> Result<(Options, T), String> {
        let program = args.next().unwrap_or_default();
        let program = program.rsplit('/').next().unwrap_or_default();
        Options::parse_flags(args, default_runs, modes)
            .and_then(|opts| read_modes(&opts).map(|modes| (opts, modes)))
            .map_err(|e| {
                let own: String = modes.iter().map(|m| format!(" [{m}]")).collect();
                format!(
                    "{program}: {e}\nusage: {program} [--runs N] [--threads N] [--trace] \
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
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// The [`value`](Self::value) of `flag` read by `read`, or `default`
    /// when the flag is absent.
    ///
    /// # Errors
    ///
    /// When `read` refuses the value: a message naming the flag, what it
    /// `needs` and the value it got.
    fn mode_value<T>(
        &self,
        flag: &str,
        default: T,
        needs: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => read(v).ok_or_else(|| format!("{flag} needs {needs}, got `{v}`")),
        }
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

/// `recovery --amplify X`: the chaos fault-rate factor, a finite number of
/// at least 1 (default 40).
pub fn amplify(opts: &Options) -> Result<f64, String> {
    opts.mode_value("--amplify", 40.0, "a finite number of at least 1", |v| {
        v.parse().ok().filter(|x: &f64| *x >= 1.0 && x.is_finite())
    })
}

/// `schedbench --budget-pct N --meter M`: the budget as a percentage of
/// the all-Precise cost (default 60) and the meter it holds (default
/// `sram`).
pub fn sched_budget(opts: &Options) -> Result<(u32, QuantaMeter), String> {
    let pct = opts.mode_value("--budget-pct", 60, "a non-negative integer", |v| v.parse().ok())?;
    let meter =
        opts.mode_value("--meter", QuantaMeter::Sram, "`sram` or `total`", QuantaMeter::parse)?;
    Ok((pct, meter))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], modes: &[&str]) -> Result<Options, String> {
        parse_with(args, modes, |_| Ok(())).map(|(opts, ())| opts)
    }

    fn parse_with<T>(
        args: &[&str],
        modes: &[&str],
        read_modes: fn(&Options) -> Result<T, String>,
    ) -> Result<(Options, T), String> {
        let args = std::iter::once("target/release/bin").chain(args.iter().copied());
        Options::parse(args.map(str::to_owned), 20, modes, read_modes)
    }

    #[test]
    fn parses_runs_and_threads() {
        let opts = parse(&["--runs", "7", "--threads", "3", "--error-modes"], &["--error-modes"])
            .expect("valid flags");
        assert_eq!(opts.runs, 7);
        assert_eq!(opts.threads, 3);
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
            &["--json"],
        ] {
            let err = parse(args, &["--error-modes"]).expect_err("an undeclared flag");
            assert!(err.contains(&format!("unknown flag `{}`", args[0])), "{err}");
            let usage = "usage: bin [--runs N] [--threads N] [--trace] [--fault-log PATH] \
                         [--error-modes]";
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
        // Mode flag values the binary cannot use are usage errors too.
        let amp: fn(&Options) -> Result<(), String> = |o| amplify(o).map(drop);
        let sched: fn(&Options) -> Result<(), String> = |o| sched_budget(o).map(drop);
        let sched_modes = ["--quick", "--budget-pct N", "--meter M"];
        for (args, modes, read, needle) in [
            (&["--amplify", "x"][..], &["--amplify X"][..], amp, "--amplify needs"),
            (&["--amplify", "0.5"], &["--amplify X"], amp, "got `0.5`"),
            (&["--amplify", "inf"], &["--amplify X"], amp, "got `inf`"),
            (&["--budget-pct", "abc"], &sched_modes, sched, "--budget-pct needs"),
            (&["--meter", "foo"], &sched_modes, sched, "--meter needs `sram` or `total`"),
        ] {
            let err = parse_with(args, modes, read).expect_err("an unusable mode value");
            assert!(err.contains(needle), "{err}");
            assert!(err.contains("\nusage: bin [--runs N]"), "{err}");
        }
        let opts = parse(&["--amplify", "2.5"], &["--amplify X"]).expect("a usable value");
        assert_eq!(amplify(&opts), Ok(2.5));
        assert_eq!(amplify(&parse(&[], &[]).expect("no flags")), Ok(40.0));
        let opts = parse(&["--meter", "total", "--budget-pct", "80"], &sched_modes).expect("valid");
        assert_eq!(sched_budget(&opts), Ok((80, QuantaMeter::Total)));
    }
}
