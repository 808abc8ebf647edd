//! `campaignctl` — the command-line client for `campaignd`.
//!
//! ```text
//! campaignctl submit --addr HOST:PORT (--spec-file F | --spec JSON) [--wait] [--stream]
//! campaignctl status --addr HOST:PORT JOB
//! campaignctl summary --addr HOST:PORT JOB
//! campaignctl stream --addr HOST:PORT JOB [--from-line N]
//! campaignctl tenant --addr HOST:PORT NAME
//! campaignctl shutdown --addr HOST:PORT
//! campaignctl health --addr HOST:PORT
//! ```
//!
//! `stream` prints complete NDJSON lines to stdout; combined with
//! `--from-line N` it resumes exactly where a previous (killed) collection
//! stopped, and the concatenation is byte-identical to one uninterrupted
//! stream — the client drops torn trailing fragments, the server only
//! serves journal-committed bytes.

use std::process::ExitCode;
use std::time::Duration;

use enerj_serve::client::{Client, Submitted};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "campaignctl: need a subcommand (submit|status|summary|stream|tenant|shutdown|health)"
        );
        return ExitCode::from(2);
    };
    let flag_value = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };
    let has_flag = |name: &str| args.iter().any(|a| a == name);
    let Some(addr) = flag_value("--addr") else {
        eprintln!("campaignctl: --addr HOST:PORT is required");
        return ExitCode::from(2);
    };
    let client = Client::new(addr).with_timeout(Duration::from_secs(600));
    // The first non-flag argument after the subcommand (job id / tenant).
    let positional = args[1..]
        .iter()
        .scan(false, |skip, a| {
            let take = !*skip && !a.starts_with("--");
            *skip = a.starts_with("--") && !matches!(a.as_str(), "--wait" | "--stream" | "--json");
            Some((take, a))
        })
        .find(|(take, _)| *take)
        .map(|(_, a)| a.clone());

    let outcome = match cmd.as_str() {
        "submit" => {
            let spec = match (flag_value("--spec-file"), flag_value("--spec")) {
                (Some(path), _) => match std::fs::read_to_string(&path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("campaignctl: cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                (None, Some(inline)) => inline,
                (None, None) => {
                    eprintln!("campaignctl: submit needs --spec-file or --spec");
                    return ExitCode::from(2);
                }
            };
            match client.submit(&spec) {
                Ok(Submitted::Accepted { job_id, trials }) => {
                    eprintln!("accepted {job_id}: {trials} trials");
                    let mut ok = true;
                    if has_flag("--stream") {
                        ok = client.stream_lines(&job_id, 0, |line| println!("{line}")).is_ok();
                    } else if has_flag("--wait") {
                        match client.wait(&job_id, Duration::from_secs(3600)) {
                            Ok(verdict) => eprintln!("{job_id}: {verdict}"),
                            Err(e) => {
                                eprintln!("campaignctl: {e}");
                                ok = false;
                            }
                        }
                    } else {
                        println!("{job_id}");
                    }
                    Ok(ok)
                }
                Ok(Submitted::Rejected { status, error, retriable, backoff_ms, detail }) => {
                    eprintln!(
                        "rejected ({status} {error}): {detail} [retriable={retriable}{}]",
                        match backoff_ms {
                            Some(ms) => format!(", backoff {ms}ms"),
                            None => String::new(),
                        }
                    );
                    Ok(false)
                }
                Err(e) => Err(e),
            }
        }
        "status" | "summary" | "tenant" => {
            let Some(target) = positional else {
                eprintln!("campaignctl: {cmd} needs a job id or tenant name");
                return ExitCode::from(2);
            };
            let resp = match cmd.as_str() {
                "status" => client.status(&target),
                "summary" => client.summary(&target),
                _ => client.tenant(&target),
            };
            resp.map(|r| {
                println!("{}", String::from_utf8_lossy(&r.body));
                r.status == 200
            })
        }
        "stream" => {
            let Some(job) = positional else {
                eprintln!("campaignctl: stream needs a job id");
                return ExitCode::from(2);
            };
            let from_line = match flag_value("--from-line").map(|v| v.parse::<u64>()) {
                None if !has_flag("--from-line") => 0,
                Some(Ok(n)) => n,
                _ => {
                    eprintln!("campaignctl: --from-line needs a non-negative integer");
                    return ExitCode::from(2);
                }
            };
            client.stream_lines(&job, from_line, |line| println!("{line}")).map(|()| true)
        }
        "shutdown" => client.shutdown().map(|r| r.status == 200),
        "health" => client.healthz().map(|r| {
            println!("{}", String::from_utf8_lossy(&r.body));
            r.status == 200
        }),
        other => {
            eprintln!("campaignctl: unknown subcommand `{other}`");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("campaignctl: {e}");
            ExitCode::FAILURE
        }
    }
}
