//! `campaignd` — the long-running campaign server.
//!
//! ```text
//! campaignd [--addr HOST:PORT] [--state-dir DIR] [--workers N]
//!           [--queue-cap N] [--max-jobs-per-tenant N] [--lease-secs S]
//!           [--read-timeout-secs S] [--write-timeout-secs S]
//!           [--tenant NAME:QUOTA[:stop|degrade]]...
//! ```
//!
//! Binds the address (`:0` picks a free port), recovers every job under
//! `<state-dir>/jobs/` from its journal, prints
//! `campaignd listening on <addr>` on stdout, and serves until a
//! `POST /shutdown` drain completes. `--tenant` may repeat; `QUOTA` is an
//! exact integer quanta count or `unlimited`.
//!
//! The two `--test-*` flags are chaos hooks for the integration tests:
//! they stall or kill the worker making the nth chunk claim
//! to exercise the lease-reclaim path. They are deliberately undocumented
//! in `--help`-style summaries elsewhere; production runs never pass them.

use std::process::ExitCode;
use std::time::Duration;

use enerj_serve::server::{Server, ServerConfig};
use enerj_serve::tenant::TenantConfig;

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("campaignd: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--state-dir" => cfg.state_dir = value("--state-dir").into(),
            "--workers" => cfg.workers = parse_num(&value("--workers"), "--workers"),
            "--queue-cap" => cfg.queue_cap = parse_num(&value("--queue-cap"), "--queue-cap"),
            "--max-jobs-per-tenant" => {
                cfg.max_jobs_per_tenant =
                    parse_num(&value("--max-jobs-per-tenant"), "--max-jobs-per-tenant");
            }
            "--lease-secs" => {
                cfg.lease = parse_secs(&value("--lease-secs"), "--lease-secs");
            }
            "--read-timeout-secs" => {
                cfg.read_timeout = parse_secs(&value("--read-timeout-secs"), "--read-timeout-secs");
            }
            "--write-timeout-secs" => {
                cfg.write_timeout =
                    parse_secs(&value("--write-timeout-secs"), "--write-timeout-secs");
            }
            "--tenant" => match TenantConfig::parse(&value("--tenant")) {
                Ok(t) => cfg.tenants.push(t),
                Err(e) => {
                    eprintln!("campaignd: {e}");
                    return ExitCode::from(2);
                }
            },
            "--test-stall-claim" => {
                let v = value("--test-stall-claim");
                let Some((n, ms)) = v.split_once(':') else {
                    eprintln!("campaignd: --test-stall-claim needs N:MS");
                    return ExitCode::from(2);
                };
                cfg.test_stall_claim = Some((
                    parse_num(n, "--test-stall-claim") as u64,
                    parse_num(ms, "--test-stall-claim") as u64,
                ));
            }
            "--test-panic-claim" => {
                cfg.test_panic_claim =
                    Some(parse_num(&value("--test-panic-claim"), "--test-panic-claim") as u64);
            }
            other => {
                eprintln!("campaignd: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    match Server::run(cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaignd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_num(v: &str, flag: &str) -> usize {
    v.parse().unwrap_or_else(|_| {
        eprintln!("campaignd: {flag} needs an integer, got `{v}`");
        std::process::exit(2);
    })
}

fn parse_secs(v: &str, flag: &str) -> Duration {
    let secs: f64 = v.parse().unwrap_or_else(|_| {
        eprintln!("campaignd: {flag} needs a number of seconds, got `{v}`");
        std::process::exit(2);
    });
    if !secs.is_finite() || secs <= 0.0 {
        eprintln!("campaignd: {flag} needs a positive number of seconds");
        std::process::exit(2);
    }
    Duration::from_secs_f64(secs)
}
