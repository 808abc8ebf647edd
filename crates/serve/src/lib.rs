//! # enerj-serve — the crash-recoverable campaign service
//!
//! A long-running server (`campaignd`) that accepts EnerJ fault-injection
//! campaign specs over a minimal hand-rolled HTTP/1.1 (`std::net` only),
//! shards them across a supervised worker pool driving the streaming
//! campaign engine, and streams per-trial NDJSON back to clients — with
//! the robustness guarantees a service needs and a library run doesn't:
//!
//! * **Durability** ([`journal`]): every committed chunk is fsync'd
//!   (output bytes first, then the journal record), so `kill -9` at any
//!   instant loses at most uncommitted work, and a restarted server
//!   resumes every in-flight campaign. The committed NDJSON across any
//!   crash/restart sequence is *byte-identical* to an uninterrupted run —
//!   trials are pure functions of their specs.
//! * **Supervision** ([`server`]): chunks are claimed under wall-clock
//!   leases with generation counters. A dead or stalled worker's chunks
//!   are reclaimed and re-run; its late results are discarded at the
//!   generation check, never double-committed.
//! * **Budgets** ([`tenant`], [`spec`]): per-tenant and per-job energy
//!   quotas in exact integer [`EnergyQuanta`](enerj_hw::quanta::EnergyQuanta),
//!   enforced at chunk-commit granularity, with a configurable
//!   over-budget policy — hard-stop with an `over_quota` partial-results
//!   verdict, or degrade down the scheduler ladder one rung per
//!   over-budget commit.
//! * **Isolation** ([`server`], `http`): per-connection read/write
//!   timeouts and file-backed streaming mean a slow or dead reader
//!   backpressures only its own socket; admission control rejects
//!   overload with typed, retriable errors and backoff hints.
//!
//! Binaries: `campaignd` (the server) and `campaignctl` (submit / status /
//! stream / shutdown).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod http;
pub mod journal;
pub mod server;
pub mod spec;
pub mod tenant;
