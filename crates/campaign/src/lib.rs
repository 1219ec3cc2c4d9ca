#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-campaign
//!
//! A deterministic **campaign engine** for running measurement studies at
//! scale: a declarative [`CampaignSpec`] (targets × methods × censor
//! policies × trial seeds) expands into a work matrix, schedules trials
//! across OS threads from one shared cursor ([`sched`]), caches built
//! testbed templates per policy, retries
//! `Inconclusive` trials with bounded backoff in *simulated* time, and
//! aggregates per-method accuracy/risk matrices plus merged telemetry.
//!
//! Every measurement method from the paper ("Can Censorship Measurements
//! Be Safe(r)?", Jones & Feamster, HotNets 2015) is driven through the
//! unified [`underradar_core::probe::Probe`] trait, so the engine never
//! needs method-specific verdict plumbing — only method-specific setup.
//!
//! Campaigns execute through one executor, the run service in
//! `underradar-runner` (`run_service`, or `run_in_memory` for a plain
//! in-memory run). This crate supplies what it executes: the spec, the
//! per-trial engine ([`engine::prepare`], [`engine::run_trial`]), the
//! scheduler ([`sched`]) and the per-cell fold ([`StreamReport`]).
//!
//! Determinism contract: a trial's result and telemetry are a pure
//! function of the spec and the trial's index. Trial seeds are derived
//! from `(master_seed, trial index)` alone, never from scheduling order,
//! so a campaign's report is byte-identical regardless of the worker
//! count.
//!
//! ```
//! use underradar_campaign::engine::{self, ScopeConfig};
//! use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
//! use underradar_censor::CensorPolicy;
//!
//! let spec = CampaignSpec::new("doc", 7)
//!     .target("twitter.com")
//!     .method(MethodKind::Scan)
//!     .policy(NamedPolicy::new("control", CensorPolicy::new()))
//!     .run_secs(30);
//! let tel = underradar_telemetry::Telemetry::disabled();
//! let preps = engine::prepare(&spec);
//! let trial = &spec.expand()[0];
//! let (result, _registry) =
//!     engine::run_trial(&spec, &preps[trial.policy_idx], trial, ScopeConfig::of(&tel));
//! assert_eq!(result.index, 0);
//! ```

pub mod engine;
pub mod report;
pub mod sched;
pub mod seed;
pub mod spec;

pub use report::{CampaignReport, CellStat, StreamReport, TrialResult};
pub use spec::{CampaignSpec, MethodKind, NamedPolicy, RetryPolicy, Trial};
