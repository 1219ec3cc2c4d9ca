#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-runner
//!
//! The run service: the one executor every campaign goes through. It
//! drives the per-trial campaign engine ([`underradar_campaign::engine`])
//! with one shared trial cursor, streaming verdict rows, and an optional
//! checksummed checkpoint journal with crash recovery and exact resume.
//!
//! The engine makes each trial a pure function of the spec and its index;
//! this crate schedules, commits and journals trials without giving that
//! up. A campaign run through [`service::run_service`]:
//!
//! - schedules trials from one shared cursor
//!   ([`underradar_campaign::sched::Cursor`]): each worker draws one trial
//!   at a time and runs it to its final verdict, retries inline, so a
//!   heavy cell never keeps other work waiting behind it;
//! - streams each verdict row to a [`sink::RowSink`] (e.g. JSONL) the
//!   moment its trial completes, with telemetry folded incrementally
//!   through an order-independent [`underradar_telemetry::StreamMerger`],
//!   keeping memory bounded by in-flight work, not campaign size;
//! - appends every decision — completed trial or retry handoff — to a
//!   length-prefixed, CRC-checked [`journal::Journal`], fsync'd on a
//!   configurable cadence; a `kill -9` at any point costs at most the
//!   unsynced tail, and reopening the journal resumes from the exact work
//!   frontier (mid-retry, with backoff budgets intact).
//!
//! [`service::run_in_memory`] is the same service with no journal and a
//! sink that keeps every row, for callers that want the trials themselves
//! as a [`underradar_campaign::CampaignReport`].
//!
//! The contract, tested in this crate: the final report and merged
//! telemetry are **byte-identical** to a sequential index-order reference
//! at any worker count, and a resumed run's are byte-identical to an
//! uninterrupted run's at any interruption point.
//!
//! ```
//! use underradar_campaign::{CampaignSpec, MethodKind, NamedPolicy};
//! use underradar_censor::CensorPolicy;
//! # use underradar_runner::run_in_memory;
//!
//! let spec = CampaignSpec::new("doc", 7)
//!     .target("twitter.com")
//!     .method(MethodKind::Scan)
//!     .policy(NamedPolicy::new("control", CensorPolicy::new()))
//!     .run_secs(30);
//! let tel = underradar_telemetry::Telemetry::disabled();
//! let report = run_in_memory(&spec, 2, &tel)?;
//! assert_eq!(report.trials.len(), 1);
//! assert_eq!(report.cells()[0].trials, 1);
//! # Ok::<(), underradar_runner::JournalError>(())
//! ```

pub mod codec;
pub mod journal;
pub mod service;
pub mod sink;

pub use journal::{Journal, JournalError, Replay};
pub use service::{
    run_in_memory, run_service, ProgressConfig, RunConfig, RunProfile, ServiceOutcome,
};
pub use sink::{CollectSink, JsonlSink, NullSink, RowSink};
