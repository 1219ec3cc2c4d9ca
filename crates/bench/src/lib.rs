#![warn(missing_docs)]
// Library paths must surface failures as typed errors or documented
// invariant expects — never bare unwraps (test code is exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation, plus hand-rolled performance benches over the
//! substrate (`benches/perf.rs`; no external bench framework).
//!
//! Each experiment is a pure function `run() -> String` (deterministic in
//! its internal seeds), listed in [`experiments::ALL`]. The [`cli`]
//! module is the front end the `underradar` binary dispatches to:
//! `underradar experiments <name>` runs one of them in any output mode,
//! and `underradar campaign` runs the paper-scale campaign through the
//! run service. A consolidated `cargo bench` harness
//! (`benches/experiments.rs`) prints all of them. [`experiments::run_all`]
//! fans the experiments across threads with the campaign scheduler
//! (`underradar_campaign::sched::run_indexed`); determinism is preserved
//! because each experiment seeds its own RNGs. The experiment ↔ paper
//! mapping lives in `DESIGN.md` §4 and `EXPERIMENTS.md`.

pub mod cli;
pub mod experiments;
pub mod table;
pub mod telemetry;

pub use table::Table;
