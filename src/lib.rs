#![warn(missing_docs)]
// Library paths must surface failures as typed errors or documented
// invariant expects — never bare unwraps (test code is exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # underradar
//!
//! A research-grade reproduction of *"Can Censorship Measurements Be
//! Safe(r)?"* (Ben Jones and Nick Feamster, HotNets 2015): stealthy
//! censorship-measurement techniques evaluated against simulated
//! censorship and surveillance systems.
//!
//! This facade crate re-exports the workspace so applications can depend
//! on one name:
//!
//! * [`netsim`] — deterministic discrete-event network simulator;
//! * [`protocols`] — DNS / SMTP / HTTP substrates;
//! * [`ids`] — the Snort-like signature engine both reference systems use;
//! * [`censor`] — GFC-style censorship models (RST injection, DNS
//!   poisoning, blackholing, URL filtering);
//! * [`surveil`] — the two-stage surveillance model (MVR + analyst);
//! * [`spam`] — the Proofpoint-like scorer behind Figure 2;
//! * [`spoof`] — the Beverly et al. spoofing-feasibility model;
//! * [`workloads`] — population traffic and Syria-style logs;
//! * [`core`] — the measurement techniques themselves, the Figure-1
//!   testbed, verdicts, and risk reports.
//!
//! Most applications only need [`prelude`]:
//!
//! ## Quickstart
//!
//! ```
//! use underradar::prelude::*;
//!
//! // A censor that blackholes twitter.com's web server.
//! let target = TargetSite::numbered("twitter.com", 0).web_ip;
//! let policy = CensorPolicy::new().block_ip(Cidr::host(target));
//! let mut tb = Testbed::build(TestbedConfig { policy, ..TestbedConfig::default() });
//!
//! // Measure it with a botnet-looking SYN scan.
//! let idx = tb.spawn_on_client(
//!     SimTime::ZERO,
//!     Box::new(SynScanProbe::new(target, top_ports(60), vec![80])),
//! );
//! tb.run_secs(30);
//!
//! let scan = tb.client_task::<SynScanProbe>(idx).expect("probe state");
//! let report = RiskReport::evaluate(&tb, &scan.verdict());
//! assert!(scan.verdict().is_censored(), "blocking detected");
//! assert!(report.evades(), "without alerting the surveillance system");
//! ```

pub use underradar_censor as censor;
pub use underradar_core as core;
pub use underradar_ids as ids;
pub use underradar_netsim as netsim;
pub use underradar_protocols as protocols;
pub use underradar_spam as spam;
pub use underradar_spoof as spoof;
pub use underradar_surveil as surveil;
pub use underradar_workloads as workloads;

pub mod prelude {
    //! One-stop imports for driving measurements: the testbed, the unified
    //! [`Probe`] trait with every method that implements it, verdicts and
    //! risk reports, and the campaign engine with its executor.

    pub use underradar_campaign::{
        engine as campaign_engine, CampaignReport, CampaignSpec, CellStat, MethodKind, NamedPolicy,
        RetryPolicy, TrialResult,
    };
    pub use underradar_censor::CensorPolicy;
    pub use underradar_core::methods::ddos::{DdosProbe, DdosTally};
    pub use underradar_core::methods::hops::HopProbe;
    pub use underradar_core::methods::overt::OvertProbe;
    pub use underradar_core::methods::scan::SynScanProbe;
    pub use underradar_core::methods::spam::SpamProbe;
    pub use underradar_core::methods::stateful::{MimicServer, RoutedMimicryNet, StatefulMimicry};
    pub use underradar_core::methods::stateless::{StatelessDnsMimicry, StatelessSynMimicry};
    pub use underradar_core::ports::top_ports;
    pub use underradar_core::probe::{Evidence, Probe};
    pub use underradar_core::risk::RiskReport;
    pub use underradar_core::testbed::{TargetSite, Testbed, TestbedConfig};
    pub use underradar_core::verdict::{Mechanism, Verdict};
    pub use underradar_netsim::addr::Cidr;
    pub use underradar_netsim::flow::{FlowId, FlowKey, FlowTuple};
    pub use underradar_netsim::time::{SimDuration, SimTime};
    pub use underradar_protocols::dns::DnsName;
    pub use underradar_runner::run_in_memory;
}
