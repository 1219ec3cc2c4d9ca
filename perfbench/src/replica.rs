//! The traced replica: runs a campaign's trials one at a time through the
//! same public calls that `campaign::engine`'s private trial paths make,
//! with a span around each call into a layer, and commits each result the
//! way `runner::run_service` does.
//!
//! The replica differs from the engine in one way: packet capture is on,
//! so the packets each monitor saw can be replayed afterwards through
//! fresh monitor instances, outside the trial. For every trial it drives,
//! the pass also runs `engine::run_trial` and refuses to go on if the
//! result row, telemetry or simulator event count differ (the fidelity
//! check).

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::path::Path;

use underradar_campaign::engine::{self, ScopeConfig};
use underradar_campaign::{
    seed, CampaignSpec, MethodKind, NamedPolicy, StreamReport, Trial, TrialResult,
};
use underradar_censor::{CensorAction, CensorActionKind, TapCensor};
use underradar_core::methods::ddos::DdosProbe;
use underradar_core::methods::hops::HopProbe;
use underradar_core::methods::overt::OvertProbe;
use underradar_core::methods::scan::SynScanProbe;
use underradar_core::methods::spam::SpamProbe;
use underradar_core::methods::stateful::{MimicServer, RoutedMimicryNet, StatefulMimicry};
use underradar_core::methods::stateless::{StatelessDnsMimicry, StatelessSynMimicry};
use underradar_core::ports::top_ports;
use underradar_core::probe::Probe;
use underradar_core::risk::RiskReport;
use underradar_core::testbed::{TargetSite, Testbed, TestbedConfig, TestbedTemplate};
use underradar_core::verdict::Verdict;
use underradar_ids::engine::DetectionEngine;
use underradar_ids::rule::Rule;
use underradar_ids::stream::ReassemblyConfig;
use underradar_netsim::host::Host;
use underradar_netsim::{
    Capture, IfaceId, Node, NodeCtx, NodeId, Packet, SimDuration, SimTime, Simulator,
};
use underradar_protocols::dns::QType;
use underradar_runner::codec::encode_trial_result;
use underradar_runner::{Journal, JsonlSink, NullSink, RowSink};
use underradar_surveil::exposure::{ExposureEventKind, ExposureLedger};
use underradar_surveil::mvr::{Mvr, MvrConfig};
use underradar_surveil::system::{
    default_surveillance_rules, SurveillanceConfig, SurveillanceNode, SurveillanceSystem,
};
use underradar_telemetry::{Registry, StreamMerger, Telemetry};

use crate::trace::{Recorder, CAMPAIGN_ID};
use crate::workload::{render_audit, Workload, FSYNC_EVERY};

// The engine's trial constants, restated; the fidelity check catches drift.
const HOP_PORT: u16 = 33434;
const HOP_MAX_TTL: u8 = 6;
const MIMIC_PORT: u16 = 7443;
const SCAN_PORTS: usize = 60;
const DDOS_SAMPLES: usize = 20;

/// What one check pass produced.
pub struct PassOutput {
    /// `StreamReport::render_text` over the replica's results.
    pub text: String,
    /// The safety audit over the replica's merged registries, when the
    /// workload runs with telemetry.
    pub audit: Option<String>,
    pub trials: Vec<TrialStats>,
    pub spans: Recorder,
    /// Journal bytes appended, when the workload journals.
    pub journal_bytes: u64,
}

/// Counts gathered for one trial.
#[derive(Default)]
pub struct TrialStats {
    pub method: Option<MethodKind>,
    pub attempts: u32,
    pub failed: bool,
    pub events: u64,
    pub censor_actions: u64,
    pub telemetry_keys: u64,
    pub ids_packets: u64,
    pub ids_bytes_scanned: u64,
    pub ids_flows: u64,
    pub surveil_observed: u64,
    pub surveil_retained: u64,
}

/// A policy column as the replica needs it: a capture-enabled template
/// plus the rulesets the monitors were built with.
struct ReplicaPrep<'a> {
    named: &'a NamedPolicy,
    template: TestbedTemplate,
    routed_rules: Vec<Rule>,
    flat_rules: Vec<Rule>,
}

impl<'a> ReplicaPrep<'a> {
    fn build(spec: &'a CampaignSpec) -> Vec<ReplicaPrep<'a>> {
        let targets: Vec<TargetSite> = spec
            .targets
            .iter()
            .enumerate()
            .map(|(i, domain)| TargetSite::numbered(domain, i as u8))
            .collect();
        spec.policies
            .iter()
            .map(|named| {
                let template = TestbedTemplate::prepare(TestbedConfig {
                    seed: 0,
                    policy: named.policy.clone(),
                    targets: targets.clone(),
                    cover_hosts: spec.cover_hosts,
                    surveillance_alert_first: false,
                    censor_rst_teardown: true,
                    capture: true,
                    client_link_loss: spec.client_link_loss,
                    client_link_reorder: spec.client_link_reorder,
                    client_link_duplicate: spec.client_link_duplicate,
                    client_link_corrupt: spec.client_link_corrupt,
                    monitor_reassembly: spec.monitor_reassembly,
                });
                let collector = template.instantiate(0).collector_ip;
                let rules = |collector| {
                    default_surveillance_rules(
                        Testbed::home_net(),
                        &named.policy.dns_blocked,
                        &named.policy.keywords,
                        collector,
                    )
                };
                ReplicaPrep {
                    named,
                    template,
                    routed_rules: rules(None),
                    flat_rules: rules(Some(collector)),
                }
            })
            .collect()
    }
}

/// One attempt's packet capture, kept for replay through the monitors.
struct TapFeed {
    capture: Capture,
    censor: NodeId,
    surveil: NodeId,
    /// Flat testbed (policy-configured monitors) or routed network
    /// (default-configured monitors).
    flat: bool,
}

impl TapFeed {
    /// The packets delivered to `node`, with the time they were sent.
    fn delivered_to(&self, node: NodeId) -> Vec<(SimTime, &Packet)> {
        self.capture
            .records()
            .iter()
            .filter(|r| r.to_node == node)
            .map(|r| (r.time, &r.packet))
            .collect()
    }
}

/// What one attempt returned besides its result.
struct AttemptRun {
    result: TrialResult,
    events: u64,
    censor_actions: u64,
    feed: Option<TapFeed>,
}

/// Runs trials the way the engine does, timing each layer call.
struct Replica<'a> {
    spec: &'a CampaignSpec,
    preps: Vec<ReplicaPrep<'a>>,
    scope_cfg: ScopeConfig,
    keep_feeds: bool,
}

impl Replica<'_> {
    /// `engine::run_trial`: attempts until a final verdict.
    fn run_trial(
        &self,
        trial: &Trial,
        rec: &mut Recorder,
        stats: &mut TrialStats,
        feeds: &mut Vec<TapFeed>,
        mut on_retry: impl FnMut(u32, &Registry),
    ) -> (TrialResult, Registry) {
        let spec = self.spec;
        let prep = &self.preps[trial.policy_idx];
        let id = trial.index as u64;
        let mut acc = Registry::new();
        let mut attempt = 0u32;
        loop {
            let attempt_seed = seed::attempt_seed(trial.seed, attempt);
            let horizon = spec.run_secs + spec.retry.backoff_secs * attempt as u64;
            let scope = self.scope_cfg.scope();
            let mut run = match trial.method {
                MethodKind::Hops | MethodKind::Stateful => {
                    self.execute_routed(prep, trial, attempt_seed, horizon, &scope, rec)
                }
                _ => self.execute_flat(prep, trial, attempt_seed, horizon, &scope, rec),
            };
            rec.time("telemetry.export", id, || acc.merge(&scope.snapshot()));
            stats.attempts += 1;
            stats.events += run.events;
            stats.censor_actions += run.censor_actions;
            feeds.extend(run.feed.take());
            let inconclusive = matches!(run.result.verdict, Verdict::Inconclusive(_));
            if !inconclusive || attempt >= spec.retry.max_retries {
                let mut result = run.result;
                result.retries = attempt;
                bump(&mut acc, "campaign.trials", 1);
                bump(&mut acc, "campaign.retries", attempt as u64);
                let label = trial.method.label();
                bump(&mut acc, &format!("campaign.method.{label}.trials"), 1);
                bump(
                    &mut acc,
                    &format!("campaign.method.{label}.retries"),
                    attempt as u64,
                );
                if inconclusive {
                    bump(&mut acc, "campaign.inconclusive_final", 1);
                }
                return (result, acc);
            }
            attempt += 1;
            on_retry(attempt, &acc);
        }
    }

    fn execute_flat(
        &self,
        prep: &ReplicaPrep<'_>,
        trial: &Trial,
        seed: u64,
        horizon_secs: u64,
        scope: &Telemetry,
        rec: &mut Recorder,
    ) -> AttemptRun {
        let spec = self.spec;
        let id = trial.index as u64;
        let mut tb = rec.time("core.instantiate", id, || {
            let mut tb = prep.template.instantiate(seed);
            tb.set_telemetry(scope.clone());
            tb
        });
        rec.open("core.spawn", id);
        let site = tb.targets[trial.target_idx].clone();
        let domain = site.domain.clone();
        let resolver = tb.resolver_ip;
        let collector = tb.collector_ip;
        let cover = if spec.spoofed_cover > 0 {
            (0..spec.spoofed_cover)
                .map(|i| Ipv4Addr::new(10, 0, 1, 30 + i as u8))
                .collect()
        } else {
            tb.cover_ips.clone()
        };
        if spec.warmup {
            match trial.method {
                MethodKind::Spam => {
                    let others: Vec<_> = tb
                        .targets
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != trial.target_idx)
                        .map(|(_, t)| t.domain.clone())
                        .take(3)
                        .collect();
                    for (i, warm) in others.into_iter().enumerate() {
                        tb.spawn_on_client(
                            SimTime::ZERO + SimDuration::from_secs(i as u64),
                            Box::new(SpamProbe::new(
                                &warm,
                                resolver,
                                seed.wrapping_add(1 + i as u64),
                            )),
                        );
                    }
                }
                MethodKind::Ddos => {
                    tb.spawn_on_client(
                        SimTime::ZERO,
                        Box::new(DdosProbe::new(
                            site.web_ip,
                            &domain.to_string(),
                            "/",
                            3 * DDOS_SAMPLES,
                        )),
                    );
                }
                _ => {}
            }
        }
        let start = |delay: u64| {
            if spec.warmup {
                SimTime::ZERO + SimDuration::from_secs(delay)
            } else {
                SimTime::ZERO
            }
        };
        let idx = match trial.method {
            MethodKind::Overt => tb.spawn_on_client(
                SimTime::ZERO,
                Box::new(OvertProbe::new(
                    &domain,
                    resolver,
                    collector,
                    &prep.named.probe_path,
                )),
            ),
            MethodKind::Scan => tb.spawn_on_client(
                SimTime::ZERO,
                Box::new(SynScanProbe::new(
                    site.web_ip,
                    top_ports(SCAN_PORTS),
                    vec![80],
                )),
            ),
            MethodKind::Spam => {
                tb.spawn_on_client(start(10), Box::new(SpamProbe::new(&domain, resolver, seed)))
            }
            MethodKind::Ddos => tb.spawn_on_client(
                start(5),
                Box::new(DdosProbe::new(
                    site.web_ip,
                    &domain.to_string(),
                    &prep.named.probe_path,
                    DDOS_SAMPLES,
                )),
            ),
            MethodKind::StatelessDns => tb.spawn_on_client(
                SimTime::ZERO,
                Box::new(StatelessDnsMimicry::new(&domain, QType::A, resolver, cover)),
            ),
            MethodKind::StatelessSyn => tb.spawn_on_client(
                SimTime::ZERO,
                Box::new(StatelessSynMimicry::new(site.web_ip, 80, cover)),
            ),
            MethodKind::Hops | MethodKind::Stateful => unreachable!("routed methods"),
        };
        rec.close();
        rec.time("netsim.run", id, || tb.run_secs(horizon_secs));
        let (verdict, evidence, risk) = rec.time("core.score", id, || {
            let probe: &dyn Probe = match trial.method {
                MethodKind::Overt => tb.client_task::<OvertProbe>(idx).expect("probe state"),
                MethodKind::Scan => tb.client_task::<SynScanProbe>(idx).expect("probe state"),
                MethodKind::Spam => tb.client_task::<SpamProbe>(idx).expect("probe state"),
                MethodKind::Ddos => tb.client_task::<DdosProbe>(idx).expect("probe state"),
                MethodKind::StatelessDns => tb
                    .client_task::<StatelessDnsMimicry>(idx)
                    .expect("probe state"),
                MethodKind::StatelessSyn => tb
                    .client_task::<StatelessSynMimicry>(idx)
                    .expect("probe state"),
                MethodKind::Hops | MethodKind::Stateful => unreachable!("routed methods"),
            };
            let verdict = probe.verdict();
            let evidence = probe.evidence();
            let risk = RiskReport::evaluate(&tb, &verdict);
            (verdict, evidence, risk)
        });
        let censor_actions = rec.time("telemetry.export", id, || {
            tb.export_telemetry(scope);
            let actions = tb.censor_actions();
            export_exposure(
                scope,
                trial.method.label(),
                &prep.named.name,
                &actions,
                tb.surveillance(),
            );
            actions.len() as u64
        });
        let feed = self.keep_feeds.then(|| TapFeed {
            capture: tb.sim.take_capture().expect("capture enabled"),
            censor: tb.censor,
            surveil: tb.surveillance,
            flat: true,
        });
        let events = tb.sim.events_processed();
        rec.time("core.teardown", id, || drop(tb));
        AttemptRun {
            result: TrialResult {
                index: trial.index,
                method: trial.method,
                policy: prep.named.name.clone(),
                target: domain.to_string(),
                seed: trial.seed,
                verdict,
                verdict_correct: risk.verdict_correct,
                evaded: risk.evades(),
                alerts_on_client: risk.alerts_on_client,
                attributed: risk.attributed,
                pursued: risk.pursued,
                anonymity_set: risk.anonymity_set,
                retries: 0,
                evidence,
            },
            events,
            censor_actions,
            feed,
        }
    }

    fn execute_routed(
        &self,
        prep: &ReplicaPrep<'_>,
        trial: &Trial,
        seed: u64,
        horizon_secs: u64,
        scope: &Telemetry,
        rec: &mut Recorder,
    ) -> AttemptRun {
        let id = trial.index as u64;
        assert!(
            !scope.tracer().is_live(),
            "flight-recorder runs are not replicated"
        );
        let mut net = rec.time("core.instantiate", id, || {
            let mut net = RoutedMimicryNet::build_with_rules(
                seed,
                prep.named.policy.clone(),
                prep.routed_rules.clone(),
            );
            net.sim.set_telemetry(scope.clone());
            net
        });
        rec.open("core.spawn", id);
        match trial.method {
            MethodKind::Hops => {
                let probe = HopProbe::new(net.cover_ip, HOP_PORT, HOP_MAX_TTL);
                net.sim
                    .node_mut::<Host>(net.mserver)
                    .expect("mserver host")
                    .spawn_task_at(SimTime::ZERO, Box::new(probe));
            }
            MethodKind::Stateful => {
                let agreed_iss = (seed as u32) | 1;
                let server = MimicServer::new(
                    MIMIC_PORT,
                    agreed_iss,
                    Some(RoutedMimicryNet::HOPS_TO_COVER),
                );
                net.sim
                    .node_mut::<Host>(net.mserver)
                    .expect("mserver host")
                    .spawn_task_at(SimTime::ZERO, Box::new(server));
                let payload = format!("GET {} HTTP/1.0\r\n\r\n", prep.named.probe_path);
                let client = StatefulMimicry::new(
                    net.cover_ip,
                    net.mserver_ip,
                    MIMIC_PORT,
                    agreed_iss,
                    payload.as_bytes(),
                );
                net.sim
                    .node_mut::<Host>(net.client)
                    .expect("client host")
                    .spawn_task_at(SimTime::ZERO, Box::new(client));
            }
            _ => unreachable!("flat methods"),
        }
        rec.close();
        rec.time("netsim.run", id, || {
            net.sim
                .run_for(SimDuration::from_secs(horizon_secs))
                .expect("sim run")
        });
        let (verdict, evidence, verdict_correct, alerts, attributed, pursued) =
            rec.time("core.score", id, || {
                let mserver = net.sim.node_ref::<Host>(net.mserver).expect("mserver host");
                let probe: &dyn Probe = match trial.method {
                    MethodKind::Hops => mserver.task_ref::<HopProbe>(0).expect("probe state"),
                    MethodKind::Stateful => {
                        mserver.task_ref::<MimicServer>(0).expect("server state")
                    }
                    _ => unreachable!("flat methods"),
                };
                let verdict = probe.verdict();
                let evidence = probe.evidence();
                let censor_acted = net
                    .sim
                    .node_ref::<TapCensor>(net.censor)
                    .map(|tap| !tap.actions().is_empty())
                    .unwrap_or(false);
                let system = surveillance(&net);
                let correct = verdict.correct_against(censor_acted);
                (
                    verdict,
                    evidence,
                    correct,
                    system.alerts_for(net.client_ip),
                    system.is_attributed(net.client_ip),
                    system.is_pursued(net.client_ip),
                )
            });
        rec.time("telemetry.export", id, || {
            if scope.is_enabled() {
                net.sim.export_telemetry(scope);
                if let Some(tap) = net.sim.node_ref::<TapCensor>(net.censor) {
                    tap.export_telemetry(scope);
                }
                let system = surveillance(&net);
                let tap_actions = net
                    .sim
                    .node_ref::<TapCensor>(net.censor)
                    .map(|tap| tap.actions().to_vec())
                    .unwrap_or_default();
                system.export_telemetry(scope);
                export_exposure(
                    scope,
                    trial.method.label(),
                    &prep.named.name,
                    &tap_actions,
                    system,
                );
            }
        });
        let target = prep
            .template
            .config()
            .targets
            .get(trial.target_idx)
            .map(|t| t.domain.to_string())
            .unwrap_or_default();
        let events = net.sim.events_processed();
        let censor_actions = net
            .sim
            .node_ref::<TapCensor>(net.censor)
            .map_or(0, |tap| tap.actions().len() as u64);
        let feed = self.keep_feeds.then(|| TapFeed {
            capture: net.sim.take_capture().expect("routed net captures"),
            censor: net.censor,
            surveil: net.surveillance,
            flat: false,
        });
        rec.time("core.teardown", id, || drop(net));
        AttemptRun {
            result: TrialResult {
                index: trial.index,
                method: trial.method,
                policy: prep.named.name.clone(),
                target,
                seed: trial.seed,
                verdict_correct,
                evaded: alerts == 0,
                alerts_on_client: alerts,
                attributed,
                pursued,
                anonymity_set: None,
                retries: 0,
                evidence,
                verdict,
            },
            events,
            censor_actions,
            feed,
        }
    }
}

fn surveillance(net: &RoutedMimicryNet) -> &SurveillanceSystem {
    net.sim
        .node_ref::<SurveillanceNode>(net.surveillance)
        .expect("surveillance node")
        .system()
}

fn bump(registry: &mut Registry, name: &str, n: u64) {
    if n > 0 {
        *registry.counters.entry(name.to_string()).or_insert(0) += n;
    }
}

/// The engine's exposure export, restated over public APIs.
fn export_exposure(
    scope: &Telemetry,
    method_label: &str,
    policy_name: &str,
    actions: &[CensorAction],
    system: &SurveillanceSystem,
) {
    if !scope.is_enabled() {
        return;
    }
    let cell = format!("{method_label}/{policy_name}");
    let mut ledger = ExposureLedger::new();
    for action in actions {
        let kind = match action.kind {
            CensorActionKind::KeywordRst { .. } | CensorActionKind::DnsInjection { .. } => {
                ExposureEventKind::Injection
            }
            _ => ExposureEventKind::Drop,
        };
        ledger.record(
            &cell,
            &action.client.to_string(),
            kind,
            action.time.as_nanos(),
        );
    }
    type FlowTuple = (Option<u16>, u32, Option<u16>);
    let mut flows: BTreeMap<Ipv4Addr, BTreeSet<FlowTuple>> = BTreeMap::new();
    for alert in system.engine().log().all() {
        ledger.record(
            &cell,
            &alert.src.to_string(),
            ExposureEventKind::Alert,
            alert.time.as_nanos(),
        );
        flows.entry(alert.src).or_default().insert((
            alert.src_port,
            u32::from(alert.dst),
            alert.dst_port,
        ));
    }
    for (src, set) in &flows {
        ledger.add_sensitive_flows(&cell, &src.to_string(), set.len() as u64);
    }
    let mut retained: BTreeMap<Ipv4Addr, u64> = BTreeMap::new();
    for (_, rec) in system.stores().content.iter() {
        *retained.entry(rec.src).or_insert(0) += rec.bytes as u64;
    }
    for (src, bytes) in &retained {
        ledger.add_retained(&cell, &src.to_string(), *bytes);
    }
    ledger.export(scope);
}

/// A node that accepts packets and does nothing: the replay baseline
/// subtracted from the censor replay.
struct NullNode;

impl Node for NullNode {
    fn name(&self) -> &str {
        "null"
    }

    fn wants_batch(&self) -> bool {
        true
    }

    fn receive(&mut self, _ctx: &mut NodeCtx<'_>, _iface: IfaceId, _packet: Packet) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Replay one attempt's tap traffic through fresh monitors, one layer at
/// a time.
fn replay(
    feed: &TapFeed,
    rules: &[Rule],
    prep: &ReplicaPrep<'_>,
    reassembly: ReassemblyConfig,
    id: u64,
    rec: &mut Recorder,
    stats: &mut TrialStats,
) {
    let censor = if feed.flat {
        let mut tap = TapCensor::with_reassembly("censor", prep.named.policy.clone(), reassembly);
        tap.set_rst_teardown(true);
        tap
    } else {
        TapCensor::new("censor", prep.named.policy.clone())
    };
    let censor_feed = feed.delivered_to(feed.censor);
    let surveil_feed = feed.delivered_to(feed.surveil);
    let feed_sim = |node: Box<dyn Node>| {
        let mut sim = Simulator::new(0);
        let id = sim.add_node(node);
        for (t, p) in &censor_feed {
            sim.inject_at(id, IfaceId(0), (*p).clone(), *t)
                .expect("node exists");
        }
        sim
    };
    let mut sim = feed_sim(Box::new(censor));
    rec.time("censor.replay", id, || {
        sim.run_to_completion().expect("censor replay")
    });
    let mut sim = feed_sim(Box::new(NullNode));
    rec.time("censor.replay_null", id, || {
        sim.run_to_completion().expect("null replay")
    });

    let (surv_reassembly, ids_reassembly) = if feed.flat {
        (reassembly, reassembly)
    } else {
        (ReassemblyConfig::default(), ReassemblyConfig::default())
    };
    let mut cfg = SurveillanceConfig::with_rules(rules.to_vec());
    cfg.reassembly = surv_reassembly;
    let mut system = SurveillanceSystem::new(cfg);
    rec.time("surveil.replay", id, || {
        for (t, p) in &surveil_feed {
            system.process(*t, p);
        }
    });
    let s = system.stats();
    stats.surveil_observed += s.observed;
    stats.surveil_retained += s.retained;

    let mut mvr = Mvr::new(MvrConfig::default());
    rec.time("surveil.mvr", id, || {
        for (t, p) in &surveil_feed {
            mvr.process(*t, p);
        }
    });

    let mut ids = DetectionEngine::with_reassembly(rules.to_vec(), ids_reassembly);
    rec.time("ids.replay", id, || {
        for (t, p) in &surveil_feed {
            ids.process(*t, p);
        }
    });
    let e = ids.stats();
    stats.ids_packets += e.packets;
    stats.ids_bytes_scanned += e.ac_bytes_scanned;
    stats.ids_flows += ids.reassembly_stats().flows_created;
}

/// The service's commit path for one workload: journal, row sink, report
/// fold and registry merge.
struct Committer {
    journal: Option<Journal>,
    sink: Box<dyn RowSink>,
    report: StreamReport,
    merger: StreamMerger,
}

/// Run every trial of `spec` through the replica, commit each result as
/// the service would, and check each against `engine::run_trial`.
/// `trace` turns on the span recorder and the monitor replays.
pub fn check_pass(
    workload: Workload,
    spec: &CampaignSpec,
    trace: bool,
    journal_path: &Path,
) -> Result<PassOutput, String> {
    let tel = workload.telemetry();
    let scope_cfg = ScopeConfig::of(&tel);
    let with_events = ScopeConfig::of(&Telemetry::enabled());
    let engine_preps = engine::prepare(spec);
    let replica = Replica {
        spec,
        preps: ReplicaPrep::build(spec),
        scope_cfg,
        keep_feeds: trace,
    };
    let trials = spec.expand();
    let mut rec = Recorder::new(trace);
    let _ = std::fs::remove_file(journal_path);
    let journal = if workload.journals() {
        let (mut j, _) =
            Journal::open_or_create(journal_path, spec.fingerprint(), trials.len() as u64)
                .map_err(|e| format!("journal open: {e}"))?;
        j.set_fsync_every(FSYNC_EVERY);
        Some(j)
    } else {
        None
    };
    let header_len = std::fs::metadata(journal_path)
        .map(|m| m.len())
        .unwrap_or(0);
    let mut commit = Committer {
        journal,
        sink: if workload.journals() {
            Box::new(JsonlSink::new(std::io::sink()))
        } else {
            Box::new(NullSink)
        },
        report: StreamReport::new(&spec.name),
        merger: StreamMerger::new(),
    };
    let mut out_trials = Vec::with_capacity(trials.len());
    for trial in &trials {
        let id = trial.index as u64;
        let prep = &engine_preps[trial.policy_idx];
        let (engine_result, engine_acc) = rec.time("campaign.engine_trial", id, || {
            engine::run_trial(spec, prep, trial, scope_cfg)
        });
        let engine_events = if tel.is_enabled() {
            engine_acc.counter("netsim.events_processed")
        } else {
            engine::run_trial(spec, prep, trial, with_events)
                .1
                .counter("netsim.events_processed")
        };

        let mut stats = TrialStats {
            method: Some(trial.method),
            ..TrialStats::default()
        };
        let mut feeds = Vec::new();
        let mut journal_err = None;
        rec.open("campaign.trial", id);
        let (result, acc) =
            replica.run_trial(trial, &mut rec, &mut stats, &mut feeds, |next, acc| {
                if let Some(j) = commit.journal.as_mut() {
                    if let Err(e) = j.append_retry(id, next, acc) {
                        journal_err = Some(e);
                    }
                }
            });
        if let Some(j) = commit.journal.as_mut() {
            rec.time("runner.journal_append", id, || {
                j.append_complete(id, &result, &acc)
            })
            .map_err(|e| format!("journal append: {e}"))?;
        }
        rec.time("runner.sink_row", id, || commit.sink.row(&result))
            .map_err(|e| format!("sink row: {e}"))?;
        rec.time("runner.report_absorb", id, || commit.report.absorb(&result));
        rec.time("telemetry.merge", id, || commit.merger.absorb(id, &acc));
        rec.close();
        if let Some(e) = journal_err {
            return Err(format!("journal retry append: {e}"));
        }

        let context = || {
            format!(
                "trial {} ({}/{}/{}, seed {})",
                trial.index,
                trial.method.label(),
                result.policy,
                result.target,
                trial.seed
            )
        };
        if result.to_json_row() != engine_result.to_json_row() {
            return Err(format!(
                "{}: replica row {} != engine row {}",
                context(),
                result.to_json_row(),
                engine_result.to_json_row()
            ));
        }
        if stats.events != engine_events {
            return Err(format!(
                "{}: replica with capture processed {} events, engine {}",
                context(),
                stats.events,
                engine_events
            ));
        }
        if acc != engine_acc {
            return Err(format!(
                "{}: replica telemetry differs from engine",
                context()
            ));
        }

        if trace {
            rec.open("bench.probe", id);
            let prep = &replica.preps[trial.policy_idx];
            for feed in &feeds {
                let rules = if feed.flat {
                    &prep.flat_rules
                } else {
                    &prep.routed_rules
                };
                replay(
                    feed,
                    rules,
                    prep,
                    spec.monitor_reassembly,
                    id,
                    &mut rec,
                    &mut stats,
                );
            }
            if workload.journals() {
                rec.time("runner.encode", id, || {
                    let mut buf = Vec::with_capacity(128);
                    encode_trial_result(&mut buf, &result);
                    buf
                });
            }
            rec.close();
        }
        stats.failed =
            matches!(result.verdict, Verdict::Inconclusive(_)) || !result.verdict_correct;
        stats.telemetry_keys =
            (acc.counters.len() + acc.gauges.len() + acc.histograms.len()) as u64;
        out_trials.push(stats);
    }

    let mut journal_bytes = 0;
    if let Some(j) = commit.journal.as_mut() {
        j.sync().map_err(|e| format!("journal sync: {e}"))?;
        let len = std::fs::metadata(journal_path)
            .map_err(|e| format!("journal stat: {e}"))?
            .len();
        journal_bytes = len - header_len;
    }
    drop(commit.journal.take());
    let _ = std::fs::remove_file(journal_path);
    commit
        .sink
        .flush()
        .map_err(|e| format!("sink flush: {e}"))?;
    let merged = rec.time("telemetry.merge", CAMPAIGN_ID, || commit.merger.finish());
    let text = commit.report.render_text();
    let audit = tel.is_enabled().then(|| {
        rec.time("surveil.audit", CAMPAIGN_ID, || {
            render_audit(&commit.report.cells(), &merged)
        })
    });
    Ok(PassOutput {
        text,
        audit,
        trials: out_trials,
        spans: rec,
        journal_bytes,
    })
}
