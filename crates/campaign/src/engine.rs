//! The campaign engine: builds a [`TestbedTemplate`] (and routed
//! ruleset) once per policy column, then runs one trial at a time from a
//! derived seed, retrying `Inconclusive` verdicts with backoff in
//! *simulated* time and recording each trial's telemetry into its own
//! registry.
//!
//! The engine does not schedule or commit: campaigns run through the run
//! service in `underradar-runner`, which spreads trials over workers and
//! folds results and registries back in an order-independent way. The
//! retry loop ([`run_trial_from`]) starts from any `(attempt, registry)`
//! state and reports each retry decision through a hook, so the service
//! can journal it — with the registry accumulated so far — and a resume
//! continues the trial at the exact attempt it was about to run.

use std::collections::{BTreeMap, BTreeSet};

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
use underradar_ids::rule::Rule;
use underradar_netsim::host::Host;
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_protocols::dns::QType;
use underradar_surveil::exposure::{ExposureEventKind, ExposureLedger};
use underradar_surveil::system::{
    default_surveillance_rules, SurveillanceNode, SurveillanceSystem,
};
use underradar_telemetry::{FieldValue, Registry, Telemetry, TraceRecord};

use crate::report::TrialResult;
use crate::seed;
use crate::spec::{CampaignSpec, MethodKind, NamedPolicy, Trial};

/// UDP port hop probes aim at (classic traceroute base port).
const HOP_PORT: u16 = 33434;
/// TTL budget for hop sweeps in the routed topology (path is 3–4 hops).
const HOP_MAX_TTL: u8 = 6;
/// Server port for stateful mimicry flows.
const MIMIC_PORT: u16 = 7443;
/// Ports scanned per SYN-scan trial (top-N, port 80 expected open).
const SCAN_PORTS: usize = 60;
/// Request samples per DDoS-style trial.
const DDOS_SAMPLES: usize = 20;

/// Everything shareable across a policy column's trials: the testbed
/// template (zone + parsed IDS rules built once) and the routed-topology
/// ruleset. All fields are `Send + Sync`, so worker threads borrow one
/// prep instead of re-parsing rules per trial.
pub struct PolicyPrep<'a> {
    named: &'a NamedPolicy,
    template: TestbedTemplate,
    routed_rules: Vec<Rule>,
}

/// Build one [`PolicyPrep`] per policy column, in spec order. The vector
/// is indexed by [`Trial::policy_idx`]; external drivers (the runner
/// service) call this once and borrow the preps across worker threads.
pub fn prepare(spec: &CampaignSpec) -> Vec<PolicyPrep<'_>> {
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
                capture: false,
                client_link_loss: spec.client_link_loss,
                client_link_reorder: spec.client_link_reorder,
                client_link_duplicate: spec.client_link_duplicate,
                client_link_corrupt: spec.client_link_corrupt,
                monitor_reassembly: spec.monitor_reassembly,
            });
            let routed_rules = default_surveillance_rules(
                Testbed::home_net(),
                &named.policy.dns_blocked,
                &named.policy.keywords,
                None,
            );
            PolicyPrep {
                named,
                template,
                routed_rules,
            }
        })
        .collect()
}

/// What kind of telemetry scope each worker should build. `Telemetry` is
/// an `Rc` handle and cannot cross threads, so workers rebuild per-trial
/// scopes from this `Copy` snapshot of the caller's handle.
#[derive(Clone, Copy)]
pub struct ScopeConfig {
    enabled: bool,
    trace: Option<usize>,
}

impl ScopeConfig {
    /// Snapshot the caller's telemetry handle into a `Send + Copy` config.
    pub fn of(tel: &Telemetry) -> ScopeConfig {
        ScopeConfig {
            enabled: tel.is_enabled(),
            trace: tel.trace_capacity(),
        }
    }

    /// `spec_fingerprint` extended with this scope: telemetry off, on, or
    /// tracing into a ring of N records. Each journaled trial carries the
    /// registry its scope recorded, so the run service keys its journal
    /// by both: a resume under another scope is refused instead of
    /// restoring registries of the wrong kind.
    pub fn fingerprint(self, spec_fingerprint: u64) -> u64 {
        let scope = match self.trace {
            Some(capacity) => 2 + capacity as u64,
            None => self.enabled as u64,
        };
        seed::splitmix64(spec_fingerprint ^ seed::splitmix64(scope))
    }

    /// Build a fresh per-trial scope matching the snapshotted handle.
    pub fn scope(self) -> Telemetry {
        match self.trace {
            Some(capacity) => Telemetry::with_trace(capacity),
            None if self.enabled => Telemetry::enabled(),
            None => Telemetry::disabled(),
        }
    }

    /// Whether per-trial scopes carry a flight-recorder trace ring.
    pub fn tracing(self) -> bool {
        self.trace.is_some()
    }
}

/// One trial with retries: re-instantiate the world from a derived seed
/// whenever the verdict is `Inconclusive`, granting `backoff_secs` extra
/// simulated seconds per attempt, up to `max_retries`.
pub fn run_trial(
    spec: &CampaignSpec,
    prep: &PolicyPrep<'_>,
    trial: &Trial,
    cfg: ScopeConfig,
) -> (TrialResult, Registry) {
    run_trial_from(spec, prep, trial, cfg, 0, Registry::new(), |_, _| {})
}

/// [`run_trial`] from the start state `(attempt, acc)`: the attempt to
/// run first and the registry the attempts before it accumulated. A fresh
/// trial starts at `(0, Registry::new())`; a resume passes the attempt
/// and registry of the trial's last journaled retry, which reproduces the
/// uninterrupted telemetry and trace stream.
///
/// After every `Inconclusive` attempt that will be retried,
/// `on_retry(next_attempt, &acc)` sees the attempt to run next and the
/// registry accumulated so far, already holding the finished attempt's
/// telemetry. That pair is exactly the start state a resume needs.
pub fn run_trial_from(
    spec: &CampaignSpec,
    prep: &PolicyPrep<'_>,
    trial: &Trial,
    cfg: ScopeConfig,
    mut attempt: u32,
    mut acc: Registry,
    mut on_retry: impl FnMut(u32, &Registry),
) -> (TrialResult, Registry) {
    if attempt == 0 && cfg.tracing() {
        // A trial-start marker first, so the merged trace splits into
        // contiguous per-trial segments (the explainer keys off these).
        acc.trace.push(campaign_record(
            0,
            "trial_start",
            vec![
                ("trial", (trial.index as u64).into()),
                ("method", trial.method.label().to_string().into()),
                ("policy", prep.named.name.clone().into()),
                ("target", trial_target(prep, trial).into()),
            ],
        ));
    }
    loop {
        let attempt_seed = seed::attempt_seed(trial.seed, attempt);
        let horizon = spec.run_secs + spec.retry.backoff_secs * attempt as u64;
        let horizon_ns = horizon.saturating_mul(1_000_000_000);
        let scope = cfg.scope();
        let mut result = execute(spec, prep, trial, attempt_seed, horizon, &scope);
        acc.merge(&scope.snapshot());
        let inconclusive = matches!(result.verdict, Verdict::Inconclusive(_));
        if !inconclusive || attempt >= spec.retry.max_retries {
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
            if cfg.tracing() {
                acc.trace.push(campaign_record(
                    horizon_ns,
                    "verdict",
                    vec![
                        ("verdict", result.verdict.to_string().into()),
                        ("retries", u64::from(attempt).into()),
                    ],
                ));
            }
            return (result, acc);
        }
        if cfg.tracing() {
            // The retry decision itself is a trace-worthy event: it
            // changes the seed and grants backoff horizon, so a verdict
            // that flips across attempts is explained by this record.
            acc.trace.push(campaign_record(
                horizon_ns,
                "retry",
                vec![
                    ("attempt", u64::from(attempt + 1).into()),
                    ("backoff_secs", spec.retry.backoff_secs.into()),
                ],
            ));
        }
        attempt += 1;
        on_retry(attempt, &acc);
    }
}

fn trial_target(prep: &PolicyPrep<'_>, trial: &Trial) -> String {
    prep.template
        .config()
        .targets
        .get(trial.target_idx)
        .map(|t| t.domain.to_string())
        .unwrap_or_default()
}

fn campaign_record(
    t_ns: u64,
    kind: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
) -> TraceRecord {
    TraceRecord {
        t_ns,
        seq: 0,
        stage: "campaign",
        kind,
        flow: None,
        fields,
    }
}

fn bump(registry: &mut Registry, name: &str, n: u64) {
    if n > 0 {
        *registry.counters.entry(name.to_string()).or_insert(0) += n;
    }
}

/// Fold this trial's adversary-side observations into the per-trial scope
/// as `exposure.*` registry entries (see `underradar_surveil::exposure`).
/// Everything here is read from records the adversary actually holds —
/// censor action log, IDS alert log, retention stores — never from ground
/// truth, so the resulting ledger is the adversary's view of the campaign.
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
    // Distinct sensitive flows per source: the alert log's flow tuples.
    type FlowTuple = (Option<u16>, u32, Option<u16>);
    let mut flows: BTreeMap<std::net::Ipv4Addr, BTreeSet<FlowTuple>> = BTreeMap::new();
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
    // Bytes of each host's traffic sitting in the content retention store
    // (trial horizons are far shorter than retention windows, so nothing
    // has evicted by scoring time).
    let mut retained: BTreeMap<std::net::Ipv4Addr, u64> = BTreeMap::new();
    for (_, rec) in system.stores().content.iter() {
        *retained.entry(rec.src).or_insert(0) += rec.bytes as u64;
    }
    for (src, bytes) in &retained {
        ledger.add_retained(&cell, &src.to_string(), *bytes);
    }
    ledger.export(scope);
}

fn execute(
    spec: &CampaignSpec,
    prep: &PolicyPrep<'_>,
    trial: &Trial,
    seed: u64,
    horizon_secs: u64,
    scope: &Telemetry,
) -> TrialResult {
    match trial.method {
        MethodKind::Hops | MethodKind::Stateful => {
            execute_routed(prep, trial, seed, horizon_secs, scope)
        }
        _ => execute_flat(spec, prep, trial, seed, horizon_secs, scope),
    }
}

/// Drive a flat-testbed method (overt, scan, spam, ddos, stateless-*)
/// from the client host and score it with [`RiskReport`].
///
/// Spam and ddos trials optionally run their paper-faithful warm-up
/// phase first (§3.2.2: a spam campaign earns the spammer label before
/// the measured lookup; a flood is already MVR-classified as DDoS by the
/// time the measured samples fire), so campaign cells reproduce the
/// per-experiment setups without bespoke wiring.
fn execute_flat(
    spec: &CampaignSpec,
    prep: &PolicyPrep<'_>,
    trial: &Trial,
    seed: u64,
    horizon_secs: u64,
    scope: &Telemetry,
) -> TrialResult {
    let mut tb = prep.template.instantiate(seed);
    tb.set_telemetry(scope.clone());
    let site = tb.targets[trial.target_idx].clone();
    let domain = site.domain.clone();
    let resolver = tb.resolver_ip;
    let collector = tb.collector_ip;
    let cover = if spec.spoofed_cover > 0 {
        (0..spec.spoofed_cover)
            .map(|i| std::net::Ipv4Addr::new(10, 0, 1, 30 + i as u8))
            .collect()
    } else {
        tb.cover_ips.clone()
    };
    if spec.warmup {
        match trial.method {
            MethodKind::Spam => {
                // Reputation warm-up: spam probes toward the other zone
                // targets stagger in first, earning the spammer label.
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
                // Front-page flood: the source is already in the discarded
                // DDoS class when the measured samples ride along.
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
        MethodKind::Spam => tb.spawn_on_client(
            if spec.warmup {
                SimTime::ZERO + SimDuration::from_secs(10)
            } else {
                SimTime::ZERO
            },
            Box::new(SpamProbe::new(&domain, resolver, seed)),
        ),
        MethodKind::Ddos => tb.spawn_on_client(
            if spec.warmup {
                SimTime::ZERO + SimDuration::from_secs(5)
            } else {
                SimTime::ZERO
            },
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
    tb.run_secs(horizon_secs);
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
    tb.export_telemetry(scope);
    export_exposure(
        scope,
        trial.method.label(),
        &prep.named.name,
        &tb.censor_actions(),
        tb.surveillance(),
    );
    TrialResult {
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
    }
}

/// Drive a routed-topology method (hops, stateful mimicry) and score it
/// against the tap censor and surveillance node directly.
fn execute_routed(
    prep: &PolicyPrep<'_>,
    trial: &Trial,
    seed: u64,
    horizon_secs: u64,
    scope: &Telemetry,
) -> TrialResult {
    let mut net = RoutedMimicryNet::build_with_rules(
        seed,
        prep.named.policy.clone(),
        prep.routed_rules.clone(),
    );
    let tracer = scope.tracer();
    net.sim.set_telemetry(scope.clone());
    if tracer.is_live() {
        if let Some(tap) = net.sim.node_mut::<TapCensor>(net.censor) {
            tap.set_tracer(tracer.clone());
        }
        if let Some(surv) = net.sim.node_mut::<SurveillanceNode>(net.surveillance) {
            surv.set_tracer(tracer);
        }
    }
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
    net.sim
        .run_for(SimDuration::from_secs(horizon_secs))
        .expect("sim run");
    let mserver = net.sim.node_ref::<Host>(net.mserver).expect("mserver host");
    let probe: &dyn Probe = match trial.method {
        MethodKind::Hops => mserver.task_ref::<HopProbe>(0).expect("probe state"),
        MethodKind::Stateful => mserver.task_ref::<MimicServer>(0).expect("server state"),
        _ => unreachable!("flat methods"),
    };
    let verdict = probe.verdict();
    let evidence = probe.evidence();
    let censor_acted = net
        .sim
        .node_ref::<TapCensor>(net.censor)
        .map(|tap| !tap.actions().is_empty())
        .unwrap_or(false);
    let system = net
        .sim
        .node_ref::<SurveillanceNode>(net.surveillance)
        .expect("surveillance node")
        .system();
    if scope.is_enabled() {
        net.sim.export_telemetry(scope);
        if let Some(tap) = net.sim.node_ref::<TapCensor>(net.censor) {
            tap.export_telemetry(scope);
        }
        system.export_telemetry(scope);
        let tap_actions = net
            .sim
            .node_ref::<TapCensor>(net.censor)
            .map(|tap| tap.actions().to_vec())
            .unwrap_or_default();
        export_exposure(
            scope,
            trial.method.label(),
            &prep.named.name,
            &tap_actions,
            system,
        );
    }
    TrialResult {
        index: trial.index,
        method: trial.method,
        policy: prep.named.name.clone(),
        target: prep
            .template
            .config()
            .targets
            .get(trial.target_idx)
            .map(|t| t.domain.to_string())
            .unwrap_or_default(),
        seed: trial.seed,
        verdict_correct: verdict.correct_against(censor_acted),
        evaded: system.alerts_for(net.client_ip) == 0,
        alerts_on_client: system.alerts_for(net.client_ip),
        attributed: system.is_attributed(net.client_ip),
        pursued: system.is_pursued(net.client_ip),
        anonymity_set: None,
        retries: 0,
        evidence,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_censor::CensorPolicy;

    /// Every trial of `spec` in matrix order, each on its own registry.
    fn run_all(spec: &CampaignSpec, tel: &Telemetry) -> Vec<(TrialResult, Registry)> {
        let preps = prepare(spec);
        let cfg = ScopeConfig::of(tel);
        spec.expand()
            .iter()
            .map(|trial| run_trial(spec, &preps[trial.policy_idx], trial, cfg))
            .collect()
    }

    #[test]
    fn routed_methods_run_through_the_same_entry_point() {
        let spec = CampaignSpec::new("routed", 9)
            .target("twitter.com")
            .methods([MethodKind::Hops, MethodKind::Stateful])
            .policy(NamedPolicy::new("control", CensorPolicy::new()))
            .run_secs(20);
        let trials = run_all(&spec, &Telemetry::disabled());
        assert_eq!(trials.len(), 2);
        let hops = &trials[0].0;
        assert_eq!(hops.method, MethodKind::Hops);
        assert!(hops.verdict.is_reachable(), "{:?}", hops.verdict);
        let stateful = &trials[1].0;
        assert!(stateful.verdict.is_reachable(), "{:?}", stateful.verdict);
        assert!(stateful.evaded);
    }

    #[test]
    fn campaign_counters_reach_the_trial_registry() {
        let spec = CampaignSpec::new("tel", 3)
            .target("twitter.com")
            .method(MethodKind::Scan)
            .policy(NamedPolicy::new("control", CensorPolicy::new()))
            .run_secs(20);
        let trials = run_all(&spec, &Telemetry::enabled());
        assert_eq!(trials.len(), 1);
        let registry = &trials[0].1;
        assert_eq!(registry.counter("campaign.trials"), 1);
        assert_eq!(registry.counter("campaign.method.scan.trials"), 1);
        assert!(
            registry.counters.len() > 2,
            "simulator/censor/surveillance exports merged in: {:?}",
            registry.counters.keys().collect::<Vec<_>>()
        );
    }
}
