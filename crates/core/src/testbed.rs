//! The reference testbed (paper Figure 1, generalized).
//!
//! ```text
//!                      censor (tap)   surveillance/MVR (tap)
//!                            \          /
//!   client ---+               \        /
//!   cover-1 --+--- sw1 ======= inline censor ======= sw2 --- web servers
//!   cover-N --+    |                                  |  --- MX servers
//!   resolver ------+                                  |  --- collector
//!                                                     |  --- measurement server
//! ```
//!
//! * `sw1` is the client-side switch; the **off-path censor** and the
//!   **surveillance system** both observe it through tap ports (the paper
//!   ran two Snort instances on the Open vSwitch node).
//! * The **inline censor** models blackholing mechanisms an off-path
//!   device cannot implement; with an empty policy it is a wire.
//! * Target sites each get a web server and a mail exchanger; the
//!   resolver's zone knows them all. The **collector** stands in for an
//!   OONI-style report server (what the overt baseline talks to), and the
//!   **measurement server** is the §4.1 controlled endpoint.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use underradar_censor::{CensorAction, CensorPolicy, InlineCensor, TapCensor};
use underradar_ids::rule::Rule;
use underradar_ids::stream::ReassemblyConfig;
use underradar_netsim::addr::Cidr;
use underradar_netsim::host::{Host, HostTask};
use underradar_netsim::link::LinkConfig;
use underradar_netsim::node::{IfaceId, NodeId};
use underradar_netsim::sim::Simulator;
use underradar_netsim::switch::Switch;
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_netsim::topology::TopologyBuilder;
use underradar_protocols::dns::{DnsName, DnsServer, Record, ZoneBuilder};
use underradar_protocols::email::EmailMessage;
use underradar_protocols::http::HttpServer;
use underradar_protocols::smtp::SmtpServerService;
use underradar_surveil::system::{
    default_surveillance_rules, SurveillanceConfig, SurveillanceNode,
};

/// A measurable target site.
#[derive(Debug, Clone)]
pub struct TargetSite {
    /// The site's domain.
    pub domain: DnsName,
    /// Web server address (port 80 open).
    pub web_ip: Ipv4Addr,
    /// Mail exchanger host name.
    pub mx_name: DnsName,
    /// Mail exchanger address (port 25 open).
    pub mx_ip: Ipv4Addr,
}

impl TargetSite {
    /// Build the `i`-th target for `domain`.
    pub fn numbered(domain: &str, i: u8) -> TargetSite {
        let domain = DnsName::parse(domain).expect("valid domain literal");
        let mx_name = domain.prepend("mx1").expect("mx label");
        TargetSite {
            domain,
            web_ip: Ipv4Addr::new(93, 184, 0, 10 + i),
            mx_name,
            mx_ip: Ipv4Addr::new(93, 184, 1, 10 + i),
        }
    }
}

/// Testbed construction parameters.
#[derive(Clone)]
pub struct TestbedConfig {
    /// RNG seed (everything downstream is deterministic in it).
    pub seed: u64,
    /// The censorship policy (drives both censors).
    pub policy: CensorPolicy,
    /// Target sites (defaults: twitter.com, youtube.com blocked-ish;
    /// bbc.com, example.org as controls — blocking is decided by the
    /// policy, not the list).
    pub targets: Vec<TargetSite>,
    /// Number of cover-client hosts on the access network.
    pub cover_hosts: usize,
    /// Surveillance ablation: run signatures before MVR discard.
    pub surveillance_alert_first: bool,
    /// Censor ablation: disable RST-teardown in the censor's reassembler.
    pub censor_rst_teardown: bool,
    /// Record every packet on every link.
    pub capture: bool,
    /// Packet-loss probability on the client's access link (failure
    /// injection; measurements must degrade gracefully, not lie).
    pub client_link_loss: f64,
    /// Reorder probability on the client's access link: selected packets
    /// are displaced by up to 2 ms and may arrive after later packets.
    pub client_link_reorder: f64,
    /// Duplication probability on the client's access link.
    pub client_link_duplicate: f64,
    /// Single-byte corruption probability on the client's access link.
    pub client_link_corrupt: f64,
    /// Reassembly limits shared by every monitor (both censors and the
    /// surveillance engine): flow-table capacity and per-direction
    /// buffering caps. Population-scale experiments sweep these to bound
    /// per-flow monitor memory.
    pub monitor_reassembly: ReassemblyConfig,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 1,
            policy: CensorPolicy::new(),
            targets: vec![
                TargetSite::numbered("twitter.com", 0),
                TargetSite::numbered("youtube.com", 1),
                TargetSite::numbered("bbc.com", 10),
                TargetSite::numbered("example.org", 11),
            ],
            cover_hosts: 4,
            surveillance_alert_first: false,
            censor_rst_teardown: true,
            capture: false,
            client_link_loss: 0.0,
            client_link_reorder: 0.0,
            client_link_duplicate: 0.0,
            client_link_corrupt: 0.0,
            monitor_reassembly: ReassemblyConfig::default(),
        }
    }
}

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
const RESOLVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 53);
const COLLECTOR_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 99);
const MSERVER_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 200);

/// The expensive, seed-independent parts of a [`TestbedConfig`]: the
/// resolver zone and the parsed surveillance ruleset (string-formatting
/// and parsing the Snort-style rules dominates testbed construction).
///
/// A campaign prepares one template per censor policy and instantiates a
/// fresh testbed per trial seed from it, instead of re-deriving the same
/// zone and ruleset for every trial. The template holds no simulator
/// state, so it is `Send + Sync` and shards can share it by reference.
pub struct TestbedTemplate {
    config: TestbedConfig,
    zone: Vec<Record>,
    rules: Vec<Rule>,
}

impl TestbedTemplate {
    /// Derive the policy-dependent parts once.
    pub fn prepare(config: TestbedConfig) -> TestbedTemplate {
        let mut zone = ZoneBuilder::new();
        for t in &config.targets {
            zone = zone
                .a(&t.domain, t.web_ip)
                .mx(&t.domain, 10, &t.mx_name)
                .a(&t.mx_name, t.mx_ip);
        }
        let rules = default_surveillance_rules(
            Testbed::home_net(),
            &config.policy.dns_blocked,
            &config.policy.keywords,
            Some(COLLECTOR_IP),
        );
        TestbedTemplate {
            config,
            zone: zone.build(),
            rules,
        }
    }

    /// The configuration the template was prepared from.
    pub fn config(&self) -> &TestbedConfig {
        &self.config
    }

    /// Assemble a testbed from the prepared parts, with `seed` replacing
    /// the config's seed (each trial gets its own).
    pub fn instantiate(&self, seed: u64) -> Testbed {
        let config = &self.config;
        let client_ip = CLIENT_IP;
        let resolver_ip = RESOLVER_IP;
        let collector_ip = COLLECTOR_IP;
        let mserver_ip = MSERVER_IP;

        let mut topo = TopologyBuilder::new(seed);
        if config.capture {
            topo.enable_capture();
        }

        // --- client side ---
        let client = topo.add_host(Host::new("client", client_ip));
        let mut cover = Vec::new();
        let mut cover_ips = Vec::new();
        for i in 0..config.cover_hosts {
            let ip = Ipv4Addr::new(10, 0, 1, 10 + i as u8);
            cover.push(topo.add_host(Host::new(&format!("cover{i}"), ip)));
            cover_ips.push(ip);
        }

        // Resolver serving the pre-built zone.
        let mut resolver_host = Host::new("resolver", resolver_ip);
        resolver_host.add_udp_service(53, Box::new(DnsServer::new(self.zone.clone())));
        let resolver = topo.add_host(resolver_host);

        // --- monitors ---
        let mut tap_censor =
            TapCensor::with_reassembly("censor", config.policy.clone(), config.monitor_reassembly);
        tap_censor.set_rst_teardown(config.censor_rst_teardown);
        let censor = topo.add_node(Box::new(tap_censor));

        let mut surv_config = SurveillanceConfig::with_rules(self.rules.clone());
        surv_config.alert_first = config.surveillance_alert_first;
        surv_config.reassembly = config.monitor_reassembly;
        let surveillance = topo.add_node(Box::new(SurveillanceNode::new("mvr", surv_config)));

        // --- switches and inline censor ---
        let sw1 = topo.add_switch(Switch::new("sw1"));
        let sw2 = topo.add_switch(Switch::new("sw2"));
        let inline_censor = topo.add_node(Box::new(InlineCensor::with_reassembly(
            "inline",
            config.policy.clone(),
            config.monitor_reassembly,
        )));

        topo.attach_host(
            client,
            client_ip,
            sw1,
            LinkConfig::default()
                .with_loss(config.client_link_loss)
                .with_reorder(config.client_link_reorder, SimDuration::from_millis(2))
                .with_duplicate(config.client_link_duplicate)
                .with_corrupt(config.client_link_corrupt),
        )
        .expect("client attach");
        for (node, ip) in cover.iter().zip(cover_ips.iter()) {
            topo.attach_host(*node, *ip, sw1, LinkConfig::default())
                .expect("cover attach");
        }
        topo.attach_host(resolver, resolver_ip, sw1, LinkConfig::default())
            .expect("resolver attach");
        // Taps observe the client-side switch; ideal links so injected
        // packets win races against real responses.
        topo.attach_tap(censor, sw1, LinkConfig::ideal())
            .expect("censor tap");
        topo.attach_tap(surveillance, sw1, LinkConfig::ideal())
            .expect("mvr tap");

        // --- world side ---
        let mut inboxes = HashMap::new();
        for t in &config.targets {
            let mut web = Host::new(&format!("web-{}", t.domain), t.web_ip);
            web.add_tcp_listener(80, {
                let domain = t.domain.to_string();
                move || {
                    Box::new(HttpServer::catch_all(&format!(
                        "<html><head><title>{domain}</title></head><body>content of {domain}</body></html>"
                    )))
                }
            });
            let web_id = topo.add_host(web);
            topo.attach_host(web_id, t.web_ip, sw2, LinkConfig::default())
                .expect("web attach");

            let sink: Rc<RefCell<Vec<EmailMessage>>> = Rc::new(RefCell::new(Vec::new()));
            inboxes.insert(t.domain.to_string(), sink.clone());
            let mut mx = Host::new(&format!("mx-{}", t.domain), t.mx_ip);
            mx.add_tcp_listener(25, move || {
                Box::new(SmtpServerService::with_log(sink.clone()))
            });
            let mx_id = topo.add_host(mx);
            topo.attach_host(mx_id, t.mx_ip, sw2, LinkConfig::default())
                .expect("mx attach");
        }
        let mut collector_host = Host::new("collector", collector_ip);
        collector_host.add_tcp_listener(443, || {
            Box::new(HttpServer::catch_all("{\"status\":\"ok\"}"))
        });
        let collector = topo.add_host(collector_host);
        topo.attach_host(collector, collector_ip, sw2, LinkConfig::default())
            .expect("collector attach");

        let mserver = topo.add_host(Host::new("mserver", mserver_ip));
        topo.attach_host(mserver, mserver_ip, sw2, LinkConfig::default())
            .expect("mserver attach");

        // --- trunk through the inline censor ---
        // sw1 <-> inline(0); inline(1) <-> sw2.
        let p1 = {
            // Allocate a port on sw1 by wiring manually through the builder's
            // trunk helper twice (switch-to-node wiring).
            let sim = topo.sim_mut();
            // ports already allocated on sw1: client + covers + resolver + 2 taps
            let used = 1 + config.cover_hosts + 1 + 2;
            let port = IfaceId(used);
            sim.wire(sw1, port, inline_censor, IfaceId(0), LinkConfig::default())
                .expect("sw1-inline");
            port
        };
        let p2 = {
            let sim = topo.sim_mut();
            let used = config.targets.len() * 2 + 2; // webs + mxes + collector + mserver
            let port = IfaceId(used);
            sim.wire(sw2, port, inline_censor, IfaceId(1), LinkConfig::default())
                .expect("sw2-inline");
            port
        };
        // Routes: world-bound prefixes leave sw1 via the inline censor; the
        // home prefix returns via sw2's inline port.
        topo.route(sw1, Cidr::new(Ipv4Addr::new(93, 184, 0, 0), 16), p1);
        topo.route(sw1, Cidr::new(Ipv4Addr::new(198, 51, 100, 0), 24), p1);
        topo.route(sw2, Testbed::home_net(), p2);

        let sim = topo.finish();
        Testbed {
            sim,
            client,
            cover,
            resolver,
            censor,
            inline_censor,
            surveillance,
            targets: config.targets.clone(),
            inboxes,
            client_ip,
            cover_ips,
            resolver_ip,
            collector_ip,
            mserver,
            mserver_ip,
        }
    }
}

/// The assembled testbed.
pub struct Testbed {
    /// The simulator (run it, then inspect).
    pub sim: Simulator,
    /// The measurement client host.
    pub client: NodeId,
    /// Cover hosts on the same access network.
    pub cover: Vec<NodeId>,
    /// The resolver host.
    pub resolver: NodeId,
    /// The off-path censor node.
    pub censor: NodeId,
    /// The inline censor node.
    pub inline_censor: NodeId,
    /// The surveillance node.
    pub surveillance: NodeId,
    /// Target sites.
    pub targets: Vec<TargetSite>,
    /// Per-target inboxes of mail delivered to the MX.
    pub inboxes: HashMap<String, Rc<RefCell<Vec<EmailMessage>>>>,
    /// The measurement client's address.
    pub client_ip: Ipv4Addr,
    /// Cover host addresses.
    pub cover_ips: Vec<Ipv4Addr>,
    /// The resolver's address.
    pub resolver_ip: Ipv4Addr,
    /// OONI-style collector address.
    pub collector_ip: Ipv4Addr,
    /// The measurer-controlled server (for stateful mimicry).
    pub mserver: NodeId,
    /// Its address.
    pub mserver_ip: Ipv4Addr,
}

impl Testbed {
    /// The access-network prefix clients live in.
    pub fn home_net() -> Cidr {
        Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 8)
    }

    /// Assemble the testbed. One-shot path; campaigns that build many
    /// testbeds for the same policy should [`TestbedTemplate::prepare`]
    /// once and [`TestbedTemplate::instantiate`] per seed instead.
    pub fn build(config: TestbedConfig) -> Testbed {
        let seed = config.seed;
        TestbedTemplate::prepare(config).instantiate(seed)
    }

    fn spawn_on(&mut self, node: NodeId, at: SimTime, task: Box<dyn HostTask>) -> usize {
        // External scheduling works whether or not the simulation has
        // started, so tasks can be staged between run calls.
        let token = self.sim.alloc_timer_token();
        let host = self.sim.node_mut::<Host>(node).expect("node is a host");
        let idx = host.add_task(task);
        host.bind_task_start(idx, token);
        self.sim
            .schedule_timer(node, at, token)
            .expect("node exists");
        idx
    }

    /// Spawn a task on the measurement client at `at` (works before and
    /// between runs).
    pub fn spawn_on_client(&mut self, at: SimTime, task: Box<dyn HostTask>) -> usize {
        self.spawn_on(self.client, at, task)
    }

    /// Spawn a task on the measurer-controlled server.
    pub fn spawn_on_mserver(&mut self, at: SimTime, task: Box<dyn HostTask>) -> usize {
        self.spawn_on(self.mserver, at, task)
    }

    /// Run the simulation for `secs` simulated seconds.
    pub fn run_secs(&mut self, secs: u64) {
        self.sim
            .run_for(SimDuration::from_secs(secs))
            .expect("simulation within event budget");
    }

    /// A typed view of a client task after the run.
    pub fn client_task<T: HostTask>(&self, idx: usize) -> Option<&T> {
        self.sim.node_ref::<Host>(self.client)?.task_ref::<T>(idx)
    }

    /// A typed view of an mserver task after the run.
    pub fn mserver_task<T: HostTask>(&self, idx: usize) -> Option<&T> {
        self.sim.node_ref::<Host>(self.mserver)?.task_ref::<T>(idx)
    }

    /// Ground truth: the off-path censor's logged actions.
    pub fn censor_actions(&self) -> Vec<CensorAction> {
        let mut actions = self
            .sim
            .node_ref::<TapCensor>(self.censor)
            .map(|c| c.actions().to_vec())
            .unwrap_or_default();
        if let Some(inline) = self.sim.node_ref::<InlineCensor>(self.inline_censor) {
            actions.extend(inline.actions().to_vec());
        }
        actions
    }

    /// Whether any censor acted during the run.
    pub fn censor_acted(&self) -> bool {
        !self.censor_actions().is_empty()
    }

    /// The surveillance system, for evasion/attribution queries.
    pub fn surveillance(&self) -> &underradar_surveil::SurveillanceSystem {
        self.sim
            .node_ref::<SurveillanceNode>(self.surveillance)
            .expect("surveillance node exists")
            .system()
    }

    /// Attach a telemetry handle to the simulator so the scheduler's live
    /// counters (events, link transmits/drops, queue depths) record into
    /// it as the simulation runs. When the handle carries a flight-recorder
    /// trace, the tracer is also pushed into every decision stage — link
    /// scheduler, censors, and the surveillance pipeline — so one trace
    /// holds the full causal chain.
    pub fn set_telemetry(&mut self, tel: underradar_netsim::telemetry::Telemetry) {
        let tracer = tel.tracer();
        self.sim.set_telemetry(tel);
        if tracer.is_live() {
            if let Some(tap) = self.sim.node_mut::<TapCensor>(self.censor) {
                tap.set_tracer(tracer.clone());
            }
            if let Some(inline) = self.sim.node_mut::<InlineCensor>(self.inline_censor) {
                inline.set_tracer(tracer.clone());
            }
            if let Some(surv) = self.sim.node_mut::<SurveillanceNode>(self.surveillance) {
                surv.set_tracer(tracer);
            }
        }
    }

    /// Mirror the whole testbed's state into `tel`: scheduler totals plus
    /// the tap censor, inline censor, and surveillance pipeline exports.
    /// Idempotent: every export is an absolute counter or gauge total.
    pub fn export_telemetry(&self, tel: &underradar_netsim::telemetry::Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        self.sim.export_telemetry(tel);
        if let Some(tap) = self.sim.node_ref::<TapCensor>(self.censor) {
            tap.export_telemetry(tel);
        }
        if let Some(inline) = self.sim.node_ref::<InlineCensor>(self.inline_censor) {
            inline.export_telemetry(tel);
        }
        if let Some(surv) = self.sim.node_ref::<SurveillanceNode>(self.surveillance) {
            surv.system().export_telemetry(tel);
        }
    }

    /// A target by domain string.
    pub fn target(&self, domain: &str) -> Option<&TargetSite> {
        self.targets.iter().find(|t| t.domain.to_string() == domain)
    }

    /// Mail delivered to a target's MX during the run.
    pub fn inbox(&self, domain: &str) -> Vec<EmailMessage> {
        self.inboxes
            .get(domain)
            .map(|rc| rc.borrow().clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_netsim::{ConnId, HostApi, TcpEvent};

    #[test]
    fn default_testbed_builds_and_routes_web_traffic() {
        struct Get {
            target: Ipv4Addr,
            status: Option<u16>,
            buf: Vec<u8>,
        }
        impl HostTask for Get {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.target, 80);
            }
            fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                match ev {
                    TcpEvent::Connected => {
                        api.tcp_send(conn, b"GET / HTTP/1.0\r\nHost: bbc.com\r\n\r\n")
                    }
                    TcpEvent::Data(d) => {
                        self.buf.extend_from_slice(&d);
                        if let Ok(r) = underradar_protocols::http::HttpResponse::parse(&self.buf) {
                            self.status = Some(r.status);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut tb = Testbed::build(TestbedConfig::default());
        let bbc = tb.target("bbc.com").expect("bbc target").web_ip;
        tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(Get {
                target: bbc,
                status: None,
                buf: vec![],
            }),
        );
        tb.run_secs(10);
        let task = tb.client_task::<Get>(0).expect("task");
        assert_eq!(
            task.status,
            Some(200),
            "client can browse an uncensored site end-to-end"
        );
        assert!(!tb.censor_acted());
    }

    #[test]
    fn dns_resolution_works_through_the_testbed() {
        use underradar_protocols::dns::{DnsMessage, QType};
        struct Lookup {
            resolver: Ipv4Addr,
            answers: Vec<Ipv4Addr>,
        }
        impl HostTask for Lookup {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                let port = api.udp_bind(0).expect("bind");
                let q = DnsMessage::query(9, DnsName::parse("bbc.com").expect("n"), QType::A);
                api.udp_send(port, self.resolver, 53, q.encode());
            }
            fn on_udp(
                &mut self,
                _api: &mut HostApi<'_, '_>,
                _l: u16,
                _s: Ipv4Addr,
                _p: u16,
                payload: &[u8],
            ) {
                if let Ok(m) = DnsMessage::decode(payload) {
                    self.answers = m.a_records();
                }
            }
        }
        let mut tb = Testbed::build(TestbedConfig::default());
        let resolver = tb.resolver_ip;
        let expect = tb.target("bbc.com").expect("t").web_ip;
        tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(Lookup {
                resolver,
                answers: vec![],
            }),
        );
        tb.run_secs(5);
        assert_eq!(
            tb.client_task::<Lookup>(0).expect("t").answers,
            vec![expect]
        );
    }

    #[test]
    fn censored_keyword_triggers_censor_in_testbed() {
        struct Get {
            target: Ipv4Addr,
            reset: bool,
        }
        impl HostTask for Get {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.target, 80);
            }
            fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                match ev {
                    TcpEvent::Connected => {
                        api.tcp_send(conn, b"GET /falun HTTP/1.0\r\nHost: x\r\n\r\n")
                    }
                    TcpEvent::Reset => self.reset = true,
                    _ => {}
                }
            }
        }
        let config = TestbedConfig {
            policy: CensorPolicy::new().block_keyword("falun"),
            ..TestbedConfig::default()
        };
        let mut tb = Testbed::build(config);
        let web = tb.target("bbc.com").expect("t").web_ip;
        tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(Get {
                target: web,
                reset: false,
            }),
        );
        tb.run_secs(10);
        assert!(tb.client_task::<Get>(0).expect("t").reset);
        assert!(tb.censor_acted());
    }

    #[test]
    fn surveillance_observes_client_traffic() {
        struct Syn {
            target: Ipv4Addr,
        }
        impl HostTask for Syn {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.target, 80);
            }
        }
        let mut tb = Testbed::build(TestbedConfig::default());
        let web = tb.target("example.org").expect("t").web_ip;
        tb.spawn_on_client(SimTime::ZERO, Box::new(Syn { target: web }));
        tb.run_secs(5);
        assert!(tb.surveillance().stats().observed > 0);
    }

    #[test]
    fn telemetry_covers_scheduler_censor_and_surveillance() {
        use underradar_netsim::telemetry::Telemetry;
        struct Get {
            target: Ipv4Addr,
        }
        impl HostTask for Get {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.target, 80);
            }
            fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                if let TcpEvent::Connected = ev {
                    api.tcp_send(conn, b"GET /falun HTTP/1.0\r\nHost: x\r\n\r\n");
                }
            }
        }
        let config = TestbedConfig {
            policy: CensorPolicy::new().block_keyword("falun"),
            ..TestbedConfig::default()
        };
        let mut tb = Testbed::build(config);
        let tel = Telemetry::enabled();
        tb.set_telemetry(tel.clone());
        let web = tb.target("bbc.com").expect("t").web_ip;
        tb.spawn_on_client(SimTime::ZERO, Box::new(Get { target: web }));
        tb.run_secs(10);
        tb.export_telemetry(&tel);
        let snap = tel.snapshot();
        assert!(snap.counter("netsim.events_processed") > 0);
        assert!(snap.counter("netsim.link.transmits") > 0);
        assert!(snap.counter("censor.tap.rst_injections") > 0);
        assert!(snap.counter("surveil.observed") > 0);
        assert!(
            snap.counter("censor.tap.actions.keyword_rst") > 0,
            "censor actions surface as per-kind counters"
        );
        // Re-export is idempotent: counters stay identical.
        let before = snap.counters.clone();
        tb.export_telemetry(&tel);
        assert_eq!(tel.snapshot().counters, before);
    }

    #[test]
    fn monitor_reassembly_knob_reaches_every_monitor() {
        use underradar_ids::stream::ReassemblyConfig;
        use underradar_netsim::telemetry::Telemetry;
        struct Get {
            target: Ipv4Addr,
        }
        impl HostTask for Get {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.target, 80);
            }
            fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                if let TcpEvent::Connected = ev {
                    api.tcp_send(conn, b"GET / HTTP/1.0\r\nHost: x\r\n\r\n");
                }
            }
        }
        let config = TestbedConfig {
            monitor_reassembly: ReassemblyConfig {
                max_flows: 1,
                ..ReassemblyConfig::default()
            },
            ..TestbedConfig::default()
        };
        let mut tb = Testbed::build(config);
        let webs: Vec<Ipv4Addr> = ["bbc.com", "example.org", "twitter.com"]
            .iter()
            .map(|d| tb.target(d).expect("target").web_ip)
            .collect();
        for (i, web) in webs.into_iter().enumerate() {
            tb.spawn_on_client(
                SimTime::ZERO + SimDuration::from_secs(i as u64),
                Box::new(Get { target: web }),
            );
        }
        tb.run_secs(10);
        let tel = Telemetry::enabled();
        tb.export_telemetry(&tel);
        let snap = tel.snapshot();
        // Three concurrent-ish web flows through a capacity-1 table must
        // evict in each monitor's reassembler.
        for counter in [
            "censor.tap.flows.evicted",
            "censor.inline.flows.evicted",
            "ids.engine.flows.evicted",
        ] {
            assert!(snap.counter(counter) > 0, "{counter} saw no evictions");
        }
    }

    #[test]
    fn template_is_shareable_and_matches_direct_build() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TestbedTemplate>();

        let config = || TestbedConfig {
            policy: CensorPolicy::new().block_keyword("falun"),
            seed: 77,
            ..TestbedConfig::default()
        };
        let template = TestbedTemplate::prepare(config());
        let run = |mut tb: Testbed| {
            struct Get {
                target: Ipv4Addr,
                reset: bool,
            }
            impl HostTask for Get {
                fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                    api.tcp_connect(self.target, 80);
                }
                fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                    match ev {
                        TcpEvent::Connected => {
                            api.tcp_send(conn, b"GET /falun HTTP/1.0\r\nHost: x\r\n\r\n")
                        }
                        TcpEvent::Reset => self.reset = true,
                        _ => {}
                    }
                }
            }
            let web = tb.target("bbc.com").expect("t").web_ip;
            tb.spawn_on_client(
                SimTime::ZERO,
                Box::new(Get {
                    target: web,
                    reset: false,
                }),
            );
            tb.run_secs(10);
            (
                tb.client_task::<Get>(0).expect("t").reset,
                tb.censor_actions().len(),
                tb.surveillance().stats().observed,
            )
        };
        assert_eq!(
            run(template.instantiate(77)),
            run(Testbed::build(config())),
            "template path reproduces the direct-build path exactly"
        );
    }

    #[test]
    fn smtp_delivery_reaches_inbox() {
        use underradar_protocols::smtp::SmtpClientMachine;
        struct Send {
            mx: Ipv4Addr,
            machine: SmtpClientMachine,
        }
        impl HostTask for Send {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.mx, 25);
            }
            fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                if let TcpEvent::Data(d) = ev {
                    let out = self.machine.on_data(&d);
                    if !out.is_empty() {
                        api.tcp_send(conn, &out);
                    }
                    if self.machine.is_done() {
                        api.tcp_close(conn);
                    }
                }
            }
        }
        let mut tb = Testbed::build(TestbedConfig::default());
        let mx = tb.target("twitter.com").expect("t").mx_ip;
        let msg = EmailMessage::new("a@b.c", "user@twitter.com", "hello", "body");
        tb.spawn_on_client(
            SimTime::ZERO,
            Box::new(Send {
                mx,
                machine: SmtpClientMachine::new("probe", msg),
            }),
        );
        tb.run_secs(10);
        let inbox = tb.inbox("twitter.com");
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].subject, "hello");
    }
}
