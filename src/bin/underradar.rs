//! The `underradar` command-line tool: run experiments, the campaign and
//! ad-hoc surveys against the simulated testbed.
//!
//! ```text
//! underradar experiments [e1..e14|a1|all] [MODE] [--trace-capacity N]
//!                                          regenerate paper tables/figures
//! underradar campaign [flags]              run the paper-scale campaign
//! underradar survey --domains a,b,c [--block d] [--keyword k]
//!                                          run a stealthy survey
//! underradar pcap <out.pcap>               write a sample capture for Wireshark
//! underradar calibrate                     find the Fig-3b reply-TTL window
//! ```
//!
//! `experiments` and `campaign` share one flag grammar
//! (`underradar_bench::cli`).

use std::net::Ipv4Addr;
use std::process::ExitCode;

use underradar::censor::CensorPolicy;
use underradar::core::methods::hops::HopProbe;
use underradar::core::methods::spam::SpamProbe;
use underradar::core::methods::stateful::RoutedMimicryNet;
use underradar::core::probe::Probe;
use underradar::core::risk::RiskReport;
use underradar::core::testbed::{Testbed, TestbedConfig};
use underradar::netsim::host::Host;
use underradar::netsim::time::{SimDuration, SimTime};
use underradar::protocols::dns::DnsName;
use underradar_bench::cli::{self, Failure};

const USAGE: &str = "usage:
  underradar experiments [e1..e14|a1|all] [--json|--jsonl|--telemetry|--trace] [--trace-capacity N]
  underradar campaign [--json|--jsonl|--telemetry|--trace|--audit[=json]|--trace-diff A B]
      [--trace-capacity N] [--shards N] [--impair] [--progress[=N]] [--profile]
      [--profile-json PATH] [--checkpoint PATH] [--synthetic N]
  underradar survey --domains a,b,c [--block domain]... [--keyword kw]...
  underradar pcap <out.pcap>
  underradar calibrate";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    let result = match cmd {
        "experiments" => cli::experiments(&args[1..]),
        "campaign" => cli::campaign::campaign(&args[1..]),
        "survey" => survey(&args[1..]),
        "pcap" => match args.get(1) {
            Some(path) => pcap_demo(path),
            None => return usage(),
        },
        "calibrate" => calibrate(),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("underradar {cmd}: {msg}");
            usage()
        }
        Err(Failure::Run(msg)) => {
            eprintln!("underradar {cmd}: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn survey(args: &[String]) -> Result<(), Failure> {
    let mut domains: Vec<String> = Vec::new();
    let mut policy = CensorPolicy::new();
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--domains" if i + 1 < args.len() => {
                domains.extend(args[i + 1].split(',').map(str::to_string));
                i += 2;
            }
            "--block" if i + 1 < args.len() => {
                let d = DnsName::parse(&args[i + 1])
                    .map_err(|e| Failure::Usage(format!("bad --block domain: {e}")))?;
                policy = policy.block_domain(&d);
                i += 2;
            }
            "--keyword" if i + 1 < args.len() => {
                policy = policy.block_keyword(&args[i + 1]);
                i += 2;
            }
            other => return Err(Failure::Usage(format!("unknown survey argument '{other}'"))),
        }
    }
    if domains.is_empty() {
        return Err(Failure::Usage("survey needs --domains a,b,c".to_string()));
    }

    // Build targets for every surveyed domain so the resolver knows them.
    let targets: Vec<underradar::core::testbed::TargetSite> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| underradar::core::testbed::TargetSite::numbered(d, i as u8))
        .collect();
    let mut tb = Testbed::build(TestbedConfig {
        policy,
        targets,
        ..TestbedConfig::default()
    });
    let resolver = tb.resolver_ip;
    let mut idxs = Vec::new();
    for (i, domain) in domains.iter().enumerate() {
        let Ok(d) = DnsName::parse(domain) else {
            eprintln!("skipping invalid domain '{domain}'");
            continue;
        };
        let idx = tb.spawn_on_client(
            SimTime::ZERO + SimDuration::from_secs(2 * i as u64),
            Box::new(SpamProbe::new(&d, resolver, i as u64)),
        );
        idxs.push((domain.clone(), idx));
    }
    tb.run_secs(20 + 3 * domains.len() as u64);

    let mut out = String::from("spam-cloaked survey results\n---------------------------\n");
    let mut last_verdict = None;
    for (domain, idx) in &idxs {
        let probe = tb.client_task::<SpamProbe>(*idx).expect("probe state");
        out.push_str(&format!("{domain:<24} {}\n", probe.verdict()));
        last_verdict = Some(probe.verdict());
    }
    if let Some(v) = last_verdict {
        let report = RiskReport::evaluate(&tb, &v);
        out.push_str(&format!("\nrisk: {}\n", report.summary()));
    }
    cli::write_stdout(&out)
}

fn pcap_demo(path: &str) -> Result<(), Failure> {
    // A short censored exchange, captured and written as pcap.
    let policy = CensorPolicy::new().block_keyword("falun");
    let mut tb = Testbed::build(TestbedConfig {
        policy,
        capture: true,
        ..TestbedConfig::default()
    });
    let web = tb.target("bbc.com").expect("bbc target").web_ip;
    tb.spawn_on_client(
        SimTime::ZERO,
        Box::new(underradar::core::methods::ddos::DdosProbe::new(
            web, "bbc.com", "/falun", 2,
        )),
    );
    tb.run_secs(30);
    let cap = tb.sim.capture().expect("capture enabled");
    let bytes = underradar::netsim::pcap::to_pcap(cap);
    std::fs::write(path, &bytes).map_err(|e| Failure::Run(format!("write failed: {e}")))?;
    cli::write_stdout(&format!(
        "wrote {} packets ({} bytes) to {path}\n",
        cap.len(),
        bytes.len()
    ))
}

fn calibrate() -> Result<(), Failure> {
    // Hop discovery from the measurement server, then the recommended TTL.
    let mut net = RoutedMimicryNet::build(7, CensorPolicy::new());
    let cover: Ipv4Addr = net.cover_ip;
    net.sim
        .node_mut::<Host>(net.mserver)
        .expect("mserver host")
        .spawn_task_at(SimTime::ZERO, Box::new(HopProbe::new(cover, 33434, 8)));
    net.sim.run_for(SimDuration::from_secs(10)).expect("run");
    let probe = net
        .sim
        .node_ref::<Host>(net.mserver)
        .expect("mserver host")
        .task_ref::<HopProbe>(0)
        .expect("probe state");
    let mut out = format!("path from measurement server toward {cover}:\n");
    for (ttl, router) in probe.path() {
        out.push_str(&format!("  hop {ttl}: {router}\n"));
    }
    let calibrated = match (probe.hops_to_target(), probe.calibrated_reply_ttl()) {
        (Some(h), Some(t)) => {
            out.push_str(&format!(
                "target reached at TTL {h}; calibrated reply TTL = {t}\n"
            ));
            true
        }
        _ => false,
    };
    cli::write_stdout(&out)?;
    if calibrated {
        Ok(())
    } else {
        Err(Failure::Run(
            "calibration failed: target not reached within the sweep".to_string(),
        ))
    }
}
