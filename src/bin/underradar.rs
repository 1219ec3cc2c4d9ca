//! The `underradar` command-line tool: run experiments and ad-hoc surveys
//! against the simulated testbed.
//!
//! ```text
//! underradar experiments [e1..e14|a1|all]  regenerate paper tables/figures
//! underradar survey --domains a,b,c [--block d] [--keyword k]
//!                                          run a stealthy survey
//! underradar pcap <out.pcap>               write a sample capture for Wireshark
//! underradar calibrate                     find the Fig-3b reply-TTL window
//! ```

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

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  underradar experiments [e1..e14|a1|all]\n  underradar survey --domains a,b,c \
         [--block domain]... [--keyword kw]...\n  underradar pcap <out.pcap>\n  underradar calibrate"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("experiments") => experiments(args.get(1).map(String::as_str).unwrap_or("all")),
        Some("survey") => survey(&args[1..]),
        Some("pcap") => match args.get(1) {
            Some(path) => pcap_demo(path),
            None => usage(),
        },
        Some("calibrate") => calibrate(),
        _ => usage(),
    }
}

fn experiments(which: &str) -> ExitCode {
    use underradar_bench::experiments as exp;
    let report = if which.eq_ignore_ascii_case("all") {
        exp::run_all()
    } else if let Some((_, run_with)) = exp::find(which) {
        run_with(&underradar_telemetry::Telemetry::disabled())
    } else {
        eprintln!("unknown experiment '{which}' (e1..e14, a1 or all)");
        return ExitCode::from(2);
    };
    print!("{report}");
    ExitCode::SUCCESS
}

fn survey(args: &[String]) -> ExitCode {
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
                match DnsName::parse(&args[i + 1]) {
                    Ok(d) => policy = policy.block_domain(&d),
                    Err(e) => {
                        eprintln!("bad --block domain: {e}");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--keyword" if i + 1 < args.len() => {
                policy = policy.block_keyword(&args[i + 1]);
                i += 2;
            }
            other => {
                eprintln!("unknown survey argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    if domains.is_empty() {
        eprintln!("survey needs --domains a,b,c");
        return ExitCode::from(2);
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

    println!("spam-cloaked survey results");
    println!("---------------------------");
    let mut last_verdict = None;
    for (domain, idx) in &idxs {
        let probe = tb.client_task::<SpamProbe>(*idx).expect("probe state");
        println!("{domain:<24} {}", probe.verdict());
        last_verdict = Some(probe.verdict());
    }
    if let Some(v) = last_verdict {
        let report = RiskReport::evaluate(&tb, &v);
        println!("\nrisk: {}", report.summary());
    }
    ExitCode::SUCCESS
}

fn pcap_demo(path: &str) -> ExitCode {
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
    match std::fs::write(path, &bytes) {
        Ok(()) => {
            println!(
                "wrote {} packets ({} bytes) to {path}",
                cap.len(),
                bytes.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("write failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn calibrate() -> ExitCode {
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
    println!("path from measurement server toward {cover}:");
    for (ttl, router) in probe.path() {
        println!("  hop {ttl}: {router}");
    }
    match (probe.hops_to_target(), probe.calibrated_reply_ttl()) {
        (Some(h), Some(t)) => {
            println!("target reached at TTL {h}; calibrated reply TTL = {t}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("calibration failed: target not reached within the sweep");
            ExitCode::FAILURE
        }
    }
}
