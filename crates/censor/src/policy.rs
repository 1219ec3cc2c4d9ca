//! Censorship policy: what is blocked and how.
//!
//! One policy object configures every censor deployment in the testbed.
//! It can also render itself as a Snort-dialect ruleset (the paper built
//! its reference censor from such rules), which the IDS engine compiles.

use std::fmt;
use std::net::Ipv4Addr;

use underradar_netsim::addr::Cidr;
use underradar_netsim::time::SimTime;
use underradar_protocols::dns::DnsName;

/// What kind of censorship event occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CensorActionKind {
    /// RST pair injected because a keyword matched.
    KeywordRst {
        /// The keyword that matched.
        keyword: String,
    },
    /// Forged DNS answer injected.
    DnsInjection {
        /// The blocked name queried.
        name: DnsName,
        /// The query type as a number (1 = A, 15 = MX).
        qtype: u16,
    },
    /// A packet to a blocked address was dropped (inline only).
    IpDrop {
        /// The blocked destination.
        dst: Ipv4Addr,
    },
    /// A packet to a blocked port was dropped (inline only).
    PortDrop {
        /// The blocked destination.
        dst: Ipv4Addr,
        /// The blocked port.
        port: u16,
    },
    /// An HTTP request for a blocked URL was killed (inline only).
    UrlBlock {
        /// The URL substring that matched.
        url_fragment: String,
    },
}

impl CensorActionKind {
    /// Stable machine-readable label, used as the telemetry metric suffix
    /// (`<prefix>.actions.<label>`).
    pub fn label(&self) -> &'static str {
        match self {
            CensorActionKind::KeywordRst { .. } => "keyword_rst",
            CensorActionKind::DnsInjection { .. } => "dns_injection",
            CensorActionKind::IpDrop { .. } => "ip_drop",
            CensorActionKind::PortDrop { .. } => "port_drop",
            CensorActionKind::UrlBlock { .. } => "url_block",
        }
    }
}

/// Export a logged action stream into `tel`: one counter per blocking
/// mechanism under `<prefix>.actions.<label>`. Idempotent. The flight
/// recorder, not this export, keeps the per-action record.
pub fn export_actions(
    tel: &underradar_telemetry::Telemetry,
    prefix: &str,
    actions: &[CensorAction],
) {
    if !tel.is_enabled() {
        return;
    }
    let mut counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for a in actions {
        *counts.entry(a.kind.label()).or_insert(0) += 1;
    }
    for (label, n) in counts {
        tel.set_counter(&format!("{prefix}.actions.{label}"), n);
    }
}

/// A logged censorship action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CensorAction {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: CensorActionKind,
    /// The client whose traffic triggered it. The censor records this only
    /// transiently (transaction-focused, §2.1) — the field exists so
    /// *experiments* can check ground truth, not because the censor
    /// attributes users.
    pub client: Ipv4Addr,
}

/// The complete blocking policy.
#[derive(Debug, Clone)]
pub struct CensorPolicy {
    /// Keywords whose appearance in TCP payload triggers RST injection.
    pub keywords: Vec<String>,
    /// Domains whose DNS queries (A and MX) receive forged answers.
    /// Matching is by zone: `twitter.com` also blocks `www.twitter.com`.
    pub dns_blocked: Vec<DnsName>,
    /// The bogus address injected in forged answers (the GFC injects
    /// addresses from a small stable pool; we model one).
    pub dns_poison_ip: Ipv4Addr,
    /// Forge NXDOMAIN answers instead of bogus A records — the style some
    /// ISP-level censors use instead of the GFC's poison addresses.
    pub dns_nxdomain: bool,
    /// Destination prefixes that are blackholed (inline deployments).
    pub ip_blocked: Vec<Cidr>,
    /// `(prefix, port)` pairs that are blackholed (inline deployments).
    pub port_blocked: Vec<(Cidr, u16)>,
    /// URL substrings whose HTTP requests are blocked (inline deployments).
    pub url_blocked: Vec<String>,
}

impl Default for CensorPolicy {
    fn default() -> Self {
        CensorPolicy {
            keywords: Vec::new(),
            dns_blocked: Vec::new(),
            dns_poison_ip: Ipv4Addr::new(203, 0, 113, 113),
            dns_nxdomain: false,
            ip_blocked: Vec::new(),
            port_blocked: Vec::new(),
            url_blocked: Vec::new(),
        }
    }
}

impl CensorPolicy {
    /// An empty policy (censors nothing).
    pub fn new() -> CensorPolicy {
        CensorPolicy::default()
    }

    /// Builder: add a blocked keyword.
    pub fn block_keyword(mut self, kw: &str) -> Self {
        self.keywords.push(kw.to_string());
        self
    }

    /// Builder: add a DNS-blocked zone.
    pub fn block_domain(mut self, name: &DnsName) -> Self {
        self.dns_blocked.push(name.clone());
        self
    }

    /// Builder: switch DNS censorship to forged NXDOMAIN answers.
    pub fn with_dns_nxdomain(mut self) -> Self {
        self.dns_nxdomain = true;
        self
    }

    /// Builder: blackhole a destination prefix.
    pub fn block_ip(mut self, prefix: Cidr) -> Self {
        self.ip_blocked.push(prefix);
        self
    }

    /// Builder: blackhole a (prefix, port) pair.
    pub fn block_port(mut self, prefix: Cidr, port: u16) -> Self {
        self.port_blocked.push((prefix, port));
        self
    }

    /// Builder: block URLs containing a substring.
    pub fn block_url(mut self, fragment: &str) -> Self {
        self.url_blocked.push(fragment.to_string());
        self
    }

    /// Whether a DNS name is blocked (zone match).
    pub fn is_domain_blocked(&self, name: &DnsName) -> bool {
        self.dns_blocked.iter().any(|z| name.is_subdomain_of(z))
    }

    /// Whether a destination address is blackholed.
    pub fn is_ip_blocked(&self, dst: Ipv4Addr) -> bool {
        self.ip_blocked.iter().any(|c| c.contains(dst))
    }

    /// Whether a (destination, port) is blackholed.
    pub fn is_port_blocked(&self, dst: Ipv4Addr, port: u16) -> bool {
        self.port_blocked
            .iter()
            .any(|(c, p)| *p == port && c.contains(dst))
    }

    /// The first keyword present in `payload`, if any (case-insensitive).
    pub fn matching_keyword(&self, payload: &[u8]) -> Option<&str> {
        self.keywords.iter().find_map(|kw| {
            crate::tap::contains_nocase(payload, kw.as_bytes()).then_some(kw.as_str())
        })
    }

    /// The first blocked URL fragment present in `payload`, if any.
    pub fn matching_url(&self, payload: &[u8]) -> Option<&str> {
        self.url_blocked.iter().find_map(|frag| {
            crate::tap::contains_nocase(payload, frag.as_bytes()).then_some(frag.as_str())
        })
    }

    /// Render the policy as the equivalent Snort-dialect ruleset (what the
    /// paper's reference censor was configured with). Keyword rules are
    /// stream rules so split keywords still match; DNS rules match the
    /// query name in wire form.
    pub fn to_snort_rules(&self) -> String {
        let mut out = String::from("# generated censor ruleset\n");
        let mut sid = 3_000_000u32;
        for kw in &self.keywords {
            sid += 1;
            out.push_str(&format!(
                "reject tcp any any -> any any (msg:\"censor keyword {kw}\"; flow:to_server; content:\"{kw}\"; nocase; sid:{sid};)\n"
            ));
        }
        for name in &self.dns_blocked {
            sid += 1;
            // Wire-format name: length-prefixed labels.
            let mut pattern = String::new();
            for label in name.labels() {
                pattern.push_str(&format!("|{:02x}|", label.len()));
                pattern.push_str(&String::from_utf8_lossy(label));
            }
            out.push_str(&format!(
                "reject udp any any -> any 53 (msg:\"censor dns {name}\"; content:\"{pattern}\"; nocase; sid:{sid};)\n"
            ));
        }
        for prefix in &self.ip_blocked {
            sid += 1;
            out.push_str(&format!(
                "drop ip any any -> {prefix} any (msg:\"censor blackhole {prefix}\"; sid:{sid};)\n"
            ));
        }
        for (prefix, port) in &self.port_blocked {
            sid += 1;
            out.push_str(&format!(
                "drop tcp any any -> {prefix} {port} (msg:\"censor port {prefix}:{port}\"; sid:{sid};)\n"
            ));
        }
        for frag in &self.url_blocked {
            sid += 1;
            out.push_str(&format!(
                "drop tcp any any -> any 80 (msg:\"censor url {frag}\"; content:\"{frag}\"; nocase; sid:{sid};)\n"
            ));
        }
        out
    }
}

impl fmt::Display for CensorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy: {} keywords, {} domains, {} prefixes, {} ports, {} urls",
            self.keywords.len(),
            self.dns_blocked.len(),
            self.ip_blocked.len(),
            self.port_blocked.len(),
            self.url_blocked.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).expect("name")
    }

    fn policy() -> CensorPolicy {
        CensorPolicy::new()
            .block_keyword("falun")
            .block_domain(&name("twitter.com"))
            .block_ip(Cidr::slash24(Ipv4Addr::new(198, 51, 100, 0)))
            .block_port(Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0), 443)
            .block_url("/banned-page")
    }

    #[test]
    fn domain_zone_matching() {
        let p = policy();
        assert!(p.is_domain_blocked(&name("twitter.com")));
        assert!(p.is_domain_blocked(&name("api.twitter.com")));
        assert!(!p.is_domain_blocked(&name("nottwitter.com")));
        assert!(!p.is_domain_blocked(&name("bbc.com")));
    }

    #[test]
    fn ip_and_port_matching() {
        let p = policy();
        assert!(p.is_ip_blocked(Ipv4Addr::new(198, 51, 100, 77)));
        assert!(!p.is_ip_blocked(Ipv4Addr::new(198, 51, 101, 77)));
        assert!(p.is_port_blocked(Ipv4Addr::new(8, 8, 8, 8), 443));
        assert!(!p.is_port_blocked(Ipv4Addr::new(8, 8, 8, 8), 80));
    }

    #[test]
    fn keyword_and_url_matching() {
        let p = policy();
        assert_eq!(p.matching_keyword(b"GET /FaLuN news"), Some("falun"));
        assert_eq!(p.matching_keyword(b"GET /ok"), None);
        assert_eq!(
            p.matching_url(b"GET /banned-page HTTP/1.0"),
            Some("/banned-page")
        );
        assert_eq!(p.matching_url(b"GET /fine HTTP/1.0"), None);
    }

    #[test]
    fn snort_rendering_parses_back() {
        use underradar_ids::parser::{parse_ruleset, VarTable};
        let text = policy().to_snort_rules();
        let rules = parse_ruleset(&text, &VarTable::new()).expect("generated rules parse");
        assert_eq!(rules.len(), 5);
        // The DNS rule carries the length-prefixed wire pattern.
        let dns_rule = rules
            .iter()
            .find(|r| r.msg.contains("dns"))
            .expect("dns rule");
        let pat = &dns_rule.contents[0].pattern;
        assert_eq!(pat[0], 7); // len("twitter")
        assert_eq!(&pat[1..8], b"twitter");
    }

    #[test]
    fn empty_policy_blocks_nothing() {
        let p = CensorPolicy::new();
        assert!(!p.is_domain_blocked(&name("anything.example")));
        assert!(!p.is_ip_blocked(Ipv4Addr::new(1, 2, 3, 4)));
        assert_eq!(p.matching_keyword(b"whatever"), None);
    }
}
