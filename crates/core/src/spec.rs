//! The scenario IR: a plain-data description of one experiment.
//!
//! A [`ScenarioSpec`] captures everything the paper varies between its
//! figures — the topology, the traffic matrix of typed application roles,
//! the QoS mode, the scheduler policy, the device profile and the run
//! window — with no code attached. One generic executor
//! ([`crate::executor::execute`]) turns a spec plus a seed into a
//! [`crate::executor::ScenarioOutcome`], so new experiments (arbitrary
//! switch chains, mixed-SL incasts, gaming adversaries placed anywhere)
//! are data, not Rust.
//!
//! Specs also have a text form — a small TOML subset parsed by
//! [`ScenarioSpec::parse`] and emitted by [`ScenarioSpec::to_text`] — so
//! `rperf-cli scenario <file>` runs experiments without recompiling:
//!
//! ```text
//! name = "chain-gaming"
//! qos = "gamed"
//! duration_ms = 2
//!
//! [topology]
//! kind = "chain"
//! hosts_per_switch = [1, 1, 3]
//!
//! [[role]]
//! node = 0
//! kind = "rperf"
//! target = 4
//! ```

use rperf_fabric::Topology;
use rperf_model::config::SchedPolicy;
use rperf_model::{ClusterConfig, ServiceLevel};
use rperf_sim::SimDuration;
use rperf_subnet::{check, FatTreeParams, TopologySpec, MAX_HOSTS};

/// QoS configuration of a scenario (Sections VII–VIII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosMode {
    /// Everything shares SL0/VL0 (Section VII).
    SharedSl,
    /// Latency traffic on SL1 → high-priority VL1 (Section VIII-C).
    DedicatedSl,
    /// Dedicated SL plus a bandwidth hog gaming the latency class
    /// (Section VIII-C, "Gaming the dedicated SL/VL setup").
    DedicatedSlWithPretend,
}

/// Which calibrated device model a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceProfile {
    /// The paper's hardware testbed (ConnectX-3 + SX6012).
    Hardware,
    /// The paper's OMNeT++ simulator profile.
    OmnetSimulator,
}

impl DeviceProfile {
    /// The cluster configuration of this profile.
    pub fn cluster_config(&self) -> ClusterConfig {
        match self {
            DeviceProfile::Hardware => ClusterConfig::hardware(),
            DeviceProfile::OmnetSimulator => ClusterConfig::omnet_simulator(),
        }
    }
}

/// A service-level choice that can defer to the scenario's QoS mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlSpec {
    /// Resolve from the QoS mode: latency roles (RPerf, LSG, pretend LSG)
    /// take SL1 when a dedicated SL is configured, everything else SL0.
    Auto,
    /// A fixed service level.
    Fixed(u8),
}

impl SlSpec {
    /// Resolves to a concrete service level for a latency-class role.
    fn latency_class(self, qos: QosMode) -> ServiceLevel {
        match self {
            SlSpec::Fixed(raw) => ServiceLevel::new(raw),
            SlSpec::Auto if qos == QosMode::SharedSl => ServiceLevel::new(0),
            SlSpec::Auto => ServiceLevel::new(1),
        }
    }

    /// Resolves to a concrete service level for a bulk-class role.
    fn bulk_class(self) -> ServiceLevel {
        match self {
            SlSpec::Fixed(raw) => ServiceLevel::new(raw),
            SlSpec::Auto => ServiceLevel::new(0),
        }
    }
}

/// A typed application role in the traffic matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// The RPerf measurement tool probing `target` (Section IV).
    RPerf {
        /// Destination node index.
        target: usize,
        /// Probe payload bytes.
        payload: u64,
        /// Probe-flow service level.
        sl: SlSpec,
        /// XORed into the experiment seed for this instance's noise
        /// stream, so co-running probes draw independent noise.
        seed_salt: u64,
    },
    /// A closed-loop latency-sensitive generator (application-level view).
    Lsg {
        /// Destination node index.
        target: usize,
        /// Payload bytes per probe.
        payload: u64,
        /// Flow service level.
        sl: SlSpec,
    },
    /// A bandwidth-sensitive generator.
    Bsg {
        /// Destination node index.
        target: usize,
        /// Payload bytes per message.
        payload: u64,
        /// Open-loop posting window.
        window: usize,
        /// Messages per doorbell.
        batch: usize,
        /// Flow service level.
        sl: SlSpec,
    },
    /// The QoS-gaming adversary: bulk data as small latency-class
    /// messages, plus an aggressively tuned posting engine.
    PretendLsg {
        /// Destination node index.
        target: usize,
        /// Bytes per segmented message.
        chunk: u64,
        /// The latency-class SL it masquerades on.
        sl: SlSpec,
    },
    /// The perftest-style ping-pong client.
    Perftest {
        /// The ping-pong peer node.
        peer: usize,
        /// Payload bytes.
        payload: u64,
    },
    /// The perftest-style ping-pong server.
    PerftestServer {
        /// The ping-pong peer node.
        peer: usize,
        /// Payload bytes.
        payload: u64,
    },
    /// The qperf-style post-poll WRITE client.
    Qperf {
        /// The (passive) peer node.
        peer: usize,
        /// Payload bytes.
        payload: u64,
    },
    /// The destination server: charged receive queues, delivery counting.
    Sink,
}

impl Role {
    /// The concrete service level this role sends on under `qos`.
    pub fn resolved_sl(&self, qos: QosMode) -> ServiceLevel {
        match self {
            Role::RPerf { sl, .. } | Role::Lsg { sl, .. } => sl.latency_class(qos),
            Role::PretendLsg { sl, .. } => match sl {
                SlSpec::Fixed(raw) => ServiceLevel::new(*raw),
                // The whole point of the adversary is squatting on the
                // latency class.
                SlSpec::Auto => ServiceLevel::new(1),
            },
            Role::Bsg { sl, .. } => sl.bulk_class(),
            Role::Perftest { .. } | Role::PerftestServer { .. } | Role::Qperf { .. } => {
                ServiceLevel::new(0)
            }
            Role::Sink => ServiceLevel::new(0),
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            Role::RPerf { .. } => "rperf",
            Role::Lsg { .. } => "lsg",
            Role::Bsg { .. } => "bsg",
            Role::PretendLsg { .. } => "pretend_lsg",
            Role::Perftest { .. } => "perftest",
            Role::PerftestServer { .. } => "perftest_server",
            Role::Qperf { .. } => "qperf",
            Role::Sink => "sink",
        }
    }
}

/// One role bound to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleSpec {
    /// The host index the application runs on.
    pub node: usize,
    /// What it does.
    pub role: Role,
}

/// The plain-data description of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// A label carried into the outcome (and the JSON artifact).
    pub name: String,
    /// Device profile (ignored by
    /// [`crate::executor::execute_with_config`], which takes an explicit
    /// configuration).
    pub profile: DeviceProfile,
    /// Switch scheduling policy.
    pub policy: SchedPolicy,
    /// QoS mode; a non-shared mode installs the dedicated SL1→VL1 tables.
    pub qos: QosMode,
    /// Warm-up horizon: samples and bandwidth before it are discarded.
    pub warmup: SimDuration,
    /// Measurement window after warm-up.
    pub duration: SimDuration,
    /// The fabric shape.
    pub topology: Topology,
    /// The traffic matrix.
    pub roles: Vec<RoleSpec>,
    /// Deprecated shim, kept only for the repository benchmark's harness,
    /// which still sets it through [`ScenarioSpec::with_shards`] and reads
    /// it back. Nothing in the workspace reads it: every scenario runs as
    /// one simulation on one thread. It is never parsed and never written
    /// by [`ScenarioSpec::to_text`], so it is not part of a spec's text or
    /// its cache key.
    pub shards: usize,
}

impl ScenarioSpec {
    /// A spec over `topology` with the suite's defaults: hardware profile,
    /// FCFS, shared SL, 200 µs warm-up, 5 ms measurement, no roles yet.
    pub fn new(name: impl Into<String>, topology: Topology) -> Self {
        ScenarioSpec {
            name: name.into(),
            profile: DeviceProfile::Hardware,
            policy: SchedPolicy::Fcfs,
            qos: QosMode::SharedSl,
            warmup: SimDuration::from_us(200),
            duration: SimDuration::from_ms(5),
            topology,
            roles: Vec::new(),
            shards: 1,
        }
    }

    /// Sets the device profile (builder style).
    pub fn with_profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the scheduling policy (builder style).
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the QoS mode (builder style).
    pub fn with_qos(mut self, qos: QosMode) -> Self {
        self.qos = qos;
        self
    }

    /// Sets the measurement window (builder style).
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Sets warm-up and measurement window together (builder style).
    pub fn with_window(mut self, warmup: SimDuration, duration: SimDuration) -> Self {
        self.warmup = warmup;
        self.duration = duration;
        self
    }

    /// Binds `role` to `node` (builder style).
    pub fn with_role(mut self, node: usize, role: Role) -> Self {
        self.roles.push(RoleSpec { node, role });
        self
    }

    /// Deprecated shim for the repository benchmark's harness: stores
    /// `shards` in [`ScenarioSpec::shards`], which changes nothing about
    /// how the scenario runs.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Checks the spec is executable: a constructible fat tree, no more
    /// hosts than unicast LIDs, any other switched topology cabled within
    /// the profile's switch ports and connected, at least one role, a
    /// non-empty run window that fits the simulated clock, every node and
    /// every target/peer inside the topology, no node claimed twice, and
    /// no self-targeting flow.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if let Topology::FatTree(ft) = &self.topology {
            ft.validate()?;
        }
        let hosts = self.topology.hosts();
        if hosts > rperf_subnet::MAX_HOSTS {
            return Err(format!(
                "the topology has {hosts} hosts, more than the {} unicast LIDs",
                rperf_subnet::MAX_HOSTS
            ));
        }
        // The planner's checks on the graph the builder wires. A fat tree
        // is checked by its parameters above: its builder raises the port
        // budget to its radix, and its graph is generated only when built.
        let planned = match &self.topology {
            Topology::FatTree(_) => None,
            topo => topo.to_spec(),
        };
        if let Some(spec) = planned {
            let ports = self.profile.cluster_config().switch.ports;
            check(&spec, ports).map_err(|e| e.to_string())?;
        }
        if self.roles.is_empty() {
            return Err("a scenario needs at least one role".into());
        }
        if self.duration == SimDuration::ZERO {
            return Err("the measurement window must be non-zero".into());
        }
        let (warmup, duration) = (self.warmup.as_ps(), self.duration.as_ps());
        if warmup.checked_add(duration).is_none() {
            return Err(format!(
                "warm-up {warmup} ps + measurement window {duration} ps overflows the simulated clock"
            ));
        }
        let mut claimed = vec![false; hosts];
        for r in &self.roles {
            if r.node >= hosts {
                return Err(format!(
                    "role `{}` on node {} but the topology has {} hosts",
                    r.role.kind_name(),
                    r.node,
                    hosts
                ));
            }
            if claimed[r.node] {
                return Err(format!("node {} has more than one role", r.node));
            }
            claimed[r.node] = true;
            let dest = match &r.role {
                Role::RPerf { target, .. }
                | Role::Lsg { target, .. }
                | Role::Bsg { target, .. }
                | Role::PretendLsg { target, .. } => Some(*target),
                Role::Perftest { peer, .. }
                | Role::PerftestServer { peer, .. }
                | Role::Qperf { peer, .. } => Some(*peer),
                Role::Sink => None,
            };
            if let Some(dest) = dest {
                if dest >= hosts {
                    return Err(format!(
                        "role `{}` on node {} targets node {dest}, outside the \
                         {hosts}-host topology",
                        r.role.kind_name(),
                        r.node,
                    ));
                }
                if dest == r.node {
                    return Err(format!(
                        "role `{}` on node {} targets itself",
                        r.role.kind_name(),
                        r.node,
                    ));
                }
            }
            if let Role::Bsg { window, batch, .. } = &r.role {
                if *window == 0 || *batch == 0 {
                    return Err(format!(
                        "bsg on node {}: window and batch must be at least 1",
                        r.node
                    ));
                }
            }
            if let Role::RPerf { sl, .. }
            | Role::Lsg { sl, .. }
            | Role::Bsg { sl, .. }
            | Role::PretendLsg { sl, .. } = &r.role
            {
                if let SlSpec::Fixed(raw) = sl {
                    if *raw > ServiceLevel::MAX {
                        return Err(format!(
                            "node {}: service level {raw} out of range 0..=15",
                            r.node
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

/// A parse failure, locating the offending line (1-based).
///
/// This is [`rperf_model::textcfg::ParseError`]: the scenario format is
/// one consumer of the shared TOML-subset reader.
pub use rperf_model::textcfg::ParseError as SpecError;

use rperf_model::textcfg::{
    err, expect_int, expect_list, expect_number, expect_str, Document, Section, Value,
};

fn duration_from(
    section: &Section,
    base: &str,
    default: SimDuration,
) -> Result<SimDuration, SpecError> {
    // Last one of `<base>_ps` / `<base>_us` / `<base>_ms` wins, matching
    // TOML's "later duplicate overrides" intuition for alternative units.
    let mut result = default;
    for (line, key, v) in &section.entries {
        let Some(unit) = key.strip_prefix(base).and_then(|r| r.strip_prefix('_')) else {
            continue;
        };
        let scale = match unit {
            "ps" => 1.0,
            "us" => 1e6,
            "ms" => 1e9,
            _ => continue,
        };
        if unit == "ps" {
            result = SimDuration::from_ps(expect_int(*line, key, v)?);
        } else {
            let n = expect_number(*line, key, v)?;
            if n < 0.0 || !n.is_finite() {
                return err(*line, format!("`{key}` must be a non-negative number"));
            }
            result = SimDuration::from_ps((n * scale).round() as u64);
        }
    }
    Ok(result)
}

fn parse_topology(section: &Section) -> Result<Topology, SpecError> {
    let header = section.header_line;
    let Some((kline, kval)) = section.get("kind") else {
        return err(header, "[topology] needs a `kind` key");
    };
    let kind = expect_str(kline, "kind", kval)?;
    let allowed: &[&str] = match kind.as_str() {
        "direct_pair" => &["kind"],
        "single_switch" => &["kind", "hosts"],
        "two_switch" => &["kind", "upstream", "downstream"],
        "chain" => &["kind", "hosts_per_switch"],
        "star" => &["kind", "leaves", "hosts_per_leaf"],
        "custom" => &["kind", "switches", "host_attachments", "trunks"],
        "fattree" => &["kind", "k", "tiers", "oversubscription"],
        other => {
            return err(
                kline,
                format!(
                    "unknown topology kind `{other}` (expected direct_pair, single_switch, \
                     two_switch, chain, star, custom, or fattree)"
                ),
            )
        }
    };
    section.check_keys(&format!("topology `{kind}`"), allowed)?;
    let req_int = |key: &str| -> Result<u64, SpecError> {
        let Some((line, v)) = section.get(key) else {
            return err(header, format!("topology `{kind}` needs `{key}`"));
        };
        expect_int(line, key, v)
    };
    Ok(match kind.as_str() {
        "direct_pair" => Topology::DirectPair,
        "single_switch" => Topology::SingleSwitch {
            hosts: req_int("hosts")? as usize,
        },
        "two_switch" => Topology::TwoSwitch {
            upstream: req_int("upstream")? as usize,
            downstream: req_int("downstream")? as usize,
        },
        "chain" => {
            let Some((line, v)) = section.get("hosts_per_switch") else {
                return err(header, "topology `chain` needs `hosts_per_switch`");
            };
            let hosts: Vec<usize> = expect_list(line, "hosts_per_switch", v)?
                .into_iter()
                .map(|n| n as usize)
                .collect();
            if hosts.is_empty() {
                return err(line, "`hosts_per_switch` must name at least one switch");
            }
            // Bounded before the host list is built: an oversized chain
            // would otherwise fail as an allocation abort, not an error.
            let total = hosts.iter().try_fold(0usize, |sum, &n| sum.checked_add(n));
            if total.is_none_or(|n| n > MAX_HOSTS) {
                return err(
                    line,
                    format!("topology `chain` has more hosts than the {MAX_HOSTS} unicast LIDs"),
                );
            }
            Topology::Spec(TopologySpec::chain(hosts.len(), &hosts))
        }
        "star" => {
            let leaves = req_int("leaves")? as usize;
            let per_leaf = req_int("hosts_per_leaf")? as usize;
            // Bounded before the switch and host lists are built, as for
            // `chain`.
            let line = |key: &str| section.get(key).map_or(header, |(l, _)| l);
            if leaves > MAX_HOSTS {
                return err(
                    line("leaves"),
                    format!("topology `star` has {leaves} leaves; at most {MAX_HOSTS} are allowed"),
                );
            }
            if leaves.checked_mul(per_leaf).is_none_or(|n| n > MAX_HOSTS) {
                return err(
                    line("hosts_per_leaf"),
                    format!(
                        "topology `star` has {leaves} × {per_leaf} hosts, more than the \
                         {MAX_HOSTS} unicast LIDs"
                    ),
                );
            }
            Topology::Spec(TopologySpec::star(leaves, per_leaf))
        }
        "custom" => {
            let switches = req_int("switches")? as usize;
            let Some((line, v)) = section.get("host_attachments") else {
                return err(header, "topology `custom` needs `host_attachments`");
            };
            let attachments: Vec<usize> = expect_list(line, "host_attachments", v)?
                .into_iter()
                .map(|n| n as usize)
                .collect();
            if let Some(&bad) = attachments.iter().find(|&&a| a >= switches) {
                return err(
                    line,
                    format!(
                        "host attached to switch {bad}, but there are only {switches} switches"
                    ),
                );
            }
            let trunks = match section.get("trunks") {
                None => Vec::new(),
                Some((tline, Value::Pairs(p))) => {
                    if let Some(&(a, b)) = p.iter().find(|&&(a, b)| a >= switches || b >= switches)
                    {
                        return err(
                            tline,
                            format!("trunk [{a}, {b}] references a switch outside 0..{switches}"),
                        );
                    }
                    p.clone()
                }
                Some((tline, Value::List(l))) if l.is_empty() => {
                    let _ = tline;
                    Vec::new()
                }
                Some((tline, other)) => {
                    return err(
                        tline,
                        format!(
                            "`trunks` expects a list of pairs like [[0, 1]], got {}",
                            other.type_name()
                        ),
                    )
                }
            };
            Topology::Spec(TopologySpec::custom(switches, attachments, trunks))
        }
        "fattree" => {
            let opt_int = |key: &str, default: u64| -> Result<u64, SpecError> {
                match section.get(key) {
                    None => Ok(default),
                    Some((line, v)) => expect_int(line, key, v),
                }
            };
            let ft = FatTreeParams::new(
                req_int("k")? as usize,
                opt_int("tiers", 2)? as usize,
                opt_int("oversubscription", 1)? as usize,
            );
            if let Err(msg) = ft.validate() {
                // Blame the line of the offending key (falling back to the
                // section header for defaulted keys).
                let blame = |key: &str| section.get(key).map(|(l, _)| l).unwrap_or(header);
                let line = if msg.starts_with("fattree tiers") {
                    blame("tiers")
                } else if msg.starts_with("fattree oversubscription") {
                    blame("oversubscription")
                } else {
                    blame("k")
                };
                return err(line, msg);
            }
            Topology::FatTree(ft)
        }
        _ => unreachable!("kind validated above"),
    })
}

fn parse_sl(section: &Section) -> Result<SlSpec, SpecError> {
    match section.get("sl") {
        None => Ok(SlSpec::Auto),
        Some((_, Value::Str(s))) if s == "auto" => Ok(SlSpec::Auto),
        Some((line, Value::Str(s))) => err(
            line,
            format!("`sl` expects \"auto\" or an integer, got \"{s}\""),
        ),
        Some((line, v)) => {
            let raw = expect_int(line, "sl", v)?;
            if raw > ServiceLevel::MAX as u64 {
                return err(line, format!("service level {raw} out of range 0..=15"));
            }
            Ok(SlSpec::Fixed(raw as u8))
        }
    }
}

fn parse_role(section: &Section) -> Result<RoleSpec, SpecError> {
    let header = section.header_line;
    let Some((nline, nval)) = section.get("node") else {
        return err(header, "[[role]] needs a `node` key");
    };
    let node = expect_int(nline, "node", nval)? as usize;
    let Some((kline, kval)) = section.get("kind") else {
        return err(header, "[[role]] needs a `kind` key");
    };
    let kind = expect_str(kline, "kind", kval)?;

    let opt_int = |key: &str, default: u64| -> Result<u64, SpecError> {
        match section.get(key) {
            None => Ok(default),
            Some((line, v)) => expect_int(line, key, v),
        }
    };
    let req_int = |key: &str| -> Result<u64, SpecError> {
        let Some((line, v)) = section.get(key) else {
            return err(header, format!("role `{kind}` needs `{key}`"));
        };
        expect_int(line, key, v)
    };

    let allowed: &[&str] = match kind.as_str() {
        "rperf" => &["node", "kind", "target", "payload", "sl", "seed_salt"],
        "lsg" => &["node", "kind", "target", "payload", "sl"],
        "bsg" => &["node", "kind", "target", "payload", "window", "batch", "sl"],
        "pretend_lsg" => &["node", "kind", "target", "chunk", "sl"],
        "perftest" | "perftest_server" | "qperf" => &["node", "kind", "peer", "payload"],
        "sink" => &["node", "kind"],
        other => {
            return err(
                kline,
                format!(
                    "unknown role kind `{other}` (expected rperf, lsg, bsg, pretend_lsg, \
                     perftest, perftest_server, qperf, or sink)"
                ),
            )
        }
    };
    section.check_keys(&format!("role `{kind}`"), allowed)?;

    let role = match kind.as_str() {
        "rperf" => Role::RPerf {
            target: req_int("target")? as usize,
            payload: opt_int("payload", 64)?,
            sl: parse_sl(section)?,
            seed_salt: opt_int("seed_salt", 0)?,
        },
        "lsg" => Role::Lsg {
            target: req_int("target")? as usize,
            payload: opt_int("payload", 64)?,
            sl: parse_sl(section)?,
        },
        "bsg" => Role::Bsg {
            target: req_int("target")? as usize,
            payload: opt_int("payload", 4096)?,
            window: opt_int("window", 128)? as usize,
            batch: opt_int("batch", 1)? as usize,
            sl: parse_sl(section)?,
        },
        "pretend_lsg" => Role::PretendLsg {
            target: req_int("target")? as usize,
            chunk: opt_int("chunk", 256)?,
            sl: parse_sl(section)?,
        },
        "perftest" => Role::Perftest {
            peer: req_int("peer")? as usize,
            payload: opt_int("payload", 64)?,
        },
        "perftest_server" => Role::PerftestServer {
            peer: req_int("peer")? as usize,
            payload: opt_int("payload", 64)?,
        },
        "qperf" => Role::Qperf {
            peer: req_int("peer")? as usize,
            payload: opt_int("payload", 64)?,
        },
        "sink" => Role::Sink,
        _ => unreachable!("kind validated above"),
    };
    Ok(RoleSpec { node, role })
}

impl ScenarioSpec {
    /// Parses the text form.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] with the 1-based line number of the first
    /// problem. Parsing is purely syntactic; call [`ScenarioSpec::validate`]
    /// afterwards for semantic checks (node ranges, duplicate nodes).
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        let doc = Document::parse(text)?;
        let top = doc.top;
        let mut topology: Option<Section> = None;
        let mut roles: Vec<Section> = Vec::new();
        for sec in doc.sections {
            if sec.raw_header == "[topology]" {
                if topology.is_some() {
                    return err(sec.header_line, "duplicate [topology] section");
                }
                topology = Some(sec);
            } else if sec.raw_header == "[[role]]" {
                roles.push(sec);
            } else {
                return err(
                    sec.header_line,
                    format!(
                        "unknown section `{}` (expected [topology] or [[role]])",
                        sec.raw_header
                    ),
                );
            }
        }

        top.check_keys(
            "the scenario header",
            &[
                "name",
                "profile",
                "policy",
                "qos",
                "warmup_ps",
                "warmup_us",
                "warmup_ms",
                "duration_ps",
                "duration_us",
                "duration_ms",
            ],
        )?;

        let name = match top.get("name") {
            Some((line, v)) => expect_str(line, "name", v)?,
            None => "scenario".to_string(),
        };
        let profile = match top.get("profile") {
            None => DeviceProfile::Hardware,
            Some((line, v)) => match expect_str(line, "profile", v)?.as_str() {
                "hardware" | "hw" => DeviceProfile::Hardware,
                "omnet" | "sim" => DeviceProfile::OmnetSimulator,
                other => return err(line, format!("unknown profile `{other}` (hw|omnet)")),
            },
        };
        let policy = match top.get("policy") {
            None => SchedPolicy::Fcfs,
            Some((line, v)) => match expect_str(line, "policy", v)?.as_str() {
                "fcfs" => SchedPolicy::Fcfs,
                "rr" => SchedPolicy::RoundRobin,
                "fair" => SchedPolicy::FairShare,
                other => return err(line, format!("unknown policy `{other}` (fcfs|rr|fair)")),
            },
        };
        let qos = match top.get("qos") {
            None => QosMode::SharedSl,
            Some((line, v)) => match expect_str(line, "qos", v)?.as_str() {
                "shared" => QosMode::SharedSl,
                "dedicated" => QosMode::DedicatedSl,
                "gamed" => QosMode::DedicatedSlWithPretend,
                other => {
                    return err(
                        line,
                        format!("unknown qos `{other}` (shared|dedicated|gamed)"),
                    )
                }
            },
        };
        let warmup = duration_from(&top, "warmup", SimDuration::from_us(200))?;
        let duration = duration_from(&top, "duration", SimDuration::from_ms(5))?;

        let Some(topology) = topology else {
            return err(text.lines().count().max(1), "missing [topology] section");
        };
        let topology = parse_topology(&topology)?;
        let roles = roles
            .iter()
            .map(parse_role)
            .collect::<Result<Vec<_>, _>>()?;

        Ok(ScenarioSpec {
            name,
            profile,
            policy,
            qos,
            warmup,
            duration,
            topology,
            roles,
            shards: 1,
        })
    }

    /// Emits the canonical text form.
    ///
    /// The emission is lossless: `parse(to_text(spec)) == spec` (run
    /// windows are written in exact picoseconds; chain/star topologies
    /// are written in the equivalent `custom` form, which compares equal
    /// structurally).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let quoted = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        let _ = writeln!(out, "name = {}", quoted(&self.name));
        let profile = match self.profile {
            DeviceProfile::Hardware => "hardware",
            DeviceProfile::OmnetSimulator => "omnet",
        };
        let _ = writeln!(out, "profile = \"{profile}\"");
        let policy = match self.policy {
            SchedPolicy::Fcfs => "fcfs",
            SchedPolicy::RoundRobin => "rr",
            SchedPolicy::FairShare => "fair",
        };
        let _ = writeln!(out, "policy = \"{policy}\"");
        let qos = match self.qos {
            QosMode::SharedSl => "shared",
            QosMode::DedicatedSl => "dedicated",
            QosMode::DedicatedSlWithPretend => "gamed",
        };
        let _ = writeln!(out, "qos = \"{qos}\"");
        let _ = writeln!(out, "warmup_ps = {}", self.warmup.as_ps());
        let _ = writeln!(out, "duration_ps = {}", self.duration.as_ps());

        let _ = writeln!(out, "\n[topology]");
        match &self.topology {
            Topology::DirectPair => {
                let _ = writeln!(out, "kind = \"direct_pair\"");
            }
            Topology::SingleSwitch { hosts } => {
                let _ = writeln!(out, "kind = \"single_switch\"\nhosts = {hosts}");
            }
            Topology::TwoSwitch {
                upstream,
                downstream,
            } => {
                let _ = writeln!(
                    out,
                    "kind = \"two_switch\"\nupstream = {upstream}\ndownstream = {downstream}"
                );
            }
            Topology::Spec(spec) => {
                let _ = writeln!(out, "kind = \"custom\"\nswitches = {}", spec.switches());
                let attachments: Vec<String> = spec
                    .host_attachments()
                    .iter()
                    .map(|a| a.to_string())
                    .collect();
                let _ = writeln!(out, "host_attachments = [{}]", attachments.join(", "));
                let trunks: Vec<String> = spec
                    .trunks()
                    .iter()
                    .map(|(a, b)| format!("[{a}, {b}]"))
                    .collect();
                let _ = writeln!(out, "trunks = [{}]", trunks.join(", "));
            }
            Topology::FatTree(ft) => {
                let _ = writeln!(
                    out,
                    "kind = \"fattree\"\nk = {}\ntiers = {}\noversubscription = {}",
                    ft.k, ft.tiers, ft.oversubscription
                );
            }
        }

        for r in &self.roles {
            let _ = writeln!(out, "\n[[role]]\nnode = {}", r.node);
            let _ = writeln!(out, "kind = \"{}\"", r.role.kind_name());
            let sl_text = |sl: &SlSpec| match sl {
                SlSpec::Auto => "\"auto\"".to_string(),
                SlSpec::Fixed(raw) => raw.to_string(),
            };
            match &r.role {
                Role::RPerf {
                    target,
                    payload,
                    sl,
                    seed_salt,
                } => {
                    let _ = writeln!(
                        out,
                        "target = {target}\npayload = {payload}\nsl = {}\nseed_salt = {seed_salt}",
                        sl_text(sl)
                    );
                }
                Role::Lsg {
                    target,
                    payload,
                    sl,
                } => {
                    let _ = writeln!(
                        out,
                        "target = {target}\npayload = {payload}\nsl = {}",
                        sl_text(sl)
                    );
                }
                Role::Bsg {
                    target,
                    payload,
                    window,
                    batch,
                    sl,
                } => {
                    let _ = writeln!(
                        out,
                        "target = {target}\npayload = {payload}\nwindow = {window}\n\
                         batch = {batch}\nsl = {}",
                        sl_text(sl)
                    );
                }
                Role::PretendLsg { target, chunk, sl } => {
                    let _ = writeln!(
                        out,
                        "target = {target}\nchunk = {chunk}\nsl = {}",
                        sl_text(sl)
                    );
                }
                Role::Perftest { peer, payload }
                | Role::PerftestServer { peer, payload }
                | Role::Qperf { peer, payload } => {
                    let _ = writeln!(out, "peer = {peer}\npayload = {payload}");
                }
                Role::Sink => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAMING: &str = r#"
# A chain with the hog two hops from the victim.
name = "chain-gaming"
profile = "hardware"
qos = "gamed"
duration_ms = 2

[topology]
kind = "chain"
hosts_per_switch = [1, 1, 3]

[[role]]
node = 0
kind = "rperf"
target = 4
seed_salt = 0xA5

[[role]]
node = 1
kind = "pretend_lsg"
target = 4

[[role]]
node = 4
kind = "sink"
"#;

    #[test]
    fn parses_a_full_scenario() {
        let spec = ScenarioSpec::parse(GAMING).unwrap();
        assert_eq!(spec.name, "chain-gaming");
        assert_eq!(spec.qos, QosMode::DedicatedSlWithPretend);
        assert_eq!(spec.duration, SimDuration::from_ms(2));
        assert_eq!(spec.warmup, SimDuration::from_us(200)); // default
        assert_eq!(spec.topology.hosts(), 5);
        assert_eq!(spec.topology.switches(), 3);
        assert_eq!(spec.roles.len(), 3);
        assert_eq!(
            spec.roles[0].role,
            Role::RPerf {
                target: 4,
                payload: 64,
                sl: SlSpec::Auto,
                seed_salt: 0xA5,
            }
        );
        spec.validate().unwrap();
    }

    #[test]
    fn roundtrips_through_text() {
        let spec = ScenarioSpec::parse(GAMING).unwrap();
        let text = spec.to_text();
        let back = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec, back, "canonical text form must round-trip:\n{text}");
    }

    #[test]
    fn shards_is_an_unknown_key() {
        let e = ScenarioSpec::parse("name = \"x\"\nshards = 2\n[topology]\nkind = \"direct_pair\"")
            .unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.msg.contains("shards"), "{e}");
        // The benchmark shim is never written, so it never reaches a key.
        let spec = ScenarioSpec::parse(GAMING).unwrap().with_shards(4);
        assert!(!spec.to_text().contains("shards"));
    }

    #[test]
    fn fattree_topology_parses_defaults_and_roundtrips() {
        let spec = ScenarioSpec::parse(
            "name = \"clos\"\n[topology]\nkind = \"fattree\"\nk = 4\n\n\
             [[role]]\nnode = 0\nkind = \"rperf\"\ntarget = 7\n\n\
             [[role]]\nnode = 7\nkind = \"sink\"",
        )
        .unwrap();
        // tiers defaults to 2, oversubscription to 1: 8 hosts, 6 switches.
        assert_eq!(
            spec.topology,
            Topology::FatTree(FatTreeParams::new(4, 2, 1))
        );
        assert_eq!(spec.topology.hosts(), 8);
        assert_eq!(spec.topology.switches(), 6);
        spec.validate().unwrap();
        let back = ScenarioSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(back, spec, "fattree must round-trip through text");

        let three = ScenarioSpec::parse(
            "[topology]\nkind = \"fattree\"\nk = 4\ntiers = 3\noversubscription = 2",
        )
        .unwrap();
        assert_eq!(
            three.topology,
            Topology::FatTree(FatTreeParams::new(4, 3, 2))
        );
    }

    #[test]
    fn fattree_errors_carry_the_offending_line() {
        let e = ScenarioSpec::parse("[topology]\nkind = \"fattree\"\nk = 5").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("even"), "{e}");

        let e =
            ScenarioSpec::parse("[topology]\nkind = \"fattree\"\nk = 4\ntiers = 7").unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.msg.contains("tiers"), "{e}");

        let e = ScenarioSpec::parse("[topology]\nkind = \"fattree\"").unwrap_err();
        assert!(e.msg.contains('k'), "missing k is reported: {e}");

        // Fabrics the port numbers or the unicast LIDs cannot address
        // blame `k`, even when the message names another key.
        let e =
            ScenarioSpec::parse("[topology]\nkind = \"fattree\"\ntiers = 2\nk = 300").unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.msg.contains("more than 255 ports"), "{e}");
        let e =
            ScenarioSpec::parse("[topology]\nkind = \"fattree\"\nk = 64\ntiers = 3").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("unicast LIDs"), "{e}");
    }

    #[test]
    fn oversized_fabrics_fail_validation() {
        let ft = FatTreeParams::new(300, 2, 1);
        let spec = ScenarioSpec::new("wide", Topology::FatTree(ft)).with_role(0, Role::Sink);
        assert!(spec.validate().unwrap_err().contains("255 ports"));
        // Checked before the host count, whose formula would overflow.
        let ft = FatTreeParams::new(1 << 40, 3, 1);
        let spec = ScenarioSpec::new("huge", Topology::FatTree(ft)).with_role(0, Role::Sink);
        assert!(spec.validate().is_err());
        // A custom graph is held to the unicast LID range too.
        let topo = TopologySpec::single_switch(rperf_subnet::MAX_HOSTS + 1);
        let spec = ScenarioSpec::new("flat", Topology::Spec(topo)).with_role(0, Role::Sink);
        assert!(spec.validate().unwrap_err().contains("unicast LIDs"));
    }

    #[test]
    fn oversized_stars_and_chains_are_parse_errors_at_their_key() {
        let star = |leaves: &str, per_leaf: &str| {
            ScenarioSpec::parse(&format!(
                "[topology]\nkind = \"star\"\nleaves = {leaves}\nhosts_per_leaf = {per_leaf}"
            ))
        };
        let e = star("100000000000", "1").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("leaves"), "{e}");
        // Too many hosts in all, and a product that overflows `usize`.
        for (leaves, per_leaf) in [("200", "300"), ("40000", "18446744073709551615")] {
            let e = star(leaves, per_leaf).unwrap_err();
            assert_eq!(e.line, 4, "{e}");
            assert!(e.msg.contains("unicast LIDs"), "{e}");
        }
        star("2", "3").unwrap();

        let chain = |hosts: &str| {
            ScenarioSpec::parse(&format!(
                "name = \"c\"\n[topology]\nkind = \"chain\"\nhosts_per_switch = {hosts}"
            ))
        };
        for hosts in [
            "[100000000000]",
            "[40000, 10000]",
            "[18446744073709551615, 1]",
        ] {
            let e = chain(hosts).unwrap_err();
            assert_eq!(e.line, 4, "{e}");
            assert!(e.msg.contains("unicast LIDs"), "{e}");
        }
        chain("[1, 2]").unwrap();
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e =
            ScenarioSpec::parse("name = \"x\"\nbogus_key = 3\n[topology]\nkind = \"direct_pair\"")
                .unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.msg.contains("bogus_key"), "{e}");

        let e = ScenarioSpec::parse("[topology]\nkind = \"ring\"").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.msg.contains("ring"), "{e}");

        let e = ScenarioSpec::parse("[topology]\nkind = \"single_switch\"\nhosts = \"two\"")
            .unwrap_err();
        assert_eq!(e.line, 3, "{e}");

        let e = ScenarioSpec::parse(
            "[topology]\nkind = \"single_switch\"\nhosts = 2\n\n[[role]]\nkind = \"sink\"",
        )
        .unwrap_err();
        assert_eq!(e.line, 5, "missing node reports the section header: {e}");

        let e = ScenarioSpec::parse("duration_ms = oops\n[topology]\nkind = \"direct_pair\"")
            .unwrap_err();
        assert_eq!(e.line, 1, "{e}");
    }

    #[test]
    fn missing_topology_is_an_error() {
        let e = ScenarioSpec::parse("name = \"x\"").unwrap_err();
        assert!(e.msg.contains("[topology]"), "{e}");
    }

    #[test]
    fn validate_rejects_bad_wiring() {
        let base = || ScenarioSpec::new("t", Topology::SingleSwitch { hosts: 2 });
        assert!(base().validate().is_err(), "no roles");
        let out_of_range = base().with_role(5, Role::Sink).validate().unwrap_err();
        assert!(out_of_range.contains("2 hosts"), "{out_of_range}");
        let self_target = base()
            .with_role(
                0,
                Role::Bsg {
                    target: 0,
                    payload: 4096,
                    window: 128,
                    batch: 1,
                    sl: SlSpec::Auto,
                },
            )
            .validate()
            .unwrap_err();
        assert!(self_target.contains("itself"), "{self_target}");
        let dup = base()
            .with_role(0, Role::Sink)
            .with_role(0, Role::Sink)
            .validate()
            .unwrap_err();
        assert!(dup.contains("more than one role"), "{dup}");
    }

    #[test]
    fn validate_rejects_topologies_the_builder_cannot_cable() {
        // Each parses, and each would panic in the fabric builder on the
        // profile's 12-port switches: too many ports on switch 0, a
        // disconnected graph, a self-trunk, more switches than any trunk
        // list could connect.
        for topology in [
            "single_switch\"\nhosts = 13",
            "two_switch\"\nupstream = 12\ndownstream = 1",
            "chain\"\nhosts_per_switch = [12, 1]",
            "star\"\nleaves = 13\nhosts_per_leaf = 1",
            "custom\"\nswitches = 3\nhost_attachments = [0, 2]\ntrunks = [[0, 1]]",
            "custom\"\nswitches = 2\nhost_attachments = [0]\ntrunks = [[1, 1]]",
            "custom\"\nswitches = 1000000000000000000\nhost_attachments = [0]",
        ] {
            let role = "[[role]]\nnode = 0\nkind = \"sink\"";
            let text = format!("[topology]\nkind = \"{topology}\n{role}");
            let spec = ScenarioSpec::parse(&text).unwrap();
            assert!(spec.validate().is_err(), "{text}");
        }
        // A count too large to add is too many hosts, not a wrapped sum.
        let two = Topology::TwoSwitch {
            upstream: usize::MAX,
            downstream: 2,
        };
        let msg = ScenarioSpec::new("t", two)
            .with_role(0, Role::Sink)
            .validate();
        assert!(msg.unwrap_err().contains("unicast LIDs"));
    }

    #[test]
    fn validate_rejects_windows_that_overflow_the_clock() {
        let text = "duration_ms = 1e30\n[topology]\nkind = \"direct_pair\"\n\
                    [[role]]\nnode = 0\nkind = \"sink\"";
        let spec = ScenarioSpec::parse(text).unwrap();
        let msg = spec.validate().unwrap_err();
        assert!(msg.contains("overflows the simulated clock"), "{msg}");
        // The largest window that fits is fine; one picosecond more is not.
        let max = SimDuration::from_ps(u64::MAX - spec.warmup.as_ps());
        spec.clone().with_duration(max).validate().unwrap();
        let over = spec.with_duration(max + SimDuration::from_ps(1));
        assert!(over.validate().is_err());
    }

    #[test]
    fn comments_and_units_parse() {
        let spec = ScenarioSpec::parse(
            "name = \"a # not a comment\" # a real comment\nwarmup_us = 50\nduration_us = 1500\n\
             [topology]\nkind = \"two_switch\"\nupstream = 1\ndownstream = 2",
        )
        .unwrap();
        assert_eq!(spec.name, "a # not a comment");
        assert_eq!(spec.warmup, SimDuration::from_us(50));
        assert_eq!(spec.duration, SimDuration::from_ps(1_500_000_000));
        assert_eq!(
            spec.topology,
            Topology::TwoSwitch {
                upstream: 1,
                downstream: 2
            }
        );
    }

    #[test]
    fn custom_topology_checks_references() {
        let e = ScenarioSpec::parse(
            "[topology]\nkind = \"custom\"\nswitches = 2\nhost_attachments = [0, 5]",
        )
        .unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        let e = ScenarioSpec::parse(
            "[topology]\nkind = \"custom\"\nswitches = 2\nhost_attachments = [0, 1]\n\
             trunks = [[0, 3]]",
        )
        .unwrap_err();
        assert_eq!(e.line, 5, "{e}");
    }
}
