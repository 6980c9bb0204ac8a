//! The generic scenario executor: one code path from a [`ScenarioSpec`]
//! to measurements.
//!
//! [`execute`] builds the fabric for the spec's topology via
//! [`FabricBuilder`], builds one application per role (`build_app`), runs
//! the simulation over the spec's window and collects a per-role
//! [`RoleReport`]. Every experiment in the suite — each paper figure, the
//! CLI subcommands, and arbitrary user-written scenario files — goes
//! through this function, so there is exactly one place that turns a
//! traffic matrix into applications.

use rperf_fabric::{FabricBuilder, Sim};
use rperf_model::ClusterConfig;
use rperf_sim::{RunOutcome, SimDuration, SimTime};
use rperf_stats::{json, LatencySummary};
use rperf_workloads::{Bsg, BsgConfig, ClosedLoopPing, LsgConfig, Sink};

use crate::perftest::{PerftestClient, PerftestConfig, PingPongServer};
use crate::qperf::{QperfClient, QperfConfig, QperfReport};
use crate::rperf_app::{RPerf, RPerfConfig, RPerfReport};
use crate::spec::{QosMode, Role, RoleSpec, ScenarioSpec};

/// What one role measured.
#[derive(Debug, Clone)]
pub enum RoleReport {
    /// An RPerf instance's switch-RTT distribution.
    RPerf(RPerfReport),
    /// An application-level RTT distribution (LSG ping or perftest).
    Latency(LatencySummary),
    /// What qperf reports (average only).
    Qperf(QperfReport),
    /// A BSG's goodput in Gbps over the measurement window.
    BsgGbps(f64),
    /// The pretend LSG's goodput in Gbps.
    PretendGbps(f64),
    /// Messages the sink delivered.
    Sink {
        /// Delivery count over the whole run.
        recvs: u64,
    },
    /// A passive server with nothing to report.
    Server,
}

impl RoleReport {
    fn kind_name(&self) -> &'static str {
        match self {
            RoleReport::RPerf(_) => "rperf",
            RoleReport::Latency(_) => "latency",
            RoleReport::Qperf(_) => "qperf",
            RoleReport::BsgGbps(_) => "bsg",
            RoleReport::PretendGbps(_) => "pretend_lsg",
            RoleReport::Sink { .. } => "sink",
            RoleReport::Server => "server",
        }
    }
}

/// Everything one scenario run measured, in role-table order.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The spec's name.
    pub name: String,
    /// The experiment seed the run used.
    pub seed: u64,
    /// When the run stopped (warm-up + measurement window).
    pub end: SimTime,
    /// One report per role, keyed by node, in spec order.
    pub reports: Vec<(usize, RoleReport)>,
}

impl ScenarioOutcome {
    fn report_of(&self, node: usize) -> Option<&RoleReport> {
        self.reports
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, r)| r)
    }

    /// The RPerf report of the instance on `node`, if one ran there.
    pub fn rperf(&self, node: usize) -> Option<&RPerfReport> {
        match self.report_of(node) {
            Some(RoleReport::RPerf(r)) => Some(r),
            _ => None,
        }
    }

    /// The RTT summary measured on `node` (LSG ping or perftest client).
    pub fn latency(&self, node: usize) -> Option<&LatencySummary> {
        match self.report_of(node) {
            Some(RoleReport::Latency(s)) => Some(s),
            _ => None,
        }
    }

    /// The qperf report of the client on `node`.
    pub fn qperf(&self, node: usize) -> Option<&QperfReport> {
        match self.report_of(node) {
            Some(RoleReport::Qperf(r)) => Some(r),
            _ => None,
        }
    }

    /// The goodput of the generator (BSG or pretend LSG) on `node`.
    pub fn gbps(&self, node: usize) -> Option<f64> {
        match self.report_of(node) {
            Some(RoleReport::BsgGbps(g)) | Some(RoleReport::PretendGbps(g)) => Some(*g),
            _ => None,
        }
    }

    /// Messages delivered to the sink on `node`.
    pub fn recvs(&self, node: usize) -> Option<u64> {
        match self.report_of(node) {
            Some(RoleReport::Sink { recvs }) => Some(*recvs),
            _ => None,
        }
    }

    /// Serializes the outcome through the deterministic JSON writer: the
    /// bytes are a pure function of the measurements.
    pub fn to_json(&self) -> String {
        let summary_json = |s: &LatencySummary| {
            json::object([
                ("count", json::uint(s.count)),
                ("min_ps", json::uint(s.min_ps)),
                ("mean_ps", json::num(s.mean_ps)),
                ("p50_ps", json::uint(s.p50_ps)),
                ("p90_ps", json::uint(s.p90_ps)),
                ("p99_ps", json::uint(s.p99_ps)),
                ("p999_ps", json::uint(s.p999_ps)),
                ("max_ps", json::uint(s.max_ps)),
            ])
        };
        let reports = self.reports.iter().map(|(node, r)| {
            let mut fields = vec![
                ("node", json::uint(*node as u64)),
                ("kind", json::string(r.kind_name())),
            ];
            match r {
                RoleReport::RPerf(rep) => {
                    fields.push(("rtt_ps", summary_json(&rep.summary)));
                    fields.push(("iterations", json::uint(rep.iterations)));
                    fields.push(("inversions", json::uint(rep.inversions)));
                }
                RoleReport::Latency(s) => fields.push(("rtt_ps", summary_json(s))),
                RoleReport::Qperf(rep) => {
                    fields.push(("avg_us", json::num(rep.avg_us)));
                    fields.push(("iterations", json::uint(rep.iterations)));
                }
                RoleReport::BsgGbps(g) | RoleReport::PretendGbps(g) => {
                    fields.push(("gbps", json::num(*g)));
                }
                RoleReport::Sink { recvs } => fields.push(("recvs", json::uint(*recvs))),
                RoleReport::Server => {}
            }
            json::object(fields)
        });
        json::object([
            ("scenario", json::string(&self.name)),
            ("seed", json::uint(self.seed)),
            ("end_ps", json::uint(self.end.as_ps())),
            ("reports", json::array(reports)),
        ])
    }
}

/// Builds the application for one role.
fn build_app(spec: &ScenarioSpec, r: &RoleSpec, seed: u64) -> Box<dyn rperf_fabric::App> {
    let sl = r.role.resolved_sl(spec.qos);
    match &r.role {
        Role::RPerf {
            target,
            payload,
            seed_salt,
            ..
        } => Box::new(RPerf::new(
            RPerfConfig::new(*target)
                .with_payload(*payload)
                .with_sl(sl)
                .with_warmup(spec.warmup)
                .with_seed(seed ^ *seed_salt),
        )),
        Role::Lsg {
            target, payload, ..
        } => Box::new(ClosedLoopPing::new(
            LsgConfig::new(*target)
                .with_payload(*payload)
                .with_sl(sl)
                .with_warmup(spec.warmup),
        )),
        Role::Bsg {
            target,
            payload,
            window,
            batch,
            ..
        } => Box::new(Bsg::new(
            BsgConfig::new(*target, *payload)
                .with_window(*window)
                .with_batch(*batch)
                .with_sl(sl)
                .with_warmup(spec.warmup),
        )),
        // The QoS-gaming adversary: `chunk`-byte messages on the latency
        // SL, posted in batches of 32 with a 512-message window.
        Role::PretendLsg { target, chunk, .. } => Box::new(Bsg::new(
            BsgConfig::new(*target, *chunk)
                .with_window(512)
                .with_batch(32)
                .with_sl(sl)
                .with_warmup(spec.warmup),
        )),
        Role::Perftest { peer, payload } => Box::new(PerftestClient::new(
            PerftestConfig::new(*peer)
                .with_payload(*payload)
                .with_warmup(spec.warmup),
        )),
        Role::PerftestServer { peer, payload } => Box::new(PingPongServer::new(
            PerftestConfig::new(*peer)
                .with_payload(*payload)
                .with_warmup(spec.warmup),
        )),
        Role::Qperf { peer, payload } => Box::new(QperfClient::new(
            QperfConfig::new(*peer)
                .with_payload(*payload)
                .with_warmup(spec.warmup),
        )),
        Role::Sink => Box::new(Sink::new()),
    }
}

/// Reads the report of one role back out of the finished simulation.
fn collect(sim: &Sim, r: &RoleSpec, end: SimTime) -> RoleReport {
    match &r.role {
        Role::RPerf { .. } => RoleReport::RPerf(sim.app_as::<RPerf>(r.node).report()),
        Role::Lsg { .. } => RoleReport::Latency(LatencySummary::from_histogram(
            sim.app_as::<ClosedLoopPing>(r.node).histogram(),
        )),
        Role::Bsg { .. } => RoleReport::BsgGbps(sim.app_as::<Bsg>(r.node).gbps_until(end.as_ps())),
        Role::PretendLsg { .. } => {
            RoleReport::PretendGbps(sim.app_as::<Bsg>(r.node).gbps_until(end.as_ps()))
        }
        Role::Perftest { .. } => {
            RoleReport::Latency(sim.app_as::<PerftestClient>(r.node).summary())
        }
        Role::PerftestServer { .. } => RoleReport::Server,
        Role::Qperf { .. } => RoleReport::Qperf(sim.app_as::<QperfClient>(r.node).report()),
        Role::Sink => RoleReport::Sink {
            recvs: sim.app_as::<Sink>(r.node).recvs(),
        },
    }
}

/// Hard caps on one scenario execution, for callers that cannot afford an
/// unbounded run (the serving layer enforces per-request deadlines).
///
/// `max_events` bounds simulated work; `cancelled` is polled every
/// `check_every` events and may consult any external signal — wall-clock
/// deadlines, shutdown flags — without that signal leaking into the
/// deterministic engine. An execution that is never interrupted produces a
/// [`ScenarioOutcome`] bit-identical to [`execute`]'s.
pub struct ExecBudget<'a> {
    /// Maximum simulated events to process (`u64::MAX` = unbounded).
    pub max_events: u64,
    /// How many events to process between cancellation checks.
    pub check_every: u64,
    /// Cooperative cancellation hook; `true` aborts the run.
    pub cancelled: Option<&'a mut dyn FnMut() -> bool>,
}

impl std::fmt::Debug for ExecBudget<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecBudget")
            .field("max_events", &self.max_events)
            .field("check_every", &self.check_every)
            .field("cancelled", &self.cancelled.is_some())
            .finish()
    }
}

impl ExecBudget<'_> {
    /// A budget that never interrupts (what [`execute`] runs under).
    pub fn unbounded() -> Self {
        ExecBudget {
            max_events: u64::MAX,
            check_every: 8192,
            cancelled: None,
        }
    }

    /// Caps simulated work at `max_events`.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }
}

/// Why a budgeted execution stopped before the scenario's time horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecInterrupt {
    /// The simulated-event budget ran out.
    EventBudget {
        /// Events processed before the budget ran out.
        events: u64,
    },
    /// The cancellation hook fired (deadline, shutdown, ...).
    Cancelled {
        /// Events processed before cancellation.
        events: u64,
    },
}

impl std::fmt::Display for ExecInterrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecInterrupt::EventBudget { events } => {
                write!(f, "event budget exhausted after {events} events")
            }
            ExecInterrupt::Cancelled { events } => {
                write!(f, "cancelled after {events} events")
            }
        }
    }
}

/// Runs a scenario with the configuration derived from its device
/// profile and scheduling policy.
///
/// # Panics
///
/// Panics if the spec fails [`ScenarioSpec::validate`] — callers taking
/// untrusted input (the CLI) validate first and report the error.
pub fn execute(spec: &ScenarioSpec, seed: u64) -> ScenarioOutcome {
    execute_with_config(spec, profile_config(spec), seed)
}

/// Runs a scenario under an [`ExecBudget`]; the profile/policy handling
/// matches [`execute`].
///
/// Returns `Err` if the budget interrupted the run (the partial simulation
/// is discarded — determinism means a retry under a larger budget
/// reproduces the prefix exactly, so there is nothing worth salvaging).
///
/// # Panics
///
/// Panics if the spec fails [`ScenarioSpec::validate`].
pub fn execute_budgeted(
    spec: &ScenarioSpec,
    seed: u64,
    budget: ExecBudget<'_>,
) -> Result<ScenarioOutcome, ExecInterrupt> {
    execute_budgeted_with_config(spec, profile_config(spec), seed, budget)
}

/// The configuration a spec's device profile and policy select.
fn profile_config(spec: &ScenarioSpec) -> ClusterConfig {
    spec.profile.cluster_config().with_policy(spec.policy)
}

/// Runs a scenario against an explicit cluster configuration (the
/// ablations mutate device parameters directly; the spec's `profile` and
/// `policy` fields are ignored here).
///
/// The QoS mode still applies: a non-shared mode installs the dedicated
/// SL1→VL1 tables on top of `cfg`, and every pretend-LSG node gets the
/// adversary's hot posting engine (65 ns WQE engine) as an RNIC override.
///
/// # Panics
///
/// Panics if the spec fails [`ScenarioSpec::validate`].
pub fn execute_with_config(spec: &ScenarioSpec, cfg: ClusterConfig, seed: u64) -> ScenarioOutcome {
    match execute_budgeted_with_config(spec, cfg, seed, ExecBudget::unbounded()) {
        Ok(out) => out,
        Err(i) => unreachable!("unbounded budget interrupted: {i}"),
    }
}

/// Runs a scenario against an explicit cluster configuration under an
/// [`ExecBudget`]: the one body behind [`execute`], [`execute_budgeted`]
/// and [`execute_with_config`].
///
/// # Panics
///
/// Panics if the spec fails [`ScenarioSpec::validate`].
fn execute_budgeted_with_config(
    spec: &ScenarioSpec,
    cfg: ClusterConfig,
    seed: u64,
    budget: ExecBudget<'_>,
) -> Result<ScenarioOutcome, ExecInterrupt> {
    if let Err(msg) = spec.validate() {
        panic!("invalid scenario `{}`: {msg}", spec.name);
    }
    let mut cfg = cfg;
    if spec.qos != QosMode::SharedSl {
        cfg = cfg.with_dedicated_sl();
    }
    let mut builder = FabricBuilder::new(cfg.clone(), seed);
    for r in &spec.roles {
        if matches!(r.role, Role::PretendLsg { .. }) {
            // The adversary optimizes its posting path (multiple QPs plus
            // aggressive doorbell batching); modelled as a faster WQE
            // engine.
            let mut hot = cfg.rnic.clone();
            hot.wqe_engine = SimDuration::from_ns(65);
            builder = builder.with_rnic_override(r.node, hot);
        }
    }
    let mut sim = Sim::new(builder.build(&spec.topology));
    for r in &spec.roles {
        sim.add_app(r.node, build_app(spec, r, seed));
    }
    sim.start();
    let end = SimTime::ZERO + spec.warmup + spec.duration;
    let mut never = || false;
    let cancelled = budget.cancelled.unwrap_or(&mut never);
    let outcome = sim.run_until_budgeted(end, budget.max_events, budget.check_every, cancelled);
    match outcome {
        RunOutcome::HorizonReached | RunOutcome::QueueDrained => {}
        RunOutcome::BudgetExhausted => {
            return Err(ExecInterrupt::EventBudget {
                events: sim.events_processed(),
            })
        }
        RunOutcome::Cancelled => {
            return Err(ExecInterrupt::Cancelled {
                events: sim.events_processed(),
            })
        }
    }
    let reports = spec
        .roles
        .iter()
        .map(|r| (r.node, collect(&sim, r, end)))
        .collect();
    Ok(ScenarioOutcome {
        name: spec.name.clone(),
        seed,
        end,
        reports,
    })
}

/// Renders every switch's programmed forwarding table as deterministic
/// text — ascending switch index, ascending LID within each switch.
///
/// Builds the same fabric [`execute`] would (profile, policy and QoS
/// applied) but attaches no applications and runs nothing, so a spec
/// needs only a topology: roles are irrelevant to routing and are not
/// validated here. The output is stable across runs and `--jobs` —
/// routing is computed by the deterministic subnet planner, never
/// discovered at run time.
pub fn dump_routes(spec: &ScenarioSpec, seed: u64) -> String {
    let mut cfg = profile_config(spec);
    if spec.qos != QosMode::SharedSl {
        cfg = cfg.with_dedicated_sl();
    }
    let fabric = FabricBuilder::new(cfg, seed).build(&spec.topology);
    let mut text = format!(
        "scenario {}  hosts={}  switches={}",
        spec.name,
        fabric.nodes(),
        fabric.switches_len(),
    );
    if fabric.switches_len() == 0 {
        text.push_str("\n(no switches: the hosts are cabled back-to-back)");
        return text;
    }
    for idx in 0..fabric.switches_len() {
        let fwd = fabric.switch(idx).forwarding();
        text.push_str(&format!("\nswitch {idx}  entries={}", fwd.len()));
        for (lid, port) in fwd.entries() {
            text.push_str(&format!("\n  {lid} -> {port}"));
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DeviceProfile, SlSpec};
    use rperf_fabric::Topology;

    fn probe_spec() -> ScenarioSpec {
        ScenarioSpec::new("probe", Topology::SingleSwitch { hosts: 2 })
            .with_profile(DeviceProfile::Hardware)
            .with_window(SimDuration::from_us(50), SimDuration::from_us(500))
            .with_role(
                0,
                Role::RPerf {
                    target: 1,
                    payload: 64,
                    sl: SlSpec::Auto,
                    seed_salt: 0xA5A5,
                },
            )
            .with_role(1, Role::Sink)
    }

    #[test]
    fn executes_a_probe_scenario() {
        let out = execute(&probe_spec(), 1);
        let rep = out.rperf(0).expect("rperf report on node 0");
        assert!(rep.iterations > 50, "iterations {}", rep.iterations);
        assert!(out.recvs(1).expect("sink report") > 0);
        assert_eq!(out.end, SimTime::ZERO + SimDuration::from_us(550));
    }

    #[test]
    fn outcome_serializes_deterministically() {
        let a = execute(&probe_spec(), 7).to_json();
        let b = execute(&probe_spec(), 7).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"scenario\":\"probe\""), "{a}");
        assert!(a.contains("\"kind\":\"rperf\""), "{a}");
        assert!(a.contains("\"kind\":\"sink\""), "{a}");
    }

    #[test]
    fn budgeted_run_matches_unbudgeted_byte_for_byte() {
        let plain = execute(&probe_spec(), 5).to_json();
        let budgeted = execute_budgeted(&probe_spec(), 5, ExecBudget::unbounded())
            .expect("unbounded budget never interrupts")
            .to_json();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn event_budget_interrupts_long_runs() {
        let err = execute_budgeted(
            &probe_spec(),
            5,
            ExecBudget::unbounded().with_max_events(1000),
        )
        .expect_err("1000 events cannot finish a 550 us scenario");
        match err {
            // One shard: the budget is exact.
            ExecInterrupt::EventBudget { events } => assert_eq!(events, 1000),
            other => panic!("expected EventBudget, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_hook_interrupts_runs() {
        let mut polls = 0u64;
        let mut hook = || {
            polls += 1;
            polls > 2
        };
        let budget = ExecBudget {
            max_events: u64::MAX,
            check_every: 64,
            cancelled: Some(&mut hook),
        };
        let err = execute_budgeted(&probe_spec(), 5, budget).expect_err("hook fires");
        match err {
            // Polled before each chunk of 64: two chunks ran.
            ExecInterrupt::Cancelled { events } => assert_eq!(events, 128),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(polls, 3);
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn invalid_specs_are_rejected() {
        let bad = ScenarioSpec::new("bad", Topology::DirectPair).with_role(9, Role::Sink);
        let _ = execute(&bad, 1);
    }

    #[test]
    fn dump_routes_lists_every_switch_in_order() {
        use rperf_subnet::FatTreeParams;
        // k=4 three-tier Clos: 16 hosts, 20 switches, roles not required.
        let ft = FatTreeParams::new(4, 3, 1);
        let spec = ScenarioSpec::new("clos", Topology::FatTree(ft));
        let text = dump_routes(&spec, 1);
        assert!(
            text.starts_with("scenario clos  hosts=16  switches=20"),
            "{text}"
        );
        // Every switch appears once, in ascending order, with a full table.
        for idx in 0..20 {
            assert!(
                text.contains(&format!("\nswitch {idx}  entries=16")),
                "{text}"
            );
        }
        // Entries are ascending LIDs mapped to planner ports.
        let edge0 = text
            .split("switch 0  entries=16")
            .nth(1)
            .unwrap()
            .split("switch 1")
            .next()
            .unwrap();
        assert!(edge0.contains("lid1 -> port0"), "{edge0}");
        assert!(edge0.contains("lid2 -> port1"), "{edge0}");
        // The dump is deterministic.
        assert_eq!(text, dump_routes(&spec, 1));

        // Switchless topologies say so instead of printing nothing.
        let pair = ScenarioSpec::new("pair", Topology::DirectPair);
        let text = dump_routes(&pair, 1);
        assert!(text.contains("no switches"), "{text}");
    }
}
