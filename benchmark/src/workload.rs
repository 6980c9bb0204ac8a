//! The four workloads and the jobs each one runs.
//!
//! Every job is a scenario as a user submits it — canonical spec text
//! plus a seed — so each pass starts from text and ends at outcome JSON.
//! Seeds come from the workload seed; simulated windows are fixed here
//! (scaled only by [`crate::RunConfig::scale`], which the tests shrink).
//! Each job also names the published points ([`rperf_bench::paper`]) its
//! outcome is compared against for `model_err`.

use rperf::scenario::specs;
use rperf::{DeviceProfile, QosMode, ScenarioSpec};
use rperf_bench::paper;
use rperf_model::config::SchedPolicy;
use rperf_sim::SimDuration;

use crate::measure::digest;

/// The workload seed of the jobs `model_err` is computed from. Fixing it
/// makes the metric exact: every run of one commit reports the same
/// value, whatever its `--seed`, so any change in it is a change in the
/// simulated results.
pub const PAPER_SEED: u64 = 0;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One BSG alone on its wire: Fig. 5's payloads and Fig. 7's 1-BSG
    /// point. RNIC wake chains are almost all of its events, and their
    /// cost grows faster than simulated time.
    WireLimited,
    /// The paper's contention result: 2–5 BSGs against an RPerf LSG
    /// (Figs. 7, 8, 10, 11, 12). Credit-blocked senders wake rarely, so
    /// switch arbitration, VL and credit handlers do the work.
    Converged,
    /// Fat-tree incasts with short windows: fabric build, route planning
    /// and shard barriers dominate; simulation is small.
    ClosScale,
    /// An in-process `rperf-serve` under closed-loop clients, alternating
    /// cold requests and exact repeats answered from the cache.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::WireLimited,
        Workload::Converged,
        Workload::ClosScale,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireLimited => "wire_limited",
            Workload::Converged => "converged",
            Workload::ClosScale => "clos_scale",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The jobs `model_err` is computed from: the jobs that carry
    /// published points, generated from [`PAPER_SEED`] whatever the run's
    /// seed, one per label (each served kind once, not once per request).
    pub fn paper_items(self, scale: f64) -> Vec<Item> {
        let mut items: Vec<Item> = Vec::new();
        for it in self.items(PAPER_SEED, scale) {
            if !it.refs.is_empty() && !items.iter().any(|p| p.label == it.label) {
                items.push(it);
            }
        }
        items
    }

    /// The jobs of one pass: scenario items, or for `serve_mixed` the
    /// cold requests (each followed by its warm repeat). Each runs on one
    /// shard.
    pub fn items(self, seed: u64, scale: f64) -> Vec<Item> {
        let mut jobs = self.jobs(seed, scale);
        jobs.retain(|it| it.shards == 1);
        jobs
    }

    /// Timed jobs re-run on more shards, each of which must reproduce the
    /// outcome of its [`Item::twin`] byte for byte. They run once, untimed,
    /// after the measured passes: a sharded job's time is mostly barrier
    /// waits between its shard threads, and even its fastest run swung
    /// eightfold between runs with how the host scheduled the two vCPUs.
    pub fn shard_twins(self, seed: u64, scale: f64) -> Vec<Item> {
        let mut jobs = self.jobs(seed, scale);
        jobs.retain(|it| it.shards > 1);
        jobs
    }

    /// Every job, sharded ones last.
    fn jobs(self, seed: u64, scale: f64) -> Vec<Item> {
        let window = |warmup_us: u64, duration_us: u64| Window {
            warmup_us,
            duration_us,
            scale,
        };
        match self {
            Workload::WireLimited => wire_limited(seed, window(50, 100), window(50, 250)),
            Workload::Converged => converged(seed, &window),
            Workload::ClosScale => clos_scale(seed, window(200, 2_000), window(50, 250)),
            Workload::ServeMixed => serve_mixed(seed, window(100, 500), scale),
        }
    }
}

/// A value read off an outcome to compare with a published one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// The RPerf probe's median RTT, µs.
    RperfP50Us,
    /// Summed goodput of every BSG and pretend LSG, Gbps.
    TotalGbps,
    /// The qperf client's average RTT, µs.
    QperfAvgUs,
}

/// A published point an outcome is compared against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRef {
    /// What to read off the outcome.
    pub measure: Measure,
    /// The paper's value, in the measure's unit.
    pub paper: f64,
}

/// One job: a scenario as text, its seed, and what its outcome must
/// satisfy.
#[derive(Debug, Clone)]
pub struct Item {
    /// A short description for messages.
    pub label: String,
    /// Canonical spec text ([`ScenarioSpec::to_text`]).
    pub text: String,
    /// The execution seed.
    pub seed: u64,
    /// Worker domains the spec asks for.
    pub shards: usize,
    /// Published points for `model_err`.
    pub refs: Vec<PaperRef>,
    /// `(series, BSG count)` of an FCFS latency series whose LSG median
    /// must not fall as BSGs are added.
    pub fcfs: Option<(&'static str, usize)>,
    /// The timed job, by its index in [`Workload::items`], whose outcome
    /// this one must reproduce exactly (the same scenario on more shards).
    pub twin: Option<usize>,
}

/// A warm-up and measurement window, scaled.
#[derive(Debug, Clone, Copy)]
struct Window {
    warmup_us: u64,
    duration_us: u64,
    scale: f64,
}

impl Window {
    fn apply(self, spec: ScenarioSpec) -> ScenarioSpec {
        let scaled = |us: u64| SimDuration::from_ps(((us * 1_000_000) as f64 * self.scale) as u64);
        spec.with_window(
            scaled(self.warmup_us),
            scaled(self.duration_us).max(SimDuration::from_us(1)),
        )
    }
}

/// A seed for the job keyed `key` (shared by an item and its twin).
fn item_seed(seed: u64, key: &str) -> u64 {
    // SplitMix64 finalizer over the workload seed and the key's digest.
    let mut z = seed ^ digest([key.as_bytes()]);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn item(seed: u64, key: &str, spec: ScenarioSpec, window: Window) -> Item {
    let spec = window.apply(spec);
    Item {
        label: key.to_string(),
        text: spec.to_text(),
        seed: item_seed(seed, key),
        shards: spec.shards,
        refs: Vec::new(),
        fcfs: None,
        twin: None,
    }
}

impl Item {
    fn paper(mut self, measure: Measure, paper: f64) -> Self {
        self.refs.push(PaperRef { measure, paper });
        self
    }
}

/// The p50 column of a published latency table at `x`.
fn p50_at(table: &[paper::LatPoint], x: f64) -> f64 {
    table
        .iter()
        .find(|p| p.0 == x)
        .map(|p| p.1)
        .expect("the paper table has this point")
}

/// The p50 column of a published per-setup latency table.
fn p50_named(table: &[(&str, f64, f64)], name: &str) -> f64 {
    table
        .iter()
        .find(|p| p.0 == name)
        .map(|p| p.1)
        .expect("the paper table has this setup")
}

/// The value column of a published two-column table at `x`.
fn value_at(table: &[(f64, f64)], x: f64) -> f64 {
    table
        .iter()
        .find(|p| p.0 == x)
        .map(|p| p.1)
        .expect("the paper table has this point")
}

/// Fig. 5's payloads, each through the switch and direct, and Fig. 7's
/// 1-BSG point.
fn wire_limited(seed: u64, fig5: Window, fig7: Window) -> Vec<Item> {
    let mut items = Vec::new();
    for payload in [1024u64, 4096, 64] {
        let row = paper::FIG5_GBPS
            .iter()
            .find(|r| r.0 == payload as f64)
            .expect("Fig. 5 covers this payload");
        for (through, published) in [(true, row.2), (false, row.1)] {
            let key = format!("fig5 {payload} B, switch {through}");
            let spec = specs::one_to_one_bandwidth(through, payload);
            items.push(item(seed, &key, spec, fig5).paper(Measure::TotalGbps, published));
        }
        if payload == 1024 {
            let spec = specs::converged(1, 4096, 1, true, QosMode::SharedSl);
            items.push(
                item(seed, "fig7 1 BSG", spec, fig7)
                    .paper(Measure::RperfP50Us, p50_at(paper::FIG7A_US, 1.0))
                    .paper(Measure::TotalGbps, value_at(paper::FIG7B_GBPS, 1.0)),
            );
        }
    }
    items
}

fn converged(seed: u64, window: &dyn Fn(u64, u64) -> Window) -> Vec<Item> {
    // A sixteenth of the paper figures' own measurement windows, and
    // shorter ones for the two setups whose senders wake most: every job
    // takes well under a tenth of a second (see `Run::best_ms`).
    let fig7_10_11 = window(100, 2_500);
    let fig12 = window(50, 1_000);
    let fig8 = window(50, 500);
    let mut items = vec![
        item(
            seed,
            "fig8 5 BSGs of 64 B, batch 16",
            specs::converged(5, 64, 16, true, QosMode::SharedSl),
            fig8,
        )
        .paper(Measure::RperfP50Us, p50_at(paper::FIG8_US, 64.0))
        .paper(Measure::TotalGbps, value_at(paper::FIG9_GBPS, 64.0)),
        item(
            seed,
            "fig12 dedicated SL + pretend LSG",
            specs::converged(4, 4096, 1, true, QosMode::DedicatedSlWithPretend),
            fig12,
        )
        .paper(
            Measure::RperfP50Us,
            p50_named(paper::FIG12_US, "Dedicated SL + Pretend LSG"),
        ),
        item(
            seed,
            "fig12 dedicated SL",
            specs::converged(5, 4096, 1, true, QosMode::DedicatedSl),
            fig12,
        )
        .paper(
            Measure::RperfP50Us,
            p50_named(paper::FIG12_US, "Dedicated SL"),
        ),
    ];
    for (name, policy) in [("FCFS", SchedPolicy::Fcfs), ("RR", SchedPolicy::RoundRobin)] {
        let spec = specs::multihop(policy).with_profile(DeviceProfile::OmnetSimulator);
        items.push(
            item(seed, &format!("fig11 {name}"), spec, fig7_10_11)
                .paper(Measure::RperfP50Us, p50_named(paper::FIG11_US, name)),
        );
    }
    for n in 2..=5usize {
        let x = n as f64;
        let spec = specs::converged(n, 4096, 1, true, QosMode::SharedSl);
        let mut fig7 = item(seed, &format!("fig7 {n} BSGs"), spec.clone(), fig7_10_11)
            .paper(Measure::RperfP50Us, p50_at(paper::FIG7A_US, x));
        if let Some(&(_, total)) = paper::FIG7B_GBPS.iter().find(|p| p.0 == x) {
            fig7 = fig7.paper(Measure::TotalGbps, total);
        }
        fig7.fcfs = Some(("fig7", n));
        items.push(fig7);
        for (name, policy, table) in [
            ("FCFS", SchedPolicy::Fcfs, paper::FIG10_FCFS_US),
            ("RR", SchedPolicy::RoundRobin, paper::FIG10_RR_US),
        ] {
            let spec = spec
                .clone()
                .with_profile(DeviceProfile::OmnetSimulator)
                .with_policy(policy);
            let mut fig10 = item(seed, &format!("fig10 {name} {n} BSGs"), spec, fig7_10_11);
            if table.iter().any(|p| p.0 == x) {
                fig10 = fig10.paper(Measure::RperfP50Us, p50_at(table, x));
            }
            if policy == SchedPolicy::Fcfs {
                fig10.fcfs = Some(("fig10 FCFS", n));
            }
            items.push(fig10);
        }
    }
    items
}

/// The k=8 job, whose 2-shard twin comes last, gets the shorter `k8`
/// window: the twin polls one lookahead window per few events.
fn clos_scale(seed: u64, window: Window, k8_window: Window) -> Vec<Item> {
    let k8 = || specs::fattree_incast(8, 2, 2, 8);
    let mut items = vec![
        item(seed, "k=8 leaf-spine, 8 BSGs", k8(), k8_window),
        item(
            seed,
            "k=16 3-tier, 8 BSGs",
            specs::fattree_incast(16, 3, 1, 8),
            window,
        ),
    ];
    for hops in [1u32, 5] {
        let key = format!("fig_clos victim, {hops} hops, 4 BSGs");
        items.push(item(seed, &key, specs::clos_victim(hops, 4), window));
    }
    items.push(item(
        seed,
        "fig_clos victim, 5 hops, 0 BSGs",
        specs::clos_victim(5, 0),
        window,
    ));
    // One switch at zero load is Fig. 4's 64 B probe: the one published
    // point this workload covers. Its median moves by one histogram
    // bucket from seed to seed, so eight seeds share `model_err`.
    let ns = p50_at(paper::FIG4_WITH_SWITCH_NS, 64.0);
    for run in 1..=8 {
        let key = format!("fig_clos victim, 1 hop, 0 BSGs, run {run}");
        let victim = item(seed, &key, specs::clos_victim(1, 0), window);
        items.push(victim.paper(Measure::RperfP50Us, ns / 1e3));
    }
    let mut twin = item(
        seed,
        "k=8 leaf-spine, 8 BSGs",
        k8().with_shards(2),
        k8_window,
    );
    twin.twin = Some(0);
    items.push(twin);
    items
}

/// Cold requests per pass before scaling; each is followed by its warm
/// repeat. One client sends a pass in about half a second, so a run
/// measures about 30 passes and sends each class about 3000 times. Each
/// request's fastest of its 30 tries waits little on the acceptor's 2 ms
/// sleep-poll; with ten tries, that wait alone moved the slowest requests,
/// and so `cold_p99_ms`, by a fifth from run to run.
pub const SERVE_REQUESTS: usize = 100;

fn serve_mixed(seed: u64, window: Window, scale: f64) -> Vec<Item> {
    let kinds = [
        item(
            0,
            "one-to-one RPerf",
            specs::one_to_one_rperf(true, 64),
            window,
        )
        .paper(
            Measure::RperfP50Us,
            p50_at(paper::FIG4_WITH_SWITCH_NS, 64.0) / 1e3,
        ),
        item(0, "one-to-one QPerf", specs::one_to_one_qperf(64), window)
            .paper(Measure::QperfAvgUs, value_at(paper::FIG6_QPERF_US, 64.0)),
        item(
            0,
            "3 BSGs converged",
            specs::converged(3, 4096, 1, true, QosMode::SharedSl),
            window,
        )
        .paper(Measure::RperfP50Us, p50_at(paper::FIG7A_US, 3.0)),
    ];
    let requests = ((SERVE_REQUESTS as f64 * scale).round() as usize).max(kinds.len());
    (0..requests)
        .map(|i| {
            let mut request = kinds[i % kinds.len()].clone();
            // A fresh seed per request makes every first submission a
            // cache miss.
            request.seed = item_seed(seed, &format!("request {i}"));
            request
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_are_valid_specs_and_seeded_by_the_workload_seed() {
        for w in Workload::ALL {
            let items = w.items(7, 1.0);
            assert!(!items.is_empty());
            for it in &items {
                let spec = ScenarioSpec::parse(&it.text).expect("canonical text parses");
                spec.validate().expect("items are valid");
                assert_eq!(spec.shards, it.shards);
            }
            let again = w.items(7, 1.0);
            let other = w.items(8, 1.0);
            assert!(items.iter().zip(&again).all(|(a, b)| a.seed == b.seed));
            assert!(items.iter().zip(&other).all(|(a, b)| a.seed != b.seed));
        }
    }

    #[test]
    fn twins_share_a_seed_and_every_workload_has_published_points() {
        let clos = Workload::ClosScale.items(1, 1.0);
        let twins = Workload::ClosScale.shard_twins(1, 1.0);
        assert_eq!(twins.len(), 1);
        let twin = &twins[0];
        let timed = &clos[twin.twin.unwrap()];
        assert_eq!((twin.seed, twin.shards, timed.shards), (timed.seed, 2, 1));
        let spec = ScenarioSpec::parse(&twin.text).unwrap();
        assert_eq!(spec.with_shards(1).to_text(), timed.text);
        for w in Workload::ALL {
            assert!(w.items(1, 1.0).iter().all(|it| it.shards == 1));
            assert!(w.items(1, 1.0).iter().any(|it| !it.refs.is_empty()));
        }
    }

    #[test]
    fn paper_items_ignore_the_run_seed_and_list_each_job_once() {
        let serve = Workload::ServeMixed.paper_items(1.0);
        let labels: Vec<&str> = serve.iter().map(|it| it.label.as_str()).collect();
        assert_eq!(
            labels,
            ["one-to-one RPerf", "one-to-one QPerf", "3 BSGs converged"]
        );
        for w in Workload::ALL {
            let paper = w.paper_items(1.0);
            assert!(paper.iter().all(|it| !it.refs.is_empty()));
            let at_paper_seed = w.items(PAPER_SEED, 1.0);
            for it in &paper {
                assert!(at_paper_seed
                    .iter()
                    .any(|j| j.label == it.label && j.seed == it.seed && j.text == it.text));
            }
        }
        assert_eq!(Workload::ClosScale.paper_items(1.0).len(), 8);
    }
}
