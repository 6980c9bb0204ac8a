//! Every paper figure as **data**: one table of sweeps ([`Sweep::all`])
//! and one function that runs any of them ([`Sweep::run`]).
//!
//! A sweep is a list of `(x, spec)` points — scenario tables from
//! [`rperf::scenario::specs`] — and the figures their runs fill. Each
//! series names the points it plots, the outcome [`Value`] it reads from
//! every run, and the paper's published points it is checked against
//! ([`crate::paper`]). [`Sweep::run`] executes every `(point, seed)` pair
//! through [`sweep_over_seeds`] and averages each series' value over the
//! seeds in seed order, so the figures are bit-identical for any worker
//! count. All execution goes through the one generic [`execute`] path;
//! nothing here hand-builds a fabric.
//!
//! Adding a figure is adding one entry to [`Sweep::all`]: a timing id (a
//! new row of BENCH_report.json, so re-bless BENCH_baseline.json), a base
//! window, the points, and each figure with its series and checks.

use std::ops::Range;

use rperf::scenario::{converged_outcome, specs};
use rperf::{execute, DeviceProfile, QosMode, ScenarioOutcome, ScenarioSpec};
use rperf_fabric::IdleWakes;
use rperf_model::config::SchedPolicy;
use rperf_stats::{Figure, Series};

use crate::{mean, paper, sweep_over_seeds, Effort};

/// The payload sweep used throughout the paper: 64 B – 4096 B.
pub const PAYLOADS: [u64; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// The four QoS setups of Fig. 12 (x = the setup's index).
pub const FIG12_SETUPS: [&str; 4] = [
    "No BSGs",
    "Shared SL",
    "Dedicated SL",
    "Dedicated SL + Pretend LSG",
];

/// The hop depths `fig_clos` probes: same edge switch, same pod, and
/// cross-pod in a 3-tier `k = 4` fat-tree.
pub const CLOS_HOPS: [u32; 3] = [1, 3, 5];

/// What a series plots: one number read from each run's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Median RTT of the RPerf instance on node 0, ns.
    RperfP50Ns,
    /// 99.9th-percentile RTT of the RPerf instance on node 0, ns.
    RperfP999Ns,
    /// Goodput of the generator on node 0, Gbps.
    Node0Gbps,
    /// Median RTT of the Perftest client on node 0, µs.
    PerftestP50Us,
    /// 99.9th-percentile RTT of the Perftest client on node 0, µs.
    PerftestP999Us,
    /// The average RTT the Qperf client on node 0 reports, µs.
    QperfAvgUs,
    /// Median RTT of the LSG (the run's RPerf probe), µs.
    LsgP50Us,
    /// 99.9th-percentile RTT of the LSG, µs.
    LsgP999Us,
    /// Goodput of every source together, Gbps.
    TotalGbps,
    /// Goodput of source `i`, the pretend LSG first, Gbps (0 if absent).
    SourceGbps(usize),
}

impl Value {
    /// Reads the value from one run's outcome.
    ///
    /// # Panics
    ///
    /// Panics if the run has no role that measures it.
    fn of(self, out: &ScenarioOutcome) -> f64 {
        let lsg = || converged_outcome(out).lsg.expect("LSG present").summary;
        let rperf = || out.rperf(0).expect("rperf on node 0").summary;
        let perftest = || *out.latency(0).expect("perftest client on node 0");
        match self {
            Value::RperfP50Ns => rperf().p50_ns(),
            Value::RperfP999Ns => rperf().p999_ns(),
            Value::Node0Gbps => out.gbps(0).expect("bsg on node 0"),
            Value::PerftestP50Us => perftest().p50_us(),
            Value::PerftestP999Us => perftest().p999_us(),
            Value::QperfAvgUs => out.qperf(0).expect("qperf client on node 0").avg_us,
            Value::LsgP50Us => lsg().p50_us(),
            Value::LsgP999Us => lsg().p999_us(),
            Value::TotalGbps => converged_outcome(out).total_gbps,
            Value::SourceGbps(i) => {
                let c = converged_outcome(out);
                c.pretend_gbps
                    .into_iter()
                    .chain(c.per_bsg_gbps)
                    .nth(i)
                    .unwrap_or(0.0)
            }
        }
    }

    /// The unit of the value, as EXPERIMENTS.md's check tables print it.
    pub fn unit(self) -> &'static str {
        match self {
            Value::RperfP50Ns | Value::RperfP999Ns => "ns",
            Value::Node0Gbps | Value::TotalGbps | Value::SourceGbps(_) => "Gbps",
            _ => "µs",
        }
    }
}

/// One series of a figure.
#[derive(Debug, Clone)]
pub struct SeriesSpec {
    /// Legend label (the Markdown column header).
    label: String,
    /// What it reads from each run.
    pub value: Value,
    /// The points it plots: indices into the sweep's points.
    points: Range<usize>,
    /// The paper's published `(x, y)` points it is checked against; each
    /// x is one of its points' x.
    pub checks: Vec<(f64, f64)>,
}

/// A series of `value` over `points`, with no paper check.
fn series(label: impl Into<String>, value: Value, points: Range<usize>) -> SeriesSpec {
    SeriesSpec {
        label: label.into(),
        value,
        points,
        checks: Vec::new(),
    }
}

impl SeriesSpec {
    /// Checks the series against the published `(x, y)` points.
    fn check(mut self, published: Vec<(f64, f64)>) -> Self {
        self.checks = published;
        self
    }
}

/// One figure a sweep fills.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// The `figure --fig` id that prints it (`"7"` prints Figs. 7a and
    /// 7b), or `None` for a figure only `report` runs.
    pub cli_id: Option<&'static str>,
    /// Id, title and axis labels, with no series yet.
    frame: Figure,
    /// Its series, in column order.
    pub series: Vec<SeriesSpec>,
}

/// One timed sweep: scenario runs averaged over seeds, and the figures
/// they fill.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Timing id: the sweep's row in BENCH_report.json and
    /// BENCH_baseline.json.
    pub id: &'static str,
    /// Measurement window at full effort, ms ([`Effort::window`]).
    base_ms: f64,
    /// Every run: its x and its scenario.
    points: Vec<(f64, ScenarioSpec)>,
    /// The figures the runs fill.
    pub figures: Vec<FigureSpec>,
    /// EXPERIMENTS.md text that follows the figures, from the figures.
    pub note: fn(&[Figure]) -> String,
}

/// The `(x, p50)` column of a published latency table.
fn p50s(published: &[paper::LatPoint]) -> Vec<(f64, f64)> {
    published.iter().map(|&(x, p50, _)| (x, p50)).collect()
}

/// The `(x, p99.9)` column of a published latency table.
fn p999s(published: &[paper::LatPoint]) -> Vec<(f64, f64)> {
    published.iter().map(|&(x, _, p999)| (x, p999)).collect()
}

/// The medians of a published per-setup table, at x = the setup's index.
fn setup_p50s(published: &[(&str, f64, f64)]) -> Vec<(f64, f64)> {
    let setups = published.iter().enumerate();
    setups.map(|(i, &(_, p50, _))| (i as f64, p50)).collect()
}

/// `fig_clos`'s note: zero-load RTT per hop depth and the p50 slope per
/// BSG over the contended points.
fn clos_note(fig: &Figure) -> String {
    let slope = |series_idx: usize| {
        let s = &fig.series[series_idx];
        // Per-BSG latency slope over the contended points (>= 1 BSG),
        // where queueing rather than propagation dominates.
        (s.y[s.len() - 1] - s.y[1]) / (s.x[s.len() - 1] - s.x[1]).max(1.0)
    };
    format!(
        "**Multi-hop slope check** — the paper measures ~5 µs of victim\n\
         latency per added BSG through *one* switch and leaves deeper\n\
         fabrics open. Above, the same victim/BSG mix runs at 1, 3 and 5\n\
         hops of a routed 3-tier k = 4 fat-tree (destination-based\n\
         forwarding tables programmed by the subnet planner):\n\n\
         - zero-load RTT is additive in path length ({:.2} → {:.2} →\n\
           {:.2} µs p50 at 1/3/5 hops);\n\
         - under load the *last-hop* incast still dominates: the p50\n\
           slope per BSG beyond the first is {:.2} / {:.2} / {:.2}\n\
           µs/BSG at 1/3/5 hops — converging traffic, not path length,\n\
           sets the contended latency, consistent with the paper's\n\
           single-switch mechanism.\n\n",
        fig.series[0].y[0],
        fig.series[2].y[0],
        fig.series[4].y[0],
        slope(0),
        slope(2),
        slope(4),
    )
}

impl Sweep {
    /// A sweep of `points` with no figure and no note yet.
    fn new(id: &'static str, base_ms: f64, points: Vec<(f64, ScenarioSpec)>) -> Self {
        Sweep {
            id,
            base_ms,
            points,
            figures: Vec::new(),
            note: |_| String::new(),
        }
    }

    /// Adds a figure: its `figure --fig` id, frame and series.
    fn figure(
        mut self,
        cli_id: Option<&'static str>,
        frame: Figure,
        series: Vec<SeriesSpec>,
    ) -> Self {
        self.figures.push(FigureSpec {
            cli_id,
            frame,
            series,
        });
        self
    }

    /// Sets the EXPERIMENTS.md text that follows the figures.
    fn note(mut self, note: fn(&[Figure]) -> String) -> Self {
        self.note = note;
        self
    }

    /// Every sweep, in report order: the paper's Figs. 4–13, the
    /// fat-tree scale-out (`fig_clos`), and the 128-host leaf–spine row
    /// (`fattree128`, not a paper figure: it feeds the largest routed
    /// fabric's wall time into BENCH_report.json).
    pub fn all() -> Vec<Sweep> {
        use SchedPolicy::{Fcfs, RoundRobin};
        use Value::*;
        let at = |x: usize, spec| (x as f64, spec);
        let payloads = |spec: &dyn Fn(u64) -> ScenarioSpec| PAYLOADS.map(|p| (p as f64, spec(p)));
        let bsgs =
            |spec: &dyn Fn(usize) -> ScenarioSpec| [0, 1, 2, 3, 4, 5].map(|n| at(n, spec(n)));
        let shared = |n| specs::converged(n, 4096, 1, true, QosMode::SharedSl);
        // The gaming experiment keeps five sources: four honest BSGs plus
        // the pretend LSG.
        let gamed = || specs::converged(4, 4096, 1, true, QosMode::DedicatedSlWithPretend);
        let omnet = |spec: ScenarioSpec| spec.with_profile(DeviceProfile::OmnetSimulator);
        // The LSG's median and 99.9th-percentile series over `points`,
        // labelled `50th (name)` and `99.9th (name)` (plain `50th` and
        // `99.9th` for an empty name), the median checked against `p50s`.
        let lsg = |name: &str, points: Range<usize>, p50s| {
            let label = |q: &str| match name {
                "" => q.to_string(),
                _ => format!("{q} ({name})"),
            };
            vec![
                series(label("50th"), LsgP50Us, points.clone()).check(p50s),
                series(label("99.9th"), LsgP999Us, points),
            ]
        };
        vec![
            Sweep::new(
                "fig4",
                8.0,
                [false, true]
                    .into_iter()
                    .flat_map(|sw| payloads(&|p| specs::one_to_one_rperf(sw, p)))
                    .collect(),
            )
            .figure(
                Some("4"),
                Figure::new(
                    "fig4",
                    "RTT calculated by RPerf for different packet sizes with and without the switch",
                    "Payload Size (B)",
                    "RTT (ns)",
                ),
                vec![
                    series("50th (w/o switch)", RperfP50Ns, 0..7)
                        .check(p50s(paper::FIG4_NO_SWITCH_NS)),
                    series("99.9th (w/o switch)", RperfP999Ns, 0..7)
                        .check(p999s(paper::FIG4_NO_SWITCH_NS)),
                    series("50th (w/ switch)", RperfP50Ns, 7..14)
                        .check(p50s(paper::FIG4_WITH_SWITCH_NS)),
                    series("99.9th (w/ switch)", RperfP999Ns, 7..14)
                        .check(p999s(paper::FIG4_WITH_SWITCH_NS)),
                ],
            ),
            Sweep::new(
                "fig5",
                4.0,
                [false, true]
                    .into_iter()
                    .flat_map(|sw| payloads(&|p| specs::one_to_one_bandwidth(sw, p)))
                    .collect(),
            )
            .figure(
                Some("5"),
                Figure::new(
                    "fig5",
                    "Bandwidth for different packet sizes with and without the switch",
                    "Payload Size (B)",
                    "Bandwidth (Gbps)",
                ),
                vec![
                    series("w/o switch", Node0Gbps, 0..7)
                        .check(paper::FIG5_GBPS.iter().map(|&(x, no, _)| (x, no)).collect()),
                    series("w/ switch", Node0Gbps, 7..14)
                        .check(paper::FIG5_GBPS.iter().map(|&(x, _, sw)| (x, sw)).collect()),
                ],
            ),
            Sweep::new(
                "fig6",
                8.0,
                payloads(&specs::one_to_one_perftest)
                    .into_iter()
                    .chain(payloads(&specs::one_to_one_qperf))
                    .collect(),
            )
            .figure(
                Some("6"),
                Figure::new(
                    "fig6",
                    "End-to-end RTT calculated by Perftest and Qperf with the switch",
                    "Payload Size (B)",
                    "RTT (us)",
                ),
                vec![
                    series("50th (Perftest)", PerftestP50Us, 0..7)
                        .check(p50s(paper::FIG6_PERFTEST_US)),
                    series("99.9th (Perftest)", PerftestP999Us, 0..7)
                        .check(p999s(paper::FIG6_PERFTEST_US)),
                    series("50th (Qperf)", QperfAvgUs, 7..14).check(paper::FIG6_QPERF_US.to_vec()),
                ],
            ),
            Sweep::new("fig7", 40.0, bsgs(&shared).into())
                .figure(
                    Some("7"),
                    Figure::new(
                        "fig7a",
                        "RTT of LSG under converged traffic",
                        "Number of BSGs",
                        "RTT of LSG (us)",
                    ),
                    lsg("", 0..6, p50s(paper::FIG7A_US)),
                )
                .figure(
                    Some("7"),
                    Figure::new(
                        "fig7b",
                        "Total bandwidth of all BSGs under converged traffic",
                        "Number of BSGs",
                        "Total Bandwidth (Gbps)",
                    ),
                    vec![series("total", TotalGbps, 1..6).check(paper::FIG7B_GBPS.to_vec())],
                ),
            // "We also use batching with small payload sizes to improve
            // the bandwidth utilization."
            Sweep::new(
                "fig8_fig9",
                15.0,
                payloads(&|p| {
                    let batch = if p <= 1024 { 16 } else { 1 };
                    specs::converged(5, p, batch, true, QosMode::SharedSl)
                })
                .into(),
            )
            .figure(
                Some("8"),
                Figure::new(
                    "fig8",
                    "RTT of the LSG as a function of the BSGs' message size",
                    "Payload Size of BSGs (B)",
                    "RTT of LSG (us)",
                ),
                lsg("", 0..7, p50s(paper::FIG8_US)),
            )
            .figure(
                Some("9"),
                Figure::new(
                    "fig9",
                    "Total bandwidth achieved by BSGs as a function of the message size",
                    "Payload Size of BSGs (B)",
                    "Total Bandwidth (Gbps)",
                ),
                vec![series("total", TotalGbps, 0..7).check(paper::FIG9_GBPS.to_vec())],
            ),
            Sweep::new(
                "fig10",
                40.0,
                [Fcfs, RoundRobin]
                    .into_iter()
                    .flat_map(|policy| bsgs(&|n| omnet(shared(n)).with_policy(policy)))
                    .collect(),
            )
            .figure(
                Some("10"),
                Figure::new(
                    "fig10",
                    "Impact of the number of BSGs on RTT of LSG in the simulator",
                    "Number of BSGs",
                    "RTT of LSG (us)",
                ),
                [
                    lsg("FCFS", 0..6, p50s(paper::FIG10_FCFS_US)),
                    lsg("RR", 6..12, p50s(paper::FIG10_RR_US)),
                ]
                .concat(),
            ),
            Sweep::new(
                "fig11",
                40.0,
                [Fcfs, RoundRobin]
                    .into_iter()
                    .enumerate()
                    .map(|(x, policy)| at(x, omnet(specs::multihop(policy))))
                    .collect(),
            )
            .figure(
                Some("11"),
                Figure::new(
                    "fig11",
                    "RTT of LSG in a multi-hop setup",
                    "Packet Scheduling Policy (0 = FCFS, 1 = RR)",
                    "RTT of LSG (us)",
                ),
                lsg("", 0..2, setup_p50s(paper::FIG11_US)),
            ),
            Sweep::new(
                "fig12",
                30.0,
                vec![
                    at(0, shared(0)),
                    at(1, shared(5)),
                    at(2, specs::converged(5, 4096, 1, true, QosMode::DedicatedSl)),
                    at(3, gamed()),
                ],
            )
            .figure(
                Some("12"),
                Figure::new(
                    "fig12",
                    "RTT of the real LSG in different setups",
                    "Setup",
                    "RTT of LSG (us)",
                ),
                lsg("", 0..4, setup_p50s(paper::FIG12_US)),
            )
            .note(|_| format!("Setups: {FIG12_SETUPS:?}\n\n")),
            // x = 0: four honest BSGs and the pretend LSG, listed first as
            // "BSG 1" (the paper's convention); x = 1: five honest BSGs
            // sharing SL0.
            Sweep::new("fig13", 30.0, vec![at(0, gamed()), at(1, shared(5))])
                .figure(
                    Some("13"),
                    Figure::new(
                        "fig13",
                        "Total bandwidth achieved by BSGs under converged traffic (gaming)",
                        "Setup (0 = Dedicated SL + Pretend LSG, 1 = Shared SL)",
                        "Bandwidth (Gbps)",
                    ),
                    (0..5)
                        .map(|i| series(format!("BSG {}", i + 1), SourceGbps(i), 0..2))
                        .chain([series("total", TotalGbps, 0..2)])
                        .collect(),
                )
                .note(|_| {
                    format!(
                        "Paper: pretend LSG {:.1} Gbps, honest BSGs {:.1}–{:.1} Gbps, totals \
                         {:.1} (gamed) vs {:.1} (shared).\n\n",
                        paper::FIG13_PRETEND_GBPS,
                        paper::FIG13_HONEST_GBPS.0,
                        paper::FIG13_HONEST_GBPS.1,
                        paper::FIG13_TOTALS_GBPS.0,
                        paper::FIG13_TOTALS_GBPS.1
                    )
                }),
            // Clos scale-out: RTT of an RPerf victim crossing 1, 3 or 5
            // switches of a routed 3-tier k = 4 fat-tree while 0–4 bulk
            // flows converge on its destination from remote edges. No
            // paper values: the paper stops at two switches.
            Sweep::new(
                "fig_clos",
                10.0,
                CLOS_HOPS
                    .into_iter()
                    .flat_map(|h| (0..=4).map(move |n| at(n, specs::clos_victim(h, n))))
                    .collect(),
            )
            .figure(
                Some("clos"),
                Figure::new(
                    "fig_clos",
                    "RTT of a victim flow at 1/3/5 fat-tree hops under converging BSGs",
                    "Number of BSGs",
                    "RTT of victim (us)",
                ),
                CLOS_HOPS
                    .iter()
                    .enumerate()
                    .flat_map(|(i, h)| {
                        let unit = if *h == 1 { "hop" } else { "hops" };
                        lsg(&format!("{h} {unit}"), 5 * i..5 * i + 5, Vec::new())
                    })
                    .collect(),
            )
            .note(|figs| clos_note(&figs[0])),
            // A k = 8, o = 2 leaf–spine (128 hosts, 16 twelve-port leaves,
            // 4 sixteen-port spines): victim RTT across the spine while
            // 0/4/8 bulk flows converge on its destination.
            Sweep::new(
                "fattree_k8",
                10.0,
                [0, 4, 8]
                    .map(|n| at(n, specs::fattree_incast(8, 2, 2, n)))
                    .into(),
            )
            .figure(
                None,
                Figure::new(
                    "fattree128",
                    "Victim RTT across a 128-host leaf-spine (k=8, o=2) under incast",
                    "Number of BSGs",
                    "RTT of victim (us)",
                ),
                lsg("", 0..3, Vec::new()),
            )
            .note(|_| {
                "The k = 8, o = 2 leaf-spine (128 hosts, 16 leaves, 4 spines) is\n\
                 the largest routed fabric in the suite; the row above is its\n\
                 `wall_s` entry in BENCH_report.json.\n\n"
                    .to_string()
            }),
        ]
    }

    /// Runs every point once per seed through [`sweep_over_seeds`] and
    /// returns the figures, each series' value averaged over the seeds in
    /// seed order.
    pub fn run(&self, effort: &Effort) -> Vec<Figure> {
        self.run_counted(effort).0
    }

    /// [`Sweep::run`], also returning the wakes that transmitted nothing,
    /// summed over every run of the sweep.
    pub fn run_counted(&self, effort: &Effort) -> (Vec<Figure>, IdleWakes) {
        let window = effort.window(self.base_ms);
        let runs = sweep_over_seeds(
            effort,
            &self.points,
            |(_, spec), seed| execute(&spec.clone().with_duration(window), seed),
            |_, per_seed| per_seed,
        );
        let mut idle = IdleWakes::default();
        for out in runs.iter().flatten() {
            idle += out.idle_wakes;
        }
        let fill = |f: &FigureSpec| {
            let mut fig = f.frame.clone();
            for s in &f.series {
                let mut series = Series::new(s.label.clone());
                for i in s.points.clone() {
                    let ys: Vec<f64> = runs[i].iter().map(|out| s.value.of(out)).collect();
                    series.push(self.points[i].0, mean(&ys));
                }
                fig.add_series(series);
            }
            fig
        };
        (self.figures.iter().map(fill).collect(), idle)
    }
}

/// Runs the sweep behind one `figure --fig` id (`"4"` … `"13"`, or
/// `"clos"`) and returns the figures that id prints: Figs. 7a and 7b
/// for `"7"`; Figs. 8 and 9 share a sweep but are addressed separately.
/// Returns `None` for unknown ids.
pub fn by_id(id: &str, effort: &Effort) -> Option<Vec<Figure>> {
    let sweep = Sweep::all()
        .into_iter()
        .find(|s| s.figures.iter().any(|f| f.cli_id == Some(id)))?;
    let figures = sweep.figures.iter().zip(sweep.run(effort));
    Some(
        figures
            .filter(|(f, _)| f.cli_id == Some(id))
            .map(|(_, fig)| fig)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Effort {
        Effort {
            seeds: vec![1],
            scale: 0.05,
            jobs: 1,
        }
    }

    /// Every check prints one EXPERIMENTS.md table under its series'
    /// label, so that label must name one series of its figure, and
    /// every checked x must be one of that series' points (else the
    /// table has no measured value). Runs no simulation.
    #[test]
    fn every_paper_check_names_a_series_point() {
        let mut checks = 0;
        for sweep in Sweep::all() {
            for f in &sweep.figures {
                for s in &f.series {
                    let same_label = f.series.iter().filter(|o| o.label == s.label).count();
                    assert_eq!(same_label, 1, "{}: `{}` is not unique", f.frame.id, s.label);
                    assert!(s.points.end <= sweep.points.len(), "{}: {s:?}", sweep.id);
                    let xs: Vec<f64> = s.points.clone().map(|i| sweep.points[i].0).collect();
                    for &(x, _) in &s.checks {
                        assert!(
                            xs.contains(&x),
                            "{} `{}`: checked x = {x} is not one of its points {xs:?}",
                            f.frame.id,
                            s.label
                        );
                        checks += 1;
                    }
                }
            }
        }
        assert!(checks > 0, "the table holds no paper check");
    }

    #[test]
    fn fig5_has_both_series_over_the_sweep() {
        let fig = &by_id("5", &tiny()).unwrap()[0];
        assert_eq!(fig.series.len(), 2);
        for s in &fig.series {
            assert_eq!(s.len(), PAYLOADS.len());
        }
        // Bandwidth grows with payload in both series.
        for s in &fig.series {
            assert!(s.y.windows(2).all(|w| w[1] >= w[0] * 0.95));
        }
    }

    #[test]
    fn fig_clos_probes_every_hop_depth() {
        let fig = &by_id("clos", &tiny()).unwrap()[0];
        // Two series (p50, p999) per hop depth, five BSG counts each.
        assert_eq!(fig.series.len(), 2 * CLOS_HOPS.len());
        for s in &fig.series {
            assert_eq!(s.len(), 5);
        }
        // Zero-load p50 grows with path length: each extra switch pair
        // adds pipeline + arbitration latency to the round trip.
        let p50_at_zero: Vec<f64> = (0..CLOS_HOPS.len())
            .map(|i| fig.series[2 * i].y[0])
            .collect();
        assert!(
            p50_at_zero[0] < p50_at_zero[1] && p50_at_zero[1] < p50_at_zero[2],
            "zero-load RTT must grow with hops: {p50_at_zero:?}"
        );
    }

    #[test]
    fn fattree128_runs_the_leaf_spine_at_scale() {
        let effort = Effort {
            seeds: vec![1],
            scale: 0.03,
            jobs: 1,
        };
        let sweep = Sweep::all().into_iter().find(|s| s.id == "fattree_k8");
        let fig = &sweep
            .expect("the 128-host row is in the table")
            .run(&effort)[0];
        assert_eq!(fig.series.len(), 2);
        for s in &fig.series {
            assert_eq!(s.len(), 3, "three BSG counts");
            assert!(s.y.iter().all(|&y| y > 0.0), "{:?}", s.y);
        }
        // Loaded spine crossings cannot beat the unloaded one.
        let p50 = &fig.series[0].y;
        assert!(
            p50[2] >= p50[0],
            "8-BSG incast cannot speed the victim up: {p50:?}"
        );
    }

    #[test]
    fn fig7_latency_grows_and_bandwidth_is_flat_ish() {
        let figs = by_id("7", &tiny()).unwrap();
        let p50 = &figs[0].series[0];
        assert!(p50.y.last().unwrap() > &(p50.y[0] + 10.0));
        let total = &figs[1].series[0];
        for y in &total.y {
            assert!((35.0..56.0).contains(y), "total bandwidth {y}");
        }
    }
}
