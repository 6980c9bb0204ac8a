//! One generator per paper figure — each figure is **data**: a scenario
//! table from [`rperf::scenario::specs`] swept over its parameter axis.
//!
//! Every figure is a sweep of independent `(point, seed)` simulations,
//! expressed through [`sweep_over_seeds`]: the figure supplies a closure
//! that executes the scenario spec for one `(param, seed)` pair plus a
//! merge that folds the per-seed results into one plotted point. The
//! sweep fans the pairs across `effort.jobs` worker threads and hands the
//! merge its results in seed order, so the emitted series are bit-identical
//! to a serial run for any worker count. All execution goes through the
//! one generic [`execute`] path; nothing here hand-builds a fabric.

use rperf::scenario::{converged_outcome, specs};
use rperf::{execute, DeviceProfile, QosMode, ScenarioOutcome, ScenarioSpec};
use rperf_model::config::SchedPolicy;
use rperf_stats::{Figure, Series};

use crate::{mean, sweep_over_seeds, Effort};

/// The payload sweep used throughout the paper: 64 B – 4096 B.
pub const PAYLOADS: [u64; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

/// Executes a scenario table with the figure's measurement window (scaled
/// by the effort level) and the given seed.
///
/// `--shards` is a global knob over scenarios of very different sizes, so
/// it is clamped to each table's device count (specs reject over-sharding
/// outright; a figure sweep just uses as many domains as the fabric has).
fn run(table: ScenarioSpec, effort: &Effort, base_ms: f64, seed: u64) -> ScenarioOutcome {
    let devices = table.topology.hosts() + table.topology.switches();
    execute(
        &table
            .with_duration(effort.window(base_ms))
            .with_shards(effort.shards.min(devices)),
        seed,
    )
}

/// Fig. 4 — RPerf RTT vs payload size, with and without the switch
/// (p50 and p99.9, in **ns**).
pub fn fig4(effort: &Effort) -> Figure {
    let mut fig = Figure::new(
        "fig4",
        "RTT calculated by RPerf for different packet sizes with and without the switch",
        "Payload Size (B)",
        "RTT (ns)",
    );
    let mut s50_no = Series::new("50th (w/o switch)");
    let mut s999_no = Series::new("99.9th (w/o switch)");
    let mut s50_sw = Series::new("50th (w/ switch)");
    let mut s999_sw = Series::new("99.9th (w/ switch)");

    let params: Vec<(u64, bool)> = PAYLOADS
        .iter()
        .flat_map(|&p| [(p, false), (p, true)])
        .collect();
    let points = sweep_over_seeds(
        effort,
        &params,
        |&(payload, through), seed| {
            let out = run(specs::one_to_one_rperf(through, payload), effort, 8.0, seed);
            let summary = out.rperf(0).expect("rperf on node 0").summary;
            (summary.p50_ns(), summary.p999_ns())
        },
        |&(payload, through), per_seed| {
            let (p50s, p999s): (Vec<f64>, Vec<f64>) = per_seed.into_iter().unzip();
            (payload, through, mean(&p50s), mean(&p999s))
        },
    );
    for (payload, through, p50, p999) in points {
        let x = payload as f64;
        let (s50, s999) = if through {
            (&mut s50_sw, &mut s999_sw)
        } else {
            (&mut s50_no, &mut s999_no)
        };
        s50.push(x, p50);
        s999.push(x, p999);
    }

    fig.add_series(s50_no);
    fig.add_series(s999_no);
    fig.add_series(s50_sw);
    fig.add_series(s999_sw);
    fig
}

/// Fig. 5 — one-to-one BSG goodput vs payload size, with and without the
/// switch (Gbps).
pub fn fig5(effort: &Effort) -> Figure {
    let mut fig = Figure::new(
        "fig5",
        "Bandwidth for different packet sizes with and without the switch",
        "Payload Size (B)",
        "Bandwidth (Gbps)",
    );
    let mut no_sw = Series::new("w/o switch");
    let mut with_sw = Series::new("w/ switch");

    let params: Vec<(u64, bool)> = PAYLOADS
        .iter()
        .flat_map(|&p| [(p, false), (p, true)])
        .collect();
    let points = sweep_over_seeds(
        effort,
        &params,
        |&(payload, through), seed| {
            run(
                specs::one_to_one_bandwidth(through, payload),
                effort,
                4.0,
                seed,
            )
            .gbps(0)
            .expect("bsg on node 0")
        },
        |&(payload, through), gbps| (payload, through, mean(&gbps)),
    );
    for (payload, through, gbps) in points {
        let series = if through { &mut with_sw } else { &mut no_sw };
        series.push(payload as f64, gbps);
    }

    fig.add_series(no_sw);
    fig.add_series(with_sw);
    fig
}

/// Fig. 6 — end-to-end RTT reported by the baseline tools, through the
/// switch (µs): Perftest p50/p99.9 and QPerf average.
pub fn fig6(effort: &Effort) -> Figure {
    let mut fig = Figure::new(
        "fig6",
        "End-to-end RTT calculated by Perftest and Qperf with the switch",
        "Payload Size (B)",
        "RTT (us)",
    );
    let mut pf50 = Series::new("50th (Perftest)");
    let mut pf999 = Series::new("99.9th (Perftest)");
    let mut qp50 = Series::new("50th (Qperf)");

    let points = sweep_over_seeds(
        effort,
        &PAYLOADS,
        |&payload, seed| {
            let pf = run(specs::one_to_one_perftest(payload), effort, 8.0, seed);
            let pf = pf.latency(0).expect("perftest client on node 0");
            let qp = run(specs::one_to_one_qperf(payload), effort, 8.0, seed);
            let qp = *qp.qperf(0).expect("qperf client on node 0");
            (pf.p50_us(), pf.p999_us(), qp.avg_us)
        },
        |&payload, per_seed| {
            let n = per_seed.len();
            let mut p50s = Vec::with_capacity(n);
            let mut p999s = Vec::with_capacity(n);
            let mut avgs = Vec::with_capacity(n);
            for (a, b, c) in per_seed {
                p50s.push(a);
                p999s.push(b);
                avgs.push(c);
            }
            (payload, mean(&p50s), mean(&p999s), mean(&avgs))
        },
    );
    for (payload, p50, p999, avg) in points {
        let x = payload as f64;
        pf50.push(x, p50);
        pf999.push(x, p999);
        qp50.push(x, avg);
    }

    fig.add_series(pf50);
    fig.add_series(pf999);
    fig.add_series(qp50);
    fig
}

/// The per-seed result of one converged-traffic run, as the LSG-centric
/// figures consume it.
struct ConvergedPoint {
    p50_us: f64,
    p999_us: f64,
    total_gbps: f64,
}

/// Executes a converged scenario table and extracts the LSG-centric view.
fn converged_point(
    table: ScenarioSpec,
    effort: &Effort,
    base_ms: f64,
    seed: u64,
) -> ConvergedPoint {
    let out = converged_outcome(&run(table, effort, base_ms, seed));
    let lsg = out.lsg.expect("LSG present").summary;
    ConvergedPoint {
        p50_us: lsg.p50_us(),
        p999_us: lsg.p999_us(),
        total_gbps: out.total_gbps,
    }
}

fn merge_converged(per_seed: Vec<ConvergedPoint>) -> (f64, f64, f64) {
    let n = per_seed.len();
    let mut p50s = Vec::with_capacity(n);
    let mut p999s = Vec::with_capacity(n);
    let mut bws = Vec::with_capacity(n);
    for p in per_seed {
        p50s.push(p.p50_us);
        p999s.push(p.p999_us);
        bws.push(p.total_gbps);
    }
    (mean(&p50s), mean(&p999s), mean(&bws))
}

/// Figs. 7a and 7b — converged traffic on the hardware profile: LSG RTT
/// (µs) and total BSG goodput (Gbps) vs the number of 4096 B BSGs.
pub fn fig7(effort: &Effort) -> (Figure, Figure) {
    let mut fig_a = Figure::new(
        "fig7a",
        "RTT of LSG under converged traffic",
        "Number of BSGs",
        "RTT of LSG (us)",
    );
    let mut fig_b = Figure::new(
        "fig7b",
        "Total bandwidth of all BSGs under converged traffic",
        "Number of BSGs",
        "Total Bandwidth (Gbps)",
    );
    let mut s50 = Series::new("50th");
    let mut s999 = Series::new("99.9th");
    let mut total = Series::new("total");

    let params: Vec<usize> = (0..=5).collect();
    let points = sweep_over_seeds(
        effort,
        &params,
        |&n, seed| {
            converged_point(
                specs::converged(n, 4096, 1, true, QosMode::SharedSl),
                effort,
                40.0,
                seed,
            )
        },
        |&n, per_seed| (n, merge_converged(per_seed)),
    );
    for (n, (p50, p999, bw)) in points {
        s50.push(n as f64, p50);
        s999.push(n as f64, p999);
        if n >= 1 {
            total.push(n as f64, bw);
        }
    }

    fig_a.add_series(s50);
    fig_a.add_series(s999);
    fig_b.add_series(total);
    (fig_a, fig_b)
}

/// Figs. 8 and 9 — five BSGs with varying payload (batched for small
/// payloads) plus the LSG: LSG RTT (µs) and total BSG goodput (Gbps).
pub fn fig8_fig9(effort: &Effort) -> (Figure, Figure) {
    let mut fig8 = Figure::new(
        "fig8",
        "RTT of the LSG as a function of the BSGs' message size",
        "Payload Size of BSGs (B)",
        "RTT of LSG (us)",
    );
    let mut fig9 = Figure::new(
        "fig9",
        "Total bandwidth achieved by BSGs as a function of the message size",
        "Payload Size of BSGs (B)",
        "Total Bandwidth (Gbps)",
    );
    let mut s50 = Series::new("50th");
    let mut s999 = Series::new("99.9th");
    let mut total = Series::new("total");

    let points = sweep_over_seeds(
        effort,
        &PAYLOADS,
        |&payload, seed| {
            // "We also use batching with small payload sizes to improve the
            // bandwidth utilization."
            let batch = if payload <= 1024 { 16 } else { 1 };
            converged_point(
                specs::converged(5, payload, batch, true, QosMode::SharedSl),
                effort,
                15.0,
                seed,
            )
        },
        |&payload, per_seed| (payload, merge_converged(per_seed)),
    );
    for (payload, (p50, p999, bw)) in points {
        s50.push(payload as f64, p50);
        s999.push(payload as f64, p999);
        total.push(payload as f64, bw);
    }

    fig8.add_series(s50);
    fig8.add_series(s999);
    fig9.add_series(total);
    (fig8, fig9)
}

/// Fig. 10 — the IB simulator profile: LSG RTT vs number of BSGs under
/// FCFS and Round-Robin scheduling (µs).
pub fn fig10(effort: &Effort) -> Figure {
    let mut fig = Figure::new(
        "fig10",
        "Impact of the number of BSGs on RTT of LSG in the simulator",
        "Number of BSGs",
        "RTT of LSG (us)",
    );
    for policy in [SchedPolicy::Fcfs, SchedPolicy::RoundRobin] {
        let name = match policy {
            SchedPolicy::Fcfs => "FCFS",
            SchedPolicy::RoundRobin => "RR",
            SchedPolicy::FairShare => "FairShare",
        };
        let mut s50 = Series::new(format!("50th ({name})"));
        let mut s999 = Series::new(format!("99.9th ({name})"));

        let params: Vec<usize> = (0..=5).collect();
        let points = sweep_over_seeds(
            effort,
            &params,
            |&n, seed| {
                converged_point(
                    specs::converged(n, 4096, 1, true, QosMode::SharedSl)
                        .with_profile(DeviceProfile::OmnetSimulator)
                        .with_policy(policy),
                    effort,
                    40.0,
                    seed,
                )
            },
            |&n, per_seed| (n, merge_converged(per_seed)),
        );
        for (n, (p50, p999, _)) in points {
            s50.push(n as f64, p50);
            s999.push(n as f64, p999);
        }

        fig.add_series(s50);
        fig.add_series(s999);
    }
    fig
}

/// Fig. 11 — the multi-hop topology: LSG RTT under FCFS vs RR (µs).
pub fn fig11(effort: &Effort) -> Figure {
    let mut fig = Figure::new(
        "fig11",
        "RTT of LSG in a multi-hop setup",
        "Packet Scheduling Policy (0 = FCFS, 1 = RR)",
        "RTT of LSG (us)",
    );
    let mut s50 = Series::new("50th");
    let mut s999 = Series::new("99.9th");

    let params = [(0.0, SchedPolicy::Fcfs), (1.0, SchedPolicy::RoundRobin)];
    let points = sweep_over_seeds(
        effort,
        &params,
        |&(_, policy), seed| {
            let out = run(
                specs::multihop(policy).with_profile(DeviceProfile::OmnetSimulator),
                effort,
                40.0,
                seed,
            );
            let lsg = converged_outcome(&out).lsg.expect("LSG present").summary;
            (lsg.p50_us(), lsg.p999_us())
        },
        |&(x, _), per_seed| {
            let (p50s, p999s): (Vec<f64>, Vec<f64>) = per_seed.into_iter().unzip();
            (x, mean(&p50s), mean(&p999s))
        },
    );
    for (x, p50, p999) in points {
        s50.push(x, p50);
        s999.push(x, p999);
    }

    fig.add_series(s50);
    fig.add_series(s999);
    fig
}

/// The four QoS setups of Fig. 12.
pub const FIG12_SETUPS: [&str; 4] = [
    "No BSGs",
    "Shared SL",
    "Dedicated SL",
    "Dedicated SL + Pretend LSG",
];

/// Fig. 12 — LSG RTT across QoS setups (x = setup index into
/// [`FIG12_SETUPS`], µs).
pub fn fig12(effort: &Effort) -> Figure {
    let mut fig = Figure::new(
        "fig12",
        "RTT of the real LSG in different setups",
        "Setup",
        "RTT of LSG (us)",
    );
    let mut s50 = Series::new("50th");
    let mut s999 = Series::new("99.9th");
    let setups: [(usize, QosMode); 4] = [
        (0, QosMode::SharedSl), // no BSGs
        (5, QosMode::SharedSl),
        (5, QosMode::DedicatedSl),
        (5, QosMode::DedicatedSlWithPretend),
    ];

    let points = sweep_over_seeds(
        effort,
        &setups,
        |&(n_bsgs, qos), seed| {
            // The gaming experiment keeps five sources total: four honest
            // BSGs plus the pretend LSG.
            let honest = if qos == QosMode::DedicatedSlWithPretend {
                4
            } else {
                n_bsgs
            };
            converged_point(
                specs::converged(honest, 4096, 1, true, qos),
                effort,
                30.0,
                seed,
            )
        },
        |_, per_seed| merge_converged(per_seed),
    );
    for (x, (p50, p999, _)) in points.into_iter().enumerate() {
        s50.push(x as f64, p50);
        s999.push(x as f64, p999);
    }

    fig.add_series(s50);
    fig.add_series(s999);
    fig
}

/// Fig. 13 — per-source goodput under the gaming experiment vs the shared
/// baseline (x = 0 for "Dedicated SL + Pretend LSG", 1 for "Shared SL").
pub fn fig13(effort: &Effort) -> Figure {
    let mut fig = Figure::new(
        "fig13",
        "Total bandwidth achieved by BSGs under converged traffic (gaming)",
        "Setup (0 = Dedicated SL + Pretend LSG, 1 = Shared SL)",
        "Bandwidth (Gbps)",
    );
    let mut series: Vec<Series> = (1..=5).map(|i| Series::new(format!("BSG {i}"))).collect();
    let mut total = Series::new("total");

    // x = 0: 4 honest BSGs + the pretend LSG (reported as "BSG 1", the
    // paper's convention of listing the gamer first). x = 1: five honest
    // BSGs sharing SL0.
    let setups = [
        (0.0, QosMode::DedicatedSlWithPretend),
        (1.0, QosMode::SharedSl),
    ];
    let points = sweep_over_seeds(
        effort,
        &setups,
        |&(_, qos), seed| {
            let gaming = qos == QosMode::DedicatedSlWithPretend;
            let n_bsgs = if gaming { 4 } else { 5 };
            let out = converged_outcome(&run(
                specs::converged(n_bsgs, 4096, 1, true, qos),
                effort,
                30.0,
                seed,
            ));
            let mut shares = [0.0f64; 5];
            if gaming {
                shares[0] = out.pretend_gbps.expect("gaming run");
                for (i, &g) in out.per_bsg_gbps.iter().enumerate() {
                    shares[i + 1] = g;
                }
            } else {
                for (i, &g) in out.per_bsg_gbps.iter().enumerate() {
                    shares[i] = g;
                }
            }
            (shares, out.total_gbps)
        },
        |&(x, _), per_seed| {
            let k = per_seed.len() as f64;
            let mut shares = [0.0f64; 5];
            let mut tot = 0.0;
            for (s, t) in per_seed {
                for (acc, v) in shares.iter_mut().zip(s) {
                    *acc += v;
                }
                tot += t;
            }
            for acc in &mut shares {
                *acc /= k;
            }
            (x, shares, tot / k)
        },
    );
    for (x, shares, tot) in points {
        for (s, v) in series.iter_mut().zip(shares) {
            s.push(x, v);
        }
        total.push(x, tot);
    }

    for s in series {
        fig.add_series(s);
    }
    fig.add_series(total);
    fig
}

/// The hop depths `fig_clos` probes: same edge switch, same pod, and
/// cross-pod in a 3-tier `k = 4` fat-tree.
pub const CLOS_HOPS: [u32; 3] = [1, 3, 5];

/// `fig_clos` — the Clos scale-out experiment: RTT of an RPerf victim
/// flow crossing 1, 3 or 5 switches of a routed 3-tier `k = 4` fat-tree
/// while 0–4 bulk flows converge on the victim's destination from remote
/// edges. Answers the ROADMAP scale-out question: is the ~5 µs-per-BSG
/// slope measured through one switch additive across hops, or does the
/// last-hop bottleneck dominate regardless of path length?
pub fn fig_clos(effort: &Effort) -> Figure {
    let mut fig = Figure::new(
        "fig_clos",
        "RTT of a victim flow at 1/3/5 fat-tree hops under converging BSGs",
        "Number of BSGs",
        "RTT of victim (us)",
    );
    const MAX_BSGS: usize = 4;
    let params: Vec<(u32, usize)> = CLOS_HOPS
        .iter()
        .flat_map(|&h| (0..=MAX_BSGS).map(move |n| (h, n)))
        .collect();
    let points = sweep_over_seeds(
        effort,
        &params,
        |&(hops, n), seed| {
            let out = run(specs::clos_victim(hops, n), effort, 10.0, seed);
            let victim = converged_outcome(&out).lsg.expect("victim present").summary;
            (victim.p50_us(), victim.p999_us())
        },
        |&(hops, n), per_seed| {
            let (p50s, p999s): (Vec<f64>, Vec<f64>) = per_seed.into_iter().unzip();
            (hops, n, mean(&p50s), mean(&p999s))
        },
    );
    let mut by_hop: Vec<(Series, Series)> = CLOS_HOPS
        .iter()
        .map(|h| {
            let unit = if *h == 1 { "hop" } else { "hops" };
            (
                Series::new(format!("50th ({h} {unit})")),
                Series::new(format!("99.9th ({h} {unit})")),
            )
        })
        .collect();
    for (hops, n, p50, p999) in points {
        let idx = CLOS_HOPS.iter().position(|&h| h == hops).unwrap();
        by_hop[idx].0.push(n as f64, p50);
        by_hop[idx].1.push(n as f64, p999);
    }
    for (s50, s999) in by_hop {
        fig.add_series(s50);
        fig.add_series(s999);
    }
    fig
}

/// The 128-host scale row of the `report` binary (not a paper figure
/// and not addressable through [`by_id`]): victim RTT across the spine
/// of a `k = 8`, `o = 2` leaf–spine — 128 hosts, 16 twelve-port leaves,
/// 4 sixteen-port spines — while 0/4/8 bulk flows converge on the
/// victim's destination from remote leaves. Exercises the largest
/// routed fabric in the suite end to end and feeds its events/sec into
/// BENCH_report.json.
pub fn fattree128(effort: &Effort) -> Figure {
    let mut fig = Figure::new(
        "fattree128",
        "Victim RTT across a 128-host leaf-spine (k=8, o=2) under incast",
        "Number of BSGs",
        "RTT of victim (us)",
    );
    const BSGS: [usize; 3] = [0, 4, 8];
    let points = sweep_over_seeds(
        effort,
        &BSGS,
        |&n, seed| {
            let out = run(specs::fattree_incast(8, 2, 2, n), effort, 10.0, seed);
            let victim = converged_outcome(&out).lsg.expect("victim present").summary;
            (victim.p50_us(), victim.p999_us())
        },
        |&n, per_seed| {
            let (p50s, p999s): (Vec<f64>, Vec<f64>) = per_seed.into_iter().unzip();
            (n, mean(&p50s), mean(&p999s))
        },
    );
    let mut s50 = Series::new("50th");
    let mut s999 = Series::new("99.9th");
    for (n, p50, p999) in points {
        s50.push(n as f64, p50);
        s999.push(n as f64, p999);
    }
    fig.add_series(s50);
    fig.add_series(s999);
    fig
}

/// Runs the generator(s) behind one figure id (`"4"` … `"13"`, or
/// `"clos"` for the fat-tree scale-out experiment).
///
/// Figure 7 produces two figures (7a and 7b) from one sweep; 8 and 9 share
/// a sweep but are addressed separately. Returns `None` for unknown ids.
pub fn by_id(id: &str, effort: &Effort) -> Option<Vec<Figure>> {
    Some(match id {
        "4" => vec![fig4(effort)],
        "5" => vec![fig5(effort)],
        "6" => vec![fig6(effort)],
        "7" => {
            let (a, b) = fig7(effort);
            vec![a, b]
        }
        "8" => vec![fig8_fig9(effort).0],
        "9" => vec![fig8_fig9(effort).1],
        "10" => vec![fig10(effort)],
        "11" => vec![fig11(effort)],
        "12" => vec![fig12(effort)],
        "13" => vec![fig13(effort)],
        "clos" => vec![fig_clos(effort)],
        _ => return None,
    })
}

/// Every figure id [`by_id`] accepts: the paper figures in paper order,
/// then the suite's scale-out extensions.
pub const FIGURE_IDS: [&str; 11] = ["4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "clos"];

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Effort {
        Effort {
            seeds: vec![1],
            scale: 0.05,
            jobs: 1,
            shards: 1,
        }
    }

    #[test]
    fn fig5_has_both_series_over_the_sweep() {
        let fig = fig5(&tiny());
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
        let fig = fig_clos(&tiny());
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
            shards: 1,
        };
        let fig = fattree128(&effort);
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
        let (a, b) = fig7(&tiny());
        let p50 = &a.series[0];
        assert!(p50.y.last().unwrap() > &(p50.y[0] + 10.0));
        let total = &b.series[0];
        for y in &total.y {
            assert!((35.0..56.0).contains(y), "total bandwidth {y}");
        }
    }
}
