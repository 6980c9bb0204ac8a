//! Runs every figure and writes EXPERIMENTS.md (paper vs measured) plus
//! BENCH_report.json (per-figure wall-clock seconds and processed
//! simulation events, in total and per event kind).
//!
//! Usage: `cargo run --release -p rperf-bench --bin report
//!         [--quick] [--jobs N] [--out PATH] [--gate [PCT]] [--bless]`
//!
//! `--gate` turns the run into a perf-regression gate: after the report is
//! written, every figure's wall seconds — and the total — are compared
//! against the committed BENCH_baseline.json, and the process exits
//! non-zero if any takes more than PCT percent (default 10) longer. Wall
//! time is the metric because it is what a user waits for; events/sec
//! would reward wasted events. The per-figure event counts in
//! BENCH_report.json are deterministic and serve as the exact regression
//! signal beside it.
//!
//! `--bless` re-blesses the baseline: the run's per-figure wall time is
//! max-merged into BENCH_baseline.json (missing baseline: the run is
//! written as-is). `make bench-bless` deletes the old baseline and runs
//! this several times, leaving the per-figure slowest time over N runs —
//! a conservative ceiling that keeps the gate from flaking on scheduler
//! noise.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use rperf_bench::{figures, paper, Effort};
use rperf_fabric::KIND_NAMES;
use rperf_stats::{json, Figure};

/// Wall-clock and event-count attribution for one figure sweep.
struct FigStat {
    id: &'static str,
    wall_s: f64,
    /// Events processed, per kind ([`KIND_NAMES`] order).
    events_by_kind: [u64; KIND_NAMES.len()],
}

impl FigStat {
    fn events(&self) -> u64 {
        self.events_by_kind.iter().sum()
    }
}

/// Figures whose first run finishes below this wall time are re-run (up
/// to [`TIMED_MAX_RUNS`] total) and credited with their fastest run: a
/// sweep over in tens of milliseconds is dominated by scheduler noise
/// and first-touch effects, not by the simulator, and `--gate` needs a
/// stable time to compare.
const TIMED_RERUN_BELOW_S: f64 = 0.25;
const TIMED_MAX_RUNS: u32 = 5;

/// The ids `main` times, in report order: the rows of BENCH_report.json,
/// each of which `--gate` needs in BENCH_baseline.json.
const TIMED_FIGURES: [&str; 11] = [
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8_fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig_clos",
    "fattree_k8",
];

/// Runs one figure generator, attributing wall-clock time and processed
/// simulation events (summed over all worker threads) to it.
fn timed<T>(stats: &mut Vec<FigStat>, id: &'static str, f: impl Fn() -> T) -> T {
    eprintln!("running {id}...");
    let one = || {
        let before = rperf_fabric::events_by_kind_total();
        let start = Instant::now();
        let out = f();
        let wall_s = start.elapsed().as_secs_f64();
        let after = rperf_fabric::events_by_kind_total();
        (out, wall_s, std::array::from_fn(|k| after[k] - before[k]))
    };
    let (mut out, mut wall_s, events_by_kind) = one();
    let mut runs = 1;
    while wall_s < TIMED_RERUN_BELOW_S && runs < TIMED_MAX_RUNS {
        let (rerun_out, rerun_wall, rerun_by_kind) = one();
        // The sweep is deterministic; a drifting event count across
        // back-to-back runs means a real bug, not timing noise.
        assert_eq!(
            rerun_by_kind, events_by_kind,
            "{id}: per-kind event counts changed across identical re-runs"
        );
        out = rerun_out;
        wall_s = wall_s.min(rerun_wall);
        runs += 1;
    }
    let stat = FigStat {
        id,
        wall_s,
        events_by_kind,
    };
    eprintln!(
        "  {id}: {wall_s:.3} s, {} events (best of {runs})",
        stat.events()
    );
    stats.push(stat);
    out
}

/// One figure's committed wall time.
struct BaselineFig {
    id: String,
    wall_s: f64,
}

/// Per-figure and total wall seconds from a previously written
/// BENCH_baseline.json.
struct Baseline {
    total_wall_s: f64,
    figures: Vec<BaselineFig>,
}

/// Loads the committed baseline next to the report, if any. A baseline
/// that exists but fails to parse is reported and treated as absent.
fn load_baseline(path: &std::path::Path) -> Option<Baseline> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("warning: {}: {e}; ignoring baseline", path.display());
            return None;
        }
    };
    let total_wall_s = doc.get("total_wall_s")?.as_f64()?;
    let figures = doc
        .get("figures")?
        .as_array()?
        .iter()
        .filter_map(|f| {
            Some(BaselineFig {
                id: f.get("id")?.as_str()?.to_string(),
                wall_s: f.get("wall_s")?.as_f64()?,
            })
        })
        .collect();
    Some(Baseline {
        total_wall_s,
        figures,
    })
}

/// Timing noise on a short measurement scales roughly with
/// 1/sqrt(wall seconds): back-to-back runs of a 30 ms figure swing ±15%
/// while multi-second figures repeat within a couple percent. Widen the
/// tolerance accordingly so the gate catches real regressions on the
/// figures long enough to measure them, instead of flaking on scheduler
/// jitter. Figures at or above one second — and the total — are gated at
/// the requested percentage exactly.
fn noise_adjusted_pct(pct: f64, baseline_wall_s: f64) -> f64 {
    (pct * (1.0 / baseline_wall_s.max(1e-3)).sqrt().max(1.0)).min(50.0)
}

/// Prints one gate line and reports whether `measured_s` took more than
/// `tol_pct` percent longer than `base_s`.
fn gate_line(id: &str, measured_s: f64, base_s: f64, tol_pct: f64) -> bool {
    let ratio = measured_s / base_s;
    let regressed = ratio > 1.0 + tol_pct / 100.0;
    eprintln!(
        "  {id:>10}: {measured_s:8.3} s vs {base_s:8.3} s baseline ({ratio:.3}x, tol {tol_pct:.0}%){}",
        if regressed { "  REGRESSED" } else { "" }
    );
    regressed
}

/// Compares the measured run against the committed baseline, printing
/// one line per figure plus the total; returns the regression count.
fn gate_against_baseline(baseline: &Baseline, stats: &[FigStat], pct: f64) -> usize {
    let mut regressions = 0;
    for s in stats {
        match baseline.figures.iter().find(|f| f.id == s.id) {
            Some(base) => {
                let tol = noise_adjusted_pct(pct, base.wall_s);
                if gate_line(s.id, s.wall_s, base.wall_s, tol) {
                    regressions += 1;
                }
            }
            None => {
                eprintln!(
                    "  {:>9}: missing from baseline — re-bless BENCH_baseline.json",
                    s.id
                );
                regressions += 1;
            }
        }
    }
    let total_wall: f64 = stats.iter().map(|s| s.wall_s).sum();
    if gate_line("total", total_wall, baseline.total_wall_s, pct) {
        regressions += 1;
    }
    regressions
}

/// Serializes the per-figure stats deterministically (modulo the timings
/// themselves, which are wall-clock measurements). `baseline` is the
/// committed total wall time; `speedup_vs_baseline` is baseline ÷ this
/// run's total, so above 1 means faster.
fn bench_report_json(effort: &Effort, stats: &[FigStat], baseline: Option<f64>) -> String {
    let figures: Vec<String> = stats
        .iter()
        .map(|s| {
            let by_kind = json::object(
                KIND_NAMES
                    .iter()
                    .zip(s.events_by_kind)
                    .map(|(kind, n)| (*kind, json::num(n as f64))),
            );
            json::object([
                ("id", json::string(s.id)),
                ("wall_s", json::num(s.wall_s)),
                ("events", json::num(s.events() as f64)),
                ("events_by_kind", by_kind),
            ])
        })
        .collect();
    let total_wall: f64 = stats.iter().map(|s| s.wall_s).sum();
    let total_events: u64 = stats.iter().map(FigStat::events).sum();
    json::object([
        ("jobs", json::num(effort.jobs as f64)),
        ("seeds", json::num(effort.seeds.len() as f64)),
        ("scale", json::num(effort.scale)),
        ("total_wall_s", json::num(total_wall)),
        ("total_events", json::num(total_events as f64)),
        ("baseline_wall_s", json::num(baseline.unwrap_or(f64::NAN))),
        (
            "speedup_vs_baseline",
            json::num(baseline.map_or(f64::NAN, |b| b / total_wall)),
        ),
        (
            "slab_high_water",
            json::num(rperf_fabric::slab_high_water_total() as f64),
        ),
        (
            "packets_leaked",
            json::num(rperf_fabric::packets_leaked_total() as f64),
        ),
        ("figures", json::array(figures)),
    ])
}

/// Baseline re-blessing: this run's per-figure wall time max-merged with
/// the existing baseline (absent baseline: the run as-is). Repeated
/// invocations converge on the per-figure slowest time over N runs.
fn bless_baseline_json(stats: &[FigStat], existing: Option<&Baseline>) -> String {
    let figures: Vec<String> = stats
        .iter()
        .map(|s| {
            let prior = existing
                .and_then(|b| b.figures.iter().find(|f| f.id == s.id))
                .map_or(0.0, |f| f.wall_s);
            json::object([
                ("id", json::string(s.id)),
                ("wall_s", json::num(s.wall_s.max(prior))),
            ])
        })
        .collect();
    let total_wall: f64 = stats.iter().map(|s| s.wall_s).sum();
    let prior_total = existing.map_or(0.0, |b| b.total_wall_s);
    json::object([
        ("total_wall_s", json::num(total_wall.max(prior_total))),
        ("figures", json::array(figures)),
    ])
}

fn nearest(series_x: &[f64], series_y: &[f64], x: f64) -> Option<f64> {
    series_x
        .iter()
        .position(|&xi| (xi - x).abs() < 1e-9)
        .map(|i| series_y[i])
}

fn compare_rows(fig: &Figure, series_label: &str, refs: &[(f64, f64)]) -> String {
    let mut out = String::new();
    let Some(series) = fig.series.iter().find(|s| s.label == series_label) else {
        return format!("  (series `{series_label}` missing)\n");
    };
    for &(x, published) in refs {
        match nearest(&series.x, &series.y, x) {
            Some(measured) => {
                let ratio = if published != 0.0 {
                    measured / published
                } else {
                    f64::NAN
                };
                let _ = writeln!(
                    out,
                    "| {x} | {published:.2} | {measured:.2} | {ratio:.2}× |"
                );
            }
            None => {
                let _ = writeln!(out, "| {x} | {published:.2} | - | - |");
            }
        }
    }
    out
}

fn comparison_table(
    title: &str,
    fig: &Figure,
    series: &str,
    refs: &[(f64, f64)],
    unit: &str,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "**{title}** (`{series}`, {unit})\n");
    let _ = writeln!(out, "| x | paper | measured | ratio |");
    let _ = writeln!(out, "|---|---|---|---|");
    out.push_str(&compare_rows(fig, series, refs));
    let _ = writeln!(out);
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    rperf_bench::reject_unknown_flags(&args, &["--out", "--gate", "--bless"]);
    let effort = Effort::from_args(&args);
    let mut stats: Vec<FigStat> = Vec::new();
    let out_path: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"));
    // `--gate` alone gates at 10%; `--gate PCT` overrides the threshold.
    let gate_pct: Option<f64> = args.iter().position(|a| a == "--gate").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|p| *p > 0.0 && *p < 100.0)
            .unwrap_or(10.0)
    });
    let bless = args.iter().any(|a| a == "--bless");

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Regenerated by `cargo run --release -p rperf-bench --bin report`\n\
         (effort: {} seed(s), window scale {}). Absolute numbers come from a\n\
         calibrated simulation, not the authors' testbed; the claims under\n\
         test are the *shapes*: who wins, slopes, crossovers, isolation\n\
         factors. Each figure below shows the full measured series followed\n\
         by a side-by-side comparison at the points the paper quotes in its\n\
         text.\n\n\
         Every figure is produced by sweeping declarative scenario specs\n\
         (`rperf::ScenarioSpec`) through the generic executor\n\
         (`rperf::execute`); see DESIGN.md §4.1. Golden tests pin the\n\
         spec-driven output byte-for-byte to the pre-IR harness, and the\n\
         tables are byte-identical for any `--jobs` setting — parallelism\n\
         runs across simulations, each on one thread (DESIGN.md §6), and is\n\
         never part of the result.\n",
        effort.seeds.len(),
        effort.scale
    );

    // Fig. 4.
    let fig4 = timed(&mut stats, "fig4", || figures::fig4(&effort));
    md.push_str(&fig4.to_markdown());
    for (label, refs) in [
        (
            "50th (w/o switch)",
            paper::FIG4_NO_SWITCH_NS
                .iter()
                .map(|&(x, p50, _)| (x, p50))
                .collect::<Vec<_>>(),
        ),
        (
            "99.9th (w/o switch)",
            paper::FIG4_NO_SWITCH_NS
                .iter()
                .map(|&(x, _, p999)| (x, p999))
                .collect(),
        ),
        (
            "50th (w/ switch)",
            paper::FIG4_WITH_SWITCH_NS
                .iter()
                .map(|&(x, p50, _)| (x, p50))
                .collect(),
        ),
        (
            "99.9th (w/ switch)",
            paper::FIG4_WITH_SWITCH_NS
                .iter()
                .map(|&(x, _, p999)| (x, p999))
                .collect(),
        ),
    ] {
        md.push_str(&comparison_table("Fig. 4 check", &fig4, label, &refs, "ns"));
    }

    // Fig. 5.
    let fig5 = timed(&mut stats, "fig5", || figures::fig5(&effort));
    md.push_str(&fig5.to_markdown());
    let refs_no: Vec<(f64, f64)> = paper::FIG5_GBPS.iter().map(|&(x, a, _)| (x, a)).collect();
    let refs_sw: Vec<(f64, f64)> = paper::FIG5_GBPS.iter().map(|&(x, _, b)| (x, b)).collect();
    md.push_str(&comparison_table(
        "Fig. 5 check",
        &fig5,
        "w/o switch",
        &refs_no,
        "Gbps",
    ));
    md.push_str(&comparison_table(
        "Fig. 5 check",
        &fig5,
        "w/ switch",
        &refs_sw,
        "Gbps",
    ));

    // Fig. 6.
    let fig6 = timed(&mut stats, "fig6", || figures::fig6(&effort));
    md.push_str(&fig6.to_markdown());
    let pf50: Vec<(f64, f64)> = paper::FIG6_PERFTEST_US
        .iter()
        .map(|&(x, p, _)| (x, p))
        .collect();
    let pf999: Vec<(f64, f64)> = paper::FIG6_PERFTEST_US
        .iter()
        .map(|&(x, _, t)| (x, t))
        .collect();
    md.push_str(&comparison_table(
        "Fig. 6 check",
        &fig6,
        "50th (Perftest)",
        &pf50,
        "µs",
    ));
    md.push_str(&comparison_table(
        "Fig. 6 check",
        &fig6,
        "99.9th (Perftest)",
        &pf999,
        "µs",
    ));
    md.push_str(&comparison_table(
        "Fig. 6 check",
        &fig6,
        "50th (Qperf)",
        paper::FIG6_QPERF_US,
        "µs",
    ));

    // Figs. 7a/7b.
    let (fig7a, fig7b) = timed(&mut stats, "fig7", || figures::fig7(&effort));
    md.push_str(&fig7a.to_markdown());
    md.push_str(&fig7b.to_markdown());
    let f7a50: Vec<(f64, f64)> = paper::FIG7A_US.iter().map(|&(x, p, _)| (x, p)).collect();
    md.push_str(&comparison_table(
        "Fig. 7a check",
        &fig7a,
        "50th",
        &f7a50,
        "µs",
    ));
    md.push_str(&comparison_table(
        "Fig. 7b check",
        &fig7b,
        "total",
        paper::FIG7B_GBPS,
        "Gbps",
    ));

    // Figs. 8/9.
    let (fig8, fig9) = timed(&mut stats, "fig8_fig9", || figures::fig8_fig9(&effort));
    md.push_str(&fig8.to_markdown());
    md.push_str(&fig9.to_markdown());
    let f8: Vec<(f64, f64)> = paper::FIG8_US.iter().map(|&(x, p, _)| (x, p)).collect();
    md.push_str(&comparison_table("Fig. 8 check", &fig8, "50th", &f8, "µs"));
    md.push_str(&comparison_table(
        "Fig. 9 check",
        &fig9,
        "total",
        paper::FIG9_GBPS,
        "Gbps",
    ));

    // Fig. 10.
    let fig10 = timed(&mut stats, "fig10", || figures::fig10(&effort));
    md.push_str(&fig10.to_markdown());
    let fcfs: Vec<(f64, f64)> = paper::FIG10_FCFS_US
        .iter()
        .map(|&(x, p, _)| (x, p))
        .collect();
    let rr: Vec<(f64, f64)> = paper::FIG10_RR_US.iter().map(|&(x, p, _)| (x, p)).collect();
    md.push_str(&comparison_table(
        "Fig. 10 check",
        &fig10,
        "50th (FCFS)",
        &fcfs,
        "µs",
    ));
    md.push_str(&comparison_table(
        "Fig. 10 check",
        &fig10,
        "50th (RR)",
        &rr,
        "µs",
    ));

    // Fig. 11.
    let fig11 = timed(&mut stats, "fig11", || figures::fig11(&effort));
    md.push_str(&fig11.to_markdown());
    let f11: Vec<(f64, f64)> = paper::FIG11_US
        .iter()
        .enumerate()
        .map(|(i, &(_, p50, _))| (i as f64, p50))
        .collect();
    md.push_str(&comparison_table(
        "Fig. 11 check",
        &fig11,
        "50th",
        &f11,
        "µs",
    ));

    // Fig. 12.
    let fig12 = timed(&mut stats, "fig12", || figures::fig12(&effort));
    md.push_str(&fig12.to_markdown());
    let _ = writeln!(md, "Setups: {:?}\n", figures::FIG12_SETUPS);
    let f12: Vec<(f64, f64)> = paper::FIG12_US
        .iter()
        .enumerate()
        .map(|(i, &(_, p50, _))| (i as f64, p50))
        .collect();
    md.push_str(&comparison_table(
        "Fig. 12 check",
        &fig12,
        "50th",
        &f12,
        "µs",
    ));

    // Fig. 13.
    let fig13 = timed(&mut stats, "fig13", || figures::fig13(&effort));
    md.push_str(&fig13.to_markdown());
    let _ = writeln!(
        md,
        "Paper: pretend LSG {:.1} Gbps, honest BSGs {:.1}–{:.1} Gbps, totals \
         {:.1} (gamed) vs {:.1} (shared).\n",
        paper::FIG13_PRETEND_GBPS,
        paper::FIG13_HONEST_GBPS.0,
        paper::FIG13_HONEST_GBPS.1,
        paper::FIG13_TOTALS_GBPS.0,
        paper::FIG13_TOTALS_GBPS.1
    );

    // Clos scale-out extension (no paper reference values: the paper
    // stops at two switches; these figures answer its open question at
    // fabric scale).
    let fig_clos = timed(&mut stats, "fig_clos", || figures::fig_clos(&effort));
    md.push_str(&fig_clos.to_markdown());
    let slope = |series_idx: usize| {
        let s = &fig_clos.series[series_idx];
        // Per-BSG latency slope over the contended points (>= 1 BSG),
        // where queueing rather than propagation dominates.
        (s.y.last().unwrap() - s.y[1]) / (s.x.last().unwrap() - s.x[1]).max(1.0)
    };
    let _ = writeln!(
        md,
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
           single-switch mechanism.\n",
        fig_clos.series[0].y[0],
        fig_clos.series[2].y[0],
        fig_clos.series[4].y[0],
        slope(0),
        slope(2),
        slope(4),
    );

    // 128-host leaf-spine scale row (wall-time accounting for
    // BENCH_report.json; the figure doubles as a sanity table here).
    let ft128 = timed(&mut stats, "fattree_k8", || figures::fattree128(&effort));
    md.push_str(&ft128.to_markdown());
    let _ = writeln!(
        md,
        "The k = 8, o = 2 leaf-spine (128 hosts, 16 leaves, 4 spines) is\n\
         the largest routed fabric in the suite; the row above is its\n\
         `wall_s` entry in BENCH_report.json.\n"
    );

    let _ = writeln!(
        md,
        "## Take-away scorecard\n\n\
         | Paper claim | Holds here? |\n|---|---|\n\
         | Back-to-back RTT well under 100 ns at all payloads (Fig. 4) | yes |\n\
         | Switch adds ~400 ns RTT and a ~200 ns tail even unloaded (Fig. 4) | yes |\n\
         | >90 % of link capacity with large payloads, <10 % at 64 B (Fig. 5) | yes |\n\
         | Existing tools overstate switch latency ~5–10× (Fig. 6 vs Fig. 4) | yes |\n\
         | Each added BSG costs the LSG ~5 µs; no latency isolation (Fig. 7a) | yes |\n\
         | Aggregate bandwidth droops as BSGs converge (Fig. 7b) | yes |\n\
         | Small BSG payloads save latency or large ones save bandwidth, not both (Figs. 8–9) | yes |\n\
         | FCFS explains the hardware; RR protects the LSG single-hop (Fig. 10) | yes |\n\
         | RR fails once the LSG shares a trunk (Fig. 11) | yes |\n\
         | Dedicated SL/VL protects the LSG without bandwidth cost (Fig. 12) | yes |\n\
         | A pretend LSG games QoS for ~3× an honest share (Fig. 13) | yes |\n"
    );

    let _ = writeln!(
        md,
        "## Known deviations\n\n\
         Documented with mechanisms in DESIGN.md §7: the FCFS waiting\n\
         intercept is one buffer (≈5 µs) above the paper's at low BSG\n\
         counts (slope and 5-BSG values match); multi-hop RR shows no\n\
         advantage over FCFS (the paper shows a residual 20 %); absolute\n\
         baseline-tool latencies sit ~10–20 % under the published values.\n"
    );

    // Static snapshot, not measured by this run: EXPERIMENTS.md is
    // byte-diffed between jobs=1 and jobs=4 CI runs, so no live timing
    // may appear here. PR 1/PR 3 figures were recorded on the reference
    // machine at those commits; the PR 7 column is the blessed
    // per-figure floor (min over 3 runs, BENCH_baseline.json). Live
    // numbers for the current build are in BENCH_report.json.
    let _ = writeln!(
        md,
        "## Performance trajectory (quick report, jobs=1, Mevents/s)\n\n\
         Reference-machine snapshots across the optimization PRs: PR 1\n\
         (first full report), PR 3 (flat event dispatch + timer wheel),\n\
         PR 7 (batched delivery, SoA switch buffers, dense QP table,\n\
         busy-wire wake fast path, min-tick cascade jump). The PR 7\n\
         column is the conservative blessed floor — the per-figure\n\
         minimum over three runs that `make bench-bless` committed to\n\
         `BENCH_baseline.json`; single runs on an idle box reach\n\
         20–24 Mevents/s aggregate.\n\n\
         | figure | PR 1 | PR 3 | PR 7 (blessed floor) |\n\
         |---|---|---|---|\n\
         | fig4 | 6.08 | 6.25 | 16.39 |\n\
         | fig5 | 6.04 | 10.43 | 19.54 |\n\
         | fig6 | 6.87 | 6.24 | 17.02 |\n\
         | fig7 | 4.89 | 9.79 | 15.72 |\n\
         | fig8_fig9 | 4.21 | 5.27 | 9.55 |\n\
         | fig10 | 4.93 | 9.69 | 18.81 |\n\
         | fig11 | 5.54 | 4.74 | 13.10 |\n\
         | fig12 | 5.28 | 4.67 | 13.05 |\n\
         | fig13 | 5.33 | 5.38 | 14.71 |\n\
         | **aggregate** | **5.06** | **9.65** | **18.53** |\n"
    );

    let _ = writeln!(
        md,
        "## Cached vs cold results (rperf-serve)\n\n\
         Every number above comes from a cold run. When scenarios are\n\
         submitted through the `rperf-serve` service instead, repeat\n\
         submissions of the same (spec, seed) on the same build are\n\
         answered from a content-addressed cache; the reply is the exact\n\
         byte sequence the cold run produced (enforced by the chaos test\n\
         `cached_replay_is_byte_identical_to_cold_and_local`), so caching\n\
         changes latency only, never results. The cache key folds in the\n\
         code version, so a rebuild never replays stale outcomes. See\n\
         DESIGN.md §8.\n"
    );

    assert!(
        stats.iter().map(|s| s.id).eq(TIMED_FIGURES),
        "TIMED_FIGURES must list the timed figures in report order"
    );

    std::fs::write(&out_path, md).expect("write EXPERIMENTS.md");
    eprintln!("wrote {}", out_path.display());

    let bench_path = out_path.with_file_name("BENCH_report.json");
    let baseline_path = out_path.with_file_name("BENCH_baseline.json");
    let baseline = load_baseline(&baseline_path);
    std::fs::write(
        &bench_path,
        bench_report_json(&effort, &stats, baseline.as_ref().map(|b| b.total_wall_s)) + "\n",
    )
    .expect("write BENCH_report.json");
    let total_wall: f64 = stats.iter().map(|s| s.wall_s).sum();
    let total_events: u64 = stats.iter().map(FigStat::events).sum();
    eprintln!(
        "wrote {} ({} jobs, {total_wall:.2} s wall, {total_events} events)",
        bench_path.display(),
        effort.jobs,
    );
    if let Some(b) = &baseline {
        eprintln!(
            "  vs BENCH_baseline.json: {:.2} s baseline, {:.2}x faster",
            b.total_wall_s,
            b.total_wall_s / total_wall
        );
    }
    eprintln!(
        "  packet slab: high-water {} live handles, {} leaked",
        rperf_fabric::slab_high_water_total(),
        rperf_fabric::packets_leaked_total()
    );

    // A leaked handle means some packet was injected but never freed at
    // its destination — a correctness bug, not a performance detail.
    if rperf_fabric::packets_leaked_total() > 0 {
        eprintln!("error: packet handles leaked; failing the report");
        std::process::exit(1);
    }

    if bless {
        std::fs::write(
            &baseline_path,
            bless_baseline_json(&stats, baseline.as_ref()) + "\n",
        )
        .expect("write BENCH_baseline.json");
        eprintln!(
            "blessed {} (per-figure max wall time with any prior baseline)",
            baseline_path.display()
        );
    }

    if let Some(pct) = gate_pct {
        let Some(base) = &baseline else {
            eprintln!(
                "error: --gate needs a committed baseline at {}",
                baseline_path.display()
            );
            std::process::exit(1);
        };
        eprintln!("perf gate: fail if any figure or the total takes >{pct}% longer than baseline");
        let regressions = gate_against_baseline(base, &stats, pct);
        if regressions > 0 {
            eprintln!(
                "error: {regressions} perf regression(s) beyond {pct}%; if the slowdown is \
                 intentional, re-bless with `make bench-bless`"
            );
            std::process::exit(1);
        }
        eprintln!("perf gate: ok (all figures within {pct}% of baseline wall time)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `make perf-gate` fails outright when the committed baseline does
    /// not load, so it must have the schema `--gate` reads and a time for
    /// every figure the report times.
    #[test]
    fn committed_baseline_loads_with_every_timed_figure() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
        let base = load_baseline(&path).expect("BENCH_baseline.json loads as a gate baseline");
        assert!(base.total_wall_s > 0.0, "total_wall_s must be positive");
        for id in TIMED_FIGURES {
            let fig = base
                .figures
                .iter()
                .find(|f| f.id == id)
                .unwrap_or_else(|| panic!("baseline has no wall_s for {id}"));
            assert!(fig.wall_s > 0.0, "{id}: wall_s must be positive");
        }
    }
}
