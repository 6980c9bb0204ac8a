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
//! A `--gate` value that is not a number in (0, 100), or `--out` with no
//! path after it, exits 2 before any figure runs.
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

use rperf_bench::figures::{SeriesSpec, Sweep};
use rperf_bench::Effort;
use rperf_fabric::KIND_NAMES;
use rperf_stats::{json, Figure, Series};

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

/// Runs one sweep, attributing wall-clock time and processed
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

/// The argument after `flag`: `None` without the flag, `Some(None)` when
/// it is last.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<Option<&'a str>> {
    let i = args.iter().position(|a| a == flag)?;
    Some(args.get(i + 1).map(String::as_str))
}

/// `--out PATH`, by default EXPERIMENTS.md at the checkout root. A
/// missing path (`--out` last, or before another `--flag`) is an error.
fn out_path(args: &[String]) -> Result<PathBuf, String> {
    match flag_value(args, "--out") {
        None => Ok(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md")),
        Some(Some(path)) if !path.starts_with("--") => Ok(PathBuf::from(path)),
        Some(Some(flag)) => Err(format!("`--out` needs a path, got `{flag}`")),
        Some(None) => Err("`--out` needs a path, got nothing".into()),
    }
}

/// `--gate [PCT]`: `None` without the flag, 10 % when no value follows
/// (it is last, or another `--flag` follows), else PCT, which must be a
/// number in (0, 100).
fn gate_pct(args: &[String]) -> Result<Option<f64>, String> {
    match flag_value(args, "--gate") {
        None => Ok(None),
        Some(None) => Ok(Some(10.0)),
        Some(Some(v)) if v.starts_with("--") => Ok(Some(10.0)),
        Some(Some(v)) => match v.parse::<f64>() {
            Ok(pct) if pct > 0.0 && pct < 100.0 => Ok(Some(pct)),
            _ => Err(format!(
                "`--gate` takes a percentage in (0, 100), got `{v}`"
            )),
        },
    }
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

/// One paper check as an EXPERIMENTS.md table: `series`' measured value
/// beside each published `(x, y)` point.
fn check_table(fig: &Figure, series: &Series, spec: &SeriesSpec) -> String {
    let title = fig.id.trim_start_matches("fig");
    let mut out = format!(
        "**Fig. {title} check** (`{}`, {})\n\n\
         | x | paper | measured | ratio |\n|---|---|---|---|\n",
        series.label,
        spec.value.unit()
    );
    for &(x, published) in &spec.checks {
        let measured = series
            .y_at(x)
            .expect("a checked x is one of its series' points");
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
    out.push('\n');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    rperf_bench::reject_unknown_flags(&args, &["--out", "--gate", "--bless"]);
    let effort = Effort::from_args(&args);
    let mut stats: Vec<FigStat> = Vec::new();
    let (out_path, gate_pct) = match (out_path(&args), gate_pct(&args)) {
        (Ok(out), Ok(gate)) => (out, gate),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
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

    for sweep in Sweep::all() {
        let figs = timed(&mut stats, sweep.id, || sweep.run(&effort));
        for fig in &figs {
            md.push_str(&fig.to_markdown());
        }
        md.push_str(&(sweep.note)(&figs));
        for (spec, fig) in sweep.figures.iter().zip(&figs) {
            for (s, series) in spec.series.iter().zip(&fig.series) {
                if !s.checks.is_empty() {
                    md.push_str(&check_table(fig, series, s));
                }
            }
        }
    }

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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn gate_defaults_to_ten_percent_without_a_value() {
        assert_eq!(gate_pct(&args("--quick")), Ok(None));
        assert_eq!(gate_pct(&args("--quick --gate")), Ok(Some(10.0)));
        assert_eq!(gate_pct(&args("--gate --out x.md")), Ok(Some(10.0)));
        assert_eq!(gate_pct(&args("--gate 25")), Ok(Some(25.0)));
        assert_eq!(gate_pct(&args("--gate 0.5")), Ok(Some(0.5)));
    }

    #[test]
    fn gate_rejects_a_value_outside_zero_to_a_hundred() {
        for bad in ["150", "100", "0", "-5", "ten", "NaN", "inf"] {
            let err = gate_pct(&args(&format!("--gate {bad}"))).unwrap_err();
            assert!(err.contains("--gate") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn out_needs_a_path() {
        assert_eq!(out_path(&args("--out x.md")), Ok(PathBuf::from("x.md")));
        assert!(out_path(&args("--quick"))
            .unwrap()
            .ends_with("EXPERIMENTS.md"));
        assert!(out_path(&args("--quick --out"))
            .unwrap_err()
            .contains("--out"));
        let err = out_path(&args("--out --gate 5")).unwrap_err();
        assert!(err.contains("--out") && err.contains("--gate"), "{err}");
    }

    /// `make perf-gate` fails outright when the committed baseline does
    /// not load, so it must have the schema `--gate` reads and a time for
    /// every figure the report times.
    #[test]
    fn committed_baseline_loads_with_every_timed_figure() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
        let base = load_baseline(&path).expect("BENCH_baseline.json loads as a gate baseline");
        assert!(base.total_wall_s > 0.0, "total_wall_s must be positive");
        for sweep in Sweep::all() {
            let id = sweep.id;
            let fig = base
                .figures
                .iter()
                .find(|f| f.id == id)
                .unwrap_or_else(|| panic!("baseline has no wall_s for {id}"));
            assert!(fig.wall_s > 0.0, "{id}: wall_s must be positive");
        }
    }
}
