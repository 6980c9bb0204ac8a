//! `rperf-benchmark`: runs the benchmark's workloads, prints every metric
//! by name with its unit, checks the outputs, and ends with one JSON
//! result line.
//!
//! ```text
//! rperf-benchmark [--workload NAME|all] [--seed N] [--seconds 20] [--trace [0|1]]
//! ```
//!
//! A run always measures for [`DEFAULT_SECONDS`] (`run_seconds` in
//! `BENCHMARK.json`), so every run of every commit does the same amount of
//! work; `--seconds` is accepted only with that value.
//!
//! Each workload runs in a child process of its own, so its peak memory
//! and the simulator's process-wide counters are its alone. With
//! `--trace`, traced passes follow the untraced ones, the per-layer
//! metrics replace the end-to-end ones in the result line, and the spans
//! are written to `target/benchmark/trace-<workload>.json`.

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use rperf_benchmark::measure::{describe_ms, median, relative_iqr};
use rperf_benchmark::trace::{self, Span};
use rperf_benchmark::{Run, RunConfig, Workload, DEFAULT_SECONDS};

const USAGE: &str =
    "usage: rperf-benchmark [--workload NAME|all] [--seed N] [--seconds 20] [--trace [0|1]]";

/// A child is killed, and its run fails, this long after its
/// [`DEFAULT_SECONDS`] run out: a run must end within 30 s.
const CHILD_GRACE: Duration = Duration::from_secs(10);

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    trace: bool,
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        trace: false,
        child: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let mut takes_value = true;
        match args[i].as_str() {
            "--workload" => {
                parsed.workloads = match value {
                    Some("all") => Workload::ALL.to_vec(),
                    Some(name) => vec![Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?],
                    None => return Err("--workload needs a name".into()),
                }
            }
            "--seed" => {
                parsed.seed = value
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a whole number")?
            }
            "--seconds" => {
                if value.and_then(|v| v.parse::<f64>().ok()) != Some(DEFAULT_SECONDS) {
                    return Err(format!(
                        "--seconds must be {DEFAULT_SECONDS}, the fixed run length"
                    ));
                }
            }
            "--trace" => {
                // `--trace` alone turns tracing on; `--trace 0|1` sets it.
                parsed.trace = value != Some("0");
                takes_value = matches!(value, Some("0" | "1"));
            }
            "--child" => {
                parsed.child = true;
                takes_value = false;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += if takes_value { 2 } else { 1 };
    }
    Ok(parsed)
}

fn print_run(run: &Run) {
    let c = &run.config;
    println!(
        "rperf-benchmark {}: seed {}, {} jobs per pass, set-ups, a warm-up pass, {} untraced + {} traced passes, {} jobs at once",
        c.workload.name(),
        c.seed,
        run.items.len(),
        run.untraced.len(),
        run.traced.len(),
        run.threads
    );
    println!("end-to-end (untraced passes):");
    for m in run.end_to_end() {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let walls: Vec<f64> = run.untraced.iter().map(|p| p.wall_s).collect();
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "  wall_s spread: IQR {:.2}% of the median over {} passes: {}",
        relative_iqr(&walls) * 100.0,
        walls.len(),
        listed.join(" ")
    );
    let setups = run.setups_s();
    println!(
        "  setup_s: {} set-ups timed before the measured passes; median of all {:.6} s, IQR {:.2}%",
        setups.len(),
        median(&setups),
        relative_iqr(&setups) * 100.0
    );
    println!(
        "  job latency, each job's fastest over the passes: {}",
        describe_ms(run.items.len(), |p| run.latency_ms(p))
    );
    if c.workload != Workload::ServeMixed {
        let best = run.best_ms(|p| &p.latency_ms);
        for (it, ms) in run.items.iter().zip(best) {
            println!("  {ms:>12.3} ms  {}", it.label);
        }
    }
    if c.trace {
        println!("per-layer (traced passes):");
        for m in run.per_layer() {
            println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let last: &[Span] = run.traced.last().map_or(&[], |p| &p.spans);
        let total: u64 = trace::self_by_name(last).iter().map(|s| s.1).sum();
        println!(
            "self time by span, last traced pass ({} spans):",
            last.len()
        );
        for (name, ns) in trace::self_by_name(last) {
            println!(
                "  {name:<30} {:>12.3} ms {:>6.2}%",
                ns as f64 / 1e6,
                ns as f64 * 100.0 / total.max(1) as f64
            );
        }
    }
    for check in &run.checks {
        let verdict = if check.ok { "ok" } else { "FAILED" };
        println!("check {:<26} {verdict:<6} {}", check.name, check.detail);
    }
}

/// Runs one workload in this process and prints its report and result.
fn child(args: &Args) -> ExitCode {
    let workload = args.workloads[0];
    let run = Run::execute(RunConfig {
        workload,
        seed: args.seed,
        seconds: DEFAULT_SECONDS,
        trace: args.trace,
        scale: 1.0,
    });
    print_run(&run);
    if let Some(last) = run.traced.last() {
        let path = format!("target/benchmark/trace-{}.json", workload.name());
        let written = std::fs::create_dir_all("target/benchmark").and_then(|()| {
            std::fs::write(
                &path,
                trace::to_json(workload.name(), args.seed, &last.spans),
            )
        });
        match written {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => eprintln!("rperf-benchmark: cannot write {path}: {e}"),
        }
    }
    println!(
        "# result workload={} seed={} trace={} passes={} digest={:016x}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        run.untraced.len(),
        run.digest()
    );
    println!("{}", run.result_json(args.trace));
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a child process, relaying its output, and fails
/// unless the child exits successfully within its time.
fn run_child(workload: Workload, args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let stdout = child.stdout.take().ok_or("the child has no stdout")?;
    let relay = std::thread::spawn(move || {
        let mut out = std::io::stdout().lock();
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            // Keep draining after our own stdout closes, so the child
            // never blocks on a full pipe.
            let _ = writeln!(out, "{line}").and_then(|()| out.flush());
        }
    });
    let deadline = Instant::now() + Duration::from_secs_f64(DEFAULT_SECONDS) + CHILD_GRACE;
    let status = loop {
        let problem = match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            Ok(None) => format!("{} did not finish in time", workload.name()),
            Err(e) => format!("waiting for {}: {e}", workload.name()),
        };
        let _ = child.kill();
        let _ = child.wait();
        break Err(problem);
    };
    relay.join().map_err(|_| "the output relay panicked")?;
    match status? {
        s if s.success() => Ok(()),
        s => Err(format!("{} failed ({s})", workload.name())),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rperf-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return child(&args);
    }
    let mut ok = true;
    for &w in &args.workloads {
        if let Err(e) = run_child(w, &args) {
            eprintln!("rperf-benchmark: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
