//! `compare`: parent versus change over saved benchmark runs.
//!
//! ```text
//! compare [--bench BENCHMARK.json] --parent RUN... --change RUN... [--claim WORKLOAD:METRIC]
//! ```
//!
//! Each RUN is the saved standard output of one single-workload
//! `rperf-benchmark` run; runs pair by workload and seed. Prints one row
//! per workload and end-to-end metric, the failure counts and the outcome
//! digests, and exits 1 when a metric regressed, the change failed more
//! often, a run has no partner of the same seed, a same-seed pair's
//! digests differ, or the claim is not met.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use rperf_benchmark::compare::{bounds, report, RunResult};

const USAGE: &str = "usage: compare [--bench BENCHMARK.json] --parent RUN... --change RUN... \
                     [--claim WORKLOAD:METRIC]";

fn load(paths: &[String]) -> Result<Vec<RunResult>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            RunResult::parse(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut bench = "BENCHMARK.json".to_string();
    let mut claim = None;
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut list: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench = it.next().ok_or("--bench needs a path")?.clone(),
            "--claim" => claim = Some(it.next().ok_or("--claim needs WORKLOAD:METRIC")?.clone()),
            "--parent" => list = Some(&mut parent),
            "--change" => list = Some(&mut change),
            path if !path.starts_with("--") => list
                .as_mut()
                .ok_or("name --parent or --change before the run files")?
                .push(path.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("both --parent and --change need run files".into());
    }
    let text = std::fs::read_to_string(&bench).map_err(|e| format!("{bench}: {e}"))?;
    let bounds = bounds(&text).map_err(|e| format!("{bench}: {e}"))?;
    let (table, ok) = report(&bounds, &load(&parent)?, &load(&change)?, claim.as_deref());
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
