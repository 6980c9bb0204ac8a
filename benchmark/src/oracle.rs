//! What an outcome must satisfy, and what it says about the model: the
//! analytic oracles, the shard twin, and the error against the paper.
//!
//! Outcomes are read back from their JSON — the bytes a user receives —
//! so served and directly executed jobs are judged the same way.

use std::collections::BTreeMap;

use rperf::{Role, ScenarioSpec};
use rperf_model::analytic::wire_limited_goodput_gbps;
use rperf_stats::json::{self, Value};

use crate::run::Check;
use crate::workload::{Item, Measure};

/// Parses each outcome's JSON (`None` for a job that failed).
pub(crate) fn parse(outputs: &[Option<String>]) -> Vec<Option<Value>> {
    outputs
        .iter()
        .map(|o| o.as_deref().and_then(|text| json::parse(text).ok()))
        .collect()
}

fn reports(outcome: &Value) -> &[Value] {
    outcome
        .get("reports")
        .and_then(Value::as_array)
        .unwrap_or(&[])
}

fn kind(report: &Value) -> &str {
    report.get("kind").and_then(Value::as_str).unwrap_or("")
}

fn num(report: &Value, key: &str) -> Option<f64> {
    report.get(key).and_then(Value::as_f64)
}

/// The value `measure` reads off one outcome.
pub(crate) fn measure(outcome: &Value, measure: Measure) -> Option<f64> {
    let mut rs = reports(outcome).iter();
    match measure {
        Measure::RperfP50Us => rs
            .find(|r| kind(r) == "rperf")
            .and_then(|r| num(r.get("rtt_ps")?, "p50_ps"))
            .map(|ps| ps / 1e6),
        Measure::TotalGbps => Some(
            rs.filter(|r| matches!(kind(r), "bsg" | "pretend_lsg"))
                .filter_map(|r| num(r, "gbps"))
                .sum(),
        ),
        Measure::QperfAvgUs => rs
            .find(|r| kind(r) == "qperf")
            .and_then(|r| num(r, "avg_us")),
    }
}

/// Mean `|measured / paper − 1|` over every published point the jobs
/// cover.
pub(crate) fn model_err(items: &[Item], outcomes: &[Option<Value>]) -> f64 {
    let errs: Vec<f64> = items
        .iter()
        .zip(outcomes)
        .filter_map(|(it, o)| Some((it, o.as_ref()?)))
        .flat_map(|(it, o)| {
            it.refs
                .iter()
                .filter_map(|r| Some((measure(o, r.measure)? / r.paper - 1.0).abs()))
        })
        .collect();
    crate::measure::mean(&errs)
}

/// Simulated time the outcomes cover, µs.
pub(crate) fn sim_us(outcomes: &[Option<Value>]) -> f64 {
    outcomes
        .iter()
        .flatten()
        .filter_map(|o| num(o, "end_ps"))
        .sum::<f64>()
        / 1e6
}

/// Completed operations in the outcomes: messages delivered to sinks plus
/// probes and pings answered.
pub(crate) fn completions(outcomes: &[Option<Value>]) -> f64 {
    let per_report = |r: &Value| {
        num(r, "recvs")
            .or_else(|| num(r, "iterations"))
            .or_else(|| num(r.get("rtt_ps")?, "count"))
            .unwrap_or(0.0)
    };
    outcomes
        .iter()
        .flatten()
        .flat_map(|o| reports(o).iter().map(per_report))
        .sum()
}

fn check(name: &'static str, problems: Vec<String>, ok_detail: String) -> Check {
    Check {
        name,
        ok: problems.is_empty(),
        detail: if problems.is_empty() {
            ok_detail
        } else {
            problems.join("; ")
        },
    }
}

/// Every BSG's goodput stays at or below the wire-limited bound for its
/// payload, give or take the two messages that straddle the edges of the
/// measurement window (completed inside it, sent partly outside it).
pub(crate) fn goodput_within_wire(items: &[Item], outcomes: &[Option<Value>]) -> Check {
    let mut problems = Vec::new();
    let mut worst: f64 = 0.0;
    for (it, o) in items.iter().zip(outcomes) {
        let (Some(o), Ok(spec)) = (o, ScenarioSpec::parse(&it.text)) else {
            continue;
        };
        let cfg = spec.profile.cluster_config();
        for r in &spec.roles {
            let Role::Bsg { payload, .. } = r.role else {
                continue;
            };
            let gbps = reports(o)
                .iter()
                .find(|rep| num(rep, "node") == Some(r.node as f64))
                .and_then(|rep| num(rep, "gbps"))
                .unwrap_or(0.0);
            let bound = wire_limited_goodput_gbps(&cfg, payload);
            // Bits per ns are Gbps.
            let edges = 2.0 * payload as f64 * 8.0 / spec.duration.as_ns_f64();
            worst = worst.max(gbps / bound);
            if gbps > bound + edges {
                problems.push(format!(
                    "{}: BSG on node {} at {gbps:.3} Gbps exceeds the {bound:.3} Gbps wire \
                     bound by more than the window's edges ({edges:.3} Gbps)",
                    it.label, r.node
                ));
            }
        }
    }
    check(
        "goodput_within_wire",
        problems,
        format!(
            "highest BSG goodput is {:.1}% of its wire bound",
            worst * 100.0
        ),
    )
}

/// Under FCFS the LSG's median RTT does not fall as BSGs are added.
pub(crate) fn fcfs_monotone(items: &[Item], outcomes: &[Option<Value>]) -> Option<Check> {
    let mut series: BTreeMap<&str, Vec<(usize, f64)>> = BTreeMap::new();
    for (it, o) in items.iter().zip(outcomes) {
        if let (Some((name, n)), Some(o)) = (it.fcfs, o) {
            let p50 = measure(o, Measure::RperfP50Us).unwrap_or(f64::NAN);
            series.entry(name).or_default().push((n, p50));
        }
    }
    if series.is_empty() {
        return None;
    }
    let mut problems = Vec::new();
    for (name, points) in &mut series {
        points.sort_by_key(|p| p.0);
        for pair in points.windows(2) {
            // A missing (NaN) median compares as neither and fails too.
            if pair[1].1.partial_cmp(&pair[0].1).is_none_or(|o| o.is_lt()) {
                problems.push(format!(
                    "{name}: LSG p50 {:.3} us at {} BSGs below {:.3} us at {}",
                    pair[1].1, pair[1].0, pair[0].1, pair[0].0
                ));
            }
        }
    }
    let names: Vec<&str> = series.keys().copied().collect();
    Some(check(
        "fcfs_monotone",
        problems,
        format!("series {}", names.join(", ")),
    ))
}

/// Each shard twin reproduces its timed job byte for byte: `twins` ran
/// with `twin_outputs`, the timed jobs with `outputs`.
pub(crate) fn shard_identity(
    twins: &[Item],
    twin_outputs: &[Option<String>],
    outputs: &[Option<String>],
) -> Option<Check> {
    if twins.is_empty() {
        return None;
    }
    let problems = twins
        .iter()
        .zip(twin_outputs)
        .filter(|(it, out)| {
            let timed = it.twin.and_then(|j| outputs.get(j));
            out.is_none() || timed != Some(*out)
        })
        .map(|(it, _)| format!("{} on {} shards differs from 1 shard", it.label, it.shards))
        .collect();
    Some(check(
        "shard_identity",
        problems,
        format!("{} sharded job(s) match their sequential twin", twins.len()),
    ))
}
