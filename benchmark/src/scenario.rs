//! Scenario jobs: the set-up measurement, and a pass of every job from
//! text to outcome JSON on the sweep runner.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rperf::{execute, execute_budgeted, ExecBudget, QosMode, ScenarioSpec};
use rperf_fabric::{events_processed_total, FabricBuilder, Topology};
use rperf_model::ClusterConfig;
use rperf_runner::{plan_parallelism, Sweep};

use crate::run::Pass;
use crate::trace::{Recorder, Span};
use crate::workload::Item;

/// Events between cancellation-hook polls of a traced job: each gap is
/// one `fabric.chunk` span.
const CHECK_EVERY: u64 = 65_536;

/// Item ids of set-up spans start here, clear of the jobs' ids.
const SETUP_ITEM_BASE: u64 = 1 << 32;

/// The cluster configuration `execute` derives from a spec.
fn cluster_config(spec: &ScenarioSpec) -> ClusterConfig {
    let cfg = spec.profile.cluster_config().with_policy(spec.policy);
    if spec.qos == QosMode::SharedSl {
        cfg
    } else {
        cfg.with_dedicated_sl()
    }
}

/// Parses, validates and builds the fabric of every distinct spec, in
/// rounds, for at least `min` and one round; returns each round's
/// total seconds. Traced, it records spans into `spans` and also plans
/// each routed topology on its own, as the `subnet.plan` part of the
/// build.
pub(crate) fn setup(
    items: &[Item],
    min: Duration,
    traced: bool,
    epoch: Instant,
    spans: &mut Vec<Span>,
) -> Vec<f64> {
    let mut distinct: Vec<&Item> = Vec::new();
    for it in items {
        if !distinct.iter().any(|d| d.text == it.text) {
            distinct.push(it);
        }
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed() < min {
        let mut total = Duration::ZERO;
        for (k, it) in distinct.iter().enumerate() {
            let id = SETUP_ITEM_BASE + round * distinct.len() as u64 + k as u64;
            let mut rec = Recorder::new(traced, epoch, id);
            let root = rec.open("item", None);
            let t = Instant::now();
            let s = rec.open("core.parse", root);
            let spec = ScenarioSpec::parse(&it.text).expect("job specs parse");
            rec.close(s);
            let s = rec.open("core.validate", root);
            spec.validate().expect("job specs are valid");
            rec.close(s);
            let cfg = cluster_config(&spec);
            let s = rec.open("fabric.build", root);
            let fabric = FabricBuilder::new(cfg.clone(), it.seed).build(&spec.topology);
            rec.close(s);
            total += t.elapsed();
            drop(black_box(fabric));
            if traced {
                let planned = match &spec.topology {
                    Topology::Spec(t) => Some((t.clone(), cfg.switch.ports)),
                    Topology::FatTree(ft) => {
                        let radix = u8::try_from(ft.radix()).unwrap_or(u8::MAX);
                        Some((ft.spec(), cfg.switch.ports.max(radix)))
                    }
                    _ => None,
                };
                if let Some((topo, ports)) = planned {
                    let s = rec.open("subnet.plan", root);
                    let plan = rperf_subnet::plan(&topo, ports);
                    rec.close(s);
                    drop(black_box(plan));
                }
            }
            rec.close(root);
            rec.drain_into(spans);
        }
        samples.push(total.as_secs_f64());
        round += 1;
    }
    samples
}

/// Parses, validates, executes and encodes one job, with a span around
/// each call. Returns the outcome JSON (`None` if any step failed) and
/// how often the cancellation hook was polled.
///
/// Untraced, the job runs through [`rperf::execute`], as the CLI, the
/// figures and the server's callers run it, and only the whole call is
/// timed from outside. Traced, it runs through [`execute_budgeted`] with
/// a hook that never cancels and only marks chunk boundaries.
pub(crate) fn parse_execute_encode(
    text: &str,
    seed: u64,
    rec: &mut Recorder,
    parent: Option<usize>,
) -> (Option<String>, u64) {
    let s = rec.open("core.parse", parent);
    let spec = ScenarioSpec::parse(text);
    rec.close(s);
    let Ok(spec) = spec else {
        return (None, 0);
    };
    let s = rec.open("core.validate", parent);
    let valid = spec.validate();
    rec.close(s);
    if valid.is_err() {
        return (None, 0);
    }
    let exec = rec.open("core.execute", parent);
    let mut polls = 0u64;
    let outcome = if rec.is_on() {
        // Until the first poll the executor builds and starts the fabric;
        // from then on each gap between polls is one chunk of events.
        let mut phase = rec.open("core.start", exec);
        let outcome = {
            let mut hook = || {
                polls += 1;
                rec.close(phase);
                phase = rec.open("fabric.chunk", exec);
                false
            };
            let budget = ExecBudget {
                max_events: u64::MAX,
                check_every: CHECK_EVERY,
                cancelled: Some(&mut hook),
            };
            execute_budgeted(&spec, seed, budget).ok()
        };
        rec.close(phase);
        outcome
    } else {
        Some(execute(&spec, seed))
    };
    rec.close(exec);
    let Some(outcome) = outcome else {
        return (None, polls);
    };
    let s = rec.open("core.encode", parent);
    let json = outcome.to_json();
    rec.close(s);
    (Some(json), polls)
}

/// What one job left behind.
struct JobRun {
    json: Option<String>,
    seconds: f64,
    polls: u64,
    recorder: Recorder,
}

/// One pass: the jobs — unsharded ones together on `threads` sweep
/// workers, each shard count after them with the thread budget split by
/// [`plan_parallelism`], so no more than `threads` threads ever run. A
/// traced pass first records the set-up's spans.
pub(crate) fn pass(items: &[Item], traced: bool, threads: usize) -> Pass {
    let epoch = Instant::now();
    let mut p = Pass::default();
    if traced {
        setup(items, Duration::ZERO, true, epoch, &mut p.spans);
    }

    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, it) in items.iter().enumerate() {
        groups.entry(it.shards).or_default().push(i);
    }
    let mut runs: Vec<Option<JobRun>> = items.iter().map(|_| None).collect();
    let events_before = events_processed_total();
    let start = Instant::now();
    for (shards, ids) in groups {
        let plan = plan_parallelism(threads, shards);
        let group_events = events_processed_total();
        let done = Sweep::new(plan.workers).run(ids.clone(), |_, i| {
            let mut recorder = Recorder::new(traced, epoch, i as u64);
            let t = Instant::now();
            let root = recorder.open("item", None);
            let (json, polls) =
                parse_execute_encode(&items[i].text, items[i].seed, &mut recorder, root);
            recorder.close(root);
            JobRun {
                json,
                seconds: t.elapsed().as_secs_f64(),
                polls,
                recorder,
            }
        });
        if shards > 1 {
            p.shard_events += events_processed_total() - group_events;
            p.shard_windows += done.iter().map(|r| r.polls).sum::<u64>();
        }
        for (i, run) in ids.into_iter().zip(done) {
            p.busy_s += run.seconds * plan.shards_per_job as f64;
            runs[i] = Some(run);
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.events = events_processed_total() - events_before;
    p.exec_events = p.events;

    for run in runs.into_iter().flatten() {
        p.attempted += 1;
        if run.json.is_some() {
            p.completed += 1;
        } else {
            p.failed += 1;
        }
        p.latency_ms.push(run.seconds * 1e3);
        p.longest_s = p.longest_s.max(run.seconds);
        run.recorder.drain_into(&mut p.spans);
        p.outputs.push(run.json);
    }
    p
}
