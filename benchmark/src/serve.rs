//! `serve_mixed`'s set-up measurement (server starts) and its pass: an
//! in-process `rperf-serve` with one worker per available thread, driven
//! by closed-loop clients. Each client waits for every reply, as
//! `rperf-cli submit` does, and alternates a cold request (a fresh seed:
//! parse, execute, encode, cache insert) with its exact repeat (answered
//! from the cache).

use std::hint::black_box;
use std::time::{Duration, Instant};

use rperf::ScenarioSpec;
use rperf_fabric::events_processed_total;
use rperf_serve::cache::cache_key;
use rperf_serve::protocol::{
    decode_submit, encode_submit, read_frame, req, write_frame, DEFAULT_MAX_PAYLOAD,
};
use rperf_serve::{
    Client, ClientConfig, ClientError, ServeConfig, Server, SubmitOutcome, CODE_VERSION,
};
use rperf_stats::json;

use crate::run::{Pass, ServeCounts};
use crate::scenario::parse_execute_encode;
use crate::trace::{self, Recorder, Span};
use crate::workload::Item;

/// The pause between a start and its first ping. A first request comes
/// while the acceptor sleep-polls, as a user's does; pinging at once would
/// race the acceptor's first poll and make the sample bimodal.
const SETTLE: Duration = Duration::from_millis(5);

/// Every this many cold replies, the request is re-executed in process
/// and the reply must match it byte for byte.
const REFERENCE_EVERY: usize = 50;

/// Each client pings after this many of its own requests.
const PING_EVERY: usize = 20;

/// Repetitions of the frame and cache-key micro-measurements.
const MICRO_REPS: usize = 1_000;

/// Span item ids of pings start here, clear of request ids.
const PING_ITEM_BASE: u64 = 1 << 32;

fn start_server() -> Server {
    Server::start(ServeConfig {
        workers: rperf_runner::available_parallelism(),
        ..ServeConfig::default()
    })
    .expect("an ephemeral port on 127.0.0.1 is available")
}

fn client(addr: &str, retry_seed: u64) -> Client {
    Client::new(ClientConfig {
        addr: addr.to_string(),
        retry_seed,
        ..ClientConfig::default()
    })
}

/// Times one ping as a `serve.ping` span; whether it was answered.
fn ping(client: &Client, rec: &mut Recorder, parent: Option<usize>) -> bool {
    let s = rec.open("serve.ping", parent);
    let ok = client.ping().is_ok();
    rec.close(s);
    ok
}

/// Times one submission as a `serve.submit` span.
fn submit(
    client: &Client,
    it: &Item,
    rec: &mut Recorder,
    parent: Option<usize>,
) -> (Result<SubmitOutcome, ClientError>, f64) {
    let t = Instant::now();
    let s = rec.open("serve.submit", parent);
    let reply = client.submit(&it.text, it.seed);
    rec.close(s);
    (reply, t.elapsed().as_secs_f64() * 1e3)
}

/// What one client saw.
#[derive(Default)]
struct ClientRun {
    /// `(request index, cold reply JSON, cold latency ms, warm latency
    /// ms)`.
    sent: Vec<(usize, Option<String>, f64, f64)>,
    attempted: u64,
    /// Submissions answered with a result.
    completed: u64,
    failed: u64,
    retries: u64,
    problems: Vec<(&'static str, String)>,
    spans: Vec<Span>,
}

/// Client `c` of `clients` sends requests `c`, `c + clients`, ...
fn drive(
    c: usize,
    clients: usize,
    items: &[Item],
    addr: &str,
    traced: bool,
    epoch: Instant,
) -> ClientRun {
    let client = client(addr, c as u64);
    let mut out = ClientRun::default();
    for (k, i) in (c..items.len()).step_by(clients).enumerate() {
        let mut rec = Recorder::new(traced, epoch, i as u64);
        let root = rec.open("item", None);
        let (cold, cold_ms) = submit(&client, &items[i], &mut rec, root);
        let (warm, warm_ms) = submit(&client, &items[i], &mut rec, root);
        rec.close(root);
        rec.drain_into(&mut out.spans);
        out.attempted += 2;
        for reply in [&cold, &warm] {
            match reply {
                Ok(r) => {
                    out.completed += 1;
                    out.retries += u64::from(r.attempts.saturating_sub(1));
                }
                Err(_) => out.failed += 1,
            }
        }
        if let (Ok(c), Ok(w)) = (&cold, &warm) {
            if c.cached || !w.cached || w.json != c.json {
                out.problems.push((
                    "warm_equals_cold",
                    format!(
                        "request {i}: cold cached {}, warm cached {}, replies equal {}",
                        c.cached,
                        w.cached,
                        w.json == c.json
                    ),
                ));
            }
        }
        out.sent
            .push((i, cold.ok().map(|r| r.json), cold_ms, warm_ms));
        if k % PING_EVERY == PING_EVERY - 1 {
            let mut rec = Recorder::new(traced, epoch, PING_ITEM_BASE + i as u64);
            out.attempted += 1;
            out.failed += u64::from(!ping(&client, &mut rec, None));
            rec.drain_into(&mut out.spans);
        }
    }
    out
}

/// Starts and stops the server, for at least `min` and one start,
/// timing each start with its first answered ping. Returns the seconds of
/// each answered start and how many starts went unanswered.
pub(crate) fn setup(min: Duration) -> (Vec<f64>, u64) {
    let mut samples = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    while samples.is_empty() && failed == 0 || start.elapsed() < min {
        let t = Instant::now();
        let server = start_server();
        let started = t.elapsed();
        std::thread::sleep(SETTLE);
        let t = Instant::now();
        if client(&server.addr().to_string(), 0).ping().is_ok() {
            samples.push((started + t.elapsed()).as_secs_f64());
        } else {
            failed += 1;
        }
        server.shutdown();
    }
    (samples, failed)
}

/// One pass: the load of `clients` clients, then the checks and
/// micro-measurements outside the timed load.
pub(crate) fn pass(items: &[Item], traced: bool, clients: usize) -> Pass {
    let epoch = Instant::now();
    let mut p = Pass::default();

    let server = start_server();
    let addr = server.addr().to_string();
    let events_before = events_processed_total();
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.as_str();
                scope.spawn(move || drive(c, clients, items, addr, traced, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    p.wall_s = start.elapsed().as_secs_f64();
    p.events = events_processed_total() - events_before;
    let stats = json::parse(&server.shutdown()).unwrap_or(json::Value::Null);
    let stat = |key: &str| stats.get(key).and_then(json::Value::as_u64).unwrap_or(0);
    p.serve = ServeCounts {
        cache_hits: stat("cache_hits"),
        cache_misses: stat("cache_misses"),
        shed: stat("shed_busy"),
        deadline_exceeded: stat("deadline_exceeded"),
        ..ServeCounts::default()
    };

    p.outputs = vec![None; items.len()];
    p.latency_ms = vec![0.0; items.len()];
    p.warm_ms = vec![0.0; items.len()];
    for run in runs {
        p.attempted += run.attempted;
        p.failed += run.failed;
        p.completed += run.completed;
        p.serve.retries += run.retries;
        p.problems.extend(run.problems);
        trace::append(&mut p.spans, run.spans);
        for (i, json, cold_ms, warm_ms) in run.sent {
            p.latency_ms[i] = cold_ms;
            p.warm_ms[i] = warm_ms;
            p.outputs[i] = json;
        }
    }

    for i in (0..items.len()).step_by(REFERENCE_EVERY) {
        let mut rec = Recorder::new(traced, epoch, i as u64);
        let root = rec.open("item", None);
        let events = events_processed_total();
        let t = Instant::now();
        let (json, _) = parse_execute_encode(&items[i].text, items[i].seed, &mut rec, root);
        p.reference_ms.push(t.elapsed().as_secs_f64() * 1e3);
        p.exec_events += events_processed_total() - events;
        rec.close(root);
        rec.drain_into(&mut p.spans);
        if json.is_none() || json != p.outputs[i] {
            p.problems.push((
                "reference_equals_served",
                format!("request {i}: the served reply differs from an in-process run"),
            ));
        }
    }
    if traced {
        micro(items, &mut p.serve);
    }
    p
}

/// Mean per-call time of the server's framing and cache-key work, called
/// directly on in-memory buffers.
fn micro(items: &[Item], counts: &mut ServeCounts) {
    let mut distinct: Vec<&Item> = Vec::new();
    for it in items {
        if !distinct.iter().any(|d| d.text == it.text) {
            distinct.push(it);
        }
    }
    let per_call_us = |t: Duration| t.as_secs_f64() * 1e6 / (MICRO_REPS * distinct.len()) as f64;

    let t = Instant::now();
    for _ in 0..MICRO_REPS {
        for it in &distinct {
            let mut wire = Vec::new();
            write_frame(&mut wire, req::SUBMIT, &encode_submit(it.seed, &it.text))
                .expect("writing to memory succeeds");
            let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD)
                .expect("a frame just written reads back");
            black_box(decode_submit(&frame.payload).expect("a submission decodes"));
        }
    }
    counts.frame_us = per_call_us(t.elapsed());

    let specs: Vec<(ScenarioSpec, u64)> = distinct
        .iter()
        .map(|it| {
            (
                ScenarioSpec::parse(&it.text).expect("job specs parse"),
                it.seed,
            )
        })
        .collect();
    let t = Instant::now();
    for _ in 0..MICRO_REPS {
        for (spec, seed) in &specs {
            // What the server does per submission: canonical text with
            // the shard count normalized away, then the key.
            let canonical = spec.clone().with_shards(1).to_text();
            black_box(cache_key(&canonical, *seed, CODE_VERSION));
        }
    }
    counts.cache_key_us = per_call_us(t.elapsed());
}
