//! The `make serve-smoke` gate: ≥200 concurrent submissions of the two
//! example scenarios against one in-process server, with one injected
//! worker panic and one malformed frame riding along. Asserts:
//!
//! * every submission resolves typed (here: all succeed, retries absorb
//!   the injected panic),
//! * identical (spec, seed) submissions produce byte-identical outcome
//!   JSON, cold or cached,
//! * the cache hit rate is > 0 after a warm second pass,
//! * the panicked worker was respawned and the malformed frame answered
//!   with a typed `BAD_FRAME` error,
//! * shutdown drains cleanly and flushes a coherent final stats snapshot.
//!
//! Beside it: a fresh connection is answered as soon as it arrives (the
//! acceptor blocks in `accept` rather than polling), and a server bound
//! to an unspecified address still shuts down.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rperf_serve::chaos::{inject_malformed_frame, FaultPlan};
use rperf_serve::protocol::{decode_error, read_frame, resp, ErrorCode, DEFAULT_MAX_PAYLOAD};
use rperf_serve::{Client, ClientConfig, ServeConfig, Server};
use rperf_stats::json::{parse, Value};

/// Runs the tests of this file one at a time: the 200-client burst
/// saturates the host's cores, and the connection-latency test must not
/// time a ping that waited behind it for a core.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reads an example scenario from the repo's `examples/scenarios/`.
fn spec_text(name: &str) -> String {
    let path = format!(
        "{}/../../examples/scenarios/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Pulls a counter out of a parsed stats snapshot.
fn stat(stats: &Value, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats snapshot missing counter `{key}`"))
}

fn client_for(addr: &str, retry_seed: u64) -> Client {
    Client::new(ClientConfig {
        addr: addr.to_string(),
        io_timeout_ms: 120_000,
        attempts: 8,
        backoff_base_ms: 25,
        backoff_cap_ms: 500,
        retry_seed,
    })
}

#[test]
fn two_hundred_concurrent_submissions_with_injected_faults() {
    const SUBMISSIONS: usize = 200;
    const SEEDS: u64 = 3; // 2 specs x 3 seeds = 6 distinct cache keys
    let _serial = serial();

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 8,
        deadline_ms: 90_000,
        io_timeout_ms: 120_000,
        // Kill the worker running the second admitted job, mid-request.
        faults: FaultPlan {
            panic_on_jobs: vec![1],
        },
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();

    let specs: Arc<[String; 2]> =
        Arc::new([spec_text("incast_8.scn"), spec_text("chain_gaming.scn")]);

    // One malformed frame injected concurrently with the burst: the server
    // must answer it typed and keep serving everyone else.
    let malformed = {
        let addr = addr.clone();
        std::thread::spawn(move || inject_malformed_frame(&addr, Duration::from_secs(30)))
    };

    // The cold burst: 200 threads over 6 distinct (spec, seed) keys.
    let mut handles = Vec::with_capacity(SUBMISSIONS);
    for i in 0..SUBMISSIONS {
        let specs = Arc::clone(&specs);
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let spec_idx = i % 2;
            let seed = (i as u64) % SEEDS;
            let outcome = client_for(&addr, i as u64).submit(&specs[spec_idx], seed);
            (spec_idx, seed, outcome)
        }));
    }

    // Every submission must resolve to a typed outcome; with retries
    // covering the one injected panic, all of them succeed here.
    let mut by_key: BTreeMap<(usize, u64), BTreeSet<String>> = BTreeMap::new();
    for h in handles {
        let (spec_idx, seed, outcome) = h.join().expect("client thread panicked");
        let ok = outcome
            .unwrap_or_else(|e| panic!("submission (spec {spec_idx}, seed {seed}) failed: {e}"));
        by_key.entry((spec_idx, seed)).or_default().insert(ok.json);
    }
    assert_eq!(by_key.len(), 2 * SEEDS as usize, "all keys exercised");
    for (key, jsons) in &by_key {
        assert_eq!(
            jsons.len(),
            1,
            "key {key:?} produced {} distinct outcome bodies; identical \
             (spec, seed) must be byte-identical",
            jsons.len()
        );
    }

    // The malformed frame got a typed BAD_FRAME error before the close.
    let reply = malformed
        .join()
        .expect("injector thread panicked")
        .expect("malformed-frame injection failed");
    let frame = read_frame(&mut &reply[..], DEFAULT_MAX_PAYLOAD)
        .expect("reply to a malformed frame is itself a well-formed frame");
    assert_eq!(frame.kind, resp::ERROR);
    let (code, _msg) = decode_error(&frame.payload);
    assert_eq!(code, ErrorCode::BadFrame);

    // Warm second pass: every key must now come straight from the cache,
    // byte-identical to the cold burst.
    for (&(spec_idx, seed), jsons) in &by_key {
        let cold = jsons.iter().next().expect("non-empty by construction");
        let warm = client_for(&addr, 10_000 + seed)
            .submit(&specs[spec_idx], seed)
            .expect("warm submission failed");
        assert!(
            warm.cached,
            "(spec {spec_idx}, seed {seed}) not served from cache"
        );
        assert_eq!(&warm.json, cold, "cached body differs from cold body");
    }

    // Live stats: the panic was caught exactly once, the worker respawned,
    // the cache is earning its keep.
    let stats = parse(&client_for(&addr, 0).stats().expect("stats request failed"))
        .expect("stats snapshot parses");
    assert_eq!(stat(&stats, "worker_panics"), 1);
    assert_eq!(stat(&stats, "workers_respawned"), 1);
    assert_eq!(stat(&stats, "workers_live"), 4);
    assert!(stat(&stats, "bad_frames") >= 1);
    assert!(
        stat(&stats, "cache_hits") >= 2 * SEEDS,
        "hit rate must be > 0"
    );
    assert!(stat(&stats, "results_ok") >= 2 * SEEDS);
    assert!(stat(&stats, "submits") >= SUBMISSIONS as u64);
    assert_eq!(stat(&stats, "draining"), 0);

    // Clean drain: shutdown returns the final snapshot with all workers
    // stopped, and the listener is gone.
    let final_stats = parse(&server.shutdown()).expect("final stats snapshot parses");
    assert_eq!(stat(&final_stats, "draining"), 1);
    assert_eq!(stat(&final_stats, "workers_live"), 0);
    assert!(
        client_for(&addr, 0).ping().is_err(),
        "server still accepting connections after shutdown"
    );
}

#[test]
fn sequential_connections_are_accepted_without_a_poll_delay() {
    const PINGS: u32 = 100;
    let _serial = serial();
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    let client = client_for(&server.addr().to_string(), 0);
    // The fastest of three rounds, so that a spell of load from other
    // processes on the host does not decide the verdict.
    let took = (0..3)
        .map(|_| {
            let start = Instant::now();
            for i in 0..PINGS {
                client
                    .ping()
                    .unwrap_or_else(|e| panic!("ping {i} failed: {e}"));
            }
            start.elapsed()
        })
        .min()
        .expect("three rounds");
    server.shutdown();
    // Each ping opens its own connection. An acceptor that slept between
    // polls made every one wait out part of a sleep (about 2 ms each);
    // a blocking accept answers them in a small fraction of that.
    assert!(
        took < Duration::from_millis(100),
        "{PINGS} sequential pings took {took:?} in the fastest of three rounds"
    );
}

#[test]
fn server_on_an_unspecified_address_shuts_down_and_refuses_pings() {
    let _serial = serial();
    let server = Server::start(ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port on 0.0.0.0");
    assert!(server.addr().ip().is_unspecified());
    let loopback = format!("127.0.0.1:{}", server.addr().port());
    client_for(&loopback, 0)
        .ping()
        .expect("ping over loopback before shutdown");
    // The drain must reach the acceptor through loopback, or shutdown
    // would block in joining it.
    let final_stats = parse(&server.shutdown()).expect("final stats snapshot parses");
    assert_eq!(stat(&final_stats, "draining"), 1);
    assert_eq!(stat(&final_stats, "workers_live"), 0);
    assert_eq!(
        stat(&final_stats, "connections"),
        1,
        "the drain's wake connection is not a client connection"
    );
    assert!(
        client_for(&loopback, 0).ping().is_err(),
        "server still accepting connections after shutdown"
    );
}
