//! The deterministic chaos schedule (ISSUE 6 acceptance): scripted
//! faults — a worker killed mid-request, truncated frames, stalled
//! clients, an overload burst past the admission bound, a request whose
//! budget cannot cover its simulation — each must surface as a *typed*
//! outcome, never a hang, and the server must keep serving afterwards.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use rperf_serve::chaos::{inject_stalled_client, inject_truncated_frame, FaultPlan};
use rperf_serve::protocol::{
    decode_error, encode_submit, read_frame, req, resp, write_frame, ErrorCode, DEFAULT_MAX_PAYLOAD,
};
use rperf_serve::{Client, ClientConfig, ClientError, ServeConfig, Server};
use rperf_stats::json::{parse, Value};

fn spec_text(name: &str) -> String {
    let path = format!(
        "{}/../../examples/scenarios/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn stat(stats: &Value, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats snapshot missing counter `{key}`"))
}

fn one_shot_client(addr: &str) -> Client {
    Client::new(ClientConfig {
        addr: addr.to_string(),
        io_timeout_ms: 60_000,
        attempts: 1,
        ..ClientConfig::default()
    })
}

/// Worker killed mid-request: the waiter gets a typed `WORKER_PANIC`
/// (no retry masking it), the pool respawns, and the very next request
/// succeeds on the replacement worker.
#[test]
fn worker_panic_mid_request_is_typed_and_recovered() {
    let server = Server::start(ServeConfig {
        workers: 1,
        faults: FaultPlan {
            panic_on_jobs: vec![0],
        },
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();
    let spec = spec_text("incast_8.scn");

    // WORKER_PANIC is transient to the client (the pool respawns), so a
    // one-shot client reports it as exhaustion wrapping the typed code.
    match one_shot_client(&addr).submit(&spec, 1) {
        Err(ClientError::Exhausted { last, .. }) => {
            assert!(
                last.contains("WORKER_PANIC"),
                "untyped panic outcome: {last}"
            )
        }
        other => panic!("expected a typed WORKER_PANIC, got {other:?}"),
    }

    // The replacement worker serves the retry — same key, cold cache.
    let ok = one_shot_client(&addr)
        .submit(&spec, 1)
        .expect("replacement worker must serve the retry");
    assert!(!ok.cached);

    let stats = parse(&server.shutdown()).expect("final stats parse");
    assert_eq!(stat(&stats, "worker_panics"), 1);
    assert_eq!(stat(&stats, "workers_respawned"), 1);
    assert_eq!(stat(&stats, "results_ok"), 1);
}

/// A truncated frame (header promises more bytes than arrive) is an I/O
/// timeout, not a crash: the connection dies quietly and the server keeps
/// answering well-formed traffic.
#[test]
fn truncated_frame_times_out_quietly() {
    let server = Server::start(ServeConfig {
        io_timeout_ms: 300,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    let reply = inject_truncated_frame(&addr, Duration::from_secs(5))
        .expect("truncated-frame injection failed");
    assert!(
        reply.is_empty(),
        "a truncated frame must be dropped, not answered: got {} bytes",
        reply.len()
    );

    one_shot_client(&addr)
        .ping()
        .expect("server must survive a truncated frame");
    let _ = server.shutdown();
}

/// A stalled (slow-loris) client is disconnected once the read timeout
/// lapses, and the listener keeps accepting.
#[test]
fn stalled_client_is_disconnected_by_the_read_timeout() {
    let server = Server::start(ServeConfig {
        io_timeout_ms: 200,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    let closed = inject_stalled_client(&addr, Duration::from_millis(900))
        .expect("stalled-client injection failed");
    assert!(
        closed,
        "server left a stalled connection open past its read timeout"
    );

    one_shot_client(&addr)
        .ping()
        .expect("server must survive a stalled client");
    let _ = server.shutdown();
}

/// An overload burst past the bounded admission queue sheds with typed
/// `SERVER_BUSY` — nobody hangs, and the requests that were admitted all
/// complete.
#[test]
fn overload_burst_sheds_with_typed_busy() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        deadline_ms: 60_000,
        io_timeout_ms: 60_000,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    // A slower variant of the example scenario widens the window in which
    // the burst lands on a busy pool.
    let spec = spec_text("incast_8.scn").replace("duration_ms = 2", "duration_ms = 10");
    assert!(
        spec.contains("duration_ms = 10"),
        "smoke spec shape changed"
    );

    let mut handles = Vec::new();
    for seed in 0..16u64 {
        let addr = addr.clone();
        let spec = spec.clone();
        handles.push(std::thread::spawn(move || {
            one_shot_client(&addr).submit(&spec, seed)
        }));
    }

    let mut served = 0u64;
    let mut shed = 0u64;
    for h in handles {
        match h.join().expect("client thread panicked") {
            Ok(_) => served += 1,
            // attempts = 1, so a shed surfaces as Exhausted wrapping the
            // typed SERVER_BUSY (retries would have absorbed it).
            Err(ClientError::Exhausted { last, .. }) if last.contains("SERVER_BUSY") => {
                shed += 1;
            }
            Err(other) => panic!("untyped overload outcome: {other}"),
        }
    }
    assert_eq!(served + shed, 16);
    assert!(served >= 1, "at least the admitted requests must complete");
    assert!(
        shed >= 1,
        "a 16-deep burst into workers=1/queue=1 must shed"
    );

    let stats = parse(&server.shutdown()).expect("final stats parse");
    assert_eq!(stat(&stats, "shed_busy"), shed);
    assert_eq!(stat(&stats, "results_ok"), served);
}

/// A request whose event budget cannot cover its simulation gets a typed
/// `DEADLINE_EXCEEDED` — deterministically, via the executor's
/// cooperative cancellation machinery rather than a wall-clock race.
#[test]
fn exhausted_budget_is_a_typed_deadline() {
    let server = Server::start(ServeConfig {
        max_events: 1_000,
        check_every: 256,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr().to_string();

    match one_shot_client(&addr).submit(&spec_text("incast_8.scn"), 2) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::DeadlineExceeded)
        }
        other => panic!("expected a typed DEADLINE_EXCEEDED, got {other:?}"),
    }

    let stats = parse(&server.shutdown()).expect("final stats parse");
    assert!(stat(&stats, "deadline_exceeded") >= 1);
    assert_eq!(stat(&stats, "results_ok"), 0);
}

/// A fat tree too wide for 255-port switches is a typed spec error, not
/// a worker panic, and no worker ever sees it.
#[test]
fn oversized_fat_tree_is_a_typed_parse_error() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let text = "name = \"wide\"\n[topology]\nkind = \"fattree\"\nk = 300\ntiers = 2\n\n\
                [[role]]\nnode = 0\nkind = \"sink\"\n";

    match one_shot_client(&addr).submit(text, 1) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::ParseError, "{message}");
            assert!(message.contains("255 ports"), "{message}");
        }
        other => panic!("expected a typed PARSE_ERROR, got {other:?}"),
    }

    let stats = parse(&server.shutdown()).expect("final stats parse");
    assert_eq!(stat(&stats, "parse_errors"), 1);
    assert_eq!(stat(&stats, "worker_panics"), 0);
}

/// Specs that parse but could not be built or clocked — a switch past
/// its port budget, a disconnected or self-trunked graph, a run window
/// past the simulated clock — are typed `INVALID_SPEC`s, refused before
/// any worker builds a fabric.
#[test]
fn unbuildable_specs_are_typed_invalid_spec() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let cases = [
        "[topology]\nkind = \"single_switch\"\nhosts = 13",
        "[topology]\nkind = \"two_switch\"\nupstream = 12\ndownstream = 1",
        "[topology]\nkind = \"chain\"\nhosts_per_switch = [12, 1]",
        "[topology]\nkind = \"star\"\nleaves = 13\nhosts_per_leaf = 1",
        "[topology]\nkind = \"custom\"\nswitches = 3\nhost_attachments = [0, 2]\ntrunks = [[0, 1]]",
        "[topology]\nkind = \"custom\"\nswitches = 2\nhost_attachments = [0]\ntrunks = [[1, 1]]",
        "[topology]\nkind = \"custom\"\nswitches = 1000000000000000000\nhost_attachments = [0]",
        "duration_ms = 1e30\n[topology]\nkind = \"direct_pair\"",
    ];
    for head in cases {
        let text = format!("{head}\n\n[[role]]\nnode = 0\nkind = \"sink\"\n");
        match one_shot_client(&addr).submit(&text, 1) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::InvalidSpec),
            other => panic!("expected a typed INVALID_SPEC for\n{text}\ngot {other:?}"),
        }
    }

    let stats = parse(&server.shutdown()).expect("final stats parse");
    assert_eq!(stat(&stats, "invalid_specs"), cases.len() as u64);
    assert_eq!(stat(&stats, "worker_panics"), 0);
}

/// Cache cold-vs-hit byte identity: the served response equals a local
/// `rperf::execute` of the same (spec, seed) byte-for-byte, and the cached
/// replay equals the cold response.
#[test]
fn cached_replay_is_byte_identical_to_cold_and_local() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let text = spec_text("chain_gaming.scn");

    let spec = rperf::ScenarioSpec::parse(&text).expect("example spec parses");
    let local = rperf::execute(&spec, 7).to_json();

    let cold = one_shot_client(&addr)
        .submit(&text, 7)
        .expect("cold submit");
    assert!(!cold.cached);
    assert_eq!(cold.json, local, "served outcome differs from a local run");

    let warm = one_shot_client(&addr)
        .submit(&text, 7)
        .expect("warm submit");
    assert!(warm.cached, "identical (spec, seed) must hit the cache");
    assert_eq!(warm.json, cold.json);

    // A different seed is a different key: cold again.
    let other = one_shot_client(&addr)
        .submit(&text, 8)
        .expect("other-seed submit");
    assert!(!other.cached);

    let stats = parse(&server.shutdown()).expect("final stats parse");
    assert_eq!(stat(&stats, "cache_hits"), 1);
    assert_eq!(stat(&stats, "cache_misses"), 2);
}

/// Graceful drain: once a SHUTDOWN is acknowledged, already-open
/// connections that submit new work get a typed `SHUTTING_DOWN`, and the
/// final snapshot records the rejection.
#[test]
fn drain_rejects_new_submissions_with_typed_shutting_down() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();

    // Open a connection *before* the drain begins...
    let mut early = TcpStream::connect(&addr).expect("connect before drain");
    early
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    // ...then drain; the OK is only written after the draining flag is set.
    one_shot_client(&addr)
        .shutdown()
        .expect("SHUTDOWN handshake");
    assert!(server.is_draining());

    let payload = encode_submit(99, &spec_text("incast_8.scn"));
    write_frame(&mut early, req::SUBMIT, &payload).expect("submit on pre-drain connection");
    early.flush().expect("flush");
    let frame = read_frame(&mut early, DEFAULT_MAX_PAYLOAD).expect("typed reply while draining");
    assert_eq!(frame.kind, resp::ERROR);
    let (code, _msg) = decode_error(&frame.payload);
    assert_eq!(code, ErrorCode::ShuttingDown);
    drop(early);

    let stats = parse(&server.run_until_shutdown()).expect("final stats parse");
    assert_eq!(stat(&stats, "shutdown_rejected"), 1);
    assert_eq!(stat(&stats, "draining"), 1);
    assert_eq!(stat(&stats, "workers_live"), 0);
}
