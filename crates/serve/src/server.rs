//! The daemon: acceptor, connection handlers, warm worker pool, result
//! cache, load shedding and graceful drain (DESIGN.md §8).
//!
//! Robustness invariants this module enforces end-to-end:
//!
//! * **Deadlines** — every submission gets `deadline_ms` of wall clock,
//!   measured from frame receipt. The budget covers queue wait *and*
//!   simulation (a cooperative cancellation hook polls the clock between
//!   event chunks inside `rperf::execute_budgeted`), and socket
//!   read/write timeouts bound the transport on both sides.
//! * **Bounded admission** — the worker pool's queue is a fixed-depth
//!   `sync_channel`; when it is full the server *sheds* with a typed
//!   `BUSY` + retry-after hint instead of queueing unboundedly.
//! * **Panic isolation** — a worker panic is caught at the job boundary
//!   (`rperf_runner::WorkerPool`); the poisoned request is answered with
//!   a typed `WORKER_PANIC` error by a reply drop-guard that runs during
//!   unwinding, and a replacement worker restores capacity.
//! * **Request coalescing** — concurrent submissions of the same
//!   (spec, seed) share one simulation: later arrivals register as
//!   waiters on the in-flight key instead of duplicating work.
//! * **Graceful drain** — the acceptor blocks in `accept`, so a drain
//!   wakes it with one loopback connection to the listener's own port,
//!   which it drops uncounted before it exits; new submits are rejected
//!   with `SHUTTING_DOWN`, in-flight work finishes or deadlines out, and
//!   the final stats snapshot is flushed. Every wait on the drain is a
//!   condition-variable wait, notified where the state changes.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rperf::{execute_budgeted, ExecBudget, ScenarioSpec};
use rperf_runner::{SubmitError, WorkerPool};
use rperf_stats::json;

use crate::cache::{cache_key, ResultCache};
use crate::chaos::FaultPlan;
use crate::protocol::{
    decode_submit, encode_busy, encode_error, read_frame, req, resp, write_frame, ErrorCode,
    FrameError,
};

/// Identifies the build for cache-key derivation: outcomes are a pure
/// function of (spec, seed, code version), so a version bump fences all
/// cached results from older code.
pub const CODE_VERSION: &str = concat!("rperf-serve/", env!("CARGO_PKG_VERSION"));

/// The longest the acceptor waits after a failed `accept` before trying
/// again; a closing connection or a drain ends the wait sooner.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Server tunables. `Default` suits tests and local runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads in the warm pool.
    pub workers: usize,
    /// Bounded admission-queue depth; beyond it, submissions shed.
    pub queue_depth: usize,
    /// Result-cache capacity in entries.
    pub cache_entries: usize,
    /// Per-request wall-clock budget (queue wait + simulation), ms.
    pub deadline_ms: u64,
    /// Socket read/write timeout, ms (also the idle-connection bound).
    pub io_timeout_ms: u64,
    /// Cap on frame payload length, bytes.
    pub max_payload: u32,
    /// Cap on simulated events per request (`u64::MAX` = deadline only).
    pub max_events: u64,
    /// Events between cancellation-hook polls in the executor.
    pub check_every: u64,
    /// Deterministic fault schedule (chaos testing).
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            cache_entries: 256,
            deadline_ms: 30_000,
            io_timeout_ms: 10_000,
            max_payload: crate::protocol::DEFAULT_MAX_PAYLOAD,
            max_events: u64::MAX,
            check_every: 8_192,
            faults: FaultPlan::default(),
        }
    }
}

/// Monotonic service counters, exported via the STATS response.
#[derive(Debug, Default)]
struct Stats {
    connections: AtomicU64,
    requests: AtomicU64,
    submits: AtomicU64,
    results_ok: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced: AtomicU64,
    shed_busy: AtomicU64,
    deadline_exceeded: AtomicU64,
    parse_errors: AtomicU64,
    invalid_specs: AtomicU64,
    bad_frames: AtomicU64,
    shutdown_rejected: AtomicU64,
}

macro_rules! bump {
    ($shared:expr, $field:ident) => {
        $shared.stats.$field.fetch_add(1, Ordering::Relaxed)
    };
}

/// What a worker reports back to every waiter of one cache key.
#[derive(Clone)]
enum Reply {
    Done(Arc<String>),
    Deadline,
    Panicked,
}

/// One admitted unit of work.
struct Job {
    seq: u64,
    key: u128,
    spec: ScenarioSpec,
    seed: u64,
    deadline: Instant,
}

struct Shared {
    cfg: ServeConfig,
    /// The listener's bound address, where a drain wakes the acceptor.
    addr: SocketAddr,
    stats: Stats,
    cache: Mutex<ResultCache>,
    waiters: Mutex<std::collections::BTreeMap<u128, Vec<SyncSender<Reply>>>>,
    pool: WorkerPool<Job>,
    draining: AtomicBool,
    job_seq: AtomicU64,
    /// Connection threads alive; `lifecycle` is notified when one exits.
    conns_live: Mutex<usize>,
    /// Notified when a drain begins and when a connection thread exits.
    lifecycle: Condvar,
}

/// Sends `reply` to every waiter registered under `key`.
fn broadcast(shared: &Shared, key: u128, reply: &Reply) {
    let mut map = shared.waiters.lock().expect("waiters lock poisoned");
    if let Some(txs) = map.remove(&key) {
        for tx in txs {
            // A waiter that already gave up (deadline) dropped its
            // receiver; its slot errors out harmlessly.
            let _ = tx.send(reply.clone());
        }
    }
}

/// Guarantees every admitted job answers its waiters, even when the
/// worker panics mid-run: `Drop` runs during unwinding and broadcasts a
/// typed `WORKER_PANIC` reply, so the poisoned request never hangs.
struct ReplyGuard {
    shared: Arc<Shared>,
    key: u128,
    armed: bool,
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if self.armed {
            broadcast(&self.shared, self.key, &Reply::Panicked);
        }
    }
}

/// Runs one admitted job on a pool worker.
fn run_job(shared: &Arc<Shared>, job: Job) {
    let mut guard = ReplyGuard {
        shared: Arc::clone(shared),
        key: job.key,
        armed: true,
    };
    // Queued past the deadline? Refuse to start: the waiter has already
    // timed out or is about to, and simulating for nobody wastes a worker.
    if Instant::now() >= job.deadline {
        bump!(shared, deadline_exceeded);
        broadcast(shared, job.key, &Reply::Deadline);
        guard.armed = false;
        return;
    }
    if shared.cfg.faults.should_panic(job.seq) {
        panic!("chaos: injected worker panic on job {}", job.seq);
    }
    let deadline = job.deadline;
    let mut cancelled = move || Instant::now() >= deadline;
    let budget = ExecBudget {
        max_events: shared.cfg.max_events,
        check_every: shared.cfg.check_every,
        cancelled: Some(&mut cancelled),
    };
    match execute_budgeted(&job.spec, job.seed, budget) {
        Ok(outcome) => {
            let bytes = Arc::new(outcome.to_json());
            shared
                .cache
                .lock()
                .expect("cache lock poisoned")
                .insert(job.key, Arc::clone(&bytes));
            bump!(shared, results_ok);
            broadcast(shared, job.key, &Reply::Done(bytes));
        }
        Err(_interrupt) => {
            // Wall-clock cancellation and event-budget exhaustion both
            // surface as a deadline to the client: the request cost more
            // than its budget allows.
            bump!(shared, deadline_exceeded);
            broadcast(shared, job.key, &Reply::Deadline);
        }
    }
    guard.armed = false;
}

/// A running server; dropping it does **not** stop the daemon — call
/// [`Server::shutdown`] for a graceful drain.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("draining", &self.shared.draining.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds, spawns the warm worker pool and the acceptor, and returns.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new_cyclic(|weak: &std::sync::Weak<Shared>| {
            let weak = weak.clone();
            let pool = WorkerPool::new(cfg.workers, cfg.queue_depth, move |job: Job| {
                if let Some(shared) = weak.upgrade() {
                    run_job(&shared, job);
                }
            });
            Shared {
                addr,
                cache: Mutex::new(ResultCache::new(cfg.cache_entries)),
                waiters: Mutex::new(std::collections::BTreeMap::new()),
                pool,
                draining: AtomicBool::new(false),
                job_seq: AtomicU64::new(0),
                conns_live: Mutex::new(0),
                lifecycle: Condvar::new(),
                stats: Stats::default(),
                cfg,
            }
        });

        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("rperf-serve-accept".to_string())
            .spawn(move || accept_loop(listener, acceptor_shared))?;

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a drain has begun (locally or via a SHUTDOWN frame).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// A point-in-time stats snapshot as deterministic-writer JSON.
    pub fn stats_json(&self) -> String {
        stats_json(&self.shared)
    }

    /// Blocks until a drain begins (e.g. a client sent SHUTDOWN), then
    /// completes it; returns the final stats snapshot.
    pub fn run_until_shutdown(mut self) -> String {
        let live = self.shared.conns_live();
        drop(
            self.shared
                .lifecycle
                .wait_while(live, |_| !self.is_draining())
                .expect("conns_live lock poisoned"),
        );
        self.finish_drain()
    }

    /// Gracefully drains: stop accepting, reject new submits, let
    /// in-flight work finish or deadline out, stop the workers, flush
    /// stats. Returns the final stats snapshot.
    pub fn shutdown(mut self) -> String {
        self.shared.begin_drain();
        self.finish_drain()
    }

    fn finish_drain(&mut self) -> String {
        let cfg = &self.shared.cfg;
        // Connections bound themselves: reads time out after
        // io_timeout_ms and in-flight submissions resolve within
        // deadline_ms, so anything beyond that is a bug we refuse to
        // hang on.
        let conn_wait = Duration::from_millis(cfg.io_timeout_ms + cfg.deadline_ms + 2_000);
        let live = self.shared.conns_live();
        drop(
            self.shared
                .lifecycle
                .wait_timeout_while(live, conn_wait, |n| *n > 0)
                .expect("conns_live lock poisoned"),
        );
        self.shared.pool.drain(cfg.deadline_ms + 2_000);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        stats_json(&self.shared)
    }
}

impl Shared {
    fn conns_live(&self) -> std::sync::MutexGuard<'_, usize> {
        self.conns_live.lock().expect("conns_live lock poisoned")
    }

    /// Starts the drain once: closes admission (queued jobs still run to
    /// completion), wakes the acceptor and every drain waiter.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.pool.close();
        // The acceptor blocks in `accept`; one connection to its own port
        // returns it, and it sees `draining` and exits. A listener bound
        // to an unspecified address accepts on loopback too.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let timeout = Duration::from_millis(self.cfg.io_timeout_ms.max(1));
        let _ = TcpStream::connect_timeout(&wake, timeout);
        // Taking the lock orders this notify after any waiter's check of
        // `draining`, so no waiter misses it.
        let _live = self.conns_live();
        self.lifecycle.notify_all();
    }

    fn conn_exited(&self) {
        *self.conns_live() -= 1;
        self.lifecycle.notify_all();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        match listener.accept() {
            // The drain's wake connection, or a client that raced it:
            // either way the listener closes now.
            Ok(_) if shared.draining.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                bump!(shared, connections);
                *shared.conns_live() += 1;
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("rperf-serve-conn".to_string())
                    .spawn(move || {
                        serve_conn(stream, &conn_shared);
                        conn_shared.conn_exited();
                    });
                if spawned.is_err() {
                    shared.conn_exited();
                }
            }
            Err(_) => {
                // Out of descriptors or buffers: retry once a connection
                // closes or a drain begins, not in a spin on the same error.
                let live = shared.conns_live();
                drop(shared.lifecycle.wait_timeout(live, ACCEPT_RETRY));
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// Serves one connection until it closes, errors, stalls past the I/O
/// timeout, or sends an unsynchronizable frame.
fn serve_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let io_timeout = Duration::from_millis(shared.cfg.io_timeout_ms.max(1));
    let mut stream = stream;
    if stream.set_read_timeout(Some(io_timeout)).is_err()
        || stream.set_write_timeout(Some(io_timeout)).is_err()
    {
        return;
    }
    loop {
        let frame = match read_frame(&mut stream, shared.cfg.max_payload) {
            Ok(f) => f,
            Err(FrameError::Io(_)) => {
                // EOF, a transport error, or a stalled/truncating client
                // hitting the read timeout: nothing to salvage.
                return;
            }
            Err(e) => {
                // Structurally bad frame: answer typed, then close — the
                // stream offset is no longer trustworthy.
                bump!(shared, bad_frames);
                let payload = encode_error(e.code(), &e.to_string());
                let _ = write_frame(&mut stream, resp::ERROR, &payload);
                return;
            }
        };
        bump!(shared, requests);
        let ok = match frame.kind {
            req::SUBMIT => handle_submit(&mut stream, shared, &frame.payload),
            req::STATS => {
                write_frame(&mut stream, resp::STATS_OK, stats_json(shared).as_bytes()).is_ok()
            }
            req::PING => write_frame(&mut stream, resp::PONG, b"").is_ok(),
            req::SHUTDOWN => {
                // Drain *before* acknowledging: a client that read the OK
                // may immediately observe `SHUTTING_DOWN` on other
                // connections, never a still-accepting server.
                shared.begin_drain();
                let _ = write_frame(&mut stream, resp::OK, b"");
                false
            }
            other => {
                let payload = encode_error(
                    ErrorCode::BadKind,
                    &format!("unknown request kind {other:#04x}"),
                );
                write_frame(&mut stream, resp::ERROR, &payload).is_ok()
            }
        };
        if !ok {
            return;
        }
    }
}

/// Milliseconds a shed client should wait before retrying: a fraction of
/// the deadline, clamped to a sensible band.
fn retry_after_ms(cfg: &ServeConfig) -> u32 {
    (cfg.deadline_ms / 10).clamp(50, 1_000) as u32
}

fn reply_error(stream: &mut TcpStream, code: ErrorCode, msg: &str) -> bool {
    let payload = encode_error(code, msg);
    write_frame(stream, resp::ERROR, &payload).is_ok()
}

/// Handles one SUBMIT end-to-end; returns false when the connection
/// should close.
fn handle_submit(stream: &mut TcpStream, shared: &Arc<Shared>, payload: &[u8]) -> bool {
    bump!(shared, submits);
    let deadline = Instant::now() + Duration::from_millis(shared.cfg.deadline_ms);

    let (seed, text) = match decode_submit(payload) {
        Ok(pair) => pair,
        Err(msg) => {
            bump!(shared, bad_frames);
            return reply_error(stream, ErrorCode::BadFrame, &msg);
        }
    };
    let spec = match ScenarioSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            bump!(shared, parse_errors);
            return reply_error(stream, ErrorCode::ParseError, &e.to_string());
        }
    };
    if let Err(msg) = spec.validate() {
        bump!(shared, invalid_specs);
        return reply_error(stream, ErrorCode::InvalidSpec, &msg);
    }

    // Canonical text, not client bytes: formatting differences share a
    // cache line.
    let canonical = spec.to_text();
    let key = cache_key(&canonical, seed, CODE_VERSION);

    if let Some(bytes) = shared.cache.lock().expect("cache lock poisoned").get(key) {
        bump!(shared, cache_hits);
        return write_frame(stream, resp::RESULT_CACHED, bytes.as_bytes()).is_ok();
    }
    bump!(shared, cache_misses);

    if shared.draining.load(Ordering::SeqCst) {
        bump!(shared, shutdown_rejected);
        return reply_error(stream, ErrorCode::ShuttingDown, "server is draining");
    }

    // Register as a waiter; the waiters lock is held across admission so
    // a worker's broadcast cannot slip between "no entry" and "queued".
    let (tx, rx) = sync_channel::<Reply>(1);
    {
        let mut map = shared.waiters.lock().expect("waiters lock poisoned");
        if let Some(entry) = map.get_mut(&key) {
            // Same (spec, seed) already in flight: share its simulation.
            entry.push(tx);
            bump!(shared, coalesced);
        } else {
            let job = Job {
                seq: shared.job_seq.fetch_add(1, Ordering::SeqCst),
                key,
                spec,
                seed,
                deadline,
            };
            match shared.pool.try_submit(job) {
                Ok(()) => {
                    map.insert(key, vec![tx]);
                }
                Err(SubmitError::Full(_)) => {
                    drop(map);
                    bump!(shared, shed_busy);
                    let payload = encode_busy(retry_after_ms(&shared.cfg));
                    return write_frame(stream, resp::BUSY, &payload).is_ok();
                }
                Err(SubmitError::Closed(_)) => {
                    drop(map);
                    bump!(shared, shutdown_rejected);
                    return reply_error(stream, ErrorCode::ShuttingDown, "server is draining");
                }
            }
        }
    }

    // Wait out the deadline plus one cancellation-poll of slack (the
    // worker needs a moment to notice the clock and reply).
    let wait = deadline.saturating_duration_since(Instant::now()) + Duration::from_millis(500);
    match rx.recv_timeout(wait) {
        Ok(Reply::Done(bytes)) => write_frame(stream, resp::RESULT, bytes.as_bytes()).is_ok(),
        Ok(Reply::Deadline) => reply_error(
            stream,
            ErrorCode::DeadlineExceeded,
            &format!("request exceeded its {} ms budget", shared.cfg.deadline_ms),
        ),
        Ok(Reply::Panicked) => reply_error(
            stream,
            ErrorCode::WorkerPanic,
            "worker panicked while running this scenario; a replacement was spawned",
        ),
        Err(RecvTimeoutError::Timeout) => {
            bump!(shared, deadline_exceeded);
            reply_error(
                stream,
                ErrorCode::DeadlineExceeded,
                &format!("no worker reply within {} ms", shared.cfg.deadline_ms),
            )
        }
        Err(RecvTimeoutError::Disconnected) => {
            reply_error(stream, ErrorCode::Internal, "reply channel dropped")
        }
    }
}

fn stats_json(shared: &Shared) -> String {
    let s = &shared.stats;
    let get = |a: &AtomicU64| json::uint(a.load(Ordering::Relaxed));
    let cache_len = shared.cache.lock().expect("cache lock poisoned").len() as u64;
    json::object([
        ("connections", get(&s.connections)),
        ("requests", get(&s.requests)),
        ("submits", get(&s.submits)),
        ("results_ok", get(&s.results_ok)),
        ("cache_hits", get(&s.cache_hits)),
        ("cache_misses", get(&s.cache_misses)),
        ("coalesced", get(&s.coalesced)),
        ("shed_busy", get(&s.shed_busy)),
        ("deadline_exceeded", get(&s.deadline_exceeded)),
        ("parse_errors", get(&s.parse_errors)),
        ("invalid_specs", get(&s.invalid_specs)),
        ("bad_frames", get(&s.bad_frames)),
        ("shutdown_rejected", get(&s.shutdown_rejected)),
        ("worker_panics", json::uint(shared.pool.panics())),
        ("workers_respawned", json::uint(shared.pool.respawned())),
        (
            "workers_live",
            json::uint(shared.pool.live_workers() as u64),
        ),
        ("cache_entries", json::uint(cache_len)),
        (
            "draining",
            json::uint(u64::from(shared.draining.load(Ordering::SeqCst))),
        ),
        ("queue_depth", json::uint(shared.cfg.queue_depth as u64)),
        ("workers", json::uint(shared.cfg.workers as u64)),
        ("code_version", json::string(CODE_VERSION)),
    ])
}
