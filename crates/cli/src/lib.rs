//! Argument parsing and command execution for `rperf-cli`.
//!
//! The command-line front end drives the same scenarios the paper's
//! evaluation uses, with an interface deliberately reminiscent of the
//! OFED micro-benchmark tools:
//!
//! ```console
//! $ rperf-cli lat --payload 64
//! $ rperf-cli lat --tool perftest --payload 4096
//! $ rperf-cli bw  --payload 1024 --no-switch
//! $ rperf-cli converged --bsgs 5 --qos dedicated
//! $ rperf-cli multihop --policy rr
//! $ rperf-cli chain --switches 3 --bsgs 2
//! $ rperf-cli scenario my_experiment.scn --seed 3 --json
//! ```
//!
//! The `scenario` subcommand runs an arbitrary experiment from a
//! scenario-spec file (see `rperf::spec::ScenarioSpec::parse` for the
//! format) through the generic executor — topologies, traffic matrices
//! and QoS setups beyond the paper's figures need no recompilation.
//!
//! Argument parsing is hand-rolled (the suite takes no CLI dependency);
//! every flag error produces a usage message rather than a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use rperf::scenario::{converged_outcome, specs};
use rperf::{DeviceProfile, QosMode, ScenarioOutcome, ScenarioSpec};
use rperf_model::config::SchedPolicy;
use rperf_sim::SimDuration;

/// Which measurement tool `lat` should model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// The paper's RPerf (Section IV).
    RPerf,
    /// OFED perftest-style software ping-pong.
    Perftest,
    /// OFED qperf-style post-poll WRITE.
    Qperf,
}

/// A fully parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// One-to-one latency measurement.
    Lat {
        /// Probe payload bytes.
        payload: u64,
        /// Skip the switch (back-to-back cabling); RPerf only.
        no_switch: bool,
        /// The tool model to run.
        tool: Tool,
        /// Common options.
        common: Common,
    },
    /// One-to-one bandwidth measurement.
    Bw {
        /// Message payload bytes.
        payload: u64,
        /// Skip the switch.
        no_switch: bool,
        /// Common options.
        common: Common,
    },
    /// The converged many-to-one scenario.
    Converged {
        /// Number of bandwidth generators.
        bsgs: usize,
        /// BSG payload bytes.
        payload: u64,
        /// Doorbell batch size.
        batch: usize,
        /// QoS configuration.
        qos: QosMode,
        /// Common options.
        common: Common,
    },
    /// The paper's two-switch multi-hop scenario, `--policy` on both
    /// switches.
    Multihop {
        /// Common options.
        common: Common,
    },
    /// The switch-chain extension.
    Chain {
        /// Number of switches in the path.
        switches: usize,
        /// BSGs local to the destination switch.
        bsgs: usize,
        /// Common options.
        common: Common,
    },
    /// An arbitrary experiment loaded from a scenario-spec file.
    Scenario {
        /// Path of the spec file.
        file: String,
        /// Experiment seed.
        seed: u64,
        /// Emit the outcome as deterministic JSON instead of text.
        json: bool,
        /// Worker domains for sharded execution; `None` keeps whatever
        /// the spec file says (default 1, one domain).
        /// Results are identical either way — this is a wall-clock knob.
        shards: Option<usize>,
        /// Print the per-switch forwarding tables the subnet planner
        /// programmed for the spec's topology instead of running it.
        dump_routes: bool,
    },
    /// Submit a scenario-spec file to a running `rperf-serve` daemon.
    Submit {
        /// Path of the spec file.
        file: String,
        /// Experiment seed.
        seed: u64,
        /// Daemon address, `host:port`.
        addr: String,
        /// Total attempts (1 = no retries).
        attempts: u32,
        /// Socket/read timeout in milliseconds.
        timeout_ms: u64,
    },
    /// Fetch a running daemon's stats snapshot (or ask it to drain).
    ServeStats {
        /// Daemon address, `host:port`.
        addr: String,
        /// Send SHUTDOWN instead of STATS: begin a graceful drain.
        shutdown: bool,
    },
    /// A payload sweep (64 B – 4096 B) averaged over seeds, fanned across
    /// worker threads.
    Sweep {
        /// What to measure at each payload.
        what: SweepWhat,
        /// Skip the switch.
        no_switch: bool,
        /// Number of seeds to average (seeded `seed`, `seed+1`, ...).
        seeds: u64,
        /// Common options.
        common: Common,
    },
    /// Print usage.
    Help,
}

/// The metric a `sweep` measures at each payload point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepWhat {
    /// RPerf RTT p50 (µs).
    Lat,
    /// One-to-one goodput (Gbps).
    Bw,
}

/// Options shared by every command.
#[derive(Debug, Clone, PartialEq)]
pub struct Common {
    /// Measurement window in milliseconds.
    pub duration_ms: f64,
    /// Experiment seed.
    pub seed: u64,
    /// Device profile.
    pub profile: DeviceProfile,
    /// Scheduling policy (where applicable).
    pub policy: SchedPolicy,
    /// Worker threads for sweeps (`--jobs`; 0 = available parallelism).
    /// Output is identical for any value — independent simulations are
    /// fanned out and collected in deterministic order.
    pub jobs: usize,
}

impl Default for Common {
    fn default() -> Self {
        Common {
            duration_ms: 5.0,
            seed: 1,
            profile: DeviceProfile::Hardware,
            policy: SchedPolicy::Fcfs,
            jobs: 0,
        }
    }
}

impl Common {
    /// The effective worker-thread count (`--jobs`, defaulting to the
    /// machine's available parallelism).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            rperf_runner::available_parallelism()
        } else {
            self.jobs
        }
    }
}

/// A parse failure, carrying the message shown to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// A command failure, typed so `main` can map each class to a distinct
/// process exit code — scripts (and `make scenario-smoke`) can tell flag
/// misuse from a bad spec from transport trouble without scraping stderr:
///
/// | variant   | exit code | meaning                                       |
/// |-----------|-----------|-----------------------------------------------|
/// | `Usage`   | 1         | unknown command / malformed flags             |
/// | `Spec`    | 2         | scenario text failed to parse (line-numbered) |
/// | `Io`      | 3         | file unreadable or server unreachable         |
/// | `Runtime` | 4         | the run itself failed (validation, deadline,  |
/// |           |           | server-side error)                            |
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Unknown command or malformed flags (exit 1).
    Usage(String),
    /// The scenario text failed to parse; the message carries the file
    /// path and 1-based line number (exit 2).
    Spec(String),
    /// A file could not be read or a server could not be reached (exit 3).
    Io(String),
    /// The run failed after parsing: spec validation, a deadline, or a
    /// typed server-side failure (exit 4).
    Runtime(String),
}

impl CliError {
    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Spec(_) => 2,
            CliError::Io(_) => 3,
            CliError::Runtime(_) => 4,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Spec(m) | CliError::Io(m) | CliError::Runtime(m) => {
                write!(f, "{m}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The usage text.
pub const USAGE: &str = "\
rperf-cli — InfiniBand switch evaluation (simulated)

USAGE:
    rperf-cli <COMMAND> [OPTIONS]

COMMANDS:
    lat        one-to-one RTT          [--payload N] [--no-switch] [--tool rperf|perftest|qperf]
                                       (--no-switch needs --tool rperf)
    bw         one-to-one goodput      [--payload N] [--no-switch]
    converged  many-to-one mix         [--bsgs N] [--payload N] [--batch N]
                                       [--qos shared|dedicated|gamed]
    multihop   two-switch topology     [--policy fcfs|rr|fair]
    chain      switch-chain extension  [--switches N] [--bsgs N]
    sweep      payload sweep 64B-4096B [--what lat|bw] [--no-switch] [--seeds N]
    scenario   run a spec file         <FILE> [--seed N] [--json] [--shards N]
                                       [--dump-routes]
    submit     send a spec file to a running rperf-serve daemon
                                       <FILE> [--seed N] [--addr HOST:PORT]
                                       [--attempts N] [--timeout-ms N]
    serve-stats  fetch daemon stats    [--addr HOST:PORT] [--shutdown]
    help       this text

EXIT CODES:
    0 success   1 usage   2 spec parse error   3 I/O   4 runtime failure

COMMON OPTIONS:
    --duration MS     measurement window in milliseconds (default 5)
    --seed N          experiment seed (default 1)
    --profile hw|omnet
    --policy fcfs|rr|fair
    --jobs N          worker threads for sweeps (default: all cores;
                      any value gives identical output)
    --shards N        (scenario only) worker domains inside one run;
                      any value gives identical output
    --dump-routes     (scenario only) print the per-switch forwarding
                      tables for the spec's topology instead of running
";

fn parse_u64(flag: &str, value: Option<&String>) -> Result<u64, ParseError> {
    let v = value.ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| ParseError(format!("{flag}: `{v}` is not a number")))
}

fn parse_f64(flag: &str, value: Option<&String>) -> Result<f64, ParseError> {
    let v = value.ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| ParseError(format!("{flag}: `{v}` is not a number")))
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending flag.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    // `scenario` takes a positional file path plus its own small flag set.
    if cmd == "scenario" {
        let Some(file) = args.get(1).filter(|a| !a.starts_with("--")) else {
            return Err(ParseError("scenario needs a spec file path".into()));
        };
        let mut seed = 1u64;
        let mut json = false;
        let mut shards = None;
        let mut dump_routes = false;
        let mut i = 2;
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    seed = parse_u64("--seed", args.get(i + 1))?;
                    i += 2;
                }
                "--json" => {
                    json = true;
                    i += 1;
                }
                "--dump-routes" => {
                    dump_routes = true;
                    i += 1;
                }
                "--shards" => {
                    let n = parse_u64("--shards", args.get(i + 1))?;
                    if n == 0 || n > 64 {
                        return Err(ParseError(format!("--shards must be in 1..=64, got {n}")));
                    }
                    shards = Some(n as usize);
                    i += 2;
                }
                other => return Err(ParseError(format!("unknown option `{other}` for scenario"))),
            }
        }
        return Ok(Command::Scenario {
            file: file.clone(),
            seed,
            json,
            shards,
            dump_routes,
        });
    }
    // `submit` mirrors `scenario` but sends the spec to a daemon.
    if cmd == "submit" {
        let Some(file) = args.get(1).filter(|a| !a.starts_with("--")) else {
            return Err(ParseError("submit needs a spec file path".into()));
        };
        let mut seed = 1u64;
        let mut addr = "127.0.0.1:7117".to_string();
        let mut attempts = 5u32;
        let mut timeout_ms = 40_000u64;
        let mut i = 2;
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    seed = parse_u64("--seed", args.get(i + 1))?;
                    i += 2;
                }
                "--addr" => {
                    addr = args
                        .get(i + 1)
                        .ok_or_else(|| ParseError("--addr needs a value".into()))?
                        .clone();
                    i += 2;
                }
                "--attempts" => {
                    attempts = parse_u64("--attempts", args.get(i + 1))?.clamp(1, 100) as u32;
                    i += 2;
                }
                "--timeout-ms" => {
                    timeout_ms = parse_u64("--timeout-ms", args.get(i + 1))?;
                    i += 2;
                }
                other => return Err(ParseError(format!("unknown option `{other}` for submit"))),
            }
        }
        return Ok(Command::Submit {
            file: file.clone(),
            seed,
            addr,
            attempts,
            timeout_ms,
        });
    }
    if cmd == "serve-stats" {
        let mut addr = "127.0.0.1:7117".to_string();
        let mut shutdown = false;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--addr" => {
                    addr = args
                        .get(i + 1)
                        .ok_or_else(|| ParseError("--addr needs a value".into()))?
                        .clone();
                    i += 2;
                }
                "--shutdown" => {
                    shutdown = true;
                    i += 1;
                }
                other => {
                    return Err(ParseError(format!(
                        "unknown option `{other}` for serve-stats"
                    )))
                }
            }
        }
        return Ok(Command::ServeStats { addr, shutdown });
    }
    let mut payload: Option<u64> = None;
    let mut no_switch = false;
    let mut tool = Tool::RPerf;
    let mut bsgs: Option<usize> = None;
    let mut batch = 1usize;
    let mut qos = QosMode::SharedSl;
    let mut switches = 2usize;
    let mut what = SweepWhat::Lat;
    let mut seeds = 3u64;
    let mut common = Common::default();

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        match flag {
            "--payload" => {
                payload = Some(parse_u64(flag, value)?);
                i += 2;
            }
            "--no-switch" => {
                no_switch = true;
                i += 1;
            }
            "--tool" => {
                tool = match value.map(String::as_str) {
                    Some("rperf") => Tool::RPerf,
                    Some("perftest") => Tool::Perftest,
                    Some("qperf") => Tool::Qperf,
                    other => {
                        return Err(ParseError(format!(
                            "--tool: expected rperf|perftest|qperf, got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            "--bsgs" => {
                bsgs = Some(parse_u64(flag, value)? as usize);
                i += 2;
            }
            "--batch" => {
                batch = parse_u64(flag, value)?.max(1) as usize;
                i += 2;
            }
            "--qos" => {
                qos = match value.map(String::as_str) {
                    Some("shared") => QosMode::SharedSl,
                    Some("dedicated") => QosMode::DedicatedSl,
                    Some("gamed") => QosMode::DedicatedSlWithPretend,
                    other => {
                        return Err(ParseError(format!(
                            "--qos: expected shared|dedicated|gamed, got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            "--switches" => {
                switches = parse_u64(flag, value)?.max(1) as usize;
                i += 2;
            }
            "--what" => {
                what = match value.map(String::as_str) {
                    Some("lat") => SweepWhat::Lat,
                    Some("bw") => SweepWhat::Bw,
                    other => {
                        return Err(ParseError(format!(
                            "--what: expected lat|bw, got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            "--seeds" => {
                seeds = parse_u64(flag, value)?.max(1);
                i += 2;
            }
            "--jobs" => {
                common.jobs = parse_u64(flag, value)? as usize;
                i += 2;
            }
            "--duration" => {
                common.duration_ms = parse_f64(flag, value)?;
                i += 2;
            }
            "--seed" => {
                common.seed = parse_u64(flag, value)?;
                i += 2;
            }
            "--profile" => {
                common.profile = match value.map(String::as_str) {
                    Some("hw") | Some("hardware") => DeviceProfile::Hardware,
                    Some("omnet") | Some("sim") => DeviceProfile::OmnetSimulator,
                    other => {
                        return Err(ParseError(format!(
                            "--profile: expected hw|omnet, got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            "--policy" => {
                common.policy = match value.map(String::as_str) {
                    Some("fcfs") => SchedPolicy::Fcfs,
                    Some("rr") => SchedPolicy::RoundRobin,
                    Some("fair") => SchedPolicy::FairShare,
                    other => {
                        return Err(ParseError(format!(
                            "--policy: expected fcfs|rr|fair, got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            other => return Err(ParseError(format!("unknown option `{other}`"))),
        }
    }

    if cmd == "lat" && no_switch && tool != Tool::RPerf {
        let model = format!("{tool:?}").to_lowercase();
        return Err(ParseError(format!(
            "--no-switch is not supported for the {model} model"
        )));
    }
    Ok(match cmd.as_str() {
        // Probe-style commands default to the paper's 64 B probes; bulk
        // commands default to its 4096 B messages. `converged` defaults
        // to the paper's five BSGs, `chain` to an idle tail.
        "lat" => Command::Lat {
            payload: payload.unwrap_or(64),
            no_switch,
            tool,
            common,
        },
        "bw" => Command::Bw {
            payload: payload.unwrap_or(4096),
            no_switch,
            common,
        },
        "converged" => Command::Converged {
            bsgs: bsgs.unwrap_or(5),
            payload: payload.unwrap_or(4096),
            batch,
            qos,
            common,
        },
        "multihop" => Command::Multihop { common },
        "chain" => Command::Chain {
            switches,
            bsgs: bsgs.unwrap_or(0),
            common,
        },
        "sweep" => Command::Sweep {
            what,
            no_switch,
            seeds,
            common,
        },
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(ParseError(format!("unknown command `{other}`"))),
    })
}

/// Runs a scenario table under the command's profile, policy and
/// measurement window with `seed`. The spec is validated first, as
/// `scenario` validates a file, so flags that describe an impossible
/// setup end in `Runtime` (exit 4) rather than a panic.
fn run_table(table: ScenarioSpec, common: &Common, seed: u64) -> Result<ScenarioOutcome, CliError> {
    let spec = table
        .with_profile(common.profile)
        .with_policy(common.policy)
        .with_duration(SimDuration::from_secs_f64(common.duration_ms * 1e-3));
    spec.validate()
        .map_err(|e| CliError::Runtime(format!("{}: {e}", spec.name)))?;
    Ok(rperf::execute(&spec, seed))
}

/// Loads, validates and executes a scenario-spec file.
///
/// Each failure class maps to its own [`CliError`] variant (distinct exit
/// code): an unreadable file is `Io`, a syntax error is `Spec` — with the
/// parser's 1-based line number preserved as `file:line N: message` — and
/// a spec that parses but fails validation is `Runtime`.
fn run_scenario(
    file: &str,
    seed: u64,
    json: bool,
    shards: Option<usize>,
    dump_routes: bool,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(file).map_err(|e| CliError::Io(format!("{file}: {e}")))?;
    // `ParseError` renders as `line N: msg`; prefixing the path yields the
    // compiler-style `file:line N: msg` the smoke test greps for.
    let mut spec =
        rperf::ScenarioSpec::parse(&text).map_err(|e| CliError::Spec(format!("{file}:{e}")))?;
    if dump_routes {
        // Routing is a property of the topology alone, so the role-table
        // validation is skipped: a spec with nothing but a `[topology]`
        // section dumps fine. Parse failures above keep exit code 2.
        return Ok(rperf::dump_routes(&spec, seed));
    }
    if let Some(shards) = shards {
        spec.shards = shards;
    }
    spec.validate()
        .map_err(|e| CliError::Runtime(format!("{file}: {e}")))?;
    let out = rperf::execute(&spec, seed);
    Ok(if json {
        out.to_json()
    } else {
        render_outcome(&out)
    })
}

/// Reads a spec file and submits it to a running `rperf-serve` daemon,
/// retrying transient failures; prints the outcome JSON on success.
fn run_submit(
    file: &str,
    seed: u64,
    addr: &str,
    attempts: u32,
    timeout_ms: u64,
) -> Result<String, CliError> {
    use rperf_serve::protocol::ErrorCode;
    use rperf_serve::{Client, ClientConfig, ClientError};

    let text = std::fs::read_to_string(file).map_err(|e| CliError::Io(format!("{file}: {e}")))?;
    let client = Client::new(ClientConfig {
        addr: addr.to_string(),
        io_timeout_ms: timeout_ms,
        attempts,
        retry_seed: seed,
        ..ClientConfig::default()
    });
    match client.submit(&text, seed) {
        Ok(outcome) => Ok(outcome.json),
        Err(ClientError::Server { code, message }) => match code {
            // The server parses the same grammar `scenario` does, so the
            // message already carries the 1-based line number.
            ErrorCode::ParseError => Err(CliError::Spec(format!("{file}:{message}"))),
            ErrorCode::InvalidSpec => Err(CliError::Runtime(format!("{file}: {message}"))),
            other => Err(CliError::Runtime(format!("{other}: {message}"))),
        },
        Err(ClientError::Io(e)) => Err(CliError::Io(format!("{addr}: {e}"))),
        Err(ClientError::Protocol(e)) => Err(CliError::Io(format!("{addr}: protocol: {e}"))),
        Err(e @ ClientError::Exhausted { .. }) => {
            // Whether the attempts died on transport or on shedding, the
            // service was effectively unreachable.
            Err(CliError::Io(format!("{addr}: {e}")))
        }
    }
}

/// Fetches a daemon's stats snapshot, or (with `shutdown`) begins its
/// graceful drain.
fn run_serve_stats(addr: &str, shutdown: bool) -> Result<String, CliError> {
    use rperf_serve::{Client, ClientConfig};
    let client = Client::new(ClientConfig {
        addr: addr.to_string(),
        attempts: 1,
        ..ClientConfig::default()
    });
    if shutdown {
        client
            .shutdown()
            .map_err(|e| CliError::Io(format!("{addr}: {e}")))?;
        Ok(format!("rperf-serve at {addr}: drain acknowledged"))
    } else {
        client
            .stats()
            .map_err(|e| CliError::Io(format!("{addr}: {e}")))
    }
}

/// Human-readable rendering of a scenario outcome, one line per role.
fn render_outcome(out: &rperf::ScenarioOutcome) -> String {
    use rperf::RoleReport;
    let mut text = format!(
        "scenario {}  seed={}  end={:.3} ms",
        out.name,
        out.seed,
        out.end.as_ps() as f64 / 1e9,
    );
    for (node, r) in &out.reports {
        let line = match r {
            RoleReport::RPerf(rep) => format!(
                "rperf        RTT p50 {:.3} us | p99.9 {:.3} us over {} probes",
                rep.summary.p50_us(),
                rep.summary.p999_us(),
                rep.iterations,
            ),
            RoleReport::Latency(s) => format!(
                "latency      RTT p50 {:.3} us | p99.9 {:.3} us",
                s.p50_us(),
                s.p999_us(),
            ),
            RoleReport::Qperf(rep) => format!(
                "qperf        avg {:.3} us over {} iterations",
                rep.avg_us, rep.iterations,
            ),
            RoleReport::BsgGbps(g) => format!("bsg          goodput {g:.2} Gbps"),
            RoleReport::PretendGbps(g) => format!("pretend-lsg  goodput {g:.2} Gbps"),
            RoleReport::Sink { recvs } => format!("sink         {recvs} messages delivered"),
            RoleReport::Server => "server".to_string(),
        };
        text.push_str(&format!("\nnode {node:<3} {line}"));
    }
    text
}

/// Executes a parsed command; `Err` carries the message for stderr plus
/// the failure class that picks the process exit code.
///
/// # Errors
///
/// `scenario` fails with `Io` on an unreadable file, `Spec` on a syntax
/// error (with its line number) and `Runtime` on failed validation;
/// `submit` and `serve-stats` use the same classes, with transport
/// failures as `Io`. The table-driven commands fail with `Runtime` when
/// their flags describe a spec that does not validate.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Scenario {
            file,
            seed,
            json,
            shards,
            dump_routes,
        } => run_scenario(file, *seed, *json, *shards, *dump_routes),
        Command::Submit {
            file,
            seed,
            addr,
            attempts,
            timeout_ms,
        } => run_submit(file, *seed, addr, *attempts, *timeout_ms),
        Command::ServeStats { addr, shutdown } => run_serve_stats(addr, *shutdown),
        Command::Lat {
            payload,
            no_switch,
            tool,
            common,
        } => Ok(match tool {
            Tool::RPerf => {
                let table = specs::one_to_one_rperf(!no_switch, *payload);
                let out = run_table(table, common, common.seed)?;
                let r = out.rperf(0).expect("rperf role on node 0");
                format!(
                    "rperf  payload={payload}B  switch={}\n\
                     iterations: {}\n\
                     RTT p50 {:.3} us | p99 {:.3} us | p99.9 {:.3} us | max {:.3} us",
                    !no_switch,
                    r.iterations,
                    r.summary.p50_us(),
                    r.summary.p99_ps as f64 / 1e6,
                    r.summary.p999_us(),
                    r.summary.max_ps as f64 / 1e6,
                )
            }
            Tool::Perftest => {
                let out = run_table(specs::one_to_one_perftest(*payload), common, common.seed)?;
                let s = out.latency(0).expect("perftest client on node 0");
                format!(
                    "perftest  payload={payload}B\n\
                     RTT p50 {:.3} us | p99.9 {:.3} us  (includes end-point overheads)",
                    s.p50_us(),
                    s.p999_us(),
                )
            }
            Tool::Qperf => {
                let out = run_table(specs::one_to_one_qperf(*payload), common, common.seed)?;
                let r = out.qperf(0).expect("qperf client on node 0");
                format!(
                    "qperf  payload={payload}B\n\
                     latency {:.2} us  (average only; the real tool reports no tail)",
                    r.avg_us,
                )
            }
        }),
        Command::Bw {
            payload,
            no_switch,
            common,
        } => {
            let table = specs::one_to_one_bandwidth(!no_switch, *payload);
            let gbps = run_table(table, common, common.seed)?
                .gbps(0)
                .expect("bsg role on node 0");
            Ok(format!(
                "bw  payload={payload}B  switch={}\ngoodput {gbps:.2} Gbps",
                !no_switch
            ))
        }
        Command::Converged {
            bsgs,
            payload,
            batch,
            qos,
            common,
        } => {
            // In a gamed run the pretend LSG is one of the `bsgs` senders.
            let honest = if *qos == QosMode::DedicatedSlWithPretend {
                bsgs.saturating_sub(1)
            } else {
                *bsgs
            };
            let table = specs::converged(honest, *payload, *batch, true, *qos);
            let out = converged_outcome(&run_table(table, common, common.seed)?);
            let lsg = out.lsg.expect("LSG attached");
            let mut text = format!(
                "converged  bsgs={bsgs}  payload={payload}B  qos={qos:?}\n\
                 LSG RTT p50 {:.2} us | p99.9 {:.2} us\n\
                 total bulk goodput {:.1} Gbps",
                lsg.summary.p50_us(),
                lsg.summary.p999_us(),
                out.total_gbps,
            );
            if let Some(p) = out.pretend_gbps {
                text.push_str(&format!("\npretend LSG goodput {p:.1} Gbps"));
            }
            Ok(text)
        }
        Command::Multihop { common } => {
            let policy = common.policy;
            let out = converged_outcome(&run_table(specs::multihop(policy), common, common.seed)?);
            let lsg = out.lsg.expect("LSG attached");
            Ok(format!(
                "multihop  policy={policy:?}\n\
                 LSG RTT p50 {:.2} us | p99.9 {:.2} us\n\
                 total bulk goodput {:.1} Gbps",
                lsg.summary.p50_us(),
                lsg.summary.p999_us(),
                out.total_gbps,
            ))
        }
        Command::Chain {
            switches,
            bsgs,
            common,
        } => {
            let out = run_table(specs::chain_latency(*switches, *bsgs), common, common.seed)?;
            let r = out.rperf(0).expect("rperf role on node 0");
            Ok(format!(
                "chain  switches={switches}  tail bsgs={bsgs}\n\
                 LSG RTT p50 {:.2} us | p99.9 {:.2} us over {} probes",
                r.summary.p50_us(),
                r.summary.p999_us(),
                r.iterations,
            ))
        }
        Command::Sweep {
            what,
            no_switch,
            seeds,
            common,
        } => {
            const PAYLOADS: [u64; 7] = [64, 128, 256, 512, 1024, 2048, 4096];
            let pairs: Vec<(u64, u64)> = PAYLOADS
                .iter()
                .flat_map(|&p| (0..*seeds).map(move |k| (p, common.seed + k)))
                .collect();
            let runner = rperf_runner::Sweep::new(common.effective_jobs());
            let per_pair = runner.run(pairs, |_, (payload, seed)| {
                Ok(match what {
                    SweepWhat::Lat => {
                        let table = specs::one_to_one_rperf(!no_switch, payload);
                        let out = run_table(table, common, seed)?;
                        out.rperf(0).expect("rperf role on node 0").summary.p50_us()
                    }
                    SweepWhat::Bw => {
                        let table = specs::one_to_one_bandwidth(!no_switch, payload);
                        let out = run_table(table, common, seed)?;
                        out.gbps(0).expect("bsg role on node 0")
                    }
                })
            });
            let per_pair = per_pair
                .into_iter()
                .collect::<Result<Vec<f64>, CliError>>()?;
            let (label, unit) = match what {
                SweepWhat::Lat => ("RTT p50", "us"),
                SweepWhat::Bw => ("goodput", "Gbps"),
            };
            let mut text = format!(
                "sweep  what={what:?}  switch={}  seeds={seeds}  jobs={}\n\
                 | payload (B) | {label} ({unit}) |\n|---|---|",
                !no_switch,
                runner.workers(),
            );
            let k = *seeds as usize;
            for (i, &payload) in PAYLOADS.iter().enumerate() {
                let chunk = &per_pair[i * k..(i + 1) * k];
                let avg = chunk.iter().sum::<f64>() / k as f64;
                text.push_str(&format!("\n| {payload} | {avg:.3} |"));
            }
            Ok(text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_lat_defaults() {
        let cmd = parse(&args("lat")).unwrap();
        assert_eq!(
            cmd,
            Command::Lat {
                payload: 64,
                no_switch: false,
                tool: Tool::RPerf,
                common: Common::default(),
            }
        );
    }

    #[test]
    fn converged_payload_flag_is_respected_even_at_64() {
        // Regression: an explicit `--payload 64` used to be silently
        // replaced by the bulk default.
        let cmd = parse(&args("converged --payload 64")).unwrap();
        match cmd {
            Command::Converged { payload, .. } => assert_eq!(payload, 64),
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse(&args("converged")).unwrap();
        match cmd {
            Command::Converged { payload, .. } => assert_eq!(payload, 4096),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn chain_bsgs_flag_is_respected_even_at_5() {
        // Regression: `--bsgs 5` equalled `converged`'s default and was
        // silently replaced by the idle-tail default.
        for (cmd, expected) in [("chain --bsgs 5", 5), ("chain", 0), ("converged", 5)] {
            match parse(&args(cmd)).unwrap() {
                Command::Chain { bsgs, .. } | Command::Converged { bsgs, .. } => {
                    assert_eq!(bsgs, expected, "{cmd}")
                }
                other => panic!("wrong command {other:?}"),
            }
        }
    }

    #[test]
    fn parses_all_flags() {
        let cmd = parse(&args(
            "converged --bsgs 4 --payload 2048 --batch 8 --qos gamed \
             --duration 2 --seed 9 --profile omnet --policy rr",
        ))
        .unwrap();
        match cmd {
            Command::Converged {
                bsgs,
                payload,
                batch,
                qos,
                common,
            } => {
                assert_eq!(bsgs, 4);
                assert_eq!(payload, 2048);
                assert_eq!(batch, 8);
                assert_eq!(qos, QosMode::DedicatedSlWithPretend);
                assert_eq!(common.duration_ms, 2.0);
                assert_eq!(common.seed, 9);
                assert_eq!(common.profile, DeviceProfile::OmnetSimulator);
                assert_eq!(common.policy, SchedPolicy::RoundRobin);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("lat --what 3")).is_err());
        assert!(parse(&args("lat --payload")).is_err());
        assert!(parse(&args("lat --payload abc")).is_err());
        assert!(parse(&args("lat --tool iperf")).is_err());
        assert!(parse(&args("lat --qos none")).is_err());
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert!(run(&Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn executes_a_quick_latency_run() {
        let cmd = parse(&args("lat --payload 64 --duration 1")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("RTT p50"), "{out}");
    }

    #[test]
    fn executes_a_quick_bandwidth_run() {
        let cmd = parse(&args("bw --payload 4096 --duration 1 --no-switch")).unwrap();
        let out = run(&cmd).unwrap();
        assert!(out.contains("goodput"), "{out}");
    }

    #[test]
    fn parses_sweep_flags() {
        let cmd = parse(&args("sweep --what bw --no-switch --seeds 2 --jobs 4")).unwrap();
        match cmd {
            Command::Sweep {
                what,
                no_switch,
                seeds,
                common,
            } => {
                assert_eq!(what, SweepWhat::Bw);
                assert!(no_switch);
                assert_eq!(seeds, 2);
                assert_eq!(common.jobs, 4);
                assert_eq!(common.effective_jobs(), 4);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: lat, 3 seeds, jobs = available parallelism.
        let cmd = parse(&args("sweep")).unwrap();
        match cmd {
            Command::Sweep {
                what,
                seeds,
                common,
                ..
            } => {
                assert_eq!(what, SweepWhat::Lat);
                assert_eq!(seeds, 3);
                assert!(common.effective_jobs() >= 1);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&args("sweep --what iops")).is_err());
    }

    #[test]
    fn sweep_output_is_identical_for_any_job_count() {
        let sweep = |jobs: &str| {
            let cmd = format!("sweep --what bw --seeds 1 --duration 1 --jobs {jobs}");
            run(&parse(&args(&cmd)).unwrap()).unwrap()
        };
        let serial = sweep("1");
        let parallel = sweep("4");
        // The job count is echoed in the header; everything below it must
        // match byte for byte.
        let body = |s: &str| s.split_once('\n').unwrap().1.to_string();
        assert_eq!(body(&serial), body(&parallel));
        assert!(serial.contains("| 4096 |"), "{serial}");
    }

    #[test]
    fn perftest_refuses_no_switch() {
        // A usage error (exit 1), not a refusal printed on stdout.
        for tool in ["perftest", "qperf"] {
            let cmd = format!("lat --tool {tool} --no-switch --duration 1");
            let err = parse(&args(&cmd)).unwrap_err();
            assert!(
                err.0.contains(&format!("not supported for the {tool}")),
                "{err}"
            );
        }
        assert!(parse(&args("lat --tool rperf --no-switch")).is_ok());
    }

    #[test]
    fn impossible_flags_are_typed_runtime_errors() {
        // Specs that fail validation: more hosts than the 12-port switch
        // has, a window past the simulated clock, an empty window.
        for (cmd, expected) in [
            ("converged --bsgs 100 --duration 1", "needs 102 ports"),
            ("chain --bsgs 20 --duration 1", "needs 22 ports"),
            ("lat --duration 1e30", "overflows the simulated clock"),
            ("sweep --duration 0", "non-zero"),
        ] {
            let err = run(&parse(&args(cmd)).unwrap()).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{cmd}: {err}");
            assert!(err.to_string().contains(expected), "{cmd}: {err}");
        }
    }

    #[test]
    fn parses_scenario_command() {
        let cmd = parse(&args("scenario exp.scn --seed 7 --json")).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                file: "exp.scn".into(),
                seed: 7,
                json: true,
                shards: None,
                dump_routes: false,
            }
        );
        let cmd = parse(&args("scenario exp.scn --dump-routes")).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                file: "exp.scn".into(),
                seed: 1,
                json: false,
                shards: None,
                dump_routes: true,
            }
        );
        assert!(parse(&args("scenario")).is_err(), "missing file path");
        assert!(parse(&args("scenario --json")).is_err(), "flag before path");
        assert!(parse(&args("scenario exp.scn --bogus")).is_err());
    }

    /// A scratch file inside the workspace target directory.
    fn scratch_file(name: &str, contents: &str) -> String {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp");
        std::fs::create_dir_all(&dir).expect("create target/tmp");
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write scratch spec");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn runs_a_scenario_file_end_to_end() {
        let file = scratch_file(
            "cli_probe.scn",
            "name = \"probe\"\nwarmup_us = 50\nduration_us = 400\n\n\
             [topology]\nkind = \"single_switch\"\nhosts = 2\n\n\
             [[role]]\nnode = 0\nkind = \"rperf\"\ntarget = 1\n\n\
             [[role]]\nnode = 1\nkind = \"sink\"\n",
        );
        let text = run(&Command::Scenario {
            file: file.clone(),
            seed: 1,
            json: false,
            shards: None,
            dump_routes: false,
        })
        .unwrap();
        assert!(text.contains("rperf"), "{text}");
        assert!(text.contains("messages delivered"), "{text}");
        let json = run(&Command::Scenario {
            file: file.clone(),
            seed: 1,
            json: true,
            shards: None,
            dump_routes: false,
        })
        .unwrap();
        assert!(json.starts_with("{\"scenario\":\"probe\""), "{json}");
        // Sharded execution is byte-identical to one domain.
        let sharded = run(&Command::Scenario {
            file,
            seed: 1,
            json: true,
            shards: Some(3),
            dump_routes: false,
        })
        .unwrap();
        assert_eq!(json, sharded, "--shards must not change results");
    }

    #[test]
    fn dump_routes_prints_tables_without_running() {
        // A topology-only spec is enough: no roles, no duration.
        let file = scratch_file(
            "cli_routes.scn",
            "name = \"clos\"\n\n[topology]\nkind = \"fattree\"\nk = 4\ntiers = 3\n",
        );
        let dump = |file: String| {
            run(&Command::Scenario {
                file,
                seed: 1,
                json: false,
                shards: None,
                dump_routes: true,
            })
        };
        let text = dump(file.clone()).expect("route dump");
        assert!(text.contains("hosts=16  switches=20"), "{text}");
        assert!(text.contains("switch 19  entries=16"), "{text}");
        assert!(text.contains("lid1 -> port0"), "{text}");
        // Deterministic output.
        assert_eq!(text, dump(file).unwrap());

        // A syntax error keeps the exit-2 Spec contract.
        let bad = scratch_file(
            "cli_routes_bad.scn",
            "[topology]\nkind = \"fattree\"\nk = 5\n",
        );
        let err = dump(bad).unwrap_err();
        assert!(matches!(err, CliError::Spec(_)), "{err:?}");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn scenario_failures_are_typed_with_context() {
        // Unreadable file: Io, exit 3.
        let missing = run(&Command::Scenario {
            file: "no/such/file.scn".into(),
            seed: 1,
            json: false,
            shards: None,
            dump_routes: false,
        })
        .unwrap_err();
        assert!(matches!(missing, CliError::Io(_)), "{missing:?}");
        assert_eq!(missing.exit_code(), 3);
        assert!(
            missing.to_string().contains("no/such/file.scn"),
            "{missing}"
        );

        // Syntax error: Spec, exit 2, line-numbered diagnostic.
        let bad = scratch_file("cli_bad.scn", "name = \"x\"\nbogus_key = 1\n");
        let syntax = run(&Command::Scenario {
            file: bad.clone(),
            seed: 1,
            json: false,
            shards: None,
            dump_routes: false,
        })
        .unwrap_err();
        assert!(matches!(syntax, CliError::Spec(_)), "{syntax:?}");
        assert_eq!(syntax.exit_code(), 2);
        assert!(syntax.to_string().contains("line 2"), "{syntax}");

        // Parses but fails validation: Runtime, exit 4.
        let invalid = scratch_file(
            "cli_invalid.scn",
            "[topology]\nkind = \"direct_pair\"\n\n[[role]]\nnode = 5\nkind = \"sink\"\n",
        );
        let semantic = run(&Command::Scenario {
            file: invalid,
            seed: 1,
            json: false,
            shards: None,
            dump_routes: false,
        })
        .unwrap_err();
        assert!(matches!(semantic, CliError::Runtime(_)), "{semantic:?}");
        assert_eq!(semantic.exit_code(), 4);
        assert!(semantic.to_string().contains("2 hosts"), "{semantic}");

        // A window past the simulated clock: Runtime too, never a
        // wrapped run that "ends" at the warm-up.
        let endless = scratch_file(
            "cli_endless.scn",
            "duration_ms = 1e30\n[topology]\nkind = \"direct_pair\"\n\n\
             [[role]]\nnode = 0\nkind = \"sink\"\n",
        );
        let overflow = run(&parse(&args(&format!("scenario {endless}"))).unwrap()).unwrap_err();
        assert_eq!(overflow.exit_code(), 4, "{overflow}");
        assert!(overflow.to_string().contains("overflows"), "{overflow}");
    }

    #[test]
    fn parses_submit_and_serve_stats() {
        let cmd = parse(&args(
            "submit exp.scn --seed 7 --addr 127.0.0.1:9000 --attempts 3 --timeout-ms 500",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Submit {
                file: "exp.scn".into(),
                seed: 7,
                addr: "127.0.0.1:9000".into(),
                attempts: 3,
                timeout_ms: 500,
            }
        );
        assert!(parse(&args("submit")).is_err(), "missing file path");
        assert!(parse(&args("submit exp.scn --bogus")).is_err());

        let cmd = parse(&args("serve-stats --addr 127.0.0.1:9000 --shutdown")).unwrap();
        assert_eq!(
            cmd,
            Command::ServeStats {
                addr: "127.0.0.1:9000".into(),
                shutdown: true,
            }
        );
        assert!(parse(&args("serve-stats --bogus")).is_err());
    }

    #[test]
    fn submit_failures_are_typed() {
        // Unreadable spec never touches the network: Io, exit 3.
        let missing = run(&Command::Submit {
            file: "no/such/file.scn".into(),
            seed: 1,
            addr: "127.0.0.1:1".into(),
            attempts: 1,
            timeout_ms: 100,
        })
        .unwrap_err();
        assert!(matches!(missing, CliError::Io(_)), "{missing:?}");

        // Unreachable server (port 1, one attempt): Io, exit 3.
        let file = scratch_file("cli_submit_probe.scn", "name = \"x\"\n");
        let down = run(&Command::Submit {
            file,
            seed: 1,
            addr: "127.0.0.1:1".into(),
            attempts: 1,
            timeout_ms: 200,
        })
        .unwrap_err();
        assert!(matches!(down, CliError::Io(_)), "{down:?}");
        assert_eq!(down.exit_code(), 3);
    }

    #[test]
    fn submit_round_trips_against_a_live_server() {
        let server = rperf_serve::Server::start(rperf_serve::ServeConfig::default())
            .expect("bind ephemeral port");
        let addr = server.addr().to_string();

        let file = scratch_file(
            "cli_submit_live.scn",
            "name = \"probe\"\nwarmup_us = 50\nduration_us = 400\n\n\
             [topology]\nkind = \"single_switch\"\nhosts = 2\n\n\
             [[role]]\nnode = 0\nkind = \"rperf\"\ntarget = 1\n\n\
             [[role]]\nnode = 1\nkind = \"sink\"\n",
        );
        let submit = |file: String| {
            run(&Command::Submit {
                file,
                seed: 1,
                addr: addr.clone(),
                attempts: 3,
                timeout_ms: 30_000,
            })
        };
        let json = submit(file.clone()).expect("live submit");
        assert!(json.starts_with("{\"scenario\":\"probe\""), "{json}");
        // The local executor and the daemon agree byte-for-byte.
        let local = run(&Command::Scenario {
            file: file.clone(),
            seed: 1,
            json: true,
            shards: None,
            dump_routes: false,
        })
        .expect("local run");
        assert_eq!(json, local);

        // A parse failure crosses the wire typed, with its line number.
        let bad = scratch_file("cli_submit_bad.scn", "name = \"x\"\nbogus_key = 1\n");
        let syntax = submit(bad).unwrap_err();
        assert!(matches!(syntax, CliError::Spec(_)), "{syntax:?}");
        assert_eq!(syntax.exit_code(), 2);
        assert!(syntax.to_string().contains("line 2"), "{syntax}");

        // Stats round-trip, then drain.
        let stats = run(&Command::ServeStats {
            addr: addr.clone(),
            shutdown: false,
        })
        .expect("stats");
        assert!(stats.contains("\"results_ok\":1"), "{stats}");
        let ack = run(&Command::ServeStats {
            addr: addr.clone(),
            shutdown: true,
        })
        .expect("shutdown handshake");
        assert!(ack.contains("drain acknowledged"), "{ack}");
        let _ = server.run_until_shutdown();
    }
}
