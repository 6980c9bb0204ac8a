//! The event world: device event routing and the application layer.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

use rperf_host::{Tsc, TscClock};
use rperf_model::{ClusterConfig, Lid, PacketRef, PortId, QpNum, Transport, VirtualLane};
use rperf_rnic::RnicAction;
use rperf_sim::{
    run, run_budgeted, EventQueue, RunOutcome, SimDuration, SimTime, StopCondition, World,
};
use rperf_switch::SwitchAction;
use rperf_verbs::{Cqe, RecvWr, SendWr, VerbsError};

use crate::topology::{Endpoint, Fabric};
use crate::trace::{TraceEvent, Tracer};

/// An event flowing through the assembled fabric.
///
/// Packet events carry [`PacketRef`] handles into the fabric's
/// [`rperf_model::PacketSlab`]; the packet body is allocated once at
/// injection and never copied per hop.
///
/// Node and switch indices are stored as `u32` rather than `usize`: the
/// enum sits inside every timer-wheel entry, and the narrower fields keep
/// the hot packet/wake variants to a single cache line's worth of entry
/// during cascade copies. (A fabric with 2³² nodes is far beyond any
/// scenario in the paper.)
#[derive(Debug, Clone)]
pub enum FabricEvent {
    /// An RNIC's self-scheduled wake-up.
    RnicWake(u32),
    /// A packet's last bit reaches an RNIC.
    RnicPacket {
        /// Destination node.
        node: u32,
        /// The packet.
        packet: PacketRef,
    },
    /// Flow-control credits reach an RNIC.
    RnicCredit {
        /// The node.
        node: u32,
        /// Virtual lane.
        vl: VirtualLane,
        /// Returned bytes.
        bytes: u64,
    },
    /// A packet's first bit reaches a switch ingress (cut-through).
    SwitchPacket {
        /// The switch.
        switch: u32,
        /// Ingress port.
        ingress: PortId,
        /// The packet.
        packet: PacketRef,
    },
    /// A switch egress wake-up.
    SwitchWake {
        /// The switch.
        switch: u32,
        /// Egress port to re-arbitrate.
        egress: PortId,
    },
    /// Credits return to a switch egress from its downstream peer.
    SwitchCredit {
        /// The switch.
        switch: u32,
        /// The egress port the credits apply to.
        egress: PortId,
        /// Virtual lane.
        vl: VirtualLane,
        /// Returned bytes.
        bytes: u64,
    },
    /// A completion becomes visible to the application on `node`.
    AppCqe {
        /// The node.
        node: u32,
        /// The completion.
        cqe: Cqe,
    },
    /// An application timer fires.
    AppTimer {
        /// The node whose app set the timer.
        node: u32,
        /// Opaque token chosen by the app.
        token: u64,
    },
}

/// The application interface: measurement tools and traffic generators
/// implement this and are attached to nodes with [`Sim::add_app`].
///
/// Apps are `Send` so a sharded run ([`crate::ShardedSim`]) can move each
/// node's app to the worker thread that owns its shard; apps hold only
/// their own measurement state, so this costs implementations nothing.
pub trait App: Send {
    /// Called once when the simulation starts.
    fn start(&mut self, ctx: &mut Ctx<'_>);

    /// Called when a completion becomes visible on this node.
    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Downcasting hook for result extraction after a run.
    fn as_any(&self) -> &dyn Any;
}

/// The engine behind a [`Ctx`]: the sequential engine hands apps the
/// whole fabric; the sharded engine hands them only their shard's slice
/// (see [`crate::shard`]). Apps cannot observe the difference — the
/// `Ctx` surface is identical and, by construction, so are the results.
enum CtxBackend<'a> {
    Full {
        fabric: &'a mut Fabric,
        q: &'a mut EventQueue<FabricEvent>,
        /// Scratch buffer for device actions, reused across posts so the
        /// verbs hot path performs no per-call allocation.
        out: &'a mut Vec<RnicAction>,
    },
    Shard(crate::shard::ShardEnv<'a>),
}

/// The app's window into the fabric.
pub struct Ctx<'a> {
    now: SimTime,
    node: usize,
    backend: CtxBackend<'a>,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<'a> Ctx<'a> {
    /// Wraps the sharded backend (constructed by `Domain::with_app`).
    pub(crate) fn sharded(now: SimTime, node: usize, env: crate::shard::ShardEnv<'a>) -> Self {
        Ctx {
            now,
            node,
            backend: CtxBackend::Shard(env),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this app runs on.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The LID of any node.
    pub fn lid_of(&self, node: usize) -> Lid {
        match &self.backend {
            CtxBackend::Full { fabric, .. } => fabric.lid_of(node),
            CtxBackend::Shard(env) => env.lid_of(node),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        match &self.backend {
            CtxBackend::Full { fabric, .. } => fabric.config(),
            CtxBackend::Shard(env) => env.config(),
        }
    }

    /// This host's TSC clock.
    pub fn clock(&self) -> &TscClock {
        match &self.backend {
            CtxBackend::Full { fabric, .. } => fabric.clock(self.node),
            CtxBackend::Shard(env) => env.clock(),
        }
    }

    /// Reads this host's TSC at the current instant.
    pub fn read_tsc(&self) -> Tsc {
        self.clock().read(self.now)
    }

    /// Creates a queue pair on this node's RNIC.
    pub fn create_qp(&mut self, transport: Transport) -> QpNum {
        match &mut self.backend {
            CtxBackend::Full { fabric, .. } => fabric.rnic_mut(self.node).create_qp(transport),
            CtxBackend::Shard(env) => env.create_qp(transport),
        }
    }

    /// Posts a send work request on this node's RNIC.
    ///
    /// # Errors
    ///
    /// Propagates verbs validation errors.
    pub fn post_send(&mut self, qp: QpNum, wr: SendWr) -> Result<(), VerbsError> {
        match &mut self.backend {
            CtxBackend::Full { fabric, q, out } => {
                let fabric = &mut **fabric;
                fabric.rnics[self.node].post_send(self.now, qp, wr, &mut fabric.slab, out)?;
                apply_rnic_actions(fabric, q, self.node, self.now, out);
                Ok(())
            }
            CtxBackend::Shard(env) => env.post_send(self.node, self.now, qp, wr),
        }
    }

    /// Posts a batch of send work requests with one doorbell.
    ///
    /// # Errors
    ///
    /// If any work request fails validation, nothing is enqueued.
    pub fn post_send_batch(&mut self, qp: QpNum, wrs: Vec<SendWr>) -> Result<(), VerbsError> {
        match &mut self.backend {
            CtxBackend::Full { fabric, q, out } => {
                let fabric = &mut **fabric;
                fabric.rnics[self.node].post_send_batch(
                    self.now,
                    qp,
                    wrs,
                    &mut fabric.slab,
                    out,
                )?;
                apply_rnic_actions(fabric, q, self.node, self.now, out);
                Ok(())
            }
            CtxBackend::Shard(env) => env.post_send_batch(self.node, self.now, qp, wrs),
        }
    }

    /// Pre-posts a receive buffer.
    pub fn post_recv(&mut self, qp: QpNum, wr: RecvWr) {
        match &mut self.backend {
            CtxBackend::Full { fabric, .. } => fabric.rnic_mut(self.node).post_recv(qp, wr),
            CtxBackend::Shard(env) => env.post_recv(qp, wr),
        }
    }

    /// Schedules an [`App::on_timer`] callback `delay` from now.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        match &mut self.backend {
            CtxBackend::Full { q, .. } => q.schedule(
                self.now + delay,
                FabricEvent::AppTimer {
                    node: self.node as u32,
                    token,
                },
            ),
            CtxBackend::Shard(env) => env.set_timer(self.node, self.now, delay, token),
        }
    }
}

/// Routes one RNIC's pending actions into the event queue, draining the
/// caller's scratch buffer in place (no per-call allocation).
fn apply_rnic_actions(
    fabric: &mut Fabric,
    q: &mut EventQueue<FabricEvent>,
    node: usize,
    now: SimTime,
    actions: &mut Vec<RnicAction>,
) {
    let prop = fabric.cfg.link.propagation;
    let peer = fabric.rnic_peer[node];
    for a in actions.drain(..) {
        match a {
            RnicAction::Wake { at } => q.schedule(at, FabricEvent::RnicWake(node as u32)),
            RnicAction::Transmit { packet, serialize } => match peer {
                Endpoint::Rnic(j) => q.schedule(
                    now + serialize + prop,
                    FabricEvent::RnicPacket {
                        node: j as u32,
                        packet,
                    },
                ),
                Endpoint::SwitchPort(s, p) => q.schedule(
                    now + prop,
                    FabricEvent::SwitchPacket {
                        switch: s as u32,
                        ingress: p,
                        packet,
                    },
                ),
            },
            RnicAction::ReturnCredit { vl, bytes, after } => match peer {
                Endpoint::Rnic(j) => q.schedule(
                    now + after + prop,
                    FabricEvent::RnicCredit {
                        node: j as u32,
                        vl,
                        bytes,
                    },
                ),
                Endpoint::SwitchPort(s, p) => q.schedule(
                    now + after + prop,
                    FabricEvent::SwitchCredit {
                        switch: s as u32,
                        egress: p,
                        vl,
                        bytes,
                    },
                ),
            },
            RnicAction::Complete { cqe } => q.schedule(
                cqe.visible_at.max(now),
                FabricEvent::AppCqe {
                    node: node as u32,
                    cqe,
                },
            ),
        }
    }
}

/// Routes one switch's pending actions into the event queue, draining the
/// caller's scratch buffer in place (no per-call allocation).
fn apply_switch_actions(
    fabric: &mut Fabric,
    q: &mut EventQueue<FabricEvent>,
    switch: usize,
    now: SimTime,
    actions: &mut Vec<SwitchAction>,
) {
    let prop = fabric.cfg.link.propagation;
    for a in actions.drain(..) {
        match a {
            SwitchAction::Wake { egress, at } => q.schedule(
                at,
                FabricEvent::SwitchWake {
                    switch: switch as u32,
                    egress,
                },
            ),
            SwitchAction::Transmit {
                egress,
                packet,
                start_after,
                serialize,
            } => match fabric.switch_peer[switch][egress.index()] {
                Some(Endpoint::Rnic(j)) => q.schedule(
                    now + start_after + serialize + prop,
                    FabricEvent::RnicPacket {
                        node: j as u32,
                        packet,
                    },
                ),
                Some(Endpoint::SwitchPort(s2, p2)) => q.schedule(
                    now + start_after + prop,
                    FabricEvent::SwitchPacket {
                        switch: s2 as u32,
                        ingress: p2,
                        packet,
                    },
                ),
                None => {
                    // A topology-construction bug: drop the packet and let
                    // the slab leak check flag it instead of aborting a run.
                    debug_assert!(false, "switch {switch} transmits on unconnected {egress}");
                }
            },
            SwitchAction::ReturnCredit { ingress, vl, bytes } => {
                match fabric.switch_peer[switch][ingress.index()] {
                    Some(Endpoint::Rnic(j)) => q.schedule(
                        now + prop,
                        FabricEvent::RnicCredit {
                            node: j as u32,
                            vl,
                            bytes,
                        },
                    ),
                    Some(Endpoint::SwitchPort(s2, p2)) => q.schedule(
                        now + prop,
                        FabricEvent::SwitchCredit {
                            switch: s2 as u32,
                            egress: p2,
                            vl,
                            bytes,
                        },
                    ),
                    None => {
                        debug_assert!(
                            false,
                            "switch {switch} returns credit on unconnected {ingress}"
                        );
                    }
                }
            }
        }
    }
}

struct WorldState {
    fabric: Fabric,
    /// One optional app per node (taken out during callbacks).
    apps: Vec<Option<Box<dyn App>>>,
    tracer: Option<Tracer>,
    /// Scratch buffers for device actions, drained by the `apply_*`
    /// routers every event so the hot loop never allocates.
    rnic_out: Vec<RnicAction>,
    switch_out: Vec<SwitchAction>,
    /// When set, [`World::handle`] drains every queued event that shares
    /// the current timestamp in the same call (batched link delivery).
    /// Off for budgeted runs, whose event accounting counts loop-level
    /// pops.
    batch: bool,
}

impl World for WorldState {
    type Event = FabricEvent;

    fn handle(&mut self, now: SimTime, event: FabricEvent, q: &mut EventQueue<FabricEvent>) {
        self.handle_one(now, event, q);
        if self.batch {
            // Batched link delivery: every event at this exact timestamp
            // (including zero-delay events scheduled while draining) is
            // dispatched here, skipping the run loop's per-event stop
            // check and virtual dispatch. Pop order is identical to the
            // unbatched loop — (time, seq) FIFO — so results are
            // bit-identical.
            while let Some(next) = q.pop_if_at(now) {
                self.handle_one(now, next, q);
            }
        }
    }
}

impl WorldState {
    #[inline]
    fn handle_one(&mut self, now: SimTime, event: FabricEvent, q: &mut EventQueue<FabricEvent>) {
        #[cfg(feature = "sim-prof")]
        let prof_kind = crate::prof::kind_of(&event);
        #[cfg(feature = "sim-prof")]
        let prof_start = std::time::Instant::now();
        if let Some(tracer) = &mut self.tracer {
            // Copy the traced fields out of the slab before the handlers
            // below consume the packet.
            match &event {
                FabricEvent::SwitchPacket {
                    switch,
                    ingress,
                    packet,
                } => {
                    let p = self.fabric.slab.get(*packet);
                    tracer.record(
                        now,
                        TraceEvent::SwitchIngress {
                            switch: *switch as usize,
                            ingress: *ingress,
                            packet: p.id,
                            payload: p.payload,
                        },
                    )
                }
                FabricEvent::RnicPacket { node, packet } => {
                    let p = self.fabric.slab.get(*packet);
                    tracer.record(
                        now,
                        TraceEvent::HostArrival {
                            node: *node as usize,
                            packet: p.id,
                            payload: p.payload,
                        },
                    )
                }
                FabricEvent::AppCqe { node, cqe } => tracer.record(
                    now,
                    TraceEvent::Completion {
                        node: *node as usize,
                        wr_id: cqe.wr_id.0,
                    },
                ),
                _ => {}
            }
        }
        // Split field borrows: the device gets `&mut` while the slab and
        // the scratch action buffer are used alongside it — all disjoint
        // fields. Hot packet/wake arms come first.
        let fabric = &mut self.fabric;
        match event {
            FabricEvent::SwitchPacket {
                switch,
                ingress,
                packet,
            } => {
                let switch = switch as usize;
                fabric.switches[switch].packet_arrival(
                    now,
                    ingress,
                    packet,
                    &fabric.slab,
                    &mut self.switch_out,
                );
                apply_switch_actions(fabric, q, switch, now, &mut self.switch_out);
            }
            FabricEvent::SwitchWake { switch, egress } => {
                let switch = switch as usize;
                fabric.switches[switch].egress_wake(now, egress, &mut self.switch_out);
                apply_switch_actions(fabric, q, switch, now, &mut self.switch_out);
            }
            FabricEvent::RnicPacket { node, packet } => {
                let node = node as usize;
                fabric.rnics[node].packet_arrival(
                    now,
                    packet,
                    &mut fabric.slab,
                    &mut self.rnic_out,
                );
                apply_rnic_actions(fabric, q, node, now, &mut self.rnic_out);
            }
            FabricEvent::RnicWake(node) => {
                let node = node as usize;
                fabric.rnics[node].wake(now, &fabric.slab, &mut self.rnic_out);
                apply_rnic_actions(fabric, q, node, now, &mut self.rnic_out);
            }
            FabricEvent::SwitchCredit {
                switch,
                egress,
                vl,
                bytes,
            } => {
                let switch = switch as usize;
                fabric.switches[switch].credit_from_downstream(
                    now,
                    egress,
                    vl,
                    bytes,
                    &mut self.switch_out,
                );
                apply_switch_actions(fabric, q, switch, now, &mut self.switch_out);
            }
            FabricEvent::RnicCredit { node, vl, bytes } => {
                let node = node as usize;
                fabric.rnics[node].credit_from_peer(
                    now,
                    vl,
                    bytes,
                    &fabric.slab,
                    &mut self.rnic_out,
                );
                apply_rnic_actions(fabric, q, node, now, &mut self.rnic_out);
            }
            FabricEvent::AppCqe { node, cqe } => {
                self.with_app(node as usize, now, q, |app, ctx| app.on_cqe(ctx, cqe));
            }
            FabricEvent::AppTimer { node, token } => {
                self.with_app(node as usize, now, q, |app, ctx| app.on_timer(ctx, token));
            }
        }
        #[cfg(feature = "sim-prof")]
        crate::prof::record(prof_kind, prof_start.elapsed().as_nanos() as u64);
    }

    fn with_app<F>(&mut self, node: usize, now: SimTime, q: &mut EventQueue<FabricEvent>, f: F)
    where
        F: FnOnce(&mut dyn App, &mut Ctx<'_>),
    {
        let Some(mut app) = self.apps[node].take() else {
            return; // completion on a node without an app: dropped
        };
        {
            let mut ctx = Ctx {
                now,
                node,
                backend: CtxBackend::Full {
                    fabric: &mut self.fabric,
                    q,
                    out: &mut self.rnic_out,
                },
            };
            f(app.as_mut(), &mut ctx);
        }
        self.apps[node] = Some(app);
    }
}

/// A ready-to-run simulation: a fabric, its applications and the event
/// queue.
///
/// # Examples
///
/// See the `quickstart` example at the repository root, or any test in
/// `rperf-workloads`.
pub struct Sim {
    world: WorldState,
    q: EventQueue<FabricEvent>,
    started: bool,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("queued_events", &self.q.len())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

/// Process-wide count of events handled by every [`Sim`] on any thread.
///
/// Parallel sweeps (`rperf-runner`) run many `Sim`s concurrently; the
/// relaxed atomic adds commute, so the total is deterministic even though
/// the interleaving is not. The bench report divides this by wall-clock
/// to track simulator throughput (events/sec) per figure.
static EVENTS_PROCESSED: AtomicU64 = AtomicU64::new(0);

/// Process-wide high-water mark of live packets in any [`Sim`]'s slab.
///
/// Updated (with a relaxed `fetch_max`) at the end of every `run_*` call;
/// the bench report records it as a peak-memory proxy for the packet
/// arena.
static SLAB_HIGH_WATER: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of packet handles still live when a simulation
/// reached quiescence — every count here is a leak: with no events left,
/// no packet can still be in flight.
static PACKETS_LEAKED: AtomicU64 = AtomicU64::new(0);

/// Total events processed by all simulations in this process so far.
///
/// Snapshot before and after a workload and subtract to attribute events
/// to it (valid also when the workload runs on worker threads).
pub fn events_processed_total() -> u64 {
    EVENTS_PROCESSED.load(Ordering::Relaxed)
}

/// Highest number of simultaneously live packets observed in any
/// simulation's slab in this process.
pub fn slab_high_water_total() -> u64 {
    SLAB_HIGH_WATER.load(Ordering::Relaxed)
}

/// Total packet handles found still allocated at quiescence across all
/// simulations in this process (must stay 0; anything else is a leak in
/// the device models).
pub fn packets_leaked_total() -> u64 {
    PACKETS_LEAKED.load(Ordering::Relaxed)
}

/// Adds to the process-wide event counter (the sharded engine's
/// counterpart of the `fetch_add` in [`Sim::run_until`]).
pub(crate) fn note_events(n: u64) {
    EVENTS_PROCESSED.fetch_add(n, Ordering::Relaxed);
}

/// Raises the process-wide slab high-water mark.
pub(crate) fn note_slab_high_water(n: u64) {
    SLAB_HIGH_WATER.fetch_max(n, Ordering::Relaxed);
}

impl Sim {
    /// Wraps a fabric.
    pub fn new(fabric: Fabric) -> Self {
        let nodes = fabric.nodes();
        Sim {
            world: WorldState {
                fabric,
                apps: (0..nodes).map(|_| None).collect(),
                tracer: None,
                rnic_out: Vec::with_capacity(64),
                switch_out: Vec::with_capacity(64),
                batch: true,
            },
            // Pre-size the heap: converged-traffic runs keep on the order
            // of a few hundred events in flight per node, and one up-front
            // allocation keeps regrowth out of the pop/push hot loop.
            q: EventQueue::with_capacity((nodes * 256).max(1024)),
            started: false,
        }
    }

    /// Enables packet tracing with a bounded buffer of `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.world.tracer = Some(Tracer::new(capacity));
    }

    /// The trace collected so far (if tracing is enabled).
    pub fn trace(&self) -> Option<&Tracer> {
        self.world.tracer.as_ref()
    }

    /// Attaches an app to a node (replacing any previous app).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or the simulation already started.
    pub fn add_app(&mut self, node: usize, app: Box<dyn App>) {
        assert!(!self.started, "apps must be attached before start()");
        self.world.apps[node] = Some(app);
    }

    /// Calls every app's [`App::start`] (in node order).
    pub fn start(&mut self) {
        assert!(!self.started, "start() may only be called once");
        self.started = true;
        for node in 0..self.world.apps.len() {
            let now = self.q.now();
            let q = &mut self.q;
            self.world.with_app(node, now, q, |app, ctx| app.start(ctx));
        }
    }

    /// Runs until the horizon (exclusive) or until the queue drains.
    ///
    /// Packets still in the slab afterwards are *not* counted as leaks:
    /// stopping at a horizon legitimately strands in-flight traffic.
    pub fn run_until(&mut self, t: SimTime) {
        let before = self.q.popped();
        self.world.batch = true;
        run(&mut self.world, &mut self.q, StopCondition::At(t));
        EVENTS_PROCESSED.fetch_add(self.q.popped() - before, Ordering::Relaxed);
        SLAB_HIGH_WATER.fetch_max(
            self.world.fabric.slab.high_water() as u64,
            Ordering::Relaxed,
        );
    }

    /// Runs toward the horizon (exclusive) under an event budget and a
    /// cooperative cancellation hook; see [`rperf_sim::run_budgeted`].
    ///
    /// Events are dispatched in deterministic (time, seq) order across
    /// pause/resume boundaries, so an uninterrupted call is bit-identical
    /// to [`Sim::run_until`]; an interrupted one leaves the simulation
    /// resumable. The global
    /// events/slab accounting is updated either way, so throughput
    /// attribution stays correct for cancelled work too.
    pub fn run_until_budgeted(
        &mut self,
        t: SimTime,
        max_events: u64,
        check_every: u64,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> RunOutcome {
        let before = self.q.popped();
        // Budgeted runs count events at the run loop: batching would let
        // `handle` pop past `max_events` between checks, so it is off.
        self.world.batch = false;
        let out = run_budgeted(
            &mut self.world,
            &mut self.q,
            t,
            max_events,
            check_every,
            cancelled,
        );
        EVENTS_PROCESSED.fetch_add(self.q.popped() - before, Ordering::Relaxed);
        SLAB_HIGH_WATER.fetch_max(
            self.world.fabric.slab.high_water() as u64,
            Ordering::Relaxed,
        );
        out
    }

    /// Runs until the event queue drains completely.
    ///
    /// At quiescence no packet can still be in flight, so any handle left
    /// in the slab is a leak; it is added to [`packets_leaked_total`].
    pub fn run_to_quiescence(&mut self) {
        let before = self.q.popped();
        self.world.batch = true;
        run(&mut self.world, &mut self.q, StopCondition::QueueEmpty);
        EVENTS_PROCESSED.fetch_add(self.q.popped() - before, Ordering::Relaxed);
        SLAB_HIGH_WATER.fetch_max(
            self.world.fabric.slab.high_water() as u64,
            Ordering::Relaxed,
        );
        let live = self.world.fabric.slab.live();
        if live > 0 {
            PACKETS_LEAKED.fetch_add(live as u64, Ordering::Relaxed);
        }
        #[cfg(feature = "sim-sanitizer")]
        debug_assert_eq!(
            live, 0,
            "sim-sanitizer: {live} packet(s) still in the slab at quiescence"
        );
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Total events processed so far (simulator throughput diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.q.popped()
    }

    /// The fabric (for stats extraction).
    pub fn fabric(&self) -> &Fabric {
        &self.world.fabric
    }

    /// Mutable fabric access (pre-start configuration).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.world.fabric
    }

    /// Downcasts the app on `node` to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node has no app or the type does not match.
    pub fn app_as<T: App + 'static>(&self, node: usize) -> &T {
        self.world.apps[node]
            .as_ref()
            .expect("node has no app")
            .as_any()
            .downcast_ref::<T>()
            .expect("app type mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rperf_model::{ClusterConfig, Verb};
    use rperf_verbs::{CqeOpcode, WrId};

    /// Sends one RC SEND at start; records completion times.
    struct OneShot {
        target: usize,
        payload: u64,
        qp: Option<QpNum>,
        send_done: Option<SimTime>,
    }

    impl OneShot {
        fn new(target: usize, payload: u64) -> Self {
            OneShot {
                target,
                payload,
                qp: None,
                send_done: None,
            }
        }
    }

    impl App for OneShot {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            let qp = ctx.create_qp(Transport::Rc);
            self.qp = Some(qp);
            let wr = SendWr::new(WrId(1), Verb::Send, self.payload)
                .to(ctx.lid_of(self.target), QpNum::new(1));
            ctx.post_send(qp, wr).unwrap();
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
            if cqe.opcode == CqeOpcode::Send {
                self.send_done = Some(ctx.now());
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Counts received messages and bytes.
    struct Sink {
        recvs: u64,
        bytes: u64,
        last_at: SimTime,
    }

    impl Sink {
        fn new() -> Self {
            Sink {
                recvs: 0,
                bytes: 0,
                last_at: SimTime::ZERO,
            }
        }
    }

    impl App for Sink {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            let qp = ctx.create_qp(Transport::Rc);
            for i in 0..1024 {
                ctx.post_recv(qp, RecvWr::new(WrId(i), 1 << 20));
            }
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
            if cqe.opcode == CqeOpcode::Recv {
                self.recvs += 1;
                self.bytes += cqe.bytes;
                self.last_at = ctx.now();
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn run_pair(through_switch: bool, payload: u64) -> (SimTime, u64) {
        let cfg = ClusterConfig::omnet_simulator();
        let fabric = if through_switch {
            Fabric::single_switch(cfg, 2, 7)
        } else {
            Fabric::direct_pair(cfg, 7)
        };
        let mut sim = Sim::new(fabric);
        sim.add_app(0, Box::new(OneShot::new(1, payload)));
        sim.add_app(1, Box::new(Sink::new()));
        sim.start();
        sim.run_to_quiescence();
        let sender = sim.app_as::<OneShot>(0);
        let sink = sim.app_as::<Sink>(1);
        assert_eq!(sink.recvs, 1);
        assert_eq!(sink.bytes, payload);
        (sender.send_done.expect("send completed"), sink.bytes)
    }

    #[test]
    fn end_to_end_send_completes_direct() {
        let (done, bytes) = run_pair(false, 64);
        assert_eq!(bytes, 64);
        // Sanity: completes within a few microseconds.
        assert!(done < SimTime::from_us(5), "done at {done}");
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn switch_adds_latency() {
        let (direct, _) = run_pair(false, 64);
        let (switched, _) = run_pair(true, 64);
        let delta = switched - direct;
        // One switch traversal per direction: roughly 2 × (pipeline + prop).
        assert!(
            delta > SimDuration::from_ns(300),
            "switch should add ≥ 300 ns to the RTT, added {delta}"
        );
        assert!(
            delta < SimDuration::from_ns(800),
            "switch delta implausibly large: {delta}"
        );
    }

    #[test]
    fn deterministic_end_to_end() {
        let (a, _) = run_pair(true, 4096);
        let (b, _) = run_pair(true, 4096);
        assert_eq!(a, b, "same seed must give identical timing");
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl App for TimerApp {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_ns(300), 3);
                ctx.set_timer(SimDuration::from_ns(100), 1);
                ctx.set_timer(SimDuration::from_ns(200), 2);
            }
            fn on_cqe(&mut self, _: &mut Ctx<'_>, _: Cqe) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim = Sim::new(Fabric::direct_pair(ClusterConfig::omnet_simulator(), 1));
        sim.add_app(0, Box::new(TimerApp { fired: vec![] }));
        sim.start();
        sim.run_to_quiescence();
        assert_eq!(sim.app_as::<TimerApp>(0).fired, vec![1, 2, 3]);
    }

    #[test]
    fn bulk_transfer_through_switch_reaches_wire_rate() {
        // 200 × 4096 B messages: the sink's goodput should be close to the
        // wire-limited prediction.
        struct Blaster {
            target: usize,
            outstanding: u64,
            remaining: u64,
            qp: Option<QpNum>,
        }
        impl App for Blaster {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                let qp = ctx.create_qp(Transport::Rc);
                self.qp = Some(qp);
                let wrs: Vec<SendWr> = (0..self.outstanding)
                    .map(|i| {
                        SendWr::new(WrId(i), Verb::Send, 4096)
                            .to(ctx.lid_of(self.target), QpNum::new(1))
                    })
                    .collect();
                self.remaining -= self.outstanding;
                ctx.post_send_batch(qp, wrs).unwrap();
            }
            fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
                if cqe.opcode == CqeOpcode::Send && self.remaining > 0 {
                    self.remaining -= 1;
                    let wr = SendWr::new(cqe.wr_id, Verb::Send, 4096)
                        .to(ctx.lid_of(self.target), QpNum::new(1));
                    ctx.post_send(self.qp.unwrap(), wr).unwrap();
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let cfg = ClusterConfig::omnet_simulator();
        let expected = rperf_model::analytic::wire_limited_goodput_gbps(&cfg, 4096);
        let mut sim = Sim::new(Fabric::single_switch(cfg, 2, 3));
        sim.add_app(
            0,
            Box::new(Blaster {
                target: 1,
                outstanding: 32,
                remaining: 200,
                qp: None,
            }),
        );
        sim.add_app(1, Box::new(Sink::new()));
        sim.start();
        sim.run_to_quiescence();
        let sink = sim.app_as::<Sink>(1);
        assert_eq!(sink.recvs, 200);
        let elapsed = sink.last_at - SimTime::ZERO;
        let gbps = sink.bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e9;
        assert!(
            gbps > expected * 0.85,
            "goodput {gbps:.1} Gbps too far below wire limit {expected:.1}"
        );
        assert!(
            gbps <= expected * 1.02,
            "goodput {gbps:.1} above wire limit"
        );
    }
}
