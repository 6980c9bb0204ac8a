//! The simulation engine: the [`Sim`] that owns a built [`Fabric`]'s
//! devices, apps, event queue and packet slab, and the [`Ctx`] it lends
//! each app.
//!
//! A simulation runs on one thread (DESIGN.md §6); [`rperf_sim::run`]
//! drives it in chunks so an external cancellation hook is polled
//! between them. Parallelism runs across simulations, never inside one.
//!
//! # Determinism
//!
//! Every scheduled event carries an explicit ordering key, so that pop
//! order — and therefore simulation results — is a function of the
//! scenario alone:
//!
//! ```text
//! key = emitted_at ‖ source_device ‖ emission#
//!        64 bits       32 bits       32 bits
//! ```
//!
//! Same-timestamp events thus pop in *emission chronology* (an event
//! scheduled earlier pops first), with exact emission-time ties broken by
//! source device id and per-device emission count. All three components
//! are pure functions of the simulated history. Each field holds its
//! whole range — a picosecond time, any `u32` device id, and a count no
//! device can reach in one instant (see [`KeySlot::key`]) — so no field
//! wraps or carries into its neighbour, and keys stay unique for any
//! scenario.
//!
//! # Device numbering
//!
//! Node `i` is device `i` and switch `j` is device `nodes + j`; events
//! and link tables address RNICs and switches by their index in the
//! `Sim`'s device vectors.

use std::sync::Arc;

use rperf_host::{Tsc, TscClock};
use rperf_model::arena::PacketSlab;
use rperf_model::{ClusterConfig, Lid, PacketRef, PortId, QpNum, Transport, VirtualLane};
use rperf_rnic::{Rnic, RnicAction};
use rperf_sim::{EventQueue, RunOutcome, SimDuration, SimTime, World};
use rperf_switch::{Switch, SwitchAction};
use rperf_verbs::{Cqe, RecvWr, SendWr, VerbsError};

use crate::topology::{Endpoint, Fabric};
use crate::trace::{TraceEvent, Tracer};
use crate::world::{self, App, FabricEvent, KINDS};

/// Initial capacity of the event queue. It sizes only the first buffer
/// of the timer wheel's ready lane. A level-0 bucket becomes the lane by
/// swapping buffers, so after the first refill this allocation serves
/// as one of the level-0 buckets' buffers, which all grow on demand; a
/// whole queue peaks at about a thousand events on converged runs.
const QUEUE_CAPACITY: usize = 1024;

/// Builds the deterministic ordering key of the `ctr`-th event device
/// `dev` emits at `now` (see the module docs).
#[inline]
fn emit_key(now: SimTime, dev: u32, ctr: u32) -> u128 {
    (u128::from(now.as_ps()) << 64) | (u128::from(dev) << 32) | u128::from(ctr)
}

/// Per-device emission state: the device id plus a counter that resets
/// whenever the device's emission instant advances.
#[derive(Debug, Clone, Copy)]
struct KeySlot {
    dev: u32,
    last: SimTime,
    ctr: u32,
}

impl KeySlot {
    fn new(dev: u32) -> Self {
        KeySlot {
            dev,
            last: SimTime::ZERO,
            ctr: 0,
        }
    }

    /// The ordering key of this device's next emission at `now`.
    #[inline]
    fn key(&mut self, now: SimTime) -> u128 {
        let ctr = self.next(now);
        emit_key(now, self.dev, ctr)
    }

    /// Takes the emission counter of this device's next emission at `now`.
    ///
    /// The counter saturates instead of wrapping, so it can never carry
    /// into the device id or reorder earlier emissions. Reaching the
    /// bound takes 2³² emissions by one device in one picosecond —
    /// billions of events pending or handled at one instant, beyond any
    /// run's memory or time — so keys stay unique in every run.
    #[inline]
    fn next(&mut self, now: SimTime) -> u32 {
        if self.last != now {
            self.last = now;
            self.ctr = 0;
        }
        let ctr = self.ctr;
        self.ctr = ctr.saturating_add(1);
        ctr
    }

    /// Keys a wake for `at` now and returns it held instead of scheduled.
    #[inline]
    fn hold(&mut self, now: SimTime, at: SimTime) -> HeldWake {
        debug_assert!(at > now, "a held wake at {at:?} does not follow {now:?}");
        let ctr = self.next(now);
        HeldWake {
            at,
            emitted: now,
            ctr,
        }
    }
}

/// A wake a device asked the router to hold ([`RnicAction::HoldWake`],
/// [`SwitchAction::HoldWake`]): its instant and the emission key it was
/// minted with, less the device id its slot implies. A held wake is for
/// the instant a port frees, strictly after the transmit that busied it,
/// so a zero `at` marks an empty slot.
#[derive(Debug, Clone, Copy, Default)]
struct HeldWake {
    at: SimTime,
    emitted: SimTime,
    ctr: u32,
}

/// A cable's far end.
#[derive(Debug, Clone, Copy)]
enum Hop {
    Rnic(u32),
    Switch(u32, PortId),
}

impl Hop {
    fn of(ep: Endpoint) -> Self {
        match ep {
            Endpoint::Rnic(node) => Hop::Rnic(node as u32),
            Endpoint::SwitchPort(switch, port) => Hop::Switch(switch as u32, port),
        }
    }

    #[inline]
    fn packet(self, packet: PacketRef) -> FabricEvent {
        match self {
            Hop::Rnic(node) => FabricEvent::RnicPacket { node, packet },
            Hop::Switch(switch, ingress) => FabricEvent::SwitchPacket {
                switch,
                ingress,
                packet,
            },
        }
    }

    #[inline]
    fn credit(self, vl: VirtualLane, bytes: u64) -> FabricEvent {
        match self {
            Hop::Rnic(node) => FabricEvent::RnicCredit { node, vl, bytes },
            Hop::Switch(switch, egress) => FabricEvent::SwitchCredit {
                switch,
                egress,
                vl,
                bytes,
            },
        }
    }
}

/// Completions between the RNIC action that produced them and the
/// [`FabricEvent::AppCqe`] that delivers them: the event carries a slot
/// index, so a 32-byte [`Cqe`] never inflates every event-queue entry.
/// Freed slots are reused, so the slab holds at most as many completions
/// as were ever pending at once.
#[derive(Debug, Default)]
struct CqeSlab {
    slots: Vec<Cqe>,
    free: Vec<u32>,
}

impl CqeSlab {
    /// Stores `cqe` and returns its slot.
    #[inline]
    fn put(&mut self, cqe: Cqe) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = cqe;
            return slot;
        }
        self.slots.push(cqe);
        (self.slots.len() - 1) as u32
    }

    /// The completion in `slot`.
    #[inline]
    fn get(&self, slot: u32) -> &Cqe {
        &self.slots[slot as usize]
    }

    /// Takes the completion out of `slot` and frees the slot.
    #[inline]
    fn take(&mut self, slot: u32) -> Cqe {
        self.free.push(slot);
        self.slots[slot as usize]
    }
}

/// The routing state of a [`Sim`]: its event queue, packet slab and CQE
/// slab, the emission keys of its devices, and the peer of every cable
/// end. Kept apart from the devices so a handler can hold one device
/// mutably while its actions are routed.
struct Net {
    prop: SimDuration,
    q: EventQueue<FabricEvent>,
    slab: PacketSlab,
    cqes: CqeSlab,
    rnic_link: Vec<Hop>,
    rnic_key: Vec<KeySlot>,
    rnic_held: Vec<HeldWake>,
    /// Per switch, per port (`None` = unconnected).
    switch_link: Vec<Vec<Option<Hop>>>,
    switch_key: Vec<KeySlot>,
    /// Per switch, per egress port.
    switch_held: Vec<Vec<HeldWake>>,
}

impl Net {
    /// Schedules `held` as `event` under the key device `dev` minted it
    /// with, if that still pops after the event being handled. A wake
    /// whose turn has passed would have found nothing to do then and is
    /// dropped, as is an empty slot.
    fn release(&mut self, held: HeldWake, dev: u32, event: FabricEvent) {
        if held.at == SimTime::ZERO {
            return;
        }
        let key = emit_key(held.emitted, dev, held.ctr);
        if (held.at, key) > (self.q.now(), self.q.now_key()) {
            self.q.schedule(held.at, key, event);
        }
    }

    /// Routes RNIC `node`'s pending actions, draining `out` in place (no
    /// per-call allocation).
    fn route_rnic(&mut self, node: usize, now: SimTime, out: &mut Vec<RnicAction>) {
        let link = self.rnic_link[node];
        let prop = self.prop;
        for a in out.drain(..) {
            match a {
                RnicAction::Wake { at } => {
                    let k = self.rnic_key[node].key(now);
                    self.q.schedule(at, k, FabricEvent::RnicWake(node as u32));
                }
                RnicAction::HoldWake { at } => {
                    self.rnic_held[node] = self.rnic_key[node].hold(now, at);
                }
                RnicAction::ReleaseWake => {
                    let held = std::mem::take(&mut self.rnic_held[node]);
                    let dev = self.rnic_key[node].dev;
                    self.release(held, dev, FabricEvent::RnicWake(node as u32));
                }
                RnicAction::Complete { cqe } => {
                    let at = cqe.visible_at.max(now);
                    let k = self.rnic_key[node].key(now);
                    let node = node as u32;
                    let slot = self.cqes.put(cqe);
                    self.q.schedule(at, k, FabricEvent::AppCqe { node, slot });
                }
                RnicAction::Transmit { packet, serialize } => {
                    // Serialization finishes before the last bit reaches a
                    // peer RNIC; a switch sees the first bit (cut-through).
                    let at = match link {
                        Hop::Rnic(_) => now + serialize + prop,
                        Hop::Switch(..) => now + prop,
                    };
                    let k = self.rnic_key[node].key(now);
                    self.q.schedule(at, k, link.packet(packet));
                }
                RnicAction::ReturnCredit { vl, bytes, after } => {
                    let at = now + after + prop;
                    let k = self.rnic_key[node].key(now);
                    self.q.schedule(at, k, link.credit(vl, bytes));
                }
            }
        }
    }

    /// Routes switch `sw`'s pending actions; see [`Net::route_rnic`].
    fn route_switch(&mut self, sw: usize, now: SimTime, out: &mut Vec<SwitchAction>) {
        let prop = self.prop;
        for a in out.drain(..) {
            match a {
                SwitchAction::Wake { egress, at } => {
                    let k = self.switch_key[sw].key(now);
                    let switch = sw as u32;
                    self.q
                        .schedule(at, k, FabricEvent::SwitchWake { switch, egress });
                }
                SwitchAction::HoldWake { egress, at } => {
                    self.switch_held[sw][egress.index()] = self.switch_key[sw].hold(now, at);
                }
                SwitchAction::ReleaseWake { egress } => {
                    let held = std::mem::take(&mut self.switch_held[sw][egress.index()]);
                    let dev = self.switch_key[sw].dev;
                    let switch = sw as u32;
                    self.release(held, dev, FabricEvent::SwitchWake { switch, egress });
                }
                SwitchAction::Transmit {
                    egress,
                    packet,
                    start_after,
                    serialize,
                } => {
                    let Some(link) = self.switch_link[sw][egress.index()] else {
                        // A topology-construction bug: drop the packet and
                        // let the slab leak check flag it.
                        debug_assert!(false, "switch {sw} transmits on unconnected {egress}");
                        continue;
                    };
                    let at = match link {
                        Hop::Rnic(_) => now + start_after + serialize + prop,
                        Hop::Switch(..) => now + start_after + prop,
                    };
                    let k = self.switch_key[sw].key(now);
                    self.q.schedule(at, k, link.packet(packet));
                }
                SwitchAction::ReturnCredit { ingress, vl, bytes } => {
                    let Some(link) = self.switch_link[sw][ingress.index()] else {
                        debug_assert!(false, "switch {sw} returns credit on unconnected {ingress}");
                        continue;
                    };
                    let at = now + prop;
                    let k = self.switch_key[sw].key(now);
                    self.q.schedule(at, k, link.credit(vl, bytes));
                }
            }
        }
    }
}

/// Wakes that transmitted nothing, per device kind: the `switch_wake`
/// events ([`crate::KIND_NAMES`]) that forwarded no packet and the
/// `rnic_wake` events that injected none. Deterministic, like the
/// per-kind event counts beside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdleWakes {
    /// Switch wakes that forwarded no packet.
    pub switch: u64,
    /// RNIC wakes that injected no packet (and so emitted no action).
    pub rnic: u64,
}

impl std::ops::AddAssign for IdleWakes {
    fn add_assign(&mut self, other: IdleWakes) {
        self.switch += other.switch;
        self.rnic += other.rnic;
    }
}

/// A ready-to-run simulation: the sole owner of a fabric's devices, the
/// apps attached to its nodes, and the event queue and packet slab they
/// share.
///
/// # Examples
///
/// See the `quickstart` example at the repository root, or any test in
/// `rperf-workloads`.
pub struct Sim {
    cfg: Arc<ClusterConfig>,
    lids: Vec<Lid>,
    net: Net,
    rnics: Vec<Rnic>,
    clocks: Vec<TscClock>,
    switches: Vec<Switch>,
    apps: Vec<Option<Box<dyn App>>>,
    /// Scratch buffers for device actions, drained by the routers every
    /// event so the hot loop never allocates.
    rnic_out: Vec<RnicAction>,
    switch_out: Vec<SwitchAction>,
    tracer: Option<Tracer>,
    /// Events dispatched so far, per kind ([`crate::KIND_NAMES`] order).
    events_by_kind: [u64; KINDS],
    /// Wakes dispatched so far that transmitted nothing.
    idle_wakes: IdleWakes,
    started: bool,
    /// Set by the first run that drains the queue, which counts leaks;
    /// nothing can schedule afterwards, so later runs count nothing.
    drained: bool,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("nodes", &self.rnics.len())
            .field("switches", &self.switches.len())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

impl Sim {
    /// Takes ownership of a built fabric.
    pub fn new(fabric: Fabric) -> Self {
        let Fabric {
            cfg,
            rnics,
            clocks,
            switches,
            rnic_peer,
            switch_peer,
        } = fabric;
        let nodes = rnics.len() as u32;
        let devices = nodes + switches.len() as u32;
        let net = Net {
            prop: cfg.link.propagation,
            q: EventQueue::with_capacity(QUEUE_CAPACITY),
            slab: PacketSlab::new(),
            cqes: CqeSlab::default(),
            rnic_link: rnic_peer.into_iter().map(Hop::of).collect(),
            rnic_key: (0..nodes).map(KeySlot::new).collect(),
            rnic_held: vec![HeldWake::default(); rnics.len()],
            switch_held: switch_peer
                .iter()
                .map(|peers| vec![HeldWake::default(); peers.len()])
                .collect(),
            switch_link: switch_peer
                .into_iter()
                .map(|peers| peers.into_iter().map(|p| p.map(Hop::of)).collect())
                .collect(),
            switch_key: (nodes..devices).map(KeySlot::new).collect(),
        };
        Sim {
            cfg,
            lids: rnics.iter().map(Rnic::lid).collect(),
            net,
            apps: rnics.iter().map(|_| None).collect(),
            rnics,
            clocks,
            switches,
            rnic_out: Vec::with_capacity(64),
            switch_out: Vec::with_capacity(64),
            tracer: None,
            events_by_kind: [0; KINDS],
            idle_wakes: IdleWakes::default(),
            started: false,
            drained: false,
        }
    }

    #[inline]
    fn handle_one(&mut self, now: SimTime, event: FabricEvent) {
        if let Some(tracer) = &mut self.tracer {
            trace(tracer, &self.net, now, &event);
        }
        // Split field borrows: the device gets `&mut` while the slab and
        // the scratch action buffer are used alongside it. Hot packet/wake
        // arms come first. Each arm counts its event at its index in
        // `KIND_NAMES` (a constant index: no per-event kind lookup).
        match event {
            FabricEvent::SwitchPacket {
                switch,
                ingress,
                packet,
            } => {
                self.events_by_kind[0] += 1;
                let sw = switch as usize;
                self.switches[sw].packet_arrival(
                    now,
                    ingress,
                    packet,
                    &self.net.slab,
                    &mut self.switch_out,
                );
                self.net.route_switch(sw, now, &mut self.switch_out);
            }
            FabricEvent::SwitchWake { switch, egress } => {
                self.events_by_kind[1] += 1;
                let sw = switch as usize;
                self.switches[sw].egress_wake(now, egress, &mut self.switch_out);
                let sent = |a: &SwitchAction| matches!(a, SwitchAction::Transmit { .. });
                if !self.switch_out.iter().any(sent) {
                    self.idle_wakes.switch += 1;
                }
                self.net.route_switch(sw, now, &mut self.switch_out);
            }
            FabricEvent::RnicPacket { node, packet } => {
                self.events_by_kind[2] += 1;
                let n = node as usize;
                self.rnics[n].packet_arrival(now, packet, &mut self.net.slab, &mut self.rnic_out);
                self.net.route_rnic(n, now, &mut self.rnic_out);
            }
            FabricEvent::RnicWake(node) => {
                self.events_by_kind[3] += 1;
                let n = node as usize;
                self.rnics[n].wake(now, &self.net.slab, &mut self.rnic_out);
                // An RNIC wake either transmits or emits nothing.
                if self.rnic_out.is_empty() {
                    self.idle_wakes.rnic += 1;
                }
                self.net.route_rnic(n, now, &mut self.rnic_out);
            }
            FabricEvent::SwitchCredit {
                switch,
                egress,
                vl,
                bytes,
            } => {
                self.events_by_kind[4] += 1;
                let sw = switch as usize;
                self.switches[sw].credit_from_downstream(
                    now,
                    egress,
                    vl,
                    bytes,
                    &mut self.switch_out,
                );
                self.net.route_switch(sw, now, &mut self.switch_out);
            }
            FabricEvent::RnicCredit { node, vl, bytes } => {
                self.events_by_kind[5] += 1;
                let n = node as usize;
                self.rnics[n].credit_from_peer(now, vl, bytes, &self.net.slab, &mut self.rnic_out);
                self.net.route_rnic(n, now, &mut self.rnic_out);
            }
            FabricEvent::AppCqe { node, slot } => {
                self.events_by_kind[6] += 1;
                let cqe = self.net.cqes.take(slot);
                self.with_app(node as usize, now, |app, ctx| app.on_cqe(ctx, cqe));
            }
            FabricEvent::AppTimer { node, token } => {
                self.events_by_kind[7] += 1;
                self.with_app(node as usize, now, |app, ctx| app.on_timer(ctx, token));
            }
        }
    }

    /// Runs `f` on `node`'s app (if any) with a [`Ctx`] over this
    /// simulation.
    fn with_app<F>(&mut self, node: usize, now: SimTime, f: F)
    where
        F: FnOnce(&mut dyn App, &mut Ctx<'_>),
    {
        let Some(mut app) = self.apps[node].take() else {
            return; // completion on a node without an app: dropped
        };
        let mut ctx = Ctx {
            now,
            node,
            sim: self,
        };
        f(app.as_mut(), &mut ctx);
        self.apps[node] = Some(app);
    }

    /// Enables packet tracing with a bounded buffer of `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// The trace collected so far (if tracing is enabled).
    pub fn trace(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attaches an app to a node (replacing any previous app).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or the simulation already started.
    pub fn add_app(&mut self, node: usize, app: Box<dyn App>) {
        assert!(!self.started, "apps must be attached before start()");
        self.apps[node] = Some(app);
    }

    /// Calls every app's [`App::start`] in node order.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "start() may only be called once");
        self.started = true;
        for node in 0..self.apps.len() {
            let now = self.net.q.now();
            self.with_app(node, now, |app, ctx| app.start(ctx));
        }
    }

    /// Runs toward the horizon `t` (exclusive) under an event budget and
    /// a cooperative cancellation hook polled every `check_every` events;
    /// see [`rperf_sim::run`] for the exact budget semantics.
    ///
    /// Ordering contract: events pop in `(time, key)` order across
    /// pause/resume boundaries, so an uninterrupted call is bit-identical
    /// to [`Sim::run_until`] and an interrupted one leaves the simulation
    /// resumable. The process-wide per-kind event, slab and leak counters
    /// are updated either way, once per call. The first run that ends
    /// with the queue drained counts the packet handles still live in the
    /// slab as leaks ([`crate::packets_leaked_total`]): with no events
    /// left, no packet can still be in flight. Horizon-bounded stops legitimately strand
    /// in-flight packets and count nothing, and so do runs after the
    /// first drained one, which would count the same handles again.
    pub fn run_until_budgeted(
        &mut self,
        t: SimTime,
        max_events: u64,
        check_every: u64,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> RunOutcome {
        let before = self.events_by_kind;
        let outcome = rperf_sim::run(self, t, max_events, check_every, cancelled);
        world::note_events(std::array::from_fn(|k| self.events_by_kind[k] - before[k]));
        world::note_slab_high_water(self.net.slab.high_water() as u64);
        if outcome == RunOutcome::QueueDrained && !self.drained {
            self.drained = true;
            let live = self.packets_live();
            world::note_leaks(live as u64);
            debug_assert_eq!(live, 0, "{live} packet(s) still in the slab at quiescence");
        }
        outcome
    }

    /// Runs until the horizon (exclusive) or until the queue drains.
    pub fn run_until(&mut self, t: SimTime) {
        let _ = self.run_until_budgeted(t, u64::MAX, u64::MAX, &mut || false);
    }

    /// Runs until the event queue drains completely; packet handles still
    /// live afterwards are leaks (see [`Sim::run_until_budgeted`]).
    pub fn run_to_quiescence(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.net.q.popped()
    }

    /// Events processed so far, per kind, in [`crate::KIND_NAMES`] order.
    pub fn events_by_kind(&self) -> [u64; KINDS] {
        self.events_by_kind
    }

    /// Wakes dispatched so far that transmitted nothing.
    pub fn idle_wakes(&self) -> IdleWakes {
        self.idle_wakes
    }

    /// Live packet handles in the slab (leak diagnostics).
    pub fn packets_live(&self) -> usize {
        self.net.slab.live()
    }

    /// The RNIC of a node (for stats extraction).
    pub fn rnic(&self, node: usize) -> &Rnic {
        &self.rnics[node]
    }

    /// A switch (for stats extraction).
    pub fn switch(&self, idx: usize) -> &Switch {
        &self.switches[idx]
    }

    /// Downcasts the app on `node` to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node has no app or the type does not match.
    pub fn app_as<T: App + 'static>(&self, node: usize) -> &T {
        self.apps[node]
            .as_ref()
            .expect("node has no app")
            .as_any()
            .downcast_ref::<T>()
            .expect("app type mismatch")
    }
}

impl World for Sim {
    fn next_time(&mut self) -> Option<SimTime> {
        self.net.q.peek_time()
    }

    fn run_window(&mut self, end: SimTime, cap: u64) -> u64 {
        let mut n = 0u64;
        while n < cap && self.net.q.peek_time().is_some_and(|t| t < end) {
            let Some((now, ev)) = self.net.q.pop() else {
                break;
            };
            n += 1;
            self.handle_one(now, ev);
        }
        n
    }
}

/// The app's window into the simulation: its own host's devices, borrowed
/// from the [`Sim`] that owns them.
pub struct Ctx<'a> {
    now: SimTime,
    node: usize,
    sim: &'a mut Sim,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl Ctx<'_> {
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
        self.sim.lids[node]
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.sim.cfg
    }

    /// This host's TSC clock.
    pub fn clock(&self) -> &TscClock {
        &self.sim.clocks[self.node]
    }

    /// Reads this host's TSC at the current instant.
    pub fn read_tsc(&self) -> Tsc {
        self.clock().read(self.now)
    }

    /// Creates a queue pair on this node's RNIC.
    pub fn create_qp(&mut self, transport: Transport) -> QpNum {
        self.sim.rnics[self.node].create_qp(transport)
    }

    /// Posts a send work request on this node's RNIC: a batch of one.
    ///
    /// # Errors
    ///
    /// As [`Ctx::post_send_batch`].
    pub fn post_send(&mut self, qp: QpNum, wr: SendWr) -> Result<(), VerbsError> {
        self.post_send_batch(qp, std::slice::from_ref(&wr))
    }

    /// Posts a batch of send work requests with one doorbell.
    ///
    /// # Errors
    ///
    /// If any work request fails validation, none is launched.
    pub fn post_send_batch(&mut self, qp: QpNum, wrs: &[SendWr]) -> Result<(), VerbsError> {
        let s = &mut *self.sim;
        s.rnics[self.node].post_send_batch(self.now, qp, wrs, &mut s.net.slab, &mut s.rnic_out)?;
        s.net.route_rnic(self.node, self.now, &mut s.rnic_out);
        Ok(())
    }

    /// Pre-posts a receive buffer.
    pub fn post_recv(&mut self, qp: QpNum, wr: RecvWr) {
        self.sim.rnics[self.node].post_recv(qp, wr);
    }

    /// Schedules an [`App::on_timer`] callback `delay` from now.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        let net = &mut self.sim.net;
        let key = net.rnic_key[self.node].key(self.now);
        let node = self.node as u32;
        net.q
            .schedule(at, key, FabricEvent::AppTimer { node, token });
    }
}

/// Records the traced fields of `event`, copying them out of the slabs
/// before the handlers consume the packet or the completion.
fn trace(tracer: &mut Tracer, net: &Net, now: SimTime, event: &FabricEvent) {
    let slab = &net.slab;
    let record = match *event {
        FabricEvent::SwitchPacket {
            switch,
            ingress,
            packet,
        } => {
            let p = slab.get(packet);
            TraceEvent::SwitchIngress {
                switch: switch as usize,
                ingress,
                packet: p.id,
                payload: p.payload,
            }
        }
        FabricEvent::RnicPacket { node, packet } => {
            let p = slab.get(packet);
            TraceEvent::HostArrival {
                node: node as usize,
                packet: p.id,
                payload: p.payload,
            }
        }
        FabricEvent::AppCqe { node, slot } => TraceEvent::Completion {
            node: node as usize,
            wr_id: net.cqes.get(slot).wr_id.0,
        },
        _ => return,
    };
    tracer.record(now, record);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rperf_model::{ClusterConfig, Verb};
    use rperf_verbs::{Cqe, CqeOpcode, SendWr, WrId};
    use std::any::Any;

    /// Streams `count` messages of `payload` bytes to `target`, 8 in
    /// flight.
    struct Streamer {
        target: usize,
        payload: u64,
        remaining: u64,
        qp: Option<QpNum>,
    }

    impl Streamer {
        fn new(target: usize, payload: u64, count: u64) -> Self {
            Streamer {
                target,
                payload,
                remaining: count,
                qp: None,
            }
        }
    }

    impl App for Streamer {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            let qp = ctx.create_qp(Transport::Rc);
            self.qp = Some(qp);
            let burst = self.remaining.min(8);
            let wrs: Vec<SendWr> = (0..burst)
                .map(|i| {
                    SendWr::new(WrId(i), Verb::Send, self.payload)
                        .to(ctx.lid_of(self.target), QpNum::new(1))
                })
                .collect();
            self.remaining -= burst;
            ctx.post_send_batch(qp, &wrs).unwrap();
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
            if cqe.opcode == CqeOpcode::Send && self.remaining > 0 {
                self.remaining -= 1;
                let wr = SendWr::new(cqe.wr_id, Verb::Send, self.payload)
                    .to(ctx.lid_of(self.target), QpNum::new(1));
                ctx.post_send(self.qp.unwrap(), wr).unwrap();
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Counts received messages and records the last arrival; pre-posts
    /// receives at start.
    struct Sink {
        recvs: u64,
        last_at: SimTime,
    }

    impl Sink {
        fn new() -> Self {
            Sink {
                recvs: 0,
                last_at: SimTime::ZERO,
            }
        }
    }

    impl App for Sink {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            let qp = ctx.create_qp(Transport::Rc);
            for i in 0..4096 {
                ctx.post_recv(qp, RecvWr::new(WrId(i), 1 << 20));
            }
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
            if cqe.opcode == CqeOpcode::Recv {
                self.recvs += 1;
                self.last_at = ctx.now();
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn streaming_pair() -> Sim {
        let fabric = Fabric::single_switch(ClusterConfig::hardware(), 4, 5);
        let mut sim = Sim::new(fabric);
        sim.add_app(0, Box::new(Streamer::new(2, 4096, 200)));
        sim.add_app(1, Box::new(Streamer::new(3, 4096, 200)));
        sim.add_app(2, Box::new(Sink::new()));
        sim.add_app(3, Box::new(Sink::new()));
        sim.start();
        sim
    }

    #[test]
    fn one_domain_budget_is_exact_and_resumable() {
        let mut sim = streaming_pair();
        let out = sim.run_until_budgeted(SimTime::from_us(10_000), 500, 64, &mut || false);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert_eq!(sim.events_processed(), 500);
        assert_eq!(sim.events_by_kind().iter().sum::<u64>(), 500);
        let out = sim.run_until_budgeted(SimTime::from_us(10_000), u64::MAX, 64, &mut || false);
        assert_eq!(out, RunOutcome::QueueDrained);
        assert_eq!(sim.app_as::<Sink>(2).recvs, 200);
        assert_eq!(
            sim.events_by_kind().iter().sum::<u64>(),
            sim.events_processed()
        );
        // Interrupting changes nothing: the uninterrupted run ends the same.
        let mut whole = streaming_pair();
        whole.run_to_quiescence();
        assert_eq!(whole.events_processed(), sim.events_processed());
        assert_eq!(whole.events_by_kind(), sim.events_by_kind());
        assert_eq!(
            whole.app_as::<Sink>(3).last_at,
            sim.app_as::<Sink>(3).last_at
        );
    }

    /// Posts RC SENDs on one QP, each `(delay, target, payload)` its
    /// delay after the start.
    struct Poster(Vec<(SimDuration, usize, u64)>);

    impl Poster {
        fn post(&self, ctx: &mut Ctx<'_>, i: usize) {
            let (_, target, payload) = self.0[i];
            let qp = QpNum::new(1);
            let wr = SendWr::new(WrId(i as u64), Verb::Send, payload).to(ctx.lid_of(target), qp);
            ctx.post_send(qp, wr).unwrap();
        }
    }

    impl App for Poster {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.create_qp(Transport::Rc);
            for (i, &(delay, ..)) in self.0.iter().enumerate() {
                if delay == SimDuration::ZERO {
                    self.post(ctx, i);
                } else {
                    ctx.set_timer(delay, i as u64);
                }
            }
        }

        fn on_cqe(&mut self, _: &mut Ctx<'_>, _: Cqe) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.post(ctx, token as usize);
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn poster(sends: &[(SimDuration, usize, u64)]) -> Box<dyn App> {
        Box::new(Poster(sends.to_vec()))
    }

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_ns(n)
    }

    /// Runs `fabric` with `apps` (the other nodes sink) to quiescence,
    /// tracing; returns the simulation.
    fn run_traced(fabric: Fabric, apps: Vec<(usize, Box<dyn App>)>) -> Sim {
        let nodes = fabric.nodes();
        let mut sim = Sim::new(fabric);
        sim.enable_trace(10_000);
        for node in 0..nodes {
            sim.add_app(node, Box::new(Sink::new()));
        }
        for (node, app) in apps {
            sim.add_app(node, app);
        }
        sim.start();
        sim.run_to_quiescence();
        sim
    }

    /// The instants packets of `payload` bytes reached `node`'s RNIC.
    fn arrivals(sim: &Sim, node: usize, payload: u64) -> Vec<SimTime> {
        let trace = sim.trace().expect("traced");
        trace
            .records()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::HostArrival {
                    node: n,
                    payload: p,
                    ..
                } if n == node && p == payload => Some(r.at),
                _ => None,
            })
            .collect()
    }

    /// Serialization time of an RC SEND's only packet on the link.
    fn wire_time(cfg: &ClusterConfig, payload: u64) -> SimDuration {
        let overhead = cfg
            .rnic
            .headers
            .data_overhead(Verb::Send, Transport::Rc, true);
        cfg.link.data_rate().serialize_time(payload + overhead)
    }

    const RNIC_WAKE: usize = 3;
    const SWITCH_WAKE: usize = 1;

    /// Hold: with nothing queued behind it, neither a transmit's wake
    /// nor a dispatch's is ever scheduled. One SEND and its ACK through
    /// a switch wake each RNIC once and each egress once, and no wake
    /// goes idle.
    #[test]
    fn a_lone_send_schedules_no_idle_wake() {
        let fabric = Fabric::single_switch(ClusterConfig::omnet_simulator(), 2, 1);
        let sim = run_traced(fabric, vec![(0, poster(&[(ns(0), 1, 64)]))]);
        assert_eq!(sim.app_as::<Sink>(1).recvs, 1);
        let by_kind = sim.events_by_kind();
        assert_eq!((by_kind[RNIC_WAKE], by_kind[SWITCH_WAKE]), (2, 2));
        assert_eq!(sim.idle_wakes(), IdleWakes::default());
    }

    /// RNIC release on a packet and drop: a 64 B SEND posted while a
    /// 4 KB one is on the wire is ready before the wire frees. Its own
    /// wake would pop on a busy wire and is never asked for; it releases
    /// the 4 KB packet's held wake instead, which sends it right behind.
    #[test]
    fn a_packet_ready_while_the_wire_is_busy_releases_the_held_wake() {
        let cfg = ClusterConfig::omnet_simulator();
        let big = wire_time(&cfg, 4096);
        let rnic = &cfg.rnic;
        // The 4 KB SEND reaches the wire after its doorbell, WQE and
        // payload DMA; the 64 B one is inlined.
        let first_on_wire = rnic.mmio_post
            + rnic.engine_time(1)
            + rnic.dma_read_latency
            + rnic.pcie_rate.serialize_time(4096);
        let small_at = first_on_wire + big / 2 - rnic.mmio_post - rnic.engine_time(1);
        let sends = poster(&[(ns(0), 1, 4096), (small_at, 1, 64)]);
        let sim = run_traced(Fabric::direct_pair(cfg.clone(), 1), vec![(0, sends)]);
        let (large, small) = (arrivals(&sim, 1, 4096), arrivals(&sim, 1, 64));
        assert_eq!((large.len(), small.len()), (1, 1), "both SENDs arrive");
        assert_eq!(
            small[0] - large[0],
            cfg.rnic.tx_ipg + wire_time(&cfg, 64),
            "the 64 B packet leaves as the wire frees"
        );
        assert_eq!(sim.idle_wakes(), IdleWakes::default());
    }

    /// RNIC release on a credit: with receive buffers for two 4 KB
    /// packets, every transmit from the second on spends the last credit
    /// and holds its wake, and the credit of the packet before returns
    /// while the wire is still busy. Releasing the wake then keeps the burst back to back,
    /// exactly as with credits to spare.
    #[test]
    fn a_credit_returned_while_the_wire_is_busy_releases_the_held_wake() {
        let burst = [(ns(0), 1, 4096); 6];
        let run = |rx_buffer_bytes| {
            let mut cfg = ClusterConfig::omnet_simulator();
            cfg.rnic.rx_buffer_bytes = rx_buffer_bytes;
            let sim = run_traced(Fabric::direct_pair(cfg, 1), vec![(0, poster(&burst))]);
            arrivals(&sim, 1, 4096)
        };
        let cfg = ClusterConfig::omnet_simulator();
        let (link, rnic) = (&cfg.link, &cfg.rnic);
        let packet = 4096 + rnic.headers.data_overhead(Verb::Send, Transport::Rc, true);
        // A credit comes back 2 × propagation + RX processing after its
        // packet's last bit leaves: after the next packet starts, before
        // it ends.
        let credit_back = link.propagation * 2 + rnic.rx_per_packet;
        assert!(credit_back > rnic.tx_ipg && credit_back < wire_time(&cfg, 4096));
        let tight = run(2 * packet);
        assert_eq!(tight.len(), burst.len());
        assert_eq!(tight, run(cfg.rnic.rx_buffer_bytes));
    }

    /// Switch hold, release on an arrival and drop: a 4 KB packet
    /// dispatched alone holds its egress's wake; a second one arriving
    /// while it is on the wire asks for a wake when the port frees, which
    /// releases the held wake and is itself dropped. The held wake sends
    /// the second packet back to back, and no switch wake goes idle.
    #[test]
    fn an_arrival_at_a_busy_egress_releases_its_held_wake() {
        let cfg = ClusterConfig::omnet_simulator();
        // The second packet reaches the switch after the first is
        // dispatched and becomes eligible before the port frees.
        let (pipeline, ser) = (cfg.switch.pipeline_latency, wire_time(&cfg, 4096));
        let gap = (pipeline + ser) / 2;
        assert!(gap > pipeline && gap + pipeline < ser);
        let fabric = Fabric::single_switch(cfg.clone(), 3, 1);
        let sim = run_traced(
            fabric,
            vec![
                (0, poster(&[(ns(0), 2, 4096)])),
                (1, poster(&[(gap, 2, 4096)])),
            ],
        );
        let at = arrivals(&sim, 2, 4096);
        assert_eq!(at.len(), 2);
        assert_eq!(
            at[1] - at[0],
            ser,
            "the second packet leaves as the port frees"
        );
        assert_eq!(sim.idle_wakes().switch, 0);
    }

    /// Switch release on a chained wake and its drop: a 64 B packet
    /// queues behind a 4 KB one bound for a busy egress. A third host's
    /// packet then goes out alone on the 64 B packet's egress and holds
    /// its wake. Dispatching the 4 KB packet exposes the 64 B one while
    /// that egress still transmits: the chained wake releases the held
    /// wake and is dropped, and the 64 B packet leaves right behind.
    #[test]
    fn an_exposed_head_at_a_busy_egress_releases_its_held_wake() {
        let cfg = ClusterConfig::omnet_simulator();
        let ser = |bytes| wire_time(&cfg, bytes);
        // Node 1 keeps egress 2 busy; node 0's 4 KB packet waits for it,
        // with the 64 B packet behind; node 4 then occupies egress 3.
        let fabric = Fabric::single_switch(cfg.clone(), 5, 1);
        let sim = run_traced(
            fabric,
            vec![
                (1, poster(&[(ns(0), 2, 4096)])),
                (0, poster(&[(ns(100), 2, 4096), (ns(100), 3, 64)])),
                (4, poster(&[(ns(560), 3, 4096)])),
            ],
        );
        assert_eq!(arrivals(&sim, 2, 4096).len(), 2);
        let (big, small) = (arrivals(&sim, 3, 4096), arrivals(&sim, 3, 64));
        assert_eq!((big.len(), small.len()), (1, 1));
        assert_eq!(
            small[0] - big[0],
            ser(64),
            "the exposed packet leaves as its egress frees"
        );
    }

    /// The router's "still ahead" check: a released wake is scheduled
    /// under its minted key only if that pops after the event being
    /// handled; one whose turn has passed is dropped.
    #[test]
    fn a_released_wake_whose_turn_has_passed_is_dropped() {
        let mut sim = Sim::new(Fabric::direct_pair(ClusterConfig::omnet_simulator(), 1));
        let net = &mut sim.net;
        let t = SimTime::from_ns(10);
        let held = |ctr| HeldWake {
            at: t,
            emitted: SimTime::from_ns(2),
            ctr,
        };
        let event = FabricEvent::RnicWake(0);
        net.q
            .schedule(t, emit_key(SimTime::from_ns(2), 0, 5), event.clone());
        net.q.pop();
        net.release(held(4), 0, event.clone());
        assert!(net.q.is_empty(), "keyed before the event being handled");
        net.release(held(6), 0, event.clone());
        assert_eq!(net.q.len(), 1, "keyed after it");
        net.release(HeldWake::default(), 0, event);
        assert_eq!(net.q.len(), 1, "an empty slot releases nothing");
    }

    /// A hold keys the wake where it is asked for, and a newer hold
    /// replaces an older one: the release schedules the newer wake under
    /// its own key.
    #[test]
    fn a_newer_hold_replaces_the_older() {
        let mut sim = Sim::new(Fabric::direct_pair(ClusterConfig::omnet_simulator(), 1));
        let net = &mut sim.net;
        let now = SimTime::ZERO;
        let (first, second) = (SimTime::from_ns(5), SimTime::from_ns(7));
        let mut out = vec![
            RnicAction::HoldWake { at: first },
            RnicAction::HoldWake { at: second },
        ];
        net.route_rnic(0, now, &mut out);
        assert!(net.q.is_empty(), "held wakes are not scheduled");
        out.push(RnicAction::ReleaseWake);
        net.route_rnic(0, now, &mut out);
        assert_eq!(net.q.len(), 1);
        assert_eq!(net.q.pop().map(|(at, _)| at), Some(second));
        assert_eq!(
            net.q.now_key(),
            emit_key(now, 0, 1),
            "the second key minted"
        );
    }

    #[test]
    fn emit_key_orders_by_chronology_then_device() {
        // Emitted earlier sorts first, whatever the device.
        let early = emit_key(SimTime::from_ns(10), 7, 0);
        let late = emit_key(SimTime::from_ns(90), 3, 0);
        assert!(early < late, "chronology dominates device id");
        // Same emission instant: device id breaks the tie.
        let dev3 = emit_key(SimTime::from_ns(50), 3, 0);
        let dev7 = emit_key(SimTime::from_ns(50), 7, 0);
        assert!(dev3 < dev7);
        // Same instant and device: emission counter orders.
        let first = emit_key(SimTime::from_ns(50), 3, 0);
        let second = emit_key(SimTime::from_ns(50), 3, 1);
        assert!(first < second);
    }

    #[test]
    fn emit_key_fields_never_carry() {
        // A full counter stays below the next device, and the largest
        // device id below the next picosecond: no field spills over.
        let t = SimTime::from_ns(50);
        assert!(emit_key(t, 3, u32::MAX) < emit_key(t, 4, 0));
        let next_ps = t + SimDuration::from_ps(1);
        assert!(emit_key(t, u32::MAX, u32::MAX) < emit_key(next_ps, 0, 0));
        // Emission times a second and more apart still order exactly.
        let far = SimTime::from_ps(3_000_000_000_000);
        assert!(emit_key(far, 0, 0) < emit_key(far + SimDuration::from_ps(1), 0, 0));
    }

    #[test]
    fn key_slot_resets_per_tick() {
        let mut slot = KeySlot::new(5);
        let t1 = SimTime::from_ns(1);
        assert_eq!(slot.key(t1), emit_key(t1, 5, 0));
        assert_eq!(slot.key(t1), emit_key(t1, 5, 1));
        let t2 = SimTime::from_ns(2);
        assert_eq!(slot.key(t2), emit_key(t2, 5, 0));
    }

    #[test]
    fn key_slot_keys_a_4096_event_burst() {
        // One RNIC posting 128 WRs of 32 packets each emits 4096 wakes at
        // one instant; every one needs its own key.
        let mut slot = KeySlot::new(9);
        let t = SimTime::from_ns(4);
        let keys: Vec<u128> = (0..5000).map(|_| slot.key(t)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(
            keys[4999] < emit_key(t, 10, 0),
            "counter spilled into the device id"
        );
    }
}
