//! The simulation engine: the partitioner, per-shard domains and the
//! [`Sim`] driver.
//!
//! A built [`Fabric`] is split into `N ≥ 1` *domains*, each owning a
//! disjoint set of devices (host RNIC/clock/app triples and switches), a
//! private event queue and a private packet slab. Domains advance
//! together in conservative-lookahead windows (see [`rperf_sim::shard`]
//! and DESIGN.md §3.7): the wire propagation delay lower-bounds every
//! cross-shard event, so a window of that width needs only one mailbox
//! exchange and barrier per round. One domain is the `N = 1` case of the
//! same engine: nothing crosses a shard boundary, so its windows are cut
//! only by the event budget's polling cadence.
//!
//! # Determinism
//!
//! Every scheduled event carries an explicit ordering key so that pop
//! order — and therefore simulation results — is a function of the
//! scenario alone, not of the shard count or thread timing:
//!
//! ```text
//! key = emitted_at ‖ source_device ‖ emission#
//!        64 bits       32 bits       32 bits
//! ```
//!
//! Same-timestamp events thus pop in *emission chronology* (an event
//! scheduled earlier pops first), with exact emission-time ties broken by
//! source device id and per-device emission count. All three components
//! are pure functions of the simulated history, identical under any
//! partitioning; cross-shard envelopes carry the key with them and the
//! mailbox merge preserves it. Each field holds its whole range — a
//! picosecond time, any `u32` device id, and a count no device can reach
//! in one instant (see [`KeySlot::key`]) — so no field wraps or carries
//! into its neighbour, and keys stay unique for any scenario. Packet
//! *handles* are per-shard (each domain allocates from its own slab) but
//! handle values are opaque to every device model, so re-homing a packet
//! body across a shard boundary is invisible to results.
//!
//! # Local indices
//!
//! Events and link tables address devices by their index *within the
//! owning domain*, so dispatch indexes the domain's device vectors
//! directly. Each domain's link table holds, per cable end, the peer's
//! local index and shard; the source device's global id lives only in its
//! [`KeySlot`], where the ordering key needs it. With one domain, local
//! and global indices coincide.

use std::sync::Arc;

use rperf_host::{Tsc, TscClock};
use rperf_model::arena::PacketSlab;
use rperf_model::{ClusterConfig, Lid, Packet, PacketRef, PortId, QpNum, Transport, VirtualLane};
use rperf_rnic::{Rnic, RnicAction};
use rperf_sim::shard::{run_sharded, Lookahead, Mailbox, ShardedWorld};
use rperf_sim::{EventQueue, RunOutcome, SimDuration, SimTime};
use rperf_switch::{Switch, SwitchAction};
use rperf_verbs::{RecvWr, SendWr, VerbsError};

use crate::topology::{Endpoint, Fabric};
use crate::trace::{TraceEvent, Tracer};
use crate::world::{self, App, FabricEvent};

/// Initial capacity of a domain's event queue. It sizes only the timer
/// wheel's ready lane, which holds one 4 ns bucket and grows on demand;
/// a whole queue peaks at about a thousand events on converged runs.
const QUEUE_CAPACITY: usize = 1024;

/// Builds the deterministic ordering key of the `ctr`-th event device
/// `dev` emits at `now` (see the module docs).
#[inline]
fn emit_key(now: SimTime, dev: u32, ctr: u32) -> u128 {
    (u128::from(now.as_ps()) << 64) | (u128::from(dev) << 32) | u128::from(ctr)
}

/// Per-device emission state: the device's global id plus a counter that
/// resets whenever the device's emission instant advances.
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
    ///
    /// The counter saturates instead of wrapping, so it can never carry
    /// into the device id or reorder earlier emissions. Reaching the
    /// bound takes 2³² emissions by one device in one picosecond —
    /// billions of events pending or handled at one instant, beyond any
    /// run's memory or time — so keys stay unique in every run.
    #[inline]
    fn key(&mut self, now: SimTime) -> u128 {
        if self.last != now {
            self.last = now;
            self.ctr = 0;
        }
        let ctr = self.ctr;
        self.ctr = ctr.saturating_add(1);
        emit_key(now, self.dev, ctr)
    }
}

/// A cable's far end, in the local coordinates of the domain that owns
/// the peer device.
#[derive(Debug, Clone, Copy)]
enum Hop {
    Rnic(u32),
    Switch(u32, PortId),
}

impl Hop {
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

/// One cable end's peer: where it lives and in which shard.
#[derive(Debug, Clone, Copy)]
struct Link {
    hop: Hop,
    shard: u32,
}

/// A cross-shard event in flight: the destination schedules `msg` for
/// `to` at `at` under the source-assigned ordering `key`.
#[derive(Debug)]
struct Envelope {
    at: SimTime,
    key: u128,
    to: Hop,
    msg: WireMsg,
}

/// The payload of an [`Envelope`]. A packet travels by value: the source
/// shard frees its slab entry at the boundary and the destination
/// re-allocates in its own slab.
#[derive(Debug)]
enum WireMsg {
    Packet(Packet),
    Credit { vl: VirtualLane, bytes: u64 },
}

/// The immutable cluster view shared by every domain: configuration,
/// LIDs and the device→(shard, local index) placement.
#[derive(Debug)]
struct ShardTopo {
    cfg: Arc<ClusterConfig>,
    lids: Vec<Lid>,
    nodes: usize,
    /// Device (node `i` → `i`, switch `j` → `nodes + j`) to shard.
    dev_shard: Vec<u32>,
    /// Device to index within its shard's local storage.
    dev_local: Vec<u32>,
}

impl ShardTopo {
    /// The (shard, local index) of global device `dev`.
    fn place(&self, dev: usize) -> (usize, usize) {
        (self.dev_shard[dev] as usize, self.dev_local[dev] as usize)
    }
}

/// Splits `weights.len()` devices over `shards` bins, heaviest-first onto
/// the currently lightest bin (longest-processing-time greedy). Returns
/// the per-device bin assignment.
///
/// Fully deterministic: weight ties keep device-id order and bin-load
/// ties pick the lowest bin, so the same topology always partitions the
/// same way — a precondition for reproducible sharded runs.
pub fn partition_devices(weights: &[u64], shards: usize) -> Vec<u32> {
    let shards = shards.max(1);
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&d| (u64::MAX - weights[d], d));
    let mut load = vec![0u64; shards];
    let mut assign = vec![0u32; weights.len()];
    for d in order {
        let mut best = 0usize;
        for (s, &l) in load.iter().enumerate().skip(1) {
            if l < load[best] {
                best = s;
            }
        }
        assign[d] = best as u32;
        load[best] += weights[d].max(1);
    }
    assign
}

/// A domain's routing state: its event queue and packet slab, the
/// emission keys of its devices, and the peer of every cable end it
/// owns. Local destinations are scheduled keyed on the domain's own
/// queue; cross-shard destinations go through the mailbox grid only —
/// lint rule D10 enforces this boundary.
struct Net {
    shard: u32,
    prop: SimDuration,
    q: EventQueue<FabricEvent>,
    slab: PacketSlab,
    rnic_link: Vec<Link>,
    rnic_key: Vec<KeySlot>,
    /// Per local switch, per port (`None` = unconnected).
    switch_link: Vec<Vec<Option<Link>>>,
    switch_key: Vec<KeySlot>,
    grid: Arc<Mailbox<Envelope>>,
    /// Cross-shard envelopes posted.
    sent: u64,
}

impl Net {
    /// Delivers a packet whose first (switch) or last (RNIC) bit reaches
    /// `link`'s peer at `at`.
    #[inline]
    fn send(&mut self, link: Link, at: SimTime, key: u128, packet: PacketRef) {
        if link.shard == self.shard {
            self.q.schedule(at, key, link.hop.packet(packet));
        } else {
            let body = self.slab.free(packet);
            self.post(link, at, key, WireMsg::Packet(body));
        }
    }

    /// Returns flow-control credits to `link`'s peer at `at`.
    #[inline]
    fn credit(&mut self, link: Link, at: SimTime, key: u128, vl: VirtualLane, bytes: u64) {
        if link.shard == self.shard {
            self.q.schedule(at, key, link.hop.credit(vl, bytes));
        } else {
            self.post(link, at, key, WireMsg::Credit { vl, bytes });
        }
    }

    #[cold]
    fn post(&mut self, link: Link, at: SimTime, key: u128, msg: WireMsg) {
        let env = Envelope {
            at,
            key,
            to: link.hop,
            msg,
        };
        self.grid
            .post(self.shard as usize, link.shard as usize, env);
        self.sent += 1;
    }

    /// Routes local RNIC `li`'s pending actions, draining `out` in place
    /// (no per-call allocation).
    fn route_rnic(&mut self, li: usize, now: SimTime, out: &mut Vec<RnicAction>) {
        let link = self.rnic_link[li];
        let prop = self.prop;
        for a in out.drain(..) {
            match a {
                RnicAction::Wake { at } => {
                    let k = self.rnic_key[li].key(now);
                    self.q.schedule(at, k, FabricEvent::RnicWake(li as u32));
                }
                RnicAction::Complete { cqe } => {
                    let at = cqe.visible_at.max(now);
                    let k = self.rnic_key[li].key(now);
                    let node = li as u32;
                    self.q.schedule(at, k, FabricEvent::AppCqe { node, cqe });
                }
                RnicAction::Transmit { packet, serialize } => {
                    // Serialization finishes before the last bit reaches a
                    // peer RNIC; a switch sees the first bit (cut-through).
                    let at = match link.hop {
                        Hop::Rnic(_) => now + serialize + prop,
                        Hop::Switch(..) => now + prop,
                    };
                    let k = self.rnic_key[li].key(now);
                    self.send(link, at, k, packet);
                }
                RnicAction::ReturnCredit { vl, bytes, after } => {
                    let at = now + after + prop;
                    let k = self.rnic_key[li].key(now);
                    self.credit(link, at, k, vl, bytes);
                }
            }
        }
    }

    /// Routes local switch `ls`'s pending actions; see
    /// [`Net::route_rnic`].
    fn route_switch(&mut self, ls: usize, now: SimTime, out: &mut Vec<SwitchAction>) {
        let prop = self.prop;
        for a in out.drain(..) {
            match a {
                SwitchAction::Wake { egress, at } => {
                    let k = self.switch_key[ls].key(now);
                    let switch = ls as u32;
                    self.q
                        .schedule(at, k, FabricEvent::SwitchWake { switch, egress });
                }
                SwitchAction::Transmit {
                    egress,
                    packet,
                    start_after,
                    serialize,
                } => {
                    let Some(link) = self.switch_link[ls][egress.index()] else {
                        // A topology-construction bug: drop the packet and
                        // let the slab leak check flag it.
                        debug_assert!(false, "switch {ls} transmits on unconnected {egress}");
                        continue;
                    };
                    let at = match link.hop {
                        Hop::Rnic(_) => now + start_after + serialize + prop,
                        Hop::Switch(..) => now + start_after + prop,
                    };
                    let k = self.switch_key[ls].key(now);
                    self.send(link, at, k, packet);
                }
                SwitchAction::ReturnCredit { ingress, vl, bytes } => {
                    let Some(link) = self.switch_link[ls][ingress.index()] else {
                        debug_assert!(false, "switch {ls} returns credit on unconnected {ingress}");
                        continue;
                    };
                    let at = now + prop;
                    let k = self.switch_key[ls].key(now);
                    self.credit(link, at, k, vl, bytes);
                }
            }
        }
    }
}

/// One shard's owned slice of the fabric: its devices, apps and routing
/// state.
struct Domain {
    net: Net,
    topo: Arc<ShardTopo>,
    rnics: Vec<Rnic>,
    clocks: Vec<TscClock>,
    switches: Vec<Switch>,
    apps: Vec<Option<Box<dyn App>>>,
    /// Global node id of each local RNIC.
    node_ids: Vec<u32>,
    /// Scratch buffers for device actions, drained by the routers every
    /// event so the hot loop never allocates.
    rnic_out: Vec<RnicAction>,
    switch_out: Vec<SwitchAction>,
    inbox: Vec<Envelope>,
    /// Cross-shard envelopes received.
    recv: u64,
    tracer: Option<Tracer>,
}

impl Domain {
    #[inline]
    fn handle_one(&mut self, now: SimTime, event: FabricEvent) {
        #[cfg(feature = "sim-prof")]
        let prof_kind = crate::prof::kind_of(&event);
        #[cfg(feature = "sim-prof")]
        let prof_start = std::time::Instant::now();
        if let Some(tracer) = &mut self.tracer {
            trace(tracer, &self.net.slab, now, &event);
        }
        // Split field borrows: the device gets `&mut` while the slab and
        // the scratch action buffer are used alongside it. Hot packet/wake
        // arms come first.
        match event {
            FabricEvent::SwitchPacket {
                switch,
                ingress,
                packet,
            } => {
                let ls = switch as usize;
                self.switches[ls].packet_arrival(
                    now,
                    ingress,
                    packet,
                    &self.net.slab,
                    &mut self.switch_out,
                );
                self.net.route_switch(ls, now, &mut self.switch_out);
            }
            FabricEvent::SwitchWake { switch, egress } => {
                let ls = switch as usize;
                self.switches[ls].egress_wake(now, egress, &mut self.switch_out);
                self.net.route_switch(ls, now, &mut self.switch_out);
            }
            FabricEvent::RnicPacket { node, packet } => {
                let li = node as usize;
                self.rnics[li].packet_arrival(now, packet, &mut self.net.slab, &mut self.rnic_out);
                self.net.route_rnic(li, now, &mut self.rnic_out);
            }
            FabricEvent::RnicWake(node) => {
                let li = node as usize;
                self.rnics[li].wake(now, &self.net.slab, &mut self.rnic_out);
                self.net.route_rnic(li, now, &mut self.rnic_out);
            }
            FabricEvent::SwitchCredit {
                switch,
                egress,
                vl,
                bytes,
            } => {
                let ls = switch as usize;
                self.switches[ls].credit_from_downstream(
                    now,
                    egress,
                    vl,
                    bytes,
                    &mut self.switch_out,
                );
                self.net.route_switch(ls, now, &mut self.switch_out);
            }
            FabricEvent::RnicCredit { node, vl, bytes } => {
                let li = node as usize;
                self.rnics[li].credit_from_peer(now, vl, bytes, &self.net.slab, &mut self.rnic_out);
                self.net.route_rnic(li, now, &mut self.rnic_out);
            }
            FabricEvent::AppCqe { node, cqe } => {
                self.with_app(node as usize, now, |app, ctx| app.on_cqe(ctx, cqe));
            }
            FabricEvent::AppTimer { node, token } => {
                self.with_app(node as usize, now, |app, ctx| app.on_timer(ctx, token));
            }
        }
        #[cfg(feature = "sim-prof")]
        crate::prof::record(prof_kind, prof_start.elapsed().as_nanos() as u64);
    }

    /// Runs `f` on local node `li`'s app (if any) with a [`Ctx`] over this
    /// domain.
    fn with_app<F>(&mut self, li: usize, now: SimTime, f: F)
    where
        F: FnOnce(&mut dyn App, &mut Ctx<'_>),
    {
        let Some(mut app) = self.apps[li].take() else {
            return; // completion on a node without an app: dropped
        };
        let node = self.node_ids[li] as usize;
        let mut ctx = Ctx {
            now,
            node,
            local: li,
            domain: self,
        };
        f(app.as_mut(), &mut ctx);
        self.apps[li] = Some(app);
    }
}

/// The app's window into the fabric: its own host's devices inside the
/// domain that owns them.
pub struct Ctx<'a> {
    now: SimTime,
    node: usize,
    /// The node's index within `domain`.
    local: usize,
    domain: &'a mut Domain,
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
        self.domain.topo.lids[node]
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.domain.topo.cfg
    }

    /// This host's TSC clock.
    pub fn clock(&self) -> &TscClock {
        &self.domain.clocks[self.local]
    }

    /// Reads this host's TSC at the current instant.
    pub fn read_tsc(&self) -> Tsc {
        self.clock().read(self.now)
    }

    /// Creates a queue pair on this node's RNIC.
    pub fn create_qp(&mut self, transport: Transport) -> QpNum {
        self.domain.rnics[self.local].create_qp(transport)
    }

    /// Posts a send work request on this node's RNIC.
    ///
    /// # Errors
    ///
    /// Propagates verbs validation errors.
    pub fn post_send(&mut self, qp: QpNum, wr: SendWr) -> Result<(), VerbsError> {
        let d = &mut *self.domain;
        d.rnics[self.local].post_send(self.now, qp, wr, &mut d.net.slab, &mut d.rnic_out)?;
        d.net.route_rnic(self.local, self.now, &mut d.rnic_out);
        Ok(())
    }

    /// Posts a batch of send work requests with one doorbell.
    ///
    /// # Errors
    ///
    /// If any work request fails validation, nothing is enqueued.
    pub fn post_send_batch(&mut self, qp: QpNum, wrs: Vec<SendWr>) -> Result<(), VerbsError> {
        let d = &mut *self.domain;
        d.rnics[self.local].post_send_batch(self.now, qp, wrs, &mut d.net.slab, &mut d.rnic_out)?;
        d.net.route_rnic(self.local, self.now, &mut d.rnic_out);
        Ok(())
    }

    /// Pre-posts a receive buffer.
    pub fn post_recv(&mut self, qp: QpNum, wr: RecvWr) {
        self.domain.rnics[self.local].post_recv(qp, wr);
    }

    /// Schedules an [`App::on_timer`] callback `delay` from now.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.now + delay;
        let net = &mut self.domain.net;
        let key = net.rnic_key[self.local].key(self.now);
        let node = self.local as u32;
        net.q
            .schedule(at, key, FabricEvent::AppTimer { node, token });
    }
}

/// Records the traced fields of `event`, copying them out of the slab
/// before the handlers consume the packet. Tracing runs on one domain
/// only, where local indices are global.
fn trace(tracer: &mut Tracer, slab: &PacketSlab, now: SimTime, event: &FabricEvent) {
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
        FabricEvent::AppCqe { node, ref cqe } => TraceEvent::Completion {
            node: node as usize,
            wr_id: cqe.wr_id.0,
        },
        _ => return,
    };
    tracer.record(now, record);
}

impl ShardedWorld for Domain {
    fn drain_inbound(&mut self) {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.recv += self
            .net
            .grid
            .drain_into(self.net.shard as usize, &mut inbox);
        for Envelope { at, key, to, msg } in inbox.drain(..) {
            let ev = match msg {
                WireMsg::Packet(body) => to.packet(self.net.slab.alloc(body)),
                WireMsg::Credit { vl, bytes } => to.credit(vl, bytes),
            };
            self.net.q.schedule(at, key, ev);
        }
        self.inbox = inbox;
    }

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

/// Deals `items` (one per device, in id order) out to the shards named
/// by `shard_of`; each shard's items keep id order, so an item's position
/// is its local index. One shard takes the whole vector as it is.
fn split<T>(items: Vec<T>, shard_of: &[u32], shards: usize) -> Vec<Vec<T>> {
    if shards == 1 {
        return vec![items];
    }
    let mut out: Vec<Vec<T>> = (0..shards).map(|_| Vec::new()).collect();
    for (item, &s) in items.into_iter().zip(shard_of) {
        out[s as usize].push(item);
    }
    out
}

/// A ready-to-run simulation: a fabric partitioned into one or more
/// domains, their applications and event queues.
///
/// [`Sim::new`] runs the whole fabric as one domain; [`Sim::sharded`]
/// spreads it over several, driven through the conservative-lookahead
/// window protocol on worker threads. Both are the same engine with the
/// same event order, so results are byte-identical for any shard count.
///
/// # Examples
///
/// See the `quickstart` example at the repository root, or any test in
/// `rperf-workloads`.
pub struct Sim {
    domains: Vec<Domain>,
    topo: Arc<ShardTopo>,
    lookahead: Lookahead,
    started: bool,
    /// Set by the first run that drains every queue, which counts leaks;
    /// nothing can schedule afterwards, so later runs count nothing.
    drained: bool,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("shards", &self.domains.len())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

impl Sim {
    /// Wraps a fabric as a single domain.
    pub fn new(fabric: Fabric) -> Self {
        Self::sharded(fabric, 1)
    }

    /// Partitions a fabric into at most `shards` domains (clamped to the
    /// device count) using weight-balanced assignment: switches weigh
    /// their connected port count, hosts weigh one.
    ///
    /// Ordering contract: every domain pops its events in `(time, key)`
    /// order under the emission keys of the module docs, so any shard
    /// count runs the same deterministic event order as [`Sim::new`].
    pub fn sharded(fabric: Fabric, shards: usize) -> Self {
        let nodes = fabric.nodes();
        let n_switches = fabric.switches_len();
        let devices = nodes + n_switches;
        let shards = shards.clamp(1, devices.max(1));

        let Fabric {
            cfg,
            rnics,
            clocks,
            switches,
            rnic_peer,
            switch_peer,
        } = fabric;

        let mut weights = vec![1u64; devices];
        for (s, peers) in switch_peer.iter().enumerate() {
            weights[nodes + s] = peers.iter().flatten().count().max(1) as u64;
        }
        let dev_shard = partition_devices(&weights, shards);

        // A device's local index is its position among its shard's devices
        // of the same kind, in id order.
        let (node_shard, switch_shard) = dev_shard.split_at(nodes);
        let mut dev_local = Vec::with_capacity(devices);
        for kind in [node_shard, switch_shard] {
            let mut next = vec![0u32; shards];
            for &s in kind {
                dev_local.push(next[s as usize]);
                next[s as usize] += 1;
            }
        }

        let link = |ep: Endpoint| -> Link {
            let (dev, hop) = match ep {
                Endpoint::Rnic(j) => (j, Hop::Rnic(dev_local[j])),
                Endpoint::SwitchPort(s, p) => (nodes + s, Hop::Switch(dev_local[nodes + s], p)),
            };
            Link {
                hop,
                shard: dev_shard[dev],
            }
        };
        let rnic_link: Vec<Link> = rnic_peer.iter().map(|&ep| link(ep)).collect();
        let switch_link: Vec<Vec<Option<Link>>> = switch_peer
            .iter()
            .map(|peers| peers.iter().map(|p| p.map(link)).collect())
            .collect();

        // Lookahead: the wire propagation delay bounds every cross-shard
        // event from below (serialization and arbitration only add time).
        let crossings = rnic_link.iter().zip(node_shard).any(|(l, &s)| l.shard != s)
            || switch_link
                .iter()
                .zip(switch_shard)
                .any(|(links, &s)| links.iter().flatten().any(|l| l.shard != s));
        let prop = cfg.link.propagation;
        let lookahead = if crossings {
            Lookahead::bounded(prop)
        } else {
            Lookahead::unbounded()
        };

        let lids = rnics.iter().map(Rnic::lid).collect();
        let mut node_ids = split((0..nodes as u32).collect(), node_shard, shards).into_iter();
        let mut rnics = split(rnics, node_shard, shards).into_iter();
        let mut clocks = split(clocks, node_shard, shards).into_iter();
        let mut rnic_link = split(rnic_link, node_shard, shards).into_iter();
        let mut switch_ids = split(
            (nodes as u32..devices as u32).collect(),
            switch_shard,
            shards,
        )
        .into_iter();
        let mut switches = split(switches, switch_shard, shards).into_iter();
        let mut switch_link = split(switch_link, switch_shard, shards).into_iter();

        let topo = Arc::new(ShardTopo {
            cfg,
            lids,
            nodes,
            dev_shard,
            dev_local,
        });
        let grid = Arc::new(Mailbox::new(shards));
        let domains = (0..shards)
            .map(|s| {
                let node_ids: Vec<u32> = node_ids.next().unwrap_or_default();
                let switch_ids: Vec<u32> = switch_ids.next().unwrap_or_default();
                Domain {
                    net: Net {
                        shard: s as u32,
                        prop,
                        q: EventQueue::with_capacity(QUEUE_CAPACITY),
                        slab: PacketSlab::new(),
                        rnic_link: rnic_link.next().unwrap_or_default(),
                        rnic_key: node_ids.iter().map(|&n| KeySlot::new(n)).collect(),
                        switch_link: switch_link.next().unwrap_or_default(),
                        switch_key: switch_ids.iter().map(|&d| KeySlot::new(d)).collect(),
                        grid: Arc::clone(&grid),
                        sent: 0,
                    },
                    topo: Arc::clone(&topo),
                    rnics: rnics.next().unwrap_or_default(),
                    clocks: clocks.next().unwrap_or_default(),
                    switches: switches.next().unwrap_or_default(),
                    apps: node_ids.iter().map(|_| None).collect(),
                    node_ids,
                    rnic_out: Vec::with_capacity(64),
                    switch_out: Vec::with_capacity(64),
                    inbox: Vec::new(),
                    recv: 0,
                    tracer: None,
                }
            })
            .collect();

        Sim {
            domains,
            topo,
            lookahead,
            started: false,
            drained: false,
        }
    }

    /// The number of domains actually running (after clamping).
    pub fn shards(&self) -> usize {
        self.domains.len()
    }

    /// The lookahead window the partition admits.
    pub fn lookahead(&self) -> Lookahead {
        self.lookahead
    }

    /// Enables packet tracing with a bounded buffer of `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics unless the simulation runs as one domain: a trace is one
    /// global, time-ordered record stream.
    pub fn enable_trace(&mut self, capacity: usize) {
        assert_eq!(self.domains.len(), 1, "tracing needs a one-domain Sim");
        self.domains[0].tracer = Some(Tracer::new(capacity));
    }

    /// The trace collected so far (if tracing is enabled).
    pub fn trace(&self) -> Option<&Tracer> {
        self.domains.first().and_then(|d| d.tracer.as_ref())
    }

    /// Attaches an app to a node (replacing any previous app).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or the simulation already started.
    pub fn add_app(&mut self, node: usize, app: Box<dyn App>) {
        assert!(!self.started, "apps must be attached before start()");
        let (shard, li) = self.topo.place(node);
        self.domains[shard].apps[li] = Some(app);
    }

    /// Calls every app's [`App::start`] in node order, on the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "start() may only be called once");
        self.started = true;
        for node in 0..self.topo.nodes {
            let (shard, li) = self.topo.place(node);
            let d = &mut self.domains[shard];
            let now = d.net.q.now();
            d.with_app(li, now, |app, ctx| app.start(ctx));
        }
    }

    /// Runs toward the horizon `t` (exclusive) under an event budget and
    /// a cooperative cancellation hook polled every `check_every` events;
    /// see [`rperf_sim::run_sharded`] for the exact budget semantics.
    ///
    /// Ordering contract: events pop in `(time, key)` order across
    /// pause/resume boundaries, so an uninterrupted call is bit-identical
    /// to [`Sim::run_until`] and an interrupted one leaves the simulation
    /// resumable. The process-wide event, slab and leak counters are
    /// updated either way. The first run that ends with every queue
    /// drained counts the packet handles still live in any domain's slab
    /// as leaks ([`crate::packets_leaked_total`]): with no events left, no
    /// packet can still be in flight. Horizon-bounded stops legitimately
    /// strand in-flight packets and count nothing, and so do runs after
    /// the first drained one, which would count the same handles again.
    pub fn run_until_budgeted(
        &mut self,
        t: SimTime,
        max_events: u64,
        check_every: u64,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> RunOutcome {
        let before = self.events_processed();
        #[cfg(feature = "sim-prof")]
        let msgs_before: Vec<u64> = self.domains.iter().map(|d| d.net.sent + d.recv).collect();
        let (outcome, _run_stats) = run_sharded(
            &mut self.domains,
            self.lookahead,
            t,
            max_events,
            check_every,
            cancelled,
        );
        world::note_events(self.events_processed() - before);
        for d in &self.domains {
            world::note_slab_high_water(d.net.slab.high_water() as u64);
        }
        if outcome == RunOutcome::QueueDrained && !self.drained {
            self.drained = true;
            let live = self.packets_live();
            world::note_leaks(live as u64);
            #[cfg(feature = "sim-sanitizer")]
            debug_assert_eq!(
                live, 0,
                "sim-sanitizer: {live} packet(s) still in the slab at quiescence"
            );
        }
        #[cfg(feature = "sim-prof")]
        for (i, d) in self.domains.iter().enumerate() {
            crate::prof::record_shard(
                i,
                _run_stats[i].events,
                _run_stats[i].barrier_ns,
                (d.net.sent + d.recv) - msgs_before[i],
            );
        }
        outcome
    }

    /// Runs until the horizon (exclusive) or until every queue drains.
    pub fn run_until(&mut self, t: SimTime) {
        let _ = self.run_until_budgeted(t, u64::MAX, u64::MAX, &mut || false);
    }

    /// Runs until every event queue drains completely; packet handles
    /// still live afterwards are leaks (see [`Sim::run_until_budgeted`]).
    pub fn run_to_quiescence(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Total events processed so far across all domains.
    pub fn events_processed(&self) -> u64 {
        self.domains.iter().map(|d| d.net.q.popped()).sum()
    }

    /// Live packet handles across all domain slabs (leak diagnostics).
    pub fn packets_live(&self) -> usize {
        self.domains.iter().map(|d| d.net.slab.live()).sum()
    }

    /// The RNIC of a node (for stats extraction).
    pub fn rnic(&self, node: usize) -> &Rnic {
        let (shard, li) = self.topo.place(node);
        &self.domains[shard].rnics[li]
    }

    /// A switch (for stats extraction).
    pub fn switch(&self, idx: usize) -> &Switch {
        let (shard, ls) = self.topo.place(self.topo.nodes + idx);
        &self.domains[shard].switches[ls]
    }

    /// Downcasts the app on `node` to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node has no app or the type does not match.
    pub fn app_as<T: App + 'static>(&self, node: usize) -> &T {
        let (shard, li) = self.topo.place(node);
        self.domains[shard].apps[li]
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
    use rperf_verbs::{Cqe, CqeOpcode, SendWr, WrId};
    use std::any::Any;

    /// Streams `count` messages of `payload` bytes to `target`, 8 in
    /// flight; records the last send-completion time.
    struct Streamer {
        target: usize,
        payload: u64,
        remaining: u64,
        qp: Option<QpNum>,
        last_done: SimTime,
    }

    impl Streamer {
        fn new(target: usize, payload: u64, count: u64) -> Self {
            Streamer {
                target,
                payload,
                remaining: count,
                qp: None,
                last_done: SimTime::ZERO,
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
            ctx.post_send_batch(qp, wrs).unwrap();
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
            if cqe.opcode == CqeOpcode::Send {
                self.last_done = ctx.now();
                if self.remaining > 0 {
                    self.remaining -= 1;
                    let wr = SendWr::new(cqe.wr_id, Verb::Send, self.payload)
                        .to(ctx.lid_of(self.target), QpNum::new(1));
                    ctx.post_send(self.qp.unwrap(), wr).unwrap();
                }
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Counts received messages and bytes; pre-posts receives at start.
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
            for i in 0..4096 {
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

    /// (per-sender last completion, per-sink (recvs, bytes, last arrival)).
    type Fingerprint = (Vec<SimTime>, Vec<(u64, u64, SimTime)>);

    /// 4 hosts stream to 4 hosts through one switch; returns a result
    /// fingerprint that every shard count must reproduce exactly.
    fn incast_fingerprint(cfg: ClusterConfig, shards: usize) -> Fingerprint {
        let senders = 4usize;
        let fabric = Fabric::single_switch(cfg, 2 * senders, 11);
        let mut sim = Sim::sharded(fabric, shards);
        for i in 0..senders {
            sim.add_app(
                i,
                Box::new(Streamer::new(senders + i, 1024 + 512 * i as u64, 40)),
            );
            sim.add_app(senders + i, Box::new(Sink::new()));
        }
        sim.start();
        sim.run_until(SimTime::from_us(500));
        assert_eq!(sim.packets_live(), 0, "packets leaked across shards");
        (0..senders)
            .map(|i| {
                let k = sim.app_as::<Sink>(senders + i);
                (
                    sim.app_as::<Streamer>(i).last_done,
                    (k.recvs, k.bytes, k.last_at),
                )
            })
            .unzip()
    }

    #[test]
    fn every_shard_count_matches_one_domain() {
        for cfg in [ClusterConfig::hardware, ClusterConfig::omnet_simulator] {
            let reference = incast_fingerprint(cfg(), 1);
            assert!(
                reference.1.iter().all(|&(recvs, _, _)| recvs == 40),
                "reference run must complete: {reference:?}"
            );
            for shards in [2, 3, 4, 9] {
                let sharded = incast_fingerprint(cfg(), shards);
                assert_eq!(
                    sharded, reference,
                    "shards={shards} diverged from one domain"
                );
            }
        }
    }

    #[test]
    fn sharded_run_is_reproducible() {
        let a = incast_fingerprint(ClusterConfig::hardware(), 4);
        let b = incast_fingerprint(ClusterConfig::hardware(), 4);
        assert_eq!(a, b);
    }

    fn streaming_pair(shards: usize) -> Sim {
        let fabric = Fabric::single_switch(ClusterConfig::hardware(), 4, 5);
        let mut sim = Sim::sharded(fabric, shards);
        sim.add_app(0, Box::new(Streamer::new(2, 4096, 200)));
        sim.add_app(1, Box::new(Streamer::new(3, 4096, 200)));
        sim.add_app(2, Box::new(Sink::new()));
        sim.add_app(3, Box::new(Sink::new()));
        sim.start();
        sim
    }

    #[test]
    fn sharded_budget_interrupts_at_window_granularity() {
        let mut sim = streaming_pair(2);
        let out = sim.run_until_budgeted(SimTime::from_us(10_000), 500, 64, &mut || false);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert!(
            sim.events_processed() >= 500,
            "budget stop before the floor: {}",
            sim.events_processed()
        );
        // Resumable: the rest of the run completes.
        let out = sim.run_until_budgeted(SimTime::from_us(10_000), u64::MAX, 64, &mut || false);
        assert_eq!(out, RunOutcome::QueueDrained);
        assert_eq!(sim.app_as::<Sink>(2).recvs, 200);
        assert_eq!(sim.app_as::<Sink>(3).recvs, 200);
    }

    #[test]
    fn one_domain_budget_is_exact_and_resumable() {
        let mut sim = streaming_pair(1);
        let out = sim.run_until_budgeted(SimTime::from_us(10_000), 500, 64, &mut || false);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert_eq!(sim.events_processed(), 500);
        let out = sim.run_until_budgeted(SimTime::from_us(10_000), u64::MAX, 64, &mut || false);
        assert_eq!(out, RunOutcome::QueueDrained);
        assert_eq!(sim.app_as::<Sink>(2).recvs, 200);
        // Interrupting changes nothing: the uninterrupted run ends the same.
        let mut whole = streaming_pair(1);
        whole.run_to_quiescence();
        assert_eq!(whole.events_processed(), sim.events_processed());
        assert_eq!(
            whole.app_as::<Sink>(3).last_at,
            sim.app_as::<Sink>(3).last_at
        );
    }

    #[test]
    fn single_shard_uses_unbounded_lookahead() {
        let fabric = Fabric::direct_pair(ClusterConfig::hardware(), 3);
        let sim = Sim::new(fabric);
        assert_eq!(sim.shards(), 1);
        assert_eq!(sim.lookahead(), Lookahead::unbounded());
    }

    #[test]
    #[should_panic(expected = "one-domain")]
    fn tracing_needs_one_domain() {
        let fabric = Fabric::single_switch(ClusterConfig::hardware(), 4, 5);
        Sim::sharded(fabric, 2).enable_trace(16);
    }

    #[test]
    fn partitioner_balances_and_is_deterministic() {
        // 9 hosts (weight 1) + one 9-port switch (weight 9) over 4 bins:
        // the switch must sit alone-ish on the first bin.
        let mut weights = vec![1u64; 9];
        weights.push(9);
        let a = partition_devices(&weights, 4);
        let b = partition_devices(&weights, 4);
        assert_eq!(a, b);
        assert_eq!(a[9], 0, "heaviest device goes to bin 0");
        let mut load = [0u64; 4];
        for (d, &s) in a.iter().enumerate() {
            load[s as usize] += weights[d];
        }
        assert_eq!(load.iter().sum::<u64>(), 18);
        assert!(
            load.iter().all(|&l| l <= 9),
            "no bin may exceed the heaviest device: {load:?}"
        );
    }

    #[test]
    fn partitioner_single_shard_collapses() {
        assert_eq!(partition_devices(&[3, 1, 1], 1), vec![0, 0, 0]);
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
