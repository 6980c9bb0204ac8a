//! Sharded execution of one fabric: partitioner, per-shard domains and
//! the [`ShardedSim`] driver.
//!
//! A built [`Fabric`] is split into `N` *domains*, each owning a disjoint
//! set of devices (host RNIC/clock/app triples and switches), a private
//! event queue and a private packet slab. Domains advance together in
//! conservative-lookahead windows (see [`rperf_sim::shard`] and
//! DESIGN.md §3): the wire propagation delay lower-bounds every
//! cross-shard event, so a window of that width needs only one mailbox
//! exchange and barrier per round.
//!
//! # Determinism
//!
//! Every scheduled event carries an explicit ordering key so that pop
//! order — and therefore simulation results — is a function of the
//! scenario alone, not of the shard count or thread timing:
//!
//! ```text
//! key = (MAX_DELTA − (at − emitted_at)) ‖ source_device ‖ emission#
//!            40 bits                        12 bits        12 bits
//! ```
//!
//! Same-timestamp events thus pop in *emission chronology* (an event
//! scheduled earlier pops first — matching the sequential engine's
//! insertion order), with exact emission-time ties broken by source
//! device id and per-device emission count. All three components are
//! pure functions of the simulated history, identical under any
//! partitioning; cross-shard envelopes carry the key with them and the
//! mailbox merge preserves it. Packet *handles* are per-shard (each
//! domain allocates from its own slab) but handle values are opaque to
//! every device model, so re-homing a packet body across a shard
//! boundary is invisible to results.

use std::sync::Arc;

use rperf_host::TscClock;
use rperf_model::arena::PacketSlab;
use rperf_model::{ClusterConfig, Lid, Packet, PortId, QpNum, Transport, VirtualLane};
use rperf_rnic::{Rnic, RnicAction};
use rperf_sim::shard::{run_sharded, Lookahead, Mailbox, ShardedWorld};
use rperf_sim::{EventQueue, RunOutcome, SimDuration, SimTime};
use rperf_switch::{Switch, SwitchAction};
use rperf_verbs::{RecvWr, SendWr, VerbsError};

use crate::topology::{Endpoint, Fabric};
use crate::world::{App, FabricEvent, QUEUE_CAPACITY};

/// Bits of the ordering key holding the source device id.
const DEV_BITS: u32 = 12;
/// Bits of the ordering key holding the per-device emission counter.
const CTR_BITS: u32 = 12;
/// Bits of the ordering key holding the (inverted) scheduling delta.
const DELTA_BITS: u32 = 64 - DEV_BITS - CTR_BITS;
/// Saturation bound for the scheduling delta (~1.1 s in picoseconds).
const MAX_DELTA: u64 = (1 << DELTA_BITS) - 1;
/// Device-count ceiling imposed by the key layout.
const MAX_DEVICES: usize = 1 << DEV_BITS;

/// Builds the deterministic ordering key for an event emitted at `now`
/// and scheduled for `at` by device `dev` (see the module docs).
#[inline]
fn emit_key(at: SimTime, now: SimTime, dev: u32, ctr: u16) -> u64 {
    debug_assert!(at >= now, "emission into the past: {at:?} < {now:?}");
    let delta = (at.as_ps().saturating_sub(now.as_ps())).min(MAX_DELTA);
    ((MAX_DELTA - delta) << (DEV_BITS + CTR_BITS)) | (u64::from(dev) << CTR_BITS) | u64::from(ctr)
}

/// Per-device emission state: resets the counter whenever the device's
/// emission tick advances, so the 12-bit key field cannot wrap within a
/// tick (a device would need >4096 emissions in one picosecond tick).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeySlot {
    last: SimTime,
    ctr: u16,
}

impl KeySlot {
    #[inline]
    fn next(&mut self, now: SimTime) -> u16 {
        if self.last != now {
            self.last = now;
            self.ctr = 0;
        }
        let k = self.ctr;
        debug_assert!(
            k < (1 << CTR_BITS) - 1,
            "emission counter overflow in one tick"
        );
        self.ctr = self.ctr.wrapping_add(1);
        k
    }
}

/// A cross-shard event in flight: the destination schedules `msg` at
/// `at` under the source-assigned ordering `key`.
#[derive(Debug)]
pub(crate) struct Envelope {
    at: SimTime,
    key: u64,
    msg: WireMsg,
}

/// The event payload of an [`Envelope`]. Packet-bearing variants carry
/// the packet *body* by value: the source shard frees its slab entry at
/// the boundary and the destination re-allocates in its own slab.
#[derive(Debug)]
enum WireMsg {
    RnicPacket {
        node: u32,
        packet: Packet,
    },
    RnicCredit {
        node: u32,
        vl: VirtualLane,
        bytes: u64,
    },
    SwitchPacket {
        switch: u32,
        ingress: PortId,
        packet: Packet,
    },
    SwitchCredit {
        switch: u32,
        egress: PortId,
        vl: VirtualLane,
        bytes: u64,
    },
}

/// The immutable cluster view shared by every domain: configuration,
/// wiring, LIDs and the device→shard assignment.
#[derive(Debug)]
pub(crate) struct ShardTopo {
    cfg: Arc<ClusterConfig>,
    lids: Vec<Lid>,
    rnic_peer: Vec<Endpoint>,
    switch_peer: Vec<Vec<Option<Endpoint>>>,
    nodes: usize,
    /// Device (node `i` → `i`, switch `j` → `nodes + j`) to shard.
    dev_shard: Vec<u32>,
    /// Device to index within its shard's local storage.
    dev_local: Vec<u32>,
}

impl ShardTopo {
    #[inline]
    fn dev_of(&self, ep: Endpoint) -> u32 {
        match ep {
            Endpoint::Rnic(j) => j as u32,
            Endpoint::SwitchPort(s, _) => (self.nodes + s) as u32,
        }
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

/// Mutable per-app environment handed to [`crate::world::Ctx`] in
/// sharded runs: the app's own devices plus the routing surface
/// (queue, slab, mailbox grid). Cross-shard emissions go through the
/// mailbox only — lint rule D10 enforces this boundary.
pub(crate) struct ShardEnv<'a> {
    topo: &'a ShardTopo,
    shard: u32,
    grid: &'a Mailbox<Envelope>,
    q: &'a mut EventQueue<FabricEvent>,
    slab: &'a mut PacketSlab,
    rnic: &'a mut Rnic,
    clock: &'a TscClock,
    key: &'a mut KeySlot,
    out: &'a mut Vec<RnicAction>,
    sent: &'a mut u64,
}

impl ShardEnv<'_> {
    pub(crate) fn lid_of(&self, node: usize) -> Lid {
        self.topo.lids[node]
    }

    pub(crate) fn config(&self) -> &ClusterConfig {
        &self.topo.cfg
    }

    pub(crate) fn clock(&self) -> &TscClock {
        self.clock
    }

    pub(crate) fn create_qp(&mut self, transport: Transport) -> QpNum {
        self.rnic.create_qp(transport)
    }

    pub(crate) fn post_send(
        &mut self,
        node: usize,
        now: SimTime,
        qp: QpNum,
        wr: SendWr,
    ) -> Result<(), VerbsError> {
        self.rnic.post_send(now, qp, wr, self.slab, self.out)?;
        self.route_rnic(node, now);
        Ok(())
    }

    pub(crate) fn post_send_batch(
        &mut self,
        node: usize,
        now: SimTime,
        qp: QpNum,
        wrs: Vec<SendWr>,
    ) -> Result<(), VerbsError> {
        self.rnic
            .post_send_batch(now, qp, wrs, self.slab, self.out)?;
        self.route_rnic(node, now);
        Ok(())
    }

    pub(crate) fn post_recv(&mut self, qp: QpNum, wr: RecvWr) {
        self.rnic.post_recv(qp, wr);
    }

    pub(crate) fn set_timer(&mut self, node: usize, now: SimTime, delay: SimDuration, token: u64) {
        let at = now + delay;
        let key = emit_key(at, now, node as u32, self.key.next(now));
        self.q.schedule_keyed(
            at,
            key,
            FabricEvent::AppTimer {
                node: node as u32,
                token,
            },
        );
    }

    fn route_rnic(&mut self, node: usize, now: SimTime) {
        route_rnic_actions(
            self.topo, self.grid, self.shard, self.q, self.slab, self.key, self.out, self.sent,
            node, now,
        );
    }
}

/// Routes one RNIC's pending actions (the sharded counterpart of the
/// sequential engine's `apply_rnic_actions`): local destinations are
/// scheduled keyed on the shard's own queue, cross-shard destinations
/// are freed from the local slab and posted to the mailbox grid.
#[allow(clippy::too_many_arguments)]
fn route_rnic_actions(
    topo: &ShardTopo,
    grid: &Mailbox<Envelope>,
    shard: u32,
    q: &mut EventQueue<FabricEvent>,
    slab: &mut PacketSlab,
    key: &mut KeySlot,
    out: &mut Vec<RnicAction>,
    sent: &mut u64,
    node: usize,
    now: SimTime,
) {
    let prop = topo.cfg.link.propagation;
    let peer = topo.rnic_peer[node];
    let peer_shard = topo.dev_shard[topo.dev_of(peer) as usize];
    let dev = node as u32;
    for a in out.drain(..) {
        match a {
            RnicAction::Wake { at } => {
                let k = emit_key(at, now, dev, key.next(now));
                q.schedule_keyed(at, k, FabricEvent::RnicWake(dev));
            }
            RnicAction::Complete { cqe } => {
                let at = cqe.visible_at.max(now);
                let k = emit_key(at, now, dev, key.next(now));
                q.schedule_keyed(at, k, FabricEvent::AppCqe { node: dev, cqe });
            }
            RnicAction::Transmit { packet, serialize } => {
                // Serialization finishes before the last bit reaches a
                // peer RNIC; a switch sees the first bit (cut-through).
                let at = match peer {
                    Endpoint::Rnic(_) => now + serialize + prop,
                    Endpoint::SwitchPort(..) => now + prop,
                };
                let k = emit_key(at, now, dev, key.next(now));
                if peer_shard == shard {
                    let ev = match peer {
                        Endpoint::Rnic(j) => FabricEvent::RnicPacket {
                            node: j as u32,
                            packet,
                        },
                        Endpoint::SwitchPort(s, p) => FabricEvent::SwitchPacket {
                            switch: s as u32,
                            ingress: p,
                            packet,
                        },
                    };
                    q.schedule_keyed(at, k, ev);
                } else {
                    let body = slab.free(packet);
                    let msg = match peer {
                        Endpoint::Rnic(j) => WireMsg::RnicPacket {
                            node: j as u32,
                            packet: body,
                        },
                        Endpoint::SwitchPort(s, p) => WireMsg::SwitchPacket {
                            switch: s as u32,
                            ingress: p,
                            packet: body,
                        },
                    };
                    grid.post(
                        shard as usize,
                        peer_shard as usize,
                        Envelope { at, key: k, msg },
                    );
                    *sent += 1;
                }
            }
            RnicAction::ReturnCredit { vl, bytes, after } => {
                let at = now + after + prop;
                let k = emit_key(at, now, dev, key.next(now));
                let msg = match peer {
                    Endpoint::Rnic(j) => WireMsg::RnicCredit {
                        node: j as u32,
                        vl,
                        bytes,
                    },
                    Endpoint::SwitchPort(s, p) => WireMsg::SwitchCredit {
                        switch: s as u32,
                        egress: p,
                        vl,
                        bytes,
                    },
                };
                deliver(
                    grid,
                    shard,
                    peer_shard,
                    q,
                    sent,
                    Envelope { at, key: k, msg },
                );
            }
        }
    }
}

/// Routes one switch's pending actions; see [`route_rnic_actions`].
#[allow(clippy::too_many_arguments)]
fn route_switch_actions(
    topo: &ShardTopo,
    grid: &Mailbox<Envelope>,
    shard: u32,
    q: &mut EventQueue<FabricEvent>,
    slab: &mut PacketSlab,
    key: &mut KeySlot,
    out: &mut Vec<SwitchAction>,
    sent: &mut u64,
    switch: usize,
    now: SimTime,
) {
    let prop = topo.cfg.link.propagation;
    let dev = (topo.nodes + switch) as u32;
    for a in out.drain(..) {
        match a {
            SwitchAction::Wake { egress, at } => {
                let k = emit_key(at, now, dev, key.next(now));
                q.schedule_keyed(
                    at,
                    k,
                    FabricEvent::SwitchWake {
                        switch: switch as u32,
                        egress,
                    },
                );
            }
            SwitchAction::Transmit {
                egress,
                packet,
                start_after,
                serialize,
            } => {
                let Some(peer) = topo.switch_peer[switch][egress.index()] else {
                    debug_assert!(false, "switch {switch} transmits on unconnected {egress}");
                    continue;
                };
                let at = match peer {
                    Endpoint::Rnic(_) => now + start_after + serialize + prop,
                    Endpoint::SwitchPort(..) => now + start_after + prop,
                };
                let k = emit_key(at, now, dev, key.next(now));
                let peer_shard = topo.dev_shard[topo.dev_of(peer) as usize];
                if peer_shard == shard {
                    let ev = match peer {
                        Endpoint::Rnic(j) => FabricEvent::RnicPacket {
                            node: j as u32,
                            packet,
                        },
                        Endpoint::SwitchPort(s2, p2) => FabricEvent::SwitchPacket {
                            switch: s2 as u32,
                            ingress: p2,
                            packet,
                        },
                    };
                    q.schedule_keyed(at, k, ev);
                } else {
                    let body = slab.free(packet);
                    let msg = match peer {
                        Endpoint::Rnic(j) => WireMsg::RnicPacket {
                            node: j as u32,
                            packet: body,
                        },
                        Endpoint::SwitchPort(s2, p2) => WireMsg::SwitchPacket {
                            switch: s2 as u32,
                            ingress: p2,
                            packet: body,
                        },
                    };
                    grid.post(
                        shard as usize,
                        peer_shard as usize,
                        Envelope { at, key: k, msg },
                    );
                    *sent += 1;
                }
            }
            SwitchAction::ReturnCredit { ingress, vl, bytes } => {
                let Some(peer) = topo.switch_peer[switch][ingress.index()] else {
                    debug_assert!(
                        false,
                        "switch {switch} returns credit on unconnected {ingress}"
                    );
                    continue;
                };
                let at = now + prop;
                let k = emit_key(at, now, dev, key.next(now));
                let peer_shard = topo.dev_shard[topo.dev_of(peer) as usize];
                let msg = match peer {
                    Endpoint::Rnic(j) => WireMsg::RnicCredit {
                        node: j as u32,
                        vl,
                        bytes,
                    },
                    Endpoint::SwitchPort(s2, p2) => WireMsg::SwitchCredit {
                        switch: s2 as u32,
                        egress: p2,
                        vl,
                        bytes,
                    },
                };
                deliver(
                    grid,
                    shard,
                    peer_shard,
                    q,
                    sent,
                    Envelope { at, key: k, msg },
                );
            }
        }
    }
}

/// Delivers a packet-free envelope: locally by direct keyed scheduling,
/// across shards through the mailbox.
fn deliver(
    grid: &Mailbox<Envelope>,
    shard: u32,
    peer_shard: u32,
    q: &mut EventQueue<FabricEvent>,
    sent: &mut u64,
    env: Envelope,
) {
    if peer_shard == shard {
        let Envelope { at, key, msg } = env;
        // Credit messages carry no slab handle, so local scheduling needs
        // no re-homing.
        let ev = match msg {
            WireMsg::RnicCredit { node, vl, bytes } => FabricEvent::RnicCredit { node, vl, bytes },
            WireMsg::SwitchCredit {
                switch,
                egress,
                vl,
                bytes,
            } => FabricEvent::SwitchCredit {
                switch,
                egress,
                vl,
                bytes,
            },
            WireMsg::RnicPacket { .. } | WireMsg::SwitchPacket { .. } => {
                debug_assert!(false, "deliver() is for packet-free envelopes");
                return;
            }
        };
        q.schedule_keyed(at, key, ev);
    } else {
        grid.post(shard as usize, peer_shard as usize, env);
        *sent += 1;
    }
}

/// Cumulative per-shard execution counters (see [`ShardedSim::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardExecStats {
    /// Events this shard processed.
    pub events: u64,
    /// Synchronization windows this shard participated in.
    pub windows: u64,
    /// Wall-clock nanoseconds spent waiting at window barriers
    /// (collected only under the `sim-prof` feature; zero otherwise).
    pub barrier_ns: u64,
    /// Cross-shard envelopes this shard posted.
    pub sent_msgs: u64,
    /// Cross-shard envelopes this shard received.
    pub recv_msgs: u64,
}

/// One shard's owned slice of the fabric plus its private queue/slab.
struct Domain {
    shard: u32,
    topo: Arc<ShardTopo>,
    grid: Arc<Mailbox<Envelope>>,
    q: EventQueue<FabricEvent>,
    slab: PacketSlab,
    rnics: Vec<Rnic>,
    clocks: Vec<TscClock>,
    switches: Vec<Switch>,
    apps: Vec<Option<Box<dyn App>>>,
    /// Emission state per local device (rnics first, then switches).
    keys: Vec<KeySlot>,
    rnic_out: Vec<RnicAction>,
    switch_out: Vec<SwitchAction>,
    inbox: Vec<Envelope>,
    sent_msgs: u64,
    recv_msgs: u64,
}

impl Domain {
    #[inline]
    fn local_rnic(&self, node: u32) -> usize {
        debug_assert_eq!(self.topo.dev_shard[node as usize], self.shard);
        self.topo.dev_local[node as usize] as usize
    }

    #[inline]
    fn local_switch(&self, switch: u32) -> usize {
        let dev = self.topo.nodes + switch as usize;
        debug_assert_eq!(self.topo.dev_shard[dev], self.shard);
        self.topo.dev_local[dev] as usize
    }

    #[inline]
    fn handle_one(&mut self, now: SimTime, event: FabricEvent) {
        #[cfg(feature = "sim-prof")]
        let prof_kind = crate::prof::kind_of(&event);
        #[cfg(feature = "sim-prof")]
        let prof_start = std::time::Instant::now();
        match event {
            FabricEvent::SwitchPacket {
                switch,
                ingress,
                packet,
            } => {
                let li = self.local_switch(switch);
                self.switches[li].packet_arrival(
                    now,
                    ingress,
                    packet,
                    &self.slab,
                    &mut self.switch_out,
                );
                self.route_switch(switch, li, now);
            }
            FabricEvent::SwitchWake { switch, egress } => {
                let li = self.local_switch(switch);
                self.switches[li].egress_wake(now, egress, &mut self.switch_out);
                self.route_switch(switch, li, now);
            }
            FabricEvent::RnicPacket { node, packet } => {
                let li = self.local_rnic(node);
                self.rnics[li].packet_arrival(now, packet, &mut self.slab, &mut self.rnic_out);
                self.route_rnic(node, li, now);
            }
            FabricEvent::RnicWake(node) => {
                let li = self.local_rnic(node);
                self.rnics[li].wake(now, &self.slab, &mut self.rnic_out);
                self.route_rnic(node, li, now);
            }
            FabricEvent::SwitchCredit {
                switch,
                egress,
                vl,
                bytes,
            } => {
                let li = self.local_switch(switch);
                self.switches[li].credit_from_downstream(
                    now,
                    egress,
                    vl,
                    bytes,
                    &mut self.switch_out,
                );
                self.route_switch(switch, li, now);
            }
            FabricEvent::RnicCredit { node, vl, bytes } => {
                let li = self.local_rnic(node);
                self.rnics[li].credit_from_peer(now, vl, bytes, &self.slab, &mut self.rnic_out);
                self.route_rnic(node, li, now);
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

    fn route_rnic(&mut self, node: u32, li: usize, now: SimTime) {
        route_rnic_actions(
            &self.topo,
            &self.grid,
            self.shard,
            &mut self.q,
            &mut self.slab,
            &mut self.keys[li],
            &mut self.rnic_out,
            &mut self.sent_msgs,
            node as usize,
            now,
        );
    }

    fn route_switch(&mut self, switch: u32, li: usize, now: SimTime) {
        route_switch_actions(
            &self.topo,
            &self.grid,
            self.shard,
            &mut self.q,
            &mut self.slab,
            &mut self.keys[self.rnics.len() + li],
            &mut self.switch_out,
            &mut self.sent_msgs,
            switch as usize,
            now,
        );
    }

    fn with_app<F>(&mut self, node: usize, now: SimTime, f: F)
    where
        F: FnOnce(&mut dyn App, &mut crate::world::Ctx<'_>),
    {
        let li = self.local_rnic(node as u32);
        let Some(mut app) = self.apps[li].take() else {
            return; // completion on a node without an app: dropped
        };
        {
            let env = ShardEnv {
                topo: &self.topo,
                shard: self.shard,
                grid: &self.grid,
                q: &mut self.q,
                slab: &mut self.slab,
                rnic: &mut self.rnics[li],
                clock: &self.clocks[li],
                key: &mut self.keys[li],
                out: &mut self.rnic_out,
                sent: &mut self.sent_msgs,
            };
            let mut ctx = crate::world::Ctx::sharded(now, node, env);
            f(app.as_mut(), &mut ctx);
        }
        self.apps[li] = Some(app);
    }
}

impl ShardedWorld for Domain {
    fn drain_inbound(&mut self) {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.recv_msgs += self.grid.drain_into(self.shard as usize, &mut inbox);
        for env in inbox.drain(..) {
            let ev = match env.msg {
                WireMsg::RnicPacket { node, packet } => FabricEvent::RnicPacket {
                    node,
                    packet: self.slab.alloc(packet),
                },
                WireMsg::SwitchPacket {
                    switch,
                    ingress,
                    packet,
                } => FabricEvent::SwitchPacket {
                    switch,
                    ingress,
                    packet: self.slab.alloc(packet),
                },
                WireMsg::RnicCredit { node, vl, bytes } => {
                    FabricEvent::RnicCredit { node, vl, bytes }
                }
                WireMsg::SwitchCredit {
                    switch,
                    egress,
                    vl,
                    bytes,
                } => FabricEvent::SwitchCredit {
                    switch,
                    egress,
                    vl,
                    bytes,
                },
            };
            self.q.schedule_keyed(env.at, env.key, ev);
        }
        self.inbox = inbox;
    }

    fn next_time(&mut self) -> Option<SimTime> {
        self.q.peek_time()
    }

    fn run_window(&mut self, end: SimTime) -> u64 {
        let mut n = 0u64;
        while self.q.peek_time().is_some_and(|t| t < end) {
            let Some((now, ev)) = self.q.pop() else { break };
            n += 1;
            self.handle_one(now, ev);
            // Batched same-timestamp delivery, as in the sequential
            // engine's hot loop: drain every event sharing this tick
            // without re-consulting the window bound (they are all < end).
            while let Some(ev) = self.q.pop_if_at(now) {
                n += 1;
                self.handle_one(now, ev);
            }
        }
        n
    }
}

/// A partitioned simulation: the sharded counterpart of
/// [`crate::world::Sim`], driving `shards` domains through the
/// conservative-lookahead window protocol.
///
/// Construction, app attachment and startup mirror `Sim`; the runtime
/// differences are documented on [`ShardedSim::run_until_budgeted`].
pub struct ShardedSim {
    domains: Vec<Domain>,
    topo: Arc<ShardTopo>,
    lookahead: Lookahead,
    started: bool,
    stats: Vec<ShardExecStats>,
}

impl std::fmt::Debug for ShardedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSim")
            .field("shards", &self.domains.len())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

impl ShardedSim {
    /// Partitions a freshly built fabric into at most `shards` domains
    /// (clamped to the device count) using weight-balanced assignment:
    /// switches weigh their connected port count, hosts weigh one.
    ///
    /// # Panics
    ///
    /// Panics if the fabric exceeds the key layout's 4096-device ceiling
    /// or if packets are already in flight (the fabric must not have run).
    pub fn new(fabric: Fabric, shards: usize) -> Self {
        let nodes = fabric.nodes();
        let n_switches = fabric.switches_len();
        let devices = nodes + n_switches;
        assert!(
            devices <= MAX_DEVICES,
            "fabric has {devices} devices; the shard key fits {MAX_DEVICES}"
        );
        assert!(
            fabric.slab().is_empty(),
            "sharding requires a fabric that has not yet run"
        );
        let shards = shards.clamp(1, devices.max(1));

        let Fabric {
            cfg,
            rnics,
            clocks,
            switches,
            slab: _,
            rnic_peer,
            switch_peer,
        } = fabric;

        let mut weights = vec![1u64; devices];
        for (s, peers) in switch_peer.iter().enumerate() {
            weights[nodes + s] = peers.iter().flatten().count().max(1) as u64;
        }
        let dev_shard = partition_devices(&weights, shards);

        // Lookahead: the wire propagation delay bounds every cross-shard
        // event from below (serialization and arbitration only add time).
        let mut crossings = false;
        for (node, &peer) in rnic_peer.iter().enumerate() {
            let pd = match peer {
                Endpoint::Rnic(j) => j,
                Endpoint::SwitchPort(s, _) => nodes + s,
            };
            crossings |= dev_shard[node] != dev_shard[pd];
        }
        for (s, peers) in switch_peer.iter().enumerate() {
            for peer in peers.iter().flatten() {
                let pd = match peer {
                    Endpoint::Rnic(j) => *j,
                    Endpoint::SwitchPort(s2, _) => nodes + s2,
                };
                crossings |= dev_shard[nodes + s] != dev_shard[pd];
            }
        }
        let lookahead = if crossings {
            Lookahead::bounded(cfg.link.propagation)
        } else {
            Lookahead::unbounded()
        };

        let lids: Vec<Lid> = rnics.iter().map(Rnic::lid).collect();
        let mut dev_local = vec![0u32; devices];
        let mut per_shard_nodes: Vec<Vec<u32>> = vec![Vec::new(); shards];
        let mut per_shard_switches: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for node in 0..nodes {
            let s = dev_shard[node] as usize;
            dev_local[node] = per_shard_nodes[s].len() as u32;
            per_shard_nodes[s].push(node as u32);
        }
        for sw in 0..n_switches {
            let s = dev_shard[nodes + sw] as usize;
            dev_local[nodes + sw] = per_shard_switches[s].len() as u32;
            per_shard_switches[s].push(sw as u32);
        }

        let topo = Arc::new(ShardTopo {
            cfg,
            lids,
            rnic_peer,
            switch_peer,
            nodes,
            dev_shard,
            dev_local,
        });
        let grid = Arc::new(Mailbox::new(shards));

        // Distribute the owned devices: take each out of its global Vec
        // in id order (Option dance keeps the moves O(n)).
        let mut rnics: Vec<Option<Rnic>> = rnics.into_iter().map(Some).collect();
        let mut clocks: Vec<Option<TscClock>> = clocks.into_iter().map(Some).collect();
        let mut switches: Vec<Option<Switch>> = switches.into_iter().map(Some).collect();
        let domains = (0..shards)
            .map(|s| {
                let node_ids = std::mem::take(&mut per_shard_nodes[s]);
                let switch_ids = std::mem::take(&mut per_shard_switches[s]);
                let local_rnics: Vec<Rnic> = node_ids
                    .iter()
                    .filter_map(|&n| rnics[n as usize].take())
                    .collect();
                let local_clocks: Vec<TscClock> = node_ids
                    .iter()
                    .filter_map(|&n| clocks[n as usize].take())
                    .collect();
                let local_switches: Vec<Switch> = switch_ids
                    .iter()
                    .filter_map(|&w| switches[w as usize].take())
                    .collect();
                let locals = local_rnics.len() + local_switches.len();
                let apps = (0..local_rnics.len()).map(|_| None).collect();
                Domain {
                    shard: s as u32,
                    topo: Arc::clone(&topo),
                    grid: Arc::clone(&grid),
                    q: EventQueue::with_capacity(QUEUE_CAPACITY),
                    slab: PacketSlab::new(),
                    rnics: local_rnics,
                    clocks: local_clocks,
                    switches: local_switches,
                    apps,
                    keys: vec![KeySlot::default(); locals],
                    rnic_out: Vec::with_capacity(64),
                    switch_out: Vec::with_capacity(64),
                    inbox: Vec::new(),
                    sent_msgs: 0,
                    recv_msgs: 0,
                }
            })
            .collect();

        ShardedSim {
            domains,
            topo,
            lookahead,
            started: false,
            stats: vec![ShardExecStats::default(); shards],
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

    /// Attaches an app to a node (replacing any previous app).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or the simulation already started.
    pub fn add_app(&mut self, node: usize, app: Box<dyn App>) {
        assert!(!self.started, "apps must be attached before start()");
        let shard = self.topo.dev_shard[node] as usize;
        let li = self.topo.dev_local[node] as usize;
        self.domains[shard].apps[li] = Some(app);
    }

    /// Calls every app's [`App::start`] in node order, on the calling
    /// thread — identical startup sequencing to the sequential engine.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "start() may only be called once");
        self.started = true;
        for node in 0..self.topo.nodes {
            let shard = self.topo.dev_shard[node] as usize;
            let d = &mut self.domains[shard];
            let now = d.q.now();
            d.with_app(node, now, |app, ctx| app.start(ctx));
        }
    }

    /// Runs toward the horizon `t` (exclusive) under an event budget and
    /// a cooperative cancellation hook.
    ///
    /// Semantics match [`crate::world::Sim::run_until_budgeted`] with two
    /// window-granular relaxations: `check_every` is ignored (the
    /// cancellation hook is polled once per lookahead window, on the
    /// calling thread), and `max_events` stops the run at the first
    /// window boundary where the global event count has reached it — a
    /// budgeted stop may therefore overshoot by up to one window of
    /// events. Uninterrupted runs are unaffected by either relaxation.
    pub fn run_until_budgeted(
        &mut self,
        t: SimTime,
        max_events: u64,
        _check_every: u64,
        cancelled: &mut dyn FnMut() -> bool,
    ) -> RunOutcome {
        let before: u64 = self.domains.iter().map(|d| d.q.popped()).sum();
        #[cfg(feature = "sim-prof")]
        let msgs_before: Vec<u64> = self
            .domains
            .iter()
            .map(|d| d.sent_msgs + d.recv_msgs)
            .collect();
        let (outcome, run_stats) =
            run_sharded(&mut self.domains, self.lookahead, t, max_events, cancelled);
        let after: u64 = self.domains.iter().map(|d| d.q.popped()).sum();
        crate::world::note_events(after - before);
        for (i, d) in self.domains.iter().enumerate() {
            crate::world::note_slab_high_water(d.slab.high_water() as u64);
            let s = &mut self.stats[i];
            s.events += run_stats[i].events;
            s.windows += run_stats[i].windows;
            s.barrier_ns += run_stats[i].barrier_ns;
            s.sent_msgs = d.sent_msgs;
            s.recv_msgs = d.recv_msgs;
        }
        #[cfg(feature = "sim-prof")]
        for (i, d) in self.domains.iter().enumerate() {
            crate::prof::record_shard(
                i,
                run_stats[i].events,
                run_stats[i].barrier_ns,
                (d.sent_msgs + d.recv_msgs) - msgs_before[i],
            );
        }
        outcome
    }

    /// Runs until the horizon (exclusive) or until every queue drains;
    /// the unbounded convenience wrapper over
    /// [`ShardedSim::run_until_budgeted`].
    pub fn run_until(&mut self, t: SimTime) {
        let _ = self.run_until_budgeted(t, u64::MAX, 0, &mut || false);
    }

    /// Total events processed so far across all shards.
    pub fn events_processed(&self) -> u64 {
        self.domains.iter().map(|d| d.q.popped()).sum()
    }

    /// Cumulative per-shard execution counters (events, windows, barrier
    /// wait, mailbox traffic), indexed by shard.
    pub fn shard_stats(&self) -> &[ShardExecStats] {
        &self.stats
    }

    /// Live packet handles across all shard slabs (leak diagnostics).
    pub fn packets_live(&self) -> usize {
        self.domains.iter().map(|d| d.slab.live()).sum()
    }

    /// Downcasts the app on `node` to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node has no app or the type does not match.
    pub fn app_as<T: App + 'static>(&self, node: usize) -> &T {
        let shard = self.topo.dev_shard[node] as usize;
        let li = self.topo.dev_local[node] as usize;
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
    use crate::world::{Ctx, Sim};
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

    impl crate::world::App for Streamer {
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

    impl crate::world::App for Sink {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            let qp = ctx.create_qp(Transport::Rc);
            for i in 0..4096 {
                ctx.post_recv(qp, rperf_verbs::RecvWr::new(WrId(i), 1 << 20));
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
    /// fingerprint that any conforming engine must reproduce exactly.
    fn incast_fingerprint(cfg: ClusterConfig, shards: usize) -> Fingerprint {
        let senders = 4usize;
        let fabric = Fabric::single_switch(cfg, 2 * senders, 11);
        let horizon = SimTime::from_us(500);
        let extract = |sim_apps: &dyn Fn(usize) -> (SimTime, (u64, u64, SimTime))| {
            let mut sends = Vec::new();
            let mut sinks = Vec::new();
            for i in 0..senders {
                let (s, k) = sim_apps(i);
                sends.push(s);
                sinks.push(k);
            }
            (sends, sinks)
        };
        if shards == 0 {
            // The sequential reference engine.
            let mut sim = Sim::new(fabric);
            for i in 0..senders {
                sim.add_app(
                    i,
                    Box::new(Streamer::new(senders + i, 1024 + 512 * i as u64, 40)),
                );
                sim.add_app(
                    senders + i,
                    Box::new(Sink {
                        recvs: 0,
                        bytes: 0,
                        last_at: SimTime::ZERO,
                    }),
                );
            }
            sim.start();
            sim.run_until(horizon);
            extract(&|i| {
                let s = sim.app_as::<Streamer>(i).last_done;
                let k = sim.app_as::<Sink>(senders + i);
                (s, (k.recvs, k.bytes, k.last_at))
            })
        } else {
            let mut sim = ShardedSim::new(fabric, shards);
            for i in 0..senders {
                sim.add_app(
                    i,
                    Box::new(Streamer::new(senders + i, 1024 + 512 * i as u64, 40)),
                );
                sim.add_app(
                    senders + i,
                    Box::new(Sink {
                        recvs: 0,
                        bytes: 0,
                        last_at: SimTime::ZERO,
                    }),
                );
            }
            sim.start();
            sim.run_until(horizon);
            assert_eq!(sim.packets_live(), 0, "packets leaked across shards");
            extract(&|i| {
                let s = sim.app_as::<Streamer>(i).last_done;
                let k = sim.app_as::<Sink>(senders + i);
                (s, (k.recvs, k.bytes, k.last_at))
            })
        }
    }

    #[test]
    fn sharded_matches_sequential_engine() {
        for cfg in [ClusterConfig::hardware, ClusterConfig::omnet_simulator] {
            let reference = incast_fingerprint(cfg(), 0);
            assert!(
                reference.1.iter().all(|&(recvs, _, _)| recvs == 40),
                "reference run must complete: {reference:?}"
            );
            for shards in [1, 2, 3, 4, 9] {
                let sharded = incast_fingerprint(cfg(), shards);
                assert_eq!(
                    sharded, reference,
                    "shards={shards} diverged from the sequential engine"
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

    #[test]
    fn sharded_budget_interrupts_at_window_granularity() {
        let fabric = Fabric::single_switch(ClusterConfig::hardware(), 4, 5);
        let mut sim = ShardedSim::new(fabric, 2);
        sim.add_app(0, Box::new(Streamer::new(2, 4096, 200)));
        sim.add_app(1, Box::new(Streamer::new(3, 4096, 200)));
        sim.add_app(
            2,
            Box::new(Sink {
                recvs: 0,
                bytes: 0,
                last_at: SimTime::ZERO,
            }),
        );
        sim.add_app(
            3,
            Box::new(Sink {
                recvs: 0,
                bytes: 0,
                last_at: SimTime::ZERO,
            }),
        );
        sim.start();
        let out = sim.run_until_budgeted(SimTime::from_us(10_000), 500, 0, &mut || false);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert!(
            sim.events_processed() >= 500,
            "budget stop before the floor: {}",
            sim.events_processed()
        );
        // Resumable: the rest of the run completes.
        let out = sim.run_until_budgeted(SimTime::from_us(10_000), u64::MAX, 0, &mut || false);
        assert_eq!(out, RunOutcome::QueueDrained);
        assert_eq!(sim.app_as::<Sink>(2).recvs, 200);
        assert_eq!(sim.app_as::<Sink>(3).recvs, 200);
    }

    #[test]
    fn single_shard_uses_unbounded_lookahead() {
        let fabric = Fabric::direct_pair(ClusterConfig::hardware(), 3);
        let sim = ShardedSim::new(fabric, 1);
        assert_eq!(sim.shards(), 1);
        assert_eq!(sim.lookahead(), Lookahead::unbounded());
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
        let at = SimTime::from_ns(100);
        // Emitted earlier (larger delta) sorts first.
        let early = emit_key(at, SimTime::from_ns(10), 7, 0);
        let late = emit_key(at, SimTime::from_ns(90), 3, 0);
        assert!(early < late, "chronology dominates device id");
        // Same emission tick: device id breaks the tie.
        let dev3 = emit_key(at, SimTime::from_ns(50), 3, 0);
        let dev7 = emit_key(at, SimTime::from_ns(50), 7, 0);
        assert!(dev3 < dev7);
        // Same tick and device: emission counter orders.
        let first = emit_key(at, SimTime::from_ns(50), 3, 0);
        let second = emit_key(at, SimTime::from_ns(50), 3, 1);
        assert!(first < second);
    }

    #[test]
    fn key_slot_resets_per_tick() {
        let mut slot = KeySlot::default();
        assert_eq!(slot.next(SimTime::from_ns(1)), 0);
        assert_eq!(slot.next(SimTime::from_ns(1)), 1);
        assert_eq!(slot.next(SimTime::from_ns(2)), 0);
    }
}
