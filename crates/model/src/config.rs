//! Calibrated configuration for every device model in the suite.
//!
//! The constants here are the *only* tuning surface of the reproduction.
//! Each is annotated with the observation in the paper (or the component
//! datasheet) it is calibrated against. Two presets mirror the paper's two
//! platforms:
//!
//! * [`ClusterConfig::hardware`] — the rack-scale testbed (ConnectX-4 RNICs,
//!   Mellanox SX6012 switch, 56 Gbps FDR links), including the switch µarch
//!   jitter responsible for the zero-load tail.
//! * [`ClusterConfig::omnet_simulator`] — the Mellanox IB OMNeT++ model the
//!   paper uses for scheduling-policy studies: same rates, 32 KB input
//!   buffers, no µarch jitter ("the switch uArch is not modeled in detail
//!   in the simulator").

use rperf_sim::{SimDuration, SimRng};

use crate::ids::{ServiceLevel, VirtualLane};
use crate::units::LinkRate;
use crate::wire::HeaderModel;

/// A physical link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Signaling rate (56 Gbps for 4×FDR).
    pub signaling_rate: LinkRate,
    /// Line-coding efficiency (64b/66b for FDR). Together with per-packet
    /// header overhead this reproduces the paper's 51.8–53 Gbps peak
    /// goodput on a "56 Gbps" link (Fig. 5).
    pub encoding_efficiency: f64,
    /// One-way propagation delay (≈ 5 ns for a 1 m copper cable).
    pub propagation: SimDuration,
}

impl LinkConfig {
    /// The usable data rate after line coding.
    pub fn data_rate(&self) -> LinkRate {
        self.signaling_rate.scaled(self.encoding_efficiency)
    }
}

/// A two-mode delay-noise model: a small always-present component plus an
/// occasional larger spike.
///
/// Used for the switch arbitration/µarch jitter (zero-load tail ≈
/// median + 200 ns in Fig. 4) and for RNIC engine variability (the
/// ≤ 30 ns back-to-back tail).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterConfig {
    /// Upper bound of the uniform base component.
    pub base_max: SimDuration,
    /// Probability of an additional spike.
    pub spike_prob: f64,
    /// Spike lower bound.
    pub spike_min: SimDuration,
    /// Spike upper bound.
    pub spike_max: SimDuration,
}

impl JitterConfig {
    /// Draws one delay sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let mut d = if self.base_max == SimDuration::ZERO {
            SimDuration::ZERO
        } else {
            rng.uniform_duration(SimDuration::ZERO, self.base_max)
        };
        if self.spike_prob > 0.0 && rng.chance(self.spike_prob) {
            d += rng.uniform_duration(self.spike_min, self.spike_max);
        }
        d
    }
}

/// Packet scheduling policy of a switch output arbiter (Section VIII-B of
/// the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// First Come, First Served: the oldest head-of-buffer packet (by
    /// arrival time at this switch) wins. The paper concludes the SX6012
    /// implements this policy.
    Fcfs,
    /// Round-Robin across ingress ports.
    RoundRobin,
    /// Byte-deficit fair sharing across ingress ports: the candidate whose
    /// ingress has been served the fewest bytes wins.
    ///
    /// This is the policy the paper's Section VIII-B sketches but cannot
    /// test on its gear ("We consider a policy to be fair if the time each
    /// flow spends in the switch is proportional to the size of the flow")
    /// — implemented here as an extension. A small flow's port is almost
    /// always the byte-minimum, so latency probes pass bulk traffic even
    /// more reliably than under RR; like RR, it cannot survive sharing a
    /// trunk buffer (head-of-line blocking is upstream of the arbiter).
    FairShare,
}

/// A Service-Level → Virtual-Lane mapping table (one per port direction in
/// real switches; one per fabric here, [`ClusterConfig::sl2vl`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sl2VlTable {
    map: [u8; 16],
}

impl Default for Sl2VlTable {
    /// All SLs map to VL0 (the out-of-the-box subnet-manager default).
    fn default() -> Self {
        Sl2VlTable { map: [0; 16] }
    }
}

impl Sl2VlTable {
    /// The identity-free default: everything on VL0.
    pub fn all_to_vl0() -> Self {
        Self::default()
    }

    /// Maps `sl` to `vl`, returning the modified table (builder style).
    pub fn with(mut self, sl: ServiceLevel, vl: VirtualLane) -> Self {
        self.map[sl.index()] = vl.raw();
        self
    }

    /// Looks up the VL for a service level.
    pub fn vl_for(&self, sl: ServiceLevel) -> VirtualLane {
        VirtualLane::new(self.map[sl.index()])
    }

    /// The highest VL index referenced by the table.
    pub fn max_vl(&self) -> u8 {
        self.map.iter().copied().max().unwrap_or(0)
    }

    /// Lanes a port needs to carry the table: one past its highest VL.
    pub fn lanes(&self) -> u8 {
        self.max_vl() + 1
    }
}

/// One VL arbitration table entry: a VL and its weight in 64-byte units
/// (IB spec semantics: the VL may transmit up to `weight × 64` bytes each
/// time the entry is visited).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlArbEntry {
    /// The virtual lane.
    pub vl: VirtualLane,
    /// Weight in units of 64 bytes (0 is treated as 1).
    pub weight: u8,
}

/// VL arbitration configuration: a high-priority table, a low-priority
/// table, and the spec's *Limit of High Priority*.
///
/// High-priority entries are served ahead of low-priority ones, but after
/// `limit_high × 4096` bytes of consecutive high-priority data the arbiter
/// must offer one low-priority opportunity — this is the IB mechanism that
/// prevents complete starvation, and the knob whose side effects Section
/// VIII-C of the paper probes ("imposing such a limit will hurt the latency
/// of the LSG").
#[derive(Debug, Clone, PartialEq)]
pub struct VlArbConfig {
    /// High-priority entries.
    pub high: Vec<VlArbEntry>,
    /// Low-priority entries.
    pub low: Vec<VlArbEntry>,
    /// Consecutive high-priority budget, in 4096-byte units. `u8::MAX`
    /// means effectively unlimited.
    pub limit_high: u8,
}

impl Default for VlArbConfig {
    /// Everything on the low-priority table with equal weight — matches the
    /// shared-SL experiments.
    fn default() -> Self {
        VlArbConfig {
            high: Vec::new(),
            low: vec![VlArbEntry {
                vl: VirtualLane::new(0),
                weight: 64,
            }],
            limit_high: 0,
        }
    }
}

impl VlArbConfig {
    /// The QoS configuration of Section VIII-C: SL1/VL1 traffic
    /// high-priority, SL0/VL0 low-priority, with a high-priority limit of
    /// one 4 KB block so bulk traffic cannot be fully starved.
    pub fn dedicated_high_vl1() -> Self {
        VlArbConfig {
            high: vec![VlArbEntry {
                vl: VirtualLane::new(1),
                weight: 64,
            }],
            low: vec![VlArbEntry {
                vl: VirtualLane::new(0),
                weight: 64,
            }],
            limit_high: 1,
        }
    }

    /// `true` if `vl` appears in the high-priority table.
    pub fn is_high(&self, vl: VirtualLane) -> bool {
        self.high.iter().any(|e| e.vl == vl)
    }
}

/// Switch device parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Number of ports (SX6012: 12 QSFP ports).
    pub ports: u8,
    /// Advertised input-buffer capacity per (ingress port, VL), in bytes.
    ///
    /// The real switch has megabytes of packet memory, but the *credit
    /// advertisement* per VL is what bounds upstream injection; the paper's
    /// own Eq. 2 analysis infers ~32 KB of effective buffering per input
    /// from the ~3.6–5 µs per-BSG latency step. The hardware profile uses
    /// 36 KB (5.3 µs per buffer at FDR data rate), the simulator profile
    /// the paper's 32 KB.
    pub input_buffer_bytes: u64,
    /// Ingress-to-egress pipeline latency (SX6012 datasheet: ~200 ns
    /// port-to-port).
    pub pipeline_latency: SimDuration,
    /// Arbitration scan cost per *contending* ingress port, paid once per
    /// forwarded packet. Reproduces the total-bandwidth droop with more
    /// converging flows (Fig. 7b: 52.2 → 48.4 Gbps from 1 → 5 BSGs).
    pub arb_scan_per_port: SimDuration,
    /// µarch jitter applied per traversal (hardware profile only).
    pub jitter: Option<JitterConfig>,
    /// Packet scheduling policy of the output arbiters.
    pub policy: SchedPolicy,
    /// VL arbitration tables.
    pub vlarb: VlArbConfig,
}

/// RNIC device parameters (ConnectX-4 class).
#[derive(Debug, Clone, PartialEq)]
pub struct RnicConfig {
    /// Host → RNIC MMIO doorbell latency.
    pub mmio_post: SimDuration,
    /// WQE fetch + processing engine occupancy per message. Together with
    /// [`RnicConfig::tx_per_packet`] this caps the message rate at ~8 Mpps,
    /// reproducing the 4.1 Gbps at 64 B of Fig. 5 (the paper: "the RNIC
    /// must be capable of processing ≈ 110 M packets/s … beyond the RNIC's
    /// capability").
    pub wqe_engine: SimDuration,
    /// Additional TX engine occupancy per packet.
    pub tx_per_packet: SimDuration,
    /// Inter-packet gap on the wire (SerDes/flow-control overhead between
    /// back-to-back packets). This is why a single source cannot quite
    /// saturate a switch egress: the paper's 1-BSG converged runs show an
    /// *empty* switch (0.6 µs LSG RTT), so the source must inject slightly
    /// below the forwarding rate.
    pub tx_ipg: SimDuration,
    /// Payloads at or below this size are inlined into the WQE (no payload
    /// DMA read on the post path).
    pub inline_threshold: u64,
    /// PCIe round-trip latency of a payload DMA read.
    pub dma_read_latency: SimDuration,
    /// PCIe posted-write latency (payload delivery and CQE writes).
    pub dma_write_latency: SimDuration,
    /// Sustained PCIe payload streaming rate (x16 Gen3 ≈ 100 Gbps
    /// effective — not a bottleneck at FDR rates, but it shapes large
    /// transfers' DMA time).
    pub pcie_rate: LinkRate,
    /// Internal loopback datapath speed relative to the line data rate.
    /// Slightly above 1.0: loopback bypasses the SerDes. This ratio is what
    /// makes RPerf's measured back-to-back RTT grow mildly with payload
    /// (20 → 76 ns across 64 B → 4 KB in Fig. 4).
    pub loopback_factor: f64,
    /// Loopback completion turnaround after internal delivery.
    pub loopback_turnaround: SimDuration,
    /// Responder-side ACK generation latency for RC SENDs — on packet
    /// receipt, *before* the payload DMA completes (Fig. 1d; the property
    /// RPerf exploits to exclude remote PCIe delays).
    pub ack_turnaround: SimDuration,
    /// Requester-side ACK processing latency.
    pub ack_rx: SimDuration,
    /// RX engine occupancy per received packet.
    pub rx_per_packet: SimDuration,
    /// Path MTU (payload bytes per packet).
    pub mtu: u64,
    /// Receive-buffer credits advertised to the upstream switch, per VL.
    /// Large enough that the destination RNIC is never the converged-traffic
    /// bottleneck (the paper's backlog lives in the switch).
    pub rx_buffer_bytes: u64,
    /// Responder-side processing variability (applied to ACK turnaround
    /// and receive handling). This is the spread that existing tools cannot
    /// subtract and that gives even back-to-back RNICs a ~30 ns tail.
    pub rx_jitter: Option<JitterConfig>,
    /// Wire header model.
    pub headers: HeaderModel,
}

impl RnicConfig {
    /// Engine occupancy for a whole `n_packets` message.
    pub fn engine_time(&self, n_packets: u64) -> SimDuration {
        self.wqe_engine + self.tx_per_packet * n_packets
    }

    /// Number of MTU-sized packets needed for `bytes` of payload (at least
    /// one packet — zero-byte messages still send a header-only packet).
    pub fn packets_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.mtu)
        }
    }
}

/// Host software/clock parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// TSC frequency (Xeon E5-2630 v4: 2.2 GHz base, constant-rate TSC).
    pub tsc_ghz: f64,
    /// Cost of one `rdtsc` read in wall time.
    pub tsc_read: SimDuration,
    /// Probability of an OS-induced software delay spike per software step
    /// (scheduler interference, cache misses in un-pinned code).
    pub sw_spike_prob: f64,
    /// Software spike lower bound.
    pub sw_spike_min: SimDuration,
    /// Software spike upper bound.
    pub sw_spike_max: SimDuration,
}

/// Data VLs per port on the paper's gear (SX6012 and ConnectX-4: 9): the
/// bound [`ClusterConfig::validate`] checks the SL2VL table and the VL
/// arbitration entries against.
pub const DATA_VLS: u8 = 9;

/// The complete cluster parameter set.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Link parameters.
    pub link: LinkConfig,
    /// SL → VL mapping, one table for the whole fabric: the injecting RNIC
    /// stamps each packet's VL from it ([`crate::Packet::vl`]), and every
    /// hop buffers and credits the packet on that lane.
    pub sl2vl: Sl2VlTable,
    /// Switch parameters.
    pub switch: SwitchConfig,
    /// RNIC parameters.
    pub rnic: RnicConfig,
    /// Host parameters.
    pub host: HostConfig,
}

impl ClusterConfig {
    /// The rack-scale hardware testbed profile (Section V).
    pub fn hardware() -> Self {
        let link = LinkConfig {
            signaling_rate: LinkRate::from_gbps(56.0),
            encoding_efficiency: 64.0 / 66.0,
            propagation: SimDuration::from_ns(5),
        };
        ClusterConfig {
            link,
            sl2vl: Sl2VlTable::all_to_vl0(),
            switch: SwitchConfig {
                ports: 12,
                input_buffer_bytes: 36 * 1024,
                pipeline_latency: SimDuration::from_ns(193),
                arb_scan_per_port: SimDuration::from_ns(10),
                jitter: Some(JitterConfig {
                    base_max: SimDuration::from_ns(6),
                    spike_prob: 0.15,
                    spike_min: SimDuration::from_ns(60),
                    spike_max: SimDuration::from_ns(110),
                }),
                policy: SchedPolicy::Fcfs,
                vlarb: VlArbConfig::default(),
            },
            rnic: RnicConfig {
                mmio_post: SimDuration::from_ns(85),
                wqe_engine: SimDuration::from_ns(110),
                tx_per_packet: SimDuration::from_ns(25),
                tx_ipg: SimDuration::from_ns(12),
                inline_threshold: 220,
                dma_read_latency: SimDuration::from_ns(350),
                dma_write_latency: SimDuration::from_ns(275),
                pcie_rate: LinkRate::from_gbps(100.0),
                loopback_factor: 1.1,
                loopback_turnaround: SimDuration::from_ns(5),
                ack_turnaround: SimDuration::from_ns(71),
                ack_rx: SimDuration::from_ns(25),
                rx_per_packet: SimDuration::from_ns(22),
                mtu: 4096,
                rx_buffer_bytes: 128 * 1024,
                rx_jitter: Some(JitterConfig {
                    base_max: SimDuration::from_ns(4),
                    spike_prob: 0.05,
                    spike_min: SimDuration::from_ns(10),
                    spike_max: SimDuration::from_ns(30),
                }),
                headers: HeaderModel::default(),
            },
            host: HostConfig {
                tsc_ghz: 2.2,
                tsc_read: SimDuration::from_ns(8),
                sw_spike_prob: 0.01,
                sw_spike_min: SimDuration::from_ns(500),
                sw_spike_max: SimDuration::from_ns(2_500),
            },
        }
    }

    /// The IB OMNeT++ simulator profile (Section V): identical rates and
    /// topology parameters, 32 KB input buffers, *no* switch µarch jitter —
    /// which is why the paper's simulator shows nearly identical median and
    /// tail ("the switch uArch is not modeled in detail in the simulator").
    pub fn omnet_simulator() -> Self {
        let mut c = Self::hardware();
        c.switch.input_buffer_bytes = 32 * 1024;
        c.switch.pipeline_latency = SimDuration::from_ns(200);
        c.switch.jitter = None;
        c.switch.arb_scan_per_port = SimDuration::ZERO;
        c.rnic.rx_jitter = None;
        c.host.sw_spike_prob = 0.0;
        c
    }

    /// Applies a scheduling policy to the switch (builder style).
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.switch.policy = policy;
        self
    }

    /// Configures the dedicated-SL QoS setup of Section VIII-C: SL1 → VL1
    /// at high arbitration priority; SL0 → VL0 low priority.
    pub fn with_dedicated_sl(mut self) -> Self {
        self.sl2vl = Sl2VlTable::all_to_vl0().with(ServiceLevel::new(1), VirtualLane::new(1));
        self.switch.vlarb = VlArbConfig::dedicated_high_vl1();
        self
    }

    /// Validates internal consistency (table and arbitration VLs within
    /// the port's [`DATA_VLS`], non-empty arbitration tables, sane
    /// probabilities).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.sl2vl.max_vl() >= DATA_VLS {
            return Err(format!(
                "SL2VL table references a VL beyond the port's {DATA_VLS} VLs"
            ));
        }
        if self.switch.vlarb.high.is_empty() && self.switch.vlarb.low.is_empty() {
            return Err("VL arbitration tables are both empty".into());
        }
        for e in self
            .switch
            .vlarb
            .high
            .iter()
            .chain(self.switch.vlarb.low.iter())
        {
            if e.vl.raw() >= DATA_VLS {
                return Err(format!(
                    "VLArb entry references {} beyond the port's {DATA_VLS} VLs",
                    e.vl
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.host.sw_spike_prob) {
            return Err("sw_spike_prob must be a probability".into());
        }
        if self.rnic.mtu == 0 {
            return Err("MTU must be positive".into());
        }
        if self.switch.input_buffer_bytes < self.rnic.mtu + 64 {
            return Err("switch input buffer must hold at least one MTU packet".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ClusterConfig::hardware().validate().unwrap();
        ClusterConfig::omnet_simulator().validate().unwrap();
        ClusterConfig::hardware()
            .with_dedicated_sl()
            .with_policy(SchedPolicy::RoundRobin)
            .validate()
            .unwrap();
    }

    #[test]
    fn data_rate_accounts_for_encoding() {
        let c = ClusterConfig::hardware();
        let dr = c.link.data_rate().as_gbps();
        assert!((dr - 54.303).abs() < 0.01, "data rate {dr}");
    }

    #[test]
    fn sl2vl_default_is_vl0() {
        let t = Sl2VlTable::all_to_vl0();
        for sl in 0..=15u8 {
            assert_eq!(t.vl_for(ServiceLevel::new(sl)), VirtualLane::new(0));
        }
    }

    #[test]
    fn sl2vl_with_overrides_one_entry() {
        let t = Sl2VlTable::all_to_vl0().with(ServiceLevel::new(1), VirtualLane::new(1));
        assert_eq!(t.vl_for(ServiceLevel::new(1)), VirtualLane::new(1));
        assert_eq!(t.vl_for(ServiceLevel::new(0)), VirtualLane::new(0));
        assert_eq!(t.max_vl(), 1);
    }

    #[test]
    fn dedicated_sl_builder_wires_both_sides() {
        let c = ClusterConfig::hardware().with_dedicated_sl();
        assert_eq!(c.sl2vl.vl_for(ServiceLevel::new(1)), VirtualLane::new(1));
        assert_eq!(c.sl2vl.vl_for(ServiceLevel::new(0)), VirtualLane::new(0));
        assert!(c.switch.vlarb.is_high(VirtualLane::new(1)));
        assert!(!c.switch.vlarb.is_high(VirtualLane::new(0)));
    }

    #[test]
    fn validation_catches_bad_sl2vl() {
        let mut c = ClusterConfig::hardware();
        c.sl2vl = Sl2VlTable::all_to_vl0().with(ServiceLevel::new(3), VirtualLane::new(12));
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_bounds_the_table_and_the_arbiter_by_the_data_vls() {
        let top = VirtualLane::new(DATA_VLS - 1);
        let beyond = VirtualLane::new(DATA_VLS);
        let mut c = ClusterConfig::hardware();
        c.sl2vl = c.sl2vl.with(ServiceLevel::new(3), top);
        c.switch.vlarb.low.push(VlArbEntry { vl: top, weight: 1 });
        c.validate().unwrap();
        let mut bad = c.clone();
        bad.sl2vl = bad.sl2vl.with(ServiceLevel::new(3), beyond);
        assert!(bad.validate().unwrap_err().contains("SL2VL table"));
        let mut bad = c;
        bad.switch.vlarb.high.push(VlArbEntry {
            vl: beyond,
            weight: 1,
        });
        assert!(bad.validate().unwrap_err().contains("VLArb entry"));
    }

    #[test]
    fn sl2vl_lanes_are_one_past_the_highest_vl() {
        assert_eq!(Sl2VlTable::all_to_vl0().lanes(), 1);
        let t = Sl2VlTable::all_to_vl0().with(ServiceLevel::new(7), VirtualLane::new(15));
        assert_eq!(t.lanes(), 16);
    }

    #[test]
    fn validation_catches_tiny_buffer() {
        let mut c = ClusterConfig::hardware();
        c.switch.input_buffer_bytes = 1024;
        assert!(c.validate().is_err());
    }

    #[test]
    fn engine_time_scales_with_packets() {
        let c = ClusterConfig::hardware();
        let one = c.rnic.engine_time(1);
        let four = c.rnic.engine_time(4);
        assert_eq!(
            four - one,
            c.rnic.tx_per_packet * 3,
            "per-packet cost should be linear"
        );
    }

    #[test]
    fn packets_for_respects_mtu() {
        let c = ClusterConfig::hardware();
        assert_eq!(c.rnic.packets_for(0), 1);
        assert_eq!(c.rnic.packets_for(1), 1);
        assert_eq!(c.rnic.packets_for(4096), 1);
        assert_eq!(c.rnic.packets_for(4097), 2);
        assert_eq!(c.rnic.packets_for(65536), 16);
    }

    #[test]
    fn jitter_sample_within_bounds() {
        let j = JitterConfig {
            base_max: SimDuration::from_ns(6),
            spike_prob: 1.0,
            spike_min: SimDuration::from_ns(60),
            spike_max: SimDuration::from_ns(110),
        };
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            let d = j.sample(&mut rng);
            assert!(d >= SimDuration::from_ns(60));
            assert!(d < SimDuration::from_ns(116));
        }
    }

    #[test]
    fn jitter_without_spikes_stays_small() {
        let j = JitterConfig {
            base_max: SimDuration::from_ns(6),
            spike_prob: 0.0,
            spike_min: SimDuration::ZERO,
            spike_max: SimDuration::ZERO,
        };
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            assert!(j.sample(&mut rng) < SimDuration::from_ns(6));
        }
    }

    #[test]
    fn omnet_profile_is_deterministic_devices() {
        let c = ClusterConfig::omnet_simulator();
        assert!(c.switch.jitter.is_none());
        assert!(c.rnic.rx_jitter.is_none());
        assert_eq!(c.host.sw_spike_prob, 0.0);
        assert_eq!(c.switch.input_buffer_bytes, 32 * 1024);
    }
}
