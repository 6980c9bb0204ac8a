//! Property tests for units, wire formats and configuration.

use proptest::prelude::*;
use rperf_model::config::{ClusterConfig, Sl2VlTable};
use rperf_model::units::LinkRate;
use rperf_model::wire::HeaderModel;
use rperf_model::{ServiceLevel, Transport, Verb, VirtualLane};

proptest! {
    /// serialize_time is monotone and additive in bytes.
    #[test]
    fn serialization_monotone_additive(
        gbps in 1.0f64..400.0,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let r = LinkRate::from_gbps(gbps);
        let ta = r.serialize_time(a);
        let tb = r.serialize_time(b);
        let tab = r.serialize_time(a + b);
        prop_assert!(tab >= ta.max(tb));
        // Additivity within rounding (±1 ps per operand).
        let sum = ta + tb;
        let diff = sum.as_ps().abs_diff(tab.as_ps());
        prop_assert!(diff <= 1, "additivity violated by {diff} ps");
    }

    /// bytes_in inverts serialize_time within one byte.
    #[test]
    fn serialization_roundtrip(gbps in 1.0f64..400.0, bytes in 1u64..10_000_000) {
        let r = LinkRate::from_gbps(gbps);
        let t = r.serialize_time(bytes);
        let back = r.bytes_in(t);
        prop_assert!(back.abs_diff(bytes) <= 1, "{bytes} → {t} → {back}");
    }

    /// Header overhead bounds: every packet type costs between the bare
    /// LRH+BTH stack and the paper's 52-byte worst case plus extensions.
    #[test]
    fn header_overheads_bounded(
        verb in prop::sample::select(vec![Verb::Send, Verb::Write, Verb::Read]),
        transport in prop::sample::select(vec![Transport::Rc, Transport::Ud]),
        first in any::<bool>(),
    ) {
        let h = HeaderModel::default();
        let oh = h.data_overhead(verb, transport, first);
        prop_assert!(oh >= 26, "below the bare header stack: {oh}");
        prop_assert!(oh <= 56, "beyond any defensible stack: {oh}");
        // RETH appears exactly on first packets of one-sided verbs.
        if verb.is_one_sided() {
            let later = h.data_overhead(verb, transport, false);
            prop_assert_eq!(oh.saturating_sub(later), if first { 16 } else { 0 });
        }
    }

    /// SL2VL tables built from arbitrary assignments stay within range
    /// and validate against a config with enough VLs.
    #[test]
    fn sl2vl_assignments_roundtrip(entries in prop::collection::vec((0u8..16, 0u8..9), 0..32)) {
        let mut t = Sl2VlTable::all_to_vl0();
        for &(sl, vl) in &entries {
            t = t.with(ServiceLevel::new(sl), VirtualLane::new(vl));
        }
        // Last writer wins.
        for &(sl, _) in &entries {
            let vl = t.vl_for(ServiceLevel::new(sl));
            let expected = entries
                .iter()
                .rev()
                .find(|&&(s, _)| s == sl)
                .map(|&(_, v)| v)
                .unwrap();
            prop_assert_eq!(vl.raw(), expected);
        }
        let mut cfg = ClusterConfig::hardware();
        cfg.sl2vl = t;
        prop_assert!(cfg.validate().is_ok());
    }

    /// The goodput predictor is always within (0, data-rate].
    #[test]
    fn predicted_goodput_sane(payload in 1u64..65_536) {
        let cfg = ClusterConfig::hardware();
        let g = rperf_model::analytic::predicted_goodput_gbps(&cfg, payload);
        prop_assert!(g > 0.0);
        prop_assert!(g <= cfg.link.data_rate().as_gbps());
    }

    /// Eq. 2 is linear in both N and buffer size.
    #[test]
    fn eq2_linearity(n in 1u32..32, buf in 1024u64..1_048_576) {
        let rate = LinkRate::from_gbps(56.0);
        let one = rperf_model::analytic::fcfs_waiting_time(1, buf, rate);
        let many = rperf_model::analytic::fcfs_waiting_time(n, buf, rate);
        prop_assert_eq!(many.as_ps(), one.as_ps() * n as u64);
    }
}
