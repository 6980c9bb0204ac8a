//! The time-stamp-counter model.

use rperf_sim::{SimDuration, SimTime};

/// A raw TSC reading, in cycles since the host's (arbitrary) counter epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tsc(pub u64);

impl Tsc {
    /// Cycles elapsed since an earlier reading (saturating).
    pub fn cycles_since(self, earlier: Tsc) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

/// A per-host invariant TSC.
///
/// Models the three properties that matter for latency measurement:
///
/// 1. **Quantization** — readings are whole cycles (≈ 454.5 ps at 2.2 GHz),
///    so sub-cycle intervals are invisible.
/// 2. **Read cost** — `rdtsc` (with the serializing fences Intel
///    recommends) takes tens of cycles of wall time; the caller observes
///    the world as of the *start* of the read. The host software model
///    charges the cost (`HostConfig::tsc_read`), not the clock.
/// 3. **Epoch offset** — each host's counter starts at an arbitrary value,
///    so timestamps from different hosts are not comparable. This is why
///    RPerf computes RTT from *one* host's clock only (Eq. 1).
///
/// # Examples
///
/// ```
/// use rperf_host::TscClock;
/// use rperf_sim::{SimDuration, SimTime};
///
/// let clock = TscClock::new(2.2, 12345);
/// let a = clock.read(SimTime::ZERO);
/// let b = clock.read(SimTime::ZERO + SimDuration::from_us(1));
/// let d = clock.to_duration(b.cycles_since(a));
/// assert!((d.as_ns_f64() - 1000.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TscClock {
    ghz: f64,
    epoch_offset_cycles: u64,
}

impl TscClock {
    /// Creates a clock at `ghz` gigahertz with an arbitrary epoch offset
    /// (use a per-host seed so hosts differ).
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive.
    pub fn new(ghz: f64, epoch_offset_cycles: u64) -> Self {
        assert!(ghz > 0.0, "TSC frequency must be positive, got {ghz}");
        TscClock {
            ghz,
            epoch_offset_cycles,
        }
    }

    /// Reads the counter at simulated instant `now` (cycle-quantized).
    pub fn read(&self, now: SimTime) -> Tsc {
        let cycles = (now.as_ps() as f64 * self.ghz / 1e3).floor() as u64;
        Tsc(cycles.wrapping_add(self.epoch_offset_cycles))
    }

    /// Converts a cycle count to a duration.
    pub fn to_duration(&self, cycles: u64) -> SimDuration {
        SimDuration::from_ps((cycles as f64 * 1e3 / self.ghz).round() as u64)
    }

    /// Converts a duration to (whole) cycles.
    pub fn to_cycles(&self, d: SimDuration) -> u64 {
        (d.as_ps() as f64 * self.ghz / 1e3).floor() as u64
    }

    /// One cycle, as a duration — the quantization granularity.
    pub fn cycle(&self) -> SimDuration {
        SimDuration::from_ps((1e3 / self.ghz).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_floor() {
        let c = TscClock::new(2.2, 0);
        // One cycle at 2.2 GHz is ~454.5 ps; reading at 400 ps yields 0 cycles.
        assert_eq!(c.read(SimTime::from_ps(400)), Tsc(0));
        assert_eq!(c.read(SimTime::from_ps(500)), Tsc(1));
    }

    #[test]
    fn offset_applies_but_cancels_in_differences() {
        let a = TscClock::new(2.2, 1_000_000);
        let b = TscClock::new(2.2, 0);
        let t = SimTime::from_us(3);
        assert_ne!(a.read(t), b.read(t));
        let d_a = a.read(t).cycles_since(a.read(SimTime::ZERO));
        let d_b = b.read(t).cycles_since(b.read(SimTime::ZERO));
        assert_eq!(d_a, d_b);
    }

    #[test]
    fn roundtrip_duration_conversion() {
        let c = TscClock::new(2.2, 0);
        let d = SimDuration::from_us(5);
        let cycles = c.to_cycles(d);
        let back = c.to_duration(cycles);
        let err = (back.as_ns_f64() - d.as_ns_f64()).abs();
        assert!(err < 1.0, "error {err} ns");
    }

    #[test]
    fn cycle_granularity() {
        let c = TscClock::new(2.2, 0);
        assert_eq!(c.cycle(), SimDuration::from_ps(455));
        let c = TscClock::new(2.0, 0);
        assert_eq!(c.cycle(), SimDuration::from_ps(500));
    }

    #[test]
    fn monotone_readings() {
        let c = TscClock::new(2.2, 42);
        let mut last = c.read(SimTime::ZERO);
        for i in 1..1000u64 {
            let r = c.read(SimTime::from_ps(i * 137));
            assert!(r >= last);
            last = r;
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = TscClock::new(0.0, 0);
    }
}
