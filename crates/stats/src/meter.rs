//! Bandwidth accounting.

/// Bits per second in one gigabit per second.
pub const GBPS: f64 = 1e9;

/// Counts payload bytes delivered over a measurement interval and reports
/// the achieved bandwidth in Gbps.
///
/// Timestamps are `u64` picoseconds (matching `rperf_sim::SimTime::as_ps`);
/// the meter itself is unit-agnostic about what the bytes mean (payload vs
/// wire bytes) — the caller decides what to feed it.
///
/// A meter can be windowed: [`BandwidthMeter::open_window`] discards
/// everything recorded before the given instant, which is how experiments
/// exclude warm-up traffic.
///
/// # Examples
///
/// ```
/// use rperf_stats::BandwidthMeter;
///
/// let mut m = BandwidthMeter::new();
/// m.open_window(0);
/// m.record(1_000_000, 125);              // 125 bytes at t = 1 µs
/// let gbps = m.gbps_until(2_000_000);    // over 2 µs: 1000 bits / 2 µs
/// assert!((gbps - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BandwidthMeter {
    window_start_ps: u64,
    bytes: u64,
    messages: u64,
    last_ps: u64,
}

impl BandwidthMeter {
    /// Creates an empty meter with the window open at `t = 0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a fresh measurement window at `now_ps`, discarding all prior
    /// accounting.
    pub fn open_window(&mut self, now_ps: u64) {
        self.window_start_ps = now_ps;
        self.bytes = 0;
        self.messages = 0;
        self.last_ps = now_ps;
    }

    /// Records `bytes` delivered at `now_ps`. Bytes timestamped before the
    /// window start are ignored.
    pub fn record(&mut self, now_ps: u64, bytes: u64) {
        if now_ps < self.window_start_ps {
            return;
        }
        self.bytes += bytes;
        self.messages += 1;
        self.last_ps = self.last_ps.max(now_ps);
    }

    /// Total bytes recorded in the window.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of `record` calls in the window (message/packet count).
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Achieved bandwidth in Gbps over `[window_start, end_ps]`.
    ///
    /// Returns 0.0 for an empty or zero-length window.
    pub fn gbps_until(&self, end_ps: u64) -> f64 {
        let span = end_ps.saturating_sub(self.window_start_ps);
        if span == 0 {
            return 0.0;
        }
        let bits = self.bytes as f64 * 8.0;
        let secs = span as f64 / 1e12;
        bits / secs / GBPS
    }

    /// Timestamp of the last recorded delivery.
    pub fn last_record_ps(&self) -> u64 {
        self.last_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_computation() {
        let mut m = BandwidthMeter::new();
        // 7 Gbps = 7e9 bits/s; over 1 ms that is 875_000 bytes.
        m.record(500_000_000, 875_000);
        let gbps = m.gbps_until(1_000_000_000); // 1 ms
        assert!((gbps - 7.0).abs() < 1e-9, "got {gbps}");
    }

    #[test]
    fn window_excludes_warmup() {
        let mut m = BandwidthMeter::new();
        m.record(10, 1_000_000); // warm-up traffic
        m.open_window(1_000_000);
        m.record(500_000, 10); // before new window start: dropped
        m.record(1_500_000, 125);
        assert_eq!(m.bytes(), 125);
        assert_eq!(m.messages(), 1);
    }

    #[test]
    fn zero_span_is_zero() {
        let mut m = BandwidthMeter::new();
        m.open_window(100);
        m.record(100, 10);
        assert_eq!(m.gbps_until(100), 0.0);
    }

    #[test]
    fn last_record_tracked() {
        let mut m = BandwidthMeter::new();
        m.record(5, 1);
        m.record(3, 1);
        assert_eq!(m.last_record_ps(), 5);
    }
}
