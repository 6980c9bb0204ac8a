//! Spans recorded around calls into each layer, from the benchmark's own
//! code.
//!
//! A span is one call: its name is the layer and function (`core.parse`,
//! `fabric.build`, `serve.submit`, ...), its parent the span that made
//! the call, and its item the job or request it served. A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover, so the self times of one item's spans add up to the
//! item's duration.

use std::time::Instant;

use rperf_stats::json;

use crate::measure::percentile;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the calling span in the same list.
    pub parent: Option<usize>,
    /// The job or request the call served.
    pub item: u64,
    /// The layer and call, e.g. `core.execute`.
    pub name: &'static str,
    /// Start, nanoseconds after the pass began.
    pub start_ns: u64,
    /// End, nanoseconds after the pass began.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of one item. A recorder that is off records nothing
/// and reads no clock, so untraced passes run the same code at the cost
/// of a branch per call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Option<Instant>,
    item: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for `item` when `on`, timing from `epoch`.
    pub fn new(on: bool, epoch: Instant, item: u64) -> Self {
        Recorder {
            epoch: on.then_some(epoch),
            item,
            spans: Vec::new(),
        }
    }

    /// Whether this recorder records.
    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_ns(epoch: Instant) -> u64 {
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span; the handle is `None` when the recorder is off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let epoch = self.epoch?;
        let now = Self::now_ns(epoch);
        self.spans.push(Span {
            parent,
            item: self.item,
            name,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Ends the span `open` returned.
    pub fn close(&mut self, span: Option<usize>) {
        if let (Some(epoch), Some(i)) = (self.epoch, span) {
            self.spans[i].end_ns = Self::now_ns(epoch);
        }
    }

    /// Moves this item's spans onto the end of `all`.
    pub fn drain_into(self, all: &mut Vec<Span>) {
        append(all, self.spans);
    }
}

/// Moves `spans`, whose parents index into `spans`, onto the end of
/// `all`.
pub fn append(all: &mut Vec<Span>, spans: Vec<Span>) {
    let offset = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Each span's self time: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let start = spans[k].start_ns.clamp(s.start_ns, s.end_ns);
                    (start, spans[k].end_ns.clamp(start, s.end_ns))
                })
                .collect();
            cover.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in cover {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed by span name, in name order.
pub fn self_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(s.name).or_default() += own;
    }
    totals.into_iter().collect()
}

/// The largest relative gap, over root spans, between a root's duration
/// and the summed self times of the spans under it (0 when every item's
/// layers account for all of its time).
pub fn worst_root_gap(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut sums = vec![0u64; spans.len()];
    for i in 0..spans.len() {
        sums[root_of(i)] += own[i];
    }
    spans
        .iter()
        .zip(&sums)
        .filter(|(s, _)| s.parent.is_none() && s.duration_ns() > 0)
        .map(|(s, &sum)| (sum as f64 - s.duration_ns() as f64).abs() / s.duration_ns() as f64)
        .fold(0.0, f64::max)
}

/// Durations in milliseconds of the spans called `name`.
fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// What the per-layer metrics keep of one traced pass, so that only the
/// last pass's spans stay in memory.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SpanStats {
    /// `(name, calls, total ms)` per span name, in name order.
    pub totals: Vec<(&'static str, u64, f64)>,
    /// Median `fabric.chunk` duration, ms.
    pub chunk_p50_ms: f64,
    /// 99th-percentile `fabric.chunk` duration, ms.
    pub chunk_p99_ms: f64,
    /// Median `serve.ping` duration, ms.
    pub ping_p50_ms: f64,
    /// [`worst_root_gap`] of the pass.
    pub root_gap: f64,
}

impl SpanStats {
    /// Summarizes one pass's spans.
    pub fn of(spans: &[Span]) -> SpanStats {
        let mut totals: std::collections::BTreeMap<&'static str, (u64, f64)> = Default::default();
        for s in spans {
            let t = totals.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.duration_ns() as f64 / 1e6;
        }
        let chunks = durations_ms(spans, "fabric.chunk");
        SpanStats {
            totals: totals.into_iter().map(|(n, (c, ms))| (n, c, ms)).collect(),
            chunk_p50_ms: percentile(&chunks, 50.0),
            chunk_p99_ms: percentile(&chunks, 99.0),
            ping_p50_ms: percentile(&durations_ms(spans, "serve.ping"), 50.0),
            root_gap: worst_root_gap(spans),
        }
    }

    /// Calls to and total milliseconds in the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, f64) {
        self.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or((0, 0.0), |t| (t.1, t.2))
    }
}

/// The trace file: every span with its id (its index), then the self
/// time by layer.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let span_json = spans.iter().enumerate().map(|(id, s)| {
        json::object([
            ("id", json::uint(id as u64)),
            (
                "parent",
                s.parent
                    .map_or_else(|| "null".to_string(), |p| json::uint(p as u64)),
            ),
            ("item", json::uint(s.item)),
            ("name", json::string(s.name)),
            ("start_ns", json::uint(s.start_ns)),
            ("end_ns", json::uint(s.end_ns)),
        ])
    });
    let self_ns = self_by_name(spans)
        .into_iter()
        .map(|(name, ns)| (name, json::uint(ns)));
    json::object([
        ("workload", json::string(workload)),
        ("seed", json::uint(seed)),
        ("self_ns", json::object(self_ns)),
        ("spans", json::array(span_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            item: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(None, "item", 0, 100),
            span(Some(0), "core.parse", 10, 20),
            span(Some(0), "core.execute", 30, 90),
            span(Some(2), "fabric.chunk", 30, 60),
            // Overlapping siblings count once; a child poking past its
            // parent is clipped to the parent's interval.
            span(Some(2), "fabric.chunk", 50, 95),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 0, 30, 45]);
        assert_eq!(
            self_by_name(&spans),
            vec![
                ("core.execute", 0),
                ("core.parse", 10),
                ("fabric.chunk", 75),
                ("item", 30)
            ]
        );
    }

    #[test]
    fn nested_disjoint_spans_account_for_the_whole_item() {
        let spans = [
            span(None, "item", 0, 100),
            span(Some(0), "core.parse", 0, 40),
            span(Some(0), "core.encode", 40, 100),
            span(None, "item", 200, 300),
        ];
        assert_eq!(worst_root_gap(&spans), 0.0);
        // Overlapping children double-count time the item never spent.
        let overlapping = [
            span(None, "item", 0, 100),
            span(Some(0), "core.execute", 0, 100),
            span(Some(1), "fabric.chunk", 0, 100),
            span(Some(0), "core.encode", 50, 100),
        ];
        assert!(worst_root_gap(&overlapping) > 0.4);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let epoch = Instant::now();
        let mut off = Recorder::new(false, epoch, 3);
        let s = off.open("core.parse", None);
        off.close(s);
        assert_eq!(s, None);
        let mut all = Vec::new();
        off.drain_into(&mut all);
        assert!(all.is_empty());

        let mut on = Recorder::new(true, epoch, 3);
        let root = on.open("item", None);
        let child = on.open("core.parse", root);
        on.close(child);
        on.close(root);
        let mut all = vec![span(None, "item", 0, 1)];
        on.drain_into(&mut all);
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[2].item, 3);
        assert!(all[1].end_ns >= all[2].end_ns);
    }
}
