//! Microbenchmarks for the simulator's event queue: raw schedule+pop
//! throughput, the steady-state churn pattern every simulation runs, the
//! cost of growing an unsized queue vs. pre-sizing it, and a head-to-head
//! of the timer wheel against the retired `BinaryHeap` implementation
//! (kept as [`rperf_sim::reference::HeapEventQueue`]) across queue depths
//! and delay distributions. Every event gets its own key from a running
//! counter, the way the fabric's emission keys grow with simulated time.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rperf_sim::reference::HeapEventQueue;
use rperf_sim::{EventQueue, SimDuration, SimTime};

/// A cheap deterministic time source so the heap sees out-of-order
/// arrivals (in-order inserts would never exercise sift-up).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn bench_fill_then_drain(c: &mut Criterion) {
    c.bench_function("event_queue/fill_drain_64k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1 << 16);
            let mut rng = Lcg(1);
            for i in 0..(1u64 << 16) {
                // Increasing base plus jitter: past-scheduling is a panic.
                q.schedule(
                    SimTime::from_ns(i * 8 + rng.next() % 4096),
                    u128::from(i),
                    i,
                );
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        });
    });
}

fn bench_steady_state_churn(c: &mut Criterion) {
    // The pattern the driver loop actually runs: a small resident set of
    // pending events with one pop and ~one push per handled event.
    c.bench_function("event_queue/churn_1k_resident", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            let mut rng = Lcg(7);
            for i in 0..1024u64 {
                q.schedule(SimTime::from_ns(rng.next() % 10_000), u128::from(i), i);
            }
            let mut sum = 0u64;
            for key in 1024..101_024u128 {
                let (now, e) = q.pop().expect("resident set never drains");
                sum = sum.wrapping_add(e);
                q.schedule(
                    now + rperf_sim::SimDuration::from_ns(1 + rng.next() % 1000),
                    key,
                    e,
                );
            }
            black_box(sum)
        });
    });
}

fn bench_presize_vs_grow(c: &mut Criterion) {
    c.bench_function("event_queue/fill_64k_presized", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1 << 16);
            for i in 0..(1u64 << 16) {
                q.schedule(SimTime::from_ns(i), u128::from(i), i);
            }
            black_box(q.len())
        });
    });
    c.bench_function("event_queue/fill_64k_growing", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..(1u64 << 16) {
                q.schedule(SimTime::from_ns(i), u128::from(i), i);
            }
            black_box(q.len())
        });
    });
}

/// Delay distribution for the wheel-vs-heap churn comparison.
///
/// `Uniform` spreads reschedules evenly over a 1 µs horizon — every event
/// lands in the wheel's bottom level. `Bimodal` mixes 90% near events
/// (≤ 4 ns, the serialize/propagate pattern) with 10% far events (~1 ms,
/// retransmit-timeout scale) that must cascade down through upper levels.
#[derive(Clone, Copy)]
enum DelayMix {
    Uniform,
    Bimodal,
}

impl DelayMix {
    fn name(self) -> &'static str {
        match self {
            DelayMix::Uniform => "uniform",
            DelayMix::Bimodal => "bimodal",
        }
    }

    fn delay(self, rng: &mut Lcg) -> SimDuration {
        match self {
            DelayMix::Uniform => SimDuration::from_ns(1 + rng.next() % 1000),
            DelayMix::Bimodal => {
                if rng.next().is_multiple_of(10) {
                    SimDuration::from_ns(1_000_000 + rng.next() % 65_536)
                } else {
                    SimDuration::from_ns(1 + rng.next() % 4)
                }
            }
        }
    }
}

/// One churn round on either queue implementation: fill to `depth`, then
/// pop+reschedule `iters` times. This is the simulator's steady-state
/// access pattern, so it is the number that predicts `report` throughput.
macro_rules! churn {
    ($queue:expr, $depth:expr, $iters:expr, $mix:expr, $seed:expr) => {{
        let mut q = $queue;
        let mut rng = Lcg($seed);
        for i in 0..$depth as u64 {
            q.schedule(SimTime::from_ns(rng.next() % 10_000), u128::from(i), i);
        }
        let mut sum = 0u64;
        for key in 0..$iters as u128 {
            let (now, e) = q.pop().expect("resident set never drains");
            sum = sum.wrapping_add(e);
            q.schedule(now + $mix.delay(&mut rng), $depth as u128 + key, e);
        }
        black_box(sum)
    }};
}

fn bench_wheel_vs_heap(c: &mut Criterion) {
    // Iteration count shrinks with depth so each benchmark does similar
    // total work; at 64k resident events the heap's log-factor dominates.
    for &(depth, iters) in &[(64usize, 50_000u64), (1 << 10, 50_000), (1 << 16, 20_000)] {
        for &mix in &[DelayMix::Uniform, DelayMix::Bimodal] {
            let label = format!("event_queue/wheel_d{}_{}", depth, mix.name());
            c.bench_function(&label, |b| {
                b.iter(|| churn!(EventQueue::with_capacity(depth), depth, iters, mix, 11))
            });
            let label = format!("event_queue/heap_d{}_{}", depth, mix.name());
            c.bench_function(&label, |b| {
                b.iter(|| churn!(HeapEventQueue::with_capacity(depth), depth, iters, mix, 11))
            });
        }
    }
}

criterion_group!(
    benches,
    bench_fill_then_drain,
    bench_steady_state_churn,
    bench_presize_vs_grow,
    bench_wheel_vs_heap
);
criterion_main!(benches);
