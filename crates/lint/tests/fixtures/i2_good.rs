//! I2 good: the same three-hop chain with the invariant demoted to a
//! `debug_assert!` and a typed fallback — release reachability is clean.

/// The simulated world: one event queue, one slab.
pub struct WorldState {
    queue: Vec<u64>,
}

impl WorldState {
    /// Hot-loop entry: dispatches one event.
    pub fn handle_one(&mut self) {
        step(&mut self.queue);
    }
}

/// First hop: advances the queue.
fn step(queue: &mut Vec<u64>) {
    deliver(queue);
}

/// Second hop: delivers the head event.
fn deliver(queue: &mut Vec<u64>) {
    route(queue.len() as u64);
}

/// Third hop: the invariant is checked in debug builds only; release
/// degrades to a drop counter instead of aborting the sweep.
fn route(lid: u64) -> bool {
    if lid > 48 {
        debug_assert!(false, "no route for LID {lid}");
        return false;
    }
    true
}

/// Outside the hot loop, panicking on impossible states is fine (and is
/// no concern of I2's).
pub fn offline_report(v: Option<u64>) -> u64 {
    v.unwrap()
}
