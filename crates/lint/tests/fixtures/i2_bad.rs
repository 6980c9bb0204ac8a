//! I2 bad: a panic three calls below `WorldState::handle_one` — the
//! chain a per-crate panic blanket cannot rank, flagged only because the
//! hot loop can actually reach it.

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

/// Third hop: the panic the entry can reach.
fn route(lid: u64) {
    if lid > 48 {
        panic!("no route for LID {lid}");
    }
}

/// Unreachable from the entry: not flagged despite the unwrap — this is
/// the precision a per-crate blanket lacks.
pub fn offline_report(v: Option<u64>) -> u64 {
    v.unwrap()
}
