//! I3 good: dispatch code owns its state — the route cache lives in the
//! simulation's world, and nothing reachable touches a `static`.

/// Per-simulation state: everything the run loop may touch.
pub struct SimWorld {
    route_cache: [u8; 64],
    hits: u64,
}

/// Run-loop entry: drains one chunk of events.
pub fn run_window(world: &mut SimWorld, events: &mut Vec<u64>) {
    while let Some(ev) = events.pop() {
        dispatch(world, ev);
    }
}

/// Dispatches one event against the simulation's own state only.
fn dispatch(world: &mut SimWorld, ev: u64) {
    world.hits += 1;
    let _port = world.route_cache[(ev % 64) as usize];
}

/// A static outside the reachable set is not I3's business.
static COLD_TABLE: [u8; 4] = [0; 4];

/// Unreachable from the run-loop entry.
pub fn offline_summary() -> u8 {
    COLD_TABLE[0]
}
