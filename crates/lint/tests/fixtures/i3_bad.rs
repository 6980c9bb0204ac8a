//! I3 bad: dispatch code reaches process-global state — a non-atomic
//! table *and* an undeclared atomic counter, both shared by every
//! simulation running concurrently in the process.

static ROUTE_CACHE: [u8; 64] = [0; 64];
static WINDOW_HITS: AtomicU64 = AtomicU64::new(0);

/// Run-loop entry: drains one chunk of events.
pub fn run_window(events: &mut Vec<u64>) {
    while let Some(ev) = events.pop() {
        dispatch(ev);
    }
}

/// Dispatches one event, consulting the global route cache.
fn dispatch(ev: u64) {
    WINDOW_HITS.fetch_add(1, Relaxed);
    let _port = ROUTE_CACHE[(ev % 64) as usize];
}
