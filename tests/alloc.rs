//! Heap allocations on the request path, counted: a `System`-wrapping
//! global allocator counts every allocation (and reallocation) the
//! calling thread makes, so the tests of this binary, which the harness
//! runs in parallel, never see each other's.
//!
//! A seeded city runs for a day to warm the server (stores, index,
//! monitors, journal buffers all grown), then every later call is
//! counted on its own and filed by what the server did with it: a
//! location report, an exact forward, a generalized forward or a
//! suppression (on the last day a static mix-zone covers the city, so
//! every protected request is suppressed). The means per call are pinned from above at what they
//! measured, so a change that adds an allocation to one of these paths
//! fails here first. Run with `--nocapture` to see the measured table.
//!
//! The same allocator keeps the thread's live heap bytes (allocations
//! minus frees), so a soak can show that serving holds no state that
//! grows with the request count.

use hka::obs;
use hka::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` that changes this thread's live
/// heap by `live`.
fn count(bytes: usize, live: i64) {
    // `try_with`: an allocation made while the thread is torn down
    // goes uncounted instead of panicking.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    let _ = LIVE.try_with(|n| n.set(n.get() + live));
}

/// (allocations, bytes requested) by this thread so far.
fn counted() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Heap bytes this thread allocated and has not freed.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are `const`-initialized thread-locals of plain `Cell`s, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What the server did with one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Path {
    Location,
    ExactForward,
    GeneralizedForward,
    Suppression,
}

/// Calls, allocations and bytes on one path.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    calls: u64,
    allocs: u64,
    bytes: u64,
}

impl Tally {
    fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls as f64
    }
    fn bytes_per_call(&self) -> f64 {
        self.bytes as f64 / self.calls as f64
    }
}

/// Runs the seeded city — one warm-up day, then the counted days — on
/// a server journaling every record to an in-memory `Vec`, and tallies
/// the counted calls by path.
fn measure() -> std::collections::BTreeMap<Path, Tally> {
    let world = World::generate(&WorldConfig {
        seed: 5,
        days: 3,
        n_commuters: 8,
        n_roamers: 60,
        n_poi_regulars: 2,
        ..WorldConfig::default()
    });
    let mut ts = TrustedServer::new(TsConfig::default());
    ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
    ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 600));
    let commuters: Vec<UserId> = world.commuters().collect();
    for agent in &world.agents {
        let level = if commuters.contains(&agent.user) {
            PrivacyLevel::Medium
        } else {
            PrivacyLevel::Off
        };
        ts.register_user(agent.user, level);
    }
    for &u in &commuters {
        ts.add_lbqid(
            u,
            Lbqid::example_commute(world.home_of(u).unwrap(), world.office_of(u).unwrap()),
        );
    }
    ts.attach_journal(obs::Journal::new(Box::new(Vec::<u8>::new())));
    let warm_until = TimeSec(DAY);
    let mut tallies = std::collections::BTreeMap::<Path, Tally>::new();
    let mut zoned = false;
    for e in &world.events {
        // On the last day the whole city is a static mix-zone: every
        // protected request is suppressed, the others still forwarded.
        if !zoned && e.at.t >= TimeSec(2 * DAY) {
            ts.add_static_mixzone(Rect::new(Point::new(-1e9, -1e9), Point::new(1e9, 1e9)));
            zoned = true;
        }
        let before = counted();
        let path = match e.kind {
            EventKind::Location => {
                ts.location_update(e.user, e.at);
                Path::Location
            }
            EventKind::Request { service } => {
                match ts.handle_request(e.user, e.at, ServiceId(service)) {
                    RequestOutcome::Forwarded(_, d) if d.generalized => Path::GeneralizedForward,
                    RequestOutcome::Forwarded(..) => Path::ExactForward,
                    RequestOutcome::Suppressed(_) => Path::Suppression,
                }
            }
        };
        let after = counted();
        if e.at.t < warm_until {
            continue;
        }
        let tally = tallies.entry(path).or_default();
        tally.calls += 1;
        tally.allocs += after.0 - before.0;
        tally.bytes += after.1 - before.1;
    }
    tallies
}

#[test]
fn the_request_paths_allocate_no_more_than_they_measured() {
    let tallies = measure();
    for (path, t) in &tallies {
        println!(
            "{path:?}: {} calls, {:.3} allocations and {:.1} bytes per call",
            t.calls,
            t.allocs_per_call(),
            t.bytes_per_call()
        );
    }
    // (path, at least this many calls, allocations per call ≤, bytes
    // per call ≤): the means measured on this seed, rounded up.
    let pins = [
        (Path::Location, 100_000, 0.40, 222.0),
        (Path::ExactForward, 1_000, 0.04, 595.0),
        (Path::GeneralizedForward, 30, 6.58, 765.0),
        (Path::Suppression, 100, 0.27, 75.0),
    ];
    for (path, calls, allocs, bytes) in pins {
        let t = tallies.get(&path).copied().unwrap_or_default();
        assert!(t.calls >= calls, "{path:?}: only {} calls", t.calls);
        assert!(
            t.allocs_per_call() <= allocs,
            "{path:?}: {:.3} allocations per call, pinned at {allocs}",
            t.allocs_per_call()
        );
        assert!(
            t.bytes_per_call() <= bytes,
            "{path:?}: {:.1} bytes per call, pinned at {bytes}",
            t.bytes_per_call()
        );
    }
}

/// A long-running server holds no per-request state: 64 privacy-off
/// users issue exact requests (one per user per second, along a fixed
/// walk), the history is compacted every 10,000 requests, and the live
/// heap after 2N requests is within 1 byte per request of the live heap
/// after N. Both readings are taken right after a compaction, so the
/// trajectory store is in the same shape at each.
#[test]
fn serving_memory_does_not_grow_with_the_request_count() {
    const USERS: u64 = 64;
    const N: u64 = 100_000;
    const CADENCE: u64 = 10_000;
    const _: () = assert!(2 * N / USERS < DAY as u64, "one day of requests");
    let mut ts = TrustedServer::new(TsConfig::default());
    for u in 0..USERS {
        ts.register_user(UserId(u), PrivacyLevel::Off);
    }
    // Everything older than a minute folds into one granule a day; the
    // run stays inside its first day.
    let policy = CompactionPolicy::new(MINUTE, Granularity::Days);
    let mut readings = Vec::new();
    for i in 0..2 * N {
        let (u, t) = (i % USERS, (i / USERS) as i64);
        let step = (t % 500) as f64;
        let at = StPoint::xyt(20.0 * u as f64 + step, 10.0 * u as f64, TimeSec(t));
        let outcome = ts.handle_request(UserId(u), at, ServiceId(BACKGROUND_SERVICE));
        assert!(matches!(outcome, RequestOutcome::Forwarded(..)));
        if (i + 1) % CADENCE == 0 {
            ts.compact_history(TimeSec(t), &policy);
            if i + 1 == N || i + 1 == 2 * N {
                readings.push(live());
            }
        }
    }
    let per_request = (readings[1] - readings[0]) as f64 / N as f64;
    println!(
        "live heap {} B after {N} requests, {} B after {}: {per_request:.3} B per request",
        readings[0],
        readings[1],
        2 * N
    );
    assert!(
        per_request < 1.0,
        "serving retains {per_request:.1} B per request"
    );
}
