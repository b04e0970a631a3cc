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
//! The paths are measured twice, with trace collection off and with
//! the span ring on (at `hka-sim`'s default capacity), and each
//! measurement has its own pins: span recording that starts to allocate
//! more (an attribute key copied to the heap, say) fails here.
//!
//! Each path's SHA-256 blocks (`sha256.blocks`) are pinned exactly: the
//! hashing work per request is a count, not a clock, so a faster block
//! kernel shows up as the same blocks in less time.
//!
//! The same allocator keeps the thread's live heap bytes (allocations
//! minus frees), so a soak can show that serving holds no state that
//! grows with the request count.

use hka::obs;
use hka::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

/// Trace collection is process-global: while it is on, every thread's
/// requests record spans into the one ring. The tests of this binary
/// serialize here, so none measures while another has collection on.
static COLLECTOR: Mutex<()> = Mutex::new(());

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

/// SHA-256 blocks compressed so far, by every thread: the tests of this
/// binary serialize on [`COLLECTOR`], so only the measuring one hashes.
fn blocks() -> u64 {
    obs::counter!("sha256.blocks").get()
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

/// Calls, allocations, bytes and SHA-256 blocks on one path.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    calls: u64,
    allocs: u64,
    bytes: u64,
    blocks: u64,
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
    let mut ts = hka::commuter_server(TsConfig::default(), &world, PrivacyLevel::Medium);
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
        let blocks_before = blocks();
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
        let blocks_after = blocks();
        if e.at.t < warm_until {
            continue;
        }
        let tally = tallies.entry(path).or_default();
        tally.calls += 1;
        tally.allocs += after.0 - before.0;
        tally.bytes += after.1 - before.1;
        tally.blocks += blocks_after - blocks_before;
    }
    tallies
}

#[test]
fn the_request_paths_allocate_no_more_than_they_measured() {
    let _g = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    let untraced = measure();
    obs::trace::enable(1 << 16);
    let traced = measure();
    obs::trace::disable();
    obs::trace::drain();
    // (path, at least this many calls, allocations per call ≤, bytes
    // per call ≤): the means measured on this seed, rounded up.
    let untraced_pins = [
        (Path::Location, 100_000, 0.40, 222.0),
        (Path::ExactForward, 1_000, 0.04, 595.0),
        (Path::GeneralizedForward, 30, 6.58, 765.0),
        (Path::Suppression, 100, 0.27, 75.0),
    ];
    let traced_pins = [
        (Path::Location, 100_000, 0.40, 222.0),
        (Path::ExactForward, 1_000, 3.04, 1801.0),
        (Path::GeneralizedForward, 30, 12.0, 1624.0),
        (Path::Suppression, 100, 2.25, 279.0),
    ];
    // (path, calls, SHA-256 blocks over those calls), exactly: a
    // record is hashed once as it is written, so a change here is a
    // journal record gained, lost or grown across a 64-byte boundary.
    // Span recording hashes nothing, so both collections share them.
    let block_pins = [
        (Path::Location, 134_540, 0),
        (Path::ExactForward, 1_048, 3_144),
        (Path::GeneralizedForward, 35, 285),
        (Path::Suppression, 101, 309),
    ];
    for (collection, tallies, pins) in [
        ("off", untraced, untraced_pins),
        ("ring", traced, traced_pins),
    ] {
        for (path, t) in &tallies {
            println!(
                "collection {collection}, {path:?}: {} calls, {:.3} allocations and {:.1} bytes per call, {} SHA-256 blocks",
                t.calls,
                t.allocs_per_call(),
                t.bytes_per_call(),
                t.blocks
            );
        }
        for (path, calls, allocs, bytes) in pins {
            let t = tallies.get(&path).copied().unwrap_or_default();
            assert!(
                t.calls >= calls,
                "{collection}, {path:?}: only {} calls",
                t.calls
            );
            assert!(
                t.allocs_per_call() <= allocs,
                "{collection}, {path:?}: {:.3} allocations per call, pinned at {allocs}",
                t.allocs_per_call()
            );
            assert!(
                t.bytes_per_call() <= bytes,
                "{collection}, {path:?}: {:.1} bytes per call, pinned at {bytes}",
                t.bytes_per_call()
            );
        }
        for (path, calls, blocks) in block_pins {
            let t = tallies.get(&path).copied().unwrap_or_default();
            assert_eq!(
                (t.calls, t.blocks),
                (calls, blocks),
                "{collection}, {path:?}: (calls, SHA-256 blocks)"
            );
        }
    }
}

/// Serves `2 * N` requests from 64 users, one per user per second along
/// a fixed walk, compacting the history every 10,000 requests, and
/// returns the live-heap growth per request between request N and
/// request 2N. Both readings are taken right after a compaction, so the
/// trajectory store is in the same shape at each. `protect` runs user 0
/// at `Medium` with a one-element LBQID covering the city all day, so
/// every one of its requests is a generalized forward; the others have
/// privacy off.
fn live_heap_growth_per_request(protect: bool) -> f64 {
    const USERS: u64 = 64;
    const N: u64 = 100_000;
    const CADENCE: u64 = 10_000;
    const _: () = assert!(2 * N / USERS < DAY as u64, "one day of requests");
    let mut ts = TrustedServer::new(TsConfig::default());
    for u in 0..USERS {
        let level = if protect && u == 0 {
            PrivacyLevel::Medium
        } else {
            PrivacyLevel::Off
        };
        ts.register_user(UserId(u), level);
    }
    if protect {
        let city = "lbqid city { element area(-1000000, -1000000, 1000000, 1000000) window(00:00, 23:59); }";
        ts.add_lbqid(UserId(0), parse_lbqid(city).unwrap());
    }
    // Everything older than a minute folds into one granule a day; the
    // run stays inside its first day.
    let policy = CompactionPolicy::new(MINUTE, Granularity::Days);
    let mut readings = Vec::new();
    let mut generalized = 0u64;
    for i in 0..2 * N {
        let (u, t) = (i % USERS, (i / USERS) as i64);
        let step = (t % 500) as f64;
        let at = StPoint::xyt(20.0 * u as f64 + step, 10.0 * u as f64, TimeSec(t));
        match ts.handle_request(UserId(u), at, ServiceId(BACKGROUND_SERVICE)) {
            RequestOutcome::Forwarded(_, d) => generalized += u64::from(d.generalized),
            other => panic!("request {i}: {other:?}"),
        }
        if (i + 1) % CADENCE == 0 {
            ts.compact_history(TimeSec(t), &policy);
            if i + 1 == N || i + 1 == 2 * N {
                readings.push(live());
            }
        }
    }
    let expected = if protect { 2 * N / USERS } else { 0 };
    assert_eq!(generalized, expected, "generalized forwards");
    let per_request = (readings[1] - readings[0]) as f64 / N as f64;
    println!(
        "protect {protect}: live heap {} B after {N} requests, {} B after {}: {per_request:.3} B per request",
        readings[0],
        readings[1],
        2 * N
    );
    per_request
}

/// A long-running server holds no per-request state: the live heap
/// after 2N requests of privacy-off users is within 1 byte per request
/// of the live heap after N.
#[test]
fn serving_memory_does_not_grow_with_the_request_count() {
    let _g = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    let per_request = live_heap_growth_per_request(false);
    assert!(
        per_request < 1.0,
        "serving retains {per_request:.1} B per request"
    );
}

/// The same soak with one protected user whose LBQID every request
/// matches: the server keeps no per-forward record of what it released
/// for the user either.
#[test]
fn a_protected_users_state_does_not_grow_with_the_request_count() {
    let _g = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    let per_request = live_heap_growth_per_request(true);
    assert!(
        per_request < 1.0,
        "serving a protected user retains {per_request:.1} B per request"
    );
}
