//! Causal request tracing: trace/span contexts minted per request,
//! propagated across threads, collected into bounded per-track rings,
//! and exported as Chrome trace-event JSON loadable in Perfetto.
//!
//! Design constraints, in order:
//!
//! * **Zero cost when off.** A single relaxed atomic load gates the hot
//!   path; with the collector disabled no allocation, locking, or
//!   clock read happens beyond what [`span`](crate::span) already does.
//! * **Deterministic export.** Every *track* (the server's thread, or
//!   a thread given its own track) is single-threaded and processes work in a
//!   deterministic order, so span start/end order per track is a pure
//!   function of the workload. Each track therefore carries a logical
//!   **tick counter**: opening or closing a span consumes one tick, and
//!   the default export clock uses ticks, making the artifact
//!   byte-stable for a fixed seed. Wall-clock micros are recorded
//!   alongside and selectable with [`TraceClock::Wall`].
//! * **Out-of-order drops stay correct.** Open spans form a per-thread
//!   stack of frames; a guard dropped while an inner guard is still
//!   live marks its frame *dead* instead of clobbering the current
//!   context, and the innermost live guard sweeps dead frames when it
//!   closes. Parentage is captured at creation, so durations and parent
//!   links never migrate between spans (see the interleaved-guard test).
//! * **Bounded memory.** Spans land in a per-track
//!   [`RingBuffer`](crate::RingBuffer); overflow drops the oldest record
//!   and increments the `obs.trace_dropped` counter.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::global;
use crate::ring::RingBuffer;

/// Identifies one request's journey through the stack. Minted
/// unconditionally (whether or not collection is enabled) so that
/// journal payloads referencing a trace are identical with tracing on
/// and off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{:08x}", self.0)
    }
}

/// Identifies one span. The top 16 bits carry the track that opened it
/// (mirroring the shard id-space split), the low 48 bits its start
/// tick, so ids are unique without cross-track coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{:012x}", self.0)
    }
}

/// The (trace, span) pair handed across a thread boundary so work on
/// the far side parents under the originating request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The request's trace.
    pub trace: TraceId,
    /// The span the far side should parent under.
    pub span: SpanId,
}

/// One finished span as stored in a track ring.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The owning trace.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// The parent span, captured at creation.
    pub parent: Option<SpanId>,
    /// Span name (stage or operation). Static: span names are code,
    /// not data, and a per-span heap allocation is measurable on the
    /// request path.
    pub name: &'static str,
    /// The track (0 = coordinator / sequential server, 1+i = shard i).
    pub track: u32,
    /// Logical tick at open (deterministic per track).
    pub start_tick: u64,
    /// Logical tick at close.
    pub end_tick: u64,
    /// Wall-clock micros since collector creation, at open.
    pub start_us: u64,
    /// Wall-clock micros since collector creation, at close.
    pub end_us: u64,
    /// Key attributes (k_req, k_got, outcome, shard, ...).
    pub attrs: Vec<(&'static str, Json)>,
}

const TRACK_SHIFT: u32 = 48;

/// Per-track state: the bounded span ring and the logical tick counter.
/// Aligned out to two cache lines: every span bumps `ticks` twice and
/// takes `ring` once, and adjacent tracks belong to *different* worker
/// threads — sharing a line between them turns per-track atomics into
/// cross-core traffic.
#[repr(align(128))]
struct Track {
    ring: Mutex<RingBuffer<SpanRecord>>,
    ticks: AtomicU64,
}

/// The process-wide collector.
struct Collector {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    next_trace: AtomicU64,
    /// Bumped by [`enable`] whenever the track table is rebuilt, so
    /// per-thread cached track handles know to refresh.
    generation: AtomicU64,
    epoch: Instant,
    tracks: RwLock<Vec<Arc<Track>>>,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        enabled: AtomicBool::new(false),
        capacity: AtomicUsize::new(4096),
        next_trace: AtomicU64::new(1),
        generation: AtomicU64::new(0),
        epoch: Instant::now(),
        tracks: RwLock::new(Vec::new()),
    })
}

impl Collector {
    fn track(&self, idx: u32) -> Arc<Track> {
        {
            let tracks = self.tracks.read().unwrap_or_else(|e| e.into_inner());
            if let Some(t) = tracks.get(idx as usize) {
                return Arc::clone(t);
            }
        }
        let mut tracks = self.tracks.write().unwrap_or_else(|e| e.into_inner());
        let cap = self.capacity.load(Ordering::Relaxed);
        while tracks.len() <= idx as usize {
            tracks.push(Arc::new(Track {
                ring: Mutex::new(RingBuffer::new(cap)),
                ticks: AtomicU64::new(0),
            }));
        }
        Arc::clone(&tracks[idx as usize])
    }
}

/// Enables collection with `capacity` span records per track, clearing
/// any previously collected spans and resetting tick counters. Trace id
/// minting continues from wherever it was (ids are process-unique).
pub fn enable(capacity: usize) {
    let c = collector();
    c.capacity.store(capacity.max(1), Ordering::Relaxed);
    c.tracks.write().unwrap_or_else(|e| e.into_inner()).clear();
    c.generation.fetch_add(1, Ordering::SeqCst);
    c.enabled.store(true, Ordering::SeqCst);
}

/// Disables collection. Spans already collected remain drainable.
pub fn disable() {
    collector().enabled.store(false, Ordering::SeqCst);
}

/// Whether spans are currently being collected.
pub fn enabled() -> bool {
    collector().enabled.load(Ordering::Relaxed)
}

/// Mints the next trace id. Works whether or not collection is enabled,
/// so journal events can reference a trace id unconditionally.
pub fn mint_trace_id() -> TraceId {
    TraceId(collector().next_trace.fetch_add(1, Ordering::Relaxed))
}

/// Drains every track's collected spans, ordered by (track, start
/// tick) — a deterministic total order for a deterministic workload.
pub fn drain() -> Vec<SpanRecord> {
    let c = collector();
    let tracks: Vec<Arc<Track>> = c
        .tracks
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    let mut out = Vec::new();
    for t in tracks {
        let mut ring = t.ring.lock().unwrap_or_else(|e| e.into_inner());
        out.extend(ring.drain());
    }
    out.sort_by_key(|r| (r.track, r.start_tick, r.id.0));
    out
}

// ---------------------------------------------------------------------------
// Per-thread context: a frame stack tolerant of out-of-order drops.

struct Frame {
    ctx: SpanContext,
    dead: bool,
}

#[derive(Default)]
struct ThreadCtx {
    /// Track index spans opened on this thread belong to.
    track: u32,
    /// Context handed in from another thread (a worker's current item).
    base: Option<SpanContext>,
    /// Open spans, innermost last. Dead frames are swept lazily.
    frames: Vec<Frame>,
    /// `(generation, track) -> Arc<Track>` cache. Looking the track up
    /// in the collector takes a read lock on a `RwLock` every worker
    /// thread contends on; caching the handle here makes the per-span
    /// cost an uncontended refcount bump. The generation (bumped by
    /// [`enable`], which drops the old tracks) invalidates stale
    /// handles.
    cached: Option<(u64, u32, Arc<Track>)>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx {
            track: 0,
            base: None,
            frames: Vec::new(),
            cached: None,
        })
    };
    /// Cache of [`current`]'s answer — innermost live frame, else base.
    /// Updated by every frame/base mutation; `const`-initialized so the
    /// read on the hot path (every `span()` call while collection is
    /// enabled, live context or not) is a plain TLS load with no lazy
    /// registration and no `RefCell` borrow.
    static CURRENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
}

/// Recomputes the [`CURRENT`] cache from a borrowed context. Callers
/// hold the `CTX` borrow, so this cannot race with `current()` on the
/// same thread.
fn refresh_current(ctx: &ThreadCtx) {
    let cur = ctx
        .frames
        .iter()
        .rev()
        .find(|f| !f.dead)
        .map(|f| f.ctx)
        .or(ctx.base);
    CURRENT.with(|c| c.set(cur));
}

/// Assigns this thread's track (0 by default, the server's). A thread
/// that records spans concurrently with another takes a track of its
/// own, so each track stays single-threaded.
pub fn set_thread_track(track: u32) {
    CTX.with(|c| c.borrow_mut().track = track);
}

/// Swaps the thread's *base* context — the parent adopted by spans
/// opened while no local guard is live. Workers swap the submitted
/// request's context in before each work item and restore the previous
/// value after, which hands spans across the thread boundary. Returns
/// the previous base.
pub fn swap_current(ctx: Option<SpanContext>) -> Option<SpanContext> {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        let prev = std::mem::replace(&mut c.base, ctx);
        refresh_current(&c);
        prev
    })
}

/// The innermost live span context on this thread, if any.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(|c| c.get())
}

struct OpenSpan {
    ctx: SpanContext,
    parent: Option<SpanId>,
    name: &'static str,
    track: u32,
    /// The track the span opened on, kept so the drop path skips the
    /// collector's track-table lookup.
    handle: Arc<Track>,
    start_tick: u64,
    start_us: u64,
    attrs: Vec<(&'static str, Json)>,
    /// Whether this span pushed a frame (roots opened detached did not).
    framed: bool,
}

/// A live span guard. Closing (dropping) it stamps the end tick, pushes
/// the finished [`SpanRecord`] into the track ring, and restores the
/// thread context — correctly even when guards drop out of creation
/// order. When collection is disabled the guard is inert but still
/// carries the minted trace id.
#[derive(Debug)]
pub struct ActiveSpan {
    trace: TraceId,
    open: Option<OpenSpanOpaque>,
}

// Keep OpenSpan out of the public debug surface.
struct OpenSpanOpaque(OpenSpan);

impl std::fmt::Debug for OpenSpanOpaque {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenSpan")
            .field("id", &self.0.ctx.span)
            .field("name", &self.0.name)
            .finish()
    }
}

fn open_span(
    trace: TraceId,
    name: &'static str,
    parent: Option<SpanId>,
    framed: bool,
) -> ActiveSpan {
    let c = collector();
    let start_us = u64::try_from(c.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
    CTX.with(|tls| {
        let mut tls = tls.borrow_mut();
        let track = tls.track;
        let generation = c.generation.load(Ordering::Relaxed);
        let handle = match &tls.cached {
            Some((g, t, h)) if *g == generation && *t == track => Arc::clone(h),
            _ => {
                let h = c.track(track);
                tls.cached = Some((generation, track, Arc::clone(&h)));
                h
            }
        };
        let start_tick = handle.ticks.fetch_add(1, Ordering::Relaxed);
        let id = SpanId((u64::from(track) + 1) << TRACK_SHIFT | start_tick);
        let ctx = SpanContext { trace, span: id };
        if framed {
            tls.frames.push(Frame { ctx, dead: false });
            CURRENT.with(|cur| cur.set(Some(ctx)));
        }
        ActiveSpan {
            trace,
            open: Some(OpenSpanOpaque(OpenSpan {
                ctx,
                parent,
                name,
                track,
                handle,
                start_tick,
                start_us,
                attrs: Vec::new(),
                framed,
            })),
        }
    })
}

/// Opens a root span for a new request: mints a trace id (always) and,
/// when collection is enabled, opens a parentless span and makes it the
/// thread's current context.
pub fn root(name: &'static str) -> ActiveSpan {
    let trace = mint_trace_id();
    if !enabled() {
        return ActiveSpan { trace, open: None };
    }
    open_span(trace, name, None, true)
}

/// Opens a root span *without* touching the thread's current context.
/// The sharded frontend uses this for deferred roots that stay open
/// from a request's submission until the flush that runs it, which
/// adopts the root via [`swap_current`].
pub fn root_detached(name: &'static str) -> ActiveSpan {
    let trace = mint_trace_id();
    if !enabled() {
        return ActiveSpan { trace, open: None };
    }
    open_span(trace, name, None, false)
}

/// Opens a child under the thread's current context. Returns an inert
/// guard when collection is disabled or no context is live.
pub fn child(name: &'static str) -> ActiveSpan {
    if !enabled() {
        return ActiveSpan {
            trace: TraceId(0),
            open: None,
        };
    }
    match current() {
        None => ActiveSpan {
            trace: TraceId(0),
            open: None,
        },
        Some(parent) => open_span(parent.trace, name, Some(parent.span), true),
    }
}

impl ActiveSpan {
    /// The trace id (minted even when collection is disabled, except
    /// for inert children, which report trace 0).
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.open.is_some()
    }

    /// The context to hand across a thread boundary, if recording.
    pub fn context(&self) -> Option<SpanContext> {
        self.open.as_ref().map(|o| o.0.ctx)
    }

    /// Attaches a key attribute. No-op when not recording.
    pub fn attr(&mut self, key: &'static str, value: Json) {
        if let Some(o) = self.open.as_mut() {
            o.0.attrs.push((key, value));
        }
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let o = open.0;
        let c = collector();
        if o.framed {
            // Explicit restoration: mark *this* frame dead; only the
            // innermost live guard pops, sweeping any dead frames under
            // it. An out-of-order drop therefore never steals the
            // context from a still-live inner span.
            CTX.with(|ctx| {
                let mut ctx = ctx.borrow_mut();
                if let Some(f) = ctx
                    .frames
                    .iter_mut()
                    .rev()
                    .find(|f| f.ctx.span == o.ctx.span)
                {
                    f.dead = true;
                }
                while ctx.frames.last().is_some_and(|f| f.dead) {
                    ctx.frames.pop();
                }
                refresh_current(&ctx);
            });
        }
        if !enabled() {
            return;
        }
        let handle = o.handle;
        let end_tick = handle.ticks.fetch_add(1, Ordering::Relaxed);
        let end_us = u64::try_from(c.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let record = SpanRecord {
            trace: self.trace,
            id: o.ctx.span,
            parent: o.parent,
            name: o.name,
            track: o.track,
            start_tick: o.start_tick,
            end_tick,
            start_us: o.start_us,
            end_us,
            attrs: o.attrs,
        };
        let mut ring = handle.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.push(record).is_some() {
            global().counter("obs.trace_dropped").incr();
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.

/// Which clock the exporter stamps `ts`/`dur` with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClock {
    /// Per-track logical ticks: deterministic, byte-stable for a fixed
    /// seed. The default.
    Logical,
    /// Wall-clock micros since collector creation.
    Wall,
}

impl TraceClock {
    /// Parses `logical` / `wall`.
    pub fn parse(s: &str) -> Option<TraceClock> {
        match s {
            "logical" => Some(TraceClock::Logical),
            "wall" => Some(TraceClock::Wall),
            _ => None,
        }
    }
}

fn track_label(track: u32) -> String {
    if track == 0 {
        "coordinator".to_string()
    } else {
        format!("shard-{}", track - 1)
    }
}

/// Renders drained span records as Chrome trace-event JSON (the format
/// Perfetto and `chrome://tracing` load). One complete (`ph:"X"`) event
/// per span plus a `thread_name` metadata event per track; span, parent
/// and trace ids ride in `args`.
pub fn chrome_trace(records: &[SpanRecord], clock: TraceClock) -> Json {
    let mut events = Vec::new();
    let tracks: BTreeSet<u32> = records.iter().map(|r| r.track).collect();
    for track in &tracks {
        events.push(Json::obj([
            ("ph", Json::from("M")),
            ("pid", Json::Int(1)),
            ("tid", Json::from(*track)),
            ("name", Json::from("thread_name")),
            (
                "args",
                Json::obj([("name", Json::from(track_label(*track)))]),
            ),
        ]));
    }
    for r in records {
        let (ts, dur) = match clock {
            TraceClock::Logical => (r.start_tick, r.end_tick.saturating_sub(r.start_tick).max(1)),
            TraceClock::Wall => (r.start_us, r.end_us.saturating_sub(r.start_us).max(1)),
        };
        let mut args = BTreeMap::new();
        args.insert("trace".to_string(), Json::from(r.trace.to_string()));
        args.insert("span".to_string(), Json::from(r.id.to_string()));
        args.insert(
            "parent".to_string(),
            match r.parent {
                Some(p) => Json::from(p.to_string()),
                None => Json::Null,
            },
        );
        for (k, v) in &r.attrs {
            args.entry((*k).to_string()).or_insert_with(|| v.clone());
        }
        events.push(Json::obj([
            ("ph", Json::from("X")),
            ("pid", Json::Int(1)),
            ("tid", Json::from(r.track)),
            ("name", Json::from(r.name)),
            ("cat", Json::from("ts")),
            ("ts", Json::from(ts)),
            ("dur", Json::from(dur)),
            ("args", Json::Obj(args)),
        ]));
    }
    Json::obj([
        ("displayTimeUnit", Json::from("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// Summary of a validated trace artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events (metadata + complete).
    pub events: usize,
    /// Complete (`ph:"X"`) span events.
    pub spans: usize,
    /// Spans with no parent.
    pub roots: usize,
    /// Distinct tracks (tids).
    pub tracks: usize,
}

/// Validates a Chrome trace-event document: required fields per event
/// (`ph`/`pid`/`tid`/`name`, plus `ts`/`dur` on complete events),
/// unique span ids, and acyclic parent linkage where every parent
/// resolves to a span in the document.
pub fn validate_chrome_trace(doc: &Json) -> Result<TraceCheck, String> {
    let events = doc
        .get("traceEvents")
        .and_then(|e| match e {
            Json::Arr(v) => Some(v),
            _ => None,
        })
        .ok_or("missing traceEvents array")?;
    let mut spans: BTreeMap<String, Option<String>> = BTreeMap::new();
    let mut roots = 0usize;
    let mut n_spans = 0usize;
    let mut tracks = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        ev.get("pid")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        if ph != "X" {
            continue;
        }
        tracks.insert(tid);
        n_spans += 1;
        let ts = ev
            .get("ts")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("event {i}: complete event missing ts"))?;
        let dur = ev
            .get("dur")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("event {i}: complete event missing dur"))?;
        if ts < 0 || dur < 1 {
            return Err(format!("event {i}: bad ts/dur ({ts}/{dur})"));
        }
        let span = ev
            .get("args")
            .and_then(|a| a.get("span"))
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing args.span"))?
            .to_string();
        let parent = ev
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Json::as_str)
            .map(str::to_string);
        if parent.is_none() {
            roots += 1;
        }
        if spans.insert(span.clone(), parent).is_some() {
            return Err(format!("duplicate span id {span}"));
        }
    }
    for (span, parent) in &spans {
        if let Some(p) = parent {
            if !spans.contains_key(p) {
                return Err(format!("span {span}: parent {p} not in document"));
            }
        }
        // Walk to a root; a cycle revisits a node before the walk ends.
        let mut seen = BTreeSet::new();
        let mut cur = span;
        while let Some(Some(p)) = spans.get(cur) {
            if !seen.insert(cur.clone()) {
                return Err(format!("cycle in parent linkage at span {span}"));
            }
            cur = p;
        }
    }
    Ok(TraceCheck {
        events: events.len(),
        spans: n_spans,
        roots,
        tracks: tracks.len(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Tests toggling the global collector must not interleave.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: StdMutex<()> = StdMutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_guards_are_inert_but_mint_trace_ids() {
        let _g = lock();
        disable();
        let r = root("req");
        assert!(!r.is_recording());
        assert!(r.trace_id().0 > 0);
        assert!(!child("inner").is_recording());
        drop(r);
        let _ = drain(); // nothing recorded by us; leave the rings clean
    }

    #[test]
    fn nesting_and_cross_thread_handoff_link_correctly() {
        let _g = lock();
        enable(64);
        let ctx = {
            let root = root("req");
            {
                let _inner = child("stage");
            }
            root.context().unwrap()
        };
        // Simulate a worker: separate "thread" context via swap.
        let prev = swap_current(Some(ctx));
        set_thread_track(3);
        {
            let _hop = child("worker-hop");
        }
        set_thread_track(0);
        swap_current(prev);
        disable();
        let records = drain();
        assert_eq!(records.len(), 3);
        let root_rec = records.iter().find(|r| r.name == "req").unwrap();
        let stage = records.iter().find(|r| r.name == "stage").unwrap();
        let hop = records.iter().find(|r| r.name == "worker-hop").unwrap();
        assert_eq!(root_rec.parent, None);
        assert_eq!(stage.parent, Some(root_rec.id));
        assert_eq!(hop.parent, Some(root_rec.id));
        assert_eq!(hop.track, 3);
        assert_eq!(hop.trace, root_rec.trace);
        assert!(stage.start_tick > root_rec.start_tick);
        assert!(stage.end_tick < root_rec.end_tick);
    }

    #[test]
    fn interleaved_drops_do_not_misattribute() {
        let _g = lock();
        enable(64);
        let r = root("req");
        let a = child("a");
        let a_ctx = a.context().unwrap();
        let b = child("b");
        let b_ctx = b.context().unwrap();
        // Drop the *outer* child first: the inner child must keep the
        // current context.
        drop(a);
        assert_eq!(current(), Some(b_ctx));
        drop(b);
        assert_eq!(current(), r.context());
        drop(r);
        disable();
        let records = drain();
        let rec = |n: &str| records.iter().find(|r| r.name == n).unwrap().clone();
        let (ra, rb, rr) = (rec("a"), rec("b"), rec("req"));
        assert_eq!(ra.parent, Some(rr.id));
        assert_eq!(rb.parent, Some(ra.id), "b was created under a");
        assert_eq!(ra.id, a_ctx.span);
        assert!(ra.end_tick < rb.end_tick, "a closed before b");
        assert!(ra.end_tick > ra.start_tick && rb.end_tick > rb.start_tick);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _g = lock();
        enable(2);
        let before = global().counter("obs.trace_dropped").get();
        let r = root("req");
        for _ in 0..4 {
            let _c = child("c");
        }
        drop(r);
        disable();
        let records = drain();
        assert_eq!(records.len(), 2, "ring capacity bounds retention");
        assert!(global().counter("obs.trace_dropped").get() >= before + 3);
    }

    #[test]
    fn export_is_schema_valid_and_deterministic_under_logical_clock() {
        let _g = lock();
        enable(64);
        {
            let _r = root("req");
            let _c = child("stage");
        }
        disable();
        let records = drain();
        let doc = chrome_trace(&records, TraceClock::Logical);
        let check = validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(check.spans, 2);
        assert_eq!(check.roots, 1);
        let reparsed = crate::json::parse(&doc.to_string()).expect("round-trips");
        assert_eq!(reparsed, doc);
        // Logical clock: ticks are 0..4 regardless of wall time.
        let stage = records.iter().find(|r| r.name == "stage").unwrap();
        assert_eq!((stage.start_tick, stage.end_tick), (1, 2));
    }

    #[test]
    fn validator_rejects_broken_linkage() {
        let doc = crate::json::parse(
            r#"{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"x","ts":0,"dur":1,"args":{"span":"s1","parent":"s9"}}]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&doc).is_err());
        let cyclic = crate::json::parse(
            r#"{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"x","ts":0,"dur":1,"args":{"span":"s1","parent":"s2"}},{"ph":"X","pid":1,"tid":0,"name":"y","ts":1,"dur":1,"args":{"span":"s2","parent":"s1"}}]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&cyclic)
            .unwrap_err()
            .contains("cycle"));
    }
}
