//! Causal request tracing: one scope guard that times into a latency
//! histogram and, while collection is on, records a span into one bounded
//! ring, exported as Chrome trace-event JSON loadable in Perfetto.
//!
//! ```
//! {
//!     let _span = hka_obs::span!("algo1.generalize");
//!     // ... the timed work ...
//! } // histogram "algo1.generalize" records the elapsed nanoseconds here
//! ```
//!
//! [`span!`](crate::span!) resolves its histogram in the
//! [`global`](crate::global) registry once per call site and opens an
//! [`ActiveSpan::timed`] guard. A request's [`root`] mints its trace id
//! and, when collection is enabled, becomes the thread's current context;
//! every timed guard opened under a live context then records a child
//! span too, so existing instrumentation sites become trace-visible
//! without changes.
//!
//! Design constraints, in order:
//!
//! * **Zero cost when off.** A single relaxed atomic load gates the hot
//!   path; with the collector disabled no allocation, locking, or
//!   clock read happens beyond the guard's own timer.
//! * **Deterministic export.** Every server records its spans on the one
//!   thread that decides its requests, in a deterministic order, so span
//!   start/end order is a pure function of the workload. The collector
//!   therefore keeps a logical **tick counter**: opening or closing a
//!   span consumes one tick, a span's id is its start tick, and the
//!   default export clock uses ticks, making the artifact byte-stable for
//!   a fixed seed. Wall-clock micros are recorded alongside and
//!   selectable with [`TraceClock::Wall`].
//! * **Out-of-order drops stay correct.** Open spans form a per-thread
//!   stack of frames; a guard dropped while an inner guard is still
//!   live marks its frame *dead* instead of clobbering the current
//!   context, and the innermost live guard sweeps dead frames when it
//!   closes. Parentage is captured at creation, so durations and parent
//!   links never migrate between spans (see the interleaved-guard test).
//! * **Bounded memory.** Spans land in one
//!   [`RingBuffer`](crate::RingBuffer); overflow drops the oldest record
//!   and increments the `obs.trace_dropped` counter.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::Histogram;
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

/// Identifies one span: the collector tick at which it opened, unique
/// among the spans collected since the last [`enable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{:012x}", self.0)
    }
}

/// The (trace, span) pair that work running later parents under, handed
/// over through [`swap_current`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The request's trace.
    pub trace: TraceId,
    /// The span the adopted work should parent under.
    pub span: SpanId,
}

/// One finished span as stored in the ring.
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
    /// Logical tick at open (deterministic for a fixed workload).
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

/// The process-wide collector: one span ring and one tick counter.
struct Collector {
    enabled: AtomicBool,
    next_trace: AtomicU64,
    ticks: AtomicU64,
    epoch: Instant,
    ring: Mutex<RingBuffer<SpanRecord>>,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        enabled: AtomicBool::new(false),
        next_trace: AtomicU64::new(1),
        ticks: AtomicU64::new(0),
        epoch: Instant::now(),
        ring: Mutex::new(RingBuffer::new(4096)),
    })
}

impl Collector {
    fn ring(&self) -> MutexGuard<'_, RingBuffer<SpanRecord>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn micros(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }
}

/// Enables collection with room for `capacity` span records, clearing
/// any previously collected spans and resetting the tick counter. Trace
/// id minting continues from wherever it was (ids are process-unique).
pub fn enable(capacity: usize) {
    let c = collector();
    *c.ring() = RingBuffer::new(capacity);
    c.ticks.store(0, Ordering::Relaxed);
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

/// Drains the collected spans, ordered by start tick — a deterministic
/// total order for a deterministic workload (start ticks are unique, so
/// an unstable sort gives it).
pub fn drain() -> Vec<SpanRecord> {
    let mut out = collector().ring().drain();
    out.sort_unstable_by_key(|r| r.start_tick);
    out
}

// ---------------------------------------------------------------------------
// Per-thread context: a frame stack tolerant of out-of-order drops.

struct Frame {
    ctx: SpanContext,
    dead: bool,
}

struct ThreadCtx {
    /// Context adopted through [`swap_current`] (a deferred request root).
    base: Option<SpanContext>,
    /// Open spans, innermost last. Dead frames are swept lazily.
    frames: Vec<Frame>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx {
            base: None,
            frames: Vec::new(),
        })
    };
    /// Cache of [`current`]'s answer — innermost live frame, else base.
    /// Updated by every frame/base mutation; `const`-initialized so the
    /// read on the hot path (every `span!` guard while collection is
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

/// Swaps the thread's *base* context — the parent adopted by spans
/// opened while no local guard is live. The sharded server swaps a
/// request's deferred root in before running the request and restores
/// the previous value after, so the request's spans parent under the
/// root its submission opened. Returns the previous base.
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

/// A recording span's open state, held inline in its guard so recording
/// allocates nothing beyond its attributes.
#[derive(Debug)]
struct OpenSpan {
    ctx: SpanContext,
    parent: Option<SpanId>,
    name: &'static str,
    start_tick: u64,
    start_us: u64,
    attrs: Vec<(&'static str, Json)>,
    /// Whether this span pushed a frame (roots opened detached did not).
    framed: bool,
}

fn open_span(
    trace: TraceId,
    name: &'static str,
    parent: Option<SpanId>,
    framed: bool,
    at: Instant,
) -> OpenSpan {
    let c = collector();
    let start_us = c.micros(at);
    let start_tick = c.ticks.fetch_add(1, Ordering::Relaxed);
    let ctx = SpanContext {
        trace,
        span: SpanId(start_tick),
    };
    if framed {
        CTX.with(|tls| tls.borrow_mut().frames.push(Frame { ctx, dead: false }));
        CURRENT.with(|cur| cur.set(Some(ctx)));
    }
    OpenSpan {
        ctx,
        parent,
        name,
        start_tick,
        start_us,
        attrs: Vec::new(),
        framed,
    }
}

/// A live span guard. Dropping it — end of scope, early return, or
/// unwinding alike — records a timed guard's elapsed nanoseconds into
/// its histogram, then, if it is recording, stamps the end tick, pushes
/// the finished [`SpanRecord`] into the ring, and restores the thread
/// context, correctly even when guards drop out of creation order. A
/// guard that is not recording still carries its trace id.
#[must_use = "a span records on drop; binding it to `_` ends it immediately"]
#[derive(Debug)]
pub struct ActiveSpan {
    trace: TraceId,
    /// The histogram a timed guard records into, and when it started.
    timer: Option<(&'static Histogram, Instant)>,
    open: Option<OpenSpan>,
}

/// Opens a root span for a new request: mints a trace id (always) and,
/// when collection is enabled, opens a parentless span and makes it the
/// thread's current context.
pub fn root(name: &'static str) -> ActiveSpan {
    open_root(name, true)
}

/// Opens a root span *without* touching the thread's current context.
/// The sharded frontend uses this for deferred roots that stay open
/// from a request's submission until the flush that runs it, which
/// adopts the root via [`swap_current`].
pub fn root_detached(name: &'static str) -> ActiveSpan {
    open_root(name, false)
}

fn open_root(name: &'static str, framed: bool) -> ActiveSpan {
    let trace = mint_trace_id();
    ActiveSpan {
        trace,
        timer: None,
        open: enabled().then(|| open_span(trace, name, None, framed, Instant::now())),
    }
}

impl ActiveSpan {
    /// Starts a guard that records its elapsed nanoseconds into
    /// `histogram` when dropped and, while collection is enabled and a
    /// context is live on this thread, records a child span `name` under
    /// that context. [`span!`](crate::span!) is the usual way in.
    pub fn timed(histogram: &'static Histogram, name: &'static str) -> ActiveSpan {
        let start = Instant::now();
        let parent = if enabled() { current() } else { None };
        ActiveSpan {
            trace: parent.map_or(TraceId(0), |p| p.trace),
            timer: Some((histogram, start)),
            open: parent.map(|p| open_span(p.trace, name, Some(p.span), true, start)),
        }
    }

    /// The trace id (minted even when collection is disabled, except
    /// for timed guards that are not recording, which report trace 0).
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.open.is_some()
    }

    /// The context for work adopted through [`swap_current`], if
    /// recording.
    pub fn context(&self) -> Option<SpanContext> {
        self.open.as_ref().map(|o| o.ctx)
    }

    /// Attaches a key attribute. No-op when not recording.
    pub fn attr(&mut self, key: &'static str, value: Json) {
        if let Some(o) = self.open.as_mut() {
            o.attrs.push((key, value));
        }
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        if self.timer.is_none() && self.open.is_none() {
            return;
        }
        // One clock read ends both the timer and the span.
        let end = Instant::now();
        if let Some((histogram, start)) = self.timer {
            let ns = end.duration_since(start).as_nanos();
            histogram.record(u64::try_from(ns).unwrap_or(u64::MAX));
        }
        let Some(o) = self.open.take() else {
            return;
        };
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
        let c = collector();
        let end_tick = c.ticks.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            trace: self.trace,
            id: o.ctx.span,
            parent: o.parent,
            name: o.name,
            start_tick: o.start_tick,
            end_tick,
            start_us: o.start_us,
            end_us: c.micros(end),
            attrs: o.attrs,
        };
        if c.ring().push(record).is_some() {
            crate::counter!("obs.trace_dropped").incr();
        }
    }
}

/// Starts an [`ActiveSpan::timed`] guard recording into the
/// [`global`](crate::global) histogram `name`, resolved once per call
/// site (see [`counter!`](crate::counter)); `span!("name")` mirrors the
/// `tracing::span!` shape while staying dependency-free. `name` must be
/// a constant expression.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        const SPAN_NAME: &str = $name;
        $crate::ActiveSpan::timed($crate::histogram!(SPAN_NAME), SPAN_NAME)
    }};
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.

/// Which clock the exporter stamps `ts`/`dur` with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClock {
    /// Logical ticks: deterministic, byte-stable for a fixed seed. The
    /// default.
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

/// Renders drained span records as Chrome trace-event JSON (the format
/// Perfetto and `chrome://tracing` load): one `thread_name` metadata
/// event for the thread that recorded them (tid 0), then one complete
/// (`ph:"X"`) event per span; span, parent and trace ids ride in `args`.
pub fn chrome_trace(records: &[SpanRecord], clock: TraceClock) -> Json {
    let mut events = Vec::with_capacity(records.len() + 1);
    events.push(Json::obj([
        ("ph", Json::from("M")),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(0)),
        ("name", Json::from("thread_name")),
        ("args", Json::obj([("name", Json::from("coordinator"))])),
    ]));
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
            ("tid", Json::Int(0)),
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
mod tests {
    use super::*;
    use crate::{global, MetricsRegistry};
    use std::sync::Mutex as StdMutex;

    /// Tests toggling the global collector must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: StdMutex<()> = StdMutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A timed guard under the thread's current context, timing into a
    /// histogram these tests never read.
    fn child(name: &'static str) -> ActiveSpan {
        ActiveSpan::timed(global().histogram("obs.test.child"), name)
    }

    #[test]
    fn timed_guard_records_on_drop() {
        let registry = MetricsRegistry::new();
        {
            let _span = ActiveSpan::timed(registry.histogram("work"), "work");
            std::hint::black_box((0..1000u64).sum::<u64>());
        }
        let snap = registry.snapshot();
        let h = snap.histogram("work").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max > 0, "a monotonic clock never measures 0ns here");
    }

    #[test]
    fn timed_guard_records_on_unwind() {
        let registry = MetricsRegistry::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = ActiveSpan::timed(registry.histogram("panicky"), "panicky");
            panic!("unwind through the span");
        }));
        assert!(result.is_err());
        assert_eq!(registry.snapshot().histogram("panicky").unwrap().count, 1);
    }

    /// Off, on without a context, on under a root: the histogram sees
    /// every guard once, the ring only the last.
    #[test]
    fn timed_guard_times_always_and_records_a_span_only_under_a_live_context() {
        let _g = lock();
        let h = MetricsRegistry::new().histogram("guard");
        disable();
        let _ = drain();
        drop(ActiveSpan::timed(h, "guard"));
        assert_eq!(h.count(), 1);
        assert!(drain().is_empty(), "collection off records no span");

        enable(64);
        assert_eq!(current(), None);
        let inert = ActiveSpan::timed(h, "guard");
        assert!(!inert.is_recording());
        drop(inert);
        assert_eq!(h.count(), 2);
        assert!(drain().is_empty(), "no live context records no span");

        let r = root("req");
        let g = ActiveSpan::timed(h, "guard");
        assert_eq!(g.trace_id(), r.trace_id());
        drop(g);
        drop(r);
        disable();
        assert_eq!(h.count(), 3);
        let records = drain();
        assert_eq!(records.iter().filter(|r| r.name == "guard").count(), 1);
        assert_eq!(records.len(), 2, "the guard and its root");
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
        let _ = drain(); // nothing recorded by us; leave the ring clean
    }

    #[test]
    fn nesting_and_swap_current_handoff_link_correctly() {
        let _g = lock();
        enable(64);
        let ctx = {
            let root = root("req");
            {
                let _inner = child("stage");
            }
            root.context().unwrap()
        };
        // Adopt the root as the base context, as the sharded server does
        // with a deferred root before running its request.
        let prev = swap_current(Some(ctx));
        {
            let _hop = child("adopted");
        }
        swap_current(prev);
        assert_eq!(current(), None);
        disable();
        let records = drain();
        assert_eq!(records.len(), 3);
        let root_rec = records.iter().find(|r| r.name == "req").unwrap();
        let stage = records.iter().find(|r| r.name == "stage").unwrap();
        let hop = records.iter().find(|r| r.name == "adopted").unwrap();
        assert_eq!(root_rec.parent, None);
        assert_eq!(stage.parent, Some(root_rec.id));
        assert_eq!(hop.parent, Some(root_rec.id));
        assert_eq!(hop.trace, root_rec.trace);
        assert!(stage.start_tick > root_rec.start_tick);
        assert!(stage.end_tick < root_rec.end_tick);
    }

    #[test]
    fn interleaved_guards_keep_their_own_parents_and_durations() {
        let _g = lock();
        enable(64);
        let registry = MetricsRegistry::new();
        let r = root("req");
        let a = ActiveSpan::timed(registry.histogram("a"), "a");
        let a_ctx = a.context().unwrap();
        let b = ActiveSpan::timed(registry.histogram("b"), "b");
        let b_ctx = b.context().unwrap();
        // Out of order: the outer guard drops first. The inner guard
        // must keep the current context and close under `a`.
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
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("a").unwrap().count, 1);
        assert_eq!(snap.histogram("b").unwrap().count, 1);
    }

    #[test]
    fn span_macro_uses_global() {
        {
            let _span = crate::span!("obs.test.span_macro");
        }
        let snap = global().snapshot();
        assert!(snap.histogram("obs.test.span_macro").unwrap().count >= 1);
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
        assert_eq!(
            (check.events, check.tracks),
            (3, 1),
            "one thread_name event"
        );
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
