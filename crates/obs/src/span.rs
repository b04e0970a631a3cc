//! Spans: scope-guard timers that record their elapsed time into a named
//! latency histogram when dropped.
//!
//! ```
//! {
//!     let _span = hka_obs::span!("algo1.generalize");
//!     // ... the timed work ...
//! } // histogram "algo1.generalize" records the elapsed nanoseconds here
//! ```
//!
//! [`span!`](crate::span!) resolves its histogram in the
//! [`global`](crate::global) registry once per call site, so a span
//! costs its two clock reads and one histogram record, not a registry
//! lookup; [`SpanGuard::start_in`] looks the name up on every call and is
//! for registries other than the global one.
//!
//! When trace collection is enabled ([`trace::enable`](crate::trace))
//! and a trace context is live on the thread, every guard additionally
//! opens a trace child span under that context — existing
//! instrumentation sites become trace-visible without changes. Guards
//! restore the context they captured explicitly (via the trace frame
//! stack), so nested or out-of-order drops cannot misattribute
//! durations or parentage.

use std::time::Instant;

use crate::json::Json;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::trace::{self, ActiveSpan};

/// A running span. Records elapsed nanoseconds into its histogram when
/// dropped (end of scope, early return, or unwinding alike), and closes
/// its trace child, when one is recording.
#[must_use = "a span records on Drop; binding it to `_` ends it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    histogram: &'static Histogram,
    start: Instant,
    /// The trace child opened under the thread's current context. The
    /// guard owns it so drop order ties the trace interval to the
    /// histogram interval; inert when tracing is off.
    trace: ActiveSpan,
}

impl SpanGuard {
    /// Starts a span named `name` recording into `histogram`.
    pub fn start(histogram: &'static Histogram, name: &'static str) -> SpanGuard {
        SpanGuard {
            histogram,
            start: Instant::now(),
            trace: trace::child(name),
        }
    }

    /// Starts a span recording into `registry`'s histogram `name`, looked
    /// up by name on every call.
    pub fn start_in(registry: &MetricsRegistry, name: &'static str) -> SpanGuard {
        SpanGuard::start(registry.histogram(name), name)
    }

    /// Nanoseconds elapsed so far.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Attaches a key attribute to the trace child (no-op when tracing
    /// is off or no context was live at creation).
    pub fn attr(&mut self, key: &'static str, value: Json) {
        self.trace.attr(key, value);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = self.elapsed_ns();
        self.histogram.record(ns);
        // `self.trace` drops after this, closing the trace child.
    }
}

/// Starts a span recording into the [`global`](crate::global) histogram
/// `name`, resolved once per call site (see
/// [`counter!`](crate::counter)); `span!("name")` mirrors the
/// `tracing::span!` shape while staying dependency-free. `name` must be
/// a constant expression.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        const SPAN_NAME: &str = $name;
        $crate::SpanGuard::start($crate::histogram!(SPAN_NAME), SPAN_NAME)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global;

    #[test]
    fn span_records_on_drop() {
        let registry = MetricsRegistry::new();
        {
            let _span = SpanGuard::start_in(&registry, "work");
            std::hint::black_box((0..1000u64).sum::<u64>());
        }
        let snap = registry.snapshot();
        let h = snap.histogram("work").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max > 0, "a monotonic clock never measures 0ns here");
    }

    #[test]
    fn span_records_on_early_return_via_unwind() {
        let registry = MetricsRegistry::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = SpanGuard::start_in(&registry, "panicky");
            panic!("unwind through the span");
        }));
        assert!(result.is_err());
        assert_eq!(registry.snapshot().histogram("panicky").unwrap().count, 1);
    }

    #[test]
    fn interleaved_guards_keep_their_own_parents_and_durations() {
        let _g = crate::trace::tests::lock();
        trace::enable(64);
        let root = trace::root("req");
        let registry = MetricsRegistry::new();
        let a = SpanGuard::start_in(&registry, "outer");
        let b = SpanGuard::start_in(&registry, "inner");
        // Out-of-order: the outer guard drops first. The inner guard
        // must keep the live context and close under `outer`.
        drop(a);
        assert_eq!(
            trace::current().map(|c| c.span),
            rec_ctx(&b),
            "inner guard still owns the current context"
        );
        drop(b);
        assert_eq!(trace::current(), root.context());
        drop(root);
        trace::disable();
        let records = trace::drain();
        let find = |n: &str| records.iter().find(|r| r.name == n).unwrap();
        let (ro, ri, rr) = (find("outer"), find("inner"), find("req"));
        assert_eq!(ro.parent, Some(rr.id));
        assert_eq!(ri.parent, Some(ro.id));
        assert!(ro.end_tick < ri.end_tick, "outer closed first");
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("outer").unwrap().count, 1);
        assert_eq!(snap.histogram("inner").unwrap().count, 1);
    }

    fn rec_ctx(g: &SpanGuard) -> Option<crate::trace::SpanId> {
        g.trace.context().map(|c| c.span)
    }

    #[test]
    fn span_macro_uses_global() {
        {
            let _span = crate::span!("obs.test.span_macro");
        }
        let snap = global().snapshot();
        assert!(snap.histogram("obs.test.span_macro").unwrap().count >= 1);
    }
}
