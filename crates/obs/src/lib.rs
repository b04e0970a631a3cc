//! Observability for the hka pipeline: metrics, span timers, and a
//! hash-chained JSONL event journal. Dependency-free by design — every
//! crate in the workspace can use it, including the lowest layers.
//!
//! Four facilities:
//!
//! * **Metrics** ([`metrics`]) — named atomic counters, gauges, and
//!   log₂-bucket latency histograms in a [`MetricsRegistry`];
//!   [`global()`] is the process-wide instance the pipeline records
//!   into, and [`MetricsRegistry::snapshot`] produces a point-in-time
//!   [`MetricsSnapshot`] with p50/p95/p99 summaries. Fixed-name sites
//!   go through [`counter!`] / [`gauge!`], which look their metric up
//!   once per call site and cache the `&'static` handle there.
//! * **Spans and tracing** ([`span!`], [`trace`]) — one scope guard,
//!   [`ActiveSpan`]: elapsed nanoseconds land in the histogram named
//!   after the span on drop, resolved once per call site like
//!   [`counter!`]; while collection is enabled and a request's root is
//!   live, the same guard records a span into one bounded ring, exported
//!   as Perfetto-loadable Chrome trace-event JSON.
//! * **Journal** ([`journal`]) — a versioned append-only JSONL log
//!   where each record carries a monotonic sequence number and a
//!   SHA-256 hash chained over the previous record, so truncation,
//!   reordering, and edits are detectable by [`verify_chain`]. It records
//!   decisions; the trace records timing, and neither rebuilds the other.
//! * **SLOs** ([`slo`]) — a rolling-window watchdog (latency p99,
//!   suppression rate, flush lag, mode residency) with latched
//!   breach/recovery transitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod sha256;
pub mod slo;
pub mod stage;
pub mod tail;
pub mod trace;

pub use checkpoint::{CheckpointAnchor, Snapshot, CHECKPOINT_KIND, SNAPSHOT_VERSION};
pub use journal::{
    event_hash, recover, verify_chain, BoxedJournal, ChainCursor, ChainError, ChainReport,
    DurableJournal, DurableSink, Journal, JournalReader, JournalRecord, RecoveryReport, Unsynced,
    GENESIS_HASH, JOURNAL_VERSION,
};
pub use json::{Canonical, Json, ObjectWriter};
pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use ring::RingBuffer;
pub use slo::{SloConfig, SloEvent, SloMonitor};
pub use tail::{JournalTailer, TailBatch, TailedRecord};
pub use trace::{
    chrome_trace, validate_chrome_trace, ActiveSpan, SpanContext, SpanId, SpanRecord, TraceCheck,
    TraceClock, TraceId,
};
