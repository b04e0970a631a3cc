//! The trusted server's event log and accounting.
//!
//! Every decision the TS takes is recorded so experiments can report the
//! Section-6.2 trade-off triangle — quality of service (generalization
//! sizes, clamps), degree of anonymity (HK-anonymity successes/failures)
//! and frequency of unlinking (pseudonym changes, service interruptions).
//!
//! The log is bounded: events live in a fixed-capacity ring buffer
//! (default [`EventLog::DEFAULT_CAPACITY`]) and statistics are folded in
//! incrementally at push time, so a server handling millions of requests
//! keeps exact totals while holding only the recent tail in memory. For
//! a complete, durable record, attach a hash-chained JSONL journal —
//! [`EventLog::attach_journal`] appends every event before it enters the
//! ring; [`EventLog::attach_group_journal`] queues events and commits
//! them in batches, one fsync each, through the same retry ladder.

use crate::server::ServerMode;
use hka_anonymity::{Pseudonym, ServiceId};
use hka_geo::{StBox, TimeSec};
use hka_obs::{BoxedJournal, Canonical, DurableJournal, Json, ObjectWriter, RingBuffer};
use hka_trajectory::UserId;

/// One logged TS decision.
#[derive(Debug, Clone, PartialEq)]
pub enum TsEvent {
    /// A request was forwarded to the provider.
    Forwarded {
        /// The issuing user.
        user: UserId,
        /// When it was issued.
        at: TimeSec,
        /// The forwarded context.
        context: StBox,
        /// Whether the request matched an LBQID element and was
        /// generalized by Algorithm 1 (`false` = exact context).
        generalized: bool,
        /// Algorithm 1's HK-anonymity flag (always `true` for exact,
        /// non-pattern requests).
        hk_ok: bool,
        /// The service class the request was forwarded to.
        service: ServiceId,
        /// Anonymity target for this step after the k′ schedule
        /// (0 for exact, non-pattern forwards).
        k_req: usize,
        /// Size of the anonymity set Algorithm 1 achieved (0 for exact
        /// forwards).
        k_got: usize,
        /// Name of the matched LBQID (`None` for non-pattern forwards).
        lbqid: Option<String>,
    },
    /// A request was suppressed (mix-zone cool-down or risk policy).
    Suppressed {
        /// The issuing user.
        user: UserId,
        /// When it was issued.
        at: TimeSec,
        /// Why.
        reason: SuppressReason,
        /// The service class the suppressed request addressed.
        service: ServiceId,
    },
    /// The user's pseudonym was changed after a successful unlink.
    PseudonymChanged {
        /// The user.
        user: UserId,
        /// The retired pseudonym.
        old: Pseudonym,
        /// The fresh pseudonym.
        new: Pseudonym,
        /// When.
        at: TimeSec,
    },
    /// Generalization failed and unlinking was infeasible: the user is at
    /// risk and has been notified (Section 6.1 step 2).
    AtRisk {
        /// The user.
        user: UserId,
        /// When.
        at: TimeSec,
        /// Name of the LBQID concerned.
        lbqid: String,
    },
    /// A user's requests completed a full LBQID match (the pattern was
    /// released under a single pseudonym).
    LbqidMatched {
        /// The user.
        user: UserId,
        /// When the match completed.
        at: TimeSec,
        /// Name of the LBQID.
        lbqid: String,
    },
    /// The server's operating mode changed (journal health transition).
    ModeChanged {
        /// When the transition was observed.
        at: TimeSec,
        /// The mode left behind.
        from: ServerMode,
        /// The mode entered.
        to: ServerMode,
    },
    /// A service-level objective crossed its threshold (SLO watchdog).
    SloBreach {
        /// When the breach was observed (simulated time).
        at: TimeSec,
        /// Objective name (`latency_p99`, `suppression_rate`,
        /// `flush_lag`, `mode_residency`).
        slo: String,
        /// The observed value that crossed the threshold.
        value: f64,
        /// The configured threshold.
        threshold: f64,
        /// Trace id of the worst-latency request in the window (0 when
        /// unknown), so an operator can jump from the breach to a trace.
        worst_trace: u64,
        /// That request's latency, microseconds.
        worst_us: u64,
    },
    /// A previously-breached objective dropped back under its threshold.
    SloRecovered {
        /// When the recovery was observed (simulated time).
        at: TimeSec,
        /// Objective name.
        slo: String,
        /// The observed value at recovery.
        value: f64,
        /// The configured threshold.
        threshold: f64,
    },
    /// Gateway liveness snapshot (connection/drain/queue counters),
    /// journaled by a network frontend when stats emission is enabled.
    /// Telemetry only — never a TS decision — so the audit timeline
    /// ignores it (unknown kinds are tolerated, not violations).
    GwStats {
        /// When the snapshot was taken (simulated time).
        at: TimeSec,
        /// Connections currently open on the gateway.
        conns: u64,
        /// Service-loop drain cycles completed so far.
        drains: u64,
        /// Inflight-queue depth at snapshot time.
        queue_depth: u64,
    },
}

impl TsEvent {
    /// Converts an SLO watchdog transition into its journal event,
    /// stamped with the simulated time `at`. Breaches and recoveries
    /// are async-class: they describe internal telemetry, never an
    /// externally-visible decision.
    pub fn from_slo(ev: &hka_obs::SloEvent, at: TimeSec) -> TsEvent {
        if ev.breached {
            TsEvent::SloBreach {
                at,
                slo: ev.slo.to_string(),
                value: ev.value,
                threshold: ev.threshold,
                worst_trace: ev.worst_trace,
                worst_us: ev.worst_us,
            }
        } else {
            TsEvent::SloRecovered {
                at,
                slo: ev.slo.to_string(),
                value: ev.value,
                threshold: ev.threshold,
            }
        }
    }

    /// Whether this event is **sync-class** under the flush contract
    /// (DESIGN.md §12): its journal record must reach the OS before the
    /// effect it describes becomes externally visible, so the sink
    /// flushes immediately after appending it. Sync-class events are
    /// the ones with effects outside the TS — a forwarded request the
    /// provider sees ([`TsEvent::Forwarded`]), a pseudonym the network
    /// starts using ([`TsEvent::PseudonymChanged`]), a notification
    /// delivered to the user ([`TsEvent::AtRisk`]). Async-class events
    /// (suppressions, pattern matches, mode transitions) describe
    /// internal state and may sit in the write buffer until the next
    /// sync flush; a live audit tail sees them at most one buffer
    /// flush later, which is safe because none of them make a decision
    /// visible outside the server.
    pub fn sync_flush(&self) -> bool {
        matches!(
            self,
            TsEvent::Forwarded { .. } | TsEvent::PseudonymChanged { .. } | TsEvent::AtRisk { .. }
        )
    }

    /// The journal `kind` tag for this event.
    pub fn kind(&self) -> &'static str {
        match self {
            TsEvent::Forwarded { .. } => "ts.forwarded",
            TsEvent::Suppressed { .. } => "ts.suppressed",
            TsEvent::PseudonymChanged { .. } => "ts.pseudonym_changed",
            TsEvent::AtRisk { .. } => "ts.at_risk",
            TsEvent::LbqidMatched { .. } => "ts.lbqid_matched",
            TsEvent::ModeChanged { .. } => "ts.mode_changed",
            TsEvent::SloBreach { .. } => "ts.slo_breach",
            TsEvent::SloRecovered { .. } => "ts.slo_recovered",
            TsEvent::GwStats { .. } => "gw.stats",
        }
    }
}

/// The journal payload for this event (schema v1; field names are part
/// of the on-disk format — change only with a version bump). This is
/// the event's only field list: the fields go straight into the
/// journal's buffer, in the ascending key order canonical JSON has, and
/// no `Json` tree is built on the way.
impl Canonical for TsEvent {
    fn write_canonical(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        match self {
            TsEvent::Forwarded {
                user,
                at,
                context,
                generalized,
                hk_ok,
                service,
                k_req,
                k_got,
                lbqid,
            } => {
                o.field("at", at.0);
                o.field("generalized", *generalized);
                o.field("hk_ok", *hk_ok);
                o.field("k_got", *k_got as u64);
                o.field("k_req", *k_req as u64);
                o.field("lbqid", lbqid);
                o.field("service", u64::from(service.0));
                o.field("t_end", context.span.end().0);
                o.field("t_start", context.span.start().0);
                o.field("user", user.0);
                o.field("x_max", context.rect.max().x);
                o.field("x_min", context.rect.min().x);
                o.field("y_max", context.rect.max().y);
                o.field("y_min", context.rect.min().y);
            }
            TsEvent::Suppressed {
                user,
                at,
                reason,
                service,
            } => {
                o.field("at", at.0);
                o.field(
                    "reason",
                    match reason {
                        SuppressReason::MixZone => "mix_zone",
                        SuppressReason::RiskPolicy => "risk_policy",
                        SuppressReason::Degraded => "degraded",
                    },
                );
                o.field("service", u64::from(service.0));
                o.field("user", user.0);
            }
            TsEvent::PseudonymChanged { user, old, new, at } => {
                o.field("at", at.0);
                o.field("new", new.0);
                o.field("old", old.0);
                o.field("user", user.0);
            }
            TsEvent::AtRisk { user, at, lbqid } | TsEvent::LbqidMatched { user, at, lbqid } => {
                o.field("at", at.0);
                o.field("lbqid", lbqid);
                o.field("user", user.0);
            }
            TsEvent::ModeChanged { at, from, to } => {
                o.field("at", at.0);
                o.field("from", from.as_str());
                o.field("to", to.as_str());
            }
            TsEvent::SloBreach {
                at,
                slo,
                value,
                threshold,
                worst_trace,
                worst_us,
            } => {
                o.field("at", at.0);
                o.field("slo", slo);
                o.field("threshold", *threshold);
                o.field("value", *value);
                o.field("worst_trace", *worst_trace);
                o.field("worst_us", *worst_us);
            }
            TsEvent::SloRecovered {
                at,
                slo,
                value,
                threshold,
            } => {
                o.field("at", at.0);
                o.field("slo", slo);
                o.field("threshold", *threshold);
                o.field("value", *value);
            }
            TsEvent::GwStats {
                at,
                conns,
                drains,
                queue_depth,
            } => {
                o.field("at", at.0);
                o.field("conns", *conns);
                o.field("drains", *drains);
                o.field("queue_depth", *queue_depth);
            }
        }
        o.finish();
    }
}

/// Why a request was suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuppressReason {
    /// The point lies inside an active (or static) mix-zone.
    MixZone,
    /// The risk policy chose suppression over forwarding an unprotected
    /// request.
    RiskPolicy,
    /// The fail-closed invariant: a fault or degraded server mode made
    /// it impossible to guarantee the request's protection, so it was
    /// suppressed rather than forwarded.
    Degraded,
}

/// Bounded event log with exact running statistics and an optional
/// journal sink.
#[derive(Debug)]
pub struct EventLog {
    ring: RingBuffer<TsEvent>,
    stats: TsStats,
    journal: Option<JournalSink>,
}

/// How the journal sink responds to write failures.
///
/// All budgets are measured in *writes* (events for a per-record sink,
/// commits for a group sink), not wall-clock time: the TS is driven by
/// simulated request timestamps, so deterministic backoff has to count
/// what actually flows through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Immediate attempts per write (first try included). Minimum 1.
    pub attempts: u32,
    /// Consecutive failed writes after which the sink is declared down
    /// for good (the server goes read-only).
    pub max_failures: u32,
    /// After the `n`-th consecutive failed write, skip
    /// `backoff_base << n` writes before trying the sink again
    /// (exponential backoff in write counts).
    pub backoff_base: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 2,
            max_failures: 4,
            backoff_base: 1,
        }
    }
}

/// Observable state of the journal sink, driving the server's
/// degraded-mode transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalHealth {
    /// No journal attached (in-memory only; counts as healthy).
    Detached,
    /// The last write landed.
    Healthy,
    /// Recent writes failed; the sink is in retry backoff.
    Retrying {
        /// Consecutive writes that exhausted all attempts.
        failures: u32,
    },
    /// The retry budget is spent; the sink is abandoned until a new
    /// journal is attached.
    Down,
}

/// The one retry ladder both write cadences climb: consecutive failed
/// writes back off exponentially and, at the policy's budget, take the
/// sink down for good.
#[derive(Debug)]
struct RetryLadder {
    policy: RetryPolicy,
    /// Consecutive writes that exhausted every attempt.
    failures: u32,
    /// Writes still to skip before the next attempt.
    skip: u64,
    /// Permanently abandoned (failures reached `policy.max_failures`).
    down: bool,
}

impl RetryLadder {
    fn new(policy: RetryPolicy) -> Self {
        RetryLadder {
            policy,
            failures: 0,
            skip: 0,
            down: false,
        }
    }

    fn health(&self) -> JournalHealth {
        if self.down {
            JournalHealth::Down
        } else if self.failures > 0 {
            JournalHealth::Retrying {
                failures: self.failures,
            }
        } else {
            JournalHealth::Healthy
        }
    }

    /// Whether a backoff window swallows this write (spending one slot).
    fn backing_off(&mut self) -> bool {
        let skipping = self.skip > 0;
        self.skip = self.skip.saturating_sub(1);
        skipping
    }

    /// A write landed durably.
    fn landed(&mut self) {
        if self.failures > 0 {
            hka_obs::counter!("ts.journal_recoveries").incr();
        }
        self.failures = 0;
    }

    /// Runs `write` up to `policy.attempts` times (`ts.journal_errors`
    /// per failure, `ts.journal_retries` per retry) and escalates when
    /// every attempt failed. Returns whether one succeeded.
    fn attempt<T>(&mut self, mut write: impl FnMut() -> std::io::Result<T>) -> bool {
        let attempts = self.policy.attempts.max(1);
        for attempt in 0..attempts {
            if write().is_ok() {
                return true;
            }
            hka_obs::counter!("ts.journal_errors").incr();
            if attempt + 1 < attempts {
                hka_obs::counter!("ts.journal_retries").incr();
            }
        }
        self.escalate();
        false
    }

    /// One more fully-failed write: spend the retry budget or back off.
    fn escalate(&mut self) {
        self.failures += 1;
        if self.failures >= self.policy.max_failures {
            self.down = true;
        } else {
            self.skip = self.policy.backoff_base << self.failures;
        }
    }
}

/// The two write cadences.
enum Cadence {
    /// Every event is appended as it is pushed; sync-class events are
    /// flushed through the write buffer as part of the append.
    Record(BoxedJournal),
    /// Events queue in execution order and [`EventLog::flush_journal`]
    /// appends the batch with one flush + fsync. Chaining is byte-identical to
    /// appending the same events one at a time.
    Group {
        journal: DurableJournal,
        pending: Vec<(&'static str, TsEvent)>,
    },
}

/// A journal with its cadence and retry ladder (and a useful `Debug`
/// impl — a `Box<dyn Write>` has none).
struct JournalSink {
    cadence: Cadence,
    ladder: RetryLadder,
}

impl JournalSink {
    fn into_record(self) -> Option<BoxedJournal> {
        match self.cadence {
            Cadence::Record(journal) => Some(journal),
            Cadence::Group { .. } => None,
        }
    }

    fn position(&self) -> (u64, String) {
        match &self.cadence {
            Cadence::Record(j) => (j.next_seq(), j.head().to_string()),
            Cadence::Group { journal, .. } => (journal.next_seq(), journal.head().to_string()),
        }
    }

    /// Takes one pushed event: a per-record sink writes it now, a group
    /// sink queues it for the next commit (even while down, so the
    /// commit counts what it drops).
    fn push(&mut self, event: &TsEvent) {
        let journal = match &mut self.cadence {
            Cadence::Record(journal) => journal,
            Cadence::Group { pending, .. } => {
                pending.push((event.kind(), event.clone()));
                return;
            }
        };
        if self.ladder.down || self.ladder.backing_off() {
            hka_obs::counter!("ts.journal_skipped").incr();
            return;
        }
        if !self.ladder.attempt(|| journal.append(event.kind(), event)) {
            return;
        }
        if event.sync_flush() {
            if journal.flush().is_err() {
                // The record is in the chain — re-appending would
                // duplicate it — so a failed flush escalates without
                // retrying the write.
                hka_obs::counter!("ts.journal_errors").incr();
                self.ladder.escalate();
                return;
            }
            hka_obs::counter!("ts.journal_sync_flushes").incr();
        }
        self.ladder.landed();
    }

    /// Commits a group sink's pending batch: one `append_batch` per
    /// attempt, then one flush + fsync.
    ///
    /// * A failed `append_batch` leaves the journal's `(seq, prev)`
    ///   untouched, so the batch **stays pending** and a later commit
    ///   retries it byte-identically; a backoff window retains it too.
    /// * An fsync failure after a successful append escalates, but the
    ///   batch is not retried: its records are already in the chain.
    /// * A down sink drops the batch (`ts.journal_skipped`).
    fn commit(&mut self) {
        let Cadence::Group { journal, pending } = &mut self.cadence else {
            return;
        };
        // A commit may cover many requests, so its span is a root of
        // its own, minted on every call so that trace ids are the same
        // with collection on and off.
        let mut span = hka_obs::trace::root_detached("shard.group_commit");
        span.attr("batch", Json::from(pending.len() as u64));
        if pending.is_empty() {
            return;
        }
        if !self.ladder.down {
            if self.ladder.backing_off() {
                return;
            }
            if self.ladder.attempt(|| journal.append_batch(pending)) {
                let synced = journal.commit().is_ok();
                hka_obs::counter!("ts.journal_committed").add(pending.len() as u64);
                hka_obs::counter!("ts.journal_commits").incr();
                pending.clear();
                if synced {
                    self.ladder.landed();
                } else {
                    hka_obs::counter!("ts.journal_errors").incr();
                    self.ladder.escalate();
                }
                return;
            }
        }
        if self.ladder.down {
            hka_obs::counter!("ts.journal_skipped").add(pending.len() as u64);
            pending.clear();
        }
    }
}

impl std::fmt::Debug for JournalSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalSink")
            .field("next_seq", &self.position().0)
            .field("group", &matches!(self.cadence, Cadence::Group { .. }))
            .field("health", &self.ladder.health())
            .finish()
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

impl Clone for EventLog {
    /// Clones events and statistics. The journal sink — an exclusive
    /// handle on an output stream — stays with the original; the clone
    /// starts un-journaled.
    fn clone(&self) -> Self {
        EventLog {
            ring: self.ring.clone(),
            stats: self.stats,
            journal: None,
        }
    }
}

/// Aggregate counters derived from the log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TsStats {
    /// Requests forwarded with exact contexts.
    pub forwarded_exact: usize,
    /// Requests forwarded generalized, HK-anonymity preserved.
    pub forwarded_hk_ok: usize,
    /// Requests forwarded generalized but clamped (HK-anonymity lost).
    pub forwarded_hk_failed: usize,
    /// Requests suppressed in mix-zones.
    pub suppressed_mixzone: usize,
    /// Requests suppressed by the risk policy.
    pub suppressed_risk: usize,
    /// Requests suppressed by the fail-closed invariant (injected
    /// faults or degraded server modes).
    pub suppressed_degraded: usize,
    /// Server mode transitions.
    pub mode_changes: usize,
    /// Pseudonym changes (successful unlinks).
    pub pseudonym_changes: usize,
    /// At-risk notifications.
    pub at_risk: usize,
    /// Completed LBQID matches.
    pub lbqid_matches: usize,
    /// Sum of generalized areas (m²), for mean-QoS reporting.
    pub total_generalized_area: f64,
    /// Sum of generalized durations (s).
    pub total_generalized_duration: i64,
}

impl TsStats {
    /// All forwarded requests.
    pub fn forwarded(&self) -> usize {
        self.forwarded_exact + self.forwarded_hk_ok + self.forwarded_hk_failed
    }

    /// All generalized (pattern-matching) requests.
    pub fn generalized(&self) -> usize {
        self.forwarded_hk_ok + self.forwarded_hk_failed
    }

    /// Fraction of generalized requests that kept HK-anonymity.
    /// 0.0 when nothing was generalized: an empty log demonstrates no
    /// successes, and reporting code must not read it as a perfect run.
    pub fn hk_success_rate(&self) -> f64 {
        let g = self.generalized();
        if g == 0 {
            0.0
        } else {
            self.forwarded_hk_ok as f64 / g as f64
        }
    }

    /// Mean area of generalized contexts, m². 0.0 when nothing was
    /// generalized.
    pub fn mean_generalized_area(&self) -> f64 {
        let g = self.generalized();
        if g == 0 {
            0.0
        } else {
            self.total_generalized_area / g as f64
        }
    }

    /// Mean duration of generalized contexts, seconds. 0.0 when nothing
    /// was generalized.
    pub fn mean_generalized_duration(&self) -> f64 {
        let g = self.generalized();
        if g == 0 {
            0.0
        } else {
            self.total_generalized_duration as f64 / g as f64
        }
    }

    fn absorb(&mut self, e: &TsEvent) {
        match e {
            TsEvent::Forwarded {
                generalized,
                hk_ok,
                context,
                ..
            } => {
                if !generalized {
                    self.forwarded_exact += 1;
                } else {
                    if *hk_ok {
                        self.forwarded_hk_ok += 1;
                    } else {
                        self.forwarded_hk_failed += 1;
                    }
                    self.total_generalized_area += context.area();
                    self.total_generalized_duration += context.duration();
                }
            }
            TsEvent::Suppressed { reason, .. } => match reason {
                SuppressReason::MixZone => self.suppressed_mixzone += 1,
                SuppressReason::RiskPolicy => self.suppressed_risk += 1,
                SuppressReason::Degraded => self.suppressed_degraded += 1,
            },
            TsEvent::PseudonymChanged { .. } => self.pseudonym_changes += 1,
            TsEvent::AtRisk { .. } => self.at_risk += 1,
            TsEvent::LbqidMatched { .. } => self.lbqid_matches += 1,
            TsEvent::ModeChanged { .. } => self.mode_changes += 1,
            // SLO transitions and gateway snapshots are telemetry, not
            // TS decisions: keeping them out of TsStats leaves the
            // checkpoint stats section's format (and restore fidelity)
            // untouched.
            TsEvent::SloBreach { .. } | TsEvent::SloRecovered { .. } | TsEvent::GwStats { .. } => {}
        }
    }
}

impl EventLog {
    /// Default in-memory capacity: enough for any single experiment day
    /// while bounding a long-lived server's footprint.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// An empty log with the default capacity.
    pub fn new() -> Self {
        EventLog::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty log retaining at most `capacity` events in memory.
    /// Statistics stay exact past the capacity; only the event bodies of
    /// the oldest entries are evicted (to the journal, if attached).
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            ring: RingBuffer::new(capacity),
            stats: TsStats::default(),
            journal: None,
        }
    }

    /// Routes every subsequent event into `journal` (before it enters
    /// the ring), one append per event, giving a complete hash-chained
    /// record on disk even after in-memory eviction. Returns the previous
    /// per-record journal, if any. Retry bookkeeping starts fresh
    /// (default [`RetryPolicy`]).
    pub fn attach_journal(&mut self, journal: BoxedJournal) -> Option<BoxedJournal> {
        self.attach_journal_with(journal, RetryPolicy::default())
    }

    /// Like [`EventLog::attach_journal`] with an explicit retry policy.
    /// An outgoing group sink gets a last commit first.
    pub fn attach_journal_with(
        &mut self,
        journal: BoxedJournal,
        policy: RetryPolicy,
    ) -> Option<BoxedJournal> {
        if let Some(old) = &mut self.journal {
            old.commit();
        }
        let sink = JournalSink {
            cadence: Cadence::Record(journal),
            ladder: RetryLadder::new(policy),
        };
        self.journal
            .replace(sink)
            .and_then(JournalSink::into_record)
    }

    /// Routes every subsequent event into `journal` by **group commit**
    /// (default [`RetryPolicy`], counted in commits): events queue in
    /// execution order and [`EventLog::flush_journal`] appends the batch
    /// with a single flush + fsync. The outgoing group sink gets a last
    /// commit; whatever it cannot take carries over to `journal`.
    pub fn attach_group_journal(&mut self, journal: DurableJournal) {
        let pending = match self.journal.take() {
            Some(mut old) => {
                old.commit();
                match old.cadence {
                    Cadence::Group { pending, .. } => pending,
                    Cadence::Record(_) => Vec::new(),
                }
            }
            None => Vec::new(),
        };
        self.journal = Some(JournalSink {
            cadence: Cadence::Group { journal, pending },
            ladder: RetryLadder::new(RetryPolicy::default()),
        });
    }

    /// Detaches the sink. A per-record journal is returned; a group
    /// journal gets a last commit and is closed.
    pub fn take_journal(&mut self) -> Option<BoxedJournal> {
        let mut sink = self.journal.take()?;
        sink.commit();
        sink.into_record()
    }

    /// Current health of the journal sink.
    pub fn journal_health(&self) -> JournalHealth {
        match &self.journal {
            None => JournalHealth::Detached,
            Some(sink) => sink.ladder.health(),
        }
    }

    /// Pushes what the sink holds toward storage: a per-record journal
    /// flushes its write buffer; a group journal commits its pending
    /// batch (append + fsync), whose failures surface through
    /// [`EventLog::journal_health`] rather than this result.
    pub fn flush_journal(&mut self) -> std::io::Result<()> {
        match &mut self.journal {
            Some(JournalSink {
                cadence: Cadence::Record(journal),
                ..
            }) => journal.flush(),
            Some(sink) => {
                sink.commit();
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Whether the attached journal commits in groups
    /// ([`EventLog::attach_group_journal`]).
    pub fn group_commit(&self) -> bool {
        matches!(
            &self.journal,
            Some(JournalSink {
                cadence: Cadence::Group { .. },
                ..
            })
        )
    }

    /// Events a group journal holds that no commit has landed yet (0 for
    /// a per-record journal or none).
    pub fn uncommitted(&self) -> usize {
        match &self.journal {
            Some(JournalSink {
                cadence: Cadence::Group { pending, .. },
                ..
            }) => pending.len(),
            _ => 0,
        }
    }

    /// Appends an event: folds it into the running statistics, hands it
    /// to the journal (if attached), then stores it in the ring.
    ///
    /// Journal write failures never panic the server. Each write gets up
    /// to [`RetryPolicy::attempts`] immediate attempts
    /// (`ts.journal_errors` / `ts.journal_retries` counters); after a
    /// fully-failed write the sink backs off exponentially in write
    /// counts (`ts.journal_skipped` counts the events a per-record sink
    /// skips), and after [`RetryPolicy::max_failures`] consecutive failed
    /// writes it is declared [`JournalHealth::Down`] until a new journal
    /// is attached. The in-memory ring and statistics always stay
    /// current.
    ///
    /// A per-record sink flushes sync-class events
    /// ([`TsEvent::sync_flush`]) through the write buffer as part of the
    /// append, so their records are visible to a concurrent audit tail
    /// before the effects they describe leave the server. A group sink
    /// only queues: its health moves at commits.
    pub fn push(&mut self, e: TsEvent) {
        self.stats.absorb(&e);
        if let Some(sink) = &mut self.journal {
            sink.push(&e);
        }
        self.ring.push(e);
    }

    /// Moves `mode` to where the journal's health puts it (detached or
    /// healthy: normal; retrying: degraded; down: read-only), emitting
    /// the transition — counter `ts.mode_changes`, gauge `ts.mode`, a
    /// `ts.mode_changed` event stamped `at` — when it moves.
    pub fn align_mode(&mut self, mode: &mut ServerMode, at: TimeSec) {
        let target = match self.journal_health() {
            JournalHealth::Detached | JournalHealth::Healthy => ServerMode::Normal,
            JournalHealth::Retrying { .. } => ServerMode::Degraded,
            JournalHealth::Down => ServerMode::ReadOnly,
        };
        if target == *mode {
            return;
        }
        let from = std::mem::replace(mode, target);
        hka_obs::counter!("ts.mode_changes").incr();
        hka_obs::gauge!("ts.mode").set(match target {
            ServerMode::Normal => 0,
            ServerMode::Degraded => 1,
            ServerMode::ReadOnly => 2,
        });
        // No re-alignment: this event's own journal write (which may
        // itself fail) is observed by whichever alignment comes next.
        self.push(TsEvent::ModeChanged {
            at,
            from,
            to: target,
        });
    }

    /// The retained events, oldest first. When more than the capacity
    /// have been pushed this is the most recent tail (see
    /// [`EventLog::dropped`]); `stats()` still covers everything.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &TsEvent> + Clone {
        self.ring.iter()
    }

    /// Events evicted from memory so far.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The exact aggregate counters over every event ever pushed.
    pub fn stats(&self) -> TsStats {
        self.stats
    }

    /// Replaces the aggregate counters wholesale. Checkpoint restore
    /// only: the counters come from the snapshot's `stats` section; the
    /// in-memory ring is deliberately not restored (it is a debugging
    /// tail, not durable state).
    pub fn restore_stats(&mut self, stats: TsStats) {
        self.stats = stats;
    }

    /// The attached sink's chain position: `(next_seq, head)` — how many
    /// records the journal holds and the hash of the last one. `None`
    /// when no journal is attached. For a group journal this is the
    /// position of the last commit.
    pub fn journal_position(&self) -> Option<(u64, String)> {
        self.journal.as_ref().map(JournalSink::position)
    }

    /// Appends a record directly to the attached journal and makes it
    /// durable (a per-record journal flushes, a group journal commits),
    /// bypassing the ring, the statistics, and the retry bookkeeping.
    ///
    /// Checkpoint anchors use this: they are chain metadata, not server
    /// events, so a failed append is surfaced to the caller (which
    /// aborts the checkpoint and leaves the journal exactly as it was)
    /// instead of escalating the sink's health ladder. Errors when no
    /// journal is attached, the sink is already [`JournalHealth::Down`],
    /// or a group journal holds uncommitted events (the record would
    /// land ahead of them).
    pub fn append_direct(&mut self, kind: &str, payload: Json) -> std::io::Result<u64> {
        let refuse =
            |msg: &str| std::io::Error::new(std::io::ErrorKind::NotConnected, msg.to_string());
        let Some(sink) = &mut self.journal else {
            return Err(refuse("no journal attached"));
        };
        if sink.ladder.down {
            return Err(refuse("journal sink is down"));
        }
        match &mut sink.cadence {
            Cadence::Record(journal) => {
                let seq = journal.append(kind, payload)?;
                journal.flush()?;
                Ok(seq)
            }
            Cadence::Group { pending, .. } if !pending.is_empty() => {
                Err(refuse("uncommitted events would follow the record"))
            }
            Cadence::Group { journal, .. } => {
                let seq = journal.append(kind, payload)?;
                journal.commit()?;
                Ok(seq)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hka_geo::{Point, Rect, StPoint, TimeInterval};

    fn ctx(side: f64, dur: i64) -> StBox {
        StBox::new(
            Rect::square(Point::new(0.0, 0.0), side),
            TimeInterval::new(TimeSec(0), TimeSec(dur)),
        )
    }

    /// The tree construction the encoder replaced, kept as the reference
    /// the byte-identity tests compare it against.
    fn oracle_payload(e: &TsEvent) -> Json {
        match e {
            TsEvent::Forwarded {
                user,
                at,
                context,
                generalized,
                hk_ok,
                service,
                k_req,
                k_got,
                lbqid,
            } => Json::obj([
                ("user", Json::from(user.0)),
                ("at", Json::Int(at.0)),
                ("x_min", Json::Num(context.rect.min().x)),
                ("y_min", Json::Num(context.rect.min().y)),
                ("x_max", Json::Num(context.rect.max().x)),
                ("y_max", Json::Num(context.rect.max().y)),
                ("t_start", Json::Int(context.span.start().0)),
                ("t_end", Json::Int(context.span.end().0)),
                ("generalized", Json::Bool(*generalized)),
                ("hk_ok", Json::Bool(*hk_ok)),
                ("service", Json::from(u64::from(service.0))),
                ("k_req", Json::from(*k_req as u64)),
                ("k_got", Json::from(*k_got as u64)),
                (
                    "lbqid",
                    match lbqid {
                        Some(name) => Json::from(name.as_str()),
                        None => Json::Null,
                    },
                ),
            ]),
            TsEvent::Suppressed {
                user,
                at,
                reason,
                service,
            } => Json::obj([
                ("user", Json::from(user.0)),
                ("at", Json::Int(at.0)),
                (
                    "reason",
                    Json::from(match reason {
                        SuppressReason::MixZone => "mix_zone",
                        SuppressReason::RiskPolicy => "risk_policy",
                        SuppressReason::Degraded => "degraded",
                    }),
                ),
                ("service", Json::from(u64::from(service.0))),
            ]),
            TsEvent::PseudonymChanged { user, old, new, at } => Json::obj([
                ("user", Json::from(user.0)),
                ("old", Json::from(old.0)),
                ("new", Json::from(new.0)),
                ("at", Json::Int(at.0)),
            ]),
            TsEvent::AtRisk { user, at, lbqid } => Json::obj([
                ("user", Json::from(user.0)),
                ("at", Json::Int(at.0)),
                ("lbqid", Json::from(lbqid.as_str())),
            ]),
            TsEvent::LbqidMatched { user, at, lbqid } => Json::obj([
                ("user", Json::from(user.0)),
                ("at", Json::Int(at.0)),
                ("lbqid", Json::from(lbqid.as_str())),
            ]),
            TsEvent::ModeChanged { at, from, to } => Json::obj([
                ("at", Json::Int(at.0)),
                ("from", Json::from(from.as_str())),
                ("to", Json::from(to.as_str())),
            ]),
            TsEvent::SloBreach {
                at,
                slo,
                value,
                threshold,
                worst_trace,
                worst_us,
            } => Json::obj([
                ("at", Json::Int(at.0)),
                ("slo", Json::from(slo.as_str())),
                ("value", Json::Num(*value)),
                ("threshold", Json::Num(*threshold)),
                ("worst_trace", Json::from(*worst_trace)),
                ("worst_us", Json::from(*worst_us)),
            ]),
            TsEvent::SloRecovered {
                at,
                slo,
                value,
                threshold,
            } => Json::obj([
                ("at", Json::Int(at.0)),
                ("slo", Json::from(slo.as_str())),
                ("value", Json::Num(*value)),
                ("threshold", Json::Num(*threshold)),
            ]),
            TsEvent::GwStats {
                at,
                conns,
                drains,
                queue_depth,
            } => Json::obj([
                ("at", Json::Int(at.0)),
                ("conns", Json::from(*conns)),
                ("drains", Json::from(*drains)),
                ("queue_depth", Json::from(*queue_depth)),
            ]),
        }
    }

    /// The payload as the journal will hold it: the encoder's bytes,
    /// parsed back.
    fn payload(e: &TsEvent) -> Json {
        let mut out = String::new();
        e.write_canonical(&mut out);
        hka_obs::json::parse(&out).expect("the encoder writes JSON")
    }

    /// Every variant, with the strings and floats most likely to trip an
    /// encoder: quotes, backslashes, control bytes, non-ASCII; -0.0,
    /// integral, 1e15, 1e-7, subnormal and 17-digit coordinates.
    fn every_variant() -> Vec<TsEvent> {
        let hostile = [
            "commute",
            "",
            "quo\"te \\ back",
            "nl\n cr\r tab\t \u{0}\u{1f}\u{7f}",
            "caf\u{e9} \u{4f4d}\u{7f6e} \u{1f512}",
        ];
        let floats = [
            (-0.0, 0.0),
            (3.0, 1e15),
            (1e-7, 5e-324),
            (0.1 + 0.2, 12_345_678.901_234_567),
            (-1234.5, 999_999_999_999_999.0),
        ];
        let mut events = Vec::new();
        for (i, (name, (lo, hi))) in hostile.into_iter().zip(floats).enumerate() {
            let at = TimeSec(i as i64 - 2);
            let user = UserId(u64::MAX - i as u64);
            events.push(TsEvent::Forwarded {
                user,
                at,
                context: StBox::new(
                    Rect::new(Point::new(lo, lo), Point::new(hi, hi)),
                    TimeInterval::new(TimeSec(-5), TimeSec(1 << 40)),
                ),
                generalized: i % 2 == 0,
                hk_ok: i % 3 == 0,
                service: ServiceId(u32::MAX),
                k_req: i,
                k_got: usize::MAX,
                lbqid: (i > 0).then(|| name.to_string()),
            });
            events.push(TsEvent::AtRisk {
                user,
                at,
                lbqid: name.to_string(),
            });
            events.push(TsEvent::LbqidMatched {
                user,
                at,
                lbqid: name.to_string(),
            });
            events.push(TsEvent::SloBreach {
                at,
                slo: name.to_string(),
                value: lo,
                threshold: hi,
                worst_trace: u64::MAX,
                worst_us: i as u64,
            });
            events.push(TsEvent::SloRecovered {
                at,
                slo: name.to_string(),
                value: hi,
                threshold: lo,
            });
        }
        for reason in [
            SuppressReason::MixZone,
            SuppressReason::RiskPolicy,
            SuppressReason::Degraded,
        ] {
            events.push(TsEvent::Suppressed {
                user: UserId(7),
                at: TimeSec(3),
                reason,
                service: ServiceId(2),
            });
        }
        events.push(TsEvent::PseudonymChanged {
            user: UserId(1),
            old: Pseudonym(u64::MAX),
            new: Pseudonym(0),
            at: TimeSec(4),
        });
        for (from, to) in [
            (ServerMode::Normal, ServerMode::Degraded),
            (ServerMode::Degraded, ServerMode::ReadOnly),
            (ServerMode::ReadOnly, ServerMode::Normal),
        ] {
            events.push(TsEvent::ModeChanged {
                at: TimeSec(5),
                from,
                to,
            });
        }
        events.push(TsEvent::GwStats {
            at: TimeSec(6),
            conns: 3,
            drains: u64::MAX,
            queue_depth: 0,
        });
        events
    }

    #[test]
    fn every_variant_encodes_exactly_as_the_tree_oracle() {
        let events = every_variant();
        let mut direct = hka_obs::Journal::new(Vec::new());
        let mut tree = hka_obs::Journal::new(Vec::new());
        for e in &events {
            let mut out = String::new();
            e.write_canonical(&mut out);
            assert_eq!(out, oracle_payload(e).to_string(), "{e:?}");
            direct.append(e.kind(), e).unwrap();
            tree.append(e.kind(), oracle_payload(e)).unwrap();
        }
        let direct = direct.into_inner();
        assert_eq!(direct, tree.into_inner());

        // Any batching of the same sequence, straight from the events.
        let pairs: Vec<(&'static str, TsEvent)> =
            events.iter().map(|e| (e.kind(), e.clone())).collect();
        for size in [1, 2, 7, pairs.len()] {
            let mut batched = hka_obs::Journal::new(Vec::new());
            for chunk in pairs.chunks(size) {
                batched.append_batch(chunk).unwrap();
            }
            assert_eq!(batched.into_inner(), direct, "batches of {size}");
        }

        // What a reader gets back is the record that was written.
        let report = hka_obs::verify_chain(&direct[..]).expect("chain verifies");
        for (record, e) in report.records.iter().zip(&events) {
            assert_eq!(record.kind, e.kind());
            assert_eq!(record.payload.to_string(), oracle_payload(e).to_string());
        }
    }

    #[test]
    fn failed_write_then_retry_journals_the_same_bytes() {
        use std::sync::{Arc, Mutex};

        /// Fails every `period`-th write (writing nothing), records the rest.
        struct Flaky {
            bytes: Arc<Mutex<Vec<u8>>>,
            period: usize,
            writes: usize,
        }
        impl std::io::Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                if self.period > 0 && self.writes.is_multiple_of(self.period) {
                    return Err(std::io::Error::other("transient"));
                }
                self.bytes
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let run = |period: usize| {
            let bytes = Arc::new(Mutex::new(Vec::new()));
            let mut log = EventLog::new();
            log.attach_journal(boxed(Flaky {
                bytes: bytes.clone(),
                period,
                writes: 0,
            }));
            for e in every_variant() {
                log.push(e);
            }
            assert_eq!(log.journal_health(), JournalHealth::Healthy);
            let out = bytes.lock().unwrap_or_else(|e| e.into_inner()).clone();
            out
        };
        // Every third write fails once; the in-event retry lands it.
        assert_eq!(run(3), run(0));
    }

    fn forwarded(n: i64) -> TsEvent {
        TsEvent::Forwarded {
            user: UserId(1),
            at: TimeSec(n),
            context: StBox::point(StPoint::xyt(0.0, 0.0, TimeSec(n))),
            generalized: false,
            hk_ok: true,
            service: ServiceId(1),
            k_req: 0,
            k_got: 0,
            lbqid: None,
        }
    }

    #[test]
    fn stats_aggregate_correctly() {
        let mut log = EventLog::new();
        log.push(TsEvent::Forwarded {
            user: UserId(1),
            at: TimeSec(0),
            context: StBox::point(StPoint::xyt(0.0, 0.0, TimeSec(0))),
            generalized: false,
            hk_ok: true,
            service: ServiceId(1),
            k_req: 0,
            k_got: 0,
            lbqid: None,
        });
        log.push(TsEvent::Forwarded {
            user: UserId(1),
            at: TimeSec(1),
            context: ctx(10.0, 60),
            generalized: true,
            hk_ok: true,
            service: ServiceId(1),
            k_req: 5,
            k_got: 5,
            lbqid: Some("commute".into()),
        });
        log.push(TsEvent::Forwarded {
            user: UserId(1),
            at: TimeSec(2),
            context: ctx(20.0, 120),
            generalized: true,
            hk_ok: false,
            service: ServiceId(1),
            k_req: 5,
            k_got: 3,
            lbqid: Some("commute".into()),
        });
        log.push(TsEvent::Suppressed {
            user: UserId(2),
            at: TimeSec(3),
            reason: SuppressReason::MixZone,
            service: ServiceId(1),
        });
        log.push(TsEvent::PseudonymChanged {
            user: UserId(2),
            old: Pseudonym(1),
            new: Pseudonym(2),
            at: TimeSec(4),
        });
        log.push(TsEvent::AtRisk {
            user: UserId(3),
            at: TimeSec(5),
            lbqid: "commute".into(),
        });
        let s = log.stats();
        assert_eq!(s.forwarded(), 3);
        assert_eq!(s.forwarded_exact, 1);
        assert_eq!(s.generalized(), 2);
        assert_eq!(s.hk_success_rate(), 0.5);
        assert_eq!(s.mean_generalized_area(), (100.0 + 400.0) / 2.0);
        assert_eq!(s.mean_generalized_duration(), 90.0);
        assert_eq!(s.suppressed_mixzone, 1);
        assert_eq!(s.pseudonym_changes, 1);
        assert_eq!(s.at_risk, 1);
        assert_eq!(log.events().len(), 6);
    }

    #[test]
    fn empty_log_yields_zero_rates() {
        let s = EventLog::new().stats();
        assert_eq!(s.forwarded(), 0);
        // An empty log proves nothing: every ratio is 0, not a vacuous
        // 100% success.
        assert_eq!(s.hk_success_rate(), 0.0);
        assert_eq!(s.mean_generalized_area(), 0.0);
        assert_eq!(s.mean_generalized_duration(), 0.0);
    }

    #[test]
    fn ratio_methods_never_divide_by_zero() {
        // Events that forward nothing generalized must keep every ratio
        // finite and zero.
        let mut log = EventLog::new();
        log.push(forwarded(0));
        log.push(TsEvent::Suppressed {
            user: UserId(9),
            at: TimeSec(1),
            reason: SuppressReason::RiskPolicy,
            service: ServiceId(1),
        });
        let s = log.stats();
        assert_eq!(s.generalized(), 0);
        assert!(s.hk_success_rate().is_finite());
        assert_eq!(s.hk_success_rate(), 0.0);
        assert_eq!(s.mean_generalized_area(), 0.0);
        assert_eq!(s.mean_generalized_duration(), 0.0);
    }

    #[test]
    fn ring_eviction_keeps_stats_exact() {
        let mut log = EventLog::with_capacity(4);
        for i in 0..10 {
            log.push(forwarded(i));
        }
        assert_eq!(log.events().len(), 4);
        assert_eq!(log.dropped(), 6);
        // Stats cover all ten events, not just the retained tail.
        assert_eq!(log.stats().forwarded_exact, 10);
        // The tail is the most recent four, oldest first.
        let ats: Vec<i64> = log
            .events()
            .map(|e| match e {
                TsEvent::Forwarded { at, .. } => at.0,
                _ => unreachable!("only Forwarded events were pushed"),
            })
            .collect();
        assert_eq!(ats, vec![6, 7, 8, 9]);
    }

    #[test]
    fn journal_sink_receives_all_events_including_evicted() {
        use std::sync::{Arc, Mutex};

        /// A Write that appends into a shared buffer we can inspect.
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                // Recover the guard even if another writer panicked
                // mid-append: a poisoned buffer must not cascade into
                // every later flush.
                self.0
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buffer = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut log = EventLog::with_capacity(2);
        log.attach_journal(hka_obs::Journal::new(
            Box::new(buffer.clone()) as Box<dyn std::io::Write + Send + Sync>
        ));
        for i in 0..5 {
            log.push(forwarded(i));
        }
        log.flush_journal().unwrap();

        let bytes = buffer.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let report = hka_obs::verify_chain(&bytes[..]).expect("chain verifies");
        // All five events journaled even though only two stayed in memory.
        assert_eq!(report.records.len(), 5);
        assert_eq!(log.events().len(), 2);
        assert!(report.records.iter().all(|r| r.kind == "ts.forwarded"));
    }

    #[test]
    fn clone_drops_journal_but_keeps_stats() {
        let mut log = EventLog::new();
        log.attach_journal(hka_obs::Journal::new(
            Box::new(std::io::sink()) as Box<dyn std::io::Write + Send + Sync>
        ));
        log.push(forwarded(0));
        let copy = log.clone();
        assert_eq!(copy.stats(), log.stats());
        assert_eq!(copy.events().len(), 1);
        assert!(log.take_journal().is_some());
    }

    /// A sink whose first `fail` writes error, then all succeed.
    struct FailN {
        left: u32,
    }
    impl std::io::Write for FailN {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left > 0 {
                self.left -= 1;
                Err(std::io::Error::other("transient"))
            } else {
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn boxed(w: impl std::io::Write + Send + Sync + 'static) -> hka_obs::BoxedJournal {
        hka_obs::Journal::new(Box::new(w) as Box<dyn std::io::Write + Send + Sync>)
    }

    #[test]
    fn journal_sink_retries_then_goes_down() {
        let mut log = EventLog::new();
        log.attach_journal_with(
            boxed(FailN { left: u32::MAX }),
            RetryPolicy {
                attempts: 2,
                max_failures: 3,
                backoff_base: 1,
            },
        );
        assert_eq!(log.journal_health(), JournalHealth::Healthy);
        log.push(forwarded(0));
        assert_eq!(
            log.journal_health(),
            JournalHealth::Retrying { failures: 1 }
        );
        // Drive through every backoff window until the budget is spent.
        for i in 1..64 {
            log.push(forwarded(i));
        }
        assert_eq!(log.journal_health(), JournalHealth::Down);
        // The ring and statistics never lost an event.
        assert_eq!(log.stats().forwarded_exact, 64);
        // A fresh sink restores health.
        log.attach_journal(boxed(std::io::sink()));
        assert_eq!(log.journal_health(), JournalHealth::Healthy);
    }

    #[test]
    fn in_event_retry_masks_a_single_write_failure() {
        let mut log = EventLog::new();
        // One failed write; the second attempt for the same event lands.
        log.attach_journal_with(boxed(FailN { left: 1 }), RetryPolicy::default());
        log.push(forwarded(0));
        assert_eq!(log.journal_health(), JournalHealth::Healthy);
    }

    #[test]
    fn journal_sink_recovers_after_transient_outage() {
        let mut log = EventLog::new();
        // Both attempts of the first event fail; later events succeed.
        log.attach_journal_with(
            boxed(FailN { left: 2 }),
            RetryPolicy {
                attempts: 2,
                max_failures: 4,
                backoff_base: 1,
            },
        );
        log.push(forwarded(0));
        assert_eq!(
            log.journal_health(),
            JournalHealth::Retrying { failures: 1 }
        );
        // Two events fall into the backoff window (skip = 1 << 1)…
        log.push(forwarded(1));
        log.push(forwarded(2));
        assert_eq!(
            log.journal_health(),
            JournalHealth::Retrying { failures: 1 }
        );
        // …then the next write attempt succeeds and health recovers.
        log.push(forwarded(3));
        assert_eq!(log.journal_health(), JournalHealth::Healthy);
        assert_eq!(log.stats().forwarded_exact, 4);
    }

    #[test]
    fn detached_log_reports_detached_health() {
        assert_eq!(EventLog::new().journal_health(), JournalHealth::Detached);
    }

    #[test]
    fn sync_class_events_flush_through_the_write_buffer() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut log = EventLog::new();
        log.attach_journal(boxed(std::io::BufWriter::with_capacity(
            1 << 20,
            shared.clone(),
        )));

        // Async-class: sits in the buffer, invisible downstream.
        log.push(TsEvent::Suppressed {
            user: UserId(1),
            at: TimeSec(0),
            reason: SuppressReason::MixZone,
            service: ServiceId(1),
        });
        assert!(
            shared
                .0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty(),
            "async-class events may buffer"
        );

        // Sync-class: the flush pushes *everything buffered so far*
        // through — the tail sees both records, in order.
        log.push(forwarded(1));
        let bytes = shared.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let report = hka_obs::verify_chain(&bytes[..]).expect("chain verifies");
        let kinds: Vec<&str> = report.records.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(kinds, vec!["ts.suppressed", "ts.forwarded"]);
    }

    #[test]
    fn sync_flush_failure_escalates_without_reappending() {
        use std::sync::{Arc, Mutex};

        /// Writes land; every flush fails.
        #[derive(Clone)]
        struct FlushFail(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for FlushFail {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("injected flush failure"))
            }
        }

        let shared = FlushFail(Arc::new(Mutex::new(Vec::new())));
        let mut log = EventLog::new();
        log.attach_journal(boxed(shared.clone()));
        log.push(forwarded(0)); // sync-class
        assert_eq!(
            log.journal_health(),
            JournalHealth::Retrying { failures: 1 }
        );
        // The record chained exactly once: a failed flush must not be
        // answered with a duplicate append.
        let bytes = shared.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let report = hka_obs::verify_chain(&bytes[..]).expect("chain intact");
        assert_eq!(report.records.len(), 1);
    }

    /// A durable sink whose writes fail while `fail` is set.
    #[derive(Clone, Default)]
    struct Switch {
        fail: std::sync::Arc<std::sync::atomic::AtomicBool>,
        bytes: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
    }
    impl std::io::Write for Switch {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(std::io::Error::other("injected write failure"));
            }
            let mut bytes = self.bytes.lock().unwrap_or_else(|e| e.into_inner());
            bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    impl hka_obs::DurableSink for Switch {}

    fn group(sink: &Switch) -> DurableJournal {
        hka_obs::Journal::new(Box::new(sink.clone()) as Box<dyn hka_obs::DurableSink>)
    }

    #[test]
    fn group_commit_retains_a_failed_batch_and_retries_it_byte_identically() {
        let sink = Switch::default();
        let mut log = EventLog::new();
        log.attach_group_journal(group(&sink));
        log.push(forwarded(0));
        log.push(forwarded(1));
        assert_eq!(log.uncommitted(), 2);
        assert_eq!(
            log.journal_health(),
            JournalHealth::Healthy,
            "a push only queues"
        );

        sink.fail.store(true, std::sync::atomic::Ordering::Relaxed);
        log.flush_journal().unwrap();
        assert_eq!(
            log.journal_health(),
            JournalHealth::Retrying { failures: 1 }
        );
        assert_eq!(log.uncommitted(), 2, "the failed batch stays pending");
        sink.fail.store(false, std::sync::atomic::Ordering::Relaxed);
        log.push(forwarded(2));
        // Backoff (`backoff_base << 1` commits) retains the batch too.
        for _ in 0..2 {
            log.flush_journal().unwrap();
            assert_eq!(log.uncommitted(), 3);
        }
        log.flush_journal().unwrap();
        assert_eq!(log.uncommitted(), 0);
        assert_eq!(log.journal_health(), JournalHealth::Healthy);

        // The same bytes a per-record journal writes for the three events.
        let mut want = hka_obs::Journal::new(Vec::new());
        for i in 0..3 {
            let e = forwarded(i);
            want.append(e.kind(), &e).unwrap();
        }
        let got = sink.bytes.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert_eq!(got, want.into_inner());
    }

    #[test]
    fn a_down_group_sink_drops_its_batches() {
        let sink = Switch::default();
        sink.fail.store(true, std::sync::atomic::Ordering::Relaxed);
        let mut log = EventLog::new();
        log.attach_group_journal(group(&sink));
        for i in 0..64 {
            log.push(forwarded(i));
            log.flush_journal().unwrap();
        }
        assert_eq!(log.journal_health(), JournalHealth::Down);
        assert_eq!(
            log.uncommitted(),
            0,
            "a down sink drops what it cannot commit"
        );
        assert!(log.append_direct("checkpoint", Json::Null).is_err());
        // The ring and statistics never lost an event.
        assert_eq!(log.stats().forwarded_exact, 64);
        // A fresh journal restores health.
        log.attach_group_journal(group(&Switch::default()));
        assert_eq!(log.journal_health(), JournalHealth::Healthy);
    }

    #[test]
    fn a_group_sink_commits_before_a_per_record_journal_replaces_it() {
        let sink = Switch::default();
        let mut log = EventLog::new();
        log.attach_group_journal(group(&sink));
        log.push(forwarded(0));
        log.attach_journal(hka_obs::Journal::new(
            Box::new(std::io::sink()) as Box<dyn std::io::Write + Send + Sync>
        ));
        let bytes = sink.bytes.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(bytes.iter().filter(|b| **b == b'\n').count(), 1);
        assert!(!log.group_commit());
    }

    #[test]
    fn a_direct_append_waits_for_uncommitted_events() {
        let sink = Switch::default();
        let mut log = EventLog::new();
        log.attach_group_journal(group(&sink));
        log.push(forwarded(0));
        assert!(log.append_direct("checkpoint", Json::Null).is_err());
        log.flush_journal().unwrap();
        assert_eq!(log.append_direct("checkpoint", Json::Null).unwrap(), 1);
        assert_eq!(log.journal_position().map(|(seq, _)| seq), Some(2));
    }

    #[test]
    fn event_payloads_name_their_kind() {
        let events = [
            forwarded(0),
            TsEvent::Suppressed {
                user: UserId(1),
                at: TimeSec(0),
                reason: SuppressReason::MixZone,
                service: ServiceId(1),
            },
            TsEvent::PseudonymChanged {
                user: UserId(1),
                old: Pseudonym(1),
                new: Pseudonym(2),
                at: TimeSec(0),
            },
            TsEvent::AtRisk {
                user: UserId(1),
                at: TimeSec(0),
                lbqid: "l".into(),
            },
            TsEvent::LbqidMatched {
                user: UserId(1),
                at: TimeSec(0),
                lbqid: "l".into(),
            },
        ];
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "ts.forwarded",
                "ts.suppressed",
                "ts.pseudonym_changed",
                "ts.at_risk",
                "ts.lbqid_matched"
            ]
        );
        for e in &events {
            // Every payload is an object naming the user.
            assert!(payload(e).get("user").is_some());
        }
        // Forwarded payloads carry the audit fields, with a null lbqid
        // for non-pattern forwards.
        let fwd = payload(&forwarded(0));
        assert_eq!(fwd.get("service").and_then(|j| j.as_int()), Some(1));
        assert_eq!(fwd.get("k_req").and_then(|j| j.as_int()), Some(0));
        assert_eq!(fwd.get("k_got").and_then(|j| j.as_int()), Some(0));
        assert_eq!(fwd.get("lbqid"), Some(&Json::Null));
        assert_eq!(
            payload(&events[1]).get("service").and_then(|j| j.as_int()),
            Some(1)
        );
        // ModeChanged is server-scoped (no user); it names both modes.
        let mc = TsEvent::ModeChanged {
            at: TimeSec(9),
            from: ServerMode::Normal,
            to: ServerMode::Degraded,
        };
        assert_eq!(mc.kind(), "ts.mode_changed");
        assert_eq!(
            payload(&mc).get("from").and_then(|j| j.as_str()),
            Some("normal")
        );
        assert_eq!(
            payload(&mc).get("to").and_then(|j| j.as_str()),
            Some("degraded")
        );
    }
}
