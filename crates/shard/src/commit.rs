//! Group-commit journal writer.
//!
//! The sharded server funnels every shard's events into **one** hash
//! chain: the coordinator queues them in execution (submission) order
//! in a pending batch, and a commit appends the whole batch through
//! [`hka_obs::Journal::append_batch`] followed by a single
//! flush + fsync ([`hka_obs::DurableJournal::commit`]). Chaining is
//! byte-identical to appending the same events one at a time — the
//! property `verify_chain` and `hka-audit` rely on.
//!
//! Failure semantics adapt the sequential per-event
//! [`RetryPolicy`](hka_core::RetryPolicy) to batches:
//!
//! * a failed `append_batch` leaves the journal's `(seq, prev)` state
//!   untouched, so the batch **stays pending** and the next commit
//!   retries it byte-identically (group commit improves on the
//!   sequential sink here, which drops events during backoff);
//! * each fully-failed commit escalates `failures`; between retries the
//!   sink backs off for `backoff_base << failures` commits (the batch
//!   keeps accumulating, nothing is lost);
//! * at `max_failures` consecutive failed commits the sink is declared
//!   [`JournalHealth::Down`] and pending events are dropped (counted in
//!   `ts.journal_skipped`) until a fresh journal is attached — the
//!   server goes read-only, exactly like the sequential ladder;
//! * an fsync failure after a successful append counts as an error and
//!   escalates, but the batch is *not* retried (the records are already
//!   in the chain; re-appending would duplicate them).

use hka_core::{JournalHealth, RetryPolicy, TsEvent};
use hka_obs::{DurableJournal, Json};

/// The coordinator's journal sink: one durable hash-chained journal fed
/// by batched appends, with retry/backoff/health bookkeeping.
pub(crate) struct GroupCommit {
    journal: DurableJournal,
    policy: RetryPolicy,
    /// Consecutive commits that exhausted every attempt.
    failures: u32,
    /// Commits to skip (batch retained) before the next attempt.
    skip: u64,
    /// Permanently abandoned until a fresh journal is attached.
    down: bool,
}

impl GroupCommit {
    pub fn new(journal: DurableJournal, policy: RetryPolicy) -> Self {
        GroupCommit {
            journal,
            policy,
            failures: 0,
            skip: 0,
            down: false,
        }
    }

    pub fn health(&self) -> JournalHealth {
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

    /// Gives the journal back (for inspection after a run). Whatever is
    /// pending at the caller stays pending.
    pub fn into_journal(self) -> DurableJournal {
        self.journal
    }

    /// The sink's chain position: `(next_seq, head)`. Only meaningful
    /// between commits with an empty pending batch — the coordinator's
    /// checkpoint path enforces that.
    pub fn position(&self) -> (u64, String) {
        (self.journal.next_seq(), self.journal.head().to_string())
    }

    /// Appends one record directly and durably (append + flush + fsync),
    /// bypassing the pending batch and the retry/backoff bookkeeping —
    /// the checkpoint anchor's path. A failure here neither escalates
    /// `failures` nor backs off: the caller (the checkpointer) treats it
    /// as "this checkpoint didn't happen" and the regular event flow's
    /// health ladder is unaffected. Refused while the sink is down.
    pub fn append_now(&mut self, kind: &str, payload: Json) -> std::io::Result<u64> {
        if self.down {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "journal sink is down",
            ));
        }
        let seq = self.journal.append(kind, payload)?;
        self.journal.commit()?;
        Ok(seq)
    }

    /// Attempts to commit the pending batch: one `append_batch` per
    /// attempt, then a single flush + fsync. On success `pending` is
    /// cleared; on append failure it is retained for a byte-identical
    /// retry at a later commit.
    pub fn commit(&mut self, pending: &mut Vec<(&'static str, TsEvent)>) {
        // Group commits batch many requests, so the span is its own
        // root rather than a child of any one trace. Minted through the
        // same unconditional counter as request roots, keeping trace-id
        // allocation identical with collection on and off.
        let mut span = hka_obs::trace::root_detached("shard.group_commit");
        span.attr("batch", Json::from(pending.len() as u64));
        if self.down {
            if !pending.is_empty() {
                hka_obs::counter!("ts.journal_skipped").add(pending.len() as u64);
                pending.clear();
            }
            return;
        }
        if pending.is_empty() {
            return;
        }
        if self.skip > 0 {
            // Backoff window: the batch keeps accumulating.
            self.skip -= 1;
            return;
        }
        let attempts = self.policy.attempts.max(1);
        for attempt in 0..attempts {
            match self.journal.append_batch(pending) {
                Ok(_) => {
                    let synced = self.journal.commit().is_ok();
                    hka_obs::counter!("ts.journal_committed").add(pending.len() as u64);
                    hka_obs::counter!("ts.journal_commits").incr();
                    pending.clear();
                    if synced {
                        if self.failures > 0 {
                            hka_obs::counter!("ts.journal_recoveries").incr();
                        }
                        self.failures = 0;
                    } else {
                        // Appended but not durably synced: escalate, but
                        // never re-append (the chain has advanced).
                        hka_obs::counter!("ts.journal_errors").incr();
                        self.escalate();
                    }
                    return;
                }
                Err(_) => {
                    hka_obs::counter!("ts.journal_errors").incr();
                    if attempt + 1 < attempts {
                        hka_obs::counter!("ts.journal_retries").incr();
                    }
                }
            }
        }
        // Every attempt failed: the batch stays pending; escalate.
        self.escalate();
        if self.down && !pending.is_empty() {
            hka_obs::counter!("ts.journal_skipped").add(pending.len() as u64);
            pending.clear();
        }
    }

    fn escalate(&mut self) {
        self.failures += 1;
        if self.failures >= self.policy.max_failures {
            self.down = true;
        } else {
            self.skip = self.policy.backoff_base << self.failures;
        }
    }
}

impl std::fmt::Debug for GroupCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommit")
            .field("next_seq", &self.journal.next_seq())
            .field("health", &self.health())
            .finish()
    }
}
