//! Canonical pipeline-stage span names.
//!
//! The trusted server times each stage of request handling with a
//! [`span!`](crate::span!) named by one of these constants, so the
//! per-stage latency histograms produced by the pipeline, printed by
//! `hka-sim simulate --metrics`, and read by the `benchmark/` harness
//! all agree on naming. Keep these in sync with the stage list
//! documented in DESIGN.md §9.

/// A request's own ingest step: its location into the PHL and the index,
/// unless a location report already wrote that point. Location reports
/// outside a request are counted (`ts.ingested`), not timed.
pub const INGEST: &str = "ts.stage.ingest";

/// Matching the request position against registered LBQID monitors.
pub const LBQID_MATCH: &str = "ts.stage.lbqid_match";

/// Algorithm 1: computing the generalized request (first or subsequent).
pub const ALGO1: &str = "ts.stage.algo1";

/// Checking mix-zone availability and attempting an unlink.
pub const LINK_CHECK: &str = "ts.stage.link_check";

/// Forwarding the (possibly generalized) request to the service.
pub const FORWARD: &str = "ts.stage.forward";

/// Every stage, in pipeline order.
pub const ALL: [&str; 5] = [INGEST, LBQID_MATCH, ALGO1, LINK_CHECK, FORWARD];
