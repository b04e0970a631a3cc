//! # hka — Historical k-Anonymity for Location-Based Services
//!
//! A full reproduction of *Protecting Privacy Against Location-based
//! Personal Identification* (Bettini, Wang, Jajodia — VLDB SDM workshop,
//! 2005): the trusted-server architecture, location-based
//! quasi-identifiers with time-granularity recurrence formulas,
//! service-request linkability, historical k-anonymity, the
//! spatio-temporal generalization algorithm, mix-zone unlinking, the
//! provider-side adversary, the baselines the paper positions itself
//! against, and a synthetic-city workload generator to drive it all.
//!
//! ## Quick start
//!
//! ```
//! use hka::prelude::*;
//!
//! // A small world: commuters plus background crowd, one week.
//! let world = World::generate(&WorldConfig {
//!     seed: 1,
//!     days: 5,
//!     n_commuters: 5,
//!     n_roamers: 10,
//!     n_poi_regulars: 0,
//!     ..WorldConfig::default()
//! });
//!
//! // A trusted server; one commuter opts into Medium privacy with the
//! // paper's commute LBQID.
//! let mut ts = TrustedServer::new(TsConfig::default());
//! let alice = world.commuters().next().unwrap();
//! for agent in &world.agents {
//!     if agent.user == alice {
//!         ts.register_user(agent.user, PrivacyLevel::Medium);
//!     } else {
//!         ts.register_user(agent.user, PrivacyLevel::Off);
//!     }
//! }
//! ts.add_lbqid(
//!     alice,
//!     Lbqid::example_commute(
//!         world.home_of(alice).unwrap(),
//!         world.office_of(alice).unwrap(),
//!     ),
//! );
//!
//! // Drive the event stream through the server.
//! for e in &world.events {
//!     match e.kind {
//!         EventKind::Location => ts.location_update(e.user, e.at),
//!         EventKind::Request { service } => {
//!             let _ = ts.handle_request(e.user, e.at, ServiceId(service));
//!         }
//!     }
//! }
//!
//! // Audit: the generalized pattern requests satisfy historical
//! // k-anonymity unless the server flagged the user at risk.
//! for (name, _matched, hk) in ts.audit_patterns(alice, 5) {
//!     assert!(hk.satisfied || ts.is_at_risk(alice), "{name} violated");
//! }
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`geo`] | planar/space–time geometry (`Point`, `Rect`, `StBox`, …) |
//! | [`granules`] | time granularities, civil calendar, recurrence formulas |
//! | [`trajectory`] | PHLs, trajectory store, spatio-temporal grid index |
//! | [`mobility`] | the synthetic city and workload generator |
//! | [`lbqid`] | LBQID patterns, DSL, offline + online matchers |
//! | [`anonymity`] | linkability, LT-consistency, historical k-anonymity |
//! | [`core`] | the trusted server, Algorithm 1, mix-zones, adversary |
//! | [`baselines`] | Gruteser–Grunwald cloaking, actual-senders, uniform |
//! | [`obs`] | metrics, span timers, hash-chained JSONL event journal |
//! | [`faults`] | deterministic fault injection and chaos schedules |
//! | [`audit`] | offline journal replay, anonymity timelines, trade-off tables |
//! | [`gateway`] | TCP frontend serving any [`core::RequestService`] backend |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hka_anonymity as anonymity;
pub use hka_audit as audit;
pub use hka_baselines as baselines;
pub use hka_core as core;
pub use hka_faults as faults;
pub use hka_gateway as gateway;
pub use hka_geo as geo;
pub use hka_granules as granules;
pub use hka_lbqid as lbqid;
pub use hka_mobility as mobility;
pub use hka_obs as obs;
pub use hka_shard as shard;
pub use hka_trajectory as trajectory;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use hka_anonymity::{
        anonymity_set, historical_k_anonymity, is_link_connected, link_components, lt_consistent,
        CompositeLinker, HkOutcome, Linker, MsgId, Pseudonym, PseudonymLinker, ServiceId,
        SpRequest, TrackerLinker,
    };
    pub use hka_core::adversary::{
        pair_attack, Adversary, AttackReport, HomeRegistry, PairRegistry,
    };
    pub use hka_core::derivation::{derive_lbqids, DerivationConfig, DerivedPattern};
    pub use hka_core::planning::{evaluate_deployment, DeploymentReport, PlanningConfig};
    pub use hka_core::{
        algorithm1_first, algorithm1_first_brute, algorithm1_subsequent, parse_wire_msg,
        parse_wire_reply, CheckpointReceipt, Checkpointer, EnvelopeBody, Generalization,
        JournalHealth, MixZoneConfig, MixZoneManager, PrivacyIndicator, PrivacyLevel,
        PrivacyParams, RandomizeConfig, Randomizer, RecoveredCheckpoint, RequestEnvelope,
        RequestOutcome, RequestService, ResponseEnvelope, RetryPolicy, RiskAction, ServerMeta,
        ServerMode, SharedTrustedServer, Tolerance, TrustedServer, TsConfig, TsError, TsEvent,
        TsStats, UnlinkDecision, WireError, WireMsg, WireOutcome, WireReply,
    };
    pub use hka_faults::{
        checkpoint_chaos_plan, gateway_chaos_plan, randomized_plan, tail_chaos_plan, FaultInjector,
        FaultKind, FaultPlan, FaultRule, FaultyWriter, Trigger,
    };
    pub use hka_gateway::{Gateway, GatewayClient, GatewayConfig};
    pub use hka_geo::{
        DayWindow, Point, Rect, SpaceTimeScale, StBox, StPoint, TimeInterval, TimeSec, DAY, HOUR,
        MINUTE, WEEK,
    };
    pub use hka_granules::{calendar::Weekday, Granularity, Recurrence};
    pub use hka_lbqid::{offline, parse_lbqid, Element, Lbqid, Monitor};
    pub use hka_mobility::{
        Agent, City, CityConfig, Event, EventKind, Role, World, WorldConfig, ANCHOR_SERVICE,
        BACKGROUND_SERVICE,
    };
    pub use hka_shard::ShardedTs;
    pub use hka_trajectory::io::{read_store, write_store};
    pub use hka_trajectory::{
        brute, BruteIndex, CompactionPolicy, CompactionStats, GridIndex, GridIndexConfig,
        IndexBackend, Phl, SpatialIndex, TrajectoryStore, UnionIndex, UserId,
    };
}
