//! Workload inputs: the generated world turned into envelopes, and the
//! recipe for a fresh server over it.
//!
//! Everything here is a pure function of `(workload, seed)`. The program
//! under test never sees the generator — only the envelopes (and, for the
//! gateway, their wire lines) and the registration script.

use hka_anonymity::ServiceId;
use hka_core::{
    PrivacyLevel, PrivacyParams, RequestEnvelope, RiskAction, Tolerance, TrustedServer, TsConfig,
};
use hka_geo::{Rect, StPoint, DAY, HOUR, MINUTE};
use hka_lbqid::Lbqid;
use hka_mobility::{CityConfig, Role, World, WorldConfig, ANCHOR_SERVICE, BACKGROUND_SERVICE};
use hka_shard::ShardedTs;
use hka_trajectory::UserId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Seed of the fixed stage: city layout, population roles, and where
/// every agent is at every sampling instant.
pub const LAYOUT_SEED: u64 = 2005;

/// The `--seconds` the pass counts in [`Spec::passes`] are sized for
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 24;

/// Half-width of the square an agent's fixed flat is drawn from, metres
/// (buildings are 60 m squares and the generator uses their centres).
const FLAT_OFFSET_M: f64 = 20.0;

/// The four workloads. Names are part of the benchmark's contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense protected city, in-process, no fsync: the query path.
    QueryDense,
    /// Two shards behind a group-commit journal: the commit path.
    CommitSharded,
    /// TCP gateway over an fsync-per-record server: the wire path.
    GatewayPaced,
    /// Many privacy-off users, few requests: the ingest path.
    IngestLarge,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::QueryDense,
        Workload::CommitSharded,
        Workload::GatewayPaced,
        Workload::IngestLarge,
    ];

    /// The contract name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryDense => "query_dense",
            Workload::CommitSharded => "commit_sharded",
            Workload::GatewayPaced => "gateway_paced",
            Workload::IngestLarge => "ingest_large",
        }
    }

    /// Parses a contract name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the server runs behind the TCP gateway.
    pub fn over_tcp(self) -> bool {
        self == Workload::GatewayPaced
    }
}

/// Which engine serves the workload and how its journal reaches the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Sequential `TrustedServer`, buffered file journal, no fsync.
    Sequential,
    /// Sequential `TrustedServer`, one `sync_data` per journal write.
    SequentialFsync,
    /// `ShardedTs` with this many shards, group-commit sink (one fsync
    /// per barrier).
    Sharded(usize),
}

/// Sizes of one workload. Constants, never derived at run time: a run on
/// a slower host does the same work and reports a slower number.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// City edge, metres (square city).
    pub city_m: f64,
    /// Protected commuters (each carries the commute LBQID).
    pub commuters: usize,
    /// Privacy-off random-waypoint agents.
    pub roamers: usize,
    /// Privacy-off POI regulars.
    pub poi_regulars: usize,
    /// Location sampling interval, seconds.
    pub sample_interval: i64,
    /// Simulated seconds of location history preloaded during set-up:
    /// the reports of the last `warm_span_s` before the served span.
    pub warm_span_s: i64,
    /// Simulated seconds served (locations and requests) in the timed
    /// phase, counted from the midnight that ends the warm history.
    pub serve_span_s: i64,
    /// Background requests per agent-hour.
    pub background_rate: f64,
    /// The commuters' k (k_init = k, no decrement).
    pub k: usize,
    /// Spatial tolerance of the anchor service, m².
    pub anchor_area_m2: f64,
    /// Engine and journal durability.
    pub backend: Backend,
    /// `gateway_paced` only: the part of the stream offered open loop
    /// (phase A), as shares of its length; what precedes and follows it
    /// goes closed loop (phase B). The window is the served day's midday,
    /// between the commute bursts: a tick in which sixty commuters ask at
    /// once is a queue of sixty fsyncs, and a p99 read off that queue
    /// moves with every slow fsync in it.
    pub paced_window: (f64, f64),
    /// `gateway_paced` only: the committed phase-A rate, requests/s
    /// (the location reports between two requests ride in the gap).
    pub paced_requests_per_s: f64,
    /// Timed passes of a run of [`RUN_SECONDS`]: a constant, so that a
    /// change which slows any phase gets the same number of tries at a
    /// quiet machine as its parent (sized for ≈ 22 s of passes on the
    /// reference host).
    pub passes: usize,
}

impl Spec {
    /// The full-size constants behind the committed numbers.
    pub fn full(w: Workload) -> Spec {
        match w {
            Workload::QueryDense => Spec {
                city_m: 2_000.0,
                commuters: 1_000,
                roamers: 100,
                poi_regulars: 20,
                sample_interval: 300,
                warm_span_s: 2 * DAY,
                serve_span_s: DAY,
                background_rate: 0.05,
                k: 10,
                anchor_area_m2: 1e6,
                backend: Backend::Sequential,
                paced_window: (0.0, 0.0),
                paced_requests_per_s: 0.0,
                passes: 36,
            },
            Workload::CommitSharded => Spec {
                city_m: 5_000.0,
                commuters: 60,
                roamers: 100,
                poi_regulars: 8,
                sample_interval: 300,
                warm_span_s: 7 * DAY,
                serve_span_s: DAY,
                background_rate: 4.0,
                k: 5,
                anchor_area_m2: 4e6,
                backend: Backend::Sharded(2),
                paced_window: (0.0, 0.0),
                paced_requests_per_s: 0.0,
                passes: 14,
            },
            Workload::GatewayPaced => Spec {
                city_m: 3_000.0,
                commuters: 100,
                roamers: 160,
                poi_regulars: 10,
                sample_interval: 300,
                warm_span_s: 7 * DAY,
                serve_span_s: DAY,
                background_rate: 0.6,
                k: 5,
                anchor_area_m2: 1e6,
                backend: Backend::SequentialFsync,
                paced_window: (0.21, 0.63),
                paced_requests_per_s: 800.0,
                passes: 10,
            },
            Workload::IngestLarge => Spec {
                city_m: 10_000.0,
                commuters: 400,
                roamers: 9_400,
                poi_regulars: 200,
                sample_interval: 300,
                warm_span_s: 8 * HOUR,
                serve_span_s: 9 * HOUR,
                background_rate: 0.12,
                k: 5,
                anchor_area_m2: 4e6,
                backend: Backend::Sequential,
                paced_window: (0.0, 0.0),
                paced_requests_per_s: 0.0,
                passes: 18,
            },
        }
    }

    /// A reduced copy for `--smoke`: same shape, a fraction of the work.
    pub fn smoke(w: Workload) -> Spec {
        let full = Spec::full(w);
        Spec {
            commuters: (full.commuters / 8).max(20),
            roamers: full.roamers / 8,
            poi_regulars: full.poi_regulars / 8,
            warm_span_s: full.warm_span_s.min(DAY),
            serve_span_s: full.serve_span_s.min(DAY),
            passes: 3,
            ..full
        }
    }
}

/// One protected user's registration.
#[derive(Debug, Clone)]
pub struct Protected {
    /// The user.
    pub user: UserId,
    /// Home rectangle (first and last LBQID element).
    pub home: Rect,
    /// Office rectangle (middle LBQID elements).
    pub office: Rect,
}

/// Everything one run feeds the program.
pub struct Inputs {
    /// The sizes this was generated from.
    pub spec: Spec,
    /// Every user id, in registration order.
    pub users: Vec<UserId>,
    /// The protected subset with their LBQID anchors.
    pub protected: Vec<Protected>,
    /// Warm-history location reports, preloaded during set-up.
    pub warm: Vec<RequestEnvelope>,
    /// The served stream: locations and requests, time-ordered.
    pub serve: Vec<RequestEnvelope>,
    /// Requests in `serve`.
    pub requests: usize,
    /// Seconds spent generating (untimed by every metric but
    /// `harness.generate_s`).
    pub generate_s: f64,
}

/// The registration script, identical for both engines (which share the
/// method names but no trait): services with their tolerances, every
/// user with its privacy level, the commute LBQID of the protected.
macro_rules! register {
    ($inputs:expr, $ts:expr) => {{
        $ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
        $ts.register_service(ServiceId(ANCHOR_SERVICE), $inputs.anchor_tolerance());
        let level = PrivacyLevel::Custom($inputs.params());
        let mut next = $inputs.protected.iter().peekable();
        for &u in &$inputs.users {
            match next.next_if(|p| p.user == u) {
                Some(p) => {
                    $ts.register_user(u, level);
                    $ts.add_lbqid(u, Lbqid::example_commute(p.home, p.office));
                }
                None => {
                    $ts.register_user(u, PrivacyLevel::Off);
                }
            }
        }
    }};
}

impl Inputs {
    /// Generates the inputs of `spec` from `seed`.
    ///
    /// The city, its population (who lives and works where, who roams),
    /// every agent's movement and the protected commuters' requests are
    /// the benchmark's fixed stage, drawn once from [`LAYOUT_SEED`]:
    /// whether a protected request can be generalized, and how coarsely,
    /// is a function of where everybody is, so `suppressed_share` and
    /// `area_p50_m2` read the same under every seed and can carry a
    /// tight bound. `seed` draws the load around them: which privacy-off
    /// agents ask the background service, at which of their sampling
    /// instants.
    pub fn generate(spec: Spec, seed: u64) -> Inputs {
        let t0 = std::time::Instant::now();
        let stage = World::generate(&WorldConfig {
            seed: LAYOUT_SEED,
            // The stage's own event stream is not used: keep it tiny.
            days: 1,
            sample_interval: 4 * HOUR,
            n_commuters: spec.commuters,
            n_roamers: spec.roamers,
            n_poi_regulars: spec.poi_regulars,
            city: CityConfig {
                width: spec.city_m,
                height: spec.city_m,
                ..CityConfig::default()
            },
            anchor_request_prob: 0.0,
            background_request_rate: 0.0,
        });
        let users: Vec<UserId> = stage.agents.iter().map(|a| a.user).collect();
        let protected: Vec<Protected> = stage
            .agents
            .iter()
            .filter_map(|a| match a.role {
                Role::Commuter { home, office, .. } => Some(Protected {
                    user: a.user,
                    home: stage.city.homes[home],
                    office: stage.city.offices[office],
                }),
                _ => None,
            })
            .collect();

        // `hka-mobility` parks every occupant of a building on its centre
        // point, so k residents of one block would bound a box of area 0
        // and `area_p50_m2` would be a median over the odd ones out. Each
        // agent gets a fixed flat instead: a constant offset that keeps
        // it inside the 60 m building its LBQID elements name.
        let mut flats = StdRng::seed_from_u64(LAYOUT_SEED ^ 0xF1A7);

        // The traffic, as `World::generate` draws it: one stream per agent
        // so agents are independent of each other's sampling order.
        // Serving starts at a midnight; the warm history ends there.
        let warm_days = (spec.warm_span_s + DAY - 1) / DAY;
        let days = warm_days + (spec.serve_span_s + DAY - 1) / DAY;
        let p_background =
            (spec.background_rate * spec.sample_interval as f64 / HOUR as f64).clamp(0.0, 1.0);
        let serve_from = warm_days * DAY;
        let warm_from = serve_from - spec.warm_span_s;
        let serve_until = serve_from + spec.serve_span_s;
        let in_spans = |at: &StPoint| (warm_from..serve_until).contains(&at.t.0);
        let mut events: Vec<(StPoint, UserId, Option<u32>)> = Vec::new();
        // The served location reports of the privacy-off crowd, as indices
        // into `events`: the instants the seed chooses askers from.
        let mut crowd_instants: Vec<usize> = Vec::new();
        for agent in &stage.agents {
            let dx = flats.random_range(-FLAT_OFFSET_M..FLAT_OFFSET_M);
            let dy = flats.random_range(-FLAT_OFFSET_M..FLAT_OFFSET_M);
            let in_flat = |p: &StPoint| StPoint::xyt(p.pos.x + dx, p.pos.y + dy, p.t);
            let protected = matches!(agent.role, Role::Commuter { .. });
            let mut rng = StdRng::seed_from_u64(
                LAYOUT_SEED ^ agent.user.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            for day in 0..days {
                let trace = agent.simulate_day(&stage.city, day, spec.sample_interval, &mut rng);
                for at in &trace.samples {
                    let at = in_flat(at);
                    // A protected commuter's requests are part of the stage.
                    let asks = protected && rng.random_bool(p_background);
                    if !in_spans(&at) {
                        continue;
                    }
                    if !protected && at.t.0 >= serve_from {
                        crowd_instants.push(events.len());
                    }
                    events.push((at, agent.user, None));
                    if asks {
                        events.push((at, agent.user, Some(BACKGROUND_SERVICE)));
                    }
                }
                for anchor in trace.anchors.iter().filter(|a| in_spans(&a.at)) {
                    events.push((in_flat(&anchor.at), agent.user, Some(ANCHOR_SERVICE)));
                }
            }
        }
        // The crowd's requests: the seed picks which of its served
        // instants carry one (a partial shuffle). How many is the rate
        // times the instants, not a draw, so every seed serves the same
        // number of requests and `suppressed_share` has one denominator.
        let mut picks = StdRng::seed_from_u64(seed);
        let askers = (p_background * crowd_instants.len() as f64).round() as usize;
        for i in 0..askers {
            let j = picks.random_range(i..crowd_instants.len());
            crowd_instants.swap(i, j);
            let (at, user, _) = events[crowd_instants[i]];
            events.push((at, user, Some(BACKGROUND_SERVICE)));
        }
        // Time, then user, a location before the requests made from it.
        events.sort_by_key(|(at, user, service)| (at.t, *user, service.is_some()));

        let mut warm = Vec::new();
        let mut serve = Vec::new();
        let mut requests = 0usize;
        // An envelope's id is its position in its stream, so a response
        // (or a span) names the frame it belongs to.
        for (at, user, service) in events {
            match service {
                None if at.t.0 < serve_from => {
                    warm.push(RequestEnvelope::location(warm.len() as u64, user, at))
                }
                _ if at.t.0 < serve_from => {}
                None => serve.push(RequestEnvelope::location(serve.len() as u64, user, at)),
                Some(service) => {
                    requests += 1;
                    let id = serve.len() as u64;
                    serve.push(RequestEnvelope::request(id, user, at, ServiceId(service)));
                }
            }
        }
        Inputs {
            spec,
            users,
            protected,
            warm,
            serve,
            requests,
            generate_s: t0.elapsed().as_secs_f64(),
        }
    }

    fn params(&self) -> PrivacyParams {
        PrivacyParams {
            k: self.spec.k,
            theta: 0.5,
            k_init: self.spec.k,
            k_decrement: 0,
            // The guarantee's QoS price must be visible: a request that
            // can be neither generalized within tolerance nor unlinked is
            // withheld, and counted in `suppressed_share`.
            on_risk: RiskAction::Suppress,
        }
    }

    fn anchor_tolerance(&self) -> Tolerance {
        Tolerance::new(self.spec.anchor_area_m2, 10 * MINUTE)
    }

    /// A sequential server with services, users and LBQIDs registered.
    pub fn sequential(&self) -> TrustedServer {
        let mut ts = TrustedServer::new(TsConfig::default());
        register!(self, ts);
        ts
    }

    /// The sharded twin of [`Inputs::sequential`].
    pub fn sharded(&self, shards: usize) -> ShardedTs {
        let mut ts = ShardedTs::new(TsConfig::default(), shards);
        register!(self, ts);
        ts
    }
}
