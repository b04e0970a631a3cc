//! # hka-bench
//!
//! Shared machinery for the experiment binaries that regenerate every
//! table and figure in EXPERIMENTS.md. Each binary (`src/bin/*.rs`)
//! prints the rows/series of one artifact; this library holds the
//! scenario builders and small statistics helpers they share.
//!
//! All scenarios are seeded and deterministic: running a binary twice
//! produces identical output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hka_anonymity::ServiceId;
use hka_core::{PrivacyLevel, PrivacyParams, Tolerance, TrustedServer, TsConfig};
use hka_geo::MINUTE;
use hka_lbqid::Lbqid;
use hka_mobility::{CityConfig, World, WorldConfig, ANCHOR_SERVICE, BACKGROUND_SERVICE};
use hka_trajectory::UserId;

/// The one loop that drives a scenario: every event to the server in
/// order, every forward kept beside its true issuer (a day at a time,
/// compacting at each midnight, in the `_daily` form).
pub use hka::{collect_forwards, collect_forwards_daily};

/// A ready-to-run protected city: the workload, the trusted server wired
/// with services and LBQIDs, and the list of protected users.
pub struct Scenario {
    /// The synthetic workload.
    pub world: World,
    /// The trusted server (services and LBQIDs registered, no events yet).
    pub ts: TrustedServer,
    /// The protected (commuter) users.
    pub protected: Vec<UserId>,
}

/// Scenario knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Workload seed.
    pub seed: u64,
    /// Simulated days.
    pub days: i64,
    /// Commuters (the protected population).
    pub n_commuters: usize,
    /// Background roamers.
    pub n_roamers: usize,
    /// Privacy parameters applied to every commuter.
    pub params: PrivacyParams,
    /// Tolerance for the routine (anchor) service.
    pub anchor_tolerance: Tolerance,
    /// Tolerance for the background (navigation-like) service.
    pub background_tolerance: Tolerance,
    /// The trusted server's configuration.
    pub ts: TsConfig,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 1,
            days: 14,
            n_commuters: 10,
            n_roamers: 60,
            params: PrivacyParams {
                k: 5,
                theta: 0.5,
                k_init: 10,
                k_decrement: 1,
                on_risk: hka_core::RiskAction::Forward,
            },
            anchor_tolerance: Tolerance::new(9e6, 10 * MINUTE),
            background_tolerance: Tolerance::navigation(),
            ts: TsConfig::default(),
        }
    }
}

/// Builds the standard 2 km × 2 km protected city.
pub fn build(cfg: &ScenarioConfig) -> Scenario {
    let world = World::generate(&WorldConfig {
        seed: cfg.seed,
        days: cfg.days,
        n_commuters: cfg.n_commuters,
        n_roamers: cfg.n_roamers,
        n_poi_regulars: cfg.n_roamers / 10,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    });
    let mut ts = TrustedServer::new(cfg.ts);
    ts.register_service(ServiceId(BACKGROUND_SERVICE), cfg.background_tolerance);
    ts.register_service(ServiceId(ANCHOR_SERVICE), cfg.anchor_tolerance);
    let protected: Vec<UserId> = world.commuters().collect();
    for agent in &world.agents {
        if protected.contains(&agent.user) {
            ts.register_user(agent.user, PrivacyLevel::Custom(cfg.params));
        } else {
            ts.register_user(agent.user, PrivacyLevel::Off);
        }
    }
    for &u in &protected {
        ts.add_lbqid(
            u,
            Lbqid::example_commute(world.home_of(u).unwrap(), world.office_of(u).unwrap()),
        );
    }
    Scenario {
        world,
        ts,
        protected,
    }
}

/// Mean of a sample (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median (0 for empty); sorts a copy.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Wall-clock of `f()` in nanoseconds: one untimed warmup call, then the
/// **median** of `reps` timed calls.
///
/// The warmup absorbs one-time costs (cold caches, lazy allocation, page
/// faults) that would otherwise land in the first sample. The median —
/// rather than the previous best-of-N — keeps a single lucky sample from
/// defining the result: best-of-N is biased low, and the bias *grows*
/// with N, so raising reps would silently "speed up" every benchmark.
/// The median is a consistent estimator of the typical call under the
/// one-sided noise of a shared host.
pub fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// Prints a rule line of the given width.
fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// One table cell: the human-facing rendering plus the raw value that
/// goes into the machine-readable JSON line.
#[derive(Debug, Clone)]
pub struct Cell {
    text: String,
    value: hka_obs::Json,
}

impl Cell {
    /// An integer cell.
    pub fn int(v: impl TryInto<i64>) -> Cell {
        let v: i64 = v.try_into().unwrap_or(i64::MAX);
        Cell {
            text: v.to_string(),
            value: hka_obs::Json::Int(v),
        }
    }

    /// A float cell rendered with `decimals` places; stores the raw f64.
    pub fn num(v: f64, decimals: usize) -> Cell {
        Cell {
            text: format!("{v:.decimals$}"),
            value: hka_obs::Json::Num(v),
        }
    }

    /// A rate in [0, 1] rendered as a percentage; stores the raw fraction.
    pub fn pct(frac: f64, decimals: usize) -> Cell {
        Cell {
            text: format!("{:.decimals$}%", 100.0 * frac),
            value: hka_obs::Json::Num(frac),
        }
    }

    /// A text cell.
    pub fn text(s: impl Into<String>) -> Cell {
        let s = s.into();
        Cell {
            value: hka_obs::Json::Str(s.clone()),
            text: s,
        }
    }

    /// A boolean cell.
    pub fn flag(b: bool) -> Cell {
        Cell {
            text: b.to_string(),
            value: hka_obs::Json::Bool(b),
        }
    }
}

/// A table or figure series with two renderings: an aligned
/// human-readable table on stdout, followed by one machine-readable JSON
/// line (`{"id":…,"columns":…,"rows":…,"notes":…}`) that downstream
/// tooling can scrape with `grep '^{'` and `hka_obs::json::parse`.
///
/// Text-valued columns are left-aligned, numeric ones right-aligned.
#[derive(Debug, Clone)]
pub struct Report {
    id: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
    notes: Vec<String>,
}

impl Report {
    /// Starts a report. `id` is the artifact key (`"T3"`, `"F2"`, …).
    pub fn new(id: &str, title: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            columns: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets the column headers (builder-style).
    pub fn columns(mut self, names: &[&str]) -> Report {
        self.columns = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Appends a data row; must match the column count.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "report {}: row has {} cells, table has {} columns",
            self.id,
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Inserts a horizontal rule between row groups (human rendering
    /// only; absent from the JSON line).
    pub fn gap(&mut self) {
        self.rows.push(Vec::new());
    }

    /// Appends a free-text "Reading:" note.
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_string());
    }

    /// Prints the table, the notes, and the JSON line.
    pub fn emit(&self) {
        println!("=== {}: {} ===\n", self.id, self.title);
        let n = self.columns.len();
        let mut width: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        let mut left = vec![false; n];
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.text.chars().count());
                if matches!(c.value, hka_obs::Json::Str(_)) {
                    left[i] = true;
                }
            }
        }
        let line_width = width.iter().sum::<usize>() + 2 * n.saturating_sub(1);
        let render = |texts: &mut dyn Iterator<Item = &str>| {
            let mut out = String::new();
            for (i, t) in texts.enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = width[i].saturating_sub(t.chars().count());
                if left[i] {
                    out.push_str(t);
                    if i + 1 < n {
                        out.push_str(&" ".repeat(pad));
                    }
                } else {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(t);
                }
            }
            out
        };
        println!("{}", render(&mut self.columns.iter().map(|s| s.as_str())));
        rule(line_width);
        for row in &self.rows {
            if row.is_empty() {
                rule(line_width);
            } else {
                println!("{}", render(&mut row.iter().map(|c| c.text.as_str())));
            }
        }
        if !self.rows.last().is_some_and(|r| r.is_empty()) {
            rule(line_width);
        }
        for note in &self.notes {
            println!("{note}");
        }
        println!("{}", self.to_json());
    }

    /// The machine-readable form of the report.
    pub fn to_json(&self) -> hka_obs::Json {
        use hka_obs::Json;
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("title", Json::Str(self.title.clone())),
            (
                "columns",
                Json::Arr(self.columns.iter().map(|c| Json::Str(c.clone())).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .filter(|r| !r.is_empty())
                        .map(|r| Json::Arr(r.iter().map(|c| c.value.clone()).collect()))
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn scenario_builds_and_runs() {
        let mut s = build(&ScenarioConfig {
            days: 1,
            n_commuters: 2,
            n_roamers: 5,
            ..ScenarioConfig::default()
        });
        let forwards = collect_forwards(&mut s.ts, &s.world.events);
        assert!(!forwards.is_empty());
        assert_eq!(s.ts.log().stats().forwarded(), forwards.len());
        assert_eq!(s.protected.len(), 2);
    }

    #[test]
    fn report_json_line_round_trips() {
        let mut r = Report::new("T9", "demo").columns(&["label", "count", "rate"]);
        r.row(vec![Cell::text("a"), Cell::int(3i64), Cell::pct(0.5, 1)]);
        r.gap();
        r.row(vec![Cell::text("b"), Cell::int(7i64), Cell::pct(0.25, 1)]);
        r.note("a note");
        let parsed = hka_obs::json::parse(&r.to_json().to_string()).expect("valid JSON");
        assert_eq!(parsed.get("id").and_then(|j| j.as_str()), Some("T9"));
        let rows = match parsed.get("rows") {
            Some(hka_obs::Json::Arr(rows)) => rows.clone(),
            other => panic!("rows missing: {other:?}"),
        };
        // The gap separator is rendering-only; JSON keeps the data rows.
        assert_eq!(rows.len(), 2);
        match &rows[1] {
            hka_obs::Json::Arr(cells) => {
                assert_eq!(cells[0].as_str(), Some("b"));
                assert_eq!(cells[1].as_int(), Some(7));
                assert_eq!(cells[2].as_f64(), Some(0.25));
            }
            other => panic!("row not an array: {other:?}"),
        }
    }

    #[test]
    fn cell_renderings() {
        assert_eq!(Cell::int(42i64).text, "42");
        assert_eq!(Cell::num(1.23456, 2).text, "1.23");
        assert_eq!(Cell::pct(0.631, 1).text, "63.1%");
        assert_eq!(Cell::flag(true).text, "true");
        assert_eq!(Cell::text("x").text, "x");
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn report_rejects_ragged_rows() {
        let mut r = Report::new("T0", "ragged").columns(&["a", "b"]);
        r.row(vec![Cell::int(1i64)]);
    }

    #[test]
    fn timing_helper_is_positive() {
        let ns = time_ns(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(ns > 0.0);
    }
}
