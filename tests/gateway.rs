//! The gateway's two load-bearing promises, pinned end to end:
//!
//! 1. **Transparency** — serving over TCP changes nothing the journal
//!    can see. The same seeded workload through the gateway (wire
//!    framing, req-id rewriting, bounded queue, drain barriers) and
//!    through an in-process [`RequestService`] produces byte-identical
//!    hash-chained journals, identical response outcomes, and an
//!    `hka-sim audit` that exits 0 on either file.
//! 2. **Fail-closed under chaos** — with seeded faults on all four
//!    gateway sites (`gateway.accept`, `conn.read`, `conn.frame`,
//!    `conn.write`), the journal never records more forwards than the
//!    drill submitted, and the chain still verifies: torn frames and
//!    dropped replies lose service, never privacy.

use std::path::PathBuf;
use std::process::Command;

use hka::obs;
use hka::prelude::*;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("hka-gw-it-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn build_world(seed: u64, days: i64) -> World {
    World::generate(&WorldConfig {
        seed,
        days,
        n_commuters: 5,
        n_roamers: 30,
        n_poi_regulars: 3,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    })
}

fn params() -> PrivacyParams {
    PrivacyParams {
        k: 4,
        theta: 0.5,
        k_init: 8,
        k_decrement: 1,
        on_risk: RiskAction::Forward,
    }
}

/// Registers services, users, and LBQIDs identically on either server
/// type (both only expose the same setup surface).
macro_rules! setup {
    ($ts:expr, $world:expr) => {{
        let commuters: Vec<UserId> = $world.commuters().collect();
        $ts.register_service(ServiceId(BACKGROUND_SERVICE), Tolerance::navigation());
        $ts.register_service(ServiceId(ANCHOR_SERVICE), Tolerance::new(9e6, 10 * MINUTE));
        for agent in &$world.agents {
            let level = if commuters.contains(&agent.user) {
                PrivacyLevel::Custom(params())
            } else {
                PrivacyLevel::Off
            };
            $ts.register_user(agent.user, level);
        }
        for &u in &commuters {
            $ts.add_lbqid(
                u,
                Lbqid::example_commute($world.home_of(u).unwrap(), $world.office_of(u).unwrap()),
            );
        }
    }};
}

fn envelopes(world: &World) -> Vec<RequestEnvelope> {
    world
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| match e.kind {
            EventKind::Location => RequestEnvelope::location(i as u64, e.user, e.at),
            EventKind::Request { service } => {
                RequestEnvelope::request(i as u64, e.user, e.at, ServiceId(service))
            }
        })
        .collect()
}

fn hka_sim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hka-sim"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// The gateway adds zero journal records and perturbs zero decisions:
/// a TCP-served run is byte-identical to an in-process seam run. The
/// backend is the 4-shard `ShardedTs` with the randomizer attached,
/// whose journal replays the sequential execution exactly — so
/// drain-cycle timing, which depends on thread scheduling inside the
/// gateway, provably cannot leak into the bytes.
#[test]
fn gateway_journal_is_byte_identical_to_in_process() {
    let dir = TempDir::new("diff");
    let inproc_path = dir.0.join("inproc.jsonl");
    let gw_path = dir.0.join("gateway.jsonl");

    let config = TsConfig {
        randomize: Some(RandomizeConfig::default()),
        ..TsConfig::default()
    };
    let world = build_world(23, 3);
    let envs = envelopes(&world);
    let n_requests = envs.iter().filter(|e| e.is_request()).count();
    assert!(n_requests > 0, "workload generated no requests");

    // --- In-process: the seam, no network. ---------------------------
    let mut shd = ShardedTs::new(config, 4);
    setup!(shd, &world);
    shd.attach_journal(obs::Journal::new(
        Box::new(std::fs::File::create(&inproc_path).unwrap()) as Box<dyn obs::DurableSink>,
    ));
    let svc: &mut dyn RequestService = &mut shd;
    for env in &envs {
        svc.submit(env);
    }
    let inproc = svc.drain();
    svc.flush_journal().unwrap();
    drop(shd);
    assert_eq!(inproc.len(), n_requests);

    // --- The same backend behind TCP. --------------------------------
    let mut shd = ShardedTs::new(config, 4);
    setup!(shd, &world);
    shd.attach_journal(obs::Journal::new(
        Box::new(std::fs::File::create(&gw_path).unwrap()) as Box<dyn obs::DurableSink>,
    ));
    let gw = Gateway::spawn("127.0.0.1:0", Box::new(shd), GatewayConfig::default()).unwrap();
    let mut client = GatewayClient::connect(gw.addr()).unwrap();
    let alice = world.commuters().next().unwrap();
    assert!(
        client.bind(alice).unwrap().is_some(),
        "protected user binds with a pseudonym"
    );
    // Pace the session with a drain barrier every 128 envelopes —
    // fewer than the 256-deep inflight queue, so nothing is ever
    // refused as overload or shed (an overload refusal is answered at
    // the gateway and never reaches the backend, which would change
    // both the outcomes and the journal; that path is exercised by the
    // crate's own overload test, not this differential).
    let mut served = Vec::new();
    for chunk in envs.chunks(128) {
        let expected = chunk.iter().filter(|e| e.is_request()).count();
        for env in chunk {
            client.send_env(env).unwrap();
        }
        served.extend(client.drain_responses(expected).unwrap());
    }
    let snap = gw.stats().snapshot();
    assert_eq!(snap.overloads, 0, "paced differential must not overload");
    assert_eq!(snap.shed_locations, 0, "paced differential must not shed");
    drop(client);
    let backend = gw.shutdown(); // drains + flushes before returning
    assert_eq!(backend.mode(), ServerMode::Normal);
    drop(backend);

    // Same responses: the gateway restored client req ids, so the two
    // runs line up one-to-one in submission order.
    assert_eq!(served.len(), inproc.len());
    for (a, b) in served.iter().zip(&inproc) {
        assert_eq!(a.req_id, b.req_id);
        assert_eq!(a.outcome, b.outcome, "req {}", a.req_id);
        assert_eq!(a.detail, b.detail, "req {}", a.req_id);
        assert_eq!(a.k_got, b.k_got, "req {}", a.req_id);
    }

    // Same bytes: framing, rewriting, and drain cadence left no trace.
    let inproc_bytes = std::fs::read(&inproc_path).unwrap();
    let gw_bytes = std::fs::read(&gw_path).unwrap();
    assert!(!gw_bytes.is_empty());
    assert_eq!(
        inproc_bytes, gw_bytes,
        "TCP-served journal must be byte-identical to the in-process run"
    );

    // Both chains verify, and the full offline auditor exits 0.
    for path in [&inproc_path, &gw_path] {
        let file = std::fs::File::open(path).unwrap();
        let report = obs::verify_chain(std::io::BufReader::new(file)).expect("chain intact");
        assert!(!report.records.is_empty());
        let out = hka_sim(&["audit", "--journal", path.to_str().unwrap(), "--quiet"]);
        assert!(
            out.status.success(),
            "audit of {} failed: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // And the auditor still *fails* when the gateway journal is
    // tampered with — exit 1 is the chain-broken code.
    let mut tampered = gw_bytes.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x01;
    let bad_path = dir.0.join("tampered.jsonl");
    std::fs::write(&bad_path, &tampered).unwrap();
    let out = hka_sim(&["audit", "--journal", bad_path.to_str().unwrap(), "--quiet"]);
    assert_eq!(out.status.code(), Some(1), "tampered journal must exit 1");
}

/// Seeded chaos on every gateway site. The drill floods the gateway
/// from several connections while frames tear, reads stall, writes
/// vanish, and accepts get refused; afterwards the journal must (a)
/// still verify, and (b) contain no more forwards than the drill
/// submitted requests — dropped traffic degrades service, never
/// anonymity.
#[test]
fn gateway_chaos_drill_never_fails_open() {
    let dir = TempDir::new("chaos");
    let world = build_world(5, 2);
    let envs = envelopes(&world);
    let mut faults_total = 0u64;

    for seed in [1u64, 7, 19, 42] {
        let path = dir.0.join(format!("chaos-{seed}.jsonl"));
        let mut ts = TrustedServer::new(TsConfig::default());
        setup!(ts, &world);
        ts.attach_journal(obs::Journal::new(
            Box::new(std::fs::File::create(&path).unwrap())
                as Box<dyn std::io::Write + Send + Sync>,
        ));
        let config = GatewayConfig {
            faults: FaultInjector::new(gateway_chaos_plan(seed)),
            ..GatewayConfig::default()
        };
        let gw = Gateway::spawn("127.0.0.1:0", Box::new(ts), config).unwrap();

        // Several short sessions; chaos may kill any of them mid-way.
        // Replies are never awaited — a dropped response must not be
        // able to stall the drill (or a real client) forever.
        let mut submitted_requests = 0u64;
        for conn in 0..6usize {
            let Ok(mut client) = GatewayClient::connect(gw.addr()) else {
                continue;
            };
            let chunk = envs.len() / 6;
            for env in envs.iter().skip(conn * chunk).take(chunk) {
                if client.send_env(env).is_err() {
                    break; // connection torn down by chaos
                }
                if env.is_request() {
                    // Counted even if the gateway never applied it:
                    // the bound is conservative in the safe direction.
                    submitted_requests += 1;
                }
            }
        }
        // Let in-flight frames settle before the drain-and-stop.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let stats = gw.stats().snapshot();
        faults_total += stats.faults_fired;
        let mut backend = gw.shutdown();
        backend.flush_journal().unwrap();
        drop(backend);

        // The chain survived every torn frame and dropped write.
        let file = std::fs::File::open(&path).unwrap();
        let report =
            obs::verify_chain(std::io::BufReader::new(file)).expect("chaos journal chain intact");

        // Fail-closed: every forward in the journal is one the drill
        // actually submitted. Chaos can only shrink the count.
        let forwarded = report
            .records
            .iter()
            .filter(|r| r.kind == "ts.forwarded")
            .count() as u64;
        assert!(
            forwarded <= submitted_requests,
            "seed {seed}: {forwarded} forwards > {submitted_requests} submitted requests"
        );
    }
    assert!(
        faults_total > 0,
        "four seeds of gateway chaos must fire at least one fault"
    );
}

/// `hka-sim serve` end to end: the subprocess binds an ephemeral port,
/// serves a real client session, drains on the wire `shutdown` op, and
/// exits 0 with a verifiable journal on disk.
#[test]
fn serve_cli_round_trips_and_exits_clean() {
    use std::io::BufRead;

    let dir = TempDir::new("serve");
    let journal = dir.0.join("serve.jsonl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_hka-sim"))
        .args([
            "serve",
            "--seed",
            "3",
            "--days",
            "1",
            "--commuters",
            "3",
            "--roamers",
            "12",
            "--addr",
            "127.0.0.1:0",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("hka-sim serve starts");

    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    assert!(banner.starts_with("serving on "), "{banner}");
    let addr: std::net::SocketAddr = banner
        .strip_prefix("serving on ")
        .and_then(|s| s.split_whitespace().next())
        .expect("banner carries the address")
        .parse()
        .expect("parseable address");

    let mut client = GatewayClient::connect(addr).unwrap();
    // Users 0..N exist; user 0 may or may not be protected — bind only
    // proves the session handshake.
    client.bind(UserId(0)).unwrap();
    let mut envs = Vec::new();
    for t in 0..30i64 {
        for u in 0..3u64 {
            envs.push(RequestEnvelope::location(
                envs.len() as u64,
                UserId(u),
                StPoint::xyt(50.0 * u as f64 + t as f64, 20.0 * u as f64, TimeSec(t * 10)),
            ));
        }
    }
    envs.push(RequestEnvelope::request(
        envs.len() as u64,
        UserId(1),
        StPoint::xyt(51.0, 20.0, TimeSec(300)),
        ServiceId(BACKGROUND_SERVICE),
    ));
    let responses = hka::gateway::serve_events(&mut client, &envs).unwrap();
    assert_eq!(responses.len(), 1);
    client.shutdown_gateway().unwrap();

    let status = child.wait().expect("serve exits");
    assert_eq!(status.code(), Some(0), "clean wire shutdown exits 0");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(rest.contains("served 1 connection(s)"), "{rest}");

    let file = std::fs::File::open(&journal).unwrap();
    let report = obs::verify_chain(std::io::BufReader::new(file)).expect("serve journal verifies");
    assert!(!report.records.is_empty());
}
