//! What the integration tests share; each test binary uses a part.

#![allow(dead_code)]

use std::io::Write;
use std::sync::{Arc, Mutex};

/// An in-memory journal sink whose clones share one buffer, readable
/// after the run, on either cadence.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// What has been written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Write for SharedBuf {
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

impl hka::obs::DurableSink for SharedBuf {}

/// A city 2 km square over `days`: four commuters among sixteen
/// roamers.
pub fn small_world(seed: u64, days: i64) -> hka::mobility::World {
    use hka::mobility::{CityConfig, World, WorldConfig};
    World::generate(&WorldConfig {
        seed,
        days,
        n_commuters: 4,
        n_roamers: 16,
        n_poi_regulars: 2,
        city: CityConfig {
            width: 2_000.0,
            height: 2_000.0,
            ..CityConfig::default()
        },
        ..WorldConfig::default()
    })
}

/// Protection at `k`, starting from k' = 2k and one lower per request;
/// an at-risk request is still forwarded (clamped), so the gate's rules
/// are exercised.
pub fn protected(k: usize) -> hka::core::PrivacyLevel {
    use hka::core::{PrivacyLevel, PrivacyParams, RiskAction};
    PrivacyLevel::Custom(PrivacyParams {
        k,
        theta: 0.5,
        k_init: 2 * k,
        k_decrement: 1,
        on_risk: RiskAction::Forward,
    })
}

/// A per-record journal appending to the file at `path`.
pub fn file_journal(path: &std::path::Path) -> hka::obs::BoxedJournal {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    hka::obs::Journal::new(Box::new(std::io::BufWriter::new(file)) as Box<dyn Write + Send + Sync>)
}

/// The head of a record torn mid-append: no newline, and longer than
/// the `journal.recovered` marker that recovery writes where it began.
pub fn torn_record() -> Vec<u8> {
    let mut torn = br#"{"hash":"torn-mid-append"#.to_vec();
    torn.resize(512, b'0');
    torn
}

/// A crash: the sink is dropped (flushing what it buffered) and `torn`
/// bytes are left at the tail, the shape a single-write append tears
/// into. `obs::recover` truncates them, leaving a journal that
/// verifies, and the writer resumes the chain from the recovered head.
pub fn crash_and_recover(
    ts: &mut hka::core::TrustedServer,
    journal: &std::path::Path,
    torn: &[u8],
) -> hka::obs::RecoveryReport {
    drop(ts.take_journal());
    if !torn.is_empty() {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(journal)
            .unwrap();
        f.write_all(torn).unwrap();
    }
    let (recovered, report) = hka::obs::recover(journal).unwrap();
    let file = std::io::BufReader::new(std::fs::File::open(journal).unwrap());
    hka::obs::verify_chain(file).expect("the recovered journal verifies");
    let next_seq = recovered.next_seq();
    let head = recovered.head().to_string();
    ts.attach_journal(hka::obs::Journal::resume(
        Box::new(std::io::BufWriter::new(recovered.into_inner())) as Box<dyn Write + Send + Sync>,
        next_seq,
        head,
    ));
    report
}

/// Delivers one workload event through the `RequestService` seam, the
/// interface the TCP gateway serves; a request arrives as many times as
/// `injector` perturbs it into ([`hka::arrivals`]) and is drained.
/// Returns how many of its deliveries were rejected.
pub fn serve_event(
    svc: &mut dyn hka::core::RequestService,
    id: u64,
    e: &hka::mobility::Event,
    injector: Option<&hka::faults::FaultInjector>,
) -> usize {
    use hka::core::{RequestEnvelope, WireOutcome};
    let hka::mobility::EventKind::Request { service } = e.kind else {
        svc.submit(&RequestEnvelope::location(id, e.user, e.at));
        return 0;
    };
    for at in hka::arrivals(injector, e.at) {
        let service = hka::anonymity::ServiceId(service);
        svc.submit(&RequestEnvelope::request(id, e.user, at, service));
    }
    svc.drain()
        .iter()
        .filter(|r| r.outcome == WireOutcome::Rejected)
        .count()
}
