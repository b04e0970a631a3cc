//! A fresh server for one pass: the engine a workload names, with its
//! journal opened on a file through the sink that workload's durability
//! calls for.

use crate::inputs::{Backend, Inputs};
use hka_core::{RequestService, TrustedServer};
use hka_shard::ShardedTs;
use std::io::Write;
use std::path::Path;

/// A file sink that forces every write to stable storage — the
/// "durable after every record" contract `hka-sim serve` is deployed
/// with, and the journal's worst case.
struct FsyncEachWrite(std::fs::File);

impl Write for FsyncEachWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write_all(buf)?;
        self.0.sync_data()?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// The concrete engine, kept concrete so the traced run can checkpoint
/// and restore it; the drivers only ever see [`Engine::svc`].
pub enum Engine {
    /// The sequential server.
    Seq(Box<TrustedServer>),
    /// The sharded server.
    Sharded(Box<ShardedTs>),
}

impl Engine {
    /// Constructs the server, registers services, users and LBQIDs, and
    /// opens a fresh journal at `journal` (truncating a previous pass's).
    pub fn build(inputs: &Inputs, journal: &Path) -> std::io::Result<Engine> {
        let file = std::fs::File::create(journal)?;
        Ok(match inputs.spec.backend {
            Backend::Sequential => {
                let mut ts = inputs.sequential();
                ts.attach_journal(hka_obs::Journal::new(
                    Box::new(std::io::BufWriter::new(file)) as Box<dyn Write + Send + Sync>,
                ));
                Engine::Seq(Box::new(ts))
            }
            Backend::SequentialFsync => {
                let mut ts = inputs.sequential();
                ts.attach_journal(hka_obs::Journal::new(
                    Box::new(FsyncEachWrite(file)) as Box<dyn Write + Send + Sync>
                ));
                Engine::Seq(Box::new(ts))
            }
            Backend::Sharded(shards) => {
                let mut ts = inputs.sharded(shards);
                // A bare `File` is a `DurableSink` whose `sync` is
                // `sync_data`: one fsync per group commit.
                ts.attach_journal(hka_obs::Journal::new(
                    Box::new(file) as Box<dyn hka_obs::DurableSink>
                ));
                Engine::Sharded(Box::new(ts))
            }
        })
    }

    /// The seam every driver talks to.
    pub fn svc(&mut self) -> &mut dyn RequestService {
        match self {
            Engine::Seq(ts) => &mut **ts,
            Engine::Sharded(ts) => &mut **ts,
        }
    }

    /// Hands the engine to the gateway.
    pub fn into_service(self) -> Box<dyn RequestService + Send> {
        match self {
            Engine::Seq(ts) => ts,
            Engine::Sharded(ts) => ts,
        }
    }
}
