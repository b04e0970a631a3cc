//! Harness-side spans for the traced run.
//!
//! The drivers are generic over [`Tracer`]: the untraced passes that
//! produce the end-to-end metrics run with [`NoTrace`], which compiles
//! to nothing, and the traced pass runs the same code with a
//! [`Recorder`] that keeps every span in memory until the run ends.
//! Spans wrap calls *into* the program (`submit`, `drain`,
//! `flush_journal`, socket writes and reads, `replay_file`); spans
//! inside the program are a later issue.

use std::io::Write;
use std::time::Instant;

/// No request: the span belongs to a phase, not to one request.
pub const NO_REQ: u64 = u64::MAX;
const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder, if any.
    parent: u32,
    /// The request this work belongs to ([`NO_REQ`] for phase spans).
    pub req: u64,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Calls the span stands for (a run of location submits is one
    /// span: timing each ~300 ns call on its own would cost more than
    /// the call).
    pub calls: u32,
}

impl Span {
    /// The span's length.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What the drivers call at every boundary.
pub trait Tracer {
    /// Opens a span under the innermost open one; returns its handle.
    fn open(&mut self, name: &'static str, req: u64) -> u32;
    /// Closes `id`, which stood for `calls` calls into the program.
    fn close(&mut self, id: u32, calls: u32);
}

/// The tracer of untraced passes.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn open(&mut self, _name: &'static str, _req: u64) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _id: u32, _calls: u32) {}
}

/// Keeps spans in memory; one per thread that calls into the program.
pub struct Recorder {
    thread: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// between the threads of a pass so their spans line up).
    pub fn new(thread: &'static str, epoch: Instant) -> Recorder {
        Recorder {
            thread,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total length and total calls of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| {
                (ns + s.ns(), calls + u64::from(s.calls))
            })
    }

    /// A span's self time: its length minus the part its direct
    /// children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ns().saturating_sub(*c))
            .sum()
    }
}

impl Tracer for Recorder {
    fn open(&mut self, name: &'static str, req: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            req,
            start_ns,
            end_ns: start_ns,
            calls: 0,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: u32, calls: u32) {
        let end_ns = self.now();
        // Spans close innermost-first; tolerate a skipped close by
        // unwinding to `id` so parentage stays a tree.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.calls = calls;
    }
}

/// Writes the recorders' spans as one JSON object per line:
/// `name, thread, id, parent, req, start_ns, end_ns, calls`.
pub fn write_jsonl(path: &std::path::Path, recorders: &[&Recorder]) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0usize;
    for r in recorders {
        for (id, s) in r.spans.iter().enumerate() {
            write!(
                out,
                "{{\"name\":\"{}\",\"thread\":\"{}\",\"id\":{id},\"parent\":",
                s.name, r.thread
            )?;
            match s.parent {
                NO_PARENT => write!(out, "null")?,
                p => write!(out, "{p}")?,
            }
            match s.req {
                NO_REQ => write!(out, ",\"req\":null")?,
                q => write!(out, ",\"req\":{q}")?,
            }
            writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.start_ns, s.end_ns, s.calls
            )?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut r = Recorder::new("main", Instant::now());
        let serve = r.open("serve", NO_REQ);
        let req = r.open("request", 7);
        let sub = r.open("submit", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(sub, 1);
        r.close(req, 1);
        r.close(serve, 1);

        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[2].req, 7);
        assert!(spans[2].ns() >= 2_000_000);
        // The request span is almost entirely its submit child.
        assert!(r.self_ns("request") < spans[1].ns() - spans[2].ns() + 1);
        assert_eq!(r.total("submit").1, 1);
    }
}
