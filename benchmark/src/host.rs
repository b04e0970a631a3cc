//! What the numbers were measured on: the host fingerprint every result
//! record carries, and the process's peak resident set.

use hka_obs::Json;
use std::path::Path;

/// Cores, kernel, the journal directory's filesystem and the build
/// profile — the facts a reader needs before comparing two records.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `fstype on device` of the mount holding the journal directory.
    pub journal_fs: String,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl Fingerprint {
    /// Reads the fingerprint; `journal_dir` must exist.
    pub fn read(journal_dir: &Path) -> Fingerprint {
        Fingerprint {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            journal_fs: filesystem_of(journal_dir),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// The record form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cores", Json::from(self.cores as u64)),
            ("kernel", Json::from(self.kernel.as_str())),
            ("journal_fs", Json::from(self.journal_fs.as_str())),
            ("profile", Json::from(self.profile)),
        ])
    }
}

/// The mount with the longest mount point that prefixes `dir`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split(' ');
        let (Some(dev), Some(point), Some(fstype)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if dir.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), format!("{fstype} on {dev}")));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// One `kB` line of `/proc/self/status` in MB (0 where there is none).
fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set of this process now, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// `VmHWM`: the largest resident set since the process started or since
/// [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Restarts `VmHWM` from the current resident set (`5` to
/// `/proc/self/clear_refs`), so that what the generator needed while it
/// ran is not read as the server's peak. `false` where the kernel
/// refuses; the peak then still covers the generator.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
