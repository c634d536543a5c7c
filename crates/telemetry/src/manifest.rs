//! Run-manifest provenance.
//!
//! Every persisted result (bench reports, figure/table JSON) carries a
//! manifest describing *which build produced it*: git commit, dirty flag,
//! and a wall-clock timestamp. Without this, two `BENCH_throughput.json`
//! files from different checkouts are indistinguishable, and the
//! regression guard in `scripts/verify.sh` would compare apples to
//! oranges silently.
//!
//! Provenance is best-effort: a checkout without git (or a stripped CI
//! tarball) reports `"unknown"` rather than failing the run.

use crate::json::Json;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Git provenance of the working tree, read once at manifest time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GitInfo {
    /// Full commit hash of `HEAD`, or `"unknown"`.
    pub commit: String,
    /// Whether the working tree had uncommitted changes (false when
    /// unknown).
    pub dirty: bool,
}

fn git_output(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Read git provenance for the current working directory.
pub fn git_info() -> GitInfo {
    let commit = git_output(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = git_output(&["status", "--porcelain"])
        .map(|s| !s.is_empty())
        .unwrap_or(false);
    GitInfo { commit, dirty }
}

/// Seconds since the Unix epoch (0 if the clock is unreadable).
pub fn unix_time() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The host's available parallelism (1 if unreadable). Recorded in
/// every manifest so throughput and scaling JSONs produced on different
/// machines stay interpretable — an aggregate rate means nothing
/// without the core count it was measured on.
pub fn host_parallelism() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Build the provenance object attached to persisted results:
/// `{ "git_commit", "git_dirty", "unix_time", "host_parallelism",
/// "tool" }`.
pub fn provenance() -> Json {
    let git = git_info();
    Json::Obj(vec![
        ("git_commit", Json::Str(git.commit)),
        ("git_dirty", Json::Bool(git.dirty)),
        ("unix_time", Json::UInt(unix_time())),
        ("host_parallelism", Json::UInt(host_parallelism())),
        (
            "tool",
            Json::Str(format!("qtaccel-telemetry {}", env!("CARGO_PKG_VERSION"))),
        ),
    ])
}

/// [`provenance`] plus the worker-thread count a scale-out run used —
/// the pair (`host_parallelism`, `worker_threads`) is what makes a
/// recorded parallel-efficiency figure reproducible.
pub fn provenance_with_workers(worker_threads: u64) -> Json {
    match provenance() {
        Json::Obj(mut fields) => {
            fields.push(("worker_threads", Json::UInt(worker_threads)));
            Json::Obj(fields)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn provenance_has_expected_fields() {
        let p = parse(&provenance().pretty()).unwrap();
        let commit = p.get("git_commit").unwrap().as_str().unwrap();
        assert!(!commit.is_empty());
        assert!(p.get("git_dirty").unwrap().as_bool().is_some());
        assert!(p.get("unix_time").unwrap().as_u64().is_some());
        assert!(p.get("host_parallelism").unwrap().as_u64().unwrap() >= 1);
        assert!(p
            .get("tool")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("qtaccel-telemetry"));
    }

    #[test]
    fn worker_manifest_extends_provenance() {
        let p = parse(&provenance_with_workers(6).pretty()).unwrap();
        assert_eq!(p.get("worker_threads").unwrap().as_u64(), Some(6));
        assert!(p.get("host_parallelism").unwrap().as_u64().unwrap() >= 1);
        assert!(p.get("git_commit").is_some());
    }

    #[test]
    fn git_info_in_this_repo_reads_a_hash() {
        // The workspace is a git checkout; a 40-hex commit (or "unknown"
        // outside git, e.g. a tarball build) are the only valid shapes.
        let info = git_info();
        assert!(
            info.commit == "unknown"
                || (info.commit.len() == 40 && info.commit.chars().all(|c| c.is_ascii_hexdigit()))
        );
    }
}
