//! Durable file replacement: the one way the workspace writes a file
//! that must survive a crash whole — checkpoints
//! (`accel::checkpoint::atomic_write`) and flight-recorder dumps
//! ([`FlightRecorder::dump_to`](crate::FlightRecorder::dump_to)).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Durably replace `path` with `bytes`: stage them in a sibling `*.tmp`
/// file, fsync it, rename it over the destination, and fsync the
/// directory (best-effort). A crash at any point leaves either the old
/// complete file or the new complete file, never a torn one, and the
/// old file's inode is never rewritten.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    };
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable. Directory fsync is best-effort:
    // some filesystems refuse to sync a directory handle.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}
