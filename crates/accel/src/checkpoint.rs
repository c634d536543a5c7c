//! Crash-safe checkpoint container: versioned header, CRC-32 footer,
//! atomic write-then-rename.
//!
//! This module owns the *container* — the byte format, integrity
//! checking and durable file replacement. What goes inside (the full
//! mutable state of an [`AccelPipeline`]: Q/Qmax images, the three LFSR
//! states, cycle/sample counters, in-flight write queues, and the fault
//! runtime if one is attached) is encoded by
//! [`AccelPipeline::checkpoint_bytes`] and decoded by
//! [`AccelPipeline::restore_checkpoint_bytes`], which live next to the
//! pipeline because they touch every private field.
//!
//! ## Format
//!
//! A checkpoint is a `qtaccel_telemetry::frame` container, the same
//! word container the QTACWIRE frames use:
//!
//! ```text
//! word 0       magic  "QTACCKPT"
//! word 1       format version (this module understands version 1)
//! word 2..n    payload (pipeline-defined)
//! word n       CRC-32/ISO-HDLC of words 0..n, zero-extended to 64 bits
//! ```
//!
//! This module adds only the checkpoint's header words, its container
//! check ([`CheckpointError`] precedence: shape, CRC, magic, version)
//! and the mapping of the shared reader's errors onto that enum.
//!
//! ## Durability
//!
//! [`atomic_write`] stages the bytes in a sibling `*.tmp` file, fsyncs
//! it, renames it over the destination, and fsyncs the directory. A
//! crash at any point leaves either the old complete checkpoint or the
//! new complete checkpoint — never a torn file. A torn or tampered file
//! is still *detected* (CRC/magic/version/truncation) and refused with a
//! typed [`CheckpointError`] rather than restored into a half-written
//! pipeline.
//!
//! [`AccelPipeline`]: crate::AccelPipeline
//! [`AccelPipeline::checkpoint_bytes`]: crate::AccelPipeline::checkpoint_bytes
//! [`AccelPipeline::restore_checkpoint_bytes`]: crate::AccelPipeline::restore_checkpoint_bytes

use qtaccel_telemetry::durable;
use qtaccel_telemetry::frame::{self, ReadError, WordReader, COUNTER_LIMIT};
use std::path::Path;

/// `"QTACCKPT"` in ASCII — the first word of every checkpoint file.
pub const MAGIC: u64 = u64::from_le_bytes(*b"QTACCKPT");

/// Container format version this build writes and understands.
pub const VERSION: u64 = 1;

/// Why a checkpoint could not be saved or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure (open, read, write, rename, sync).
    Io(std::io::Error),
    /// The file ended before the declared content (or is not a whole
    /// number of words / too short to hold header + footer).
    Truncated,
    /// The first word is not the checkpoint magic — not a checkpoint.
    BadMagic,
    /// A checkpoint, but written by an incompatible format version.
    BadVersion {
        /// The version word found in the file.
        found: u64,
    },
    /// The CRC-32 footer does not match the content: torn write or
    /// corruption.
    BadCrc,
    /// The checkpoint is internally valid but was taken from a pipeline
    /// whose shape/format differs from the one restoring it, or holds a
    /// value that pipeline cannot take (an index past its shape, a
    /// counter past `frame::COUNTER_LIMIT`).
    Mismatch {
        /// Which field disagreed (e.g. `"num_states"`, `"format"`).
        field: &'static str,
        /// The restoring pipeline's value.
        expected: String,
        /// The checkpointed value.
        found: String,
    },
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::BadMagic => write!(f, "not a QTAccel checkpoint (bad magic)"),
            CheckpointError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (this build reads {VERSION})"
                )
            }
            CheckpointError::BadCrc => write!(f, "checkpoint CRC mismatch (corrupt file)"),
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {field} mismatch: pipeline has {expected}, checkpoint has {found}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ReadError> for CheckpointError {
    fn from(e: ReadError) -> Self {
        match e {
            // Restore reads trailing sections as optional and never
            // calls `finish`, so `Trailing` cannot arise; a count or
            // string length the payload cannot hold is a short file.
            ReadError::Short | ReadError::Trailing => CheckpointError::Truncated,
            // A non-UTF-8 string in a CRC-valid file is damage the CRC
            // missed.
            ReadError::NotUtf8 => CheckpointError::BadCrc,
        }
    }
}

/// Verify container integrity (shape, CRC, magic, version) and return a
/// reader positioned on the first payload word.
pub(crate) fn open(bytes: &[u8]) -> Result<WordReader<'_>, CheckpointError> {
    // Header (2 words) + CRC footer (1 word) is the minimum file.
    if !bytes.len().is_multiple_of(8) || bytes.len() < 24 {
        return Err(CheckpointError::Truncated);
    }
    if !frame::crc_ok(bytes) {
        return Err(CheckpointError::BadCrc);
    }
    if frame::word(bytes, 0) != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = frame::word(bytes, 1);
    if version != VERSION {
        return Err(CheckpointError::BadVersion { found: version });
    }
    Ok(WordReader::new(&bytes[16..bytes.len() - 8]))
}

/// A restored word, refused with [`CheckpointError::Mismatch`] unless it
/// is below `bound`.
pub(crate) fn below(field: &'static str, value: u64, bound: u64) -> Result<u64, CheckpointError> {
    if value < bound {
        Ok(value)
    } else {
        Err(CheckpointError::Mismatch {
            field,
            expected: format!("a value below {bound}"),
            found: value.to_string(),
        })
    }
}

/// A restored word, refused with [`CheckpointError::Mismatch`] unless it
/// is `expected`, the restoring pipeline's own value.
pub(crate) fn same(field: &'static str, value: u64, expected: u64) -> Result<u64, CheckpointError> {
    if value == expected {
        Ok(value)
    } else {
        Err(CheckpointError::Mismatch {
            field,
            expected: expected.to_string(),
            found: value.to_string(),
        })
    }
}

/// A restored index, checked against the restoring pipeline's shape: a
/// forged or foreign index must not reach a memory image.
pub(crate) fn index(
    field: &'static str,
    value: u64,
    bound: usize,
) -> Result<usize, CheckpointError> {
    below(field, value, bound as u64).map(|i| i as usize)
}

/// A restored event counter or clock, checked against
/// [`COUNTER_LIMIT`]: a forged value must not overflow the engine's
/// increments.
pub(crate) fn counter(field: &'static str, value: u64) -> Result<u64, CheckpointError> {
    below(field, value, COUNTER_LIMIT)
}

/// A restored probability (an SEU rate), checked to lie in `[0, 1]`.
pub(crate) fn probability(field: &'static str, value: f64) -> Result<f64, CheckpointError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(CheckpointError::Mismatch {
            field,
            expected: "a probability in [0, 1]".to_string(),
            found: value.to_string(),
        })
    }
}

/// Durably replace `path` with `bytes`: stage in a sibling `*.tmp`,
/// fsync, rename over the destination, fsync the directory
/// ([`qtaccel_telemetry::durable::atomic_write`]), with the checkpoint
/// error type.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    Ok(durable::atomic_write(path, bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_telemetry::frame::WordWriter;
    use std::fs;
    use std::path::PathBuf;

    #[test]
    fn truncated_and_corrupt_containers_are_refused() {
        let mut w = WordWriter::new(MAGIC, VERSION);
        w.push(1);
        let bytes = w.seal();
        assert!(matches!(
            open(&bytes[..bytes.len() - 8]),
            Err(CheckpointError::BadCrc) | Err(CheckpointError::Truncated)
        ));
        assert!(matches!(open(&bytes[..7]), Err(CheckpointError::Truncated)));
        let mut flipped = bytes.clone();
        flipped[16] ^= 1;
        assert!(matches!(open(&flipped), Err(CheckpointError::BadCrc)));
        // A CRC-valid container whose payload runs short.
        let mut r = open(&bytes).expect("valid container");
        assert_eq!(r.take().unwrap(), 1);
        assert!(matches!(
            r.take().map_err(CheckpointError::from),
            Err(CheckpointError::Truncated)
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        // Not a checkpoint at all (but CRC-consistent).
        let mut w = WordWriter::new(0xDEAD_BEEF, VERSION);
        w.push(0);
        assert!(matches!(open(&w.seal()), Err(CheckpointError::BadMagic)));
        // A future version.
        let mut w = WordWriter::new(MAGIC, VERSION + 9);
        w.push(0);
        assert!(matches!(
            open(&w.seal()),
            Err(CheckpointError::BadVersion { found }) if found == VERSION + 9
        ));
    }

    #[test]
    fn atomic_write_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join("qtaccel-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.ckpt");
        atomic_write(&path, b"hello").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        atomic_write(&path, b"world").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"world");
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists(), "staging file must be gone");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_render_and_chain() {
        let e = CheckpointError::BadVersion { found: 3 };
        assert!(e.to_string().contains("version 3"));
        let io = CheckpointError::from(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
        use std::error::Error as _;
        assert!(io.source().is_some());
        let m = CheckpointError::Mismatch {
            field: "num_states",
            expected: "64".into(),
            found: "128".into(),
        };
        assert!(m.to_string().contains("num_states"));
    }
}
