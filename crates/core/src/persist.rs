//! Crash-safe persistence of models and training artifacts.
//!
//! Every artifact the pipeline writes to disk goes through one of two
//! doors:
//!
//! * [`atomic_write_bytes`] — raw bytes (MRT dumps, CSV tables) written
//!   with the classic *tmp + fsync + rename + fsync(dir)* protocol, so a
//!   crash mid-write can never leave a truncated file under the final
//!   name: readers see either the old content or the new one, never a
//!   torn mix.
//! * [`save_artifact`] / [`load_artifact`] — self-describing artifacts
//!   (trained models, refinement checkpoints) framed by a one-line
//!   versioned header carrying the artifact kind, the payload length and
//!   an FNV-1a checksum:
//!
//!   ```text
//!   QUASAR1 model2 182733 9f0e4c61b2a7d455\n
//!   {"net":{...}}
//!   ```
//!
//!   Loads verify the frame and return a typed [`PersistError`] naming
//!   the byte offset of the first problem — a truncated payload, a
//!   checksum mismatch, a mangled header — instead of a raw serde panic
//!   or a misleading parse error deep inside the payload.
//!
//! Models written by earlier versions of `quasar train` are bare JSON
//! with no header, or frames of the older `model` kind whose policy rules
//! are all objects; [`load_model`] reads both transparently, so old
//! artifacts keep working.

use crate::model::AsRoutingModel;
use std::fmt;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic token opening every framed artifact (version 1 of the frame).
pub const MAGIC: &str = "QUASAR1";

/// Artifact kind string for trained models: JSON whose §4.6 policy rules
/// are written as tuples (see `quasar_bgpsim::policy`). A binary that
/// predates the tuple form refuses it as a kind mismatch.
pub const KIND_MODEL: &str = "model2";

/// Artifact kind of models written before [`KIND_MODEL`], with every
/// policy rule an object. [`load_model`] still reads it.
const KIND_MODEL_V1: &str = "model";

/// Artifact kind string for refinement checkpoints.
pub const KIND_CHECKPOINT: &str = "refine-checkpoint";

/// FNV-1a 64-bit checksum — the frame's integrity check. Not
/// cryptographic: it detects corruption (torn writes, bit rot, truncated
/// copies), not tampering.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What went wrong persisting or loading an artifact. Every variant
/// names the file; corruption variants name the byte offset where the
/// problem starts.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file (or directory) the operation targeted.
        path: PathBuf,
        /// Which step failed (`"write"`, `"rename"`, `"sync"`, ...).
        op: &'static str,
        /// The OS error.
        source: std::io::Error,
    },
    /// The header line is not `QUASAR1 <kind> <len> <checksum>`.
    BadHeader {
        /// The offending file.
        path: PathBuf,
        /// Byte offset of the first malformed header element.
        offset: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// The payload is shorter than the header's declared length — the
    /// classic signature of a crash mid-write (which the atomic writer
    /// makes impossible for its own outputs) or a truncated copy.
    Truncated {
        /// The offending file.
        path: PathBuf,
        /// Payload bytes the header promised.
        expected: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The payload does not hash to the header's checksum.
    ChecksumMismatch {
        /// The offending file.
        path: PathBuf,
        /// Checksum the header declared.
        expected: u64,
        /// Checksum of the bytes on disk.
        actual: u64,
    },
    /// The artifact is a valid frame of the wrong kind (e.g. a
    /// checkpoint passed to `--model`).
    KindMismatch {
        /// The offending file.
        path: PathBuf,
        /// The kind the caller asked for.
        expected: String,
        /// The kind the header declares.
        found: String,
    },
    /// The payload passed the frame checks but is not valid JSON for the
    /// expected type.
    Json {
        /// The offending file.
        path: PathBuf,
        /// Byte offset where the payload starts (0 for legacy bare-JSON
        /// files; the parser's own message pinpoints the error within
        /// the payload).
        offset: usize,
        /// The parser's diagnosis.
        detail: String,
    },
    /// A checkpoint directory holds no loadable checkpoint.
    NoCheckpoint {
        /// The directory that was scanned.
        dir: PathBuf,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, op, source } => {
                write!(f, "{op} {} failed: {source}", path.display())
            }
            PersistError::BadHeader {
                path,
                offset,
                detail,
            } => write!(
                f,
                "{}: corrupt artifact header at byte {offset}: {detail}",
                path.display()
            ),
            PersistError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{}: truncated payload at byte {actual} (header declares {expected} bytes)",
                path.display()
            ),
            PersistError::ChecksumMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{}: checksum mismatch (header {expected:016x}, payload hashes to {actual:016x})",
                path.display()
            ),
            PersistError::KindMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: artifact is a `{found}`, expected a `{expected}`",
                path.display()
            ),
            PersistError::Json {
                path,
                offset,
                detail,
            } => write!(
                f,
                "{}: payload (starting at byte {offset}) is not a valid artifact: {detail}",
                path.display()
            ),
            PersistError::NoCheckpoint { dir } => {
                write!(f, "{}: no loadable checkpoint found", dir.display())
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl PersistError {
    /// True for the variants that mean "the bytes on disk are damaged"
    /// (as opposed to the file being missing or unreadable).
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            PersistError::BadHeader { .. }
                | PersistError::Truncated { .. }
                | PersistError::ChecksumMismatch { .. }
                | PersistError::Json { .. }
        )
    }

    /// A recovery hint suitable for CLI error output, when one applies.
    pub fn hint(&self) -> Option<&'static str> {
        if self.is_corruption() {
            Some(
                "the artifact is damaged; re-run `quasar train`, or resume an \
                 interrupted training run from its checkpoint directory with \
                 `quasar train ... --checkpoint-dir D --resume`",
            )
        } else {
            None
        }
    }

    fn io(path: &Path, op: &'static str, source: std::io::Error) -> Self {
        PersistError::Io {
            path: path.to_path_buf(),
            op,
            source,
        }
    }
}

/// Failpoint helper: maps an armed `error` action at `point` to an
/// injected I/O error, so tests can fault any persistence step.
#[cfg(feature = "testkit")]
fn inject_io(point: &'static str, path: &Path) -> Result<(), PersistError> {
    if quasar_bgpsim::fail::inject(point) {
        return Err(PersistError::io(
            path,
            "write",
            std::io::Error::other(format!("fault injected by failpoint `{point}`")),
        ));
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: the data lands in a temporary
/// file in the same directory, is fsynced, and is renamed over the final
/// name (then the directory entry is fsynced). A reader — or a crash —
/// can observe the old file or the new file, never a partial one.
pub fn atomic_write_bytes(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), PersistError> {
    let path = path.as_ref();
    #[cfg(feature = "testkit")]
    inject_io("persist.write", path)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            PersistError::io(
                path,
                "resolve",
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name"),
            )
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(".{file_name}.tmp.{}", std::process::id()));

    let result = (|| {
        let mut f = File::create(&tmp).map_err(|e| PersistError::io(&tmp, "create", e))?;
        f.write_all(bytes)
            .map_err(|e| PersistError::io(&tmp, "write", e))?;
        f.sync_all()
            .map_err(|e| PersistError::io(&tmp, "sync", e))?;
        drop(f);
        #[cfg(feature = "testkit")]
        inject_io("persist.rename", path)?;
        fs::rename(&tmp, path).map_err(|e| PersistError::io(path, "rename", e))?;
        // Persist the directory entry too; some filesystems do not offer
        // directory fsync, so a failure here is not fatal to atomicity
        // of the content itself.
        if let Ok(d) = File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Frames `payload` with the versioned header and writes it atomically.
pub fn save_artifact(
    path: impl AsRef<Path>,
    kind: &str,
    payload: &[u8],
) -> Result<(), PersistError> {
    let header = format!("{MAGIC} {kind} {} {:016x}\n", payload.len(), fnv1a(payload));
    let mut bytes = Vec::with_capacity(header.len() + payload.len());
    bytes.extend_from_slice(header.as_bytes());
    bytes.extend_from_slice(payload);
    atomic_write_bytes(path, &bytes)
}

/// Reads and verifies a framed artifact of `kind`, returning the payload
/// and the length of the header it followed — 0 for a legacy (headerless)
/// artifact. Legacy files — anything not starting with the magic — are
/// returned as-is with no integrity check, which is exactly the guarantee
/// they were written under.
pub fn load_artifact(path: impl AsRef<Path>, kind: &str) -> Result<(Vec<u8>, usize), PersistError> {
    load_artifact_of(path.as_ref(), &[kind])
}

/// [`load_artifact`] accepting any of `kinds`; a mismatch names the first.
fn load_artifact_of(path: &Path, kinds: &[&str]) -> Result<(Vec<u8>, usize), PersistError> {
    let mut bytes = fs::read(path).map_err(|e| PersistError::io(path, "read", e))?;
    let magic_prefix = format!("{MAGIC} ");
    if !bytes.starts_with(magic_prefix.as_bytes()) {
        return Ok((bytes, 0));
    }
    let bad = |offset: usize, detail: String| PersistError::BadHeader {
        path: path.to_path_buf(),
        offset,
        detail,
    };
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| bad(bytes.len(), "unterminated header line".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|e| bad(e.valid_up_to(), "header is not UTF-8".into()))?;
    let mut fields = header.split(' ');
    let _magic = fields.next(); // verified by the prefix check
    let found_kind = fields
        .next()
        .ok_or_else(|| bad(magic_prefix.len(), "missing artifact kind".into()))?;
    let len_field = fields
        .next()
        .ok_or_else(|| bad(newline, "missing payload length".into()))?;
    let sum_field = fields
        .next()
        .ok_or_else(|| bad(newline, "missing checksum".into()))?;
    if fields.next().is_some() {
        return Err(bad(newline, "trailing header fields".into()));
    }
    let expected_len: usize = len_field.parse().map_err(|_| {
        bad(
            magic_prefix.len() + found_kind.len() + 1,
            format!("payload length `{len_field}` is not a number"),
        )
    })?;
    let expected_sum = u64::from_str_radix(sum_field, 16).map_err(|_| {
        bad(
            newline.saturating_sub(sum_field.len()),
            format!("checksum `{sum_field}` is not 16 hex digits"),
        )
    })?;
    if !kinds.contains(&found_kind) {
        return Err(PersistError::KindMismatch {
            path: path.to_path_buf(),
            expected: kinds.first().copied().unwrap_or_default().to_string(),
            found: found_kind.to_string(),
        });
    }
    let payload = &bytes[newline + 1..];
    if payload.len() != expected_len {
        return Err(PersistError::Truncated {
            path: path.to_path_buf(),
            expected: expected_len,
            actual: payload.len(),
        });
    }
    let actual_sum = fnv1a(payload);
    if actual_sum != expected_sum {
        return Err(PersistError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected: expected_sum,
            actual: actual_sum,
        });
    }
    bytes.drain(..=newline);
    Ok((bytes, newline + 1))
}

/// Serializes `model` and writes it as a framed `model` artifact.
/// Returns the payload's length in bytes.
pub fn save_model(path: impl AsRef<Path>, model: &AsRoutingModel) -> Result<usize, PersistError> {
    let path = path.as_ref();
    let json = model.to_json().map_err(|e| PersistError::Json {
        path: path.to_path_buf(),
        offset: 0,
        detail: e.to_string(),
    })?;
    save_artifact(path, KIND_MODEL, json.as_bytes())?;
    Ok(json.len())
}

/// Loads a model written by [`save_model`], a frame of the older `model`
/// kind, or a legacy bare-JSON model from before the framed format
/// existed.
/// Frame damage and payload parse failures both come back as typed
/// [`PersistError`]s, never a panic.
pub fn load_model(path: impl AsRef<Path>) -> Result<AsRoutingModel, PersistError> {
    let path = path.as_ref();
    let (payload, offset) = load_artifact_of(path, &[KIND_MODEL, KIND_MODEL_V1])?;
    let json = std::str::from_utf8(&payload).map_err(|e| PersistError::Json {
        path: path.to_path_buf(),
        offset: offset + e.valid_up_to(),
        detail: "payload is not UTF-8".into(),
    })?;
    AsRoutingModel::from_json(json).map_err(|e| PersistError::Json {
        path: path.to_path_buf(),
        offset,
        detail: e.to_string(),
    })
}

// ---------------------------------------------------------------------------
// Checkpoint directories
// ---------------------------------------------------------------------------

/// The file name of the checkpoint written after `round`.
pub fn checkpoint_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("ckpt-r{round:08}.qck"))
}

/// Rounds with a checkpoint file in `dir`, descending (newest first).
pub fn list_checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(round) = name
            .strip_prefix("ckpt-r")
            .and_then(|s| s.strip_suffix(".qck"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((round, entry.path()));
        }
    }
    out.sort_by_key(|&(round, _)| std::cmp::Reverse(round));
    out
}

/// Checkpoints kept in a directory: the newest plus one fallback, so a
/// damaged newest checkpoint still leaves one to resume from.
const CHECKPOINTS_KEPT: usize = 2;

/// Writes a checkpoint payload for `round` into `dir` (creating it) and
/// prunes all but the newest two checkpoints.
pub fn save_checkpoint_payload(dir: &Path, round: u64, payload: &[u8]) -> Result<(), PersistError> {
    fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, "create dir", e))?;
    save_artifact(checkpoint_path(dir, round), KIND_CHECKPOINT, payload)?;
    for (_, path) in list_checkpoints(dir).into_iter().skip(CHECKPOINTS_KEPT) {
        let _ = fs::remove_file(path);
    }
    Ok(())
}

/// Loads the newest checkpoint payload in `dir` that passes the frame
/// checks, falling back to older checkpoints when the newest is damaged
/// — the recovery path for a crash that somehow tore a checkpoint (e.g.
/// one written by a pre-atomic writer or a damaged disk).
pub fn load_latest_checkpoint_payload(dir: &Path) -> Result<(u64, Vec<u8>), PersistError> {
    let candidates = list_checkpoints(dir);
    let mut last_err: Option<PersistError> = None;
    for (round, path) in candidates {
        match load_artifact(&path, KIND_CHECKPOINT) {
            // A headerless file under a checkpoint name is not trusted.
            Ok((_, 0)) => {
                last_err = Some(PersistError::BadHeader {
                    path,
                    offset: 0,
                    detail: "checkpoint has no artifact header".into(),
                });
            }
            Ok((payload, _)) => return Ok((round, payload)),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or(PersistError::NoCheckpoint {
        dir: dir.to_path_buf(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("quasar-persist-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn artifact_roundtrip_and_legacy_fallback() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("a.bin");
        save_artifact(&path, "model", b"{\"x\":1}").unwrap();
        let (payload, header_len) = load_artifact(&path, "model").unwrap();
        assert_eq!(payload, b"{\"x\":1}");
        assert_eq!(header_len, fs::read(&path).unwrap().len() - payload.len());

        let bare = dir.join("bare.json");
        fs::write(&bare, b"{\"x\":2}").unwrap();
        let (payload, header_len) = load_artifact(&bare, "model").unwrap();
        assert_eq!(payload, b"{\"x\":2}");
        assert_eq!(header_len, 0, "a legacy file has no header");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_mismatch_and_checksum_and_truncation_are_typed() {
        let dir = tmp_dir("typed");
        let path = dir.join("a.bin");
        save_artifact(&path, KIND_CHECKPOINT, b"payload").unwrap();
        assert!(matches!(
            load_artifact(&path, KIND_MODEL),
            Err(PersistError::KindMismatch { .. })
        ));

        // Flip one payload byte: checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_artifact(&path, KIND_CHECKPOINT),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        // Drop trailing payload bytes: truncation, reported before any
        // checksum confusion.
        save_artifact(&path, KIND_CHECKPOINT, b"payload").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        match load_artifact(&path, KIND_CHECKPOINT) {
            Err(PersistError::Truncated {
                expected, actual, ..
            }) => {
                assert_eq!(expected, 7);
                assert_eq!(actual, 4);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_listing_pruning_and_fallback() {
        let dir = tmp_dir("ckpt");
        save_checkpoint_payload(&dir, 1, b"one").unwrap();
        save_checkpoint_payload(&dir, 2, b"two").unwrap();
        save_checkpoint_payload(&dir, 3, b"three").unwrap();
        // Round 1 pruned, 2 and 3 kept.
        let rounds: Vec<u64> = list_checkpoints(&dir).iter().map(|(r, _)| *r).collect();
        assert_eq!(rounds, vec![3, 2]);
        let (round, payload) = load_latest_checkpoint_payload(&dir).unwrap();
        assert_eq!((round, payload.as_slice()), (3, b"three".as_slice()));

        // Damage the newest: loader falls back to round 2.
        let newest = checkpoint_path(&dir, 3);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let (round, payload) = load_latest_checkpoint_payload(&dir).unwrap();
        assert_eq!((round, payload.as_slice()), (2, b"two".as_slice()));

        let empty = tmp_dir("ckpt-empty");
        assert!(matches!(
            load_latest_checkpoint_payload(&empty),
            Err(PersistError::NoCheckpoint { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&empty);
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = tmp_dir("atomic");
        let path = dir.join("out.bin");
        atomic_write_bytes(&path, b"hello").unwrap();
        atomic_write_bytes(&path, b"world").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"world");
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["out.bin".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }
}
