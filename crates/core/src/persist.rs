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
//!   (trained models) framed by a one-line versioned header carrying the
//!   artifact kind, the payload length and an FNV-1a checksum:
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
//! * [`LogWriter`] / [`read_log`] — the append-only refinement log of a
//!   checkpoint or trainer-state directory: the same frames, one after
//!   another, each appended and fsynced as a unit of work finishes. A
//!   torn last frame is dropped on read; damage before it is an error.
//!
//! Every load goes through the frame check, so a file without the
//! header — such as the bare-JSON models of the earliest `quasar train`
//! builds — is refused as [`PersistError::BadHeader`] rather than read
//! unverified. Frames of the older `model` kind, whose policy rules are
//! all objects, still load through [`load_model`].

use crate::model::AsRoutingModel;
use std::fmt;
use std::fs::{self, File};
use std::io::Write;
use std::ops::Range;
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

/// Frame kind of a refinement log's header record (see [`LogWriter`]).
pub const KIND_CHECKPOINT: &str = "refine-log";

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
    /// refinement log passed to `--model`).
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
        /// Byte offset where the payload starts (0 when serializing
        /// failed before any bytes were written; the parser's own message
        /// pinpoints the error within the payload).
        offset: usize,
        /// The parser's diagnosis.
        detail: String,
    },
    /// A checkpoint directory holds no log, or one without a finished
    /// unit.
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
    /// A file with no `QUASAR1` header at all is not damaged but foreign
    /// (or a bare-JSON model from before artifacts were framed), so it
    /// gets its own hint.
    pub fn hint(&self) -> Option<&'static str> {
        match self {
            PersistError::BadHeader { offset: 0, .. } => Some(
                "the file is not a quasar artifact, or was written before artifacts \
                 were framed; retrain the model with `quasar train`",
            ),
            e if e.is_corruption() => Some(
                "the artifact is damaged; re-run `quasar train`, or resume an \
                 interrupted training run from its checkpoint directory with \
                 `quasar train ... --checkpoint-dir D --resume`",
            ),
            _ => None,
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
    atomic_write_bytes(path, &frame(kind, payload))
}

/// Reads and verifies a framed artifact of `kind`, returning the payload
/// and the length of the header it followed. A file that does not start
/// with the header is [`PersistError::BadHeader`].
pub fn load_artifact(path: impl AsRef<Path>, kind: &str) -> Result<(Vec<u8>, usize), PersistError> {
    load_artifact_of(path.as_ref(), &[kind])
}

/// [`load_artifact`] accepting any of `kinds`; a mismatch names the first.
fn load_artifact_of(path: &Path, kinds: &[&str]) -> Result<(Vec<u8>, usize), PersistError> {
    let mut bytes = fs::read(path).map_err(|e| PersistError::io(path, "read", e))?;
    let (_, payload) = read_frame(path, &bytes, 0, kinds)?;
    if payload.end != bytes.len() {
        return Err(PersistError::Truncated {
            path: path.to_path_buf(),
            expected: payload.len(),
            actual: bytes.len() - payload.start,
        });
    }
    bytes.drain(..payload.start);
    Ok((bytes, payload.start))
}

/// The frame of `payload`: the versioned header line, then the payload.
fn frame(kind: &str, payload: &[u8]) -> Vec<u8> {
    let header = format!("{MAGIC} {kind} {} {:016x}\n", payload.len(), fnv1a(payload));
    [header.as_bytes(), payload].concat()
}

/// Reads the frame that starts at byte `at` of `bytes` (the contents of
/// `path`): checks that its header line is `QUASAR1 <kind> <len>
/// <checksum>` with a kind among `kinds`, that the payload is all there
/// and that it matches the checksum. Returns the kind and where the
/// payload lies.
fn read_frame<'b>(
    path: &Path,
    bytes: &'b [u8],
    at: usize,
    kinds: &[&str],
) -> Result<(&'b str, Range<usize>), PersistError> {
    let path = path.to_path_buf();
    let bad = |offset: usize, detail: String| PersistError::BadHeader {
        path: path.clone(),
        offset,
        detail,
    };
    if !bytes[at..].starts_with(format!("{MAGIC} ").as_bytes()) {
        return Err(bad(at, format!("header does not start with `{MAGIC}`")));
    }
    let newline = at
        + bytes[at..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| bad(bytes.len(), "unterminated header line".into()))?;
    let header = std::str::from_utf8(&bytes[at..newline])
        .map_err(|e| bad(at + e.valid_up_to(), "header is not UTF-8".into()))?;
    let mut fields = header.split(' ').skip(1);
    let kind_at = at + MAGIC.len() + 1;
    let kind = fields
        .next()
        .ok_or_else(|| bad(kind_at, "missing artifact kind".into()))?;
    let len_field = fields
        .next()
        .ok_or_else(|| bad(newline, "missing payload length".into()))?;
    let sum_field = fields
        .next()
        .ok_or_else(|| bad(newline, "missing checksum".into()))?;
    if fields.next().is_some() {
        return Err(bad(newline, "trailing header fields".into()));
    }
    let len: usize = len_field.parse().map_err(|_| {
        bad(
            kind_at + kind.len() + 1,
            format!("payload length `{len_field}` is not a number"),
        )
    })?;
    let expected = u64::from_str_radix(sum_field, 16).map_err(|_| {
        bad(
            newline.saturating_sub(sum_field.len()),
            format!("checksum `{sum_field}` is not 16 hex digits"),
        )
    })?;
    if !kinds.contains(&kind) {
        return Err(PersistError::KindMismatch {
            path,
            expected: kinds.first().copied().unwrap_or_default().to_string(),
            found: kind.to_string(),
        });
    }
    let payload = newline + 1..(newline + 1).saturating_add(len);
    let Some(body) = bytes.get(payload.clone()) else {
        return Err(PersistError::Truncated {
            path,
            expected: len,
            actual: bytes.len() - payload.start,
        });
    };
    let actual = fnv1a(body);
    if actual != expected {
        return Err(PersistError::ChecksumMismatch {
            path,
            expected,
            actual,
        });
    }
    Ok((kind, payload))
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

/// Loads a model written by [`save_model`] or a frame of the older
/// `model` kind.
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
// Append-only logs
// ---------------------------------------------------------------------------

/// The file name of the log in a checkpoint or trainer-state directory.
pub const LOG_FILE: &str = "refine.qck";

/// The append side of the log in one directory: frames, the first of
/// kind [`KIND_CHECKPOINT`] (the header), the others unit records. Each
/// [`append`](Self::append) is fsynced before it returns, so a crash
/// loses at most the record being written, which [`read_log`] drops as a
/// torn tail.
#[derive(Debug)]
pub struct LogWriter {
    path: PathBuf,
    /// Open once the first record landed.
    file: Option<File>,
    /// The header frame until the first record lands with it.
    header: Vec<u8>,
}

impl LogWriter {
    /// Starts a new log in `dir`, creating the directory and deleting the
    /// log there. The file is written with the first record, so a
    /// directory without one holds no finished unit.
    pub fn create(dir: &Path, header: &[u8]) -> Result<Self, PersistError> {
        fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, "create dir", e))?;
        let path = dir.join(LOG_FILE);
        // Whatever the removal leaves, the first append truncates.
        let _ = fs::remove_file(&path);
        let header = frame(KIND_CHECKPOINT, header);
        Ok(LogWriter {
            path,
            file: None,
            header,
        })
    }

    /// Reopens the log `read` came from for appending, cutting off what
    /// lies past its intact frames.
    pub fn reopen(read: &LogRecords) -> Result<Self, PersistError> {
        let path = read.path.clone();
        let intact = read.frames.last().map_or(0, |(_, payload)| payload.end);
        let file = fs::OpenOptions::new().append(true).open(&path);
        let file = file.and_then(|f| f.set_len(intact as u64).map(|()| f));
        Ok(LogWriter {
            file: Some(file.map_err(|e| PersistError::io(&path, "truncate", e))?),
            path,
            header: Vec::new(),
        })
    }

    /// Appends one record of `kind` and fsyncs it.
    pub fn append(&mut self, kind: &str, payload: &[u8]) -> Result<(), PersistError> {
        let path = &self.path;
        let file = match &mut self.file {
            Some(file) => file,
            None => self
                .file
                .insert(File::create(path).map_err(|e| PersistError::io(path, "create", e))?),
        };
        let bytes = [std::mem::take(&mut self.header), frame(kind, payload)].concat();
        file.write_all(&bytes)
            .and_then(|()| file.sync_data())
            .map_err(|e| PersistError::io(path, "write", e))
    }
}

/// Writes a whole log into `dir` at once (creating the directory),
/// atomically replacing the log there: `header`, then `records` as
/// `(kind, payload)` pairs.
pub fn save_log<'a>(
    dir: &Path,
    header: &[u8],
    records: impl IntoIterator<Item = (&'a str, Vec<u8>)>,
) -> Result<(), PersistError> {
    fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, "create dir", e))?;
    let mut bytes = frame(KIND_CHECKPOINT, header);
    for (kind, payload) in records {
        bytes.extend_from_slice(&frame(kind, &payload));
    }
    atomic_write_bytes(dir.join(LOG_FILE), &bytes)
}

/// A log read back by [`read_log`].
#[derive(Debug)]
pub struct LogRecords {
    /// The log file.
    pub path: PathBuf,
    /// Its bytes.
    pub bytes: Vec<u8>,
    /// Each intact frame's kind and payload range, the header first; a
    /// torn tail lies past the last.
    pub frames: Vec<(String, Range<usize>)>,
}

/// Reads the log in `dir`, whose unit records must be of one of `kinds`.
/// A torn last record — one whose write was cut short — is dropped; any
/// other damage is a typed error. (A payload holding a newline could hide
/// a torn record; log payloads are compact JSON, which holds none.) A
/// missing log, or one whose header never landed, is
/// [`PersistError::NoCheckpoint`].
pub fn read_log(dir: &Path, kinds: &[&str]) -> Result<LogRecords, PersistError> {
    let path = dir.join(LOG_FILE);
    let none = || PersistError::NoCheckpoint {
        dir: dir.to_path_buf(),
    };
    let bytes = fs::read(&path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => none(),
        _ => PersistError::io(&path, "read", e),
    })?;
    // A torn record is the last: no later header line follows its own.
    let lines = |at: usize| bytes[at..].iter().filter(|&&b| b == b'\n').count();
    let mut frames = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let kinds = if at == 0 { &[KIND_CHECKPOINT] } else { kinds };
        match read_frame(&path, &bytes, at, kinds) {
            Ok((kind, payload)) => {
                at = payload.end;
                frames.push((kind.to_string(), payload));
            }
            Err(PersistError::BadHeader { .. }) if lines(at) == 0 => break,
            Err(PersistError::Truncated { .. }) if lines(at) == 1 => break,
            Err(e) => return Err(e),
        }
    }
    if frames.is_empty() {
        return Err(none());
    }
    Ok(LogRecords {
        path,
        bytes,
        frames,
    })
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
    fn artifact_roundtrip_and_headerless_refusal() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("a.bin");
        save_artifact(&path, "model", b"{\"x\":1}").unwrap();
        let (payload, header_len) = load_artifact(&path, "model").unwrap();
        assert_eq!(payload, b"{\"x\":1}");
        assert_eq!(header_len, fs::read(&path).unwrap().len() - payload.len());

        let bare = dir.join("bare.json");
        fs::write(&bare, b"{\"x\":2}").unwrap();
        match load_artifact(&bare, "model") {
            Err(PersistError::BadHeader { offset: 0, .. }) => {}
            other => panic!("a headerless file must be refused, got {other:?}"),
        }
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
    fn log_drops_a_torn_tail_and_refuses_damage() {
        let dir = tmp_dir("log");
        assert!(matches!(
            read_log(&dir, &["unit"]),
            Err(PersistError::NoCheckpoint { .. })
        ));
        let mut log = LogWriter::create(&dir, b"head").unwrap();
        assert!(
            !dir.join(LOG_FILE).exists(),
            "the file lands with the first record"
        );
        log.append("unit", b"one").unwrap();
        log.append("unit", b"two").unwrap();
        let whole = fs::read(dir.join(LOG_FILE)).unwrap();
        let read = read_log(&dir, &["unit"]).unwrap();
        let payloads: Vec<&[u8]> = read
            .frames
            .iter()
            .map(|f| &read.bytes[f.1.clone()])
            .collect();
        assert_eq!(payloads, [b"head".as_slice(), b"one", b"two"]);
        assert_eq!(read.frames[2].1.end, whole.len());

        // Every cut inside the last record drops it, and appending after
        // a reopen replaces the torn bytes.
        let two_at = read.frames[1].1.end;
        for cut in two_at + 1..whole.len() {
            fs::write(dir.join(LOG_FILE), &whole[..cut]).unwrap();
            let read = read_log(&dir, &["unit"]).unwrap();
            assert_eq!(
                (read.frames.len(), read.frames[1].1.end),
                (2, two_at),
                "cut {cut}"
            );
        }
        let mut log = LogWriter::reopen(&read_log(&dir, &["unit"]).unwrap()).unwrap();
        log.append("unit", b"two").unwrap();
        assert_eq!(fs::read(dir.join(LOG_FILE)).unwrap(), whole);

        // A flipped byte is an error, in the last record too, and so is
        // a length that runs past the records after it, or a record of a
        // kind the reader does not know.
        for at in [two_at - 1, whole.len() - 1] {
            let mut damaged = whole.clone();
            damaged[at] ^= 0x01;
            fs::write(dir.join(LOG_FILE), &damaged).unwrap();
            let err = read_log(&dir, &["unit"]).unwrap_err();
            assert!(
                matches!(err, PersistError::ChecksumMismatch { .. }),
                "{err}"
            );
        }
        let longer = String::from_utf8(whole.clone())
            .unwrap()
            .replacen(" 3 ", " 300 ", 1);
        fs::write(dir.join(LOG_FILE), longer).unwrap();
        assert!(matches!(
            read_log(&dir, &["unit"]),
            Err(PersistError::Truncated { .. })
        ));
        fs::write(dir.join(LOG_FILE), &whole).unwrap();
        assert!(matches!(
            read_log(&dir, &["other"]),
            Err(PersistError::KindMismatch { .. })
        ));

        // A whole log saved at once reads back the same.
        save_log(
            &dir,
            b"head",
            [("unit", b"one".to_vec()), ("unit", b"two".to_vec())],
        )
        .unwrap();
        assert_eq!(fs::read(dir.join(LOG_FILE)).unwrap(), whole);
        let _ = fs::remove_dir_all(&dir);
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
