//! The one append-only log format, shared by the block archive and the page
//! spill log.
//!
//! Every frame is a `u32` little-endian body length, the body's 32-byte
//! domain-separated digest, then the body. The format is private to this
//! module: no other code writes or parses a frame header. A log lives in
//! memory or in a file. Reading a frame back through its [`FrameRef`]
//! checks the stored header against the handle and hashes the body once;
//! reading a whole file ([`FramedLog::read_all`]) or reopening one
//! ([`FramedLog::open`]) re-verifies every frame from offset 0.
//!
//! Offsets are monotone over the life of a log: [`FramedLog::clear`] drops
//! every frame but never reuses an offset, so a handle to a dropped frame
//! fails with [`LogError::Compacted`] instead of reading what replaced it.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use duc_crypto::{hash_parts, Digest};

/// Bytes ahead of every frame body: its length, then its digest.
const HEADER: usize = 4 + 32;

fn frame_digest(body: &[u8]) -> Digest {
    hash_parts(&[b"duc/frame", body])
}

/// The `(len, digest)` the header at the start of `bytes` records, if all
/// of it is there.
fn parse_header(bytes: &[u8]) -> Option<(u32, Digest)> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*len), Digest(*rest.first_chunk::<32>()?)))
}

/// Handle to one frame: where it starts, the length of its body, and the
/// digest the body must hash to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef {
    /// Offset of the frame in its log; never reused, even after the log
    /// is emptied.
    pub offset: u64,
    /// Body length in bytes (the header is not counted).
    pub len: u32,
    /// Digest of the body, verified on every read.
    pub digest: Digest,
}

/// Failure reading a [`FramedLog`].
#[derive(Debug)]
pub enum LogError {
    /// The frame lies below the log's start: emptying the log (the page
    /// store's compaction) dropped it and the handle is stale — the
    /// [`PrunedRange`](crate::PrunedRange) pattern applied to logs.
    Compacted {
        /// The offset the caller asked to read.
        requested: u64,
        /// The log's start: the lowest offset still readable.
        horizon: u64,
    },
    /// The frame at `offset` is not what was appended there: its header
    /// disagrees with the handle, its body with the digest, or (reading a
    /// whole file) it runs past the end of the file.
    Corrupt {
        /// The log's file; `None` for an in-memory log.
        file: Option<PathBuf>,
        /// Offset of the frame.
        offset: u64,
    },
    /// Underlying file I/O failure.
    Io(io::Error),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Compacted { requested, horizon } => write!(
                f,
                "requested frame at offset {requested} but everything below {horizon} is compacted"
            ),
            LogError::Corrupt { file, offset } => {
                let log = file.as_deref().map_or_else(
                    || "the in-memory log".to_string(),
                    |path| path.display().to_string(),
                );
                write!(f, "frame at offset {offset} of {log} fails verification")
            }
            LogError::Io(e) => write!(f, "framed log I/O error: {e}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

enum Backend {
    Mem(Vec<u8>),
    File { path: PathBuf, file: File },
}

/// An append-only log of digest-verified frames, in memory or in a file.
pub struct FramedLog {
    backend: Backend,
    /// Offset of the backend's first byte; everything below was cleared.
    start: u64,
    /// Offset just past the last frame, where the next one goes.
    end: u64,
}

impl fmt::Debug for FramedLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FramedLog")
            .field("path", &self.path())
            .field("start", &self.start)
            .field("end", &self.end)
            .finish()
    }
}

/// Walks the frames of a log file's `bytes` from offset 0, handing each
/// verified body to `each`, and returns where the last complete frame
/// ends. Anything past that is a frame cut short: a torn append.
///
/// # Errors
/// [`LogError::Corrupt`] at the first complete frame whose body does not
/// hash to its header's digest.
fn scan(bytes: &[u8], path: &Path, mut each: impl FnMut(&[u8])) -> Result<usize, LogError> {
    let mut at = 0;
    while let Some((len, digest)) = parse_header(&bytes[at..]) {
        let Some(body) = bytes[at + HEADER..].get(..len as usize) else {
            break;
        };
        if frame_digest(body) != digest {
            return Err(LogError::Corrupt {
                file: Some(path.to_path_buf()),
                offset: at as u64,
            });
        }
        each(body);
        at += HEADER + body.len();
    }
    Ok(at)
}

impl FramedLog {
    /// An empty in-memory log.
    #[must_use]
    pub(crate) fn in_memory() -> FramedLog {
        FramedLog {
            backend: Backend::Mem(Vec::new()),
            start: 0,
            end: 0,
        }
    }

    /// Opens the log file at `path` for appending, creating it if absent.
    /// The frames already there are verified: a last frame cut short — the
    /// normal crash artifact — is truncated away, so the next append starts
    /// on a frame boundary. A length that runs past the end of the file is
    /// indistinguishable from such a tear and is cut off with it.
    ///
    /// # Errors
    /// [`LogError::Corrupt`] at the first complete frame whose digest
    /// fails; [`LogError::Io`] on file failures.
    pub fn open(path: impl Into<PathBuf>) -> Result<FramedLog, LogError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let end = scan(&bytes, &path, |_| ())? as u64;
        file.set_len(end)?;
        Ok(FramedLog {
            backend: Backend::File { path, file },
            start: 0,
            end,
        })
    }

    /// Every frame body of the log file at `path`, in order.
    ///
    /// # Errors
    /// [`LogError::Corrupt`] at the first frame that fails its digest or
    /// runs past the end of the file (a torn tail [`FramedLog::open`] has
    /// not yet cut off); [`LogError::Io`] on read failures.
    pub fn read_all(path: impl AsRef<Path>) -> Result<Vec<Vec<u8>>, LogError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let mut frames = Vec::new();
        let end = scan(&bytes, path, |body| frames.push(body.to_vec()))?;
        if end < bytes.len() {
            return Err(LogError::Corrupt {
                file: Some(path.to_path_buf()),
                offset: end as u64,
            });
        }
        Ok(frames)
    }

    /// The log's file, if it has one.
    #[must_use]
    pub(crate) fn path(&self) -> Option<&Path> {
        match &self.backend {
            Backend::Mem(_) => None,
            Backend::File { path, .. } => Some(path),
        }
    }

    /// Appends one frame.
    ///
    /// # Errors
    /// `InvalidInput` for a body over `u32::MAX` bytes; file write
    /// failures.
    pub fn append(&mut self, body: &[u8]) -> io::Result<FrameRef> {
        self.append_hashed(body, frame_digest(body))
    }

    /// [`FramedLog::append`] for a body whose `digest` the caller has
    /// already verified (a frame carried over from a read).
    pub(crate) fn append_hashed(&mut self, body: &[u8], digest: Digest) -> io::Result<FrameRef> {
        let len = u32::try_from(body.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
        let mut header = [0u8; HEADER];
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&digest.0);
        match &mut self.backend {
            Backend::Mem(buf) => {
                buf.extend_from_slice(&header);
                buf.extend_from_slice(body);
            }
            Backend::File { file, .. } => {
                file.seek(SeekFrom::Start(self.end - self.start))?;
                file.write_all(&header)?;
                file.write_all(body)?;
            }
        }
        let offset = self.end;
        self.end += (HEADER + body.len()) as u64;
        Ok(FrameRef {
            offset,
            len,
            digest,
        })
    }

    /// Reads one frame's body back, checking the stored header against
    /// `frame` and the body against `frame.digest`.
    ///
    /// # Errors
    /// [`LogError::Compacted`] below the log's start, [`LogError::Corrupt`]
    /// when the stored frame is not the one the handle describes, and
    /// [`LogError::Io`] on read failures.
    pub fn read(&mut self, frame: &FrameRef) -> Result<Vec<u8>, LogError> {
        if frame.offset < self.start {
            return Err(LogError::Compacted {
                requested: frame.offset,
                horizon: self.start,
            });
        }
        let len = frame.len as usize;
        if frame.offset.saturating_add((HEADER + len) as u64) > self.end {
            return Err(self.corrupt(frame.offset));
        }
        // In bounds: the backend holds `end - start` bytes.
        let at = frame.offset - self.start;
        let mut header = [0u8; HEADER];
        let body = match &mut self.backend {
            Backend::Mem(buf) => {
                let at = at as usize;
                header.copy_from_slice(&buf[at..at + HEADER]);
                buf[at + HEADER..at + HEADER + len].to_vec()
            }
            Backend::File { file, .. } => {
                let mut body = vec![0; len];
                file.seek(SeekFrom::Start(at))?;
                file.read_exact(&mut header)?;
                file.read_exact(&mut body)?;
                body
            }
        };
        if parse_header(&header) != Some((frame.len, frame.digest))
            || frame_digest(&body) != frame.digest
        {
            return Err(self.corrupt(frame.offset));
        }
        Ok(body)
    }

    fn corrupt(&self, offset: u64) -> LogError {
        LogError::Corrupt {
            file: self.path().map(Path::to_path_buf),
            offset,
        }
    }

    /// Drops every frame. Offsets are not reused: the next append goes
    /// where the last one would have, and reads below it are
    /// [`LogError::Compacted`].
    ///
    /// # Errors
    /// File truncation failures.
    pub(crate) fn clear(&mut self) -> io::Result<()> {
        match &mut self.backend {
            Backend::Mem(buf) => buf.clear(),
            Backend::File { file, .. } => file.set_len(0)?,
        }
        self.start = self.end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("duc-log-test-{}-{tag}-{n}.bin", std::process::id()))
    }

    fn body(i: u8) -> Vec<u8> {
        vec![i; 10 + usize::from(i)]
    }

    /// Three frames in a fresh file, and their handles.
    fn three_frames(path: &Path) -> Vec<FrameRef> {
        let mut log = FramedLog::open(path).expect("open");
        (1..=3)
            .map(|i| log.append(&body(i)).expect("append"))
            .collect()
    }

    /// A crash mid-append leaves a torn last frame. Reopening cuts it off,
    /// so the next append lands on a frame boundary and reads back clean,
    /// even when it is shorter than the torn bytes it replaces. Appending
    /// after the torn bytes instead would let the torn frame's length
    /// swallow the next header and misalign every later frame.
    #[test]
    fn reopening_a_torn_log_truncates_the_tail_and_appends_cleanly() {
        let path = temp_path("torn");
        let frames = three_frames(&path);
        // One byte short of a whole frame 3.
        let cut = frames[2].offset + (HEADER + body(3).len()) as u64 - 1;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(cut))
            .expect("tear frame 3");
        assert!(matches!(
            FramedLog::read_all(&path),
            Err(LogError::Corrupt { offset, .. }) if offset == frames[2].offset
        ));
        let mut log = FramedLog::open(&path).expect("reopen");
        let fourth = log.append(&[4]).expect("append");
        assert_eq!(
            fourth.offset, frames[2].offset,
            "appends where frame 3 began"
        );
        assert_eq!(log.read(&fourth).expect("read back"), [4]);
        assert_eq!(
            FramedLog::read_all(&path).expect("clean"),
            vec![body(1), body(2), vec![4]]
        );
        std::fs::remove_file(&path).ok();
    }

    /// Every byte of frame 2 — length, digest or body — flipped on disk
    /// makes the file `Corrupt` at frame 2's offset: never a panic, never a
    /// wrong frame. Reopening refuses a flipped digest or body too (a
    /// flipped length that points past the end of the file reads as a
    /// torn tail there, see [`FramedLog::open`]).
    #[test]
    fn a_flipped_byte_is_corrupt_at_its_frame() {
        let path = temp_path("flip");
        let frames = three_frames(&path);
        let clean = std::fs::read(&path).expect("read");
        let second = frames[1].offset;
        for at in second..frames[2].offset {
            let mut bytes = clean.clone();
            bytes[at as usize] ^= 0x40;
            std::fs::write(&path, &bytes).expect("write");
            match FramedLog::read_all(&path) {
                Err(LogError::Corrupt { file, offset }) => {
                    assert_eq!(offset, second, "byte {at}");
                    assert_eq!(file.as_deref(), Some(path.as_path()));
                }
                other => panic!("byte {at}: {other:?}"),
            }
            if at >= second + 4 {
                assert!(
                    matches!(FramedLog::open(&path), Err(LogError::Corrupt { offset, .. }) if offset == second),
                    "byte {at}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A handle that does not describe the stored frame is refused, in
    /// memory and on file alike, and so is one past the end.
    #[test]
    fn reads_check_the_header_against_the_handle() {
        let path = temp_path("handle");
        for mut log in [
            FramedLog::in_memory(),
            FramedLog::open(&path).expect("open"),
        ] {
            let a = log.append(&body(1)).expect("append");
            let b = log.append(&body(2)).expect("append");
            assert_eq!(b.offset, a.offset + (HEADER + body(1).len()) as u64);
            for bad in [
                FrameRef {
                    len: a.len - 1,
                    ..a
                },
                FrameRef {
                    digest: Digest([0xAB; 32]),
                    ..a
                },
                FrameRef { offset: 1, ..a },
                FrameRef {
                    offset: b.offset + 1,
                    ..b
                },
            ] {
                assert!(
                    matches!(log.read(&bad), Err(LogError::Corrupt { offset, .. }) if offset == bad.offset),
                    "{bad:?}"
                );
            }
            log.clear().expect("clear");
            let c = log.append(&body(3)).expect("append");
            assert!(c.offset > b.offset, "offsets are never reused");
            assert!(matches!(
                log.read(&b),
                Err(LogError::Compacted { requested, horizon })
                    if requested == b.offset && horizon == c.offset
            ));
            assert_eq!(log.read(&c).expect("read"), body(3));
        }
        std::fs::remove_file(&path).ok();
    }
}
