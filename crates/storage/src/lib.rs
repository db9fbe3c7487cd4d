//! # duc-storage — bounded retention for the chain layer
//!
//! Every chain in the stack historically kept every block and every event
//! forever, so memory grew linearly in request count. This crate supplies
//! the storage primitives behind which `duc_blockchain`'s `Blockchain`
//! keeps only a bounded in-memory *window* of recent blocks:
//!
//! * [`StorageConfig`] — the retention knobs (checkpoint interval, window
//!   size, optional archive path). The default is *disabled*: infinite
//!   retention, byte-identical to the pre-storage behaviour.
//! * [`Checkpoint`] — a sealed summary of the world state at a height,
//!   derived from the chain's XOR-multiset state accumulator. Checkpoints
//!   are what make pruning safe: everything below the last finalized
//!   checkpoint can be evicted while enforcement state survives.
//! * [`BlockStore`] — a height-addressed windowed store. Retained heights
//!   are `base + 1 ..= base + len`; pruned prefixes optionally stream into
//!   an append-only [`FileArchive`].
//! * [`StateStore`] — the sealed-checkpoint log.
//! * [`PrunedRange`] — the typed error consumers receive when they ask for
//!   history below the prune horizon, so cursor holders resync from the
//!   last checkpoint instead of silently reading empty results.
//!
//! Since the world state itself became the dominant linear term, the crate
//! also supplies the primitives behind `WorldState`'s paged slot store:
//!
//! * [`PagingConfig`] — page capacity, resident-page limit, optional spill
//!   directory (carried on [`StorageConfig::paging`]).
//! * [`PageStore`] — an append-only page log (memory- or file-backed,
//!   reusing the [`FileArchive`] framing idea) with per-page digests
//!   verified on every read, amortized compaction over a logical offset
//!   space, and a [`PageCompacted`] typed error for reads below the
//!   compaction horizon (the [`PrunedRange`] pattern, applied to pages).
//! * [`SlottedPage`] — a slot page held *in* its spill encoding
//!   ([`encode_page`]'s bytes plus an index of slot offsets): what a
//!   [`PageStore::read`] returns becomes a usable page after one validating
//!   pass, and a page is spilled by appending the bytes it already holds.
//!   The constructor is the only decoder of the page format and treats its
//!   input as untrusted.
//!
//! The crate deliberately depends only on `duc-crypto` and `duc-codec`;
//! `duc-blockchain` implements [`ArchiveItem`] for its `Block` type.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use duc_codec::impl_codec_struct;
use duc_crypto::Digest;

mod page;

pub use page::{encode_page, page_digest, SlottedPage};

// ------------------------------------------------------------------ config

/// Retention configuration for a chain's block & state storage.
///
/// `checkpoint_interval == 0` disables checkpointing and pruning entirely
/// (infinite retention — the historical behaviour). When enabled, a
/// [`Checkpoint`] is sealed every `checkpoint_interval` blocks and the
/// store prunes everything below
/// `min(checkpoint_height - 1, tip - window)` — the checkpoint's own block
/// and the last `window` blocks always stay resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// Seal a checkpoint every this many blocks; `0` disables storage
    /// management entirely.
    pub checkpoint_interval: u64,
    /// Minimum number of recent blocks kept in memory regardless of
    /// checkpoints (the tip itself is always retained).
    pub window: u64,
    /// When set, pruned blocks are appended to this file as
    /// length-prefixed frames instead of being dropped.
    pub archive_path: Option<PathBuf>,
    /// World-state paging knobs; `None` keeps every slot page resident
    /// (today's behaviour, with identical commitments either way).
    pub paging: Option<PagingConfig>,
}

impl StorageConfig {
    /// Infinite retention; checkpointing and pruning off.
    #[must_use]
    pub fn disabled() -> Self {
        StorageConfig {
            checkpoint_interval: 0,
            window: 0,
            archive_path: None,
            paging: None,
        }
    }

    /// Checkpoint every `interval` blocks, keep at least `window` recent
    /// blocks in memory.
    #[must_use]
    pub fn enabled(interval: u64, window: u64) -> Self {
        StorageConfig {
            checkpoint_interval: interval.max(1),
            window,
            archive_path: None,
            paging: None,
        }
    }

    /// Streams pruned blocks into an append-only archive at `path`.
    #[must_use]
    pub fn with_archive(mut self, path: impl Into<PathBuf>) -> Self {
        self.archive_path = Some(path.into());
        self
    }

    /// Enables world-state paging with the given knobs.
    #[must_use]
    pub fn with_paging(mut self, paging: PagingConfig) -> Self {
        self.paging = Some(paging);
        self
    }

    /// Whether checkpointing/pruning is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.checkpoint_interval > 0
    }

    /// The prune horizon implied by a checkpoint sealed at
    /// `checkpoint_height` when the chain tip is `tip`: the highest height
    /// that may be evicted. The checkpoint's own block and the last
    /// `window` blocks are always retained.
    #[must_use]
    pub fn horizon_after_checkpoint(&self, checkpoint_height: u64, tip: u64) -> u64 {
        checkpoint_height
            .saturating_sub(1)
            .min(tip.saturating_sub(self.window))
    }
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig::disabled()
    }
}

// -------------------------------------------------------------- checkpoint

/// A sealed summary of the world state at a block height.
///
/// `state_commitment` is the chain's `WorldState::commitment()` at that
/// height (what block headers pin as `state_root`); `accumulator` is the
/// raw XOR-multiset accumulator it was derived from, so a restored store
/// can resume incremental maintenance without replaying history.
/// `event_cursor_floor` is the lowest event height a cursor may hold after
/// resyncing to this checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Block height the checkpoint was sealed at.
    pub height: u64,
    /// `WorldState::commitment()` at `height`.
    pub state_commitment: Digest,
    /// The raw XOR-multiset accumulator behind the commitment.
    pub accumulator: [u8; 32],
    /// Lowest valid event-cursor height after a resync to this checkpoint.
    pub event_cursor_floor: u64,
}

impl_codec_struct!(Checkpoint {
    height,
    state_commitment,
    accumulator,
    event_cursor_floor
});

// ------------------------------------------------------------ pruned range

/// Typed error for reads below the prune horizon.
///
/// Returned instead of a silently-empty slice so cursor holders (oracles,
/// drivers) know to resync from the last checkpoint's
/// `event_cursor_floor` rather than miss history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrunedRange {
    /// The height the caller asked to read from.
    pub requested: u64,
    /// The current prune horizon (highest pruned height).
    pub horizon: u64,
}

impl fmt::Display for PrunedRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requested history from height {} but everything at or below {} is pruned",
            self.requested, self.horizon
        )
    }
}

impl std::error::Error for PrunedRange {}

// ------------------------------------------------------------------ paging

/// Knobs for the paged world-state slot store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagingConfig {
    /// Maximum slots per page before a median split (≥ 1).
    pub page_capacity: usize,
    /// Maximum resident (decoded) pages; `None` = unbounded residency.
    /// `Some(0)` is legal: every page is spilled after every touch.
    pub resident_limit: Option<usize>,
    /// Directory for spill files; `None` spills into an in-memory log.
    pub spill_dir: Option<PathBuf>,
}

impl PagingConfig {
    /// In-memory paging with the default page capacity.
    #[must_use]
    pub fn in_memory(resident_limit: Option<usize>) -> Self {
        PagingConfig {
            page_capacity: 64,
            resident_limit,
            spill_dir: None,
        }
    }

    /// Spills cold pages into files under `dir`.
    #[must_use]
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Overrides the page capacity (clamped to ≥ 1).
    #[must_use]
    pub fn with_page_capacity(mut self, capacity: usize) -> Self {
        self.page_capacity = capacity.max(1);
        self
    }
}

impl Default for PagingConfig {
    fn default() -> Self {
        PagingConfig::in_memory(None)
    }
}

/// Handle to one spilled page in a [`PageStore`].
///
/// Offsets are *logical*: they survive compaction (which invalidates dead
/// offsets rather than renumbering live ones), so a stale handle fails
/// loudly with [`PageCompacted`] instead of silently reading shifted bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRef {
    /// Logical byte offset of the page in the store.
    pub offset: u64,
    /// Encoded page length in bytes.
    pub len: u32,
    /// Digest of the encoded page bytes, verified on every read.
    pub digest: Digest,
}

/// Typed error for page reads below the compaction horizon — the
/// [`PrunedRange`] pattern applied to the page log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCompacted {
    /// The logical offset the caller asked to read.
    pub requested: u64,
    /// The current compaction horizon (lowest valid logical offset).
    pub horizon: u64,
}

impl fmt::Display for PageCompacted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requested page at logical offset {} but everything below {} is compacted",
            self.requested, self.horizon
        )
    }
}

impl std::error::Error for PageCompacted {}

/// Failure reading a page back from a [`PageStore`].
#[derive(Debug)]
pub enum PageStoreError {
    /// The page was dropped by compaction; the handle is stale.
    Compacted(PageCompacted),
    /// The stored bytes do not hash to the handle's digest.
    Corrupt {
        /// Logical offset of the corrupt page.
        offset: u64,
    },
    /// Underlying file I/O failure.
    Io(io::Error),
}

impl fmt::Display for PageStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageStoreError::Compacted(e) => e.fmt(f),
            PageStoreError::Corrupt { offset } => {
                write!(
                    f,
                    "page at logical offset {offset} fails digest verification"
                )
            }
            PageStoreError::Io(e) => write!(f, "page store I/O error: {e}"),
        }
    }
}

impl std::error::Error for PageStoreError {}

impl From<io::Error> for PageStoreError {
    fn from(e: io::Error) -> Self {
        PageStoreError::Io(e)
    }
}

/// Where a [`PageStore`] keeps its spilled bytes.
enum PageBackend {
    Mem(Vec<u8>),
    File {
        dir: PathBuf,
        path: PathBuf,
        file: File,
        /// Physical file length in bytes.
        len: u64,
    },
}

impl PageBackend {
    fn reset(&mut self) -> io::Result<()> {
        match self {
            PageBackend::Mem(buf) => buf.clear(),
            PageBackend::File { file, len, .. } => {
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                *len = 0;
            }
        }
        Ok(())
    }
}

/// Append-only log of spilled slot pages behind the paged world state.
///
/// Offsets handed out in [`PageRef`]s are logical and monotone; compaction
/// rewrites the live pages into a fresh physical region and advances a
/// `base` horizon below which stale handles fail with [`PageCompacted`].
/// Every read re-verifies the page digest, so a fault-in can never observe
/// bytes that differ from what was spilled. The log stores pages in the
/// [`encode_page`] format and nothing else: what [`PageStore::read`] returns
/// is handed to [`SlottedPage::from_bytes`] as is, and what a
/// [`SlottedPage`] holds ([`SlottedPage::as_bytes`]) is appended as is.
pub struct PageStore {
    backend: PageBackend,
    /// Compaction horizon: lowest logical offset still readable.
    base: u64,
    /// Next logical offset to be handed out.
    tail: u64,
    /// Logical offset mapped to physical position 0 of the backend.
    phys_base: u64,
    /// Bytes of pages appended and not yet retired.
    live_bytes: u64,
    /// Bytes of pages retired (dead weight reclaimed by compaction).
    dead_bytes: u64,
    /// Total pages ever appended through this handle.
    appended: u64,
    /// Compactions performed.
    compactions: u64,
}

impl fmt::Debug for PageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageStore")
            .field(
                "backend",
                &match &self.backend {
                    PageBackend::Mem(_) => "mem",
                    PageBackend::File { .. } => "file",
                },
            )
            .field("base", &self.base)
            .field("tail", &self.tail)
            .field("live_bytes", &self.live_bytes)
            .field("dead_bytes", &self.dead_bytes)
            .finish()
    }
}

/// Compaction only pays off once this much dead weight accumulates.
const COMPACT_MIN_DEAD_BYTES: u64 = 1 << 20;

impl PageStore {
    /// An in-memory page log.
    #[must_use]
    pub fn in_memory() -> PageStore {
        PageStore::with_backend(PageBackend::Mem(Vec::new()))
    }

    /// A file-backed page log; the file is created under `dir` with a
    /// process-unique name and removed on drop.
    ///
    /// # Errors
    /// Propagates directory-creation and file-open failures.
    pub fn in_dir(dir: impl Into<PathBuf>) -> io::Result<PageStore> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("duc-pages-{}-{n}.bin", std::process::id()));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        Ok(PageStore::with_backend(PageBackend::File {
            dir,
            path,
            file,
            len: 0,
        }))
    }

    /// Opens a store of the same flavour as `self`, starting empty (used
    /// when cloning a paged state: the clone gets its own spill log).
    ///
    /// # Errors
    /// Propagates file creation failures for file-backed stores.
    pub fn fresh_like(&self) -> io::Result<PageStore> {
        match &self.backend {
            PageBackend::Mem(_) => Ok(PageStore::in_memory()),
            PageBackend::File { dir, .. } => PageStore::in_dir(dir.clone()),
        }
    }

    fn with_backend(backend: PageBackend) -> PageStore {
        PageStore {
            backend,
            base: 0,
            tail: 0,
            phys_base: 0,
            live_bytes: 0,
            dead_bytes: 0,
            appended: 0,
            compactions: 0,
        }
    }

    /// Appends one encoded page, returning its verified handle.
    ///
    /// # Errors
    /// Propagates file write failures.
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<PageRef> {
        self.append_hashed(bytes, page_digest(bytes))
    }

    /// [`PageStore::append`] for bytes whose `digest` the caller has
    /// already computed or verified.
    fn append_hashed(&mut self, bytes: &[u8], digest: Digest) -> io::Result<PageRef> {
        let len = u32::try_from(bytes.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "page exceeds u32 length"))?;
        let offset = self.tail;
        match &mut self.backend {
            PageBackend::Mem(buf) => buf.extend_from_slice(bytes),
            PageBackend::File {
                file, len: flen, ..
            } => {
                file.seek(SeekFrom::Start(*flen))?;
                file.write_all(bytes)?;
                *flen += bytes.len() as u64;
            }
        }
        self.tail += u64::from(len);
        self.live_bytes += u64::from(len);
        self.appended += 1;
        Ok(PageRef {
            offset,
            len,
            digest,
        })
    }

    /// Reads one page back, verifying its digest.
    ///
    /// # Errors
    /// [`PageStoreError::Compacted`] for handles below the compaction
    /// horizon, [`PageStoreError::Corrupt`] on digest mismatch, and
    /// [`PageStoreError::Io`] on underlying read failures.
    pub fn read(&mut self, page: &PageRef) -> Result<Vec<u8>, PageStoreError> {
        if page.offset < self.base {
            return Err(PageStoreError::Compacted(PageCompacted {
                requested: page.offset,
                horizon: self.base,
            }));
        }
        let phys = page.offset - self.phys_base;
        let len = page.len as usize;
        let bytes = match &mut self.backend {
            PageBackend::Mem(buf) => {
                let at = usize::try_from(phys)
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "offset overflow"))?;
                buf.get(at..at + len)
                    .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?
                    .to_vec()
            }
            PageBackend::File { file, .. } => {
                let mut out = vec![0u8; len];
                file.seek(SeekFrom::Start(phys))?;
                file.read_exact(&mut out)?;
                out
            }
        };
        if page_digest(&bytes) != page.digest {
            return Err(PageStoreError::Corrupt {
                offset: page.offset,
            });
        }
        Ok(bytes)
    }

    /// Marks a previously appended page as dead weight (its owner replaced
    /// or dropped it); compaction reclaims the bytes later.
    pub fn retire(&mut self, page: &PageRef) {
        self.live_bytes = self.live_bytes.saturating_sub(u64::from(page.len));
        self.dead_bytes += u64::from(page.len);
    }

    /// Whether enough dead weight accumulated that a compaction pass
    /// amortizes (dead bytes exceed both live bytes and a fixed floor).
    #[must_use]
    pub fn should_compact(&self) -> bool {
        self.dead_bytes >= COMPACT_MIN_DEAD_BYTES && self.dead_bytes > self.live_bytes
    }

    /// Rewrites exactly the `live` pages into a fresh physical region and
    /// drops everything else, returning the new handles aligned with the
    /// input order. All pre-compaction handles become stale: reading them
    /// afterwards yields [`PageCompacted`].
    ///
    /// # Errors
    /// Read-side verification and write failures; on error the store is
    /// left unchanged (reads happen before the rewrite).
    pub fn compact(&mut self, live: &[PageRef]) -> Result<Vec<PageRef>, PageStoreError> {
        let mut blobs = Vec::with_capacity(live.len());
        for page in live {
            blobs.push(self.read(page)?);
        }
        let new_base = self.tail;
        self.backend.reset()?;
        self.phys_base = new_base;
        self.base = new_base;
        self.live_bytes = 0;
        self.dead_bytes = 0;
        self.compactions += 1;
        let mut refs = Vec::with_capacity(blobs.len());
        // `read` has just checked each blob against its handle's digest.
        for (blob, page) in blobs.iter().zip(live) {
            refs.push(self.append_hashed(blob, page.digest)?);
        }
        self.appended -= blobs.len() as u64; // rewrites are not fresh spills
        Ok(refs)
    }

    /// Lowest logical offset still readable (compaction horizon).
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.base
    }

    /// Bytes of live (unretired) pages in the log.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Bytes of retired pages awaiting compaction.
    #[must_use]
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// Pages spilled through this handle (net of compaction rewrites).
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Compaction passes performed.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }
}

impl Drop for PageStore {
    fn drop(&mut self) {
        if let PageBackend::File { path, .. } = &self.backend {
            std::fs::remove_file(path).ok();
        }
    }
}

// ----------------------------------------------------------------- archive

/// An item that can be framed into the append-only archive.
pub trait ArchiveItem {
    /// The canonical byte encoding archived for this item.
    fn encode_frame(&self) -> Vec<u8>;
}

/// Append-only file archive of length-prefixed frames.
///
/// Each frame is a `u32` little-endian byte length followed by the frame
/// bytes. The format is deliberately trivial: the archive is cold storage
/// for pruned blocks, read back only by offline tooling and tests.
pub struct FileArchive {
    path: PathBuf,
    writer: BufWriter<File>,
    frames: u64,
}

impl fmt::Debug for FileArchive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileArchive")
            .field("path", &self.path)
            .field("frames", &self.frames)
            .finish()
    }
}

impl FileArchive {
    /// Opens (creating if absent) an archive for appending.
    ///
    /// # Errors
    /// Propagates the underlying file-open failure.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<FileArchive> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(FileArchive {
            path,
            writer: BufWriter::new(file),
            frames: 0,
        })
    }

    /// Appends one frame.
    ///
    /// # Errors
    /// Propagates the underlying write failure.
    pub fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        let len = u32::try_from(frame.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
        self.writer.write_all(&len.to_le_bytes())?;
        self.writer.write_all(frame)?;
        self.writer.flush()?;
        self.frames += 1;
        Ok(())
    }

    /// Number of frames appended through this handle.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The archive's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads every frame back from an archive file (offline tooling/tests).
    ///
    /// # Errors
    /// Propagates read failures; a truncated trailing frame is an
    /// `UnexpectedEof` error.
    pub fn read_frames(path: impl AsRef<Path>) -> io::Result<Vec<Vec<u8>>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let mut frames = Vec::new();
        let mut at = 0usize;
        while at < bytes.len() {
            let Some(header) = bytes.get(at..at + 4) else {
                return Err(io::ErrorKind::UnexpectedEof.into());
            };
            let len = u32::from_le_bytes(header.try_into().expect("4-byte slice")) as usize;
            at += 4;
            let Some(frame) = bytes.get(at..at + len) else {
                return Err(io::ErrorKind::UnexpectedEof.into());
            };
            frames.push(frame.to_vec());
            at += len;
        }
        Ok(frames)
    }
}

// --------------------------------------------------------------- blockstore

/// A height-addressed block store retaining a window of recent blocks.
///
/// Retained heights are `base + 1 ..= base + len`; `base` is the number of
/// pruned blocks (also the prune horizon: every height `<= base` is gone).
/// `base_parent` carries the hash of the block at height `base` so chain
/// validation can keep checking parent links across the pruned boundary.
#[derive(Debug)]
pub struct BlockStore<T> {
    base: u64,
    base_parent: Digest,
    blocks: VecDeque<T>,
    archive: Option<FileArchive>,
    archived: u64,
}

impl<T> Default for BlockStore<T> {
    fn default() -> Self {
        BlockStore::new(None)
    }
}

impl<T> BlockStore<T> {
    /// An empty store, optionally archiving pruned blocks.
    #[must_use]
    pub fn new(archive: Option<FileArchive>) -> BlockStore<T> {
        BlockStore {
            base: 0,
            base_parent: Digest::ZERO,
            blocks: VecDeque::new(),
            archive,
            archived: 0,
        }
    }

    /// Appends the next block (its height becomes `self.height() + 1`).
    pub fn push(&mut self, block: T) {
        self.blocks.push_back(block);
    }

    /// The chain tip height (`0` for an empty, never-pruned store).
    #[must_use]
    pub fn height(&self) -> u64 {
        self.base + self.blocks.len() as u64
    }

    /// Number of blocks currently resident.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.blocks.len()
    }

    /// The prune horizon: highest pruned height (`0` = nothing pruned).
    #[must_use]
    pub fn prune_horizon(&self) -> u64 {
        self.base
    }

    /// Hash of the block at height `base` (`Digest::ZERO` if unpruned), the
    /// parent the oldest resident block must link to.
    #[must_use]
    pub fn base_parent(&self) -> Digest {
        self.base_parent
    }

    /// The block at `height`, if resident. `None` for height 0, heights
    /// above the tip, *and* pruned heights — callers distinguishing the
    /// last case check [`BlockStore::prune_horizon`] or use
    /// [`BlockStore::try_get`].
    #[must_use]
    pub fn get(&self, height: u64) -> Option<&T> {
        if height <= self.base {
            return None;
        }
        self.blocks.get((height - self.base - 1) as usize)
    }

    /// Mutable access to the block at `height`, if resident (test-side
    /// tampering hooks; production code never rewrites sealed blocks).
    #[must_use]
    pub fn get_mut(&mut self, height: u64) -> Option<&mut T> {
        if height <= self.base {
            return None;
        }
        self.blocks.get_mut((height - self.base - 1) as usize)
    }

    /// Like [`BlockStore::get`], but a pruned height is a typed error
    /// rather than `None`.
    ///
    /// # Errors
    /// [`PrunedRange`] when `1 <= height <= prune_horizon`.
    pub fn try_get(&self, height: u64) -> Result<Option<&T>, PrunedRange> {
        if height >= 1 && height <= self.base {
            return Err(PrunedRange {
                requested: height,
                horizon: self.base,
            });
        }
        Ok(self.get(height))
    }

    /// The most recent resident block.
    #[must_use]
    pub fn last(&self) -> Option<&T> {
        self.blocks.back()
    }

    /// The oldest resident block.
    #[must_use]
    pub fn first(&self) -> Option<&T> {
        self.blocks.front()
    }

    /// Iterates resident blocks oldest-first, paired with their heights.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        self.blocks
            .iter()
            .enumerate()
            .map(move |(i, b)| (base + i as u64 + 1, b))
    }

    /// Total frames streamed to the archive so far.
    #[must_use]
    pub fn archived(&self) -> u64 {
        self.archived
    }
}

impl<T: ArchiveItem> BlockStore<T> {
    /// Evicts every block with height `<= horizon`, archiving each evicted
    /// block if an archive is attached. `hash_of` supplies the digest of
    /// the last evicted block, which becomes the new `base_parent`. The
    /// horizon is clamped so at least the tip stays resident; a horizon at
    /// or below the current base is a no-op. Returns the number evicted.
    ///
    /// # Errors
    /// Propagates archive write failures (no blocks are dropped on error).
    pub fn prune_below(&mut self, horizon: u64, hash_of: impl Fn(&T) -> Digest) -> io::Result<u64> {
        let horizon = horizon.min(self.height().saturating_sub(1));
        if horizon <= self.base {
            return Ok(0);
        }
        let evict = (horizon - self.base) as usize;
        if let Some(archive) = self.archive.as_mut() {
            for block in self.blocks.iter().take(evict) {
                archive.append(&block.encode_frame())?;
            }
            self.archived += evict as u64;
        }
        let mut last_hash = self.base_parent;
        for _ in 0..evict {
            let block = self.blocks.pop_front().expect("evict <= len");
            last_hash = hash_of(&block);
        }
        self.base = horizon;
        self.base_parent = last_hash;
        Ok(evict as u64)
    }
}

// --------------------------------------------------------------- statestore

/// The log of sealed checkpoints, newest last.
#[derive(Debug, Default)]
pub struct StateStore {
    checkpoints: Vec<Checkpoint>,
}

impl StateStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> StateStore {
        StateStore::default()
    }

    /// Seals a checkpoint; heights must be strictly increasing.
    ///
    /// # Panics
    /// If `cp.height` does not exceed the last sealed height.
    pub fn seal(&mut self, cp: Checkpoint) {
        if let Some(last) = self.checkpoints.last() {
            assert!(
                cp.height > last.height,
                "checkpoint heights must be strictly increasing ({} after {})",
                cp.height,
                last.height
            );
        }
        self.checkpoints.push(cp);
    }

    /// The most recently sealed checkpoint.
    #[must_use]
    pub fn last(&self) -> Option<&Checkpoint> {
        self.checkpoints.last()
    }

    /// Every sealed checkpoint, oldest first.
    #[must_use]
    pub fn all(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Number of sealed checkpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether no checkpoint has been sealed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// The newest checkpoint sealed at or below `height`.
    #[must_use]
    pub fn at_or_before(&self, height: u64) -> Option<&Checkpoint> {
        let idx = self.checkpoints.partition_point(|cp| cp.height <= height);
        idx.checked_sub(1).map(|i| &self.checkpoints[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_codec::{decode_from_slice, encode_to_vec};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug)]
    struct Item(u64);

    impl ArchiveItem for Item {
        fn encode_frame(&self) -> Vec<u8> {
            self.0.to_le_bytes().to_vec()
        }
    }

    fn digest_of(item: &Item) -> Digest {
        let mut d = [0u8; 32];
        d[..8].copy_from_slice(&item.0.to_le_bytes());
        Digest(d)
    }

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "duc-storage-test-{}-{tag}-{n}.bin",
            std::process::id()
        ))
    }

    #[test]
    fn config_default_is_disabled() {
        let cfg = StorageConfig::default();
        assert!(!cfg.is_enabled());
        assert_eq!(cfg, StorageConfig::disabled());
        assert!(StorageConfig::enabled(16, 8).is_enabled());
        // interval 0 through `enabled` is clamped to 1, never silently off.
        assert!(StorageConfig::enabled(0, 8).is_enabled());
    }

    #[test]
    fn horizon_keeps_checkpoint_block_and_window() {
        let cfg = StorageConfig::enabled(10, 4);
        // Window binds: tip 12 with window 4 keeps 9..=12.
        assert_eq!(cfg.horizon_after_checkpoint(10, 12), 8);
        // Checkpoint binds: its own block (height 10) is always retained.
        assert_eq!(cfg.horizon_after_checkpoint(10, 100), 9);
        // Degenerate small chains never underflow.
        assert_eq!(cfg.horizon_after_checkpoint(1, 1), 0);
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let cp = Checkpoint {
            height: 42,
            state_commitment: Digest([7u8; 32]),
            accumulator: [9u8; 32],
            event_cursor_floor: 41,
        };
        let bytes = encode_to_vec(&cp);
        let back: Checkpoint = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, cp);
    }

    #[test]
    fn block_store_addresses_by_height_across_pruning() {
        let mut store: BlockStore<Item> = BlockStore::default();
        for i in 1..=10 {
            store.push(Item(i));
        }
        assert_eq!(store.height(), 10);
        assert_eq!(store.get(1).map(|b| b.0), Some(1));
        assert_eq!(store.get(10).map(|b| b.0), Some(10));
        assert!(store.get(0).is_none());
        assert!(store.get(11).is_none());

        let evicted = store.prune_below(6, digest_of).expect("prune");
        assert_eq!(evicted, 6);
        assert_eq!(store.prune_horizon(), 6);
        assert_eq!(store.base_parent(), digest_of(&Item(6)));
        assert_eq!(store.retained(), 4);
        assert_eq!(store.height(), 10);
        assert!(store.get(6).is_none());
        assert_eq!(store.get(7).map(|b| b.0), Some(7));
        assert_eq!(store.last().map(|b| b.0), Some(10));
        assert_eq!(store.first().map(|b| b.0), Some(7));
        assert_eq!(
            store.iter().map(|(h, b)| (h, b.0)).collect::<Vec<_>>(),
            vec![(7, 7), (8, 8), (9, 9), (10, 10)]
        );

        // Pruned heights are a typed error through try_get.
        assert_eq!(
            store.try_get(3).unwrap_err(),
            PrunedRange {
                requested: 3,
                horizon: 6
            }
        );
        assert!(store.try_get(8).expect("resident").is_some());
        assert!(store.try_get(11).expect("above tip is None").is_none());

        // Horizon is monotone; a stale lower horizon is a no-op.
        assert_eq!(store.prune_below(4, digest_of).expect("noop"), 0);
        // The tip is never evicted even by an over-eager horizon.
        assert_eq!(store.prune_below(u64::MAX, digest_of).expect("clamp"), 3);
        assert_eq!(store.retained(), 1);
        assert_eq!(store.last().map(|b| b.0), Some(10));
    }

    #[test]
    fn pruning_streams_frames_to_the_archive() {
        let path = temp_path("archive");
        let archive = FileArchive::open(&path).expect("open");
        let mut store: BlockStore<Item> = BlockStore::new(Some(archive));
        for i in 1..=5 {
            store.push(Item(i));
        }
        store.prune_below(3, digest_of).expect("prune");
        assert_eq!(store.archived(), 3);
        let frames = FileArchive::read_frames(&path).expect("read back");
        assert_eq!(
            frames,
            vec![
                1u64.to_le_bytes().to_vec(),
                2u64.to_le_bytes().to_vec(),
                3u64.to_le_bytes().to_vec()
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_store_seals_monotonically_and_finds_by_height() {
        let mut store = StateStore::new();
        assert!(store.is_empty());
        for h in [10u64, 20, 30] {
            store.seal(Checkpoint {
                height: h,
                state_commitment: Digest::ZERO,
                accumulator: [0u8; 32],
                event_cursor_floor: h.saturating_sub(1),
            });
        }
        assert_eq!(store.len(), 3);
        assert_eq!(store.last().map(|cp| cp.height), Some(30));
        assert_eq!(store.at_or_before(9), None);
        assert_eq!(store.at_or_before(10).map(|cp| cp.height), Some(10));
        assert_eq!(store.at_or_before(29).map(|cp| cp.height), Some(20));
        assert_eq!(store.at_or_before(99).map(|cp| cp.height), Some(30));
    }

    fn sample_page(tag: u8) -> Vec<u8> {
        encode_page(
            vec![
                (&[b'k', tag][..], &[tag; 7][..]),
                (&[b'k', tag, b'2'][..], &[tag ^ 0xFF; 3][..]),
            ]
            .into_iter(),
        )
    }

    #[test]
    fn page_codec_round_trips_and_rejects_garbage() {
        let bytes = sample_page(1);
        let page = SlottedPage::from_bytes(bytes.clone()).expect("decode");
        assert_eq!(page.as_bytes(), bytes);
        assert_eq!(
            page.iter().collect::<Vec<_>>(),
            vec![
                (&[b'k', 1][..], &[1u8; 7][..]),
                (&[b'k', 1, b'2'][..], &[0xFE; 3][..]),
            ]
        );
        let empty = SlottedPage::from_bytes(encode_page(std::iter::empty())).expect("empty");
        assert_eq!(empty, SlottedPage::new());
        assert!(empty.is_empty());
        for cut in 0..bytes.len() {
            assert!(
                SlottedPage::from_bytes(bytes[..cut].to_vec()).is_err(),
                "truncated at {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SlottedPage::from_bytes(trailing).is_err(), "trailing bytes");
    }

    /// A slot count the bytes cannot hold is refused before anything is
    /// allocated for it, and a page whose keys are not strictly increasing
    /// is refused because lookups binary-search them.
    #[test]
    fn page_constructor_bounds_the_count_and_checks_key_order() {
        let hostile = SlottedPage::from_bytes(vec![0xFF; 4]).expect_err("2^32 - 1 slots");
        assert_eq!(hostile.kind(), io::ErrorKind::InvalidData);
        let mut padded = vec![0xFF; 4];
        padded.extend_from_slice(&[0; 64]);
        assert!(SlottedPage::from_bytes(padded).is_err());

        let a = (&b"a"[..], &b"1"[..]);
        let b = (&b"b"[..], &b"2"[..]);
        assert!(SlottedPage::from_bytes(encode_page([a, b].into_iter())).is_ok());
        for (what, slots) in [("swapped", [b, a]), ("duplicate", [a, a])] {
            let err = SlottedPage::from_bytes(encode_page(slots.into_iter())).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
    }

    fn exercise_page_store(mut store: PageStore) {
        let a = store.append(&sample_page(1)).expect("append a");
        let b = store.append(&sample_page(2)).expect("append b");
        assert_eq!(a.offset, 0);
        assert_eq!(u64::from(a.len), b.offset);
        assert_eq!(store.read(&a).expect("read a"), sample_page(1));
        assert_eq!(store.read(&b).expect("read b"), sample_page(2));

        // A tampered digest is detected on read.
        let mut bad = a;
        bad.digest = Digest([0xAB; 32]);
        assert!(matches!(
            store.read(&bad),
            Err(PageStoreError::Corrupt { offset: 0 })
        ));

        // Retiring and compacting invalidates stale handles with a typed
        // error while live handles survive under new offsets.
        store.retire(&a);
        assert_eq!(store.dead_bytes(), u64::from(a.len));
        let live = store.compact(&[b]).expect("compact");
        assert_eq!(live.len(), 1);
        assert_eq!(
            store.read(&live[0]).expect("live after compact"),
            sample_page(2)
        );
        let err = store.read(&a).expect_err("stale handle");
        match err {
            PageStoreError::Compacted(pc) => {
                assert_eq!(pc.requested, 0);
                assert_eq!(pc.horizon, store.horizon());
            }
            other => panic!("expected Compacted, got {other:?}"),
        }
        assert_eq!(store.dead_bytes(), 0);
        assert_eq!(store.live_bytes(), u64::from(b.len));
        assert_eq!(store.compactions(), 1);

        // The log keeps appending past a compaction.
        let c = store.append(&sample_page(3)).expect("append c");
        assert_eq!(store.read(&c).expect("read c"), sample_page(3));
    }

    #[test]
    fn mem_page_store_appends_verifies_and_compacts() {
        exercise_page_store(PageStore::in_memory());
    }

    #[test]
    fn file_page_store_appends_verifies_and_compacts() {
        let dir = std::env::temp_dir().join(format!("duc-pagestore-{}", std::process::id()));
        exercise_page_store(PageStore::in_dir(&dir).expect("open"));
        // fresh_like produces an independent store of the same flavour.
        let mut first = PageStore::in_dir(&dir).expect("open");
        let r = first.append(&sample_page(9)).expect("append");
        let mut second = first.fresh_like().expect("fresh");
        assert!(second.read(&r).is_err(), "fresh store starts empty");
        assert_eq!(second.live_bytes(), 0);
    }

    #[test]
    fn compaction_trigger_needs_dead_weight_majority() {
        let mut store = PageStore::in_memory();
        let a = store.append(&vec![1u8; 1 << 20]).expect("append");
        let _b = store.append(&[2u8; 8]).expect("append");
        assert!(!store.should_compact(), "nothing retired yet");
        store.retire(&a);
        assert!(store.should_compact(), "dead majority over the floor");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn state_store_rejects_non_monotone_seal() {
        let mut store = StateStore::new();
        let cp = Checkpoint {
            height: 5,
            state_commitment: Digest::ZERO,
            accumulator: [0u8; 32],
            event_cursor_floor: 0,
        };
        store.seal(cp.clone());
        store.seal(cp);
    }
}
