//! The page spill log behind the paged world state: a [`FramedLog`] of
//! [`encode_page`](crate::encode_page) bodies plus the live/dead accounting
//! that decides when to compact it.

use std::io;
use std::path::{Path, PathBuf};

use crate::log::{FrameRef, FramedLog, LogError};

/// Handle to one spilled page in a [`PageStore`].
///
/// Offsets survive compaction, which invalidates dead offsets rather than
/// renumbering live ones, so a stale handle fails loudly with
/// [`LogError::Compacted`] instead of silently reading shifted bytes. The
/// digest is the trusted copy every read is checked against.
pub type PageRef = FrameRef;

/// Compaction only pays off once this much dead weight accumulates.
const COMPACT_MIN_DEAD_BYTES: u64 = 1 << 20;

/// Append-only log of spilled slot pages behind the paged world state.
///
/// Compaction empties the log and rewrites the live pages; the log's
/// offsets keep counting, so every old handle falls below its start. Every
/// read re-verifies the page digest, so a fault-in can never observe bytes
/// that differ from what was spilled. The log stores pages in the
/// [`encode_page`] format and nothing else: what [`PageStore::read`] returns is handed to
/// [`SlottedPage::from_bytes`] as is, and what a [`SlottedPage`] holds
/// ([`SlottedPage::as_bytes`]) is appended as is. Live and dead bytes count
/// page bodies, not frame headers.
///
/// [`encode_page`]: crate::encode_page
/// [`SlottedPage`]: crate::SlottedPage
/// [`SlottedPage::from_bytes`]: crate::SlottedPage::from_bytes
/// [`SlottedPage::as_bytes`]: crate::SlottedPage::as_bytes
#[derive(Debug)]
pub struct PageStore {
    log: FramedLog,
    /// Bytes of pages appended and not yet retired.
    live_bytes: u64,
    /// Bytes of pages retired (dead weight reclaimed by compaction).
    dead_bytes: u64,
    /// Total pages ever appended through this handle.
    appended: u64,
    /// Compactions performed.
    compactions: u64,
}

impl PageStore {
    fn on(log: FramedLog) -> PageStore {
        PageStore {
            log,
            live_bytes: 0,
            dead_bytes: 0,
            appended: 0,
            compactions: 0,
        }
    }

    /// An in-memory page log.
    #[must_use]
    pub fn in_memory() -> PageStore {
        PageStore::on(FramedLog::in_memory())
    }

    /// A file-backed page log; the file is created under `dir` with a
    /// process-unique name and removed on drop.
    ///
    /// # Errors
    /// Propagates directory-creation and file-open failures.
    pub fn in_dir(dir: impl Into<PathBuf>) -> Result<PageStore, LogError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("duc-pages-{}-{n}.bin", std::process::id()));
        // A leftover of an earlier process with this id is not ours to read.
        std::fs::remove_file(&path).ok();
        Ok(PageStore::on(FramedLog::open(path)?))
    }

    /// Opens a store of the same flavour as `self`, starting empty (used
    /// when cloning a paged state: the clone gets its own spill log).
    ///
    /// # Errors
    /// Propagates file creation failures for file-backed stores.
    pub fn fresh_like(&self) -> Result<PageStore, LogError> {
        match self.log.path().and_then(Path::parent) {
            Some(dir) => PageStore::in_dir(dir),
            None => Ok(PageStore::in_memory()),
        }
    }

    /// Appends one encoded page, returning its verified handle.
    ///
    /// # Errors
    /// Propagates file write failures.
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<PageRef> {
        let page = self.log.append(bytes)?;
        self.live_bytes += u64::from(page.len);
        self.appended += 1;
        Ok(page)
    }

    /// Reads one page back, verifying its digest.
    ///
    /// # Errors
    /// [`LogError::Compacted`] for handles below the compaction horizon,
    /// [`LogError::Corrupt`] when the stored page is not the handle's, and
    /// [`LogError::Io`] on underlying read failures.
    pub fn read(&mut self, page: &PageRef) -> Result<Vec<u8>, LogError> {
        self.log.read(page)
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

    /// Rewrites exactly the `live` pages into an emptied log and drops
    /// everything else, returning the new handles aligned with the input
    /// order. All pre-compaction handles become stale: reading them
    /// afterwards yields [`LogError::Compacted`].
    ///
    /// # Errors
    /// Read-side verification and write failures; on a read failure the
    /// store is left unchanged (reads happen before the rewrite).
    pub fn compact(&mut self, live: &[PageRef]) -> Result<Vec<PageRef>, LogError> {
        let blobs = live
            .iter()
            .map(|page| self.log.read(page))
            .collect::<Result<Vec<_>, _>>()?;
        self.log.clear()?;
        self.live_bytes = 0;
        self.dead_bytes = 0;
        self.compactions += 1;
        let mut refs = Vec::with_capacity(blobs.len());
        // `read` has just checked each blob against its handle's digest;
        // rewrites are not fresh spills, so `appended` stays.
        for (blob, page) in blobs.iter().zip(live) {
            let fresh = self.log.append_hashed(blob, page.digest)?;
            self.live_bytes += u64::from(fresh.len);
            refs.push(fresh);
        }
        Ok(refs)
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
        if let Some(path) = self.log.path() {
            std::fs::remove_file(path).ok();
        }
    }
}
