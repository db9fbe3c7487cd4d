//! The retention and paging knobs.

use std::path::PathBuf;

/// Retention configuration for a chain's block & state storage.
///
/// `checkpoint_interval == 0` disables checkpointing and pruning entirely
/// (infinite retention — the historical behaviour). When enabled, a
/// [`Checkpoint`](crate::Checkpoint) is sealed every `checkpoint_interval`
/// blocks and the store prunes everything below
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
    /// [`FramedLog`](crate::FramedLog) frames instead of being dropped.
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

/// Knobs for the paged world-state slot store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagingConfig {
    /// Maximum slots per page before a median split (≥ 1). Defaults to
    /// 16 with a `resident_limit` and 64 without one (see
    /// [`PagingConfig::in_memory`]).
    pub page_capacity: usize,
    /// Maximum resident (decoded) pages; `None` = unbounded residency.
    /// `Some(0)` is legal: every page is spilled after every touch.
    pub resident_limit: Option<usize>,
    /// Directory for spill files; `None` spills into an in-memory log.
    pub spill_dir: Option<PathBuf>,
}

impl PagingConfig {
    /// In-memory paging with the default page capacity, which follows
    /// residency: 16 slots under a `resident_limit`, 64 without one. A
    /// fault-in copies and verifies a whole page, so its cost grows with
    /// the page's bytes, while the hit rate of point reads barely depends
    /// on page size; without a limit nothing faults, and smaller pages
    /// would only add page-table entries.
    #[must_use]
    pub fn in_memory(resident_limit: Option<usize>) -> Self {
        PagingConfig {
            page_capacity: if resident_limit.is_some() { 16 } else { 64 },
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
