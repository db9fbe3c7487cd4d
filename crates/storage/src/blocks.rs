//! The windowed block store, its archive, and the error for reads below
//! its prune horizon.

use std::collections::VecDeque;
use std::fmt;
use std::io;

use duc_codec::{encode_to_vec, Encode};
use duc_crypto::Digest;

use crate::log::FramedLog;

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

/// A height-addressed block store retaining a window of recent blocks.
///
/// Retained heights are `base + 1 ..= base + len`; `base` is the number of
/// pruned blocks (also the prune horizon: every height `<= base` is gone).
/// `base_parent` carries the hash of the block at height `base` so chain
/// validation can keep checking parent links across the pruned boundary.
/// With an archive attached, each pruned block is appended to it as one
/// frame holding the block's codec encoding.
#[derive(Debug)]
pub struct BlockStore<T> {
    base: u64,
    base_parent: Digest,
    blocks: VecDeque<T>,
    archive: Option<FramedLog>,
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
    pub fn new(archive: Option<FramedLog>) -> BlockStore<T> {
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
    /// last case check [`BlockStore::prune_horizon`].
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

impl<T: Encode> BlockStore<T> {
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
                archive.append(&encode_to_vec(block))?;
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
