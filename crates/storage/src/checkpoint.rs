//! Sealed world-state checkpoints and their log.

use duc_codec::impl_codec_struct;
use duc_crypto::Digest;

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
}
