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
//!   [`StateStore`] is their log.
//! * [`BlockStore`] — a height-addressed windowed store. Retained heights
//!   are `base + 1 ..= base + len`; pruned blocks optionally stream into an
//!   archive, one [`FramedLog`] frame per block holding its codec
//!   encoding, so the archive reads back as blocks.
//! * [`PrunedRange`] — the typed error consumers receive when they ask for
//!   history below the prune horizon, so cursor holders resync from the
//!   last checkpoint instead of silently reading empty results.
//!
//! Since the world state itself became the dominant linear term, the crate
//! also supplies the primitives behind `WorldState`'s paged slot store:
//!
//! * [`PagingConfig`] — page capacity, resident-page limit, optional spill
//!   directory (carried on [`StorageConfig::paging`]). The default page
//!   capacity follows residency: 16 slots under a resident-page limit,
//!   where a fault-in's cost grows with the page's bytes, and 64 without
//!   one, where nothing faults.
//! * [`PageStore`] — the page spill log: a [`FramedLog`] of pages with
//!   live/dead accounting and amortized compaction; a handle below the
//!   compaction horizon fails with [`LogError::Compacted`] (the
//!   [`PrunedRange`] pattern, applied to pages).
//! * [`SlottedPage`] — a slot page held *in* its spill encoding
//!   ([`encode_page`]'s bytes plus an index of slot offsets): what a
//!   [`PageStore::read`] returns becomes a usable page after one validating
//!   pass, and a page is spilled by appending the bytes it already holds.
//!   The constructor is the only decoder of the page format and treats its
//!   input as untrusted.
//!
//! Both logs are one [`FramedLog`]: one frame format (length, digest,
//! body), one writer and one reader. A reopened log file cuts off a torn
//! last frame and refuses a frame whose digest fails, with
//! [`LogError::Corrupt`] naming the file and offset.
//!
//! The crate deliberately depends only on `duc-crypto` and `duc-codec`.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod blocks;
mod checkpoint;
mod config;
mod log;
mod page;
mod pages;

pub use blocks::{BlockStore, PrunedRange};
pub use checkpoint::{Checkpoint, StateStore};
pub use config::{PagingConfig, StorageConfig};
pub use log::{FrameRef, FramedLog, LogError};
pub use page::{encode_page, SlottedPage};
pub use pages::{PageRef, PageStore};

#[cfg(test)]
mod tests;
