use super::*;
use duc_codec::{decode_from_slice, encode_to_vec, Encode};
use duc_crypto::Digest;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug)]
struct Item(u64);

impl Encode for Item {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
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
    let archive = FramedLog::open(&path).expect("open");
    let mut store: BlockStore<Item> = BlockStore::new(Some(archive));
    for i in 1..=5 {
        store.push(Item(i));
    }
    store.prune_below(3, digest_of).expect("prune");
    assert_eq!(store.archived(), 3);
    let frames = FramedLog::read_all(&path).expect("read back");
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
    assert_eq!(
        store.all().iter().map(|cp| cp.height).collect::<Vec<_>>(),
        [10, 20, 30]
    );
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
    assert!(b.offset > a.offset);
    assert_eq!(store.read(&a).expect("read a"), sample_page(1));
    assert_eq!(store.read(&b).expect("read b"), sample_page(2));
    // Live bytes count page bodies, not frame headers.
    assert_eq!(store.live_bytes(), u64::from(a.len + b.len));

    // A tampered digest is detected on read.
    let mut bad = a;
    bad.digest = Digest([0xAB; 32]);
    assert!(matches!(
        store.read(&bad),
        Err(LogError::Corrupt { offset: 0, .. })
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
        LogError::Compacted { requested, horizon } => {
            assert_eq!(requested, 0);
            assert_eq!(horizon, live[0].offset);
        }
        other => panic!("expected Compacted, got {other:?}"),
    }
    assert_eq!(store.dead_bytes(), 0);
    assert_eq!(store.live_bytes(), u64::from(b.len));
    assert_eq!(store.compactions(), 1);
    assert_eq!(store.appended(), 2, "rewrites are not fresh spills");

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
