//! Property tests for the damage a log file and a checkpoint can take.
//!
//! A [`FramedLog`] file cut anywhere reads back as exactly the frames that
//! lie wholly before the cut once reopened, and keeps appending cleanly; a
//! byte flipped anywhere is `Corrupt` at the frame that holds it, never a
//! panic and never a frame that was not appended. A [`Checkpoint`] decodes
//! from its encoding to itself, and from arbitrary or mutated bytes either
//! to a value that re-encodes to exactly those bytes or to an error.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use duc_codec::{decode_from_slice, encode_to_vec};
use duc_crypto::Digest;
use duc_storage::{Checkpoint, FramedLog, LogError};
use proptest::prelude::*;

fn temp_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("duc-proptest-log-{}-{n}.bin", std::process::id()))
}

#[derive(Debug, Clone)]
enum Damage {
    /// The file cut to `at` bytes (modulo its length plus one).
    Cut(usize),
    /// The byte at `at` (modulo the length) XORed with a nonzero mask.
    Flip { at: usize, mask: u8 },
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Cut),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::Flip { at, mask }),
    ]
}

fn is_corrupt_at(result: &Result<Vec<Vec<u8>>, LogError>, at: u64) -> bool {
    matches!(result, Err(LogError::Corrupt { offset, .. }) if *offset == at)
}

proptest! {
    #[test]
    fn framed_log_survives_torn_tails_and_flipped_bytes(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..6),
        damage in damage(),
        extra in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let path = temp_path();
        let mut log = FramedLog::open(&path).expect("open");
        let mut starts: Vec<u64> = bodies
            .iter()
            .map(|b| log.append(b).expect("append").offset)
            .collect();
        drop(log);
        let mut bytes = std::fs::read(&path).expect("read");
        starts.push(bytes.len() as u64);
        prop_assert_eq!(FramedLog::read_all(&path).expect("undamaged"), bodies.clone());
        // Frame `k` spans `starts[k]..starts[k + 1]`.
        let frame_of = |at: u64| starts.partition_point(|&s| s <= at) - 1;
        match damage {
            Damage::Cut(at) => {
                let cut = (at % (bytes.len() + 1)) as u64;
                bytes.truncate(cut as usize);
                std::fs::write(&path, &bytes).expect("write");
                let whole = starts.partition_point(|&s| s <= cut) - 1;
                let read = FramedLog::read_all(&path);
                if starts[whole] == cut {
                    prop_assert_eq!(read.expect("cut on a boundary"), bodies[..whole].to_vec());
                } else {
                    prop_assert!(is_corrupt_at(&read, starts[whole]), "{:?}", read);
                }
                let mut log = FramedLog::open(&path).expect("a torn tail is cut off");
                let appended = log.append(&extra).expect("append");
                prop_assert_eq!(appended.offset, starts[whole]);
                prop_assert_eq!(log.read(&appended).expect("read back"), extra.clone());
                let mut expected = bodies[..whole].to_vec();
                expected.push(extra);
                prop_assert_eq!(FramedLog::read_all(&path).expect("clean"), expected);
            }
            Damage::Flip { at, mask } => {
                if !bytes.is_empty() {
                    let at = (at % bytes.len()) as u64;
                    bytes[at as usize] ^= mask;
                    std::fs::write(&path, &bytes).expect("write");
                    let k = frame_of(at);
                    let read = FramedLog::read_all(&path);
                    prop_assert!(is_corrupt_at(&read, starts[k]), "{:?}", read);
                    // Reopening refuses the frame, unless its length now
                    // runs past the end: then it reads as a torn tail.
                    match FramedLog::open(&path) {
                        Ok(_) => prop_assert_eq!(
                            FramedLog::read_all(&path).expect("cut off"),
                            bodies[..k].to_vec()
                        ),
                        Err(LogError::Corrupt { offset, .. }) => prop_assert_eq!(offset, starts[k]),
                        Err(other) => prop_assert!(false, "{}", other),
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_decode_never_panics_and_round_trips(
        height in any::<u64>(),
        commitment in proptest::collection::vec(any::<u8>(), 32),
        accumulator in proptest::collection::vec(any::<u8>(), 32),
        floor in any::<u64>(),
        at in any::<usize>(),
        byte in any::<u8>(),
        junk in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let cp = Checkpoint {
            height,
            state_commitment: Digest(commitment.try_into().expect("32 bytes")),
            accumulator: accumulator.try_into().expect("32 bytes"),
            event_cursor_floor: floor,
        };
        let bytes = encode_to_vec(&cp);
        prop_assert_eq!(decode_from_slice::<Checkpoint>(&bytes), Ok(cp));
        let mut mutated = bytes.clone();
        mutated[at % bytes.len()] = byte;
        for input in [mutated, junk] {
            if let Ok(back) = decode_from_slice::<Checkpoint>(&input) {
                prop_assert_eq!(encode_to_vec(&back), input);
            }
        }
    }
}
