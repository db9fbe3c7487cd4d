//! The slot-page format and the one in-memory type that holds it.
//!
//! A page is `u32` slot count, then per slot a `u32` length-prefixed key
//! and a `u32` length-prefixed value, slots in strictly increasing key
//! order (all integers little-endian). [`encode_page`] writes that format
//! from an iterator; [`SlottedPage`] *is* that format — the encoded bytes
//! plus an index of where each slot starts — so a page read back from a
//! [`PageStore`](crate::PageStore) is usable after one validating pass and
//! a page about to be spilled is already encoded.
//!
//! Beside the offsets a page keeps *key heads*: the length of the prefix
//! every key on the page shares, and per slot the next 8 key bytes as one
//! big-endian `u64`. A lookup binary-searches that dense array and compares
//! full keys only among slots whose heads tie, so a hit reads a few cache
//! lines instead of one key per probe. Heads are derived from the bytes and
//! rebuilt with them; they are never spilled or hashed.

use std::cmp::Ordering;
use std::io;

/// Bytes of the slot-count header.
const HEADER: usize = 4;
/// Bytes of one length prefix.
const PREFIX: usize = 4;

/// Encodes one slot page: `u32` slot count, then per slot a `u32`
/// length-prefixed key and a `u32` length-prefixed value.
#[must_use]
pub fn encode_page<'a>(slots: impl ExactSizeIterator<Item = (&'a [u8], &'a [u8])>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + slots.len() * 16);
    out.extend_from_slice(
        &u32::try_from(slots.len())
            .expect("page slot count fits u32")
            .to_le_bytes(),
    );
    for (k, v) in slots {
        out.extend_from_slice(&u32::try_from(k.len()).expect("key fits u32").to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(
            &u32::try_from(v.len())
                .expect("value fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(v);
    }
    out
}

fn invalid(reason: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

/// Reads the `u32` at `at`, or `None` when fewer than four bytes remain.
fn u32_at(bytes: &[u8], at: usize) -> Option<usize> {
    let raw = bytes.get(at..at.checked_add(PREFIX)?)?;
    Some(u32::from_le_bytes(raw.try_into().expect("4-byte slice")) as usize)
}

/// The length-prefixed field at `at` and the offset just past it, or `None`
/// when the prefix or the field it announces runs off the end.
fn field_at(bytes: &[u8], at: usize) -> Option<(&[u8], usize)> {
    let start = at.checked_add(PREFIX)?;
    let end = start.checked_add(u32_at(bytes, at)?)?;
    Some((bytes.get(start..end)?, end))
}

/// The 8 bytes of `key` after its first `skip`, big-endian and zero-padded,
/// so heads order like the keys they start (ties aside).
fn head_after(key: &[u8], skip: usize) -> u64 {
    let rest = key.get(skip..).unwrap_or_default();
    match rest.first_chunk::<8>() {
        Some(head) => u64::from_be_bytes(*head),
        None => rest
            .iter()
            .zip((0..8).rev())
            .fold(0, |head, (&b, byte)| head | u64::from(b) << (8 * byte)),
    }
}

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// One slot page held in its spill encoding.
///
/// `bytes` is exactly what [`encode_page`] would produce for the page's
/// slots, at every moment: lookups search it through `offsets` and `heads`,
/// writes splice it in place, a split cuts it at the median slot. Nothing
/// is decoded into per-slot allocations and nothing has to be re-encoded
/// before the page is appended to a [`PageStore`](crate::PageStore).
///
/// Equality compares the derived index too, so a page equals
/// `SlottedPage::from_bytes(page.as_bytes())` exactly when its offsets and
/// key heads are what its bytes say they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlottedPage {
    /// The page in [`encode_page`] form.
    bytes: Vec<u8>,
    /// Offset in `bytes` of each slot's key-length prefix, in key order.
    offsets: Vec<u32>,
    /// Length of the common prefix of the lowest and highest key, which
    /// every key between them shares (0 on an empty page).
    shared: usize,
    /// Per slot, [`head_after`] its key and `shared`: non-decreasing.
    heads: Vec<u64>,
}

impl Default for SlottedPage {
    fn default() -> Self {
        SlottedPage::new()
    }
}

impl SlottedPage {
    /// An empty page (a zero slot count and nothing else).
    #[must_use]
    pub fn new() -> SlottedPage {
        SlottedPage {
            bytes: vec![0; HEADER],
            offsets: Vec::new(),
            shared: 0,
            heads: Vec::new(),
        }
    }

    /// Takes ownership of an encoded page, checking the whole of it: the
    /// slot count is bounded by what the bytes can hold *before* the index
    /// is allocated, every length stays inside the buffer, nothing trails
    /// the last slot, and keys strictly increase (lookups binary-search
    /// them, so an out-of-order page would answer wrongly, not fail).
    ///
    /// # Errors
    /// `InvalidData` for anything [`encode_page`] could not have written
    /// from a strictly ordered slot sequence.
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<SlottedPage> {
        if u32::try_from(bytes.len()).is_err() {
            return Err(invalid("page exceeds u32 length"));
        }
        let count = u32_at(&bytes, 0).ok_or_else(|| invalid("truncated page"))?;
        // An empty key with an empty value is two prefixes: the smallest slot.
        if count > (bytes.len() - HEADER) / (2 * PREFIX) {
            return Err(invalid("slot count exceeds page size"));
        }
        let mut offsets = Vec::with_capacity(count);
        let mut at = HEADER;
        let mut prev_key: Option<&[u8]> = None;
        for _ in 0..count {
            // `at <= bytes.len() <= u32::MAX` holds on every path to here.
            offsets.push(at as u32);
            let (key, key_end) = field_at(&bytes, at).ok_or_else(|| invalid("truncated page"))?;
            let (_, value_end) =
                field_at(&bytes, key_end).ok_or_else(|| invalid("truncated page"))?;
            if prev_key.is_some_and(|prev| prev >= key) {
                return Err(invalid("page keys out of order"));
            }
            prev_key = Some(key);
            at = value_end;
        }
        if at != bytes.len() {
            return Err(invalid("trailing page bytes"));
        }
        let mut page = SlottedPage {
            bytes,
            offsets,
            shared: 0,
            heads: Vec::new(),
        };
        page.reindex_heads();
        Ok(page)
    }

    /// The page in [`encode_page`] form — what is spilled and hashed.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the page holds no slot.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Key plus value bytes across all slots (the encoding minus its
    /// count header and two length prefixes per slot).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len() - HEADER - self.offsets.len() * 2 * PREFIX
    }

    /// Where slot `i` starts, or the end of the page for `i == len()`.
    fn slot_start(&self, i: usize) -> usize {
        self.offsets
            .get(i)
            .map_or(self.bytes.len(), |&o| o as usize)
    }

    /// The key of the slot that starts at byte `at`.
    fn key_from(&self, at: usize) -> &[u8] {
        field_at(&self.bytes, at)
            .expect("indexed slot holds a key")
            .0
    }

    /// Slot `i` as `(key, value)`.
    fn slot_at(&self, i: usize) -> (&[u8], &[u8]) {
        let (key, value_at) =
            field_at(&self.bytes, self.offsets[i] as usize).expect("indexed slot holds a key");
        let (value, _) = field_at(&self.bytes, value_at).expect("indexed slot holds a value");
        (key, value)
    }

    /// The common prefix length of the lowest and highest key as they
    /// stand.
    fn ends_prefix(&self) -> usize {
        match (self.offsets.first(), self.offsets.last()) {
            (Some(&lo), Some(&hi)) => {
                common_prefix(self.key_from(lo as usize), self.key_from(hi as usize))
            }
            _ => 0,
        }
    }

    /// Recomputes `shared` and every head from the bytes.
    fn reindex_heads(&mut self) {
        self.shared = self.ends_prefix();
        let mut heads = std::mem::take(&mut self.heads);
        heads.clear();
        heads.extend(
            self.offsets
                .iter()
                .map(|&at| head_after(self.key_from(at as usize), self.shared)),
        );
        self.heads = heads;
    }

    /// Indexes `key`, just inserted as slot `i`. A new lowest or highest
    /// key may shorten the shared prefix, which moves every head.
    fn index_inserted(&mut self, i: usize, key: &[u8]) {
        let at_end = i == 0 || i + 1 == self.len();
        if at_end && self.ends_prefix() != self.shared {
            self.reindex_heads();
        } else {
            self.heads.insert(i, head_after(key, self.shared));
        }
    }

    /// Drops slot `i`'s head, the slot already gone. Losing the lowest or
    /// highest key may lengthen the shared prefix, which moves every head.
    fn index_removed(&mut self, i: usize) {
        let at_end = i == 0 || i == self.len();
        if at_end && self.ends_prefix() != self.shared {
            self.reindex_heads();
        } else {
            self.heads.remove(i);
        }
    }

    /// `Ok(i)` when slot `i` holds `key`, `Err(i)` when it would go there.
    ///
    /// A key that leaves the shared prefix sorts below or above the whole
    /// page; otherwise its head picks the run of slots it ties with, and
    /// only that run compares full keys. The heads are searched before the
    /// prefix is read, so the two reads do not wait on each other.
    fn search(&self, key: &[u8]) -> Result<usize, usize> {
        if self.is_empty() {
            return Err(0);
        }
        let head = head_after(key, self.shared);
        // Both searches probe the same few lines of `heads` until the tie.
        let lo = self.heads.partition_point(|&h| h < head);
        let hi = self.heads.partition_point(|&h| h <= head);
        // The lowest slot starts right after the count.
        let shared = &self.key_from(HEADER)[..self.shared];
        let n = key.len().min(shared.len());
        match key[..n].cmp(&shared[..n]) {
            Ordering::Less => return Err(0),
            Ordering::Greater => return Err(self.len()),
            // A strict prefix of the shared prefix sorts below every key.
            Ordering::Equal if n < shared.len() => return Err(0),
            Ordering::Equal => {}
        }
        self.offsets[lo..hi]
            .binary_search_by(|&at| self.key_from(at as usize).cmp(key))
            .map(|i| lo + i)
            .map_err(|i| lo + i)
    }

    /// The value stored under `key`.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.search(key).ok().map(|i| self.slot_at(i).1)
    }

    /// Whether a slot exists under `key`.
    #[must_use]
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.search(key).is_ok()
    }

    /// The lowest key, if any.
    #[must_use]
    pub fn first_key(&self) -> Option<&[u8]> {
        self.offsets.first().map(|&at| self.key_from(at as usize))
    }

    /// All slots in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], &[u8])> {
        (0..self.len()).map(|i| self.slot_at(i))
    }

    /// The slots whose key is `>= key`, in key order.
    pub fn iter_from(&self, key: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
        let start = self.search(key).unwrap_or_else(|i| i);
        (start..self.len()).map(|i| self.slot_at(i))
    }

    /// Replaces `bytes[at..at + old_len]` with room for `new_len` bytes
    /// (contents unspecified) and moves every slot offset from index
    /// `from` on by the difference.
    ///
    /// # Panics
    /// If the page would outgrow the `u32` offsets of its own format.
    fn resize_gap(&mut self, at: usize, old_len: usize, new_len: usize, from: usize) {
        if old_len == new_len {
            return;
        }
        let old_total = self.bytes.len();
        let total = (old_total - old_len)
            .checked_add(new_len)
            .filter(|&t| u32::try_from(t).is_ok())
            .expect("slot page stays within its u32 offsets");
        if total > old_total {
            self.bytes.resize(total, 0);
        }
        self.bytes
            .copy_within(at + old_len..old_total, at + new_len);
        self.bytes.truncate(total);
        // Every offset moved starts at or past `at + old_len` and ends up
        // below `total`, so neither step leaves `u32`.
        for o in &mut self.offsets[from..] {
            *o = *o - old_len as u32 + new_len as u32;
        }
    }

    fn write_count(&mut self) {
        let count = u32::try_from(self.offsets.len()).expect("slot count fits u32");
        self.bytes[..HEADER].copy_from_slice(&count.to_le_bytes());
    }

    /// Writes a length prefix and its field at `at`; returns the end.
    fn write_field(&mut self, at: usize, field: &[u8]) -> usize {
        let len = u32::try_from(field.len()).expect("field fits u32");
        self.bytes[at..at + PREFIX].copy_from_slice(&len.to_le_bytes());
        let end = at + PREFIX + field.len();
        self.bytes[at + PREFIX..end].copy_from_slice(field);
        end
    }

    /// Stores `value` under `key`, returning the value it replaces.
    ///
    /// # Panics
    /// If the encoded page would pass `u32::MAX` bytes — the format's own
    /// offsets, and [`PageStore`](crate::PageStore) handles, are `u32`.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Option<Vec<u8>> {
        match self.search(key) {
            Ok(i) => {
                let (_, old) = self.slot_at(i);
                let prev = old.to_vec();
                let at = self.slot_start(i) + PREFIX + key.len();
                self.resize_gap(at, PREFIX + prev.len(), PREFIX + value.len(), i + 1);
                self.write_field(at, value);
                Some(prev)
            }
            Err(i) => {
                let at = self.slot_start(i);
                let slot_len = PREFIX
                    .checked_add(key.len())
                    .and_then(|n| n.checked_add(PREFIX))
                    .and_then(|n| n.checked_add(value.len()))
                    .expect("slot page stays within its u32 offsets");
                self.resize_gap(at, 0, slot_len, i);
                // `resize_gap` bounded the whole page, `at` included, by u32.
                self.offsets.insert(i, at as u32);
                let value_at = self.write_field(at, key);
                self.write_field(value_at, value);
                self.write_count();
                self.index_inserted(i, key);
                None
            }
        }
    }

    /// Deletes the slot under `key`, returning its value.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let i = self.search(key).ok()?;
        let prev = self.slot_at(i).1.to_vec();
        let at = self.slot_start(i);
        let slot_len = self.slot_start(i + 1) - at;
        self.resize_gap(at, slot_len, 0, i + 1);
        self.offsets.remove(i);
        self.write_count();
        self.index_removed(i);
        Some(prev)
    }

    /// Cuts the page at its median slot: `self` keeps the lower
    /// `len() / 2` slots and the rest are returned as a page of their own.
    #[must_use]
    pub fn split_off_upper(&mut self) -> SlottedPage {
        let mid = self.len() / 2;
        let cut = self.slot_start(mid);
        let mut bytes = Vec::with_capacity(HEADER + self.bytes.len() - cut);
        bytes.extend_from_slice(&[0; HEADER]);
        bytes.extend_from_slice(&self.bytes[cut..]);
        let shift = (cut - HEADER) as u32;
        let mut upper = SlottedPage {
            bytes,
            offsets: self.offsets[mid..].iter().map(|o| o - shift).collect(),
            shared: 0,
            heads: Vec::new(),
        };
        upper.write_count();
        upper.reindex_heads();
        self.bytes.truncate(cut);
        self.offsets.truncate(mid);
        self.write_count();
        self.reindex_heads();
        upper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Equality with a rebuild from the bytes is what tells a stale key
    /// head apart: one head off by one is a different page, and a search
    /// through it misses a key the bytes hold.
    #[test]
    fn a_stale_head_differs_from_the_rebuild() {
        let mut page = SlottedPage::new();
        for key in [&b"pod/a"[..], b"pod/b", b"pod/c"] {
            page.insert(key, b"v");
        }
        let rebuilt =
            |p: &SlottedPage| SlottedPage::from_bytes(p.as_bytes().to_vec()).expect("valid");
        assert_eq!(rebuilt(&page), page);
        assert_eq!((page.shared, page.heads.len()), (4, 3));
        page.heads[1] += 1;
        assert_ne!(rebuilt(&page), page);
        assert_eq!(page.get(b"pod/b"), None, "the stale head hides its slot");
    }
}
