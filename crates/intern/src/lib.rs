//! # duc-intern — identity interning
//!
//! Every layer of the architecture names the same few entities over and
//! over: WebIDs, pod URLs, resource names, policy hashes, contract method
//! labels. Keying state on owned `String`s makes each map operation hash
//! a full URL and each cross-layer hand-off clone it — fine at two owners,
//! ruinous at 10⁵ (ROADMAP item 1). This crate provides the shared
//! vocabulary for the refactor:
//!
//! - [`Sym`] — a `u32` symbol standing in for an interned string.
//! - [`Interner`] — deterministic string ↔ [`Sym`] table. Symbols are
//!   assigned in first-insertion order, so a replayed run (same seed, same
//!   operation sequence) assigns identical symbols: interning is
//!   replay-stable by construction.
//! - [`SymMap`] — a flat, dense map keyed by [`Sym`]: a `u32` index vector
//!   into a packed entry array. Lookup is two array probes, no hashing.
//! - [`SharedInterner`] / [`Registry`] — a clonable interner handle and a
//!   string-façaded registry over it, so several registries (owners,
//!   devices) share one symbol space while call sites keep `&str` keys.
//!
//! Interned symbols never cross the wire: contract ABI bytes, storage keys
//! and event payloads stay exactly as before. Interning only replaces the
//! *off-chain* bookkeeping around them.
//!
//! ## When `SymMap` is the wrong map
//!
//! A [`SymMap`] (and so a [`Registry`]) pays four bytes for every symbol id
//! up to the largest key it has been given, whether or not the ids below it
//! are present. Use it where the keys are *dense in their interner*: one map
//! per world or per contract, over an interner that holds little besides
//! that map's keys (the world's owner and device registries). Never keep one
//! map *per actor* over a *shared* interner: each device's resource index
//! was once a `Registry` over the world's symbol space, where resource IRIs
//! are interned after every owner and device name, so a device that indexed
//! a single resource allocated and filled 80–120 KB at 10⁴ owners (ten times
//! that at 10⁵) — over 800 MiB of a 10⁴-owner benchmark run's peak RSS. A
//! table an actor holds one to a few entries of — a pod's resources, a
//! device's index, a TEE's copies and sealed entries — is a sorted `Vec`
//! searched by binary search, which costs what it holds.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A `u32` symbol standing in for an interned string.
///
/// Symbols are only meaningful relative to the [`Interner`] that produced
/// them; comparing symbols from different interners is a logic error (not
/// UB — just nonsense).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The raw index of this symbol (dense, starting at 0).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

/// A deterministic string interner.
///
/// Strings are stored once as `Arc<str>` (cheap to hand out, `Send +
/// Sync`, so an interner can live inside a `Contract: Send`); symbols are
/// assigned densely in first-insertion order.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    lookup: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `s`, returning its symbol — the existing one if `s` was
    /// seen before, a fresh dense id otherwise.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` distinct strings are interned.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.lookup.get(s) {
            return Sym(id);
        }
        let id = u32::try_from(self.strings.len()).expect("interner symbol space exhausted");
        let arc: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&arc));
        self.lookup.insert(arc, id);
        Sym(id)
    }

    /// The symbol of `s`, if it has been interned. Never allocates.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.lookup.get(s).map(|&id| Sym(id))
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// A cheap owned handle to the string behind `sym`.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve_arc(&self, sym: Sym) -> Arc<str> {
        Arc::clone(&self.strings[sym.index()])
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// A flat, dense map keyed by [`Sym`].
///
/// Two-level layout: a `u32` index vector (one slot per symbol *id* up to
/// the largest key ever inserted — 4 bytes each, present or not; probes
/// never grow it) pointing into a packed entry array. Lookup is two array
/// probes with no hashing; iteration walks the packed entries, so it is
/// cache-friendly and deterministic (insertion order until a removal,
/// arbitrary-but-deterministic after — removals backfill with the last
/// entry).
///
/// The index vector makes the map's size a function of the *interner's*
/// population, not of its own: right where the keys are dense in their
/// interner, wrong for one map per actor over a shared interner (see the
/// crate docs, "When `SymMap` is the wrong map").
pub struct SymMap<V> {
    index: Vec<u32>,
    entries: Vec<(Sym, V)>,
}

const VACANT: u32 = u32::MAX;

impl<V> SymMap<V> {
    /// An empty map.
    pub fn new() -> SymMap<V> {
        SymMap {
            index: Vec::new(),
            entries: Vec::new(),
        }
    }

    fn slot(&self, key: Sym) -> Option<usize> {
        match self.index.get(key.index()) {
            Some(&s) if s != VACANT => Some(s as usize),
            _ => None,
        }
    }

    /// Inserts `value` under `key`, returning the previous value if any.
    pub fn insert(&mut self, key: Sym, value: V) -> Option<V> {
        if let Some(slot) = self.slot(key) {
            return Some(std::mem::replace(&mut self.entries[slot].1, value));
        }
        if key.index() >= self.index.len() {
            self.index.resize(key.index() + 1, VACANT);
        }
        debug_assert!(self.entries.len() < VACANT as usize);
        self.index[key.index()] = self.entries.len() as u32;
        self.entries.push((key, value));
        None
    }

    /// The value under `key`, if present.
    #[inline]
    pub fn get(&self, key: Sym) -> Option<&V> {
        self.slot(key).map(|s| &self.entries[s].1)
    }

    /// Mutable access to the value under `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: Sym) -> Option<&mut V> {
        self.slot(key).map(|s| &mut self.entries[s].1)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: Sym) -> bool {
        self.slot(key).is_some()
    }

    /// Removes and returns the value under `key`. The vacated slot is
    /// backfilled with the last packed entry (deterministic given the same
    /// operation sequence).
    pub fn remove(&mut self, key: Sym) -> Option<V> {
        let slot = self.slot(key)?;
        self.index[key.index()] = VACANT;
        let (_, value) = self.entries.swap_remove(slot);
        if let Some(&(moved, _)) = self.entries.get(slot) {
            self.index[moved.index()] = slot as u32;
        }
        Some(value)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all entries (keeps the index capacity).
    pub fn clear(&mut self) {
        self.index.fill(VACANT);
        self.entries.clear();
    }

    /// Iterates `(symbol, &value)` over the packed entries.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Iterates `(symbol, &mut value)` over the packed entries.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Sym, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (*k, v))
    }

    /// Iterates the keys in packed order.
    pub fn keys(&self) -> impl Iterator<Item = Sym> + '_ {
        self.entries.iter().map(|(k, _)| *k)
    }

    /// Iterates the values in packed order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Iterates the values mutably in packed order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<V> Default for SymMap<V> {
    fn default() -> SymMap<V> {
        SymMap::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for SymMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<V: Clone> Clone for SymMap<V> {
    fn clone(&self) -> SymMap<V> {
        SymMap {
            index: self.index.clone(),
            entries: self.entries.clone(),
        }
    }
}

/// A clonable handle to an interner shared by several registries, so that
/// owners, devices and the driver's obligation keys all live in one symbol
/// space. Single-threaded by design (the simulation world is `!Send`);
/// `Send` contexts embed a plain [`Interner`] instead.
#[derive(Debug, Clone, Default)]
pub struct SharedInterner(Rc<RefCell<Interner>>);

impl SharedInterner {
    /// A fresh, empty shared interner.
    pub fn new() -> SharedInterner {
        SharedInterner::default()
    }

    /// Interns `s` (see [`Interner::intern`]).
    pub fn intern(&self, s: &str) -> Sym {
        self.0.borrow_mut().intern(s)
    }

    /// The symbol of `s`, if interned. Never allocates.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.0.borrow().get(s)
    }

    /// A cheap owned handle to the string behind `sym`.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        self.0.borrow().resolve_arc(sym)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

/// A string-façaded registry over a [`SharedInterner`]: behaves like a
/// `HashMap<String, V>` at the call site (`&str` keys in, `&str` keys
/// out), but stores values in a flat [`SymMap`] and each key string
/// exactly once (`Arc<str>` shared with the interner).
///
/// Iteration order is packed-entry order: insertion order until a removal,
/// deterministic always — unlike `HashMap`, two identical runs iterate
/// identically.
///
/// It inherits [`SymMap`]'s contract: one registry per world over the
/// shared interner (owners, devices), never one per actor — a registry
/// holding a single late-interned key still carries four bytes for every
/// symbol interned before it.
#[derive(Debug, Clone)]
pub struct Registry<V> {
    ids: SharedInterner,
    map: SymMap<(Arc<str>, V)>,
}

impl<V> Registry<V> {
    /// An empty registry sharing `ids`.
    pub fn new(ids: SharedInterner) -> Registry<V> {
        Registry {
            ids,
            map: SymMap::new(),
        }
    }

    /// The shared interner behind this registry.
    pub fn ids(&self) -> &SharedInterner {
        &self.ids
    }

    /// The symbol of `name` in the shared symbol space, if interned.
    pub fn sym(&self, name: &str) -> Option<Sym> {
        self.ids.get(name)
    }

    /// Inserts `value` under `name` (interning it), returning the previous
    /// value if any.
    pub fn insert(&mut self, name: &str, value: V) -> Option<V> {
        let sym = self.ids.intern(name);
        let arc = self.ids.resolve(sym);
        self.map.insert(sym, (arc, value)).map(|(_, v)| v)
    }

    /// The value under `name`, if present.
    pub fn get(&self, name: &str) -> Option<&V> {
        let sym = self.ids.get(name)?;
        self.map.get(sym).map(|(_, v)| v)
    }

    /// Mutable access to the value under `name`, if present.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut V> {
        let sym = self.ids.get(name)?;
        self.map.get_mut(sym).map(|(_, v)| v)
    }

    /// Mutable access to the value under symbol `sym`, if present.
    pub fn get_sym_mut(&mut self, sym: Sym) -> Option<&mut V> {
        self.map.get_mut(sym).map(|(_, v)| v)
    }

    /// Whether `name` is registered.
    pub fn contains_key(&self, name: &str) -> bool {
        self.ids
            .get(name)
            .map(|sym| self.map.contains(sym))
            .unwrap_or(false)
    }

    /// Removes and returns the value under `name`.
    pub fn remove(&mut self, name: &str) -> Option<V> {
        let sym = self.ids.get(name)?;
        self.map.remove(sym).map(|(_, v)| v)
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(&name, &value)` in packed order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.map.iter().map(|(_, (name, v))| (name.as_ref(), v))
    }

    /// Iterates `(&name, &mut value)` in packed order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut V)> {
        self.map.iter_mut().map(|(_, (name, v))| (&**name, v))
    }

    /// Iterates the registered names in packed order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.map.values().map(|(name, _)| name.as_ref())
    }

    /// Iterates the values in packed order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(_, v)| v)
    }

    /// Iterates the values mutably in packed order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.map.values_mut().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("https://alice.pod/profile#me");
        let b = i.intern("https://bob.pod/profile#me");
        assert_eq!(a, i.intern("https://alice.pod/profile#me"));
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.resolve(a), "https://alice.pod/profile#me");
        assert_eq!(i.resolve(b), "https://bob.pod/profile#me");
        assert_eq!(i.len(), 2);
        assert_eq!(i.get("https://bob.pod/profile#me"), Some(b));
        assert_eq!(i.get("nope"), None);
    }

    #[test]
    fn symbols_are_first_insertion_ordered() {
        let words = ["pod", "resource", "pod", "device", "resource", "webid"];
        let mut a = Interner::new();
        let mut b = Interner::new();
        let syms_a: Vec<Sym> = words.iter().map(|w| a.intern(w)).collect();
        let syms_b: Vec<Sym> = words.iter().map(|w| b.intern(w)).collect();
        assert_eq!(
            syms_a, syms_b,
            "replaying the sequence reassigns identically"
        );
        assert_eq!(syms_a[0].index(), 0);
        assert_eq!(syms_a[2], syms_a[0]);
        assert_eq!(syms_a[5].index(), 3);
    }

    #[test]
    fn symmap_insert_get_remove() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let c = i.intern("c");
        let mut m: SymMap<u32> = SymMap::new();
        assert_eq!(m.insert(a, 1), None);
        assert_eq!(m.insert(b, 2), None);
        assert_eq!(m.insert(c, 3), None);
        assert_eq!(m.insert(b, 20), Some(2));
        assert_eq!(m.get(b), Some(&20));
        assert_eq!(m.len(), 3);
        assert!(m.contains(a));
        // Removing the first entry backfills with the last.
        assert_eq!(m.remove(a), Some(1));
        assert!(!m.contains(a));
        assert_eq!(m.get(c), Some(&3));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(a), None);
        *m.get_mut(c).unwrap() += 1;
        assert_eq!(m.get(c), Some(&4));
    }

    #[test]
    fn symmap_iterates_in_insertion_order() {
        let mut i = Interner::new();
        let syms: Vec<Sym> = ["z", "m", "a"].iter().map(|w| i.intern(w)).collect();
        let mut m: SymMap<&str> = SymMap::new();
        for (n, s) in syms.iter().enumerate() {
            m.insert(*s, ["z", "m", "a"][n]);
        }
        let order: Vec<&str> = m.values().copied().collect();
        assert_eq!(order, ["z", "m", "a"], "packed order, not key order");
    }

    #[test]
    fn registry_behaves_like_a_string_map() {
        let ids = SharedInterner::new();
        let mut owners: Registry<u32> = Registry::new(ids.clone());
        let mut devices: Registry<u32> = Registry::new(ids.clone());
        assert_eq!(owners.insert("alice", 1), None);
        assert_eq!(owners.insert("bob", 2), None);
        assert_eq!(devices.insert("alice-phone", 10), None);
        assert!(owners.contains_key("alice"));
        assert!(!owners.contains_key("alice-phone"));
        assert_eq!(owners.get("bob"), Some(&2));
        *owners.get_mut("bob").unwrap() = 3;
        assert_eq!(owners.get("bob"), Some(&3));
        // One shared symbol space across both registries.
        assert_eq!(ids.len(), 3);
        let alice = owners.sym("alice").unwrap();
        assert_eq!(
            owners
                .iter()
                .map(|(k, _)| k.to_string())
                .collect::<Vec<_>>(),
            ["alice", "bob"]
        );
        assert_eq!(owners.remove("alice"), Some(1));
        assert_eq!(owners.len(), 1);
        // The symbol survives removal; re-insertion reuses it.
        assert_eq!(owners.insert("alice", 9), None);
        assert_eq!(owners.sym("alice"), Some(alice));
    }
}
