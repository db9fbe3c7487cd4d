//! Property tests for the interner: intern∘resolve is the identity, and
//! symbol assignment is replay-stable. (The registry's private symbol map
//! is held to a reference `HashMap` by the crate's unit tests.)

use duc_intern::{Interner, Sym};
use proptest::prelude::*;

proptest! {
    /// Resolving an interned string returns the original string, and
    /// re-interning returns the original symbol (intern∘resolve = id in
    /// both directions).
    #[test]
    fn intern_resolve_roundtrip(words in proptest::collection::vec(".*", 0..64)) {
        let mut interner = Interner::new();
        let syms: Vec<Sym> = words.iter().map(|w| interner.intern(w)).collect();
        for (word, sym) in words.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(*sym), word.as_str());
            prop_assert_eq!(interner.intern(word), *sym);
            prop_assert_eq!(interner.get(word), Some(*sym));
            let arc = interner.resolve_arc(*sym);
            prop_assert_eq!(arc.as_ref(), word.as_str());
        }
        // Dense: symbol indices cover exactly [0, distinct).
        let distinct = words.iter().collect::<std::collections::HashSet<_>>().len();
        prop_assert_eq!(interner.len(), distinct);
        for sym in &syms {
            prop_assert!(sym.index() < distinct);
        }
    }

    /// Two interners fed the same word sequence assign identical symbols —
    /// the replay-stability a deterministic re-run depends on.
    #[test]
    fn symbol_assignment_is_replay_stable(words in proptest::collection::vec(".*", 0..64)) {
        let mut a = Interner::new();
        let mut b = Interner::new();
        let syms_a: Vec<Sym> = words.iter().map(|w| a.intern(w)).collect();
        let syms_b: Vec<Sym> = words.iter().map(|w| b.intern(w)).collect();
        prop_assert_eq!(syms_a, syms_b);
    }
}
