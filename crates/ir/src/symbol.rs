//! Interned identifiers with gensym support.
//!
//! All binders in every calculus of this workspace are named (rather than
//! de Bruijn-indexed) so that the Rust code stays close to the paper's
//! notation. Capture-avoiding substitution therefore needs a cheap source of
//! fresh names; [`Symbol::fresh`] provides one backed by a global counter.

use std::collections::hash_map::{Entry, VacantEntry};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::RwLock;

/// An interned identifier.
///
/// Two symbols compare equal iff they intern the same string. Fresh symbols
/// produced by [`Symbol::fresh`] and [`gensym`] have the form `base%N` and
/// are fresh by construction: `gensym` skips every `N` whose name is already
/// interned. The source-language lexer rejects `%`, but the λGC text lexer
/// accepts it (printed programs carry gensym'd names), so a name read from
/// λGC text may take any `base%N` first.
///
/// # Examples
///
/// ```
/// use ps_ir::Symbol;
/// assert_eq!(Symbol::intern("copy"), Symbol::intern("copy"));
/// assert_ne!(Symbol::intern("copy"), Symbol::intern("gc"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

#[derive(Default)]
struct Interner {
    names: Vec<String>,
    table: HashMap<String, u32>,
}

impl Interner {
    /// Records the name of a vacant table entry as the next id.
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX` distinct names (unreachable in practice).
    #[allow(clippy::expect_used)]
    fn push(names: &mut Vec<String>, slot: VacantEntry<'_, String, u32>) -> u32 {
        let id = u32::try_from(names.len()).expect("interner overflow");
        names.push(slot.key().clone());
        slot.insert(id);
        id
    }
}

static INTERNER: RwLock<Option<Interner>> = RwLock::new(None);
static GENSYM: AtomicU32 = AtomicU32::new(0);

impl Symbol {
    /// Interns `name`, returning the canonical symbol for it.
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX` distinct names (unreachable in practice).
    pub fn intern(name: &str) -> Symbol {
        {
            // The interner is append-only, so a value poisoned by a
            // panicking writer is still consistent; recover it.
            let guard = INTERNER
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(interner) = guard.as_ref() {
                if let Some(&id) = interner.table.get(name) {
                    return Symbol(id);
                }
            }
        }
        let mut guard = INTERNER
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let interner = guard.get_or_insert_with(Interner::default);
        match interner.table.entry(name.to_owned()) {
            Entry::Occupied(e) => Symbol(*e.get()),
            Entry::Vacant(e) => Symbol(Interner::push(&mut interner.names, e)),
        }
    }

    /// Returns the interned string.
    ///
    /// The returned `String` is owned because the interner may reallocate; the
    /// cost is irrelevant for diagnostics, which is the only intended use.
    pub fn as_str(self) -> String {
        let guard = INTERNER
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard
            .as_ref()
            .and_then(|i| i.names.get(self.0 as usize))
            .cloned()
            .unwrap_or_else(|| format!("<sym#{}>", self.0))
    }

    /// Returns the base name of this symbol, i.e. the part before any gensym
    /// suffix.
    ///
    /// ```
    /// use ps_ir::Symbol;
    /// let x = Symbol::intern("acc").fresh().fresh();
    /// assert_eq!(x.base(), "acc");
    /// ```
    pub fn base(self) -> String {
        let s = self.as_str();
        match s.find('%') {
            Some(idx) => s[..idx].to_owned(),
            None => s,
        }
    }

    /// Produces a fresh symbol sharing this symbol's base name.
    ///
    /// Freshness is global: no two calls ever return the same symbol, and a
    /// fresh symbol never equals a directly interned source name.
    pub fn fresh(self) -> Symbol {
        gensym(&self.base())
    }
}

/// A [`Hasher`] specialised for [`Symbol`] keys.
///
/// Symbols hash a single `u32` intern id; mixing it with one 64-bit
/// multiplication (the Fibonacci constant) is both faster and better
/// distributed for table sizes that are powers of two than the default
/// SipHash, which matters in the interpreter's environment maps where a
/// lookup happens on every variable occurrence.
#[derive(Default)]
pub struct SymbolHasher(u64);

impl Hasher for SymbolHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (only exercised if a composite key embeds a
        // Symbol); fold bytes in and mix.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// `HashMap` keyed by [`Symbol`] using [`SymbolHasher`].
pub type SymbolMap<V> = HashMap<Symbol, V, BuildHasherDefault<SymbolHasher>>;

/// `HashSet` keyed by [`Symbol`] using [`SymbolHasher`].
pub type SymbolSet = std::collections::HashSet<Symbol, BuildHasherDefault<SymbolHasher>>;

/// Produces a globally fresh symbol with the given base name.
///
/// The result is `base%N` for the next counter value `N` whose name is not
/// interned yet, so it is fresh even against `%` names read from λGC text.
/// The whole step runs under one write lock with one table probe per
/// candidate name.
///
/// # Examples
///
/// ```
/// use ps_ir::symbol::gensym;
/// assert_ne!(gensym("r"), gensym("r"));
/// ```
pub fn gensym(base: &str) -> Symbol {
    let mut guard = INTERNER
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let interner = guard.get_or_insert_with(Interner::default);
    loop {
        let n = GENSYM.fetch_add(1, Ordering::Relaxed);
        let mut name = String::with_capacity(base.len() + 8);
        let _ = write!(name, "{base}%{n}");
        if let Entry::Vacant(slot) = interner.table.entry(name) {
            return Symbol(Interner::push(&mut interner.names, slot));
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("foo");
        let b = Symbol::intern("foo");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "foo");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("a"), Symbol::intern("b"));
    }

    #[test]
    fn fresh_never_collides() {
        let x = Symbol::intern("x");
        let mut seen = std::collections::HashSet::new();
        seen.insert(x);
        for _ in 0..100 {
            let f = x.fresh();
            assert!(seen.insert(f), "gensym produced a duplicate");
        }
    }

    #[test]
    fn fresh_keeps_base() {
        let x = Symbol::intern("kont");
        assert_eq!(x.fresh().base(), "kont");
        assert_eq!(x.fresh().fresh().base(), "kont");
    }

    #[test]
    fn gensym_skips_names_interned_from_text() {
        // A λGC text may carry `base%N` names that no gensym produced (its
        // lexer accepts `%`); the names the counter reaches next must not
        // be handed out again.
        let next = GENSYM.load(Ordering::Relaxed);
        let taken: Vec<Symbol> = (next..next + 64)
            .map(|n| Symbol::intern(&format!("t%{n}")))
            .collect();
        for _ in 0..64 {
            let g = gensym("t");
            assert!(!taken.contains(&g), "gensym returned pre-interned {g}");
            assert_eq!(g.base(), "t");
        }
    }

    #[test]
    fn gensym_from_scratch() {
        let g = gensym("t");
        assert_eq!(g.base(), "t");
        assert!(g.as_str().contains('%'));
    }

    #[test]
    fn display_matches_as_str() {
        let s = Symbol::intern("display-me");
        assert_eq!(format!("{s}"), "display-me");
        assert_eq!(format!("{s:?}"), "display-me");
    }

    #[test]
    fn symbols_are_ordered_consistently() {
        let a = Symbol::intern("ord-a");
        let b = Symbol::intern("ord-b");
        // Ordering is by intern id, not lexicographic; it only needs to be a
        // total order usable in BTreeMaps.
        assert_eq!(a.cmp(&b), a.cmp(&b));
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
