//! A global string interner.
//!
//! Identifiers in Lilac programs (component names, parameter names, events,
//! port names) are interned into copyable [`Symbol`]s so that the AST, the
//! solver, and the IR can compare and hash names cheaply.

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string.
///
/// Two `Symbol`s are equal if and only if the strings they were interned from
/// are equal. Symbols are cheap to copy and hash.
///
/// # Example
///
/// ```
/// use lilac_util::intern::Symbol;
/// let g = Symbol::intern("G");
/// assert_eq!(g.as_str(), "G");
/// assert_eq!(g, Symbol::intern("G"));
/// assert_ne!(g, Symbol::intern("G2"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    map: FxHashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

impl Interner {
    fn new() -> Self {
        Interner { map: FxHashMap::default(), strings: Vec::new() }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        // Leaking is fine: the set of distinct identifiers in a compiler run
        // is small and the interner lives for the whole process anyway.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = self.strings.len() as u32;
        self.strings.push(leaked);
        self.map.insert(leaked, id);
        id
    }

    fn resolve(&self, id: u32) -> &'static str {
        self.strings[id as usize]
    }
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner::new()))
}

impl Symbol {
    /// Interns `s`, returning its unique symbol.
    pub fn intern(s: &str) -> Symbol {
        Symbol(interner().lock().expect("interner poisoned").intern(s))
    }

    /// Returns the string this symbol was interned from.
    pub fn as_str(&self) -> &'static str {
        interner().lock().expect("interner poisoned").resolve(self.0)
    }

    /// Returns the raw interner index (useful for dense maps).
    pub fn index(&self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::intern(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_string_same_symbol() {
        assert_eq!(Symbol::intern("abc"), Symbol::intern("abc"));
    }

    #[test]
    fn different_strings_different_symbols() {
        assert_ne!(Symbol::intern("abc"), Symbol::intern("abd"));
    }

    #[test]
    fn resolves_back_to_string() {
        let s = Symbol::intern("FPAdd::#L");
        assert_eq!(s.as_str(), "FPAdd::#L");
        assert_eq!(s.to_string(), "FPAdd::#L");
        assert_eq!(format!("{s:?}"), "FPAdd::#L");
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "x".into();
        let b: Symbol = String::from("x").into();
        assert_eq!(a, b);
    }

    #[test]
    fn many_symbols_are_distinct() {
        let symbols: Vec<Symbol> = (0..1000).map(|i| Symbol::intern(&format!("sym{i}"))).collect();
        for (i, s) in symbols.iter().enumerate() {
            assert_eq!(s.as_str(), format!("sym{i}"));
        }
    }

    #[test]
    fn ordering_is_consistent() {
        let a = Symbol::intern("ord_test_a");
        let b = Symbol::intern("ord_test_b");
        // Ordering is by intern index, not lexicographic; just check totality.
        assert!(a < b || b < a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }
}
