//! Interned identifier names.
//!
//! Every identifier the parser sees becomes a [`Symbol`]: a shared,
//! immutable `Arc<str>`. Within one parse, all occurrences of the same name
//! point at a single allocation (the parser's [`Interner`] deduplicates),
//! so AST clones, environment keys, and summary tables bump a reference
//! count instead of copying string bytes. Equality gets a pointer fast
//! path; hashing and ordering stay content-based, so symbols from
//! *different* parses (or hand-built test ASTs) compare like plain strings.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// [FNV-1a](https://en.wikipedia.org/wiki/Fowler%E2%80%93Noll%E2%80%93Vo_hash_function),
/// the workspace's one stable content hash: cache keys, fingerprints,
/// shingles, feature buckets and fault keys all go through it. It also
/// hashes the identifier-keyed maps on the analysis hot paths, whose keys
/// are short program identifiers from a trusted parser — SipHash's
/// flooding resistance buys nothing there, while its per-hash setup cost
/// dominates for sub-16-byte strings.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// FNV-1a of `bytes`.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::default();
        h.write(bytes);
        h.finish()
    }
}

/// Streams formatted text into the hash: hashing `Debug` output this way
/// equals hashing the formatted `String`, without allocating it.
impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 { state: 0xcbf2_9ce4_8422_2325 }
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// `BuildHasher` plugging [`Fnv64`] into `HashMap`/`HashSet`.
pub type FnvBuildHasher = BuildHasherDefault<Fnv64>;

/// An interned identifier: cheap to clone, compares like `&str`.
#[derive(Clone)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// Creates a standalone (un-deduplicated) symbol. Prefer
    /// [`Interner::intern`] inside parsers and other hot paths.
    pub fn new(name: impl AsRef<str>) -> Self {
        Symbol(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol(Arc::from(s))
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Self {
        Symbol::new(s)
    }
}

impl From<&Symbol> for Symbol {
    fn from(s: &Symbol) -> Self {
        s.clone()
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.0.as_ref().to_string()
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Symbol {}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

/// Content hashing, matching `str` — a `HashMap<Symbol, _>` can be probed
/// with `&str` keys via [`Borrow`].
impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (*self.0).hash(state);
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == &*other.0
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == &*other.0
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == &*other.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// Deduplicating symbol factory: one allocation per distinct name.
#[derive(Debug, Default)]
pub struct Interner {
    names: HashSet<Arc<str>, FnvBuildHasher>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Returns the shared symbol for `name`, allocating only on first sight.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(existing) = self.names.get(name) {
            return Symbol(Arc::clone(existing));
        }
        let arc: Arc<str> = Arc::from(name);
        self.names.insert(Arc::clone(&arc));
        Symbol(arc)
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn interning_shares_storage() {
        let mut i = Interner::new();
        let a = i.intern("buf");
        let b = i.intern("buf");
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(i.len(), 1);
        let c = i.intern("len");
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn symbols_compare_like_strings() {
        let a = Symbol::from("alpha");
        let b = Symbol::from("alpha");
        let c = Symbol::from("beta");
        assert_eq!(a, b);
        assert!(a < c);
        assert_eq!(a, "alpha");
        assert_eq!("alpha", a.clone());
        assert_eq!(a, "alpha".to_string());
        assert_eq!(format!("{a}"), "alpha");
        assert_eq!(format!("{a:?}"), "\"alpha\"");
    }

    #[test]
    fn hash_matches_str_for_map_probes() {
        let mut m: HashMap<Symbol, u32> = HashMap::new();
        m.insert(Symbol::from("x"), 7);
        assert_eq!(m.get("x"), Some(&7));
        assert_eq!(m.get("y"), None);
    }
}
