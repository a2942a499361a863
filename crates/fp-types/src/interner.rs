//! Global string interner.
//!
//! Attribute values in a recorded campaign repeat massively (there are a few
//! hundred distinct User-Agents across half a million requests), so values
//! are stored as [`Symbol`]s: indexes into a process-global table of leaked
//! `&'static str`. Leaking is deliberate — the interner lives for the whole
//! measurement run and the total distinct-string volume is a few megabytes.
//!
//! Interning is thread-safe (`std::sync::RwLock`) so traffic generators can
//! run on scoped threads. A poisoned lock is recovered rather than
//! propagated: the table is only ever mutated by appending a fully built
//! entry, so a panic elsewhere cannot leave it half-written.
//!
//! Every lookup takes the lock, and threads that look up at once contend
//! on it even when nothing is written. So hot callers intern a value once
//! and keep its [`Symbol`]: the collector's per-thread memo, the TLS
//! facets and the region labels. Values that are new on every request
//! (bot canvas noise) still take the write lock each time.

use std::collections::HashMap;
use std::fmt;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A handle to an interned string. `Copy`, 4 bytes, equality is an integer
/// compare. Resolve back with [`Symbol::as_str`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Table {
    strings: Vec<&'static str>,
    index: HashMap<&'static str, u32>,
}

static TABLE: RwLock<Option<Table>> = RwLock::new(None);

fn read_table() -> RwLockReadGuard<'static, Option<Table>> {
    TABLE.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_table() -> RwLockWriteGuard<'static, Option<Table>> {
    TABLE.write().unwrap_or_else(PoisonError::into_inner)
}

/// The global interner. All [`Symbol`]s are created through here (usually via
/// the [`sym`] convenience function).
pub struct Interner;

impl Interner {
    /// Intern `s`, returning its stable [`Symbol`]. Idempotent.
    pub fn intern(s: &str) -> Symbol {
        // Fast path: read lock only.
        {
            let guard = read_table();
            if let Some(table) = guard.as_ref() {
                if let Some(&id) = table.index.get(s) {
                    return Symbol(id);
                }
            }
        }
        let mut guard = write_table();
        let table = guard.get_or_insert_with(|| Table {
            strings: Vec::with_capacity(1024),
            index: HashMap::with_capacity(1024),
        });
        if let Some(&id) = table.index.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(table.strings.len()).expect("interner overflow");
        table.strings.push(leaked);
        table.index.insert(leaked, id);
        Symbol(id)
    }

    /// Number of distinct strings interned so far.
    pub fn len() -> usize {
        read_table().as_ref().map_or(0, |t| t.strings.len())
    }
}

impl Symbol {
    /// Resolve the symbol back to its string.
    pub fn as_str(self) -> &'static str {
        read_table()
            .as_ref()
            .and_then(|t| t.strings.get(self.0 as usize).copied())
            .expect("symbol from foreign interner")
    }

    /// The raw index (useful as a dense feature id in `fp-ml`).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Intern a string (shorthand for [`Interner::intern`]).
pub fn sym(s: &str) -> Symbol {
    Interner::intern(s)
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        sym(s)
    }
}

impl serde::Serialize for Symbol {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> serde::Deserialize<'de> for Symbol {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(sym(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = sym("hello-interner");
        let b = sym("hello-interner");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "hello-interner");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = sym("interner-a");
        let b = sym("interner-b");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "interner-a");
        assert_eq!(b.as_str(), "interner-b");
    }

    #[test]
    fn empty_string_is_internable() {
        let e = sym("");
        assert_eq!(e.as_str(), "");
        assert_eq!(e, sym(""));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..200)
                        .map(|i| sym(&format!("conc-{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let s = sym("serde-roundtrip");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"serde-roundtrip\"");
        let back: Symbol = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
