//! Attribute values.
//!
//! A value is a small tagged union. List-valued attributes (plugins, fonts,
//! languages) intern the *joined* canonical form as well, so two requests
//! with the same plugin set compare equal on a single `Symbol` — the miner
//! treats each distinct list as one configuration, exactly like the paper
//! treats "Plugins" as one attribute.

use crate::interner::{sym, Symbol};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One fingerprint attribute value.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum AttrValue {
    /// Attribute absent (API not present in this browser, or blocked).
    Missing,
    /// Boolean attribute (`webdriver`, `hdr`, storage availability, ...).
    Bool(bool),
    /// Integer attribute (cores, touch points, color depth, tz offset, ...).
    Int(i64),
    /// Floating-point attribute (`deviceMemory`, audio digest, widths).
    /// Stored as milli-units to keep `AttrValue: Eq + Hash` honest.
    Milli(i64),
    /// Interned string attribute (platform, vendor, timezone, digests, ...).
    /// Also the canonical form of list attributes (joined with `,`).
    Sym(Symbol),
    /// Screen-like dimension pair, `width x height`.
    Resolution(u16, u16),
}

impl Eq for AttrValue {}

impl std::hash::Hash for AttrValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            AttrValue::Missing => {}
            AttrValue::Bool(b) => b.hash(state),
            AttrValue::Int(i) => i.hash(state),
            AttrValue::Milli(m) => m.hash(state),
            AttrValue::Sym(s) => s.hash(state),
            AttrValue::Resolution(w, h) => {
                w.hash(state);
                h.hash(state);
            }
        }
    }
}

impl AttrValue {
    /// Build a float value (stored with millis precision).
    pub fn float(v: f64) -> AttrValue {
        AttrValue::Milli((v * 1000.0).round() as i64)
    }

    /// Build a string value.
    pub fn text(s: &str) -> AttrValue {
        AttrValue::Sym(sym(s))
    }

    /// Build a canonical list value: items joined by `,` (order preserved —
    /// plugin order is itself a fingerprint signal).
    pub fn list<I: IntoIterator<Item = S>, S: AsRef<str>>(items: I) -> AttrValue {
        let joined = items
            .into_iter()
            .map(|s| s.as_ref().to_owned())
            .collect::<Vec<_>>()
            .join(",");
        AttrValue::Sym(sym(&joined))
    }

    /// `true` when the value is [`AttrValue::Missing`].
    pub fn is_missing(&self) -> bool {
        matches!(self, AttrValue::Missing)
    }

    /// Integer view (for `Int` and `Bool`).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            AttrValue::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Float view (for `Milli`, `Int`, `Bool`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Milli(m) => Some(*m as f64 / 1000.0),
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Bool(b) => Some(f64::from(u8::from(*b))),
            _ => None,
        }
    }

    /// Symbol view.
    pub fn as_sym(&self) -> Option<Symbol> {
        match self {
            AttrValue::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// String view (symbols only).
    pub fn as_str(&self) -> Option<&'static str> {
        self.as_sym().map(Symbol::as_str)
    }

    /// Resolution view.
    pub fn as_resolution(&self) -> Option<(u16, u16)> {
        match self {
            AttrValue::Resolution(w, h) => Some((*w, *h)),
            _ => None,
        }
    }

    /// Split a canonical list value back into items. Empty list for the
    /// empty string, `None` for non-symbol values.
    pub fn as_list(&self) -> Option<Vec<&'static str>> {
        let s = self.as_str()?;
        if s.is_empty() {
            return Some(Vec::new());
        }
        Some(s.split(',').collect())
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Missing => f.write_str("<missing>"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Milli(m) => write!(f, "{}", *m as f64 / 1000.0),
            AttrValue::Sym(s) => f.write_str(s.as_str()),
            AttrValue::Resolution(w, h) => write!(f, "{w}x{h}"),
        }
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}
impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}
impl From<u32> for AttrValue {
    fn from(i: u32) -> Self {
        AttrValue::Int(i64::from(i))
    }
}
impl From<Symbol> for AttrValue {
    fn from(s: Symbol) -> Self {
        AttrValue::Sym(s)
    }
}
impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::text(s)
    }
}
impl From<(u16, u16)> for AttrValue {
    fn from((w, h): (u16, u16)) -> Self {
        AttrValue::Resolution(w, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_roundtrips_with_milli_precision() {
        let v = AttrValue::float(131.512);
        assert_eq!(v.as_f64(), Some(131.512));
        let v = AttrValue::float(0.5);
        assert_eq!(v.as_f64(), Some(0.5));
    }

    #[test]
    fn list_canonicalization_is_order_sensitive() {
        let a = AttrValue::list(["PDF Viewer", "Chrome PDF Viewer"]);
        let b = AttrValue::list(["Chrome PDF Viewer", "PDF Viewer"]);
        assert_ne!(a, b, "plugin order is a signal");
        assert_eq!(
            a.as_list().unwrap(),
            vec!["PDF Viewer", "Chrome PDF Viewer"]
        );
    }

    #[test]
    fn empty_list_roundtrip() {
        let v = AttrValue::list(Vec::<&str>::new());
        assert_eq!(v.as_list().unwrap(), Vec::<&str>::new());
    }

    #[test]
    fn display_forms() {
        assert_eq!(AttrValue::Resolution(390, 844).to_string(), "390x844");
        assert_eq!(AttrValue::Bool(true).to_string(), "true");
        assert_eq!(AttrValue::Missing.to_string(), "<missing>");
        assert_eq!(AttrValue::Int(8).to_string(), "8");
    }

    #[test]
    fn views_reject_wrong_variants() {
        assert_eq!(AttrValue::Bool(true).as_resolution(), None);
        assert_eq!(AttrValue::Resolution(1, 2).as_int(), None);
        assert_eq!(AttrValue::Int(3).as_sym(), None);
    }

    #[test]
    fn hash_eq_consistent() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(AttrValue::float(4.0));
        assert!(set.contains(&AttrValue::float(4.0)));
        assert!(!set.contains(&AttrValue::float(4.001)));
    }

    #[test]
    fn serde_roundtrip() {
        let vals = [
            AttrValue::Missing,
            AttrValue::Bool(true),
            AttrValue::Int(-5),
            AttrValue::float(2.5),
            AttrValue::text("iPhone"),
            AttrValue::Resolution(1920, 1080),
        ];
        for v in vals {
            let json = serde_json::to_string(&v).unwrap();
            let back: AttrValue = serde_json::from_str(&json).unwrap();
            assert_eq!(back, v);
        }
    }
}
