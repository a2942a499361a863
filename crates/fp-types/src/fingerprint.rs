//! The [`Fingerprint`]: one recorded attribute vector.

use crate::attr::AttrId;
use crate::value::AttrValue;
use serde::de::{MapAccess, Visitor};
use serde::ser::SerializeMap;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A full browser fingerprint: a flat array of [`AttrValue`]s indexed by
/// [`AttrId`]. Equality/hash cover the whole vector, which is exactly the
/// paper's "unique fingerprints" notion (Figure 9 counts distinct
/// FingerprintJS fingerprints per day).
#[derive(Clone, PartialEq, Eq)]
pub struct Fingerprint {
    values: [AttrValue; AttrId::COUNT],
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            values: [AttrValue::Missing; AttrId::COUNT],
        }
    }
}

impl Fingerprint {
    /// An empty fingerprint (all attributes [`AttrValue::Missing`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Read an attribute.
    #[inline]
    pub fn get(&self, id: AttrId) -> &AttrValue {
        &self.values[id.index()]
    }

    /// Set an attribute.
    #[inline]
    pub fn set(&mut self, id: AttrId, value: impl Into<AttrValue>) {
        self.values[id.index()] = value.into();
    }

    /// Builder-style [`Fingerprint::set`].
    #[inline]
    pub fn with(mut self, id: AttrId, value: impl Into<AttrValue>) -> Self {
        self.set(id, value);
        self
    }

    /// Remove an attribute (back to [`AttrValue::Missing`]).
    pub fn clear(&mut self, id: AttrId) {
        self.values[id.index()] = AttrValue::Missing;
    }

    /// Iterate `(attribute, value)` pairs, including missing ones.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttrValue)> {
        AttrId::iter().map(move |id| (id, self.get(id)))
    }

    /// Iterate only the attributes that are present.
    pub fn present(&self) -> impl Iterator<Item = (AttrId, &AttrValue)> {
        self.iter().filter(|(_, v)| !v.is_missing())
    }

    /// Number of present attributes.
    pub fn len(&self) -> usize {
        self.present().count()
    }

    /// `true` when no attribute is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A stable 64-bit digest of the whole fingerprint — the "FingerprintJS
    /// visitor id" equivalent used for unique-fingerprint counting.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::default();
        self.hash(&mut h);
        h.finish()
    }
}

impl Hash for Fingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.values {
            v.hash(state);
        }
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (id, v) in self.present() {
            map.entry(&id.name(), &v.to_string());
        }
        map.finish()
    }
}

/// The hasher behind [`Fingerprint::digest`]: FNV-1a's offset basis and
/// xor-then-multiply loop, but with the multiplier `0x1000_0000_01b3`
/// where FNV-1a's 64-bit prime is `0x100_0000_01b3`. So it is not FNV-1a
/// ([`crate::stablehash`] is). It is deterministic across runs and
/// platforms, unlike `DefaultHasher`'s random keys; changing its
/// multiplier would move every digest and the goldens built on them.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

impl Serialize for Fingerprint {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.len()))?;
        for (id, v) in self.present() {
            map.serialize_entry(id.name(), v)?;
        }
        map.end()
    }
}

impl<'de> Deserialize<'de> for Fingerprint {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct FpVisitor;
        impl<'de> Visitor<'de> for FpVisitor {
            type Value = Fingerprint;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map of attribute name to value")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut access: A) -> Result<Fingerprint, A::Error> {
                let mut fp = Fingerprint::new();
                while let Some((name, value)) = access.next_entry::<String, AttrValue>()? {
                    let id = AttrId::from_name(&name).ok_or_else(|| {
                        serde::de::Error::custom(format!("unknown attribute {name:?}"))
                    })?;
                    fp.set(id, value);
                }
                Ok(fp)
            }
        }
        deserializer.deserialize_map(FpVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        Fingerprint::new()
            .with(AttrId::UaDevice, "iPhone")
            .with(AttrId::HardwareConcurrency, 6i64)
            .with(AttrId::ScreenResolution, (390u16, 844u16))
            .with(AttrId::Webdriver, false)
            .with(AttrId::MonospaceWidth, AttrValue::float(132.625))
    }

    #[test]
    fn get_set_roundtrip() {
        let fp = sample();
        assert_eq!(fp.get(AttrId::UaDevice).as_str(), Some("iPhone"));
        assert_eq!(fp.get(AttrId::HardwareConcurrency).as_int(), Some(6));
        assert_eq!(
            fp.get(AttrId::ScreenResolution).as_resolution(),
            Some((390, 844))
        );
        assert!(fp.get(AttrId::Plugins).is_missing());
        assert_eq!(fp.len(), 5);
    }

    #[test]
    fn clear_removes() {
        let mut fp = sample();
        fp.clear(AttrId::UaDevice);
        assert!(fp.get(AttrId::UaDevice).is_missing());
        assert_eq!(fp.len(), 4);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.digest(), b.digest());
        let c = sample().with(AttrId::HardwareConcurrency, 8i64);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn empty_fingerprint() {
        let fp = Fingerprint::new();
        assert!(fp.is_empty());
        assert_eq!(fp.present().count(), 0);
    }

    #[test]
    fn serde_roundtrip() {
        let fp = sample();
        let json = serde_json::to_string(&fp).unwrap();
        let back: Fingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn serde_rejects_unknown_attribute() {
        let err = serde_json::from_str::<Fingerprint>("{\"bogus_attr\": 1}");
        assert!(err.is_err());
    }
}
