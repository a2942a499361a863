//! Deterministic run fingerprints: byte-stable attestation that a whole
//! closed-loop campaign is reproducible.
//!
//! "Tests pass" is a weaker claim than "the §6 reproduction is byte-stable
//! across machines, shard counts, and refactors". This module supplies the
//! stronger one: a [`RunFingerprint`] is a 128-bit content hash over a
//! run's *named components* — what was configured (scale, policy,
//! retention, re-mine cadence), what seeded it, and what observably
//! happened (the per-round behaviour fold) — under the `RUNFP_V1` domain
//! tag. The discipline mirrors [`crate::stablehash`]'s pack hashing:
//! the fingerprint changes **iff** observable behaviour changes, and is
//! identical across processes, platforms and ingest shard counts.
//!
//! Unlike a pack hash, a run is a *sequence*: round 3 after round 2 is a
//! different campaign than round 2 after round 3. So where
//! [`crate::stablehash::ContentHasher`] combines commutatively, the
//! [`ComponentHasher`] here chains — each canonical line re-seeds two
//! independent [`crate::stablehash::stable_hash64`] lanes, so line order
//! is part of the hashed content. Shard-count invariance is *not* the
//! hasher's job: it holds because everything folded in (flag counts, pack
//! hashes, eviction ledgers) is already provably shard-invariant, and
//! because the shard count is deliberately excluded from the config
//! components (it is an execution parameter, not behaviour).
//!
//! Divergence is auditable, not just detectable: a run exposes its
//! [`RunComponents`] breakdown, and [`RunComponents::diverging`] /
//! [`RunComponents::diff_report`] name exactly which component disagrees
//! when two runs do. [`RunComponents::to_ledger`] renders the committed
//! golden-file form (`fingerprint=` line plus one `name=hash` line per
//! component) that CI asserts against; [`RunComponents::parse_ledger`]
//! reads it back and re-verifies the fingerprint against the components.

use crate::stablehash::stable_hash64;
use std::fmt;
use std::str::FromStr;

/// Domain tag folded into every component lane seed: bump it whenever the
/// canonical line encoding changes meaning, so fingerprints from different
/// encodings can never collide by accident.
const DOMAIN_TAG: &str = "RUNFP_V1";

/// Lane seed for `lane` (1 = low, 2 = high), bound to the domain tag and
/// the component name so the same lines hashed under different component
/// names (or a future `RUNFP_V2`) produce unrelated hashes.
fn lane_seed(component: &str, lane: u64) -> u64 {
    stable_hash64(
        component.as_bytes(),
        stable_hash64(DOMAIN_TAG.as_bytes(), lane),
    )
}

/// The 128-bit content hash of one named run component (e.g. the
/// behaviour fold, or the retention config line).
///
/// Equality means "this facet of the two runs is identical"; displays as
/// 32 hex digits, [`ComponentHash::short`] gives the 12-digit prefix
/// tables print.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ComponentHash(u128);

impl ComponentHash {
    /// Wrap a raw 128-bit value (e.g. a hash produced elsewhere, or a
    /// synthetic value in property tests).
    pub fn from_u128(raw: u128) -> ComponentHash {
        ComponentHash(raw)
    }

    /// The 12-hex-digit prefix — what report columns print.
    pub fn short(self) -> String {
        format!("{:012x}", self.0 >> 80)
    }
}

impl fmt::Display for ComponentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for ComponentHash {
    type Err = String;

    fn from_str(s: &str) -> Result<ComponentHash, String> {
        parse_hex128(s).map(ComponentHash)
    }
}

/// The 128-bit fingerprint of a whole run: the ordered fold of its
/// component hashes (see [`RunComponents::fingerprint`]).
///
/// Two runs with equal fingerprints behaved identically in every attested
/// respect; when they differ, compare their [`RunComponents`] to name the
/// diverging facet. Displays as 32 hex digits and round-trips through
/// [`FromStr`] (how golden files are read back).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RunFingerprint(u128);

impl RunFingerprint {
    /// The 12-hex-digit prefix — what report columns print.
    pub fn short(self) -> String {
        format!("{:012x}", self.0 >> 80)
    }
}

impl fmt::Display for RunFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for RunFingerprint {
    type Err = String;

    fn from_str(s: &str) -> Result<RunFingerprint, String> {
        parse_hex128(s).map(RunFingerprint)
    }
}

fn parse_hex128(s: &str) -> Result<u128, String> {
    if s.len() != 32 {
        return Err(format!("expected 32 hex digits, got {} ({s:?})", s.len()));
    }
    u128::from_str_radix(s, 16).map_err(|e| format!("bad hex {s:?}: {e}"))
}

/// Order-*sensitive* accumulator of one component's canonical lines.
///
/// Two independent 64-bit lanes are seeded from the `RUNFP_V1` domain tag
/// plus the component name, then each line re-seeds both lanes (the line's
/// hash under the previous state), so the same lines in a different order
/// — a reordered trajectory — produce a different hash. Contrast
/// [`crate::stablehash::ContentHasher`], which is deliberately
/// commutative for *bags* of items.
#[derive(Clone, Copy, Debug)]
pub struct ComponentHasher {
    lo: u64,
    hi: u64,
    lines: u64,
}

impl ComponentHasher {
    /// A fresh accumulator for the named component.
    pub fn new(component: &str) -> ComponentHasher {
        ComponentHasher {
            lo: lane_seed(component, 1),
            hi: lane_seed(component, 2),
            lines: 0,
        }
    }

    /// Chain one canonical line into both lanes (order matters).
    pub fn line(&mut self, line: &str) {
        self.lo = stable_hash64(line.as_bytes(), self.lo);
        self.hi = stable_hash64(line.as_bytes(), self.hi);
        self.lines += 1;
    }

    /// Number of lines chained so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The component hash of everything chained.
    pub fn finish(&self) -> ComponentHash {
        let lo = crate::mix::splitmix64(self.lo.wrapping_add(self.lines));
        let hi = crate::mix::splitmix64(self.hi ^ self.lines.rotate_left(32));
        ComponentHash((u128::from(hi) << 64) | u128::from(lo))
    }
}

/// Hash a short component whose canonical form is a fixed handful of
/// lines (config components are typically one line each).
pub fn component_of(name: &str, lines: &[&str]) -> ComponentHash {
    let mut h = ComponentHasher::new(name);
    for line in lines {
        h.line(line);
    }
    h.finish()
}

/// A run's named component breakdown — the audit surface behind a
/// [`RunFingerprint`].
///
/// Producers push components in a fixed, documented order (the order is
/// part of the fingerprint); consumers compare breakdowns with
/// [`RunComponents::diverging`] to name exactly which facet two runs
/// disagree on, and render/parse the committed golden-file form with
/// [`RunComponents::to_ledger`] / [`RunComponents::parse_ledger`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunComponents {
    components: Vec<(String, ComponentHash)>,
}

impl RunComponents {
    /// An empty breakdown.
    pub fn new() -> RunComponents {
        RunComponents::default()
    }

    /// Append one named component. Names must be unique — pushing a
    /// duplicate is a producer bug and panics.
    pub fn push(&mut self, name: &str, hash: ComponentHash) {
        assert!(self.get(name).is_none(), "duplicate run component {name:?}");
        self.components.push((name.to_string(), hash));
    }

    /// The hash of one named component, if present.
    pub fn get(&self, name: &str) -> Option<ComponentHash> {
        self.components
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| *h)
    }

    /// Iterate `(name, hash)` in push order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ComponentHash)> {
        self.components.iter().map(|(n, h)| (n.as_str(), *h))
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// No components yet?
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The run fingerprint: the ordered fold of `name=hash` lines under
    /// the `RUNFP_V1` domain tag. Changes iff any component hash changes,
    /// a component is added/removed, or the component order changes.
    pub fn fingerprint(&self) -> RunFingerprint {
        let mut h = ComponentHasher::new("run");
        for (name, hash) in &self.components {
            h.line(&format!("{name}={hash}"));
        }
        RunFingerprint(h.finish().0)
    }

    /// The names of every component on which `self` and `other` disagree
    /// — differing hashes, or present on one side only. Empty iff the two
    /// breakdowns (and therefore the two fingerprints) are identical.
    pub fn diverging(&self, other: &RunComponents) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for (name, hash) in self.iter() {
            if other.get(name) != Some(hash) {
                names.push(name.to_string());
            }
        }
        for (name, _) in other.iter() {
            if self.get(name).is_none() {
                names.push(name.to_string());
            }
        }
        names
    }

    /// A printable component-by-component comparison — what a golden
    /// mismatch shows so the divergence is localised, not just detected.
    /// `left`/`right` label the two sides (e.g. `"this run"` /
    /// `"golden"`).
    pub fn diff_report(&self, other: &RunComponents, left: &str, right: &str) -> String {
        let diverging = self.diverging(other);
        if diverging.is_empty() {
            return format!("all {} components identical", self.len());
        }
        let mut out = String::new();
        let fmt_hash = |h: Option<ComponentHash>| match h {
            Some(h) => h.to_string(),
            None => "(absent)".to_string(),
        };
        for name in &diverging {
            out.push_str(&format!(
                "  {name}: {left} {} vs {right} {}\n",
                fmt_hash(self.get(name)),
                fmt_hash(other.get(name)),
            ));
        }
        out.push_str(&format!(
            "  ({}/{} components diverge)",
            diverging.len(),
            self.len().max(other.len())
        ));
        out
    }

    /// Render the committed golden-file form: a `fingerprint=` line, then
    /// one `name=hash` line per component in push order. Lines starting
    /// with `#` and blank lines are comments when parsed back.
    pub fn to_ledger(&self) -> String {
        let mut out = format!("fingerprint={}\n", self.fingerprint());
        for (name, hash) in self.iter() {
            out.push_str(&format!("{name}={hash}\n"));
        }
        out
    }

    /// Parse a ledger back ([`RunComponents::to_ledger`]'s inverse) and
    /// verify its declared fingerprint against the re-folded components —
    /// a hand-edited or truncated golden file fails here rather than
    /// silently attesting the wrong thing.
    pub fn parse_ledger(text: &str) -> Result<RunComponents, String> {
        let mut declared: Option<RunFingerprint> = None;
        let mut components = RunComponents::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected name=hash, got {line:?}", i + 1))?;
            if name == "fingerprint" {
                if declared.is_some() {
                    return Err(format!("line {}: duplicate fingerprint line", i + 1));
                }
                declared = Some(value.parse()?);
            } else {
                components.push(name, value.parse()?);
            }
        }
        let declared = declared.ok_or("missing fingerprint= line")?;
        let refolded = components.fingerprint();
        if refolded != declared {
            return Err(format!(
                "ledger is self-inconsistent: declared fingerprint {declared} \
                 but the component lines fold to {refolded}"
            ));
        }
        Ok(components)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn component(name: &str, lines: &[&str]) -> ComponentHash {
        component_of(name, lines)
    }

    #[test]
    fn chaining_is_order_sensitive() {
        let ab = component("c", &["alpha", "beta"]);
        let ba = component("c", &["beta", "alpha"]);
        assert_ne!(ab, ba, "a run is a sequence, not a bag");
        assert_eq!(ab, component("c", &["alpha", "beta"]), "and deterministic");
    }

    #[test]
    fn component_name_is_part_of_the_domain() {
        let a = component("behavior", &["line"]);
        let b = component("config.scale", &["line"]);
        assert_ne!(a, b, "same lines under different components differ");
    }

    #[test]
    fn line_boundaries_matter() {
        // "ab" + "c" must not equal "a" + "bc" — the line is the unit.
        assert_ne!(component("c", &["ab", "c"]), component("c", &["a", "bc"]));
        assert_ne!(component("c", &[]), component("c", &[""]));
        assert_ne!(component("c", &[""]), component("c", &["", ""]));
    }

    fn breakdown(pairs: &[(&str, &[&str])]) -> RunComponents {
        let mut c = RunComponents::new();
        for (name, lines) in pairs {
            c.push(name, component(name, lines));
        }
        c
    }

    #[test]
    fn fingerprint_changes_iff_components_change() {
        let base = breakdown(&[("config", &["scale=0.01"]), ("behavior", &["r0", "r1"])]);
        let same = breakdown(&[("config", &["scale=0.01"]), ("behavior", &["r0", "r1"])]);
        assert_eq!(base.fingerprint(), same.fingerprint());
        assert_eq!(base.diverging(&same), Vec::<String>::new());

        // One perturbed component flips the fingerprint and is named.
        let perturbed = breakdown(&[("config", &["scale=0.02"]), ("behavior", &["r0", "r1"])]);
        assert_ne!(base.fingerprint(), perturbed.fingerprint());
        assert_eq!(base.diverging(&perturbed), vec!["config".to_string()]);

        // A missing component diverges too (both directions).
        let fewer = breakdown(&[("config", &["scale=0.01"])]);
        assert_ne!(base.fingerprint(), fewer.fingerprint());
        assert_eq!(base.diverging(&fewer), vec!["behavior".to_string()]);
        assert_eq!(fewer.diverging(&base), vec!["behavior".to_string()]);
    }

    #[test]
    #[should_panic(expected = "duplicate run component")]
    fn duplicate_component_names_panic() {
        breakdown(&[("config", &["a"]), ("config", &["b"])]);
    }

    #[test]
    fn ledger_round_trips_and_self_verifies() {
        let base = breakdown(&[("config", &["scale=0.01"]), ("behavior", &["r0"])]);
        let ledger = base.to_ledger();
        assert!(ledger.starts_with("fingerprint="));
        let parsed = RunComponents::parse_ledger(&ledger).expect("round trip");
        assert_eq!(parsed, base);
        assert_eq!(parsed.fingerprint(), base.fingerprint());

        // Comments and blank lines are tolerated.
        let commented = format!("# golden for the smoke arena\n\n{ledger}");
        assert_eq!(RunComponents::parse_ledger(&commented).unwrap(), base);
    }

    #[test]
    fn tampered_ledgers_are_rejected() {
        let base = breakdown(&[("config", &["scale=0.01"]), ("behavior", &["r0"])]);
        let ledger = base.to_ledger();

        // A hand-edited component no longer folds to the declared
        // fingerprint.
        let other = component("behavior", &["r1"]);
        let tampered = ledger.replace(
            &base.get("behavior").unwrap().to_string(),
            &other.to_string(),
        );
        assert!(RunComponents::parse_ledger(&tampered)
            .unwrap_err()
            .contains("self-inconsistent"));

        assert!(RunComponents::parse_ledger("config=deadbeef\n").is_err());
        assert!(RunComponents::parse_ledger("not a ledger line\n").is_err());
        assert!(RunComponents::parse_ledger("")
            .unwrap_err()
            .contains("missing fingerprint"));
    }

    #[test]
    fn display_forms_round_trip() {
        let c = breakdown(&[("config", &["x"])]);
        let fp = c.fingerprint();
        let text = fp.to_string();
        assert_eq!(text.len(), 32);
        assert!(text.starts_with(&fp.short()));
        assert_eq!(text.parse::<RunFingerprint>().unwrap(), fp);
        assert!("zz".parse::<RunFingerprint>().is_err());

        let h = c.get("config").unwrap();
        assert_eq!(h.to_string().parse::<ComponentHash>().unwrap(), h);
        assert_eq!(h.short().len(), 12);
    }

    #[test]
    fn diff_report_names_the_divergence() {
        let a = breakdown(&[("config", &["x"]), ("behavior", &["r0"])]);
        let b = breakdown(&[("config", &["x"]), ("behavior", &["r1"])]);
        let report = a.diff_report(&b, "this run", "golden");
        assert!(report.contains("behavior"), "{report}");
        assert!(!report.contains("config:"), "{report}");
        assert!(a.diff_report(&a.clone(), "l", "r").contains("identical"));
    }
}
