//! AS-path representation and manipulation.
//!
//! The paper's refinement heuristic works almost entirely on AS-paths: it
//! compares observed paths against simulated ones suffix-by-suffix (from the
//! origin towards the observation point), strips prepending ("We removed
//! AS-path prepending to prevent distraction from the task of route
//! propagation", §3.1 fn. 1), and rejects paths with loops.

use crate::types::Asn;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A sequence of ASes a route traversed, ordered from the AS *closest to the
/// observer* down to the *origin* AS (standard BGP wire order: the origin is
/// the last element).
///
/// The hop sequence is interned behind an `Arc`: cloning a path (which the
/// simulation engine does for every exported update and every RIB entry) is
/// a reference-count bump, not a heap copy. Paths are immutable; operations
/// that change the sequence ([`AsPath::prepend`], [`AsPath::strip_prepending`],
/// [`AsPath::suffix`]) build a new path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsPath(Arc<[Asn]>);

/// All empty paths share one allocation (`Route::originate` makes one per
/// simulated origin).
fn empty_path() -> Arc<[Asn]> {
    static EMPTY: OnceLock<Arc<[Asn]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(Vec::new())).clone()
}

impl Default for AsPath {
    fn default() -> Self {
        AsPath(empty_path())
    }
}

impl Serialize for AsPath {
    fn serialize(&self, s: &mut serde::Serializer) {
        self.0.serialize(s);
    }
}

impl<'de> Deserialize<'de> for AsPath {
    fn deserialize(d: &mut serde::Deserializer<'de>) -> Result<Self, serde::Error> {
        Vec::deserialize(d).map(AsPath::new)
    }
}

impl AsPath {
    /// Empty path (a route as seen inside its origin AS).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// Builds a path from observer-first order.
    pub fn new(asns: Vec<Asn>) -> Self {
        if asns.is_empty() {
            return AsPath::default();
        }
        AsPath(asns.into())
    }

    /// Builds a path from a list of raw u32 ASNs (observer-first).
    pub fn from_u32s(asns: &[u32]) -> Self {
        AsPath::new(asns.iter().map(|&a| Asn(a)).collect())
    }

    /// Number of AS hops. Prepending removed, so this equals the number of
    /// distinct consecutive ASes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty (origin-local) path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The origin AS (last element), if any.
    pub fn origin(&self) -> Option<Asn> {
        self.0.last().copied()
    }

    /// The AS nearest the observer (first element), if any.
    pub fn head(&self) -> Option<Asn> {
        self.0.first().copied()
    }

    /// Iterates from observer towards origin.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Asn> + '_ {
        self.0.iter().copied()
    }

    /// The underlying slice, observer-first.
    pub fn as_slice(&self) -> &[Asn] {
        &self.0
    }

    /// Returns a new path with `asn` prepended (as done when a route is
    /// exported over an eBGP session).
    #[must_use]
    pub fn prepend(&self, asn: Asn) -> Self {
        // An exact-size iterator lets the shared slice be built in its one
        // final allocation, without an intermediate `Vec`.
        AsPath(std::iter::once(asn).chain(self.0.iter().copied()).collect())
    }

    /// True if the path already contains `asn` (BGP loop detection: such an
    /// announcement must be discarded on import).
    pub fn contains(&self, asn: Asn) -> bool {
        self.0.contains(&asn)
    }

    /// True if any AS appears more than once. Paths with loops are removed
    /// from the dataset (§3.1).
    pub fn has_loop(&self) -> bool {
        for (i, a) in self.0.iter().enumerate() {
            if self.0[i + 1..].contains(a) {
                return true;
            }
        }
        false
    }

    /// Collapses consecutive duplicates, i.e. removes AS-path prepending.
    /// `1 1 2 3 3 3` becomes `1 2 3`.
    #[must_use]
    pub fn strip_prepending(&self) -> Self {
        let mut v: Vec<Asn> = Vec::with_capacity(self.0.len());
        for &a in self.0.iter() {
            if v.last() != Some(&a) {
                v.push(a);
            }
        }
        AsPath::new(v)
    }

    /// The suffix of length `n` ending at the origin. The refinement
    /// heuristic walks observed paths origin-first, asking at each AS `a`
    /// whether the *suffix up to `a`* is present in some quasi-router's RIB
    /// (§4.6). `suffix(1)` is `[origin]`, `suffix(len())` is the whole path.
    ///
    /// # Panics
    /// Panics if `n > len()`.
    pub fn suffix(&self, n: usize) -> AsPath {
        assert!(n <= self.0.len(), "suffix length {n} exceeds path length");
        AsPath::new(self.0[self.0.len() - n..].to_vec())
    }

    /// True if `self` is a suffix of `other` (towards the origin).
    pub fn is_suffix_of(&self, other: &AsPath) -> bool {
        other.0.ends_with(&self.0)
    }

    /// All ordered adjacent pairs `(nearer, farther)` — the AS-level edges
    /// this path witnesses, used to build the AS graph (§3.1).
    pub fn edges(&self) -> impl Iterator<Item = (Asn, Asn)> + '_ {
        self.0.windows(2).map(|w| (w[0], w[1]))
    }
}

/// A minimal AS-path pattern language, modeled on router as-path
/// access-lists:
///
/// * `_701_`  — path contains AS 701 anywhere;
/// * `^701`   — path begins (observer side) with AS 701;
/// * `701$`   — path originates at AS 701;
/// * `^701$`  — the path is exactly `[701]`;
/// * `701 702`— AS 702 immediately follows AS 701 (towards the origin).
///
/// Sequences combine with anchors: `^1 2$` matches exactly `[1, 2]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsPathPattern {
    anchored_head: bool,
    anchored_tail: bool,
    sequence: Vec<Asn>,
}

impl AsPathPattern {
    /// Parses the pattern. Returns `None` for malformed input (empty
    /// sequence, non-numeric tokens).
    pub fn parse(pattern: &str) -> Option<Self> {
        let mut p = pattern.trim();
        let mut anchored_head = false;
        let mut anchored_tail = false;
        if let Some(rest) = p.strip_prefix('^') {
            anchored_head = true;
            p = rest;
        }
        if let Some(rest) = p.strip_suffix('$') {
            anchored_tail = true;
            p = rest;
        }
        // `_N_` is the "contains" form: equivalent to unanchored [N].
        let p = p.trim_matches('_');
        let sequence: Option<Vec<Asn>> = p
            .split_whitespace()
            .map(|tok| tok.parse::<u32>().ok().map(Asn))
            .collect();
        let sequence = sequence?;
        if sequence.is_empty() {
            return None;
        }
        Some(AsPathPattern {
            anchored_head,
            anchored_tail,
            sequence,
        })
    }

    /// True if the path matches the pattern.
    pub fn matches(&self, path: &AsPath) -> bool {
        let s = path.as_slice();
        let n = self.sequence.len();
        if n > s.len() {
            return false;
        }
        match (self.anchored_head, self.anchored_tail) {
            (true, true) => s == self.sequence,
            (true, false) => s.starts_with(&self.sequence),
            (false, true) => s.ends_with(&self.sequence),
            (false, false) => s.windows(n).any(|w| w == self.sequence),
        }
    }
}

impl fmt::Display for AsPathPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.anchored_head {
            write!(f, "^")?;
        }
        let mut first = true;
        for a in &self.sequence {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}", a.0)?;
            first = false;
        }
        if self.anchored_tail {
            write!(f, "$")?;
        }
        Ok(())
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in self.0.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}", a.0)?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<T: IntoIterator<Item = Asn>>(iter: T) -> Self {
        AsPath::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[u32]) -> AsPath {
        AsPath::from_u32s(v)
    }

    #[test]
    fn prepend_puts_asn_at_head() {
        let path = p(&[2, 3]).prepend(Asn(1));
        assert_eq!(path, p(&[1, 2, 3]));
        assert_eq!(path.head(), Some(Asn(1)));
        assert_eq!(path.origin(), Some(Asn(3)));
    }

    #[test]
    fn loop_detection() {
        assert!(p(&[1, 2, 1]).has_loop());
        assert!(!p(&[1, 2, 3]).has_loop());
        assert!(!AsPath::empty().has_loop());
    }

    #[test]
    fn strip_prepending_collapses_runs() {
        assert_eq!(p(&[1, 1, 2, 3, 3, 3]).strip_prepending(), p(&[1, 2, 3]));
        assert_eq!(p(&[5]).strip_prepending(), p(&[5]));
        assert_eq!(AsPath::empty().strip_prepending(), AsPath::empty());
    }

    #[test]
    fn suffix_walks_from_origin() {
        let path = p(&[1, 2, 3, 4]);
        assert_eq!(path.suffix(1), p(&[4]));
        assert_eq!(path.suffix(3), p(&[2, 3, 4]));
        assert_eq!(path.suffix(4), path);
        assert!(path.suffix(2).is_suffix_of(&path));
        assert!(!p(&[1, 2]).is_suffix_of(&path));
    }

    #[test]
    #[should_panic(expected = "suffix length")]
    fn suffix_too_long_panics() {
        p(&[1, 2]).suffix(3);
    }

    #[test]
    fn edges_enumerates_adjacent_pairs() {
        let e: Vec<_> = p(&[1, 2, 3]).edges().collect();
        assert_eq!(e, vec![(Asn(1), Asn(2)), (Asn(2), Asn(3))]);
        assert!(p(&[9]).edges().next().is_none());
    }

    #[test]
    fn pattern_contains() {
        let pat = AsPathPattern::parse("_701_").unwrap();
        assert!(pat.matches(&p(&[1, 701, 2])));
        assert!(pat.matches(&p(&[701])));
        assert!(!pat.matches(&p(&[1, 7011, 2])));
    }

    #[test]
    fn pattern_anchors() {
        assert!(AsPathPattern::parse("^701").unwrap().matches(&p(&[701, 2])));
        assert!(!AsPathPattern::parse("^701").unwrap().matches(&p(&[2, 701])));
        assert!(AsPathPattern::parse("701$").unwrap().matches(&p(&[2, 701])));
        assert!(!AsPathPattern::parse("701$").unwrap().matches(&p(&[701, 2])));
        assert!(AsPathPattern::parse("^701$").unwrap().matches(&p(&[701])));
        assert!(!AsPathPattern::parse("^701$")
            .unwrap()
            .matches(&p(&[701, 2])));
    }

    #[test]
    fn pattern_sequences() {
        let pat = AsPathPattern::parse("1 2").unwrap();
        assert!(pat.matches(&p(&[9, 1, 2, 9])));
        assert!(!pat.matches(&p(&[1, 9, 2])));
        let exact = AsPathPattern::parse("^1 2$").unwrap();
        assert!(exact.matches(&p(&[1, 2])));
        assert!(!exact.matches(&p(&[1, 2, 3])));
    }

    #[test]
    fn pattern_rejects_garbage() {
        assert!(AsPathPattern::parse("").is_none());
        assert!(AsPathPattern::parse("abc").is_none());
        assert!(AsPathPattern::parse("1 x 2").is_none());
        assert!(AsPathPattern::parse("^$").is_none());
    }

    #[test]
    fn pattern_display_roundtrip() {
        for s in ["^701", "701$", "^1 2$", "701"] {
            let pat = AsPathPattern::parse(s).unwrap();
            assert_eq!(AsPathPattern::parse(&pat.to_string()), Some(pat));
        }
    }

    #[test]
    fn display_is_space_separated() {
        assert_eq!(p(&[701, 7018, 174]).to_string(), "701 7018 174");
    }
}
