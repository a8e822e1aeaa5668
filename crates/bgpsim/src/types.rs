//! Fundamental identifier types shared by every layer of the simulator.
//!
//! The paper models the Internet as a set of autonomous systems ([`Asn`]),
//! each containing one or more quasi-routers ([`RouterId`]), announcing
//! destination prefixes ([`Prefix`]). Router identifiers follow the paper's
//! §4.5 convention: the high-order 16 bits carry the AS number and the
//! low-order 16 bits a per-AS index, so the final BGP tie-break ("lowest
//! router-id") is deterministic and reconstructible from the model alone.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An Autonomous System number.
///
/// The simulator supports the classic 16-bit space used by the paper's 2005
/// dataset; the inner representation is `u32` so 32-bit ASNs from modern MRT
/// dumps can still round-trip through the [`crate::aspath::AsPath`] type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl Asn {
    /// The reserved ASN 0, used as a sentinel for "no AS".
    pub const RESERVED: Asn = Asn(0);

    /// Returns true if this ASN fits the classic 16-bit space.
    pub fn is_16bit(self) -> bool {
        self.0 <= u16::MAX as u32
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl std::str::FromStr for Asn {
    type Err = String;

    /// Parses `"7018"` or `"AS7018"` (case-insensitive prefix).
    fn from_str(s: &str) -> Result<Self, String> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .unwrap_or(s);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| format!("invalid AS number `{s}`"))
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl From<u16> for Asn {
    fn from(v: u16) -> Self {
        Asn(v as u32)
    }
}

/// Identifier of a quasi-router: `(ASN << 16) | index`.
///
/// This mirrors the paper's IP-address assignment (§4.5): "the high order 16
/// bits are set to the AS number and the low order bits are a unique ID for
/// each quasi-router within the AS". Ordering of `RouterId` therefore orders
/// first by AS and then by per-AS index, exactly reproducing the "lowest
/// neighbor IP address" tie-break semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RouterId(pub u32);

impl RouterId {
    /// Builds a router id from an AS number and a per-AS quasi-router index.
    ///
    /// # Panics
    /// Panics if the ASN does not fit in 16 bits (the id encoding reserves
    /// exactly 16 bits for it, as in the paper).
    pub fn new(asn: Asn, index: u16) -> Self {
        assert!(
            asn.is_16bit(),
            "RouterId encoding requires a 16-bit ASN, got {asn}"
        );
        RouterId((asn.0 << 16) | index as u32)
    }

    /// The AS this quasi-router belongs to.
    pub fn asn(self) -> Asn {
        Asn(self.0 >> 16)
    }

    /// The per-AS quasi-router index.
    pub fn index(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}", self.asn().0, self.index())
    }
}

/// A destination prefix.
///
/// The refinement methodology originates one prefix per AS (§4.1), so a
/// prefix is identified by an opaque index plus the AS that originates it;
/// a concrete IPv4 representation (`base/len`) is kept so feeds can be
/// exported to and imported from MRT dumps losslessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Prefix {
    /// Network address in host byte order.
    pub base: u32,
    /// Prefix length in bits (0..=32).
    pub len: u8,
}

impl Prefix {
    /// Builds a prefix, masking `base` down to `len` bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(base: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        Prefix {
            base: base & Self::mask(len),
            len,
        }
    }

    /// The prefix `base/len` as written: `None` unless [`Prefix::new`]
    /// would build it unchanged, that is unless `len <= 32` and `base` has
    /// no bits past the first `len`.
    pub fn exact(base: u32, len: u8) -> Option<Self> {
        (len <= 32 && base & !Self::mask(len) == 0).then_some(Prefix { base, len })
    }

    /// The canonical per-AS experiment prefix used by the paper's
    /// methodology ("we only originate one prefix per AS", §4.1): the 0th
    /// slot of [`Prefix::for_origin_nth`].
    pub fn for_origin(asn: Asn) -> Self {
        Self::for_origin_nth(asn, 0)
    }

    /// The `n`-th /24 assigned to an origin AS (n < 8). Real origins
    /// announce many prefixes; the synthetic Internet gives multihomed
    /// origins several so per-prefix policies can differentiate them.
    ///
    /// # Panics
    /// Panics if `n >= 8` or the ASN exceeds 16 bits (the packing allots
    /// 3 bits per AS within the 24-bit network space).
    pub fn for_origin_nth(asn: Asn, n: u8) -> Self {
        assert!(n < 8, "at most 8 prefixes per origin, got slot {n}");
        assert!(asn.is_16bit(), "origin packing requires 16-bit ASN");
        Prefix::new((asn.0 * 8 + n as u32) << 8, 24)
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// True if `self` contains `other` (i.e. `other` is a more-specific of
    /// `self` or equal).
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && (other.base & Self::mask(self.len)) == self.base
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.base;
        write!(
            f,
            "{}.{}.{}.{}/{}",
            (b >> 24) & 0xFF,
            (b >> 16) & 0xFF,
            (b >> 8) & 0xFF,
            b & 0xFF,
            self.len
        )
    }
}

/// Reads only what [`Prefix::exact`] accepts.
impl<'de> Deserialize<'de> for Prefix {
    fn deserialize(d: &mut serde::Deserializer<'de>) -> Result<Self, serde::Error> {
        // The derived reader, named so that its errors read `in Prefix`.
        #[derive(Deserialize)]
        struct Prefix {
            base: u32,
            len: u8,
        }
        let Prefix { base, len } = Prefix::deserialize(d)?;
        Self::exact(base, len)
            .ok_or_else(|| serde::Error::msg(format!("prefix {base}/{len} is not canonical")))
    }
}

impl std::str::FromStr for Prefix {
    type Err = String;

    /// Parses dotted-quad CIDR notation (`"10.0.4.0/24"`), masking host
    /// bits like [`Prefix::new`]. This is the wire form used by the
    /// `quasar-serve` protocol and the CLI.
    fn from_str(s: &str) -> Result<Self, String> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| format!("prefix `{s}` is missing its /length"))?;
        let len: u8 = len
            .parse()
            .map_err(|_| format!("invalid prefix length in `{s}`"))?;
        if len > 32 {
            return Err(format!("prefix length {len} out of range in `{s}`"));
        }
        let octets: Vec<&str> = addr.split('.').collect();
        if octets.len() != 4 {
            return Err(format!("prefix address `{addr}` is not a dotted quad"));
        }
        let mut base = 0u32;
        for o in octets {
            let v: u8 = o
                .parse()
                .map_err(|_| format!("invalid octet `{o}` in prefix `{s}`"))?;
            base = (base << 8) | v as u32;
        }
        Ok(Prefix::new(base, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_id_packs_asn_and_index() {
        let id = RouterId::new(Asn(3356), 7);
        assert_eq!(id.asn(), Asn(3356));
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn router_id_orders_by_asn_then_index() {
        let a = RouterId::new(Asn(100), 5);
        let b = RouterId::new(Asn(100), 6);
        let c = RouterId::new(Asn(101), 0);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    #[should_panic(expected = "16-bit ASN")]
    fn router_id_rejects_wide_asn() {
        let _ = RouterId::new(Asn(70_000), 0);
    }

    #[test]
    fn prefix_masks_host_bits() {
        let p = Prefix::new(0x0A0B0C0D, 16);
        assert_eq!(p.base, 0x0A0B0000);
        assert_eq!(p.to_string(), "10.11.0.0/16");
    }

    #[test]
    fn prefix_covers_more_specific() {
        let covering = Prefix::new(0x0A000000, 8);
        let specific = Prefix::new(0x0A010200, 24);
        assert!(covering.covers(&specific));
        assert!(!specific.covers(&covering));
        assert!(covering.covers(&covering));
    }

    #[test]
    fn per_origin_prefixes_are_distinct() {
        let p1 = Prefix::for_origin(Asn(1));
        let p2 = Prefix::for_origin(Asn(2));
        assert_ne!(p1, p2);
        assert_eq!(p1.len, 24);
    }

    #[test]
    fn origin_prefix_slots_never_collide() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for asn in [1u32, 2, 100, 65535] {
            for n in 0..8u8 {
                assert!(seen.insert(Prefix::for_origin_nth(Asn(asn), n)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn origin_prefix_slot_bounded() {
        let _ = Prefix::for_origin_nth(Asn(1), 8);
    }

    #[test]
    fn zero_length_prefix_covers_everything() {
        let default = Prefix::new(0, 0);
        assert!(default.covers(&Prefix::new(0xFFFFFFFF, 32)));
    }

    #[test]
    fn asn_display() {
        assert_eq!(Asn(7018).to_string(), "AS7018");
        assert_eq!(RouterId::new(Asn(7018), 2).to_string(), "r7018.2");
    }

    #[test]
    fn asn_parses_with_and_without_prefix() {
        assert_eq!("7018".parse::<Asn>().unwrap(), Asn(7018));
        assert_eq!("AS7018".parse::<Asn>().unwrap(), Asn(7018));
        assert_eq!("as7018".parse::<Asn>().unwrap(), Asn(7018));
        assert!("ASx".parse::<Asn>().is_err());
        assert!("".parse::<Asn>().is_err());
    }

    #[test]
    fn prefix_roundtrips_through_display_and_fromstr() {
        for p in [
            Prefix::for_origin(Asn(5)),
            Prefix::new(0x0A0B0C00, 24),
            Prefix::new(0, 0),
            Prefix::new(0xFFFFFFFF, 32),
        ] {
            let parsed: Prefix = p.to_string().parse().unwrap();
            assert_eq!(parsed, p);
        }
    }

    #[test]
    fn prefix_fromstr_masks_host_bits_and_rejects_garbage() {
        let p: Prefix = "10.11.12.13/16".parse().unwrap();
        assert_eq!(p, Prefix::new(0x0A0B0000, 16));
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0/24".parse::<Prefix>().is_err());
        assert!("10.0.0.256/24".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("a.b.c.d/8".parse::<Prefix>().is_err());
    }
}
