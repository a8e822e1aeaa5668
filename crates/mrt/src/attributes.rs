//! BGP path-attribute codec (RFC 4271 §4.3, RFC 6793 for 4-byte ASes).
//!
//! Attributes appear inside TABLE_DUMP / TABLE_DUMP_V2 RIB entries and in
//! BGP4MP UPDATE messages. The AS number width of `AS_PATH` depends on the
//! enclosing context (TABLE_DUMP_V2 always uses 4 bytes, RFC 6396 §4.3.4;
//! legacy formats use 2 bytes unless the peer negotiated AS4), so the codec
//! takes an explicit [`AsWidth`].

use crate::error::{MrtError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Attribute type codes handled natively.
pub mod type_code {
    /// ORIGIN.
    pub const ORIGIN: u8 = 1;
    /// AS_PATH.
    pub const AS_PATH: u8 = 2;
    /// NEXT_HOP.
    pub const NEXT_HOP: u8 = 3;
    /// MULTI_EXIT_DISC.
    pub const MED: u8 = 4;
    /// LOCAL_PREF.
    pub const LOCAL_PREF: u8 = 5;
    /// ATOMIC_AGGREGATE.
    pub const ATOMIC_AGGREGATE: u8 = 6;
    /// AGGREGATOR.
    pub const AGGREGATOR: u8 = 7;
    /// COMMUNITIES (RFC 1997).
    pub const COMMUNITIES: u8 = 8;
    /// AS4_PATH (RFC 6793).
    pub const AS4_PATH: u8 = 17;
}

/// Width of AS numbers inside AS_PATH segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsWidth {
    /// Classic 2-byte encoding.
    Two,
    /// RFC 6793 4-byte encoding (mandatory in TABLE_DUMP_V2).
    Four,
}

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsPathSegment {
    /// 1 = AS_SET, 2 = AS_SEQUENCE (3/4 = confed variants pass through).
    pub seg_type: u8,
    /// The AS numbers of the segment.
    pub asns: Vec<u32>,
}

impl AsPathSegment {
    /// An AS_SEQUENCE segment.
    pub fn sequence(asns: Vec<u32>) -> Self {
        AsPathSegment { seg_type: 2, asns }
    }

    /// An AS_SET segment.
    pub fn set(asns: Vec<u32>) -> Self {
        AsPathSegment { seg_type: 1, asns }
    }
}

/// A decoded BGP path attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathAttribute {
    /// ORIGIN (0 = IGP, 1 = EGP, 2 = INCOMPLETE).
    Origin(u8),
    /// AS_PATH segments.
    AsPath(Vec<AsPathSegment>),
    /// NEXT_HOP IPv4 address (host order).
    NextHop(u32),
    /// MULTI_EXIT_DISC.
    Med(u32),
    /// LOCAL_PREF.
    LocalPref(u32),
    /// ATOMIC_AGGREGATE (no payload).
    AtomicAggregate,
    /// AGGREGATOR.
    Aggregator {
        /// Aggregating AS.
        asn: u32,
        /// Aggregating router id (host order).
        addr: u32,
    },
    /// COMMUNITIES values.
    Communities(Vec<u32>),
    /// AS4_PATH segments (always 4-byte ASNs).
    As4Path(Vec<AsPathSegment>),
    /// Anything else, preserved verbatim for round-tripping.
    Unknown {
        /// Original attribute flags.
        flags: u8,
        /// Attribute type code.
        code: u8,
        /// Raw payload.
        data: Vec<u8>,
    },
}

impl PathAttribute {
    /// The paper's §3.1 cleaning of an attribute list's AS_PATH: its
    /// segments flattened with prepending collapsed (fn. 1), or `None` when
    /// the list has no AS_PATH or any segment is not an AS_SEQUENCE (an
    /// AS_SET or confederation segment gives no usable AS chain, so the
    /// route is dropped). Every MRT reader in the workspace cleans through
    /// this one function.
    pub fn cleaned_as_path(attrs: &[PathAttribute]) -> Option<Vec<u32>> {
        let segments = attrs.iter().find_map(|a| match a {
            PathAttribute::AsPath(s) => Some(s),
            _ => None,
        })?;
        if segments.iter().any(|s| s.seg_type != 2) {
            return None;
        }
        let mut path: Vec<u32> = segments
            .iter()
            .flat_map(|s| s.asns.iter().copied())
            .collect();
        path.dedup();
        Some(path)
    }

    fn flags_for(&self) -> u8 {
        // WELL-KNOWN TRANSITIVE = 0x40; OPTIONAL TRANSITIVE = 0xC0;
        // OPTIONAL NON-TRANSITIVE = 0x80.
        match self {
            PathAttribute::Origin(_)
            | PathAttribute::AsPath(_)
            | PathAttribute::NextHop(_)
            | PathAttribute::LocalPref(_)
            | PathAttribute::AtomicAggregate => 0x40,
            PathAttribute::Med(_) => 0x80,
            PathAttribute::Aggregator { .. }
            | PathAttribute::Communities(_)
            | PathAttribute::As4Path(_) => 0xC0,
            PathAttribute::Unknown { flags, .. } => *flags,
        }
    }

    fn code(&self) -> u8 {
        match self {
            PathAttribute::Origin(_) => type_code::ORIGIN,
            PathAttribute::AsPath(_) => type_code::AS_PATH,
            PathAttribute::NextHop(_) => type_code::NEXT_HOP,
            PathAttribute::Med(_) => type_code::MED,
            PathAttribute::LocalPref(_) => type_code::LOCAL_PREF,
            PathAttribute::AtomicAggregate => type_code::ATOMIC_AGGREGATE,
            PathAttribute::Aggregator { .. } => type_code::AGGREGATOR,
            PathAttribute::Communities(_) => type_code::COMMUNITIES,
            PathAttribute::As4Path(_) => type_code::AS4_PATH,
            PathAttribute::Unknown { code, .. } => *code,
        }
    }
}

fn encode_segments(segments: &[AsPathSegment], width: AsWidth, out: &mut BytesMut) {
    for seg in segments {
        out.put_u8(seg.seg_type);
        out.put_u8(seg.asns.len() as u8);
        for &a in &seg.asns {
            match width {
                AsWidth::Two => out.put_u16(a as u16),
                AsWidth::Four => out.put_u32(a),
            }
        }
    }
}

fn decode_segments(mut data: Bytes, width: AsWidth) -> Result<Vec<AsPathSegment>> {
    let mut segments = Vec::new();
    while data.has_remaining() {
        if data.remaining() < 2 {
            return Err(MrtError::Truncated {
                context: "AS_PATH segment header",
            });
        }
        let seg_type = data.get_u8();
        let count = data.get_u8() as usize;
        let need = count
            * match width {
                AsWidth::Two => 2,
                AsWidth::Four => 4,
            };
        if data.remaining() < need {
            return Err(MrtError::Truncated {
                context: "AS_PATH segment body",
            });
        }
        let mut asns = Vec::with_capacity(count);
        for _ in 0..count {
            asns.push(match width {
                AsWidth::Two => data.get_u16() as u32,
                AsWidth::Four => data.get_u32(),
            });
        }
        segments.push(AsPathSegment { seg_type, asns });
    }
    Ok(segments)
}

/// Encodes one attribute (header + payload) to `out`.
pub fn encode_attribute(attr: &PathAttribute, width: AsWidth, out: &mut BytesMut) {
    let mut payload = BytesMut::new();
    match attr {
        PathAttribute::Origin(o) => payload.put_u8(*o),
        PathAttribute::AsPath(segs) => encode_segments(segs, width, &mut payload),
        PathAttribute::NextHop(ip) => payload.put_u32(*ip),
        PathAttribute::Med(v) | PathAttribute::LocalPref(v) => payload.put_u32(*v),
        PathAttribute::AtomicAggregate => {}
        PathAttribute::Aggregator { asn, addr } => {
            match width {
                AsWidth::Two => payload.put_u16(*asn as u16),
                AsWidth::Four => payload.put_u32(*asn),
            }
            payload.put_u32(*addr);
        }
        PathAttribute::Communities(cs) => {
            for c in cs {
                payload.put_u32(*c);
            }
        }
        PathAttribute::As4Path(segs) => encode_segments(segs, AsWidth::Four, &mut payload),
        PathAttribute::Unknown { data, .. } => payload.extend_from_slice(data),
    }
    let mut flags = attr.flags_for();
    let extended = payload.len() > 255;
    if extended {
        flags |= 0x10;
    } else {
        flags &= !0x10;
    }
    out.put_u8(flags);
    out.put_u8(attr.code());
    if extended {
        out.put_u16(payload.len() as u16);
    } else {
        out.put_u8(payload.len() as u8);
    }
    out.extend_from_slice(&payload);
}

/// Encodes a full attribute list.
pub fn encode_attributes(attrs: &[PathAttribute], width: AsWidth) -> Bytes {
    let mut out = BytesMut::new();
    for a in attrs {
        encode_attribute(a, width, &mut out);
    }
    out.freeze()
}

/// Decodes a full attribute list from `data`.
pub fn decode_attributes(mut data: Bytes, width: AsWidth) -> Result<Vec<PathAttribute>> {
    let mut attrs = Vec::new();
    while data.has_remaining() {
        if data.remaining() < 2 {
            return Err(MrtError::Truncated {
                context: "attribute header",
            });
        }
        let flags = data.get_u8();
        let code = data.get_u8();
        let extended = flags & 0x10 != 0;
        let len = if extended {
            if data.remaining() < 2 {
                return Err(MrtError::Truncated {
                    context: "extended attribute length",
                });
            }
            data.get_u16() as usize
        } else {
            if data.remaining() < 1 {
                return Err(MrtError::Truncated {
                    context: "attribute length",
                });
            }
            data.get_u8() as usize
        };
        if data.remaining() < len {
            return Err(MrtError::Truncated {
                context: "attribute payload",
            });
        }
        let mut payload = data.split_to(len);
        let attr = match code {
            type_code::ORIGIN if len == 1 => PathAttribute::Origin(payload.get_u8()),
            type_code::AS_PATH => PathAttribute::AsPath(decode_segments(payload, width)?),
            type_code::NEXT_HOP if len == 4 => PathAttribute::NextHop(payload.get_u32()),
            type_code::MED if len == 4 => PathAttribute::Med(payload.get_u32()),
            type_code::LOCAL_PREF if len == 4 => PathAttribute::LocalPref(payload.get_u32()),
            type_code::ATOMIC_AGGREGATE if len == 0 => PathAttribute::AtomicAggregate,
            type_code::AGGREGATOR if len == 6 || len == 8 => {
                let asn = if len == 6 {
                    payload.get_u16() as u32
                } else {
                    payload.get_u32()
                };
                PathAttribute::Aggregator {
                    asn,
                    addr: payload.get_u32(),
                }
            }
            type_code::COMMUNITIES if len % 4 == 0 => {
                let mut cs = Vec::with_capacity(len / 4);
                while payload.has_remaining() {
                    cs.push(payload.get_u32());
                }
                PathAttribute::Communities(cs)
            }
            type_code::AS4_PATH => PathAttribute::As4Path(decode_segments(payload, AsWidth::Four)?),
            _ => PathAttribute::Unknown {
                flags,
                code,
                data: payload.to_vec(),
            },
        };
        attrs.push(attr);
    }
    Ok(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(attrs: Vec<PathAttribute>, width: AsWidth) {
        let enc = encode_attributes(&attrs, width);
        let dec = decode_attributes(enc, width).unwrap();
        assert_eq!(dec, attrs);
    }

    #[test]
    fn basic_attributes_roundtrip_4byte() {
        roundtrip(
            vec![
                PathAttribute::Origin(0),
                PathAttribute::AsPath(vec![AsPathSegment::sequence(vec![7018, 3356, 199999])]),
                PathAttribute::NextHop(0xC0000201),
                PathAttribute::Med(50),
                PathAttribute::LocalPref(120),
                PathAttribute::AtomicAggregate,
                PathAttribute::Aggregator {
                    asn: 65001,
                    addr: 0x0A000001,
                },
                PathAttribute::Communities(vec![(7018 << 16) | 100, 0xFFFF_FF01]),
            ],
            AsWidth::Four,
        );
    }

    #[test]
    fn two_byte_as_path_roundtrip() {
        roundtrip(
            vec![PathAttribute::AsPath(vec![
                AsPathSegment::sequence(vec![701, 1239]),
                AsPathSegment::set(vec![3, 5]),
            ])],
            AsWidth::Two,
        );
    }

    #[test]
    fn as4_path_always_four_bytes() {
        roundtrip(
            vec![PathAttribute::As4Path(vec![AsPathSegment::sequence(vec![
                4_200_000_001,
            ])])],
            AsWidth::Two,
        );
    }

    #[test]
    fn unknown_attribute_passthrough() {
        roundtrip(
            vec![PathAttribute::Unknown {
                flags: 0xC0,
                code: 99,
                data: vec![1, 2, 3],
            }],
            AsWidth::Four,
        );
    }

    #[test]
    fn extended_length_used_for_long_payloads() {
        let long = PathAttribute::Communities((0..200).map(|i| i as u32).collect());
        let enc = encode_attributes(std::slice::from_ref(&long), AsWidth::Four);
        // 200*4 = 800 > 255 -> extended-length bit set.
        assert_eq!(enc[0] & 0x10, 0x10);
        let dec = decode_attributes(enc, AsWidth::Four).unwrap();
        assert_eq!(dec, vec![long]);
    }

    #[test]
    fn truncated_input_errors() {
        let enc = encode_attributes(&[PathAttribute::Med(5)], AsWidth::Four);
        let cut = enc.slice(0..enc.len() - 1);
        assert!(decode_attributes(cut, AsWidth::Four).is_err());
    }

    include!("../tests/fixtures/as_path_cases.rs");

    #[test]
    fn cleaned_as_path_follows_the_cleaning_table() {
        for (case, attrs, want) in as_path_cases() {
            assert_eq!(PathAttribute::cleaned_as_path(&attrs), want, "{case}");
        }
    }
}
