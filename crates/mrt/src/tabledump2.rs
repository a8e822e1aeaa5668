//! TABLE_DUMP_V2 (RFC 6396 §4.3) — the format RouteViews and RIPE RIS use
//! for RIB snapshots: one PEER_INDEX_TABLE record followed by one
//! RIB_IPV4_UNICAST record per prefix, each holding the route of every peer
//! that announced it.

use crate::attributes::{decode_attributes, encode_attributes, AsWidth, PathAttribute};
use crate::error::{MrtError, Result};
use crate::nlri::{decode_prefix, encode_prefix, NlriPrefix};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;

/// Subtype constants within MRT type 13 (TABLE_DUMP_V2).
pub mod subtype {
    /// PEER_INDEX_TABLE.
    pub const PEER_INDEX_TABLE: u16 = 1;
    /// RIB_IPV4_UNICAST.
    pub const RIB_IPV4_UNICAST: u16 = 2;
}

/// Peer address (the collector may peer over v4 or v6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerAddress {
    /// IPv4, host order.
    V4(u32),
    /// IPv6, 16 raw octets.
    V6([u8; 16]),
}

/// One peer of the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerEntry {
    /// Peer BGP identifier.
    pub bgp_id: u32,
    /// Peer address.
    pub address: PeerAddress,
    /// Peer AS number.
    pub asn: u32,
    /// True if the ASN is encoded with 4 bytes.
    pub as4: bool,
}

/// The PEER_INDEX_TABLE record body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeerIndexTable {
    /// Collector BGP identifier.
    pub collector_id: u32,
    /// Optional view name.
    pub view_name: String,
    /// Peers, in index order; RIB entries reference them by position.
    pub peers: Vec<PeerEntry>,
}

impl PeerIndexTable {
    /// The peer directory BGP4MP messages are resolved against: each
    /// peer's key — its v4 address, or its BGP id for a v6 peer — mapped
    /// to its index. A key shared by two peers maps to the later one.
    pub fn index_by_key(&self) -> BTreeMap<u32, u32> {
        self.peers
            .iter()
            .enumerate()
            .map(|(i, p)| match p.address {
                PeerAddress::V4(ip) => (ip, i as u32),
                PeerAddress::V6(_) => (p.bgp_id, i as u32),
            })
            .collect()
    }

    /// Serializes the body.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u32(self.collector_id);
        out.put_u16(self.view_name.len() as u16);
        out.extend_from_slice(self.view_name.as_bytes());
        out.put_u16(self.peers.len() as u16);
        for p in &self.peers {
            let mut t = 0u8;
            if matches!(p.address, PeerAddress::V6(_)) {
                t |= 0x01;
            }
            if p.as4 {
                t |= 0x02;
            }
            out.put_u8(t);
            out.put_u32(p.bgp_id);
            match p.address {
                PeerAddress::V4(ip) => out.put_u32(ip),
                PeerAddress::V6(ip) => out.extend_from_slice(&ip),
            }
            if p.as4 {
                out.put_u32(p.asn);
            } else {
                out.put_u16(p.asn as u16);
            }
        }
        out.freeze()
    }

    /// Parses the body.
    pub fn decode(mut data: Bytes) -> Result<Self> {
        if data.remaining() < 8 {
            return Err(MrtError::Truncated {
                context: "peer index table header",
            });
        }
        let collector_id = data.get_u32();
        let name_len = data.get_u16() as usize;
        if data.remaining() < name_len + 2 {
            return Err(MrtError::Truncated {
                context: "peer index view name",
            });
        }
        let view_name = String::from_utf8_lossy(&data.split_to(name_len)).into_owned();
        let count = data.get_u16() as usize;
        let mut peers = Vec::with_capacity(count);
        for _ in 0..count {
            if data.remaining() < 5 {
                return Err(MrtError::Truncated {
                    context: "peer entry header",
                });
            }
            let t = data.get_u8();
            let bgp_id = data.get_u32();
            let v6 = t & 0x01 != 0;
            let as4 = t & 0x02 != 0;
            let addr_len = if v6 { 16 } else { 4 };
            let asn_len = if as4 { 4 } else { 2 };
            if data.remaining() < addr_len + asn_len {
                return Err(MrtError::Truncated {
                    context: "peer entry body",
                });
            }
            let address = if v6 {
                let mut ip = [0u8; 16];
                data.copy_to_slice(&mut ip);
                PeerAddress::V6(ip)
            } else {
                PeerAddress::V4(data.get_u32())
            };
            let asn = if as4 {
                data.get_u32()
            } else {
                data.get_u16() as u32
            };
            peers.push(PeerEntry {
                bgp_id,
                address,
                asn,
                as4,
            });
        }
        Ok(PeerIndexTable {
            collector_id,
            view_name,
            peers,
        })
    }
}

/// One peer's route inside a RIB record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// Index into the PEER_INDEX_TABLE.
    pub peer_index: u16,
    /// When the route was last changed (UNIX seconds) — the paper uses this
    /// to select routes "stable ... for at least one hour" (§3.1).
    pub originated_time: u32,
    /// BGP path attributes (AS_PATH uses 4-byte ASNs per RFC 6396).
    pub attributes: Vec<PathAttribute>,
}

/// A RIB_IPV4_UNICAST record body: all routes for one prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibIpv4Unicast {
    /// Monotone record sequence number.
    pub sequence: u32,
    /// The destination prefix.
    pub prefix: NlriPrefix,
    /// Per-peer routes.
    pub entries: Vec<RibEntry>,
}

impl RibIpv4Unicast {
    /// Serializes the body.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        out.put_u32(self.sequence);
        encode_prefix(&self.prefix, &mut out);
        out.put_u16(self.entries.len() as u16);
        for e in &self.entries {
            out.put_u16(e.peer_index);
            out.put_u32(e.originated_time);
            let attrs = encode_attributes(&e.attributes, AsWidth::Four);
            out.put_u16(attrs.len() as u16);
            out.extend_from_slice(&attrs);
        }
        out.freeze()
    }

    /// Parses the body.
    pub fn decode(mut data: Bytes) -> Result<Self> {
        if data.remaining() < 4 {
            return Err(MrtError::Truncated {
                context: "RIB sequence",
            });
        }
        let sequence = data.get_u32();
        let prefix = decode_prefix(&mut data)?;
        if data.remaining() < 2 {
            return Err(MrtError::Truncated {
                context: "RIB entry count",
            });
        }
        let count = data.get_u16() as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            if data.remaining() < 8 {
                return Err(MrtError::Truncated {
                    context: "RIB entry header",
                });
            }
            let peer_index = data.get_u16();
            let originated_time = data.get_u32();
            let alen = data.get_u16() as usize;
            if data.remaining() < alen {
                return Err(MrtError::Truncated {
                    context: "RIB entry attributes",
                });
            }
            let attributes = decode_attributes(data.split_to(alen), AsWidth::Four)?;
            entries.push(RibEntry {
                peer_index,
                originated_time,
                attributes,
            });
        }
        Ok(RibIpv4Unicast {
            sequence,
            prefix,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AsPathSegment;

    fn sample_peers() -> PeerIndexTable {
        PeerIndexTable {
            collector_id: 0x0A0A0A0A,
            view_name: "rv2".into(),
            peers: vec![
                PeerEntry {
                    bgp_id: 1,
                    address: PeerAddress::V4(0xC0000201),
                    asn: 7018,
                    as4: false,
                },
                PeerEntry {
                    bgp_id: 2,
                    address: PeerAddress::V6([0xFE; 16]),
                    asn: 4_200_000_000,
                    as4: true,
                },
            ],
        }
    }

    #[test]
    fn peer_index_roundtrip() {
        let t = sample_peers();
        let dec = PeerIndexTable::decode(t.encode()).unwrap();
        assert_eq!(dec, t);
    }

    #[test]
    fn index_by_key_uses_the_v4_address_or_the_v6_bgp_id() {
        let mut t = sample_peers();
        let dup = t.peers[0].clone();
        t.peers.push(dup);
        let index = t.index_by_key();
        assert_eq!(index.len(), 2);
        assert_eq!(index[&0xC0000201], 2, "a shared key maps to the later peer");
        assert_eq!(index[&2], 1, "a v6 peer is keyed by its BGP id");
    }

    #[test]
    fn empty_view_name_ok() {
        let t = PeerIndexTable {
            collector_id: 5,
            view_name: String::new(),
            peers: vec![],
        };
        assert_eq!(PeerIndexTable::decode(t.encode()).unwrap(), t);
    }

    #[test]
    fn rib_roundtrip() {
        let rib = RibIpv4Unicast {
            sequence: 42,
            prefix: NlriPrefix::new(0xC6336400, 24).unwrap(),
            entries: vec![
                RibEntry {
                    peer_index: 0,
                    originated_time: 1_131_868_200,
                    attributes: vec![
                        PathAttribute::Origin(0),
                        PathAttribute::AsPath(vec![AsPathSegment::sequence(vec![
                            7018, 3356, 24249,
                        ])]),
                        PathAttribute::NextHop(0xC0000201),
                    ],
                },
                RibEntry {
                    peer_index: 1,
                    originated_time: 1_131_868_300,
                    attributes: vec![PathAttribute::Med(10)],
                },
            ],
        };
        let dec = RibIpv4Unicast::decode(rib.encode()).unwrap();
        assert_eq!(dec, rib);
    }

    #[test]
    fn truncated_rib_errors() {
        let rib = RibIpv4Unicast {
            sequence: 1,
            prefix: NlriPrefix::new(0x0A000000, 8).unwrap(),
            entries: vec![],
        };
        let enc = rib.encode();
        assert!(RibIpv4Unicast::decode(enc.slice(0..3)).is_err());
    }
}
