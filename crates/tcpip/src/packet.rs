//! IP and TCP header encoding.
//!
//! Real byte-level headers (20 B IP + 20 B TCP) so wire times include the
//! protocol overhead the paper's TCP baseline pays. The window field is
//! 32-bit — the paper raises the socket buffer to 131,170 bytes, which a
//! 16-bit window could not advertise without scaling.

use dsim::Payload;
use simos::HostId;

/// IP protocol number for TCP.
pub const PROTO_TCP: u8 = 6;
/// Serialized IP header length.
pub const IP_HDR: usize = 20;
/// Serialized TCP header length.
pub const TCP_HDR: usize = 20;

// A tiny local bitflags substitute to avoid an extra dependency.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $($flag:ident = $value:expr,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name(pub $ty);

        #[allow(non_upper_case_globals)]
        impl $name {
            $(
                /// Flag constant.
                pub const $flag: $name = $name($value);
            )*

            /// Empty flag set.
            pub const fn empty() -> $name {
                $name(0)
            }

            /// Whether all bits of `other` are set.
            pub fn contains(self, other: $name) -> bool {
                (self.0 & other.0) == other.0
            }

            /// Union.
            pub fn union(self, other: $name) -> $name {
                $name(self.0 | other.0)
            }
        }

        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name {
                self.union(rhs)
            }
        }
    };
}

bitflags_lite! {
    /// TCP flags (subset).
    pub struct TcpFlags: u8 {
        SYN = 0b0000_0001,
        ACK = 0b0000_0010,
        FIN = 0b0000_0100,
        RST = 0b0000_1000,
        PSH = 0b0001_0000,
    }
}

/// The IP and TCP header fields of one packet: everything but the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgment number (next expected byte), valid with ACK.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window (bytes).
    pub wnd: u32,
}

/// A decoded IP packet carrying a TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpPacket {
    /// The headers.
    pub hdr: PacketHeader,
    /// Payload bytes: a window into the wire buffer, never copied.
    pub payload: Payload,
}

impl PacketHeader {
    /// A wire buffer for a packet with `payload_len` payload bytes, at its
    /// final capacity: zeroed header space, behind which the caller
    /// copies the payload in.
    pub fn wire_buf(payload_len: usize) -> Vec<u8> {
        let mut wire = Vec::with_capacity(IP_HDR + TCP_HDR + payload_len);
        wire.resize(IP_HDR + TCP_HDR, 0);
        wire
    }

    /// Serialize in place: write both headers over the front of `wire` (a
    /// [`PacketHeader::wire_buf`] with the payload appended) and wrap it,
    /// uncopied, as the packet every later layer shares.
    pub fn encode(&self, mut wire: Vec<u8>) -> Payload {
        let mut h = [0u8; IP_HDR + TCP_HDR]; // checksums are modeled as costs
        h[0] = 0x45; // version 4, IHL 5
        h[2..4].copy_from_slice(&(wire.len() as u16).to_be_bytes());
        h[8] = 64; // TTL
        h[9] = PROTO_TCP;
        h[12..16].copy_from_slice(&self.src.0.to_be_bytes());
        h[16..20].copy_from_slice(&self.dst.0.to_be_bytes());
        let t = &mut h[IP_HDR..];
        t[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        t[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        t[4..8].copy_from_slice(&self.seq.to_be_bytes());
        t[8..12].copy_from_slice(&self.ack.to_be_bytes());
        t[12] = self.flags.0;
        t[16..20].copy_from_slice(&self.wnd.to_be_bytes());
        wire[..IP_HDR + TCP_HDR].copy_from_slice(&h);
        Payload::new(wire)
    }
}

impl IpPacket {
    /// Parse wire bytes; `None` on malformed input. The payload is a slice
    /// of `buf`'s backing allocation — no copy.
    pub fn decode(buf: &Payload) -> Option<IpPacket> {
        if buf.len() < IP_HDR + TCP_HDR || buf[0] != 0x45 || buf[9] != PROTO_TCP {
            return None;
        }
        let total = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total != buf.len() {
            return None;
        }
        let t = &buf[IP_HDR..];
        let hdr = PacketHeader {
            src: HostId(u32::from_be_bytes(buf[12..16].try_into().ok()?)),
            dst: HostId(u32::from_be_bytes(buf[16..20].try_into().ok()?)),
            src_port: u16::from_be_bytes([t[0], t[1]]),
            dst_port: u16::from_be_bytes([t[2], t[3]]),
            seq: u32::from_be_bytes(t[4..8].try_into().ok()?),
            ack: u32::from_be_bytes(t[8..12].try_into().ok()?),
            flags: TcpFlags(t[12]),
            wnd: u32::from_be_bytes(t[16..20].try_into().ok()?),
        };
        Some(IpPacket { hdr, payload: buf.slice(IP_HDR + TCP_HDR..) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    const SAMPLE: PacketHeader = PacketHeader {
        src: HostId(1),
        dst: HostId(2),
        src_port: 4000,
        dst_port: 21,
        seq: 0xDEAD_BEEF,
        ack: 0x1234_5678,
        flags: TcpFlags(TcpFlags::ACK.0 | TcpFlags::PSH.0),
        wnd: 131_170,
    };

    fn encode(hdr: &PacketHeader, payload: &[u8]) -> Payload {
        let mut wire = PacketHeader::wire_buf(payload.len());
        wire.extend_from_slice(payload);
        hdr.encode(wire)
    }

    #[test]
    fn wire_format_is_pinned() {
        #[rustfmt::skip]
        let expected: &[u8] = &[
            // IP: version/IHL, TOS, total length 49, id, frag, TTL 64,
            // protocol 6, checksum, source 1, destination 2.
            0x45, 0x00, 0x00, 0x31, 0x00, 0x00, 0x00, 0x00, 0x40, 0x06,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02,
            // TCP: ports 4000 -> 21, seq, ack, flags ACK|PSH, reserved,
            // checksum, 32-bit window 131,170.
            0x0f, 0xa0, 0x00, 0x15, 0xde, 0xad, 0xbe, 0xef, 0x12, 0x34,
            0x56, 0x78, 0x12, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x62,
            b'h', b'e', b'l', b'l', b'o', b' ', b't', b'c', b'p',
        ];
        assert_eq!(&*encode(&SAMPLE, b"hello tcp"), expected);
    }

    #[test]
    fn roundtrip() {
        let bytes = encode(&SAMPLE, b"hello tcp");
        assert_eq!(bytes.len(), 40 + 9);
        let d = IpPacket::decode(&bytes).unwrap();
        assert_eq!(
            d,
            IpPacket {
                hdr: SAMPLE,
                payload: Payload::copy_from_slice(b"hello tcp")
            }
        );
    }

    #[test]
    fn roundtrip_empty_payload() {
        let d = IpPacket::decode(&SAMPLE.encode(PacketHeader::wire_buf(0))).unwrap();
        assert_eq!(
            d,
            IpPacket {
                hdr: SAMPLE,
                payload: Payload::empty()
            }
        );
    }

    #[test]
    fn roundtrip_payload_from_both_halves_of_a_wrapped_ring() {
        let mut ring: VecDeque<u8> = VecDeque::with_capacity(16);
        ring.extend(0..12u8);
        ring.drain(..10);
        ring.extend(12..24u8); // wraps: the ring's two halves are both non-empty
        assert!(!ring.as_slices().0.is_empty() && !ring.as_slices().1.is_empty());
        let mut wire = PacketHeader::wire_buf(ring.len() - 1);
        crate::tcb::extend_from_ring(&mut wire, &ring, 1, ring.len() - 1);
        let d = IpPacket::decode(&SAMPLE.encode(wire)).unwrap();
        assert_eq!(d.hdr, SAMPLE);
        assert_eq!(&*d.payload, &(11..24u8).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn flags_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
    }

    #[test]
    fn large_window_survives() {
        let d = IpPacket::decode(&encode(&SAMPLE, b"x")).unwrap();
        assert_eq!(d.hdr.wnd, 131_170);
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(IpPacket::decode(&Payload::empty()), None);
        assert_eq!(IpPacket::decode(&Payload::new(vec![0u8; 39])), None);
        let bytes = encode(&SAMPLE, b"abc");
        let truncated = bytes.slice(..bytes.len() - 1); // length mismatch
        assert_eq!(IpPacket::decode(&truncated), None);
    }

    #[test]
    fn decode_payload_shares_wire_buffer() {
        let wire = encode(&SAMPLE, b"zero copy please");
        let d = IpPacket::decode(&wire).unwrap();
        assert_eq!(&*d.payload, b"zero copy please");
        // The decoded payload is a window into the wire bytes, not a copy.
        assert_eq!(&wire[IP_HDR + TCP_HDR..], &*d.payload);
        assert_eq!(d.payload.as_ptr(), wire[IP_HDR + TCP_HDR..].as_ptr());
    }
}
