//! Property-based tests on the substrates: the simulated virtual-memory
//! system (COW/fork/pin invariants) and the wire codecs.

mod common;

use dsim::rng::SimRng;
use sovia_repro::apps::rpc::msg::{record_mark, CallMsg, ReplyMsg, ReplyStat};
use sovia_repro::apps::rpc::xdr::{XdrDecoder, XdrEncoder};
use sovia_repro::simos::mem::{dma_read, dma_write, unpin, AddressSpace, PhysMem, PAGE_SIZE};
use sovia_repro::tcpip::{IpPacket, TcpFlags, TcpSegment};

use common::{check, range, rng_for};

const CASES: u32 = 64;

/// `len` random bytes, with `len` drawn from `lens` first.
fn bytes(rng: &mut SimRng, lens: std::ops::Range<usize>) -> Vec<u8> {
    let n = range(rng, lens);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// Up to `max_len` printable characters: ASCII, plus one in sixteen drawn
/// from a few multi-byte code points so UTF-8 handling is exercised.
fn printable(rng: &mut SimRng, max_len: u64) -> String {
    const EXTRA: [char; 4] = ['é', 'Ω', '→', '☃'];
    let len = rng.range_inclusive(0, max_len);
    (0..len)
        .map(|_| {
            if rng.below(16) == 0 {
                EXTRA[rng.below(EXTRA.len() as u64) as usize]
            } else {
                (0x20 + rng.below(0x7F - 0x20) as u8) as char
            }
        })
        .collect()
}

/// One fork case: region length, seed of its contents, and the writes
/// `(to_child, offset, len, byte)` applied after the fork.
type CowCase = (usize, u64, Vec<(bool, usize, usize, u8)>);

fn cow_case(rng: &mut SimRng) -> Option<CowCase> {
    let len = range(rng, 1..5 * PAGE_SIZE);
    let init = rng.next_u64();
    let n = range(rng, 0..24);
    let ops = (0..n)
        .map(|_| {
            (
                rng.next_u64() & 1 == 1,
                range(rng, 0..5 * PAGE_SIZE),
                range(rng, 1..600),
                rng.next_u64() as u8,
            )
        })
        .collect();
    Some((len, init, ops))
}

/// A random interleaving of writes in parent and child after fork must
/// behave like two independent memories seeded with the same contents.
#[test]
fn cow_fork_behaves_like_deep_copy() {
    check(
        "proptest_substrate::cow_fork_behaves_like_deep_copy",
        CASES,
        cow_case,
        |(len, init, ops)| {
            let mut phys = PhysMem::new();
            let mut parent = AddressSpace::new();
            let va = parent.map_fresh(&mut phys, len, false);

            // Seed the region.
            let mut seed_data = vec![0u8; len];
            dsim::rng::fill_pattern(init, 0, &mut seed_data);
            parent.write(&mut phys, va, &seed_data);

            let mut child = parent.fork(&mut phys);

            // The reference model: two plain byte vectors.
            let mut model_parent = seed_data.clone();
            let mut model_child = seed_data;

            for (to_child, off, n, byte) in ops {
                let off = off % len;
                let n = n.min(len - off);
                if n == 0 {
                    continue;
                }
                let data = vec![byte; n];
                let target_va = va.add(off as u64);
                if to_child {
                    child.write(&mut phys, target_va, &data);
                    model_child[off..off + n].copy_from_slice(&data);
                } else {
                    parent.write(&mut phys, target_va, &data);
                    model_parent[off..off + n].copy_from_slice(&data);
                }
            }
            let mut got_p = vec![0u8; len];
            parent.read(&phys, va, &mut got_p);
            let mut got_c = vec![0u8; len];
            child.read(&phys, va, &mut got_c);
            assert_eq!(got_p, model_parent);
            assert_eq!(got_c, model_child);
        },
    );
}

/// The cases are the ones the retired property-test shim generated: this
/// first case was recorded from it.
#[test]
fn first_case_is_pinned() {
    let mut rng = rng_for("proptest_substrate::cow_fork_behaves_like_deep_copy");
    let expected: CowCase = (
        17376,
        5143729397722477786,
        vec![
            (false, 6956, 331, 29),
            (true, 19432, 90, 52),
            (true, 7197, 20, 187),
            (true, 276, 5, 231),
            (false, 15259, 254, 33),
            (false, 4309, 50, 66),
            (true, 4724, 380, 68),
            (false, 7025, 507, 154),
        ],
    );
    assert_eq!(cow_case(&mut rng), Some(expected));
}

/// DMA through a pin reads/writes exactly the pinned window, at any
/// alignment, and pins keep frames alive across unmaps.
#[test]
fn pin_dma_window_is_exact() {
    check(
        "proptest_substrate::pin_dma_window_is_exact",
        CASES,
        |rng| {
            let pages = range(rng, 1..6);
            let start_off = range(rng, 0..PAGE_SIZE);
            let len = range(rng, 1..3 * PAGE_SIZE);
            let fill = rng.next_u64();
            // Reject windows that overrun the region.
            (start_off + len <= pages * PAGE_SIZE).then_some((pages, start_off, len, fill))
        },
        |(pages, start_off, len, fill)| {
            let region_len = pages * PAGE_SIZE;
            let mut phys = PhysMem::new();
            let mut asp = AddressSpace::new();
            let va = asp.map_fresh(&mut phys, region_len, false);
            let pin = asp.pin(&mut phys, va.add(start_off as u64), len);

            let mut data = vec![0u8; len];
            dsim::rng::fill_pattern(fill, 0, &mut data);
            dma_write(&mut phys, &pin, 0, &data);
            assert_eq!(dma_read(&phys, &pin, 0, len), data);

            // Visible through the mapping too (no fork happened).
            let mut via_map = vec![0u8; len];
            asp.read(&phys, va.add(start_off as u64), &mut via_map);
            assert_eq!(via_map, data);

            // Frames survive unmap while pinned.
            asp.unmap(&mut phys, va, region_len);
            assert_eq!(dma_read(&phys, &pin, 0, len), data);
            unpin(&mut phys, &pin);
            assert_eq!(phys.frames_in_use(), 0);
        },
    );
}

/// XDR strings/opaques/ints round-trip for arbitrary content.
#[test]
fn xdr_roundtrip() {
    check(
        "proptest_substrate::xdr_roundtrip",
        CASES,
        |rng| {
            let a = rng.next_u64() as u32;
            let b = rng.next_u64() as i32;
            let s = printable(rng, 120);
            Some((a, b, s, bytes(rng, 0..300)))
        },
        |(a, b, s, blob)| {
            let mut e = XdrEncoder::new();
            e.put_u32(a).put_i32(b).put_string(&s).put_opaque(&blob);
            let bytes = e.finish();
            assert_eq!(bytes.len() % 4, 0, "XDR is 4-byte aligned");
            let mut d = XdrDecoder::new(&bytes);
            assert_eq!(d.get_u32().unwrap(), a);
            assert_eq!(d.get_i32().unwrap(), b);
            assert_eq!(d.get_string().unwrap(), s);
            assert_eq!(d.get_opaque().unwrap(), blob);
            assert_eq!(d.remaining(), 0);
        },
    );
}

/// RPC CALL/REPLY messages round-trip, and the record mark matches.
#[test]
fn rpc_messages_roundtrip() {
    check(
        "proptest_substrate::rpc_messages_roundtrip",
        CASES,
        |rng| {
            let xid = rng.next_u64() as u32;
            let prog = rng.next_u64() as u32;
            let vers = rng.next_u64() as u32;
            let proc_num = rng.next_u64() as u32;
            let mut args = bytes(rng, 0..200);
            // args must be 4-aligned to parse back identically
            args.resize(args.len().next_multiple_of(4), 0);
            Some((xid, prog, vers, proc_num, args))
        },
        |(xid, prog, vers, proc_num, args)| {
            let call = CallMsg {
                xid,
                prog,
                vers,
                proc_num,
                args,
            };
            let body = call.encode();
            assert_eq!(CallMsg::decode(&body).unwrap(), call);
            let framed = record_mark(&body);
            assert_eq!(framed.len(), body.len() + 4);

            let reply = ReplyMsg {
                xid,
                stat: ReplyStat::Success,
                result: body.clone(),
            };
            assert_eq!(ReplyMsg::decode(&reply.encode()).unwrap(), reply);
        },
    );
}

/// TCP/IP packets round-trip through the byte codec.
#[test]
fn ip_packets_roundtrip() {
    check(
        "proptest_substrate::ip_packets_roundtrip",
        CASES,
        |rng| {
            let src = rng.next_u64() as u32;
            let dst = rng.next_u64() as u32;
            let sport = rng.next_u64() as u16;
            let dport = rng.next_u64() as u16;
            let seq = rng.next_u64() as u32;
            let ack = rng.next_u64() as u32;
            let flags = range(rng, 0..32) as u8;
            let wnd = rng.next_u64() as u32;
            let payload = bytes(rng, 0..1460);
            Some((src, dst, sport, dport, seq, ack, flags, wnd, payload))
        },
        |(src, dst, sport, dport, seq, ack, flags, wnd, payload)| {
            let p = IpPacket {
                src: simos::HostId(src),
                dst: simos::HostId(dst),
                tcp: TcpSegment {
                    src_port: sport,
                    dst_port: dport,
                    seq,
                    ack,
                    flags: TcpFlags(flags),
                    wnd,
                    payload: payload.into(),
                },
            };
            assert_eq!(IpPacket::decode(&p.encode()), Some(p));
        },
    );
}
