//! Property-based tests on the substrates: the simulated virtual-memory
//! system (COW/fork/pin invariants) and the wire codecs.

mod common;

use dsim::rng::SimRng;
use sovia_repro::apps::rpc::msg::{record_mark, CallMsg, ReplyMsg, ReplyStat};
use sovia_repro::apps::rpc::xdr::{XdrDecoder, XdrEncoder};
use std::collections::BTreeMap;

use sovia_repro::simos::mem::{
    dma_read, dma_write, unpin, AddressSpace, PhysMem, PinnedRegion, VAddr, PAGE_SIZE,
};
use sovia_repro::tcpip::{IpPacket, PacketHeader, TcpFlags};

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
            let got_p = parent.read(&phys, va, len);
            let got_c = child.read(&phys, va, len);
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
            let via_map = asp.read(&phys, va.add(start_off as u64), len);
            assert_eq!(via_map, data);

            // Frames survive unmap while pinned.
            asp.unmap(&mut phys, va, region_len);
            assert_eq!(dma_read(&phys, &pin, 0, len), data);
            unpin(&mut phys, &pin);
            assert_eq!(phys.frames_in_use(), 0);
        },
    );
}

/// One step over several address spaces. Indices are reduced modulo the
/// number of spaces, mappings or pins that exist when the step runs.
#[derive(Debug, Clone, Copy)]
enum MemOp {
    Map {
        space: usize,
        len: usize,
        shared: bool,
    },
    Unmap {
        space: usize,
        mapping: usize,
    },
    Fork {
        space: usize,
    },
    Write {
        space: usize,
        mapping: usize,
        off: usize,
        len: usize,
        tag: u64,
    },
    Pin {
        space: usize,
        mapping: usize,
        off: usize,
        len: usize,
    },
    DmaWrite {
        pin: usize,
        off: usize,
        len: usize,
        tag: u64,
    },
    Unpin {
        pin: usize,
    },
}

fn mem_op(rng: &mut SimRng) -> MemOp {
    let mut any = || range(rng, 0..1 << 16);
    let (space, mapping, off, len) = (any(), any(), any(), any());
    let tag = rng.next_u64();
    match rng.below(14) {
        0..=2 => MemOp::Map {
            space,
            len: range(rng, 1..4 * PAGE_SIZE),
            shared: rng.below(2) == 1,
        },
        3 => MemOp::Unmap { space, mapping },
        4 => MemOp::Fork { space },
        5..=8 => MemOp::Write {
            space,
            mapping,
            off,
            len,
            tag,
        },
        9 | 10 => MemOp::Pin {
            space,
            mapping,
            off,
            len,
        },
        11 | 12 => MemOp::DmaWrite {
            pin: mapping,
            off,
            len,
            tag,
        },
        _ => MemOp::Unpin { pin: mapping },
    }
}

/// The reference model: every page its own map entry, every frame a
/// plain byte vector with a reference count.
#[derive(Default)]
struct PageModel {
    frames: Vec<Option<(Vec<u8>, u32)>>,
    spaces: Vec<ModelSpace>,
    /// Per pin: its first offset, length and frames.
    pins: Vec<(usize, usize, Vec<usize>)>,
}

#[derive(Clone)]
struct ModelSpace {
    /// vpn -> (frame, cow, shared).
    pages: BTreeMap<u64, (usize, bool, bool)>,
    next_vpn: u64,
    /// Base address and length of each live mapping, oldest first.
    maps: Vec<(VAddr, usize)>,
}

impl PageModel {
    fn alloc(&mut self, bytes: Vec<u8>) -> usize {
        self.frames.push(Some((bytes, 1)));
        self.frames.len() - 1
    }

    fn decref(&mut self, f: usize) {
        let frame = self.frames[f].as_mut().unwrap();
        frame.1 -= 1;
        if frame.1 == 0 {
            self.frames[f] = None;
        }
    }

    fn live_frames(&self) -> usize {
        self.frames.iter().flatten().count()
    }

    /// Call `f(page, offset in page, offset in data, run length)` for each
    /// page that `len` bytes starting `first` bytes into page 0 touch.
    fn each_byte_run(first: usize, len: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
        let (mut pos, mut done) = (first, 0);
        while done < len {
            let n = (PAGE_SIZE - pos % PAGE_SIZE).min(len - done);
            f(pos / PAGE_SIZE, pos % PAGE_SIZE, done, n);
            (pos, done) = (pos + n, done + n);
        }
    }

    fn read(&self, space: usize, va: VAddr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        Self::each_byte_run(va.page_offset(), len, |page, off, at, n| {
            let (f, ..) = self.spaces[space].pages[&(va.vpn() + page as u64)];
            let bytes = &self.frames[f].as_ref().unwrap().0;
            out[at..at + n].copy_from_slice(&bytes[off..off + n]);
        });
        out
    }

    /// Returns the COW faults taken.
    fn write(&mut self, space: usize, va: VAddr, data: &[u8]) -> usize {
        let mut faults = 0;
        Self::each_byte_run(va.page_offset(), data.len(), |page, off, at, n| {
            let vpn = va.vpn() + page as u64;
            let (mut f, cow, shared) = self.spaces[space].pages[&vpn];
            if cow {
                faults += 1;
                if self.frames[f].as_ref().unwrap().1 > 1 {
                    let copy = self.frames[f].as_ref().unwrap().0.clone();
                    self.decref(f);
                    f = self.alloc(copy);
                }
                self.spaces[space].pages.insert(vpn, (f, false, shared));
            }
            self.frames[f].as_mut().unwrap().0[off..off + n].copy_from_slice(&data[at..at + n]);
        });
        faults
    }
}

/// Random sequences of map, whole-mapping unmap, fork, cross-page
/// writes, and pins with DMA over several private and shared mappings
/// agree, after every step, with a model that keeps one entry per page:
/// bytes, COW faults, frames in use and mapped pages.
#[test]
fn mappings_behave_like_a_per_page_model() {
    check(
        "proptest_substrate::mappings_behave_like_a_per_page_model",
        CASES,
        |rng| {
            let n = range(rng, 1..40);
            Some((0..n).map(|_| mem_op(rng)).collect::<Vec<_>>())
        },
        |ops| {
            let mut phys = PhysMem::new();
            let mut real = vec![AddressSpace::new()];
            let mut pins: Vec<PinnedRegion> = Vec::new();
            let mut model = PageModel::default();
            model.spaces.push(ModelSpace {
                pages: BTreeMap::new(),
                next_vpn: (64 << 20) / PAGE_SIZE as u64,
                maps: Vec::new(),
            });
            // A window of `len` bytes at `off` inside mapping `mapping`.
            let window = |m: &PageModel, space: usize, mapping: usize, off: usize, len: usize| {
                let maps = &m.spaces[space].maps;
                (!maps.is_empty()).then(|| {
                    let (va, mlen) = maps[mapping % maps.len()];
                    let off = off % mlen;
                    (va.add(off as u64), 1 + len % (mlen - off))
                })
            };
            for op in ops {
                match op {
                    MemOp::Map { space, len, shared } => {
                        let space = space % real.len();
                        let va = real[space].map_fresh(&mut phys, len, shared);
                        let pages = len.div_ceil(PAGE_SIZE) as u64;
                        let base = model.spaces[space].next_vpn;
                        assert_eq!(va.vpn(), base, "mappings are bump-allocated");
                        for vpn in base..base + pages {
                            let f = model.alloc(vec![0; PAGE_SIZE]);
                            model.spaces[space].pages.insert(vpn, (f, false, shared));
                        }
                        model.spaces[space].next_vpn += pages + 1;
                        model.spaces[space].maps.push((va, len));
                    }
                    MemOp::Unmap { space, mapping } => {
                        let space = space % real.len();
                        let maps = &mut model.spaces[space].maps;
                        if maps.is_empty() {
                            continue;
                        }
                        let (va, len) = maps.remove(mapping % maps.len());
                        real[space].unmap(&mut phys, va, len);
                        for vpn in va.vpn()..va.vpn() + len.div_ceil(PAGE_SIZE) as u64 {
                            let (f, ..) = model.spaces[space].pages.remove(&vpn).unwrap();
                            model.decref(f);
                        }
                    }
                    MemOp::Fork { space } => {
                        if real.len() == 4 {
                            continue;
                        }
                        let space = space % real.len();
                        let child = real[space].fork(&mut phys);
                        real.push(child);
                        for (f, cow, shared) in model.spaces[space].pages.values_mut() {
                            model.frames[*f].as_mut().unwrap().1 += 1;
                            *cow |= !*shared;
                        }
                        let child = model.spaces[space].clone();
                        model.spaces.push(child);
                    }
                    MemOp::Write {
                        space,
                        mapping,
                        off,
                        len,
                        tag,
                    } => {
                        let space = space % real.len();
                        let Some((va, n)) = window(&model, space, mapping, off, len) else {
                            continue;
                        };
                        let mut data = vec![0u8; n];
                        dsim::rng::fill_pattern(tag, 0, &mut data);
                        let faults = real[space].write(&mut phys, va, &data);
                        assert_eq!(faults, model.write(space, va, &data), "COW faults");
                    }
                    MemOp::Pin {
                        space,
                        mapping,
                        off,
                        len,
                    } => {
                        let space = space % real.len();
                        let Some((va, n)) = window(&model, space, mapping, off, len) else {
                            continue;
                        };
                        pins.push(real[space].pin(&mut phys, va, n));
                        let count = (va.page_offset() + n).div_ceil(PAGE_SIZE) as u64;
                        let frames: Vec<usize> = (va.vpn()..va.vpn() + count)
                            .map(|vpn| model.spaces[space].pages[&vpn].0)
                            .collect();
                        for &f in &frames {
                            model.frames[f].as_mut().unwrap().1 += 1;
                        }
                        model.pins.push((va.page_offset(), n, frames));
                    }
                    MemOp::DmaWrite { pin, off, len, tag } => {
                        if pins.is_empty() {
                            continue;
                        }
                        let pin = pin % pins.len();
                        let (first, plen, frames) = model.pins[pin].clone();
                        let off = off % plen;
                        let mut data = vec![0u8; 1 + len % (plen - off)];
                        dsim::rng::fill_pattern(tag, 0, &mut data);
                        dma_write(&mut phys, &pins[pin], off, &data);
                        PageModel::each_byte_run(first + off, data.len(), |page, o, at, n| {
                            let bytes = &mut model.frames[frames[page]].as_mut().unwrap().0;
                            bytes[o..o + n].copy_from_slice(&data[at..at + n]);
                        });
                    }
                    MemOp::Unpin { pin } => {
                        if pins.is_empty() {
                            continue;
                        }
                        let pin = pin % pins.len();
                        unpin(&mut phys, &pins.remove(pin));
                        for f in model.pins.remove(pin).2 {
                            model.decref(f);
                        }
                    }
                }
                // Compare everything observable after every step.
                assert_eq!(phys.frames_in_use(), model.live_frames(), "frames in use");
                for (space, asp) in real.iter().enumerate() {
                    let ms = &model.spaces[space];
                    assert_eq!(asp.mapped_pages(), ms.pages.len(), "mapped pages");
                    for &(va, len) in &ms.maps {
                        let got = asp.read(&phys, va, len);
                        assert!(got == model.read(space, va, len), "bytes at {va:?}");
                    }
                }
                for (pin, (first, len, frames)) in pins.iter().zip(&model.pins) {
                    let mut want = vec![0u8; *len];
                    PageModel::each_byte_run(*first, *len, |page, o, at, n| {
                        let bytes = &model.frames[frames[page]].as_ref().unwrap().0;
                        want[at..at + n].copy_from_slice(&bytes[o..o + n]);
                    });
                    assert!(dma_read(&phys, pin, 0, *len) == want, "DMA through a pin");
                }
            }
            // Tearing everything down frees every frame.
            for pin in &pins {
                unpin(&mut phys, pin);
            }
            for (asp, ms) in real.iter_mut().zip(&model.spaces) {
                for &(va, len) in &ms.maps {
                    asp.unmap(&mut phys, va, len);
                }
                assert_eq!(asp.mapped_pages(), 0);
            }
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
            let hdr = PacketHeader {
                src: simos::HostId(src),
                dst: simos::HostId(dst),
                src_port: sport,
                dst_port: dport,
                seq,
                ack,
                flags: TcpFlags(flags),
                wnd,
            };
            let mut wire = PacketHeader::wire_buf(payload.len());
            wire.extend_from_slice(&payload);
            let payload = payload.into();
            assert_eq!(IpPacket::decode(&hdr.encode(wire)), Some(IpPacket { hdr, payload }));
        },
    );
}
