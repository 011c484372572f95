//! Simulated physical memory and per-process virtual address spaces.
//!
//! The model is page-granular and carries **real bytes**: DMA targets
//! physical frames, processes access virtual addresses, and fork() shares
//! frames copy-on-write. This is what lets the reproduction *observe* the
//! paper's Figure 5 bug — after a fork, a parent write moves the parent's
//! virtual pages onto fresh frames while a registered (pinned) region keeps
//! DMA-ing into the stale frames, corrupting received data.
//!
//! A frame's bytes exist on the host only once something writes to it:
//! until then it reads as zeros, like the kernel's zero page. This is a
//! host-memory saving only; frame counts, refcounts, pins, COW faults and
//! every charged cost are the same as if each frame were filled at
//! allocation.
//!
//! Bytes, frames, refcounts and COW flags are per page, but an address
//! space is indexed per mapping: map, unmap and fork cost one map
//! operation per mapping, and a read, write or pin one lookup.

use std::collections::btree_map::{BTreeMap, Entry};

use crate::costs::HostCosts;
use dsim::{SimCtx, SimDuration};

/// Page size of the simulated machine (bytes).
pub const PAGE_SIZE: usize = 4096;

/// A virtual address in some process's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VAddr(pub u64);

#[allow(clippy::should_implement_trait)] // `Add<u64>` is also implemented
impl VAddr {
    /// Virtual page number.
    #[inline]
    pub fn vpn(self) -> u64 {
        self.0 / PAGE_SIZE as u64
    }

    /// Offset within the page.
    #[inline]
    pub fn page_offset(self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// Address `n` bytes further on.
    #[inline]
    pub fn add(self, n: u64) -> VAddr {
        VAddr(self.0 + n)
    }
}

impl std::ops::Add<u64> for VAddr {
    type Output = VAddr;
    fn add(self, n: u64) -> VAddr {
        VAddr(self.0 + n)
    }
}

/// Index of a physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameId(pub u32);

/// What every frame holds until its first write.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

struct Frame {
    /// `None` until the first write: the frame is all zeros.
    data: Option<Box<[u8]>>,
    /// Number of address-space mappings plus pins referencing this frame.
    refs: u32,
}

/// All physical memory of one machine.
pub struct PhysMem {
    frames: Vec<Option<Frame>>,
    free: Vec<u32>,
    allocated: usize,
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

impl PhysMem {
    /// An empty physical memory.
    pub fn new() -> PhysMem {
        PhysMem {
            frames: Vec::new(),
            free: Vec::new(),
            allocated: 0,
        }
    }

    /// Allocate a zeroed frame with refcount 1.
    pub fn alloc_frame(&mut self) -> FrameId {
        self.allocated += 1;
        let frame = Frame {
            data: None,
            refs: 1,
        };
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.frames[idx as usize].is_none());
                self.frames[idx as usize] = Some(frame);
                FrameId(idx)
            }
            None => {
                self.frames.push(Some(frame));
                FrameId((self.frames.len() - 1) as u32)
            }
        }
    }

    fn frame(&self, id: FrameId) -> &Frame {
        self.frames[id.0 as usize]
            .as_ref()
            .expect("use of freed frame")
    }

    fn frame_mut(&mut self, id: FrameId) -> &mut Frame {
        self.frames[id.0 as usize]
            .as_mut()
            .expect("use of freed frame")
    }

    /// Increment a frame's reference count (new mapping or pin).
    pub fn incref(&mut self, id: FrameId) {
        self.frame_mut(id).refs += 1;
    }

    /// Drop one reference; frees the frame when the count reaches zero.
    pub fn decref(&mut self, id: FrameId) {
        let frame = self.frame_mut(id);
        assert!(frame.refs > 0, "decref of unreferenced frame");
        frame.refs -= 1;
        if frame.refs == 0 {
            self.frames[id.0 as usize] = None;
            self.free.push(id.0);
            self.allocated -= 1;
        }
    }

    /// Current reference count (test/diagnostic aid).
    pub fn refcount(&self, id: FrameId) -> u32 {
        self.frame(id).refs
    }

    /// Number of live frames whose bytes have been written, and so occupy
    /// host memory (test/diagnostic aid).
    pub fn frames_materialized(&self) -> usize {
        self.frames
            .iter()
            .flatten()
            .filter(|f| f.data.is_some())
            .count()
    }

    /// Number of live frames.
    pub fn frames_in_use(&self) -> usize {
        self.allocated
    }

    /// The `len` bytes of a frame at `offset`.
    pub fn frame_bytes(&self, id: FrameId, offset: usize, len: usize) -> &[u8] {
        let data = self.frame(id).data.as_deref().unwrap_or(&ZERO_PAGE);
        &data[offset..offset + len]
    }

    /// Copy bytes into a frame (this is what DMA does — no address-space
    /// checks, by design).
    pub fn write_frame(&mut self, id: FrameId, offset: usize, data: &[u8]) {
        let bytes = self
            .frame_mut(id)
            .data
            .get_or_insert_with(|| vec![0u8; PAGE_SIZE].into_boxed_slice());
        bytes[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Duplicate `src` into a fresh frame (COW break), refcount 1.
    pub fn clone_frame(&mut self, src: FrameId) -> FrameId {
        let data = self.frame(src).data.clone();
        let new = self.alloc_frame();
        self.frame_mut(new).data = data;
        new
    }
}

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    frame: FrameId,
    /// Write must first break sharing by copying the frame.
    cow: bool,
    /// Part of a shared segment: fork() keeps the mapping shared and
    /// writable (the paper's fix for the registered-buffer COW bug).
    shared: bool,
}

/// One process's virtual address space: one entry per mapping, keyed by
/// its base VPN, holding that mapping's pages in order.
pub struct AddressSpace {
    maps: BTreeMap<u64, Vec<PageEntry>>,
    /// Bump allocator for fresh mappings, in pages.
    next_vpn: u64,
}

/// A physical run backing one page of a pinned region.
#[derive(Debug, Clone, Copy)]
pub struct PinnedPage {
    /// The frame that was mapped at pin time. DMA uses this forever,
    /// regardless of what the address space does afterwards.
    pub frame: FrameId,
}

/// The result of pinning a virtual range: the physical frames the NIC will
/// DMA to/from. Holding a pin keeps the frames alive (refcounted); it does
/// **not** keep the process's mapping pointing at them — that mismatch is
/// exactly the Figure 5 copy-on-write problem.
#[derive(Debug, Clone)]
pub struct PinnedRegion {
    /// Starting virtual address at pin time (diagnostics only).
    pub va: VAddr,
    /// Total byte length.
    pub len: usize,
    /// Offset into the first page.
    pub first_offset: usize,
    /// One entry per spanned page.
    pub pages: Vec<PinnedPage>,
}

impl PinnedRegion {
    /// Number of spanned pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// An empty address space. Mappings start at 64 MB to keep address 0
    /// unmapped (null deref traps in tests).
    pub fn new() -> AddressSpace {
        AddressSpace {
            maps: BTreeMap::new(),
            next_vpn: (64 * 1024 * 1024) / PAGE_SIZE as u64,
        }
    }

    /// Map `len` bytes of fresh zeroed memory; returns the base address.
    pub fn map_fresh(&mut self, phys: &mut PhysMem, len: usize, shared: bool) -> VAddr {
        assert!(len > 0, "zero-length mapping");
        let pages = len.div_ceil(PAGE_SIZE) as u64;
        let base_vpn = self.next_vpn;
        // Leave a one-page guard gap between mappings.
        self.next_vpn += pages + 1;
        let entries = (0..pages)
            .map(|_| PageEntry {
                frame: phys.alloc_frame(),
                cow: false,
                shared,
            })
            .collect();
        self.maps.insert(base_vpn, entries);
        VAddr(base_vpn * PAGE_SIZE as u64)
    }

    /// Remove a whole mapping created by [`AddressSpace::map_fresh`];
    /// panics unless `va` and `len` name exactly one mapping.
    pub fn unmap(&mut self, phys: &mut PhysMem, va: VAddr, len: usize) {
        let pages = len.div_ceil(PAGE_SIZE);
        let entries = match self.maps.entry(va.vpn()) {
            Entry::Occupied(m) if va.page_offset() == 0 && m.get().len() == pages => m.remove(),
            _ => panic!("unmap of {len} bytes at {:#x} is not a whole mapping", va.0),
        };
        for entry in entries {
            phys.decref(entry.frame);
        }
    }

    /// Total mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.maps.values().map(Vec::len).sum()
    }

    /// The entries of the pages that `len > 0` bytes at `va` touch. They
    /// must lie in one mapping: a guard page separates any two.
    fn span(&self, va: VAddr, len: usize) -> &[PageEntry] {
        let hit = self.maps.range(..=va.vpn()).next_back();
        hit.and_then(|(&base, pages)| pages.get(span_of(base, va, len)))
            .unwrap_or_else(|| panic!("access to unmapped page: {len} bytes at {:#x}", va.0))
    }

    fn span_mut(&mut self, va: VAddr, len: usize) -> &mut [PageEntry] {
        let hit = self.maps.range_mut(..=va.vpn()).next_back();
        hit.and_then(|(&base, pages)| pages.get_mut(span_of(base, va, len)))
            .unwrap_or_else(|| panic!("access to unmapped page: {len} bytes at {:#x}", va.0))
    }

    /// Read `len` bytes through the virtual mapping.
    pub fn read(&self, phys: &PhysMem, va: VAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        if len == 0 {
            return out;
        }
        let mut off = va.page_offset();
        for entry in self.span(va, len) {
            let n = (PAGE_SIZE - off).min(len - out.len());
            out.extend_from_slice(phys.frame_bytes(entry.frame, off, n));
            off = 0;
        }
        out
    }

    /// Write bytes through the virtual mapping, breaking COW as needed.
    /// Returns the number of COW faults taken (the caller charges their
    /// cost).
    pub fn write(&mut self, phys: &mut PhysMem, va: VAddr, data: &[u8]) -> usize {
        if data.is_empty() {
            return 0;
        }
        let (mut off, mut done, mut faults) = (va.page_offset(), 0usize, 0usize);
        for entry in self.span_mut(va, data.len()) {
            if entry.cow {
                faults += 1;
                if phys.refcount(entry.frame) > 1 {
                    // Linux semantics: the writer gets a fresh copy; other
                    // mappers (and pins!) keep the old frame.
                    let new = phys.clone_frame(entry.frame);
                    phys.decref(entry.frame);
                    entry.frame = new;
                }
                entry.cow = false;
            }
            let n = (PAGE_SIZE - off).min(data.len() - done);
            phys.write_frame(entry.frame, off, &data[done..done + n]);
            (off, done) = (0, done + n);
        }
        faults
    }

    /// Translate and pin a virtual range for DMA. Frames gain a reference;
    /// call [`unpin`] (via the owning machine) when done.
    pub fn pin(&self, phys: &mut PhysMem, va: VAddr, len: usize) -> PinnedRegion {
        assert!(len > 0, "zero-length pin");
        let pages = self
            .span(va, len)
            .iter()
            .map(|entry| {
                phys.incref(entry.frame);
                PinnedPage { frame: entry.frame }
            })
            .collect();
        PinnedRegion {
            va,
            len,
            first_offset: va.page_offset(),
            pages,
        }
    }

    /// Fork: duplicate this address space. Private pages become COW-shared
    /// in **both** parent and child; shared-segment pages stay shared and
    /// writable. Returns the child's address space.
    pub fn fork(&mut self, phys: &mut PhysMem) -> AddressSpace {
        let mut share = |entry: &mut PageEntry| {
            phys.incref(entry.frame);
            entry.cow = !entry.shared;
            *entry
        };
        AddressSpace {
            maps: (self.maps.iter_mut())
                .map(|(&base, pages)| (base, pages.iter_mut().map(&mut share).collect()))
                .collect(),
            next_vpn: self.next_vpn,
        }
    }
}

/// Which pages of the mapping at VPN `base` `len` bytes at `va` touch.
fn span_of(base: u64, va: VAddr, len: usize) -> std::ops::Range<usize> {
    let first = (va.vpn() - base) as usize;
    first..first + (va.page_offset() + len).div_ceil(PAGE_SIZE)
}

/// Release a pin's frame references.
pub fn unpin(phys: &mut PhysMem, region: &PinnedRegion) {
    for p in &region.pages {
        phys.decref(p.frame);
    }
}

/// DMA write into a pinned region at byte `offset` (what a receiving NIC
/// does). Bypasses all address-space state on purpose.
pub fn dma_write(phys: &mut PhysMem, region: &PinnedRegion, offset: usize, data: &[u8]) {
    assert!(
        offset + data.len() <= region.len,
        "DMA write past pinned region: {}+{} > {}",
        offset,
        data.len(),
        region.len
    );
    let mut pos = region.first_offset + offset;
    let mut done = 0usize;
    while done < data.len() {
        let page = pos / PAGE_SIZE;
        let off = pos % PAGE_SIZE;
        let n = (PAGE_SIZE - off).min(data.len() - done);
        phys.write_frame(region.pages[page].frame, off, &data[done..done + n]);
        pos += n;
        done += n;
    }
}

/// DMA read from a pinned region (what a sending NIC does).
pub fn dma_read(phys: &PhysMem, region: &PinnedRegion, offset: usize, len: usize) -> Vec<u8> {
    assert!(
        offset + len <= region.len,
        "DMA read past pinned region: {}+{} > {}",
        offset,
        len,
        region.len
    );
    let mut out = Vec::with_capacity(len);
    let mut pos = region.first_offset + offset;
    while out.len() < len {
        let (page, off) = (pos / PAGE_SIZE, pos % PAGE_SIZE);
        let n = (PAGE_SIZE - off).min(len - out.len());
        out.extend_from_slice(phys.frame_bytes(region.pages[page].frame, off, n));
        pos += n;
    }
    out
}

/// Charge the virtual-time cost of `faults` COW faults (fault handling plus
/// one page copy each).
pub fn charge_cow_faults(ctx: &SimCtx, costs: &HostCosts, faults: usize) {
    if faults == 0 {
        return;
    }
    let per_fault: SimDuration = costs.cow_fault + costs.memcpy(PAGE_SIZE);
    ctx.sleep(per_fault * faults as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, AddressSpace) {
        (PhysMem::new(), AddressSpace::new())
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, 10_000, false);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        asp.write(&mut phys, va, &data);
        let out = asp.read(&phys, va, 10_000);
        assert_eq!(out, data);
    }

    #[test]
    fn unaligned_cross_page_access() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, 3 * PAGE_SIZE, false);
        let start = va.add(PAGE_SIZE as u64 - 7);
        let data = vec![0xAB; 20]; // spans two pages
        asp.write(&mut phys, start, &data);
        let out = asp.read(&phys, start, 20);
        assert_eq!(out, data);
    }

    #[test]
    fn fresh_pages_are_zeroed() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, PAGE_SIZE, false);
        let out = asp.read(&phys, va, PAGE_SIZE);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn unmap_frees_frames() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, 4 * PAGE_SIZE, false);
        assert_eq!(phys.frames_in_use(), 4);
        asp.unmap(&mut phys, va, 4 * PAGE_SIZE);
        assert_eq!(phys.frames_in_use(), 0);
    }

    #[test]
    fn fork_shares_then_cow_on_parent_write() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, PAGE_SIZE, false);
        asp.write(&mut phys, va, b"original");
        let child = asp.fork(&mut phys);
        assert_eq!(phys.frames_in_use(), 1, "fork shares the frame");

        // Parent writes -> COW fault -> parent moves to a new frame.
        let faults = asp.write(&mut phys, va, b"parent!!");
        assert_eq!(faults, 1);
        assert_eq!(phys.frames_in_use(), 2);

        // Child still sees the original bytes.
        let out = child.read(&phys, va, 8);
        assert_eq!(&out, b"original");
        let out = asp.read(&phys, va, 8);
        assert_eq!(&out, b"parent!!");
    }

    #[test]
    fn second_write_after_cow_takes_no_fault() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, PAGE_SIZE, false);
        let _child = asp.fork(&mut phys);
        assert_eq!(asp.write(&mut phys, va, b"x"), 1);
        assert_eq!(asp.write(&mut phys, va, b"y"), 0);
    }

    #[test]
    fn shared_segment_is_not_cowed_on_fork() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, PAGE_SIZE, true);
        let child = asp.fork(&mut phys);
        let faults = asp.write(&mut phys, va, b"both see this");
        assert_eq!(faults, 0, "shared pages take no COW fault");
        let out = child.read(&phys, va, 13);
        assert_eq!(&out, b"both see this");
    }

    #[test]
    fn figure5_cow_bug_reproduced() {
        // The paper's Figure 5: register (pin) -> fork -> parent write
        // => pin points at the stale frame; DMA lands where the parent no
        // longer looks.
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, PAGE_SIZE, false);
        let pin = asp.pin(&mut phys, va, 64);

        let _child = asp.fork(&mut phys);
        // Parent touches the registered region after fork (Fig. 5(c)).
        asp.write(&mut phys, va, b"touch");

        // NIC delivers a message into the pinned (now stale) frame.
        dma_write(&mut phys, &pin, 0, b"INCOMING DATA");

        // The parent reads its receive buffer: the data is NOT there.
        let got = asp.read(&phys, va, 13);
        assert_ne!(&got, b"INCOMING DATA", "corruption must be observable");

        // With a shared segment (the SOVIA fix) the same sequence works.
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, PAGE_SIZE, true);
        let pin = asp.pin(&mut phys, va, 64);
        let _child = asp.fork(&mut phys);
        asp.write(&mut phys, va, b"touch");
        dma_write(&mut phys, &pin, 0, b"INCOMING DATA");
        let got = asp.read(&phys, va, 13);
        assert_eq!(&got, b"INCOMING DATA");
    }

    #[test]
    fn pin_keeps_frame_alive_after_unmap() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, PAGE_SIZE, false);
        asp.write(&mut phys, va, b"persist");
        let pin = asp.pin(&mut phys, va, 7);
        asp.unmap(&mut phys, va, PAGE_SIZE);
        assert_eq!(phys.frames_in_use(), 1, "pin holds the frame");
        assert_eq!(dma_read(&phys, &pin, 0, 7), b"persist");
        unpin(&mut phys, &pin);
        assert_eq!(phys.frames_in_use(), 0);
    }

    #[test]
    fn dma_respects_page_boundaries() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, 3 * PAGE_SIZE, false);
        let start = va.add(PAGE_SIZE as u64 - 100);
        let pin = asp.pin(&mut phys, start, 300);
        assert_eq!(pin.page_count(), 2);
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        dma_write(&mut phys, &pin, 0, &data);
        assert_eq!(dma_read(&phys, &pin, 0, 300), data);
        // The process sees the same bytes through its mapping.
        let out = asp.read(&phys, start, 300);
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "DMA write past pinned region")]
    fn dma_out_of_bounds_panics() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, PAGE_SIZE, false);
        let pin = asp.pin(&mut phys, va, 16);
        dma_write(&mut phys, &pin, 10, &[0u8; 10]);
    }

    #[test]
    #[should_panic(expected = "unmapped page")]
    fn unmapped_access_panics() {
        let (phys, asp) = setup();
        asp.read(&phys, VAddr(0), 1);
    }

    #[test]
    #[should_panic(expected = "not a whole mapping")]
    fn partial_unmap_panics() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, 4 * PAGE_SIZE, false);
        asp.unmap(&mut phys, va, 2 * PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "not a whole mapping")]
    fn unmap_from_inside_a_mapping_panics() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, 4 * PAGE_SIZE, false);
        asp.unmap(&mut phys, va.add(PAGE_SIZE as u64), 3 * PAGE_SIZE);
    }

    #[test]
    #[should_panic(expected = "unmapped page")]
    fn guard_page_between_adjacent_mappings_is_unmapped() {
        let (mut phys, mut asp) = setup();
        let a = asp.map_fresh(&mut phys, 2 * PAGE_SIZE, false);
        let b = asp.map_fresh(&mut phys, PAGE_SIZE, false);
        assert_eq!(b.vpn(), a.vpn() + 3, "one guard page between them");
        asp.write(&mut phys, a.add(2 * PAGE_SIZE as u64), b"x");
    }

    #[test]
    #[should_panic(expected = "unmapped page")]
    fn pin_across_the_guard_page_panics() {
        let (mut phys, mut asp) = setup();
        let a = asp.map_fresh(&mut phys, PAGE_SIZE, false);
        asp.map_fresh(&mut phys, PAGE_SIZE, false);
        asp.pin(&mut phys, a, 3 * PAGE_SIZE);
    }

    #[test]
    fn mapped_pages_tracks_map_fork_and_unmap() {
        let (mut phys, mut asp) = setup();
        assert_eq!(asp.mapped_pages(), 0);
        let a = asp.map_fresh(&mut phys, 3 * PAGE_SIZE, false);
        let b = asp.map_fresh(&mut phys, PAGE_SIZE + 1, true);
        assert_eq!(asp.mapped_pages(), 5);
        let mut child = asp.fork(&mut phys);
        assert_eq!(child.mapped_pages(), 5);
        asp.unmap(&mut phys, a, 3 * PAGE_SIZE);
        assert_eq!((asp.mapped_pages(), child.mapped_pages()), (2, 5));
        assert_eq!(phys.frames_in_use(), 5, "the child still maps them all");
        child.unmap(&mut phys, b, PAGE_SIZE + 1);
        child.unmap(&mut phys, a, 3 * PAGE_SIZE);
        assert_eq!((asp.mapped_pages(), child.mapped_pages()), (2, 0));
        assert_eq!(phys.frames_in_use(), 2);
    }

    #[test]
    fn fork_write_to_one_page_breaks_only_that_page() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, 4 * PAGE_SIZE, false);
        let before = asp.pin(&mut phys, va, 4 * PAGE_SIZE);
        unpin(&mut phys, &before);
        let _child = asp.fork(&mut phys);
        assert_eq!(
            asp.write(&mut phys, va.add(2 * PAGE_SIZE as u64 + 5), b"w"),
            1
        );
        for (i, page) in before.pages.iter().enumerate() {
            let want = if i == 2 { 1 } else { 2 };
            assert_eq!(phys.refcount(page.frame), want, "page {i}");
        }
        assert_eq!(phys.frames_in_use(), 5);
    }

    #[test]
    fn pin_of_a_whole_mapping_yields_its_frames_in_order() {
        let (mut phys, mut asp) = setup();
        asp.map_fresh(&mut phys, PAGE_SIZE, false);
        let va = asp.map_fresh(&mut phys, 64 * PAGE_SIZE, true);
        let pin = asp.pin(&mut phys, va, 64 * PAGE_SIZE);
        let frames: Vec<FrameId> = pin.pages.iter().map(|p| p.frame).collect();
        assert_eq!(
            frames,
            asp.maps[&va.vpn()]
                .iter()
                .map(|e| e.frame)
                .collect::<Vec<_>>()
        );
        let one_by_one: Vec<FrameId> = (0..64u64)
            .map(|i| asp.pin(&mut phys, va.add(i * PAGE_SIZE as u64), 1).pages[0].frame)
            .collect();
        assert_eq!(frames, one_by_one);
    }

    #[test]
    fn untouched_frames_read_as_zeros_without_host_memory() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, 2 * PAGE_SIZE, false);
        let pin = asp.pin(&mut phys, va.add(100), PAGE_SIZE);
        let out = asp.read(&phys, va, 2 * PAGE_SIZE);
        assert!(out.iter().all(|&b| b == 0));
        assert_eq!(phys.frame_bytes(pin.pages[1].frame, 10, 64), [0; 64]);
        assert_eq!(dma_read(&phys, &pin, 0, PAGE_SIZE), vec![0u8; PAGE_SIZE]);
        assert_eq!(phys.frames_materialized(), 0);
    }

    #[test]
    fn one_byte_write_materializes_one_frame() {
        let (mut phys, mut asp) = setup();
        let va = asp.map_fresh(&mut phys, 1 << 20, false);
        assert_eq!(phys.frames_in_use(), 256);
        assert_eq!(phys.frames_materialized(), 0);
        asp.write(&mut phys, va.add(5 * PAGE_SIZE as u64 + 17), &[9]);
        assert_eq!(phys.frames_materialized(), 1);
        let out = asp.read(&phys, va.add(5 * PAGE_SIZE as u64 + 16), 3);
        assert_eq!(out, [0, 9, 0]);
    }

    #[test]
    fn cow_of_an_untouched_frame_stays_independent() {
        for parent_writes in [true, false] {
            let (mut phys, mut asp) = setup();
            let va = asp.map_fresh(&mut phys, PAGE_SIZE, false);
            let mut child = asp.fork(&mut phys);
            let (writer, reader) = if parent_writes {
                (&mut asp, &child)
            } else {
                (&mut child, &asp)
            };
            assert_eq!(writer.write(&mut phys, va, b"mine"), 1);
            assert_eq!(phys.frames_in_use(), 2);
            assert_eq!(phys.frames_materialized(), 1);
            assert_eq!(
                reader.read(&phys, va, 4),
                [0; 4],
                "the other side still sees zeros"
            );
            assert_eq!(writer.read(&phys, va, 4), b"mine");
        }
    }
}
