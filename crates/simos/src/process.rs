//! Simulated processes: address space, descriptor table, fork.

use std::sync::Arc;

use dsim::SimCtx;
use parking_lot::Mutex;

use crate::costs::HostCosts;
use crate::cpu::KernelCpu;
use crate::error::{OsError, OsResult};
use crate::ext::Extensions;
use crate::fs::{FileHandle, OpenMode};
use crate::machine::Machine;
use crate::mem::{
    charge_cow_faults, dma_read, dma_write, unpin, AddressSpace, PinnedRegion, VAddr, PAGE_SIZE,
};
use crate::pipe::Pipe;

/// A file descriptor number.
pub type Fd = i32;

/// What a descriptor refers to.
#[derive(Clone)]
pub enum FdEntry {
    /// `/dev/null`-style placeholder (the paper's trick: SOVIA sockets hold
    /// a dummy fd so the number is a real, kernel-allocated descriptor).
    Null,
    /// An open ramdisk file.
    File(Arc<FileHandle>),
    /// Read end of a pipe.
    PipeRead(Arc<Pipe>),
    /// Write end of a pipe.
    PipeWrite(Arc<Pipe>),
}

#[derive(Default)]
pub(crate) struct FdTable {
    entries: Vec<Option<FdEntry>>,
}

impl FdTable {
    fn insert(&mut self, entry: FdEntry) -> Fd {
        for (i, slot) in self.entries.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(entry);
                return i as Fd;
            }
        }
        self.entries.push(Some(entry));
        (self.entries.len() - 1) as Fd
    }

    fn get(&self, fd: Fd) -> OsResult<FdEntry> {
        if fd < 0 {
            return Err(OsError::BadFd);
        }
        self.entries
            .get(fd as usize)
            .and_then(|e| e.clone())
            .ok_or(OsError::BadFd)
    }

    fn remove(&mut self, fd: Fd) -> OsResult<FdEntry> {
        if fd < 0 {
            return Err(OsError::BadFd);
        }
        self.entries
            .get_mut(fd as usize)
            .and_then(|e| e.take())
            .ok_or(OsError::BadFd)
    }

    /// Duplicate for fork: pipe ends gain a reference.
    fn fork_clone(&self) -> FdTable {
        let entries = self
            .entries
            .iter()
            .map(|slot| {
                slot.as_ref().map(|e| {
                    match e {
                        FdEntry::PipeRead(p) => p.add_reader(),
                        FdEntry::PipeWrite(p) => p.add_writer(),
                        _ => {}
                    }
                    e.clone()
                })
            })
            .collect();
        FdTable { entries }
    }
}

pub(crate) struct ProcessInner {
    pub(crate) machine: Machine,
    pub(crate) pid: u32,
    pub(crate) name: String,
    pub(crate) aspace: Mutex<AddressSpace>,
    pub(crate) fds: Mutex<FdTable>,
    pub(crate) ext: Extensions,
}

impl ProcessInner {
    pub(crate) fn new(machine: Machine, pid: u32, name: String) -> ProcessInner {
        ProcessInner {
            machine,
            pid,
            name,
            aspace: Mutex::new(AddressSpace::new()),
            fds: Mutex::new(FdTable::default()),
            ext: Extensions::new(),
        }
    }
}

/// A simulated process. Clones share the same process (like sharing a
/// handle between its threads).
#[derive(Clone)]
pub struct Process {
    pub(crate) inner: Arc<ProcessInner>,
}

impl Process {
    /// Wrap `inner`, clearing its extension map when the simulation is
    /// dropped (the sockets table and the SOVIA instance there point back
    /// at the process).
    pub(crate) fn new(inner: ProcessInner) -> Process {
        let inner = Arc::new(inner);
        let weak = Arc::downgrade(&inner);
        inner.machine.sim().on_teardown(move || {
            if let Some(p) = weak.upgrade() {
                p.ext.clear();
            }
        });
        Process { inner }
    }

    /// The machine this process runs on.
    pub fn machine(&self) -> &Machine {
        &self.inner.machine
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.inner.pid
    }

    /// Process name (diagnostics).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Host cost model shorthand.
    pub fn costs(&self) -> &HostCosts {
        self.inner.machine.costs()
    }

    /// Per-process extensions (the sockets table, the SOVIA instance, ...).
    pub fn ext(&self) -> &Extensions {
        &self.inner.ext
    }

    // ----- memory ---------------------------------------------------------

    /// Allocate `len` bytes of private memory (paged, zeroed).
    pub fn alloc(&self, ctx: &SimCtx, len: usize) -> VAddr {
        self.alloc_inner(ctx, len, false)
    }

    /// Allocate `len` bytes in a **shared segment**: pages survive fork
    /// without COW — the paper's fix for registered buffers (Section 4.3).
    pub fn alloc_shared(&self, ctx: &SimCtx, len: usize) -> VAddr {
        self.alloc_inner(ctx, len, true)
    }

    fn alloc_inner(&self, ctx: &SimCtx, len: usize, shared: bool) -> VAddr {
        let pages = len.div_ceil(PAGE_SIZE) as u64;
        ctx.sleep(self.costs().page_alloc * pages);
        let mut phys = self.inner.machine.phys();
        self.inner.aspace.lock().map_fresh(&mut phys, len, shared)
    }

    /// Unmap a region returned by `alloc`/`alloc_shared`.
    pub fn free(&self, va: VAddr, len: usize) {
        let mut phys = self.inner.machine.phys();
        self.inner.aspace.lock().unmap(&mut phys, va, len);
    }

    /// Read memory (no CPU cost charged — use [`Process::copy_mem`] to model
    /// an actual data copy).
    pub fn read_mem(&self, va: VAddr, len: usize) -> Vec<u8> {
        let phys = self.inner.machine.phys();
        self.inner.aspace.lock().read(&phys, va, len)
    }

    /// Write memory; charges COW fault costs if sharing must be broken, but
    /// not a memcpy (the data had to exist somewhere anyway).
    pub fn write_mem(&self, ctx: &SimCtx, va: VAddr, data: &[u8]) {
        charge_cow_faults(ctx, self.costs(), self.store_mem(va, data));
    }

    /// [`Process::write_mem`] without the charge: returns the COW faults
    /// taken, for a caller that must not advance time here (it holds a
    /// lock) to charge with [`charge_cow_faults`] later.
    pub fn store_mem(&self, va: VAddr, data: &[u8]) -> usize {
        let mut phys = self.inner.machine.phys();
        self.inner.aspace.lock().write(&mut phys, va, data)
    }

    /// Memory-to-memory copy within this process, charging the memcpy cost
    /// (SOVIA's sender-side buffering / receive-side delivery copies).
    pub fn copy_mem(&self, ctx: &SimCtx, src: VAddr, dst: VAddr, len: usize) {
        let data = self.read_mem(src, len);
        ctx.sleep(self.costs().memcpy(len));
        self.write_mem(ctx, dst, &data);
    }

    /// Translate-and-pin for DMA (the kernel agent side of memory
    /// registration). Cost is charged by the caller (the VIPL), because the
    /// paper's registration cost covers more than the pin.
    pub fn pin(&self, va: VAddr, len: usize) -> PinnedRegion {
        let mut phys = self.inner.machine.phys();
        self.inner.aspace.lock().pin(&mut phys, va, len)
    }

    /// Release a pinned region.
    pub fn unpin(&self, region: &PinnedRegion) {
        let mut phys = self.inner.machine.phys();
        unpin(&mut phys, region);
    }

    /// DMA read from a pinned region (sending NIC). No CPU cost — the NIC
    /// charges its own DMA time.
    pub fn dma_read(&self, region: &PinnedRegion, offset: usize, len: usize) -> Vec<u8> {
        let phys = self.inner.machine.phys();
        dma_read(&phys, region, offset, len)
    }

    /// DMA write into a pinned region (receiving NIC).
    pub fn dma_write(&self, region: &PinnedRegion, offset: usize, data: &[u8]) {
        let mut phys = self.inner.machine.phys();
        dma_write(&mut phys, region, offset, data);
    }

    // ----- fork -----------------------------------------------------------

    /// Fork this process. The child's main thread runs `child_main` with a
    /// fresh [`SimCtx`] and the child [`Process`]. Returns the child.
    ///
    /// Address-space semantics follow Linux: private pages become COW-shared
    /// in parent and child; shared segments stay shared. The descriptor
    /// table is duplicated (pipe ends refcounted, file offsets shared). The
    /// extension map is shared — modeling library state that both sides keep
    /// reaching through the same memory.
    pub fn fork<F>(&self, ctx: &SimCtx, child_name: impl Into<String>, child_main: F) -> Process
    where
        F: FnOnce(&SimCtx, Process) + Send + 'static,
    {
        let pages = self.inner.aspace.lock().mapped_pages();
        ctx.sleep(self.costs().fork_base + self.costs().fork_per_page * pages as u64);

        let child_aspace = {
            let mut phys = self.inner.machine.phys();
            self.inner.aspace.lock().fork(&mut phys)
        };
        let child = Process::new(ProcessInner {
            machine: self.inner.machine.clone(),
            pid: self.inner.machine.alloc_pid(),
            name: child_name.into(),
            aspace: Mutex::new(child_aspace),
            fds: Mutex::new(self.inner.fds.lock().fork_clone()),
            ext: self.inner.ext.clone_shared(),
        });
        let child_handle = child.clone();
        let label = format!("{}#{}", child.inner.name, child.inner.pid);
        ctx.handle().spawn(label, move |cctx| {
            child_main(cctx, child_handle);
        });
        child
    }

    // ----- descriptors ----------------------------------------------------

    /// Open a dummy descriptor (`open("/dev/null")` in the paper) so a
    /// SOVIA socket occupies a real fd number.
    pub fn open_dummy(&self, ctx: &SimCtx) -> Fd {
        ctx.sleep(self.costs().syscall + self.costs().file_op);
        self.inner.fds.lock().insert(FdEntry::Null)
    }

    /// Open a ramdisk file.
    pub fn open(&self, ctx: &SimCtx, path: &str, mode: OpenMode) -> OsResult<Fd> {
        ctx.sleep(self.costs().syscall + self.costs().file_op);
        let handle = self.inner.machine.fs().open(path, mode)?;
        Ok(self.inner.fds.lock().insert(FdEntry::File(handle)))
    }

    /// Create a pipe; returns `(read_fd, write_fd)`.
    pub fn pipe(&self, ctx: &SimCtx) -> (Fd, Fd) {
        ctx.sleep(self.costs().syscall + self.costs().pipe_op);
        let pipe = Pipe::new(self.inner.machine.sim());
        let mut fds = self.inner.fds.lock();
        let r = fds.insert(FdEntry::PipeRead(Arc::clone(&pipe)));
        let w = fds.insert(FdEntry::PipeWrite(pipe));
        (r, w)
    }

    /// `read(2)`: up to `max` bytes; empty vec means EOF.
    pub fn read(&self, ctx: &SimCtx, fd: Fd, max: usize) -> OsResult<Vec<u8>> {
        let entry = self.inner.fds.lock().get(fd)?;
        ctx.sleep(self.costs().syscall);
        match entry {
            FdEntry::Null => Ok(Vec::new()),
            FdEntry::File(f) => {
                let data = f.read(max)?;
                // Page-cache work happens in the kernel, on the one CPU.
                KernelCpu::of(self.machine()).sleep(ctx, self.costs().ramdisk_read(data.len()));
                Ok(data)
            }
            FdEntry::PipeRead(p) => p.read(ctx, self.costs(), max),
            FdEntry::PipeWrite(_) => Err(OsError::PermissionDenied),
        }
    }

    /// `write(2)`.
    pub fn write(&self, ctx: &SimCtx, fd: Fd, data: &[u8]) -> OsResult<usize> {
        let entry = self.inner.fds.lock().get(fd)?;
        ctx.sleep(self.costs().syscall);
        match entry {
            FdEntry::Null => Ok(data.len()),
            FdEntry::File(f) => {
                let n = f.write(data)?;
                KernelCpu::of(self.machine()).sleep(ctx, self.costs().ramdisk_write(n));
                Ok(n)
            }
            FdEntry::PipeWrite(p) => p.write(ctx, self.costs(), data),
            FdEntry::PipeRead(_) => Err(OsError::PermissionDenied),
        }
    }

    /// `close(2)`. Pipe ends decrement their refcounts.
    pub fn close(&self, ctx: &SimCtx, fd: Fd) -> OsResult<()> {
        ctx.sleep(self.costs().syscall);
        let entry = self.inner.fds.lock().remove(fd)?;
        match entry {
            FdEntry::PipeRead(p) => p.drop_reader(),
            FdEntry::PipeWrite(p) => p.drop_writer(),
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::HostId;
    use dsim::{SimDuration, Simulation};

    fn machine(sim: &dsim::SimHandle) -> Machine {
        Machine::new(sim, HostId(0), "m0", HostCosts::free())
    }

    #[test]
    fn dummy_fd_allocation() {
        let mut sim = Simulation::new();
        let m = machine(&sim.handle());
        let p = m.spawn_process("p");
        sim.spawn("main", move |ctx| {
            let fd1 = p.open_dummy(ctx);
            let fd2 = p.open_dummy(ctx);
            assert_ne!(fd1, fd2);
            // Reads on a dummy yield EOF, writes are swallowed.
            assert_eq!(p.read(ctx, fd1, 10).unwrap(), b"");
            assert_eq!(p.write(ctx, fd1, b"xyz").unwrap(), 3);
            p.close(ctx, fd1).unwrap();
            // Closed fd errors; slot is reused.
            assert_eq!(p.read(ctx, fd1, 1).err(), Some(OsError::BadFd));
            let fd3 = p.open_dummy(ctx);
            assert_eq!(fd3, fd1);
        });
        sim.run().unwrap();
    }

    #[test]
    fn file_io_through_fds() {
        let mut sim = Simulation::new();
        let m = machine(&sim.handle());
        let p = m.spawn_process("p");
        let m2 = m.clone();
        sim.spawn("main", move |ctx| {
            let fd = p.open(ctx, "out.bin", OpenMode::Write).unwrap();
            p.write(ctx, fd, b"abc").unwrap();
            p.write(ctx, fd, b"def").unwrap();
            p.close(ctx, fd).unwrap();
            assert_eq!(m2.fs().contents("out.bin").unwrap(), b"abcdef");

            let fd = p.open(ctx, "out.bin", OpenMode::Read).unwrap();
            assert_eq!(p.read(ctx, fd, 4).unwrap(), b"abcd");
            assert_eq!(p.read(ctx, fd, 4).unwrap(), b"ef");
            assert_eq!(p.read(ctx, fd, 4).unwrap(), b"");
            p.close(ctx, fd).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn fork_ls_pipe_pattern() {
        // The FTP server's "dir" flow: fork a child, child writes a listing
        // into a pipe, parent reads until EOF.
        let mut sim = Simulation::new();
        let m = machine(&sim.handle());
        m.fs().add_file("pub/readme", vec![0; 100]);
        m.fs().add_file("pub/data", vec![0; 2000]);
        let p = m.spawn_process("ftpd");
        let out = Arc::new(Mutex::new(String::new()));
        let out2 = Arc::clone(&out);
        sim.spawn("main", move |ctx| {
            let (r, w) = p.pipe(ctx);
            p.fork(ctx, "ls-child", move |cctx, child| {
                // Child: close its read end, write listing, close write end.
                child.close(cctx, r).unwrap();
                let listing: String = child
                    .machine()
                    .fs()
                    .list("pub/")
                    .iter()
                    .map(|(p, len)| format!("{p} {len}\n"))
                    .collect();
                child.write(cctx, w, listing.as_bytes()).unwrap();
                child.close(cctx, w).unwrap();
            });
            // Parent: close its write end, read until EOF.
            p.close(ctx, w).unwrap();
            loop {
                let chunk = p.read(ctx, r, 64).unwrap();
                if chunk.is_empty() {
                    break;
                }
                out2.lock().push_str(std::str::from_utf8(&chunk).unwrap());
            }
            p.close(ctx, r).unwrap();
        });
        sim.run().unwrap();
        assert_eq!(out.lock().as_str(), "pub/data 2000\npub/readme 100\n");
    }

    #[test]
    fn fork_cow_isolates_private_memory() {
        let mut sim = Simulation::new();
        let m = machine(&sim.handle());
        let p = m.spawn_process("parent");
        let done = Arc::new(Mutex::new(0u32));
        let done2 = Arc::clone(&done);
        sim.spawn("main", move |ctx| {
            let va = p.alloc(ctx, 100);
            p.write_mem(ctx, va, b"parent data");
            let done3 = Arc::clone(&done2);
            p.fork(ctx, "child", move |cctx, child| {
                // Child sees parent's data, then diverges privately.
                assert_eq!(child.read_mem(va, 11), b"parent data");
                child.write_mem(cctx, va, b"child  data");
                assert_eq!(child.read_mem(va, 11), b"child  data");
                *done3.lock() += 1;
            });
            ctx.sleep(SimDuration::from_millis(1));
            assert_eq!(p.read_mem(va, 11), b"parent data");
            *done2.lock() += 1;
        });
        sim.run().unwrap();
        assert_eq!(*done.lock(), 2);
    }

    #[test]
    fn charged_costs_advance_time() {
        let mut sim = Simulation::new();
        let m = Machine::new(
            &sim.handle(),
            HostId(0),
            "m0",
            HostCosts::pentium3_500(),
        );
        let p = m.spawn_process("p");
        let elapsed = Arc::new(Mutex::new(0u64));
        let e2 = Arc::clone(&elapsed);
        sim.spawn("main", move |ctx| {
            let t0 = ctx.now();
            let fd = p.open_dummy(ctx);
            p.close(ctx, fd).unwrap();
            *e2.lock() = ctx.now().since(t0).as_nanos();
        });
        sim.run().unwrap();
        // open: syscall+file_op, close: syscall => 1.8+5.0+1.8 us.
        assert_eq!(*elapsed.lock(), 8_600);
    }
}
