//! Stackful coroutines: the execution vehicle of simulation processes,
//! and the only `unsafe` code in dsim.
//!
//! Every process of a simulation runs on the OS thread that called
//! `Simulation::run`, each on a stack of its own. The scheduler's dispatch
//! loop [`Coroutine::resume`]s the process an event targets; the process
//! runs until it parks, which [`suspend`]s it back to the loop. A switch is
//! a handful of register moves in user space, so a simulated context switch
//! costs nanoseconds of host time instead of an OS futex round trip.
//!
//! Stacks are [`STACK_SIZE`] bytes, `mmap`'d with `MAP_NORESERVE` and never
//! pre-touched, so the kernel commits only the pages a process actually
//! uses. Below each stack sits a `PROT_NONE` guard page (a deep overflow
//! faults instead of corrupting a neighbour), and the lowest usable word
//! holds a canary that every switch checks, so an overflow that stopped
//! short of the guard page becomes a typed [`Resumed::Overflowed`] rather
//! than silent memory corruption.
//!
//! A coroutine that finishes (returns, panics, or is unwound by teardown:
//! [`crate::sched`] says which processes return at teardown and which are
//! unwound) leaves its stack, pages still committed, in a cache of its OS
//! thread, where the next coroutine, of this simulation or a later one,
//! takes it before mapping a fresh one. Returning is the cheap way out: an
//! unwind walks the stack twice in the DWARF unwinder. The cache holds at
//! most [`CACHE_CAP`] stacks (8 KiB committed for a short process; 2 MiB
//! at most) until the thread exits. An overflowed stack is unmapped, never cached; a
//! coroutine dropped unfinished leaks its stack, live frames and all.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ffi::c_void;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;

#[cfg(not(target_arch = "x86_64"))]
compile_error!(
    "dsim::coro: no context switch for this architecture — only the x86_64 `switch` routine \
     exists (an aarch64 twin is not written yet), and there is no OS-thread fallback"
);

#[cfg(not(target_os = "linux"))]
compile_error!(
    "dsim::coro: process stacks are mapped with Linux mmap flags; only Linux is supported"
);

/// Usable bytes per coroutine stack: the default Rust thread stack size,
/// which the protocol code's stack depth is known to fit.
pub(crate) const STACK_SIZE: usize = 2 << 20;
/// Stacks cached per OS thread: a perfbench simulation runs about a dozen
/// processes, and a run of thousands should not leave thousands of
/// committed stacks behind.
const CACHE_CAP: usize = 64;
/// The x86_64 base page size: the guard page below each stack.
const PAGE: usize = 4096;
/// Written to the lowest usable word of every stack.
const CANARY: u64 = 0xC0DE_57AC_CA4A_A7E5;
/// Initial MXCSR (all exceptions masked, round-to-nearest) and x87 control
/// word (extended precision, all exceptions masked), packed the way
/// `switch` stores them: MXCSR in the low four bytes, FPCW in the next two.
const INITIAL_CSR: u64 = 0x037F << 32 | 0x1F80;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// One coroutine stack: a guard page followed by [`STACK_SIZE`] usable
/// bytes, growing down from [`Stack::top`]. Dropping it leaks the mapping;
/// [`Stack::unmap`] or [`recycle`] release it.
struct Stack {
    /// Start of the mapping (the guard page).
    base: *mut u8,
}

/// This thread's cached stacks, most recently finished last.
struct StackCache(Vec<Stack>);

impl Drop for StackCache {
    fn drop(&mut self) {
        for stack in self.0.drain(..) {
            stack.unmap();
        }
    }
}

thread_local! {
    static CACHE: RefCell<StackCache> = const { RefCell::new(StackCache(Vec::new())) };
}

#[cfg(test)]
thread_local! {
    static FRESH_MAPS: Cell<u64> = const { Cell::new(0) };
}

/// Test hook: stacks this thread has mapped so far (cache misses).
#[cfg(test)]
pub(crate) fn fresh_maps() -> u64 {
    FRESH_MAPS.with(Cell::get)
}

/// Cache a finished coroutine's stack (intact canary, no live frames), or
/// unmap it if the cache is full or the thread is exiting.
fn recycle(stack: Stack) {
    match CACHE.try_with(|cache| cache.borrow().0.len() < CACHE_CAP) {
        Ok(true) => CACHE.with(|cache| cache.borrow_mut().0.push(stack)),
        _ => stack.unmap(),
    }
}

impl Stack {
    /// Map a fresh stack. Only the guard page's protection and the canary
    /// word are touched; everything else is committed on first use.
    fn new() -> io::Result<Stack> {
        #[cfg(test)]
        FRESH_MAPS.with(|n| n.set(n.get() + 1));
        let len = PAGE + STACK_SIZE;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases no existing memory; the result is checked before use.
        let base = unsafe { mmap(ptr::null_mut(), len, PROT_READ | PROT_WRITE, flags, -1, 0) };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `base` starts a mapping of `len >= PAGE` bytes that we own.
        if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: unmapping the region mapped just above.
            unsafe { munmap(base, len) };
            return Err(err);
        }
        let stack = Stack { base: base.cast() };
        // SAFETY: the canary word lies inside the writable part of the
        // mapping, and is 8-byte aligned (page start).
        unsafe { stack.canary().write(CANARY) };
        Ok(stack)
    }

    /// One past the highest usable byte (16-byte aligned).
    fn top(&self) -> usize {
        self.base as usize + PAGE + STACK_SIZE
    }

    /// The lowest usable word: the first one an overflow clobbers.
    fn canary(&self) -> *mut u64 {
        self.base.wrapping_add(PAGE).cast()
    }

    fn canary_intact(&self) -> bool {
        // SAFETY: the canary word is mapped, aligned and readable for the
        // stack's whole life.
        unsafe { self.canary().read_volatile() == CANARY }
    }

    /// Return the stack to the kernel. No frame may still be running on
    /// it; abandoned frames of a dead coroutine are fine (nothing outside
    /// a coroutine can hold a borrow into its stack).
    fn unmap(self) {
        // SAFETY: `base` is the start of a `PAGE + STACK_SIZE` mapping owned
        // by this value, which is consumed here.
        unsafe { munmap(self.base.cast(), PAGE + STACK_SIZE) };
    }
}

/// How a coroutine's body ended: `Err` carries a panic payload.
pub(crate) type Outcome = Result<(), Box<dyn Any + Send>>;

/// Why [`Coroutine::resume`] returned.
pub(crate) enum Resumed {
    /// The body called [`suspend`]; resume the coroutine again later.
    Suspended(Coroutine),
    /// The body returned (`Ok`) or panicked (`Err` with the payload). Its
    /// stack went back to this thread's cache (see [`recycle`]).
    Finished(Outcome),
    /// The stack canary was overwritten: the body overflowed its stack. It
    /// can never run again; its stack has been unmapped.
    Overflowed,
}

/// A body with its own stack, suspended at its last [`suspend`] (or not
/// yet started).
pub(crate) struct Coroutine {
    inner: Box<Inner>,
}

struct Inner {
    /// The coroutine's saved stack pointer while it is suspended.
    sp: usize,
    /// The resumer's saved stack pointer while the coroutine runs.
    caller_sp: usize,
    /// The value the latest `resume` passed in, returned by `suspend`.
    arg: usize,
    stack: Stack,
    body: Option<Box<dyn FnOnce()>>,
    /// Set by `entry` just before its final switch.
    outcome: Option<Outcome>,
}

thread_local! {
    /// The coroutine running on this thread (null on a plain thread stack).
    static CURRENT: Cell<*mut Inner> = const { Cell::new(ptr::null_mut()) };
}

impl Coroutine {
    /// Prepare `body` to run on this thread's last cached stack, else a
    /// fresh one; nothing runs until the first [`Coroutine::resume`], which
    /// checks the canary like every resume.
    pub(crate) fn new(body: Box<dyn FnOnce()>) -> io::Result<Coroutine> {
        let stack = match CACHE.try_with(|cache| cache.borrow_mut().0.pop()) {
            Ok(Some(stack)) => stack,
            _ => Stack::new()?,
        };
        let top = stack.top();
        let mut inner = Box::new(Inner {
            sp: 0,
            caller_sp: 0,
            arg: 0,
            stack,
            body: Some(body),
            outcome: None,
        });
        let this: *mut Inner = &mut *inner;
        // The frame `switch` pops on the first resume: saved MXCSR/FPCW,
        // r15, r14, r13, r12 (carrying the `Inner` pointer), rbx, rbp, then
        // `trampoline` as the return address, then a null return address
        // that ends the frame chain for unwinders and backtraces.
        let frame: [usize; 9] = [
            INITIAL_CSR as usize,
            0,
            0,
            0,
            this as usize,
            0,
            0,
            trampoline as *const () as usize,
            0,
        ];
        let sp = top - std::mem::size_of_val(&frame);
        // SAFETY: the nine words lie at the top of the stack's writable
        // region, which nothing else uses yet; `sp` is 8-byte aligned.
        unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp as *mut usize, frame.len()) };
        inner.sp = sp;
        Ok(Coroutine { inner })
    }

    /// Run the coroutine until it suspends or finishes; the [`suspend`]
    /// call it is parked in returns `arg` (the first resume ignores it).
    /// The stack canary is checked on the way in and on the way out.
    pub(crate) fn resume(mut self, arg: usize) -> Resumed {
        let p: *mut Inner = &mut *self.inner;
        // SAFETY: `p` is valid for the whole call (the box is owned by
        // `self`). A coroutine is only ever resumed from its suspended
        // state — `resume` consumes it and hands it back only as
        // `Suspended` — so `sp` holds a frame `switch` saved (or the
        // initial frame built by `new`). While it runs, the coroutine
        // reaches `Inner` only through `CURRENT`, via this same pointer.
        unsafe {
            if !(*p).stack.canary_intact() {
                return self.overflowed();
            }
            (*p).arg = arg;
            let prev = CURRENT.with(|c| c.replace(p));
            switch(ptr::addr_of_mut!((*p).caller_sp), (*p).sp);
            CURRENT.with(|c| c.set(prev));
            if !(*p).stack.canary_intact() {
                return self.overflowed();
            }
            match (*p).outcome.take() {
                None => Resumed::Suspended(self),
                Some(outcome) => {
                    recycle(self.inner.stack);
                    Resumed::Finished(outcome)
                }
            }
        }
    }

    fn overflowed(self) -> Resumed {
        self.inner.stack.unmap();
        Resumed::Overflowed
    }
}

/// Suspend the running coroutine, returning control to the
/// [`Coroutine::resume`] call that entered it. Returns the `arg` of the
/// next resume.
///
/// # Panics
/// If called outside a coroutine.
pub(crate) fn suspend() -> usize {
    let p = CURRENT.with(Cell::get);
    assert!(
        !p.is_null(),
        "suspend() called outside a simulation process"
    );
    // SAFETY: `p` is the running coroutine's `Inner`, kept alive by the
    // `resume` call below us on the resumer's stack; `caller_sp` is the
    // frame `switch` saved when that call entered this coroutine. Once we
    // are resumed, `p` is again the running coroutine.
    unsafe {
        switch(ptr::addr_of_mut!((*p).sp), (*p).caller_sp);
        (*p).arg
    }
}

/// Test hook: overwrite the running coroutine's canary, as an overflow
/// that stopped short of the guard page would.
#[cfg(test)]
pub(crate) fn clobber_canary() {
    let p = CURRENT.with(Cell::get);
    assert!(
        !p.is_null(),
        "clobber_canary() called outside a simulation process"
    );
    // SAFETY: the running coroutine's canary word is mapped and writable.
    unsafe { (*p).stack.canary().write(0) };
}

/// First Rust frame on a coroutine stack (reached from `trampoline`, with a
/// null return address above it). Runs the body under `catch_unwind`,
/// drops everything it owns, and switches away for the last time.
///
/// # Safety
/// Only `trampoline` may call this, on the first resume of the coroutine
/// whose `Inner` is `p`.
unsafe extern "C" fn entry(p: *mut Inner) -> ! {
    {
        // SAFETY: `p` is the `Inner` of the coroutine being resumed (see
        // `Coroutine::resume`); `entry` runs once per coroutine.
        let body = unsafe { (*p).body.take() };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| body.map(|body| body())));
        // SAFETY: as above; the resumer reads `outcome` after we switch.
        unsafe { (*p).outcome = Some(outcome.map(drop)) };
    }
    // Nothing owned by this frame is still alive: the final switch
    // abandons the stack, which the resumer recycles or unmaps.
    // SAFETY: `caller_sp` was saved by the `switch` that resumed us.
    unsafe { switch(ptr::addr_of_mut!((*p).sp), (*p).caller_sp) };
    unreachable!("a finished coroutine was resumed")
}

/// Entered by `switch`'s `ret` on a coroutine's first resume: moves the
/// `Inner` pointer from r12 into the first argument register and jumps
/// (not calls) to `entry`, so `entry` sees the null return address.
///
/// # Safety
/// Never called directly: only reached through the initial frame that
/// `Coroutine::new` builds.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    std::arch::naked_asm!("mov rdi, r12", "jmp {entry}", entry = sym entry)
}

/// Save the callee-saved state (rbx, rbp, r12–r15, MXCSR, x87 control
/// word) on the current stack, store the stack pointer to `*save`, switch
/// to the stack at `load` and restore the state saved there.
///
/// # Safety
/// `save` must be writable, and `load` must be a stack pointer saved by
/// `switch` (or built by `Coroutine::new`) whose stack is still mapped and
/// not running.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut usize, load: usize) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}
