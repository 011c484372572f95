//! A simulated host machine.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Weak};

use dsim::SimHandle;
use parking_lot::{Mutex, MutexGuard};

use crate::costs::HostCosts;
use crate::ext::Extensions;
use crate::fs::Ramdisk;
use crate::mem::PhysMem;
use crate::process::{Process, ProcessInner};

/// Host identifier — doubles as the "IP address" in the sockets layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

pub(crate) struct MachineInner {
    pub(crate) id: HostId,
    pub(crate) name: String,
    pub(crate) sim: SimHandle,
    pub(crate) costs: HostCosts,
    pub(crate) phys: Mutex<PhysMem>,
    pub(crate) fs: Ramdisk,
    pub(crate) ext: Extensions,
    pub(crate) next_pid: AtomicU32,
}

/// A simulated host: physical memory, a filesystem, a cost model, and the
/// per-machine extension map where NICs, kernel agents, and protocol stacks
/// register themselves.
#[derive(Clone)]
pub struct Machine {
    pub(crate) inner: Arc<MachineInner>,
}

impl Machine {
    /// Create a machine. Dropping `sim`'s `Simulation` clears its
    /// extension map, which frees the machine once the caller's handles
    /// are gone (the NICs and stacks registered there point back at it).
    pub fn new(sim: &SimHandle, id: HostId, name: impl Into<String>, costs: HostCosts) -> Machine {
        let machine = Machine {
            inner: Arc::new(MachineInner {
                id,
                name: name.into(),
                sim: sim.clone(),
                costs,
                phys: Mutex::new(PhysMem::new()),
                fs: Ramdisk::new(),
                ext: Extensions::new(),
                next_pid: AtomicU32::new(1),
            }),
        };
        let weak = machine.downgrade();
        sim.on_teardown(move || {
            if let Some(m) = weak.upgrade() {
                m.ext().clear();
            }
        });
        machine
    }

    /// A handle that does not keep the machine alive.
    pub fn downgrade(&self) -> WeakMachine {
        WeakMachine(Arc::downgrade(&self.inner))
    }

    /// Host id.
    pub fn id(&self) -> HostId {
        self.inner.id
    }

    /// Host name (diagnostics).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The simulation this machine lives in.
    pub fn sim(&self) -> &SimHandle {
        &self.inner.sim
    }

    /// This machine's CPU cost model.
    pub fn costs(&self) -> &HostCosts {
        &self.inner.costs
    }

    /// Lock the physical memory (NIC DMA and the kernel agent use this).
    pub fn phys(&self) -> MutexGuard<'_, PhysMem> {
        self.inner.phys.lock()
    }

    /// The ramdisk filesystem.
    pub fn fs(&self) -> &Ramdisk {
        &self.inner.fs
    }

    /// Per-machine extensions (kernel agent, TCP stack, NIC bindings, ...).
    pub fn ext(&self) -> &Extensions {
        &self.inner.ext
    }

    /// Create a fresh process on this machine (the "init"-spawned case; use
    /// [`Process::fork`] to model fork semantics).
    pub fn spawn_process(&self, name: impl Into<String>) -> Process {
        let pid = self.alloc_pid();
        Process::new(ProcessInner::new(self.clone(), pid, name.into()))
    }

    pub(crate) fn alloc_pid(&self) -> u32 {
        self.inner.next_pid.fetch_add(1, Ordering::Relaxed)
    }
}

/// A weak reference to a [`Machine`] (see [`Machine::downgrade`]).
#[derive(Clone)]
pub struct WeakMachine(Weak<MachineInner>);

impl WeakMachine {
    /// The machine, if it is still alive.
    pub fn upgrade(&self) -> Option<Machine> {
        self.0.upgrade().map(|inner| Machine { inner })
    }
}
