//! Ready-made experiment platforms mirroring the paper's testbed: two
//! Pentium III-500 Linux hosts, connected by Giganet cLAN1000 (back to
//! back) or Fast Ethernet.
//!
//! Three configurations cover every experiment:
//!
//! * [`sovia_pair`] — cLAN + SOVIA (`SOCK_VIA`);
//! * [`tcp_ethernet_pair`] — Fast Ethernet + kernel TCP (`SOCK_STREAM`);
//! * [`clan_dual_stack`] — cLAN with **both** the LANE kernel TCP path
//!   and SOVIA registered (the full platform of Section 5).

use dsim::{SimCtx, SimHandle, Simulation};
use simnic::{
    clan1000_nic, clan_link, fast_ethernet_link, fast_ethernet_nic, EthPort, FaultHandle,
    FaultPlan,
};
use simos::{HostCosts, HostId, Machine, Process};
use sovia::{register_sovia, SoviaConfig};
use tcpip::{EthDevice, LaneDevice, TcpCosts, TcpProvider, TcpStack};
use via::{ViaNic, ViaNicId};

/// Two hosts wired with cLAN only (native VIA experiments); every cLAN
/// platform starts from it.
pub fn clan_pair(h: &SimHandle) -> (Machine, Machine) {
    let m0 = Machine::new(h, HostId(0), "m0", HostCosts::pentium3_500());
    let m1 = Machine::new(h, HostId(1), "m1", HostCosts::pentium3_500());
    let n0 = ViaNic::attach(&m0, ViaNicId(0), clan1000_nic());
    let n1 = ViaNic::attach(&m1, ViaNicId(1), clan1000_nic());
    ViaNic::connect_pair(&n0, &n1, clan_link());
    (m0, m1)
}

/// Two hosts wired with cLAN and SOVIA registered for `SOCK_VIA`.
pub fn sovia_pair(h: &SimHandle, config: SoviaConfig) -> (Machine, Machine) {
    let (m0, m1) = clan_pair(h);
    register_sovia(&m0, config.clone());
    register_sovia(&m1, config);
    (m0, m1)
}

/// [`sovia_pair`] with per-NIC fault plans installed on the VIA NICs
/// (`plan0` faults frames/descriptors arriving at or posted on `m0`'s
/// NIC; `plan1` likewise for `m1`). Empty plans install nothing and the
/// platform is bit-identical to [`sovia_pair`].
pub fn sovia_pair_with_faults(
    h: &SimHandle,
    config: SoviaConfig,
    plan0: &FaultPlan,
    plan1: &FaultPlan,
) -> (Machine, Machine, FaultHandle, FaultHandle) {
    let (m0, m1) = clan_pair(h);
    let f0 = ViaNic::of(&m0).install_faults(plan0);
    let f1 = ViaNic::of(&m1).install_faults(plan1);
    register_sovia(&m0, config.clone());
    register_sovia(&m1, config);
    (m0, m1, f0, f1)
}

/// Two hosts over Fast Ethernet with kernel TCP for `SOCK_STREAM`.
pub fn tcp_ethernet_pair(h: &SimHandle) -> (Machine, Machine) {
    let empty = FaultPlan::empty();
    let (m0, m1, ..) = tcp_ethernet_pair_with_faults(h, &empty, &empty);
    (m0, m1)
}

/// [`tcp_ethernet_pair`] with lossy wire directions: `plan01` faults
/// frames travelling `m0 → m1`, `plan10` the reverse path. Empty plans
/// degrade to the plain fault-free link.
pub fn tcp_ethernet_pair_with_faults(
    h: &SimHandle,
    plan01: &FaultPlan,
    plan10: &FaultPlan,
) -> (Machine, Machine, FaultHandle, FaultHandle) {
    let m0 = Machine::new(h, HostId(0), "m0", HostCosts::pentium3_500());
    let m1 = Machine::new(h, HostId(1), "m1", HostCosts::pentium3_500());
    let e0 = EthPort::new(h, HostId(0), fast_ethernet_nic(), fast_ethernet_link());
    let e1 = EthPort::new(h, HostId(1), fast_ethernet_nic(), fast_ethernet_link());
    let (f01, f10) = EthPort::connect_with_faults(h, &e0, &e1, plan01, plan10);
    TcpStack::install(&m0, EthDevice::new(e0), TcpCosts::linux22());
    TcpStack::install(&m1, EthDevice::new(e1), TcpCosts::linux22());
    TcpProvider::register(&m0);
    TcpProvider::register(&m1);
    (m0, m1, f01, f10)
}

/// Two cLAN hosts with both `SOCK_STREAM` (TCP over the LANE driver) and
/// `SOCK_VIA` (SOVIA). LANE setup needs a simulation context, so the
/// continuation `f` runs inside a bootstrap process once the platform is
/// up.
pub fn clan_dual_stack(
    sim: &Simulation,
    config: SoviaConfig,
    f: impl FnOnce(&SimCtx, Machine, Machine) + Send + 'static,
) {
    let (m0, m1) = sovia_pair(&sim.handle(), config);
    sim.spawn("bootstrap", move |ctx| {
        let d0 = LaneDevice::new(ctx, &m0);
        let d1 = LaneDevice::new(ctx, &m1);
        LaneDevice::connect_pair(ctx, &d0, &d1).expect("LANE link setup failed");
        TcpStack::install(&m0, d0, TcpCosts::linux22());
        TcpStack::install(&m1, d1, TcpCosts::linux22());
        TcpProvider::register(&m0);
        TcpProvider::register(&m1);
        f(ctx, m0, m1);
    });
}

/// `n` hosts, all pairs wired with cLAN links, SOVIA registered on each.
pub fn sovia_cluster(h: &SimHandle, n: u32, config: SoviaConfig) -> Vec<Machine> {
    let machines: Vec<Machine> = (0..n)
        .map(|i| Machine::new(h, HostId(i), format!("m{i}"), HostCosts::pentium3_500()))
        .collect();
    let nics: Vec<_> = machines
        .iter()
        .enumerate()
        .map(|(i, m)| ViaNic::attach(m, ViaNicId(i as u32), clan1000_nic()))
        .collect();
    for i in 0..n as usize {
        for j in (i + 1)..n as usize {
            ViaNic::connect_pair(&nics[i], &nics[j], clan_link());
        }
    }
    for m in &machines {
        register_sovia(m, config.clone());
    }
    machines
}

/// A process on each machine: `(client on m0, server on m1)`.
pub fn procs(m0: &Machine, m1: &Machine) -> (Process, Process) {
    (m0.spawn_process("client"), m1.spawn_process("server"))
}
