//! One socket program, every platform: the scenario runner of the socket
//! suites.
//!
//! A [`Scenario`] is a list of [`Program`]s, each a list of socket
//! [`Call`]s that one process makes on one host, plus optional fault
//! plans. [`run`] boots a platform (a [`Variant`]), runs every program in its own
//! process, and returns each program's transcript: one [`Ret`] per call
//! (sleeps excepted), in that process's order. The program is written
//! once; the platform is a parameter, so the same socket program runs on
//! kernel TCP and on every SOVIA configuration and the transcripts can be
//! compared.
//!
//! Descriptors are named by [`D`], the order in which a program obtained
//! them (`socket`, `accept` and `open` each add one). [`served`] and
//! [`dialed`] start the usual server (listener [`LISTENER`], connection
//! [`CONN`]) and client (connection [`SOCK`]), and [`serving`] and
//! [`dialing`] give the transcript entries of those first calls.

use std::fmt;
use std::sync::Arc;

pub use bench::micro::Variant;
use dsim::{SimCtx, SimDuration, SimTime, Simulation};
use parking_lot::Mutex;
use simnic::{FaultPlan, FaultStats};
use simos::fs::OpenMode;
use simos::{Fd, HostId, Machine, Process};
use sovia_repro::sockets::{api, Shutdown, SockAddr, SockError, SockOption, SockType};
use sovia_repro::sovia::SoviaConfig;
use sovia_repro::via::ViaNic;

/// The port [`served`] listens on and [`dialed`] connects to.
pub const PORT: u16 = 2020;

/// The eight socket platforms: kernel TCP over Fast Ethernet and over
/// cLAN's LANE driver, then SOVIA over cLAN in each configuration.
/// Failure messages name them by [`Variant::label`].
pub fn platforms() -> Vec<Variant> {
    vec![
        Variant::TcpEth,
        Variant::TcpLane,
        Variant::Sovia(SoviaConfig::single()),
        Variant::Sovia(SoviaConfig::handler()),
        Variant::Sovia(SoviaConfig::reqack()),
        Variant::Sovia(SoviaConfig::flowctrl()),
        Variant::Sovia(SoviaConfig::dacks()),
        Variant::Sovia(SoviaConfig::combine()),
    ]
}

/// The platforms `keep` accepts, in [`platforms`]'s order.
pub fn platforms_where(keep: impl Fn(&Variant) -> bool) -> Vec<Variant> {
    platforms().into_iter().filter(keep).collect()
}

/// The two kernel TCP platforms.
pub fn tcp_platforms() -> Vec<Variant> {
    platforms_where(|v| !matches!(v, Variant::Sovia(_)))
}

/// The six SOVIA platforms: the ones a VIA NIC fault plan applies to.
pub fn sovia_platforms() -> Vec<Variant> {
    platforms_where(|v| matches!(v, Variant::Sovia(_)))
}

/// A descriptor of a program: the `n`-th one it obtained, from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct D(pub usize);

/// The listener of a [`served`] program.
pub const LISTENER: D = D(0);
/// The accepted connection of a [`served`] program.
pub const CONN: D = D(1);
/// The connected socket of a [`dialed`] program.
pub const SOCK: D = D(0);

/// One call of a program. Ports are on the program's own host for
/// `Bind` and on the other host for `Connect`.
#[derive(Debug, Clone)]
pub enum Call {
    /// `socket()` of the platform's socket type.
    Socket,
    /// `bind()` to `port` on the program's host.
    Bind(D, u16),
    /// `listen()` with a backlog of one.
    Listen(D),
    /// `accept()`.
    Accept(D),
    /// `connect()` to `port` on the other host.
    Connect(D, u16),
    /// One `send()`.
    Send(D, Vec<u8>),
    /// `send()` until every byte is taken.
    SendAll(D, Vec<u8>),
    /// One `recv()` of at most the given size.
    Recv(D, usize),
    /// `recv()` until the given number of bytes or EOF.
    RecvExact(D, usize),
    /// `recv()` of at most the given chunk size until EOF.
    RecvToEof(D, usize),
    /// `shutdown(SHUT_WR)`.
    Shutdown(D),
    /// `close()`.
    Close(D),
    /// Let virtual time pass (not recorded in the transcript).
    Sleep(SimDuration),
    /// Descriptor-routed `read()`.
    Read(D, usize),
    /// Descriptor-routed `write()`.
    Write(D, Vec<u8>),
    /// `setsockopt()`.
    SetOption(D, SockOption),
    /// Open a ramdisk file on the program's host.
    Open(&'static str, OpenMode),
}

/// What one call returned.
#[derive(Clone, PartialEq, Eq)]
pub enum Ret {
    /// Success with nothing to report.
    Ok,
    /// A new descriptor (`socket`, `open`).
    Fd(Fd),
    /// `accept`'s connection and the host of its peer.
    Accepted(Fd, HostId),
    /// A byte count (`send`, `write`).
    Len(usize),
    /// The bytes received (`recv` and its loops, `read`); empty is EOF.
    Data(Vec<u8>),
    /// A typed error.
    Err(SockError),
}

impl fmt::Debug for Ret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ret::Ok => f.write_str("Ok"),
            Ret::Fd(fd) => write!(f, "Fd({fd})"),
            Ret::Accepted(fd, host) => write!(f, "Accepted({fd}, {host})"),
            Ret::Len(n) => write!(f, "Len({n})"),
            Ret::Data(d) if d.len() <= 32 => write!(f, "Data({:?})", String::from_utf8_lossy(d)),
            Ret::Data(d) => {
                // Long streams print as their length and an FNV-1a digest.
                write!(f, "Data({} bytes, fnv {:016x})", d.len(), super::fnv1a(d))
            }
            Ret::Err(e) => write!(f, "Err({e:?})"),
        }
    }
}

impl<T: Into<Ret>> From<Result<T, SockError>> for Ret {
    fn from(r: Result<T, SockError>) -> Ret {
        r.map_or_else(Ret::Err, Into::into)
    }
}

impl From<()> for Ret {
    fn from(_: ()) -> Ret {
        Ret::Ok
    }
}

impl From<usize> for Ret {
    fn from(n: usize) -> Ret {
        Ret::Len(n)
    }
}

impl From<Vec<u8>> for Ret {
    fn from(d: Vec<u8>) -> Ret {
        Ret::Data(d)
    }
}

/// `Ret::Data` of `bytes`.
pub fn data(bytes: &[u8]) -> Ret {
    Ret::Data(bytes.to_vec())
}

/// `len` bytes of the deterministic pattern `seed`, from stream offset
/// `off` (`dsim::rng::fill_pattern`).
pub fn pattern(seed: u64, off: usize, len: usize) -> Vec<u8> {
    let mut v = vec![0; len];
    dsim::rng::fill_pattern(seed, off as u64, &mut v);
    v
}

/// The calls of one process.
#[derive(Debug, Clone)]
pub struct Program {
    name: &'static str,
    host: u32,
    calls: Vec<Call>,
}

/// A process named `name` on host `host` (0 or 1) making `calls`.
pub fn program(name: &'static str, host: u32, calls: impl IntoIterator<Item = Call>) -> Program {
    Program {
        name,
        host,
        calls: calls.into_iter().collect(),
    }
}

/// The server on host 1: `socket`, `bind` to [`PORT`], `listen`, `accept`,
/// then `calls`.
pub fn served(calls: impl IntoIterator<Item = Call>) -> Program {
    let open = [
        Call::Socket,
        Call::Bind(LISTENER, PORT),
        Call::Listen(LISTENER),
        Call::Accept(LISTENER),
    ];
    program("server", 1, open.into_iter().chain(calls))
}

/// The client on host 0: wait 1 ms for the server to listen, then
/// `socket`, `connect` to [`PORT`], then `calls`.
pub fn dialed(calls: impl IntoIterator<Item = Call>) -> Program {
    let open = [
        Call::Sleep(SimDuration::from_millis(1)),
        Call::Socket,
        Call::Connect(SOCK, PORT),
    ];
    program("client", 0, open.into_iter().chain(calls))
}

/// The transcript of a [`served`] program: its first four calls' returns,
/// then `rest`.
pub fn serving(rest: impl IntoIterator<Item = Ret>) -> Vec<Ret> {
    let open = [Ret::Fd(0), Ret::Ok, Ret::Ok, Ret::Accepted(1, HostId(0))];
    open.into_iter().chain(rest).collect()
}

/// The transcript of a [`dialed`] program: its first calls' returns, then
/// `rest`.
pub fn dialing(rest: impl IntoIterator<Item = Ret>) -> Vec<Ret> {
    [Ret::Fd(0), Ret::Ok].into_iter().chain(rest).collect()
}

/// Socket programs to run together, with optional fault plans.
#[derive(Debug, Clone)]
pub struct Scenario {
    programs: Vec<Program>,
    faults: [FaultPlan; 2],
    event_limit: Option<u64>,
}

impl Scenario {
    /// `programs`, spawned in this order, on a fault-free platform.
    pub fn new(programs: impl IntoIterator<Item = Program>) -> Scenario {
        Scenario {
            programs: programs.into_iter().collect(),
            faults: [FaultPlan::empty(), FaultPlan::empty()],
            event_limit: None,
        }
    }

    /// Install `plan0` and `plan1` as [`Variant::boot_with_faults`] does.
    pub fn with_faults(mut self, plan0: FaultPlan, plan1: FaultPlan) -> Scenario {
        self.faults = [plan0, plan1];
        self
    }

    /// Fail the run if it takes more than `events` scheduler events.
    pub fn with_event_limit(mut self, events: u64) -> Scenario {
        self.event_limit = Some(events);
        self
    }
}

/// What a run returns.
#[derive(Debug)]
pub struct Run {
    /// One transcript per program, in the scenario's order.
    pub transcripts: Vec<Vec<Ret>>,
    /// The faults each plan fired.
    pub faults: [FaultStats; 2],
    /// When the simulation ended.
    pub end: SimTime,
}

/// Run `scenario` on `platform`.
///
/// Beyond the transcripts, two checks hold on every run: no `recv` returns
/// more than it asked for, and on a fault-free run no VIA NIC drops a frame
/// for want of a posted descriptor (SOVIA's pre-posting constraint).
///
/// # Panics
///
/// If the simulation fails (deadlock, a panicking process, the event
/// limit), naming the platform.
pub fn run(scenario: &Scenario, platform: &Variant) -> Run {
    let mut sim = Simulation::new();
    let stype = platform.sock_type();
    let transcripts = Arc::new(Mutex::new(vec![Vec::new(); scenario.programs.len()]));
    let machines = Arc::new(Mutex::new(Vec::new()));
    let (programs, out, kept) = (
        scenario.programs.clone(),
        Arc::clone(&transcripts),
        Arc::clone(&machines),
    );
    let [plan0, plan1] = &scenario.faults;
    let (f0, f1) = platform.boot_with_faults(&sim, plan0, plan1, move |ctx, m0, m1| {
        for (i, prog) in programs.into_iter().enumerate() {
            let host = [&m0, &m1][prog.host as usize];
            let p = host.spawn_process(prog.name);
            let out = Arc::clone(&out);
            ctx.handle().spawn(prog.name, move |pctx| {
                let mut fds = Vec::new();
                for call in &prog.calls {
                    if let Some(r) = exec(pctx, &p, stype, &mut fds, call) {
                        out.lock()[i].push(r);
                    }
                }
            });
        }
        kept.lock().extend([m0, m1]);
    });
    let result = match scenario.event_limit {
        Some(events) => sim.run_with_limit(events),
        None => sim.run(),
    };
    let end = result.unwrap_or_else(|e| panic!("{}: {e}", platform.label()));
    if scenario.faults.iter().all(FaultPlan::is_empty) {
        for nic in machines
            .lock()
            .iter()
            .filter_map(|m| m.ext().get::<ViaNic>())
        {
            let drops = nic.stats().rx_drops_no_descriptor;
            assert_eq!(
                drops,
                0,
                "{}: frames with no descriptor posted",
                platform.label()
            );
        }
    }
    let transcripts = std::mem::take(&mut *transcripts.lock());
    Run {
        transcripts,
        faults: [f0.stats(), f1.stats()],
        end,
    }
}

/// Run `scenario` on each of `platforms` and require the transcripts
/// `expected` gives for that platform.
pub fn expect(
    scenario: &Scenario,
    platforms: &[Variant],
    expected: impl Fn(&Variant) -> Vec<Vec<Ret>>,
) {
    for platform in platforms {
        let got = run(scenario, platform).transcripts;
        assert_eq!(
            got,
            expected(platform),
            "transcripts on {}",
            platform.label()
        );
    }
}

/// Boot `platform`, run `f` in its bootstrap process with the client
/// (`m0`) and server (`m1`) machines and the platform's socket type, and
/// require a clean finish: for checks that are not a transcript.
pub fn run_fn(
    platform: &Variant,
    f: impl FnOnce(&SimCtx, Machine, Machine, SockType) + Send + 'static,
) {
    let mut sim = Simulation::new();
    let stype = platform.sock_type();
    platform.boot(&sim, move |ctx, m0, m1| f(ctx, m0, m1, stype));
    sim.run()
        .unwrap_or_else(|e| panic!("{}: {e}", platform.label()));
}

/// Make one call; `None` for a sleep.
fn exec(ctx: &SimCtx, p: &Process, stype: SockType, fds: &mut Vec<Fd>, call: &Call) -> Option<Ret> {
    let peer_host = HostId(1 - p.machine().id().0);
    let ret = match call {
        Call::Socket => {
            let r = api::socket(ctx, p, stype);
            fds.extend(r.iter());
            r.map_or_else(Ret::Err, Ret::Fd)
        }
        Call::Bind(d, port) => {
            let addr = SockAddr::new(p.machine().id(), *port);
            api::bind(ctx, p, fds[d.0], addr).into()
        }
        Call::Listen(d) => api::listen(ctx, p, fds[d.0], 1).into(),
        Call::Accept(d) => match api::accept(ctx, p, fds[d.0]) {
            Ok((c, peer)) => {
                fds.push(c);
                Ret::Accepted(c, peer.host)
            }
            Err(e) => Ret::Err(e),
        },
        Call::Connect(d, port) => {
            api::connect(ctx, p, fds[d.0], SockAddr::new(peer_host, *port)).into()
        }
        Call::Send(d, bytes) => api::send(ctx, p, fds[d.0], bytes).into(),
        Call::SendAll(d, bytes) => api::send_all(ctx, p, fds[d.0], bytes).into(),
        Call::Recv(d, max) => recv_loop(ctx, p, fds[d.0], *max, Some(1)),
        Call::RecvExact(d, len) => api::recv_exact(ctx, p, fds[d.0], *len).into(),
        Call::RecvToEof(d, chunk) => recv_loop(ctx, p, fds[d.0], *chunk, None),
        Call::Shutdown(d) => api::shutdown(ctx, p, fds[d.0], Shutdown::Write).into(),
        Call::Close(d) => api::close(ctx, p, fds[d.0]).into(),
        Call::Sleep(t) => {
            ctx.sleep(*t);
            return None;
        }
        Call::Read(d, max) => api::read(ctx, p, fds[d.0], *max).into(),
        Call::Write(d, bytes) => api::write(ctx, p, fds[d.0], bytes).into(),
        Call::SetOption(d, opt) => api::set_option(ctx, p, fds[d.0], *opt).into(),
        Call::Open(path, mode) => match p.open(ctx, path, *mode) {
            Ok(f) => {
                fds.push(f);
                Ret::Fd(f)
            }
            Err(e) => Ret::Err(e.into()),
        },
    };
    Some(ret)
}

/// `recv()` of at most `chunk` bytes, `calls` times or (for `None`) until
/// EOF, checking that no call returns more than it asked for.
fn recv_loop(ctx: &SimCtx, p: &Process, fd: Fd, chunk: usize, calls: Option<usize>) -> Ret {
    let mut got = Vec::new();
    for _ in 0..calls.unwrap_or(usize::MAX) {
        match api::recv(ctx, p, fd, chunk) {
            Ok(d) if d.is_empty() => break,
            Ok(d) => {
                assert!(d.len() <= chunk, "recv({chunk}) returned {} bytes", d.len());
                got.extend_from_slice(&d);
            }
            Err(e) => return Ret::Err(e),
        }
    }
    Ret::Data(got)
}
