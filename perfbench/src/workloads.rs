//! The benchmark's simulations: each is one fresh `Simulation` with one
//! client and one connection, driven through the stack's public API. The
//! benchmark times its own calls into the layers (`testbed`, `sockets`,
//! the VIPL, `apps::rpc`) from outside the simulator; it adds no
//! instrumentation inside it.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sovia_repro::apps::rpc::client::{Clnt, Transport};
use sovia_repro::apps::rpc::echo::{echo_client, echo_len_1, echo_null_1, spawn_echo_server};
use sovia_repro::dsim::rng::{check_pattern, fill_pattern};
use sovia_repro::dsim::{
    ProcStats, SchedConfig, SchedStats, SimCtx, SimDuration, SimTime, Simulation, TraceConfig,
    TraceData,
};
use sovia_repro::simos::{HostId, Machine};
use sovia_repro::sockets::{api, SockAddr, SockOption, SockType};
use sovia_repro::sovia::SoviaConfig;
use sovia_repro::testbed;
use sovia_repro::via::{Descriptor, MemRegion, ViAttributes, ViaNic, ViaNicId, WaitMode};

const PORT: u16 = 9000;
/// The paper's maximum socket buffer, used for every stream.
const STREAM_SOCKBUF: usize = 131_170;
/// Native-VIA stream descriptor ring depth.
const VIA_RING: usize = 64;

/// The network and transport under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// Kernel TCP over the LANE driver on cLAN.
    TcpLane,
    /// Kernel TCP over Fast Ethernet.
    TcpEth,
    /// Raw VIPL on cLAN, no sockets layer.
    NativeVia,
    /// SOVIA on cLAN.
    Sovia(Variant),
}

/// The SOVIA configurations of the paper's Figure 6 ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Single,
    Handler,
    FlowCtrl,
    Dacks,
    Combine,
}

impl Net {
    pub fn label(self) -> &'static str {
        match self {
            Net::TcpLane => "TCP_LANE",
            Net::TcpEth => "TCP_FASTETH",
            Net::NativeVia => "NATIVE_VIA",
            Net::Sovia(Variant::Single) => "SOVIA_SINGLE",
            Net::Sovia(Variant::Handler) => "SOVIA_HANDLER",
            Net::Sovia(Variant::FlowCtrl) => "SOVIA_FLOWCTRL",
            Net::Sovia(Variant::Dacks) => "SOVIA_DACKS",
            Net::Sovia(Variant::Combine) => "SOVIA_COMBINE",
        }
    }

    fn sovia_config(self) -> Option<SoviaConfig> {
        match self {
            Net::Sovia(Variant::Single) => Some(SoviaConfig::single()),
            Net::Sovia(Variant::Handler) => Some(SoviaConfig::handler()),
            Net::Sovia(Variant::FlowCtrl) => Some(SoviaConfig::flowctrl()),
            Net::Sovia(Variant::Dacks) => Some(SoviaConfig::dacks()),
            Net::Sovia(Variant::Combine) => Some(SoviaConfig::combine()),
            _ => None,
        }
    }

    fn sock_type(self) -> SockType {
        match self {
            Net::Sovia(_) => SockType::Via,
            _ => SockType::Stream,
        }
    }
}

/// What the client does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Round trips of `size` bytes, one outstanding; an operation is one
    /// round trip. The result is half the mean round trip, in µs.
    PingPong,
    /// A one-way stream of `size`-byte sends; an operation is `batch`
    /// sends. The result is the bandwidth, in Mb/s.
    Stream,
    /// sunrpc echo calls with a `size`-byte string argument (0 = void);
    /// an operation is one call. The result is µs per call.
    Rpc,
}

/// One simulation of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub shape: Shape,
    pub net: Net,
    pub size: usize,
    /// Timed operations.
    pub ops: u32,
    /// Sends per operation (`Stream` only).
    pub batch: u32,
}

impl Spec {
    /// Stable name, the key of the expected-results table.
    pub fn id(&self) -> String {
        let shape = match self.shape {
            Shape::PingPong => "pingpong",
            Shape::Stream => "stream",
            Shape::Rpc => "rpc",
        };
        format!(
            "{shape}/{}/{}B/{}x{}",
            self.net.label(),
            self.size,
            self.ops,
            self.batch
        )
    }
}

/// Benchmark calls into the stack whose host time is recorded in the
/// per-layer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Send,
    Recv,
    Connect,
    Accept,
    PostSend,
    RecvWait,
    Register,
    Rpc,
    ClientCreate,
}

pub const CALLS: usize = 9;

/// Host timings gathered from inside the simulated processes (only one of
/// which runs at a time, so the lock is never contended).
#[derive(Default)]
pub struct ProbeData {
    pub first_op: Option<Instant>,
    pub last_op_end: Option<Instant>,
    /// Host ns of each timed operation.
    pub op_ns: Vec<u64>,
    /// Host ns of each timed call, by [`Call`].
    pub calls: [Vec<u64>; CALLS],
    /// Delivered payloads that failed the pattern check.
    pub bad_payloads: u64,
    /// Host ns spent in the pattern checks.
    pub check_ns: u64,
    /// The simulated result.
    pub result: Option<f64>,
}

struct Probe {
    /// Time every [`Call`] (per-layer run only).
    calls: bool,
    /// Verify delivered payloads (traced run only).
    check: bool,
    tag: u64,
    data: Mutex<ProbeData>,
}

impl Probe {
    fn lock(&self) -> MutexGuard<'_, ProbeData> {
        self.data
            .lock()
            .expect("a simulated process panicked holding the probe")
    }

    fn call<T>(&self, call: Call, f: impl FnOnce() -> T) -> T {
        if !self.calls {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.lock().calls[call as usize].push(ns);
        out
    }

    /// Record one timed operation that started at `t`.
    fn op(&self, t: Instant) {
        let end = Instant::now();
        let mut d = self.lock();
        d.first_op.get_or_insert(t);
        d.last_op_end = Some(end);
        d.op_ns.push((end - t).as_nanos() as u64);
    }

    /// Run the payload check `bad` (traced run only) and record its host
    /// time, which `trace.overhead_pct` leaves out.
    fn timed_check(&self, bad: impl FnOnce() -> bool) {
        if !self.check {
            return;
        }
        let t = Instant::now();
        let bad = bad();
        let ns = t.elapsed().as_nanos() as u64;
        let mut d = self.lock();
        d.check_ns += ns;
        d.bad_payloads += u64::from(bad);
    }

    /// Check `buf` against the pattern at offset `start`.
    fn verify(&self, start: u64, buf: &[u8]) {
        self.timed_check(|| check_pattern(self.tag, start, buf).is_some());
    }

    /// Check the payload `read` returns, reading it only when checking.
    fn verify_read(&self, read: impl FnOnce() -> Vec<u8>) {
        self.timed_check(|| check_pattern(self.tag, 0, &read()).is_some());
    }

    /// Check `buf`, received at stream offset `at` of a stream of
    /// back-to-back `size`-byte patterns.
    fn verify_stream(&self, at: usize, size: usize, buf: &[u8]) {
        if !self.check {
            return;
        }
        let (mut at, mut rest) = (at, buf);
        while !rest.is_empty() {
            let off = at % size;
            let n = (size - off).min(rest.len());
            self.verify(off as u64, &rest[..n]);
            rest = &rest[n..];
            at += n;
        }
    }

    fn result(&self, v: f64) {
        self.lock().result = Some(v);
    }
}

fn pattern(tag: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0; len];
    fill_pattern(tag, 0, &mut v);
    v
}

/// Everything one simulation reports.
pub struct Outcome {
    pub result: f64,
    pub sched: SchedStats,
    pub procs: Vec<ProcStats>,
    pub trace: Option<TraceData>,
    pub probe: ProbeData,
    /// From creating the `Simulation` to its first timed operation.
    pub setup: Duration,
    /// Inside `Simulation::run`.
    pub run: Duration,
    /// From the last timed operation until `run` returned.
    pub teardown: Duration,
    /// The `testbed` builder call.
    pub testbed: Duration,
}

/// How a simulation is run.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    pub trace: Option<TraceConfig>,
    pub time_calls: bool,
    /// Payload pattern tag; payload contents never affect simulated time.
    pub tag: u64,
}

/// Run one fresh simulation. `Err` carries a `SimError` or a missing
/// result; panics outside simulated processes propagate to the caller.
pub fn run(spec: &Spec, mode: Mode) -> Result<Outcome, String> {
    let probe = Arc::new(Probe {
        calls: mode.time_calls,
        check: mode.trace.is_some(),
        tag: mode.tag,
        data: Mutex::new(ProbeData::default()),
    });
    let created = Instant::now();
    // Explicit: `SchedConfig::default()` would read DSIM_DIRECT_HANDOFF.
    let mut sim = Simulation::with_config_and_trace(
        SchedConfig {
            direct_handoff: true,
        },
        mode.trace,
    );
    let spec = *spec;
    let p = Arc::clone(&probe);
    let body = move |ctx: &SimCtx, m0: Machine, m1: Machine| match (spec.shape, spec.net) {
        (Shape::PingPong, Net::NativeVia) => via_pingpong(ctx, &m0, &m1, spec, p),
        (Shape::Stream, Net::NativeVia) => via_stream(ctx, &m0, &m1, spec, p),
        (Shape::PingPong, _) => socket_pingpong(ctx, &m0, &m1, spec, p),
        (Shape::Stream, _) => socket_stream(ctx, &m0, &m1, spec, p),
        (Shape::Rpc, _) => rpc(ctx, &m0, &m1, spec, p),
    };
    let testbed = platform(&sim, spec.net, body);
    let run_start = Instant::now();
    let ran = sim.run();
    let run_end = Instant::now();
    ran.map_err(|e| e.to_string())?;
    let data = std::mem::take(&mut *probe.lock());
    let (Some(first), Some(last), Some(result)) = (data.first_op, data.last_op_end, data.result)
    else {
        return Err("simulation finished without its timed operations".into());
    };
    Ok(Outcome {
        result,
        sched: sim.sched_stats(),
        procs: sim.proc_stats(),
        trace: sim.take_trace(),
        probe: data,
        setup: first - created,
        run: run_end - run_start,
        teardown: run_end - last,
        testbed,
    })
}

/// Build the two-host platform for `net` and start `body` in a bootstrap
/// process once it is up. Returns the host time of the `testbed` call.
fn platform(
    sim: &Simulation,
    net: Net,
    body: impl FnOnce(&SimCtx, Machine, Machine) + Send + 'static,
) -> Duration {
    let t = Instant::now();
    let (m0, m1) = match net {
        Net::TcpLane => {
            testbed::clan_dual_stack(sim, SoviaConfig::combine(), body);
            return t.elapsed();
        }
        Net::TcpEth => testbed::tcp_ethernet_pair(&sim.handle()),
        Net::NativeVia => testbed::clan_pair(&sim.handle()),
        Net::Sovia(_) => {
            let cfg = net.sovia_config().expect("a SOVIA variant has a config");
            testbed::sovia_pair(&sim.handle(), cfg)
        }
    };
    let took = t.elapsed();
    sim.spawn("bootstrap", move |ctx| body(ctx, m0, m1));
    took
}

fn micros(from: SimTime, to: SimTime) -> f64 {
    to.since(from).as_micros_f64()
}

fn socket_pingpong(ctx: &SimCtx, m0: &Machine, m1: &Machine, spec: Spec, p: Arc<Probe>) {
    let (cp, sp) = testbed::procs(m0, m1);
    let stype = spec.net.sock_type();
    let size = spec.size;
    let rounds = spec.ops;
    let h = ctx.handle();
    let sprobe = Arc::clone(&p);
    h.spawn("pong", move |sctx| {
        let p = sprobe;
        let s = api::socket(sctx, &sp, stype).expect("socket");
        api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).expect("bind");
        api::listen(sctx, &sp, s, 1).expect("listen");
        let (c, _) = p
            .call(Call::Accept, || api::accept(sctx, &sp, s))
            .expect("accept");
        if stype == SockType::Stream {
            api::set_option(sctx, &sp, c, SockOption::NoDelay(true)).expect("nodelay");
        }
        // One warm-up round trip, then the timed ones.
        for _ in 0..=rounds {
            let msg = p
                .call(Call::Recv, || api::recv_exact(sctx, &sp, c, size))
                .expect("recv");
            p.call(Call::Send, || api::send_all(sctx, &sp, c, &msg))
                .expect("send");
        }
        api::close(sctx, &sp, c).expect("close");
        api::close(sctx, &sp, s).expect("close");
    });
    h.spawn("ping", move |cctx| {
        cctx.sleep(SimDuration::from_millis(1));
        let s = api::socket(cctx, &cp, stype).expect("socket");
        let addr = SockAddr::new(HostId(1), PORT);
        p.call(Call::Connect, || api::connect(cctx, &cp, s, addr))
            .expect("connect");
        if stype == SockType::Stream {
            api::set_option(cctx, &cp, s, SockOption::NoDelay(true)).expect("nodelay");
        }
        let msg = pattern(p.tag, size);
        let round_trip = || {
            p.call(Call::Send, || api::send_all(cctx, &cp, s, &msg))
                .expect("send");
            p.call(Call::Recv, || api::recv_exact(cctx, &cp, s, size))
                .expect("recv")
        };
        p.verify(0, &round_trip());
        let t0 = cctx.now();
        for _ in 0..rounds {
            let t = Instant::now();
            let reply = round_trip();
            p.op(t);
            p.verify(0, &reply);
        }
        p.result(micros(t0, cctx.now()) / f64::from(rounds) / 2.0);
        api::close(cctx, &cp, s).expect("close");
    });
}

fn socket_stream(ctx: &SimCtx, m0: &Machine, m1: &Machine, spec: Spec, p: Arc<Probe>) {
    let (cp, sp) = testbed::procs(m0, m1);
    let stype = spec.net.sock_type();
    let size = spec.size;
    let total = spec.size * (spec.ops * spec.batch) as usize;
    let h = ctx.handle();
    let sprobe = Arc::clone(&p);
    h.spawn("sink", move |sctx| {
        let p = sprobe;
        let s = api::socket(sctx, &sp, stype).expect("socket");
        api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).expect("bind");
        api::listen(sctx, &sp, s, 1).expect("listen");
        let (c, _) = p
            .call(Call::Accept, || api::accept(sctx, &sp, s))
            .expect("accept");
        api::set_option(sctx, &sp, c, SockOption::RecvBuf(STREAM_SOCKBUF)).expect("rcvbuf");
        let mut got = 0usize;
        while got < total {
            let d = p
                .call(Call::Recv, || api::recv(sctx, &sp, c, 16 * 1024))
                .expect("recv");
            assert!(!d.is_empty(), "stream ended after {got} of {total} bytes");
            p.verify_stream(got, size, &d);
            got += d.len();
        }
        // The terminating application-level acknowledgment.
        api::send_all(sctx, &sp, c, b"A").expect("ack");
        api::close(sctx, &sp, c).expect("close");
        api::close(sctx, &sp, s).expect("close");
    });
    h.spawn("source", move |cctx| {
        cctx.sleep(SimDuration::from_millis(1));
        let s = api::socket(cctx, &cp, stype).expect("socket");
        api::set_option(cctx, &cp, s, SockOption::SendBuf(STREAM_SOCKBUF)).expect("sndbuf");
        let addr = SockAddr::new(HostId(1), PORT);
        p.call(Call::Connect, || api::connect(cctx, &cp, s, addr))
            .expect("connect");
        let msg = pattern(p.tag, size);
        let t0 = cctx.now();
        for _ in 0..spec.ops {
            let t = Instant::now();
            for _ in 0..spec.batch {
                p.call(Call::Send, || api::send_all(cctx, &cp, s, &msg))
                    .expect("send");
            }
            p.op(t);
        }
        // Bandwidth counts until the sink acknowledges the last byte.
        let ack = api::recv_exact(cctx, &cp, s, 1).expect("ack");
        assert_eq!(ack, b"A", "stream acknowledgment");
        p.result(total as f64 * 8.0 / micros(t0, cctx.now()));
        api::close(cctx, &cp, s).expect("close");
    });
}

fn via_pingpong(ctx: &SimCtx, m0: &Machine, m1: &Machine, spec: Spec, p: Arc<Probe>) {
    let size = spec.size;
    let rounds = spec.ops as usize;
    let cap = size.max(4096);
    let (n0, n1) = (ViaNic::of(m0), ViaNic::of(m1));
    let (m0, m1) = (m0.clone(), m1.clone());
    let h = ctx.handle();
    let sprobe = Arc::clone(&p);
    h.spawn("pong", move |ctx| {
        let p = sprobe;
        let proc = m1.spawn_process("pong");
        let vi = n1.create_vi(ViAttributes::default());
        n1.listen(1);
        let va = proc.alloc(ctx, cap);
        let rregion = p.call(Call::Register, || MemRegion::register(ctx, &proc, va, cap));
        for _ in 0..rounds + 2 {
            vi.post_recv(ctx, Descriptor::recv(Arc::clone(&rregion), 0, cap))
                .expect("post_recv");
        }
        let pending = n1.connect_wait(ctx, 1);
        n1.connect_accept(ctx, &pending, &vi)
            .expect("connect_accept");
        let va = proc.alloc(ctx, cap);
        let sregion = p.call(Call::Register, || MemRegion::register(ctx, &proc, va, cap));
        // A host-side write: no virtual time passes.
        sregion.dma_write(0, &pattern(p.tag, size));
        for _ in 0..=rounds {
            p.call(Call::RecvWait, || vi.recv_wait(ctx, WaitMode::Poll))
                .expect("recv");
            let d = Descriptor::send(Arc::clone(&sregion), 0, size, None);
            p.call(Call::PostSend, || vi.post_send(ctx, d))
                .expect("post_send");
        }
    });
    h.spawn("ping", move |ctx| {
        let proc = m0.spawn_process("ping");
        let vi = n0.create_vi(ViAttributes::default());
        let va = proc.alloc(ctx, cap);
        let rregion = p.call(Call::Register, || MemRegion::register(ctx, &proc, va, cap));
        for _ in 0..rounds + 2 {
            vi.post_recv(ctx, Descriptor::recv(Arc::clone(&rregion), 0, cap))
                .expect("post_recv");
        }
        ctx.sleep(SimDuration::from_millis(1));
        n0.connect_request(ctx, &vi, ViaNicId(1), 1)
            .expect("connect_request");
        let va = proc.alloc(ctx, cap);
        let sregion = p.call(Call::Register, || MemRegion::register(ctx, &proc, va, cap));
        sregion.dma_write(0, &pattern(p.tag, size));
        let round_trip = || {
            let d = Descriptor::send(Arc::clone(&sregion), 0, size, None);
            p.call(Call::PostSend, || vi.post_send(ctx, d))
                .expect("post_send");
            let done = p
                .call(Call::RecvWait, || vi.recv_wait(ctx, WaitMode::Poll))
                .expect("recv");
            p.verify_read(|| done.region.dma_read(done.offset, size));
        };
        round_trip();
        let t0 = ctx.now();
        for _ in 0..rounds {
            let t = Instant::now();
            round_trip();
            p.op(t);
        }
        p.result(micros(t0, ctx.now()) / rounds as f64 / 2.0);
    });
}

fn via_stream(ctx: &SimCtx, m0: &Machine, m1: &Machine, spec: Spec, p: Arc<Probe>) {
    let size = spec.size;
    let msgs = (spec.ops * spec.batch) as usize;
    let ring = VIA_RING.min(msgs + 1);
    let (n0, n1) = (ViaNic::of(m0), ViaNic::of(m1));
    let (m0, m1) = (m0.clone(), m1.clone());
    let h = ctx.handle();
    let sprobe = Arc::clone(&p);
    h.spawn("sink", move |ctx| {
        let p = sprobe;
        let proc = m1.spawn_process("sink");
        let vi = n1.create_vi(ViAttributes::default());
        n1.listen(1);
        let va = proc.alloc(ctx, ring * size);
        let region = p.call(Call::Register, || {
            MemRegion::register(ctx, &proc, va, ring * size)
        });
        for i in 0..ring {
            let d = Descriptor::recv(Arc::clone(&region), i * size, size);
            vi.post_recv(ctx, d).expect("post_recv");
        }
        let pending = n1.connect_wait(ctx, 1);
        n1.connect_accept(ctx, &pending, &vi)
            .expect("connect_accept");
        for _ in 0..msgs {
            let done = p
                .call(Call::RecvWait, || vi.recv_wait(ctx, WaitMode::Poll))
                .expect("recv");
            p.verify_read(|| done.region.dma_read(done.offset, size));
            let fresh = Descriptor::recv(Arc::clone(&done.region), done.offset, size);
            vi.post_recv(ctx, fresh).expect("post_recv");
        }
    });
    h.spawn("source", move |ctx| {
        let proc = m0.spawn_process("source");
        let vi = n0.create_vi(ViAttributes::default());
        ctx.sleep(SimDuration::from_millis(1));
        n0.connect_request(ctx, &vi, ViaNicId(1), 1)
            .expect("connect_request");
        let va = proc.alloc(ctx, size);
        let region = p.call(Call::Register, || MemRegion::register(ctx, &proc, va, size));
        region.dma_write(0, &pattern(p.tag, size));
        let t0 = ctx.now();
        let mut outstanding = 0usize;
        for _ in 0..spec.ops {
            let t = Instant::now();
            for _ in 0..spec.batch {
                // Keep up to `ring - 1` sends in flight so the sink can
                // recycle its descriptors.
                while outstanding >= ring - 1 {
                    vi.send_wait(ctx, WaitMode::Poll).expect("send_wait");
                    outstanding -= 1;
                }
                let d = Descriptor::send(Arc::clone(&region), 0, size, None);
                p.call(Call::PostSend, || vi.post_send(ctx, d))
                    .expect("post_send");
                outstanding += 1;
            }
            p.op(t);
        }
        while outstanding > 0 {
            vi.send_wait(ctx, WaitMode::Poll).expect("send_wait");
            outstanding -= 1;
        }
        p.result((msgs * size) as f64 * 8.0 / micros(t0, ctx.now()));
    });
}

fn rpc(ctx: &SimCtx, m0: &Machine, m1: &Machine, spec: Spec, p: Arc<Probe>) {
    let (cp, sp) = testbed::procs(m0, m1);
    let transport = match spec.net {
        Net::Sovia(_) => Transport::Via,
        _ => Transport::Tcp,
    };
    spawn_echo_server(ctx.handle(), sp, HostId(1), transport, Some(1));
    let arg_len = spec.size;
    ctx.handle().spawn("rpc-client", move |cctx| {
        cctx.sleep(SimDuration::from_millis(1));
        let clnt = p.call(Call::ClientCreate, || {
            echo_client(cctx, &cp, HostId(1), transport)
        });
        let clnt = clnt.expect("clnt_create");
        let arg: String = pattern(p.tag, arg_len)
            .iter()
            .map(|b| char::from(b'a' + b % 26))
            .collect();
        let call = |clnt: &Clnt| {
            if arg_len == 0 {
                p.call(Call::Rpc, || echo_null_1(cctx, clnt))
                    .expect("null call");
            } else {
                let n = p
                    .call(Call::Rpc, || echo_len_1(cctx, clnt, &arg))
                    .expect("call");
                assert_eq!(n as usize, arg_len, "echo_len_1 result");
            }
        };
        call(&clnt);
        let t0 = cctx.now();
        for _ in 0..spec.ops {
            let t = Instant::now();
            call(&clnt);
            p.op(t);
        }
        p.result(micros(t0, cctx.now()) / f64::from(spec.ops));
        clnt.destroy(cctx);
    });
}
