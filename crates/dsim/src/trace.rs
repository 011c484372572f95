//! Deterministic, virtual-time structured tracing.
//!
//! Every layer of the stack (scheduler, NIC/link, kernel TCP/IP, VIPL,
//! SOVIA, sockets) emits typed events — **spans** covering a cost-model
//! charge (syscall, copy, interrupt, descriptor post, DMA, segment
//! processing; a process's own cost is recorded by the
//! [`crate::SimCtx::charge`] that charges it),
//! **counters** (bytes copied vs zero-copied, descriptors posted, ACKs
//! delayed/combined, retransmits) and **instants** (handshake packets,
//! injected faults, measurement-window marks) — tagged with the virtual
//! timestamp, process id, connection and message id.
//!
//! Events land in a per-simulation ring buffer preallocated at
//! construction: recording is a bounds-checked array write under an
//! uncontended lock (exactly one simulation process runs at a time), with
//! **zero allocation on the hot path**. When tracing is disabled — the
//! default — the tracer is `None` and every emission site reduces to one
//! branch on an `Option`, so golden results are byte-identical with the
//! subsystem compiled in.
//!
//! Because timestamps are virtual, a trace is bit-identical across runs
//! and host thread counts; the exported Chrome trace-event JSON
//! ([`chrome_trace_json`]) is itself a determinism test surface.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};

/// Which layer of the stack emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLayer {
    /// The discrete-event scheduler (thread wake costs).
    Sched,
    /// The physical link (serialization + propagation, faults).
    Link,
    /// A NIC engine (VIA or Ethernet: descriptor processing, DMA).
    Nic,
    /// The in-kernel TCP/IP stack and drivers.
    Kernel,
    /// The user-level VIPL (descriptor posting, doorbells, polling).
    Via,
    /// The SOVIA protocol layer.
    Sovia,
    /// The sockets API surface.
    Socket,
    /// Application-level markers (measurement windows).
    App,
}

impl TraceLayer {
    /// Stable lowercase name (Chrome trace category).
    pub fn name(self) -> &'static str {
        match self {
            TraceLayer::Sched => "sched",
            TraceLayer::Link => "link",
            TraceLayer::Nic => "nic",
            TraceLayer::Kernel => "kernel",
            TraceLayer::Via => "via",
            TraceLayer::Sovia => "sovia",
            TraceLayer::Socket => "socket",
            TraceLayer::App => "app",
        }
    }
}

/// The typed event vocabulary. Spans carry a duration; counters carry a
/// delta in `value`; instants are zero-width points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names are the documentation; see `name()`
pub enum TraceKind {
    // --- spans (one per cost-model charge) ---
    Syscall,
    Copy,
    Interrupt,
    ContextSwitch,
    ThreadWake,
    DescriptorPost,
    Dma,
    TxDesc,
    RxDesc,
    Serialize,
    Poll,
    MemRegister,
    TxSegment,
    RxSegment,
    AckTx,
    Driver,
    Timer,
    // --- counters ---
    BytesCopied,
    BytesZeroCopy,
    DescriptorsPosted,
    AcksDelayed,
    AcksPiggybacked,
    CombinedSends,
    Retransmits,
    // --- instants ---
    HandshakeReq,
    HandshakeWakeup,
    HandshakeFin,
    HandshakeFinAck,
    DelayedAckFired,
    FaultDrop,
    FaultDuplicate,
    FaultReorder,
    FaultDescError,
    FaultDisconnect,
    MarkStart,
    MarkEnd,
}

/// Broad class of a [`TraceKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// A time interval (cost-model charge).
    Span,
    /// A monotonic counter increment.
    Counter,
    /// A zero-width point event.
    Instant,
}

impl TraceKind {
    /// Stable lowercase name (Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Syscall => "syscall",
            TraceKind::Copy => "copy",
            TraceKind::Interrupt => "interrupt",
            TraceKind::ContextSwitch => "context_switch",
            TraceKind::ThreadWake => "thread_wake",
            TraceKind::DescriptorPost => "descriptor_post",
            TraceKind::Dma => "dma",
            TraceKind::TxDesc => "tx_desc",
            TraceKind::RxDesc => "rx_desc",
            TraceKind::Serialize => "wire",
            TraceKind::Poll => "poll",
            TraceKind::MemRegister => "mem_register",
            TraceKind::TxSegment => "tx_segment",
            TraceKind::RxSegment => "rx_segment",
            TraceKind::AckTx => "ack_tx",
            TraceKind::Driver => "driver",
            TraceKind::Timer => "timer",
            TraceKind::BytesCopied => "bytes_copied",
            TraceKind::BytesZeroCopy => "bytes_zero_copy",
            TraceKind::DescriptorsPosted => "descriptors_posted",
            TraceKind::AcksDelayed => "acks_delayed",
            TraceKind::AcksPiggybacked => "acks_piggybacked",
            TraceKind::CombinedSends => "combined_sends",
            TraceKind::Retransmits => "retransmits",
            TraceKind::HandshakeReq => "handshake_req",
            TraceKind::HandshakeWakeup => "handshake_wakeup",
            TraceKind::HandshakeFin => "handshake_fin",
            TraceKind::HandshakeFinAck => "handshake_finack",
            TraceKind::DelayedAckFired => "delayed_ack_fired",
            TraceKind::FaultDrop => "fault_drop",
            TraceKind::FaultDuplicate => "fault_duplicate",
            TraceKind::FaultReorder => "fault_reorder",
            TraceKind::FaultDescError => "fault_desc_error",
            TraceKind::FaultDisconnect => "fault_disconnect",
            TraceKind::MarkStart => "mark_start",
            TraceKind::MarkEnd => "mark_end",
        }
    }

    /// Whether this kind is a span, counter, or instant.
    pub fn class(self) -> TraceClass {
        use TraceKind::*;
        match self {
            Syscall | Copy | Interrupt | ContextSwitch | ThreadWake | DescriptorPost | Dma
            | TxDesc | RxDesc | Serialize | Poll | MemRegister | TxSegment | RxSegment | AckTx
            | Driver | Timer => TraceClass::Span,
            BytesCopied | BytesZeroCopy | DescriptorsPosted | AcksDelayed | AcksPiggybacked
            | CombinedSends | Retransmits => TraceClass::Counter,
            _ => TraceClass::Instant,
        }
    }
}

/// Optional tags attached to an event: connection id, message id, and a
/// kind-specific value (bytes for copies, frame index for faults, the
/// delta for counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTag {
    /// Connection identifier (0 = none).
    pub conn: u32,
    /// Message / sequence identifier (0 = none).
    pub msg: u64,
    /// Kind-specific value (bytes, frame index, counter delta).
    pub value: u64,
}

impl TraceTag {
    /// Tag carrying only a byte count / value.
    pub fn bytes(n: usize) -> TraceTag {
        TraceTag {
            value: n as u64,
            ..TraceTag::default()
        }
    }

    /// Tag carrying a connection id.
    pub fn on_conn(conn: u32) -> TraceTag {
        TraceTag {
            conn,
            ..TraceTag::default()
        }
    }

    /// Attach a message id.
    pub fn msg(mut self, m: u64) -> TraceTag {
        self.msg = m;
        self
    }

    /// Attach a value.
    pub fn value(mut self, v: u64) -> TraceTag {
        self.value = v;
        self
    }
}

/// One recorded event. Plain data, fixed size: the ring buffer is a
/// preallocated `Vec<TraceEvent>` that is never grown while recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span start (or the instant itself), nanoseconds of virtual time.
    pub start_ns: u64,
    /// Span length in nanoseconds (0 for counters and instants).
    pub dur_ns: u64,
    /// Emitting simulation process (`u64::MAX` = outside any process,
    /// e.g. the wire itself).
    pub pid: u64,
    /// Emitting layer.
    pub layer: TraceLayer,
    /// Event kind.
    pub kind: TraceKind,
    /// Tags (connection, message, value).
    pub tag: TraceTag,
}

impl Default for TraceEvent {
    fn default() -> TraceEvent {
        TraceEvent {
            start_ns: 0,
            dur_ns: 0,
            pid: u64::MAX,
            layer: TraceLayer::Sched,
            kind: TraceKind::MarkStart,
            tag: TraceTag::default(),
        }
    }
}

/// Tracing configuration, passed at simulation construction.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Ring capacity in events. When full, the **oldest** events are
    /// overwritten and counted in [`TraceData::dropped`].
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: 1 << 18,
        }
    }
}

struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the oldest event.
    start: usize,
    len: usize,
    dropped: u64,
}

/// Shared per-simulation trace state: the event ring plus the process
/// name table (filled at spawn time, not on the hot path).
pub(crate) struct TraceShared {
    ring: Mutex<Ring>,
    pub(crate) names: Mutex<Vec<(u64, String)>>,
}

impl TraceShared {
    pub(crate) fn new(cfg: TraceConfig) -> TraceShared {
        let cap = cfg.capacity.max(16);
        TraceShared {
            ring: Mutex::new(Ring {
                // Fully preallocated: recording never allocates.
                buf: vec![TraceEvent::default(); cap],
                start: 0,
                len: 0,
                dropped: 0,
            }),
            names: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn push(&self, ev: TraceEvent) {
        let mut r = self.ring.lock();
        let cap = r.buf.len();
        if r.len < cap {
            let at = (r.start + r.len) % cap;
            r.buf[at] = ev;
            r.len += 1;
        } else {
            let at = r.start;
            r.buf[at] = ev;
            r.start = (r.start + 1) % cap;
            r.dropped += 1;
        }
    }

    fn drain(&self) -> (Vec<TraceEvent>, u64) {
        let mut r = self.ring.lock();
        let cap = r.buf.len();
        let mut out = Vec::with_capacity(r.len);
        for i in 0..r.len {
            out.push(r.buf[(r.start + i) % cap]);
        }
        let dropped = r.dropped;
        r.start = 0;
        r.len = 0;
        r.dropped = 0;
        (out, dropped)
    }
}

/// A cheap, cloneable emission handle. Disabled tracers (`Tracer::
/// disabled()`, or any simulation built without a [`TraceConfig`]) make
/// every emission a single predictable branch.
#[derive(Clone)]
pub struct Tracer {
    pub(crate) shared: Option<Arc<TraceShared>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { shared: None }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Record a span starting at `start`.
    #[inline]
    pub fn span_start(
        &self,
        start: SimTime,
        pid: u64,
        layer: TraceLayer,
        kind: TraceKind,
        dur: SimDuration,
        tag: TraceTag,
    ) {
        if let Some(s) = &self.shared {
            s.push(TraceEvent {
                start_ns: start.as_nanos(),
                dur_ns: dur.as_nanos(),
                pid,
                layer,
                kind,
                tag,
            });
        }
    }

    /// Record an instant (or counter increment, with the delta in
    /// `tag.value`).
    #[inline]
    pub fn instant(&self, at: SimTime, pid: u64, layer: TraceLayer, kind: TraceKind, tag: TraceTag) {
        if let Some(s) = &self.shared {
            s.push(TraceEvent {
                start_ns: at.as_nanos(),
                dur_ns: 0,
                pid,
                layer,
                kind,
                tag,
            });
        }
    }
}

/// The drained contents of a simulation's trace: events in recording
/// order, the process name table, and how many events the ring dropped.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Events, oldest first.
    pub events: Vec<TraceEvent>,
    /// `(pid, name)` of every spawned process, spawn order.
    pub names: Vec<(u64, String)>,
    /// Events overwritten because the ring filled up.
    pub dropped: u64,
}

impl TraceData {
    pub(crate) fn drain_from(shared: &TraceShared) -> TraceData {
        let (events, dropped) = shared.drain();
        let names = shared.names.lock().clone();
        TraceData {
            events,
            names,
            dropped,
        }
    }

    /// The measurement window delimited by the last [`TraceKind::MarkStart`]
    /// / first subsequent [`TraceKind::MarkEnd`] pair, if any.
    pub fn window(&self) -> Option<(u64, u64)> {
        let start = self
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::MarkStart)
            .map(|e| e.start_ns)
            .next_back()?;
        let end = self
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::MarkEnd && e.start_ns >= start)
            .map(|e| e.start_ns)
            .next()?;
        Some((start, end))
    }
}

/// Format nanoseconds as Chrome's microsecond timestamps with fixed
/// 3-digit fractions — pure integer arithmetic, so output bytes never
/// depend on float formatting.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one or more simulations' traces as a Chrome trace-event
/// (`chrome://tracing` / Perfetto) JSON file. Each `(label, data)` pair
/// becomes one Chrome "process"; simulation processes become its
/// threads, with `tid 0` reserved for eventless/wire context
/// (`pid == u64::MAX` events).
pub fn chrome_trace_json(parts: &[(String, TraceData)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for (pi, (label, data)) in parts.iter().enumerate() {
        let cpid = pi + 1;
        // Counter events carry deltas; Chrome "C" rows plot absolute
        // values, so accumulate per (pid, kind) as we stream.
        let mut totals: std::collections::HashMap<(u64, TraceKind), u64> =
            std::collections::HashMap::new();
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{cpid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(label)
            ),
            &mut out,
        );
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{cpid},\"tid\":0,\"args\":{{\"name\":\"(wire)\"}}}}"
            ),
            &mut out,
        );
        for (pid, name) in &data.names {
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{cpid},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    pid + 1,
                    json_escape(name)
                ),
                &mut out,
            );
        }
        for e in &data.events {
            let tid = if e.pid == u64::MAX { 0 } else { e.pid + 1 };
            let args = format!(
                "{{\"conn\":{},\"msg\":{},\"value\":{}}}",
                e.tag.conn, e.tag.msg, e.tag.value
            );
            let line = match e.kind.class() {
                TraceClass::Span => format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{cpid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{args}}}",
                    e.kind.name(),
                    e.layer.name(),
                    us(e.start_ns),
                    us(e.dur_ns),
                ),
                TraceClass::Counter => {
                    let t = totals.entry((e.pid, e.kind)).or_insert(0);
                    *t += e.tag.value;
                    format!(
                        "{{\"ph\":\"C\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{cpid},\"tid\":{tid},\"ts\":{},\"args\":{{\"value\":{}}}}}",
                        e.kind.name(),
                        e.layer.name(),
                        us(e.start_ns),
                        *t,
                    )
                }
                TraceClass::Instant => format!(
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{cpid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\"args\":{args}}}",
                    e.kind.name(),
                    e.layer.name(),
                    us(e.start_ns),
                ),
            };
            push(line, &mut out);
        }
        if data.dropped > 0 {
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"trace_ring_dropped\",\"pid\":{cpid},\"tid\":0,\"args\":{{\"dropped\":{}}}}}",
                    data.dropped
                ),
                &mut out,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_counts_drops() {
        let s = TraceShared::new(TraceConfig { capacity: 16 });
        for i in 0..20u64 {
            s.push(TraceEvent {
                start_ns: i,
                ..TraceEvent::default()
            });
        }
        let (events, dropped) = s.drain();
        assert_eq!(dropped, 4);
        assert_eq!(events.len(), 16);
        assert_eq!(events.first().unwrap().start_ns, 4);
        assert_eq!(events.last().unwrap().start_ns, 19);
    }

    #[test]
    fn disabled_tracer_is_noop() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.instant(
            SimTime(5),
            0,
            TraceLayer::App,
            TraceKind::MarkStart,
            TraceTag::default(),
        );
    }

    #[test]
    fn chrome_json_is_deterministic_and_integerly_formatted() {
        let data = TraceData {
            events: vec![TraceEvent {
                start_ns: 1_234_567,
                dur_ns: 1_800,
                pid: 2,
                layer: TraceLayer::Kernel,
                kind: TraceKind::Syscall,
                tag: TraceTag::bytes(4),
            }],
            names: vec![(2, "client".into())],
            dropped: 0,
        };
        let a = chrome_trace_json(&[("run".into(), data.clone())]);
        let b = chrome_trace_json(&[("run".into(), data)]);
        assert_eq!(a, b);
        assert!(a.contains("\"ts\":1234.567"));
        assert!(a.contains("\"dur\":1.800"));
        assert!(a.contains("\"name\":\"client\""));
    }

    #[test]
    fn window_markers() {
        let mk = |kind, t| TraceEvent {
            start_ns: t,
            kind,
            ..TraceEvent::default()
        };
        let data = TraceData {
            events: vec![
                mk(TraceKind::MarkStart, 10),
                mk(TraceKind::MarkEnd, 50),
            ],
            names: vec![],
            dropped: 0,
        };
        assert_eq!(data.window(), Some((10, 50)));
    }
}
