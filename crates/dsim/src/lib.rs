//! # dsim — deterministic discrete-event simulation kernel
//!
//! The foundation of the SOVIA reproduction: a virtual-time executor whose
//! *processes* are stackful coroutines, run one at a time on the thread that
//! calls [`Simulation::run`]. Protocol code (VIPL, TCP, the SOVIA layer) is
//! written in ordinary blocking style, while every microsecond reported by
//! the benchmarks comes from the explicit cost model, not from host
//! wall-clock.
//!
//! Key pieces:
//!
//! * [`Simulation`] / [`SimHandle`] / [`SimCtx`] — the executor. Spawn
//!   processes, schedule callbacks, sleep in virtual time.
//! * [`sync`] — condition variables, queues, semaphores and flags on the
//!   virtual clock, with an optional *wake delay* that models the cost of a
//!   cross-thread signal (the paper's "tens of microseconds" Linux thread
//!   synchronization penalty).
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond time.
//! * [`rng`] — seeded RNGs and verifiable byte patterns for payloads.
//!
//! ## Example
//!
//! ```
//! use dsim::{Simulation, SimDuration};
//! use dsim::sync::SimQueue;
//! use std::sync::Arc;
//!
//! let mut sim = Simulation::new();
//! let q = SimQueue::<u32>::new(&sim.handle());
//!
//! let q1 = Arc::clone(&q);
//! sim.spawn("producer", move |ctx| {
//!     ctx.sleep(SimDuration::from_micros(3));
//!     q1.push(7);
//! });
//! let q2 = Arc::clone(&q);
//! sim.spawn("consumer", move |ctx| {
//!     let v = q2.pop(ctx);
//!     assert_eq!(v, 7);
//!     assert_eq!(ctx.now().as_nanos(), 3_000);
//! });
//! sim.run().unwrap();
//! ```

#![warn(missing_docs)]

mod coro;
mod sched;
mod time;

pub mod buf;
pub mod rng;
pub mod sync;
pub mod trace;

pub use buf::Payload;
pub use sched::{
    ProcId, ProcStats, SchedConfig, SchedStats, Shutdown, SimCtx, SimError, SimHandle, Simulation,
    WakeReason,
};
pub use time::{SimDuration, SimTime};
pub use trace::{
    chrome_trace_json, TraceClass, TraceConfig, TraceData, TraceEvent, TraceKind, TraceLayer,
    TraceTag, Tracer,
};
