//! Fixture: host lock guards alive across blocking `SimCtx` calls (R7).

pub struct Shared {
    state: Mutex<Vec<u32>>,
    queue: Arc<SimQueue<u32>>,
    cv: SimCondvar,
}

impl Shared {
    /// A `let`-bound guard alive across a sleep.
    pub fn held_across_sleep(&self, ctx: &SimCtx) {
        let mut st = self.state.lock();
        st.push(1);
        ctx.sleep(SimDuration::from_micros(1)); // R7
    }

    /// A guard alive across a traced charge: the context is its receiver,
    /// not its first argument.
    pub fn held_across_charge(&self, ctx: &SimCtx) {
        let st = self.state.lock();
        let d = SimDuration::from_nanos(u64::from(st[0]));
        ctx.charge(TraceLayer::Via, TraceKind::Poll, d, TraceTag::default()); // R7
    }

    /// The temporary guard of an `if let` scrutinee lives through the block.
    pub fn scrutinee_across_pop(&self, ctx: &SimCtx) -> u32 {
        if let Some(v) = self.state.lock().last() {
            return *v + self.queue.pop(ctx); // R7
        }
        0
    }

    /// Fine: the guard is dropped before blocking.
    pub fn dropped_first(&self, ctx: &SimCtx) {
        let mut st = self.state.lock();
        st.push(2);
        drop(st);
        ctx.yield_now();
    }

    /// Fine: a temporary guard dies with its statement, and `Vec::pop()`
    /// takes no `SimCtx`.
    pub fn temporaries(&self, ctx: &SimCtx) {
        let _ = self.state.lock().pop();
        if self.state.lock().is_empty() {
            self.cv.wait(ctx);
        }
    }
}
