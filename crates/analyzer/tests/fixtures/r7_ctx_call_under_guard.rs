//! Fixture: calls handed the process context under a lock guard (R7).
//! Whatever takes the context may charge a cost, and a charge parks.

pub struct Conn {
    combine: Mutex<Option<Combine>>,
    pool: SlotPool,
    handler: Mutex<Option<Handler>>,
}

impl Conn {
    /// A store that may take a COW fault, and so sleep, under the guard.
    pub fn append(&self, ctx: &SimCtx, data: &[u8]) {
        let mut c = self.combine.lock();
        if let Some(st) = c.as_mut() {
            self.pool.write_slot(ctx, st.slot, st.filled, data); // R7
            st.filled += data.len();
        }
    }

    /// A plain call of a handler that charges its own costs.
    pub fn deliver(&self, ctx: &SimCtx, frame: Frame) {
        let handler = self.handler.lock();
        if let Some(h) = handler.as_ref() {
            h(ctx, frame); // R7
        }
    }

    /// Fine: calls that take no context, under the guard.
    pub fn append_uncharged(&self, ctx: &SimCtx, data: &[u8]) -> usize {
        let mut c = self.combine.lock();
        let faults = match c.as_mut() {
            Some(st) => self.pool.store_slot(st.slot, st.filled, data),
            None => 0,
        };
        let room = capacity(&c, ctx.now());
        drop(c);
        charge_cow_faults(ctx, faults);
        room
    }
}

/// Fine: declaring a function that takes the context is not a call.
fn charge_cow_faults(ctx: &SimCtx, faults: usize) {
    let _g = LOG.lock();
    record(faults);
    fn nested(ctx: &SimCtx) {}
}
