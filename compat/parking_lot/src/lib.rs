//! Offline stand-in for the one piece of `parking_lot` this workspace
//! uses: a `Mutex` whose `lock()` returns the guard directly.
//!
//! The build container has no crates.io access, so the workspace pins this
//! path crate instead of the real `parking_lot` (see `[workspace.dependencies]`
//! in the root manifest). Poisoning is deliberately swallowed — parking_lot
//! has no poisoning, and the simulator relies on being able to lock after
//! a process panicked.

use std::sync::PoisonError;

/// RAII guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// A mutual-exclusion primitive (parking_lot-flavoured: no poisoning,
/// guard-returning `lock()` with no `Result`).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the current (OS) thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn lock_survives_panicked_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die holding the lock");
        })
        .join();
        // parking_lot semantics: no poisoning, lock still usable.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }
}
