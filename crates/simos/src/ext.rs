//! Type-keyed extension maps.
//!
//! Upper layers (the VIA kernel agent, the TCP stack, the sockets table,
//! the SOVIA library instance) attach per-machine or per-process singletons
//! here, so `simos` stays ignorant of everything above it.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// A map from type to a shared singleton of that type.
#[derive(Default)]
pub struct Extensions {
    map: Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>,
}

impl Extensions {
    /// An empty map.
    pub fn new() -> Extensions {
        Extensions::default()
    }

    /// Insert (or replace) the singleton for type `T`.
    pub fn insert<T: Send + Sync + 'static>(&self, value: Arc<T>) {
        self.map.lock().insert(TypeId::of::<T>(), value);
    }

    /// Fetch the singleton for `T`, if present.
    pub fn get<T: Send + Sync + 'static>(&self) -> Option<Arc<T>> {
        self.map
            .lock()
            .get(&TypeId::of::<T>())
            .cloned()
            .map(|a| a.downcast::<T>().expect("extension type mismatch"))
    }

    /// Fetch the singleton for `T`, initializing it with `init` if absent.
    pub fn get_or_init<T: Send + Sync + 'static>(&self, init: impl FnOnce() -> Arc<T>) -> Arc<T> {
        let mut map = self.map.lock();
        let entry = map
            .entry(TypeId::of::<T>())
            .or_insert_with(|| init() as Arc<dyn Any + Send + Sync>);
        Arc::clone(entry)
            .downcast::<T>()
            .expect("extension type mismatch")
    }

    /// Remove every singleton (simulation teardown). The map is dropped
    /// outside its lock; no singleton's drop has an observable effect, so
    /// the hash order it drops them in does not matter.
    pub fn clear(&self) {
        drop(std::mem::take(&mut *self.map.lock()));
    }

    /// Shallow-clone the map (all singletons shared). Used by `fork`, which
    /// models the library state a child keeps sharing with its parent
    /// through shared memory.
    pub fn clone_shared(&self) -> Extensions {
        Extensions {
            map: Mutex::new(self.map.lock().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(Mutex<u32>);

    #[test]
    fn get_or_init_returns_same_instance() {
        let ext = Extensions::new();
        let a = ext.get_or_init(|| Arc::new(Counter(Mutex::new(0))));
        *a.0.lock() += 1;
        let b = ext.get_or_init(|| Arc::new(Counter(Mutex::new(100))));
        assert_eq!(*b.0.lock(), 1, "second get_or_init must not re-init");
    }

    #[test]
    fn get_absent_is_none() {
        let ext = Extensions::new();
        assert!(ext.get::<Counter>().is_none());
    }

    #[test]
    fn clone_shared_shares_singletons() {
        let ext = Extensions::new();
        let a = ext.get_or_init(|| Arc::new(Counter(Mutex::new(0))));
        let ext2 = ext.clone_shared();
        let b = ext2.get::<Counter>().unwrap();
        *b.0.lock() = 42;
        assert_eq!(*a.0.lock(), 42);
    }
}
