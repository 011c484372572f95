//! Type-keyed extension maps.
//!
//! Upper layers (the VIA kernel agent, the TCP stack, the sockets table,
//! the SOVIA library instance) attach per-machine or per-process singletons
//! here, so `simos` stays ignorant of everything above it.
//!
//! A process holds at most three singletons and a machine about six, and
//! every socket call looks one up, so the map is a short vector scanned by
//! `TypeId` rather than a hashed map: a scan of a few entries costs less
//! than one SipHash.

use std::any::{Any, TypeId};
use std::sync::Arc;

use parking_lot::Mutex;

type Entry = (TypeId, Arc<dyn Any + Send + Sync>);

/// A map from type to a shared singleton of that type.
#[derive(Default)]
pub struct Extensions {
    entries: Mutex<Vec<Entry>>,
}

fn find<T: Send + Sync + 'static>(entries: &[Entry]) -> Option<Arc<T>> {
    let (_, value) = entries.iter().find(|(id, _)| *id == TypeId::of::<T>())?;
    Some(
        Arc::clone(value)
            .downcast::<T>()
            .expect("extension type mismatch"),
    )
}

impl Extensions {
    /// An empty map.
    pub fn new() -> Extensions {
        Extensions::default()
    }

    /// Insert (or replace, in place) the singleton for type `T`.
    pub fn insert<T: Send + Sync + 'static>(&self, value: Arc<T>) {
        let mut entries = self.entries.lock();
        match entries.iter_mut().find(|(id, _)| *id == TypeId::of::<T>()) {
            Some((_, slot)) => *slot = value,
            None => entries.push((TypeId::of::<T>(), value)),
        }
    }

    /// Fetch the singleton for `T`, if present.
    pub fn get<T: Send + Sync + 'static>(&self) -> Option<Arc<T>> {
        find(&self.entries.lock())
    }

    /// Fetch the singleton for `T`, initializing it with `init` if absent.
    pub fn get_or_init<T: Send + Sync + 'static>(&self, init: impl FnOnce() -> Arc<T>) -> Arc<T> {
        let mut entries = self.entries.lock();
        find(&entries).unwrap_or_else(|| {
            let value = init();
            entries.push((
                TypeId::of::<T>(),
                Arc::clone(&value) as Arc<dyn Any + Send + Sync>,
            ));
            value
        })
    }

    /// Remove every singleton (simulation teardown). The entries are
    /// dropped outside the lock, in insertion order.
    pub fn clear(&self) {
        drop(std::mem::take(&mut *self.entries.lock()));
    }

    /// Shallow-clone the map (all singletons shared). Used by `fork`, which
    /// models the library state a child keeps sharing with its parent
    /// through shared memory.
    pub fn clone_shared(&self) -> Extensions {
        Extensions {
            entries: Mutex::new(self.entries.lock().clone()),
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
    fn get_or_init_runs_init_once() {
        let ext = Extensions::new();
        let mut inits = 0;
        for _ in 0..3 {
            ext.get_or_init(|| {
                inits += 1;
                Arc::new(Counter(Mutex::new(0)))
            });
        }
        assert_eq!(inits, 1);
    }

    #[test]
    fn get_absent_is_none() {
        let ext = Extensions::new();
        assert!(ext.get::<Counter>().is_none());
    }

    #[test]
    fn insert_replaces_in_place() {
        let ext = Extensions::new();
        ext.insert(Arc::new(Counter(Mutex::new(1))));
        ext.insert(Arc::new(7u64));
        ext.insert(Arc::new(Counter(Mutex::new(2))));
        assert_eq!(*ext.get::<Counter>().unwrap().0.lock(), 2);
        assert_eq!(*ext.get::<u64>().unwrap(), 7);
        assert_eq!(
            ext.entries.lock().len(),
            2,
            "replacing must not add an entry"
        );
        assert_eq!(ext.entries.lock()[0].0, TypeId::of::<Counter>());
    }

    #[test]
    fn clear_empties_the_map() {
        let ext = Extensions::new();
        let a = ext.get_or_init(|| Arc::new(Counter(Mutex::new(0))));
        ext.insert(Arc::new(7u64));
        ext.clear();
        assert!(ext.get::<Counter>().is_none());
        assert!(ext.get::<u64>().is_none());
        assert_eq!(Arc::strong_count(&a), 1, "clear drops the map's references");
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
