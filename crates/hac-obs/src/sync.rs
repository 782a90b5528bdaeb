//! Lock acquisition that ignores poisoning.
//!
//! The workspace's shared state (VFS node tables, the HAC state, the
//! metrics registry, span rings, caches) is kept consistent by each
//! critical section, not by unwinding. A panic while one of these locks is
//! held therefore must not turn every later caller into a second panic:
//! [`lock`], [`read`] and [`write`] take the guard out of a
//! [`PoisonError`] and carry on with the data as the panicking thread
//! left it.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, ignoring poisoning.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes a shared guard on `l`, ignoring poisoning.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes an exclusive guard on `l`, ignoring poisoning.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_locks_still_hand_out_their_data() {
        let m = Arc::new(Mutex::new(vec![1]));
        let l = Arc::new(RwLock::new(vec![1]));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let panicked = std::thread::spawn(move || {
            let mut g = lock(&m2);
            let mut w = write(&l2);
            g.push(2);
            w.push(2);
            panic!("poison both locks");
        })
        .join();
        assert!(panicked.is_err());
        assert!(m.is_poisoned() && l.is_poisoned());
        lock(&m).push(3);
        write(&l).push(3);
        assert_eq!(*lock(&m), [1, 2, 3]);
        assert_eq!(*read(&l), [1, 2, 3]);
    }
}
