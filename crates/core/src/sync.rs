//! Poison-tolerant locking.
//!
//! The parallel runner and the serving daemon isolate panics with
//! `catch_unwind`, which means a `Mutex` can be poisoned while the
//! process keeps running. All of the state those mutexes guard (result
//! slots, the result cache, the job receiver) is valid at
//! every instruction boundary — each critical section either fully
//! applies or was a read — so the right response to poison is to keep
//! going, not to cascade the panic into every later caller. This helper
//! is the single place that policy lives in the workspace.

use std::sync::{Mutex, MutexGuard};

/// Lock `m`, recovering the guard if a previous holder panicked.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(41));
        let poisoner = {
            let m = m.clone();
            std::thread::spawn(move || {
                let _guard = m.lock().unwrap();
                panic!("poison it");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(m.lock().is_err(), "mutex should be poisoned");
        let mut guard = lock_recover(&m);
        *guard += 1;
        assert_eq!(*guard, 42, "state survives the recovery");
    }
}
