//! A minimal reentrant mutex built on `std` primitives.
//!
//! `parking_lot::ReentrantMutex` cannot be vendored in this offline build, so
//! the GIL analog uses this implementation instead: a plain mutex/condvar
//! pair plus an owner tag, allowing the owning thread to re-lock without
//! deadlocking (exactly the property the CPython GIL has).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Process-unique numeric thread ids (`std::thread::ThreadId` does not expose
/// a stable integer, so we mint our own).
// atomic: counter
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// A mutex the owning thread may lock again without deadlocking.
///
/// Only the zero-sized payload case is needed here, so no data access is
/// provided — the guard is purely a critical-section token.
pub struct ReentrantMutex {
    /// Numeric id of the owning thread, 0 when unowned. Written only while
    /// `inner` is held; read lock-free on the reentrant fast path (a thread
    /// can only observe its *own* id there, which it itself published).
    owner: AtomicU64, // atomic: flag
    /// Recursion depth; touched only by the owning thread.
    depth: UnsafeCell<usize>,
    inner: Mutex<()>, // lock: reentrant.inner
    unlocked: Condvar,
}

// SAFETY: `depth` is only accessed by the thread that owns the lock, and
// ownership handoff is synchronized through `inner`.
unsafe impl Sync for ReentrantMutex {}
unsafe impl Send for ReentrantMutex {}

impl ReentrantMutex {
    /// Creates an unlocked mutex (usable in `static` position).
    pub const fn new() -> Self {
        ReentrantMutex {
            owner: AtomicU64::new(0),
            depth: UnsafeCell::new(0),
            inner: Mutex::new(()),
            unlocked: Condvar::new(),
        }
    }

    /// Acquires the lock, returning a guard that releases it on drop.
    pub fn lock(&self) -> ReentrantGuard<'_> {
        let me = current_thread_id();
        if self.owner.load(Ordering::Acquire) == me {
            // Reentrant fast path: we already hold the lock.
            // SAFETY: `owner == me` means this thread holds the lock, so it
            // is the only one touching `depth`.
            unsafe { *self.depth.get() += 1 };
            return ReentrantGuard { mutex: self };
        }
        // `inner` guards no data (ownership lives in `owner`), so a poisoned
        // lock has nothing inconsistent behind it and is recovered.
        let mut held = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while self.owner.load(Ordering::Relaxed) != 0 {
            held = self
                .unlocked
                .wait(held)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.owner.store(me, Ordering::Release);
        // SAFETY: we just became the owner under `inner`, so no other
        // thread can reach `depth` until we release ownership.
        unsafe { *self.depth.get() = 1 };
        ReentrantGuard { mutex: self }
    }
}

impl Default for ReentrantMutex {
    fn default() -> Self {
        ReentrantMutex::new()
    }
}

/// Lock token returned by [`ReentrantMutex::lock`].
pub struct ReentrantGuard<'a> {
    mutex: &'a ReentrantMutex,
}

impl Drop for ReentrantGuard<'_> {
    fn drop(&mut self) {
        // SAFETY: only the owning thread holds guards, so `depth` is ours.
        let depth = unsafe { &mut *self.mutex.depth.get() };
        *depth -= 1;
        if *depth == 0 {
            let _held = self
                .mutex
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.mutex.owner.store(0, Ordering::Release);
            self.mutex.unlocked.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn reentrant_locking_does_not_deadlock() {
        let m = ReentrantMutex::new();
        let g1 = m.lock();
        let g2 = m.lock();
        drop(g2);
        drop(g1);
        let _g3 = m.lock();
    }

    #[test]
    fn excludes_other_threads() {
        let m = Arc::new(ReentrantMutex::new());
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let _g = m.lock();
                        // Non-atomic read-modify-write under the lock; torn
                        // updates would lose counts.
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn nested_guards_release_in_any_order() {
        let m = ReentrantMutex::new();
        let g1 = m.lock();
        let g2 = m.lock();
        drop(g1);
        drop(g2);
        // Another thread can now acquire it.
        let m = Arc::new(m);
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            let _g = m2.lock();
        })
        .join()
        .unwrap();
    }
}
