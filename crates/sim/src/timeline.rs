//! Per-executor virtual clocks and activity counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically advancing virtual clock plus activity counters.
///
/// Every executor owns one `Timeline`. Kernels charge their modeled duration
/// with [`Timeline::advance_ns`]; benchmark harnesses snapshot the timeline
/// before and after a measured region and report the difference, mirroring
/// the paper's `steady_clock`-around-`synchronize()` methodology.
///
/// All fields are atomics so concurrently executing kernels (the parallel
/// executors run real threads) can charge time without locks. Virtual time is
/// cumulative work time, not wall time, so concurrent charges simply add.
#[derive(Debug, Default)]
pub struct Timeline {
    ns: AtomicU64,
    kernels: AtomicU64,
    copies: AtomicU64,
    bytes_copied: AtomicU64,
    flops: AtomicU64,
}

/// A point-in-time copy of a [`Timeline`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineSnapshot {
    /// Virtual nanoseconds elapsed since construction/reset.
    pub ns: u64,
    /// Kernels launched.
    pub kernels: u64,
    /// Host<->device copies performed.
    pub copies: u64,
    /// Bytes moved by copies.
    pub bytes_copied: u64,
    /// Floating point operations charged.
    pub flops: u64,
}

impl TimelineSnapshot {
    /// Elapsed virtual seconds.
    pub fn seconds(&self) -> f64 {
        self.ns as f64 * 1e-9
    }

    /// Counter-wise difference `self - earlier`; saturates at zero so a
    /// stale snapshot cannot produce nonsense.
    pub fn since(&self, earlier: &TimelineSnapshot) -> TimelineSnapshot {
        TimelineSnapshot {
            ns: self.ns.saturating_sub(earlier.ns),
            kernels: self.kernels.saturating_sub(earlier.kernels),
            copies: self.copies.saturating_sub(earlier.copies),
            bytes_copied: self.bytes_copied.saturating_sub(earlier.bytes_copied),
            flops: self.flops.saturating_sub(earlier.flops),
        }
    }
}

impl Timeline {
    /// Creates a timeline at virtual time zero.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Advances the clock by a modeled duration and counts one kernel.
    pub fn charge_kernel(&self, ns: f64, flops: f64) {
        self.advance_ns(ns);
        self.kernels.fetch_add(1, Ordering::Relaxed);
        self.flops
            .fetch_add(flops.max(0.0) as u64, Ordering::Relaxed);
    }

    /// Advances the clock by a modeled copy duration and counts it.
    pub fn charge_copy(&self, ns: f64, bytes: usize) {
        self.advance_ns(ns);
        self.copies.fetch_add(1, Ordering::Relaxed);
        self.bytes_copied.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Advances the clock by `ns` nanoseconds (rounded to the nearest whole
    /// nanosecond; negative charges are ignored).
    pub fn advance_ns(&self, ns: f64) {
        if ns > 0.0 {
            self.ns.fetch_add(ns.round() as u64, Ordering::Relaxed);
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Snapshots all counters.
    pub fn snapshot(&self) -> TimelineSnapshot {
        TimelineSnapshot {
            ns: self.ns.load(Ordering::Relaxed),
            kernels: self.kernels.load(Ordering::Relaxed),
            copies: self.copies.load(Ordering::Relaxed),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            flops: self.flops.load(Ordering::Relaxed),
        }
    }

    /// Resets everything to zero (between benchmark repetitions).
    pub fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
        self.kernels.store(0, Ordering::Relaxed);
        self.copies.store(0, Ordering::Relaxed);
        self.bytes_copied.store(0, Ordering::Relaxed);
        self.flops.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let t = Timeline::new();
        t.charge_kernel(100.0, 50.0);
        t.charge_kernel(200.4, 25.0);
        t.charge_copy(1000.0, 4096);
        let s = t.snapshot();
        assert_eq!(s.ns, 1300);
        assert_eq!(s.kernels, 2);
        assert_eq!(s.copies, 1);
        assert_eq!(s.bytes_copied, 4096);
        assert_eq!(s.flops, 75);
    }

    #[test]
    fn negative_charge_is_ignored() {
        let t = Timeline::new();
        t.advance_ns(-5.0);
        assert_eq!(t.now_ns(), 0);
    }

    #[test]
    fn snapshot_difference() {
        let t = Timeline::new();
        t.charge_kernel(500.0, 10.0);
        let a = t.snapshot();
        t.charge_kernel(250.0, 5.0);
        let d = t.snapshot().since(&a);
        assert_eq!(d.ns, 250);
        assert_eq!(d.kernels, 1);
        assert!((d.seconds() - 2.5e-7).abs() < 1e-15);
    }

    #[test]
    fn reset_zeroes_counters() {
        let t = Timeline::new();
        t.charge_copy(10.0, 10);
        t.reset();
        assert_eq!(t.snapshot(), TimelineSnapshot::default());
    }

    #[test]
    fn concurrent_charges_are_not_lost() {
        use std::sync::Arc;
        let t = Arc::new(Timeline::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.advance_ns(1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.now_ns(), 4000);
    }
}
