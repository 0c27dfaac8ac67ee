//! Executors: where data lives and where kernels run (paper §4.1).
//!
//! Ginkgo's executor is the first object every program creates; it manages
//! memory, runs kernels, synchronizes, and copies data between devices. This
//! module reproduces that contract with four backends:
//!
//! * [`Executor::reference`] — single-threaded host execution, the
//!   correctness baseline;
//! * [`Executor::omp`] — multi-threaded host execution;
//! * [`Executor::cuda`] / [`Executor::hip`] — simulated NVIDIA A100 and AMD
//!   MI100 devices (see `DESIGN.md` for the substitution rationale).
//!
//! Kernels execute real numerics; their duration is charged to the
//! executor's [`Timeline`] using the `pygko-sim` cost model, which is how the
//! benchmark harness measures "time" reproducibly on any host.

pub mod pool;

use crate::base::error::Result;
use crate::log::{Event, Logger, LoggerRegistry};
use crate::observe::{ObserveConfig, Observer};
use crate::sanitize::{Sanitizer, SanitizerReport};
use crate::telemetry::{DetectorConfig, TelemetryServer};
use pool::{LaneStats, PoolStats, WorkerPool};
use pygko_sim::{ChunkWork, DeviceKind, DeviceSpec, Timeline};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Which hardware backend an executor drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Sequential host execution (Ginkgo's `ReferenceExecutor`).
    Reference,
    /// Multi-threaded host execution (Ginkgo's `OmpExecutor`).
    Omp,
    /// Simulated NVIDIA GPU (Ginkgo's `CudaExecutor`).
    Cuda,
    /// Simulated AMD GPU (Ginkgo's `HipExecutor`).
    Hip,
}

impl Backend {
    /// Lower-case name as used by `pyginkgo.device(...)` strings.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Reference => "reference",
            Backend::Omp => "omp",
            Backend::Cuda => "cuda",
            Backend::Hip => "hip",
        }
    }
}

#[derive(Debug)]
struct Inner {
    backend: Backend,
    device_id: usize,
    spec: DeviceSpec,
    timeline: Timeline,
    bytes_allocated: AtomicI64, // atomic: counter
    peak_bytes: AtomicU64,      // atomic: counter
    /// OS threads of the pool (see [`Executor::functional_threads`]).
    threads: usize,
    /// Lazily-spawned persistent worker pool; `None` once initialized means
    /// the executor is functionally single-threaded.
    pool: OnceLock<Option<WorkerPool>>,
    /// Loggers attached to this executor (shared by all handle clones).
    loggers: LoggerRegistry,
    /// The one consumer behind every observability plane; attached to
    /// `loggers` while its config is not inert. The pool's per-dispatch
    /// probe of it is a single relaxed load while no traced solve is live.
    observer: Arc<Observer>,
    /// Runtime sanitizer switch + counters, embedded (not boxed) so the
    /// disabled check in `parallel_chunks` is a single relaxed load.
    sanitizer: Sanitizer,
    /// Construction instant, the epoch for the `gko_uptime_seconds` gauge.
    start: std::time::Instant,
}

/// Non-owning executor handle held by the observer, so the
/// `executor -> observer -> executor` reference pair cannot leak.
#[derive(Clone, Debug, Default)]
pub(crate) struct WeakExecutor(Weak<Inner>);

impl WeakExecutor {
    /// The executor, if any strong handle to it still exists.
    pub(crate) fn upgrade(&self) -> Option<Executor> {
        self.0.upgrade().map(Executor)
    }
}

/// A cheaply-cloneable handle to an execution resource.
///
/// Equality of memory spaces follows Ginkgo: all host executors share the
/// host memory space; each (backend, device id) pair of device executors is
/// its own space, and moving data across spaces costs simulated transfer
/// time.
#[derive(Clone, Debug)]
pub struct Executor(Arc<Inner>);

impl Executor {
    fn make(backend: Backend, device_id: usize, spec: DeviceSpec, pinned: Option<usize>) -> Self {
        /// The host's parallelism, read once: `available_parallelism`
        /// reads cgroup files on every call.
        static HOST: OnceLock<usize> = OnceLock::new();
        let host =
            || *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let threads = match (backend, pinned) {
            (_, Some(threads)) => threads.max(1),
            (Backend::Reference, None) => 1,
            _ => spec.workers.clamp(1, host()),
        };
        Executor(Arc::new_cyclic(|inner| Inner {
            backend,
            device_id,
            spec,
            timeline: Timeline::new(),
            bytes_allocated: AtomicI64::new(0),
            peak_bytes: AtomicU64::new(0),
            threads,
            pool: OnceLock::new(),
            loggers: LoggerRegistry::new(),
            observer: Arc::new(Observer::new(WeakExecutor(inner.clone()))),
            sanitizer: Sanitizer::new(),
            // lint: allow(forbidden-api): uptime gauge epoch — wall-clock
            // construction instant, not simulated kernel time.
            start: std::time::Instant::now(),
        }))
    }

    /// Sequential host executor (the correctness reference).
    pub fn reference() -> Self {
        Executor::make(Backend::Reference, 0, DeviceSpec::single_core(), None)
    }

    /// Multi-threaded host executor with `threads` worker threads, modeled
    /// as a Xeon Platinum 8368 socket (the paper's CPU platform).
    pub fn omp(threads: usize) -> Self {
        Executor::make(Backend::Omp, 0, DeviceSpec::xeon_8368(threads), None)
    }

    /// `omp(threads)` whose pool keeps one OS thread per worker, however
    /// many cores the host has. Test support only: it lets a test run real
    /// interleavings of `threads` lanes on a smaller host.
    #[doc(hidden)]
    pub fn omp_pinned(threads: usize) -> Self {
        let spec = DeviceSpec::xeon_8368(threads);
        Executor::make(Backend::Omp, 0, spec, Some(threads))
    }

    /// Simulated NVIDIA A100 with the given device id.
    pub fn cuda(device_id: usize) -> Self {
        Executor::make(Backend::Cuda, device_id, DeviceSpec::a100(), None)
    }

    /// Simulated AMD Instinct MI100 with the given device id.
    pub fn hip(device_id: usize) -> Self {
        Executor::make(Backend::Hip, device_id, DeviceSpec::mi100(), None)
    }

    /// Executor with a custom device model (for experiments).
    pub fn with_spec(backend: Backend, device_id: usize, spec: DeviceSpec) -> Self {
        Executor::make(backend, device_id, spec, None)
    }

    /// The backend this executor drives.
    pub fn backend(&self) -> Backend {
        self.0.backend
    }

    /// Device id (only meaningful for device backends).
    pub fn device_id(&self) -> usize {
        self.0.device_id
    }

    /// The simulated device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.0.spec
    }

    /// Device name, e.g. `"NVIDIA A100"`.
    pub fn name(&self) -> &str {
        &self.0.spec.name
    }

    /// True for host executors.
    pub fn is_host(&self) -> bool {
        self.0.spec.kind == DeviceKind::Cpu
    }

    /// The virtual clock all kernels on this executor charge into.
    pub fn timeline(&self) -> &Timeline {
        &self.0.timeline
    }

    /// Blocks until all queued device work completes.
    ///
    /// Kernels in this simulation complete synchronously, so this only
    /// mirrors the API shape (benchmarks call it before reading the clock,
    /// exactly as the paper does around its timers).
    pub fn synchronize(&self) {}

    /// Whether `self` and `other` address the same memory space.
    pub fn same_memory_space(&self, other: &Executor) -> bool {
        match (self.is_host(), other.is_host()) {
            (true, true) => true,
            (false, false) => {
                self.0.backend == other.0.backend && self.0.device_id == other.0.device_id
            }
            _ => false,
        }
    }

    /// Number of OS threads that run chunked kernels: 1 on the reference
    /// backend, otherwise `spec().workers` capped at the host's available
    /// parallelism (read once per process).
    ///
    /// The spec's workers are logical, the pool's threads physical. Chunk
    /// bounds and every virtual charge come from the spec, never from this
    /// count, so it moves no result bit and no modeled time. Threads beyond
    /// the host's cores only timeslice: on 2 vCPUs, 16 threads ran CG on 400
    /// and 3 600 rows 5-6x slower per iteration than 2.
    pub fn functional_threads(&self) -> usize {
        self.0.threads
    }

    /// The executor's persistent worker pool, spawned on first use; `None`
    /// when [`Executor::functional_threads`] is 1: chunked kernels run inline.
    pub fn worker_pool(&self) -> Option<&WorkerPool> {
        self.0
            .pool
            .get_or_init(|| {
                let threads = self.functional_threads();
                (threads > 1).then(|| WorkerPool::new(threads))
            })
            .as_ref()
    }

    /// Activity counters of the worker pool (all zeros when the executor has
    /// no pool or never dispatched).
    pub fn pool_stats(&self) -> PoolStats {
        // Read without forcing pool creation: an executor that never ran a
        // parallel kernel reports zeros.
        self.0
            .pool
            .get()
            .and_then(|p| p.as_ref())
            .map(|p| p.stats())
            .unwrap_or_default()
    }

    /// Per-lane activity counters of the worker pool, indexed by lane id
    /// (empty when the executor has no pool or never dispatched).
    pub fn pool_lane_stats(&self) -> Vec<LaneStats> {
        self.0
            .pool
            .get()
            .and_then(|p| p.as_ref())
            .map(|p| p.lane_stats())
            .unwrap_or_default()
    }

    /// Charges one kernel launch that performed the given chunks of work.
    pub fn launch(&self, chunks: &[ChunkWork]) {
        let t = self.0.spec.kernel_time_ns(chunks);
        let flops: f64 = chunks.iter().map(|c| c.flops).sum();
        self.0.timeline.charge_kernel(t, flops);
    }

    /// Charges a host-to-device upload (no cost on host executors).
    pub fn charge_upload(&self, bytes: usize) {
        if !self.is_host() {
            let t = self.0.spec.copy_time_ns(bytes);
            self.0.timeline.charge_copy(t, bytes);
        }
    }

    /// Charges a device-to-host download (no cost on host executors).
    pub fn charge_download(&self, bytes: usize) {
        if !self.is_host() {
            let t = self.0.spec.copy_time_ns(bytes);
            self.0.timeline.charge_copy(t, bytes);
        }
    }

    /// The registry of loggers observing this executor's events.
    ///
    /// Kernels instrumented with [`crate::log::OpTimer`] emit
    /// `LinOpApplyStarted`/`Completed` here; the memory accountant emits
    /// `AllocationComplete`; parallel kernel dispatches emit `PoolDispatch`;
    /// and solvers forward their iteration/solve events to their system
    /// operator's executor, so an executor-attached logger sees the whole
    /// picture.
    pub fn loggers(&self) -> &LoggerRegistry {
        &self.0.loggers
    }

    /// Attaches a logger to this executor (convenience for
    /// `loggers().add(..)`).
    pub fn add_logger(&self, logger: Arc<dyn Logger>) {
        self.0.loggers.add(logger);
    }

    /// Detaches every logger from this executor and turns every
    /// [`Executor::observe`] plane off (retained traces and the flame tree
    /// stay readable).
    pub fn clear_loggers(&self) {
        self.observe(ObserveConfig::default());
        self.0.loggers.clear();
    }

    /// Sets which observability planes this executor runs — the single
    /// arming path for the metrics, flight, trace and profile planes of its
    /// [`Observer`]. `config` is the complete desired state (after the
    /// implications documented on [`ObserveConfig`]); planes it leaves out
    /// are switched off, and `ObserveConfig::default()` returns the executor
    /// to the inert path. To change one plane, start from
    /// [`Executor::observing`].
    ///
    /// A plane keeps its state while it stays on: the metrics plane its
    /// counters, the flight plane its reports (new detector thresholds apply
    /// from the next solve). Switching either on or off starts it afresh.
    /// Retained traces and the flame tree outlive every re-arm and stay
    /// readable through [`Executor::observer`] after their plane is switched
    /// off (an in-flight trace is abandoned then). The observer's solve
    /// counter is never reset, so a solve's number is unique for the
    /// executor's lifetime.
    pub fn observe(&self, config: ObserveConfig) {
        self.0.observer.observe(config, &self.0.loggers);
    }

    /// The [`ObserveConfig`] in force (implications applied).
    pub fn observing(&self) -> ObserveConfig {
        self.0.observer.config()
    }

    /// The executor's observer: every plane's read side (metrics snapshot,
    /// flight reports, traces, flame profile), handed out as value types.
    pub fn observer(&self) -> &Observer {
        &self.0.observer
    }

    /// Real seconds since this executor was constructed (the
    /// `gko_uptime_seconds` gauge). Wall clock, not the virtual timeline.
    pub fn uptime_seconds(&self) -> f64 {
        self.0.start.elapsed().as_secs_f64()
    }

    /// Starts the telemetry HTTP exporter for this executor on `addr`
    /// (e.g. `"127.0.0.1:9185"`, or port `0` to let the OS pick), switching
    /// the metrics registry and flight recorder on (other planes keep their
    /// setting) so `/metrics` and `/runs` have content. Returns the server
    /// handle; dropping it (or calling [`TelemetryServer::shutdown`]) stops
    /// the exporter.
    pub fn serve_telemetry(&self, addr: &str) -> Result<TelemetryServer> {
        let current = self.observing();
        self.observe(ObserveConfig {
            metrics: true,
            flight: current
                .flight
                .clone()
                .or_else(|| Some(DetectorConfig::default())),
            ..current
        });
        TelemetryServer::bind(self.clone(), addr)
    }

    /// Enables the runtime sanitizer on this executor (shared by all handle
    /// clones): every subsequent pool dispatch records which lane claimed
    /// which chunk and verifies, after the drain, that the claims exactly
    /// partition the chunk range — machine-checking the disjointness claim
    /// the pool's `PieceTable` safety rests on. A violated partition
    /// panics with a diagnostic naming the piece and lanes involved.
    ///
    /// While disabled (the default) the cost is one relaxed atomic load per
    /// dispatch, mirroring the logger registry's off path.
    pub fn enable_sanitizer(&self) {
        self.0.sanitizer.set_enabled(true);
    }

    /// Turns the runtime sanitizer back off (counters are retained).
    pub fn disable_sanitizer(&self) {
        self.0.sanitizer.set_enabled(false);
    }

    /// The executor's sanitizer state (switch + counters).
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.0.sanitizer
    }

    /// Snapshot of the sanitizer's verification counters.
    pub fn sanitizer_report(&self) -> SanitizerReport {
        self.0.sanitizer.report()
    }

    /// Records an allocation in the memory accountant.
    pub fn track_alloc(&self, bytes: usize) {
        let now = self
            .0
            .bytes_allocated
            .fetch_add(bytes as i64, Ordering::Relaxed)
            + bytes as i64;
        self.0
            .peak_bytes
            .fetch_max(now.max(0) as u64, Ordering::Relaxed);
        self.0.loggers.log(&Event::AllocationComplete { bytes });
    }

    /// Records a deallocation.
    pub fn track_dealloc(&self, bytes: usize) {
        self.0
            .bytes_allocated
            .fetch_sub(bytes as i64, Ordering::Relaxed);
    }

    /// Bytes currently allocated on this executor.
    pub fn bytes_allocated(&self) -> i64 {
        self.0.bytes_allocated.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.0.peak_bytes.load(Ordering::Relaxed)
    }
}

impl PartialEq for Executor {
    /// Handle identity: two handles are equal iff they refer to the same
    /// executor instance.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_report_names() {
        assert_eq!(Executor::reference().backend().name(), "reference");
        assert_eq!(Executor::omp(4).backend().name(), "omp");
        assert_eq!(Executor::cuda(0).backend().name(), "cuda");
        assert_eq!(Executor::hip(0).backend().name(), "hip");
    }

    #[test]
    fn memory_spaces() {
        let r = Executor::reference();
        let o = Executor::omp(8);
        let c0 = Executor::cuda(0);
        let c1 = Executor::cuda(1);
        let h0 = Executor::hip(0);
        assert!(r.same_memory_space(&o), "host executors share memory");
        assert!(!r.same_memory_space(&c0));
        assert!(!c0.same_memory_space(&c1), "different devices differ");
        assert!(!c0.same_memory_space(&h0), "different vendors differ");
        assert!(c0.same_memory_space(&Executor::cuda(0)));
    }

    #[test]
    fn launches_charge_the_timeline() {
        let exec = Executor::cuda(0);
        let before = exec.timeline().snapshot();
        exec.launch(&[ChunkWork::new(1.0e6, 0.0, 2.0e5)]);
        let d = exec.timeline().snapshot().since(&before);
        assert_eq!(d.kernels, 1);
        assert!(d.ns > 0);
        assert_eq!(d.flops, 200_000);
    }

    #[test]
    fn host_copies_are_free() {
        let exec = Executor::reference();
        let before = exec.timeline().snapshot();
        exec.charge_upload(1 << 20);
        exec.charge_download(1 << 20);
        assert_eq!(exec.timeline().snapshot().since(&before).copies, 0);
    }

    #[test]
    fn allocation_accounting_tracks_peak() {
        let exec = Executor::reference();
        exec.track_alloc(1000);
        exec.track_alloc(500);
        exec.track_dealloc(1000);
        assert_eq!(exec.bytes_allocated(), 500);
        assert!(exec.peak_bytes() >= 1500);
        exec.track_dealloc(500);
        assert_eq!(exec.bytes_allocated(), 0);
    }

    #[test]
    fn clone_shares_identity() {
        let a = Executor::cuda(0);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(a != Executor::cuda(0), "fresh instance is a new handle");
        b.track_alloc(64);
        assert_eq!(a.bytes_allocated(), 64);
    }

    #[test]
    fn omp_thread_count_flows_into_spec() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        for n in [1, 2, 16, 1000] {
            let e = Executor::omp(n);
            assert_eq!(e.spec().workers, n);
            assert_eq!(e.functional_threads(), n.min(host), "omp({n})");
        }
        let cuda = Executor::cuda(0);
        assert_eq!(cuda.functional_threads(), cuda.spec().workers.min(host));
        assert_eq!(Executor::reference().functional_threads(), 1);
        assert_eq!(Executor::omp_pinned(16).functional_threads(), 16);
    }

    #[test]
    fn reference_has_no_pool_and_zero_stats() {
        let e = Executor::reference();
        assert_eq!(e.pool_stats(), pool::PoolStats::default());
        assert!(e.worker_pool().is_none());
        assert_eq!(e.functional_threads(), 1);
    }

    #[test]
    fn pool_is_lazy_and_shared_across_clones() {
        let e = Executor::omp(3);
        assert_eq!(e.pool_stats().dispatches, 0, "no pool before first use");
        let p1 = e.worker_pool().unwrap() as *const _;
        let p2 = e.clone().worker_pool().unwrap() as *const _;
        assert_eq!(p1, p2, "clones share one pool");
        assert_eq!(e.worker_pool().unwrap().threads(), e.functional_threads());
    }
}
