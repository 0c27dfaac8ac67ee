//! Device descriptions and the kernel cost model.

use crate::cost::ChunkWork;
use std::collections::BinaryHeap;

/// Broad device class; affects defaults and reporting only — all timing comes
/// from the numeric fields of [`DeviceSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// Host processor (OpenMP-style threading in Ginkgo terms).
    Cpu,
    /// Discrete accelerator with its own memory (CUDA/HIP executors).
    Gpu,
}

/// A simulated execution platform.
///
/// A "worker" is the unit of concurrent progress the cost model schedules
/// chunks onto: a hardware warp/wavefront execution slot on GPUs, a thread on
/// CPUs. Aggregate rates cap the sum over workers, which is how bandwidth
/// saturation appears.
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Human-readable device name, e.g. `"NVIDIA A100"`.
    pub name: String,
    /// CPU or GPU.
    pub kind: DeviceKind,
    /// Number of concurrently progressing workers.
    pub workers: usize,
    /// SIMD/warp width of one worker. Kernels use this to decide chunk
    /// granularity; lanes left idle by short rows are wasted work.
    pub simd_width: usize,
    /// Aggregate streaming memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Streaming bandwidth one worker can sustain alone, GB/s.
    pub worker_bw_gbps: f64,
    /// Aggregate peak arithmetic rate in GFLOP/s.
    pub flops_gflops: f64,
    /// Multiplier applied to randomly-gathered bytes (cache-unfriendly
    /// accesses such as `x[col[i]]` in SpMV).
    pub random_access_penalty: f64,
    /// Fixed cost of launching one kernel / opening one parallel region, ns.
    pub kernel_launch_ns: f64,
    /// Per-chunk scheduling overhead, ns (task dispatch, warp scheduling).
    pub chunk_overhead_ns: f64,
    /// Host<->device copy latency, ns (0 for CPU devices).
    pub copy_latency_ns: f64,
    /// Host<->device copy bandwidth, GB/s (PCIe for GPUs).
    pub copy_bw_gbps: f64,
}

impl DeviceSpec {
    /// NVIDIA A100-SXM4-40GB model.
    ///
    /// Provenance: 108 SMs x 4 warp schedulers = 432 warp slots; 1555 GB/s
    /// HBM2e; FP32 peak 19.5 TFLOP/s (we use an achievable 16 TFLOP/s);
    /// ~8 us launch-to-completion latency for a null kernel including the
    /// stream synchronization the benchmarks perform (launch alone is
    /// ~4 us); PCIe 4.0 x16 ~ 25 GB/s effective.
    pub fn a100() -> Self {
        DeviceSpec {
            name: "NVIDIA A100".to_owned(),
            kind: DeviceKind::Gpu,
            workers: 432,
            simd_width: 32,
            mem_bw_gbps: 1555.0,
            worker_bw_gbps: 7.5,
            flops_gflops: 16_000.0,
            random_access_penalty: 1.55,
            kernel_launch_ns: 8_000.0,
            chunk_overhead_ns: 8.0,
            copy_latency_ns: 10_000.0,
            copy_bw_gbps: 25.0,
        }
    }

    /// AMD Instinct MI100 model.
    ///
    /// Provenance: 120 CUs x 4 SIMD units = 480 wavefront slots of width 64;
    /// 1228 GB/s HBM2; FP32 peak 23 TFLOP/s (achievable ~15); HIP
    /// launch+sync latency is measured higher than CUDA's (~11 us);
    /// slightly worse cache
    /// behaviour on irregular gathers in published SpMV studies
    /// (Tsai/Cojean/Anzt 2020), hence the higher random-access penalty.
    pub fn mi100() -> Self {
        DeviceSpec {
            name: "AMD Instinct MI100".to_owned(),
            kind: DeviceKind::Gpu,
            workers: 480,
            simd_width: 64,
            mem_bw_gbps: 1228.0,
            worker_bw_gbps: 6.0,
            flops_gflops: 15_000.0,
            random_access_penalty: 1.8,
            kernel_launch_ns: 11_000.0,
            chunk_overhead_ns: 10.0,
            copy_latency_ns: 12_000.0,
            copy_bw_gbps: 22.0,
        }
    }

    /// One socket of the HoreKa CPU node: Intel Xeon Platinum 8368
    /// (Ice Lake, 38 cores), limited to `threads` worker threads as the
    /// paper's thread sweep does (1..32).
    ///
    /// Provenance: 8-channel DDR4-3200 = 204.8 GB/s per socket (~175 GB/s
    /// achievable stream); a single Ice Lake core sustains ~12 GB/s;
    /// AVX-512 FP32 peak ~2.4 GFLOP/s/core/GHz x 2.4 GHz x 38 cores; an
    /// OpenMP parallel-for region costs a couple of microseconds to fork and
    /// join.
    pub fn xeon_8368(threads: usize) -> Self {
        let threads = threads.max(1);
        DeviceSpec {
            name: format!("Intel Xeon Platinum 8368 ({threads} threads)"),
            kind: DeviceKind::Cpu,
            workers: threads,
            simd_width: 16,
            mem_bw_gbps: 175.0,
            worker_bw_gbps: 12.0,
            flops_gflops: 70.0 * threads as f64,
            random_access_penalty: 1.35,
            kernel_launch_ns: if threads > 1 { 2_000.0 } else { 0.0 },
            chunk_overhead_ns: if threads > 1 { 150.0 } else { 0.0 },
            copy_latency_ns: 0.0,
            copy_bw_gbps: 175.0,
        }
    }

    /// A single Xeon 8368 core with no parallel-region overhead — the
    /// platform of the paper's SciPy baseline.
    pub fn single_core() -> Self {
        let mut spec = DeviceSpec::xeon_8368(1);
        spec.name = "Intel Xeon Platinum 8368 (1 core)".to_owned();
        spec
    }

    /// Effective cost in nanoseconds of one chunk running alone on one
    /// worker.
    fn chunk_ns(&self, c: &ChunkWork) -> f64 {
        let bytes = c.streamed_bytes + c.random_bytes * self.random_access_penalty;
        let mem_ns = bytes / self.worker_bw_gbps; // GB/s == bytes/ns
        let flop_ns = c.flops / (self.flops_gflops / self.workers as f64);
        mem_ns.max(flop_ns) + self.chunk_overhead_ns
    }

    /// Virtual time for one kernel launch that scheduled `chunks` units of
    /// work, in nanoseconds.
    ///
    /// Chunks are greedily assigned (in submission order) to the least-loaded
    /// worker — a standard model of dynamic scheduling. The result is the
    /// makespan, floored by the aggregate-bandwidth and aggregate-flops
    /// roofline, plus the launch overhead.
    pub fn kernel_time_ns(&self, chunks: &[ChunkWork]) -> f64 {
        if chunks.is_empty() {
            return self.kernel_launch_ns;
        }
        let makespan = if self.workers == 1 {
            chunks.iter().map(|c| self.chunk_ns(c)).sum()
        } else {
            self.makespan(chunks)
        };

        // Aggregate roofline floor: even perfectly balanced work cannot beat
        // the shared memory system or the total arithmetic throughput.
        let total_bytes: f64 = chunks
            .iter()
            .map(|c| c.streamed_bytes + c.random_bytes * self.random_access_penalty)
            .sum();
        let total_flops: f64 = chunks.iter().map(|c| c.flops).sum();
        let bw_floor_ns = total_bytes / self.mem_bw_gbps;
        let flop_floor_ns = total_flops / self.flops_gflops;

        self.kernel_launch_ns + makespan.max(bw_floor_ns).max(flop_floor_ns)
    }

    /// Greedy list-scheduling makespan of the chunk costs over the workers.
    fn makespan(&self, chunks: &[ChunkWork]) -> f64 {
        use std::cmp::Reverse;
        // Min-heap over f64 load; orderable via total_cmp wrapper.
        #[derive(PartialEq)]
        struct Load(f64);
        impl Eq for Load {}
        impl PartialOrd for Load {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Load {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        let active = self.workers.min(chunks.len());
        let mut heap: BinaryHeap<Reverse<Load>> = (0..active).map(|_| Reverse(Load(0.0))).collect();
        for c in chunks {
            // lint: allow(panic): `active >= 1` seeds the heap, and every
            // pop is followed by a push — it can never be empty here.
            let Reverse(Load(load)) = heap.pop().expect("heap is never empty");
            heap.push(Reverse(Load(load + self.chunk_ns(c))));
        }
        heap.into_iter()
            .map(|Reverse(Load(l))| l)
            .fold(0.0, f64::max)
    }

    /// Virtual time of a host<->device copy of `bytes` bytes, ns.
    pub fn copy_time_ns(&self, bytes: usize) -> f64 {
        self.copy_latency_ns + bytes as f64 / self.copy_bw_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_chunks(n: usize, bytes: f64) -> Vec<ChunkWork> {
        (0..n).map(|_| ChunkWork::new(bytes, 0.0, 0.0)).collect()
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let spec = DeviceSpec::a100();
        assert_eq!(spec.kernel_time_ns(&[]), spec.kernel_launch_ns);
    }

    #[test]
    fn more_chunks_use_more_workers_until_saturation() {
        let spec = DeviceSpec::xeon_8368(8);
        // 1 chunk: serial. 8 equal chunks: ~1/8 the work per worker.
        let one = spec.kernel_time_ns(&uniform_chunks(1, 8.0e6));
        let eight = spec.kernel_time_ns(&uniform_chunks(8, 1.0e6));
        assert!(eight < one, "parallel {eight} should beat serial {one}");
        // With 8 equal chunks the makespan should be roughly 1/8 of serial
        // compute time (modulo launch overhead and the bandwidth floor).
        let speedup = (one - spec.kernel_launch_ns) / (eight - spec.kernel_launch_ns);
        assert!(speedup > 5.0, "speedup {speedup}");
    }

    #[test]
    fn aggregate_bandwidth_caps_thread_scaling() {
        // 32 threads x 12 GB/s/worker = 384 GB/s raw, capped at 175 GB/s.
        let spec = DeviceSpec::xeon_8368(32);
        let bytes_total = 3.2e9; // 3.2 GB spread over plenty of chunks
        let chunks = uniform_chunks(3200, bytes_total / 3200.0);
        let t = spec.kernel_time_ns(&chunks);
        let min_t = bytes_total / spec.mem_bw_gbps;
        assert!(t >= min_t, "time {t} cannot beat bandwidth floor {min_t}");
        assert!(
            t < 1.4 * min_t + spec.kernel_launch_ns,
            "should be near the floor, got {t}"
        );
    }

    #[test]
    fn imbalance_emerges_from_skewed_chunks() {
        let spec = DeviceSpec::xeon_8368(4);
        // Balanced: 4 x 1MB. Skewed: one 3.7MB chunk + 3 x 0.1MB.
        let balanced = spec.kernel_time_ns(&uniform_chunks(4, 1.0e6));
        let skewed = spec.kernel_time_ns(&[
            ChunkWork::new(3.7e6, 0.0, 0.0),
            ChunkWork::new(0.1e6, 0.0, 0.0),
            ChunkWork::new(0.1e6, 0.0, 0.0),
            ChunkWork::new(0.1e6, 0.0, 0.0),
        ]);
        assert!(
            skewed > 2.0 * balanced,
            "skewed {skewed} vs balanced {balanced}"
        );
    }

    #[test]
    fn random_access_costs_more_than_streaming() {
        let spec = DeviceSpec::a100();
        let streamed = spec.kernel_time_ns(&[ChunkWork::new(1.0e6, 0.0, 0.0)]);
        let random = spec.kernel_time_ns(&[ChunkWork::new(0.0, 1.0e6, 0.0)]);
        assert!(random > streamed);
    }

    #[test]
    fn copy_time_has_latency_floor() {
        let spec = DeviceSpec::a100();
        assert!(spec.copy_time_ns(0) >= 10_000.0);
        let one_gb = spec.copy_time_ns(1 << 30);
        assert!(one_gb > 1.0e9 / 25.0, "1 GiB over ~25 GB/s");
    }

    #[test]
    fn a100_spmv_model_peaks_near_paper_rate() {
        // CSR SpMV, f32/i32, nnz large enough to saturate: ~12.3 bytes/nnz
        // streamed (value+colidx+rowptr amortized) plus ~2.2 random bytes for
        // the x gather. The paper reports ~150 GFLOP/s peak for pyGinkgo.
        let spec = DeviceSpec::a100();
        let nnz: f64 = 5.0e7;
        let chunks: Vec<ChunkWork> = (0..2048)
            .map(|_| {
                let share = nnz / 2048.0;
                ChunkWork::new(share * 12.3, share * 2.2, 2.0 * share)
            })
            .collect();
        let t_ns = spec.kernel_time_ns(&chunks);
        let gflops = 2.0 * nnz / t_ns; // flops per ns == GFLOP/s
        assert!(
            (100.0..220.0).contains(&gflops),
            "model peak {gflops} GFLOP/s should bracket the paper's ~150"
        );
    }
}
