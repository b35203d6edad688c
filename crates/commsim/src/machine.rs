//! Cost models for the paper's testbeds.
//!
//! The evaluation ran on **Polaris** (ALCF: 560 nodes, 1× EPYC Milan + 4×
//! NVIDIA A100 per node, Slingshot interconnect, Lustre-like parallel FS)
//! and **JUWELS Booster** (JSC: 936 nodes, 2× EPYC Rome + 4× A100,
//! DragonFly+ HDR-200 InfiniBand). One MPI rank drives one GPU on both.
//!
//! These structs capture the handful of rates the virtual clock needs:
//! sustained per-rank GPU throughput, device/host copy bandwidth (the
//! paper's key overhead: VTK has no device-memory support, so every in situ
//! trigger pays a D2H copy), network α–β parameters, and a shared
//! filesystem model for checkpoint writes. The absolute values are public
//! spec-sheet magnitudes, deliberately rounded — the reproduction targets
//! curve *shapes*, not testbed-exact numbers.

/// GPU compute/copy rates for one rank (= one GPU in the paper's mapping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Sustained double-precision throughput per rank (FLOP/s).
    pub flops: f64,
    /// Device memory bandwidth (bytes/s) — the roofline for SEM kernels.
    pub mem_bandwidth: f64,
    /// Device→host copy bandwidth (bytes/s), PCIe-gen4-ish.
    pub d2h_bandwidth: f64,
    /// Host→device copy bandwidth (bytes/s).
    pub h2d_bandwidth: f64,
    /// Fixed launch/copy latency per transfer (s).
    pub xfer_latency: f64,
}

/// α–β network model plus a tree factor for collectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-message latency α (s).
    pub latency: f64,
    /// Per-rank injection bandwidth β⁻¹ (bytes/s).
    pub bandwidth: f64,
    /// Multiplier on `log2(P)` stages for collectives (dimensionless ≥ 1).
    pub collective_factor: f64,
}

impl NetworkModel {
    /// Time for one point-to-point message of `bytes`.
    pub fn p2p_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Time for a tree collective over `ranks` participants moving `bytes`
    /// per stage (α·⌈log2 P⌉·factor + stages·bytes/β).
    pub fn collective_time(&self, ranks: usize, bytes: u64) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let stages = (ranks as f64).log2().ceil().max(1.0);
        self.collective_factor * stages * (self.latency + bytes as f64 / self.bandwidth)
    }
}

/// Shared parallel filesystem model (Lustre/GPFS analogue).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilesystemModel {
    /// Aggregate sustained write bandwidth of the filesystem (bytes/s).
    pub aggregate_write_bandwidth: f64,
    /// Per-file open/close + metadata latency (s).
    pub metadata_latency: f64,
    /// Number of I/O streams the FS can absorb at full rate; beyond this,
    /// writers share bandwidth.
    pub max_parallel_streams: usize,
}

impl FilesystemModel {
    /// Time for one rank among `writers` concurrently writing `bytes`.
    ///
    /// Each writer gets an equal share of the aggregate bandwidth once the
    /// writer count exceeds the stream limit; below it, a single stream is
    /// capped at `aggregate / max_parallel_streams` (one OST's worth).
    pub fn write_time(&self, bytes: u64, writers: usize) -> f64 {
        let writers = writers.max(1);
        let per_stream_cap = self.aggregate_write_bandwidth / self.max_parallel_streams as f64;
        let fair_share = self.aggregate_write_bandwidth / writers as f64;
        let rate = fair_share.min(per_stream_cap).max(1.0);
        self.metadata_latency + bytes as f64 / rate
    }
}

/// A full testbed: node shape + GPU + network + filesystem.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Human-readable testbed name ("polaris", "juwels-booster", ...).
    pub name: &'static str,
    /// GPUs (= ranks) per node; both testbeds have 4.
    pub ranks_per_node: usize,
    /// Per-rank GPU model.
    pub gpu: GpuModel,
    /// Inter-node network.
    pub network: NetworkModel,
    /// Shared filesystem.
    pub filesystem: FilesystemModel,
    /// Host (CPU) effective throughput per rank for host-side work such as
    /// VTK conversion and software rendering (FLOP/s-equivalent).
    pub host_flops: f64,
    /// Host memory bandwidth per rank (bytes/s).
    pub host_mem_bandwidth: f64,
    /// Accumulated [`MachineModel::derate_throughput`] factor (1.0 on real
    /// models). Work whose volume does *not* scale with the mesh (image
    /// rasterization, compositing, encoding) divides its declared cost by
    /// this factor to be charged at the machine's true rates.
    pub derate_factor: f64,
}

impl MachineModel {
    /// Polaris (ALCF): HPE Apollo, 1× EPYC Milan + 4× A100/node,
    /// Slingshot-10 at the time of the paper, Lustre (Grand) filesystem.
    pub fn polaris() -> Self {
        Self {
            name: "polaris",
            ranks_per_node: 4,
            gpu: GpuModel {
                flops: 9.0e12,         // sustained FP64 w/ tensor cores derated
                mem_bandwidth: 1.3e12, // ~1.6 TB/s HBM2e derated
                d2h_bandwidth: 20.0e9, // PCIe gen4 x16 practical
                h2d_bandwidth: 20.0e9,
                xfer_latency: 12.0e-6,
            },
            network: NetworkModel {
                latency: 2.5e-6,
                bandwidth: 22.0e9, // Slingshot-10 ~25 GB/s per NIC derated
                collective_factor: 1.3,
            },
            filesystem: FilesystemModel {
                aggregate_write_bandwidth: 650.0e9, // Grand ~650 GB/s peak
                metadata_latency: 3.0e-3,
                max_parallel_streams: 160,
            },
            host_flops: 4.0e10,
            host_mem_bandwidth: 50.0e9,
            derate_factor: 1.0,
        }
    }

    /// JUWELS Booster (JSC): Atos BullSequana, 2× EPYC Rome + 4× A100/node,
    /// DragonFly+ HDR-200 InfiniBand, GPFS-like storage (JUST).
    pub fn juwels_booster() -> Self {
        Self {
            name: "juwels-booster",
            ranks_per_node: 4,
            gpu: GpuModel {
                flops: 9.0e12,
                mem_bandwidth: 1.3e12,
                d2h_bandwidth: 24.0e9, // NVLink-attached PCIe switch fabric
                h2d_bandwidth: 24.0e9,
                xfer_latency: 10.0e-6,
            },
            network: NetworkModel {
                latency: 1.8e-6,
                bandwidth: 23.0e9, // HDR-200: 4 NICs/node shared by 4 ranks
                collective_factor: 1.2,
            },
            filesystem: FilesystemModel {
                aggregate_write_bandwidth: 400.0e9,
                metadata_latency: 2.5e-3,
                max_parallel_streams: 128,
            },
            host_flops: 6.0e10,
            host_mem_bandwidth: 60.0e9,
            derate_factor: 1.0,
        }
    }

    /// A deliberately tiny, fast model for unit tests: all rates are round
    /// numbers so expected virtual times can be computed by hand.
    pub fn test_tiny() -> Self {
        Self {
            name: "test-tiny",
            ranks_per_node: 2,
            gpu: GpuModel {
                flops: 1.0e9,
                mem_bandwidth: 1.0e9,
                d2h_bandwidth: 1.0e8,
                h2d_bandwidth: 1.0e8,
                xfer_latency: 1.0e-6,
            },
            network: NetworkModel {
                latency: 1.0e-6,
                bandwidth: 1.0e9,
                collective_factor: 1.0,
            },
            filesystem: FilesystemModel {
                aggregate_write_bandwidth: 1.0e9,
                metadata_latency: 1.0e-3,
                max_parallel_streams: 4,
            },
            host_flops: 1.0e9,
            host_mem_bandwidth: 1.0e9,
            derate_factor: 1.0,
        }
    }

    /// Derate every *throughput* by `factor`, keeping latencies unchanged.
    ///
    /// This is how the figure harnesses run paper-scale experiments through
    /// reduced-scale meshes: if the real workload has `factor`× more data
    /// per rank than the scaled one, then a machine whose bandwidths and
    /// flop rates are `factor`× lower sees the *same* compute, transfer,
    /// I/O and message times per operation as the real machine does on the
    /// real workload — while α costs (which don't scale with data size)
    /// stay at their true values. The compute:communication ratio of the
    /// paper's regime is therefore preserved.
    pub fn derate_throughput(&self, factor: f64) -> Self {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "derating factor must be >= 1"
        );
        let mut m = self.clone();
        m.gpu.flops /= factor;
        m.gpu.mem_bandwidth /= factor;
        m.gpu.d2h_bandwidth /= factor;
        m.gpu.h2d_bandwidth /= factor;
        m.host_flops /= factor;
        m.host_mem_bandwidth /= factor;
        m.network.bandwidth /= factor;
        m.filesystem.aggregate_write_bandwidth /= factor;
        m.derate_factor *= factor;
        m
    }

    /// Virtual time for a device compute kernel: roofline max of the
    /// flop-bound and bandwidth-bound times.
    pub fn gpu_kernel_time(&self, flops: f64, bytes: f64) -> f64 {
        (flops / self.gpu.flops).max(bytes / self.gpu.mem_bandwidth)
    }

    /// Virtual time for host-side compute (VTK conversion, rendering).
    pub fn host_compute_time(&self, flops: f64, bytes: f64) -> f64 {
        (flops / self.host_flops).max(bytes / self.host_mem_bandwidth)
    }

    /// Virtual time for a device→host copy.
    pub fn d2h_time(&self, bytes: u64) -> f64 {
        self.gpu.xfer_latency + bytes as f64 / self.gpu.d2h_bandwidth
    }

    /// Virtual time for a host→device copy.
    pub fn h2d_time(&self, bytes: u64) -> f64 {
        self.gpu.xfer_latency + bytes as f64 / self.gpu.h2d_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_time_is_alpha_beta() {
        let n = NetworkModel {
            latency: 1e-6,
            bandwidth: 1e9,
            collective_factor: 1.0,
        };
        let t = n.p2p_time(1_000_000);
        assert!((t - (1e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn collective_time_grows_logarithmically() {
        let n = MachineModel::polaris().network;
        let t2 = n.collective_time(2, 8);
        let t1024 = n.collective_time(1024, 8);
        assert!(t1024 > t2);
        assert!((t1024 / t2 - 10.0).abs() < 1e-9, "log2(1024)=10 stages");
        assert_eq!(n.collective_time(1, 8), 0.0);
    }

    #[test]
    fn fs_write_shares_bandwidth_beyond_stream_limit() {
        let fs = MachineModel::test_tiny().filesystem;
        // 4 writers: each gets 1/4 of 1 GB/s == per-stream cap.
        let t4 = fs.write_time(250_000_000, 4);
        // 8 writers: each gets 1/8 of 1 GB/s — twice as slow per byte.
        let t8 = fs.write_time(250_000_000, 8);
        assert!(t8 > t4);
        assert!(((t8 - fs.metadata_latency) / (t4 - fs.metadata_latency) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fs_single_writer_capped_at_one_stream() {
        let fs = MachineModel::test_tiny().filesystem;
        // One writer cannot exceed aggregate/max_streams = 250 MB/s.
        let t = fs.write_time(250_000_000, 1);
        assert!((t - (fs.metadata_latency + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn roofline_picks_binding_constraint() {
        let m = MachineModel::test_tiny();
        // Flop-bound: lots of flops, few bytes.
        assert!((m.gpu_kernel_time(2.0e9, 8.0) - 2.0).abs() < 1e-12);
        // Bandwidth-bound: few flops, many bytes.
        assert!((m.gpu_kernel_time(8.0, 2.0e9) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_testbeds_have_expected_identity() {
        assert_eq!(MachineModel::polaris().name, "polaris");
        assert_eq!(MachineModel::juwels_booster().name, "juwels-booster");
        assert_eq!(MachineModel::polaris().ranks_per_node, 4);
        assert_eq!(MachineModel::juwels_booster().ranks_per_node, 4);
    }

    #[test]
    fn derate_scales_throughputs_not_latencies() {
        let m = MachineModel::polaris();
        let d = m.derate_throughput(100.0);
        assert_eq!(d.gpu.flops, m.gpu.flops / 100.0);
        assert_eq!(d.network.bandwidth, m.network.bandwidth / 100.0);
        assert_eq!(
            d.filesystem.aggregate_write_bandwidth,
            m.filesystem.aggregate_write_bandwidth / 100.0
        );
        assert_eq!(d.network.latency, m.network.latency);
        assert_eq!(d.gpu.xfer_latency, m.gpu.xfer_latency);
        assert_eq!(d.filesystem.metadata_latency, m.filesystem.metadata_latency);
        // Kernel time on 1/100 of the data matches the full machine on all
        // of it.
        let full = m.gpu_kernel_time(1e12, 1e12);
        let scaled = d.gpu_kernel_time(1e10, 1e10);
        assert!((full - scaled).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn derate_rejects_speedup() {
        MachineModel::polaris().derate_throughput(0.5);
    }

    #[test]
    fn d2h_slower_than_device_memory() {
        // The premise of the paper's in situ overhead: staging to host is
        // far slower than device-resident access.
        let m = MachineModel::polaris();
        assert!(m.gpu.d2h_bandwidth < m.gpu.mem_bandwidth / 10.0);
    }
}
