//! Hardware specifications for the simulated training node.
//!
//! The default preset, [`SystemSpec::isca_paper`], mirrors the evaluation
//! platform of the ScratchPipe paper (§V Methodology): an Intel Xeon
//! E5-2698v4 with 256 GB DDR4 at 76.8 GB/s, an NVIDIA V100 with 32 GB HBM2
//! at 900 GB/s, and a PCIe gen3 x16 link at 16 GB/s per direction.
//!
//! Peak bandwidths are de-rated by *access-class efficiencies*: a 512 B
//! embedding row fetched at a random table offset achieves only a few percent
//! of peak on a CPU (DRAM page misses, TLB pressure, limited MLP), while a
//! streaming copy achieves most of peak. The GPU, whose memory system is
//! built for massively parallel gather/scatter, sustains a much higher
//! fraction on the same pattern. These efficiencies are free parameters of
//! the model; `EXPERIMENTS.md` ("Constants") lists each with the figure it
//! was fitted to.

use serde::Serialize;

/// A memory device (CPU DRAM or GPU HBM) with effective bandwidths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeviceSpec {
    /// Peak theoretical bandwidth in bytes/second.
    pub peak_bw: f64,
    /// Fraction of peak achieved by random row-granule reads (gathers).
    pub random_read_eff: f64,
    /// Fraction of peak achieved by random row-granule read-modify-writes
    /// (scatter updates). Usually lower than reads: each update both reads
    /// and writes the line and defeats prefetchers.
    pub random_write_eff: f64,
    /// Fraction of peak achieved by streaming (sequential) access.
    pub stream_eff: f64,
    /// Fixed per-operation latency in seconds (kernel launch, driver call,
    /// framework dispatch). Charged once per logical memory operation.
    pub op_latency: f64,
}

impl DeviceSpec {
    /// Effective random-read bandwidth in bytes/second.
    pub(crate) fn random_read_bw(&self) -> f64 {
        self.peak_bw * self.random_read_eff
    }

    /// Effective random-write (read-modify-write) bandwidth in bytes/second.
    pub(crate) fn random_write_bw(&self) -> f64 {
        self.peak_bw * self.random_write_eff
    }

    /// Effective streaming bandwidth in bytes/second.
    pub(crate) fn stream_bw(&self) -> f64 {
        self.peak_bw * self.stream_eff
    }
}

/// A host↔device interconnect with independent duplex channels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LinkSpec {
    /// Per-direction peak bandwidth in bytes/second.
    pub peak_bw: f64,
    /// Achievable fraction of peak for large DMA transfers.
    pub efficiency: f64,
    /// Per-transfer setup latency in seconds.
    pub latency: f64,
}

impl LinkSpec {
    /// Effective per-direction bandwidth in bytes/second.
    pub(crate) fn effective_bw(&self) -> f64 {
        self.peak_bw * self.efficiency
    }
}

/// Compute throughput of a device (used for the MLP layers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ComputeSpec {
    /// Peak FLOP/s (fp32).
    pub peak_flops: f64,
    /// Achieved fraction of peak for the GEMM shapes in DLRM training.
    pub gemm_eff: f64,
    /// Per-kernel launch overhead in seconds, charged once per logical layer
    /// invocation. Models framework/driver dispatch cost that dominates the
    /// paper's absolute stage times.
    pub kernel_overhead: f64,
}

impl ComputeSpec {
    /// Effective sustained FLOP/s.
    pub(crate) fn effective_flops(&self) -> f64 {
        self.peak_flops * self.gemm_eff
    }
}

/// Full system specification of one simulated training node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SystemSpec {
    /// Host memory (capacity-optimized DDR4 behind a Xeon).
    pub cpu_mem: DeviceSpec,
    /// GPU local memory (bandwidth-optimized HBM2).
    pub gpu_mem: DeviceSpec,
    /// Host↔GPU interconnect (PCIe gen3 x16 in the paper).
    pub pcie: LinkSpec,
    /// GPU compute throughput.
    pub gpu_compute: ComputeSpec,
    /// CPU compute throughput (only exercised by CPU-side reduction/coalesce
    /// arithmetic, which is bandwidth-bound; kept for completeness).
    pub cpu_compute: ComputeSpec,
    /// Number of GPUs attached to the node (1 for the ScratchPipe node,
    /// 8 for the multi-GPU comparator).
    pub num_gpus: u32,
    /// Per-direction bandwidth of the inter-GPU fabric in bytes/second
    /// (NVLink on a p3.16xlarge). Unused when `num_gpus == 1`.
    pub nvlink_bw: f64,
}

const GB: f64 = 1e9;

impl SystemSpec {
    /// The single-GPU evaluation node of the ScratchPipe paper (§V):
    /// Xeon E5-2698v4 (76.8 GB/s DDR4), V100 (900 GB/s HBM2, 32 GB),
    /// PCIe gen3 x16 (16 GB/s per direction).
    ///
    /// Efficiency calibration (no derivation is recorded: `EXPERIMENTS.md`,
    /// "Constants", marks each value fitted, with its target figure):
    /// CPU random 512 B gathers sustain ≈10 % of peak, CPU streaming
    /// ≈45 %; GPU random gathers ≈55 % of peak, streaming ≈80 %; GEMMs
    /// reach 30 % of fp32 peak with a ≈200 µs per-operator dispatch
    /// overhead (the PyTorch-v1.8-era framework cost that dominates the
    /// paper's absolute GPU-stage times).
    pub fn isca_paper() -> Self {
        SystemSpec {
            cpu_mem: DeviceSpec {
                peak_bw: 76.8 * GB,
                random_read_eff: 0.100,
                random_write_eff: 0.085,
                stream_eff: 0.45,
                op_latency: 30e-6,
            },
            gpu_mem: DeviceSpec {
                peak_bw: 900.0 * GB,
                random_read_eff: 0.55,
                random_write_eff: 0.40,
                stream_eff: 0.80,
                op_latency: 25e-6,
            },
            pcie: LinkSpec {
                peak_bw: 16.0 * GB,
                efficiency: 0.80,
                latency: 20e-6,
            },
            gpu_compute: ComputeSpec {
                peak_flops: 14.0e12,
                gemm_eff: 0.30,
                kernel_overhead: 200e-6,
            },
            cpu_compute: ComputeSpec {
                peak_flops: 1.4e12,
                gemm_eff: 0.25,
                kernel_overhead: 10e-6,
            },
            num_gpus: 1,
            nvlink_bw: 0.0,
        }
    }

    /// An 8×V100 node (AWS p3.16xlarge) used for the paper's multi-GPU,
    /// "GPU-only" comparator in Table I. NVLink hybrid-mesh sustains
    /// ≈100 GB/s effective per GPU for the all-to-all patterns DLRM uses.
    pub fn p3_16xlarge() -> Self {
        SystemSpec {
            num_gpus: 8,
            nvlink_bw: 100.0 * GB,
            ..Self::isca_paper()
        }
    }
}

impl Default for SystemSpec {
    fn default() -> Self {
        Self::isca_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every efficiency of both memory systems lies in `(0, 1]`.
    fn efficiencies_in_range(s: &SystemSpec) -> bool {
        [s.cpu_mem, s.gpu_mem]
            .iter()
            .flat_map(|d| [d.random_read_eff, d.random_write_eff, d.stream_eff])
            .all(|v| v > 0.0 && v <= 1.0)
    }

    #[test]
    fn paper_preset_matches_methodology_section() {
        let s = SystemSpec::isca_paper();
        assert_eq!(s.cpu_mem.peak_bw, 76.8e9);
        assert_eq!(s.gpu_mem.peak_bw, 900.0e9);
        assert_eq!(s.pcie.peak_bw, 16.0e9);
        assert_eq!(s.num_gpus, 1);
        assert!(efficiencies_in_range(&s), "paper preset must be valid");
    }

    #[test]
    fn multi_gpu_preset_has_eight_gpus_and_nvlink() {
        let s = SystemSpec::p3_16xlarge();
        assert_eq!(s.num_gpus, 8);
        assert!(s.nvlink_bw > 0.0);
        assert!(efficiencies_in_range(&s), "p3 preset must be valid");
    }

    #[test]
    fn effective_bandwidths_are_derated() {
        let s = SystemSpec::isca_paper();
        assert!(s.cpu_mem.random_read_bw() < s.cpu_mem.stream_bw());
        assert!(s.cpu_mem.stream_bw() < s.cpu_mem.peak_bw);
        // GPU handles random access far better than CPU, relatively.
        assert!(s.gpu_mem.random_read_eff > 5.0 * s.cpu_mem.random_read_eff);
    }

    #[test]
    fn gpu_random_access_is_orders_faster_than_cpu() {
        // The core premise of the paper: embedding ops at GPU memory speed.
        let s = SystemSpec::isca_paper();
        let ratio = s.gpu_mem.random_read_bw() / s.cpu_mem.random_read_bw();
        assert!(ratio > 50.0, "ratio was {ratio}");
    }
}
