//! The cost model: converting [`Traffic`] vectors into [`SimTime`].
//!
//! A stage's time is computed per *resource* (CPU memory system, GPU, PCIe
//! up/down, NVLink fabric). Work on distinct resources within one stage is
//! assumed to overlap perfectly (e.g. the \[Collect\] stage reads missed rows
//! from CPU DRAM while the GPU reads victim rows from the scratchpad), so the
//! stage time is the **max** of the per-resource times. Work on the *same*
//! resource serializes, so per-resource time is the **sum** of its
//! components.

use serde::Serialize;

use crate::pipeline::Resource;
use crate::spec::SystemSpec;
use crate::time::SimTime;
use crate::traffic::Traffic;

/// Converts traffic vectors to time under a given [`SystemSpec`].
///
/// # Example
///
/// ```
/// use memsim::{CostModel, SystemSpec, Traffic};
///
/// let model = CostModel::new(SystemSpec::isca_paper());
/// let t = Traffic { pcie_h2d_bytes: 128 << 20, pcie_ops: 1, ..Traffic::default() };
/// // 128 MiB over a 12.8 GB/s effective link ≈ 10.5 ms.
/// let ms = model.traffic_time(&t).as_millis();
/// assert!(ms > 9.0 && ms < 12.0, "{ms}");
/// ```
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CostModel {
    spec: SystemSpec,
}

impl CostModel {
    /// Creates a cost model for the given system.
    pub fn new(spec: SystemSpec) -> Self {
        CostModel { spec }
    }

    /// The underlying system specification.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Time spent by the CPU memory system (and CPU arithmetic) on `t`.
    pub(crate) fn cpu_time(&self, t: &Traffic) -> SimTime {
        let m = &self.spec.cpu_mem;
        let mut secs = t.cpu_random_read_bytes as f64 / m.random_read_bw()
            + t.cpu_random_write_bytes as f64 / m.random_write_bw()
            + (t.cpu_stream_read_bytes + t.cpu_stream_write_bytes) as f64 / m.stream_bw()
            + t.cpu_ops as f64 * m.op_latency;
        if t.cpu_flops > 0 {
            secs += t.cpu_flops as f64 / self.spec.cpu_compute.effective_flops();
        }
        SimTime::from_secs(secs)
    }

    /// Time spent by the GPU (memory traffic + GEMM + kernel dispatch) on `t`.
    pub fn gpu_time(&self, t: &Traffic) -> SimTime {
        let m = &self.spec.gpu_mem;
        let mut secs = t.gpu_random_read_bytes as f64 / m.random_read_bw()
            + t.gpu_random_write_bytes as f64 / m.random_write_bw()
            + (t.gpu_stream_read_bytes + t.gpu_stream_write_bytes) as f64 / m.stream_bw()
            + t.gpu_ops as f64 * self.spec.gpu_compute.kernel_overhead;
        if t.gpu_flops > 0 {
            secs += t.gpu_flops as f64 / self.spec.gpu_compute.effective_flops();
        }
        SimTime::from_secs(secs)
    }

    /// Time of the host→device PCIe channel for `t`.
    pub(crate) fn pcie_h2d_time(&self, t: &Traffic) -> SimTime {
        if t.pcie_h2d_bytes == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_secs(
            t.pcie_h2d_bytes as f64 / self.spec.pcie.effective_bw()
                + t.pcie_ops.max(1) as f64 * self.spec.pcie.latency,
        )
    }

    /// Time of the device→host PCIe channel for `t`.
    pub(crate) fn pcie_d2h_time(&self, t: &Traffic) -> SimTime {
        if t.pcie_d2h_bytes == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_secs(
            t.pcie_d2h_bytes as f64 / self.spec.pcie.effective_bw()
                + t.pcie_ops.max(1) as f64 * self.spec.pcie.latency,
        )
    }

    /// Time of the inter-GPU fabric for `t` (zero on single-GPU nodes).
    pub(crate) fn nvlink_time(&self, t: &Traffic) -> SimTime {
        if t.nvlink_bytes == 0 || self.spec.nvlink_bw == 0.0 {
            return SimTime::ZERO;
        }
        SimTime::from_secs(t.nvlink_bytes as f64 / self.spec.nvlink_bw)
    }

    /// Per-resource busy times for `t`, in [`Resource`] order.
    pub(crate) fn resource_times(&self, t: &Traffic) -> [(Resource, SimTime); 5] {
        [
            (Resource::CpuMem, self.cpu_time(t)),
            (Resource::Gpu, self.gpu_time(t)),
            (Resource::PcieH2D, self.pcie_h2d_time(t)),
            (Resource::PcieD2H, self.pcie_d2h_time(t)),
            (Resource::NvLink, self.nvlink_time(t)),
        ]
    }

    /// Time for one stage executing `t` in isolation: resources overlap, so
    /// this is the maximum of the per-resource times.
    pub fn traffic_time(&self, t: &Traffic) -> SimTime {
        self.resource_times(t)
            .iter()
            .fold(SimTime::ZERO, |acc, (_, s)| acc.max(*s))
    }

    /// Time for `t` with *no* overlap between resources (the fully
    /// serialized upper bound). Useful for un-pipelined reference points.
    pub fn serialized_time(&self, t: &Traffic) -> SimTime {
        self.resource_times(t).iter().map(|(_, s)| *s).sum()
    }
}

/// Helpers to compute traffic for the embedding primitives of §II-B.
///
/// These functions count the *bytes the algorithm must move*; the caller
/// decides which device fields of [`Traffic`] to charge them to.
pub mod primitives {
    /// Bytes read by an embedding gather of `rows` rows of `dim` fp32 values.
    pub fn gather_bytes(rows: u64, dim: u32) -> u64 {
        rows * dim as u64 * 4
    }

    /// Bytes written by the pooled-reduction output: `batch` vectors of
    /// `dim` fp32 values (one reduced vector per sample per table).
    pub fn reduce_output_bytes(batch: u64, dim: u32) -> u64 {
        batch * dim as u64 * 4
    }

    /// Streaming bytes moved by gradient duplication: each of the `rows`
    /// looked-up positions receives a copy of its sample's gradient vector.
    pub fn duplicate_bytes(rows: u64, dim: u32) -> u64 {
        rows * dim as u64 * 4
    }

    /// Streaming bytes moved by gradient coalescing (sort + segmented sum):
    /// approximately one read and one write of the duplicated gradients,
    /// plus a read of the index array.
    pub fn coalesce_bytes(rows: u64, dim: u32) -> u64 {
        2 * rows * dim as u64 * 4 + rows * 8
    }
}

#[cfg(test)]
mod tests {
    use super::primitives::*;
    use super::*;

    fn model() -> CostModel {
        CostModel::new(SystemSpec::isca_paper())
    }

    #[test]
    fn cpu_random_read_dominates_equivalent_stream() {
        let m = model();
        let rand = Traffic {
            cpu_random_read_bytes: 1 << 30,
            ..Traffic::default()
        };
        let stream = Traffic {
            cpu_stream_read_bytes: 1 << 30,
            ..Traffic::default()
        };
        assert!(m.cpu_time(&rand) > m.cpu_time(&stream) * 3.0);
    }

    #[test]
    fn stage_time_is_max_across_resources() {
        let m = model();
        let t = Traffic {
            cpu_random_read_bytes: 1 << 28,
            pcie_h2d_bytes: 1 << 20,
            pcie_ops: 1,
            ..Traffic::default()
        };
        let cpu = m.cpu_time(&t);
        let pcie = m.pcie_h2d_time(&t);
        assert!(cpu > pcie);
        assert_eq!(m.traffic_time(&t), cpu);
        assert_eq!(m.serialized_time(&t), cpu + pcie);
    }

    #[test]
    fn pcie_directions_are_independent() {
        let m = model();
        let t = Traffic {
            pcie_h2d_bytes: 1 << 30,
            pcie_d2h_bytes: 1 << 30,
            pcie_ops: 1,
            ..Traffic::default()
        };
        // Full duplex: total time ≈ one direction's time, not double.
        let each = m.pcie_h2d_time(&t);
        assert_eq!(m.traffic_time(&t), each.max(m.pcie_d2h_time(&t)));
    }

    #[test]
    fn zero_traffic_is_free() {
        assert_eq!(model().traffic_time(&Traffic::ZERO), SimTime::ZERO);
    }

    #[test]
    fn default_gather_lands_in_paper_band() {
        // The paper's default model: 8 tables × 20 lookups × batch 2048 of
        // 128-dim fp32 rows = 167.8 MB of random CPU reads per iteration.
        // Under the calibrated CPU spec this must take tens of ms — the
        // paper's Figure 5 shows CPU embedding forward ≈ 40-90 ms once the
        // ≈2× framework-operator factor of the baseline systems applies.
        let rows = 8 * 20 * 2048u64;
        let t = Traffic {
            cpu_random_read_bytes: gather_bytes(rows, 128),
            cpu_ops: 8,
            ..Traffic::default()
        };
        let ms = model().cpu_time(&t).as_millis();
        assert!(ms > 12.0 && ms < 60.0, "gather took {ms} ms");
    }

    #[test]
    fn primitive_byte_counts() {
        assert_eq!(gather_bytes(10, 128), 10 * 512);
        assert_eq!(reduce_output_bytes(4, 128), 4 * 512);
        assert_eq!(duplicate_bytes(10, 128), 10 * 512);
        assert_eq!(coalesce_bytes(10, 128), 2 * 10 * 512 + 80);
    }

    #[test]
    fn nvlink_zero_on_single_gpu() {
        let t = Traffic {
            nvlink_bytes: 1 << 30,
            ..Traffic::default()
        };
        assert_eq!(model().nvlink_time(&t), SimTime::ZERO);
        let multi = CostModel::new(SystemSpec::p3_16xlarge());
        assert!(multi.nvlink_time(&t) > SimTime::ZERO);
    }

    #[test]
    fn resource_times_ordering_is_stable() {
        let times = model().resource_times(&Traffic::ZERO);
        assert_eq!(times[0].0, Resource::CpuMem);
        assert_eq!(times[1].0, Resource::Gpu);
        assert_eq!(times[4].0, Resource::NvLink);
    }
}
