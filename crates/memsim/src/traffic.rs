//! Traffic vectors: the interface between functional simulation and timing.
//!
//! Every training-system stage in the `systems` crate *counts* what it does —
//! bytes gathered from CPU DRAM, bytes scattered into GPU HBM, bytes DMA'd
//! over PCIe, FLOPs of GEMM — into a [`Traffic`] value. The
//! [`CostModel`](crate::CostModel) then converts the vector into time. This
//! split keeps the functional code free of timing assumptions and lets a
//! single run be re-priced under a different [`SystemSpec`](crate::SystemSpec).

use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// Byte/FLOP counts for one logical stage of work.
///
/// All fields are plain totals; `Traffic` values form a commutative monoid
/// under `+` so per-table or per-iteration counts can be accumulated freely.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Traffic {
    /// Bytes read from CPU DRAM at random row granularity (embedding gather).
    pub cpu_random_read_bytes: u64,
    /// Bytes written to CPU DRAM at random row granularity
    /// (gradient scatter / write-back; counted as read-modify-write).
    pub cpu_random_write_bytes: u64,
    /// Bytes read from CPU DRAM by streaming access (sort/coalesce passes).
    pub cpu_stream_read_bytes: u64,
    /// Bytes written to CPU DRAM by streaming access.
    pub cpu_stream_write_bytes: u64,
    /// Bytes read from GPU HBM at random row granularity.
    pub gpu_random_read_bytes: u64,
    /// Bytes written to GPU HBM at random row granularity.
    pub gpu_random_write_bytes: u64,
    /// Bytes read from GPU HBM by streaming access.
    pub gpu_stream_read_bytes: u64,
    /// Bytes written to GPU HBM by streaming access.
    pub gpu_stream_write_bytes: u64,
    /// Bytes transferred host→device over PCIe.
    pub pcie_h2d_bytes: u64,
    /// Bytes transferred device→host over PCIe.
    pub pcie_d2h_bytes: u64,
    /// Bytes exchanged over the inter-GPU fabric (all-to-all, all-reduce).
    pub nvlink_bytes: u64,
    /// GEMM floating-point operations executed on the GPU.
    pub gpu_flops: u64,
    /// GEMM floating-point operations executed on the CPU.
    pub cpu_flops: u64,
    /// Number of distinct GPU kernel/framework dispatches in this stage.
    pub gpu_ops: u32,
    /// Number of distinct CPU operator dispatches in this stage.
    pub cpu_ops: u32,
    /// Number of distinct PCIe DMA transfers in this stage.
    pub pcie_ops: u32,
}

impl Traffic {
    /// A traffic vector with every counter zero.
    pub const ZERO: Traffic = Traffic {
        cpu_random_read_bytes: 0,
        cpu_random_write_bytes: 0,
        cpu_stream_read_bytes: 0,
        cpu_stream_write_bytes: 0,
        gpu_random_read_bytes: 0,
        gpu_random_write_bytes: 0,
        gpu_stream_read_bytes: 0,
        gpu_stream_write_bytes: 0,
        pcie_h2d_bytes: 0,
        pcie_d2h_bytes: 0,
        nvlink_bytes: 0,
        gpu_flops: 0,
        cpu_flops: 0,
        gpu_ops: 0,
        cpu_ops: 0,
        pcie_ops: 0,
    };

    /// Total bytes touched in CPU DRAM, across access classes.
    pub fn cpu_bytes(&self) -> u64 {
        self.cpu_random_read_bytes
            + self.cpu_random_write_bytes
            + self.cpu_stream_read_bytes
            + self.cpu_stream_write_bytes
    }

    /// Total bytes touched in GPU HBM, across access classes.
    pub fn gpu_bytes(&self) -> u64 {
        self.gpu_random_read_bytes
            + self.gpu_random_write_bytes
            + self.gpu_stream_read_bytes
            + self.gpu_stream_write_bytes
    }

    /// Total bytes crossing PCIe in either direction.
    pub fn pcie_bytes(&self) -> u64 {
        self.pcie_h2d_bytes + self.pcie_d2h_bytes
    }

    /// True if every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == Traffic::ZERO
    }
}

impl Add for Traffic {
    type Output = Traffic;
    fn add(self, rhs: Traffic) -> Traffic {
        Traffic {
            cpu_random_read_bytes: self.cpu_random_read_bytes + rhs.cpu_random_read_bytes,
            cpu_random_write_bytes: self.cpu_random_write_bytes + rhs.cpu_random_write_bytes,
            cpu_stream_read_bytes: self.cpu_stream_read_bytes + rhs.cpu_stream_read_bytes,
            cpu_stream_write_bytes: self.cpu_stream_write_bytes + rhs.cpu_stream_write_bytes,
            gpu_random_read_bytes: self.gpu_random_read_bytes + rhs.gpu_random_read_bytes,
            gpu_random_write_bytes: self.gpu_random_write_bytes + rhs.gpu_random_write_bytes,
            gpu_stream_read_bytes: self.gpu_stream_read_bytes + rhs.gpu_stream_read_bytes,
            gpu_stream_write_bytes: self.gpu_stream_write_bytes + rhs.gpu_stream_write_bytes,
            pcie_h2d_bytes: self.pcie_h2d_bytes + rhs.pcie_h2d_bytes,
            pcie_d2h_bytes: self.pcie_d2h_bytes + rhs.pcie_d2h_bytes,
            nvlink_bytes: self.nvlink_bytes + rhs.nvlink_bytes,
            gpu_flops: self.gpu_flops + rhs.gpu_flops,
            cpu_flops: self.cpu_flops + rhs.cpu_flops,
            gpu_ops: self.gpu_ops + rhs.gpu_ops,
            cpu_ops: self.cpu_ops + rhs.cpu_ops,
            pcie_ops: self.pcie_ops + rhs.pcie_ops,
        }
    }
}

impl AddAssign for Traffic {
    fn add_assign(&mut self, rhs: Traffic) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for Traffic {
    fn sum<I: Iterator<Item = Traffic>>(iter: I) -> Traffic {
        iter.fold(Traffic::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Traffic {
        Traffic {
            cpu_random_read_bytes: 100,
            cpu_random_write_bytes: 50,
            cpu_stream_read_bytes: 10,
            cpu_stream_write_bytes: 5,
            gpu_random_read_bytes: 200,
            gpu_random_write_bytes: 100,
            gpu_stream_read_bytes: 20,
            gpu_stream_write_bytes: 10,
            pcie_h2d_bytes: 30,
            pcie_d2h_bytes: 40,
            nvlink_bytes: 7,
            gpu_flops: 1000,
            cpu_flops: 500,
            gpu_ops: 2,
            cpu_ops: 3,
            pcie_ops: 1,
        }
    }

    #[test]
    fn totals() {
        let t = sample();
        assert_eq!(t.cpu_bytes(), 165);
        assert_eq!(t.gpu_bytes(), 330);
        assert_eq!(t.pcie_bytes(), 70);
    }

    #[test]
    fn addition_is_fieldwise() {
        let t = sample() + sample();
        assert_eq!(t.cpu_random_read_bytes, 200);
        assert_eq!(t.gpu_ops, 4);
        assert_eq!(t.pcie_d2h_bytes, 80);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut t = sample();
        t += sample();
        assert_eq!(t, sample() + sample());
    }

    #[test]
    fn zero_is_identity() {
        assert_eq!(sample() + Traffic::ZERO, sample());
        assert!(Traffic::ZERO.is_zero());
        assert!(!sample().is_zero());
        assert!(Traffic::default().is_zero());
    }

    #[test]
    fn sum_over_iterator() {
        let s: Traffic = std::iter::repeat(sample()).take(3).sum();
        assert_eq!(s.cpu_random_read_bytes, 300);
        assert_eq!(s.nvlink_bytes, 21);
    }
}
