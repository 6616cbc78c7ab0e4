//! Energy model (paper Figure 14).
//!
//! The paper measures socket power with `pcm-power` and GPU power with
//! `nvidia-smi`, then multiplies average power by execution time. We model
//! each device with an idle floor plus an active increment, integrate over
//! the busy times the caller supplies, and report Joules.

use serde::Serialize;

use crate::time::SimTime;

/// Active/idle power draw of the platform's devices, in Watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerModel {
    /// CPU socket power when its memory system is saturated.
    pub cpu_active_w: f64,
    /// CPU socket idle power.
    pub cpu_idle_w: f64,
    /// Per-GPU power under load.
    pub gpu_active_w: f64,
    /// Per-GPU idle power.
    pub gpu_idle_w: f64,
    /// Number of GPUs in the node.
    pub num_gpus: u32,
}

impl PowerModel {
    /// Nominal constants for the paper's Xeon E5-2698v4 (135 W TDP) and
    /// V100 (300 W TDP) with ≈35 % idle floors.
    pub fn isca_paper() -> Self {
        PowerModel {
            cpu_active_w: 135.0,
            cpu_idle_w: 48.0,
            gpu_active_w: 300.0,
            gpu_idle_w: 55.0,
            num_gpus: 1,
        }
    }

    /// The same constants for an 8-GPU node.
    pub fn p3_16xlarge() -> Self {
        PowerModel {
            num_gpus: 8,
            ..Self::isca_paper()
        }
    }

    /// Energy for an execution of length `makespan` where the CPU memory
    /// system is busy for `cpu_busy` and the GPU(s) for `gpu_busy` each.
    pub fn energy(&self, makespan: SimTime, cpu_busy: SimTime, gpu_busy: SimTime) -> EnergyReport {
        let wall = makespan.as_secs();
        let cpu_b = cpu_busy.as_secs().min(wall);
        let gpu_b = gpu_busy.as_secs().min(wall);
        let cpu_j = self.cpu_idle_w * wall + (self.cpu_active_w - self.cpu_idle_w) * cpu_b;
        let gpu_j = self.num_gpus as f64
            * (self.gpu_idle_w * wall + (self.gpu_active_w - self.gpu_idle_w) * gpu_b);
        EnergyReport {
            cpu_joules: cpu_j,
            gpu_joules: gpu_j,
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::isca_paper()
    }
}

/// Energy in Joules attributed to each device class.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct EnergyReport {
    /// CPU socket energy (Joules).
    pub cpu_joules: f64,
    /// Total GPU energy across all GPUs (Joules).
    pub gpu_joules: f64,
}

impl EnergyReport {
    /// Total node energy in Joules.
    pub fn total_joules(&self) -> f64 {
        self.cpu_joules + self.gpu_joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_idle_run_draws_idle_power() {
        let p = PowerModel::isca_paper();
        let e = p.energy(SimTime::from_secs(1.0), SimTime::ZERO, SimTime::ZERO);
        assert!((e.cpu_joules - 48.0).abs() < 1e-9);
        assert!((e.gpu_joules - 55.0).abs() < 1e-9);
    }

    #[test]
    fn fully_busy_run_draws_active_power() {
        let p = PowerModel::isca_paper();
        let s = SimTime::from_secs(2.0);
        let e = p.energy(s, s, s);
        assert!((e.cpu_joules - 270.0).abs() < 1e-9);
        assert!((e.gpu_joules - 600.0).abs() < 1e-9);
        assert!((e.total_joules() - 870.0).abs() < 1e-9);
    }

    #[test]
    fn busy_time_is_clamped_to_makespan() {
        let p = PowerModel::isca_paper();
        let e = p.energy(
            SimTime::from_secs(1.0),
            SimTime::from_secs(5.0),
            SimTime::ZERO,
        );
        assert!((e.cpu_joules - 135.0).abs() < 1e-9);
    }

    #[test]
    fn multi_gpu_scales_gpu_energy() {
        let p1 = PowerModel::isca_paper();
        let p8 = PowerModel::p3_16xlarge();
        let s = SimTime::from_secs(1.0);
        assert!((p8.energy(s, s, s).gpu_joules - 8.0 * p1.energy(s, s, s).gpu_joules).abs() < 1e-9);
    }

    #[test]
    fn shorter_runs_cost_less_energy() {
        // The paper's headline energy claim follows directly: ScratchPipe's
        // shorter iteration time cuts energy roughly proportionally.
        let p = PowerModel::isca_paper();
        let slow = p.energy(
            SimTime::from_millis(100.0),
            SimTime::from_millis(80.0),
            SimTime::from_millis(30.0),
        );
        let fast = p.energy(
            SimTime::from_millis(30.0),
            SimTime::from_millis(10.0),
            SimTime::from_millis(25.0),
        );
        assert!(fast.total_joules() < slow.total_joules() * 0.5);
    }
}
