//! Cloud training-cost model (paper Table I).
//!
//! The paper prices RecSys training on AWS EC2 P3 instances: ScratchPipe
//! runs on a single-GPU `p3.2xlarge` ($3.06/hr) while the GPU-only
//! comparator needs a `p3.16xlarge` ($24.48/hr). Cost per N iterations is
//! simply `price/hour × iteration_time × N`.

use serde::Serialize;

use crate::time::SimTime;

/// A cloud instance type with an hourly price.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InstanceSpec {
    /// Instance name, e.g. `"p3.2xlarge"`.
    pub name: String,
    /// On-demand price in USD per hour.
    pub price_per_hour: f64,
    /// Number of GPUs on the instance.
    pub gpus: u32,
}

impl InstanceSpec {
    /// AWS `p3.2xlarge`: 1×V100, $3.06/hr (paper Table I).
    pub fn p3_2xlarge() -> Self {
        InstanceSpec {
            name: "p3.2xlarge".to_owned(),
            price_per_hour: 3.06,
            gpus: 1,
        }
    }

    /// AWS `p3.16xlarge`: 8×V100, $24.48/hr (paper Table I).
    pub fn p3_16xlarge() -> Self {
        InstanceSpec {
            name: "p3.16xlarge".to_owned(),
            price_per_hour: 24.48,
            gpus: 8,
        }
    }

    /// Cost of running this instance for `time`.
    pub(crate) fn cost_for(&self, time: SimTime) -> f64 {
        self.price_per_hour * time.as_secs() / 3600.0
    }
}

/// Cost summary for a fixed number of training iterations (Table I row).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainingCost {
    /// Instance the training runs on.
    pub instance: InstanceSpec,
    /// Steady-state time per training iteration.
    pub iteration_time: SimTime,
    /// Number of iterations priced.
    pub iterations: u64,
    /// Total cost in USD.
    pub total_usd: f64,
}

impl TrainingCost {
    /// Prices `iterations` iterations of `iteration_time` each on `instance`.
    pub(crate) fn new(instance: InstanceSpec, iteration_time: SimTime, iterations: u64) -> Self {
        let total = instance.cost_for(iteration_time * iterations as f64);
        TrainingCost {
            instance,
            iteration_time,
            iterations,
            total_usd: total,
        }
    }

    /// The paper's reference point: one million iterations.
    pub fn per_million_iterations(instance: InstanceSpec, iteration_time: SimTime) -> Self {
        Self::new(instance, iteration_time, 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_scratchpipe_random_row_reproduces() {
        // Table I: Random / ScratchPipe / p3.2xlarge / 47.82 ms → $40.64.
        let c = TrainingCost::per_million_iterations(
            InstanceSpec::p3_2xlarge(),
            SimTime::from_millis(47.82),
        );
        assert!((c.total_usd - 40.64).abs() < 0.05, "{}", c.total_usd);
    }

    #[test]
    fn paper_table1_8gpu_random_row_reproduces() {
        // Table I: Random / 8 GPU / p3.16xlarge / 16.22 ms → $110.3.
        let c = TrainingCost::per_million_iterations(
            InstanceSpec::p3_16xlarge(),
            SimTime::from_millis(16.22),
        );
        assert!((c.total_usd - 110.3).abs() < 0.1, "{}", c.total_usd);
    }

    #[test]
    fn cost_scales_linearly_with_iterations() {
        let i = InstanceSpec::p3_2xlarge();
        let t = SimTime::from_millis(30.0);
        let one = TrainingCost::new(i.clone(), t, 1_000);
        let ten = TrainingCost::new(i, t, 10_000);
        assert!((ten.total_usd - 10.0 * one.total_usd).abs() < 1e-9);
    }

    #[test]
    fn instance_presets() {
        assert_eq!(InstanceSpec::p3_2xlarge().gpus, 1);
        assert_eq!(InstanceSpec::p3_16xlarge().gpus, 8);
        assert!(
            InstanceSpec::p3_16xlarge().price_per_hour > InstanceSpec::p3_2xlarge().price_per_hour
        );
    }

    #[test]
    fn hour_of_p3_2xlarge_costs_list_price() {
        let i = InstanceSpec::p3_2xlarge();
        assert!((i.cost_for(SimTime::from_secs(3600.0)) - 3.06).abs() < 1e-9);
    }
}
