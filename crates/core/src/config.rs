//! Runtime configuration.

use serde::Serialize;

use crate::error::ScratchError;
use crate::policy::EvictionPolicy;
use crate::runtime::StageId;

/// The sliding-window geometry of the Hold mask (paper §IV-C).
///
/// At steady state `past + 1 + future` mini-batches are in flight. The
/// paper derives `past` as the stage distance from \[Train\] back to
/// \[Collect\] (3, protecting against RAW-②/③) and `future` as the
/// distance from \[Insert\] back to \[Collect\] (2, protecting against
/// RAW-④); [`WindowConfig::PAPER`] computes both from the [`StageId`]
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WindowConfig {
    /// Previous mini-batches whose slots may not be evicted.
    pub past: u32,
    /// Upcoming mini-batches whose cached slots may not be evicted.
    pub future: u32,
}

impl WindowConfig {
    /// The paper's pipelined configuration: 3 past + 2 future.
    pub const PAPER: WindowConfig = WindowConfig {
        past: StageId::Train.after(StageId::Collect) as u32,
        future: StageId::Insert.after(StageId::Collect) as u32,
    };

    /// The straw-man (sequential, unpipelined) configuration: with no
    /// overlap between mini-batches, only the current batch needs
    /// protection.
    pub const SEQUENTIAL: WindowConfig = WindowConfig { past: 0, future: 0 };

    /// Total concurrent mini-batches tracked: `past + 1 + future`.
    pub fn width(self) -> u32 {
        self.past + 1 + self.future
    }

    /// Validates that the window fits the 32-bit Hold-mask words. The
    /// width is summed in `u64`, so no `past`/`future` overflows it.
    pub(crate) fn validate(self) -> Result<(), ScratchError> {
        let width = u64::from(self.past) + 1 + u64::from(self.future);
        if width > 31 {
            return Err(ScratchError::InvalidConfig {
                detail: format!("window width {width} exceeds 31"),
            });
        }
        Ok(())
    }
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Full configuration of a [`Pipeline`](crate::Pipeline).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineConfig {
    /// Embedding vector width (must match the CPU tables).
    pub dim: usize,
    /// Scratchpad slots per table.
    pub slots_per_table: usize,
    /// Hold-mask window geometry.
    pub window: WindowConfig,
    /// Victim selection policy among evictable slots.
    pub policy: EvictionPolicy,
    /// Store and train real embedding data (`true`) or only simulate cache
    /// metadata and traffic (`false`, used for paper-scale timing runs
    /// where 40 GB of table data would be pointless to allocate).
    pub functional: bool,
    /// Run the per-cycle hazard checker (asserts the always-hit property
    /// and victim-safety; costs time, default on in tests).
    pub check_hazards: bool,
}

impl PipelineConfig {
    /// Functional (real-arithmetic) configuration with paper windows.
    pub fn functional(dim: usize, slots_per_table: usize) -> Self {
        PipelineConfig {
            dim,
            slots_per_table,
            window: WindowConfig::PAPER,
            policy: EvictionPolicy::Lru,
            functional: true,
            check_hazards: true,
        }
    }

    /// Metadata-only configuration for paper-scale traffic simulation.
    pub fn analytic(dim: usize, slots_per_table: usize) -> Self {
        PipelineConfig {
            functional: false,
            check_hazards: false,
            ..Self::functional(dim, slots_per_table)
        }
    }

    /// Switches to the sequential straw-man window.
    pub fn sequential(mut self) -> Self {
        self.window = WindowConfig::SEQUENTIAL;
        self
    }

    /// Overrides the eviction policy.
    pub fn with_policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the window geometry (used by the hazard negative-tests).
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        self.window = window;
        self
    }

    /// Validates the configuration.
    pub(crate) fn validate(&self) -> Result<(), ScratchError> {
        if self.dim == 0 {
            return Err(ScratchError::InvalidConfig {
                detail: "dim must be positive".to_owned(),
            });
        }
        if self.slots_per_table == 0 {
            return Err(ScratchError::InvalidConfig {
                detail: "slots_per_table must be positive".to_owned(),
            });
        }
        self.window.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_window_matches_section_4c() {
        let w = WindowConfig::PAPER;
        assert_eq!(w.past, 3);
        assert_eq!(w.future, 2);
        assert_eq!(w.width(), 6);
        w.validate().expect("paper window valid");
    }

    #[test]
    fn sequential_window_is_width_one() {
        assert_eq!(WindowConfig::SEQUENTIAL.width(), 1);
    }

    #[test]
    fn oversized_window_rejected() {
        let w = WindowConfig {
            past: 20,
            future: 15,
        };
        assert!(w.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = PipelineConfig::functional(8, 100)
            .sequential()
            .with_policy(EvictionPolicy::Random);
        assert_eq!(c.window, WindowConfig::SEQUENTIAL);
        assert_eq!(c.policy, EvictionPolicy::Random);
        assert!(c.functional);
        c.validate().expect("valid");
    }

    #[test]
    fn analytic_mode_disables_functional() {
        let c = PipelineConfig::analytic(128, 1000);
        assert!(!c.functional);
        assert!(!c.check_hazards);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(PipelineConfig::functional(0, 10).validate().is_err());
        assert!(PipelineConfig::functional(8, 0).validate().is_err());
    }
}
