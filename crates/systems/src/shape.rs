//! The workload shape shared by every system.

use dlrm::DlrmConfig;
use serde::Serialize;
use tracegen::TraceConfig;

/// Model + workload dimensions, common to all simulated systems.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelShape {
    /// Number of embedding tables.
    pub num_tables: usize,
    /// Rows per embedding table.
    pub rows_per_table: u64,
    /// Embedding vector width.
    pub dim: usize,
    /// Embedding gathers per table per sample.
    pub lookups_per_sample: usize,
    /// Samples per mini-batch.
    pub batch_size: usize,
    /// Dense-model shapes (MLPs + interaction).
    pub dlrm: DlrmConfig,
}

impl ModelShape {
    /// The paper's default model (§V): 8 tables × 10 M rows × 128-dim
    /// (40 GB total), 20 lookups/table, batch 2048, MLPerf-style MLPs.
    pub fn paper_default() -> Self {
        ModelShape {
            num_tables: 8,
            rows_per_table: 10_000_000,
            dim: 128,
            lookups_per_sample: 20,
            batch_size: 2048,
            dlrm: DlrmConfig::paper_default(),
        }
    }

    /// Paper shape with overridden embedding dimension (Figure 15(a)).
    pub fn paper_with_dim(dim: usize) -> Self {
        ModelShape {
            dim,
            dlrm: DlrmConfig::paper_with(dim, 8),
            ..Self::paper_default()
        }
    }

    /// Paper shape with overridden lookups per table (Figure 15(b)).
    pub fn paper_with_lookups(lookups: usize) -> Self {
        ModelShape {
            lookups_per_sample: lookups,
            ..Self::paper_default()
        }
    }

    /// A small shape for functional (real-arithmetic) runs and tests.
    #[cfg(test)]
    pub(crate) fn tiny() -> Self {
        let dlrm = DlrmConfig::tiny_with_tables(3);
        ModelShape {
            num_tables: 3,
            rows_per_table: 2_000,
            dim: dlrm.emb_dim,
            lookups_per_sample: 4,
            batch_size: 16,
            dlrm,
        }
    }

    /// Bytes of one embedding row.
    pub fn row_bytes(&self) -> u64 {
        self.dim as u64 * 4
    }

    /// Total sparse lookups per mini-batch across all tables.
    pub fn lookups_per_batch(&self) -> u64 {
        (self.num_tables * self.lookups_per_sample * self.batch_size) as u64
    }

    /// The matching trace-generator configuration.
    pub fn trace_config(&self, profile: tracegen::LocalityProfile, seed: u64) -> TraceConfig {
        TraceConfig {
            num_tables: self.num_tables,
            rows_per_table: self.rows_per_table,
            lookups_per_sample: self.lookups_per_sample,
            batch_size: self.batch_size,
            profile,
            seed,
        }
    }

    /// Validates internal consistency (DLRM shapes vs embedding shapes).
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.dlrm.validate()?;
        if self.dlrm.num_tables != self.num_tables {
            return Err(format!(
                "dlrm.num_tables {} != num_tables {}",
                self.dlrm.num_tables, self.num_tables
            ));
        }
        if self.dlrm.emb_dim != self.dim {
            return Err(format!(
                "dlrm.emb_dim {} != dim {}",
                self.dlrm.emb_dim, self.dim
            ));
        }
        if self.rows_per_table == 0 || self.batch_size == 0 || self.lookups_per_sample == 0 {
            return Err("degenerate workload dimensions".to_owned());
        }
        Ok(())
    }
}

impl Default for ModelShape {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::LocalityProfile;

    #[test]
    fn paper_default_is_40gb() {
        let s = ModelShape::paper_default();
        s.validate().expect("valid");
        assert_eq!(s.lookups_per_batch(), 327_680);
        assert_eq!(s.row_bytes(), 512);
    }

    #[test]
    fn dim_and_lookup_variants_validate() {
        for dim in [64, 128, 256] {
            ModelShape::paper_with_dim(dim).validate().expect("valid");
        }
        for l in [1, 20, 50] {
            ModelShape::paper_with_lookups(l).validate().expect("valid");
        }
    }

    #[test]
    fn tiny_is_consistent() {
        ModelShape::tiny().validate().expect("valid");
    }

    #[test]
    fn trace_config_round_trips() {
        let s = ModelShape::tiny();
        let tc = s.trace_config(LocalityProfile::High, 9);
        assert_eq!(tc.num_tables, s.num_tables);
        assert_eq!(tc.rows_per_table, s.rows_per_table);
        assert_eq!(tc.batch_size, s.batch_size);
        assert_eq!(tc.seed, 9);
    }

    #[test]
    fn validation_catches_mismatch() {
        let mut s = ModelShape::tiny();
        s.num_tables = 5;
        assert!(s.validate().is_err());
        let mut s = ModelShape::tiny();
        s.dim = 99;
        assert!(s.validate().is_err());
    }
}
