//! Model-shape configuration and FLOP accounting.

use serde::Serialize;

use crate::interaction;

/// Shapes of a DLRM model.
///
/// Invariants (checked by [`DlrmConfig::validate`]):
/// * the bottom MLP's output width equals `emb_dim` (required by dot
///   interaction),
/// * the top MLP's input width equals the interaction output width,
/// * the top MLP ends in a single logit.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DlrmConfig {
    /// Width of the continuous ("dense") input features.
    pub dense_dim: usize,
    /// Bottom MLP widths, `[dense_dim, …, emb_dim]`.
    pub bottom_widths: Vec<usize>,
    /// Top MLP widths, `[interaction_dim, …, 1]`.
    pub top_widths: Vec<usize>,
    /// Embedding vector width.
    pub emb_dim: usize,
    /// Number of embedding tables.
    pub num_tables: usize,
}

impl DlrmConfig {
    /// The paper's default model (§V): 8 tables × 10 M rows × 128-dim,
    /// MLP shapes following the MLPerf DLRM reference.
    pub fn paper_default() -> Self {
        let emb_dim = 128;
        let num_tables = 8;
        let interaction_dim = interaction::output_dim(num_tables, emb_dim);
        DlrmConfig {
            dense_dim: 13,
            bottom_widths: vec![13, 512, 256, emb_dim],
            top_widths: vec![interaction_dim, 1024, 1024, 512, 256, 1],
            emb_dim,
            num_tables,
        }
    }

    /// A paper-shaped model with a different embedding dimension and table
    /// count (used by the Figure 15 sensitivity sweeps).
    pub fn paper_with(emb_dim: usize, num_tables: usize) -> Self {
        let interaction_dim = interaction::output_dim(num_tables, emb_dim);
        DlrmConfig {
            dense_dim: 13,
            bottom_widths: vec![13, 512, 256, emb_dim],
            top_widths: vec![interaction_dim, 1024, 1024, 512, 256, 1],
            emb_dim,
            num_tables,
        }
    }

    /// A miniature model for tests and functional examples.
    pub fn tiny() -> Self {
        let emb_dim = 8;
        let num_tables = 2;
        let interaction_dim = interaction::output_dim(num_tables, emb_dim);
        DlrmConfig {
            dense_dim: 4,
            bottom_widths: vec![4, 16, emb_dim],
            top_widths: vec![interaction_dim, 16, 1],
            emb_dim,
            num_tables,
        }
    }

    /// A tiny model with an explicit table count (functional-run helper).
    pub fn tiny_with_tables(num_tables: usize) -> Self {
        let emb_dim = 8;
        let interaction_dim = interaction::output_dim(num_tables, emb_dim);
        DlrmConfig {
            dense_dim: 4,
            bottom_widths: vec![4, 16, emb_dim],
            top_widths: vec![interaction_dim, 16, 1],
            emb_dim,
            num_tables,
        }
    }

    /// Validates the shape invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.bottom_widths.len() < 2 || self.top_widths.len() < 2 {
            return Err("MLPs need at least one layer".to_owned());
        }
        if self.bottom_widths[0] != self.dense_dim {
            return Err(format!(
                "bottom MLP input {} != dense_dim {}",
                self.bottom_widths[0], self.dense_dim
            ));
        }
        if *self.bottom_widths.last().expect("non-empty") != self.emb_dim {
            return Err(format!(
                "bottom MLP output {} != emb_dim {} (dot interaction requires equality)",
                self.bottom_widths.last().expect("non-empty"),
                self.emb_dim
            ));
        }
        let want = interaction::output_dim(self.num_tables, self.emb_dim);
        if self.top_widths[0] != want {
            return Err(format!(
                "top MLP input {} != interaction output {want}",
                self.top_widths[0]
            ));
        }
        if *self.top_widths.last().expect("non-empty") != 1 {
            return Err("top MLP must end in a single logit".to_owned());
        }
        Ok(())
    }

    /// Forward-pass multiply-accumulate FLOPs per sample across both MLPs
    /// (2 FLOPs per MAC).
    pub(crate) fn forward_flops_per_sample(&self) -> u64 {
        let macs = |widths: &[usize]| -> u64 {
            widths.windows(2).map(|w| (w[0] * w[1]) as u64).sum::<u64>()
        };
        2 * (macs(&self.bottom_widths) + macs(&self.top_widths))
    }

    /// Total training FLOPs per iteration (forward + backward ≈ 3× forward)
    /// for a batch, including the interaction stage.
    pub fn train_flops(&self, batch: usize) -> u64 {
        let mlp = 3 * self.forward_flops_per_sample();
        let v = self.num_tables + 1;
        let pairs = (v * (v - 1) / 2) as u64;
        // Interaction: 2d FLOPs per pair forward, 4d backward.
        let inter = 6 * pairs * self.emb_dim as u64;
        (mlp + inter) * batch as u64
    }

    /// Number of kernel/operator dispatches one training iteration costs on
    /// the dense path (forward + backward per layer, plus interaction and
    /// loss). Drives the per-kernel overhead in the timing model.
    pub fn train_kernel_count(&self) -> u32 {
        let layers = (self.bottom_widths.len() - 1) + (self.top_widths.len() - 1);
        // fwd (1) + bwd-dx (1) + bwd-dw (1) per layer, + interaction fwd/bwd,
        // + loss, + optimizer fusion.
        (3 * layers + 4) as u32
    }

    /// Bytes of one pooled-embedding activation set (`batch × dim` per
    /// table), the tensor volume flowing between the embedding layer and
    /// the interaction stage.
    pub fn pooled_bytes(&self, batch: usize) -> u64 {
        (self.num_tables * batch * self.emb_dim * 4) as u64
    }
}

impl Default for DlrmConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates() {
        let c = DlrmConfig::paper_default();
        c.validate().expect("paper default must validate");
        assert_eq!(c.num_tables, 8);
        assert_eq!(c.emb_dim, 128);
        assert_eq!(c.top_widths[0], 128 + 36);
    }

    #[test]
    fn tiny_validates() {
        DlrmConfig::tiny().validate().expect("tiny must validate");
        for t in 1..6 {
            DlrmConfig::tiny_with_tables(t)
                .validate()
                .unwrap_or_else(|e| panic!("tables={t}: {e}"));
        }
    }

    #[test]
    fn sensitivity_shapes_validate() {
        for dim in [64, 128, 256] {
            DlrmConfig::paper_with(dim, 8)
                .validate()
                .unwrap_or_else(|e| panic!("dim={dim}: {e}"));
        }
    }

    #[test]
    fn validation_catches_bottom_mismatch() {
        let mut c = DlrmConfig::paper_default();
        c.bottom_widths = vec![13, 512, 64];
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_top_input_mismatch() {
        let mut c = DlrmConfig::paper_default();
        c.top_widths[0] = 100;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_non_logit_output() {
        let mut c = DlrmConfig::paper_default();
        *c.top_widths.last_mut().expect("non-empty") = 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn flops_are_plausible_for_paper_model() {
        let c = DlrmConfig::paper_default();
        let per_sample = c.forward_flops_per_sample();
        // Bottom ≈ 170 K MACs, top ≈ 1.9 M MACs → ≈ 4.1 MFLOPs forward.
        assert!(
            per_sample > 3_000_000 && per_sample < 6_000_000,
            "{per_sample}"
        );
        let per_iter = c.train_flops(2048);
        assert!(per_iter > 20_000_000_000, "{per_iter}"); // > 20 GFLOP
    }

    #[test]
    fn kernel_count_scales_with_depth() {
        let small = DlrmConfig::tiny().train_kernel_count();
        let big = DlrmConfig::paper_default().train_kernel_count();
        assert!(big > small);
    }

    #[test]
    fn pooled_bytes_matches_shape() {
        let c = DlrmConfig::paper_default();
        assert_eq!(c.pooled_bytes(2048), 8 * 2048 * 128 * 4);
    }
}
