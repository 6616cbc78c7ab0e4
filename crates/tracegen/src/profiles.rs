//! Locality regimes and dataset models.
//!
//! §III-A of the paper observes that the *magnitude* of embedding-access
//! locality varies widely across deployment domains: in Criteo, 2 % of
//! rows absorb >80 % of accesses, while in the Alibaba User table the same
//! 2 % absorb only 8.5 %. The paper distills this spectrum into four
//! benchmark traces — Random, Low, Medium, High — plus per-dataset PDF
//! models for its characterization figures. This module holds both.

use serde::Serialize;

/// One of the paper's four benchmark locality regimes.
///
/// The Zipf exponents are calibrated so that a 10 M-row table hits the
/// paper's quoted anchor points for the share of traffic captured by the
/// hottest 2 % of rows:
///
/// | regime | exponent | top-2 % share |
/// |--------|----------|---------------|
/// | Random | 0.00     | 2 % (uniform) |
/// | Low    | 0.37     | ≈ 8.5 % (Alibaba User) |
/// | Medium | 0.80     | ≈ 45 %  |
/// | High   | 1.05     | ≈ 80 % (Criteo) |
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum LocalityProfile {
    /// Uniformly random accesses — the adversarial lower bound.
    Random,
    /// Long-tail dominated (Alibaba-User-like).
    Low,
    /// Intermediate skew.
    Medium,
    /// Head dominated (Criteo-like).
    High,
    /// An explicit Zipf exponent for sensitivity studies.
    Custom(
        /// The Zipf exponent `s ≥ 0`.
        f64,
    ),
}

impl LocalityProfile {
    /// The four named regimes, in the order the paper's figures use.
    pub const SWEEP: [LocalityProfile; 4] = [
        LocalityProfile::Random,
        LocalityProfile::Low,
        LocalityProfile::Medium,
        LocalityProfile::High,
    ];

    /// The Zipf exponent of this regime.
    pub fn zipf_exponent(self) -> f64 {
        match self {
            LocalityProfile::Random => 0.0,
            LocalityProfile::Low => 0.37,
            LocalityProfile::Medium => 0.80,
            LocalityProfile::High => 1.05,
            LocalityProfile::Custom(s) => s,
        }
    }

    /// Display name used in reports and figure output.
    pub fn name(self) -> &'static str {
        match self {
            LocalityProfile::Random => "Random",
            LocalityProfile::Low => "Low",
            LocalityProfile::Medium => "Medium",
            LocalityProfile::High => "High",
            LocalityProfile::Custom(_) => "Custom",
        }
    }
}

impl std::fmt::Display for LocalityProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalityProfile::Custom(s) => write!(f, "Custom(s={s})"),
            other => f.write_str(other.name()),
        }
    }
}

/// The access-popularity model of one table of a real dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TableProfile {
    /// Human-readable table name (e.g. `"User"`).
    pub name: String,
    /// Number of rows (unique categorical values).
    pub rows: u64,
    /// Fitted Zipf exponent of the access counts.
    pub zipf_exponent: f64,
}

impl TableProfile {
    /// Creates a table profile.
    pub(crate) fn new(name: impl Into<String>, rows: u64, zipf_exponent: f64) -> Self {
        TableProfile {
            name: name.into(),
            rows,
            zipf_exponent,
        }
    }
}

/// A synthetic stand-in for one of the paper's four real datasets
/// (Figure 3 / Figure 6). Exponents and row counts are calibrated to
/// reproduce the qualitative shapes the paper reports; they are **not**
/// fits to the raw data (which this reproduction does not ship).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DatasetModel {
    /// Dataset display name.
    pub name: String,
    /// Per-table popularity models.
    pub tables: Vec<TableProfile>,
}

impl DatasetModel {
    /// Alibaba User Behavior: very long tail on the User table (the
    /// paper's flattest curve; top 2 % of rows ≈ 8.5 % of traffic) and a
    /// moderately skewed Item table.
    pub(crate) fn alibaba() -> Self {
        DatasetModel {
            name: "Alibaba".to_owned(),
            tables: vec![
                TableProfile::new("User", 987_994, 0.37),
                TableProfile::new("Item", 4_162_024, 0.62),
            ],
        }
    }

    /// Kaggle Anime recommendations: strongly head-heavy item catalogue
    /// (popular shows dominate), users moderately skewed.
    pub(crate) fn kaggle_anime() -> Self {
        DatasetModel {
            name: "Kaggle Anime".to_owned(),
            tables: vec![
                TableProfile::new("User", 73_516, 0.65),
                TableProfile::new("Item", 11_200, 1.00),
            ],
        }
    }

    /// MovieLens-25M: classic medium-high skew on movies.
    pub(crate) fn movielens() -> Self {
        DatasetModel {
            name: "MovieLens".to_owned(),
            tables: vec![
                TableProfile::new("User", 162_541, 0.72),
                TableProfile::new("Item", 59_047, 0.95),
            ],
        }
    }

    /// Criteo Terabyte click logs: 26 categorical features with wildly
    /// varying cardinalities; the big tables are extremely head-heavy
    /// (top 2 % ≈ 80 % of accesses). We model the seven tables the paper's
    /// Figure 6(d) legend names (0, 9, 10, 11, 19, 20, 21).
    pub(crate) fn criteo() -> Self {
        DatasetModel {
            name: "Criteo".to_owned(),
            tables: vec![
                TableProfile::new("Table 0", 7_912_889, 1.05),
                TableProfile::new("Table 9", 5_461_306, 1.10),
                TableProfile::new("Table 10", 3_067_956, 1.02),
                TableProfile::new("Table 11", 405_282, 0.95),
                TableProfile::new("Table 19", 2_202_608, 1.08),
                TableProfile::new("Table 20", 9_758_201, 1.12),
                TableProfile::new("Table 21", 7_539_664, 1.00),
            ],
        }
    }

    /// All four dataset models, in the paper's figure order.
    pub fn all() -> Vec<DatasetModel> {
        vec![
            Self::alibaba(),
            Self::kaggle_anime(),
            Self::movielens(),
            Self::criteo(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::ZipfSampler;

    #[test]
    fn sweep_order_matches_paper_figures() {
        let names: Vec<&str> = LocalityProfile::SWEEP.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["Random", "Low", "Medium", "High"]);
    }

    #[test]
    fn exponents_increase_with_locality() {
        let e: Vec<f64> = LocalityProfile::SWEEP
            .iter()
            .map(|p| p.zipf_exponent())
            .collect();
        assert!(e.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(e[0], 0.0);
    }

    #[test]
    fn custom_profile_carries_exponent() {
        let p = LocalityProfile::Custom(1.6);
        assert_eq!(p.zipf_exponent(), 1.6);
        assert_eq!(format!("{p}"), "Custom(s=1.6)");
        assert_eq!(format!("{}", LocalityProfile::High), "High");
    }

    #[test]
    fn anchor_point_low_matches_alibaba_quote() {
        // Paper §III-A: "for Alibaba User dataset, 2 % of embeddings only
        // account for 8.5 % of traffic".
        let ali = DatasetModel::alibaba();
        let user = &ali.tables[0];
        let z = ZipfSampler::new(user.rows, user.zipf_exponent);
        let share = z.top_share(0.02);
        assert!((share - 0.085).abs() < 0.04, "share {share}");
    }

    #[test]
    fn anchor_point_high_matches_criteo_quote() {
        // Paper §III-A: "in Criteo Ad Labs, 2 % of the embeddings account
        // for more than 80 % of all accesses".
        let criteo = DatasetModel::criteo();
        let big = &criteo.tables[0];
        let z = ZipfSampler::new(big.rows, big.zipf_exponent);
        assert!(z.top_share(0.02) > 0.74, "share {}", z.top_share(0.02));
    }

    #[test]
    fn all_datasets_have_tables() {
        let all = DatasetModel::all();
        assert_eq!(all.len(), 4);
        for d in &all {
            assert!(!d.tables.is_empty(), "{} has no tables", d.name);
            for t in &d.tables {
                assert!(t.rows > 0);
                assert!(t.zipf_exponent >= 0.0);
            }
        }
    }

    #[test]
    fn criteo_matches_figure6_legend() {
        let c = DatasetModel::criteo();
        assert_eq!(c.tables.len(), 7);
        assert_eq!(c.tables[0].name, "Table 0");
        assert_eq!(c.tables[6].name, "Table 21");
    }
}
