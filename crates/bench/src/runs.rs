//! The simulations behind one report, each run once.

use std::collections::HashMap;
use std::rc::Rc;

use systems::{run_system, ExperimentConfig, SystemKind, SystemReport};
use tracegen::LocalityProfile;

/// Owns a report's iteration count and memoises every simulation by its
/// full configuration, so figures that share a design point (ScratchPipe
/// at 2 % under the paper shape appears in nine of them) simulate it once.
#[derive(Debug)]
pub struct Runs {
    iterations: usize,
    memo: HashMap<String, Rc<SystemReport>>,
    simulated: usize,
}

impl Runs {
    /// An empty memo for figures simulated over `iterations` mini-batches.
    pub fn new(iterations: usize) -> Self {
        Runs {
            iterations,
            memo: HashMap::new(),
            simulated: 0,
        }
    }

    /// Mini-batches per simulation.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Simulations actually run so far.
    pub fn simulated(&self) -> usize {
        self.simulated
    }

    /// [`ExperimentConfig::paper`] at this report's iteration count.
    pub fn paper(&self, profile: LocalityProfile, cache_fraction: f64) -> ExperimentConfig {
        ExperimentConfig::paper(profile, cache_fraction, self.iterations)
    }

    /// [`run_system`], memoised. The cache-less systems are keyed without
    /// the cache fraction they ignore.
    pub fn get(&mut self, kind: SystemKind, cfg: &ExperimentConfig) -> Rc<SystemReport> {
        let mut keyed = cfg.clone();
        if matches!(kind, SystemKind::Hybrid | SystemKind::MultiGpu8) {
            keyed.cache_fraction = 0.0;
        }
        let key = format!("{kind:?} {keyed:?}");
        if let Some(report) = self.memo.get(&key) {
            return Rc::clone(report);
        }
        let report = self.uncached(|| run_system(kind, cfg));
        let report = Rc::new(report.expect("figure configurations are valid"));
        self.memo.insert(key, Rc::clone(&report));
        report
    }

    /// Runs and counts a simulation [`run_system`] cannot express.
    pub fn uncached<T>(&mut self, simulate: impl FnOnce() -> T) -> T {
        self.simulated += 1;
        simulate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoised_reports_equal_fresh_runs() {
        let mut runs = Runs::new(6);
        let cfg = ExperimentConfig::scaled_down(LocalityProfile::Medium, 0.1, runs.iterations());
        let kinds = [
            SystemKind::Hybrid,
            SystemKind::StaticCache,
            SystemKind::StrawMan,
            SystemKind::ScratchPipe,
            SystemKind::MultiGpu8,
        ];
        for kind in kinds {
            let fresh = format!("{:?}", run_system(kind, &cfg).expect("fresh run"));
            assert_eq!(format!("{:?}", runs.get(kind, &cfg)), fresh, "{kind}");
            assert_eq!(format!("{:?}", runs.get(kind, &cfg)), fresh, "{kind} again");
        }
        assert_eq!(runs.simulated(), kinds.len());

        // The cache-less hybrid is one simulation whatever the fraction;
        // a cached system is one per fraction.
        let other = ExperimentConfig {
            cache_fraction: 0.2,
            ..cfg
        };
        runs.get(SystemKind::Hybrid, &other);
        assert_eq!(runs.simulated(), kinds.len());
        runs.get(SystemKind::StaticCache, &other);
        assert_eq!(runs.simulated(), kinds.len() + 1);
    }
}
