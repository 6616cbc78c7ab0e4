//! End-to-end checks of the paper's quantitative claims, at a reduced
//! iteration count so they stay cheap. The claims, the paper's values and
//! the bands are `sp_bench::FIGURES` — the table `repro_report` prints as
//! `EXPERIMENTS.md` at full resolution; this file only walks it.
//!
//! Paper-scale claims run the 10 M-row cache simulators; they are compiled
//! always but executed only under `--release`
//! (`cfg_attr(debug_assertions, ignore)`), matching how the figures are
//! generated.

use sp_bench::{Runs, FIGURES};
use systems::{run_system, ExperimentConfig, SystemKind};
use tracegen::LocalityProfile;

const QUICK_ITERS: usize = 8;

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
fn every_ledger_claim_stays_inside_its_band() {
    let mut runs = Runs::new(QUICK_ITERS);
    let mut outside = Vec::new();
    for figure in FIGURES {
        let (_, claims) = (figure.table)(&mut runs);
        assert!(!claims.is_empty(), "{} states no claim", figure.id);
        for claim in claims {
            if !claim.band.contains(&claim.ours) {
                let (id, what, ours, band) = (figure.id, claim.what, claim.ours, &claim.band);
                outside.push(format!("{id}: {what}: {ours} outside {band:?}"));
            }
        }
    }
    assert!(outside.is_empty(), "{}", outside.join("\n"));
}

#[test]
fn pipelining_beats_serial_cache_management_at_any_scale() {
    // Scale-independent claim: for identical cache decisions, overlapping
    // the stages can only shorten the iteration (Figure 7). The *system*
    // ordering vs the hybrid baseline is a paper-scale property (small
    // models are per-op-overhead-bound, where caching does not pay) and is
    // asserted by the release-only ledger walk above (Figure 13's
    // straw-man row).
    let cfg = ExperimentConfig::scaled_down(LocalityProfile::Medium, 0.1, 10);
    let sp = run_system(SystemKind::ScratchPipe, &cfg).expect("sp");
    let straw = run_system(SystemKind::StrawMan, &cfg).expect("straw");
    assert!(sp.iteration_time < straw.iteration_time);
}
