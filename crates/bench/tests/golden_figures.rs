//! Golden figure test: the CSV every figure / table / ablation writes
//! under `results/` is the reproduction's raw output, so its bytes are
//! pinned. The digests below were recorded at the commit *before* the
//! fourteen figure mains were folded into one table-driven report; the
//! fold must reproduce them byte for byte (the one listed exception is
//! the §VI-D worst-case column, whose unit was wrong).
//!
//! Runs at `SP_ITERS=3` so the whole sweep stays cheap; paper scale, so
//! release only.

use std::path::Path;
use std::process::Command;

/// `(binary, its executable, FNV-1a digest of results/<binary>.csv)` at
/// `SP_ITERS=3`.
macro_rules! golden {
    ($($name:literal => $digest:literal,)*) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)), $digest),)*]
    };
}

const GOLDEN: [(&str, &str, u64); 14] = golden! {
    "fig03_access_counts" => 0xab58ad271ef799a6,
    "fig05_breakdown" => 0x84d6ffc3c9662d8a,
    "fig06_hit_rate" => 0x9a9693abe0d01256,
    "fig12a_latency_static" => 0x47c21b1fc0b85ad2,
    "fig12b_latency_scratchpipe" => 0x087801db9bc613c3,
    "fig13_speedup" => 0x22ef7844cfc7204c,
    "fig14_energy" => 0x7aad4143879fb3af,
    "fig15a_dim_sensitivity" => 0xa3a067801947fdab,
    "fig15b_lookup_sensitivity" => 0x5d4899d062de67f9,
    "table1_training_cost" => 0xe0702cf63f7f9a3d,
    "table_overhead" => 0x633edfc5acd4a4b7,
    "ablation_policy" => 0xa21093a035e49bd3,
    "ablation_batch" => 0x4996768b605d8ba0,
    "ext_multigpu_scratchpipe" => 0xdd49234999fbb0cc,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale: run with --release")]
fn figure_csvs_match_the_recorded_digests() {
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_figures");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("scratch cwd under the target dir");

    let mut mismatches = Vec::new();
    for (name, exe, golden) in GOLDEN {
        let out = Command::new(exe)
            .current_dir(&cwd)
            .env("SP_ITERS", "3")
            .output()
            .expect("figure binary runs");
        assert!(out.status.success(), "{name}: {out:?}");
        let csv = std::fs::read(cwd.join("results").join(format!("{name}.csv")))
            .unwrap_or_else(|e| panic!("{name}: no CSV written: {e}"));
        let digest = fnv1a(&csv);
        if digest != golden {
            mismatches.push(format!("{name}: {digest:#018x} (recorded {golden:#018x})"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
