//! Golden figure test: the CSV every figure / table / ablation writes
//! under `results/` is the reproduction's raw output, so its bytes are
//! pinned. The digests below were recorded at the commit *before* the
//! fourteen figure mains were folded into the table-driven `repro_report`,
//! from their `results/<binary>.csv`; the fold reproduces them byte for
//! byte (the one exception is the §VI-D worst-case column, whose unit was
//! wrong: `worst-case MB` 1007 became `worst-case MiB` 960).
//!
//! Runs at `SP_ITERS=3` so the whole sweep stays cheap; paper scale, so
//! release only.

use std::path::Path;
use std::process::Command;

/// `(figure id, FNV-1a digest of results/<id>.csv)` at `SP_ITERS=3`.
const GOLDEN: [(&str, u64); 14] = [
    ("fig03", 0xab58ad271ef799a6),
    ("fig05", 0x84d6ffc3c9662d8a),
    ("fig06", 0x9a9693abe0d01256),
    ("fig12a", 0x47c21b1fc0b85ad2),
    // fig12b, fig13, fig15a, fig15b were 0x087801db9bc613c3,
    // 0x22ef7844cfc7204c, 0xa3a067801947fdab, 0x5d4899d062de67f9 while
    // ScratchPipe's breakdown and the straw-man skipped their first
    // iteration; with fewer than 8 the steady window is every iteration.
    ("fig12b", 0xfc41183eb049ab7b),
    ("fig13", 0x8049cbb2e328bf2e),
    ("fig14", 0x7aad4143879fb3af),
    ("fig15a", 0x7957abf814219cb3),
    ("fig15b", 0x88ecf455870d3ccf),
    ("table1", 0xe0702cf63f7f9a3d),
    // Was 0x633edfc5acd4a4b7 with the worst-case column in MB (1007).
    ("table_overhead", 0x478da7d14eafdd92),
    ("ablation_policy", 0xa21093a035e49bd3),
    ("ablation_batch", 0x4996768b605d8ba0),
    ("ext_multigpu", 0xdd49234999fbb0cc),
];

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

    let out = Command::new(env!("CARGO_BIN_EXE_repro_report"))
        .args(GOLDEN.map(|(id, _)| id))
        .current_dir(&cwd)
        .env("SP_ITERS", "3")
        .output()
        .expect("repro_report runs");
    assert!(out.status.success(), "{out:?}");

    let mut mismatches = Vec::new();
    for (id, golden) in GOLDEN {
        let csv = std::fs::read(cwd.join("results").join(format!("{id}.csv")))
            .unwrap_or_else(|e| panic!("{id}: no CSV written: {e}"));
        let digest = fnv1a(&csv);
        if digest != golden {
            mismatches.push(format!("{id}: {digest:#018x} (recorded {golden:#018x})"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
