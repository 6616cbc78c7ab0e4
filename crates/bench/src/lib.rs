//! `sp-bench` — the reproduction ledger of the ScratchPipe paper, the run
//! tooling (`trace_report`, `telemetry_overhead`, `calibrate_schedule`)
//! and the criterion microbenches.
//!
//! The paper's evaluation is stated once, as [`FIGURES`]: per figure,
//! table and ablation, the sweep that regenerates its table and the
//! paper's claims about it, each with the band this repository holds
//! itself to. One binary walks it:
//!
//! ```sh
//! cargo run --release -p sp-bench --bin repro_report                # everything
//! cargo run --release -p sp-bench --bin repro_report fig13 table1   # by id
//! cargo run --release -p sp-bench --bin repro_report > EXPERIMENTS.md
//! ```
//!
//! It prints each table as markdown, writes it to `results/<id>.csv`, and
//! prints each claim with a computed verdict; an id that is not in
//! [`FIGURES`] prints the ids and exits 2. Its stdout at the default
//! `SP_ITERS` is the committed `EXPERIMENTS.md`, and
//! `tests/paper_claims.rs` asserts the same bands at a reduced iteration
//! count. Set `SP_ITERS` to change the number of simulated iterations
//! (default 12; the first third is discarded as cold-cache warm-up).

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

pub mod figures;
mod runs;

pub use figures::{Claim, Figure, FIGURES};
pub use runs::Runs;

/// A simple table that renders to markdown and CSV.
#[derive(Debug, Clone, Default)]
pub struct ResultTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        ResultTable {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "\n## {}\n", self.title);
        let _ = writeln!(s, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(s, "| {} |", r.join(" | "));
        }
        s
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.headers.join(","));
        for r in &self.rows {
            let _ = writeln!(s, "{}", r.join(","));
        }
        s
    }

    /// Prints the markdown rendering and writes `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        print!("{}", self.to_markdown());
        let dir = out_dir();
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = fs::write(&path, self.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("\n[written {}]", path.display());
        }
    }
}

/// The output directory for CSV results (`results/`, created on demand).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Number of iterations to simulate (env `SP_ITERS`, default 12). A value
/// that is not a positive integer ends the process with status 2: a
/// figure simulated over zero iterations, or over a default the caller
/// did not ask for, prints a table that reproduces nothing.
pub fn iterations() -> usize {
    let value = std::env::var_os("SP_ITERS").map(|v| v.to_string_lossy().into_owned());
    parse_iterations(value.as_deref()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// [`iterations`] of an `SP_ITERS` value (`None`: unset).
fn parse_iterations(value: Option<&str>) -> Result<usize, String> {
    let Some(value) = value else { return Ok(12) };
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "SP_ITERS must be a positive integer, got {value:?}"
        )),
    }
}

/// Formats a millisecond value with two decimals.
pub fn ms(t: memsim::SimTime) -> String {
    format!("{:.2}", t.as_millis())
}

/// Formats a ratio with two decimals and a trailing `×`.
pub fn speedup(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown_and_csv() {
        let mut t = ResultTable::new("Demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn ragged_rows_rejected() {
        let mut t = ResultTable::new("Demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(memsim::SimTime::from_millis(12.345)), "12.35");
        assert_eq!(speedup(2.5), "2.50x");
        assert!(iterations() > 0);
    }

    #[test]
    fn sp_iters_is_a_positive_integer_or_an_error() {
        assert_eq!(parse_iterations(None), Ok(12));
        assert_eq!(parse_iterations(Some("6")), Ok(6));
        for bad in ["abc", "0", "", "-3", "1.5", " 6"] {
            assert_eq!(
                parse_iterations(Some(bad)),
                Err(format!("SP_ITERS must be a positive integer, got {bad:?}")),
            );
        }
    }
}
