//! The workspace's `unsafe` code, as an inventory a machine checks.
//!
//! Every library crate denies `unsafe_code`; an exception is an
//! `#[allow(unsafe_code)]` on the one statement that needs it, directly
//! under a `// SAFETY:` comment that argues it. This test scans
//! `crates/*/src` and pins the exceptions to exactly these sites, so a
//! document that counts them ("two `unsafe` blocks") cannot drift from
//! the code:
//!
//! * `crates/core/src/workers.rs`, `fan_out` — the worker pool's
//!   hand-off, which lends a region's closure to the pool's threads;
//! * `crates/core/src/index.rs`, `prefetch` — \[Plan\]'s cache-line
//!   prefetch hint.

use std::fs;
use std::path::{Path, PathBuf};

/// `(file relative to the repo root, enclosing function)` of every
/// allowed `unsafe` block.
const SITES: [(&str, &str); 2] = [
    ("crates/core/src/index.rs", "prefetch"),
    ("crates/core/src/workers.rs", "fan_out"),
];

/// Library crates whose root must carry `#![deny(unsafe_code)]`.
const LIBRARIES: [&str; 6] = [
    "core",
    "dlrm",
    "embeddings",
    "memsim",
    "systems",
    "tracegen",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `crates/*/src`, as `(path relative to the repo
/// root, contents)`, sorted by path.
fn sources() -> Vec<(String, String)> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root().join("crates")).expect("crates/") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut out: Vec<(String, String)> = files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root()).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            (rel, fs::read_to_string(&path).expect("readable source"))
        })
        .collect();
    out.sort();
    out
}

/// The name of the function a `fn` line declares, if it declares one.
fn declared_fn(line: &str) -> Option<&str> {
    let code = line.trim_start();
    if code.starts_with("//") {
        return None;
    }
    let at = code.find("fn ")?;
    if at > 0 && !code[..at].ends_with(' ') {
        return None;
    }
    let name = &code[at + 3..];
    let end = name
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    (end > 0).then(|| &name[..end])
}

/// Whether a line of code (not a comment) uses the `unsafe` keyword.
fn uses_unsafe(line: &str) -> bool {
    let code = line.trim_start();
    if code.starts_with("//") {
        return false;
    }
    code.match_indices("unsafe").any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = code[at + "unsafe".len()..].chars().next();
        let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        !ident(before) && !ident(after) && !code[..at].contains('"')
    })
}

/// One `#[allow(unsafe_code)]` found in the sources.
#[derive(Debug)]
struct Site {
    file: String,
    function: String,
    /// Whether the comment block right above it opens with `// SAFETY:`.
    argued: bool,
    /// Whether the `unsafe` keyword follows within the statement.
    used: bool,
}

fn allow_sites(sources: &[(String, String)]) -> Vec<Site> {
    let mut sites = Vec::new();
    for (file, text) in sources {
        let lines: Vec<&str> = text.lines().collect();
        let mut function = String::new();
        for (n, line) in lines.iter().enumerate() {
            if let Some(name) = declared_fn(line) {
                function = name.to_owned();
            }
            if line.trim() != "#[allow(unsafe_code)]" {
                continue;
            }
            let comment: Vec<&str> = lines[..n]
                .iter()
                .rev()
                .map(|l| l.trim())
                .take_while(|l| l.starts_with("//"))
                .collect();
            let argued = comment.last().is_some_and(|l| l.starts_with("// SAFETY:"));
            let used = lines[n + 1..].iter().take(3).any(|l| uses_unsafe(l));
            sites.push(Site {
                file: file.clone(),
                function: function.clone(),
                argued,
                used,
            });
        }
    }
    sites
}

#[test]
fn the_allowed_unsafe_sites_are_exactly_the_listed_ones() {
    let sites = allow_sites(&sources());
    let found: Vec<(&str, &str)> = sites
        .iter()
        .map(|s| (s.file.as_str(), s.function.as_str()))
        .collect();
    assert_eq!(found, SITES, "every #[allow(unsafe_code)] in crates/*/src");
    for site in &sites {
        assert!(
            site.argued,
            "{} ({}): no `// SAFETY:` comment right above",
            site.file, site.function
        );
        assert!(
            site.used,
            "{} ({}): the allow covers no `unsafe`",
            site.file, site.function
        );
    }
}

#[test]
fn every_unsafe_keyword_sits_under_an_allow() {
    for (file, text) in sources() {
        let lines: Vec<&str> = text.lines().collect();
        for (n, line) in lines.iter().enumerate() {
            if !uses_unsafe(line) {
                continue;
            }
            let allowed = lines[n.saturating_sub(3)..n]
                .iter()
                .any(|l| l.trim() == "#[allow(unsafe_code)]");
            assert!(
                allowed,
                "{file}:{}: `unsafe` outside an allowed site",
                n + 1
            );
        }
    }
}

#[test]
fn every_library_crate_denies_unsafe_code() {
    for krate in LIBRARIES {
        let lib = root().join("crates").join(krate).join("src/lib.rs");
        let text = fs::read_to_string(&lib).expect("lib.rs");
        assert!(
            text.lines().any(|l| l.trim() == "#![deny(unsafe_code)]"),
            "crates/{krate}/src/lib.rs must deny unsafe_code"
        );
    }
}

#[test]
fn the_scanner_reads_what_it_claims() {
    assert_eq!(
        declared_fn("    pub(crate) fn prefetch<T>(item: &T) {"),
        Some("prefetch")
    );
    assert_eq!(declared_fn("fn fan_out(&'static self) {"), Some("fan_out"));
    assert_eq!(declared_fn("    // fn commented_out() {}"), None);
    assert_eq!(declared_fn("    let define = 1;"), None);
    assert!(uses_unsafe("        unsafe {"));
    assert!(uses_unsafe("    let x = unsafe { f() };"));
    assert!(!uses_unsafe("#![deny(unsafe_code)]"));
    assert!(!uses_unsafe("    // unsafe in a comment"));
    assert!(!uses_unsafe("    let s = \"unsafe\";"));
}
