//! The workspace's unsafe/panic policy lives in the root manifest's
//! `[workspace.lints]` and is enforced by rustc and clippy — but only in
//! packages that opt in. These tests pin the opt-in: every `crates/*`
//! member and the root package inherit the workspace table, and every
//! `compat/*` stub forbids `unsafe_code` itself. A new crate added
//! without the table fails here. They also keep the analyzer's rule
//! list and its evidence table in DESIGN.md §8 in step, so a rule cannot
//! land without an evidence row, and every dev-dependency in use.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Trimmed lines of the `[header]` table, or `None` when it is absent.
fn table(manifest: &str, header: &str) -> Option<Vec<String>> {
    let mut lines = manifest.lines().map(str::trim);
    lines.by_ref().find(|l| *l == header)?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .map(|l| l.replace(' ', ""))
            .collect(),
    )
}

/// `<dir>/*/Cargo.toml`, sorted (empty when `dir` is unreadable; the
/// callers assert a minimum count).
fn manifests(dir: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = fs::read_dir(root().join(dir))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    found.sort();
    found
}

/// The manifest text, or empty (so every table lookup fails) when unreadable.
fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

#[test]
fn root_defines_the_policy() {
    let text = read(&root().join("Cargo.toml"));
    let rust = table(&text, "[workspace.lints.rust]").expect("[workspace.lints.rust]");
    assert!(rust.iter().any(|l| l == "unsafe_code=\"forbid\""), "{rust:?}");
    let clippy = table(&text, "[workspace.lints.clippy]").expect("[workspace.lints.clippy]");
    for lint in ["unwrap_used", "expect_used", "panic"] {
        assert!(
            clippy.iter().any(|l| *l == format!("{lint}=\"deny\"")),
            "clippy::{lint} must be denied: {clippy:?}"
        );
    }
}

#[test]
fn root_and_every_member_crate_inherit_the_workspace_lints() {
    let mut checked = vec![root().join("Cargo.toml")];
    checked.extend(manifests("crates"));
    assert!(checked.len() > 10, "the walk must see the member crates");
    for path in checked {
        let lints = table(&read(&path), "[lints]")
            .unwrap_or_else(|| panic!("{} has no [lints] table", path.display()));
        assert!(
            lints.iter().any(|l| l == "workspace=true"),
            "{}: [lints] must say `workspace = true`",
            path.display()
        );
    }
}

#[test]
fn every_compat_stub_forbids_unsafe_code() {
    let stubs = manifests("compat");
    assert!(!stubs.is_empty(), "the walk must see the compat stubs");
    for path in stubs {
        let lints = table(&read(&path), "[lints.rust]")
            .unwrap_or_else(|| panic!("{} has no [lints.rust] table", path.display()));
        assert!(
            lints.iter().any(|l| l == "unsafe_code=\"forbid\""),
            "{}: [lints.rust] must forbid unsafe_code",
            path.display()
        );
    }
}

/// Every `.rs` file under `dir`, recursively, skipping `target`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `ident` occurs in `text` as a whole identifier.
fn mentions(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        !text[..at].ends_with(is_ident) && !text[at + ident.len()..].starts_with(is_ident)
    })
}

#[test]
fn every_dev_dependency_is_used() {
    // The root package's sources are its own directories, not the
    // members' (each member is checked against its own tree).
    let mut packages = vec![(root(), vec!["src", "tests", "examples"])];
    for manifest in manifests("crates") {
        let dir = manifest.parent().map(Path::to_path_buf).unwrap_or_default();
        packages.push((dir, vec!["."]));
    }
    assert!(packages.len() > 10, "the walk must see the member crates");
    for (dir, source_dirs) in packages {
        let manifest = dir.join("Cargo.toml");
        let mut files = Vec::new();
        for source_dir in source_dirs {
            rust_files(&dir.join(source_dir), &mut files);
        }
        let sources: Vec<String> = files.iter().map(|f| read(f)).collect();
        let keys = table(&read(&manifest), "[dev-dependencies]").unwrap_or_default();
        for key in keys.iter().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let name = key.split(['.', '=']).next().unwrap_or_default();
            let ident = name.replace('-', "_");
            assert!(
                sources.iter().any(|text| mentions(text, &ident)),
                "{}: dev-dependency `{name}` is used by no .rs file of the package",
                manifest.display()
            );
        }
    }
}

/// `(rule, verdict)` per row of the DESIGN.md §8 rule evidence table:
/// the table whose header starts `| rule | wall time |`.
fn evidence_rows(design: &str) -> Vec<(String, String)> {
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("8. "))
        .unwrap_or_default();
    section
        .lines()
        .skip_while(|l| !l.starts_with("| rule | wall time |"))
        .skip(2) // header and separator
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
            let rule = cells.first().unwrap_or(&"").trim_matches('`').to_owned();
            let verdict = cells.last().unwrap_or(&"").to_string();
            (rule, verdict)
        })
        .collect()
}

#[test]
fn design_evidence_table_names_exactly_the_analysis_rules() {
    let rows = evidence_rows(&read(&root().join("DESIGN.md")));
    assert!(!rows.is_empty(), "DESIGN.md §8 must hold the rule evidence table");
    for (rule, verdict) in &rows {
        assert!(
            verdict == "kept" || verdict == "deleted",
            "evidence row `{rule}` must end in kept or deleted, not `{verdict}`"
        );
    }
    let kept: Vec<&str> = rows
        .iter()
        .filter(|(_, v)| v == "kept")
        .map(|(r, _)| r.as_str())
        .collect();
    assert_eq!(
        kept,
        mixtlb_check::analysis::ANALYSIS_RULES,
        "the kept rows of the DESIGN.md §8 evidence table must be the analyzer's rules, in order"
    );
}
