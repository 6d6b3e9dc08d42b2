//! The workspace's unsafe/panic policy lives in the root manifest's
//! `[workspace.lints]` and is enforced by rustc and clippy — but only in
//! packages that opt in. These tests pin the opt-in: every `crates/*`
//! member and the root package inherit the workspace table, and every
//! `compat/*` stub forbids `unsafe_code` itself. A new crate added
//! without the table fails here. They also keep the analyzer's rule
//! list and its evidence table in DESIGN.md §8 in step, so a rule cannot
//! land without an evidence row.

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
