//! Fixture self-tests for the structural analyzer: every semantic rule
//! must fire on its seeded dirty fixture and stay silent on the paired
//! clean fixture; and the real workspace must analyze clean — the
//! `--analyze` gate CI enforces.

use std::path::{Path, PathBuf};

use mixtlb_check::analysis::{analyze_sources, AnalysisReport, FileKind, SourceFile};

/// Wraps fixture text as a library file of a pseudo-crate, so crate
/// attribution and rule scoping behave as they would on real sources.
fn lib(pseudo_path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: PathBuf::from(pseudo_path),
        kind: FileKind::Lib,
        text: text.to_owned(),
    }
}

fn analyze(sources: &[SourceFile]) -> AnalysisReport {
    analyze_sources(sources)
}

/// Distinct rule identifiers fired over a fixture set, sorted.
fn rules_fired(sources: &[SourceFile]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> =
        analyze(sources).findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn addr_arith_fixture_pair() {
    let dirty = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/addr_arith_dirty.rs"),
    )];
    assert_eq!(rules_fired(&dirty), ["addr-arith"]);
    let report = analyze(&dirty);
    assert!(
        report.findings.len() >= 2,
        "direct shift and let-propagated mask must both fire: {:?}",
        report.findings
    );
    let clean = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/addr_arith_clean.rs"),
    )];
    assert_eq!(rules_fired(&clean), [] as [&str; 0]);
}

#[test]
fn truncating_cast_fixture_pair() {
    let dirty = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/truncating_cast_dirty.rs"),
    )];
    assert_eq!(rules_fired(&dirty), ["truncating-cast"]);
    let clean = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/truncating_cast_clean.rs"),
    )];
    assert_eq!(rules_fired(&clean), [] as [&str; 0]);
}

#[test]
fn dead_code_fixture_pair_spans_crates() {
    let dirty = [
        lib(
            "crates/a/src/lib.rs",
            include_str!("fixtures/analysis/dead_code_dirty_a.rs"),
        ),
        lib(
            "crates/b/src/lib.rs",
            include_str!("fixtures/analysis/dead_code_dirty_b.rs"),
        ),
    ];
    assert_eq!(rules_fired(&dirty), ["dead-code"]);
    let report = analyze(&dirty);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert!(f.message.contains("`orphan_probe`"), "{}", f.message);
    assert_eq!(f.path, Path::new("crates/a/src/lib.rs"));
    // `used_probe` survives because crate `b` references it by name.
    let clean = [
        lib(
            "crates/a/src/lib.rs",
            include_str!("fixtures/analysis/dead_code_clean_a.rs"),
        ),
        lib(
            "crates/b/src/lib.rs",
            include_str!("fixtures/analysis/dead_code_clean_b.rs"),
        ),
    ];
    assert_eq!(rules_fired(&clean), [] as [&str; 0]);
}

#[test]
fn hot_path_fixture_pair() {
    let dirty = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/hot_path_dirty.rs"),
    )];
    assert_eq!(rules_fired(&dirty), ["hot-path"]);
    let report = analyze(&dirty);
    assert!(
        report.findings.len() >= 3,
        "format!, clone(), and Vec::new in the hot helper must fire: {:?}",
        report.findings
    );
    // The identical machinery in the non-hot `diagnostics` must NOT fire:
    // every finding names the hot helper.
    assert!(
        report.findings.iter().all(|f| f.message.contains("`Engine::resolve`")),
        "{:?}",
        report.findings
    );
    let clean = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/hot_path_clean.rs"),
    )];
    assert_eq!(rules_fired(&clean), [] as [&str; 0]);
}

#[test]
fn hot_path_collection_fixture_pair() {
    let dirty = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/hot_path_collect_dirty.rs"),
    )];
    let report = analyze(&dirty);
    let mut found: Vec<&str> = report
        .findings
        .iter()
        .map(|f| {
            assert!(f.message.contains("in `Tlb::fill`"), "{f:?}");
            let what = f.message.split('`').nth(1).unwrap_or("");
            what
        })
        .collect();
    found.sort_unstable();
    assert_eq!(
        found,
        [
            ".collect()",
            ".collect()",
            "BTreeMap::new",
            "BTreeSet::new",
            "HashMap::new",
            "HashSet::new",
            "Vec::with_capacity",
        ],
        "{:?}",
        report.findings
    );
    let clean = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/hot_path_collect_clean.rs"),
    )];
    assert_eq!(rules_fired(&clean), [] as [&str; 0]);
}

/// The per-file parse fans out across worker threads; findings must
/// nevertheless come back in deterministic (file, line) order. Analyze
/// the same multi-file, multi-rule workload repeatedly and require
/// byte-identical finding lists.
#[test]
fn finding_order_is_stable_across_parallel_runs() {
    let sources = [
        lib(
            "crates/c/src/lib.rs",
            include_str!("fixtures/analysis/hot_path_dirty.rs"),
        ),
        lib(
            "crates/d/src/lib.rs",
            include_str!("fixtures/analysis/addr_arith_dirty.rs"),
        ),
        lib(
            "crates/e/src/lib.rs",
            include_str!("fixtures/analysis/truncating_cast_dirty.rs"),
        ),
        lib(
            "crates/f/src/lib.rs",
            include_str!("fixtures/analysis/dead_code_dirty_a.rs"),
        ),
    ];
    let reference: Vec<String> =
        analyze(&sources).findings.iter().map(|f| f.to_string()).collect();
    assert!(!reference.is_empty());
    for run in 0..8 {
        let again: Vec<String> =
            analyze(&sources).findings.iter().map(|f| f.to_string()).collect();
        assert_eq!(reference, again, "finding order drifted on run {run}");
    }
}

/// The gate CI runs: the workspace itself has zero findings. If this
/// fails, fix the finding in code; there is no suppression mechanism.
#[test]
fn workspace_is_analysis_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = mixtlb_check::analysis::analyze_workspace(&root).expect("walk workspace");
    assert!(
        report.is_clean(),
        "analysis findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.stats.files > 100, "workspace walk looks truncated");
    // Pin that the call-graph walk actually ran over the real workspace,
    // not a degenerate front end: the hot roots reach a real slice of it.
    assert!(
        report.stats.hot_fns > 20,
        "translate_batch/SmpCore::run should reach a real call-graph slice"
    );
}
