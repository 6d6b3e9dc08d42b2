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
fn bit_pack_overflow_fixture_pair() {
    let dirty = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/bit_pack_dirty.rs"),
    )];
    assert_eq!(rules_fired(&dirty), ["bit-pack-overflow"]);
    let report = analyze(&dirty);
    assert!(
        report.findings.len() >= 3,
        "slot overflow (via the kind_code summary), field overlap, and \
         carrier escape must all fire: {:?}",
        report.findings
    );
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("overlapping bit")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("slot is only")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("64-bit carrier")),
        "{msgs:?}"
    );
    let clean = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/bit_pack_clean.rs"),
    )];
    assert_eq!(rules_fired(&clean), [] as [&str; 0]);
}

#[test]
fn tag_range_fixture_pair() {
    let dirty = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/tag_range_dirty.rs"),
    )];
    assert_eq!(rules_fired(&dirty), ["tag-range"]);
    let report = analyze(&dirty);
    assert!(report.findings.len() >= 2, "{:?}", report.findings);
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("`Vmid`") && m.contains("bits: 12")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("possibly-negative")),
        "{msgs:?}"
    );
    // Mask, checked-constructor branch, and full-width modulo wrap all
    // prove the range.
    let clean = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/tag_range_clean.rs"),
    )];
    assert_eq!(rules_fired(&clean), [] as [&str; 0]);
}

/// The shipped pre-PR-8 bug, shape-for-shape: `Asid::new(id as u16 + 1)`
/// plus the unmasked 16-bit tag packed at bit 52. The value rules this
/// PR adds must catch both halves — the whole motivation for the layer.
#[test]
fn pre_pr8_asid_overflow_regression_is_flagged() {
    let sources = [lib(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/analysis/asid_overflow_regression.rs"),
    )];
    assert_eq!(rules_fired(&sources), ["bit-pack-overflow", "tag-range"]);
    let report = analyze(&sources);
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("`Asid`") && m.contains("65536")),
        "the truncated-and-offset id must be flagged at the constructor \
         call: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("64-bit carrier")),
        "the unmasked tag in the entry packing must be flagged: {msgs:?}"
    );
}

/// The per-file parse fans out across worker threads; findings must
/// nevertheless come back in deterministic (file, line) order. Analyze
/// the same multi-file, multi-rule workload repeatedly and require
/// byte-identical finding lists.
#[test]
fn finding_order_is_stable_across_parallel_runs() {
    let sources = [
        lib(
            "crates/a/src/lib.rs",
            include_str!("fixtures/analysis/bit_pack_dirty.rs"),
        ),
        lib(
            "crates/b/src/lib.rs",
            include_str!("fixtures/analysis/tag_range_dirty.rs"),
        ),
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
    // Pin that the interprocedural passes actually ran over the real
    // workspace, not a degenerate front end: the condensation is
    // non-trivial, and the hot roots reach a real slice of the call graph.
    assert!(report.stats.sccs > 100, "condensation looks degenerate");
    assert!(
        report.stats.hot_fns > 20,
        "translate_batch/SmpCore::run should reach a real call-graph slice"
    );
    // The abstract interpreter must be summarizing a real slice of the
    // workspace (79 functions at the time of writing), not bailing out
    // to `Top` everywhere.
    assert!(
        report.stats.summarized_fns > 40,
        "value summaries collapsed: only {} functions summarized",
        report.stats.summarized_fns
    );
}
