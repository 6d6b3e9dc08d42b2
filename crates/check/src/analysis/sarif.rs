//! SARIF 2.1.0 and plain-JSON renderers for analysis reports.
//!
//! SARIF (Static Analysis Results Interchange Format) is the lingua
//! franca CI systems and editors ingest for code-scanning results; one
//! `--format sarif` run makes the analyzer's findings show up as native
//! annotations. The writer emits the minimal valid subset by hand — the
//! workspace is offline, so no serde — and carries each finding's
//! baseline fingerprint under `partialFingerprints` so downstream tools
//! deduplicate exactly like the local baseline does.
//!
//! `--format json` is the lighter sibling for scripting: a flat findings
//! array plus the run statistics.

use super::baseline::escape;
use super::{AnalysisReport, ANALYSIS_RULES};

/// Short per-rule descriptions for the SARIF rule metadata.
fn rule_description(rule: &str) -> &'static str {
    match rule {
        "addr-arith" => {
            "Raw address bits (from .raw()) fed to shift/mask/divide \
             operators; use the typed geometry helpers in mixtlb-types."
        }
        "truncating-cast" => {
            "`as u8`/`as u16`/`as u32` applied to a raw address value; \
             use try_from or a typed accessor."
        }
        "dead-code" => {
            "Exported symbol with no reference anywhere in the workspace \
             (name-based, over-approximate resolution)."
        }
        "lock-order" => {
            "Static lock-acquisition-order cycle: a potential ABBA \
             deadlock across library code."
        }
        "pagesize-match" => {
            "`match` over PageSize with a `_` wildcard arm; list every \
             variant so new page sizes break the build."
        }
        "lockset-race" => {
            "Plain field of a cross-thread-shared struct written under an \
             empty or inconsistent lockset (interprocedural Eraser-style \
             analysis)."
        }
        "atomic-ordering" => {
            "Release-free publication or split load/store read-modify-write \
             over an atomic field (interprocedural ordering dataflow)."
        }
        "hot-path" => {
            "Heap allocation, clone(), or formatting machinery reachable \
             from the batched-translation/replay hot loops."
        }
        "bit-pack-overflow" => {
            "Shift-or bit packing whose field value ranges overlap or \
             escape the carrier width (interval + known-bits abstract \
             interpretation)."
        }
        "tag-range" => {
            "Value flowing into a `// bits: N`-annotated constructor may \
             exceed the declared bit width; mask or use the checked \
             constructor."
        }
        "index-bound" => {
            "Index into fixed-capacity array storage not provably within \
             capacity; mask, mod, or bound-check the index."
        }
        "blocking-in-lock" => {
            "Semaphore/event wait or bounded-queue push/pop reachable \
             while a Mutex lockset is non-empty; drop the guard before \
             blocking."
        }
        _ => "mixtlb-check analysis rule.",
    }
}

/// Renders a report as a SARIF 2.1.0 log.
pub fn to_sarif(report: &AnalysisReport) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"mixtlb-check\",\n          \"informationUri\": \"https://example.invalid/mixtlb\",\n          \"rules\": [",
    );
    for (i, rule) in ANALYSIS_RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\n              \"id\": \"{}\",\n              \"shortDescription\": {{ \"text\": \"{}\" }}\n            }}",
            escape(rule),
            escape(rule_description(rule))
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \"message\": {{ \"text\": \"{}\" }},\n          \"locations\": [\n            {{\n              \"physicalLocation\": {{\n                \"artifactLocation\": {{ \"uri\": \"{}\" }},\n                \"region\": {{ \"startLine\": {} }}\n              }}\n            }}\n          ],\n          \"partialFingerprints\": {{ \"mixtlbCheck/v1\": \"{}\" }}\n        }}",
            escape(f.rule),
            escape(&f.message),
            escape(&f.path.display().to_string()),
            f.line,
            escape(&f.fingerprint)
        ));
    }
    out.push_str("\n      ]\n    }\n  ]\n}\n");
    out
}

/// Renders a report as the scripting-friendly flat JSON form.
pub fn to_json(report: &AnalysisReport) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"fingerprint\": \"{}\", \"message\": \"{}\" }}",
            escape(f.rule),
            escape(&f.path.display().to_string()),
            f.line,
            escape(&f.fingerprint),
            escape(&f.message)
        ));
    }
    out.push_str(&format!(
        "\n  ],\n  \"stats\": {{ \"files\": {}, \"functions\": {}, \"symbols\": {}, \"call_edges\": {}, \"structs\": {}, \"shared_structs\": {}, \"sccs\": {}, \"hot_fns\": {}, \"summarized_fns\": {}, \"lock_edges\": {}, \"baselined\": {} }}\n}}\n",
        report.stats.files,
        report.stats.functions,
        report.stats.symbols,
        report.stats.call_edges,
        report.stats.structs,
        report.stats.shared_structs,
        report.stats.sccs,
        report.stats.hot_fns,
        report.stats.summarized_fns,
        report.lock_edges.len(),
        report.baselined
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{AnalysisStats, Finding};
    use std::path::PathBuf;

    fn demo_report() -> AnalysisReport {
        AnalysisReport {
            findings: vec![Finding {
                rule: "addr-arith",
                path: PathBuf::from("crates/os/src/kernel.rs"),
                line: 130,
                message: "raw shift".to_owned(),
                fingerprint: "00ff00ff00ff00ff".to_owned(),
            }],
            stats: AnalysisStats {
                files: 3,
                functions: 7,
                symbols: 5,
                call_edges: 4,
                ..AnalysisStats::default()
            },
            lock_edges: vec![],
            ..AnalysisReport::default()
        }
    }

    #[test]
    fn sarif_contains_schema_rules_and_fingerprint() {
        let sarif = to_sarif(&demo_report());
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"id\": \"addr-arith\""));
        assert!(sarif.contains("\"startLine\": 130"));
        assert!(sarif.contains("mixtlbCheck/v1"));
        for rule in ANALYSIS_RULES {
            assert!(sarif.contains(&format!("\"id\": \"{rule}\"")), "{rule} missing");
        }
    }

    #[test]
    fn json_form_carries_stats() {
        let json = to_json(&demo_report());
        assert!(json.contains("\"rule\": \"addr-arith\""));
        assert!(json.contains("\"functions\": 7"));
    }
}
