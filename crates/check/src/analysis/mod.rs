//! Structural static analysis (`mixtlb-check --analyze`).
//!
//! Project rules that `rustc`/`clippy` cannot express (the unsafe and
//! panic policy is theirs, via `[workspace.lints]`) run on a small
//! hand-rolled *front end*: the masked token stream
//! (`lexer`) feeds an item/expression outline parser (`outline`),
//! whose output builds a workspace symbol table (`symbols`) and a
//! crate-level call graph (`callgraph`). The call graph feeds the
//! hot-path reachability walk (`dataflow`). Four semantic rules run on
//! top, each kept because it fixed a real finding (the evidence table is
//! in DESIGN.md §8):
//!
//! | rule | checks | scope |
//! |------|--------|-------|
//! | `addr-arith` | no shift/mask/divide on `.raw()` address bits outside typed helpers | lib, except `mixtlb-types` |
//! | `truncating-cast` | no `as u8`/`u16`/`u32` on raw address values | lib, except `mixtlb-types` |
//! | `dead-code` | every exported symbol is referenced somewhere in the workspace | lib |
//! | `hot-path` | no allocation/clone/formatting reachable from the hot loops (`dataflow::hot_path`) | lib, except `crates/check` |
//!
//! There are **no suppressions**: no inline markers and no baseline
//! file. A finding is fixed in code, and CI fails on any finding. Bit
//! widths are not checked here: the packed words (`FrameOwner`, the v2
//! trace's offset/kind word) carry `const` assertions that rustc
//! evaluates, and `Asid`'s 12-bit range is held by its constructors.

pub(crate) mod callgraph;
pub(crate) mod dataflow;
pub(crate) mod lexer;
pub(crate) mod outline;
pub(crate) mod rules;
pub(crate) mod symbols;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use outline::{DeclKind, ParsedFile, Vis};

/// All analysis rule identifiers (order is the report order).
pub const ANALYSIS_RULES: [&str; 4] = ["addr-arith", "truncating-cast", "dead-code", "hot-path"];

/// How a file participates in the build. Only library code is analyzed;
/// the other kinds are parsed (for references and the call graph) but
/// never flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: every rule applies.
    Lib,
    /// Binary, bench or example code.
    Bin,
    /// Integration-test code.
    Test,
    /// Vendored offline stubs under `compat/`.
    Compat,
}

/// Classifies a workspace-relative path.
pub(crate) fn classify(path: &Path) -> FileKind {
    let has = |name: &str| path.iter().any(|c| c == name);
    if has("compat") {
        FileKind::Compat
    } else if has("tests") {
        FileKind::Test
    } else if has("bin") || has("benches") || has("examples") || path.ends_with("main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// Appends every `.rs` file under `dir` to `out`, skipping `target/` and
/// dot-directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One input file for [`analyze_sources`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (drives crate attribution and rule scope).
    pub path: PathBuf,
    /// Build classification.
    pub kind: FileKind,
    /// Full source text.
    pub text: String,
}

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (one of [`ANALYSIS_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Explanation and suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Front-end statistics for one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisStats {
    /// Files parsed.
    pub files: usize,
    /// Functions outlined.
    pub functions: usize,
    /// Module-level symbols tabled.
    pub symbols: usize,
    /// Call-graph edges resolved.
    pub call_edges: usize,
    /// Functions reachable from the hot-path roots.
    pub hot_fns: usize,
    /// Wall time of the (parallel) per-file lex/outline phase, ns.
    pub parse_nanos: u128,
    /// Wall time of symbol/graph construction plus all rules, ns.
    pub rules_nanos: u128,
    /// Per-rule wall time, ns. `addr-arith` and `truncating-cast` share
    /// one taint pass, timed once under a joint label.
    pub rule_nanos: [(&'static str, u128); 3],
}

/// Result of analyzing a file set.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Findings, in path/line order.
    pub findings: Vec<Finding>,
    /// Front-end statistics.
    pub stats: AnalysisStats,
    /// Hot-path roots that match no workspace fn. Meaningful for a whole
    /// workspace run (a fixture file set legitimately lacks the roots);
    /// `--analyze` treats any entry as an internal error.
    pub unresolved_hot_roots: Vec<&'static str>,
}

impl AnalysisReport {
    /// `true` when no findings remain.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Parses every source, fanning the per-file lex/outline phase across
/// `std::thread` workers (index-claimed work queue). Results land in
/// input order regardless of scheduling, so every downstream consumer
/// — and the finding order — is deterministic.
fn parse_all(sources: &[SourceFile]) -> Vec<ParsedFile> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(sources.len().max(1))
        .min(8);
    if workers <= 1 {
        return sources
            .iter()
            .map(|s| ParsedFile::parse(&s.path, s.kind, &s.text))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, ParsedFile)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(src) = sources.get(i) else { break };
                        out.push((i, ParsedFile::parse(&src.path, src.kind, &src.text)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut slots: Vec<Option<ParsedFile>> = Vec::new();
    slots.resize_with(sources.len(), || None);
    for (i, parsed) in chunks.into_iter().flatten() {
        slots[i] = Some(parsed);
    }
    // A slot can only be empty if a worker died mid-file; reparse
    // serially rather than losing the file.
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                ParsedFile::parse(&sources[i].path, sources[i].kind, &sources[i].text)
            })
        })
        .collect()
}

/// Analyzes an explicit file set (the fixture tests drive this directly;
/// [`analyze_workspace`] feeds it from disk).
pub fn analyze_sources(sources: &[SourceFile]) -> AnalysisReport {
    let parse_started = Instant::now();
    let parsed: Vec<ParsedFile> = parse_all(sources);
    let parse_nanos = parse_started.elapsed().as_nanos();
    let rules_started = Instant::now();
    let table = symbols::SymbolTable::build(&parsed);
    let graph = callgraph::CallGraph::build(&parsed);
    let refs = callgraph::count_references(&parsed);

    let mut raw: Vec<(usize, &'static str, usize, String)> = Vec::new();

    // File-local rules (addr-arith, truncating-cast).
    let t0 = Instant::now();
    for (fi, file) in parsed.iter().enumerate() {
        for f in rules::file_rules(file) {
            raw.push((fi, f.rule, f.line as usize, f.message));
        }
    }
    let taint_nanos = t0.elapsed().as_nanos();

    let t0 = Instant::now();
    let (hot_findings, hot_fns) = dataflow::hot_path(&parsed, &graph);
    let unresolved_hot_roots = dataflow::unresolved_hot_roots(
        &parsed,
        &graph,
        &dataflow::HOT_ROOT_NAMES,
        &dataflow::HOT_ROOT_QUALS,
    );
    for (fi, f) in hot_findings {
        raw.push((fi, f.rule, f.line as usize, f.message));
    }
    let hot_nanos = t0.elapsed().as_nanos();

    // dead-code: exported symbols nobody references.
    let t0 = Instant::now();
    for sym in &table.syms {
        if sym.vis == Vis::Private || sym.name == "main" {
            continue;
        }
        let referenced = refs.get(&sym.name).copied().unwrap_or(0) > 0;
        if !referenced {
            raw.push((
                sym.file,
                "dead-code",
                sym.line as usize,
                format!(
                    "exported {} `{}` (crate `{}`) is never referenced \
                     anywhere in the workspace — remove it or wire it into a \
                     caller (resolution is name-based, so this symbol is \
                     unreferenced even under aliasing)",
                    kind_name(sym.kind),
                    sym.name,
                    sym.crate_name
                ),
            ));
        }
    }

    // dead-code, method level: exported inherent methods resolve through
    // the call graph (plus raw name references, for function pointers and
    // docs-in-code). Trait-impl methods are exempt — they satisfy a trait
    // contract and may only ever be reached by dynamic dispatch — and
    // private methods are rustc's `dead_code` lint's job.
    for (ni, node) in graph.nodes.iter().enumerate() {
        let file = &parsed[node.file];
        let f = &file.fns[node.fn_idx];
        // Module-level fns (incl. inside `mod` blocks) carry a matching
        // `ItemDecl` and are handled by the symbol-table loop above;
        // methods are the fns without one.
        let is_method = !file
            .items
            .iter()
            .any(|it| it.kind == DeclKind::Fn && it.name == f.name && it.line == f.line);
        if file.kind != FileKind::Lib
            || f.is_test
            || f.body.is_none()
            || f.in_trait_impl
            || !is_method
            || f.vis == Vis::Private
        {
            continue;
        }
        let referenced =
            graph.in_degree[ni] > 0 || refs.get(&f.name).copied().unwrap_or(0) > 0;
        if !referenced {
            raw.push((
                node.file,
                "dead-code",
                f.line as usize,
                format!(
                    "exported method `{}` (crate `{}`) has no caller in the \
                     call graph and no name reference anywhere in the \
                     workspace — remove it or wire it in",
                    f.qual,
                    symbols::crate_of(&file.path)
                ),
            ));
        }
    }
    let dead_nanos = t0.elapsed().as_nanos();

    let mut findings: Vec<Finding> = raw
        .into_iter()
        .map(|(fi, rule, line, message)| Finding {
            rule,
            path: sources[fi].path.clone(),
            line,
            message,
        })
        .collect();
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    AnalysisReport {
        findings,
        stats: AnalysisStats {
            files: parsed.len(),
            functions: parsed.iter().map(|p| p.fns.len()).sum(),
            symbols: table.syms.len(),
            call_edges: graph.edges.len(),
            hot_fns,
            parse_nanos,
            rules_nanos: rules_started.elapsed().as_nanos(),
            rule_nanos: [
                ("addr-arith + truncating-cast", taint_nanos),
                ("dead-code", dead_nanos),
                ("hot-path", hot_nanos),
            ],
        },
        unresolved_hot_roots,
    }
}

/// Walks the workspace at `root` and analyzes every `.rs` file outside
/// `target/` and VCS metadata.
pub fn analyze_workspace(root: &Path) -> io::Result<AnalysisReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let text = fs::read_to_string(&path)?;
        sources.push(SourceFile {
            kind: classify(&rel),
            path: rel,
            text,
        });
    }
    Ok(analyze_sources(&sources))
}

/// Renders a report as flat JSON for scripting: the findings array plus
/// the run statistics (hand-written; the workspace is offline, so no
/// serde).
pub fn to_json(report: &AnalysisReport) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{ \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\" }}",
            escape(f.rule),
            escape(&f.path.display().to_string()),
            f.line,
            escape(&f.message)
        ));
    }
    let s = &report.stats;
    out.push_str(&format!(
        "\n  ],\n  \"stats\": {{ \"files\": {}, \"functions\": {}, \"symbols\": {}, \"call_edges\": {}, \"hot_fns\": {} }}\n}}\n",
        s.files, s.functions, s.symbols, s.call_edges, s.hot_fns
    ));
    out
}

/// JSON string-literal escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Human-readable declaration kind.
fn kind_name(kind: DeclKind) -> &'static str {
    match kind {
        DeclKind::Fn => "fn",
        DeclKind::Struct => "struct",
        DeclKind::Enum => "enum",
        DeclKind::Trait => "trait",
        DeclKind::Const => "const",
        DeclKind::Static => "static",
        DeclKind::TypeAlias => "type alias",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, text: &str) -> SourceFile {
        SourceFile {
            path: PathBuf::from(path),
            kind: classify(Path::new(path)),
            text: text.to_owned(),
        }
    }

    #[test]
    fn dead_code_spans_crates() {
        let report = analyze_sources(&[
            src(
                "crates/a/src/lib.rs",
                "pub fn used() -> u64 { 1 }\npub fn lonely() -> u64 { 2 }\n",
            ),
            src("crates/b/src/lib.rs", "pub fn driver() -> u64 { used() }\n"),
        ]);
        let dead: Vec<&str> = report
            .findings
            .iter()
            .filter(|f| f.rule == "dead-code")
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(dead.len(), 2, "lonely and driver are unreferenced: {dead:?}");
        assert!(dead.iter().any(|m| m.contains("`lonely`")));
        assert!(dead.iter().any(|m| m.contains("`driver`")));
    }

    #[test]
    fn classification_by_path() {
        assert_eq!(classify(Path::new("compat/rand/src/lib.rs")), FileKind::Compat);
        assert_eq!(classify(Path::new("tests/differential.rs")), FileKind::Test);
        assert_eq!(classify(Path::new("crates/sim/src/bin/sweep.rs")), FileKind::Bin);
        assert_eq!(classify(Path::new("crates/sim/benches/tlb_ops.rs")), FileKind::Bin);
        assert_eq!(classify(Path::new("crates/core/src/mix.rs")), FileKind::Lib);
    }

    #[test]
    fn stats_are_populated() {
        let report = analyze_sources(&[src(
            "crates/a/src/lib.rs",
            "pub fn a() { b() }\npub fn b() { a() }\n",
        )]);
        assert_eq!(report.stats.files, 1);
        assert_eq!(report.stats.functions, 2);
        assert_eq!(report.stats.symbols, 2);
        assert_eq!(report.stats.call_edges, 2);
    }

    #[test]
    fn json_form_carries_findings_and_stats() {
        let report = analyze_sources(&[src(
            "crates/a/src/lib.rs",
            "fn f(vpn: Vpn) -> u64 { vpn.raw() << 9 }\n",
        )]);
        let json = to_json(&report);
        assert!(json.contains("\"rule\": \"addr-arith\""), "{json}");
        assert!(json.contains("\"path\": \"crates/a/src/lib.rs\", \"line\": 1"), "{json}");
        assert!(json.contains("\"functions\": 1"), "{json}");
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}
