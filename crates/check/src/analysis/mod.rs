//! Structural static analysis (`mixtlb-check --analyze`).
//!
//! Project rules that `rustc`/`clippy` cannot express (the unsafe and
//! panic policy is theirs, via `[workspace.lints]`) run on a small
//! hand-rolled *front end*: the masked token stream
//! ([`lexer`]) feeds an item/expression outline parser ([`outline`]),
//! whose output builds a workspace symbol table ([`symbols`]) and a
//! crate-level call graph ([`callgraph`]). The call graph additionally
//! feeds an interprocedural dataflow layer ([`dataflow`]: SCC
//! condensation + lockset lattice) for the concurrency rules, and a
//! value-range abstract-interpretation layer ([`absint`]: interval +
//! known-bits domain with widened joins and interprocedural return/
//! parameter summaries) for the bit-geometry rules. Twelve semantic
//! rules run on top:
//!
//! | rule | checks | scope |
//! |------|--------|-------|
//! | `addr-arith` | no shift/mask/divide on `.raw()` address bits outside typed helpers | lib, except `mixtlb-types` |
//! | `truncating-cast` | no `as u8`/`u16`/`u32` on raw address values | lib, except `mixtlb-types` |
//! | `dead-code` | every exported symbol is referenced somewhere in the workspace | lib |
//! | `lock-order` | the static lock-acquisition graph is acyclic | lib, except `crates/check` |
//! | `pagesize-match` | no `_` wildcard arms in `PageSize` matches | lib |
//! | `lockset-race` | shared plain fields written under a consistent non-empty lockset ([`lockset`]) | lib, except `crates/check` |
//! | `atomic-ordering` | no release-free publication / split RMW over atomics ([`atomics`]) | lib, except `crates/check` |
//! | `hot-path` | no allocation/clone/formatting reachable from the hot loops ([`dataflow::hot_path`]) | lib, except `crates/check` |
//! | `bit-pack-overflow` | shift-or packings have disjoint fields that fit the carrier ([`absint`]) | lib |
//! | `tag-range` | values into `// bits: N`-annotated constructors fit the declared width ([`absint`]) | lib |
//! | `index-bound` | indices into fixed-capacity arrays provably in bounds ([`absint`]) | lib |
//! | `blocking-in-lock` | no semaphore/event/bounded-queue wait while a `Mutex` is held ([`blocking`]) | lib, except `crates/check` |
//!
//! There are **no inline suppression markers**: accepted findings live
//! in one committed baseline file
//! (`check-baseline.json`, see [`baseline`]) keyed by line-insensitive
//! fingerprints, refreshed with `--update-baseline`, and audited through
//! its git history. CI runs `--analyze` and fails on any finding not in
//! the baseline.

pub(crate) mod absint;
pub(crate) mod atomics;
pub(crate) mod baseline;
pub(crate) mod blocking;
pub(crate) mod callgraph;
pub(crate) mod dataflow;
pub(crate) mod lexer;
pub(crate) mod lockorder;
pub(crate) mod lockset;
pub(crate) mod outline;
pub(crate) mod rules;
pub(crate) mod sarif;
pub(crate) mod symbols;

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use outline::{DeclKind, ParsedFile, Vis};

pub use baseline::{find_collision, fingerprint, Baseline, FingerprintCollision};
pub use sarif::{to_json, to_sarif};

/// All analysis rule identifiers (order is the report order).
pub const ANALYSIS_RULES: [&str; 12] = [
    "addr-arith",
    "truncating-cast",
    "dead-code",
    "lock-order",
    "pagesize-match",
    "lockset-race",
    "atomic-ordering",
    "hot-path",
    "bit-pack-overflow",
    "tag-range",
    "index-bound",
    "blocking-in-lock",
];

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
    /// Stable line-insensitive fingerprint (see [`baseline`]).
    pub fingerprint: String,
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
    /// Named-field structs outlined.
    pub structs: usize,
    /// Structs the lockset model classifies as cross-thread shared.
    pub shared_structs: usize,
    /// Call-graph strongly connected components.
    pub sccs: usize,
    /// Functions reachable from the hot-path roots.
    pub hot_fns: usize,
    /// Functions with a non-trivial abstract return-value summary.
    pub summarized_fns: usize,
    /// Wall time of the shared abstract-interpretation phase (constant
    /// pool + interprocedural value summaries), ns.
    pub absint_nanos: u128,
    /// Per-rule wall time of the value-rule passes, ns, in
    /// [`ANALYSIS_RULES`] order: bit-pack-overflow, tag-range,
    /// index-bound.
    pub value_rule_nanos: [u128; 3],
    /// Wall time of the blocking-in-lock rule, ns.
    pub blocking_nanos: u128,
    /// Wall time of the (parallel) per-file lex/outline phase, ns.
    pub parse_nanos: u128,
    /// Wall time of symbol/graph construction plus all rules, ns.
    pub rules_nanos: u128,
}

/// Result of analyzing a file set.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Non-baselined findings, in path/line order.
    pub findings: Vec<Finding>,
    /// Front-end statistics.
    pub stats: AnalysisStats,
    /// The extracted static lock-acquisition order, one edge per line
    /// (`first -> second  (fn, file:line)`) — consumed by the dynamic
    /// model checker's documentation and by humans.
    pub lock_edges: Vec<String>,
    /// Findings suppressed by the applied baseline.
    pub baselined: usize,
    /// Baseline-suppressed finding counts per rule (for `--stats`).
    pub baselined_by_rule: Vec<(&'static str, usize)>,
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

    /// Removes findings whose fingerprints the baseline accepts,
    /// recording how many were suppressed (total and per rule).
    ///
    /// # Errors
    ///
    /// Refuses to suppress anything when two distinct live findings
    /// hash to one fingerprint — a baseline entry for that fingerprint
    /// would silently swallow both (see [`FingerprintCollision`]).
    pub fn apply_baseline(
        &mut self,
        baseline: &Baseline,
    ) -> Result<(), FingerprintCollision> {
        if let Some(c) = baseline::find_collision(&self.findings) {
            return Err(c);
        }
        let before = self.findings.len();
        self.findings.retain(|f| {
            let keep = !baseline.contains(&f.fingerprint);
            if !keep {
                match self.baselined_by_rule.iter_mut().find(|(r, _)| *r == f.rule) {
                    Some((_, n)) => *n += 1,
                    None => self.baselined_by_rule.push((f.rule, 1)),
                }
            }
            keep
        });
        self.baselined += before - self.findings.len();
        Ok(())
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
    let parse_started = std::time::Instant::now();
    let parsed: Vec<ParsedFile> = parse_all(sources);
    let parse_nanos = parse_started.elapsed().as_nanos();
    let rules_started = std::time::Instant::now();
    let table = symbols::SymbolTable::build(&parsed);
    let graph = callgraph::CallGraph::build(&parsed);
    let refs = callgraph::count_references(&parsed);
    let locks = lockorder::LockOrderGraph::extract(&parsed);
    let shared = lockset::SharedModel::build(&parsed);

    let mut raw: Vec<(usize, &'static str, usize, String)> = Vec::new();

    // File-local rules.
    for (fi, file) in parsed.iter().enumerate() {
        for f in rules::file_rules(file) {
            raw.push((fi, f.rule, f.line as usize, f.message));
        }
    }

    // Interprocedural concurrency rules (see the module table).
    let lockset_result = lockset::lockset_race(&parsed, &graph, &shared);
    for (fi, f) in lockset_result.findings {
        raw.push((fi, f.rule, f.line as usize, f.message));
    }
    for (fi, f) in atomics::atomic_ordering(&parsed, &graph, &shared) {
        raw.push((fi, f.rule, f.line as usize, f.message));
    }
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

    // Value-range rules (bit-pack-overflow / tag-range / index-bound)
    // and the blocking-in-lock deadlock rule.
    let value = absint::value_rules(&parsed, &graph);
    for (fi, f) in value.findings {
        raw.push((fi, f.rule, f.line as usize, f.message));
    }
    let mut value_rule_nanos = [0u128; 3];
    for (rule, ns) in &value.rule_nanos {
        let slot = match *rule {
            "bit-pack-overflow" => 0,
            "tag-range" => 1,
            _ => 2,
        };
        value_rule_nanos[slot] = *ns;
    }
    let blocking = blocking::blocking_in_lock(&parsed, &graph);
    let blocking_nanos = blocking.nanos;
    for (fi, f) in blocking.findings {
        raw.push((fi, f.rule, f.line as usize, f.message));
    }

    // dead-code: exported symbols nobody references.
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

    // lock-order: a cycle in the static acquisition graph.
    if let Some(cycle) = &locks.cycle {
        let on_cycle = |name: &str| cycle.iter().any(|c| c == name);
        let witness = locks
            .edges
            .iter()
            .find(|e| on_cycle(&e.first) && on_cycle(&e.second));
        if let Some(e) = witness {
            raw.push((
                e.file,
                "lock-order",
                e.line as usize,
                format!(
                    "static lock-acquisition cycle {} (seen in `{}`): a \
                     potential ABBA deadlock — impose one global order on \
                     these locks",
                    cycle.join(" -> "),
                    e.in_fn
                ),
            ));
        }
    }

    // Fingerprint against source line text, with per-identical-line
    // occurrence indices, then sort.
    let lines: Vec<Vec<&str>> = sources.iter().map(|s| s.text.lines().collect()).collect();
    raw.sort_by(|a, b| (a.0, a.2, a.1).cmp(&(b.0, b.2, b.1)));
    let mut occurrence: HashMap<(String, String, String), usize> = HashMap::new();
    let mut findings = Vec::new();
    for (fi, rule, line, message) in raw {
        let path = &sources[fi].path;
        let text = lines[fi]
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or("")
            .trim()
            .to_owned();
        let path_str = path.display().to_string();
        let key = (rule.to_owned(), path_str.clone(), text.clone());
        let n = occurrence.entry(key).or_default();
        let fp = fingerprint(rule, &path_str, &text, *n);
        *n += 1;
        findings.push(Finding {
            rule,
            path: path.clone(),
            line,
            message,
            fingerprint: fp,
        });
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let lock_edges = locks
        .edges
        .iter()
        .map(|e| {
            format!(
                "{} -> {}  ({}, {}:{})",
                e.first,
                e.second,
                e.in_fn,
                parsed[e.file].path.display(),
                e.line
            )
        })
        .collect();

    AnalysisReport {
        findings,
        stats: AnalysisStats {
            files: parsed.len(),
            functions: parsed.iter().map(|p| p.fns.len()).sum(),
            symbols: table.syms.len(),
            call_edges: graph.edges.len(),
            structs: parsed.iter().map(|p| p.structs.len()).sum(),
            shared_structs: lockset_result.shared_structs,
            sccs: lockset_result.sccs,
            hot_fns,
            summarized_fns: value.summarized_fns,
            absint_nanos: value.absint_nanos,
            value_rule_nanos,
            blocking_nanos,
            parse_nanos,
            rules_nanos: rules_started.elapsed().as_nanos(),
        },
        lock_edges,
        baselined: 0,
        baselined_by_rule: Vec::new(),
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
    fn baseline_suppresses_known_findings() {
        let files = [src(
            "crates/a/src/lib.rs",
            "fn f(vpn: Vpn) -> u64 { vpn.raw() << 9 }\n",
        )];
        let mut report = analyze_sources(&files);
        assert_eq!(report.findings.len(), 1);
        let accepted = Baseline::parse(&Baseline::render(&report.findings));
        report
            .apply_baseline(&accepted)
            .expect("occurrence-indexed fingerprints cannot collide here");
        assert!(report.is_clean());
        assert_eq!(report.baselined, 1);
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
}
