//! The `hot-path` rule ([`hot_path`]): walks the call graph *down* from
//! the batched-translation entry points and the smp replay inner loop,
//! flagging heap allocation (constructors, `with_capacity`, `collect`),
//! `clone()`, and formatting machinery in anything reachable. Resolution is name-based and over-approximate, so
//! traversal is cut at constructor-shaped sinks (`new`, `default`, …) —
//! every workspace `new` would otherwise be "hot" via `Vec::new` false
//! edges — trading false negatives inside constructors for a signal that
//! stays actionable.

use super::callgraph::CallGraph;
use super::lexer::{Tok, TokKind};
use super::outline::ParsedFile;
use super::rules::RuleFinding;
use super::symbols::crate_of;
use super::FileKind;

/// Successor adjacency lists from the call graph's edge set,
/// index-sorted for deterministic traversal.
fn successors(graph: &CallGraph) -> Vec<Vec<usize>> {
    let mut succ = vec![Vec::new(); graph.nodes.len()];
    for &(a, b) in &graph.edges {
        succ[a].push(b);
    }
    for s in &mut succ {
        s.sort_unstable();
    }
    succ
}

/// Root functions by simple name: the batched translation entry points
/// plus the stream path's per-block read→decode→consume loop — it
/// runs once per trace block for the whole corpus, so steady-state
/// allocation there is a leak multiplied by corpus length.
pub(crate) const HOT_ROOT_NAMES: [&str; 3] = ["translate_batch", "lookup_batch", "stream_sync"];
/// Root functions by qualified name: the one per-access datapath every
/// replay resolves through (and the scalar engine entry that times it),
/// and the smp replay inner loops — the per-core cadence loop and the
/// work-stealing steal/execute loop.
pub(crate) const HOT_ROOT_QUALS: [&str; 4] = [
    "TlbHierarchy::access",
    "TranslationEngine::access",
    "SmpCore::run",
    "WsWorker::run",
];

/// Callee names the downward walk does not enter. Name-based resolution
/// links `Vec::new(…)`/`X::from(…)`/`….clone()` call tokens to every
/// workspace fn with that name; constructors and conversion fns are
/// exactly where allocation is *expected*, so entering them would flag
/// the whole workspace. Their call sites in hot code are still flagged
/// by the token patterns below where they matter (`Box::new`, `clone`).
const COLD_SINKS: [&str; 7] = ["new", "default", "from", "clone", "fmt", "drop", "with_capacity"];

/// One flagged token pattern: what it looks like and what to say.
struct HotSite {
    line: u32,
    what: &'static str,
    category: &'static str,
}

/// Runs the hot-path reachability lint. Returns findings plus the
/// number of hot-reachable functions (for `--stats`).
pub(crate) fn hot_path(
    files: &[ParsedFile],
    graph: &CallGraph,
) -> (Vec<(usize, RuleFinding)>, usize) {
    let succ = successors(graph);
    let n = graph.nodes.len();
    let eligible = hot_eligible(files, graph);
    // BFS down from the roots, recording one predecessor per node so the
    // finding message can show a concrete call path.
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut reached = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if !eligible[ni] {
            continue;
        }
        let f = &files[node.file].fns[node.fn_idx];
        if HOT_ROOT_NAMES.contains(&f.name.as_str()) || HOT_ROOT_QUALS.contains(&f.qual.as_str())
        {
            reached[ni] = true;
            queue.push_back(ni);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &w in &succ[v] {
            if reached[w] || !eligible[w] {
                continue;
            }
            let node = &graph.nodes[w];
            let f = &files[node.file].fns[node.fn_idx];
            if COLD_SINKS.contains(&f.name.as_str()) || (f.in_trait_impl && f.name == "fmt") {
                continue;
            }
            // `#[cold]` is the compiler's own unlikely-path hint; trust
            // it — error constructors and fault paths live there.
            if f.is_cold {
                continue;
            }
            reached[w] = true;
            pred[w] = Some(v);
            queue.push_back(w);
        }
    }
    let reachable = reached.iter().filter(|r| **r).count();

    let mut out = Vec::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if !reached[ni] {
            continue;
        }
        let file = &files[node.file];
        let f = &file.fns[node.fn_idx];
        let Some((from, to)) = f.body else { continue };
        let path = call_path(files, graph, &pred, ni);
        for site in scan_hot_sites(&file.toks, from, to) {
            out.push((
                node.file,
                RuleFinding {
                    rule: "hot-path",
                    line: site.line,
                    message: format!(
                        "{} `{}` in `{}`, which is reachable from a hot \
                         root ({}) — the batched translation and replay \
                         loops must stay free of per-event allocation and \
                         formatting; hoist the buffer to the caller, \
                         pre-size it at construction, or move this work \
                         off the hot path",
                        site.category, site.what, f.qual, path
                    ),
                },
            ));
        }
    }
    (out, reachable)
}

/// Which call-graph nodes the hot-path walk considers at all: non-test
/// library fns outside the analyzer's own crate.
fn hot_eligible(files: &[ParsedFile], graph: &CallGraph) -> Vec<bool> {
    graph
        .nodes
        .iter()
        .map(|node| {
            let file = &files[node.file];
            let f = &file.fns[node.fn_idx];
            file.kind == FileKind::Lib && !f.is_test && crate_of(&file.path) != "check"
        })
        .collect()
}

/// The listed roots that match no eligible fn. A rename that leaves a
/// root dangling would silently drop its whole subtree from the
/// hot-path walk, so `--analyze` refuses to run with one.
pub(crate) fn unresolved_hot_roots(
    files: &[ParsedFile],
    graph: &CallGraph,
    names: &[&'static str],
    quals: &[&'static str],
) -> Vec<&'static str> {
    let eligible = hot_eligible(files, graph);
    let live: Vec<&super::outline::FnDecl> = graph
        .nodes
        .iter()
        .zip(&eligible)
        .filter(|(_, e)| **e)
        .map(|(node, _)| &files[node.file].fns[node.fn_idx])
        .collect();
    let by_name = names.iter().filter(|r| !live.iter().any(|f| f.name == **r));
    let by_qual = quals.iter().filter(|r| !live.iter().any(|f| f.qual == **r));
    by_name.chain(by_qual).copied().collect()
}

/// Renders the BFS predecessor chain `root -> … -> node` (capped; the
/// middle elides when long).
fn call_path(
    files: &[ParsedFile],
    graph: &CallGraph,
    pred: &[Option<usize>],
    mut ni: usize,
) -> String {
    let mut names = Vec::new();
    loop {
        let node = &graph.nodes[ni];
        names.push(files[node.file].fns[node.fn_idx].qual.clone());
        match pred[ni] {
            Some(p) => ni = p,
            None => break,
        }
    }
    names.reverse();
    if names.len() > 5 {
        let tail = names.split_off(names.len() - 2);
        names.truncate(2);
        names.push("…".to_owned());
        names.extend(tail);
    }
    names.join(" -> ")
}

/// Paired `Type::method(` patterns that allocate, with how a finding
/// names them.
const PATH_ALLOC: [(&str, &str, &str); 9] = [
    ("Box", "new", "Box::new"),
    ("String", "new", "String::new"),
    ("String", "from", "String::from"),
    ("Vec", "new", "Vec::new"),
    ("Vec", "with_capacity", "Vec::with_capacity"),
    ("BTreeSet", "new", "BTreeSet::new"),
    ("BTreeMap", "new", "BTreeMap::new"),
    ("HashMap", "new", "HashMap::new"),
    ("HashSet", "new", "HashSet::new"),
];

/// `.method(` calls that allocate or format, with how a finding names
/// them and its category. `collect` also matches with a turbofish
/// (`.collect::<Vec<_>>()`); the token scan cannot see the target type,
/// so every collect counts — a hot loop has no business building one.
const METHOD_SITES: [(&str, &str, &str); 5] = [
    ("clone", ".clone()", "clone() call"),
    ("to_string", ".to_string()", "formatting"),
    ("to_owned", ".to_owned()", "heap allocation"),
    ("to_vec", ".to_vec()", "heap allocation"),
    ("collect", ".collect()", "heap allocation"),
];

/// Formatting/allocating macros.
const MACRO_SITES: [&str; 5] = ["format", "vec", "println", "eprintln", "write"];

/// Scans one body token range for hot-path violations.
fn scan_hot_sites(toks: &[Tok], from: usize, to: usize) -> Vec<HotSite> {
    let mut out = Vec::new();
    let hi = to.min(toks.len());
    for i in from..hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |j: usize, p: &str| toks.get(i + j).is_some_and(|t| t.is(p));
        // `name!(…)` macros.
        if next_is(1, "!") && next_is(2, "(") && MACRO_SITES.contains(&t.text.as_str()) {
            let category = if t.text == "vec" {
                "heap allocation"
            } else {
                "formatting"
            };
            out.push(HotSite {
                line: t.line,
                what: match t.text.as_str() {
                    "vec" => "vec![…]",
                    "format" => "format!",
                    "println" => "println!",
                    "eprintln" => "eprintln!",
                    _ => "write!",
                },
                category,
            });
            continue;
        }
        // `Type::method(` allocations.
        if next_is(1, "::") && next_is(3, "(") {
            if let Some(m) = toks.get(i + 2) {
                if let Some(&(_, _, what)) = PATH_ALLOC
                    .iter()
                    .find(|(ty, me, _)| *ty == t.text && *me == m.text)
                {
                    out.push(HotSite {
                        line: t.line,
                        what,
                        category: "heap allocation",
                    });
                    continue;
                }
            }
        }
        // `.method(` / `.method::<…>(` clones, formatters and collects.
        if i > 0 && toks[i - 1].is(".") && (next_is(1, "(") || next_is(1, "::")) {
            if let Some(&(_, what, category)) = METHOD_SITES.iter().find(|(m, _, _)| *m == t.text) {
                out.push(HotSite {
                    line: t.line,
                    what,
                    category,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dangling_hot_roots_are_reported() {
        use crate::analysis::FileKind;
        use std::path::Path;
        let files = vec![ParsedFile::parse(
            Path::new("crates/sim/src/engine.rs"),
            FileKind::Lib,
            "pub struct Engine;\n\
             impl Engine {\n    pub fn run(&mut self) {}\n}\n\
             pub fn translate_batch() {}\n",
        )];
        let graph = CallGraph::build(&files);
        let missing = unresolved_hot_roots(
            &files,
            &graph,
            &["translate_batch", "renamed_away"],
            &["Engine::run", "Gone::run"],
        );
        assert_eq!(missing, vec!["renamed_away", "Gone::run"]);
    }
}
