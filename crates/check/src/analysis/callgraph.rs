//! Crate-level call graph and workspace reference counts.
//!
//! Nodes are every parsed function (any file kind — binaries and tests
//! count as callers so library code they exercise stays live). Edges are
//! resolved by simple callee name: token `name` directly followed by `(`
//! inside a caller's body links to every function named `name` anywhere
//! in the workspace. Like the symbol table this is an over-approximation
//! — with no type inference, `a.flush()` edges to *every* `flush` — which
//! biases the dead-code rule toward false negatives instead of false
//! positives.
//!
//! [`count_references`] is the companion metric for non-function symbols:
//! how many identifier tokens across the whole workspace name a symbol,
//! excluding its own declaration tokens.

use std::collections::{HashMap, HashSet};

use super::lexer::TokKind;
use super::outline::ParsedFile;

/// One function node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FnNode {
    /// Index of the declaring file.
    pub file: usize,
    /// Index into that file's `fns`.
    pub fn_idx: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub(crate) struct CallGraph {
    /// All function nodes.
    pub nodes: Vec<FnNode>,
    /// Caller → callee node-index edges (deduplicated).
    pub edges: HashSet<(usize, usize)>,
    /// Incoming-edge count per node.
    pub in_degree: Vec<usize>,
}

impl CallGraph {
    /// Builds the graph over all parsed files.
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let mut graph = CallGraph::default();
        // Name → candidate callee nodes.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (fj, f) in file.fns.iter().enumerate() {
                let idx = graph.nodes.len();
                graph.nodes.push(FnNode { file: fi, fn_idx: fj });
                by_name.entry(f.name.as_str()).or_default().push(idx);
            }
        }
        graph.in_degree = vec![0; graph.nodes.len()];
        // Edges: scan each body for `name (` call sites.
        let mut node_of = HashMap::new();
        for (idx, node) in graph.nodes.iter().enumerate() {
            node_of.insert((node.file, node.fn_idx), idx);
        }
        for (fi, file) in files.iter().enumerate() {
            for (fj, f) in file.fns.iter().enumerate() {
                let Some((from, to)) = f.body else { continue };
                let Some(&caller) = node_of.get(&(fi, fj)) else { continue };
                let toks = &file.toks;
                for i in from..to.min(toks.len()) {
                    if toks[i].kind != TokKind::Ident {
                        continue;
                    }
                    let is_call = toks.get(i + 1).is_some_and(|t| t.is("("));
                    let is_decl = i > 0 && toks[i - 1].is_ident("fn");
                    if !is_call || is_decl {
                        continue;
                    }
                    let Some(callees) = by_name.get(toks[i].text.as_str()) else {
                        continue;
                    };
                    for &callee in callees {
                        if callee != caller && graph.edges.insert((caller, callee)) {
                            graph.in_degree[callee] += 1;
                        }
                    }
                }
            }
        }
        graph
    }
}

/// Keywords that can precede an identifier in its own declaration.
const DECL_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "union", "trait", "mod", "const", "static", "type",
];

/// Counts, per identifier, how many tokens across all files *reference*
/// it — i.e. are not the name token of a declaration (`fn name`,
/// `struct name`, `static mut NAME`, `macro_rules! name`).
pub(crate) fn count_references(files: &[ParsedFile]) -> HashMap<String, usize> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    for file in files {
        let toks = &file.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let prev2 = i.checked_sub(2).map(|p| toks[p].text.as_str());
            let is_decl = match prev {
                Some(p) if DECL_KEYWORDS.contains(&p) => true,
                Some("mut") if prev2 == Some("static") => true,
                Some("!") if prev2 == Some("macro_rules") => true,
                _ => false,
            };
            if !is_decl {
                *counts.entry(t.text.clone()).or_default() += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FileKind;
    use std::path::PathBuf;

    fn parse(path: &str, src: &str) -> ParsedFile {
        ParsedFile::parse(&PathBuf::from(path), FileKind::Lib, src)
    }

    #[test]
    fn edges_cross_files_by_name() {
        let a = parse("crates/a/src/lib.rs", "pub fn used() {}\npub fn lonely() {}\n");
        let b = parse("crates/b/src/lib.rs", "pub fn driver() { used(); }\n");
        let g = CallGraph::build(&[a, b]);
        assert_eq!(g.nodes.len(), 3);
        // `used` has one caller, `lonely` none.
        let deg: Vec<usize> = g.in_degree.clone();
        assert_eq!(deg.iter().sum::<usize>(), 1);
        assert_eq!(g.edges.len(), 1);
    }

    #[test]
    fn declarations_are_not_references() {
        let f = parse(
            "crates/a/src/lib.rs",
            "pub fn lonely() {}\npub fn used() {}\nfn main2() { used(); }\n",
        );
        let counts = count_references(&[f]);
        assert!(!counts.contains_key("lonely"));
        assert_eq!(counts.get("used"), Some(&1));
    }
}
