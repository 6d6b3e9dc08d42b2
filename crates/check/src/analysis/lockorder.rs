//! Static lock-acquisition-order extraction.
//!
//! PR 1's dynamic model checker catches lock-order inversions only along
//! interleavings it explores; this pass extracts the *static* acquisition
//! order so the whole workspace is covered without running anything. For
//! each non-test library function it records every `X.lock()` /
//! `X.read()` / `X.write()` call (zero-argument — the `std::sync` guard
//! acquisitions), normalizes the receiver path (`self.` stripped, index
//! expressions collapsed to `[]`), and emits an ordered edge `a → b`
//! whenever `b` is acquired after `a` inside one body. Cycles in the
//! resulting graph — found with the same DFS the dynamic checker uses
//! ([`crate::sched::find_cycle`]) — are potential ABBA deadlocks.
//!
//! Two deliberate exclusions keep the graph honest:
//!
//! * **Same-name pairs are skipped.** Acquiring `shards[i]` then
//!   `shards[j]` in a loop produces two sites with one normalized name;
//!   a self-edge would flag every sharded structure as a deadlock with
//!   itself, which the *dynamic* checker (which sees real object
//!   identities) is the right tool to judge.
//! * **`crates/check` itself is skipped.** Its protocol/scenario modules
//!   deliberately construct adversarial lock orders inside closures so
//!   the model checker has something to catch; feeding the checker's own
//!   test vectors back into the static pass would report its fixtures.

use std::collections::{HashMap, HashSet};

use super::outline::ParsedFile;
use super::symbols::crate_of;
use super::FileKind;
use crate::sched::find_cycle;

/// One static acquisition site.
#[derive(Debug, Clone)]
pub(crate) struct Acquisition {
    /// Normalized receiver path (e.g. `shards[]`, `inner.stats`).
    pub lock: String,
    /// 1-based source line.
    pub line: u32,
}

/// One ordered acquisition edge with provenance.
#[derive(Debug, Clone)]
pub(crate) struct LockEdge {
    /// Lock held first.
    pub first: String,
    /// Lock acquired second (while `first` may still be held).
    pub second: String,
    /// Qualified function name the pair was seen in.
    pub in_fn: String,
    /// File index of that function.
    pub file: usize,
    /// Line of the second acquisition.
    pub line: u32,
}

/// The extracted lock-order graph.
#[derive(Debug, Default)]
pub(crate) struct LockOrderGraph {
    /// Distinct normalized lock names, in first-seen order.
    pub locks: Vec<String>,
    /// All ordered edges, with provenance.
    pub edges: Vec<LockEdge>,
    /// A cycle through lock names, if the edge set has one.
    pub cycle: Option<Vec<String>>,
}

impl LockOrderGraph {
    /// Extracts the graph from parsed files (library code only, skipping
    /// `crates/check` — see the module docs for why).
    pub fn extract(files: &[ParsedFile]) -> LockOrderGraph {
        let mut graph = LockOrderGraph::default();
        let mut intern: HashMap<String, u64> = HashMap::new();
        let mut id_edges: HashSet<(u64, u64)> = HashSet::new();
        for (fi, file) in files.iter().enumerate() {
            if file.kind != FileKind::Lib || crate_of(&file.path) == "check" {
                continue;
            }
            for f in &file.fns {
                if f.is_test {
                    continue;
                }
                let Some((from, to)) = f.body else { continue };
                let acqs = acquisitions(file, from, to);
                for (a_idx, a) in acqs.iter().enumerate() {
                    for b in &acqs[a_idx + 1..] {
                        if a.lock == b.lock {
                            continue;
                        }
                        for name in [&a.lock, &b.lock] {
                            if !intern.contains_key(name) {
                                let id = intern.len() as u64;
                                intern.insert(name.clone(), id);
                                graph.locks.push(name.clone());
                            }
                        }
                        id_edges.insert((intern[&a.lock], intern[&b.lock]));
                        graph.edges.push(LockEdge {
                            first: a.lock.clone(),
                            second: b.lock.clone(),
                            in_fn: f.qual.clone(),
                            file: fi,
                            line: b.line,
                        });
                    }
                }
            }
        }
        graph.cycle = find_cycle(&id_edges).map(|ids| {
            ids.iter()
                .map(|id| graph.locks[*id as usize].clone())
                .collect()
        });
        graph
    }
}

/// Guard-returning zero-argument acquisition methods.
pub(crate) const ACQUIRE: [&str; 3] = ["lock", "read", "write"];

/// Scans a body token range for acquisition sites, in source order.
fn acquisitions(file: &ParsedFile, from: usize, to: usize) -> Vec<Acquisition> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let hi = to.min(toks.len());
    for i in from..hi {
        // Pattern: `.` <acquire> `(` `)`.
        let ok = toks[i].is(".")
            && toks.get(i + 1).is_some_and(|t| ACQUIRE.contains(&t.text.as_str()))
            && toks.get(i + 2).is_some_and(|t| t.is("("))
            && toks.get(i + 3).is_some_and(|t| t.is(")"));
        if !ok {
            continue;
        }
        if let Some(lock) = receiver_path(file, from, i) {
            out.push(Acquisition {
                lock,
                line: toks[i + 1].line,
            });
        }
    }
    out
}

/// Walks left from the `.` at `dot` to build the normalized receiver
/// path. Returns `None` when no identifier anchors the receiver (e.g. a
/// parenthesized temporary — too dynamic to name statically). Shared with
/// the lockset and atomic-ordering rules, which name locks and atomics
/// the same way.
pub(crate) fn receiver_path(file: &ParsedFile, floor: usize, dot: usize) -> Option<String> {
    let toks = &file.toks;
    let mut parts: Vec<String> = Vec::new();
    let mut i = dot;
    while i > floor {
        let prev = &toks[i - 1];
        match prev.text.as_str() {
            "]" => {
                // Index expression: scan back to its `[`, normalize to `[]`.
                let mut depth = 0i64;
                let mut j = i - 1;
                loop {
                    match toks[j].text.as_str() {
                        "]" => depth += 1,
                        "[" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == floor {
                        break;
                    }
                    j -= 1;
                }
                parts.push("[]".to_owned());
                i = j;
            }
            "." | "::" => {
                parts.push(prev.text.clone());
                i -= 1;
            }
            _ if prev.kind == super::lexer::TokKind::Ident => {
                parts.push(prev.text.clone());
                i -= 1;
            }
            _ => break,
        }
    }
    parts.reverse();
    // Must start with an identifier; drop a leading `self.`.
    if parts.first().map(String::as_str) == Some("self") {
        parts.drain(..(2.min(parts.len())));
    }
    if parts.is_empty() || parts[0] == "." || parts[0] == "::" {
        return None;
    }
    let joined: String = parts.concat();
    let trimmed = joined.trim_matches('.').to_owned();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(&PathBuf::from("crates/x/src/demo.rs"), FileKind::Lib, src)
    }

    #[test]
    fn extracts_ordered_pairs_and_normalizes() {
        let f = parse(
            "fn f(&self) {\n  let a = self.alpha.lock();\n  let b = self.beta[i].lock();\n}\n",
        );
        let g = LockOrderGraph::extract(&[f]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].first, "alpha");
        assert_eq!(g.edges[0].second, "beta[]");
        assert!(g.cycle.is_none());
    }

    #[test]
    fn same_name_pairs_are_skipped() {
        let f = parse(
            "fn sweep(&self) {\n  for s in &self.shards { s.lock().flush(); }\n  \
             for s in &self.shards { s.lock().flush(); }\n}\n",
        );
        let g = LockOrderGraph::extract(&[f]);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn abba_cycle_is_found() {
        let f = parse(
            "fn ab(&self) { let _a = self.a.lock(); let _b = self.b.lock(); }\n\
             fn ba(&self) { let _b = self.b.lock(); let _a = self.a.lock(); }\n",
        );
        let g = LockOrderGraph::extract(&[f]);
        let cycle = g.cycle.as_deref();
        assert!(cycle.is_some_and(|c| c.contains(&"a".to_owned()) && c.contains(&"b".to_owned())));
    }

    #[test]
    fn rwlock_read_write_count() {
        let f = parse(
            "fn f(&self) { let r = self.table.read(); let w = self.stats.write(); }\n",
        );
        let g = LockOrderGraph::extract(&[f]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].first, "table");
    }
}
