//! Atomic-ordering dataflow (`atomic-ordering`).
//!
//! Two memory-ordering bug shapes over the atomic sites of shared
//! structs (see [`super::lockset::SharedModel`]) and atomic statics:
//!
//! * **Release-free publication** — some function writes a plain field
//!   and then `store`s an atomic flag; another function `load`s that
//!   flag and afterwards reads the same plain field. Unless the store
//!   is `Release`-or-stronger *and* the load is `Acquire`-or-stronger,
//!   the consuming thread can observe the flag without the data — the
//!   classic broken message-passing pattern. The pass pairs store and
//!   load sites through the plain fields they publish/consume and
//!   flags whichever half is too weak.
//! * **Non-atomic read-modify-write** — a `load` of an atomic followed
//!   by a `store` to the same atomic in one body (with no
//!   `compare_exchange` between): a concurrent update between the two
//!   halves is silently lost; `fetch_add`/`compare_exchange` is the
//!   atomic form.

use super::callgraph::CallGraph;
use super::lexer::{skip_group, TokKind};
use super::lockorder::receiver_path;
use super::lockset::SharedModel;
use super::outline::ParsedFile;
use super::rules::RuleFinding;
use super::symbols::crate_of;
use super::FileKind;

/// Atomic access methods the scan recognizes.
const ATOMIC_METHODS: [&str; 10] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Memory-ordering identifiers.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Load,
    Store,
    Rmw,
    CompareExchange,
}

/// One atomic access site.
#[derive(Debug)]
struct AtomicSite {
    /// Node index of the enclosing fn.
    node: usize,
    /// Atomic field (or static) name.
    field: String,
    /// Struct index in the model, `None` for statics.
    strukt: Option<usize>,
    kind: SiteKind,
    /// Orderings named in the call's arguments (empty when the
    /// ordering is passed through a variable — then the site is not
    /// judged).
    orderings: Vec<String>,
    /// Token index (orders sites within one body).
    tok: usize,
    line: u32,
}

/// A plain-field access in the same body, for publication pairing.
#[derive(Debug)]
struct PlainAccess {
    node: usize,
    strukt: usize,
    field: String,
    is_write: bool,
    tok: usize,
}

/// `true` when the orderings list contains a Release-or-stronger
/// ordering (for stores).
fn has_release(ords: &[String]) -> bool {
    ords.iter().any(|o| o == "Release" || o == "AcqRel" || o == "SeqCst")
}

/// `true` when the orderings list contains an Acquire-or-stronger
/// ordering (for loads).
fn has_acquire(ords: &[String]) -> bool {
    ords.iter().any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst")
}

/// Last path segment of a normalized receiver (`a.b[]` → `b`).
fn field_of(receiver: &str) -> &str {
    let base = receiver.trim_end_matches("[]");
    base.rsplit('.').next().unwrap_or(base)
}

/// Runs the atomic-ordering analysis.
pub(crate) fn atomic_ordering(
    files: &[ParsedFile],
    graph: &CallGraph,
    model: &SharedModel,
) -> Vec<(usize, RuleFinding)> {
    let mut sites: Vec<AtomicSite> = Vec::new();
    let mut plain: Vec<PlainAccess> = Vec::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        let f = &file.fns[node.fn_idx];
        if file.kind != FileKind::Lib || f.is_test || crate_of(&file.path) == "check" {
            continue;
        }
        let Some((from, to)) = f.body else { continue };
        let strukt = f
            .qual
            .rsplit("::")
            .nth(1)
            .and_then(|ty| model.by_name.get(ty))
            .copied();
        let toks = &file.toks;
        let hi = to.min(toks.len());
        for i in from..hi {
            // Atomic site: `.method(…)` with a known receiver.
            if toks[i].is(".")
                && toks
                    .get(i + 1)
                    .is_some_and(|t| ATOMIC_METHODS.contains(&t.text.as_str()))
                && toks.get(i + 2).is_some_and(|t| t.is("("))
            {
                let method = toks[i + 1].text.as_str();
                let Some(recv) = receiver_path(file, from, i) else { continue };
                let field = field_of(&recv).to_owned();
                let on_struct = strukt
                    .filter(|&si| model.structs[si].atomics.iter().any(|a| a == &field));
                let on_static = model.atomic_statics.iter().any(|s| s == &field);
                if on_struct.is_none() && !on_static {
                    continue;
                }
                let close = skip_group(toks, i + 2);
                let orderings = toks[i + 2..close.min(toks.len())]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident && ORDERINGS.contains(&t.text.as_str()))
                    .map(|t| t.text.clone())
                    .collect();
                let kind = match method {
                    "load" => SiteKind::Load,
                    "store" => SiteKind::Store,
                    "compare_exchange" | "compare_exchange_weak" => SiteKind::CompareExchange,
                    _ => SiteKind::Rmw,
                };
                sites.push(AtomicSite {
                    node: ni,
                    field,
                    strukt: on_struct,
                    kind,
                    orderings,
                    tok: i,
                    line: toks[i + 1].line,
                });
                continue;
            }
            // Plain-field access: `self.<plain>` of the enclosing shared
            // struct.
            if toks[i].is_ident("self")
                && toks.get(i + 1).is_some_and(|t| t.is("."))
                && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                let Some(si) = strukt else { continue };
                let name = toks[i + 2].text.clone();
                if !model.structs[si].plain.iter().any(|p| p == &name) {
                    continue;
                }
                let mut j = i + 3;
                if toks.get(j).is_some_and(|t| t.is("[")) {
                    j = skip_group(toks, j);
                }
                let is_write = toks.get(j).is_some_and(|t| {
                    t.kind == TokKind::Punct
                        && matches!(
                            t.text.as_str(),
                            "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<="
                                | ">>="
                        )
                });
                plain.push(PlainAccess {
                    node: ni,
                    strukt: si,
                    field: name,
                    is_write,
                    tok: i,
                });
            }
        }
    }

    let mut findings: Vec<(usize, RuleFinding)> = Vec::new();
    let mut flagged: Vec<usize> = Vec::new(); // site indices already reported

    // --- Release-free publication -----------------------------------
    // Pair (store site, load site) of the same struct atomic through a
    // plain field written before the store and read after the load.
    for (si_idx, store) in sites.iter().enumerate() {
        if store.kind != SiteKind::Store {
            continue;
        }
        let Some(strukt) = store.strukt else { continue };
        let published: Vec<&PlainAccess> = plain
            .iter()
            .filter(|p| {
                p.node == store.node && p.strukt == strukt && p.is_write && p.tok < store.tok
            })
            .collect();
        if published.is_empty() {
            continue;
        }
        for (li_idx, load) in sites.iter().enumerate() {
            if load.kind != SiteKind::Load
                || load.strukt != Some(strukt)
                || load.field != store.field
                || load.node == store.node
            {
                continue;
            }
            let consumed: Vec<&PlainAccess> = plain
                .iter()
                .filter(|p| {
                    p.node == load.node && p.strukt == strukt && !p.is_write && p.tok > load.tok
                })
                .collect();
            let Some(carried) = published
                .iter()
                .find(|w| consumed.iter().any(|r| r.field == w.field))
            else {
                continue;
            };
            let store_fn = fn_qual(files, graph, store.node);
            let load_fn = fn_qual(files, graph, load.node);
            if !store.orderings.is_empty() && !has_release(&store.orderings) && !flagged.contains(&si_idx)
            {
                flagged.push(si_idx);
                let ord = store.orderings.join("/");
                findings.push((
                    graph.nodes[store.node].file,
                    RuleFinding {
                        rule: "atomic-ordering",
                        line: store.line,
                        message: format!(
                            "`{field}.store(…, Ordering::{ord})` in `{store_fn}` \
                             publishes plain field `{carried}` of `{strukt_name}` \
                             (read after `{field}.load` in `{load_fn}`) without \
                             Release ordering — the consumer can see the flag \
                             before the data; use Ordering::Release (or SeqCst)",
                            field = store.field,
                            carried = carried.field,
                            strukt_name = model.structs[strukt].name,
                        ),
                    },
                ));
            }
            if !load.orderings.is_empty() && !has_acquire(&load.orderings) && !flagged.contains(&li_idx)
            {
                flagged.push(li_idx);
                let ord = load.orderings.join("/");
                findings.push((
                    graph.nodes[load.node].file,
                    RuleFinding {
                        rule: "atomic-ordering",
                        line: load.line,
                        message: format!(
                            "`{field}.load(Ordering::{ord})` in `{load_fn}` guards \
                             a read of plain field `{carried}` of `{strukt_name}` \
                             (published by `{field}.store` in `{store_fn}`) without \
                             Acquire ordering — the data read can be reordered \
                             before the flag check; use Ordering::Acquire (or \
                             SeqCst)",
                            field = load.field,
                            carried = carried.field,
                            strukt_name = model.structs[strukt].name,
                        ),
                    },
                ));
            }
        }
    }

    // --- Non-atomic read-modify-write --------------------------------
    // A load then a store of the same atomic in one body, with no
    // compare_exchange between them.
    let mut rmw_flagged: Vec<(usize, String)> = Vec::new();
    for load in sites.iter().filter(|s| s.kind == SiteKind::Load) {
        for store in sites.iter().filter(|s| {
            s.kind == SiteKind::Store
                && s.node == load.node
                && s.field == load.field
                && s.tok > load.tok
        }) {
            let has_cas_between = sites.iter().any(|c| {
                c.kind == SiteKind::CompareExchange
                    && c.node == load.node
                    && c.field == load.field
                    && c.tok > load.tok
                    && c.tok < store.tok
            });
            let key = (load.node, load.field.clone());
            if has_cas_between || rmw_flagged.contains(&key) {
                continue;
            }
            rmw_flagged.push(key);
            findings.push((
                graph.nodes[store.node].file,
                RuleFinding {
                    rule: "atomic-ordering",
                    line: store.line,
                    message: format!(
                        "atomic `{}` is updated as a separate load then store in \
                         `{}` — a concurrent increment between the two halves is \
                         silently lost; use fetch_add/fetch_or (or a \
                         compare_exchange loop) to make the read-modify-write \
                         atomic",
                        load.field,
                        fn_qual(files, graph, load.node),
                    ),
                },
            ));
        }
    }

    findings
}

/// Qualified name of a call-graph node's fn.
fn fn_qual<'a>(files: &'a [ParsedFile], graph: &CallGraph, node: usize) -> &'a str {
    let n = &graph.nodes[node];
    &files[n.file].fns[n.fn_idx].qual
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(src: &str) -> Vec<String> {
        let files = [ParsedFile::parse(Path::new("crates/x/src/demo.rs"), FileKind::Lib, src)];
        let graph = CallGraph::build(&files);
        let model = SharedModel::build(&files);
        atomic_ordering(&files, &graph, &model)
            .into_iter()
            .map(|(_, f)| f.message)
            .collect()
    }

    const DIRTY_PAIR: &str = "pub struct M { ready: AtomicU64, payload: u64 }\n\
         impl M {\n\
           fn publish(&self) { self.payload = 7; self.ready.store(1, Ordering::Relaxed); }\n\
           fn consume(&self) -> u64 { if self.ready.load(Ordering::Relaxed) == 1 { return self.payload; } 0 }\n\
         }\n";

    #[test]
    fn relaxed_publication_flags_both_halves() {
        let msgs = run(DIRTY_PAIR);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("without Release ordering")));
        assert!(msgs.iter().any(|m| m.contains("without Acquire ordering")));
    }

    #[test]
    fn release_acquire_pair_is_clean() {
        let msgs = run(
            "pub struct M { ready: AtomicU64, payload: u64 }\n\
             impl M {\n\
               fn publish(&self) { self.payload = 7; self.ready.store(1, Ordering::Release); }\n\
               fn consume(&self) -> u64 { if self.ready.load(Ordering::Acquire) == 1 { return self.payload; } 0 }\n\
             }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn load_then_store_rmw_is_flagged() {
        let msgs = run(
            "pub struct M { seq: AtomicU64 }\n\
             impl M {\n\
               fn bump(&self) { let s = self.seq.load(Ordering::Relaxed); self.seq.store(s + 1, Ordering::Relaxed); }\n\
             }\n",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("separate load then store"));
    }

    #[test]
    fn cas_loop_is_not_an_rmw_finding() {
        let msgs = run(
            "pub struct M { seq: AtomicU64 }\n\
             impl M {\n\
               fn bump(&self) { let s = self.seq.load(Ordering::Relaxed); let _ = self.seq.compare_exchange(s, s + 1, Ordering::AcqRel, Ordering::Relaxed); }\n\
             }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn fetch_add_counters_are_clean() {
        let msgs = run(
            "pub struct M { hits: AtomicU64 }\n\
             impl M {\n\
               fn record(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
               fn total(&self) -> u64 { self.hits.load(Ordering::Relaxed) }\n\
             }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }
}
