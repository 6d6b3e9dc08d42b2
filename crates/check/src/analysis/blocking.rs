//! `blocking-in-lock`: potentially-blocking waits reachable while a
//! `Mutex` lockset is non-empty.
//!
//! The `mixtlb_check::sync` facade's blocking primitives — `Semaphore::
//! acquire`, `Event::wait`, and `BoundedQueue::push`/`pop` (which block
//! on internal semaphores when full/empty) — park the calling thread
//! until *another* thread makes progress. Doing that while holding a
//! `Mutex` is a deadlock recipe: the thread that would unblock the wait
//! may need that same mutex. The PR 9 model check explores this
//! dynamically for `BoundedQueue` under the `model` feature; this rule
//! is its static complement over the whole workspace.
//!
//! The analysis is three passes over the same machinery the lockset
//! race rule uses:
//!
//! 1. **Scan** every eligible body, tracking a block-scoped lockset. A
//!    `.lock()`/`.read()`/`.write()` acquisition is held to the end of
//!    its block only when bound by a *plain* `let` (possibly through a
//!    transparent `.unwrap()`/`.expect()` chain) — anything else is a
//!    statement-scoped temporary whose guard drops at the `;`, which the
//!    streaming pipeline relies on (`lock(&slot).take()` then a blocking
//!    `free.push(buf)` is fine). Sinks: zero-arg `.acquire()`/`.wait()`,
//!    plus `.push(…)`/`.pop()` whose receiver is `BoundedQueue`-typed by
//!    declaration (param, struct field, or local) — name matching alone
//!    would damn every `Vec::push`.
//! 2. **Propagate** may-block bottom-up over the SCC condensation:
//!    a call to a function that may block, through an unambiguous name,
//!    blocks too.
//! 3. **Entry locksets** top-down (shared [`entry_locksets`] engine):
//!    a private helper only ever called with a lock held inherits that
//!    lockset, so the wait need not be lexically under the `lock()`.
//!
//! Like the other concurrency rules this one skips `crates/check`
//! itself: the facade's internals (a queue's `pop` takes its own
//! `Mutex` around the ring indices *by design*, bounded and private)
//! would be all noise.

use std::collections::HashMap;
use std::time::Instant;

use super::callgraph::CallGraph;
use super::dataflow::{condense, successors, LockNames, LockSet};
use super::lexer::{skip_group, Tok, TokKind};
use super::lockorder::receiver_path;
use super::lockset::entry_locksets;
use super::outline::ParsedFile;
use super::rules::RuleFinding;
use super::symbols::crate_of;
use super::FileKind;

/// Lock-acquiring method names (mirrors the lock-order rule).
const ACQUIRE: [&str; 3] = ["lock", "read", "write"];
/// Methods transparent to guard binding: the guard passes through.
const TRANSPARENT: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// A potentially-blocking operation observed in a body.
#[derive(Debug, Clone)]
struct Sink {
    line: u32,
    /// Human description, e.g. ``semaphore `slots.acquire()` ``.
    desc: String,
    /// Locks held lexically at the sink.
    locks: LockSet,
}

/// One call site: callee name, line, and locks held across it.
#[derive(Debug, Clone)]
struct Call {
    callee: String,
    line: u32,
    locks: LockSet,
}

#[derive(Debug, Default)]
struct Facts {
    sinks: Vec<Sink>,
    calls: Vec<Call>,
    /// Locks this body acquires block-scoped (for guard-helper summaries).
    acquired: LockSet,
}

/// Rule output: findings plus the rule's wall-clock cost.
pub(crate) struct BlockingResult {
    pub findings: Vec<(usize, RuleFinding)>,
    pub nanos: u128,
}

/// `true` when the concatenated type text names the bounded queue.
fn is_queue_type(ty: &str) -> bool {
    ty.contains("BoundedQueue")
}

/// Walks a transparent method chain (`?`, `.unwrap()`, `.expect(…)`,
/// `.unwrap_or_else(…)`) starting just past a call's `()`; returns the
/// first non-transparent index.
fn transparent_end(toks: &[Tok], mut k: usize) -> usize {
    loop {
        if toks.get(k).is_some_and(|t| t.is("?")) {
            k += 1;
            continue;
        }
        if toks.get(k).is_some_and(|t| t.is("."))
            && toks
                .get(k + 1)
                .is_some_and(|t| TRANSPARENT.iter().any(|m| t.is_ident(m)))
            && toks.get(k + 2).is_some_and(|t| t.is("("))
        {
            k = skip_group(toks, k + 2);
            continue;
        }
        return k;
    }
}

/// Scans one body. `guard_of` maps guard-returning helper names to the
/// locks they hand back; `queue_fields` marks `BoundedQueue`-typed
/// struct field names; `queue_params`/`queue_locals` are per-body.
fn scan(
    file: &ParsedFile,
    from: usize,
    to: usize,
    names: &mut LockNames,
    guard_of: &HashMap<String, LockSet>,
    queue_fields: &HashMap<String, bool>,
    queue_params: &[String],
) -> Facts {
    let toks = &file.toks;
    let mut facts = Facts::default();
    let mut frames: Vec<LockSet> = vec![LockSet::EMPTY];
    let mut queue_locals: Vec<String> = Vec::new();
    let mut stmt_floor = from;
    // `let [mut] IDENT =` statement shape (guard binding discipline).
    let mut stmt_plain_let = false;
    let mut stmt_fresh = true;

    let held = |frames: &[LockSet]| frames.iter().fold(LockSet::EMPTY, |a, f| a.union(*f));
    let is_queue = |root: &str, locals: &[String]| {
        locals.iter().any(|l| l == root)
            || queue_params.iter().any(|p| p == root)
            || queue_fields.get(root).copied().unwrap_or(false)
    };

    let mut i = from;
    while i < to.min(toks.len()) {
        let t = &toks[i];
        if stmt_fresh {
            stmt_fresh = false;
            stmt_floor = i;
            stmt_plain_let = false;
            if t.is_ident("let") {
                let mut p = i + 1;
                if toks.get(p).is_some_and(|x| x.is_ident("mut")) {
                    p += 1;
                }
                if toks.get(p).is_some_and(|x| x.kind == TokKind::Ident)
                    && toks.get(p + 1).is_some_and(|x| x.is("=") || x.is(":"))
                {
                    stmt_plain_let = true;
                    // `let q = BoundedQueue::…` / `let q: BoundedQueue<…>`:
                    // scan the statement for the queue type name.
                    let name = toks[p].text.clone();
                    let mut q = p + 1;
                    let mut depth = 0i64;
                    while q < to.min(toks.len()) {
                        match toks[q].text.as_str() {
                            ";" if depth == 0 => break,
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            "BoundedQueue" => {
                                queue_locals.push(name.clone());
                                break;
                            }
                            _ => {}
                        }
                        q += 1;
                    }
                }
            }
        }
        match t.text.as_str() {
            "{" => frames.push(LockSet::EMPTY),
            "}" => {
                frames.pop();
                if frames.is_empty() {
                    frames.push(LockSet::EMPTY);
                }
            }
            _ => {}
        }
        if t.is(";") || t.is("{") || t.is("}") {
            stmt_fresh = true;
            i += 1;
            continue;
        }
        // `.method(` patterns.
        if t.is(".") && toks.get(i + 1).is_some_and(|m| m.kind == TokKind::Ident) {
            let method = toks[i + 1].text.as_str();
            let has_args = toks.get(i + 2).is_some_and(|x| x.is("("));
            if has_args {
                let close = skip_group(toks, i + 2);
                let zero_arg = close == i + 4;
                if ACQUIRE.contains(&method) && zero_arg {
                    // Lock acquisition: block-scoped only under the
                    // plain-let + transparent-chain discipline.
                    if let Some(path) = receiver_path(file, stmt_floor, i) {
                        if let Some(bit) = names.bit(&path) {
                            let end = transparent_end(toks, close);
                            let bound = stmt_plain_let
                                && toks.get(end).is_some_and(|x| x.is(";"));
                            if bound {
                                if let Some(top) = frames.last_mut() {
                                    *top = top.with(bit);
                                }
                            }
                            facts.acquired = facts.acquired.with(bit);
                        }
                    }
                    i = close;
                    continue;
                }
                if (method == "acquire" || method == "wait") && zero_arg {
                    let recv = receiver_path(file, stmt_floor, i).unwrap_or_default();
                    let kind = if method == "acquire" { "semaphore" } else { "event" };
                    facts.sinks.push(Sink {
                        line: t.line,
                        desc: format!("{kind} `{recv}.{method}()`"),
                        locks: held(&frames),
                    });
                    i = close;
                    continue;
                }
                if method == "push" || method == "pop" {
                    let recv = receiver_path(file, stmt_floor, i).unwrap_or_default();
                    let root = recv.split('.').next().unwrap_or("").trim_end_matches("[]");
                    if !root.is_empty() && is_queue(root, &queue_locals) {
                        let when = if method == "push" { "full" } else { "empty" };
                        facts.sinks.push(Sink {
                            line: t.line,
                            desc: format!(
                                "bounded-queue `{recv}.{method}()` (blocks when {when})"
                            ),
                            locks: held(&frames),
                        });
                    }
                    // Fall through: `.push(`/`.pop(` is also a call site
                    // for entry propagation (a fn named `push` elsewhere).
                }
            }
        }
        // Plain call sites `name(` (not a declaration, not a macro).
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|x| x.is("("))
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            let name = t.text.clone();
            // Guard-returning helper bound by a plain let: the helper's
            // locks are held to end of block.
            if let Some(&set) = guard_of.get(&name) {
                let close = skip_group(toks, i + 1);
                let end = transparent_end(toks, close);
                if stmt_plain_let && toks.get(end).is_some_and(|x| x.is(";")) {
                    if let Some(top) = frames.last_mut() {
                        *top = top.union(set);
                    }
                }
            }
            facts.calls.push(Call { callee: name, line: t.line, locks: held(&frames) });
        }
        i += 1;
    }
    facts
}

/// Runs the rule over the workspace.
pub(crate) fn blocking_in_lock(files: &[ParsedFile], graph: &CallGraph) -> BlockingResult {
    let t0 = Instant::now();
    let n = graph.nodes.len();
    let eligible: Vec<bool> = graph
        .nodes
        .iter()
        .map(|node| {
            let file = &files[node.file];
            let f = &file.fns[node.fn_idx];
            file.kind == FileKind::Lib
                && !f.is_test
                && f.body.is_some()
                && crate_of(&file.path) != "check"
        })
        .collect();

    // `BoundedQueue`-typed struct fields, workspace-wide; a field name
    // shared with a non-queue declaration is poisoned (kept `false`).
    let mut queue_fields: HashMap<String, bool> = HashMap::new();
    for file in files {
        for s in &file.structs {
            for (fname, fty) in &s.fields {
                let q = is_queue_type(fty);
                queue_fields
                    .entry(fname.clone())
                    .and_modify(|v| *v &= q)
                    .or_insert(q);
            }
        }
    }
    let queue_params_of = |f: &super::outline::FnDecl| -> Vec<String> {
        f.params
            .iter()
            .filter(|(_, ty)| is_queue_type(ty))
            .map(|(pat, _)| {
                pat.strip_prefix("mut")
                    .filter(|r| !r.is_empty())
                    .unwrap_or(pat)
                    .to_owned()
            })
            .collect()
    };

    let mut names = LockNames::default();
    // Pass A: facts without helper summaries, plus guard-helper sets
    // (one level: a fn whose return type mentions `Guard` hands back the
    // locks its own body acquires).
    let empty_guards = HashMap::new();
    let mut guard_of: HashMap<String, LockSet> = HashMap::new();
    for node in &graph.nodes {
        let file = &files[node.file];
        let f = &file.fns[node.fn_idx];
        if !f.ret.contains("Guard") {
            continue;
        }
        let Some((from, to)) = f.body else { continue };
        let facts = scan(
            file,
            from,
            to,
            &mut names,
            &empty_guards,
            &queue_fields,
            &queue_params_of(f),
        );
        guard_of
            .entry(f.name.clone())
            .and_modify(|s| *s = s.union(facts.acquired))
            .or_insert(facts.acquired);
    }
    let facts: Vec<Option<Facts>> = (0..n)
        .map(|v| {
            if !eligible[v] {
                return None;
            }
            let node = &graph.nodes[v];
            let file = &files[node.file];
            let f = &file.fns[node.fn_idx];
            let (from, to) = f.body?;
            Some(scan(
                file,
                from,
                to,
                &mut names,
                &guard_of,
                &queue_fields,
                &queue_params_of(f),
            ))
        })
        .collect();

    // Name → nodes, for call resolution.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (v, node) in graph.nodes.iter().enumerate() {
        by_name
            .entry(files[node.file].fns[node.fn_idx].name.as_str())
            .or_default()
            .push(v);
    }

    // Call sites per *callee* for entry-lockset propagation.
    let mut sites: Vec<Vec<(usize, LockSet)>> = vec![Vec::new(); n];
    for (v, f) in facts.iter().enumerate() {
        let Some(f) = f else { continue };
        for call in &f.calls {
            if let Some(callees) = by_name.get(call.callee.as_str()) {
                for &c in callees {
                    if c != v {
                        sites[c].push((v, call.locks));
                    }
                }
            }
        }
    }

    // Bottom-up may-block: direct sinks, then transitive through calls
    // resolved by *unambiguous* name (a shared name like `push` must not
    // smear blocking onto every container).
    let succ = successors(graph);
    let cond = condense(n, &succ);
    let mut blocks: Vec<Option<String>> = vec![None; n];
    for comp in &cond.comps {
        loop {
            let mut changed = false;
            for &v in comp {
                if blocks[v].is_some() {
                    continue;
                }
                let Some(f) = &facts[v] else { continue };
                let desc = if let Some(sink) = f.sinks.first() {
                    Some(sink.desc.clone())
                } else {
                    f.calls.iter().find_map(|call| {
                        let nodes = by_name.get(call.callee.as_str())?;
                        if nodes.len() != 1 {
                            return None;
                        }
                        blocks[nodes[0]]
                            .as_ref()
                            .map(|d| format!("`{}` → {d}", call.callee))
                    })
                };
                if desc.is_some() {
                    blocks[v] = desc;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    let entry = entry_locksets(files, graph, &cond, &sites, &eligible);

    let mut findings = Vec::new();
    for (v, f) in facts.iter().enumerate() {
        let Some(f) = f else { continue };
        let node = &graph.nodes[v];
        for sink in &f.sinks {
            let effective = entry[v].union(sink.locks);
            if !effective.is_empty() {
                findings.push((
                    node.file,
                    RuleFinding {
                        rule: "blocking-in-lock",
                        line: sink.line,
                        message: format!(
                            "{} may block while holding lock(s) {{{}}} — the unblocking \
                             thread can need the same mutex; drop the guard before waiting",
                            sink.desc,
                            names.render(effective)
                        ),
                    },
                ));
            }
        }
        for call in &f.calls {
            let Some(nodes) = by_name.get(call.callee.as_str()) else { continue };
            if nodes.len() != 1 {
                continue;
            }
            let Some(desc) = &blocks[nodes[0]] else { continue };
            let effective = entry[v].union(call.locks);
            if !effective.is_empty() {
                findings.push((
                    node.file,
                    RuleFinding {
                        rule: "blocking-in-lock",
                        line: call.line,
                        message: format!(
                            "call to `{}` may block ({desc}) while holding lock(s) {{{}}} — \
                             drop the guard before the call",
                            call.callee,
                            names.render(effective)
                        ),
                    },
                ));
            }
        }
    }
    findings.sort_by_key(|(fi, rf)| (*fi, rf.line));
    findings.dedup_by(|a, b| a.0 == b.0 && a.1.line == b.1.line && a.1.message == b.1.message);
    BlockingResult { findings, nanos: t0.elapsed().as_nanos() }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn run(src: &str) -> Vec<String> {
        let files = [ParsedFile::parse(
            &PathBuf::from("crates/smp/src/demo.rs"),
            FileKind::Lib,
            src,
        )];
        let graph = CallGraph::build(&files);
        blocking_in_lock(&files, &graph)
            .findings
            .into_iter()
            .map(|(_, f)| f.message)
            .collect()
    }

    #[test]
    fn semaphore_wait_under_held_mutex_is_flagged() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, sem: Semaphore }\n\
             impl S {\n\
               pub fn bad(&self) { let _g = self.m.lock().unwrap(); self.sem.acquire(); }\n\
             }\n",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("semaphore"), "{msgs:?}");
        assert!(msgs[0].contains("m"), "{msgs:?}");
    }

    #[test]
    fn wait_after_guard_scope_ends_is_clean() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, sem: Semaphore }\n\
             impl S {\n\
               pub fn ok(&self) { { let _g = self.m.lock().unwrap(); } self.sem.acquire(); }\n\
             }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn statement_scoped_guard_does_not_pin_the_lockset() {
        // The guard is a temporary (consumed by `.take()`), dropped at
        // the end of its own statement — the later queue push is fine.
        let msgs = run(
            "pub struct W { slot: Mutex<Option<u64>>, free: BoundedQueue<u64> }\n\
             impl W {\n\
               pub fn recycle(&self) {\n\
                 let Some(buf) = self.slot.lock().unwrap().take() else { return; };\n\
                 self.free.push(buf);\n\
               }\n\
             }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn queue_ops_are_typed_not_name_matched() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, q: BoundedQueue<u64>, log: Vec<u64> }\n\
             impl S {\n\
               pub fn bad(&mut self) { let _g = self.m.lock().unwrap(); self.q.pop(); }\n\
               pub fn ok(&mut self) { let _g = self.m.lock().unwrap(); self.log.push(1); }\n\
             }\n",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("bounded-queue"), "{msgs:?}");
    }

    #[test]
    fn blocking_propagates_through_private_helpers() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, sem: Semaphore }\n\
             impl S {\n\
               fn wait_for_slot(&self) { self.sem.acquire(); }\n\
               pub fn bad(&self) { let _g = self.m.lock().unwrap(); self.wait_for_slot(); }\n\
             }\n",
        );
        // Two findings: the sink inside the helper (its entry lockset is
        // {m} — every caller holds the lock) and the call site itself.
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("call to `wait_for_slot`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("semaphore `sem.acquire()`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn entry_locksets_reach_helpers_called_under_lock() {
        // The wait is not lexically under the lock, but every caller of
        // the private helper holds one.
        let msgs = run(
            "pub struct S { m: Mutex<u64>, sem: Semaphore }\n\
             impl S {\n\
               fn drain(&self) { self.sem.acquire(); }\n\
               pub fn a(&self) { let _g = self.m.lock().unwrap(); self.drain(); }\n\
               pub fn b(&self) { let _g = self.m.lock().unwrap(); self.drain(); }\n\
             }\n",
        );
        // Flagged at the sink (entry lockset) and at both call sites.
        assert!(!msgs.is_empty(), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("semaphore `sem.acquire()`")),
            "{msgs:?}"
        );
    }
}
