//! Eraser-style lockset race detection (`lockset-race`).
//!
//! The classic Eraser discipline: every shared plain field must be
//! protected by a *consistent, non-empty* set of locks at every write.
//! This pass computes it statically, interprocedurally:
//!
//! 1. **Shared-struct model** ([`SharedModel`]) — a struct is shared
//!    when it owns synchronization (a `Mutex`/`RwLock`/`Atomic*`
//!    field — a type designed to be handed to `std::thread::spawn` or
//!    sharded like `SharedCache`), is wrapped in `Arc<…>` anywhere in
//!    the workspace, or is named by a `static` item's type. Its fields
//!    split into *synchronized* (lock/atomic-typed) and *plain*.
//! 2. **Per-body lockset scan** — `let`-bound `.lock()`/`.read()`/
//!    `.write()` guards are held to the end of the enclosing block;
//!    un-bound temporaries to the end of the statement. Helper calls
//!    that *return* a guard (return type mentions `Guard`) acquire
//!    their locks at the call site — those summaries propagate
//!    bottom-up over call-graph SCCs first.
//! 3. **Entry locksets** — propagated top-down over the SCC
//!    condensation: a private function's entry lockset is the
//!    intersection over its call sites of (caller entry ∪ locks held
//!    at the site). `pub` functions and functions with no observed
//!    caller start at the empty set (they are callable from anywhere).
//! 4. **Race check** — for each plain field of a shared struct, every
//!    write site inside a `&self` method (the concurrently-callable
//!    surface; `&mut self` implies exclusive access) gets its
//!    effective lockset (entry ∪ local). An empty effective set, or a
//!    non-empty family whose intersection is empty (the Eraser
//!    verdict), is a finding.
//!
//! Soundness caveats are documented in DESIGN.md §8: name-based call
//! resolution, no alias analysis, `drop(guard)` ignored (guards are
//! assumed held to scope end — which under-reports races and
//! over-reports lock-order, the conservative direction for each rule).

use std::collections::HashMap;

use super::callgraph::CallGraph;
use super::dataflow::{condense, successors, Condensation, LockNames, LockSet};
use super::lexer::{skip_group, TokKind};
use super::lockorder::{receiver_path, ACQUIRE};
use super::outline::{DeclKind, ParsedFile, SelfKind};
use super::rules::RuleFinding;
use super::symbols::crate_of;
use super::FileKind;

/// One struct the analysis considers cross-thread shared.
#[derive(Debug)]
pub(crate) struct SharedStruct {
    /// Struct name.
    pub name: String,
    /// Plain (unsynchronized) field names.
    pub plain: Vec<String>,
    /// Atomic field names (consumed by the atomic-ordering rule).
    pub atomics: Vec<String>,
    /// Why the struct is considered shared (for messages).
    pub why: &'static str,
}

/// The workspace shared-state model.
#[derive(Debug, Default)]
pub(crate) struct SharedModel {
    /// All shared structs.
    pub structs: Vec<SharedStruct>,
    /// Struct name → index into `structs`.
    pub by_name: HashMap<String, usize>,
    /// Names of `static` items with atomic types.
    pub atomic_statics: Vec<String>,
}

/// `true` when a field type provides its own synchronization.
fn is_sync_ty(ty: &str) -> bool {
    ty.contains("Mutex<") || ty.contains("RwLock<") || ty.contains("Atomic")
}

/// `true` when `hay` contains `needle` on identifier boundaries.
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

impl SharedModel {
    /// Builds the model over all parsed files (library code outside
    /// `crates/check`; the analyzer's own sync facade and scheduler
    /// deliberately hold adversarial patterns for the model checker).
    pub fn build(files: &[ParsedFile]) -> SharedModel {
        let mut model = SharedModel::default();
        // Names wrapped in `Arc<…>` / `Arc::new(…)` anywhere.
        let mut arced: Vec<String> = Vec::new();
        for file in files {
            let toks = &file.toks;
            for (i, t) in toks.iter().enumerate() {
                if !t.is_ident("Arc") {
                    continue;
                }
                let name = if toks.get(i + 1).is_some_and(|t| t.is("<")) {
                    toks.get(i + 2)
                } else if toks.get(i + 1).is_some_and(|t| t.is("::"))
                    && toks.get(i + 2).is_some_and(|t| t.is_ident("new"))
                    && toks.get(i + 3).is_some_and(|t| t.is("("))
                {
                    toks.get(i + 4)
                } else {
                    None
                };
                if let Some(n) = name.filter(|t| t.kind == TokKind::Ident) {
                    arced.push(n.text.clone());
                }
            }
        }
        // Types named by statics (any file — a test static still shares).
        let static_tys: Vec<String> = files
            .iter()
            .flat_map(|f| f.items.iter())
            .filter(|it| it.kind == DeclKind::Static)
            .map(|it| it.ty.clone())
            .collect();
        for file in files {
            if file.kind != FileKind::Lib || crate_of(&file.path) == "check" {
                continue;
            }
            for s in &file.structs {
                if s.is_test {
                    continue;
                }
                let owns_sync = s.fields.iter().any(|(_, ty)| is_sync_ty(ty));
                let why = if owns_sync {
                    "it owns Mutex/RwLock/atomic fields"
                } else if arced.iter().any(|a| a == &s.name) {
                    "it is wrapped in Arc"
                } else if static_tys.iter().any(|ty| contains_word(ty, &s.name)) {
                    "a static item has this type"
                } else {
                    continue;
                };
                let plain = s
                    .fields
                    .iter()
                    .filter(|(_, ty)| !is_sync_ty(ty))
                    .map(|(n, _)| n.clone())
                    .collect();
                let atomics = s
                    .fields
                    .iter()
                    .filter(|(_, ty)| ty.contains("Atomic"))
                    .map(|(n, _)| n.clone())
                    .collect();
                if !model.by_name.contains_key(&s.name) {
                    model.by_name.insert(s.name.clone(), model.structs.len());
                    model.structs.push(SharedStruct {
                        name: s.name.clone(),
                        plain,
                        atomics,
                        why,
                    });
                }
            }
            for it in &file.items {
                if it.kind == DeclKind::Static && it.ty.contains("Atomic") && !it.is_test {
                    model.atomic_statics.push(it.name.clone());
                }
            }
        }
        model
    }
}

/// A write to `self.<field>` (assignment, compound assignment, or a
/// mutating container call like `.push(…)`).
#[derive(Debug)]
struct WriteEvent {
    field: String,
    line: u32,
    locks: LockSet,
}

/// One observed call site with the locks held across it.
#[derive(Debug)]
struct CallEvent {
    callee: String,
    locks: LockSet,
}

/// Per-function scan results.
#[derive(Debug, Default)]
struct BodyFacts {
    /// Union of all locks acquired anywhere in the body.
    acquired: LockSet,
    writes: Vec<WriteEvent>,
    calls: Vec<CallEvent>,
}

/// Compound/plain assignment operators (the lexer merges `==`/`=>`
/// into distinct tokens, so a bare `=` really assigns).
const ASSIGN_OPS: [&str; 11] = [
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

/// Container methods treated as writes to their receiver field.
const MUTATORS: [&str; 6] = ["push", "insert", "remove", "clear", "extend", "pop"];

/// Scans one body, tracking block-scoped locksets. `guard_of` maps
/// callee names to the locks a guard-returning helper hands back.
fn scan_body(
    file: &ParsedFile,
    from: usize,
    to: usize,
    names: &mut LockNames,
    guard_of: &HashMap<String, LockSet>,
) -> BodyFacts {
    let toks = &file.toks;
    let hi = to.min(toks.len());
    let mut facts = BodyFacts::default();
    let mut frames: Vec<LockSet> = vec![LockSet::EMPTY];
    let mut stmt = LockSet::EMPTY;
    let mut stmt_start = from;
    let mut i = from;
    while i < hi {
        let t = &toks[i];
        match t.text.as_str() {
            "{" if t.kind == TokKind::Punct => {
                frames.push(LockSet::EMPTY);
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            "}" if t.kind == TokKind::Punct => {
                if frames.len() > 1 {
                    frames.pop();
                }
                stmt = LockSet::EMPTY;
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            ";" if t.kind == TokKind::Punct => {
                stmt = LockSet::EMPTY;
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            _ => {}
        }
        let held = frames.iter().fold(stmt, |a, f| a.union(*f));
        let stmt_is_let = toks.get(stmt_start).is_some_and(|t| t.is_ident("let"));
        // Guard acquisition: `.lock()` / `.read()` / `.write()`.
        if t.is(".")
            && toks
                .get(i + 1)
                .is_some_and(|t| ACQUIRE.contains(&t.text.as_str()))
            && toks.get(i + 2).is_some_and(|t| t.is("("))
            && toks.get(i + 3).is_some_and(|t| t.is(")"))
        {
            if let Some(lock) = receiver_path(file, from, i) {
                if let Some(bit) = names.bit(&lock) {
                    facts.acquired = facts.acquired.with(bit);
                    if stmt_is_let {
                        if let Some(top) = frames.last_mut() {
                            *top = top.with(bit);
                        }
                    } else {
                        stmt = stmt.with(bit);
                    }
                }
            }
            i += 4;
            continue;
        }
        // Call site: `name(` — records the callee and, for
        // guard-returning helpers, acquires their locks here.
        if t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|t| t.is("(")) {
            facts.calls.push(CallEvent {
                callee: t.text.clone(),
                locks: held,
            });
            if let Some(&fwd) = guard_of.get(&t.text) {
                if !fwd.is_empty() {
                    facts.acquired = facts.acquired.union(fwd);
                    if stmt_is_let {
                        if let Some(top) = frames.last_mut() {
                            *top = top.union(fwd);
                        }
                    } else {
                        stmt = stmt.union(fwd);
                    }
                }
            }
            i += 1;
            continue;
        }
        // Write site: `self.field =`, `self.field +=`, `self.field[…] =`,
        // or `self.field.push(…)`-style container mutation.
        if t.is_ident("self")
            && toks.get(i + 1).is_some_and(|t| t.is("."))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
        {
            let field = &toks[i + 2];
            let mut j = i + 3;
            if toks.get(j).is_some_and(|t| t.is("[")) {
                j = skip_group(toks, j);
            }
            let is_assign = toks
                .get(j)
                .is_some_and(|t| t.kind == TokKind::Punct && ASSIGN_OPS.contains(&t.text.as_str()));
            let is_mutator = toks.get(j).is_some_and(|t| t.is("."))
                && toks
                    .get(j + 1)
                    .is_some_and(|t| MUTATORS.contains(&t.text.as_str()))
                && toks.get(j + 2).is_some_and(|t| t.is("("));
            if is_assign || is_mutator {
                facts.writes.push(WriteEvent {
                    field: field.text.clone(),
                    line: field.line,
                    locks: held,
                });
            }
        }
        i += 1;
    }
    facts
}

/// The result of the lockset analysis: findings plus stats inputs.
pub(crate) struct LocksetResult {
    /// `(file index, finding)` pairs.
    pub findings: Vec<(usize, RuleFinding)>,
    /// Shared structs modeled (for `--stats`).
    pub shared_structs: usize,
    /// Call-graph SCC count (for `--stats`).
    pub sccs: usize,
}

/// Runs the full interprocedural lockset analysis over a prebuilt
/// shared-state model (built once, shared with the atomic-ordering
/// rule).
pub(crate) fn lockset_race(
    files: &[ParsedFile],
    graph: &CallGraph,
    model: &SharedModel,
) -> LocksetResult {
    let mut names = LockNames::default();
    let n = graph.nodes.len();
    // Eligibility: non-test library fns with bodies, outside crates/check.
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

    let succ = successors(graph);
    let cond = condense(n, &succ);

    // Pass A: local facts with no helper summaries.
    let empty_guards = HashMap::new();
    let mut facts: Vec<Option<BodyFacts>> = (0..n)
        .map(|ni| {
            if !eligible[ni] {
                return None;
            }
            let node = &graph.nodes[ni];
            let file = &files[node.file];
            let f = &file.fns[node.fn_idx];
            let (from, to) = f.body?;
            Some(scan_body(file, from, to, &mut names, &empty_guards))
        })
        .collect();

    // Bottom-up guard summaries over SCCs: a fn whose return type
    // mentions `Guard` hands its acquisitions (and those of the
    // guard-returning helpers it calls) to `let`-binding callers.
    let returns_guard: Vec<bool> = graph
        .nodes
        .iter()
        .map(|node| files[node.file].fns[node.fn_idx].ret.contains("Guard"))
        .collect();
    let mut guard_sets = vec![LockSet::EMPTY; n];
    for comp in &cond.comps {
        // Inner fixpoint: monotone (sets only grow) over a finite
        // lattice, so this terminates.
        loop {
            let mut changed = false;
            for &v in comp {
                if !returns_guard[v] || !eligible[v] {
                    continue;
                }
                let mut set = facts[v].as_ref().map(|f| f.acquired).unwrap_or(LockSet::EMPTY);
                for &w in &succ[v] {
                    set = set.union(guard_sets[w]);
                }
                if set != guard_sets[v] {
                    guard_sets[v] = set;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    let mut guard_of: HashMap<String, LockSet> = HashMap::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if guard_sets[ni].is_empty() {
            continue;
        }
        let name = &files[node.file].fns[node.fn_idx].name;
        let entry = guard_of.entry(name.clone()).or_insert(LockSet::EMPTY);
        *entry = entry.union(guard_sets[ni]);
    }

    // Pass B: final facts with guard-returning helpers resolved.
    if !guard_of.is_empty() {
        for (ni, slot) in facts.iter_mut().enumerate() {
            if slot.is_none() {
                continue;
            }
            let node = &graph.nodes[ni];
            let file = &files[node.file];
            let f = &file.fns[node.fn_idx];
            if let Some((from, to)) = f.body {
                *slot = Some(scan_body(file, from, to, &mut names, &guard_of));
            }
        }
    }

    // Observed call sites: callee name → (caller node, locks held).
    let mut fn_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        fn_by_name
            .entry(files[node.file].fns[node.fn_idx].name.as_str())
            .or_default()
            .push(ni);
    }
    let mut sites: Vec<Vec<(usize, LockSet)>> = vec![Vec::new(); n];
    for (ni, fact) in facts.iter().enumerate() {
        let Some(fact) = fact else { continue };
        for call in &fact.calls {
            if let Some(callees) = fn_by_name.get(call.callee.as_str()) {
                for &c in callees {
                    if c != ni {
                        sites[c].push((ni, call.locks));
                    }
                }
            }
        }
    }

    // Top-down entry locksets over the condensation (callers first =
    // reverse Tarjan order), with an inner fixpoint per component.
    let entry = entry_locksets(files, graph, &cond, &sites, &eligible);

    // Race check over shared plain fields.
    let mut findings = Vec::new();
    #[derive(Debug)]
    struct Site {
        node: usize,
        line: u32,
        effective: LockSet,
    }
    let mut by_field: HashMap<(usize, String), Vec<Site>> = HashMap::new();
    for (ni, fact) in facts.iter().enumerate() {
        let Some(fact) = fact else { continue };
        let node = &graph.nodes[ni];
        let f = &files[node.file].fns[node.fn_idx];
        if f.self_kind != SelfKind::Ref {
            continue; // `&mut self`/owned receivers are exclusive access
        }
        let Some(ty) = f.qual.rsplit("::").nth(1) else { continue };
        let Some(&si) = model.by_name.get(ty) else { continue };
        for w in &fact.writes {
            if !model.structs[si].plain.iter().any(|p| p == &w.field) {
                continue;
            }
            by_field.entry((si, w.field.clone())).or_default().push(Site {
                node: ni,
                line: w.line,
                effective: entry[ni].union(w.locks),
            });
        }
    }
    let mut keys: Vec<(usize, String)> = by_field.keys().cloned().collect();
    keys.sort();
    for key in keys {
        let sites = &by_field[&key];
        let s = &model.structs[key.0];
        let field = &key.1;
        let empties: Vec<&Site> = sites.iter().filter(|s| s.effective.is_empty()).collect();
        if !empties.is_empty() {
            for site in empties {
                let node = &graph.nodes[site.node];
                findings.push((
                    node.file,
                    RuleFinding {
                        rule: "lockset-race",
                        line: site.line,
                        message: format!(
                            "plain field `{field}` of shared struct `{}` ({}) \
                             is written in `&self` method `{}` with no lock \
                             held — a data race once the value crosses \
                             threads; guard the write with one of the \
                             struct's locks or make the field atomic",
                            s.name,
                            s.why,
                            files[node.file].fns[node.fn_idx].qual
                        ),
                    },
                ));
            }
            continue;
        }
        let consensus = sites
            .iter()
            .fold(LockSet::FULL, |a, s| a.inter(s.effective));
        if sites.len() > 1 && consensus.is_empty() {
            for site in sites {
                let node = &graph.nodes[site.node];
                findings.push((
                    node.file,
                    RuleFinding {
                        rule: "lockset-race",
                        line: site.line,
                        message: format!(
                            "plain field `{field}` of shared struct `{}` ({}) \
                             is written under inconsistent locksets — this \
                             site in `{}` holds {} but the intersection over \
                             all {} write sites is empty (Eraser lockset); \
                             pick one lock that protects `{field}` and hold \
                             it at every write",
                            s.name,
                            s.why,
                            files[node.file].fns[node.fn_idx].qual,
                            names.render(site.effective),
                            sites.len()
                        ),
                    },
                ));
            }
        }
    }

    LocksetResult {
        findings,
        shared_structs: model.structs.len(),
        sccs: cond.comps.len(),
    }
}

/// Entry-lockset propagation (step 3 of the module docs). Shared with
/// the `blocking-in-lock` rule, which feeds it its own call sites.
pub(crate) fn entry_locksets(
    files: &[ParsedFile],
    graph: &CallGraph,
    cond: &Condensation,
    sites: &[Vec<(usize, LockSet)>],
    eligible: &[bool],
) -> Vec<LockSet> {
    use super::outline::Vis;
    let n = graph.nodes.len();
    let mut entry = vec![LockSet::EMPTY; n];
    // Callers-first: Tarjan numbers callee components lower, so iterate
    // component ids downward. Seeding each component at FULL makes the
    // inner fixpoint monotone-decreasing (the transfer is an
    // intersection), so it terminates.
    for comp in cond.comps.iter().rev() {
        for &v in comp {
            if eligible[v] {
                entry[v] = LockSet::FULL;
            }
        }
        loop {
            let mut changed = false;
            for &v in comp {
                if !eligible[v] {
                    continue;
                }
                let node = &graph.nodes[v];
                let f = &files[node.file].fns[node.fn_idx];
                // Externally callable or never observed called: no locks
                // can be assumed at entry.
                let new = if f.vis == Vis::Pub || f.in_trait_impl || sites[v].is_empty() {
                    LockSet::EMPTY
                } else {
                    sites[v]
                        .iter()
                        .fold(LockSet::FULL, |acc, &(caller, held)| {
                            // Tarjan numbers callee components lower, so a
                            // cross-component caller was already finalized.
                            debug_assert!(cond.comp_of[caller] >= cond.comp_of[v]);
                            acc.inter(entry[caller].union(held))
                        })
                };
                if new != entry[v] {
                    entry[v] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(&PathBuf::from("crates/x/src/demo.rs"), FileKind::Lib, src)
    }

    fn run(src: &str) -> Vec<String> {
        let files = [parse(src)];
        let graph = CallGraph::build(&files);
        let model = SharedModel::build(&files);
        lockset_race(&files, &graph, &model)
            .findings
            .into_iter()
            .map(|(_, f)| f.message)
            .collect()
    }

    #[test]
    fn consistent_lock_is_clean() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, hits: u64 }\n\
             impl S {\n\
               fn a(&self) { let _g = self.m.lock(); self.hits += 1; }\n\
               fn b(&self) { let _g = self.m.lock(); self.hits += 1; }\n\
             }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn unlocked_write_is_flagged() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, hits: u64 }\n\
             impl S { fn a(&self) { self.hits += 1; } }\n",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("no lock held"));
    }

    #[test]
    fn inconsistent_locksets_are_flagged() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, n: Mutex<u64>, hits: u64 }\n\
             impl S {\n\
               fn a(&self) { let _g = self.m.lock(); self.hits += 1; }\n\
               fn b(&self) { let _g = self.n.lock(); self.hits += 1; }\n\
             }\n",
        );
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs.iter().all(|m| m.contains("inconsistent locksets")));
    }

    #[test]
    fn entry_locksets_flow_into_private_helpers() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, hits: u64 }\n\
             impl S {\n\
               fn helper(&self) { self.hits += 1; }\n\
               fn a(&self) { let _g = self.m.lock(); self.helper(); }\n\
               fn b(&self) { let _g = self.m.lock(); self.helper(); }\n\
             }\n",
        );
        assert!(msgs.is_empty(), "helper is always called locked: {msgs:?}");
    }

    #[test]
    fn unlocked_caller_breaks_the_helper_entry_set() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, hits: u64 }\n\
             impl S {\n\
               fn helper(&self) { self.hits += 1; }\n\
               fn a(&self) { let _g = self.m.lock(); self.helper(); }\n\
               fn b(&self) { self.helper(); }\n\
             }\n",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("no lock held"));
    }

    #[test]
    fn guard_returning_helper_counts_as_acquisition() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, hits: u64 }\n\
             impl S {\n\
               fn guard(&self) -> MutexGuard<u64> { self.m.lock() }\n\
               fn a(&self) { let _g = self.guard(); self.hits += 1; }\n\
               fn b(&self) { let _g = self.guard(); self.hits += 1; }\n\
             }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn mut_self_writes_are_exclusive_access() {
        let msgs = run(
            "pub struct S { m: Mutex<u64>, hits: u64 }\n\
             impl S { pub fn a(&mut self) { self.hits += 1; } }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn unshared_structs_are_ignored() {
        let msgs = run(
            "pub struct Plain { hits: u64 }\n\
             impl Plain { fn a(&self) { self.hits += 1; } }\n",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn arc_wrapping_makes_a_struct_shared() {
        let msgs = run(
            "pub struct P { hits: u64 }\n\
             impl P { fn a(&self) { self.hits += 1; } }\n\
             pub fn share() -> Arc<P> { Arc::new(P { hits: 0 }) }\n",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("wrapped in Arc"));
    }
}
