//! Item/expression outline parser.
//!
//! A deliberately partial Rust parser: enough structure for the semantic
//! rules — item declarations with visibility, function signatures with
//! typed parameter lists, brace-matched body token ranges, and the
//! impl/trait/module context each function lives in — without attempting
//! expression trees. Function bodies stay flat token ranges; the rules
//! walk them with operator/operand scans (see [`super::rules`]).
//!
//! The parser is resilient by construction: anything it does not
//! recognize it skips token-by-token, so exotic syntax degrades to
//! "no structure extracted here" instead of a parse error — the right
//! failure mode for an advisory analyzer.

use std::path::{Path, PathBuf};

use super::lexer::{mask_code, skip_generics, skip_group, tokenize, Tok, TokKind};
use super::FileKind;

/// Item visibility (only the analyzer-relevant distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Vis {
    /// `pub` — visible outside the crate.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — crate-internal.
    Crate,
    /// No modifier.
    Private,
}

/// Kinds of module-level declarations tracked by the symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeclKind {
    /// Free function at module level.
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait`.
    Trait,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// `type` alias.
    TypeAlias,
}

/// A module-level declaration (symbol-table candidate).
#[derive(Debug, Clone)]
pub(crate) struct ItemDecl {
    /// Declaration kind.
    pub kind: DeclKind,
    /// Simple name.
    pub name: String,
    /// Visibility.
    pub vis: Vis,
    /// 1-based line of the declaring keyword.
    pub line: u32,
    /// `true` when declared under `#[cfg(test)]` (or `#[test]`).
    pub is_test: bool,
}

/// A function (free, inherent method, trait method, or trait-impl method).
#[derive(Debug, Clone)]
pub(crate) struct FnDecl {
    /// Simple name.
    pub name: String,
    /// Qualified display name: `Type::name` inside impls, `name` at
    /// module level, prefixed by nested module names.
    pub qual: String,
    /// Visibility of the `fn` itself.
    pub vis: Vis,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `(pattern, type-text)` for each non-`self` parameter.
    pub params: Vec<(String, String)>,
    /// Token range of the body, *excluding* the outer braces; `None` for
    /// bodyless trait-method signatures.
    pub body: Option<(usize, usize)>,
    /// `true` for methods inside `impl Trait for Type` blocks.
    pub in_trait_impl: bool,
    /// `true` under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
    /// `true` when annotated `#[cold]` — the hot-path rule trusts the
    /// same hint the compiler uses and does not descend into these.
    pub is_cold: bool,
}

/// One parsed file: tokens plus the extracted outline.
#[derive(Debug)]
pub(crate) struct ParsedFile {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// Build classification (decides which rules run).
    pub kind: FileKind,
    /// The full token stream of the comment/string-masked source.
    pub toks: Vec<Tok>,
    /// Every function with a parsed signature.
    pub fns: Vec<FnDecl>,
    /// Module-level declarations.
    pub items: Vec<ItemDecl>,
}

impl ParsedFile {
    /// Parses one file's source.
    pub fn parse(path: &Path, kind: FileKind, source: &str) -> ParsedFile {
        let toks = tokenize(&mask_code(source));
        let mut out = ParsedFile {
            path: path.to_path_buf(),
            kind,
            toks,
            fns: Vec::new(),
            items: Vec::new(),
        };
        let end = out.toks.len();
        let mut p = Parser {
            file: &mut out,
            ctx: Ctx {
                type_name: None,
                in_trait_impl: false,
                in_test: false,
                modules: Vec::new(),
            },
        };
        p.items(0, end);
        out
    }
}

#[derive(Clone)]
struct Ctx {
    /// Enclosing impl/trait type name, if any.
    type_name: Option<String>,
    in_trait_impl: bool,
    in_test: bool,
    modules: Vec<String>,
}

struct Parser<'f> {
    file: &'f mut ParsedFile,
    ctx: Ctx,
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.file.toks.get(i)
    }

    /// Parses the item sequence in `[from, to)`.
    fn items(&mut self, from: usize, to: usize) {
        let mut i = from;
        let mut vis = Vis::Private;
        let mut attr_test = false;
        let mut attr_cold = false;
        while i < to {
            let Some(t) = self.tok(i) else { break };
            let text = t.text.clone();
            match (t.kind, text.as_str()) {
                (TokKind::Punct, "#") => {
                    // Attribute: `#[…]` or `#![…]`; detect test markers.
                    let mut j = i + 1;
                    if self.tok(j).is_some_and(|t| t.is("!")) {
                        j += 1;
                    }
                    if self.tok(j).is_some_and(|t| t.is("[")) {
                        let end = skip_group(&self.file.toks, j);
                        let body: Vec<&str> = self.file.toks[j..end]
                            .iter()
                            .map(|t| t.text.as_str())
                            .collect();
                        if body.windows(4).any(|w| w == ["cfg", "(", "test", ")"])
                            || body.get(1).copied() == Some("test")
                        {
                            attr_test = true;
                        }
                        if body.get(1).copied() == Some("cold") {
                            attr_cold = true;
                        }
                        i = end;
                    } else {
                        i = j;
                    }
                }
                (TokKind::Ident, "pub") => {
                    vis = Vis::Pub;
                    i += 1;
                    if self.tok(i).is_some_and(|t| t.is("(")) {
                        vis = Vis::Crate;
                        i = skip_group(&self.file.toks, i);
                    }
                }
                // Modifier keywords that may precede `fn`.
                (TokKind::Ident, "const" | "static")
                    if !self.tok(i + 1).is_some_and(|t| t.is_ident("fn")) =>
                {
                    let kind = if text == "const" {
                        DeclKind::Const
                    } else {
                        DeclKind::Static
                    };
                    // `const NAME: T = …;` (skip `mut` for statics).
                    let mut j = i + 1;
                    if self.tok(j).is_some_and(|t| t.is_ident("mut")) {
                        j += 1;
                    }
                    if let Some(name) = self.tok(j).filter(|t| t.kind == TokKind::Ident) {
                        if name.text != "_" {
                            let decl = ItemDecl {
                                kind,
                                name: name.text.clone(),
                                vis,
                                line: name.line,
                                is_test: self.ctx.in_test || attr_test,
                            };
                            self.push_item(decl);
                        }
                    }
                    i = self.skip_to_semi(j, to);
                    (vis, attr_test, attr_cold) = (Vis::Private, false, false);
                }
                (TokKind::Ident, "unsafe" | "async" | "extern" | "default") => i += 1,
                (TokKind::Ident, "fn") => {
                    i = self.function(i, to, vis, attr_test, attr_cold);
                    (vis, attr_test, attr_cold) = (Vis::Private, false, false);
                }
                (TokKind::Ident, "struct" | "enum" | "union" | "trait") => {
                    i = self.type_like(i, to, &text, vis, attr_test);
                    (vis, attr_test, attr_cold) = (Vis::Private, false, false);
                }
                (TokKind::Ident, "impl") => {
                    i = self.impl_block(i, to, attr_test);
                    (vis, attr_test, attr_cold) = (Vis::Private, false, false);
                }
                (TokKind::Ident, "mod") => {
                    i = self.module(i, to, attr_test);
                    (vis, attr_test, attr_cold) = (Vis::Private, false, false);
                }
                (TokKind::Ident, "type") => {
                    if let Some(name) = self.tok(i + 1).filter(|t| t.kind == TokKind::Ident) {
                        let decl = ItemDecl {
                            kind: DeclKind::TypeAlias,
                            name: name.text.clone(),
                            vis,
                            line: name.line,
                            is_test: self.ctx.in_test || attr_test,
                        };
                        self.push_item(decl);
                    }
                    i = self.skip_to_semi(i + 1, to);
                    (vis, attr_test, attr_cold) = (Vis::Private, false, false);
                }
                (TokKind::Ident, "use") => {
                    i = self.skip_to_semi(i + 1, to);
                    (vis, attr_test, attr_cold) = (Vis::Private, false, false);
                }
                (TokKind::Ident, "macro_rules") => {
                    // `macro_rules! name { … }`
                    let mut j = i + 1;
                    while j < to && !self.tok(j).is_some_and(|t| t.is("{")) {
                        j += 1;
                    }
                    i = skip_group(&self.file.toks, j);
                    (vis, attr_test, attr_cold) = (Vis::Private, false, false);
                }
                (TokKind::Punct, "{") => {
                    // Stray block (e.g. inside macro bodies): skip whole.
                    i = skip_group(&self.file.toks, i);
                }
                _ => {
                    i += 1;
                    (vis, attr_test) = (vis, attr_test);
                }
            }
        }
    }

    fn push_item(&mut self, decl: ItemDecl) {
        // Only module-level declarations (not trait members) feed the
        // symbol table; trait bodies set `type_name`.
        if self.ctx.type_name.is_none() {
            self.file.items.push(decl);
        }
    }

    fn skip_to_semi(&self, mut i: usize, to: usize) -> usize {
        while i < to {
            match self.tok(i) {
                Some(t) if t.is(";") => return i + 1,
                Some(t) if t.is("{") => return skip_group(&self.file.toks, i),
                Some(t) if t.is("(") || t.is("[") => i = skip_group(&self.file.toks, i),
                Some(_) => i += 1,
                None => break,
            }
        }
        to
    }

    /// Parses `fn name …` starting at the `fn` keyword; returns the index
    /// past the item.
    fn function(
        &mut self,
        at: usize,
        to: usize,
        vis: Vis,
        attr_test: bool,
        attr_cold: bool,
    ) -> usize {
        let toks_len = self.file.toks.len();
        let Some(name_tok) = self.tok(at + 1).filter(|t| t.kind == TokKind::Ident) else {
            return at + 1;
        };
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let mut i = at + 2;
        if self.tok(i).is_some_and(|t| t.is("<")) {
            i = skip_generics(&self.file.toks, i);
        }
        // Parameter list.
        let mut params = Vec::new();
        if self.tok(i).is_some_and(|t| t.is("(")) {
            let close = skip_group(&self.file.toks, i);
            params = self.params(i + 1, close.saturating_sub(1));
            i = close;
        }
        // Return type / where clause: scan to the body `{` or a `;`.
        let mut body = None;
        while i < to.min(toks_len) {
            match self.tok(i) {
                Some(t) if t.is(";") => {
                    i += 1;
                    break;
                }
                Some(t) if t.is("{") => {
                    let close = skip_group(&self.file.toks, i);
                    body = Some((i + 1, close.saturating_sub(1)));
                    i = close;
                    break;
                }
                Some(t) if t.is("<") => i = skip_generics(&self.file.toks, i),
                Some(t) if t.is("(") || t.is("[") => i = skip_group(&self.file.toks, i),
                Some(_) => i += 1,
                None => break,
            }
        }
        let qual = match &self.ctx.type_name {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        };
        let qual = if self.ctx.modules.is_empty() {
            qual
        } else {
            format!("{}::{qual}", self.ctx.modules.join("::"))
        };
        let is_test = self.ctx.in_test || attr_test;
        if self.ctx.type_name.is_none() {
            self.file.items.push(ItemDecl {
                kind: DeclKind::Fn,
                name: name.clone(),
                vis,
                line,
                is_test,
            });
        }
        self.file.fns.push(FnDecl {
            name,
            qual,
            vis,
            line,
            params,
            body,
            in_trait_impl: self.ctx.in_trait_impl,
            is_test,
            is_cold: attr_cold,
        });
        i
    }

    /// Parses a parameter list token range into `(pattern, type)` pairs.
    fn params(&self, from: usize, to: usize) -> Vec<(String, String)> {
        let toks = &self.file.toks;
        let mut out = Vec::new();
        let mut i = from;
        while i < to {
            // One parameter: pattern tokens until a depth-0 `:`, then type
            // tokens until a depth-0 `,`.
            let mut pat = Vec::new();
            while i < to && !toks[i].is(":") && !toks[i].is(",") {
                if toks[i].is("(") || toks[i].is("[") {
                    i = skip_group(toks, i);
                    pat.clear(); // tuple patterns: not a simple name
                    continue;
                }
                pat.push(toks[i].text.clone());
                i += 1;
            }
            if i >= to || toks[i].is(",") {
                i += 1;
                continue; // `self`, `&mut self`, …
            }
            i += 1; // past ':'
            let mut ty = String::new();
            while i < to && !toks[i].is(",") {
                if toks[i].is("<") {
                    let close = skip_generics(toks, i);
                    for t in &toks[i..close.min(to)] {
                        ty.push_str(&t.text);
                    }
                    i = close;
                    continue;
                }
                if toks[i].is("(") || toks[i].is("[") {
                    let close = skip_group(toks, i);
                    for t in &toks[i..close.min(to)] {
                        ty.push_str(&t.text);
                    }
                    i = close;
                    continue;
                }
                ty.push_str(&toks[i].text);
                i += 1;
            }
            i += 1; // past ','
            let name = pat
                .iter()
                .rev()
                .find(|p| {
                    p.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
                        && !matches!(p.as_str(), "mut" | "ref")
                })
                .cloned();
            if let Some(name) = name {
                out.push((name, ty));
            }
        }
        out
    }

    /// Parses `struct`/`enum`/`union`/`trait` starting at the keyword.
    fn type_like(&mut self, at: usize, to: usize, kw: &str, vis: Vis, attr_test: bool) -> usize {
        let Some(name_tok) = self.tok(at + 1).filter(|t| t.kind == TokKind::Ident) else {
            return at + 1;
        };
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let kind = match kw {
            "struct" | "union" => DeclKind::Struct,
            "enum" => DeclKind::Enum,
            _ => DeclKind::Trait,
        };
        self.push_item(ItemDecl {
            kind,
            name: name.clone(),
            vis,
            line,
            is_test: self.ctx.in_test || attr_test,
        });
        let mut i = at + 2;
        if self.tok(i).is_some_and(|t| t.is("<")) {
            i = skip_generics(&self.file.toks, i);
        }
        // Find the body `{` (or `;` / `(` for unit & tuple structs).
        while i < to {
            match self.tok(i) {
                Some(t) if t.is(";") => return i + 1,
                Some(t) if t.is("(") => {
                    i = skip_group(&self.file.toks, i);
                }
                Some(t) if t.is("{") => {
                    let close = skip_group(&self.file.toks, i);
                    if kind == DeclKind::Trait {
                        // Default/required methods live here.
                        let saved = self.ctx.clone();
                        self.ctx.type_name = Some(name);
                        self.ctx.in_test |= attr_test;
                        self.items(i + 1, close.saturating_sub(1));
                        self.ctx = saved;
                    }
                    return close;
                }
                Some(_) => i += 1,
                None => break,
            }
        }
        to
    }

    /// Parses an `impl` block starting at the keyword.
    fn impl_block(&mut self, at: usize, to: usize, attr_test: bool) -> usize {
        let toks_len = self.file.toks.len();
        let mut i = at + 1;
        if self.tok(i).is_some_and(|t| t.is("<")) {
            i = skip_generics(&self.file.toks, i);
        }
        // Header path segments until `{`; remember whether ` for ` occurs
        // and the last path segment seen before the brace (the type).
        let mut is_trait_impl = false;
        let mut last_segment = None;
        while i < to.min(toks_len) {
            match self.tok(i) {
                Some(t) if t.is("{") => break,
                Some(t) if t.is(";") => return i + 1,
                Some(t) if t.is("<") => {
                    i = skip_generics(&self.file.toks, i);
                    continue;
                }
                Some(t) if t.is("(") => {
                    i = skip_group(&self.file.toks, i);
                    continue;
                }
                Some(t) if t.is_ident("for") => {
                    is_trait_impl = true;
                    last_segment = None;
                    i += 1;
                }
                Some(t) if t.kind == TokKind::Ident && t.text != "where" && t.text != "dyn" => {
                    last_segment = Some(t.text.clone());
                    i += 1;
                }
                Some(_) => i += 1,
                None => break,
            }
        }
        if !self.tok(i).is_some_and(|t| t.is("{")) {
            return i;
        }
        let close = skip_group(&self.file.toks, i);
        let saved = self.ctx.clone();
        self.ctx.type_name = last_segment.or(Some("impl".to_owned()));
        self.ctx.in_trait_impl = is_trait_impl;
        self.ctx.in_test |= attr_test;
        self.items(i + 1, close.saturating_sub(1));
        self.ctx = saved;
        close
    }

    /// Parses `mod name { … }` / `mod name;`.
    fn module(&mut self, at: usize, to: usize, attr_test: bool) -> usize {
        let Some(name_tok) = self.tok(at + 1).filter(|t| t.kind == TokKind::Ident) else {
            return at + 1;
        };
        let name = name_tok.text.clone();
        let mut i = at + 2;
        if self.tok(i).is_some_and(|t| t.is(";")) {
            return i + 1;
        }
        while i < to && !self.tok(i).is_some_and(|t| t.is("{")) {
            i += 1;
        }
        if i >= to {
            return to;
        }
        let close = skip_group(&self.file.toks, i);
        let saved = self.ctx.clone();
        let test_mod = attr_test || name == "tests" || name == "test";
        self.ctx.modules.push(name);
        self.ctx.in_test |= test_mod;
        self.items(i + 1, close.saturating_sub(1));
        self.ctx = saved;
        close
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse(Path::new("crates/x/src/demo.rs"), FileKind::Lib, src)
    }

    #[test]
    fn extracts_free_and_method_fns() {
        let f = parse(
            "pub fn walk(pt: &mut PageTable, va: VirtAddr) -> u64 { va.raw() }\n\
             impl MixTlb {\n  fn set_of(&self, vpn: Vpn) -> usize { 0 }\n}\n\
             impl TlbDevice for MixTlb {\n  fn flush(&mut self) {}\n}\n",
        );
        let quals: Vec<&str> = f.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["walk", "MixTlb::set_of", "MixTlb::flush"]);
        assert_eq!(f.fns[0].vis, Vis::Pub);
        assert_eq!(
            f.fns[0].params,
            [
                ("pt".to_owned(), "&mutPageTable".to_owned()),
                ("va".to_owned(), "VirtAddr".to_owned()),
            ]
        );
        assert!(f.fns[2].in_trait_impl);
        assert!(f.fns[0].body.is_some());
    }

    #[test]
    fn marks_test_code() {
        let f = parse(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() {}\n}\n",
        );
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
        assert_eq!(f.fns[1].qual, "tests::t");
    }

    #[test]
    fn collects_module_level_items() {
        let f = parse(
            "pub struct A(u64);\npub(crate) enum B { X }\nconst C: u64 = 3;\n\
             pub trait T { fn m(&self); }\npub type D = u64;\nstatic S: u64 = 0;\n",
        );
        let names: Vec<(&str, DeclKind, Vis)> = f
            .items
            .iter()
            .map(|i| (i.name.as_str(), i.kind, i.vis))
            .collect();
        assert_eq!(
            names,
            [
                ("A", DeclKind::Struct, Vis::Pub),
                ("B", DeclKind::Enum, Vis::Crate),
                ("C", DeclKind::Const, Vis::Private),
                ("T", DeclKind::Trait, Vis::Pub),
                ("D", DeclKind::TypeAlias, Vis::Pub),
                ("S", DeclKind::Static, Vis::Private),
            ]
        );
        // The trait method is parsed as a fn but not a module-level item.
        assert!(f.fns.iter().any(|x| x.qual == "T::m" && x.body.is_none()));
    }

    #[test]
    fn const_fn_is_a_fn() {
        let f = parse("pub const fn shift(self) -> u32 { 12 }\n");
        assert_eq!(f.items.len(), 1);
        assert_eq!(f.items[0].kind, DeclKind::Fn);
        assert_eq!(f.fns[0].name, "shift");
    }

    #[test]
    fn generics_in_signatures_do_not_derail() {
        let f = parse(
            "pub fn collect<T: Into<Vec<u8>>>(xs: Vec<T>, n: usize) -> Vec<u8> { xs.pop() }\n\
             fn after() {}\n",
        );
        let names: Vec<&str> = f.fns.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["collect", "after"]);
        assert_eq!(f.fns[0].params.len(), 2);
    }

    #[test]
    fn captures_cold_attr() {
        let f = parse(
            "fn guard(&self) -> MutexGuard<'_, u64> { self.m.lock() }\n\
             #[cold]\nfn fault(n: u64) -> io::Error { panic!() }\n\
             fn plain() {}\n",
        );
        assert!(!f.fns[0].is_cold);
        assert!(f.fns[1].is_cold, "#[cold] must be captured");
        assert!(!f.fns[2].is_cold, "#[cold] must not leak to the next fn");
    }
}
