//! Per-function semantic rules.
//!
//! Both file-local rules share one body-scanning toolkit built on the
//! outline parser's token ranges:
//!
//! * **`addr-arith`** — address-arithmetic taint. `.raw()` called on an
//!   address-typed value (a parameter typed `Vpn`/`Pfn`/`VirtAddr`/
//!   `PhysAddr`, a field named like one, or a local bound from such a
//!   call) yields a *raw* untyped integer; shifting, masking or dividing
//!   that integer re-implements page geometry by hand. The typed helpers
//!   in `mixtlb-types` (`table_index`, `page_number`, `align_down_pages`,
//!   `index_bits`, `chunk_index`, `pte_address`, `line_index`) exist so
//!   geometry lives in one audited place; this rule points violators at
//!   them. Taint is *escape-based*: values that stay inside typed
//!   accessors never taint, so `vpn.table_index(level) & mask` on the
//!   resulting plain index is fine — only the raw address bits are hot.
//! * **`truncating-cast`** — `as u8`/`as u16`/`as u32` applied to a
//!   raw-tainted expression silently drops high address bits; the fix is
//!   `u32::try_from(..)` (or staying in the typed domain).
//!
//! Rules are syntactic and advisory by design — no type inference, no
//! data-flow joins — and they bias toward false negatives: a finding
//! should always be worth reading.

use std::collections::HashSet;

use super::lexer::{skip_group, Tok, TokKind};
use super::outline::{FnDecl, ParsedFile};
use super::FileKind;

/// A rule hit inside one file (path added by the driver).
#[derive(Debug, Clone)]
pub(crate) struct RuleFinding {
    /// Rule identifier.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Explanation and suggested fix.
    pub message: String,
}

/// Address types whose parameters seed taint.
const ADDR_TYPES: [&str; 4] = ["Vpn", "Pfn", "VirtAddr", "PhysAddr"];
/// Field/variable names treated as address-typed by convention.
const ADDR_FIELDS: [&str; 6] = ["vpn", "pfn", "va", "pa", "gpa", "gva"];
/// Binary operators that re-implement geometry when fed raw bits.
const ARITH_OPS: [&str; 12] = [
    "<<", ">>", "&", "|", "/", "%", "<<=", ">>=", "&=", "|=", "/=", "%=",
];
/// Truncating cast targets.
const NARROW: [&str; 3] = ["u8", "u16", "u32"];

/// Runs every file-local rule over one parsed library file.
pub(crate) fn file_rules(file: &ParsedFile) -> Vec<RuleFinding> {
    let mut out = Vec::new();
    if file.kind != FileKind::Lib {
        return out;
    }
    if file.path.iter().any(|c| c == "types") {
        return out;
    }
    for f in &file.fns {
        if f.is_test {
            continue;
        }
        let Some((from, to)) = f.body else { continue };
        taint_rules(file, f, from, to, &mut out);
    }
    out.sort_by_key(|f| f.line);
    out
}

// ---------------------------------------------------------------------------
// addr-arith + truncating-cast (shared taint machinery)
// ---------------------------------------------------------------------------

/// Runs the two raw-taint rules over one function body.
fn taint_rules(
    file: &ParsedFile,
    f: &FnDecl,
    from: usize,
    to: usize,
    out: &mut Vec<RuleFinding>,
) {
    let toks = &file.toks;
    let to = to.min(toks.len());
    // Seed: parameters with address types.
    let mut addr_names: HashSet<&str> = f
        .params
        .iter()
        .filter(|(_, ty)| ADDR_TYPES.iter().any(|t| ty.contains(t)))
        .map(|(name, _)| name.as_str())
        .collect();
    addr_names.extend(ADDR_FIELDS);
    // Raw-tainted locals: `let x = <expr containing a tainted .raw()>;`.
    let mut raw_names: HashSet<String> = HashSet::new();
    let mut i = from;
    while i < to {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let name = toks.get(j).filter(|t| t.kind == TokKind::Ident).cloned();
            if let Some(name) = name {
                if toks.get(j + 1).is_some_and(|t| t.is("=")) {
                    let end = init_end(toks, j + 2, to);
                    if has_raw_taint(toks, j + 2, end, &addr_names, &raw_names) {
                        raw_names.insert(name.text);
                    }
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    // Closure parameter bars: `|x| …` — the opening `|` follows a
    // non-expression token, and its closer is the next top-level `|`.
    // Both are delimiters, not binary ORs, and must not be flagged
    // (`.and_then(|h| h.translate(va.raw()))` pipes are not masks).
    let mut closure_bars: HashSet<usize> = HashSet::new();
    let mut j = from;
    while j < to {
        if toks[j].is("|") && !closure_bars.contains(&j) && (j == 0 || !toks[j - 1].ends_expr())
        {
            closure_bars.insert(j);
            let mut k = j + 1;
            while k < to && !toks[k].is("|") {
                if toks[k].is("(") || toks[k].is("[") || toks[k].is("{") {
                    k = skip_group(toks, k);
                } else {
                    k += 1;
                }
            }
            closure_bars.insert(k);
        }
        j += 1;
    }
    // addr-arith: a raw-tainted operand next to a geometry operator.
    for j in from..to {
        if !(toks[j].kind == TokKind::Punct && ARITH_OPS.contains(&toks[j].text.as_str())) {
            continue;
        }
        // Binary position only: the previous token must end an expression
        // (rules out `&x` references and generic brackets).
        if j == 0 || !toks[j - 1].ends_expr() || closure_bars.contains(&j) {
            continue;
        }
        let ls = primary_start(toks, from, j);
        let re = primary_end(toks, j + 1, to);
        let tainted = has_raw_taint(toks, ls, j, &addr_names, &raw_names)
            || has_raw_taint(toks, j + 1, re, &addr_names, &raw_names);
        if tainted {
            out.push(RuleFinding {
                rule: "addr-arith",
                line: toks[j].line,
                message: format!(
                    "raw address bits fed to `{}` in `{}` — route the geometry \
                     through a typed `mixtlb-types` helper (`table_index`, \
                     `page_number`, `align_down_pages`, `index_bits`, \
                     `chunk_index`, `pte_address`, `line_index`) instead of \
                     open-coding shifts/masks on `.raw()` values",
                    toks[j].text, f.qual
                ),
            });
        }
    }
    // truncating-cast: `<raw-tainted> as u8|u16|u32`.
    for j in from..to {
        if !toks[j].is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(j + 1).filter(|t| NARROW.contains(&t.text.as_str()))
        else {
            continue;
        };
        let ls = primary_start(toks, from, j);
        if has_raw_taint(toks, ls, j, &addr_names, &raw_names) {
            out.push(RuleFinding {
                rule: "truncating-cast",
                line: toks[j].line,
                message: format!(
                    "`as {}` truncates a raw address value in `{}` — use \
                     `{}::try_from(..)` (or keep the value in its typed \
                     accessor domain) so overflow is a checked error, not \
                     silent bit loss",
                    target.text, f.qual, target.text
                ),
            });
        }
    }
}

/// End (exclusive) of a `let` initializer starting at `i`: the `;` at
/// nesting depth 0, groups skipped.
fn init_end(toks: &[Tok], mut i: usize, to: usize) -> usize {
    while i < to {
        match toks[i].text.as_str() {
            ";" => return i,
            "(" | "[" | "{" => i = skip_group(toks, i),
            _ => i += 1,
        }
    }
    to
}

/// Does `[from, to)` contain a raw-taint source: `.raw()` on an
/// address-typed receiver, or a raw-tainted local name?
fn has_raw_taint(
    toks: &[Tok],
    from: usize,
    to: usize,
    addr_names: &HashSet<&str>,
    raw_names: &HashSet<String>,
) -> bool {
    let to = to.min(toks.len());
    for i in from..to {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if raw_names.contains(&toks[i].text) {
            return true;
        }
        let is_raw_call = toks[i].text == "raw"
            && i > 0
            && toks[i - 1].is(".")
            && toks.get(i + 1).is_some_and(|t| t.is("("))
            && toks.get(i + 2).is_some_and(|t| t.is(")"));
        if is_raw_call && receiver_is_addr(toks, from, i - 1, addr_names) {
            return true;
        }
    }
    false
}

/// Walks the receiver chain leftward from the `.` at `dot` and reports
/// whether any chain identifier is address-typed/-named.
fn receiver_is_addr(toks: &[Tok], floor: usize, dot: usize, addr_names: &HashSet<&str>) -> bool {
    let start = primary_start(toks, floor, dot);
    toks[start..dot]
        .iter()
        .any(|t| t.kind == TokKind::Ident && addr_names.contains(t.text.as_str()))
}

/// Start index of the primary expression ending just before `end`
/// (postfix chains of idents/literals, `.`/`::` separators, and balanced
/// groups). Tolerant: stops at anything unrecognized.
fn primary_start(toks: &[Tok], floor: usize, end: usize) -> usize {
    let mut i = end;
    loop {
        // Postfix groups: `f(x)`, `xs[i]`, `(a + b)`.
        while i > floor && (toks[i - 1].is(")") || toks[i - 1].is("]")) {
            i = open_backward(toks, floor, i - 1);
        }
        if i > floor && matches!(toks[i - 1].kind, TokKind::Ident | TokKind::Lit) {
            i -= 1;
        } else {
            return i;
        }
        if i > floor && (toks[i - 1].is(".") || toks[i - 1].is("::")) {
            i -= 1;
        } else {
            return i;
        }
    }
}

/// Index of the opening delimiter matching the closer at `close`.
fn open_backward(toks: &[Tok], floor: usize, close: usize) -> usize {
    let mut depth = 0i64;
    let mut i = close;
    loop {
        match toks[i].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        if i == floor {
            return i;
        }
        i -= 1;
    }
}

/// End (exclusive) of the primary expression starting at `start`
/// (prefix operators, then an atom with its postfix chain).
fn primary_end(toks: &[Tok], start: usize, ceil: usize) -> usize {
    let mut i = start;
    while i < ceil
        && (toks[i].is("&") || toks[i].is("*") || toks[i].is("-") || toks[i].is("!")
            || toks[i].is_ident("mut"))
    {
        i += 1;
    }
    loop {
        if i >= ceil {
            return i;
        }
        // Atom.
        if toks[i].is("(") || toks[i].is("[") {
            i = skip_group(toks, i);
        } else if matches!(toks[i].kind, TokKind::Ident | TokKind::Lit) {
            i += 1;
        } else {
            return i;
        }
        // Postfix: calls, indexing, `?`, then `.`/`::` continuation.
        loop {
            if i < ceil && (toks[i].is("(") || toks[i].is("[")) {
                i = skip_group(toks, i);
            } else if i < ceil && toks[i].is("?") {
                i += 1;
            } else {
                break;
            }
        }
        if i < ceil && (toks[i].is(".") || toks[i].is("::")) {
            i += 1;
        } else {
            return i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn findings(src: &str) -> Vec<RuleFinding> {
        let f = ParsedFile::parse(&PathBuf::from("crates/x/src/demo.rs"), FileKind::Lib, src);
        file_rules(&f)
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        findings(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn raw_shift_on_typed_param_is_flagged() {
        let r = rules_of("fn set_of(vpn: Vpn) -> usize { (vpn.raw() >> 9) as usize }\n");
        assert_eq!(r, ["addr-arith"]);
    }

    #[test]
    fn taint_flows_through_lets() {
        let r = rules_of(
            "fn f(va: VirtAddr) -> u64 { let bits = va.raw(); bits & 0x1FF }\n",
        );
        assert_eq!(r, ["addr-arith"]);
    }

    #[test]
    fn typed_helper_results_are_clean() {
        let r = rules_of(
            "fn set_of(&self, vpn: Vpn) -> usize { (vpn.table_index(0)) & (self.sets - 1) }\n",
        );
        assert!(r.is_empty());
    }

    #[test]
    fn field_named_receivers_taint() {
        let r = rules_of("fn f(&self) -> u64 { self.vpn.raw() << 9 }\n");
        assert_eq!(r, ["addr-arith"]);
    }

    #[test]
    fn non_addr_raw_is_clean() {
        let r = rules_of("fn f(asid: Asid) -> u16 { asid.raw() & 0xFF }\n");
        assert!(r.is_empty());
    }

    #[test]
    fn truncating_cast_on_raw_value() {
        let r = rules_of("fn f(pfn: Pfn) -> u32 { pfn.raw() as u32 }\n");
        assert_eq!(r, ["truncating-cast"]);
        let clean = rules_of("fn f(n: usize) -> u32 { n as u32 }\n");
        assert!(clean.is_empty());
    }

    #[test]
    fn types_crate_is_exempt_from_taint_rules() {
        let f = ParsedFile::parse(
            Path::new("crates/types/src/page.rs"),
            FileKind::Lib,
            "fn table_index(vpn: Vpn, level: u8) -> usize { (vpn.raw() >> (9 * level)) as usize }\n",
        );
        assert!(file_rules(&f).is_empty());
    }

    #[test]
    fn closure_pipes_are_not_masks() {
        let r = rules_of(
            "fn f(gpa: PhysAddr) -> Option<u64> { lookup(gpa).and_then(|h| translate(gpa.raw())) }\n",
        );
        assert!(r.is_empty(), "closure bars flagged as OR: {r:?}");
        // A real binary OR on the raw value still fires.
        let dirty = rules_of("fn g(pa: PhysAddr) -> u64 { pa.raw() | 1 }\n");
        assert_eq!(dirty.len(), 1);
    }

    #[test]
    fn references_do_not_count_as_binary_masks() {
        // `&self.vpn` is a borrow, not a mask: previous token `(` does not
        // end an expression, so the `&` is unary and clean.
        let r = rules_of("fn f(&self) -> u64 { g(&self.vpn) }\n");
        assert!(r.is_empty());
    }
}
