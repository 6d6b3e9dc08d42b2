//! Value-range & known-bits abstract interpretation.
//!
//! The structural rules track names and calls but never *values* — which
//! is exactly how the pre-PR-8 `Asid::new(id as u16 + 1)` overflow
//! shipped. This module adds a small abstract domain and a
//! flow-sensitive evaluator over the outline parser's token stream, and
//! two value rules on top of it:
//!
//! * `bit-pack-overflow` — shift-or packing chains whose fields overlap,
//!   escape their slot, or exceed the carrier width;
//! * `tag-range` — values flowing into constructors of width-annotated
//!   tag types (`// bits: N` on the declaration) that may exceed the
//!   declared width.
//!
//! # Domain
//!
//! [`Val`] is an interval plus a known-bits mask: `Rng { lo, hi, bits }`
//! where `bits` over-approximates the bits that may be set (exact for
//! constants, `(1 << k) - 1` after `& mask`, shifted along with shifts).
//! `Top` is "any value". Everything unknown — fields, unannotated calls,
//! non-const shifts — evaluates to `Top`, and rules stay silent on `Top`
//! except where the whole point is provability (slot membership of a
//! non-top packing field). This is the same bias as the structural
//! rules: a finding must be worth reading, so definite ranges come only
//! from literals, casts, masks, modulo, `assert!` narrowing,
//! annotations, and computed summaries.
//!
//! # Interprocedural summaries
//!
//! Return ranges are computed bottom-up over the SCC condensation of the
//! call graph ([`super::dataflow::condense`]): each component is
//! iterated to a small fixpoint with widening (ranges that keep growing
//! jump to `Top`), and `// bits: N` on a `fn` overrides its computed
//! summary. Parameter ranges flow top-down in one pass: every call
//! site's argument values are joined per callee parameter, and trusted
//! only for non-`pub`, non-trait-impl functions (whose call sites are
//! all visible to the analyzer).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use super::callgraph::CallGraph;
use super::dataflow::{condense, successors};
use super::lexer::{skip_generics, skip_group, Tok, TokKind};
use super::outline::{DeclKind, ParsedFile, Vis};
use super::rules::RuleFinding;
use super::FileKind;

/// Compound assignment operators the statement walker models.
const ASSIGN_OPS: [&str; 10] = ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="];

/// Magnitude guard: ranges beyond ±2^100 collapse to `Top` so interval
/// arithmetic can never overflow `i128`.
const LIM: i128 = 1 << 100;

/// Abstract value: unknown, or an interval with a known-bits mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Val {
    /// Any value.
    Top,
    /// `lo..=hi` with `bits` over-approximating the possibly-set bits
    /// (meaningful for non-negative ranges; all-ones when `lo < 0`).
    Rng { lo: i128, hi: i128, bits: u128 },
}

/// Smallest all-ones mask covering every value in `0..=hi`.
fn bits_below(hi: i128) -> u128 {
    if hi <= 0 {
        0
    } else {
        let w = 128 - (hi as u128).leading_zeros();
        if w >= 128 { u128::MAX } else { (1u128 << w) - 1 }
    }
}

/// Bit length of a mask (position one past the highest set bit).
fn bit_len(bits: u128) -> u32 {
    128 - bits.leading_zeros()
}

impl Val {
    /// The constant `n` (exact bits).
    pub fn cst(n: i128) -> Val {
        Val::rng(n, n)
    }

    /// The interval `lo..=hi` with a conservative bits mask.
    pub fn rng(lo: i128, hi: i128) -> Val {
        if lo > hi || lo <= -LIM || hi >= LIM {
            return Val::Top;
        }
        let bits = if lo < 0 {
            u128::MAX
        } else if lo == hi {
            lo as u128
        } else {
            bits_below(hi)
        };
        Val::Rng { lo, hi, bits }
    }

    /// The interval `lo..=hi` with an explicit (tighter) bits mask.
    fn rng_bits(lo: i128, hi: i128, bits: u128) -> Val {
        match Val::rng(lo, hi) {
            Val::Rng { lo, hi, bits: b } => Val::Rng { lo, hi, bits: b & bits },
            Val::Top => Val::Top,
        }
    }

    /// The full range of an unsigned `width`-bit integer.
    fn unsigned(width: u32) -> Val {
        if width >= 100 {
            Val::Top
        } else {
            Val::rng_bits(0, (1i128 << width) - 1, (1u128 << width) - 1)
        }
    }

    /// Least upper bound.
    pub fn join(self, o: Val) -> Val {
        match (self, o) {
            (Val::Rng { lo: a, hi: b, bits: x }, Val::Rng { lo: c, hi: d, bits: y }) => {
                Val::rng_bits(a.min(c), b.max(d), x | y)
            }
            _ => Val::Top,
        }
    }

    /// Widening: keep `old` if `new` fits inside it, else give up. Used
    /// in the per-SCC fixpoint so recursive summaries terminate.
    fn widen(self, new: Val) -> Val {
        match (self, new) {
            (Val::Rng { lo: a, hi: b, .. }, Val::Rng { lo: c, hi: d, .. })
                if a <= c && d <= b =>
            {
                self
            }
            _ if self == new => self,
            _ => Val::Top,
        }
    }

    fn add(self, o: Val) -> Val {
        match (self, o) {
            (Val::Rng { lo: a, hi: b, .. }, Val::Rng { lo: c, hi: d, .. }) => {
                Val::rng(a + c, b + d)
            }
            _ => Val::Top,
        }
    }

    fn sub(self, o: Val) -> Val {
        match (self, o) {
            (Val::Rng { lo: a, hi: b, .. }, Val::Rng { lo: c, hi: d, .. }) => {
                Val::rng(a - d, b - c)
            }
            _ => Val::Top,
        }
    }

    fn mul(self, o: Val) -> Val {
        match (self, o) {
            (Val::Rng { lo: a, hi: b, .. }, Val::Rng { lo: c, hi: d, .. }) => {
                let ps = [a.checked_mul(c), a.checked_mul(d), b.checked_mul(c), b.checked_mul(d)];
                let (mut lo, mut hi) = (i128::MAX, i128::MIN);
                for p in ps {
                    match p {
                        Some(p) => {
                            lo = lo.min(p);
                            hi = hi.max(p);
                        }
                        None => return Val::Top,
                    }
                }
                Val::rng(lo, hi)
            }
            _ => Val::Top,
        }
    }

    fn div(self, o: Val) -> Val {
        match (self, o) {
            (Val::Rng { lo: a, hi: b, .. }, Val::Rng { lo: c, hi: d, .. })
                if a >= 0 && c > 0 =>
            {
                Val::rng(a / d, b / c)
            }
            _ => Val::Top,
        }
    }

    /// `self % o` — the key range producer: `x % c` with unknown `x`
    /// still lands in `0..c` when `x` is non-negative.
    fn rem(self, o: Val) -> Val {
        match o {
            Val::Rng { lo: c, hi: d, .. } if c > 0 => match self {
                Val::Rng { lo: a, hi: b, .. } if a >= 0 => Val::rng(0, (d - 1).min(b)),
                // Unknown or possibly-negative dividend: Rust `%` keeps
                // the dividend's sign, so the result is within ±(d-1).
                _ => Val::rng(-(d - 1), d - 1),
            },
            _ => Val::Top,
        }
    }

    /// Bitwise AND — masking with a non-negative constant bounds even a
    /// `Top` (or negative) left side: `x & 0xFF` is always `0..=255`.
    fn and(self, o: Val) -> Val {
        let mask = |v: Val| match v {
            Val::Rng { lo, bits, .. } if lo >= 0 => Some(bits),
            _ => None,
        };
        let (ma, mb) = (mask(self), mask(o));
        if ma.is_none() && mb.is_none() {
            return Val::Top;
        }
        let bits = ma.unwrap_or(u128::MAX) & mb.unwrap_or(u128::MAX);
        if bits >= LIM as u128 {
            return Val::Top;
        }
        let mut hi = bits as i128;
        if let Val::Rng { lo, hi: h, .. } = self {
            if lo >= 0 {
                hi = hi.min(h);
            }
        }
        if let Val::Rng { lo, hi: h, .. } = o {
            if lo >= 0 {
                hi = hi.min(h);
            }
        }
        Val::rng_bits(0, hi, bits)
    }

    fn or(self, o: Val) -> Val {
        match (self, o) {
            (Val::Rng { lo: a, bits: x, .. }, Val::Rng { lo: c, bits: y, .. })
                if a >= 0 && c >= 0 =>
            {
                let bits = x | y;
                if bits >= LIM as u128 {
                    Val::Top
                } else {
                    Val::rng_bits(a.max(c), bits as i128, bits)
                }
            }
            _ => Val::Top,
        }
    }

    fn xor(self, o: Val) -> Val {
        match (self, o) {
            (Val::Rng { lo: a, bits: x, .. }, Val::Rng { lo: c, bits: y, .. })
                if a >= 0 && c >= 0 =>
            {
                let bits = x | y;
                if bits >= LIM as u128 {
                    Val::Top
                } else {
                    Val::rng_bits(0, bits as i128, bits)
                }
            }
            _ => Val::Top,
        }
    }

    fn shl(self, k: u32) -> Val {
        match self {
            Val::Rng { lo, hi, bits } if lo >= 0 && k < 100 => {
                match (lo.checked_shl(k), hi.checked_shl(k), bits.checked_shl(k)) {
                    (Some(l), Some(h), Some(b)) => Val::rng_bits(l, h, b),
                    _ => Val::Top,
                }
            }
            _ => Val::Top,
        }
    }

    fn shr(self, k: u32) -> Val {
        match self {
            Val::Rng { lo, hi, .. } if lo >= 0 && k < 128 => Val::rng(lo >> k, hi >> k),
            _ => Val::Top,
        }
    }

    fn neg(self) -> Val {
        match self {
            Val::Rng { lo, hi, .. } => Val::rng(-hi, -lo),
            Val::Top => Val::Top,
        }
    }

    /// `as uN` — values that fit pass through; anything else (possible
    /// wraparound, or an unknown) lands in the full unsigned range.
    fn cast_unsigned(self, width: u32) -> Val {
        if width >= 100 {
            return match self {
                Val::Rng { lo, .. } if lo >= 0 => self,
                _ => Val::Top,
            };
        }
        let max = (1i128 << width) - 1;
        match self {
            Val::Rng { lo, hi, .. } if lo >= 0 && hi <= max => self,
            _ => Val::unsigned(width),
        }
    }

    /// `as iN` — pass through when the value provably fits, else `Top`
    /// (a signed wrap has no useful bits mask).
    fn cast_signed(self, width: u32) -> Val {
        if width >= 100 {
            return self;
        }
        let (min, max) = (-(1i128 << (width - 1)), (1i128 << (width - 1)) - 1);
        match self {
            Val::Rng { lo, hi, .. } if lo >= min && hi <= max => self,
            _ => Val::Top,
        }
    }

    /// Meet with an upper bound (from `assert!(x < e)` narrowing). The
    /// unknown side is assumed non-negative — a wrong assumption can only
    /// suppress a finding, never invent one.
    fn clamp_hi(self, bound: i128) -> Val {
        match self {
            Val::Rng { lo, hi, bits } => Val::rng_bits(lo.min(bound), hi.min(bound), bits),
            Val::Top => Val::rng(0, bound),
        }
    }

    /// Meet with a lower bound (from `assert!(x >= e)` narrowing).
    fn clamp_lo(self, bound: i128) -> Val {
        match self {
            Val::Rng { lo, hi, .. } if hi >= bound => Val::rng(lo.max(bound), hi),
            Val::Rng { .. } => self,
            Val::Top => Val::Top,
        }
    }
}

/// Parses an integer literal token (`0x1F`, `4_096u64`, `0b11`), or
/// `None` for floats and malformed text.
fn parse_int(text: &str) -> Option<i128> {
    let s: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(r) = s.strip_prefix("0x") {
        (r, 16)
    } else if let Some(r) = s.strip_prefix("0b") {
        (r, 2)
    } else if let Some(r) = s.strip_prefix("0o") {
        (r, 8)
    } else {
        (s.as_str(), 10)
    };
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    let (num, suffix) = digits.split_at(end);
    if num.is_empty() {
        return None;
    }
    const SUFFIXES: [&str; 12] = [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    if !suffix.is_empty() && !SUFFIXES.contains(&suffix) {
        return None; // float (`0.95` → suffix ".95") or garbage
    }
    i128::from_str_radix(num, radix).ok()
}

/// Width in bits of a primitive integer type name (`usize` is modelled
/// as 64 — every supported target is 64-bit).
fn type_width(name: &str) -> Option<(u32, bool)> {
    Some(match name {
        "u8" => (8, false),
        "u16" => (16, false),
        "u32" => (32, false),
        "u64" | "usize" => (64, false),
        "u128" => (128, false),
        "i8" => (8, true),
        "i16" => (16, true),
        "i32" => (32, true),
        "i64" | "isize" => (64, true),
        "i128" => (128, true),
        _ => return None,
    })
}

/// `// bits: N` widths harvested from annotations, split by what the
/// annotation attaches to.
#[derive(Debug, Default)]
pub(crate) struct Widths {
    /// Type name → declared bit width (structs and enums).
    pub types: HashMap<String, u32>,
    /// Function name → declared return-value bit width.
    pub fns: HashMap<String, u32>,
}

/// Attaches each file's `// bits: N` annotations to the nearest
/// declaration at or within two lines below the annotation (trailing
/// same-line comments and the doc-comment-then-annotation idiom both
/// resolve; see [`ParsedFile::bits_for_line`]).
fn collect_widths(files: &[ParsedFile]) -> Widths {
    let mut w = Widths::default();
    for file in files {
        if file.bit_widths.is_empty() {
            continue;
        }
        for item in &file.items {
            if matches!(item.kind, DeclKind::Struct | DeclKind::Enum) {
                if let Some(n) = file.bits_for_line(item.line) {
                    w.types.insert(item.name.clone(), n);
                }
            }
        }
        for f in &file.fns {
            if let Some(n) = file.bits_for_line(f.line) {
                w.fns.insert(f.name.clone(), n);
            }
        }
    }
    w
}

/// Which value rule a walker pass is firing for (`None` in the summary
/// and call-collection passes, which only compute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Summary,
    CollectCalls,
    Pack,
    Tag,
}

/// Read-only tables shared by every walker pass.
struct Tables<'a> {
    consts: &'a HashMap<String, Val>,
    widths: &'a Widths,
    /// Callee simple name → joined return range.
    ret_by_name: &'a HashMap<String, Val>,
    /// Callee simple name → joined per-parameter argument ranges.
    param_ranges: &'a HashMap<String, Vec<Val>>,
}

/// One evaluated (sub)expression.
#[derive(Debug, Clone, Copy)]
struct Ev {
    v: Val,
    /// Index one past the last consumed token.
    j: usize,
    /// `Some((base, k))` when the expression is exactly `base << k` with
    /// a constant shift — the unit of a packing chain.
    shift: Option<(Val, u32)>,
    /// `true` when a `u128`/`i128` cast or literal suffix appeared — the
    /// packing carrier is then 128 bits wide, not 64.
    wide: bool,
}

impl Ev {
    fn new(v: Val, j: usize) -> Ev {
        Ev { v, j, shift: None, wide: false }
    }
}

/// Flow-sensitive walker over one function body.
struct Walker<'a> {
    file: &'a ParsedFile,
    t: &'a Tables<'a>,
    pass: Pass,
    env: HashMap<String, Val>,
    loop_depth: u32,
    /// Values reaching `return` / the tail expression (summary pass).
    returns: Vec<Val>,
    /// Observed `(callee, arg values)` pairs (call-collection pass).
    calls: Vec<(String, Vec<Val>)>,
    findings: Vec<RuleFinding>,
    /// Dedup guard: loop bodies are walked twice.
    fired: HashSet<(u32, String)>,
}

impl<'a> Walker<'a> {
    fn new(file: &'a ParsedFile, t: &'a Tables<'a>, pass: Pass) -> Walker<'a> {
        Walker {
            file,
            t,
            pass,
            env: HashMap::new(),
            loop_depth: 0,
            returns: Vec::new(),
            calls: Vec::new(),
            findings: Vec::new(),
            fired: HashSet::new(),
        }
    }

    // The returned slice borrows the *parsed file* (lifetime `'a`), not
    // `self`, so evaluation can keep reading tokens across `&mut self`
    // calls.
    fn toks(&self) -> &'a [Tok] {
        &self.file.toks
    }

    fn fire(&mut self, rule: &'static str, line: u32, message: String) {
        if self.fired.insert((line, message.clone())) {
            self.findings.push(RuleFinding { rule, line, message });
        }
    }

    /// `env = join(env, before)` restricted to `before`'s keys — block
    /// and loop effects are merged conservatively, block-local `let`s
    /// go out of scope.
    fn merge_scope(&mut self, before: &HashMap<String, Val>) {
        let mut merged = HashMap::with_capacity(before.len());
        for (k, vb) in before {
            let v = self.env.get(k).copied().unwrap_or(*vb);
            merged.insert(k.clone(), v.join(*vb));
        }
        self.env = merged;
    }

    /// Walks a nested `{ … }` group (at `open`) with join semantics;
    /// returns the index past the closing brace.
    fn walk_block(&mut self, open: usize, tail: bool) -> usize {
        let end = skip_group(self.toks(), open);
        let before = self.env.clone();
        self.walk_stmts(open + 1, end.saturating_sub(1), tail);
        self.merge_scope(&before);
        end
    }

    /// Walks a loop body twice (second pass over the joined environment
    /// approximates the loop fixpoint); returns the index past `}`.
    fn walk_loop(&mut self, open: usize) -> usize {
        let end = skip_group(self.toks(), open);
        let before = self.env.clone();
        self.loop_depth += 1;
        self.walk_stmts(open + 1, end.saturating_sub(1), false);
        self.merge_scope(&before);
        let joined = self.env.clone();
        self.walk_stmts(open + 1, end.saturating_sub(1), false);
        self.loop_depth -= 1;
        self.merge_scope(&joined);
        end
    }

    /// Scans from `i` to the end of the current statement (a `;` at
    /// depth 0, or `hi`), walking any `{ … }` groups met on the way so
    /// closure bodies and struct-literal fields are not skipped.
    fn finish_stmt(&mut self, mut i: usize, hi: usize) -> usize {
        while i < hi {
            match self.toks()[i].text.as_str() {
                ";" => return i + 1,
                "{" => i = self.walk_block(i, false),
                "(" | "[" => i = skip_group(self.toks(), i),
                _ => i += 1,
            }
        }
        hi
    }

    /// Index of the first `{` at depth 0 in `i..hi` (loop/if headers).
    fn find_block(&self, mut i: usize, hi: usize) -> usize {
        while i < hi {
            match self.toks()[i].text.as_str() {
                "{" => return i,
                "(" | "[" => i = skip_group(self.toks(), i),
                ";" => return hi,
                _ => i += 1,
            }
        }
        hi
    }

    /// Statement-linear walk of `from..to`; `tail` marks the range as
    /// the function's (transitive) tail position for summary collection.
    fn walk_stmts(&mut self, from: usize, to: usize, tail: bool) {
        let to = to.min(self.toks().len());
        let mut i = from;
        while i < to {
            let start = i;
            let tk = &self.toks()[i];
            let next = match tk.text.as_str() {
                "{" => {
                    let end = skip_group(self.toks(), i);
                    let child_tail = tail
                        && (end >= to || self.toks().get(end).is_some_and(|t| t.is_ident("else")));
                    self.walk_block(i, child_tail)
                }
                "let" => self.walk_let(i, to),
                // A statement attribute (`#[expect(..)] let x = …;`): skip
                // it so the statement it annotates is walked as usual.
                "#" if self.toks().get(i + 1).is_some_and(|t| t.is("[")) => {
                    skip_group(self.toks(), i + 1)
                }
                "return" => {
                    let j = if self.toks().get(i + 1).is_some_and(|t| t.is(";") || t.is("}")) {
                        i + 1
                    } else {
                        let e = self.eval(i + 1, to);
                        if self.pass == Pass::Summary {
                            self.returns.push(e.v);
                        }
                        e.j
                    };
                    self.finish_stmt(j, to)
                }
                "for" => self.walk_for(i, to),
                "while" => {
                    if !self.toks().get(i + 1).is_some_and(|t| t.is_ident("let")) {
                        let _ = self.eval(i + 1, to);
                    }
                    let g = self.find_block(i + 1, to);
                    if g < to { self.walk_loop(g) } else { to }
                }
                "loop" => {
                    let g = self.find_block(i + 1, to);
                    if g < to { self.walk_loop(g) } else { to }
                }
                "if" => {
                    let mut narrowed = None;
                    if !self.toks().get(i + 1).is_some_and(|t| t.is_ident("let")) {
                        narrowed = self.narrow_cond(i + 1, to);
                        let _ = self.eval(i + 1, to);
                    }
                    let g = self.find_block(i + 1, to);
                    if g < to {
                        let end = skip_group(self.toks(), g);
                        let child_tail = tail
                            && (end >= to
                                || self.toks().get(end).is_some_and(|t| t.is_ident("else")));
                        // The condition constrains the then-branch (the
                        // checked-constructor idiom `if raw < CAP {
                        // Some(T(raw)) }`); afterwards the branch may not
                        // have run, so join back with the pre-`if` value.
                        if let Some((name, v)) = narrowed {
                            let before = self.env.get(&name).copied().unwrap_or(Val::Top);
                            self.env.insert(name.clone(), v);
                            let r = self.walk_block(g, child_tail);
                            let after = self.env.get(&name).copied().unwrap_or(Val::Top);
                            self.env.insert(name, before.join(after));
                            r
                        } else {
                            self.walk_block(g, child_tail)
                        }
                    } else {
                        to
                    }
                }
                "else" => i + 1,
                "match" => {
                    let (v, end) = self.walk_match(i, to);
                    if self.pass == Pass::Summary && tail && end >= to {
                        self.returns.push(v);
                    }
                    end
                }
                "assert" | "debug_assert" | "assert_eq" | "debug_assert_eq" => {
                    let j = self.walk_assert(i, to);
                    self.finish_stmt(j, to)
                }
                _ if tk.kind == TokKind::Ident
                    && self.toks().get(i + 1).is_some_and(|t| {
                        t.is("=") || ASSIGN_OPS.iter().any(|op| t.is(op))
                    }) =>
                {
                    self.walk_assign(i, to)
                }
                _ if tk.kind == TokKind::Ident
                    && self.toks().get(i + 1).is_some_and(|t| t.is(":")) =>
                {
                    // Struct-literal field (`name: expr,`) inside a block
                    // walked by `finish_stmt` — evaluate the field expr.
                    let e = self.eval(i + 2, to);
                    let mut j = e.j;
                    if self.toks().get(j).is_some_and(|t| t.is(",")) {
                        j += 1;
                    }
                    j
                }
                _ => {
                    let e = self.eval(i, to);
                    if self.pass == Pass::Summary && tail && e.j >= to {
                        self.returns.push(e.v);
                    }
                    // `lvalue = RHS` / `lvalue |= RHS` where the lvalue is
                    // a field or indexing expression: the environment has
                    // nothing to update, but the RHS must still evaluate
                    // so checks inside it fire.
                    let j = if self.toks().get(e.j).is_some_and(|t| {
                        t.is("=") || ASSIGN_OPS.iter().any(|op| t.is(op))
                    }) {
                        self.eval(e.j + 1, to).j
                    } else {
                        e.j
                    };
                    self.finish_stmt(j, to)
                }
            };
            i = next.max(start + 1);
        }
    }

    /// `let [mut] PAT [: TY] = EXPR;` — binds plain-identifier patterns
    /// and always evaluates the initializer.
    fn walk_let(&mut self, i: usize, to: usize) -> usize {
        let mut p = i + 1;
        if self.toks().get(p).is_some_and(|t| t.is_ident("mut")) {
            p += 1;
        }
        let plain = self.toks().get(p).is_some_and(|t| {
            t.kind == TokKind::Ident
                && self
                    .toks()
                    .get(p + 1)
                    .is_some_and(|n| n.is(":") || n.is("=") || n.is(";"))
        });
        let name = plain.then(|| self.toks()[p].text.clone());
        let mut q = p + if plain { 1 } else { 0 };
        // Type annotation: advance to `=`.
        if plain && self.toks().get(q).is_some_and(|t| t.is(":")) {
            q += 1;
            while q < to {
                match self.toks()[q].text.as_str() {
                    "=" | ";" => break,
                    "(" | "[" | "{" => q = skip_group(self.toks(), q),
                    "<" => q = skip_generics(self.toks(), q),
                    _ => q += 1,
                }
            }
        }
        // Find `=` (skipping a non-plain pattern's groups on the way).
        while q < to && !self.toks()[q].is("=") && !self.toks()[q].is(";") {
            match self.toks()[q].text.as_str() {
                "(" | "[" | "{" => q = skip_group(self.toks(), q),
                "<" => q = skip_generics(self.toks(), q),
                _ => q += 1,
            }
        }
        if q >= to || self.toks()[q].is(";") {
            return self.finish_stmt(q, to);
        }
        let e = self.eval(q + 1, to);
        if let Some(n) = name {
            self.env.insert(n, e.v);
        }
        self.finish_stmt(e.j, to)
    }

    /// `NAME op= EXPR;` — updates the environment; compound updates
    /// inside a loop go straight to `Top` (unbounded iteration).
    fn walk_assign(&mut self, i: usize, to: usize) -> usize {
        let name = self.toks()[i].text.clone();
        let op = self.toks()[i + 1].text.clone();
        let e = self.eval(i + 2, to);
        let old = self.env.get(&name).copied().unwrap_or(Val::Top);
        let new = match op.as_str() {
            "=" => e.v,
            _ if self.loop_depth > 0 => Val::Top,
            "+=" => old.add(e.v),
            "-=" => old.sub(e.v),
            "*=" => old.mul(e.v),
            "/=" => old.div(e.v),
            "%=" => old.rem(e.v),
            "&=" => old.and(e.v),
            "|=" => old.or(e.v),
            "^=" => old.xor(e.v),
            "<<=" | ">>=" => match e.v {
                Val::Rng { lo, hi, .. } if lo == hi && (0..100).contains(&lo) => {
                    let k = lo as u32;
                    if op == "<<=" { old.shl(k) } else { old.shr(k) }
                }
                _ => Val::Top,
            },
            _ => Val::Top,
        };
        self.env.insert(name, new);
        self.finish_stmt(e.j, to)
    }

    /// `assert!(x < e)`-family narrowing (plus plain evaluation of the
    /// macro arguments so checks inside them still fire).
    fn walk_assert(&mut self, i: usize, _to: usize) -> usize {
        let toks = self.toks();
        let eq_form = toks[i].text.ends_with("_eq") || toks[i].text.ends_with("assert_eq");
        if !toks.get(i + 1).is_some_and(|t| t.is("!"))
            || !toks.get(i + 2).is_some_and(|t| t.is("("))
        {
            return i + 1;
        }
        let open = i + 2;
        let end = skip_group(toks, open);
        let inner_end = end.saturating_sub(1);
        // `assert!(IDENT cmp EXPR, …)` / `assert_eq!(IDENT, EXPR, …)`.
        let subject = toks.get(open + 1).filter(|t| t.kind == TokKind::Ident).cloned();
        if let Some(subj) = subject {
            let cmp_at = open + 2;
            let narrowed = if eq_form {
                if toks.get(cmp_at).is_some_and(|t| t.is(",")) {
                    let e = self.eval(cmp_at + 1, inner_end);
                    match e.v {
                        Val::Rng { .. } => Some(e.v),
                        Val::Top => None,
                    }
                } else {
                    None
                }
            } else {
                let op = toks.get(cmp_at).map(|t| t.text.clone()).unwrap_or_default();
                if matches!(op.as_str(), "<" | "<=" | ">" | ">=") {
                    let e = self.eval(cmp_at + 1, inner_end);
                    let old = self.env.get(&subj.text).copied().unwrap_or(Val::Top);
                    match (op.as_str(), e.v) {
                        ("<", Val::Rng { hi, .. }) => Some(old.clamp_hi(hi - 1)),
                        ("<=", Val::Rng { hi, .. }) => Some(old.clamp_hi(hi)),
                        (">", Val::Rng { lo, .. }) => Some(old.clamp_lo(lo + 1)),
                        (">=", Val::Rng { lo, .. }) => Some(old.clamp_lo(lo)),
                        _ => None,
                    }
                } else {
                    None
                }
            };
            if let Some(v) = narrowed {
                self.env.insert(subj.text, v);
                return end;
            }
        }
        // No narrowing pattern: still evaluate the arguments.
        self.eval_group_args(open);
        end
    }

    /// `IDENT cmp EXPR` at `i` (an `if` condition): the narrowed value
    /// IDENT holds in the then-branch, or `None` when the condition
    /// isn't a simple comparison on a plain identifier.
    fn narrow_cond(&mut self, i: usize, to: usize) -> Option<(String, Val)> {
        let toks = self.toks();
        let subj = toks.get(i).filter(|t| t.kind == TokKind::Ident)?.text.clone();
        let op = toks.get(i + 1)?.text.clone();
        if !matches!(op.as_str(), "<" | "<=" | ">" | ">=") {
            return None;
        }
        // Below the comparison level, so the bound expression stops at
        // `&&`/`{` on its own.
        let e = self.eval_bitor(i + 2, to);
        let old = self.env.get(&subj).copied().unwrap_or(Val::Top);
        let v = match (op.as_str(), e.v) {
            ("<", Val::Rng { hi, .. }) => old.clamp_hi(hi - 1),
            ("<=", Val::Rng { hi, .. }) => old.clamp_hi(hi),
            (">", Val::Rng { lo, .. }) => old.clamp_lo(lo + 1),
            (">=", Val::Rng { lo, .. }) => old.clamp_lo(lo),
            _ => return None,
        };
        Some((subj, v))
    }

    /// `for PAT in A..B { … }` — binds a plain-identifier pattern to the
    /// iteration range when both endpoints evaluate.
    fn walk_for(&mut self, i: usize, to: usize) -> usize {
        let toks = self.toks();
        let plain = toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 2).is_some_and(|t| t.is_ident("in"));
        if plain {
            let name = toks[i + 1].text.clone();
            // Evaluate below the range level so `A..B` is visible here.
            let a = self.eval_bitor(i + 3, to);
            let bound = match self.toks().get(a.j).map(|t| t.text.clone()) {
                Some(op) if op == ".." || op == "..=" => {
                    let b = self.eval_bitor(a.j + 1, to);
                    match (a.v, b.v) {
                        (Val::Rng { lo, .. }, Val::Rng { hi, .. }) => {
                            let hi = if op == ".." { hi - 1 } else { hi };
                            Val::rng(lo, hi)
                        }
                        _ => Val::Top,
                    }
                }
                _ => Val::Top,
            };
            self.env.insert(name, bound);
        }
        let g = self.find_block(i + 1, to);
        if g < to { self.walk_loop(g) } else { to }
    }

    /// `match SCRUT { arms }` — evaluates every arm expression, walks
    /// block arms, and returns the join of arm values.
    fn walk_match(&mut self, i: usize, to: usize) -> (Val, usize) {
        let scrut = self.eval(i + 1, to);
        let g = self.find_block(scrut.j, to);
        if g >= to {
            return (Val::Top, to);
        }
        let end = skip_group(self.toks(), g);
        let inner_end = end.saturating_sub(1);
        let mut joined: Option<Val> = None;
        let mut k = g + 1;
        while k < inner_end {
            // Skip the pattern (and any guard) up to `=>`.
            let mut found = false;
            while k < inner_end {
                match self.toks()[k].text.as_str() {
                    "=>" => {
                        found = true;
                        k += 1;
                        break;
                    }
                    "(" | "[" | "{" => k = skip_group(self.toks(), k),
                    _ => k += 1,
                }
            }
            if !found {
                break;
            }
            let v = if self.toks().get(k).is_some_and(|t| t.is("{")) {
                k = self.walk_block(k, false);
                Val::Top
            } else {
                let e = self.eval(k, inner_end);
                k = e.j;
                e.v
            };
            joined = Some(match joined {
                Some(j) => j.join(v),
                None => v,
            });
            if self.toks().get(k).is_some_and(|t| t.is(",")) {
                k += 1;
            }
        }
        (joined.unwrap_or(Val::Top), end)
    }

    // ---- expression evaluation (precedence climbing) ----

    fn eval(&mut self, i: usize, hi: usize) -> Ev {
        self.eval_cmp(i, hi)
    }

    fn eval_cmp(&mut self, i: usize, hi: usize) -> Ev {
        let mut e = self.eval_range(i, hi);
        while e.j < hi {
            let op = self.toks()[e.j].text.clone();
            if !matches!(op.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=") {
                break;
            }
            // `<` here could open generics in a type position; the
            // walker only evaluates expressions, where it is comparison.
            let r = self.eval_range(e.j + 1, hi);
            e = Ev::new(Val::rng(0, 1), r.j);
        }
        e
    }

    fn eval_range(&mut self, i: usize, hi: usize) -> Ev {
        let e = self.eval_bitor(i, hi);
        // `a..b` as a value is opaque; both sides still evaluate.
        if e.j < hi && (self.toks()[e.j].is("..") || self.toks()[e.j].is("..=")) {
            let r = self.eval_bitor(e.j + 1, hi);
            return Ev::new(Val::Top, r.j);
        }
        e
    }

    fn eval_bitor(&mut self, i: usize, hi: usize) -> Ev {
        let first = self.eval_bitxor(i, hi);
        if !(first.j < hi && self.toks()[first.j].is("|")) {
            return first;
        }
        let line = self.toks()[i].line;
        let mut terms = vec![first];
        let mut e = first;
        while e.j < hi && self.toks()[e.j].is("|") {
            let t = self.eval_bitxor(e.j + 1, hi);
            terms.push(t);
            e = t;
        }
        if self.pass == Pass::Pack {
            self.check_packing(&terms, line);
        }
        let mut v = terms[0].v;
        let mut wide = false;
        for t in &terms {
            wide |= t.wide;
        }
        for t in &terms[1..] {
            v = v.or(t.v);
        }
        Ev { v, j: e.j, shift: None, wide }
    }

    fn eval_bitxor(&mut self, i: usize, hi: usize) -> Ev {
        let mut e = self.eval_bitand(i, hi);
        while e.j < hi && self.toks()[e.j].is("^") {
            let r = self.eval_bitand(e.j + 1, hi);
            e = Ev { v: e.v.xor(r.v), j: r.j, shift: None, wide: e.wide | r.wide };
        }
        e
    }

    fn eval_bitand(&mut self, i: usize, hi: usize) -> Ev {
        let mut e = self.eval_shift(i, hi);
        while e.j < hi && self.toks()[e.j].is("&") {
            let r = self.eval_shift(e.j + 1, hi);
            e = Ev { v: e.v.and(r.v), j: r.j, shift: None, wide: e.wide | r.wide };
        }
        e
    }

    fn eval_shift(&mut self, i: usize, hi: usize) -> Ev {
        let mut e = self.eval_add(i, hi);
        while e.j < hi {
            let op = self.toks()[e.j].text.clone();
            if op != "<<" && op != ">>" {
                break;
            }
            let base = e.v;
            let had_shift = e.shift.is_some();
            let r = self.eval_add(e.j + 1, hi);
            let k = match r.v {
                Val::Rng { lo, hi: h, .. } if lo == h && (0..100).contains(&lo) => Some(lo as u32),
                _ => None,
            };
            let v = match (op.as_str(), k) {
                ("<<", Some(k)) => base.shl(k),
                (">>", Some(k)) => base.shr(k),
                _ => Val::Top,
            };
            let shift = match (op.as_str(), k, had_shift) {
                ("<<", Some(k), false) => Some((base, k)),
                _ => None,
            };
            e = Ev { v, j: r.j, shift, wide: e.wide | r.wide };
        }
        e
    }

    fn eval_add(&mut self, i: usize, hi: usize) -> Ev {
        let mut e = self.eval_mul(i, hi);
        while e.j < hi {
            let op = self.toks()[e.j].text.clone();
            if op != "+" && op != "-" {
                break;
            }
            let r = self.eval_mul(e.j + 1, hi);
            let v = if op == "+" { e.v.add(r.v) } else { e.v.sub(r.v) };
            e = Ev { v, j: r.j, shift: None, wide: e.wide | r.wide };
        }
        e
    }

    fn eval_mul(&mut self, i: usize, hi: usize) -> Ev {
        let mut e = self.eval_cast(i, hi);
        while e.j < hi {
            let op = self.toks()[e.j].text.clone();
            if op != "*" && op != "/" && op != "%" {
                break;
            }
            let r = self.eval_cast(e.j + 1, hi);
            let v = match op.as_str() {
                "*" => e.v.mul(r.v),
                "/" => e.v.div(r.v),
                _ => e.v.rem(r.v),
            };
            e = Ev { v, j: r.j, shift: None, wide: e.wide | r.wide };
        }
        e
    }

    fn eval_cast(&mut self, i: usize, hi: usize) -> Ev {
        let mut e = self.eval_unary(i, hi);
        while e.j < hi && self.toks()[e.j].is_ident("as") {
            let ty = self.toks().get(e.j + 1).map(|t| t.text.clone()).unwrap_or_default();
            let (v, wide) = match type_width(&ty) {
                Some((w, false)) => (e.v.cast_unsigned(w), w == 128),
                Some((w, true)) => (e.v.cast_signed(w), w == 128),
                None => (Val::Top, false),
            };
            e = Ev { v, j: e.j + 2, shift: None, wide: e.wide | wide };
        }
        e
    }

    fn eval_unary(&mut self, i: usize, hi: usize) -> Ev {
        if i >= hi {
            return Ev::new(Val::Top, i.max(hi));
        }
        match self.toks()[i].text.as_str() {
            "-" => {
                let e = self.eval_unary(i + 1, hi);
                Ev { v: e.v.neg(), j: e.j, shift: None, wide: e.wide }
            }
            "!" => {
                let e = self.eval_unary(i + 1, hi);
                Ev { v: Val::Top, j: e.j, shift: None, wide: e.wide }
            }
            "&" | "&&" | "*" => {
                let mut e = self.eval_unary(
                    i + 1 + usize::from(self.toks().get(i + 1).is_some_and(|t| t.is_ident("mut"))),
                    hi,
                );
                e.shift = None;
                e
            }
            _ => self.eval_postfix(i, hi),
        }
    }

    fn eval_postfix(&mut self, i: usize, hi: usize) -> Ev {
        let mut e = self.eval_primary(i, hi);
        while e.j < hi {
            match self.toks()[e.j].text.as_str() {
                "." => {
                    let Some(m) = self.toks().get(e.j + 1) else { break };
                    if m.kind != TokKind::Ident && m.kind != TokKind::Lit {
                        break;
                    }
                    let name = m.text.clone();
                    let mut k = e.j + 2;
                    // Turbofish on the method.
                    if self.toks().get(k).is_some_and(|t| t.is("::"))
                        && self.toks().get(k + 1).is_some_and(|t| t.is("<"))
                    {
                        k = skip_generics(self.toks(), k + 1);
                    }
                    if self.toks().get(k).is_some_and(|t| t.is("(")) {
                        let args = self.eval_group_args(k);
                        let end = skip_group(self.toks(), k);
                        let v = self.method_value(&name, e.v, &args);
                        if self.pass == Pass::CollectCalls {
                            self.calls.push((name, args.iter().map(|a| a.v).collect()));
                        }
                        e = Ev { v, j: end, shift: None, wide: e.wide };
                    } else {
                        // Field access: value unknown.
                        e = Ev::new(Val::Top, e.j + 2);
                    }
                }
                "[" => {
                    // Indexing: the element is unknown, but the index
                    // expression still runs the rules on what it contains.
                    let end = skip_group(self.toks(), e.j);
                    let _ = self.eval(e.j + 1, end.saturating_sub(1));
                    e = Ev::new(Val::Top, end);
                }
                "?" => {
                    e.j += 1;
                    e.shift = None;
                }
                _ => break,
            }
        }
        e
    }

    /// Evaluates a `( … )` / `[ … ]` argument list at `open`, one
    /// comma-separated expression at a time.
    fn eval_group_args(&mut self, open: usize) -> Vec<Ev> {
        let end = skip_group(self.toks(), open);
        let inner_end = end.saturating_sub(1);
        let mut args = Vec::new();
        let mut k = open + 1;
        while k < inner_end {
            let e = self.eval(k, inner_end);
            args.push(e);
            if self.toks().get(e.j).is_some_and(|t| t.is(",")) {
                k = e.j + 1;
            } else if e.j > k {
                // Evaluation stalled short of the next comma (closure
                // body, struct literal, …): walk `{ … }` groups met on
                // the way (so checks inside closures still fire) and
                // resync to the next `,` at depth 0.
                let mut r = e.j;
                let mut depth = 0i64;
                while r < inner_end {
                    match self.toks()[r].text.as_str() {
                        "{" if depth == 0 => {
                            r = self.walk_block(r, false);
                            continue;
                        }
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    r += 1;
                }
                if r >= inner_end {
                    break;
                }
                k = r + 1;
            } else {
                break;
            }
        }
        args
    }

    /// Result range of a method call.
    fn method_value(&mut self, name: &str, recv: Val, args: &[Ev]) -> Val {
        match name {
            // Transparent pass-throughs.
            "unwrap" | "expect" | "clone" | "copied" | "to_owned" => recv,
            "unwrap_or" | "unwrap_or_default" | "unwrap_or_else" => Val::Top,
            "min" => match (recv, args.first().map(|a| a.v)) {
                (_, Some(Val::Rng { hi, .. })) => recv.clamp_hi(hi),
                _ => Val::Top,
            },
            "max" => match (recv, args.first().map(|a| a.v)) {
                (Val::Rng { .. }, Some(Val::Rng { lo, .. })) => recv.clamp_lo(lo),
                _ => Val::Top,
            },
            "clamp" => match (args.first().map(|a| a.v), args.get(1).map(|a| a.v)) {
                (Some(Val::Rng { lo, .. }), Some(Val::Rng { hi, .. })) => {
                    recv.clamp_hi(hi).clamp_lo(lo)
                }
                _ => Val::Top,
            },
            "rem_euclid" | "wrapping_rem" => match args.first().map(|a| a.v) {
                Some(Val::Rng { hi, .. }) if hi > 0 => Val::rng(0, hi - 1),
                _ => Val::Top,
            },
            _ => self.t.ret_by_name.get(name).copied().unwrap_or(Val::Top),
        }
    }

    fn eval_primary(&mut self, i: usize, hi: usize) -> Ev {
        if i >= hi {
            return Ev::new(Val::Top, hi);
        }
        let tk = &self.toks()[i];
        match tk.kind {
            TokKind::Lit => {
                let wide = tk.text.contains("u128") || tk.text.contains("i128");
                let v = parse_int(&tk.text).map_or(Val::Top, Val::cst);
                Ev { v, j: i + 1, shift: None, wide }
            }
            TokKind::Punct => match tk.text.as_str() {
                "(" => {
                    let end = skip_group(self.toks(), i);
                    let mut e = self.eval(i + 1, end.saturating_sub(1));
                    // Preserve a shift marker through parentheses only if
                    // the parens hold exactly the shift expression.
                    e.j = end;
                    e
                }
                "[" => {
                    let _ = self.eval_group_args(i);
                    Ev::new(Val::Top, skip_group(self.toks(), i))
                }
                _ => Ev::new(Val::Top, i + 1),
            },
            TokKind::Ident => self.eval_path(i, hi),
        }
    }

    /// Identifier-rooted primary: a path, call, macro, `match`
    /// expression, or plain variable/const reference.
    fn eval_path(&mut self, i: usize, hi: usize) -> Ev {
        let toks = self.toks();
        let first = toks[i].text.as_str();
        match first {
            "match" => {
                let (v, end) = self.walk_match(i, hi);
                return Ev::new(v, end);
            }
            // `if` as an expression: its blocks are walked by the caller's
            // statement machinery; the value is unknown here.
            "if" => {
                return Ev::new(Val::Top, i + 1);
            }
            "true" | "false" => {
                return Ev::new(Val::rng(0, 1), i + 1);
            }
            "self" => {
                return Ev::new(Val::Top, i + 1);
            }
            _ => {}
        }
        // Collect the `A::B::c` path (skipping turbofish generics).
        let mut segs = vec![i];
        let mut j = i + 1;
        while j + 1 < hi && toks[j].is("::") {
            if toks[j + 1].is("<") {
                j = skip_generics(toks, j + 1);
                continue;
            }
            if toks[j + 1].kind != TokKind::Ident {
                break;
            }
            segs.push(j + 1);
            j += 2;
        }
        let last_idx = *segs.last().unwrap_or(&i);
        let last = toks[last_idx].text.clone();
        let line = toks[i].line;
        // Macro invocation: evaluate the arguments, value unknown.
        if toks.get(j).is_some_and(|t| t.is("!")) {
            if let Some(g) = toks.get(j + 1) {
                if matches!(g.text.as_str(), "(" | "[" | "{") {
                    let _ = self.eval_group_args(j + 1);
                    return Ev::new(Val::Top, skip_group(toks, j + 1));
                }
            }
            return Ev::new(Val::Top, j + 1);
        }
        if toks.get(j).is_some_and(|t| t.is("(")) {
            // Call. `uN::from(x)` casts; `Type::new(x)` on an annotated
            // type is a tag-range checkpoint; otherwise the name summary.
            let args = self.eval_group_args(j);
            let end = skip_group(toks, j);
            if self.pass == Pass::CollectCalls {
                self.calls.push((last.clone(), args.iter().map(|a| a.v).collect()));
            }
            if segs.len() == 2 && last == "from" {
                if let Some((w, signed)) = type_width(&toks[segs[0]].text) {
                    let arg = args.first().map(|a| a.v).unwrap_or(Val::Top);
                    let v = if signed { arg.cast_signed(w) } else { arg.cast_unsigned(w) };
                    let wide = w == 128 || args.iter().any(|a| a.wide);
                    return Ev { v, j: end, shift: None, wide };
                }
            }
            let type_seg = segs
                .iter()
                .rev()
                .nth(1)
                .map(|&s| toks[s].text.clone())
                .filter(|n| self.t.widths.types.contains_key(n));
            let bare_ctor = segs.len() == 1 && self.t.widths.types.contains_key(&last);
            if self.pass == Pass::Tag {
                if let Some(ty) = type_seg.as_ref().filter(|_| last == "new") {
                    let w = self.t.widths.types[ty];
                    self.check_tag(ty, w, args.first().map(|a| a.v), line);
                } else if bare_ctor {
                    let w = self.t.widths.types[&last];
                    self.check_tag(&last, w, args.first().map(|a| a.v), line);
                }
            }
            // A constructed tag value fits its declared width.
            let v = match type_seg.as_ref() {
                Some(ty) => Val::unsigned(self.t.widths.types[ty]),
                None if bare_ctor => Val::unsigned(self.t.widths.types[&last]),
                None => self.t.ret_by_name.get(&last).copied().unwrap_or(Val::Top),
            };
            return Ev::new(v, end);
        }
        // Plain reference: local, then const table.
        if segs.len() == 1 {
            if let Some(v) = self.env.get(&last) {
                return Ev::new(*v, j);
            }
        }
        if let Some(v) = self.t.consts.get(&last) {
            return Ev::new(*v, j);
        }
        Ev::new(Val::Top, j)
    }

    // ---- the two value rules ----

    /// `bit-pack-overflow` on an or-chain of evaluated terms.
    fn check_packing(&mut self, terms: &[Ev], line: u32) {
        // Packing shape: at least two distinct shift positions (an
        // unshifted term sits at position 0). Plain flag unions don't
        // qualify.
        let fields: Vec<(u32, Val, Val)> = terms
            .iter()
            .map(|t| match t.shift {
                Some((base, k)) => (k, base, t.v),
                None => (0, t.v, t.v),
            })
            .collect();
        let mut shifts: Vec<u32> = fields.iter().map(|(k, _, _)| *k).collect();
        shifts.sort_unstable();
        shifts.dedup();
        if shifts.len() < 2 {
            return;
        }
        let carrier: u32 = if terms.iter().any(|t| t.wide) { 128 } else { 64 };
        // Overlap: two fields with intersecting known-bits masks.
        for (a, (ka, _, va)) in fields.iter().enumerate() {
            for (kb, _, vb) in fields.iter().skip(a + 1) {
                if let (Val::Rng { bits: x, lo: la, .. }, Val::Rng { bits: y, lo: lb, .. }) =
                    (va, vb)
                {
                    if *la >= 0 && *lb >= 0 && x & y != 0 {
                        self.fire(
                            "bit-pack-overflow",
                            line,
                            format!(
                                "packed fields at shifts {ka} and {kb} have overlapping bit \
                                 ranges — or-ing them corrupts both; mask each field to its \
                                 slot before packing"
                            ),
                        );
                    }
                }
            }
        }
        // Slot membership: each field must fit below the next shift.
        for (k, base, _) in &fields {
            let next = shifts.iter().find(|s| **s > *k).copied();
            match (next, base) {
                (Some(next), Val::Rng { lo, hi: _, bits }) => {
                    let width = next - k;
                    if *lo < 0 || bit_len(*bits) > width {
                        self.fire(
                            "bit-pack-overflow",
                            line,
                            format!(
                                "field at shift {k} may reach bit {} but its slot is only \
                                 {width} bits wide (next field at shift {next}) — mask or \
                                 narrow the field before packing",
                                bit_len(*bits).saturating_sub(1),
                            ),
                        );
                    }
                }
                (Some(next), Val::Top) => {
                    let width = next - k;
                    self.fire(
                        "bit-pack-overflow",
                        line,
                        format!(
                            "field at shift {k} is not provably within its {width}-bit slot \
                             (next field at shift {next}) — mask it, or bound it with an \
                             assert or `// bits: N` annotation on the producing fn"
                        ),
                    );
                }
                (None, Val::Rng { lo, hi: _, bits }) => {
                    // Top slot: only the carrier bounds it. A full-width
                    // range (a type-seeded `u64` parameter, say) carries
                    // no more information than `Top` and gets the same
                    // open-ended-payload allowance.
                    if *lo >= 0 && bit_len(*bits) < carrier && k + bit_len(*bits) > carrier {
                        self.fire(
                            "bit-pack-overflow",
                            line,
                            format!(
                                "field at shift {k} may reach bit {} — past the {carrier}-bit \
                                 carrier",
                                k + bit_len(*bits) - 1
                            ),
                        );
                    }
                }
                // A Top field in the open-ended top slot is the normal
                // "rest of the word" payload — allowed.
                (None, Val::Top) => {}
            }
        }
    }

    /// `tag-range` at a width-annotated constructor call.
    fn check_tag(&mut self, ty: &str, width: u32, arg: Option<Val>, line: u32) {
        let Some(arg) = arg else { return };
        let max = if width >= 100 { return } else { (1i128 << width) - 1 };
        match arg {
            Val::Rng { lo, hi, .. } if hi > max => {
                self.fire(
                    "tag-range",
                    line,
                    format!(
                        "value in {lo}..={hi} flows into `{ty}` (declared `// bits: {width}`, \
                         max {max}) — mask it, or use the checked/wrapping constructor"
                    ),
                );
            }
            Val::Rng { lo, .. } if lo < 0 => {
                self.fire(
                    "tag-range",
                    line,
                    format!(
                        "possibly-negative value flows into `{ty}` (declared \
                         `// bits: {width}`)"
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Workspace-wide `const NAME: TY = EXPR;` table, iterated to a small
/// fixpoint so consts defined in terms of other consts resolve. Two
/// consts sharing a name join (conservative for proofs, never a source
/// of false findings).
fn collect_consts(files: &[ParsedFile], t: &Tables<'_>) -> HashMap<String, Val> {
    let mut consts: HashMap<String, Val> = HashMap::new();
    for _round in 0..4 {
        let mut next: HashMap<String, Val> = HashMap::new();
        for file in files {
            let toks = &file.toks;
            let mut i = 0;
            while i + 3 < toks.len() {
                if !(toks[i].is_ident("const")
                    && toks[i + 1].kind == TokKind::Ident
                    && toks[i + 2].is(":"))
                {
                    i += 1;
                    continue;
                }
                let name = toks[i + 1].text.clone();
                // Find `=` past the type, bounded by `;`.
                let mut q = i + 3;
                while q < toks.len() && !toks[q].is("=") && !toks[q].is(";") {
                    match toks[q].text.as_str() {
                        "(" | "[" | "{" => q = skip_group(toks, q),
                        "<" => q = skip_generics(toks, q),
                        _ => q += 1,
                    }
                }
                if q < toks.len() && toks[q].is("=") {
                    // Bound the initializer at its `;`.
                    let mut end = q + 1;
                    while end < toks.len() && !toks[end].is(";") {
                        match toks[end].text.as_str() {
                            "(" | "[" | "{" => end = skip_group(toks, end),
                            _ => end += 1,
                        }
                    }
                    let tables = Tables { consts: &consts, ..*t };
                    let mut w = Walker::new(file, &tables, Pass::Summary);
                    let v = w.eval(q + 1, end).v;
                    next.entry(name)
                        .and_modify(|old| *old = old.join(v))
                        .or_insert(v);
                    i = end;
                    continue;
                }
                i = q;
            }
        }
        if next == consts {
            break;
        }
        consts = next;
    }
    consts
}

/// Return-range summaries, bottom-up over the call-graph condensation.
/// Returns the by-name joined map, the count of functions with a
/// non-`Top` summary, and the number of call-graph SCCs.
fn summarize(
    files: &[ParsedFile],
    graph: &CallGraph,
    consts: &HashMap<String, Val>,
    widths: &Widths,
) -> (HashMap<String, Val>, usize, usize) {
    let succ = successors(graph);
    let comps = condense(graph.nodes.len(), &succ);
    let mut node_ret: Vec<Val> = vec![Val::Top; graph.nodes.len()];
    // During the bottom-up pass only unique names are resolvable (an
    // ambiguous name may have a not-yet-summarized definition).
    let mut name_count: HashMap<&str, usize> = HashMap::new();
    for node in &graph.nodes {
        let name = files[node.file].fns[node.fn_idx].name.as_str();
        *name_count.entry(name).or_default() += 1;
    }
    let empty_params = HashMap::new();
    let mut ret_by_name: HashMap<String, Val> = HashMap::new();
    // Annotated fns: the declaration is the contract.
    for node in &graph.nodes {
        let f = &files[node.file].fns[node.fn_idx];
        if let Some(&w) = widths.fns.get(&f.name) {
            ret_by_name.insert(f.name.clone(), Val::unsigned(w));
        }
    }
    // `comps` is emitted callee-first.
    for comp in &comps {
        for round in 0..3 {
            let mut changed = false;
            for &v in comp {
                let node = graph.nodes[v];
                let f = &files[node.file].fns[node.fn_idx];
                let computed = if let Some(&w) = widths.fns.get(&f.name) {
                    Val::unsigned(w)
                } else if let Some((from, to)) = f.body {
                    let tables = Tables {
                        consts,
                        widths,
                        ret_by_name: &ret_by_name,
                        param_ranges: &empty_params,
                    };
                    let mut w = Walker::new(&files[node.file], &tables, Pass::Summary);
                    seed_param_types(&mut w, f);
                    w.walk_stmts(from, to, true);
                    w.returns
                        .iter()
                        .copied()
                        .reduce(Val::join)
                        .unwrap_or(Val::Top)
                } else {
                    Val::Top
                };
                let new = if round == 2 { node_ret[v].widen(computed) } else { computed };
                if new != node_ret[v] {
                    node_ret[v] = new;
                    changed = true;
                    if name_count[f.name.as_str()] == 1 {
                        ret_by_name.insert(f.name.clone(), new);
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    // Final by-name map: join over all same-named definitions (all
    // summarized by now); annotations stay authoritative per node.
    let mut by_name: HashMap<String, Val> = HashMap::new();
    let mut summarized = 0usize;
    for (v, node) in graph.nodes.iter().enumerate() {
        let f = &files[node.file].fns[node.fn_idx];
        if node_ret[v] != Val::Top {
            summarized += 1;
        }
        by_name
            .entry(f.name.clone())
            .and_modify(|old| *old = old.join(node_ret[v]))
            .or_insert(node_ret[v]);
    }
    (by_name, summarized, comps.len())
}

/// One top-down pass joining every call site's argument values per
/// callee name. Trusted (applied as a parameter environment) only for
/// non-`pub`, non-trait-impl functions, whose call sites are all
/// visible; test bodies participate so a test-only caller can't
/// invalidate the joined range.
fn param_ranges(files: &[ParsedFile], t: &Tables<'_>) -> HashMap<String, Vec<Val>> {
    let mut ranges: HashMap<String, Vec<Val>> = HashMap::new();
    for file in files {
        for f in &file.fns {
            let Some((from, to)) = f.body else { continue };
            let mut w = Walker::new(file, t, Pass::CollectCalls);
            seed_param_types(&mut w, f);
            w.walk_stmts(from, to, false);
            for (callee, args) in w.calls {
                let entry = ranges.entry(callee).or_default();
                for (idx, v) in args.into_iter().enumerate() {
                    if idx < entry.len() {
                        entry[idx] = entry[idx].join(v);
                    } else {
                        entry.push(v);
                    }
                }
            }
        }
    }
    ranges
}

/// Per-rule timing plus everything the driver reports.
pub(crate) struct ValueResult {
    /// `(file index, finding)` pairs across both value rules.
    pub findings: Vec<(usize, RuleFinding)>,
    /// Functions whose return summary is tighter than `Top`.
    pub summarized_fns: usize,
    /// Strongly connected components of the call graph.
    pub sccs: usize,
    /// Shared abstract-interpretation phase (consts, widths, summaries,
    /// parameter ranges), in nanoseconds.
    pub absint_nanos: u128,
    /// Walk time of bit-pack-overflow and tag-range, in nanoseconds.
    pub rule_nanos: [u128; 2],
}

/// Runs both value rules over every library file.
pub(crate) fn value_rules(files: &[ParsedFile], graph: &CallGraph) -> ValueResult {
    let shared = Instant::now();
    let widths = collect_widths(files);
    let empty_consts = HashMap::new();
    let empty_ret = HashMap::new();
    let empty_params = HashMap::new();
    let boot = Tables {
        consts: &empty_consts,
        widths: &widths,
        ret_by_name: &empty_ret,
        param_ranges: &empty_params,
    };
    let consts = collect_consts(files, &boot);
    let (ret_by_name, summarized_fns, sccs) = summarize(files, graph, &consts, &widths);
    let collect_tables = Tables {
        consts: &consts,
        widths: &widths,
        ret_by_name: &ret_by_name,
        param_ranges: &empty_params,
    };
    let params = param_ranges(files, &collect_tables);
    let tables = Tables {
        consts: &consts,
        widths: &widths,
        ret_by_name: &ret_by_name,
        param_ranges: &params,
    };
    let absint_nanos = shared.elapsed().as_nanos();

    let mut findings = Vec::new();
    let mut rule_nanos = [0u128; 2];
    for (slot, pass) in [Pass::Pack, Pass::Tag].into_iter().enumerate() {
        let t0 = Instant::now();
        for (fi, file) in files.iter().enumerate() {
            if file.kind != FileKind::Lib {
                continue;
            }
            for f in &file.fns {
                if f.is_test {
                    continue;
                }
                let Some((from, to)) = f.body else { continue };
                let mut w = Walker::new(file, &tables, pass);
                seed_param_types(&mut w, f);
                seed_params(&mut w, f);
                w.walk_stmts(from, to, false);
                findings.extend(w.findings.into_iter().map(|rf| (fi, rf)));
            }
        }
        rule_nanos[slot] = t0.elapsed().as_nanos();
    }
    ValueResult { findings, summarized_fns, sccs, absint_nanos, rule_nanos }
}

/// Seeds a walker's environment from *declared* parameter types: an
/// unsigned-integer parameter is `[0, 2^w - 1]` by construction, so
/// `%`/`as`-chains over it stay sign-correct (`index % 4095` on a
/// `usize` cannot go negative). Declared types hold for every caller,
/// so all passes apply them; signed and non-scalar types stay `Top`.
fn seed_param_types(w: &mut Walker<'_>, f: &super::outline::FnDecl) {
    for (pat, ty) in &f.params {
        let name = pat
            .strip_prefix("mut")
            .filter(|r| !r.is_empty())
            .unwrap_or(pat);
        if !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        if let Some((width, false)) = type_width(ty) {
            w.env.insert(name.to_owned(), Val::unsigned(width));
        }
    }
}

/// Seeds a check walker's environment with the joined call-site
/// argument ranges — only for functions whose call sites are all
/// visible to the analyzer.
fn seed_params(w: &mut Walker<'_>, f: &super::outline::FnDecl) {
    if f.vis == Vis::Pub || f.in_trait_impl {
        return;
    }
    let params = w.t.param_ranges;
    let Some(ranges) = params.get(&f.name) else { return };
    for (idx, (pat, _ty)) in f.params.iter().enumerate() {
        let name = pat
            .strip_prefix("mut")
            .filter(|r| !r.is_empty())
            .unwrap_or(pat);
        if !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        // An uninformative (`Top`) joined range must not clobber the
        // declared-type seed already in the environment.
        if let Some(v) = ranges.get(idx).filter(|v| **v != Val::Top) {
            w.env.insert(name.to_owned(), *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::analysis::FileKind;

    fn run(srcs: &[&str]) -> Vec<RuleFinding> {
        let files: Vec<ParsedFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                ParsedFile::parse(
                    Path::new(&format!("crates/x{i}/src/lib.rs")),
                    FileKind::Lib,
                    s,
                )
            })
            .collect();
        let graph = CallGraph::build(&files);
        value_rules(&files, &graph)
            .findings
            .into_iter()
            .map(|(_, rf)| rf)
            .collect()
    }

    fn rules(findings: &[RuleFinding]) -> Vec<&'static str> {
        let mut r: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
        r.sort_unstable();
        r.dedup();
        r
    }

    #[test]
    fn domain_ops() {
        let m = Val::Top.and(Val::cst(0xFF));
        assert_eq!(m, Val::Rng { lo: 0, hi: 255, bits: 255 });
        assert_eq!(m.shl(4), Val::Rng { lo: 0, hi: 0xFF0, bits: 0xFF0 });
        assert_eq!(Val::Top.rem(Val::cst(100)), Val::rng(-99, 99));
        assert_eq!(Val::rng(0, 7).join(Val::rng(4, 20)), Val::rng(0, 20));
        assert_eq!(Val::rng(0, 7).widen(Val::rng(0, 8)), Val::Top);
        assert_eq!(Val::rng(0, 9).widen(Val::rng(1, 8)), Val::rng(0, 9));
        assert_eq!(Val::cst(300).cast_unsigned(8), Val::unsigned(8));
        assert_eq!(Val::cst(200).cast_unsigned(8), Val::cst(200));
    }

    #[test]
    fn parse_int_forms() {
        assert_eq!(parse_int("42"), Some(42));
        assert_eq!(parse_int("0x1F"), Some(31));
        assert_eq!(parse_int("0b101"), Some(5));
        assert_eq!(parse_int("4_096u64"), Some(4096));
        assert_eq!(parse_int("0.95"), None);
    }

    #[test]
    fn tag_range_flags_wide_value_and_accepts_masked() {
        let f = run(&["// bits: 12\n\
                       pub struct Asid(u16);\n\
                       pub fn bad(id: usize) { let _ = Asid((id as u16 + 1) as u16); }\n\
                       pub fn good(id: usize) { let _ = Asid((id & 0xFFF) as u16); }\n"]);
        assert_eq!(rules(&f), ["tag-range"]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn pack_overlap_and_slot() {
        let f = run(&["pub fn bad(a: u64, b: u64) -> u64 { (a & 0xFF) | ((b & 0xFF) << 4) }\n\
                       pub fn slot(x: u64, y: u64) -> u64 { ((y & 0x1FF)) | ((x % 100) << 8) }\n\
                       pub fn ok(a: u64, b: u64) -> u64 { (a & 0xF) | ((b & 0xFF) << 4) }\n"]);
        let packs: Vec<&RuleFinding> =
            f.iter().filter(|x| x.rule == "bit-pack-overflow").collect();
        assert!(packs.iter().any(|x| x.line == 1), "{f:?}");
        assert!(packs.iter().any(|x| x.line == 2), "{f:?}");
        assert!(!packs.iter().any(|x| x.line == 3), "{f:?}");
    }

    #[test]
    fn assert_narrowing_proves_packing() {
        let f = run(&["const PAGE_SHIFT: u32 = 12;\n\
                       pub fn pack(page: u64, offset: u64) -> u64 {\n\
                           assert!(offset < (1 << PAGE_SHIFT));\n\
                           (page << PAGE_SHIFT) | offset\n\
                       }\n"]);
        assert!(rules(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn summary_flows_through_calls() {
        let f = run(&["fn kind_code() -> u64 { 3 }\n\
                       pub fn pack(off: u64) -> u64 { (off << 2) | kind_code() }\n\
                       fn wide_code() -> u64 { 9 }\n\
                       pub fn bad(off: u64) -> u64 { (off << 2) | wide_code() }\n"]);
        // The 4-bit constant 9 under a 2-bit slot trips both the slot
        // check and (against the type-seeded `off << 2` mask) the
        // overlap check — but only on the `wide_code` line.
        let packs: Vec<&RuleFinding> =
            f.iter().filter(|x| x.rule == "bit-pack-overflow").collect();
        assert!(!packs.is_empty(), "{f:?}");
        assert!(packs.iter().all(|x| x.line == 4), "{f:?}");
    }

    #[test]
    fn fn_bits_annotation_overrides_opaque_body() {
        let f = run(&["// bits: 2\n\
                       pub fn encode(x: u64) -> u64 { opaque(x) }\n\
                       fn opaque(x: u64) -> u64 { x }\n\
                       pub fn pack(off: u64) -> u64 { (off << 2) | encode(off) }\n"]);
        assert!(rules(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn checked_constructor_and_wrapping_index_are_clean() {
        // `try_new`'s if-condition narrows the type-seeded `[0, 65535]`
        // parameter; `for_index`'s `%` stays non-negative because the
        // `usize` parameter is seeded unsigned.
        let f = run(&["// bits: 12\n\
                       pub struct Asid(u16);\n\
                       pub fn try_new(raw: u16) -> Option<Asid> {\n\
                           if raw < 4096 { Some(Asid(raw)) } else { None }\n\
                       }\n\
                       pub fn for_index(index: usize) -> Asid {\n\
                           Asid((index % 4095) as u16 + 1)\n\
                       }\n"]);
        assert!(rules(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn param_ranges_reach_private_helpers() {
        let f = run(&["// bits: 12\n\
                       pub struct Tag(u16);\n\
                       fn make(v: u64) -> u64 { let t = Tag(v as u16); 0 }\n\
                       pub fn caller() -> u64 { make(70_000) }\n"]);
        let tags: Vec<&RuleFinding> = f.iter().filter(|x| x.rule == "tag-range").collect();
        assert_eq!(tags.len(), 1, "{f:?}");
        assert_eq!(tags[0].line, 3);
    }

    #[test]
    fn loops_widen_instead_of_underestimating() {
        // `x` grows without bound in the loop: a naive linear walk would
        // keep its initial `0..=0`; the loop join must widen it to `Top`.
        let grown = summary_of(
            "pub fn grow(n: u64) -> usize {\n\
               let mut x = 0usize;\n\
               for _i in 0..n { x += 1; }\n\
               x\n\
             }\n",
            "grow",
        );
        assert_eq!(grown, Val::Top);
        let once = summary_of(
            "pub fn once() -> usize { let mut x = 0usize; x += 1; x }\n",
            "once",
        );
        assert_eq!(once, Val::cst(1));
    }

    #[test]
    fn pre_pr8_asid_overflow_shape_is_flagged() {
        // The exact shipped bug: `Asid::new(id as u16 + 1)` wraps past
        // the 12-bit capacity for id ≥ 4095.
        let f = run(&["// bits: 12\n\
                       pub struct Asid(u16);\n\
                       impl Asid { pub fn new(raw: u16) -> Asid { Asid(raw) } }\n\
                       pub fn intern(id: usize) -> Asid { Asid::new(id as u16 + 1) }\n"]);
        let tags: Vec<&RuleFinding> = f.iter().filter(|x| x.rule == "tag-range").collect();
        assert!(tags.iter().any(|t| t.line == 4), "{f:?}");
    }

    /// Return summary of `name` in a one-file workspace.
    fn summary_of(src: &str, name: &str) -> Val {
        let files = [ParsedFile::parse(Path::new("crates/x/src/lib.rs"), FileKind::Lib, src)];
        let graph = CallGraph::build(&files);
        let widths = collect_widths(&files);
        let (by_name, _, _) = summarize(&files, &graph, &HashMap::new(), &widths);
        by_name.get(name).copied().unwrap_or(Val::Top)
    }

    #[test]
    fn statement_attributes_do_not_hide_the_binding() {
        let bare = summary_of("pub fn low(x: u64) -> u64 { let y = x & 0xFF; y }\n", "low");
        assert_eq!(bare, Val::Rng { lo: 0, hi: 255, bits: 255 });
        let attributed = summary_of(
            "pub fn low(x: u64) -> u64 {\n\
               #[expect(clippy::expect_used, reason = \"why\")]\n\
               let y = x & 0xFF;\n\
               y\n\
             }\n",
            "low",
        );
        assert_eq!(attributed, bare);
    }
}
