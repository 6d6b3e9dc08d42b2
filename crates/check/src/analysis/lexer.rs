//! Token stream over comment/string-masked Rust source.
//!
//! The structural analyzers need operator positions, identifier
//! boundaries, and balanced delimiter skipping. [`mask_code`] first
//! blanks comments and literals; this lexer turns its output into a
//! flat token vector — identifiers, literals, and punctuation with
//! 1-based line numbers — deliberately *not* a full Rust lexer (strings,
//! chars and comments are already blanked by the masking pass, lifetimes
//! reduce to `'` + ident).

use std::fmt;

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (`fn`, `vpn`, `u32`, …).
    Ident,
    /// Numeric literal (other literal kinds are masked away upstream).
    Lit,
    /// Punctuation, multi-character operators merged (`<<`, `::`, `=>`…).
    Punct,
}

/// One token of masked source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Source text of the token.
    pub text: String,
    /// 1-based line number.
    pub line: u32,
}

impl Tok {
    /// `true` when the token is exactly the given punctuation.
    pub fn is(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }

    /// `true` when the token is exactly the given identifier/keyword.
    pub fn is_ident(&self, w: &str) -> bool {
        self.kind == TokKind::Ident && self.text == w
    }

    /// `true` when the token can end an expression (so a following binary
    /// operator really is binary, not a unary prefix or type syntax).
    pub fn ends_expr(&self) -> bool {
        match self.kind {
            TokKind::Ident => !matches!(
                self.text.as_str(),
                "return" | "break" | "continue" | "in" | "if" | "else" | "match" | "as"
                    | "mut" | "ref" | "move" | "let" | "where" | "yield"
            ),
            TokKind::Lit => true,
            TokKind::Punct => matches!(self.text.as_str(), ")" | "]" | "}"),
        }
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Multi-character operators, longest first (maximal munch).
const MULTI: [&str; 24] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "..",
];

/// Replaces comments, string literals and char literals with spaces
/// (preserving byte offsets and newlines) so rules never fire on prose.
pub(crate) fn mask_code(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = source.as_bytes().to_vec();
    let mut i = 0;
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = source[i..]
                    .find('\n')
                    .map(|o| i + o)
                    .unwrap_or(bytes.len());
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comments, as in Rust.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j.min(bytes.len()));
                i = j;
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // Raw string r"…" / r#"…"# (any hash count).
                let mut hashes = 0;
                let mut j = i + 1;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) != Some(&b'"') {
                    i += 1;
                    continue;
                }
                j += 1;
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                while j < bytes.len() {
                    if bytes[j..].starts_with(&closer) {
                        j += closer.len();
                        break;
                    }
                    j += 1;
                }
                blank(&mut out, i, j.min(bytes.len()));
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < bytes.len() {
                    match bytes[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                blank(&mut out, i, j.min(bytes.len()));
                i = j;
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes with `'`
                // within a few bytes; a lifetime never does.
                let close = if bytes.get(i + 1) == Some(&b'\\') {
                    // Escaped char: find the next quote.
                    source[i + 2..].find('\'').map(|o| i + 2 + o)
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    Some(i + 2)
                } else {
                    None // lifetime
                };
                match close {
                    Some(end) => {
                        blank(&mut out, i, end + 1);
                        i = end + 1;
                    }
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    // The masking only writes ASCII spaces over non-newline bytes, so the
    // result stays valid UTF-8 except where a multi-byte char was partially
    // blanked — blank runs are whole literals/comments, so boundaries are
    // char boundaries. Rebuild losslessly.
    String::from_utf8(out).unwrap_or_else(|e| {
        String::from_utf8_lossy(e.as_bytes()).into_owned()
    })
}

/// Tokenizes masked source (see module docs). Whitespace separates tokens
/// and is otherwise dropped; blanked literal/comment regions therefore
/// vanish without shifting the line numbers of what remains.
pub(crate) fn tokenize(masked: &str) -> Vec<Tok> {
    let bytes = masked.as_bytes();
    let mut toks = Vec::with_capacity(masked.len() / 4);
    let mut line: u32 = 1;
    let mut i = 0;
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: masked[start..i].to_owned(),
                line,
            });
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            // Float continuation: `0.95` (but not `0..n` ranges or method
            // calls like `1.min(x)` — those need a digit right after the
            // dot and `1.min` has none).
            if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                i += 1;
                while i < bytes.len() && is_ident(bytes[i]) {
                    i += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Lit,
                text: masked[start..i].to_owned(),
                line,
            });
            continue;
        }
        // Punctuation: maximal munch over the multi-char table.
        let rest = &masked[i..];
        let multi = MULTI.iter().find(|m| rest.starts_with(**m));
        let text = match multi {
            Some(m) => (*m).to_owned(),
            None => {
                // Safe: non-ASCII bytes only survive masking inside
                // identifiers-by-unicode, which this workspace forbids;
                // take one whole char to stay on a boundary.
                let ch_len = rest.chars().next().map(char::len_utf8).unwrap_or(1);
                rest[..ch_len].to_owned()
            }
        };
        i += text.len();
        toks.push(Tok {
            kind: TokKind::Punct,
            text,
            line,
        });
    }
    toks
}

/// Index just past the delimiter group opening at `open` (which must hold
/// `(`, `[`, or `{`); tolerant of unbalanced input (returns `toks.len()`).
pub(crate) fn skip_group(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Index just past a generic-argument list opening at `open` (which must
/// hold `<`). Handles merged `>>` closers and nested delimiter groups.
pub(crate) fn skip_generics(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "<" | "<<" => depth += if toks[i].text == "<<" { 2 } else { 1 },
            ">" | ">>" => {
                depth -= if toks[i].text == ">>" { 2 } else { 1 };
                if depth <= 0 {
                    return i + 1;
                }
            }
            "(" | "[" | "{" => i = skip_group(toks, i).saturating_sub(1),
            ";" => return i, // safety net: a stray `<` was a comparison
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        tokenize(&mask_code(src)).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let x = \"panic!\"; // panic!\n/* panic! */ let y = 'p';\n";
        let masked = mask_code(src);
        assert!(!masked.contains("panic"));
        assert!(masked.contains("let x ="));
        assert!(masked.contains("let y ="));
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn masking_keeps_lifetimes() {
        let masked = mask_code("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(masked.contains("'a"));
    }

    #[test]
    fn masking_handles_raw_strings() {
        let masked = mask_code(r##"let s = r#"unwrap() inside"#; let t = 1;"##);
        assert!(!masked.contains("unwrap"));
        assert!(masked.contains("let t = 1;"));
    }

    #[test]
    fn merges_multichar_operators() {
        assert_eq!(
            texts("a <<= b >> c :: d => e .. f ..= g"),
            ["a", "<<=", "b", ">>", "c", "::", "d", "=>", "e", "..", "f", "..=", "g"]
        );
    }

    #[test]
    fn lexes_floats_and_ranges() {
        assert_eq!(texts("0.95 + 1"), ["0.95", "+", "1"]);
        assert_eq!(texts("0..n"), ["0", "..", "n"]);
        assert_eq!(texts("4_096u64"), ["4_096u64"]);
    }

    #[test]
    fn line_numbers_survive_masking() {
        let toks = tokenize(&mask_code("let a = 1; // comment\nlet b = 2;\n"));
        let b = toks.iter().find(|t| t.is_ident("b")).expect("b");
        assert_eq!(b.line, 2);
    }

    #[test]
    fn group_and_generics_skipping() {
        let toks = tokenize(&mask_code("f(a, (b, c))[0] < x >> y"));
        let after = skip_group(&toks, 1);
        assert_eq!(toks[after].text, "[");
        let toks = tokenize(&mask_code("<T: Into<Vec<u8>>> ( )"));
        let after = skip_generics(&toks, 0);
        assert_eq!(toks[after].text, "(");
    }

    #[test]
    fn expression_enders() {
        let toks = tokenize(&mask_code("x ) ] } return ("));
        assert!(toks[0].ends_expr());
        assert!(toks[1].ends_expr());
        assert!(toks[2].ends_expr());
        assert!(toks[3].ends_expr());
        assert!(!toks[4].ends_expr());
        assert!(!toks[5].ends_expr());
    }
}
