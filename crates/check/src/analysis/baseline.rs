//! Finding fingerprints and the committed baseline file.
//!
//! `--analyze` gates CI at **zero new findings**, which requires telling
//! "new" from "known". Each finding gets a *fingerprint* that survives
//! unrelated edits: an FNV-1a hash of the rule id, the workspace-relative
//! path, the whitespace-trimmed source line text, and an occurrence index
//! (the n-th identical line in that file for that rule). Line *numbers*
//! are deliberately excluded — inserting a comment above a known finding
//! must not make it "new" — while the occurrence index keeps two
//! identical offending lines distinct.
//!
//! The baseline file (`check-baseline.json`, committed at the workspace
//! root) lists accepted fingerprints with enough context to review them.
//! It is the *only* suppression path for analyzer findings — there are no
//! inline markers — so `git log check-baseline.json` is the complete
//! audit trail of accepted exceptions. `--update-baseline` rewrites it
//! from the current findings; the diff is what code review sees.
//!
//! The format is a strict subset of JSON written and read by this module
//! (the workspace is offline: no serde). The reader is tolerant — it
//! extracts `"fingerprint": "…"` string fields and ignores everything
//! else — so hand-edits that keep that shape are fine.

use std::fs;
use std::io;
use std::path::Path;

use super::Finding;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Computes the stable fingerprint of a finding.
///
/// `line_text` is the source line the finding points at (trimmed here);
/// `occurrence` distinguishes repeated identical lines in one file.
pub fn fingerprint(rule: &str, path: &str, line_text: &str, occurrence: usize) -> String {
    let key = format!("{rule}|{path}|{}|{occurrence}", line_text.trim());
    format!("{:016x}", fnv1a(key.as_bytes()))
}

/// Two distinct findings whose keys hash to the same FNV-1a
/// fingerprint.
///
/// Occurrence indexing makes every fingerprint *key* unique by
/// construction, so equal fingerprints always mean a genuine hash
/// collision — and baselining one of the two findings would silently
/// suppress the other. The analyzer refuses to apply or rewrite a
/// baseline until the collision is resolved (editing either offending
/// line changes its key and breaks the tie).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintCollision {
    /// The shared 64-bit fingerprint (hex).
    pub fingerprint: String,
    /// Rendered form of the first colliding finding.
    pub first: String,
    /// Rendered form of the second colliding finding.
    pub second: String,
}

impl std::fmt::Display for FingerprintCollision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fingerprint {} identifies two distinct findings:\n  {}\n  {}\n\
             baselining either would silently suppress the other; edit one \
             of the offending lines to break the hash tie",
            self.fingerprint, self.first, self.second
        )
    }
}

/// Scans live findings for a fingerprint shared by two of them.
pub fn find_collision(findings: &[Finding]) -> Option<FingerprintCollision> {
    let mut seen: std::collections::HashMap<&str, &Finding> = std::collections::HashMap::new();
    for f in findings {
        if let Some(prev) = seen.insert(f.fingerprint.as_str(), f) {
            return Some(FingerprintCollision {
                fingerprint: f.fingerprint.clone(),
                first: prev.to_string(),
                second: f.to_string(),
            });
        }
    }
    None
}

/// The set of accepted (baselined) findings.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    fingerprints: Vec<String>,
}

impl Baseline {
    /// Loads a baseline file. A missing file is an empty baseline (the
    /// clean-tree case needs no file at all).
    pub fn load(path: &Path) -> io::Result<Baseline> {
        match fs::read_to_string(path) {
            Ok(text) => Ok(Baseline::parse(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(e),
        }
    }

    /// Parses baseline text: every `"fingerprint": "…"` value.
    pub fn parse(text: &str) -> Baseline {
        let mut fingerprints = Vec::new();
        let key = "\"fingerprint\"";
        let mut search = 0;
        while let Some(off) = text[search..].find(key) {
            let after = search + off + key.len();
            let rest = &text[after..];
            // Skip `: "` with arbitrary whitespace, then take up to `"`.
            let value = rest
                .find('"')
                .map(|q| &rest[q + 1..])
                .and_then(|v| v.find('"').map(|e| &v[..e]));
            if let Some(v) = value {
                fingerprints.push(v.to_owned());
            }
            search = after;
        }
        Baseline { fingerprints }
    }

    /// Number of accepted fingerprints.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// `true` when no fingerprints are accepted.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// Is this fingerprint accepted?
    pub fn contains(&self, fp: &str) -> bool {
        self.fingerprints.iter().any(|f| f == fp)
    }

    /// Serializes findings as a fresh baseline file body.
    pub fn render(findings: &[Finding]) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"tool\": \"mixtlb-check --analyze\",\n  \"entries\": [");
        for (i, f) in findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\n      \"fingerprint\": \"{}\",\n      \"rule\": \"{}\",\n      \"path\": \"{}\",\n      \"line\": {},\n      \"message\": \"{}\"\n    }}",
                escape(&f.fingerprint),
                escape(f.rule),
                escape(&f.path.display().to_string()),
                f.line,
                escape(&f.message)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes findings as the new baseline at `path`.
    pub fn write(path: &Path, findings: &[Finding]) -> io::Result<()> {
        fs::write(path, Baseline::render(findings))
    }
}

/// Minimal JSON string escaping (the SARIF writer shares it).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn fingerprints_ignore_line_numbers_but_not_occurrences() {
        let a = fingerprint("addr-arith", "crates/x/src/a.rs", "  x << 9;", 0);
        let b = fingerprint("addr-arith", "crates/x/src/a.rs", "x << 9;", 0);
        assert_eq!(a, b, "trimming makes indentation irrelevant");
        let c = fingerprint("addr-arith", "crates/x/src/a.rs", "x << 9;", 1);
        assert_ne!(a, c, "repeated identical lines stay distinct");
        let d = fingerprint("truncating-cast", "crates/x/src/a.rs", "x << 9;", 0);
        assert_ne!(a, d, "rule id participates");
    }

    #[test]
    fn round_trip() {
        let findings = vec![Finding {
            rule: "addr-arith",
            path: PathBuf::from("crates/os/src/kernel.rs"),
            line: 130,
            message: "raw shift with \"quotes\"".to_owned(),
            fingerprint: fingerprint("addr-arith", "crates/os/src/kernel.rs", "x << 11", 0),
        }];
        let text = Baseline::render(&findings);
        let parsed = Baseline::parse(&text);
        assert_eq!(parsed.len(), 1);
        assert!(parsed.contains(&findings[0].fingerprint));
        assert!(!parsed.contains("ffffffffffffffff"));
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/check-baseline.json"))
            .unwrap_or_default();
        assert!(b.is_empty());
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    fn finding(rule: &'static str, line: usize, fp: &str) -> Finding {
        Finding {
            rule,
            path: PathBuf::from("crates/x/src/a.rs"),
            line,
            message: format!("seeded finding at line {line}"),
            fingerprint: fp.to_owned(),
        }
    }

    /// A crafted collision: two distinct findings carrying the same
    /// 64-bit fingerprint (the occurrence index makes this impossible
    /// except through a genuine FNV-1a hash collision, which is what
    /// the detector exists for).
    #[test]
    fn crafted_collision_is_detected_and_named() {
        let live = vec![
            finding("addr-arith", 10, "00000000deadbeef"),
            finding("truncating-cast", 20, "00000000c0ffee00"),
            finding("tag-range", 30, "00000000deadbeef"),
        ];
        let c = find_collision(&live).expect("collision must be found");
        assert_eq!(c.fingerprint, "00000000deadbeef");
        assert!(c.first.contains("a.rs:10"), "{c}");
        assert!(c.second.contains("a.rs:30"), "{c}");
        let msg = c.to_string();
        assert!(msg.contains("silently suppress"), "{msg}");
    }

    #[test]
    fn distinct_fingerprints_do_not_collide() {
        let live = vec![
            finding("addr-arith", 10, "00000000deadbeef"),
            finding("addr-arith", 11, "00000000deadbef0"),
        ];
        assert_eq!(find_collision(&live), None);
    }
}
