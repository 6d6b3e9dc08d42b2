//! Workspace symbol table.
//!
//! Collects every module-level declaration from library files into one
//! table keyed by simple name, together with the crate each symbol lives
//! in. The table powers the cross-crate dead-code rule (reference counts
//! resolve against it) and gives `--analyze` its summary statistics.
//!
//! Resolution is deliberately name-based: the analyzer has no type
//! inference, so two symbols sharing a simple name alias each other and a
//! reference to either keeps both alive. That over-approximation is the
//! right bias for an advisory dead-code rule — it can miss dead symbols,
//! but what it reports really is unreferenced by simple-name match
//! anywhere in the workspace.

use std::collections::HashMap;
use std::path::Path;

use super::outline::{DeclKind, ParsedFile, Vis};
use super::FileKind;

/// Name of the crate (workspace member directory) a path belongs to.
///
/// `crates/core/src/mix.rs` → `core`; `compat/rand/src/lib.rs` →
/// `compat/rand`; anything else → its first path component.
pub(crate) fn crate_of(path: &Path) -> String {
    let comps: Vec<&str> = path
        .iter()
        .filter_map(|c| c.to_str())
        .collect();
    match comps.as_slice() {
        ["crates", name, ..] => (*name).to_owned(),
        ["compat", name, ..] => format!("compat/{name}"),
        [first, ..] => (*first).to_owned(),
        [] => String::new(),
    }
}

/// One module-level symbol in the workspace table.
#[derive(Debug, Clone)]
pub(crate) struct Symbol {
    /// Simple name.
    pub name: String,
    /// Declaration kind.
    pub kind: DeclKind,
    /// Visibility at the declaration.
    pub vis: Vis,
    /// Owning crate (see [`crate_of`]).
    pub crate_name: String,
    /// Index of the declaring file in the analyzed file list.
    pub file: usize,
    /// 1-based declaration line.
    pub line: u32,
}

/// Symbol table over all parsed library files.
#[derive(Debug, Default)]
pub(crate) struct SymbolTable {
    /// All symbols, in file order.
    pub syms: Vec<Symbol>,
    /// Simple name → indices into `syms`.
    pub by_name: HashMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Builds the table from parsed files. Only library files contribute
    /// symbols (binaries own their items; tests are scaffolding), and
    /// `#[cfg(test)]` declarations are skipped.
    pub fn build(files: &[ParsedFile]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (fi, file) in files.iter().enumerate() {
            if file.kind != FileKind::Lib {
                continue;
            }
            let crate_name = crate_of(&file.path);
            for item in &file.items {
                if item.is_test {
                    continue;
                }
                let idx = table.syms.len();
                table.syms.push(Symbol {
                    name: item.name.clone(),
                    kind: item.kind,
                    vis: item.vis,
                    crate_name: crate_name.clone(),
                    file: fi,
                    line: item.line,
                });
                table.by_name.entry(item.name.clone()).or_default().push(idx);
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn crate_names() {
        assert_eq!(crate_of(Path::new("crates/core/src/mix.rs")), "core");
        assert_eq!(crate_of(Path::new("compat/rand/src/lib.rs")), "compat/rand");
        assert_eq!(crate_of(Path::new("xtask/src/main.rs")), "xtask");
    }

    #[test]
    fn builds_from_lib_files_only() {
        let lib = ParsedFile::parse(
            &PathBuf::from("crates/a/src/lib.rs"),
            FileKind::Lib,
            "pub struct Live;\n#[cfg(test)]\nmod tests { pub fn t() {} }\n",
        );
        let bin = ParsedFile::parse(
            &PathBuf::from("crates/a/src/main.rs"),
            FileKind::Bin,
            "pub fn binside() {}\n",
        );
        let table = SymbolTable::build(&[lib, bin]);
        let names: Vec<&str> = table.syms.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["Live"]);
        assert_eq!(table.syms[0].crate_name, "a");
        assert!(table.by_name.contains_key("Live"));
    }
}
