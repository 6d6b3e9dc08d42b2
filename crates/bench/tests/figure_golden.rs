//! `reproduce` run on named figures prints exactly those figures'
//! sections of the committed quick-scale golden, `reproduce_quick.out`.
//! The figures are four of the fastest, so this stays a unit-test-sized
//! run in a debug build; the whole golden is diffed by `scripts/ci.sh`.

use std::process::Command;

/// The `################ <name> ################` section of `golden`,
/// from the blank line before its header to the blank line before the
/// next one.
fn section<'a>(golden: &'a str, name: &str) -> Option<&'a str> {
    let header = format!("\n################ {name} ################\n");
    let start = golden.find(&header)?;
    let end = golden[start + 1..]
        .find("\n################ ")
        .map_or(golden.len(), |at| start + 1 + at);
    Some(&golden[start..end])
}

#[test]
fn named_figures_print_their_golden_sections() {
    let golden = include_str!("../../../reproduce_quick.out");
    let names = ["fig13", "fig17", "index_bits", "invalidations"];
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .env("MIXTLB_SCALE", "quick")
        .args(names)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let expected: Option<String> = names.iter().map(|name| section(golden, name)).collect();
    let expected = expected.unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}
