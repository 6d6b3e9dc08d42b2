//! The `mixtlb-check` command line: arguments it does not know are an
//! internal error (exit 2) with the usage line, never a silent no-op.

use std::process::Command;

#[test]
fn unknown_arguments_print_usage_and_exit_2() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for args in [
        &["--lint"][..],
        &["--analyze", root, "--locks"],
        &["--analyze", root, "--baseline", "check-baseline.json"],
        &["--analyze", root, "--update-baseline"],
        &["--analyze", root, "--format", "sarif"],
        &["--model", "--bogus"],
        &["--list-rules", "extra"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mixtlb-check"))
            .args(args)
            .output()
            .expect("run mixtlb-check");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: mixtlb-check"), "{args:?}: {stderr}");
    }
}
