//! Degenerate command-line arguments get a usage error, not a panic.
//!
//! Each row runs a binary with arguments (or a `MIXTLB_SCALE`) it must
//! reject and asserts exit code 2 (the binaries' usage-error code), a
//! message on stderr and no panic text.

use std::path::Path;
use std::process::Command;

/// Runs `exe` with `args` and checks the clean usage-error contract,
/// describing the first breach.
fn usage_error(exe: &str, args: &[&str]) -> Result<(), String> {
    usage_error_in(Command::new(exe), exe, args)
}

/// [`usage_error`] for a prepared command (environment already set).
fn usage_error_in(mut cmd: Command, exe: &str, args: &[&str]) -> Result<(), String> {
    let name = Path::new(exe)
        .file_name()
        .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let call = format!("{name} {}", args.join(" "));
    let out = cmd
        .args(args)
        .output()
        .map_err(|e| format!("{call}: cannot run: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if out.status.code() != Some(2) {
        return Err(format!(
            "{call}: exit {:?}, stderr {stderr}",
            out.status.code()
        ));
    }
    if stderr.trim().is_empty() {
        return Err(format!("{call}: no message on stderr"));
    }
    if stderr.contains("panicked") {
        return Err(format!("{call}: {stderr}"));
    }
    Ok(())
}

#[test]
fn tracectl_rejects_footprints_outside_the_address_space() {
    let exe = env!("CARGO_BIN_EXE_tracectl");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("degenerate_args.mtc2");
    let path = path.to_string_lossy();
    // The trace region starts at 1 GB, so 2^28 - 2^10 MB reach exactly
    // the top of the 48-bit address space; 2^44 MB is 2^64 bytes, one past
    // what a u64 byte count can hold.
    for footprint_mb in ["0", "268434433", "17592186044416", "18446744073709551615"] {
        for command in ["record", "verify"] {
            let args = [command, "gups", "1000", &path, footprint_mb];
            assert_eq!(usage_error(exe, &args), Ok(()));
        }
    }
    assert!(
        !Path::new(&*path).exists(),
        "a rejected record wrote {path}"
    );
    let out = Command::new(exe)
        .args(["record", "gups", "10", &path, "268434432"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "the largest footprint that fits: {out:?}"
    );
    std::fs::remove_file(&*path).unwrap();
}

#[test]
fn smp_rejects_zero_cores() {
    let exe = env!("CARGO_BIN_EXE_smp");
    assert_eq!(usage_error(exe, &["--cores", "0"]), Ok(()));
    assert_eq!(
        usage_error(exe, &["--cores", "0", "--spaces", "1000"]),
        Ok(())
    );
}

#[test]
fn unknown_scale_is_a_usage_error() {
    // A typo must not fall back to the default scale: `reproduce` would
    // otherwise spend minutes on a std run nobody asked for.
    for exe in [env!("CARGO_BIN_EXE_reproduce"), env!("CARGO_BIN_EXE_fig14")] {
        for scale in ["quik", "", "STD"] {
            let mut cmd = Command::new(exe);
            cmd.env("MIXTLB_SCALE", scale);
            assert_eq!(usage_error_in(cmd, exe, &[]), Ok(()), "MIXTLB_SCALE={scale:?}");
        }
    }
}
