//! Runs every figure and in-text experiment in sequence — the one-shot
//! "regenerate the paper" entry point.
//!
//! ```text
//! MIXTLB_SCALE=std cargo run --release -p mixtlb-bench --bin reproduce
//! ```

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "the driver's `main` is its own error boundary: a figure binary that cannot run or fails aborts the reproduction"
)]

use std::process::Command;

fn main() {
    let figures = [
        "fig01", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
        "fig17", "fig18", "index_bits", "scaling", "ablations", "invalidations",
        "context_switches",
    ];
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("exe directory");
    for figure in figures {
        let path = dir.join(figure);
        println!("\n################ {figure} ################\n");
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {figure}: {e}"));
        if !status.success() {
            eprintln!("{figure} exited with {status}");
            std::process::exit(1);
        }
    }
    println!("\nAll experiments completed.");
}
