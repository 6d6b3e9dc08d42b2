//! Runs every figure and in-text experiment in one process — the one-shot
//! "regenerate the paper" entry point — or only the figures named as
//! arguments, in the order given.
//!
//! ```text
//! MIXTLB_SCALE=std cargo run --release -p mixtlb-bench --bin reproduce [fig14 fig16 ...]
//! ```
//!
//! An unknown `MIXTLB_SCALE` or figure name exits with code 2 before any
//! figure runs.

use mixtlb_bench::figures::{Figure, FIGURES};
use mixtlb_bench::Scale;

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| usage_error(&e));
    let names: Vec<_> = std::env::args_os().skip(1).collect();
    let chosen: Vec<Figure> = if names.is_empty() {
        FIGURES.to_vec()
    } else {
        let known = FIGURES.map(|(name, _)| name).join(" ");
        let find = |arg: &std::ffi::OsString| {
            let figure = FIGURES.iter().find(|(name, _)| arg.to_str() == Some(name));
            figure.copied().unwrap_or_else(|| {
                let arg = arg.to_string_lossy();
                usage_error(&format!(
                    "reproduce: no figure {arg:?}; expected one of: {known}"
                ))
            })
        };
        names.iter().map(find).collect()
    };
    for (name, run) in chosen {
        println!("\n################ {name} ################\n");
        run(scale);
    }
    if names.is_empty() {
        println!("\nAll experiments completed.");
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}
