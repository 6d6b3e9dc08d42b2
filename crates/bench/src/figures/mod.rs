//! The paper's figures and in-text experiments, one module each. Every
//! module's `run` prints its tables to stdout; [`FIGURES`] lists them in
//! the order `reproduce` runs them.

use crate::Scale;

pub mod ablations;
pub mod context_switches;
pub mod fig01;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod index_bits;
pub mod invalidations;
pub mod scaling;

/// A figure's name and the function that prints it at a scale.
pub type Figure = (&'static str, fn(Scale));

/// Every figure and in-text experiment by name, in reproduction order.
pub const FIGURES: [Figure; 16] = [
    ("fig01", fig01::run),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("index_bits", index_bits::run),
    ("scaling", scaling::run),
    ("ablations", ablations::run),
    ("invalidations", invalidations::run),
    ("context_switches", context_switches::run),
];

/// A contiguity-CDF table row: `hog` as a percentage, then the share of
/// superpage translations in `runs` that live in runs of at most each of
/// `points` pages.
fn cdf_row(hog: f64, runs: &[u64], points: &[u64]) -> Vec<String> {
    let total: u64 = runs.iter().sum();
    let mut row = vec![format!("{:.0}%", hog * 100.0)];
    row.extend(points.iter().map(|&p| {
        let within: u64 = runs.iter().filter(|&&r| r <= p).sum();
        let share = if total == 0 {
            0.0
        } else {
            within as f64 / total as f64
        };
        format!("{share:.2}")
    }));
    row
}
