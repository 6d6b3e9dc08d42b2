//! Offline, API-compatible stub of the subset of [`criterion`] this
//! workspace's benches use.
//!
//! The container cannot reach a cargo registry, so the real `criterion`
//! crate is unavailable. This stub keeps `benches/*.rs` compiling and gives
//! a serviceable `cargo bench` experience: each benchmark is warmed up, then
//! timed for a fixed wall-clock budget, and the mean ns/iteration is printed.
//! There is no statistical analysis, outlier rejection, or HTML report.
//!
//! [`criterion`]: https://crates.io/crates/criterion

use std::time::{Duration, Instant};

/// Re-export of the standard opaque value barrier.
pub use std::hint::black_box;

/// Per-benchmark measurement loop.
pub struct Bencher {
    /// Filled in by [`Bencher::iter`]: (iterations, total elapsed).
    measurement: Option<(u64, Duration)>,
    sample_budget: Duration,
}

impl Bencher {
    fn new(sample_budget: Duration) -> Bencher {
        Bencher {
            measurement: None,
            sample_budget,
        }
    }

    /// Times `routine`, storing the mean over as many iterations as fit in
    /// the sample budget.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up and per-iteration estimate.
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        loop {
            black_box(routine());
            warmup_iters += 1;
            if warmup_start.elapsed() >= self.sample_budget / 4 || warmup_iters >= 1_000 {
                break;
            }
        }
        let per_iter = warmup_start.elapsed() / warmup_iters as u32;
        let target = (self.sample_budget.as_nanos() / per_iter.as_nanos().max(1)) as u64;
        let iters = target.clamp(1, 10_000_000);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.measurement = Some((iters, start.elapsed()));
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Adjusts the number of samples (accepted for API compatibility; the
    /// stub uses a wall-clock budget instead).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        // Smaller requested sample counts shrink the time budget.
        self.criterion.sample_budget = if n <= 10 {
            Duration::from_millis(50)
        } else {
            Duration::from_millis(200)
        };
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<S: AsRef<str>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.as_ref());
        self.criterion.run_one(&full, f);
        self
    }

    /// Ends the group (no-op in the stub).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
pub struct Criterion {
    sample_budget: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_budget: Duration::from_millis(200),
        }
    }
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            criterion: self,
        }
    }

    /// Runs a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run_one(name, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        let mut b = Bencher::new(self.sample_budget);
        f(&mut b);
        match b.measurement {
            Some((iters, elapsed)) => {
                let ns = elapsed.as_nanos() as f64 / iters as f64;
                println!("bench {name:<40} {ns:>14.1} ns/iter  ({iters} iters)");
            }
            None => println!("bench {name:<40} (no measurement: Bencher::iter never called)"),
        }
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        let mut group = c.benchmark_group("stub");
        group.sample_size(10);
        group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2)));
        group.finish();
    }

    criterion_group!(benches, trivial);

    #[test]
    fn runs_without_panicking() {
        benches();
    }
}
