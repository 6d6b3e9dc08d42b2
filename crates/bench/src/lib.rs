//! The benchmark harness: every figure and in-text experiment of the
//! paper as a library function ([`figures`]), plus the shared scale,
//! table and banner plumbing. The `reproduce` binary runs them in one
//! process; `smp` and `tracectl` are the SMP experiment and the trace
//! tool.
//!
//! The scale comes from the `MIXTLB_SCALE` environment variable:
//!
//! * `quick` — seconds; tiny memory, short traces (CI smoke runs).
//! * `std` (default) — minutes; 4-8 GB machines, representative traces.
//! * `full` — the paper's machine scale (80 GB allocation studies); slow.
//!
//! Any other value is a usage error: the binaries name the three scales on
//! stderr and exit with code 2 instead of silently running `std`.
//!
//! Absolute numbers differ from the paper (synthetic workloads, functional
//! simulation); the *shapes* — who wins, by roughly what factor, where the
//! crossovers fall — are the reproduction target. See EXPERIMENTS.md.

#![warn(missing_docs)]

use mixtlb_sim::{PolicyChoice, ScenarioConfig, VirtConfig};
use mixtlb_trace::{WorkloadClass, WorkloadSpec};

pub use mixtlb_gpu::GpuConfig;

pub mod figures;

/// Experiment scale, from `MIXTLB_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds; smoke-test sized.
    Quick,
    /// Minutes; the default.
    Std,
    /// Paper scale for allocation studies (80 GB); slow.
    Full,
}

impl Scale {
    /// Parses a `MIXTLB_SCALE` value; `None` (the variable is unset)
    /// means `std`.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("std") => Ok(Scale::Std),
            Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "MIXTLB_SCALE={other:?} is not a scale; expected quick|std|full"
            )),
        }
    }

    /// Reads the scale from the environment (default `std`); an unknown
    /// value is [`Scale::parse`]'s error.
    pub fn from_env() -> Result<Scale, String> {
        let value = std::env::var_os("MIXTLB_SCALE");
        let value = value.as_deref().map(std::ffi::OsStr::to_string_lossy);
        Scale::parse(value.as_deref())
    }

    /// Machine memory for trace-driven performance experiments.
    pub fn perf_mem_bytes(self) -> u64 {
        match self {
            Scale::Quick => 512 << 20,
            Scale::Std => 4 << 30,
            Scale::Full => 16 << 30,
        }
    }

    /// Machine memory for allocation-characterization experiments
    /// (Figures 9-13), where footprint scale is the point.
    pub fn alloc_mem_bytes(self) -> u64 {
        match self {
            Scale::Quick => 1 << 30,
            Scale::Std => 8 << 30,
            Scale::Full => 80 << 30,
        }
    }

    /// Trace references per (workload, design) run.
    pub fn refs(self) -> u64 {
        match self {
            Scale::Quick => 30_000,
            Scale::Std => 400_000,
            Scale::Full => 2_000_000,
        }
    }

    /// CPU workloads to sweep (subset at quick scale).
    pub fn cpu_workloads(self) -> Vec<WorkloadSpec> {
        let all: Vec<WorkloadSpec> = WorkloadSpec::of_class(WorkloadClass::SpecParsec)
            .into_iter()
            .chain(WorkloadSpec::of_class(WorkloadClass::BigMemory))
            .collect();
        match self {
            Scale::Quick => all
                .into_iter()
                .filter(|w| ["mcf", "gups", "memcached", "streamcluster"].contains(&w.name))
                .collect(),
            _ => all,
        }
    }

    /// The big-memory subset of [`Scale::cpu_workloads`]: the workloads
    /// the virtualized experiments run.
    pub fn big_memory_workloads(self) -> Vec<WorkloadSpec> {
        let mut all = self.cpu_workloads();
        all.retain(|w| w.class == WorkloadClass::BigMemory);
        all
    }

    /// GPU workloads to sweep.
    pub fn gpu_workloads(self) -> Vec<WorkloadSpec> {
        let all = WorkloadSpec::of_class(WorkloadClass::Gpu);
        match self {
            Scale::Quick => all
                .into_iter()
                .filter(|w| ["bfs", "backprop", "pathfinder"].contains(&w.name))
                .collect(),
            _ => all,
        }
    }

    /// A native scenario configuration.
    pub fn native_cfg(self, policy: PolicyChoice, memhog: f64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::standard();
        cfg.mem_bytes = self.perf_mem_bytes();
        cfg.policy = policy;
        cfg.memhog_fraction = memhog;
        cfg
    }

    /// An allocation-study configuration (bigger machine).
    pub fn alloc_cfg(self, policy: PolicyChoice, memhog: f64) -> ScenarioConfig {
        let mut cfg = self.native_cfg(policy, memhog);
        cfg.mem_bytes = self.alloc_mem_bytes();
        cfg
    }

    /// A virtualized configuration: per-VM memory is half the native
    /// machine's, held constant across consolidation levels (as the
    /// paper's fixed 10 GB VMs are).
    pub fn virt_cfg(self, vms: u32, memhog_in_vm: f64) -> VirtConfig {
        let mut cfg = VirtConfig::standard(vms, memhog_in_vm);
        cfg.mem_bytes = (self.perf_mem_bytes() / 2) * u64::from(vms);
        cfg
    }

    /// A GPU configuration.
    pub fn gpu_cfg(self, policy: PolicyChoice, memhog: f64) -> GpuConfig {
        let mut cfg = match self {
            Scale::Quick => GpuConfig::quick(),
            _ => GpuConfig::standard(),
        };
        cfg.scenario.mem_bytes = match self {
            Scale::Quick => 512 << 20,
            Scale::Std => 2 << 30,
            Scale::Full => 8 << 30,
        };
        cfg.scenario.policy = policy;
        cfg.scenario.memhog_fraction = memhog;
        cfg
    }
}

/// A simple fixed-width table printer for figure output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.header);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("--")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a signed percentage (already in percent units).
pub fn signed_pct(x: f64) -> String {
    format!("{:+.1}%", x)
}

/// Prints a figure banner.
pub fn banner(figure: &str, caption: &str, scale: Scale) {
    println!("==========================================================");
    println!("{figure} — {caption}");
    println!("scale: {scale:?} (set MIXTLB_SCALE=quick|std|full)");
    println!("==========================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_to_std() {
        // Cannot portably set env in parallel tests; check the parser and
        // the default logic by value.
        assert_eq!(Scale::parse(None), Ok(Scale::Std));
        assert_eq!(Scale::parse(Some("std")), Ok(Scale::Std));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        for typo in ["quik", "", "Quick", "std "] {
            let err = Scale::parse(Some(typo)).unwrap_err();
            assert!(err.contains("quick|std|full"), "{err}");
        }
        assert_eq!(Scale::Std.refs(), 400_000);
        assert!(Scale::Quick.refs() < Scale::Std.refs());
        assert!(Scale::Full.alloc_mem_bytes() == 80 << 30);
    }

    #[test]
    fn quick_scale_trims_workloads() {
        assert!(Scale::Quick.cpu_workloads().len() < Scale::Std.cpu_workloads().len());
        assert_eq!(Scale::Std.cpu_workloads().len(), 14);
        assert_eq!(Scale::Std.gpu_workloads().len(), 8);
    }

    #[test]
    fn table_rendering_is_stable() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print(); // just must not panic
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(signed_pct(-3.21), "-3.2%");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
