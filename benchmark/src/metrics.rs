//! Metric tables, sample summaries and the JSON lines the benchmark
//! prints.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// An end-to-end metric and the bound by which it may worsen (as a share
/// of the baseline median) before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening, as a share of the baseline median.
    pub bound: f64,
}

/// Unit of the throughput metrics.
pub const MTPS: &str = "Mtranslations/s";

/// The end-to-end metrics of an untraced run, in output order.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "replay_mtps",
        unit: MTPS,
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "scalar_mtps",
        unit: MTPS,
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// Unit of every per-layer time: host nanoseconds per translation.
pub const NS: &str = "ns/translation";
/// Unit of per-1000-access rates.
pub const PER_KACC: &str = "1/kaccess";

/// Per-layer metrics measured per design; each is emitted for the whole
/// sweep (bare name) and for MIX and split (`.mix` / `.split`).
pub const DESIGN_LAYER: [(&str, &str); 23] = [
    ("sim.translate_ns", NS),
    ("sim.self_ns", NS),
    ("sim.block_p50_us", "us"),
    ("sim.block_p99_us", "us"),
    ("sim.window_frac", "fraction"),
    ("sim.stall_cycles_per_acc", "cycles/access"),
    ("core.l1_probe_ns", NS),
    ("core.l1_fill_ns", NS),
    ("core.l2_probe_ns", NS),
    ("core.l2_fill_ns", NS),
    ("core.l1_hit_rate", "fraction"),
    ("core.l2_hits_per_kacc", PER_KACC),
    ("core.entries_read_per_probe", "entries/probe"),
    ("core.entries_written_per_fill", "entries/fill"),
    ("core.dirty_microops_per_kacc", PER_KACC),
    ("core.serial_probes_per_kacc", PER_KACC),
    ("pagetable.walk_ns", NS),
    ("pagetable.walks_per_kacc", PER_KACC),
    ("pagetable.pte_reads_per_walk", "reads/walk"),
    ("cache.pwc_ns", NS),
    ("cache.mem_ns", NS),
    ("cache.pwc_hit_rate", "fraction"),
    ("cache.dram_per_walk", "reads/walk"),
];

/// Design-independent per-layer metrics.
pub const SHARED_LAYER: [(&str, &str); 9] = [
    ("trace.read_ns", NS),
    ("trace.decode_ns", NS),
    ("trace.bytes_per_event", "B/event"),
    ("smp.handoff_ns", NS),
    ("smp.ws_speedup", "x"),
    ("smp.ws_steals_per_kchunk", "1/kchunk"),
    ("smp.ws_imbalance", "x"),
    ("tracing.overhead_frac", "fraction"),
    ("tracing.coverage_frac", "fraction"),
];

/// The designs whose per-layer rows are emitted on their own, with the
/// suffix they get.
pub const LAYER_DESIGNS: [(&str, &str); 2] = [("mix", ".mix"), ("split", ".split")];

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = SHARED_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect();
    for suffix in std::iter::once("").chain(LAYER_DESIGNS.iter().map(|(_, s)| *s)) {
        out.extend(
            DESIGN_LAYER
                .iter()
                .map(|(n, u)| (format!("{n}{suffix}"), *u)),
        );
    }
    out
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method, which extrapolates past the extremes of tiny samples). Fewer
/// than two samples give the single value (or 0) three times.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        // Integer offset of position m/4 from j, as Python computes it.
        let delta = m as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// A metric's samples from one run, summarized.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The samples (one per rep, or per timed set-up).
    pub samples: Vec<f64>,
    /// The reported value when it is not the samples' median.
    pub reported: Option<f64>,
}

impl Summary {
    /// A summary of `samples`, reporting their median.
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Summary {
        Summary {
            name: name.into(),
            unit,
            samples,
            reported: None,
        }
    }

    /// The reported value: [`Summary::reported`] if set, else the median.
    pub fn value(&self) -> f64 {
        self.reported.unwrap_or_else(|| median(&self.samples))
    }

    fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a number for JSON: every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which no metric should produce)
/// become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// One metric line: workload, seed, name, unit, the reported value, and
/// the samples' median, min, max and count.
pub fn metric_line(workload: &str, seed: u64, s: &Summary) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"metric\":{},\"unit\":{},\"value\":{},\"median\":{},\"min\":{},\"max\":{},\"samples\":{}}}",
        json_str(workload),
        json_str(&s.name),
        json_str(s.unit),
        json_num(s.value()),
        json_num(median(&s.samples)),
        json_num(s.min()),
        json_num(s.max()),
        s.samples.len()
    )
}

/// One exact-count line (a deterministic counter or digest).
pub fn count_line(workload: &str, seed: u64, name: &str, value: &str) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"count\":{},\"value\":{}}}",
        json_str(workload),
        json_str(name),
        json_str(value)
    )
}

/// The result line that ends a single-workload run: correctness,
/// operation counts and each metric's reported value with its unit.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Summary]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|s| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&s.name),
                json_num(s.value()),
                json_str(s.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn per_layer_table_has_78_unique_names() {
        let names = per_layer_names();
        assert_eq!(names.len(), 78);
        let mut sorted: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 78);
    }

    #[test]
    fn lines_are_json() {
        let s = Summary::new("replay_mtps", MTPS, vec![1.5, 2.5, 2.0]);
        let line = metric_line("w\"x", 7, &s);
        assert!(line.contains("\"workload\":\"w\\\"x\""), "{line}");
        assert!(line.contains("\"value\":2.0,\"median\":2.0,\"min\":1.5,\"max\":2.5,\"samples\":3"));
        let best = Summary {
            reported: Some(2.5),
            ..s.clone()
        };
        assert!(metric_line("w", 7, &best).contains("\"value\":2.5,\"median\":2.0"));
        let r = result_line(3, 0, &[s]);
        assert!(
            r.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"),
            "{r}"
        );
        assert_eq!(json_num(f64::NAN), "null");
    }
}
