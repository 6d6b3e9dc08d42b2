//! `compare A.jsonl B.jsonl`: two sets of runs side by side.
//!
//! Each file holds the stdout of any number of runs. For every workload ×
//! end-to-end metric the per-run values of each side are summarized by
//! median and quartiles, and the row gets one verdict against the
//! metric's bound. Exact counts (engine counters and PA digests, keyed by
//! workload and seed) must be identical across every run of both sides.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{quartiles, Better, EndToEnd, END_TO_END};

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound (or every B
    /// run beats every A run).
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    WithinBound,
    /// A side's quartile spread exceeds the bound, so the difference
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// The end-to-end metric.
    pub metric: EndToEnd,
    /// A's per-run values.
    pub a: Vec<f64>,
    /// B's per-run values.
    pub b: Vec<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Rows, by workload then metric.
    pub rows: Vec<Row>,
    /// Exact counts compared.
    pub counts_compared: usize,
    /// Counts whose value was not identical across every run.
    pub differing_counts: Vec<String>,
}

/// Per-run samples and exact counts read from one file.
#[derive(Debug, Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    counts: BTreeMap<(String, u64, String), Vec<String>>,
}

fn read_side(text: &str, side: &str) -> Result<Side, String> {
    let mut out = Side::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("{side} line {}: {e}", i + 1))?;
        let Some(workload) = j.get("workload").and_then(Json::as_str) else {
            continue;
        };
        if let (Some(metric), Some(value)) = (
            j.get("metric").and_then(Json::as_str),
            j.get("value").and_then(Json::as_f64),
        ) {
            out.values
                .entry((workload.to_owned(), metric.to_owned()))
                .or_default()
                .push(value);
        } else if let (Some(count), Some(value), Some(seed)) = (
            j.get("count").and_then(Json::as_str),
            j.get("value").and_then(Json::as_str),
            j.get("seed").and_then(Json::as_f64),
        ) {
            out.counts
                .entry((workload.to_owned(), seed as u64, count.to_owned()))
                .or_default()
                .push(value.to_owned());
        }
    }
    Ok(out)
}

fn spread(xs: &[f64]) -> f64 {
    let (q1, m, q3) = quartiles(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The verdict for B against A under `def`'s bound.
pub fn verdict(def: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (am, bm) = (quartiles(a).1, quartiles(b).1);
    let worsening = match (def.better, am == 0.0) {
        (_, true) => 0.0,
        (Better::Higher, false) => (am - bm) / am.abs(),
        (Better::Lower, false) => (bm - am) / am.abs(),
    };
    let fold = |xs: &[f64], f: fn(f64, f64) -> f64, init: f64| xs.iter().copied().fold(init, f);
    let every_b_beats_every_a = match def.better {
        Better::Higher => fold(b, f64::min, f64::INFINITY) > fold(a, f64::max, f64::NEG_INFINITY),
        Better::Lower => fold(b, f64::max, f64::NEG_INFINITY) < fold(a, f64::min, f64::INFINITY),
    };
    if spread(a) > def.bound || spread(b) > def.bound {
        if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening > def.bound {
        Verdict::Worse
    } else if -worsening > def.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Compares the run sets in the contents of two files.
///
/// # Errors
///
/// Reports a malformed JSON line, or files with no end-to-end samples in
/// common.
pub fn compare(a_text: &str, b_text: &str) -> Result<Comparison, String> {
    let a = read_side(a_text, "A")?;
    let b = read_side(b_text, "B")?;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.values.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    let mut rows = Vec::new();
    for workload in workloads {
        for def in &END_TO_END {
            let key = (workload.clone(), def.name.to_owned());
            if let (Some(av), Some(bv)) = (a.values.get(&key), b.values.get(&key)) {
                rows.push(Row {
                    workload: workload.clone(),
                    metric: *def,
                    a: av.clone(),
                    b: bv.clone(),
                    verdict: verdict(def, av, bv),
                });
            }
        }
    }
    if rows.is_empty() {
        return Err("no end-to-end metric of any workload appears in both files".to_owned());
    }
    let mut counts = a.counts;
    for (key, values) in b.counts {
        counts.entry(key).or_default().extend(values);
    }
    let differing_counts = counts
        .iter()
        .filter(|(_, v)| v.iter().any(|x| *x != v[0]))
        .map(|((w, seed, name), v)| format!("{w} seed {seed} {name}: {}", v.join(" ")))
        .collect();
    Ok(Comparison {
        rows,
        counts_compared: counts.len(),
        differing_counts,
    })
}

impl Comparison {
    /// No row worse or unresolved and every exact count identical.
    pub fn passes(&self) -> bool {
        self.differing_counts.is_empty()
            && self
                .rows
                .iter()
                .all(|r| matches!(r.verdict, Verdict::Better | Verdict::WithinBound))
    }

    /// A plain-text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<13} {:<14} {:>4} {:>28} {:>4} {:>28} {:>8} {:>6}  verdict",
            "workload",
            "metric",
            "nA",
            "A median [q1, q3]",
            "nB",
            "B median [q1, q3]",
            "change",
            "bound"
        );
        for r in &self.rows {
            let (a1, am, a3) = quartiles(&r.a);
            let (b1, bm, b3) = quartiles(&r.b);
            let change = if am == 0.0 {
                0.0
            } else {
                100.0 * (bm - am) / am.abs()
            };
            let _ = writeln!(
                out,
                "{:<13} {:<14} {:>4} {:>28} {:>4} {:>28} {:>+7.1}% {:>5.0}%  {}",
                r.workload,
                r.metric.name,
                r.a.len(),
                format!("{am:.4} [{a1:.4}, {a3:.4}]"),
                r.b.len(),
                format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
                change,
                100.0 * r.metric.bound,
                r.verdict.label()
            );
        }
        let _ = writeln!(
            out,
            "exact counts: {} compared, {} differ",
            self.counts_compared,
            self.differing_counts.len()
        );
        for d in &self.differing_counts {
            let _ = writeln!(out, "  {d}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(w: &str, metric: &str, median: f64) -> String {
        format!("{{\"workload\":\"{w}\",\"seed\":1,\"metric\":\"{metric}\",\"unit\":\"u\",\"value\":{median},\"median\":{median},\"min\":0,\"max\":0,\"samples\":1}}\n")
    }

    #[test]
    fn verdicts_follow_bounds_and_direction() {
        let def = END_TO_END[0]; // replay_mtps, higher is better, 25%
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&def, &a, &a), Verdict::WithinBound);
        assert_eq!(verdict(&def, &a, &a.map(|x| x * 0.7)), Verdict::Worse);
        assert_eq!(verdict(&def, &a, &a.map(|x| x * 1.3)), Verdict::Better);
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&def, &a, &noisy), Verdict::Unresolved);
        let setup = END_TO_END[2]; // setup_s, lower is better
        assert_eq!(verdict(&setup, &a, &a.map(|x| x * 1.5)), Verdict::Worse);
    }

    #[test]
    fn counts_must_repeat_exactly() {
        let count = |v: &str| {
            format!("{{\"workload\":\"w\",\"seed\":1,\"count\":\"mix.walks\",\"value\":\"{v}\"}}\n")
        };
        let a = line("w", "replay_mtps", 10.0) + &count("5");
        let b = line("w", "replay_mtps", 10.0) + &count("6");
        let c = compare(&a, &b).unwrap();
        assert_eq!(c.rows.len(), 1);
        assert_eq!(c.differing_counts.len(), 1);
        assert!(!c.passes());
        let same = compare(&a, &a).unwrap();
        assert!(same.passes(), "{}", same.render());
    }
}
