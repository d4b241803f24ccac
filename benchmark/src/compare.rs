//! `bench compare a.json b.json`: applies each end-to-end metric's
//! bound to two sets of runs, one row per workload × metric.
//!
//! The files are what `--json <path>` appends: one line per run. Runs
//! of one workload are pooled, so a file holding five back-to-back runs
//! gives a median and a run-to-run spread per row.

use crate::spec::{Better, EndToEnd, Workload, END_TO_END};
use crate::stats::{median, spread};
use mot3d_serve::json::{self, JsonValue};
use std::collections::BTreeMap;

/// How `b` stands to `a` on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is better than `a`'s by more than the bound, or
    /// every run of `b` beats every run of `a`.
    Better,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    WithinBound,
    /// The run-to-run spread is wider than the bound, so the row can
    /// show neither a regression nor its absence.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one row. `a` and `b` hold one value per run.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = `b` is worse, as a share of `a`'s median.
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let beats = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
    if spread(a).max(spread(b)) > metric.bound {
        return if all(&beats) {
            Verdict::Better
        } else if worse_by > metric.bound && all(&|y, x| beats(x, y)) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > metric.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The end-to-end runs of one file.
#[derive(Debug, Default)]
struct Runs {
    /// (workload, metric) → one value per run.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// workload → Σ failed operations.
    failed: BTreeMap<String, u64>,
}

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |key: &str| doc.get(key).ok_or(format!("{path}:{}: no {key:?}", i + 1));
        if field("trace")?.as_u64() != Some(0) {
            continue; // per-layer metrics have no bound to apply
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        *runs.failed.entry(workload.clone()).or_default() += field("failed")?.as_u64().unwrap_or(0);
        let JsonValue::Obj(metrics) = field("metrics")? else {
            return Err(format!("{path}:{}: \"metrics\" is not an object", i + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::num_text)
                .and_then(|t| t.parse::<f64>().ok())
                .ok_or(format!("{path}:{}: {name} has no numeric value", i + 1))?;
            runs.values
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// Entry point of `bench compare`; returns the process exit code: 0
/// when no row is worse, 1 when one is, 2 on unusable input.
pub fn main(args: &[String]) -> u8 {
    let [a_path, b_path] = args else {
        eprintln!("usage: bench compare <a.json> <b.json>");
        return 2;
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<20} {:<20} {:>16} {:>16} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b vs a", "spread", "bound"
    );
    let (mut rows, mut worse) = (0, 0);
    for w in Workload::ALL {
        for metric in &END_TO_END {
            let key = (w.name().to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let verdict = judge(metric, va, vb);
            rows += 1;
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<20} {:<20} {:>16.4} {:>16.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                w.name(),
                metric.name,
                median(va),
                median(vb),
                100.0 * (median(vb) - median(va)) / median(va),
                100.0 * spread(va).max(spread(vb)),
                100.0 * metric.bound,
                verdict.as_str()
            );
        }
        let failed = |r: &Runs| r.failed.get(w.name()).copied().unwrap_or(0);
        if failed(&b) > failed(&a) {
            rows += 1;
            worse += 1;
            println!(
                "{:<20} {:<20} {:>16} {:>16}  worse",
                w.name(),
                "failed ops",
                failed(&a),
                failed(&b)
            );
        }
    }
    if rows == 0 {
        eprintln!("bench compare: the two files share no end-to-end row");
        return 2;
    }
    println!("{rows} rows, {worse} worse");
    u8::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: EndToEnd = EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const RATE: EndToEnd = EndToEnd {
        name: "points_per_s",
        unit: "points/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn steady_rows_are_judged_by_their_medians() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(judge(&WALL, &a, &[1.05, 1.04, 1.06]), Verdict::WithinBound);
        assert_eq!(judge(&WALL, &a, &[1.15, 1.14, 1.16]), Verdict::Worse);
        assert_eq!(judge(&WALL, &a, &[0.85, 0.84, 0.86]), Verdict::Better);
        // Direction follows the metric: a higher rate is the better one.
        assert_eq!(judge(&RATE, &a, &[1.15, 1.14, 1.16]), Verdict::Better);
        assert_eq!(judge(&RATE, &a, &[0.85, 0.84, 0.86]), Verdict::Worse);
        // One run each has no spread to speak of.
        assert_eq!(judge(&WALL, &[1.0], &[1.0]), Verdict::WithinBound);
        assert_eq!(judge(&WALL, &[1.0], &[1.2]), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_row_unresolved() {
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(
            judge(&WALL, &noisy, &[1.0, 1.25, 0.85]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&WALL, &noisy, &[1.1, 1.4, 0.9, 1.5]),
            Verdict::Unresolved
        );
        // ... unless every run of one side beats every run of the other.
        assert_eq!(judge(&WALL, &noisy, &[0.5, 0.7, 0.6]), Verdict::Better);
        assert_eq!(judge(&WALL, &noisy, &[1.5, 1.9, 1.6]), Verdict::Worse);
    }
}
