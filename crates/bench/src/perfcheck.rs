//! `mot3d perf check` — result gate against a committed perf
//! baseline.
//!
//! [`crate::perf::Recorder`] documents (`BENCH_results.json`) record two
//! things per sweep: an FNV-1a checksum of the record stream (*what*
//! was computed) and the wall-clock time (*how fast*). This module
//! gates the first: it re-runs every sweep named in a committed
//! baseline at the baseline's scale, and a **checksum or row-count
//! mismatch fails** — the code now computes different results than the
//! commit that wrote the baseline, which is either an unrefreshed
//! baseline or a silent determinism break.
//!
//! The recorded walls are documentation, not a gate: a wall measured on
//! another day, on a machine whose own drift reaches 16 %, says nothing
//! about this build. Speed is compared by `benchmark/run.sh compare`,
//! over adjacent parent/change pairs.
//!
//! The baseline is read with the workspace's JSON reader
//! ([`mot3d_phys::json`]), so anything [`Recorder::to_json`] can write —
//! a sweep name with quotes or braces in it included — reads back.
//!
//! The `mot3d perf check` subcommand (the `mot3d-serve` front end) reads
//! the baseline with [`parse_baseline`], runs [`check`], prints one line
//! per sweep, and exits 1 on a mismatch.

use crate::experiments::ExperimentScale;
use crate::perf::{Recorder, SweepRecord};
use crate::plan::ExperimentPlan;
use crate::pool;
use crate::sink::{PerfSink, RecordSink};
use mot3d_mem::dram::DramKind;
use mot3d_phys::json::{self, JsonValue};

/// A parsed `BENCH_results.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Run-length factor the baseline was recorded at.
    pub scale: f64,
    /// Worker threads the baseline was recorded with.
    pub threads: usize,
    /// The recorded sweeps.
    pub sweeps: Vec<SweepRecord>,
}

/// Parses a schema-1 perf document (as written by
/// [`Recorder::to_json`]).
///
/// # Errors
///
/// Returns a message naming the missing or malformed field.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = json::parse(text)?;
    let schema = count(&doc, "schema")?;
    if schema != 1 {
        return Err(format!("unsupported schema {schema} (expected 1)"));
    }
    let sweeps = field(&doc, "sweeps")?
        .as_array()
        .ok_or("\"sweeps\" is not an array")?
        .iter()
        .map(|sweep| {
            Ok(SweepRecord {
                name: string(sweep, "name")?,
                wall_s: float(sweep, "wall_s")?,
                rows: count(sweep, "rows")?,
                checksum: string(sweep, "checksum")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if sweeps.is_empty() {
        return Err("baseline records no sweeps".to_string());
    }
    Ok(Baseline {
        scale: float(&doc, "scale")?,
        threads: count(&doc, "threads")?,
        sweeps,
    })
}

fn field<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    obj.get(key).ok_or_else(|| format!("missing {key:?}"))
}

fn float(obj: &JsonValue, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .num_text()
        .and_then(|raw| raw.parse().ok())
        .ok_or_else(|| format!("{key:?} is not a number"))
}

fn count(obj: &JsonValue, key: &str) -> Result<usize, String> {
    field(obj, key)?
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| format!("{key:?} is not an unsigned integer"))
}

fn string(obj: &JsonValue, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

/// The canned plan a baseline sweep name corresponds to, or `None` for
/// names `perf check` cannot regenerate (ad-hoc sweeps).
pub fn plan_for(name: &str, scale: ExperimentScale) -> Option<ExperimentPlan> {
    match name {
        "fig6" => Some(ExperimentPlan::fig6(scale)),
        "fig7@200ns" => Some(ExperimentPlan::fig7(scale)),
        "fig8@63ns" => Some(ExperimentPlan::fig8_at(scale, DramKind::WideIo)),
        "fig8@42ns" => Some(ExperimentPlan::fig8_at(scale, DramKind::Weis3d)),
        "open_page@200ns" => Some(ExperimentPlan::open_page_at(scale, DramKind::OffChipDdr3)),
        _ => None,
    }
}

/// The outcome of one sweep comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Sweep name.
    pub name: String,
    /// Baseline record.
    pub baseline: SweepRecord,
    /// Fresh re-run record, or `None` when the name maps to no plan.
    pub fresh: Option<SweepRecord>,
    /// Failure description, or `None` when the sweep passed.
    pub failure: Option<String>,
}

/// Re-runs every baseline sweep on `threads` workers (default:
/// [`pool::worker_threads`]) and compares; emits nothing.
///
/// # Errors
///
/// Propagates sink I/O errors from plan execution (none occur with the
/// in-memory perf sink in practice).
pub fn check(baseline: &Baseline, threads: Option<usize>) -> std::io::Result<Vec<SweepOutcome>> {
    let scale = ExperimentScale {
        scale: baseline.scale,
        ..ExperimentScale::default()
    };
    let mut outcomes = Vec::new();
    for base in &baseline.sweeps {
        let Some(plan) = plan_for(&base.name, scale) else {
            outcomes.push(SweepOutcome {
                name: base.name.clone(),
                baseline: base.clone(),
                fresh: None,
                failure: Some(format!(
                    "no canned plan regenerates sweep {:?}; refresh the baseline \
                     from `mot3d all --bench-json`",
                    base.name
                )),
            });
            continue;
        };
        let threads = threads.unwrap_or_else(|| pool::worker_threads(plan.len()));
        let mut recorder = Recorder::new(baseline.scale, threads);
        {
            let mut perf = PerfSink::new(&mut recorder, base.name.clone());
            let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut perf];
            plan.threads(threads).run_with(&mut sinks, |_, _, _| {})?;
        }
        let fresh = recorder.sweeps().last().cloned();
        let failure = fresh.as_ref().and_then(|f| judge(base, f));
        outcomes.push(SweepOutcome {
            name: base.name.clone(),
            baseline: base.clone(),
            fresh,
            failure,
        });
    }
    Ok(outcomes)
}

/// Compares one fresh record against its baseline.
fn judge(base: &SweepRecord, fresh: &SweepRecord) -> Option<String> {
    if fresh.checksum != base.checksum {
        return Some(format!(
            "checksum {} != baseline {} (results changed — refresh the baseline \
             if intentional)",
            fresh.checksum, base.checksum
        ));
    }
    if fresh.rows != base.rows {
        return Some(format!("rows {} != baseline {}", fresh.rows, base.rows));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn doc() -> String {
        let mut rec = Recorder::new(0.004, 2);
        rec.add_raw("fig6", Duration::from_millis(250), 32, 0xdead_beef);
        rec.add_raw("open_page@200ns", Duration::from_millis(90), 16, 0x1234);
        rec.to_json()
    }

    #[test]
    fn parses_recorder_documents_round_trip() {
        let b = parse_baseline(&doc()).unwrap();
        assert_eq!(b.scale, 0.004);
        assert_eq!(b.threads, 2);
        assert_eq!(b.sweeps.len(), 2);
        assert_eq!(b.sweeps[0].name, "fig6");
        assert_eq!(b.sweeps[0].rows, 32);
        assert_eq!(b.sweeps[0].checksum, format!("{:016x}", 0xdead_beefu64));
        assert_eq!(b.sweeps[1].name, "open_page@200ns");
        assert!((b.sweeps[0].wall_s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn sweep_names_with_json_metacharacters_round_trip() {
        // Everything `to_json` escapes and writes correctly must read
        // back: quotes, backslashes, the brackets a brace counter trips
        // over, and a key look-alike inside the string.
        let names = [
            "say \"hi\"",
            "back\\slash",
            "close } and ] early",
            "decoy \"wall_s\": 9, \"rows\": 7",
        ];
        let mut rec = Recorder::new(0.35, 1);
        for (i, name) in names.iter().enumerate() {
            rec.add_raw(name, Duration::from_millis(125), i + 1, i as u64);
        }
        let b = parse_baseline(&rec.to_json()).unwrap();
        assert_eq!(b.sweeps, rec.sweeps());
        assert_eq!(b.sweeps[3].name, names[3]);
        assert_eq!(b.sweeps[3].rows, 4);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{\"schema\": 2, \"scale\": 1, \"threads\": 1}").is_err());
        let empty = "{\"schema\": 1, \"scale\": 1, \"threads\": 1, \"sweeps\": []}";
        assert!(parse_baseline(empty).is_err());
    }

    #[test]
    fn judge_flags_each_failure_mode() {
        let base = SweepRecord {
            name: "fig6".into(),
            wall_s: 1.0,
            rows: 32,
            checksum: "aa".into(),
        };
        // The wall is recorded, never judged: ten times slower passes.
        let slow = SweepRecord {
            wall_s: 10.0,
            ..base.clone()
        };
        assert_eq!(judge(&base, &slow), None);
        let wrong_sum = SweepRecord {
            checksum: "bb".into(),
            ..base.clone()
        };
        assert!(judge(&base, &wrong_sum).unwrap().contains("checksum"));
        let wrong_rows = SweepRecord {
            rows: 8,
            ..base.clone()
        };
        assert!(judge(&base, &wrong_rows).unwrap().contains("rows"));
    }

    #[test]
    fn canned_names_map_to_plans_and_unknown_names_fail() {
        let scale = ExperimentScale::tiny();
        for name in [
            "fig6",
            "fig7@200ns",
            "fig8@63ns",
            "fig8@42ns",
            "open_page@200ns",
        ] {
            assert!(plan_for(name, scale).is_some(), "{name}");
        }
        assert!(plan_for("sweep", scale).is_none());
    }

    #[test]
    fn tiny_check_detects_matches_and_mismatches_end_to_end() {
        // Record a genuine tiny baseline in memory, then check against
        // it: everything must match. Corrupt a checksum: must fail.
        let scale = ExperimentScale::tiny();
        let mut rec = Recorder::new(scale.scale, 1);
        {
            let mut perf = PerfSink::new(&mut rec, "open_page@200ns");
            let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut perf];
            plan_for("open_page@200ns", scale)
                .unwrap()
                .threads(1)
                .run_with(&mut sinks, |_, _, _| {})
                .unwrap();
        }
        let baseline = Baseline {
            scale: scale.scale,
            threads: 1,
            sweeps: rec.sweeps().to_vec(),
        };
        let outcomes = check(&baseline, None).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].failure, None, "{:?}", outcomes[0]);

        let mut corrupted = baseline;
        corrupted.sweeps[0].checksum = "0000000000000000".into();
        let outcomes = check(&corrupted, None).unwrap();
        assert!(outcomes[0].failure.as_ref().unwrap().contains("checksum"));
    }
}
