//! The line-delimited JSON wire protocol.
//!
//! One request line from the client, then a response stream from the
//! server:
//!
//! * a **header** line and one line per [`RunRecord`] — exactly the
//!   bytes `mot3d sweep --json` writes for the same plan
//!   ([`mot3d_bench::sink::JsonLinesSink`] serialises both), so served
//!   and offline streams compare byte for byte;
//! * zero or more **failure** lines — `{"failed": true, "label": ...,
//!   "error": ...}` for points that failed terminally (a healthy run
//!   has none, so byte-identity with offline output holds);
//! * one **summary** line — `{"done": true, ...}` with the submission's
//!   [`PlanOutcome`] counters and the store's lifetime totals, or
//!   `{"error": "..."}` if the submission was rejected.
//!
//! A client may also send the [`SHUTDOWN_LINE`] control request instead
//! of a submission: the server acknowledges with the same line, stops
//! accepting, drains in-flight submissions, and exits 0; the store has
//! nothing to flush, since each result is written when it is stored.
//!
//! A request names the plan and, optionally, any sweep axis; absent
//! axes keep the [`ExperimentPlan::new`] defaults (all benchmarks, the
//! MoT 3-D interconnect, Full power, 200 ns DRAM, flat pages):
//!
//! ```text
//! {"submit": "sweep", "bench": "fft,radix", "interconnect": "all",
//!  "power_state": "full", "dram": "63ns", "page": "both",
//!  "repeat": 2, "scale": "tiny", "seed": 7}
//! ```
//!
//! Any other member is rejected with an error line that names it, so a
//! misspelled axis never runs the default grid. The service does not
//! trace: per-point timelines come from `mot3d sweep --trace <dir>` or
//! `mot3d trace` on the machine that reads them.
//!
//! [`RunRecord`]: mot3d_bench::plan::RunRecord

use crate::exec::PlanOutcome;
use crate::json::{self, json_string, JsonValue};
use crate::store::StoreStats;
use mot3d_bench::axes;
use mot3d_bench::plan::ExperimentPlan;
use mot3d_bench::ExperimentScale;
use std::fmt::Write as _;

/// A parsed submission: the plan name plus optional axis selections,
/// kept as their raw comma-separated wire spellings so the request
/// round-trips verbatim ([`PlanRequest::to_line`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanRequest {
    /// Plan name, echoed in the response header (`"submit"`).
    pub name: String,
    /// Benchmark list (`"bench"`), e.g. `"fft,radix"` or `"all"`.
    pub bench: Option<String>,
    /// Interconnect list (`"interconnect"`).
    pub interconnect: Option<String>,
    /// Power-state list (`"power_state"`).
    pub power_state: Option<String>,
    /// DRAM list (`"dram"`).
    pub dram: Option<String>,
    /// Page-policy axis (`"page"`): `flat`, `open`, or `both`.
    pub page: Option<String>,
    /// Runs per grid cell (`"repeat"`).
    pub repeat: Option<u32>,
    /// Run-length scale (`"scale"`): a factor or `"tiny"`.
    pub scale: Option<String>,
    /// Workload seed override (`"seed"`).
    pub seed: Option<u64>,
}

/// Every member a request may carry; [`PlanRequest::parse`] rejects
/// any other.
const REQUEST_KEYS: [&str; 9] = [
    "submit",
    "bench",
    "interconnect",
    "power_state",
    "dram",
    "page",
    "repeat",
    "scale",
    "seed",
];

impl PlanRequest {
    /// A request for `name` with every axis at its default.
    pub fn new(name: impl Into<String>) -> Self {
        PlanRequest {
            name: name.into(),
            ..PlanRequest::default()
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Describes the first malformed field: bad JSON, an unknown
    /// member (named in the message), a missing `"submit"` key, or a
    /// wrong-typed member. Axis *values* are validated later, by
    /// [`PlanRequest::to_plan`].
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = json::parse(line)?;
        let JsonValue::Obj(members) = &doc else {
            return Err("request must be a JSON object".to_string());
        };
        if let Some((key, _)) = members
            .iter()
            .find(|(k, _)| !REQUEST_KEYS.contains(&k.as_str()))
        {
            return Err(format!(
                "unknown request key {key:?} (known: {})",
                REQUEST_KEYS.join(", ")
            ));
        }
        let name = doc
            .get("submit")
            .ok_or_else(|| "missing \"submit\" (the plan name)".to_string())?
            .as_str()
            .ok_or_else(|| "\"submit\" must be a string".to_string())?
            .to_string();
        let text = |key: &str| -> Result<Option<String>, String> {
            match doc.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| format!("{key:?} must be a string")),
            }
        };
        let scale = match doc.get("scale") {
            None | Some(JsonValue::Null) => None,
            // A bare factor is allowed alongside "tiny"-style strings.
            Some(JsonValue::Num(raw)) => Some(raw.clone()),
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| "\"scale\" must be a string or a number".to_string())?
                    .to_string(),
            ),
        };
        let u64_field = |key: &str| -> Result<Option<u64>, String> {
            match doc.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("{key:?} must be an unsigned integer")),
            }
        };
        let repeat = match u64_field("repeat")? {
            None => None,
            Some(r) => Some(
                u32::try_from(r)
                    .ok()
                    .filter(|&r| r > 0)
                    .ok_or_else(|| "\"repeat\" must be a positive u32".to_string())?,
            ),
        };
        Ok(PlanRequest {
            name,
            bench: text("bench")?,
            interconnect: text("interconnect")?,
            power_state: text("power_state")?,
            dram: text("dram")?,
            page: text("page")?,
            repeat,
            scale,
            seed: u64_field("seed")?,
        })
    }

    /// Serialises the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(s, "{{\"submit\": {}", json_string(&self.name));
        for (key, value) in [
            ("bench", &self.bench),
            ("interconnect", &self.interconnect),
            ("power_state", &self.power_state),
            ("dram", &self.dram),
            ("page", &self.page),
        ] {
            if let Some(v) = value {
                let _ = write!(s, ", \"{key}\": {}", json_string(v));
            }
        }
        if let Some(r) = self.repeat {
            let _ = write!(s, ", \"repeat\": {r}");
        }
        if let Some(scale) = &self.scale {
            // A factor goes out bare only if the server's reader takes
            // the same text back as a number: Rust's `f64` parser also
            // accepts `.5`, `+0.5`, `5.` and `005`, which JSON does not.
            if matches!(json::parse(scale), Ok(JsonValue::Num(n)) if n == *scale) {
                let _ = write!(s, ", \"scale\": {scale}");
            } else {
                let _ = write!(s, ", \"scale\": {}", json_string(scale));
            }
        }
        if let Some(seed) = self.seed {
            let _ = write!(s, ", \"seed\": {seed}");
        }
        s.push('}');
        s
    }

    /// The request's effective scale: the `"scale"` field (default
    /// 0.35) with the `"seed"` override applied — also what the
    /// server's response header reports.
    ///
    /// # Errors
    ///
    /// Describes a malformed `"scale"` value.
    pub fn resolved_scale(&self) -> Result<ExperimentScale, String> {
        let mut scale = match &self.scale {
            Some(raw) => ExperimentScale::parse(raw)?,
            None => ExperimentScale::default(),
        };
        if let Some(seed) = self.seed {
            scale.seed = seed;
        }
        Ok(scale)
    }

    /// Expands the request into an [`ExperimentPlan`], the same way
    /// `mot3d sweep` builds one from its axis flags.
    ///
    /// # Errors
    ///
    /// Describes the first invalid axis value or scale.
    pub fn to_plan(&self) -> Result<ExperimentPlan, String> {
        let scale = self.resolved_scale()?;
        let mut plan = ExperimentPlan::new(self.name.clone())
            .scale(scale)
            .repeats(self.repeat.unwrap_or(1));
        if let Some(list) = &self.bench {
            plan = plan.splash(axes::parse_benches(list)?);
        }
        if let Some(list) = &self.interconnect {
            plan = plan.interconnects(axes::parse_interconnects(list)?);
        }
        if let Some(list) = &self.power_state {
            plan = plan.power_states(axes::parse_power_states(list)?);
        }
        if let Some(list) = &self.dram {
            plan = plan.drams(axes::parse_drams(list)?);
        }
        if let Some(list) = &self.page {
            plan = plan.page_policies(axes::parse_pages(list)?);
        }
        Ok(plan)
    }
}

/// The terminal success line: submission counters plus the store's
/// process-lifetime totals (no trailing newline).
///
/// Vestigial: nothing in this crate passes a `trace_dir`, because the
/// service does not trace. The parameter and the `"trace_dir"` member
/// it would add stay while `benchmark/` calls this function with three
/// arguments, and go with the `benchmark` change that drops that call.
pub fn summary_line(outcome: PlanOutcome, store: StoreStats, trace_dir: Option<&str>) -> String {
    let mut s = format!(
        "{{\"done\": true, \"points\": {}, \"hits\": {}, \"waited\": {}, \
         \"executed\": {}, \"failed\": {}, \"store_hits\": {}, \
         \"store_misses\": {}, \"store_inserts\": {}",
        outcome.points,
        outcome.hits,
        outcome.waited,
        outcome.executed,
        outcome.failed,
        store.hits,
        store.misses,
        store.inserts,
    );
    if let Some(dir) = trace_dir {
        let _ = write!(s, ", \"trace_dir\": {}", json_string(dir));
    }
    s.push('}');
    s
}

/// The terminal failure line (no trailing newline).
pub fn error_line(message: &str) -> String {
    format!("{{\"error\": {}}}", json_string(message))
}

/// A per-point failure line (no trailing newline): the point completed
/// its bounded attempts and failed terminally; the stream continues.
pub fn failed_line(label: &str, error: &str) -> String {
    format!(
        "{{\"failed\": true, \"label\": {}, \"error\": {}}}",
        json_string(label),
        json_string(error)
    )
}

/// The graceful-shutdown control line — both the client's request and
/// the server's acknowledgement.
pub const SHUTDOWN_LINE: &str = "{\"shutdown\": true}";

/// Whether `line` is the shutdown control request/acknowledgement.
pub fn is_shutdown(line: &str) -> bool {
    json::parse(line)
        .ok()
        .is_some_and(|doc| doc.get("shutdown").and_then(JsonValue::as_bool) == Some(true))
}

/// Parses a summary line back into its counters, if `line` is one.
/// Returns `Ok(None)` for header/record/failure lines, `Err` for an
/// `{"error": ...}` rejection line.
pub fn parse_summary(line: &str) -> Result<Option<PlanOutcome>, String> {
    let Ok(doc) = json::parse(line) else {
        return Ok(None); // not a protocol line for us to interpret
    };
    // Per-point failure lines carry an "error" member too — classify
    // them (as pass-through stream lines) before the rejection check.
    if doc.get("failed").and_then(JsonValue::as_bool) == Some(true) {
        return Ok(None);
    }
    if let Some(msg) = doc.get("error").and_then(JsonValue::as_str) {
        return Err(msg.to_string());
    }
    if doc.get("done").and_then(JsonValue::as_bool) != Some(true) {
        return Ok(None);
    }
    let field = |key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    Ok(Some(PlanOutcome {
        points: field("points"),
        hits: field("hits"),
        waited: field("waited"),
        executed: field("executed"),
        failed: field("failed"),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_spelling() {
        let req = PlanRequest {
            name: "sweep".to_string(),
            bench: Some("fft,radix".to_string()),
            interconnect: Some("all".to_string()),
            power_state: Some("pc4-mb8".to_string()),
            dram: Some("63ns".to_string()),
            page: Some("both".to_string()),
            repeat: Some(2),
            scale: Some("tiny".to_string()),
            seed: Some(7),
        };
        assert_eq!(PlanRequest::parse(&req.to_line()).unwrap(), req);
        let bare = PlanRequest::new("sweep");
        assert_eq!(bare.to_line(), "{\"submit\": \"sweep\"}");
        assert_eq!(PlanRequest::parse(&bare.to_line()).unwrap(), bare);
    }

    #[test]
    fn numeric_scales_round_trip_as_numbers() {
        let req = PlanRequest {
            scale: Some("0.35".to_string()),
            ..PlanRequest::new("s")
        };
        assert!(
            req.to_line().contains("\"scale\": 0.35"),
            "{}",
            req.to_line()
        );
        assert_eq!(PlanRequest::parse(&req.to_line()).unwrap(), req);
    }

    #[test]
    fn every_scale_the_client_accepts_survives_the_wire() {
        for scale in [".5", "+0.5", "5.", "005", "1e-1", "0.35", "tiny"] {
            let req = PlanRequest {
                scale: Some(scale.to_string()),
                ..PlanRequest::new("s")
            };
            assert!(req.to_plan().is_ok(), "{scale}");
            assert_eq!(
                PlanRequest::parse(&req.to_line()).as_ref(),
                Ok(&req),
                "{}",
                req.to_line()
            );
        }
    }

    #[test]
    fn to_plan_matches_the_sweep_cli_expansion() {
        let req = PlanRequest {
            bench: Some("fft".to_string()),
            dram: Some("all".to_string()),
            scale: Some("tiny".to_string()),
            repeat: Some(2),
            ..PlanRequest::new("sweep")
        };
        let plan = req.to_plan().unwrap();
        // 1 bench × 1 ic × 1 state × 3 drams × 1 page × 2 repeats.
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.name(), "sweep");
        let seeded = PlanRequest {
            seed: Some(99),
            ..req
        };
        assert_eq!(seeded.to_plan().unwrap().points()[0].config.seed, 99);
    }

    #[test]
    fn bad_requests_are_described() {
        for (line, needle) in [
            ("nope", "literal"),
            ("[1]", "object"),
            ("{\"bench\": \"fft\"}", "submit"),
            ("{\"submit\": 3}", "string"),
            ("{\"submit\": \"s\", \"repeat\": 0}", "positive"),
            ("{\"submit\": \"s\", \"repeat\": -1}", "unsigned"),
            ("{\"submit\": \"s\", \"seed\": \"x\"}", "unsigned"),
            ("{\"submit\": \"s\", \"bench\": 1}", "string"),
            ("{\"submit\": \"s\", \"trace\": true}", "\"trace\""),
            ("{\"submit\": \"s\", \"bnech\": \"fft\"}", "\"bnech\""),
        ] {
            let err = PlanRequest::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
        let bad_axis = PlanRequest {
            bench: Some("nonesuch".to_string()),
            ..PlanRequest::new("s")
        };
        assert!(bad_axis.to_plan().is_err());
    }

    #[test]
    fn summaries_round_trip_and_classify_lines() {
        let outcome = PlanOutcome {
            points: 6,
            hits: 4,
            waited: 1,
            executed: 2,
            failed: 1,
        };
        let stats = StoreStats {
            hits: 10,
            misses: 2,
            inserts: 2,
        };
        let line = summary_line(outcome, stats, None);
        assert_eq!(parse_summary(&line).unwrap(), Some(outcome));
        assert_eq!(parse_summary("{\"index\": 0}").unwrap(), None);
        assert_eq!(parse_summary("free text").unwrap(), None);
        assert_eq!(
            parse_summary(&error_line("boom")).unwrap_err(),
            "boom".to_string()
        );
    }

    #[test]
    fn failure_lines_are_stream_lines_not_rejections() {
        let line = failed_line("fft @ mot3d", "injected fault: point run");
        // Despite the embedded "error" member, a per-point failure is a
        // pass-through stream line, not a server rejection.
        assert_eq!(parse_summary(&line).unwrap(), None);
        let doc = json::parse(&line).unwrap();
        assert_eq!(
            doc.get("label").and_then(JsonValue::as_str),
            Some("fft @ mot3d")
        );
        assert_eq!(
            doc.get("error").and_then(JsonValue::as_str),
            Some("injected fault: point run")
        );
    }

    #[test]
    fn shutdown_line_is_recognised() {
        assert!(is_shutdown(SHUTDOWN_LINE));
        assert!(!is_shutdown("{\"shutdown\": false}"));
        assert!(!is_shutdown("{\"submit\": \"sweep\"}"));
        assert!(!is_shutdown("not json"));
        assert_eq!(parse_summary(SHUTDOWN_LINE).unwrap(), None);
    }
}
