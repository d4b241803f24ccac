//! Content addressing and the exact metrics codec.
//!
//! **Cache key.** A [`CacheKey`] is a 128-bit content hash of the
//! *canonicalised* run point — every axis spelled in its
//! [`mot3d_bench::axes`] canonical token, every workload-spec and
//! config scalar rendered exactly (floats as `to_bits`) — prefixed by a
//! [`Fingerprint`] of the code that would produce the result. Two
//! plans that expand to the same physical run share a key regardless of
//! plan name, axis spelling, or position in the grid (`RunPoint::index`
//! is deliberately excluded); any change to a knob that could change
//! the simulation lands in the key material and produces a different
//! key.
//!
//! **Metrics codec.** The store persists [`Metrics`], not whole
//! records: the caller reconstructs `RunRecord::new(point, metrics)`
//! with the point it already holds, which recomputes the derived
//! scalars the same deterministic way a fresh run does — so a cache hit
//! serialises byte-identically to the run that populated it. All `f64`
//! fields travel as `to_bits()` integers; nothing takes a lossy float
//! detour.

use crate::json::{self, json_string, JsonValue};
use mot3d_bench::axes;
use mot3d_bench::plan::RunPoint;
use mot3d_mot::traits::InterconnectStats;
use mot3d_phys::fnv::{fnv1a64_fold, FNV_OFFSET};
use mot3d_phys::power::EnergyBreakdown;
use mot3d_phys::units::{Joules, Seconds};
use mot3d_sim::metrics::LatencyStats;
use mot3d_sim::Metrics;
use std::fmt::Write as _;

/// Record-stream schema version (mirrors the `"schema"` field of the
/// JSON-lines plan header). Bumping it invalidates every cached result.
pub const RECORD_SCHEMA: u32 = 1;

/// Identifies the code+configuration that produced a cached result:
/// crate version plus the record schema. Results cached under one
/// fingerprint are invisible under any other, so a rebuilt simulator
/// never replays stale numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint(String);

impl Fingerprint {
    /// The running build's fingerprint.
    pub fn current() -> Self {
        Fingerprint(format!(
            "mot3d/{} schema={RECORD_SCHEMA}",
            env!("CARGO_PKG_VERSION")
        ))
    }

    /// An arbitrary fingerprint — for tests that prove a fingerprint
    /// change changes every key.
    pub fn custom(tag: impl Into<String>) -> Self {
        Fingerprint(tag.into())
    }

    /// The fingerprint text: the `fp=` field that opens every point's
    /// [`key_material`], so it is hashed into each cache key and stored
    /// nowhere by itself.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// A 128-bit content hash: two independent FNV-1a folds (the second
/// salted) over the canonical key material. Collision-resistant enough
/// for a result cache whose worst failure is a spurious hit among a few
/// million entries, with zero dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

/// Salt for the second fold, so the two 64-bit halves are independent.
const KEY_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

impl CacheKey {
    /// The key's canonical 32-hex-digit spelling (stable across
    /// processes and platforms; used in segment and index lines).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses [`CacheKey::to_hex`] output: exactly 32 lowercase hex
    /// digits, so every key has one spelling and any other input (a
    /// sign, a multi-byte character) is rejected rather than sliced.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey { hi, lo })
    }
}

/// Renders the canonical key material for one run point under one
/// fingerprint. Public so tests can pin its exact layout — the layout
/// IS the cache-compatibility contract: any change orphans every
/// existing cache entry.
pub fn key_material(fingerprint: &Fingerprint, point: &RunPoint) -> String {
    let spec = &point.spec;
    let config = &point.config;
    let mut m = String::with_capacity(256);
    let _ = write!(m, "fp={};", fingerprint.as_str());
    let _ = write!(m, "workload={};", point.workload);
    let _ = write!(m, "ic={};", axes::interconnect_token(config.interconnect));
    let _ = write!(m, "ps={};", axes::power_state_token(config.power_state));
    let _ = write!(m, "dram={};", axes::dram_token(config.dram));
    let _ = write!(m, "page={};", axes::page_token(config.dram_open_page));
    let _ = write!(m, "seed={};", config.seed);
    let _ = write!(m, "repeat={};", point.repeat);
    let _ = write!(m, "golden={};", config.check_golden);
    let _ = write!(m, "missbus={};", config.miss_bus_occupancy);
    let _ = write!(m, "maxcyc={};", config.max_cycles);
    let _ = write!(
        m,
        "spec={},{:x},{:x},{:x},{:x},{},{:x},{:x},{:x},{},{},{:x},{}",
        spec.name,
        spec.serial_fraction.to_bits(),
        spec.imbalance.to_bits(),
        spec.mem_ratio.to_bits(),
        spec.write_fraction.to_bits(),
        spec.working_set_bytes,
        spec.shared_fraction.to_bits(),
        spec.locality.to_bits(),
        spec.hot_fraction.to_bits(),
        spec.phases,
        spec.total_ops,
        spec.ifetch_miss_rate.to_bits(),
        spec.base_addr,
    );
    m
}

/// The content-addressed key of one run point under one fingerprint.
pub fn cache_key(fingerprint: &Fingerprint, point: &RunPoint) -> CacheKey {
    let material = key_material(fingerprint, point);
    let bytes = material.as_bytes();
    let hi = fnv1a64_fold(FNV_OFFSET, bytes);
    let lo = fnv1a64_fold(FNV_OFFSET ^ KEY_SALT, bytes);
    CacheKey { hi, lo }
}

// ------------------------------------------------------ metrics codec

fn write_latency(out: &mut String, stats: &LatencyStats) {
    let _ = write!(
        out,
        "{{\"count\":{},\"total\":{},\"max\":{},\"buckets\":[",
        stats.count(),
        stats.total(),
        stats.max()
    );
    for (i, b) in stats.buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push_str("]}");
}

/// Serialises metrics as one JSON line (no trailing newline). Floats
/// are stored as `to_bits()` integers — see the module docs.
pub fn metrics_to_json(m: &Metrics) -> String {
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"label\":{},\"cycles\":{},\"exec_time_bits\":{},\"instructions\":{},\
         \"l1_hits\":{},\"l1_misses\":{},\"l2_hits\":{},\"l2_misses\":{},\"dram_accesses\":{},\
         \"invalidations\":{},\"recalls\":{},\"l2_latency\":",
        json_string(&m.label),
        m.cycles,
        m.exec_time.value().to_bits(),
        m.instructions,
        m.l1_hits,
        m.l1_misses,
        m.l2_hits,
        m.l2_misses,
        m.dram_accesses,
        m.invalidations,
        m.recalls,
    );
    write_latency(&mut s, &m.l2_latency);
    let ic = &m.interconnect;
    let _ = write!(
        s,
        ",\"interconnect\":{{\"requests\":{},\"responses\":{},\
         \"total_request_latency\":{},\"max_request_latency\":{}}}",
        ic.requests, ic.responses, ic.total_request_latency, ic.max_request_latency,
    );
    let e = &m.energy;
    let _ = write!(
        s,
        ",\"energy_bits\":{{\"cores\":{},\"l1\":{},\"l2\":{},\"interconnect\":{},\"dram\":{}}}}}",
        e.cores.value().to_bits(),
        e.l1.value().to_bits(),
        e.l2.value().to_bits(),
        e.interconnect.value().to_bits(),
        e.dram.value().to_bits(),
    );
    s
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-u64 field {key:?}"))
}

fn field_joules(v: &JsonValue, key: &str) -> Result<Joules, String> {
    Ok(Joules::new(f64::from_bits(field_u64(v, key)?)))
}

/// Parses [`metrics_to_json`] output back into bit-identical metrics.
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn metrics_from_json(line: &str) -> Result<Metrics, String> {
    metrics_from_value(&json::parse(line)?)
}

/// [`metrics_from_json`] on an already-parsed value (the store wraps
/// metrics in an envelope object and hands the inner value here).
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn metrics_from_value(v: &JsonValue) -> Result<Metrics, String> {
    let label = v
        .get("label")
        .and_then(JsonValue::as_str)
        .ok_or("missing label")?
        .to_string();
    let lat = v.get("l2_latency").ok_or("missing l2_latency")?;
    let bucket_values = lat
        .get("buckets")
        .and_then(JsonValue::as_array)
        .ok_or("missing l2_latency.buckets")?;
    let mut buckets = [0u64; 7];
    if bucket_values.len() != buckets.len() {
        return Err(format!("expected 7 buckets, got {}", bucket_values.len()));
    }
    for (slot, b) in buckets.iter_mut().zip(bucket_values) {
        *slot = b.as_u64().ok_or("non-u64 bucket")?;
    }
    let l2_latency = LatencyStats::from_raw(
        field_u64(lat, "count")?,
        field_u64(lat, "total")?,
        field_u64(lat, "max")?,
        buckets,
    );
    let ic = v.get("interconnect").ok_or("missing interconnect")?;
    let interconnect = InterconnectStats {
        requests: field_u64(ic, "requests")?,
        responses: field_u64(ic, "responses")?,
        total_request_latency: field_u64(ic, "total_request_latency")?,
        max_request_latency: field_u64(ic, "max_request_latency")?,
    };
    let e = v.get("energy_bits").ok_or("missing energy_bits")?;
    let energy = EnergyBreakdown {
        cores: field_joules(e, "cores")?,
        l1: field_joules(e, "l1")?,
        l2: field_joules(e, "l2")?,
        interconnect: field_joules(e, "interconnect")?,
        dram: field_joules(e, "dram")?,
    };
    Ok(Metrics {
        label,
        cycles: field_u64(v, "cycles")?,
        exec_time: Seconds::new(f64::from_bits(field_u64(v, "exec_time_bits")?)),
        instructions: field_u64(v, "instructions")?,
        l1_hits: field_u64(v, "l1_hits")?,
        l1_misses: field_u64(v, "l1_misses")?,
        l2_hits: field_u64(v, "l2_hits")?,
        l2_misses: field_u64(v, "l2_misses")?,
        dram_accesses: field_u64(v, "dram_accesses")?,
        l2_latency,
        invalidations: field_u64(v, "invalidations")?,
        recalls: field_u64(v, "recalls")?,
        interconnect,
        energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_bench::plan::ExperimentPlan;
    use mot3d_bench::ExperimentScale;

    fn tiny_record() -> mot3d_bench::plan::RunRecord {
        ExperimentPlan::new("codec")
            .scale(ExperimentScale::tiny())
            .threads(1)
            .run()
            .unwrap()
            .remove(0)
    }

    #[test]
    fn metrics_round_trip_is_bit_identical() {
        let record = tiny_record();
        let line = metrics_to_json(&record.metrics);
        let back = metrics_from_json(&line).unwrap();
        assert_eq!(back, record.metrics);
        assert_eq!(
            back.exec_time.value().to_bits(),
            record.metrics.exec_time.value().to_bits(),
            "exact bits, not approximate equality"
        );
        assert_eq!(metrics_to_json(&back), line, "re-encoding is stable");
    }

    #[test]
    fn replayed_record_serialises_byte_identically() {
        let record = tiny_record();
        let replayed = mot3d_bench::plan::RunRecord::new(
            record.point.clone(),
            metrics_from_json(&metrics_to_json(&record.metrics)).unwrap(),
        );
        assert_eq!(
            mot3d_bench::sink::record_json_line(&replayed),
            mot3d_bench::sink::record_json_line(&record),
        );
    }

    #[test]
    fn hex_spelling_round_trips() {
        let record = tiny_record();
        let key = cache_key(&Fingerprint::current(), &record.point);
        let hex = key.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(CacheKey::from_hex(&hex), Some(key));
        assert_eq!(CacheKey::from_hex("feed"), None);
        assert_eq!(CacheKey::from_hex(&"g".repeat(32)), None);
        // 32 bytes whose byte 16 falls inside a multi-byte character.
        assert_eq!(CacheKey::from_hex(&format!("{}ab", "€".repeat(10))), None);
        // `from_str_radix` alone would read each half as `+0…0`.
        assert_eq!(CacheKey::from_hex("+000000000000000+000000000000000"), None);
        assert_eq!(CacheKey::from_hex(&hex.to_uppercase()), None);
    }

    #[test]
    fn key_ignores_plan_position_but_sees_every_axis() {
        let fp = Fingerprint::current();
        let record = tiny_record();
        let mut moved = record.point.clone();
        moved.index += 17;
        assert_eq!(
            cache_key(&fp, &moved),
            cache_key(&fp, &record.point),
            "grid position must not partition the cache"
        );
        let mut reseeded = record.point.clone();
        reseeded.config.seed ^= 1;
        assert_ne!(cache_key(&fp, &reseeded), cache_key(&fp, &record.point));
        assert_ne!(
            cache_key(&Fingerprint::custom("other build"), &record.point),
            cache_key(&fp, &record.point),
        );
    }

    #[test]
    fn malformed_metrics_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"label\":\"x\"}",
            "not json",
            // cycles as a float: the exact-integer contract is load-bearing.
            "{\"label\":\"x\",\"cycles\":1.5}",
        ] {
            assert!(metrics_from_json(bad).is_err(), "{bad:?}");
        }
    }
}
