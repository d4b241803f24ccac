//! Cache-key contract tests: the key is stable across process restarts
//! (pinned golden value), moves when any sweep axis moves, and moves
//! when the fingerprint moves.

use mot3d_bench::plan::{ExperimentPlan, RunPoint};
use mot3d_bench::ExperimentScale;
use mot3d_mem::dram::DramKind;
use mot3d_mot::PowerState;
use mot3d_phys::fnv::{fnv1a64_fold, FNV_OFFSET};
use mot3d_serve::codec::key_material;
use mot3d_serve::{cache_key, CacheKey, Fingerprint, PlanRequest};
use mot3d_workloads::SplashBenchmark;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The canonical reference point: `fft` on the defaults (MoT 3-D, Full,
/// 200 ns DRAM, flat pages) at the pinned tiny scale.
fn reference_point() -> RunPoint {
    let points = ExperimentPlan::new("key")
        .splash([SplashBenchmark::Fft])
        .scale(ExperimentScale::tiny())
        .points();
    assert_eq!(points.len(), 1);
    points.into_iter().next().unwrap()
}

/// The key of plan point 0 under the test fingerprint.
fn key_of(plan: ExperimentPlan) -> CacheKey {
    let fp = Fingerprint::custom("test/1");
    cache_key(&fp, plan.points().first().expect("non-empty plan"))
}

fn base_plan() -> ExperimentPlan {
    ExperimentPlan::new("key")
        .splash([SplashBenchmark::Fft])
        .scale(ExperimentScale::tiny())
}

/// A fresh server process must locate results written by a previous
/// one, so the key for a fixed point is pinned for schema 1: this value
/// was computed once and must never drift within a fingerprint. (An
/// *intentional* hash change is fine — it reads as a cache miss — but
/// must come with a [`Fingerprint`] schema bump, not silently.)
#[test]
fn reference_key_is_pinned_across_restarts() {
    let key = cache_key(&Fingerprint::custom("test/1"), &reference_point());
    let recomputed = cache_key(&Fingerprint::custom("test/1"), &reference_point());
    assert_eq!(key, recomputed, "key computation is deterministic");
    assert_eq!(key, CacheKey::from_hex(&key.to_hex()).unwrap());
    let pinned = "2a11a4c7ddf124bc4808ccdf2f05523b";
    assert_eq!(key.to_hex(), pinned, "schema-1 key drifted");
}

/// Every sweep axis must move the key: two points that differ anywhere
/// must never collide on purpose.
#[test]
fn each_axis_moves_the_key() {
    let base = key_of(base_plan());
    let mut keys = BTreeSet::new();
    assert!(keys.insert(base), "base");
    assert!(
        keys.insert(key_of(base_plan().splash([SplashBenchmark::Radix]))),
        "workload"
    );
    let mesh = mot3d_bench::axes::parse_interconnects("mesh").unwrap();
    assert!(
        keys.insert(key_of(base_plan().interconnects(mesh))),
        "interconnect"
    );
    assert!(
        keys.insert(key_of(base_plan().power_states([PowerState::pc4_mb8()]))),
        "power state"
    );
    assert!(
        keys.insert(key_of(base_plan().drams([DramKind::WideIo]))),
        "dram"
    );
    assert!(
        keys.insert(key_of(base_plan().page_policies([true]))),
        "page policy"
    );
    let repeats: Vec<CacheKey> = {
        let fp = Fingerprint::custom("test/1");
        base_plan()
            .repeats(2)
            .points()
            .iter()
            .map(|p| cache_key(&fp, p))
            .collect()
    };
    assert_eq!(repeats[0], base, "repeat 0 is the canonical seed");
    assert!(keys.insert(repeats[1]), "repeat 1 is its own key");
}

/// The canary grid as run points: `radix` with the golden check on,
/// seed 7, the MoT in the four Table I power states and the three
/// baselines at `Full connection`, each with flat and open-page DRAM.
fn canary_points() -> Vec<RunPoint> {
    let canary = |plan: ExperimentPlan| {
        plan.splash([SplashBenchmark::Radix])
            .page_policies([false, true])
            .scale(ExperimentScale::tiny())
            .points()
    };
    let nocs = mot3d_bench::axes::parse_interconnects("mesh,bus-mesh,bus-tree").unwrap();
    let mut points =
        canary(ExperimentPlan::new("canary").power_states(PowerState::date16_states()));
    points.extend(canary(ExperimentPlan::new("canary").interconnects(nocs)));
    for point in &mut points {
        point.config.seed = 7;
        point.config.check_golden = true;
    }
    points
}

/// The benchmark's short-points grid: 8 SPLASH × 4 power states × 3
/// DRAM × 2 page policies × 4 repeats at tiny scale.
fn short_points() -> Vec<RunPoint> {
    let request = PlanRequest {
        power_state: Some("all".to_string()),
        dram: Some("all".to_string()),
        page: Some("both".to_string()),
        repeat: Some(4),
        scale: Some("tiny".to_string()),
        seed: Some(1),
        ..PlanRequest::new("short_points")
    };
    request.to_plan().expect("a valid request").points()
}

/// `cache_key` folds the key material as it is written; the oracle
/// renders it and folds the two halves one after the other. They agree
/// on every point of the canary and short-points grids, under the
/// running build's fingerprint and a custom one.
#[test]
fn the_streamed_key_equals_two_folds_over_the_key_material() {
    let canary = canary_points();
    assert_eq!(canary.len(), 14);
    let short = short_points();
    assert_eq!(short.len(), 768);
    for fp in [Fingerprint::current(), Fingerprint::custom("test/1")] {
        for point in canary.iter().chain(&short) {
            let material = key_material(&fp, point);
            let hi = fnv1a64_fold(FNV_OFFSET, material.as_bytes());
            // The second half starts from the codec's salted offset.
            let lo = fnv1a64_fold(FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15, material.as_bytes());
            let oracle = format!("{hi:016x}{lo:016x}");
            assert_eq!(cache_key(&fp, point).to_hex(), oracle, "{material}");
        }
    }
}

/// The fingerprint segregates stores across code/schema revisions.
#[test]
fn fingerprint_moves_the_key() {
    let point = reference_point();
    let a = cache_key(&Fingerprint::custom("test/1"), &point);
    let b = cache_key(&Fingerprint::custom("test/2"), &point);
    let c = cache_key(&Fingerprint::current(), &point);
    assert_ne!(a, b);
    assert_ne!(a, c);
    assert_ne!(b, c);
}

proptest! {
    /// Scale and seed both feed the key: across a grid of (scale, seed)
    /// pairs every key is distinct, and recomputing any of them is
    /// stable.
    #[test]
    fn scale_and_seed_feed_the_key(
        scale_milli in 1u32..=64,
        seed in 0u64..=1024,
    ) {
        let scale = ExperimentScale {
            scale: f64::from(scale_milli) / 1000.0,
            seed,
        };
        let plan = || {
            ExperimentPlan::new("key")
                .splash([SplashBenchmark::Fft])
                .scale(scale)
        };
        let key = key_of(plan());
        prop_assert_eq!(key, key_of(plan()), "stable");
        let other_seed = ExperimentScale {
            seed: seed + 1,
            ..scale
        };
        prop_assert_ne!(key, key_of(plan().scale(other_seed)), "seed feeds key");
        let other_scale = ExperimentScale {
            scale: scale.scale * 2.0,
            ..scale
        };
        prop_assert_ne!(
            key,
            key_of(plan().scale(other_scale)),
            "scale feeds key (via the scaled workload spec)"
        );
    }
}
