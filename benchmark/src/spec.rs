//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root repeats these tables for the driver; a unit test
//! keeps the two in step.

/// Default seed: `ExperimentScale::default().seed`, the seed the
/// committed `BENCH_results.json` checksums were recorded at.
pub const DEFAULT_SEED: u64 = 0x0DA7_E201;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One of the six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 grid, one thread.
    Fig6Interconnects,
    /// Fig. 7 grid, one thread.
    Fig7PowerStates,
    /// The five `BENCH_results.json` sweeps on `N` threads.
    PaperGridNt,
    /// 768 tiny points over 96 configurations, one thread.
    ShortPoints,
    /// The short-points grid submitted to a fresh, empty server.
    ServeCold,
    /// The short-points grid resubmitted to a populated server.
    ServeWarm,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::Fig6Interconnects,
        Workload::Fig7PowerStates,
        Workload::PaperGridNt,
        Workload::ShortPoints,
        Workload::ServeCold,
        Workload::ServeWarm,
    ];

    /// The workload's name on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Interconnects => "fig6_interconnects",
            Workload::Fig7PowerStates => "fig7_power_states",
            Workload::PaperGridNt => "paper_grid_nt",
            Workload::ShortPoints => "short_points",
            Workload::ServeCold => "serve_cold",
            Workload::ServeWarm => "serve_warm",
        }
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig6Interconnects => {
                "24 of 32 points run the packet-switched baselines at Full power: \
                 noc, the phys packet wheel and the mem L2 bank path carry it; serve does nothing"
            }
            Workload::Fig7PowerStates => {
                "MoT only, mostly gated and low-IPC: idle skipping, the mem Miss bus + DRAM \
                 and the mot fast paths dominate; noc does nothing"
            }
            Workload::PaperGridNt => {
                "mot3d all on N threads: the same sim work through bench::pool and the prefix \
                 re-orderer, so a one-thread gain that dies under contention shows"
            }
            Workload::ShortPoints => {
                "768 tiny points over 96 configurations: Cluster::new/reset and stream set-up \
                 are ~30 % of a pass and ClusterPool sets the RSS"
            }
            Workload::ServeCold => {
                "the service's write path: every point is simulated, stored and streamed by a \
                 fresh server; its gap to short_points is the service tax"
            }
            Workload::ServeWarm => {
                "the service's read path: every point is a store hit, sim does nothing; \
                 store, codec, json and the client's line scan carry it"
            }
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload talks to a `mot3d serve` instance.
    pub fn is_served(self) -> bool {
        matches!(self, Workload::ServeCold | Workload::ServeWarm)
    }
}

/// An end-to-end metric: what a user of `mot3d all` / `mot3d submit`
/// sees. Every workload reports every one of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The nine end-to-end metrics. A *sample* is one timed pass of an
/// offline sweep workload, or one submission on a serve workload.
pub const END_TO_END: [EndToEnd; 9] = [
    // Workload start → first timed sample: plan build, the cold pass,
    // server bind, store pre-population.
    e2e("setup_s", "s", Better::Lower, 0.25),
    // Median wall-clock of one sample.
    e2e("wall_s", "s", Better::Lower, 0.25),
    // Σ Metrics.cycles delivered by a sample ÷ its wall.
    e2e("sim_cycles_per_s", "cycles/s", Better::Higher, 0.25),
    // Run points delivered (record lines) ÷ wall.
    e2e("points_per_s", "points/s", Better::Higher, 0.25),
    // Plan submitted → last byte and summary: `wall_s` in ms.
    e2e("request_ms_p50", "ms", Better::Lower, 0.25),
    // The same at the 95th percentile; the median below 200 samples.
    e2e("request_ms_p95", "ms", Better::Lower, 0.25),
    // Plan submitted → first record line at the consumer.
    e2e("first_record_ms_p50", "ms", Better::Lower, 0.25),
    // VmHWM of the workload's own process when measuring ends.
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    // Mean |reproduced − paper| over the headline claims the workload's
    // records cover (see `claims`).
    e2e("claim_err_pp", "pp", Better::Lower, 0.15),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric from the traced run. No bound: they explain an
/// end-to-end move, they do not gate one. A layer that does nothing on
/// a workload reads 0 there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name, `<crate>.<component>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement (for exact counts: less work is better).
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in ledger order.
pub const PER_LAYER: [PerLayer; 59] = [
    // Staged spans, ms per pass or request (median).
    lo("bench.plan.expand_ms", "ms"),
    lo("workloads.streams_ms", "ms"),
    lo("sim.cluster_new_ms", "ms"),
    lo("sim.clusters_built", "count"),
    lo("sim.cluster_reset_ms", "ms"),
    lo("sim.resets", "count"),
    lo("sim.run_ms", "ms"),
    lo("sim.verify_metrics_ms", "ms"),
    lo("sim.host_ns_per_cycle", "ns"),
    lo("sim.host_ns_per_instr", "ns"),
    lo("sim.host_ns_per_l2_tx", "ns"),
    lo("sim.setup_share_pct", "%"),
    // Exact simulated counts per pass: a simulator-only change must
    // leave them where they are.
    lo("sim.cycles", "count"),
    lo("sim.instructions", "count"),
    lo("mem.l1_accesses", "count"),
    lo("mem.l2_accesses", "count"),
    hi("mem.l2_hit_ratio", "ratio"),
    lo("mem.dram_accesses", "count"),
    lo("mem.coherence_events", "count"),
    lo("mot.requests", "count"),
    lo("noc.requests", "count"),
    lo("bench.sink.encode_ms", "ms"),
    lo("bench.pool.busy_ms", "ms"),
    hi("bench.pool.parallel_efficiency", "ratio"),
    lo("bench.pool.tail_idle_ms", "ms"),
    lo("bench.unattributed_pct", "%"),
    lo("serve.protocol.parse_ms", "ms"),
    lo("serve.codec.key_ms", "ms"),
    lo("serve.store.get_ms", "ms"),
    hi("serve.store.hit_ratio", "ratio"),
    lo("serve.store.put_ms", "ms"),
    lo("serve.store.bytes_per_point", "B"),
    lo("serve.store.open_ms", "ms"),
    lo("serve.exec.simulate_ms", "ms"),
    lo("serve.server.write_ms", "ms"),
    lo("serve.client.scan_ms", "ms"),
    lo("serve.unattributed_ms", "ms"),
    lo("serve.exec.executed", "count"),
    lo("serve.exec.waited", "count"),
    lo("serve.exec.failed", "count"),
    lo("serve.exec.race_wall_ratio", "ratio"),
    // Kernels, ns per operation (median of fixed-count batches).
    lo("phys.wheel.churn_ns", "ns"),
    lo("mem.cache.l1_hit_ns", "ns"),
    lo("mem.cache.l2_fill_evict_ns", "ns"),
    lo("mem.bus.grant_ns", "ns"),
    lo("mem.dram.access_ns", "ns"),
    lo("mot.network.round_trip16_ns", "ns"),
    lo("mot.network.idle_tick_ns", "ns"),
    lo("noc.network.round_trip16_ns.mesh", "ns"),
    lo("noc.network.round_trip16_ns.bus_mesh", "ns"),
    lo("noc.network.round_trip16_ns.bus_tree", "ns"),
    lo("workloads.generator.next_op_ns", "ns"),
    lo("sim.step_ns", "ns"),
    hi("sim.event_skip_speedup", "ratio"),
    lo("trace.traced_run_ratio", "ratio"),
    lo("trace.bytes_per_kcycle", "B"),
    lo("serve.codec.metrics_encode_ns", "ns"),
    lo("serve.codec.metrics_decode_ns", "ns"),
    lo("spans.overhead_pct", "%"),
];

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// The text of the repository's `BENCHMARK.json`: `bench spec` prints
/// it, and a unit test holds the committed file to it.
pub fn benchmark_json() -> String {
    use mot3d_serve::json::json_string;
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let list = |s: &mut String, key: &str, rows: Vec<String>| {
        s.push_str(&format!(
            "  \"{key}\": [\n    {}\n  ]",
            rows.join(",\n    ")
        ));
    };
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    list(&mut s, "workloads", workloads);
    s.push_str(",\n");
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    list(&mut s, "end_to_end", end_to_end);
    s.push_str(",\n");
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    list(&mut s, "per_layer", per_layer);
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_serve::json::{self, JsonValue};

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `bench spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn benchmark_json_keeps_to_the_drivers_limits() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).unwrap();
        let JsonValue::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let len = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap().len();
        assert!((2..=8).contains(&len("workloads")));
        assert!((1..=16).contains(&len("end_to_end")));
        assert!((1..=128).contains(&len("per_layer")));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= setup.bound && setup.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert_eq!(Workload::parse("serve_warm"), Some(Workload::ServeWarm));
        assert_eq!(Workload::parse("nope"), None);
    }
}
